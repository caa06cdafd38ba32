// Tenant-defined quorum replica set (paper §V-B3, grown into a real
// replication protocol). Writes are copied, in order, to backup volumes
// attached to the middle-box while the original proceeds to the primary;
// with a `quorum` policy stanza the SCSI response is released to the
// tenant only once W of the N copies (primary included) have
// acknowledged. Every completed write burst bumps a per-set version;
// each replica tracks the last version it applied, so a copy that
// missed writes is *degraded* — excluded from read rotation — until the
// copy machine (rebuild.hpp) streams its dirty extents back from a
// survivor. Reads stripe round-robin across the up-to-date copies and
// re-verify the serving replica's version on completion: a replica that
// degraded while the read was in flight can never return stale bytes.
//
// Recovery state (write-intent extents + the replica state/version map)
// is journaled into the hosting relay's NVRAM device, so a relay power
// failure degrades replicas conservatively instead of silently
// resurrecting them as up-to-date.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "block/block_device.hpp"
#include "core/policy.hpp"
#include "core/service.hpp"
#include "iscsi/burst.hpp"
#include "journal/log.hpp"
#include "net/qos.hpp"
#include "services/rebuild.hpp"
#include "services/write_tracker.hpp"

namespace storm::services {

enum class ReplicaState : std::uint8_t {
  kLive = 0,        // in read rotation, receives every write
  kDegraded = 1,    // missed writes (or device dead); out of rotation
  kRebuilding = 2,  // copy machine streaming dirty extents back
};

const char* to_string(ReplicaState state);

class ReplicationService : public core::StorageService {
 public:
  /// Attach one backup volume to the middle-box VM and deliver its block
  /// device. Used at initialize() for the configured replicas and again
  /// by the health probe to re-attach a dead replica or a spare. The
  /// primary stays reachable only through the forwarding path, as in the
  /// paper's Figure 12.
  using AttachFn = std::function<void(
      const std::string& volume,
      std::function<void(Status, block::BlockDevice*)>)>;

  /// `quorum` is the policy's `quorum` stanza. Disabled = legacy
  /// fire-and-forget mirroring: the primary's response passes through
  /// unheld, but version tracking and rebuild still run.
  ReplicationService(std::vector<std::string> replica_volumes,
                     AttachFn attach, core::QuorumSpec quorum);

  std::string name() const override { return "replication"; }
  bool requires_active_relay() const override { return true; }
  // Bypassing replication silently stops mirroring acknowledged writes.
  bool confidentiality_critical() const override { return true; }
  // The copy set is bound to one protected volume at construction; a
  // pooled instance would mirror the wrong volume's writes.
  bool replica_safe() const override { return false; }

  void initialize(std::function<void(Status)> ready) override;
  core::ServiceVerdict on_pdu(core::ServiceContext& ctx, core::Direction dir,
                              iscsi::Pdu& pdu) override;

  void bind_host(const core::ServiceHost& host) override;
  void on_health_probe(sim::Time now) override;
  void on_host_crashed() override;
  void on_host_recovered() override;

  /// Add a fresh spare copy to the set: it starts degraded with every
  /// written extent dirty; the health probe attaches it and the copy
  /// machine streams it to parity before it joins read rotation.
  void attach_spare(const std::string& volume);

  // --- accessors (tests / benches) ---
  std::size_t replica_count() const { return replicas_.size(); }
  std::size_t live_replicas() const;
  ReplicaState replica_state(std::size_t i) const {
    return replicas_[i]->state;
  }
  std::uint64_t replica_version(std::size_t i) const {
    return replicas_[i]->version;
  }
  std::uint64_t set_version() const { return set_version_; }
  std::uint64_t reads_from_primary() const { return reads_primary_; }
  std::uint64_t reads_from_replicas() const { return reads_replica_; }
  std::uint64_t reads_failed_over() const { return reads_failed_over_; }
  std::uint64_t writes_replicated() const { return writes_replicated_; }
  std::uint64_t failovers() const { return failovers_; }
  std::uint64_t stale_reads_prevented() const {
    return stale_reads_prevented_;
  }
  std::uint64_t quorum_commits() const { return quorum_commits_; }
  std::uint64_t quorum_failures() const { return quorum_failures_; }
  std::uint64_t rebuilds_completed() const { return rebuilds_completed_; }
  std::uint64_t rebuild_bytes() const { return rebuild_bytes_; }
  /// Dirty sectors still owed across all replicas (rebuild backlog).
  std::uint64_t rebuild_backlog_sectors() const;

 private:
  struct Replica {
    std::string volume;
    block::BlockDevice* device = nullptr;
    ReplicaState state = ReplicaState::kLive;
    /// Last write version this copy applied (its row of the version map).
    std::uint64_t version = 0;
    /// Bumped on every degrade: completions from before the transition
    /// compare generations and drop their effects.
    std::uint64_t generation = 0;
    /// The device errored (session dead): needs a re-attach before any
    /// rebuild can target it.
    bool device_dead = false;
    bool attaching = false;
    /// In read rotation with a working session: may serve reads and
    /// rebuild sources.
    bool readable() const {
      return state == ReplicaState::kLive && device != nullptr &&
             !device_dead;
    }
    /// Sector extents this copy missed.
    ExtentSet dirty;
    std::shared_ptr<CopyMachine> machine;
    std::unique_ptr<net::TokenBucket> pacer;
    sim::Time rebuild_started = 0;
  };

  /// One write burst awaiting its W-of-N acknowledgments (quorum mode).
  struct PendingWrite {
    std::uint64_t version = 0;
    core::ServiceContext* ctx = nullptr;
    std::uint32_t acks = 0;         // replica acks received
    std::uint32_t outstanding = 0;  // replica writes still in flight
    std::uint32_t required = 0;     // acks needed, primary included
    bool primary_seen = false;      // primary's SCSI response arrived
    bool primary_acked = false;     // ... with GOOD status
    bool have_primary_response = false;
    bool responded = false;  // a response was released to the initiator
    iscsi::Pdu primary_response;
    sim::Time started = 0;
  };

  /// A rebuild read served by the primary through the relay's data path
  /// (synthetic task tag; Data-In/Response consumed in on_pdu).
  struct PrimaryRead {
    iscsi::BurstAssembler data;
    block::BlockDevice::ReadCallback done;
  };

  core::ServiceVerdict on_to_target(core::ServiceContext& ctx,
                                    iscsi::Pdu& pdu);
  core::ServiceVerdict on_to_initiator(core::ServiceContext& ctx,
                                       iscsi::Pdu& pdu);
  void handle_write_burst(core::ServiceContext& ctx, std::uint32_t task_tag,
                          const IoTracker::WriteBurst& burst);
  void dispatch_replica_write(std::size_t i, std::uint64_t version,
                              std::uint64_t begin, std::uint64_t end,
                              const Bytes& data, bool counts_quorum,
                              std::uint32_t task_tag);
  void serve_read_from_replica(std::size_t i, const iscsi::Pdu& command,
                               core::ServiceContext& ctx);
  void reserve_from_primary(core::ServiceContext& ctx,
                            const iscsi::Pdu& command);

  void degrade(std::size_t i, const char* why);
  void start_rebuild(std::size_t i);
  void finish_rebuild(std::size_t i);
  void try_reattach(std::size_t i);
  void rebuild_read_source(std::size_t i, std::uint64_t lba,
                           std::uint32_t sectors,
                           block::BlockDevice::ReadCallback done);
  void read_primary(std::uint64_t lba, std::uint32_t sectors,
                    block::BlockDevice::ReadCallback done);

  void resolve_quorum_ack(std::uint32_t task_tag, bool ok);
  /// Re-evaluate commit for `task_tag`; releases/injects the response
  /// when the (possibly degraded-lowered) quorum is met, and erases the
  /// entry once fully drained.
  void maybe_commit(std::uint32_t task_tag);

  void journal_intent(std::uint64_t version, std::uint64_t lba,
                      std::uint32_t sectors);
  void note_intent_open(std::uint64_t version, std::uint32_t writes);
  void resolve_intent(std::uint64_t version);
  void advance_intent_trim();
  void persist_state();
  void recover_from_journal();
  void update_backlog_gauge();
  sim::Time now() const {
    return executor_.valid() ? executor_.now() : sim::Time{0};
  }

  std::vector<std::string> replica_volumes_;
  AttachFn attach_;
  core::QuorumSpec quorum_;
  /// unique_ptr: CopyMachine holds a reference to its replica's dirty
  /// set, which must stay put when attach_spare() grows the vector.
  std::vector<std::unique_ptr<Replica>> replicas_;
  IoTracker tracker_;

  // Host bindings (bind_host).
  sim::Executor executor_;
  obs::Scope scope_;
  journal::Device* journal_ = nullptr;
  journal::Stream intent_stream_;
  journal::Stream state_stream_;

  /// Injection context for service-originated PDUs outside an on_pdu
  /// frame (held quorum responses, rebuild reads from the primary).
  /// Refreshed on every on_pdu; nulled on host crash.
  core::ServiceContext* last_ctx_ = nullptr;

  /// Bumped by on_host_crashed(): callbacks from the dead incarnation
  /// (device completions, machine hooks) drop themselves.
  std::uint64_t service_epoch_ = 0;

  /// Version map spine: bumped once per completed write burst.
  std::uint64_t set_version_ = 0;
  std::uint64_t state_seq_ = 0;
  /// Every extent ever written through the set (seed for spare copies).
  ExtentSet written_;
  /// version -> unresolved replica writes (write-intent trim horizon).
  std::map<std::uint64_t, std::uint32_t> intent_outstanding_;
  std::map<std::uint32_t, PendingWrite> pending_;
  std::map<std::uint32_t, PrimaryRead> primary_reads_;
  std::uint32_t next_synth_tag_ = 0x52420000;  // "RB": rebuild reads

  std::uint64_t round_robin_ = 0;
  std::uint64_t reads_primary_ = 0;
  std::uint64_t reads_replica_ = 0;
  std::uint64_t reads_failed_over_ = 0;
  std::uint64_t writes_replicated_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t stale_reads_prevented_ = 0;
  std::uint64_t quorum_commits_ = 0;
  std::uint64_t quorum_failures_ = 0;
  std::uint64_t rebuilds_completed_ = 0;
  std::uint64_t rebuild_bytes_ = 0;
};

}  // namespace storm::services
