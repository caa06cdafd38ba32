#include "services/replication.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/async.hpp"
#include "common/bytes.hpp"
#include "common/log.hpp"

namespace storm::services {

namespace {

// Journal record framing for the service's two NVRAM streams. The
// version map and write intents are tiny fixed-shape records; a torn
// tail is discarded by the journal's CRC framing before we ever see it.
constexpr std::uint8_t kRecIntent = 1;
constexpr std::uint8_t kRecState = 2;

/// Per-I/O dispatch cost.
constexpr sim::Duration kPerIoCost = sim::microseconds(2);

}  // namespace

const char* to_string(ReplicaState state) {
  switch (state) {
    case ReplicaState::kLive:
      return "live";
    case ReplicaState::kDegraded:
      return "degraded";
    case ReplicaState::kRebuilding:
      return "rebuilding";
  }
  return "?";
}

ReplicationService::ReplicationService(
    std::vector<std::string> replica_volumes, AttachFn attach,
    core::QuorumSpec quorum)
    : replica_volumes_(std::move(replica_volumes)),
      attach_(std::move(attach)), quorum_(quorum) {}

void ReplicationService::bind_host(const core::ServiceHost& host) {
  executor_ = host.executor;
  scope_ = host.scope;
  if (host.journal != nullptr && journal_ == nullptr) {
    journal_ = host.journal;
    intent_stream_ = journal::Stream(*journal_);
    state_stream_ = journal::Stream(*journal_);
  }
}

void ReplicationService::initialize(std::function<void(Status)> ready) {
  Step step = [this, ready](std::size_t index, Next next) {
    attach_(replica_volumes_[index],
            [this, ready, index, next](Status status,
                                       block::BlockDevice* device) {
              if (!status.is_ok()) {
                ready(status);
                return;
              }
              auto replica = std::make_unique<Replica>();
              replica->volume = replica_volumes_[index];
              replica->device = device;
              replica->version = set_version_;
              replicas_.push_back(std::move(replica));
              next();
            });
  };
  run_steps(replica_volumes_.size(), std::move(step),
            [ready] { ready(Status::ok()); });
}

std::size_t ReplicationService::live_replicas() const {
  std::size_t live = 0;
  for (const auto& replica : replicas_) {
    if (replica->readable()) ++live;
  }
  return live;
}

std::uint64_t ReplicationService::rebuild_backlog_sectors() const {
  std::uint64_t total = 0;
  for (const auto& replica : replicas_) total += replica->dirty.sectors();
  return total;
}

void ReplicationService::update_backlog_gauge() {
  scope_.gauge("replication.rebuild_backlog_sectors")
      .set(static_cast<std::int64_t>(rebuild_backlog_sectors()));
}

void ReplicationService::attach_spare(const std::string& volume) {
  auto replica = std::make_unique<Replica>();
  replica->volume = volume;
  replica->state = ReplicaState::kDegraded;
  replica->device_dead = true;  // health probe attaches it
  replica->dirty = written_;    // owes everything ever written
  replicas_.push_back(std::move(replica));
  persist_state();
  update_backlog_gauge();
}

// ------------------------------------------------------------ data path

core::ServiceVerdict ReplicationService::on_pdu(core::ServiceContext& ctx,
                                                core::Direction dir,
                                                iscsi::Pdu& pdu) {
  last_ctx_ = &ctx;
  return dir == core::Direction::kToTarget ? on_to_target(ctx, pdu)
                                           : on_to_initiator(ctx, pdu);
}

core::ServiceVerdict ReplicationService::on_to_target(
    core::ServiceContext& ctx, iscsi::Pdu& pdu) {
  core::ServiceVerdict verdict;
  if (pdu.opcode == iscsi::Opcode::kScsiCommand && pdu.is_read()) {
    verdict.cpu_cost = kPerIoCost;
    // Round-robin across primary + up-to-date replicas for aggregate
    // read throughput. Slot 0 is the primary (forward unchanged).
    std::size_t choice = round_robin_++ % (1 + live_replicas());
    if (choice == 0) {
      ++reads_primary_;
      return verdict;  // forwarded to the primary volume
    }
    std::size_t seen = 0;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      const Replica& replica = *replicas_[i];
      if (!replica.readable()) continue;
      if (++seen == choice) {
        serve_read_from_replica(i, pdu, ctx);
        verdict.consume = true;
        return verdict;
      }
    }
    ++reads_primary_;
    return verdict;  // no readable replica found: primary serves
  }

  if (auto burst = tracker_.on_to_target(&ctx, pdu)) {
    verdict.cpu_cost = kPerIoCost;
    handle_write_burst(ctx, pdu.task_tag, *burst);
  }
  return verdict;
}

core::ServiceVerdict ReplicationService::on_to_initiator(
    core::ServiceContext& ctx, iscsi::Pdu& pdu) {
  (void)ctx;
  core::ServiceVerdict verdict;

  if (pdu.opcode == iscsi::Opcode::kDataIn) {
    auto it = primary_reads_.find(pdu.task_tag);
    if (it != primary_reads_.end()) {
      // Data for a rebuild read the service injected toward the primary:
      // collect it; never forward (the tenant never issued this tag). A
      // malformed burst leaves the read incomplete, so it fails.
      it->second.data.add(pdu.data_offset, std::move(pdu.data),
                          pdu.is_final());
      verdict.consume = true;
      verdict.cpu_cost = kPerIoCost;
    }
    return verdict;
  }

  if (pdu.opcode != iscsi::Opcode::kScsiResponse) return verdict;

  auto pr = primary_reads_.find(pdu.task_tag);
  if (pr != primary_reads_.end()) {
    PrimaryRead read = std::move(pr->second);
    primary_reads_.erase(pr);
    verdict.consume = true;
    verdict.cpu_cost = kPerIoCost;
    if (pdu.status == iscsi::kStatusGood && read.data.complete()) {
      read.done(Status::ok(), read.data.flatten());
    } else {
      read.done(error(ErrorCode::kIoError, "primary rebuild read failed"),
                Bytes{});
    }
    return verdict;
  }

  auto pit = pending_.find(pdu.task_tag);
  if (pit == pending_.end()) return verdict;
  PendingWrite& pw = pit->second;
  pw.primary_seen = true;
  verdict.cpu_cost = kPerIoCost;
  if (pdu.status != iscsi::kStatusGood) {
    // The primary failed the write: no replica quorum can make it
    // durable where it counts. Release the failure as-is — unless the
    // commit already early-ACKed, in which case the relay journal's
    // replay guarantee owns the outcome and the late failure is
    // suppressed like any duplicate response.
    ++quorum_failures_;
    scope_.counter("replication.quorum_failures").add();
    if (pw.responded) {
      verdict.consume = true;
    } else {
      pw.responded = true;
    }
    if (pw.outstanding == 0) pending_.erase(pit);
    return verdict;
  }
  pw.primary_acked = true;
  pw.have_primary_response = true;
  pw.primary_response = pdu;
  // Uniform release: the original is consumed here and maybe_commit
  // injects the held copy once the quorum is met (possibly right now).
  verdict.consume = true;
  maybe_commit(pdu.task_tag);
  return verdict;
}

// -------------------------------------------------------------- writes

void ReplicationService::handle_write_burst(
    core::ServiceContext& ctx, std::uint32_t task_tag,
    const IoTracker::WriteBurst& burst) {
  const std::uint64_t version = ++set_version_;
  const std::uint64_t begin = burst.lba;
  const std::uint64_t sectors = burst.data.size() / block::kSectorSize;
  const std::uint64_t end = begin + sectors;
  written_.add(begin, end);
  journal_intent(version, begin, static_cast<std::uint32_t>(sectors));

  // Plan dispatch before touching any device: a replica ack must find
  // the quorum/trim bookkeeping already in place.
  std::vector<std::size_t> live_targets;
  std::vector<std::size_t> passthrough_targets;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    Replica& replica = *replicas_[i];
    if (replica.device == nullptr || replica.device_dead) {
      replica.dirty.add(begin, end);
      continue;
    }
    switch (replica.state) {
      case ReplicaState::kLive:
        live_targets.push_back(i);
        break;
      case ReplicaState::kRebuilding: {
        // Write-through keeps a rebuilding copy from falling further
        // behind — but a write overlapping the chunk in flight (or one
        // still owed) must be re-planned as dirty, or the in-flight
        // copy's pre-write bytes would clobber it.
        auto [active_begin, active_end] =
            replica.machine ? replica.machine->active_chunk()
                            : std::make_pair(std::uint64_t{0},
                                             std::uint64_t{0});
        const bool overlaps_active =
            active_begin < active_end && begin < active_end &&
            active_begin < end;
        if (overlaps_active || replica.dirty.intersects(begin, end)) {
          replica.dirty.add(begin, end);
        } else {
          passthrough_targets.push_back(i);
        }
        break;
      }
      case ReplicaState::kDegraded:
        replica.dirty.add(begin, end);
        break;
    }
  }

  note_intent_open(version, static_cast<std::uint32_t>(
                                live_targets.size() +
                                passthrough_targets.size()));

  if (quorum_.enabled) {
    PendingWrite pw;
    pw.version = version;
    pw.ctx = &ctx;
    pw.started = now();
    pw.outstanding = static_cast<std::uint32_t>(live_targets.size());
    // W counts the primary. When copies are already short, commit at
    // what the set can still deliver instead of failing the write.
    pw.required = std::min<std::uint32_t>(
        quorum_.write_quorum,
        static_cast<std::uint32_t>(1 + live_targets.size()));
    if (pw.required < quorum_.write_quorum) {
      scope_.counter("replication.quorum_degraded_commits").add();
    }
    pending_[task_tag] = std::move(pw);
  }

  for (std::size_t i : live_targets) {
    dispatch_replica_write(i, version, begin, end, burst.data,
                           quorum_.enabled, task_tag);
  }
  for (std::size_t i : passthrough_targets) {
    dispatch_replica_write(i, version, begin, end, burst.data, false,
                           task_tag);
  }

  ++writes_replicated_;
  scope_.counter("replication.writes_replicated").add();
  update_backlog_gauge();
}

void ReplicationService::dispatch_replica_write(
    std::size_t i, std::uint64_t version, std::uint64_t begin,
    std::uint64_t end, const Bytes& data, bool counts_quorum,
    std::uint32_t task_tag) {
  Replica& replica = *replicas_[i];
  const std::uint64_t generation = replica.generation;
  const std::uint64_t epoch = service_epoch_;
  // Each replica's iSCSI session is a FIFO byte stream, so all copies
  // apply the same write sequence (the consistency requirement in
  // §V-B3) and a copy's version advances monotonically.
  replica.device->write(
      begin, Bytes(data),
      [this, i, generation, epoch, version, begin, end, counts_quorum,
       task_tag](Status status) {
        if (epoch != service_epoch_) return;
        Replica& replica = *replicas_[i];
        if (status.is_ok()) {
          if (generation == replica.generation &&
              replica.state != ReplicaState::kDegraded &&
              version > replica.version) {
            replica.version = version;
          }
        } else if (generation == replica.generation) {
          replica.device_dead = true;
          replica.dirty.add(begin, end);
          if (replica.state != ReplicaState::kDegraded) {
            degrade(i, "write error");
          }
        }
        resolve_intent(version);
        if (counts_quorum) resolve_quorum_ack(task_tag, status.is_ok());
      });
}

void ReplicationService::resolve_quorum_ack(std::uint32_t task_tag,
                                            bool ok) {
  auto it = pending_.find(task_tag);
  if (it == pending_.end()) return;
  PendingWrite& pw = it->second;
  if (pw.outstanding > 0) --pw.outstanding;
  if (ok) ++pw.acks;
  maybe_commit(task_tag);
}

void ReplicationService::maybe_commit(std::uint32_t task_tag) {
  auto it = pending_.find(task_tag);
  if (it == pending_.end()) return;
  PendingWrite& pw = it->second;
  const std::uint32_t primary_potential =
      pw.primary_seen ? (pw.primary_acked ? 1u : 0u) : 1u;
  const std::uint32_t current = pw.acks + (pw.primary_acked ? 1u : 0u);
  const std::uint32_t attainable =
      pw.acks + pw.outstanding + primary_potential;
  if (!pw.responded && attainable < pw.required) {
    // Copies died under the write: lower the bar to what is still
    // attainable (counted) rather than failing the tenant's write.
    pw.required = std::max<std::uint32_t>(attainable, 1);
    scope_.counter("replication.quorum_degraded_commits").add();
  }
  if (!pw.responded && current >= pw.required) {
    pw.responded = true;
    ++quorum_commits_;
    scope_.counter("replication.quorum_commits").add();
    scope_.histogram("replication.quorum_latency_ns")
        .record(static_cast<std::int64_t>(now() - pw.started));
    iscsi::Pdu response =
        pw.have_primary_response
            ? pw.primary_response
            : iscsi::make_scsi_response(task_tag, iscsi::kStatusGood);
    if (pw.ctx != nullptr) pw.ctx->inject_to_initiator(std::move(response));
  }
  if (pw.responded && pw.outstanding == 0 && pw.primary_seen) {
    pending_.erase(it);
  }
}

// --------------------------------------------------------------- reads

void ReplicationService::serve_read_from_replica(std::size_t i,
                                                 const iscsi::Pdu& command,
                                                 core::ServiceContext& ctx) {
  Replica& replica = *replicas_[i];
  const std::uint64_t generation = replica.generation;
  const std::uint64_t epoch = service_epoch_;
  const std::uint64_t dispatch_version = set_version_;
  const std::uint32_t sectors = command.transfer_length / block::kSectorSize;
  replica.device->read(
      command.lba, sectors,
      [this, i, generation, epoch, dispatch_version, command,
       &ctx](Status status, Bytes data) {
        // A relay crash invalidated `ctx`; the initiator re-issues the
        // command after restart and it re-traverses the service.
        if (epoch != service_epoch_) return;
        Replica& replica = *replicas_[i];
        if (!status.is_ok()) {
          if (generation == replica.generation) {
            replica.device_dead = true;
            if (replica.state == ReplicaState::kLive) {
              degrade(i, "read error");
            }
          }
          ++reads_failed_over_;
          reserve_from_primary(ctx, command);
          return;
        }
        if (generation != replica.generation ||
            replica.state != ReplicaState::kLive ||
            replica.version < dispatch_version) {
          // The copy degraded (or fell behind the version map) while the
          // read was in flight: its bytes may predate acknowledged
          // writes. Discard and re-serve from the primary.
          ++stale_reads_prevented_;
          scope_.counter("replication.stale_reads_prevented").add();
          ++reads_failed_over_;
          reserve_from_primary(ctx, command);
          return;
        }
        // Counted on successful completion only: a read that failed over
        // must not also count as served-from-replica.
        ++reads_replica_;
        scope_.counter("replication.reads_from_replicas").add();
        for (iscsi::Pdu& out :
             iscsi::split_read_reply(command.task_tag, Buf(std::move(data)))) {
          ctx.inject_to_initiator(std::move(out));
        }
      });
}

void ReplicationService::reserve_from_primary(core::ServiceContext& ctx,
                                              const iscsi::Pdu& command) {
  // Failover: the unfinished read is served by re-injecting the command
  // toward the primary volume. Its response flows back untouched (the
  // tag is tracked by neither pending_ nor primary_reads_).
  iscsi::Pdu retry = command;
  retry.data = Buf{};
  ctx.inject_to_target(retry);
}

// ------------------------------------------------------ failure/rebuild

void ReplicationService::degrade(std::size_t i, const char* why) {
  Replica& replica = *replicas_[i];
  if (replica.state == ReplicaState::kDegraded) return;
  const bool was_live = replica.state == ReplicaState::kLive;
  replica.state = ReplicaState::kDegraded;
  ++replica.generation;
  if (replica.machine) replica.machine->halt();
  if (was_live) ++failovers_;
  scope_.counter("replication.replica_degraded").add();
  log_warn("replication") << "replica " << replica.volume << " degraded ("
                          << why << "), version " << replica.version << "/"
                          << set_version_;
  persist_state();
  update_backlog_gauge();
}

void ReplicationService::on_health_probe(sim::Time /*now*/) {
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    Replica& replica = *replicas_[i];
    switch (replica.state) {
      case ReplicaState::kDegraded:
        if (replica.device_dead || replica.device == nullptr) {
          try_reattach(i);
        } else {
          start_rebuild(i);
        }
        break;
      case ReplicaState::kRebuilding:
        // A machine stalls when no source was available; re-kick it on
        // the health cadence.
        if (replica.machine && !replica.machine->halted() &&
            !replica.machine->in_flight() && !replica.dirty.empty()) {
          replica.machine->kick();
        }
        break;
      case ReplicaState::kLive:
        break;
    }
  }
  update_backlog_gauge();
}

void ReplicationService::try_reattach(std::size_t i) {
  Replica& replica = *replicas_[i];
  if (replica.attaching || !attach_) return;
  replica.attaching = true;
  const std::uint64_t epoch = service_epoch_;
  attach_(replica.volume,
          [this, i, epoch](Status status, block::BlockDevice* device) {
            if (epoch != service_epoch_) return;
            Replica& replica = *replicas_[i];
            replica.attaching = false;
            if (!status.is_ok() || device == nullptr) return;  // next probe
            replica.device = device;
            replica.device_dead = false;
            scope_.counter("replication.replica_reattached").add();
            log_info("replication")
                << "replica " << replica.volume << " re-attached; "
                << replica.dirty.sectors() << " dirty sectors to rebuild";
            start_rebuild(i);
          });
}

void ReplicationService::start_rebuild(std::size_t i) {
  Replica& replica = *replicas_[i];
  if (replica.device == nullptr || replica.device_dead) return;
  if (replica.dirty.empty()) {
    // Nothing missed: the version-map match is immediate.
    replica.state = ReplicaState::kLive;
    replica.version = set_version_;
    persist_state();
    return;
  }
  replica.state = ReplicaState::kRebuilding;
  replica.rebuild_started = now();
  if (!replica.pacer) {
    replica.pacer = std::make_unique<net::TokenBucket>(
        executor_, quorum_.rebuild_rate_bytes_per_sec,
        quorum_.rebuild_burst_bytes);
    replica.pacer->bind_telemetry(
        &scope_.counter("replication.rebuild_throttled_bytes"),
        &scope_.gauge("replication.rebuild_queue_bytes"));
  }
  const std::uint64_t epoch = service_epoch_;
  const std::uint64_t generation = replica.generation;
  CopyMachine::Hooks hooks;
  hooks.read_source = [this, i, epoch](std::uint64_t lba,
                                       std::uint32_t sectors,
                                       block::BlockDevice::ReadCallback cb) {
    if (epoch != service_epoch_) {
      cb(error(ErrorCode::kUnavailable, "stale rebuild"), Bytes{});
      return;
    }
    rebuild_read_source(i, lba, sectors, std::move(cb));
  };
  hooks.on_chunk = [this, i, epoch, generation](std::uint64_t /*lba*/,
                                                std::uint64_t sectors) {
    if (epoch != service_epoch_) return;
    if (generation != replicas_[i]->generation) return;
    const std::uint64_t bytes = sectors * block::kSectorSize;
    rebuild_bytes_ += bytes;
    scope_.counter("replication.rebuild_bytes").add(bytes);
    // Journal the shrunk dirty map + cursor: a relay crash resumes the
    // rebuild from here instead of restarting it.
    persist_state();
    update_backlog_gauge();
  };
  hooks.on_drained = [this, i, epoch, generation] {
    if (epoch != service_epoch_) return;
    if (generation != replicas_[i]->generation) return;
    finish_rebuild(i);
  };
  hooks.on_target_error = [this, i, epoch, generation](Status /*status*/) {
    if (epoch != service_epoch_) return;
    Replica& replica = *replicas_[i];
    if (generation != replica.generation) return;
    replica.device_dead = true;
    degrade(i, "rebuild target write failed");
  };
  replica.machine = std::make_shared<CopyMachine>(
      executor_, *replica.pacer, replica.device, replica.dirty,
      std::move(hooks));
  log_info("replication") << "replica " << replica.volume << " rebuilding "
                          << replica.dirty.sectors() << " sectors";
  persist_state();
  replica.machine->kick();
}

void ReplicationService::finish_rebuild(std::size_t i) {
  Replica& replica = *replicas_[i];
  // The machine stays allocated (this runs inside its frame); halt()
  // fences any stray token grants until the next rebuild replaces it.
  if (replica.machine) replica.machine->halt();
  replica.state = ReplicaState::kLive;
  // Version-map match: the copy machine drained every dirty extent and
  // write-through kept it current for everything else, so the copy now
  // holds every write up to the set version.
  replica.version = set_version_;
  ++rebuilds_completed_;
  scope_.counter("replication.rebuilds_completed").add();
  scope_.histogram("replication.rebuild_ns")
      .record(static_cast<std::int64_t>(now() - replica.rebuild_started));
  log_info("replication") << "replica " << replica.volume
                          << " rebuilt, back in rotation at version "
                          << replica.version;
  persist_state();
  update_backlog_gauge();
}

void ReplicationService::rebuild_read_source(
    std::size_t i, std::uint64_t lba, std::uint32_t sectors,
    block::BlockDevice::ReadCallback done) {
  for (std::size_t j = 0; j < replicas_.size(); ++j) {
    if (j == i) continue;
    Replica& replica = *replicas_[j];
    if (replica.readable()) {
      replica.device->read(lba, sectors, std::move(done));
      return;
    }
  }
  // No live replica: stream from the primary through the relay's own
  // data path (Figure 12 — the primary is only reachable by injection).
  read_primary(lba, sectors, std::move(done));
}

void ReplicationService::read_primary(std::uint64_t lba,
                                      std::uint32_t sectors,
                                      block::BlockDevice::ReadCallback done) {
  if (last_ctx_ == nullptr) {
    // No session context yet (relay just restarted, no traffic seen):
    // the machine stalls and the next health probe retries.
    done(error(ErrorCode::kUnavailable, "no data path to primary"), Bytes{});
    return;
  }
  const std::uint32_t tag = next_synth_tag_++;
  primary_reads_[tag] = PrimaryRead{
      iscsi::BurstAssembler(sectors * block::kSectorSize), std::move(done)};
  last_ctx_->inject_to_target(
      iscsi::make_read_command(tag, lba, sectors * block::kSectorSize));
}

// ------------------------------------------------- journal + crash/rec

void ReplicationService::journal_intent(std::uint64_t version,
                                        std::uint64_t lba,
                                        std::uint32_t sectors) {
  if (journal_ == nullptr) return;
  Bytes rec;
  rec.reserve(1 + 8 + 8 + 4);
  ByteWriter w(rec);
  w.u8(kRecIntent);
  w.u64(version);
  w.u64(lba);
  w.u32(sectors);
  intent_stream_.append(BufChain{Buf(std::move(rec))}, version, true);
}

void ReplicationService::note_intent_open(std::uint64_t version,
                                          std::uint32_t writes) {
  intent_outstanding_[version] = writes;
  advance_intent_trim();
}

void ReplicationService::resolve_intent(std::uint64_t version) {
  auto it = intent_outstanding_.find(version);
  if (it != intent_outstanding_.end() && it->second > 0) --it->second;
  advance_intent_trim();
}

void ReplicationService::advance_intent_trim() {
  std::uint64_t trim_to = 0;
  bool advanced = false;
  while (!intent_outstanding_.empty() &&
         intent_outstanding_.begin()->second == 0) {
    trim_to = intent_outstanding_.begin()->first;
    advanced = true;
    intent_outstanding_.erase(intent_outstanding_.begin());
  }
  if (advanced) intent_stream_.trim(trim_to);
}

void ReplicationService::persist_state() {
  if (journal_ == nullptr) return;
  ++state_seq_;
  Bytes rec;
  ByteWriter w(rec);
  w.u8(kRecState);
  w.u64(state_seq_);
  w.u64(set_version_);
  w.u16(static_cast<std::uint16_t>(replicas_.size()));
  for (const auto& replica : replicas_) {
    w.str(replica->volume);
    w.u8(static_cast<std::uint8_t>(replica->state));
    w.u8(replica->device_dead ? 1 : 0);
    w.u64(replica->version);
    w.u64(replica->machine ? replica->machine->cursor() : 0);
    w.u32(static_cast<std::uint32_t>(replica->dirty.count()));
    for (const auto& [begin, end] : replica->dirty.ranges()) {
      w.u64(begin);
      w.u64(end);
    }
  }
  state_stream_.append(BufChain{Buf(std::move(rec))}, state_seq_, true);
  // Only the latest version-map snapshot matters; drop the older ones.
  state_stream_.trim(state_seq_ - 1);
}

void ReplicationService::on_host_crashed() {
  // The relay VM power-failed. Volatile bookkeeping is gone: in-flight
  // quorum holds (the initiator re-issues unanswered commands after
  // restart), collected rebuild reads, reassembly state. Device
  // completions and machine hooks from this incarnation fence on the
  // epoch; injection contexts are invalid until traffic resumes.
  ++service_epoch_;
  last_ctx_ = nullptr;
  pending_.clear();
  primary_reads_.clear();
  intent_outstanding_.clear();
  tracker_ = IoTracker{};
  for (auto& replica : replicas_) {
    ++replica->generation;
    replica->attaching = false;
    if (replica->machine) replica->machine->halt();
  }
}

void ReplicationService::on_host_recovered() {
  recover_from_journal();
  persist_state();
  update_backlog_gauge();
}

void ReplicationService::recover_from_journal() {
  if (journal_ == nullptr) return;

  // Latest version-map snapshot (normally exactly one record survives
  // the trim; tolerate more and take the highest sequence). ByteReader
  // throws std::out_of_range on a short record; the rest of that record
  // is skipped.
  std::optional<Bytes> best;
  std::uint64_t best_seq = 0;
  for (const BufChain& rec : state_stream_.unacknowledged()) {
    Bytes flat = chain_to_bytes(rec);
    try {
      ByteReader reader(flat);
      if (reader.u8() != kRecState) continue;
      const std::uint64_t seq = reader.u64();
      if (seq < best_seq) continue;
      best_seq = seq;
      best = std::move(flat);
    } catch (const std::out_of_range&) {
      continue;
    }
  }
  if (best) {
    try {
      ByteReader reader(*best);
      reader.u8();  // type
      const std::uint64_t seq = reader.u64();
      const std::uint64_t set_version = reader.u64();
      state_seq_ = std::max(state_seq_, seq);
      set_version_ = std::max(set_version_, set_version);
      const std::uint16_t count = reader.u16();
      for (std::uint16_t k = 0; k < count; ++k) {
        const std::string volume = reader.str();
        const auto state = static_cast<ReplicaState>(reader.u8());
        reader.u8();  // device_dead: live session state is authoritative
        const std::uint64_t version = reader.u64();
        reader.u64();  // cursor (informational; dirty map is the truth)
        const std::uint32_t extents = reader.u32();
        Replica* replica = nullptr;
        for (auto& r : replicas_) {
          if (r->volume == volume) {
            replica = r.get();
            break;
          }
        }
        if (replica == nullptr) {
          // A spare journaled before the crash but never re-registered:
          // recreate it; the health probe re-attaches it.
          auto fresh = std::make_unique<Replica>();
          fresh->volume = volume;
          fresh->device_dead = true;
          replicas_.push_back(std::move(fresh));
          replica = replicas_.back().get();
        }
        // A rebuild that was running is resumed as degraded: its machine
        // died with the relay, but the journaled dirty map lets the next
        // probe continue where the copy stopped.
        replica->state = state == ReplicaState::kRebuilding
                             ? ReplicaState::kDegraded
                             : state;
        replica->version = version;
        replica->dirty.clear();
        for (std::uint32_t e = 0; e < extents; ++e) {
          const std::uint64_t begin = reader.u64();
          const std::uint64_t end = reader.u64();
          replica->dirty.add(begin, end);
        }
      }
    } catch (const std::out_of_range&) {
      // Rows decoded before the short field stay applied.
    }
  }

  // Un-trimmed write intents: those bursts may or may not have reached
  // each copy (the acks were volatile). Conservatively mark the extent
  // dirty on every copy whose journaled version predates the intent —
  // the copy machine re-streams it from the primary, which the relay's
  // own session journal replay has made authoritative.
  std::uint64_t max_intent = 0;
  for (const BufChain& rec : intent_stream_.unacknowledged()) {
    const Bytes flat = chain_to_bytes(rec);
    std::uint64_t version = 0;
    std::uint64_t lba = 0;
    std::uint32_t sectors = 0;
    try {
      ByteReader reader(flat);
      if (reader.u8() != kRecIntent) continue;
      version = reader.u64();
      lba = reader.u64();
      sectors = reader.u32();
    } catch (const std::out_of_range&) {
      continue;
    }
    max_intent = std::max(max_intent, version);
    written_.add(lba, lba + sectors);
    for (auto& replica : replicas_) {
      if (replica->version < version) {
        replica->dirty.add(lba, lba + sectors);
      }
    }
  }
  set_version_ = std::max(set_version_, max_intent);

  std::size_t degraded = 0;
  for (auto& replica : replicas_) {
    if (replica->state == ReplicaState::kLive) {
      if (replica->dirty.empty()) {
        // Every journaled intent below the trim horizon was resolved on
        // this copy: it is provably current.
        replica->version = set_version_;
      } else {
        replica->state = ReplicaState::kDegraded;
        ++replica->generation;
        ++degraded;
      }
    }
  }
  log_info("replication") << "recovered version map: set version "
                          << set_version_ << ", " << degraded
                          << " copies degraded by replayed intents";
}

}  // namespace storm::services
