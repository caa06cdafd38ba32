// iSCSI initiator: runs on the *compute host* (as in OpenStack — not in
// the tenant VM), one connection per attached volume. Exposes the login
// source port, reproducing the paper's patched "Login Session" code that
// StorM's connection attribution reads (§III-A).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "iscsi/burst.hpp"
#include "iscsi/pdu.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace storm::iscsi {

/// Opt-in session recovery (open-iscsi's replacement_timeout behaviour):
/// when the TCP session drops, re-dial from the *same* source port,
/// re-login, and re-issue every outstanding command instead of failing
/// them. Reads and sector writes are idempotent, so at-least-once
/// re-execution is safe.
struct RecoveryPolicy {
  bool enabled = false;
  /// Wait between a drop and the next dial.
  sim::Duration reconnect_delay = sim::milliseconds(10);
};

/// Admission-gate behaviour for new commands (see set_admission_mode).
enum class AdmissionMode {
  kOpen,      // commands enter the chain normally
  kClosed,    // new commands fail fast with kUnavailable (drain/fence)
  kDeferred,  // new commands park in a side queue, invisible to
              // outstanding(), and issue when the gate reopens — the
              // flow-migration gate: the chain drains to empty while the
              // workload keeps issuing, and nothing ever fails
};

class Initiator {
 public:
  using LoginCallback = std::function<void(Status)>;
  using ReadCallback = std::function<void(Status, Bytes)>;
  using WriteCallback = std::function<void(Status)>;

  /// `target` is the address the initiator dials. StorM's splicing NAT
  /// may transparently redirect the flow; the initiator neither knows nor
  /// cares — exactly the transparency property the paper claims.
  /// A nonzero `local_port` pins the TCP source port (StorM pins it so
  /// per-flow rules can be installed before the first SYN).
  Initiator(net::NetNode& node, net::SocketAddr target, std::string iqn,
            std::uint16_t local_port = 0);

  Initiator(const Initiator&) = delete;
  Initiator& operator=(const Initiator&) = delete;

  /// Open the TCP connection and perform login.
  void login(LoginCallback done);

  /// Read `sectors` * 512 bytes from sector `lba`.
  void read(std::uint64_t lba, std::uint32_t sectors, ReadCallback done);

  /// Write sector-aligned `data` at sector `lba`.
  void write(std::uint64_t lba, Bytes data, WriteCallback done);

  /// Enable/configure session recovery. With recovery on, commands issued
  /// while disconnected are queued and sent after the next re-login.
  void set_recovery(RecoveryPolicy policy) { recovery_ = policy; }

  /// Three-state admission gate (StorM drain protocol). kClosed fails new
  /// read/write calls fast with kUnavailable instead of letting them enter
  /// the chain; commands already in flight are unaffected — that is the
  /// point: the chain drains to empty instead of being torn down
  /// mid-command. kDeferred (open-iscsi's
  /// queue-during-replacement behaviour) parks new commands without
  /// issuing them — they don't count as outstanding(), so the chain can
  /// drain to empty under a live workload; reopening issues the parked
  /// commands in arrival order. Closing the gate fails the parked
  /// commands (a fence outranks a migration in progress).
  void set_admission_mode(AdmissionMode mode);
  AdmissionMode admission_mode() const { return admission_; }

  /// Commands issued but not yet responded to.
  std::size_t outstanding() const { return commands_.size(); }

  /// Abort the transport immediately so session recovery re-dials now
  /// rather than at watchdog expiry. Used after a failover rewires the
  /// chain: the old connection's peer is gone, and every millisecond
  /// spent retransmitting into the void inflates MTTR.
  void kick();

  /// Error every outstanding command back to its caller with `reason`
  /// (fail-closed fencing). The session object itself stays usable; a
  /// later login() may re-establish it.
  void fail_outstanding(Status reason);

  /// TCP source port of this session — the attribution hook.
  std::uint16_t source_port() const { return source_port_; }
  const std::string& iqn() const { return iqn_; }
  bool logged_in() const { return logged_in_; }
  bool recovering() const { return recovering_; }

  /// Successful session re-establishments.
  std::uint64_t recoveries() const { return recoveries_; }
  const RecoveryPolicy& recovery_policy() const { return recovery_; }

 private:
  /// One command from submit to completion. Parked behind a kDeferred
  /// gate it has no tag yet; once issued it lives in commands_.
  struct Command {
    bool is_write = false;
    std::uint64_t lba = 0;
    std::uint64_t length = 0;  // bytes
    Buf data;  // write payload, retained (by reference) for re-issue
    BurstAssembler read_data;  // Data-In received so far
    ReadCallback read_done;
    WriteCallback write_done;
    obs::SpanId span = 0;  // root trace span

    void finish(Status status, Bytes read_bytes = {}) {
      if (is_write) {
        write_done(std::move(status));
      } else {
        read_done(std::move(status), std::move(read_bytes));
      }
    }
  };

  obs::SpanId begin_command_span(const char* kind, std::uint32_t tag,
                                 std::uint64_t bytes);
  void end_command_span(obs::SpanId span, std::uint32_t tag,
                        const char* outcome);
  void update_outstanding();

  void dial();
  void reconnect();
  void arm_watchdog();
  void on_watchdog();
  void submit(Command cmd);
  Status admit(const Command& cmd) const;
  void issue(std::uint32_t tag, const Command& cmd);
  void fail_all(const Status& reason, const char* outcome);
  void on_data(Buf bytes);
  void handle_pdu(Pdu pdu);
  void on_closed(Status status);
  void send_pdu(const Pdu& pdu);

  net::NetNode& node_;
  net::SocketAddr target_;
  std::string iqn_;
  std::uint16_t local_port_ = 0;
  net::TcpConnection* conn_ = nullptr;
  StreamParser parser_;
  bool logged_in_ = false;
  bool failed_ = false;
  bool recovering_ = false;
  AdmissionMode admission_ = AdmissionMode::kOpen;
  std::deque<Command> deferred_;
  std::uint16_t source_port_ = 0;
  std::uint32_t next_tag_ = 1;
  RecoveryPolicy recovery_;
  unsigned attempts_ = 0;  // consecutive failed recovery attempts
  sim::CancelToken watchdog_;

  LoginCallback login_cb_;
  std::map<std::uint32_t, Command> commands_;  // issued, by task tag

  std::uint64_t recoveries_ = 0;
  obs::Gauge* tel_outstanding_ = nullptr;  // per-session, lazily resolved
};

}  // namespace storm::iscsi
