#include "iscsi/initiator.hpp"

#include "block/block_device.hpp"
#include "common/log.hpp"
#include "net/node.hpp"
#include "obs/registry.hpp"

namespace storm::iscsi {

namespace {

/// Consecutive failed reconnect attempts before recovery gives up for
/// good.
constexpr unsigned kMaxRecoveryAttempts = 8;
/// Command watchdog (open-iscsi's NOP/replacement timeout): if commands
/// are outstanding and no PDU arrives for this long, the session is
/// declared dead and torn down so recovery can re-dial. Without it, a
/// peer that crashed with nothing in flight at the TCP level is
/// undetectable — TCP only notices loss when it has unacked data.
constexpr sim::Duration kResponseTimeout = sim::milliseconds(500);

}  // namespace

Initiator::Initiator(net::NetNode& node, net::SocketAddr target,
                     std::string iqn, std::uint16_t local_port)
    : node_(node), target_(target), iqn_(std::move(iqn)),
      local_port_(local_port) {}

void Initiator::login(LoginCallback done) {
  login_cb_ = std::move(done);
  dial();
}

obs::SpanId Initiator::begin_command_span(const char* kind, std::uint32_t tag,
                                          std::uint64_t bytes) {
  obs::Registry& reg = node_.executor().telemetry();
  obs::SpanId span = reg.begin_span(kind);
  reg.add_event(span, "issue", bytes);
  // Bind the command's trace id so every PDU-aware hop downstream
  // (relays, target) can stamp events onto this root span. The source
  // port is preserved along the whole spliced chain, so the id is
  // derivable at every layer.
  if (source_port_ != 0) reg.bind(obs::trace_id(source_port_, tag), span);
  return span;
}

void Initiator::end_command_span(obs::SpanId span, std::uint32_t tag,
                                 const char* outcome) {
  if (span == 0) return;
  obs::Registry& reg = node_.executor().telemetry();
  reg.add_event(span, outcome);
  reg.end_span(span);
  reg.unbind(obs::trace_id(source_port_, tag));
}

void Initiator::update_outstanding() {
  if (tel_outstanding_ == nullptr) {
    tel_outstanding_ = &node_.executor().telemetry().gauge(
        "iscsi.initiator." + iqn_ + ".outstanding");
  }
  tel_outstanding_->set(static_cast<std::int64_t>(commands_.size()));
}

void Initiator::dial() {
  conn_ = &node_.tcp().connect(target_, [this] {
    send_pdu(make_login_request(iqn_));
  }, local_port_);
  source_port_ = conn_->local().port;
  // Pin the ephemeral port we got: a recovery dial must reuse the exact
  // four-tuple or conntrack-steered NAT paths stop matching the flow.
  local_port_ = source_port_;
  conn_->set_on_data([this](Buf bytes) { on_data(std::move(bytes)); });
  conn_->set_on_closed([this](Status status) { on_closed(status); });
  // Watch the login round-trip too: a recovery dial that connects but
  // never gets a login response (peer restarted again, response lost on a
  // dead path) must not hang the queued commands forever.
  arm_watchdog();
}

void Initiator::reconnect() {
  if (failed_ || logged_in_) return;
  dial();
}

void Initiator::read(std::uint64_t lba, std::uint32_t sectors,
                     ReadCallback done) {
  Command cmd;
  cmd.lba = lba;
  cmd.length = std::uint64_t{sectors} * block::kSectorSize;
  cmd.read_done = std::move(done);
  submit(std::move(cmd));
}

void Initiator::write(std::uint64_t lba, Bytes data, WriteCallback done) {
  Command cmd;
  cmd.is_write = true;
  cmd.lba = lba;
  cmd.length = data.size();
  // Wrap once; every segment sent is a refcounted slice of this Buf.
  cmd.data = Buf(std::move(data));
  cmd.write_done = std::move(done);
  submit(std::move(cmd));
}

Status Initiator::admit(const Command& cmd) const {
  if (admission_ == AdmissionMode::kClosed) {
    return error(ErrorCode::kUnavailable, "session draining");
  }
  if (failed_ || (!logged_in_ && !recovery_.enabled)) {
    return error(ErrorCode::kFailedPrecondition, "session not established");
  }
  // The wire carries a 32-bit byte count; a write also moves whole
  // sectors.
  if (cmd.length > UINT32_MAX ||
      (cmd.is_write &&
       (cmd.length == 0 || cmd.length % block::kSectorSize != 0))) {
    return error(ErrorCode::kInvalidArgument, "bad transfer length");
  }
  return Status::ok();
}

void Initiator::submit(Command cmd) {
  if (admission_ == AdmissionMode::kDeferred) {
    deferred_.push_back(std::move(cmd));
    return;
  }
  if (Status status = admit(cmd); !status.is_ok()) {
    cmd.finish(std::move(status));
    return;
  }
  const std::uint32_t tag = next_tag_++;
  cmd.span = begin_command_span(cmd.is_write ? "cmd.write" : "cmd.read", tag,
                                cmd.length);
  if (!cmd.is_write) {
    cmd.read_data = BurstAssembler(static_cast<std::uint32_t>(cmd.length));
  }
  const Command& issued = commands_.emplace(tag, std::move(cmd)).first->second;
  node_.executor().telemetry().counter(issued.is_write
                                           ? "iscsi.initiator.writes"
                                           : "iscsi.initiator.reads").add();
  update_outstanding();
  // While disconnected (recovery pending) the command just queues; the
  // re-login path re-issues everything outstanding.
  if (logged_in_) {
    issue(tag, issued);
    arm_watchdog();
  }
}

void Initiator::issue(std::uint32_t tag, const Command& cmd) {
  if (!cmd.is_write) {
    send_pdu(make_read_command(tag, cmd.lba,
                               static_cast<std::uint32_t>(cmd.length)));
    return;
  }
  for (const Pdu& pdu : split_write(tag, cmd.lba, cmd.data)) send_pdu(pdu);
}

void Initiator::arm_watchdog() {
  watchdog_.cancel();
  if (!recovery_.enabled || failed_) return;
  watchdog_ = node_.executor().schedule_in(
      kResponseTimeout, [this] { on_watchdog(); });
}

void Initiator::on_watchdog() {
  if (commands_.empty() || conn_ == nullptr) return;
  log_info("iscsi-init") << iqn_ << ": command timeout after "
                         << kResponseTimeout
                         << "ns; dropping session for recovery";
  conn_->abort();  // enter on_closed -> recovery reconnect path
}

void Initiator::on_data(Buf bytes) {
  std::vector<Pdu> pdus;
  Status status = parser_.feed(std::move(bytes), pdus);
  if (!status.is_ok()) {
    log_warn("iscsi-init") << "protocol error: " << status.to_string();
    conn_->abort();
    return;
  }
  for (auto& pdu : pdus) handle_pdu(std::move(pdu));
  // Any inbound PDU is progress: push the command watchdog out, or stop
  // it entirely once nothing is outstanding.
  if (commands_.empty()) {
    watchdog_.cancel();
  } else {
    arm_watchdog();
  }
}

void Initiator::handle_pdu(Pdu pdu) {
  switch (pdu.opcode) {
    case Opcode::kLoginResponse: {
      logged_in_ = pdu.status == kStatusGood;
      if (logged_in_) {
        attempts_ = 0;
        if (recovering_) {
          recovering_ = false;
          ++recoveries_;
          node_.executor().telemetry().counter("iscsi.initiator.recoveries")
              .add();
          node_.executor().telemetry().record_event(
              "iscsi " + iqn_ + ": session recovered");
          log_info("iscsi-init") << iqn_ << ": session recovered (port="
                                 << source_port_ << ")";
        }
        // Re-issue in tag order so the replayed command stream matches
        // what the journal-replaying relay and the target expect.
        for (auto& [tag, cmd] : commands_) {
          cmd.read_data.clear();  // partial Data-In from before the drop
          issue(tag, cmd);
        }
      }
      if (login_cb_) {
        auto cb = std::move(login_cb_);
        login_cb_ = nullptr;
        cb(logged_in_ ? Status::ok()
                      : error(ErrorCode::kPermissionDenied, "login rejected"));
      }
      return;
    }
    case Opcode::kDataIn: {
      auto it = commands_.find(pdu.task_tag);
      if (it == commands_.end() || it->second.is_write) return;
      if (it->second.read_data.add(pdu.data_offset, std::move(pdu.data),
                                   pdu.is_final()) ==
          BurstAssembler::Step::kBroken) {
        log_warn("iscsi-init") << "malformed Data-In burst";
      }
      return;
    }
    case Opcode::kScsiResponse: {
      auto it = commands_.find(pdu.task_tag);
      if (it == commands_.end()) return;
      Command cmd = std::move(it->second);
      commands_.erase(it);
      update_outstanding();
      const bool ok = pdu.status == kStatusGood &&
                      (cmd.is_write || cmd.read_data.complete());
      end_command_span(cmd.span, pdu.task_tag, ok ? "complete" : "failed");
      if (ok) {
        cmd.finish(Status::ok(), cmd.read_data.flatten());
      } else {
        cmd.finish(error(ErrorCode::kIoError,
                         cmd.is_write ? "write failed" : "read failed"));
      }
      return;
    }
    case Opcode::kLogoutResponse:
      // This initiator never asks to log out, so the response is
      // unsolicited: the session stays up and its commands run on.
      log_warn("iscsi-init") << iqn_
                             << ": ignoring unsolicited Logout-Response";
      return;
    default:
      return;
  }
}

void Initiator::on_closed(Status status) {
  if (failed_) return;
  logged_in_ = false;
  conn_ = nullptr;
  watchdog_.cancel();
  if (recovery_.enabled && attempts_ < kMaxRecoveryAttempts) {
    ++attempts_;
    recovering_ = true;
    parser_ = StreamParser{};  // mid-PDU bytes from the old stream are gone
    node_.executor().telemetry().record_event(
        "iscsi " + iqn_ + ": session dropped (" + status.to_string() + ")");
    log_info("iscsi-init") << iqn_ << ": session dropped ("
                           << status.to_string() << "); reconnect attempt "
                           << attempts_ << "/" << kMaxRecoveryAttempts;
    node_.executor().schedule_in(recovery_.reconnect_delay,
                            [this] { reconnect(); });
    return;
  }
  failed_ = true;
  Status failure = status.is_ok()
                       ? error(ErrorCode::kConnectionFailed, "session closed")
                       : status;
  if (login_cb_) {
    auto cb = std::move(login_cb_);
    login_cb_ = nullptr;
    cb(failure);
  }
  fail_all(failure, "failed");
}

void Initiator::set_admission_mode(AdmissionMode mode) {
  if (admission_ == mode) return;
  admission_ = mode;
  // Closed: a fence outranks an in-flight migration, and the parked
  // commands were never issued, so failing them is exact (nothing
  // half-sent). Reopened: they issue in arrival order. submit() re-checks
  // the gate, so a callback that flips the mode again re-parks the rest.
  std::deque<Command> parked = std::move(deferred_);
  deferred_.clear();
  for (Command& cmd : parked) submit(std::move(cmd));
}

void Initiator::kick() {
  if (conn_ == nullptr || failed_) return;
  log_info("iscsi-init") << iqn_ << ": kicked; dropping session for "
                            "immediate re-dial";
  conn_->abort();  // enter on_closed -> recovery reconnect path
}

void Initiator::fail_outstanding(Status reason) {
  watchdog_.cancel();
  fail_all(reason, "fenced");
}

void Initiator::fail_all(const Status& reason, const char* outcome) {
  auto commands = std::move(commands_);
  commands_.clear();
  update_outstanding();
  for (auto& [tag, cmd] : commands) {
    end_command_span(cmd.span, tag, outcome);
    cmd.finish(reason);
  }
}

void Initiator::send_pdu(const Pdu& pdu) {
  if (conn_ == nullptr) return;
  // Chunked: the data segment goes to TCP as a reference, not a copy.
  conn_->send(serialize_chunks(pdu));
}

}  // namespace storm::iscsi
