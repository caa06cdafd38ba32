#include "iscsi/target.hpp"

#include "common/log.hpp"
#include "net/node.hpp"
#include "obs/registry.hpp"

namespace storm::iscsi {

Target::Target(net::NetNode& node, block::VolumeManager& volumes,
               std::uint16_t port)
    : node_(node), volumes_(volumes), port_(port) {}

void Target::start() {
  node_.tcp().listen(port_,
                     [this](net::TcpConnection& conn) { on_accept(conn); });
}

void Target::trace_event(const Session& session, std::uint32_t tag,
                         const char* label, std::uint64_t value) {
  obs::Registry& reg = node_.executor().telemetry();
  obs::SpanId root = reg.lookup(obs::trace_id(session.src_port, tag));
  if (root != 0) reg.add_event(root, label, value);
}

void Target::command_started(const Session& session, const Pdu& pdu) {
  obs::Registry& reg = node_.executor().telemetry();
  reg.counter("iscsi.target.commands").add();
  ++inflight_;
  reg.gauge("iscsi.target.outstanding").set(
      static_cast<std::int64_t>(inflight_));
  trace_event(session, pdu.task_tag, "target.cmd", pdu.transfer_length);
}

void Target::command_finished(const Session& session, std::uint32_t tag) {
  if (inflight_ > 0) --inflight_;
  node_.executor().telemetry().gauge("iscsi.target.outstanding").set(
      static_cast<std::int64_t>(inflight_));
  trace_event(session, tag, "target.rsp", 0);
}

void Target::on_accept(net::TcpConnection& conn) {
  auto session = std::make_unique<Session>();
  session->conn = &conn;
  session->src_port = conn.remote().port;
  Session* raw = session.get();
  sessions_.push_back(std::move(session));
  conn.set_on_data([this, raw](Buf bytes) { on_data(*raw, std::move(bytes)); });
  conn.set_on_closed([raw](Status) { raw->closed = true; });
}

void Target::on_data(Session& session, Buf bytes) {
  std::vector<Pdu> pdus;
  Status status = session.parser.feed(std::move(bytes), pdus);
  if (!status.is_ok()) {
    log_warn("iscsi-tgt") << node_.name()
                          << ": protocol error: " << status.to_string();
    session.conn->abort();
    session.closed = true;
    return;
  }
  for (auto& pdu : pdus) handle_pdu(session, std::move(pdu));
}

void Target::handle_pdu(Session& session, Pdu pdu) {
  switch (pdu.opcode) {
    case Opcode::kLoginRequest: {
      std::string iqn = pdu.text.starts_with("iqn=") ? pdu.text.substr(4)
                                                     : pdu.text;
      auto volume = volumes_.find_by_iqn(iqn);
      if (!volume.is_ok()) {
        log_warn("iscsi-tgt") << "login failed for " << iqn;
        send_pdu(session, make_login_response(kStatusLoginFailed));
        return;
      }
      session.iqn = iqn;
      session.volume = volume.value();
      send_pdu(session, make_login_response(kStatusGood));
      return;
    }
    case Opcode::kScsiCommand:
      handle_command(session, pdu);
      return;
    case Opcode::kDataOut:
      take_write_data(session, pdu.task_tag, pdu.data_offset,
                       std::move(pdu.data), pdu.is_final());
      return;
    case Opcode::kLogoutRequest: {
      Pdu resp;
      resp.opcode = Opcode::kLogoutResponse;
      resp.task_tag = pdu.task_tag;
      send_pdu(session, resp);
      session.conn->close();
      return;
    }
    case Opcode::kNopOut: {
      Pdu resp;
      resp.opcode = Opcode::kNopIn;
      resp.task_tag = pdu.task_tag;
      send_pdu(session, resp);
      return;
    }
    default: {
      Pdu reject;
      reject.opcode = Opcode::kReject;
      reject.task_tag = pdu.task_tag;
      send_pdu(session, reject);
      return;
    }
  }
}

void Target::handle_command(Session& session, const Pdu& pdu) {
  if (session.volume == nullptr) {
    send_pdu(session, make_scsi_response(pdu.task_tag, kStatusCheckCondition));
    return;
  }
  ++commands_;
  command_started(session, pdu);
  if (pdu.is_read()) {
    const std::uint32_t sectors = pdu.transfer_length / block::kSectorSize;
    session.volume->disk().read(
        pdu.lba, sectors,
        [this, &session, tag = pdu.task_tag](Status status, Bytes data) {
          command_finished(session, tag);
          if (session.closed) return;
          if (!status.is_ok()) {
            send_pdu(session, make_scsi_response(tag, kStatusCheckCondition));
            return;
          }
          for (const Pdu& out : split_read_reply(tag, Buf(std::move(data)))) {
            send_pdu(session, out);
          }
        });
    return;
  }
  // Write command: data arrives as immediate data plus Data-Out PDUs.
  session.writes[pdu.task_tag] =
      Session::WriteBurst{pdu.lba, BurstAssembler(pdu.transfer_length)};
  take_write_data(session, pdu.task_tag, 0, pdu.data, pdu.is_final());
}

void Target::take_write_data(Session& session, std::uint32_t tag,
                             std::uint32_t offset, Buf data, bool final) {
  auto it = session.writes.find(tag);
  if (it == session.writes.end()) {
    send_pdu(session, make_scsi_response(tag, kStatusCheckCondition));
    return;
  }
  Session::WriteBurst& burst = it->second;
  const BurstAssembler::Step step = burst.data.add(offset, std::move(data),
                                                   final);
  if (step == BurstAssembler::Step::kMore) return;
  const std::uint64_t lba = burst.lba;
  BufChain chunks = burst.data.take();
  session.writes.erase(it);
  if (step == BurstAssembler::Step::kBroken) {
    command_finished(session, tag);
    send_pdu(session, make_scsi_response(tag, kStatusCheckCondition));
    return;
  }
  session.volume->disk().write_gather(
      lba, std::move(chunks), [this, &session, tag](Status status) {
        command_finished(session, tag);
        if (session.closed) return;
        send_pdu(session, make_scsi_response(tag, status.is_ok()
                                                      ? kStatusGood
                                                      : kStatusCheckCondition));
      });
}

void Target::send_pdu(Session& session, const Pdu& pdu) {
  if (session.closed) return;
  session.conn->send(serialize_chunks(pdu));
}

std::size_t Target::close_sessions_for(const std::string& iqn) {
  std::size_t closed = 0;
  for (auto& session : sessions_) {
    if (!session->closed && session->iqn == iqn) {
      session->conn->abort();
      session->closed = true;
      ++closed;
    }
  }
  return closed;
}

std::vector<Target::SessionInfo> Target::sessions() const {
  std::vector<SessionInfo> out;
  for (const auto& session : sessions_) {
    if (session->closed || session->iqn.empty()) continue;
    out.push_back(SessionInfo{session->iqn, session->conn->four_tuple()});
  }
  return out;
}

}  // namespace storm::iscsi
