// iSCSI target: serves the volumes of one storage host over TCP port 3260.
// Each inbound connection becomes a Session; a session is bound to one
// volume at login (by IQN), mirroring OpenStack's one-connection-per-
// attached-volume layout that StorM's connection attribution relies on.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "block/volume.hpp"
#include "iscsi/burst.hpp"
#include "iscsi/pdu.hpp"
#include "net/tcp.hpp"

namespace storm::iscsi {

class Target {
 public:
  Target(net::NetNode& node, block::VolumeManager& volumes,
         std::uint16_t port = kIscsiPort);

  Target(const Target&) = delete;
  Target& operator=(const Target&) = delete;

  /// Begin accepting sessions.
  void start();

  /// Abort all sessions logged into `iqn` (failure injection: the paper
  /// injects replica failure "by closing the iSCSI connection").
  std::size_t close_sessions_for(const std::string& iqn);

  struct SessionInfo {
    std::string iqn;
    net::FourTuple tuple;  // as seen by the target
  };
  std::vector<SessionInfo> sessions() const;

  std::uint64_t commands_served() const { return commands_; }

 private:
  struct Session {
    net::TcpConnection* conn = nullptr;
    StreamParser parser;
    std::string iqn;
    // The flow's source port as the target sees it — preserved along the
    // whole spliced chain, so it keys the command's root trace span.
    // Cached at accept: the conn pointer may be gone by response time.
    std::uint16_t src_port = 0;
    block::Volume* volume = nullptr;
    // In-progress write bursts by task tag: chunks are held by reference
    // (no coalesce) and handed to the disk as a gather write.
    struct WriteBurst {
      std::uint64_t lba = 0;
      BurstAssembler data;
    };
    std::map<std::uint32_t, WriteBurst> writes;
    bool closed = false;
  };

  void on_accept(net::TcpConnection& conn);
  void on_data(Session& session, Buf bytes);
  void handle_pdu(Session& session, Pdu pdu);
  void handle_command(Session& session, const Pdu& pdu);
  void take_write_data(Session& session, std::uint32_t tag,
                       std::uint32_t offset, Buf data, bool final);
  void send_pdu(Session& session, const Pdu& pdu);

  void trace_event(const Session& session, std::uint32_t tag,
                   const char* label, std::uint64_t value);
  void command_started(const Session& session, const Pdu& pdu);
  void command_finished(const Session& session, std::uint32_t tag);

  net::NetNode& node_;
  block::VolumeManager& volumes_;
  std::uint16_t port_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::uint64_t commands_ = 0;
  std::uint64_t inflight_ = 0;  // commands received, response not yet sent
};

}  // namespace storm::iscsi
