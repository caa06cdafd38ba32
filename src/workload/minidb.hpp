// MiniDB: a small page-based transactional record store over a raw block
// device, plus a network server and OLTP clients — the MySQL + Sysbench
// stand-in for the paper's replication experiment (Figure 12/13).
//
// Records are fixed-size, one 512-byte sector each; a transaction reads
// R random records and rewrites W of them, WAL-first (write-ahead page,
// then data pages), giving the mixed read/write block traffic an OLTP
// database produces.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "block/block_device.hpp"
#include "cloud/cloud.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace storm::workload {

class MiniDb {
 public:
  /// `executor` drives the device (converts implicitly from
  /// Simulator&).
  MiniDb(sim::Executor executor, block::BlockDevice& device);

  /// Format the store (writes initial records + WAL header).
  void init(std::function<void(Status)> done);

  /// Execute one transaction (closed loop; records chosen by `rng`).
  void transaction(Rng& rng, std::function<void(Status)> done);

  std::uint64_t committed() const { return committed_; }

 private:
  std::uint64_t record_lba(std::uint32_t record) const {
    return kDataStart + record;  // one sector per record
  }
  static constexpr std::uint64_t kWalLba = 0;
  static constexpr std::uint64_t kDataStart = 8;

  sim::Executor sim_;
  block::BlockDevice& dev_;
  std::uint64_t next_txn_id_ = 1;
  std::uint64_t committed_ = 0;
};

/// Network front-end: executes one transaction per request line ("TXN\n"),
/// replying "OK\n" / "ERR\n".
class DbServer {
 public:
  DbServer(cloud::Vm& vm, MiniDb& db, std::uint16_t port = 3306);
  void start();
  std::uint64_t requests_served() const { return served_; }

 private:
  cloud::Vm& vm_;
  MiniDb& db_;
  std::uint16_t port_;
  Rng rng_{99};
  std::uint64_t served_ = 0;
};

/// Closed-loop OLTP client VM: `threads` concurrent request streams over
/// one connection each. Records commits into per-second buckets for the
/// Figure 13 timeline.
class OltpClient {
 public:
  OltpClient(cloud::Vm& vm, net::SocketAddr server, unsigned threads);

  /// Run until `deadline` (absolute sim time); `done` fires when all
  /// threads have drained.
  void start(sim::Time deadline, std::function<void()> done);

  /// Commits bucketed by whole seconds since t=0 (shared scale for all
  /// clients).
  const std::vector<std::uint64_t>& per_second_commits() const {
    return buckets_;
  }
  std::uint64_t total_commits() const { return total_; }

 private:
  void thread_loop(net::TcpConnection* conn);

  cloud::Vm& vm_;
  net::SocketAddr server_;
  unsigned threads_;
  sim::Time deadline_ = 0;
  unsigned running_ = 0;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t total_ = 0;
  std::function<void()> done_;
};

}  // namespace storm::workload
