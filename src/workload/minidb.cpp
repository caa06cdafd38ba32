#include "workload/minidb.hpp"

#include "common/async.hpp"
#include "common/log.hpp"

namespace storm::workload {

namespace {

constexpr std::uint32_t kRecords = 10'000;
constexpr unsigned kReadsPerTxn = 4;   // sysbench "complex" mixes reads...
constexpr unsigned kWritesPerTxn = 2;  // ...and updates per transaction

}  // namespace

MiniDb::MiniDb(sim::Executor executor, block::BlockDevice& device)
    : sim_(executor), dev_(device) {}

void MiniDb::init(std::function<void(Status)> done) {
  // WAL header page + zeroed record area; records are written in large
  // batches to keep formatting fast.
  Bytes wal(block::kSectorSize, 0);
  wal[0] = 'W';
  wal[1] = 'A';
  wal[2] = 'L';
  dev_.write(kWalLba, std::move(wal), [this, done](Status status) {
    if (!status.is_ok()) {
      done(status);
      return;
    }
    // Format in 256-sector batches to keep initialization fast.
    static constexpr std::uint32_t kBatch = 256;
    Step step = [this, done](std::size_t i, Next next) {
      std::uint32_t record = static_cast<std::uint32_t>(i) * kBatch;
      std::uint32_t n = std::min(kBatch, kRecords - record);
      Bytes batch(static_cast<std::size_t>(n) * block::kSectorSize, 0);
      for (std::uint32_t j = 0; j < n; ++j) {
        batch[static_cast<std::size_t>(j) * block::kSectorSize] =
            static_cast<std::uint8_t>((record + j) & 0xFF);
      }
      dev_.write(record_lba(record), std::move(batch),
                 next_or_fail(std::move(next), done));
    };
    run_steps((kRecords + kBatch - 1) / kBatch, std::move(step),
              [done] { done(Status::ok()); });
  });
}

void MiniDb::transaction(Rng& rng, std::function<void(Status)> done) {
  // Pick the working set.
  auto reads = std::make_shared<std::vector<std::uint32_t>>();
  for (unsigned i = 0; i < kReadsPerTxn; ++i) {
    reads->push_back(static_cast<std::uint32_t>(rng.below(kRecords)));
  }
  auto writes = std::make_shared<std::vector<std::uint32_t>>();
  for (unsigned i = 0; i < kWritesPerTxn; ++i) {
    writes->push_back(static_cast<std::uint32_t>(rng.below(kRecords)));
  }
  std::uint64_t txn_id = next_txn_id_++;
  // The WAL record and every data page carry the transaction id.
  auto stamped = [txn_id] {
    Bytes page(block::kSectorSize, 0);
    for (int i = 0; i < 8; ++i) {
      page[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(txn_id >> (8 * i));
    }
    return page;
  };

  // Phase 1: read the record pages.
  Step read_step = [this, reads, done](std::size_t i, Next next) {
    dev_.read(record_lba((*reads)[i]), 1,
              [done, next](Status status, Bytes) {
                next_or_fail(next, done)(status);
              });
  };
  run_steps(reads->size(), std::move(read_step),
            [this, writes, stamped, done] {
    // Phase 3: update the data pages.
    Next write_phase = [this, writes, stamped, done] {
      Step write_step = [this, writes, stamped, done](std::size_t i,
                                                      Next next) {
        dev_.write(record_lba((*writes)[i]), stamped(),
                   next_or_fail(std::move(next), done));
      };
      run_steps(writes->size(), std::move(write_step), [this, done] {
        ++committed_;
        done(Status::ok());
      });
    };
    // Phase 2: WAL append (one sector describing the transaction).
    dev_.write(kWalLba, stamped(), next_or_fail(std::move(write_phase), done));
  });
}

// ---------------------------------------------------------------- DbServer

DbServer::DbServer(cloud::Vm& vm, MiniDb& db, std::uint16_t port)
    : vm_(vm), db_(db), port_(port) {}

void DbServer::start() {
  vm_.node().tcp().listen(port_, [this](net::TcpConnection& conn) {
    auto pending = std::make_shared<std::size_t>(0);
    conn.set_on_data([this, &conn, pending](Buf data) {
      // Each newline is one transaction request.
      for (std::uint8_t byte : data) {
        if (byte != '\n') continue;
        ++*pending;
      }
      // Execute queued requests sequentially (one server worker per
      // connection, like a MySQL session thread).
      run_steps([this, &conn, pending](std::size_t, Next next) {
        if (*pending == 0) return;
        --*pending;
        // Small query-parse/plan cost on the DB VM's CPU.
        vm_.cpu().run(sim::microseconds(30), [this, &conn, next] {
          db_.transaction(rng_, [this, &conn, next](Status status) {
            ++served_;
            conn.send(to_bytes(status.is_ok() ? "OK\n" : "ERR\n"));
            next();
          });
        });
      });
    });
  });
}

// --------------------------------------------------------------- OltpClient

OltpClient::OltpClient(cloud::Vm& vm, net::SocketAddr server,
                       unsigned threads)
    : vm_(vm), server_(server), threads_(threads) {}

void OltpClient::start(sim::Time deadline, std::function<void()> done) {
  deadline_ = deadline;
  done_ = std::move(done);
  running_ = threads_;
  for (unsigned i = 0; i < threads_; ++i) {
    auto& conn = vm_.node().tcp().connect(server_, [] {});
    thread_loop(&conn);
  }
}

void OltpClient::thread_loop(net::TcpConnection* conn) {
  sim::Executor sim = vm_.node().executor();
  if (sim.now() >= deadline_) {
    conn->close();
    if (--running_ == 0 && done_) done_();
    return;
  }
  conn->send(to_bytes("TXN\n"));
  // One outstanding request per thread: wait for the reply line.
  conn->set_on_data([this, conn](Buf reply) {
    sim::Executor sim2 = vm_.node().executor();
    for (std::uint8_t byte : reply) {
      if (byte != '\n') continue;
      std::size_t bucket = static_cast<std::size_t>(
          sim2.now() / sim::seconds(1));
      if (buckets_.size() <= bucket) buckets_.resize(bucket + 1, 0);
      ++buckets_[bucket];
      ++total_;
    }
    thread_loop(conn);
  });
}

}  // namespace storm::workload
