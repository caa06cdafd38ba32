#include "workload/ftp.hpp"

#include <sstream>

#include "common/async.hpp"
#include "common/log.hpp"

namespace storm::workload {

namespace {

/// Extract a '\n'-terminated header line from the front of `buffer`.
std::optional<std::string> take_line(Bytes& buffer) {
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    if (buffer[i] == '\n') {
      std::string line(buffer.begin(),
                       buffer.begin() + static_cast<std::ptrdiff_t>(i));
      buffer.erase(buffer.begin(),
                   buffer.begin() + static_cast<std::ptrdiff_t>(i + 1));
      return line;
    }
  }
  return std::nullopt;
}

constexpr std::size_t kFsChunk = 1024 * 1024;  // streaming granularity
// Userspace FTP work per payload byte (recv copies, VFS) on the VM's CPU.
constexpr double kAppNsPerByte = 3.0;

}  // namespace

FtpServer::FtpServer(cloud::Vm& vm, fs::SimExt& filesystem,
                     std::uint16_t port)
    : vm_(vm), fs_(filesystem), port_(port) {}

void FtpServer::start() {
  vm_.node().tcp().listen(port_, [this](net::TcpConnection& conn) {
    on_accept(conn);
  });
}

void FtpServer::on_accept(net::TcpConnection& conn) {
  auto session = std::make_shared<Session>();
  session->conn = &conn;
  conn.set_on_data(
      [this, session](Buf data) { on_data(session, std::move(data)); });
}

void FtpServer::on_data(std::shared_ptr<Session> session, Buf data) {
  if (session->finished) return;
  if (!session->header_done) {
    data.append_to(session->buffer);
    auto line = take_line(session->buffer);
    if (!line) return;
    std::istringstream header(*line);
    std::string verb, name;
    header >> verb >> name;
    if (!name.empty() && name[0] != '/') name = "/" + name;  // FTP CWD is /
    if (verb == "PUT") {
      header >> session->expected;
      session->name = name;
      session->header_done = true;
      // Leftover buffer bytes are payload.
      session->pending = std::move(session->buffer);
      session->buffer.clear();
      session->received = session->pending.size();
      fs_.create(name, [this, session](Status status) {
        if (!status.is_ok() &&
            status.code() != ErrorCode::kAlreadyExists) {
          session->conn->abort();
          session->finished = true;
          return;
        }
        pump_upload(session);
      });
      return;
    }
    if (verb == "GET") {
      session->header_done = true;
      serve_download(session, name);
      return;
    }
    session->conn->abort();
    session->finished = true;
    return;
  }
  // Upload payload bytes.
  data.append_to(session->pending);
  session->received += data.size();
  pump_upload(session);
}

void FtpServer::pump_upload(std::shared_ptr<Session> session) {
  if (session->writing || session->finished) return;
  bool complete = session->received >= session->expected;
  if (session->pending.size() < kFsChunk && !complete) return;
  if (session->pending.empty() && complete) {
    session->finished = true;
    session->conn->send(to_bytes("OK\n"));
    return;
  }
  std::size_t n = std::min(session->pending.size(), kFsChunk);
  Bytes chunk(session->pending.begin(),
              session->pending.begin() + static_cast<std::ptrdiff_t>(n));
  session->pending.erase(
      session->pending.begin(),
      session->pending.begin() + static_cast<std::ptrdiff_t>(n));
  session->writing = true;
  std::uint64_t offset = session->write_offset;
  session->write_offset += n;
  bytes_stored_ += n;
  // Application-side processing of the received bytes, then the write.
  vm_.cpu().burn(static_cast<sim::Duration>(kAppNsPerByte *
                                            static_cast<double>(n)));
  fs_.write_file(session->name, offset, std::move(chunk),
                 [this, session](Status status) {
                   session->writing = false;
                   if (!status.is_ok()) {
                     session->conn->abort();
                     session->finished = true;
                     return;
                   }
                   pump_upload(session);
                 });
}

void FtpServer::serve_download(std::shared_ptr<Session> session,
                               const std::string& name) {
  fs_.stat(name, [this, session, name](Status status, fs::StatInfo info) {
    if (!status.is_ok()) {
      session->conn->send(to_bytes("-1\n"));
      session->finished = true;
      return;
    }
    session->conn->send(to_bytes(std::to_string(info.size) + "\n"));
    // Stream the file in chunks.
    auto offset = std::make_shared<std::uint64_t>(0);
    run_steps([this, session, name, size = info.size, offset](std::size_t,
                                                             Next next) {
      if (*offset >= size) {
        session->finished = true;
        return;
      }
      std::uint32_t n = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(kFsChunk, size - *offset));
      fs_.read_file(name, *offset, n,
                    [this, session, offset, next](Status status, Bytes data) {
                      if (!status.is_ok()) {
                        session->conn->abort();
                        session->finished = true;
                        return;
                      }
                      *offset += data.size();
                      vm_.cpu().burn(static_cast<sim::Duration>(
                          kAppNsPerByte * static_cast<double>(data.size())));
                      session->conn->send(std::move(data));
                      next();
                    });
    });
  });
}

void FtpClient::upload(const std::string& name, std::uint64_t bytes,
                       std::function<void(FtpTransferResult)> done) {
  sim::Executor ex = vm_.node().executor();
  sim::Time started = ex.now();
  auto& conn = vm_.node().tcp().connect(server_, [] {});
  Bytes header =
      to_bytes("PUT " + name + " " + std::to_string(bytes) + "\n");
  conn.send(std::move(header));
  // Stream the payload in 1 MB application writes.
  auto conn_ptr = &conn;
  run_steps([conn_ptr, bytes, ex](std::size_t i, Next next) {
    std::uint64_t sent = static_cast<std::uint64_t>(i) * 1024 * 1024;
    if (sent >= bytes) return;
    std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(1024 * 1024, bytes - sent));
    Bytes chunk(n);
    for (std::size_t j = 0; j < n; ++j) {
      chunk[j] = static_cast<std::uint8_t>((sent + j) * 131);
    }
    conn_ptr->send(std::move(chunk));
    // Pace by send-buffer drain: check back shortly.
    ex.schedule_in(sim::milliseconds(1), std::move(next));
  });

  conn.set_on_data([done, started, bytes, ex, conn_ptr](Buf reply) {
    if (reply.empty()) return;
    FtpTransferResult result;
    result.bytes = bytes;
    result.seconds = sim::to_seconds(ex.now() - started);
    if (result.seconds > 0) {
      result.mb_per_s =
          static_cast<double>(bytes) / (1024.0 * 1024.0) / result.seconds;
    }
    conn_ptr->close();
    done(result);
  });
}

void FtpClient::download(const std::string& name,
                         std::function<void(FtpTransferResult)> done) {
  sim::Executor ex = vm_.node().executor();
  sim::Time started = ex.now();
  auto& conn = vm_.node().tcp().connect(server_, [] {});
  conn.send(to_bytes("GET " + name + "\n"));
  auto state = std::make_shared<std::pair<std::int64_t, std::uint64_t>>(-1, 0);
  auto header = std::make_shared<Bytes>();
  auto conn_ptr = &conn;
  conn.set_on_data([state, header, done, started, ex,
                    conn_ptr](Buf data) {
    if (state->first < 0) {
      data.append_to(*header);
      auto line = take_line(*header);
      if (!line) return;
      state->first = std::stoll(*line);
      state->second = header->size();  // leftover payload
      header->clear();
    } else {
      state->second += data.size();
    }
    if (state->first >= 0 &&
        state->second >= static_cast<std::uint64_t>(state->first)) {
      FtpTransferResult result;
      result.bytes = state->second;
      result.seconds = sim::to_seconds(ex.now() - started);
      if (result.seconds > 0) {
        result.mb_per_s = static_cast<double>(result.bytes) /
                          (1024.0 * 1024.0) / result.seconds;
      }
      conn_ptr->close();
      done(result);
    }
  });
}

}  // namespace storm::workload
