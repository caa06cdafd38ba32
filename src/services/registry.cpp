#include "services/registry.hpp"

#include <sstream>

#include "services/encryption.hpp"
#include "services/monitor.hpp"
#include "services/replication.hpp"
#include "services/stream_cipher.hpp"

namespace storm::services {

Result<Bytes> parse_hex_key(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    return error(ErrorCode::kInvalidArgument, "odd-length hex key");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    auto nibble = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      return -1;
    };
    int hi = nibble(hex[i]);
    int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return error(ErrorCode::kInvalidArgument, "bad hex key");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

void register_builtin_services(core::StormPlatform& platform) {
  platform.register_service(
      "monitor",
      [](core::ServiceEnv& env)
          -> Result<std::unique_ptr<core::StorageService>> {
        if (env.volume == nullptr) {
          return error(ErrorCode::kInvalidArgument,
                       "monitor needs the protected volume for its initial "
                       "filesystem view");
        }
        // The platform supplies the initial view at attach time (§III-C).
        // A volume with no readable filesystem (blank, or encrypted at
        // rest) starts unarmed and bootstraps from intercepted writes.
        auto recon = core::SemanticsReconstructor::from_snapshot(
            env.volume->disk().store());
        std::unique_ptr<core::SemanticsReconstructor> reconstructor =
            recon.is_ok() ? std::move(recon).take()
                          : core::SemanticsReconstructor::unformatted();
        auto service =
            std::make_unique<MonitorService>(std::move(reconstructor));
        std::string watch = env.spec->param("watch");
        if (!watch.empty()) {
          for (const std::string& path : split_csv(watch)) {
            service->watch(path);
          }
        }
        return std::unique_ptr<core::StorageService>(std::move(service));
      });

  platform.register_service(
      "encryption",
      [](core::ServiceEnv& env)
          -> Result<std::unique_ptr<core::StorageService>> {
        Bytes key(64, 0x24);  // default demo key (AES-256-XTS pair)
        std::string hex = env.spec->param("key");
        if (!hex.empty()) {
          auto parsed = parse_hex_key(hex);
          if (!parsed.is_ok()) return parsed.status();
          key = std::move(parsed).take();
        }
        return std::unique_ptr<core::StorageService>(
            std::make_unique<EncryptionService>(std::move(key)));
      });

  platform.register_service(
      "stream_cipher",
      [](core::ServiceEnv&)
          -> Result<std::unique_ptr<core::StorageService>> {
        return std::unique_ptr<core::StorageService>(
            std::make_unique<StreamCipherService>());
      });

  platform.register_service(
      "replication",
      [](core::ServiceEnv& env)
          -> Result<std::unique_ptr<core::StorageService>> {
        std::vector<std::string> replica_names =
            split_csv(env.spec->param("replicas"));
        if (replica_names.empty()) {
          return error(ErrorCode::kInvalidArgument,
                       "replication needs replicas=<vol,vol,...>");
        }
        cloud::Cloud* cloud = env.cloud;
        cloud::Vm* mb_vm = env.mb_vm;
        // Per-volume attach: used for the initial replica set and again
        // by the health probe to re-attach dead copies and spares.
        ReplicationService::AttachFn attach =
            [cloud, mb_vm](const std::string& volume,
                           std::function<void(Status, block::BlockDevice*)>
                               done) {
              // A dead copy's stale attachment pins the volume; recycle
              // it (close sessions, free the volume) before re-attaching.
              (void)cloud->detach_volume(mb_vm->name(), volume);
              cloud->attach_volume(
                  *mb_vm, volume,
                  [done](Status status, cloud::Attachment attachment) {
                    done(status,
                         status.is_ok() ? attachment.disk : nullptr);
                  });
            };
        return std::unique_ptr<core::StorageService>(
            std::make_unique<ReplicationService>(std::move(replica_names),
                                                 std::move(attach),
                                                 env.spec->quorum));
      });
}

}  // namespace storm::services
