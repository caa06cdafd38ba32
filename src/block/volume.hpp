// Volume management: the Cinder-like control-plane object that names a
// block device, assigns its IQN, and tracks attachment state.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "block/sim_disk.hpp"
#include "common/status.hpp"

namespace storm::block {

struct VolumeId {
  std::uint64_t value = 0;
  auto operator<=>(const VolumeId&) const = default;
};

class Volume {
 public:
  Volume(VolumeId id, std::string name, std::string iqn,
         std::unique_ptr<SimDisk> disk)
      : id_(id), name_(std::move(name)), iqn_(std::move(iqn)),
        disk_(std::move(disk)) {}

  VolumeId id() const { return id_; }
  const std::string& name() const { return name_; }
  const std::string& iqn() const { return iqn_; }
  SimDisk& disk() { return *disk_; }

  bool attached() const { return attached_; }
  void set_attached(bool attached) { attached_ = attached; }

 private:
  VolumeId id_;
  std::string name_;
  std::string iqn_;
  std::unique_ptr<SimDisk> disk_;
  bool attached_ = false;
};

/// Volume service for one storage host ("cinder-volume"): creates volumes
/// on the host's physical pool and resolves IQNs for the iSCSI target.
class VolumeManager {
 public:
  /// `executor` schedules the backing SimDisks (converts implicitly
  /// from Simulator&).
  VolumeManager(sim::Executor executor, std::string host_name,
                std::uint64_t pool_sectors, DiskProfile profile = {})
      : sim_(executor), host_name_(std::move(host_name)),
        pool_sectors_(pool_sectors), profile_(profile) {}

  /// Create a volume of `sectors`; fails when the pool is exhausted.
  Result<Volume*> create(const std::string& name, std::uint64_t sectors);

  Result<Volume*> find_by_iqn(const std::string& iqn);
  Result<Volume*> find_by_name(const std::string& name);
  Status destroy(const std::string& name);

  std::uint64_t free_sectors() const { return pool_sectors_ - used_sectors_; }
  std::size_t volume_count() const { return volumes_.size(); }

 private:
  sim::Executor sim_;
  std::string host_name_;
  std::uint64_t pool_sectors_;
  std::uint64_t used_sectors_ = 0;
  DiskProfile profile_;
  std::uint64_t next_id_ = 1;
  std::map<std::string, std::unique_ptr<Volume>> volumes_;  // by name
};

}  // namespace storm::block
