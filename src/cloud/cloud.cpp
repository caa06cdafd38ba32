#include "cloud/cloud.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "net/tcp.hpp"

namespace storm::cloud {

namespace {

const net::Subnet kStorageSubnet{net::Ipv4Addr::from_string("10.1.0.0"), 16};
const net::Subnet kInstanceSubnet{net::Ipv4Addr::from_string("10.2.0.0"), 16};

net::Ipv4Addr make_ip(std::uint32_t base, std::uint32_t index) {
  return net::Ipv4Addr{base + index};
}

constexpr std::uint32_t kHostStorageBase = (10u << 24) | (1u << 16) | 1;
constexpr std::uint32_t kStorageHostBase = (10u << 24) | (1u << 16) | (1u << 8) | 1;
constexpr std::uint32_t kGatewayStorageBase = (10u << 24) | (1u << 16) | (2u << 8) | 1;
constexpr std::uint32_t kVmBase = (10u << 24) | (2u << 16) | 1;
constexpr std::uint32_t kMbBase = (10u << 24) | (2u << 16) | (1u << 8) | 1;
constexpr std::uint32_t kGatewayInstanceBase = (10u << 24) | (2u << 16) | (2u << 8) | 1;

constexpr std::uint64_t kStoragePoolSectors = 8ull * 1024 * 1024;  // 4 GiB
constexpr unsigned kHostCores = 8;
// Virtio-style per-packet guest copy cost (the paper observes these
// intra-host copies dominate middle-box routing overhead).
constexpr sim::Duration kVmPacketCost = sim::microseconds(3);
constexpr double kVmNsPerByte = 0.4;
// Middle-box VMs pay more per packet: forwarded traffic crosses the
// virtio boundary twice (in and out), on a single queue ("the
// virtualization driver ... uses a single thread per VM's virtual
// interface", §V-A).
constexpr sim::Duration kMbPacketCost = sim::microseconds(2);
constexpr double kMbNsPerByte = 0.25;

}  // namespace

// ------------------------------------------------------------------- hosts

ComputeHost::ComputeHost(Cloud& cloud, unsigned index)
    : index_(index),
      storage_ip_(make_ip(kHostStorageBase, index)),
      cpu_(std::make_unique<sim::Cpu>(
          cloud.simulator(), "host" + std::to_string(index), kHostCores)),
      node_(std::make_unique<net::NetNode>(cloud.simulator(),
                                           "host" + std::to_string(index),
                                           cloud.arp())),
      ovs_(std::make_unique<net::FlowSwitch>(cloud.simulator(),
                                             "ovs" + std::to_string(index))),
      storage_link_(std::make_unique<net::Link>(cloud.simulator(),
                                                cloud.config().link_bps,
                                                cloud.config().link_delay)),
      uplink_(std::make_unique<net::Link>(cloud.simulator(),
                                          cloud.config().instance_link_bps,
                                          cloud.config().link_delay)) {
  cloud.storage_switch().attach(*storage_link_, 1);
  node_->add_nic(cloud.next_mac(), storage_ip_, kStorageSubnet,
                 *storage_link_, 0);
  // Host-side per-packet cost on the host CPU (NIC + kernel path).
  node_->set_packet_processing(cpu_.get(), sim::microseconds(1), 0.1);
  node_->tcp().set_default_window(cloud.config().tcp_window);
  cloud.instance_backbone().attach(*uplink_, 1);
  ovs_->attach(*uplink_, 0);
  cloud.register_link(*storage_link_,
                      "host" + std::to_string(index) + ".storage");
  cloud.register_link(*uplink_, "host" + std::to_string(index) + ".uplink");
}

StorageHost::StorageHost(Cloud& cloud, unsigned index)
    : index_(index),
      storage_ip_(make_ip(kStorageHostBase, index)),
      cpu_(std::make_unique<sim::Cpu>(
          cloud.simulator(), "storage" + std::to_string(index), kHostCores)),
      node_(std::make_unique<net::NetNode>(cloud.simulator(),
                                           "storage" + std::to_string(index),
                                           cloud.arp())),
      storage_link_(std::make_unique<net::Link>(cloud.simulator(),
                                                cloud.config().link_bps,
                                                cloud.config().link_delay)),
      volumes_(std::make_unique<block::VolumeManager>(
          cloud.simulator(), "storage" + std::to_string(index),
          kStoragePoolSectors, cloud.config().disk_profile)),
      target_(std::make_unique<iscsi::Target>(*node_, *volumes_)) {
  cloud.storage_switch().attach(*storage_link_, 1);
  node_->add_nic(cloud.next_mac(), storage_ip_, kStorageSubnet,
                 *storage_link_, 0);
  node_->set_packet_processing(cpu_.get(), sim::microseconds(1), 0.1);
  node_->tcp().set_default_window(cloud.config().tcp_window);
  cloud.register_link(*storage_link_,
                      "storage" + std::to_string(index) + ".storage");
  target_->start();
}

// --------------------------------------------------------------------- VM

Vm::Vm(Cloud& cloud, std::string name, std::string tenant,
       unsigned host_index, unsigned vcpus)
    : name_(std::move(name)), tenant_(std::move(tenant)),
      host_index_(host_index),
      cpu_(std::make_unique<sim::Cpu>(cloud.simulator(), name_, vcpus)),
      node_(std::make_unique<net::NetNode>(cloud.simulator(), name_,
                                           cloud.arp())),
      link_(std::make_unique<net::Link>(cloud.simulator(),
                                        // Virtio links are fast; the cost
                                        // is the per-packet copy below.
                                        10'000'000'000ull, 0)) {
}

block::BlockDevice* Vm::disk(std::size_t index) {
  if (index >= disks_.size()) return nullptr;
  return disks_[index].get();
}

// ------------------------------------------------------------------ Cloud

Cloud::Cloud(sim::Simulator& simulator, CloudConfig config)
    : sim_(simulator), config_(config),
      arp_(std::make_shared<net::ArpRegistry>()),
      storage_switch_(std::make_unique<net::L2Switch>(simulator, "storage-sw")),
      backbone_(std::make_unique<net::FlowSwitch>(simulator, "backbone")) {
  for (unsigned i = 0; i < config_.compute_hosts; ++i) {
    compute_.push_back(std::make_unique<ComputeHost>(*this, i));
  }
  for (unsigned i = 0; i < config_.storage_hosts; ++i) {
    storage_.push_back(std::make_unique<StorageHost>(*this, i));
  }
}

std::vector<net::FlowSwitch*> Cloud::flow_switches() {
  std::vector<net::FlowSwitch*> switches;
  switches.push_back(backbone_.get());
  for (auto& host : compute_) switches.push_back(host->ovs_.get());
  return switches;
}

Cloud::FlowCacheStats Cloud::flow_cache_stats() {
  FlowCacheStats stats;
  for (net::FlowSwitch* fs : flow_switches()) {
    stats.hits += fs->cache_hits();
    stats.misses += fs->cache_misses();
    stats.entries += fs->cache_entries();
  }
  return stats;
}

Vm& Cloud::create_vm(const std::string& name, const std::string& tenant,
                     unsigned host_index, unsigned vcpus) {
  return build_vm(name, tenant, host_index, vcpus,
                  make_ip(kVmBase, next_vm_ip_++), kVmPacketCost,
                  kVmNsPerByte);
}

Vm& Cloud::create_middlebox_vm(const std::string& name,
                               const std::string& tenant,
                               unsigned host_index, unsigned vcpus) {
  Vm& vm = build_vm(name, tenant, host_index, vcpus,
                    make_ip(kMbBase, next_mb_ip_++), kMbPacketCost,
                    kMbNsPerByte);
  vm.node_->set_ip_forward(true);
  return vm;
}

Vm& Cloud::build_vm(const std::string& name, const std::string& tenant,
                    unsigned host_index, unsigned vcpus, net::Ipv4Addr ip,
                    sim::Duration packet_cost, double ns_per_byte) {
  auto vm = std::make_unique<Vm>(*this, name, tenant, host_index, vcpus);
  Vm& ref = *vm;
  ref.ip_ = ip;
  ref.mac_ = next_mac();
  compute(host_index).ovs().attach(*ref.link_, 1);
  ref.node_->add_nic(ref.mac_, ref.ip_, kInstanceSubnet, *ref.link_, 0);
  ref.node_->set_packet_processing(ref.cpu_.get(), packet_cost, ns_per_byte);
  ref.node_->tcp().set_default_window(config_.tcp_window);
  register_link(*ref.link_, "vm." + ref.name_);
  vms_.push_back(std::move(vm));
  return ref;
}

Vm* Cloud::find_vm(const std::string& name) {
  for (auto& vm : vms_) {
    if (vm->name() == name) return vm.get();
  }
  return nullptr;
}

Result<block::Volume*> Cloud::create_volume(const std::string& name,
                                            std::uint64_t sectors,
                                            unsigned storage_index) {
  return storage(storage_index).volumes().create(name, sectors);
}

Result<std::pair<block::Volume*, unsigned>> Cloud::locate_volume(
    const std::string& name) {
  for (unsigned i = 0; i < storage_.size(); ++i) {
    auto found = storage_[i]->volumes().find_by_name(name);
    if (found.is_ok()) return std::pair{found.value(), i};
  }
  return error(ErrorCode::kNotFound, "no volume " + name);
}

void Cloud::attach_volume(Vm& vm, const std::string& volume_name,
                          std::function<void(Status, Attachment)> done,
                          AttachHooks hooks) {
  unsigned host_index = vm.host_index();
  attach_queues_[host_index].push_back(
      PendingAttach{&vm, volume_name, std::move(done), std::move(hooks)});
  if (!attach_in_progress_[host_index]) run_attach_queue(host_index);
}

void Cloud::run_attach_queue(unsigned host_index) {
  auto& queue = attach_queues_[host_index];
  if (queue.empty()) {
    attach_in_progress_[host_index] = false;
    return;
  }
  attach_in_progress_[host_index] = true;
  PendingAttach pending = std::move(queue.front());
  queue.erase(queue.begin());

  // The next queued attach starts in a fresh event once this one is
  // reported.
  auto finish = [this, host_index, done = std::move(pending.done)](
                    Status status, Attachment attachment) {
    done(status, std::move(attachment));
    sim_.schedule_in(0, [this, host_index] { run_attach_queue(host_index); });
  };

  auto located = locate_volume(pending.volume);
  if (!located.is_ok()) {
    finish(located.status(), {});
    return;
  }
  block::Volume* volume = located.value().first;
  StorageHost* owner = storage_[located.value().second].get();
  if (volume->attached()) {
    finish(error(ErrorCode::kFailedPrecondition,
                 "volume already attached: " + pending.volume), {});
    return;
  }

  Vm& vm = *pending.vm;
  ComputeHost& host = compute(host_index);

  Attachment attachment;
  attachment.vm = vm.name();
  attachment.tenant = vm.tenant();
  attachment.volume = pending.volume;
  attachment.iqn = volume->iqn();
  attachment.host_index = host_index;
  attachment.host_ip = host.storage_ip();
  attachment.target_ip = owner->storage_ip();

  attachment.source_port = pending.hooks.force_source_port;

  // --- atomic attachment window opens (StorM installs NAT rules here) ---
  if (pending.hooks.before_login) {
    pending.hooks.before_login(host, attachment);
  }

  // Un-pinned initiators still bind a port from one cloud-wide counter:
  // every host stack numbers its ephemeral ports from the same base, and
  // every initiator its task tags from 1, so per-host ports would give
  // two hosts' sessions the same command trace ids. Only initiators
  // connect from compute-host stacks, so nothing else there takes it.
  const std::uint16_t local_port = pending.hooks.force_source_port != 0
                                       ? pending.hooks.force_source_port
                                       : next_initiator_port_++;
  auto initiator = std::make_unique<iscsi::Initiator>(
      host.node(), net::SocketAddr{owner->storage_ip(), iscsi::kIscsiPort},
      volume->iqn(), local_port);
  iscsi::Initiator* init_ptr = initiator.get();
  host.initiators_.push_back(std::move(initiator));

  init_ptr->login([this, finish, attachment, init_ptr, volume, &vm, &host,
                   hooks = std::move(pending.hooks)](Status status) mutable {
    Attachment complete = attachment;
    // The patched login path exposes the TCP source port (§III-A).
    complete.source_port = init_ptr->source_port();
    complete.initiator = init_ptr;
    // --- atomic attachment window closes (StorM removes NAT rules) ---
    if (hooks.after_login) hooks.after_login(host, complete);
    if (!status.is_ok()) {
      finish(status, {});
      return;
    }
    auto disk = std::make_unique<iscsi::RemoteDisk>(
        *init_ptr, volume->disk().num_sectors());
    complete.disk = disk.get();
    vm.disks_.push_back(std::move(disk));
    volume->set_attached(true);
    attachments_.push_back(complete);
    log_info("cloud") << "attached " << complete.volume << " to "
                      << complete.vm << " (iqn=" << complete.iqn
                      << " port=" << complete.source_port << ")";
    finish(Status::ok(), complete);
  });
}

Status Cloud::detach_volume(const std::string& vm,
                            const std::string& volume_name) {
  auto it = std::find_if(attachments_.begin(), attachments_.end(),
                         [&](const Attachment& a) {
                           return a.vm == vm && a.volume == volume_name;
                         });
  if (it == attachments_.end()) {
    return error(ErrorCode::kNotFound,
                 "no attachment " + vm + ":" + volume_name);
  }
  auto located = locate_volume(volume_name);
  if (located.is_ok()) {
    storage_[located.value().second]->target().close_sessions_for(it->iqn);
    located.value().first->set_attached(false);
  }
  log_info("cloud") << "detached " << volume_name << " from " << vm;
  attachments_.erase(it);
  return Status::ok();
}

std::optional<Attachment> Cloud::find_attachment(
    const std::string& vm, const std::string& volume) const {
  for (const auto& attachment : attachments_) {
    if (attachment.vm == vm && attachment.volume == volume) {
      return attachment;
    }
  }
  return std::nullopt;
}

net::NetNode& Cloud::create_gateway(const std::string& name) {
  GatewayNode gateway;
  gateway.node = std::make_unique<net::NetNode>(sim_, name, arp_);
  gateway.storage_link = std::make_unique<net::Link>(
      sim_, config_.link_bps, config_.link_delay);
  gateway.instance_link = std::make_unique<net::Link>(
      sim_, config_.instance_link_bps, config_.link_delay);
  storage_switch_->attach(*gateway.storage_link, 1);
  gateway.node->add_nic(next_mac(), make_ip(kGatewayStorageBase, next_gw_ip_),
                        kStorageSubnet, *gateway.storage_link, 0);
  backbone_->attach(*gateway.instance_link, 1);
  gateway.node->add_nic(next_mac(),
                        make_ip(kGatewayInstanceBase, next_gw_ip_),
                        kInstanceSubnet, *gateway.instance_link, 0);
  ++next_gw_ip_;
  gateway.node->set_ip_forward(true);
  // Gateways are host-level software (network namespaces), cheaper than a
  // guest's virtio path.
  gateway.node->set_packet_processing(nullptr, sim::microseconds(1), 0.05);
  net::NetNode& ref = *gateway.node;
  register_link(*gateway.storage_link, name + ".storage");
  register_link(*gateway.instance_link, name + ".instance");
  gateways_.push_back(std::move(gateway));
  return ref;
}

void Cloud::register_link(net::Link& link, std::string label) {
  if (fault_plan_ != nullptr) {
    link.set_fault(fault_plan_, fault_profile_, label);
  }
  link.set_label(label);  // per-link telemetry under the same name
  links_.emplace_back(&link, std::move(label));
}

void Cloud::set_fault_plan(sim::FaultPlan* plan,
                           sim::PacketFaultProfile profile) {
  fault_plan_ = plan;
  fault_profile_ = profile;
  for (auto& [link, label] : links_) link->set_fault(plan, profile, label);
}

net::Link* Cloud::find_link(const std::string& label) {
  for (auto& [link, link_label] : links_) {
    if (link_label == label) return link;
  }
  return nullptr;
}

}  // namespace storm::cloud
