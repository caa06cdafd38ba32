#include <gtest/gtest.h>

#include <climits>
#include <cstdint>

#include "core/active_relay.hpp"
#include "core/attribution.hpp"
#include "core/platform.hpp"
#include "core/policy.hpp"
#include "core/reconstruction.hpp"
#include "fs/simext.hpp"
#include "testutil.hpp"

namespace storm::core {
namespace {

// --- policy -------------------------------------------------------------------

TEST(Policy, ParsesFullGrammar) {
  auto policy = parse_policy(R"(
# a comment
tenant alice
volume vm1 vol1
  service monitor relay=passive vcpus=4
  service encryption relay=active key=s3cret host=2 journal_hwm_kb=64
volume vm2 vol2
  service replication replicas=r1,r2
)");
  ASSERT_TRUE(policy.is_ok()) << policy.status().to_string();
  const TenantPolicy& p = policy.value();
  EXPECT_EQ(p.tenant, "alice");
  ASSERT_EQ(p.volumes.size(), 2u);
  EXPECT_EQ(p.volumes[0].vm, "vm1");
  ASSERT_EQ(p.volumes[0].chain.size(), 2u);
  EXPECT_EQ(p.volumes[0].chain[0].type, "monitor");
  EXPECT_EQ(p.volumes[0].chain[0].relay, RelayMode::kPassive);
  EXPECT_EQ(p.volumes[0].chain[0].vcpus, 4u);
  EXPECT_EQ(p.volumes[0].chain[1].param("key"), "s3cret");
  EXPECT_EQ(p.volumes[0].chain[1].host_index, 2);
  EXPECT_EQ(p.volumes[0].chain[1].param("journal_hwm_kb"), "64");
  EXPECT_EQ(p.volumes[1].chain[0].param("replicas"), "r1,r2");
}

TEST(Policy, RejectsMalformedInput) {
  EXPECT_FALSE(parse_policy("volume vm1 vol1").is_ok());  // no tenant
  EXPECT_FALSE(parse_policy("tenant t\nservice monitor").is_ok());
  EXPECT_FALSE(parse_policy("tenant t\nvolume vm1 vol1\n  service monitor "
                            "relay=bogus").is_ok());
  EXPECT_FALSE(parse_policy("tenant t\nvolume vm1 vol1").is_ok());  // empty chain
  EXPECT_FALSE(parse_policy("tenant t\nbananas").is_ok());
  EXPECT_FALSE(parse_policy("tenant t\nvolume vm1 vol1\n"
                            "  service replication relay=passive").is_ok())
      << "replication must demand an active relay";

  // Numeric values: empty, non-digit, negative, overflowing or
  // out-of-range text is a parse error naming the line, never an
  // exception.
  const char* bad_numbers[] = {
      "  service noop vcpus=abc\n",
      "  service noop vcpus=\n",
      "  service noop vcpus=99999999999\n",
      "  service noop host=-1\n",
      "  service noop host=2x\n",
      "  service noop journal_hwm_kb=12k\n",
      "  service noop journal_lwm_kb=-4\n",
      "  service noop\n  replicas x\n",
      "  service noop\n  replicas 2 min=one\n",
      "  service replication replicas=r1\n  quorum w=two\n",
      "  service replication replicas=r1\n  quorum rebuild_mbps=-1\n",
  };
  for (const char* service : bad_numbers) {
    auto parsed =
        parse_policy(std::string("tenant t\nvolume vm1 vol1\n") + service);
    ASSERT_FALSE(parsed.is_ok()) << service;
    EXPECT_EQ(parsed.status().code(), ErrorCode::kParseError) << service;
    EXPECT_NE(parsed.status().message().find("line "), std::string::npos)
        << parsed.status().to_string();
  }
  // The watermarks are the only journal keys; any other journal_ key,
  // however well-formed its value, is a parse error that names it.
  const std::string unknown_journal_keys[] = {
      "journal_group_commit=1",
      "journal_segment_kb=64",
      "journal_checkpoint_kb=128",
  };
  for (const std::string& kv : unknown_journal_keys) {
    auto parsed = parse_policy("tenant t\nvolume vm1 vol1\n  service noop " +
                               kv + "\n");
    ASSERT_FALSE(parsed.is_ok()) << kv;
    EXPECT_EQ(parsed.status().code(), ErrorCode::kParseError) << kv;
    const std::string key = kv.substr(0, kv.find('='));
    EXPECT_NE(parsed.status().message().find(key), std::string::npos)
        << parsed.status().to_string();
  }
  const char* bad_qos[] = {"qos rate_mbps=\n", "qos rate_mbps=-8\n",
                           "qos rate_mbps=99999999999999999999\n",
                           "qos rate_mbps=18446744073709551615\n",
                           "qos rate_bytes=1e6\n", "qos burst_kb=+4\n"};
  for (const char* qos : bad_qos) {
    auto parsed = parse_policy(std::string("tenant t\n") + qos +
                               "volume vm1 vol1\n  service noop\n");
    ASSERT_FALSE(parsed.is_ok()) << qos;
    EXPECT_EQ(parsed.status().code(), ErrorCode::kParseError) << qos;
  }
}

TEST(Policy, ParseCountIsStrict) {
  EXPECT_EQ(parse_count("0"), 0u);
  EXPECT_EQ(parse_count("4096"), 4096u);
  EXPECT_EQ(parse_count("8", 1024), 8192u);
  EXPECT_EQ(parse_count("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parse_count("18446744073709551616"));
  EXPECT_FALSE(parse_count("18014398509481984", 1024));  // 2^54 KiB
  EXPECT_EQ(parse_count("2147483647", 1, INT_MAX), 2147483647u);
  EXPECT_FALSE(parse_count("2147483648", 1, INT_MAX));
  EXPECT_FALSE(parse_count(""));
  EXPECT_FALSE(parse_count("-1"));
  EXPECT_FALSE(parse_count(" 1"));
  EXPECT_FALSE(parse_count("1.5"));
}

TEST(Policy, ParsesQosStanza) {
  auto policy = parse_policy(R"(
tenant alice
qos rate_mbps=800 burst_kb=256
volume vm1 vol1
  service noop relay=active
)");
  ASSERT_TRUE(policy.is_ok()) << policy.status().to_string();
  const QosSpec& qos = policy.value().qos;
  EXPECT_TRUE(qos.enabled);
  EXPECT_EQ(qos.rate_bytes_per_sec, 100'000'000u);  // 800 Mbps in bytes
  EXPECT_EQ(qos.burst_bytes, 256u * 1024u);
  EXPECT_TRUE(validate_policy(policy.value()).is_ok());

  // Raw-byte keys and the default burst.
  auto raw = parse_policy(
      "tenant t\nqos rate_bytes=1000000\nvolume vm1 vol1\n"
      "  service noop relay=active\n");
  ASSERT_TRUE(raw.is_ok());
  EXPECT_EQ(raw.value().qos.rate_bytes_per_sec, 1'000'000u);
  EXPECT_EQ(raw.value().qos.burst_bytes, 64u * 1024u);

  // No stanza: disabled.
  auto none = parse_policy(
      "tenant t\nvolume vm1 vol1\n  service noop relay=active\n");
  ASSERT_TRUE(none.is_ok());
  EXPECT_FALSE(none.value().qos.enabled);
}

TEST(Policy, RejectsMalformedQos) {
  EXPECT_FALSE(parse_policy("tenant t\nqos\nvolume vm1 vol1\n"
                            "  service noop relay=active\n")
                   .is_ok());
  EXPECT_FALSE(parse_policy("tenant t\nqos turbo=yes\nvolume vm1 vol1\n"
                            "  service noop relay=active\n")
                   .is_ok())
      << "unknown qos key must be a parse error";
  // A qos stanza without a rate fails validation (parse_policy runs it).
  EXPECT_FALSE(parse_policy("tenant t\nqos burst_kb=4\nvolume vm1 vol1\n"
                            "  service noop relay=active\n")
                   .is_ok());
  TenantPolicy no_rate;
  no_rate.tenant = "t";
  ServiceSpec noop;
  noop.type = "noop";
  no_rate.volumes.push_back({"vm1", "vol1", {noop}});
  ASSERT_TRUE(validate_policy(no_rate).is_ok());
  no_rate.qos.enabled = true;  // enabled but rate_bytes_per_sec == 0
  EXPECT_FALSE(validate_policy(no_rate).is_ok());
}

TEST(Policy, ParsesQuorumStanza) {
  auto policy = parse_policy(R"(
tenant alice
volume vm1 vol1
  service replication replicas=r1,r2
  quorum w=2 rebuild_mbps=64 rebuild_burst_kb=256
)");
  ASSERT_TRUE(policy.is_ok()) << policy.status().to_string();
  const QuorumSpec& quorum = policy.value().volumes[0].chain[0].quorum;
  EXPECT_TRUE(quorum.enabled);
  EXPECT_EQ(quorum.write_quorum, 2u);
  EXPECT_EQ(quorum.rebuild_rate_bytes_per_sec, 64'000'000u);
  EXPECT_EQ(quorum.rebuild_burst_bytes, 256u * 1024u);

  // Raw-byte rate key and defaults for everything else.
  auto raw = parse_policy(
      "tenant t\nvolume vm1 vol1\n"
      "  service replication replicas=r1\n"
      "  quorum w=1 rebuild_bytes_per_sec=1000000\n");
  ASSERT_TRUE(raw.is_ok()) << raw.status().to_string();
  EXPECT_EQ(raw.value().volumes[0].chain[0].quorum.rebuild_rate_bytes_per_sec,
            1'000'000u);

  // No stanza: disabled, legacy mirroring semantics.
  auto none = parse_policy(
      "tenant t\nvolume vm1 vol1\n  service replication replicas=r1\n");
  ASSERT_TRUE(none.is_ok());
  EXPECT_FALSE(none.value().volumes[0].chain[0].quorum.enabled);
}

TEST(Policy, RejectsMalformedQuorum) {
  // Stanza with no service above it.
  EXPECT_FALSE(parse_policy("tenant t\nvolume vm1 vol1\n  quorum w=2\n"
                            "  service replication replicas=r1\n")
                   .is_ok());
  // Unknown key.
  EXPECT_FALSE(parse_policy("tenant t\nvolume vm1 vol1\n"
                            "  service replication replicas=r1\n"
                            "  quorum turbo=yes\n")
                   .is_ok());
  // Quorum on a non-replication service.
  EXPECT_FALSE(parse_policy("tenant t\nvolume vm1 vol1\n"
                            "  service monitor relay=active\n"
                            "  quorum w=1\n")
                   .is_ok());
  // w exceeding the copy count (primary + replicas).
  EXPECT_FALSE(parse_policy("tenant t\nvolume vm1 vol1\n"
                            "  service replication replicas=r1\n"
                            "  quorum w=3\n")
                   .is_ok())
      << "w=3 with one replica (two copies) must fail validation";
  // w=0 and a zero rebuild rate are both invalid.
  EXPECT_FALSE(parse_policy("tenant t\nvolume vm1 vol1\n"
                            "  service replication replicas=r1\n"
                            "  quorum w=0\n")
                   .is_ok());
  EXPECT_FALSE(parse_policy("tenant t\nvolume vm1 vol1\n"
                            "  service replication replicas=r1\n"
                            "  quorum w=1 rebuild_bytes_per_sec=0\n")
                   .is_ok());
}

// --- relay journal -------------------------------------------------------------

TEST(RelayJournal, AppendTrimReplay) {
  // The relay journals through a journal::Stream on a shared
  // journal::Device now; the append/trim/replay semantics are unchanged.
  sim::Simulator sim;
  journal::Device device(sim, sim.telemetry().scope("journal."));
  journal::Stream journal(device);
  journal.append({Buf(Bytes(100, 1))}, 100);
  journal.append({Buf(Bytes(50, 2))}, 150);
  journal.append({Buf(Bytes(25, 3))}, 175);
  EXPECT_EQ(journal.entries(), 3u);
  EXPECT_EQ(journal.bytes(), 175u);

  journal.trim(100);
  EXPECT_EQ(journal.entries(), 2u);
  journal.trim(149);  // entry 2 not fully acked yet
  EXPECT_EQ(journal.entries(), 2u);
  journal.trim(150);
  EXPECT_EQ(journal.entries(), 1u);
  auto replay = journal.unacknowledged();
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_EQ(chain_to_bytes(replay[0]), Bytes(25, 3));
  journal.trim(175);
  EXPECT_EQ(journal.bytes(), 0u);
}

// --- integration fixture ---------------------------------------------------------

/// XOR "cipher" used to observe transforms end-to-end (symmetric, size
/// preserving). Encrypts write payloads toward the target, decrypts
/// Data-In toward the initiator.
class XorService : public StorageService {
 public:
  std::string name() const override { return "xor"; }
  ServiceVerdict on_pdu(ServiceContext&, Direction dir,
                        iscsi::Pdu& pdu) override {
    bool is_write_data = dir == Direction::kToTarget &&
                         (pdu.opcode == iscsi::Opcode::kScsiCommand ||
                          pdu.opcode == iscsi::Opcode::kDataOut);
    bool is_read_data = dir == Direction::kToInitiator &&
                        pdu.opcode == iscsi::Opcode::kDataIn;
    if (is_write_data || is_read_data) {
      for (auto& byte : pdu.data.mutable_span()) byte ^= 0x5A;
      ++transformed_;
    }
    return {};
  }
  int transformed() const { return transformed_; }

 private:
  int transformed_ = 0;
};

class StormTest : public ::testing::Test {
 protected:
  StormTest() : cloud_(sim_, cloud::CloudConfig{}), platform_(cloud_) {
    platform_.register_service("xor", [this](ServiceEnv&) {
      auto service = std::make_unique<XorService>();
      last_xor_ = service.get();
      return Result<std::unique_ptr<StorageService>>(std::move(service));
    });
  }

  DeploymentHandle deploy(const std::string& vm, const std::string& volume,
                          std::vector<ServiceSpec> chain) {
    Status status = error(ErrorCode::kIoError, "unset");
    DeploymentHandle deployment;
    platform_.attach_with_chain(vm, volume, std::move(chain),
                                [&](Result<DeploymentHandle> r) {
                                  status = r.status();
                                  if (r.is_ok()) deployment = r.value();
                                });
    sim_.run();
    EXPECT_TRUE(status.is_ok()) << status.to_string();
    return deployment;
  }

  Bytes write_read_roundtrip(cloud::Vm& vm, std::uint64_t lba,
                             const Bytes& data) {
    bool write_ok = false;
    vm.disk()->write(lba, data, [&](Status s) {
      ASSERT_TRUE(s.is_ok()) << s.to_string();
      write_ok = true;
    });
    sim_.run();
    EXPECT_TRUE(write_ok);
    Bytes got;
    vm.disk()->read(lba, static_cast<std::uint32_t>(data.size() / 512),
                    [&](Status s, Bytes d) {
                      ASSERT_TRUE(s.is_ok()) << s.to_string();
                      got = std::move(d);
                    });
    sim_.run();
    return got;
  }

  sim::Simulator sim_;
  cloud::Cloud cloud_;
  StormPlatform platform_;
  XorService* last_xor_ = nullptr;
};

TEST_F(StormTest, SplicedIoThroughActiveNoopRelay) {
  cloud::Vm& vm = cloud_.create_vm("vm1", "alice", 0);
  ASSERT_TRUE(cloud_.create_volume("vol1", 20'000).is_ok());
  ServiceSpec noop;
  noop.type = "noop";
  noop.relay = RelayMode::kActive;
  DeploymentHandle dep = deploy("vm1", "vol1", {noop});
  ASSERT_TRUE(dep.valid());

  Bytes data = testutil::pattern_bytes(16 * block::kSectorSize);
  Bytes got = write_read_roundtrip(vm, 500, data);
  EXPECT_EQ(got, data);

  // Traffic must actually traverse the middle-box relay.
  ASSERT_NE(dep.active_relay(0), nullptr);
  EXPECT_GT(dep.active_relay(0)->pdus_relayed(), 0u);
  EXPECT_EQ(dep.active_relay(0)->session_count(), 1u);
  // Once everything is acknowledged, the NVRAM journal must be empty.
  EXPECT_EQ(dep.active_relay(0)->journal_bytes(), 0u);
}

TEST_F(StormTest, SplicedIoThroughForwardOnlyMiddlebox) {
  cloud::Vm& vm = cloud_.create_vm("vm1", "alice", 0);
  ASSERT_TRUE(cloud_.create_volume("vol1", 20'000).is_ok());
  ServiceSpec fwd;
  fwd.type = "noop";
  fwd.relay = RelayMode::kForward;
  DeploymentHandle dep = deploy("vm1", "vol1", {fwd});
  ASSERT_TRUE(dep.valid());

  Bytes data = testutil::pattern_bytes(8 * block::kSectorSize);
  EXPECT_EQ(write_read_roundtrip(vm, 0, data), data);
  // Packets flow through the MB VM's IP forwarding path.
  EXPECT_GT(dep.mb_vm(0)->node().packets_forwarded(), 0u);
}

TEST_F(StormTest, PassiveRelayTransformsInPlace) {
  cloud::Vm& vm = cloud_.create_vm("vm1", "alice", 0);
  ASSERT_TRUE(cloud_.create_volume("vol1", 20'000).is_ok());
  ServiceSpec xor_spec;
  xor_spec.type = "xor";
  xor_spec.relay = RelayMode::kPassive;
  DeploymentHandle dep = deploy("vm1", "vol1", {xor_spec});
  ASSERT_TRUE(dep.valid());

  Bytes data = testutil::pattern_bytes(8 * block::kSectorSize);
  Bytes got = write_read_roundtrip(vm, 100, data);
  EXPECT_EQ(got, data) << "XOR must round-trip through the passive relay";

  // On-disk bytes are the transformed ones.
  auto volume = cloud_.storage(0).volumes().find_by_name("vol1");
  Bytes on_disk = volume.value()->disk().store().read_sync(100, 8);
  EXPECT_NE(on_disk, data);
  Bytes unxored = on_disk;
  for (auto& byte : unxored) byte ^= 0x5A;
  EXPECT_EQ(unxored, data);
  EXPECT_GT(dep.passive_relay(0)->pdus_processed(), 0u);
}

TEST_F(StormTest, ActiveRelayTransformsInPlace) {
  cloud::Vm& vm = cloud_.create_vm("vm1", "alice", 0);
  ASSERT_TRUE(cloud_.create_volume("vol1", 20'000).is_ok());
  ServiceSpec xor_spec;
  xor_spec.type = "xor";
  xor_spec.relay = RelayMode::kActive;
  deploy("vm1", "vol1", {xor_spec});

  Bytes data = testutil::pattern_bytes(64 * block::kSectorSize);  // 32 KB
  Bytes got = write_read_roundtrip(vm, 100, data);
  EXPECT_EQ(got, data);
  auto volume = cloud_.storage(0).volumes().find_by_name("vol1");
  Bytes on_disk = volume.value()->disk().store().read_sync(100, 64);
  EXPECT_NE(on_disk, data);
}

TEST_F(StormTest, TwoBoxChainMonitorThenCipherOrder) {
  // xor (active) -> xor (active): double-XOR cancels out on disk.
  cloud::Vm& vm = cloud_.create_vm("vm1", "alice", 0);
  ASSERT_TRUE(cloud_.create_volume("vol1", 20'000).is_ok());
  ServiceSpec a, b;
  a.type = b.type = "xor";
  a.relay = b.relay = RelayMode::kActive;
  DeploymentHandle dep = deploy("vm1", "vol1", {a, b});
  ASSERT_TRUE(dep.valid());
  ASSERT_EQ(dep.chain_length(), 2u);

  Bytes data = testutil::pattern_bytes(8 * block::kSectorSize);
  Bytes got = write_read_roundtrip(vm, 0, data);
  EXPECT_EQ(got, data);
  auto volume = cloud_.storage(0).volumes().find_by_name("vol1");
  EXPECT_EQ(volume.value()->disk().store().read_sync(0, 8), data)
      << "two XOR boxes must cancel out on disk";
  EXPECT_GT(dep.active_relay(0)->pdus_relayed(), 0u);
  EXPECT_GT(dep.active_relay(1)->pdus_relayed(), 0u);
}

TEST_F(StormTest, MixedChainPassiveThenActive) {
  cloud::Vm& vm = cloud_.create_vm("vm1", "alice", 0);
  ASSERT_TRUE(cloud_.create_volume("vol1", 20'000).is_ok());
  ServiceSpec passive, active;
  passive.type = "xor";
  passive.relay = RelayMode::kPassive;
  active.type = "xor";
  active.relay = RelayMode::kActive;
  DeploymentHandle dep = deploy("vm1", "vol1", {passive, active});
  ASSERT_TRUE(dep.valid());

  Bytes data = testutil::pattern_bytes(16 * block::kSectorSize);
  Bytes got = write_read_roundtrip(vm, 64, data);
  EXPECT_EQ(got, data);
  auto volume = cloud_.storage(0).volumes().find_by_name("vol1");
  EXPECT_EQ(volume.value()->disk().store().read_sync(64, 16), data);
  EXPECT_GT(dep.passive_relay(0)->pdus_processed(), 0u);
  EXPECT_GT(dep.active_relay(1)->pdus_relayed(), 0u);
}

TEST_F(StormTest, HostNatRulesRemovedAfterAtomicAttach) {
  cloud::Vm& vm = cloud_.create_vm("vm1", "alice", 0);
  (void)vm;
  ASSERT_TRUE(cloud_.create_volume("vol1", 10'000).is_ok());
  ServiceSpec noop;
  noop.type = "noop";
  deploy("vm1", "vol1", {noop});
  // After attach, the host's NAT *rules* are gone; the flow lives on via
  // conntrack (paper §III-A).
  EXPECT_EQ(cloud_.compute(0).node().nat().rule_count(), 0u);
  EXPECT_GT(cloud_.compute(0).node().nat().conntrack_size(), 0u);

  // And I/O still flows after rule removal.
  Bytes data = testutil::pattern_bytes(block::kSectorSize);
  EXPECT_EQ(write_read_roundtrip(*cloud_.find_vm("vm1"), 1, data), data);
}

TEST_F(StormTest, SecondVolumeAttachUnaffectedByFirst) {
  // The atomic window must scope rules to one attachment: a LEGACY
  // (non-StorM) attach after a StorM attach goes direct.
  cloud::Vm& vm = cloud_.create_vm("vm1", "alice", 0);
  ASSERT_TRUE(cloud_.create_volume("vol1", 10'000).is_ok());
  ASSERT_TRUE(cloud_.create_volume("vol2", 10'000).is_ok());
  ServiceSpec noop;
  noop.type = "noop";
  DeploymentHandle dep = deploy("vm1", "vol1", {noop});

  Status status = error(ErrorCode::kIoError, "unset");
  cloud_.attach_volume(vm, "vol2",
                       [&](Status s, cloud::Attachment) { status = s; });
  sim_.run();
  ASSERT_TRUE(status.is_ok()) << status.to_string();

  std::uint64_t mb_packets_before = dep.active_relay(0)->pdus_relayed();
  Bytes data = testutil::pattern_bytes(4 * block::kSectorSize);
  bool ok = false;
  vm.disk(1)->write(0, data, [&](Status s) {
    ASSERT_TRUE(s.is_ok());
    ok = true;
  });
  sim_.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(dep.active_relay(0)->pdus_relayed(), mb_packets_before)
      << "vol2 traffic must not traverse vol1's middle-box";
}

TEST_F(StormTest, AttributionAnswersBothDirections) {
  cloud::Vm& vm = cloud_.create_vm("vm1", "alice", 1);
  (void)vm;
  ASSERT_TRUE(cloud_.create_volume("vol1", 10'000).is_ok());
  ServiceSpec noop;
  noop.type = "noop";
  DeploymentHandle dep = deploy("vm1", "vol1", {noop});

  auto by_port =
      platform_.attribution().by_source_port(dep.splice()->vm_port);
  ASSERT_TRUE(by_port.has_value());
  EXPECT_EQ(by_port->vm, "vm1");
  EXPECT_EQ(by_port->volume, "vol1");
  EXPECT_EQ(by_port->tenant, "alice");

  auto by_name = platform_.attribution().by_vm_volume("vm1", "vol1");
  ASSERT_TRUE(by_name.has_value());
  EXPECT_EQ(by_name->source_port, dep.splice()->vm_port);
  EXPECT_EQ(platform_.attribution().tenant_flows("alice").size(), 1u);
  EXPECT_TRUE(platform_.attribution().tenant_flows("bob").empty());
}

TEST_F(StormTest, ActiveRelayRecoversFromUpstreamFailure) {
  cloud::Vm& vm = cloud_.create_vm("vm1", "alice", 0);
  ASSERT_TRUE(cloud_.create_volume("vol1", 20'000).is_ok());
  ServiceSpec noop;
  noop.type = "noop";
  noop.relay = RelayMode::kActive;
  DeploymentHandle dep = deploy("vm1", "vol1", {noop});
  ActiveRelay& relay = *dep.active_relay(0);

  // Prove the path works, then cut and restore the upstream between
  // bursts: the journal replays and I/O continues.
  Bytes data = testutil::pattern_bytes(4 * block::kSectorSize);
  EXPECT_EQ(write_read_roundtrip(vm, 0, data), data);

  relay.fail_upstream();
  sim_.run();
  relay.recover_upstream();
  sim_.run();

  Bytes data2 = testutil::pattern_bytes(4 * block::kSectorSize, 99);
  EXPECT_EQ(write_read_roundtrip(vm, 8, data2), data2);
}

TEST_F(StormTest, DynamicAddAndRemoveMiddlebox) {
  cloud::Vm& vm = cloud_.create_vm("vm1", "alice", 0);
  ASSERT_TRUE(cloud_.create_volume("vol1", 20'000).is_ok());
  ServiceSpec fwd;
  fwd.type = "noop";
  fwd.relay = RelayMode::kForward;
  DeploymentHandle dep = deploy("vm1", "vol1", {fwd});

  Bytes data = testutil::pattern_bytes(4 * block::kSectorSize);
  EXPECT_EQ(write_read_roundtrip(vm, 0, data), data);

  // Scale up: insert a passive XOR box on the live flow.
  ServiceSpec xor_spec;
  xor_spec.type = "xor";
  xor_spec.relay = RelayMode::kPassive;
  ASSERT_TRUE(dep.add_middlebox(xor_spec, 1).is_ok());
  Bytes data2 = testutil::pattern_bytes(4 * block::kSectorSize, 7);
  EXPECT_EQ(write_read_roundtrip(vm, 8, data2), data2);
  auto volume = cloud_.storage(0).volumes().find_by_name("vol1");
  EXPECT_NE(volume.value()->disk().store().read_sync(8, 4), data2)
      << "new middle-box must now transform the data";

  // Scale down: remove it again.
  ASSERT_TRUE(dep.remove_middlebox(1).is_ok());
  Bytes data3 = testutil::pattern_bytes(4 * block::kSectorSize, 9);
  EXPECT_EQ(write_read_roundtrip(vm, 16, data3), data3);
  EXPECT_EQ(volume.value()->disk().store().read_sync(16, 4), data3)
      << "after removal the data must land untransformed";

  // Active relays cannot be spliced into a live connection.
  ServiceSpec active;
  active.type = "noop";
  active.relay = RelayMode::kActive;
  EXPECT_FALSE(dep.add_middlebox(active, 0).is_ok());
}

TEST_F(StormTest, DetachInvalidatesEveryHandleCopy) {
  cloud_.create_vm("vm1", "alice", 0);
  ASSERT_TRUE(cloud_.create_volume("vol1", 20'000).is_ok());
  ServiceSpec noop;
  noop.type = "noop";
  noop.relay = RelayMode::kActive;
  DeploymentHandle dep = deploy("vm1", "vol1", {noop});
  DeploymentHandle copy = platform_.find_deployment("vm1", "vol1");
  ASSERT_TRUE(dep.valid());
  ASSERT_TRUE(copy.valid());
  EXPECT_EQ(copy.cookie(), dep.cookie());

  ASSERT_TRUE(dep.detach().is_ok());
  sim_.run();
  EXPECT_FALSE(dep.valid());
  EXPECT_FALSE(copy.valid()) << "stale copies must also report invalid";
  EXPECT_EQ(dep.active_relay(0), nullptr);
  EXPECT_EQ(dep.splice(), nullptr);
  EXPECT_FALSE(platform_.find_deployment("vm1", "vol1").valid());
  // Double-detach is an error, not a crash.
  EXPECT_FALSE(dep.detach().is_ok());
}

TEST_F(StormTest, ApplyPolicyDeploysEverything) {
  cloud_.create_vm("vm1", "alice", 0);
  cloud_.create_vm("vm2", "alice", 1);
  ASSERT_TRUE(cloud_.create_volume("vol1", 10'000).is_ok());
  ASSERT_TRUE(cloud_.create_volume("vol2", 10'000).is_ok());

  auto policy = parse_policy(R"(
tenant alice
volume vm1 vol1
  service xor relay=active
volume vm2 vol2
  service noop relay=forward
)");
  ASSERT_TRUE(policy.is_ok());
  Status status = error(ErrorCode::kIoError, "unset");
  std::size_t handles = 0;
  platform_.apply_policy(policy.value(),
                         [&](Result<std::vector<DeploymentHandle>> r) {
                           status = r.status();
                           if (r.is_ok()) handles = r.value().size();
                         });
  sim_.run();
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_EQ(handles, 2u);
  EXPECT_TRUE(platform_.find_deployment("vm1", "vol1").valid());
  EXPECT_TRUE(platform_.find_deployment("vm2", "vol2").valid());

  Bytes data = testutil::pattern_bytes(2 * block::kSectorSize);
  EXPECT_EQ(write_read_roundtrip(*cloud_.find_vm("vm1"), 0, data), data);
  EXPECT_EQ(write_read_roundtrip(*cloud_.find_vm("vm2"), 0, data), data);
}

TEST_F(StormTest, ApplyPolicyInstallsTenantQosAndPacesWrites) {
  cloud_.create_vm("vm1", "alice", 0);
  ASSERT_TRUE(cloud_.create_volume("vol1", 10'000).is_ok());
  auto policy = parse_policy(R"(
tenant alice
qos rate_mbps=100 burst_kb=64
volume vm1 vol1
  service noop relay=active
)");
  ASSERT_TRUE(policy.is_ok()) << policy.status().to_string();
  Status status = error(ErrorCode::kIoError, "unset");
  platform_.apply_policy(policy.value(),
                         [&](Result<std::vector<DeploymentHandle>> r) {
                           status = r.status();
                         });
  sim_.run();
  ASSERT_TRUE(status.is_ok()) << status.to_string();

  const net::TokenBucket* bucket = platform_.tenant_qos("alice");
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->rate_bytes_per_sec(), 12'500'000u);  // 100 Mbps
  EXPECT_EQ(bucket->burst_bytes(), 64u * 1024u);
  EXPECT_EQ(platform_.splicer().tenant_gateways("alice").ingress
                ->rate_limiter(),
            bucket)
      << "the bucket must shape the tenant's ingress gateway";

  // The limiter actually paces: 512 KiB through a 12.5 MB/s bucket with
  // a 64 KiB burst cannot finish faster than ~36 ms of sim time.
  cloud::Vm& vm = *cloud_.find_vm("vm1");
  const sim::Time start = sim_.now();
  Bytes data = testutil::pattern_bytes(1024 * block::kSectorSize);
  EXPECT_EQ(write_read_roundtrip(vm, 0, data), data);
  EXPECT_GT(sim_.now() - start, sim::milliseconds(30))
      << "rate limit had no effect on the data path";
  EXPECT_GT(sim_.telemetry().counter("qos.alice.throttled_bytes").value(),
            0u);

  // A disabled spec removes the limiter.
  platform_.set_tenant_qos("alice", QosSpec{});
  EXPECT_EQ(platform_.tenant_qos("alice"), nullptr);
  EXPECT_EQ(
      platform_.splicer().tenant_gateways("alice").ingress->rate_limiter(),
      nullptr);
}

TEST_F(StormTest, UnknownServiceTypeFailsDeploy) {
  cloud_.create_vm("vm1", "alice", 0);
  ASSERT_TRUE(cloud_.create_volume("vol1", 10'000).is_ok());
  ServiceSpec ghost;
  ghost.type = "ghost";
  Status status = Status::ok();
  platform_.attach_with_chain(
      "vm1", "vol1", {ghost},
      [&](Result<DeploymentHandle> r) { status = r.status(); });
  sim_.run();
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
  EXPECT_EQ(cloud_.find_vm("mb-1-ghost"), nullptr)
      << "no middle-box VM may be created for an unknown service type";
}

TEST_F(StormTest, OutOfRangeHostFailsDeployBeforeAnyVm) {
  cloud_.create_vm("vm1", "alice", 0);
  ASSERT_TRUE(cloud_.create_volume("vol1", 10'000).is_ok());
  auto policy = parse_policy(
      "tenant alice\nvolume vm1 vol1\n  service noop host=99\n");
  ASSERT_TRUE(policy.is_ok()) << policy.status().to_string();
  Status status = Status::ok();
  platform_.attach_with_chain(
      "vm1", "vol1", policy.value().volumes[0].chain,
      [&](Result<DeploymentHandle> r) { status = r.status(); });
  sim_.run();
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument) << status.to_string();
  EXPECT_EQ(cloud_.find_vm("mb-1-noop"), nullptr)
      << "no middle-box VM may be created for an unknown host";
  EXPECT_FALSE(platform_.find_deployment("vm1", "vol1").valid());
}

// validate_policy rejects each of these specs, and both direct deploy
// entry points must refuse them too: with the same error, and before
// any middle-box VM exists, since the cloud cannot destroy a VM. (A
// vcpus=0 box would only stall the login until TCP gives up: a 0-core
// CPU never runs a task.)
TEST_F(StormTest, InvalidSpecsFailDeployBeforeAnyVm) {
  cloud_.create_vm("vm1", "alice", 0);
  ASSERT_TRUE(cloud_.create_volume("vol1", 10'000).is_ok());
  std::vector<ServiceSpec> bad(4);
  for (ServiceSpec& spec : bad) spec.type = "noop";
  bad[0].vcpus = 0;
  bad[1].quorum.enabled = true;  // quorum is replication's alone
  bad[2].replicas.enabled = true;
  bad[2].recovery = RecoveryPolicyKind::kStandby;
  bad[3].replicas.enabled = true;
  bad[3].replicas.min_count = 3;
  bad[3].replicas.count = 2;
  bad[3].replicas.max_count = 1;

  std::vector<Status> expected;
  for (const ServiceSpec& spec : bad) {
    TenantPolicy policy;
    policy.tenant = "alice";
    policy.volumes.push_back(VolumePolicy{"vm1", "vol1", {spec}});
    expected.push_back(validate_policy(policy));
    ASSERT_FALSE(expected.back().is_ok());

    bool called = false;
    Status status = Status::ok();
    platform_.attach_with_chain("vm1", "vol1", {spec},
                                [&](Result<DeploymentHandle> r) {
                                  called = true;
                                  status = r.status();
                                });
    sim_.run();
    ASSERT_TRUE(called) << expected.back().to_string();
    EXPECT_EQ(status.code(), expected.back().code());
    EXPECT_EQ(status.message(), expected.back().message());
  }
  for (int id = 1; id <= 8; ++id) {
    const std::string label = "mb-" + std::to_string(id) + "-noop";
    EXPECT_EQ(cloud_.find_vm(label), nullptr) << label;
    EXPECT_EQ(cloud_.find_vm(label + "-sb"), nullptr) << label;
  }
  EXPECT_FALSE(platform_.find_deployment("vm1", "vol1").valid());

  // add_middlebox runs the same check on the spec it would insert.
  ServiceSpec fwd;
  fwd.type = "noop";
  fwd.relay = RelayMode::kForward;
  DeploymentHandle dep = deploy("vm1", "vol1", {fwd});
  ServiceSpec zero_cores = fwd;
  zero_cores.vcpus = 0;
  Status added = dep.add_middlebox(zero_cores, 1);
  EXPECT_EQ(added.code(), expected[0].code());
  EXPECT_EQ(added.message(), expected[0].message());
  EXPECT_EQ(dep.chain_length(), 1u);
  EXPECT_EQ(cloud_.find_vm("mb-2-noop"), nullptr);
}

// --- semantics reconstruction -----------------------------------------------------

class ReconstructionTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kSectors = 4096 * fs::kSectorsPerBlock;

  ReconstructionTest() : disk_(kSectors), fs_(sim_, tap_) {
    EXPECT_TRUE(fs::SimExt::mkfs(disk_).is_ok());
  }

  /// Pass-through device that feeds every I/O to the reconstructor,
  /// standing in for the middle-box's intercept position.
  class TapDisk : public block::BlockDevice {
   public:
    explicit TapDisk(ReconstructionTest& outer) : outer_(outer) {}
    void read(std::uint64_t lba, std::uint32_t count,
              ReadCallback done) override {
      if (outer_.recon_) {
        auto ops = outer_.recon_->on_read(
            lba, static_cast<std::uint64_t>(count) * 512);
        outer_.log_.insert(outer_.log_.end(), ops.begin(), ops.end());
      }
      outer_.disk_.read(lba, count, std::move(done));
    }
    void write(std::uint64_t lba, Bytes data, WriteCallback done) override {
      if (outer_.recon_) {
        auto ops = outer_.recon_->on_write(lba, data);
        outer_.log_.insert(outer_.log_.end(), ops.begin(), ops.end());
      }
      outer_.disk_.write(lba, std::move(data), std::move(done));
    }
    std::uint64_t num_sectors() const override {
      return outer_.disk_.num_sectors();
    }

   private:
    ReconstructionTest& outer_;
  };

  void mount_and_arm() {
    bool mounted = false;
    fs_.mount([&](Status s) {
      ASSERT_TRUE(s.is_ok());
      mounted = true;
    });
    sim_.run();
    ASSERT_TRUE(mounted);
    arm();
  }

  void arm() {
    auto recon = SemanticsReconstructor::from_snapshot(disk_);
    ASSERT_TRUE(recon.is_ok()) << recon.status().to_string();
    recon_ = std::move(recon).take();
    log_.clear();
  }

  Status run(std::function<void(fs::SimExt::DoneCb)> op) {
    Status status = error(ErrorCode::kIoError, "unset");
    op([&](Status s) { status = s; });
    sim_.run();
    return status;
  }

  bool logged(FileOp::Kind kind, const std::string& path) const {
    for (const auto& op : log_) {
      if (op.kind == kind && op.path == path) return true;
    }
    return false;
  }

  sim::Simulator sim_;
  block::MemDisk disk_;
  TapDisk tap_{*this};
  fs::SimExt fs_;
  std::unique_ptr<SemanticsReconstructor> recon_;
  std::vector<FileOp> log_;
};

TEST_F(ReconstructionTest, SnapshotIndexesExistingFiles) {
  // Build a tree before arming the reconstructor.
  bool ok = false;
  fs_.mount([&](Status s) { ok = s.is_ok(); });
  sim_.run();
  ASSERT_TRUE(ok);
  ASSERT_TRUE(run([&](auto cb) { fs_.mkdir("/box", cb); }).is_ok());
  ASSERT_TRUE(run([&](auto cb) { fs_.create("/box/a.img", cb); }).is_ok());
  ASSERT_TRUE(run([&](auto cb) {
    fs_.write_file("/box/a.img", 0, Bytes(20'000, 0xAA), cb);
  }).is_ok());

  arm();
  EXPECT_EQ(recon_->tracked_files(), 1u);
  EXPECT_EQ(recon_->path_of_inode(fs::kRootInode), "/");
  // a.img's data blocks resolve to its path.
  bool found = false;
  for (std::uint32_t block = 0; block < 4096; ++block) {
    auto path = recon_->path_of_block(block);
    if (path && *path == "/box/a.img") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(ReconstructionTest, LiveCreateWriteIsReconstructed) {
  mount_and_arm();
  ASSERT_TRUE(run([&](auto cb) { fs_.mkdir("/box", cb); }).is_ok());
  ASSERT_TRUE(run([&](auto cb) { fs_.create("/box/1.img", cb); }).is_ok());
  ASSERT_TRUE(run([&](auto cb) {
    fs_.write_file("/box/1.img", 0, Bytes(16'384, 0xBB), cb);
  }).is_ok());

  EXPECT_TRUE(logged(FileOp::Kind::kWrite, "/box/1.img"))
      << "data write must map to the new file's path";
  // Metadata writes observed: inode table of group 0.
  EXPECT_TRUE(logged(FileOp::Kind::kMetaWrite, "META: inode_group_0"));

  // Aggregated size: one logged write of 16384 bytes.
  bool size_ok = false;
  for (const auto& op : log_) {
    if (op.kind == FileOp::Kind::kWrite && op.path == "/box/1.img" &&
        op.size == 16'384) {
      size_ok = true;
    }
  }
  EXPECT_TRUE(size_ok);
}

TEST_F(ReconstructionTest, ReadsClassifiedAgainstView) {
  bool ok = false;
  fs_.mount([&](Status s) { ok = s.is_ok(); });
  sim_.run();
  ASSERT_TRUE(ok);
  ASSERT_TRUE(run([&](auto cb) { fs_.mkdir("/box", cb); }).is_ok());
  ASSERT_TRUE(run([&](auto cb) { fs_.create("/box/7.img", cb); }).is_ok());
  ASSERT_TRUE(run([&](auto cb) {
    fs_.write_file("/box/7.img", 0, Bytes(4096, 0xCC), cb);
  }).is_ok());

  arm();
  fs_.drop_caches();  // force cold metadata reads, as in paper Table I
  Bytes got;
  ASSERT_TRUE(run([&](auto cb) {
    fs_.read_file("/box/7.img", 0, 4096, [&got, cb](Status s, Bytes d) {
      got = std::move(d);
      cb(s);
    });
  }).is_ok());

  EXPECT_TRUE(logged(FileOp::Kind::kRead, "/box/7.img"));
  EXPECT_TRUE(logged(FileOp::Kind::kRead, "/box/."))
      << "directory lookup must appear as a dir read";
  EXPECT_TRUE(logged(FileOp::Kind::kMetaRead, "META: inode_group_0"));
}

TEST_F(ReconstructionTest, RenameTracked) {
  mount_and_arm();
  ASSERT_TRUE(run([&](auto cb) { fs_.create("/old", cb); }).is_ok());
  ASSERT_TRUE(run([&](auto cb) {
    fs_.write_file("/old", 0, Bytes(4096, 1), cb);
  }).is_ok());
  ASSERT_TRUE(run([&](auto cb) { fs_.rename("/old", "/new", cb); }).is_ok());
  log_.clear();
  ASSERT_TRUE(run([&](auto cb) {
    fs_.write_file("/new", 0, Bytes(4096, 2), cb);
  }).is_ok());
  EXPECT_TRUE(logged(FileOp::Kind::kWrite, "/new"))
      << "view must follow the rename";
}

TEST_F(ReconstructionTest, DeleteDropsMapping) {
  mount_and_arm();
  ASSERT_TRUE(run([&](auto cb) { fs_.create("/f", cb); }).is_ok());
  ASSERT_TRUE(run([&](auto cb) {
    fs_.write_file("/f", 0, Bytes(8192, 1), cb);
  }).is_ok());
  std::size_t before = recon_->tracked_files();
  EXPECT_EQ(before, 1u);
  ASSERT_TRUE(run([&](auto cb) { fs_.unlink("/f", cb); }).is_ok());
  EXPECT_EQ(recon_->tracked_files(), 0u);
}

TEST_F(ReconstructionTest, UnknownBlockFallsBack) {
  mount_and_arm();
  auto ops = recon_->on_read(3000 * fs::kSectorsPerBlock, 4096);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_TRUE(ops[0].path.starts_with("unallocated_block_"));
}

}  // namespace
}  // namespace storm::core
