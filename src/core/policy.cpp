#include "core/policy.hpp"

#include <charconv>
#include <climits>
#include <cstdint>
#include <sstream>
#include <utility>

namespace storm::core {

const char* to_string(RelayMode mode) {
  switch (mode) {
    case RelayMode::kForward: return "forward";
    case RelayMode::kPassive: return "passive";
    case RelayMode::kActive: return "active";
  }
  return "?";
}

const char* to_string(RecoveryPolicyKind kind) {
  switch (kind) {
    case RecoveryPolicyKind::kFence: return "fence";
    case RecoveryPolicyKind::kStandby: return "standby";
    case RecoveryPolicyKind::kBypass: return "bypass";
  }
  return "?";
}

namespace {

Result<RecoveryPolicyKind> parse_recovery_policy(const std::string& value) {
  if (value == "fence") return RecoveryPolicyKind::kFence;
  if (value == "standby") return RecoveryPolicyKind::kStandby;
  if (value == "bypass") return RecoveryPolicyKind::kBypass;
  return error(ErrorCode::kParseError, "unknown recovery policy: " + value);
}

Result<RelayMode> parse_relay_mode(const std::string& value) {
  if (value == "forward") return RelayMode::kForward;
  if (value == "passive") return RelayMode::kPassive;
  if (value == "active") return RelayMode::kActive;
  return error(ErrorCode::kParseError, "unknown relay mode: " + value);
}

// Splits "key=value" at the first '='; nullopt without one.
std::optional<std::pair<std::string, std::string>> split_key_value(
    const std::string& token) {
  auto eq = token.find('=');
  if (eq == std::string::npos) return std::nullopt;
  return std::make_pair(token.substr(0, eq), token.substr(eq + 1));
}

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);
  return tokens;
}

}  // namespace

std::optional<std::uint64_t> parse_count(const std::string& text,
                                         std::uint64_t scale,
                                         std::uint64_t max) {
  // from_chars takes no sign, blank or base prefix for an unsigned type
  // and reports overflow; the whole text must be consumed.
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || scale == 0 || value > max / scale) {
    return std::nullopt;
  }
  return value * scale;
}

Result<TenantPolicy> parse_policy(const std::string& text) {
  TenantPolicy policy;
  VolumePolicy* current_volume = nullptr;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    auto fail = [&](const std::string& message) {
      return error(ErrorCode::kParseError,
                   "line " + std::to_string(line_no) + ": " + message);
    };
    // Every numeric value goes through here; the first bad one (empty,
    // non-digit, negative or overflowing) fails the line below.
    Status bad_number = Status::ok();
    auto number = [&](const std::string& key, const std::string& value,
                      std::uint64_t scale = 1,
                      std::uint64_t max = UINT64_MAX) {
      std::optional<std::uint64_t> n = parse_count(value, scale, max);
      if (!n && bad_number.is_ok()) {
        bad_number = fail("bad number for " + key + ": '" + value + "'");
      }
      return n.value_or(0);
    };

    if (tokens[0] == "tenant") {
      if (tokens.size() != 2) return fail("expected: tenant <name>");
      policy.tenant = tokens[1];
    } else if (tokens[0] == "qos") {
      if (tokens.size() < 2) {
        return fail("expected: qos rate_mbps=<n> [burst_kb=<n>]");
      }
      policy.qos.enabled = true;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        auto kv = split_key_value(tokens[i]);
        if (!kv) return fail("expected key=value, got: " + tokens[i]);
        const auto& [key, value] = *kv;
        if (key == "rate_mbps") {
          policy.qos.rate_bytes_per_sec = number(key, value, 1'000'000) / 8;
        } else if (key == "rate_bytes") {
          policy.qos.rate_bytes_per_sec = number(key, value);
        } else if (key == "burst_kb") {
          policy.qos.burst_bytes = number(key, value, 1024);
        } else if (key == "burst_bytes") {
          policy.qos.burst_bytes = number(key, value);
        } else {
          return fail("unknown qos key: " + key);
        }
      }
      // A burst below one rate-quantum would deadlock large packets at
      // admission; default to 64 KiB when unspecified.
      if (policy.qos.burst_bytes == 0) {
        policy.qos.burst_bytes = 64 * 1024;
      }
    } else if (tokens[0] == "volume") {
      if (tokens.size() != 3) return fail("expected: volume <vm> <volume>");
      policy.volumes.push_back(VolumePolicy{tokens[1], tokens[2], {}});
      current_volume = &policy.volumes.back();
    } else if (tokens[0] == "service") {
      if (current_volume == nullptr) {
        return fail("service outside a volume block");
      }
      if (tokens.size() < 2) return fail("expected: service <type> [k=v...]");
      ServiceSpec spec;
      spec.type = tokens[1];
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        auto kv = split_key_value(tokens[i]);
        if (!kv) return fail("expected key=value, got: " + tokens[i]);
        const auto& [key, value] = *kv;
        if (key == "relay") {
          auto mode = parse_relay_mode(value);
          if (!mode.is_ok()) return mode.status();
          spec.relay = mode.value();
        } else if (key == "recovery") {
          auto kind = parse_recovery_policy(value);
          if (!kind.is_ok()) return kind.status();
          spec.recovery = kind.value();
        } else if (key == "vcpus") {
          spec.vcpus = static_cast<unsigned>(number(key, value, 1, UINT_MAX));
        } else if (key == "host") {
          spec.host_index = static_cast<int>(number(key, value, 1, INT_MAX));
        } else {
          // The journal watermarks are read while the attach runs;
          // malformed ones, and any other journal_ key, must not get
          // that far.
          if (key == "journal_hwm_kb" || key == "journal_lwm_kb") {
            number(key, value, 1024, SIZE_MAX);
          } else if (key.starts_with("journal_")) {
            return fail("unknown journal key: " + key);
          }
          spec.params[key] = value;
        }
      }
      current_volume->chain.push_back(std::move(spec));
    } else if (tokens[0] == "quorum") {
      if (current_volume == nullptr || current_volume->chain.empty()) {
        return fail("quorum outside a service block");
      }
      QuorumSpec& quorum = current_volume->chain.back().quorum;
      quorum.enabled = true;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        auto kv = split_key_value(tokens[i]);
        if (!kv) return fail("expected key=value, got: " + tokens[i]);
        const auto& [key, value] = *kv;
        if (key == "w") {
          quorum.write_quorum =
              static_cast<unsigned>(number(key, value, 1, UINT_MAX));
        } else if (key == "rebuild_mbps") {
          quorum.rebuild_rate_bytes_per_sec = number(key, value, 1'000'000);
        } else if (key == "rebuild_bytes_per_sec") {
          quorum.rebuild_rate_bytes_per_sec = number(key, value);
        } else if (key == "rebuild_burst_kb") {
          quorum.rebuild_burst_bytes = number(key, value, 1024);
        } else {
          return fail("unknown quorum key: " + key);
        }
      }
    } else if (tokens[0] == "replicas") {
      if (current_volume == nullptr || current_volume->chain.empty()) {
        return fail("replicas outside a service block");
      }
      if (tokens.size() < 2) {
        return fail("expected: replicas <count> [min=<n>] [max=<n>]");
      }
      ReplicaSpec& replicas = current_volume->chain.back().replicas;
      replicas.enabled = true;
      replicas.count =
          static_cast<unsigned>(number("replicas", tokens[1], 1, UINT_MAX));
      replicas.min_count = 1;
      replicas.max_count = replicas.count;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        auto kv = split_key_value(tokens[i]);
        if (!kv) return fail("expected key=value, got: " + tokens[i]);
        const auto& [key, value] = *kv;
        if (key == "min") {
          replicas.min_count =
              static_cast<unsigned>(number(key, value, 1, UINT_MAX));
        } else if (key == "max") {
          replicas.max_count =
              static_cast<unsigned>(number(key, value, 1, UINT_MAX));
        } else {
          return fail("unknown replicas key: " + key);
        }
      }
    } else {
      return fail("unknown directive: " + tokens[0]);
    }
    if (!bad_number.is_ok()) return bad_number;
  }
  if (policy.tenant.empty()) {
    return error(ErrorCode::kParseError, "missing 'tenant' directive");
  }
  Status status = validate_policy(policy);
  if (!status.is_ok()) return status;
  return policy;
}

Status validate_policy(const TenantPolicy& policy) {
  if (policy.volumes.empty()) {
    return error(ErrorCode::kInvalidArgument, "policy lists no volumes");
  }
  if (policy.qos.enabled && policy.qos.rate_bytes_per_sec == 0) {
    return error(ErrorCode::kInvalidArgument,
                 "qos stanza requires a non-zero rate");
  }
  for (const auto& volume : policy.volumes) {
    if (volume.chain.empty()) {
      return error(ErrorCode::kInvalidArgument,
                   "volume " + volume.volume + " has an empty service chain");
    }
    Status status = validate_chain(volume.chain);
    if (!status.is_ok()) return status;
  }
  return Status::ok();
}

Status validate_chain(const std::vector<ServiceSpec>& chain) {
  for (const auto& spec : chain) {
    if (spec.type.empty()) {
      return error(ErrorCode::kInvalidArgument, "service without a type");
    }
    if (spec.vcpus == 0) {
      return error(ErrorCode::kInvalidArgument,
                   "service " + spec.type + " requests 0 vCPUs");
    }
    // Replication rewrites command routing, which requires terminating
    // the TCP stream — it cannot run as a packet-level relay.
    if (spec.type == "replication" && spec.relay != RelayMode::kActive) {
      return error(ErrorCode::kInvalidArgument,
                   "replication requires relay=active");
    }
    // Standby promotion replays an NVRAM journal, which only the
    // active relay keeps.
    if (spec.recovery == RecoveryPolicyKind::kStandby &&
        spec.relay != RelayMode::kActive) {
      return error(ErrorCode::kInvalidArgument,
                   "service " + spec.type +
                       ": recovery=standby requires relay=active");
    }
    if (spec.quorum.enabled) {
      if (spec.type != "replication") {
        return error(ErrorCode::kInvalidArgument,
                     "service " + spec.type +
                         ": quorum stanza is only valid on replication");
      }
      if (spec.quorum.write_quorum == 0) {
        return error(ErrorCode::kInvalidArgument, "quorum requires w >= 1");
      }
      // Copies available = primary + declared replicas; W above that
      // could never be met.
      const std::string replicas = spec.param("replicas");
      unsigned copies = 1;
      if (!replicas.empty()) {
        ++copies;
        for (char c : replicas) {
          if (c == ',') ++copies;
        }
      }
      if (spec.quorum.write_quorum > copies) {
        return error(ErrorCode::kInvalidArgument,
                     "quorum w=" + std::to_string(spec.quorum.write_quorum) +
                         " exceeds the " + std::to_string(copies) +
                         " configured copies");
      }
      if (spec.quorum.rebuild_rate_bytes_per_sec == 0) {
        return error(ErrorCode::kInvalidArgument,
                     "quorum rebuild rate must be non-zero");
      }
    }
    if (spec.replicas.enabled) {
      // A replica set load-balances *flows*, so every instance must
      // terminate TCP — packet-level relays have no session to pin.
      if (spec.relay != RelayMode::kActive) {
        return error(ErrorCode::kInvalidArgument,
                     "service " + spec.type +
                         ": replicas requires relay=active");
      }
      // Replication owns per-volume version maps: two instances would
      // silently fork the map. Replica-safety of custom services is
      // re-checked at deploy time via StorageService::replica_safe().
      if (spec.type == "replication" || spec.type == "monitor") {
        return error(ErrorCode::kInvalidArgument,
                     "service " + spec.type +
                         " keeps per-volume state and cannot be "
                         "replicated across instances");
      }
      // Standby promotion moves a box into one deployment's chain; a
      // pooled replica is shared across flows, so the two mechanisms
      // compose wrong. Replica sets recover by rebalancing instead.
      if (spec.recovery == RecoveryPolicyKind::kStandby) {
        return error(ErrorCode::kInvalidArgument,
                     "service " + spec.type +
                         ": recovery=standby cannot combine with a "
                         "replica set (rebalancing is the recovery)");
      }
      if (spec.replicas.count == 0 || spec.replicas.min_count == 0) {
        return error(ErrorCode::kInvalidArgument,
                     "replicas requires count >= 1 and min >= 1");
      }
      if (spec.replicas.min_count > spec.replicas.count ||
          spec.replicas.count > spec.replicas.max_count) {
        return error(ErrorCode::kInvalidArgument,
                     "replicas requires min <= count <= max");
      }
    }
    // Bypass is fail-open: known confidentiality-critical built-ins are
    // rejected here; custom services are re-checked at deploy time via
    // StorageService::confidentiality_critical().
    if (spec.recovery == RecoveryPolicyKind::kBypass &&
        (spec.type == "encryption" || spec.type == "stream_cipher" ||
         spec.type == "replication")) {
      return error(ErrorCode::kPermissionDenied,
                   "service " + spec.type +
                       " is confidentiality-critical: recovery=bypass "
                       "would fail open");
    }
  }
  return Status::ok();
}

}  // namespace storm::core
