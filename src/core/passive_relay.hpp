// Passive relay (paper §III-B): intercept forwarded packets with a
// kernel-hook + per-packet user/kernel copies (a netfilter-queue
// stand-in). Every data packet pays the hook cost and waits for service
// processing before moving to the next hop — the *source's* TCP ACKs also
// wait, which is exactly why the paper builds the active relay.
//
// The service under a passive relay must be a pure in-place transform
// that preserves PDU sizes (ciphers, monitors); consuming/injecting
// services need the active relay.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "cloud/cloud.hpp"
#include "core/hop_stamper.hpp"
#include "core/service.hpp"
#include "iscsi/pdu.hpp"
#include "net/packet.hpp"
#include "obs/registry.hpp"

namespace storm::core {

class PassiveRelay {
 public:
  /// `service` sees every PDU in both directions; deployment has already
  /// refused services that require an active relay.
  PassiveRelay(cloud::Vm& mb_vm, StorageService& service,
               std::string volume = {});

  PassiveRelay(const PassiveRelay&) = delete;
  PassiveRelay& operator=(const PassiveRelay&) = delete;

  ~PassiveRelay();

  /// Install the FORWARD-chain hook on the middle-box VM.
  void start();

  std::uint64_t pdus_processed() const { return pdus_; }

  /// Payload bytes awaiting service processing across all streams. The
  /// passive relay needs no watermarks: held data packets stall the
  /// source's ACK clock, so this is inherently bounded by the flow's TCP
  /// window — but the gauge makes that bound observable alongside the
  /// active relay's.
  std::size_t queue_bytes() const { return inbox_bytes_; }

  /// No packet or payload buffered in the hook and nothing mid-service —
  /// the drain protocol polls this before tearing rules.
  bool quiescent() const {
    for (const auto& [key, state] : streams_) {
      if (state.busy || !state.held.empty() || !state.inbox.empty()) {
        return false;
      }
    }
    return true;
  }

  const obs::Scope& scope() const { return scope_; }
  const std::string& volume() const { return volume_; }

 private:
  /// Per flow-direction reassembly/transform state.
  struct StreamState {
    iscsi::StreamParser parser;
    std::deque<net::Packet> held;  // packets awaiting transformed bytes
    std::deque<Buf> inbox;         // payloads awaiting processing, in order
    Bytes transformed;             // service-processed stream bytes
    bool busy = false;             // one payload in processing at a time
  };

  // Injection needs a terminated TCP stream; the passive relay only
  // rewrites packets in flight, so services that inject were already
  // rejected at deployment — reaching these throws is a logic error.
  class HookContext : public ServiceContext {
   public:
    explicit HookContext(PassiveRelay& relay) : relay_(relay) {}
    void inject_to_target(iscsi::Pdu) override {
      throw std::logic_error("passive relay cannot inject PDUs");
    }
    void inject_to_initiator(iscsi::Pdu) override {
      throw std::logic_error("passive relay cannot inject PDUs");
    }
    const obs::Scope& scope() override { return relay_.scope_; }
    const std::string& volume() const override { return relay_.volume_; }

   private:
    PassiveRelay& relay_;
  };

  bool on_packet(net::Packet& pkt);
  void pump(const net::FourTuple& key);
  void drain(StreamState& state);
  void account_inbox(std::ptrdiff_t delta);

  cloud::Vm& vm_;
  StorageService& service_;
  std::string volume_;
  obs::Scope scope_;  // "relay.<mb-vm>."
  // Per-packet and per-PDU metrics of scope_, each looked up on first use.
  obs::Counter* tel_packets_hooked_ = nullptr;
  obs::Counter* tel_copied_bytes_ = nullptr;
  obs::Counter* tel_pdus_processed_ = nullptr;
  obs::Gauge* tel_queue_bytes_ = nullptr;
  obs::Gauge* tel_queue_peak_ = nullptr;
  std::map<net::FourTuple, StreamState> streams_;
  HopStamper stamper_;  // event value: the number of streams
  std::unique_ptr<HookContext> ctx_;
  std::uint64_t pdus_ = 0;
  std::size_t inbox_bytes_ = 0;
  std::size_t peak_inbox_bytes_ = 0;
};

}  // namespace storm::core
