// PDU fuzzing: randomly generated PDUs must round-trip byte-exactly
// through serialize/StreamParser under arbitrary TCP segmentation, and
// truncated or bit-flipped buffers must produce a Status error — never a
// crash, an over-read (ASan-checked in the sanitizer CI job), or a
// silently mis-parsed PDU. The journal replay fuzzer at the bottom holds
// the engine's segment scan to the same bar on torn/corrupted NVRAM
// images.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.hpp"
#include "iscsi/pdu.hpp"
#include "journal/log.hpp"
#include "journal/segment.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"

namespace storm::iscsi {
namespace {

Pdu random_pdu(Rng& rng) {
  static constexpr Opcode kOpcodes[] = {
      Opcode::kNopOut,       Opcode::kScsiCommand,  Opcode::kLoginRequest,
      Opcode::kDataOut,      Opcode::kLogoutRequest, Opcode::kNopIn,
      Opcode::kScsiResponse, Opcode::kLoginResponse, Opcode::kDataIn,
      Opcode::kLogoutResponse, Opcode::kReject,
  };
  Pdu pdu;
  pdu.opcode = kOpcodes[rng.below(std::size(kOpcodes))];
  pdu.flags = static_cast<std::uint8_t>(rng.below(256));
  pdu.status = static_cast<std::uint8_t>(rng.below(256));
  pdu.task_tag = static_cast<std::uint32_t>(rng.next_u64());
  pdu.lba = rng.next_u64();
  pdu.transfer_length = static_cast<std::uint32_t>(rng.next_u64());
  pdu.data_offset = static_cast<std::uint32_t>(rng.next_u64());
  std::size_t text_len = rng.below(64);
  for (std::size_t i = 0; i < text_len; ++i) {
    pdu.text.push_back(static_cast<char>('a' + rng.below(26)));
  }
  std::size_t data_len = rng.below(3000);
  Bytes data(data_len);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  pdu.data = std::move(data);
  return pdu;
}

TEST(PduFuzz, RandomPdusRoundTripByteExactly) {
  Rng rng(2024);
  for (int i = 0; i < 200; ++i) {
    Pdu pdu = random_pdu(rng);
    Bytes wire = serialize(pdu);
    auto parsed = parse_pdu(
        Buf::copy(std::span<const std::uint8_t>(wire).subspan(4)));
    ASSERT_TRUE(parsed.is_ok()) << "iteration " << i << ": "
                                << parsed.status().to_string();
    // Byte-exact: re-serializing the parse yields the same wire image.
    EXPECT_EQ(serialize(parsed.value()), wire) << "iteration " << i;
  }
}

TEST(PduFuzz, RandomSegmentationReassemblesEverything) {
  Rng rng(99);
  std::vector<Pdu> sent;
  Bytes stream;
  for (int i = 0; i < 50; ++i) {
    Pdu pdu = random_pdu(rng);
    Bytes wire = serialize(pdu);
    stream.insert(stream.end(), wire.begin(), wire.end());
    sent.push_back(std::move(pdu));
  }
  StreamParser parser;
  std::vector<Pdu> got;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    std::size_t n = std::min<std::size_t>(1 + rng.below(1500),
                                          stream.size() - pos);
    ASSERT_TRUE(parser
                    .feed(Buf::copy(std::span<const std::uint8_t>(
                              stream.data() + pos, n)),
                          got)
                    .is_ok());
    pos += n;
  }
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(serialize(got[i]), serialize(sent[i])) << "pdu " << i;
  }
  EXPECT_EQ(parser.pending_bytes(), 0u);
}

TEST(PduFuzz, EveryTruncationIsARejectedParseNotACrash) {
  Rng rng(7);
  Pdu pdu = random_pdu(rng);
  Bytes wire = serialize(pdu);
  std::span<const std::uint8_t> body(wire.data() + 4, wire.size() - 4);
  for (std::size_t len = 0; len < body.size(); ++len) {
    auto parsed = parse_pdu(Buf::copy(body.first(len)));
    EXPECT_FALSE(parsed.is_ok()) << "truncation to " << len << " accepted";
    EXPECT_EQ(parsed.status().code(), ErrorCode::kParseError);
  }
}

TEST(PduFuzz, EverySingleBitFlipInBodyIsDetected) {
  Rng rng(8);
  Pdu pdu = random_pdu(rng);
  pdu.data = pdu.data.slice(0, std::min<std::size_t>(pdu.data.size(), 200));
  Bytes wire = serialize(pdu);
  const std::size_t body_len = wire.size() - 4;
  for (std::size_t bit = 0; bit < body_len * 8; ++bit) {
    Bytes flipped = wire;
    flipped[4 + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    auto parsed = parse_pdu(Buf::copy(std::span<const std::uint8_t>(
        flipped.data() + 4, body_len)));
    EXPECT_FALSE(parsed.is_ok())
        << "bit flip at body bit " << bit << " went undetected";
  }
}

TEST(PduFuzz, CorruptStreamErrorsWithoutOverread) {
  Rng rng(55);
  for (int round = 0; round < 100; ++round) {
    StreamParser parser;
    std::vector<Pdu> got;
    // Random garbage, sometimes starting with a plausible length prefix.
    Bytes junk(8 + rng.below(512));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    if (rng.chance(0.5)) {
      // Make the claimed body length small enough to "complete".
      junk[0] = 0;
      junk[1] = 0;
      junk[2] = 0;
      junk[3] = static_cast<std::uint8_t>(rng.below(junk.size() - 4));
    }
    Status status = parser.feed(Buf(std::move(junk)), got);
    // Either the frame never completes (ok, buffered) or the body parse
    // fails; a random body passing both digests is ~2^-64.
    if (status.is_ok()) {
      EXPECT_TRUE(got.empty() || status.is_ok());
    } else {
      EXPECT_EQ(status.code(), ErrorCode::kParseError);
    }
  }
}

TEST(PduFuzz, BitFlippedStreamNeverDeliversAWrongPdu) {
  Rng rng(77);
  // A realistic wire stream: login, write command, data-outs, response.
  Bytes stream;
  auto add = [&stream](const Pdu& pdu) {
    Bytes wire = serialize(pdu);
    stream.insert(stream.end(), wire.begin(), wire.end());
  };
  add(make_login_request("iqn.test"));
  add(make_write_command(1, 0, 16384));
  for (std::uint32_t off = 0; off < 16384; off += kMaxDataSegment) {
    add(make_data_out(1, off, Bytes(kMaxDataSegment, 0xAB),
                      off + kMaxDataSegment == 16384));
  }
  add(make_scsi_response(1, kStatusGood));

  for (int round = 0; round < 200; ++round) {
    Bytes corrupted = stream;
    std::size_t bit = rng.below(corrupted.size() * 8);
    corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    StreamParser parser;
    std::vector<Pdu> got;
    Status status = parser.feed(Buf(std::move(corrupted)), got);
    if (status.is_ok()) {
      // The flip raised a length prefix, still within kMaxPduBody, and
      // the parser waits for the rest of that longer frame — fine, but
      // every PDU it *did* deliver must be one of the originals,
      // byte-exact.
      std::vector<Pdu> originals;
      StreamParser clean;
      ASSERT_TRUE(clean.feed(Buf::copy(stream), originals).is_ok());
      ASSERT_LE(got.size(), originals.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(serialize(got[i]), serialize(originals[i]));
      }
    } else {
      EXPECT_EQ(status.code(), ErrorCode::kParseError);
    }
  }
}

// ------------------------------------------------- journal replay fuzzing

/// Build a healthy multi-segment journal image and remember every record
/// ever appended, keyed by device sequence number.
struct JournalCorpus {
  static constexpr journal::Config kConfig{.segment_bytes = 512,
                                           .checkpoint_dead_bytes = 0};
  sim::Simulator sim;
  journal::Device device;
  std::map<std::uint64_t, Bytes> payload_by_seq;

  JournalCorpus() : device(sim, sim.telemetry().scope("journal."), kConfig) {
    Rng rng(4242);
    const journal::StreamId a = device.open_stream();
    const journal::StreamId b = device.open_stream();
    std::uint64_t wm_a = 0, wm_b = 0;
    for (int i = 0; i < 24; ++i) {
      const journal::StreamId s = (i % 3 == 0) ? b : a;
      std::uint64_t& wm = (s == b) ? wm_b : wm_a;
      Bytes payload(16 + rng.below(120));
      for (auto& byte : payload) {
        byte = static_cast<std::uint8_t>(rng.next_u32());
      }
      wm += payload.size();
      const std::uint64_t seq = device.append(
          s, {Buf(Bytes(payload))}, wm, /*boundary=*/rng.chance(0.7));
      payload_by_seq[seq] = std::move(payload);
    }
    device.checkpoint();  // a meta record in the corpus too
  }
};

TEST(JournalReplayFuzz, TornAndBitFlippedImagesNeverCrashOrYieldBadRecords) {
  JournalCorpus corpus;
  const journal::Device::Image image = corpus.device.export_image();
  ASSERT_GT(image.segments.size(), 1u);

  Rng rng(1717);
  std::uint64_t torn_total = 0;
  for (int round = 0; round < 400; ++round) {
    journal::Device::Image mutated = image;
    const double roll = rng.next_double();
    std::size_t seg = rng.below(mutated.segments.size());
    if (mutated.segments[seg].empty()) continue;
    if (roll < 0.45) {
      // Bit flip anywhere in one segment.
      Bytes& bytes = mutated.segments[seg];
      const std::size_t bit = rng.below(bytes.size() * 8);
      bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    } else if (roll < 0.8) {
      // Truncate a segment mid-byte-stream (torn tail) and drop the rest.
      Bytes& bytes = mutated.segments[seg];
      bytes.resize(rng.below(bytes.size()));
      mutated.segments.resize(seg + 1);
    } else {
      // Garbage tail: append noise after the valid region.
      Bytes& bytes = mutated.segments[seg];
      const std::size_t n = 1 + rng.below(64);
      for (std::size_t i = 0; i < n; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(rng.next_u32() | 1));
      }
      mutated.segments.resize(seg + 1);
    }

    // Replay must terminate, never crash/over-read (ASan job), and every
    // record it accepts must be one the corpus really appended — CRC
    // framing means a corrupted frame is dropped, never delivered.
    sim::Simulator sim;
    journal::Device recovered(sim, sim.telemetry().scope("journal."),
                              JournalCorpus::kConfig);
    const journal::Device::ReplayStats stats = recovered.load(mutated);
    torn_total += stats.torn;
    for (const Bytes& seg_bytes : recovered.export_image().segments) {
      for (const journal::RecordView& view : journal::scan_image(seg_bytes).records) {
        if (view.stream == journal::kMetaStream) continue;
        auto it = corpus.payload_by_seq.find(view.seq);
        ASSERT_NE(it, corpus.payload_by_seq.end())
            << "round " << round << ": replay accepted an invented record";
        EXPECT_EQ(Bytes(view.payload.begin(), view.payload.end()), it->second)
            << "round " << round << ": accepted record not byte-exact";
      }
    }
    // The torn-record telemetry the ops side alarms on.
    EXPECT_EQ(sim.telemetry().counter("journal.replay_torn_records").value(),
              stats.torn);
  }
  EXPECT_GT(torn_total, 0u) << "corpus never produced a torn tail";
}

}  // namespace
}  // namespace storm::iscsi
