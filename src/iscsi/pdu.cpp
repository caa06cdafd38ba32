#include "iscsi/pdu.hpp"

#include <sstream>

#include "common/hash.hpp"

namespace storm::iscsi {

const char* to_string(Opcode op) {
  switch (op) {
    case Opcode::kNopOut: return "NOP-Out";
    case Opcode::kScsiCommand: return "SCSI-Command";
    case Opcode::kLoginRequest: return "Login-Request";
    case Opcode::kDataOut: return "Data-Out";
    case Opcode::kLogoutRequest: return "Logout-Request";
    case Opcode::kNopIn: return "NOP-In";
    case Opcode::kScsiResponse: return "SCSI-Response";
    case Opcode::kLoginResponse: return "Login-Response";
    case Opcode::kDataIn: return "Data-In";
    case Opcode::kLogoutResponse: return "Logout-Response";
    case Opcode::kReject: return "Reject";
  }
  return "Unknown";
}

std::string Pdu::summary() const {
  std::ostringstream out;
  out << to_string(opcode) << " tag=" << task_tag;
  if (opcode == Opcode::kScsiCommand) {
    out << (is_read() ? " READ" : " WRITE") << " lba=" << lba
        << " len=" << transfer_length;
  }
  if (!data.empty()) out << " data=" << data.size() << "B@" << data_offset;
  if (is_final()) out << " F";
  return out.str();
}

// Body layout: 4 one-byte fields, task_tag(4), lba(8), transfer_length(4),
// data_offset(4), u16-prefixed text, data_size(4), header_digest(4), data,
// data_digest(4) = 38 fixed bytes + text + data. Each body byte sits under
// exactly one of the two digests (see serialize_chunks).
std::size_t serialized_body_size(const Pdu& pdu) {
  return 38 + pdu.text.size() + pdu.data.size();
}

std::size_t serialized_size(const Pdu& pdu) {
  return 4 + serialized_body_size(pdu);
}

namespace {

/// Everything before the data segment: length prefix, fixed header
/// fields, text, the data-size field and the header digest.
Bytes write_head(const Pdu& pdu, std::size_t body_len) {
  Bytes head;
  head.reserve(4 + body_len - pdu.data.size() - 4);
  ByteWriter w(head);
  w.u32(static_cast<std::uint32_t>(body_len));
  w.u8(static_cast<std::uint8_t>(pdu.opcode));
  w.u8(pdu.flags);
  w.u8(pdu.status);
  w.u8(0);  // reserved
  w.u32(pdu.task_tag);
  w.u64(pdu.lba);
  w.u32(pdu.transfer_length);
  w.u32(pdu.data_offset);
  w.str(pdu.text);
  w.u32(static_cast<std::uint32_t>(pdu.data.size()));
  w.u32(crc32(std::span<const std::uint8_t>(head).subspan(4)));
  return head;
}

}  // namespace

BufChain serialize_chunks(const Pdu& pdu) {
  BufChain chain;
  chain.reserve(3);
  chain.push_back(Buf(write_head(pdu, serialized_body_size(pdu))));
  // The data segment is digested through its refcounted view, never
  // copied.
  if (!pdu.data.empty()) chain.push_back(pdu.data);
  Bytes tail;
  tail.reserve(4);
  ByteWriter(tail).u32(crc32(pdu.data));
  chain.push_back(Buf(std::move(tail)));
  return chain;
}

Bytes serialize(const Pdu& pdu) {
  Bytes out;
  out.reserve(serialized_size(pdu));
  for (const Buf& chunk : serialize_chunks(pdu)) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  // Only the data segment counts as a copy: the head and digests are
  // freshly written either way.
  bufstats::add_bytes_copied(pdu.data.size());
  return out;
}

Result<Pdu> parse_pdu(Buf body) {
  try {
    const std::span<const std::uint8_t> all = body.span();
    ByteReader r(all);
    Pdu pdu;
    pdu.opcode = static_cast<Opcode>(r.u8());
    pdu.flags = r.u8();
    pdu.status = r.u8();
    r.skip(1);
    pdu.task_tag = r.u32();
    pdu.lba = r.u64();
    pdu.transfer_length = r.u32();
    pdu.data_offset = r.u32();
    pdu.text = r.str();
    const std::uint32_t data_len = r.u32();
    // Verify the header before trusting data_len.
    const std::size_t header_len = r.position();
    if (r.u32() != crc32(all.first(header_len))) {
      return error(ErrorCode::kParseError, "header digest mismatch");
    }
    const std::size_t data_off = r.position();
    r.skip(data_len);
    const std::uint32_t data_digest = r.u32();
    if (r.remaining() != 0) {
      return error(ErrorCode::kParseError, "trailing bytes in PDU");
    }
    // Zero copy: the data segment is a slice of the body the caller
    // already holds; whoever mutates it later goes through COW.
    pdu.data = body.slice(data_off, data_len);
    if (data_digest != crc32(pdu.data)) {
      return error(ErrorCode::kParseError, "data digest mismatch");
    }
    return pdu;
  } catch (const std::out_of_range&) {
    return error(ErrorCode::kParseError, "truncated PDU body");
  }
}

std::uint32_t StreamParser::peek_u32() const {
  std::uint32_t v = 0;
  std::size_t idx = 0;
  std::size_t off = head_;
  for (int i = 0; i < 4; ++i) {
    while (off >= chunks_[idx].size()) {
      off = 0;
      ++idx;
    }
    v = (v << 8) | chunks_[idx][off];
    ++off;
  }
  return v;
}

Buf StreamParser::gather(std::size_t skip, std::size_t n) const {
  if (n == 0) return Buf{};
  std::size_t idx = 0;
  std::size_t off = head_ + skip;
  while (off >= chunks_[idx].size()) {
    off -= chunks_[idx].size();
    ++idx;
  }
  if (chunks_[idx].size() - off >= n) {
    // Whole range inside one chunk: zero-copy slice.
    return chunks_[idx].slice(off, n);
  }
  Bytes out;
  out.reserve(n);
  std::size_t need = n;
  for (; need > 0; ++idx, off = 0) {
    const Buf& chunk = chunks_[idx];
    const std::size_t take = std::min(need, chunk.size() - off);
    out.insert(out.end(), chunk.begin() + off, chunk.begin() + off + take);
    need -= take;
  }
  bufstats::add_bytes_copied(n);
  return Buf(std::move(out));
}

void StreamParser::consume(std::size_t n) {
  pending_ -= n;
  while (n > 0) {
    const std::size_t avail = chunks_.front().size() - head_;
    if (n >= avail) {
      n -= avail;
      chunks_.pop_front();
      head_ = 0;
    } else {
      head_ += n;
      n = 0;
    }
  }
}

Status StreamParser::feed(Buf bytes, std::vector<Pdu>& out) {
  if (!bytes.empty()) {
    pending_ += bytes.size();
    chunks_.push_back(std::move(bytes));
  }
  while (pending_ >= 4) {
    const std::uint32_t body_len = peek_u32();
    // No digest covers the prefix: cap it, or a corrupt one would have
    // the parser buffer up to 4 GiB of the stream waiting for the frame.
    if (body_len > kMaxPduBody) {
      return error(ErrorCode::kParseError, "PDU length prefix too large");
    }
    if (pending_ - 4 < body_len) break;
    auto result = parse_pdu(gather(4, body_len));
    if (!result.is_ok()) {
      // The malformed PDU stays buffered (as in the contiguous parser);
      // callers abort the connection on error.
      return result.status();
    }
    consume(4 + body_len);
    out.push_back(std::move(result).take());
  }
  return Status::ok();
}

Pdu make_login_request(const std::string& iqn) {
  Pdu pdu;
  pdu.opcode = Opcode::kLoginRequest;
  pdu.text = "iqn=" + iqn;
  pdu.flags = kFlagFinal;
  return pdu;
}

Pdu make_login_response(std::uint8_t status) {
  Pdu pdu;
  pdu.opcode = Opcode::kLoginResponse;
  pdu.status = status;
  pdu.flags = kFlagFinal;
  return pdu;
}

Pdu make_read_command(std::uint32_t task_tag, std::uint64_t lba,
                      std::uint32_t length_bytes) {
  Pdu pdu;
  pdu.opcode = Opcode::kScsiCommand;
  pdu.flags = kFlagFinal | kFlagRead;
  pdu.task_tag = task_tag;
  pdu.lba = lba;
  pdu.transfer_length = length_bytes;
  return pdu;
}

Pdu make_write_command(std::uint32_t task_tag, std::uint64_t lba,
                       std::uint32_t length_bytes) {
  Pdu pdu;
  pdu.opcode = Opcode::kScsiCommand;
  pdu.flags = 0;  // data follows in Data-Out PDUs
  pdu.task_tag = task_tag;
  pdu.lba = lba;
  pdu.transfer_length = length_bytes;
  return pdu;
}

Pdu make_data_out(std::uint32_t task_tag, std::uint32_t offset, Buf data,
                  bool final) {
  Pdu pdu;
  pdu.opcode = Opcode::kDataOut;
  pdu.task_tag = task_tag;
  pdu.data_offset = offset;
  pdu.data = std::move(data);
  if (final) pdu.flags |= kFlagFinal;
  return pdu;
}

Pdu make_data_in(std::uint32_t task_tag, std::uint32_t offset, Buf data,
                 bool final) {
  Pdu pdu;
  pdu.opcode = Opcode::kDataIn;
  pdu.task_tag = task_tag;
  pdu.data_offset = offset;
  pdu.data = std::move(data);
  if (final) pdu.flags |= kFlagFinal;
  return pdu;
}

Pdu make_scsi_response(std::uint32_t task_tag, std::uint8_t status) {
  Pdu pdu;
  pdu.opcode = Opcode::kScsiResponse;
  pdu.task_tag = task_tag;
  pdu.status = status;
  pdu.flags = kFlagFinal;
  return pdu;
}

}  // namespace storm::iscsi
