#include "journal/segment.hpp"

#include "common/hash.hpp"

namespace storm::journal {

ScanResult scan_image(std::span<const std::uint8_t> image) {
  ScanResult result;
  std::size_t off = 0;
  while (off < image.size()) {
    const std::size_t left = image.size() - off;
    if (left < kRecordHeaderBytes) {
      // Not even a header fits. A run of zero bytes is the unwritten
      // region of the device (clean end); anything else is a torn frame.
      for (std::size_t i = off; i < image.size(); ++i) {
        if (image[i] != 0) {
          result.torn = true;
          break;
        }
      }
      break;
    }
    ByteReader reader(image.subspan(off));
    const std::uint32_t magic = reader.u32();
    if (magic != kRecordMagic) {
      if (magic == 0) break;  // unwritten tail
      result.torn = true;
      break;
    }
    const StreamId stream = reader.u32();
    const std::uint64_t seq = reader.u64();
    const std::uint64_t watermark = reader.u64();
    const std::uint8_t flags = reader.u8();
    const std::uint32_t len = reader.u32();
    if (frame_size(len) > left) {  // frame runs past the image: torn
      result.torn = true;
      break;
    }
    const std::span<const std::uint8_t> frame = image.subspan(off, frame_size(len));
    const std::span<const std::uint8_t> payload =
        frame.subspan(kRecordHeaderBytes, len);
    const std::uint32_t stored_crc =
        (static_cast<std::uint32_t>(frame[kRecordHeaderBytes + len]) << 24) |
        (static_cast<std::uint32_t>(frame[kRecordHeaderBytes + len + 1]) << 16) |
        (static_cast<std::uint32_t>(frame[kRecordHeaderBytes + len + 2]) << 8) |
        static_cast<std::uint32_t>(frame[kRecordHeaderBytes + len + 3]);
    if (crc32(frame.first(kRecordHeaderBytes + len)) != stored_crc) {
      result.torn = true;
      break;
    }
    RecordView view;
    view.stream = stream;
    view.seq = seq;
    view.watermark = watermark;
    view.flags = flags;
    view.payload = payload;
    view.offset = off;
    view.frame_bytes = frame.size();
    result.records.push_back(view);
    off += frame.size();
    result.valid_bytes = off;
  }
  return result;
}

void Segment::append(StreamId stream, std::uint64_t seq,
                     std::uint64_t watermark, std::uint8_t flags,
                     const BufChain& payload) {
  const std::size_t start = data_.size();
  ByteWriter writer(data_);
  writer.u32(kRecordMagic);
  writer.u32(stream);
  writer.u64(seq);
  writer.u64(watermark);
  writer.u8(flags);
  writer.u32(static_cast<std::uint32_t>(chain_size(payload)));
  for (const Buf& chunk : payload) writer.raw(chunk.span());
  writer.u32(crc32(std::span<const std::uint8_t>(data_).subspan(start)));
}

void Segment::truncate(std::size_t valid_bytes) {
  if (valid_bytes < data_.size()) data_.resize(valid_bytes);
}

}  // namespace storm::journal
