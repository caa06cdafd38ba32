#include "iscsi/burst.hpp"

#include <algorithm>

namespace storm::iscsi {

std::vector<Pdu> split_read_reply(std::uint32_t tag, const Buf& data) {
  std::vector<Pdu> pdus;
  for (std::size_t offset = 0; offset < data.size();) {
    const std::size_t n =
        std::min<std::size_t>(kMaxDataSegment, data.size() - offset);
    pdus.push_back(make_data_in(tag, static_cast<std::uint32_t>(offset),
                                data.slice(offset, n),
                                offset + n == data.size()));
    offset += n;
  }
  pdus.push_back(make_scsi_response(tag, kStatusGood));
  return pdus;
}

std::vector<Pdu> split_write(std::uint32_t tag, std::uint64_t lba,
                             const Buf& data) {
  const std::size_t total = data.size();
  const std::size_t first = std::min<std::size_t>(kMaxDataSegment, total);
  std::vector<Pdu> pdus;
  pdus.push_back(
      make_write_command(tag, lba, static_cast<std::uint32_t>(total)));
  pdus.back().data = data.slice(0, first);
  if (first == total) pdus.back().flags |= kFlagFinal;
  for (std::size_t offset = first; offset < total;) {
    const std::size_t n =
        std::min<std::size_t>(kMaxDataSegment, total - offset);
    pdus.push_back(make_data_out(tag, static_cast<std::uint32_t>(offset),
                                 data.slice(offset, n), offset + n == total));
    offset += n;
  }
  return pdus;
}

BurstAssembler::Step BurstAssembler::add(std::uint32_t offset, Buf data,
                                         bool final) {
  if (offset != size_ || data.size() > expected_ - size_) return Step::kBroken;
  size_ += data.size();
  if (!data.empty()) chunks_.push_back(std::move(data));
  if (complete()) return Step::kComplete;
  return final ? Step::kBroken : Step::kMore;
}

}  // namespace storm::iscsi
