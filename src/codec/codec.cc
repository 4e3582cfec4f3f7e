#include "src/codec/codec.h"

namespace codec {

void Writer::U32(uint32_t v) {
  for (int i = 0; i < 4; i++) {
    buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void Writer::PatchU32(size_t at, uint32_t v) {
  for (size_t i = 0; i < 4; i++) {
    buf_[at + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

void Writer::U64(uint64_t v) {
  for (int i = 0; i < 8; i++) {
    buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void Writer::Varint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void Writer::Bytes(std::string_view s) {
  Varint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void Writer::Dot(const common::Dot& d) {
  Varint(d.proc);
  Varint(d.seq);
}

void Writer::Deps(const common::DepSet& deps) {
  Varint(deps.size());
  for (const common::Dot& d : deps) {
    Dot(d);
  }
}

uint8_t Reader::U8() {
  if (!Need(1)) {
    return 0;
  }
  return data_[pos_++];
}

uint32_t Reader::U32() {
  if (!Need(4)) {
    return 0;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; i++) {
    v |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

uint64_t Reader::U64() {
  if (!Need(8)) {
    return 0;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; i++) {
    v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

uint64_t Reader::Varint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (!Need(1) || shift > 63) {
      ok_ = false;
      return 0;
    }
    uint8_t b = data_[pos_++];
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      break;
    }
    shift += 7;
  }
  return v;
}

std::string Reader::Bytes() { return std::string(BytesView()); }

std::string_view Reader::BytesView() {
  uint64_t n = Varint();
  if (!Need(n)) {
    return {};
  }
  std::string_view s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

common::Dot Reader::Dot() {
  common::Dot d;
  d.proc = static_cast<common::ProcessId>(Varint());
  d.seq = Varint();
  return d;
}

common::DepSet Reader::Deps() {
  uint64_t n = Varint();
  if (n > remaining()) {  // each dot takes >= 2 bytes; cheap sanity bound
    ok_ = false;
    return {};
  }
  common::DepSet out;
  out.Reserve(n);
  for (uint64_t i = 0; i < n; i++) {
    // Wire order is sorted (we encode sorted sets), so Insert appends; Insert also
    // tolerates adversarial unsorted input from the network.
    out.Insert(Dot());
    if (!ok_) {
      return {};
    }
  }
  return out;
}

}  // namespace codec
