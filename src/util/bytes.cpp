#include "util/bytes.hpp"

namespace bgps {

Status BufReader::ReadPastEnd(const char* what) { return OutOfRange(what); }

Result<uint64_t> BufReader::u64() {
  if (remaining() < 8) return ReadPastEnd("u64 past end");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + i];
  pos_ += 8;
  return v;
}

Result<Bytes> BufReader::bytes(size_t n) {
  if (remaining() < n) return ReadPastEnd("bytes past end");
  Bytes out(data_.begin() + pos_, data_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

Result<std::string> BufReader::str(size_t n) {
  if (remaining() < n) return ReadPastEnd("str past end");
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return out;
}

void BufWriter::u8(uint8_t v) { out_.push_back(v); }

void BufWriter::u16(uint16_t v) {
  out_.push_back(uint8_t(v >> 8));
  out_.push_back(uint8_t(v));
}

void BufWriter::u32(uint32_t v) {
  out_.push_back(uint8_t(v >> 24));
  out_.push_back(uint8_t(v >> 16));
  out_.push_back(uint8_t(v >> 8));
  out_.push_back(uint8_t(v));
}

void BufWriter::u64(uint64_t v) {
  for (int i = 7; i >= 0; --i) out_.push_back(uint8_t(v >> (8 * i)));
}

void BufWriter::bytes(std::span<const uint8_t> data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

void BufWriter::str(const std::string& s) {
  out_.insert(out_.end(), s.begin(), s.end());
}

void BufWriter::patch_u16(size_t offset, uint16_t v) {
  out_[offset] = uint8_t(v >> 8);
  out_[offset + 1] = uint8_t(v);
}

void BufWriter::patch_u32(size_t offset, uint32_t v) {
  out_[offset] = uint8_t(v >> 24);
  out_[offset + 1] = uint8_t(v >> 16);
  out_[offset + 2] = uint8_t(v >> 8);
  out_[offset + 3] = uint8_t(v);
}

}  // namespace bgps
