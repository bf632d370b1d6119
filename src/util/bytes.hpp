// Bounds-checked big-endian buffer reader/writer.
//
// All BGP and MRT wire formats are network byte order (RFC 4271 §4,
// RFC 6396 §2). Every read is bounds-checked and failures surface as
// Status, never as UB — a truncated MRT file must yield a Corrupt record,
// not a crash (paper §3.3.3).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/result.hpp"

namespace bgps {

using Bytes = std::vector<uint8_t>;

class BufReader {
 public:
  explicit BufReader(std::span<const uint8_t> data) : data_(data) {}
  BufReader(const uint8_t* data, size_t size) : data_(data, size) {}

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool empty() const { return remaining() == 0; }

  // The fixed-width reads, view(), skip() and sub() run once per field on
  // the decode hot path, so they are inline; only the failure status is
  // built out of line (ReadPastEnd), keeping the success path a compare
  // and a load.
  Result<uint8_t> u8() {
    if (remaining() < 1) [[unlikely]] return ReadPastEnd("u8 past end");
    return data_[pos_++];
  }
  Result<uint16_t> u16() {
    if (remaining() < 2) [[unlikely]] return ReadPastEnd("u16 past end");
    uint16_t v = uint16_t(data_[pos_] << 8 | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  Result<uint32_t> u32() {
    if (remaining() < 4) [[unlikely]] return ReadPastEnd("u32 past end");
    uint32_t v = uint32_t(data_[pos_]) << 24 | uint32_t(data_[pos_ + 1]) << 16 |
                 uint32_t(data_[pos_ + 2]) << 8 | uint32_t(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }
  Result<uint64_t> u64();

  // Copies `n` bytes out of the buffer.
  Result<Bytes> bytes(size_t n);
  // Zero-copy view of the next `n` bytes.
  Result<std::span<const uint8_t>> view(size_t n) {
    if (remaining() < n) [[unlikely]] return ReadPastEnd("view past end");
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  // Reads `n` bytes as a (not necessarily NUL-terminated) string.
  Result<std::string> str(size_t n);

  Status skip(size_t n) {
    if (remaining() < n) [[unlikely]] return ReadPastEnd("skip past end");
    pos_ += n;
    return OkStatus();
  }

  // Sub-reader over the next `n` bytes; advances this reader past them.
  // Used for length-delimited structures (MRT record body, attribute TLVs).
  Result<BufReader> sub(size_t n) {
    if (remaining() < n) [[unlikely]] return ReadPastEnd("sub past end");
    BufReader r(data_.subspan(pos_, n));
    pos_ += n;
    return r;
  }

 private:
  // OutOfRange(what): the cold, out-of-line failure path of every read.
  [[gnu::cold, gnu::noinline]] static Status ReadPastEnd(const char* what);

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

class BufWriter {
 public:
  BufWriter() = default;

  void u8(uint8_t v);
  void u16(uint16_t v);
  void u32(uint32_t v);
  void u64(uint64_t v);
  void bytes(std::span<const uint8_t> data);
  void str(const std::string& s);

  // Patch a previously written big-endian u16/u32 at `offset` — used to
  // backfill length fields after writing a variable-size body.
  void patch_u16(size_t offset, uint16_t v);
  void patch_u32(size_t offset, uint32_t v);

  size_t size() const { return out_.size(); }
  const Bytes& data() const { return out_; }
  Bytes take() { return std::move(out_); }

 private:
  Bytes out_;
};

}  // namespace bgps
