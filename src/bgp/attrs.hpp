// BGP path attributes (RFC 4271 §4.3, RFC 4760 for MP_REACH/MP_UNREACH).
//
// Wire encode/decode of the attribute block shared by UPDATE messages
// (BGP4MP records) and TABLE_DUMP_V2 RIB entries. AS paths support both
// 2-byte and 4-byte ASN encodings (MESSAGE vs MESSAGE_AS4 subtypes and
// TABLE_DUMP_V2, which is always 4-byte — RFC 6396 §4.3.4).
#pragma once

#include <optional>
#include <string_view>
#include <unordered_map>

#include "bgp/aspath.hpp"
#include "bgp/community.hpp"
#include "bgp/types.hpp"
#include "util/arena.hpp"
#include "util/bytes.hpp"
#include "util/ip.hpp"
#include "util/smallvec.hpp"

namespace bgps::bgp {

// Inline capacity 4: updates announce/withdraw a few prefixes at a time
// (RIB entries exactly one), so NLRI runs decode without heap traffic.
using PrefixVec = SmallVec<Prefix, 4>;

struct Aggregator {
  Asn asn = 0;
  IpAddress address;
  bool operator==(const Aggregator&) const = default;
};

// Multiprotocol reachable NLRI (RFC 4760 §3): carries IPv6 routes.
struct MpReach {
  uint16_t afi = kAfiIpv6;
  uint8_t safi = kSafiUnicast;
  IpAddress next_hop;
  PrefixVec nlri;
  bool operator==(const MpReach&) const = default;
};

// Multiprotocol unreachable NLRI (RFC 4760 §4): IPv6 withdrawals.
struct MpUnreach {
  uint16_t afi = kAfiIpv6;
  uint8_t safi = kSafiUnicast;
  PrefixVec withdrawn;
  bool operator==(const MpUnreach&) const = default;
};

struct PathAttributes {
  Origin origin = Origin::Igp;
  AsPath as_path;
  std::optional<IpAddress> next_hop;  // IPv4 NEXT_HOP attribute
  std::optional<uint32_t> med;
  std::optional<uint32_t> local_pref;
  bool atomic_aggregate = false;
  std::optional<Aggregator> aggregator;
  Communities communities;
  std::optional<MpReach> mp_reach;
  std::optional<MpUnreach> mp_unreach;

  bool operator==(const PathAttributes&) const = default;
};

// ASN width used on the wire for AS_PATH / AGGREGATOR.
enum class AsnEncoding { TwoByte, FourByte };

// Per-dump AS-path intern cache (decode hot path): RIB dumps repeat the
// same AS_PATH attribute bytes across thousands of entries, and update
// bursts repeat them across prefixes, so each distinct raw attribute
// body is decoded once and later occurrences copy the cached result —
// an allocation-free copy for paths within AsnVec/SegmentVec inline
// capacity. Keys are raw wire bytes interned into the owning Arena; the
// cache and arena die together with the dump that owns them (see
// core/arena.hpp for the lifetime rules). Not thread-safe: owned by the
// single task decoding one dump file.
class AsPathCache {
 public:
  explicit AsPathCache(Arena* arena) : arena_(arena) {}

  const AsPath* Find(std::string_view raw, AsnEncoding enc) const {
    const auto& m = enc == AsnEncoding::FourByte ? four_ : two_;
    auto it = m.find(raw);
    if (it == m.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    return &it->second;
  }

  const AsPath* Insert(std::string_view raw, AsnEncoding enc, AsPath path) {
    auto& m = enc == AsnEncoding::FourByte ? four_ : two_;
    auto [it, inserted] = m.emplace(arena_->Intern(raw), std::move(path));
    (void)inserted;
    return &it->second;
  }

  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }

 private:
  Arena* arena_;
  mutable size_t hits_ = 0;
  mutable size_t misses_ = 0;
  // Two maps, not one keyed on (bytes, enc): the same bytes decode
  // differently under each ASN width, and a composite key would need a
  // copy per lookup.
  std::unordered_map<std::string_view, AsPath> two_;
  std::unordered_map<std::string_view, AsPath> four_;
};

// Optional per-dump decode context, threaded from the dump layer
// (core::DumpReader) through mrt::DecodeRecord into the attribute
// decoder. Null members disable the corresponding optimization.
struct AttrDecodeCtx {
  AsPathCache* aspath_cache = nullptr;
};

// Encodes the attribute block *without* the leading total-length u16
// (callers differ: UPDATE uses u16, TABLE_DUMP_V2 RIB entries use u16 too
// but at a different position).
Bytes EncodePathAttributes(const PathAttributes& attrs, AsnEncoding enc);

// Decodes `len` bytes of attributes from `r` straight into `*out`, which
// must be default-constructed. On a non-OK status the contents of `*out`
// are unspecified; the caller resets or discards it. `ctx`, when given,
// enables the per-dump AS-path intern cache.
Status DecodePathAttributesInto(BufReader& r, size_t len, AsnEncoding enc,
                                AttrDecodeCtx* ctx, PathAttributes* out);

// Value-returning form of DecodePathAttributesInto.
Result<PathAttributes> DecodePathAttributes(BufReader& r, size_t len,
                                            AsnEncoding enc,
                                            AttrDecodeCtx* ctx = nullptr);

// NLRI prefix encoding (RFC 4271 §4.3): length octet + minimal bytes.
void EncodeNlriPrefix(BufWriter& w, const Prefix& p);
Result<Prefix> DecodeNlriPrefix(BufReader& r, IpFamily family);

}  // namespace bgps::bgp
