// AS path representation (RFC 4271 §4.3, path attribute type 2).
//
// The paper's Table 1 requires "all information present in the underlying
// BGP message ... including AS_SET and AS_SEQUENCE segments", plus
// convenience iteration over segments and bgpdump-compatible string
// rendering ("1 2 {3,4} 5").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/result.hpp"
#include "util/smallvec.hpp"

namespace bgps::bgp {

using Asn = uint32_t;

enum class SegmentType : uint8_t { AsSet = 1, AsSequence = 2 };

// Inline capacities sized from real tables: observed AS paths are ~4
// hops on average and almost always a single AS_SEQUENCE (RFC 4271
// route selection penalizes long paths), so a typical decoded path costs
// zero heap allocations.
using AsnVec = SmallVec<Asn, 8>;

struct AsPathSegment {
  SegmentType type = SegmentType::AsSequence;
  AsnVec asns;

  bool operator==(const AsPathSegment&) const = default;
};

using SegmentVec = SmallVec<AsPathSegment, 2>;

class AsPath {
 public:
  AsPath() = default;
  explicit AsPath(std::vector<AsPathSegment> segments) {
    for (auto& seg : segments) segments_.push_back(std::move(seg));
  }

  // Builds a pure AS_SEQUENCE path (the common case).
  static AsPath Sequence(std::vector<Asn> asns);

  // Parses the bgpdump textual form: space-separated hops where a set is
  // rendered "{a,b,c}". Inverse of ToString().
  static Result<AsPath> Parse(const std::string& text);

  const SegmentVec& segments() const { return segments_; }
  bool empty() const { return segments_.empty(); }

  void append_segment(AsPathSegment seg) { segments_.push_back(std::move(seg)); }
  // Appends an empty segment of `type` and returns it for filling in
  // place (the wire decoder's path: no segment is built and then moved).
  AsPathSegment& emplace_segment(SegmentType type) {
    AsPathSegment& seg = segments_.emplace_back();
    seg.type = type;
    return seg;
  }
  void clear() { segments_.clear(); }
  // Prepends `asn` to the leading AS_SEQUENCE (creating one if needed) —
  // what a router does when exporting a route (RFC 4271 §5.1.2).
  void prepend(Asn asn);

  // Path length per RFC 4271 route selection: each AS_SEQUENCE member
  // counts 1, each AS_SET counts 1 in total.
  size_t length() const;

  // Hops in order, with each AS_SET contributing each member once. This is
  // the "split the AS path" view used by the Listing 1 analysis.
  std::vector<Asn> hops() const;

  // First ASN of the path (the VP's neighbor view) and the origin (last).
  std::optional<Asn> first_asn() const;
  // Origin AS: last element. For a trailing AS_SET the paper's analyses use
  // the set members; we return the full set via origin_set() and the
  // smallest member here for determinism.
  std::optional<Asn> origin_asn() const;
  std::vector<Asn> origin_set() const;

  // True if `asn` appears anywhere in the path.
  bool contains(Asn asn) const;

  // bgpdump format: "701 3356 {7018,209} 65001".
  std::string ToString() const;

  bool operator==(const AsPath&) const = default;

 private:
  SegmentVec segments_;
};

}  // namespace bgps::bgp
