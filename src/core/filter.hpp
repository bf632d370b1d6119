// Stream filters (paper §3.3.1 and the BGPReader filter options of §4.1).
//
// Meta-data filters (project, collector, dump type, interval) select dump
// files at the broker; data filters (prefix, community, peer ASN, elem
// type, path ASN, IP version) select individual elems.
#pragma once

#include "bgp/community.hpp"
#include "core/elem.hpp"
#include "core/record.hpp"

namespace bgps::core {

// How a prefix filter matches an elem's prefix, mirroring BGPStream's
// bgpreader options (-k exact/-k more-specific/...).
enum class PrefixMatchMode : uint8_t {
  Exact,         // elem prefix == filter prefix
  MoreSpecific,  // elem prefix equal to or contained in filter prefix
  LessSpecific,  // elem prefix equal to or containing filter prefix
  Any,           // either direction of overlap
};

struct PrefixFilter {
  Prefix prefix;
  PrefixMatchMode mode = PrefixMatchMode::MoreSpecific;

  bool matches(const Prefix& p) const;
};

// AS-path pattern, the analog of BGPStream's aspath regexp filter.
// Patterns are space-separated tokens over the path's hop sequence:
//   <asn>  matches exactly that hop       '*' matches any single hop
//   '%'    matches any (possibly empty) run of hops
//   '^' as the first token anchors at the first hop, '$' as the last
//   token anchors at the origin; unanchored patterns match anywhere.
// Examples: "^65001 %"  (paths learned from peer 65001),
//           "% 3356 %"  (paths through AS3356),
//           "% 15169$"  (paths originated by AS15169).
class AsPathPattern {
 public:
  static Result<AsPathPattern> Parse(const std::string& pattern);

  bool matches(const bgp::AsPath& path) const;

  const std::string& text() const { return text_; }

 private:
  struct Token {
    enum class Kind { Asn, AnyOne, AnyRun };
    Kind kind = Kind::Asn;
    bgp::Asn asn = 0;
  };

  bool MatchFrom(const bgp::Asn* hops, size_t n, size_t hop,
                 size_t token) const;

  std::string text_;
  std::vector<Token> tokens_;
  bool anchor_start_ = false;
  bool anchor_end_ = false;
};

class FilterSet {
 public:
  // --- meta-data filters ---
  std::vector<std::string> projects;
  std::vector<std::string> collectors;
  std::vector<DumpType> dump_types;
  TimeInterval interval{0, kLiveEnd};

  // --- data (elem-level) filters ---
  std::vector<PrefixFilter> prefixes;
  std::vector<bgp::CommunityMatcher> communities;
  std::vector<bgp::Asn> peer_asns;
  std::vector<ElemType> elem_types;
  std::vector<bgp::Asn> path_asns;  // elem AS path must contain one of these
  std::vector<AsPathPattern> aspath_patterns;
  std::optional<IpFamily> ip_version;

  // Parses one "key value" option, bgpreader-style. Keys:
  //   project, collector, type (ribs|updates), prefix ([exact|more|less|any]
  //   <pfx>), community (<asn|*>:<value|*>), peer <asn>, elemtype
  //   (ribs|announcements|withdrawals|peerstates), path <asn>,
  //   aspath <pattern> (see AsPathPattern), ipversion (4|6),
  //   interval (<start>,<end> unix seconds)
  Status AddOption(const std::string& key, const std::string& value);

  // True if a dump file with this provenance can contribute to the stream.
  bool MatchesMeta(const std::string& project, const std::string& collector,
                   DumpType type) const;

  // Record-level check (provenance + record timestamp inside interval).
  bool MatchesRecord(const Record& record) const;

  // Elem-level check (all data filters) on the fields they read, so
  // extraction can ask before it builds the elem. `prefix` is null for
  // an elem without one (a state change): `ipversion` passes it and a
  // prefix filter rejects it. Withdrawals and state changes are checked
  // with an empty path and empty communities. The single elem
  // predicate: MatchesElem, FilterElemsInPlace and
  // ExtractFilteredElemsInto all come down to it.
  bool MatchesElemFields(ElemType type, bgp::Asn peer_asn,
                         const Prefix* prefix, const bgp::AsPath& elem_path,
                         const bgp::Communities& elem_communities) const;

  bool MatchesElem(const Elem& elem) const {
    return MatchesElemFields(elem.type, elem.peer_asn,
                             elem.has_prefix() ? &elem.prefix : nullptr,
                             elem.as_path, elem.communities);
  }

  // Erases the elems failing MatchesElem (none if no elem-level filter
  // is configured), for elems that arrive already extracted.
  void FilterElemsInPlace(std::vector<Elem>& elems) const;

  // True if any elem-level filter is configured (lets hot paths skip
  // extraction when only meta filters are set).
  bool HasElemFilters() const {
    return !prefixes.empty() || !communities.empty() || !peer_asns.empty() ||
           !elem_types.empty() || !path_asns.empty() ||
           !aspath_patterns.empty() || ip_version.has_value();
  }
};

}  // namespace bgps::core
