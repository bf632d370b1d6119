// BGPStream elem (paper Table 1): the per-VP, per-prefix unit of
// information extracted from a record.
//
// An MRT record groups elements of the same type across VPs or prefixes
// (RIB records: one prefix, many VPs; update records: one VP, many
// prefixes sharing a path). ExtractElems() performs the decomposition of
// §3.3.3.
#pragma once

#include <vector>

#include "bgp/aspath.hpp"
#include "bgp/community.hpp"
#include "bgp/types.hpp"
#include "util/ip.hpp"
#include "util/time.hpp"

namespace bgps::core {

struct Record;  // core/record.hpp (which includes this header, not vice versa)
class FilterSet;  // core/filter.hpp

enum class ElemType : uint8_t {
  RibEntry,      // route from a RIB dump
  Announcement,
  Withdrawal,
  PeerState,     // FSM state message (RIPE RIS VPs)
};

const char* ElemTypeName(ElemType t);  // single-letter bgpdump code

struct Elem {
  ElemType type = ElemType::Announcement;
  Timestamp time = 0;             // timestamp of the MRT record
  IpAddress peer_address;         // IP address of the VP
  bgp::Asn peer_asn = 0;          // AS number of the VP
  // Conditionally populated (Table 1 footnote):
  Prefix prefix;                  // R, A, W
  IpAddress next_hop;             // R, A
  bgp::AsPath as_path;            // R, A
  bgp::Communities communities;   // R, A
  bgp::FsmState old_state = bgp::FsmState::Unknown;  // S
  bgp::FsmState new_state = bgp::FsmState::Unknown;  // S

  bool has_prefix() const {
    return type != ElemType::PeerState;
  }
};

// Decomposes a record into elems (uses record.peer_index to resolve RIB
// peer references). Invalid records produce no elems.
std::vector<Elem> ExtractElems(const Record& record);

// Appends the record's elems to `out` without clearing it. `out` grows
// at most once per record (room for all of the record's elems is
// reserved at its first one).
void ExtractElemsInto(const Record& record, std::vector<Elem>& out);

// Appends only the elems `filters` keeps: the same elems, in the same
// order, as ExtractElemsInto followed by FilterSet::FilterElemsInPlace,
// but the filters see each elem's fields before the elem is built, so a
// rejected elem costs no copy. Both stream extraction sites
// (BgpStream::Elems and AttachPrefetchedElems) run this.
void ExtractFilteredElemsInto(const Record& record, const FilterSet& filters,
                              std::vector<Elem>& out);

}  // namespace bgps::core
