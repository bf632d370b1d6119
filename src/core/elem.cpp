#include "core/elem.hpp"

#include <algorithm>

#include "core/filter.hpp"
#include "core/record.hpp"

namespace bgps::core {

const char* ElemTypeName(ElemType t) {
  switch (t) {
    case ElemType::RibEntry: return "R";
    case ElemType::Announcement: return "A";
    case ElemType::Withdrawal: return "W";
    case ElemType::PeerState: return "S";
  }
  return "?";
}

namespace {

// What withdrawals and state changes carry: no path, no communities.
const bgp::AsPath kNoPath{};
const bgp::Communities kNoCommunities{};

// Appends a default elem. The record's first kept elem makes room for
// the `left` candidates from it on, so the record grows `out` at most
// once, and not at all when no candidate is kept. Growth stays
// geometric for a vector that collects many records.
Elem& Append(std::vector<Elem>& out, bool& reserved, size_t left) {
  if (!reserved) {
    size_t need = out.size() + left;
    if (need > out.capacity())
      out.reserve(std::max(need, 2 * out.capacity()));
    reserved = true;
  }
  return out.emplace_back();
}

// The decomposition of §3.3.3, the only one. `keep(type, peer_asn,
// prefix, path, communities)` sees each candidate elem's filterable
// fields (prefix null for state changes) before the elem is built; only
// kept candidates are appended, in the order withdrawn, MP_UNREACH,
// announced, MP_REACH.
template <typename Keep>
void Decompose(const Record& record, std::vector<Elem>& out,
               const Keep& keep) {
  if (record.status != RecordStatus::Valid) return;
  const mrt::PeerIndexTable* peer_index = record.peer_index.get();
  bool reserved = false;

  if (record.msg.is_rib()) {
    const auto& rib = std::get<mrt::RibPrefix>(record.msg.body);
    if (peer_index == nullptr) return;  // PIT lost: cannot attribute VPs
    for (size_t i = 0; i < rib.entries.size(); ++i) {
      const auto& entry = rib.entries[i];
      if (entry.peer_index >= peer_index->peers.size()) continue;
      const auto& peer = peer_index->peers[entry.peer_index];
      if (!keep(ElemType::RibEntry, peer.asn, &rib.prefix,
                entry.attrs.as_path, entry.attrs.communities))
        continue;
      Elem& e = Append(out, reserved, rib.entries.size() - i);
      e.type = ElemType::RibEntry;
      e.time = record.msg.timestamp;
      e.peer_address = peer.address;
      e.peer_asn = peer.asn;
      e.prefix = rib.prefix;
      e.as_path = entry.attrs.as_path;
      e.communities = entry.attrs.communities;
      if (entry.attrs.mp_reach) {
        e.next_hop = entry.attrs.mp_reach->next_hop;
      } else if (entry.attrs.next_hop) {
        e.next_hop = *entry.attrs.next_hop;
      }
    }
    return;
  }

  if (record.msg.is_message()) {
    const auto& msg = std::get<mrt::Bgp4mpMessage>(record.msg.body);
    if (msg.message_type != bgp::MessageType::Update) return;
    const auto& upd = msg.update;
    const auto& attrs = upd.attrs;
    size_t left = upd.withdrawn.size() + upd.announced.size() +
                  (attrs.mp_unreach ? attrs.mp_unreach->withdrawn.size() : 0) +
                  (attrs.mp_reach ? attrs.mp_reach->nlri.size() : 0);
    // One candidate: null if the filters reject it, else the appended
    // elem with its per-prefix fields set.
    auto offer = [&](ElemType type, const Prefix& p, const bgp::AsPath& path,
                     const bgp::Communities& communities) -> Elem* {
      size_t here = left--;
      if (!keep(type, msg.peer_asn, &p, path, communities)) return nullptr;
      Elem& e = Append(out, reserved, here);
      e.type = type;
      e.time = record.msg.timestamp;
      e.peer_address = msg.peer_address;
      e.peer_asn = msg.peer_asn;
      e.prefix = p;
      return &e;
    };

    // Withdrawals: plain IPv4 + MP_UNREACH.
    for (const auto& p : upd.withdrawn)
      offer(ElemType::Withdrawal, p, kNoPath, kNoCommunities);
    if (attrs.mp_unreach) {
      for (const auto& p : attrs.mp_unreach->withdrawn)
        offer(ElemType::Withdrawal, p, kNoPath, kNoCommunities);
    }

    // Announcements: plain IPv4 NLRI + MP_REACH, sharing the same path,
    // copied into each kept elem only.
    for (const auto& p : upd.announced) {
      if (Elem* e = offer(ElemType::Announcement, p, attrs.as_path,
                          attrs.communities)) {
        e->as_path = attrs.as_path;
        e->communities = attrs.communities;
        if (attrs.next_hop) e->next_hop = *attrs.next_hop;
      }
    }
    if (attrs.mp_reach) {
      for (const auto& p : attrs.mp_reach->nlri) {
        if (Elem* e = offer(ElemType::Announcement, p, attrs.as_path,
                            attrs.communities)) {
          e->as_path = attrs.as_path;
          e->communities = attrs.communities;
          e->next_hop = attrs.mp_reach->next_hop;
        }
      }
    }
    return;
  }

  if (record.msg.is_state_change()) {
    const auto& sc = std::get<mrt::Bgp4mpStateChange>(record.msg.body);
    if (!keep(ElemType::PeerState, sc.peer_asn, nullptr, kNoPath,
              kNoCommunities))
      return;
    Elem& e = Append(out, reserved, 1);
    e.type = ElemType::PeerState;
    e.time = record.msg.timestamp;
    e.peer_address = sc.peer_address;
    e.peer_asn = sc.peer_asn;
    e.old_state = sc.old_state;
    e.new_state = sc.new_state;
    return;
  }

  // PeerIndexTable records carry no routing elements.
}

}  // namespace

std::vector<Elem> ExtractElems(const Record& record) {
  std::vector<Elem> out;
  ExtractElemsInto(record, out);
  return out;
}

void ExtractElemsInto(const Record& record, std::vector<Elem>& out) {
  Decompose(record, out,
            [](ElemType, bgp::Asn, const Prefix*, const bgp::AsPath&,
               const bgp::Communities&) { return true; });
}

void ExtractFilteredElemsInto(const Record& record, const FilterSet& filters,
                              std::vector<Elem>& out) {
  if (!filters.HasElemFilters()) return ExtractElemsInto(record, out);
  Decompose(record, out,
            [&filters](ElemType type, bgp::Asn peer_asn, const Prefix* prefix,
                       const bgp::AsPath& path,
                       const bgp::Communities& communities) {
              return filters.MatchesElemFields(type, peer_asn, prefix, path,
                                               communities);
            });
}

}  // namespace bgps::core
