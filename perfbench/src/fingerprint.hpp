// Byte fingerprints of what a consumer receives: one 64-bit value per
// delivered record covering its annotations and every field of every
// elem it was handed. Two deliveries with equal fingerprints carried the
// same bytes (up to hash collisions).
#pragma once

#include <string>
#include <vector>

#include "core/record.hpp"
#include "measure.hpp"

namespace perfbench {

inline void AddString(Hasher& h, const std::string& s) {
  h.AddBytes(s.data(), s.size());
}

inline void AddAddress(Hasher& h, const bgps::IpAddress& a) {
  h.Add(uint64_t(a.family()));
  h.AddBytes(a.bytes().data(), a.is_v4() ? 4 : 16);
}

inline uint64_t RecordFingerprint(const bgps::core::Record& r,
                                  const std::vector<bgps::core::Elem>& elems) {
  Hasher h;
  AddString(h, r.project);
  AddString(h, r.collector);
  h.Add(uint64_t(r.dump_type));
  h.Add(uint64_t(r.dump_time));
  h.Add(uint64_t(r.status));
  h.Add(uint64_t(r.position));
  h.Add(uint64_t(r.timestamp));
  h.Add(elems.size());
  for (const auto& e : elems) {
    h.Add(uint64_t(e.type) | uint64_t(e.old_state) << 8 |
          uint64_t(e.new_state) << 16);
    h.Add(uint64_t(e.time));
    AddAddress(h, e.peer_address);
    h.Add(e.peer_asn);
    AddAddress(h, e.prefix.address());
    h.Add(uint64_t(e.prefix.length()));
    AddAddress(h, e.next_hop);
    for (const auto& seg : e.as_path.segments()) {
      h.Add(uint64_t(seg.type) << 32 | seg.asns.size());
      for (auto asn : seg.asns) h.Add(asn);
    }
    h.Add(e.communities.size());
    for (const auto& c : e.communities) h.Add(c.raw());
  }
  return h.Value();
}

}  // namespace perfbench
