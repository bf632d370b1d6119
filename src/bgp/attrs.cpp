#include "bgp/attrs.hpp"

namespace bgps::bgp {
namespace {

// Attribute flag bits (RFC 4271 §4.3).
constexpr uint8_t kFlagOptional = 0x80;
constexpr uint8_t kFlagTransitive = 0x40;
constexpr uint8_t kFlagExtLen = 0x10;

void WriteAttrHeader(BufWriter& w, uint8_t flags, AttrType type, size_t len) {
  if (len > 0xFF) flags |= kFlagExtLen;
  w.u8(flags);
  w.u8(uint8_t(type));
  if (flags & kFlagExtLen) {
    w.u16(uint16_t(len));
  } else {
    w.u8(uint8_t(len));
  }
}

void WriteAttr(BufWriter& w, uint8_t flags, AttrType type, const Bytes& body) {
  WriteAttrHeader(w, flags, type, body.size());
  w.bytes(body);
}

Bytes EncodeAsPathBody(const AsPath& path, AsnEncoding enc) {
  BufWriter w;
  for (const auto& seg : path.segments()) {
    w.u8(uint8_t(seg.type));
    w.u8(uint8_t(seg.asns.size()));
    for (Asn a : seg.asns) {
      if (enc == AsnEncoding::FourByte) {
        w.u32(a);
      } else {
        // 2-byte encoding: ASNs above 16 bits become AS_TRANS (23456),
        // per RFC 6793 §4.2.
        w.u16(a > 0xFFFF ? uint16_t(23456) : uint16_t(a));
      }
    }
  }
  return w.take();
}

// Appends the segments of one AS_PATH attribute body to `path`.
Status DecodeAsPathBodyInto(BufReader r, AsnEncoding enc, AsPath* path) {
  while (!r.empty()) {
    BGPS_ASSIGN_OR_RETURN(uint8_t type, r.u8());
    if (type != uint8_t(SegmentType::AsSet) &&
        type != uint8_t(SegmentType::AsSequence))
      return CorruptError("bad AS path segment type " + std::to_string(type));
    BGPS_ASSIGN_OR_RETURN(uint8_t count, r.u8());
    AsnVec& asns = path->emplace_segment(SegmentType(type)).asns;
    asns.reserve(count);
    for (int i = 0; i < count; ++i) {
      if (enc == AsnEncoding::FourByte) {
        BGPS_ASSIGN_OR_RETURN(uint32_t a, r.u32());
        asns.push_back(a);
      } else {
        BGPS_ASSIGN_OR_RETURN(uint16_t a, r.u16());
        asns.push_back(a);
      }
    }
  }
  return OkStatus();
}

void WriteIpBytes(BufWriter& w, const IpAddress& a) {
  w.bytes(std::span<const uint8_t>(a.bytes().data(), size_t(a.width()) / 8));
}

Result<IpAddress> ReadIpBytes(BufReader& r, IpFamily family) {
  if (family == IpFamily::V4) {
    BGPS_ASSIGN_OR_RETURN(uint32_t v, r.u32());
    return IpAddress::V4(v);
  }
  BGPS_ASSIGN_OR_RETURN(auto b, r.view(16));
  std::array<uint8_t, 16> arr{};
  std::copy(b.begin(), b.end(), arr.begin());
  return IpAddress::V6(arr);
}

}  // namespace

void EncodeNlriPrefix(BufWriter& w, const Prefix& p) {
  w.u8(uint8_t(p.length()));
  size_t nbytes = (size_t(p.length()) + 7) / 8;
  w.bytes(std::span<const uint8_t>(p.address().bytes().data(), nbytes));
}

Result<Prefix> DecodeNlriPrefix(BufReader& r, IpFamily family) {
  BGPS_ASSIGN_OR_RETURN(uint8_t len, r.u8());
  const int maxlen = family == IpFamily::V4 ? 32 : 128;
  if (len > maxlen) return CorruptError("NLRI length " + std::to_string(len));
  size_t nbytes = (size_t(len) + 7) / 8;
  // view, not bytes: NLRI runs decode once per prefix on the hot path,
  // and the copied-out form would be the last per-record allocation.
  BGPS_ASSIGN_OR_RETURN(auto b, r.view(nbytes));
  std::array<uint8_t, 16> arr{};
  std::copy(b.begin(), b.end(), arr.begin());
  IpAddress addr = family == IpFamily::V4
                       ? IpAddress::V4(arr[0], arr[1], arr[2], arr[3])
                       : IpAddress::V6(arr);
  return Prefix(addr, len);
}

Bytes EncodePathAttributes(const PathAttributes& attrs, AsnEncoding enc) {
  BufWriter w;

  {  // ORIGIN — well-known mandatory.
    BufWriter b;
    b.u8(uint8_t(attrs.origin));
    WriteAttr(w, kFlagTransitive, AttrType::Origin, b.take());
  }
  {  // AS_PATH — well-known mandatory.
    WriteAttr(w, kFlagTransitive, AttrType::AsPath,
              EncodeAsPathBody(attrs.as_path, enc));
  }
  if (attrs.next_hop) {
    BufWriter b;
    b.u32(attrs.next_hop->v4());
    WriteAttr(w, kFlagTransitive, AttrType::NextHop, b.take());
  }
  if (attrs.med) {
    BufWriter b;
    b.u32(*attrs.med);
    WriteAttr(w, kFlagOptional, AttrType::Med, b.take());
  }
  if (attrs.local_pref) {
    BufWriter b;
    b.u32(*attrs.local_pref);
    WriteAttr(w, kFlagTransitive, AttrType::LocalPref, b.take());
  }
  if (attrs.atomic_aggregate) {
    WriteAttr(w, kFlagTransitive, AttrType::AtomicAggregate, {});
  }
  if (attrs.aggregator) {
    BufWriter b;
    if (enc == AsnEncoding::FourByte) {
      b.u32(attrs.aggregator->asn);
    } else {
      b.u16(attrs.aggregator->asn > 0xFFFF ? uint16_t(23456)
                                           : uint16_t(attrs.aggregator->asn));
    }
    b.u32(attrs.aggregator->address.v4());
    WriteAttr(w, kFlagOptional | kFlagTransitive, AttrType::Aggregator,
              b.take());
  }
  if (!attrs.communities.empty()) {
    BufWriter b;
    for (Community c : attrs.communities) b.u32(c.raw());
    WriteAttr(w, kFlagOptional | kFlagTransitive, AttrType::Communities,
              b.take());
  }
  if (attrs.mp_reach) {
    BufWriter b;
    b.u16(attrs.mp_reach->afi);
    b.u8(attrs.mp_reach->safi);
    b.u8(uint8_t(attrs.mp_reach->next_hop.width() / 8));
    WriteIpBytes(b, attrs.mp_reach->next_hop);
    b.u8(0);  // reserved / SNPA count
    for (const auto& p : attrs.mp_reach->nlri) EncodeNlriPrefix(b, p);
    WriteAttr(w, kFlagOptional, AttrType::MpReachNlri, b.take());
  }
  if (attrs.mp_unreach) {
    BufWriter b;
    b.u16(attrs.mp_unreach->afi);
    b.u8(attrs.mp_unreach->safi);
    for (const auto& p : attrs.mp_unreach->withdrawn) EncodeNlriPrefix(b, p);
    WriteAttr(w, kFlagOptional, AttrType::MpUnreachNlri, b.take());
  }
  return w.take();
}

Status DecodePathAttributesInto(BufReader& r, size_t len, AsnEncoding enc,
                                PathAttributes* out) {
  BGPS_ASSIGN_OR_RETURN(BufReader block, r.sub(len));
  PathAttributes& attrs = *out;
  while (!block.empty()) {
    BGPS_ASSIGN_OR_RETURN(uint8_t flags, block.u8());
    BGPS_ASSIGN_OR_RETURN(uint8_t type, block.u8());
    size_t alen;
    if (flags & kFlagExtLen) {
      BGPS_ASSIGN_OR_RETURN(uint16_t l, block.u16());
      alen = l;
    } else {
      BGPS_ASSIGN_OR_RETURN(uint8_t l, block.u8());
      alen = l;
    }
    BGPS_ASSIGN_OR_RETURN(BufReader body, block.sub(alen));
    switch (AttrType(type)) {
      case AttrType::Origin: {
        BGPS_ASSIGN_OR_RETURN(uint8_t o, body.u8());
        if (o > 2) return CorruptError("bad ORIGIN " + std::to_string(o));
        attrs.origin = Origin(o);
        break;
      }
      case AttrType::AsPath: {
        // A repeated AS_PATH attribute replaces the earlier one.
        attrs.as_path.clear();
        BGPS_RETURN_IF_ERROR(DecodeAsPathBodyInto(body, enc, &attrs.as_path));
        break;
      }
      case AttrType::NextHop: {
        BGPS_ASSIGN_OR_RETURN(uint32_t v, body.u32());
        attrs.next_hop = IpAddress::V4(v);
        break;
      }
      case AttrType::Med: {
        BGPS_ASSIGN_OR_RETURN(uint32_t v, body.u32());
        attrs.med = v;
        break;
      }
      case AttrType::LocalPref: {
        BGPS_ASSIGN_OR_RETURN(uint32_t v, body.u32());
        attrs.local_pref = v;
        break;
      }
      case AttrType::AtomicAggregate:
        attrs.atomic_aggregate = true;
        break;
      case AttrType::Aggregator: {
        Aggregator agg;
        if (enc == AsnEncoding::FourByte) {
          BGPS_ASSIGN_OR_RETURN(agg.asn, body.u32());
        } else {
          BGPS_ASSIGN_OR_RETURN(uint16_t a, body.u16());
          agg.asn = a;
        }
        BGPS_ASSIGN_OR_RETURN(uint32_t ip, body.u32());
        agg.address = IpAddress::V4(ip);
        attrs.aggregator = agg;
        break;
      }
      case AttrType::Communities: {
        while (!body.empty()) {
          BGPS_ASSIGN_OR_RETURN(uint32_t raw, body.u32());
          attrs.communities.push_back(Community(raw));
        }
        break;
      }
      case AttrType::MpReachNlri: {
        MpReach& mp = attrs.mp_reach.emplace();
        BGPS_ASSIGN_OR_RETURN(mp.afi, body.u16());
        BGPS_ASSIGN_OR_RETURN(mp.safi, body.u8());
        BGPS_ASSIGN_OR_RETURN(uint8_t nhlen, body.u8());
        if (nhlen == 4) {
          BGPS_ASSIGN_OR_RETURN(mp.next_hop, ReadIpBytes(body, IpFamily::V4));
        } else if (nhlen == 16 || nhlen == 32) {
          BGPS_ASSIGN_OR_RETURN(mp.next_hop, ReadIpBytes(body, IpFamily::V6));
          // A 32-byte next hop carries global + link-local; skip link-local.
          if (nhlen == 32) BGPS_RETURN_IF_ERROR(body.skip(16));
        } else {
          return CorruptError("bad MP next-hop length " + std::to_string(nhlen));
        }
        BGPS_RETURN_IF_ERROR(body.skip(1));  // reserved
        IpFamily fam = mp.afi == kAfiIpv4 ? IpFamily::V4 : IpFamily::V6;
        while (!body.empty()) {
          BGPS_ASSIGN_OR_RETURN(Prefix p, DecodeNlriPrefix(body, fam));
          mp.nlri.push_back(p);
        }
        break;
      }
      case AttrType::MpUnreachNlri: {
        MpUnreach& mp = attrs.mp_unreach.emplace();
        BGPS_ASSIGN_OR_RETURN(mp.afi, body.u16());
        BGPS_ASSIGN_OR_RETURN(mp.safi, body.u8());
        IpFamily fam = mp.afi == kAfiIpv4 ? IpFamily::V4 : IpFamily::V6;
        while (!body.empty()) {
          BGPS_ASSIGN_OR_RETURN(Prefix p, DecodeNlriPrefix(body, fam));
          mp.withdrawn.push_back(p);
        }
        break;
      }
      default:
        // Unknown attribute: tolerated and skipped (BGP is extensible; the
        // paper notes not all attributes are exposed yet).
        break;
    }
  }
  return OkStatus();
}

Result<PathAttributes> DecodePathAttributes(BufReader& r, size_t len,
                                            AsnEncoding enc) {
  PathAttributes attrs;
  BGPS_RETURN_IF_ERROR(DecodePathAttributesInto(r, len, enc, &attrs));
  return attrs;
}

}  // namespace bgps::bgp
