#include "mrt/mrt.hpp"

#include <algorithm>

namespace bgps::mrt {
namespace {

constexpr uint8_t kPeerTypeIpv6 = 0x01;
constexpr uint8_t kPeerTypeAs4 = 0x02;

Result<IpAddress> ReadIp(BufReader& r, IpFamily family) {
  if (family == IpFamily::V4) {
    BGPS_ASSIGN_OR_RETURN(uint32_t v, r.u32());
    return IpAddress::V4(v);
  }
  BGPS_ASSIGN_OR_RETURN(auto b, r.view(16));
  std::array<uint8_t, 16> arr{};
  std::copy(b.begin(), b.end(), arr.begin());
  return IpAddress::V6(arr);
}

Result<IpFamily> FamilyFromAfi(uint16_t afi) {
  if (afi == bgp::kAfiIpv4) return IpFamily::V4;
  if (afi == bgp::kAfiIpv6) return IpFamily::V6;
  return CorruptError("bad AFI " + std::to_string(afi));
}

Status DecodePeerIndexTableInto(BufReader& r, PeerIndexTable* pit) {
  BGPS_ASSIGN_OR_RETURN(pit->collector_bgp_id, r.u32());
  BGPS_ASSIGN_OR_RETURN(uint16_t name_len, r.u16());
  BGPS_ASSIGN_OR_RETURN(pit->view_name, r.str(name_len));
  BGPS_ASSIGN_OR_RETURN(uint16_t count, r.u16());
  pit->peers.reserve(count);
  for (int i = 0; i < count; ++i) {
    BGPS_ASSIGN_OR_RETURN(uint8_t type, r.u8());
    PeerEntry& pe = pit->peers.emplace_back();
    BGPS_ASSIGN_OR_RETURN(pe.bgp_id, r.u32());
    IpFamily fam = (type & kPeerTypeIpv6) ? IpFamily::V6 : IpFamily::V4;
    BGPS_ASSIGN_OR_RETURN(pe.address, ReadIp(r, fam));
    if (type & kPeerTypeAs4) {
      BGPS_ASSIGN_OR_RETURN(pe.asn, r.u32());
    } else {
      BGPS_ASSIGN_OR_RETURN(uint16_t a, r.u16());
      pe.asn = a;
    }
  }
  return OkStatus();
}

// Entries are emplaced and their attributes decoded in place: a RIB
// record's PathAttributes are never built elsewhere and moved in.
Status DecodeRibPrefixInto(BufReader& r, IpFamily family,
                           bgp::AttrDecodeCtx* ctx, RibPrefix* rib) {
  BGPS_ASSIGN_OR_RETURN(rib->sequence, r.u32());
  BGPS_ASSIGN_OR_RETURN(rib->prefix, bgp::DecodeNlriPrefix(r, family));
  BGPS_ASSIGN_OR_RETURN(uint16_t count, r.u16());
  rib->entries.reserve(count);
  for (int i = 0; i < count; ++i) {
    RibEntry& e = rib->entries.emplace_back();
    BGPS_ASSIGN_OR_RETURN(e.peer_index, r.u16());
    BGPS_ASSIGN_OR_RETURN(uint32_t otime, r.u32());
    e.originated_time = otime;
    BGPS_ASSIGN_OR_RETURN(uint16_t attr_len, r.u16());
    BGPS_RETURN_IF_ERROR(bgp::DecodePathAttributesInto(
        r, attr_len, bgp::AsnEncoding::FourByte, ctx, &e.attrs));
  }
  return OkStatus();
}

Status DecodeBgp4mpMessageInto(BufReader& r, bool as4, bgp::AttrDecodeCtx* ctx,
                               Bgp4mpMessage* msg) {
  if (as4) {
    BGPS_ASSIGN_OR_RETURN(msg->peer_asn, r.u32());
    BGPS_ASSIGN_OR_RETURN(msg->local_asn, r.u32());
  } else {
    BGPS_ASSIGN_OR_RETURN(uint16_t pa, r.u16());
    BGPS_ASSIGN_OR_RETURN(uint16_t la, r.u16());
    msg->peer_asn = pa;
    msg->local_asn = la;
  }
  BGPS_ASSIGN_OR_RETURN(msg->interface_index, r.u16());
  BGPS_ASSIGN_OR_RETURN(uint16_t afi, r.u16());
  BGPS_ASSIGN_OR_RETURN(IpFamily fam, FamilyFromAfi(afi));
  BGPS_ASSIGN_OR_RETURN(msg->peer_address, ReadIp(r, fam));
  BGPS_ASSIGN_OR_RETURN(msg->local_address, ReadIp(r, fam));
  // Peek the BGP header to learn the message type before full decode.
  {
    BufReader peek = r;
    BGPS_ASSIGN_OR_RETURN(auto hdr, bgp::DecodeBgpHeader(peek));
    msg->message_type = hdr.first;
  }
  if (msg->message_type == bgp::MessageType::Update) {
    BGPS_RETURN_IF_ERROR(bgp::DecodeUpdateInto(
        r, as4 ? bgp::AsnEncoding::FourByte : bgp::AsnEncoding::TwoByte, ctx,
        &msg->update));
  }
  return OkStatus();
}

Status DecodeBgp4mpStateChangeInto(BufReader& r, bool as4,
                                   Bgp4mpStateChange* sc) {
  if (as4) {
    BGPS_ASSIGN_OR_RETURN(sc->peer_asn, r.u32());
    BGPS_ASSIGN_OR_RETURN(sc->local_asn, r.u32());
  } else {
    BGPS_ASSIGN_OR_RETURN(uint16_t pa, r.u16());
    BGPS_ASSIGN_OR_RETURN(uint16_t la, r.u16());
    sc->peer_asn = pa;
    sc->local_asn = la;
  }
  BGPS_ASSIGN_OR_RETURN(sc->interface_index, r.u16());
  BGPS_ASSIGN_OR_RETURN(uint16_t afi, r.u16());
  BGPS_ASSIGN_OR_RETURN(IpFamily fam, FamilyFromAfi(afi));
  BGPS_ASSIGN_OR_RETURN(sc->peer_address, ReadIp(r, fam));
  BGPS_ASSIGN_OR_RETURN(sc->local_address, ReadIp(r, fam));
  BGPS_ASSIGN_OR_RETURN(uint16_t old_s, r.u16());
  BGPS_ASSIGN_OR_RETURN(uint16_t new_s, r.u16());
  if (old_s > 6 || new_s > 6) return CorruptError("bad FSM state code");
  sc->old_state = bgp::FsmState(old_s);
  sc->new_state = bgp::FsmState(new_s);
  return OkStatus();
}

}  // namespace

Result<RawRecord> DecodeRawRecord(BufReader& r) {
  if (r.empty()) return EndOfStream();
  RawRecord raw;
  BGPS_ASSIGN_OR_RETURN(uint32_t ts, r.u32());
  raw.timestamp = ts;
  BGPS_ASSIGN_OR_RETURN(raw.type, r.u16());
  BGPS_ASSIGN_OR_RETURN(raw.subtype, r.u16());
  BGPS_ASSIGN_OR_RETURN(uint32_t len, r.u32());
  // Zero-copy: the body is a view into the caller's buffer, which
  // outlives the record in every framing path (see RawRecord).
  BGPS_ASSIGN_OR_RETURN(raw.body, r.view(len));
  if (raw.type == uint16_t(MrtType::Bgp4mpEt)) {
    // Extended timestamp: first 4 body bytes are microseconds.
    BufReader br(raw.body);
    BGPS_ASSIGN_OR_RETURN(raw.microseconds, br.u32());
    raw.body = raw.body.subspan(4);
  }
  return raw;
}

Status DecodeRecordInto(const RawRecord& raw, bgp::AttrDecodeCtx* ctx,
                        MrtMessage* out) {
  out->timestamp = raw.timestamp;
  out->microseconds = raw.microseconds;
  BufReader r(raw.body);

  if (raw.type == uint16_t(MrtType::TableDumpV2)) {
    switch (TableDumpV2Subtype(raw.subtype)) {
      case TableDumpV2Subtype::PeerIndexTable:
        return DecodePeerIndexTableInto(
            r, &out->body.emplace<PeerIndexTable>());
      case TableDumpV2Subtype::RibIpv4Unicast:
        return DecodeRibPrefixInto(r, IpFamily::V4, ctx,
                                   &out->body.emplace<RibPrefix>());
      case TableDumpV2Subtype::RibIpv6Unicast:
        return DecodeRibPrefixInto(r, IpFamily::V6, ctx,
                                   &out->body.emplace<RibPrefix>());
    }
    return UnsupportedError("TABLE_DUMP_V2 subtype " +
                            std::to_string(raw.subtype));
  }

  if (raw.type == uint16_t(MrtType::Bgp4mp) ||
      raw.type == uint16_t(MrtType::Bgp4mpEt)) {
    switch (Bgp4mpSubtype(raw.subtype)) {
      case Bgp4mpSubtype::Message:
      case Bgp4mpSubtype::MessageAs4: {
        bool as4 = Bgp4mpSubtype(raw.subtype) == Bgp4mpSubtype::MessageAs4;
        return DecodeBgp4mpMessageInto(r, as4, ctx,
                                       &out->body.emplace<Bgp4mpMessage>());
      }
      case Bgp4mpSubtype::StateChange:
      case Bgp4mpSubtype::StateChangeAs4: {
        bool as4 =
            Bgp4mpSubtype(raw.subtype) == Bgp4mpSubtype::StateChangeAs4;
        return DecodeBgp4mpStateChangeInto(
            r, as4, &out->body.emplace<Bgp4mpStateChange>());
      }
    }
    return UnsupportedError("BGP4MP subtype " + std::to_string(raw.subtype));
  }

  return UnsupportedError("MRT type " + std::to_string(raw.type));
}

Result<MrtMessage> DecodeRecord(const RawRecord& raw, bgp::AttrDecodeCtx* ctx) {
  MrtMessage msg;
  BGPS_RETURN_IF_ERROR(DecodeRecordInto(raw, ctx, &msg));
  return msg;
}

}  // namespace bgps::mrt
