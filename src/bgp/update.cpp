#include "bgp/update.hpp"

namespace bgps::bgp {

Bytes EncodeUpdate(const UpdateMessage& update, AsnEncoding enc) {
  BufWriter w;
  for (int i = 0; i < 16; ++i) w.u8(0xFF);  // marker (RFC 4271 §4.1)
  size_t len_at = w.size();
  w.u16(0);  // patched below
  w.u8(uint8_t(MessageType::Update));

  BufWriter wd;
  for (const auto& p : update.withdrawn) EncodeNlriPrefix(wd, p);
  Bytes wd_bytes = wd.take();
  w.u16(uint16_t(wd_bytes.size()));
  w.bytes(wd_bytes);

  Bytes attr_bytes;
  // A pure-withdrawal UPDATE may omit path attributes entirely.
  bool has_attrs = !update.announced.empty() || update.attrs.mp_reach ||
                   update.attrs.mp_unreach ||
                   !(update.attrs == PathAttributes{});
  if (has_attrs) attr_bytes = EncodePathAttributes(update.attrs, enc);
  w.u16(uint16_t(attr_bytes.size()));
  w.bytes(attr_bytes);

  for (const auto& p : update.announced) EncodeNlriPrefix(w, p);

  w.patch_u16(len_at, uint16_t(w.size()));
  return w.take();
}

Result<std::pair<MessageType, size_t>> DecodeBgpHeader(BufReader& r) {
  BGPS_ASSIGN_OR_RETURN(auto marker, r.view(16));
  for (uint8_t b : marker) {
    if (b != 0xFF) return CorruptError("bad BGP marker");
  }
  BGPS_ASSIGN_OR_RETURN(uint16_t len, r.u16());
  BGPS_ASSIGN_OR_RETURN(uint8_t type, r.u8());
  if (len < kBgpHeaderSize || len > kBgpMaxMessageSize)
    return CorruptError("bad BGP length " + std::to_string(len));
  if (type < 1 || type > 4)
    return CorruptError("bad BGP type " + std::to_string(type));
  return std::make_pair(MessageType(type), size_t(len) - kBgpHeaderSize);
}

Status DecodeUpdateInto(BufReader& r, AsnEncoding enc, UpdateMessage* out) {
  BGPS_ASSIGN_OR_RETURN(auto header, DecodeBgpHeader(r));
  auto [type, body_len] = header;
  if (type != MessageType::Update) return CorruptError("not an UPDATE");
  BGPS_ASSIGN_OR_RETURN(BufReader body, r.sub(body_len));

  BGPS_ASSIGN_OR_RETURN(uint16_t wd_len, body.u16());
  BGPS_ASSIGN_OR_RETURN(BufReader wd, body.sub(wd_len));
  while (!wd.empty()) {
    BGPS_ASSIGN_OR_RETURN(Prefix p, DecodeNlriPrefix(wd, IpFamily::V4));
    out->withdrawn.push_back(p);
  }

  BGPS_ASSIGN_OR_RETURN(uint16_t attr_len, body.u16());
  if (attr_len > 0) {
    BGPS_RETURN_IF_ERROR(
        DecodePathAttributesInto(body, attr_len, enc, &out->attrs));
  }

  while (!body.empty()) {
    BGPS_ASSIGN_OR_RETURN(Prefix p, DecodeNlriPrefix(body, IpFamily::V4));
    out->announced.push_back(p);
  }
  return OkStatus();
}

Result<UpdateMessage> DecodeUpdate(BufReader& r, AsnEncoding enc) {
  UpdateMessage update;
  BGPS_RETURN_IF_ERROR(DecodeUpdateInto(r, enc, &update));
  return update;
}

}  // namespace bgps::bgp
