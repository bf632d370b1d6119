// BGP UPDATE message encode/decode (RFC 4271 §4.3).
//
// A full BGP message: 16-byte marker, u16 length, u8 type, body. UPDATE
// bodies carry withdrawn IPv4 routes, path attributes (which may embed
// IPv6 reach/unreach via MP attributes) and announced IPv4 NLRI.
#pragma once

#include "bgp/attrs.hpp"

namespace bgps::bgp {

inline constexpr size_t kBgpHeaderSize = 19;
inline constexpr size_t kBgpMaxMessageSize = 4096;

struct UpdateMessage {
  PrefixVec withdrawn;                // IPv4 withdrawals
  PathAttributes attrs;               // may be empty for pure withdrawals
  PrefixVec announced;                // IPv4 NLRI

  bool operator==(const UpdateMessage&) const = default;
};

// Encodes a complete BGP message (header + body).
Bytes EncodeUpdate(const UpdateMessage& update, AsnEncoding enc);

// Decodes a complete BGP message into `*out` (default-constructed; its
// contents are unspecified on a non-OK status); requires type == UPDATE.
// `ctx`, when given, is forwarded to the attribute decoder (AS-path
// intern cache).
Status DecodeUpdateInto(BufReader& r, AsnEncoding enc, AttrDecodeCtx* ctx,
                        UpdateMessage* out);

// Value-returning form of DecodeUpdateInto.
Result<UpdateMessage> DecodeUpdate(BufReader& r, AsnEncoding enc,
                                   AttrDecodeCtx* ctx = nullptr);

// Reads and validates a BGP header, returning (type, body length).
Result<std::pair<MessageType, size_t>> DecodeBgpHeader(BufReader& r);

}  // namespace bgps::bgp
