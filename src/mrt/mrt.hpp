// MRT routing-information export format (RFC 6396).
//
// Implements the record types produced by RouteViews and RIPE RIS dumps,
// exactly the set libBGPdump handles for the paper:
//   TABLE_DUMP_V2 (13): PEER_INDEX_TABLE, RIB_IPV4_UNICAST, RIB_IPV6_UNICAST
//   BGP4MP (16):        STATE_CHANGE, MESSAGE, MESSAGE_AS4, STATE_CHANGE_AS4
//   BGP4MP_ET (17):     same subtypes with an extended (µs) timestamp
//
// Parsing is two-stage: a raw framing layer (header + body bytes) and a
// typed decode. The split lets the stream layer mark individual records
// Corrupt/Unsupported without losing framing (paper §3.3.3).
#pragma once

#include <variant>

#include "bgp/update.hpp"
#include "util/time.hpp"

namespace bgps::mrt {

enum class MrtType : uint16_t {
  TableDumpV2 = 13,
  Bgp4mp = 16,
  Bgp4mpEt = 17,
};

enum class TableDumpV2Subtype : uint16_t {
  PeerIndexTable = 1,
  RibIpv4Unicast = 2,
  RibIpv6Unicast = 4,
};

enum class Bgp4mpSubtype : uint16_t {
  StateChange = 0,
  Message = 1,
  MessageAs4 = 4,
  StateChangeAs4 = 5,
};

inline constexpr size_t kMrtHeaderSize = 12;

// Raw framed record: header fields + undecoded body.
//
// `body` is a zero-copy view into whatever buffer the record was framed
// from — the caller's Bytes for DecodeRawRecord, or MrtFileReader's
// reusable read buffer (valid only until its next Next() call). Framing
// a record no longer heap-allocates; decode the body (or copy it) before
// the backing buffer moves on.
struct RawRecord {
  Timestamp timestamp = 0;
  uint32_t microseconds = 0;  // only for BGP4MP_ET
  uint16_t type = 0;
  uint16_t subtype = 0;
  std::span<const uint8_t> body;
};

// --- Typed bodies -----------------------------------------------------------

struct PeerEntry {
  uint32_t bgp_id = 0;
  IpAddress address;
  bgp::Asn asn = 0;
};

// TABLE_DUMP_V2 PEER_INDEX_TABLE (RFC 6396 §4.3.1).
struct PeerIndexTable {
  uint32_t collector_bgp_id = 0;
  std::string view_name;
  std::vector<PeerEntry> peers;
};

// One route in a RIB record (RFC 6396 §4.3.4). Attributes always use
// 4-byte ASNs in TABLE_DUMP_V2.
struct RibEntry {
  uint16_t peer_index = 0;
  Timestamp originated_time = 0;
  bgp::PathAttributes attrs;
};

// TABLE_DUMP_V2 RIB_IPV4_UNICAST / RIB_IPV6_UNICAST (RFC 6396 §4.3.2).
struct RibPrefix {
  uint32_t sequence = 0;
  Prefix prefix;
  std::vector<RibEntry> entries;
};

// BGP4MP_MESSAGE / _AS4 (RFC 6396 §4.4.2): a BGP message between the VP
// ("peer") and the collector ("local").
struct Bgp4mpMessage {
  bgp::Asn peer_asn = 0;
  bgp::Asn local_asn = 0;
  uint16_t interface_index = 0;
  IpAddress peer_address;
  IpAddress local_address;
  // Only UPDATE messages carry routing data; others are kept as type only.
  bgp::MessageType message_type = bgp::MessageType::Update;
  bgp::UpdateMessage update;  // valid when message_type == Update
};

// BGP4MP_STATE_CHANGE / _AS4 (RFC 6396 §4.4.1).
struct Bgp4mpStateChange {
  bgp::Asn peer_asn = 0;
  bgp::Asn local_asn = 0;
  uint16_t interface_index = 0;
  IpAddress peer_address;
  IpAddress local_address;
  bgp::FsmState old_state = bgp::FsmState::Unknown;
  bgp::FsmState new_state = bgp::FsmState::Unknown;
};

using MrtBody =
    std::variant<PeerIndexTable, RibPrefix, Bgp4mpMessage, Bgp4mpStateChange>;

struct MrtMessage {
  Timestamp timestamp = 0;
  uint32_t microseconds = 0;
  MrtBody body;

  bool is_peer_index() const {
    return std::holds_alternative<PeerIndexTable>(body);
  }
  bool is_rib() const { return std::holds_alternative<RibPrefix>(body); }
  bool is_message() const { return std::holds_alternative<Bgp4mpMessage>(body); }
  bool is_state_change() const {
    return std::holds_alternative<Bgp4mpStateChange>(body);
  }
};

// --- Decode -----------------------------------------------------------------

// Frames one record out of `r` (which may hold many concatenated records).
Result<RawRecord> DecodeRawRecord(BufReader& r);

// Decodes the body of a framed record straight into `*out`: emplaces the
// body alternative the (type, subtype) selects and decodes into it.
// Unknown (type, subtype) pairs yield StatusCode::Unsupported; malformed
// bodies yield Corrupt. `*out` must be default-constructed; on a non-OK
// status its contents are unspecified and the caller resets it.
Status DecodeRecordInto(const RawRecord& raw, MrtMessage* out);

// Value-returning form of DecodeRecordInto (tests, tools, benches; the
// stream path decodes in place through core::DumpReader).
Result<MrtMessage> DecodeRecord(const RawRecord& raw);

// The write side (TABLE_DUMP_V2 + BGP4MP encoders, both ASN encodings)
// lives in mrt/encode.hpp.

}  // namespace bgps::mrt
