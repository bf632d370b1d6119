// Golden decode pin and MRT mutation fuzz through DumpReader.
//
// Every other decode oracle in the suite (sync ≡ prefetch ≡ pool ≡
// shard ≡ fan-out ≡ live) compares two pipelines that share one MRT
// decoder, so a decode error that both sides make identically passes
// all of them. These tests pin the decoder itself:
//
//  * GoldenDecode.* decode fixed-seed corpora through DumpReader +
//    ExtractElems and compare one fingerprint over every record field
//    (all path attributes included) and every elem against a constant.
//    A change to the decode kernel must reproduce the constants
//    unchanged; a change that means to alter decoded output must say so
//    by updating them.
//  * MrtFuzz.* apply seeded byte flips, truncations and corrupted
//    length fields to PEER_INDEX_TABLE, RIB_IPV4/IPV6 and BGP4MP frames
//    and check the DumpReader contract on each mutant: no crash, the
//    Valid/Unsupported/CorruptedRecord/CorruptedDump mapping, default
//    `msg` on failed records, and checkpoint resume from every record.
//    The outcome of the whole run is pinned by a fingerprint as well.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <random>

#include "broker/archive.hpp"
#include "core/dump_reader.hpp"
#include "core/elem.hpp"
#include "mrt/encode.hpp"
#include "sim/corpus.hpp"

namespace bgps::core {
namespace {

namespace fs = std::filesystem;

// --- fingerprinting ---------------------------------------------------------

// Order-sensitive FNV-1a over every decoded field.
class Fnv {
 public:
  void Raw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void U(uint64_t v) { Raw(&v, sizeof v); }
  void S(const std::string& s) {
    U(s.size());
    Raw(s.data(), s.size());
  }
  void Ip(const IpAddress& a) { S(a.ToString()); }
  void Pfx(const Prefix& p) { S(p.ToString()); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

void HashPrefixes(Fnv& f, const bgp::PrefixVec& v) {
  f.U(v.size());
  for (const auto& p : v) f.Pfx(p);
}

void HashAsPath(Fnv& f, const bgp::AsPath& path) {
  f.U(path.segments().size());
  for (const auto& seg : path.segments()) {
    f.U(uint64_t(seg.type));
    f.U(seg.asns.size());
    for (bgp::Asn a : seg.asns) f.U(a);
  }
}

void HashAttrs(Fnv& f, const bgp::PathAttributes& a) {
  f.U(uint64_t(a.origin));
  HashAsPath(f, a.as_path);
  f.U(a.next_hop.has_value());
  if (a.next_hop) f.Ip(*a.next_hop);
  f.U(a.med.has_value() ? uint64_t(*a.med) + 1 : 0);
  f.U(a.local_pref.has_value() ? uint64_t(*a.local_pref) + 1 : 0);
  f.U(a.atomic_aggregate);
  f.U(a.aggregator.has_value());
  if (a.aggregator) {
    f.U(a.aggregator->asn);
    f.Ip(a.aggregator->address);
  }
  f.U(a.communities.size());
  for (bgp::Community c : a.communities) f.U(c.raw());
  f.U(a.mp_reach.has_value());
  if (a.mp_reach) {
    f.U(a.mp_reach->afi);
    f.U(a.mp_reach->safi);
    f.Ip(a.mp_reach->next_hop);
    HashPrefixes(f, a.mp_reach->nlri);
  }
  f.U(a.mp_unreach.has_value());
  if (a.mp_unreach) {
    f.U(a.mp_unreach->afi);
    f.U(a.mp_unreach->safi);
    HashPrefixes(f, a.mp_unreach->withdrawn);
  }
}

void HashPeerIndex(Fnv& f, const mrt::PeerIndexTable& pit) {
  f.U(pit.collector_bgp_id);
  f.S(pit.view_name);
  f.U(pit.peers.size());
  for (const auto& p : pit.peers) {
    f.U(p.bgp_id);
    f.Ip(p.address);
    f.U(p.asn);
  }
}

void HashMsg(Fnv& f, const mrt::MrtMessage& m) {
  f.U(m.timestamp);
  f.U(m.microseconds);
  f.U(m.body.index());
  if (const auto* pit = std::get_if<mrt::PeerIndexTable>(&m.body)) {
    HashPeerIndex(f, *pit);
  } else if (const auto* rib = std::get_if<mrt::RibPrefix>(&m.body)) {
    f.U(rib->sequence);
    f.Pfx(rib->prefix);
    f.U(rib->entries.size());
    for (const auto& e : rib->entries) {
      f.U(e.peer_index);
      f.U(e.originated_time);
      HashAttrs(f, e.attrs);
    }
  } else if (const auto* msg = std::get_if<mrt::Bgp4mpMessage>(&m.body)) {
    f.U(msg->peer_asn);
    f.U(msg->local_asn);
    f.U(msg->interface_index);
    f.Ip(msg->peer_address);
    f.Ip(msg->local_address);
    f.U(uint64_t(msg->message_type));
    HashPrefixes(f, msg->update.withdrawn);
    HashAttrs(f, msg->update.attrs);
    HashPrefixes(f, msg->update.announced);
  } else {
    const auto& sc = std::get<mrt::Bgp4mpStateChange>(m.body);
    f.U(sc.peer_asn);
    f.U(sc.local_asn);
    f.U(sc.interface_index);
    f.Ip(sc.peer_address);
    f.Ip(sc.local_address);
    f.U(uint64_t(sc.old_state));
    f.U(uint64_t(sc.new_state));
  }
}

void HashRecord(Fnv& f, const Record& r) {
  f.S(r.project);
  f.S(r.collector);
  f.U(uint64_t(r.dump_type));
  f.U(r.dump_time);
  f.U(uint64_t(r.status));
  f.U(uint64_t(r.position));
  f.U(r.timestamp);
  HashMsg(f, r.msg);
  f.U(r.peer_index != nullptr);
  if (r.peer_index) HashPeerIndex(f, *r.peer_index);
}

void HashElem(Fnv& f, const Elem& e) {
  f.U(uint64_t(e.type));
  f.U(e.time);
  f.Ip(e.peer_address);
  f.U(e.peer_asn);
  f.Pfx(e.prefix);
  f.Ip(e.next_hop);
  HashAsPath(f, e.as_path);
  f.U(e.communities.size());
  for (bgp::Community c : e.communities) f.U(c.raw());
  f.U(uint64_t(e.old_state));
  f.U(uint64_t(e.new_state));
}

uint64_t RecordHash(const Record& r) {
  Fnv f;
  HashRecord(f, r);
  return f.value();
}

// --- archive helpers --------------------------------------------------------

Bytes ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            std::streamsize(data.size()));
}

// One MRT frame inside a file image.
struct Frame {
  size_t offset = 0;  // of the 12-byte header
  uint16_t type = 0;
  uint16_t subtype = 0;
  size_t body_len = 0;  // header length field (ET microseconds included)
};

// Splits a well-formed file image into its frames.
std::vector<Frame> Frames(const Bytes& file) {
  std::vector<Frame> out;
  BufReader r(file);
  while (!r.empty()) {
    Frame fr;
    fr.offset = r.position();
    auto raw = mrt::DecodeRawRecord(r);
    EXPECT_TRUE(raw.ok());
    if (!raw.ok()) break;
    fr.type = raw->type;
    fr.subtype = raw->subtype;
    fr.body_len = r.position() - fr.offset - mrt::kMrtHeaderSize;
    out.push_back(fr);
  }
  return out;
}

// Re-frames every `every`-th BGP4MP record as BGP4MP_ET (RFC 6396 §3):
// type 17, the body prefixed by a u32 microsecond field. The generators
// write only plain BGP4MP, and the extended-timestamp framing has to be
// covered by the pin too.
Bytes WithExtendedTimestamps(const Bytes& file, size_t every) {
  BufWriter w;
  size_t nth = 0;
  for (const Frame& fr : Frames(file)) {
    const uint8_t* hdr = file.data() + fr.offset;
    std::span<const uint8_t> body(hdr + mrt::kMrtHeaderSize, fr.body_len);
    if (fr.type == uint16_t(mrt::MrtType::Bgp4mp) && nth++ % every == 0) {
      w.bytes(std::span<const uint8_t>(hdr, 4));  // timestamp
      w.u16(uint16_t(mrt::MrtType::Bgp4mpEt));
      w.u16(fr.subtype);
      w.u32(uint32_t(fr.body_len + 4));
      w.u32(uint32_t((nth * 7919) % 1000000));
      w.bytes(body);
    } else {
      w.bytes(std::span<const uint8_t>(hdr, mrt::kMrtHeaderSize + fr.body_len));
    }
  }
  return w.take();
}

struct ArchiveDigest {
  uint64_t fingerprint = 0;
  size_t records = 0;
  size_t elems = 0;
  size_t invalid = 0;
  size_t v6_reach = 0;    // records carrying an IPv6 MP_REACH_NLRI
  size_t v6_unreach = 0;  // records carrying an IPv6 MP_UNREACH_NLRI
  size_t state_changes = 0;
  size_t microsecond_records = 0;
  std::map<std::pair<uint16_t, uint16_t>, size_t> frame_kinds;
};

void NoteMpAttrs(const bgp::PathAttributes& a, ArchiveDigest& d) {
  if (a.mp_reach && a.mp_reach->afi == bgp::kAfiIpv6 &&
      !a.mp_reach->nlri.empty())
    ++d.v6_reach;
  if (a.mp_unreach && a.mp_unreach->afi == bgp::kAfiIpv6) ++d.v6_unreach;
}

// Streams every file of the archive (in index order) through DumpReader
// and ExtractElems into one fingerprint.
ArchiveDigest DigestArchive(const std::string& root) {
  broker::ArchiveIndex index(root);
  EXPECT_TRUE(index.Rescan().ok());
  ArchiveDigest d;
  Fnv f;
  for (const auto& meta : index.files()) {
    for (const Frame& fr : Frames(ReadFile(meta.path)))
      ++d.frame_kinds[{fr.type, fr.subtype}];
    f.S(fs::path(meta.path).lexically_relative(root).string());
    DumpReader reader(meta);
    while (auto rec = reader.Next()) {
      HashRecord(f, *rec);
      ++d.records;
      if (rec->status != RecordStatus::Valid) ++d.invalid;
      if (rec->msg.microseconds != 0) ++d.microsecond_records;
      if (rec->msg.is_state_change()) ++d.state_changes;
      if (const auto* m = std::get_if<mrt::Bgp4mpMessage>(&rec->msg.body))
        NoteMpAttrs(m->update.attrs, d);
      for (const Elem& e : ExtractElems(*rec)) {
        HashElem(f, e);
        ++d.elems;
      }
    }
  }
  d.fingerprint = f.value();
  return d;
}

std::string TempRoot(const std::string& tag) {
  return (fs::temp_directory_path() /
          ("bgps_decode_golden_" + tag + "_" + std::to_string(::getpid())))
      .string();
}

constexpr std::pair<uint16_t, uint16_t> Kind(mrt::MrtType t, uint16_t sub) {
  return {uint16_t(t), sub};
}

// --- golden pins ------------------------------------------------------------

// Captured before the in-place decode kernel existed; every decode
// change since must reproduce them bit for bit.
constexpr uint64_t kSyntheticRibFingerprint = 7288904967977787709ull;
constexpr uint64_t kMixedCorpusFingerprint = 10788756588967382011ull;
constexpr uint64_t kFuzzOutcomeFingerprint = 9490863382588237843ull;

TEST(GoldenDecode, SyntheticRibArchive) {
  std::string root = TempRoot("rib");
  sim::SyntheticRibOptions opt;
  opt.prefixes = 4000;
  opt.vps = 5;
  opt.update_windows = 2;
  opt.churn_fraction = 0.05;
  opt.final_rib = true;
  opt.seed = 13;
  auto stats = sim::GenerateSyntheticRib(opt, root);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  ArchiveDigest d = DigestArchive(root);
  EXPECT_GT(d.frame_kinds[Kind(mrt::MrtType::TableDumpV2, 1)], 0u);
  EXPECT_GE(d.frame_kinds[Kind(mrt::MrtType::TableDumpV2, 2)], opt.prefixes);
  EXPECT_EQ(d.invalid, 0u);
  EXPECT_GE(d.elems, stats->rib_entries);
  EXPECT_EQ(d.fingerprint, kSyntheticRibFingerprint)
      << "records=" << d.records << " elems=" << d.elems;
  std::error_code ec;
  fs::remove_all(root, ec);
}

TEST(GoldenDecode, MixedCorpusWithTwoByteAsAndExtendedTimestamps) {
  std::string root = TempRoot("mixed");
  sim::CorpusOptions opt;
  opt.scenario = "mixed";
  opt.duration = 3600;
  opt.flaps_per_hour = 1200;
  opt.asn_encoding = bgp::AsnEncoding::TwoByte;
  opt.seed = 17;
  auto stats = sim::GenerateCorpus(opt, root);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  broker::ArchiveIndex index(root);
  ASSERT_TRUE(index.Rescan().ok());
  for (const auto& meta : index.files()) {
    if (meta.type != broker::DumpType::Updates) continue;
    WriteFile(meta.path, WithExtendedTimestamps(ReadFile(meta.path), 3));
  }

  ArchiveDigest d = DigestArchive(root);
  using mrt::MrtType;
  // The corpus must exercise every decode path the pin claims to cover.
  EXPECT_GT(d.frame_kinds[Kind(MrtType::TableDumpV2, 2)], 0u);
  EXPECT_GT(d.frame_kinds[Kind(MrtType::TableDumpV2, 4)], 0u);
  EXPECT_GT(d.frame_kinds[Kind(MrtType::Bgp4mp, 1)], 0u);    // MESSAGE
  EXPECT_GT(d.frame_kinds[Kind(MrtType::Bgp4mpEt, 1)], 0u);  // ET MESSAGE
  EXPECT_GT(d.frame_kinds[Kind(MrtType::Bgp4mp, 0)] +
                d.frame_kinds[Kind(MrtType::Bgp4mpEt, 0)],
            0u);  // STATE_CHANGE (2-byte AS)
  EXPECT_EQ(d.frame_kinds[Kind(MrtType::Bgp4mp, 4)], 0u);  // no AS4 forms
  EXPECT_GT(d.state_changes, 0u);
  EXPECT_GT(d.microsecond_records, 0u);
  EXPECT_GT(d.v6_reach, 0u);
  EXPECT_GT(d.v6_unreach, 0u);
  EXPECT_EQ(d.invalid, 0u);
  EXPECT_EQ(d.fingerprint, kMixedCorpusFingerprint)
      << "records=" << d.records << " elems=" << d.elems;
  std::error_code ec;
  fs::remove_all(root, ec);
}

// --- mutation fuzz ----------------------------------------------------------

bgp::PathAttributes FuzzAttrs(int i) {
  bgp::PathAttributes a;
  a.origin = bgp::Origin(i % 3);
  a.as_path = bgp::AsPath::Sequence({65000u + i, 3356, 4200000000u + i});
  if (i % 2) {
    a.as_path.append_segment(
        {bgp::SegmentType::AsSet, {64512u + i, 64513u + i}});
  }
  a.next_hop = IpAddress::V4(10, 0, uint8_t(i), 1);
  if (i % 3 == 0) a.med = 100 + i;
  if (i % 3 == 1) a.local_pref = 200 + i;
  a.atomic_aggregate = i % 4 == 0;
  if (i % 2 == 0)
    a.aggregator =
        bgp::Aggregator{65100u + i, IpAddress::V4(192, 0, 2, uint8_t(i))};
  for (int c = 0; c <= i % 5; ++c)
    a.communities.push_back(bgp::Community(3356, uint16_t(100 + c)));
  return a;
}

IpAddress V6(uint16_t a, uint16_t b) {
  std::array<uint8_t, 16> bytes{};
  bytes[0] = 0x20;
  bytes[1] = 0x01;
  bytes[2] = 0x0d;
  bytes[3] = 0xb8;
  bytes[4] = uint8_t(a >> 8);
  bytes[5] = uint8_t(a);
  bytes[14] = uint8_t(b >> 8);
  bytes[15] = uint8_t(b);
  return IpAddress::V6(bytes);
}

// A small TABLE_DUMP_V2 file: a peer index (IPv4/IPv6, 2- and 4-byte AS
// peers) followed by alternating RIB_IPV4 / RIB_IPV6 records of one to
// three entries each.
Bytes FuzzRibFile() {
  constexpr Timestamp kTs = 1458000000;
  BufWriter w;
  mrt::PeerIndexTable pit;
  pit.collector_bgp_id = 0xC0000201;
  pit.view_name = "fuzz";
  pit.peers.push_back({1, IpAddress::V4(10, 0, 0, 1), 65001});
  pit.peers.push_back({2, V6(1, 2), 4200000002});
  pit.peers.push_back({3, IpAddress::V4(10, 0, 0, 3), 3356});
  w.bytes(mrt::EncodePeerIndexTable(kTs, pit));
  for (int i = 0; i < 8; ++i) {
    mrt::RibPrefix rib;
    rib.sequence = uint32_t(i);
    bool v6 = i % 2 == 1;
    rib.prefix = v6 ? Prefix(V6(uint16_t(i), 0), 48)
                    : Prefix(IpAddress::V4(11, uint8_t(i), 0, 0), 16 + i);
    for (int e = 0; e <= i % 3; ++e) {
      mrt::RibEntry entry;
      entry.peer_index = uint16_t(e);
      entry.originated_time = kTs - 60 * (i + e);
      entry.attrs = FuzzAttrs(i + e);
      if (v6) {
        entry.attrs.next_hop.reset();
        entry.attrs.mp_reach = bgp::MpReach{};
        entry.attrs.mp_reach->next_hop = V6(uint16_t(e), 1);
      }
      rib.entries.push_back(std::move(entry));
    }
    w.bytes(mrt::EncodeRibPrefix(kTs, rib, v6 ? IpFamily::V6 : IpFamily::V4));
  }
  return w.take();
}

// A small BGP4MP file: AS4 and 2-byte-AS updates (IPv4 announce and
// withdraw, IPv6 MP_REACH / MP_UNREACH, IPv6 sessions), state changes in
// both encodings, and every third BGP4MP frame re-framed as BGP4MP_ET.
Bytes FuzzUpdatesFile() {
  constexpr Timestamp kTs = 1458000000;
  BufWriter w;
  for (int i = 0; i < 10; ++i) {
    auto enc = i % 2 ? bgp::AsnEncoding::TwoByte : bgp::AsnEncoding::FourByte;
    bool v6_session = i % 4 == 3;
    IpAddress peer =
        v6_session ? V6(9, uint16_t(i)) : IpAddress::V4(10, 0, 0, uint8_t(i));
    IpAddress local = v6_session ? V6(9, 0xffff) : IpAddress::V4(192, 0, 2, 1);
    if (i % 5 == 4) {
      mrt::Bgp4mpStateChange sc;
      sc.peer_asn = 65001;
      sc.local_asn = 64512;
      sc.peer_address = peer;
      sc.local_address = local;
      sc.old_state = bgp::FsmState(1 + i % 6);
      sc.new_state = bgp::FsmState(6 - i % 6);
      w.bytes(mrt::EncodeBgp4mpStateChange(kTs + i, sc, enc));
      continue;
    }
    mrt::Bgp4mpMessage m;
    m.peer_asn = 65001;
    m.local_asn = 64512;
    m.interface_index = uint16_t(i);
    m.peer_address = peer;
    m.local_address = local;
    if (i % 3 == 2) {
      m.update.withdrawn.push_back(
          Prefix(IpAddress::V4(12, uint8_t(i), 0, 0), 16));
      m.update.attrs.mp_unreach = bgp::MpUnreach{};
      m.update.attrs.mp_unreach->withdrawn.push_back(
          Prefix(V6(uint16_t(i), 0), 32));
    } else {
      m.update.attrs = FuzzAttrs(i);
      m.update.announced.push_back(
          Prefix(IpAddress::V4(13, uint8_t(i), 0, 0), 16));
      m.update.announced.push_back(
          Prefix(IpAddress::V4(14, uint8_t(i), 1, 0), 24));
      m.update.attrs.mp_reach = bgp::MpReach{};
      m.update.attrs.mp_reach->next_hop = V6(7, uint16_t(i));
      m.update.attrs.mp_reach->nlri.push_back(Prefix(V6(uint16_t(i), 1), 48));
    }
    w.bytes(mrt::EncodeBgp4mpUpdate(kTs + i, m, enc));
  }
  return WithExtendedTimestamps(w.take(), 3);
}

// Offsets of length fields inside one well-formed frame: the MRT length,
// then the body's own length/count fields for the frame's type. The walk
// mirrors RFC 6396 / RFC 4271 layouts for the frames built above.
std::vector<std::pair<size_t, int>> LengthFields(const Bytes& file,
                                                 const Frame& fr) {
  std::vector<std::pair<size_t, int>> out;  // (offset, width in bytes)
  out.push_back({fr.offset + 8, 4});
  size_t b = fr.offset + mrt::kMrtHeaderSize;
  auto u16 = [&](size_t at) { return size_t(file[at]) << 8 | file[at + 1]; };
  if (fr.type == uint16_t(mrt::MrtType::TableDumpV2)) {
    if (fr.subtype == 1) {
      out.push_back({b + 4, 2});  // view name length
      out.push_back({b + 6 + u16(b + 4), 2});  // peer count
      return out;
    }
    size_t nbytes = (size_t(file[b + 4]) + 7) / 8;
    out.push_back({b + 4, 1});  // prefix length
    size_t count_at = b + 5 + nbytes;
    out.push_back({count_at, 2});  // entry count
    size_t attr_len_at = count_at + 2 + 2 + 4;
    out.push_back({attr_len_at, 2});  // first entry's attribute length
    out.push_back({attr_len_at + 2 + 2, 1});  // first attribute's length
    return out;
  }
  if (fr.type == uint16_t(mrt::MrtType::Bgp4mpEt)) b += 4;
  bool as4 = fr.subtype == 4 || fr.subtype == 5;
  size_t afi_at = b + (as4 ? 8 : 4) + 2;
  size_t ip_width = u16(afi_at) == bgp::kAfiIpv6 ? 16 : 4;
  size_t bgp_at = afi_at + 2 + 2 * ip_width;
  if (fr.subtype == 0 || fr.subtype == 5) {
    out.push_back({afi_at, 2});  // AFI selects the address widths
    return out;
  }
  out.push_back({bgp_at + 16, 2});  // BGP message length
  size_t wd_at = bgp_at + bgp::kBgpHeaderSize;
  out.push_back({wd_at, 2});  // withdrawn routes length
  size_t attr_at = wd_at + 2 + u16(wd_at);
  out.push_back({attr_at, 2});  // total path attribute length
  if (u16(attr_at) > 0) out.push_back({attr_at + 2 + 2, 1});  // first attribute
  return out;
}

struct Mutant {
  Bytes data;
  std::string what;
};

Mutant Mutate(const Bytes& base, const std::vector<Frame>& frames,
              std::mt19937_64& rng) {
  Mutant m{base, ""};
  const Frame& fr = frames[rng() % frames.size()];
  size_t frame_len = mrt::kMrtHeaderSize + fr.body_len;
  switch (rng() % 4) {
    case 0: {  // flip one to four bytes inside one frame's body
      size_t flips = 1 + rng() % 4;
      for (size_t i = 0; i < flips; ++i) {
        size_t at = fr.offset + mrt::kMrtHeaderSize + rng() % fr.body_len;
        m.data[at] ^= uint8_t(1 + rng() % 255);
      }
      m.what = "flip body @" + std::to_string(fr.offset);
      break;
    }
    case 1: {  // flip a byte anywhere in the frame, header included
      size_t at = fr.offset + rng() % frame_len;
      m.data[at] ^= uint8_t(1 << (rng() % 8));
      m.what = "flip @" + std::to_string(at);
      break;
    }
    case 2: {  // truncate the file inside this frame
      size_t cut = fr.offset + rng() % frame_len;
      m.data.resize(cut);
      m.what = "truncate @" + std::to_string(cut);
      break;
    }
    default: {  // corrupt one length field of this frame
      auto fields = LengthFields(base, fr);
      auto [at, width] = fields[rng() % fields.size()];
      uint64_t v = 0;
      for (int i = 0; i < width; ++i) v = v << 8 | m.data[at + i];
      // Half off-by-a-little (the interesting boundary), half garbage.
      uint64_t delta = 1 + rng() % 8;
      v = rng() % 2 ? (rng() % 2 ? v + delta : v - delta) : rng();
      for (int i = width - 1; i >= 0; --i, v >>= 8) m.data[at + i] = uint8_t(v);
      m.what = "length @" + std::to_string(at);
      break;
    }
  }
  return m;
}

// What a record must look like given how its frame decodes on its own.
RecordStatus ExpectedStatus(const Status& st) {
  if (st.ok()) return RecordStatus::Valid;
  return st.code() == StatusCode::Unsupported ? RecordStatus::Unsupported
                                              : RecordStatus::CorruptedRecord;
}

// Runs one mutant through DumpReader and checks the reader's contract.
// Returns the hash of the full record sequence.
uint64_t CheckMutant(const broker::DumpFileMeta& meta, const Mutant& m) {
  SCOPED_TRACE(m.what);
  WriteFile(meta.path, m.data);

  // Independent oracle: frame the mutant and decode each frame on its
  // own, without the reader's per-dump cache.
  std::vector<Status> oracle;
  bool framing_broke = false;
  {
    BufReader r(m.data);
    while (true) {
      auto raw = mrt::DecodeRawRecord(r);
      if (!raw.ok()) {
        framing_broke = raw.status().code() != StatusCode::EndOfStream;
        break;
      }
      oracle.push_back(mrt::DecodeRecord(*raw).status());
    }
  }

  std::vector<Record> straight;
  std::vector<DumpReader::Checkpoint> cps;
  {
    DumpReader reader(meta);
    while (auto rec = reader.Next()) {
      straight.push_back(std::move(*rec));
      cps.push_back(reader.last_checkpoint());
    }
  }

  const mrt::MrtMessage kDefaultMsg;
  Fnv default_msg;
  HashMsg(default_msg, kDefaultMsg);
  size_t corrupted_dumps = 0;
  Fnv outcome;
  for (size_t i = 0; i < straight.size(); ++i) {
    const Record& rec = straight[i];
    outcome.U(RecordHash(rec));
    if (rec.status == RecordStatus::CorruptedDump) {
      ++corrupted_dumps;
      EXPECT_EQ(i + 1, straight.size()) << "CorruptedDump must end the dump";
      continue;
    }
    if (i >= oracle.size()) {
      ADD_FAILURE() << "record " << i << " has no frame";
      continue;
    }
    EXPECT_EQ(rec.status, ExpectedStatus(oracle[i])) << "record " << i;
    if (rec.status != RecordStatus::Valid) {
      // A failed decode leaves nothing behind: default msg, no table.
      Fnv got;
      HashMsg(got, rec.msg);
      EXPECT_EQ(got.value(), default_msg.value()) << "record " << i;
      EXPECT_EQ(rec.peer_index, nullptr) << "record " << i;
    }
  }
  EXPECT_LE(corrupted_dumps, 1u);
  EXPECT_EQ(corrupted_dumps, framing_broke ? 1u : 0u);
  EXPECT_EQ(straight.size(), oracle.size() + corrupted_dumps);

  // Resuming from any record's checkpoint reproduces the straight read
  // from that record on, positions included.
  for (size_t i = 0; i < cps.size(); ++i) {
    EXPECT_TRUE(cps[i].valid);
    EXPECT_EQ(cps[i].index, i);
    if (!cps[i].valid) continue;
    DumpReader resumed(meta, cps[i]);
    size_t j = i;
    while (auto rec = resumed.Next()) {
      if (j >= straight.size()) {
        ADD_FAILURE() << "resume@" << i << " ran long";
        break;
      }
      EXPECT_EQ(RecordHash(*rec), RecordHash(straight[j]))
          << "resume@" << i << " record " << j;
      ++j;
    }
    EXPECT_EQ(j, straight.size()) << "resume@" << i << " ended early";
  }
  return outcome.value();
}

TEST(MrtFuzz, MutatedFramesKeepTheDumpReaderContract) {
  std::string dir = TempRoot("fuzz");
  fs::create_directories(dir);
  struct Base {
    Bytes data;
    broker::DumpFileMeta meta;
    std::vector<Frame> frames;
  };
  std::vector<Base> bases(2);
  bases[0].data = FuzzRibFile();
  bases[0].meta.type = broker::DumpType::Rib;
  bases[1].data = FuzzUpdatesFile();
  bases[1].meta.type = broker::DumpType::Updates;
  for (size_t b = 0; b < bases.size(); ++b) {
    bases[b].meta.project = "fuzz";
    bases[b].meta.collector = "c" + std::to_string(b);
    bases[b].meta.start = 1458000000;
    bases[b].meta.duration = 900;
    bases[b].meta.path =
        (fs::path(dir) / ("base" + std::to_string(b))).string();
    bases[b].frames = Frames(bases[b].data);
  }
  ASSERT_EQ(bases[0].frames.size(), 9u);
  ASSERT_EQ(bases[1].frames.size(), 10u);

  // The unmutated files decode cleanly and are pinned too.
  Fnv outcome;
  for (const Base& base : bases)
    outcome.U(CheckMutant(base.meta, {base.data, "unmutated"}));

  constexpr int kMutants = 400;
  std::mt19937_64 rng(20261018);
  std::map<RecordStatus, size_t> seen;
  for (int i = 0; i < kMutants; ++i) {
    const Base& base = bases[i % bases.size()];
    Mutant m = Mutate(base.data, base.frames, rng);
    m.what = "mutant " + std::to_string(i) + ": " + m.what;
    outcome.U(CheckMutant(base.meta, m));
    DumpReader reader(base.meta);
    while (auto rec = reader.Next()) ++seen[rec->status];
    if (HasFatalFailure()) break;
  }
  // The mutations must reach every status the mapping can produce.
  EXPECT_GT(seen[RecordStatus::Valid], 0u);
  EXPECT_GT(seen[RecordStatus::CorruptedRecord], 0u);
  EXPECT_GT(seen[RecordStatus::Unsupported], 0u);
  EXPECT_GT(seen[RecordStatus::CorruptedDump], 0u);
  EXPECT_EQ(outcome.value(), kFuzzOutcomeFingerprint);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace bgps::core
