// Filter while extracting: ExtractFilteredElemsInto ≡ extract, then
// filter.
//
// The stream's one extraction pass asks the elem filters about each
// candidate elem's fields before it builds the elem. The reference is
// the two-pass form that builds every elem with ExtractElems and then
// erases with FilterElemsInPlace. For every record below and every
// filter set (none, each elem-level key alone, each pair of keys) the
// two must yield the same elems in the same order, appended after
// whatever the output vector already held.
//
// Records: a synthetic RIB archive, a mixed 2-byte-AS corpus (state
// changes, IPv6 MP_REACH/MP_UNREACH), and hand-built records the
// generators never write: BGP4MP_ET frames, an AS_SET path, a corrupted
// and an unsupported record, a non-UPDATE message, a RIB record that
// lost its peer index and a RIB entry whose peer index is out of range.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "broker/archive.hpp"
#include "core/dump_reader.hpp"
#include "core/elem.hpp"
#include "core/filter.hpp"
#include "mrt/encode.hpp"
#include "sim/corpus.hpp"
#include "util/bytes.hpp"

namespace bgps::core {
namespace {

namespace fs = std::filesystem;

constexpr Timestamp kTs = 1458000000;

std::string TempRoot(const std::string& tag) {
  return (fs::temp_directory_path() /
          ("bgps_elem_filter_" + tag + "_" + std::to_string(::getpid())))
      .string();
}

void ReadArchive(const std::string& root, std::vector<Record>& out) {
  broker::ArchiveIndex index(root);
  ASSERT_TRUE(index.Rescan().ok());
  for (const auto& meta : index.files()) {
    DumpReader reader(meta);
    while (auto rec = reader.Next()) out.push_back(std::move(*rec));
  }
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

// Re-frames one BGP4MP frame as BGP4MP_ET (RFC 6396 §3): type 17 and a
// u32 microsecond field ahead of the body.
Bytes Extended(const Bytes& frame, uint32_t microseconds) {
  BufWriter w;
  w.bytes(std::span<const uint8_t>(frame.data(), 4));  // timestamp
  w.u16(uint16_t(mrt::MrtType::Bgp4mpEt));
  w.bytes(std::span<const uint8_t>(frame.data() + 6, 2));  // subtype
  w.u32(uint32_t(frame.size() - mrt::kMrtHeaderSize + 4));
  w.u32(microseconds);
  w.bytes(std::span<const uint8_t>(frame.data() + mrt::kMrtHeaderSize,
                                   frame.size() - mrt::kMrtHeaderSize));
  return w.take();
}

// A frame with a well-formed header around an arbitrary body.
Bytes Frame(uint16_t type, uint16_t subtype, const Bytes& body) {
  BufWriter w;
  w.u32(uint32_t(kTs));
  w.u16(type);
  w.u16(subtype);
  w.u32(uint32_t(body.size()));
  w.bytes(body);
  return w.take();
}

// The records no generator writes, read back through DumpReader.
void ReadHandBuilt(const std::string& root, std::vector<Record>& out) {
  fs::create_directories(root);
  mrt::Bgp4mpMessage m;
  m.peer_asn = 65001;
  m.local_asn = 64512;
  m.peer_address = IpAddress::V4(10, 0, 0, 1);
  m.local_address = IpAddress::V4(192, 0, 2, 1);
  m.update.withdrawn.push_back(Prefix(IpAddress::V4(12, 1, 0, 0), 16));
  m.update.attrs.mp_unreach = bgp::MpUnreach{};
  m.update.attrs.mp_unreach->withdrawn.push_back(Prefix(V6(1, 0), 32));
  m.update.attrs.as_path = bgp::AsPath::Sequence({65001, 3356, 2914});
  m.update.attrs.as_path.append_segment(
      {bgp::SegmentType::AsSet, {64512, 64513}});
  m.update.attrs.next_hop = IpAddress::V4(10, 0, 0, 1);
  m.update.attrs.communities = {bgp::Community(3356, 100),
                                bgp::Community(65535, 666)};
  m.update.announced.push_back(Prefix(IpAddress::V4(13, 1, 0, 0), 16));
  m.update.announced.push_back(Prefix(IpAddress::V4(14, 1, 1, 0), 24));
  m.update.attrs.mp_reach = bgp::MpReach{};
  m.update.attrs.mp_reach->next_hop = V6(7, 1);
  m.update.attrs.mp_reach->nlri.push_back(Prefix(V6(2, 1), 48));

  mrt::Bgp4mpStateChange sc;
  sc.peer_asn = 65002;
  sc.local_asn = 64512;
  sc.peer_address = IpAddress::V4(10, 0, 0, 2);
  sc.local_address = IpAddress::V4(192, 0, 2, 1);
  sc.old_state = bgp::FsmState::Established;
  sc.new_state = bgp::FsmState::Idle;

  BufWriter file;
  file.bytes(Extended(mrt::EncodeBgp4mpUpdate(kTs, m), 250000));
  file.bytes(mrt::EncodeBgp4mpUpdate(kTs, m, bgp::AsnEncoding::TwoByte));
  file.bytes(Extended(mrt::EncodeBgp4mpStateChange(kTs, sc), 500000));
  file.bytes(Frame(99, 0, Bytes{1, 2, 3, 4}));  // unsupported type
  file.bytes(Frame(uint16_t(mrt::MrtType::Bgp4mp),
                   uint16_t(mrt::Bgp4mpSubtype::MessageAs4),
                   Bytes{0xde, 0xad, 0xbe, 0xef, 0, 1}));  // corrupted body
  file.bytes(mrt::EncodeBgp4mpUpdate(kTs + 1, m));
  Bytes bytes = file.take();

  broker::DumpFileMeta meta;
  meta.project = "test";
  meta.collector = "hand";
  meta.type = broker::DumpType::Updates;
  meta.start = kTs;
  meta.duration = 900;
  meta.path = (fs::path(root) / "updates.mrt").string();
  std::ofstream(meta.path, std::ios::binary)
      .write(reinterpret_cast<const char*>(bytes.data()),
             std::streamsize(bytes.size()));
  size_t first = out.size();
  DumpReader reader(meta);
  while (auto rec = reader.Next()) out.push_back(std::move(*rec));

  // A BGP4MP message that is not an UPDATE carries no elems.
  Record keepalive = out[first];
  std::get<mrt::Bgp4mpMessage>(keepalive.msg.body).message_type =
      bgp::MessageType::Keepalive;
  out.push_back(std::move(keepalive));
}

// All records under test, built once per process.
const std::vector<Record>& Records() {
  static const std::vector<Record>* records = [] {
    auto* out = new std::vector<Record>();

    std::string rib_root = TempRoot("rib");
    sim::SyntheticRibOptions rib;
    rib.prefixes = 1500;
    rib.vps = 5;
    rib.update_windows = 2;
    rib.churn_fraction = 0.05;
    rib.final_rib = false;
    rib.seed = 13;
    EXPECT_TRUE(sim::GenerateSyntheticRib(rib, rib_root).ok());
    ReadArchive(rib_root, *out);

    // A RIB record that lost its peer index, and one whose first entry
    // points past the end of the index.
    auto rib_rec = std::find_if(out->begin(), out->end(), [](const Record& r) {
      return r.msg.is_rib();
    });
    EXPECT_NE(rib_rec, out->end());
    if (rib_rec != out->end()) {
      Record orphan = *rib_rec;
      orphan.peer_index.reset();
      Record stray = *rib_rec;
      std::get<mrt::RibPrefix>(stray.msg.body).entries.front().peer_index =
          uint16_t(stray.peer_index->peers.size() + 7);
      out->push_back(std::move(orphan));
      out->push_back(std::move(stray));
    }

    std::string mixed_root = TempRoot("mixed");
    sim::CorpusOptions mixed;
    mixed.scenario = "mixed";
    mixed.duration = 3600;
    mixed.flaps_per_hour = 1200;
    mixed.asn_encoding = bgp::AsnEncoding::TwoByte;
    mixed.seed = 17;
    EXPECT_TRUE(sim::GenerateCorpus(mixed, mixed_root).ok());
    ReadArchive(mixed_root, *out);

    std::string hand_root = TempRoot("hand");
    ReadHandBuilt(hand_root, *out);

    std::error_code ec;
    for (const auto& root : {rib_root, mixed_root, hand_root})
      fs::remove_all(root, ec);
    return out;
  }();
  return *records;
}

// Every record's unfiltered elems, in record order.
std::vector<Elem> AllElems() {
  std::vector<Elem> all;
  for (const Record& r : Records()) ExtractElemsInto(r, all);
  return all;
}

struct Option {
  std::string key;
  std::string value;
};

// Each elem-level filter key with values drawn from the records, so
// every option keeps some elems and drops others. The last two match
// the hand-built update, whose withdrawals share a record with a path
// and communities (and whose path ends in an AS_SET).
std::vector<Option> SingleOptions() {
  std::vector<Elem> all = AllElems();
  const Elem* v4 = nullptr;
  const Elem* tagged = nullptr;
  const Elem* long_path = nullptr;
  for (size_t i = all.size() / 3; i < all.size(); ++i) {
    const Elem& e = all[i];
    if (!v4 && e.has_prefix() && e.prefix.family() == IpFamily::V4 &&
        e.prefix.length() >= 16)
      v4 = &e;
    if (!tagged && !e.communities.empty()) tagged = &e;
    if (!long_path && e.as_path.hops().size() >= 3) long_path = &e;
  }
  EXPECT_TRUE(v4 && tagged && long_path);
  if (!v4 || !tagged || !long_path) return {};

  const Prefix& p = v4->prefix;
  bgp::Community c = tagged->communities.front();
  std::vector<bgp::Asn> hops = long_path->as_path.hops();
  auto pfx = [&](int len) { return Prefix(p.address(), len).ToString(); };
  auto num = [](uint64_t v) { return std::to_string(v); };
  return {
      {"prefix", "exact " + p.ToString()},
      {"prefix", "more " + pfx(8)},
      {"prefix", "less " + pfx(std::min(p.length() + 4, 32))},
      {"prefix", "any " + pfx(10)},
      {"community", num(c.asn()) + ":*"},
      {"community", "*:" + num(c.value())},
      {"peer", num(all[all.size() / 2].peer_asn)},
      {"elemtype", "ribs"},
      {"elemtype", "announcements"},
      {"elemtype", "withdrawals"},
      {"elemtype", "peerstates"},
      {"path", num(hops[1])},
      {"aspath", "^" + num(hops[0])},
      {"aspath", num(hops[1]) + " " + num(hops[2])},
      {"aspath", "% " + num(hops.back()) + "$"},
      {"ipversion", "4"},
      {"ipversion", "6"},
      {"community", "65535:666"},
      {"aspath", "2914 64512"},
  };
}

struct NamedFilters {
  std::string name;
  FilterSet filters;
};

// No filter, each option alone, and each pair of options on two keys.
std::vector<NamedFilters> FilterSets() {
  std::vector<Option> singles = SingleOptions();
  std::vector<NamedFilters> out;
  out.push_back({"(none)", FilterSet{}});
  auto add = [&](std::vector<const Option*> opts) {
    NamedFilters nf;
    for (const Option* o : opts) {
      EXPECT_TRUE(nf.filters.AddOption(o->key, o->value).ok())
          << o->key << " " << o->value;
      nf.name += "[" + o->key + " " + o->value + "]";
    }
    out.push_back(std::move(nf));
  };
  for (size_t i = 0; i < singles.size(); ++i) add({&singles[i]});
  for (size_t i = 0; i < singles.size(); ++i)
    for (size_t j = i + 1; j < singles.size(); ++j)
      if (singles[i].key != singles[j].key) add({&singles[i], &singles[j]});
  return out;
}

std::string Describe(const Elem& e) {
  std::ostringstream s;
  s << ElemTypeName(e.type) << "|" << e.time << "|" << e.peer_address.ToString()
    << "|" << e.peer_asn << "|" << (e.has_prefix() ? e.prefix.ToString() : "")
    << "|" << e.next_hop.ToString() << "|" << e.as_path.ToString() << "|"
    << bgp::CommunitiesToString(e.communities) << "|" << int(e.old_state)
    << "|" << int(e.new_state);
  return s.str();
}

bool SameElem(const Elem& a, const Elem& b) {
  return a.type == b.type && a.time == b.time &&
         a.peer_address == b.peer_address && a.peer_asn == b.peer_asn &&
         a.prefix == b.prefix && a.next_hop == b.next_hop &&
         a.as_path == b.as_path && a.communities == b.communities &&
         a.old_state == b.old_state && a.new_state == b.new_state;
}

TEST(ExtractFilteredElems, RecordsCoverEveryDecompositionCase) {
  size_t rib = 0, state = 0, v6_reach = 0, v6_unreach = 0, extended = 0,
         corrupted = 0, unsupported = 0, orphaned = 0, not_update = 0;
  for (const Record& r : Records()) {
    corrupted += r.status == RecordStatus::CorruptedRecord;
    unsupported += r.status == RecordStatus::Unsupported;
    if (r.status != RecordStatus::Valid) continue;
    extended += r.msg.microseconds != 0;
    state += r.msg.is_state_change();
    if (r.msg.is_rib()) {
      ++rib;
      orphaned += r.peer_index == nullptr;
    }
    if (const auto* m = std::get_if<mrt::Bgp4mpMessage>(&r.msg.body)) {
      not_update += m->message_type != bgp::MessageType::Update;
      const auto& a = m->update.attrs;
      v6_reach += a.mp_reach && !a.mp_reach->nlri.empty();
      v6_unreach += a.mp_unreach && !a.mp_unreach->withdrawn.empty();
    }
  }
  EXPECT_GT(rib, 0u);
  EXPECT_GT(state, 1u);
  EXPECT_GT(v6_reach, 1u);
  EXPECT_GT(v6_unreach, 1u);
  EXPECT_GE(extended, 2u);
  EXPECT_EQ(corrupted, 1u);
  EXPECT_EQ(unsupported, 1u);
  EXPECT_EQ(orphaned, 1u);
  EXPECT_EQ(not_update, 1u);
}

// Each option alone keeps some elems and drops others, so the
// equivalence below is tested on real decisions, not all-or-nothing.
TEST(ExtractFilteredElems, EveryOptionSplitsTheElems) {
  std::vector<Elem> all = AllElems();
  std::vector<NamedFilters> sets = FilterSets();
  ASSERT_GT(sets.size(), 100u);
  for (const NamedFilters& nf : sets) {
    if (nf.name.find("][") != std::string::npos) continue;  // pairs
    if (!nf.filters.HasElemFilters()) continue;
    size_t kept = 0;
    for (const Elem& e : all) kept += nf.filters.MatchesElem(e);
    EXPECT_GT(kept, 0u) << nf.name;
    EXPECT_LT(kept, all.size()) << nf.name;
  }
}

TEST(ExtractFilteredElems, MatchesExtractThenFilter) {
  const std::vector<Record>& records = Records();
  Elem sentinel;
  sentinel.type = ElemType::PeerState;
  sentinel.peer_asn = 4294967295u;
  std::vector<Elem> expected, got;
  size_t compared = 0;
  for (const NamedFilters& nf : FilterSets()) {
    for (size_t i = 0; i < records.size(); ++i) {
      expected = ExtractElems(records[i]);
      nf.filters.FilterElemsInPlace(expected);
      got.assign(1, sentinel);
      ExtractFilteredElemsInto(records[i], nf.filters, got);
      ASSERT_FALSE(got.empty());
      ASSERT_TRUE(SameElem(got.front(), sentinel))
          << nf.name << " record " << i << ": clobbered what `out` held";
      ASSERT_EQ(got.size() - 1, expected.size())
          << nf.name << " record " << i;
      for (size_t k = 0; k < expected.size(); ++k) {
        ASSERT_TRUE(SameElem(got[k + 1], expected[k]))
            << nf.name << " record " << i << " elem " << k << ": got "
            << Describe(got[k + 1]) << ", want " << Describe(expected[k]);
      }
      compared += expected.size();
    }
  }
  EXPECT_GT(compared, 0u);
}

}  // namespace
}  // namespace bgps::core
