#include <gtest/gtest.h>

#include "bgp/update.hpp"

namespace bgps::bgp {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

TEST(AsPath, SequenceBasics) {
  AsPath p = AsPath::Sequence({701, 3356, 65001});
  EXPECT_EQ(p.length(), 3u);
  EXPECT_EQ(p.ToString(), "701 3356 65001");
  EXPECT_EQ(p.first_asn().value(), 701u);
  EXPECT_EQ(p.origin_asn().value(), 65001u);
  EXPECT_TRUE(p.contains(3356));
  EXPECT_FALSE(p.contains(1));
}

TEST(AsPath, EmptyPath) {
  AsPath p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.length(), 0u);
  EXPECT_FALSE(p.first_asn().has_value());
  EXPECT_FALSE(p.origin_asn().has_value());
  EXPECT_EQ(p.ToString(), "");
}

TEST(AsPath, SetCountsOnceInLength) {
  AsPath p({{SegmentType::AsSequence, {701, 3356}},
            {SegmentType::AsSet, {7018, 209}},
            {SegmentType::AsSequence, {65001}}});
  EXPECT_EQ(p.length(), 4u);  // 2 + 1 (set) + 1
  EXPECT_EQ(p.ToString(), "701 3356 {7018,209} 65001");
}

TEST(AsPath, HopsFlattenSets) {
  AsPath p({{SegmentType::AsSequence, {1}},
            {SegmentType::AsSet, {2, 3}}});
  EXPECT_EQ(p.hops(), (std::vector<Asn>{1, 2, 3}));
}

TEST(AsPath, OriginOfTrailingSet) {
  AsPath p({{SegmentType::AsSequence, {1}},
            {SegmentType::AsSet, {30, 20}}});
  EXPECT_EQ(p.origin_asn().value(), 20u);  // smallest member, deterministic
  EXPECT_EQ(p.origin_set(), (std::vector<Asn>{30, 20}));
}

TEST(AsPath, Prepend) {
  AsPath p = AsPath::Sequence({3356, 65001});
  p.prepend(701);
  EXPECT_EQ(p.ToString(), "701 3356 65001");
  AsPath q({{SegmentType::AsSet, {5, 6}}});
  q.prepend(1);
  EXPECT_EQ(q.ToString(), "1 {5,6}");
}

TEST(AsPath, ParseRoundTrip) {
  for (const char* text :
       {"701 3356 65001", "1", "", "701 {1,2,3} 99", "{4,5}"}) {
    auto p = AsPath::Parse(text);
    ASSERT_TRUE(p.ok()) << text;
    EXPECT_EQ(p->ToString(), text);
  }
}

TEST(AsPath, ParseInvalid) {
  EXPECT_FALSE(AsPath::Parse("abc").ok());
  EXPECT_FALSE(AsPath::Parse("1 {2,3").ok());
  EXPECT_FALSE(AsPath::Parse("{}").ok());
}

TEST(AsPath, FourByteAsn) {
  AsPath p = AsPath::Sequence({4200000001, 65001});
  EXPECT_EQ(p.ToString(), "4200000001 65001");
}

TEST(Community, Basics) {
  Community c(65535, 666);
  EXPECT_EQ(c.asn(), 65535);
  EXPECT_EQ(c.value(), 666);
  EXPECT_EQ(c.raw(), 0xFFFF029Au);
  EXPECT_EQ(c.ToString(), "65535:666");
}

TEST(Community, Parse) {
  auto c = Community::Parse("3356:100");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->asn(), 3356);
  EXPECT_EQ(c->value(), 100);
  EXPECT_FALSE(Community::Parse("3356").ok());
  EXPECT_FALSE(Community::Parse("99999:1").ok());
  EXPECT_FALSE(Community::Parse("a:b").ok());
}

TEST(CommunityMatcher, Wildcards) {
  auto exact = *CommunityMatcher::Parse("3356:666");
  auto any_value = *CommunityMatcher::Parse("3356:*");
  auto any_asn = *CommunityMatcher::Parse("*:666");
  auto all = *CommunityMatcher::Parse("*:*");
  Community c(3356, 666), d(3356, 100), e(701, 666);
  EXPECT_TRUE(exact.matches(c));
  EXPECT_FALSE(exact.matches(d));
  EXPECT_TRUE(any_value.matches(d));
  EXPECT_FALSE(any_value.matches(e));
  EXPECT_TRUE(any_asn.matches(e));
  EXPECT_FALSE(any_asn.matches(d));
  EXPECT_TRUE(all.matches(d));
  EXPECT_TRUE(any_asn.matches_any({d, e}));
  EXPECT_FALSE(any_asn.matches_any({d}));
}

PathAttributes MakeAttrs() {
  PathAttributes attrs;
  attrs.origin = Origin::Igp;
  attrs.as_path = AsPath({{SegmentType::AsSequence, {701, 3356}},
                          {SegmentType::AsSet, {7018, 209}}});
  attrs.next_hop = IpAddress::V4(10, 0, 0, 1);
  attrs.med = 50;
  attrs.local_pref = 120;
  attrs.communities = {Community(3356, 100), Community(65535, 666)};
  return attrs;
}

TEST(PathAttributes, RoundTripFourByte) {
  PathAttributes attrs = MakeAttrs();
  Bytes wire = EncodePathAttributes(attrs, AsnEncoding::FourByte);
  BufReader r(wire);
  auto decoded = DecodePathAttributes(r, wire.size(), AsnEncoding::FourByte);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, attrs);
}

TEST(PathAttributes, RoundTripTwoByte) {
  PathAttributes attrs = MakeAttrs();
  Bytes wire = EncodePathAttributes(attrs, AsnEncoding::TwoByte);
  BufReader r(wire);
  auto decoded = DecodePathAttributes(r, wire.size(), AsnEncoding::TwoByte);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, attrs);
}

TEST(PathAttributes, TwoByteEncodingUsesAsTrans) {
  PathAttributes attrs;
  attrs.as_path = AsPath::Sequence({4200000001, 65001});
  Bytes wire = EncodePathAttributes(attrs, AsnEncoding::TwoByte);
  BufReader r(wire);
  auto decoded = DecodePathAttributes(r, wire.size(), AsnEncoding::TwoByte);
  ASSERT_TRUE(decoded.ok());
  // 32-bit ASN collapses to AS_TRANS 23456 (RFC 6793).
  EXPECT_EQ(decoded->as_path.ToString(), "23456 65001");
}

TEST(PathAttributes, AggregatorAndAtomic) {
  PathAttributes attrs;
  attrs.as_path = AsPath::Sequence({1});
  attrs.atomic_aggregate = true;
  attrs.aggregator = Aggregator{65001, IpAddress::V4(192, 0, 2, 1)};
  Bytes wire = EncodePathAttributes(attrs, AsnEncoding::FourByte);
  BufReader r(wire);
  auto decoded = DecodePathAttributes(r, wire.size(), AsnEncoding::FourByte);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->atomic_aggregate);
  ASSERT_TRUE(decoded->aggregator.has_value());
  EXPECT_EQ(decoded->aggregator->asn, 65001u);
}

TEST(PathAttributes, MpReachV6RoundTrip) {
  PathAttributes attrs;
  attrs.as_path = AsPath::Sequence({1, 2});
  MpReach mp;
  mp.next_hop = *IpAddress::Parse("2001:db8::1");
  mp.nlri = {P("2001:db8:100::/48"), P("2001:db8:200::/40")};
  attrs.mp_reach = mp;
  Bytes wire = EncodePathAttributes(attrs, AsnEncoding::FourByte);
  BufReader r(wire);
  auto decoded = DecodePathAttributes(r, wire.size(), AsnEncoding::FourByte);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded->mp_reach.has_value());
  EXPECT_EQ(decoded->mp_reach->next_hop.ToString(), "2001:db8::1");
  EXPECT_EQ(decoded->mp_reach->nlri, mp.nlri);
}

TEST(PathAttributes, MpUnreachRoundTrip) {
  PathAttributes attrs;
  MpUnreach mp;
  mp.withdrawn = {P("2001:db8::/32")};
  attrs.mp_unreach = mp;
  attrs.as_path = AsPath::Sequence({1});
  Bytes wire = EncodePathAttributes(attrs, AsnEncoding::FourByte);
  BufReader r(wire);
  auto decoded = DecodePathAttributes(r, wire.size(), AsnEncoding::FourByte);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded->mp_unreach.has_value());
  EXPECT_EQ(decoded->mp_unreach->withdrawn, mp.withdrawn);
}

TEST(PathAttributes, CorruptOriginRejected) {
  BufWriter w;
  w.u8(0x40);  // transitive
  w.u8(1);     // ORIGIN
  w.u8(1);     // length
  w.u8(9);     // invalid origin value
  BufReader r(w.data());
  auto decoded = DecodePathAttributes(r, w.size(), AsnEncoding::FourByte);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::Corrupt);
}

TEST(PathAttributes, TruncatedAttributeRejected) {
  PathAttributes attrs = MakeAttrs();
  Bytes wire = EncodePathAttributes(attrs, AsnEncoding::FourByte);
  wire.resize(wire.size() - 3);
  BufReader r(wire);
  auto decoded = DecodePathAttributes(r, wire.size(), AsnEncoding::FourByte);
  EXPECT_FALSE(decoded.ok());
}

TEST(PathAttributes, UnknownAttributeSkipped) {
  BufWriter w;
  w.u8(0xC0);  // optional transitive
  w.u8(99);    // unknown type
  w.u8(2);
  w.u16(0xBEEF);
  // Then a valid ORIGIN.
  w.u8(0x40);
  w.u8(1);
  w.u8(1);
  w.u8(2);
  BufReader r(w.data());
  auto decoded = DecodePathAttributes(r, w.size(), AsnEncoding::FourByte);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->origin, Origin::Incomplete);
}

// A block that repeats AS_PATH decodes to the last occurrence, with and
// without the per-dump intern cache (where the first occurrence is a
// cache hit on the second decode).
TEST(PathAttributes, RepeatedAsPathKeepsTheLastOne) {
  BufWriter w;
  for (const std::vector<Asn>& hops :
       {std::vector<Asn>{65001, 3356}, std::vector<Asn>{64512, 174, 2914}}) {
    w.u8(0x40);  // transitive
    w.u8(2);     // AS_PATH
    w.u8(uint8_t(2 + 4 * hops.size()));
    w.u8(2);  // AS_SEQUENCE
    w.u8(uint8_t(hops.size()));
    for (Asn a : hops) w.u32(a);
  }
  Arena arena;
  AsPathCache cache(&arena);
  AttrDecodeCtx ctx{&cache};
  for (AttrDecodeCtx* c : {static_cast<AttrDecodeCtx*>(nullptr), &ctx, &ctx}) {
    BufReader r(w.data());
    auto decoded =
        DecodePathAttributes(r, w.size(), AsnEncoding::FourByte, c);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->as_path, AsPath::Sequence({64512, 174, 2914}));
  }
  EXPECT_EQ(cache.hits(), 2u);
}

TEST(NlriPrefix, RoundTripLengths) {
  for (int len : {0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32}) {
    Prefix p(IpAddress::V4(0xC0A85A5Au), len);
    BufWriter w;
    EncodeNlriPrefix(w, p);
    // Wire size is minimal: 1 + ceil(len/8).
    EXPECT_EQ(w.size(), 1 + (size_t(len) + 7) / 8);
    BufReader r(w.data());
    auto q = DecodeNlriPrefix(r, IpFamily::V4);
    ASSERT_TRUE(q.ok());
    EXPECT_EQ(*q, p) << len;
  }
}

TEST(NlriPrefix, BadLengthRejected) {
  BufWriter w;
  w.u8(33);  // too long for v4
  w.u32(0);
  w.u8(0);
  BufReader r(w.data());
  EXPECT_FALSE(DecodeNlriPrefix(r, IpFamily::V4).ok());
}

UpdateMessage MakeUpdate() {
  UpdateMessage u;
  u.withdrawn = {P("10.9.0.0/16")};
  u.attrs = MakeAttrs();
  u.announced = {P("192.168.0.0/16"), P("192.169.0.0/17")};
  return u;
}

TEST(Update, RoundTrip) {
  UpdateMessage u = MakeUpdate();
  Bytes wire = EncodeUpdate(u, AsnEncoding::FourByte);
  BufReader r(wire);
  auto decoded = DecodeUpdate(r, AsnEncoding::FourByte);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, u);
  EXPECT_TRUE(r.empty());  // consumed exactly the message length
}

TEST(Update, PureWithdrawalOmitsAttributes) {
  UpdateMessage u;
  u.withdrawn = {P("10.0.0.0/8")};
  Bytes wire = EncodeUpdate(u, AsnEncoding::FourByte);
  BufReader r(wire);
  auto decoded = DecodeUpdate(r, AsnEncoding::FourByte);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->withdrawn, u.withdrawn);
  EXPECT_TRUE(decoded->announced.empty());
}

TEST(Update, HeaderValidation) {
  UpdateMessage u = MakeUpdate();
  Bytes wire = EncodeUpdate(u, AsnEncoding::FourByte);
  // Break the marker.
  Bytes bad = wire;
  bad[3] = 0x00;
  BufReader r1(bad);
  EXPECT_FALSE(DecodeUpdate(r1, AsnEncoding::FourByte).ok());
  // Break the length.
  bad = wire;
  bad[16] = 0xFF;
  bad[17] = 0xFF;
  BufReader r2(bad);
  EXPECT_FALSE(DecodeUpdate(r2, AsnEncoding::FourByte).ok());
  // Break the type.
  bad = wire;
  bad[18] = 7;
  BufReader r3(bad);
  EXPECT_FALSE(DecodeUpdate(r3, AsnEncoding::FourByte).ok());
}

TEST(Update, V6OnlyUpdateViaMp) {
  UpdateMessage u;
  u.attrs.as_path = AsPath::Sequence({1, 2, 3});
  MpReach mp;
  mp.next_hop = *IpAddress::Parse("2001:db8::99");
  mp.nlri = {P("2001:db8:42::/48")};
  u.attrs.mp_reach = mp;
  Bytes wire = EncodeUpdate(u, AsnEncoding::FourByte);
  BufReader r(wire);
  auto decoded = DecodeUpdate(r, AsnEncoding::FourByte);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded->attrs.mp_reach.has_value());
  EXPECT_EQ(decoded->attrs.mp_reach->nlri, mp.nlri);
}

// Property sweep: update with N announced prefixes round-trips.
class UpdateFanout : public ::testing::TestWithParam<int> {};

TEST_P(UpdateFanout, RoundTrip) {
  UpdateMessage u;
  u.attrs.as_path = AsPath::Sequence({100, 200});
  u.attrs.next_hop = IpAddress::V4(10, 0, 0, 1);
  for (int i = 0; i < GetParam(); ++i) {
    u.announced.push_back(
        Prefix(IpAddress::V4(uint32_t(i) << 12), 24));
  }
  Bytes wire = EncodeUpdate(u, AsnEncoding::FourByte);
  BufReader r(wire);
  auto decoded = DecodeUpdate(r, AsnEncoding::FourByte);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->announced.size(), size_t(GetParam()));
  EXPECT_EQ(*decoded, u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, UpdateFanout,
                         ::testing::Values(0, 1, 2, 10, 100, 500));

TEST(FsmState, Names) {
  EXPECT_STREQ(FsmStateName(FsmState::Established), "ESTABLISHED");
  EXPECT_STREQ(FsmStateName(FsmState::Idle), "IDLE");
}

}  // namespace
}  // namespace bgps::bgp
