#include <gtest/gtest.h>

#include <random>

#include "core/filter.hpp"

namespace bgps::core {
namespace {

bgp::AsPath Path(std::initializer_list<bgp::Asn> hops) {
  return bgp::AsPath::Sequence(hops);
}

AsPathPattern Pat(const std::string& s) {
  auto p = AsPathPattern::Parse(s);
  EXPECT_TRUE(p.ok()) << s;
  return *p;
}

TEST(AsPathPattern, ExactSequence) {
  auto p = Pat("^65001 3356 15169$");
  EXPECT_TRUE(p.matches(Path({65001, 3356, 15169})));
  EXPECT_FALSE(p.matches(Path({65001, 3356, 15169, 1})));
  EXPECT_FALSE(p.matches(Path({2, 65001, 3356, 15169})));
  EXPECT_FALSE(p.matches(Path({65001, 15169})));
}

TEST(AsPathPattern, UnanchoredSubsequence) {
  auto p = Pat("3356 15169");
  EXPECT_TRUE(p.matches(Path({1, 2, 3356, 15169, 4})));
  EXPECT_TRUE(p.matches(Path({3356, 15169})));
  EXPECT_FALSE(p.matches(Path({3356, 1, 15169})));  // must be contiguous
}

TEST(AsPathPattern, StartAnchor) {
  auto p = Pat("^65001");
  EXPECT_TRUE(p.matches(Path({65001, 1, 2})));
  EXPECT_FALSE(p.matches(Path({1, 65001})));
}

TEST(AsPathPattern, EndAnchorMatchesOrigin) {
  auto p = Pat("15169$");
  EXPECT_TRUE(p.matches(Path({1, 2, 15169})));
  EXPECT_FALSE(p.matches(Path({15169, 1})));
}

TEST(AsPathPattern, AnyOneHop) {
  auto p = Pat("^65001 * 15169$");
  EXPECT_TRUE(p.matches(Path({65001, 3356, 15169})));
  EXPECT_FALSE(p.matches(Path({65001, 15169})));           // * needs one hop
  EXPECT_FALSE(p.matches(Path({65001, 1, 2, 15169})));     // exactly one
}

TEST(AsPathPattern, AnyRun) {
  auto p = Pat("^65001 % 15169$");
  EXPECT_TRUE(p.matches(Path({65001, 15169})));             // empty run
  EXPECT_TRUE(p.matches(Path({65001, 1, 2, 3, 15169})));
  EXPECT_FALSE(p.matches(Path({1, 65001, 15169})));
}

TEST(AsPathPattern, ThroughAs) {
  auto p = Pat("% 3356 %");
  EXPECT_TRUE(p.matches(Path({1, 3356, 2})));
  EXPECT_TRUE(p.matches(Path({3356})));
  EXPECT_FALSE(p.matches(Path({1, 2, 3})));
}

TEST(AsPathPattern, StandaloneAnchors) {
  auto p = Pat("^ 65001 % $");
  EXPECT_TRUE(p.matches(Path({65001, 9})));
  EXPECT_FALSE(p.matches(Path({9, 65001})));
}

TEST(AsPathPattern, ParseErrors) {
  EXPECT_FALSE(AsPathPattern::Parse("").ok());
  EXPECT_FALSE(AsPathPattern::Parse("^$").ok());
  EXPECT_FALSE(AsPathPattern::Parse("abc").ok());
  EXPECT_FALSE(AsPathPattern::Parse("1 2x").ok());
}

TEST(AsPathPattern, EmptyPathOnlyMatchesPureRun) {
  EXPECT_TRUE(Pat("%").matches(Path({})));
  EXPECT_FALSE(Pat("*").matches(Path({})));
  EXPECT_FALSE(Pat("1").matches(Path({})));
}

TEST(AsPathPattern, FilterSetIntegration) {
  FilterSet f;
  ASSERT_TRUE(f.AddOption("aspath", "% 3356 15169$").ok());
  EXPECT_TRUE(f.HasElemFilters());
  Elem e;
  e.type = ElemType::Announcement;
  e.prefix = *Prefix::Parse("10.0.0.0/8");
  e.as_path = Path({65001, 3356, 15169});
  EXPECT_TRUE(f.MatchesElem(e));
  e.as_path = Path({65001, 15169});
  EXPECT_FALSE(f.MatchesElem(e));
  EXPECT_FALSE(f.AddOption("aspath", "bogus pattern").ok());
}

// Property sweep: "% <asn> %" agrees with AsPath::contains on random paths.
class AsPathPatternRandom : public ::testing::TestWithParam<uint32_t> {};

TEST_P(AsPathPatternRandom, ContainsEquivalence) {
  std::mt19937 rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<bgp::Asn> hops;
    size_t len = rng() % 8;
    for (size_t i = 0; i < len; ++i) hops.push_back(1 + rng() % 16);
    bgp::AsPath path = bgp::AsPath::Sequence(hops);
    bgp::Asn target = 1 + rng() % 16;
    auto p = AsPathPattern::Parse("% " + std::to_string(target) + " %");
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p->matches(path), path.contains(target))
        << path.ToString() << " ~ " << target;
  }
}

// A pattern runs over the hop sequence of AsPath::hops(): segment
// boundaries are invisible, and a path longer than the matcher's inline
// storage matches like a short one.
TEST_P(AsPathPatternRandom, SegmentsMatchLikeTheirHopSequence) {
  std::mt19937 rng(GetParam());
  const char* kinds[] = {"*", "%"};
  for (int trial = 0; trial < 200; ++trial) {
    bgp::AsPath path;
    size_t segments = rng() % 5;
    for (size_t s = 0; s < segments; ++s) {
      bgp::AsPathSegment seg;
      seg.type = rng() % 3 ? bgp::SegmentType::AsSequence
                           : bgp::SegmentType::AsSet;
      size_t len = 1 + rng() % 9;  // up to 36 hops, past inline storage
      for (size_t i = 0; i < len; ++i) seg.asns.push_back(1 + rng() % 6);
      path.append_segment(std::move(seg));
    }
    std::string text = rng() % 2 ? "^" : "";
    size_t tokens = 1 + rng() % 4;
    for (size_t t = 0; t < tokens; ++t) {
      if (t) text += " ";
      text += rng() % 3 ? std::to_string(1 + rng() % 6) : kinds[rng() % 2];
    }
    if (rng() % 2) text += "$";
    AsPathPattern p = Pat(text);
    EXPECT_EQ(p.matches(path), p.matches(bgp::AsPath::Sequence(path.hops())))
        << path.ToString() << " ~ " << text;
  }
}

TEST(AsPathPattern, SpansSegmentBoundary) {
  bgp::AsPath path = Path({65001, 3356, 2914});
  path.append_segment({bgp::SegmentType::AsSet, {64512, 64513}});
  EXPECT_TRUE(Pat("2914 64512").matches(path));
  EXPECT_TRUE(Pat("% 64513$").matches(path));
  EXPECT_FALSE(Pat("2914 64513").matches(path));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsPathPatternRandom,
                         ::testing::Values(11u, 22u, 33u));

}  // namespace
}  // namespace bgps::core
