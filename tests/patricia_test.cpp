#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "util/patricia.hpp"

namespace bgps {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }
IpAddress A(const std::string& s) { return *IpAddress::Parse(s); }

TEST(Patricia, InsertFind) {
  PatriciaTrie<int> t(IpFamily::V4);
  EXPECT_TRUE(t.insert(P("10.0.0.0/8"), 1));
  EXPECT_TRUE(t.insert(P("10.1.0.0/16"), 2));
  EXPECT_FALSE(t.insert(P("10.0.0.0/8"), 3));  // overwrite, not new
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(*t.find(P("10.0.0.0/8")), 3);
  EXPECT_EQ(*t.find(P("10.1.0.0/16")), 2);
  EXPECT_EQ(t.find(P("10.2.0.0/16")), nullptr);
}

TEST(Patricia, Erase) {
  PatriciaTrie<int> t(IpFamily::V4);
  t.insert(P("10.0.0.0/8"), 1);
  t.insert(P("10.1.0.0/16"), 2);
  EXPECT_TRUE(t.erase(P("10.0.0.0/8")));
  EXPECT_FALSE(t.erase(P("10.0.0.0/8")));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.find(P("10.0.0.0/8")), nullptr);
  EXPECT_NE(t.find(P("10.1.0.0/16")), nullptr);  // child survives
}

TEST(Patricia, LongestMatch) {
  PatriciaTrie<int> t(IpFamily::V4);
  t.insert(P("10.0.0.0/8"), 8);
  t.insert(P("10.1.0.0/16"), 16);
  t.insert(P("10.1.2.0/24"), 24);
  auto m = t.longest_match(A("10.1.2.3"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->second, 24);
  m = t.longest_match(A("10.1.3.1"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->second, 16);
  m = t.longest_match(A("10.200.0.1"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->second, 8);
  EXPECT_FALSE(t.longest_match(A("11.0.0.1")).has_value());
}

TEST(Patricia, LongestMatchSkipsInternalNodes) {
  PatriciaTrie<int> t(IpFamily::V4);
  // These two force a glue node at some shorter prefix with no value.
  t.insert(P("10.1.0.0/16"), 1);
  t.insert(P("10.2.0.0/16"), 2);
  EXPECT_FALSE(t.longest_match(A("10.3.0.1")).has_value());
  EXPECT_EQ(t.longest_match(A("10.2.5.5"))->second, 2);
}

TEST(Patricia, VisitMatchesOrder) {
  PatriciaTrie<int> t(IpFamily::V4);
  t.insert(P("10.0.0.0/8"), 8);
  t.insert(P("10.1.0.0/16"), 16);
  t.insert(P("10.1.2.0/24"), 24);
  std::vector<int> seen;
  t.visit_matches(A("10.1.2.3"), [&](const Prefix&, int v) { seen.push_back(v); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen.front(), 8);   // least specific first
  EXPECT_EQ(seen.back(), 24);   // most specific last
}

TEST(Patricia, Overlaps) {
  PatriciaTrie<int> t(IpFamily::V4);
  t.insert(P("10.1.0.0/16"), 1);
  EXPECT_TRUE(t.overlaps(P("10.0.0.0/8")));      // query contains stored
  EXPECT_TRUE(t.overlaps(P("10.1.2.0/24")));     // stored contains query
  EXPECT_TRUE(t.overlaps(P("10.1.0.0/16")));     // equal
  EXPECT_FALSE(t.overlaps(P("10.2.0.0/16")));
  EXPECT_FALSE(t.overlaps(P("11.0.0.0/8")));
}

TEST(Patricia, VisitOverlapsCollectsBothDirections) {
  PatriciaTrie<int> t(IpFamily::V4);
  t.insert(P("10.0.0.0/8"), 1);
  t.insert(P("10.1.0.0/16"), 2);
  t.insert(P("10.1.2.0/24"), 3);
  t.insert(P("11.0.0.0/8"), 4);
  std::set<int> seen;
  t.visit_overlaps(P("10.1.0.0/16"), [&](const Prefix&, int v) { seen.insert(v); });
  EXPECT_EQ(seen, (std::set<int>{1, 2, 3}));
}

TEST(Patricia, DefaultRouteMatchesAll) {
  PatriciaTrie<int> t(IpFamily::V4);
  t.insert(P("0.0.0.0/0"), 0);
  EXPECT_EQ(t.longest_match(A("1.2.3.4"))->second, 0);
  EXPECT_TRUE(t.overlaps(P("250.0.0.0/8")));
}

TEST(Patricia, V6Basics) {
  PatriciaTrie<int> t(IpFamily::V6);
  t.insert(P("2001:db8::/32"), 1);
  t.insert(P("2001:db8:1::/48"), 2);
  EXPECT_EQ(t.longest_match(A("2001:db8:1::5"))->second, 2);
  EXPECT_EQ(t.longest_match(A("2001:db8:2::5"))->second, 1);
  EXPECT_FALSE(t.longest_match(A("2002::1")).has_value());
}

TEST(Patricia, WrongFamilyQueriesAreSafe) {
  PatriciaTrie<int> t(IpFamily::V4);
  t.insert(P("10.0.0.0/8"), 1);
  EXPECT_FALSE(t.longest_match(A("2001:db8::1")).has_value());
  EXPECT_FALSE(t.overlaps(P("2001:db8::/32")));
}

TEST(PrefixTable, DualFamily) {
  PrefixTable<int> t;
  t.insert(P("10.0.0.0/8"), 4);
  t.insert(P("2001:db8::/32"), 6);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.longest_match(A("10.1.1.1"))->second, 4);
  EXPECT_EQ(t.longest_match(A("2001:db8::1"))->second, 6);
  EXPECT_TRUE(t.overlaps(P("10.1.0.0/16")));
  EXPECT_TRUE(t.overlaps(P("2001:db8:9::/48")));
}

// Property test: trie agrees with a brute-force reference on random data.
class PatriciaRandomized : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PatriciaRandomized, MatchesBruteForce) {
  std::mt19937 rng(GetParam());
  PatriciaTrie<uint32_t> t(IpFamily::V4);
  std::map<Prefix, uint32_t> ref;
  for (int i = 0; i < 300; ++i) {
    int len = int(rng() % 25) + 8;
    Prefix p(IpAddress::V4(rng()), len);
    uint32_t v = rng();
    t.insert(p, v);
    ref[p] = v;
  }
  ASSERT_EQ(t.size(), ref.size());
  // Exact lookups.
  for (const auto& [p, v] : ref) {
    auto* found = t.find(p);
    ASSERT_NE(found, nullptr) << p.ToString();
    EXPECT_EQ(*found, v);
  }
  // Longest-prefix matches on random addresses.
  for (int i = 0; i < 200; ++i) {
    IpAddress addr = IpAddress::V4(rng());
    std::optional<Prefix> best;
    for (const auto& [p, v] : ref) {
      if (p.contains(addr) && (!best || p.length() > best->length())) best = p;
    }
    auto got = t.longest_match(addr);
    if (best) {
      ASSERT_TRUE(got.has_value()) << addr.ToString();
      EXPECT_EQ(got->first, *best) << addr.ToString();
    } else {
      EXPECT_FALSE(got.has_value()) << addr.ToString();
    }
  }
  // Overlap queries on random prefixes.
  for (int i = 0; i < 100; ++i) {
    Prefix q(IpAddress::V4(rng()), int(rng() % 33));
    bool expect = false;
    for (const auto& [p, v] : ref) {
      if (p.overlaps(q)) {
        expect = true;
        break;
      }
    }
    EXPECT_EQ(t.overlaps(q), expect) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatriciaRandomized,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// Erase agrees with brute force and prunes: after removing everything,
// no node (value-carrying or glue) may remain.
TEST_P(PatriciaRandomized, EraseMatchesBruteForceAndPrunes) {
  std::mt19937 rng(GetParam() * 77 + 1);
  PatriciaTrie<uint32_t> t(IpFamily::V4);
  std::map<Prefix, uint32_t> ref;
  for (int i = 0; i < 300; ++i) {
    int len = int(rng() % 25) + 8;
    Prefix p(IpAddress::V4(rng()), len);
    uint32_t v = rng();
    t.insert(p, v);
    ref[p] = v;
  }
  // Erase a random half, checking lookups against the reference as we go.
  std::vector<Prefix> keys;
  for (const auto& [p, _] : ref) keys.push_back(p);
  for (size_t i = 0; i < keys.size(); i += 2) {
    EXPECT_TRUE(t.erase(keys[i]));
    EXPECT_FALSE(t.erase(keys[i]));  // idempotent
    ref.erase(keys[i]);
  }
  ASSERT_EQ(t.size(), ref.size());
  for (const auto& [p, v] : ref) {
    auto* found = t.find(p);
    ASSERT_NE(found, nullptr) << p.ToString();
    EXPECT_EQ(*found, v);
  }
  for (int i = 0; i < 100; ++i) {
    IpAddress addr = IpAddress::V4(rng());
    std::optional<Prefix> best;
    for (const auto& [p, v] : ref) {
      if (p.contains(addr) && (!best || p.length() > best->length())) best = p;
    }
    auto got = t.longest_match(addr);
    EXPECT_EQ(got.has_value(), best.has_value()) << addr.ToString();
    if (got && best) {
      EXPECT_EQ(got->first, *best);
    }
  }
  // Remove the rest: the trie must shed every node, glue included.
  for (const auto& [p, _] : ref) EXPECT_TRUE(t.erase(p));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.node_count(), 0u);
}

TEST(Patricia, ErasePrunesGlueNodes) {
  PatriciaTrie<int> t(IpFamily::V4);
  // Two diverging /16s force a glue node at their common prefix.
  t.insert(P("10.1.0.0/16"), 1);
  t.insert(P("10.2.0.0/16"), 2);
  EXPECT_EQ(t.node_count(), 3u);  // glue + two leaves
  EXPECT_TRUE(t.erase(P("10.1.0.0/16")));
  // The glue node lost one child: it must be spliced out, not leaked.
  EXPECT_EQ(t.node_count(), 1u);
  EXPECT_NE(t.find(P("10.2.0.0/16")), nullptr);
  EXPECT_TRUE(t.erase(P("10.2.0.0/16")));
  EXPECT_EQ(t.node_count(), 0u);
}

TEST(Patricia, EraseKeepsValuedAncestorsAndBranchNodes) {
  PatriciaTrie<int> t(IpFamily::V4);
  // The two /16s diverge at bit 8, directly under the /8: the /8 node
  // holds both children itself (no glue in between).
  t.insert(P("10.0.0.0/8"), 8);
  t.insert(P("10.0.0.0/16"), 16);
  t.insert(P("10.128.0.0/16"), 17);
  ASSERT_EQ(t.node_count(), 3u);
  // The /8 still has two children after losing its value: stays as a
  // branch node.
  EXPECT_TRUE(t.erase(P("10.0.0.0/8")));
  EXPECT_EQ(t.node_count(), 3u);
  EXPECT_EQ(t.find(P("10.0.0.0/8")), nullptr);
  EXPECT_EQ(*t.find(P("10.0.0.0/16")), 16);
  EXPECT_EQ(t.longest_match(A("10.128.5.5"))->second, 17);
  // A valueless single-child node created by erasing a leaf's sibling
  // is spliced: erase one /16, only the other survives as the root.
  EXPECT_TRUE(t.erase(P("10.0.0.0/16")));
  EXPECT_EQ(t.node_count(), 1u);
  EXPECT_EQ(*t.find(P("10.128.0.0/16")), 17);
}

TEST(Patricia, KeysReservesAndMatchesVisitAll) {
  PatriciaTrie<int> t(IpFamily::V4);
  std::set<Prefix> expect;
  std::mt19937 rng(11);
  for (int i = 0; i < 500; ++i) {
    Prefix p(IpAddress::V4(rng()), int(rng() % 25) + 8);
    t.insert(p, i);
    expect.insert(p);
  }
  auto keys = t.keys();
  EXPECT_EQ(keys.size(), expect.size());
  EXPECT_EQ(std::set<Prefix>(keys.begin(), keys.end()), expect);
}

TEST(Patricia, DeepChainTraversalsAreIterative) {
  // A maximal one-branch chain: /8../32 nested prefixes. Visitors must
  // walk it with their explicit stack (and erase must unwind it fully).
  PatriciaTrie<int> t(IpFamily::V4);
  for (int len = 8; len <= 32; ++len) {
    t.insert(Prefix(A("10.0.0.0"), len), len);
  }
  size_t seen = 0;
  t.visit_all([&](const Prefix&, int) { ++seen; });
  EXPECT_EQ(seen, 25u);
  EXPECT_EQ(t.keys().size(), 25u);
  size_t overlap_hits = 0;
  t.visit_overlaps(P("10.0.0.0/8"),
                   [&](const Prefix&, int) { ++overlap_hits; });
  EXPECT_EQ(overlap_hits, 25u);
  for (int len = 8; len <= 32; ++len)
    EXPECT_TRUE(t.erase(Prefix(A("10.0.0.0"), len)));
  EXPECT_EQ(t.node_count(), 0u);
}

TEST(Patricia, SnapshotIsIsolatedFromLaterWrites) {
  PatriciaTrie<int> t(IpFamily::V4);
  t.insert(P("10.0.0.0/8"), 1);
  t.insert(P("10.1.0.0/16"), 2);
  auto snap = t.snapshot();
  // Mutate the live trie: overwrite, add, erase.
  t.insert(P("10.0.0.0/8"), 99);
  t.insert(P("11.0.0.0/8"), 3);
  t.erase(P("10.1.0.0/16"));
  // The snapshot still shows the captured epoch.
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_EQ(*snap.find(P("10.0.0.0/8")), 1);
  EXPECT_EQ(*snap.find(P("10.1.0.0/16")), 2);
  EXPECT_EQ(snap.find(P("11.0.0.0/8")), nullptr);
  EXPECT_EQ(snap.longest_match(A("10.1.2.3"))->second, 2);
  EXPECT_TRUE(snap.overlaps(P("10.1.0.0/24")));
  EXPECT_FALSE(snap.overlaps(P("11.0.0.0/8")));
  EXPECT_EQ(snap.keys().size(), 2u);
  // And the live trie shows the new one.
  EXPECT_EQ(*t.find(P("10.0.0.0/8")), 99);
  EXPECT_NE(t.find(P("11.0.0.0/8")), nullptr);
  EXPECT_EQ(t.find(P("10.1.0.0/16")), nullptr);
}

TEST(PrefixTable, SnapshotCoversBothFamilies) {
  PrefixTable<int> t;
  t.insert(P("10.0.0.0/8"), 4);
  t.insert(P("2001:db8::/32"), 6);
  auto snap = t.snapshot();
  t.erase(P("10.0.0.0/8"));
  t.erase(P("2001:db8::/32"));
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.longest_match(A("10.1.1.1"))->second, 4);
  EXPECT_EQ(snap.longest_match(A("2001:db8::1"))->second, 6);
  EXPECT_TRUE(snap.overlaps(P("10.1.0.0/16")));
  EXPECT_TRUE(t.empty());
}

// Single writer, concurrent snapshot readers: every snapshot must be a
// consistent epoch — its key count matches its size header, every key it
// reports resolves, and (the trie only ever grows here) every key seen
// in an earlier snapshot is still present in a later one.
TEST(Patricia, ConcurrentSnapshotReadsWhileInserting) {
  PatriciaTrie<uint32_t> t(IpFamily::V4);
  constexpr int kInserts = 20000;
  std::atomic<bool> done{false};
  std::atomic<int> inserted{0};

  std::thread writer([&] {
    std::mt19937 rng(123);
    for (int i = 0; i < kInserts; ++i) {
      t.insert(Prefix(IpAddress::V4(rng()), int(rng() % 25) + 8), uint32_t(i));
      inserted.store(i + 1, std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  std::atomic<bool> torn{false};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937 rng(1000 + r);
      size_t last_size = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto snap = t.snapshot();
        auto keys = snap.keys();
        if (keys.size() != snap.size()) torn = true;      // torn epoch
        if (snap.size() + 64 < last_size) torn = true;    // size went back
        last_size = std::max(last_size, snap.size());
        for (size_t i = 0; i < std::min<size_t>(keys.size(), 32); ++i) {
          if (snap.find(keys[i]) == nullptr) torn = true;  // key vanished
        }
        // Live-trie reads pin the root per query: must never crash or
        // return garbage mid-write either.
        (void)t.longest_match(IpAddress::V4(rng()));
        (void)t.overlaps(Prefix(IpAddress::V4(rng()), 16));
      }
    });
  }
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(int(t.size()) <= kInserts, true);
  auto final_snap = t.snapshot();
  EXPECT_EQ(final_snap.keys().size(), final_snap.size());
}

}  // namespace
}  // namespace bgps
