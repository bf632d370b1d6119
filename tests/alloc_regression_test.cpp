// Allocation-count regression tests for the arena / zero-copy decode
// hot path: this binary overrides global operator new/delete with a
// counting shim, decodes real MRT bytes, and pins the steady-state heap
// traffic at (near) zero. A change that re-introduces per-record
// allocations — a std::vector where a SmallVec belongs, an owning
// string where a view over the raw buffer belongs — fails here long
// before it would show up in a benchmark.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <random>

#include "bgp/attrs.hpp"
#include "core/filter.hpp"
#include "core/prefetch.hpp"
#include "core/stream.hpp"
#include "mrt/encode.hpp"
#include "mrt/file.hpp"

namespace {

std::atomic<size_t> g_allocs{0};

size_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace

// Counting shim over malloc/free. Every allocating form funnels through
// these two; the aligned forms exist because standard containers may
// over-align nodes.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  size_t align = std::max(sizeof(void*), static_cast<size_t>(al));
  if (posix_memalign(&p, align, n ? n : 1) == 0) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace bgps::core {
namespace {

using broker::DumpFileMeta;
using broker::DumpType;

// A realistic update file: every record announces one prefix with a
// short AS path and a couple of communities — all within the SmallVec
// inline capacities.
std::string WriteUpdatesFile(const std::filesystem::path& dir, size_t n) {
  std::string path = (dir / "updates.mrt").string();
  mrt::MrtFileWriter w;
  EXPECT_TRUE(w.Open(path).ok());
  for (size_t i = 0; i < n; ++i) {
    mrt::Bgp4mpMessage m;
    m.peer_asn = 65001;
    m.local_asn = 64512;
    m.peer_address = IpAddress::V4(10, 0, 0, 1);
    m.local_address = IpAddress::V4(192, 0, 2, 1);
    m.update.attrs.as_path = bgp::AsPath::Sequence({65001, 3356, 15169});
    m.update.attrs.next_hop = IpAddress::V4(10, 0, 0, 1);
    m.update.attrs.communities.push_back(bgp::Community{65001, 100});
    m.update.attrs.communities.push_back(bgp::Community{65001, 200});
    m.update.announced.push_back(
        Prefix(IpAddress::V4(10, uint8_t(i >> 8), uint8_t(i & 0xff), 0), 24));
    EXPECT_TRUE(
        w.Write(mrt::EncodeBgp4mpUpdate(1458000000 + Timestamp(i), m)).ok());
  }
  EXPECT_TRUE(w.Close().ok());
  return path;
}

// The tight frame+decode loop — MrtFileReader::Next into DecodeRecord —
// must be allocation-free at steady state: the reader's frame buffer is
// reused, the record body is a view into it, and every decoded container
// (AS path included) stays within its inline capacity. A warmed second
// pass over the whole file is allowed only a small constant slack
// (frame-buffer regrowth), NOT per-record heap traffic.
TEST(AllocRegressionTest, SteadyStateDecodeLoopIsAllocationFree) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("bgps_alloc_decode_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  constexpr size_t kRecords = 500;
  std::string path = WriteUpdatesFile(dir, kRecords);

  // Warm-up pass: grows the frame buffer to the largest record.
  {
    mrt::MrtFileReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    size_t decoded = 0;
    while (true) {
      auto raw = reader.Next();
      if (!raw.ok()) break;
      auto msg = mrt::DecodeRecord(*raw);
      ASSERT_TRUE(msg.ok());
      ++decoded;
    }
    ASSERT_EQ(decoded, kRecords);
  }

  // Measured pass: a fresh reader over the same file. Opening the reader
  // (ifstream internals) is excluded; the loop itself must not allocate
  // per record.
  mrt::MrtFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  size_t before = AllocCount();
  size_t decoded = 0;
  uint64_t checksum = 0;
  while (true) {
    auto raw = reader.Next();
    if (!raw.ok()) break;
    auto msg = mrt::DecodeRecord(*raw);
    ASSERT_TRUE(msg.ok());
    checksum += uint64_t(msg->timestamp);
    ++decoded;
  }
  size_t allocs = AllocCount() - before;
  EXPECT_EQ(decoded, kRecords);
  EXPECT_NE(checksum, 0u);
  // ~0 per record: the only tolerated allocations are the one-time
  // frame-buffer growth of the fresh reader.
  EXPECT_LE(allocs, 16u) << "steady-state decode allocated " << allocs
                         << " times for " << kRecords << " records";

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// Same property over a *generated* corpus: seeded-random records drawn
// from a pool of 64 distinct AS paths (2-8 hops) with varying prefixes,
// communities and withdrawals — realistic churn diversity instead of
// one repeated record. The steady-state loop must still be
// allocation-free. Everything stays within SmallVec inline capacities by
// construction: diversity, not blow-ups, is what this case adds.
std::string WriteGeneratedCorpusFile(const std::filesystem::path& dir,
                                     size_t n) {
  std::mt19937_64 rng(4242);
  std::vector<bgp::AsPath> pool;
  for (int p = 0; p < 64; ++p) {
    std::vector<bgp::Asn> hops;
    size_t len = 2 + rng() % 7;  // 2..8 hops, within AsnVec's inline 8
    for (size_t h = 0; h < len; ++h) hops.push_back(64512 + rng() % 1000);
    pool.push_back(bgp::AsPath::Sequence(std::move(hops)));
  }

  std::string path = (dir / "generated.mrt").string();
  mrt::MrtFileWriter w;
  EXPECT_TRUE(w.Open(path).ok());
  for (size_t i = 0; i < n; ++i) {
    mrt::Bgp4mpMessage m;
    m.peer_asn = 65001 + bgp::Asn(rng() % 4);
    m.local_asn = 64512;
    m.peer_address = IpAddress::V4(10, 0, 0, uint8_t(1 + rng() % 4));
    m.local_address = IpAddress::V4(192, 0, 2, 1);
    if (rng() % 8 == 0) {  // occasional pure withdrawal
      m.update.withdrawn.push_back(
          Prefix(IpAddress::V4(uint32_t(rng()) & 0xFFFFFF00u), 24));
    } else {
      m.update.attrs.as_path = pool[rng() % pool.size()];
      m.update.attrs.next_hop = IpAddress::V4(10, 0, 0, 1);
      size_t ncomm = rng() % 4;  // within Communities' inline 8
      for (size_t c = 0; c < ncomm; ++c)
        m.update.attrs.communities.push_back(
            bgp::Community(uint16_t(65001 + rng() % 4), uint16_t(rng() % 500)));
      size_t nprefix = 1 + rng() % 2;
      for (size_t p = 0; p < nprefix; ++p)
        m.update.announced.push_back(
            Prefix(IpAddress::V4(uint32_t(rng()) & 0xFFFFFF00u), 24));
    }
    EXPECT_TRUE(
        w.Write(mrt::EncodeBgp4mpUpdate(1458000000 + Timestamp(i), m)).ok());
  }
  EXPECT_TRUE(w.Close().ok());
  return path;
}

TEST(AllocRegressionTest, GeneratedCorpusDecodeLoopIsAllocationFree) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("bgps_alloc_corpus_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  constexpr size_t kRecords = 2000;
  std::string path = WriteGeneratedCorpusFile(dir, kRecords);

  // Warm-up: grows the frame buffer.
  {
    mrt::MrtFileReader reader;
    ASSERT_TRUE(reader.Open(path).ok());
    size_t decoded = 0;
    while (true) {
      auto raw = reader.Next();
      if (!raw.ok()) break;
      auto msg = mrt::DecodeRecord(*raw);
      ASSERT_TRUE(msg.ok());
      ++decoded;
    }
    ASSERT_EQ(decoded, kRecords);
  }

  mrt::MrtFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  size_t before = AllocCount();
  size_t decoded = 0;
  uint64_t checksum = 0;
  while (true) {
    auto raw = reader.Next();
    if (!raw.ok()) break;
    auto msg = mrt::DecodeRecord(*raw);
    ASSERT_TRUE(msg.ok());
    checksum += uint64_t(msg->timestamp);
    ++decoded;
  }
  size_t allocs = AllocCount() - before;
  EXPECT_EQ(decoded, kRecords);
  EXPECT_NE(checksum, 0u);
  EXPECT_LE(allocs, 16u) << "generated-corpus decode allocated " << allocs
                         << " times for " << kRecords << " records";

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// The full chunked pipeline — fill tasks decoding into the bounded
// buffer, the consumer popping — is allowed bounded bookkeeping (task
// objects, deque blocks), but nothing per-record-proportional beyond
// it. Pre-arena this path paid several container/string allocations on
// every single record.
TEST(AllocRegressionTest, ChunkedStreamPathAllocatesBoundedPerRecord) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("bgps_alloc_stream_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  constexpr size_t kRecords = 2000;
  std::string path = WriteUpdatesFile(dir, kRecords);
  DumpFileMeta meta;
  meta.project = "test";
  meta.collector = "alloc";
  meta.type = DumpType::Updates;
  meta.start = 1458000000;
  meta.duration = 3600;
  meta.path = path;

  PrefetchDecoder::Options opt;
  opt.threads = 1;
  opt.max_records_in_flight = 64;
  PrefetchDecoder decoder(std::move(opt));

  size_t before = AllocCount();
  decoder.Submit({meta});
  auto sources = decoder.WaitNextSources();
  ASSERT_EQ(sources.size(), 1u);
  size_t drained = 0;
  while (auto rec = sources[0]->Next()) {
    ASSERT_EQ(rec->status, RecordStatus::Valid);
    ++drained;
  }
  size_t allocs = AllocCount() - before;
  ASSERT_EQ(drained, kRecords);
  double per_record = double(allocs) / double(kRecords);
  EXPECT_LT(per_record, 4.0)
      << allocs << " allocations for " << kRecords
      << " records end to end (" << per_record << " per record)";

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// A RIB record for `prefix` seen by three VPs, each with a path and
// communities within the SmallVec inline capacities.
Record InlineRibRecord(Prefix prefix) {
  auto pit = std::make_shared<mrt::PeerIndexTable>();
  Record rec;
  rec.dump_type = DumpType::Rib;
  mrt::RibPrefix rib;
  rib.prefix = prefix;
  for (uint16_t i = 0; i < 3; ++i) {
    pit->peers.push_back(
        {i, IpAddress::V4(10, 0, 0, uint8_t(1 + i)), bgp::Asn(65001 + i)});
    mrt::RibEntry e;
    e.peer_index = i;
    e.attrs.as_path =
        bgp::AsPath::Sequence({65001u + i, 3356, 2914, 1299, 15169});
    e.attrs.next_hop = IpAddress::V4(10, 0, 0, uint8_t(1 + i));
    e.attrs.communities.push_back(bgp::Community(3356, 100));
    e.attrs.communities.push_back(bgp::Community(65535, 666));
    rib.entries.push_back(std::move(e));
  }
  rec.msg.body = std::move(rib);
  rec.peer_index = std::move(pit);
  return rec;
}

// Elems() asks the elem filters before it builds an elem, so a record
// the filters reject costs nothing and a kept one costs the returned
// vector alone (sized once for all of the record's elems; the paths and
// communities are copied into inline storage).
TEST(AllocRegressionTest, FilteredElemsAllocateOnlyTheReturnedVector) {
  BgpStream stream;
  ASSERT_TRUE(stream.AddFilter("prefix", "more 2.0.0.0/8").ok());
  ASSERT_TRUE(stream.AddFilter("elemtype", "ribs").ok());
  ASSERT_TRUE(stream.AddFilter("elemtype", "announcements").ok());
  Record rejected = InlineRibRecord(Prefix(IpAddress::V4(3, 1, 0, 0), 16));
  Record kept = InlineRibRecord(Prefix(IpAddress::V4(2, 1, 0, 0), 16));

  size_t before = AllocCount();
  std::vector<Elem> none = stream.Elems(rejected);
  size_t allocs = AllocCount() - before;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(allocs, 0u) << "a rejected RIB record allocated " << allocs
                        << " times";

  before = AllocCount();
  std::vector<Elem> elems = stream.Elems(kept);
  allocs = AllocCount() - before;
  EXPECT_EQ(elems.size(), 3u);
  EXPECT_EQ(allocs, 1u) << "a kept RIB record allocated " << allocs
                        << " times";
}

// An aspath filter matches a path within the inline capacities without
// a heap copy of its hops.
TEST(AllocRegressionTest, AsPathPatternMatchIsAllocationFree) {
  FilterSet filters;
  ASSERT_TRUE(filters.AddOption("aspath", "% 3356 * 1299").ok());
  Elem elem;
  elem.type = ElemType::Announcement;
  elem.prefix = Prefix(IpAddress::V4(2, 1, 0, 0), 16);
  elem.as_path =
      bgp::AsPath::Sequence({65001, 7018, 3356, 2914, 1299, 6939, 174, 15169});

  size_t before = AllocCount();
  bool matched = filters.MatchesElem(elem);
  size_t allocs = AllocCount() - before;
  EXPECT_TRUE(matched);
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace bgps::core
