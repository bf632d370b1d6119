// Tests of the asynchronous prefetching decode stage (paper §3.1): the
// PrefetchDecoder pool itself, and BgpStream equivalence between the
// synchronous and prefetched paths.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <thread>

#include "core/prefetch.hpp"
#include "core/stream.hpp"
#include "mrt/encode.hpp"
#include "mrt/file.hpp"
#include "tests/sim_fixture.hpp"

namespace bgps::core {
namespace {

using broker::DumpFileMeta;
using broker::DumpType;

// A subset of intentionally unopenable files: each decodes to exactly one
// CorruptedDump record, which makes decoder output fully deterministic
// without touching disk.
std::vector<DumpFileMeta> BogusSubset(const std::string& tag, size_t n) {
  std::vector<DumpFileMeta> files;
  for (size_t i = 0; i < n; ++i) {
    DumpFileMeta f;
    f.project = "test";
    f.collector = tag + "-" + std::to_string(i);
    f.type = DumpType::Updates;
    f.start = Timestamp(1000 * (i + 1));
    f.duration = 300;
    f.path = "/nonexistent/" + tag + "/" + std::to_string(i) + ".mrt";
    files.push_back(f);
  }
  return files;
}

// Takes the oldest whole-file subset off `decoder` and drains each of its
// sources, keeping file order.
std::vector<DecodedDump> DrainNextSubset(PrefetchDecoder& decoder) {
  std::vector<DecodedDump> dumps;
  for (auto& source : decoder.WaitNextSources()) {
    DecodedDump& dump = dumps.emplace_back();
    dump.meta = source->meta();
    while (auto rec = source->Next()) dump.records.push_back(std::move(*rec));
  }
  return dumps;
}

// DumpReader::Skip — the idle-reclaim resume path — must count exactly
// Next()'s record cadence and keep the PEER_INDEX_TABLE alive, so a
// post-skip RIB record still decomposes into per-VP elems.
TEST(DumpReaderSkipTest, SkipMatchesNextCadenceAcrossARibDump) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("bgps_skip_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::string path = (dir / "rib.mrt").string();
  constexpr int kRibRecords = 12;
  {
    mrt::MrtFileWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    mrt::PeerIndexTable pit;
    pit.collector_bgp_id = 0x0a000001;
    mrt::PeerEntry pe;
    pe.bgp_id = 0x0a000002;
    pe.address = IpAddress::V4(10, 0, 0, 2);
    pe.asn = 65001;
    pit.peers.push_back(pe);
    ASSERT_TRUE(w.Write(mrt::EncodePeerIndexTable(1458000000, pit)).ok());
    for (int i = 0; i < kRibRecords; ++i) {
      mrt::RibPrefix rib;
      rib.sequence = uint32_t(i);
      rib.prefix = Prefix(IpAddress::V4(uint32_t(20 + i) << 24), 16);
      mrt::RibEntry e;
      e.peer_index = 0;
      e.originated_time = 1458000000;
      e.attrs.as_path = bgp::AsPath::Sequence({65001, 15169});
      e.attrs.next_hop = IpAddress::V4(10, 0, 0, 2);
      rib.entries.push_back(std::move(e));
      ASSERT_TRUE(
          w.Write(mrt::EncodeRibPrefix(1458000000, rib, IpFamily::V4)).ok());
    }
    ASSERT_TRUE(w.Close().ok());
  }
  DumpFileMeta meta;
  meta.project = "test";
  meta.collector = "rib";
  meta.type = DumpType::Rib;
  meta.start = 1458000000;
  meta.duration = 300;
  meta.path = path;

  // Baseline: the full Next() sequence, with per-record elem counts.
  struct Fp {
    int position;
    int status;
    size_t elems;
    std::string first_prefix;
  };
  std::vector<Fp> all;
  {
    DumpReader reader(meta);
    while (auto rec = reader.Next()) {
      auto elems = ExtractElems(*rec);
      all.push_back({int(rec->position), int(rec->status), elems.size(),
                     elems.empty() ? "" : elems[0].prefix.ToString()});
    }
  }
  constexpr size_t kTotal = 1 + kRibRecords;  // peer index + RIBs
  ASSERT_EQ(all.size(), kTotal);

  for (size_t skip : {size_t(0), size_t(1), size_t(5), kTotal, kTotal + 3}) {
    DumpReader reader(meta);
    EXPECT_EQ(reader.Skip(skip), std::min(skip, kTotal)) << "skip " << skip;
    std::vector<Fp> rest;
    while (auto rec = reader.Next()) {
      // The peer index must have been ingested during the skip: RIB
      // records after it still extract their per-VP elems.
      auto elems = ExtractElems(*rec);
      rest.push_back({int(rec->position), int(rec->status), elems.size(),
                      elems.empty() ? "" : elems[0].prefix.ToString()});
    }
    ASSERT_EQ(rest.size(), kTotal - std::min(skip, kTotal)) << "skip " << skip;
    for (size_t i = 0; i < rest.size(); ++i) {
      EXPECT_EQ(rest[i].status, all[skip + i].status) << skip << "/" << i;
      EXPECT_EQ(rest[i].elems, all[skip + i].elems) << skip << "/" << i;
      EXPECT_EQ(rest[i].first_prefix, all[skip + i].first_prefix)
          << skip << "/" << i;
      if (skip > 0) {
        // Records after a skip are never re-marked Start; End survives.
        EXPECT_NE(rest[i].position, int(DumpPosition::Start))
            << skip << "/" << i;
      } else {
        EXPECT_EQ(rest[i].position, all[i].position) << i;
      }
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// DumpReader::Checkpoint — the O(1) idle-reclaim resume path — must
// reconstruct the exact Next() tail by seeking, reading only the frames
// it re-produces, with the PEER_INDEX_TABLE restored from the snapshot
// so post-resume RIB records still decompose into per-VP elems.
TEST(DumpReaderCheckpointTest, SeekResumeReproducesTailAcrossARibDump) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("bgps_checkpoint_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::string path = (dir / "rib.mrt").string();
  constexpr int kRibRecords = 12;
  {
    mrt::MrtFileWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    mrt::PeerIndexTable pit;
    pit.collector_bgp_id = 0x0a000001;
    mrt::PeerEntry pe;
    pe.bgp_id = 0x0a000002;
    pe.address = IpAddress::V4(10, 0, 0, 2);
    pe.asn = 65001;
    pit.peers.push_back(pe);
    ASSERT_TRUE(w.Write(mrt::EncodePeerIndexTable(1458000000, pit)).ok());
    for (int i = 0; i < kRibRecords; ++i) {
      mrt::RibPrefix rib;
      rib.sequence = uint32_t(i);
      rib.prefix = Prefix(IpAddress::V4(uint32_t(20 + i) << 24), 16);
      mrt::RibEntry e;
      e.peer_index = 0;
      e.originated_time = 1458000000;
      e.attrs.as_path = bgp::AsPath::Sequence({65001, 15169});
      e.attrs.next_hop = IpAddress::V4(10, 0, 0, 2);
      rib.entries.push_back(std::move(e));
      ASSERT_TRUE(
          w.Write(mrt::EncodeRibPrefix(1458000000, rib, IpFamily::V4)).ok());
    }
    ASSERT_TRUE(w.Close().ok());
  }
  DumpFileMeta meta;
  meta.project = "test";
  meta.collector = "rib";
  meta.type = DumpType::Rib;
  meta.start = 1458000000;
  meta.duration = 300;
  meta.path = path;

  struct Fp {
    int position;
    int status;
    size_t elems;
    std::string first_prefix;
  };
  auto fingerprint = [](const Record& rec) {
    auto elems = ExtractElems(rec);
    return Fp{int(rec.position), int(rec.status), elems.size(),
              elems.empty() ? "" : elems[0].prefix.ToString()};
  };

  // Baseline pass, capturing every record's checkpoint.
  std::vector<Fp> all;
  std::vector<DumpReader::Checkpoint> cps;
  {
    DumpReader reader(meta);
    while (auto rec = reader.Next()) {
      all.push_back(fingerprint(*rec));
      cps.push_back(reader.last_checkpoint());
    }
  }
  constexpr size_t kTotal = 1 + kRibRecords;  // peer index + RIBs
  ASSERT_EQ(all.size(), kTotal);
  for (size_t i = 0; i < kTotal; ++i) {
    ASSERT_TRUE(cps[i].valid) << i;
    EXPECT_EQ(cps[i].index, i);
  }
  // The table is in effect for every record after the one that carries
  // it — and snapshotted *pre*-record, so record 0's checkpoint has
  // none and record 1's does.
  EXPECT_EQ(cps[0].peer_index, nullptr);
  ASSERT_NE(cps[1].peer_index, nullptr);

  for (size_t k : {size_t(0), size_t(1), size_t(5), kTotal - 1}) {
    DumpReader reader(meta, cps[k]);
    std::vector<Fp> rest;
    while (auto rec = reader.Next()) rest.push_back(fingerprint(*rec));
    ASSERT_EQ(rest.size(), kTotal - k) << "resume at " << k;
    for (size_t i = 0; i < rest.size(); ++i) {
      EXPECT_EQ(rest[i].status, all[k + i].status) << k << "/" << i;
      // Peer-index table intact: identical elem decomposition.
      EXPECT_EQ(rest[i].elems, all[k + i].elems) << k << "/" << i;
      EXPECT_EQ(rest[i].first_prefix, all[k + i].first_prefix)
          << k << "/" << i;
      EXPECT_EQ(rest[i].position, all[k + i].position) << k << "/" << i;
    }
    // Read accounting: the seek resume frames only the records it
    // re-produces — never the prefix in front of the checkpoint.
    EXPECT_EQ(reader.frames_read(), kTotal - k) << "resume at " << k;
  }

  // The dump vanished before the resume (archive rotation): a mid-file
  // checkpoint ends silently — matching the Skip fallback's exhaustion
  // behavior — while an index-0 one behaves like a fresh failed open
  // (one CorruptedDump record).
  std::error_code ec;
  fs::remove_all(dir, ec);
  {
    DumpReader reader(meta, cps[5]);
    EXPECT_EQ(reader.Next(), std::nullopt);
  }
  {
    DumpReader reader(meta, cps[0]);
    auto rec = reader.Next();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->status, RecordStatus::CorruptedDump);
    EXPECT_EQ(reader.Next(), std::nullopt);
  }
}

// Idle-reclaim resume on a large RIB dump: the refill must seek to the
// stored checkpoint (one extra file open, zero re-framed prefix
// records) and the emitted sequence — per-VP elems included — must be
// identical to an undisturbed decode.
TEST(PrefetchDecoderTest, ReclaimResumeSeeksInsteadOfRereadingLargeFile) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("bgps_seek_resume_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::string path = (dir / "big_rib.mrt").string();
  constexpr size_t kRibRecords = 4000;
  {
    mrt::MrtFileWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    mrt::PeerIndexTable pit;
    pit.collector_bgp_id = 0x0a000001;
    mrt::PeerEntry pe;
    pe.bgp_id = 0x0a000002;
    pe.address = IpAddress::V4(10, 0, 0, 2);
    pe.asn = 65001;
    pit.peers.push_back(pe);
    ASSERT_TRUE(w.Write(mrt::EncodePeerIndexTable(1458000000, pit)).ok());
    for (size_t i = 0; i < kRibRecords; ++i) {
      mrt::RibPrefix rib;
      rib.sequence = uint32_t(i);
      rib.prefix =
          Prefix(IpAddress::V4(10, uint8_t(i >> 8), uint8_t(i & 0xff), 0), 24);
      mrt::RibEntry e;
      e.peer_index = 0;
      e.originated_time = 1458000000;
      e.attrs.as_path = bgp::AsPath::Sequence({65001, 15169});
      e.attrs.next_hop = IpAddress::V4(10, 0, 0, 2);
      rib.entries.push_back(std::move(e));
      ASSERT_TRUE(
          w.Write(mrt::EncodeRibPrefix(1458000000, rib, IpFamily::V4)).ok());
    }
    ASSERT_TRUE(w.Close().ok());
  }
  DumpFileMeta meta;
  meta.project = "test";
  meta.collector = "bigrib";
  meta.type = DumpType::Rib;
  meta.start = 1458000000;
  meta.duration = 300;
  meta.path = path;
  constexpr size_t kTotal = 1 + kRibRecords;

  std::vector<std::string> expect;  // first-elem prefix per record
  {
    DecodedDump dump = DecodeDumpFile(meta);
    ASSERT_EQ(dump.records.size(), kTotal);
    for (const auto& rec : dump.records) {
      auto elems = ExtractElems(rec);
      expect.push_back(elems.empty() ? "" : elems[0].prefix.ToString());
    }
  }

  auto ex = std::make_shared<Executor>(Executor::Options{.threads = 2});
  std::atomic<size_t> opens{0};
  PrefetchDecoder::Options opt;
  opt.executor = ex;
  opt.max_records_in_flight = 64;
  opt.idle_reclaim_rounds = 5;
  opt.decode.file_open_hook = [&opens](const DumpFileMeta&) { ++opens; };
  PrefetchDecoder decoder(std::move(opt));
  decoder.Submit({meta});
  auto sources = decoder.WaitNextSources();
  ASSERT_EQ(sources.size(), 1u);

  // Drain most of the file, then pause the consumer mid-stream.
  constexpr size_t kBeforePause = 3000;
  std::vector<std::string> got;
  for (size_t i = 0; i < kBeforePause; ++i) {
    auto rec = sources[0]->Next();
    ASSERT_TRUE(rec.has_value()) << i;
    auto elems = ExtractElems(*rec);
    got.push_back(elems.empty() ? "" : elems[0].prefix.ToString());
  }

  auto wait_for = [](auto pred) {
    auto until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pred()) {
      if (std::chrono::steady_clock::now() > until) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  };
  // Let the fill tasks settle: refills are only scheduled when a pop
  // finds the buffer at or below half capacity, so after the pause the
  // buffer rests anywhere above half (a still-running fill tops it to
  // capacity). Then drive the waiter-driven trigger exactly as a
  // governor contention hook would. (A busy fill just defers the pass:
  // it retries on unclaim; and if dispatch already crossed the idle
  // threshold on its own the pass may have fired early, which the ||
  // arm absorbs.)
  ASSERT_TRUE(wait_for([&] {
    return (decoder.buffered_records() > 32 && decoder.queued_tasks() == 0) ||
           decoder.reclaims() >= 1;
  }));
  // Mark/confirm needs at least two signals with no consumer activity
  // in between; keep signalling (as a blocked governor Acquire would)
  // until the pass fires.
  {
    auto until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (decoder.reclaims() == 0 &&
           std::chrono::steady_clock::now() < until) {
      ex->RequestReclaimTick();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ASSERT_TRUE(wait_for([&] { return decoder.reclaims() >= 1; }));
  ASSERT_TRUE(wait_for([&] { return decoder.buffered_records() == 0; }));

  // Resume: the tail re-decodes from the checkpoint seek — no
  // re-open-and-Skip pass, exactly one extra file open — and matches
  // the undisturbed sequence, per-VP elems intact.
  while (auto rec = sources[0]->Next()) {
    auto elems = ExtractElems(*rec);
    got.push_back(elems.empty() ? "" : elems[0].prefix.ToString());
  }
  EXPECT_EQ(got.size(), expect.size());
  EXPECT_EQ(got, expect);
  EXPECT_GE(decoder.reclaims(), 1u);
  EXPECT_GE(decoder.seek_resumes(), 1u);
  EXPECT_EQ(decoder.skip_resumes(), 0u);
  EXPECT_EQ(opens.load(), 1u + decoder.seek_resumes());
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// K reclaim-enabled decoders sharing one executor and one governor pool
// a single contention hook through the ReclaimTickRegistry — the hook
// list must not grow K-wide (each re-signal would fire K redundant
// reclaim ticks), and the hook must outlive any individual decoder
// while at least one share remains.
TEST(PrefetchDecoderTest, DecodersSharingExecutorPoolOneContentionHook) {
  auto gov = std::make_shared<MemoryGovernor>(8);
  Executor::Options eopt;
  eopt.threads = 2;
  auto executor = std::make_shared<Executor>(eopt);
  ASSERT_EQ(gov->contention_hook_count(), 0u);

  std::vector<std::unique_ptr<PrefetchDecoder>> decoders;
  for (int i = 0; i < 4; ++i) {
    PrefetchDecoder::Options opt;
    opt.executor = executor;
    opt.governor = gov;
    opt.max_records_in_flight = 16;
    opt.idle_reclaim_rounds = 3;
    decoders.push_back(std::make_unique<PrefetchDecoder>(std::move(opt)));
    EXPECT_EQ(gov->contention_hook_count(), 1u);
  }

  // A decoder with a private executor is a distinct (governor, executor)
  // pair and rightly gets its own hook — scoped, so it unhooks on exit.
  {
    PrefetchDecoder::Options solo;
    solo.threads = 1;
    solo.governor = gov;
    solo.max_records_in_flight = 16;
    solo.idle_reclaim_rounds = 3;
    PrefetchDecoder lone(std::move(solo));
    EXPECT_EQ(gov->contention_hook_count(), 2u);
  }
  EXPECT_EQ(gov->contention_hook_count(), 1u);

  // The pooled hook survives until the LAST sharing decoder is gone.
  while (decoders.size() > 1) {
    decoders.pop_back();
    EXPECT_EQ(gov->contention_hook_count(), 1u);
  }
  decoders.clear();
  EXPECT_EQ(gov->contention_hook_count(), 0u);
}

// The executor+governor embedding without a StreamPool: the decoder
// wires the governor's contention hook itself, so a paused consumer's
// buffers are reclaimed for a blocked rival demand with no manual
// ticking and no timer anywhere — and the stream still resumes
// losslessly.
TEST(PrefetchDecoderTest, BlockedGovernorDemandTriggersReclaimWithoutPool) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("bgps_hook_reclaim_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::string path = (dir / "updates.mrt").string();
  constexpr size_t kRecords = 600;
  {
    mrt::MrtFileWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    for (size_t i = 0; i < kRecords; ++i) {
      mrt::Bgp4mpMessage m;
      m.peer_asn = 65001;
      m.local_asn = 64512;
      m.peer_address = IpAddress::V4(10, 0, 0, 1);
      m.local_address = IpAddress::V4(192, 0, 2, 1);
      m.update.attrs.as_path = bgp::AsPath::Sequence({65001, 15169});
      m.update.attrs.next_hop = IpAddress::V4(10, 0, 0, 1);
      m.update.announced.push_back(
          Prefix(IpAddress::V4(10, uint8_t(i >> 8), uint8_t(i & 0xff), 0),
                 24));
      ASSERT_TRUE(w.Write(mrt::EncodeBgp4mpUpdate(
                              1458000000 + Timestamp(i), m)).ok());
    }
    ASSERT_TRUE(w.Close().ok());
  }
  DumpFileMeta meta;
  meta.project = "test";
  meta.collector = "hooked";
  meta.type = DumpType::Updates;
  meta.start = 1458000000;
  meta.duration = 3600;
  meta.path = path;

  auto gov = std::make_shared<MemoryGovernor>(24);
  PrefetchDecoder::Options opt;
  opt.threads = 2;  // private executor: nobody but the decoder wires hooks
  opt.governor = gov;
  opt.max_records_in_flight = 16;
  opt.idle_reclaim_rounds = 3;
  PrefetchDecoder decoder(std::move(opt));
  ASSERT_TRUE(gov->Acquire(1).ok());  // the subset's floor slot
  decoder.Submit({meta});
  auto sources = decoder.WaitNextSources();
  ASSERT_EQ(sources.size(), 1u);

  std::vector<Timestamp> got;
  for (size_t i = 0; i < 100; ++i) {
    auto rec = sources[0]->Next();
    ASSERT_TRUE(rec.has_value()) << i;
    got.push_back(rec->timestamp);
  }

  auto wait_for = [](auto pred) {
    auto until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pred()) {
      if (std::chrono::steady_clock::now() > until) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  };
  // Consumer paused with a loaded buffer; its leases stay parked...
  ASSERT_TRUE(wait_for([&] {
    return decoder.buffered_records() > 8 && decoder.queued_tasks() == 0;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(decoder.reclaims(), 0u);  // no contention, no reclaim

  // ...until a rival demand blocks: its re-signals alone drive the
  // mark/confirm reclaim through the decoder-wired hook, free the
  // leases, and thereby unblock the rival.
  std::thread rival([&] {
    Status st = gov->Acquire(23);
    EXPECT_TRUE(st.ok()) << st.ToString();
    gov->Release(23);
  });
  ASSERT_TRUE(wait_for([&] { return decoder.reclaims() >= 1; }));
  rival.join();

  // Resume: the tail matches an undisturbed decode.
  while (auto rec = sources[0]->Next()) got.push_back(rec->timestamp);
  ASSERT_EQ(got.size(), kRecords);
  for (size_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(got[i], Timestamp(1458000000 + i)) << i;
  }
  EXPECT_GE(decoder.seek_resumes() + decoder.skip_resumes(), 1u);
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// Regression: reclaim must release the per-file floor slots too. A
// reclaimed tenant that never drains another record used to keep one
// floor slot per file parked forever, so a rival demanding the *full*
// budget could never be granted. Post-fix the tenant's governor
// footprint drains to zero and the floor is re-acquired (fair FIFO)
// only when the consumer actually resumes.
TEST(PrefetchDecoderTest, ReclaimReleasesFloorSlotsOfNeverDrainedTenant) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("bgps_floor_release_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::string path = (dir / "updates.mrt").string();
  constexpr size_t kRecords = 600;
  {
    mrt::MrtFileWriter w;
    ASSERT_TRUE(w.Open(path).ok());
    for (size_t i = 0; i < kRecords; ++i) {
      mrt::Bgp4mpMessage m;
      m.peer_asn = 65001;
      m.local_asn = 64512;
      m.peer_address = IpAddress::V4(10, 0, 0, 1);
      m.local_address = IpAddress::V4(192, 0, 2, 1);
      m.update.attrs.as_path = bgp::AsPath::Sequence({65001, 15169});
      m.update.attrs.next_hop = IpAddress::V4(10, 0, 0, 1);
      m.update.announced.push_back(
          Prefix(IpAddress::V4(10, uint8_t(i >> 8), uint8_t(i & 0xff), 0),
                 24));
      ASSERT_TRUE(w.Write(mrt::EncodeBgp4mpUpdate(
                              1458000000 + Timestamp(i), m)).ok());
    }
    ASSERT_TRUE(w.Close().ok());
  }
  DumpFileMeta meta;
  meta.project = "test";
  meta.collector = "floored";
  meta.type = DumpType::Updates;
  meta.start = 1458000000;
  meta.duration = 3600;
  meta.path = path;

  constexpr size_t kBudget = 24;
  auto gov = std::make_shared<MemoryGovernor>(kBudget);
  PrefetchDecoder::Options opt;
  opt.threads = 2;  // private executor: the decoder wires the hook itself
  opt.governor = gov;
  opt.max_records_in_flight = 16;
  opt.idle_reclaim_rounds = 3;
  PrefetchDecoder decoder(std::move(opt));
  ASSERT_TRUE(gov->Acquire(1).ok());  // the subset's floor slot
  decoder.Submit({meta});
  auto sources = decoder.WaitNextSources();
  ASSERT_EQ(sources.size(), 1u);

  auto wait_for = [](auto pred) {
    auto until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pred()) {
      if (std::chrono::steady_clock::now() > until) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  };
  // The consumer never pops a single record; the fills settle with a
  // loaded buffer whose leases (floor included) are all parked.
  ASSERT_TRUE(wait_for([&] {
    return decoder.buffered_records() > 8 && decoder.queued_tasks() == 0;
  }));

  // A rival demanding the ENTIRE budget is only grantable if the
  // reclaim releases every lease — the floor slot too. Pre-fix the
  // floor stayed parked (in_use == 1) and this Acquire hung forever.
  std::atomic<bool> granted{false};
  std::thread rival([&] {
    Status st = gov->Acquire(kBudget);
    EXPECT_TRUE(st.ok()) << st.ToString();
    granted.store(true);
    gov->Release(kBudget);
  });
  ASSERT_TRUE(wait_for([&] { return decoder.reclaims() >= 1; }));
  ASSERT_TRUE(wait_for([&] { return granted.load(); }));
  rival.join();
  // The never-resumed tenant's governor footprint is zero.
  ASSERT_TRUE(wait_for([&] { return gov->in_use() == 0; }));

  // Resume: the refill's open leg re-acquires the floor through the
  // fair FIFO Acquire and the tail matches an undisturbed decode.
  std::vector<Timestamp> got;
  while (auto rec = sources[0]->Next()) got.push_back(rec->timestamp);
  ASSERT_EQ(got.size(), kRecords);
  for (size_t i = 0; i < kRecords; ++i) {
    EXPECT_EQ(got[i], Timestamp(1458000000 + i)) << i;
  }
  EXPECT_GE(decoder.seek_resumes() + decoder.skip_resumes(), 1u);
  // Fully drained: the ledger balances back to zero.
  ASSERT_TRUE(wait_for([&] { return gov->in_use() == 0; }));
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// Regression: a deadline-class tenant's file *open* must not wait
// behind a rival tenant's whole decode burst. The fill task used to
// open the file and decode to buffer capacity in one task, so on a
// busy pool a queued open (pure archive latency) sat behind an entire
// CPU burst. Post-fix the open is its own task that re-submits the
// burst with a fresh (later) stamp, so EDF runs the next tenant's open
// first — at B's open hook, A has opened but buffered nothing yet.
TEST(PrefetchDecoderTest, DeadlineOpenDoesNotWaitBehindRivalDecodeBurst) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() /
                 ("bgps_open_split_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  auto write_updates = [&](const std::string& name, size_t n) {
    std::string path = (dir / name).string();
    mrt::MrtFileWriter w;
    EXPECT_TRUE(w.Open(path).ok());
    for (size_t i = 0; i < n; ++i) {
      mrt::Bgp4mpMessage m;
      m.peer_asn = 65001;
      m.local_asn = 64512;
      m.peer_address = IpAddress::V4(10, 0, 0, 1);
      m.local_address = IpAddress::V4(192, 0, 2, 1);
      m.update.attrs.as_path = bgp::AsPath::Sequence({65001, 15169});
      m.update.attrs.next_hop = IpAddress::V4(10, 0, 0, 1);
      m.update.announced.push_back(
          Prefix(IpAddress::V4(10, uint8_t(i >> 8), uint8_t(i & 0xff), 0),
                 24));
      EXPECT_TRUE(w.Write(mrt::EncodeBgp4mpUpdate(
                              1458000000 + Timestamp(i), m)).ok());
    }
    EXPECT_TRUE(w.Close().ok());
    return path;
  };
  auto meta_for = [](const std::string& path, const std::string& collector) {
    DumpFileMeta meta;
    meta.project = "test";
    meta.collector = collector;
    meta.type = DumpType::Updates;
    meta.start = 1458000000;
    meta.duration = 3600;
    meta.path = path;
    return meta;
  };
  DumpFileMeta meta_a = meta_for(write_updates("a.mrt", 200), "tenant-a");
  DumpFileMeta meta_b = meta_for(write_updates("b.mrt", 50), "tenant-b");

  auto wait_for = [](auto pred) {
    auto until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!pred()) {
      if (std::chrono::steady_clock::now() > until) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  };

  // One worker, blocked by a gate tenant while both decoders enqueue
  // their initial fills — so the claim order after the gate opens is
  // decided purely by the deadline class's EDF rule.
  auto ex = std::make_shared<Executor>(Executor::Options{.threads = 1});
  auto gate_tenant = ex->CreateTenant();
  std::promise<void> gate;
  std::shared_future<void> opened_gate = gate.get_future().share();
  std::atomic<bool> gate_entered{false};
  gate_tenant->Submit([opened_gate, &gate_entered] {
    gate_entered.store(true);
    opened_gate.wait();
  });
  ASSERT_TRUE(wait_for([&] { return gate_entered.load(); }));

  PrefetchDecoder::Options opt_a;
  opt_a.executor = ex;
  opt_a.max_records_in_flight = 16;
  opt_a.tenant_deadline = true;
  PrefetchDecoder a(std::move(opt_a));

  std::atomic<bool> b_opened{false};
  std::atomic<size_t> a_buffered_at_b_open{size_t(-1)};
  PrefetchDecoder::Options opt_b;
  opt_b.executor = ex;
  opt_b.max_records_in_flight = 16;
  opt_b.tenant_deadline = true;
  opt_b.decode.file_open_hook = [&](const DumpFileMeta&) {
    a_buffered_at_b_open.store(a.buffered_records());
    b_opened.store(true);
  };
  PrefetchDecoder b(std::move(opt_b));

  a.Submit({meta_a});  // enqueued first: EDF opens A first...
  b.Submit({meta_b});
  auto sources_a = a.WaitNextSources();
  auto sources_b = b.WaitNextSources();
  gate.set_value();

  ASSERT_TRUE(wait_for([&] { return b_opened.load(); }));
  // ...but A's decode burst carries a *later* stamp than B's queued
  // open, so B opens before A buffers anything. Pre-fix, A's single
  // open+decode task had already filled its buffer to capacity (16)
  // when B's open finally ran.
  EXPECT_EQ(a_buffered_at_b_open.load(), 0u);

  // Sanity: both streams still decode completely and in order.
  std::vector<Timestamp> got_a, got_b;
  while (auto rec = sources_a[0]->Next()) got_a.push_back(rec->timestamp);
  while (auto rec = sources_b[0]->Next()) got_b.push_back(rec->timestamp);
  ASSERT_EQ(got_a.size(), 200u);
  ASSERT_EQ(got_b.size(), 50u);
  for (size_t i = 0; i < got_a.size(); ++i) {
    EXPECT_EQ(got_a[i], Timestamp(1458000000 + i)) << i;
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

TEST(PrefetchDecoderTest, ReturnsSubsetsInSubmitOrderWithFileOrderKept) {
  PrefetchDecoder::Options opt;
  opt.threads = 3;
  PrefetchDecoder decoder(std::move(opt));

  decoder.Submit(BogusSubset("a", 5));
  decoder.Submit(BogusSubset("b", 3));
  decoder.Submit(BogusSubset("c", 1));
  EXPECT_EQ(decoder.outstanding(), 3u);

  auto a = DrainNextSubset(decoder);
  ASSERT_EQ(a.size(), 5u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].meta.collector, "a-" + std::to_string(i));
    ASSERT_EQ(a[i].records.size(), 1u);
    EXPECT_EQ(a[i].records[0].status, RecordStatus::CorruptedDump);
  }
  auto b = DrainNextSubset(decoder);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0].meta.collector, "b-0");
  auto c = DrainNextSubset(decoder);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].meta.collector, "c-0");
  EXPECT_EQ(decoder.outstanding(), 0u);
  EXPECT_EQ(decoder.files_decoded(), 9u);
}

TEST(PrefetchDecoderTest, DecodesAheadOfConsumption) {
  PrefetchDecoder::Options opt;
  opt.threads = 2;
  PrefetchDecoder decoder(std::move(opt));
  decoder.Submit(BogusSubset("first", 2));
  decoder.Submit(BogusSubset("second", 4));

  // Consume only the first subset, then watch the workers finish the
  // second one on their own — that is the "ahead of the consumer" part.
  (void)DrainNextSubset(decoder);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (decoder.files_decoded() < 6 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(decoder.files_decoded(), 6u);
  EXPECT_EQ(decoder.outstanding(), 1u);  // decoded but not yet consumed
}

TEST(PrefetchDecoderTest, DestructorJoinsWithUnconsumedWork) {
  PrefetchDecoder::Options opt;
  opt.threads = 2;
  PrefetchDecoder decoder(std::move(opt));
  decoder.Submit(BogusSubset("left", 8));
  // Dropping the decoder with queued/decoded-but-unconsumed work must not
  // hang or crash.
}

TEST(PrefetchDecoderTest, WholeFileInFlightMatchesOutstanding) {
  PrefetchDecoder::Options opt;
  opt.threads = 2;
  PrefetchDecoder decoder(std::move(opt));
  decoder.Submit(BogusSubset("a", 3));
  decoder.Submit(BogusSubset("b", 2));
  EXPECT_EQ(decoder.outstanding(), 2u);
  EXPECT_EQ(decoder.in_flight(), 2u);
  (void)DrainNextSubset(decoder);
  EXPECT_EQ(decoder.outstanding(), 1u);
  EXPECT_EQ(decoder.in_flight(), 1u);  // whole-file: handed out = gone
}

TEST(PrefetchDecoderTest, ChunkedSourcesStreamInFileOrder) {
  PrefetchDecoder::Options opt;
  opt.threads = 3;
  opt.max_records_in_flight = 2;  // 5 files -> 1 buffered record per file
  PrefetchDecoder decoder(std::move(opt));
  decoder.Submit(BogusSubset("a", 5));
  EXPECT_EQ(decoder.outstanding(), 1u);

  auto sources = decoder.WaitNextSources();
  ASSERT_EQ(sources.size(), 5u);
  EXPECT_EQ(decoder.outstanding(), 0u);
  for (size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(sources[i]->meta().collector, "a-" + std::to_string(i));
    ASSERT_TRUE(sources[i]->PeekTimestamp().has_value());
    auto rec = sources[i]->Next();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->status, RecordStatus::CorruptedDump);
    EXPECT_EQ(rec->collector, "a-" + std::to_string(i));
    EXPECT_EQ(sources[i]->Next(), std::nullopt);  // one record per bogus file
  }
  // Drained: the subset no longer holds decode resources.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (decoder.in_flight() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(decoder.in_flight(), 0u);
  EXPECT_EQ(decoder.files_decoded(), 5u);
  EXPECT_GT(decoder.max_buffered_records(), 0u);
  EXPECT_LE(decoder.max_buffered_records(), 5u);  // 1-slot buffer per file
}

TEST(PrefetchDecoderTest, ChunkedInFlightCountsActiveSubsets) {
  PrefetchDecoder::Options opt;
  opt.threads = 2;
  opt.max_records_in_flight = 8;
  PrefetchDecoder decoder(std::move(opt));
  decoder.Submit(BogusSubset("x", 2));
  decoder.Submit(BogusSubset("y", 2));
  EXPECT_EQ(decoder.in_flight(), 2u);

  auto sources = decoder.WaitNextSources();
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_EQ(decoder.outstanding(), 1u);
  // Handed out but not yet drained: still holds decode resources.
  EXPECT_EQ(decoder.in_flight(), 2u);
  for (auto& s : sources) {
    while (s->Next()) {
    }
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (decoder.in_flight() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(decoder.in_flight(), 1u);  // only the queued subset remains
}

TEST(PrefetchDecoderTest, SharedExecutorDecodersKeepFifoOrder) {
  // Two decoders as tenants of one executor: each still returns its own
  // subsets in its own Submit order.
  auto executor = std::make_shared<Executor>(Executor::Options{.threads = 2});
  PrefetchDecoder::Options opt_a;
  opt_a.executor = executor;
  PrefetchDecoder::Options opt_b;
  opt_b.executor = executor;
  PrefetchDecoder a(std::move(opt_a));
  PrefetchDecoder b(std::move(opt_b));
  a.Submit(BogusSubset("a1", 3));
  b.Submit(BogusSubset("b1", 2));
  a.Submit(BogusSubset("a2", 1));
  EXPECT_EQ(DrainNextSubset(a)[0].meta.collector, "a1-0");
  EXPECT_EQ(DrainNextSubset(b)[0].meta.collector, "b1-0");
  EXPECT_EQ(DrainNextSubset(a)[0].meta.collector, "a2-0");
  EXPECT_EQ(executor->tenants(), 2u);
}

TEST(PrefetchDecoderTest, ChunkedGovernorLedgerBalancesOnDrain) {
  auto governor = std::make_shared<MemoryGovernor>(8);
  PrefetchDecoder::Options opt;
  opt.threads = 2;
  opt.max_records_in_flight = 8;
  opt.governor = governor;
  PrefetchDecoder decoder(std::move(opt));

  // Per the Options::governor contract the caller acquires one floor
  // slot per file before a chunked Submit.
  ASSERT_TRUE(governor->TryAcquire(3));
  decoder.Submit(BogusSubset("gov", 3));
  auto sources = decoder.WaitNextSources();
  ASSERT_EQ(sources.size(), 3u);
  for (auto& s : sources) {
    while (s->Next()) {
    }
  }
  // Fully decoded and drained: every slot (floors + extras) returns to
  // the global budget.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (governor->in_use() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(governor->in_use(), 0u);
  EXPECT_GT(governor->max_in_use(), 0u);
  EXPECT_LE(governor->max_in_use(), 8u);
}

TEST(PrefetchDecoderTest, ChunkedGovernorLedgerBalancesOnDestruction) {
  auto governor = std::make_shared<MemoryGovernor>(8);
  {
    PrefetchDecoder::Options opt;
    opt.threads = 2;
    opt.max_records_in_flight = 8;
    opt.governor = governor;
    PrefetchDecoder decoder(std::move(opt));
    ASSERT_TRUE(governor->TryAcquire(4));
    decoder.Submit(BogusSubset("dropped", 4));
    // Destroyed with the subset undrained (possibly still filling).
  }
  EXPECT_EQ(governor->in_use(), 0u);
}

TEST(PrefetchDecoderTest, ChunkedSourcesSurviveDecoderDestruction) {
  std::vector<std::unique_ptr<RecordSource>> sources;
  {
    PrefetchDecoder::Options opt;
    opt.threads = 2;
    opt.max_records_in_flight = 8;
    PrefetchDecoder decoder(std::move(opt));
    decoder.Submit(BogusSubset("gone", 3));
    sources = decoder.WaitNextSources();
    // Give workers a chance to buffer; either way the sources must not
    // hang after the decoder (and its workers) are gone.
  }
  for (auto& s : sources) {
    while (auto rec = s->Next()) {
      EXPECT_EQ(rec->status, RecordStatus::CorruptedDump);
    }
  }
}

class PrefetchStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto& a = testutil::GetSmallArchive();
    root_ = a.root;
    start_ = a.start;
    end_ = a.end;
  }

  // Runs a full historical stream and fingerprints every record.
  struct RunResult {
    std::vector<std::tuple<Timestamp, std::string, int, int, int>> records;
    size_t subsets = 0;
    size_t max_open = 0;
    size_t elems = 0;
  };
  RunResult Run(BgpStream::Options options) {
    broker::Broker::Options bopt;
    bopt.clock = [] { return Timestamp(4102444800); };
    broker::Broker broker(root_, bopt);
    BrokerDataInterface di(&broker);
    BgpStream stream(std::move(options));
    stream.SetInterval(start_, end_);
    stream.SetDataInterface(&di);
    EXPECT_TRUE(stream.Start().ok());
    RunResult out;
    while (auto rec = stream.NextRecord()) {
      out.records.emplace_back(rec->timestamp, rec->collector,
                               int(rec->dump_type), int(rec->status),
                               int(rec->position));
      out.elems += stream.Elems(*rec).size();
    }
    out.subsets = stream.subsets_merged();
    out.max_open = stream.max_open_files();
    return out;
  }

  std::string root_;
  Timestamp start_ = 0, end_ = 0;
};

TEST_F(PrefetchStreamTest, PrefetchedStreamMatchesSynchronousStream) {
  RunResult sync = Run({});

  BgpStream::Options prefetch;
  prefetch.prefetch_subsets = 3;
  prefetch.decode_threads = 2;
  std::atomic<size_t> opens{0};
  prefetch.file_open_hook = [&](const DumpFileMeta&) { ++opens; };
  RunResult async = Run(std::move(prefetch));

  ASSERT_GT(sync.records.size(), 100u);
  EXPECT_EQ(async.records, sync.records);
  EXPECT_EQ(async.subsets, sync.subsets);
  EXPECT_EQ(async.max_open, sync.max_open);
  EXPECT_EQ(async.elems, sync.elems);
  EXPECT_GT(opens.load(), 0u);
}

TEST_F(PrefetchStreamTest, LiveModeWithPrefetchTerminatesOnPollCap) {
  Timestamp now = start_ + 301;
  broker::Broker::Options bopt;
  bopt.clock = [&now] { return now; };
  broker::Broker broker(root_, bopt);
  BrokerDataInterface di(&broker);

  BgpStream::Options opt;
  opt.prefetch_subsets = 2;
  opt.poll_wait = [&] { now += 300; };
  opt.max_consecutive_polls = 500;
  BgpStream stream(std::move(opt));
  stream.SetLive(start_);
  stream.SetDataInterface(&di);
  ASSERT_TRUE(stream.Start().ok());
  size_t records = 0;
  while (auto rec = stream.NextRecord()) ++records;
  EXPECT_GT(records, 100u);  // the whole archive eventually streams
}

// A data interface that never has data: live mode must give up after
// exactly max_consecutive_polls empty polls (Options safety valve).
class NeverReadyInterface : public DataInterface {
 public:
  DataBatch NextBatch(const FilterSet&) override {
    DataBatch b;
    b.retry_later = true;
    return b;
  }
  void Refresh() override { ++refreshes; }
  size_t refreshes = 0;
};

TEST(BgpStreamLiveTest, MaxConsecutivePollsStopsAnEmptyLiveStream) {
  NeverReadyInterface di;
  BgpStream::Options opt;
  size_t polls = 0;
  opt.poll_wait = [&polls] { ++polls; };
  opt.max_consecutive_polls = 7;
  BgpStream stream(std::move(opt));
  stream.SetLive(0);
  stream.SetDataInterface(&di);
  ASSERT_TRUE(stream.Start().ok());
  EXPECT_EQ(stream.NextRecord(), std::nullopt);
  // The cap counts empty polls; the final poll is cut short before its
  // wait, so exactly cap-1 waits (and refreshes) happen.
  EXPECT_EQ(polls, 6u);
  EXPECT_EQ(di.refreshes, 6u);
  // The stream stays terminated afterwards.
  EXPECT_EQ(stream.NextRecord(), std::nullopt);
  EXPECT_EQ(polls, 6u);
}

}  // namespace
}  // namespace bgps::core
