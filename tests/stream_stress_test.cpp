// Stress layer (ctest label: stress): a simulator-generated ~50k-record
// multi-file corpus pushed through a shared 4-tenant StreamPool under a
// tight record budget, checked fingerprint-for-fingerprint against the
// synchronous private pipeline, with the governor ledger balancing to
// zero. This is the scale the unit suite cannot afford on every run;
// CI runs it as a separate non-gating job.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <thread>
#include <tuple>

#include "broker/archive.hpp"
#include "pool/stream_pool.hpp"
#include "sim/corpus.hpp"

namespace bgps {
namespace {

using broker::DumpFileMeta;
using core::BgpStream;

using RecordFp = std::tuple<Timestamp, std::string, int, int, int>;
using ElemFp = std::tuple<int, Timestamp, uint32_t, std::string, std::string>;

struct StreamRun {
  std::vector<RecordFp> records;
  std::vector<ElemFp> elems;
  Status status;
};

StreamRun Drain(BgpStream& stream) {
  StreamRun out;
  while (auto rec = stream.NextRecord()) {
    out.records.emplace_back(rec->timestamp, rec->collector,
                             int(rec->dump_type), int(rec->status),
                             int(rec->position));
    for (const auto& e : stream.Elems(*rec)) {
      out.elems.emplace_back(int(e.type), e.time, e.peer_asn,
                             e.has_prefix() ? e.prefix.ToString() : "-",
                             e.as_path.ToString());
    }
  }
  out.status = stream.status();
  return out;
}

class VectorDataInterface : public core::DataInterface {
 public:
  explicit VectorDataInterface(std::vector<DumpFileMeta> files)
      : files_(std::move(files)) {}
  core::DataBatch NextBatch(const core::FilterSet&) override {
    core::DataBatch batch;
    if (!served_) {
      batch.files = files_;
      served_ = true;
    } else {
      batch.end_of_stream = true;
    }
    return batch;
  }

 private:
  std::vector<DumpFileMeta> files_;
  bool served_ = false;
};

// The generated corpus and its sync-path reference fingerprint, built
// once per process — generation plus the reference drain are the
// expensive part, and every test compares against the same bytes.
struct Corpus {
  std::string root;
  std::vector<DumpFileMeta> files;
  StreamRun reference;
};

const Corpus& GetCorpus() {
  static const Corpus* corpus = [] {
    auto* c = new Corpus;
    c->root = (std::filesystem::temp_directory_path() /
               ("bgps_stress_corpus_" + std::to_string(::getpid()))).string();

    sim::CorpusOptions options;
    options.scenario = "mixed";
    options.duration = 2 * 3600;
    options.flaps_per_hour = 2600;  // sized to clear 50k records total
    options.seed = 7;
    auto stats = sim::GenerateCorpus(options, c->root);
    if (!stats.ok()) {
      ADD_FAILURE() << "corpus generation failed: "
                    << stats.status().ToString();
      return c;
    }

    broker::ArchiveIndex index(c->root);
    if (!index.Rescan().ok()) {
      ADD_FAILURE() << "corpus rescan failed";
      return c;
    }
    c->files = index.files();

    // Sync reference: the PR-2 private pipeline shape.
    BgpStream::Options opt;
    opt.prefetch_subsets = 2;
    opt.decode_threads = 1;
    opt.extract_elems_in_workers = true;
    opt.max_records_in_flight = 64;
    BgpStream stream(std::move(opt));
    VectorDataInterface di(c->files);
    stream.SetInterval(0, 4102444800);
    stream.SetDataInterface(&di);
    if (!stream.Start().ok()) {
      ADD_FAILURE() << "reference stream failed to start";
      return c;
    }
    c->reference = Drain(stream);
    return c;
  }();
  return *corpus;
}

class CorpusCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(GetCorpus().root, ec);
  }
};
const auto* const kCleanup =
    ::testing::AddGlobalTestEnvironment(new CorpusCleanup);

class StreamStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_FALSE(GetCorpus().files.empty());
    ASSERT_TRUE(GetCorpus().reference.status.ok());
  }

  StreamRun RunTenant(std::unique_ptr<BgpStream> stream) {
    VectorDataInterface di(GetCorpus().files);
    stream->SetInterval(0, 4102444800);
    stream->SetDataInterface(&di);
    EXPECT_TRUE(stream->Start().ok());
    return Drain(*stream);
  }
};

TEST_F(StreamStressTest, CorpusClearsTheFiftyThousandRecordBar) {
  const Corpus& corpus = GetCorpus();
  EXPECT_GE(corpus.reference.records.size(), 50000u)
      << "corpus undersized — raise duration or flaps_per_hour";
  EXPECT_GT(corpus.files.size(), 10u) << "expected a multi-file archive";
  // Updates plus at least one RIB dump per collector.
  size_t ribs = 0;
  for (const auto& f : corpus.files)
    if (f.type == broker::DumpType::Rib) ++ribs;
  EXPECT_GE(ribs, 2u);
}

TEST_F(StreamStressTest, FourTenantsTightBudgetMatchTheSyncPath) {
  const Corpus& corpus = GetCorpus();

  constexpr size_t kBudget = 256;  // far below 4 tenants' combined appetite
  StreamPool::Options popt;
  popt.threads = 4;
  popt.record_budget = kBudget;
  auto pool = StreamPool::Create(popt);
  ASSERT_TRUE(pool.ok());

  constexpr int kTenants = 4;
  std::vector<StreamRun> got(kTenants);
  {
    std::vector<std::thread> consumers;
    for (int t = 0; t < kTenants; ++t) {
      consumers.emplace_back([&, t] {
        BgpStream::Options opt;
        opt.extract_elems_in_workers = true;
        StreamPool::TenantOptions topt;
        topt.weight = size_t(t) + 1;  // asymmetric service rates
        topt.name = "stress-" + std::to_string(t);
        got[size_t(t)] =
            RunTenant((*pool)->CreateStream(std::move(opt), topt));
      });
    }
    for (auto& c : consumers) c.join();
  }

  for (int t = 0; t < kTenants; ++t) {
    // Full fingerprint equality: same records, same order, same elems —
    // scheduling weight and budget contention must never reorder or
    // drop a tenant's output.
    EXPECT_EQ(got[size_t(t)].records, corpus.reference.records)
        << "tenant " << t;
    EXPECT_EQ(got[size_t(t)].elems, corpus.reference.elems) << "tenant " << t;
    EXPECT_TRUE(got[size_t(t)].status.ok()) << "tenant " << t;
  }
  EXPECT_GT((*pool)->max_records_in_use(), 0u);
  EXPECT_LE((*pool)->max_records_in_use(), kBudget);
  // Everything drained and released: the governor ledger balances to 0.
  EXPECT_EQ((*pool)->records_in_use(), 0u);
}

TEST_F(StreamStressTest, PausedTenantIsReclaimedUnderCorpusLoadThenResumes) {
  const Corpus& corpus = GetCorpus();

  StreamPool::Options popt;
  popt.threads = 3;
  popt.record_budget = 128;
  auto pool = StreamPool::Create(popt);
  ASSERT_TRUE(pool.ok());

  // The victim: drains a little, then parks with its buffers loaded.
  BgpStream::Options vopt;
  vopt.extract_elems_in_workers = true;
  auto victim = (*pool)->CreateStream(
      vopt, {.weight = 1, .name = "parked", .idle_reclaim_rounds = 10});
  VectorDataInterface vdi(corpus.files);
  victim->SetInterval(0, 4102444800);
  victim->SetDataInterface(&vdi);
  ASSERT_TRUE(victim->Start().ok());

  StreamRun parked;
  constexpr size_t kBeforePause = 100;
  for (size_t i = 0; i < kBeforePause; ++i) {
    auto rec = victim->NextRecord();
    ASSERT_TRUE(rec.has_value());
    parked.records.emplace_back(rec->timestamp, rec->collector,
                                int(rec->dump_type), int(rec->status),
                                int(rec->position));
    for (const auto& e : victim->Elems(*rec)) {
      parked.elems.emplace_back(int(e.type), e.time, e.peer_asn,
                                e.has_prefix() ? e.prefix.ToString() : "-",
                                e.as_path.ToString());
    }
  }
  // Let the victim's decode settle before the rivals start. Its own
  // refill tasks advance the executor's round clock, so idle reclaim
  // fires on it within idle_reclaim_rounds tasks of its last pop and
  // drops every file that is not mid-fill. What stays buffered is what
  // those in-flight fills push (up to 128 / 34 files = 3 records each):
  // 8 to 20 records from run to run, so waiting for a fixed 10 failed
  // about one run in four. Wait until no decode task is queued and the counters stop
  // moving, then require a non-empty buffer for the rivals to reclaim.
  auto until = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  size_t still = 0;
  auto last = victim->stats();
  while (still < 50 && std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    auto now = victim->stats();
    bool quiet = now.queue_depth == 0 &&
                 now.tasks_executed == last.tasks_executed &&
                 now.records_buffered == last.records_buffered;
    still = quiet ? still + 1 : 0;
    last = now;
  }
  ASSERT_EQ(still, 50u) << "the parked tenant's decode never settled";
  ASSERT_GT(victim->stats().records_buffered, 0u);

  // Two rivals drain the whole corpus while the victim sleeps; their
  // budget demand drives the contention hook, which must reclaim the
  // parked tenant's buffers instead of starving the rivals.
  std::vector<StreamRun> rivals(2);
  {
    std::vector<std::thread> consumers;
    for (int t = 0; t < 2; ++t) {
      consumers.emplace_back([&, t] {
        BgpStream::Options opt;
        opt.extract_elems_in_workers = true;
        StreamPool::TenantOptions topt;
        topt.weight = 2;
        topt.name = "rival-" + std::to_string(t);
        rivals[size_t(t)] =
            RunTenant((*pool)->CreateStream(std::move(opt), topt));
      });
    }
    for (auto& c : consumers) c.join();
  }
  for (int t = 0; t < 2; ++t) {
    EXPECT_EQ(rivals[size_t(t)].records, corpus.reference.records)
        << "rival " << t;
    EXPECT_TRUE(rivals[size_t(t)].status.ok()) << "rival " << t;
  }
  EXPECT_GT(victim->stats().reclaims, 0u)
      << "corpus-scale contention never reclaimed the parked tenant";

  // The parked tenant resumes and its total output is still exactly the
  // sync-path fingerprint — reclaim must be invisible in the stream.
  StreamRun rest = Drain(*victim);
  ASSERT_TRUE(rest.status.ok());
  parked.records.insert(parked.records.end(), rest.records.begin(),
                        rest.records.end());
  parked.elems.insert(parked.elems.end(), rest.elems.begin(),
                      rest.elems.end());
  EXPECT_EQ(parked.records, corpus.reference.records);
  EXPECT_EQ(parked.elems, corpus.reference.elems);

  victim.reset();
  EXPECT_EQ((*pool)->records_in_use(), 0u);
}

}  // namespace
}  // namespace bgps
