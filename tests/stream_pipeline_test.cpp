// End-to-end tests of the three-stage asynchronous pipeline: every
// configuration (synchronous, prefetch, worker-side elem extraction,
// chunked decode, cross-batch prefetch) must emit the byte-identical
// record *and elem* sequence, live mode must keep strict client-pull
// semantics, and chunked decode must honor its memory bound.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <tuple>

#include "core/stream.hpp"
#include "mrt/encode.hpp"
#include "mrt/file.hpp"
#include "pool/stream_pool.hpp"
#include "tests/sim_fixture.hpp"

namespace bgps::core {
namespace {

using broker::DumpFileMeta;
using broker::DumpType;

// Fingerprint of one record (provenance + status + position) and of each
// of its elems (type, time, VP, prefix, path) — strong enough that a
// reordering, loss, or filter divergence between pipeline configurations
// cannot cancel out.
using RecordFp = std::tuple<Timestamp, std::string, int, int, int>;
using ElemFp = std::tuple<int, Timestamp, uint32_t, std::string, std::string>;

struct StreamRun {
  std::vector<RecordFp> records;
  std::vector<ElemFp> elems;
  size_t subsets = 0;
  size_t max_open = 0;
  size_t batches_prefetched = 0;
  size_t max_records_buffered = 0;
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
  out.subsets = stream.subsets_merged();
  out.max_open = stream.max_open_files();
  out.batches_prefetched = stream.batches_prefetched();
  out.max_records_buffered = stream.max_records_buffered();
  return out;
}

class PipelineEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto& a = testutil::GetSmallArchive();
    root_ = a.root;
    start_ = a.start;
    end_ = a.end;
  }

  // Streams the whole archive through a broker with a small response
  // window so multiple DataBatches flow (exercising batch boundaries).
  // When `pool` is given the stream is vended from it (the shared
  // decode runtime) instead of running a private pipeline.
  StreamRun Run(BgpStream::Options options,
                const std::vector<std::pair<std::string, std::string>>&
                    filters = {},
                bgps::StreamPool* pool = nullptr) {
    broker::Broker::Options bopt;
    bopt.clock = [] { return Timestamp(4102444800); };
    bopt.window = 900;  // 1-hour archive -> ~4 batches
    broker::Broker broker(root_, bopt);
    BrokerDataInterface di(&broker);
    std::unique_ptr<BgpStream> stream =
        pool ? pool->CreateStream(std::move(options))
             : std::make_unique<BgpStream>(std::move(options));
    for (const auto& [k, v] : filters) {
      EXPECT_TRUE(stream->AddFilter(k, v).ok()) << k << " " << v;
    }
    stream->SetInterval(start_, end_);
    stream->SetDataInterface(&di);
    EXPECT_TRUE(stream->Start().ok());
    StreamRun run = Drain(*stream);
    EXPECT_TRUE(stream->status().ok());
    return run;
  }

  std::string root_;
  Timestamp start_ = 0, end_ = 0;
};

BgpStream::Options FullPipeline() {
  BgpStream::Options opt;
  opt.prefetch_subsets = 3;
  opt.decode_threads = 2;
  opt.prefetch_batches = true;
  opt.extract_elems_in_workers = true;
  opt.max_records_in_flight = 256;
  return opt;
}

TEST_F(PipelineEquivalenceTest, AllConfigurationsEmitIdenticalStreams) {
  StreamRun sync = Run({});
  ASSERT_GT(sync.records.size(), 100u);
  ASSERT_GT(sync.elems.size(), 100u);

  struct Config {
    const char* name;
    BgpStream::Options options;
  };
  std::vector<Config> configs;
  {
    BgpStream::Options prefetch;
    prefetch.prefetch_subsets = 3;
    prefetch.decode_threads = 2;
    configs.push_back({"prefetch", prefetch});

    BgpStream::Options extract = prefetch;
    extract.extract_elems_in_workers = true;
    configs.push_back({"prefetch+extract", extract});

    BgpStream::Options chunked = prefetch;
    chunked.max_records_in_flight = 64;
    configs.push_back({"prefetch+chunked", chunked});

    BgpStream::Options cross = prefetch;
    cross.prefetch_batches = true;
    configs.push_back({"prefetch+crossbatch", cross});

    // Tiny chunked buffers force many refill bursts per file, so the
    // per-dump arena state (AS-path cache, interned provenance, reused
    // frame buffer) is exercised across task boundaries — the zero-copy
    // decode path must still be byte-invisible in the output.
    BgpStream::Options tiny = prefetch;
    tiny.max_records_in_flight = 8;
    tiny.extract_elems_in_workers = true;
    configs.push_back({"prefetch+chunked-tiny+extract", tiny});

    configs.push_back({"full", FullPipeline()});
  }
  for (auto& c : configs) {
    StreamRun run = Run(std::move(c.options));
    EXPECT_EQ(run.records, sync.records) << c.name;
    EXPECT_EQ(run.elems, sync.elems) << c.name;
    EXPECT_EQ(run.subsets, sync.subsets) << c.name;
    EXPECT_EQ(run.max_open, sync.max_open) << c.name;
  }
}

TEST_F(PipelineEquivalenceTest, SharedStreamPoolEmitsIdenticalStreams) {
  StreamRun sync = Run({});
  ASSERT_GT(sync.records.size(), 100u);

  // K = 3 concurrent tenants on one 4-thread Executor + one governor,
  // all streaming the same archive: each must reproduce the synchronous
  // fingerprint exactly.
  auto pool = bgps::StreamPool::Create({.threads = 4, .record_budget = 256});
  ASSERT_TRUE(pool.ok());
  constexpr int kTenants = 3;
  std::vector<StreamRun> runs(kTenants);
  {
    std::vector<std::thread> consumers;
    for (int t = 0; t < kTenants; ++t) {
      consumers.emplace_back([&, t] {
        BgpStream::Options opt;
        opt.prefetch_batches = true;
        opt.extract_elems_in_workers = true;
        runs[size_t(t)] = Run(std::move(opt), {}, pool->get());
      });
    }
    for (auto& c : consumers) c.join();
  }
  for (int t = 0; t < kTenants; ++t) {
    EXPECT_EQ(runs[size_t(t)].records, sync.records) << "tenant " << t;
    EXPECT_EQ(runs[size_t(t)].elems, sync.elems) << "tenant " << t;
    EXPECT_EQ(runs[size_t(t)].subsets, sync.subsets) << "tenant " << t;
  }
  EXPECT_LE((*pool)->max_records_in_use(), 256u);
}

TEST_F(PipelineEquivalenceTest, WorkerSideFilteringMatchesInlineFiltering) {
  std::vector<std::pair<std::string, std::string>> filters = {
      {"elemtype", "announcements"}, {"ipversion", "4"}};
  StreamRun inline_run = Run({}, filters);
  ASSERT_GT(inline_run.elems.size(), 10u);

  BgpStream::Options opt = FullPipeline();
  StreamRun worker_run = Run(std::move(opt), filters);
  EXPECT_EQ(worker_run.records, inline_run.records);
  EXPECT_EQ(worker_run.elems, inline_run.elems);
}

TEST_F(PipelineEquivalenceTest, CrossBatchPrefetchOverlapsBrokerFetches) {
  StreamRun sync = Run({});
  EXPECT_EQ(sync.batches_prefetched, 0u);

  BgpStream::Options opt;
  opt.prefetch_subsets = 2;
  opt.prefetch_batches = true;
  StreamRun cross = Run(std::move(opt));
  EXPECT_EQ(cross.records, sync.records);
  EXPECT_GT(cross.batches_prefetched, 0u);
}

TEST_F(PipelineEquivalenceTest, SecondElemsCallFallsBackToInlineExtraction) {
  broker::Broker::Options bopt;
  bopt.clock = [] { return Timestamp(4102444800); };
  broker::Broker broker(root_, bopt);
  BrokerDataInterface di(&broker);
  BgpStream stream(FullPipeline());
  stream.SetInterval(start_, end_);
  stream.SetDataInterface(&di);
  ASSERT_TRUE(stream.Start().ok());
  bool saw_elems = false;
  while (auto rec = stream.NextRecord()) {
    std::vector<Elem> first = stream.Elems(*rec);
    // The move-out consumed the worker-extracted cache; a second call
    // must re-extract inline and yield the same elems.
    std::vector<Elem> second = stream.Elems(*rec);
    ASSERT_EQ(first.size(), second.size());
    if (!first.empty()) saw_elems = true;
  }
  EXPECT_TRUE(saw_elems);
}

TEST_F(PipelineEquivalenceTest, FullPipelineStreamsLiveArchiveToCompletion) {
  Timestamp now = start_ + 301;
  broker::Broker::Options bopt;
  bopt.clock = [&now] { return now; };
  broker::Broker broker(root_, bopt);
  BrokerDataInterface di(&broker);

  BgpStream::Options opt = FullPipeline();
  opt.poll_wait = [&] { now += 300; };
  opt.max_consecutive_polls = 500;
  BgpStream stream(std::move(opt));
  stream.SetLive(start_);
  stream.SetDataInterface(&di);
  ASSERT_TRUE(stream.Start().ok());
  size_t records = 0;
  while (auto rec = stream.NextRecord()) ++records;
  EXPECT_GT(records, 100u);
  // Live mode keeps client-pull semantics: no eager batch fetches.
  EXPECT_EQ(stream.batches_prefetched(), 0u);
}

// A data interface that never has data: live mode must give up after
// exactly max_consecutive_polls empty polls even with every pipeline
// knob enabled.
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

TEST(PipelineLiveTest, PollCapIsExactWithFullPipeline) {
  NeverReadyInterface di;
  BgpStream::Options opt = FullPipeline();
  size_t polls = 0;
  opt.poll_wait = [&polls] { ++polls; };
  opt.max_consecutive_polls = 7;
  BgpStream stream(std::move(opt));
  stream.SetLive(0);
  stream.SetDataInterface(&di);
  ASSERT_TRUE(stream.Start().ok());
  EXPECT_EQ(stream.NextRecord(), std::nullopt);
  EXPECT_EQ(polls, 6u);
  EXPECT_EQ(di.refreshes, 6u);
  EXPECT_EQ(stream.batches_prefetched(), 0u);
}

TEST(PipelineOptionsTest, WorkerKnobsRequirePrefetch) {
  NeverReadyInterface di;
  {
    BgpStream::Options opt;
    opt.extract_elems_in_workers = true;
    BgpStream stream(std::move(opt));
    stream.SetInterval(0, 100);
    stream.SetDataInterface(&di);
    EXPECT_FALSE(stream.Start().ok());
  }
  {
    BgpStream::Options opt;
    opt.max_records_in_flight = 64;
    BgpStream stream(std::move(opt));
    stream.SetInterval(0, 100);
    stream.SetDataInterface(&di);
    EXPECT_FALSE(stream.Start().ok());
  }
}

// Start() validation of the runtime-layer injection knobs, with the
// exact diagnostics users will see.
TEST(PipelineOptionsTest, RuntimeLayerKnobCombosFailStartExactly) {
  NeverReadyInterface di;
  auto start_status = [&di](BgpStream::Options opt) {
    BgpStream stream(std::move(opt));
    stream.SetInterval(0, 100);
    stream.SetDataInterface(&di);
    return stream.Start();
  };
  {
    // Executor without prefetch: there are no decode tasks to share.
    BgpStream::Options opt;
    opt.executor = std::make_shared<Executor>(Executor::Options{});
    Status st = start_status(std::move(opt));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.message(),
              "Options::executor requires prefetch_subsets > 0 (the "
              "synchronous path never decodes off-thread)");
  }
  {
    // Zero-thread executor: tasks would queue forever.
    BgpStream::Options opt;
    opt.prefetch_subsets = 2;
    opt.executor = std::make_shared<Executor>(Executor::Options{.threads = 0});
    Status st = start_status(std::move(opt));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.message(),
              "Options::executor has no worker threads (decode tasks would "
              "never run)");
  }
  {
    // Governor without prefetch.
    BgpStream::Options opt;
    opt.governor = std::make_shared<MemoryGovernor>(64);
    Status st = start_status(std::move(opt));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.message(),
              "Options::governor requires prefetch_subsets > 0");
  }
  {
    // Governor without chunked decode: nothing would ever lease slots.
    BgpStream::Options opt;
    opt.prefetch_subsets = 2;
    opt.governor = std::make_shared<MemoryGovernor>(64);
    Status st = start_status(std::move(opt));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.message(),
              "Options::governor requires max_records_in_flight > 0 (the "
              "governor leases chunked-decode buffer slots)");
  }
  {
    // A zero-record budget could never cover any subset's floor slots.
    BgpStream::Options opt;
    opt.prefetch_subsets = 2;
    opt.max_records_in_flight = 64;
    opt.governor = std::make_shared<MemoryGovernor>(0);
    Status st = start_status(std::move(opt));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.message(), "Options::governor budget must be > 0 records");
  }
  {
    // And the happy path with both injected starts fine.
    BgpStream::Options opt;
    opt.prefetch_subsets = 2;
    opt.max_records_in_flight = 64;
    opt.executor = std::make_shared<Executor>(Executor::Options{.threads = 2});
    opt.governor = std::make_shared<MemoryGovernor>(64);
    EXPECT_TRUE(start_status(std::move(opt)).ok());
  }
}

// --- chunked-decode memory bound ------------------------------------------

// Hands the whole file set to the stream in one batch, then ends.
class VectorDataInterface : public DataInterface {
 public:
  explicit VectorDataInterface(std::vector<DumpFileMeta> files)
      : files_(std::move(files)) {}
  DataBatch NextBatch(const FilterSet&) override {
    DataBatch batch;
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

// Emulates one large RIB-style subset (paper §3.3.4): many files with
// fully overlapping intervals, each holding a few hundred records.
void WriteOverlappingArchive(const std::string& dir, int files,
                             int records_per_file) {
  std::filesystem::create_directories(dir);
  for (int f = 0; f < files; ++f) {
    Timestamp start = 1458000000 + f;
    mrt::MrtFileWriter w;
    std::string path =
        (std::filesystem::path(dir) / (std::to_string(f) + ".mrt")).string();
    ASSERT_TRUE(w.Open(path).ok());
    for (int i = 0; i < records_per_file; ++i) {
      mrt::Bgp4mpMessage m;
      m.peer_asn = 65000 + bgp::Asn(f);
      m.local_asn = 64512;
      m.peer_address = IpAddress::V4(10, 0, uint8_t(f), 1);
      m.local_address = IpAddress::V4(192, 0, 2, 1);
      m.update.attrs.as_path =
          bgp::AsPath::Sequence({65000 + bgp::Asn(f), 3356, 15169});
      m.update.attrs.next_hop = IpAddress::V4(10, 0, uint8_t(f), 1);
      m.update.announced.push_back(
          Prefix(IpAddress::V4(uint32_t(10 + i) << 24), 16));
      ASSERT_TRUE(
          w.Write(mrt::EncodeBgp4mpUpdate(start + Timestamp(i) * 5, m)).ok());
    }
    ASSERT_TRUE(w.Close().ok());
  }
}

class ChunkedStressTest : public ::testing::Test {
 protected:
  static constexpr int kFiles = 40;
  static constexpr int kRecordsPerFile = 250;

  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("bgps_chunked_stress_" + std::to_string(::getpid())))
               .string();
    WriteOverlappingArchive(dir_, kFiles, kRecordsPerFile);
    ASSERT_FALSE(HasFatalFailure());
    for (int f = 0; f < kFiles; ++f) {
      DumpFileMeta meta;
      meta.project = "stress";
      meta.collector = "c" + std::to_string(f);
      meta.type = DumpType::Updates;
      meta.start = 1458000000 + f;
      meta.duration = 3600;
      meta.path =
          (std::filesystem::path(dir_) / (std::to_string(f) + ".mrt")).string();
      files_.push_back(std::move(meta));
    }
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  StreamRun Run(BgpStream::Options options) {
    VectorDataInterface di(files_);
    BgpStream stream(std::move(options));
    stream.SetInterval(0, 4102444800);
    stream.SetDataInterface(&di);
    EXPECT_TRUE(stream.Start().ok());
    return Drain(stream);
  }

  std::string dir_;
  std::vector<DumpFileMeta> files_;
};

TEST_F(ChunkedStressTest, BoundedBuffersStreamALargeSubsetIdentically) {
  StreamRun sync = Run({});
  ASSERT_EQ(sync.records.size(), size_t(kFiles) * kRecordsPerFile);
  ASSERT_EQ(sync.subsets, 1u);  // fully overlapping: one giant subset

  constexpr size_t kBound = 120;  // 3 records per file vs 250 materialized
  BgpStream::Options opt;
  opt.prefetch_subsets = 2;
  opt.decode_threads = 2;
  opt.max_records_in_flight = kBound;
  opt.extract_elems_in_workers = true;
  StreamRun chunked = Run(std::move(opt));

  EXPECT_EQ(chunked.records, sync.records);
  EXPECT_EQ(chunked.elems, sync.elems);
  EXPECT_GT(chunked.max_records_buffered, 0u);
  // The bound is per in-flight subset; a single subset must respect it
  // exactly.
  EXPECT_LE(chunked.max_records_buffered, kBound);
}

// DumpReader's in-place decode — bodies viewing the reused frame
// buffer, each record decoded straight into the lookahead slot — must be
// invisible in the output: record for record identical to a standalone
// mrt::DecodeRecord over the same raw bytes.
TEST_F(ChunkedStressTest, DumpReaderDecodeMatchesRawDecodeRecord) {
  struct Decoded {
    Timestamp timestamp;
    bgp::Asn peer_asn;
    bgp::UpdateMessage update;
  };
  auto decoded = [](Timestamp ts, const mrt::MrtMessage& msg) {
    const auto& m = std::get<mrt::Bgp4mpMessage>(msg.body);
    return Decoded{ts, m.peer_asn, m.update};
  };

  std::vector<Decoded> expect;
  {
    mrt::MrtFileReader reader;
    ASSERT_TRUE(reader.Open(files_[0].path).ok());
    while (true) {
      auto raw = reader.Next();
      if (!raw.ok()) break;
      auto msg = mrt::DecodeRecord(*raw);
      ASSERT_TRUE(msg.ok());
      expect.push_back(decoded(msg->timestamp, *msg));
    }
  }
  ASSERT_EQ(expect.size(), size_t(kRecordsPerFile));

  std::vector<Decoded> got;
  DumpReader reader(files_[0]);
  while (auto rec = reader.Next()) {
    ASSERT_EQ(rec->status, RecordStatus::Valid);
    got.push_back(decoded(rec->timestamp, rec->msg));
  }
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].timestamp, expect[i].timestamp) << "record " << i;
    EXPECT_EQ(got[i].peer_asn, expect[i].peer_asn) << "record " << i;
    EXPECT_TRUE(got[i].update == expect[i].update) << "record " << i;
  }
}

TEST_F(ChunkedStressTest, WholeFileModeMaterializesMoreThanChunkedMode) {
  // Sanity-check the stat plumbing: whole-file mode reports no chunked
  // buffering at all.
  BgpStream::Options opt;
  opt.prefetch_subsets = 2;
  StreamRun whole = Run(std::move(opt));
  EXPECT_EQ(whole.max_records_buffered, 0u);
  EXPECT_EQ(whole.records.size(), size_t(kFiles) * kRecordsPerFile);
}

}  // namespace
}  // namespace bgps::core
