// §3.1 live-mode requirement — processing must outpace data generation.
//
// google-benchmark micro-benchmarks of every stage on the hot path:
// MRT framing+decode, BGP UPDATE encode/decode, elem extraction, filter
// evaluation, patricia lookups, multi-way merge. A modern laptop core
// sustains far more records/s than RouteViews+RIS generate (~hundreds/s),
// which is the headroom the paper's live applications rely on.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <random>
#include <thread>

#include "core/dump_reader.hpp"
#include "core/elem.hpp"
#include "core/filter.hpp"
#include "core/stream.hpp"
#include "mrt/encode.hpp"
#include "mrt/file.hpp"
#include "mrt/mrt.hpp"
#include "pool/record_fanout.hpp"
#include "pool/stream_pool.hpp"
#include "sim/corpus.hpp"
#include "util/patricia.hpp"

using namespace bgps;

namespace {

mrt::Bgp4mpMessage MakeUpdateMsg(int prefixes) {
  mrt::Bgp4mpMessage m;
  m.peer_asn = 65001;
  m.local_asn = 64512;
  m.peer_address = IpAddress::V4(10, 0, 0, 1);
  m.local_address = IpAddress::V4(192, 0, 2, 1);
  m.update.attrs.as_path = bgp::AsPath::Sequence({65001, 3356, 2914, 15169});
  m.update.attrs.next_hop = IpAddress::V4(10, 0, 0, 1);
  m.update.attrs.communities = {bgp::Community(3356, 100),
                                bgp::Community(65535, 666)};
  for (int i = 0; i < prefixes; ++i) {
    m.update.announced.push_back(
        Prefix(IpAddress::V4(uint32_t(10 + i) << 24), 16));
  }
  return m;
}

void BM_MrtDecodeUpdate(benchmark::State& state) {
  Bytes wire = mrt::EncodeBgp4mpUpdate(1458000000,
                                       MakeUpdateMsg(int(state.range(0))));
  for (auto _ : state) {
    BufReader r(wire);
    auto raw = mrt::DecodeRawRecord(r);
    auto msg = mrt::DecodeRecord(*raw);
    benchmark::DoNotOptimize(msg);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(wire.size()));
}
BENCHMARK(BM_MrtDecodeUpdate)->Arg(1)->Arg(8)->Arg(64);

void BM_MrtEncodeUpdate(benchmark::State& state) {
  auto msg = MakeUpdateMsg(int(state.range(0)));
  for (auto _ : state) {
    Bytes wire = mrt::EncodeBgp4mpUpdate(1458000000, msg);
    benchmark::DoNotOptimize(wire);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_MrtEncodeUpdate)->Arg(1)->Arg(64);

void BM_ElemExtraction(benchmark::State& state) {
  core::Record rec;
  rec.dump_type = core::DumpType::Updates;
  rec.msg.timestamp = 1458000000;
  rec.msg.body = MakeUpdateMsg(int(state.range(0)));
  size_t elems = 0;
  for (auto _ : state) {
    auto out = core::ExtractElems(rec);
    elems += out.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(int64_t(elems));
}
BENCHMARK(BM_ElemExtraction)->Arg(1)->Arg(8)->Arg(64);

void BM_FilterMatch(benchmark::State& state) {
  core::FilterSet filters;
  (void)filters.AddOption("prefix", "more 10.0.0.0/8");
  (void)filters.AddOption("community", "*:666");
  (void)filters.AddOption("elemtype", "announcements");
  core::Record rec;
  rec.dump_type = core::DumpType::Updates;
  rec.msg.body = MakeUpdateMsg(8);
  auto elems = core::ExtractElems(rec);
  size_t matched = 0;
  for (auto _ : state) {
    for (const auto& e : elems) matched += filters.MatchesElem(e);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * int64_t(elems.size()));
  benchmark::DoNotOptimize(matched);
}
BENCHMARK(BM_FilterMatch);

void BM_PatriciaLongestMatch(benchmark::State& state) {
  PatriciaTrie<int> trie(IpFamily::V4);
  std::mt19937 rng(7);
  for (int i = 0; i < int(state.range(0)); ++i) {
    trie.insert(Prefix(IpAddress::V4(rng()), 8 + int(rng() % 17)), i);
  }
  std::vector<IpAddress> queries;
  for (int i = 0; i < 1024; ++i) queries.push_back(IpAddress::V4(rng()));
  size_t q = 0, hits = 0;
  for (auto _ : state) {
    hits += trie.longest_match(queries[q++ & 1023]).has_value();
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_PatriciaLongestMatch)->Arg(1000)->Arg(100000);

void BM_AsPathToString(benchmark::State& state) {
  bgp::AsPath path = bgp::AsPath::Sequence({65001, 3356, 2914, 1299, 15169});
  for (auto _ : state) {
    std::string s = path.ToString();
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_AsPathToString);

void BM_RibRecordDecode(benchmark::State& state) {
  mrt::RibPrefix rib;
  rib.prefix = Prefix(IpAddress::V4(10, 0, 0, 0), 8);
  for (int i = 0; i < int(state.range(0)); ++i) {
    mrt::RibEntry e;
    e.peer_index = uint16_t(i);
    e.originated_time = 1458000000;
    e.attrs.as_path =
        bgp::AsPath::Sequence({bgp::Asn(65000 + i), 3356, 15169});
    e.attrs.next_hop = IpAddress::V4(10, 0, 0, 1);
    rib.entries.push_back(std::move(e));
  }
  Bytes wire = mrt::EncodeRibPrefix(1458000000, rib, IpFamily::V4);
  for (auto _ : state) {
    BufReader r(wire);
    auto raw = mrt::DecodeRawRecord(r);
    auto msg = mrt::DecodeRecord(*raw);
    benchmark::DoNotOptimize(msg);
  }
  state.SetItemsProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_RibRecordDecode)->Arg(4)->Arg(32)->Arg(256);

// --- End-to-end stream: the three-stage asynchronous pipeline --------------
//
// A multi-file merge workload: 8 overlapping-subsets of 4 updates files
// each, served one subset per DataBatch. Two latency knobs emulate the
// paper's deployment, where dump files stream over HTTP from the
// RouteViews / RIS archives and the broker answers windowed meta-data
// queries: range(0) = per-file open latency (µs), range(1) = per-batch
// broker round-trip latency (µs). These are exactly the stalls the
// asynchronous pipeline (paper §3.1/§3.3.2/§3.3.4) exists to hide:
//   BM_StreamSync               everything inline on the consumer thread
//   BM_StreamPrefetch           decode-ahead within a batch (PR 1 path)
//   BM_StreamCrossBatchExtract  + eager next-batch fetch + worker-side
//                               elem extraction
//   BM_StreamFullPipeline       + chunked decode (bounded buffers)
// At 0/0 latency the set measures pure CPU overhead of the handoffs.
// Every variant consumes records *and elems*, and reports records/sec
// alongside wall time.

constexpr int kBenchSubsets = 8;
constexpr int kBenchFilesPerSubset = 4;
constexpr int kBenchRecordsPerFile = 250;

std::string& ThroughputArchiveDir() {
  // PID-keyed so concurrent bench processes don't truncate each other's
  // input files mid-decode; removed at exit like the other benches'
  // temp trees.
  static std::string dir =
      (std::filesystem::temp_directory_path() /
       ("bgps-bench-throughput-" + std::to_string(::getpid()))).string();
  return dir;
}

const std::vector<broker::DumpFileMeta>& GetThroughputArchive() {
  static const std::vector<broker::DumpFileMeta>* files = [] {
    namespace fs = std::filesystem;
    auto* out = new std::vector<broker::DumpFileMeta>();
    fs::path dir = ThroughputArchiveDir();
    fs::create_directories(dir);
    std::atexit([] {
      std::error_code ec;
      std::filesystem::remove_all(ThroughputArchiveDir(), ec);
    });
    for (int s = 0; s < kBenchSubsets; ++s) {
      Timestamp base = 1458000000 + Timestamp(s) * 10000;
      for (int f = 0; f < kBenchFilesPerSubset; ++f) {
        broker::DumpFileMeta meta;
        meta.project = "bench";
        meta.collector = "c" + std::to_string(f);
        meta.type = broker::DumpType::Updates;
        meta.start = base + f;  // offset starts; all overlap within subset
        meta.duration = 900;
        meta.path = (dir / (std::to_string(s) + "_" + std::to_string(f) +
                            ".mrt")).string();
        // Always regenerate: a stale file from an older bench revision
        // (or a crashed half-written run) would silently skew the
        // sync-vs-prefetch comparison.
        mrt::MrtFileWriter w;
        if (!w.Open(meta.path).ok()) std::abort();
        for (int i = 0; i < kBenchRecordsPerFile; ++i) {
          Timestamp ts = meta.start + Timestamp(i) * 3;
          (void)w.Write(mrt::EncodeBgp4mpUpdate(ts, MakeUpdateMsg(4)));
        }
        (void)w.Close();
        out->push_back(std::move(meta));
      }
    }
    return out;
  }();
  return *files;
}

// Serves the archive `files_per_batch` files at a time (mirroring the
// broker's windowed responses), sleeping `batch_latency` per call to
// emulate the HTTP round-trip.
class BatchedDataInterface : public core::DataInterface {
 public:
  BatchedDataInterface(std::vector<broker::DumpFileMeta> files,
                       size_t files_per_batch,
                       std::chrono::microseconds batch_latency)
      : files_(std::move(files)),
        files_per_batch_(files_per_batch),
        batch_latency_(batch_latency) {}

  core::DataBatch NextBatch(const core::FilterSet&) override {
    if (batch_latency_.count() > 0) {
      std::this_thread::sleep_for(batch_latency_);
    }
    core::DataBatch batch;
    if (next_ >= files_.size()) {
      batch.end_of_stream = true;
      return batch;
    }
    size_t n = std::min(files_per_batch_, files_.size() - next_);
    batch.files.assign(files_.begin() + long(next_),
                       files_.begin() + long(next_ + n));
    next_ += n;
    return batch;
  }

 private:
  std::vector<broker::DumpFileMeta> files_;
  size_t files_per_batch_;
  std::chrono::microseconds batch_latency_;
  size_t next_ = 0;
};

void RunStreamBench(benchmark::State& state,
                    const core::BgpStream::Options& base_options) {
  const auto& files = GetThroughputArchive();
  auto open_latency = std::chrono::microseconds(state.range(0));
  auto batch_latency = std::chrono::microseconds(state.range(1));
  size_t records = 0, elems = 0;
  auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    BatchedDataInterface di(files, kBenchFilesPerSubset, batch_latency);
    core::BgpStream::Options opt = base_options;
    if (open_latency.count() > 0) {
      opt.file_open_hook = [open_latency](const broker::DumpFileMeta&) {
        std::this_thread::sleep_for(open_latency);
      };
    }
    core::BgpStream stream(std::move(opt));
    stream.SetInterval(0, 4102444800);
    stream.SetDataInterface(&di);
    if (!stream.Start().ok()) std::abort();
    while (auto rec = stream.NextRecord()) {
      records += 1;
      for (const auto& e : stream.Elems(*rec)) {
        elems += 1;
        benchmark::DoNotOptimize(e.time);
      }
      benchmark::DoNotOptimize(rec->timestamp);
    }
  }
  double wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  state.SetItemsProcessed(int64_t(records));
  // items_per_second is CPU-time based; for a latency-hiding pipeline the
  // interesting rate is against wall clock.
  state.counters["records_per_sec_wall"] =
      wall_seconds > 0 ? double(records) / wall_seconds : 0.0;
  state.counters["records_per_run"] =
      double(records) / double(state.iterations());
  state.counters["elems_per_run"] =
      double(elems) / double(state.iterations());
}

void BM_StreamSync(benchmark::State& state) {
  RunStreamBench(state, {});
}

void BM_StreamPrefetch(benchmark::State& state) {
  core::BgpStream::Options opt;
  opt.prefetch_subsets = 3;
  opt.decode_threads = 4;
  RunStreamBench(state, opt);
}

void BM_StreamCrossBatchExtract(benchmark::State& state) {
  core::BgpStream::Options opt;
  opt.prefetch_subsets = 3;
  opt.decode_threads = 4;
  opt.prefetch_batches = true;
  opt.extract_elems_in_workers = true;
  RunStreamBench(state, opt);
}

void BM_StreamFullPipeline(benchmark::State& state) {
  core::BgpStream::Options opt;
  opt.prefetch_subsets = 3;
  opt.decode_threads = 4;
  opt.prefetch_batches = true;
  opt.extract_elems_in_workers = true;
  opt.max_records_in_flight = 512;  // per-subset cap: 128 per file × 4 files
  RunStreamBench(state, opt);
}

#define BGPS_STREAM_BENCH(fn)                                        \
  BENCHMARK(fn)->Args({0, 0})->Args({2000, 5000})->Unit(            \
      benchmark::kMillisecond)

BGPS_STREAM_BENCH(BM_StreamSync);
BGPS_STREAM_BENCH(BM_StreamPrefetch);
BGPS_STREAM_BENCH(BM_StreamCrossBatchExtract);
BGPS_STREAM_BENCH(BM_StreamFullPipeline);

// --- Simulator-generated corpus through the full pipeline ------------------
//
// The synthetic archives above repeat one hand-built record shape; the
// scenario engine's corpus has the realistic mix — RIB dumps + updates
// dumps across two collectors, MOAS/hijack bursts, session resets, a
// long-tail AS-path distribution — which exercises the decode hot path
// (AS-path decode, SmallVec spills, per-type dispatch) the way a real
// RouteViews/RIS window does. Built lazily once per process, same seed
// every run, so results are comparable across revisions.

std::string& GeneratedCorpusDir() {
  static std::string dir =
      (std::filesystem::temp_directory_path() /
       ("bgps-bench-corpus-" + std::to_string(::getpid()))).string();
  return dir;
}

const std::vector<broker::DumpFileMeta>& GetGeneratedCorpus() {
  static const std::vector<broker::DumpFileMeta>* files = [] {
    auto* out = new std::vector<broker::DumpFileMeta>();
    // Construct the path before registering the cleanup, so the path
    // outlives the handler that reads it.
    GeneratedCorpusDir();
    std::atexit([] {
      std::error_code ec;
      std::filesystem::remove_all(GeneratedCorpusDir(), ec);
    });
    sim::CorpusOptions options;
    options.scenario = "mixed";
    options.duration = 3600;
    options.flaps_per_hour = 1500;
    options.seed = 12;
    if (!sim::GenerateCorpus(options, GeneratedCorpusDir()).ok())
      std::abort();
    broker::ArchiveIndex index(GeneratedCorpusDir());
    if (!index.Rescan().ok()) std::abort();
    *out = index.files();
    return out;
  }();
  return *files;
}

void BM_StreamGeneratedCorpus(benchmark::State& state) {
  const auto& files = GetGeneratedCorpus();
  auto open_latency = std::chrono::microseconds(state.range(0));
  auto batch_latency = std::chrono::microseconds(state.range(1));
  size_t records = 0, elems = 0;
  auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    BatchedDataInterface di(files, 8, batch_latency);
    core::BgpStream::Options opt;
    opt.prefetch_subsets = 3;
    opt.decode_threads = 4;
    opt.prefetch_batches = true;
    opt.extract_elems_in_workers = true;
    opt.max_records_in_flight = 512;
    if (open_latency.count() > 0) {
      opt.file_open_hook = [open_latency](const broker::DumpFileMeta&) {
        std::this_thread::sleep_for(open_latency);
      };
    }
    core::BgpStream stream(std::move(opt));
    stream.SetInterval(0, 4102444800);
    stream.SetDataInterface(&di);
    if (!stream.Start().ok()) std::abort();
    while (auto rec = stream.NextRecord()) {
      records += 1;
      for (const auto& e : stream.Elems(*rec)) {
        elems += 1;
        benchmark::DoNotOptimize(e.time);
      }
      benchmark::DoNotOptimize(rec->timestamp);
    }
  }
  double wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  state.SetItemsProcessed(int64_t(records));
  state.counters["records_per_sec_wall"] =
      wall_seconds > 0 ? double(records) / wall_seconds : 0.0;
  state.counters["records_per_run"] =
      double(records) / double(state.iterations());
  state.counters["elems_per_run"] =
      double(elems) / double(state.iterations());
}
BGPS_STREAM_BENCH(BM_StreamGeneratedCorpus);

// --- Production-path decode: DumpReader over generated dumps --------------
//
// BM_MrtDecodeUpdate and BM_RibRecordDecode above time the production
// body decoder (mrt::DecodeRecord is the value-returning form of the
// DecodeRecordInto that DumpReader runs) over one hand-built record in
// memory. These two time the whole per-dump loop the stream runs
// through core::DumpReader: framing out of the file reader's reused
// buffer and in-place decode into the record's lookahead slot (open +
// DumpReader::Next until the dump ends, no elem extraction), per record:
// a generated RIB dump, and the generated corpus's updates dumps.

std::string& GeneratedRibDir() {
  static std::string dir =
      (std::filesystem::temp_directory_path() /
       ("bgps-bench-rib-" + std::to_string(::getpid()))).string();
  return dir;
}

const std::vector<broker::DumpFileMeta>& GetGeneratedRibDump() {
  static const std::vector<broker::DumpFileMeta>* files = [] {
    auto* out = new std::vector<broker::DumpFileMeta>();
    GeneratedRibDir();  // constructed first: see GetGeneratedCorpus
    std::atexit([] {
      std::error_code ec;
      std::filesystem::remove_all(GeneratedRibDir(), ec);
    });
    sim::SyntheticRibOptions options;
    options.prefixes = 50'000;
    options.vps = 4;
    options.update_windows = 0;
    options.final_rib = false;
    options.seed = 12;
    if (!sim::GenerateSyntheticRib(options, GeneratedRibDir()).ok())
      std::abort();
    broker::ArchiveIndex index(GeneratedRibDir());
    if (!index.Rescan().ok()) std::abort();
    *out = index.files();
    return out;
  }();
  return *files;
}

void DumpReaderDecode(benchmark::State& state,
                      const std::vector<broker::DumpFileMeta>& files) {
  size_t records = 0;
  for (auto _ : state) {
    for (const auto& meta : files) {
      core::DumpReader reader(meta);
      while (auto rec = reader.Next()) {
        ++records;
        benchmark::DoNotOptimize(rec->msg);
      }
    }
  }
  state.SetItemsProcessed(int64_t(records));
  state.counters["records_per_run"] =
      double(records) / double(state.iterations());
}

void BM_DumpReaderRibDecode(benchmark::State& state) {
  DumpReaderDecode(state, GetGeneratedRibDump());
}
BENCHMARK(BM_DumpReaderRibDecode)->Unit(benchmark::kMillisecond);

void BM_DumpReaderUpdatesDecode(benchmark::State& state) {
  std::vector<broker::DumpFileMeta> updates;
  for (const auto& meta : GetGeneratedCorpus())
    if (meta.type == broker::DumpType::Updates) updates.push_back(meta);
  DumpReaderDecode(state, updates);
}
BENCHMARK(BM_DumpReaderUpdatesDecode)->Unit(benchmark::kMillisecond);

// --- Elem extraction over the generated RIB --------------------------------
//
// The stream's extraction pass (ExtractFilteredElemsInto, what Elems()
// runs) over every record of the RIB dump BM_DumpReaderRibDecode reads,
// decoded once up front so only extraction is timed. Arg 0: no elem
// filter (plain decomposition). Arg 1: perfbench hist-rib's filter
// shape (a more-specific prefix filter, elemtype ribs or announcements),
// which the pass checks on each elem's fields before building it. The
// generator numbers /24s upward from 1.0.0.0, so hist-rib's 2.0.0.0/8
// keeps a third of its 200k prefixes and none of these 50k; 1.64.0.0/10
// keeps the same third here. Items are records; kept_elems_per_run
// counts what the filters let through.
void BM_RibElemExtraction(benchmark::State& state) {
  static const std::vector<core::Record>* records = [] {
    auto* out = new std::vector<core::Record>();
    for (const auto& meta : GetGeneratedRibDump()) {
      core::DumpReader reader(meta);
      while (auto rec = reader.Next()) out->push_back(std::move(*rec));
    }
    return out;
  }();
  core::FilterSet filters;
  if (state.range(0) == 1) {
    (void)filters.AddOption("prefix", "more 1.64.0.0/10");
    (void)filters.AddOption("elemtype", "ribs");
    (void)filters.AddOption("elemtype", "announcements");
  }
  size_t kept = 0;
  for (auto _ : state) {
    for (const core::Record& rec : *records) {
      std::vector<core::Elem> elems;
      core::ExtractFilteredElemsInto(rec, filters, elems);
      kept += elems.size();
      benchmark::DoNotOptimize(elems);
    }
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(records->size()));
  state.counters["kept_elems_per_run"] =
      double(kept) / double(state.iterations());
}
BENCHMARK(BM_RibElemExtraction)
    ->ArgName("filtered")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// --- Multi-tenant: shared StreamPool vs private per-stream pipelines ------
//
// Four concurrent streams, each consuming a disjoint quarter of the
// archive (2 subsets / 8 files) on its own consumer thread, with the
// same open/batch latency emulation as the single-stream pair:
//   BM_MultiTenantPrivatePools  4 streams × (1 decode thread + a
//                               private 128-record chunked budget) —
//                               the pre-runtime-layer shape, 4 threads
//                               and 4 budgets total.
//   BM_MultiTenantSharedPool    one StreamPool: 4 shared Executor
//                               workers + one 512-record MemoryGovernor
//                               budget across all tenants.
// Counters: wall-clock records/s and the peak number of records
// buffered (governor watermark for the pool; summed per-stream
// watermarks for the private shape — an *upper bound* that the
// governor turns into a hard guarantee).

constexpr int kTenantCount = 4;

std::vector<broker::DumpFileMeta> TenantSlice(int tenant) {
  const auto& files = GetThroughputArchive();
  size_t per_tenant = files.size() / kTenantCount;
  return {files.begin() + long(size_t(tenant) * per_tenant),
          files.begin() + long(size_t(tenant + 1) * per_tenant)};
}

void RunMultiTenantBench(benchmark::State& state, bool shared_pool) {
  auto open_latency = std::chrono::microseconds(state.range(0));
  auto batch_latency = std::chrono::microseconds(state.range(1));
  size_t records = 0;
  size_t peak_buffered = 0;
  auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    std::unique_ptr<StreamPool> pool;
    if (shared_pool) {
      auto created =
          StreamPool::Create({.threads = 4, .record_budget = 512});
      if (!created.ok()) std::abort();
      pool = std::move(*created);
    }
    std::atomic<size_t> run_records{0};
    std::atomic<size_t> private_peak{0};
    std::vector<std::thread> consumers;
    for (int t = 0; t < kTenantCount; ++t) {
      consumers.emplace_back([&, t] {
        BatchedDataInterface di(TenantSlice(t), kBenchFilesPerSubset,
                                batch_latency);
        core::BgpStream::Options opt;
        opt.prefetch_subsets = 3;
        opt.extract_elems_in_workers = true;
        if (!shared_pool) {
          opt.decode_threads = 1;
          opt.max_records_in_flight = 512 / kTenantCount;
        }
        if (open_latency.count() > 0) {
          opt.file_open_hook = [open_latency](const broker::DumpFileMeta&) {
            std::this_thread::sleep_for(open_latency);
          };
        }
        std::unique_ptr<core::BgpStream> stream =
            pool ? pool->CreateStream(std::move(opt))
                 : std::make_unique<core::BgpStream>(std::move(opt));
        stream->SetInterval(0, 4102444800);
        stream->SetDataInterface(&di);
        if (!stream->Start().ok()) std::abort();
        size_t mine = 0;
        while (auto rec = stream->NextRecord()) {
          ++mine;
          for (const auto& e : stream->Elems(*rec)) {
            benchmark::DoNotOptimize(e.time);
          }
        }
        run_records += mine;
        private_peak += stream->max_records_buffered();
      });
    }
    for (auto& c : consumers) c.join();
    records += run_records.load();
    peak_buffered = std::max(
        peak_buffered,
        pool ? pool->max_records_in_use() : private_peak.load());
  }
  double wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  state.SetItemsProcessed(int64_t(records));
  state.counters["records_per_sec_wall"] =
      wall_seconds > 0 ? double(records) / wall_seconds : 0.0;
  state.counters["peak_records_buffered"] = double(peak_buffered);
}

void BM_MultiTenantPrivatePools(benchmark::State& state) {
  RunMultiTenantBench(state, /*shared_pool=*/false);
}

void BM_MultiTenantSharedPool(benchmark::State& state) {
  RunMultiTenantBench(state, /*shared_pool=*/true);
}

BGPS_STREAM_BENCH(BM_MultiTenantPrivatePools);
BGPS_STREAM_BENCH(BM_MultiTenantSharedPool);

// --- Weighted tenant scheduling: live monitor vs batch backfills ----------
//
// The §3.3 framing: a live monitor must never wait behind batch
// backfills. Tenant 0 plays the live consumer, tenants 1–3 are
// backfills, all sharing one 2-worker pool (scarce workers make the
// dispatcher the bottleneck, which is exactly what weights arbitrate):
//   BM_MultiTenantEqualWeights   every tenant weight 1 (PR-3 dispatch)
//   BM_MultiTenantWeightedLive   tenant 0 weight 4
// Counters: the live tenant's own completion wall time (the number the
// weights exist to improve), the slowest tenant's, and an
// order-independent fingerprint of the pool's total output — identical
// between the variants, proving weights change *when* work runs, not
// *what* is emitted.

uint64_t RecordFingerprint(const core::Record& rec) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a over identity fields
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(uint64_t(rec.timestamp));
  for (char c : rec.collector) mix(uint8_t(c));
  mix(uint64_t(rec.dump_type));
  return h;
}

void RunWeightedTenantBench(benchmark::State& state, size_t live_weight) {
  auto open_latency = std::chrono::microseconds(state.range(0));
  auto batch_latency = std::chrono::microseconds(state.range(1));
  size_t records = 0;
  double live_ms_total = 0, slowest_ms_total = 0;
  uint64_t checksum = 0;
  auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto created = StreamPool::Create({.threads = 2, .record_budget = 512});
    if (!created.ok()) std::abort();
    std::unique_ptr<StreamPool> pool = std::move(*created);
    std::atomic<size_t> run_records{0};
    std::atomic<uint64_t> run_checksum{0};
    std::vector<double> tenant_ms(kTenantCount);
    std::vector<std::thread> consumers;
    for (int t = 0; t < kTenantCount; ++t) {
      consumers.emplace_back([&, t] {
        BatchedDataInterface di(TenantSlice(t), kBenchFilesPerSubset,
                                batch_latency);
        core::BgpStream::Options opt;
        opt.prefetch_subsets = 3;
        opt.extract_elems_in_workers = true;
        if (open_latency.count() > 0) {
          opt.file_open_hook = [open_latency](const broker::DumpFileMeta&) {
            std::this_thread::sleep_for(open_latency);
          };
        }
        StreamPool::TenantOptions topt;
        topt.weight = t == 0 ? live_weight : 1;
        topt.name = t == 0 ? "live" : "backfill-" + std::to_string(t);
        std::unique_ptr<core::BgpStream> stream =
            pool->CreateStream(std::move(opt), std::move(topt));
        stream->SetInterval(0, 4102444800);
        stream->SetDataInterface(&di);
        if (!stream->Start().ok()) std::abort();
        auto t0 = std::chrono::steady_clock::now();
        size_t mine = 0;
        uint64_t fp = 0;  // XOR: order-independent across tenants
        while (auto rec = stream->NextRecord()) {
          ++mine;
          fp ^= RecordFingerprint(*rec);
          for (const auto& e : stream->Elems(*rec)) {
            benchmark::DoNotOptimize(e.time);
          }
        }
        tenant_ms[size_t(t)] = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
        run_records += mine;
        run_checksum ^= fp;
      });
    }
    for (auto& c : consumers) c.join();
    records += run_records.load();
    checksum = run_checksum.load();  // same every iteration by construction
    live_ms_total += tenant_ms[0];
    slowest_ms_total += *std::max_element(tenant_ms.begin(), tenant_ms.end());
  }
  double wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  double iters = double(state.iterations());
  state.SetItemsProcessed(int64_t(records));
  state.counters["records_per_sec_wall"] =
      wall_seconds > 0 ? double(records) / wall_seconds : 0.0;
  state.counters["live_tenant_wall_ms"] = live_ms_total / iters;
  state.counters["slowest_tenant_wall_ms"] = slowest_ms_total / iters;
  // Exactly representable in a double (48 bits); equal between the
  // equal-weight and weighted variants ⇔ identical total pool output.
  state.counters["output_fingerprint"] =
      double(checksum & ((uint64_t(1) << 48) - 1));
}

void BM_MultiTenantEqualWeights(benchmark::State& state) {
  RunWeightedTenantBench(state, /*live_weight=*/1);
}

void BM_MultiTenantWeightedLive(benchmark::State& state) {
  RunWeightedTenantBench(state, /*live_weight=*/4);
}

BGPS_STREAM_BENCH(BM_MultiTenantEqualWeights);
BGPS_STREAM_BENCH(BM_MultiTenantWeightedLive);

// --- Deadline-class dispatch: per-record latency of live tenants ----------
//
// Seven same-weight (weight-8) "live" monitors + one weight-1 backfill
// share a scarce 2-worker pool with a tight record budget (frequent
// urgent refills — the scheduling interaction deadlines exist to
// arbitrate). Weighted round-robin alone serves a blocked live
// consumer's refill only when the cursor reaches its queue, i.e. after
// up to a full rotation of other tenants' multi-task visits; with the
// tenants in one deadline class, each class claim takes the
// earliest-enqueued head (urgent stamps first), so a live consumer's
// wait tracks enqueue order:
//   BM_MultiTenantWeightedOnlyLive  weight-8 live tenants, no deadlines
//   BM_MultiTenantDeadlineLive      same weights, deadline class on
// Counters: p95/p50 of the live tenants' per-NextRecord wall latency
// (the number deadline dispatch improves), p50/p99 of the wait a
// blocked live consumer saw before its file open dispatched (the
// number the open/burst task split improves), plus the same
// order-independent output fingerprint — identical between variants.

void RunDeadlineTenantBench(benchmark::State& state, bool deadline) {
  // 7 live tenants + 1 backfill, each over one 4-file subset (an
  // eighth of the archive): a long dispatch rotation is exactly where
  // cursor order and enqueue order diverge.
  constexpr int kDeadlineTenants = 8;
  constexpr int kLiveTenants = 7;
  auto open_latency = std::chrono::microseconds(state.range(0));
  auto batch_latency = std::chrono::microseconds(state.range(1));
  size_t records = 0;
  uint64_t checksum = 0;
  std::mutex lat_mu;
  std::vector<double> live_pop_ms;   // all live tenants, all iterations
  std::vector<double> open_wait_ms;  // live-blocked wait until a file open ran
  auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    // A deliberately tight budget: a handful of buffered records per
    // file keeps every live consumer on the urgent-refill path, so pop
    // latency is dominated by dispatch order — the variable under test.
    auto created = StreamPool::Create({.threads = 2, .record_budget = 64});
    if (!created.ok()) std::abort();
    std::unique_ptr<StreamPool> pool = std::move(*created);
    std::atomic<size_t> run_records{0};
    std::atomic<uint64_t> run_checksum{0};
    std::vector<std::thread> consumers;
    for (int t = 0; t < kDeadlineTenants; ++t) {
      consumers.emplace_back([&, t] {
        bool live = t < kLiveTenants;
        const auto& files = GetThroughputArchive();
        size_t per_tenant = files.size() / kDeadlineTenants;
        std::vector<broker::DumpFileMeta> slice(
            files.begin() + long(size_t(t) * per_tenant),
            files.begin() + long(size_t(t + 1) * per_tenant));
        BatchedDataInterface di(std::move(slice), kBenchFilesPerSubset,
                                batch_latency);
        core::BgpStream::Options opt;
        opt.prefetch_subsets = 2;
        opt.extract_elems_in_workers = true;
        // While this consumer is blocked in NextRecord, holds the pop's
        // start tick (steady-clock ticks since epoch); 0 otherwise. The
        // open hook reads it to measure how long a blocked live consumer
        // waited before its file open finally dispatched — the
        // head-of-line number the open/burst task split shrinks.
        auto pop_start = std::make_shared<std::atomic<int64_t>>(0);
        opt.file_open_hook = [&lat_mu, &open_wait_ms, live, pop_start,
                              open_latency](const broker::DumpFileMeta&) {
          if (live) {
            int64_t t0 = pop_start->load(std::memory_order_acquire);
            if (t0 != 0) {
              int64_t now =
                  std::chrono::steady_clock::now().time_since_epoch().count();
              double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::duration(now - t0))
                              .count();
              std::lock_guard<std::mutex> lock(lat_mu);
              open_wait_ms.push_back(ms);
            }
          }
          if (open_latency.count() > 0) {
            std::this_thread::sleep_for(open_latency);
          }
        };
        StreamPool::TenantOptions topt;
        topt.weight = live ? 8 : 1;
        topt.deadline = live && deadline;
        topt.name = live ? "live-" + std::to_string(t)
                         : "backfill-" + std::to_string(t);
        std::unique_ptr<core::BgpStream> stream =
            pool->CreateStream(std::move(opt), std::move(topt));
        stream->SetInterval(0, 4102444800);
        stream->SetDataInterface(&di);
        if (!stream->Start().ok()) std::abort();
        size_t mine = 0;
        uint64_t fp = 0;  // XOR: order-independent across tenants
        std::vector<double> my_pops;
        while (true) {
          auto t0 = std::chrono::steady_clock::now();
          pop_start->store(t0.time_since_epoch().count(),
                           std::memory_order_release);
          auto rec = stream->NextRecord();
          pop_start->store(0, std::memory_order_release);
          if (!rec) break;
          if (live) {
            my_pops.push_back(std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
          }
          ++mine;
          fp ^= RecordFingerprint(*rec);
          for (const auto& e : stream->Elems(*rec)) {
            benchmark::DoNotOptimize(e.time);
          }
        }
        run_records += mine;
        run_checksum ^= fp;
        if (live) {
          std::lock_guard<std::mutex> lock(lat_mu);
          live_pop_ms.insert(live_pop_ms.end(), my_pops.begin(),
                             my_pops.end());
        }
      });
    }
    for (auto& c : consumers) c.join();
    records += run_records.load();
    checksum = run_checksum.load();  // same every iteration by construction
  }
  double wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  state.SetItemsProcessed(int64_t(records));
  state.counters["records_per_sec_wall"] =
      wall_seconds > 0 ? double(records) / wall_seconds : 0.0;
  auto pct = [](std::vector<double>& v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    size_t idx = std::min(v.size() - 1, size_t(p * double(v.size())));
    return v[idx];
  };
  state.counters["live_pop_p50_ms"] = pct(live_pop_ms, 0.50);
  state.counters["live_pop_p95_ms"] = pct(live_pop_ms, 0.95);
  state.counters["live_pop_p99_ms"] = pct(live_pop_ms, 0.99);
  // Opens that ran while a live consumer was blocked on them: the wait
  // from pop start to open dispatch. With deadline classes + the
  // open-only task split, a queued open no longer sits behind a rival
  // tenant's whole decode burst, so the tail shrinks.
  state.counters["open_wait_p50_ms"] = pct(open_wait_ms, 0.50);
  state.counters["open_wait_p99_ms"] = pct(open_wait_ms, 0.99);
  state.counters["output_fingerprint"] =
      double(checksum & ((uint64_t(1) << 48) - 1));
}

void BM_MultiTenantWeightedOnlyLive(benchmark::State& state) {
  RunDeadlineTenantBench(state, /*deadline=*/false);
}

void BM_MultiTenantDeadlineLive(benchmark::State& state) {
  RunDeadlineTenantBench(state, /*deadline=*/true);
}

BGPS_STREAM_BENCH(BM_MultiTenantWeightedOnlyLive);
BGPS_STREAM_BENCH(BM_MultiTenantDeadlineLive);

#undef BGPS_STREAM_BENCH

// --- Record-plane fan-out: decode once, serve N subscribers ----------------
//
// One RecordPublisher drains the synthetic archive into an in-memory
// cluster; N concurrent RecordSubscribers each re-materialize the full
// stream (records + elems). The `decodes_per_run` counter pins the
// tier's whole point: it stays equal to the archive's file count at
// N=1, 4, and 16 — subscribers cost socket/queue work, never MRT
// decode. items/s counts records *delivered* (published × N).
void BM_FanOut1PublisherNSubscribers(benchmark::State& state) {
  const size_t n_subs = size_t(state.range(0));
  const auto& files = GetThroughputArchive();
  size_t file_opens = 0, delivered = 0;
  for (auto _ : state) {
    mq::Cluster cluster;
    BatchedDataInterface di(files, files.size(),
                            std::chrono::microseconds(0));
    core::BgpStream::Options opt;
    opt.file_open_hook = [&file_opens](const broker::DumpFileMeta&) {
      ++file_opens;
    };
    core::BgpStream stream(std::move(opt));
    stream.SetInterval(0, 4102444800);
    stream.SetDataInterface(&di);
    if (!stream.Start().ok()) std::abort();

    pool::RecordPublisher::Options popt;
    popt.cluster = &cluster;
    pool::RecordPublisher publisher(popt);
    auto stats = publisher.Run(stream);
    if (!stats.ok()) std::abort();

    std::atomic<size_t> drained{0};
    std::vector<std::thread> subs;
    subs.reserve(n_subs);
    for (size_t s = 0; s < n_subs; ++s) {
      subs.emplace_back([&] {
        pool::RecordSubscriber::Options sopt;
        sopt.cluster = &cluster;
        sopt.filters.interval = {0, 4102444800};
        pool::RecordSubscriber sub(sopt);
        if (!sub.Start().ok()) std::abort();
        size_t local = 0;
        while (auto rec = sub.NextRecord()) {
          for (const auto& e : sub.Elems(*rec)) {
            benchmark::DoNotOptimize(e.time);
          }
          ++local;
        }
        drained += local;
      });
    }
    for (auto& t : subs) t.join();
    delivered += drained.load();
  }
  state.SetItemsProcessed(int64_t(delivered));
  state.counters["decodes_per_run"] =
      double(file_opens) / double(state.iterations());
  state.counters["records_delivered_per_run"] =
      double(delivered) / double(state.iterations());
}

BENCHMARK(BM_FanOut1PublisherNSubscribers)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
