#include "passes.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <thread>

#include "bmp/bmp.hpp"
#include "broker/broker.hpp"
#include "core/clock.hpp"
#include "core/data_interface.hpp"
#include "core/merge.hpp"
#include "core/stream.hpp"
#include "fingerprint.hpp"
#include "mq/serialize.hpp"
#include "pool/live_source.hpp"
#include "pool/record_fanout.hpp"
#include "pool/stream_pool.hpp"
#include "sim/replay.hpp"

namespace perfbench {

namespace core = bgps::core;
namespace fs = std::filesystem;

core::FilterSet MakeFilterSet(const FilterOptions& options) {
  core::FilterSet fs;
  for (const auto& [k, v] : options) (void)fs.AddOption(k, v);
  return fs;
}

std::vector<DumpFileMeta> ArchiveFiles(const std::string& root) {
  bgps::broker::ArchiveIndex index(root);
  if (!index.Rescan().ok()) return {};
  return index.files();
}

uint64_t FilesFingerprint(const std::vector<DumpFileMeta>& files) {
  Hasher h;
  std::vector<char> buf;
  for (const auto& f : files) {
    h.Add(uint64_t(f.start) ^ uint64_t(f.type) << 62);
    std::ifstream in(f.path, std::ios::binary);
    buf.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
    h.AddBytes(buf.data(), buf.size());
  }
  return h.Value();
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return double(tv.tv_sec) + double(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

namespace {

// Decorates the data interface a stream pulls from: times each broker
// round trip and counts batches.
class TimedInterface : public core::DataInterface {
 public:
  TimedInterface(core::DataInterface* inner, Tracer* tracer,
                 StreamCounters* counters)
      : inner_(inner), tracer_(tracer), counters_(counters) {}

  core::DataBatch NextBatch(const core::FilterSet& filters) override {
    Tracer::Scope span(tracer_, "broker.next_batch", calls_++);
    core::DataBatch batch = inner_->NextBatch(filters);
    if (counters_) counters_->batches.fetch_add(1);
    return batch;
  }
  void Refresh() override { inner_->Refresh(); }

 private:
  core::DataInterface* inner_;
  Tracer* tracer_;
  StreamCounters* counters_;
  uint64_t calls_ = 0;
};

core::BgpStream::Options CountingOptions(StreamCounters* counters) {
  core::BgpStream::Options opt;
  if (counters) {
    opt.file_open_hook = [counters](const DumpFileMeta&) {
      counters->files_opened.fetch_add(1);
    };
  }
  return opt;
}

// The decorated interface when anything observes the pass, else the
// broker's own: untraced passes run exactly bgpreader's path.
core::DataInterface* Observed(TimedInterface* timed,
                              core::BrokerDataInterface* direct,
                              Tracer* tracer, StreamCounters* counters) {
  if ((tracer && tracer->enabled()) || counters) return timed;
  return direct;
}

bool Configure(core::BgpStream& stream, const ArchiveQuery& query,
               core::DataInterface* di) {
  for (const auto& [k, v] : query.filters)
    if (!stream.AddFilter(k, v).ok()) return false;
  stream.SetInterval(query.start, query.end);
  stream.SetDataInterface(di);
  return true;
}

struct SpanNames {
  const char* next_record;
  const char* elems;
};

// The consumer loop: every record and its elems, fingerprinted, each
// taken as soon as the last one is handled.
void DrainStream(core::BgpStream& stream, Tracer* tracer, SpanNames names,
                 Drain& out) {
  for (uint64_t i = 0;; ++i) {
    std::optional<core::Record> rec;
    {
      Tracer::Scope span(tracer, names.next_record, i);
      rec = stream.NextRecord();
    }
    if (!rec) break;
    std::vector<core::Elem> elems;
    {
      Tracer::Scope span(tracer, names.elems, i);
      elems = stream.Elems(*rec);
    }
    out.got.push_back({i, RecordFingerprint(*rec, elems)});
  }
  out.end_ns = NowNs();
  out.ok = stream.status().ok();
}

}  // namespace

Drain RunSyncStream(const ArchiveQuery& query, Tracer* tracer,
                    StreamCounters* counters) {
  Drain out;
  bgps::broker::Broker broker(query.root);
  core::BrokerDataInterface direct(&broker);
  TimedInterface timed(&direct, tracer, counters);
  core::BgpStream stream(CountingOptions(counters));
  if (!Configure(stream, query, Observed(&timed, &direct, tracer, counters))) {
    out.ok = false;
    return out;
  }
  out.start_ns = NowNs();
  if (!stream.Start().ok()) {
    out.ok = false;
    return out;
  }
  DrainStream(stream, tracer, {"core.next_record", "core.elems"}, out);
  return out;
}

PoolRun RunPool(const std::vector<TenantSpec>& tenants, size_t threads,
                size_t budget, Tracer* tracer, StreamCounters* counters) {
  PoolRun run;
  run.tenants.resize(tenants.size());
  auto pool = bgps::StreamPool::Create(
      {.threads = threads, .record_budget = budget});
  if (!pool.ok()) {
    for (auto& t : run.tenants) t.ok = false;
    return run;
  }
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (size_t i = 0; i < tenants.size(); ++i) {
    workers.emplace_back([&, i] {
      const TenantSpec& spec = tenants[i];
      Drain& out = run.tenants[i];
      bgps::broker::Broker broker(spec.query.root);
      core::BrokerDataInterface direct(&broker);
      TimedInterface timed(&direct, tracer, counters);
      bgps::StreamPool::TenantOptions topt;
      topt.weight = spec.live ? 4 : 1;
      topt.deadline = spec.live;
      topt.name = spec.name;
      auto stream = (*pool)->CreateStream(CountingOptions(counters), topt);
      bool configured = Configure(
          *stream, spec.query, Observed(&timed, &direct, tracer, counters));
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      out.start_ns = NowNs();
      if (!configured || !stream->Start().ok()) {
        out.ok = false;
        return;
      }
      SpanNames names = spec.live
                            ? SpanNames{"pool.next_record.live",
                                        "pool.elems.live"}
                            : SpanNames{"pool.next_record.backfill",
                                        "pool.elems.backfill"};
      DrainStream(*stream, tracer, names, out);
    });
  }
  while (ready.load() < tenants.size()) std::this_thread::yield();

  std::atomic<bool> done{false};
  size_t samples = 0, waiting = 0;
  std::thread sampler;
  if (tracer && tracer->enabled()) {
    sampler = std::thread([&] {
      while (!done.load()) {
        auto snap = (*pool)->Stats();
        ++samples;
        if (snap.governor.waiting > 0) ++waiting;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  go.store(true);
  for (auto& w : workers) w.join();
  done.store(true);
  if (sampler.joinable()) sampler.join();

  auto snap = (*pool)->Stats();
  run.tasks_run = snap.executor.tasks_run;
  run.dispatch_rounds = snap.executor.dispatch_rounds;
  run.governor_max_in_use = snap.governor.max_in_use;
  run.governor_waiting_share = samples ? double(waiting) / double(samples) : 0;
  run.start_ns = run.tenants.empty() ? 0 : run.tenants[0].start_ns;
  for (const auto& t : run.tenants) {
    run.start_ns = std::min(run.start_ns, t.start_ns);
    run.end_ns = std::max(run.end_ns, t.end_ns);
  }
  return run;
}

// ---------------------------------------------------------------------------
// Reference kernel
// ---------------------------------------------------------------------------

namespace {

int64_t AllocationKernelNs() {
  int64_t t0 = NowNs();
  std::vector<std::vector<uint32_t>> live;
  live.reserve(1024);
  uint64_t sum = 0;
  for (uint32_t i = 0; i < 200'000; ++i) {
    live.emplace_back(i % 7 + 1, i);
    if (live.size() == 1024) {
      for (const auto& v : live) sum += v.back();
      live.clear();
    }
  }
  int64_t ns = NowNs() - t0;
  return sum == 0 ? ns + 1 : ns;  // keeps the work observable
}

// Runs the kernel on one long-lived thread of its own, so its
// allocations come from a heap arena the measured code never uses: the
// kernel times the host, not the heap state a pass left behind.
class KernelThread {
 public:
  KernelThread() : thread_([this] { Loop(); }) {}
  ~KernelThread() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  KernelThread(const KernelThread&) = delete;
  KernelThread& operator=(const KernelThread&) = delete;

  // Times the kernel on `cpu` (-1: wherever the thread runs).
  int64_t Run(int cpu) {
    std::unique_lock<std::mutex> lk(mu_);
    cpu_ = cpu;
    uint64_t ticket = ++requested_;
    cv_.notify_all();
    cv_.wait(lk, [&] { return done_ >= ticket; });
    return last_ns_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return stop_ || requested_ > done_; });
      if (stop_) return;
      int cpu = cpu_;
      lk.unlock();
      cpu_set_t all, one;
      bool pinned = false;
      if (cpu >= 0 && sched_getaffinity(0, sizeof all, &all) == 0) {
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned = sched_setaffinity(0, sizeof one, &one) == 0;
      }
      int64_t ns = AllocationKernelNs();
      if (pinned) sched_setaffinity(0, sizeof all, &all);
      lk.lock();
      last_ns_ = ns;
      done_ = requested_;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t requested_ = 0;
  uint64_t done_ = 0;
  int64_t last_ns_ = 0;
  int cpu_ = -1;  // where the next kernel runs (-1: anywhere)
  bool stop_ = false;
  std::thread thread_;  // last: starts after the state it uses exists
};

}  // namespace

int64_t ReferenceKernelNs(bool every_cpu) {
  static KernelThread kernel;
  cpu_set_t allowed;
  if (!every_cpu || sched_getaffinity(0, sizeof allowed, &allowed) != 0)
    return kernel.Run(sched_getcpu());
  int64_t total = 0;
  int cpus = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    total += kernel.Run(cpu);
    ++cpus;
  }
  return cpus ? total / cpus : kernel.Run(-1);
}

// ---------------------------------------------------------------------------
// Live ingest -> fan-out
// ---------------------------------------------------------------------------

std::vector<Bytes> ReplayFrames(const std::string& root, size_t max_frames) {
  std::vector<Bytes> frames;
  // Virtual clock with a no-op sleeper: the pacing arithmetic runs, no
  // wall time passes.
  core::AcceleratedClock clock(1.0, [](std::chrono::microseconds) {});
  bgps::sim::ReplayOptions opt;
  opt.archive_root = root;
  opt.format = bgps::sim::ReplayFormat::Bmp;
  opt.clock = &clock;
  opt.max_records = max_frames;
  auto stats = bgps::sim::ReplayArchive(
      opt, [&](Timestamp, const Bytes& payload) {
        frames.push_back(payload);
        return bgps::OkStatus();
      });
  if (!stats.ok()) frames.clear();
  return frames;
}

namespace {

// bgplive's defaults: 2 pool workers, a 4096-record budget, 64-record
// micro-dumps, a 10 ms live poll.
constexpr size_t kLiveThreads = 2;
constexpr size_t kLiveBudget = 4096;
constexpr size_t kFlushRecords = 64;
constexpr size_t kPublishBatch = 64;

void PollTenMs() { std::this_thread::sleep_for(std::chrono::milliseconds(10)); }

}  // namespace

LivePipeline::LivePipeline(std::string spool_dir,
                           std::vector<SubscriberSpec> subs)
    : spool_dir_(std::move(spool_dir)), specs_(std::move(subs)) {}

LivePipeline::~LivePipeline() {
  cluster_.reset();
  std::error_code ec;
  fs::remove_all(spool_dir_, ec);
}

bool LivePipeline::Run(const std::vector<Bytes>& frames, size_t count,
                       double rate,
                       const std::vector<uint64_t>& seq_to_frame,
                       Tracer* tracer) {
  count = std::min(count, frames.size());
  auto pool = bgps::StreamPool::Create(
      {.threads = kLiveThreads, .record_budget = kLiveBudget});
  if (!pool.ok()) return false;
  bgps::pool::LiveSource::Options sopt;
  sopt.spool_dir = spool_dir_;
  sopt.flush_records = kFlushRecords;
  sopt.governor = (*pool)->governor();
  sopt.executor = (*pool)->executor();
  auto source = bgps::pool::LiveSource::Create(std::move(sopt));
  if (!source.ok()) return false;

  core::BgpStream::Options topt;
  topt.poll_wait = PollTenMs;
  bgps::StreamPool::TenantOptions tenant;
  tenant.weight = 4;
  tenant.deadline = true;
  tenant.name = "live";
  auto stream = (*pool)->CreateStream(std::move(topt), tenant);
  stream->SetLive(0);
  stream->SetDataInterface((*source)->feed());
  if (!stream->Start().ok()) return false;

  cluster_ = std::make_unique<bgps::mq::Cluster>();
  std::vector<std::unique_ptr<bgps::pool::RecordSubscriber>> subs;
  for (const auto& spec : specs_) {
    bgps::pool::RecordSubscriber::Options o;
    o.cluster = cluster_.get();
    o.filters = MakeFilterSet(spec.filters);
    subs.push_back(std::make_unique<bgps::pool::RecordSubscriber>(o));
    if (!subs.back()->Start().ok()) return false;
  }
  subs_out_.assign(specs_.size(), Drain{});

  bool publish_ok = false;
  std::thread publisher([&] {
    bgps::pool::RecordPublisher::Options popt;
    popt.cluster = cluster_.get();
    popt.batch_records = kPublishBatch;
    bgps::pool::RecordPublisher pub(popt);
    publish_ok = pub.Run(*stream).ok();
  });
  std::vector<std::thread> readers;
  for (size_t s = 0; s < subs.size(); ++s) {
    readers.emplace_back([&, s] {
      auto& sub = *subs[s];
      Drain& out = subs_out_[s];
      out.start_ns = NowNs();
      while (auto rec = sub.NextRecord()) {
        int64_t t = NowNs();
        uint64_t seq = sub.next_seq() - 1;
        auto elems = sub.Elems(*rec);
        out.got.push_back({seq, RecordFingerprint(*rec, elems)});
        out.done_ns.push_back(t);
      }
      out.end_ns = NowNs();
      out.ok = sub.status().ok();
    });
  }

  // The generator: an open loop at `rate`, or a closed loop that pushes
  // the next frame as soon as ingestion accepts the last one.
  bool ingest_ok = true;
  Schedule sched{NowNs() + 2'000'000, rate > 0 ? rate : 1.0};
  lag_ms_.clear();
  for (size_t i = 0; i < count; ++i) {
    if (rate > 0) {
      int64_t due = sched.Due(i);
      WaitUntil(due);
      lag_ms_.push_back(LatencyMs(due, NowNs()));
    }
    Tracer::Scope span(tracer, "live.ingest_bmp", i);
    if (!(*source)->IngestBmp(frames[i]).ok()) {
      ingest_ok = false;
      break;
    }
  }
  bool close_ok = (*source)->Close().ok();
  publisher.join();
  for (auto& r : readers) r.join();

  for (auto& out : subs_out_) {
    if (rate <= 0) continue;
    for (size_t k = 0; k < out.got.size(); ++k) {
      uint64_t seq = out.got[k].key;
      if (seq >= seq_to_frame.size()) continue;  // an extra: counted by the
                                                 // comparison, not timed
      out.latency_ms.push_back(
          LatencyMs(sched.Due(seq_to_frame[seq]), out.done_ns[k]));
    }
  }
  auto st = (*source)->stats();
  parks_ = st.parks;
  dumps_ = st.dumps_published;
  records_spooled_ = st.records_spooled;
  subs.clear();
  stream.reset();
  return ingest_ok && close_ok && publish_ok;
}

LiveOracle BuildLiveOracle(const std::vector<Bytes>& frames,
                           const std::vector<SubscriberSpec>& subs,
                           const std::string& spool_dir) {
  LiveOracle oracle;
  oracle.per_subscriber.resize(subs.size());
  // Which input message each record comes from: every frame that maps
  // to an MRT record yields exactly one, in order.
  for (size_t i = 0; i < frames.size(); ++i) {
    bgps::BufReader r(frames[i]);
    auto msg = bgps::bmp::Decode(r);
    if (msg.ok() && bgps::bmp::ToMrt(*msg).has_value())
      oracle.seq_to_frame.push_back(i);
  }
  std::vector<core::FilterSet> filters;
  for (const auto& s : subs) filters.push_back(MakeFilterSet(s.filters));
  {
    bgps::pool::LiveSource::Options sopt;
    sopt.spool_dir = spool_dir;
    sopt.flush_records = kFlushRecords;
    auto source = bgps::pool::LiveSource::Create(std::move(sopt));
    if (!source.ok()) return oracle;
    for (const auto& f : frames)
      if (!(*source)->IngestBmp(f).ok()) return oracle;
    if (!(*source)->Close().ok()) return oracle;
    core::BgpStream::Options opt;
    opt.poll_wait = [] {};
    core::BgpStream stream(std::move(opt));
    stream.SetLive(0);
    stream.SetDataInterface((*source)->feed());
    if (!stream.Start().ok()) return oracle;
    uint64_t seq = 0;
    while (auto rec = stream.NextRecord()) {
      auto all = stream.Elems(*rec);
      for (size_t s = 0; s < subs.size(); ++s) {
        if (!filters[s].MatchesRecord(*rec)) continue;
        auto kept = all;
        filters[s].FilterElemsInPlace(kept);
        oracle.per_subscriber[s].push_back(
            {seq, RecordFingerprint(*rec, kept)});
      }
      ++seq;
    }
    oracle.records = seq;
  }
  std::error_code ec;
  fs::remove_all(spool_dir, ec);
  return oracle;
}

// ---------------------------------------------------------------------------
// Per-layer passes
// ---------------------------------------------------------------------------

namespace {

// A bench-owned merge input: replays one file's record timestamps,
// cycling a few of its real decoded records as bodies, so the merge pass
// measures heap work and record moves independently of how the library
// materializes dumps.
class ReplaySource : public core::RecordSource {
 public:
  ReplaySource(DumpFileMeta meta, const std::vector<core::Record>* bodies,
               const std::vector<Timestamp>* ts)
      : meta_(std::move(meta)), bodies_(bodies), ts_(ts) {}
  const DumpFileMeta& meta() const override { return meta_; }
  std::optional<Timestamp> PeekTimestamp() override {
    if (idx_ >= ts_->size()) return std::nullopt;
    return (*ts_)[idx_];
  }
  std::optional<core::Record> Next() override {
    if (idx_ >= ts_->size()) return std::nullopt;
    core::Record r = (*bodies_)[idx_ % bodies_->size()];
    r.timestamp = (*ts_)[idx_++];
    return r;
  }

 private:
  DumpFileMeta meta_;
  const std::vector<core::Record>* bodies_;
  const std::vector<Timestamp>* ts_;
  size_t idx_ = 0;
};

constexpr size_t kChunk = 2048;
constexpr size_t kBodies = 16;

double PerUnit(int64_t ns, size_t n) { return n ? double(ns) / double(n) : 0; }

}  // namespace

LayerCosts MeasureLayers(const std::vector<DumpFileMeta>& files,
                         const FilterOptions& filter_options,
                         Tracer* tracer) {
  LayerCosts c;
  core::FilterSet filters = MakeFilterSet(filter_options);
  int64_t frame_ns = 0, decode_ns = 0, extract_ns = 0, filter_ns = 0;
  size_t frames = 0;

  // MrtFileReader framing.
  for (size_t f = 0; f < files.size(); ++f) {
    bgps::mrt::MrtFileReader reader;
    if (!reader.Open(files[f].path).ok()) continue;
    Tracer::Scope span(tracer, "mrt.frame", f);
    int64_t t0 = NowNs();
    while (reader.Next().ok()) ++frames;
    frame_ns += NowNs() - t0;
  }

  // DumpReader decode, then ExtractElems, then the filters, chunk by
  // chunk so memory stays bounded.
  std::map<std::string, std::vector<Timestamp>> stamps;
  std::map<std::string, std::vector<core::Record>> bodies;
  std::vector<core::Record> chunk;
  std::vector<std::vector<core::Elem>> elems(kChunk);
  for (size_t f = 0; f < files.size(); ++f) {
    core::DumpReader reader(files[f]);
    auto& ts = stamps[files[f].path];
    auto& body = bodies[files[f].path];
    bool done = false;
    while (!done) {
      chunk.clear();
      {
        Tracer::Scope span(tracer, "core.decode", c.records);
        int64_t t0 = NowNs();
        while (chunk.size() < kChunk) {
          auto rec = reader.Next();
          if (!rec) {
            done = true;
            break;
          }
          chunk.push_back(std::move(*rec));
        }
        decode_ns += NowNs() - t0;
      }
      {
        Tracer::Scope span(tracer, "core.extract", c.records);
        int64_t t0 = NowNs();
        for (size_t k = 0; k < chunk.size(); ++k) {
          elems[k].clear();
          core::ExtractElemsInto(chunk[k], elems[k]);
        }
        extract_ns += NowNs() - t0;
      }
      for (size_t k = 0; k < chunk.size(); ++k) c.elems += elems[k].size();
      {
        Tracer::Scope span(tracer, "core.filter", c.records);
        int64_t t0 = NowNs();
        for (size_t k = 0; k < chunk.size(); ++k) {
          if (!filters.MatchesRecord(chunk[k])) {
            elems[k].clear();
            continue;
          }
          filters.FilterElemsInPlace(elems[k]);
        }
        filter_ns += NowNs() - t0;
      }
      for (size_t k = 0; k < chunk.size(); ++k) {
        c.elems_kept += elems[k].size();
        ts.push_back(chunk[k].timestamp);
        if (body.size() < kBodies) body.push_back(chunk[k]);
      }
      c.records += chunk.size();
    }
  }

  // MultiWayMerge over bench-owned sources, per overlapping subset, minus
  // the cost of draining the same sources without a merge.
  int64_t sources_ns = 0, merge_ns = 0;
  size_t merged = 0;
  auto make_sources = [&](const std::vector<DumpFileMeta>& subset) {
    std::vector<std::unique_ptr<core::RecordSource>> out;
    for (const auto& m : subset) {
      if (bodies[m.path].empty()) continue;
      out.push_back(std::make_unique<ReplaySource>(m, &bodies[m.path],
                                                   &stamps[m.path]));
    }
    return out;
  };
  for (const auto& subset : core::GroupOverlapping(files)) {
    {
      auto sources = make_sources(subset);
      Tracer::Scope span(tracer, "core.merge.sources", merged);
      int64_t t0 = NowNs();
      for (auto& s : sources)
        while (s->Next()) {
        }
      sources_ns += NowNs() - t0;
    }
    core::MultiWayMerge merge(make_sources(subset));
    Tracer::Scope span(tracer, "core.merge", merged);
    int64_t t0 = NowNs();
    while (merge.Next()) ++merged;
    merge_ns += NowNs() - t0;
  }

  c.frame_ns_per_record = PerUnit(frame_ns, frames);
  c.decode_ns_per_record = PerUnit(decode_ns, c.records) - c.frame_ns_per_record;
  c.extract_ns_per_elem = PerUnit(extract_ns, c.elems);
  c.filter_ns_per_elem = PerUnit(filter_ns, c.elems);
  c.merge_ns_per_record = PerUnit(merge_ns - sources_ns, merged);
  return c;
}

FanoutCosts MeasureFanout(const LivePipeline& pipeline,
                          const std::vector<Bytes>& frames, Tracer* tracer) {
  FanoutCosts c;
  bgps::mq::Cluster* cluster = pipeline.cluster();

  // The record-batch codec over every retained batch.
  std::vector<bgps::mq::MessagePtr> messages;
  for (const auto& topic : cluster->topics()) {
    if (topic.rfind(bgps::mq::kRecordTopicPrefix, 0) != 0) continue;
    auto got = cluster->Fetch(topic, 0, cluster->FirstOffset(topic, 0));
    if (got.ok()) messages.insert(messages.end(), got->begin(), got->end());
  }
  std::vector<bgps::mq::RecordBatchMessage> batches;
  size_t records = 0, bytes = 0;
  for (const auto& m : messages) {
    auto b = bgps::mq::DecodeRecordBatch(m->value);
    if (!b.ok()) continue;
    records += b->records.size();
    bytes += m->value.size();
    batches.push_back(std::move(*b));
  }
  int64_t decode_ns = 0, encode_ns = 0;
  {
    bgps::mq::RecordBatchMessage scratch;
    Tracer::Scope span(tracer, "mq.decode", 0);
    int64_t t0 = NowNs();
    for (const auto& m : messages)
      (void)bgps::mq::DecodeRecordBatchInto(m->value, scratch);
    decode_ns = NowNs() - t0;
  }
  {
    Tracer::Scope span(tracer, "mq.encode", 0);
    int64_t t0 = NowNs();
    for (const auto& b : batches) (void)bgps::mq::EncodeRecordBatch(b);
    encode_ns = NowNs() - t0;
  }
  c.decode_ns_per_record = PerUnit(decode_ns, records);
  c.encode_ns_per_record = PerUnit(encode_ns, records);
  c.bytes_per_record = records ? double(bytes) / double(records) : 0;

  // A fresh unfiltered subscriber re-reading the whole retained log: the
  // per-record cost of serving from the log, with no publisher to wait on.
  {
    bgps::pool::RecordSubscriber::Options o;
    o.cluster = cluster;
    bgps::pool::RecordSubscriber sub(o);
    size_t n = 0;
    int64_t ns = 0;
    if (sub.Start().ok()) {
      Tracer::Scope span(tracer, "fanout.subscriber", 0);
      int64_t t0 = NowNs();
      while (auto rec = sub.NextRecord()) {
        (void)sub.Elems(*rec);
        ++n;
      }
      ns = NowNs() - t0;
    }
    c.subscriber_ns_per_record = PerUnit(ns, n);
  }

  // Direct decode + extract of the same records from the spooled
  // micro-dumps.
  {
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(pipeline.spool_dir(), ec))
      if (e.is_regular_file()) paths.push_back(e.path().string());
    std::sort(paths.begin(), paths.end());
    size_t n = 0;
    Tracer::Scope span(tracer, "fanout.direct", 0);
    int64_t t0 = NowNs();
    for (const auto& p : paths) {
      DumpFileMeta meta;
      meta.project = "live";
      meta.collector = "live";
      meta.path = p;
      core::DumpReader reader(meta);
      while (auto rec = reader.Next()) {
        (void)core::ExtractElems(*rec);
        ++n;
      }
    }
    c.direct_ns_per_record = PerUnit(NowNs() - t0, n);
  }

  // bmp::Decode over the input frames.
  {
    Tracer::Scope span(tracer, "bmp.decode", 0);
    int64_t t0 = NowNs();
    for (const auto& f : frames) {
      bgps::BufReader r(f);
      (void)bgps::bmp::Decode(r);
    }
    c.bmp_decode_ns_per_frame = PerUnit(NowNs() - t0, frames.size());
  }
  return c;
}

}  // namespace perfbench
