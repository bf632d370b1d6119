// perfbench_driver — the repository's benchmark driver.
//
//   perfbench_driver --workload hist-rib|pool-collectors
//                    --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// Generates the workload's inputs from the seed and sets up several
// times (setup_s is the median). Then it measures for S seconds in
// rounds. A round is one closed-loop pass of the workload's deployment,
// then the workload's update stream replayed live as BMP through the
// ingest -> fan-out pipeline at three fixed open-loop rates. Every
// delivered record is checked against an oracle. With --trace 0 it
// prints the end-to-end metrics; with --trace 1 the per-layer metrics,
// from traced passes plus layer passes. The last stdout line is one
// JSON object: {"correct","attempted","failed","metrics"}.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "passes.hpp"
#include "sim/corpus.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Fixed parameters. The open-loop rates are constants, chosen once on the
// commit that introduced the benchmark: about 5%, 15% and 25% of the live
// pipeline's closed-loop drain rate on a quiet 4-core 2.1 GHz Xeon, so
// that even when the shared host runs at half speed the highest stays
// below saturation. They are never derived from the code under test.
// ---------------------------------------------------------------------------

constexpr int kSetups = 3;        // setup_s = median of this many
constexpr int kMinRounds = 3;     // rounds per untraced run, at least
constexpr int kTracedRounds = 3;  // untraced + traced closed-pass pairs

// Live phases, on every workload.
const char* const kPhases[3] = {"low", "mid", "high"};
constexpr double kLiveRates[3] = {6'000, 20'000, 35'000};  // frames/s
constexpr double kLivePhaseSeconds = 0.35;
constexpr size_t kFlushRecords = 64;  // bgplive's micro-dump size
// Frames the longest phase can use; archive workloads replay no more.
constexpr size_t kPhaseFramesCap = 30'000;

// ReferenceKernelNs() at the reference host speed (its typical time on
// the 4-core host above). setup_s, records_per_s and live_tenant_s are
// reported at this host speed: each raw value is scaled by the kernel
// time measured right after it. On a shared host, neighbours' memory and
// allocator contention swings raw throughput by up to 2x between
// minutes; the scaled values move far less.
constexpr double kReferenceKernelNs = 8.0e6;

// hist-rib: one collector, 4 VPs, a 200k-prefix RIB, 4 update windows
// and a closing RIB.
constexpr size_t kRibPrefixes = 200'000;

// pool-collectors: 2 RouteViews-style + 2 RIS-style collectors on one
// StreamPool at its defaults, as `bgpreader --pool-threads 4` runs.
constexpr bgps::Timestamp kPoolHours = 3;
constexpr double kPoolFlapsPerHour = 3000;
constexpr size_t kPoolThreads = 4;
constexpr size_t kPoolBudget = 4096;

// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;   // the JSON result line
  std::vector<Metric> reported;  // the table only
  size_t attempted = 0;
  size_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Report(const std::string& name, double value, const std::string& unit) {
    reported.push_back({name, value, unit});
  }
  void Check(const Mismatch& m) {
    attempted += m.expected;
    failed += m.failed();
  }
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back(why);
  }
};

// One closed-loop pass, raw (at the host's momentary speed).
struct ClosedSample {
  double records_per_s = 0;  // delivered to consumers, summed
  double live_tenant_s = 0;  // the priority consumer's drain time
  double wall_s = 0;
};

// One open-loop live phase.
struct PhaseSample {
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
};

double Seconds(int64_t a, int64_t b) { return double(b - a) / 1e9; }

std::vector<Delivery> KeysBelow(const std::vector<Delivery>& v, uint64_t k) {
  std::vector<Delivery> out;
  for (const auto& d : v)
    if (d.key < k) out.push_back(d);
  return out;
}

bgps::sim::CorpusOptions MixedCorpus(uint64_t seed, int rv, int ris,
                                     bgps::Timestamp hours,
                                     double flaps_per_hour) {
  bgps::sim::CorpusOptions opt;
  opt.scenario = "mixed";
  opt.rv_collectors = rv;
  opt.ris_collectors = ris;
  opt.duration = hours * 3600;
  opt.flaps_per_hour = flaps_per_hour;
  // Full feeds only: which VPs carry partial feeds is drawn from the
  // seed and swings a collector's record count by +-30% between seeds;
  // with full feeds the seed changes the events, not the input size.
  opt.partial_feed_fraction = 0;
  opt.seed = seed;
  return opt;
}

// The live fan-out's two subscribers: an unfiltered tap and a
// prefix/AS-path monitor. The corpus generators number their prefixes
// upward from 1.0.0.0 and their tier-1 ASes from 1000.
std::vector<SubscriberSpec> LiveSubscribers() {
  return {{"tap", {}},
          {"monitor",
           {{"prefix", "more 1.0.0.0/9"}, {"aspath", "% 1001 %"}}}};
}

// pool.*, executor.* and governor.* from one traced pool pass.
void PoolLayers(Outcome& out, const Tracer& tracer, const PoolRun& run,
                size_t records, size_t backfills) {
  auto totals = tracer.Totals();
  out.Set("pool.refill_wait_ms.live",
          double(totals["pool.next_record.live"].self_ns) / 1e6, "ms");
  out.Set("pool.refill_wait_ms.backfill",
          double(totals["pool.next_record.backfill"].self_ns) / 1e6 /
              double(std::max<size_t>(1, backfills)),
          "ms");
  auto waits = tracer.Durations("pool.next_record.live");
  std::sort(waits.begin(), waits.end());
  if (!PercentileSupported(waits.size(), 99))
    out.notes.push_back("pool.refill_wait_p99_us.live: fewer than 1000 "
                        "samples");
  out.Set("pool.refill_wait_p99_us.live", PercentileOfSorted(waits, 99) / 1e3,
          "us");
  double n = double(std::max<size_t>(1, records));
  out.Set("executor.tasks_per_record", double(run.tasks_run) / n, "ratio");
  out.Set("executor.rounds_per_record", double(run.dispatch_rounds) / n,
          "ratio");
  out.Set("governor.max_in_use", double(run.governor_max_in_use), "count");
  out.Set("governor.waiting_share", run.governor_waiting_share, "ratio");
}

// broker.* and core.files_opened of one traced pass.
void BrokerLayers(Outcome& out, const Tracer& tracer,
                  const StreamCounters& counters) {
  auto totals = tracer.Totals();
  out.Set("broker.next_batch_ms",
          double(totals["broker.next_batch"].total_ns) / 1e6, "ms");
  out.Set("broker.batches", double(counters.batches.load()), "count");
  out.Set("core.files_opened", double(counters.files_opened.load()),
          "count");
}

// bmp.*, live.*, fanout.* and mq.* from one traced drain.
void LiveLayers(Outcome& out, const Tracer& tracer, const LivePipeline& p,
                const std::vector<Bytes>& frames) {
  auto totals = tracer.Totals();
  const auto& ingest = totals["live.ingest_bmp"];
  out.Set("live.ingest_ns_per_frame",
          ingest.count ? double(ingest.total_ns) / double(ingest.count) : 0,
          "ns");
  out.Set("live.records_per_dump",
          p.dumps() ? double(p.records_spooled()) / double(p.dumps()) : 0,
          "count");
  out.Set("live.parks", double(p.parks()), "count");
  Tracer probe(true);
  FanoutCosts f = MeasureFanout(p, frames, &probe);
  out.Set("bmp.decode_ns_per_frame", f.bmp_decode_ns_per_frame, "ns");
  out.Set("fanout.subscriber_ns_per_record", f.subscriber_ns_per_record,
          "ns");
  out.Set("fanout.subscriber_vs_direct",
          f.direct_ns_per_record > 0
              ? f.subscriber_ns_per_record / f.direct_ns_per_record
              : 0,
          "ratio");
  out.Set("mq.encode_ns_per_record", f.encode_ns_per_record, "ns");
  out.Set("mq.decode_ns_per_record", f.decode_ns_per_record, "ns");
  out.Set("mq.bytes_per_record", f.bytes_per_record, "B");
}

// A workload: an archive, the deployment that drains it (its closed-loop
// pass), and its update stream served live (the open-loop phases).
class Workload {
 public:
  virtual ~Workload() = default;

  // Generates the inputs under `dir` (archive, BMP frames), indexes them,
  // builds the oracles and warms up with one closed pass.
  bool Setup(const std::string& dir, uint64_t seed) {
    dir_ = dir;
    if (!SetupArchive(dir + "/archive", seed)) return false;
    files_ = ArchiveFiles(all_.root);
    frames_ = ReplayFrames(all_.root, kPhaseFramesCap);
    if (files_.empty() || frames_.empty()) return false;
    live_ = BuildLiveOracle(frames_, LiveSubscribers(), dir + "/oracle");
    if (live_.records == 0 || live_.seq_to_frame.size() != live_.records)
      return false;
    Hasher h;
    h.Add(FilesFingerprint(files_));
    for (const auto& f : frames_) h.AddBytes(f.data(), f.size());
    fingerprint_ = h.Value();
    Outcome warm;
    Closed(warm, nullptr, nullptr);
    return warm.correct && warm.failed == 0;
  }
  uint64_t input_fingerprint() const { return fingerprint_; }

  // One closed-loop pass of the deployment, checked against the oracle.
  virtual ClosedSample Closed(Outcome& out, Tracer* tracer,
                              StreamCounters* counters) = 0;

  // The first kLiveRates[phase] * kLivePhaseSeconds frames (ending on a
  // micro-dump boundary, so the phase's records carry the oracle's dump
  // annotations) fed at kLiveRates[phase]; latency from each frame's due
  // time to each subscriber's delivery of its record.
  PhaseSample Phase(int phase, Outcome& out) {
    size_t want = size_t(kLiveRates[phase] * kLivePhaseSeconds);
    uint64_t records =
        std::min(want, live_.seq_to_frame.size()) / kFlushRecords *
        kFlushRecords;
    size_t frames = records ? size_t(live_.seq_to_frame[records - 1]) + 1 : 0;
    LivePipeline p(SpoolDir(), LiveSubscribers());
    if (!p.Run(frames_, frames, kLiveRates[phase], live_.seq_to_frame,
               nullptr))
      out.Fail(std::string("live phase ") + kPhases[phase] + " failed");
    PhaseSample s;
    for (size_t i = 0; i < p.subscribers().size(); ++i) {
      const Drain& d = p.subscribers()[i];
      out.Check(CompareDeliveries(KeysBelow(live_.per_subscriber[i], records),
                                  d.got));
      if (!d.ok) out.Fail("subscriber failed");
      s.latency_ms.insert(s.latency_ms.end(), d.latency_ms.begin(),
                          d.latency_ms.end());
    }
    s.lag_ms = p.lag_ms();
    return s;
  }

  // Inputs of the per-layer passes: the archive, and the filters that
  // apply to it (the stream's, or the monitor subscriber's).
  const std::vector<DumpFileMeta>& files() const { return files_; }
  const ArchiveQuery& all() const { return all_; }
  const std::vector<Bytes>& frames() const { return frames_; }

  // Per-layer metrics only this workload's own traced closed pass gives.
  virtual void OwnLayers(Outcome&, const Tracer&, const StreamCounters&) {}
  virtual bool runs_sync() const { return false; }
  virtual bool runs_pool() const { return false; }

 protected:
  virtual bool SetupArchive(const std::string& root, uint64_t seed) = 0;
  std::string SpoolDir() { return dir_ + "/spool-" + std::to_string(runs_++); }

  std::string dir_;
  std::vector<DumpFileMeta> files_;
  ArchiveQuery all_;  // whole archive; filters as the layer passes apply
  std::vector<Bytes> frames_;
  LiveOracle live_;

 private:
  uint64_t fingerprint_ = 0;
  size_t runs_ = 0;
};

// ---------------------------------------------------------------------------
// hist-rib: bgpreader's default synchronous path, one consumer thread.
// ---------------------------------------------------------------------------

class HistRib : public Workload {
 public:
  ClosedSample Closed(Outcome& out, Tracer* tracer,
                      StreamCounters* counters) override {
    Drain d = RunSyncStream(all_, tracer, counters);
    out.Check(CompareDeliveries(oracle_, d.got));
    if (!d.ok) out.Fail("stream failed");
    ClosedSample s;
    s.wall_s = Seconds(d.start_ns, d.end_ns);
    s.records_per_s = double(d.records()) / s.wall_s;
    s.live_tenant_s = s.wall_s;
    return s;
  }
  bool runs_sync() const override { return true; }

 protected:
  bool SetupArchive(const std::string& root, uint64_t seed) override {
    bgps::sim::SyntheticRibOptions opt;
    opt.prefixes = kRibPrefixes;
    opt.vps = 4;
    opt.update_windows = 4;
    opt.final_rib = true;
    opt.seed = seed;
    auto stats = bgps::sim::GenerateSyntheticRib(opt, root);
    if (!stats.ok()) return false;
    // Keeps part of the elems: RIB entries and announcements of the
    // prefixes under 2.0.0.0/8 (the generator numbers /24s upward from
    // 1.0.0.0); withdrawals are dropped.
    all_ = {root, stats->start, stats->end + 1,
            {{"prefix", "more 2.0.0.0/8"},
             {"elemtype", "ribs"},
             {"elemtype", "announcements"}}};
    Drain oracle = RunSyncStream(all_, nullptr, nullptr);
    oracle_ = std::move(oracle.got);
    return oracle.ok && !oracle_.empty();
  }

 private:
  std::vector<Delivery> oracle_;
};

// ---------------------------------------------------------------------------
// pool-collectors: four tenants, one collector each, on one StreamPool.
// ---------------------------------------------------------------------------

class PoolCollectors : public Workload {
 public:
  ClosedSample Closed(Outcome& out, Tracer* tracer,
                      StreamCounters* counters) override {
    last_ = RunPool(tenants_, kPoolThreads, kPoolBudget, tracer, counters);
    size_t records = 0;
    for (size_t i = 0; i < tenants_.size(); ++i) {
      out.Check(CompareDeliveries(oracles_[i], last_.tenants[i].got));
      if (!last_.tenants[i].ok) out.Fail("tenant failed");
      records += last_.tenants[i].records();
    }
    ClosedSample s;
    s.wall_s = Seconds(last_.start_ns, last_.end_ns);
    s.records_per_s = double(records) / s.wall_s;
    s.live_tenant_s =
        Seconds(last_.tenants[0].start_ns, last_.tenants[0].end_ns);
    return s;
  }

  void OwnLayers(Outcome& out, const Tracer& tracer,
                 const StreamCounters& counters) override {
    size_t records = 0;
    for (const auto& t : last_.tenants) records += t.records();
    PoolLayers(out, tracer, last_, records, tenants_.size() - 1);
    BrokerLayers(out, tracer, counters);
  }
  bool runs_pool() const override { return true; }



 protected:
  bool SetupArchive(const std::string& root, uint64_t seed) override {
    auto stats = bgps::sim::GenerateCorpus(
        MixedCorpus(seed, 2, 2, kPoolHours, kPoolFlapsPerHour), root);
    if (!stats.ok()) return false;
    std::vector<std::string> collectors;
    for (const auto& f : ArchiveFiles(root))
      if (std::find(collectors.begin(), collectors.end(), f.collector) ==
          collectors.end())
        collectors.push_back(f.collector);
    std::sort(collectors.begin(), collectors.end());
    if (collectors.size() != 4) return false;
    all_ = {root, stats->start, stats->end + 1, {}};
    tenants_.clear();
    oracles_.clear();
    for (size_t i = 0; i < collectors.size(); ++i) {
      // Tenant 0 is the live monitor (weight 4, deadline class); 1-3 are
      // weight-1 backfills.
      TenantSpec t;
      t.live = i == 0;
      t.name = t.live ? "live" : "backfill-" + std::to_string(i);
      t.query = all_;
      t.query.filters = {{"collector", collectors[i]}};
      Drain oracle = RunSyncStream(t.query, nullptr, nullptr);
      if (!oracle.ok || oracle.got.empty()) return false;
      oracles_.push_back(std::move(oracle.got));
      tenants_.push_back(std::move(t));
    }
    return true;
  }

 private:
  std::vector<TenantSpec> tenants_;
  std::vector<std::vector<Delivery>> oracles_;
  PoolRun last_;
};

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_work";
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "hist-rib") return std::make_unique<HistRib>();
  if (name == "pool-collectors") return std::make_unique<PoolCollectors>();
  return nullptr;
}

// Host speed relative to the reference, sampled right after a pass:
// > 1 when the host ran slower than the reference. `every_cpu` for a
// pass whose threads spread over every CPU.
double SlowdownNow(bool every_cpu) {
  return double(ReferenceKernelNs(every_cpu)) / kReferenceKernelNs;
}

bool SetupOnce(Workload& w, const std::string& dir, uint64_t seed,
               double* seconds) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  int64_t t0 = NowNs();
  bool ok = w.Setup(dir, seed);
  *seconds = Seconds(t0, NowNs());
  return ok;
}

Outcome RunUntraced(Workload& w, const Args& args, const std::string& dir) {
  Outcome out;
  std::vector<double> setups, setups_raw;
  uint64_t fp = 0;
  for (int k = 0; k < kSetups; ++k) {
    double s = 0;
    if (!SetupOnce(w, dir, args.seed, &s)) {
      out.Fail("setup failed");
      return out;
    }
    setups_raw.push_back(s);
    setups.push_back(s / SlowdownNow(false));
    if (k > 0 && w.input_fingerprint() != fp)
      out.Fail("inputs differ between setups of the same seed");
    fp = w.input_fingerprint();
  }
  out.notes.push_back("input fingerprint " + std::to_string(fp));

  std::vector<double> rps, live_s, slowdown, rps_raw;
  std::vector<PhaseSample> phases(3);
  int64_t t_end = NowNs() + int64_t(args.seconds) * 1'000'000'000;
  for (int round = 0; round < kMinRounds || NowNs() < t_end; ++round) {
    ClosedSample c = w.Closed(out, nullptr, nullptr);
    // A synchronous pass runs on this thread alone; a pool pass on all
    // CPUs.
    double slow = SlowdownNow(!w.runs_sync());
    slowdown.push_back(slow);
    rps_raw.push_back(c.records_per_s);
    rps.push_back(c.records_per_s * slow);
    live_s.push_back(c.live_tenant_s / slow);
    for (int p = 0; p < 3; ++p) {
      PhaseSample s = w.Phase(p, out);
      auto& acc = phases[size_t(p)];
      acc.latency_ms.insert(acc.latency_ms.end(), s.latency_ms.begin(),
                            s.latency_ms.end());
    }
  }
  out.Set("setup_s", Median(setups), "s");
  out.Set("records_per_s", Median(rps), "rec/s");
  out.Set("live_tenant_s", Median(live_s), "s");
  for (int p = 0; p < 3; ++p) {
    std::vector<double>& lat = phases[size_t(p)].latency_ms;
    std::sort(lat.begin(), lat.end());
    std::string suffix = std::string(".") + kPhases[p];
    if (!PercentileSupported(lat.size(), 99))
      out.Fail("deliver_p99_ms" + suffix + ": fewer than 1000 samples");
    // Part of the result: the median at the low and mid rates. The high
    // rate's median and every p99 follow the shared host's momentary
    // speed (processing backlog between 10 ms polls, rare multi-ms
    // stalls) and move too much between runs to gate on; they are
    // printed, not part of the result.
    if (p < 2)
      out.Set("deliver_p50_ms" + suffix, PercentileOfSorted(lat, 50), "ms");
    else
      out.Report("deliver_p50_ms" + suffix, PercentileOfSorted(lat, 50), "ms");
    out.Report("deliver_p99_ms" + suffix, PercentileOfSorted(lat, 99), "ms");
    out.Report("deliver_samples" + suffix, double(lat.size()), "count");
  }
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
  out.Report("failed_ratio",
             out.attempted ? double(out.failed) / double(out.attempted) : 0,
             "ratio");
  out.Report("setup_s.raw", Median(setups_raw), "s");
  out.Report("records_per_s.raw", Median(rps_raw), "rec/s");
  out.Report("host_slowdown", Median(slowdown), "ratio");
  out.Report("rounds", double(rps.size()), "count");
  return out;
}

void LayerMetrics(Outcome& out, const LayerCosts& c, double next_ns,
                  double elems_ns) {
  double per_record_elems =
      c.records ? double(c.elems) / double(c.records) : 0;
  out.Set("mrt.frame_ns_per_record", c.frame_ns_per_record, "ns");
  out.Set("core.decode_ns_per_record", c.decode_ns_per_record, "ns");
  out.Set("core.extract_ns_per_elem", c.extract_ns_per_elem, "ns");
  out.Set("core.filter_ns_per_elem", c.filter_ns_per_elem, "ns");
  out.Set("core.filter_pass_ratio",
          c.elems ? double(c.elems_kept) / double(c.elems) : 0, "ratio");
  out.Set("core.merge_ns_per_record", c.merge_ns_per_record, "ns");
  out.Set("core.next_record_ns", next_ns, "ns");
  out.Set("core.elems_ns", elems_ns, "ns");
  // What the layer passes explain of the stream's per-record cost.
  double layers = c.frame_ns_per_record + c.decode_ns_per_record +
                  (c.extract_ns_per_elem + c.filter_ns_per_elem) *
                      per_record_elems +
                  c.merge_ns_per_record;
  out.Set("core.unexplained_share",
          next_ns + elems_ns > 0 ? 1 - layers / (next_ns + elems_ns) : 0,
          "ratio");
}

// NextRecord / Elems self time per record of a traced synchronous pass.
void SyncLayers(Outcome& out, const Tracer& tracer, const LayerCosts& costs) {
  auto totals = tracer.Totals();
  const auto& next = totals["core.next_record"];
  const auto& elems = totals["core.elems"];
  double n = double(std::max<size_t>(1, next.count));
  LayerMetrics(out, costs, double(next.self_ns) / n,
               double(elems.self_ns) / n);
}

Outcome RunTraced(Workload& w, const Args& args, const std::string& dir,
                  const std::string& trace_path) {
  Outcome out;
  double setup = 0;
  if (!SetupOnce(w, dir, args.seed, &setup)) {
    out.Fail("setup failed");
    return out;
  }
  // Closed passes, untraced and traced alternately: the wall ratio is
  // the tracing overhead; untraced passes also give CPU utilization.
  std::vector<double> plain_wall, traced_wall, cpu_util;
  auto tracer = std::make_unique<Tracer>(true);
  auto counters = std::make_unique<StreamCounters>();
  const double cores = double(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  int64_t t_end = NowNs() + int64_t(args.seconds) * 1'000'000'000;
  for (int round = 0; round < kTracedRounds || NowNs() < t_end; ++round) {
    double cpu0 = ProcessCpuSeconds();
    ClosedSample plain = w.Closed(out, nullptr, nullptr);
    plain_wall.push_back(plain.wall_s);
    cpu_util.push_back((ProcessCpuSeconds() - cpu0) / (plain.wall_s * cores));
    tracer = std::make_unique<Tracer>(true);
    counters = std::make_unique<StreamCounters>();
    traced_wall.push_back(w.Closed(out, tracer.get(), counters.get()).wall_s);
  }
  out.Set("trace.overhead", Median(traced_wall) / Median(plain_wall) - 1,
          "ratio");
  out.Set("proc.cpu_util", Median(cpu_util), "ratio");
  for (int p = 0; p < 3; ++p) {
    PhaseSample s = w.Phase(p, out);
    std::string name = std::string("loadgen.lag_p99_ms.") + kPhases[p];
    if (!PercentileSupported(s.lag_ms.size(), 99))
      out.notes.push_back(name + ": fewer than 1000 samples");
    std::sort(s.lag_ms.begin(), s.lag_ms.end());
    out.Set(name, PercentileOfSorted(s.lag_ms, 99), "ms");
  }

  // Layer passes over the workload's own archive.
  Tracer layer_tracer(true);
  LayerCosts costs =
      MeasureLayers(w.files(), w.all().filters, &layer_tracer);
  out.notes.push_back(
      "layer passes: " + std::to_string(costs.records) + " records, " +
      std::to_string(costs.elems) + " elems before filters");

  // Layers the workload's closed pass does not run are measured on its
  // inputs by the deployment that does run them.
  if (w.runs_sync()) {
    SyncLayers(out, *tracer, costs);
    BrokerLayers(out, *tracer, *counters);
  } else {
    Tracer t(true);
    StreamCounters c;
    RunSyncStream(w.all(), &t, &c);
    SyncLayers(out, t, costs);
    if (!w.runs_pool()) BrokerLayers(out, t, c);
  }
  if (w.runs_pool()) {
    w.OwnLayers(out, *tracer, *counters);
  } else {
    // A live tenant and a backfill over the whole archive on one pool.
    std::vector<TenantSpec> tenants = {{"live", true, w.all()},
                                       {"backfill-1", false, w.all()}};
    Tracer t(true);
    PoolRun run = RunPool(tenants, kPoolThreads, kPoolBudget, &t, nullptr);
    PoolLayers(
        out, t, run, run.tenants[0].records() + run.tenants[1].records(), 1);
  }
  {
    // The workload's update stream drained through the live pipeline.
    Tracer t(true);
    LivePipeline p(dir + "/probe-spool", LiveSubscribers());
    std::vector<uint64_t> identity(w.frames().size());
    for (size_t i = 0; i < identity.size(); ++i) identity[i] = i;
    if (!p.Run(w.frames(), w.frames().size(), 0, identity, &t))
      out.Fail("live probe failed");
    LiveLayers(out, t, p, w.frames());
  }

  std::ofstream spans(trace_path);
  tracer->Write(spans);
  layer_tracer.Write(spans);
  out.notes.push_back("spans written to " + trace_path);
  return out;
}

std::string Json(const Outcome& out) {
  std::string s = "{\"correct\": ";
  bool finite = std::all_of(out.metrics.begin(), out.metrics.end(),
                            [](const Metric& m) {
                              return std::isfinite(m.value);
                            });
  s += out.correct && finite && out.failed == 0 ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(std::max<size_t>(1, out.attempted));
  s += ", \"failed\": " + std::to_string(out.failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g",
                  std::isfinite(out.metrics[i].value) ? out.metrics[i].value
                                                      : 0.0);
    if (i) s += ", ";
    s += "\"" + out.metrics[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + out.metrics[i].unit + "\"}";
  }
  return s + "}}";
}

int Main(int argc, char** argv) {
  Args args;
  bool bad = false;
  for (int i = 1; i < argc; i += 2) {
    std::string k = argv[i];
    if (i + 1 >= argc) {
      bad = true;
      break;
    }
    std::string v = argv[i + 1];
    if (k == "--workload") args.workload = v;
    else if (k == "--seed") args.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") args.seconds = std::atoi(v.c_str());
    else if (k == "--trace") args.trace = v == "1";
    else if (k == "--workdir") args.workdir = v;
    else bad = true;
  }
  auto w = MakeWorkload(args.workload);
  if (bad || !w || args.seconds < 1) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "hist-rib|pool-collectors --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR]\n");
    return 2;
  }
  std::string dir = args.workdir + "/" + args.workload;
  Outcome out = args.trace
                    ? RunTraced(*w, args, dir,
                                args.workdir + "/" + args.workload +
                                    ".spans.jsonl")
                    : RunUntraced(*w, args, dir);
  w.reset();
  std::error_code ec;
  fs::remove_all(dir, ec);

  std::printf("# workload %s seed %llu (%s)\n", args.workload.c_str(),
              (unsigned long long)args.seed,
              args.trace ? "traced" : "untraced");
  for (const auto* list : {&out.metrics, &out.reported})
    for (const auto& m : *list)
      std::printf("#   %-34s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  for (const auto& n : out.notes) std::printf("# note: %s\n", n.c_str());
  std::printf("%s\n", Json(out).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
