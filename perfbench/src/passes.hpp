// The benchmark's building blocks. Each pass drives one deployment shape
// through the library's public API — a synchronous BgpStream, tenants of
// a StreamPool, the live ingest -> fan-out pipeline — and records what
// its consumers received, when, and (when a Tracer is on) the spans
// around each call into a layer. The workloads in main.cpp compose them.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "broker/archive.hpp"
#include "core/filter.hpp"
#include "measure.hpp"
#include "mq/log.hpp"
#include "util/bytes.hpp"

namespace perfbench {

using bgps::Bytes;
using bgps::Timestamp;
using bgps::broker::DumpFileMeta;

// bgpreader-style filter options ("key", "value"), applied with
// FilterSet::AddOption / BgpStream::AddFilter.
using FilterOptions = std::vector<std::pair<std::string, std::string>>;

bgps::core::FilterSet MakeFilterSet(const FilterOptions& options);

// Every dump file under `root`, in ArchiveIndex order.
std::vector<DumpFileMeta> ArchiveFiles(const std::string& root);

// Fingerprint of the bytes of every file (in index order) — same seed,
// same value.
uint64_t FilesFingerprint(const std::vector<DumpFileMeta>& files);

// Process CPU seconds (user + system) so far, and peak resident MB.
double ProcessCpuSeconds();
double PeakRssMb();

// Wall time of a fixed, bench-owned allocation-heavy kernel (small
// vectors created and freed in bursts, the pattern record decode and elem
// extraction produce). Runs beside each measured pass so timings can be
// expressed at a reference host speed: on a shared host, memory and
// allocator contention from neighbours moves both together. Each vCPU of
// a shared host drifts on its own, so the kernel runs where the pass ran:
// on the caller's CPU, or with `every_cpu` once on each CPU the process
// may use (the mean), for a pass whose threads spread over all of them.
int64_t ReferenceKernelNs(bool every_cpu);

// What one consumer received.
struct Drain {
  std::vector<Delivery> got;      // key = delivery ordinal or publisher seq
  std::vector<int64_t> done_ns;   // when each delivery was in hand
  std::vector<double> latency_ms; // open loop only: due -> delivery
  int64_t start_ns = 0;  // just before Start()
  int64_t end_ns = 0;    // last record in hand
  bool ok = true;
  size_t records() const { return got.size(); }
};

// Counters the traced passes read at layer boundaries.
struct StreamCounters {
  std::atomic<size_t> batches{0};
  std::atomic<size_t> files_opened{0};
};

// A historical archive query: the archive root, the interval and the
// stream filters of one consumer.
struct ArchiveQuery {
  std::string root;
  Timestamp start = 0;
  Timestamp end = 0;
  FilterOptions filters;
};

// bgpreader's default path: one synchronous BgpStream over a Broker,
// drained on the calling thread. Span names: "core.next_record",
// "core.elems", "broker.next_batch".
Drain RunSyncStream(const ArchiveQuery& query, Tracer* tracer,
                    StreamCounters* counters);

// One tenant of a StreamPool pass.
struct TenantSpec {
  std::string name;     // "live" or "backfill-<n>"; spans use the class
  bool live = false;    // weight 4 + deadline class; else weight 1
  ArchiveQuery query;
};

struct PoolRun {
  std::vector<Drain> tenants;
  size_t tasks_run = 0;
  size_t dispatch_rounds = 0;
  size_t governor_max_in_use = 0;
  double governor_waiting_share = 0;  // of Stats() samples (traced only)
  int64_t start_ns = 0;               // first tenant's Start()
  int64_t end_ns = 0;                 // last record of any tenant
};

// Tenants on one StreamPool at `threads` workers and `budget` records,
// one consumer thread each, started together. Span names:
// "pool.next_record.live" / "pool.next_record.backfill",
// "pool.elems.live" / "pool.elems.backfill", "broker.next_batch".
PoolRun RunPool(const std::vector<TenantSpec>& tenants, size_t threads,
                size_t budget, Tracer* tracer, StreamCounters* counters);

// ---------------------------------------------------------------------------
// Live ingest -> fan-out
// ---------------------------------------------------------------------------

// BMP frames built from an archive by sim::ReplayArchive, unpaced; at
// most `max_frames` (0 = all).
std::vector<Bytes> ReplayFrames(const std::string& root, size_t max_frames);

// One subscriber of the fan-out: its FilterSet options.
struct SubscriberSpec {
  std::string name;
  FilterOptions filters;
};

// The §6.1 deployment for one phase: a generator thread (the caller)
// feeds frames to a LiveSource at bgplive defaults; the pool's live
// tenant is drained by a RecordPublisher into an mq::Cluster; each
// subscriber reads it on its own thread. Kept alive after Run() so the
// traced run can probe the published batches and spool files.
class LivePipeline {
 public:
  LivePipeline(std::string spool_dir, std::vector<SubscriberSpec> subs);
  ~LivePipeline();
  LivePipeline(const LivePipeline&) = delete;
  LivePipeline& operator=(const LivePipeline&) = delete;

  // Feeds frames[0, count) at `rate` frames/s (0 = as fast as ingestion
  // accepts them) and waits for every subscriber's end of stream.
  // Subscriber deliveries are keyed by publisher seq; with rate > 0 each
  // carries its due-time latency via `seq_to_frame`. Span names:
  // "live.ingest_bmp" (req = input-message index).
  bool Run(const std::vector<Bytes>& frames, size_t count, double rate,
           const std::vector<uint64_t>& seq_to_frame, Tracer* tracer);

  const std::vector<Drain>& subscribers() const { return subs_out_; }
  const std::vector<double>& lag_ms() const { return lag_ms_; }
  size_t parks() const { return parks_; }
  size_t dumps() const { return dumps_; }
  size_t records_spooled() const { return records_spooled_; }
  bgps::mq::Cluster* cluster() const { return cluster_.get(); }
  const std::string& spool_dir() const { return spool_dir_; }

 private:
  std::string spool_dir_;
  std::vector<SubscriberSpec> specs_;
  std::unique_ptr<bgps::mq::Cluster> cluster_;
  std::vector<Drain> subs_out_;
  std::vector<double> lag_ms_;
  size_t parks_ = 0;
  size_t dumps_ = 0;
  size_t records_spooled_ = 0;
};

// The expected output of a live run: every record the unpaced setup pass
// produced, keyed by ordinal (= publisher seq), fingerprinted after
// `filters` are applied the way a subscriber applies them; and the
// input-message index each record came from.
struct LiveOracle {
  std::vector<std::vector<Delivery>> per_subscriber;
  std::vector<uint64_t> seq_to_frame;
  size_t records = 0;
};
LiveOracle BuildLiveOracle(const std::vector<Bytes>& frames,
                           const std::vector<SubscriberSpec>& subs,
                           const std::string& spool_dir);

// ---------------------------------------------------------------------------
// Per-layer passes (traced runs)
// ---------------------------------------------------------------------------

struct LayerCosts {
  size_t records = 0;
  size_t elems = 0;         // extracted, before elem filters
  size_t elems_kept = 0;    // after elem filters
  double frame_ns_per_record = 0;
  double decode_ns_per_record = 0;  // DumpReader::Next minus framing
  double extract_ns_per_elem = 0;
  double filter_ns_per_elem = 0;
  double merge_ns_per_record = 0;
};

// MrtFileReader, DumpReader, ExtractElems, FilterSet and MultiWayMerge
// passes over `files`, each timed as spans around the layer's calls.
LayerCosts MeasureLayers(const std::vector<DumpFileMeta>& files,
                         const FilterOptions& filters, Tracer* tracer);

struct FanoutCosts {
  double subscriber_ns_per_record = 0;
  double direct_ns_per_record = 0;  // DumpReader + ExtractElems, same data
  double encode_ns_per_record = 0;
  double decode_ns_per_record = 0;
  double bytes_per_record = 0;
  double bmp_decode_ns_per_frame = 0;
};

// Re-reads what `pipeline` published: the record-batch codec over every
// retained batch, a fresh unfiltered subscriber over the whole log, and
// a direct decode of the spooled micro-dumps for comparison; plus a
// bmp::Decode pass over `frames`.
FanoutCosts MeasureFanout(const LivePipeline& pipeline,
                          const std::vector<Bytes>& frames, Tracer* tracer);

}  // namespace perfbench
