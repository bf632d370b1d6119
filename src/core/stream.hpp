// BgpStream — the libBGPStream user API (paper §3.3.1).
//
// Usage mirrors the C API: a configuration phase (AddFilter /
// SetInterval / SetDataInterface), then Start(), then an iteration phase
// pulling records (and decomposing them into elems). Setting the interval
// end to kLiveEnd turns the same program into a live monitor.
//
//   core::BgpStream stream;
//   stream.AddFilter("collector", "rrc00");
//   stream.AddFilter("type", "updates");
//   stream.SetInterval(t0, t1);                  // or SetLive(t0)
//   stream.SetDataInterface(&broker_interface);
//   stream.Start();
//   while (auto rec = stream.NextRecord()) {
//     for (const auto& elem : stream.Elems(*rec)) { ... }
//   }
#pragma once

#include <atomic>
#include <future>

#include "core/data_interface.hpp"
#include "core/merge.hpp"
#include "core/prefetch.hpp"

namespace bgps::core {

class BgpStream {
 public:
  struct Options {
    // Called in live mode when a pull interface (the broker) has no new
    // data; should block (wall clock) or advance virtual time, then
    // return. Default sleeps one second of wall time. Never called for a
    // push interface (LiveFeedInterface), whose WaitForData() blocks
    // until data is published instead.
    std::function<void()> poll_wait;
    // Safety valve for tests/simulations: stop a live stream after this
    // many consecutive empty polls of a pull interface (0 = poll
    // forever).
    size_t max_consecutive_polls = 0;
    // Asynchronous prefetching decode stage (paper §3.1): number of
    // overlapping-subsets decoded ahead of the consumer by a worker
    // pool. 0 = decode synchronously on the consumer thread. Both paths
    // emit the identical record sequence.
    size_t prefetch_subsets = 0;
    // Worker-pool size for the prefetch stage (ignored when
    // prefetch_subsets == 0).
    size_t decode_threads = 2;
    // Invoked just before each dump file is opened, on whichever thread
    // performs the decode. See FileOpenHook.
    FileOpenHook file_open_hook;
    // Cross-batch prefetch: while the current DataBatch is being
    // consumed, fetch the next one from the DataInterface on a
    // background thread so broker round-trips overlap with decode and
    // merge. Ignored in live mode, which keeps strict client-pull
    // semantics (§3.3.2: data is only retrieved when the user is ready
    // to process it). At most one fetch is in flight, so DataInterface
    // implementations never see concurrent calls.
    bool prefetch_batches = false;
    // Extract elems (and apply the elem-level filters) on the prefetch
    // workers; Elems() then just moves the result out on the consumer
    // thread. Requires prefetch_subsets > 0 (there are no workers
    // otherwise); output is identical to inline extraction.
    bool extract_elems_in_workers = false;
    // Chunked decode: cap on records buffered in RAM per in-flight
    // subset (split across its files, floor of one record per file)
    // instead of materializing whole files — bounds memory for huge RIB
    // subsets (§3.3.4, ~500 files). 0 = whole-file decode. Requires
    // prefetch_subsets > 0; the synchronous path already streams with
    // O(1) records per open file. Note the subset being merged counts
    // toward prefetch_subsets while any of its files still decode, so
    // prefetch_subsets >= 2 is needed to actually work ahead.
    size_t max_records_in_flight = 0;
    // Shared decode pool (runtime layer): run this stream's decode
    // tasks on a process-wide Executor instead of a private pool of
    // decode_threads workers. The stream gets its own FIFO tenant
    // queue, dispatched round-robin against every other tenant.
    // Injected by bgps::StreamPool; null = private pool (the PR-2
    // behavior, byte-for-byte).
    std::shared_ptr<Executor> executor;
    // Global record-budget ledger (runtime layer): chunked buffers
    // lease slots from this process-wide governor instead of budgeting
    // independently, so the *sum* of records buffered across all
    // streams sharing it stays under one hard cap. Requires
    // prefetch_subsets > 0 and max_records_in_flight > 0. Injected by
    // bgps::StreamPool; null = per-stream bound only.
    std::shared_ptr<MemoryGovernor> governor;
    // Scheduling weight of this stream's executor tenant: decode tasks
    // drained per dispatch visit relative to other tenants (a weight-4
    // live monitor drains ~4 tasks per visit of a weight-1 backfill).
    // Must be >= 1; meaningful with a shared executor. Injected by
    // bgps::StreamPool::CreateStream's TenantOptions.
    size_t tenant_weight = 1;
    // Deadline-class membership: this stream's decode tasks dispatch
    // earliest-enqueued-first across every same-weight deadline tenant
    // of the shared executor, so a live consumer's refill wait tracks
    // enqueue order instead of round-robin cursor position. Emitted
    // sequences are identical either way (per-tenant FIFO is
    // untouched). Injected by StreamPool's TenantOptions::deadline.
    bool tenant_deadline = false;
    // Idle-tenant reclaim: when this stream's consumer has not drained
    // a record for this many executor dispatch rounds, its chunked
    // buffers are dropped (governor leases released down to one floor
    // slot per file) and re-decoded on resume — so a paused consumer
    // cannot pin the shared budget. Requires max_records_in_flight > 0.
    // 0 = never reclaim. Output is identical either way.
    size_t idle_reclaim_rounds = 0;
  };

  // Runtime introspection snapshot (see stats()). Each field is read
  // under its owning component's lock, so every value is internally
  // consistent; fields from different components may be skewed by
  // in-flight work.
  struct RuntimeStats {
    size_t records_emitted = 0;
    // Decode tasks queued on this stream's tenant, not yet claimed.
    size_t queue_depth = 0;
    // Decode tasks completed for this stream's tenant.
    size_t tasks_executed = 0;
    // Dump files fully decoded (a reclaimed file counts again when its
    // re-decode completes).
    size_t files_decoded = 0;
    // Records currently buffered by chunked decode.
    size_t records_buffered = 0;
    // Chunked files whose buffers idle-reclaim dropped so far.
    size_t reclaims = 0;
  };

  BgpStream() = default;
  explicit BgpStream(Options options) : options_(std::move(options)) {}
  // Blocks until any in-flight background work (decode workers, a
  // cross-batch fetch) has finished. Virtual so pool-vended handles
  // (which deregister from the pool's stats registry) destroy cleanly
  // through a BgpStream pointer.
  virtual ~BgpStream();

  // --- configuration phase ---
  Status AddFilter(const std::string& key, const std::string& value) {
    return filters_.AddOption(key, value);
  }
  FilterSet& filters() { return filters_; }
  void SetInterval(Timestamp start, Timestamp end) {
    filters_.interval = {start, end};
  }
  void SetLive(Timestamp start) { filters_.interval = {start, kLiveEnd}; }
  void SetDataInterface(DataInterface* di) { data_interface_ = di; }

  // --- reading phase ---
  Status Start();

  // Next record passing the record-level filters. nullopt = end of stream
  // (historical exhaustion, the live poll limit, or a runtime error —
  // check status() to distinguish).
  std::optional<Record> NextRecord();

  // OK while the stream is healthy (including normal end-of-stream);
  // non-OK when the stream terminated abnormally, e.g. the shared
  // memory governor's budget is smaller than a subset's file count.
  const Status& status() const { return status_; }

  // Elems of `record` passing the elem-level filters. When the workers
  // pre-extracted them (Options::extract_elems_in_workers) this is a
  // move-out: the record's cached elems are consumed, so a second call
  // on the same record falls back to inline extraction.
  std::vector<Elem> Elems(Record& record) const;

  // Stats (used by the sorting/throughput benches and the tests).
  size_t records_emitted() const { return records_emitted_.load(); }
  size_t batches_fetched() const { return batches_fetched_; }
  size_t subsets_merged() const { return subsets_merged_; }
  size_t max_open_files() const { return max_open_files_; }
  // DataBatches fetched eagerly on the background thread.
  size_t batches_prefetched() const { return batches_prefetched_; }
  // High watermark of records buffered by chunked decode (0 unless
  // max_records_in_flight > 0).
  size_t max_records_buffered() const {
    return decoder_ ? decoder_->max_buffered_records() : 0;
  }

  // Runtime introspection: queue depth, tasks executed, files decoded,
  // records buffered, reclaims. All zeros without a prefetch decoder
  // (including while Start() is still constructing it — the snapshot
  // is safe from any thread at any time, racing Start() included).
  // StreamPool::Stats() aggregates this per tenant.
  RuntimeStats stats() const;

 private:
  // Ensures current_merge_ has data; pulls subsets/batches as needed.
  // Returns false when the stream has ended.
  bool Refill();

  // Keeps the decode pipeline full: submits pending subsets until
  // prefetch_subsets are in flight, harvesting an eagerly fetched next
  // batch when the current one is fully submitted (no-op when prefetch
  // is disabled). Stops early (without error) when the shared memory
  // governor cannot currently cover a subset's floor slots.
  void TopUpPrefetch();

  // Acquires one governor floor slot per file of `subset` before it may
  // be submitted for chunked decode (no-op without a governor).
  // may_block=false is the opportunistic work-ahead path (TryAcquire);
  // may_block=true waits FIFO-fair — only safe when this stream holds
  // no undrained buffers, i.e. Refill with nothing outstanding. Returns
  // false when the slots were not acquired; sets status_ on a demand
  // that can never be satisfied (subset larger than the whole budget).
  bool AcquireSubsetFloors(size_t files, bool may_block);

  // Kicks off the background fetch of the next DataBatch if cross-batch
  // prefetch applies (historical mode, none already in flight).
  void StartBatchPrefetch();

  FilterSet filters_;
  DataInterface* data_interface_ = nullptr;
  Options options_;
  bool started_ = false;
  bool ended_ = false;
  Status status_;  // non-OK only on abnormal termination

  std::vector<std::vector<broker::DumpFileMeta>> pending_subsets_;
  size_t next_subset_ = 0;
  // decoder_ is declared before current_merge_: the merge may hold live
  // chunked sources backed by the decoder, so it must be destroyed
  // first (members destruct in reverse declaration order).
  std::unique_ptr<PrefetchDecoder> decoder_;
  // Published (release) only after the decoder is fully constructed,
  // cleared before it is destroyed: stats() may race Start() from a
  // StreamPool::Stats() sampler thread, and reading decoder_ itself
  // there would be a data race.
  std::atomic<PrefetchDecoder*> decoder_for_stats_{nullptr};
  std::unique_ptr<MultiWayMerge> current_merge_;
  // Cross-batch prefetch: at most one eager NextBatch call in flight.
  std::future<DataBatch> next_batch_;
  // A harvested batch with no files (end-of-stream / retry) parked for
  // Refill to act on.
  std::optional<DataBatch> deferred_batch_;

  // Atomic: stats() may be read from another thread (StreamPool
  // introspection) while the consumer thread emits.
  std::atomic<size_t> records_emitted_{0};
  size_t batches_fetched_ = 0;
  size_t subsets_merged_ = 0;
  size_t max_open_files_ = 0;
  size_t batches_prefetched_ = 0;
};

}  // namespace bgps::core
