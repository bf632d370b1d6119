// Asynchronous prefetching decode stage (paper §3.1).
//
// The central live-mode requirement is that processing outpaces data
// generation. The synchronous stream interleaves file open + MRT decode
// with merge/filter/elem extraction on one thread, so every millisecond
// of retrieval latency (in the paper's deployment the dumps stream over
// HTTP from the RouteViews / RIPE RIS archives) stalls the consumer.
//
// PrefetchDecoder schedules open+decode as tasks on a core::Executor
// that run ahead of the consumer: while the application merges
// overlapping-subset N, decode tasks are already opening and decoding
// the files of subsets N+1..N+depth, handed back through an
// order-preserving queue. BgpStream bounds how many subsets are in
// flight (Options::prefetch_subsets), which bounds memory.
//
// The decoder is one *tenant* of its Executor. By default it creates a
// private Executor (Options::threads workers) and behaves exactly like
// a dedicated pool; inject a shared Executor (Options::executor, via
// bgps::StreamPool) and many concurrent streams decode on one
// process-wide pool, each with a FIFO queue dispatched round-robin so a
// heavy stream cannot starve the others.
//
// Two decode modes (Options::max_records_in_flight):
//  * whole-file (0, default): each file is fully materialized into a
//    DecodedDump before the subset is handed to the consumer. Lowest
//    synchronization cost; memory is O(records per subset).
//  * chunked (> 0): each file streams through a bounded per-file record
//    buffer that decode tasks keep topped up while the consumer merges,
//    so a ~500-file RIB subset (paper §3.3.4) never holds more than
//    max_records_in_flight records in RAM per in-flight subset.
//
// Chunked buffering can additionally be governed by a process-wide
// MemoryGovernor (Options::governor): each buffered record then leases
// one slot from the global budget — a floor slot per file (acquired by
// the caller before Submit, ownership passes to the decoder) plus
// demand-driven extras the fill tasks TryAcquire (never blocking the
// shared Executor). Slots release as the consumer drains.
//
// The decode tasks can also pre-extract (and elem-filter) elems into
// Record::prefetched_elems (Options::decode.extract_elems), moving the
// §3.3.3 decomposition off the consumer thread too.
//
// Idle-tenant reclaim (Options::idle_reclaim_rounds): a paused consumer
// would otherwise park its chunked buffers — and their governor leases
// — indefinitely, shrinking the shared budget for every other tenant.
// With a reclaim threshold set, once the consumer has not drained a
// record for that many executor dispatch rounds, the decoder drops all
// buffered-but-undrained chunked records, releases *every* governor
// lease they held — extras and the per-file floor slots alike, so a
// reclaimed tenant that never resumes drains its governor footprint to
// zero — and stores the DumpReader::Checkpoint of the first dropped
// record. When the consumer resumes, the next fill task — scheduled via
// SubmitUrgent because the consumer is blocked on it — first re-acquires
// the file's floor through the governor's fair FIFO Acquire (the blocked
// demand's contention re-signals run reclaim passes inline, so budget
// parked on other idle tenants is freed even when every worker is
// blocked in such an Acquire), then reconstructs the reader straight at
// that checkpoint (an O(1) seek; only records the checkpoint cannot
// cover, e.g. an open-failure file, fall back to the O(consumed)
// re-open + Skip path), so the emitted sequence is identical to a
// never-reclaimed run without re-reading the consumed prefix of a
// large dump.
//
// Ordering guarantee: WaitNextSources() returns subsets in Submit()
// order, and within a subset sources preserve the submitted file order,
// so a MultiWayMerge built from them breaks ties exactly like the
// synchronous path and all paths emit identical record sequences.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>

#include "core/executor.hpp"
#include "core/governor.hpp"
#include "core/merge.hpp"

namespace bgps::core {

class PrefetchDecoder {
 public:
  struct Options {
    // Private-executor size (clamped to >= 1). Ignored when a shared
    // executor is injected below.
    size_t threads = 2;
    // Shared process-wide decode pool (see bgps::StreamPool). Null =
    // create a private Executor with `threads` workers.
    std::shared_ptr<Executor> executor;
    // Global record-budget ledger for chunked buffers. Null = only the
    // per-subset split below bounds memory. Contract: when set, the
    // caller must Acquire(subset.size()) floor slots before each
    // chunked Submit; the decoder takes ownership and releases them.
    std::shared_ptr<MemoryGovernor> governor;
    DumpDecodeOptions decode;  // open hook + worker-side elem extraction
    // Chunked decode: cap on records buffered in RAM per in-flight
    // subset, split evenly across its files (floor of one record per
    // file). 0 = whole-file materialization.
    size_t max_records_in_flight = 0;
    // Scheduling weight of this decoder's tenant queue: tasks drained
    // per dispatch visit relative to other tenants (clamped to >= 1).
    size_t tenant_weight = 1;
    // Join the executor's deadline class for this weight: decode tasks
    // drain earliest-enqueued-first across every same-weight deadline
    // tenant, so a live consumer's wait tracks enqueue order instead of
    // cursor position. See Executor::TenantOptions::deadline.
    bool tenant_deadline = false;
    // Idle-tenant reclaim: when the consumer has not drained a record
    // for this many executor dispatch rounds, drop the chunked buffers
    // (keeping one governor floor slot per file) and re-decode on
    // resume. 0 = never reclaim. Chunked mode only.
    size_t idle_reclaim_rounds = 0;
  };

  explicit PrefetchDecoder(Options options);
  // Abandons still-unclaimed queued files (the consumer is gone), lets
  // in-flight decodes finish, and releases the decoder's tenant queue
  // (and any governor slots it still holds). Chunked sources that
  // outlive the decoder keep serving their buffered records, then end
  // (truncated) — BgpStream never lets that happen.
  ~PrefetchDecoder();

  PrefetchDecoder(const PrefetchDecoder&) = delete;
  PrefetchDecoder& operator=(const PrefetchDecoder&) = delete;

  // Enqueues one overlapping-subset for decoding. Never blocks; the
  // caller (BgpStream) bounds the number of subsets in flight.
  void Submit(std::vector<broker::DumpFileMeta> subset);

  // Hands off record sources for the oldest submitted subset, in file
  // order (FIFO: subsets come back in Submit order regardless of which
  // task finished first). Whole-file mode blocks until the subset is
  // fully decoded; chunked mode returns immediately with live sources
  // the decode tasks keep filling (their Peek/Next block until a record
  // or end-of-file). Precondition: outstanding() > 0.
  std::vector<std::unique_ptr<RecordSource>> WaitNextSources();

  // Subsets submitted but not yet returned by WaitNextSources().
  size_t outstanding() const;

  // Subsets still holding decode resources: queued ones plus (chunked
  // mode) handed-out subsets whose files are not fully drained yet.
  // BgpStream bounds this by Options::prefetch_subsets.
  size_t in_flight() const;

  // Dump files decoded so far (stats for tests/benches).
  size_t files_decoded() const;

  // High watermark of records simultaneously buffered by chunked decode
  // (0 in whole-file mode). Proves the memory bound in tests.
  size_t max_buffered_records() const;

  // Records currently sitting in chunked buffers (0 in whole-file
  // mode). Stats for StreamPool introspection.
  size_t buffered_records() const;

  // Chunked files whose undrained buffers were dropped by idle-tenant
  // reclaim so far (each is re-decoded on resume).
  size_t reclaims() const;

  // Reclaimed files resumed by seeking straight to the stored
  // checkpoint (O(1) — no re-read of the consumed prefix).
  size_t seek_resumes() const;

  // Reclaimed files resumed by the fallback re-open + Skip(consumed)
  // path (only files whose records carry no byte position, e.g. an
  // open-failure record). The large-file resume test pins this at 0.
  size_t skip_resumes() const;

  // Decode tasks queued on this decoder's tenant but not yet claimed.
  size_t queued_tasks() const;

  // Decode tasks completed for this decoder's tenant.
  size_t tenant_tasks_run() const;

 private:
  // One file streaming through a bounded buffer (chunked mode). All
  // fields are guarded by State::mu except reader *while claimed*,
  // which the claiming task uses with the lock released.
  struct ChunkedFile {
    broker::DumpFileMeta meta;
    size_t capacity = 1;
    std::deque<Record> buffer;
    // Resume point of each buffered record, in lockstep with `buffer`:
    // the front entry is where a reclaim's resume must restart.
    std::deque<DumpReader::Checkpoint> buffer_cps;
    std::unique_ptr<DumpReader> reader;  // created by the first filler
    size_t slots = 0;        // governor slots held (floor + extras)
    // 1 while the fill task decodes a record with the lock released and
    // a slot already leased for it; keeps concurrent consumer pops from
    // releasing that in-flight lease (ReleaseSlotsLocked counts it).
    size_t decoding = 0;
    // Records the consumer has popped from this file so far (the
    // Skip-fallback resume count; also an invariant check on resume_cp).
    size_t consumed = 0;
    // Where the reclaimed buffer's first record lives, for the O(1)
    // seek resume (valid ⇔ the record had a byte position).
    DumpReader::Checkpoint resume_cp;
    bool claimed = false;    // a fill task is queued or running
    bool done = false;       // reader exhausted (or truncated at shutdown)
    bool abandoned = false;  // the consumer dropped the source
    // Idle reclaim dropped this file's buffer; the next fill must
    // reconstruct the reader at resume_cp (or re-open + Skip) first.
    bool reclaimed = false;
  };

  struct Job {
    bool chunked = false;
    // Whole-file mode:
    std::vector<broker::DumpFileMeta> files;
    std::vector<DecodedDump> dumps;  // slot per file, filled by tasks
    size_t decoded = 0;              // slots filled
    // Chunked mode:
    std::vector<std::shared_ptr<ChunkedFile>> chunks;
  };

  // Shared between the facade, the decode tasks, and any ChunkedSources
  // still held by a MultiWayMerge — shared_ptr-owned so sources stay
  // valid no matter the destruction order.
  struct State {
    DumpDecodeOptions decode;
    std::shared_ptr<MemoryGovernor> governor;
    mutable std::mutex mu;
    std::condition_variable done_cv;   // consumer: front whole-file job done
    std::condition_variable chunk_cv;  // consumer: chunked records/EOF ready
    // Refill scheduling target; nulled (under mu) before the decoder
    // destroys it, so late refill requests are safely dropped.
    Executor::Tenant* tenant = nullptr;
    std::deque<std::shared_ptr<Job>> jobs;  // submission order, not handed out
    // Chunked subsets handed to the consumer but still being filled.
    std::deque<std::vector<std::shared_ptr<ChunkedFile>>> active;
    size_t files_decoded = 0;
    size_t buffered = 0;      // records currently in chunked buffers
    size_t max_buffered = 0;  // high watermark of `buffered`
    size_t reclaims = 0;      // chunked files reclaimed while idle
    size_t seek_resumes = 0;  // reclaim resumes via checkpoint seek
    size_t skip_resumes = 0;  // reclaim resumes via re-open + Skip
    bool stopping = false;
  };

  class ChunkedSource;

  // Fills `cf` (claimed by the running task) until full/EOF/denied-
  // lease/abandoned/stop. Runs as an Executor task. When the file is
  // not open yet, the task only performs the open (plus any reclaim
  // resume seek and floor re-acquisition) and re-submits the decode
  // burst as a separate task in the same band (`urgent`), so queued
  // opens of other deadline-class tenants never wait behind a whole
  // decode burst.
  static void FillChunked(const std::shared_ptr<State>& st,
                          const std::shared_ptr<ChunkedFile>& cf,
                          bool urgent);
  // Queues a fill task for `cf` on the decoder's tenant if it can make
  // progress and none is queued or running. Caller holds State::mu.
  // `urgent` puts the task at the front of the tenant queue (the
  // consumer may be blocked on this very file).
  static void ScheduleFill(const std::shared_ptr<State>& st,
                           const std::shared_ptr<ChunkedFile>& cf,
                           bool urgent);
  // Releases cf's governor slots down to what its buffer still needs.
  // Caller holds State::mu.
  static void ReleaseSlotsLocked(State& st, ChunkedFile& cf);
  // True while a handed-out subset still holds decode resources (any
  // file not yet decoded AND drained). in_flight() counts live subsets
  // toward the prefetch_subsets bound; PruneActiveLocked drops dead
  // ones — both must use this one predicate.
  static bool SubsetLive(const std::vector<std::shared_ptr<ChunkedFile>>& s);
  // Drops handed-out subsets whose files are all drained or abandoned.
  static void PruneActiveLocked(State& st);
  // Idle-tenant reclaim pass (invoked by the Executor with no executor
  // lock held): drops every quiescent chunked file's buffered records,
  // releases every governor lease they held — extras and floor slots
  // alike — and marks the files for skip-ahead re-decode on resume
  // (which re-acquires its floor via the governor's FIFO Acquire).
  static void ReclaimIdle(const std::shared_ptr<State>& st);

  Options options_;
  std::shared_ptr<State> state_;
  // Share of the (governor, executor) pair's pooled contention hook
  // (see ReclaimTickRegistry); dropped eagerly in the destructor.
  ReclaimTickRegistry::Share tick_share_;
  // Private pool when no shared executor was injected. Declared before
  // tenant_ so the tenant detaches first (members destruct in reverse).
  std::shared_ptr<Executor> executor_;
  std::unique_ptr<Executor::Tenant> tenant_;
};

}  // namespace bgps::core
