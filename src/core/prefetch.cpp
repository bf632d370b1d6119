#include "core/prefetch.hpp"

#include <algorithm>

namespace bgps::core {

// Drains one ChunkedFile's bounded buffer as a RecordSource. The decode
// tasks refill the buffer (via State::active) while the consumer merges.
class PrefetchDecoder::ChunkedSource : public RecordSource {
 public:
  ChunkedSource(std::shared_ptr<State> st, std::shared_ptr<ChunkedFile> cf)
      : st_(std::move(st)), cf_(std::move(cf)) {}

  ~ChunkedSource() override {
    std::lock_guard<std::mutex> lock(st_->mu);
    cf_->abandoned = true;
    st_->buffered -= cf_->buffer.size();
    cf_->buffer.clear();
    cf_->buffer_cps.clear();
    ReleaseSlotsLocked(*st_, *cf_);
    if (!cf_->claimed) {
      // No task holds the reader; a claimed one cleans up on unclaim.
      cf_->reader.reset();
      cf_->done = true;
    }
  }

  const broker::DumpFileMeta& meta() const override { return cf_->meta; }

  std::optional<Timestamp> PeekTimestamp() override {
    std::unique_lock<std::mutex> lock(st_->mu);
    WaitForRecordLocked(lock);
    if (cf_->buffer.empty()) return std::nullopt;
    return cf_->buffer.front().timestamp;
  }

  std::optional<Record> Next() override {
    std::unique_lock<std::mutex> lock(st_->mu);
    WaitForRecordLocked(lock);
    if (cf_->buffer.empty()) return std::nullopt;
    Record rec = std::move(cf_->buffer.front());
    cf_->buffer.pop_front();
    cf_->buffer_cps.pop_front();
    --st_->buffered;
    ++cf_->consumed;
    // The consumer is draining: reset the tenant's idle-reclaim clock.
    if (st_->tenant != nullptr) st_->tenant->NoteActivity();
    // Return the drained slot(s) to the global budget (keeping the
    // file's floor until it completes). Top the buffer back up once it
    // is half drained — urgent, since the merge heap will come back
    // for this file — rather than queueing a task per pop.
    ReleaseSlotsLocked(*st_, *cf_);
    if (cf_->buffer.size() * 2 <= cf_->capacity) {
      ScheduleFill(st_, cf_, /*urgent=*/true);
    }
    return rec;
  }

 private:
  // Blocks until the file has a buffered record or has truly ended,
  // (re)scheduling a fill whenever none is queued or running — the
  // normal pop path schedules refills, but after an idle reclaim (or a
  // reclaim racing this very wait) the buffer is empty with no task in
  // flight, and this urgent submit is what re-decodes it.
  void WaitForRecordLocked(std::unique_lock<std::mutex>& lock) {
    while (cf_->buffer.empty() && !cf_->done) {
      if (!cf_->claimed) ScheduleFill(st_, cf_, /*urgent=*/true);
      st_->chunk_cv.wait(lock);
    }
  }

  std::shared_ptr<State> st_;
  std::shared_ptr<ChunkedFile> cf_;
};

void PrefetchDecoder::ScheduleFill(const std::shared_ptr<State>& st,
                                   const std::shared_ptr<ChunkedFile>& cf,
                                   bool urgent) {
  if (st->stopping || st->tenant == nullptr) return;
  if (cf->claimed || cf->done || cf->abandoned) return;
  cf->claimed = true;
  // The task remembers its band: when an open-only leg re-submits the
  // decode burst (see FillChunked), the continuation stays in the band
  // the fill was scheduled in.
  auto task = [st, cf, urgent] { FillChunked(st, cf, urgent); };
  if (urgent) {
    st->tenant->SubmitUrgent(std::move(task));
  } else {
    st->tenant->Submit(std::move(task));
  }
}

PrefetchDecoder::PrefetchDecoder(Options options)
    : options_(std::move(options)), state_(std::make_shared<State>()) {
  state_->decode = options_.decode;
  state_->governor = options_.governor;
  executor_ = options_.executor;
  if (!executor_) {
    Executor::Options eopt;
    eopt.threads = std::max<size_t>(1, options_.threads);
    executor_ = std::make_shared<Executor>(eopt);
  }
  tenant_ = executor_->CreateTenant(
      {.weight = std::max<size_t>(1, options_.tenant_weight),
       .deadline = options_.tenant_deadline});
  state_->tenant = tenant_.get();
  if (options_.idle_reclaim_rounds > 0 && options_.max_records_in_flight > 0) {
    // Invoked by a worker with no executor lock held; takes State::mu.
    tenant_->SetIdleReclaim(options_.idle_reclaim_rounds,
                            [st = state_] { ReclaimIdle(st); });
    if (options_.governor) {
      // Wire the waiter-driven reclaim trigger, so the executor+governor
      // embedding works without a StreamPool. The registry pools the
      // hook per (governor, executor) pair: K decoders on one shared
      // executor hold K Shares of ONE hook, so a contention re-signal
      // fires one RequestReclaimTick instead of K redundant ones and
      // the governor's hook list stays flat under stream churn.
      tick_share_ = ReclaimTickRegistry::Acquire(options_.governor, executor_);
    }
  }
}

PrefetchDecoder::~PrefetchDecoder() {
  // Drop our share of the pooled contention hook eagerly: on a
  // never-contended governor the self-prune-on-fire would otherwise
  // never run. The hook itself is removed only when the last decoder
  // sharing the (governor, executor) pair lets go. (A fire already in
  // flight may still call its copy once; the weak captures make that a
  // no-op.)
  tick_share_.reset();
  {
    // Stop fill loops early and stop refill scheduling; queued tasks
    // are discarded by the tenant below, running ones finish.
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->stopping = true;
    state_->tenant = nullptr;
  }
  tenant_.reset();
  // Truncate still-undone chunked files so sources that outlive the
  // decoder drain their buffers and then end instead of hanging, and
  // hand every governor slot back to the global budget.
  std::lock_guard<std::mutex> lock(state_->mu);
  auto truncate = [this](ChunkedFile& cf) {
    cf.done = true;
    if (state_->governor && cf.slots > 0) {
      state_->governor->Release(cf.slots);
      cf.slots = 0;
    }
  };
  for (auto& job : state_->jobs) {
    for (auto& cf : job->chunks) truncate(*cf);
  }
  for (auto& subset : state_->active) {
    for (auto& cf : subset) truncate(*cf);
  }
  state_->chunk_cv.notify_all();
}

void PrefetchDecoder::Submit(std::vector<broker::DumpFileMeta> subset) {
  auto job = std::make_shared<Job>();
  if (options_.max_records_in_flight > 0) {
    job->chunked = true;
    size_t cap = std::max<size_t>(
        1, options_.max_records_in_flight / std::max<size_t>(1, subset.size()));
    job->chunks.reserve(subset.size());
    for (auto& f : subset) {
      auto cf = std::make_shared<ChunkedFile>();
      cf->meta = std::move(f);
      cf->capacity = cap;
      // The caller acquired one floor slot per file (see Options::
      // governor contract); the decoder owns them from here on.
      if (options_.governor) cf->slots = 1;
      job->chunks.push_back(std::move(cf));
    }
  } else {
    job->dumps.resize(subset.size());
    job->files = std::move(subset);
  }
  std::lock_guard<std::mutex> lock(state_->mu);
  PruneActiveLocked(*state_);
  state_->jobs.push_back(job);
  if (job->chunked) {
    for (auto& cf : job->chunks) ScheduleFill(state_, cf, /*urgent=*/false);
    return;
  }
  for (size_t idx = 0; idx < job->files.size(); ++idx) {
    if (state_->tenant == nullptr) break;
    state_->tenant->Submit([st = state_, job, idx] {
      DecodedDump dump = DecodeDumpFile(job->files[idx], st->decode);
      std::lock_guard<std::mutex> lock(st->mu);
      job->dumps[idx] = std::move(dump);
      ++job->decoded;
      ++st->files_decoded;
      if (job->decoded == job->files.size()) st->done_cv.notify_all();
    });
  }
}

std::vector<std::unique_ptr<RecordSource>>
PrefetchDecoder::WaitNextSources() {
  std::unique_lock<std::mutex> lock(state_->mu);
  if (state_->jobs.empty()) return {};
  auto job = state_->jobs.front();
  std::vector<std::unique_ptr<RecordSource>> out;
  if (job->chunked) {
    state_->jobs.pop_front();
    state_->active.push_back(job->chunks);
    PruneActiveLocked(*state_);
    out.reserve(job->chunks.size());
    for (auto& cf : job->chunks) {
      out.push_back(std::make_unique<ChunkedSource>(state_, cf));
    }
    return out;
  }
  state_->done_cv.wait(
      lock, [&] { return job->decoded == job->files.size(); });
  state_->jobs.pop_front();
  out.reserve(job->dumps.size());
  for (auto& d : job->dumps) out.push_back(MakeDecodedSource(std::move(d)));
  return out;
}

size_t PrefetchDecoder::outstanding() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->jobs.size();
}

size_t PrefetchDecoder::in_flight() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  size_t n = state_->jobs.size();
  for (const auto& subset : state_->active) {
    if (SubsetLive(subset)) ++n;
  }
  return n;
}

size_t PrefetchDecoder::files_decoded() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->files_decoded;
}

size_t PrefetchDecoder::max_buffered_records() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->max_buffered;
}

size_t PrefetchDecoder::buffered_records() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->buffered;
}

size_t PrefetchDecoder::reclaims() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->reclaims;
}

size_t PrefetchDecoder::seek_resumes() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->seek_resumes;
}

size_t PrefetchDecoder::skip_resumes() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->skip_resumes;
}

size_t PrefetchDecoder::queued_tasks() const {
  return tenant_ ? tenant_->queued() : 0;
}

size_t PrefetchDecoder::tenant_tasks_run() const {
  return tenant_ ? tenant_->tasks_run() : 0;
}

bool PrefetchDecoder::SubsetLive(
    const std::vector<std::shared_ptr<ChunkedFile>>& subset) {
  // Buffered records count even after EOF: the prefetch_subsets memory
  // bound must not admit an extra subset while buffers are still full.
  for (const auto& cf : subset) {
    if (!cf->done || !cf->buffer.empty()) return true;
  }
  return false;
}

void PrefetchDecoder::PruneActiveLocked(State& st) {
  // Front-only pruning keeps consumption order simple.
  while (!st.active.empty() && !SubsetLive(st.active.front())) {
    st.active.pop_front();
  }
}

void PrefetchDecoder::ReclaimIdle(const std::shared_ptr<State>& st) {
  std::lock_guard<std::mutex> lock(st->mu);
  if (st->stopping) return;
  // Files with a fill task queued/running are left alone (the task
  // holds the reader with the lock released, and may buffer more
  // records right after this pass). The executor's reclaim policy is
  // one-shot until the consumer's next NoteActivity, so when any such
  // file is skipped we reset the idle clock ourselves — another pass
  // fires idle_reclaim_rounds later and catches it, instead of the
  // tenant pinning those buffers until the consumer resumes.
  bool skipped_busy = false;
  auto reclaim_subset =
      [&](const std::vector<std::shared_ptr<ChunkedFile>>& subset) {
        for (const auto& cf : subset) {
          if (cf->abandoned) continue;
          if (cf->claimed) {
            skipped_busy = true;
            continue;
          }
          // Quiescent = no fill task in flight and records parked in
          // the buffer.
          if (cf->buffer.empty()) continue;
          // The front buffered record is exactly where resume must
          // restart: remember its checkpoint so the refill seeks there
          // in O(1) instead of re-framing `consumed` records.
          cf->resume_cp = cf->buffer_cps.front();
          st->buffered -= cf->buffer.size();
          cf->buffer.clear();
          cf->buffer_cps.clear();
          cf->reader.reset();  // position is lost; resume_cp restores it
          if (cf->done) {
            // The records still owed to the consumer must be re-decoded,
            // so the file is no longer "decoded".
            cf->done = false;
            if (st->files_decoded > 0) --st->files_decoded;
          }
          cf->reclaimed = true;
          ++st->reclaims;
          // Full release: the floor slot goes back to the budget too.
          // Keeping it (the pre-fix behavior) leaked one slot per file
          // of every reclaimed-and-never-resumed tenant — a dead
          // stream's floors stayed leased forever, silently shrinking
          // the shared budget. The resume fill re-acquires its floor
          // through the governor's fair FIFO Acquire instead (see
          // FillChunked), which can never be starved and whose blocked
          // wait runs reclaim passes inline.
          ReleaseSlotsLocked(*st, *cf);
          if (st->governor && cf->slots > 0) {
            st->governor->Release(cf->slots);
            cf->slots = 0;
          }
        }
      };
  for (const auto& job : st->jobs) {
    if (job->chunked) reclaim_subset(job->chunks);
  }
  for (const auto& subset : st->active) reclaim_subset(subset);
  // No explicit retry is needed for the skipped files: the contention
  // that fired this pass keeps re-signalling while it stays blocked
  // (and a busy pool's round clock keeps advancing), so the next pass
  // catches them once their fills unclaim.
  if (skipped_busy && st->tenant != nullptr) st->tenant->NoteActivity();
}

void PrefetchDecoder::ReleaseSlotsLocked(State& st, ChunkedFile& cf) {
  if (!st.governor || cf.slots == 0) return;
  // A completed-and-drained (or abandoned) file needs nothing; a live
  // one needs one slot per buffered record (plus one for a record the
  // fill task is decoding right now) and its floor.
  size_t target;
  if (cf.abandoned || (cf.done && cf.buffer.empty())) {
    target = 0;
  } else {
    target = std::max<size_t>(cf.done ? 0 : 1, cf.buffer.size() + cf.decoding);
  }
  if (cf.slots > target) {
    st.governor->Release(cf.slots - target);
    cf.slots = target;
  }
}

void PrefetchDecoder::FillChunked(const std::shared_ptr<State>& st,
                                  const std::shared_ptr<ChunkedFile>& cfp,
                                  bool urgent) {
  ChunkedFile& cf = *cfp;
  std::unique_lock<std::mutex> lock(st->mu);
  bool opened = false;
  if (!cf.reader && !cf.done && !cf.abandoned && !st->stopping) {
    opened = true;
    broker::DumpFileMeta meta = cf.meta;
    bool resuming = cf.reclaimed;
    DumpReader::Checkpoint resume_cp = cf.resume_cp;
    size_t skip = resuming ? cf.consumed : 0;
    // A full-release reclaim returned this file's floor slot to the
    // global budget (slots == 0 happens no other way: fresh files own
    // their floor from Submit). Re-acquire it through the governor's
    // fair FIFO Acquire before re-opening — the demand queues behind
    // earlier blocked demands instead of barging via TryAcquire, and
    // while it waits its contention re-signals run reclaim passes
    // inline (see Executor::RequestReclaimTick), so budget parked on
    // other idle tenants is peeled loose even when every worker is
    // blocked here.
    bool need_floor = st->governor != nullptr && cf.slots == 0;
    lock.unlock();
    bool floor_acquired = false;
    if (need_floor) floor_acquired = st->governor->Acquire(1).ok();
    std::unique_ptr<DumpReader> reader;
    bool exhausted = false;
    if (need_floor && !floor_acquired) {
      // A 1-slot demand only fails on a poisoned ledger (double-release
      // accounting bug): end the file like a shutdown truncation; the
      // stream surfaces the latched governor health as its status.
      exhausted = false;
    } else {
      if (st->decode.file_open_hook) st->decode.file_open_hook(meta);
      if (resuming && resume_cp.valid) {
        // Resuming after an idle reclaim: seek straight to the first
        // dropped record's checkpoint — O(1), the consumed prefix is
        // never read again.
        reader = std::make_unique<DumpReader>(std::move(meta), resume_cp);
      } else {
        // Fresh file, or a reclaimed record with no byte position (the
        // synthesized open-failure record): re-open from the start and
        // Skip() the records the consumer already drained. Skip counts
        // raw framing units without re-decoding the BGP payloads;
        // < skip ⇔ the file shrank.
        reader = std::make_unique<DumpReader>(std::move(meta));
        exhausted = reader->Skip(skip) < skip;
      }
    }
    lock.lock();
    cf.reclaimed = false;
    if (floor_acquired) ++cf.slots;  // recorded under the lock it is read
    if (need_floor && !floor_acquired) {
      cf.done = true;  // poisoned governor: truncate, never hang
    } else {
      if (resuming) {
        ++(resume_cp.valid ? st->seek_resumes : st->skip_resumes);
      }
      if (exhausted) {
        cf.done = true;
        ++st->files_decoded;
      } else {
        cf.reader = std::move(reader);
      }
    }
  }
  // Deadline-class head-of-line fix: the open above (archive-latency
  // bound — in the paper's deployment an HTTP fetch) and the decode
  // burst below (CPU bound, up to `capacity` records) used to run as
  // one task, so every same-class tenant's queued open waited behind
  // whole bursts p99-style. Hand the burst back to the scheduler as
  // its own task in the same band instead: the worker is released
  // after the open, and EDF claims interleave other tenants' opens
  // ahead of this file's burst. cf stays claimed — the continuation
  // task is the claim's next leg, so no duplicate fill can schedule.
  if (opened && !st->stopping && !cf.abandoned && !cf.done &&
      st->tenant != nullptr) {
    auto task = [st, cfp, urgent] { FillChunked(st, cfp, urgent); };
    if (urgent) {
      st->tenant->SubmitUrgent(std::move(task));
    } else {
      st->tenant->Submit(std::move(task));
    }
    return;
  }
  while (!st->stopping && !cf.abandoned && !cf.done &&
         cf.buffer.size() < cf.capacity) {
    // Lease a slot for the next record *before* decoding it. The first
    // record rides on the file's floor slot; extras are opportunistic
    // (TryAcquire never blocks the shared Executor) — when the global
    // budget is spent, stop filling; consumer pops re-schedule us.
    if (st->governor && cf.buffer.size() + 1 > cf.slots) {
      if (!st->governor->TryAcquire(1)) break;
      ++cf.slots;
    }
    cf.decoding = 1;  // the lease above covers the record decoded next
    lock.unlock();
    std::optional<Record> rec = cf.reader->Next();
    if (rec) AttachPrefetchedElems(*rec, st->decode);
    lock.lock();
    // Holding the lock through the push below: no pop can interleave
    // between clearing the in-flight mark and the slot becoming a
    // buffered record's.
    cf.decoding = 0;
    if (!rec) {
      cf.done = true;
      cf.reader.reset();  // release the file handle; nothing left to read
      ++st->files_decoded;
      break;
    }
    if (cf.abandoned) break;  // consumer is gone: drop the record
    cf.buffer.push_back(std::move(*rec));
    cf.buffer_cps.push_back(cf.reader->last_checkpoint());
    ++st->buffered;
    st->max_buffered = std::max(st->max_buffered, st->buffered);
    // Wake a consumer blocked on this file's first record right away
    // instead of making it wait for a full buffer.
    if (cf.buffer.size() == 1) st->chunk_cv.notify_all();
  }
  if (cf.abandoned) {
    cf.reader.reset();
    cf.done = true;
  }
  // Hand back any slot leased for a record that never materialized
  // (EOF, denied push, shutdown) — and everything, once dead.
  ReleaseSlotsLocked(*st, cf);
  cf.claimed = false;
  st->chunk_cv.notify_all();
}

}  // namespace bgps::core
