#include "core/stream.hpp"

#include <chrono>
#include <thread>

namespace bgps::core {

BgpStream::~BgpStream() {
  // The merge may hold chunked sources backed by the decoder; drop it
  // first, then the decoder joins its workers. The future (if any)
  // blocks in its destructor until the background fetch returns.
  decoder_for_stats_.store(nullptr, std::memory_order_release);
  current_merge_.reset();
  decoder_.reset();
}

Status BgpStream::Start() {
  if (data_interface_ == nullptr)
    return InvalidArgument("no data interface configured");
  if (filters_.interval.start < 0)
    return InvalidArgument("interval start must be >= 0");
  if (options_.prefetch_subsets == 0) {
    if (options_.extract_elems_in_workers)
      return InvalidArgument(
          "extract_elems_in_workers requires prefetch_subsets > 0");
    if (options_.max_records_in_flight > 0)
      return InvalidArgument(
          "max_records_in_flight requires prefetch_subsets > 0 (the "
          "synchronous path already streams with bounded memory)");
    if (options_.executor)
      return InvalidArgument(
          "Options::executor requires prefetch_subsets > 0 (the "
          "synchronous path never decodes off-thread)");
    if (options_.governor)
      return InvalidArgument("Options::governor requires prefetch_subsets > 0");
  }
  if (options_.executor && options_.executor->threads() == 0)
    return InvalidArgument(
        "Options::executor has no worker threads (decode tasks would "
        "never run)");
  if (options_.governor) {
    if (options_.max_records_in_flight == 0)
      return InvalidArgument(
          "Options::governor requires max_records_in_flight > 0 (the "
          "governor leases chunked-decode buffer slots)");
    if (options_.governor->capacity() == 0)
      return InvalidArgument(
          "Options::governor budget must be > 0 records");
  }
  if (options_.tenant_weight == 0)
    return InvalidArgument(
        "Options::tenant_weight must be >= 1 (a zero-weight tenant "
        "would never be dispatched)");
  if (options_.idle_reclaim_rounds > 0 && options_.max_records_in_flight == 0)
    return InvalidArgument(
        "Options::idle_reclaim_rounds requires max_records_in_flight > 0 "
        "(only chunked-decode buffers can be reclaimed)");
  if (!options_.poll_wait) {
    options_.poll_wait = [] {
      std::this_thread::sleep_for(std::chrono::seconds(1));
    };
  }
  if (options_.prefetch_subsets > 0 && !decoder_) {
    PrefetchDecoder::Options popt;
    popt.threads = options_.decode_threads;
    popt.executor = options_.executor;
    popt.governor = options_.governor;
    popt.decode.file_open_hook = options_.file_open_hook;
    popt.decode.extract_elems = options_.extract_elems_in_workers;
    // filters_ is frozen once reading starts, so the workers can read it
    // without synchronization.
    popt.decode.filters = &filters_;
    popt.max_records_in_flight = options_.max_records_in_flight;
    popt.tenant_weight = options_.tenant_weight;
    popt.tenant_deadline = options_.tenant_deadline;
    popt.idle_reclaim_rounds = options_.idle_reclaim_rounds;
    decoder_ = std::make_unique<PrefetchDecoder>(std::move(popt));
    decoder_for_stats_.store(decoder_.get(), std::memory_order_release);
  }
  started_ = true;
  ended_ = false;
  status_ = OkStatus();
  return OkStatus();
}

void BgpStream::StartBatchPrefetch() {
  if (!options_.prefetch_batches || filters_.interval.live()) return;
  if (next_batch_.valid()) return;  // one fetch in flight at a time
  ++batches_prefetched_;
  next_batch_ = std::async(std::launch::async,
                           [this] { return data_interface_->NextBatch(filters_); });
}

bool BgpStream::AcquireSubsetFloors(size_t files, bool may_block) {
  if (!options_.governor || options_.max_records_in_flight == 0) return true;
  MemoryGovernor& gov = *options_.governor;
  if (files > gov.capacity()) {
    status_ = InvalidArgument(
        "memory governor budget (" + std::to_string(gov.capacity()) +
        " records) is smaller than the subset file count (" +
        std::to_string(files) +
        " files); chunked decode needs one buffered record per file");
    return false;
  }
  if (!may_block) return gov.TryAcquire(files);
  Status st = gov.Acquire(files);
  if (!st.ok()) {
    status_ = st;
    return false;
  }
  return true;
}

void BgpStream::TopUpPrefetch() {
  while (decoder_ && decoder_->in_flight() < options_.prefetch_subsets) {
    if (next_subset_ < pending_subsets_.size()) {
      // Opportunistic work-ahead: when the shared budget cannot cover
      // this subset's floor slots right now, just stop topping up —
      // Refill falls back to a fair blocking wait once it has nothing
      // else to do.
      if (!AcquireSubsetFloors(pending_subsets_[next_subset_].size(),
                               /*may_block=*/false)) {
        return;
      }
      decoder_->Submit(std::move(pending_subsets_[next_subset_++]));
      continue;
    }
    // Every subset of the current batch is submitted: harvest the next
    // batch if its eager fetch already completed, so the workers roll
    // straight into it without a broker-latency gap.
    if (!next_batch_.valid() || deferred_batch_.has_value()) return;
    if (next_batch_.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready)
      return;
    DataBatch batch = next_batch_.get();
    ++batches_fetched_;
    if (!batch.files.empty()) {
      pending_subsets_ = GroupOverlapping(std::move(batch.files));
      next_subset_ = 0;
      StartBatchPrefetch();
      continue;
    }
    // Terminal or retry batch: park it for Refill to act on.
    deferred_batch_ = std::move(batch);
    return;
  }
}

bool BgpStream::Refill() {
  size_t consecutive_polls = 0;
  while (true) {
    // A poisoned governor ledger (double-release accounting bug) can
    // never grant again; surface the latched diagnostic instead of
    // blocking forever in the fair Acquire below.
    if (options_.governor) {
      if (Status h = options_.governor->health(); !h.ok()) {
        status_ = h;
        return false;
      }
    }
    // 1. Drain remaining subsets of the current batch.
    if (decoder_) {
      TopUpPrefetch();
      if (!status_.ok()) return false;
      if (decoder_->outstanding() == 0 &&
          next_subset_ < pending_subsets_.size()) {
        // Work is pending but the shared governor's budget is spent on
        // other tenants. We hold no undrained buffers here (everything
        // handed out was fully merged), so a fair blocking wait is
        // safe: the capacity we wait for is releasable without us.
        if (!AcquireSubsetFloors(pending_subsets_[next_subset_].size(),
                                 /*may_block=*/true)) {
          return false;
        }
        decoder_->Submit(std::move(pending_subsets_[next_subset_++]));
      }
      if (decoder_->outstanding() > 0) {
        std::vector<std::unique_ptr<RecordSource>> sources =
            decoder_->WaitNextSources();
        // Re-fill the slot just vacated before merging, so workers stay
        // busy while the consumer processes this subset.
        TopUpPrefetch();
        current_merge_ = std::make_unique<MultiWayMerge>(std::move(sources));
        ++subsets_merged_;
        max_open_files_ =
            std::max(max_open_files_, current_merge_->open_files());
        return true;
      }
    } else if (next_subset_ < pending_subsets_.size()) {
      current_merge_ = std::make_unique<MultiWayMerge>(
          pending_subsets_[next_subset_++], options_.file_open_hook);
      ++subsets_merged_;
      max_open_files_ = std::max(max_open_files_, current_merge_->open_files());
      return true;
    }
    // 2. Pull the next batch from the data interface (client-pull model,
    // possibly already fetched — or harvested — in the background).
    DataBatch batch;
    if (deferred_batch_.has_value()) {
      batch = std::move(*deferred_batch_);
      deferred_batch_.reset();
    } else if (next_batch_.valid()) {
      batch = next_batch_.get();
      ++batches_fetched_;
    } else {
      batch = data_interface_->NextBatch(filters_);
      ++batches_fetched_;
    }
    if (!batch.files.empty()) {
      pending_subsets_ = GroupOverlapping(std::move(batch.files));
      next_subset_ = 0;
      StartBatchPrefetch();
      continue;
    }
    if (batch.retry_later) {
      // Live mode. A push interface blocks until a batch is published;
      // a pull interface is polled: wait, re-scrape, retry.
      if (data_interface_->WaitForData()) continue;
      ++consecutive_polls;
      if (options_.max_consecutive_polls != 0 &&
          consecutive_polls >= options_.max_consecutive_polls) {
        return false;
      }
      options_.poll_wait();
      data_interface_->Refresh();
      continue;
    }
    // end_of_stream
    return false;
  }
}

std::optional<Record> BgpStream::NextRecord() {
  if (!started_ || ended_) return std::nullopt;
  while (true) {
    if (!current_merge_) {
      if (!Refill()) {
        ended_ = true;
        return std::nullopt;
      }
    }
    std::optional<Record> rec = current_merge_->Next();
    if (!rec) {
      current_merge_.reset();
      continue;
    }
    if (!filters_.MatchesRecord(*rec)) continue;
    ++records_emitted_;
    return rec;
  }
}

BgpStream::RuntimeStats BgpStream::stats() const {
  RuntimeStats out;
  out.records_emitted = records_emitted_.load();
  // Not decoder_ itself: a sampler thread may call this while the
  // consumer thread is inside Start(); the atomic is only published
  // once the decoder is fully constructed.
  if (PrefetchDecoder* d =
          decoder_for_stats_.load(std::memory_order_acquire)) {
    out.queue_depth = d->queued_tasks();
    out.tasks_executed = d->tenant_tasks_run();
    out.files_decoded = d->files_decoded();
    out.records_buffered = d->buffered_records();
    out.reclaims = d->reclaims();
  }
  return out;
}

std::vector<Elem> BgpStream::Elems(Record& record) const {
  if (record.prefetched_elems.has_value()) {
    // Extracted (and elem-filtered) ahead of time on a worker thread.
    std::vector<Elem> out = std::move(*record.prefetched_elems);
    record.prefetched_elems.reset();
    return out;
  }
  std::vector<Elem> out;
  ExtractFilteredElemsInto(record, filters_, out);
  return out;
}

}  // namespace bgps::core
