#include "pool/record_fanout.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

namespace bgps::pool {

// --- RecordPublisher -------------------------------------------------------

Status RecordPublisher::FlushBatch(mq::RecordBatchMessage& batch) {
  if (batch.records.empty()) return OkStatus();
  const size_t n = batch.records.size();
  mq::Message m;
  m.key = batch.collector;
  m.timestamp = batch.records.back().record.timestamp;
  m.value = mq::EncodeRecordBatch(batch);
  if (options_.governor) {
    // One slot per record, blocking (FIFO-fair): a full ledger means
    // retention is pinned by a lagging subscriber, and publication must
    // wait for it, not outgrow the budget. Released by the message's
    // eviction hook (truncation or cluster teardown).
    BGPS_RETURN_IF_ERROR(options_.governor->Acquire(n));
    m.on_evict = [gov = options_.governor, n] { gov->Release(n); };
  }
  options_.cluster->Publish(mq::RecordTopic(batch.collector), 0, std::move(m));
  stats_.records_published += n;
  ++stats_.batches_published;
  batch.records.clear();
  return OkStatus();
}

Status RecordPublisher::FlushAll(bool closed) {
  // Every open batch flushes before the watermark does — that ordering
  // is what makes `published_through = next_seq_` true when it lands.
  for (auto& batch : open_) BGPS_RETURN_IF_ERROR(FlushBatch(batch));
  mq::RecordWatermarkMessage wm;
  wm.published_through = next_seq_;
  wm.closed = closed;
  mq::Message m;
  m.value = mq::EncodeRecordWatermark(wm);
  options_.cluster->Publish(mq::kRecordWatermarkTopic, 0, std::move(m));
  ++stats_.watermarks_published;
  return OkStatus();
}

Result<RecordPublisher::Stats> RecordPublisher::Run(core::BgpStream& stream) {
  if (!options_.cluster)
    return InvalidArgument("RecordPublisher requires a cluster");
  // Progress markers must never truncate away under a bounded cluster
  // default — pin the watermark topic to unbounded retention up front.
  options_.cluster->CreateTopic(mq::kRecordWatermarkTopic, 1,
                                mq::RetentionOptions{});
  const size_t flush_at = std::max<size_t>(1, options_.batch_records);
  while (auto rec = stream.NextRecord()) {
    // The one and only extraction of this record's elems, whole
    // pipeline wide. The publisher stream carries no elem filters, so
    // this is the full decomposition.
    rec->prefetched_elems = stream.Elems(*rec);
    const std::string& collector = rec->collector.str();
    mq::RecordBatchMessage* batch = nullptr;
    for (auto& b : open_) {
      if (b.collector == collector) {
        batch = &b;
        break;
      }
    }
    if (!batch) {
      if (options_.topic_retention) {
        options_.cluster->CreateTopic(mq::RecordTopic(collector), 1,
                                      *options_.topic_retention);
      }
      open_.emplace_back();
      batch = &open_.back();
      batch->project = rec->project.str();
      batch->collector = collector;
      ++stats_.collectors_seen;
    }
    mq::PublishedRecord pr;
    pr.seq = next_seq_++;
    stats_.elems_published += rec->prefetched_elems->size();
    pr.record = std::move(*rec);
    batch->records.push_back(std::move(pr));
    if (batch->records.size() >= flush_at) {
      BGPS_RETURN_IF_ERROR(FlushAll(false));
    }
  }
  Status run_status = stream.status();
  Status flush_status = FlushAll(true);
  if (!flush_status.ok()) {
    // The close must reach subscribers even when the final flush could
    // not (poisoned governor): publish a bare closed watermark — they
    // are never leased — so every tail terminates.
    mq::Message m;
    m.value = mq::EncodeRecordWatermark(
        mq::RecordWatermarkMessage{next_seq_, true});
    options_.cluster->Publish(mq::kRecordWatermarkTopic, 0, std::move(m));
    ++stats_.watermarks_published;
    return flush_status;
  }
  if (!run_status.ok()) return run_status;
  return stats_;
}

// --- RecordSubscriber ------------------------------------------------------

RecordSubscriber::RecordSubscriber(Options options)
    : options_(std::move(options)) {}

Status RecordSubscriber::Start() {
  if (!options_.cluster)
    return InvalidArgument("RecordSubscriber requires a cluster");
  watermark_.emplace(options_.cluster, mq::kRecordWatermarkTopic);
  DiscoverTopics();
  return OkStatus();
}

void RecordSubscriber::DiscoverTopics() {
  const size_t prefix_len = std::strlen(mq::kRecordTopicPrefix);
  for (const auto& name : options_.cluster->topics()) {
    if (name.rfind(mq::kRecordTopicPrefix, 0) != 0) continue;
    const std::string collector = name.substr(prefix_len);
    const auto& want = options_.filters.collectors;
    if (!want.empty() &&
        std::find(want.begin(), want.end(), collector) == want.end())
      continue;
    bool known = false;
    for (const auto& t : topics_) {
      if (t.consumer.topic() == name) {
        known = true;
        break;
      }
    }
    if (known) continue;
    Topic t{mq::Consumer(options_.cluster, name),
            // Pin first (it clamps to the retained low-watermark and
            // freezes it), then park the cursor on the pinned offset —
            // truncation cannot race past us in between.
            options_.cluster->CreatePin(name, 0, 0),
            {}};
    t.consumer.SeekToFirst();
    topics_.push_back(std::move(t));
  }
}

bool RecordSubscriber::PollOnce() {
  bool progress = false;
  // Watermarks are cumulative, so if retention somehow overran the
  // cursor (the publisher creates the topic unbounded, but an operator
  // may pre-create it tighter), skipping to the retained suffix loses
  // nothing.
  auto wm_msgs = watermark_->Poll();
  if (!wm_msgs.ok()) {
    watermark_->SeekToFirst();
    wm_msgs = watermark_->Poll();
  }
  for (const auto& msg : wm_msgs.value_or({})) {
    auto wm = mq::DecodeRecordWatermark(msg->value);
    if (!wm.ok()) continue;
    if (wm->published_through > watermark_seq_) {
      watermark_seq_ = wm->published_through;
      progress = true;
    }
    if (wm->closed && !closed_) {
      closed_ = true;
      progress = true;
    }
  }
  DiscoverTopics();
  // Every topic is polled every round — even one whose pending head is
  // still above the watermark. Skipping it would park its pin, which
  // holds the publisher's governor leases, which blocks the very flush
  // whose watermark would make that head emittable: deadlock. Polling
  // unconditionally keeps pins current; pending stays bounded because
  // the log itself is bounded (retention high-watermark or the
  // publisher's governor budget).
  for (auto& t : topics_) {
    auto msgs = t.consumer.Poll(0, options_.poll_max_bytes);
    if (!msgs.ok()) {
      // Truncated: retention overran this cursor (it was created before
      // the pin, or re-seeked below the low-watermark). Surfaced, not
      // papered over — a silent gap would break the identity guarantee.
      status_ = msgs.status();
      return progress;
    }
    for (const auto& m : *msgs) {
      if (Status st = mq::DecodeRecordBatchInto(m->value, scratch_);
          !st.ok()) {
        status_ = st;
        return progress;
      }
      for (auto& pr : scratch_.records) {
        if (pr.seq < options_.from_seq) continue;
        t.pending.push_back(std::move(pr));
        progress = true;
      }
    }
    // Everything below the cursor is now re-materialized in `pending`;
    // let retention have it (which fires evictions, which releases the
    // publisher's governor leases).
    t.pin.Advance(t.consumer.position());
  }
  return progress;
}

std::optional<core::Record> RecordSubscriber::NextRecord() {
  if (!status_.ok()) return std::nullopt;
  size_t idle_polls = 0;
  for (;;) {
    if (options_.cancel && options_.cancel()) return std::nullopt;
    // Read before polling: a publish after this point wakes the wait
    // below even if it lands before the wait starts.
    const uint64_t seen = options_.cluster->publishes();
    const bool progress = PollOnce();
    if (!status_.ok()) return std::nullopt;
    // Emit loop: the smallest pending seq, once the watermark (or the
    // close) proves no smaller seq can still arrive on a quiet topic.
    for (;;) {
      Topic* best = nullptr;
      for (auto& t : topics_) {
        if (t.pending.empty()) continue;
        if (!best || t.pending.front().seq < best->pending.front().seq)
          best = &t;
      }
      if (!best) break;
      if (best->pending.front().seq >= watermark_seq_ && !closed_) break;
      mq::PublishedRecord pr = std::move(best->pending.front());
      best->pending.pop_front();
      next_seq_ = pr.seq + 1;
      if (!options_.filters.MatchesRecord(pr.record)) continue;
      return std::move(pr.record);
    }
    if (closed_) {
      // The final watermark covers every published seq, so the emit
      // loop above drains everything; nothing pending means the end.
      return std::nullopt;
    }
    if (progress) {
      idle_polls = 0;
      continue;
    }
    ++idle_polls;
    if (options_.max_consecutive_polls &&
        idle_polls >= options_.max_consecutive_polls)
      return std::nullopt;
    if (options_.poll_wait) {
      options_.poll_wait();
    } else {
      // Bounded so cancel and max_consecutive_polls are still checked.
      options_.cluster->WaitForPublish(seen, std::chrono::milliseconds(2));
    }
  }
}

std::vector<core::Elem> RecordSubscriber::Elems(core::Record& record) const {
  // Mirror of BgpStream::Elems on the worker-extraction path: move the
  // cached elems out, except here they arrive unfiltered off the wire,
  // so this subscriber's elem filters apply now — same predicate, same
  // order, same output as the direct stream.
  std::vector<core::Elem> elems;
  if (record.prefetched_elems.has_value()) {
    elems = std::move(*record.prefetched_elems);
    record.prefetched_elems.reset();
  }
  options_.filters.FilterElemsInPlace(elems);
  return elems;
}

}  // namespace bgps::pool
