#include "core/dump_reader.hpp"

namespace bgps::core {

DumpReader::DumpReader(broker::DumpFileMeta meta) : meta_(std::move(meta)) {
  // Intern once per dump: every record then stamps provenance with a
  // pointer copy instead of a per-record string copy.
  project_ = meta_.project;
  collector_ = meta_.collector;
  Status st = reader_.Open(meta_.path);
  if (!st.ok()) open_failed_ = true;
}

DumpReader::DumpReader(broker::DumpFileMeta meta, const Checkpoint& resume)
    : meta_(std::move(meta)) {
  project_ = meta_.project;
  collector_ = meta_.collector;
  // Precondition: resume.valid (see the header). The sole caller —
  // FillChunked's reclaim resume — branches to the plain constructor
  // plus Skip() itself for checkpoints with no byte position.
  // O(1): land directly on the checkpointed frame. The records in
  // front of it are never read again.
  Status st = reader_.Open(meta_.path, resume.byte_offset);
  if (!st.ok()) {
    if (resume.index > 0) {
      // The dump vanished mid-stream (archive rotation): end silently,
      // matching the Skip-fallback path (skipped < consumed ⇒
      // exhausted) instead of injecting a CorruptedDump record into a
      // sequence whose open already succeeded once.
      done_ = true;
    } else {
      open_failed_ = true;  // nothing consumed yet: behave like a fresh open
    }
  }
  peer_index_ = resume.peer_index;
  produced_ = resume.index;
  started_ = resume.index > 0;
}

Record& DumpReader::NewRecord() {
  Record& rec = lookahead_.emplace();
  rec.project = project_;
  rec.collector = collector_;
  rec.dump_type = meta_.type;
  rec.dump_time = meta_.start;
  rec.timestamp = meta_.start;
  return rec;
}

void DumpReader::Produce() {
  // Capture the record's resume point before framing moves the file
  // position: its byte offset, index, and the peer-index table in
  // effect before it (re-producing a PEER_INDEX_TABLE record from its
  // own checkpoint simply re-ingests the same table).
  lookahead_cp_ = {/*valid=*/!open_failed_, reader_.offset(), produced_,
                   peer_index_};
  lookahead_.reset();
  if (open_failed_) {
    if (emitted_open_failure_) return;
    emitted_open_failure_ = true;
    ++produced_;
    NewRecord().status = RecordStatus::CorruptedDump;
    return;
  }
  auto raw = reader_.Next();
  if (!raw.ok()) {
    if (raw.status().code() == StatusCode::EndOfStream) return;
    // Framing broke: emit one CorruptedDump record; reader will then report
    // EndOfStream (no resync possible in MRT).
    ++produced_;
    NewRecord().status = RecordStatus::CorruptedDump;
    return;
  }

  ++produced_;
  Record& rec = NewRecord();
  rec.timestamp = raw->timestamp;
  // Decode straight into the record. A failed decode leaves a partly
  // filled body behind; a failed record carries a default `msg`.
  Status st = mrt::DecodeRecordInto(*raw, &rec.msg);
  if (!st.ok()) {
    rec.status = st.code() == StatusCode::Unsupported
                     ? RecordStatus::Unsupported
                     : RecordStatus::CorruptedRecord;
    rec.msg = mrt::MrtMessage();
    return;
  }
  if (rec.msg.is_peer_index()) {
    peer_index_ = std::make_shared<mrt::PeerIndexTable>(
        std::get<mrt::PeerIndexTable>(rec.msg.body));
  }
  rec.peer_index = peer_index_;
}

std::optional<Timestamp> DumpReader::PeekTimestamp() {
  if (done_) return std::nullopt;
  if (!lookahead_) {
    Produce();
    if (!lookahead_) {
      done_ = true;
      return std::nullopt;
    }
  }
  return lookahead_->timestamp;
}

size_t DumpReader::Skip(size_t n) {
  size_t skipped = 0;
  while (skipped < n && !done_) {
    if (lookahead_) {
      lookahead_.reset();
      started_ = true;
      ++skipped;
      continue;
    }
    // Mirror Produce()'s record cadence without the BGP decode.
    if (open_failed_) {
      if (emitted_open_failure_) {
        done_ = true;
        break;
      }
      emitted_open_failure_ = true;  // the single CorruptedDump record
      started_ = true;
      ++produced_;
      ++skipped;
      continue;
    }
    auto raw = reader_.Next();
    if (!raw.ok()) {
      if (raw.status().code() == StatusCode::EndOfStream) {
        done_ = true;
        break;
      }
      started_ = true;  // the one CorruptedDump record framing yields
      ++produced_;
      ++skipped;
      continue;
    }
    if (raw->type == uint16_t(mrt::MrtType::TableDumpV2) &&
        raw->subtype == uint16_t(mrt::TableDumpV2Subtype::PeerIndexTable)) {
      // RIB records after the skip still need the table to decompose.
      auto msg = mrt::DecodeRecord(*raw);
      if (msg.ok() && msg->is_peer_index()) {
        peer_index_ = std::make_shared<mrt::PeerIndexTable>(
            std::get<mrt::PeerIndexTable>(msg->body));
      }
    }
    started_ = true;
    ++produced_;
    ++skipped;
  }
  return skipped;
}

std::optional<Record> DumpReader::Next() {
  if (done_) return std::nullopt;
  if (!lookahead_) {
    Produce();
    if (!lookahead_) {
      done_ = true;
      return std::nullopt;
    }
  }
  // The record was decoded in place in the lookahead slot; this is its
  // one move on the way out.
  std::optional<Record> out = std::move(lookahead_);
  last_cp_ = lookahead_cp_;  // before Produce overwrites it
  Produce();
  if (!started_) {
    out->position = DumpPosition::Start;
    started_ = true;
  }
  if (!lookahead_) {
    done_ = true;
    // A single-record dump is both Start and End; End wins so users can
    // still collate RIB dumps (the RT plugin keys on End to commit).
    out->position = DumpPosition::End;
  }
  return out;
}

void AttachPrefetchedElems(Record& rec, const DumpDecodeOptions& opt) {
  if (!opt.extract_elems) return;
  // Records the record-level filters will drop never reach Elems();
  // don't pay for their decomposition.
  if (opt.filters != nullptr && !opt.filters->MatchesRecord(rec)) return;
  std::vector<Elem> elems;
  if (opt.filters != nullptr) {
    ExtractFilteredElemsInto(rec, *opt.filters, elems);
  } else {
    ExtractElemsInto(rec, elems);
  }
  rec.prefetched_elems = std::move(elems);
}

DecodedDump DecodeDumpFile(const broker::DumpFileMeta& meta,
                           const DumpDecodeOptions& opt) {
  if (opt.file_open_hook) opt.file_open_hook(meta);
  DecodedDump out;
  out.meta = meta;
  DumpReader reader(meta);
  while (auto rec = reader.Next()) {
    AttachPrefetchedElems(*rec, opt);
    out.records.push_back(std::move(*rec));
  }
  return out;
}

}  // namespace bgps::core
