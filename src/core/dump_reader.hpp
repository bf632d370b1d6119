// DumpReader: streams annotated Records out of one dump file.
//
// Responsibilities (paper §3.3.3):
//  * track the PEER_INDEX_TABLE of a TABLE_DUMP_V2 file so RIB records can
//    be decomposed into per-VP elems;
//  * mark the first/last record of the dump (DumpPosition) via one-record
//    lookahead;
//  * convert framing/decoding failures into Corrupted*/Unsupported records
//    instead of errors.
#pragma once

#include <functional>
#include <memory>

#include "core/arena.hpp"
#include "core/filter.hpp"
#include "core/record.hpp"
#include "mrt/file.hpp"

namespace bgps::core {

// Invoked (on the decoding thread) just before a dump file is opened.
// Observability hook for stats/logging; the throughput bench also uses it
// to emulate remote-archive fetch latency, and tests use it to watch the
// prefetch stage work ahead of the consumer.
using FileOpenHook = std::function<void(const broker::DumpFileMeta&)>;

class DumpReader {
 public:
  // An O(1) resume point: everything needed to reconstruct a reader
  // positioned exactly before a given record — without re-reading (or
  // re-Skip()ping) the records in front of it. Captured per record via
  // last_checkpoint(); consumed by the resuming constructor below.
  // Idle-tenant reclaim stores the checkpoint of the first dropped
  // record so resume seeks instead of re-framing the consumed prefix.
  struct Checkpoint {
    // False when the record had no byte position (the synthesized
    // open-failure record); resume then falls back to Skip().
    bool valid = false;
    uint64_t byte_offset = 0;  // frame position of the record
    size_t index = 0;          // 0-based record index in the dump
    // Peer index table in effect *before* the record (RIB dumps); the
    // table is immutable once built, so sharing it is free.
    std::shared_ptr<const mrt::PeerIndexTable> peer_index;
  };

  // `meta` identifies the dump; opening failures yield a single
  // CorruptedDump record (the paper marks a record not-valid "when the BGP
  // dump file cannot be opened").
  explicit DumpReader(broker::DumpFileMeta meta);

  // Resumes at `resume` — precondition: `resume.valid` (callers handle
  // invalid checkpoints with the plain constructor + Skip()). Seeks
  // straight to the checkpointed frame, restores the peer-index table,
  // and continues producing record `resume.index` onward — the exact
  // sequence the original reader would have produced, Start/End
  // positions included.
  DumpReader(broker::DumpFileMeta meta, const Checkpoint& resume);

  const broker::DumpFileMeta& meta() const { return meta_; }

  // Timestamp of the next record without consuming it; nullopt at end.
  std::optional<Timestamp> PeekTimestamp();

  // Next record, or nullopt when the dump is exhausted.
  std::optional<Record> Next();

  // Skips the next `n` records without decoding their BGP payloads —
  // the resume path of idle-tenant reclaim, where the consumer already
  // saw them. Each raw framing unit counts as one record, exactly
  // Next()'s cadence (including the CorruptedDump / CorruptedRecord /
  // Unsupported and open-failure records), and PEER_INDEX_TABLE
  // records are still ingested so RIB decomposition after the skip
  // sees its table. Returns how many were skipped; < n means the dump
  // ended early.
  size_t Skip(size_t n);

  // Resume point of the record most recently returned by Next():
  // feeding it to the resuming constructor yields a reader that
  // re-produces that record and everything after it. Meaningless before
  // the first Next().
  const Checkpoint& last_checkpoint() const { return last_cp_; }

  // Raw frames read from the file so far — the resume path's read
  // accounting: a seek-resumed reader frames only what it produces,
  // a Skip-resumed one re-frames the whole consumed prefix.
  size_t frames_read() const { return reader_.records_read(); }

  // Peer index table seen in this file (RIB dumps), for elem extraction.
  const mrt::PeerIndexTable* peer_index() const { return peer_index_.get(); }

  // Per-dump AS-path intern cache stats (tests/benches: hit rate shows
  // how much path decode work the arena pipeline elides).
  const bgp::AsPathCache& aspath_cache() const { return aspath_cache_; }

 private:
  // Produces the next record from the file into `lookahead_`, decoding
  // in place; leaves it empty at the end of the dump.
  void Produce();
  // Replaces `lookahead_` with a fresh record stamped with provenance.
  Record& NewRecord();

  broker::DumpFileMeta meta_;
  mrt::MrtFileReader reader_;
  // Decode arena, the AS-path intern cache it backs, and the interned
  // provenance strings — all per dump, all freed together when the
  // reader (and therefore the dump) is done. Records never point into
  // the arena; they carry self-contained values (see core/arena.hpp).
  Arena arena_;
  bgp::AsPathCache aspath_cache_{&arena_};
  bgp::AttrDecodeCtx decode_ctx_{&aspath_cache_};
  InternedString project_;
  InternedString collector_;
  std::shared_ptr<const mrt::PeerIndexTable> peer_index_;
  std::optional<Record> lookahead_;
  Checkpoint lookahead_cp_;  // resume point of the lookahead record
  Checkpoint last_cp_;       // resume point of the last Next() record
  size_t produced_ = 0;      // records produced from the file so far
                             // (= the next record's 0-based index)
  bool started_ = false;
  bool done_ = false;
  bool open_failed_ = false;
  bool emitted_open_failure_ = false;
};

// One dump file fully decoded into memory: the output unit of the
// asynchronous prefetching decode stage. Records are in file order
// (timestamp-monotonic within a well-formed dump).
struct DecodedDump {
  broker::DumpFileMeta meta;
  std::vector<Record> records;
};

// How records are produced on a decoding thread — shared by the
// whole-file (DecodeDumpFile) and chunked (PrefetchDecoder) paths.
struct DumpDecodeOptions {
  // Invoked just before the dump file is opened.
  FileOpenHook file_open_hook;
  // Pre-extract elems on the decoding thread and stash them in
  // Record::prefetched_elems, so the consumer's Elems() call is a move.
  bool extract_elems = false;
  // Stream filters consulted during worker-side extraction (may be null
  // = keep all elems): records the record-level filters will discard
  // are skipped entirely, and the elem-level filters are applied to the
  // rest. Must outlive the decode and must not be mutated while
  // decoding runs; BgpStream guarantees both (filters are frozen at
  // Start()).
  const FilterSet* filters = nullptr;
};

// Flat elem arena for worker-side extraction: one per decode task (a
// whole-file decode or a chunked per-file stream). It primes each
// record's `prefetched_elems` vector with a capacity predicted from the
// decode-time elem counts seen so far in the same dump, so worker
// threads do one exact-size allocation per record instead of a
// growth-doubling sequence — cutting allocator traffic on the shared
// Executor. Not thread-safe: owned by the single task decoding a file.
class ElemArena {
 public:
  // An empty vector whose capacity is primed to the running mean elem
  // count (rounded up) of the records observed so far.
  std::vector<Elem> NewVector() {
    std::vector<Elem> v;
    if (records_ > 0) v.reserve((elems_ + records_ - 1) / records_);
    return v;
  }

  // Records the extraction (pre-filter) elem count of a filled vector —
  // the size the next reserve has to cover.
  void Note(size_t elems) {
    elems_ += elems;
    ++records_;
  }

 private:
  size_t elems_ = 0;
  size_t records_ = 0;
};

// Runs worker-side elem extraction + filtering on one record in place,
// per `opt`. No-op unless opt.extract_elems. `arena`, when given,
// primes and observes the per-record vector capacity.
void AttachPrefetchedElems(Record& rec, const DumpDecodeOptions& opt,
                           ElemArena* arena = nullptr);

// Opens and fully decodes `meta` (calling opt.file_open_hook first, if
// set). Produces exactly the record sequence a DumpReader would stream,
// including the Corrupted*/Unsupported records and Start/End positions.
DecodedDump DecodeDumpFile(const broker::DumpFileMeta& meta,
                           const DumpDecodeOptions& opt = {});

// Back-compat convenience overload (hook only).
DecodedDump DecodeDumpFile(const broker::DumpFileMeta& meta,
                           const FileOpenHook& hook);

}  // namespace bgps::core
