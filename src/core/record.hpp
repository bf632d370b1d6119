// BGPStream record: a de-serialized MRT record plus provenance annotations
// and an error flag (paper §3.3.3).
#pragma once

#include <memory>
#include <optional>

#include "broker/archive.hpp"
#include "core/elem.hpp"
#include "mrt/mrt.hpp"
#include "util/interned_string.hpp"

namespace bgps::core {

using broker::DumpType;

enum class RecordStatus : uint8_t {
  Valid,           // body decoded
  CorruptedDump,   // the dump file could not be opened / framing broke
  CorruptedRecord, // this record's body is malformed
  Unsupported,     // valid framing, unimplemented type/subtype
};

const char* RecordStatusName(RecordStatus s);

// Marks records that begin or end a dump file so users can collate the
// records of a single RIB dump (paper §3.3.3).
enum class DumpPosition : uint8_t { Start, Middle, End };

const char* DumpPositionName(DumpPosition p);

struct Record {
  // Provenance annotations. Interned: each distinct project/collector
  // name is stored once per process, so stamping (and copying) them per
  // record is a pointer copy, never a heap allocation. They convert
  // implicitly to const std::string&.
  InternedString project;
  InternedString collector;
  DumpType dump_type = DumpType::Updates;
  Timestamp dump_time = 0;  // nominal start of the originating dump file

  RecordStatus status = RecordStatus::Valid;
  DumpPosition position = DumpPosition::Middle;

  // Timestamp of the MRT record (header value even for corrupt bodies;
  // dump_time when framing broke before a header was read).
  Timestamp timestamp = 0;

  // Decoded body; meaningful only when status == Valid.
  mrt::MrtMessage msg;

  // Peer index table of the originating TABLE_DUMP_V2 file, shared by all
  // RIB records of that dump; needed to resolve (peer index -> VP).
  std::shared_ptr<const mrt::PeerIndexTable> peer_index;

  // Elems extracted (and elem-filtered) ahead of time on a prefetch worker
  // thread (Options::extract_elems_in_workers). nullopt = not extracted;
  // an engaged empty vector means extraction ran and every elem was
  // filtered out. BgpStream::Elems moves the contents out.
  std::optional<std::vector<Elem>> prefetched_elems;
};

}  // namespace bgps::core
