// bgplive — live ingestion driver (paper §7: OpenBMP / exabgp feeds).
//
// Replays an MRT archive (typically a bgpsim corpus) as a live BMP or
// exabgp session at an accelerated clock, ingests the wire traffic
// through a pool::LiveSource, and consumes the resulting record stream
// as a StreamPool deadline tenant — the full live path, end to end, in
// one process:
//     bgpsim generate -d /tmp/corpus --scenario mixed
//     bgplive -d /tmp/corpus --speedup 256
// Every record the tenant emits is byte-identical to decoding the
// archive directly; the live tier only changes *when* data arrives.
// Periodic StreamPool snapshots (one JSON object per line, same section
// names as bgpreader --pool-stats-json) go to stderr with --stats-interval.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "core/clock.hpp"
#include "pool/live_source.hpp"
#include "pool/stream_pool.hpp"
#include "sim/replay.hpp"

using namespace bgps;

namespace {

void Usage() {
  std::fputs(R"(usage: bgplive -d DIR [options]

source:
  -d DIR          MRT archive root to replay as a live session

replay:
  --format F      wire format: bmp (RFC 7854 frames) or exabgp
                  (v4 JSON lines) (default bmp)
  --speedup N     virtual seconds per wall second (default 64)
  --max-records N stop after N replayed messages (default 0 = all)
  --chunk-bytes N deliver BMP frames in N-byte chunks to exercise
                  partial-frame reassembly (default 0 = whole frames)

live source:
  --spool DIR     micro-dump spool directory
                  (default: <archive>/.bgplive-spool)
  --flush-records N
                  records per published micro-dump (default 64)

tenant:
  --threads N     pool decode worker threads (default 2)
  --budget N      shared record budget; the replay parks when the
                  ledger is full — live backpressure (default 4096)

output:
  --quiet         suppress per-record lines (summary only)
  --stats-interval S
                  seconds between pool stats JSON snapshots on stderr
                  (default 0 = off)
)",
             stderr);
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Same shape as bgpreader --pool-stats-json / bgpfanout's stats topic,
// so one scraper handles all three front ends.
std::string SnapshotJson(const StreamPool::Snapshot& snap) {
  std::string buf;
  buf += "{\"executor\":{\"threads\":" +
         std::to_string(snap.executor.threads) +
         ",\"tasks_run\":" + std::to_string(snap.executor.tasks_run) +
         ",\"dispatch_rounds\":" +
         std::to_string(snap.executor.dispatch_rounds) +
         ",\"tenants\":" + std::to_string(snap.executor.tenants) + "}";
  buf += ",\"governor\":{\"capacity\":" +
         std::to_string(snap.governor.capacity) +
         ",\"in_use\":" + std::to_string(snap.governor.in_use) +
         ",\"max_in_use\":" + std::to_string(snap.governor.max_in_use) +
         ",\"waiting\":" + std::to_string(snap.governor.waiting) + "}";
  buf += ",\"streams_created\":" + std::to_string(snap.streams_created);
  buf += ",\"tenants\":[";
  for (size_t i = 0; i < snap.tenants.size(); ++i) {
    const auto& t = snap.tenants[i];
    if (i > 0) buf += ",";
    buf += "{\"name\":\"" + JsonEscape(t.name) + "\"";
    buf += ",\"records_emitted\":" +
           std::to_string(t.stats.records_emitted);
    buf += ",\"records_buffered\":" +
           std::to_string(t.stats.records_buffered);
    buf += ",\"files_decoded\":" + std::to_string(t.stats.files_decoded) +
           "}";
  }
  buf += "]}";
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string archive;
  std::string spool;
  sim::ReplayFormat format = sim::ReplayFormat::Bmp;
  double speedup = 64.0;
  size_t max_records = 0;
  size_t chunk_bytes = 0;
  size_t flush_records = 64;
  size_t threads = 2;
  size_t budget = 4096;
  bool quiet = false;
  long long stats_interval = 0;

  auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "bgplive: %s\n", msg.c_str());
    Usage();
    return 1;
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "-d") {
      const char* v = need_value();
      if (!v) return fail("-d needs a directory");
      archive = v;
    } else if (arg == "--format") {
      const char* v = need_value();
      if (!v) return fail("--format needs bmp or exabgp");
      if (std::strcmp(v, "bmp") == 0) {
        format = sim::ReplayFormat::Bmp;
      } else if (std::strcmp(v, "exabgp") == 0) {
        format = sim::ReplayFormat::ExaBgp;
      } else {
        return fail("--format must be bmp or exabgp");
      }
    } else if (arg == "--speedup") {
      const char* v = need_value();
      if (!v) return fail("--speedup needs a factor");
      speedup = std::strtod(v, nullptr);
      if (speedup <= 0) return fail("--speedup must be > 0");
    } else if (arg == "--max-records") {
      const char* v = need_value();
      if (!v) return fail("--max-records needs a count");
      max_records = std::strtoull(v, nullptr, 10);
    } else if (arg == "--chunk-bytes") {
      const char* v = need_value();
      if (!v) return fail("--chunk-bytes needs a byte count");
      chunk_bytes = std::strtoull(v, nullptr, 10);
    } else if (arg == "--spool") {
      const char* v = need_value();
      if (!v) return fail("--spool needs a directory");
      spool = v;
    } else if (arg == "--flush-records") {
      const char* v = need_value();
      if (!v) return fail("--flush-records needs a count");
      flush_records = std::strtoull(v, nullptr, 10);
      if (flush_records == 0) return fail("--flush-records must be > 0");
    } else if (arg == "--threads") {
      const char* v = need_value();
      if (!v) return fail("--threads needs a count");
      threads = std::strtoull(v, nullptr, 10);
      if (threads == 0) return fail("--threads must be > 0");
    } else if (arg == "--budget") {
      const char* v = need_value();
      if (!v) return fail("--budget needs a record count");
      budget = std::strtoull(v, nullptr, 10);
      if (budget == 0) return fail("--budget must be > 0");
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--stats-interval") {
      const char* v = need_value();
      if (!v) return fail("--stats-interval needs seconds");
      stats_interval = std::strtoll(v, nullptr, 10);
      if (stats_interval < 0) return fail("--stats-interval must be >= 0");
    } else if (arg == "-h" || arg == "--help") {
      Usage();
      return 0;
    } else {
      return fail("unknown option " + arg);
    }
  }

  if (archive.empty()) return fail("-d is required");
  if (spool.empty()) spool = archive + "/.bgplive-spool";

  auto pool = StreamPool::Create(
      {.threads = threads, .record_budget = budget});
  if (!pool.ok()) return fail(pool.status().ToString());

  pool::LiveSource::Options sopt;
  sopt.spool_dir = spool;
  sopt.flush_records = flush_records;
  sopt.governor = (*pool)->governor();
  sopt.executor = (*pool)->executor();
  auto source = pool::LiveSource::Create(std::move(sopt));
  if (!source.ok()) return fail(source.status().ToString());

  // The live tenant: a deadline-class stream that wakes whenever the
  // source publishes a micro-dump to the feed.
  StreamPool::TenantOptions tenant;
  tenant.weight = 4;
  tenant.deadline = true;
  tenant.name = "live";
  auto stream = (*pool)->CreateStream({}, tenant);
  stream->SetLive(0);
  stream->SetDataInterface((*source)->feed());
  if (Status st = stream->Start(); !st.ok()) return fail(st.ToString());

  // Session-reader thread: replay the archive as wire traffic into the
  // source. Backpressure (a full governor) blocks the Ingest call,
  // which pauses the replay — exactly what a TCP socket would do.
  Status replay_status = OkStatus();
  sim::ReplayStats replay_stats;
  std::thread session([&] {
    sim::ReplayOptions ropt;
    ropt.archive_root = archive;
    ropt.format = format;
    ropt.speedup = speedup;
    ropt.max_records = max_records;
    auto result = sim::ReplayArchive(
        ropt, [&](Timestamp, const Bytes& payload) -> Status {
          if (format == sim::ReplayFormat::Bmp) {
            if (chunk_bytes == 0) return (*source)->IngestBmp(payload);
            for (size_t off = 0; off < payload.size(); off += chunk_bytes) {
              size_t n = std::min(chunk_bytes, payload.size() - off);
              BGPS_RETURN_IF_ERROR((*source)->IngestBmp(
                  std::span<const uint8_t>(payload.data() + off, n)));
            }
            return OkStatus();
          }
          return (*source)->IngestExaBgpLine(
              std::string(payload.begin(), payload.end()));
        });
    if (result.ok()) {
      replay_stats = *result;
    } else {
      replay_status = result.status();
    }
    if (Status st = (*source)->Close(); !st.ok() && replay_status.ok())
      replay_status = st;
  });

  // Optional stats ticker, one JSON object per line on stderr.
  std::atomic<bool> done{false};
  std::thread ticker;
  if (stats_interval > 0) {
    ticker = std::thread([&] {
      long long tick = 0;
      while (!done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        if (++tick >= stats_interval * 5) {
          std::fprintf(stderr, "%s\n",
                       SnapshotJson((*pool)->Stats()).c_str());
          tick = 0;
        }
      }
    });
  }

  // Consumer loop: the live tenant's records, printed like a monitor.
  size_t records = 0, elems = 0;
  while (auto rec = stream->NextRecord()) {
    ++records;
    size_t n = stream->Elems(*rec).size();
    elems += n;
    if (!quiet)
      std::printf("%lld|%s|%s|%zu\n", (long long)rec->timestamp,
                  rec->project.c_str(), rec->collector.c_str(), n);
  }
  session.join();
  done.store(true);
  if (ticker.joinable()) ticker.join();

  if (!replay_status.ok())
    std::fprintf(stderr, "bgplive: replay failed: %s\n",
                 replay_status.ToString().c_str());
  if (!stream->status().ok())
    std::fprintf(stderr, "bgplive: stream failed: %s\n",
                 stream->status().ToString().c_str());

  auto sstats = (*source)->stats();
  std::fprintf(stderr,
               "bgplive: replayed %zu messages (%zu updates, %zu state "
               "changes, %zu skipped); ingested %zu, %zu corrupt, %zu "
               "parks; %zu micro-dumps; consumed %zu records / %zu "
               "elems\n",
               replay_stats.records_replayed, replay_stats.updates,
               replay_stats.state_changes, replay_stats.skipped,
               sstats.messages_decoded, sstats.corrupt_frames, sstats.parks,
               sstats.dumps_published, records, elems);
  return replay_status.ok() && stream->status().ok() ? 0 : 1;
}
