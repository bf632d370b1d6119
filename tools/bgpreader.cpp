// bgpreader — command-line BGP dump reader (paper §4.1).
//
// The drop-in bgpdump replacement: reads a local archive through the
// Broker (or a single MRT file), applies meta/data filters, and prints
// elems as ASCII. The paper's example
//     bgpreader -w 1463011200 -t updates -k 192.0.0.0/8
// becomes
//     bgpreader -d <archive> -w 1463011200 -t updates -k 192.0.0.0/8
// (the data source is a directory here instead of the hosted broker; an
// omitted window end means live mode, §3.3.1).
//
// --pool-threads routes the stream through a bgps::StreamPool — the
// same shared decode runtime a multi-tenant service would use — instead
// of a private synchronous pipeline; --pool-budget / --pool-weight /
// --pool-deadline / --pool-stats-interval / --pool-stats-json /
// --pool-stats-file tune and introspect it (and require --pool-threads:
// they have no meaning without the pool).
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "core/stream.hpp"
#include "pool/stream_pool.hpp"
#include "reader/ascii.hpp"

using namespace bgps;

namespace {

void Usage() {
  // fputs, not fprintf: the usage text contains literal '%' characters
  // (AS-path patterns) that must not be interpreted as conversions.
  std::fputs(R"(usage: bgpreader -d ARCHIVE|-f FILE -w START[,END] [options]

data source (one required):
  -d DIR        archive root (RouteViews/RIS-style layout, via the Broker)
  -f FILE       single MRT dump file

stream definition:
  -w START[,END]  UNIX-time window; omit END for live mode
  -t TYPE         ribs | updates (repeatable)
  -P PROJECT      project filter (repeatable)
  -c COLLECTOR    collector filter (repeatable)

elem filters (repeatable):
  -k PREFIX       any-overlap prefix filter, e.g. 192.0.0.0/8
  -K MODE,PREFIX  prefix filter with mode exact|more|less|any
  -j ASN          peer ASN filter
  -y COMM         community filter, e.g. 65535:666 or *:666
  -A PATTERN      AS-path pattern, e.g. '% 3356 %' or '^65001 % 15169$'
  -i 4|6          IP version
  -e TYPE         elemtype: ribs|announcements|withdrawals|peerstates

performance (shared decode runtime; all but --pool-threads require it):
  --pool-threads N         decode through a StreamPool with N shared
                           workers (the multi-tenant runtime; implies
                           prefetching)
  --pool-budget N          global cap on records buffered in RAM by
                           chunked decode (default 4096)
  --pool-weight N          scheduling weight of this stream's tenant
                           queue (default 1; higher = more decode tasks
                           per dispatch visit)
  --pool-deadline          join the deadline class of this weight:
                           decode tasks dispatch earliest-enqueued-first
                           across same-weight deadline tenants (live
                           monitors; output is identical either way)
  --pool-stats-interval S  dump a StreamPool stats snapshot to stderr
                           every S seconds (fractions allowed) and once
                           at the end
  --pool-stats-json        emit stats snapshots as one JSON object per
                           line (machine-scrapable) instead of the
                           human-readable [pool] lines; also dumps a
                           final snapshot even without an interval
  --pool-stats-file PATH   write the stats snapshots to PATH (always the
                           one-JSON-object-per-line form) instead of
                           stderr, so snapshots never interleave with
                           diagnostics; also dumps a final snapshot even
                           without an interval

output:
  -m              bgpdump -m compatible output
  -r              also print one line per record
  -n N            stop after N elems
)",
             stderr);
}

// Minimal JSON string escaping (quotes, backslashes, control chars) for
// tenant names in the --pool-stats-json output.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
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

// One stats snapshot to `out` (stderr, or the --pool-stats-file sink):
// human-readable lines prefixed "[pool]", or (json) exactly one JSON
// object per snapshot on one line — the machine-scrapable form
// documented in docs/OPERATIONS.md. Flushed per snapshot so a live
// scraper tailing the file sees whole lines promptly.
void DumpPoolStats(const StreamPool& pool, bool json, std::FILE* out) {
  StreamPool::Snapshot snap = pool.Stats();
  if (json) {
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
      buf += ",\"weight\":" + std::to_string(t.weight);
      buf += std::string(",\"deadline\":") + (t.deadline ? "true" : "false");
      buf += ",\"queue_depth\":" + std::to_string(t.stats.queue_depth);
      buf += ",\"tasks_executed\":" + std::to_string(t.stats.tasks_executed);
      buf += ",\"files_decoded\":" + std::to_string(t.stats.files_decoded);
      buf +=
          ",\"records_buffered\":" + std::to_string(t.stats.records_buffered);
      buf += ",\"records_emitted\":" + std::to_string(t.stats.records_emitted);
      buf += ",\"reclaims\":" + std::to_string(t.stats.reclaims) + "}";
    }
    buf += "]}\n";
    std::fputs(buf.c_str(), out);
    std::fflush(out);
    return;
  }
  std::fprintf(out,
               "[pool] executor threads=%zu tasks_run=%zu rounds=%zu | "
               "governor in_use=%zu/%zu max=%zu waiting=%zu | streams=%zu\n",
               snap.executor.threads, snap.executor.tasks_run,
               snap.executor.dispatch_rounds, snap.governor.in_use,
               snap.governor.capacity, snap.governor.max_in_use,
               snap.governor.waiting, snap.streams_created);
  for (const auto& t : snap.tenants) {
    std::fprintf(out,
                 "[pool]   tenant %s weight=%zu%s queue=%zu tasks=%zu "
                 "files=%zu buffered=%zu emitted=%zu reclaims=%zu\n",
                 t.name.c_str(), t.weight, t.deadline ? " deadline" : "",
                 t.stats.queue_depth, t.stats.tasks_executed,
                 t.stats.files_decoded, t.stats.records_buffered,
                 t.stats.records_emitted, t.stats.reclaims);
  }
  std::fflush(out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string archive, file;
  std::vector<std::pair<std::string, std::string>> filters;
  reader::BgpReaderOptions out_options;
  bool have_window = false;
  Timestamp start = 0, end = kLiveEnd;
  size_t pool_threads = 0, pool_budget = 0, pool_weight = 0;
  bool pool_deadline = false, pool_stats_json = false;
  double pool_stats_interval = 0.0;
  std::string pool_stats_file;

  auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "bgpreader: %s\n", msg.c_str());
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
    } else if (arg == "-f") {
      const char* v = need_value();
      if (!v) return fail("-f needs a file");
      file = v;
    } else if (arg == "-w") {
      const char* v = need_value();
      if (!v) return fail("-w needs START[,END]");
      char* rest = nullptr;
      start = std::strtoll(v, &rest, 10);
      if (rest && *rest == ',') {
        end = std::strtoll(rest + 1, nullptr, 10);
      }
      have_window = true;
    } else if (arg == "-t") {
      const char* v = need_value();
      if (!v) return fail("-t needs a type");
      filters.emplace_back("type", v);
    } else if (arg == "-P") {
      const char* v = need_value();
      if (!v) return fail("-P needs a project");
      filters.emplace_back("project", v);
    } else if (arg == "-c") {
      const char* v = need_value();
      if (!v) return fail("-c needs a collector");
      filters.emplace_back("collector", v);
    } else if (arg == "-k") {
      const char* v = need_value();
      if (!v) return fail("-k needs a prefix");
      filters.emplace_back("prefix", std::string("any ") + v);
    } else if (arg == "-K") {
      const char* v = need_value();
      if (!v) return fail("-K needs MODE,PREFIX");
      std::string s = v;
      size_t comma = s.find(',');
      if (comma == std::string::npos) return fail("-K needs MODE,PREFIX");
      filters.emplace_back("prefix",
                           s.substr(0, comma) + " " + s.substr(comma + 1));
    } else if (arg == "-j") {
      const char* v = need_value();
      if (!v) return fail("-j needs an ASN");
      filters.emplace_back("peer", v);
    } else if (arg == "-y") {
      const char* v = need_value();
      if (!v) return fail("-y needs a community");
      filters.emplace_back("community", v);
    } else if (arg == "-A") {
      const char* v = need_value();
      if (!v) return fail("-A needs a pattern");
      filters.emplace_back("aspath", v);
    } else if (arg == "-i") {
      const char* v = need_value();
      if (!v) return fail("-i needs 4 or 6");
      filters.emplace_back("ipversion", v);
    } else if (arg == "-e") {
      const char* v = need_value();
      if (!v) return fail("-e needs an elemtype");
      filters.emplace_back("elemtype", v);
    } else if (arg == "--pool-threads") {
      const char* v = need_value();
      if (!v) return fail("--pool-threads needs a count");
      pool_threads = size_t(std::strtoull(v, nullptr, 10));
      if (pool_threads == 0) return fail("--pool-threads must be > 0");
    } else if (arg == "--pool-budget") {
      const char* v = need_value();
      if (!v) return fail("--pool-budget needs a record count");
      pool_budget = size_t(std::strtoull(v, nullptr, 10));
      if (pool_budget == 0) return fail("--pool-budget must be > 0");
    } else if (arg == "--pool-weight") {
      const char* v = need_value();
      if (!v) return fail("--pool-weight needs a weight");
      pool_weight = size_t(std::strtoull(v, nullptr, 10));
      if (pool_weight == 0) return fail("--pool-weight must be >= 1");
    } else if (arg == "--pool-deadline") {
      pool_deadline = true;
    } else if (arg == "--pool-stats-json") {
      pool_stats_json = true;
    } else if (arg == "--pool-stats-file") {
      const char* v = need_value();
      if (!v) return fail("--pool-stats-file needs a path");
      pool_stats_file = v;
    } else if (arg == "--pool-stats-interval") {
      const char* v = need_value();
      if (!v) return fail("--pool-stats-interval needs seconds");
      pool_stats_interval = std::strtod(v, nullptr);
      if (pool_stats_interval <= 0.0)
        return fail("--pool-stats-interval must be > 0 seconds");
    } else if (arg == "-m") {
      out_options.format = reader::OutputFormat::Bgpdump;
    } else if (arg == "-r") {
      out_options.show_records = true;
    } else if (arg == "-n") {
      const char* v = need_value();
      if (!v) return fail("-n needs a count");
      out_options.max_elems = size_t(std::strtoull(v, nullptr, 10));
    } else if (arg == "-h" || arg == "--help") {
      Usage();
      return 0;
    } else {
      return fail("unknown option " + arg);
    }
  }

  // The pool tuning/introspection flags are meaningless without the
  // shared decode runtime — fail loudly rather than silently running a
  // private pipeline the flags never touch.
  if (pool_threads == 0) {
    if (pool_budget > 0)
      return fail("--pool-budget requires --pool-threads (the shared "
                  "decode runtime is enabled by --pool-threads N)");
    if (pool_weight > 0)
      return fail("--pool-weight requires --pool-threads (the shared "
                  "decode runtime is enabled by --pool-threads N)");
    if (pool_deadline)
      return fail("--pool-deadline requires --pool-threads (the shared "
                  "decode runtime is enabled by --pool-threads N)");
    if (pool_stats_interval > 0.0)
      return fail("--pool-stats-interval requires --pool-threads (the "
                  "shared decode runtime is enabled by --pool-threads N)");
    if (pool_stats_json)
      return fail("--pool-stats-json requires --pool-threads (the shared "
                  "decode runtime is enabled by --pool-threads N)");
    if (!pool_stats_file.empty())
      return fail("--pool-stats-file requires --pool-threads (the shared "
                  "decode runtime is enabled by --pool-threads N)");
  }

  if (archive.empty() == file.empty())
    return fail("exactly one of -d / -f is required");
  if (!have_window && file.empty()) return fail("-w is required with -d");

  // The shared decode runtime: --pool-threads routes the stream through
  // a StreamPool (budget default 4096, weight default 1).
  std::unique_ptr<StreamPool> pool;
  std::unique_ptr<core::BgpStream> stream;
  if (pool_threads > 0) {
    StreamPool::Options popt;
    popt.threads = pool_threads;
    if (pool_budget > 0) popt.record_budget = pool_budget;
    auto created = StreamPool::Create(popt);
    if (!created.ok()) return fail(created.status().ToString());
    pool = std::move(*created);
    StreamPool::TenantOptions topt;
    topt.weight = pool_weight > 0 ? pool_weight : 1;
    topt.deadline = pool_deadline;
    topt.name = "cli";
    stream = pool->CreateStream({}, std::move(topt));
  } else {
    stream = std::make_unique<core::BgpStream>();
  }

  for (const auto& [key, value] : filters) {
    if (Status st = stream->AddFilter(key, value); !st.ok())
      return fail(st.ToString());
  }

  std::unique_ptr<broker::Broker> broker;
  std::unique_ptr<core::DataInterface> di;
  if (!archive.empty()) {
    broker = std::make_unique<broker::Broker>(archive);
    di = std::make_unique<core::BrokerDataInterface>(broker.get());
    stream->SetInterval(start, end);
  } else {
    di = std::make_unique<core::SingleFileInterface>(file,
                                                     core::DumpType::Updates);
    if (have_window) {
      stream->SetInterval(start, end == kLiveEnd ? 4102444800 : end);
    } else {
      stream->SetInterval(0, 4102444800);
    }
  }
  stream->SetDataInterface(di.get());
  if (Status st = stream->Start(); !st.ok()) return fail(st.ToString());

  // Stats sink: stderr by default; --pool-stats-file redirects the
  // snapshots (always JSON there) to their own stream, so a scraper
  // never has to pick JSON lines out of interleaved diagnostics.
  std::FILE* stats_file = nullptr;
  if (!pool_stats_file.empty()) {
    stats_file = std::fopen(pool_stats_file.c_str(), "w");
    if (!stats_file)
      return fail("cannot open --pool-stats-file " + pool_stats_file);
  }
  std::FILE* stats_out = stats_file ? stats_file : stderr;
  bool stats_json = pool_stats_json || stats_file != nullptr;

  // Periodic introspection dump while the stream runs.
  std::thread stats_thread;
  std::mutex stats_mu;
  std::condition_variable stats_cv;
  bool stats_done = false;
  if (pool && pool_stats_interval > 0.0) {
    auto interval = std::chrono::duration<double>(pool_stats_interval);
    // `interval` by value: it goes out of scope before the thread ends.
    stats_thread = std::thread([&, interval] {
      std::unique_lock<std::mutex> lock(stats_mu);
      while (!stats_cv.wait_for(lock, interval, [&] { return stats_done; })) {
        DumpPoolStats(*pool, stats_json, stats_out);
      }
    });
  }

  size_t printed = reader::RunBgpReader(*stream, std::cout, out_options);

  if (stats_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(stats_mu);
      stats_done = true;
    }
    stats_cv.notify_all();
    stats_thread.join();
    // final snapshot after the drain
    DumpPoolStats(*pool, stats_json, stats_out);
  } else if (pool && (pool_stats_json || stats_file)) {
    // JSON sink without an interval: one final snapshot, so a scraper
    // always gets at least one object per run.
    DumpPoolStats(*pool, stats_json, stats_out);
  }
  if (stats_file) std::fclose(stats_file);

  if (!stream->status().ok()) {
    std::fprintf(stderr, "bgpreader: stream error: %s\n",
                 stream->status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "bgpreader: %zu elems from %zu records\n", printed,
               stream->records_emitted());
  return 0;
}
