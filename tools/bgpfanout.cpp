// bgpfanout — record-plane fan-out daemon (paper §6.1 deployment).
//
// Runs the decode pipeline over an MRT archive exactly once — a
// StreamPool-vended stream with full elem extraction — publishes the
// records as batches into an embedded message-queue cluster, and
// serves any number of TCP subscribers from those logs:
//     bgpfanout -d /tmp/archive --listen 6447 --retain-messages 64
//     printf 'FILTER collector rrc00\nGO\n' | nc 127.0.0.1 6447
// Every subscriber replays/tails the same decoded stream with its own
// filters evaluated at fan-out, byte-identical to a direct bgpreader
// run with those filters — the cost of N consumers is N socket writes,
// not N MRT decodes. A periodic StreamPool stats snapshot is published
// to the "stats" topic (one JSON object per snapshot); clients fetch
// the latest with the STATS command.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "broker/broker.hpp"
#include "core/data_interface.hpp"
#include "pool/fanout_server.hpp"
#include "pool/record_fanout.hpp"
#include "pool/stream_pool.hpp"

using namespace bgps;

namespace {

void Usage() {
  std::fputs(R"(usage: bgpfanout -d DIR [options]

archive:
  -d DIR          MRT archive root, served through the embedded broker
  -w START,END    publish window in UNIX seconds (default: everything)

service:
  --listen PORT   TCP port to bind on 127.0.0.1 (default 0 = pick an
                  ephemeral port; the bound port is printed to stderr)
  --once          exit once the archive is fully published (default:
                  keep serving subscribers until SIGINT/SIGTERM)

decode:
  --threads N     decode worker threads (default 4)
  --budget N      record-budget ledger shared by decode buffers and,
                  with bounded retention, unconsumed published batches
                  (default 4096)

fan-out:
  --batch-records N
                  records per published batch (default 64; must be
                  <= --budget when retention is bounded)
  --retain-messages N
                  per-collector log retention, in batches; 0 keeps the
                  full history in memory (default 0)
  --retain-bytes N
                  per-collector log retention, in payload bytes
                  (default 0 = unbounded)
  --stats-interval S
                  seconds between pool stats snapshots on the "stats"
                  topic (default 5; 0 disables)

With bounded retention (--retain-messages / --retain-bytes) published
batches lease record slots from the shared --budget ledger until they
fall out of retention, so a subscriber that pins its replay cursor
backpressures publication instead of growing memory. With unbounded
retention the full decoded history is kept (and the ledger only governs
decode), so bound the window with -w.
)",
             stderr);
}

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int sig) { g_signal = sig; }

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

// One pool snapshot as a single-line JSON object — same section names
// as bgpreader --pool-stats-json, so one scraper handles both.
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
  Timestamp window_start = 0;
  Timestamp window_end = 4102444800;  // 2100-01-01: effectively everything
  uint16_t listen_port = 0;
  bool once = false;
  size_t threads = 4;
  size_t budget = 4096;
  size_t batch_records = 64;
  mq::RetentionOptions retention;
  long long stats_interval = 5;

  auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "bgpfanout: %s\n", msg.c_str());
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
    } else if (arg == "-w") {
      const char* v = need_value();
      if (!v) return fail("-w needs START,END");
      char* rest = nullptr;
      window_start = std::strtoll(v, &rest, 10);
      if (!rest || *rest != ',') return fail("-w needs START,END");
      window_end = std::strtoll(rest + 1, nullptr, 10);
      if (window_end <= window_start)
        return fail("-w window must have END > START");
    } else if (arg == "--listen") {
      const char* v = need_value();
      if (!v) return fail("--listen needs a port");
      long p = std::strtol(v, nullptr, 10);
      if (p < 0 || p > 65535) return fail("--listen port out of range");
      listen_port = uint16_t(p);
    } else if (arg == "--once") {
      once = true;
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
    } else if (arg == "--batch-records") {
      const char* v = need_value();
      if (!v) return fail("--batch-records needs a count");
      batch_records = std::strtoull(v, nullptr, 10);
      if (batch_records == 0) return fail("--batch-records must be > 0");
    } else if (arg == "--retain-messages") {
      const char* v = need_value();
      if (!v) return fail("--retain-messages needs a count");
      retention.max_messages = std::strtoull(v, nullptr, 10);
    } else if (arg == "--retain-bytes") {
      const char* v = need_value();
      if (!v) return fail("--retain-bytes needs a byte count");
      retention.max_bytes = std::strtoull(v, nullptr, 10);
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
  const bool bounded =
      retention.max_messages != 0 || retention.max_bytes != 0;
  if (bounded && batch_records > budget)
    return fail("--batch-records must be <= --budget "
                "(a batch leases one slot per record)");

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  auto pool = StreamPool::Create(
      {.threads = threads, .record_budget = budget});
  if (!pool.ok()) return fail(pool.status().ToString());

  mq::Cluster cluster;
  // Recent-snapshots-only topic: STATS fetches the newest entry.
  cluster.CreateTopic(mq::kStatsTopic, 1,
                      mq::RetentionOptions{/*max_messages=*/16, 0});

  pool::FanoutServer::Options fopt;
  fopt.cluster = &cluster;
  fopt.port = listen_port;
  pool::FanoutServer server(fopt);
  if (Status st = server.Start(); !st.ok())
    return fail(st.ToString());
  std::fprintf(stderr, "bgpfanout: listening on 127.0.0.1:%u\n",
               unsigned(server.port()));

  broker::Broker broker(archive, {});
  core::BrokerDataInterface di(&broker);
  StreamPool::TenantOptions tenant;
  tenant.name = "publisher";
  auto stream = (*pool)->CreateStream({}, tenant);
  stream->SetInterval(window_start, window_end);
  stream->SetDataInterface(&di);
  if (Status st = stream->Start(); !st.ok()) return fail(st.ToString());

  pool::RecordPublisher::Options popt;
  popt.cluster = &cluster;
  popt.batch_records = batch_records;
  if (bounded) {
    // Published-but-unevicted batches count against the same record
    // budget as decode buffers, so a pinned lagging subscriber
    // backpressures publication. Only sound with bounded retention:
    // an unbounded log never evicts, and would wedge the ledger.
    popt.governor = (*pool)->governor();
    popt.topic_retention = retention;
  }

  Status publish_status = OkStatus();
  pool::RecordPublisher::Stats publish_stats;
  std::atomic<bool> published{false};
  std::thread publisher([&] {
    pool::RecordPublisher pub(popt);
    auto result = pub.Run(*stream);
    if (result.ok()) {
      publish_stats = *result;
    } else {
      publish_status = result.status();
    }
    published.store(true);
  });

  // Foreground loop: periodic stats snapshots until shutdown (signal,
  // or --once after the archive is fully published). 200ms ticks keep
  // both exits prompt.
  const long long ticks_per_snapshot = stats_interval * 5;
  long long tick = ticks_per_snapshot;  // publish one snapshot at startup
  while (g_signal == 0 && !(once && published.load())) {
    if (stats_interval > 0 && tick >= ticks_per_snapshot) {
      mq::Message m;
      std::string json = SnapshotJson((*pool)->Stats());
      m.value.assign(json.begin(), json.end());
      cluster.Publish(mq::kStatsTopic, 0, std::move(m));
      tick = 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ++tick;
  }

  server.Stop();
  publisher.join();
  if (!publish_status.ok())
    std::fprintf(stderr, "bgpfanout: publish failed: %s\n",
                 publish_status.ToString().c_str());
  std::fprintf(stderr,
               "bgpfanout: published %llu records / %llu elems in %llu "
               "batches across %llu collectors; %zu connection(s) served\n",
               (unsigned long long)publish_stats.records_published,
               (unsigned long long)publish_stats.elems_published,
               (unsigned long long)publish_stats.batches_published,
               (unsigned long long)publish_stats.collectors_seen,
               server.connections_served());
  return publish_status.ok() ? 0 : 1;
}
