// Record-plane fan-out tier (pool/record_fanout + pool/fanout_server):
// the correctness pin of the whole tier. One RecordPublisher decodes
// the archive exactly once into an mq::Cluster; N RecordSubscribers
// with distinct filters each replay a stream whose record+elem
// fingerprint is byte-identical to a direct BgpStream run with the
// same filters — plus the decode-count pin (file opens happen once,
// not once per subscriber), governor backpressure (a stalled pinned
// subscriber blocks publication with bounded cluster bytes, then
// resumes losslessly), and the TCP front end streaming the same
// fingerprint over a real socket.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>
#include <tuple>

#include "broker/broker.hpp"
#include "core/data_interface.hpp"
#include "pool/fanout_server.hpp"
#include "pool/record_fanout.hpp"
#include "tests/sim_fixture.hpp"

namespace bgps {
namespace {

broker::Broker::Options Historical() {
  broker::Broker::Options opt;
  opt.clock = [] { return Timestamp(4102444800); };
  return opt;
}

// The exact fingerprint fields the stress suite pins (and the REC/ELEM
// line protocol carries): any drift between a subscriber and a direct
// stream shows up as a tuple mismatch at a precise index.
using RecordFp = std::tuple<Timestamp, std::string, int, int, int>;
using ElemFp = std::tuple<int, Timestamp, uint32_t, std::string, std::string>;

struct RunFp {
  std::vector<RecordFp> records;
  std::vector<ElemFp> elems;
};

// Drains any stream-shaped source: BgpStream and RecordSubscriber share
// the NextRecord()/Elems()/status() iteration surface by design.
template <typename Stream>
RunFp Drain(Stream& stream) {
  RunFp out;
  while (auto rec = stream.NextRecord()) {
    out.records.emplace_back(rec->timestamp, rec->collector.str(),
                             int(rec->dump_type), int(rec->status),
                             int(rec->position));
    for (const auto& e : stream.Elems(*rec))
      out.elems.emplace_back(int(e.type), e.time, e.peer_asn,
                             e.has_prefix() ? e.prefix.ToString() : "-",
                             e.as_path.ToString());
  }
  return out;
}

void ExpectRunsEqual(const RunFp& got, const RunFp& want,
                     const std::string& label) {
  ASSERT_EQ(got.records.size(), want.records.size()) << label;
  for (size_t i = 0; i < want.records.size(); ++i)
    ASSERT_EQ(got.records[i], want.records[i]) << label << " record " << i;
  ASSERT_EQ(got.elems.size(), want.elems.size()) << label;
  for (size_t i = 0; i < want.elems.size(); ++i)
    ASSERT_EQ(got.elems[i], want.elems[i]) << label << " elem " << i;
}

core::FilterSet BaseFilters() {
  const auto& arch = testutil::GetSmallArchive();
  core::FilterSet fs;
  fs.interval = {arch.start, arch.end};
  return fs;
}

// The ground truth: a direct BgpStream run with `filters`, fresh broker
// session, synchronous decode.
RunFp DirectRun(const core::FilterSet& filters, size_t* file_opens = nullptr) {
  const auto& arch = testutil::GetSmallArchive();
  broker::Broker broker(arch.root, Historical());
  core::BrokerDataInterface di(&broker);
  core::BgpStream::Options opt;
  if (file_opens)
    opt.file_open_hook = [file_opens](const broker::DumpFileMeta&) {
      ++*file_opens;
    };
  core::BgpStream stream(opt);
  stream.filters() = filters;
  stream.SetDataInterface(&di);
  EXPECT_TRUE(stream.Start().ok());
  RunFp fp = Drain(stream);
  EXPECT_TRUE(stream.status().ok()) << stream.status().ToString();
  return fp;
}

// Publishes the whole small archive (meta scope only — full elem
// extraction) into `cluster`, counting dump-file opens.
Result<pool::RecordPublisher::Stats> PublishArchive(
    mq::Cluster* cluster, size_t* file_opens = nullptr,
    std::shared_ptr<core::MemoryGovernor> governor = nullptr,
    std::optional<mq::RetentionOptions> topic_retention = std::nullopt,
    size_t batch_records = 64) {
  const auto& arch = testutil::GetSmallArchive();
  broker::Broker broker(arch.root, Historical());
  core::BrokerDataInterface di(&broker);
  core::BgpStream::Options opt;
  if (file_opens)
    opt.file_open_hook = [file_opens](const broker::DumpFileMeta&) {
      ++*file_opens;
    };
  core::BgpStream stream(opt);
  stream.SetInterval(arch.start, arch.end);
  stream.SetDataInterface(&di);
  BGPS_RETURN_IF_ERROR(stream.Start());
  pool::RecordPublisher::Options popt;
  popt.cluster = cluster;
  popt.governor = std::move(governor);
  popt.batch_records = batch_records;
  popt.topic_retention = topic_retention;
  pool::RecordPublisher publisher(popt);
  return publisher.Run(stream);
}

// The tentpole pin: 4 subscribers, distinct filters, each replay
// fingerprint-equal to its direct-stream ground truth — off ONE decode
// of the archive (file_open_hook count identical to a single run, and
// untouched by subscriber drains).
TEST(FanOut, SubscribersMatchDirectStreamsByteForByte) {
  const auto& arch = testutil::GetSmallArchive();
  mq::Cluster cluster;
  size_t publisher_opens = 0;
  auto stats = PublishArchive(&cluster, &publisher_opens);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->records_published, 0u);
  EXPECT_GT(stats->elems_published, stats->records_published);
  EXPECT_EQ(stats->collectors_seen, 2u);

  size_t direct_opens = 0;
  RunFp unfiltered = DirectRun(BaseFilters(), &direct_opens);
  EXPECT_EQ(publisher_opens, direct_opens)
      << "publisher must decode exactly what one direct run decodes";

  std::vector<std::pair<std::string, core::FilterSet>> cases;
  cases.emplace_back("unfiltered", BaseFilters());
  {
    core::FilterSet fs = BaseFilters();
    ASSERT_TRUE(
        fs.AddOption("collector", arch.driver->collectors()[0].config().name)
            .ok());
    cases.emplace_back("collector", fs);
  }
  {
    core::FilterSet fs = BaseFilters();
    ASSERT_TRUE(fs.AddOption("elemtype", "announcements").ok());
    cases.emplace_back("announcements", fs);
  }
  {
    core::FilterSet fs = BaseFilters();
    ASSERT_TRUE(fs.AddOption("ipversion", "4").ok());
    fs.interval = {arch.start, arch.start + 1800};  // half the window
    cases.emplace_back("v4-halfwindow", fs);
  }

  for (const auto& [label, fs] : cases) {
    pool::RecordSubscriber::Options sopt;
    sopt.cluster = &cluster;
    sopt.filters = fs;
    pool::RecordSubscriber sub(sopt);
    ASSERT_TRUE(sub.Start().ok());
    RunFp got = Drain(sub);
    ASSERT_TRUE(sub.status().ok()) << label << ": " << sub.status().ToString();
    RunFp want = label == "unfiltered" ? unfiltered : DirectRun(fs);
    ExpectRunsEqual(got, want, label);
    EXPECT_FALSE(want.records.empty()) << label;
  }

  // N subscriber drains re-decoded nothing.
  EXPECT_EQ(publisher_opens, direct_opens);
}

// from_seq replays the publisher's suffix: a subscriber starting at
// ordinal K sees exactly the tail of the unfiltered run.
TEST(FanOut, FromSeqReplaysSuffix) {
  mq::Cluster cluster;
  auto stats = PublishArchive(&cluster);
  ASSERT_TRUE(stats.ok());
  const uint64_t total = stats->records_published;
  ASSERT_GT(total, 100u);

  RunFp full = DirectRun(BaseFilters());
  ASSERT_EQ(full.records.size(), total);

  const uint64_t from = total / 2;
  pool::RecordSubscriber::Options sopt;
  sopt.cluster = &cluster;
  sopt.filters = BaseFilters();
  sopt.from_seq = from;
  pool::RecordSubscriber sub(sopt);
  ASSERT_TRUE(sub.Start().ok());
  RunFp got = Drain(sub);
  ASSERT_TRUE(sub.status().ok());
  ASSERT_EQ(got.records.size(), total - from);
  for (size_t i = 0; i < got.records.size(); ++i)
    ASSERT_EQ(got.records[i], full.records[from + i]) << "record " << i;
  EXPECT_EQ(sub.next_seq(), total);
}

// The satellite regression: publisher batches lease governor slots, so
// a stalled subscriber (pinned at offset 0, never polling) blocks
// publication with cluster bytes bounded by the governor budget; when
// the subscriber resumes, publication completes and the replay is
// still identical. Also proves the lease ledger balances: destroying
// the cluster returns every slot.
TEST(FanOut, StalledSubscriberBackpressuresPublisherBoundedly) {
  const auto& arch = testutil::GetSmallArchive();
  // Sizing: retention keeps up to max_messages batches per topic even
  // after every subscriber moves on, and those messages hold leases
  // until evicted — so the budget must exceed that steady-state floor
  // (2 msgs x 32 records x 2 topics = 128) plus one in-flight batch,
  // or the publisher wedges on a budget that can never free up.
  constexpr size_t kBudget = 256;  // records; far below the archive total
  constexpr size_t kBatch = 32;
  auto governor = std::make_shared<core::MemoryGovernor>(kBudget);
  auto cluster = std::make_unique<mq::Cluster>();
  const mq::RetentionOptions tight{/*max_messages=*/2, /*max_bytes=*/0};

  // Pre-create the record topics so the subscriber can pin offset 0
  // before the publisher produces anything.
  std::vector<std::string> names;
  for (const auto& c : arch.driver->collectors()) {
    names.push_back(c.config().name);
    cluster->CreateTopic(mq::RecordTopic(c.config().name), 1, tight);
  }

  RunFp got;
  std::atomic<bool> done{false};
  Result<pool::RecordPublisher::Stats> stats{pool::RecordPublisher::Stats{}};
  {
    pool::RecordSubscriber::Options sopt;
    sopt.cluster = cluster.get();
    sopt.filters = BaseFilters();
    pool::RecordSubscriber sub(sopt);
    ASSERT_TRUE(sub.Start().ok());  // pins installed, then we stall

    std::thread publisher([&] {
      stats = PublishArchive(cluster.get(), nullptr, governor, tight, kBatch);
      done.store(true);
    });

    // The publisher must wedge against the budget: every lease is held
    // by retained-but-pinned messages, so in_use converges to within
    // one batch of capacity and publication stops.
    while (!done.load() && governor->in_use() + kBatch * names.size() <=
                               kBudget) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_FALSE(done.load())
        << "publisher finished despite a stalled pinned subscriber";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_FALSE(done.load());
    EXPECT_LE(governor->in_use(), kBudget);
    size_t retained = 0;
    for (const auto& n : names)
      retained += cluster->RetainedBytes(mq::RecordTopic(n), 0);
    EXPECT_GT(retained, 0u);

    // Resume: draining advances the pins, truncation evicts, evictions
    // release leases, the publisher unblocks — losslessly.
    got = Drain(sub);
    publisher.join();
    ASSERT_TRUE(sub.status().ok()) << sub.status().ToString();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_LE(governor->max_in_use(), kBudget);
  }

  ExpectRunsEqual(got, DirectRun(BaseFilters()), "resumed replay");

  // Every lease is owed to a retained message's eviction hook; cluster
  // teardown fires them all, balancing the ledger exactly.
  cluster.reset();
  EXPECT_EQ(governor->in_use(), 0u);
  EXPECT_TRUE(governor->health().ok());
}

// --- TCP front end ---------------------------------------------------------

int ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  return fd;
}

std::string ReadToEof(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, size_t(n));
  }
  return out;
}

// Parses the REC/ELEM transcript back into fingerprints. Returns the
// terminal line ("END ok" / "ERR ...") for the caller to assert on.
std::string ParseTranscript(const std::string& transcript, RunFp& out) {
  std::istringstream in(transcript);
  std::string line, terminal;
  while (std::getline(in, line)) {
    if (line.rfind("REC ", 0) == 0) {
      std::istringstream rec(line.substr(4));
      uint64_t seq, nelems;
      int64_t ts;
      std::string collector;
      int dump_type, status, position;
      rec >> seq >> ts >> collector >> dump_type >> status >> position >>
          nelems;
      out.records.emplace_back(Timestamp(ts), collector, dump_type, status,
                               position);
    } else if (line.rfind("ELEM ", 0) == 0) {
      // type|time|peer_asn|prefix|as_path — the path may be empty or
      // contain spaces, so split on '|' (exactly 5 fields).
      std::string body = line.substr(5);
      std::vector<std::string> f;
      size_t start = 0;
      for (int i = 0; i < 4; ++i) {
        size_t bar = body.find('|', start);
        if (bar == std::string::npos) break;
        f.push_back(body.substr(start, bar - start));
        start = bar + 1;
      }
      f.push_back(body.substr(start));
      if (f.size() != 5) return "BAD ELEM LINE: " + line;
      out.elems.emplace_back(std::stoi(f[0]), Timestamp(std::stoll(f[1])),
                             uint32_t(std::stoul(f[2])), f[3], f[4]);
    } else {
      terminal = line;
    }
  }
  return terminal;
}

TEST(FanOut, TcpServerStreamsIdenticalTranscript) {
  const auto& arch = testutil::GetSmallArchive();
  mq::Cluster cluster;
  ASSERT_TRUE(PublishArchive(&cluster).ok());

  pool::FanoutServer::Options fopt;
  fopt.cluster = &cluster;
  pool::FanoutServer server(fopt);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  const std::string collector = arch.driver->collectors()[1].config().name;
  core::FilterSet fs = BaseFilters();
  ASSERT_TRUE(fs.AddOption("collector", collector).ok());

  int fd = ConnectLoopback(server.port());
  std::ostringstream req;
  req << "FILTER collector " << collector << "\n"
      << "FILTER interval " << arch.start << "," << arch.end << "\n"
      << "GO\n";
  std::string r = req.str();
  ASSERT_EQ(::send(fd, r.data(), r.size(), 0), ssize_t(r.size()));
  std::string transcript = ReadToEof(fd);
  ::close(fd);
  server.Stop();

  RunFp got;
  EXPECT_EQ(ParseTranscript(transcript, got), "END ok");
  ExpectRunsEqual(got, DirectRun(fs), "tcp transcript");
  EXPECT_FALSE(got.records.empty());
  EXPECT_EQ(server.connections_served(), 1u);
}

TEST(FanOut, TcpServerRejectsBadCommands) {
  mq::Cluster cluster;
  pool::FanoutServer::Options fopt;
  fopt.cluster = &cluster;
  pool::FanoutServer server(fopt);
  ASSERT_TRUE(server.Start().ok());

  int fd = ConnectLoopback(server.port());
  std::string r = "FILTER nosuchkey x\n";
  ASSERT_EQ(::send(fd, r.data(), r.size(), 0), ssize_t(r.size()));
  std::string reply = ReadToEof(fd);
  ::close(fd);
  EXPECT_EQ(reply.rfind("ERR ", 0), 0u) << reply;

  fd = ConnectLoopback(server.port());
  r = "FLY\n";
  ASSERT_EQ(::send(fd, r.data(), r.size(), 0), ssize_t(r.size()));
  reply = ReadToEof(fd);
  ::close(fd);
  EXPECT_EQ(reply.rfind("ERR unknown command", 0), 0u) << reply;
  server.Stop();
}

// The two appends a RecordPublisher flush makes for one record: its
// batch on the collector topic, then the watermark that makes it
// emittable.
void PublishOneRecord(mq::Cluster& cluster, uint64_t seq) {
  mq::RecordBatchMessage batch;
  batch.project = "live";
  batch.collector = "live";
  mq::PublishedRecord pr;
  pr.seq = seq;
  pr.record.timestamp = Timestamp(1000 + seq);
  pr.record.prefetched_elems.emplace();
  batch.records.push_back(std::move(pr));
  mq::Message m;
  m.value = mq::EncodeRecordBatch(batch);
  cluster.Publish(mq::RecordTopic("live"), 0, std::move(m));
  mq::RecordWatermarkMessage mark;
  mark.published_through = seq + 1;
  mq::Message wm;
  wm.value = mq::EncodeRecordWatermark(mark);
  cluster.Publish(mq::kRecordWatermarkTopic, 0, std::move(wm));
}

// A live tail with the default wait wakes on each publish instead of
// sleeping out its idle round. The publisher lets the subscriber park
// before every record, so a subscriber that slept its 2 ms bound each
// round would need >= ~170 ms for the 100 records; waking on publish
// takes ~100 x 0.25 ms.
TEST(FanOut, LiveTailWakesOnPublishAndCancelStillEndsIt) {
  using std::chrono::milliseconds;
  using std::chrono::steady_clock;
  mq::Cluster cluster;
  std::atomic<bool> stop{false};
  pool::RecordSubscriber::Options sopt;
  sopt.cluster = &cluster;
  sopt.cancel = [&stop] { return stop.load(); };
  pool::RecordSubscriber sub(sopt);
  ASSERT_TRUE(sub.Start().ok());

  constexpr uint64_t kRecords = 100;
  std::atomic<uint64_t> delivered{0};
  std::thread publisher([&] {
    for (uint64_t seq = 0; seq < kRecords && !stop.load(); ++seq) {
      while (delivered.load() < seq && !stop.load())
        std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      PublishOneRecord(cluster, seq);
    }
  });
  const auto t0 = steady_clock::now();
  for (uint64_t seq = 0; seq < kRecords; ++seq) {
    auto rec = sub.NextRecord();
    if (!rec) break;
    EXPECT_EQ(rec->timestamp, Timestamp(1000 + seq));
    delivered.store(seq + 1);
  }
  const auto took = steady_clock::now() - t0;
  if (delivered.load() < kRecords) stop.store(true);
  publisher.join();
  ASSERT_EQ(delivered.load(), kRecords);
  EXPECT_LT(took, milliseconds(150))
      << std::chrono::duration<double, std::milli>(took).count() << " ms";

  // Idle tail, nothing more to publish: cancel ends it within the wait
  // bound plus scheduling slack, with status OK.
  steady_clock::time_point cancelled_at;
  std::thread canceller([&] {
    std::this_thread::sleep_for(milliseconds(20));
    cancelled_at = steady_clock::now();
    stop.store(true);
  });
  EXPECT_FALSE(sub.NextRecord().has_value());
  const auto ended = steady_clock::now();
  canceller.join();
  EXPECT_TRUE(sub.status().ok()) << sub.status().ToString();
  EXPECT_LT(ended - cancelled_at, milliseconds(50));
}

}  // namespace
}  // namespace bgps
