// Stress layer (ctest label: stress) for the record-plane fan-out
// tier: a simulator-generated ~50k-record mixed corpus decoded ONCE by
// a StreamPool-vended publisher into the mq cluster while 4 concurrent
// TCP subscribers with distinct filters live-tail the FanoutServer.
// Each subscriber's transcript must be fingerprint-identical to a
// direct synchronous BgpStream run with the same filters, and the
// publisher's dump-file open count must equal a single direct run's —
// N subscribers, one decode.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <thread>
#include <tuple>

#include "broker/archive.hpp"
#include "pool/fanout_server.hpp"
#include "pool/record_fanout.hpp"
#include "pool/stream_pool.hpp"
#include "sim/corpus.hpp"

namespace bgps {
namespace {

using broker::DumpFileMeta;
using core::BgpStream;

// The corpus window, wide open: everything the simulator generated.
constexpr Timestamp kWindowStart = 0;
constexpr Timestamp kWindowEnd = 4102444800;

using RecordFp = std::tuple<Timestamp, std::string, int, int, int>;
using ElemFp = std::tuple<int, Timestamp, uint32_t, std::string, std::string>;

struct StreamRun {
  std::vector<RecordFp> records;
  std::vector<ElemFp> elems;
  Status status;
};

StreamRun Drain(BgpStream& stream) {
  StreamRun out;
  while (auto rec = stream.NextRecord()) {
    out.records.emplace_back(rec->timestamp, rec->collector,
                             int(rec->dump_type), int(rec->status),
                             int(rec->position));
    for (const auto& e : stream.Elems(*rec)) {
      out.elems.emplace_back(int(e.type), e.time, e.peer_asn,
                             e.has_prefix() ? e.prefix.ToString() : "-",
                             e.as_path.ToString());
    }
  }
  out.status = stream.status();
  return out;
}

class VectorDataInterface : public core::DataInterface {
 public:
  explicit VectorDataInterface(std::vector<DumpFileMeta> files)
      : files_(std::move(files)) {}
  core::DataBatch NextBatch(const core::FilterSet&) override {
    core::DataBatch batch;
    if (!served_) {
      batch.files = files_;
      served_ = true;
    } else {
      batch.end_of_stream = true;
    }
    return batch;
  }

 private:
  std::vector<DumpFileMeta> files_;
  bool served_ = false;
};

struct Corpus {
  std::string root;
  std::vector<DumpFileMeta> files;
};

const Corpus& GetCorpus() {
  static const Corpus* corpus = [] {
    auto* c = new Corpus;
    c->root = (std::filesystem::temp_directory_path() /
               ("bgps_fanout_stress_corpus_" + std::to_string(::getpid())))
                  .string();
    sim::CorpusOptions options;
    options.scenario = "mixed";
    options.duration = 2 * 3600;
    options.flaps_per_hour = 2600;  // sized to clear 50k records total
    options.seed = 7;
    auto stats = sim::GenerateCorpus(options, c->root);
    if (!stats.ok()) {
      ADD_FAILURE() << "corpus generation failed: "
                    << stats.status().ToString();
      return c;
    }
    broker::ArchiveIndex index(c->root);
    if (!index.Rescan().ok()) {
      ADD_FAILURE() << "corpus rescan failed";
      return c;
    }
    c->files = index.files();
    return c;
  }();
  return *corpus;
}

class CorpusCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(GetCorpus().root, ec);
  }
};
const auto* const kCleanup =
    ::testing::AddGlobalTestEnvironment(new CorpusCleanup);

// Direct ground truth: synchronous private pipeline with `filters`.
StreamRun DirectRun(const core::FilterSet& filters,
                    size_t* file_opens = nullptr) {
  BgpStream::Options opt;
  if (file_opens)
    opt.file_open_hook = [file_opens](const DumpFileMeta&) {
      ++*file_opens;
    };
  BgpStream stream(std::move(opt));
  VectorDataInterface di(GetCorpus().files);
  stream.filters() = filters;
  stream.SetDataInterface(&di);
  EXPECT_TRUE(stream.Start().ok());
  StreamRun run = Drain(stream);
  EXPECT_TRUE(run.status.ok()) << run.status.ToString();
  return run;
}

core::FilterSet BaseFilters() {
  core::FilterSet fs;
  fs.interval = {kWindowStart, kWindowEnd};
  return fs;
}

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

// One TCP subscription: sends the FILTER/GO preamble, reads the whole
// transcript, parses it back into fingerprints.
struct TcpRun {
  StreamRun run;
  std::string terminal;  // "END ok" or the ERR line
};

TcpRun Subscribe(uint16_t port,
                 const std::vector<std::pair<std::string, std::string>>&
                     filters) {
  TcpRun out;
  int fd = ConnectLoopback(port);
  std::ostringstream req;
  req << "FILTER interval " << kWindowStart << "," << kWindowEnd << "\n";
  for (const auto& [k, v] : filters) req << "FILTER " << k << " " << v << "\n";
  req << "GO\n";
  std::string r = req.str();
  EXPECT_EQ(::send(fd, r.data(), r.size(), 0), ssize_t(r.size()));

  std::string transcript;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    transcript.append(buf, size_t(n));
  }
  ::close(fd);

  std::istringstream in(transcript);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("REC ", 0) == 0) {
      std::istringstream rec(line.substr(4));
      uint64_t seq, nelems;
      int64_t ts;
      std::string collector;
      int dump_type, status, position;
      rec >> seq >> ts >> collector >> dump_type >> status >> position >>
          nelems;
      out.run.records.emplace_back(Timestamp(ts), collector, dump_type,
                                   status, position);
    } else if (line.rfind("ELEM ", 0) == 0) {
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
      if (f.size() != 5) {
        out.terminal = "BAD ELEM LINE: " + line;
        return out;
      }
      out.run.elems.emplace_back(std::stoi(f[0]),
                                 Timestamp(std::stoll(f[1])),
                                 uint32_t(std::stoul(f[2])), f[3], f[4]);
    } else {
      out.terminal = line;
    }
  }
  return out;
}

void ExpectRunsEqual(const StreamRun& got, const StreamRun& want,
                     const std::string& label) {
  ASSERT_EQ(got.records.size(), want.records.size()) << label;
  for (size_t i = 0; i < want.records.size(); ++i)
    ASSERT_EQ(got.records[i], want.records[i]) << label << " record " << i;
  ASSERT_EQ(got.elems.size(), want.elems.size()) << label;
  for (size_t i = 0; i < want.elems.size(); ++i)
    ASSERT_EQ(got.elems[i], want.elems[i]) << label << " elem " << i;
}

TEST(FanOutStress, FourConcurrentTcpSubscribersMatchDirectBaselines) {
  const Corpus& corpus = GetCorpus();
  ASSERT_FALSE(corpus.files.empty());
  const std::string collector = corpus.files.front().collector;

  // The daemon shape: shared decode pool, embedded cluster, TCP front
  // end — the subscribers connect BEFORE the publisher starts, so they
  // live-tail the whole run (replay-from-0 plus watermark-gated tail).
  mq::Cluster cluster;
  pool::FanoutServer::Options fopt;
  fopt.cluster = &cluster;
  pool::FanoutServer server(fopt);
  ASSERT_TRUE(server.Start().ok());

  auto pool = StreamPool::Create({.threads = 4, .record_budget = 4096});
  ASSERT_TRUE(pool.ok());
  std::atomic<size_t> publisher_opens{0};
  BgpStream::Options sopt;
  sopt.file_open_hook = [&publisher_opens](const DumpFileMeta&) {
    ++publisher_opens;
  };
  StreamPool::TenantOptions tenant;
  tenant.name = "publisher";
  auto stream = (*pool)->CreateStream(std::move(sopt), tenant);
  VectorDataInterface di(corpus.files);
  stream->SetInterval(kWindowStart, kWindowEnd);
  stream->SetDataInterface(&di);
  ASSERT_TRUE(stream->Start().ok());

  const std::vector<
      std::pair<std::string, std::vector<std::pair<std::string, std::string>>>>
      cases = {
          {"unfiltered", {}},
          {"collector", {{"collector", collector}}},
          {"announcements", {{"elemtype", "announcements"}}},
          {"v4", {{"ipversion", "4"}}},
      };

  std::vector<TcpRun> tcp_runs(cases.size());
  std::vector<std::thread> subscribers;
  subscribers.reserve(cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    subscribers.emplace_back([&, i] {
      tcp_runs[i] = Subscribe(server.port(), cases[i].second);
    });
  }

  pool::RecordPublisher::Options popt;
  popt.cluster = &cluster;
  pool::RecordPublisher publisher(popt);
  auto stats = publisher.Run(*stream);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->records_published, 50000u) << "corpus undersized";

  for (auto& t : subscribers) t.join();
  server.Stop();

  // Decode-count pin: publishing decoded each dump file exactly as
  // often as one direct run does, and the 4 subscriber drains added
  // nothing.
  size_t direct_opens = 0;
  StreamRun unfiltered = DirectRun(BaseFilters(), &direct_opens);
  EXPECT_EQ(publisher_opens.load(), direct_opens);
  ASSERT_EQ(unfiltered.records.size(), stats->records_published);

  for (size_t i = 0; i < cases.size(); ++i) {
    const auto& [label, filter_kvs] = cases[i];
    EXPECT_EQ(tcp_runs[i].terminal, "END ok") << label;
    StreamRun want;
    if (label == "unfiltered") {
      want = unfiltered;
    } else {
      core::FilterSet fs = BaseFilters();
      for (const auto& [k, v] : filter_kvs)
        ASSERT_TRUE(fs.AddOption(k, v).ok()) << label;
      want = DirectRun(fs);
    }
    EXPECT_FALSE(want.records.empty()) << label;
    ExpectRunsEqual(tcp_runs[i].run, want, label);
  }
  EXPECT_EQ(publisher_opens.load(), direct_opens);
  EXPECT_EQ(server.connections_served(), cases.size());
}

}  // namespace
}  // namespace bgps
