// End-to-end tests of the stream engine over a simulated archive:
// simulator -> MRT files -> broker -> multi-way merge -> records/elems.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <future>
#include <thread>

#include "core/stream.hpp"
#include "reader/ascii.hpp"
#include "tests/sim_fixture.hpp"

namespace bgps::core {
namespace {

class StreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto& a = testutil::GetSmallArchive();
    root_ = a.root;
    start_ = a.start;
    end_ = a.end;
    broker::Broker::Options opt;
    opt.clock = [] { return Timestamp(4102444800); };
    broker_ = std::make_unique<broker::Broker>(root_, opt);
    di_ = std::make_unique<BrokerDataInterface>(broker_.get());
  }

  std::string root_;
  Timestamp start_ = 0, end_ = 0;
  std::unique_ptr<broker::Broker> broker_;
  std::unique_ptr<BrokerDataInterface> di_;
};

TEST_F(StreamTest, SortedStreamAcrossCollectorsAndTypes) {
  BgpStream stream;
  stream.SetInterval(start_, end_);
  stream.SetDataInterface(di_.get());
  ASSERT_TRUE(stream.Start().ok());

  size_t records = 0;
  Timestamp last_in_subset = 0;
  std::set<std::pair<std::string, std::string>> provenance;
  size_t subsets_before = 0;
  while (auto rec = stream.NextRecord()) {
    // Timestamps are monotone within a merged subset; track subset
    // changes via the stream stats.
    if (stream.subsets_merged() != subsets_before) {
      subsets_before = stream.subsets_merged();
      last_in_subset = 0;
    }
    EXPECT_GE(rec->timestamp, last_in_subset);
    last_in_subset = rec->timestamp;
    provenance.insert({rec->project, rec->collector});
    ++records;
  }
  EXPECT_GT(records, 100u);
  EXPECT_EQ(provenance.size(), 2u);  // both collectors contributed
}

TEST_F(StreamTest, ElemsAreExtractedFromRibAndUpdates) {
  BgpStream stream;
  stream.SetInterval(start_, end_);
  stream.SetDataInterface(di_.get());
  ASSERT_TRUE(stream.Start().ok());
  size_t rib_elems = 0, ann = 0, wd = 0, state = 0;
  while (auto rec = stream.NextRecord()) {
    for (const auto& e : stream.Elems(*rec)) {
      switch (e.type) {
        case ElemType::RibEntry: ++rib_elems; break;
        case ElemType::Announcement: ++ann; break;
        case ElemType::Withdrawal: ++wd; break;
        case ElemType::PeerState: ++state; break;
      }
    }
  }
  EXPECT_GT(rib_elems, 100u);  // two RIB dumps of a whole table
  EXPECT_GT(ann, 10u);         // flap re-announcements
  EXPECT_GT(wd, 10u);          // flap withdrawals
  (void)state;
}

TEST_F(StreamTest, CollectorFilterRestrictsProvenance) {
  BgpStream stream;
  ASSERT_TRUE(stream.AddFilter("collector", "rrc00").ok());
  stream.SetInterval(start_, end_);
  stream.SetDataInterface(di_.get());
  ASSERT_TRUE(stream.Start().ok());
  size_t n = 0;
  while (auto rec = stream.NextRecord()) {
    EXPECT_EQ(rec->collector, "rrc00");
    ++n;
  }
  EXPECT_GT(n, 0u);
}

TEST_F(StreamTest, TypeFilterSelectsRibsOnly) {
  BgpStream stream;
  ASSERT_TRUE(stream.AddFilter("type", "ribs").ok());
  stream.SetInterval(start_, end_);
  stream.SetDataInterface(di_.get());
  ASSERT_TRUE(stream.Start().ok());
  size_t n = 0;
  bool saw_start = false, saw_end = false;
  while (auto rec = stream.NextRecord()) {
    EXPECT_EQ(rec->dump_type, DumpType::Rib);
    saw_start |= rec->position == DumpPosition::Start;
    saw_end |= rec->position == DumpPosition::End;
    ++n;
  }
  EXPECT_GT(n, 0u);
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_end);
}

TEST_F(StreamTest, UpdateRecordsRespectInterval) {
  BgpStream stream;
  ASSERT_TRUE(stream.AddFilter("type", "updates").ok());
  stream.SetInterval(start_ + 600, start_ + 1200);
  stream.SetDataInterface(di_.get());
  ASSERT_TRUE(stream.Start().ok());
  while (auto rec = stream.NextRecord()) {
    if (rec->status != RecordStatus::Valid) continue;
    EXPECT_GE(rec->timestamp, start_ + 600);
    EXPECT_LT(rec->timestamp, start_ + 1200);
  }
}

TEST_F(StreamTest, SingleFileInterface) {
  // Grab one updates file from the archive via the broker index.
  const broker::DumpFileMeta* meta = nullptr;
  for (const auto& f : broker_->index().files()) {
    if (f.type == DumpType::Updates && f.collector == "rrc00") {
      meta = &f;
      break;
    }
  }
  ASSERT_NE(meta, nullptr);
  SingleFileInterface sfi(meta->path, DumpType::Updates);
  BgpStream stream;
  stream.SetInterval(0, 4102444800);  // wide open
  stream.SetDataInterface(&sfi);
  ASSERT_TRUE(stream.Start().ok());
  size_t n = 0;
  while (auto rec = stream.NextRecord()) {
    EXPECT_EQ(rec->project, "singlefile");
    ++n;
  }
  // The file may be empty (quiet window) but the stream must terminate.
  SUCCEED();
}

TEST_F(StreamTest, CsvInterface) {
  // Build a CSV index of the rrc00 updates files.
  std::string csv_path = root_ + "/index.csv";
  {
    std::ofstream out(csv_path);
    out << "# test index\n";
    for (const auto& f : broker_->index().files()) {
      if (f.collector != "rrc00") continue;
      out << f.project << "," << f.collector << ","
          << broker::DumpTypeName(f.type) << "," << f.start << ","
          << f.duration << "," << f.path << "\n";
    }
  }
  CsvFileInterface csv(csv_path);
  ASSERT_TRUE(csv.status().ok());
  BgpStream stream;
  stream.SetInterval(start_, end_);
  stream.SetDataInterface(&csv);
  ASSERT_TRUE(stream.Start().ok());
  size_t n = 0;
  while (auto rec = stream.NextRecord()) {
    EXPECT_EQ(rec->collector, "rrc00");
    ++n;
  }
  EXPECT_GT(n, 0u);
}

TEST_F(StreamTest, LiveModePollsAndTerminatesOnCap) {
  // Virtual clock stuck just after start: most dumps unpublished.
  Timestamp now = start_ + 301;
  broker::Broker::Options opt;
  opt.clock = [&now] { return now; };
  broker::Broker live_broker(root_, opt);
  BrokerDataInterface live_di(&live_broker);

  BgpStream::Options sopt;
  size_t polls = 0;
  sopt.poll_wait = [&] {
    now += 300;  // each poll advances virtual time
    ++polls;
  };
  sopt.max_consecutive_polls = 500;
  BgpStream stream(sopt);
  stream.SetLive(start_);
  stream.SetDataInterface(&live_di);
  ASSERT_TRUE(stream.Start().ok());

  size_t records = 0;
  while (auto rec = stream.NextRecord()) {
    ++records;
    if (now > end_ + 3600) break;  // simulation archive is finite
  }
  EXPECT_GT(records, 0u);
  EXPECT_GT(polls, 0u);
}

// A live stream on a push interface wakes on Push() instead of polling:
// a dump pushed from another thread is delivered with poll_wait never
// called, and Close() ends the stream.
TEST_F(StreamTest, LiveFeedWakesOnPushWithoutPolling) {
  const broker::DumpFileMeta* meta = nullptr;
  for (const auto& f : broker_->index().files()) {
    if (f.type == DumpType::Rib) {
      meta = &f;
      break;
    }
  }
  ASSERT_NE(meta, nullptr);
  size_t want = 0;
  {
    SingleFileInterface sfi(meta->path, DumpType::Rib);
    BgpStream direct;
    direct.SetInterval(0, 4102444800);
    direct.SetDataInterface(&sfi);
    ASSERT_TRUE(direct.Start().ok());
    while (direct.NextRecord()) ++want;
  }
  ASSERT_GT(want, 0u);

  LiveFeedInterface feed;
  BgpStream::Options sopt;
  size_t polls = 0;
  sopt.poll_wait = [&polls] { ++polls; };
  BgpStream stream(sopt);
  stream.SetLive(0);
  stream.SetDataInterface(&feed);
  ASSERT_TRUE(stream.Start().ok());

  // The feed is closed only after the first record arrived (or after a
  // generous bound, so a lost wake-up fails below instead of hanging):
  // that record can only have come from the Push() wake-up.
  std::promise<void> got_first;
  std::future<void> first = got_first.get_future();
  bool closed_before_first = false;
  std::thread pusher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    feed.Push(*meta);
    closed_before_first = first.wait_for(std::chrono::seconds(30)) !=
                          std::future_status::ready;
    feed.Close();
  });
  size_t got = 0;
  while (auto rec = stream.NextRecord()) {
    if (got++ == 0) got_first.set_value();
  }
  pusher.join();
  EXPECT_FALSE(closed_before_first);
  EXPECT_EQ(got, want);
  EXPECT_EQ(polls, 0u);
  EXPECT_TRUE(stream.status().ok());
}

TEST_F(StreamTest, BgpReaderProducesParseableLines) {
  BgpStream stream;
  ASSERT_TRUE(stream.AddFilter("type", "updates").ok());
  stream.SetInterval(start_, end_);
  stream.SetDataInterface(di_.get());
  ASSERT_TRUE(stream.Start().ok());

  std::ostringstream out;
  reader::BgpReaderOptions ropt;
  ropt.max_elems = 50;
  size_t printed = reader::RunBgpReader(stream, out, ropt);
  EXPECT_GT(printed, 0u);
  std::istringstream lines(out.str());
  std::string line;
  size_t count = 0;
  while (std::getline(lines, line)) {
    // Native format has 12 pipe-separated fields.
    EXPECT_GE(std::count(line.begin(), line.end(), '|'), 10) << line;
    ++count;
  }
  EXPECT_EQ(count, printed);
}

TEST_F(StreamTest, BgpdumpFormatMode) {
  BgpStream stream;
  ASSERT_TRUE(stream.AddFilter("type", "updates").ok());
  ASSERT_TRUE(stream.AddFilter("elemtype", "announcements").ok());
  stream.SetInterval(start_, end_);
  stream.SetDataInterface(di_.get());
  ASSERT_TRUE(stream.Start().ok());
  std::ostringstream out;
  reader::BgpReaderOptions ropt;
  ropt.format = reader::OutputFormat::Bgpdump;
  ropt.max_elems = 10;
  size_t printed = reader::RunBgpReader(stream, out, ropt);
  ASSERT_GT(printed, 0u);
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(line.rfind("BGP4MP|", 0) == 0) << line;
    EXPECT_NE(line.find("|A|"), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace bgps::core
