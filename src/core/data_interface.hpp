// Data interfaces (paper §3.2): how the stream learns which dump files to
// read. The Broker interface is primary; Single-file and CSV cover local
// analysis. (The real release also ships an SQLite interface; CSV covers
// the same "local index" use case here — see DESIGN.md.)
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <unordered_set>

#include "broker/broker.hpp"
#include "core/filter.hpp"

namespace bgps::core {

// One batch of dump files to merge, pulled on demand (client-pull model,
// §3.3.2: data is only retrieved when the user is ready to process it).
struct DataBatch {
  std::vector<broker::DumpFileMeta> files;
  bool end_of_stream = false;  // no further batches will ever come
  bool retry_later = false;    // live mode: poll again after a delay
};

class DataInterface {
 public:
  virtual ~DataInterface() = default;

  // Applies meta filters + interval and returns the next batch.
  virtual DataBatch NextBatch(const FilterSet& filters) = 0;

  // Live-mode hook invoked before a retry poll (re-scan the archive).
  virtual void Refresh() {}

  // Live mode, after a retry_later batch. A push interface (data is
  // handed to it in-process) blocks here until a new batch is ready and
  // returns true, so the stream wakes on publish. A pull interface
  // (it must re-scan an external index) returns false at once and the
  // stream falls back to Options::poll_wait + Refresh().
  virtual bool WaitForData() { return false; }
};

// Primary interface: windowed queries against a Broker (paper §3.2).
class BrokerDataInterface : public DataInterface {
 public:
  explicit BrokerDataInterface(broker::Broker* broker) : broker_(broker) {}

  DataBatch NextBatch(const FilterSet& filters) override;
  void Refresh() override { (void)broker_->Rescan(); }

 private:
  broker::Broker* broker_;
  std::optional<Timestamp> cursor_;
  std::unordered_set<std::string> served_;  // dump paths already returned
};

// Single local file, with explicit provenance annotations.
class SingleFileInterface : public DataInterface {
 public:
  SingleFileInterface(std::string path, DumpType type,
                      std::string project = "singlefile",
                      std::string collector = "singlefile");

  DataBatch NextBatch(const FilterSet& filters) override;

 private:
  broker::DumpFileMeta meta_;
  bool consumed_ = false;
};

// CSV index of local files. Line format:
//   project,collector,type(ribs|updates),start,duration,path
class CsvFileInterface : public DataInterface {
 public:
  // Parse errors are reported once via status(); malformed lines are
  // skipped.
  explicit CsvFileInterface(const std::string& csv_path);

  Status status() const { return status_; }
  DataBatch NextBatch(const FilterSet& filters) override;

 private:
  std::vector<broker::DumpFileMeta> files_;
  size_t next_ = 0;
  Status status_;
};

// Live feed: a thread-safe FIFO of dump files published by an in-process
// ingestion source (pool::LiveSource spools decoded live traffic into
// micro-dumps and Push()es each one here) and consumed by a live-mode
// BgpStream. Serves exactly ONE file per NextBatch, so the stream merges
// publications strictly in publication order — the emitted record
// sequence is the ingestion sequence, deterministically, with no
// cross-file timestamp reordering between micro-dumps. While the feed is
// open and drained, batches carry retry_later; after Close() the drained
// feed reports end_of_stream. It is a push interface: the live stream
// blocks in WaitForData() and Push()/Close() wake it, so no poll
// interval sits between publication and delivery. Meta
// filters are the publisher's concern (a live session is already one
// project/collector); record-level filters still apply downstream.
class LiveFeedInterface : public DataInterface {
 public:
  // Publishes one dump file to the consumer. Push after Close is a
  // programming error and is dropped (the stream may already have ended).
  void Push(broker::DumpFileMeta meta);

  // No further Push() will come; the stream ends once the queue drains.
  // Idempotent.
  void Close();

  bool closed() const;
  size_t published() const;  // files pushed so far (stats/tests)

  // Non-blocking: one file, end_of_stream, or retry_later.
  DataBatch NextBatch(const FilterSet& filters) override;
  // Blocks until a file is queued or the feed is closed; always true.
  bool WaitForData() override;

 private:
  mutable std::mutex mu_;
  std::condition_variable ready_;  // Push/Close -> WaitForData
  std::deque<broker::DumpFileMeta> queue_;
  bool closed_ = false;
  size_t published_ = 0;
};

}  // namespace bgps::core
