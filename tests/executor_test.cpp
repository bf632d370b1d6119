// Tests of the process-wide decode executor (runtime layer): per-tenant
// FIFO ordering, round-robin dispatch across tenants, urgent
// front-of-queue submission, and tenant/executor lifecycle.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/executor.hpp"

namespace bgps::core {
namespace {

using namespace std::chrono_literals;

// Records task completions as "<tenant><index>" strings.
class CompletionLog {
 public:
  void Note(std::string id) {
    std::lock_guard<std::mutex> lock(mu_);
    order_.push_back(std::move(id));
  }
  std::vector<std::string> Get() {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }
  size_t IndexOf(const std::string& id) {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < order_.size(); ++i) {
      if (order_[i] == id) return i;
    }
    return size_t(-1);
  }

 private:
  std::mutex mu_;
  std::vector<std::string> order_;
};

// Waits (bounded) until `pred` holds.
template <typename Pred>
bool WaitFor(Pred pred, std::chrono::seconds deadline = 10s) {
  auto until = std::chrono::steady_clock::now() + deadline;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

TEST(ExecutorTest, TenantTasksRunInSubmissionOrder) {
  Executor ex({.threads = 1});
  auto tenant = ex.CreateTenant();
  CompletionLog log;

  // Gate the worker so all tasks are queued before any runs.
  std::promise<void> gate;
  std::promise<void> gate_running;
  std::shared_future<void> opened = gate.get_future().share();
  tenant->Submit([opened, &gate_running] {
    gate_running.set_value();
    opened.wait();
  });
  gate_running.get_future().wait();  // the worker holds the gate task
  for (int i = 0; i < 8; ++i) {
    tenant->Submit([&log, i] { log.Note("t" + std::to_string(i)); });
  }
  EXPECT_EQ(tenant->queued(), 8u);
  gate.set_value();
  ASSERT_TRUE(WaitFor([&] { return ex.tasks_run() == 9; }));
  std::vector<std::string> expect;
  for (int i = 0; i < 8; ++i) expect.push_back("t" + std::to_string(i));
  EXPECT_EQ(log.Get(), expect);
}

TEST(ExecutorTest, RoundRobinDispatchInterleavesTenants) {
  Executor ex({.threads = 1});
  auto gate_tenant = ex.CreateTenant();
  auto heavy = ex.CreateTenant();
  auto light = ex.CreateTenant();
  CompletionLog log;

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  gate_tenant->Submit([opened] { opened.wait(); });

  // A heavy tenant floods its queue; a light one submits a handful.
  // Round-robin means the light tenant's tasks cannot be starved behind
  // the flood: its k-th task completes within ~2k+2 completions.
  for (int i = 0; i < 24; ++i) {
    heavy->Submit([&log, i] { log.Note("h" + std::to_string(i)); });
  }
  for (int i = 0; i < 4; ++i) {
    light->Submit([&log, i] { log.Note("l" + std::to_string(i)); });
  }
  gate.set_value();
  ASSERT_TRUE(WaitFor([&] { return ex.tasks_run() == 29; }));
  EXPECT_LT(log.IndexOf("l3"), 10u);
  // And FIFO holds within each tenant despite the interleave.
  EXPECT_LT(log.IndexOf("h0"), log.IndexOf("h1"));
  EXPECT_LT(log.IndexOf("l0"), log.IndexOf("l1"));
}

TEST(ExecutorTest, WeightedTenantDrainsProportionallyPerVisit) {
  // Deficit-weighted round-robin: a weight-4 tenant drains ~4 tasks per
  // visit of a weight-1 tenant. With one worker and both queues loaded
  // before the gate opens, the interleave is deterministic up to visit
  // boundaries: before the light tenant's k-th task completes, the
  // heavy tenant must have completed ~4(k+1) tasks (tolerance ±4, one
  // visit).
  Executor ex({.threads = 1});
  auto gate_tenant = ex.CreateTenant();
  auto heavy = ex.CreateTenant({.weight = 4});
  auto light = ex.CreateTenant();  // weight 1
  EXPECT_EQ(heavy->weight(), 4u);
  EXPECT_EQ(light->weight(), 1u);
  CompletionLog log;

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  gate_tenant->Submit([opened] { opened.wait(); });

  constexpr int kHeavy = 32, kLight = 8;
  for (int i = 0; i < kHeavy; ++i) {
    heavy->Submit([&log, i] { log.Note("h" + std::to_string(i)); });
  }
  for (int i = 0; i < kLight; ++i) {
    light->Submit([&log, i] { log.Note("l" + std::to_string(i)); });
  }
  gate.set_value();
  ASSERT_TRUE(
      WaitFor([&] { return ex.tasks_run() == 1 + kHeavy + kLight; }));

  std::vector<std::string> order = log.Get();
  for (int k = 0; k < kLight; ++k) {
    size_t pos = log.IndexOf("l" + std::to_string(k));
    ASSERT_NE(pos, size_t(-1));
    size_t heavies_before = 0;
    for (size_t i = 0; i < pos; ++i) {
      if (order[i][0] == 'h') ++heavies_before;
    }
    size_t want = size_t(4 * (k + 1));  // one full heavy visit per light task
    EXPECT_GE(heavies_before + 4, want) << "light task " << k;
    EXPECT_LE(heavies_before, want + 4) << "light task " << k;
  }
  // Per-tenant completion counters match.
  EXPECT_EQ(heavy->tasks_run(), size_t(kHeavy));
  EXPECT_EQ(light->tasks_run(), size_t(kLight));
  EXPECT_EQ(gate_tenant->tasks_run(), 1u);
}

TEST(ExecutorTest, SetWeightTakesEffectAtTheNextVisit) {
  // Re-weighting mid-flight: queue tasks under weight 1, bump to 3 —
  // tasks submitted after the bump drain 3-per-visit against a
  // competitor.
  Executor ex({.threads = 1});
  auto gate_tenant = ex.CreateTenant();
  auto a = ex.CreateTenant();
  auto b = ex.CreateTenant();
  CompletionLog log;

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  gate_tenant->Submit([opened] { opened.wait(); });

  a->SetWeight(3);
  EXPECT_EQ(a->weight(), 3u);
  for (int i = 0; i < 9; ++i) {
    a->Submit([&log, i] { log.Note("a" + std::to_string(i)); });
  }
  for (int i = 0; i < 3; ++i) {
    b->Submit([&log, i] { log.Note("b" + std::to_string(i)); });
  }
  gate.set_value();
  ASSERT_TRUE(WaitFor([&] { return ex.tasks_run() == 13; }));
  // b0 cannot run before a's first full 3-task visit completed.
  EXPECT_GE(log.IndexOf("b0"), 3u);
  // And round-robin still guarantees b finishes well before a's flood.
  EXPECT_LT(log.IndexOf("b2"), 12u);
}

TEST(ExecutorTest, DispatchRoundsAdvanceWithRotations) {
  Executor ex({.threads = 1});
  auto tenant = ex.CreateTenant();
  size_t before = ex.dispatch_rounds();
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    tenant->Submit([&ran] { ++ran; });
  }
  ASSERT_TRUE(WaitFor([&] { return ran.load() == 16; }));
  // A single weight-1 tenant forces a full rotation per task.
  EXPECT_GE(ex.dispatch_rounds(), before + 16);
}

TEST(ExecutorTest, IdleReclaimFiresAfterThresholdAndRearmsOnActivity) {
  Executor ex({.threads = 2});
  auto busy = ex.CreateTenant();
  auto idle = ex.CreateTenant();
  std::atomic<int> reclaimed{0};
  idle->SetIdleReclaim(3, [&reclaimed] { ++reclaimed; });

  // Other tenants' dispatch advances the round clock; after >= 3 rounds
  // without NoteActivity the callback fires — exactly once until
  // activity re-arms it.
  for (int i = 0; i < 64; ++i) busy->Submit([] {});
  ASSERT_TRUE(WaitFor([&] { return reclaimed.load() == 1; }));
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(reclaimed.load(), 1);  // does not re-fire while still idle

  idle->NoteActivity();  // re-arm; more dispatch crosses the threshold again
  for (int i = 0; i < 64; ++i) busy->Submit([] {});
  ASSERT_TRUE(WaitFor([&] { return reclaimed.load() == 2; }));

  // Clearing the policy stops further fires.
  idle->SetIdleReclaim(0, nullptr);
  int at_clear = reclaimed.load();
  for (int i = 0; i < 64; ++i) busy->Submit([] {});
  ASSERT_TRUE(WaitFor([&] { return ex.tasks_run() >= 192; }));
  EXPECT_EQ(reclaimed.load(), at_clear);
}

TEST(ExecutorTest, ReclaimTickSignalsFireStalestTenantAfterItsPatience) {
  // The waiter-driven trigger: with the pool fully stalled, rounds do
  // not advance on their own (no timer), so armed policies stay
  // dormant. Contention signals (RequestReclaimTick) stand in for
  // dispatch rounds: a tenant fires only after ~idle_rounds
  // consecutive signals without activity — the smaller-patience tenant
  // first, one tenant per signal, round clock untouched. A lone signal
  // can only mark, never fire.
  Executor ex({.threads = 1});
  auto stale = ex.CreateTenant();
  auto fresh = ex.CreateTenant();
  std::atomic<int> stale_reclaims{0};
  std::atomic<int> fresh_reclaims{0};
  stale->SetIdleReclaim(25, [&stale_reclaims] { ++stale_reclaims; });
  fresh->SetIdleReclaim(60, [&fresh_reclaims] { ++fresh_reclaims; });

  // Stalled pool: nothing fires without tick requests, and one request
  // alone only marks.
  size_t rounds_before = ex.dispatch_rounds();
  ex.RequestReclaimTick();
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(stale_reclaims.load(), 0);
  EXPECT_EQ(fresh_reclaims.load(), 0);

  // Repeated signals (what a blocked governor Acquire delivers in
  // production) cross the smaller patience first; the round clock
  // stays put throughout.
  auto signal_until = [&ex](auto fired) {
    auto until = std::chrono::steady_clock::now() + 10s;
    while (!fired()) {
      if (std::chrono::steady_clock::now() > until) return false;
      ex.RequestReclaimTick();
      std::this_thread::sleep_for(1ms);
    }
    return true;
  };
  ASSERT_TRUE(signal_until([&] { return stale_reclaims.load() == 1; }));
  EXPECT_EQ(ex.dispatch_rounds(), rounds_before);
  EXPECT_EQ(fresh_reclaims.load(), 0);  // patience 60 not yet met

  // Further signals eventually peel off the higher-patience tenant too.
  ASSERT_TRUE(signal_until([&] { return fresh_reclaims.load() == 1; }));
  EXPECT_EQ(stale_reclaims.load(), 1);  // still one-shot until re-armed

  // With every policy fired, further requests are no-ops.
  ex.RequestReclaimTick();
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(stale_reclaims.load(), 1);
  EXPECT_EQ(fresh_reclaims.load(), 1);
}

TEST(ExecutorTest, ReclaimTickNeverFiresTenantsActiveBetweenSignals) {
  // The mark/confirm protocol's point: a tenant that keeps draining
  // (NoteActivity between signals) resets its inactivity window and is
  // never reclaimed by contention — even with a far smaller patience —
  // while a genuinely idle one yields; once the active tenant stops,
  // it yields too.
  Executor ex({.threads = 1});
  auto stale = ex.CreateTenant();
  auto active = ex.CreateTenant();
  std::atomic<int> stale_reclaims{0};
  std::atomic<int> active_reclaims{0};
  stale->SetIdleReclaim(25, [&stale_reclaims] { ++stale_reclaims; });
  active->SetIdleReclaim(5, [&active_reclaims] { ++active_reclaims; });

  // Keep `active` draining across the whole signal storm: its mark can
  // never age 5 signals, so the idle `stale` tenant yields first
  // despite needing 5× the patience.
  auto until = std::chrono::steady_clock::now() + 10s;
  while (stale_reclaims.load() == 0 &&
         std::chrono::steady_clock::now() < until) {
    active->NoteActivity();
    ex.RequestReclaimTick();
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(stale_reclaims.load(), 1);
  EXPECT_EQ(active_reclaims.load(), 0);

  // Once `active` stops draining, its patience window can finally
  // elapse and it yields as well.
  while (active_reclaims.load() == 0 &&
         std::chrono::steady_clock::now() < until) {
    ex.RequestReclaimTick();
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(active_reclaims.load(), 1);
  EXPECT_EQ(stale_reclaims.load(), 1);
}

TEST(ExecutorTest, DeadlineClassDrainsEarliestEnqueuedFirst) {
  // Three same-weight deadline tenants plus a non-deadline bystander.
  // Within the class, claims follow global enqueue order regardless of
  // which queue the cursor anchors on; the bystander keeps plain
  // round-robin; per-tenant FIFO holds everywhere.
  Executor ex({.threads = 1});
  auto gate_tenant = ex.CreateTenant();
  auto a = ex.CreateTenant({.weight = 2, .deadline = true});
  auto b = ex.CreateTenant({.weight = 2, .deadline = true});
  auto c = ex.CreateTenant({.weight = 2, .deadline = true});
  auto plain = ex.CreateTenant();  // weight 1, no deadline
  CompletionLog log;

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  gate_tenant->Submit([opened] { opened.wait(); });

  // Enqueue out of cursor order: c first, then b, then a.
  c->Submit([&log] { log.Note("c0"); });
  c->Submit([&log] { log.Note("c1"); });
  b->Submit([&log] { log.Note("b0"); });
  a->Submit([&log] { log.Note("a0"); });
  a->Submit([&log] { log.Note("a1"); });
  plain->Submit([&log] { log.Note("p0"); });
  gate.set_value();
  ASSERT_TRUE(WaitFor([&] { return ex.tasks_run() == 7; }));

  // EDF across the class: enqueue order c0 c1 b0 a0 a1 — even though
  // the cursor visits a's queue first.
  EXPECT_LT(log.IndexOf("c0"), log.IndexOf("c1"));
  EXPECT_LT(log.IndexOf("c1"), log.IndexOf("b0"));
  EXPECT_LT(log.IndexOf("b0"), log.IndexOf("a0"));
  EXPECT_LT(log.IndexOf("a0"), log.IndexOf("a1"));
}

TEST(ExecutorTest, DeadlineClassesSplitByWeight) {
  // Deadline tenants of different weights are different classes: a
  // weight-1 deadline tenant's older task does not jump into a
  // weight-2 class visit.
  Executor ex({.threads = 1});
  auto gate_tenant = ex.CreateTenant();
  auto w2a = ex.CreateTenant({.weight = 2, .deadline = true});
  auto w2b = ex.CreateTenant({.weight = 2, .deadline = true});
  auto w1 = ex.CreateTenant({.weight = 1, .deadline = true});
  CompletionLog log;

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  gate_tenant->Submit([opened] { opened.wait(); });

  w1->Submit([&log] { log.Note("w1-0"); });    // oldest stamp overall
  w2b->Submit([&log] { log.Note("w2b-0"); });
  w2a->Submit([&log] { log.Note("w2a-0"); });
  gate.set_value();
  ASSERT_TRUE(WaitFor([&] { return ex.tasks_run() == 4; }));

  // The cursor reaches w2a first; its class = {w2a, w2b}, whose oldest
  // head is w2b's — w1's older task belongs to another class and waits
  // for its own visit.
  EXPECT_LT(log.IndexOf("w2b-0"), log.IndexOf("w2a-0"));
  EXPECT_LT(log.IndexOf("w2b-0"), log.IndexOf("w1-0"));
}

TEST(ExecutorTest, DeadlineClassFollowsWeightChange) {
  // SetWeight moves a deadline tenant into the new weight's class: its
  // tasks join that class's EDF pool and leave the old one. Pins the
  // per-class registry the O(class) claim scans — a stale entry would
  // either leak b's head into the w2 class or lose it from the w3 one.
  Executor ex({.threads = 1});
  auto gate_tenant = ex.CreateTenant();
  auto a = ex.CreateTenant({.weight = 2, .deadline = true});
  auto b = ex.CreateTenant({.weight = 2, .deadline = true});
  auto c = ex.CreateTenant({.weight = 3, .deadline = true});
  CompletionLog log;

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  gate_tenant->Submit([opened] { opened.wait(); });

  b->SetWeight(3);  // b leaves {a, b} (w2) and joins {c} (w3)
  c->Submit([&log] { log.Note("c0"); });
  b->Submit([&log] { log.Note("b0"); });
  a->Submit([&log] { log.Note("a0"); });
  gate.set_value();
  ASSERT_TRUE(WaitFor([&] { return ex.tasks_run() == 4; }));

  // The cursor visits a first; its class is now {a} alone, so a0 runs
  // before the older c0/b0 (those belong to the w3 class, where EDF
  // still holds: c0's older stamp precedes b0).
  EXPECT_LT(log.IndexOf("a0"), log.IndexOf("c0"));
  EXPECT_LT(log.IndexOf("c0"), log.IndexOf("b0"));
}

TEST(ExecutorTest, DeadlineUrgentTasksLeadTheClass) {
  // Urgent submissions stamp ahead of every normal one, so a blocked
  // consumer's refill is the class's next claim even from the youngest
  // queue.
  Executor ex({.threads = 1});
  auto gate_tenant = ex.CreateTenant();
  auto a = ex.CreateTenant({.weight = 2, .deadline = true});
  auto b = ex.CreateTenant({.weight = 2, .deadline = true});
  CompletionLog log;

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  gate_tenant->Submit([opened] { opened.wait(); });

  a->Submit([&log] { log.Note("a0"); });
  a->Submit([&log] { log.Note("a1"); });
  b->Submit([&log] { log.Note("b0"); });
  b->SubmitUrgent([&log] { log.Note("b-urgent"); });
  gate.set_value();
  ASSERT_TRUE(WaitFor([&] { return ex.tasks_run() == 5; }));

  // b-urgent outranks a0 despite a0's older normal stamp; b's own FIFO
  // then resumes (urgent still precedes b0 in its own queue).
  EXPECT_EQ(log.IndexOf("b-urgent"), 0u);
  EXPECT_LT(log.IndexOf("a0"), log.IndexOf("a1"));
  EXPECT_LT(log.IndexOf("b-urgent"), log.IndexOf("b0"));
}

TEST(ExecutorTest, SubmitUrgentJumpsItsOwnQueueOnly) {
  Executor ex({.threads = 1});
  auto gate_tenant = ex.CreateTenant();
  auto tenant = ex.CreateTenant();
  CompletionLog log;

  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  gate_tenant->Submit([opened] { opened.wait(); });

  tenant->Submit([&log] { log.Note("a"); });
  tenant->Submit([&log] { log.Note("b"); });
  tenant->SubmitUrgent([&log] { log.Note("urgent1"); });
  tenant->SubmitUrgent([&log] { log.Note("urgent2"); });
  gate.set_value();
  ASSERT_TRUE(WaitFor([&] { return ex.tasks_run() == 5; }));
  // The urgent band precedes every normal task and is FIFO within
  // itself — the queue front is always the oldest urgent stamp, which
  // is what deadline-class dispatch compares across tenants.
  EXPECT_EQ(log.Get(),
            (std::vector<std::string>{"urgent1", "urgent2", "a", "b"}));
}

TEST(ExecutorTest, TenantDtorDiscardsQueuedAndWaitsForRunning) {
  Executor ex({.threads = 1});
  auto tenant = ex.CreateTenant();
  std::atomic<bool> long_task_done{false};
  std::atomic<int> discarded_ran{0};
  std::promise<void> started;

  tenant->Submit([&] {
    started.set_value();
    std::this_thread::sleep_for(50ms);
    long_task_done = true;
  });
  for (int i = 0; i < 5; ++i) {
    tenant->Submit([&] { ++discarded_ran; });
  }
  started.get_future().wait();  // the long task is running
  tenant.reset();               // must wait for it, discard the rest
  EXPECT_TRUE(long_task_done.load());
  EXPECT_EQ(discarded_ran.load(), 0);
  EXPECT_EQ(ex.tenants(), 0u);
}

TEST(ExecutorTest, ZeroThreadExecutorConstructsButRunsNothing) {
  Executor ex({.threads = 0});
  EXPECT_EQ(ex.threads(), 0u);
  auto tenant = ex.CreateTenant();
  std::atomic<int> ran{0};
  tenant->Submit([&] { ++ran; });
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(tenant->queued(), 1u);
  // Dtor discards the queued task without hanging.
}

TEST(ExecutorTest, ManyThreadsRunTenantsConcurrently) {
  Executor ex({.threads = 4});
  EXPECT_EQ(ex.threads(), 4u);
  std::vector<std::unique_ptr<Executor::Tenant>> tenants;
  std::atomic<int> done{0};
  for (int t = 0; t < 4; ++t) {
    tenants.push_back(ex.CreateTenant());
    for (int i = 0; i < 16; ++i) {
      tenants.back()->Submit([&done] { ++done; });
    }
  }
  ASSERT_TRUE(WaitFor([&] { return done.load() == 64; }));
  // A worker counts its task after the task returns, so the last count
  // may trail `done` briefly.
  EXPECT_TRUE(WaitFor([&] { return ex.tasks_run() == 64u; }))
      << ex.tasks_run();
  EXPECT_EQ(ex.tenants(), 4u);
}

TEST(ExecutorTest, TenantsMayOutliveTheExecutor) {
  std::unique_ptr<Executor::Tenant> tenant;
  {
    Executor ex({.threads = 2});
    tenant = ex.CreateTenant();
    std::atomic<int> ran{0};
    tenant->Submit([&] { ++ran; });
    ASSERT_TRUE(WaitFor([&] { return ran.load() == 1; }));
  }
  // Executor gone: submissions queue forever but nothing crashes.
  tenant->Submit([] {});
  EXPECT_EQ(tenant->queued(), 1u);
  tenant.reset();
}

}  // namespace
}  // namespace bgps::core
