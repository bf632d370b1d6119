// Tests of the benchmark's own arithmetic on hand-built inputs: the
// percentile rule, span self time, due-time latency, and the delivery
// comparison behind failed_ratio (including a corrupted oracle).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "fingerprint.hpp"
#include "measure.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(double(i));
  return v;
}

void PercentileRule() {
  // p99 of 1000 samples is rank 990: exactly 10 samples lie beyond it.
  Expect(PercentileSupported(1000, 99), "p99 supported at n=1000");
  Expect(!PercentileSupported(999, 99), "p99 unsupported at n=999");
  Expect(PercentileOfSorted(OneTo(1000), 99) == 990, "p99 of 1..1000");
  Expect(PercentileOfSorted(OneTo(1000), 50) == 500, "p50 of 1..1000");
  // 100 samples support p90 (10 beyond) but not p95 (5 beyond).
  Expect(PercentileSupported(100, 90) && !PercentileSupported(100, 95),
         "n=100 supports p90, not p95");
  Expect(PercentileOfSorted(OneTo(100), 90) == 90, "p90 of 1..100");
  // 10 000 samples support p99.9 (rank 9990).
  Expect(PercentileSupported(10000, 99.9) &&
             PercentileOfSorted(OneTo(10000), 99.9) == 9990,
         "p99.9 of 1..10000");
  // Ten samples support no percentile at all.
  Expect(!PercentileSupported(10, 1), "n=10 supports none");
  Expect(Median({3, 1, 2}) == 2 && Median({4, 1, 2, 3}) == 2.5, "median");
}

void SpanSelfTime() {
  // Parent [0,100]; children [10,30] and [20,50] overlap (covered once:
  // 40) and [90,120] sticks out of the parent (clipped: 10).
  std::vector<Span> spans = {{"parent", -1, 0, 0, 100},
                             {"a", 0, 0, 10, 30},
                             {"b", 0, 0, 20, 50},
                             {"c", 0, 0, 90, 120},
                             {"grandchild", 1, 0, 12, 18}};
  auto self = SelfTimes(spans);
  Expect(self[0] == 50, "parent self = 100 - 40 - 10");
  Expect(self[1] == 14, "child self = 20 - grandchild 6");
  Expect(self[2] == 30 && self[3] == 30 && self[4] == 6, "leaf self times");

  // The recorder links nested scopes on one thread.
  Tracer tracer(true);
  {
    Tracer::Scope outer(&tracer, "outer", 7);
    Tracer::Scope inner(&tracer, "inner", 7);
  }
  { Tracer::Scope again(&tracer, "outer", 8); }
  auto totals = tracer.Totals();
  Expect(totals["outer"].count == 2 && totals["inner"].count == 1,
         "span counts");
  Expect(totals["outer"].self_ns <= totals["outer"].total_ns -
                                        totals["inner"].total_ns,
         "outer self excludes inner");
  Tracer off(false);
  { Tracer::Scope s(&off, "x", 0); }
  Expect(off.span_count() == 0, "disabled tracer records nothing");
}

void DueTimeLatency() {
  Schedule s{1'000'000'000, 1000};  // one item per millisecond
  Expect(s.Due(0) == 1'000'000'000 && s.Due(5) == 1'005'000'000, "due times");
  // Item 3 stalls until 10 ms; item 4, due at 4 ms, is served right after
  // it: its latency counts the stall it waited behind.
  Expect(LatencyMs(s.Due(3), 1'010'000'000) == 7.0, "stalled item");
  Expect(LatencyMs(s.Due(4), 1'010'100'000) == 6.1, "item behind the stall");
}

bgps::core::Record HandRecord(bgps::Timestamp ts) {
  bgps::core::Record r;
  r.project = "p";
  r.collector = "c";
  r.timestamp = ts;
  return r;
}

std::vector<bgps::core::Elem> HandElems(const std::string& pfx) {
  bgps::core::Elem e;
  e.type = bgps::core::ElemType::Announcement;
  e.prefix = *bgps::Prefix::Parse(pfx);
  e.as_path = bgps::bgp::AsPath::Sequence({65001, 3356});
  return {e};
}

void FingerprintComparison() {
  auto r = HandRecord(100);
  uint64_t a = RecordFingerprint(r, HandElems("10.0.0.0/8"));
  Expect(a == RecordFingerprint(r, HandElems("10.0.0.0/8")),
         "equal bytes, equal fingerprint");
  Expect(a != RecordFingerprint(r, HandElems("10.0.0.0/9")),
         "prefix change shows");
  Expect(a != RecordFingerprint(HandRecord(101), HandElems("10.0.0.0/8")),
         "timestamp change shows");
  Expect(a != RecordFingerprint(r, {}), "dropped elem shows");

  std::vector<Delivery> expected = {{0, 1}, {1, 2}, {2, 3}};
  Mismatch m = CompareDeliveries(expected, expected);
  Expect(m.failed() == 0 && m.expected == 3, "identical deliveries pass");
  // Key 1 differs, key 3 is extra, key 0 arrives twice, key 2 is missing.
  m = CompareDeliveries(expected, {{0, 1}, {1, 9}, {3, 4}, {0, 1}});
  Expect(m.different == 1 && m.extra == 2 && m.missing == 1 &&
             m.failed() == 4,
         "mismatch kinds");

  // A corrupted oracle makes failed_ratio non-zero against a correct run.
  std::vector<Delivery> got, oracle;
  for (uint64_t i = 0; i < 4; ++i) {
    auto rec = HandRecord(bgps::Timestamp(100 + i));
    uint64_t fp = RecordFingerprint(rec, HandElems("10.0.0.0/8"));
    got.push_back({i, fp});
    oracle.push_back({i, fp});
  }
  oracle[2].fp ^= 1;
  m = CompareDeliveries(oracle, got);
  double failed_ratio = double(m.failed()) / double(m.expected);
  Expect(failed_ratio == 0.25, "corrupted oracle entry is one failure of 4");
}

}  // namespace

int main() {
  PercentileRule();
  SpanSelfTime();
  DueTimeLatency();
  FingerprintComparison();
  if (failures == 0) std::printf("perfbench_measure_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
