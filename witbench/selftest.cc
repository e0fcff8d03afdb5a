// Tests for witbench's own arithmetic (ledger.h, host.h): the percentile
// rule, span self time with overlapping children, the reconciliation, the
// input fingerprint and the host-slowdown scaling. Exits nonzero when any check failed. Metric names are
// checked by run.py, which emits and validates them.

#include <cmath>
#include <cstdio>
#include <vector>

#include "witbench/host.h"
#include "witbench/ledger.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) {
    v.push_back(i);
  }
  Check(Near(witbench::Percentile(v, 50), 50), "p50 of 1..100 is 50");
  Check(Near(witbench::Percentile(v, 99), 99), "p99 of 1..100 is 99");
  Check(Near(witbench::Percentile(v, 100), 100), "p100 is the max");
  Check(Near(witbench::Percentile(v, 0.1), 1), "tiny p is the min");
  Check(Near(witbench::Percentile({7.0}, 99), 7), "one sample answers every p");
  Check(witbench::Percentile({}, 50) == 0.0, "empty gives 0");
  // 1000 samples support p99 with exactly 10 beyond it; 999 do not.
  Check(Near(witbench::SupportedPercentile(1000), 99.0), "1000 samples support p99");
  Check(witbench::SupportedPercentile(999) < 99.0, "999 samples do not support p99");
  Check(witbench::SupportedPercentile(10) == 0.0, "10 samples support nothing");
  // Missed samples sort last and count against the tail.
  std::vector<double> lat(98, 1.0);
  lat.push_back(witbench::kMissed);
  lat.push_back(witbench::kMissed);
  witbench::Summary s = witbench::Summarize(lat);
  Check(s.n == 100 && s.missed == 2, "summary counts missed samples");
  Check(std::isinf(s.p99), "two missed in 100 put p99 past any limit");
  Check(Near(s.p50, 1.0), "missed samples do not move p50 here");
  Check(Near(s.mean, 1.0), "mean is over completed samples");
  // Order of input does not matter.
  witbench::Summary r = witbench::Summarize({5, 1, 4, 2, 3});
  Check(Near(r.p50, 3), "summary sorts its input");
}

void TestSelfTime() {
  using witbench::SpanRec;
  // root [0,100) with children [10,40) and [30,60) overlapping, plus a child
  // running past the parent [90,120): covered = [10,60) + [90,100) = 60.
  std::vector<SpanRec> spans = {
      {0, -1, 0, 100}, {1, 0, 10, 40}, {2, 0, 30, 60}, {3, 0, 90, 120},
      // grandchild inside child 1 only shortens child 1.
      {4, 1, 15, 25},
  };
  std::vector<uint64_t> self = witbench::SelfTimes(spans);
  Check(self[0] == 40, "root self = 100 - union(children) = 40");
  Check(self[1] == 20, "child self excludes its own child");
  Check(self[2] == 30, "overlapping sibling keeps its full self");
  Check(self[3] == 30, "leaf past the parent keeps its own duration");
  Check(self[4] == 10, "leaf self is its duration");
  // Nested identical children count once.
  std::vector<SpanRec> same = {{0, -1, 0, 10}, {1, 0, 2, 8}, {2, 0, 2, 8}};
  Check(witbench::SelfTimes(same)[0] == 4, "duplicate children covered once");
}

void TestReconcile() {
  std::vector<witbench::LedgerTerm> terms = {{"a", 10.0, 2.0}, {"b", 5.0, 1.0}};
  witbench::Reconciliation r = witbench::Reconcile(terms, 25.0);
  Check(Near(r.predicted_us, 25.0), "predicted = sum cost x calls");
  Check(Near(r.gap_pct, 0.0) && !r.finding, "exact match is no finding");
  r = witbench::Reconcile(terms, 40.0);
  Check(Near(r.gap_pct, 37.5) && r.finding, "a 37.5% gap is a finding");
  r = witbench::Reconcile(terms, 28.0);
  Check(!r.finding, "a gap under 15% is not a finding");
}

void TestFingerprint() {
  Check(witbench::Fnv1a("") == 14695981039346656037ull, "fnv of empty is the basis");
  Check(witbench::Fnv1a("a") != witbench::Fnv1a("b"), "fnv separates inputs");
}

void TestHostSlowdown() {
  const double ref = witbench::kReferenceProbeMs;
  Check(Near(witbench::HostSlowdown(ref, ref), 1.0), "probes at the reference give 1");
  Check(Near(witbench::HostSlowdown(ref, 2 * ref), 1.5), "a segment takes the mean of its probes");
  witbench::HostProbe probe(2);
  int runs = 0;
  const double first = probe.Time([&] { ++runs; });
  const double second = probe.Time([&] { ++runs; });
  Check(runs == 2, "Time runs the segment once");
  Check(first > 0.0 && second > 0.0 && std::isfinite(first) && std::isfinite(second),
        "slowdowns are positive and finite");
}

}  // namespace

int main() {
  TestPercentiles();
  TestSelfTime();
  TestReconcile();
  TestFingerprint();
  TestHostSlowdown();
  if (failures != 0) {
    std::fprintf(stderr, "witbench_selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("witbench_selftest: all checks passed\n");
  return 0;
}
