// witbench arithmetic: exact percentiles over raw samples, span self time
// and the per-layer reconciliation. Header-only and free of any WatchIT
// dependency so witbench_selftest can pin it down.

#ifndef WITBENCH_LEDGER_H_
#define WITBENCH_LEDGER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace witbench {

// A sample that never completed (refused, failed): it misses every limit,
// so it sorts above every measured value.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

// Nearest-rank percentile of `sorted` (ascending), p in (0, 100]: the
// smallest sample with at least p% of the samples at or below it.
inline double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

// The highest percentile that still has at least `beyond` samples above
// its nearest-rank position: 100 * (n - beyond) / n, or 0 when n <= beyond.
inline double SupportedPercentile(size_t n, size_t beyond = 10) {
  if (n <= beyond) {
    return 0.0;
  }
  return 100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
}

struct Summary {
  size_t n = 0;
  size_t missed = 0;  // samples that never completed
  double p50 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;  // over completed samples
  double supported_pct = 0.0;
};

inline Summary Summarize(std::vector<double> samples) {
  Summary s;
  std::sort(samples.begin(), samples.end());
  s.n = samples.size();
  double sum = 0.0;
  for (double v : samples) {
    if (std::isinf(v)) {
      ++s.missed;
    } else {
      sum += v;
    }
  }
  s.p50 = Percentile(samples, 50.0);
  s.p99 = Percentile(samples, 99.0);
  s.mean = s.n > s.missed ? sum / static_cast<double>(s.n - s.missed) : 0.0;
  s.supported_pct = SupportedPercentile(s.n);
  return s;
}

// One recorded span: [start_ns, end_ns) with the index of its parent in the
// same vector (-1 for a root).
struct SpanRec {
  uint32_t name = 0;
  int32_t parent = -1;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// Self time per span: its duration minus the part of its interval covered by
// the union of its direct children (children may overlap each other or run
// past the parent; only the covered part inside the parent counts once).
inline std::vector<uint64_t> SelfTimes(const std::vector<SpanRec>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(spans.size());
  for (const SpanRec& span : spans) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size()) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t lo = spans[i].start_ns;
    const uint64_t hi = std::max(spans[i].end_ns, lo);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cursor = lo;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

// One term of the reconciliation: an isolated per-call cost times how many
// calls a ticket makes.
struct LedgerTerm {
  std::string layer;
  double cost_us = 0.0;
  double calls_per_ticket = 0.0;
};

struct Reconciliation {
  double predicted_us = 0.0;  // sum of cost x calls
  double measured_us = 0.0;   // traced wall per ticket
  double gap_pct = 0.0;       // (measured - predicted) / measured
  bool finding = false;       // |gap| above the 15% threshold
};

inline Reconciliation Reconcile(const std::vector<LedgerTerm>& terms, double measured_us,
                                double threshold_pct = 15.0) {
  Reconciliation r;
  for (const LedgerTerm& term : terms) {
    r.predicted_us += term.cost_us * term.calls_per_ticket;
  }
  r.measured_us = measured_us;
  r.gap_pct = measured_us > 0.0 ? 100.0 * (measured_us - r.predicted_us) / measured_us : 0.0;
  r.finding = std::fabs(r.gap_pct) > threshold_pct;
  return r;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Metrics in the order they were added; the driver prints them by name.
struct Metrics {
  std::vector<Metric> list;
  void Add(std::string name, double value, std::string unit) {
    list.push_back({std::move(name), value, std::move(unit)});
  }
};

// FNV-1a, for the input-stream fingerprint printed with every result.
inline uint64_t Fnv1a(std::string_view data, uint64_t hash = 14695981039346656037ull) {
  for (char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace witbench

#endif  // WITBENCH_LEDGER_H_
