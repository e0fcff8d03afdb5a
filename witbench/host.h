// witbench host-speed probe: scales every reported time to one reference
// host speed.
//
// The benchmark runs on a shared host whose speed drifts. On the 4-vCPU VM
// the benchmark was defined on, a fixed single-thread loop took anywhere from
// its quiet time to twice that, in stretches of 5 to 20 s; thread CPU time
// equalled wall time and steal time stayed flat, so neighbours slow the
// cores' caches and memory rather than preempt the benchmark. Over 30 s
// windows that loop's mean time alone spread 26% (quartile distance over
// median), more than any bound a regression check could use.
//
// So the benchmark times a fixed amount of its own work on every vCPU
// between segments, and divides a segment's times by the host slowdown: the
// mean of the probes just before and just after the segment, over
// kReferenceProbeMs. Rates are multiplied by it. The probe touches only
// buffers it allocated up front, so nothing the program under test does to
// the heap changes what it measures, and a change to the program moves the
// scaled figures exactly as it moves the raw ones.

#ifndef WITBENCH_HOST_H_
#define WITBENCH_HOST_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace witbench {

// The probe's per-thread time on a quiet host (4-vCPU VM, RelWithDebInfo);
// a slowdown of 1.0 means the host ran at that speed.
constexpr double kReferenceProbeMs = 20.0;

// Slowdown of a segment bracketed by probes of `before_ms` and `after_ms`.
inline double HostSlowdown(double before_ms, double after_ms) {
  return (before_ms + after_ms) / 2.0 / kReferenceProbeMs;
}

class HostProbe {
 public:
  explicit HostProbe(size_t threads) : bufs_(threads) {}

  // Runs the fixed work once on every probe thread at the same time and
  // returns the mean per-thread wall time in ms.
  double Measure() {
    std::vector<double> ms(bufs_.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < bufs_.size(); ++i) {
      threads.emplace_back([this, i, &ms] { ms[i] = Work(&bufs_[i]); });
    }
    for (auto& t : threads) {
      t.join();
    }
    double sum = 0.0;
    for (double v : ms) {
      sum += v;
    }
    return sum / static_cast<double>(ms.size());
  }

  // Probes before the first segment and after each one; returns the
  // slowdown `segment` ran under.
  template <typename F>
  double Time(F&& segment) {
    if (last_ms_ <= 0.0) {
      last_ms_ = Measure();
    }
    segment();
    const double now_ms = Measure();
    const double slowdown = HostSlowdown(last_ms_, now_ms);
    last_ms_ = now_ms;
    return slowdown;
  }

 private:
  static constexpr uint32_t kTableBits = 19;  // 4 MiB of counters
  static constexpr size_t kSortLen = 1u << 15;
  static constexpr int kRounds = 4;

  struct Buffers {
    std::vector<uint64_t> table = std::vector<uint64_t>(size_t{1} << kTableBits);
    std::vector<uint32_t> keys = std::vector<uint32_t>(kSortLen);
    std::vector<uint32_t> sorted = std::vector<uint32_t>(kSortLen);
  };

  // Scattered read-modify-writes over a table larger than a core's private
  // caches, then a sort: cache- and memory-bound like the program's maps.
  static double Work(Buffers* b) {
    const auto t0 = std::chrono::steady_clock::now();
    uint64_t h = 0x9E3779B97F4A7C15ull;
    const uint64_t mask = (uint64_t{1} << kTableBits) - 1;
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < 400000; ++i) {
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
        b->table[h & mask] += h;
      }
      for (uint32_t& k : b->keys) {
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
        k = static_cast<uint32_t>(h);
      }
      std::copy(b->keys.begin(), b->keys.end(), b->sorted.begin());
      std::sort(b->sorted.begin(), b->sorted.end());
    }
    volatile uint64_t sink = b->table[h & mask] + b->sorted[kSortLen / 2];
    (void)sink;
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
  }

  std::vector<Buffers> bufs_;
  double last_ms_ = 0.0;
};

}  // namespace witbench

#endif  // WITBENCH_HOST_H_
