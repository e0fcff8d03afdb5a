// witbench: WatchIT's end-to-end and per-layer benchmark.
//
//   witbench --workload helpdesk|deploy_churn|admin_session --seed N
//            --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 runs the workload's timed phases and prints every end-to-end
// metric; --trace 1 drives the same inputs through the public functions on
// the benchmark's own threads, with spans, and prints the per-layer ledger.
// Every time is taken outside the program, around calls into its modules;
// the program itself is unchanged. End-to-end times and rates are scaled to
// a reference host speed measured between segments (host.h). The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 only when the
// correctness gate held.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "witbench/env.h"
#include "witbench/host.h"
#include "witbench/layers.h"
#include "witbench/ledger.h"
#include "witbench/phases.h"
#include "witbench/plans.h"

#ifndef WITBENCH_BUILD_TYPE
#define WITBENCH_BUILD_TYPE "unknown"
#endif

namespace witbench {
namespace {

struct Args {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return args->workload == "helpdesk" || args->workload == "deploy_churn" ||
         args->workload == "admin_session";
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : Percentile(v, 50.0);
}

void PrintSummary(const char* what, const char* unit, const Summary& s) {
  std::printf("  %-22s n=%zu missed=%zu p50=%.4g p99=%.4g %s (highest supported pct %.3f)\n",
              what, s.n, s.missed, s.p50, s.p99, unit, s.supported_pct);
}

void PrintPhase(const char* name, uint64_t sent, uint64_t ok, uint64_t failed) {
  std::printf("  phase %-16s sent=%llu succeeded=%llu failed=%llu\n", name,
              static_cast<unsigned long long>(sent), static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(failed));
}

// Everything one run reports.
struct Report {
  Metrics metrics;
  GateReport gate;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  InputHash hash;
  std::vector<double> setups;
};

void GatePool(Env* env, const std::string& phase, const PoolResult& r, GateReport* gate) {
  CheckQuiescent(env, phase, gate);
  if (r.pool_served + r.pool_failed != r.pool_submitted) {
    gate->violations.push_back(phase + ": served+failed=" +
                               std::to_string(r.pool_served + r.pool_failed) +
                               " != submitted=" + std::to_string(r.pool_submitted));
  }
  if (r.clock_violations != 0) {
    gate->violations.push_back(phase + ": pool clock_ownership_violations=" +
                               std::to_string(r.clock_violations));
  }
}

void GateAdmin(Env* env, const std::string& phase, const AdminResult& r, GateReport* gate) {
  CheckQuiescent(env, phase, gate);
  if (r.mismatches != 0 || r.deploy_failures != 0) {
    std::string first;
    for (const auto& t : r.threads) {
      if (!t.first_mismatch.empty()) {
        first = t.first_mismatch;
        break;
      }
    }
    gate->violations.push_back(phase + ": " + std::to_string(r.mismatches) +
                               " command outcome(s) differ from the plan, " +
                               std::to_string(r.deploy_failures) + " deploy failure(s)" +
                               (first.empty() ? "" : " (first: " + first + ")"));
  }
}

// Command samples of one admin segment; rates are per segment, latency
// percentiles are taken over the samples of every segment together.
struct OpSegment {
  double ops_per_s = 0.0;
  std::vector<double> ops_us;
  std::vector<double> pb_us;
  // Per command kind and verdict: index 2 * kind + (allowed ? 0 : 1).
  std::vector<std::vector<double>> by_kind = std::vector<std::vector<double>>(2 * kNumCmdKinds);

  // Scales the segment to the reference host speed (see host.h).
  void Scale(double slowdown) {
    ops_per_s *= slowdown;
    for (std::vector<double>* v : {&ops_us, &pb_us}) {
      for (double& x : *v) {
        x /= slowdown;
      }
    }
    for (auto& v : by_kind) {
      for (double& x : v) {
        x /= slowdown;
      }
    }
  }
};

OpSegment OpMetrics(const AdminResult& r) {
  OpSegment seg;
  for (const auto& t : r.threads) {
    for (const OpSample& s : t.ops) {
      seg.ops_us.push_back(s.us);
      if (s.pb) {
        seg.pb_us.push_back(s.us);
      }
      seg.by_kind[2 * s.kind + (s.ok ? 0 : 1)].push_back(s.us);
    }
  }
  seg.ops_per_s = r.wall_s > 0 ? static_cast<double>(seg.ops_us.size()) / r.wall_s : 0.0;
  return seg;
}

// Median over segments of one field.
template <typename T, typename F>
double MedianOf(const std::vector<T>& segments, F&& field) {
  std::vector<double> v;
  for (const T& s : segments) {
    v.push_back(field(s));
  }
  return Median(std::move(v));
}

void AddOpMetrics(const std::vector<OpSegment>& segs, Metrics* m) {
  std::vector<double> all;
  std::vector<double> pb;
  for (const OpSegment& s : segs) {
    all.insert(all.end(), s.ops_us.begin(), s.ops_us.end());
    pb.insert(pb.end(), s.pb_us.begin(), s.pb_us.end());
  }
  const size_t total = all.size();
  const Summary ops = Summarize(std::move(all));
  const Summary pbs = Summarize(std::move(pb));
  PrintSummary("op latency, pooled", "us", ops);
  PrintSummary("pb round trip", "us", pbs);
  // The command mix sets how much each kind weighs in the pooled figures
  // above, so every kind is printed on its own with its share.
  for (size_t k = 0; k < 2 * kNumCmdKinds; ++k) {
    std::vector<double> kind;
    for (const OpSegment& s : segs) {
      kind.insert(kind.end(), s.by_kind[k].begin(), s.by_kind[k].end());
    }
    if (kind.empty()) {
      continue;
    }
    const double share = 100.0 * static_cast<double>(kind.size()) / static_cast<double>(total);
    const std::string what = std::string("  ") + CmdKindName(static_cast<Cmd::Kind>(k / 2)) +
                             (k % 2 == 0 ? " allowed" : " denied") + " " +
                             std::to_string(static_cast<int>(share + 0.5)) + "%";
    PrintSummary(what.c_str(), "us", Summarize(std::move(kind)));
  }
  // Every segment holds enough commands for an exact p99 of its own, so the
  // command percentiles are medians over segments, like the rates; PB
  // escalations are too rare in a helpdesk segment and stay pooled.
  std::vector<Summary> per_segment;
  for (const OpSegment& s : segs) {
    per_segment.push_back(Summarize(s.ops_us));
  }
  const double p50 = MedianOf(per_segment, [](const Summary& s) { return s.p50; });
  const double p99 = MedianOf(per_segment, [](const Summary& s) { return s.p99; });
  std::printf("  %-22s median over %zu segment(s) p50=%.4g p99=%.4g us (highest pct supported "
              "in every segment %.3f)\n",
              "op latency", per_segment.size(), p50, p99,
              std::min_element(per_segment.begin(), per_segment.end(),
                               [](const Summary& a, const Summary& b) { return a.n < b.n; })
                  ->supported_pct);
  m->Add("ops_per_s", MedianOf(segs, [](const OpSegment& s) { return s.ops_per_s; }), "1/s");
  m->Add("op_p50_us", p50, "us");
  m->Add("op_p99_us", p99, "us");
  m->Add("pb_p99_us", pbs.p99, "us");
}

// Runs `segment` at least once and then again while another one is expected
// to fit in `budget_s`.
template <typename F>
void Segments(double budget_s, F&& segment) {
  const uint64_t start = NowNs();
  uint64_t longest = 0;
  for (;;) {
    const uint64_t t0 = NowNs();
    segment();
    longest = std::max(longest, NowNs() - t0);
    if (static_cast<double>(NowNs() - start + longest) / 1e9 > budget_s) {
      return;
    }
  }
}

// Runs one segment between host probes; `segment` returns its raw set-up
// seconds. Records the scaled set-up time and returns the slowdown.
template <typename F>
double ProbedSegment(HostProbe* host, Report* report, F&& segment) {
  double setup_s = 0.0;
  const double slowdown = host->Time([&] { setup_s = segment(); });
  report->setups.push_back(setup_s / slowdown);
  return slowdown;
}

void PrintHost(const std::vector<double>& slowdowns) {
  std::printf("  host slowdown over %.1f ms/probe: median %.3f, min %.3f, max %.3f over %zu "
              "segment(s); every time and rate below is scaled by it\n",
              kReferenceProbeMs, Median(slowdowns),
              *std::min_element(slowdowns.begin(), slowdowns.end()),
              *std::max_element(slowdowns.begin(), slowdowns.end()), slowdowns.size());
}

// helpdesk and deploy_churn: saturated pool, open-loop pool and admin
// threads, each in segments on fresh organizations.
void RunTicketWorkload(const Args& args, Report* report) {
  const bool churn = args.workload == "deploy_churn";
  EnvOptions env_options;
  env_options.journal = churn;
  env_options.seed = args.seed;
  const auto tickets = HelpdeskTickets(args.seed, 4000, /*with_ops=*/!churn);
  for (const auto& t : tickets) {
    report->hash.AddTicket(t);
  }
  const double rate = churn ? kChurnRate : kHelpdeskRate;
  report->hash.Add(static_cast<uint64_t>(rate));
  auto plans = MakeAdminPlans(args.workload, args.seed, tickets, &report->hash);

  // Process warm-up: one unmeasured saturated segment, so the heap pages the
  // measured segments reuse are already faulted in.
  {
    const uint64_t t0 = NowNs();
    auto env = BuildEnv(env_options);
    PoolPhase phase;
    phase.tickets = kSaturatedTickets;
    (void)RunPoolPhase(env.get(), tickets, phase);
    std::printf("  process warm-up: %.3f s (not in setup_s)\n",
                static_cast<double>(NowNs() - t0) / 1e9);
  }

  // The three phases take turns, one segment each, so a stretch of host
  // noise lands on every metric a little instead of on one metric wholly.
  // Saturated: the highest rate the pool sustains under EBUSY backpressure.
  std::vector<PoolResult> sat;
  auto saturated_segment = [&] {
    auto env = BuildEnv(env_options);
    PoolPhase phase;
    phase.tickets = kSaturatedTickets;
    phase.seed = args.seed + 1000 * static_cast<uint32_t>(sat.size());
    sat.push_back(RunPoolPhase(env.get(), tickets, phase));
    GatePool(env.get(), "saturated", sat.back(), &report->gate);
    return env->setup_s + sat.back().warmup_s;
  };
  // Open loop at the fixed offered rate.
  std::vector<Summary> lat;
  std::vector<double> late;
  uint64_t open_sent = 0, open_served = 0, open_failed = 0, refused = 0, open_unsatisfied = 0;
  uint32_t open_segments = 0;
  auto open_segment = [&] {
    auto env = BuildEnv(env_options);
    PoolPhase phase;
    phase.open_loop = true;
    phase.rate = rate;
    phase.tickets = kOpenLoopTickets;
    phase.seed = args.seed + 1000 * open_segments++;
    PoolResult r = RunPoolPhase(env.get(), tickets, phase);
    GatePool(env.get(), "open_loop", r, &report->gate);
    open_sent += r.sent;
    open_served += r.served;
    open_failed += r.failed;
    refused += r.refused;
    open_unsatisfied += r.unsatisfied;
    lat.push_back(Summarize(std::move(r.latency_ms)));
    late.insert(late.end(), r.late_ms.begin(), r.late_ms.end());
    return env->setup_s + r.warmup_s;
  };
  // Admin threads working the workload's deployments.
  std::vector<OpSegment> ops;
  std::vector<double> growth;
  uint64_t cmds = 0, mismatches = 0;
  auto admin_segment = [&] {
    auto env = BuildEnv(env_options);
    AdminResult r = RunAdminLoop(env.get(), plans, AdminSessionsPerThread(args.workload),
                                 /*traced=*/false);
    GateAdmin(env.get(), "admin", r, &report->gate);
    growth.push_back(r.cost_growth);
    ops.push_back(OpMetrics(r));
    cmds += r.cmds;
    mismatches += r.mismatches;
    return env->setup_s + r.warmup_s;
  };
  HostProbe host(kAdminThreads);
  std::vector<double> sat_slow, open_slow, slowdowns;
  Segments(args.seconds, [&] {
    sat_slow.push_back(ProbedSegment(&host, report, saturated_segment));
    open_slow.push_back(ProbedSegment(&host, report, open_segment));
    const double admin_slow = ProbedSegment(&host, report, admin_segment);
    ops.back().Scale(admin_slow);
    slowdowns.insert(slowdowns.end(), {sat_slow.back(), open_slow.back(), admin_slow});
  });
  PrintHost(slowdowns);

  uint64_t sent = 0, served = 0, failed = 0, busy = 0, unsatisfied = 0;
  for (const PoolResult& r : sat) {
    sent += r.sent;
    served += r.served;
    failed += r.failed;
    busy += r.busy_retries;
    unsatisfied += r.unsatisfied;
  }
  std::vector<double> rates;
  for (size_t i = 0; i < sat.size(); ++i) {
    rates.push_back(sat[i].tickets_per_s * sat_slow[i]);
  }
  const double tickets_per_s = Median(rates);
  const double heap = MedianOf(sat, [](const PoolResult& r) { return r.heap_kb_per_ticket; });
  PrintPhase("saturated", sent, served, failed);
  std::printf("  saturated: %zu segment(s) of %zu tickets, busy retries %llu, unsatisfied "
              "tickets %llu, median %.1f tickets/s (%.1f unscaled), heap %.3f KB/ticket\n",
              sat.size(), kSaturatedTickets, static_cast<unsigned long long>(busy),
              static_cast<unsigned long long>(unsatisfied), tickets_per_s,
              MedianOf(sat, [](const PoolResult& r) { return r.tickets_per_s; }), heap);
  report->attempted += sent;
  report->failed += failed;

  PrintPhase("open_loop", open_sent, open_served, open_failed + refused);
  std::printf("  open loop at %.0f tickets/s offered, EBUSY refusals %llu, unsatisfied tickets "
              "%llu (both counted as missed)\n",
              rate, static_cast<unsigned long long>(refused),
              static_cast<unsigned long long>(open_unsatisfied));
  size_t lat_n = 0, lat_missed = 0;
  double lat_supported = 100.0;
  std::vector<double> p50s, p99s;
  for (size_t i = 0; i < lat.size(); ++i) {
    lat_n += lat[i].n;
    lat_missed += lat[i].missed;
    lat_supported = std::min(lat_supported, lat[i].supported_pct);
    p50s.push_back(lat[i].p50 / open_slow[i]);
    p99s.push_back(lat[i].p99 / open_slow[i]);
  }
  const double p50 = Median(p50s);
  std::printf("  %-22s %zu segment(s), n=%zu missed=%zu, median over segments p50=%.4g "
              "p99=%.4g ms (unscaled p50=%.4g; highest pct supported in every segment %.3f)\n",
              "ticket due->served", lat.size(), lat_n, lat_missed, p50, Median(p99s),
              MedianOf(lat, [](const Summary& seg) { return seg.p50; }), lat_supported);
  PrintSummary("generator lateness", "ms", Summarize(std::move(late)));
  report->attempted += open_sent;
  report->failed += open_failed + refused;

  PrintPhase("admin", cmds, cmds - mismatches, mismatches);
  std::printf("  admin: %zu segment(s) of %zu deployments per thread, cost growth %.4f (median)\n",
              growth.size(), AdminSessionsPerThread(args.workload), Median(growth));
  report->attempted += cmds;
  report->failed += mismatches;

  Metrics& m = report->metrics;
  m.Add("tickets_per_s", tickets_per_s, "1/s");
  m.Add("ticket_p50_ms", p50, "ms");
  AddOpMetrics(ops, &m);
  m.Add("heap_kb_per_ticket", heap, "KB");
  m.Add("cost_growth_ratio", Median(growth), "ratio");
}

// admin_session: closed-loop admin threads in segments on fresh
// organizations; a ticket here is one deployment worked end to end.
void RunAdminWorkload(const Args& args, Report* report) {
  EnvOptions env_options;
  env_options.framework = false;
  env_options.signature = true;
  env_options.seed = args.seed;
  auto plans = MakeAdminPlans(args.workload, args.seed, {}, &report->hash);
  {
    const uint64_t t0 = NowNs();
    auto env = BuildEnv(env_options);
    (void)RunAdminLoop(env.get(), plans, AdminSessionsPerThread(args.workload), false);
    std::printf("  process warm-up: %.3f s (not in setup_s)\n",
                static_cast<double>(NowNs() - t0) / 1e9);
  }
  std::vector<double> tps;
  std::vector<double> walls;
  std::vector<double> heap;
  std::vector<double> growth;
  std::vector<OpSegment> ops;
  uint64_t cmds = 0, mismatches = 0;
  HostProbe host(kAdminThreads);
  std::vector<double> slowdowns;
  Segments(args.seconds, [&] {
    AdminResult r;
    const double slowdown = ProbedSegment(&host, report, [&] {
      auto env = BuildEnv(env_options);
      r = RunAdminLoop(env.get(), plans, AdminSessionsPerThread(args.workload),
                       /*traced=*/false);
      GateAdmin(env.get(), "admin_session", r, &report->gate);
      return env->setup_s + r.warmup_s;
    });
    slowdowns.push_back(slowdown);
    for (const auto& t : r.threads) {
      for (double ms : t.session_ms) {
        walls.push_back(ms / slowdown);
      }
    }
    tps.push_back(r.wall_s > 0 ? static_cast<double>(r.sessions) / r.wall_s * slowdown : 0.0);
    heap.push_back(r.heap_kb_per_ticket);
    growth.push_back(r.cost_growth);
    ops.push_back(OpMetrics(r));
    ops.back().Scale(slowdown);
    cmds += r.cmds;
    mismatches += r.mismatches;
  });
  PrintHost(slowdowns);
  PrintPhase("admin_session", cmds, cmds - mismatches, mismatches);
  std::printf("  %zu segment(s) of %zu deployments per thread\n", tps.size(),
              AdminSessionsPerThread(args.workload));
  const Summary wall = Summarize(std::move(walls));
  PrintSummary("deployment wall", "ms", wall);
  Metrics& m = report->metrics;
  m.Add("tickets_per_s", Median(tps), "1/s");
  m.Add("ticket_p50_ms", wall.p50, "ms");
  AddOpMetrics(ops, &m);
  m.Add("heap_kb_per_ticket", Median(heap), "KB");
  m.Add("cost_growth_ratio", Median(growth), "ratio");
  report->attempted = cmds;
  report->failed = mismatches;
}

}  // namespace
}  // namespace witbench

int main(int argc, char** argv) {
  using namespace witbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: witbench --workload helpdesk|deploy_churn|admin_session --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("witbench workload=%s seed=%u seconds=%g trace=%d nproc=%u build=%s\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0,
              std::thread::hardware_concurrency(), WITBENCH_BUILD_TYPE);

  Report report;
  if (args.trace) {
    LayerRun layers(args.workload, args.seed, args.seconds, args.trace_out);
    layers.Run(&report.metrics, &report.gate, &report.hash, &report.setups, &report.attempted,
               &report.failed);
  } else if (args.workload == "admin_session") {
    RunAdminWorkload(args, &report);
  } else {
    RunTicketWorkload(args, &report);
  }
  if (!args.trace) {
    report.metrics.Add("setup_s", Median(report.setups), "s");
    report.metrics.Add("served_ratio",
                       report.attempted > 0
                           ? 1.0 - static_cast<double>(report.failed) /
                                       static_cast<double>(report.attempted)
                           : 0.0,
                       "ratio");
  }
  std::printf("input_hash=%016llx seed=%u nproc=%u build=%s setups=%zu\n",
              static_cast<unsigned long long>(report.hash.value()), args.seed,
              std::thread::hardware_concurrency(), WITBENCH_BUILD_TYPE, report.setups.size());
  for (const std::string& v : report.gate.violations) {
    std::printf("GATE FAILED: %s\n", v.c_str());
  }
  std::printf("correctness gate: %s\n", report.gate.ok() ? "pass" : "FAIL");
  for (const Metric& metric : report.metrics.list) {
    std::printf("  %-32s %.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::string json = "{\"correct\": " + std::string(report.gate.ok() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : report.metrics.list) {
    char value[64];
    double v = std::isfinite(metric.value) ? metric.value : 1e12;
    std::snprintf(value, sizeof(value), "%.9g", v);
    json += std::string(first ? "" : ", ") + "\"" + metric.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.gate.ok() ? 0 : 3;
}
