// witbench phases: the saturated and open-loop ServerPool phases, and the
// closed-loop admin threads that deploy, log in, run commands and expire.

#ifndef WITBENCH_PHASES_H_
#define WITBENCH_PHASES_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/core/session.h"
#include "src/obs/metrics.h"
#include "src/serve/pool.h"
#include "witbench/env.h"
#include "witbench/plans.h"

namespace witbench {

// Ticket i of a stream that cycles over `base` under fresh ids "t<i>".
class TicketSource {
 public:
  explicit TicketSource(const std::vector<witload::GeneratedTicket>* base) : base_(base) {}
  witload::GeneratedTicket Get(size_t i) const {
    witload::GeneratedTicket t = (*base_)[i % base_->size()];
    t.id = "t" + std::to_string(i);
    return t;
  }

 private:
  const std::vector<witload::GeneratedTicket>* base_;
};

struct PoolResult {
  uint64_t sent = 0;     // tickets offered in the timed part
  uint64_t served = 0;
  uint64_t failed = 0;   // failed inside the pool, or unsatisfied
  uint64_t unsatisfied = 0;  // resolved, but an op was neither in view nor granted
  uint64_t refused = 0;  // EBUSY at Submit (open loop only)
  uint64_t busy_retries = 0;
  uint64_t stolen = 0;
  double wall_s = 0.0;
  double tickets_per_s = 0.0;
  double heap_kb_per_ticket = 0.0;
  std::vector<double> latency_ms;  // due -> served; kMissed when never served
  std::vector<double> late_ms;     // generator lateness per arrival
  std::vector<double> submit_us;   // ServerPool::Submit call time
  uint64_t clock_violations = 0;
  uint64_t pool_submitted = 0;
  uint64_t pool_served = 0;
  uint64_t pool_failed = 0;
  double warmup_s = 0.0;  // part of set-up
};

struct PoolPhase {
  bool open_loop = false;
  size_t tickets = 1000;  // timed tickets (a fixed count, so history is fixed)
  double rate = 0.0;      // open loop: offered tickets per second
  size_t warmup = 200;
  uint32_t seed = 1;
};

// Runs one pool phase over a fresh Env: warm-up, then the timed part, then
// drain. The registry is on as shipped.
inline PoolResult RunPoolPhase(Env* env, const std::vector<witload::GeneratedTicket>& base,
                               const PoolPhase& phase) {
  witserve::ServerPool::Options options;
  options.workers = 2;
  witserve::ServerPool pool(env->cluster.get(), env->framework.get(), env->dispatcher.get(),
                            options);
  pool.EnableMetrics(&env->registry);

  const size_t cap = phase.tickets;
  std::vector<uint64_t> served_ns(phase.warmup + cap, 0);
  std::atomic<uint64_t> unsatisfied{0};
  // A ticket counts as served only when every required op succeeded, in
  // view or through the broker; otherwise it is failed and never served.
  pool.set_result_callback([&](const watchit::ResolvedTicket& r) {
    for (const watchit::OpReplayResult& op : r.replays) {
      if (!op.in_view && !op.broker_ok) {
        unsatisfied.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    size_t i = static_cast<size_t>(std::stoull(r.ticket.id.substr(1)));
    if (i < served_ns.size()) {
      served_ns[i] = NowNs();
    }
  });
  pool.Start();

  const std::vector<std::string> names = pool.MachineNames();
  TicketSource source(&base);
  auto submit = [&](size_t i) -> witos::Status {
    witload::GeneratedTicket t = source.Get(i);
    const std::string& target = names[i % names.size()];
    std::string user = t.true_class == "T-9" ? pool.PeerInShard(target) : "";
    return pool.Submit(t, target, user);
  };
  PoolResult result;

  const uint64_t warm_start = NowNs();
  for (size_t i = 0; i < phase.warmup; ++i) {
    while (submit(i).error() == witos::Err::kBusy) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  pool.Drain();
  result.warmup_s = static_cast<double>(NowNs() - warm_start) / 1e9;
  const witserve::ServerPool::Stats warm = pool.stats();
  const uint64_t warm_unsatisfied = unsatisfied.load();
  const double heap0 = LiveHeapBytes();

  const uint64_t start = NowNs();
  size_t end_index = phase.warmup;
  std::vector<uint64_t> due_ns;
  if (!phase.open_loop) {
    result.submit_us.reserve(cap);
    while (end_index < phase.warmup + cap) {
      const uint64_t t0 = NowNs();
      witos::Status s = submit(end_index);
      while (s.error() == witos::Err::kBusy) {
        ++result.busy_retries;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        s = submit(end_index);
      }
      result.submit_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      ++end_index;
    }
  } else {
    // Poisson arrivals fixed by the seed, generated before timing.
    std::mt19937_64 rng(phase.seed * 0x9E3779B97F4A7C15ull + 3);
    std::exponential_distribution<double> gap(phase.rate);
    double offset = 0.0;
    due_ns.resize(cap);
    for (size_t k = 0; k < cap; ++k) {
      offset += gap(rng);
      due_ns[k] = start + static_cast<uint64_t>(offset * 1e9);
    }
    result.late_ms.reserve(cap);
    result.submit_us.reserve(cap);
    result.latency_ms.assign(cap, kMissed);
    for (size_t k = 0; k < cap; ++k) {
      const uint64_t due = due_ns[k];
      // Sleep, never spin: the pool's four threads need the box's cores, and
      // any lateness this adds is counted in the ticket's latency anyway.
      uint64_t now = NowNs();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = NowNs();
      }
      result.late_ms.push_back(static_cast<double>(now - due) / 1e6);
      witos::Status s = submit(phase.warmup + k);
      result.submit_us.push_back(static_cast<double>(NowNs() - now) / 1e3);
      if (!s.ok()) {
        ++result.refused;  // counts as missing every latency limit
      }
    }
    end_index = phase.warmup + cap;
  }
  pool.Drain();
  const double heap1 = LiveHeapBytes();
  pool.Stop();
  const witserve::ServerPool::Stats stats = pool.stats();

  result.sent = end_index - phase.warmup;
  result.unsatisfied = unsatisfied.load() - warm_unsatisfied;
  result.served = stats.served - warm.served - result.unsatisfied;
  result.failed = stats.failed - warm.failed + result.unsatisfied;
  result.stolen = stats.stolen - warm.stolen;
  result.pool_submitted = stats.submitted;
  result.pool_served = stats.served;
  result.pool_failed = stats.failed;
  result.clock_violations = stats.clock_ownership_violations;
  uint64_t last = start;
  for (size_t i = phase.warmup; i < end_index; ++i) {
    if (served_ns[i] != 0) {
      last = std::max(last, served_ns[i]);
      if (phase.open_loop) {
        result.latency_ms[i - phase.warmup] =
            static_cast<double>(served_ns[i] - due_ns[i - phase.warmup]) / 1e6;
      }
    }
  }
  result.wall_s = static_cast<double>(last - start) / 1e9;
  result.tickets_per_s =
      result.wall_s > 0.0 ? static_cast<double>(result.served) / result.wall_s : 0.0;
  result.heap_kb_per_ticket =
      result.served > 0 ? (heap1 - heap0) / 1024.0 / static_cast<double>(result.served) : 0.0;
  return result;
}

// ---------------------------------------------------------------------------
// Closed-loop admin threads.

struct OpSample {
  Cmd::Kind kind;
  bool pb;  // went to the permission broker
  bool ok;  // allowed (or, for kReplay, satisfied)
  float us;
};

struct AdminThreadOut {
  std::vector<OpSample> ops;
  std::vector<double> session_ms;  // deploy start to expiry, in order
  std::vector<double> traced_ticket_us;    // sessions recorded with spans
  std::vector<double> untraced_ticket_us;  // sessions without
  uint64_t mismatches = 0;
  uint64_t deploy_failures = 0;
  std::string first_mismatch;
  ThreadTrace trace;
};

struct AdminResult {
  std::vector<AdminThreadOut> threads;
  double wall_s = 0.0;
  double heap_kb_per_ticket = 0.0;
  double cost_growth = 1.0;
  uint64_t sessions = 0;
  uint64_t cmds = 0;
  uint64_t mismatches = 0;
  uint64_t deploy_failures = 0;
  double warmup_s = 0.0;  // part of set-up
};

// Mean wall per deployment over each thread's last tenth of deployments
// divided by its first tenth (1.0 = cost independent of history). The loop
// is closed, so no queueing enters either tenth. Means, not medians: the
// deployments mix classes of very different cost, and a median jumps
// between their modes with the seed's plan order.
inline double CostGrowth(const std::vector<AdminThreadOut>& threads) {
  double first = 0.0;
  double last = 0.0;
  for (const AdminThreadOut& t : threads) {
    const size_t n = t.session_ms.size();
    const size_t k = n / 10;
    for (size_t i = 0; i < k; ++i) {
      first += t.session_ms[i];
      last += t.session_ms[n - 1 - i];
    }
  }
  return first > 0.0 ? last / first : 1.0;
}

inline bool RunCmd(watchit::AdminSession* session, const Cmd& cmd, uint64_t n, bool* pb) {
  *pb = cmd.kind == Cmd::kPb;
  switch (cmd.kind) {
    case Cmd::kRead:
      return session->ReadFile(cmd.arg).ok();
    case Cmd::kWrite:
      return session->WriteFile(cmd.arg, "entry " + std::to_string(n % 97) + "\n").ok();
    case Cmd::kListDir:
      return session->ListDir(cmd.arg).ok();
    case Cmd::kConnect:
      return session->Connect(cmd.arg, 0).ok();
    case Cmd::kPb:
      return session->Pb(cmd.arg, {}).ok();
    case Cmd::kReplay: {
      watchit::OpReplayResult r = session->Replay(cmd.op);
      *pb = r.used_broker;
      return r.in_view || r.broker_ok;
    }
  }
  return false;
}

inline uint32_t CmdSpan(Cmd::Kind kind) {
  switch (kind) {
    case Cmd::kRead: return kSpanOpRead;
    case Cmd::kWrite: return kSpanOpWrite;
    case Cmd::kListDir: return kSpanOpListDir;
    case Cmd::kConnect: return kSpanOpConnect;
    case Cmd::kPb: return kSpanOpPb;
    case Cmd::kReplay: return kSpanReplay;
  }
  return kSpanReplay;
}

// One admin thread's loop; machines m with m % threads == t are its own.
// `traced` records spans on every other session (the rest are the untraced
// reference for the tracing overhead).
inline void AdminThread(Env* env, size_t t, size_t threads, const std::vector<SessionPlan>& plans,
                        size_t max_sessions, bool traced,
                        std::atomic<uint64_t>* seq, AdminThreadOut* out) {
  watchit::Cluster* cluster = env->cluster.get();
  watchit::ClusterManager manager(cluster);
  std::vector<watchit::Machine*> owned;
  for (size_t m = t; m < cluster->size(); m += threads) {
    owned.push_back(&cluster->machine(m));
  }
  for (size_t k = 0; k < max_sessions; ++k) {
    const SessionPlan& plan = plans[k % plans.size()];
    watchit::Machine* machine = owned[k % owned.size()];
    watchit::Ticket ticket;
    ticket.id = "a" + std::to_string(seq->fetch_add(1));
    ticket.text = "admin session";
    ticket.target_machine = machine->name();
    ticket.assigned_class = plan.ticket_class;
    ticket.true_class = plan.ticket_class;
    ticket.admin = "admin" + std::to_string(t);
    ThreadTrace* trace = traced && (k % 2 == 0) ? &out->trace : nullptr;

    const uint64_t start = NowNs();
    {
      ScopedSpan root(trace, kSpanTicket);
      witos::Result<watchit::Deployment> deployed = witos::Err::kInval;
      {
        ScopedSpan span(trace, kSpanDeploy);
        BenchGate gate(trace);
        deployed = watchit::RunDeployStages(cluster, ticket,
                                            watchit::ClusterManager::kDefaultLifetimeNs, &gate);
      }
      if (!deployed.ok()) {
        ++out->deploy_failures;
        continue;
      }
      MachineHold hold({machine});
      watchit::AdminSession session(machine, deployed->session, deployed->certificate,
                                    &cluster->ca());
      bool logged_in = false;
      {
        ScopedSpan span(trace, kSpanLogin);
        logged_in = session.Login().ok();
      }
      if (!logged_in) {
        ++out->mismatches;
        if (out->first_mismatch.empty()) {
          out->first_mismatch = "login refused for " + ticket.id;
        }
      }
      for (size_t c = 0; logged_in && c < plan.cmds.size(); ++c) {
        const Cmd& cmd = plan.cmds[c];
        bool pb = false;
        const uint64_t t0 = NowNs();
        bool ok = false;
        {
          ScopedSpan span(trace, CmdSpan(cmd.kind));
          ok = RunCmd(&session, cmd, k + c, &pb);
        }
        out->ops.push_back({cmd.kind, pb, ok, static_cast<float>(NowNs() - t0) / 1e3f});
        if (ok != cmd.expect_ok) {
          ++out->mismatches;
          if (out->first_mismatch.empty()) {
            out->first_mismatch = plan.ticket_class + " " + CmdKindName(cmd.kind) + " " +
                                  cmd.arg + (ok ? " allowed" : " denied") + ", planned " +
                                  (cmd.expect_ok ? "allow" : "deny");
          }
        }
      }
      ScopedSpan span(trace, kSpanExpire);
      (void)manager.Expire(&*deployed);
    }
    const uint64_t end = NowNs();
    out->session_ms.push_back(static_cast<double>(end - start) / 1e6);
    (trace != nullptr ? out->traced_ticket_us : out->untraced_ticket_us)
        .push_back(static_cast<double>(end - start) / 1e3);
  }
}

constexpr size_t kWarmupSessions = 16;

// Each thread works `sessions` deployments (a fixed count, so history is
// fixed) after the warm-up.
inline AdminResult RunAdminLoop(Env* env, const std::vector<std::vector<SessionPlan>>& plans,
                                size_t sessions, bool traced) {
  const size_t threads = plans.size();
  std::atomic<uint64_t> seq{0};
  AdminResult result;
  // Warm-up: a fixed number of untimed deployments per thread.
  {
    const uint64_t warm_start = NowNs();
    std::vector<AdminThreadOut> warm(threads);
    std::vector<std::thread> pool;
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back(AdminThread, env, t, threads, std::cref(plans[t]),
                        kWarmupSessions, false, &seq, &warm[t]);
    }
    for (auto& th : pool) {
      th.join();
    }
    result.warmup_s = static_cast<double>(NowNs() - warm_start) / 1e9;
  }
  result.threads.resize(threads);
  if (traced) {
    for (auto& out : result.threads) {
      out.trace.Reserve(1 << 20);
    }
  }
  const double heap0 = LiveHeapBytes();
  const uint64_t start = NowNs();
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back(AdminThread, env, t, threads, std::cref(plans[t]), sessions,
                      traced, &seq, &result.threads[t]);
  }
  for (auto& th : pool) {
    th.join();
  }
  const uint64_t end = NowNs();
  const double heap1 = LiveHeapBytes();
  for (const auto& out : result.threads) {
    result.sessions += out.session_ms.size();
    result.cmds += out.ops.size();
    result.mismatches += out.mismatches;
    result.deploy_failures += out.deploy_failures;
  }
  result.wall_s = static_cast<double>(end - start) / 1e9;
  result.heap_kb_per_ticket =
      result.sessions > 0 ? (heap1 - heap0) / 1024.0 / static_cast<double>(result.sessions) : 0.0;
  result.cost_growth = CostGrowth(result.threads);
  return result;
}

}  // namespace witbench

#endif  // WITBENCH_PHASES_H_
