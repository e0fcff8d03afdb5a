// Broker RPC batching bench: wire frames, bytes-on-wire and latency per
// ticket when each op crosses in its own request frame ("per_op") vs when
// the whole ticket crosses as one batch frame ("batched"), at 1/2/4/8
// concurrent admin sessions. Both arms speak the same headered wire
// protocol; only the framing differs.
//
// Each worker thread is shared-nothing — its own kernel, policy manager,
// encrypted RpcChannel, PermissionBroker and BrokerClient — modelling
// independent machines; the quantity under test is the per-ticket wire
// cost, which the serving path pays once per ticket after the redesign.
// Every ticket issues the same 8-op escalation sequence; per_op sends 8
// singleton Request() calls (16 frames, 8 seal/MAC pairs), batched queues
// all 8 on the pipeline and Flush()es one batch (2 frames, 1 seal/MAC
// pair).
//
// Invariants reported per run: the secure log carries the SAME number of
// per-op entries under both arms (batching amortizes the wire, never the
// audit trail) and the hash chain verifies.
//
// The contended section runs a shared broker at shards = 1 and shards = 8
// several times and reports each side's summed lock wait as min / median /
// max over the runs. The 8-shard wait is near zero, so a ratio of the two
// would be dominated by noise.
//
// `--json PATH` writes the same numbers machine-readably (BENCH_*.json).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/json_out.h"
#include "src/broker/broker.h"
#include "src/broker/policy.h"
#include "src/broker/rpc.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/os/kernel.h"

namespace {

constexpr size_t kOpsPerTicket = 8;
constexpr uint64_t kChannelKey = 0x5ec23e7;

// One escalation op of the synthetic ticket workload.
struct TicketOp {
  const char* verb;
  std::vector<std::string> args;
};

// A realistic mid-size ticket: mostly small-payload verbs, one kill of an
// already-gone pid (typed ESRCH round-trips), nothing long-running.
const std::vector<TicketOp>& TicketOps() {
  static const std::vector<TicketOp> ops = {
      {witbroker::kVerbPs, {}},
      {witbroker::kVerbReadFile, {"/etc/motd"}},
      {witbroker::kVerbRestartService, {"sshd"}},
      {witbroker::kVerbInstall, {"toolbox"}},
      {witbroker::kVerbReadFile, {"/etc/motd"}},
      {witbroker::kVerbKill, {"99999"}},
      {witbroker::kVerbRestartService, {"cron"}},
      {witbroker::kVerbPs, {}},
  };
  return ops;
}

// Everything one admin session needs, on its own machine.
struct Session {
  std::unique_ptr<witos::Kernel> kernel;
  witbroker::PolicyManager policy;
  witbroker::RpcChannel channel;
  witobs::MetricsRegistry metrics;
  std::unique_ptr<witbroker::PermissionBroker> broker;
  std::unique_ptr<witbroker::BrokerClient> client;
};

std::unique_ptr<Session> MakeSession(const std::string& ticket_id, const std::string& admin) {
  auto session = std::make_unique<Session>();
  session->kernel = std::make_unique<witos::Kernel>("host");
  witos::Pid broker_pid = *session->kernel->Clone(1, "PermissionBroker", 0);
  witbroker::ClassPolicy standard;
  standard.allowed_verbs = {witbroker::kVerbPs, witbroker::kVerbKill,
                            witbroker::kVerbReadFile, witbroker::kVerbInstall,
                            witbroker::kVerbRestartService};
  session->policy.SetPolicy("T-1", standard);
  session->channel.EnableEncryption(kChannelKey);
  session->channel.EnableMetrics(&session->metrics);
  session->broker = std::make_unique<witbroker::PermissionBroker>(
      session->kernel.get(), broker_pid, &session->policy, &session->channel);
  (void)session->broker->BindTicket(ticket_id, "T-1");
  session->client =
      std::make_unique<witbroker::BrokerClient>(&session->channel, ticket_id, admin);
  (void)session->kernel->WriteFile(1, "/etc/motd", "host motd\n");
  (void)session->kernel->MkDir(1, "/usr/progs");
  return session;
}

struct ThreadResult {
  uint64_t frames = 0;
  uint64_t bytes_on_wire = 0;
  size_t securelog_entries = 0;
  bool securelog_verified = false;
  std::vector<uint64_t> latencies_ns;  // one sample per ticket
};

struct RunResult {
  size_t workers = 0;
  size_t tickets = 0;
  uint64_t wall_ns = 0;
  uint64_t frames = 0;
  uint64_t bytes_on_wire = 0;
  size_t securelog_entries = 0;
  bool securelog_verified = true;
  uint64_t p50_ns = 0;
  uint64_t p95_ns = 0;
  uint64_t p99_ns = 0;

  double FramesPerTicket() const {
    return tickets == 0 ? 0.0 : static_cast<double>(frames) / static_cast<double>(tickets);
  }
  double BytesPerTicket() const {
    return tickets == 0 ? 0.0
                        : static_cast<double>(bytes_on_wire) / static_cast<double>(tickets);
  }
  double TicketsPerSec() const {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(tickets) * 1e9 / static_cast<double>(wall_ns);
  }
};

uint64_t Percentile(std::vector<uint64_t> sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1) / 100.0);
  return sorted[index];
}

ThreadResult RunThread(bool batched, size_t tickets, size_t worker_index) {
  char ticket_id[32];
  std::snprintf(ticket_id, sizeof(ticket_id), "TKT-20260805-%05zu", worker_index);
  auto session = MakeSession(ticket_id, "admin03@it.example.org");
  const auto& ops = TicketOps();

  ThreadResult result;
  result.latencies_ns.reserve(tickets);
  for (size_t t = 0; t < tickets; ++t) {
    const uint64_t start_ns = witobs::MonotonicNowNs();
    if (batched) {
      session->client->Begin(witos::kRootUid);
      for (const TicketOp& op : ops) {
        session->client->Queue(op.verb, op.args);
      }
      auto results = session->client->Flush();
      if (results.size() != ops.size()) {
        std::fprintf(stderr, "!! batch answered %zu of %zu ops\n", results.size(),
                     ops.size());
      }
    } else {
      for (const TicketOp& op : ops) {
        (void)session->client->Request(op.verb, op.args, witos::kRootUid);
      }
    }
    result.latencies_ns.push_back(witobs::MonotonicNowNs() - start_ns);
  }
  result.frames = session->channel.frames();
  result.bytes_on_wire = session->channel.bytes_on_wire();
  result.securelog_entries = session->broker->log().size();
  result.securelog_verified = session->broker->log().Verify();
  return result;
}

RunResult RunOnce(bool batched, size_t workers, size_t tickets_per_worker) {
  std::vector<ThreadResult> thread_results(workers);
  const uint64_t start_ns = witobs::MonotonicNowNs();
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&thread_results, batched, tickets_per_worker, w]() {
      thread_results[w] = RunThread(batched, tickets_per_worker, w);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  RunResult result;
  result.workers = workers;
  result.tickets = workers * tickets_per_worker;
  result.wall_ns = witobs::MonotonicNowNs() - start_ns;
  std::vector<uint64_t> latencies;
  for (const ThreadResult& tr : thread_results) {
    result.frames += tr.frames;
    result.bytes_on_wire += tr.bytes_on_wire;
    result.securelog_entries += tr.securelog_entries;
    result.securelog_verified = result.securelog_verified && tr.securelog_verified;
    latencies.insert(latencies.end(), tr.latencies_ns.begin(), tr.latencies_ns.end());
  }
  std::sort(latencies.begin(), latencies.end());
  result.p50_ns = Percentile(latencies, 50);
  result.p95_ns = Percentile(latencies, 95);
  result.p99_ns = Percentile(latencies, 99);
  return result;
}

// ---- Contended shared broker: the sharding A/B (DESIGN.md §14) ----
//
// The per-worker sessions above are shared-nothing, so they cannot show
// what broker-state sharding buys. Here N admin threads hammer ONE broker
// (one kernel, one securelog) with distinct tickets; the A side runs the
// old single-mutex layout (shards=1), the B side the sharded layout
// (shards=8). The machine-independent signal is the summed lock wait on the
// broker.* and securelog* mutexes — on any host, sharding collapses it,
// because different tickets stop serializing on one chain and one window.
// The threads share one kernel, so the broker takes `kernel_mu` around its
// clock reads and verb dispatch, as the machine lock does in the serving
// paths; the sharded broker state stays outside it.

struct ContendedResult {
  size_t shards = 0;
  size_t workers = 0;
  size_t tickets = 0;
  uint64_t wall_ns = 0;
  uint64_t lock_wait_ns = 0;      // broker.* + securelog* wait, summed
  uint64_t lock_acquires = 0;
  size_t log_entries = 0;
  size_t epoch_roots = 0;
  bool log_verified = false;

  double TicketsPerSec() const {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(tickets) * 1e9 / static_cast<double>(wall_ns);
  }
  double WaitUsPerTicket() const {
    return tickets == 0 ? 0.0
                        : static_cast<double>(lock_wait_ns) / 1e3 /
                              static_cast<double>(tickets);
  }
};

ContendedResult RunContended(size_t shards, size_t workers, size_t tickets_per_worker) {
  witos::Kernel kernel("host");
  witos::Pid broker_pid = *kernel.Clone(1, "PermissionBroker", 0);
  witbroker::PolicyManager policy;  // no rate limit: Handle stays read-only on policy
  witbroker::ClassPolicy standard;
  standard.allowed_verbs = {witbroker::kVerbPs, witbroker::kVerbKill,
                            witbroker::kVerbReadFile, witbroker::kVerbInstall,
                            witbroker::kVerbRestartService};
  policy.SetPolicy("T-1", standard);
  witbroker::RpcChannel channel;
  witobs::MetricsRegistry metrics;
  std::mutex kernel_mu;
  witbroker::PermissionBroker::Options options;
  options.shards = shards;
  options.log_epoch_interval = 256;
  options.kernel_mu = &kernel_mu;
  witbroker::PermissionBroker broker(&kernel, broker_pid, &policy, &channel, options);
  broker.EnableMetrics(&metrics);
  (void)kernel.WriteFile(1, "/etc/motd", "host motd\n");
  (void)kernel.MkDir(1, "/usr/progs");
  for (size_t w = 0; w < workers; ++w) {
    (void)broker.BindTicket("TKT-C-" + std::to_string(w), "T-1");
  }

  const uint64_t start_ns = witobs::MonotonicNowNs();
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&broker, tickets_per_worker, w]() {
      const auto& ops = TicketOps();
      witbroker::RpcRequest request;
      request.uid = witos::kRootUid;
      request.ticket_id = "TKT-C-" + std::to_string(w);
      request.admin = "admin03@it.example.org";
      for (size_t t = 0; t < tickets_per_worker; ++t) {
        for (const TicketOp& op : ops) {
          request.method = op.verb;
          request.args = op.args;
          (void)broker.Handle(request);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  ContendedResult result;
  result.shards = shards;
  result.workers = workers;
  result.tickets = workers * tickets_per_worker;
  result.wall_ns = witobs::MonotonicNowNs() - start_ns;
  for (const witobs::LockContention& lock : witobs::TopContendedLocks({&metrics})) {
    if (lock.lock.rfind("securelog", 0) == 0 || lock.lock.rfind("broker.", 0) == 0) {
      result.lock_wait_ns += lock.wait_sum_ns;
      result.lock_acquires += lock.wait_count;
    }
  }
  result.log_entries = broker.log().size();
  result.epoch_roots = broker.log().epoch_count();
  result.log_verified = broker.log().Verify();
  return result;
}

void PrintRun(const char* arm, const RunResult& run) {
  std::printf("%-7s %8zu %10zu %12.1f %14.1f %12.0f %10.1f %10.1f %10.1f %6s\n", arm,
              run.workers, run.tickets, run.FramesPerTicket(), run.BytesPerTicket(),
              run.TicketsPerSec(), static_cast<double>(run.p50_ns) / 1e3,
              static_cast<double>(run.p95_ns) / 1e3, static_cast<double>(run.p99_ns) / 1e3,
              run.securelog_verified ? "ok" : "FAIL");
}

// Min, median and max of one side's lock wait over the contended runs.
struct Spread {
  uint64_t min = 0;
  uint64_t median = 0;
  uint64_t max = 0;
};

Spread SpreadOf(std::vector<uint64_t> values) {
  std::sort(values.begin(), values.end());
  Spread spread;
  if (!values.empty()) {
    spread.min = values.front();
    spread.median = values[values.size() / 2];
    spread.max = values.back();
  }
  return spread;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = benchjson::ConsumeJsonFlag(&argc, argv);
  size_t tickets_per_worker = 2000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tickets") == 0 && i + 1 < argc) {
      tickets_per_worker = static_cast<size_t>(std::strtoull(argv[i + 1], nullptr, 10));
      ++i;
    }
  }

  std::printf("=== broker rpc batching: %zu-op tickets, %zu tickets/worker ===\n",
              kOpsPerTicket, tickets_per_worker);
  std::printf("%-7s %8s %10s %12s %14s %12s %10s %10s %10s %6s\n", "arm", "workers",
              "tickets", "frames/tkt", "bytes/tkt", "tickets/s", "p50 us", "p95 us",
              "p99 us", "log");

  std::vector<RunResult> per_op_runs;
  std::vector<RunResult> batched_runs;
  bool log_counts_equal = true;
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    RunResult per_op = RunOnce(/*batched=*/false, workers, tickets_per_worker);
    RunResult batched = RunOnce(/*batched=*/true, workers, tickets_per_worker);
    PrintRun("per_op", per_op);
    PrintRun("batched", batched);
    log_counts_equal =
        log_counts_equal && per_op.securelog_entries == batched.securelog_entries;
    per_op_runs.push_back(per_op);
    batched_runs.push_back(batched);
  }

  const double frame_reduction =
      batched_runs.front().FramesPerTicket() == 0.0
          ? 0.0
          : per_op_runs.front().FramesPerTicket() / batched_runs.front().FramesPerTicket();
  const double bytes_reduction =
      batched_runs.front().BytesPerTicket() == 0.0
          ? 0.0
          : per_op_runs.front().BytesPerTicket() / batched_runs.front().BytesPerTicket();
  std::printf("\nwire frames per ticket: %.1f -> %.1f (%.1fx, acceptance target >= 4x)\n",
              per_op_runs.front().FramesPerTicket(), batched_runs.front().FramesPerTicket(),
              frame_reduction);
  std::printf("bytes on wire per ticket: %.0f -> %.0f (%.2fx, acceptance target >= 2x)\n",
              per_op_runs.front().BytesPerTicket(), batched_runs.front().BytesPerTicket(),
              bytes_reduction);
  std::printf("secure-log entries identical across arms: %s; chains verified: %s\n",
              log_counts_equal ? "yes" : "NO",
              batched_runs.back().securelog_verified ? "yes" : "NO");

  constexpr size_t kContendedWorkers = 8;
  constexpr size_t kContendedRuns = 5;
  const size_t contended_tickets = tickets_per_worker / 2;
  std::printf("\n=== contended shared broker: %zu threads, one broker, %zu tickets/thread, "
              "%zu runs per side ===\n",
              kContendedWorkers, contended_tickets, kContendedRuns);
  std::printf("%-8s %5s %10s %12s %16s %14s %8s %6s\n", "shards", "run", "tickets",
              "tickets/s", "lock wait ms", "wait us/tkt", "epochs", "log");
  std::vector<ContendedResult> contended;
  std::vector<uint64_t> waits_1;
  std::vector<uint64_t> waits_8;
  for (size_t r = 0; r < kContendedRuns; ++r) {
    for (size_t shards : {size_t{1}, size_t{8}}) {
      ContendedResult run = RunContended(shards, kContendedWorkers, contended_tickets);
      std::printf("%-8zu %5zu %10zu %12.0f %16.3f %14.2f %8zu %6s\n", run.shards, r,
                  run.tickets, run.TicketsPerSec(),
                  static_cast<double>(run.lock_wait_ns) / 1e6, run.WaitUsPerTicket(),
                  run.epoch_roots, run.log_verified ? "ok" : "FAIL");
      (shards == 1 ? waits_1 : waits_8).push_back(run.lock_wait_ns);
      contended.push_back(run);
    }
  }
  const Spread wait_1 = SpreadOf(waits_1);
  const Spread wait_8 = SpreadOf(waits_8);
  for (const auto& [shards, spread] : {std::pair{1, wait_1}, std::pair{8, wait_8}}) {
    std::printf("broker+securelog lock wait, %d shard(s): min %.3f / median %.3f / max %.3f ms\n",
                shards, static_cast<double>(spread.min) / 1e6,
                static_cast<double>(spread.median) / 1e6, static_cast<double>(spread.max) / 1e6);
  }

  if (!json_path.empty()) {
    benchjson::Array runs;
    for (size_t i = 0; i < per_op_runs.size(); ++i) {
      for (const RunResult* run : {&per_op_runs[i], &batched_runs[i]}) {
        benchjson::Object obj;
        obj.Str("arm", run == &per_op_runs[i] ? "per_op" : "batched")
            .Number("workers", run->workers)
            .Number("tickets", run->tickets)
            .Number("frames", run->frames)
            .Number("frames_per_ticket", run->FramesPerTicket())
            .Number("bytes_on_wire", run->bytes_on_wire)
            .Number("bytes_per_ticket", run->BytesPerTicket())
            .Number("tickets_per_sec", run->TicketsPerSec())
            .Number("p50_latency_ns", run->p50_ns)
            .Number("p95_latency_ns", run->p95_ns)
            .Number("p99_latency_ns", run->p99_ns)
            .Number("securelog_entries", run->securelog_entries)
            .Boolean("securelog_verified", run->securelog_verified);
        runs.Add(obj.Render());
      }
    }
    benchjson::Array contended_array;
    for (const ContendedResult& run : contended) {
      benchjson::Object obj;
      obj.Number("shards", run.shards)
          .Number("workers", run.workers)
          .Number("tickets", run.tickets)
          .Number("tickets_per_sec", run.TicketsPerSec())
          .Number("lock_wait_ns", run.lock_wait_ns)
          .Number("lock_acquires", run.lock_acquires)
          .Number("securelog_entries", run.log_entries)
          .Number("epoch_roots", run.epoch_roots)
          .Boolean("securelog_verified", run.log_verified);
      contended_array.Add(obj.Render());
    }
    auto spread_json = [](const Spread& spread) {
      benchjson::Object obj;
      obj.Number("min", spread.min).Number("median", spread.median).Number("max", spread.max);
      return obj.Render();
    };
    benchjson::Object root;
    root.Str("bench", "rpc_batching")
        .Number("ops_per_ticket", kOpsPerTicket)
        .Number("tickets_per_worker", tickets_per_worker)
        .Add("runs", runs.Render())
        .Number("frame_reduction_per_op_over_batched", frame_reduction)
        .Number("bytes_reduction_per_op_over_batched", bytes_reduction)
        .Boolean("securelog_counts_equal", log_counts_equal)
        .Number("contended_runs_per_side", kContendedRuns)
        .Add("contended", contended_array.Render())
        .Add("contended_lock_wait_ns_1_shard", spread_json(wait_1))
        .Add("contended_lock_wait_ns_8_shards", spread_json(wait_8));
    benchjson::WriteFile(json_path, root.Render());
  }
  return 0;
}
