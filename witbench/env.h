// witbench environment: building the organization a phase runs against
// (framework, cluster, dispatcher, optional journal), the benchmark-side
// span recorder and deploy gate, and the end-of-phase correctness gate.

#ifndef WITBENCH_ENV_H_
#define WITBENCH_ENV_H_

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/deploy.h"
#include "src/core/workflow.h"
#include "src/durability/durability.h"
#include "src/os/memfs.h"
#include "src/workload/ticket_gen.h"
#include "witbench/ledger.h"

namespace witbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

inline double LiveHeapBytes() {
  struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks) + static_cast<double>(info.hblkhd);
}

constexpr size_t kMachines = 16;
constexpr size_t kAdmins = 8;

// ---------------------------------------------------------------------------
// Spans: one buffer per benchmark thread, kept in memory until the run ends.

enum SpanName : uint32_t {
  kSpanTicket,
  kSpanClassify,
  kSpanReview,
  kSpanDispatch,
  kSpanDeploy,
  kSpanImageLookup,
  kSpanConstruct,
  kSpanBind,
  kSpanIssueCert,
  kSpanReplay,
  kSpanLogin,
  kSpanOpRead,
  kSpanOpWrite,
  kSpanOpListDir,
  kSpanOpConnect,
  kSpanOpPb,
  kSpanExpire,
  kSpanComplete,
  kNumSpanNames,
};

inline const char* SpanNameStr(uint32_t name) {
  static const char* const kNames[kNumSpanNames] = {
      "ticket",       "classify", "review",   "dispatch",    "deploy",     "deploy.image_lookup",
      "deploy.construct", "deploy.bind", "deploy.issue_cert", "replay", "login", "op.read",
      "op.write",     "op.listdir", "op.connect", "op.pb",     "expire",     "complete"};
  return name < kNumSpanNames ? kNames[name] : "?";
}

class ThreadTrace {
 public:
  void Reserve(size_t n) { spans_.reserve(n); }
  // Opens a span under the innermost open one; returns its index.
  int32_t Open(uint32_t name) {
    SpanRec rec;
    rec.name = name;
    rec.parent = stack_.empty() ? -1 : stack_.back();
    rec.start_ns = NowNs();
    spans_.push_back(rec);
    int32_t index = static_cast<int32_t>(spans_.size() - 1);
    stack_.push_back(index);
    return index;
  }
  void Close(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
    if (!stack_.empty() && stack_.back() == index) {
      stack_.pop_back();
    }
  }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  std::vector<SpanRec> spans_;
  std::vector<int32_t> stack_;
};

// RAII span; a null trace records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(ThreadTrace* trace, uint32_t name)
      : trace_(trace), index_(trace != nullptr ? trace->Open(name) : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) {
      trace_->Close(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace* trace_;
  int32_t index_;
};

// The benchmark's deploy gate: each stage takes only its machine's lock and
// declares SimClock ownership, as the pool's pipeline workers do. With a
// trace it brackets every stage in a span (BeforeStage .. OnStageDone).
class BenchGate : public watchit::DeployGate {
 public:
  explicit BenchGate(ThreadTrace* trace) : trace_(trace) {}

  witos::Status BeforeStage(watchit::DeployStage stage, watchit::Machine*) override {
    if (trace_ != nullptr) {
      open_ = trace_->Open(kSpanImageLookup + static_cast<uint32_t>(stage));
    }
    return witos::Status::Ok();
  }
  std::unique_lock<std::mutex> LockMachine(watchit::Machine* machine) override {
    return std::unique_lock<std::mutex>(machine->mu());
  }
  bool BindsClockOwnership() const override { return true; }
  void OnStageDone(watchit::DeployStage, uint64_t, witos::Err) override {
    if (trace_ != nullptr && open_ >= 0) {
      trace_->Close(open_);
      open_ = -1;
    }
  }

 private:
  ThreadTrace* trace_;
  int32_t open_ = -1;
};

// Holds the locks of every machine a ticket touches (address order) with
// SimClock ownership declared, for replay and expiry.
class MachineHold {
 public:
  explicit MachineHold(std::vector<watchit::Machine*> machines) : machines_(std::move(machines)) {
    std::sort(machines_.begin(), machines_.end());
    machines_.erase(std::unique(machines_.begin(), machines_.end()), machines_.end());
    for (watchit::Machine* machine : machines_) {
      machine->mu().lock();
      machine->kernel().clock().BindOwner();
    }
  }
  ~MachineHold() {
    for (auto it = machines_.rbegin(); it != machines_.rend(); ++it) {
      (*it)->kernel().clock().ReleaseOwner();
      (*it)->mu().unlock();
    }
  }
  MachineHold(const MachineHold&) = delete;
  MachineHold& operator=(const MachineHold&) = delete;

 private:
  std::vector<watchit::Machine*> machines_;
};

// ---------------------------------------------------------------------------
// The organization one phase runs against.

struct EnvOptions {
  bool framework = true;  // train the ticket classifier
  bool journal = false;   // attach the write-ahead journal on MemFs
  bool signature = false; // signature inspection on every image
  size_t machines = kMachines;
  uint32_t seed = 1;
};

struct Env {
  // The pool wires the CA and dispatcher locks into this registry, so it
  // must outlive every component (declared first, destroyed last).
  witobs::MetricsRegistry registry;
  std::unique_ptr<watchit::ItFramework> framework;
  std::unique_ptr<watchit::Cluster> cluster;
  std::unique_ptr<watchit::Dispatcher> dispatcher;
  std::shared_ptr<witos::MemFs> journal_fs;
  std::unique_ptr<witdur::DurabilityManager> durability;
  std::vector<std::string> admins;
  double setup_s = 0.0;
};

inline std::unique_ptr<watchit::ItFramework> TrainFramework(uint32_t seed) {
  witload::TicketGenerator::Options options;
  options.seed = seed * 7919u + 11u;
  witload::TicketGenerator gen(options);
  auto history = gen.GenerateBatch(800, witload::TicketGenerator::HistoricalDistribution());
  std::vector<std::pair<std::string, std::string>> labelled;
  labelled.reserve(history.size());
  for (const auto& t : history) {
    labelled.emplace_back(t.text, t.true_class);
  }
  watchit::ItFramework::Config config;
  config.lda.iterations = 60;
  auto framework = std::make_unique<watchit::ItFramework>(config);
  framework->TrainOnHistory(labelled);
  return framework;
}

// Files the admin_session command stream reads: text that passes a content
// scan and PDF bytes behind a neutral extension that only a signature scan
// catches.
inline void PlantScanFiles(watchit::Machine* machine) {
  witos::MemFs& fs = machine->kernel().root_fs();
  for (int i = 0; i < 4; ++i) {
    fs.ProvisionFile("/home/user/scan/text" + std::to_string(i) + ".dat",
                     "plain maintenance notes " + std::to_string(i) + "\n", 1000, 1000);
    fs.ProvisionFile("/home/user/scan/blob" + std::to_string(i) + ".dat",
                     "%PDF-1.4\n%binary report " + std::to_string(i) + "\n", 1000, 1000);
    fs.ProvisionFile("/home/user/scan/out" + std::to_string(i) + ".log", "seed\n", 1000, 1000);
  }
}

// Builds everything a phase needs before timing starts; `setup_s` is the
// wall time of this call (warm-up is added by the phase).
inline std::unique_ptr<Env> BuildEnv(const EnvOptions& options) {
  const uint64_t start = NowNs();
  auto env = std::make_unique<Env>();
  if (options.framework) {
    env->framework = TrainFramework(options.seed);
  }
  env->cluster = std::make_unique<watchit::Cluster>();
  for (size_t i = 0; i < options.machines; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "host%02zu", i);
    watchit::Machine& machine =
        env->cluster->AddMachine(name, witnet::Ipv4Addr(10, 0, 3, static_cast<uint8_t>(10 + i)));
    PlantScanFiles(&machine);
    // T-11's driver update is signed by the organization's policy system,
    // as in the paper's case study; without it the TCB guard refuses it.
    machine.tcb().AuthorizeModule("raid-ctl");
  }
  if (options.signature) {
    env->cluster->images().ForEach([](const std::string&, witcontain::PerforatedContainerSpec* spec) {
      spec->fs.inspection = witfs::InspectionMode::kSignature;
    });
  }
  env->dispatcher = std::make_unique<watchit::Dispatcher>();
  std::set<std::string> all_classes;
  for (int c = 1; c <= witload::kNumTicketClasses; ++c) {
    all_classes.insert(witload::TicketClassName(c));
  }
  for (size_t i = 0; i < kAdmins; ++i) {
    env->admins.push_back("admin" + std::to_string(i));
    env->dispatcher->AddSpecialist(env->admins.back(), all_classes);
  }
  if (options.journal) {
    env->journal_fs = std::make_shared<witos::MemFs>();
    env->durability = std::make_unique<witdur::DurabilityManager>(env->journal_fs);
    env->durability->Attach(env->cluster.get());
  }
  env->setup_s = static_cast<double>(NowNs() - start) / 1e9;
  return env;
}

// ---------------------------------------------------------------------------
// End-of-phase correctness gate. Every check must hold once a phase drained.

struct GateReport {
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
};

inline void CheckQuiescent(Env* env, const std::string& phase, GateReport* report) {
  auto fail = [&](const std::string& what) { report->violations.push_back(phase + ": " + what); };
  watchit::Cluster& cluster = *env->cluster;
  watchit::Cluster::AuditReport audit = cluster.VerifyAuditTrail();
  if (audit.failures != 0) {
    fail("VerifyAuditTrail failures=" + std::to_string(audit.failures));
  }
  size_t bound = 0;
  size_t active = 0;
  uint64_t violations = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    watchit::Machine& machine = cluster.machine(i);
    bound += machine.broker().bound_ticket_count();
    active += machine.containit().active_sessions();
    violations += machine.kernel().clock().ownership_violations();
  }
  if (bound != 0) {
    fail(std::to_string(bound) + " ticket(s) still bound after drain");
  }
  if (active != 0) {
    fail(std::to_string(active) + " session(s) still active after drain");
  }
  if (violations != 0) {
    fail("clock_ownership_violations=" + std::to_string(violations));
  }
  size_t issued = cluster.ca().issued_count();
  size_t revoked = cluster.ca().revoked_count();
  if (issued != revoked) {
    fail(std::to_string(issued - std::min(issued, revoked)) + " issued cert(s) not revoked");
  }
  for (const std::string& admin : env->admins) {
    const watchit::ItSpecialist* specialist = env->dispatcher->Find(admin);
    if (specialist != nullptr && specialist->open_tickets != 0) {
      fail("dispatcher: " + admin + " has " + std::to_string(specialist->open_tickets) +
           " open ticket(s)");
    }
  }
}

}  // namespace witbench

#endif  // WITBENCH_ENV_H_
