// Deploy-pipeline tests: the staged deploy transaction (rollback on every
// stage failure), Expire idempotence, the asynchronous pipeline (window
// bound, cancellation, stage deadlines), and the fault-injection sweep
// proving that a failed deploy never leaks a bound ticket, a live session
// or an unrevoked certificate.

#include "src/core/deploy.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/cluster.h"
#include "src/os/fault.h"
#include "src/os/kernel.h"
#include "src/os/memfs.h"

namespace watchit {
namespace {

Ticket MakeTicket(const std::string& id, const std::string& machine,
                  const std::string& ticket_class = "T-1") {
  Ticket ticket;
  ticket.id = id;
  ticket.target_machine = machine;
  ticket.assigned_class = ticket_class;
  ticket.admin = "alice";
  return ticket;
}

// Asserts the no-trace invariant: after a failed (or fully expired) deploy
// the machine holds no bound ticket, no live session, and every certificate
// the CA ever issued has been revoked.
void ExpectNoLeaks(Cluster* cluster, Machine* machine) {
  EXPECT_EQ(machine->broker().bound_ticket_count(), 0u);
  EXPECT_EQ(machine->containit().active_sessions(), 0u);
  EXPECT_EQ(cluster->ca().issued_count(), cluster->ca().revoked_count());
}

// --- transactional rollback (satellite regressions) --------------------------

// Regression: a Deploy that fails container construction must not leave the
// broker ticket binding behind (the binding used to precede construction and
// leaked on this path).
TEST(DeployRollbackTest, ConstructFailureLeavesNoTrace) {
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  // A session needs several processes; a 1-process cgroup cap makes the
  // shell clone fail deterministically partway through construction.
  witcontain::PerforatedContainerSpec cramped;
  cramped.name = "cramped";
  cramped.max_processes = 1;
  cluster.images().Register("T-CRAMPED", cramped);

  ClusterManager manager(&cluster);
  Ticket ticket = MakeTicket("TKT-CRAMPED", "userpc", "T-CRAMPED");
  EXPECT_FALSE(manager.Deploy(ticket).ok());
  EXPECT_FALSE(machine.broker().IsTicketBound("TKT-CRAMPED"));
  ExpectNoLeaks(&cluster, &machine);
}

// A failure *after* the bind stage must unwind the binding and the session.
TEST(DeployRollbackTest, LateStageFailureUnbindsTicket) {
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));

  class FailCertGate : public DeployGate {
   public:
    witos::Status BeforeStage(DeployStage stage, Machine*) override {
      return stage == DeployStage::kIssueCert ? witos::Status(witos::Err::kIo)
                                              : witos::Status::Ok();
    }
    void OnRollback(DeployStage failed_stage, witos::Err err) override {
      failed_stage_ = failed_stage;
      err_ = err;
      ++rollbacks_;
    }
    DeployStage failed_stage_ = DeployStage::kImageLookup;
    witos::Err err_ = witos::Err::kOk;
    int rollbacks_ = 0;
  } gate;

  Ticket ticket = MakeTicket("TKT-LATE", "userpc");
  auto result =
      RunDeployStages(&cluster, ticket, ClusterManager::kDefaultLifetimeNs, &gate);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), witos::Err::kIo);
  EXPECT_EQ(gate.rollbacks_, 1);
  EXPECT_EQ(gate.failed_stage_, DeployStage::kIssueCert);
  EXPECT_FALSE(machine.broker().IsTicketBound("TKT-LATE"));
  ExpectNoLeaks(&cluster, &machine);
}

TEST(DeployRollbackTest, UnknownClassFailsWithoutRollback) {
  Cluster cluster;
  cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  class CountGate : public DeployGate {
   public:
    void OnRollback(DeployStage, witos::Err) override { ++rollbacks_; }
    int rollbacks_ = 0;
  } gate;
  Ticket ticket = MakeTicket("TKT-NOCLASS", "userpc", "T-99");
  EXPECT_FALSE(
      RunDeployStages(&cluster, ticket, ClusterManager::kDefaultLifetimeNs, &gate).ok());
  // Image lookup failed before anything was committed: nothing to unwind.
  EXPECT_EQ(gate.rollbacks_, 0);
}

// --- Expire idempotence ------------------------------------------------------

TEST(ExpireTest, SecondExpireReturnsEsrchWithoutDoubleRevoke) {
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  ClusterManager manager(&cluster);
  auto deployment = manager.Deploy(MakeTicket("TKT-TWICE", "userpc"));
  ASSERT_TRUE(deployment.ok());

  ASSERT_TRUE(manager.Expire(&*deployment).ok());
  EXPECT_EQ(cluster.ca().revoked_count(), 1u);
  EXPECT_FALSE(machine.broker().IsTicketBound("TKT-TWICE"));

  witos::Status again = manager.Expire(&*deployment);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error(), witos::Err::kSrch);
  EXPECT_EQ(cluster.ca().revoked_count(), 1u);  // not revoked twice
  ExpectNoLeaks(&cluster, &machine);
}

// A session torn down behind the manager's back (crash, manual Terminate)
// must not wedge Expire: the certificate is still revoked and the ticket
// unbound, the Terminate error is reported once, and the *next* Expire is
// the idempotent ESRCH path.
TEST(ExpireTest, ExpireAfterExternalTerminateStillRevokesAndUnbinds) {
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  ClusterManager manager(&cluster);
  auto deployment = manager.Deploy(MakeTicket("TKT-GONE", "userpc"));
  ASSERT_TRUE(deployment.ok());
  ASSERT_TRUE(machine.containit().Terminate(deployment->session, "crashed").ok());

  witos::Status expired = manager.Expire(&*deployment);
  EXPECT_FALSE(expired.ok());  // surfaces the Terminate failure...
  EXPECT_TRUE(cluster.ca().IsRevoked(deployment->certificate.serial));  // ...but revokes
  EXPECT_FALSE(machine.broker().IsTicketBound("TKT-GONE"));
  EXPECT_EQ(manager.Expire(&*deployment).error(), witos::Err::kSrch);
  EXPECT_EQ(cluster.ca().revoked_count(), 1u);
  ExpectNoLeaks(&cluster, &machine);
}

// --- the asynchronous pipeline ----------------------------------------------

TEST(DeployPipelineTest, SubmitDeploysAsynchronously) {
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  DeployPipeline pipeline(&cluster);
  pipeline.Start();

  std::atomic<bool> completed{false};
  auto handle = pipeline.Submit(MakeTicket("TKT-ASYNC", "userpc"),
                                [&](const DeployHandle& h) {
                                  completed.store(h->done(), std::memory_order_relaxed);
                                });
  ASSERT_TRUE(handle.ok());
  auto result = (*handle)->Wait();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->machine, &machine);
  EXPECT_TRUE(machine.broker().IsTicketBound("TKT-ASYNC"));

  ClusterManager manager(&cluster);
  ASSERT_TRUE(manager.Expire(&*result).ok());
  pipeline.Stop();  // joins the workers, so the completion has run by now
  EXPECT_TRUE(completed.load());

  DeployPipeline::Stats stats = pipeline.GetStats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.deployed, 1u);
  EXPECT_EQ(stats.rollbacks, 0u);
  EXPECT_EQ(pipeline.inflight(), 0u);
  ExpectNoLeaks(&cluster, &machine);
}

TEST(DeployPipelineTest, InflightWindowBoundsSubmission) {
  Cluster cluster;
  cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  DeployPipeline::Options options;
  options.workers = 1;
  options.max_inflight = 1;
  DeployPipeline pipeline(&cluster, options);

  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  pipeline.set_stage_hook([&](DeployStage stage, const Ticket&, Machine*) -> witos::Status {
    if (stage == DeployStage::kImageLookup) {
      std::unique_lock<std::mutex> lock(mu);
      entered = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    return witos::Status::Ok();
  });
  pipeline.Start();

  auto first = pipeline.Submit(MakeTicket("TKT-W1", "userpc"));
  ASSERT_TRUE(first.ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  // The window (1) is occupied by the stalled deploy: TrySubmit must bounce.
  auto second = pipeline.TrySubmit(MakeTicket("TKT-W2", "userpc"));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error(), witos::Err::kAgain);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE((*first)->Wait().ok());
  pipeline.Stop();
  DeployPipeline::Stats stats = pipeline.GetStats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.peak_inflight, 1u);
}

TEST(DeployPipelineTest, CancelMidDeployRollsBack) {
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  DeployPipeline::Options options;
  options.workers = 1;
  DeployPipeline pipeline(&cluster, options);

  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  // Stall between construct and bind; the cancellation lands while the
  // session is half-built and is noticed at the next inter-stage gate.
  pipeline.set_stage_hook([&](DeployStage stage, const Ticket&, Machine*) -> witos::Status {
    if (stage == DeployStage::kBind) {
      std::unique_lock<std::mutex> lock(mu);
      entered = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
    return witos::Status::Ok();
  });
  pipeline.Start();

  auto handle = pipeline.Submit(MakeTicket("TKT-CANCEL", "userpc"));
  ASSERT_TRUE(handle.ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }
  (*handle)->Cancel();
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();

  auto result = (*handle)->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), witos::Err::kIntr);
  pipeline.Stop();
  DeployPipeline::Stats stats = pipeline.GetStats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_FALSE(machine.broker().IsTicketBound("TKT-CANCEL"));
  ExpectNoLeaks(&cluster, &machine);
}

TEST(DeployPipelineTest, StageDeadlineTimesOutAndRollsBack) {
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  DeployPipeline::Options options;
  options.workers = 1;
  // Construction mutates the filesystem dozens of times; 1 simulated ns is
  // an unmeetable budget, so the deadline trips deterministically.
  options.stage_deadline_ns[static_cast<size_t>(DeployStage::kConstruct)] = 1;
  DeployPipeline pipeline(&cluster, options);
  pipeline.Start();

  auto handle = pipeline.Submit(MakeTicket("TKT-SLOW", "userpc"));
  ASSERT_TRUE(handle.ok());
  auto result = (*handle)->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), witos::Err::kTimedOut);
  pipeline.Stop();
  DeployPipeline::Stats stats = pipeline.GetStats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.rollbacks, 1u);  // the built session was torn down
  ExpectNoLeaks(&cluster, &machine);
}

TEST(DeployPipelineTest, ConcurrentSubmittersAllLandAndExpireCleanly) {
  Cluster cluster;
  cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  cluster.AddMachine("devbox", witnet::Ipv4Addr(10, 0, 1, 51));
  DeployPipeline::Options options;
  options.workers = 3;
  options.max_inflight = 8;
  DeployPipeline pipeline(&cluster, options);
  pipeline.Start();

  constexpr size_t kSubmitters = 4;
  constexpr size_t kPerSubmitter = 8;
  std::vector<DeployHandle> handles(kSubmitters * kPerSubmitter);
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = 0; i < kPerSubmitter; ++i) {
        std::string id = "TKT-" + std::to_string(t) + "-" + std::to_string(i);
        std::string target = (t + i) % 2 == 0 ? "userpc" : "devbox";
        auto handle = pipeline.Submit(MakeTicket(id, target));
        ASSERT_TRUE(handle.ok());
        handles[t * kPerSubmitter + i] = *handle;
      }
    });
  }
  for (std::thread& submitter : submitters) {
    submitter.join();
  }

  ClusterManager manager(&cluster);
  for (const DeployHandle& handle : handles) {
    auto result = handle->Wait();
    ASSERT_TRUE(result.ok());
    // Expire under the machine lock: pipeline workers may still be driving
    // other deploys on the same machine.
    std::lock_guard<std::mutex> lock(result->machine->mu());
    result->machine->kernel().clock().BindOwner();
    EXPECT_TRUE(manager.Expire(&*result).ok());
    result->machine->kernel().clock().ReleaseOwner();
  }
  pipeline.Stop();

  DeployPipeline::Stats stats = pipeline.GetStats();
  EXPECT_EQ(stats.deployed, kSubmitters * kPerSubmitter);
  EXPECT_LE(stats.peak_inflight, 8u);
  for (size_t i = 0; i < cluster.size(); ++i) {
    Machine& machine = cluster.machine(i);
    EXPECT_EQ(machine.containit().active_sessions(), 0u);
    EXPECT_EQ(machine.broker().bound_ticket_count(), 0u);
    EXPECT_EQ(machine.kernel().clock().ownership_violations(), 0u);
  }
  EXPECT_EQ(cluster.ca().issued_count(), cluster.ca().revoked_count());
}

// --- image snapshots ----------------------------------------------------------

// Eight machines deploy one class at once: every session runs the image's
// one compiled policy and answers identically. A republish through ForEach
// between waves reaches the later wave only; the earlier sessions keep the
// snapshot they were built from.
TEST(ImageSnapshotTest, ConcurrentDeploysShareOneCompiledPolicy) {
  constexpr size_t kMachines = 8;
  Cluster cluster;
  std::vector<std::string> names;
  for (size_t i = 0; i < kMachines; ++i) {
    names.push_back("host" + std::to_string(i));
    cluster.AddMachine(names.back(), witnet::Ipv4Addr(10, 0, 2, static_cast<uint8_t>(10 + i)));
  }
  DeployPipeline::Options options;
  options.workers = 4;
  options.max_inflight = kMachines;
  DeployPipeline pipeline(&cluster, options);
  pipeline.Start();

  auto wave = [&](const std::string& tag) {
    std::vector<DeployHandle> handles;
    for (const std::string& name : names) {
      auto handle = pipeline.Submit(MakeTicket("TKT-" + tag + "-" + name, name, "T-6"));
      EXPECT_TRUE(handle.ok());
      if (handle.ok()) {
        handles.push_back(*handle);
      }
    }
    std::vector<Deployment> deployments;
    for (const DeployHandle& handle : handles) {
      auto result = handle->Wait();
      EXPECT_TRUE(result.ok());
      if (result.ok()) {
        deployments.push_back(*result);
      }
    }
    return deployments;
  };
  auto policy_of = [](const Deployment& d) {
    return d.machine->containit().FindSession(d.session)->itfs->policy_snapshot();
  };
  // The container's answer to a read of each path, errno by errno.
  const std::vector<std::string> paths = {"/home/user/documents/payroll.xlsx",
                                          "/var/log/df.log", "/usr/bin/mpstat"};
  auto verdicts = [&paths](const Deployment& d) {
    Machine* machine = d.machine;
    std::lock_guard<std::mutex> lock(machine->mu());
    machine->kernel().clock().BindOwner();
    witos::Pid shell = machine->containit().FindSession(d.session)->shell;
    std::vector<witos::Err> out;
    for (const std::string& path : paths) {
      auto read = machine->kernel().ReadFile(shell, path);
      out.push_back(read.ok() ? witos::Err::kOk : read.error());
    }
    machine->kernel().clock().ReleaseOwner();
    return out;
  };

  std::vector<Deployment> first = wave("A");
  ASSERT_EQ(first.size(), kMachines);
  std::shared_ptr<const witcontain::ContainerImage> image_a = cluster.images().Image("T-6");
  const std::vector<witos::Err> verdicts_a = verdicts(first.front());
  EXPECT_EQ(verdicts_a, (std::vector<witos::Err>{witos::Err::kAcces, witos::Err::kOk,
                                                 witos::Err::kOk}));
  for (const Deployment& d : first) {
    EXPECT_EQ(policy_of(d), image_a->policy);
    EXPECT_EQ(verdicts(d), verdicts_a);
  }

  // Republish every image with /var/log protected.
  cluster.images().ForEach([](const std::string&, witcontain::PerforatedContainerSpec* spec) {
    spec->fs.policy.AddRule(witfs::ItfsPolicy::ProtectPathsRule({"/var/log"}));
  });
  std::shared_ptr<const witcontain::ContainerImage> image_b = cluster.images().Image("T-6");
  ASSERT_NE(image_b, image_a);

  std::vector<Deployment> second = wave("B");
  ASSERT_EQ(second.size(), kMachines);
  const std::vector<witos::Err> verdicts_b = verdicts(second.front());
  EXPECT_EQ(verdicts_b, (std::vector<witos::Err>{witos::Err::kAcces, witos::Err::kAcces,
                                                 witos::Err::kOk}));
  for (const Deployment& d : second) {
    EXPECT_EQ(policy_of(d), image_b->policy);
    EXPECT_EQ(verdicts(d), verdicts_b);
  }
  // The first wave still runs the snapshot it was deployed from.
  for (const Deployment& d : first) {
    EXPECT_EQ(policy_of(d), image_a->policy);
    EXPECT_EQ(verdicts(d), verdicts_a);
  }
  pipeline.Stop();

  ClusterManager manager(&cluster);
  for (std::vector<Deployment>* deployments : {&first, &second}) {
    for (Deployment& d : *deployments) {
      EXPECT_TRUE(manager.Expire(&d).ok());
    }
  }
  for (size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.machine(i).containit().active_sessions(), 0u);
    EXPECT_EQ(cluster.machine(i).kernel().clock().ownership_violations(), 0u);
  }
}

// --- fault-injection sweep (no stage/errno combination may leak) -------------

TEST(DeployFaultSweepTest, EveryStageTimesEveryErrnoRollsBackCleanly) {
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  DeployPipeline pipeline(&cluster);

  const witos::Err kErrnos[] = {witos::Err::kIo, witos::Err::kNoSpc, witos::Err::kNoMem};
  DeployStage fail_stage = DeployStage::kImageLookup;
  std::shared_ptr<witos::FaultPlan> plan;
  pipeline.set_stage_hook([&](DeployStage stage, const Ticket&, Machine*) -> witos::Status {
    if (stage != fail_stage || plan == nullptr) {
      return witos::Status::Ok();
    }
    witos::Err injected = plan->Decide(witos::FaultOpKind::kAny);
    if (injected != witos::Err::kOk) {
      return injected;
    }
    return witos::Status::Ok();
  });

  size_t events_before = machine.broker().EventsSnapshot().size();
  int combo = 0;
  for (size_t stage = 0; stage < kNumDeployStages; ++stage) {
    for (witos::Err err : kErrnos) {
      fail_stage = static_cast<DeployStage>(stage);
      plan = std::make_shared<witos::FaultPlan>();
      plan->FailNthCall(1, err);
      std::string id = "TKT-FAULT-" + std::to_string(combo++);
      auto result = pipeline.DeployInline(MakeTicket(id, "userpc"));
      ASSERT_FALSE(result.ok()) << DeployStageName(fail_stage);
      EXPECT_EQ(result.error(), err) << DeployStageName(fail_stage);
      EXPECT_EQ(plan->injected(), 1u);
      // The invariant under test: whatever stage died with whatever errno,
      // nothing the transaction touched survives it.
      EXPECT_FALSE(machine.broker().IsTicketBound(id)) << DeployStageName(fail_stage);
      ExpectNoLeaks(&cluster, &machine);
    }
  }
  // No broker escalation events either: the sessions never got to run.
  EXPECT_EQ(machine.broker().EventsSnapshot().size(), events_before);

  // The machine is unharmed: a clean deploy still succeeds afterwards.
  plan = nullptr;
  auto result = pipeline.DeployInline(MakeTicket("TKT-AFTER", "userpc"));
  ASSERT_TRUE(result.ok());
  ClusterManager manager(&cluster);
  ASSERT_TRUE(manager.Expire(&*result).ok());
  ExpectNoLeaks(&cluster, &machine);

  DeployPipeline::Stats stats = pipeline.GetStats();
  EXPECT_EQ(stats.failed, static_cast<uint64_t>(combo));
  EXPECT_EQ(stats.deployed, 1u);
}

// Construction failure injected through the VFS layer itself: a faulty
// filesystem mounted where the session's ConFS view goes makes the recipe's
// first filesystem mutation fail, and the rollback must still run.
TEST(DeployFaultSweepTest, VfsFaultDuringConstructRollsBack) {
  Cluster cluster;
  Machine& machine = cluster.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  witos::Kernel& kernel = machine.kernel();

  auto plan = std::make_shared<witos::FaultPlan>();
  plan->FailOp(witos::FaultOpKind::kGetAttr, witos::Err::kIo);
  auto faulty =
      std::make_shared<witos::ErrorInjectingVfs>(std::make_shared<witos::MemFs>(), plan);
  // The first session's view mounts at /ConFS-1; squat on that path.
  ASSERT_TRUE(kernel.MkDir(1, "/ConFS-1").ok());
  ASSERT_TRUE(kernel.Mount(1, faulty, "/ConFS-1", "faultfs").ok());

  ClusterManager manager(&cluster);
  auto result = manager.Deploy(MakeTicket("TKT-VFS", "userpc"));
  ASSERT_FALSE(result.ok());
  EXPECT_GT(plan->injected(), 0u);
  EXPECT_FALSE(machine.broker().IsTicketBound("TKT-VFS"));
  ExpectNoLeaks(&cluster, &machine);
}

}  // namespace
}  // namespace watchit
