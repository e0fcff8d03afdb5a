// Session teardown leaves nothing behind: after the 300th deploy -> login ->
// broker ps -> expire cycle on one machine, the process table, the initial
// PID namespace, the host root's /ConFS-* mountpoints, the NET namespace
// payloads and the active-session count are exactly what they were after
// the first, and the broker's `ps` lists the same number of processes.
// Kill-process ops leave no runaway victim behind under host init. Nothing
// per ticket accumulates in the machine's metric registry, a terminated
// session frees its ITFS and private root, and deploying one class again
// and again compiles no policy.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/session.h"

namespace watchit {
namespace {

struct Footprint {
  size_t processes = 0;
  size_t host_pid_entries = 0;
  size_t confs_dirs = 0;
  size_t net_payloads = 0;
  size_t active_sessions = 0;
  size_t ps_lines = 0;  // taken while the cycle's session was live

  bool operator==(const Footprint&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Footprint& f) {
  return os << "{processes=" << f.processes << " host_pid_entries=" << f.host_pid_entries
            << " confs_dirs=" << f.confs_dirs << " net_payloads=" << f.net_payloads
            << " active_sessions=" << f.active_sessions << " ps_lines=" << f.ps_lines << "}";
}

class TeardownSteadyStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = &cluster_.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  }

  // One deploy -> Login -> PB ps -> Expire cycle; returns the footprint
  // after the expiry.
  Footprint Cycle(int n) {
    Ticket ticket;
    ticket.id = "TKT-SOAK-" + std::to_string(n);
    ticket.target_machine = "userpc";
    ticket.assigned_class = "T-1";
    ticket.admin = "alice";
    auto deployment = manager_.Deploy(ticket);
    EXPECT_TRUE(deployment.ok());
    Footprint f;
    {
      AdminSession session(machine_, deployment->session, deployment->certificate,
                           &cluster_.ca());
      EXPECT_TRUE(session.Login().ok());
      auto ps = session.Pb(witbroker::kVerbPs, {});
      EXPECT_TRUE(ps.ok());
      f.ps_lines = ps.ok() ? static_cast<size_t>(std::count(ps->begin(), ps->end(), '\n')) : 0;
    }
    EXPECT_TRUE(manager_.Expire(&*deployment).ok());

    witos::Kernel& kernel = machine_->kernel();
    f.processes = kernel.process_count();
    f.host_pid_entries =
        kernel.namespaces().Pidns(kernel.namespaces().initial(witos::NsType::kPid))
            .host_to_local.size();
    auto root = kernel.ReadDir(kernel.init_pid(), "/");
    EXPECT_TRUE(root.ok());
    for (const auto& entry : *root) {
      if (entry.name.starts_with("ConFS-")) {
        ++f.confs_dirs;
      }
    }
    f.net_payloads = machine_->net().namespaces().size();
    f.active_sessions = machine_->containit().active_sessions();
    return f;
  }

  Cluster cluster_;
  ClusterManager manager_{&cluster_};
  Machine* machine_ = nullptr;
};

TEST_F(TeardownSteadyStateTest, ThreeHundredCyclesLeaveNothingBehind) {
  Footprint first = Cycle(1);
  EXPECT_EQ(first.active_sessions, 0u);
  EXPECT_EQ(first.confs_dirs, 0u);
  Footprint last;
  for (int n = 2; n <= 300; ++n) {
    last = Cycle(n);
  }
  EXPECT_EQ(first, last);
}

// Kill-process ops spawn a `runaway` victim under host init. Whatever the
// op's outcome (killed in view, killed through `PB kill`, or denied), the
// session ends and reaps the victim, so neither the host process table nor
// init's child list grows per op.
TEST_F(TeardownSteadyStateTest, KillProcessVictimsAreReaped) {
  // T-1 gains the kill verb so its isolated view escalates and is granted;
  // T-5 shares the host PID namespace and kills in view; T-2 is denied.
  witbroker::ClassPolicy t1;
  t1.allowed_verbs = {witbroker::kVerbPs, witbroker::kVerbNetAllow, witbroker::kVerbKill};
  machine_->policy().SetPolicy("T-1", t1);
  witload::RequiredOp kill;
  kill.kind = witload::OpKind::kKillProcess;
  kill.service = "runaway";

  witos::Kernel& kernel = machine_->kernel();
  struct HostState {
    size_t processes = 0;
    std::vector<witos::Pid> init_children;
  };
  auto cycle = [&](int n) {
    for (const char* cls : {"T-5", "T-1", "T-2"}) {
      Ticket ticket;
      ticket.id = "TKT-KILL-" + std::to_string(n) + "-" + cls;
      ticket.target_machine = "userpc";
      ticket.assigned_class = cls;
      ticket.admin = "alice";
      auto deployment = manager_.Deploy(ticket);
      EXPECT_TRUE(deployment.ok());
      {
        AdminSession session(machine_, deployment->session, deployment->certificate,
                             &cluster_.ca());
        EXPECT_TRUE(session.Login().ok());
        std::vector<OpReplayResult> batched = session.ReplayTicket({kill, kill});
        EXPECT_EQ(batched.size(), 2u);
        OpReplayResult single = session.Replay(kill);
        bool killed = single.in_view || single.broker_ok;
        EXPECT_EQ(killed, std::string(cls) != "T-2") << cls;
      }
      EXPECT_TRUE(manager_.Expire(&*deployment).ok());
    }
    HostState state;
    state.processes = kernel.process_count();
    state.init_children = kernel.FindProcess(kernel.init_pid())->children;
    return state;
  };

  HostState first = cycle(1);
  HostState last;
  for (int n = 2; n <= 100; ++n) {
    last = cycle(n);
  }
  EXPECT_EQ(first.processes, last.processes);
  EXPECT_EQ(first.init_children, last.init_children);
}

// Per-ticket counts live on the session and the broker's ticket state, not
// on {ticket=} series, so cycle N leaves the registry as cycle 1 did.
TEST_F(TeardownSteadyStateTest, MetricSeriesStayFlat) {
  (void)Cycle(1);
  const size_t first = machine_->metrics().SeriesCount();
  for (int n = 2; n <= 50; ++n) {
    (void)Cycle(n);
  }
  EXPECT_EQ(machine_->metrics().SeriesCount(), first);
}

// Terminate keeps the forensic summary and drops the session's heavy state:
// nothing else holds the ITFS instance or the private root once the session
// is gone.
TEST_F(TeardownSteadyStateTest, TerminatedSessionFreesItfsAndPrivateRoot) {
  Ticket ticket;
  ticket.id = "TKT-SHED";
  ticket.target_machine = "userpc";
  ticket.assigned_class = "T-1";
  ticket.admin = "alice";
  auto deployment = manager_.Deploy(ticket);
  ASSERT_TRUE(deployment.ok());
  std::weak_ptr<witfs::Itfs> itfs;
  std::weak_ptr<witos::MemFs> private_root;
  {
    const witcontain::Session* session =
        machine_->containit().FindSession(deployment->session);
    ASSERT_NE(session, nullptr);
    ASSERT_NE(session->itfs, nullptr);
    ASSERT_NE(session->private_root, nullptr);
    itfs = session->itfs;
    private_root = session->private_root;
    AdminSession admin(machine_, deployment->session, deployment->certificate, &cluster_.ca());
    ASSERT_TRUE(admin.Login().ok());
    ASSERT_TRUE(admin.ReadFile("/home/user/.matlab/license.lic").ok());
  }
  EXPECT_FALSE(itfs.expired());
  EXPECT_FALSE(private_root.expired());
  ASSERT_TRUE(manager_.Expire(&*deployment).ok());
  EXPECT_TRUE(itfs.expired());
  EXPECT_TRUE(private_root.expired());
}

// The class image's policy is compiled when the image is published, not per
// deploy: watchit_policy_compile_ns observes only compiles that ran.
TEST_F(TeardownSteadyStateTest, RepeatedDeploysCompileNoPolicy) {
  auto compiles = [this]() -> uint64_t {
    const witobs::Histogram* hist =
        machine_->metrics().FindHistogram("watchit_policy_compile_ns");
    return hist == nullptr ? 0 : hist->Count();
  };
  (void)Cycle(1);
  const uint64_t first = compiles();
  for (int n = 2; n <= 20; ++n) {
    (void)Cycle(n);
  }
  EXPECT_EQ(compiles(), first);
}

}  // namespace
}  // namespace watchit
