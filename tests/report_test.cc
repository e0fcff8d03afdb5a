// Forensic reporting tests: a benign session scores low; a probing rogue
// floats to the top of the triage queue.

#include "src/core/report.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/session.h"
#include "src/workload/topology.h"

namespace watchit {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = &cluster_.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
    manager_ = std::make_unique<ClusterManager>(&cluster_);
  }

  Deployment Deploy(const std::string& cls, const std::string& id, const std::string& admin) {
    Ticket ticket;
    ticket.id = id;
    ticket.target_machine = "userpc";
    ticket.assigned_class = cls;
    ticket.admin = admin;
    return *manager_->Deploy(ticket);
  }

  Cluster cluster_;
  Machine* machine_ = nullptr;
  std::unique_ptr<ClusterManager> manager_;
};

TEST_F(ReportTest, BenignSessionScoresLow) {
  Deployment deployment = Deploy("T-1", "TKT-GOOD", "alice");
  AdminSession session(machine_, deployment.session, deployment.certificate, &cluster_.ca());
  ASSERT_TRUE(session.Login().ok());
  ASSERT_TRUE(session.ReadFile("/home/user/.matlab/license.lic").ok());
  ASSERT_TRUE(session.Connect("license-server", 0).ok());

  ForensicReporter reporter(machine_);
  auto forensics = reporter.Collect(deployment.session);
  ASSERT_TRUE(forensics.ok());
  EXPECT_EQ(forensics->admin, "alice");
  EXPECT_GT(forensics->fs_ops, 0u);
  EXPECT_EQ(forensics->fs_denied, 0u);
  EXPECT_EQ(forensics->severity, 0);
  std::string rendered = ForensicReporter::Render(*forensics);
  EXPECT_NE(rendered.find("TKT-GOOD"), std::string::npos);
  EXPECT_NE(rendered.find("severity: 0"), std::string::npos);
}

TEST_F(ReportTest, ProbingSessionScoresHighAndTriagesFirst) {
  Deployment good = Deploy("T-1", "TKT-GOOD", "alice");
  AdminSession good_session(machine_, good.session, good.certificate, &cluster_.ca());
  ASSERT_TRUE(good_session.Login().ok());
  (void)good_session.ReadFile("/home/user/.matlab/license.lic");

  Deployment bad = Deploy("T-6", "TKT-BAD", "mallory");
  AdminSession bad_session(machine_, bad.session, bad.certificate, &cluster_.ca());
  ASSERT_TRUE(bad_session.Login().ok());
  witos::Kernel& kernel = machine_->kernel();
  witos::Pid shell = bad_session.shell();
  // Probe the sandbox: chroot escape, /dev/mem, classified file.
  (void)kernel.MkDir(shell, "/tmp/jailbreak");
  (void)kernel.Chroot(shell, "/tmp/jailbreak");
  (void)kernel.Open(shell, "/dev/mem", witos::kOpenRead);
  (void)bad_session.ReadFile("/home/user/documents/payroll.xlsx");
  (void)bad_session.ReadFile("/home/user/documents/patients.pdf");

  ForensicReporter reporter(machine_);
  auto bad_forensics = reporter.Collect(bad.session);
  ASSERT_TRUE(bad_forensics.ok());
  EXPECT_GE(bad_forensics->capability_denials, 2u);
  EXPECT_GE(bad_forensics->fs_denied, 2u);
  EXPECT_GT(bad_forensics->severity, 30);
  EXPECT_FALSE(bad_forensics->denied_paths.empty());

  auto queue = reporter.TriageQueue();
  ASSERT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue[0].ticket_id, "TKT-BAD");
  EXPECT_EQ(queue[1].ticket_id, "TKT-GOOD");
  EXPECT_GT(queue[0].severity, queue[1].severity);
}

TEST_F(ReportTest, BrokerActivityAppearsInReport) {
  Deployment deployment = Deploy("T-5", "TKT-PB", "alice");
  AdminSession session(machine_, deployment.session, deployment.certificate, &cluster_.ca());
  ASSERT_TRUE(session.Login().ok());
  ASSERT_TRUE(session.Pb(witbroker::kVerbPs, {}).ok());
  ASSERT_FALSE(session.Pb(witbroker::kVerbDriverUpdate, {"rootkit"}).ok());  // denied

  ForensicReporter reporter(machine_);
  auto forensics = reporter.Collect(deployment.session);
  ASSERT_TRUE(forensics.ok());
  EXPECT_EQ(forensics->broker_requests, 2u);
  EXPECT_EQ(forensics->broker_denied, 1u);
  std::string rendered = ForensicReporter::Render(*forensics);
  EXPECT_NE(rendered.find("DENY driver_update rootkit"), std::string::npos);
}

// Reports of expired sessions, pinned verbatim: a benign session, a probing
// one (chroot escape, /dev/mem, denied documents, an encrypted upload the
// sniffer blocks) and a broker user with granted and denied requests. The
// strings and the triage order must not change with how a terminated
// session keeps its evidence.
TEST_F(ReportTest, ExpiredSessionReportsArePinned) {
  Deployment good = Deploy("T-1", "TKT-GOOD", "alice");
  {
    AdminSession session(machine_, good.session, good.certificate, &cluster_.ca());
    ASSERT_TRUE(session.Login().ok());
    ASSERT_TRUE(session.ReadFile("/home/user/.matlab/license.lic").ok());
    ASSERT_TRUE(session.Connect("license-server", 0).ok());
  }

  Deployment bad = Deploy("T-6", "TKT-BAD", "mallory");
  {
    AdminSession session(machine_, bad.session, bad.certificate, &cluster_.ca());
    ASSERT_TRUE(session.Login().ok());
    witos::Kernel& kernel = machine_->kernel();
    witos::Pid shell = session.shell();
    (void)kernel.MkDir(shell, "/tmp/jailbreak");
    (void)kernel.Chroot(shell, "/tmp/jailbreak");
    (void)kernel.Open(shell, "/dev/mem", witos::kOpenRead);
    (void)session.ReadFile("/home/user/documents/payroll.xlsx");
    (void)session.ReadFile("/home/user/documents/patients.pdf");
    std::string encrypted;
    std::mt19937 rng(7);
    for (int i = 0; i < 2048; ++i) {
      encrypted += static_cast<char>(rng() & 0xff);
    }
    witos::NsId net_ns = kernel.FindProcess(shell)->ns.Get(witos::NsType::kNet);
    EXPECT_FALSE(machine_->net()
                     .Request(net_ns, witload::kSoftwareRepo.addr, witload::kSoftwareRepo.port,
                              encrypted, 0)
                     .ok());
    EXPECT_FALSE(session.Pb(witbroker::kVerbDriverUpdate, {"rootkit"}).ok());
  }

  Deployment pb = Deploy("T-5", "TKT-PB", "carol");
  {
    AdminSession session(machine_, pb.session, pb.certificate, &cluster_.ca());
    ASSERT_TRUE(session.Login().ok());
    ASSERT_TRUE(session.Pb(witbroker::kVerbPs, {}).ok());
    ASSERT_TRUE(session.Pb(witbroker::kVerbRestartService, {"cups"}).ok());
    ASSERT_FALSE(session.Pb(witbroker::kVerbDriverUpdate, {"rootkit"}).ok());
  }

  for (Deployment* deployment : {&good, &bad, &pb}) {
    ASSERT_TRUE(manager_->Expire(deployment).ok());
  }

  ForensicReporter reporter(machine_);
  auto render = [&](const Deployment& deployment) {
    auto forensics = reporter.Collect(deployment.session);
    EXPECT_TRUE(forensics.ok());
    return forensics.ok() ? ForensicReporter::Render(*forensics) : std::string();
  };
  EXPECT_EQ(render(good), R"(=== incident report: TKT-GOOD ===
admin: alice   container: T-1: License related
status: terminated (ticket expired)
severity: 0/100
filesystem: 2 ops, 0 denied
network: 1 packets inspected, 0 blocked
broker: 0 requests, 0 denied
probing: 0 capability denials, 0 XCL denials, 0 TCB violations
)");
  EXPECT_EQ(render(bad), R"(=== incident report: TKT-BAD ===
admin: mallory   container: T-6: Software related
status: terminated (ticket expired)
severity: 56/100
filesystem: 3 ops, 2 denied
  denied: open /home/user/documents/payroll.xlsx [deny-documents]
  denied: open /home/user/documents/patients.pdf [deny-documents]
network: 1 packets inspected, 1 blocked
  BLOCK block-encrypted-payload -> 10.0.0.20:80 (2048B)
broker: 1 requests, 1 denied
  DENY driver_update rootkit
probing: 2 capability denials, 0 XCL denials, 0 TCB violations
)");
  EXPECT_EQ(render(pb), R"(=== incident report: TKT-PB ===
admin: carol   container: T-5: Slow / non-responsive server
status: terminated (ticket expired)
severity: 6/100
filesystem: 0 ops, 0 denied
network: 0 packets inspected, 0 blocked
broker: 3 requests, 1 denied
  GRANT ps
  GRANT restart_service cups
  DENY driver_update rootkit
probing: 0 capability denials, 0 XCL denials, 0 TCB violations
)");

  std::vector<std::string> order;
  for (const SessionForensics& forensics : reporter.TriageQueue()) {
    order.push_back(forensics.ticket_id + ":" + std::to_string(forensics.severity));
  }
  EXPECT_EQ(order, (std::vector<std::string>{"TKT-BAD:56", "TKT-PB:6", "TKT-GOOD:0"}));
}

TEST_F(ReportTest, UnknownSessionIsSrch) {
  ForensicReporter reporter(machine_);
  EXPECT_EQ(reporter.Collect(999).error(), witos::Err::kSrch);
}

}  // namespace
}  // namespace watchit
