// ContainIT integration tests: deploying perforated containers, namespace
// holes, ITFS monitoring, the watchdog, and on-line file sharing.

#include "src/container/containit.h"

#include <gtest/gtest.h>

#include "src/container/spec.h"
#include "src/core/cluster.h"
#include "src/core/session.h"
#include "src/net/network.h"

namespace witcontain {
namespace {

class ContainItTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kernel_ = std::make_unique<witos::Kernel>("lnx-host");
    kernel_->root_fs().ProvisionFile("/home/user/notes.txt", "user notes", 1000, 1000);
    kernel_->root_fs().ProvisionFile("/home/user/payroll.xlsx",
                                     std::string("PK\x03\x04") + "salaries", 1000, 1000);
    kernel_->root_fs().ProvisionFile("/etc/passwd", "root:x:0:0\n");
    kernel_->root_fs().ProvisionFile("/var/log/syslog", "boot ok\n");
    net_ = std::make_unique<witnet::NetStack>(&fabric_, &kernel_->audit(), &kernel_->clock());
    containit_ = std::make_unique<ContainIt>(kernel_.get(), net_.get());

    fabric_.AddEndpoint("license-server", kLicense);
    fabric_.AddService(kLicense, 27000, [](const witnet::Packet&) { return "LICENSE OK"; });
    fabric_.AddEndpoint("evil", kEvil);
    fabric_.AddService(kEvil, 443, [](const witnet::Packet&) { return "got it"; });
  }

  PerforatedContainerSpec LicenseSpec() {
    PerforatedContainerSpec spec;
    spec.name = "T-1";
    spec.fs.kind = FsView::Kind::kDirs;
    spec.fs.visible_dirs = {"/home/user"};
    spec.fs.policy.AddRule(witfs::ItfsPolicy::DenyDocumentsRule());
    spec.net.allowed = {{kLicense, 27000, "license-server"}};
    return spec;
  }

  const witnet::Ipv4Addr kLicense{witnet::Ipv4Addr(10, 0, 0, 10)};
  const witnet::Ipv4Addr kEvil{witnet::Ipv4Addr(203, 0, 113, 66)};
  witnet::Network fabric_;
  std::unique_ptr<witos::Kernel> kernel_;
  std::unique_ptr<witnet::NetStack> net_;
  std::unique_ptr<ContainIt> containit_;
};

TEST_F(ContainItTest, DeploySetsUpSession) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  ASSERT_TRUE(id.ok());
  Session* session = containit_->FindSession(*id);
  ASSERT_NE(session, nullptr);
  EXPECT_TRUE(session->active);
  EXPECT_TRUE(kernel_->ProcessAlive(session->container_init));
  EXPECT_TRUE(kernel_->ProcessAlive(session->shell));
  EXPECT_GT(session->deploy_duration_ns, 0u);
  EXPECT_EQ(containit_->active_sessions(), 1u);
  EXPECT_EQ(kernel_->audit().CountEvent(witos::AuditEvent::kContainerDeployed), 1u);
}

TEST_F(ContainItTest, HostnameIsolated) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  Session* session = containit_->FindSession(*id);
  EXPECT_EQ(*kernel_->GetHostname(session->shell), "ITContainer");
  EXPECT_EQ(*kernel_->GetHostname(1), "lnx-host");
}

TEST_F(ContainItTest, FilesystemViewLimitedToVisibleDirs) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  witos::Pid shell = containit_->FindSession(*id)->shell;
  // The exposed directory is reachable (through ITFS).
  EXPECT_EQ(*kernel_->ReadFile(shell, "/home/user/notes.txt"), "user notes");
  // The rest of the host fs is simply absent from the private root.
  EXPECT_EQ(kernel_->ReadFile(shell, "/etc/passwd").error(), witos::Err::kNoEnt);
  EXPECT_EQ(kernel_->ReadFile(shell, "/var/log/syslog").error(), witos::Err::kNoEnt);
}

TEST_F(ContainItTest, ItfsDeniesDocumentsInsideView) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  Session* session = containit_->FindSession(*id);
  EXPECT_EQ(kernel_->ReadFile(session->shell, "/home/user/payroll.xlsx").error(),
            witos::Err::kAcces);
  EXPECT_GE(session->itfs->oplog().denied_count(), 1u);
}

TEST_F(ContainItTest, ContainerWritesReachHostFiles) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  witos::Pid shell = containit_->FindSession(*id)->shell;
  ASSERT_TRUE(kernel_->WriteFile(shell, "/home/user/.matlab-license", "FEATURE ok").ok());
  // Visible on the host: the bind mount exposes the real files.
  EXPECT_EQ(*kernel_->ReadFile(1, "/home/user/.matlab-license"), "FEATURE ok");
}

TEST_F(ContainItTest, PidNamespaceHidesHost) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  witos::Pid shell = containit_->FindSession(*id)->shell;
  auto procs = kernel_->ListProcesses(shell);
  ASSERT_TRUE(procs.ok());
  // Only containIT(init) + bash are visible, with container-local pids.
  ASSERT_EQ(procs->size(), 2u);
  EXPECT_EQ((*procs)[0].pid, 1);
  EXPECT_EQ((*procs)[0].name, "containIT");
  EXPECT_EQ((*procs)[1].name, "bash");
}

TEST_F(ContainItTest, ProcfsReflectsContainerPidNs) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  witos::Pid shell = containit_->FindSession(*id)->shell;
  auto entries = kernel_->ReadDir(shell, "/proc");
  ASSERT_TRUE(entries.ok());
  size_t pid_dirs = 0;
  for (const auto& entry : *entries) {
    if (entry.type == witos::FileType::kDirectory) {
      ++pid_dirs;
    }
  }
  EXPECT_EQ(pid_dirs, 2u);
  auto status = kernel_->ReadFile(shell, "/proc/1/status");
  ASSERT_TRUE(status.ok());
  EXPECT_NE(status->find("containIT"), std::string::npos);
}

TEST_F(ContainItTest, NetworkViewRestrictedToAllowedEndpoints) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  Session* session = containit_->FindSession(*id);
  const witos::Process* proc = kernel_->FindProcess(session->shell);
  witos::NsId net_ns = proc->ns.Get(witos::NsType::kNet);
  // License server reachable.
  EXPECT_TRUE(net_->Request(net_ns, kLicense, 27000, "checkout matlab", 0).ok());
  // Everything else unreachable.
  EXPECT_FALSE(net_->Request(net_ns, kEvil, 443, "exfil", 0).ok());
}

TEST_F(ContainItTest, CapabilitiesStripped) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  const witos::Process* init = kernel_->FindProcess(containit_->FindSession(*id)->container_init);
  for (witos::Capability cap : ForbiddenCaps().ToList()) {
    EXPECT_FALSE(init->cred.caps.Has(cap)) << witos::CapabilityName(cap);
  }
  EXPECT_FALSE(init->cred.caps.Has(witos::Capability::kSysBoot));
}

TEST_F(ContainItTest, ProcessMgmtSharesPidNsAndKeepsBoot) {
  PerforatedContainerSpec spec = LicenseSpec();
  spec.process_mgmt = true;
  spec.isolate.erase(witos::NsType::kPid);
  auto id = containit_->Deploy(spec, "TKT-2", "alice");
  Session* session = containit_->FindSession(*id);
  // Host processes visible.
  auto procs = kernel_->ListProcesses(session->shell);
  ASSERT_TRUE(procs.ok());
  EXPECT_GT(procs->size(), 2u);
  const witos::Process* init = kernel_->FindProcess(session->container_init);
  EXPECT_TRUE(init->cred.caps.Has(witos::Capability::kSysBoot));
}

TEST_F(ContainItTest, WholeRootViewThroughItfs) {
  PerforatedContainerSpec spec;
  spec.name = "T-6";
  spec.fs.kind = FsView::Kind::kWholeRoot;
  spec.fs.policy.AddRule(witfs::ItfsPolicy::DenyDocumentsRule());
  auto id = containit_->Deploy(spec, "TKT-3", "alice");
  witos::Pid shell = containit_->FindSession(*id)->shell;
  // The whole host fs is visible...
  EXPECT_EQ(*kernel_->ReadFile(shell, "/etc/passwd"), "root:x:0:0\n");
  EXPECT_EQ(*kernel_->ReadFile(shell, "/var/log/syslog"), "boot ok\n");
  // ...but documents are still blocked by the blanket policy.
  EXPECT_EQ(kernel_->ReadFile(shell, "/home/user/payroll.xlsx").error(), witos::Err::kAcces);
  // And every operation was monitored.
  EXPECT_GT(containit_->FindSession(*id)->itfs->oplog().size(), 0u);
}

TEST_F(ContainItTest, TerminateKillsSessionProcesses) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  Session* session = containit_->FindSession(*id);
  witos::Pid shell = session->shell;
  ASSERT_TRUE(containit_->Terminate(*id, "done").ok());
  EXPECT_FALSE(session->active);
  EXPECT_FALSE(kernel_->ProcessAlive(shell));
  EXPECT_EQ(containit_->active_sessions(), 0u);
  EXPECT_EQ(kernel_->audit().CountEvent(witos::AuditEvent::kContainerTerminated), 1u);
}

TEST_F(ContainItTest, WatchdogTerminatesOnPeerDeath) {
  // Attack 7: kill the ITFS daemon -> the whole session dies.
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  Session* session = containit_->FindSession(*id);
  ASSERT_NE(session->itfs_daemon, witos::kNoPid);
  ASSERT_TRUE(kernel_->Exit(session->itfs_daemon, -9).ok());
  EXPECT_FALSE(session->active);
  EXPECT_FALSE(kernel_->ProcessAlive(session->shell));
  EXPECT_NE(session->termination_reason.find("peer"), std::string::npos);
}

TEST_F(ContainItTest, OnlineFileSharingExtendsView) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  witos::Pid shell = containit_->FindSession(*id)->shell;
  EXPECT_EQ(kernel_->ReadFile(shell, "/var/log/syslog").error(), witos::Err::kNoEnt);
  // The broker maps /var/log into the running container — no restart.
  ASSERT_TRUE(containit_->ShareDirectory(*id, "/var/log", "/var/log").ok());
  EXPECT_EQ(*kernel_->ReadFile(shell, "/var/log/syslog"), "boot ok\n");
  // The host's own view is untouched (mount lives in the container ns).
  EXPECT_EQ(*kernel_->ReadFile(1, "/var/log/syslog"), "boot ok\n");
}

TEST_F(ContainItTest, SharedDirectoryIsStillMonitored) {
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  witos::Pid shell = containit_->FindSession(*id)->shell;
  kernel_->root_fs().ProvisionFile("/var/data/report.pdf", "%PDF-1.4 secret");
  ASSERT_TRUE(containit_->ShareDirectory(*id, "/var/data", "/var/data").ok());
  // The newly shared files go through a fresh ITFS bind mount: documents
  // stay blocked.
  EXPECT_EQ(kernel_->ReadFile(shell, "/var/data/report.pdf").error(), witos::Err::kAcces);
}

TEST_F(ContainItTest, TraditionalContainerFullyIsolated) {
  auto spec = PerforatedContainerSpec::Traditional("T-11");
  auto id = containit_->Deploy(spec, "TKT-4", "alice");
  witos::Pid shell = containit_->FindSession(*id)->shell;
  EXPECT_EQ(kernel_->ReadFile(shell, "/home/user/notes.txt").error(), witos::Err::kNoEnt);
  auto procs = kernel_->ListProcesses(shell);
  EXPECT_EQ(procs->size(), 2u);
  const witos::Process* proc = kernel_->FindProcess(shell);
  EXPECT_FALSE(net_->Request(proc->ns.Get(witos::NsType::kNet), kLicense, 27000, "x", 0).ok());
}

TEST_F(ContainItTest, MultipleConcurrentSessions) {
  auto id1 = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  auto id2 = containit_->Deploy(LicenseSpec(), "TKT-2", "bob");
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(containit_->active_sessions(), 2u);
  // Sessions have independent filesystems and processes.
  witos::Pid shell1 = containit_->FindSession(*id1)->shell;
  witos::Pid shell2 = containit_->FindSession(*id2)->shell;
  ASSERT_TRUE(kernel_->WriteFile(shell1, "/tmp/mine", "session1").ok());
  EXPECT_EQ(kernel_->ReadFile(shell2, "/tmp/mine").error(), witos::Err::kNoEnt);
  ASSERT_TRUE(containit_->Terminate(*id1, "done").ok());
  EXPECT_TRUE(containit_->FindSession(*id2)->active);
  EXPECT_EQ(containit_->FindSessionByTicket("TKT-2")->id, *id2);
  EXPECT_EQ(containit_->FindSessionByTicket("TKT-1"), nullptr);
}

TEST_F(ContainItTest, PeerDeathTerminatesOnlyItsSession) {
  auto a = containit_->Deploy(LicenseSpec(), "TKT-A", "alice");
  auto b = containit_->Deploy(LicenseSpec(), "TKT-B", "bob");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Session* sa = containit_->FindSession(*a);
  Session* sb = containit_->FindSession(*b);
  ASSERT_TRUE(kernel_->Exit(sb->itfs_daemon, -9).ok());
  EXPECT_FALSE(sb->active);
  EXPECT_TRUE(sa->active);
  EXPECT_EQ(containit_->active_sessions(), 1u);
  EXPECT_EQ(containit_->FindSessionByTicket("TKT-A"), sa);
  EXPECT_EQ(containit_->FindSessionByTicket("TKT-B"), nullptr);
  // B's processes, the killed daemon included, are reaped; A's still run.
  for (witos::Pid pid : {sb->shell, sb->container_init, sb->itfs_daemon, sb->sniffer_daemon,
                         sb->host_worker}) {
    EXPECT_EQ(kernel_->FindProcess(pid), nullptr) << pid;
  }
  EXPECT_TRUE(kernel_->ProcessAlive(sa->shell));
  EXPECT_TRUE(kernel_->ProcessAlive(sa->itfs_daemon));
  EXPECT_EQ(kernel_->audit().CountEvent(witos::AuditEvent::kContainerTerminated), 1u);
}

TEST_F(ContainItTest, TerminateReleasesEverythingTheSessionOwned) {
  size_t processes = kernel_->process_count();
  size_t net_payloads = net_->namespaces().size();
  size_t mounts = kernel_->MountTable(1)->size();
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  ASSERT_TRUE(id.ok());
  Session* session = containit_->FindSession(*id);
  // A process the admin spawned inside the container goes down with it.
  ASSERT_TRUE(kernel_->Clone(session->shell, "vim", 0).ok());
  ASSERT_TRUE(containit_->ShareDirectory(*id, "/var/log", "/var/log").ok());
  ASSERT_TRUE(containit_->Terminate(*id, "done").ok());
  EXPECT_EQ(kernel_->process_count(), processes);
  EXPECT_EQ(net_->namespaces().size(), net_payloads);
  EXPECT_EQ(kernel_->MountTable(1)->size(), mounts);
  EXPECT_EQ(kernel_->StatPath(1, session->confs_path).error(), witos::Err::kNoEnt);
  EXPECT_EQ(kernel_->cgroups().Find(session->cgroup), nullptr);
}

TEST_F(ContainItTest, TerminateReachesTheShellAfterContainerInitIsKilled) {
  size_t processes = kernel_->process_count();
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  ASSERT_TRUE(id.ok());
  Session* session = containit_->FindSession(*id);
  auto vim = kernel_->Clone(session->shell, "vim", 0);
  ASSERT_TRUE(vim.ok());
  // The admin kills the container's pid 1; the shell is handed to host init.
  ASSERT_TRUE(kernel_->Kill(session->shell, 1).ok());
  ASSERT_FALSE(kernel_->ProcessAlive(session->container_init));
  ASSERT_EQ(kernel_->FindProcess(session->shell)->ppid, kernel_->init_pid());
  ASSERT_TRUE(containit_->Terminate(*id, "done").ok());
  EXPECT_EQ(kernel_->FindProcess(session->shell), nullptr);
  EXPECT_EQ(kernel_->FindProcess(*vim), nullptr);
  EXPECT_EQ(kernel_->FindProcess(session->container_init), nullptr);
  EXPECT_EQ(kernel_->process_count(), processes);
}

TEST_F(ContainItTest, TerminateReachesOrphansOfTheShell) {
  size_t processes = kernel_->process_count();
  auto id = containit_->Deploy(LicenseSpec(), "TKT-1", "alice");
  ASSERT_TRUE(id.ok());
  Session* session = containit_->FindSession(*id);
  auto vim = kernel_->Clone(session->shell, "vim", 0);
  ASSERT_TRUE(vim.ok());
  // The shell exits first; its child is handed to host init but stays in
  // the container's PID namespace.
  ASSERT_TRUE(kernel_->Exit(session->shell, 0).ok());
  ASSERT_EQ(kernel_->FindProcess(*vim)->ppid, kernel_->init_pid());
  ASSERT_TRUE(containit_->Terminate(*id, "done").ok());
  EXPECT_EQ(kernel_->FindProcess(*vim), nullptr);
  EXPECT_EQ(kernel_->FindProcess(session->shell), nullptr);
  EXPECT_EQ(kernel_->process_count(), processes);
}

}  // namespace
}  // namespace witcontain

namespace watchit {
namespace {

// The active-session indexes as the broker verbs and the watchdog see them
// on a booted machine.
class ContainItIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = &cluster_.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
  }

  Deployment Deploy(const std::string& ticket_id, const std::string& cls) {
    Ticket ticket;
    ticket.id = ticket_id;
    ticket.target_machine = "userpc";
    ticket.assigned_class = cls;
    ticket.admin = "alice";
    auto deployment = manager_.Deploy(ticket);
    EXPECT_TRUE(deployment.ok());
    return *deployment;
  }

  witcontain::ContainIt& containit() { return machine_->containit(); }

  Cluster cluster_;
  ClusterManager manager_{&cluster_};
  Machine* machine_ = nullptr;
};

TEST_F(ContainItIndexTest, BrokerDeathTerminatesEveryActiveSession) {
  Deployment expired = Deploy("TKT-OLD", "T-1");
  ASSERT_TRUE(manager_.Expire(&expired).ok());
  Deployment a = Deploy("TKT-A", "T-1");
  Deployment b = Deploy("TKT-B", "T-3");
  ASSERT_EQ(containit().active_sessions(), 2u);
  ASSERT_TRUE(machine_->kernel().Exit(machine_->broker_pid(), -9).ok());
  EXPECT_EQ(containit().active_sessions(), 0u);
  for (const Deployment* d : {&a, &b}) {
    const witcontain::Session* session = containit().FindSession(d->session);
    EXPECT_FALSE(session->active);
    EXPECT_NE(session->termination_reason.find("peer"), std::string::npos);
  }
  // The already-expired session is not terminated a second time.
  EXPECT_EQ(containit().FindSession(expired.session)->termination_reason, "ticket expired");
  EXPECT_EQ(machine_->kernel().audit().CountEvent(witos::AuditEvent::kContainerTerminated), 3u);
}

TEST_F(ContainItIndexTest, RedeployedTicketReachesTheNewSession) {
  machine_->kernel().root_fs().ProvisionFile("/srv/share/readme.txt", "shared\n");
  Deployment first = Deploy("TKT-R", "T-3");
  witos::NsId first_net = machine_->NetNsOf(containit().FindSession(first.session)->shell);
  ASSERT_NE(machine_->net().namespaces().Find(first_net), nullptr);
  ASSERT_TRUE(manager_.Expire(&first).ok());
  EXPECT_EQ(machine_->net().namespaces().Find(first_net), nullptr);
  EXPECT_EQ(containit().FindSessionByTicket("TKT-R"), nullptr);

  Deployment second = Deploy("TKT-R", "T-3");
  ASSERT_NE(second.session, first.session);
  witcontain::Session* session = containit().FindSessionByTicket("TKT-R");
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->id, second.session);

  AdminSession admin(machine_, second.session, second.certificate, &cluster_.ca());
  ASSERT_TRUE(admin.Login().ok());
  size_t processes = machine_->kernel().process_count();
  ASSERT_TRUE(admin.Pb(witbroker::kVerbMountVolume, {"/srv/share", "/srv/share"}).ok());
  EXPECT_EQ(*admin.ReadFile("/srv/share/readme.txt"), "shared\n");
  // The nsenter helper is reaped, not left as a zombie.
  EXPECT_EQ(machine_->kernel().process_count(), processes);

  witnet::Ipv4Addr extra(10, 0, 0, 99);
  ASSERT_TRUE(admin.Pb(witbroker::kVerbNetAllow, {extra.ToString(), "80"}).ok());
  const witnet::NetNsPayload* payload =
      machine_->net().namespaces().Find(machine_->NetNsOf(session->shell));
  ASSERT_NE(payload, nullptr);
  EXPECT_TRUE(payload->HasRouteTo(extra));
  EXPECT_FALSE(containit().FindSession(first.session)->active);
}

}  // namespace
}  // namespace watchit
