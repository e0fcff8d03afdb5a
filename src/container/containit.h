// ContainIT: WatchIT's dedicated container software (paper §5.2).
//
// Deploying a perforated container executes the Figure 5 recipe on the
// simulated kernel:
//   1. a host-side worker mounts the container's filesystem view at a
//      dedicated /ConFS-<n> mountpoint — the host's whole root through
//      FUSE+ITFS, a private root, or selected host directories;
//   2. the container init process is cloned with new namespaces for every
//      type the spec isolates (the types left out are the holes);
//   3. init chroots to the mountpoint, mounts its own /proc (bound to its
//      PID namespace), and the network view / XCL exclusions are installed;
//   4. the capabilities behind the four container-escape techniques are
//      stripped (Table 1, attacks 1-4), plus CAP_SYS_ADMIN and
//      CAP_SYS_MODULE;
//   5. host-side peer daemons (itfs, snort) are spawned, and a kernel death
//      hook terminates the whole session if any peer — or the permission
//      broker — is killed (Attack 7).
//
// When the spec shares the host MNT namespace, filesystem monitoring is
// impossible by construction (§5.6); the deploy skips ITFS/chroot and
// installs the spec's XCL exclusions instead.

#ifndef SRC_CONTAINER_CONTAINIT_H_
#define SRC_CONTAINER_CONTAINIT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/broker/broker.h"
#include "src/container/spec.h"
#include "src/fs/itfs.h"
#include "src/net/socket.h"
#include "src/os/kernel.h"

namespace witcontain {

using SessionId = uint64_t;

// The host uid contained root maps to in rootless mode.
inline constexpr witos::Uid kRootlessHostUid = 100000;

// What ForensicReporter needs of a session's ITFS, sniffer and broker
// activity. ContainIt::Summary builds it from the live state of an active
// session; Terminate stores it on the session and then drops that state.
struct SessionSummary {
  uint64_t fs_ops = 0;
  uint64_t fs_denied = 0;
  std::vector<std::string> denied_paths;  // "op path [rule]", retained OpLog window
  uint64_t packets_inspected = 0;
  uint64_t packets_blocked = 0;
  std::vector<std::string> sniffer_hits;  // "BLOCK|ALERT rule -> addr:port (NB)"
  uint64_t broker_granted = 0;
  uint64_t broker_denied = 0;
};

struct Session {
  SessionId id = 0;
  // The image snapshot the session was built from, shared with every other
  // session of that image.
  std::shared_ptr<const ContainerImage> image;
  const PerforatedContainerSpec& spec() const { return image->spec; }
  std::string ticket_id;
  std::string admin;

  witos::Pid host_worker = witos::kNoPid;     // host-side ContainIT process
  witos::Pid container_init = witos::kNoPid;  // pid 1 inside the container
  witos::Pid shell = witos::kNoPid;           // admin's shell
  witos::Pid itfs_daemon = witos::kNoPid;     // host-side peer (watchdogged)
  witos::Pid sniffer_daemon = witos::kNoPid;  // host-side peer (watchdogged)

  std::string confs_path;  // vfs-space mountpoint, e.g. "/ConFS-1"
  // The heavy per-session state; Terminate drops all of it.
  std::shared_ptr<witfs::Itfs> itfs;          // null when unmonitored
  std::vector<std::shared_ptr<witfs::Itfs>> shared_dir_itfs;  // ShareDirectory mounts
  std::shared_ptr<witos::MemFs> private_root;  // for kPrivate / kDirs views
  std::shared_ptr<witnet::Sniffer> sniffer;    // null when unsniffed

  witos::CgroupId cgroup = witos::kRootCgroup;

  bool active = false;
  std::string termination_reason;
  uint64_t deploy_duration_ns = 0;
  // Set by Terminate; see ContainIt::Summary.
  SessionSummary summary;
};

class ContainIt {
 public:
  // `net` may be null for filesystem-only tests.
  ContainIt(witos::Kernel* kernel, witnet::NetStack* net);

  // Watches the broker's process (Attack 7) and registers the on-line
  // file-sharing and network-widening verbs with it.
  void AttachBroker(witbroker::PermissionBroker* broker);

  // Builds a session from a published image snapshot.
  witos::Result<SessionId> Deploy(std::shared_ptr<const ContainerImage> image,
                                  const std::string& ticket_id, const std::string& admin);
  // Publishes `spec` as an ad-hoc image (one policy compile, observed in
  // watchit_policy_compile_ns) and deploys it.
  witos::Result<SessionId> Deploy(const PerforatedContainerSpec& spec,
                                  const std::string& ticket_id, const std::string& admin);

  Session* FindSession(SessionId id);
  const Session* FindSession(SessionId id) const;
  Session* FindSessionByTicket(const std::string& ticket_id);

  // Ends an active session through ReleaseSession, stores its Summary and
  // drops its ITFS instances, private root and sniffer.
  witos::Status Terminate(SessionId id, const std::string& reason);

  // The session's forensic summary: built from live state while the
  // session is active, the copy Terminate stored once it is not.
  SessionSummary Summary(const Session& session) const;

  // On-line file sharing (paper §5.5): exposes `host_dir` at
  // `container_path` inside a *running* container via nsenter + an ITFS
  // bind mount. Requires the session to have an isolated MNT namespace.
  witos::Status ShareDirectory(SessionId id, const std::string& host_dir,
                               const std::string& container_path);

  // Widens a running container's network view (permission broker mechanism
  // two: "grant the perforated container additional permissions").
  witos::Status AllowNetworkEndpoint(SessionId id, witnet::Ipv4Addr addr, uint16_t port,
                                     const std::string& name);

  size_t active_sessions() const;
  const std::map<SessionId, std::unique_ptr<Session>>& sessions() const { return sessions_; }

  // Observability wiring: resolves the ITFS metric handles in `registry`
  // once; every ITFS instance deployed after this call shares them, and
  // emits spans tagged with its session's ticket id into `tracer` when one
  // is given.
  void EnableMetrics(witobs::MetricsRegistry* registry, witobs::Tracer* tracer = nullptr);

  // Retention cap applied to each new session's OpLog (0 = unbounded).
  void set_oplog_capacity(size_t capacity) { oplog_capacity_ = capacity; }

 private:
  // Runs the Figure 5 recipe into `session` (clones, mounts, cgroup,
  // namespaces, peer daemons). On failure the session is only partially
  // built; Deploy() unwinds it with ReleaseSession.
  witos::Status BuildSession(Session* session);
  // The one teardown path (Terminate and a failed Deploy both end here):
  // drops the session from the active indexes, kills and reaps its
  // processes, removes its mounts and /ConFS-<n> directory, erases its NET
  // namespace payload and frees its cgroup. Safe on any prefix of the
  // BuildSession recipe.
  void ReleaseSession(Session* session);
  // Active-session indexes; an inactive session is in neither.
  void IndexSession(Session* session);
  void UnindexSession(Session* session);
  witos::Status SetupFilesystemView(Session* session);
  witos::Status SetupNetworkView(Session* session);
  void OnProcessDeath(witos::Pid pid);
  std::shared_ptr<witfs::Itfs> MakeItfs(Session* session,
                                        std::shared_ptr<witos::Filesystem> lower);
  // Builds the summary from the session's live ITFS, sniffer and broker
  // state; the one source of SessionSummary.
  SessionSummary Summarize(const Session& session) const;

  witos::Kernel* kernel_;
  witnet::NetStack* net_;
  witbroker::PermissionBroker* broker_ = nullptr;
  std::shared_ptr<const witfs::ItfsMetrics> itfs_metrics_;
  witobs::Tracer* tracer_ = nullptr;
  size_t oplog_capacity_ = 0;
  std::map<SessionId, std::unique_ptr<Session>> sessions_;
  // Watchdogged peer pid (host worker, itfs, snort) -> its active session.
  std::map<witos::Pid, Session*> by_peer_pid_;
  // Ticket id -> active sessions in deploy order; FindSessionByTicket
  // answers with the oldest.
  std::multimap<std::string, Session*> by_ticket_;
  SessionId next_id_ = 1;
  uint32_t next_container_addr_ = 1;
};

}  // namespace witcontain

#endif  // SRC_CONTAINER_CONTAINIT_H_
