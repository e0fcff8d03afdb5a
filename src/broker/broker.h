// The permission broker (paper §5.4): a host-side service with unlimited
// access to the host's namespaces. Contained administrators ask it to
// execute commands on their behalf ("PB ps -a") or to widen their container
// view. Every request — granted or denied — is written to the secure
// append-only log and the kernel audit trail.

#ifndef SRC_BROKER_BROKER_H_
#define SRC_BROKER_BROKER_H_

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/broker/policy.h"
#include "src/broker/rpc.h"
#include "src/broker/securelog.h"
#include "src/obs/metrics.h"
#include "src/obs/profile.h"
#include "src/obs/trace.h"
#include "src/os/kernel.h"

namespace witbroker {

// A structured record of one broker request, consumed by the anomaly
// detector and the case-study accounting.
struct BrokerEvent {
  uint64_t time_ns = 0;
  std::string admin;
  std::string ticket_id;
  std::string ticket_class;
  std::string verb;
  std::vector<std::string> args;
  bool granted = false;
};

// Requests the broker served for one bound ticket, by outcome.
struct TicketRequestCounts {
  uint64_t granted = 0;
  uint64_t denied = 0;
};

class PermissionBroker {
 public:
  // Hot-state partitioning (DESIGN.md §14). With shards > 1 the event
  // window, the ticket-class map and the secure log are each split into
  // that many hash shards keyed by ticket id, so concurrent request paths
  // for different tickets serialize only with themselves. shards = 1
  // reproduces the original single-mutex layout exactly.
  struct Options {
    size_t shards = 1;
    // Appends between auto-sealed secure-log epoch roots (0 = manual
    // sealing only); meaningful mostly when shards > 1.
    uint64_t log_epoch_interval = 0;
    // Lock the broker holds around each use of `kernel` (clock reads and
    // verb dispatch) but not around its own sharded state. Leave null when
    // every caller already holds the machine lock, as the serving paths
    // do; set it when several threads call Handle on one machine without
    // that lock (bench_rpc_batching's contended run). Must outlive the
    // broker.
    std::mutex* kernel_mu = nullptr;
  };

  // `kernel` is the host machine; `host_pid` is the broker's own process on
  // it (root, full capabilities, host namespaces). The broker binds itself
  // to `channel`.
  PermissionBroker(witos::Kernel* kernel, witos::Pid host_pid, PolicyManager* policy,
                   RpcChannel* channel, Options options);
  PermissionBroker(witos::Kernel* kernel, witos::Pid host_pid, PolicyManager* policy,
                   RpcChannel* channel)
      : PermissionBroker(kernel, host_pid, policy, channel, Options()) {}

  witos::Pid host_pid() const { return host_pid_; }
  SecureLog& log() { return log_; }
  const SecureLog& log() const { return log_; }
  size_t shard_count() const { return event_shards_.size(); }

  // Consistent point-in-time copy of the structured event window — the
  // anomaly detector and forensic reports read this so their input cannot
  // shift (or reallocate) under them while the broker keeps serving. With
  // one shard this is the append-order window; with several it is the
  // cross-shard merge ordered by time_ns (ties keep shard index order).
  std::vector<BrokerEvent> EventsSnapshot() const;

  // Maps a ticket id to its class so policy lookups work; the cluster
  // manager registers each deployed ticket here. EEXIST when the ticket is
  // already bound — a duplicate deploy must not silently reclassify a live
  // ticket.
  witos::Status BindTicket(const std::string& ticket_id, const std::string& ticket_class);
  // Removes a binding made by BindTicket (the expire / deploy-rollback
  // path); ESRCH when the ticket is not bound.
  witos::Status UnbindTicket(const std::string& ticket_id);
  bool IsTicketBound(const std::string& ticket_id) const;
  // Grant/deny counts of the requests served for `ticket_id` while it has
  // been bound; zero for an unbound ticket. Exact regardless of the event
  // window's retention cap.
  TicketRequestCounts TicketRequests(const std::string& ticket_id) const;
  // Live bindings right now; the deploy fault sweeps assert this returns to
  // zero once every ticket has expired or rolled back.
  size_t bound_ticket_count() const;
  // Consistent-per-shard copy of every live (ticket, class) binding — what
  // a checkpoint persists. Shards are walked in index order, bindings
  // within a shard in map order.
  std::vector<std::pair<std::string, std::string>> BoundTicketsSnapshot() const;

  // Observer for the write-ahead journal (witjournal, DESIGN.md §15):
  // invoked under the binding's shard lock after every successful
  // BindTicket (bound=true) / UnbindTicket (bound=false). Must not call
  // back into the broker. Set before traffic starts.
  using BindingListener =
      std::function<void(const std::string& ticket_id, const std::string& ticket_class, bool bound)>;
  void set_binding_listener(BindingListener listener) { binding_listener_ = std::move(listener); }

  // Extension point: ContainIT registers "mount_volume"; the cluster layer
  // registers "net_allow". The handler runs with the broker's host
  // privileges after the policy check passed. Register verbs before
  // traffic starts.
  using VerbHandler = std::function<RpcResponse(const RpcRequest&)>;
  void RegisterVerb(const std::string& verb, VerbHandler handler);

  // The two entry points the channel serves: one request (interactive
  // `PB <verb>`) or one ticket's batch. Both run the same per-op core, so a
  // batch of N ops leaves exactly what N single requests would: N broker
  // events, N secure-log entries and N kernel audit records (Table 1
  // threat semantics). A batch pays the ticket-class lookup, the event-
  // window lock and the SecureLog critical section once. Responses are
  // positional. Exposed for tests and benches; normal callers go through
  // the RpcChannel.
  RpcResponse Handle(const RpcRequest& request);
  RpcBatchResponse HandleBatch(const RpcBatchRequest& batch);

  // Wires the broker into the observability layer: request and shadow
  // counters by verb and outcome (resolved here for every known verb), and
  // a dispatch-latency histogram in simulated nanoseconds. Spans tagged
  // with the ticket id are emitted when `tracer` is non-null.
  void EnableMetrics(witobs::MetricsRegistry* registry, witobs::Tracer* tracer = nullptr);

  // Retention cap for the structured event window, applied per shard
  // (0 = unbounded). When a shard's cap is hit its oldest events are
  // evicted; dropped_events() (and the watchit_broker_events_dropped_total
  // series) count the evictions. The secure log is untouched — it is the
  // tamper-evident record; the event window is the in-memory analysis view.
  // Takes each shard's lock and applies the new cap immediately (evicting
  // down to it), so a resize during live traffic is race-free.
  void set_event_capacity(size_t capacity);
  size_t dropped_events() const;

  // Shadow-policy accounting (witmine, DESIGN.md §17): how often the mined
  // shadow verb policy agreed with the enforcing one per request.
  // would_block = shadow would deny a request the enforcing policy granted
  // (candidate privilege reduction); would_allow = shadow looser than the
  // enforcing policy. The comparison is against the pure policy verdict —
  // rate-limit denials are not divergences, and shadow evaluation never
  // consumes rate budget.
  struct ShadowStats {
    uint64_t evaluated = 0;
    uint64_t agree = 0;
    uint64_t would_block = 0;
    uint64_t would_allow = 0;
  };
  ShadowStats shadow_stats() const;

 private:
  // One shard of the bounded event window: a deque so the cap evicts from
  // the front in O(1) (the old vector erase was O(window) per append —
  // quadratic once capped under load). Guarded by its ProfiledMutex, named
  // "broker.events" single-shard / "broker.events.N" sharded.
  struct EventShard {
    explicit EventShard(std::string name) : mu(std::move(name)) {}
    mutable witobs::ProfiledMutex mu;
    std::deque<BrokerEvent> events;
    size_t capacity = 0;  // per-shard window, 0 = unbounded
    uint64_t dropped = 0;
  };
  // One bound ticket: its class and the outcome counts of its requests.
  // Request paths hold it by shared_ptr, so an unbind mid-request is safe.
  struct TicketState {
    explicit TicketState(std::string cls) : ticket_class(std::move(cls)) {}
    const std::string ticket_class;
    std::atomic<uint64_t> granted{0};
    std::atomic<uint64_t> denied{0};
  };
  // One shard of the bound-ticket map ("broker.tickets[.N]"): deploy
  // workers bind/unbind while request paths resolve.
  struct TicketShard {
    explicit TicketShard(std::string name) : mu(std::move(name)) {}
    mutable witobs::ProfiledMutex mu;
    std::map<std::string, std::shared_ptr<TicketState>> tickets;
  };
  // A verb's counter handles, [0] = grant / agree.
  struct VerbCounters {
    witobs::Counter* requests[2] = {};  // grant, deny
    witobs::Counter* shadow[3] = {};    // agree, would_block, would_allow
  };

  // Ticket-affinity hash: one ticket's events, class binding and secure-log
  // entries all live on the shard this picks.
  uint64_t TicketShardKey(const std::string& ticket_id) const {
    return Fnv1a(ticket_id);
  }
  EventShard& EventShardOf(const std::string& ticket_id) {
    return *event_shards_[TicketShardKey(ticket_id) % event_shards_.size()];
  }
  TicketShard& TicketShardOf(const std::string& ticket_id) const {
    return *ticket_shards_[TicketShardKey(ticket_id) % ticket_shards_.size()];
  }
  void PushEventLocked(EventShard* shard, BrokerEvent event);

  // The one request path behind Handle and HandleBatch. `requests` all
  // name one ticket. Per op: policy check, rate admission, shadow check,
  // BrokerEvent, counters, SecureLog line and kernel audit record; then,
  // under LockKernel(), dispatch of the granted ops into `responses`.
  void Serve(std::span<const RpcRequest> requests, std::span<RpcResponse> responses);
  RpcResponse Dispatch(const RpcRequest& request);
  RpcResponse Ok(std::string payload) const;
  RpcResponse Fail(witos::Err err) const;

  // Per-op accountability pieces used by Serve.
  std::shared_ptr<TicketState> FindTicket(const std::string& ticket_id) const;
  BrokerEvent MakeEvent(const RpcRequest& request, const std::string& ticket_class,
                        uint64_t now, bool allowed);
  // A known verb's handles come from verb_counters_; any other verb (one
  // with no handler) is resolved by name, as the series is then new.
  void ResolveVerbCounters(const std::string& verb);
  witobs::Counter* RequestCounter(const std::string& verb, bool granted) const;
  witobs::Counter* ShadowCounter(const std::string& verb, size_t outcome) const;
  void CountRequest(const RpcRequest& request, TicketState* ticket, bool allowed);
  // Consults the shadow policy (if one covers the class) and accounts the
  // divergence from the enforcing verdict; never changes the outcome.
  void ShadowCheck(const RpcRequest& request, const std::string& ticket_class,
                   bool policy_allowed);
  std::string LogLine(const RpcRequest& request, const std::string& ticket_class,
                      bool allowed);

  RpcResponse HandlePs(const RpcRequest& request);
  RpcResponse HandleKill(const RpcRequest& request);
  RpcResponse HandleReadFile(const RpcRequest& request);
  RpcResponse HandleInstall(const RpcRequest& request);
  RpcResponse HandleRestartService(const RpcRequest& request);
  RpcResponse HandleReboot(const RpcRequest& request);
  RpcResponse HandleDriverUpdate(const RpcRequest& request);

  void RecordEvents(const std::string& ticket_id, std::span<BrokerEvent> events);
  // Holds Options::kernel_mu when one was given; otherwise owns nothing.
  std::unique_lock<std::mutex> LockKernel() const;

  witos::Kernel* kernel_;
  std::mutex* kernel_mu_;
  witos::Pid host_pid_;
  PolicyManager* policy_;
  SecureLog log_;
  // Per-shard hot state (DESIGN.md §14). Every shard mutex is a
  // ProfiledMutex: EnableMetrics ranks them against every other lock in
  // the process via watchit_lock_{wait,hold}_ns.
  std::vector<std::unique_ptr<EventShard>> event_shards_;
  std::vector<std::unique_ptr<TicketShard>> ticket_shards_;
  std::map<std::string, VerbHandler> custom_verbs_;
  BindingListener binding_listener_;

  std::atomic<uint64_t> shadow_evaluated_{0};
  std::atomic<uint64_t> shadow_agree_{0};
  std::atomic<uint64_t> shadow_would_block_{0};
  std::atomic<uint64_t> shadow_would_allow_{0};

  // Observability wiring (all null when metrics are disabled).
  witobs::MetricsRegistry* metrics_ = nullptr;
  witobs::Tracer* tracer_ = nullptr;
  witobs::Counter* events_dropped_ = nullptr;
  witobs::Histogram* dispatch_latency_ = nullptr;
  // Every known verb's handles, filled by EnableMetrics and RegisterVerb
  // before traffic; read without a lock on the request path.
  std::map<std::string, VerbCounters, std::less<>> verb_counters_;
};

// The in-container client stub. Only privileged users may talk to the
// broker ("we configure the permission broker client to accept only
// requests from privileged users").
//
// Two calling styles:
//  * Request(): one verb, one request frame — the interactive `PB` command.
//  * Begin()/Queue()/Flush(): pipelining — queued verbs ride a single
//    RpcBatchRequest frame, so a whole ticket's escalations pay one
//    serialization + one seal/MAC. Flush() yields positional per-op
//    Results; a transport failure fails every queued op (atomic batch).
class BrokerClient {
 public:
  BrokerClient(RpcChannel* channel, std::string ticket_id, std::string admin)
      : channel_(channel), ticket_id_(std::move(ticket_id)), admin_(std::move(admin)) {}

  // Issues `PB <verb> <args...>` as the in-container user `uid`. On a
  // broker denial or dispatch failure the typed error code round-trips from
  // the broker (EPERM for policy denials, ENOSYS for unknown verbs, ...).
  witos::Result<std::string> Request(const std::string& verb,
                                     const std::vector<std::string>& args, witos::Uid uid,
                                     witos::Pid caller_pid = witos::kNoPid);

  // Opens a pipeline for the in-container user `uid`; discards any ops
  // still queued from an abandoned pipeline.
  void Begin(witos::Uid uid, witos::Pid caller_pid = witos::kNoPid);
  // Queues `PB <verb> <args...>`; returns the op's position — Flush()'s
  // result vector answers positionally.
  size_t Queue(const std::string& verb, const std::vector<std::string>& args);
  // Sends every queued op in one batch frame. Entry i answers Queue() i.
  // The privileged-caller check and any transport error apply to the whole
  // batch: every entry carries the same error and nothing reached the
  // broker. An empty pipeline flushes to an empty vector with no crossing.
  std::vector<witos::Result<std::string>> Flush();

  size_t pending() const { return pending_.size(); }

 private:
  RpcChannel* channel_;
  std::string ticket_id_;
  std::string admin_;
  witos::Uid batch_uid_ = 0;
  witos::Pid batch_caller_pid_ = witos::kNoPid;
  std::vector<RpcSubRequest> pending_;
};

}  // namespace witbroker

#endif  // SRC_BROKER_BROKER_H_
