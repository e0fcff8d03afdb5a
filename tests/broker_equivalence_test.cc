// Seeded differential run over the permission broker's two entry points.
//
// One seeded, single-threaded stream drives a booted machine through both
// ways a contained admin reaches the broker: interactive `PB <verb>`
// requests (AdminSession::Pb, one request frame per op) and whole-ticket
// replays (AdminSession::ReplayTicket, one batch frame per ticket). The
// stream deploys and expires tickets, advances the clock across rate
// windows, and covers a grant, a policy denial, a rate denial, an unknown
// verb (ENOSYS) and the custom verbs mount_volume and net_allow.
//
// The run is reduced to digests of everything the broker's request path
// writes:
//   * the verdict and response stream seen by the admin;
//   * every SecureLog shard's chain (size, head) and every epoch root;
//   * the broker's EventsSnapshot;
//   * the broker records in the kernel audit log;
//   * the final host MemFs contents (which include the audit spool);
//   * the request counters and shadow-policy accounting.
// The digests are pinned, so any refactor of the request path must leave
// all of them unchanged. The run is repeated with broker shards = 1 and
// shards = 8; the single-shard broker is stood up on the booted machine in
// place of its default eight-shard one.
//
// Replayed kill-process ops are left out of the stream: their host-side
// victim's lifecycle belongs to the session, not to the broker.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/broker/broker.h"
#include "src/core/cluster.h"
#include "src/core/session.h"
#include "src/workload/ticket_gen.h"

namespace watchit {
namespace {

constexpr uint64_t kSeed = 0x5eed0b40cc3ull;
constexpr int kSteps = 900;
constexpr uint64_t kSecond = 1000000000ull;

// Portable seeded generator (the stream must not depend on the standard
// library's distribution algorithms).
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

// Running FNV-1a digest over length-prefixed fields.
class Digest {
 public:
  Digest& Add(std::string_view field) {
    Num(field.size());
    hash_ = witbroker::Fnv1a(field, hash_);
    return *this;
  }
  Digest& Num(uint64_t value) {
    char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<char>((value >> (8 * i)) & 0xff);
    }
    hash_ = witbroker::Fnv1a(std::string_view(bytes, 8), hash_);
    return *this;
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

struct Digests {
  uint64_t responses = 0;
  uint64_t securelog = 0;
  uint64_t events = 0;
  uint64_t audit = 0;
  uint64_t memfs = 0;
  uint64_t counters = 0;
};

// What the stream covered, so a pinned digest can never be the digest of a
// stream that silently stopped reaching the broker.
struct Coverage {
  std::map<std::string, size_t> outcomes;  // "verb:OK" / "verb:EPERM" / ...
  size_t batches = 0;
  size_t batched_ops = 0;
  size_t rate_denials = 0;
};

struct Live {
  Deployment deployment;
  std::unique_ptr<AdminSession> session;
  int class_index = 0;
};

class Rig {
 public:
  explicit Rig(size_t shards) {
    machine_ = &cluster_.AddMachine("userpc", witnet::Ipv4Addr(10, 0, 1, 50));
    broker_ = &machine_->broker();
    if (shards != machine_->broker().shard_count()) {
      // Serve the machine's broker channel from a broker with `shards`
      // shards, wired like Machine::BootWatchIt wires the default one.
      witbroker::PermissionBroker::Options options;
      options.shards = shards;
      options.log_epoch_interval = 256;
      replacement_ = std::make_unique<witbroker::PermissionBroker>(
          &machine_->kernel(), machine_->broker_pid(), &machine_->policy(),
          &machine_->broker_channel(), options);
      machine_->containit().AttachBroker(replacement_.get());
      replacement_->EnableMetrics(&machine_->metrics());
      replacement_->set_event_capacity(1 << 16);
      broker_ = replacement_.get();
    }
    // T-7 gains an unknown verb and a tight rate budget (3 grants a
    // minute per admin); T-5 runs a narrower mined shadow policy beside
    // its enforcing one.
    witbroker::ClassPolicy t7;
    t7.allowed_verbs = {witbroker::kVerbPs, "frobnicate"};
    t7.max_requests_per_window = 3;
    machine_->policy().SetPolicy("T-7", t7);
    witbroker::ClassPolicy shadow;
    shadow.allowed_verbs = {witbroker::kVerbPs, witbroker::kVerbReadFile};
    machine_->policy().SetShadowPolicy("T-5", shadow);
  }

  Digests Run(Coverage* coverage) {
    SplitMix rng(kSeed);
    witload::TicketGenerator::Options gen_options;
    gen_options.seed = 77;
    gen_options.with_ops = true;
    witload::TicketGenerator generator(gen_options);
    Digest responses;
    int next_ticket = 1;

    for (int step = 0; step < kSteps; ++step) {
      size_t roll = rng.Below(100);
      if (live_.empty() || (roll < 10 && live_.size() < 5)) {
        Deploy(&rng, next_ticket++, &responses);
      } else if (roll < 16) {
        Expire(rng.Below(live_.size()), &responses);
      } else if (roll < 66) {
        Pb(&rng, &responses, coverage);
      } else if (roll < 92) {
        Replay(&rng, &generator, &responses, coverage);
      } else {
        machine_->kernel().clock().Advance((1 + rng.Below(30)) * kSecond);
        responses.Add("tick");
      }
    }
    while (!live_.empty()) {
      Expire(0, &responses);
    }

    Digests d;
    d.responses = responses.value();
    d.securelog = SecureLogDigest();
    d.events = EventsDigest();
    d.audit = AuditDigest();
    d.memfs = MemFsDigest();
    d.counters = CountersDigest();
    return d;
  }

 private:
  static constexpr int kClasses[] = {1, 3, 5, 6, 7, 11};
  static constexpr const char* kAdmins[] = {"alice", "bob", "mallory"};

  void Deploy(SplitMix* rng, int n, Digest* out) {
    int class_index = kClasses[rng->Below(std::size(kClasses))];
    Ticket ticket;
    ticket.id = "EQ-" + std::to_string(n);
    ticket.target_machine = machine_->name();
    ticket.assigned_class = witload::TicketClassName(class_index);
    ticket.admin = kAdmins[rng->Below(std::size(kAdmins))];
    auto deployment = manager_.Deploy(ticket);
    out->Add("deploy").Add(ticket.id).Num(deployment.ok() ? 0 : 1);
    ASSERT_TRUE(deployment.ok()) << ticket.id;
    if (replacement_ != nullptr) {
      ASSERT_TRUE(replacement_->BindTicket(ticket.id, ticket.assigned_class).ok());
    }
    Live live;
    live.deployment = *deployment;
    live.class_index = class_index;
    live.session = std::make_unique<AdminSession>(machine_, deployment->session,
                                                  deployment->certificate, &cluster_.ca());
    out->Num(live.session->Login().ok() ? 1 : 0);
    live_.push_back(std::move(live));
  }

  void Expire(size_t index, Digest* out) {
    Live& live = live_[index];
    live.session.reset();
    std::string ticket_id = live.deployment.certificate.ticket_id;
    out->Add("expire").Add(ticket_id).Num(manager_.Expire(&live.deployment).ok() ? 1 : 0);
    if (replacement_ != nullptr) {
      EXPECT_TRUE(replacement_->UnbindTicket(ticket_id).ok()) << ticket_id;
    }
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(index));
  }

  void Pb(SplitMix* rng, Digest* out, Coverage* coverage) {
    Live& live = live_[rng->Below(live_.size())];
    witos::Kernel& kernel = machine_->kernel();
    std::string verb;
    std::vector<std::string> args;
    witos::Pid victim = witos::kNoPid;
    switch (rng->Below(10)) {
      case 0:
        verb = witbroker::kVerbPs;
        break;
      case 1: {
        verb = witbroker::kVerbKill;
        auto spawned = kernel.Clone(kernel.init_pid(), "eqvictim", 0);
        ASSERT_TRUE(spawned.ok());
        victim = *spawned;
        args = {std::to_string(victim)};
        break;
      }
      case 2: {
        static const char* kPaths[] = {"/etc/hosts", "/var/log/syslog", "/etc/shadow",
                                       "/nonexistent"};
        verb = witbroker::kVerbReadFile;
        args = {kPaths[rng->Below(std::size(kPaths))]};
        break;
      }
      case 3:
        verb = witbroker::kVerbInstall;
        args = {"pkg" + std::to_string(rng->Below(4))};
        break;
      case 4:
        verb = witbroker::kVerbRestartService;
        args = {rng->Below(2) == 0 ? "sshd" : "cron"};
        break;
      case 5: {
        static const char* kDirs[] = {"/var/log/spark", "/home/user/project", "/etc/ssh"};
        const char* dir = kDirs[rng->Below(std::size(kDirs))];
        verb = witbroker::kVerbMountVolume;
        args = {dir, dir};
        break;
      }
      case 6: {
        static const char* kEndpoints[] = {"10.0.0.10", "10.0.0.20", "203.0.113.66", "bogus"};
        verb = witbroker::kVerbNetAllow;
        args = {kEndpoints[rng->Below(std::size(kEndpoints))],
                std::to_string(rng->Below(2) == 0 ? 80 : 27000)};
        break;
      }
      case 7:
      case 8:
        verb = "frobnicate";
        args = {"--now"};
        break;
      default:
        verb = witbroker::kVerbDriverUpdate;
        args = {"eq.ko"};
        break;
    }
    size_t rate_before = RateDenialsSoFar();
    auto result = live.session->Pb(verb, args);
    std::string outcome = result.ok() ? "OK" : witos::ErrName(result.error());
    out->Add("pb").Add(live.deployment.certificate.ticket_id).Add(verb).Add(outcome);
    if (result.ok()) {
      out->Add(*result);
    }
    ++coverage->outcomes[verb + ":" + outcome];
    if (RateDenialsSoFar() > rate_before) {
      ++coverage->rate_denials;
    }
    if (victim != witos::kNoPid) {
      out->Num(kernel.Reap(victim).ok() ? 1 : 0);
    }
  }

  void Replay(SplitMix* rng, witload::TicketGenerator* generator, Digest* out,
              Coverage* coverage) {
    Live& live = live_[rng->Below(live_.size())];
    std::vector<witload::RequiredOp> ops;
    for (const witload::RequiredOp& op : generator->Generate(live.class_index).ops) {
      if (op.kind != witload::OpKind::kKillProcess) {
        ops.push_back(op);
      }
    }
    // Ops that leave most class views, so tickets batch several verbs.
    if (rng->Below(2) == 0) {
      witload::RequiredOp ps;
      ps.kind = witload::OpKind::kListProcesses;
      ops.push_back(ps);
    }
    if (rng->Below(2) == 0) {
      witload::RequiredOp driver;
      driver.kind = witload::OpKind::kDriverUpdate;
      driver.service = "eq-batch.ko";
      ops.push_back(driver);
    }
    size_t events_before = broker_->EventsSnapshot().size();
    std::vector<OpReplayResult> results = live.session->ReplayTicket(ops);
    out->Add("replay").Add(live.deployment.certificate.ticket_id).Num(results.size());
    for (const OpReplayResult& r : results) {
      out->Num(static_cast<uint64_t>(r.op.kind))
          .Num(r.in_view)
          .Num(r.used_broker)
          .Num(r.broker_ok)
          .Num(static_cast<uint64_t>(r.category));
    }
    size_t sent = broker_->EventsSnapshot().size() - events_before;
    if (sent > 0) {
      ++coverage->batches;
      coverage->batched_ops += sent;
    }
  }

  // Denials of a policy-allowed verb: the enforcing policy granted it, so
  // only the rate limiter can have refused it.
  size_t RateDenialsSoFar() const {
    size_t n = 0;
    for (const witbroker::BrokerEvent& e : broker_->EventsSnapshot()) {
      if (!e.granted && e.ticket_class == "T-7" &&
          machine_->policy().IsAllowed(e.ticket_class, e.verb, e.admin)) {
        ++n;
      }
    }
    return n;
  }

  uint64_t SecureLogDigest() const {
    Digest d;
    const witbroker::SecureLog& log = broker_->log();
    EXPECT_TRUE(log.Verify());
    d.Num(log.shard_count());
    for (size_t s = 0; s < log.shard_count(); ++s) {
      std::vector<witbroker::SecureLogEntry> chain = log.SnapshotShard(s);
      d.Num(chain.size()).Num(chain.empty() ? 0 : chain.back().hash);
    }
    for (const witbroker::EpochRoot& root : log.EpochRootsSnapshot()) {
      d.Num(root.epoch).Num(root.time_ns).Num(root.root_hash);
    }
    return d.value();
  }

  uint64_t EventsDigest() const {
    Digest d;
    for (const witbroker::BrokerEvent& e : broker_->EventsSnapshot()) {
      d.Num(e.time_ns).Add(e.admin).Add(e.ticket_id).Add(e.ticket_class).Add(e.verb);
      d.Num(e.args.size());
      for (const std::string& arg : e.args) {
        d.Add(arg);
      }
      d.Num(e.granted);
    }
    return d.value();
  }

  uint64_t AuditDigest() {
    Digest d;
    for (const witos::AuditRecord& rec : machine_->kernel().audit().Filter(
             [](const witos::AuditRecord& r) {
               return r.event == witos::AuditEvent::kBrokerRequest ||
                      r.event == witos::AuditEvent::kBrokerDenied;
             })) {
      d.Num(rec.seq)
          .Num(static_cast<uint64_t>(rec.event))
          .Num(static_cast<uint64_t>(rec.pid))
          .Num(rec.uid)
          .Add(rec.detail)
          .Num(rec.time_ns);
    }
    return d.value();
  }

  uint64_t MemFsDigest() {
    Digest d;
    WalkFs("/", &d);
    return d.value();
  }

  void WalkFs(const std::string& path, Digest* d) {
    witos::MemFs& fs = machine_->kernel().root_fs();
    const witos::Credentials root;
    auto attr = fs.GetAttr(path, root);
    ASSERT_TRUE(attr.ok()) << path;
    d->Add(path)
        .Num(static_cast<uint64_t>(attr->type))
        .Num(attr->mode)
        .Num(attr->uid)
        .Num(attr->gid)
        .Num(attr->size);
    if (attr->type == witos::FileType::kRegular) {
      auto content = fs.SlurpForTest(path);
      ASSERT_TRUE(content.ok()) << path;
      d->Add(*content);
    } else if (attr->type == witos::FileType::kDirectory) {
      auto entries = fs.ReadDir(path, root);
      ASSERT_TRUE(entries.ok()) << path;
      for (const witos::DirEntry& entry : *entries) {
        if (entry.name == "." || entry.name == "..") {
          continue;
        }
        WalkFs(path == "/" ? "/" + entry.name : path + "/" + entry.name, d);
      }
    }
  }

  uint64_t CountersDigest() {
    Digest d;
    for (const char* verb : {"ps", "kill", "read_file", "install", "restart_service",
                             "mount_volume", "net_allow", "frobnicate", "driver_update"}) {
      for (const char* outcome : {"grant", "deny"}) {
        d.Add(verb).Add(outcome).Num(
            machine_->metrics()
                .GetCounter("watchit_broker_requests_total",
                            {{"verb", verb}, {"outcome", outcome}})
                ->Value());
      }
    }
    witbroker::PermissionBroker::ShadowStats shadow = broker_->shadow_stats();
    d.Num(shadow.evaluated).Num(shadow.agree).Num(shadow.would_block).Num(shadow.would_allow);
    return d.value();
  }

  // Destroyed after the cluster: the machine's channel and ContainIT keep
  // pointing at the replacement broker until the machine is gone.
  std::unique_ptr<witbroker::PermissionBroker> replacement_;
  Cluster cluster_;
  ClusterManager manager_{&cluster_};
  Machine* machine_ = nullptr;
  witbroker::PermissionBroker* broker_ = nullptr;
  std::deque<Live> live_;
};

std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void ExpectCovered(const Coverage& c) {
  auto count = [&c](const std::string& key) {
    auto it = c.outcomes.find(key);
    return it == c.outcomes.end() ? size_t{0} : it->second;
  };
  EXPECT_GT(count("ps:OK"), 0u);
  EXPECT_GT(count("driver_update:EPERM"), 0u);  // policy deny for most classes
  EXPECT_GT(count("frobnicate:ENOSYS"), 0u);
  EXPECT_GT(count("mount_volume:OK"), 0u);
  EXPECT_GT(count("net_allow:OK"), 0u);
  EXPECT_GT(c.rate_denials, 0u);
  EXPECT_GT(c.batches, 0u);
  EXPECT_GT(c.batched_ops, c.batches);
}

void ExpectDigests(const Digests& got, const Digests& want) {
  EXPECT_EQ(Hex(got.responses), Hex(want.responses)) << "verdict/response stream";
  EXPECT_EQ(Hex(got.securelog), Hex(want.securelog)) << "SecureLog chain heads + epoch roots";
  EXPECT_EQ(Hex(got.events), Hex(want.events)) << "broker EventsSnapshot";
  EXPECT_EQ(Hex(got.audit), Hex(want.audit)) << "broker records in the kernel audit log";
  EXPECT_EQ(Hex(got.memfs), Hex(want.memfs)) << "final host MemFs";
  EXPECT_EQ(Hex(got.counters), Hex(want.counters)) << "request counters + shadow stats";
}

// Shard-independent digests: the admin-visible stream, the audit trail, the
// host filesystem and the counters do not depend on how the broker
// partitions its state.
Digests Pinned(uint64_t securelog, uint64_t events) {
  Digests d;
  d.responses = 0x72f67ab1c46e0f18ull;
  d.securelog = securelog;
  d.events = events;
  d.audit = 0x844609d3325821f0ull;
  d.memfs = 0x8a7ea75b859ebbb2ull;
  d.counters = 0x1a1a61dc4c195581ull;
  return d;
}

TEST(BrokerEquivalenceTest, SingleShardDigestsArePinned) {
  Coverage coverage;
  Rig rig(1);
  Digests got = rig.Run(&coverage);
  ExpectCovered(coverage);
  ExpectDigests(got, Pinned(0xae8dd52ee77ee2d6ull, 0xc5c047a7391c6c74ull));
}

TEST(BrokerEquivalenceTest, EightShardDigestsArePinned) {
  Coverage coverage;
  Rig rig(8);
  Digests got = rig.Run(&coverage);
  ExpectCovered(coverage);
  ExpectDigests(got, Pinned(0x591819ecc6333c0bull, 0xe38ae4b8e082e194ull));
}

}  // namespace
}  // namespace watchit
