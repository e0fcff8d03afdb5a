// witbench inputs: the seeded ticket streams and admin command plans, all
// generated before timing, plus the fingerprint of everything generated.

#ifndef WITBENCH_PLANS_H_
#define WITBENCH_PLANS_H_

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/broker/policy.h"
#include "src/workload/ticket_gen.h"
#include "witbench/ledger.h"

namespace witbench {

// One admin command as planned: what to run and whether WatchIT must allow
// it. A kReplay op must succeed, in view or through the broker: it is one of
// the generator's required ops for the ticket's true class, replayed in that
// class's container.
struct Cmd {
  enum Kind : uint8_t { kRead, kWrite, kListDir, kConnect, kPb, kReplay };
  Kind kind = kRead;
  std::string arg;  // path, endpoint or verb
  bool expect_ok = true;
  witload::RequiredOp op;  // kReplay only
};

constexpr size_t kNumCmdKinds = Cmd::kReplay + 1;

inline const char* CmdKindName(Cmd::Kind kind) {
  switch (kind) {
    case Cmd::kRead: return "read";
    case Cmd::kWrite: return "write";
    case Cmd::kListDir: return "listdir";
    case Cmd::kConnect: return "connect";
    case Cmd::kPb: return "pb";
    case Cmd::kReplay: return "replay";
  }
  return "?";
}

// One deployment an admin thread works: the class container and the
// commands run in it between login and expiry.
struct SessionPlan {
  std::string ticket_class;
  std::vector<Cmd> cmds;
};

// What each admin_session class container can and cannot reach, as the
// shipped images and broker policies define it (src/core/ticket_class.cc).
struct ClassView {
  std::string cls;
  std::vector<std::string> read_ok;
  std::vector<std::string> list_ok;
  std::vector<std::string> denied;  // document rules, protected or absent paths
  std::vector<std::string> connect_ok;
  std::vector<std::string> connect_denied;
  std::vector<std::string> pb_ok;
  std::vector<std::string> pb_denied;
};

inline const std::vector<ClassView>& AdminClassViews() {
  static const std::vector<ClassView> kViews = {
      {"T-1",
       {"/home/user/.matlab/license.lic", "/home/user/notes.txt", "/home/user/.ssh/config"},
       {"/home/user", "/home/user/scan"},
       {"/home/user/documents/payroll.xlsx", "/etc/passwd"},
       {"license-server"},
       {"shared-storage"},
       {witbroker::kVerbPs},
       {witbroker::kVerbReboot}},
      {"T-3",
       {"/home/user/notes.txt", "/etc/hosts", "/etc/fstab"},
       {"/home/user", "/etc"},
       {"/home/user/documents/payroll.xlsx", "/etc/watchit/policy.conf", "/var/log/syslog"},
       {"shared-storage"},
       {"license-server"},
       {},
       {witbroker::kVerbPs}},
      {"T-5",
       {"/etc/hosts", "/var/log/syslog", "/home/user/notes.txt"},
       {"/", "/var/log", "/home/user"},
       {"/home/user/documents/payroll.xlsx", "/etc/watchit/policy.conf"},
       {},
       {"license-server"},
       {witbroker::kVerbPs},
       {witbroker::kVerbReboot}},
      {"T-6",
       {"/etc/hosts", "/var/log/syslog", "/home/user/notes.txt"},
       {"/", "/var/log", "/home/user"},
       {"/home/user/documents/payroll.xlsx", "/etc/watchit/policy.conf"},
       {"software-repo"},
       {"license-server"},
       {},
       {witbroker::kVerbPs}},
  };
  return kViews;
}

template <typename T>
const T& Pick(std::mt19937_64& rng, const std::vector<T>& from) {
  return from[static_cast<size_t>(rng() % from.size())];
}

// A seeded admin command stream for one class container. Reads sit next to
// writes of the same files, so read-path caching and write invalidation
// both show; every command's verdict is fixed by the class view.
// With `signature` the images scan content, so a blob*.dat read is denied.
//
// The shares below are a layer-coverage mix, not measured admin traffic:
// no trace of real in-container sessions exists to draw them from (the
// generator's required ops and the audited script corpus hold no listings,
// scanned reads or denied probes). Each share only makes sure its layer is
// exercised often enough for exact percentiles: in-view reads 25%, writes
// 12%, reads of just-written files 8%, listdir 10%, text reads under the
// signature scan 10%, signature-denied reads 5%, policy-denied reads 8%,
// allowed connects 6%, denied connects 4%, granted PB 7%, denied PB 5%
// (a class with no allowed connect or PB verb redraws). The benchmark
// prints every kind's latency and share on its own, so a result can be
// traced to the kind that moved rather than to the pooled figure.
inline std::vector<Cmd> CommandStream(std::mt19937_64& rng, const ClassView& view, size_t n,
                                      bool signature) {
  std::vector<Cmd> cmds;
  cmds.reserve(n);
  while (cmds.size() < n) {
    const uint64_t roll = rng() % 100;
    Cmd cmd;
    const std::string slot = std::to_string(rng() % 4);
    if (roll < 25) {
      cmd = {Cmd::kRead, Pick(rng, view.read_ok), true, {}};
    } else if (roll < 37) {
      cmd = {Cmd::kWrite, "/home/user/scan/out" + slot + ".log", true, {}};
    } else if (roll < 45) {
      cmd = {Cmd::kRead, "/home/user/scan/out" + slot + ".log", true, {}};
    } else if (roll < 55) {
      cmd = {Cmd::kListDir, Pick(rng, view.list_ok), true, {}};
    } else if (roll < 65) {
      cmd = {Cmd::kRead, "/home/user/scan/text" + slot + ".dat", true, {}};
    } else if (roll < 70) {
      cmd = {Cmd::kRead, "/home/user/scan/blob" + slot + ".dat", !signature, {}};
    } else if (roll < 78) {
      cmd = {Cmd::kRead, Pick(rng, view.denied), false, {}};
    } else if (roll < 84) {
      if (view.connect_ok.empty()) {
        continue;
      }
      cmd = {Cmd::kConnect, Pick(rng, view.connect_ok), true, {}};
    } else if (roll < 88) {
      cmd = {Cmd::kConnect, Pick(rng, view.connect_denied), false, {}};
    } else if (roll < 95) {
      if (view.pb_ok.empty()) {
        continue;
      }
      cmd = {Cmd::kPb, Pick(rng, view.pb_ok), true, {}};
    } else {
      cmd = {Cmd::kPb, Pick(rng, view.pb_denied), false, {}};
    }
    cmds.push_back(std::move(cmd));
  }
  return cmds;
}

// The "first look" after a deploy in deploy_churn: one read, one listing,
// one broker escalation — so per-ticket fixed costs dominate.
inline std::vector<Cmd> FirstLook(std::mt19937_64& rng, const ClassView& view) {
  std::vector<Cmd> cmds;
  cmds.push_back({Cmd::kRead, Pick(rng, view.read_ok), true, {}});
  cmds.push_back({Cmd::kListDir, Pick(rng, view.list_ok), true, {}});
  if (!view.pb_ok.empty()) {
    cmds.push_back({Cmd::kPb, Pick(rng, view.pb_ok), true, {}});
  } else {
    cmds.push_back({Cmd::kPb, Pick(rng, view.pb_denied), false, {}});
  }
  return cmds;
}

// The helpdesk ticket stream: evaluation class mix with the generator's
// per-class required ops. Ids are rewritten when a stream is reused.
inline std::vector<witload::GeneratedTicket> HelpdeskTickets(uint32_t seed, size_t n,
                                                             bool with_ops) {
  witload::TicketGenerator::Options options;
  options.seed = seed;
  options.with_ops = true;  // same draws either way; ops dropped below
  witload::TicketGenerator gen(options);
  auto tickets = gen.GenerateBatch(n, witload::TicketGenerator::EvaluationDistribution());
  if (!with_ops) {
    for (auto& t : tickets) {
      t.ops.clear();
    }
  }
  return tickets;
}

// Fingerprint of a generated input stream, so two commits can be shown to
// have run identical inputs.
class InputHash {
 public:
  void Add(const std::string& s) {
    hash_ = Fnv1a(s, hash_);
    hash_ = Fnv1a(std::string_view("\x1f", 1), hash_);
  }
  void Add(uint64_t v) { Add(std::to_string(v)); }
  void AddTicket(const witload::GeneratedTicket& t) {
    Add(t.text);
    Add(t.true_class);
    for (const auto& op : t.ops) {
      Add(static_cast<uint64_t>(op.kind));
      Add(op.path + "|" + op.service + "|" + op.endpoint_name + "|" + std::to_string(op.port));
    }
  }
  void AddCmd(const Cmd& c) {
    Add(static_cast<uint64_t>(c.kind));
    Add(c.arg);
    Add(c.expect_ok ? 1 : 0);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = Fnv1a("");
};

// ---------------------------------------------------------------------------
// Workload parameters.

// Open-loop offered rates, fixed at about 19% of the tickets_per_s each
// workload's saturated phase reached when the benchmark was defined (4-core
// VM, RelWithDebInfo: helpdesk ~5300/s, deploy_churn ~6300/s). Never
// rescaled: a faster pool shows up as lower latency at the same rate. The
// shared host runs up to twice as slow for stretches of seconds (host.h).
// At 70%, 50% and 38% offered load such a stretch pushed the pool into
// queueing, and the p50 of a segment rose up to fivefold, which no linear
// scaling undoes; at 19% even a twice-slower host leaves the pool under 40%
// busy.
constexpr double kHelpdeskRate = 1000.0;
constexpr double kChurnRate = 1200.0;

constexpr size_t kAdminThreads = 4;
constexpr size_t kAdminCommands = 300;  // commands per admin_session deployment

// Every phase runs in segments of a fixed amount of work, each on a fresh
// organization, until the phase's share of --seconds is used up; a fixed
// count keeps the history each segment accumulates the same on every run.
// Rates and latencies are computed per segment and reported as the median
// over segments, so a stretch of host noise that spoils a few segments does
// not move them. The PB round trip is the exception: its p99 is exact over
// the raw samples of all segments together (PB escalations are too rare in
// a helpdesk segment for a p99 of its own).
constexpr size_t kSaturatedTickets = 4000;
constexpr size_t kOpenLoopTickets = 1500;
// Tickets the traced ledger pass drives (every other one with spans).
constexpr size_t kLedgerTickets = 6000;

// Admin deployments per thread per segment; also the plans per thread, so
// every plan runs once per segment.
inline size_t AdminSessionsPerThread(const std::string& workload) {
  if (workload == "admin_session") {
    return 300;
  }
  return workload == "helpdesk" ? 2500 : 1000;
}

// Admin plans: per thread, one segment's deployments generated up front.
inline std::vector<std::vector<SessionPlan>> MakeAdminPlans(const std::string& workload, uint32_t seed,
                                                     const std::vector<witload::GeneratedTicket>& tickets,
                                                     InputHash* hash) {
  std::vector<std::vector<SessionPlan>> plans(kAdminThreads);
  const auto& views = AdminClassViews();
  const size_t per_thread = AdminSessionsPerThread(workload);
  for (size_t t = 0; t < kAdminThreads; ++t) {
    std::mt19937_64 rng(static_cast<uint64_t>(seed) * 1000003ull + t);
    for (size_t k = 0; k < per_thread; ++k) {
      SessionPlan plan;
      if (workload == "helpdesk") {
        // The ticket's own required ops, replayed one command at a time.
        const auto& ticket = tickets[(t * per_thread + k) % tickets.size()];
        plan.ticket_class = ticket.true_class;
        for (const auto& op : ticket.ops) {
          Cmd cmd;
          cmd.kind = Cmd::kReplay;
          cmd.op = op;
          cmd.arg = witload::OpKindName(op.kind) + " " + op.path + op.endpoint_name;
          plan.cmds.push_back(std::move(cmd));
        }
      } else {
        const ClassView& view = Pick(rng, views);
        plan.ticket_class = view.cls;
        plan.cmds = workload == "deploy_churn"
                        ? FirstLook(rng, view)
                        : CommandStream(rng, view, kAdminCommands, /*signature=*/true);
      }
      hash->Add(plan.ticket_class);
      for (const Cmd& cmd : plan.cmds) {
        hash->AddCmd(cmd);
      }
      plans[t].push_back(std::move(plan));
    }
  }
  return plans;
}

}  // namespace witbench

#endif  // WITBENCH_PLANS_H_
