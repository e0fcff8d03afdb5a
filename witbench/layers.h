// witbench per-layer ledger (--trace 1).
//
// Three parts, all driven from the benchmark's own threads:
//  1. on helpdesk, a short open-loop ServerPool probe at its offered rate,
//     for the serve.* numbers (Submit time, EBUSY refusals, steals,
//     lateness); the other workloads report serve.* as n/a;
//  2. the ledger pass: the workload's inputs pushed through the public
//     functions (Classify, Assign, RunDeployStages with BenchGate,
//     AdminSession, ClusterManager::Expire, Complete) with every other
//     ticket traced — spans give in-situ self time and calls per ticket, the
//     untraced tickets give the tracing overhead;
//  3. isolated direct-call costs of each layer on a fresh two-machine
//     organization (CA, CompiledPolicy, rpc, broker, SecureLog, journal,
//     registry, ITFS, and every ledger step), which the reconciliation
//     multiplies by calls per ticket and sets against the traced wall.
// Calls per ticket for inner layers come from counters the program exports.

#ifndef WITBENCH_LAYERS_H_
#define WITBENCH_LAYERS_H_

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/broker/rpc.h"
#include "src/broker/securelog.h"
#include "src/durability/journal.h"
#include "witbench/env.h"
#include "witbench/phases.h"
#include "witbench/plans.h"

namespace witbench {

// Mean microseconds per call of `fn`, called repeatedly for `budget_s`.
template <typename F>
double MeanUs(double budget_s, F&& fn) {
  const uint64_t start = NowNs();
  const uint64_t budget = static_cast<uint64_t>(budget_s * 1e9);
  uint64_t calls = 0;
  uint64_t now = start;
  do {
    fn(calls);
    ++calls;
    now = NowNs();
  } while (now - start < budget);
  return static_cast<double>(now - start) / 1e3 / static_cast<double>(calls);
}

// Per span name: mean self time and how many calls a ticket makes.
struct SpanStats {
  std::vector<double> self_us_sum = std::vector<double>(kNumSpanNames, 0.0);
  std::vector<double> calls = std::vector<double>(kNumSpanNames, 0.0);
  double tickets = 0.0;

  void Add(const std::vector<SpanRec>& spans) {
    const std::vector<uint64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      self_us_sum[spans[i].name] += static_cast<double>(self[i]) / 1e3;
      calls[spans[i].name] += 1.0;
      if (spans[i].name == kSpanTicket) {
        tickets += 1.0;
      }
    }
  }
  bool Has(uint32_t name) const { return calls[name] > 0.0; }
  double MeanSelfUs(uint32_t name) const {
    return calls[name] > 0.0 ? self_us_sum[name] / calls[name] : 0.0;
  }
  double PerTicket(uint32_t name) const { return tickets > 0.0 ? calls[name] / tickets : 0.0; }
};

// Program-exported counters summed over the organization.
struct StateCounters {
  double compiles = 0;
  double broker_requests = 0;
  double journal_records = 0;
  double series = 0;
  double sessions = 0;
  double ca_certs = 0;
};

inline double SumCounterFamily(const witobs::MetricsRegistry& registry, const std::string& name) {
  double sum = 0;
  for (const auto& family : registry.Snapshot()) {
    if (family.name != name) {
      continue;
    }
    for (const auto& series : family.series) {
      if (series.counter != nullptr) {
        sum += static_cast<double>(series.counter->Value());
      }
    }
  }
  return sum;
}

inline StateCounters ReadCounters(Env* env) {
  StateCounters c;
  watchit::Cluster& cluster = *env->cluster;
  for (size_t i = 0; i < cluster.size(); ++i) {
    watchit::Machine& machine = cluster.machine(i);
    const witobs::Histogram* compile = machine.metrics().FindHistogram("watchit_policy_compile_ns");
    c.compiles += compile != nullptr ? static_cast<double>(compile->Count()) : 0.0;
    c.broker_requests += SumCounterFamily(machine.metrics(), "watchit_broker_requests_total");
    c.series += static_cast<double>(machine.metrics().SeriesCount());
    c.sessions += static_cast<double>(machine.containit().sessions().size());
  }
  c.series += static_cast<double>(env->registry.SeriesCount());
  c.ca_certs = static_cast<double>(cluster.ca().issued_count());
  if (env->durability != nullptr) {
    c.journal_records = static_cast<double>(env->durability->journal().records_appended());
  }
  return c;
}

// Deploy cycles the isolated probe runs on its own machine, and calls per
// fresh session for the command-level probes.
constexpr uint64_t kIsolatedDeploys = 300;
constexpr uint64_t kCommandsPerSession = kAdminCommands;

class LayerRun {
 public:
  LayerRun(std::string workload, uint32_t seed, double seconds, std::string trace_out)
      : workload_(std::move(workload)), seed_(seed), seconds_(seconds),
        trace_out_(std::move(trace_out)) {}

  void Run(Metrics* m, GateReport* gate, InputHash* hash, std::vector<double>* setups,
           uint64_t* attempted, uint64_t* failed) {
    const bool admin = workload_ == "admin_session";
    const bool churn = workload_ == "deploy_churn";
    options_.framework = !admin;  // admin_session never classifies
    options_.journal = churn;
    options_.signature = admin;
    options_.seed = seed_;
    tickets_ = HelpdeskTickets(seed_, 4000, /*with_ops=*/workload_ == "helpdesk");
    for (const auto& t : tickets_) {
      hash->AddTicket(t);
    }
    plans_ = MakeAdminPlans(workload_, seed_, tickets_, hash);

    // 1. ServerPool probe at helpdesk's offered rate; the serve.* layer is
    //    predicted to move helpdesk's ticket latency only.
    PoolResult probe;
    if (workload_ == "helpdesk") {
      auto env = BuildEnv(options_);
      PoolPhase phase;
      phase.open_loop = true;
      phase.rate = kHelpdeskRate;
      phase.tickets = kOpenLoopTickets;
      phase.seed = seed_;
      probe = RunPoolPhase(env.get(), tickets_, phase);
      setups->push_back(env->setup_s + probe.warmup_s);
      CheckQuiescent(env.get(), "serve_probe", gate);
      *attempted += probe.sent;
      *failed += probe.failed + probe.refused;
      std::printf("  phase %-16s sent=%llu succeeded=%llu failed=%llu\n", "serve_probe",
                  static_cast<unsigned long long>(probe.sent),
                  static_cast<unsigned long long>(probe.served),
                  static_cast<unsigned long long>(probe.failed + probe.refused));
    }

    // 2. The ledger pass.
    auto env = BuildEnv(options_);
    setups->push_back(env->setup_s);
    const StateCounters before = ReadCounters(env.get());
    uint64_t ledger_tickets = 0;
    uint64_t counted_tickets = 0;  // deployments behind the counter deltas
    if (admin) {
      AdminResult r = RunAdminLoop(env.get(), plans_, AdminSessionsPerThread(workload_),
                                   /*traced=*/true);
      for (auto& out : r.threads) {
        ledger_.Add(out.trace.spans());
        traced_us_.insert(traced_us_.end(), out.traced_ticket_us.begin(),
                          out.traced_ticket_us.end());
        untraced_us_.insert(untraced_us_.end(), out.untraced_ticket_us.begin(),
                            out.untraced_ticket_us.end());
        traces_.push_back(std::move(out.trace));
      }
      ledger_tickets = r.sessions;
      // The loop's untimed warm-up deployments also moved the counters.
      counted_tickets = r.sessions + kWarmupSessions * plans_.size();
      *attempted += r.cmds;
      *failed += r.mismatches + r.deploy_failures;
      if (r.mismatches + r.deploy_failures != 0) {
        gate->violations.push_back("ledger: " + std::to_string(r.mismatches) +
                                   " command outcome(s) differ from the plan");
      }
    } else {
      ledger_tickets = TicketLedger(env.get(), kLedgerTickets, failed);
      counted_tickets = ledger_tickets;
      *attempted += ledger_tickets;
    }
    const StateCounters after = ReadCounters(env.get());
    CheckQuiescent(env.get(), "ledger", gate);
    std::printf("  phase %-16s sent=%llu succeeded=%llu failed=%llu\n", "ledger",
                static_cast<unsigned long long>(ledger_tickets),
                static_cast<unsigned long long>(ledger_tickets - ledger_failed_),
                static_cast<unsigned long long>(ledger_failed_));
    env.reset();

    // 3. Isolated costs on a fresh single-machine organization.
    Isolated(gate, setups);

    Emit(m, probe, before, after, static_cast<double>(counted_tickets));
    WriteSpans();
  }

 private:
  // Single-thread direct drive of `count` tickets through the workflow,
  // every other ticket traced. Returns tickets attempted.
  uint64_t TicketLedger(Env* env, size_t count, uint64_t* failed) {
    watchit::ClusterManager manager(env->cluster.get());
    TicketSource source(&tickets_);
    traces_.emplace_back();
    ThreadTrace& tt = traces_.back();
    tt.Reserve(1 << 20);
    uint64_t i = 0;
    for (; i < count; ++i) {
      witload::GeneratedTicket g = source.Get(i);
      ThreadTrace* trace = i % 2 == 0 ? &tt : nullptr;
      const uint64_t start = NowNs();
      bool ok = TicketOnce(env, &manager, g, i, trace);
      const double us = static_cast<double>(NowNs() - start) / 1e3;
      if (!ok) {
        ++ledger_failed_;
        ++*failed;
      }
      (trace != nullptr ? traced_us_ : untraced_us_).push_back(us);
    }
    ledger_.Add(tt.spans());
    return i;
  }

  bool TicketOnce(Env* env, watchit::ClusterManager* manager, const witload::GeneratedTicket& g,
                  uint64_t i, ThreadTrace* trace) {
    watchit::Cluster* cluster = env->cluster.get();
    ScopedSpan root(trace, kSpanTicket);
    watchit::Ticket ticket;
    ticket.id = g.id;
    ticket.text = g.text;
    ticket.true_class = g.true_class;
    ticket.ops = g.ops;
    ticket.target_machine = cluster->machine(i % cluster->size()).name();
    {
      ScopedSpan span(trace, kSpanClassify);
      (void)env->framework->Classify(g.text);
    }
    {
      ScopedSpan span(trace, kSpanReview);
      ticket.assigned_class = env->framework->ClassifyWithReview(g.text, g.true_class);
    }
    {
      ScopedSpan span(trace, kSpanDispatch);
      witos::Result<std::string> admin = env->dispatcher->Assign(ticket.assigned_class);
      if (!admin.ok()) {
        return false;
      }
      ticket.admin = *admin;
    }
    std::vector<watchit::Deployment> deployments;
    {
      ScopedSpan span(trace, kSpanDeploy);
      BenchGate gate(trace);
      auto primary = watchit::RunDeployStages(cluster, ticket,
                                              watchit::ClusterManager::kDefaultLifetimeNs, &gate);
      if (primary.ok()) {
        deployments.push_back(*primary);
        if (ticket.assigned_class == "T-9") {
          watchit::Ticket user = ticket;
          user.target_machine = cluster->machine((i + 1) % cluster->size()).name();
          auto second = watchit::RunDeployStages(
              cluster, user, watchit::ClusterManager::kDefaultLifetimeNs, &gate);
          if (second.ok()) {
            deployments.push_back(*second);
          }
        }
      }
    }
    bool ok = !deployments.empty();
    if (ok) {
      std::vector<watchit::Machine*> machines;
      for (const auto& d : deployments) {
        machines.push_back(d.machine);
      }
      MachineHold hold(machines);
      {
        ScopedSpan span(trace, kSpanReplay);
        const watchit::Deployment& primary = deployments.front();
        watchit::AdminSession session(primary.machine, primary.session, primary.certificate,
                                      &cluster->ca());
        {
          ScopedSpan login(trace, kSpanLogin);
          ok = session.Login().ok();
        }
        if (ok) {
          for (const watchit::OpReplayResult& r : session.ReplayTicket(ticket.ops)) {
            ok &= r.in_view || r.broker_ok;
          }
        }
      }
      ScopedSpan span(trace, kSpanExpire);
      for (auto& d : deployments) {
        ok &= manager->Expire(&d).ok();
      }
    }
    ScopedSpan span(trace, kSpanComplete);
    ok &= env->dispatcher->Complete(ticket.admin).ok();
    return ok;
  }

  // Isolated per-call costs: a fresh two-machine organization, one thread,
  // no other traffic.
  void Isolated(GateReport* gate, std::vector<double>* setups) {
    const double slice = std::max(0.02, seconds_ * 0.012);
    const bool admin = workload_ == "admin_session";
    EnvOptions probe_options = options_;
    probe_options.machines = 2;
    probe_options.framework = true;  // classify/review are timed here on every workload
    auto env = BuildEnv(probe_options);
    setups->push_back(env->setup_s);
    watchit::Cluster* cluster = env->cluster.get();
    // Machine 0 hosts one long-lived session for the command-level probes;
    // machine 1 takes a fixed number of deploy cycles, so neither probe
    // inherits the other's history.
    watchit::Machine* machine = &cluster->machine(0);
    watchit::ClusterManager manager(cluster);

    iso_["classify"] = MeanUs(slice, [&](uint64_t k) {
      (void)env->framework->Classify(tickets_[k % tickets_.size()].text);
    });
    iso_["review"] = MeanUs(slice, [&](uint64_t k) {
      const auto& t = tickets_[k % tickets_.size()];
      (void)env->framework->ClassifyWithReview(t.text, t.true_class);
    });
    iso_["dispatch"] = MeanUs(slice, [&](uint64_t k) {
      auto assigned = env->dispatcher->Assign(tickets_[k % tickets_.size()].true_class);
      if (assigned.ok()) {
        (void)env->dispatcher->Complete(*assigned);
      }
    });

    // In-container commands and the layers beneath them, each on a fresh
    // T-1 session for kCommandsPerSession calls — what one admin_session
    // deployment runs — since per-session state grows with every call.
    uint64_t probes = 0;
    auto in_session = [&](const char* key, auto&& call) {
      watchit::Ticket probe;
      probe.id = "iso-session" + std::to_string(probes++);
      probe.target_machine = machine->name();
      probe.assigned_class = "T-1";
      probe.admin = env->admins[0];
      BenchGate untraced(nullptr);
      auto d = watchit::RunDeployStages(cluster, probe, watchit::ClusterManager::kDefaultLifetimeNs,
                                        &untraced);
      if (!d.ok()) {
        gate->violations.push_back(std::string("isolated: probe deploy failed for ") + key);
        return;
      }
      MachineHold hold({machine});
      watchit::AdminSession session(machine, d->session, d->certificate, &cluster->ca());
      (void)session.Login();
      const witcontain::Session* info = machine->containit().FindSession(d->session);
      const uint64_t start = NowNs();
      for (uint64_t k = 0; k < kCommandsPerSession; ++k) {
        call(session, *info, probe, k);
      }
      iso_[key] = static_cast<double>(NowNs() - start) / 1e3 /
                  static_cast<double>(kCommandsPerSession);
      (void)manager.Expire(&*d);
    };
    using Info = witcontain::Session;
    in_session("op.read", [](auto& s, const Info&, auto&, uint64_t) {
      (void)s.ReadFile("/home/user/notes.txt");
    });
    in_session("op.write", [](auto& s, const Info&, auto&, uint64_t k) {
      (void)s.WriteFile("/home/user/scan/out0.log", "entry " + std::to_string(k % 97));
    });
    in_session("op.listdir", [](auto& s, const Info&, auto&, uint64_t) {
      (void)s.ListDir("/home/user");
    });
    in_session("op.connect", [](auto& s, const Info&, auto&, uint64_t) {
      (void)s.Connect("license-server", 0);
    });
    in_session("op.pb", [](auto& s, const Info&, auto&, uint64_t) {
      (void)s.Pb(witbroker::kVerbPs, {});
    });
    const witos::Credentials root_cred;
    std::string buf;
    in_session("itfs.read", [&](auto&, const Info& info, auto&, uint64_t) {
      (void)info.itfs->ReadAt("/home/user/notes.txt", 0, 4096, &buf, root_cred);
    });
    in_session("itfs.write", [&](auto&, const Info& info, auto&, uint64_t k) {
      (void)info.itfs->WriteAt("/home/user/scan/out1.log", 0,
                               "entry " + std::to_string(k % 97) + "\n", root_cred);
    });
    in_session("broker.handle", [&](auto&, const Info&, const watchit::Ticket& t, uint64_t) {
      witbroker::RpcRequest request;
      request.method = witbroker::kVerbPs;
      request.ticket_id = t.id;
      request.admin = t.admin;
      (void)machine->broker().Handle(request);
    });
    in_session("broker.handle_batch", [&](auto&, const Info&, const watchit::Ticket& t, uint64_t) {
      witbroker::RpcBatchRequest batch;
      batch.ticket_id = t.id;
      batch.admin = t.admin;
      batch.ops = {{witbroker::kVerbPs, {}}, {witbroker::kVerbPs, {}}, {witbroker::kVerbPs, {}}};
      (void)machine->broker().HandleBatch(batch);
    });
    witbroker::RpcRequest request;
    request.method = witbroker::kVerbPs;
    request.ticket_id = "iso-session0";
    request.admin = env->admins[0];
    const std::string frame = request.Serialize();
    iso_["rpc.serialize"] = MeanUs(slice, [&](uint64_t) { (void)request.Serialize(); }) * 1e3;
    iso_["rpc.deserialize"] =
        MeanUs(slice, [&](uint64_t) { (void)witbroker::RpcRequest::Deserialize(frame); }) * 1e3;

    // Deploy -> login -> replay -> expire on machine 1, traced.
    ThreadTrace iso_trace;
    iso_trace.Reserve(1 << 16);
    watchit::Machine* deploy_machine = &cluster->machine(1);
    for (uint64_t k = 0; k < kIsolatedDeploys; ++k) {
      watchit::Ticket ticket;
      ticket.id = "iso" + std::to_string(k);
      ticket.target_machine = deploy_machine->name();
      ticket.assigned_class =
          admin ? plans_[0][k % plans_[0].size()].ticket_class : tickets_[k % tickets_.size()].true_class;
      ticket.admin = env->admins[0];
      if (!admin) {
        ticket.ops = tickets_[k % tickets_.size()].ops;
      }
      ScopedSpan root(&iso_trace, kSpanTicket);
      witos::Result<watchit::Deployment> deployed = witos::Err::kInval;
      {
        ScopedSpan span(&iso_trace, kSpanDeploy);
        BenchGate gate_traced(&iso_trace);
        deployed = watchit::RunDeployStages(
            cluster, ticket, watchit::ClusterManager::kDefaultLifetimeNs, &gate_traced);
      }
      if (!deployed.ok()) {
        continue;
      }
      MachineHold hold({deploy_machine});
      {
        ScopedSpan span(&iso_trace, kSpanReplay);
        watchit::AdminSession session(deploy_machine, deployed->session, deployed->certificate,
                                      &cluster->ca());
        bool in = false;
        {
          ScopedSpan login(&iso_trace, kSpanLogin);
          in = session.Login().ok();
        }
        if (in) {
          (void)session.ReplayTicket(ticket.ops);
        }
      }
      ScopedSpan span(&iso_trace, kSpanExpire);
      (void)manager.Expire(&*deployed);
    }
    SpanStats iso_spans;
    iso_spans.Add(iso_trace.spans());
    for (uint32_t name : {kSpanDeploy, kSpanImageLookup, kSpanConstruct, kSpanBind, kSpanIssueCert,
                          kSpanReplay, kSpanLogin, kSpanExpire}) {
      iso_[SpanNameStr(name)] = iso_spans.MeanSelfUs(name);
    }

    // Certificate authority, alone and with 4 threads validating at once.
    {
      watchit::CertificateAuthority ca;
      std::vector<watchit::Certificate> certs;
      iso_["ca.issue"] = MeanUs(slice, [&](uint64_t k) {
        certs.push_back(ca.Issue("admin0", "host00", "c" + std::to_string(k), "T-1", 1000,
                                 watchit::ClusterManager::kDefaultLifetimeNs));
      });
      iso_["ca.validate"] = MeanUs(slice, [&](uint64_t k) {
        (void)ca.Validate(certs[k % certs.size()], 2000);
      });
      std::vector<double> per_thread(kAdminThreads, 0.0);
      std::vector<std::thread> threads;
      for (size_t t = 0; t < kAdminThreads; ++t) {
        threads.emplace_back([&, t] {
          per_thread[t] = MeanUs(slice, [&](uint64_t k) {
            (void)ca.Validate(certs[(k + t * 7) % certs.size()], 2000);
          });
        });
      }
      for (auto& th : threads) {
        th.join();
      }
      double sum = 0;
      for (double v : per_thread) {
        sum += v;
      }
      iso_["ca.validate_contended"] = sum / static_cast<double>(kAdminThreads);
      iso_["ca.revoke"] = MeanUs(slice, [&](uint64_t k) {
        ca.Revoke(certs[k % certs.size()].serial);
      });
    }

    // Policy compile and evaluate on the class image the ledger uses most.
    {
      auto spec = cluster->images().Lookup(admin ? "T-5" : "T-6");
      if (spec.ok()) {
        std::shared_ptr<const witfs::CompiledPolicy> compiled;
        iso_["policy.compile"] =
            MeanUs(slice, [&](uint64_t) { compiled = spec->fs.CompileEffectivePolicy(); });
        const std::vector<std::string> paths = {"/home/user/notes.txt", "/etc/hosts",
                                                "/home/user/documents/payroll.xlsx",
                                                "/usr/watchit/containit", "/var/log/syslog"};
        iso_["policy.evaluate"] = MeanUs(slice, [&](uint64_t k) {
          (void)compiled->Evaluate(witfs::ItfsOpKind::kRead, paths[k % paths.size()], "");
        }) * 1e3;
      }
    }

    // SecureLog, journal and registry on their own.
    {
      witbroker::SecureLog log;
      iso_["securelog.append"] = MeanUs(slice, [&](uint64_t k) {
        log.Append("admin0 t1 T-1 ps granted " + std::to_string(k), k);
      });
      witdur::JournalWriter::Options jopts;
      jopts.path = "/bench.wal";
      jopts.barrier_interval = 0;
      jopts.truncate = true;
      witdur::JournalWriter journal(std::make_shared<witos::MemFs>(), jopts);
      auto record = [](uint64_t k) {
        witdur::JournalRecord r;
        r.kind = witdur::JournalRecordKind::kCertRevoke;
        r.nums = {k};
        return r;
      };
      iso_["journal.append"] =
          MeanUs(slice, [&](uint64_t k) { (void)journal.Append(record(k)); });
      // Barrier alone, each after one fresh append so it has a record to sync.
      uint64_t barrier_ns = 0;
      uint64_t barriers = 0;
      const uint64_t barrier_start = NowNs();
      while (NowNs() - barrier_start < static_cast<uint64_t>(slice * 1e9)) {
        (void)journal.Append(record(barriers));
        const uint64_t t0 = NowNs();
        (void)journal.Barrier();
        barrier_ns += NowNs() - t0;
        ++barriers;
      }
      iso_["journal.barrier"] = static_cast<double>(barrier_ns) / 1e3 / static_cast<double>(barriers);
      witobs::MetricsRegistry registry;
      iso_["metrics.get_counter"] = MeanUs(slice, [&](uint64_t) {
        (void)registry.GetCounter("watchit_broker_requests_total",
                                  {{"verb", "ps"}, {"outcome", "granted"}});
      }) * 1e3;
    }
    CheckQuiescent(env.get(), "isolated", gate);
  }

  double Iso(const std::string& key) const {
    auto it = iso_.find(key);
    return it == iso_.end() ? 0.0 : it->second;
  }

  // In-situ mean self time when the ledger ran the call, else isolated.
  double Layer(uint32_t span, const char* note_key) {
    if (ledger_.Has(span)) {
      return ledger_.MeanSelfUs(span);
    }
    off_path_.push_back(note_key);
    return Iso(note_key);
  }

  void Emit(Metrics* m, const PoolResult& probe, const StateCounters& before,
            const StateCounters& after, double tickets) {
    const double per = tickets > 0 ? 1.0 / tickets : 0.0;
    if (probe.sent == 0) {
      std::printf("  note: serve.* is n/a on %s (no serve probe; the layer is predicted to move "
                  "helpdesk's ticket latency only); reported as 0\n",
                  workload_.c_str());
    }
    Summary late = Summarize(probe.late_ms);
    Summary submit = Summarize(probe.submit_us);
    m->Add("serve.submit_us", submit.mean, "us");
    m->Add("serve.busy_rejects", static_cast<double>(probe.refused), "count");
    m->Add("serve.steals_per_ticket",
           probe.served > 0 ? static_cast<double>(probe.stolen) / static_cast<double>(probe.served)
                            : 0.0,
           "1/ticket");
    m->Add("serve.gen_late_p99_ms", late.p99, "ms");
    m->Add("serve.ticket_p99_ms", Summarize(probe.latency_ms).p99, "ms");
    m->Add("classify_us", Layer(kSpanClassify, "classify"), "us");
    m->Add("review_us", Layer(kSpanReview, "review"), "us");
    m->Add("dispatch_us", Layer(kSpanDispatch, "dispatch"), "us");
    m->Add("deploy.image_lookup_us", Layer(kSpanImageLookup, "deploy.image_lookup"), "us");
    m->Add("deploy.construct_us", Layer(kSpanConstruct, "deploy.construct"), "us");
    m->Add("deploy.bind_us", Layer(kSpanBind, "deploy.bind"), "us");
    m->Add("deploy.issue_cert_us", Layer(kSpanIssueCert, "deploy.issue_cert"), "us");
    m->Add("policy.compile_us", Iso("policy.compile"), "us");
    m->Add("policy.compiles_per_ticket", (after.compiles - before.compiles) * per, "1/ticket");
    m->Add("login_us", Layer(kSpanLogin, "login"), "us");
    m->Add("ca.issue_us", Iso("ca.issue"), "us");
    m->Add("ca.validate_us", Iso("ca.validate"), "us");
    m->Add("ca.validate_contended_us", Iso("ca.validate_contended"), "us");
    m->Add("ca.revoke_us", Iso("ca.revoke"), "us");
    m->Add("op.read_us", Layer(kSpanOpRead, "op.read"), "us");
    m->Add("op.write_us", Layer(kSpanOpWrite, "op.write"), "us");
    m->Add("op.listdir_us", Layer(kSpanOpListDir, "op.listdir"), "us");
    m->Add("op.connect_us", Layer(kSpanOpConnect, "op.connect"), "us");
    m->Add("itfs.read_us", Iso("itfs.read"), "us");
    m->Add("itfs.write_us", Iso("itfs.write"), "us");
    m->Add("policy.evaluate_ns", Iso("policy.evaluate"), "ns");
    m->Add("op.pb_us", Layer(kSpanOpPb, "op.pb"), "us");
    m->Add("broker.handle_us", Iso("broker.handle"), "us");
    m->Add("broker.handle_batch_us", Iso("broker.handle_batch"), "us");
    m->Add("rpc.serialize_ns", Iso("rpc.serialize"), "ns");
    m->Add("rpc.deserialize_ns", Iso("rpc.deserialize"), "ns");
    m->Add("securelog.append_us", Iso("securelog.append"), "us");
    m->Add("broker.requests_per_ticket", (after.broker_requests - before.broker_requests) * per,
           "1/ticket");
    m->Add("replay_us", Layer(kSpanReplay, "replay"), "us");
    m->Add("expire_us", Layer(kSpanExpire, "expire"), "us");
    m->Add("journal.append_us", Iso("journal.append"), "us");
    m->Add("journal.barrier_us", Iso("journal.barrier"), "us");
    m->Add("journal.records_per_ticket",
           (after.journal_records - before.journal_records) * per, "1/ticket");
    m->Add("metrics.get_counter_ns", Iso("metrics.get_counter"), "ns");
    m->Add("state.metric_series_per_ticket", (after.series - before.series) * per, "1/ticket");
    m->Add("state.sessions_per_ticket", (after.sessions - before.sessions) * per, "1/ticket");
    m->Add("state.ca_certs_per_ticket", (after.ca_certs - before.ca_certs) * per, "1/ticket");

    // Reconciliation: isolated cost x in-situ calls per ticket, against the
    // traced wall per ticket.
    std::vector<LedgerTerm> terms;
    const std::vector<std::pair<uint32_t, std::string>> steps = {
        {kSpanClassify, "classify"},         {kSpanReview, "review"},
        {kSpanDispatch, "dispatch"},         {kSpanDeploy, "deploy"},
        {kSpanImageLookup, "deploy.image_lookup"}, {kSpanConstruct, "deploy.construct"},
        {kSpanBind, "deploy.bind"},          {kSpanIssueCert, "deploy.issue_cert"},
        {kSpanReplay, "replay"},             {kSpanLogin, "login"},
        {kSpanOpRead, "op.read"},            {kSpanOpWrite, "op.write"},
        {kSpanOpListDir, "op.listdir"},      {kSpanOpConnect, "op.connect"},
        {kSpanOpPb, "op.pb"},                {kSpanExpire, "expire"}};
    std::printf("  per-layer ledger (in-situ = traced ledger self time; isolated = direct calls "
                "on a fresh two-machine organization)\n");
    std::printf("    %-22s %12s %12s %12s\n", "step", "in-situ us", "calls/ticket", "isolated us");
    for (const auto& [span, key] : steps) {
      if (!ledger_.Has(span)) {
        continue;
      }
      terms.push_back({key, Iso(key), ledger_.PerTicket(span)});
      std::printf("    %-22s %12.3f %12.3f %12.3f\n", key.c_str(), ledger_.MeanSelfUs(span),
                  ledger_.PerTicket(span), Iso(key));
    }
    Summary traced = Summarize(traced_us_);
    Summary untraced = Summarize(untraced_us_);
    // The dispatcher's Complete is folded into the isolated dispatch cost.
    Reconciliation r = Reconcile(terms, traced.mean);
    std::printf("  reconcile: sum(isolated x calls) = %.2f us/ticket vs traced wall %.2f us/ticket "
                "(n=%zu): gap %.1f%%%s\n",
                r.predicted_us, r.measured_us, traced.n, r.gap_pct,
                r.finding ? "  FINDING: gap over 15%" : "");
    const double overhead =
        untraced.mean > 0 ? 100.0 * (traced.mean - untraced.mean) / untraced.mean : 0.0;
    std::printf("  tracing overhead: traced %.2f us/ticket (n=%zu) - untraced %.2f us/ticket "
                "(n=%zu) = %.1f%%\n",
                traced.mean, traced.n, untraced.mean, untraced.n, overhead);
    for (const std::string& key : off_path_) {
      std::printf("  note: %s is not on %s's ledger path; reported from isolated calls\n",
                  key.c_str(), workload_.c_str());
    }
    if (after.journal_records == 0) {
      std::printf("  note: no journal on %s; journal.records_per_ticket is 0 by design\n",
                  workload_.c_str());
    }
    m->Add("reconcile_gap_pct", r.gap_pct, "%");
    m->Add("trace_overhead_pct", overhead, "%");
  }

  // Spans go to disk only now, after every measurement has finished.
  void WriteSpans() const {
    if (trace_out_.empty()) {
      return;
    }
    std::FILE* f = std::fopen(trace_out_.c_str(), "w");
    if (f == nullptr) {
      return;
    }
    std::fprintf(f, "thread\tindex\tname\tparent\tstart_ns\tend_ns\tself_ns\n");
    for (size_t t = 0; t < traces_.size(); ++t) {
      const auto& spans = traces_[t].spans();
      const std::vector<uint64_t> self = SelfTimes(spans);
      for (size_t i = 0; i < spans.size(); ++i) {
        std::fprintf(f, "%zu\t%zu\t%s\t%d\t%llu\t%llu\t%llu\n", t, i, SpanNameStr(spans[i].name),
                     spans[i].parent, static_cast<unsigned long long>(spans[i].start_ns),
                     static_cast<unsigned long long>(spans[i].end_ns),
                     static_cast<unsigned long long>(self[i]));
      }
    }
    std::fclose(f);
  }

  std::string workload_;
  uint32_t seed_;
  double seconds_;
  std::string trace_out_;
  EnvOptions options_;
  std::vector<witload::GeneratedTicket> tickets_;
  std::vector<std::vector<SessionPlan>> plans_;
  std::vector<ThreadTrace> traces_;
  SpanStats ledger_;
  std::vector<double> traced_us_;
  std::vector<double> untraced_us_;
  uint64_t ledger_failed_ = 0;
  std::map<std::string, double> iso_;
  std::vector<std::string> off_path_;
};

}  // namespace witbench

#endif  // WITBENCH_LAYERS_H_
