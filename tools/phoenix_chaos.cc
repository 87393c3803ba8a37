// phoenix_chaos — seeded hostile-environment campaign driver.
//
// Sweeps randomized combinations of crash points, lossy-network faults
// (drop/duplicate/jitter), faulty-storage injections (torn tails, targeted
// bit-rot on state records and the well-known file), optimization levels
// and client topologies against the bookstore, checking the torture-test
// exactly-once oracle after every run: every session's reservations and
// sales must be accounted for exactly once.
//
// Persistent topologies (a persistent ShoppingAgent driving the seller)
// must come out exact under every fault mix — any drift is a violation and
// the campaign exits non-zero. The external-direct topology exercises the
// paper's §3.1.2 window of vulnerability: an external client that loses a
// reply reissues under a NEW call id, so duplicate executions are expected
// there; the campaign counts them (wov_duplicate_executions) rather than
// masking them, and only undercounts or inconsistent inventory are
// violations.
//
// With --overlap=N > 1 the campaign also sweeps *concurrent* shopping
// sessions: a seeded subset of runs executes its sessions in overlapping
// waves (Simulation::RunSessions) of 2..N chains, half of them with group
// commit enabled, so exactly-once is checked while durability waits park,
// coalesce, and abort across crashes. The oracle is unchanged — concurrency
// must never change what got sold.
//
// Every decision flows from --seed through split Random streams, so a rerun
// with the same flags emits a byte-identical phoenix.chaos.v1 report.
//
// With --wal-shards=N > 1 the driver runs the sharded-WAL campaign
// instead: every run executes the same seeded workload twice — once on an
// N-shard WAL under crash/storage attacks that target a single shard file
// (one shard's torn tail, bit-rot on the shard holding the newest state
// record, well-known-file rot on the meta shard), and once as a fault-free
// single-log twin — and the exactly-once oracle plus an FNV-1a state-hash
// diff against the twin must both come out clean.
//
// With --async-checkpoint the driver runs the async-checkpoint campaign:
// concurrent workloads with the inline save/checkpoint cadence off and the
// background checkpoint sweeper on, seeded crashes fired *inside* the
// background sweeps (state capture, checkpoint bracket, group flush) with
// optional crash-time torn tails, hash-diffed against a fault-free async
// twin of the same workload.
//
// --async-checkpoint and --crash-during-recovery take precedence over the
// sharded campaign and honour --wal-shards themselves: both the faulted run
// and its twin use an N-shard WAL, and the report records wal_shards.
//
// Usage:
//   phoenix_chaos [--runs=N] [--seed=S] [--sessions=N] [--overlap=N]
//                 [--wal-shards=N] [--async-checkpoint]
//                 [--crash-during-recovery] [--out=FILE] [--verbose]

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bookstore/setup.h"
#include "common/random.h"
#include "common/strings.h"
#include "obs/bench_reporter.h"
#include "recovery/recovery_service.h"

namespace phoenix::tools {
namespace {

inline constexpr char kChaosSchema[] = "phoenix.chaos.v1";

struct CampaignOptions {
  int runs = 500;
  uint64_t seed = 42;
  int sessions = 8;
  // Maximum overlapping sessions per wave. 1 = every session sequential
  // (the pre-session-scheduler harness, byte-identical draws); > 1 lets a
  // seeded subset of runs overlap their sessions and flip group commit on.
  // The default sweeps past the old cap of 4 so wide waves (deep group
  // batches, more parked chains per flush) are exercised routinely.
  int overlap = 8;
  std::string out;  // empty: BenchReporter default (BENCH_<name>.json)
  bool verbose = false;
  // Run the crash-during-recovery campaign instead of the classic one:
  // seeded crashes at recovery-phase fault points (nested up to depth 3)
  // plus between-attempt storage attacks, with a fault-free twin-run
  // state-hash oracle.
  bool crash_during_recovery = false;
  // > 1 runs the sharded-WAL campaign: N-shard faulted runs with
  // single-shard storage attacks, hash-diffed against a fault-free
  // single-log twin.
  uint32_t wal_shards = 1;
  // Run the async-checkpoint campaign: concurrent workloads with the
  // background checkpoint sweeper on and inline cadence off, seeded
  // crashes fired inside the sweeps, hash-diffed against a fault-free
  // async twin.
  bool async_checkpoint = false;
};

enum class Topology {
  kRemoteAgent,     // persistent agent on its own machine
  kColocatedAgent,  // persistent agent in a second process on the server
  kExternalDirect,  // external client drives the seller directly (WoV)
};

const char* TopologyName(Topology t) {
  switch (t) {
    case Topology::kRemoteAgent:
      return "remote_agent";
    case Topology::kColocatedAgent:
      return "colocated_agent";
    case Topology::kExternalDirect:
      return "external_direct";
  }
  return "?";
}

// Persistent workflow tier (same shape as the torture test's agent): one
// Session call adds a book to the buyer's basket and checks out. Its
// retries carry stable call IDs, so crashes and lost replies anywhere
// inside the session are fully masked by duplicate elimination.
class ShoppingAgent : public Component {
 public:
  void RegisterMethods(MethodRegistry& methods) override {
    methods.Register("Session", [this](const ArgList& a) -> Result<Value> {
      const std::string& buyer = a[0].AsString();
      const std::string& store = a[1].AsString();
      int64_t book = a[2].AsInt();
      PHX_RETURN_IF_ERROR(
          CallRef(seller_, "AddToBasket", MakeArgs(buyer, store, book))
              .status());
      PHX_ASSIGN_OR_RETURN(
          Value total,
          CallRef(seller_, "Checkout", MakeArgs(buyer, std::string("WA"))));
      ++sessions_done_;
      return total;
    });
    methods.Register(
        "SessionsDone",
        [this](const ArgList&) -> Result<Value> {
          return Value(sessions_done_);
        },
        MethodTraits{.read_only = true});
  }
  void RegisterFields(FieldRegistry& fields) override {
    fields.RegisterComponentRef("seller", &seller_);
    fields.RegisterInt("sessions_done", &sessions_done_);
  }
  Status Initialize(const ArgList& args) override {
    seller_.uri = args[0].AsString();
    return Status::OK();
  }

 private:
  ComponentRefField seller_;
  int64_t sessions_done_ = 0;
};

// One randomized run configuration, fully derived from the campaign seed.
struct RunConfig {
  uint64_t sim_seed = 1;
  bookstore::OptLevel level = bookstore::OptLevel::kSpecialized;
  uint32_t save_every = 0;
  uint32_t checkpoint_every = 0;
  Topology topology = Topology::kRemoteAgent;
  int stores = 2;
  std::vector<std::pair<FailurePoint, uint64_t>> crashes;
  LinkFaults faults;        // default faults on every link
  bool targeted_drop = false;  // drop the first Checkout reply
  double torn_p = 0.0;      // torn-tail probability per crash
  bool bitrot_state = false;  // mid-run bit-rot on the newest state record
  bool bitrot_wkf = false;    // mid-run bit-rot on the well-known file
  int overlap = 1;          // sessions per concurrent wave (1 = sequential)
  bool group_commit = false;  // coalesce durability waits across the wave
  bool attack_agent = false;  // storage attack hits the agent process
  bool parallel_replay = false;  // recover with the parallel replay engine
};

RunConfig MakeRunConfig(const CampaignOptions& campaign, int run) {
  Random rng(campaign.seed * 1000003ull + static_cast<uint64_t>(run));
  RunConfig cfg;
  cfg.sim_seed = campaign.seed * 7919ull + static_cast<uint64_t>(run) + 1;
  switch (rng.Uniform(3)) {
    case 0:
      cfg.level = bookstore::OptLevel::kBaseline;
      break;
    case 1:
      cfg.level = bookstore::OptLevel::kOptimizedLogging;
      break;
    default:
      cfg.level = bookstore::OptLevel::kSpecialized;
      break;
  }
  const uint32_t kSaveChoices[] = {0, 3, 7};
  cfg.save_every = kSaveChoices[rng.Uniform(3)];
  cfg.checkpoint_every = cfg.save_every > 0 ? cfg.save_every * 2 : 0;
  cfg.topology = static_cast<Topology>(rng.Uniform(3));
  cfg.stores = 1 + static_cast<int>(rng.Uniform(2));

  uint64_t crash_count = rng.Uniform(5);  // 0..4 crash triggers
  for (uint64_t i = 0; i < crash_count; ++i) {
    // Index 6 maps to the group-flush hook: a crash that fires *inside* a
    // group commit, taking the whole parked batch's unforced tail at once.
    // It only trips on runs where group commit actually flushes, and those
    // flushes are far rarer than protocol hooks, so it gets a short fuse.
    uint64_t draw = rng.Uniform(7);
    FailurePoint point = draw < 6 ? static_cast<FailurePoint>(draw)
                                  : FailurePoint::kDuringGroupFlush;
    uint64_t hit = point == FailurePoint::kDuringGroupFlush
                       ? 1 + rng.Uniform(6)
                       : 1 + rng.Uniform(100);
    cfg.crashes.emplace_back(point, hit);
  }

  if (rng.Bernoulli(0.7)) {  // lossy network
    cfg.faults.drop_p = rng.NextDouble() * 0.08;
    cfg.faults.dup_p = rng.NextDouble() * 0.05;
    cfg.faults.delay_jitter_ms = rng.NextDouble() * 2.0;
  }
  cfg.targeted_drop = rng.Bernoulli(0.25);
  if (rng.Bernoulli(0.5)) {  // faulty storage
    cfg.torn_p = 0.1 + rng.NextDouble() * 0.5;
  }
  cfg.bitrot_state = rng.Bernoulli(0.25);
  cfg.bitrot_wkf = rng.Bernoulli(0.15);
  // Half the storage attacks go after the *agent* process instead of the
  // seller — the persistent tier whose replay masks everything else. Only
  // meaningful in agent topologies; external_direct has no agent.
  cfg.attack_agent = rng.Bernoulli(0.5);
  // Recover a seeded subset of runs with the parallel replay planner, so
  // the exactly-once oracle also polices plan-driven recovery (and its
  // sequential fallbacks on salvaged logs) under every fault mix.
  cfg.parallel_replay = rng.Bernoulli(0.4);
  // Draws gated on the flag so --overlap=1 replays the sequential
  // harness's exact decision stream.
  if (campaign.overlap > 1 && rng.Bernoulli(0.6)) {
    cfg.overlap =
        2 + static_cast<int>(rng.Uniform(
                static_cast<uint64_t>(campaign.overlap - 1)));
    cfg.group_commit = rng.Bernoulli(0.5);
  }
  return cfg;
}

// Campaign-wide tallies, aggregated across runs before each sim dies.
struct CampaignStats {
  uint64_t runs = 0;
  uint64_t violations = 0;
  uint64_t wov_duplicate_executions = 0;
  uint64_t sessions_total = 0;
  uint64_t crashes_fired = 0;
  uint64_t recoveries = 0;
  uint64_t net_dropped = 0;
  uint64_t net_duplicated = 0;
  uint64_t torn_tails_injected = 0;
  uint64_t torn_tails_salvaged = 0;
  uint64_t salvage_wkf_fallback = 0;
  uint64_t salvage_full_scan = 0;
  uint64_t salvage_ranges_skipped = 0;
  uint64_t salvage_state_fallback = 0;
  uint64_t dedupe_hits = 0;
  uint64_t retries = 0;
  // Concurrent-session sweep.
  uint64_t concurrent_runs = 0;
  uint64_t group_commit_runs = 0;
  uint64_t group_flushes = 0;
  uint64_t group_coalesced = 0;
  // Parallel-replay sweep.
  uint64_t parallel_replay_runs = 0;
  uint64_t replay_chains = 0;
  uint64_t replay_edges = 0;
  uint64_t replay_fallbacks = 0;
  // Per-topology breakdown.
  uint64_t topo_runs[3] = {0, 0, 0};
  uint64_t topo_violations[3] = {0, 0, 0};
  uint64_t topo_wov[3] = {0, 0, 0};
};

// Crashes the target process mid-run (the seller's, or the agent's when
// the run drew attack_agent) and flips bits in the places salvage must
// tolerate: the newest context-state record's payload and/or the
// well-known file; tear_shard additionally tears one log's (on sharded
// WALs: one shard file's) un-externalized stable tail. Recovery runs
// immediately via the recovery service. On a sharded log the state-record
// bit-rot targets exactly the shard file holding the gsn-newest state
// record — the other shard files are untouched.
Status ApplyStorageAttack(bool bitrot_state, bool bitrot_wkf, bool tear_shard,
                          Simulation& sim, Machine& target_machine,
                          Process& target_proc) {
  target_proc.Kill();
  const std::string log_name = target_proc.log_name();
  if (bitrot_state) CorruptNewestStateRecord(target_proc.log(), sim.storage());
  if (bitrot_wkf) {
    sim.storage().CorruptFile(log_name + ".wkf", 0, /*flip_count=*/2);
  }
  // Tears only un-externalized stable bytes (one shard file on sharded
  // logs), so retries must mask it — same contract as crash-time tears.
  if (tear_shard) target_proc.InjectTornTail(24);
  return target_machine.recovery_service().EnsureProcessAlive(
      target_proc.pid());
}

// Flight-recorder ring depth for every campaign run: cheap enough to keep
// always-on, deep enough to show the last few calls before a violation.
constexpr size_t kFlightEvents = 256;

// Runs one configuration and checks the oracle. Returns a description of
// the violation, or "" when the run came out exact. On a violation the
// flight recorder's rings are dumped to *flight_file (resolved against the
// bench out dir) before the sim dies, so the post-mortem context survives.
std::string RunOne(const RunConfig& cfg, int run, int sessions,
                   CampaignStats& stats, std::string* flight_file) {
  RuntimeOptions runtime = bookstore::OptionsForLevel(cfg.level);
  runtime.save_context_state_every = cfg.save_every;
  runtime.process_checkpoint_every = cfg.checkpoint_every;
  // Condition 4 (retry until a response arrives) is what the exactly-once
  // oracle assumes; the per-call budget is an availability knob, so the
  // campaign runs unbounded.
  runtime.call_retry_budget_ms = 0.0;
  runtime.group_commit = cfg.group_commit;
  runtime.parallel_replay = cfg.parallel_replay;

  SimulationParams params;
  params.seed = cfg.sim_seed;
  params.flight_recorder_events = kFlightEvents;
  Simulation sim(runtime, params);
  bookstore::RegisterBookstoreComponents(sim.factories());
  sim.factories().Register<ShoppingAgent>("ShoppingAgent");
  Machine& server_machine = sim.AddMachine("server");
  Machine& client_machine = sim.AddMachine("client");
  auto deployment =
      bookstore::Deploy(sim, server_machine, cfg.stores, cfg.level);
  if (!deployment.ok()) {
    return "deploy failed: " + deployment.status().ToString();
  }
  Process& server_proc = *deployment->server_process;

  for (const auto& [point, hit] : cfg.crashes) {
    sim.injector().AddTrigger("server", server_proc.pid(), point, hit);
  }
  // Fault the links that carry the traffic under test. In agent topologies
  // that is the persistent agent <-> seller path; the admin driver edge is
  // left reliable because an external client losing a reply reissues under
  // a fresh call id (the WoV), which would confound the exactly-once
  // oracle for the persistent tier. external_direct faults the driver edge
  // on purpose — there the WoV is the measured subject.
  if (cfg.faults.any()) {
    NetworkFaultPlan& plan = sim.network().fault_plan();
    switch (cfg.topology) {
      case Topology::kRemoteAgent:
      case Topology::kExternalDirect:
        plan.SetLinkFaults("client", "server", cfg.faults);
        plan.SetLinkFaults("server", "client", cfg.faults);
        break;
      case Topology::kColocatedAgent:
        plan.SetLinkFaults("server", "server", cfg.faults);
        break;
    }
  }
  if (cfg.torn_p > 0.0) {
    sim.injector().EnableTornTails(cfg.torn_p, cfg.sim_seed * 131 + 7);
  }
  if (cfg.targeted_drop) {
    // Drop the first Checkout reply on the seller's outbound link; the
    // caller must mask it (or, for an external client, it opens the WoV).
    const char* caller_machine =
        cfg.topology == Topology::kColocatedAgent ? "server" : "client";
    sim.network().fault_plan().AddDropTrigger("server", caller_machine,
                                              "Checkout", NetLeg::kReply,
                                              /*nth=*/1);
  }

  ExternalClient admin(&sim, "client");
  // One agent per wave slot (just one when sequential): overlapping chains
  // each own an agent context, so they serialize only at the seller and
  // their force-on-send waits can coalesce on the agent process's log.
  std::vector<std::string> agent_uris;
  Process* agent_proc_ptr = nullptr;
  Machine* agent_machine = nullptr;
  if (cfg.topology != Topology::kExternalDirect) {
    agent_machine = cfg.topology == Topology::kRemoteAgent ? &client_machine
                                                           : &server_machine;
    Process& agent_proc = agent_machine->CreateProcess();
    agent_proc_ptr = &agent_proc;
    for (int a = 0; a < cfg.overlap; ++a) {
      auto agent = admin.CreateComponent(
          agent_proc, "ShoppingAgent", StrCat("agent", a),
          ComponentKind::kPersistent, MakeArgs(deployment->seller_uri));
      if (!agent.ok()) {
        return "agent creation failed: " + agent.status().ToString();
      }
      agent_uris.push_back(*agent);
    }
  }

  std::vector<int> expected_store(cfg.stores, 0);
  std::vector<std::vector<int>> expected_book(cfg.stores,
                                              std::vector<int>(11, 0));
  Random workload(cfg.sim_seed * 31 + 1);
  std::string failure;

  // One shopping session's call chain. Each chain drives its own external
  // client so overlapping waves never share driver state.
  auto run_session = [&](int i, int store, int book) -> Status {
    std::string buyer = "buyer" + std::to_string(i);
    ExternalClient driver(&sim, "client");
    if (cfg.topology == Topology::kExternalDirect) {
      auto add = driver.Call(deployment->seller_uri, "AddToBasket",
                             MakeArgs(buyer, deployment->store_uris[store],
                                      int64_t{book}));
      if (!add.ok()) return add.status();
      return driver
          .Call(deployment->seller_uri, "Checkout",
                MakeArgs(buyer, std::string("WA")))
          .status();
    }
    return driver
        .Call(agent_uris[i % agent_uris.size()], "Session",
              MakeArgs(buyer, deployment->store_uris[store], int64_t{book}))
        .status();
  };
  auto account = [&](int i, int store, int book, const Status& status) {
    if (!status.ok()) {
      if (failure.empty()) {
        failure = StrCat("session ", i, " failed: ", status.ToString());
      }
      return;
    }
    ++expected_store[store];
    ++expected_book[store][book];
    ++stats.sessions_total;
  };

  // The storage attack fires once, halfway through — between waves when
  // sessions overlap, so no chain is parked inside the process it kills.
  int attack_at = (cfg.bitrot_state || cfg.bitrot_wkf) && sessions >= 2
                      ? sessions / 2
                      : sessions;
  int next = 0;
  while (next < sessions && failure.empty()) {
    int segment_end = next < attack_at ? attack_at : sessions;
    if (cfg.overlap <= 1) {
      int i = next++;
      int store = static_cast<int>(workload.Uniform(cfg.stores));
      int book = static_cast<int>(workload.Uniform(10)) + 1;
      account(i, store, book, run_session(i, store, book));
    } else {
      int wave_end = std::min(next + cfg.overlap, segment_end);
      struct Plan {
        int i;
        int store;
        int book;
        Status status = Status::OK();
      };
      std::vector<Plan> wave;
      for (int i = next; i < wave_end; ++i) {
        // Drawn before the wave runs, so what the oracle expects never
        // depends on how the chains interleave.
        wave.push_back({i, static_cast<int>(workload.Uniform(cfg.stores)),
                        static_cast<int>(workload.Uniform(10)) + 1});
      }
      std::vector<std::function<void()>> bodies;
      for (Plan& plan : wave) {
        bodies.push_back([&run_session, p = &plan] {
          p->status = run_session(p->i, p->store, p->book);
        });
      }
      sim.RunSessions(std::move(bodies));
      for (const Plan& plan : wave) {
        account(plan.i, plan.store, plan.book, plan.status);
      }
      next = wave_end;
    }
    if (next == attack_at && attack_at < sessions && failure.empty()) {
      // Half the attacks target the agent process instead of the seller's —
      // the persistent tier whose own log and state records salvage must
      // also survive losing.
      bool hit_agent = cfg.attack_agent && agent_proc_ptr != nullptr;
      Status attack =
          hit_agent ? ApplyStorageAttack(cfg.bitrot_state, cfg.bitrot_wkf,
                                         /*tear_shard=*/false, sim,
                                         *agent_machine, *agent_proc_ptr)
                    : ApplyStorageAttack(cfg.bitrot_state, cfg.bitrot_wkf,
                                         /*tear_shard=*/false, sim,
                                         server_machine, server_proc);
      if (!attack.ok()) {
        failure = "recovery after bit-rot failed: " + attack.ToString();
      }
    }
  }

  // Oracle: with a persistent agent every count must be exact; an external
  // client may legitimately overcount (window of vulnerability), but never
  // undercount, and inventory must stay consistent with TotalSold.
  if (failure.empty()) {
    bool external = cfg.topology == Topology::kExternalDirect;
    if (!external) {
      int64_t done_total = 0;
      for (const std::string& agent_uri : agent_uris) {
        auto done = admin.Call(agent_uri, "SessionsDone", {});
        if (!done.ok()) {
          failure = "SessionsDone failed: " + done.status().ToString();
          break;
        }
        done_total += done->AsInt();
      }
      if (failure.empty() && done_total != sessions) {
        failure = StrCat("SessionsDone=", done_total, " want ", sessions);
      }
    }
    ExternalClient probe(&sim, "client");
    for (int s = 0; s < cfg.stores && failure.empty(); ++s) {
      auto sold = probe.Call(deployment->store_uris[s], "TotalSold", {});
      if (!sold.ok()) {
        failure = "TotalSold failed: " + sold.status().ToString();
        break;
      }
      int64_t sold_count = sold->AsInt();
      int64_t book_sold_sum = 0;
      for (int book = 1; book <= 10 && failure.empty(); ++book) {
        auto entry = probe.Call(deployment->store_uris[s], "GetBook",
                                MakeArgs(int64_t{book}));
        if (!entry.ok()) {
          failure = "GetBook failed: " + entry.status().ToString();
          break;
        }
        int64_t book_sold = 25 - entry->AsList()[3].AsInt();
        book_sold_sum += book_sold;
        int64_t want = expected_book[s][book];
        if (!external && book_sold != want) {
          failure = StrCat("store ", s, " book ", book, " sold ", book_sold,
                           " want ", want);
        } else if (external && book_sold < want) {
          failure = StrCat("store ", s, " book ", book, " UNDERSOLD ",
                           book_sold, " want >= ", want);
        }
      }
      if (!failure.empty()) break;
      if (book_sold_sum != sold_count) {
        failure = StrCat("store ", s, " inventory says ", book_sold_sum,
                         " sold but TotalSold=", sold_count);
      } else if (!external && sold_count != expected_store[s]) {
        failure = StrCat("store ", s, " TotalSold=", sold_count, " want ",
                         expected_store[s]);
      } else if (external && sold_count < expected_store[s]) {
        failure = StrCat("store ", s, " TotalSold=", sold_count,
                         " want >= ", expected_store[s]);
      } else if (external) {
        stats.wov_duplicate_executions +=
            static_cast<uint64_t>(sold_count - expected_store[s]);
        stats.topo_wov[static_cast<int>(cfg.topology)] +=
            static_cast<uint64_t>(sold_count - expected_store[s]);
      }
    }
  }

  // Harvest per-run counters before the sim dies.
  stats.crashes_fired += sim.injector().crashes_fired();
  stats.recoveries += server_machine.recovery_service().recoveries_performed();
  stats.net_dropped += sim.network().messages_dropped();
  stats.net_duplicated += sim.network().messages_duplicated();
  stats.torn_tails_injected += sim.injector().torn_tails_fired();
  stats.torn_tails_salvaged +=
      sim.metrics().CounterTotal("phoenix.wal.torn_tails");
  stats.salvage_wkf_fallback +=
      sim.metrics().CounterTotal("phoenix.recovery.salvage.wkf_fallback");
  stats.salvage_full_scan +=
      sim.metrics().CounterTotal("phoenix.recovery.salvage.full_scan_fallback");
  stats.salvage_ranges_skipped +=
      sim.metrics().CounterTotal("phoenix.recovery.salvage.ranges_skipped");
  stats.salvage_state_fallback += sim.metrics().CounterTotal(
      "phoenix.recovery.salvage.state_record_fallback");
  stats.dedupe_hits +=
      sim.metrics().CounterTotal("phoenix.intercept.dedupe_hits");
  stats.retries += sim.metrics().CounterTotal("phoenix.intercept.retries");
  stats.group_flushes +=
      sim.metrics().CounterTotal("phoenix.wal.group_commit.flushes");
  stats.group_coalesced +=
      sim.metrics().CounterTotal("phoenix.wal.group_commit.coalesced");
  stats.replay_chains +=
      sim.metrics().CounterTotal("phoenix.recovery.replay.chains");
  stats.replay_edges +=
      sim.metrics().CounterTotal("phoenix.recovery.replay.edges");
  stats.replay_fallbacks +=
      sim.metrics().CounterTotal("phoenix.recovery.replay.fallbacks");

  if (!failure.empty()) {
    std::string path =
        obs::ResolveBenchPath(StrCat("chaos_flight_run", run, ".jsonl"));
    std::string dump = sim.tracer().ExportFlightRecorder();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f != nullptr) {
      std::fwrite(dump.data(), 1, dump.size(), f);
      std::fclose(f);
      *flight_file = path;
    }
  }
  return failure;
}

// --- crash-during-recovery campaign ---------------------------------------
//
// --crash-during-recovery treats recovery itself as the fault domain: the
// server is killed mid-campaign, and the *recovery* that follows is crashed
// again at seeded recovery-phase fault points (analysis scan, state
// reinstatement, between replay units, end-of-log flush), nested up to
// depth 3 — a crash during the re-recovery of a crashed recovery — with
// optional storage attacks on the well-known file, the newest state record
// or the stable tail between attempts. The oracle is exactly-once plus a
// state-hash comparison against a fault-free twin run of the identical
// workload: however many times recovery is interrupted, the supervisor must
// converge to the very same final state without ever reaching the cold-
// start rung or giving up.

// One randomized recovery-crash configuration.
struct RecoveryCrashConfig {
  uint64_t sim_seed = 1;
  bookstore::OptLevel level = bookstore::OptLevel::kSpecialized;
  uint32_t save_every = 0;
  uint32_t checkpoint_every = 0;
  Topology topology = Topology::kRemoteAgent;  // persistent tiers only
  int stores = 2;
  bool parallel_replay = false;
  int depth = 1;  // nested recovery crashes (1..3)
  // (point, cumulative hit count) triggers: attempt n's hits continue
  // attempt n-1's counter, so consecutive entries on one point crash
  // consecutive recovery attempts.
  std::vector<std::pair<FailurePoint, uint64_t>> recovery_crashes;
  bool attack_wkf = false;    // corrupt the well-known file before attempt 2
  bool attack_state = false;  // corrupt the newest state record, attempt 2
  bool attack_tear = false;   // tear the stable tail before attempt 3
  uint32_t wal_shards = 1;    // --wal-shards; not drawn from the run seed
};

RecoveryCrashConfig MakeRecoveryCrashConfig(const CampaignOptions& campaign,
                                            int run) {
  Random rng(campaign.seed * 2000003ull + static_cast<uint64_t>(run));
  RecoveryCrashConfig cfg;
  cfg.sim_seed = campaign.seed * 7919ull + static_cast<uint64_t>(run) + 1;
  switch (rng.Uniform(3)) {
    case 0:
      cfg.level = bookstore::OptLevel::kBaseline;
      break;
    case 1:
      cfg.level = bookstore::OptLevel::kOptimizedLogging;
      break;
    default:
      cfg.level = bookstore::OptLevel::kSpecialized;
      break;
  }
  const uint32_t kSaveChoices[] = {0, 3, 7};
  cfg.save_every = kSaveChoices[rng.Uniform(3)];
  cfg.checkpoint_every = cfg.save_every > 0 ? cfg.save_every * 2 : 0;
  cfg.topology = rng.Bernoulli(0.5) ? Topology::kRemoteAgent
                                    : Topology::kColocatedAgent;
  cfg.stores = 1 + static_cast<int>(rng.Uniform(2));
  cfg.parallel_replay = rng.Bernoulli(0.5);

  static const FailurePoint kRecoveryPoints[] = {
      FailurePoint::kDuringRecoveryAnalysis,
      FailurePoint::kDuringRecoveryRestore,
      FailurePoint::kBetweenReplayUnits,
      FailurePoint::kDuringEndOfLogFlush,
  };
  cfg.depth = 1 + static_cast<int>(rng.Uniform(3));
  uint64_t cumulative[kNumFailurePoints] = {};
  for (int d = 0; d < cfg.depth; ++d) {
    FailurePoint point = kRecoveryPoints[rng.Uniform(4)];
    cumulative[static_cast<int>(point)] += 1 + rng.Uniform(2);
    cfg.recovery_crashes.emplace_back(point,
                                      cumulative[static_cast<int>(point)]);
  }
  cfg.attack_wkf = rng.Bernoulli(0.3);
  cfg.attack_state = rng.Bernoulli(0.3);
  cfg.attack_tear = rng.Bernoulli(0.2);
  cfg.wal_shards = campaign.wal_shards;
  return cfg;
}

struct RecoveryCrashStats {
  uint64_t runs = 0;
  uint64_t violations = 0;
  uint64_t hash_divergences = 0;
  uint64_t sessions_total = 0;
  uint64_t recovery_crashes_fired = 0;
  uint64_t supervisor_attempts = 0;
  uint64_t supervisor_gave_up = 0;
  uint64_t storage_attacks = 0;
  uint64_t degraded_mode_attempts = 0;
  uint64_t cold_starts = 0;
  uint64_t salvaged_parallel = 0;
  uint64_t chains_demoted = 0;
  uint64_t parallel_runs = 0;
  uint64_t depth_runs[3] = {0, 0, 0};
  uint64_t point_crashes[4] = {0, 0, 0, 0};  // per recovery-phase point
};

// Runs one configuration — faulted (inject=true) or as the fault-free twin
// — and checks the exactly-once oracle. Fills *state_hash with an FNV-1a
// digest of the final observable state (per-store sales and stock, agent
// session count); twin and faulted runs must produce the same digest.
std::string RunRecoveryCrashOne(const RecoveryCrashConfig& cfg, int run,
                                int sessions, bool inject,
                                RecoveryCrashStats& stats,
                                uint64_t* state_hash,
                                std::string* flight_file) {
  RuntimeOptions runtime = bookstore::OptionsForLevel(cfg.level);
  runtime.save_context_state_every = cfg.save_every;
  runtime.process_checkpoint_every = cfg.checkpoint_every;
  runtime.call_retry_budget_ms = 0.0;
  runtime.parallel_replay = cfg.parallel_replay;
  runtime.inject_failures_during_recovery = inject;
  runtime.wal_shards = cfg.wal_shards;

  SimulationParams params;
  params.seed = cfg.sim_seed;
  params.flight_recorder_events = kFlightEvents;
  Simulation sim(runtime, params);
  bookstore::RegisterBookstoreComponents(sim.factories());
  sim.factories().Register<ShoppingAgent>("ShoppingAgent");
  Machine& server_machine = sim.AddMachine("server");
  Machine& client_machine = sim.AddMachine("client");
  auto deployment =
      bookstore::Deploy(sim, server_machine, cfg.stores, cfg.level);
  if (!deployment.ok()) {
    return "deploy failed: " + deployment.status().ToString();
  }
  Process& server_proc = *deployment->server_process;

  ExternalClient admin(&sim, "client");
  Machine& agent_machine = cfg.topology == Topology::kRemoteAgent
                               ? client_machine
                               : server_machine;
  Process& agent_proc = agent_machine.CreateProcess();
  auto agent =
      admin.CreateComponent(agent_proc, "ShoppingAgent", "agent0",
                            ComponentKind::kPersistent,
                            MakeArgs(deployment->seller_uri));
  if (!agent.ok()) {
    return "agent creation failed: " + agent.status().ToString();
  }

  std::vector<int> expected_store(cfg.stores, 0);
  std::vector<std::vector<int>> expected_book(cfg.stores,
                                              std::vector<int>(11, 0));
  Random workload(cfg.sim_seed * 31 + 1);
  std::string failure;

  int kill_at = std::max(1, sessions / 2);
  for (int i = 0; i < sessions && failure.empty(); ++i) {
    if (i == kill_at) {
      // The fault under test: the server dies between sessions, and its
      // *recovery* is crashed again and again at the seeded points while
      // the storage rots between attempts. The fault-free twin takes the
      // same kill with a clean one-attempt recovery.
      server_proc.Kill();
      if (inject) {
        for (const auto& [point, hit] : cfg.recovery_crashes) {
          sim.injector().AddTrigger("server", server_proc.pid(), point, hit);
        }
        if (cfg.attack_wkf) {
          sim.injector().AddRecoveryAttack(
              "server", server_proc.pid(), /*before_attempt=*/2,
              RecoveryAttack::kCorruptWellKnownFile);
        }
        if (cfg.attack_state) {
          sim.injector().AddRecoveryAttack(
              "server", server_proc.pid(), /*before_attempt=*/2,
              RecoveryAttack::kCorruptNewestStateRecord);
        }
        if (cfg.attack_tear) {
          sim.injector().AddRecoveryAttack("server", server_proc.pid(),
                                           /*before_attempt=*/3,
                                           RecoveryAttack::kTearStableTail);
        }
      }
      Status recovered =
          server_machine.recovery_service().EnsureProcessAlive(
              server_proc.pid());
      if (!recovered.ok()) {
        failure = "supervised recovery failed: " + recovered.ToString();
        break;
      }
    }
    int store = static_cast<int>(workload.Uniform(cfg.stores));
    int book = static_cast<int>(workload.Uniform(10)) + 1;
    std::string buyer = "buyer" + std::to_string(i);
    ExternalClient driver(&sim, "client");
    Status status =
        driver
            .Call(*agent, "Session",
                  MakeArgs(buyer, deployment->store_uris[store],
                           int64_t{book}))
            .status();
    if (!status.ok()) {
      failure = StrCat("session ", i, " failed: ", status.ToString());
      break;
    }
    ++expected_store[store];
    ++expected_book[store][book];
    if (inject) ++stats.sessions_total;
  }

  // Exactly-once oracle (persistent topology: every count exact) plus the
  // state digest for the twin comparison.
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  if (failure.empty()) {
    auto done = admin.Call(*agent, "SessionsDone", {});
    if (!done.ok()) {
      failure = "SessionsDone failed: " + done.status().ToString();
    } else if (done->AsInt() != sessions) {
      failure = StrCat("SessionsDone=", done->AsInt(), " want ", sessions);
    } else {
      mix(static_cast<uint64_t>(done->AsInt()));
    }
    ExternalClient probe(&sim, "client");
    for (int s = 0; s < cfg.stores && failure.empty(); ++s) {
      auto sold = probe.Call(deployment->store_uris[s], "TotalSold", {});
      if (!sold.ok()) {
        failure = "TotalSold failed: " + sold.status().ToString();
        break;
      }
      if (sold->AsInt() != expected_store[s]) {
        failure = StrCat("store ", s, " TotalSold=", sold->AsInt(), " want ",
                         expected_store[s]);
        break;
      }
      mix(static_cast<uint64_t>(sold->AsInt()));
      for (int book = 1; book <= 10 && failure.empty(); ++book) {
        auto entry = probe.Call(deployment->store_uris[s], "GetBook",
                                MakeArgs(int64_t{book}));
        if (!entry.ok()) {
          failure = "GetBook failed: " + entry.status().ToString();
          break;
        }
        int64_t stock = entry->AsList()[3].AsInt();
        if (25 - stock != expected_book[s][book]) {
          failure = StrCat("store ", s, " book ", book, " sold ", 25 - stock,
                           " want ", expected_book[s][book]);
          break;
        }
        mix(static_cast<uint64_t>(stock));
      }
    }
  }
  *state_hash = hash;

  if (inject) {
    stats.recovery_crashes_fired += sim.injector().crashes_fired();
    stats.supervisor_attempts +=
        sim.metrics().CounterTotal("phoenix.recovery.supervisor.attempts");
    stats.supervisor_gave_up +=
        sim.metrics().CounterTotal("phoenix.recovery.supervisor.gave_up");
    stats.storage_attacks += sim.injector().recovery_attacks_fired();
    stats.degraded_mode_attempts +=
        sim.metrics().CounterTotal("phoenix.recovery.mode");
    stats.cold_starts +=
        sim.metrics().CounterTotal("phoenix.recovery.cold_starts");
    stats.salvaged_parallel += sim.metrics().CounterTotal(
        "phoenix.recovery.replay.salvaged_parallel");
    stats.chains_demoted +=
        sim.metrics().CounterTotal("phoenix.recovery.replay.chains_demoted");
    static const FailurePoint kRecoveryPoints[] = {
        FailurePoint::kDuringRecoveryAnalysis,
        FailurePoint::kDuringRecoveryRestore,
        FailurePoint::kBetweenReplayUnits,
        FailurePoint::kDuringEndOfLogFlush,
    };
    for (int p = 0; p < 4; ++p) {
      for (const auto& [point, hit] : cfg.recovery_crashes) {
        if (point == kRecoveryPoints[p]) ++stats.point_crashes[p];
      }
    }
  }

  if (!failure.empty() && inject) {
    std::string path = obs::ResolveBenchPath(
        StrCat("chaos_recovery_flight_run", run, ".jsonl"));
    std::string dump = sim.tracer().ExportFlightRecorder();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f != nullptr) {
      std::fwrite(dump.data(), 1, dump.size(), f);
      std::fclose(f);
      *flight_file = path;
    }
  }
  return failure;
}

int RunRecoveryCrashCampaign(const CampaignOptions& campaign) {
  RecoveryCrashStats stats;
  struct ViolationRecord {
    int run;
    std::string description;
    std::string flight_file;
  };
  std::vector<ViolationRecord> violations;
  for (int run = 0; run < campaign.runs; ++run) {
    RecoveryCrashConfig cfg = MakeRecoveryCrashConfig(campaign, run);
    uint64_t twin_hash = 0;
    uint64_t fault_hash = 0;
    std::string flight_file;
    std::string twin_failure = RunRecoveryCrashOne(
        cfg, run, campaign.sessions, /*inject=*/false, stats, &twin_hash,
        &flight_file);
    std::string violation = RunRecoveryCrashOne(
        cfg, run, campaign.sessions, /*inject=*/true, stats, &fault_hash,
        &flight_file);
    ++stats.runs;
    ++stats.depth_runs[cfg.depth - 1];
    if (cfg.parallel_replay) ++stats.parallel_runs;
    if (violation.empty() && !twin_failure.empty()) {
      violation = "fault-free twin failed: " + twin_failure;
    }
    if (violation.empty() && fault_hash != twin_hash) {
      ++stats.hash_divergences;
      violation = StrCat("state hash diverged from fault-free twin: ",
                         fault_hash, " != ", twin_hash);
    }
    if (!violation.empty()) {
      ++stats.violations;
      violations.push_back({run, violation, flight_file});
      std::fprintf(stderr,
                   "VIOLATION run %d (%s, %s, save=%u, depth=%d): %s\n",
                   run, TopologyName(cfg.topology),
                   bookstore::OptLevelName(cfg.level), cfg.save_every,
                   cfg.depth, violation.c_str());
    } else if (campaign.verbose) {
      std::printf("run %d ok (%s, save=%u, depth=%d, parallel=%d, "
                  "attacks=%d%d%d)\n",
                  run, bookstore::OptLevelName(cfg.level), cfg.save_every,
                  cfg.depth, cfg.parallel_replay ? 1 : 0,
                  cfg.attack_wkf ? 1 : 0, cfg.attack_state ? 1 : 0,
                  cfg.attack_tear ? 1 : 0);
    }
  }

  obs::BenchReporter reporter("chaos_recovery_crash", kChaosSchema);
  obs::BenchVariant& campaign_v = reporter.AddVariant("campaign");
  if (campaign.wal_shards > 1) {
    campaign_v.SetMetric("wal_shards",
                         static_cast<uint64_t>(campaign.wal_shards));
  }
  campaign_v.SetMetric("runs", stats.runs)
      .SetMetric("seed", campaign.seed)
      .SetMetric("sessions_per_run", static_cast<uint64_t>(campaign.sessions))
      .SetMetric("violations", stats.violations)
      .SetMetric("state_hash_divergences", stats.hash_divergences)
      .SetMetric("sessions_total", stats.sessions_total)
      .SetMetric("recovery_crashes_fired", stats.recovery_crashes_fired)
      .SetMetric("supervisor_attempts", stats.supervisor_attempts)
      .SetMetric("supervisor_gave_up", stats.supervisor_gave_up)
      .SetMetric("storage_attacks_applied", stats.storage_attacks)
      .SetMetric("degraded_mode_attempts", stats.degraded_mode_attempts)
      .SetMetric("cold_starts", stats.cold_starts)
      .SetMetric("salvaged_parallel_replays", stats.salvaged_parallel)
      .SetMetric("replay_chains_demoted", stats.chains_demoted)
      .SetMetric("parallel_replay_runs", stats.parallel_runs)
      .SetMetric("depth1_runs", stats.depth_runs[0])
      .SetMetric("depth2_runs", stats.depth_runs[1])
      .SetMetric("depth3_runs", stats.depth_runs[2])
      .SetMetric("crashes_at_analysis", stats.point_crashes[0])
      .SetMetric("crashes_at_restore", stats.point_crashes[1])
      .SetMetric("crashes_between_units", stats.point_crashes[2])
      .SetMetric("crashes_at_endlog_flush", stats.point_crashes[3]);
  for (const ViolationRecord& rec : violations) {
    obs::BenchVariant& v =
        reporter.AddVariant(StrCat("violation_run", rec.run));
    v.SetMetric("run", static_cast<uint64_t>(rec.run));
    v.SetInfo("violation", rec.description);
    if (!rec.flight_file.empty()) {
      v.SetInfo("flight_recorder", rec.flight_file);
    }
  }
  auto written = reporter.WriteFile(campaign.out);
  if (!written.ok()) {
    std::fprintf(stderr, "report write failed: %s\n",
                 written.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "crash-during-recovery campaign: %llu run(s), %llu violation(s), "
      "%llu state-hash divergence(s)\n"
      "  injected: %llu recovery crash(es) "
      "(analysis=%llu restore=%llu between-units=%llu endlog=%llu), "
      "%llu storage attack(s), depth 1/2/3 = %llu/%llu/%llu\n"
      "  supervisor: %llu attempt(s), %llu degraded-mode attempt(s), "
      "%llu cold start(s), %llu gave up\n"
      "  salvage-parallel: %llu parallel run(s), %llu salvaged-parallel "
      "replay(s), %llu chain(s) demoted\n"
      "report: %s\n",
      static_cast<unsigned long long>(stats.runs),
      static_cast<unsigned long long>(stats.violations),
      static_cast<unsigned long long>(stats.hash_divergences),
      static_cast<unsigned long long>(stats.recovery_crashes_fired),
      static_cast<unsigned long long>(stats.point_crashes[0]),
      static_cast<unsigned long long>(stats.point_crashes[1]),
      static_cast<unsigned long long>(stats.point_crashes[2]),
      static_cast<unsigned long long>(stats.point_crashes[3]),
      static_cast<unsigned long long>(stats.storage_attacks),
      static_cast<unsigned long long>(stats.depth_runs[0]),
      static_cast<unsigned long long>(stats.depth_runs[1]),
      static_cast<unsigned long long>(stats.depth_runs[2]),
      static_cast<unsigned long long>(stats.supervisor_attempts),
      static_cast<unsigned long long>(stats.degraded_mode_attempts),
      static_cast<unsigned long long>(stats.cold_starts),
      static_cast<unsigned long long>(stats.supervisor_gave_up),
      static_cast<unsigned long long>(stats.parallel_runs),
      static_cast<unsigned long long>(stats.salvaged_parallel),
      static_cast<unsigned long long>(stats.chains_demoted),
      written->c_str());
  return stats.violations > 0 ? 1 : 0;
}

// --- async-checkpoint campaign ---------------------------------------------
//
// --async-checkpoint treats the background checkpoint session as the fault
// domain: every run executes a concurrent bookstore workload with the
// inline save/checkpoint cadence OFF and the async sweeper ON (group
// commit on, per the pipeline's parking contract), while seeded crashes
// fire *inside* the background sweeps — mid context-state capture
// (kDuringStateSave), inside the checkpoint bracket (kDuringCheckpoint)
// and in the group flush the sweep's force joins (kDuringGroupFlush) —
// with optional crash-time torn tails eating the unpublished bracket. The
// oracle is exactly-once plus an FNV-1a state-hash diff against a
// fault-free async twin of the identical workload: a crash in the
// background sweeper must never change what got sold, and a torn
// unpublished bracket must fall back to the older published checkpoint
// without observable drift.

// One randomized async-checkpoint configuration. Persistent topologies
// only: the twin-hash oracle needs every count exact.
struct AsyncCheckpointConfig {
  uint64_t sim_seed = 1;
  bookstore::OptLevel level = bookstore::OptLevel::kSpecialized;
  uint32_t interval = 8;  // async_checkpoint_interval under test
  Topology topology = Topology::kRemoteAgent;
  int stores = 2;
  int overlap = 2;  // sessions per concurrent wave (always >= 2)
  bool parallel_replay = false;
  double torn_p = 0.0;  // crash-time torn tails
  std::vector<std::pair<FailurePoint, uint64_t>> crashes;
  uint32_t wal_shards = 1;  // --wal-shards; not drawn from the run seed
};

AsyncCheckpointConfig MakeAsyncCheckpointConfig(
    const CampaignOptions& campaign, int run) {
  Random rng(campaign.seed * 3000017ull + static_cast<uint64_t>(run));
  AsyncCheckpointConfig cfg;
  cfg.sim_seed = campaign.seed * 7919ull + static_cast<uint64_t>(run) + 1;
  switch (rng.Uniform(3)) {
    case 0:
      cfg.level = bookstore::OptLevel::kBaseline;
      break;
    case 1:
      cfg.level = bookstore::OptLevel::kOptimizedLogging;
      break;
    default:
      cfg.level = bookstore::OptLevel::kSpecialized;
      break;
  }
  const uint32_t kIntervals[] = {4, 8, 16};
  cfg.interval = kIntervals[rng.Uniform(3)];
  cfg.topology = rng.Bernoulli(0.5) ? Topology::kRemoteAgent
                                    : Topology::kColocatedAgent;
  cfg.stores = 1 + static_cast<int>(rng.Uniform(2));
  // Always concurrent: the background session only interleaves mid-wave,
  // so a sequential run would never crash inside a sweep.
  int span = campaign.overlap > 2 ? campaign.overlap - 1 : 1;
  cfg.overlap = 2 + static_cast<int>(rng.Uniform(
                        static_cast<uint64_t>(span)));
  cfg.parallel_replay = rng.Bernoulli(0.4);
  // 1..3 crash triggers aimed at the points only the background sweeper
  // reaches on these runs (the inline cadence is off, so kDuringStateSave
  // and kDuringCheckpoint can't fire from a foreground chain). Sweeps are
  // rare relative to protocol hooks, so the fuses are short; a trigger
  // whose count outruns the run's sweeps simply never fires. Triggers only
  // target the seller's process: the persistent agent in front masks every
  // seller crash, whereas killing the *agent* mid-wave would interrupt its
  // external driver's in-flight call and open the §3.1.2 window of
  // vulnerability — expected duplicates, not a checkpointing defect.
  static const FailurePoint kSweepPoints[] = {
      FailurePoint::kDuringStateSave,
      FailurePoint::kDuringCheckpoint,
      FailurePoint::kDuringGroupFlush,
  };
  uint64_t cumulative[kNumFailurePoints] = {};
  uint64_t crash_count = 1 + rng.Uniform(3);
  for (uint64_t i = 0; i < crash_count; ++i) {
    FailurePoint point = kSweepPoints[rng.Uniform(3)];
    cumulative[static_cast<int>(point)] += 1 + rng.Uniform(3);
    cfg.crashes.emplace_back(point, cumulative[static_cast<int>(point)]);
  }
  if (rng.Bernoulli(0.5)) cfg.torn_p = 0.1 + rng.NextDouble() * 0.5;
  cfg.wal_shards = campaign.wal_shards;
  return cfg;
}

struct AsyncCheckpointStats {
  uint64_t runs = 0;
  uint64_t violations = 0;
  uint64_t hash_divergences = 0;
  uint64_t sessions_total = 0;
  uint64_t crashes_fired = 0;
  uint64_t recoveries = 0;
  uint64_t torn_tails_injected = 0;
  uint64_t async_sweeps = 0;
  uint64_t async_publishes = 0;
  uint64_t async_deferrals = 0;
  uint64_t publish_skips = 0;
  uint64_t group_flushes = 0;
  uint64_t parallel_replay_runs = 0;
  uint64_t point_crashes[3] = {0, 0, 0};  // state_save / checkpoint / flush
};

// Runs one configuration — faulted (inject=true) or as the fault-free
// async twin — in concurrent waves, checks exactly-once, and fills
// *state_hash with the FNV-1a digest of the final observable state.
std::string RunAsyncCheckpointOne(const AsyncCheckpointConfig& cfg, int run,
                                  int sessions, bool inject,
                                  AsyncCheckpointStats& stats,
                                  uint64_t* state_hash,
                                  std::string* flight_file) {
  RuntimeOptions runtime = bookstore::OptionsForLevel(cfg.level);
  // Inline cadence off, async sweeper on: every capture and publish runs
  // on the background session. Group commit must be on for the scheduler
  // to rotate into that session mid-wave (the pipeline only parks under
  // group commit).
  runtime.save_context_state_every = 0;
  runtime.process_checkpoint_every = 0;
  runtime.async_checkpoint = true;
  runtime.async_checkpoint_interval = cfg.interval;
  runtime.group_commit = true;
  runtime.call_retry_budget_ms = 0.0;
  runtime.parallel_replay = cfg.parallel_replay;
  runtime.wal_shards = cfg.wal_shards;

  SimulationParams params;
  params.seed = cfg.sim_seed;
  params.flight_recorder_events = kFlightEvents;
  Simulation sim(runtime, params);
  bookstore::RegisterBookstoreComponents(sim.factories());
  sim.factories().Register<ShoppingAgent>("ShoppingAgent");
  Machine& server_machine = sim.AddMachine("server");
  Machine& client_machine = sim.AddMachine("client");
  auto deployment =
      bookstore::Deploy(sim, server_machine, cfg.stores, cfg.level);
  if (!deployment.ok()) {
    return "deploy failed: " + deployment.status().ToString();
  }
  Process& server_proc = *deployment->server_process;

  ExternalClient admin(&sim, "client");
  Machine& agent_machine = cfg.topology == Topology::kRemoteAgent
                               ? client_machine
                               : server_machine;
  Process& agent_proc = agent_machine.CreateProcess();
  std::vector<std::string> agent_uris;
  for (int a = 0; a < cfg.overlap; ++a) {
    auto agent = admin.CreateComponent(
        agent_proc, "ShoppingAgent", StrCat("agent", a),
        ComponentKind::kPersistent, MakeArgs(deployment->seller_uri));
    if (!agent.ok()) {
      return "agent creation failed: " + agent.status().ToString();
    }
    agent_uris.push_back(*agent);
  }

  if (inject) {
    for (const auto& [point, hit] : cfg.crashes) {
      sim.injector().AddTrigger("server", server_proc.pid(), point, hit);
    }
    if (cfg.torn_p > 0.0) {
      sim.injector().EnableTornTails(cfg.torn_p, cfg.sim_seed * 131 + 7);
    }
  }

  std::vector<int> expected_store(cfg.stores, 0);
  std::vector<std::vector<int>> expected_book(cfg.stores,
                                              std::vector<int>(11, 0));
  Random workload(cfg.sim_seed * 31 + 1);
  std::string failure;

  // Concurrent waves, RunOne-style: plans drawn before the wave runs so
  // the oracle's expectations never depend on chain interleaving. Crashes
  // fired inside background sweeps recover lazily — the next retry that
  // finds the process dead triggers the supervised recovery path.
  int next = 0;
  while (next < sessions && failure.empty()) {
    int wave_end = std::min(next + cfg.overlap, sessions);
    struct Plan {
      int i;
      int store;
      int book;
      Status status = Status::OK();
    };
    std::vector<Plan> wave;
    for (int i = next; i < wave_end; ++i) {
      wave.push_back({i, static_cast<int>(workload.Uniform(cfg.stores)),
                      static_cast<int>(workload.Uniform(10)) + 1});
    }
    std::vector<std::function<void()>> bodies;
    for (Plan& plan : wave) {
      bodies.push_back([&sim, &deployment, &agent_uris, p = &plan] {
        std::string buyer = "buyer" + std::to_string(p->i);
        ExternalClient driver(&sim, "client");
        p->status =
            driver
                .Call(agent_uris[static_cast<size_t>(p->i) %
                                 agent_uris.size()],
                      "Session",
                      MakeArgs(buyer, deployment->store_uris[p->store],
                               int64_t{p->book}))
                .status();
      });
    }
    sim.RunSessions(std::move(bodies));
    for (const Plan& plan : wave) {
      if (!plan.status.ok()) {
        if (failure.empty()) {
          failure = StrCat("session ", plan.i,
                           " failed: ", plan.status.ToString());
        }
        continue;
      }
      ++expected_store[plan.store];
      ++expected_book[plan.store][plan.book];
      if (inject) ++stats.sessions_total;
    }
    next = wave_end;
  }

  // Exactly-once oracle plus the state digest for the twin comparison.
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  if (failure.empty()) {
    int64_t done_total = 0;
    for (const std::string& agent_uri : agent_uris) {
      auto done = admin.Call(agent_uri, "SessionsDone", {});
      if (!done.ok()) {
        failure = "SessionsDone failed: " + done.status().ToString();
        break;
      }
      done_total += done->AsInt();
      mix(static_cast<uint64_t>(done->AsInt()));
    }
    if (failure.empty() && done_total != sessions) {
      failure = StrCat("SessionsDone=", done_total, " want ", sessions);
    }
    ExternalClient probe(&sim, "client");
    for (int s = 0; s < cfg.stores && failure.empty(); ++s) {
      auto sold = probe.Call(deployment->store_uris[s], "TotalSold", {});
      if (!sold.ok()) {
        failure = "TotalSold failed: " + sold.status().ToString();
        break;
      }
      if (sold->AsInt() != expected_store[s]) {
        failure = StrCat("store ", s, " TotalSold=", sold->AsInt(), " want ",
                         expected_store[s]);
        break;
      }
      mix(static_cast<uint64_t>(sold->AsInt()));
      for (int book = 1; book <= 10 && failure.empty(); ++book) {
        auto entry = probe.Call(deployment->store_uris[s], "GetBook",
                                MakeArgs(int64_t{book}));
        if (!entry.ok()) {
          failure = "GetBook failed: " + entry.status().ToString();
          break;
        }
        int64_t stock = entry->AsList()[3].AsInt();
        if (25 - stock != expected_book[s][book]) {
          failure = StrCat("store ", s, " book ", book, " sold ", 25 - stock,
                           " want ", expected_book[s][book]);
          break;
        }
        mix(static_cast<uint64_t>(stock));
      }
    }
  }
  *state_hash = hash;

  if (inject) {
    stats.crashes_fired += sim.injector().crashes_fired();
    stats.recoveries +=
        server_machine.recovery_service().recoveries_performed() +
        (&agent_machine == &server_machine
             ? 0
             : agent_machine.recovery_service().recoveries_performed());
    stats.torn_tails_injected += sim.injector().torn_tails_fired();
    stats.async_sweeps +=
        sim.metrics().CounterTotal("phoenix.checkpoint.async.sweeps");
    stats.async_publishes +=
        sim.metrics().CounterTotal("phoenix.checkpoint.async.publishes");
    stats.async_deferrals +=
        sim.metrics().CounterTotal("phoenix.checkpoint.async.deferred");
    stats.publish_skips +=
        sim.metrics().CounterTotal("phoenix.checkpoint.publish_skips");
    stats.group_flushes +=
        sim.metrics().CounterTotal("phoenix.wal.group_commit.flushes");
    static const FailurePoint kSweepPoints[] = {
        FailurePoint::kDuringStateSave,
        FailurePoint::kDuringCheckpoint,
        FailurePoint::kDuringGroupFlush,
    };
    for (int p = 0; p < 3; ++p) {
      for (const auto& [point, hit] : cfg.crashes) {
        if (point == kSweepPoints[p]) ++stats.point_crashes[p];
      }
    }
  }

  if (!failure.empty() && inject) {
    std::string path = obs::ResolveBenchPath(
        StrCat("chaos_async_flight_run", run, ".jsonl"));
    std::string dump = sim.tracer().ExportFlightRecorder();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f != nullptr) {
      std::fwrite(dump.data(), 1, dump.size(), f);
      std::fclose(f);
      *flight_file = path;
    }
  }
  return failure;
}

int RunAsyncCheckpointCampaign(const CampaignOptions& campaign) {
  AsyncCheckpointStats stats;
  struct ViolationRecord {
    int run;
    std::string description;
    std::string flight_file;
  };
  std::vector<ViolationRecord> violations;
  for (int run = 0; run < campaign.runs; ++run) {
    AsyncCheckpointConfig cfg = MakeAsyncCheckpointConfig(campaign, run);
    uint64_t twin_hash = 0;
    uint64_t fault_hash = 0;
    std::string flight_file;
    std::string twin_failure = RunAsyncCheckpointOne(
        cfg, run, campaign.sessions, /*inject=*/false, stats, &twin_hash,
        &flight_file);
    std::string violation = RunAsyncCheckpointOne(
        cfg, run, campaign.sessions, /*inject=*/true, stats, &fault_hash,
        &flight_file);
    ++stats.runs;
    if (cfg.parallel_replay) ++stats.parallel_replay_runs;
    if (violation.empty() && !twin_failure.empty()) {
      violation = "fault-free twin failed: " + twin_failure;
    }
    if (violation.empty() && fault_hash != twin_hash) {
      ++stats.hash_divergences;
      violation = StrCat("state hash diverged from fault-free twin: ",
                         fault_hash, " != ", twin_hash);
    }
    if (!violation.empty()) {
      ++stats.violations;
      violations.push_back({run, violation, flight_file});
      std::fprintf(stderr,
                   "VIOLATION run %d (%s, %s, interval=%u, overlap=%d): %s\n",
                   run, TopologyName(cfg.topology),
                   bookstore::OptLevelName(cfg.level), cfg.interval,
                   cfg.overlap, violation.c_str());
    } else if (campaign.verbose) {
      std::printf("run %d ok (%s, interval=%u, overlap=%d, crashes=%zu, "
                  "torn=%.2f)\n",
                  run, bookstore::OptLevelName(cfg.level), cfg.interval,
                  cfg.overlap, cfg.crashes.size(), cfg.torn_p);
    }
  }

  obs::BenchReporter reporter("chaos_async_checkpoint", kChaosSchema);
  obs::BenchVariant& campaign_v = reporter.AddVariant("campaign");
  if (campaign.wal_shards > 1) {
    campaign_v.SetMetric("wal_shards",
                         static_cast<uint64_t>(campaign.wal_shards));
  }
  campaign_v.SetMetric("runs", stats.runs)
      .SetMetric("seed", campaign.seed)
      .SetMetric("sessions_per_run", static_cast<uint64_t>(campaign.sessions))
      .SetMetric("violations", stats.violations)
      .SetMetric("state_hash_divergences", stats.hash_divergences)
      .SetMetric("sessions_total", stats.sessions_total)
      .SetMetric("crashes_fired", stats.crashes_fired)
      .SetMetric("recoveries", stats.recoveries)
      .SetMetric("torn_tails_injected", stats.torn_tails_injected)
      .SetMetric("async_sweeps", stats.async_sweeps)
      .SetMetric("async_publishes", stats.async_publishes)
      .SetMetric("async_deferrals", stats.async_deferrals)
      .SetMetric("publish_skips", stats.publish_skips)
      .SetMetric("group_flushes", stats.group_flushes)
      .SetMetric("parallel_replay_runs", stats.parallel_replay_runs)
      .SetMetric("crashes_at_state_save", stats.point_crashes[0])
      .SetMetric("crashes_at_checkpoint", stats.point_crashes[1])
      .SetMetric("crashes_at_group_flush", stats.point_crashes[2]);
  for (const ViolationRecord& rec : violations) {
    obs::BenchVariant& v =
        reporter.AddVariant(StrCat("violation_run", rec.run));
    v.SetMetric("run", static_cast<uint64_t>(rec.run));
    v.SetInfo("violation", rec.description);
    if (!rec.flight_file.empty()) {
      v.SetInfo("flight_recorder", rec.flight_file);
    }
  }
  auto written = reporter.WriteFile(campaign.out);
  if (!written.ok()) {
    std::fprintf(stderr, "report write failed: %s\n",
                 written.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "async-checkpoint campaign: %llu run(s), %llu violation(s), "
      "%llu state-hash divergence(s)\n"
      "  injected: %llu crash(es) fired "
      "(triggers: state_save=%llu checkpoint=%llu group_flush=%llu), "
      "%llu torn tail(s)\n"
      "  background: %llu sweep(s), %llu publish(es), %llu deferral(s), "
      "%llu publish skip(s), %llu group flush(es)\n"
      "  recoveries: %llu, parallel-replay runs: %llu\n"
      "report: %s\n",
      static_cast<unsigned long long>(stats.runs),
      static_cast<unsigned long long>(stats.violations),
      static_cast<unsigned long long>(stats.hash_divergences),
      static_cast<unsigned long long>(stats.crashes_fired),
      static_cast<unsigned long long>(stats.point_crashes[0]),
      static_cast<unsigned long long>(stats.point_crashes[1]),
      static_cast<unsigned long long>(stats.point_crashes[2]),
      static_cast<unsigned long long>(stats.torn_tails_injected),
      static_cast<unsigned long long>(stats.async_sweeps),
      static_cast<unsigned long long>(stats.async_publishes),
      static_cast<unsigned long long>(stats.async_deferrals),
      static_cast<unsigned long long>(stats.publish_skips),
      static_cast<unsigned long long>(stats.group_flushes),
      static_cast<unsigned long long>(stats.recoveries),
      static_cast<unsigned long long>(stats.parallel_replay_runs),
      written->c_str());
  return stats.violations > 0 ? 1 : 0;
}

// --- sharded-WAL campaign --------------------------------------------------
//
// --wal-shards=N treats the shard layout itself as the fault domain: the
// same seeded workload runs once on an N-shard WAL under protocol crashes,
// crash-time torn tails and mid-run storage attacks aimed at a *single*
// shard file, and once as a fault-free single-log twin. Exactly-once must
// hold on the faulted sharded run, and its final observable state (per-
// store sales and stock, agent session count) must hash identically to the
// twin's — however the shards were damaged, the gsn merge must reassemble
// the very same history.

// One randomized sharded-run configuration.
struct ShardChaosConfig {
  uint64_t sim_seed = 1;
  bookstore::OptLevel level = bookstore::OptLevel::kSpecialized;
  uint32_t save_every = 0;
  uint32_t checkpoint_every = 0;
  Topology topology = Topology::kRemoteAgent;  // persistent tiers only
  int stores = 2;
  std::vector<std::pair<FailurePoint, uint64_t>> crashes;
  double torn_p = 0.0;        // crash-time single-shard torn tails
  bool bitrot_state = false;  // rot the shard holding the newest state record
  bool bitrot_wkf = false;    // rot the meta shard's well-known file
  bool tear_shard = false;    // tear one shard's un-externalized tail
  bool attack_agent = false;  // storage attack hits the agent process
  bool parallel_replay = false;
};

ShardChaosConfig MakeShardChaosConfig(const CampaignOptions& campaign,
                                      int run) {
  Random rng(campaign.seed * 4000037ull + static_cast<uint64_t>(run));
  ShardChaosConfig cfg;
  cfg.sim_seed = campaign.seed * 7919ull + static_cast<uint64_t>(run) + 1;
  switch (rng.Uniform(3)) {
    case 0:
      cfg.level = bookstore::OptLevel::kBaseline;
      break;
    case 1:
      cfg.level = bookstore::OptLevel::kOptimizedLogging;
      break;
    default:
      cfg.level = bookstore::OptLevel::kSpecialized;
      break;
  }
  const uint32_t kSaveChoices[] = {0, 3, 7};
  cfg.save_every = kSaveChoices[rng.Uniform(3)];
  cfg.checkpoint_every = cfg.save_every > 0 ? cfg.save_every * 2 : 0;
  cfg.topology = rng.Bernoulli(0.5) ? Topology::kRemoteAgent
                                    : Topology::kColocatedAgent;
  cfg.stores = 1 + static_cast<int>(rng.Uniform(2));
  uint64_t crash_count = rng.Uniform(4);  // 0..3 protocol crash triggers
  for (uint64_t i = 0; i < crash_count; ++i) {
    auto point = static_cast<FailurePoint>(rng.Uniform(6));
    cfg.crashes.emplace_back(point, 1 + rng.Uniform(100));
  }
  if (rng.Bernoulli(0.6)) {
    cfg.torn_p = 0.1 + rng.NextDouble() * 0.5;
  }
  cfg.bitrot_state = rng.Bernoulli(0.35);
  cfg.bitrot_wkf = rng.Bernoulli(0.2);
  cfg.tear_shard = rng.Bernoulli(0.3);
  cfg.attack_agent = rng.Bernoulli(0.3);
  cfg.parallel_replay = rng.Bernoulli(0.5);
  return cfg;
}

struct ShardChaosStats {
  uint64_t runs = 0;
  uint64_t violations = 0;
  uint64_t hash_divergences = 0;
  uint64_t sessions_total = 0;
  uint64_t crashes_fired = 0;
  uint64_t recoveries = 0;
  uint64_t torn_tails_injected = 0;
  uint64_t torn_tails_salvaged = 0;
  uint64_t storage_attack_runs = 0;
  uint64_t merge_records = 0;
  uint64_t merge_inversions = 0;
  uint64_t salvage_wkf_fallback = 0;
  uint64_t salvage_full_scan = 0;
  uint64_t salvage_ranges_skipped = 0;
  uint64_t salvage_state_fallback = 0;
  uint64_t dedupe_hits = 0;
  uint64_t retries = 0;
  uint64_t parallel_replay_runs = 0;
};

// Runs one configuration on `shards` WAL shards — faulted when inject is
// true, the fault-free twin otherwise — checks the exactly-once oracle and
// fills *state_hash with the FNV-1a digest of the final observable state.
std::string RunShardChaosOne(const ShardChaosConfig& cfg, int run,
                             int sessions, uint32_t shards, bool inject,
                             ShardChaosStats& stats, uint64_t* state_hash,
                             std::string* flight_file) {
  RuntimeOptions runtime = bookstore::OptionsForLevel(cfg.level);
  runtime.save_context_state_every = cfg.save_every;
  runtime.process_checkpoint_every = cfg.checkpoint_every;
  runtime.call_retry_budget_ms = 0.0;
  runtime.parallel_replay = cfg.parallel_replay;
  runtime.wal_shards = shards;

  SimulationParams params;
  params.seed = cfg.sim_seed;
  params.flight_recorder_events = kFlightEvents;
  Simulation sim(runtime, params);
  bookstore::RegisterBookstoreComponents(sim.factories());
  sim.factories().Register<ShoppingAgent>("ShoppingAgent");
  Machine& server_machine = sim.AddMachine("server");
  Machine& client_machine = sim.AddMachine("client");
  auto deployment =
      bookstore::Deploy(sim, server_machine, cfg.stores, cfg.level);
  if (!deployment.ok()) {
    return "deploy failed: " + deployment.status().ToString();
  }
  Process& server_proc = *deployment->server_process;

  if (inject) {
    for (const auto& [point, hit] : cfg.crashes) {
      sim.injector().AddTrigger("server", server_proc.pid(), point, hit);
    }
    if (cfg.torn_p > 0.0) {
      sim.injector().EnableTornTails(cfg.torn_p, cfg.sim_seed * 131 + 7);
    }
  }

  ExternalClient admin(&sim, "client");
  Machine& agent_machine = cfg.topology == Topology::kRemoteAgent
                               ? client_machine
                               : server_machine;
  Process& agent_proc = agent_machine.CreateProcess();
  auto agent =
      admin.CreateComponent(agent_proc, "ShoppingAgent", "agent0",
                            ComponentKind::kPersistent,
                            MakeArgs(deployment->seller_uri));
  if (!agent.ok()) {
    return "agent creation failed: " + agent.status().ToString();
  }

  std::vector<int> expected_store(cfg.stores, 0);
  std::vector<std::vector<int>> expected_book(cfg.stores,
                                              std::vector<int>(11, 0));
  Random workload(cfg.sim_seed * 31 + 1);
  std::string failure;

  bool attacks = cfg.bitrot_state || cfg.bitrot_wkf || cfg.tear_shard;
  int attack_at = attacks && sessions >= 2 ? sessions / 2 : sessions;
  for (int i = 0; i < sessions && failure.empty(); ++i) {
    if (inject && i == attack_at && i < sessions) {
      bool hit_agent = cfg.attack_agent;
      Status attack =
          hit_agent ? ApplyStorageAttack(cfg.bitrot_state, cfg.bitrot_wkf,
                                         cfg.tear_shard, sim, agent_machine,
                                         agent_proc)
                    : ApplyStorageAttack(cfg.bitrot_state, cfg.bitrot_wkf,
                                         cfg.tear_shard, sim, server_machine,
                                         server_proc);
      if (!attack.ok()) {
        failure = "recovery after storage attack failed: " + attack.ToString();
        break;
      }
    }
    int store = static_cast<int>(workload.Uniform(cfg.stores));
    int book = static_cast<int>(workload.Uniform(10)) + 1;
    std::string buyer = "buyer" + std::to_string(i);
    ExternalClient driver(&sim, "client");
    Status status =
        driver
            .Call(*agent, "Session",
                  MakeArgs(buyer, deployment->store_uris[store],
                           int64_t{book}))
            .status();
    if (!status.ok()) {
      failure = StrCat("session ", i, " failed: ", status.ToString());
      break;
    }
    ++expected_store[store];
    ++expected_book[store][book];
    if (inject) ++stats.sessions_total;
  }

  // Exactly-once oracle (persistent topology: every count exact) plus the
  // state digest for the single-log twin comparison.
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  if (failure.empty()) {
    auto done = admin.Call(*agent, "SessionsDone", {});
    if (!done.ok()) {
      failure = "SessionsDone failed: " + done.status().ToString();
    } else if (done->AsInt() != sessions) {
      failure = StrCat("SessionsDone=", done->AsInt(), " want ", sessions);
    } else {
      mix(static_cast<uint64_t>(done->AsInt()));
    }
    ExternalClient probe(&sim, "client");
    for (int s = 0; s < cfg.stores && failure.empty(); ++s) {
      auto sold = probe.Call(deployment->store_uris[s], "TotalSold", {});
      if (!sold.ok()) {
        failure = "TotalSold failed: " + sold.status().ToString();
        break;
      }
      if (sold->AsInt() != expected_store[s]) {
        failure = StrCat("store ", s, " TotalSold=", sold->AsInt(), " want ",
                         expected_store[s]);
        break;
      }
      mix(static_cast<uint64_t>(sold->AsInt()));
      for (int book = 1; book <= 10 && failure.empty(); ++book) {
        auto entry = probe.Call(deployment->store_uris[s], "GetBook",
                                MakeArgs(int64_t{book}));
        if (!entry.ok()) {
          failure = "GetBook failed: " + entry.status().ToString();
          break;
        }
        int64_t stock = entry->AsList()[3].AsInt();
        if (25 - stock != expected_book[s][book]) {
          failure = StrCat("store ", s, " book ", book, " sold ", 25 - stock,
                           " want ", expected_book[s][book]);
          break;
        }
        mix(static_cast<uint64_t>(stock));
      }
    }
  }
  *state_hash = hash;

  if (inject) {
    stats.crashes_fired += sim.injector().crashes_fired();
    stats.recoveries +=
        server_machine.recovery_service().recoveries_performed() +
        agent_machine.recovery_service().recoveries_performed();
    stats.torn_tails_injected += sim.injector().torn_tails_fired();
    stats.torn_tails_salvaged +=
        sim.metrics().CounterTotal("phoenix.wal.torn_tails");
    stats.merge_records +=
        sim.metrics().CounterTotal("phoenix.recovery.merge.records");
    stats.merge_inversions +=
        sim.metrics().CounterTotal("phoenix.recovery.merge.inversions");
    stats.salvage_wkf_fallback +=
        sim.metrics().CounterTotal("phoenix.recovery.salvage.wkf_fallback");
    stats.salvage_full_scan += sim.metrics().CounterTotal(
        "phoenix.recovery.salvage.full_scan_fallback");
    stats.salvage_ranges_skipped +=
        sim.metrics().CounterTotal("phoenix.recovery.salvage.ranges_skipped");
    stats.salvage_state_fallback += sim.metrics().CounterTotal(
        "phoenix.recovery.salvage.state_record_fallback");
    stats.dedupe_hits +=
        sim.metrics().CounterTotal("phoenix.intercept.dedupe_hits");
    stats.retries += sim.metrics().CounterTotal("phoenix.intercept.retries");
  }

  if (!failure.empty() && inject) {
    std::string path = obs::ResolveBenchPath(
        StrCat("chaos_shard_flight_run", run, ".jsonl"));
    std::string dump = sim.tracer().ExportFlightRecorder();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f != nullptr) {
      std::fwrite(dump.data(), 1, dump.size(), f);
      std::fclose(f);
      *flight_file = path;
    }
  }
  return failure;
}

int RunShardCampaign(const CampaignOptions& campaign) {
  ShardChaosStats stats;
  struct ViolationRecord {
    int run;
    std::string description;
    std::string flight_file;
  };
  std::vector<ViolationRecord> violations;
  for (int run = 0; run < campaign.runs; ++run) {
    ShardChaosConfig cfg = MakeShardChaosConfig(campaign, run);
    uint64_t twin_hash = 0;
    uint64_t fault_hash = 0;
    std::string flight_file;
    std::string twin_failure = RunShardChaosOne(
        cfg, run, campaign.sessions, /*shards=*/1, /*inject=*/false, stats,
        &twin_hash, &flight_file);
    std::string violation = RunShardChaosOne(
        cfg, run, campaign.sessions, campaign.wal_shards, /*inject=*/true,
        stats, &fault_hash, &flight_file);
    ++stats.runs;
    if (cfg.parallel_replay) ++stats.parallel_replay_runs;
    if (cfg.bitrot_state || cfg.bitrot_wkf || cfg.tear_shard) {
      ++stats.storage_attack_runs;
    }
    if (violation.empty() && !twin_failure.empty()) {
      violation = "fault-free single-log twin failed: " + twin_failure;
    }
    if (violation.empty() && fault_hash != twin_hash) {
      ++stats.hash_divergences;
      violation = StrCat("state hash diverged from single-log twin: ",
                         fault_hash, " != ", twin_hash);
    }
    if (!violation.empty()) {
      ++stats.violations;
      violations.push_back({run, violation, flight_file});
      std::fprintf(stderr,
                   "VIOLATION run %d (%s, %s, save=%u, attacks=%d%d%d): %s\n",
                   run, TopologyName(cfg.topology),
                   bookstore::OptLevelName(cfg.level), cfg.save_every,
                   cfg.bitrot_state ? 1 : 0, cfg.bitrot_wkf ? 1 : 0,
                   cfg.tear_shard ? 1 : 0, violation.c_str());
    } else if (campaign.verbose) {
      std::printf("run %d ok (%s, %s, save=%u, crashes=%zu, torn=%.2f, "
                  "attacks=%d%d%d)\n",
                  run, TopologyName(cfg.topology),
                  bookstore::OptLevelName(cfg.level), cfg.save_every,
                  cfg.crashes.size(), cfg.torn_p, cfg.bitrot_state ? 1 : 0,
                  cfg.bitrot_wkf ? 1 : 0, cfg.tear_shard ? 1 : 0);
    }
  }

  obs::BenchReporter reporter("chaos_wal_shards", kChaosSchema);
  obs::BenchVariant& campaign_v = reporter.AddVariant("campaign");
  campaign_v.SetMetric("runs", stats.runs)
      .SetMetric("seed", campaign.seed)
      .SetMetric("wal_shards", static_cast<uint64_t>(campaign.wal_shards))
      .SetMetric("sessions_per_run", static_cast<uint64_t>(campaign.sessions))
      .SetMetric("violations", stats.violations)
      .SetMetric("state_hash_divergences", stats.hash_divergences)
      .SetMetric("sessions_total", stats.sessions_total)
      .SetMetric("crashes_fired", stats.crashes_fired)
      .SetMetric("recoveries", stats.recoveries)
      .SetMetric("storage_attack_runs", stats.storage_attack_runs)
      .SetMetric("torn_tails_injected", stats.torn_tails_injected)
      .SetMetric("torn_tails_salvaged", stats.torn_tails_salvaged)
      .SetMetric("merge_records", stats.merge_records)
      .SetMetric("merge_inversions", stats.merge_inversions)
      .SetMetric("salvage_wkf_fallbacks", stats.salvage_wkf_fallback)
      .SetMetric("salvage_full_scan_fallbacks", stats.salvage_full_scan)
      .SetMetric("salvage_ranges_skipped", stats.salvage_ranges_skipped)
      .SetMetric("salvage_state_record_fallbacks",
                 stats.salvage_state_fallback)
      .SetMetric("dedupe_hits", stats.dedupe_hits)
      .SetMetric("interceptor_retries", stats.retries)
      .SetMetric("parallel_replay_runs", stats.parallel_replay_runs);
  for (const ViolationRecord& rec : violations) {
    obs::BenchVariant& v =
        reporter.AddVariant(StrCat("violation_run", rec.run));
    v.SetMetric("run", static_cast<uint64_t>(rec.run));
    v.SetInfo("violation", rec.description);
    if (!rec.flight_file.empty()) {
      v.SetInfo("flight_recorder", rec.flight_file);
    }
  }
  auto written = reporter.WriteFile(campaign.out);
  if (!written.ok()) {
    std::fprintf(stderr, "report write failed: %s\n",
                 written.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "sharded-WAL campaign (%u shard(s)): %llu run(s), %llu violation(s), "
      "%llu state-hash divergence(s)\n"
      "  faults: %llu crash(es), %llu recover(ies), %llu storage-attack "
      "run(s), %llu torn tail(s) injected, %llu salvaged\n"
      "  merge: %llu record(s) merged, %llu inversion(s)\n"
      "  salvage: %llu wkf fallback(s), %llu full-scan fallback(s), "
      "%llu range(s) skipped, %llu state-record fallback(s)\n"
      "  masking: %llu dedupe hit(s), %llu retry(ies), "
      "%llu parallel-replay run(s)\n"
      "report: %s\n",
      campaign.wal_shards, static_cast<unsigned long long>(stats.runs),
      static_cast<unsigned long long>(stats.violations),
      static_cast<unsigned long long>(stats.hash_divergences),
      static_cast<unsigned long long>(stats.crashes_fired),
      static_cast<unsigned long long>(stats.recoveries),
      static_cast<unsigned long long>(stats.storage_attack_runs),
      static_cast<unsigned long long>(stats.torn_tails_injected),
      static_cast<unsigned long long>(stats.torn_tails_salvaged),
      static_cast<unsigned long long>(stats.merge_records),
      static_cast<unsigned long long>(stats.merge_inversions),
      static_cast<unsigned long long>(stats.salvage_wkf_fallback),
      static_cast<unsigned long long>(stats.salvage_full_scan),
      static_cast<unsigned long long>(stats.salvage_ranges_skipped),
      static_cast<unsigned long long>(stats.salvage_state_fallback),
      static_cast<unsigned long long>(stats.dedupe_hits),
      static_cast<unsigned long long>(stats.retries),
      static_cast<unsigned long long>(stats.parallel_replay_runs),
      written->c_str());
  return stats.violations > 0 ? 1 : 0;
}

int RunCampaign(const CampaignOptions& campaign) {
  CampaignStats stats;
  struct ViolationRecord {
    int run;
    std::string description;
    std::string flight_file;
  };
  std::vector<ViolationRecord> violations;
  for (int run = 0; run < campaign.runs; ++run) {
    RunConfig cfg = MakeRunConfig(campaign, run);
    std::string flight_file;
    std::string violation =
        RunOne(cfg, run, campaign.sessions, stats, &flight_file);
    ++stats.runs;
    if (cfg.overlap > 1) ++stats.concurrent_runs;
    if (cfg.group_commit) ++stats.group_commit_runs;
    if (cfg.parallel_replay) ++stats.parallel_replay_runs;
    int topo = static_cast<int>(cfg.topology);
    ++stats.topo_runs[topo];
    if (!violation.empty()) {
      ++stats.violations;
      ++stats.topo_violations[topo];
      violations.push_back({run, violation, flight_file});
      std::fprintf(stderr,
                   "VIOLATION run %d (%s, %s, save=%u, %d store(s)): %s\n"
                   "  flight recorder: %s\n",
                   run, TopologyName(cfg.topology),
                   bookstore::OptLevelName(cfg.level), cfg.save_every,
                   cfg.stores, violation.c_str(),
                   flight_file.empty() ? "(write failed)"
                                       : flight_file.c_str());
    } else if (campaign.verbose) {
      std::printf("run %d ok (%s, %s, save=%u, crashes=%zu, drop=%.3f, "
                  "torn=%.2f)\n",
                  run, TopologyName(cfg.topology),
                  bookstore::OptLevelName(cfg.level), cfg.save_every,
                  cfg.crashes.size(), cfg.faults.drop_p, cfg.torn_p);
    }
  }

  obs::BenchReporter reporter("chaos_campaign", kChaosSchema);
  obs::BenchVariant& campaign_v = reporter.AddVariant("campaign");
  campaign_v.SetMetric("runs", stats.runs)
      .SetMetric("seed", campaign.seed)
      .SetMetric("sessions_per_run", static_cast<uint64_t>(campaign.sessions))
      .SetMetric("violations", stats.violations)
      .SetMetric("wov_duplicate_executions", stats.wov_duplicate_executions)
      .SetMetric("sessions_total", stats.sessions_total)
      .SetMetric("crashes_fired", stats.crashes_fired)
      .SetMetric("recoveries", stats.recoveries)
      .SetMetric("net_messages_dropped", stats.net_dropped)
      .SetMetric("net_messages_duplicated", stats.net_duplicated)
      .SetMetric("torn_tails_injected", stats.torn_tails_injected)
      .SetMetric("torn_tails_salvaged", stats.torn_tails_salvaged)
      .SetMetric("salvage_wkf_fallbacks", stats.salvage_wkf_fallback)
      .SetMetric("salvage_full_scan_fallbacks", stats.salvage_full_scan)
      .SetMetric("salvage_ranges_skipped", stats.salvage_ranges_skipped)
      .SetMetric("salvage_state_record_fallbacks",
                 stats.salvage_state_fallback)
      .SetMetric("dedupe_hits", stats.dedupe_hits)
      .SetMetric("interceptor_retries", stats.retries)
      .SetMetric("max_overlap", static_cast<uint64_t>(campaign.overlap))
      .SetMetric("concurrent_runs", stats.concurrent_runs)
      .SetMetric("group_commit_runs", stats.group_commit_runs)
      .SetMetric("group_commit_flushes", stats.group_flushes)
      .SetMetric("group_commit_coalesced", stats.group_coalesced)
      .SetMetric("parallel_replay_runs", stats.parallel_replay_runs)
      .SetMetric("replay_chains", stats.replay_chains)
      .SetMetric("replay_edges", stats.replay_edges)
      .SetMetric("replay_fallbacks", stats.replay_fallbacks);
  for (int t = 0; t < 3; ++t) {
    obs::BenchVariant& v =
        reporter.AddVariant(TopologyName(static_cast<Topology>(t)));
    v.SetMetric("runs", stats.topo_runs[t])
        .SetMetric("violations", stats.topo_violations[t])
        .SetMetric("wov_duplicate_executions", stats.topo_wov[t]);
  }
  // Every violating run carries its post-mortem: the oracle failure and the
  // flight-recorder dump showing what each process did right before it.
  for (const ViolationRecord& rec : violations) {
    obs::BenchVariant& v =
        reporter.AddVariant(StrCat("violation_run", rec.run));
    v.SetMetric("run", static_cast<uint64_t>(rec.run));
    v.SetInfo("violation", rec.description);
    if (!rec.flight_file.empty()) {
      v.SetInfo("flight_recorder", rec.flight_file);
    }
  }
  auto written = reporter.WriteFile(campaign.out);
  if (!written.ok()) {
    std::fprintf(stderr, "report write failed: %s\n",
                 written.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "chaos campaign: %llu run(s), %llu violation(s), %llu WoV duplicate "
      "execution(s)\n"
      "  faults: %llu crash(es), %llu recover(ies), %llu dropped, "
      "%llu duplicated, %llu torn tail(s)\n"
      "  salvage: %llu torn-tail truncation(s), %llu wkf fallback(s), "
      "%llu full-scan fallback(s), %llu range(s) skipped, "
      "%llu state-record fallback(s)\n"
      "  masking: %llu dedupe hit(s), %llu retry(ies)\n"
      "  overlap: %llu concurrent run(s), %llu with group commit, "
      "%llu group flush(es) coalescing %llu wait(s)\n"
      "  replay: %llu parallel-replay run(s), %llu chain(s), %llu edge(s), "
      "%llu fallback(s)\n"
      "report: %s\n",
      static_cast<unsigned long long>(stats.runs),
      static_cast<unsigned long long>(stats.violations),
      static_cast<unsigned long long>(stats.wov_duplicate_executions),
      static_cast<unsigned long long>(stats.crashes_fired),
      static_cast<unsigned long long>(stats.recoveries),
      static_cast<unsigned long long>(stats.net_dropped),
      static_cast<unsigned long long>(stats.net_duplicated),
      static_cast<unsigned long long>(stats.torn_tails_injected),
      static_cast<unsigned long long>(stats.torn_tails_salvaged),
      static_cast<unsigned long long>(stats.salvage_wkf_fallback),
      static_cast<unsigned long long>(stats.salvage_full_scan),
      static_cast<unsigned long long>(stats.salvage_ranges_skipped),
      static_cast<unsigned long long>(stats.salvage_state_fallback),
      static_cast<unsigned long long>(stats.dedupe_hits),
      static_cast<unsigned long long>(stats.retries),
      static_cast<unsigned long long>(stats.concurrent_runs),
      static_cast<unsigned long long>(stats.group_commit_runs),
      static_cast<unsigned long long>(stats.group_flushes),
      static_cast<unsigned long long>(stats.group_coalesced),
      static_cast<unsigned long long>(stats.parallel_replay_runs),
      static_cast<unsigned long long>(stats.replay_chains),
      static_cast<unsigned long long>(stats.replay_edges),
      static_cast<unsigned long long>(stats.replay_fallbacks),
      written->c_str());
  return stats.violations > 0 ? 1 : 0;
}

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  std::string prefix = "--" + name + "=";
  if (!StartsWith(arg, prefix)) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Main(int argc, char** argv) {
  CampaignOptions campaign;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "runs", &value)) {
      campaign.runs = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "seed", &value)) {
      campaign.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "sessions", &value)) {
      campaign.sessions = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "overlap", &value)) {
      campaign.overlap = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "out", &value)) {
      campaign.out = value;
    } else if (arg == "--verbose") {
      campaign.verbose = true;
    } else if (arg == "--crash-during-recovery") {
      campaign.crash_during_recovery = true;
    } else if (arg == "--async-checkpoint") {
      campaign.async_checkpoint = true;
    } else if (ParseFlag(arg, "wal-shards", &value)) {
      campaign.wal_shards = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--runs=N] [--seed=S] [--sessions=N] "
                   "[--overlap=N] [--wal-shards=N] [--out=FILE] [--verbose] "
                   "[--crash-during-recovery] [--async-checkpoint]\n",
                   argv[0]);
      return 2;
    }
  }
  if (campaign.runs <= 0 || campaign.sessions <= 0 || campaign.overlap <= 0) {
    std::fprintf(stderr,
                 "--runs, --sessions and --overlap must be positive\n");
    return 2;
  }
  // The mode flags come first: they run their own campaigns on a
  // --wal-shards log. Without one, --wal-shards > 1 selects the sharded
  // campaign against a single-log twin.
  if (campaign.async_checkpoint) {
    return RunAsyncCheckpointCampaign(campaign);
  }
  if (campaign.crash_during_recovery) {
    return RunRecoveryCrashCampaign(campaign);
  }
  if (campaign.wal_shards > 1) {
    return RunShardCampaign(campaign);
  }
  return RunCampaign(campaign);
}

}  // namespace
}  // namespace phoenix::tools

int main(int argc, char** argv) { return phoenix::tools::Main(argc, argv); }
