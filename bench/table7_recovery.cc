// Table 7: recovery time vs number of method calls replayed, recovering
// from the creation record vs from a saved context state. Also derives the
// paper's engineering rule: checkpoints pay off once replay would exceed
// the ~60 ms cost of restoring a state record (~400+ calls).

#include "bench/bench_components.h"
#include "obs/bench_reporter.h"
#include "runtime/simulation.h"
#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/strings.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/recovery_service.h"
#include "recovery/replay_plan.h"
#include "wal/log_reader.h"

namespace phoenix::bench {
namespace {

// Adds the recovery-phase counters this bench is about on top of the
// standard capture.
void CaptureRecovery(obs::BenchVariant& variant, Simulation& sim,
                     double recovery_ms) {
  sim.CaptureBench(variant);
  variant.SetMetric("recovery_ms", recovery_ms);
  variant.SetMetric(
      "records_scanned",
      sim.metrics().CounterTotal("phoenix.recovery.records_scanned"));
  variant.SetMetric(
      "calls_replayed",
      sim.metrics().CounterTotal("phoenix.recovery.calls_replayed"));
}

// Recovery time (simulated ms) after `calls` calls issued *after* the
// recovery origin (creation, or a state record + published checkpoint).
double MeasureRecovery(obs::BenchVariant& variant, int calls,
                       bool from_state) {
  Simulation sim;
  RegisterBenchComponents(sim.factories());
  Machine& ma = sim.AddMachine("ma");
  Process& proc = ma.CreateProcess();
  ExternalClient client(&sim, "ma");
  auto server = client.CreateComponent(proc, "CounterServer", "server",
                                       ComponentKind::kPersistent, {});

  if (from_state) {
    Context* ctx = proc.FindContextOfComponent("server");
    proc.checkpoints().SaveContextState(*ctx);
    proc.checkpoints().TakeProcessCheckpoint();
  }
  for (int i = 0; i < calls; ++i) {
    client.Call(*server, "Add", MakeArgs(int64_t{1}));
  }
  if (from_state && calls == 0) {
    // Nothing after the checkpoint flushed it; force by hand.
    proc.log().Force();
    proc.checkpoints().MaybePublishCheckpoint();
  }

  proc.Kill();
  double t0 = sim.clock().NowMs();
  Status s = ma.recovery_service().RecoverFully(proc.pid());
  if (!s.ok()) return -1;
  double recovery_ms = sim.clock().NowMs() - t0;
  CaptureRecovery(variant, sim, recovery_ms);
  return recovery_ms;
}

// --- Instant restart: on-demand vs drain-all recovery of many contexts ---

struct InstantRestartRun {
  double first_reply_ms = -1;     // kill -> the first call's reply
  double full_recovery_ms = -1;   // kill -> no cold context left
  uint64_t chains = 0;
  uint64_t edges = 0;
  uint64_t chains_demoted = 0;
  uint64_t state_hash = 0;
};

// First LSN strictly inside a reply-bearing replay unit's extent, found by
// planning against the stable log the same way recovery does. Corrupting
// that record forces salvage while leaving every other chain's units
// intact, so the planner demotes only the touched chain.
uint64_t FindInteriorLsn(Process& proc) {
  LogView view = proc.log().StableView();
  ReplayPlanInputs inputs;
  inputs.machine = proc.machine_name();
  inputs.process_id = proc.pid();
  inputs.origins = DeriveReplayOrigins(view, proc.log().head_base());
  uint64_t scan_start = kInvalidLsn;
  for (const auto& [context_id, origin] : inputs.origins) {
    if (origin != kInvalidLsn) scan_start = std::min(scan_start, origin);
  }
  if (scan_start == kInvalidLsn) scan_start = proc.log().head_base();
  ReplayPlan plan = BuildReplayPlan(view, scan_start, inputs);
  for (const ReplayChain& chain : plan.chains) {
    for (const PlannedUnit& unit : chain.units) {
      if (unit.extent_end_lsn <= unit.replay.start_lsn) continue;
      LogReader reader(view, proc.log().head_base());
      while (auto parsed = reader.Next()) {
        if (parsed->lsn > unit.replay.start_lsn &&
            parsed->lsn < unit.extent_end_lsn) {
          return parsed->lsn;
        }
      }
    }
  }
  return kInvalidLsn;
}

// Multi-context recovery workload: `pairs` BatchCaller -> CounterServer
// pairs all hosted by ONE process (2*pairs replay chains plus the
// activator's), driven round-robin so the contexts' call chains interleave
// in the log. Each caller's in-process calls to its server put
// cross-context dependencies in the replay index. After the crash the
// servers are read newest first; `on_demand` admits that traffic right
// after the analysis pass and the plan scan (each read materializes its
// server, pulling the caller's units in as dependencies, and the callers
// left cold are drained last), otherwise every cold context is drained
// before the first read. The servers' counters are folded into an FNV-1a
// fingerprint, the state the on-demand-vs-drain-all check compares.
InstantRestartRun RunInstantRestart(obs::BenchVariant* variant, int pairs,
                                    int rounds, int calls_per_round,
                                    bool on_demand, uint64_t seed,
                                    bool corrupt_interior = false,
                                    uint32_t wal_shards = 1) {
  RuntimeOptions options;
  options.wal_shards = wal_shards;
  SimulationParams params;
  params.seed = seed;
  Simulation sim(options, params);
  RegisterBenchComponents(sim.factories());
  Machine& ma = sim.AddMachine("ma");
  Process& proc = ma.CreateProcess();
  ExternalClient admin(&sim, "ma");

  std::vector<std::string> callers, servers;
  for (int i = 0; i < pairs; ++i) {
    auto server =
        admin.CreateComponent(proc, "CounterServer", StrCat("psrv", i),
                              ComponentKind::kPersistent, {});
    PHX_CHECK(server.ok());
    auto caller = admin.CreateComponent(
        proc, "BatchCaller", StrCat("pcaller", i), ComponentKind::kPersistent,
        MakeArgs(*server, "Add"));
    PHX_CHECK(caller.ok());
    servers.push_back(*server);
    callers.push_back(*caller);
  }
  Random workload(seed * 2957 + 11);
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < pairs; ++i) {
      int64_t n = 1 + static_cast<int64_t>(
                          workload.Uniform(
                              static_cast<uint64_t>(calls_per_round)));
      ExternalClient driver(&sim, "ma");
      PHX_CHECK(driver.Call(callers[i], "RunBatch", MakeArgs(n)).ok());
    }
  }

  proc.Kill();
  if (corrupt_interior) {
    // Bit-rot one record inside a reply-bearing unit's extent: the log is
    // salvaged, and only the touched chain is demoted.
    uint64_t interior = FindInteriorLsn(proc);
    PHX_CHECK(interior != kInvalidLsn);
    // +8 lands in the payload, past the length/CRC header.
    sim.storage().CorruptLog(proc.log_name(), interior + 8, /*flip_count=*/2);
  }
  double t0 = sim.clock().NowMs();
  PHX_CHECK(ma.recovery_service().EnsureProcessAlive(proc.pid()).ok());
  double admitted_ms = sim.clock().NowMs() - t0;
  if (!on_demand) PHX_CHECK(proc.DrainColdContexts().ok());

  InstantRestartRun run;
  std::vector<int64_t> values(servers.size());
  ExternalClient probe(&sim, "ma");
  for (size_t i = servers.size(); i-- > 0;) {
    auto v = probe.Call(servers[i], "Get", {});
    PHX_CHECK(v.ok());
    values[i] = v->AsInt();
    if (run.first_reply_ms < 0) run.first_reply_ms = sim.clock().NowMs() - t0;
  }
  PHX_CHECK(proc.DrainColdContexts().ok());  // callers no read reached
  // Admission, then admission -> the last cold context materialized.
  run.full_recovery_ms =
      admitted_ms +
      sim.metrics().MergedHistogram("phoenix.recovery.full_recovery_ms").max();
  run.chains = sim.metrics().CounterTotal("phoenix.recovery.replay.chains");
  run.edges = sim.metrics().CounterTotal("phoenix.recovery.replay.edges");
  run.chains_demoted =
      sim.metrics().CounterTotal("phoenix.recovery.replay.chains_demoted");

  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (int64_t value : values) {
    auto x = static_cast<uint64_t>(value);
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((x >> (8 * b)) & 0xff)) * 1099511628211ull;
    }
  }
  run.state_hash = h;

  if (variant != nullptr) {
    CaptureRecovery(*variant, sim, run.full_recovery_ms);
    variant->SetMetric("pairs", static_cast<uint64_t>(pairs));
    variant->SetMetric("first_reply_ms", run.first_reply_ms);
    variant->SetMetric("full_recovery_ms", run.full_recovery_ms);
    variant->SetMetric("replay_chains", run.chains);
    variant->SetMetric("replay_edges", run.edges);
    variant->SetMetric(
        "contexts_materialized",
        sim.metrics().CounterTotal("phoenix.recovery.contexts_materialized"));
    variant->SetInfo("state_hash", StrCat(run.state_hash));
  }
  return run;
}

double MeasureEmptyLog(obs::BenchVariant& variant) {
  Simulation sim;
  RegisterBenchComponents(sim.factories());
  Machine& ma = sim.AddMachine("ma");
  Process& proc = ma.CreateProcess();
  proc.Kill();
  double t0 = sim.clock().NowMs();
  PHX_CHECK(ma.recovery_service().RecoverFully(proc.pid()).ok());
  double recovery_ms = sim.clock().NowMs() - t0;
  CaptureRecovery(variant, sim, recovery_ms);
  return recovery_ms;
}

void Run() {
  obs::BenchReporter reporter("table7_recovery");
  std::vector<PaperRow> rows;
  rows.push_back(
      {"Empty log", 492, MeasureEmptyLog(reporter.AddVariant("empty_log"))});
  PrintTable("Table 7 (part 1): base recovery cost (ms)", "(ms)", rows);

  const double paper_creation[] = {575, 728, 868, 1007, 1100, 1199};
  const double paper_state[] = {638, 794, 875, 1162, 1252, 1507};
  std::vector<SeriesPoint> creation_series, state_series;
  for (int i = 0; i <= 5; ++i) {
    int calls = i * 1000;
    creation_series.push_back(
        SeriesPoint{static_cast<double>(calls), paper_creation[i],
                    MeasureRecovery(
                        reporter.AddVariant(StrCat("creation_", calls,
                                                   "_calls")),
                        calls, /*from_state=*/false)});
    state_series.push_back(
        SeriesPoint{static_cast<double>(calls), paper_state[i],
                    MeasureRecovery(
                        reporter.AddVariant(StrCat("state_", calls, "_calls")),
                        calls, true)});
  }
  PrintSeries("Table 7 (part 2): recovery from creation, vs #calls replayed",
              "#calls", "(ms)", creation_series);
  PrintSeries("Table 7 (part 3): recovery from state record, vs #calls "
              "replayed",
              "#calls", "(ms)", state_series);

  // Crossover: a state record helps once it skips more replay than its
  // restore cost. The paper estimates ~60 ms of restore == ~400 calls.
  double restore_extra =
      state_series[0].measured - creation_series[0].measured;
  double per_call = (creation_series[5].measured -
                     creation_series[0].measured) /
                    5000.0;
  std::printf(
      "\nDerived: restoring a state record costs %.0f ms extra; replaying a\n"
      "call costs %.3f ms; so context states should be saved every ~%.0f\n"
      "calls or more (the paper concludes ~400).\n",
      restore_extra, per_call, restore_extra / per_call);

  // Instant restart: the same multi-context log recovered on demand (calls
  // admitted after the analysis pass and the plan scan) and drained before
  // the first call. On demand the first reply waits for one server's chain
  // and its dependencies only; the full recovery costs the same either way,
  // and the recovered state fingerprints must match.
  constexpr int kPairs = 8, kRounds = 10, kCallsPerRound = 40;
  constexpr uint64_t kRestartSeed = 424243;
  InstantRestartRun drained = RunInstantRestart(
      &reporter.AddVariant("instant_drain_all"), kPairs, kRounds,
      kCallsPerRound, /*on_demand=*/false, kRestartSeed);
  obs::BenchVariant& od = reporter.AddVariant("instant_on_demand");
  InstantRestartRun lazy = RunInstantRestart(
      &od, kPairs, kRounds, kCallsPerRound, /*on_demand=*/true, kRestartSeed);
  uint64_t pinned_divergences = lazy.state_hash == drained.state_hash ? 0 : 1;
  od.SetMetric("state_matches_drain_all",
               pinned_divergences == 0 ? int64_t{1} : int64_t{0});
  od.SetMetric("first_reply_speedup",
               drained.first_reply_ms / lazy.first_reply_ms);
  std::printf(
      "\nTable 7 (part 4): instant restart, %d caller/server pairs\n"
      "%12s %16s %18s %12s\n"
      "%12s %16.1f %18.1f %12s\n"
      "%12s %16.1f %18.1f %12s\n",
      kPairs, "order", "first_reply_ms", "full_recovery_ms", "state_match",
      "drain-all", drained.first_reply_ms, drained.full_recovery_ms, "-",
      "on-demand", lazy.first_reply_ms, lazy.full_recovery_ms,
      pinned_divergences == 0 ? "yes" : "DIVERGED");

  // Salvaged-log recovery: the same workload with one bit-rotted record
  // inside a replay unit. The index demotes only the touched chain, whose
  // units then replay in log order as dependencies of each other; the end
  // state must match a drain-all recovery of the identical damaged log.
  InstantRestartRun salv_drained = RunInstantRestart(
      &reporter.AddVariant("salvaged_drain_all"), kPairs, kRounds,
      kCallsPerRound, /*on_demand=*/false, kRestartSeed,
      /*corrupt_interior=*/true);
  obs::BenchVariant& sv = reporter.AddVariant("salvaged_on_demand");
  InstantRestartRun salv = RunInstantRestart(
      &sv, kPairs, kRounds, kCallsPerRound, /*on_demand=*/true, kRestartSeed,
      /*corrupt_interior=*/true);
  bool salv_match = salv.state_hash == salv_drained.state_hash;
  sv.SetMetric("replay_chains_demoted", salv.chains_demoted);
  sv.SetMetric("state_matches_drain_all",
               salv_match ? int64_t{1} : int64_t{0});
  std::printf(
      "\nTable 7 (part 5): salvaged-log recovery, one bit-rotted record\n"
      "  drain-all first reply %.1f ms; on-demand %.1f ms (%llu chain(s)\n"
      "  demoted, state %s drain-all)\n",
      salv_drained.first_reply_ms, salv.first_reply_ms,
      static_cast<unsigned long long>(salv.chains_demoted),
      salv_match ? "matches" : "DIVERGED from");
  PHX_CHECK(salv.chains_demoted >= 1);

  // Sharded-WAL recovery: the identical workload and seed logged across
  // 2/4/8 shard logs, recovered through the gsn-ordered k-way merge (both
  // drained and on demand). The recovered-state fingerprint must equal the
  // single-log drain-all recovery's at every shard count — the merge IS the
  // single log's order.
  std::printf(
      "\nTable 7 (part 6): sharded-WAL recovery, %d caller/server pairs "
      "(single-log full recovery %.1f ms)\n"
      "%10s %18s %18s %14s\n",
      kPairs, drained.full_recovery_ms, "shards", "drain-all full_ms",
      "on-demand first_ms", "state_match");
  uint64_t shard_divergences = 0;
  for (uint32_t shards : {2u, 4u, 8u}) {
    obs::BenchVariant& vs =
        reporter.AddVariant(StrCat("sharded", shards, "_drain_all"));
    InstantRestartRun shard_drained = RunInstantRestart(
        &vs, kPairs, kRounds, kCallsPerRound, /*on_demand=*/false,
        kRestartSeed, /*corrupt_interior=*/false, shards);
    obs::BenchVariant& vp =
        reporter.AddVariant(StrCat("sharded", shards, "_on_demand"));
    InstantRestartRun shard_lazy = RunInstantRestart(
        &vp, kPairs, kRounds, kCallsPerRound, /*on_demand=*/true,
        kRestartSeed, /*corrupt_interior=*/false, shards);
    bool match = shard_drained.state_hash == drained.state_hash &&
                 shard_lazy.state_hash == drained.state_hash;
    if (!match) ++shard_divergences;
    vs.SetMetric("wal_shards", static_cast<uint64_t>(shards));
    vp.SetMetric("wal_shards", static_cast<uint64_t>(shards));
    vs.SetMetric("state_matches_single_log",
                 shard_drained.state_hash == drained.state_hash ? int64_t{1}
                                                                : int64_t{0});
    vp.SetMetric("state_matches_single_log",
                 shard_lazy.state_hash == drained.state_hash ? int64_t{1}
                                                             : int64_t{0});
    std::printf("%10u %18.1f %18.1f %14s\n", shards,
                shard_drained.full_recovery_ms, shard_lazy.first_reply_ms,
                match ? "yes" : "DIVERGED");
  }
  PHX_CHECK(shard_divergences == 0);

  // Seeded divergence sweep: randomized workload shapes, each recovered
  // on demand and drained; the recovered-state fingerprints must agree run
  // by run.
  constexpr int kSweepRuns = 100;
  uint64_t sweep_divergences = 0;
  for (int run = 0; run < kSweepRuns; ++run) {
    uint64_t seed = 777000 + static_cast<uint64_t>(run);
    Random shape(seed);
    int pairs = 2 + static_cast<int>(shape.Uniform(7));
    int rounds = 1 + static_cast<int>(shape.Uniform(5));
    int cpr = 1 + static_cast<int>(shape.Uniform(8));
    InstantRestartRun d =
        RunInstantRestart(nullptr, pairs, rounds, cpr, false, seed);
    InstantRestartRun o =
        RunInstantRestart(nullptr, pairs, rounds, cpr, true, seed);
    if (d.state_hash != o.state_hash) ++sweep_divergences;
  }
  obs::BenchVariant& sweep = reporter.AddVariant("lazy_hash_sweep");
  sweep.SetMetric("runs", static_cast<uint64_t>(kSweepRuns));
  sweep.SetMetric("pinned_divergences", pinned_divergences);
  sweep.SetMetric("divergences", sweep_divergences);
  std::printf(
      "\nDivergence sweep: %d randomized workloads recovered on demand\n"
      "and drained: %llu state divergence(s).\n",
      kSweepRuns, static_cast<unsigned long long>(sweep_divergences));

  obs::AnnounceReport(reporter);
}

}  // namespace
}  // namespace phoenix::bench

int main(int argc, char** argv) {
  phoenix::obs::InitBenchMain(argc, argv);
  phoenix::bench::Run();
  return 0;
}
