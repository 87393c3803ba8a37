// Table 6: runtime overhead of saving context state on every call, with the
// disk write cache disabled (media-rate forces) and enabled (controller
// acks). Saving state adds ~1 ms of software cost per call either way.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_components.h"
#include "common/macros.h"
#include "common/strings.h"
#include "obs/bench_reporter.h"
#include "obs/profile.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/recovery_service.h"
#include "runtime/simulation.h"
#include "bench/bench_util.h"

namespace phoenix::bench {
namespace {

double Measure(obs::BenchVariant& variant, bool save_state_on_call,
               bool write_cache) {
  RuntimeOptions opts;
  opts.logging_mode = LoggingMode::kOptimized;
  opts.use_specialized_kinds = false;
  opts.save_context_state_every = save_state_on_call ? 1 : 0;

  SimulationParams params;
  params.disk.write_cache_enabled = write_cache;

  Simulation sim(opts, params);
  RegisterBenchComponents(sim.factories());
  Machine& ma = sim.AddMachine("ma");
  Machine& mb = sim.AddMachine("mb");
  Process& server_proc = ma.CreateProcess();
  Process& client_proc = mb.CreateProcess();

  ExternalClient admin(&sim, "mb");
  auto server = admin.CreateComponent(server_proc, "CounterServer", "server",
                                      ComponentKind::kPersistent, {});
  auto caller = admin.CreateComponent(client_proc, "BatchCaller", "caller",
                                      ComponentKind::kPersistent,
                                      MakeArgs(*server, "Add"));
  admin.Call(*caller, "RunBatch", MakeArgs(int64_t{32}));  // warm-up
  const int kBatch = 400;
  double t0 = sim.clock().NowMs();
  admin.Call(*caller, "RunBatch", MakeArgs(int64_t{kBatch}));
  double per_call = (sim.clock().NowMs() - t0) / kBatch;
  sim.CaptureBench(variant);
  variant.SetMetric("per_call_ms", per_call);
  return per_call;
}

// --- Table 6c: asynchronous checkpointing ---------------------------------
//
// The same capture cadence, paid inline on the calling chain vs swept by the
// dedicated background checkpoint session (RuntimeOptions.async_checkpoint).
// Trace-profile attribution splits the "checkpoint" phase by chain: inline
// capture lands inside the foreground call chains, async capture lands on
// the background session (unchained in the profile), so the foreground
// checkpoint bucket goes to ~0 with async on.

struct AsyncResult {
  double per_call_ms = 0;
  double foreground_checkpoint_ms = 0;  // "checkpoint" self time in chains
  double background_checkpoint_ms = 0;  // unchained (background session)
  uint64_t state_saves = 0;
  uint64_t sweeps = 0;
  uint64_t publishes = 0;
  double publish_lag_mean_ms = 0;
};

constexpr int kAsyncSessions = 4;
constexpr int kAsyncCallsPerSession = 100;
constexpr uint32_t kAsyncCadence = 16;

AsyncResult MeasureAsync(obs::BenchVariant& variant, bool async) {
  RuntimeOptions opts;
  opts.logging_mode = LoggingMode::kOptimized;
  opts.use_specialized_kinds = false;
  // The background session interleaves at durability park points, so both
  // arms run under group commit for a like-for-like comparison.
  opts.group_commit = true;
  if (async) {
    opts.async_checkpoint = true;
    opts.async_checkpoint_interval = kAsyncCadence;
  } else {
    opts.save_context_state_every = kAsyncCadence;
    opts.process_checkpoint_every = kAsyncCadence;
  }

  SimulationParams params;
  params.trace_enabled = true;  // profile attribution needs spans

  Simulation sim(opts, params);
  RegisterBenchComponents(sim.factories());
  Machine& ma = sim.AddMachine("ma");
  Machine& mb = sim.AddMachine("mb");
  Process& server_proc = ma.CreateProcess();
  Process& client_proc = mb.CreateProcess();

  ExternalClient admin(&sim, "mb");
  std::vector<std::string> callers;
  for (int s = 0; s < kAsyncSessions; ++s) {
    auto server =
        admin.CreateComponent(server_proc, "CounterServer", StrCat("srv", s),
                              ComponentKind::kPersistent, {});
    PHX_CHECK(server.ok());
    auto caller = admin.CreateComponent(
        client_proc, "BatchCaller", StrCat("caller", s),
        ComponentKind::kPersistent, MakeArgs(*server, "Add"));
    PHX_CHECK(caller.ok());
    callers.push_back(*caller);
  }
  for (const std::string& caller : callers) {
    ExternalClient warm(&sim, "mb");
    PHX_CHECK(warm.Call(caller, "RunBatch", MakeArgs(int64_t{2})).ok());
  }

  double t0 = sim.clock().NowMs();
  std::vector<std::function<void()>> bodies;
  for (int s = 0; s < kAsyncSessions; ++s) {
    bodies.push_back([&sim, caller = callers[s]] {
      ExternalClient driver(&sim, "mb");
      PHX_CHECK(driver
                    .Call(caller, "RunBatch",
                          MakeArgs(int64_t{kAsyncCallsPerSession}))
                    .ok());
    });
  }
  sim.RunSessions(std::move(bodies));

  AsyncResult result;
  double calls = static_cast<double>(kAsyncSessions) * kAsyncCallsPerSession;
  result.per_call_ms = (sim.clock().NowMs() - t0) / calls;

  obs::ProfileReport profile = obs::BuildProfile(sim.tracer().events());
  auto chained = profile.total_phase_ms.find("checkpoint");
  if (chained != profile.total_phase_ms.end()) {
    result.foreground_checkpoint_ms = chained->second;
  }
  auto unchained = profile.unchained_phase_ms.find("checkpoint");
  if (unchained != profile.unchained_phase_ms.end()) {
    result.background_checkpoint_ms = unchained->second;
  }

  result.state_saves =
      sim.metrics().CounterTotal("phoenix.checkpoint.state_saves");
  result.sweeps = sim.metrics().CounterTotal("phoenix.checkpoint.async.sweeps");
  result.publishes =
      sim.metrics().CounterTotal("phoenix.checkpoint.async.publishes");
  obs::LatencySummary lag = obs::Summarize(
      sim.metrics().MergedHistogram("phoenix.checkpoint.async.lag_ms"));
  result.publish_lag_mean_ms = lag.mean;

  sim.CaptureBench(variant);
  variant.SetMetric("per_call_ms", result.per_call_ms);
  variant.SetMetric("foreground_checkpoint_ms", result.foreground_checkpoint_ms);
  variant.SetMetric("foreground_checkpoint_ms_per_call",
                    result.foreground_checkpoint_ms / calls);
  variant.SetMetric("background_checkpoint_ms", result.background_checkpoint_ms);
  variant.SetMetric("state_saves", result.state_saves);
  variant.SetMetric("async_sweeps", result.sweeps);
  variant.SetMetric("async_publishes", result.publishes);
  variant.SetMetric("async_publish_lag_mean_ms", result.publish_lag_mean_ms);
  variant.SetMetric("publish_skips",
                    sim.metrics().CounterTotal("phoenix.checkpoint.publish_skips"));
  return result;
}

// Recovery-equivalence sweep: the same seeded workload captured async vs
// inline, crashed after the run and recovered — the recovered server state
// must match exactly, every seed.
uint64_t AsyncRecoveryEquivalenceSweep(obs::BenchVariant& variant, int seeds) {
  auto run = [](uint64_t seed, bool async) -> std::vector<int64_t> {
    RuntimeOptions opts;
    opts.logging_mode = LoggingMode::kOptimized;
    opts.use_specialized_kinds = false;
    opts.group_commit = true;
    if (async) {
      opts.async_checkpoint = true;
      opts.async_checkpoint_interval = 8;
    } else {
      opts.save_context_state_every = 8;
      opts.process_checkpoint_every = 8;
    }
    SimulationParams params;
    params.seed = seed;
    Simulation sim(opts, params);
    RegisterBenchComponents(sim.factories());
    Machine& ma = sim.AddMachine("ma");
    Machine& mb = sim.AddMachine("mb");
    Process& server_proc = ma.CreateProcess();
    Process& client_proc = mb.CreateProcess();
    ExternalClient admin(&sim, "mb");
    std::vector<std::string> servers;
    std::vector<std::string> callers;
    for (int s = 0; s < 3; ++s) {
      auto server =
          admin.CreateComponent(server_proc, "CounterServer", StrCat("srv", s),
                                ComponentKind::kPersistent, {});
      PHX_CHECK(server.ok());
      servers.push_back(*server);
      auto caller = admin.CreateComponent(
          client_proc, "BatchCaller", StrCat("caller", s),
          ComponentKind::kPersistent, MakeArgs(*server, "Add"));
      PHX_CHECK(caller.ok());
      callers.push_back(*caller);
    }
    std::vector<std::function<void()>> bodies;
    for (const std::string& caller : callers) {
      bodies.push_back([&sim, caller] {
        ExternalClient driver(&sim, "mb");
        PHX_CHECK(driver.Call(caller, "RunBatch", MakeArgs(int64_t{12})).ok());
      });
    }
    sim.RunSessions(std::move(bodies));
    server_proc.Kill();
    PHX_CHECK(ma.recovery_service().RecoverFully(1).ok());
    std::vector<int64_t> values;
    ExternalClient probe(&sim, "ma");
    for (const std::string& server : servers) {
      auto got = probe.Call(server, "Get", {});
      PHX_CHECK(got.ok());
      values.push_back(got->AsInt());
    }
    return values;
  };

  uint64_t divergences = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    if (run(seed, /*async=*/true) != run(seed, /*async=*/false)) {
      ++divergences;
      std::printf("  seed %d: async recovery state diverged from inline!\n",
                  seed);
    }
  }
  variant.SetMetric("seeds", static_cast<uint64_t>(seeds));
  variant.SetMetric("divergences", divergences);
  return divergences;
}

void Run() {
  obs::BenchReporter reporter("table6_checkpointing");
  std::vector<PaperRow> disabled;
  disabled.push_back({"Persistent -> Persistent (remote)", 10.8,
                      Measure(reporter.AddVariant("no_save_cache_disabled"),
                              /*save=*/false, /*cache=*/false)});
  disabled.push_back({"Persistent -> Persistent, save state on call", 11.8,
                      Measure(reporter.AddVariant("save_state_cache_disabled"),
                              /*save=*/true, /*cache=*/false)});
  PrintTable("Table 6a: checkpointing overhead, write cache DISABLED "
             "(ms per call)",
             "(ms)", disabled);

  std::vector<PaperRow> enabled;
  enabled.push_back({"Persistent -> Persistent (remote)", 2.62,
                     Measure(reporter.AddVariant("no_save_cache_enabled"),
                             /*save=*/false, /*cache=*/true)});
  enabled.push_back({"Persistent -> Persistent, save state on call", 3.82,
                     Measure(reporter.AddVariant("save_state_cache_enabled"),
                             /*save=*/true, /*cache=*/true)});
  PrintTable("Table 6b: checkpointing overhead, write cache ENABLED "
             "(ms per call)",
             "(ms)", enabled);

  std::printf(
      "\nShape checks: saving the (small) context state after every call\n"
      "adds ~1 ms regardless of the cache setting — modest next to the\n"
      "disk media cost, visible next to the cached-write cost.\n");

  // Table 6c: the same cadence captured inline vs by the background
  // checkpoint session.
  AsyncResult inline_r = MeasureAsync(reporter.AddVariant("inline_cadence_s4"),
                                      /*async=*/false);
  AsyncResult async_r = MeasureAsync(reporter.AddVariant("async_sweep_s4"),
                                     /*async=*/true);
  double calls = static_cast<double>(kAsyncSessions) * kAsyncCallsPerSession;
  std::printf(
      "\nTable 6c: async checkpointing, %d sessions x %d calls, cadence %u\n"
      "%16s %12s %18s %18s %8s %10s\n",
      kAsyncSessions, kAsyncCallsPerSession, kAsyncCadence, "variant",
      "ms/call", "fg checkpoint ms", "bg checkpoint ms", "sweeps",
      "publishes");
  std::printf("%16s %12.3f %18.3f %18.3f %8llu %10llu\n", "inline",
              inline_r.per_call_ms, inline_r.foreground_checkpoint_ms,
              inline_r.background_checkpoint_ms,
              static_cast<unsigned long long>(inline_r.sweeps),
              static_cast<unsigned long long>(inline_r.publishes));
  std::printf("%16s %12.3f %18.3f %18.3f %8llu %10llu\n", "async",
              async_r.per_call_ms, async_r.foreground_checkpoint_ms,
              async_r.background_checkpoint_ms,
              static_cast<unsigned long long>(async_r.sweeps),
              static_cast<unsigned long long>(async_r.publishes));
  std::printf(
      "\nShape checks: inline capture charges the checkpoint phase to the\n"
      "foreground call chains (fg > 0, bg = 0); the async sweep moves it to\n"
      "the background session (fg ~ 0, bg > 0) — %.3f ms/call of foreground\n"
      "checkpoint work went to ~%.3f.\n",
      inline_r.foreground_checkpoint_ms / calls,
      async_r.foreground_checkpoint_ms / calls);

  // Async-vs-inline recovery equivalence across seeds.
  uint64_t divergences = AsyncRecoveryEquivalenceSweep(
      reporter.AddVariant("async_recovery_equivalence"), 100);
  std::printf(
      "\nRecovery equivalence: 100 seeded async runs crashed + recovered\n"
      "against inline twins; %llu divergence(s).\n",
      static_cast<unsigned long long>(divergences));

  obs::AnnounceReport(reporter);
}

}  // namespace
}  // namespace phoenix::bench

int main(int argc, char** argv) {
  phoenix::obs::InitBenchMain(argc, argv);
  phoenix::bench::Run();
  return 0;
}
