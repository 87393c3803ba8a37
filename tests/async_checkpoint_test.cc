// Asynchronous checkpointing (RuntimeOptions.async_checkpoint): a dedicated
// background session per process performs the §4.2 state sweeps and §4.3
// process checkpoints off the foreground chains. These tests pin the crash
// interleavings the async path exposes: crashes inside a background sweep,
// a crash between the end-record append and the publish, recovery landing
// on the older published checkpoint, and end-state equivalence with the
// inline cadence on the same seed. The last groups drive sweeps directly to
// pin the bracket amortization rule — a sweep brackets only when the log has
// grown by the last bracket's size since that bracket's end — and the save
// rule: a sweep saves a context only once replaying its calls since the last
// save would cost recovery at least as much as restoring a state record.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/recovery_service.h"
#include "tests/test_components.h"
#include "wal/log_reader.h"

namespace phoenix {
namespace {

using phoenix::testing::ExecutionLog;
using phoenix::testing::RegisterTestComponents;

constexpr int kSessions = 3;
constexpr int kCallsPerSession = 16;

RuntimeOptions AsyncOptions(uint32_t interval = 10) {
  RuntimeOptions opts;
  opts.async_checkpoint = true;
  opts.async_checkpoint_interval = interval;
  // The background session interleaves at durability park points, so async
  // checkpointing runs under group commit (see DESIGN.md §9).
  opts.group_commit = true;
  return opts;
}

// A cost model under which a context's save is due once it has `calls`
// calls since its last save: restoring its state record costs exactly that
// many replayed calls. SaveDueAfter(1) saves every dirty context.
SimulationParams SaveDueAfter(uint64_t calls) {
  SimulationParams params;
  params.costs.recovery_restore_state_ms =
      static_cast<double>(calls) * params.costs.recovery_replay_call_ms;
  return params;
}

// Builds the standard two-machine topology: persistent Chain callers on the
// client process forward every Bump to a Counter on the server process, so
// crashes at the server exercise exactly-once through persistent callers
// (an external driver would legitimately observe duplicates).
struct Topology {
  Machine* server_machine = nullptr;
  Machine* client_machine = nullptr;
  Process* server = nullptr;
  Process* client = nullptr;
  std::vector<std::string> chains;
  std::vector<std::string> counters;
};

Topology Deploy(Simulation& sim, int sessions) {
  Topology topo;
  topo.server_machine = &sim.AddMachine("server");
  topo.client_machine = &sim.AddMachine("client");
  topo.server = &topo.server_machine->CreateProcess();
  topo.client = &topo.client_machine->CreateProcess();
  ExternalClient admin(&sim, "client");
  for (int s = 0; s < sessions; ++s) {
    auto counter = admin.CreateComponent(*topo.server, "Counter",
                                         StrCat("counter", s),
                                         ComponentKind::kPersistent, {});
    EXPECT_TRUE(counter.ok());
    auto chain = admin.CreateComponent(*topo.client, "Chain",
                                       StrCat("chain", s),
                                       ComponentKind::kPersistent,
                                       MakeArgs(*counter, "Add"));
    EXPECT_TRUE(chain.ok());
    topo.chains.push_back(*chain);
    topo.counters.push_back(*counter);
  }
  return topo;
}

// One session per chain, each driving kCallsPerSession Bump(1) calls.
void RunWorkload(Simulation& sim, const Topology& topo) {
  std::vector<std::function<void()>> bodies;
  for (const std::string& chain : topo.chains) {
    bodies.push_back([&sim, chain] {
      ExternalClient driver(&sim, "client");
      for (int i = 0; i < kCallsPerSession; ++i) {
        Result<Value> r = driver.Call(chain, "Bump", MakeArgs(1));
        EXPECT_TRUE(r.ok()) << chain << ": " << r.status().ToString();
      }
    });
  }
  sim.RunSessions(std::move(bodies));
}

int64_t CounterValue(Simulation& sim, const Topology& topo, int s) {
  ExternalClient probe(&sim, "server");
  auto value = probe.Call(topo.counters[s], "Get", {});
  EXPECT_TRUE(value.ok());
  return value.ok() ? value->AsInt() : -1;
}

TEST(AsyncCheckpointTest, SweepsCaptureAndPublishOffTheForegroundChain) {
  // Each counter sees only kCallsPerSession calls, far below the default
  // cost model's save threshold, so this cost model makes every dirty
  // context due.
  Simulation sim(AsyncOptions(), SaveDueAfter(1));
  RegisterTestComponents(sim.factories());
  Topology topo = Deploy(sim, kSessions);
  RunWorkload(sim, topo);

  // The background session swept and published while the workload ran.
  CheckpointManager& cp = topo.server->checkpoints();
  EXPECT_GE(cp.async_sweeps(), 1u);
  EXPECT_GE(cp.state_saves(), 1u);
  EXPECT_GE(cp.checkpoints_taken(), 1u);
  EXPECT_GE(cp.checkpoints_published(), 1u);
  EXPECT_TRUE(topo.server->log().ReadWellKnownLsn().ok());
  // The sweep's bracket force is attributed to the background chain's own
  // force point, never to a foreground interceptor site.
  EXPECT_GE(sim.metrics().CounterTotal("phoenix.checkpoint.async.sweeps"), 2u);
  EXPECT_GE(sim.metrics().CounterTotal("phoenix.checkpoint.async.publishes"),
            1u);

  for (int s = 0; s < kSessions; ++s) {
    EXPECT_EQ(CounterValue(sim, topo, s), kCallsPerSession) << "counter " << s;
  }

  // Recovery from the async-published checkpoint lands on the same state.
  topo.server->Kill();
  ASSERT_TRUE(
      topo.server_machine->recovery_service().EnsureProcessAlive(1).ok());
  for (int s = 0; s < kSessions; ++s) {
    EXPECT_EQ(CounterValue(sim, topo, s), kCallsPerSession) << "counter " << s;
  }
}

TEST(AsyncCheckpointTest, CrashMidSweepIsHarmless) {
  Simulation sim(AsyncOptions(6));
  RegisterTestComponents(sim.factories());
  Topology topo = Deploy(sim, kSessions);
  // Both crash points inside the background sweep: one during a context
  // state save, one inside the checkpoint bracket. The inline cadence is
  // inactive (async mode), so only the background session can trip these.
  sim.injector().AddTrigger("server", topo.server->pid(),
                            FailurePoint::kDuringStateSave, 1);
  sim.injector().AddTrigger("server", topo.server->pid(),
                            FailurePoint::kDuringCheckpoint, 1);
  RunWorkload(sim, topo);

  EXPECT_GE(topo.server->crash_count(), 1u);
  for (int s = 0; s < kSessions; ++s) {
    EXPECT_EQ(CounterValue(sim, topo, s), kCallsPerSession) << "counter " << s;
  }
  // And a final crash + recovery still lands on the exact state.
  topo.server->Kill();
  ASSERT_TRUE(
      topo.server_machine->recovery_service().EnsureProcessAlive(1).ok());
  for (int s = 0; s < kSessions; ++s) {
    EXPECT_EQ(CounterValue(sim, topo, s), kCallsPerSession) << "counter " << s;
  }
}

TEST(AsyncCheckpointTest, CrashBetweenEndAppendAndPublishLandsOnOlderCheckpoint) {
  // Publish ordering under the async split: a bracket whose end record was
  // appended but never became durable must be invisible after a crash —
  // recovery lands on the older *published* checkpoint.
  Simulation sim;  // inline driver calls; no sessions needed for this one
  RegisterTestComponents(sim.factories());
  Machine& alpha = sim.AddMachine("alpha");
  Process& server = alpha.CreateProcess();
  ExternalClient client(&sim, "alpha");
  auto uri = client.CreateComponent(server, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  ASSERT_TRUE(uri.ok());

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  }
  Context* ctx = server.FindContextOfComponent("c");
  ASSERT_TRUE(server.checkpoints().SaveContextState(*ctx).ok());
  Result<uint64_t> first = server.checkpoints().TakeProcessCheckpoint();
  ASSERT_TRUE(first.ok());
  // This call's force publishes the first checkpoint.
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  Result<uint64_t> published = server.log().ReadWellKnownLsn();
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(*published, *first);

  // Second checkpoint: end record appended, sitting in the buffer — the
  // crash eats it before any force, so the publish gate never opens.
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  Result<uint64_t> second = server.checkpoints().TakeProcessCheckpoint();
  ASSERT_TRUE(second.ok());
  server.Kill();
  ASSERT_TRUE(alpha.recovery_service().EnsureProcessAlive(1).ok());

  Result<uint64_t> after = server.log().ReadWellKnownLsn();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *first);  // still the older published checkpoint
  EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), 6);
}

TEST(AsyncCheckpointTest, AsyncEndStateEqualsInlineOnSameSeed) {
  // The same seeded workload, captured asynchronously vs inline: final
  // component state — including after a crash + recovery — must match.
  auto run = [&](bool async) -> std::vector<int64_t> {
    RuntimeOptions opts = AsyncOptions(8);
    if (!async) {
      opts.async_checkpoint = false;
      opts.save_context_state_every = 8;
      opts.process_checkpoint_every = 8;
    }
    Simulation sim(opts);
    RegisterTestComponents(sim.factories());
    Topology topo = Deploy(sim, kSessions);
    RunWorkload(sim, topo);
    topo.server->Kill();
    EXPECT_TRUE(
        topo.server_machine->recovery_service().EnsureProcessAlive(1).ok());
    std::vector<int64_t> values;
    for (int s = 0; s < kSessions; ++s) {
      values.push_back(CounterValue(sim, topo, s));
    }
    return values;
  };
  std::vector<int64_t> with_async = run(true);
  std::vector<int64_t> inline_cadence = run(false);
  EXPECT_EQ(with_async, inline_cadence);
  for (int64_t v : with_async) EXPECT_EQ(v, kCallsPerSession);
}

TEST(AsyncCheckpointTest, PublishIsIdempotentPerCheckpoint) {
  // Satellite: MaybePublishCheckpoint is invoked from every force site; the
  // publish-once latch makes repeats no-ops and counts them.
  Simulation sim;
  RegisterTestComponents(sim.factories());
  Machine& alpha = sim.AddMachine("alpha");
  Process& server = alpha.CreateProcess();
  ExternalClient client(&sim, "alpha");
  auto uri = client.CreateComponent(server, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  ASSERT_TRUE(uri.ok());
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  ASSERT_TRUE(server.checkpoints().TakeProcessCheckpoint().ok());
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());  // publishes
  ASSERT_EQ(server.checkpoints().checkpoints_published(), 1u);
  Result<uint64_t> published = server.log().ReadWellKnownLsn();
  ASSERT_TRUE(published.ok());

  uint64_t skips_before = server.checkpoints().publish_skips();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  }
  // Repeat force sites hit the latch: counted, nothing re-published.
  EXPECT_GT(server.checkpoints().publish_skips(), skips_before);
  EXPECT_EQ(server.checkpoints().checkpoints_published(), 1u);
  EXPECT_EQ(*server.log().ReadWellKnownLsn(), *published);
  EXPECT_EQ(sim.metrics().CounterTotal("phoenix.checkpoint.publish_skips"),
            server.checkpoints().publish_skips());
}

TEST(AsyncCheckpointTest, GcPinsCheckpointCapturedReferences) {
  // Satellite: once capture and publish are decoupled, the live context
  // tables can move past the LSNs a checkpoint's entries reference. GC must
  // pin the captured refs — published *and* pending — or auto-truncation
  // trims records recovery still needs.
  Simulation sim;
  RegisterTestComponents(sim.factories());
  Machine& alpha = sim.AddMachine("alpha");
  Process& server = alpha.CreateProcess();
  ExternalClient client(&sim, "alpha");
  auto uri = client.CreateComponent(server, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  ASSERT_TRUE(uri.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  }
  Context* ctx = server.FindContextOfComponent("c");
  Result<uint64_t> captured_state = server.checkpoints().SaveContextState(*ctx);
  ASSERT_TRUE(captured_state.ok());
  // The checkpoint's context entry references captured_state.
  Result<uint64_t> begin = server.checkpoints().TakeProcessCheckpoint();
  ASSERT_TRUE(begin.ok());

  // The live table moves on: newer calls and a newer state record, all
  // *above* the captured one. The force publishes the pending checkpoint.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  }
  ASSERT_TRUE(server.checkpoints().SaveContextState(*ctx).ok());
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  ASSERT_TRUE(server.log().ReadWellKnownLsn().ok());
  EXPECT_GT(ctx->recovery_lsn(), *captured_state);

  // GC must not trim past the published checkpoint's captured state record
  // even though every *live* pin now sits above it.
  server.checkpoints().GarbageCollect();
  EXPECT_LE(server.log().head_base(), *captured_state);

  // And recovery through that checkpoint still works end to end.
  server.Kill();
  ASSERT_TRUE(alpha.recovery_service().EnsureProcessAlive(1).ok());
  EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), 14);
}

// --- bracket amortization: sweeps driven directly ---------------------------

constexpr int kDirectCounters = 24;

// One process of kDirectCounters counters driven inline by an external
// client, with the async capture path switched on by hand so each test
// decides exactly when a sweep runs. Enough contexts that a bracket's
// table rows outweigh the records of a call or two.
struct DirectRig {
  explicit DirectRig(RuntimeOptions opts = RuntimeOptions(),
                     SimulationParams params = SimulationParams())
      : sim(opts, params),
        machine(&sim.AddMachine("alpha")),
        server(&machine->CreateProcess()),
        client(&sim, "alpha") {
    RegisterTestComponents(sim.factories());
    for (int i = 0; i < kDirectCounters; ++i) {
      auto uri = client.CreateComponent(*server, "Counter",
                                        StrCat("c", i),
                                        ComponentKind::kPersistent, {});
      EXPECT_TRUE(uri.ok());
      counters.push_back(*uri);
    }
    server->set_async_checkpoint_active(true);
  }

  void Add(int i, int times = 1) {
    for (int t = 0; t < times; ++t) {
      ASSERT_TRUE(client.Call(counters[i], "Add", MakeArgs(1)).ok());
    }
  }

  std::vector<int64_t> Values() {
    std::vector<int64_t> values;
    for (const std::string& uri : counters) {
      auto got = client.Call(uri, "Get", {});
      values.push_back(got.ok() ? got->AsInt() : -1);
    }
    return values;
  }

  // Kill + supervised restart; the restarted process keeps async capture.
  void CrashAndRestart() {
    server->Kill();
    ASSERT_TRUE(machine->recovery_service().RecoverFully(1).ok());
  }

  CheckpointManager& cp() { return server->checkpoints(); }

  size_t AsyncForces() const {
    const auto& marks = server->log().force_marks();
    return static_cast<size_t>(
        std::count_if(marks.begin(), marks.end(), [](const ForceMark& m) {
          return m.reason == ForcePoint::kAsyncCheckpoint;
        }));
  }

  size_t BeginRecords() const {
    std::vector<uint8_t> full = server->log().FullLog();
    LogReader reader(LogView{&full, server->log().head_base()},
                     server->log().head_base());
    size_t begins = 0;
    while (auto parsed = reader.Next()) {
      if (std::holds_alternative<BeginCheckpointRecord>(parsed->record)) {
        ++begins;
      }
    }
    return begins;
  }

  double LargestBracketBytes() const {
    return sim.metrics()
        .MergedHistogram("phoenix.checkpoint.bracket_bytes")
        .max();
  }

  Simulation sim;
  Machine* machine;
  Process* server;
  ExternalClient client;
  std::vector<std::string> counters;
};

TEST(AsyncCheckpointTest, FirstSweepAfterStartAndAfterRestartBrackets) {
  DirectRig rig;
  rig.Add(0);
  ASSERT_TRUE(rig.cp().RunAsyncSweep().ok());
  EXPECT_EQ(rig.cp().checkpoints_taken(), 1u);
  EXPECT_EQ(rig.cp().brackets_deferred(), 0u);
  EXPECT_EQ(rig.cp().checkpoints_published(), 1u);

  // The same small step right after a bracket defers the next one...
  rig.Add(1);
  ASSERT_TRUE(rig.cp().RunAsyncSweep().ok());
  EXPECT_EQ(rig.cp().checkpoints_taken(), 1u);
  EXPECT_EQ(rig.cp().brackets_deferred(), 1u);

  // ...but a restart rebuilds the manager, and its first sweep brackets no
  // matter how little the log grew.
  rig.CrashAndRestart();
  Result<uint64_t> before = rig.server->log().ReadWellKnownLsn();
  ASSERT_TRUE(before.ok());
  rig.Add(1);
  ASSERT_TRUE(rig.cp().RunAsyncSweep().ok());
  EXPECT_EQ(rig.cp().checkpoints_taken(), 1u);
  EXPECT_EQ(rig.cp().brackets_deferred(), 0u);
  EXPECT_EQ(rig.cp().checkpoints_published(), 1u);
  Result<uint64_t> after = rig.server->log().ReadWellKnownLsn();
  ASSERT_TRUE(after.ok());
  EXPECT_GT(*after, *before);
}

TEST(AsyncCheckpointTest, SweepBelowBracketSizeSavesStateWithoutBracket) {
  // One call makes c3's save due, so the sweep saves it.
  DirectRig rig(RuntimeOptions(), SaveDueAfter(1));
  rig.Add(0);
  ASSERT_TRUE(rig.cp().RunAsyncSweep().ok());
  Result<uint64_t> published = rig.server->log().ReadWellKnownLsn();
  ASSERT_TRUE(published.ok());
  const uint64_t bracket_end = rig.server->log().next_lsn();
  const uint64_t saves = rig.cp().state_saves();
  const size_t async_forces = rig.AsyncForces();
  const size_t begins = rig.BeginRecords();
  ASSERT_EQ(begins, 1u);

  rig.Add(3);
  ASSERT_TRUE(rig.cp().RunAsyncSweep().ok());
  // Precondition: the log grew by less than the bracket just taken.
  ASSERT_LT(static_cast<double>(rig.server->log().next_lsn() - bracket_end),
            rig.LargestBracketBytes());

  // State was saved for the dirty context...
  EXPECT_EQ(rig.cp().state_saves(), saves + 1);
  Context* ctx = rig.server->FindContextOfComponent("c3");
  ASSERT_NE(ctx, nullptr);
  EXPECT_GT(ctx->state_record_lsn(), bracket_end);
  // ...left unforced for a later send-time force (§4.3)...
  EXPECT_FALSE(rig.server->log().IsStable(ctx->state_record_lsn()));
  // ...with no bracket appended, no async force and no publish.
  EXPECT_EQ(rig.BeginRecords(), begins);
  EXPECT_EQ(rig.cp().checkpoints_taken(), 1u);
  EXPECT_EQ(rig.AsyncForces(), async_forces);
  EXPECT_EQ(*rig.server->log().ReadWellKnownLsn(), *published);
  EXPECT_EQ(rig.cp().brackets_deferred(), 1u);
  EXPECT_EQ(rig.sim.metrics().CounterTotal(
                "phoenix.checkpoint.async.brackets_deferred"),
            1u);
}

// Runs rounds [from, to) of one Add + one sweep, each round's counter fixed
// by its index; returns how many sweeps since the last bracket were
// bracket-less.
int DriveSweeps(DirectRig& rig, int from, int to, int bracketless = 0) {
  for (int r = from; r < to; ++r) {
    uint64_t taken = rig.cp().checkpoints_taken();
    rig.Add((r * 7) % kDirectCounters);
    EXPECT_TRUE(rig.cp().RunAsyncSweep().ok());
    bracketless = rig.cp().checkpoints_taken() == taken ? bracketless + 1 : 0;
  }
  return bracketless;
}

TEST(AsyncCheckpointTest, CrashAfterBracketlessSweepsRecoversFromOlderBracket) {
  constexpr int kRounds = 40;
  // Fault-free twin: the same calls and sweeps, no crash.
  DirectRig twin;
  DriveSweeps(twin, 0, kRounds);
  std::vector<int64_t> expected = twin.Values();

  // Run until the last bracket is followed by at least three bracket-less
  // sweeps, so the crash lands well past the published bracket.
  DirectRig rig;
  int round = 0;
  int bracketless = 0;
  while (round < kRounds && !(bracketless >= 3 && round >= kRounds / 2)) {
    bracketless = DriveSweeps(rig, round, round + 1, bracketless);
    ++round;
  }
  ASSERT_GE(bracketless, 3);
  ASSERT_GT(rig.cp().checkpoints_taken(), 1u);
  Result<uint64_t> published = rig.server->log().ReadWellKnownLsn();
  ASSERT_TRUE(published.ok());

  rig.CrashAndRestart();
  // Recovery started from the older published bracket; pass 1 rebuilt the
  // rows of the bracket-less sweeps from the records after it.
  EXPECT_EQ(*rig.server->log().ReadWellKnownLsn(), *published);
  DriveSweeps(rig, round, kRounds);
  EXPECT_EQ(rig.Values(), expected);
}

TEST(AsyncCheckpointTest, GcNeverTrimsBelowPublishedBracketBetweenBrackets) {
  RuntimeOptions opts;
  opts.auto_truncate_log = true;
  DirectRig rig(opts);
  for (int r = 0; r < 60; ++r) {
    rig.Add((r * 5) % kDirectCounters);
    ASSERT_TRUE(rig.cp().RunAsyncSweep().ok());
    rig.cp().GarbageCollect();
    Result<uint64_t> published = rig.server->log().ReadWellKnownLsn();
    ASSERT_TRUE(published.ok());
    EXPECT_LE(rig.server->log().head_base(), *published) << "round " << r;
  }
  EXPECT_GT(rig.cp().brackets_deferred(), 0u);
  EXPECT_GT(rig.cp().checkpoints_published(), 1u);
  EXPECT_GT(rig.server->log().head_base(), 0u);  // GC did reclaim

  std::vector<int64_t> before = rig.Values();
  rig.CrashAndRestart();
  EXPECT_EQ(rig.Values(), before);
}

// --- save rule: a save is due once it pays for itself at recovery ---------

TEST(AsyncCheckpointTest, ContextBelowSaveThresholdRecoversFromCreationRecord) {
  // The same calls and sweeps under the default cost model (10 calls, far
  // below the save threshold) and under one that saves every dirty context.
  DirectRig rig;
  DirectRig twin(RuntimeOptions(), SaveDueAfter(1));
  for (DirectRig* r : {&rig, &twin}) {
    r->Add(0, 10);
    r->Add(5, 3);
    ASSERT_TRUE(r->cp().RunAsyncSweep().ok());
  }

  // Below the threshold: no state record, the origin stays the creation
  // record, and the skip is counted.
  Context* ctx = rig.server->FindContextOfComponent("c0");
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(rig.cp().state_saves(), 0u);
  EXPECT_EQ(rig.cp().saves_not_due(), 2u);
  EXPECT_EQ(rig.sim.metrics().CounterTotal(
                "phoenix.checkpoint.async.saves_not_due"),
            2u);
  EXPECT_EQ(ctx->state_record_lsn(), kInvalidLsn);
  EXPECT_EQ(ctx->recovery_lsn(), ctx->creation_lsn());
  // The twin saved both dirty contexts.
  EXPECT_EQ(twin.cp().state_saves(), 2u);
  EXPECT_EQ(twin.cp().saves_not_due(), 0u);
  Context* twin_ctx = twin.server->FindContextOfComponent("c0");
  ASSERT_NE(twin_ctx, nullptr);
  EXPECT_NE(twin_ctx->state_record_lsn(), kInvalidLsn);

  rig.CrashAndRestart();
  twin.CrashAndRestart();
  // Recovery created every context from its creation record and replayed
  // the calls; the twin restored the saved two from their state records.
  const obs::MetricsRegistry& m = rig.sim.metrics();
  EXPECT_EQ(m.CounterTotal("phoenix.recovery.contexts_restored_from_state"),
            0u);
  EXPECT_EQ(m.CounterTotal("phoenix.recovery.contexts_created"),
            static_cast<uint64_t>(kDirectCounters));
  EXPECT_EQ(twin.sim.metrics().CounterTotal(
                "phoenix.recovery.contexts_restored_from_state"),
            2u);
  EXPECT_GE(m.CounterTotal("phoenix.recovery.calls_replayed"), 13u);
  // Both end in the same state.
  std::vector<int64_t> values = rig.Values();
  EXPECT_EQ(values, twin.Values());
  EXPECT_EQ(values[0], 10);
  EXPECT_EQ(values[5], 3);
}

TEST(AsyncCheckpointTest, ContextCrossingSaveThresholdIsSavedOnNextSweep) {
  // The default cost model: a save is due at the first call count whose
  // replay costs at least a state restore.
  DirectRig rig;
  const CostModel& costs = rig.sim.costs();
  const int due = static_cast<int>(std::ceil(
      costs.recovery_restore_state_ms / costs.recovery_replay_call_ms));
  ASSERT_GT(due, 1);

  rig.Add(2, due - 1);
  ASSERT_TRUE(rig.cp().RunAsyncSweep().ok());
  EXPECT_EQ(rig.cp().state_saves(), 0u);
  EXPECT_EQ(rig.cp().saves_not_due(), 1u);
  // A sweep in between with nothing new neither saves nor resets c2.
  ASSERT_TRUE(rig.cp().RunAsyncSweep().ok());
  EXPECT_EQ(rig.cp().state_saves(), 0u);

  // The count was kept, so one more call makes the next sweep save it.
  rig.Add(2);
  ASSERT_TRUE(rig.cp().RunAsyncSweep().ok());
  EXPECT_EQ(rig.cp().state_saves(), 1u);
  Context* ctx = rig.server->FindContextOfComponent("c2");
  ASSERT_NE(ctx, nullptr);
  EXPECT_NE(ctx->state_record_lsn(), kInvalidLsn);
  EXPECT_EQ(ctx->recovery_lsn(), ctx->state_record_lsn());

  // The save reset the count: the next call is below the threshold again.
  rig.Add(2);
  ASSERT_TRUE(rig.cp().RunAsyncSweep().ok());
  EXPECT_EQ(rig.cp().state_saves(), 1u);

  std::vector<int64_t> before = rig.Values();
  rig.CrashAndRestart();
  EXPECT_EQ(rig.sim.metrics().CounterTotal(
                "phoenix.recovery.contexts_restored_from_state"),
            1u);
  EXPECT_EQ(rig.Values(), before);
  EXPECT_EQ(before[2], due + 1);
}

TEST(AsyncCheckpointTest, BelowThresholdContextsAreNeitherSavedNorDeferred) {
  // Under sessions a context serving a call is deferred — but only once its
  // save is due. Under the default cost model none is, so the background
  // sweeps neither save nor defer anything.
  auto run = [](SimulationParams params) {
    Simulation sim(AsyncOptions(4), params);
    RegisterTestComponents(sim.factories());
    Topology topo = Deploy(sim, kSessions);
    RunWorkload(sim, topo);
    for (int s = 0; s < kSessions; ++s) {
      EXPECT_EQ(CounterValue(sim, topo, s), kCallsPerSession);
    }
    const CheckpointManager& cp = topo.server->checkpoints();
    return std::vector<uint64_t>{cp.async_sweeps(), cp.state_saves(),
                                 cp.async_deferrals(), cp.saves_not_due()};
  };
  std::vector<uint64_t> model = run(SimulationParams());
  std::vector<uint64_t> every = run(SaveDueAfter(1));
  EXPECT_GT(model[0], 0u);   // sweeps ran...
  EXPECT_EQ(model[1], 0u);   // ...saved nothing...
  EXPECT_EQ(model[2], 0u);   // ...deferred nothing...
  EXPECT_GT(model[3], 0u);   // ...and skipped the dirty contexts.
  EXPECT_GT(every[1], 0u);   // The same workload saving every dirty context
  EXPECT_GT(every[2], 0u);   // does defer the ones serving a call.
  EXPECT_EQ(every[3], 0u);
}

}  // namespace
}  // namespace phoenix
