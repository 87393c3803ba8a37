// Instant restart: recovery admits calls after the analysis pass and the
// plan scan, and each context is rebuilt on its first call, as a dependency
// or by a checkpoint sweep's drain. Covers the recovery phase ledger, GC
// and checkpoint brackets over cold contexts, live-going final units that
// reach a cold peer, duplicates to a cold context, the sweep drain, and
// group-commit park waits across restarts.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "common/strings.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/on_demand_replay.h"
#include "recovery/recovery_service.h"
#include "tests/test_components.h"
#include "wal/force_point.h"
#include "wal/log_reader.h"

namespace phoenix {
namespace {

using phoenix::testing::ExecutionLog;
using phoenix::testing::RegisterTestComponents;

class OnDemandRecoveryTest : public ::testing::Test {
 protected:
  void SetUpSim(RuntimeOptions opts = {}) {
    sim_ = std::make_unique<Simulation>(opts);
    RegisterTestComponents(sim_->factories());
    alpha_ = &sim_->AddMachine("alpha");
    proc_ = &alpha_->CreateProcess();
  }

  std::string MakeCounter(const std::string& name) {
    ExternalClient client(sim_.get(), "alpha");
    auto uri = client.CreateComponent(*proc_, "Counter", name,
                                      ComponentKind::kPersistent, {});
    EXPECT_TRUE(uri.ok());
    return uri.ok() ? *uri : "";
  }

  void Add(const std::string& uri, int64_t n) {
    ExternalClient client(sim_.get(), "alpha");
    ASSERT_TRUE(client.Call(uri, "Add", MakeArgs(n)).ok());
  }

  int64_t Get(const std::string& uri) {
    ExternalClient client(sim_.get(), "alpha");
    auto got = client.Call(uri, "Get", {});
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    return got.ok() ? got->AsInt() : -1;
  }

  // Takes a bracket now and publishes it (forcing the log like a sweep).
  void PublishBracket() {
    ASSERT_TRUE(proc_->checkpoints().TakeProcessCheckpoint().ok());
    ASSERT_TRUE(proc_->WaitDurable(ForcePoint::kManual).ok());
    proc_->checkpoints().MaybePublishCheckpoint();
  }

  void CrashAndAdmit() {
    proc_->Kill();
    ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  }

  double Phase(const char* phase) {
    return sim_->metrics()
        .GetGauge("phoenix.recovery.phase_ms",
                  obs::LabelSet{{"process", "alpha/1"}, {"phase", phase}})
        .value();
  }

  uint64_t Materialized(const char* trigger) {
    return sim_->metrics()
        .GetCounter("phoenix.recovery.contexts_materialized",
                    obs::LabelSet{{"process", "alpha/1"},
                                  {"trigger", trigger}})
        .value();
  }

  std::unique_ptr<Simulation> sim_;
  Machine* alpha_ = nullptr;
  Process* proc_ = nullptr;
};

TEST_F(OnDemandRecoveryTest, AdmissionLeavesEveryContextCold) {
  SetUpSim();
  std::string a = MakeCounter("a");
  std::string b = MakeCounter("b");
  Add(a, 1);
  Add(b, 2);
  CrashAndAdmit();
  EXPECT_EQ(proc_->cold_context_count(), 2u);
  EXPECT_TRUE(proc_->IsCold(1));
  EXPECT_TRUE(proc_->IsCold(2));
  // Shells sit in the context table with their origins, but hold nothing.
  ASSERT_NE(proc_->FindContext(1), nullptr);
  EXPECT_NE(proc_->FindContext(1)->recovery_lsn(), kInvalidLsn);
  EXPECT_EQ(proc_->FindContext(1)->parent(), nullptr);
  EXPECT_EQ(sim_->metrics().GaugeTotal("phoenix.recovery.cold_contexts"), 2);

  // A call rebuilds only its own context.
  EXPECT_EQ(Get(b), 2);
  EXPECT_TRUE(proc_->IsCold(1));
  EXPECT_FALSE(proc_->IsCold(2));
  EXPECT_EQ(Materialized("call"), 1u);
  EXPECT_EQ(sim_->metrics().GaugeTotal("phoenix.recovery.cold_contexts"), 1);
  EXPECT_EQ(sim_->metrics()
                .MergedHistogram("phoenix.recovery.full_recovery_ms")
                .count(),
            0u);
  EXPECT_EQ(Get(a), 1);
  EXPECT_EQ(sim_->metrics()
                .MergedHistogram("phoenix.recovery.full_recovery_ms")
                .count(),
            1u);
}

TEST_F(OnDemandRecoveryTest, PhaseLedgerSumsToDurationAndMaterializeMs) {
  SetUpSim();
  std::string a = MakeCounter("a");
  std::string b = MakeCounter("b");
  for (int i = 0; i < 4; ++i) Add(a, 1);
  ASSERT_TRUE(proc_->checkpoints()
                  .SaveContextState(*proc_->FindContextOfComponent("a"))
                  .ok());
  // A published bracket after the creations leaves the activator nothing
  // to replay at admission.
  PublishBracket();
  Add(a, 1);
  Add(b, 3);
  CrashAndAdmit();

  // Admission: init + analysis + plan_scan + replay is exactly
  // duration_ms; nothing was created, restored or replayed yet.
  const char* kPhases[] = {"init",   "analysis", "plan_scan",
                           "create", "restore",  "replay"};
  double admitted = 0.0;
  for (const char* phase : kPhases) admitted += Phase(phase);
  obs::Histogram duration =
      sim_->metrics().MergedHistogram("phoenix.recovery.duration_ms");
  ASSERT_EQ(duration.count(), 1u);
  EXPECT_EQ(admitted, duration.sum());
  EXPECT_EQ(Phase("init"), sim_->costs().recovery_init_ms);
  EXPECT_GT(Phase("analysis"), 0.0);
  EXPECT_GT(Phase("plan_scan"), 0.0);
  EXPECT_EQ(Phase("create"), 0.0);
  EXPECT_EQ(Phase("restore"), 0.0);
  EXPECT_EQ(Phase("replay"), 0.0);

  // One materialization: its create + restore + replay is exactly its
  // materialize_ms sample.
  const CostModel& costs = sim_->costs();
  ASSERT_TRUE(proc_->DrainOneColdContext().ok());
  obs::Histogram materialize =
      sim_->metrics().MergedHistogram("phoenix.recovery.materialize_ms");
  ASSERT_EQ(materialize.count(), 1u);
  EXPECT_EQ(Phase("create") + Phase("restore") + Phase("replay"),
            materialize.sum());
  EXPECT_EQ(Phase("create"), costs.recovery_create_ms);

  // Both: the same, up to the order the two sums add their terms in.
  ASSERT_TRUE(proc_->DrainColdContexts().ok());
  materialize =
      sim_->metrics().MergedHistogram("phoenix.recovery.materialize_ms");
  EXPECT_EQ(materialize.count(), 2u);
  EXPECT_EQ(Phase("create"), 2 * costs.recovery_create_ms);
  EXPECT_EQ(Phase("restore"), costs.recovery_restore_state_ms);
  EXPECT_DOUBLE_EQ(Phase("create") + Phase("restore") + Phase("replay"),
                   materialize.sum());
  // a replays its one call after the state record, b its creation and call
  // (read off the clock, so up to its rounding).
  EXPECT_NEAR(Phase("replay"), 3 * costs.recovery_replay_call_ms, 1e-9);
  EXPECT_EQ(Materialized("drain"), 2u);
  EXPECT_EQ(sim_->metrics().GaugeTotal("phoenix.recovery.cold_contexts"), 0);
  EXPECT_EQ(Get(a), 5);
  EXPECT_EQ(Get(b), 3);
}

TEST_F(OnDemandRecoveryTest, GcNeverTrimsBelowAColdOrigin) {
  RuntimeOptions opts;
  opts.auto_truncate_log = true;
  SetUpSim(opts);
  std::string cold = MakeCounter("cold");
  std::string hot = MakeCounter("hot");
  Add(cold, 7);
  Add(hot, 1);
  CheckpointManager& cp = proc_->checkpoints();
  ASSERT_TRUE(cp.SaveContextState(*proc_->FindContextOfComponent("cold")).ok());
  ASSERT_TRUE(cp.SaveContextState(*proc_->FindContextOfComponent("hot")).ok());
  PublishBracket();
  CrashAndAdmit();
  uint64_t cold_origin = proc_->FindContext(1)->recovery_lsn();
  ASSERT_TRUE(proc_->IsCold(1));

  // Only hot serves; its newer state record and bracket leave cold's origin
  // as the lowest pin.
  for (int i = 0; i < 3; ++i) Add(hot, 1);
  ASSERT_TRUE(proc_->checkpoints()
                  .SaveContextState(*proc_->FindContextOfComponent("hot"))
                  .ok());
  PublishBracket();
  ASSERT_TRUE(proc_->IsCold(1));
  EXPECT_LT(cold_origin, proc_->FindContext(2)->recovery_lsn());
  EXPECT_LT(cold_origin, *proc_->log().ReadWellKnownLsn());
  // GC cut exactly at the cold origin: everything below went, the origin
  // stayed.
  EXPECT_EQ(proc_->log().head_base(), cold_origin);
  EXPECT_EQ(Get(cold), 7);
  EXPECT_EQ(Get(hot), 4);
}

TEST_F(OnDemandRecoveryTest, BracketTakenWhileColdRecoversThemAfterACrash) {
  SetUpSim();
  std::vector<std::string> counters;
  for (int i = 0; i < 3; ++i) {
    counters.push_back(MakeCounter(StrCat("c", i)));
    Add(counters.back(), i + 1);
  }
  CrashAndAdmit();
  ASSERT_EQ(proc_->cold_context_count(), 3u);
  Result<uint64_t> before = proc_->log().ReadWellKnownLsn();
  // The bracket's context entries are the shells' origins.
  PublishBracket();
  Result<uint64_t> after = proc_->log().ReadWellKnownLsn();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(!before.ok() || *before != *after);
  EXPECT_EQ(proc_->cold_context_count(), 3u);

  // Crash again: recovery now starts at that bracket and still finds every
  // context and its calls.
  CrashAndAdmit();
  EXPECT_EQ(proc_->cold_context_count(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(Get(counters[i]), i + 1);
}

TEST_F(OnDemandRecoveryTest, LiveFinalUnitReachesADependentColdPeer) {
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  std::string leaf = MakeCounter("leaf");
  auto mid = client.CreateComponent(*proc_, "Chain", "mid",
                                    ComponentKind::kPersistent,
                                    MakeArgs(leaf));
  ASSERT_TRUE(mid.ok());
  ASSERT_TRUE(client.Call(*mid, "Bump", MakeArgs(1)).ok());

  // mid's second Bump reaches leaf, which logs and replies; mid dies right
  // after receiving the reply, before its reply record is stable.
  sim_->injector().AddTrigger("alpha", proc_->pid(),
                              FailurePoint::kAfterOutgoingReply, 1);
  CallMessage bump;
  bump.target_uri = *mid;
  bump.method = "Bump";
  bump.args = MakeArgs(2);
  EXPECT_FALSE(sim_->RouteCall("alpha", bump).ok());
  ASSERT_FALSE(proc_->alive());
  int leaf_adds = ExecutionLog::Of("leaf.Add");
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  ASSERT_EQ(proc_->cold_context_count(), 2u);
  uint64_t dedupes =
      sim_->metrics().CounterTotal("phoenix.intercept.dedupe_hits");

  // The first call materializes mid. Its final unit (Bump 2) has no logged
  // reply, goes live and calls leaf — a cold peer whose final unit depends
  // on that very unit. leaf materializes, replays the logged Add, and the
  // live call is answered from its last-call entry.
  EXPECT_EQ(client.Call(*mid, "Get", {})->AsInt(), 3);
  EXPECT_EQ(proc_->cold_context_count(), 0u);
  EXPECT_EQ(Materialized("call"), 2u);
  EXPECT_EQ(sim_->metrics().CounterTotal("phoenix.intercept.dedupe_hits"),
            dedupes + 1);
  EXPECT_EQ(ExecutionLog::Of("leaf.Add"), leaf_adds + 2);  // replays only
  EXPECT_EQ(Get(leaf), 3);
}

// A leaf Counter fed by a Chain in the same process: the leaf's replayed
// Adds depend on the Chain's Bump units that made them.
struct ChainedPair {
  std::string leaf;
  std::string mid;
};

ChainedPair BuildChainedPair(Simulation* sim, Process* proc, int bumps) {
  ExternalClient client(sim, "alpha");
  auto leaf = client.CreateComponent(*proc, "Counter", "leaf",
                                     ComponentKind::kPersistent, {});
  auto mid = client.CreateComponent(*proc, "Chain", "mid",
                                    ComponentKind::kPersistent,
                                    MakeArgs(*leaf));
  EXPECT_TRUE(leaf.ok() && mid.ok());
  for (int i = 1; i <= bumps; ++i) {
    EXPECT_TRUE(client.Call(*mid, "Bump", MakeArgs(i)).ok());
  }
  return {*leaf, *mid};
}

TEST_F(OnDemandRecoveryTest, DependenciesStopShortOfAFinalUnit) {
  SetUpSim();
  ChainedPair pair = BuildChainedPair(sim_.get(), proc_, 3);
  CrashAndAdmit();
  int bumps = ExecutionLog::Of("mid.Bump");
  // leaf's Adds depend on mid's Bumps; the last one on mid's final unit,
  // which replays only with mid itself.
  EXPECT_EQ(Get(pair.leaf), 6);
  EXPECT_FALSE(proc_->IsCold(1));
  EXPECT_TRUE(proc_->IsCold(2));
  EXPECT_EQ(ExecutionLog::Of("mid.Bump"), bumps + 2);
  EXPECT_EQ(Materialized("dependency"), 1u);
  EXPECT_EQ(Get(pair.mid), 6);
  EXPECT_EQ(ExecutionLog::Of("mid.Bump"), bumps + 3);
}

TEST_F(OnDemandRecoveryTest, LiveCallBetweenUnitsReplaysTheRestFirst) {
  SetUpSim();
  ChainedPair pair = BuildChainedPair(sim_.get(), proc_, 3);
  proc_->Kill();
  // Rot mid's logged reply to its first Add: replaying Bump 1 then calls
  // leaf for real, while leaf — materializing for the first read — is
  // between units, short of the Add that very call logged.
  uint64_t first_reply = kInvalidLsn;
  LogView view = proc_->log().StableView();
  LogReader reader(view, proc_->log().head_base());
  while (auto parsed = reader.Next()) {
    const auto* reply = std::get_if<ReplyReceivedRecord>(&parsed->record);
    if (reply != nullptr && reply->context_id == 2) {
      first_reply = parsed->lsn;
      break;
    }
  }
  ASSERT_NE(first_reply, kInvalidLsn);
  sim_->storage().CorruptLog(proc_->log_name(), first_reply + 8,
                             /*flip_count=*/2);
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  int adds = ExecutionLog::Of("leaf.Add");

  // leaf's remaining units replay before the live call is served, so the
  // Add runs once (replayed), not twice.
  EXPECT_EQ(Get(pair.leaf), 6);
  EXPECT_EQ(ExecutionLog::Of("leaf.Add"), adds + 3);
  EXPECT_EQ(Get(pair.mid), 6);
}

TEST_F(OnDemandRecoveryTest, DuplicateAnsweredAfterAColdBracketAndGc) {
  RuntimeOptions opts;
  opts.auto_truncate_log = true;
  SetUpSim(opts);
  std::string uri = MakeCounter("c");
  CallMessage msg;
  msg.target_uri = uri;
  msg.method = "Add";
  msg.args = MakeArgs(42);
  msg.has_call_id = true;
  msg.call_id = CallId{ClientKey{"ghost", 9, 9}, 7};
  msg.has_sender_info = true;
  msg.sender_kind = ComponentKind::kPersistent;
  ASSERT_TRUE(sim_->RouteCall("alpha", msg).ok());
  // The state record references the reply on the log; replay from it can
  // no longer recreate the reply.
  ASSERT_TRUE(proc_->checkpoints()
                  .SaveContextState(*proc_->FindContextOfComponent("c"))
                  .ok());
  PublishBracket();
  CrashAndAdmit();
  // A bracket taken while c is cold, and the GC behind its publish, must
  // keep the last-call row and its reply record.
  PublishBracket();
  CrashAndAdmit();
  ASSERT_TRUE(proc_->IsCold(1));
  int executions = ExecutionLog::Of("c.Add");
  Result<ReplyMessage> dup = sim_->RouteCall("alpha", msg);
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->value.AsInt(), 42);
  EXPECT_EQ(ExecutionLog::Of("c.Add"), executions);
  EXPECT_EQ(Get(uri), 42);
}

TEST_F(OnDemandRecoveryTest, RetriedDuplicateToAColdContextIsAnswered) {
  SetUpSim();
  std::string uri = MakeCounter("c");
  CallMessage msg;
  msg.target_uri = uri;
  msg.method = "Add";
  msg.args = MakeArgs(42);
  msg.has_call_id = true;
  msg.call_id = CallId{ClientKey{"ghost", 9, 9}, 7};
  msg.has_sender_info = true;
  msg.sender_kind = ComponentKind::kPersistent;
  ASSERT_TRUE(sim_->RouteCall("alpha", msg).ok());

  CrashAndAdmit();
  ASSERT_TRUE(proc_->IsCold(1));
  int executions = ExecutionLog::Of("c.Add");
  // The retry reaches the cold context: it materializes (replaying the
  // logged Add once), and the duplicate is answered from the replayed
  // last-call entry without executing again.
  Result<ReplyMessage> dup = sim_->RouteCall("alpha", msg);
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->value.AsInt(), 42);
  EXPECT_EQ(ExecutionLog::Of("c.Add"), executions + 1);
  EXPECT_EQ(sim_->metrics().CounterTotal("phoenix.intercept.dedupe_hits"),
            1u);
  EXPECT_EQ(Get(uri), 42);
}

TEST_F(OnDemandRecoveryTest, SweepsDrainEveryColdContext) {
  RuntimeOptions opts;
  opts.group_commit = true;
  opts.async_checkpoint = true;
  opts.async_checkpoint_interval = 2;
  SetUpSim(opts);
  constexpr int kCounters = 6;
  std::vector<std::string> counters;
  for (int i = 0; i < kCounters; ++i) {
    counters.push_back(MakeCounter(StrCat("c", i)));
    Add(counters.back(), i);
  }
  CrashAndAdmit();
  ASSERT_EQ(proc_->cold_context_count(), static_cast<size_t>(kCounters));

  // Traffic to c0 only; every sweep drains the cold context holding the
  // lowest GC pin.
  sim_->RunSessions({[&] {
    ExternalClient client(sim_.get(), "alpha");
    for (int i = 0; i < 4 * kCounters; ++i) {
      ASSERT_TRUE(client.Call(counters[0], "Add", MakeArgs(1)).ok());
    }
  }});
  EXPECT_EQ(proc_->cold_context_count(), 0u);
  EXPECT_EQ(Materialized("call"), 1u);
  EXPECT_EQ(Materialized("drain"), static_cast<uint64_t>(kCounters - 1));
  EXPECT_EQ(Get(counters[0]), 4 * kCounters);
  for (int i = 1; i < kCounters; ++i) EXPECT_EQ(Get(counters[i]), i);
}

TEST_F(OnDemandRecoveryTest, ParkWaitsStayNonNegativeAcrossRestarts) {
  // The repo benchmark's crash_restart shape (group commit, async
  // checkpoints, a 4-shard log, parallel_replay set): a wait must start and
  // end on the one simulation clock. A second process owes a checkpoint
  // sweep whenever the server restarts, so its sweep parks while the server
  // recovers; restarts also happen inside the overlapping sessions, whose
  // waits then span on-demand materializations.
  RuntimeOptions opts;
  opts.group_commit = true;
  opts.async_checkpoint = true;
  opts.async_checkpoint_interval = 8;
  opts.wal_shards = 4;
  opts.parallel_replay = true;
  SetUpSim(opts);
  Process& other = alpha_->CreateProcess();
  ExternalClient admin(sim_.get(), "alpha");
  std::vector<std::string> counters;
  for (int i = 0; i < 8; ++i) counters.push_back(MakeCounter(StrCat("c", i)));
  auto peer = admin.CreateComponent(other, "Counter", "peer",
                                    ComponentKind::kPersistent, {});
  ASSERT_TRUE(peer.ok());
  for (int cycle = 0; cycle < 3; ++cycle) {
    sim_->injector().AddTrigger("alpha", proc_->pid(),
                                FailurePoint::kAfterReplySend, 5);
    std::vector<std::function<void()>> bodies;
    for (size_t s = 0; s <= counters.size(); ++s) {
      bodies.push_back([&, s] {
        ExternalClient client(sim_.get(), "alpha");
        const std::string& uri = s < counters.size() ? counters[s] : *peer;
        for (int i = 0; i < 6; ++i) {
          (void)client.Call(uri, "Add", MakeArgs(1));
        }
      });
    }
    sim_->RunSessions(std::move(bodies));
    for (int i = 0; i < 2 * 8; ++i) {
      ASSERT_TRUE(admin.Call(*peer, "Add", MakeArgs(1)).ok());
    }
    CrashAndAdmit();
  }
  obs::Histogram park = sim_->metrics().MergedHistogram("phoenix.wal.park_ms");
  ASSERT_GT(park.count(), 0u);
  EXPECT_GE(park.min(), 0.0);
  EXPECT_GT(Materialized("call"), 0u);
}

}  // namespace
}  // namespace phoenix
