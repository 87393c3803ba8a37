// Crash-tolerant recovery: crashes injected at every recovery-phase fault
// point (analysis scan, state reinstatement, between replay units, the
// end-of-log flush), nested re-crashes, storage attacks between attempts,
// the supervised degradation ladder (normal -> salvage-assessed -> cold
// start), its terminal give-up status, and the redundant registration-table
// force skip.

#include <gtest/gtest.h>

#include "recovery/recovery_service.h"
#include "tests/test_components.h"

namespace phoenix {
namespace {

using phoenix::testing::RegisterTestComponents;

class RecoveryCrashTest : public ::testing::Test {
 protected:
  void SetUpSim(RuntimeOptions opts = {}) {
    sim_ = std::make_unique<Simulation>(opts);
    RegisterTestComponents(sim_->factories());
    alpha_ = &sim_->AddMachine("alpha");
    proc_ = &alpha_->CreateProcess();
  }

  uint64_t Counter(const char* name) {
    return sim_->metrics().CounterTotal(name);
  }

  std::unique_ptr<Simulation> sim_;
  Machine* alpha_ = nullptr;
  Process* proc_ = nullptr;
};

// A Counter workload with context-state records in the log, so every
// recovery-phase fault point (including state reinstatement) has something
// to crash on. Five Adds of 2: converged value 10.
std::string BuildCounterWorkload(Simulation* sim, Process* proc) {
  ExternalClient client(sim, "alpha");
  auto uri = client.CreateComponent(*proc, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  EXPECT_TRUE(uri.ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(client.Call(*uri, "Add", MakeArgs(2)).ok());
  }
  return *uri;
}

TEST_F(RecoveryCrashTest, CrashAtEachRecoveryPointConverges) {
  const FailurePoint kPoints[] = {
      FailurePoint::kDuringRecoveryAnalysis,
      FailurePoint::kDuringRecoveryRestore,
      FailurePoint::kBetweenReplayUnits,
      FailurePoint::kDuringEndOfLogFlush,
  };
  for (FailurePoint point : kPoints) {
    RuntimeOptions opts;
    opts.inject_failures_during_recovery = true;
    opts.save_context_state_every = 3;
    SetUpSim(opts);
    std::string uri = BuildCounterWorkload(sim_.get(), proc_);

    proc_->Kill();
    sim_->injector().AddTrigger("alpha", proc_->pid(), point, /*hit=*/1);
    Status recovered = alpha_->recovery_service().RecoverFully(1);
    ASSERT_TRUE(recovered.ok())
        << FailurePointName(point) << ": " << recovered.ToString();
    EXPECT_EQ(sim_->injector().crashes_fired(), 1u)
        << FailurePointName(point);
    // Attempt 1 died at the fault point; attempt 2 converged — rung 0.
    EXPECT_EQ(Counter("phoenix.recovery.supervisor.attempts"), 2u)
        << FailurePointName(point);
    EXPECT_EQ(Counter("phoenix.recovery.supervisor.gave_up"), 0u);
    ExternalClient client(sim_.get(), "alpha");
    EXPECT_EQ(client.Call(uri, "Get", {})->AsInt(), 10)
        << FailurePointName(point);
  }
}

TEST_F(RecoveryCrashTest, NestedRecoveryCrashesDepth3Converge) {
  RuntimeOptions opts;
  opts.inject_failures_during_recovery = true;
  opts.save_context_state_every = 3;
  SetUpSim(opts);
  std::string uri = BuildCounterWorkload(sim_.get(), proc_);

  proc_->Kill();
  // Three nested failures: the recovery of the recovery of the recovery
  // crashes too. Hit counts persist across attempts, so consecutive
  // triggers kill consecutive attempts at the first scanned record.
  for (uint64_t hit = 1; hit <= 3; ++hit) {
    sim_->injector().AddTrigger("alpha", proc_->pid(),
                                FailurePoint::kDuringRecoveryAnalysis, hit);
  }
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  EXPECT_EQ(sim_->injector().crashes_fired(), 3u);
  EXPECT_EQ(Counter("phoenix.recovery.supervisor.attempts"), 4u);
  // Depth 3 still fits in rung 0's attempt budget: never degraded.
  EXPECT_EQ(Counter("phoenix.recovery.mode"), 0u);
  EXPECT_EQ(Counter("phoenix.recovery.supervisor.gave_up"), 0u);
  ExternalClient client(sim_.get(), "alpha");
  EXPECT_EQ(client.Call(uri, "Get", {})->AsInt(), 10);
}

TEST_F(RecoveryCrashTest, WkfAttackBetweenAttemptsSalvages) {
  RuntimeOptions opts;
  opts.inject_failures_during_recovery = true;
  opts.save_context_state_every = 2;
  opts.process_checkpoint_every = 2;
  SetUpSim(opts);
  std::string uri = BuildCounterWorkload(sim_.get(), proc_);
  ASSERT_TRUE(proc_->log().ReadWellKnownLsn().ok());

  proc_->Kill();
  sim_->injector().AddTrigger("alpha", proc_->pid(),
                              FailurePoint::kDuringRecoveryAnalysis, 1);
  // Storage keeps rotting *between* attempts: the well-known file is
  // corrupted after attempt 1 dies, so attempt 2 must detect the lie and
  // fall back to a full scan — still within the normal rung.
  sim_->injector().AddRecoveryAttack("alpha", proc_->pid(),
                                     /*before_attempt=*/2,
                                     RecoveryAttack::kCorruptWellKnownFile);
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  EXPECT_EQ(sim_->injector().recovery_attacks_fired(), 1u);
  EXPECT_EQ(Counter("phoenix.recovery.supervisor.storage_attacks"), 1u);
  EXPECT_GE(Counter("phoenix.recovery.salvage.wkf_fallback"), 1u);
  EXPECT_EQ(Counter("phoenix.recovery.mode"), 0u);
  ExternalClient client(sim_.get(), "alpha");
  EXPECT_EQ(client.Call(uri, "Get", {})->AsInt(), 10);
}

TEST_F(RecoveryCrashTest, LadderEscalatesToSalvageAssessed) {
  RuntimeOptions opts;
  opts.inject_failures_during_recovery = true;
  opts.save_context_state_every = 3;
  opts.recovery_supervisor_attempts_per_rung = 2;
  SetUpSim(opts);
  std::string uri = BuildCounterWorkload(sim_.get(), proc_);

  proc_->Kill();
  // Rung 0's entire budget (2 attempts) crashes; attempt 3 runs one rung
  // down the ladder in salvage-assessed mode and converges.
  sim_->injector().AddTrigger("alpha", proc_->pid(),
                              FailurePoint::kDuringRecoveryAnalysis, 1);
  sim_->injector().AddTrigger("alpha", proc_->pid(),
                              FailurePoint::kDuringRecoveryAnalysis, 2);
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  obs::LabelSet normal{{"process", "alpha/1"}, {"rung", "normal"}};
  obs::LabelSet degraded{{"process", "alpha/1"},
                         {"rung", "salvage_assessed"}};
  EXPECT_EQ(sim_->metrics()
                .GetCounter("phoenix.recovery.supervisor.attempts", normal)
                .value(),
            2u);
  EXPECT_EQ(sim_->metrics()
                .GetCounter("phoenix.recovery.supervisor.attempts", degraded)
                .value(),
            1u);
  EXPECT_EQ(Counter("phoenix.recovery.mode"), 1u);
  EXPECT_EQ(Counter("phoenix.recovery.supervisor.gave_up"), 0u);
  // Salvage-assessed recovery replays the full log: exact state.
  ExternalClient client(sim_.get(), "alpha");
  EXPECT_EQ(client.Call(uri, "Get", {})->AsInt(), 10);
}

TEST_F(RecoveryCrashTest, ColdStartRungRestoresLastSavedState) {
  RuntimeOptions opts;
  opts.inject_failures_during_recovery = true;
  opts.save_context_state_every = 3;
  opts.recovery_supervisor_attempts_per_rung = 1;
  SetUpSim(opts);
  ExternalClient client(sim_.get(), "alpha");
  auto uri = client.CreateComponent(*proc_, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  ASSERT_TRUE(uri.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  }

  proc_->Kill();
  // One attempt per rung; normal and salvage-assessed both crash. The last
  // rung is the availability stopgap: reinstate saved state and creations,
  // replay no messages. Data-lossy by design — the counter rolls back to
  // its last saved state record.
  sim_->injector().AddTrigger("alpha", proc_->pid(),
                              FailurePoint::kDuringRecoveryAnalysis, 1);
  sim_->injector().AddTrigger("alpha", proc_->pid(),
                              FailurePoint::kDuringRecoveryAnalysis, 2);
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  EXPECT_EQ(Counter("phoenix.recovery.cold_starts"), 1u);
  EXPECT_EQ(Counter("phoenix.recovery.supervisor.attempts"), 3u);
  auto value = client.Call(*uri, "Get", {});
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->AsInt(), 3);  // saved after the 3rd Add; 2 records lost
  // The rung trades the tail for availability: the process serves again.
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), 4);
}

TEST_F(RecoveryCrashTest, SupervisorGivesUpWithTerminalStatus) {
  RuntimeOptions opts;
  opts.inject_failures_during_recovery = true;
  opts.save_context_state_every = 3;
  opts.recovery_supervisor_attempts_per_rung = 1;
  SetUpSim(opts);
  std::string uri = BuildCounterWorkload(sim_.get(), proc_);

  proc_->Kill();
  // Every rung's single attempt crashes: the ladder is exhausted and the
  // supervisor reports a terminal status instead of retrying forever.
  for (uint64_t hit = 1; hit <= 3; ++hit) {
    sim_->injector().AddTrigger("alpha", proc_->pid(),
                                FailurePoint::kDuringRecoveryAnalysis, hit);
  }
  Status status = alpha_->recovery_service().EnsureProcessAlive(1);
  EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
  EXPECT_FALSE(proc_->alive());
  EXPECT_EQ(Counter("phoenix.recovery.supervisor.gave_up"), 1u);
  EXPECT_EQ(Counter("phoenix.recovery.supervisor.attempts"), 3u);

  // Give-up is not forever: once the faults stop, the next request
  // recovers normally.
  sim_->injector().Clear();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  ExternalClient client(sim_.get(), "alpha");
  EXPECT_EQ(client.Call(uri, "Get", {})->AsInt(), 10);
}

TEST_F(RecoveryCrashTest, RedundantTablePersistSkipped) {
  SetUpSim();
  Process& other = alpha_->CreateProcess();
  (void)other;
  // One durable force per registration.
  obs::LabelSet machine{{"machine", "alpha"}};
  EXPECT_EQ(sim_->metrics()
                .GetCounter("phoenix.recovery.service.table_forces", machine)
                .value(),
            2u);

  std::string uri = BuildCounterWorkload(sim_.get(), proc_);
  proc_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  // A restart changes no registration: the redundant force is skipped (and
  // counted) instead of re-writing an identical table.
  EXPECT_EQ(sim_->metrics()
                .GetCounter("phoenix.recovery.service.table_forces", machine)
                .value(),
            2u);
  EXPECT_EQ(
      sim_->metrics()
          .GetCounter("phoenix.recovery.service.table_force_skips", machine)
          .value(),
      1u);
  ExternalClient client(sim_.get(), "alpha");
  EXPECT_EQ(client.Call(uri, "Get", {})->AsInt(), 10);
}

TEST_F(RecoveryCrashTest, CrashBetweenOnDemandReplayUnitsConverges) {
  // Two chains plus an independent counter, crashed between two replayed
  // units, recovered on demand (the crash fires inside the first call's
  // materialization and that call's retry restarts the process) and by
  // draining every cold context first; both must converge to one state.
  auto run = [this](bool drain_all) {
    RuntimeOptions opts;
    opts.inject_failures_during_recovery = true;
    SetUpSim(opts);
    ExternalClient client(sim_.get(), "alpha");
    auto leaf = client.CreateComponent(*proc_, "Counter", "leaf",
                                       ComponentKind::kPersistent, {});
    auto mid = client.CreateComponent(*proc_, "Chain", "mid",
                                      ComponentKind::kPersistent,
                                      MakeArgs(*leaf, "Add"));
    auto solo = client.CreateComponent(*proc_, "Counter", "solo",
                                       ComponentKind::kPersistent, {});
    EXPECT_TRUE(leaf.ok() && mid.ok() && solo.ok());
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(client.Call(*mid, "Bump", MakeArgs(i + 1)).ok());
    }
    EXPECT_TRUE(client.Call(*solo, "Add", MakeArgs(5)).ok());
    EXPECT_TRUE(client.Call(*solo, "Add", MakeArgs(7)).ok());

    proc_->Kill();
    sim_->injector().AddTrigger("alpha", proc_->pid(),
                                FailurePoint::kBetweenReplayUnits, /*hit=*/2);
    if (drain_all) {
      EXPECT_TRUE(alpha_->recovery_service().RecoverFully(1).ok());
    } else {
      EXPECT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
      EXPECT_EQ(proc_->cold_context_count(), 3u);
    }
    std::vector<int64_t> state{client.Call(*leaf, "Get", {})->AsInt(),
                               client.Call(*mid, "Get", {})->AsInt(),
                               client.Call(*solo, "Get", {})->AsInt()};
    EXPECT_EQ(sim_->injector().crashes_fired(), 1u);
    EXPECT_EQ(Counter("phoenix.recovery.supervisor.attempts"), 2u);
    EXPECT_GT(Counter("phoenix.recovery.replay.chains"), 0u);
    return state;
  };
  std::vector<int64_t> on_demand = run(/*drain_all=*/false);
  EXPECT_EQ(on_demand, run(/*drain_all=*/true));
  EXPECT_EQ(on_demand, (std::vector<int64_t>{6, 6, 12}));
}

}  // namespace
}  // namespace phoenix
