// Finer-grained recovery-manager behavior: pass statistics, table
// restoration, id continuity, and the lost-creation-record path.

#include <gtest/gtest.h>

#include "recovery/checkpoint_manager.h"
#include "recovery/recovery_manager.h"
#include "recovery/recovery_service.h"
#include "tests/test_components.h"

namespace phoenix {
namespace {

using phoenix::testing::RegisterTestComponents;

class RecoveryManagerTest : public ::testing::Test {
 protected:
  RecoveryManagerTest() {
    sim_ = std::make_unique<Simulation>();
    RegisterTestComponents(sim_->factories());
    alpha_ = &sim_->AddMachine("alpha");
    proc_ = &alpha_->CreateProcess();
  }

  std::unique_ptr<Simulation> sim_;
  Machine* alpha_ = nullptr;
  Process* proc_ = nullptr;
};

TEST_F(RecoveryManagerTest, StatsReflectWork) {
  ExternalClient client(sim_.get(), "alpha");
  auto a = client.CreateComponent(*proc_, "Counter", "a",
                                  ComponentKind::kPersistent, {});
  auto b = client.CreateComponent(*proc_, "Counter", "b",
                                  ComponentKind::kPersistent, {});
  ASSERT_TRUE(b.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Call(*a, "Add", MakeArgs(1)).ok());
  }
  ASSERT_TRUE(client.Call(*b, "Add", MakeArgs(1)).ok());

  proc_->Kill();
  proc_->Start();
  proc_->set_recovering(true);
  RecoveryManager recovery(proc_);
  ASSERT_TRUE(recovery.Recover().ok());
  proc_->set_recovering(false);

  // Admission replays only the activator; draining rebuilds a and b.
  ASSERT_TRUE(proc_->DrainColdContexts().ok());
  const OnDemandReplayer::Stats& replayed = proc_->replayer()->stats();

  // Contexts on the log: a + b (the activator is implicit); replays: 2
  // activator Creates + 4 calls.
  EXPECT_EQ(recovery.stats().contexts_found, 2u);
  EXPECT_EQ(replayed.contexts_restored_from_state, 0u);
  EXPECT_EQ(replayed.calls_replayed, 6u);
  EXPECT_GT(recovery.stats().records_scanned, 6u);
}

TEST_F(RecoveryManagerTest, RemoteTypeTableRestoredFromCheckpoint) {
  ExternalClient client(sim_.get(), "alpha");
  Process& server_proc = alpha_->CreateProcess();
  auto fn = client.CreateComponent(server_proc, "Squarer", "sq",
                                   ComponentKind::kFunctional, {});
  auto chain = client.CreateComponent(*proc_, "Chain", "driver",
                                      ComponentKind::kPersistent,
                                      MakeArgs(*fn, "Square"));
  ASSERT_TRUE(chain.ok());
  ASSERT_TRUE(client.Call(*chain, "Bump", MakeArgs(2)).ok());
  ASSERT_NE(proc_->remote_types().Lookup(*fn), nullptr);

  proc_->checkpoints().TakeProcessCheckpoint();
  ASSERT_TRUE(client.Call(*chain, "Bump", MakeArgs(2)).ok());  // flush

  proc_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  const RemoteTypeInfo* info = proc_->remote_types().Lookup(*fn);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->kind, ComponentKind::kFunctional);
  EXPECT_EQ(info->type_name, "Squarer");
}

TEST_F(RecoveryManagerTest, NewComponentsAfterRecoveryGetFreshIds) {
  ExternalClient client(sim_.get(), "alpha");
  auto a = client.CreateComponent(*proc_, "Counter", "a",
                                  ComponentKind::kPersistent, {});
  ASSERT_TRUE(a.ok());
  uint64_t id_a = proc_->FindContextOfComponent("a")->id();

  proc_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());

  auto b = client.CreateComponent(*proc_, "Counter", "b",
                                  ComponentKind::kPersistent, {});
  ASSERT_TRUE(b.ok());
  EXPECT_GT(proc_->FindContextOfComponent("b")->id(), id_a);
}

TEST_F(RecoveryManagerTest, LostCreationRecordRecreatedByActivatorReplay) {
  // A component whose creation record never became stable is re-created by
  // the replayed activator call — with the same deterministic context id,
  // so its earlier outgoing calls still dedupe correctly downstream.
  ExternalClient client(sim_.get(), "alpha");
  Process& downstream_proc = alpha_->CreateProcess();
  auto leaf = client.CreateComponent(downstream_proc, "Counter", "leaf",
                                     ComponentKind::kPersistent, {});
  ASSERT_TRUE(leaf.ok());

  // Create mid through a PERSISTENT creator whose Create call gets logged
  // and forced at the activator: kill the process right after the creation
  // (before mid does anything that would force its creation record).
  auto mid = client.CreateComponent(*proc_, "Chain", "mid",
                                    ComponentKind::kPersistent,
                                    MakeArgs(*leaf));
  ASSERT_TRUE(mid.ok());
  uint64_t mid_ctx = proc_->FindContextOfComponent("mid")->id();
  // The external Create forced the activator's records (Algorithm 3) and
  // with them everything earlier — including mid's creation record. To get
  // a LOST creation record, append more and kill before any force: create
  // another component directly (bypassing forces).
  auto late = proc_->CreateComponent("Counter", "late",
                                     ComponentKind::kPersistent, {});
  ASSERT_TRUE(late.ok());
  proc_->Kill();  // "late"'s creation record dies in the buffer

  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  // mid survived (its creation was forced), late did not — and that's
  // correct: nothing committed referenced it.
  EXPECT_NE(proc_->FindComponent("mid"), nullptr);
  EXPECT_EQ(proc_->FindContextOfComponent("mid")->id(), mid_ctx);
  EXPECT_EQ(proc_->FindComponent("late"), nullptr);

  // Re-creating late reuses the id space without colliding.
  auto late2 = proc_->CreateComponent("Counter", "late",
                                      ComponentKind::kPersistent, {});
  ASSERT_TRUE(late2.ok());
  EXPECT_TRUE(client.Call(*late2, "Add", MakeArgs(1)).ok());
}

TEST_F(RecoveryManagerTest, RecoveryIsIdempotent) {
  ExternalClient client(sim_.get(), "alpha");
  auto a = client.CreateComponent(*proc_, "Counter", "a",
                                  ComponentKind::kPersistent, {});
  ASSERT_TRUE(client.Call(*a, "Add", MakeArgs(5)).ok());

  for (int round = 0; round < 3; ++round) {
    proc_->Kill();
    ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  }
  EXPECT_EQ(client.Call(*a, "Get", {})->AsInt(), 5);
}

TEST_F(RecoveryManagerTest, LiveCallDuringRecoveryFlushesPendingFirst) {
  // Two processes on one machine call each other; while A recovers, B's
  // retry arrives mid-pass and must see A's contexts recovered to their
  // last send. Exercised via the pending-flusher hook: kill A mid-call
  // from B, then B's retry drives A's recovery inline.
  ExternalClient client(sim_.get(), "alpha");
  Process& b_proc = alpha_->CreateProcess();
  auto target = client.CreateComponent(*proc_, "Counter", "target",
                                       ComponentKind::kPersistent, {});
  auto driver = client.CreateComponent(b_proc, "Chain", "driver",
                                       ComponentKind::kPersistent,
                                       MakeArgs(*target));
  ASSERT_TRUE(driver.ok());
  ASSERT_TRUE(client.Call(*driver, "Bump", MakeArgs(1)).ok());

  sim_->injector().AddTrigger("alpha", proc_->pid(),
                              FailurePoint::kBeforeReplySend, 1);
  auto r = client.Call(*driver, "Bump", MakeArgs(2));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(client.Call(*target, "Get", {})->AsInt(), 3);
}

}  // namespace
}  // namespace phoenix
