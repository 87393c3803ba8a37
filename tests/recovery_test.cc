// Crash/restart/replay mechanics (§2.5, §4.4): state reconstruction from the
// log, duplicate answers after recovery, torn tails, the recovery service's
// durable registration table.

#include <gtest/gtest.h>

#include "recovery/recovery_service.h"
#include "tests/test_components.h"

namespace phoenix {
namespace {

using phoenix::testing::ExecutionLog;
using phoenix::testing::RegisterTestComponents;

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUpSim(RuntimeOptions opts = {}) {
    sim_ = std::make_unique<Simulation>(opts);
    RegisterTestComponents(sim_->factories());
    alpha_ = &sim_->AddMachine("alpha");
    server_ = &alpha_->CreateProcess();
    ExecutionLog::Reset();
  }

  Result<std::string> MakeCounter(const std::string& name = "c") {
    ExternalClient admin(sim_.get(), "alpha");
    return admin.CreateComponent(*server_, "Counter", name,
                                 ComponentKind::kPersistent, {});
  }

  std::unique_ptr<Simulation> sim_;
  Machine* alpha_ = nullptr;
  Process* server_ = nullptr;
};

TEST_F(RecoveryTest, StateSurvivesCrashViaReplay) {
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  auto uri = MakeCounter();
  ASSERT_TRUE(uri.ok());
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(i)).ok());
  }

  server_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());

  auto got = client.Call(*uri, "Get", {});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->AsInt(), 1 + 2 + 3 + 4 + 5);
}

TEST_F(RecoveryTest, ReplayReexecutesLoggedCalls) {
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  auto uri = MakeCounter();
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(2)).ok());
  int before = ExecutionLog::Of("c.Add");

  server_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().RecoverFully(1).ok());
  // Redo recovery re-ran the method bodies.
  EXPECT_EQ(ExecutionLog::Of("c.Add"), before + 2);
}

TEST_F(RecoveryTest, UnforcedTailIsLost) {
  // A call whose records never reached the disk is simply gone after a
  // crash — that's exactly why sends force.
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  auto uri = MakeCounter();
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(10)).ok());

  // Hand-deliver a call and kill the process before any force: build a
  // message that looks like it comes from a persistent client (no forced
  // Algorithm 3 path).
  CallMessage msg;
  msg.target_uri = *uri;
  msg.method = "Add";
  msg.args = MakeArgs(100);
  msg.has_call_id = true;
  msg.call_id = CallId{ClientKey{"ghost", 9, 9}, 1};
  msg.has_sender_info = true;
  msg.sender_kind = ComponentKind::kPersistent;
  ASSERT_TRUE(sim_->RouteCall("alpha", msg).ok());
  // The +100 is only in the buffer (message 1 unforced; no send-forced
  // reply: the reply force happened... (optimized mode forces on reply to
  // persistent client)). So instead kill before that force could happen:
  // inject at kBeforeReplySend on the *next* call.
  sim_->injector().AddTrigger("alpha", 1, FailurePoint::kBeforeReplySend, 1);
  CallMessage msg2 = msg;
  msg2.call_id.seq = 2;
  msg2.args = MakeArgs(1000);
  Result<ReplyMessage> r = sim_->RouteCall("alpha", msg2);
  EXPECT_FALSE(r.ok());  // server crashed mid-call
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());

  auto got = client.Call(*uri, "Get", {});
  ASSERT_TRUE(got.ok());
  // +10 was committed (reply to external forced); +100 was committed by its
  // reply force; +1000 died in the buffer.
  EXPECT_EQ(got->AsInt(), 110);
}

TEST_F(RecoveryTest, DuplicateAfterRecoveryAnsweredFromLog) {
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  auto uri = MakeCounter();

  CallMessage msg;
  msg.target_uri = *uri;
  msg.method = "Add";
  msg.args = MakeArgs(42);
  msg.has_call_id = true;
  msg.call_id = CallId{ClientKey{"ghost", 9, 9}, 7};
  msg.has_sender_info = true;
  msg.sender_kind = ComponentKind::kPersistent;
  ASSERT_TRUE(sim_->RouteCall("alpha", msg).ok());

  server_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().RecoverFully(1).ok());
  int executions = ExecutionLog::Of("c.Add");

  // The "client" retries with the same ID; the recovered last-call table
  // must answer without re-executing.
  Result<ReplyMessage> dup = sim_->RouteCall("alpha", msg);
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->value.AsInt(), 42);
  EXPECT_EQ(ExecutionLog::Of("c.Add"), executions);

  auto got = client.Call(*uri, "Get", {});
  EXPECT_EQ(got->AsInt(), 42);  // applied exactly once
}

TEST_F(RecoveryTest, RecoveryRestoresOutgoingSequence) {
  // After recovery the context's outgoing counter continues where it left
  // off (condition 2: IDs deterministically derived).
  SetUpSim();
  ExternalClient admin(sim_.get(), "alpha");
  Process& downstream_proc = alpha_->CreateProcess();
  auto counter = admin.CreateComponent(downstream_proc, "Counter", "leaf",
                                       ComponentKind::kPersistent, {});
  auto chain = admin.CreateComponent(*server_, "Chain", "mid",
                                     ComponentKind::kPersistent,
                                     MakeArgs(*counter));
  ASSERT_TRUE(admin.Call(*chain, "Bump", MakeArgs(1)).ok());
  ASSERT_TRUE(admin.Call(*chain, "Bump", MakeArgs(2)).ok());
  uint64_t seq_before =
      server_->FindContextOfComponent("mid")->last_outgoing_seq();

  server_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  EXPECT_EQ(server_->FindContextOfComponent("mid")->last_outgoing_seq(),
            seq_before);

  // And the next call gets a fresh ID that the downstream accepts.
  ASSERT_TRUE(admin.Call(*chain, "Bump", MakeArgs(3)).ok());
  EXPECT_EQ(admin.Call(*counter, "Get", {})->AsInt(), 6);
}

TEST_F(RecoveryTest, SubordinatesRecreatedByReplay) {
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  ExternalClient admin(sim_.get(), "alpha");
  auto parent = admin.CreateComponent(*server_, "ParentWithSub", "p",
                                      ComponentKind::kPersistent, {});
  ASSERT_TRUE(parent.ok());
  ASSERT_TRUE(client.Call(*parent, "BumpSub", MakeArgs(4)).ok());
  ASSERT_TRUE(client.Call(*parent, "BumpSub", MakeArgs(5)).ok());

  server_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());

  auto got = client.Call(*parent, "GetSub", {});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->AsInt(), 9);
}

TEST_F(RecoveryTest, MultipleCrashesAccumulateCorrectly) {
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  auto uri = MakeCounter();
  int64_t expected = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(i)).ok());
      expected += i;
    }
    server_->Kill();
    ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  }
  EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), expected);
}

TEST_F(RecoveryTest, RecoveryServiceTableIsDurable) {
  SetUpSim();
  alpha_->CreateProcess();
  auto table = alpha_->recovery_service().ReadDurableTable();
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->size(), 2u);
  EXPECT_EQ((*table)[1], "alpha/proc1.log");
  EXPECT_EQ((*table)[2], "alpha/proc2.log");
}

TEST_F(RecoveryTest, EnsureAliveIsNoOpForLiveProcess) {
  SetUpSim();
  uint64_t recoveries = alpha_->recovery_service().recoveries_performed();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  EXPECT_EQ(alpha_->recovery_service().recoveries_performed(), recoveries);
  EXPECT_TRUE(
      alpha_->recovery_service().EnsureProcessAlive(99).IsNotFound());
}

TEST_F(RecoveryTest, TornTailIgnoredDuringRecovery) {
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  auto uri = MakeCounter();
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(5)).ok());

  // Simulate a torn final write: chop bytes off the stable log.
  std::string log_name = server_->log_name();
  uint64_t size = sim_->storage().LogSize(log_name);
  server_->Kill();
  sim_->storage().TruncateLog(log_name, size - 3);

  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  // The component still exists; the +5's reply record was torn, but the
  // incoming record survived, so replay still applies it (or the client
  // retries) — state is 5 either way here because message 1 was forced.
  auto got = client.Call(*uri, "Get", {});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->AsInt(), 5);
}

TEST_F(RecoveryTest, ClientRetryDrivesServerRestart) {
  // The caller's interceptor retries with the same ID until it gets a
  // response (condition 4), restarting the dead server along the way.
  SetUpSim();
  ExternalClient admin(sim_.get(), "alpha");
  Process& client_proc = alpha_->CreateProcess();
  auto counter = admin.CreateComponent(*server_, "Counter", "c",
                                       ComponentKind::kPersistent, {});
  auto chain = admin.CreateComponent(client_proc, "Chain", "driver",
                                     ComponentKind::kPersistent,
                                     MakeArgs(*counter));
  ASSERT_TRUE(chain.ok());

  server_->Kill();
  // Calling through the persistent driver transparently revives the server.
  auto r = admin.Call(*chain, "Bump", MakeArgs(5));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(server_->alive());
  EXPECT_EQ(admin.Call(*counter, "Get", {})->AsInt(), 5);
}

}  // namespace
}  // namespace phoenix
