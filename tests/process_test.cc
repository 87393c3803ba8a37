// Process-level behavior: the activator, component tables, lifecycle,
// call-delivery errors, and the crash graveyard's lifetime.

#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "recovery/recovery_service.h"
#include "tests/test_components.h"

namespace phoenix {
namespace {

using phoenix::testing::RegisterTestComponents;

class ProcessTest : public ::testing::Test {
 protected:
  ProcessTest() {
    sim_ = std::make_unique<Simulation>();
    RegisterTestComponents(sim_->factories());
    alpha_ = &sim_->AddMachine("alpha");
    proc_ = &alpha_->CreateProcess();
  }

  std::unique_ptr<Simulation> sim_;
  Machine* alpha_ = nullptr;
  Process* proc_ = nullptr;
};

TEST_F(ProcessTest, IdentityAndNames) {
  EXPECT_EQ(proc_->pid(), 1u);
  EXPECT_EQ(proc_->machine_name(), "alpha");
  EXPECT_EQ(proc_->log_name(), "alpha/proc1.log");
  EXPECT_EQ(proc_->ActivatorUri(), "phx://alpha/1/_activator");
  EXPECT_TRUE(proc_->alive());
}

TEST_F(ProcessTest, PidsAssignedSequentiallyByRecoveryService) {
  Process& p2 = alpha_->CreateProcess();
  Process& p3 = alpha_->CreateProcess();
  EXPECT_EQ(p2.pid(), 2u);
  EXPECT_EQ(p3.pid(), 3u);
  EXPECT_EQ(alpha_->GetProcess(2), &p2);
  EXPECT_EQ(alpha_->GetProcess(42), nullptr);
}

TEST_F(ProcessTest, ActivatorValidatesArguments) {
  ExternalClient client(sim_.get(), "alpha");
  auto bad = client.Call(proc_->ActivatorUri(), "Create", MakeArgs(1, 2));
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ProcessTest, CreateRejectsExternalAndSubordinateKinds) {
  auto ext = proc_->CreateComponent("Counter", "x", ComponentKind::kExternal,
                                    {});
  EXPECT_EQ(ext.status().code(), StatusCode::kInvalidArgument);
  auto sub = proc_->CreateComponent("Counter", "y",
                                    ComponentKind::kSubordinate, {});
  EXPECT_EQ(sub.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ProcessTest, CreateAssignsSequentialContextIds) {
  auto a = proc_->CreateComponent("Counter", "a", ComponentKind::kPersistent,
                                  {});
  auto b = proc_->CreateComponent("Counter", "b", ComponentKind::kPersistent,
                                  {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(proc_->FindContextOfComponent("a")->id(), 1u);
  EXPECT_EQ(proc_->FindContextOfComponent("b")->id(), 2u);
  EXPECT_EQ(proc_->FindComponent("a")->instance->name(), "a");
  EXPECT_EQ(proc_->FindComponent("zzz"), nullptr);
}

TEST_F(ProcessTest, InitializeFailurePropagates) {
  // Chain's Initialize requires a string downstream when args are given.
  auto r = proc_->CreateComponent("Bad?", "b", ComponentKind::kPersistent, {});
  EXPECT_TRUE(r.status().IsNotFound());  // unknown factory
}

TEST_F(ProcessTest, DeliverToDeadProcessIsUnavailable) {
  auto uri = proc_->CreateComponent("Counter", "c",
                                    ComponentKind::kPersistent, {});
  proc_->Kill();
  CallMessage msg;
  msg.target_uri = *uri;
  msg.method = "Get";
  EXPECT_TRUE(proc_->DeliverCall(msg).status().IsUnavailable());
  EXPECT_FALSE(proc_->alive());
  EXPECT_EQ(proc_->crash_count(), 1u);
}

TEST_F(ProcessTest, KillIsIdempotent) {
  proc_->Kill();
  proc_->Kill();
  EXPECT_EQ(proc_->crash_count(), 1u);
}

TEST_F(ProcessTest, StartResetsVolatileState) {
  auto uri = proc_->CreateComponent("Counter", "c",
                                    ComponentKind::kPersistent, {});
  ASSERT_TRUE(uri.ok());
  proc_->Kill();
  proc_->Start();  // bare start, no recovery
  EXPECT_TRUE(proc_->alive());
  EXPECT_EQ(proc_->FindComponent("c"), nullptr);  // volatile tables empty
  EXPECT_NE(proc_->FindComponent(kActivatorName), nullptr);
}

TEST_F(ProcessTest, ActivatorIsCallableComponent) {
  ExternalClient client(sim_.get(), "alpha");
  auto created =
      client.Call(proc_->ActivatorUri(), "Create",
                  MakeArgs("Counter", "via_activator",
                           static_cast<int64_t>(ComponentKind::kPersistent),
                           Value::List{}));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(created->AsString(), "phx://alpha/1/via_activator");
  EXPECT_TRUE(client.Call(created->AsString(), "Add", MakeArgs(1)).ok());
}

TEST_F(ProcessTest, ComponentUriRoundTrips) {
  auto uri = proc_->CreateComponent("Counter", "c",
                                    ComponentKind::kPersistent, {});
  ComponentSlot* slot = proc_->FindComponent("c");
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->instance->uri(), *uri);
  EXPECT_EQ(slot->instance->kind(), ComponentKind::kPersistent);
  EXPECT_EQ(slot->instance->type_name(), "Counter");
}

TEST_F(ProcessTest, ComponentKindNamesAreStable) {
  EXPECT_STREQ(ComponentKindName(ComponentKind::kExternal), "external");
  EXPECT_STREQ(ComponentKindName(ComponentKind::kPersistent), "persistent");
  EXPECT_STREQ(ComponentKindName(ComponentKind::kSubordinate), "subordinate");
  EXPECT_STREQ(ComponentKindName(ComponentKind::kFunctional), "functional");
  EXPECT_STREQ(ComponentKindName(ComponentKind::kReadOnly), "read_only");
  EXPECT_TRUE(IsStatefulKind(ComponentKind::kSubordinate));
  EXPECT_FALSE(IsStatefulKind(ComponentKind::kFunctional));
  EXPECT_FALSE(IsPhoenixKind(ComponentKind::kExternal));
}

TEST_F(ProcessTest, RestartsOutsideSessionsFreeTheGraveyard) {
  ExternalClient client(sim_.get(), "alpha");
  std::vector<std::string> uris;
  for (int i = 0; i < 4; ++i) {
    auto uri = client.CreateComponent(*proc_, "Counter",
                                      "c" + std::to_string(i),
                                      ComponentKind::kPersistent, {});
    ASSERT_TRUE(uri.ok());
    uris.push_back(*uri);
  }
  for (int cycle = 1; cycle <= 5; ++cycle) {
    for (const std::string& uri : uris) {
      ASSERT_TRUE(client.Call(uri, "Add", MakeArgs(1)).ok());
    }
    proc_->Kill();
    // The dead process keeps its contexts until the restart: nothing has
    // proven yet that no frame runs in them.
    EXPECT_EQ(proc_->graveyard_size(), 1u) << "cycle " << cycle;
    ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
    // Restarted on the driver chain with no session scheduler and no
    // context on the stack: the old contexts and log are freed.
    EXPECT_EQ(proc_->graveyard_size(), 0u) << "cycle " << cycle;
    for (const std::string& uri : uris) {
      EXPECT_EQ(client.Call(uri, "Get", {})->AsInt(), cycle) << uri;
    }
  }
}

TEST(ProcessGraveyardTest, SessionParkedInKilledContextKeepsItAlive) {
  RuntimeOptions opts;
  opts.group_commit = true;  // the reply-time force parks the session
  Simulation sim(opts);
  RegisterTestComponents(sim.factories());
  Machine& alpha = sim.AddMachine("alpha");
  Process& proc = alpha.CreateProcess();
  ExternalClient admin(&sim, "alpha");
  auto uri = admin.CreateComponent(proc, "Counter", "c",
                                   ComponentKind::kPersistent, {});
  ASSERT_TRUE(uri.ok());
  Context* parked_in = proc.FindContextOfComponent("c");
  ASSERT_NE(parked_in, nullptr);

  Status caller = Status::Internal("not run");
  size_t graveyard_after_restart = 0;
  bool killed_while_serving = false;
  std::vector<std::function<void()>> bodies;
  bodies.push_back([&] {
    ExternalClient driver(&sim, "alpha");
    caller = driver.Call(*uri, "Add", MakeArgs(1)).status();
  });
  bodies.push_back([&] {
    // Wait until the other session is inside the counter's context (parked
    // on its reply-time durability wait), then kill and restart the
    // process under it.
    sim.session_scheduler()->ParkUntil([&] { return parked_in->serving(); });
    killed_while_serving = parked_in->serving();
    proc.Kill();
    Status restarted = alpha.recovery_service().EnsureProcessAlive(1);
    EXPECT_TRUE(restarted.ok()) << restarted.ToString();
    graveyard_after_restart = proc.graveyard_size();
  });
  sim.RunSessions(std::move(bodies));

  EXPECT_TRUE(killed_while_serving);
  // The restart ran inside RunSessions, so the old context and log stayed
  // in the graveyard for the parked session to resume on and unwind
  // through; the caller's retry then reached the restarted process.
  EXPECT_GE(graveyard_after_restart, 2u);
  EXPECT_TRUE(caller.ok()) << caller.ToString();
  EXPECT_GE(proc.graveyard_size(), 2u);

  // The next restart outside RunSessions frees them.
  proc.Kill();
  ASSERT_TRUE(alpha.recovery_service().EnsureProcessAlive(1).ok());
  EXPECT_EQ(proc.graveyard_size(), 0u);
  ASSERT_TRUE(admin.Call(*uri, "Get", {}).ok());
}

}  // namespace
}  // namespace phoenix
