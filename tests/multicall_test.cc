// §3.5 multi-call optimization, end to end: a persistent component calling
// N distinct servers in one method execution forces once instead of N
// times, stays correct under crashes, and forces again on repeat calls to
// the same server.

#include <gtest/gtest.h>

#include "common/strings.h"
#include "recovery/recovery_service.h"
#include "tests/test_components.h"

namespace phoenix {
namespace {

using phoenix::testing::RegisterTestComponents;

// Fans one incoming call out to all its downstream counters.
class FanOut : public Component {
 public:
  void RegisterMethods(MethodRegistry& methods) override {
    methods.Register("FanOut", [this](const ArgList& a) -> Result<Value> {
      for (const Value& uri : targets_.AsList()) {
        PHX_RETURN_IF_ERROR(
            Call(uri.AsString(), "Add", {a[0]}).status());
      }
      return Value(static_cast<int64_t>(targets_.AsList().size()));
    });
    methods.Register("FanOutTwice", [this](const ArgList& a) -> Result<Value> {
      for (int round = 0; round < 2; ++round) {
        for (const Value& uri : targets_.AsList()) {
          PHX_RETURN_IF_ERROR(
              Call(uri.AsString(), "Add", {a[0]}).status());
        }
      }
      return Value(int64_t{2});
    });
  }
  void RegisterFields(FieldRegistry& fields) override {
    fields.RegisterValue("targets", &targets_);
  }
  Status Initialize(const ArgList& args) override {
    Value::List uris;
    for (const Value& v : args) uris.push_back(v);
    targets_ = Value(std::move(uris));
    return Status::OK();
  }

 private:
  Value targets_{Value::List{}};
};

class MultiCallTest : public ::testing::Test {
 protected:
  void SetUpSim(bool multicall, int num_targets) {
    RuntimeOptions opts;
    opts.multi_call_optimization = multicall;
    sim_ = std::make_unique<Simulation>(opts);
    RegisterTestComponents(sim_->factories());
    sim_->factories().Register<FanOut>("FanOut");
    alpha_ = &sim_->AddMachine("alpha");
    beta_ = &sim_->AddMachine("beta");
    fan_proc_ = &alpha_->CreateProcess();
    target_proc_ = &beta_->CreateProcess();

    ExternalClient admin(sim_.get(), "alpha");
    ArgList uris;
    for (int i = 0; i < num_targets; ++i) {
      auto uri = admin.CreateComponent(*target_proc_, "Counter",
                                       StrCat("t", i),
                                       ComponentKind::kPersistent, {});
      ASSERT_TRUE(uri.ok());
      targets_.push_back(*uri);
      uris.emplace_back(*uri);
    }
    auto fan = admin.CreateComponent(*fan_proc_, "FanOut", "fan",
                                     ComponentKind::kPersistent,
                                     std::move(uris));
    ASSERT_TRUE(fan.ok());
    fan_uri_ = *fan;
    // Warm the remote-type table so the measured call is steady-state.
    ASSERT_TRUE(admin.Call(fan_uri_, "FanOut", MakeArgs(0)).ok());
  }

  std::unique_ptr<Simulation> sim_;
  Machine* alpha_ = nullptr;
  Machine* beta_ = nullptr;
  Process* fan_proc_ = nullptr;
  Process* target_proc_ = nullptr;
  std::vector<std::string> targets_;
  std::string fan_uri_;
};

TEST_F(MultiCallTest, WithoutOptimizationForcesPerServer) {
  SetUpSim(/*multicall=*/false, 5);
  ExternalClient client(sim_.get(), "alpha");
  uint64_t before = fan_proc_->log().num_forces();
  ASSERT_TRUE(client.Call(fan_uri_, "FanOut", MakeArgs(1)).ok());
  // Message-1 force (external client) + 5 outgoing-call forces... of which
  // only those with something buffered hit the disk: msg-1 force covers the
  // incoming record, the first outgoing force is a no-op (nothing new),
  // and each subsequent one flushes the previous reply record. Plus the
  // final reply force (short record). Total real forces: 1 + 4 + 1.
  EXPECT_EQ(fan_proc_->log().num_forces() - before, 6u);
}

TEST_F(MultiCallTest, WithOptimizationForcesOnce) {
  SetUpSim(/*multicall=*/true, 5);
  ExternalClient client(sim_.get(), "alpha");
  uint64_t before = fan_proc_->log().num_forces();
  ASSERT_TRUE(client.Call(fan_uri_, "FanOut", MakeArgs(1)).ok());
  // Message-1 force + the final reply force (which flushes all buffered
  // reply records). The 5 outgoing calls force nothing new.
  EXPECT_EQ(fan_proc_->log().num_forces() - before, 2u);
}

TEST_F(MultiCallTest, RepeatCallToSameServerForcesAgain) {
  SetUpSim(/*multicall=*/true, 3);
  ExternalClient client(sim_.get(), "alpha");
  uint64_t before = fan_proc_->log().num_forces();
  ASSERT_TRUE(client.Call(fan_uri_, "FanOutTwice", MakeArgs(1)).ok());
  // Round 2 revisits all 3 servers: each repeat call must force (3 real
  // flushes of the pending reply records), on top of the message-1 force
  // and the reply force.
  EXPECT_EQ(fan_proc_->log().num_forces() - before, 5u);
}

TEST_F(MultiCallTest, CrashAfterUnforcedCallsStillExactlyOnce) {
  // The optimization's safety argument (§3.5): the servers' last-call
  // tables capture the nondeterminism, so recovery re-obtains the replies
  // by re-sending with the same IDs.
  SetUpSim(/*multicall=*/true, 4);
  sim_->injector().AddTrigger("alpha", fan_proc_->pid(),
                              FailurePoint::kBeforeReplySend, 1);
  // Drive through a persistent client so the crash is fully masked.
  ExternalClient admin(sim_.get(), "alpha");
  Process& driver_proc = alpha_->CreateProcess();
  auto driver = admin.CreateComponent(driver_proc, "Chain", "driver",
                                      ComponentKind::kPersistent,
                                      MakeArgs(fan_uri_, "FanOut"));
  ASSERT_TRUE(driver.ok());

  auto r = admin.Call(*driver, "Bump", MakeArgs(7));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(sim_->injector().crashes_fired(), 1u);

  for (const std::string& t : targets_) {
    // 0 from warm-up + 7 exactly once.
    EXPECT_EQ(admin.Call(t, "Get", {})->AsInt(), 7) << t;
  }
}

TEST_F(MultiCallTest, CrashMidFanOutRedeliversWithSameIds) {
  SetUpSim(/*multicall=*/true, 4);
  // Crash after the 3rd outgoing reply of the measured call (triggers count
  // from registration, so the warm-up's hits don't shift the schedule).
  sim_->injector().AddTrigger("alpha", fan_proc_->pid(),
                              FailurePoint::kAfterOutgoingReply, 3);
  ExternalClient admin(sim_.get(), "alpha");
  Process& driver_proc = alpha_->CreateProcess();
  auto driver = admin.CreateComponent(driver_proc, "Chain", "driver",
                                      ComponentKind::kPersistent,
                                      MakeArgs(fan_uri_, "FanOut"));
  ASSERT_TRUE(driver.ok());
  auto r = admin.Call(*driver, "Bump", MakeArgs(3));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(sim_->injector().crashes_fired(), 1u);
  for (const std::string& t : targets_) {
    EXPECT_EQ(admin.Call(t, "Get", {})->AsInt(), 3) << t;
  }
}

}  // namespace
}  // namespace phoenix
