#include "sim/failure_injector.h"

#include <gtest/gtest.h>

namespace phoenix {
namespace {

TEST(FailureInjectorTest, TriggerFiresOnNthHit) {
  FailureInjector injector;
  injector.AddTrigger("m", 1, FailurePoint::kBeforeReplySend, 3);
  EXPECT_FALSE(injector.ShouldCrash("m", 1, FailurePoint::kBeforeReplySend));
  EXPECT_FALSE(injector.ShouldCrash("m", 1, FailurePoint::kBeforeReplySend));
  EXPECT_TRUE(injector.ShouldCrash("m", 1, FailurePoint::kBeforeReplySend));
  // One-shot: does not fire again.
  EXPECT_FALSE(injector.ShouldCrash("m", 1, FailurePoint::kBeforeReplySend));
  EXPECT_EQ(injector.crashes_fired(), 1u);
}

TEST(FailureInjectorTest, TriggersAreKeyedByProcessAndPoint) {
  FailureInjector injector;
  injector.AddTrigger("m", 1, FailurePoint::kBeforeOutgoingSend, 1);
  EXPECT_FALSE(injector.ShouldCrash("m", 2, FailurePoint::kBeforeOutgoingSend));
  EXPECT_FALSE(injector.ShouldCrash("m", 1, FailurePoint::kAfterReplySend));
  EXPECT_FALSE(injector.ShouldCrash("n", 1, FailurePoint::kBeforeOutgoingSend));
  EXPECT_TRUE(injector.ShouldCrash("m", 1, FailurePoint::kBeforeOutgoingSend));
}

TEST(FailureInjectorTest, MultipleTriggersSameKey) {
  FailureInjector injector;
  injector.AddTrigger("m", 1, FailurePoint::kAfterIncomingLogged, 1);
  injector.AddTrigger("m", 1, FailurePoint::kAfterIncomingLogged, 3);
  EXPECT_TRUE(injector.ShouldCrash("m", 1, FailurePoint::kAfterIncomingLogged));
  EXPECT_FALSE(injector.ShouldCrash("m", 1, FailurePoint::kAfterIncomingLogged));
  EXPECT_TRUE(injector.ShouldCrash("m", 1, FailurePoint::kAfterIncomingLogged));
  EXPECT_EQ(injector.crashes_fired(), 2u);
}

TEST(FailureInjectorTest, FiredCrashesAreCountedPerPoint) {
  FailureInjector injector;
  injector.AddTrigger("m", 1, FailurePoint::kDuringStateSave, 1);
  injector.AddTrigger("m", 1, FailurePoint::kDuringStateSave, 2);
  injector.AddTrigger("m", 1, FailurePoint::kDuringCheckpoint, 5);  // unmet
  EXPECT_TRUE(injector.ShouldCrash("m", 1, FailurePoint::kDuringStateSave));
  EXPECT_TRUE(injector.ShouldCrash("m", 1, FailurePoint::kDuringStateSave));
  EXPECT_FALSE(injector.ShouldCrash("m", 1, FailurePoint::kDuringCheckpoint));
  EXPECT_EQ(injector.crashes_fired_at(FailurePoint::kDuringStateSave), 2u);
  EXPECT_EQ(injector.crashes_fired_at(FailurePoint::kDuringCheckpoint), 0u);
  EXPECT_EQ(injector.crashes_fired(), 2u);
  injector.Clear();
  EXPECT_EQ(injector.crashes_fired_at(FailurePoint::kDuringStateSave), 0u);
}

TEST(FailureInjectorTest, HitCountsPersistAcrossNonFiringHits) {
  FailureInjector injector;
  for (int i = 0; i < 5; ++i) {
    injector.ShouldCrash("m", 7, FailurePoint::kBeforeIncomingLogged);
  }
  EXPECT_EQ(injector.HitCount("m", 7, FailurePoint::kBeforeIncomingLogged), 5u);
  EXPECT_EQ(injector.HitCount("m", 7, FailurePoint::kAfterReplySend), 0u);
}

TEST(FailureInjectorTest, RandomCrashesAreSeededAndBounded) {
  FailureInjector a, b;
  a.EnableRandomCrashes(0.3, 12345);
  b.EnableRandomCrashes(0.3, 12345);
  int fired_a = 0, fired_b = 0;
  for (int i = 0; i < 300; ++i) {
    fired_a += a.ShouldCrash("m", 1, FailurePoint::kBeforeReplySend) ? 1 : 0;
    fired_b += b.ShouldCrash("m", 1, FailurePoint::kBeforeReplySend) ? 1 : 0;
  }
  EXPECT_EQ(fired_a, fired_b);  // reproducible
  EXPECT_GT(fired_a, 50);
  EXPECT_LT(fired_a, 150);
}

TEST(FailureInjectorTest, ClearResetsEverything) {
  FailureInjector injector;
  injector.AddTrigger("m", 1, FailurePoint::kBeforeReplySend, 1);
  injector.ShouldCrash("m", 1, FailurePoint::kBeforeReplySend);
  injector.Clear();
  EXPECT_EQ(injector.crashes_fired(), 0u);
  EXPECT_EQ(injector.HitCount("m", 1, FailurePoint::kBeforeReplySend), 0u);
  EXPECT_FALSE(injector.ShouldCrash("m", 1, FailurePoint::kBeforeReplySend));
}

TEST(FailureInjectorTest, TornTailsAreSeededAndBounded) {
  FailureInjector a, b;
  a.EnableTornTails(0.5, 99, /*max_tear_bytes=*/16);
  b.EnableTornTails(0.5, 99, /*max_tear_bytes=*/16);
  int fired = 0;
  for (int i = 0; i < 200; ++i) {
    uint64_t tear_a = a.MaybeTearBytes();
    EXPECT_EQ(tear_a, b.MaybeTearBytes());  // reproducible
    if (tear_a > 0) {
      ++fired;
      EXPECT_LE(tear_a, 16u);
    }
  }
  EXPECT_GT(fired, 50);
  EXPECT_LT(fired, 150);
  EXPECT_EQ(a.torn_tails_fired(), static_cast<uint64_t>(fired));
}

TEST(FailureInjectorTest, TornTailsOffByDefaultAndClearedByClear) {
  FailureInjector injector;
  EXPECT_EQ(injector.MaybeTearBytes(), 0u);
  injector.EnableTornTails(1.0, 7);
  EXPECT_GT(injector.MaybeTearBytes(), 0u);
  EXPECT_EQ(injector.torn_tails_fired(), 1u);
  injector.Clear();
  EXPECT_EQ(injector.MaybeTearBytes(), 0u);
  EXPECT_EQ(injector.torn_tails_fired(), 0u);
}

TEST(FailureInjectorTest, AllPointsHaveNames) {
  for (int p = 0; p < kNumFailurePoints; ++p) {
    EXPECT_STRNE(FailurePointName(static_cast<FailurePoint>(p)), "unknown");
  }
}

}  // namespace
}  // namespace phoenix
