// Property-based sweeps: seeded random workloads with seeded random crash
// schedules must end in exactly the state of a failure-free run of the same
// workload — across logging modes and checkpoint cadences.

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/strings.h"
#include "tests/test_components.h"
#include "wal/log_manager.h"
#include "wal/log_reader.h"

namespace phoenix {
namespace {

using phoenix::testing::RegisterTestComponents;

struct PropertyConfig {
  uint64_t seed;
  LoggingMode mode;
  uint32_t save_state_every;
};

std::string ConfigName(const ::testing::TestParamInfo<PropertyConfig>& info) {
  const PropertyConfig& c = info.param;
  return StrCat(c.mode == LoggingMode::kBaseline ? "baseline" : "optimized",
                "_seed", c.seed, "_ckpt", c.save_state_every);
}

class RandomCrashPropertyTest
    : public ::testing::TestWithParam<PropertyConfig> {
 protected:
  struct FinalState {
    int64_t driver = 0;
    int64_t mid = 0;
    int64_t leaf = 0;
    int64_t sum_of_replies = 0;
  };

  FinalState Run(bool inject) {
    const PropertyConfig& cfg = GetParam();
    RuntimeOptions opts;
    opts.logging_mode = cfg.mode;
    opts.save_context_state_every = cfg.save_state_every;
    opts.process_checkpoint_every = cfg.save_state_every * 3;
    Simulation sim(opts);
    RegisterTestComponents(sim.factories());
    Machine& alpha = sim.AddMachine("alpha");
    Machine& beta = sim.AddMachine("beta");
    Process& driver_proc = alpha.CreateProcess();  // never crashed
    Process& mid_proc = alpha.CreateProcess();
    Process& leaf_proc = beta.CreateProcess();

    ExternalClient admin(&sim, "alpha");
    auto leaf = admin.CreateComponent(leaf_proc, "Counter", "leaf",
                                      ComponentKind::kPersistent, {});
    auto mid = admin.CreateComponent(mid_proc, "Chain", "mid",
                                     ComponentKind::kPersistent,
                                     MakeArgs(*leaf));
    auto driver = admin.CreateComponent(driver_proc, "Chain", "driver",
                                        ComponentKind::kPersistent,
                                        MakeArgs(*mid, "Bump"));
    EXPECT_TRUE(driver.ok());

    if (inject) {
      // Random crash schedule over the crashable processes and all hook
      // points, derived from the seed.
      Random schedule(cfg.seed * 977);
      int crashes = 1 + static_cast<int>(schedule.Uniform(4));
      for (int i = 0; i < crashes; ++i) {
        bool on_mid = schedule.Bernoulli(0.5);
        auto point = static_cast<FailurePoint>(schedule.Uniform(6));
        uint64_t hit = 1 + schedule.Uniform(20);
        sim.injector().AddTrigger(on_mid ? "alpha" : "beta",
                                  on_mid ? mid_proc.pid() : leaf_proc.pid(),
                                  point, hit);
      }
    }

    // Seeded workload, identical in both runs.
    Random workload(cfg.seed);
    FinalState out;
    for (int i = 0; i < 30; ++i) {
      int64_t n = workload.UniformRange(-5, 9);
      auto r = admin.Call(*driver, "Bump", MakeArgs(n));
      EXPECT_TRUE(r.ok()) << "op " << i << ": " << r.status().ToString();
      if (r.ok()) out.sum_of_replies += r->AsInt();
    }
    out.driver = admin.Call(*driver, "Get", {})->AsInt();
    out.mid = admin.Call(*mid, "Get", {})->AsInt();
    out.leaf = admin.Call(*leaf, "Get", {})->AsInt();
    return out;
  }
};

TEST_P(RandomCrashPropertyTest, CrashScheduleDoesNotChangeOutcome) {
  FinalState clean = Run(/*inject=*/false);
  EXPECT_EQ(clean.driver, clean.mid);
  EXPECT_EQ(clean.mid, clean.leaf);

  FinalState crashed = Run(/*inject=*/true);
  EXPECT_EQ(crashed.driver, clean.driver);
  EXPECT_EQ(crashed.mid, clean.mid);
  EXPECT_EQ(crashed.leaf, clean.leaf);
  // The replies the program observed are identical too: failures are
  // masked, not just repaired afterwards.
  EXPECT_EQ(crashed.sum_of_replies, clean.sum_of_replies);
}

std::vector<PropertyConfig> PropertyConfigs() {
  std::vector<PropertyConfig> configs;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    configs.push_back({seed, LoggingMode::kOptimized, 0});
    configs.push_back({seed, LoggingMode::kOptimized, 4});
    if (seed <= 5) {
      configs.push_back({seed, LoggingMode::kBaseline, 0});
      configs.push_back({seed, LoggingMode::kBaseline, 6});
    }
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCrashPropertyTest,
                         ::testing::ValuesIn(PropertyConfigs()), ConfigName);

// Log-level property: whatever the workload, LSNs handed out by the log
// manager strictly increase, and the stable prefix only ever grows.
TEST(LogPropertyTest, LsnsMonotoneAndStablePrefixGrows) {
  Random rng(4242);
  StableStorage storage;
  DiskModel disk(DiskParams{}, 1);
  SimClock clock;
  CostModel costs;
  LogManager log("m/p.log", &storage, &disk, &clock, &costs);

  uint64_t last_lsn = 0;
  uint64_t last_stable = 0;
  bool first = true;
  for (int i = 0; i < 500; ++i) {
    if (rng.Bernoulli(0.7)) {
      IncomingCallRecord rec;
      rec.context_id = rng.Uniform(5);
      rec.method = StrCat("m", rng.Uniform(3));
      for (uint64_t k = 0; k < rng.Uniform(4); ++k) {
        rec.args.emplace_back(static_cast<int64_t>(rng.Next() % 1000));
      }
      uint64_t lsn = log.Append(rec);
      EXPECT_TRUE(first || lsn > last_lsn);
      last_lsn = lsn;
      first = false;
    } else {
      log.Force();
      uint64_t stable = log.StableLog().size();
      EXPECT_GE(stable, last_stable);
      last_stable = stable;
    }
  }
  log.Force();
  // Every record is readable back in order.
  LogReader reader(log.StableLog(), 0);
  uint64_t prev = 0;
  bool first_read = true;
  while (auto rec = reader.Next()) {
    EXPECT_TRUE(first_read || rec->lsn > prev);
    prev = rec->lsn;
    first_read = false;
  }
  EXPECT_FALSE(reader.tail_torn());
}

}  // namespace
}  // namespace phoenix
