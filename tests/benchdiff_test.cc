// benchdiff: direction-aware exact cross-run classification, the gate's
// exit classes, alignment of new/removed metrics and variants, SLO budgets,
// the history ledger, byte-determinism of the phoenix.benchdiff.v1 report,
// and the gate over every value of the committed bench/baselines/.

#include "obs/benchdiff.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>

#include "obs/bench_reporter.h"

namespace phoenix::obs {
namespace {

ParsedReport MakeReport(const std::string& bench,
                        const std::vector<ParsedVariant>& variants) {
  ParsedReport report;
  report.bench = bench;
  report.schema = kBenchSchema;
  report.variants = variants;
  return report;
}

const MetricDelta* FindDelta(const BenchDiff& diff, const std::string& bench,
                             const std::string& variant,
                             const std::string& metric) {
  for (const BenchDiffEntry& b : diff.benches) {
    if (b.bench != bench) continue;
    for (const VariantDiff& v : b.variants) {
      if (v.name != variant) continue;
      for (const MetricDelta& d : v.metrics) {
        if (d.metric == metric) return &d;
      }
    }
  }
  return nullptr;
}

TEST(ClassifyDeltaTest, DirectionDecidesImprovementVsRegression) {
  // Lower-is-better (recovery_ms-like): shrinking is the win.
  EXPECT_EQ(ClassifyDelta(100, 90, MetricDirection::kLowerIsBetter),
            DeltaClass::kImprovement);
  EXPECT_EQ(ClassifyDelta(100, 110, MetricDirection::kLowerIsBetter),
            DeltaClass::kRegression);
  // Higher-is-better (speedup-like): the same deltas flip class.
  EXPECT_EQ(ClassifyDelta(100, 90, MetricDirection::kHigherIsBetter),
            DeltaClass::kRegression);
  EXPECT_EQ(ClassifyDelta(100, 110, MetricDirection::kHigherIsBetter),
            DeltaClass::kImprovement);
  // Informational has no better or worse, but a difference is still one.
  EXPECT_EQ(ClassifyDelta(100, 1e9, MetricDirection::kInformational),
            DeltaClass::kChanged);
  EXPECT_EQ(ClassifyDelta(100, 90, MetricDirection::kInformational),
            DeltaClass::kChanged);
  // Equal values are neutral in every direction.
  EXPECT_EQ(ClassifyDelta(100, 100, MetricDirection::kLowerIsBetter),
            DeltaClass::kNeutral);
  EXPECT_EQ(ClassifyDelta(100, 100, MetricDirection::kInformational),
            DeltaClass::kNeutral);
}

TEST(ClassifyDeltaTest, AnyDifferenceClassifies) {
  // The comparison is exact: one ulp either way is a difference.
  const double up = std::nextafter(100.0, 200.0);
  const double down = std::nextafter(100.0, 0.0);
  EXPECT_EQ(ClassifyDelta(100, up, MetricDirection::kLowerIsBetter),
            DeltaClass::kRegression);
  EXPECT_EQ(ClassifyDelta(100, down, MetricDirection::kLowerIsBetter),
            DeltaClass::kImprovement);
  EXPECT_EQ(ClassifyDelta(100, up, MetricDirection::kInformational),
            DeltaClass::kChanged);
  // Around zero and below it, too.
  EXPECT_EQ(ClassifyDelta(0, std::nextafter(0.0, 1.0),
                          MetricDirection::kLowerIsBetter),
            DeltaClass::kRegression);
  EXPECT_EQ(ClassifyDelta(-100, -95, MetricDirection::kLowerIsBetter),
            DeltaClass::kRegression);
}

TEST(BenchDiffTest, ClassifiesByMetaDirection) {
  ParsedVariant base{"v", {{"recovery_ms", 2000.0},
                           {"first_reply_speedup", 1.5},
                           {"sessions", 8.0}}};
  ParsedVariant cand{"v", {{"recovery_ms", 1800.0},
                           {"first_reply_speedup", 1.2},
                           {"sessions", 16.0}}};
  BenchDiff diff = DiffBenchReports({MakeReport("t7", {base})},
                                    {MakeReport("t7", {cand})});
  EXPECT_EQ(FindDelta(diff, "t7", "v", "recovery_ms")->cls,
            DeltaClass::kImprovement);
  EXPECT_EQ(FindDelta(diff, "t7", "v", "first_reply_speedup")->cls,
            DeltaClass::kRegression);
  // Workload descriptor: doubling the session count is neither better nor
  // worse, but it is a different workload than the baseline measured.
  EXPECT_EQ(FindDelta(diff, "t7", "v", "sessions")->cls, DeltaClass::kChanged);
  EXPECT_EQ(diff.improvements, 1u);
  EXPECT_EQ(diff.regressions, 1u);
  EXPECT_EQ(diff.changed, 1u);
  EXPECT_EQ(diff.neutral, 0u);
  EXPECT_EQ(diff.gate(), Gate::kFail);
}

TEST(BenchDiffTest, GateExitClasses) {
  ParsedReport base = MakeReport(
      "b", {{"v", {{"recovery_ms", 100.0}, {"sessions", 8.0}}}});
  auto with = [&](double recovery_ms, double sessions) {
    return MakeReport("b", {{"v", {{"recovery_ms", recovery_ms},
                                   {"sessions", sessions}}}});
  };
  EXPECT_EQ(DiffBenchReports({base}, {base}).gate(), Gate::kPass);
  EXPECT_EQ(DiffBenchReports({base}, {with(90, 8)}).gate(), Gate::kRebaseline);
  EXPECT_EQ(DiffBenchReports({base}, {with(110, 8)}).gate(), Gate::kFail);
  EXPECT_EQ(DiffBenchReports({base}, {with(100, 9)}).gate(), Gate::kFail);
  // An improvement does not mask a change elsewhere.
  EXPECT_EQ(DiffBenchReports({base}, {with(90, 9)}).gate(), Gate::kFail);
  // A violated SLO fails even an identical run.
  BenchDiff identical = DiffBenchReports({base}, {base});
  SloConfig config;
  config.budgets.push_back(Budget{"b/v.recovery_ms", 50});
  CheckSlo(config, {base}, &identical);
  EXPECT_EQ(identical.gate(), Gate::kFail);
  // The enum values are the tool's exit codes.
  EXPECT_EQ(static_cast<int>(Gate::kPass), 0);
  EXPECT_EQ(static_cast<int>(Gate::kFail), 1);
  EXPECT_EQ(static_cast<int>(Gate::kRebaseline), 3);
}

TEST(BenchDiffTest, ReportMetaOverridesBuiltInTable) {
  // A bench can declare a custom direction for a name the built-in table
  // also knows; the report meta wins.
  ParsedReport base = MakeReport("b", {{"v", {{"recovery_ms", 100.0}}}});
  ParsedReport cand = MakeReport("b", {{"v", {{"recovery_ms", 200.0}}}});
  cand.meta["recovery_ms"] =
      MetricMeta{"ms", MetricDirection::kHigherIsBetter};
  BenchDiff diff = DiffBenchReports({base}, {cand});
  EXPECT_EQ(FindDelta(diff, "b", "v", "recovery_ms")->cls,
            DeltaClass::kImprovement);
}

TEST(BenchDiffTest, NewAndRemovedMetricsVariantsBenches) {
  ParsedReport base = MakeReport(
      "b", {{"kept", {{"forces", 10.0}, {"old_metric", 1.0}}},
            {"dropped", {{"forces", 5.0}}}});
  ParsedReport cand = MakeReport(
      "b", {{"kept", {{"forces", 10.0}, {"fresh_metric", 2.0}}},
            {"added", {{"forces", 7.0}}}});
  ParsedReport cand_only = MakeReport("new_bench", {{"v", {{"runs", 3.0}}}});
  BenchDiff diff = DiffBenchReports({base}, {cand, cand_only});

  EXPECT_EQ(FindDelta(diff, "b", "kept", "old_metric")->cls,
            DeltaClass::kRemoved);
  EXPECT_EQ(FindDelta(diff, "b", "kept", "fresh_metric")->cls,
            DeltaClass::kNew);
  EXPECT_EQ(FindDelta(diff, "b", "kept", "forces")->cls, DeltaClass::kNeutral);
  // Whole variants and whole benches surface as new/removed too.
  const BenchDiffEntry* b = &diff.benches[0];
  ASSERT_EQ(b->bench, "b");
  bool saw_dropped = false, saw_added = false;
  for (const VariantDiff& v : b->variants) {
    if (v.name == "dropped") {
      saw_dropped = true;
      EXPECT_EQ(v.cls, DeltaClass::kRemoved);
    }
    if (v.name == "added") {
      saw_added = true;
      EXPECT_EQ(v.cls, DeltaClass::kNew);
    }
  }
  EXPECT_TRUE(saw_dropped);
  EXPECT_TRUE(saw_added);
  ASSERT_EQ(diff.benches.size(), 2u);
  EXPECT_EQ(diff.benches[1].bench, "new_bench");
  EXPECT_EQ(diff.benches[1].cls, DeltaClass::kNew);
  // new: fresh_metric + added/forces + new_bench/v/runs; removed:
  // old_metric + dropped/forces. Anything removed fails the gate.
  EXPECT_EQ(diff.added, 3u);
  EXPECT_EQ(diff.removed, 2u);
  EXPECT_EQ(diff.gate(), Gate::kFail);
  // Additions alone only ask for a re-baseline.
  EXPECT_EQ(DiffBenchReports({base}, {base, cand_only}).gate(),
            Gate::kRebaseline);
  // A removed bench fails, and so does a removed empty variant, which has
  // no metric to carry the removal.
  EXPECT_EQ(DiffBenchReports({base, cand_only}, {base}).gate(), Gate::kFail);
  ParsedReport with_empty = base;
  with_empty.variants.push_back({"empty", {}});
  BenchDiff dropped_empty = DiffBenchReports({with_empty}, {base});
  EXPECT_EQ(dropped_empty.removed, 1u);
  EXPECT_EQ(dropped_empty.gate(), Gate::kFail);
}

TEST(BenchDiffTest, MissingBaselineDirIsAnError) {
  auto missing = LoadBenchReportDir("/nonexistent/benchdiff_baselines");
  EXPECT_FALSE(missing.ok());
  // An existing but report-free dir also fails: a sentinel diffing against
  // nothing would pass every gate.
  std::string empty = ::testing::TempDir() + "/benchdiff_empty_dir";
  std::filesystem::create_directories(empty);
  auto no_reports = LoadBenchReportDir(empty);
  EXPECT_FALSE(no_reports.ok());
}

TEST(BenchDiffTest, LoadsRealReportsWrittenByBenchReporter) {
  std::string base_dir = ::testing::TempDir() + "/benchdiff_base";
  std::string cand_dir = ::testing::TempDir() + "/benchdiff_cand";
  std::filesystem::create_directories(base_dir);
  std::filesystem::create_directories(cand_dir);

  auto write = [](const std::string& dir, double recovery_ms) {
    BenchReporter reporter("mini_recovery");
    BenchVariant& v = reporter.AddVariant("pairs_8");
    v.SetMetric("recovery_ms", recovery_ms);
    v.SetMetric("sessions", uint64_t{8});
    ASSERT_TRUE(
        reporter.WriteFile(dir + "/BENCH_mini_recovery.json").ok());
  };
  write(base_dir, 2000.0);
  write(cand_dir, 1500.0);

  auto base = LoadBenchReportDir(base_dir);
  auto cand = LoadBenchReportDir(cand_dir);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_TRUE(cand.ok()) << cand.status().ToString();
  // The direction came through the report's own meta block.
  EXPECT_EQ((*cand)[0].meta.at("recovery_ms").direction,
            MetricDirection::kLowerIsBetter);

  BenchDiff diff = DiffBenchReports(*base, *cand);
  EXPECT_EQ(diff.improvements, 1u);
  EXPECT_EQ(diff.regressions, 0u);
  EXPECT_EQ(diff.gate(), Gate::kRebaseline);
}

TEST(BenchDiffTest, SloBudgetsCheckAndMissingMetricViolates) {
  ParsedReport cand = MakeReport("t7", {{"pairs_8", {{"recovery_ms", 1800.0}}}});
  SloConfig config;
  config.budgets.push_back(Budget{"t7/pairs_8.recovery_ms", 2000});
  config.budgets.push_back(Budget{"t7/pairs_8.recovery_ms", 1500});
  config.budgets.push_back(Budget{"t7/gone.recovery_ms", 9000});
  BenchDiff diff = DiffBenchReports({cand}, {cand});
  CheckSlo(config, {cand}, &diff);
  EXPECT_EQ(diff.slo_checked, 3u);
  EXPECT_EQ(diff.slo_violations, 2u);  // over budget + missing metric
  ASSERT_EQ(diff.slo.size(), 3u);
  EXPECT_FALSE(diff.slo[0].violated);
  EXPECT_TRUE(diff.slo[1].violated);
  EXPECT_FALSE(diff.slo[2].present);
  EXPECT_EQ(diff.gate(), Gate::kFail);
}

TEST(BenchDiffTest, SloConfigParses) {
  auto config = ParseSloConfig(R"({
    "schema": "phoenix.slo.v1",
    "budgets": [
      {"bench": "t7", "variant": "pairs_8", "metric": "recovery_ms",
       "max": 2000}
    ],
    "headlines": [
      {"bench": "t7", "variant": "pairs_8", "metric": "recovery_ms"}
    ]
  })");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  ASSERT_EQ(config->budgets.size(), 1u);
  EXPECT_EQ(config->budgets[0].key, "t7/pairs_8.recovery_ms");
  EXPECT_DOUBLE_EQ(config->budgets[0].max, 2000);
  ASSERT_EQ(config->headlines.size(), 1u);
  EXPECT_EQ(config->headlines[0], "t7/pairs_8.recovery_ms");
}

TEST(BenchDiffTest, CheckBudgetsSharedWithProfUsage) {
  // The phoenix_prof --budget-ms path: phase totals, absent phase passes.
  std::map<std::string, double> phases{{"execution", 12.0},
                                       {"durability.park", 55.0}};
  auto outcomes = CheckBudgets(
      phases, {Budget{"durability.park", 50}, Budget{"checkpoint", 10},
               Budget{"execution", 20}});
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].violated);
  EXPECT_FALSE(outcomes[1].present);
  EXPECT_FALSE(outcomes[1].violated);
  EXPECT_FALSE(outcomes[2].violated);
}

TEST(BenchDiffTest, JsonAndMarkdownAreByteDeterministic) {
  ParsedReport base = MakeReport(
      "b", {{"v", {{"recovery_ms", 2000.0}, {"forces", 10.0}}}});
  ParsedReport cand = MakeReport(
      "b", {{"v", {{"recovery_ms", 1900.5}, {"forces", 12.0}}}});
  SloConfig config;
  config.budgets.push_back(Budget{"b/v.recovery_ms", 2000});

  auto run = [&] {
    BenchDiff diff = DiffBenchReports({base}, {cand});
    CheckSlo(config, {cand}, &diff);
    return BenchDiffToJson(diff, "base", "cand") + "\x1f" +
           BenchDiffToMarkdown(diff, "base", "cand");
  };
  std::string a = run();
  std::string b = run();
  EXPECT_EQ(a, b);
  // The report carries the phoenix.slo.{checked,violations} summary keys.
  EXPECT_NE(a.find("\"phoenix.slo.checked\": 1"), std::string::npos);
  EXPECT_NE(a.find("\"phoenix.slo.violations\": 0"), std::string::npos);
  EXPECT_NE(a.find("\"schema\": \"phoenix.benchdiff.v1\""),
            std::string::npos);
}

TEST(BenchDiffTest, HistoryAppendAndIdempotentReplace) {
  ParsedReport cand = MakeReport("t7", {{"pairs_8", {{"recovery_ms", 1800.0}}}});
  std::vector<std::string> headlines{"t7/pairs_8.recovery_ms",
                                     "t7/pairs_8.not_there"};
  auto first = UpdateHistory("", "pr9", headlines, {cand});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_NE(first->find("\"schema\": \"phoenix.history.v1\""),
            std::string::npos);
  EXPECT_NE(first->find("\"t7/pairs_8.recovery_ms\": 1800"),
            std::string::npos);
  // Replaying the same candidate replaces the row, not duplicates it.
  auto second = UpdateHistory(*first, "pr9", headlines, {cand});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  // A later PR appends while earlier rows survive byte-for-byte.
  ParsedReport faster =
      MakeReport("t7", {{"pairs_8", {{"recovery_ms", 1500.0}}}});
  auto third = UpdateHistory(*second, "pr10", headlines, {faster});
  ASSERT_TRUE(third.ok());
  EXPECT_NE(third->find("\"label\": \"pr9\""), std::string::npos);
  EXPECT_NE(third->find("\"label\": \"pr10\""), std::string::npos);
  EXPECT_NE(third->find("\"t7/pairs_8.recovery_ms\": 1500"),
            std::string::npos);
}

// --- the gate over the committed baselines --------------------------------

std::vector<ParsedReport> LoadBaselines() {
  auto reports =
      LoadBenchReportDir(std::string(PHOENIX_SOURCE_DIR) + "/bench/baselines");
  EXPECT_TRUE(reports.ok()) << reports.status().ToString();
  return reports.ok() ? *std::move(reports) : std::vector<ParsedReport>{};
}

ParsedVariant* FindVariant(std::vector<ParsedReport>& reports,
                           const std::string& bench,
                           const std::string& variant) {
  for (ParsedReport& r : reports) {
    if (r.bench != bench) continue;
    for (ParsedVariant& v : r.variants) {
      if (v.name == variant) return &v;
    }
  }
  return nullptr;
}

TEST(BenchLedgerTest, EveryBaselineValueNudgedEitherWayTripsTheGate) {
  const std::vector<ParsedReport> base = LoadBaselines();
  ASSERT_FALSE(base.empty());
  ASSERT_EQ(DiffBenchReports(base, base).gate(), Gate::kPass);
  std::vector<ParsedReport> cand = base;
  size_t perturbed = 0;
  for (ParsedReport& report : cand) {
    for (ParsedVariant& variant : report.variants) {
      for (auto& [metric, value] : variant.metrics) {
        const double original = value;
        const std::string key =
            report.bench + "/" + variant.name + "." + metric;
        for (double toward : {std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()}) {
          value = std::nextafter(original, toward);
          BenchDiff diff = DiffBenchReports(base, cand);
          const MetricDelta* d =
              FindDelta(diff, report.bench, variant.name, metric);
          ASSERT_NE(d, nullptr) << key;
          bool lower = toward < 0;
          DeltaClass want =
              d->meta.direction == MetricDirection::kInformational
                  ? DeltaClass::kChanged
              : (d->meta.direction == MetricDirection::kLowerIsBetter) ==
                      lower
                  ? DeltaClass::kImprovement
                  : DeltaClass::kRegression;
          EXPECT_EQ(d->cls, want) << key;
          EXPECT_EQ(diff.gate(), want == DeltaClass::kImprovement
                                     ? Gate::kRebaseline
                                     : Gate::kFail)
              << key;
        }
        value = original;
        ++perturbed;
      }
    }
  }
  EXPECT_EQ(perturbed, FlattenMetrics(base).size());
}

TEST(BenchLedgerTest, RemovingAnyBaselineVariantFails) {
  const std::vector<ParsedReport> base = LoadBaselines();
  ASSERT_FALSE(base.empty());
  for (size_t r = 0; r < base.size(); ++r) {
    for (size_t v = 0; v < base[r].variants.size(); ++v) {
      std::vector<ParsedReport> cand = base;
      cand[r].variants.erase(cand[r].variants.begin() + v);
      EXPECT_EQ(DiffBenchReports(base, cand).gate(), Gate::kFail)
          << base[r].bench << "/" << base[r].variants[v].name;
    }
  }
}

// Three edits the tolerance-band gate passed with exit 0.
TEST(BenchLedgerTest, EditsThatOnceSlippedThroughNowClassify) {
  const std::vector<ParsedReport> base = LoadBaselines();
  ASSERT_FALSE(base.empty());

  // An informational count the empty log cannot have scanned.
  std::vector<ParsedReport> scanned = base;
  ParsedVariant* empty_log = FindVariant(scanned, "table7_recovery",
                                         "empty_log");
  ASSERT_NE(empty_log, nullptr);
  ASSERT_EQ(empty_log->metrics.at("records_scanned"), 0);
  empty_log->metrics["records_scanned"] = 3;
  BenchDiff diff = DiffBenchReports(base, scanned);
  EXPECT_EQ(diff.changed, 1u);
  EXPECT_EQ(diff.gate(), Gate::kFail);

  // A deleted variant that no SLO budget names.
  std::vector<ParsedReport> dropped = base;
  for (ParsedReport& r : dropped) {
    if (r.bench != "figure9_disk_writes") continue;
    auto& variants = r.variants;
    auto it = std::find_if(variants.begin(), variants.end(),
                           [](const ParsedVariant& v) {
                             return v.name == "delay_36ms";
                           });
    ASSERT_NE(it, variants.end());
    variants.erase(it);
  }
  EXPECT_EQ(DiffBenchReports(base, dropped).gate(), Gate::kFail);

  // One force fewer: better, but the baseline would go stale.
  std::vector<ParsedReport> fewer = base;
  ParsedVariant* local = FindVariant(
      fewer, "table4_log_optimizations", "external_persistent_baseline_local");
  ASSERT_NE(local, nullptr);
  local->metrics.at("forces") -= 1;
  diff = DiffBenchReports(base, fewer);
  EXPECT_EQ(diff.improvements, 1u);
  EXPECT_EQ(diff.gate(), Gate::kRebaseline);
}

TEST(BenchReporterMetaTest, MetaBlockDescribesEveryEmittedMetric) {
  BenchReporter reporter("meta_check");
  BenchVariant& v = reporter.AddVariant("v");
  v.SetMetric("recovery_ms", 12.5);
  v.SetMetric("bench_local_thing", uint64_t{3});
  reporter.DescribeMetric("bench_local_thing", "count",
                          MetricDirection::kHigherIsBetter);
  auto parsed = ParseBenchReport(reporter.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->meta.at("recovery_ms").direction,
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(parsed->meta.at("recovery_ms").unit, "ms");
  EXPECT_EQ(parsed->meta.at("bench_local_thing").direction,
            MetricDirection::kHigherIsBetter);
}

}  // namespace
}  // namespace phoenix::obs
