// Sharded WAL (RuntimeOptions.wal_shards > 1): the deterministic
// context->shard router, per-shard durability horizons, crash semantics of
// independent shard buffers, the record cursor (a plain reader on one
// shard, the gsn-ordered merge on N), per-shard salvage, and recovery under
// storage faults matching the single-log twin.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/strings.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/recovery_service.h"
#include "tests/test_components.h"
#include "wal/force_point.h"
#include "wal/log_manager.h"
#include "wal/log_reader.h"
#include "wal/merged_log_reader.h"
#include "wal/shard_router.h"

namespace phoenix {
namespace {

using phoenix::testing::RegisterTestComponents;

IncomingCallRecord Incoming(uint64_t context_id, const std::string& method) {
  IncomingCallRecord rec;
  rec.context_id = context_id;
  rec.method = method;
  return rec;
}

TEST(ShardRouterTest, DeterministicAcrossInstancesAndSeeds) {
  ShardRouter a(4, 42);
  ShardRouter b(4, 42);
  bool spread = false;
  for (uint64_t ctx = 0; ctx < 256; ++ctx) {
    EXPECT_EQ(a.ShardForContext(ctx), b.ShardForContext(ctx));
    EXPECT_LT(a.ShardForContext(ctx), 4u);
    if (a.ShardForContext(ctx) != a.ShardForContext(0)) spread = true;
  }
  EXPECT_TRUE(spread);  // the hash actually distributes

  // A different seed is a different (still deterministic) layout.
  ShardRouter c(4, 43);
  bool differs = false;
  for (uint64_t ctx = 0; ctx < 256 && !differs; ++ctx) {
    differs = a.ShardForContext(ctx) != c.ShardForContext(ctx);
  }
  EXPECT_TRUE(differs);
}

TEST(ShardRouterTest, CheckpointRecordsPinToMetaShard) {
  ShardRouter router(8, 7);
  EXPECT_EQ(router.ShardForRecord(LogRecord(BeginCheckpointRecord{})), 0u);
  EXPECT_EQ(router.ShardForRecord(LogRecord(EndCheckpointRecord{0})), 0u);
  CheckpointContextEntryRecord entry;
  entry.context_id = 12345;  // carries a context id, still meta
  EXPECT_EQ(router.ShardForRecord(LogRecord(entry)), 0u);
  CheckpointLastCallRecord last_call;
  last_call.context_id = 12345;
  EXPECT_EQ(router.ShardForRecord(LogRecord(last_call)), 0u);
  EXPECT_EQ(router.ShardForRecord(LogRecord(CheckpointRemoteTypeRecord{})),
            0u);
  // Context-keyed records follow the context hash.
  EXPECT_EQ(router.ShardForRecord(LogRecord(Incoming(12345, "Go"))),
            router.ShardForContext(12345));
}

class WalShardTest : public ::testing::Test {
 protected:
  WalShardTest()
      : disk_(DiskParams{}, 1),
        manager_("m/p1.log", &storage_, &disk_, &clock_, &costs_,
                 /*shard_count=*/4, /*shard_seed=*/42) {}

  // Appends one record per context 1..n and returns the composite LSNs.
  std::vector<uint64_t> AppendAcrossShards(int n, const std::string& tag) {
    std::vector<uint64_t> lsns;
    for (int i = 1; i <= n; ++i) {
      lsns.push_back(manager_.Append(
          LogRecord(Incoming(static_cast<uint64_t>(i), tag))));
    }
    return lsns;
  }

  StableStorage storage_;
  DiskModel disk_;
  SimClock clock_;
  CostModel costs_;
  LogManager manager_;
};

TEST_F(WalShardTest, ShardLocalDurableNeverExceedsAppended) {
  AppendAcrossShards(16, "a");
  for (uint32_t s = 0; s < manager_.shard_count(); ++s) {
    EXPECT_LE(manager_.shard_stable_end(s), manager_.shard_next_lsn(s))
        << "shard " << s;
  }
  manager_.Force();
  for (uint32_t s = 0; s < manager_.shard_count(); ++s) {
    EXPECT_EQ(manager_.shard_stable_end(s), manager_.shard_next_lsn(s))
        << "shard " << s;
  }
}

TEST_F(WalShardTest, CrashDropsExactlyEachShardsUnforcedTail) {
  AppendAcrossShards(12, "forced");
  manager_.Force();
  std::vector<uint64_t> stable_before(manager_.shard_count());
  for (uint32_t s = 0; s < manager_.shard_count(); ++s) {
    stable_before[s] = manager_.shard_stable_end(s);
  }

  AppendAcrossShards(12, "unforced");
  manager_.DropBuffer();  // the crash: every shard buffer dies at once

  for (uint32_t s = 0; s < manager_.shard_count(); ++s) {
    // The stable horizon did not move, and the stable bytes hold only
    // pre-crash records.
    EXPECT_EQ(manager_.shard_stable_end(s), stable_before[s]) << "shard " << s;
    LogReader reader(manager_.ShardStableView(s),
                     manager_.shard_head_base(s));
    reader.EnableGsnPrefix();
    while (auto parsed = reader.Next()) {
      EXPECT_EQ(std::get<IncomingCallRecord>(parsed->record).method, "forced");
    }
    EXPECT_FALSE(reader.tail_torn());
  }
}

TEST_F(WalShardTest, MergedScanEqualsSingleLogAppendOrder) {
  // The same append sequence goes to a 1-shard twin; the gsn-ordered k-way
  // merge must reproduce the twin's (single-log) record order exactly.
  LogManager single("m/p2.log", &storage_, &disk_, &clock_, &costs_);
  for (int i = 0; i < 32; ++i) {
    LogRecord rec(Incoming(static_cast<uint64_t>(i % 7),
                           StrCat("m", i)));
    manager_.Append(rec);
    single.Append(rec);
  }
  manager_.Force();
  single.Force();

  std::vector<std::string> single_order;
  LogReader reader(single.StableLog(), 0);
  while (auto parsed = reader.Next()) {
    single_order.push_back(
        std::get<IncomingCallRecord>(parsed->record).method);
  }
  ASSERT_EQ(single_order.size(), 32u);

  MergedLogScan merged = ScanShardedLog(manager_);
  ASSERT_EQ(merged.records.size(), 32u);
  EXPECT_FALSE(merged.any_salvage());
  EXPECT_EQ(merged.inversions, 0u);
  uint64_t prev_order = 0;
  for (size_t i = 0; i < merged.records.size(); ++i) {
    const OrderedRecord& rec = merged.records[i];
    EXPECT_EQ(std::get<IncomingCallRecord>(rec.record).method,
              single_order[i]);
    EXPECT_GT(rec.order, prev_order);  // gsns strictly increase
    prev_order = rec.order;
    EXPECT_EQ(rec.shard, ShardOfLsn(rec.lsn));
  }
}

TEST_F(WalShardTest, TornTailOnOneShardLeavesOthersUntouched) {
  AppendAcrossShards(16, "x");
  manager_.Force();
  std::vector<uint64_t> end_before(manager_.shard_count());
  for (uint32_t s = 0; s < manager_.shard_count(); ++s) {
    end_before[s] = manager_.shard_stable_end(s);
    ASSERT_GT(end_before[s], manager_.shard_head_base(s)) << "shard " << s;
  }

  // Tear 3 bytes off shard 2's file, mid-frame.
  storage_.TruncateLog(manager_.shard_log_name(2),
                       LocalOfLsn(end_before[2]) - 3);

  MergedLogScan merged = ScanShardedLog(manager_);
  ASSERT_TRUE(merged.any_salvage());
  ASSERT_EQ(merged.damage.size(), 1u);
  EXPECT_EQ(merged.damage[0].shard, 2u);
  EXPECT_TRUE(merged.damage[0].tail_torn);

  // Every shard still contributes every record its (possibly torn) file
  // holds; only shard 2 lost its final frame.
  std::vector<int> per_shard(manager_.shard_count(), 0);
  for (const OrderedRecord& rec : merged.records) ++per_shard[rec.shard];
  int total = 0;
  for (uint32_t s = 0; s < manager_.shard_count(); ++s) {
    LogReader probe(manager_.ShardStableView(s), manager_.shard_head_base(s));
    probe.EnableSalvage();
    probe.EnableGsnPrefix();
    int full_count = 0;
    while (probe.Next()) ++full_count;
    EXPECT_EQ(per_shard[s], full_count) << "shard " << s;
    EXPECT_EQ(probe.tail_torn(), s == 2) << "shard " << s;
    total += per_shard[s];
  }
  EXPECT_EQ(total, 15);  // 16 appended, one frame torn
}

// Encoded bytes of a record, for exact record-equality checks.
std::vector<uint8_t> Encoded(const LogRecord& record) {
  Encoder enc;
  EncodeLogRecord(record, enc);
  return enc.buffer();
}

TEST_F(WalShardTest, OneShardCursorIsAPlainLogReader) {
  // A single log is a one-shard stream: the cursor yields exactly the plain
  // reader's records, with order == lsn — and so does ScanShardedLog.
  LogManager single("m/p2.log", &storage_, &disk_, &clock_, &costs_);
  for (int i = 0; i < 24; ++i) {
    single.Append(LogRecord(Incoming(static_cast<uint64_t>(i % 5),
                                     StrCat("m", i))));
  }
  single.Force();

  std::vector<ParsedRecord> plain;
  LogReader reader(single.StableView(), single.head_base());
  while (auto parsed = reader.Next()) plain.push_back(std::move(*parsed));
  ASSERT_EQ(plain.size(), 24u);

  EXPECT_EQ(single.head_order(), single.head_base());
  LogCursor cursor = single.Cursor(single.head_order());
  for (const ParsedRecord& want : plain) {
    std::optional<ParsedRecord> got = cursor.Next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->lsn, want.lsn);
    EXPECT_EQ(got->order, got->lsn);
    EXPECT_EQ(Encoded(got->record), Encoded(want.record));
  }
  EXPECT_FALSE(cursor.Next().has_value());
  EXPECT_TRUE(cursor.damage().empty());

  MergedLogScan scan = ScanShardedLog(single);
  ASSERT_EQ(scan.records.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(scan.records[i].lsn, plain[i].lsn);
    EXPECT_EQ(scan.records[i].order, plain[i].lsn);
    EXPECT_EQ(scan.records[i].shard, 0u);
    EXPECT_EQ(Encoded(scan.records[i].record), Encoded(plain[i].record));
  }

  // A cut seeks: records below it are never returned.
  LogCursor from_mid = single.Cursor(plain[10].lsn);
  std::optional<ParsedRecord> first = from_mid.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->lsn, plain[10].lsn);
}

TEST_F(WalShardTest, ShardedCursorYieldsTheMergedScan) {
  for (int i = 0; i < 40; ++i) {
    manager_.Append(LogRecord(Incoming(static_cast<uint64_t>(i % 9),
                                       StrCat("m", i))));
  }
  manager_.Force();

  MergedLogScan merged = ScanShardedLog(manager_);
  ASSERT_EQ(merged.records.size(), 40u);
  EXPECT_EQ(manager_.head_order(), 0u);
  LogCursor cursor = manager_.Cursor(manager_.head_order());
  for (const OrderedRecord& want : merged.records) {
    std::optional<ParsedRecord> got = cursor.Next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->lsn, want.lsn);
    EXPECT_EQ(got->order, want.order);
    EXPECT_EQ(Encoded(got->record), Encoded(want.record));
  }
  EXPECT_FALSE(cursor.Next().has_value());
  EXPECT_EQ(cursor.records_read(), 40u);
  EXPECT_EQ(cursor.inversions(), 0u);

  // A cut filters by order on every shard.
  uint64_t cut = merged.records[25].order;
  LogCursor from_cut = manager_.Cursor(cut);
  size_t returned = 0;
  while (auto got = from_cut.Next()) {
    EXPECT_GE(got->order, cut);
    ++returned;
  }
  EXPECT_EQ(returned, 15u);
  EXPECT_EQ(from_cut.records_read(), 40u);
}

TEST_F(WalShardTest, ProbeReportsTheOrderAboveEachSkippedRange) {
  std::vector<uint64_t> lsns = AppendAcrossShards(24, "x");
  manager_.Force();
  // Rot the payload of one mid-shard frame on a non-meta shard.
  size_t victim = 0;
  while (ShardOfLsn(lsns[victim]) == 0) ++victim;
  uint32_t shard = ShardOfLsn(lsns[victim]);
  storage_.CorruptLog(manager_.shard_log_name(shard),
                      LocalOfLsn(lsns[victim]) + 8, 2);

  LogCursor probe = manager_.Probe(0);
  std::vector<ShardDamage> damage = probe.damage();
  ASSERT_EQ(damage.size(), 1u);
  EXPECT_EQ(damage[0].shard, shard);
  ASSERT_EQ(damage[0].skipped.size(), 1u);
  EXPECT_EQ(damage[0].skipped[0].from_lsn, lsns[victim]);
  // The resync lands on the shard's next record, whose gsn is the order
  // reported for the range.
  size_t next = victim + 1;
  while (ShardOfLsn(lsns[next]) != shard) ++next;
  EXPECT_EQ(damage[0].skipped[0].to_lsn, lsns[next]);
  Result<uint64_t> next_order = manager_.OrderOfRecordAt(lsns[next]);
  ASSERT_TRUE(next_order.ok());
  ASSERT_EQ(damage[0].resume_orders.size(), 1u);
  EXPECT_EQ(damage[0].resume_orders[0], *next_order);
}

class ShardedRecoveryTest : public ::testing::Test {
 protected:
  void SetUpSim(uint32_t shards) {
    RuntimeOptions opts;
    opts.wal_shards = shards;
    sim_ = std::make_unique<Simulation>(opts);
    RegisterTestComponents(sim_->factories());
    alpha_ = &sim_->AddMachine("alpha");
    proc_ = &alpha_->CreateProcess();
  }

  std::unique_ptr<Simulation> sim_;
  Machine* alpha_ = nullptr;
  Process* proc_ = nullptr;
};

TEST_F(ShardedRecoveryTest, StateSurvivesCrashViaMergedReplay) {
  SetUpSim(4);
  ASSERT_TRUE(proc_->log().sharded());
  ExternalClient client(sim_.get(), "alpha");
  std::vector<std::string> uris;
  for (int c = 0; c < 4; ++c) {
    auto uri = client.CreateComponent(*proc_, "Counter",
                                      StrCat("c", c),
                                      ComponentKind::kPersistent, {});
    ASSERT_TRUE(uri.ok());
    uris.push_back(*uri);
  }
  for (int i = 1; i <= 3; ++i) {
    for (const std::string& uri : uris) {
      ASSERT_TRUE(client.Call(uri, "Add", MakeArgs(i)).ok());
    }
  }

  proc_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  for (const std::string& uri : uris) {
    auto got = client.Call(uri, "Get", {});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->AsInt(), 6);
  }
}

// Storage faults applied between the crash and the restart.
enum class TwinFault {
  kNone,
  kTornTail,            // a partial frame after the newest record's shard end
  kWellKnownBitRot,     // the checkpoint pointer rots
  kNewestStateBitRot,   // the newest context-state record rots
  kDamageAboveCut,      // a checkpoint table record rots
  kDamageBelowCut,      // an early call record rots, wholly below the cut
};

const char* TwinFaultName(TwinFault fault) {
  switch (fault) {
    case TwinFault::kNone:
      return "none";
    case TwinFault::kTornTail:
      return "torn_tail";
    case TwinFault::kWellKnownBitRot:
      return "wkf_bitrot";
    case TwinFault::kNewestStateBitRot:
      return "newest_state_bitrot";
    case TwinFault::kDamageAboveCut:
      return "damage_above_cut";
    case TwinFault::kDamageBelowCut:
      return "damage_below_cut";
  }
  return "unknown";
}

// Newest stable record (append order) satisfying `match`; kInvalidLsn if
// none.
template <typename Match>
uint64_t NewestRecord(const LogManager& log, Match match) {
  uint64_t found = kInvalidLsn;
  LogCursor cursor = log.Cursor(log.head_order());
  while (auto parsed = cursor.Next()) {
    if (match(*parsed)) found = parsed->lsn;
  }
  return found;
}

TEST_F(ShardedRecoveryTest, ShardedRecoveryMatchesSingleLogTwin) {
  // Same workload, same crash, same storage fault, under 1 and 4 shards:
  // every recovery must reproduce the fault-free state.
  struct Outcome {
    std::vector<int64_t> values;
    uint64_t full_scan_fallbacks = 0;
    uint64_t torn_tail_bytes = 0;
    uint64_t wkf_fallbacks = 0;
    uint64_t state_record_fallbacks = 0;
  };
  auto run = [](uint32_t shards, TwinFault fault) -> Outcome {
    RuntimeOptions opts;
    opts.wal_shards = shards;
    Simulation sim(opts);
    RegisterTestComponents(sim.factories());
    Machine& alpha = sim.AddMachine("alpha");
    Process& proc = alpha.CreateProcess();
    ExternalClient client(&sim, "alpha");
    std::vector<std::string> uris;
    for (int c = 0; c < 3; ++c) {
      auto uri = client.CreateComponent(proc, "Counter",
                                        StrCat("c", c),
                                        ComponentKind::kPersistent, {});
      EXPECT_TRUE(uri.ok());
      uris.push_back(*uri);
    }
    for (int i = 1; i <= 4; ++i) {
      for (const std::string& uri : uris) {
        EXPECT_TRUE(client.Call(uri, "Add", MakeArgs(i)).ok());
      }
      if (i == 2) {
        // Mid-run state records and a process checkpoint, published by the
        // next round's first forced send.
        for (int c = 0; c < 3; ++c) {
          Context* ctx = proc.FindContextOfComponent(StrCat("c", c));
          EXPECT_TRUE(proc.checkpoints().SaveContextState(*ctx).ok());
        }
        EXPECT_TRUE(proc.checkpoints().TakeProcessCheckpoint().ok());
      }
    }
    const LogManager& log = proc.log();
    Result<uint64_t> well_known = log.ReadWellKnownLsn();
    EXPECT_TRUE(well_known.ok());
    Result<uint64_t> cut = log.OrderOfRecordAt(*well_known);
    EXPECT_TRUE(cut.ok());

    proc.Kill();
    StableStorage& storage = sim.storage();
    auto rot = [&](uint64_t lsn) {
      EXPECT_NE(lsn, kInvalidLsn);
      storage.CorruptLog(log.shard_log_name(ShardOfLsn(lsn)),
                         LocalOfLsn(lsn) + 8, 2);
    };
    switch (fault) {
      case TwinFault::kNone:
        break;
      case TwinFault::kTornTail: {
        uint64_t newest =
            NewestRecord(log, [](const ParsedRecord&) { return true; });
        // A header promising 64 payload bytes, followed by only 2.
        storage.AppendLog(log.shard_log_name(ShardOfLsn(newest)),
                          {64, 0, 0, 0, 1, 2, 3, 4, 9, 9});
        break;
      }
      case TwinFault::kWellKnownBitRot:
        storage.CorruptFile(log.log_name() + ".wkf", 0, 2);
        break;
      case TwinFault::kNewestStateBitRot:
        rot(NewestRecord(log, [](const ParsedRecord& r) {
          return std::holds_alternative<ContextStateRecord>(r.record);
        }));
        break;
      case TwinFault::kDamageAboveCut:
        rot(NewestRecord(log, [](const ParsedRecord& r) {
          return std::holds_alternative<CheckpointContextEntryRecord>(
              r.record);
        }));
        break;
      case TwinFault::kDamageBelowCut: {
        // The oldest Add call on a non-meta shard (any shard when there is
        // only one); later rounds keep records above it on that shard that
        // are still below the checkpoint cut.
        uint64_t victim = kInvalidLsn;
        LogCursor cursor = log.Cursor(log.head_order());
        while (auto parsed = cursor.Next()) {
          const auto* call = std::get_if<IncomingCallRecord>(&parsed->record);
          if (call != nullptr && call->method == "Add" &&
              (shards == 1 || ShardOfLsn(parsed->lsn) != 0)) {
            EXPECT_LT(parsed->order, *cut);
            victim = parsed->lsn;
            break;
          }
        }
        rot(victim);
        break;
      }
    }

    EXPECT_TRUE(alpha.recovery_service().EnsureProcessAlive(1).ok());
    Outcome outcome;
    for (const std::string& uri : uris) {
      auto got = client.Call(uri, "Get", {});
      EXPECT_TRUE(got.ok());
      outcome.values.push_back(got.ok() ? got->AsInt() : -1);
    }
    const obs::MetricsRegistry& metrics = sim.metrics();
    outcome.full_scan_fallbacks =
        metrics.CounterTotal("phoenix.recovery.salvage.full_scan_fallback");
    outcome.torn_tail_bytes =
        metrics.CounterTotal("phoenix.recovery.salvage.torn_tail_bytes");
    outcome.wkf_fallbacks =
        metrics.CounterTotal("phoenix.recovery.salvage.wkf_fallback");
    outcome.state_record_fallbacks = metrics.CounterTotal(
        "phoenix.recovery.salvage.state_record_fallback");
    return outcome;
  };

  const std::vector<int64_t> fault_free = run(1, TwinFault::kNone).values;
  EXPECT_EQ(fault_free, std::vector<int64_t>({10, 10, 10}));
  for (TwinFault fault :
       {TwinFault::kNone, TwinFault::kTornTail, TwinFault::kWellKnownBitRot,
        TwinFault::kNewestStateBitRot, TwinFault::kDamageAboveCut,
        TwinFault::kDamageBelowCut}) {
    for (uint32_t shards : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message() << TwinFaultName(fault) << ", "
                                      << shards << " shard(s)");
      Outcome outcome = run(shards, fault);
      EXPECT_EQ(outcome.values, fault_free);
      // Each fault took its salvage path.
      EXPECT_EQ(outcome.torn_tail_bytes > 0, fault == TwinFault::kTornTail);
      EXPECT_EQ(outcome.wkf_fallbacks > 0,
                fault == TwinFault::kWellKnownBitRot);
      EXPECT_EQ(outcome.state_record_fallbacks > 0,
                fault == TwinFault::kNewestStateBitRot);
      if (fault == TwinFault::kDamageAboveCut) {
        EXPECT_EQ(outcome.full_scan_fallbacks, 1u);
      }
      if (fault == TwinFault::kDamageBelowCut ||
          fault == TwinFault::kNone) {
        // Damage wholly below the checkpoint cannot hide its table records:
        // the scan must not widen, on any shard.
        EXPECT_EQ(outcome.full_scan_fallbacks, 0u);
      }
    }
  }
}

TEST_F(ShardedRecoveryTest, PublishGateReadsMetaShardHorizonOnly) {
  // Regression: the checkpoint bracket lives on the meta shard (shard 0),
  // so MaybePublishCheckpoint's durability gate must read *that* shard's
  // horizon. A chain that forces only its own shards must not be able to
  // flip the well-known file while the end record still sits in shard 0's
  // buffer.
  SetUpSim(4);
  ExternalClient client(sim_.get(), "alpha");
  std::vector<std::string> uris;
  for (int c = 0; c < 3; ++c) {
    auto uri = client.CreateComponent(*proc_, "Counter",
                                      StrCat("c", c),
                                      ComponentKind::kPersistent, {});
    ASSERT_TRUE(uri.ok());
    uris.push_back(*uri);
  }
  for (const std::string& uri : uris) {
    ASSERT_TRUE(client.Call(uri, "Add", MakeArgs(2)).ok());
  }

  // Bracket appended, unforced: it sits in shard 0's buffer.
  ASSERT_TRUE(proc_->checkpoints().TakeProcessCheckpoint().ok());
  ASSERT_TRUE(proc_->log().ReadWellKnownLsn().status().IsNotFound());

  // Forcing every non-meta shard advances their horizons but not shard
  // 0's; the gate must stay shut.
  for (uint32_t s = 1; s < proc_->log().shard_count(); ++s) {
    ASSERT_TRUE(
        proc_->log().WaitDurableShard(s, ForcePoint::kManual, false).ok());
  }
  proc_->checkpoints().MaybePublishCheckpoint();
  EXPECT_TRUE(proc_->log().ReadWellKnownLsn().status().IsNotFound());

  // The meta shard's own horizon opens it.
  ASSERT_TRUE(
      proc_->log().WaitDurableShard(0, ForcePoint::kManual, false).ok());
  proc_->checkpoints().MaybePublishCheckpoint();
  EXPECT_TRUE(proc_->log().ReadWellKnownLsn().ok());
  EXPECT_EQ(proc_->checkpoints().checkpoints_published(), 1u);
}

TEST_F(ShardedRecoveryTest, TornShardSalvagesWithoutTouchingOthers) {
  SetUpSim(4);
  ExternalClient client(sim_.get(), "alpha");
  std::vector<std::string> uris;
  for (int c = 0; c < 4; ++c) {
    auto uri = client.CreateComponent(*proc_, "Counter",
                                      StrCat("c", c),
                                      ComponentKind::kPersistent, {});
    ASSERT_TRUE(uri.ok());
    uris.push_back(*uri);
  }
  for (int i = 1; i <= 3; ++i) {
    for (const std::string& uri : uris) {
      ASSERT_TRUE(client.Call(uri, "Add", MakeArgs(i)).ok());
    }
  }

  // Pick the shard holding c0's chain; capture every OTHER shard's stable
  // bytes, then tear c0's shard mid-frame after the crash.
  Context* ctx = proc_->FindContextOfComponent("c0");
  ASSERT_NE(ctx, nullptr);
  uint32_t torn = proc_->log().router().ShardForContext(ctx->id());
  std::vector<std::vector<uint8_t>> before;
  for (uint32_t s = 0; s < proc_->log().shard_count(); ++s) {
    before.push_back(sim_->storage().ReadLog(proc_->log().shard_log_name(s)));
  }
  proc_->Kill();
  std::string torn_name = proc_->log().shard_log_name(torn);
  sim_->storage().TruncateLog(torn_name,
                              sim_->storage().LogSize(torn_name) - 3);

  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());

  // The salvage amputated exactly one shard...
  EXPECT_GT(sim_->metrics()
                .GetCounter("phoenix.recovery.salvage.torn_tail_bytes",
                            obs::LabelSet{{"process", "alpha/1"}})
                .value(),
            0u);
  // ...and every untouched shard kept its exact pre-crash bytes as a prefix
  // (recovery replay may append after them, never rewrite).
  for (uint32_t s = 0; s < proc_->log().shard_count(); ++s) {
    if (s == torn) continue;
    const std::vector<uint8_t>& now =
        sim_->storage().ReadLog(proc_->log().shard_log_name(s));
    ASSERT_GE(now.size(), before[s].size()) << "shard " << s;
    EXPECT_TRUE(std::equal(before[s].begin(), before[s].end(), now.begin()))
        << "shard " << s;
  }

  // Counters on untouched shards kept every committed add.
  for (int c = 1; c < 4; ++c) {
    Context* other = proc_->FindContextOfComponent(StrCat("c", c));
    ASSERT_NE(other, nullptr);
    if (proc_->log().router().ShardForContext(other->id()) == torn) continue;
    auto got = client.Call(uris[c], "Get", {});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->AsInt(), 6);
  }
}

}  // namespace
}  // namespace phoenix
