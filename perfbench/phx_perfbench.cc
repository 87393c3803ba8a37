// Repo benchmark program: one measured round of one workload.
//
//   phx_perfbench --workload transfer|crash_restart|bookstore --seed N
//                 [--traced 0|1] [--size full|small] [--trace-dir DIR]
//
// Builds a fresh simulation from the seed, runs the workload's closed-loop
// request stream from 4 sessions through the public API only, checks the
// replies and the final state against an exactly-once oracle kept here,
// and prints one JSON object (the round's raw figures) as the last
// line of stdout. perfbench/run.py repeats rounds and aggregates them.
//
// Sim-time figures depend only on the seed. Wall-time figures are host
// timings. With --traced 1 it also keeps spans in memory (one per
// request, recovery, probe and post-run layer pass, each with the program's
// counter deltas over the span) and writes them out when the round ends.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bookstore/setup.h"
#include "common/crc32c.h"
#include "common/random.h"
#include "core/phoenix.h"
#include "obs/json.h"
#include "recovery/recovery_service.h"
#include "recovery/replay_plan.h"
#include "serde/codec.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"
#include "wal/merged_log_reader.h"

namespace phoenix::perfbench {
namespace {

using WallClock = std::chrono::steady_clock;

double WallSeconds(WallClock::time_point from) {
  return std::chrono::duration<double>(WallClock::now() - from).count();
}

constexpr int kSessions = 4;

// ---------------------------------------------------------------------------
// Benchmark-defined components for the bank workloads.

// One persistent account with a single int field.
class Account : public Component {
 public:
  void RegisterMethods(MethodRegistry& m) override {
    m.Register("Withdraw", [this](const ArgList& a) -> Result<Value> {
      balance_ -= a[0].AsInt();
      return Value(balance_);
    });
    m.Register("Deposit", [this](const ArgList& a) -> Result<Value> {
      balance_ += a[0].AsInt();
      return Value(balance_);
    });
    m.Register(
        "Balance",
        [this](const ArgList&) -> Result<Value> { return Value(balance_); },
        MethodTraits{.read_only = true});
  }
  void RegisterFields(FieldRegistry& f) override {
    f.RegisterInt("balance", &balance_);
  }
  Status Initialize(const ArgList& args) override {
    balance_ = args.empty() ? 0 : args[0].AsInt();
    return Status::OK();
  }

 private:
  int64_t balance_ = 0;
};

// Moves money between two accounts: Withdraw then Deposit, and counts the
// transfers it completed.
class Teller : public Component {
 public:
  void RegisterMethods(MethodRegistry& m) override {
    m.Register("Transfer", [this](const ArgList& a) -> Result<Value> {
      PHX_RETURN_IF_ERROR(
          Call(a[0].AsString(), "Withdraw", MakeArgs(a[2].AsInt())).status());
      PHX_RETURN_IF_ERROR(
          Call(a[1].AsString(), "Deposit", MakeArgs(a[2].AsInt())).status());
      ++transfers_;
      return Value(transfers_);
    });
    m.Register(
        "Count",
        [this](const ArgList&) -> Result<Value> { return Value(transfers_); },
        MethodTraits{.read_only = true});
  }
  void RegisterFields(FieldRegistry& f) override {
    f.RegisterInt("transfers", &transfers_);
  }

 private:
  int64_t transfers_ = 0;
};

// ---------------------------------------------------------------------------
// Counter snapshots taken at span boundaries.

enum Series : int {
  kIncoming,
  kOutgoing,
  kInterceptRetries,
  kDedupeHits,
  kReplaySuppressed,
  kAppends,
  kForces,
  kBytesForced,
  kBatchCount,
  kBatchSum,
  kParkMs,
  kOwnForceWaitMs,
  kSeekMs,
  kRotWaitMs,
  kTransferMs,
  kCkptPublished,
  kStateSaves,
  kCkptDeferred,
  kBytesReclaimed,
  kRecordsScanned,
  kCallsReplayed,
  kContextRecoveries,
  kReplayChains,
  kCriticalPathMs,
  kMakespanMs,
  kReplayFallbacks,
  kMergeRecords,
  kSupervisorAttempts,
  kNumSeries,
};

constexpr std::array<const char*, kNumSeries> kSeriesNames = {
    "intercept.incoming",          "intercept.outgoing",
    "intercept.retries",           "intercept.dedupe_hits",
    "intercept.replay_suppressed", "log.appends",
    "log.forces",                  "log.bytes_forced",
    "wal.group_commit.batches",    "wal.group_commit.batched_waits",
    "wal.park_ms",                 "wal.own_force_wait_ms",
    "disk.seek_ms",                "disk.rotational_wait_ms",
    "disk.transfer_ms",            "checkpoint.published",
    "checkpoint.state_saves",      "checkpoint.async.deferred",
    "checkpoint.bytes_reclaimed",  "recovery.records_scanned",
    "recovery.calls_replayed",     "recovery.context_recoveries",
    "recovery.replay.chains",      "recovery.replay.critical_path_ms",
    "recovery.replay.makespan_ms", "recovery.replay.fallbacks",
    "recovery.merge.records",      "recovery.supervisor.attempts",
};

using Snapshot = std::array<double, kNumSeries>;

Snapshot Take(const Simulation& sim) {
  const obs::MetricsRegistry& m = sim.metrics();
  auto c = [&m](const char* name) {
    return static_cast<double>(m.CounterTotal(name));
  };
  Snapshot s{};
  s[kIncoming] = c("phoenix.intercept.incoming");
  s[kOutgoing] = c("phoenix.intercept.outgoing");
  s[kInterceptRetries] = c("phoenix.intercept.retries");
  s[kDedupeHits] = c("phoenix.intercept.dedupe_hits");
  s[kReplaySuppressed] = c("phoenix.intercept.replay_suppressed");
  s[kAppends] = c("phoenix.log.appends");
  s[kForces] = c("phoenix.log.forces");
  s[kBytesForced] = c("phoenix.log.bytes_forced");
  obs::Histogram batches =
      m.MergedHistogram("phoenix.wal.group_commit.batch_size");
  s[kBatchCount] = static_cast<double>(batches.count());
  s[kBatchSum] = batches.sum();
  s[kParkMs] = m.MergedHistogram("phoenix.wal.park_ms").sum();
  s[kOwnForceWaitMs] = m.GaugeTotal("phoenix.wal.own_force_wait_ms");
  s[kSeekMs] = m.GaugeTotal("phoenix.disk.seek_ms");
  s[kRotWaitMs] = m.GaugeTotal("phoenix.disk.rotational_wait_ms");
  s[kTransferMs] = m.GaugeTotal("phoenix.disk.transfer_ms");
  s[kCkptPublished] = c("phoenix.checkpoint.published");
  s[kStateSaves] = c("phoenix.checkpoint.state_saves");
  s[kCkptDeferred] = c("phoenix.checkpoint.async.deferred");
  s[kBytesReclaimed] = c("phoenix.checkpoint.bytes_reclaimed");
  s[kRecordsScanned] = c("phoenix.recovery.records_scanned");
  s[kCallsReplayed] = c("phoenix.recovery.calls_replayed");
  s[kContextRecoveries] = c("phoenix.recovery.context_recoveries");
  s[kReplayChains] = c("phoenix.recovery.replay.chains");
  s[kCriticalPathMs] =
      m.MergedHistogram("phoenix.recovery.replay.critical_path_ms").sum();
  s[kMakespanMs] =
      m.MergedHistogram("phoenix.recovery.replay.makespan_ms").sum();
  s[kReplayFallbacks] = c("phoenix.recovery.replay.fallbacks");
  s[kMergeRecords] = c("phoenix.recovery.merge.records");
  s[kSupervisorAttempts] = c("phoenix.recovery.supervisor.attempts");
  return s;
}

Snapshot Minus(const Snapshot& a, const Snapshot& b) {
  Snapshot d{};
  for (int i = 0; i < kNumSeries; ++i) d[i] = a[i] - b[i];
  return d;
}

void AddTo(Snapshot& acc, const Snapshot& d) {
  for (int i = 0; i < kNumSeries; ++i) acc[i] += d[i];
}

using NumMap = std::vector<std::pair<std::string, double>>;

void WriteObject(obs::JsonWriter& w, const NumMap& fields) {
  w.BeginObject();
  for (const auto& [name, value] : fields) w.Key(name).Number(value);
  w.EndObject();
}

void WriteList(obs::JsonWriter& w, const std::vector<double>& values) {
  w.BeginArray();
  for (double v : values) w.Number(v);
  w.EndArray();
}

// ---------------------------------------------------------------------------
// Spans, kept in memory and written when the round ends.

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  std::string trace;  // request spans only
  double wall_start_us = 0;
  double wall_end_us = 0;
  double sim_start_ms = 0;
  double sim_end_ms = 0;
  Snapshot delta{};
};

class SpanLog {
 public:
  SpanLog(bool enabled, Simulation** sim)
      : enabled_(enabled), sim_(sim), origin_(WallClock::now()) {}

  bool enabled() const { return enabled_; }

  struct Open {
    size_t index = SIZE_MAX;
    Snapshot at{};
  };

  // A request span; its trace id "s<session>.r<n>" is shared by every span
  // of that request.
  Open BeginRequest(uint64_t parent, int session, uint64_t n) {
    if (!enabled_) return Open{};
    std::string trace = "s";
    trace += std::to_string(session);
    trace += ".r";
    trace += std::to_string(n);
    return Begin("request", parent, trace);
  }

  Open Begin(const std::string& name, uint64_t parent,
             const std::string& trace = "") {
    Open open;
    if (!enabled_) return open;
    SpanRecord rec;
    rec.id = ++next_id_;
    rec.parent = parent;
    rec.name = name;
    rec.trace = trace;
    rec.wall_start_us = NowUs();
    if (*sim_ != nullptr) {
      rec.sim_start_ms = (*sim_)->clock().NowMs();
      open.at = Take(**sim_);
    }
    open.index = spans_.size();
    spans_.push_back(std::move(rec));
    return open;
  }

  void End(const Open& open) {
    if (!enabled_ || open.index == SIZE_MAX) return;
    SpanRecord& rec = spans_[open.index];
    rec.wall_end_us = NowUs();
    if (*sim_ != nullptr) {
      rec.sim_end_ms = (*sim_)->clock().NowMs();
      rec.delta = Minus(Take(**sim_), open.at);
    }
  }

  uint64_t id_of(const Open& open) const {
    return open.index == SIZE_MAX ? 0 : spans_[open.index].id;
  }

  Status WriteJsonl(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return Status::Internal("cannot write " + path);
    for (const SpanRecord& s : spans_) {
      NumMap delta;
      for (int i = 0; i < kNumSeries; ++i) {
        if (s.delta[i] != 0) delta.emplace_back(kSeriesNames[i], s.delta[i]);
      }
      obs::JsonWriter w;
      w.BeginObject()
          .Key("id").Number(s.id)
          .Key("parent").Number(s.parent)
          .Key("name").String(s.name)
          .Key("trace").String(s.trace)
          .Key("wall_start_us").Number(s.wall_start_us)
          .Key("wall_end_us").Number(s.wall_end_us)
          .Key("sim_start_ms").Number(s.sim_start_ms)
          .Key("sim_end_ms").Number(s.sim_end_ms)
          .Key("counters");
      WriteObject(w, delta);
      w.EndObject();
      out << w.str() << "\n";
    }
    return out ? Status::OK() : Status::Internal("short write " + path);
  }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(WallClock::now() -
                                                     origin_)
        .count();
  }

  bool enabled_;
  Simulation** sim_;
  WallClock::time_point origin_;
  uint64_t next_id_ = 0;
  std::vector<SpanRecord> spans_;
};

// ---------------------------------------------------------------------------
// Statistics helpers.

// Linear-interpolated quantile (q in [0,1]) of `v`.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

// Smoothed percentile: the mean of the samples ranked between quantiles
// `from` and `to`. Sim latencies are sums of discrete modelled costs, so a
// single order statistic tends to sit on one request type's fixed cost and
// repeat exactly from seed to seed; the band mean still tracks shifts of
// the distribution around the percentile.
double BandMean(std::vector<double> v, double from, double to) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double n = static_cast<double>(v.size());
  size_t lo = std::min(static_cast<size_t>(std::floor(from * n)), v.size() - 1);
  size_t hi = std::max(lo + 1, static_cast<size_t>(std::ceil(to * n)));
  hi = std::min(hi, v.size());
  return std::accumulate(v.begin() + lo, v.begin() + hi, 0.0) /
         static_cast<double>(hi - lo);
}

// Zipf(theta) over n ranks, mapped through a seeded permutation so the hot
// keys differ from seed to seed.
class ZipfKeys {
 public:
  ZipfKeys(int n, double theta, uint64_t seed) : cdf_(n), key_of_rank_(n) {
    double total = 0;
    for (int r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    std::iota(key_of_rank_.begin(), key_of_rank_.end(), 0);
    Random rng(seed);
    for (int i = n - 1; i > 0; --i) {
      int j = static_cast<int>(rng.Uniform(static_cast<uint64_t>(i) + 1));
      std::swap(key_of_rank_[i], key_of_rank_[j]);
    }
  }

  int Draw(Random& rng) const {
    double u = rng.NextDouble();
    size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    rank = std::min(rank, cdf_.size() - 1);
    return key_of_rank_[rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<int> key_of_rank_;
};

// ---------------------------------------------------------------------------
// Round configuration and results.

struct Config {
  std::string workload;
  uint64_t seed = 1;
  bool traced = false;
  bool small = false;
  std::string trace_dir;
};

struct Round {
  bool correct = true;
  std::vector<std::string> errors;
  uint64_t attempted = 0;  // measured requests
  uint64_t failed = 0;
  uint64_t probes = 0;  // probe requests sent right after a kill
  uint64_t probe_failures = 0;

  // Measured phase.
  std::map<std::string, uint64_t> calls_by_method;  // bookstore mix served
  std::vector<double> latency_ms;     // sim, per request
  std::vector<double> call_wall_us;   // wall, per request (traced rounds)
  double phase_sim_ms = 0;
  double phase_wall_s = 0;  // running total; the oracle's time is excluded
  std::vector<double> req_per_wall_s;  // per simulation
  Snapshot phase{};
  uint64_t client_retries = 0;

  // Recoveries (kill -> EnsureProcessAlive) and probes (kill -> first reply).
  std::vector<double> recovery_ms;
  std::vector<double> recovery_wall_ms;      // per supervised restart
  std::vector<double> sim_recovery_wall_ms;  // per simulation: their mean
  std::vector<double> first_reply_ms;
  Snapshot restarts{};
  int restart_count = 0;
  std::vector<double> plan_wall_ms;  // traced: planner over the killed log

  std::vector<double> setup_s;  // wall, per simulation
  std::vector<double> log_retained_bytes;
  std::vector<double> ckpt_lag_p99_ms;

  // Traced post-run layer passes, per simulation.
  std::map<std::string, std::vector<double>> passes;

  void Fail(const std::string& what) {
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
};

// Everything a workload needs to kill and restart its server process.
struct Restartable {
  Machine* machine = nullptr;
  uint32_t pid = 0;
  Process* process() const { return machine->GetProcess(pid); }
};

// Sum of the retained stable bytes of every log in the simulation.
double RetainedLogBytes(Simulation& sim, const std::vector<Machine*>& machines) {
  double total = 0;
  for (Machine* m : machines) {
    for (const auto& [pid, proc] : m->processes()) {
      (void)pid;
      for (uint32_t s = 0; s < proc->log().shard_count(); ++s) {
        total += static_cast<double>(
            sim.storage().ReadLog(proc->log().shard_log_name(s)).size());
      }
    }
  }
  return total;
}

// Repeats `pass` until at least `min_s` wall seconds (and 3 repetitions)
// have been spent; returns seconds per repetition.
double TimePass(const std::function<void()>& pass, double min_s = 0.05) {
  int reps = 0;
  WallClock::time_point t0 = WallClock::now();
  double elapsed = 0;
  do {
    pass();
    ++reps;
    elapsed = WallSeconds(t0);
  } while (elapsed < min_s || reps < 3);
  return elapsed / reps;
}

// Stable log images of `proc`, one per shard.
std::vector<LogView> ShardViews(Process& proc) {
  std::vector<LogView> views;
  for (uint32_t s = 0; s < proc.log().shard_count(); ++s) {
    views.push_back(proc.log().ShardStableView(s));
  }
  return views;
}

// Every record of the stable log, in append order.
std::vector<LogRecord> ScanRecords(Process& proc) {
  std::vector<LogRecord> out;
  if (proc.log().sharded()) {
    MergedLogScan scan = ScanShardedLog(proc.log());
    for (OrderedRecord& r : scan.records) out.push_back(std::move(r.record));
    return out;
  }
  LogView view = proc.log().StableView();
  LogReader reader(view, view.base);
  while (std::optional<ParsedRecord> rec = reader.Next()) {
    out.push_back(std::move(rec->record));
  }
  return out;
}

// Analysis-only replay planning over the stable log, as recovery's pass 1
// would do it right after a crash. Pure: touches no clock or component.
size_t PlanReplay(Process& proc) {
  ReplayPlanInputs inputs;
  inputs.machine = proc.machine_name();
  inputs.process_id = proc.pid();
  inputs.replay_call_ms = proc.simulation()->costs().recovery_replay_call_ms;
  if (proc.log().sharded()) {
    MergedLogScan scan = ScanShardedLog(proc.log());
    DeriveReplayOriginsFromRecords(scan.records, &inputs.origins,
                                   &inputs.origin_orders);
    return BuildReplayPlanFromRecords(scan.records, {}, 0, inputs)
        .total_units();
  }
  LogView view = proc.log().StableView();
  inputs.origins = DeriveReplayOrigins(view, view.base);
  return BuildReplayPlan(view, view.base, inputs).total_units();
}

void Pass(Round& round, const std::string& name, double value) {
  round.passes[name].push_back(value);
}

// The post-run layer passes over the simulation's own final log (traced
// only).
void RunLayerPasses(Process& proc, SpanLog& spans, uint64_t parent,
                    Round& round) {
  std::vector<LogView> views = ShardViews(proc);
  double bytes = 0;
  for (const LogView& v : views) bytes += static_cast<double>(v.bytes->size());

  SpanLog::Open span = spans.Begin("pass.wal_scan", parent);
  std::vector<LogRecord> records;
  double scan_s = TimePass([&] { records = ScanRecords(proc); });
  spans.End(span);
  Pass(round, "wal.scan_mb_per_s", bytes / 1e6 / scan_s);

  span = spans.Begin("pass.serde_encode", parent);
  std::vector<std::vector<uint8_t>> encoded(records.size());
  double enc_s = TimePass([&] {
    for (size_t i = 0; i < records.size(); ++i) {
      Encoder enc;
      EncodeLogRecord(records[i], enc);
      encoded[i] = enc.Release();
    }
  });
  spans.End(span);

  span = spans.Begin("pass.serde_decode", parent);
  size_t decode_errors = 0;
  double dec_s = TimePass([&] {
    decode_errors = 0;
    for (const std::vector<uint8_t>& buf : encoded) {
      if (!DecodeLogRecord(buf.data(), buf.size()).ok()) ++decode_errors;
    }
  });
  spans.End(span);
  if (decode_errors != 0) {
    round.Fail("serde pass: " + std::to_string(decode_errors) +
               " records failed to decode after re-encoding");
  }
  double n = std::max<double>(1.0, static_cast<double>(records.size()));
  Pass(round, "serde.encode_ns_per_record", enc_s * 1e9 / n);
  Pass(round, "serde.decode_ns_per_record", dec_s * 1e9 / n);

  span = spans.Begin("pass.crc", parent);
  auto log_crc = [&views] {
    uint32_t crc = 0;
    for (const LogView& v : views) {
      crc = Crc32cExtend(crc, v.bytes->data(), v.bytes->size());
    }
    return crc;
  };
  uint32_t expected_crc = log_crc();
  bool crc_stable = true;
  double crc_s = TimePass([&] { crc_stable &= log_crc() == expected_crc; });
  spans.End(span);
  if (!crc_stable) round.Fail("crc pass: checksum of the final log changed");
  Pass(round, "common.crc_mb_per_s", bytes / 1e6 / crc_s);
}

// Excludes the enclosed wall time, sim time and counter changes from the
// measured phase: the oracle's reads between crash cycles and the traced
// replay-plan pass run inside crash_restart's phase but are not the
// benchmark's traffic. (The oracle's reads still count as incoming calls
// for the async-checkpoint cadence, so they can make a sweep due at the
// start of the next burst.)
class PhasePause {
 public:
  PhasePause(Simulation& sim, Round& round)
      : sim_(sim), round_(round), wall_(WallClock::now()),
        sim_ms_(sim.clock().NowMs()), at_(Take(sim)) {}
  ~PhasePause() {
    round_.phase_wall_s -= WallSeconds(wall_);
    round_.phase_sim_ms -= sim_.clock().NowMs() - sim_ms_;
    AddTo(round_.phase, Minus(at_, Take(sim_)));
  }
  PhasePause(const PhasePause&) = delete;
  PhasePause& operator=(const PhasePause&) = delete;

 private:
  Simulation& sim_;
  Round& round_;
  WallClock::time_point wall_;
  double sim_ms_;
  Snapshot at_;
};

// Kills the server process and restarts it: with `recover` through the
// recovery service directly, otherwise by sending `probe` at once and
// letting the client's retry path restart the process. `probe` performs the
// request and reports whether it got a reply.
void KillAndRestart(Simulation& sim, const Restartable& target, bool recover,
                    const std::function<bool()>& probe, SpanLog& spans,
                    uint64_t parent, Round& round) {
  Process* proc = target.process();
  proc->Kill();
  double killed_at = sim.clock().NowMs();
  if (spans.enabled()) {
    PhasePause pause(sim, round);
    WallClock::time_point t0 = WallClock::now();
    PlanReplay(*proc);
    round.plan_wall_ms.push_back(WallSeconds(t0) * 1e3);
  }
  SpanLog::Open span = spans.Begin(recover ? "recovery" : "probe", parent);
  Snapshot before = Take(sim);
  if (recover) {
    WallClock::time_point t0 = WallClock::now();
    Status s = target.machine->recovery_service().EnsureProcessAlive(target.pid);
    round.recovery_wall_ms.push_back(WallSeconds(t0) * 1e3);
    round.recovery_ms.push_back(sim.clock().NowMs() - killed_at);
    if (!s.ok()) round.Fail("EnsureProcessAlive: " + s.ToString());
  } else {
    ++round.probes;
    if (!probe()) ++round.probe_failures;
    round.first_reply_ms.push_back(sim.clock().NowMs() - killed_at);
  }
  AddTo(round.restarts, Minus(Take(sim), before));
  ++round.restart_count;
  spans.End(span);
}

// Reply accessors for the oracle. A reply of the wrong shape reads as a
// value no model matches, so a broken program fails the check instead of
// aborting the benchmark.
int64_t IntOf(const Value& v) {
  return v.kind() == Value::Kind::kInt ? v.AsInt() : INT64_MIN;
}

double DoubleOf(const Value& v) {
  return v.kind() == Value::Kind::kDouble ? v.AsDouble() : std::nan("");
}

std::string StringOf(const Value& v) {
  return v.kind() == Value::Kind::kString ? v.AsString() : std::string();
}

const Value::List& RowsOf(const Value& v) {
  static const Value::List kEmpty;
  return v.kind() == Value::Kind::kList ? v.AsList() : kEmpty;
}

const Value& FieldOf(const Value& row, size_t i) {
  static const Value kNull;
  const Value::List& fields = RowsOf(row);
  return i < fields.size() ? fields[i] : kNull;
}

// ---------------------------------------------------------------------------
// Bank workloads: transfer and crash_restart.

class Bank {
 public:
  static constexpr int kAccounts = 1024;
  static constexpr int64_t kOpening = 1000;

  Bank(const Config& cfg, bool crash_cycles)
      : cfg_(cfg), crash_cycles_(crash_cycles) {}

  std::unique_ptr<Simulation> Setup(Round& round) {
    RuntimeOptions opts;
    opts.logging_mode = LoggingMode::kOptimized;
    opts.use_specialized_kinds = true;
    opts.group_commit = true;
    opts.async_checkpoint = true;
    opts.async_checkpoint_interval = 64;
    opts.auto_truncate_log = true;
    opts.wal_shards = crash_cycles_ ? 4 : 1;
    if (crash_cycles_) {
      opts.parallel_replay = true;
      opts.parallel_replay_sessions = kSessions;
    }
    SimulationParams params;
    params.seed = cfg_.seed;
    auto sim = std::make_unique<Simulation>(opts, params);
    sim->factories().Register<Account>("Account");
    sim->factories().Register<Teller>("Teller");
    sim->AddMachine("client");
    Machine& ma = sim->AddMachine("ma");
    Machine& mb = sim->AddMachine("mb");
    Process& accounts_proc = ma.CreateProcess();
    Process& tellers_proc = mb.CreateProcess();
    machines_ = {&ma, &mb};
    server_ = Restartable{&ma, accounts_proc.pid()};

    ExternalClient admin(sim.get(), "client");
    for (int i = 0; i < kAccounts; ++i) {
      Result<std::string> uri = admin.CreateComponent(
          accounts_proc, "Account", "acct" + std::to_string(i),
          ComponentKind::kPersistent, MakeArgs(kOpening));
      if (!uri.ok()) {
        round.Fail("create account: " + uri.status().ToString());
        return sim;
      }
      accounts_.push_back(*uri);
    }
    ledger_.assign(kAccounts, kOpening);
    for (int s = 0; s < kSessions; ++s) {
      Result<std::string> uri =
          admin.CreateComponent(tellers_proc, "Teller",
                                "teller" + std::to_string(s),
                                ComponentKind::kPersistent, {});
      if (!uri.ok()) {
        round.Fail("create teller: " + uri.status().ToString());
        return sim;
      }
      tellers_.push_back(*uri);
    }
    acked_.assign(kSessions, 0);
    // Warm-up: one transfer per teller so every remote type table is
    // learned before measuring. The ledger records them like any other.
    for (int s = 0; s < kSessions; ++s) {
      int from = s, to = kAccounts - 1 - s;
      Result<Value> r = admin.Call(
          tellers_[s], "Transfer", MakeArgs(accounts_[from], accounts_[to],
                                            int64_t{1}));
      if (!r.ok()) {
        round.Fail("warm-up transfer: " + r.status().ToString());
        return sim;
      }
      Apply(s, from, to, 1);
    }
    zipf_ = std::make_unique<ZipfKeys>(kAccounts, 0.9, cfg_.seed * 31 + 7);
    for (int s = 0; s < kSessions; ++s) {
      rngs_.emplace_back(cfg_.seed * 1000003 + 17 * (s + 1));
    }
    return sim;
  }

  void Measure(Simulation& sim, SpanLog& spans, uint64_t parent,
               Round& round) {
    if (!crash_cycles_) {
      int per_session = cfg_.small ? 150 : 1500;
      Burst(sim, per_session, spans, parent, round);
      return;
    }
    int cycles = cfg_.small ? 2 : 6;
    int per_session = cfg_.small ? 60 : 150;
    for (int c = 0; c < cycles; ++c) {
      Burst(sim, per_session, spans, parent, round);
      Restart(sim, c % 2 == 0, spans, parent, round);
      PhasePause pause(sim, round);
      Check(sim, round, "after crash cycle " + std::to_string(c));
    }
  }

  // Post-run restart pair for the workloads whose traffic phase crashes
  // nothing: one supervised restart and one probe-driven restart.
  void RestartPair(Simulation& sim, SpanLog& spans, uint64_t parent,
                   Round& round) {
    if (crash_cycles_) return;  // the crash cycles already restarted it
    Restart(sim, true, spans, parent, round);
    Check(sim, round, "after supervised restart");
    Restart(sim, false, spans, parent, round);
    Check(sim, round, "after probe restart");
  }

  bool crash_cycles() const { return crash_cycles_; }
  const Restartable& server() const { return server_; }
  const std::vector<Machine*>& machines() const { return machines_; }

  // Exactly-once oracle: every balance equals the ledger, the total is
  // conserved and each teller counted exactly the transfers it acknowledged.
  void Check(Simulation& sim, Round& round, const std::string& when) {
    ExternalClient reader(&sim, "client");
    int64_t total = 0;
    int mismatches = 0;
    for (int i = 0; i < kAccounts; ++i) {
      Result<Value> b = reader.Call(accounts_[i], "Balance", {});
      if (!b.ok()) {
        round.Fail(when + ": Balance(acct" + std::to_string(i) +
                   ") failed: " + b.status().ToString());
        return;
      }
      int64_t balance = IntOf(*b);
      total += balance;
      if (balance != ledger_[i] && ++mismatches <= 3) {
        round.Fail(when + ": acct" + std::to_string(i) + " balance " +
                   std::to_string(balance) + " != ledger " +
                   std::to_string(ledger_[i]));
      }
    }
    if (total != kOpening * kAccounts) {
      round.Fail(when + ": total " + std::to_string(total) + " not conserved");
    }
    for (int s = 0; s < kSessions; ++s) {
      Result<Value> n = reader.Call(tellers_[s], "Count", {});
      if (!n.ok() || IntOf(*n) != acked_[s]) {
        round.Fail(when + ": teller" + std::to_string(s) + " count " +
                   (n.ok() ? std::to_string(IntOf(*n)) : n.status().ToString()) +
                   " != acknowledged " + std::to_string(acked_[s]));
      }
    }
  }

 private:
  void Apply(int session, int from, int to, int64_t amt) {
    ledger_[from] -= amt;
    ledger_[to] += amt;
    ++acked_[session];
  }

  void Burst(Simulation& sim, int per_session, SpanLog& spans,
             uint64_t parent, Round& round) {
    std::vector<std::function<void()>> bodies;
    for (int s = 0; s < kSessions; ++s) {
      bodies.push_back([this, &sim, &spans, &round, parent, s, per_session] {
        ExternalClient client(&sim, "client");
        Random& rng = rngs_[s];
        for (int i = 0; i < per_session; ++i) {
          int from = zipf_->Draw(rng);
          int to = zipf_->Draw(rng);
          while (to == from) to = zipf_->Draw(rng);
          int64_t amt = rng.UniformRange(1, 100);
          SpanLog::Open span =
              spans.BeginRequest(parent, s, round.attempted);
          WallClock::time_point w0 = WallClock::now();
          double t0 = sim.clock().NowMs();
          Result<Value> r = client.Call(
              tellers_[s], "Transfer",
              MakeArgs(accounts_[from], accounts_[to], amt));
          round.latency_ms.push_back(sim.clock().NowMs() - t0);
          if (spans.enabled()) {
            round.call_wall_us.push_back(WallSeconds(w0) * 1e6);
          }
          spans.End(span);
          ++round.attempted;
          if (r.ok()) {
            Apply(s, from, to, amt);
            if (IntOf(*r) != acked_[s]) {
              round.Fail("teller" + std::to_string(s) + " replied count " +
                         std::to_string(IntOf(*r)) + ", expected " +
                         std::to_string(acked_[s]));
            }
          } else {
            ++round.failed;
            Resolve(sim, s, from, to, amt, round);
          }
        }
        round.client_retries += client.retries();
      });
    }
    sim.RunSessions(std::move(bodies));
  }

  // A transfer that returned an error may still have executed; the
  // teller's own count says whether it did.
  void Resolve(Simulation& sim, int s, int from, int to, int64_t amt,
               Round& round) {
    ExternalClient reader(&sim, "client");
    Result<Value> n = reader.Call(tellers_[s], "Count", {});
    if (!n.ok()) {
      round.Fail("cannot resolve failed transfer: " + n.status().ToString());
      return;
    }
    if (IntOf(*n) == acked_[s] + 1) Apply(s, from, to, amt);
  }

  void Restart(Simulation& sim, bool recover, SpanLog& spans,
               uint64_t parent, Round& round) {
    int probe_acct = static_cast<int>(round.restart_count % kAccounts);
    auto probe = [&]() {
      ExternalClient client(&sim, "client");
      Result<Value> b = client.Call(accounts_[probe_acct], "Balance", {});
      round.client_retries += client.retries();
      if (!b.ok()) return false;
      if (IntOf(*b) != ledger_[probe_acct]) {
        round.Fail("probe Balance(acct" + std::to_string(probe_acct) +
                   ") = " + std::to_string(IntOf(*b)) + " != ledger " +
                   std::to_string(ledger_[probe_acct]));
      }
      return true;
    };
    KillAndRestart(sim, server_, recover, probe, spans, parent, round);
  }

  Config cfg_;
  bool crash_cycles_;
  std::vector<Machine*> machines_;
  Restartable server_;
  std::vector<std::string> accounts_;
  std::vector<std::string> tellers_;
  std::vector<int64_t> ledger_;
  std::vector<int64_t> acked_;
  std::unique_ptr<ZipfKeys> zipf_;
  std::vector<Random> rngs_;
};

// ---------------------------------------------------------------------------
// Bookstore workload: the paper's Figure-10 application under a seeded mix.
//
// Each buyer runs shopping sessions back to back. A session makes the calls
// of the stock Figure-10 buyer session (bookstore::RunBuyerSession: Search,
// AddToBasket twice, ShowBasket, BasketSubtotal, TotalWithTax, ClearBasket)
// plus one BestPrice, the price grabber's other public method, in a seeded
// order with seeded arguments. Every session clears the basket once, so a
// basket never holds more than the four books added since the previous
// session's clear: 4 buyers x 4 stay below the 25 copies of each book.

class Store {
 public:
  static constexpr int kStores = 2;

  explicit Store(const Config& cfg) : cfg_(cfg) {}

  std::unique_ptr<Simulation> Setup(Round& round) {
    SimulationParams params;
    params.seed = cfg_.seed;
    auto sim = std::make_unique<Simulation>(
        bookstore::OptionsForLevel(bookstore::OptLevel::kSpecialized), params);
    bookstore::RegisterBookstoreComponents(sim->factories());
    sim->AddMachine("client");
    Machine& server = sim->AddMachine("server");
    Result<bookstore::Deployment> d = bookstore::Deploy(
        *sim, server, kStores, bookstore::OptLevel::kSpecialized);
    if (!d.ok()) {
      round.Fail("deploy: " + d.status().ToString());
      return sim;
    }
    dep_ = *d;
    machines_ = {&server};
    server_ = Restartable{&server, dep_.server_process->pid()};
    BuildCatalogModel();
    baskets_.assign(kSessions, {});
    sessions_.assign(kSessions, {});
    for (int s = 0; s < kSessions; ++s) {
      rngs_.emplace_back(cfg_.seed * 1000003 + 29 * (s + 1));
    }
    // Warm-up: one search and one empty-basket read per buyer.
    ExternalClient warm(sim.get(), "client");
    for (int s = 0; s < kSessions; ++s) {
      if (!warm.Call(dep_.grabber_uri, "Search", MakeArgs(kTopics[0])).ok() ||
          !warm.Call(dep_.seller_uri, "ShowBasket", MakeArgs(Buyer(s))).ok()) {
        round.Fail("warm-up failed");
      }
    }
    return sim;
  }

  void Measure(Simulation& sim, SpanLog& spans, uint64_t parent,
               Round& round) {
    int per_session = cfg_.small ? 120 : 20000;  // multiples of 8 calls
    std::vector<std::function<void()>> bodies;
    for (int s = 0; s < kSessions; ++s) {
      bodies.push_back([this, &sim, &spans, &round, parent, s, per_session] {
        ExternalClient buyer(&sim, "client");
        for (int i = 0; i < per_session; ++i) {
          Request req = Next(s);
          ++round.calls_by_method[req.method];
          SpanLog::Open span =
              spans.BeginRequest(parent, s, round.attempted);
          WallClock::time_point w0 = WallClock::now();
          double t0 = sim.clock().NowMs();
          Result<Value> r = buyer.Call(req.uri, req.method, req.args);
          round.latency_ms.push_back(sim.clock().NowMs() - t0);
          if (spans.enabled()) {
            round.call_wall_us.push_back(WallSeconds(w0) * 1e6);
          }
          spans.End(span);
          ++round.attempted;
          if (!r.ok()) {
            ++round.failed;
            continue;
          }
          req.check(*r, round);
        }
        round.client_retries += buyer.retries();
      });
    }
    sim.RunSessions(std::move(bodies));
  }

  void RestartPair(Simulation& sim, SpanLog& spans, uint64_t parent,
                   Round& round) {
    auto probe = [&]() {
      ExternalClient client(&sim, "client");
      Result<Value> items =
          client.Call(dep_.seller_uri, "ShowBasket", MakeArgs(Buyer(0)));
      round.client_retries += client.retries();
      if (!items.ok()) return false;
      CheckItems(0, *items, round, "probe ShowBasket");
      return true;
    };
    KillAndRestart(sim, server_, true, probe, spans, parent, round);
    Check(sim, round, "after supervised restart");
    KillAndRestart(sim, server_, false, probe, spans, parent, round);
    Check(sim, round, "after probe restart");
  }

  const Restartable& server() const { return server_; }
  const std::vector<Machine*>& machines() const { return machines_; }

  // Oracle: every basket matches the model and every book's stock equals
  // its opening stock minus the copies sitting in baskets.
  void Check(Simulation& sim, Round& round, const std::string& when) {
    ExternalClient reader(&sim, "client");
    for (int s = 0; s < kSessions; ++s) {
      Result<Value> items =
          reader.Call(dep_.seller_uri, "ShowBasket", MakeArgs(Buyer(s)));
      if (!items.ok()) {
        round.Fail(when + ": ShowBasket failed: " + items.status().ToString());
        return;
      }
      CheckItems(s, *items, round, when);
    }
    for (int st = 0; st < kStores; ++st) {
      for (const Book& book : catalog_[st]) {
        Result<Value> row =
            reader.Call(dep_.store_uris[st], "GetBook", MakeArgs(book.id));
        int64_t held = 0;
        for (const auto& basket : baskets_) {
          for (const Item& it : basket) {
            if (it.store == st && it.id == book.id) ++held;
          }
        }
        if (!row.ok() || IntOf(FieldOf(*row, 3)) != book.stock - held) {
          round.Fail(when + ": stock of " + dep_.store_uris[st] + " book " +
                     std::to_string(book.id) + " != " +
                     std::to_string(book.stock - held));
        }
      }
    }
  }

 private:
  static constexpr std::array<const char*, 10> kTopics = {
      "recovery",    "transaction", "logging", "checkpoint", "replication",
      "concurrency", "indexing",    "queues",  "recovery",   "optimization"};
  static constexpr std::array<const char*, 5> kRegions = {"WA", "OR", "CA",
                                                          "NY", "TX"};

  struct Book {
    int64_t id;
    std::string title;
    double price;
    int64_t stock;
  };
  struct Item {
    int store;
    int64_t id;
  };
  enum class Op { kSearch, kBestPrice, kAdd, kShow, kSubtotal, kTax, kClear };
  static constexpr std::array<Op, 8> kSessionOps = {
      Op::kSearch, Op::kBestPrice, Op::kAdd,   Op::kAdd,
      Op::kShow,   Op::kSubtotal,  Op::kTax,   Op::kClear};

  struct Request {
    std::string uri;
    std::string method;
    ArgList args;
    std::function<void(const Value&, Round&)> check;
  };

  static std::string Buyer(int s) { return "buyer" + std::to_string(s); }

  static double RateFor(const std::string& region) {
    if (region == "WA") return 0.095;
    if (region == "OR") return 0.0;
    if (region == "CA") return 0.085;
    if (region == "NY") return 0.08875;
    return 0.06;
  }

  // The catalog each store opens with, rebuilt independently of the
  // program from the published rule (label-derived prices, 25 copies).
  void BuildCatalogModel() {
    for (int st = 0; st < kStores; ++st) {
      std::string label = "Store-" + std::to_string(st + 1);
      int64_t price_seed = 0;
      for (char c : label) price_seed += c;
      std::vector<Book> books;
      for (int64_t i = 0; i < static_cast<int64_t>(kTopics.size()); ++i) {
        books.push_back(Book{
            i + 1,
            std::string("The ") + kTopics[i] + " book (" + label + " ed.)",
            static_cast<double>((price_seed + 13 * i) % 40 + 10), 25});
      }
      catalog_.push_back(std::move(books));
    }
  }

  std::vector<std::pair<int, const Book*>> Matches(
      const std::string& keyword) const {
    std::vector<std::pair<int, const Book*>> out;
    for (int st = 0; st < kStores; ++st) {
      for (const Book& b : catalog_[st]) {
        if (b.title.find(keyword) != std::string::npos) out.push_back({st, &b});
      }
    }
    return out;
  }

  void CheckItems(int s, const Value& items, Round& round,
                  const std::string& when) const {
    const std::vector<Item>& model = baskets_[s];
    const Value::List& got = RowsOf(items);
    bool same = items.kind() == Value::Kind::kList && got.size() == model.size();
    for (size_t i = 0; same && i < got.size(); ++i) {
      const Book& b = catalog_[model[i].store][model[i].id - 1];
      same = StringOf(FieldOf(got[i], 0)) == dep_.store_uris[model[i].store] &&
             IntOf(FieldOf(got[i], 1)) == b.id &&
             StringOf(FieldOf(got[i], 2)) == b.title &&
             DoubleOf(FieldOf(got[i], 3)) == b.price;
    }
    if (!same) {
      round.Fail(when + ": basket of " + Buyer(s) + " holds " +
                 std::to_string(got.size()) + " items, model " +
                 std::to_string(model.size()));
    }
  }

  // Draws the next request of buyer `s` and how to check its reply.
  Request Next(int s) {
    Random& rng = rngs_[s];
    std::vector<Item>& basket = baskets_[s];
    std::vector<Op>& todo = sessions_[s];
    if (todo.empty()) {
      todo.assign(kSessionOps.begin(), kSessionOps.end());
      for (size_t i = todo.size() - 1; i > 0; --i) {
        std::swap(todo[i], todo[rng.Uniform(i + 1)]);
      }
    }
    Op op = todo.back();
    todo.pop_back();
    switch (op) {
      case Op::kSearch: {
        std::string kw = kTopics[rng.Uniform(kTopics.size())];
        size_t expected = Matches(kw).size();
        return {dep_.grabber_uri, "Search", MakeArgs(kw),
                [expected, kw](const Value& v, Round& round) {
                  if (RowsOf(v).size() != expected) {
                    round.Fail("Search(" + kw + ") hits " +
                               std::to_string(RowsOf(v).size()) +
                               " != catalog " + std::to_string(expected));
                  }
                }};
      }
      case Op::kBestPrice: {
        std::string kw = kTopics[rng.Uniform(kTopics.size())];
        double best = 1e300;
        for (const auto& m : Matches(kw)) best = std::min(best, m.second->price);
        return {dep_.grabber_uri, "BestPrice", MakeArgs(kw),
                [best, kw](const Value& v, Round& round) {
                  if (DoubleOf(FieldOf(v, 3)) != best) {
                    round.Fail("BestPrice(" + kw + ") != catalog minimum");
                  }
                }};
      }
      case Op::kTax: {
        double amount = static_cast<double>(rng.UniformRange(100, 20000)) / 100;
        std::string region = kRegions[rng.Uniform(kRegions.size())];
        double expected = amount * (1.0 + RateFor(region));
        return {dep_.tax_uri, "TotalWithTax", MakeArgs(amount, region),
                [expected](const Value& v, Round& round) {
                  if (DoubleOf(v) != expected) {
                    round.Fail("TotalWithTax mismatch");
                  }
                }};
      }
      case Op::kAdd: {
        int st = static_cast<int>(rng.Uniform(kStores));
        int64_t id = rng.UniformRange(1, static_cast<int64_t>(kTopics.size()));
        basket.push_back(Item{st, id});
        int64_t expected = static_cast<int64_t>(basket.size());
        return {dep_.seller_uri, "AddToBasket",
                MakeArgs(Buyer(s), dep_.store_uris[st], id),
                [expected](const Value& v, Round& round) {
                  if (IntOf(v) != expected) {
                    round.Fail("AddToBasket count " +
                               std::to_string(IntOf(v)) + " != model " +
                               std::to_string(expected));
                  }
                }};
      }
      case Op::kShow:
        return {dep_.seller_uri, "ShowBasket", MakeArgs(Buyer(s)),
                [this, s](const Value& v, Round& round) {
                  CheckItems(s, v, round, "ShowBasket");
                }};
      case Op::kSubtotal: {
        double expected = 0;
        for (const Item& it : basket) {
          expected += catalog_[it.store][it.id - 1].price;
        }
        return {dep_.seller_uri, "BasketSubtotal", MakeArgs(Buyer(s)),
                [expected](const Value& v, Round& round) {
                  if (DoubleOf(v) != expected) {
                    round.Fail("BasketSubtotal mismatch");
                  }
                }};
      }
      case Op::kClear:
        break;
    }
    // Op::kClear.
    int64_t expected = static_cast<int64_t>(basket.size());
    basket.clear();
    return {dep_.seller_uri, "ClearBasket", MakeArgs(Buyer(s)),
            [expected](const Value& v, Round& round) {
              if (IntOf(v) != expected) {
                round.Fail("ClearBasket removed " + std::to_string(IntOf(v)) +
                           " != model " + std::to_string(expected));
              }
            }};
  }

  Config cfg_;
  bookstore::Deployment dep_;
  std::vector<Machine*> machines_;
  Restartable server_;
  std::vector<std::vector<Book>> catalog_;
  std::vector<std::vector<Item>> baskets_;
  std::vector<std::vector<Op>> sessions_;  // calls left in each buyer's session
  std::vector<Random> rngs_;
};

// ---------------------------------------------------------------------------
// One simulation: set up, measure, check, restart, pass over the final log.
// A round pools several of them, each from its own sub-seed, so the
// sim-time figures average over independent request streams at one fixed
// run length. transfer pools six shorter simulations: its p99 depends on
// how requests meet checkpoint sweeps, which varies most from stream to
// stream.

int SimsPerRound(const std::string& workload) {
  return workload == "transfer" ? 6 : 3;
}

template <typename Workload>
void RunSim(Workload& w, const Config& cfg, SpanLog& spans,
            Simulation** sim_slot, Round& round) {
  SpanLog::Open sim_span = spans.Begin("sim", 0);
  uint64_t sim_id = spans.id_of(sim_span);

  SpanLog::Open setup_span = spans.Begin("setup", sim_id);
  WallClock::time_point t0 = WallClock::now();
  std::unique_ptr<Simulation> sim = w.Setup(round);
  round.setup_s.push_back(WallSeconds(t0));
  *sim_slot = sim.get();
  spans.End(setup_span);
  if (round.correct) {
    SpanLog::Open phase_span = spans.Begin("phase", sim_id);
    Snapshot before = Take(*sim);
    double sim_t0 = sim->clock().NowMs();
    size_t recoveries_before = round.recovery_wall_ms.size();
    double wall_before = round.phase_wall_s;
    uint64_t requests_before = round.attempted;
    WallClock::time_point wall_t0 = WallClock::now();
    w.Measure(*sim, spans, spans.id_of(phase_span), round);
    round.phase_wall_s += WallSeconds(wall_t0);
    round.req_per_wall_s.push_back(
        static_cast<double>(round.attempted - requests_before) /
        (round.phase_wall_s - wall_before));
    round.phase_sim_ms += sim->clock().NowMs() - sim_t0;
    AddTo(round.phase, Minus(Take(*sim), before));
    spans.End(phase_span);
    round.ckpt_lag_p99_ms.push_back(
        sim->metrics()
            .MergedHistogram("phoenix.checkpoint.async.lag_ms")
            .Percentile(99));
    round.log_retained_bytes.push_back(RetainedLogBytes(*sim, w.machines()));

    SpanLog::Open oracle_span = spans.Begin("oracle", sim_id);
    w.Check(*sim, round, "after measured phase");
    spans.End(oracle_span);

    w.RestartPair(*sim, spans, sim_id, round);
    // Later crash cycles recover longer logs, so a simulation's restarts
    // are summarised by their mean before taking medians across runs.
    std::vector<double> mine(
        round.recovery_wall_ms.begin() +
            static_cast<std::ptrdiff_t>(recoveries_before),
        round.recovery_wall_ms.end());
    round.sim_recovery_wall_ms.push_back(Mean(mine));
    if (cfg.traced) RunLayerPasses(*w.server().process(), spans, sim_id, round);
  }
  spans.End(sim_span);
  *sim_slot = nullptr;
}

double PerRequest(double x, const Round& r) {
  return r.attempted == 0 ? 0.0 : x / static_cast<double>(r.attempted);
}

// Per-layer figures that depend only on the seed (compared across rounds).
NumMap LayerSimMetrics(const Round& r) {
  const Snapshot& p = r.phase;
  const Snapshot& rs = r.restarts;
  double kreq = static_cast<double>(r.attempted) / 1000.0;
  double per_rec = std::max(1, r.restart_count);
  double disk_busy = p[kSeekMs] + p[kRotWaitMs] + p[kTransferMs];
  return {
      {"runtime.intercepts_per_req", PerRequest(p[kIncoming] + p[kOutgoing], r)},
      {"runtime.retries_per_req",
       PerRequest(p[kInterceptRetries] + static_cast<double>(r.client_retries),
                  r)},
      {"runtime.dedupe_hits", p[kDedupeHits] + rs[kDedupeHits]},
      {"runtime.replay_suppressed", rs[kReplaySuppressed] / per_rec},
      {"wal.appends_per_req", PerRequest(p[kAppends], r)},
      {"wal.forces_per_req", PerRequest(p[kForces], r)},
      {"wal.bytes_per_force",
       p[kForces] == 0 ? 0.0 : p[kBytesForced] / p[kForces]},
      {"wal.group_batch_mean",
       p[kBatchCount] == 0 ? 0.0 : p[kBatchSum] / p[kBatchCount]},
      {"wal.park_ms_per_req", PerRequest(p[kParkMs], r)},
      {"wal.own_force_wait_ms_per_req", PerRequest(p[kOwnForceWaitMs], r)},
      {"sim.disk_ms_per_req", PerRequest(disk_busy, r)},
      {"sim.disk_rot_wait_share",
       disk_busy == 0 ? 0.0 : p[kRotWaitMs] / disk_busy},
      {"recovery.ckpt_published_per_kreq", p[kCkptPublished] / kreq},
      {"recovery.state_saves_per_kreq", p[kStateSaves] / kreq},
      {"recovery.ckpt_deferred_per_kreq", p[kCkptDeferred] / kreq},
      {"recovery.ckpt_lag_ms_p99", Mean(r.ckpt_lag_p99_ms)},
      {"recovery.gc_reclaimed_ratio",
       p[kBytesForced] == 0 ? 0.0 : p[kBytesReclaimed] / p[kBytesForced]},
      {"recovery.log_retained_mb", Mean(r.log_retained_bytes) / 1e6},
      {"recovery.records_scanned", rs[kRecordsScanned] / per_rec},
      {"recovery.calls_replayed", rs[kCallsReplayed] / per_rec},
      {"recovery.contexts_recovered", rs[kContextRecoveries] / per_rec},
      {"recovery.replay_chains", rs[kReplayChains] / per_rec},
      {"recovery.replay_critical_path_ms", rs[kCriticalPathMs] / per_rec},
      {"recovery.replay_makespan_ms", rs[kMakespanMs] / per_rec},
      {"recovery.replay_fallbacks", rs[kReplayFallbacks] / per_rec},
      {"recovery.merge_records", rs[kMergeRecords] / per_rec},
      {"recovery.supervisor_attempts", rs[kSupervisorAttempts] / per_rec},
  };
}

int Main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = val;
    } else if (key == "--seed") {
      cfg.seed = std::stoull(val);
    } else if (key == "--traced") {
      cfg.traced = val == "1";
    } else if (key == "--size") {
      cfg.small = val == "small";
    } else if (key == "--trace-dir") {
      cfg.trace_dir = val;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return 2;
    }
  }

  if (cfg.workload != "transfer" && cfg.workload != "crash_restart" &&
      cfg.workload != "bookstore") {
    std::fprintf(stderr,
                 "usage: phx_perfbench --workload transfer|crash_restart|"
                 "bookstore --seed N [--traced 0|1] [--size full|small] "
                 "[--trace-dir DIR]\n");
    return 2;
  }
  // Session threads run one at a time, so one malloc arena serves them all.
  // A fixed mmap threshold hands every large block (log images, record
  // vectors) back to the system when it is freed, so peak RSS follows live
  // memory and repeats per seed; with glibc's adaptive threshold it varied
  // by 30% between runs of one seed, following the order in which session
  // threads freed large blocks.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  Round round;
  Simulation* sim_slot = nullptr;
  SpanLog spans(cfg.traced, &sim_slot);
  for (int k = 0; k < SimsPerRound(cfg.workload) && round.correct; ++k) {
    Config sub = cfg;
    sub.seed = cfg.seed * 16 + static_cast<uint64_t>(k);
    if (cfg.workload == "bookstore") {
      Store store(sub);
      RunSim(store, sub, spans, &sim_slot, round);
    } else {
      Bank bank(sub, cfg.workload == "crash_restart");
      RunSim(bank, sub, spans, &sim_slot, round);
    }
  }
  if (cfg.traced && !cfg.trace_dir.empty()) {
    std::string path = cfg.trace_dir + "/spans-" + cfg.workload + "-seed" +
                       std::to_string(cfg.seed) + ".jsonl";
    Status s = spans.WriteJsonl(path);
    if (!s.ok()) round.Fail(s.ToString());
  }

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  NumMap sim_metrics = {
      {"req_per_sim_s", round.phase_sim_ms <= 0
                            ? 0.0
                            : round.attempted / (round.phase_sim_ms / 1e3)},
      {"req_p50_ms", BandMean(round.latency_ms, 0.45, 0.55)},
      {"req_p99_ms", BandMean(round.latency_ms, 0.985, 0.995)},
      {"log_bytes_per_req", PerRequest(round.phase[kBytesForced], round)},
      {"failed_req_ratio",
       static_cast<double>(round.failed + round.probe_failures) /
           static_cast<double>(std::max<uint64_t>(
               1, round.attempted + round.probes))},
      {"recovery_ms", Median(round.recovery_ms)},
      {"first_reply_ms", Median(round.first_reply_ms)},
      {"latency_samples", static_cast<double>(round.latency_ms.size())},
  };
  NumMap layer_wall;
  if (cfg.traced) {
    for (const auto& [name, values] : round.passes) {
      layer_wall.emplace_back(name, Median(values));
    }
    layer_wall.emplace_back("runtime.call_wall_us_p50",
                            Median(round.call_wall_us));
    layer_wall.emplace_back("recovery.plan_wall_ms", Median(round.plan_wall_ms));
  }

  obs::JsonWriter w;
  w.BeginObject()
      .Key("workload").String(cfg.workload)
      .Key("seed").Number(cfg.seed)
      .Key("traced").Bool(cfg.traced)
      .Key("correct").Bool(round.correct)
      .Key("errors").BeginArray();
  for (const std::string& e : round.errors) w.String(e);
  w.EndArray()
      .Key("attempted").Number(round.attempted + round.probes)
      .Key("failed").Number(round.failed + round.probe_failures)
      .Key("mix").BeginObject();
  for (const auto& [method, calls] : round.calls_by_method) {
    w.Key(method).Number(calls);
  }
  w.EndObject().Key("sim");
  WriteObject(w, sim_metrics);
  // Wall-time samples: one per simulation (per restart for recoveries);
  // run.py takes medians over the samples of all rounds.
  w.Key("wall").BeginObject().Key("setup_s");
  WriteList(w, round.setup_s);
  w.Key("req_per_wall_s");
  WriteList(w, round.req_per_wall_s);
  w.Key("recovery_wall_ms");
  WriteList(w, round.sim_recovery_wall_ms);
  w.Key("peak_rss_mb");
  WriteList(w, {peak_rss_mb});
  w.EndObject().Key("layer_sim");
  WriteObject(w, LayerSimMetrics(round));
  w.Key("layer_wall");
  WriteObject(w, layer_wall);
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return round.correct ? 0 : 1;
}

}  // namespace
}  // namespace phoenix::perfbench

int main(int argc, char** argv) {
  return phoenix::perfbench::Main(argc, argv);
}
