// phoenix_chaos — seeded hostile-environment campaign driver.
//
// One harness runs every campaign. Each run builds a bookstore simulation,
// deploys the seller and 1..overlap persistent ShoppingAgents (none for the
// external_direct topology), drives seeded buyer sessions one at a time or
// in overlapping waves (Simulation::RunSessions) with one optional mid-run
// event — a kill followed by a supervised restart, with storage attacks
// before it or recovery-phase crashes during it — and then checks the
// torture-test exactly-once oracle: every session's reservations and sales
// must be accounted for exactly once.
//
// Persistent topologies (a persistent ShoppingAgent driving the seller)
// must come out exact under every fault mix — any drift is a violation and
// the campaign exits non-zero. The external-direct topology exercises the
// paper's §3.1.2 window of vulnerability: an external client that loses a
// reply reissues under a NEW call id, so duplicate executions are expected
// there; the campaign counts them (wov_duplicate_executions) rather than
// masking them, and only undercounts or inconsistent inventory are
// violations. The oracle also folds the final observable state into an
// FNV-1a hash; a mode with a twin reruns each seeded workload fault-free
// first, and the faulted run must reproduce the twin's hash.
//
// A mode is its seeded config drawer, the faults that config installs, its
// twin rule and its report metrics:
//
//   (default)                 crash triggers at protocol hooks and inside
//                             group flushes, lossy links, torn tails and
//                             mid-run bit-rot on the seller or the agent,
//                             across all three topologies. --overlap=N > 1
//                             runs a seeded subset in waves of 2..N chains,
//                             half with group commit. No twin.
//   --wal-shards=N (N > 1)    protocol crashes, torn tails and mid-run
//                             attacks on a single shard file of an N-shard
//                             WAL. Twin: fault-free single log.
//   --async-checkpoint        inline save/checkpoint cadence off, background
//                             sweeper on, crashes inside the sweeps and
//                             crash-time torn tails; always in waves; half
//                             the runs price a state restore low enough
//                             that sweeps save. Twin: fault-free, same
//                             layout and costs.
//   --crash-during-recovery   a mid-run server kill whose recovery is crashed
//                             again at recovery-phase points (nested up to
//                             depth 3), with storage attacks between
//                             attempts. Twin: the same kill with a clean
//                             recovery, same layout.
//   --crash-half-restored     a mid-run server kill whose recovery admits
//                             calls with every context cold; crashes fire
//                             while contexts materialize, between
//                             materializations, and inside a checkpoint
//                             bracket taken right after admission; half the
//                             runs drain from checkpoint sweeps. Twin: the
//                             same kill and bracket without crashes, same
//                             layout.
//
// --async-checkpoint, --crash-during-recovery and --crash-half-restored run
// both the faulted run and its twin on a --wal-shards log and exclude each
// other. The harness exits 2 on a malformed number, a --wal-shards outside
// 1..64 or two mode flags together.
//
// Every decision flows from --seed through split Random streams, so a rerun
// with the same flags emits a byte-identical phoenix.chaos.v1 report.
//
// Usage:
//   phoenix_chaos [--runs=N] [--seed=S] [--sessions=N] [--overlap=N]
//                 [--wal-shards=N] [--async-checkpoint]
//                 [--crash-during-recovery] [--crash-half-restored]
//                 [--out=FILE] [--verbose]

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bookstore/setup.h"
#include "common/random.h"
#include "common/strings.h"
#include "obs/bench_reporter.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/recovery_service.h"
#include "wal/force_point.h"

namespace phoenix::tools {
namespace {

inline constexpr char kChaosSchema[] = "phoenix.chaos.v1";

// Process::Start clamps the WAL to this many shards.
constexpr uint32_t kMaxWalShards = 64;

struct CampaignOptions {
  int runs = 500;
  uint64_t seed = 42;
  int sessions = 8;
  // Maximum overlapping sessions per wave. 1 = every session sequential
  // (the pre-session-scheduler harness, byte-identical draws); > 1 lets a
  // seeded subset of runs overlap their sessions and flip group commit on.
  // The default sweeps past the old cap of 4 so wide waves (deep group
  // batches, more parked chains per flush) are exercised routinely.
  int overlap = 8;
  std::string out;  // empty: BenchReporter default (BENCH_<name>.json)
  bool verbose = false;
  bool crash_during_recovery = false;
  bool async_checkpoint = false;
  bool crash_half_restored = false;
  // WAL layout of every run; > 1 without a mode flag selects the
  // sharded-WAL mode.
  uint32_t wal_shards = 1;
};

enum class Topology {
  kRemoteAgent,     // persistent agent on its own machine
  kColocatedAgent,  // persistent agent in a second process on the server
  kExternalDirect,  // external client drives the seller directly (WoV)
};

const char* TopologyName(Topology t) {
  switch (t) {
    case Topology::kRemoteAgent:
      return "remote_agent";
    case Topology::kColocatedAgent:
      return "colocated_agent";
    case Topology::kExternalDirect:
      return "external_direct";
  }
  return "?";
}

// Persistent workflow tier (same shape as the torture test's agent): one
// Session call adds a book to the buyer's basket and checks out. Its
// retries carry stable call IDs, so crashes and lost replies anywhere
// inside the session are fully masked by duplicate elimination.
class ShoppingAgent : public Component {
 public:
  void RegisterMethods(MethodRegistry& methods) override {
    methods.Register("Session", [this](const ArgList& a) -> Result<Value> {
      const std::string& buyer = a[0].AsString();
      const std::string& store = a[1].AsString();
      int64_t book = a[2].AsInt();
      PHX_RETURN_IF_ERROR(
          CallRef(seller_, "AddToBasket", MakeArgs(buyer, store, book))
              .status());
      PHX_ASSIGN_OR_RETURN(
          Value total,
          CallRef(seller_, "Checkout", MakeArgs(buyer, std::string("WA"))));
      ++sessions_done_;
      return total;
    });
    methods.Register(
        "SessionsDone",
        [this](const ArgList&) -> Result<Value> {
          return Value(sessions_done_);
        },
        MethodTraits{.read_only = true});
  }
  void RegisterFields(FieldRegistry& fields) override {
    fields.RegisterComponentRef("seller", &seller_);
    fields.RegisterInt("sessions_done", &sessions_done_);
  }
  Status Initialize(const ArgList& args) override {
    seller_.uri = args[0].AsString();
    return Status::OK();
  }

 private:
  ComponentRefField seller_;
  int64_t sessions_done_ = 0;
};

// One randomized run configuration, fully derived from the campaign seed.
// Each mode's drawer fills the fields it sweeps; the others keep their
// fault-free defaults, so the harness reads one shape for every mode.
struct RunConfig {
  uint64_t sim_seed = 1;
  bookstore::OptLevel level = bookstore::OptLevel::kSpecialized;
  uint32_t save_every = 0;
  uint32_t checkpoint_every = 0;
  Topology topology = Topology::kRemoteAgent;
  int stores = 2;
  int overlap = 1;             // sessions per concurrent wave (1 = sequential)
  bool group_commit = false;   // coalesce durability waits across the wave
  // > 0: async_checkpoint_interval of the background checkpoint sweeper,
  // which takes over from the (then zero) inline cadence.
  uint32_t async_interval = 0;
  // > 0: the run's cost model prices a state restore at this many replayed
  // calls, so a sweep saves a context once it has that many calls since its
  // last save (0 keeps the model's ~460).
  uint32_t save_due_after = 0;

  // Faults the faulted run installs right after deploying; crash triggers
  // target the seller's process.
  std::vector<std::pair<FailurePoint, uint64_t>> crashes;
  LinkFaults faults;           // default faults on the links under test
  bool targeted_drop = false;  // drop the first Checkout reply
  double torn_p = 0.0;         // torn-tail probability per crash

  // Mid-run storage attack: the target is killed, its storage damaged and
  // it is restarted by its machine's recovery service.
  bool bitrot_state = false;  // rot the newest state record (its shard file)
  bool bitrot_wkf = false;    // rot the (meta shard's) well-known file
  bool tear_shard = false;    // tear the un-externalized tail (one shard)
  bool attack_agent = false;  // storage attack hits the agent process

  // Crash-during-recovery: the mid-run kill restarts the server on both
  // runs; on the faulted one its recovery crashes at these (point,
  // cumulative hit count) triggers — attempt n's hits continue attempt
  // n-1's counter, so consecutive entries on one point crash consecutive
  // attempts — and the storage rots between attempts.
  int depth = 0;  // nested recovery crashes (1..3)
  std::vector<std::pair<FailurePoint, uint64_t>> recovery_crashes;
  bool attack_wkf = false;    // corrupt the well-known file before attempt 2
  bool attack_state = false;  // corrupt the newest state record, attempt 2
  bool attack_tear = false;   // tear the stable tail before attempt 3

  // Crash-half-restored: the mid-run kill restarts the server on both runs
  // and, once calls are admitted, takes a checkpoint bracket while every
  // context is still cold; on the faulted run these (point, hit) triggers
  // are armed right after admission, counting from there.
  bool cold_bracket = false;
  std::vector<std::pair<FailurePoint, uint64_t>> half_restored_crashes;
};

// --- config drawers ----------------------------------------------------------

// The default campaign: every topology, lossy links, protocol crashes,
// torn tails and mid-run bit-rot, with an overlapping-wave sweep.
RunConfig MakeRunConfig(const CampaignOptions& campaign, int run) {
  Random rng(campaign.seed * 1000003ull + static_cast<uint64_t>(run));
  RunConfig cfg;
  cfg.sim_seed = campaign.seed * 7919ull + static_cast<uint64_t>(run) + 1;
  switch (rng.Uniform(3)) {
    case 0:
      cfg.level = bookstore::OptLevel::kBaseline;
      break;
    case 1:
      cfg.level = bookstore::OptLevel::kOptimizedLogging;
      break;
    default:
      cfg.level = bookstore::OptLevel::kSpecialized;
      break;
  }
  const uint32_t kSaveChoices[] = {0, 3, 7};
  cfg.save_every = kSaveChoices[rng.Uniform(3)];
  cfg.checkpoint_every = cfg.save_every > 0 ? cfg.save_every * 2 : 0;
  cfg.topology = static_cast<Topology>(rng.Uniform(3));
  cfg.stores = 1 + static_cast<int>(rng.Uniform(2));

  uint64_t crash_count = rng.Uniform(5);  // 0..4 crash triggers
  for (uint64_t i = 0; i < crash_count; ++i) {
    // Index 6 maps to the group-flush hook: a crash that fires *inside* a
    // group commit, taking the whole parked batch's unforced tail at once.
    // It only trips on runs where group commit actually flushes, and those
    // flushes are far rarer than protocol hooks, so it gets a short fuse.
    uint64_t draw = rng.Uniform(7);
    FailurePoint point = draw < 6 ? static_cast<FailurePoint>(draw)
                                  : FailurePoint::kDuringGroupFlush;
    uint64_t hit = point == FailurePoint::kDuringGroupFlush
                       ? 1 + rng.Uniform(6)
                       : 1 + rng.Uniform(100);
    cfg.crashes.emplace_back(point, hit);
  }

  if (rng.Bernoulli(0.7)) {  // lossy network
    cfg.faults.drop_p = rng.NextDouble() * 0.08;
    cfg.faults.dup_p = rng.NextDouble() * 0.05;
    cfg.faults.delay_jitter_ms = rng.NextDouble() * 2.0;
  }
  cfg.targeted_drop = rng.Bernoulli(0.25);
  if (rng.Bernoulli(0.5)) {  // faulty storage
    cfg.torn_p = 0.1 + rng.NextDouble() * 0.5;
  }
  cfg.bitrot_state = rng.Bernoulli(0.25);
  cfg.bitrot_wkf = rng.Bernoulli(0.15);
  // Half the storage attacks go after the *agent* process instead of the
  // seller — the persistent tier whose replay masks everything else. Only
  // meaningful in agent topologies; external_direct has no agent.
  cfg.attack_agent = rng.Bernoulli(0.5);
  // An unused draw: removing it would shift every later draw, and so every
  // existing campaign.
  (void)rng.Bernoulli(0.4);
  // Draws gated on the flag so --overlap=1 replays the sequential
  // harness's exact decision stream.
  if (campaign.overlap > 1 && rng.Bernoulli(0.6)) {
    cfg.overlap =
        2 + static_cast<int>(rng.Uniform(
                static_cast<uint64_t>(campaign.overlap - 1)));
    cfg.group_commit = rng.Bernoulli(0.5);
  }
  return cfg;
}

// --crash-during-recovery treats recovery itself as the fault domain: the
// server is killed mid-campaign, and the *recovery* that follows is crashed
// again at seeded recovery-phase fault points (analysis scan, state
// reinstatement, between replay units, end-of-log flush), nested up to
// depth 3 — a crash during the re-recovery of a crashed recovery — with
// optional storage attacks on the well-known file, the newest state record
// or the stable tail between attempts. However many times recovery is
// interrupted, the supervisor must converge to the twin's final state
// without ever reaching the cold-start rung or giving up.
RunConfig MakeRecoveryCrashConfig(const CampaignOptions& campaign, int run) {
  Random rng(campaign.seed * 2000003ull + static_cast<uint64_t>(run));
  RunConfig cfg;
  cfg.sim_seed = campaign.seed * 7919ull + static_cast<uint64_t>(run) + 1;
  switch (rng.Uniform(3)) {
    case 0:
      cfg.level = bookstore::OptLevel::kBaseline;
      break;
    case 1:
      cfg.level = bookstore::OptLevel::kOptimizedLogging;
      break;
    default:
      cfg.level = bookstore::OptLevel::kSpecialized;
      break;
  }
  const uint32_t kSaveChoices[] = {0, 3, 7};
  cfg.save_every = kSaveChoices[rng.Uniform(3)];
  cfg.checkpoint_every = cfg.save_every > 0 ? cfg.save_every * 2 : 0;
  cfg.topology = rng.Bernoulli(0.5) ? Topology::kRemoteAgent
                                    : Topology::kColocatedAgent;
  cfg.stores = 1 + static_cast<int>(rng.Uniform(2));
  (void)rng.Bernoulli(0.5);  // unused; keeps the later draws in place

  static const FailurePoint kRecoveryPoints[] = {
      FailurePoint::kDuringRecoveryAnalysis,
      FailurePoint::kDuringRecoveryRestore,
      FailurePoint::kBetweenReplayUnits,
      FailurePoint::kDuringEndOfLogFlush,
  };
  cfg.depth = 1 + static_cast<int>(rng.Uniform(3));
  uint64_t cumulative[kNumFailurePoints] = {};
  for (int d = 0; d < cfg.depth; ++d) {
    FailurePoint point = kRecoveryPoints[rng.Uniform(4)];
    cumulative[static_cast<int>(point)] += 1 + rng.Uniform(2);
    cfg.recovery_crashes.emplace_back(point,
                                      cumulative[static_cast<int>(point)]);
  }
  cfg.attack_wkf = rng.Bernoulli(0.3);
  cfg.attack_state = rng.Bernoulli(0.3);
  cfg.attack_tear = rng.Bernoulli(0.2);
  return cfg;
}

// --async-checkpoint treats the background checkpoint session as the fault
// domain: a concurrent workload (group commit on, per the pipeline's
// parking contract) with seeded crashes *inside* the background sweeps —
// mid context-state capture (kDuringStateSave), inside the checkpoint
// bracket (kDuringCheckpoint) and in the group flush the sweep's force
// joins (kDuringGroupFlush) — and optional crash-time torn tails eating the
// unpublished bracket, which must fall back to the older published
// checkpoint without observable drift. A bookstore context sees far fewer
// calls per run than the cost model's save threshold, so half the runs
// price a state restore at 1..4 replayed calls: their sweeps save (and
// defer busy contexts), which is what the state-save crashes need.
// Persistent topologies only.
RunConfig MakeAsyncCheckpointConfig(const CampaignOptions& campaign,
                                    int run) {
  Random rng(campaign.seed * 3000017ull + static_cast<uint64_t>(run));
  RunConfig cfg;
  cfg.sim_seed = campaign.seed * 7919ull + static_cast<uint64_t>(run) + 1;
  switch (rng.Uniform(3)) {
    case 0:
      cfg.level = bookstore::OptLevel::kBaseline;
      break;
    case 1:
      cfg.level = bookstore::OptLevel::kOptimizedLogging;
      break;
    default:
      cfg.level = bookstore::OptLevel::kSpecialized;
      break;
  }
  const uint32_t kIntervals[] = {4, 8, 16};
  cfg.async_interval = kIntervals[rng.Uniform(3)];
  cfg.topology = rng.Bernoulli(0.5) ? Topology::kRemoteAgent
                                    : Topology::kColocatedAgent;
  cfg.stores = 1 + static_cast<int>(rng.Uniform(2));
  // Always concurrent: the background session only interleaves mid-wave,
  // so a sequential run would never crash inside a sweep.
  int span = campaign.overlap > 2 ? campaign.overlap - 1 : 1;
  cfg.overlap = 2 + static_cast<int>(rng.Uniform(
                        static_cast<uint64_t>(span)));
  (void)rng.Bernoulli(0.4);  // unused; keeps the later draws in place
  // 1..3 crash triggers aimed at the points only the background sweeper
  // reaches on these runs (the inline cadence is off, so kDuringStateSave
  // and kDuringCheckpoint can't fire from a foreground chain). Sweeps are
  // rare relative to protocol hooks, so the fuses are short; a trigger
  // whose count outruns the run's sweeps simply never fires. Triggers only
  // target the seller's process: the persistent agent in front masks every
  // seller crash, whereas killing the *agent* mid-wave would interrupt its
  // external driver's in-flight call and open the §3.1.2 window of
  // vulnerability — expected duplicates, not a checkpointing defect.
  static const FailurePoint kSweepPoints[] = {
      FailurePoint::kDuringStateSave,
      FailurePoint::kDuringCheckpoint,
      FailurePoint::kDuringGroupFlush,
  };
  uint64_t cumulative[kNumFailurePoints] = {};
  uint64_t crash_count = 1 + rng.Uniform(3);
  for (uint64_t i = 0; i < crash_count; ++i) {
    FailurePoint point = kSweepPoints[rng.Uniform(3)];
    cumulative[static_cast<int>(point)] += 1 + rng.Uniform(3);
    cfg.crashes.emplace_back(point, cumulative[static_cast<int>(point)]);
  }
  if (rng.Bernoulli(0.5)) cfg.torn_p = 0.1 + rng.NextDouble() * 0.5;
  if (rng.Bernoulli(0.5)) {
    cfg.save_due_after = 1 + static_cast<uint32_t>(rng.Uniform(4));
  }
  return cfg;
}

// --wal-shards=N treats the shard layout itself as the fault domain:
// protocol crashes, crash-time torn tails and mid-run storage attacks
// aimed at a *single* shard file (one shard's torn tail, bit-rot on the
// shard holding the newest state record, well-known-file rot on the meta
// shard). However the shards were damaged, the gsn merge must reassemble
// the very history the single-log twin wrote. Persistent topologies only.
RunConfig MakeShardChaosConfig(const CampaignOptions& campaign, int run) {
  Random rng(campaign.seed * 4000037ull + static_cast<uint64_t>(run));
  RunConfig cfg;
  cfg.sim_seed = campaign.seed * 7919ull + static_cast<uint64_t>(run) + 1;
  switch (rng.Uniform(3)) {
    case 0:
      cfg.level = bookstore::OptLevel::kBaseline;
      break;
    case 1:
      cfg.level = bookstore::OptLevel::kOptimizedLogging;
      break;
    default:
      cfg.level = bookstore::OptLevel::kSpecialized;
      break;
  }
  const uint32_t kSaveChoices[] = {0, 3, 7};
  cfg.save_every = kSaveChoices[rng.Uniform(3)];
  cfg.checkpoint_every = cfg.save_every > 0 ? cfg.save_every * 2 : 0;
  cfg.topology = rng.Bernoulli(0.5) ? Topology::kRemoteAgent
                                    : Topology::kColocatedAgent;
  cfg.stores = 1 + static_cast<int>(rng.Uniform(2));
  uint64_t crash_count = rng.Uniform(4);  // 0..3 protocol crash triggers
  for (uint64_t i = 0; i < crash_count; ++i) {
    auto point = static_cast<FailurePoint>(rng.Uniform(6));
    cfg.crashes.emplace_back(point, 1 + rng.Uniform(100));
  }
  if (rng.Bernoulli(0.6)) {
    cfg.torn_p = 0.1 + rng.NextDouble() * 0.5;
  }
  cfg.bitrot_state = rng.Bernoulli(0.35);
  cfg.bitrot_wkf = rng.Bernoulli(0.2);
  cfg.tear_shard = rng.Bernoulli(0.3);
  cfg.attack_agent = rng.Bernoulli(0.3);
  (void)rng.Bernoulli(0.5);  // unused; keeps the campaign's draws in place
  return cfg;
}

// --crash-half-restored treats instant restart's half-restored process as
// the fault domain. The server is killed mid-campaign and restarted; its
// recovery admits calls with every context still a cold shell, and the
// campaign's next sessions materialize them on demand (half the runs also
// drain them from background checkpoint sweeps). Right after admission the
// faulted run arms 1..3 crashes at the points only a half-restored process
// reaches: mid-materialization (after a context is rebuilt from its
// origin, or between two of its replayed units), between materializations
// while other contexts are still cold, and inside the checkpoint bracket
// the harness takes while every context is cold. Every crash restarts the
// process into a fresh set of shells; the run must still reproduce its
// fault-free twin's state. Persistent topologies only.
RunConfig MakeHalfRestoredConfig(const CampaignOptions& campaign, int run) {
  Random rng(campaign.seed * 5000011ull + static_cast<uint64_t>(run));
  RunConfig cfg;
  cfg.sim_seed = campaign.seed * 7919ull + static_cast<uint64_t>(run) + 1;
  switch (rng.Uniform(3)) {
    case 0:
      cfg.level = bookstore::OptLevel::kBaseline;
      break;
    case 1:
      cfg.level = bookstore::OptLevel::kOptimizedLogging;
      break;
    default:
      cfg.level = bookstore::OptLevel::kSpecialized;
      break;
  }
  cfg.topology = rng.Bernoulli(0.5) ? Topology::kRemoteAgent
                                    : Topology::kColocatedAgent;
  cfg.stores = 1 + static_cast<int>(rng.Uniform(2));
  if (rng.Bernoulli(0.5)) {
    // Background sweeps (each drains one cold context) in overlapping
    // waves; the inline cadence is then off.
    cfg.async_interval = 2 + static_cast<uint32_t>(rng.Uniform(3));
    int span = campaign.overlap > 2 ? campaign.overlap - 1 : 1;
    cfg.overlap = 2 + static_cast<int>(rng.Uniform(
                          static_cast<uint64_t>(span)));
  } else {
    const uint32_t kSaveChoices[] = {0, 3, 7};
    cfg.save_every = kSaveChoices[rng.Uniform(3)];
    cfg.checkpoint_every = cfg.save_every > 0 ? cfg.save_every * 2 : 0;
  }
  cfg.cold_bracket = rng.Bernoulli(0.5);
  static const FailurePoint kHalfRestoredPoints[] = {
      FailurePoint::kDuringRecoveryRestore,
      FailurePoint::kBetweenReplayUnits,
      FailurePoint::kBetweenMaterializations,
      FailurePoint::kDuringCheckpoint,
  };
  uint64_t cumulative[kNumFailurePoints] = {};
  uint64_t crash_count = 1 + rng.Uniform(3);
  for (uint64_t i = 0; i < crash_count; ++i) {
    FailurePoint point = kHalfRestoredPoints[rng.Uniform(4)];
    if (point == FailurePoint::kDuringCheckpoint) {
      // Hit 1 from admission on is the bracket the harness takes while
      // every context is cold.
      if (cumulative[static_cast<int>(point)] > 0) continue;
      cfg.cold_bracket = true;
      cumulative[static_cast<int>(point)] = 1;
    } else {
      cumulative[static_cast<int>(point)] += 1 + rng.Uniform(2);
    }
    cfg.half_restored_crashes.emplace_back(
        point, cumulative[static_cast<int>(point)]);
  }
  return cfg;
}

// --- modes -------------------------------------------------------------------

// Whom a faulted run is compared against.
enum class Twin {
  kNone,        // the exactly-once oracle alone
  kSameLayout,  // a fault-free run on the same WAL layout
  kSingleLog,   // a fault-free run on a single log
};

// Campaign-wide tallies keyed by name: per-run harvests, config-derived
// run counts and the campaign's own parameters.
using Tally = std::map<std::string, uint64_t>;

// One report metric. `key` names the tally entry when it differs from the
// report name; a key starting with "phoenix." is a metrics-registry
// counter, summed over each faulted run.
struct Metric {
  const char* name;
  const char* key = nullptr;
};

struct Mode {
  const char* bench;          // report name (BENCH_<bench>.json)
  const char* flight_prefix;  // <prefix><run>.jsonl per violating run
  RunConfig (*draw)(const CampaignOptions&, int run);
  Twin twin;
  bool per_topology;  // add one report variant per topology
  std::vector<Metric> metrics;
};

const Mode kClassicMode = {
    "chaos_campaign",
    "chaos_flight_run",
    MakeRunConfig,
    Twin::kNone,
    /*per_topology=*/true,
    {{"runs"},
     {"seed"},
     {"sessions_per_run"},
     {"violations"},
     {"wov_duplicate_executions"},
     {"sessions_total"},
     {"crashes_fired"},
     {"recoveries"},
     {"net_messages_dropped"},
     {"net_messages_duplicated"},
     {"torn_tails_injected"},
     {"torn_tails_salvaged", "phoenix.wal.torn_tails"},
     {"salvage_wkf_fallbacks", "phoenix.recovery.salvage.wkf_fallback"},
     {"salvage_full_scan_fallbacks",
      "phoenix.recovery.salvage.full_scan_fallback"},
     {"salvage_ranges_skipped", "phoenix.recovery.salvage.ranges_skipped"},
     {"salvage_state_record_fallbacks",
      "phoenix.recovery.salvage.state_record_fallback"},
     {"dedupe_hits", "phoenix.intercept.dedupe_hits"},
     {"interceptor_retries", "phoenix.intercept.retries"},
     {"max_overlap"},
     {"concurrent_runs"},
     {"group_commit_runs"},
     {"group_commit_flushes", "phoenix.wal.group_commit.flushes"},
     {"group_commit_coalesced", "phoenix.wal.group_commit.coalesced"},
     {"replay_chains", "phoenix.recovery.replay.chains"},
     {"replay_edges", "phoenix.recovery.replay.edges"}}};

const Mode kRecoveryCrashMode = {
    "chaos_recovery_crash",
    "chaos_recovery_flight_run",
    MakeRecoveryCrashConfig,
    Twin::kSameLayout,
    /*per_topology=*/false,
    {{"runs"},
     {"seed"},
     {"sessions_per_run"},
     {"violations"},
     {"state_hash_divergences"},
     {"sessions_total"},
     {"recovery_crashes_fired", "crashes_fired"},
     {"supervisor_attempts", "phoenix.recovery.supervisor.attempts"},
     {"supervisor_gave_up", "phoenix.recovery.supervisor.gave_up"},
     {"storage_attacks_applied"},
     {"degraded_mode_attempts", "phoenix.recovery.mode"},
     {"cold_starts", "phoenix.recovery.cold_starts"},
     {"replay_chains_demoted", "phoenix.recovery.replay.chains_demoted"},
     {"depth1_runs"},
     {"depth2_runs"},
     {"depth3_runs"},
     {"crashes_at_analysis"},
     {"crashes_at_restore"},
     {"crashes_between_units"},
     {"crashes_at_endlog_flush"}}};

const Mode kAsyncCheckpointMode = {
    "chaos_async_checkpoint",
    "chaos_async_flight_run",
    MakeAsyncCheckpointConfig,
    Twin::kSameLayout,
    /*per_topology=*/false,
    {{"runs"},
     {"seed"},
     {"sessions_per_run"},
     {"violations"},
     {"state_hash_divergences"},
     {"sessions_total"},
     {"crashes_fired"},
     {"recoveries"},
     {"torn_tails_injected"},
     {"async_sweeps", "phoenix.checkpoint.async.sweeps"},
     {"async_publishes", "phoenix.checkpoint.async.publishes"},
     {"async_deferrals", "phoenix.checkpoint.async.deferred"},
     {"async_brackets_deferred", "phoenix.checkpoint.async.brackets_deferred"},
     {"publish_skips", "phoenix.checkpoint.publish_skips"},
     {"saves_not_due", "phoenix.checkpoint.async.saves_not_due"},
     {"state_saves", "phoenix.checkpoint.state_saves"},
     {"group_flushes", "phoenix.wal.group_commit.flushes"},
     {"save_threshold_runs"},
     {"triggers_at_state_save", "crashes_at_state_save"},
     {"triggers_at_checkpoint", "crashes_at_checkpoint"},
     {"triggers_at_group_flush", "crashes_at_group_flush"},
     {"crashes_fired_at_state_save", "crashes_at_state_save/fired"},
     {"crashes_fired_at_checkpoint", "crashes_at_checkpoint/fired"},
     {"crashes_fired_at_group_flush", "crashes_at_group_flush/fired"}}};

const Mode kWalShardsMode = {
    "chaos_wal_shards",
    "chaos_shard_flight_run",
    MakeShardChaosConfig,
    Twin::kSingleLog,
    /*per_topology=*/false,
    {{"runs"},
     {"seed"},
     {"sessions_per_run"},
     {"violations"},
     {"state_hash_divergences"},
     {"sessions_total"},
     {"crashes_fired"},
     {"recoveries"},
     {"storage_attack_runs"},
     {"torn_tails_injected"},
     {"torn_tails_salvaged", "phoenix.wal.torn_tails"},
     {"merge_records", "phoenix.recovery.merge.records"},
     {"merge_inversions", "phoenix.recovery.merge.inversions"},
     {"salvage_wkf_fallbacks", "phoenix.recovery.salvage.wkf_fallback"},
     {"salvage_full_scan_fallbacks",
      "phoenix.recovery.salvage.full_scan_fallback"},
     {"salvage_ranges_skipped", "phoenix.recovery.salvage.ranges_skipped"},
     {"salvage_state_record_fallbacks",
      "phoenix.recovery.salvage.state_record_fallback"},
     {"dedupe_hits", "phoenix.intercept.dedupe_hits"},
     {"interceptor_retries", "phoenix.intercept.retries"}}};

const Mode kHalfRestoredMode = {
    "chaos_half_restored",
    "chaos_half_restored_flight_run",
    MakeHalfRestoredConfig,
    Twin::kSameLayout,
    /*per_topology=*/false,
    {{"runs"},
     {"seed"},
     {"sessions_per_run"},
     {"violations"},
     {"state_hash_divergences"},
     {"sessions_total"},
     {"crashes_fired"},
     {"recoveries"},
     {"contexts_materialized", "phoenix.recovery.contexts_materialized"},
     {"cold_brackets"},
     {"drain_runs"},
     {"dedupe_hits", "phoenix.intercept.dedupe_hits"},
     {"triggers_at_restore", "crashes_at_restore"},
     {"triggers_between_units", "crashes_between_units"},
     {"triggers_between_materializations",
      "crashes_between_materializations"},
     {"triggers_at_checkpoint", "crashes_at_checkpoint"},
     {"crashes_fired_at_restore", "crashes_at_restore/fired"},
     {"crashes_fired_between_units", "crashes_between_units/fired"},
     {"crashes_fired_between_materializations",
      "crashes_between_materializations/fired"},
     {"crashes_fired_at_checkpoint", "crashes_at_checkpoint/fired"}}};

const char* MetricKey(const Metric& m) { return m.key ? m.key : m.name; }

// Tally name for the crash triggers armed at `point` (crashes fired there
// are tallied under the name + "/fired"), or nullptr for the protocol hooks
// no report breaks down.
const char* TriggerMetric(FailurePoint point) {
  switch (point) {
    case FailurePoint::kDuringStateSave:
      return "crashes_at_state_save";
    case FailurePoint::kDuringCheckpoint:
      return "crashes_at_checkpoint";
    case FailurePoint::kDuringGroupFlush:
      return "crashes_at_group_flush";
    case FailurePoint::kDuringRecoveryAnalysis:
      return "crashes_at_analysis";
    case FailurePoint::kDuringRecoveryRestore:
      return "crashes_at_restore";
    case FailurePoint::kBetweenReplayUnits:
      return "crashes_between_units";
    case FailurePoint::kDuringEndOfLogFlush:
      return "crashes_at_endlog_flush";
    case FailurePoint::kBetweenMaterializations:
      return "crashes_between_materializations";
    default:
      return nullptr;
  }
}

// Counts what the drawer chose for one run.
void TallyConfig(const RunConfig& cfg, Tally& tally) {
  tally["concurrent_runs"] += cfg.overlap > 1 ? 1 : 0;
  tally["group_commit_runs"] += cfg.group_commit ? 1 : 0;
  tally["save_threshold_runs"] += cfg.save_due_after > 0 ? 1 : 0;
  tally["cold_brackets"] += cfg.cold_bracket ? 1 : 0;
  tally["drain_runs"] += cfg.async_interval > 0 ? 1 : 0;
  tally["storage_attack_runs"] +=
      cfg.bitrot_state || cfg.bitrot_wkf || cfg.tear_shard ? 1 : 0;
  if (cfg.depth > 0) ++tally[StrCat("depth", cfg.depth, "_runs")];
  for (const auto* triggers : {&cfg.crashes, &cfg.recovery_crashes,
                               &cfg.half_restored_crashes}) {
    for (const auto& [point, hit] : *triggers) {
      if (const char* name = TriggerMetric(point)) ++tally[name];
    }
  }
}

// --- one run -----------------------------------------------------------------

// Flight-recorder ring depth for every campaign run: cheap enough to keep
// always-on, deep enough to show the last few calls before a violation.
constexpr size_t kFlightEvents = 256;

struct RunOutcome {
  std::string failure;  // "" when the oracle came out exact
  uint64_t state_hash = 0;
  uint64_t wov_duplicates = 0;  // external_direct surplus sales
  std::string flight_file;      // flight-recorder dump of a faulted failure
};

// What the oracle expects: sessions that completed, per store and book.
struct Expected {
  explicit Expected(int stores)
      : store(stores, 0), book(stores, std::vector<int>(11, 0)) {}
  std::vector<int> store;
  std::vector<std::vector<int>> book;
};

// Exactly-once oracle. With a persistent agent every count must be exact;
// an external client may legitimately overcount (window of vulnerability),
// but never undercount, and inventory must stay consistent with TotalSold.
// Folds the final observable state (agent session counts, per-store sales
// and stock) into out->state_hash (FNV-1a) for the twin comparison.
void CheckExactlyOnce(Simulation& sim, ExternalClient& admin,
                      const bookstore::Deployment& deployment,
                      const std::vector<std::string>& agent_uris,
                      bool external, int sessions, const Expected& expected,
                      RunOutcome* out) {
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](int64_t v) {
    hash ^= static_cast<uint64_t>(v);
    hash *= 1099511628211ull;
  };
  std::string& failure = out->failure;
  if (!external) {
    int64_t done_total = 0;
    for (const std::string& agent_uri : agent_uris) {
      auto done = admin.Call(agent_uri, "SessionsDone", {});
      if (!done.ok()) {
        failure = "SessionsDone failed: " + done.status().ToString();
        return;
      }
      done_total += done->AsInt();
      mix(done->AsInt());
    }
    if (done_total != sessions) {
      failure = StrCat("SessionsDone=", done_total, " want ", sessions);
      return;
    }
  }
  ExternalClient probe(&sim, "client");
  for (size_t s = 0; s < expected.store.size(); ++s) {
    auto sold = probe.Call(deployment.store_uris[s], "TotalSold", {});
    if (!sold.ok()) {
      failure = "TotalSold failed: " + sold.status().ToString();
      return;
    }
    int64_t sold_count = sold->AsInt();
    mix(sold_count);
    int64_t book_sold_sum = 0;
    for (int book = 1; book <= 10; ++book) {
      auto entry = probe.Call(deployment.store_uris[s], "GetBook",
                              MakeArgs(int64_t{book}));
      if (!entry.ok()) {
        failure = "GetBook failed: " + entry.status().ToString();
        return;
      }
      int64_t stock = entry->AsList()[3].AsInt();
      mix(stock);
      int64_t book_sold = 25 - stock;
      book_sold_sum += book_sold;
      int64_t want = expected.book[s][book];
      if (!external && book_sold != want) {
        failure = StrCat("store ", s, " book ", book, " sold ", book_sold,
                         " want ", want);
        return;
      }
      if (external && book_sold < want) {
        failure = StrCat("store ", s, " book ", book, " UNDERSOLD ",
                         book_sold, " want >= ", want);
        return;
      }
    }
    int64_t want = expected.store[s];
    if (book_sold_sum != sold_count) {
      failure = StrCat("store ", s, " inventory says ", book_sold_sum,
                       " sold but TotalSold=", sold_count);
    } else if (!external && sold_count != want) {
      failure = StrCat("store ", s, " TotalSold=", sold_count, " want ", want);
    } else if (external && sold_count < want) {
      failure =
          StrCat("store ", s, " TotalSold=", sold_count, " want >= ", want);
    } else {
      out->wov_duplicates += static_cast<uint64_t>(sold_count - want);
    }
    if (!failure.empty()) return;
  }
  out->state_hash = hash;
}

// Adds one faulted run's counters to the tally: each machine's recovery
// service once, the injector's and network's fault counts (crashes also per
// failure point), and every registry counter the mode reports.
void Harvest(Simulation& sim, const Mode& mode,
             const std::vector<Machine*>& machines, Tally& tally) {
  tally["crashes_fired"] += sim.injector().crashes_fired();
  for (int p = 0; p < kNumFailurePoints; ++p) {
    auto point = static_cast<FailurePoint>(p);
    if (const char* name = TriggerMetric(point)) {
      tally[StrCat(name, "/fired")] += sim.injector().crashes_fired_at(point);
    }
  }
  tally["storage_attacks_applied"] += sim.injector().recovery_attacks_fired();
  tally["torn_tails_injected"] += sim.injector().torn_tails_fired();
  tally["net_messages_dropped"] += sim.network().messages_dropped();
  tally["net_messages_duplicated"] += sim.network().messages_duplicated();
  for (Machine* machine : machines) {
    tally["recoveries"] += machine->recovery_service().recoveries_performed();
  }
  for (const Metric& m : mode.metrics) {
    if (m.key != nullptr && StartsWith(m.key, "phoenix.")) {
      tally[m.key] += sim.metrics().CounterTotal(m.key);
    }
  }
}

// Writes the flight recorder's rings to `file` (resolved against the bench
// out dir) before the sim dies, so a violation's post-mortem survives.
// Returns the path written, or "" when the write failed.
std::string DumpFlightRecorder(Simulation& sim, const std::string& file) {
  std::string path = obs::ResolveBenchPath(file);
  std::string dump = sim.tracer().ExportFlightRecorder();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return "";
  std::fwrite(dump.data(), 1, dump.size(), f);
  std::fclose(f);
  return path;
}

// Runs one configuration on a `shards`-shard WAL and checks the oracle.
// The faulted run (inject=true) installs the config's faults, fires its
// storage attacks and feeds the tally; the fault-free twin only shares the
// workload — and, for crash-during-recovery, the mid-run kill.
RunOutcome RunOne(const Mode& mode, const RunConfig& cfg, int run,
                  int sessions, uint32_t shards, bool inject, Tally& tally) {
  RunOutcome out;
  RuntimeOptions runtime = bookstore::OptionsForLevel(cfg.level);
  runtime.save_context_state_every = cfg.save_every;
  runtime.process_checkpoint_every = cfg.checkpoint_every;
  // Condition 4 (retry until a response arrives) is what the exactly-once
  // oracle assumes; the per-call budget is an availability knob, so the
  // campaign runs unbounded.
  runtime.call_retry_budget_ms = 0.0;
  runtime.group_commit = cfg.group_commit;
  runtime.wal_shards = shards;
  runtime.inject_failures_during_recovery =
      inject && (!cfg.recovery_crashes.empty() ||
                 !cfg.half_restored_crashes.empty());
  if (cfg.async_interval > 0) {
    // Every capture and publish runs on the background session. Group
    // commit must be on for the scheduler to rotate into that session
    // mid-wave (the pipeline only parks under group commit).
    runtime.async_checkpoint = true;
    runtime.async_checkpoint_interval = cfg.async_interval;
    runtime.group_commit = true;
  }

  SimulationParams params;
  params.seed = cfg.sim_seed;
  params.flight_recorder_events = kFlightEvents;
  if (cfg.save_due_after > 0) {
    params.costs.recovery_restore_state_ms =
        cfg.save_due_after * params.costs.recovery_replay_call_ms;
  }
  Simulation sim(runtime, params);
  bookstore::RegisterBookstoreComponents(sim.factories());
  sim.factories().Register<ShoppingAgent>("ShoppingAgent");
  Machine& server_machine = sim.AddMachine("server");
  Machine& client_machine = sim.AddMachine("client");
  auto deployment =
      bookstore::Deploy(sim, server_machine, cfg.stores, cfg.level);
  if (!deployment.ok()) {
    out.failure = "deploy failed: " + deployment.status().ToString();
    return out;
  }
  Process& server_proc = *deployment->server_process;

  if (inject) {
    for (const auto& [point, hit] : cfg.crashes) {
      sim.injector().AddTrigger("server", server_proc.pid(), point, hit);
    }
    // Fault the links that carry the traffic under test. In agent
    // topologies that is the persistent agent <-> seller path; the admin
    // driver edge is left reliable because an external client losing a
    // reply reissues under a fresh call id (the WoV), which would confound
    // the oracle for the persistent tier. external_direct faults the
    // driver edge on purpose — there the WoV is the measured subject.
    if (cfg.faults.any()) {
      NetworkFaultPlan& plan = sim.network().fault_plan();
      if (cfg.topology == Topology::kColocatedAgent) {
        plan.SetLinkFaults("server", "server", cfg.faults);
      } else {
        plan.SetLinkFaults("client", "server", cfg.faults);
        plan.SetLinkFaults("server", "client", cfg.faults);
      }
    }
    if (cfg.torn_p > 0.0) {
      sim.injector().EnableTornTails(cfg.torn_p, cfg.sim_seed * 131 + 7);
    }
    if (cfg.targeted_drop) {
      // Drop the first Checkout reply on the seller's outbound link; the
      // caller must mask it (or, for an external client, it opens the WoV).
      const char* caller_machine =
          cfg.topology == Topology::kColocatedAgent ? "server" : "client";
      sim.network().fault_plan().AddDropTrigger("server", caller_machine,
                                                "Checkout", NetLeg::kReply,
                                                /*nth=*/1);
    }
  }

  ExternalClient admin(&sim, "client");
  // One agent per wave slot (just one when sequential): overlapping chains
  // each own an agent context, so they serialize only at the seller and
  // their force-on-send waits can coalesce on the agent process's log.
  bool external = cfg.topology == Topology::kExternalDirect;
  std::vector<std::string> agent_uris;
  Process* agent_proc = nullptr;
  Machine* agent_machine = nullptr;
  if (!external) {
    agent_machine = cfg.topology == Topology::kRemoteAgent ? &client_machine
                                                           : &server_machine;
    agent_proc = &agent_machine->CreateProcess();
    for (int a = 0; a < cfg.overlap; ++a) {
      auto agent = admin.CreateComponent(
          *agent_proc, "ShoppingAgent", StrCat("agent", a),
          ComponentKind::kPersistent, MakeArgs(deployment->seller_uri));
      if (!agent.ok()) {
        out.failure = "agent creation failed: " + agent.status().ToString();
        return out;
      }
      agent_uris.push_back(*agent);
    }
  }

  Expected expected(cfg.stores);
  Random workload(cfg.sim_seed * 31 + 1);
  std::string& failure = out.failure;

  // One shopping session's call chain. Each chain drives its own external
  // client so overlapping waves never share driver state.
  struct Plan {
    int i;
    int store;
    int book;
    Status status = Status::OK();
  };
  auto run_session = [&](Plan& p) {
    std::string buyer = "buyer" + std::to_string(p.i);
    const std::string& store = deployment->store_uris[p.store];
    ExternalClient driver(&sim, "client");
    if (external) {
      p.status = driver
                     .Call(deployment->seller_uri, "AddToBasket",
                           MakeArgs(buyer, store, int64_t{p.book}))
                     .status();
      if (!p.status.ok()) return;
      p.status = driver
                     .Call(deployment->seller_uri, "Checkout",
                           MakeArgs(buyer, std::string("WA")))
                     .status();
      return;
    }
    p.status = driver
                   .Call(agent_uris[p.i % agent_uris.size()], "Session",
                         MakeArgs(buyer, store, int64_t{p.book}))
                   .status();
  };

  // The mid-run event fires once, halfway through — between waves when
  // sessions overlap, so no chain is parked inside the process it kills.
  // The target is killed and its machine's recovery service restarts it.
  // A faulted run first damages the target's storage or arms recovery-phase
  // crashes and between-attempt attacks; under crash-during-recovery the
  // twin takes the same kill with a clean recovery. Under crash-half-
  // restored both runs take the kill and the cold bracket, and the faulted
  // run arms its crashes once calls are admitted.
  bool half_restored = !cfg.half_restored_crashes.empty();
  bool restart = !cfg.recovery_crashes.empty() || half_restored ||
                 (inject && (cfg.bitrot_state || cfg.bitrot_wkf ||
                             cfg.tear_shard));
  int event_at = restart && sessions >= 2 ? sessions / 2 : sessions;
  auto restart_target = [&]() -> Status {
    // A storage attack may go after the agent process instead of the
    // seller's — the persistent tier whose own log and state records
    // salvage must also survive losing.
    bool hit_agent = cfg.attack_agent && agent_proc != nullptr;
    Machine& machine = hit_agent ? *agent_machine : server_machine;
    Process& target = hit_agent ? *agent_proc : server_proc;
    target.Kill();
    if (inject) {
      // On sharded logs the state-record rot hits exactly the shard file
      // holding the gsn-newest state record, and the tear one shard file's
      // un-externalized tail — retries must mask it, same contract as
      // crash-time tears.
      if (cfg.bitrot_state) {
        CorruptNewestStateRecord(target.log(), sim.storage());
      }
      if (cfg.bitrot_wkf) {
        sim.storage().CorruptFile(target.log_name() + ".wkf", 0,
                                  /*flip_count=*/2);
      }
      if (cfg.tear_shard) target.InjectTornTail(24);
      FailureInjector& injector = sim.injector();
      for (const auto& [point, hit] : cfg.recovery_crashes) {
        injector.AddTrigger(machine.name(), target.pid(), point, hit);
      }
      if (cfg.attack_wkf) {
        injector.AddRecoveryAttack(machine.name(), target.pid(),
                                   /*before_attempt=*/2,
                                   RecoveryAttack::kCorruptWellKnownFile);
      }
      if (cfg.attack_state) {
        injector.AddRecoveryAttack(machine.name(), target.pid(),
                                   /*before_attempt=*/2,
                                   RecoveryAttack::kCorruptNewestStateRecord);
      }
      if (cfg.attack_tear) {
        injector.AddRecoveryAttack(machine.name(), target.pid(),
                                   /*before_attempt=*/3,
                                   RecoveryAttack::kTearStableTail);
      }
    }
    Status admitted =
        machine.recovery_service().EnsureProcessAlive(target.pid());
    if (!admitted.ok() || !half_restored) return admitted;
    if (inject) {
      for (const auto& [point, hit] : cfg.half_restored_crashes) {
        sim.injector().AddTrigger(machine.name(), target.pid(), point, hit);
      }
    }
    if (cfg.cold_bracket) {
      // Every context is still a cold shell: the bracket records their
      // origins. A crash inside it leaves the process down until the next
      // session's call restarts it.
      if (target.checkpoints().TakeProcessCheckpoint().ok() &&
          target.WaitDurable(ForcePoint::kManual).ok()) {
        target.checkpoints().MaybePublishCheckpoint();
      }
    }
    return Status::OK();
  };

  int next = 0;
  while (next < sessions && failure.empty()) {
    int segment_end = next < event_at ? event_at : sessions;
    int wave_end = std::min(next + cfg.overlap, segment_end);
    std::vector<Plan> wave;
    for (int i = next; i < wave_end; ++i) {
      // Drawn before the wave runs, so what the oracle expects never
      // depends on how the chains interleave.
      wave.push_back({i, static_cast<int>(workload.Uniform(cfg.stores)),
                      static_cast<int>(workload.Uniform(10)) + 1});
    }
    if (cfg.overlap <= 1) {
      run_session(wave.front());
    } else {
      std::vector<std::function<void()>> bodies;
      for (Plan& plan : wave) {
        bodies.push_back([&run_session, p = &plan] { run_session(*p); });
      }
      sim.RunSessions(std::move(bodies));
    }
    for (const Plan& plan : wave) {
      if (!plan.status.ok()) {
        if (failure.empty()) {
          failure = StrCat("session ", plan.i,
                           " failed: ", plan.status.ToString());
        }
        continue;
      }
      ++expected.store[plan.store];
      ++expected.book[plan.store][plan.book];
      if (inject) ++tally["sessions_total"];
    }
    next = wave_end;
    if (next == event_at && event_at < sessions && failure.empty()) {
      Status restarted = restart_target();
      if (!restarted.ok()) {
        failure = "supervised recovery failed: " + restarted.ToString();
      }
    }
  }

  if (failure.empty()) {
    CheckExactlyOnce(sim, admin, *deployment, agent_uris, external,
                     sessions, expected, &out);
  }
  if (inject) {
    Harvest(sim, mode, {&server_machine, &client_machine}, tally);
    if (!failure.empty()) {
      out.flight_file =
          DumpFlightRecorder(sim, StrCat(mode.flight_prefix, run, ".jsonl"));
    }
  }
  return out;
}

// --- campaign loop -----------------------------------------------------------

// Prints the report metrics a few to a line.
void PrintMetrics(const obs::BenchVariant& variant) {
  std::string line = " ";
  for (const auto& [name, value] : variant.metrics()) {
    std::string item = StrCat(" ", name, "=", value);
    if (line.size() + item.size() > 78) {
      std::printf("%s\n", line.c_str());
      line = " ";
    }
    line += item;
  }
  std::printf("%s\n", line.c_str());
}

int RunCampaign(const Mode& mode, const CampaignOptions& campaign) {
  Tally tally;
  tally["seed"] = campaign.seed;
  tally["sessions_per_run"] = static_cast<uint64_t>(campaign.sessions);
  tally["max_overlap"] = static_cast<uint64_t>(campaign.overlap);
  const char* twin_name = mode.twin == Twin::kSingleLog
                              ? "fault-free single-log twin"
                              : "fault-free twin";
  struct ViolationRecord {
    int run;
    std::string description;
    std::string flight_file;
  };
  std::vector<ViolationRecord> violations;
  for (int run = 0; run < campaign.runs; ++run) {
    RunConfig cfg = mode.draw(campaign, run);
    RunOutcome twin;
    if (mode.twin != Twin::kNone) {
      uint32_t twin_shards =
          mode.twin == Twin::kSingleLog ? 1 : campaign.wal_shards;
      twin = RunOne(mode, cfg, run, campaign.sessions, twin_shards,
                    /*inject=*/false, tally);
    }
    RunOutcome faulted = RunOne(mode, cfg, run, campaign.sessions,
                                campaign.wal_shards, /*inject=*/true, tally);
    TallyConfig(cfg, tally);
    const char* topo = TopologyName(cfg.topology);
    ++tally["runs"];
    ++tally[StrCat(topo, "/runs")];
    tally["wov_duplicate_executions"] += faulted.wov_duplicates;
    tally[StrCat(topo, "/wov")] += faulted.wov_duplicates;

    std::string violation = faulted.failure;
    if (violation.empty() && !twin.failure.empty()) {
      violation = StrCat(twin_name, " failed: ", twin.failure);
    }
    if (violation.empty() && mode.twin != Twin::kNone &&
        faulted.state_hash != twin.state_hash) {
      ++tally["state_hash_divergences"];
      violation = StrCat("state hash diverged from ", twin_name, ": ",
                         faulted.state_hash, " != ", twin.state_hash);
    }
    if (!violation.empty()) {
      ++tally["violations"];
      ++tally[StrCat(topo, "/violations")];
      std::fprintf(stderr,
                   "VIOLATION run %d (%s, %s, save=%u, %d store(s)): %s\n"
                   "  flight recorder: %s\n",
                   run, topo, bookstore::OptLevelName(cfg.level),
                   cfg.save_every, cfg.stores, violation.c_str(),
                   faulted.flight_file.empty() ? "(none)"
                                               : faulted.flight_file.c_str());
      violations.push_back({run, violation, faulted.flight_file});
    } else if (campaign.verbose) {
      std::printf("run %d ok (%s, %s, save=%u, overlap=%d, crashes=%zu, "
                  "torn=%.2f)\n",
                  run, topo, bookstore::OptLevelName(cfg.level),
                  cfg.save_every, cfg.overlap,
                  cfg.crashes.size() + cfg.recovery_crashes.size(),
                  cfg.torn_p);
    }
  }

  obs::BenchReporter reporter(mode.bench, kChaosSchema);
  obs::BenchVariant& campaign_v = reporter.AddVariant("campaign");
  if (campaign.wal_shards > 1) {
    campaign_v.SetMetric("wal_shards",
                         static_cast<uint64_t>(campaign.wal_shards));
  }
  for (const Metric& m : mode.metrics) {
    campaign_v.SetMetric(m.name, tally[MetricKey(m)]);
  }
  // Printed before AddVariant can move campaign_v.
  std::printf("%s: %llu run(s), %llu violation(s)\n", mode.bench,
              static_cast<unsigned long long>(tally["runs"]),
              static_cast<unsigned long long>(tally["violations"]));
  PrintMetrics(campaign_v);
  if (mode.per_topology) {
    for (Topology t : {Topology::kRemoteAgent, Topology::kColocatedAgent,
                       Topology::kExternalDirect}) {
      const char* topo = TopologyName(t);
      reporter.AddVariant(topo)
          .SetMetric("runs", tally[StrCat(topo, "/runs")])
          .SetMetric("violations", tally[StrCat(topo, "/violations")])
          .SetMetric("wov_duplicate_executions", tally[StrCat(topo, "/wov")]);
    }
  }
  // Every violating run carries its post-mortem: the oracle failure and the
  // flight-recorder dump showing what each process did right before it.
  for (const ViolationRecord& rec : violations) {
    obs::BenchVariant& v =
        reporter.AddVariant(StrCat("violation_run", rec.run));
    v.SetMetric("run", static_cast<uint64_t>(rec.run));
    v.SetInfo("violation", rec.description);
    if (!rec.flight_file.empty()) {
      v.SetInfo("flight_recorder", rec.flight_file);
    }
  }
  auto written = reporter.WriteFile(campaign.out);
  if (!written.ok()) {
    std::fprintf(stderr, "report write failed: %s\n",
                 written.status().ToString().c_str());
    return 1;
  }

  std::printf("report: %s\n", written->c_str());
  return tally["violations"] > 0 ? 1 : 0;
}

// --- flags -------------------------------------------------------------------

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  std::string prefix = "--" + name + "=";
  if (!StartsWith(arg, prefix)) return false;
  *value = arg.substr(prefix.size());
  return true;
}

// Parses an unsigned decimal value in [min, max]; false on anything else.
template <typename T>
bool ParseNumber(const std::string& value, T min, T max, T* out) {
  if (value.empty() || value.find_first_not_of("0123456789") !=
                           std::string::npos) {
    return false;
  }
  errno = 0;
  unsigned long long parsed = std::strtoull(value.c_str(), nullptr, 10);
  if (errno != 0 || parsed < static_cast<unsigned long long>(min) ||
      parsed > static_cast<unsigned long long>(max)) {
    return false;
  }
  *out = static_cast<T>(parsed);
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--runs=N] [--seed=S] [--sessions=N] "
               "[--overlap=N] [--wal-shards=1..%u] [--out=FILE] [--verbose] "
               "[--crash-during-recovery | --async-checkpoint | "
               "--crash-half-restored]\n",
               argv0, kMaxWalShards);
  return 2;
}

int Main(int argc, char** argv) {
  CampaignOptions campaign;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    bool ok = true;
    if (ParseFlag(arg, "runs", &value)) {
      ok = ParseNumber(value, 1, INT32_MAX, &campaign.runs);
    } else if (ParseFlag(arg, "seed", &value)) {
      ok = ParseNumber<uint64_t>(value, 0, UINT64_MAX, &campaign.seed);
    } else if (ParseFlag(arg, "sessions", &value)) {
      ok = ParseNumber(value, 1, INT32_MAX, &campaign.sessions);
    } else if (ParseFlag(arg, "overlap", &value)) {
      ok = ParseNumber(value, 1, INT32_MAX, &campaign.overlap);
    } else if (ParseFlag(arg, "wal-shards", &value)) {
      ok = ParseNumber(value, 1u, kMaxWalShards, &campaign.wal_shards);
    } else if (ParseFlag(arg, "out", &value)) {
      campaign.out = value;
    } else if (arg == "--verbose") {
      campaign.verbose = true;
    } else if (arg == "--crash-during-recovery") {
      campaign.crash_during_recovery = true;
    } else if (arg == "--async-checkpoint") {
      campaign.async_checkpoint = true;
    } else if (arg == "--crash-half-restored") {
      campaign.crash_half_restored = true;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad flag: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (int{campaign.async_checkpoint} + int{campaign.crash_during_recovery} +
          int{campaign.crash_half_restored} >
      1) {
    std::fprintf(stderr,
                 "--async-checkpoint, --crash-during-recovery and "
                 "--crash-half-restored are separate campaigns\n");
    return Usage(argv[0]);
  }
  const Mode& mode = campaign.async_checkpoint ? kAsyncCheckpointMode
                     : campaign.crash_during_recovery ? kRecoveryCrashMode
                     : campaign.crash_half_restored   ? kHalfRestoredMode
                     : campaign.wal_shards > 1        ? kWalShardsMode
                                                      : kClassicMode;
  return RunCampaign(mode, campaign);
}

}  // namespace
}  // namespace phoenix::tools

int main(int argc, char** argv) { return phoenix::tools::Main(argc, argv); }
