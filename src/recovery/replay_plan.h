#ifndef PHOENIX_RECOVERY_REPLAY_PLAN_H_
#define PHOENIX_RECOVERY_REPLAY_PLAN_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "recovery/replay.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"
#include "wal/merged_log_reader.h"

namespace phoenix {

// Log-analysis replay planning: one forward scan of the stable log that
// partitions the message records into per-context replay *chains* and links
// them with cross-chain dependency edges (cf. dependency-aware redo in Wu et
// al. and Yao et al.; here the dependency unit is the paper's per-context
// buffered replay call). Recovery builds the LSN-only form (ReplayIndex)
// and replays each chain on demand (recovery/on_demand_replay.h); the
// decoded form (ReplayPlan) serves analysis tools and tests.
//
// Chain model. A chain is one context's replay units in log order: the
// creation call, then one unit per logged incoming call, each with the
// reply feed of the outgoing calls it made. Units within a chain are
// totally ordered (context state evolves sequentially); that order is
// implicit and not represented as edges.
//
// Edge rule. When an incoming-call record of context B names a *local*
// caller context A (the CallId's ClientKey carries machine / logical pid /
// caller component id, and component id == the caller's context id), the
// planner adds one edge from A's unit that was open at that point in the
// log (the unit whose execution issued the call) to B's new unit. Edges
// therefore always point from a smaller start-LSN unit to a larger one —
// the plan is a DAG by construction, and the edge order coincides with the
// log order. Calls from external clients or from remote processes add no
// edge: their effects reach this log only through the records already in
// the chain.
//
// Salvage. When the scan had to salvage-skip unreadable ranges (or the
// tail is torn), a chain is demoted (parallel_eligible = false) only when
// a skipped range falls strictly inside one of its units' record extents —
// that unit's reply feed may be missing records, so its replay can go live
// mid-unit. Demoted units are serialized against each other in global log
// order by extra dependency edges woven into the plan itself
// (serialization_edges). Records lost to a gap are invisible to every
// replayer alike, so demotion is about ordering, not membership. A decoded
// plan reports fallback != kNone when fewer than two eligible chains
// remain (nothing left to overlap).

// Position of one unit inside a plan: chain index + index within the chain.
struct UnitRef {
  uint32_t chain = 0;
  uint32_t index = 0;

  friend bool operator==(const UnitRef&, const UnitRef&) = default;
  friend auto operator<=>(const UnitRef& a, const UnitRef& b) {
    return std::tie(a.chain, a.index) <=> std::tie(b.chain, b.index);
  }
};

// One replay unit plus its cross-chain dependency edges.
struct PlannedUnit {
  PendingReplay replay;
  // Cross-chain units that must replay before this one (edge sources).
  std::vector<UnitRef> deps;
  // Reverse edges (edge targets), filled by the planner.
  std::vector<UnitRef> dependents;
  // LSN of the last record the scan attributed to this unit (the incoming /
  // creation record itself when no reply followed). A salvage gap strictly
  // inside [replay.start_lsn, extent_end_lsn] demotes the unit's chain.
  uint64_t extent_end_lsn = 0;
};

// All replay units of one context, in log order.
struct ReplayChain {
  uint64_t context_id = 0;
  std::vector<PlannedUnit> units;
  // False when a salvage gap intersected one of this chain's unit extents;
  // the chain's units are then serialized in log order against the other
  // demoted chains (see the Salvage paragraph above).
  bool parallel_eligible = true;
};

// Why a plan has fewer than two independently replayable chains.
enum class PlanFallback {
  kNone = 0,
  kSalvagedLog,   // salvage gaps left fewer than two eligible chains
  kTooFewChains,  // fewer than two chains: nothing to overlap
};

const char* PlanFallbackName(PlanFallback fallback);

struct ReplayPlan {
  std::vector<ReplayChain> chains;  // ordered by first-unit start LSN
  uint64_t cross_edges = 0;
  PlanFallback fallback = PlanFallback::kNone;
  // Records examined by the planning scan (recovery charges its scan cost).
  uint64_t records_scanned = 0;
  // Salvage accounting: the scan skipped unreadable ranges (or found a torn
  // tail), and how the per-chain eligibility check digested that.
  bool salvaged = false;
  uint64_t skipped_ranges = 0;       // gaps the scan salvaged over
  uint32_t demoted_chains = 0;       // chains with parallel_eligible=false
  uint64_t serialization_edges = 0;  // extra log-order edges among demoted
  // Modelled replay cost: sum over all units, and the longest
  // dependency-respecting path (chain order + cross edges) — the lower
  // bound any overlapping replay could reach.
  double total_replay_ms = 0.0;
  double critical_path_ms = 0.0;

  bool parallel_eligible() const { return fallback == PlanFallback::kNone; }
  size_t total_units() const;
  size_t eligible_chains() const;
  const PlannedUnit& unit(UnitRef ref) const {
    return chains[ref.chain].units[ref.index];
  }
};

// One context's replay units reduced to log positions: what recovery keeps
// per cold context instead of decoded records (recovery/on_demand_replay.h),
// which re-reads a unit's records by LSN when it replays the unit. Flat
// per-chain arrays keep it at about 12 bytes per unit plus 8 per reply.
struct IndexedChain {
  uint64_t context_id = 0;
  bool parallel_eligible = true;  // as ReplayChain::parallel_eligible
  bool starts_with_creation = false;  // unit 0 replays the creation call
  // Each unit's incoming-call (or creation) record.
  std::vector<uint64_t> unit_lsns;
  // Unit u's ReplyReceivedRecords are reply_lsns[reply_ends[u - 1] ..
  // reply_ends[u]) (from 0 for u = 0), in log order: a later reply to the
  // same outgoing sequence number replaces an earlier one in the feed.
  std::vector<uint32_t> reply_ends;
  std::vector<uint64_t> reply_lsns;
  // Cross-chain edges (target unit index, source unit), by target unit.
  std::vector<std::pair<uint32_t, UnitRef>> deps;

  size_t size() const { return unit_lsns.size(); }
  bool is_creation(size_t unit) const {
    return unit == 0 && starts_with_creation;
  }
  size_t replies_begin(size_t unit) const {
    return unit == 0 ? 0 : reply_ends[unit - 1];
  }
};

// The LSN-only plan: the same chains, edges and salvage accounting as
// ReplayPlan, without decoded records, orders, dependents or cost
// estimates.
struct ReplayIndex {
  std::vector<IndexedChain> chains;  // ordered by first-unit start LSN
  uint64_t cross_edges = 0;
  uint64_t records_scanned = 0;
  bool salvaged = false;
  uint64_t skipped_ranges = 0;
  uint32_t demoted_chains = 0;
  uint64_t serialization_edges = 0;
};

// What the planner needs to know about the recovering process.
struct ReplayPlanInputs {
  // Identity of the recovering process: calls whose ClientKey carries this
  // machine + logical pid come from a local context and produce edges.
  std::string machine;
  uint32_t process_id = 0;
  // Replay origin LSN per context (pass 1's recovery LSNs): records below a
  // context's origin are covered by its restored state and are not planned.
  // Contexts absent from the map are ignored entirely.
  std::map<uint64_t, uint64_t> origins;
  // The order (LogManager's append order: gsn on a sharded log, the LSN on
  // a single one) of each context's origin record. The below-origin cut and
  // the origin-creation match compare orders, because composite LSNs of
  // different shards are not comparable. A context present in `origins` but
  // absent here (or mapped to kInvalidLsn) is planned without a
  // below-origin cut. BuildReplayPlan(LogView) fills it from `origins`.
  std::map<uint64_t, uint64_t> origin_orders;
  // Modelled cost of replaying one unit (CostModel::recovery_replay_call_ms)
  // for the critical-path estimate.
  double replay_call_ms = 0.13;
};

// Scans `log` once from `start_order` (salvage-tolerant, through
// LogManager::Cursor) and builds the chain/edge plan. Pure analysis: never
// touches the clock, the process or any component. Mid-scan damage does
// not abort planning: the scan salvages past it and demotes only the
// chains whose unit extents the damage intersected (fallback =
// kSalvagedLog only when fewer than two eligible chains survive). All
// ordering (topological cost order, demoted-unit serialization) keys on
// record order; gaps and extents are composite LSNs, so a gap on shard j is
// provably disjoint from every extent on shard k != j.
ReplayPlan BuildReplayPlan(const LogManager& log, uint64_t start_order,
                           const ReplayPlanInputs& inputs);

// The same scan, keeping log positions only: the form recovery builds.
ReplayIndex BuildReplayIndex(const LogManager& log, uint64_t start_order,
                             const ReplayPlanInputs& inputs);

// The same planner over one plain log image from `scan_start`, where order
// == LSN (inputs.origins doubles as origin_orders).
ReplayPlan BuildReplayPlan(const LogView& log, uint64_t scan_start,
                           const ReplayPlanInputs& inputs);

// The same planner over an already-materialized record stream
// (ScanShardedLog): records with order < start_order are ignored, and
// `gaps` carries the salvage damage in composite coordinates (skipped
// ranges plus torn tails widened to each shard's end).
ReplayPlan BuildReplayPlanFromRecords(const std::vector<OrderedRecord>& records,
                                      const std::vector<SkippedRange>& gaps,
                                      uint64_t start_order,
                                      const ReplayPlanInputs& inputs);

// Replicates pass 1's replay-origin bookkeeping for callers that have no
// RecoveryManager at hand (tools, tests): newest state record per context,
// else first creation record, refined by checkpoint context entries —
// whose recovery LSN displaces a known origin only when its record's order
// is known and newer. Fills both the origin LSNs and their orders. The
// activator context (0) has no origin record unless one was found (origin
// kInvalidLsn): it replays from the head of the retained log, order
// log.head_order().
void DeriveReplayOrigins(const LogManager& log,
                         std::map<uint64_t, uint64_t>* origins,
                         std::map<uint64_t, uint64_t>* origin_orders);

// The same over one plain log image scanned from `scan_start` (order ==
// LSN); returns the origin LSNs.
std::map<uint64_t, uint64_t> DeriveReplayOrigins(const LogView& log,
                                                 uint64_t scan_start);

// The same over a materialized record stream; a checkpoint entry whose
// recovery LSN is not in `records` (trimmed below a shard head) never
// displaces a known origin.
void DeriveReplayOriginsFromRecords(
    const std::vector<OrderedRecord>& records,
    std::map<uint64_t, uint64_t>* origins,
    std::map<uint64_t, uint64_t>* origin_orders);

}  // namespace phoenix

#endif  // PHOENIX_RECOVERY_REPLAY_PLAN_H_
