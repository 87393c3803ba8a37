#include "recovery/replay_plan.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

namespace phoenix {

const char* PlanFallbackName(PlanFallback fallback) {
  switch (fallback) {
    case PlanFallback::kNone:
      return "none";
    case PlanFallback::kSalvagedLog:
      return "salvaged_log";
    case PlanFallback::kTooFewChains:
      return "too_few_chains";
    case PlanFallback::kNestedScheduler:
      return "nested_scheduler";
  }
  return "unknown";
}

size_t ReplayPlan::total_units() const {
  size_t n = 0;
  for (const ReplayChain& chain : chains) n += chain.units.size();
  return n;
}

size_t ReplayPlan::eligible_chains() const {
  size_t n = 0;
  for (const ReplayChain& chain : chains) n += chain.parallel_eligible ? 1 : 0;
  return n;
}

namespace {

// Modelled replay cost of the plan: per-unit weight plus the longest
// dependency-respecting path. Units are processed in replay order (== start
// LSN on a single log, global sequence number on a sharded one), which is a
// topological order: chain-internal order and every cross edge point from a
// smaller order to a larger one. Start LSNs are NOT usable here — composite
// LSNs of different shards compare by shard id, not by append order.
void ComputeCosts(ReplayPlan& plan, double unit_ms) {
  std::vector<std::pair<uint64_t, UnitRef>> order;
  order.reserve(plan.total_units());
  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    const ReplayChain& chain = plan.chains[c];
    for (uint32_t u = 0; u < chain.units.size(); ++u) {
      order.emplace_back(chain.units[u].replay.order, UnitRef{c, u});
    }
  }
  std::sort(order.begin(), order.end());

  // finish[chain][index]: earliest completion honoring all ordering.
  std::vector<std::vector<double>> finish(plan.chains.size());
  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    finish[c].assign(plan.chains[c].units.size(), 0.0);
  }
  double critical = 0.0;
  for (const auto& [lsn, ref] : order) {
    double start = ref.index > 0 ? finish[ref.chain][ref.index - 1] : 0.0;
    for (const UnitRef& dep : plan.unit(ref).deps) {
      start = std::max(start, finish[dep.chain][dep.index]);
    }
    finish[ref.chain][ref.index] = start + unit_ms;
    critical = std::max(critical, finish[ref.chain][ref.index]);
  }
  plan.total_replay_ms = static_cast<double>(plan.total_units()) * unit_ms;
  plan.critical_path_ms = critical;
}

// Incremental chain/edge construction, fed one record at a time in append
// order by whichever adapter below holds the log. `order` is the record's
// replay order (LogCursor's order: the LSN on a single log, the gsn on a
// sharded one); below-origin filtering compares it against
// inputs.origin_orders.
class PlanBuilder {
 public:
  PlanBuilder(ReplayPlan& plan, const ReplayPlanInputs& inputs)
      : plan_(plan), inputs_(inputs) {}

  void OnRecord(uint64_t lsn, uint64_t order, const LogRecord& record) {
    ++plan_.records_scanned;
    if (const auto* creation = std::get_if<CreationRecord>(&record)) {
      OnCreation(lsn, order, *creation);
    } else if (const auto* incoming =
                   std::get_if<IncomingCallRecord>(&record)) {
      OnIncoming(lsn, order, *incoming);
    } else if (const auto* reply = std::get_if<ReplyReceivedRecord>(&record)) {
      OnReply(lsn, *reply);
    }
    // Other record types were pass 1's business.
  }

 private:
  // kInvalidLsn when the context has no known origin order.
  uint64_t OriginOrder(uint64_t context_id) const {
    auto it = inputs_.origin_orders.find(context_id);
    return it == inputs_.origin_orders.end() ? kInvalidLsn : it->second;
  }

  void OnCreation(uint64_t lsn, uint64_t order, const CreationRecord& rec) {
    // Only the origin creation record opens a chain; newer duplicates
    // (re-creations appended by a previous recovery) replay nothing.
    uint64_t origin = OriginOrder(rec.context_id);
    if (origin == kInvalidLsn || order != origin) return;
    PendingReplay unit;
    unit.is_creation = true;
    unit.start_lsn = lsn;
    unit.order = order;
    unit.creation = rec;
    PushUnit(rec.context_id, std::move(unit));
  }

  void OnIncoming(uint64_t lsn, uint64_t order,
                  const IncomingCallRecord& rec) {
    if (inputs_.origins.find(rec.context_id) == inputs_.origins.end()) {
      return;
    }
    uint64_t origin = OriginOrder(rec.context_id);
    if (origin != kInvalidLsn && order < origin) return;

    PendingReplay unit;
    unit.start_lsn = lsn;
    unit.order = order;
    unit.incoming = rec;
    UnitRef target = PushUnit(rec.context_id, std::move(unit));

    // Cross-chain edge: the call was issued by a local caller context
    // whose open unit must replay before this one (it is the unit whose
    // execution produced the call). The ClientKey's component id is the
    // caller's context id; external clients and remote processes fail
    // the machine/pid match and contribute no edge.
    const ClientKey& caller = rec.call_id.caller;
    if (caller.machine == inputs_.machine &&
        caller.process_id == inputs_.process_id &&
        caller.component_id != rec.context_id) {
      if (std::optional<UnitRef> source = OpenRef(caller.component_id);
          source.has_value() && source->chain != target.chain) {
        plan_.chains[target.chain].units[target.index].deps.push_back(
            *source);
        plan_.chains[source->chain].units[source->index].dependents
            .push_back(target);
        ++plan_.cross_edges;
      }
    }
  }

  void OnReply(uint64_t lsn, const ReplyReceivedRecord& rec) {
    if (std::optional<UnitRef> ref = OpenRef(rec.context_id);
        ref.has_value()) {
      PlannedUnit& unit = plan_.chains[ref->chain].units[ref->index];
      unit.replay.feed.replies[rec.seq] = rec;
      unit.extent_end_lsn = lsn;
    }
  }

  // The chain's currently-open unit: the one whose execution covers this
  // point of the log (its last planned unit, units being closed only by the
  // context's next incoming call).
  std::optional<UnitRef> OpenRef(uint64_t context_id) const {
    auto it = chain_of_.find(context_id);
    if (it == chain_of_.end()) return std::nullopt;
    const ReplayChain& chain = plan_.chains[it->second];
    if (chain.units.empty()) return std::nullopt;
    return UnitRef{it->second, static_cast<uint32_t>(chain.units.size() - 1)};
  }

  UnitRef PushUnit(uint64_t context_id, PendingReplay unit) {
    auto [it, inserted] =
        chain_of_.try_emplace(context_id, static_cast<uint32_t>(
                                              plan_.chains.size()));
    if (inserted) {
      plan_.chains.push_back(ReplayChain{context_id, {}});
    }
    ReplayChain& chain = plan_.chains[it->second];
    uint64_t start_lsn = unit.start_lsn;
    chain.units.push_back(PlannedUnit{std::move(unit), {}, {}, start_lsn});
    return UnitRef{it->second,
                   static_cast<uint32_t>(chain.units.size() - 1)};
  }

  ReplayPlan& plan_;
  const ReplayPlanInputs& inputs_;
  std::map<uint64_t, uint32_t> chain_of_;  // context id -> chain index
};

// Salvage digestion: demote every chain with a gap strictly inside one of
// its unit extents, then serialize the demoted units against each other
// in global replay order via extra edges. A torn tail counts as a gap past
// the last readable record — it can intersect no unit extent (the extent
// ends at a record the scan parsed), so a torn tail alone demotes nothing
// and no longer serializes the whole replay. Gap and extent coordinates
// live in the same space (plain LSNs on one log, composite LSNs sharded —
// where shard bits make cross-shard intersections provably empty), but the
// serialization sort keys on the units' replay order.
void DigestSalvageAndFinalize(ReplayPlan& plan,
                              const std::vector<SkippedRange>& gaps,
                              double replay_call_ms) {
  plan.salvaged = !gaps.empty();
  plan.skipped_ranges = gaps.size();
  if (plan.salvaged) {
    for (ReplayChain& chain : plan.chains) {
      for (const PlannedUnit& unit : chain.units) {
        for (const SkippedRange& gap : gaps) {
          if (gap.from_lsn < unit.extent_end_lsn &&
              gap.to_lsn > unit.replay.start_lsn) {
            chain.parallel_eligible = false;
          }
        }
      }
      if (!chain.parallel_eligible) ++plan.demoted_chains;
    }
    if (plan.demoted_chains > 0) {
      std::vector<std::pair<uint64_t, UnitRef>> demoted;
      for (uint32_t c = 0; c < plan.chains.size(); ++c) {
        if (plan.chains[c].parallel_eligible) continue;
        for (uint32_t u = 0; u < plan.chains[c].units.size(); ++u) {
          demoted.emplace_back(plan.chains[c].units[u].replay.order,
                               UnitRef{c, u});
        }
      }
      std::sort(demoted.begin(), demoted.end());
      for (size_t i = 1; i < demoted.size(); ++i) {
        const UnitRef& source = demoted[i - 1].second;
        const UnitRef& target = demoted[i].second;
        if (source.chain == target.chain) continue;  // chain order covers it
        std::vector<UnitRef>& deps =
            plan.chains[target.chain].units[target.index].deps;
        if (std::find(deps.begin(), deps.end(), source) != deps.end()) {
          continue;
        }
        deps.push_back(source);
        plan.chains[source.chain].units[source.index].dependents.push_back(
            target);
        ++plan.serialization_edges;
      }
    }
  }

  if (plan.salvaged && plan.eligible_chains() < 2) {
    plan.fallback = PlanFallback::kSalvagedLog;
    return;
  }
  if (plan.chains.size() < 2) {
    plan.fallback = PlanFallback::kTooFewChains;
  }
  ComputeCosts(plan, replay_call_ms);
}

// A plain single-log image read from `scan_start`: order == lsn.
LogCursor PlainCursor(const LogView& log, uint64_t scan_start) {
  LogCursor cursor;
  cursor.AddShard(0, log, scan_start, /*gsn_prefixed=*/false);
  return cursor;
}

ReplayPlan PlanFromCursor(LogCursor cursor, const ReplayPlanInputs& inputs) {
  ReplayPlan plan;
  PlanBuilder builder(plan, inputs);
  while (auto parsed = cursor.Next()) {
    builder.OnRecord(parsed->lsn, parsed->order, parsed->record);
  }
  DigestSalvageAndFinalize(plan, cursor.unreadable(), inputs.replay_call_ms);
  return plan;
}

// Pass 1's origin bookkeeping, fed one record at a time in append order.
// `order_of` maps a checkpoint entry's recovery LSN to its record's order
// (kInvalidLsn when unknown); upgrade comparisons run in order space.
class OriginTracker {
 public:
  OriginTracker(std::map<uint64_t, uint64_t>* origins,
                std::map<uint64_t, uint64_t>* origin_orders,
                std::function<uint64_t(uint64_t)> order_of)
      : origins_(origins),
        origin_orders_(origin_orders),
        order_of_(std::move(order_of)) {}

  void OnRecord(uint64_t lsn, uint64_t order, const LogRecord& record) {
    if (const auto* e = std::get_if<CheckpointContextEntryRecord>(&record)) {
      uint64_t entry_order = e->recovery_lsn == kInvalidLsn
                                 ? kInvalidLsn
                                 : order_of_(e->recovery_lsn);
      auto it = origins_->find(e->context_id);
      if (it == origins_->end() || it->second == kInvalidLsn ||
          (entry_order != kInvalidLsn &&
           ((*origin_orders_)[e->context_id] == kInvalidLsn ||
            entry_order > (*origin_orders_)[e->context_id]))) {
        Set(e->context_id, e->recovery_lsn, entry_order);
      }
    } else if (const auto* c = std::get_if<CreationRecord>(&record)) {
      auto it = origins_->find(c->context_id);
      if (it == origins_->end() || it->second == kInvalidLsn) {
        Set(c->context_id, lsn, order);
      }
    } else if (const auto* s = std::get_if<ContextStateRecord>(&record)) {
      Set(s->context_id, lsn, order);
    }
  }

  void Consume(LogCursor cursor) {
    while (auto parsed = cursor.Next()) {
      OnRecord(parsed->lsn, parsed->order, parsed->record);
    }
  }

  // The activator context always recovers by replay from the scan start.
  void Finish(uint64_t start_lsn, uint64_t start_order) {
    auto it = origins_->find(0);
    if (it == origins_->end() || it->second == kInvalidLsn) {
      Set(0, start_lsn, start_order);
    }
  }

 private:
  void Set(uint64_t context_id, uint64_t lsn, uint64_t order) {
    (*origins_)[context_id] = lsn;
    (*origin_orders_)[context_id] = order;
  }

  std::map<uint64_t, uint64_t>* origins_;
  std::map<uint64_t, uint64_t>* origin_orders_;
  std::function<uint64_t(uint64_t)> order_of_;
};

}  // namespace

ReplayPlan BuildReplayPlan(const LogManager& log, uint64_t start_order,
                           const ReplayPlanInputs& inputs) {
  return PlanFromCursor(log.Cursor(start_order), inputs);
}

ReplayPlan BuildReplayPlan(const LogView& log, uint64_t scan_start,
                           const ReplayPlanInputs& inputs) {
  ReplayPlanInputs plain = inputs;
  for (const auto& [context_id, lsn] : inputs.origins) {
    plain.origin_orders.try_emplace(context_id, lsn);  // order == lsn
  }
  return PlanFromCursor(PlainCursor(log, scan_start), plain);
}

ReplayPlan BuildReplayPlanFromRecords(const std::vector<OrderedRecord>& records,
                                      const std::vector<SkippedRange>& gaps,
                                      uint64_t start_order,
                                      const ReplayPlanInputs& inputs) {
  ReplayPlan plan;
  PlanBuilder builder(plan, inputs);
  for (const OrderedRecord& rec : records) {
    if (rec.order >= start_order) {
      builder.OnRecord(rec.lsn, rec.order, rec.record);
    }
  }
  DigestSalvageAndFinalize(plan, gaps, inputs.replay_call_ms);
  return plan;
}

void DeriveReplayOrigins(const LogManager& log,
                         std::map<uint64_t, uint64_t>* origins,
                         std::map<uint64_t, uint64_t>* origin_orders) {
  OriginTracker tracker(origins, origin_orders, [&log](uint64_t lsn) {
    Result<uint64_t> order = log.OrderOfRecordAt(lsn);
    return order.ok() ? *order : kInvalidLsn;
  });
  tracker.Consume(log.Cursor(log.head_order()));
  tracker.Finish(kInvalidLsn, log.head_order());
}

std::map<uint64_t, uint64_t> DeriveReplayOrigins(const LogView& log,
                                                 uint64_t scan_start) {
  std::map<uint64_t, uint64_t> origins;
  std::map<uint64_t, uint64_t> orders;
  OriginTracker tracker(&origins, &orders, [](uint64_t lsn) { return lsn; });
  tracker.Consume(PlainCursor(log, scan_start));
  tracker.Finish(scan_start, scan_start);
  return origins;
}

void DeriveReplayOriginsFromRecords(
    const std::vector<OrderedRecord>& records,
    std::map<uint64_t, uint64_t>* origins,
    std::map<uint64_t, uint64_t>* origin_orders) {
  std::map<uint64_t, uint64_t> order_of;
  for (const OrderedRecord& rec : records) order_of[rec.lsn] = rec.order;
  OriginTracker tracker(origins, origin_orders, [&order_of](uint64_t lsn) {
    auto it = order_of.find(lsn);
    return it == order_of.end() ? kInvalidLsn : it->second;
  });
  for (const OrderedRecord& rec : records) {
    tracker.OnRecord(rec.lsn, rec.order, rec.record);
  }
  tracker.Finish(records.empty() ? kInvalidLsn : records.front().lsn,
                 records.empty() ? 0 : records.front().order);
}

}  // namespace phoenix
