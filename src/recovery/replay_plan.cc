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

// The two plan forms differ only in what a chain keeps per unit: decoded
// records and reverse edges (ReplayChain) or log positions (IndexedChain).
size_t UnitCount(const ReplayChain& chain) { return chain.units.size(); }
size_t UnitCount(const IndexedChain& chain) { return chain.size(); }

uint64_t UnitStart(const ReplayChain& chain, size_t u) {
  return chain.units[u].replay.start_lsn;
}
uint64_t UnitStart(const IndexedChain& chain, size_t u) {
  return chain.unit_lsns[u];
}

// LSN of the last record attributed to unit u.
uint64_t UnitExtentEnd(const ReplayChain& chain, size_t u) {
  return chain.units[u].extent_end_lsn;
}
uint64_t UnitExtentEnd(const IndexedChain& chain, size_t u) {
  uint32_t end = chain.reply_ends[u];
  return end > chain.replies_begin(u) ? chain.reply_lsns[end - 1]
                                      : chain.unit_lsns[u];
}

bool HasEdge(const ReplayChain& chain, size_t u, const UnitRef& source) {
  const std::vector<UnitRef>& deps = chain.units[u].deps;
  return std::find(deps.begin(), deps.end(), source) != deps.end();
}
bool HasEdge(const IndexedChain& chain, size_t u, const UnitRef& source) {
  return std::find(chain.deps.begin(), chain.deps.end(),
                   std::pair<uint32_t, UnitRef>(static_cast<uint32_t>(u),
                                                source)) != chain.deps.end();
}

void AppendUnit(ReplayChain& chain, uint64_t lsn, uint64_t order,
                const CreationRecord& rec) {
  PlannedUnit& unit = chain.units.emplace_back();
  unit.replay.is_creation = true;
  unit.replay.start_lsn = lsn;
  unit.replay.order = order;
  unit.replay.creation = rec;
  unit.extent_end_lsn = lsn;
}
void AppendUnit(ReplayChain& chain, uint64_t lsn, uint64_t order,
                const IncomingCallRecord& rec) {
  PlannedUnit& unit = chain.units.emplace_back();
  unit.replay.start_lsn = lsn;
  unit.replay.order = order;
  unit.replay.incoming = rec;
  unit.extent_end_lsn = lsn;
}
void AppendUnit(IndexedChain& chain, uint64_t lsn, uint64_t,
                const CreationRecord&) {
  // Only the origin creation record opens a unit, and it opens the chain.
  if (chain.unit_lsns.empty()) chain.starts_with_creation = true;
  chain.unit_lsns.push_back(lsn);
  chain.reply_ends.push_back(static_cast<uint32_t>(chain.reply_lsns.size()));
}
void AppendUnit(IndexedChain& chain, uint64_t lsn, uint64_t,
                const IncomingCallRecord&) {
  chain.unit_lsns.push_back(lsn);
  chain.reply_ends.push_back(static_cast<uint32_t>(chain.reply_lsns.size()));
}

// Attaches a reply to the chain's open (last) unit.
void AddReply(ReplayChain& chain, uint64_t lsn,
              const ReplyReceivedRecord& rec) {
  PlannedUnit& unit = chain.units.back();
  unit.replay.feed.replies[rec.seq] = rec;
  unit.extent_end_lsn = lsn;
}
void AddReply(IndexedChain& chain, uint64_t lsn, const ReplyReceivedRecord&) {
  chain.reply_lsns.push_back(lsn);
  chain.reply_ends.back() = static_cast<uint32_t>(chain.reply_lsns.size());
}

// Adds the edge source -> target (the decoded form also keeps it reversed).
void AddEdge(ReplayPlan& plan, UnitRef source, UnitRef target) {
  plan.chains[target.chain].units[target.index].deps.push_back(source);
  plan.chains[source.chain].units[source.index].dependents.push_back(target);
}
void AddEdge(ReplayIndex& index, UnitRef source, UnitRef target) {
  std::vector<std::pair<uint32_t, UnitRef>>& deps =
      index.chains[target.chain].deps;
  std::pair<uint32_t, UnitRef> edge(target.index, source);
  deps.insert(std::upper_bound(deps.begin(), deps.end(), edge), edge);
}

// Incremental chain/edge construction, fed one record at a time in append
// order by whichever adapter below holds the log. `order` is the record's
// replay order (LogCursor's order: the LSN on a single log, the gsn on a
// sharded one); below-origin filtering compares it against
// inputs.origin_orders.
template <typename Plan>
class PlanBuilder {
  using Chain = typename decltype(Plan::chains)::value_type;

 public:
  PlanBuilder(Plan& plan, const ReplayPlanInputs& inputs)
      : plan_(plan), inputs_(inputs) {}

  void OnRecord(uint64_t lsn, uint64_t order, const LogRecord& record) {
    ++plan_.records_scanned;
    if (const auto* creation = std::get_if<CreationRecord>(&record)) {
      OnCreation(lsn, order, *creation);
    } else if (const auto* incoming =
                   std::get_if<IncomingCallRecord>(&record)) {
      OnIncoming(lsn, order, *incoming);
    } else if (const auto* reply = std::get_if<ReplyReceivedRecord>(&record)) {
      if (std::optional<UnitRef> ref = OpenRef(reply->context_id);
          ref.has_value()) {
        AddReply(plan_.chains[ref->chain], lsn, *reply);
      }
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
    AppendUnit(ChainOf(rec.context_id), lsn, order, rec);
  }

  void OnIncoming(uint64_t lsn, uint64_t order,
                  const IncomingCallRecord& rec) {
    if (inputs_.origins.find(rec.context_id) == inputs_.origins.end()) {
      return;
    }
    uint64_t origin = OriginOrder(rec.context_id);
    if (origin != kInvalidLsn && order < origin) return;

    AppendUnit(ChainOf(rec.context_id), lsn, order, rec);
    UnitRef target = *OpenRef(rec.context_id);

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
        AddEdge(plan_, *source, target);
        ++plan_.cross_edges;
      }
    }
  }

  // The chain's currently-open unit: the one whose execution covers this
  // point of the log (its last planned unit, units being closed only by the
  // context's next incoming call).
  std::optional<UnitRef> OpenRef(uint64_t context_id) const {
    auto it = chain_of_.find(context_id);
    if (it == chain_of_.end()) return std::nullopt;
    size_t units = UnitCount(plan_.chains[it->second]);
    if (units == 0) return std::nullopt;
    return UnitRef{it->second, static_cast<uint32_t>(units - 1)};
  }

  Chain& ChainOf(uint64_t context_id) {
    auto [it, inserted] =
        chain_of_.try_emplace(context_id, static_cast<uint32_t>(
                                              plan_.chains.size()));
    if (inserted) plan_.chains.emplace_back().context_id = context_id;
    return plan_.chains[it->second];
  }

  Plan& plan_;
  const ReplayPlanInputs& inputs_;
  std::map<uint64_t, uint32_t> chain_of_;  // context id -> chain index
};

// Salvage digestion: demote every chain with a gap strictly inside one of
// its unit extents, then serialize the demoted units against each other
// in global replay order via extra edges. A torn tail counts as a gap past
// the last readable record — it can intersect no unit extent (the extent
// ends at a record the scan parsed), so a torn tail alone demotes nothing.
// Gap and extent coordinates live in the same space (plain LSNs on one
// log, composite LSNs sharded — where shard bits make cross-shard
// intersections provably empty), but the serialization sort keys on the
// units' replay order.
template <typename Plan, typename OrderFn>
void DigestSalvage(Plan& plan, const std::vector<SkippedRange>& gaps,
                   const OrderFn& order_of) {
  plan.salvaged = !gaps.empty();
  plan.skipped_ranges = gaps.size();
  if (!plan.salvaged) return;
  for (auto& chain : plan.chains) {
    for (size_t u = 0; u < UnitCount(chain); ++u) {
      for (const SkippedRange& gap : gaps) {
        if (gap.from_lsn < UnitExtentEnd(chain, u) &&
            gap.to_lsn > UnitStart(chain, u)) {
          chain.parallel_eligible = false;
        }
      }
    }
    if (!chain.parallel_eligible) ++plan.demoted_chains;
  }
  if (plan.demoted_chains == 0) return;
  std::vector<std::pair<uint64_t, UnitRef>> demoted;
  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    if (plan.chains[c].parallel_eligible) continue;
    for (uint32_t u = 0; u < UnitCount(plan.chains[c]); ++u) {
      demoted.emplace_back(order_of(plan.chains[c], u), UnitRef{c, u});
    }
  }
  std::sort(demoted.begin(), demoted.end());
  for (size_t i = 1; i < demoted.size(); ++i) {
    const UnitRef& source = demoted[i - 1].second;
    const UnitRef& target = demoted[i].second;
    if (source.chain == target.chain) continue;  // chain order covers it
    if (HasEdge(plan.chains[target.chain], target.index, source)) continue;
    AddEdge(plan, source, target);
    ++plan.serialization_edges;
  }
}

// A decoded unit carries its own replay order.
uint64_t DecodedOrder(const ReplayChain& chain, uint32_t u) {
  return chain.units[u].replay.order;
}

// The decoded plan's verdict and cost estimate.
void Finalize(ReplayPlan& plan, double replay_call_ms) {
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
  PlanBuilder<ReplayPlan> builder(plan, inputs);
  while (auto parsed = cursor.Next()) {
    builder.OnRecord(parsed->lsn, parsed->order, parsed->record);
  }
  DigestSalvage(plan, cursor.unreadable(), DecodedOrder);
  Finalize(plan, inputs.replay_call_ms);
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

ReplayIndex BuildReplayIndex(const LogManager& log, uint64_t start_order,
                             const ReplayPlanInputs& inputs) {
  ReplayIndex index;
  PlanBuilder<ReplayIndex> builder(index, inputs);
  LogCursor cursor = log.Cursor(start_order);
  while (auto parsed = cursor.Next()) {
    builder.OnRecord(parsed->lsn, parsed->order, parsed->record);
  }
  // The index keeps no orders; a salvaged log's demoted units read theirs
  // back from the log.
  DigestSalvage(index, cursor.unreadable(),
                [&log](const IndexedChain& chain, uint32_t u) {
                  Result<uint64_t> order =
                      log.OrderOfRecordAt(chain.unit_lsns[u]);
                  return order.ok() ? *order : kInvalidLsn;
                });
  for (IndexedChain& chain : index.chains) {
    chain.unit_lsns.shrink_to_fit();
    chain.reply_ends.shrink_to_fit();
    chain.reply_lsns.shrink_to_fit();
    chain.deps.shrink_to_fit();
  }
  return index;
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
  PlanBuilder<ReplayPlan> builder(plan, inputs);
  for (const OrderedRecord& rec : records) {
    if (rec.order >= start_order) {
      builder.OnRecord(rec.lsn, rec.order, rec.record);
    }
  }
  DigestSalvage(plan, gaps, DecodedOrder);
  Finalize(plan, inputs.replay_call_ms);
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
