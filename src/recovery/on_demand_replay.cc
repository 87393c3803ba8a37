#include "recovery/on_demand_replay.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "recovery/replay.h"
#include "runtime/process.h"
#include "runtime/simulation.h"

namespace phoenix {
namespace {

// Runs a materialization as recovery work (see the class comment), and
// leaves the flag alone when the process died or restarted meanwhile.
class RecoveringScope {
 public:
  RecoveringScope(Process* process, const OnDemandReplayer* owner)
      : process_(process), owner_(owner), was_(process->recovering()) {
    process_->set_recovering(true);
  }
  ~RecoveringScope() {
    if (process_->alive() && process_->replayer() == owner_) {
      process_->set_recovering(was_);
    }
  }
  RecoveringScope(const RecoveringScope&) = delete;
  RecoveringScope& operator=(const RecoveringScope&) = delete;

 private:
  Process* process_;
  const OnDemandReplayer* owner_;
  bool was_;
};

int CurrentSession(Simulation* sim) {
  SessionScheduler* sched = sim->session_scheduler();
  return sched != nullptr ? sched->current_session() : -1;
}

}  // namespace

const char* MaterializeTriggerName(MaterializeTrigger trigger) {
  switch (trigger) {
    case MaterializeTrigger::kCall:
      return "call";
    case MaterializeTrigger::kDependency:
      return "dependency";
    case MaterializeTrigger::kDrain:
      return "drain";
  }
  return "unknown";
}

const char* RecoveryPhaseName(RecoveryPhase phase) {
  switch (phase) {
    case RecoveryPhase::kInit:
      return "init";
    case RecoveryPhase::kAnalysis:
      return "analysis";
    case RecoveryPhase::kPlanScan:
      return "plan_scan";
    case RecoveryPhase::kCreate:
      return "create";
    case RecoveryPhase::kRestore:
      return "restore";
    case RecoveryPhase::kReplay:
      return "replay";
  }
  return "unknown";
}

double PhaseTimes::total() const {
  double sum = 0.0;
  for (double phase_ms : ms) sum += phase_ms;
  return sum;
}

OnDemandReplayer::OnDemandReplayer(Process* process, std::string label)
    : process_(process), label_(std::move(label)) {}

void OnDemandReplayer::AddShell(uint64_t context_id, Shell shell) {
  shells_[context_id] = std::move(shell);
}

void OnDemandReplayer::AttachChains(ReplayIndex index) {
  chain_owner_.reserve(index.chains.size());
  chain_length_.reserve(index.chains.size());
  for (IndexedChain& chain : index.chains) {
    chain_owner_.push_back(chain.context_id);
    chain_length_.push_back(chain.size());
    auto it = shells_.find(chain.context_id);
    Shell& owner = it != shells_.end() ? it->second
                                       : admitted_chains_[chain.context_id];
    owner.chain = std::move(chain);
  }
}

Status OnDemandReplayer::ReplayAdmitted(uint64_t context_id,
                                        PhaseTimes& admission) {
  auto it = admitted_chains_.find(context_id);
  if (it == admitted_chains_.end()) return Status::OK();
  Shell& admitted = it->second;
  admitted.created = true;
  SimClock& clock = process_->simulation()->clock();
  double t0 = clock.NowMs();
  double nested0 = stepped_ms_;
  Status status = ReplayUnits(context_id, admitted, admitted.chain.size());
  admission[RecoveryPhase::kReplay] +=
      (clock.NowMs() - t0) - (stepped_ms_ - nested0);
  return status;
}

void OnDemandReplayer::Admit(PhaseTimes admission) {
  Simulation* sim = process_->simulation();
  for (int p = 0; p < kNumRecoveryPhases; ++p) {
    sim->metrics()
        .GetGauge("phoenix.recovery.phase_ms",
                  obs::LabelSet{{"process", label_},
                                {"phase", RecoveryPhaseName(
                                              static_cast<RecoveryPhase>(p))}})
        .Add(admission.ms[p]);
  }
  obs::LabelSet labels{{"process", label_}};
  sim->metrics()
      .GetHistogram("phoenix.recovery.duration_ms", labels)
      .Record(admission.total());
  sim->metrics()
      .GetGauge("phoenix.recovery.cold_contexts", labels)
      .Set(static_cast<double>(shells_.size()));
  admitted_at_ms_ = sim->clock().NowMs();
  if (shells_.empty()) {
    sim->metrics()
        .GetHistogram("phoenix.recovery.full_recovery_ms", labels)
        .Record(0.0);
  }
}

Status OnDemandReplayer::Materialize(uint64_t context_id,
                                     MaterializeTrigger trigger) {
  auto it = shells_.find(context_id);
  if (it == shells_.end()) return Status::OK();
  Shell& shell = it->second;
  if (shell.busy) {
    if (shell.busy_session == CurrentSession(process_->simulation())) {
      // A live call of the chain rebuilding it came back around. Inside
      // one of its units the context is executing and serves (or refuses)
      // the call as a busy context; between units its remaining units
      // replay first (see the class comment).
      if (shell.in_unit) return Status::OK();
      return ReplayUnits(context_id, shell, shell.chain.size());
    }
    // Another session waits for the rebuild.
    if (!WaitUntilIdle(context_id)) {
      return Status::Crashed("process died while a context materialized");
    }
    return Materialize(context_id, trigger);
  }
  return Advance(context_id, shell.chain.size(), trigger);
}

Status OnDemandReplayer::DrainOne() {
  uint64_t best = 0;
  uint64_t best_order = kInvalidLsn;
  bool found = false;
  for (const auto& [context_id, shell] : shells_) {
    if (shell.busy) continue;
    if (!found || shell.origin_order < best_order) {
      best = context_id;
      best_order = shell.origin_order;
      found = true;
    }
  }
  if (!found) return Status::OK();
  return Materialize(best, MaterializeTrigger::kDrain);
}

Status OnDemandReplayer::DrainAll() {
  while (!shells_.empty()) {
    size_t before = shells_.size();
    PHX_RETURN_IF_ERROR(DrainOne());
    if (!process_->alive() || process_->replayer() != this) {
      return Status::Crashed("process died while draining cold contexts");
    }
    if (shells_.size() == before) break;  // every shell left is busy
  }
  return Status::OK();
}

Status OnDemandReplayer::Advance(uint64_t context_id, size_t end,
                                 MaterializeTrigger trigger) {
  Simulation* sim = process_->simulation();
  Shell& shell = shells_.at(context_id);
  if (shell.busy) return Status::OK();
  auto gone = [this] {
    return !process_->alive() || process_->replayer() != this;
  };

  obs::SpanLink parent = sim->Current();
  if (sim->tracer().enabled() && parent.trace_id == 0) {
    parent = obs::SpanLink{sim->tracer().NewTraceId(), 0};
  }
  obs::Tracer::Span span = sim->tracer().StartSpan(
      "recovery", "materialize", label_, parent,
      {obs::Arg("context", context_id),
       obs::Arg("trigger", MaterializeTriggerName(trigger)),
       obs::Arg("from_unit", static_cast<uint64_t>(shell.cursor))});
  TraceFrameScope frame(sim, span);
  RecoveringScope recovering(process_, this);
  shell.busy = true;
  shell.busy_session = CurrentSession(sim);

  PhaseTimes t;
  bool first_step = !shell.created;
  Status status = Status::OK();
  if (first_step) {
    status = CreateFromOrigin(context_id, shell, t);
    if (status.ok() && process_->MaybeCrash(
                           FailurePoint::kDuringRecoveryRestore)) {
      status = Status::Crashed("crashed while materializing a context");
    }
  }
  if (status.ok()) {
    double t0 = sim->clock().NowMs();
    double nested0 = stepped_ms_;
    status = ReplayUnits(context_id, shell, end);
    t[RecoveryPhase::kReplay] =
        (sim->clock().NowMs() - t0) - (stepped_ms_ - nested0);
  }
  shell.busy = false;
  shell.busy_session = -1;
  RecordStep(trigger, first_step, t);
  span.AddArg(obs::Arg("to_unit", static_cast<uint64_t>(shell.cursor)));
  span.AddArg(obs::Arg("materialize_ms", t.total()));
  if (gone()) return Status::Crashed("process died while materializing");
  if (!status.ok()) {
    // A context that cannot be rebuilt takes its process down: the next
    // restart begins again from the log (and the supervisor's ladder).
    process_->Kill();
    return status;
  }
  if (shell.cursor < shell.chain.size()) return Status::OK();  // still cold
  Retire(context_id);
  if (!shells_.empty() &&
      process_->MaybeCrash(FailurePoint::kBetweenMaterializations)) {
    return Status::Crashed("crashed between materializations");
  }
  return Status::OK();
}

Status OnDemandReplayer::CreateFromOrigin(uint64_t context_id, Shell& shell,
                                          PhaseTimes& t) {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  const CostModel& costs = sim->costs();
  obs::LabelSet labels{{"process", label_}};
  Context* ctx = proc.FindContext(context_id);
  if (ctx == nullptr) {
    return Status::Internal(StrCat("cold context ", context_id, " vanished"));
  }
  PHX_ASSIGN_OR_RETURN(LogRecord record,
                       proc.log().ReadRecordAtLsn(shell.origin_lsn));
  if (const auto* state = std::get_if<ContextStateRecord>(&record)) {
    // Object creation + registration, then field restore (§5.4 measures
    // these as ~80 ms + ~60 ms).
    sim->clock().AdvanceMs(costs.recovery_create_ms +
                           costs.recovery_restore_state_ms);
    t[RecoveryPhase::kCreate] = costs.recovery_create_ms;
    t[RecoveryPhase::kRestore] = costs.recovery_restore_state_ms;
    for (const ComponentSnapshot& snap : state->components) {
      PHX_RETURN_IF_ERROR(ctx->RestoreComponent(snap));
    }
    ctx->set_last_outgoing_seq(state->last_outgoing_seq);
    ++stats_.contexts_restored_from_state;
    sim->metrics()
        .GetCounter("phoenix.recovery.contexts_restored_from_state", labels)
        .Increment();
  } else if (const auto* creation = std::get_if<CreationRecord>(&record)) {
    // A blank instance; Initialize replays as the chain's first unit.
    sim->clock().AdvanceMs(costs.recovery_create_ms);
    t[RecoveryPhase::kCreate] = costs.recovery_create_ms;
    PHX_ASSIGN_OR_RETURN(std::unique_ptr<Component> instance,
                         sim->factories().Create(creation->type_name));
    ctx->AddComponent(std::move(instance), creation->type_name,
                      creation->name, creation->kind, context_id);
    ++stats_.contexts_created;
    sim->metrics()
        .GetCounter("phoenix.recovery.contexts_created", labels)
        .Increment();
  } else {
    return Status::Corruption(StrCat("context ", context_id,
                                     " origin is not a state/creation"));
  }
  shell.created = true;
  sim->metrics()
      .GetCounter("phoenix.recovery.context_recoveries", labels)
      .Increment();
  return Status::OK();
}

Status OnDemandReplayer::ReplayUnits(uint64_t context_id, Shell& shell,
                                     size_t end) {
  auto gone = [this] {
    return !process_->alive() || process_->replayer() != this;
  };
  const IndexedChain& chain = shell.chain;
  while (shell.cursor < end) {
    size_t index = shell.cursor;
    // This unit's edges, by target unit in the chain's sorted list.
    auto first = std::lower_bound(
        chain.deps.begin(), chain.deps.end(), index,
        [](const std::pair<uint32_t, UnitRef>& edge, size_t unit) {
          return edge.first < unit;
        });
    for (auto it = first; it != chain.deps.end() && it->first == index; ++it) {
      PHX_RETURN_IF_ERROR(SatisfyDependency(it->second));
    }
    if (gone()) return Status::Crashed("process died during recovery replay");
    if (shell.cursor != index) continue;  // a live call replayed it already
    shell.in_unit = true;
    Status status = ReplayOne(context_id, chain, index);
    shell.in_unit = false;
    ++shell.cursor;
    PHX_RETURN_IF_ERROR(status);
    if (gone()) return Status::Crashed("process died during recovery replay");
    // A chain's last unit may have gone live; the others are complete.
    FailurePoint point = shell.cursor == chain.size()
                             ? FailurePoint::kDuringEndOfLogFlush
                             : FailurePoint::kBetweenReplayUnits;
    if (process_->MaybeCrash(point)) {
      return Status::Crashed("crashed between replay units");
    }
  }
  return Status::OK();
}

Status OnDemandReplayer::ReplayOne(uint64_t context_id,
                                   const IndexedChain& chain, size_t unit) {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  Context* ctx = proc.FindContext(context_id);
  if (ctx == nullptr) {
    return Status::Internal(
        StrCat("replay unit for unknown context ", context_id));
  }
  ReplayFeed feed;
  for (size_t r = chain.replies_begin(unit); r < chain.reply_ends[unit]; ++r) {
    uint64_t lsn = chain.reply_lsns[r];
    PHX_ASSIGN_OR_RETURN(LogRecord record, proc.log().ReadRecordAtLsn(lsn));
    auto* reply = std::get_if<ReplyReceivedRecord>(&record);
    if (reply == nullptr) {
      return Status::Corruption(StrCat("no reply record at lsn ", lsn));
    }
    uint64_t seq = reply->seq;
    feed.replies[seq] = std::move(*reply);
  }
  uint64_t start_lsn = chain.unit_lsns[unit];
  PHX_ASSIGN_OR_RETURN(LogRecord record, proc.log().ReadRecordAtLsn(start_lsn));
  obs::LabelSet labels{{"process", label_}};
  if (chain.is_creation(unit)) {
    const auto* creation = std::get_if<CreationRecord>(&record);
    if (creation == nullptr) {
      return Status::Corruption(StrCat("no creation record at lsn ", start_lsn));
    }
    if (ctx->parent_initialized()) return Status::OK();  // created live
    ++stats_.creations_replayed;
    return ctx->ReplayCreation(creation->ctor_args, std::move(feed));
  }
  const auto* incoming = std::get_if<IncomingCallRecord>(&record);
  if (incoming == nullptr) {
    return Status::Corruption(
        StrCat("no incoming-call record at lsn ", start_lsn));
  }
  ++stats_.calls_replayed;
  sim->metrics()
      .GetCounter("phoenix.recovery.calls_replayed", labels)
      .Increment();
  Component* parent = ctx->parent();
  if (parent == nullptr) {
    return Status::Internal(StrCat("context ", context_id, " has no parent"));
  }
  CallMessage msg = MessageFromRecord(*incoming, parent->uri());
  Result<ReplyMessage> reply = ctx->ReplayIncoming(msg, std::move(feed));
  // Condition 5: the reply stays with the recovery manager. The last-call
  // table was updated inside ReplayIncoming; a retrying client will be
  // answered from there.
  return reply.ok() ? Status::OK() : std::move(reply).status();
}

Status OnDemandReplayer::SatisfyDependency(const UnitRef& dep) {
  if (dep.chain >= chain_owner_.size()) return Status::OK();
  // A final unit replays only with its own context (see class comment).
  if (dep.index + 1 >= chain_length_[dep.chain]) return Status::OK();
  auto it = shells_.find(chain_owner_[dep.chain]);
  if (it == shells_.end()) return Status::OK();  // already materialized
  const Shell& source = it->second;
  if (source.busy || source.cursor > dep.index) return Status::OK();
  return Advance(it->first, dep.index + 1, MaterializeTrigger::kDependency);
}

bool OnDemandReplayer::WaitUntilIdle(uint64_t context_id) {
  SessionScheduler* sched = process_->simulation()->session_scheduler();
  auto gone = [this] {
    return !process_->alive() || process_->replayer() != this;
  };
  if (sched != nullptr) {
    sched->ParkUntil([this, context_id, &gone] {
      auto it = shells_.find(context_id);
      return gone() || it == shells_.end() || !it->second.busy;
    });
  }
  return !gone();
}

void OnDemandReplayer::RecordStep(MaterializeTrigger trigger,
                                  bool first_step, PhaseTimes& t) {
  Simulation* sim = process_->simulation();
  double step_ms = t.total();
  stepped_ms_ += step_ms;
  for (RecoveryPhase phase : {RecoveryPhase::kCreate, RecoveryPhase::kRestore,
                              RecoveryPhase::kReplay}) {
    sim->metrics()
        .GetGauge("phoenix.recovery.phase_ms",
                  obs::LabelSet{{"process", label_},
                                {"phase", RecoveryPhaseName(phase)}})
        .Add(t[phase]);
  }
  sim->metrics()
      .GetHistogram("phoenix.recovery.materialize_ms",
                    obs::LabelSet{{"process", label_}})
      .Record(step_ms);
  if (first_step) {
    sim->metrics()
        .GetCounter("phoenix.recovery.contexts_materialized",
                    obs::LabelSet{{"process", label_},
                                  {"trigger", MaterializeTriggerName(trigger)}})
        .Increment();
  }
}

void OnDemandReplayer::Retire(uint64_t context_id) {
  Simulation* sim = process_->simulation();
  shells_.erase(context_id);
  obs::LabelSet labels{{"process", label_}};
  sim->metrics()
      .GetGauge("phoenix.recovery.cold_contexts", labels)
      .Set(static_cast<double>(shells_.size()));
  if (shells_.empty()) {
    sim->metrics()
        .GetHistogram("phoenix.recovery.full_recovery_ms", labels)
        .Record(sim->clock().NowMs() - admitted_at_ms_);
  }
}

}  // namespace phoenix
