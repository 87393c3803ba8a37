#include "recovery/recovery_manager.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/macros.h"
#include "common/strings.h"
#include "runtime/machine.h"
#include "runtime/process.h"
#include "runtime/simulation.h"
#include "wal/log_reader.h"
#include "wal/shard_router.h"

namespace phoenix {
namespace {

// Keeps the newest entry per (client, context); on equal seq, prefer the
// one that knows where the reply lives on the log.
void MergeLastCall(std::map<LastCallTable::Key, LastCallEntry>& table,
                   const ClientKey& client, LastCallEntry entry) {
  LastCallTable::Key key(client, entry.context_id);
  auto it = table.find(key);
  if (it == table.end() || it->second.seq < entry.seq) {
    table[key] = std::move(entry);
  } else if (it->second.seq == entry.seq &&
             it->second.reply_lsn == kInvalidLsn &&
             entry.reply_lsn != kInvalidLsn) {
    it->second = std::move(entry);
  }
}

// Metric/trace label of the recovering process, e.g. "ma/1".
std::string ProcLabel(Process* proc) {
  return StrCat(proc->machine_name(), "/", proc->pid());
}

// A recovery is its own causal chain: root it in a fresh trace unless the
// triggering chain (a retry that restarted the server) is already on the
// stack.
obs::SpanLink RecoveryRoot(Simulation* sim) {
  obs::SpanLink parent = sim->Current();
  if (sim->tracer().enabled() && parent.trace_id == 0) {
    parent = obs::SpanLink{sim->tracer().NewTraceId(), 0};
  }
  return parent;
}

}  // namespace

const char* RecoveryModeName(RecoveryMode mode) {
  switch (mode) {
    case RecoveryMode::kNormal:
      return "normal";
    case RecoveryMode::kSalvageAssessed:
      return "salvage_assessed";
    case RecoveryMode::kColdStart:
      return "cold_start";
  }
  return "unknown";
}

RecoveryManager::RecoveryManager(Process* process, RecoveryMode mode)
    : process_(process), mode_(mode) {}

Status RecoverContextFailure(Process* process, uint64_t context_id) {
  Process& proc = *process;
  Simulation* sim = proc.simulation();
  Context* ctx = proc.FindContext(context_id);
  if (ctx == nullptr) {
    return Status::NotFound(StrCat("no context ", context_id));
  }
  if (proc.IsCold(context_id)) {
    return proc.MaterializeContext(context_id, MaterializeTrigger::kCall);
  }
  uint64_t origin = ctx->recovery_lsn();
  if (origin == kInvalidLsn) {
    return Status::FailedPrecondition(
        StrCat("context ", context_id, " has no recovery origin"));
  }
  // A context failure loses neither the process's tables nor its log
  // buffer, so the scan covers the unforced tail too. All of one context's
  // records route to one shard, so the scan stays on the shard holding the
  // origin.
  LogCursor cursor = proc.log().ShardCursor(
      ShardOfLsn(origin), LocalOfLsn(origin), /*include_buffered=*/true);

  std::string obs_label = ProcLabel(process);
  sim->metrics()
      .GetCounter("phoenix.recovery.context_recoveries",
                  obs::LabelSet{{"process", obs_label}})
      .Increment();
  obs::Tracer::Span obs_span = sim->tracer().StartSpan(
      "recovery", "context_failure", obs_label, RecoveryRoot(sim),
      {obs::Arg("context", context_id), obs::Arg("origin", origin)});
  TraceFrameScope trace_frame(sim, obs_span);

  proc.set_recovering(true);
  ctx->ClearMembers();

  // The cursor's first record must be the origin itself.
  std::optional<ParsedRecord> first = cursor.Next();
  auto restore = [&]() -> Status {
    if (!first.has_value() || first->lsn != origin) {
      return Status::Corruption(
          StrCat("context ", context_id, " origin record is unreadable"));
    }
    const LogRecord& record = first->record;
    if (const auto* state = std::get_if<ContextStateRecord>(&record)) {
      sim->clock().AdvanceMs(sim->costs().recovery_create_ms +
                             sim->costs().recovery_restore_state_ms);
      for (const ComponentSnapshot& snap : state->components) {
        PHX_RETURN_IF_ERROR(ctx->RestoreComponent(snap));
      }
      ctx->set_last_outgoing_seq(state->last_outgoing_seq);
      return Status::OK();
    }
    if (const auto* creation = std::get_if<CreationRecord>(&record)) {
      sim->clock().AdvanceMs(sim->costs().recovery_create_ms);
      PHX_ASSIGN_OR_RETURN(std::unique_ptr<Component> instance,
                           sim->factories().Create(creation->type_name));
      ctx->AddComponent(std::move(instance), creation->type_name,
                        creation->name, creation->kind, context_id);
      proc.IndexComponentName(creation->name, context_id);
      ctx->set_last_outgoing_seq(0);
      return Status::OK();
    }
    return Status::Corruption(
        StrCat("context ", context_id, " origin is not a state/creation"));
  };
  Status status = restore();

  if (status.ok()) {
    std::optional<PendingReplay> pending;
    auto flush = [&]() -> Status {
      if (!pending.has_value()) return Status::OK();
      PendingReplay unit = std::move(*pending);
      pending.reset();
      if (unit.is_creation) {
        if (ctx->parent_initialized()) return Status::OK();
        return ctx->ReplayCreation(unit.creation.ctor_args,
                                   std::move(unit.feed));
      }
      Component* parent = ctx->parent();
      PHX_CHECK(parent != nullptr);
      CallMessage msg = MessageFromRecord(unit.incoming, parent->uri());
      Result<ReplyMessage> reply =
          ctx->ReplayIncoming(msg, std::move(unit.feed));
      return reply.ok() ? Status::OK() : std::move(reply).status();
    };

    for (std::optional<ParsedRecord> parsed = std::move(first);
         parsed.has_value(); parsed = cursor.Next()) {
      sim->clock().AdvanceMs(sim->costs().recovery_scan_record_ms);
      if (const auto* creation = std::get_if<CreationRecord>(&parsed->record);
          creation != nullptr && creation->context_id == context_id &&
          parsed->lsn == origin) {
        PendingReplay unit;
        unit.is_creation = true;
        unit.start_lsn = parsed->lsn;
        unit.creation = *creation;
        pending = std::move(unit);
      } else if (const auto* incoming =
                     std::get_if<IncomingCallRecord>(&parsed->record);
                 incoming != nullptr && incoming->context_id == context_id) {
        status = flush();
        if (!status.ok()) break;
        PendingReplay unit;
        unit.start_lsn = parsed->lsn;
        unit.incoming = *incoming;
        pending = std::move(unit);
      } else if (const auto* reply =
                     std::get_if<ReplyReceivedRecord>(&parsed->record);
                 reply != nullptr && reply->context_id == context_id &&
                 pending.has_value()) {
        pending->feed.replies[reply->seq] = *reply;
      }
    }
    if (status.ok()) status = flush();
  }

  proc.set_recovering(false);
  return status;
}

Status RecoveryManager::Recover() {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  sim->clock().AdvanceMs(sim->costs().recovery_init_ms);
  PhaseTimes admission;
  admission[RecoveryPhase::kInit] = sim->costs().recovery_init_ms;

  std::string label = ProcLabel(&proc);
  obs::LabelSet labels{{"process", label}};
  double t0 = sim->clock().NowMs();
  sim->metrics().GetCounter("phoenix.recovery.recoveries", labels).Increment();
  obs::Tracer::Span recover_span =
      sim->tracer().StartSpan("recovery", "recover", label,
                              RecoveryRoot(sim));
  TraceFrameScope recover_frame(sim, recover_span);
  if (mode_ != RecoveryMode::kNormal) {
    // Degraded rungs are worth counting; normal recovery stays byte-
    // identical to the pre-ladder behavior (no extra metric, no span arg).
    sim->metrics()
        .GetCounter("phoenix.recovery.mode",
                    obs::LabelSet{{"process", label},
                                  {"mode", RecoveryModeName(mode_)}})
        .Increment();
    recover_span.AddArg(obs::Arg("mode", RecoveryModeName(mode_)));
  }
  // The replayer belongs to this incarnation from the start: a live call
  // that reaches a shell while the activator's chain replays materializes
  // it like any other call.
  auto owned = std::make_unique<OnDemandReplayer>(&proc, label);
  OnDemandReplayer& lazy = *owned;
  proc.InstallReplayer(std::move(owned));

  // Start point: the published checkpoint, or the whole retained log —
  // after validating the well-known LSN and salvaging storage damage. The
  // start is a cut in record order (LogManager's append order), which on a
  // single log is the LSN itself.
  uint64_t start_order = AssessAndSalvageLog();

  // Analysis phase: one forward scan rebuilding the recovery map and the
  // global tables (§4.4's first pass).
  {
    obs::Tracer::Span span = sim->tracer().StartSpan(
        "recovery", "analysis", label, recover_span.link(),
        {obs::Arg("start_lsn", start_order)});
    TraceFrameScope frame(sim, span);
    PHX_RETURN_IF_ERROR(PassOne(start_order));
    span.AddArg(obs::Arg("records_scanned", stats_.records_scanned));
    span.AddArg(
        obs::Arg("contexts_found", static_cast<uint64_t>(infos_.size())));
  }
  admission[RecoveryPhase::kAnalysis] = sim->clock().NowMs() - t0;

  // The activator context always recovers by replay from the scan start.
  if (infos_[0].recovery_order == kInvalidLsn) {
    infos_[0].recovery_order = start_order;
  }

  // Shells: every other context is registered cold, and the rebuilt
  // tables are installed.
  PHX_RETURN_IF_ERROR(RegisterShells(lazy));
  InstallTables();

  // New components created while recovering (replayed activator calls whose
  // creation records were lost) must reuse the original sequential ids.
  uint64_t max_parent_id = 0;
  for (const auto& [context_id, info] : infos_) {
    if (context_id < Context::kSubordinateIdBase) {
      max_parent_id = std::max(max_parent_id, context_id);
    }
  }
  proc.set_next_parent_id(max_parent_id + 1);

  // Plan scan: each context's replay chain, as log positions.
  {
    double t1 = sim->clock().NowMs();
    obs::Tracer::Span span = sim->tracer().StartSpan(
        "recovery", "plan_scan", label, recover_span.link());
    TraceFrameScope frame(sim, span);
    ReplayIndex index =
        mode_ == RecoveryMode::kColdStart ? ColdStartChains() : PlanScan();
    span.AddArg(obs::Arg("chains", static_cast<uint64_t>(index.chains.size())));
    span.AddArg(obs::Arg("edges", index.cross_edges));
    lazy.AttachChains(std::move(index));
    admission[RecoveryPhase::kPlanScan] = sim->clock().NowMs() - t1;
  }

  // The activator's own chain replays now; everything else waits.
  {
    obs::Tracer::Span span = sim->tracer().StartSpan(
        "recovery", "replay", label, recover_span.link());
    TraceFrameScope frame(sim, span);
    PHX_RETURN_IF_ERROR(lazy.ReplayAdmitted(0, admission));
    if (!proc.alive() || proc.replayer() != &lazy) {
      return Status::Crashed("process died during recovery replay");
    }
    span.AddArg(obs::Arg("cold_contexts",
                         static_cast<uint64_t>(lazy.cold_count())));
  }

  sim->metrics()
      .GetCounter("phoenix.recovery.records_scanned", labels)
      .Increment(stats_.records_scanned);
  lazy.Admit(admission);
  recover_span.AddArg(obs::Arg("elapsed_ms", admission.total()));
  return Status::OK();
}

uint64_t RecoveryManager::AssessAndSalvageLog() {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  LogManager& log = proc.log();
  std::string label = ProcLabel(&proc);
  obs::LabelSet labels{{"process", label}};

  const uint64_t full_scan = log.head_order();
  uint64_t start_order = full_scan;
  Result<uint64_t> well_known = log.ReadWellKnownLsn();
  if (mode_ != RecoveryMode::kNormal) {
    // Degraded rungs distrust the published checkpoint pointer outright —
    // a prior attempt already failed, and a lying well-known file is one of
    // the ways it can keep failing. Rebuild from a full scan instead.
    if (well_known.ok()) {
      sim->metrics()
          .GetCounter("phoenix.recovery.salvage.wkf_distrusted", labels)
          .Increment();
      sim->tracer().Instant("recovery", "salvage_wkf_distrusted", label,
                            {obs::Arg("wkf_lsn", *well_known),
                             obs::Arg("scan_from", start_order)});
    }
  } else if (well_known.ok()) {
    // A corrupt well-known file (bit rot, or one pointing past a torn tail)
    // must not be trusted: unless its LSN lands exactly on a readable
    // begin-checkpoint record, rebuild from a full scan of the retained
    // log instead.
    uint64_t wkf = *well_known;
    uint64_t order = 0;
    Result<LogRecord> rec = log.ReadRecordAtLsn(wkf, &order);
    if (rec.ok() &&
        std::get_if<BeginCheckpointRecord>(&rec.value()) != nullptr) {
      start_order = order;
    } else {
      sim->metrics()
          .GetCounter("phoenix.recovery.salvage.wkf_fallback", labels)
          .Increment();
      sim->tracer().Instant("recovery", "salvage_wkf_fallback", label,
                            {obs::Arg("wkf_lsn", wkf),
                             obs::Arg("scan_from", start_order)});
    }
  }

  // Damage probe: one un-costed salvage scan per shard. A torn tail is
  // physically amputated at the first unreadable byte so the partial frame
  // cannot pollute records appended after this recovery (other shards keep
  // their tails). An unreadable mid-log region matters only when the next
  // readable record after it lies above the scan cut: the bytes lost there
  // may be the checkpoint's own table records, so the scan widens to the
  // whole log, and only such ranges are counted. A single log probes from
  // the cut, so it never sees the ranges below it.
  for (;;) {
    LogCursor probe = log.Probe(start_order);
    std::vector<ShardDamage> damage = probe.damage();
    bool amputated = false;
    for (const ShardDamage& shard : damage) {
      if (!shard.tail_torn) continue;
      LogView view = log.ShardStableView(shard.shard);
      uint64_t discarded =
          view.base + view.bytes->size() - LocalOfLsn(shard.torn_offset);
      log.TruncateStableTail(shard.torn_offset);
      sim->metrics()
          .GetCounter("phoenix.recovery.salvage.torn_tail_bytes", labels)
          .Increment(discarded);
      sim->tracer().Instant("recovery", "salvage_torn_tail", label,
                            {obs::Arg("torn_at_lsn", shard.torn_offset),
                             obs::Arg("bytes_discarded", discarded)});
      amputated = true;
    }
    if (amputated) continue;  // re-probe the amputated log

    std::vector<SkippedRange> above_cut;
    for (const ShardDamage& shard : damage) {
      for (size_t i = 0; i < shard.skipped.size(); ++i) {
        if (shard.resume_orders[i] > start_order) {
          above_cut.push_back(shard.skipped[i]);
        }
      }
    }
    if (!above_cut.empty() && start_order > full_scan) {
      start_order = full_scan;
      sim->metrics()
          .GetCounter("phoenix.recovery.salvage.full_scan_fallback", labels)
          .Increment();
      sim->tracer().Instant("recovery", "salvage_full_scan", label,
                            {obs::Arg("scan_from", start_order)});
      continue;  // re-probe the widened range
    }
    if (!above_cut.empty()) {
      uint64_t bytes = 0;
      for (const SkippedRange& range : above_cut) {
        bytes += range.to_lsn - range.from_lsn;
        sim->tracer().Instant("recovery", "salvage_skip", label,
                              {obs::Arg("from_lsn", range.from_lsn),
                               obs::Arg("to_lsn", range.to_lsn)});
      }
      sim->metrics()
          .GetCounter("phoenix.recovery.salvage.ranges_skipped", labels)
          .Increment(above_cut.size());
      sim->metrics()
          .GetCounter("phoenix.recovery.salvage.bytes_skipped", labels)
          .Increment(bytes);
    }
    if (log.sharded()) {
      // The shards' records went through the k-way merge; a single log has
      // nothing to merge.
      sim->metrics()
          .GetCounter("phoenix.recovery.merge.records", labels)
          .Increment(probe.records_read());
    }
    if (probe.inversions() > 0) {
      sim->metrics()
          .GetCounter("phoenix.recovery.merge.inversions", labels)
          .Increment(probe.inversions());
    }
    return start_order;
  }
}

Status RecoveryManager::PassOne(uint64_t start_order) {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  LogManager& log = proc.log();

  // All of a context's origin candidates (state records, its creation; for
  // the activator also the checkpoint records, which all live on shard 0)
  // share one shard, so comparing their LSNs below is exact.
  // recovery_order is kept alongside for the cross-context decisions (scan
  // cuts, pass-2 filtering).
  LogCursor cursor = log.Cursor(start_order);
  while (auto parsed = cursor.Next()) {
    ++stats_.records_scanned;
    sim->clock().AdvanceMs(sim->costs().recovery_scan_record_ms);
    if (proc.MaybeCrash(FailurePoint::kDuringRecoveryAnalysis)) {
      return Status::Crashed("crashed during recovery analysis scan");
    }
    uint64_t lsn = parsed->lsn;

    if (const auto* e =
            std::get_if<CheckpointContextEntryRecord>(&parsed->record)) {
      ContextInfo& info = infos_[e->context_id];
      if (info.recovery_lsn == kInvalidLsn ||
          (e->recovery_lsn != kInvalidLsn &&
           e->recovery_lsn > info.recovery_lsn)) {
        info.recovery_lsn = e->recovery_lsn;
        info.recovery_order = OrderOf(e->recovery_lsn);
      }
    } else if (const auto* c =
                   std::get_if<CheckpointLastCallRecord>(&parsed->record)) {
      LastCallEntry entry;
      entry.seq = c->call_id.seq;
      entry.reply_lsn = c->reply_lsn;
      entry.context_id = c->context_id;
      MergeLastCall(rebuilt_last_calls_, c->call_id.caller, entry);
    } else if (const auto* t =
                   std::get_if<CheckpointRemoteTypeRecord>(&parsed->record)) {
      rebuilt_remote_types_[t->uri] = RemoteTypeInfo{t->kind, t->type_name};
    } else if (const auto* cr = std::get_if<CreationRecord>(&parsed->record)) {
      ContextInfo& info = infos_[cr->context_id];
      if (info.recovery_lsn == kInvalidLsn) {
        info.recovery_lsn = lsn;
        info.recovery_order = parsed->order;
      }
    } else if (const auto* s =
                   std::get_if<ContextStateRecord>(&parsed->record)) {
      ContextInfo& info = infos_[s->context_id];
      info.recovery_lsn = lsn;
      info.recovery_order = parsed->order;
      info.restored_from_state = true;
    } else if (const auto* lr =
                   std::get_if<LastCallReplyRecord>(&parsed->record)) {
      LastCallEntry entry;
      entry.seq = lr->call_id.seq;
      entry.reply_lsn = lsn;
      entry.context_id = lr->context_id;
      MergeLastCall(rebuilt_last_calls_, lr->call_id.caller, entry);
    } else if (const auto* rs = std::get_if<ReplySentRecord>(&parsed->record)) {
      // Baseline long reply records double as reply sources for the table.
      if (rs->long_form && !rs->call_id.caller.machine.empty()) {
        LastCallEntry entry;
        entry.seq = rs->call_id.seq;
        entry.reply_lsn = lsn;
        entry.context_id = rs->context_id;
        MergeLastCall(rebuilt_last_calls_, rs->call_id.caller, entry);
      }
    }
    // Message records are pass 2's business; begin/end markers need nothing.
  }
  stats_.contexts_found = infos_.size();
  return Status::OK();
}

uint64_t RecoveryManager::OrderOf(uint64_t lsn) const {
  if (lsn == kInvalidLsn) return kInvalidLsn;
  Result<uint64_t> order = process_->log().OrderOfRecordAt(lsn);
  return order.ok() ? *order : kInvalidLsn;
}

Status RecoveryManager::RegisterShells(OnDemandReplayer& lazy) {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  std::string label = ProcLabel(&proc);

  for (auto& [context_id, info] : infos_) {
    if (context_id == 0) continue;  // activator is rebuilt by Start()
    if (info.recovery_lsn == kInvalidLsn) continue;

    Status status = RegisterShell(lazy, context_id, info);
    if (status.ok()) continue;
    if (!status.IsCorruption()) return status;

    // Salvage: the recovery LSN points at bit-rotted or skipped bytes.
    // State records are redundant — the same state is reachable by replay
    // from an older state record, or from the creation record.
    uint64_t fallback = FindFallbackOrigin(context_id, info.recovery_lsn);
    if (fallback == kInvalidLsn) return status;  // nothing left to try
    sim->metrics()
        .GetCounter("phoenix.recovery.salvage.state_record_fallback",
                    obs::LabelSet{{"process", label}})
        .Increment();
    sim->tracer().Instant("recovery", "salvage_state_fallback", label,
                          {obs::Arg("context", context_id),
                           obs::Arg("bad_lsn", info.recovery_lsn),
                           obs::Arg("fallback_lsn", fallback)});
    info.recovery_lsn = fallback;
    info.recovery_order = OrderOf(fallback);
    info.restored_from_state = false;
    PHX_RETURN_IF_ERROR(RegisterShell(lazy, context_id, info));
  }
  return Status::OK();
}

Status RecoveryManager::RegisterShell(OnDemandReplayer& lazy,
                                      uint64_t context_id, ContextInfo& info) {
  Process& proc = *process_;
  Result<LogRecord> read = proc.log().ReadRecordAtLsn(info.recovery_lsn);
  if (!read.ok()) return std::move(read).status();
  const LogRecord& record = read.value();

  OnDemandReplayer::Shell shell;
  shell.origin_lsn = info.recovery_lsn;
  shell.origin_order = info.recovery_order;
  if (const auto* state = std::get_if<ContextStateRecord>(&record)) {
    Context* ctx = proc.CreateRawContext(context_id);
    ctx->set_state_record_lsn(info.recovery_lsn);
    for (const ComponentSnapshot& snap : state->components) {
      proc.IndexComponentName(snap.name, context_id);
    }
    // The state record's last-call references join the table now, so a
    // checkpoint bracket taken while the context is cold keeps them (and
    // GC keeps their reply records).
    for (const LastCallRef& ref : state->last_call_refs) {
      LastCallEntry entry;
      entry.seq = ref.call_id.seq;
      entry.reply_lsn = ref.reply_lsn;
      entry.context_id = context_id;
      MergeLastCall(rebuilt_last_calls_, ref.call_id.caller, entry);
    }
    info.restored_from_state = true;
  } else if (const auto* creation = std::get_if<CreationRecord>(&record)) {
    Context* ctx = proc.CreateRawContext(context_id);
    ctx->set_creation_lsn(info.recovery_lsn);
    proc.IndexComponentName(creation->name, context_id);
  } else {
    return Status::Corruption(
        StrCat("context ", context_id,
               " recovery LSN does not hold a state/creation record"));
  }
  lazy.AddShell(context_id, std::move(shell));
  return Status::OK();
}

uint64_t RecoveryManager::FindFallbackOrigin(uint64_t context_id,
                                             uint64_t bad_lsn) {
  Process& proc = *process_;
  // A context's origin candidates all live on one shard, so the salvage
  // scan stays on the shard holding the bad origin.
  uint32_t shard = ShardOfLsn(bad_lsn);
  uint64_t best_state = kInvalidLsn;
  uint64_t best_creation = kInvalidLsn;
  LogCursor cursor =
      proc.log().ShardCursor(shard, proc.log().shard_head_base(shard));
  while (auto parsed = cursor.Next()) {
    if (parsed->lsn >= bad_lsn) break;
    if (const auto* s = std::get_if<ContextStateRecord>(&parsed->record);
        s != nullptr && s->context_id == context_id) {
      best_state = parsed->lsn;
    } else if (const auto* c = std::get_if<CreationRecord>(&parsed->record);
               c != nullptr && c->context_id == context_id) {
      if (best_creation == kInvalidLsn) best_creation = parsed->lsn;
    }
  }
  return best_state != kInvalidLsn ? best_state : best_creation;
}

void RecoveryManager::InstallTables() {
  Process& proc = *process_;
  for (const auto& [key, entry] : rebuilt_last_calls_) {
    proc.last_calls().Update(key.first, entry);
  }
  for (const auto& [uri, info] : rebuilt_remote_types_) {
    proc.remote_types().Learn(uri, info.kind, info.type_name);
  }
}

ReplayIndex RecoveryManager::PlanScan() {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  std::string label = ProcLabel(&proc);
  obs::LabelSet labels{{"process", label}};

  // Cross-context comparisons — the scan cut here, the below-origin filter
  // in the scan — run on record order: a context's records and its origin
  // live on one shard, but the *minimum* is taken across contexts that may
  // sit on different shards, where composite LSNs do not order by time.
  uint64_t scan_start = kInvalidLsn;
  ReplayPlanInputs inputs;
  inputs.machine = proc.machine_name();
  inputs.process_id = proc.pid();
  inputs.replay_call_ms = sim->costs().recovery_replay_call_ms;
  for (const auto& [context_id, info] : infos_) {
    inputs.origins[context_id] = info.recovery_lsn;
    inputs.origin_orders[context_id] = info.recovery_order;
    if (info.recovery_order != kInvalidLsn) {
      scan_start = std::min(scan_start, info.recovery_order);
    }
  }
  if (scan_start == kInvalidLsn) return ReplayIndex{};  // nothing to recover

  ReplayIndex index = BuildReplayIndex(proc.log(), scan_start, inputs);
  // Charged per record, as pass 1 is.
  for (uint64_t i = 0; i < index.records_scanned; ++i) {
    sim->clock().AdvanceMs(sim->costs().recovery_scan_record_ms);
  }
  stats_.records_scanned += index.records_scanned;
  sim->metrics()
      .GetCounter("phoenix.recovery.replay.chains", labels)
      .Increment(index.chains.size());
  sim->metrics()
      .GetCounter("phoenix.recovery.replay.edges", labels)
      .Increment(index.cross_edges);
  if (index.demoted_chains > 0) {
    // Salvage gaps inside these chains' units: their units replay in log
    // order against each other (the index's serialization edges).
    sim->metrics()
        .GetCounter("phoenix.recovery.replay.chains_demoted", labels)
        .Increment(index.demoted_chains);
    sim->tracer().Instant(
        "recovery", "replay_salvage_serialized", label,
        {obs::Arg("skipped_ranges", index.skipped_ranges),
         obs::Arg("demoted_chains",
                  static_cast<uint64_t>(index.demoted_chains)),
         obs::Arg("serialization_edges", index.serialization_edges)});
  }
  return index;
}

ReplayIndex RecoveryManager::ColdStartChains() {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  std::string label = ProcLabel(&proc);

  // Availability rung: reinstate the newest durable state only, no message
  // replay. Contexts restored from state records already hold that state;
  // creation-origin contexts re-run Initialize with an empty feed (their
  // Initialize-time outgoing calls go out live with the original ids, and
  // the servers deduplicate). Every message logged after the origins is
  // abandoned — cold start trades lost work for a process that serves.
  ReplayIndex index;
  for (const auto& [context_id, info] : infos_) {
    if (context_id == 0) continue;  // activator is rebuilt by Start()
    if (info.recovery_lsn == kInvalidLsn || info.restored_from_state) {
      continue;
    }
    IndexedChain& chain = index.chains.emplace_back();
    chain.context_id = context_id;
    chain.starts_with_creation = true;
    chain.unit_lsns.push_back(info.recovery_lsn);
    chain.reply_ends.push_back(0);
  }
  sim->metrics()
      .GetCounter("phoenix.recovery.cold_starts",
                  obs::LabelSet{{"process", label}})
      .Increment();
  sim->tracer().Instant(
      "recovery", "cold_start", label,
      {obs::Arg("creations_to_replay",
                static_cast<uint64_t>(index.chains.size()))});
  return index;
}

}  // namespace phoenix
