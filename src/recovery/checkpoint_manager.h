#ifndef PHOENIX_RECOVERY_CHECKPOINT_MANAGER_H_
#define PHOENIX_RECOVERY_CHECKPOINT_MANAGER_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/result.h"
#include "wal/log_record.h"

namespace phoenix {

class Context;
class Process;

// Implements Section 4's checkpointing: context state records (§4.2) and
// process checkpoints (§4.3). Neither is forced — a later send-message
// force makes them stable; once the end-checkpoint record is stable the LSN
// of the begin record is force-written to the well-known file.
class CheckpointManager {
 public:
  explicit CheckpointManager(Process* process);

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  // Saves `ctx`'s state now: first writes LastCallReplyRecords for any
  // last-call entries of this context whose replies are not yet on the log
  // (filling in their LSNs), then appends the ContextStateRecord and
  // updates the context table entry. Returns the state record's LSN.
  Result<uint64_t> SaveContextState(Context& ctx);

  // Called by the interceptor when `ctx` finishes an incoming call (the
  // "not active" moment of §4.2); saves state every
  // options.save_context_state_every calls.
  void OnIncomingCallFinished(Context& ctx);

  // Takes a process checkpoint: begin record, context table entries,
  // last-call entries, remote component types, end record. Returns the
  // begin record's LSN.
  Result<uint64_t> TakeProcessCheckpoint();

  // Publishes the pending checkpoint to the well-known file once its end
  // record is inside the durable horizon of the log that holds it — on a
  // sharded WAL that is the *meta shard's* (shard 0's) horizon, never the
  // forcing chain's touched-shard view. Invoked from every interceptor
  // force site and after checkpoint capture; a publish-once latch keyed by
  // the begin LSN makes the repeat invocations no-ops (counted in
  // phoenix.checkpoint.publish_skips). With options.auto_truncate_log set,
  // a publish also garbage-collects the log head.
  void MaybePublishCheckpoint();

  // --- asynchronous checkpointing (RuntimeOptions.async_checkpoint) ---

  // True when the background checkpoint session owes this process a sweep:
  // `interval` incoming calls completed since the last sweep, or a context
  // deferred by the last sweep (it was serving a call) has gone idle.
  // Evaluated as a ParkUntil predicate while every chain is quiesced.
  bool AsyncSweepDue(uint32_t interval) const;

  // One background sweep: first materializes the cold context holding the
  // lowest GC pin, if any (instant restart's drain, one per sweep); then
  // saves state for every dirty idle context whose
  // save pays for itself at recovery — calls since its last save, each
  // costing costs.recovery_replay_call_ms to replay, at least
  // costs.recovery_restore_state_ms, the extra cost of restoring a state
  // record (contexts below that are skipped and keep their count; contexts
  // with a live incoming call are deferred and re-armed via
  // AsyncSweepDue). When a bracket is due — none taken since this manager
  // was built, or the log (summed over shards) has grown by at least the
  // previous bracket's size since that bracket's end — it then takes a
  // process checkpoint, forces the bracket on the calling (background)
  // chain with ForcePoint::kAsyncCheckpoint, and publishes. Otherwise the
  // state records stay unforced until a later send-time force (§4.3), and
  // a recovery's pass 1 rebuilds the skipped rows from the records after
  // the older published bracket. Returns Crashed when the process dies
  // mid-sweep.
  Status RunAsyncSweep();

  // Log truncation (an engineering necessity checkpoints enable, though the
  // paper stops short of it): trims each shard's head to the lowest offset
  // recovery can still read there — below the published checkpoint, below
  // every context's recovery LSN, below every live last-call reply record,
  // and below every LSN an in-flight or published checkpoint references.
  // Each constraint pins the shard its record lives on; a shard nothing
  // pins trims up to its first record at or past the published
  // checkpoint's order. On a single log that is one cut at the minimum of
  // every constraint. Returns bytes reclaimed, summed across shards.
  uint64_t GarbageCollect();

  // --- statistics ---
  uint64_t state_saves() const { return state_saves_; }
  uint64_t checkpoints_taken() const { return checkpoints_taken_; }
  uint64_t checkpoints_published() const { return checkpoints_published_; }
  uint64_t publish_skips() const { return publish_skips_; }
  uint64_t async_sweeps() const { return async_sweeps_; }
  uint64_t async_deferrals() const { return async_deferrals_; }
  uint64_t brackets_deferred() const { return brackets_deferred_; }
  // Dirty contexts async sweeps skipped because their save was not yet due.
  uint64_t saves_not_due() const { return saves_not_due_; }

 private:
  // A context deferred by the last sweep has since finished its call and
  // can be captured now.
  bool HasDeferredIdleContext() const;

  // Logical bytes appended to the log (head trimming does not lower it),
  // summed over shards.
  uint64_t LogAppendedBytes() const;

  Process* process_;
  uint64_t pending_begin_lsn_ = kInvalidLsn;
  uint64_t pending_end_lsn_ = kInvalidLsn;
  // Exclusive durable horizon (a local offset on the log that holds the
  // bracket — shard 0 when sharded) that must be reached before the
  // pending end record may publish. Captured right after the end append,
  // so it is one past the end record regardless of frame packing.
  uint64_t pending_end_horizon_ = 0;
  // Sim time of the end-record append, for phoenix.checkpoint.async.lag_ms.
  double pending_end_append_ms_ = 0.0;
  // Every LSN the pending bracket's entries reference (context recovery
  // origins and last-call reply records at capture time). GC must pin them
  // all: once capture is async, a context may save newer state between
  // capture and publish, and the live recovery LSN alone would let
  // auto_truncate_log trim records the checkpoint-in-progress still needs.
  // On publish they become published_ref_lsns_ — the published entries keep
  // referencing them until the next publish supersedes them.
  std::vector<uint64_t> pending_ref_lsns_;
  std::vector<uint64_t> published_ref_lsns_;
  // Publish-once latch: begin LSN of the checkpoint already in the
  // well-known file. Repeat MaybePublishCheckpoint calls for it are skips.
  uint64_t published_begin_lsn_ = kInvalidLsn;
  // Contexts the last async sweep skipped because they were serving a call.
  std::set<uint64_t> deferred_contexts_;
  uint64_t last_sweep_incoming_calls_ = 0;
  std::map<uint64_t, uint64_t> calls_since_save_;  // context id -> count
  // Size of the last bracket this manager took and LogAppendedBytes() just
  // after its end record; an async sweep brackets again once the log has
  // grown by that size. Both start at 0, so the first sweep after Start
  // (which rebuilds the manager) always brackets.
  uint64_t last_bracket_bytes_ = 0;
  uint64_t appended_at_bracket_end_ = 0;
  uint64_t calls_since_checkpoint_ = 0;
  uint64_t state_saves_ = 0;
  uint64_t checkpoints_taken_ = 0;
  uint64_t checkpoints_published_ = 0;
  uint64_t publish_skips_ = 0;
  uint64_t async_sweeps_ = 0;
  uint64_t async_deferrals_ = 0;
  uint64_t brackets_deferred_ = 0;
  uint64_t saves_not_due_ = 0;
};

}  // namespace phoenix

#endif  // PHOENIX_RECOVERY_CHECKPOINT_MANAGER_H_
