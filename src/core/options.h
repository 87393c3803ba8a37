#ifndef PHOENIX_CORE_OPTIONS_H_
#define PHOENIX_CORE_OPTIONS_H_

#include <cstdint>

namespace phoenix {

// Which logging discipline interceptors apply to persistent components.
enum class LoggingMode : int {
  // Algorithm 1 (the IDEAS'03 baseline): log AND force every one of the
  // four messages of every method call.
  kBaseline = 0,
  // Algorithms 2/3: log receive messages without forcing, never write send
  // messages, force the log only when a send "commits" component state
  // (external clients keep forced long/short records).
  kOptimized = 1,
};

// The prototype's switches (§5: "log optimizations and checkpointing can all
// be turned on or off via switches").
struct RuntimeOptions {
  LoggingMode logging_mode = LoggingMode::kOptimized;

  // Honor the specialized kinds of §3.2 (functional / read-only components,
  // read-only methods). When false they are logged as if persistent.
  // Subordinates are structural (they live inside the parent's context) and
  // are unaffected by this switch.
  bool use_specialized_kinds = true;

  // §3.5 multi-call optimization (not in the paper's prototype; implemented
  // here as an extension): within one method execution force only at the
  // first outgoing call, at a repeated call to the same server, and at the
  // reply.
  bool multi_call_optimization = false;

  // Save a context state record every N completed incoming calls per
  // context (0 = never). §5.4 concludes ~400+ is the break-even for the
  // micro-benchmark.
  uint32_t save_context_state_every = 0;

  // Take a process checkpoint every N incoming calls process-wide (0 =
  // never). The paper takes them "periodically"; a call-count period keeps
  // the simulation deterministic.
  uint32_t process_checkpoint_every = 0;

  // Asynchronous checkpointing: run state-record capture and process
  // checkpoints on a dedicated background session per process instead of
  // inline on the calling chain. Foreground calls only mark their context
  // dirty; every `async_checkpoint_interval` completed incoming calls the
  // background session sweeps the dirty contexts. It saves one only once
  // the save pays for itself at recovery: its calls since the last save,
  // at the cost model's recovery_replay_call_ms each, must cost at least
  // recovery_restore_state_ms, what restoring a state record adds to a
  // context's creation (~462 calls under the §5.4 model). Below that the
  // context keeps its count and recovers by replay from its older origin;
  // a due context that is busy is deferred and re-armed. The sweep then
  // takes a process checkpoint, forces the bracket on its own chain and
  // publishes — but only when the log (summed over shards) has grown by at
  // least the previous bracket's size since that bracket's end, and always
  // on the first sweep after a (re)start. A sweep without a bracket leaves
  // its state records for a later send-time force. Nothing is lost by
  // skipping: recovery's pass 1 scans from the published bracket and
  // rebuilds every table row written after it from the state, creation and
  // reply records it reads, so bracket bytes stay at most about half the
  // log. §4.3's publish ordering is unchanged. Off by default so the
  // inline cadence above stays the pinned reference behavior.
  bool async_checkpoint = false;
  uint32_t async_checkpoint_interval = 64;

  // Total backoff budget one call may spend across all its retries, in sim
  // milliseconds (0 = unbounded). Retries follow core/retry.h's
  // capped-exponential schedule (10 ms doubling to 80 ms, 10% seeded
  // jitter); without a budget its 64 retries would burn >4 s of sim time
  // per permanently-dead server.
  double call_retry_budget_ms = 250.0;

  // Whether ExternalClient retries unavailable calls too. Externals are
  // outside the guarantees; retrying lets the window-of-vulnerability tests
  // observe duplicate executions.
  bool external_client_retries = true;

  // Garbage-collect the log head every time a process checkpoint is
  // published: records below every recovery origin and live reply LSN can
  // never be read again. An engineering necessity the paper's checkpoints
  // enable; off by default so logs stay fully inspectable.
  bool auto_truncate_log = false;

  // Group commit: when a session scheduler is active, durability waits
  // park their session and the commit pipeline coalesces all concurrent
  // waits on one log into a single disk force (wal/commit_pipeline.h).
  // Off by default — and without overlapping sessions the flag changes
  // nothing — so single-session runs keep the paper's exact force counts.
  bool group_commit = false;

  // Group-commit batching policy. By default (both 0) the scheduler
  // harvests a flush only when every session is stalled, maximizing batch
  // size at the price of commit latency. `group_commit_max_wait_ms` bounds
  // how long (sim time) the oldest parked waiter may sit before its
  // pipeline is flushed even though runnable sessions remain;
  // `group_commit_max_batch` flushes as soon as that many waiters have
  // accumulated on one pipeline. Either knob trades forces for latency —
  // bench/concurrent_sessions sweeps both.
  double group_commit_max_wait_ms = 0.0;
  uint32_t group_commit_max_batch = 0;

  // Sharded WAL: number of shard logs per process. 1 (default) is the
  // single-log layout with plain byte-offset LSNs — the paper's setup,
  // byte-identical to every pre-sharding benchmark. With N > 1 shards,
  // a seeded hash of the replay-plan chain key (the context id) routes
  // each context's records to one shard log with its own commit pipeline
  // and durable horizon, so independent chains stop contending on one
  // force queue; every frame carries a global sequence number and
  // recovery k-way merges the shards back into append order
  // (wal/shard_router.h, wal/merged_log_reader.h). Clamped to 64 (the
  // per-chain touched-shard bitmask width).
  uint32_t wal_shards = 1;

  // Parallel replay (pass 2 of recovery): partition the log into
  // per-context replay chains, then replay them as overlapping scheduler
  // sessions bounded by the dependency critical path instead of total log
  // length (recovery/replay_plan.h). Off by default: the sequential
  // replayer is the reference semantics and keeps every pinned benchmark
  // byte-identical. Recovery falls back to sequential replay on salvaged
  // (ambiguous) logs, when recovery is triggered from inside a running
  // session chain, or when the log holds fewer than two chains.
  bool parallel_replay = false;

  // How many overlapping replay sessions the parallel replayer uses.
  uint32_t parallel_replay_sessions = 8;

  // Allow failure-injection hooks to fire while a process is recovering.
  // Recovery is idempotent (it only reads the stable log), so crashes during
  // recovery simply restart it; off by default to keep schedules simple.
  bool inject_failures_during_recovery = false;

  // Recovery supervisor (RecoveryService::EnsureProcessAlive): each rung of
  // the degradation ladder — normal recovery, salvage-assessed recovery,
  // state-record cold start — gets this many attempts before escalating.
  // Backoff between failed attempts follows the call-retry schedule
  // (core/retry.h) with no time bound: the attempt count alone terminates
  // the loop. The fault-free path never sleeps, so this knob cannot perturb
  // benchmark numbers.
  int recovery_supervisor_attempts_per_rung = 5;
};

}  // namespace phoenix

#endif  // PHOENIX_CORE_OPTIONS_H_
