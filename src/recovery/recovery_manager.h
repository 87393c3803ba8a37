#ifndef PHOENIX_RECOVERY_RECOVERY_MANAGER_H_
#define PHOENIX_RECOVERY_RECOVERY_MANAGER_H_

#include <cstdint>
#include <map>

#include "common/result.h"
#include "recovery/on_demand_replay.h"
#include "recovery/replay_plan.h"
#include "runtime/last_call_table.h"
#include "runtime/remote_type_table.h"
#include "wal/log_record.h"

namespace phoenix {

class Process;

// Recovers a single failed context (§4.4's "easier" case): the process and
// its tables survive, only `context_id`'s component instances were lost
// (Context::ClearMembers). The state record LSN is read from the surviving
// context table entry, the state (or blank creation) is restored, and the
// context's records — including the still-buffered unforced tail, which a
// context failure does not lose — are replayed. A cold context lost
// nothing: it is simply materialized.
Status RecoverContextFailure(Process* process, uint64_t context_id);

// How aggressively a recovery attempt degrades, one value per rung of the
// recovery supervisor's ladder (recovery_service.h). Normal recovery trusts
// the published checkpoint pointer and replays everything; salvage-assessed
// recovery distrusts the well-known file and rebuilds from a full scan of
// the retained log; cold start reinstates the newest durable context states
// only and abandons message replay — lost work in exchange for a process
// that serves again.
enum class RecoveryMode : int {
  kNormal = 0,
  kSalvageAssessed = 1,
  kColdStart = 2,
};

const char* RecoveryModeName(RecoveryMode mode);

// Crash recovery of a process (§4.4) as an instant restart: analysis, one
// plan scan, then admission — contexts are rebuilt on demand afterwards
// (recovery/on_demand_replay.h).
//
// Every pass reads the log through LogManager::Cursor, which yields
// (lsn, order, record) in append order whatever the WAL layout: a single
// log is a one-shard stream whose order is the LSN itself, a sharded log a
// lazy k-way merge of its shards by global sequence number. Cross-context
// decisions (the scan cut, the below-origin filter, the drain order)
// compare orders; a context's own records share one shard, so comparisons
// among them may use LSNs.
//
// A damage assessment runs first: it validates the well-known-file pointer,
// amputates torn tails, and widens the scan to the whole log when an
// unreadable region lies above the cut (see AssessAndSalvageLog).
//
// Pass 1 scans from the published checkpoint (well-known-file LSN; the whole
// log when none) to the end, collecting every context that existed at the
// crash with its newest state-record/creation LSN, plus the checkpointed
// global tables. Each context's origin record is then checked (falling back
// to an older one when it is unreadable) and the context registered as a
// cold shell: in the context table and the component-name table, with the
// last-call references of its state record merged into the last-call table.
//
// The plan scan then reads once from the lowest origin, charging the
// per-record scan cost, and cuts the message records into per-context
// replay chains of log positions with cross-chain dependencies
// (recovery/replay_plan.h, BuildReplayIndex). The activator's chain replays
// at once; every other context's chain replays when the context
// materializes. A chain's final unit may run into live execution when a
// logged reply is missing — its outgoing calls then really go out, with the
// same deterministic IDs, and the servers eliminate duplicates. Replies of
// replayed calls go to the recovery manager, never to clients (condition
// 5).
//
// Recover() returns once calls can be admitted. Its sim time, by phase, is
// phoenix.recovery.phase_ms (init, analysis, plan_scan, replay) and in sum
// phoenix.recovery.duration_ms.
class RecoveryManager {
 public:
  explicit RecoveryManager(Process* process,
                           RecoveryMode mode = RecoveryMode::kNormal);

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  Status Recover();

  // Admission's own work; the replay work of materializations is counted
  // by the process's OnDemandReplayer (Process::replayer()->stats()).
  struct Stats {
    uint64_t records_scanned = 0;
    uint64_t contexts_found = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  // Per-context facts gathered in pass 1.
  struct ContextInfo {
    uint64_t recovery_lsn = kInvalidLsn;
    // Order of the origin record (== recovery_lsn on a single log; for the
    // activator, the scan cut). Composite LSNs of different shards compare
    // by shard id, so every cross-context ordering decision (scan cuts,
    // below-origin filtering) uses this instead of recovery_lsn.
    uint64_t recovery_order = kInvalidLsn;
    bool restored_from_state = false;
  };

  // Damage assessment before the costed passes: validates the well-known
  // LSN (falling back to a full scan from the retained head when it is
  // corrupt or dangling), physically amputates torn tails shard by shard,
  // and falls back to a full scan when an unreadable mid-log region lies
  // above the scan cut (the next readable record after it has a greater
  // order), since it could hide checkpoint table records. Returns the scan
  // cut as a record order. Every degradation decision emits a
  // phoenix.recovery.salvage.* metric and a tracer instant.
  uint64_t AssessAndSalvageLog();

  Status PassOne(uint64_t start_order);
  // Order of the stable record at `lsn`; kInvalidLsn when `lsn` is invalid
  // or its record unreadable.
  uint64_t OrderOf(uint64_t lsn) const;
  // Registers every context but the activator as a cold shell of `lazy`.
  Status RegisterShells(OnDemandReplayer& lazy);
  // Checks one context's origin record and registers its shell;
  // kCorruption when the record is unreadable or of the wrong type.
  Status RegisterShell(OnDemandReplayer& lazy, uint64_t context_id,
                       ContextInfo& info);
  // Salvage: newest readable replay origin for `context_id` strictly below
  // `bad_lsn` — a state record if one survives, else the creation record;
  // kInvalidLsn when neither is readable.
  uint64_t FindFallbackOrigin(uint64_t context_id, uint64_t bad_lsn);
  void InstallTables();
  // The plan scan from the lowest origin: every context's replay chain.
  ReplayIndex PlanScan();
  // Cold-start chains (RecoveryMode::kColdStart): only the creation of
  // contexts with no saved state replays, so components initialize; every
  // logged message after the origins is abandoned.
  ReplayIndex ColdStartChains();

  Process* process_;
  RecoveryMode mode_;
  Stats stats_;
  std::map<uint64_t, ContextInfo> infos_;
  std::map<LastCallTable::Key, LastCallEntry> rebuilt_last_calls_;
  std::map<std::string, RemoteTypeInfo> rebuilt_remote_types_;
};

}  // namespace phoenix

#endif  // PHOENIX_RECOVERY_RECOVERY_MANAGER_H_
