#ifndef PHOENIX_RECOVERY_ON_DEMAND_REPLAY_H_
#define PHOENIX_RECOVERY_ON_DEMAND_REPLAY_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "recovery/replay_plan.h"

namespace phoenix {

class Process;

// What made a cold context materialize: a call reached it (or a name
// lookup did), a unit of another context depends on one of its units, or
// a background checkpoint sweep drained it.
enum class MaterializeTrigger : int {
  kCall = 0,
  kDependency = 1,
  kDrain = 2,
};

const char* MaterializeTriggerName(MaterializeTrigger trigger);

// The phases of the recovery ledger (phoenix.recovery.phase_ms): init,
// analysis (salvage probe + pass 1) and the plan scan run once per restart,
// before admission; create, restore and replay run per context, mostly
// after admission as materializations.
enum class RecoveryPhase : int {
  kInit = 0,
  kAnalysis = 1,
  kPlanScan = 2,
  kCreate = 3,
  kRestore = 4,
  kReplay = 5,
};

inline constexpr int kNumRecoveryPhases = 6;

const char* RecoveryPhaseName(RecoveryPhase phase);

// Sim-ms per phase of one admission or one materialization.
struct PhaseTimes {
  std::array<double, kNumRecoveryPhases> ms{};

  double& operator[](RecoveryPhase phase) {
    return ms[static_cast<int>(phase)];
  }
  // Sum in phase order (init first), so the same times always add up to
  // the same double.
  double total() const;
};

// Instant restart (Sauer & Härder's on-demand, REDO-only restart; cf.
// Lomet et al.'s logical recovery): after a crash, RecoveryManager::Recover
// runs the analysis pass and one plan scan, registers every context except
// the activator as a *cold shell*, and admits calls. This object owns the
// shells of one recovered process incarnation and rebuilds each on demand.
//
// A shell sits in the process's context table (an empty Context marked
// cold, whose recovery_lsn() is the shell's origin, so checkpoint brackets
// and log GC keep working from it) and in the component-name table. Here
// it holds only log positions: its origin (a state or creation record) and
// its replay chain as an IndexedChain (unit starts, reply LSNs and the
// plan's cross-chain dependencies), plus a cursor. Records are re-read by
// LSN when a unit replays; nothing decoded is kept.
//
// A cold context materializes (create, plus restore when the origin is a
// state record, then replay of the chain's remaining units) when
//   - a call reaches it (Process::DeliverCall, or a name lookup);
//   - a unit of another chain depends on one of its units: the shell is
//     replayed through that unit only and stays cold until its remaining
//     units replay; a context that is materializing counts as done, so a
//     final unit that goes live can call a cold peer whose chain depends
//     on it;
//   - a background checkpoint sweep drains it (the cold context with the
//     lowest recovery order, i.e. the lowest GC pin, one per sweep).
// Dependencies on a chain's *final* unit are not followed: a final unit may
// go live, and its live call into a peer still short of the unit that
// logged that very call would execute the call again. A final unit replays
// only when its own context materializes. A context being materialized is
// busy: another session that reaches it waits for the materialization to
// finish. When a live call of this chain reaches it between two of its
// units (a unit it depends on went live), its remaining units replay
// first, so the call is answered from the last-call table.
//
// Materializations run with Process::recovering() set, so the recovery
// fault points (kDuringRecoveryRestore, kBetweenReplayUnits,
// kDuringEndOfLogFlush, kBetweenMaterializations) fire only under
// RuntimeOptions.inject_failures_during_recovery, and replayed calls do
// not count toward checkpoint cadences.
class OnDemandReplayer {
 public:
  struct Shell {
    uint64_t origin_lsn = kInvalidLsn;
    // Order of the origin record; the drain takes the lowest first.
    uint64_t origin_order = kInvalidLsn;
    IndexedChain chain;
    size_t cursor = 0;     // next unit to replay
    bool created = false;  // instance rebuilt from the origin
    bool busy = false;     // a materialization is running
    int busy_session = -1;
    bool in_unit = false;  // one of its units is executing right now
  };

  // `label` is the process's metric label ("machine/pid").
  OnDemandReplayer(Process* process, std::string label);

  OnDemandReplayer(const OnDemandReplayer&) = delete;
  OnDemandReplayer& operator=(const OnDemandReplayer&) = delete;

  // --- admission (RecoveryManager::Recover) ---

  // Registers `context_id` as cold; its Context must already exist.
  void AddShell(uint64_t context_id, Shell shell);
  // Hands each chain's units to its shell (chains of contexts without a
  // shell, the activator's included, are kept for ReplayAdmitted).
  void AttachChains(ReplayIndex index);
  // Replays the chain of an already-built context (the activator) at
  // admission, adding its time to admission's replay phase (minus any
  // materialization it triggers, which is that context's own step).
  Status ReplayAdmitted(uint64_t context_id, PhaseTimes& admission);
  // Publishes the admission ledger: phase_ms, duration_ms (their sum) and
  // the cold_contexts gauge.
  void Admit(PhaseTimes admission);

  // --- on demand ---

  // Rebuilds `context_id` if it is cold; OK when it is not (or when this
  // chain is already materializing it). Crashed when the process died.
  Status Materialize(uint64_t context_id, MaterializeTrigger trigger);
  // Materializes the cold context with the lowest recovery order.
  Status DrainOne();
  // Materializes every cold context, lowest recovery order first.
  Status DrainAll();

  bool IsCold(uint64_t context_id) const {
    return shells_.count(context_id) != 0;
  }
  size_t cold_count() const { return shells_.size(); }

  // Work done so far by this incarnation's replays (admission included).
  struct Stats {
    uint64_t calls_replayed = 0;
    uint64_t creations_replayed = 0;
    uint64_t contexts_restored_from_state = 0;
    uint64_t contexts_created = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  // One materialization step: replays `context_id`'s units before index
  // `end`, creating it from its origin first. `trigger` labels the step.
  Status Advance(uint64_t context_id, size_t end, MaterializeTrigger trigger);
  // Builds the shell's instance from its origin record, charging create
  // (and restore) into `t`.
  Status CreateFromOrigin(uint64_t context_id, Shell& shell, PhaseTimes& t);
  // Replays `shell`'s units [cursor, end), each after its dependencies.
  Status ReplayUnits(uint64_t context_id, Shell& shell, size_t end);
  Status ReplayOne(uint64_t context_id, const IndexedChain& chain,
                   size_t unit);
  // Brings the dependency source `dep` up to date (see class comment).
  Status SatisfyDependency(const UnitRef& dep);
  // Waits while another session materializes `context_id`; false when the
  // process died meanwhile.
  bool WaitUntilIdle(uint64_t context_id);
  // Publishes one materialization step's phases and materialize_ms.
  void RecordStep(MaterializeTrigger trigger, bool first_step, PhaseTimes& t);
  // Drops a fully replayed shell: it is an ordinary context from now on.
  void Retire(uint64_t context_id);

  Process* process_;
  std::string label_;
  std::map<uint64_t, Shell> shells_;
  // Chains of contexts that are not shells (the activator's), by context.
  std::map<uint64_t, Shell> admitted_chains_;
  // Owning context of each chain of the attached index, so a dependency's
  // UnitRef resolves to a shell.
  std::vector<uint64_t> chain_owner_;
  // Final-unit index of each chain, to skip dependencies on final units.
  std::vector<size_t> chain_length_;
  // Sum of every finished materialization step's own sim-ms: a step that
  // triggers another subtracts it, so each sim-ms lands in one step.
  double stepped_ms_ = 0.0;
  double admitted_at_ms_ = 0.0;
  Stats stats_;
};

}  // namespace phoenix

#endif  // PHOENIX_RECOVERY_ON_DEMAND_REPLAY_H_
