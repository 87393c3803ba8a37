#include "sim/failure_injector.h"

#include <algorithm>

namespace phoenix {

const char* FailurePointName(FailurePoint point) {
  switch (point) {
    case FailurePoint::kBeforeIncomingLogged:
      return "before_incoming_logged";
    case FailurePoint::kAfterIncomingLogged:
      return "after_incoming_logged";
    case FailurePoint::kBeforeOutgoingSend:
      return "before_outgoing_send";
    case FailurePoint::kAfterOutgoingReply:
      return "after_outgoing_reply";
    case FailurePoint::kBeforeReplySend:
      return "before_reply_send";
    case FailurePoint::kAfterReplySend:
      return "after_reply_send";
    case FailurePoint::kDuringStateSave:
      return "during_state_save";
    case FailurePoint::kDuringCheckpoint:
      return "during_checkpoint";
    case FailurePoint::kDuringGroupFlush:
      return "during_group_flush";
    case FailurePoint::kDuringRecoveryAnalysis:
      return "during_recovery_analysis";
    case FailurePoint::kDuringRecoveryRestore:
      return "during_recovery_restore";
    case FailurePoint::kBetweenReplayUnits:
      return "between_replay_units";
    case FailurePoint::kDuringEndOfLogFlush:
      return "during_endlog_flush";
    case FailurePoint::kBetweenMaterializations:
      return "between_materializations";
  }
  return "unknown";
}

const char* RecoveryAttackName(RecoveryAttack kind) {
  switch (kind) {
    case RecoveryAttack::kCorruptWellKnownFile:
      return "corrupt_wkf";
    case RecoveryAttack::kCorruptNewestStateRecord:
      return "corrupt_state_record";
    case RecoveryAttack::kTearStableTail:
      return "tear_stable_tail";
  }
  return "unknown";
}

void FailureInjector::AddTrigger(const std::string& machine,
                                 uint32_t process_id, FailurePoint point,
                                 uint64_t fire_on_hit) {
  Key key(machine, process_id, static_cast<int>(point));
  // Relative to the hits already consumed at registration time.
  triggers_[key].push_back(hit_counts_[key] + fire_on_hit);
}

void FailureInjector::EnableRandomCrashes(double p, uint64_t seed) {
  random_p_ = p;
  rng_ = Random(seed);
}

void FailureInjector::EnableTornTails(double p, uint64_t seed,
                                      uint32_t max_tear_bytes) {
  torn_p_ = p;
  max_tear_bytes_ = max_tear_bytes;
  tear_rng_ = Random(seed);
}

uint64_t FailureInjector::MaybeTearBytes() {
  if (torn_p_ <= 0.0) return 0;
  if (!tear_rng_.Bernoulli(torn_p_)) return 0;
  uint64_t bytes = 1 + tear_rng_.Uniform(max_tear_bytes_);
  ++torn_tails_fired_;
  return bytes;
}

void FailureInjector::AddRecoveryAttack(const std::string& machine,
                                        uint32_t process_id,
                                        uint64_t before_attempt,
                                        RecoveryAttack kind) {
  recovery_attacks_[{machine, process_id}].push_back({before_attempt, kind});
}

std::vector<RecoveryAttack> FailureInjector::TakeRecoveryAttacks(
    const std::string& machine, uint32_t process_id, uint64_t attempt) {
  std::vector<RecoveryAttack> taken;
  auto it = recovery_attacks_.find({machine, process_id});
  if (it == recovery_attacks_.end()) return taken;
  auto& pending = it->second;
  for (auto scheduled = pending.begin(); scheduled != pending.end();) {
    if (scheduled->first == attempt) {
      taken.push_back(scheduled->second);
      scheduled = pending.erase(scheduled);
      ++recovery_attacks_fired_;
    } else {
      ++scheduled;
    }
  }
  return taken;
}

bool FailureInjector::ShouldCrash(const std::string& machine,
                                  uint32_t process_id, FailurePoint point) {
  Key key(machine, process_id, static_cast<int>(point));
  uint64_t hits = ++hit_counts_[key];

  auto it = triggers_.find(key);
  if (it != triggers_.end()) {
    auto& pending = it->second;
    auto match = std::find(pending.begin(), pending.end(), hits);
    if (match != pending.end()) {
      pending.erase(match);
      ++crashes_fired_;
      ++fired_at_[static_cast<int>(point)];
      return true;
    }
  }
  if (random_p_ > 0.0 && rng_.Bernoulli(random_p_)) {
    ++crashes_fired_;
    ++fired_at_[static_cast<int>(point)];
    return true;
  }
  return false;
}

uint64_t FailureInjector::HitCount(const std::string& machine,
                                   uint32_t process_id,
                                   FailurePoint point) const {
  auto it = hit_counts_.find(Key(machine, process_id, static_cast<int>(point)));
  return it == hit_counts_.end() ? 0 : it->second;
}

void FailureInjector::Clear() {
  hit_counts_.clear();
  triggers_.clear();
  random_p_ = 0.0;
  crashes_fired_ = 0;
  fired_at_ = {};
  torn_p_ = 0.0;
  max_tear_bytes_ = 48;
  torn_tails_fired_ = 0;
  recovery_attacks_.clear();
  recovery_attacks_fired_ = 0;
}

}  // namespace phoenix
