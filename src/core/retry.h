#ifndef PHOENIX_CORE_RETRY_H_
#define PHOENIX_CORE_RETRY_H_

#include <algorithm>

#include "common/random.h"

namespace phoenix {

// How many times a caller re-sends a call that found the server dead before
// giving up (condition 4 says "until it gets some response"; the bound keeps
// broken test setups from spinning forever).
inline constexpr int kMaxCallRetries = 64;

// Capped-exponential backoff schedule, shared by one logical call's retry
// loop (condition 4, budget RuntimeOptions::call_retry_budget_ms) and the
// recovery supervisor's between-attempt backoff (no budget). Attempt k
// sleeps min(10 * 2^k, 80) ms plus a seeded uniform jitter of up to 10% of
// that base to de-synchronize concurrent retriers, and the sum of all sleeps
// is bounded by the budget (0 = no bound). The jitter stream is only
// consumed when a sleep actually happens, so fault-free runs never draw
// from it.
class RetryBackoff {
 public:
  explicit RetryBackoff(double budget_ms) : budget_ms_(budget_ms) {}

  // The sleep before the next retry, or a negative value when the backoff
  // budget is exhausted and the caller should give up.
  double NextDelayMs(Random& jitter_rng) {
    if (budget_ms_ > 0.0 && spent_ms_ >= budget_ms_) return -1.0;
    double base = next_ms_;
    next_ms_ = std::min(next_ms_ * kMultiplier, kMaxMs);
    double delay = base + base * kJitter * jitter_rng.NextDouble();
    if (budget_ms_ > 0.0) delay = std::min(delay, budget_ms_ - spent_ms_);
    spent_ms_ += delay;
    return delay;
  }

 private:
  static constexpr double kInitialMs = 10.0;
  static constexpr double kMultiplier = 2.0;
  static constexpr double kMaxMs = 80.0;
  static constexpr double kJitter = 0.1;

  double budget_ms_;
  double next_ms_ = kInitialMs;
  double spent_ms_ = 0.0;
};

}  // namespace phoenix

#endif  // PHOENIX_CORE_RETRY_H_
