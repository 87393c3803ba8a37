#ifndef PHOENIX_SIM_SIM_CLOCK_H_
#define PHOENIX_SIM_SIM_CLOCK_H_

namespace phoenix {

// Discrete simulated clock, in milliseconds. The entire Phoenix runtime is
// single-threaded and synchronous (the paper's components are single-threaded
// by design — piece-wise determinism is the premise of replay), so elapsed
// time is modelled by explicitly advancing this clock as work is performed:
// marshalling, network transfer, disk rotation, replay, etc.
//
// All performance results in the benchmark harness are read off this clock,
// which makes every experiment exactly reproducible.
class SimClock {
 public:
  SimClock() = default;

  SimClock(const SimClock&) = delete;
  SimClock& operator=(const SimClock&) = delete;

  // Current simulated time in milliseconds since simulation start.
  double NowMs() const { return now_ms_; }

  // Advances the clock by `ms` (>= 0).
  void AdvanceMs(double ms) {
    if (ms <= 0) return;
    now_ms_ += ms;
  }

 private:
  double now_ms_ = 0.0;
};

}  // namespace phoenix

#endif  // PHOENIX_SIM_SIM_CLOCK_H_
