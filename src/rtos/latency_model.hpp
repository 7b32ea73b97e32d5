// Timer / wake-up latency model for the dual-kernel simulator.
//
// The paper's Table 1 measures, at 1 kHz, the difference between a periodic
// task's ideal release time and the moment its code actually runs. On RTAI
// with the hardware timer in periodic mode (§4.4) that difference has three
// physical components this model reproduces:
//
//  1. *Periodic-timer calibration error*: the nominal period is programmed as
//     an integer number of timer ticks, so every release fires a fixed
//     ~20 µs EARLY on the paper's hardware — this is why Table 1's averages
//     are negative, and why the stress-mode average sits around -21 µs.
//  2. *Idle wake-up cost*: when the CPU was idle (C-states, cold caches) the
//     interrupt-to-task path costs ~20 µs extra with several µs of spread.
//     In LIGHT load the CPU is almost always idle at the 1 kHz release, so
//     this roughly cancels the early offset (small negative average, large
//     AVEDEV). In STRESS load the CPU is hot, the wake path costs only a few
//     hundred ns, and the early offset shows through (large negative
//     average, small AVEDEV) — exactly Table 1's counter-intuitive shape.
//  3. *Rare spikes* (SMIs, cache calamities) giving the distribution a tail.
//
// Scheduling interference from other RT tasks is NOT modelled here — it
// emerges from the discrete-event scheduler itself.
#pragma once

#include "util/rng.hpp"
#include "util/types.hpp"

namespace drt::rtos {

struct LatencyModelConfig {
  /// Constant early-fire offset of the periodic-mode timer (ns; negative).
  double timer_calibration_ns = -21'500.0;
  /// Gaussian oscillator/readout noise (ns, stddev).
  double timer_jitter_ns = 260.0;
  /// Interrupt-to-dispatch cost when the CPU was idle at the release.
  double idle_wake_mean_ns = 20'300.0;
  double idle_wake_stddev_ns = 4'600.0;
  /// Same cost when the CPU was already executing (hot path).
  double hot_wake_mean_ns = 280.0;
  double hot_wake_stddev_ns = 120.0;
  /// Probability and magnitude of an SMI-like spike (adds wake cost).
  double spike_probability = 0.0015;
  double spike_mean_extra_ns = 2'600.0;
  /// Rare extra-early timer fire (periodic-mode reload slip): produces the
  /// deep negative MIN tail Table 1 shows in both load modes.
  double early_spike_probability = 0.002;
  double early_spike_mean_ns = 1'000.0;
  /// Probability that an "idle" CPU was in a shallow sleep state and wakes
  /// almost for free (produces the deep negative tail of Table 1's MIN).
  double shallow_idle_probability = 0.04;
  /// Minimum one-way latency between CPU groups / nodes (ns). The engine's
  /// cross-shard lookahead is derived from it (engine_core.hpp), so it must
  /// be a hard lower bound on every cross-group message, never an average.
  double cross_group_min_latency_ns = 250'000.0;
  /// Additional uniform jitter on top of the cross-group minimum (ns).
  double cross_group_jitter_ns = 50'000.0;
};

class LatencyModel {
 public:
  explicit LatencyModel(LatencyModelConfig config = {}) : config_(config) {}

  /// Signed error (ns) of the timer interrupt itself relative to the ideal
  /// release time (calibration offset + oscillator jitter; typically
  /// negative — the interrupt fires early).
  [[nodiscard]] SimDuration sample_timer_error(Rng& rng) const;

  /// Non-negative cost (ns) from the timer interrupt to the task being
  /// runnable. `cpu_idle` reflects the physical CPU state when the interrupt
  /// arrives.
  [[nodiscard]] SimDuration sample_wake_cost(bool cpu_idle, Rng& rng) const;

  /// Convenience: full signed release error (timer + wake) in one draw.
  [[nodiscard]] SimDuration sample_release_error(bool cpu_idle, Rng& rng) const;

  /// Hard lower bound on cross-group (inter-shard) message latency — the
  /// engine's cross-shard lookahead. Never below 1 ns.
  [[nodiscard]] SimDuration min_cross_group_latency() const;

  /// One-way cross-group latency draw: the guaranteed minimum plus uniform
  /// jitter. Always >= min_cross_group_latency().
  [[nodiscard]] SimDuration sample_cross_group_latency(Rng& rng) const;

  [[nodiscard]] const LatencyModelConfig& config() const { return config_; }
  void set_config(const LatencyModelConfig& config) { config_ = config; }

 private:
  LatencyModelConfig config_;
};

}  // namespace drt::rtos
