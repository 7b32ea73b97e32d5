// One round of a workload against the public API of the whole stack:
// bundle install -> DRCR resolve -> virtual steady state with jobs, typed
// calls, monitoring and export -> closed-loop reconfiguration -> output
// checks. A round is a pure function of (workload, seed) in virtual time;
// host time is only measured around it, so every round of one seed yields
// the same vt_digest and the same counts, traced or not.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace e2e {

/// Deterministic per-round counts (virtual-time behaviour, read from the
/// stack's public counters).
struct Counts {
  std::uint64_t events = 0;       ///< SimEngine::run_until return values
  std::uint64_t jobs = 0;         ///< rtos.completions over all kernels
  std::uint64_t window_jobs = 0;  ///< jobs completed inside the timed window
  std::uint64_t dispatches = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t mailbox_sent = 0;
  std::uint64_t mailbox_dropped = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t cap_sent = 0;
  std::uint64_t cap_accepted = 0;
  std::uint64_t cap_rejected = 0;
  std::uint64_t cap_revoked = 0;
  std::uint64_t cap_binds = 0;
  std::uint64_t served = 0;
  std::uint64_t activations = 0;
  /// REJECTED events: admission attempts that did not activate.
  std::uint64_t rejections = 0;
  std::uint64_t expected_rejections = 0;
  std::uint64_t contract_violations = 0;
  std::uint64_t channel_msgs = 0;
  std::uint64_t place_calls = 0;
  std::uint64_t placements = 0;
  std::uint64_t exports = 0;
  std::uint64_t export_bytes = 0;
  std::uint64_t ops = 0;  ///< every operation made, set-up included

  bool operator==(const Counts&) const = default;
};

struct RoundResult {
  /// Median CPU time of the calibration slices run during this round.
  double calibration_ns = 0.0;
  double setup_s = 0.0;
  /// Set-up times of this round's set-up-only passes and of its full pass.
  std::vector<double> setup_samples;
  double window_s = 0.0;  ///< host seconds of the steady-state window
  std::vector<double> op_us;  ///< host latency of each reconfiguration op
  Counts counts;
  std::uint64_t failed = 0;
  std::vector<std::string> findings;  ///< one line per failure (capped)
  std::uint64_t vt_digest = 0;
  /// Per span name totals (traced rounds only).
  std::map<std::string, SpanTotals> spans;
  /// Events fired inside traced run_until spans.
  std::uint64_t traced_events = 0;
};

/// Inputs for every workload, generated once per process.
struct Inputs {
  Workload workload = Workload::kSteady256;
  SteadyInputs steady;
  ChurnInputs churn;
  FedInputs fed;
};

[[nodiscard]] Inputs make_inputs(Workload workload, std::uint64_t seed);
/// Fingerprint of the workload's generated inputs (workloads.hpp).
[[nodiscard]] std::uint64_t fingerprint(const Inputs& inputs);

/// Runs one round. `spans` non-null records the traced run; on return it
/// holds this round's spans.
[[nodiscard]] RoundResult run_round(const Inputs& inputs, std::uint64_t seed,
                                    SpanRecorder* spans);

}  // namespace e2e
