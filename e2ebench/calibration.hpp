// Host-speed calibration.
//
// Shared hosts change speed under the benchmark without taking the CPU
// away: on a 4-vCPU virtual machine the same round took from 0.7x to 1.5x
// its typical time, in phases lasting from one round to a minute, with
// almost no steal time reported to the guest. So every round interleaves
// short slices of a fixed calibration workload with its own work (outside
// every timed interval), and its host times are scaled by
// kCalibrationNominalNs / (median slice time of the round): they read as
// the times on a host that runs a slice in its nominal time.
//
// The slice is a miniature discrete-event engine (calibration.cpp): a heap
// of periodic task releases, virtual and std::function dispatch, and one
// random read-modify-write per job into a 4 MiB table. Among the kernels
// tried on that machine (string parsing into small maps, a large
// string-keyed map, pointer chasing through 32 MiB, random writes to 1 and
// 4 MiB, this engine with 8192 and 32768 tasks), it tracked the rounds'
// engine throughput and operation latencies best (correlation 0.9 to 0.95
// over a few hundred rounds). Its state is allocated once and never freed
// or resized, so its speed does not depend on the program's heap. The
// workload lives in this directory, so it is identical on every commit
// that shares the benchmark and cancels out of a parent/change comparison.
#pragma once

namespace e2e {

/// Nominal CPU time of one calibration slice.
inline constexpr double kCalibrationNominalNs = 700e3;

/// Runs one slice of the fixed calibration workload; returns its CPU time
/// in ns.
double calibration_slice_ns();

}  // namespace e2e
