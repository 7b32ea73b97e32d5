// drt_fuzz — deterministic whole-stack scenario fuzzer driver.
//
// Modes:
//   drt_fuzz --seeds 500                  sweep seeds 1..500, stop on first
//                                         violation (writes a shrunk repro)
//   drt_fuzz --seed 1234                  run exactly one seed
//   drt_fuzz --replay repro.txt           re-run a saved repro file
//   drt_fuzz --verify-determinism         run every seed twice, compare the
//                                         action log and kernel trace
//   drt_fuzz --planted-bug                self-test: the planted accounting
//                                         bug must be caught AND shrunk
//   drt_fuzz --modes                      add the mode-change bands (overload
//                                         storms, forced QoS transitions)
//   drt_fuzz --planted-mode-bug           self-test: an admission-unchecked
//                                         mode transition must trip
//                                         invariant 10 AND shrink
//   drt_fuzz --monitor                    attach a ContractMonitor + the
//                                         adaptation escalation ladder to
//                                         every world (adds the monitor-check
//                                         band; invariant 11 in force)
//   drt_fuzz --caps                       add the typed-capability band
//                                         (providers/consumers of the fuzz
//                                         "ctl" protocol, call bursts on
//                                         revoked endpoints, cyclic-offer
//                                         deploys; invariant 12 in force)
//   drt_fuzz --planted-monitor-bug        self-test: a quarantine that skips
//                                         its disable must trip invariant 11
//                                         AND shrink
//   drt_fuzz --budget-seconds 1800        keep sweeping fresh seeds until the
//                                         wall-clock budget runs out
//
// Exit codes: 0 = clean (or planted bug correctly caught), 1 = violation
// found (repro written) or self-test failed, 2 = usage / IO error.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "testing/fuzzer.hpp"
#include "util/logging.hpp"

namespace {

using drt::testing::Repro;
using drt::testing::ScenarioConfig;
using drt::testing::ScenarioResult;

struct Options {
  std::uint64_t first_seed = 1;
  std::uint64_t seed_count = 100;
  bool single_seed = false;
  ScenarioConfig config;
  std::string replay_path;
  std::string out_dir = ".";
  bool verify_determinism = false;
  bool planted_bug = false;
  bool planted_mode_bug = false;
  bool planted_monitor_bug = false;
  long budget_seconds = 0;
  bool quiet = false;
};

void usage() {
  std::cerr
      << "usage: drt_fuzz [--seeds N] [--seed S] [--actions N] [--cpus N]\n"
      << "                [--nodes N] [--modes] [--monitor] [--caps]\n"
      << "                [--replay FILE] [--out DIR]\n"
      << "                [--verify-determinism] [--planted-bug]\n"
      << "                [--planted-mode-bug] [--planted-monitor-bug]\n"
      << "                [--budget-seconds S] [--quiet]\n";
}

bool parse_args(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](std::uint64_t& out) {
      if (i + 1 >= argc) return false;
      try {
        out = std::stoull(argv[++i]);
      } catch (...) {
        return false;
      }
      return true;
    };
    std::uint64_t value = 0;
    if (arg == "--seeds") {
      if (!next_value(value) || value == 0) return false;
      options.seed_count = value;
    } else if (arg == "--seed") {
      if (!next_value(value)) return false;
      options.first_seed = value;
      options.single_seed = true;
    } else if (arg == "--actions") {
      if (!next_value(value) || value == 0) return false;
      options.config.action_count = value;
    } else if (arg == "--cpus") {
      if (!next_value(value) || value == 0) return false;
      options.config.cpus = value;
    } else if (arg == "--nodes") {
      // > 1 fuzzes a federation: every node is one engine shard, so the
      // engine's shard cap bounds the count.
      if (!next_value(value) || value == 0 || value > drt::rtos::kMaxShards) {
        return false;
      }
      options.config.nodes = value;
    } else if (arg == "--replay") {
      if (i + 1 >= argc) return false;
      options.replay_path = argv[++i];
    } else if (arg == "--out") {
      if (i + 1 >= argc) return false;
      options.out_dir = argv[++i];
    } else if (arg == "--verify-determinism") {
      options.verify_determinism = true;
    } else if (arg == "--modes") {
      options.config.modes = true;
    } else if (arg == "--monitor") {
      options.config.monitor = true;
    } else if (arg == "--caps") {
      options.config.caps = true;
    } else if (arg == "--planted-bug") {
      options.planted_bug = true;
    } else if (arg == "--planted-mode-bug") {
      options.planted_mode_bug = true;
    } else if (arg == "--planted-monitor-bug") {
      options.planted_monitor_bug = true;
    } else if (arg == "--budget-seconds") {
      if (!next_value(value)) return false;
      options.budget_seconds = static_cast<long>(value);
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else {
      return false;
    }
  }
  return true;
}

void print_violation(const ScenarioResult& result) {
  std::cerr << "VIOLATION seed=" << result.seed << " at action "
            << result.failing_index << ": " << result.violation.invariant
            << ": " << result.violation.detail << '\n';
  for (const std::string& line : result.action_log) {
    std::cerr << "  " << line << '\n';
  }
}

/// Shrinks, writes the repro file, and prints where it went.
std::string emit_repro(const Options& options, std::uint64_t seed,
                       const ScenarioResult& failing) {
  const auto keep =
      drt::testing::shrink(seed, options.config, failing.failing_index);
  const ScenarioResult shrunk =
      drt::testing::run_scenario_subset(seed, options.config, keep);
  Repro repro{seed, options.config, keep};
  const std::string path =
      options.out_dir + "/fuzz-repro-" + std::to_string(seed) + ".txt";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write repro to " << path << '\n';
    return {};
  }
  out << drt::testing::write_repro(repro, shrunk);
  std::cerr << "shrunk to " << keep.size() << " of "
            << failing.failing_index + 1 << " actions; repro written to "
            << path << '\n';
  return path;
}

int run_replay(const Options& options) {
  std::ifstream in(options.replay_path);
  if (!in) {
    std::cerr << "cannot read " << options.replay_path << '\n';
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto repro = drt::testing::parse_repro(text.str());
  if (!repro.ok()) {
    std::cerr << repro.error().message << '\n';
    return 2;
  }
  const ScenarioResult result = drt::testing::replay(repro.value());
  if (result.violated) {
    print_violation(result);
    return 1;
  }
  std::cout << "replay of seed " << repro.value().seed << " ("
            << repro.value().keep.size() << " actions) found no violation\n";
  return 0;
}

int run_planted_bug(const Options& options) {
  ScenarioConfig config = options.config;
  config.plant_bug = true;
  const std::uint64_t seed = options.first_seed;
  const ScenarioResult result = drt::testing::run_scenario(seed, config);
  if (!result.violated) {
    std::cerr << "self-test FAILED: the planted accounting bug was not "
                 "caught by the oracle\n";
    return 1;
  }
  if (result.violation.invariant != "mailbox-conservation") {
    std::cerr << "self-test FAILED: planted bug surfaced as '"
              << result.violation.invariant << "', expected "
              << "'mailbox-conservation'\n";
    return 1;
  }
  const auto keep = drt::testing::shrink(seed, config, result.failing_index);
  const ScenarioResult shrunk =
      drt::testing::run_scenario_subset(seed, config, keep);
  if (!shrunk.violated) {
    std::cerr << "self-test FAILED: shrunk sequence no longer violates\n";
    return 1;
  }
  std::cout << "planted bug caught (" << result.violation.invariant
            << ") and shrunk to " << keep.size() << " actions\n";
  return 0;
}

int run_planted_mode_bug(const Options& options) {
  ScenarioConfig config = options.config;
  config.modes = true;
  config.plant_mode_bug = true;
  const std::uint64_t seed = options.first_seed;
  const ScenarioResult result = drt::testing::run_scenario(seed, config);
  if (!result.violated) {
    std::cerr << "self-test FAILED: the admission-unchecked mode transition "
                 "was not caught by the oracle\n";
    return 1;
  }
  if (result.violation.invariant != "mode-change-safety") {
    std::cerr << "self-test FAILED: unsafe transition surfaced as '"
              << result.violation.invariant << "', expected "
              << "'mode-change-safety'\n";
    return 1;
  }
  const auto keep = drt::testing::shrink(seed, config, result.failing_index);
  const ScenarioResult shrunk =
      drt::testing::run_scenario_subset(seed, config, keep);
  if (!shrunk.violated) {
    std::cerr << "self-test FAILED: shrunk sequence no longer violates\n";
    return 1;
  }
  std::cout << "planted unsafe transition caught ("
            << result.violation.invariant << ") and shrunk to " << keep.size()
            << " actions\n";
  return 0;
}

int run_planted_monitor_bug(const Options& options) {
  ScenarioConfig config = options.config;
  config.monitor = true;
  config.plant_monitor_bug = true;
  const std::uint64_t seed = options.first_seed;
  const ScenarioResult result = drt::testing::run_scenario(seed, config);
  if (!result.violated) {
    std::cerr << "self-test FAILED: the quarantine that skipped its disable "
                 "was not caught by the oracle\n";
    return 1;
  }
  if (result.violation.invariant != "contract-consistency") {
    std::cerr << "self-test FAILED: broken quarantine surfaced as '"
              << result.violation.invariant << "', expected "
              << "'contract-consistency'\n";
    return 1;
  }
  const auto keep = drt::testing::shrink(seed, config, result.failing_index);
  const ScenarioResult shrunk =
      drt::testing::run_scenario_subset(seed, config, keep);
  if (!shrunk.violated) {
    std::cerr << "self-test FAILED: shrunk sequence no longer violates\n";
    return 1;
  }
  std::cout << "planted broken quarantine caught ("
            << result.violation.invariant << ") and shrunk to " << keep.size()
            << " actions\n";
  return 0;
}

int run_sweep(const Options& options) {
  const auto started = std::chrono::steady_clock::now();
  auto out_of_budget = [&] {
    if (options.budget_seconds <= 0) return false;
    const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
                             std::chrono::steady_clock::now() - started)
                             .count();
    return elapsed >= options.budget_seconds;
  };

  std::uint64_t seed = options.first_seed;
  std::uint64_t done = 0;
  for (;;) {
    if (options.budget_seconds > 0) {
      if (out_of_budget()) break;
    } else if (done >= (options.single_seed ? 1 : options.seed_count)) {
      break;
    }
    const ScenarioResult result =
        drt::testing::run_scenario(seed, options.config);
    if (result.violated) {
      print_violation(result);
      emit_repro(options, seed, result);
      return 1;
    }
    if (options.verify_determinism) {
      const ScenarioResult again =
          drt::testing::run_scenario(seed, options.config);
      if (again.action_log != result.action_log ||
          again.trace_text != result.trace_text) {
        std::cerr << "DETERMINISM FAILURE seed=" << seed
                  << ": two runs of the same seed diverged\n";
        return 1;
      }
    }
    ++seed;
    ++done;
    if (!options.quiet && done % 100 == 0) {
      std::cout << done << " seeds clean\n";
    }
  }
  std::cout << done << " seeds, 0 violations ("
            << options.config.action_count << " actions each"
            << (options.verify_determinism ? ", determinism verified" : "")
            << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    usage();
    return 2;
  }
  // Component churn logs one info line per activation; at fuzzing volume
  // that is pure noise.
  drt::log::set_level(drt::log::Level::kError);

  if (!options.replay_path.empty()) return run_replay(options);
  if (options.planted_bug) return run_planted_bug(options);
  if (options.planted_mode_bug) return run_planted_mode_bug(options);
  if (options.planted_monitor_bug) return run_planted_monitor_bug(options);
  return run_sweep(options);
}
