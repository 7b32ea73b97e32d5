// Federation placement latency and inter-node channel throughput.
//
// Placement: the coordinator's warm decision must be O(1) in federation size
// — `select_node` peeks a per-CPU best-fit index maintained from cached
// ContractCache summaries (generation-checked, never rescanned). This bench
// measures, per decision, at 16/64/256 nodes (sequential backend: 256 nodes
// = 256 shards, past the parallel backend's sweet spot):
//   warm    select_node on fresh summaries          (the steady-state path)
//   cold    invalidate + publish_all + select_node  (coordinator restart;
//           summaries re-adopted from the O(cpus) cached sums)
//   rescan  invalidate + publish_all_rescan + select_node (baseline: rebuild
//           every summary by scanning every active descriptor)
//
// Throughput: messages/sec through the NodeChannel layer (pooled zero-copy
// cross-shard path + exact two-sided counters) on a ring of N nodes.
//
// Flags:
//   --json <path>   machine-readable report (bench_common.hpp format)
//   --check         gates: warm@256 must stay within +20% of warm@16 (flat
//                   in federation size) AND rescan@256 must cost >= 10x
//                   warm@256 per decision.
//   --trials N      trials per row (default 3).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "drcom/monitor.hpp"
#include "fed/coordinator.hpp"
#include "fed/federation.hpp"

namespace drt::bench {
namespace {

using fed::Federation;
using fed::FederationConfig;
using fed::FederationCoordinator;
using fed::NodeIndex;

constexpr std::size_t kComponentsPerNode = 12;

class NullComponent : public drcom::RtComponent {
 public:
  rtos::TaskCoro run(drcom::JobContext& job) override {
    while (job.active()) co_await job.next_cycle();
  }
};

FederationConfig federation_config(std::size_t nodes,
                                   std::size_t inbox_capacity) {
  FederationConfig config;
  config.nodes = nodes;
  config.kernel.cpus = 2;
  config.kernel.seed = 42;
  config.inbox_capacity = inbox_capacity;
  return config;
}

drcom::ComponentDescriptor small_component(const std::string& name,
                                           CpuId cpu) {
  drcom::ComponentDescriptor d;
  d.name = name;
  d.bincode = "fed.N";
  d.type = rtos::TaskType::kPeriodic;
  d.cpu_usage = 0.05;
  d.periodic = drcom::PeriodicSpec{100.0, cpu, 5};
  return d;
}

/// N nodes, each carrying kComponentsPerNode admitted contracts — the
/// population the rescan baseline has to walk and the cached summaries
/// collapse to O(cpus).
std::unique_ptr<Federation> populated_federation(std::size_t nodes) {
  auto federation =
      std::make_unique<Federation>(federation_config(nodes, 0));
  for (NodeIndex i = 0; i < federation->size(); ++i) {
    drcom::Drcr& drcr = *federation->node(i).drcr;
    drcr.factories().register_factory(
        "fed.N", [] { return std::make_unique<NullComponent>(); });
    for (std::size_t c = 0; c < kComponentsPerNode; ++c) {
      (void)drcr.register_component(small_component(
          "n" + std::to_string(i) + "c" + std::to_string(c),
          static_cast<CpuId>(c % 2)));
    }
  }
  return federation;
}

double elapsed_seconds(std::chrono::steady_clock::time_point started) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started)
      .count();
}

/// ns per warm decision: summaries fresh, select_node only.
double warm_ns(FederationCoordinator& coordinator, std::size_t iterations) {
  coordinator.publish_all();
  std::size_t sink = 0;
  const auto started = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iterations; ++i) {
    sink += coordinator.select_node(static_cast<CpuId>(i & 1)).value_or(0);
  }
  const double seconds = elapsed_seconds(started);
  // Keep the loop observable (and honest) without printing garbage.
  if (sink == static_cast<std::size_t>(-1)) std::printf("impossible\n");
  return seconds * 1e9 / static_cast<double>(iterations);
}

/// ns per cold decision: every summary dropped, re-adopted from the cached
/// O(cpus) sums, then one decision.
double cold_ns(FederationCoordinator& coordinator, std::size_t iterations) {
  std::size_t sink = 0;
  const auto started = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iterations; ++i) {
    coordinator.invalidate();
    coordinator.publish_all();
    sink += coordinator.select_node(static_cast<CpuId>(i & 1)).value_or(0);
  }
  const double seconds = elapsed_seconds(started);
  if (sink == static_cast<std::size_t>(-1)) std::printf("impossible\n");
  return seconds * 1e9 / static_cast<double>(iterations);
}

/// ns per rescan decision: the baseline that rebuilds every summary by
/// scanning every active descriptor instead of reading the cached sums.
double rescan_ns(FederationCoordinator& coordinator, std::size_t iterations) {
  std::size_t sink = 0;
  const auto started = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iterations; ++i) {
    coordinator.invalidate();
    coordinator.publish_all_rescan();
    sink += coordinator.select_node(static_cast<CpuId>(i & 1)).value_or(0);
  }
  const double seconds = elapsed_seconds(started);
  if (sink == static_cast<std::size_t>(-1)) std::printf("impossible\n");
  return seconds * 1e9 / static_cast<double>(iterations);
}

/// Messages/sec on a ring of channels: every node bursts into its successor's
/// "fed.inbox", the engine delivers, inboxes are drained between rounds.
double channel_messages_per_second(std::size_t nodes) {
  Federation federation(federation_config(nodes, /*inbox_capacity=*/64));
  std::vector<rtos::NodeChannel*> ring(nodes);
  for (NodeIndex i = 0; i < nodes; ++i) {
    ring[i] = &federation.channel(i, (i + 1) % nodes, "fed.inbox");
  }
  constexpr int kRounds = 20;
  constexpr int kBurst = 8;
  std::uint64_t payload = 0;
  std::uint64_t sent = 0;
  const auto started = std::chrono::steady_clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (NodeIndex i = 0; i < nodes; ++i) {
      for (int b = 0; b < kBurst; ++b) {
        ++payload;
        if (ring[i]->send(rtos::Message(&payload, sizeof(payload)))) ++sent;
      }
    }
    federation.advance(milliseconds(2));
    for (NodeIndex i = 0; i < nodes; ++i) {
      rtos::RtKernel& kernel = *federation.node(i).kernel;
      if (rtos::Mailbox* inbox = kernel.mailbox_find("fed.inbox")) {
        while (kernel.mailbox_try_receive(*inbox)) {
        }
      }
    }
  }
  const double seconds = elapsed_seconds(started);
  return seconds > 0.0 ? static_cast<double>(sent) / seconds : 0.0;
}

struct Options {
  std::size_t trials = 3;
  bool check = false;
};

}  // namespace
}  // namespace drt::bench

int main(int argc, char** argv) {
  using namespace drt;
  using namespace drt::bench;

  parse_bench_args(argc, argv);
  Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      options.check = true;
    } else if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
      options.trials = static_cast<std::size_t>(std::atol(argv[++i]));
    }
  }

  const std::size_t node_counts[] = {16, 64, 256};
  std::printf("federation placement latency (%zu components/node, %zu trials, "
              "sequential backend)\n",
              kComponentsPerNode, options.trials);

  double warm_16 = 0.0;
  double warm_256 = 0.0;
  double rescan_256 = 0.0;

  print_table_header("placement decision ns",
                     "warm = select_node on fresh summaries; cold = re-adopt "
                     "cached sums; rescan = walk every descriptor");
  for (const std::size_t nodes : node_counts) {
    auto federation = populated_federation(nodes);
    FederationCoordinator coordinator(*federation);
    std::vector<double> warm_samples;
    std::vector<double> cold_samples;
    std::vector<double> rescan_samples;
    for (std::size_t trial = 0; trial < options.trials; ++trial) {
      warm_samples.push_back(warm_ns(coordinator, 200'000));
      cold_samples.push_back(cold_ns(coordinator, 50));
      rescan_samples.push_back(rescan_ns(coordinator, 50));
      coordinator.publish_all();  // leave the world warm for the next trial
    }
    const StatSummary warm = summarize(warm_samples);
    const StatSummary cold = summarize(cold_samples);
    const StatSummary rescan = summarize(rescan_samples);
    print_table_row("warm@" + std::to_string(nodes), warm);
    print_table_row("cold@" + std::to_string(nodes), cold);
    print_table_row("rescan@" + std::to_string(nodes), rescan);
    if (nodes == 16) warm_16 = warm.average;
    if (nodes == 256) {
      warm_256 = warm.average;
      rescan_256 = rescan.average;
    }
  }

  // Observed-rank placement: the same decision machinery ranking nodes by
  // empirical headroom (declared sums + each node's monitor-observed excess,
  // docs/MONITORING.md) instead of declared sums alone. The warm decision
  // stays an O(1) index peek either way; the publish path pays the per-node
  // monitor query, which is what the on/off rows expose.
  {
    auto federation = populated_federation(64);
    std::vector<std::unique_ptr<drcom::ContractMonitor>> monitors;
    for (NodeIndex i = 0; i < federation->size(); ++i) {
      monitors.push_back(
          std::make_unique<drcom::ContractMonitor>(*federation->node(i).drcr));
      monitors.back()->start();
    }
    federation->advance(milliseconds(50));
    FederationCoordinator coordinator(*federation);
    std::vector<double> declared_samples;
    std::vector<double> observed_samples;
    std::vector<double> observed_cold_samples;
    for (std::size_t trial = 0; trial < options.trials; ++trial) {
      coordinator.set_observed_rank(false);
      declared_samples.push_back(warm_ns(coordinator, 200'000));
      coordinator.set_observed_rank(true);
      observed_samples.push_back(warm_ns(coordinator, 200'000));
      observed_cold_samples.push_back(cold_ns(coordinator, 50));
    }
    print_table_header("observed-rank placement ns @64 nodes",
                       "warm select_node and cold republish with the "
                       "empirical-headroom ranking off/on");
    print_table_row("warm-declared@64", summarize(declared_samples));
    print_table_row("warm-observed@64", summarize(observed_samples));
    print_table_row("cold-observed@64", summarize(observed_cold_samples));
  }

  print_table_header("channel throughput msg/s",
                     "ring of NodeChannels, 8-message bursts, 2 ms rounds");
  for (const std::size_t nodes : node_counts) {
    std::vector<double> samples;
    for (std::size_t trial = 0; trial < options.trials; ++trial) {
      samples.push_back(channel_messages_per_second(nodes));
    }
    print_table_row("ring@" + std::to_string(nodes), summarize(samples));
  }

  print_table_header("gate inputs", "ratios the --check gate evaluates");
  {
    std::vector<double> flatness = {warm_16 > 0.0 ? warm_256 / warm_16 : 0.0};
    print_table_row("warm@256 / warm@16", summarize(flatness));
    std::vector<double> speedup = {warm_256 > 0.0 ? rescan_256 / warm_256
                                                  : 0.0};
    print_table_row("rescan@256 / warm@256", summarize(speedup));
  }

  if (options.check) {
    const double flatness = warm_16 > 0.0 ? warm_256 / warm_16 : 0.0;
    const double speedup = warm_256 > 0.0 ? rescan_256 / warm_256 : 0.0;
    bool failed = false;
    if (flatness > 1.2) {
      std::printf("\ncheck: FAILED (warm@256 is %.2fx warm@16; the O(1) "
                  "decision must stay within +20%% from 16 to 256 nodes)\n",
                  flatness);
      failed = true;
    }
    if (speedup < 10.0) {
      std::printf("\ncheck: FAILED (rescan@256 is only %.2fx warm@256, gate "
                  "is 10x)\n",
                  speedup);
      failed = true;
    }
    if (failed) return 1;
    std::printf("\ncheck: OK (warm@256 = %.2fx warm@16, rescan@256 = %.2fx "
                "warm@256)\n",
                flatness, speedup);
  }
  return 0;
}
