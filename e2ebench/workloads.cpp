#include "workloads.hpp"

#include <cstdio>
#include <iterator>
#include <set>
#include <utility>

#include "components.hpp"
#include "util/rng.hpp"

namespace e2e {
namespace {

using drt::Rng;

/// One descriptor's generated contract.
struct Contract {
  std::string name;
  double usage = 0.0;
  double frequency_hz = 0.0;      ///< periodic when > 0
  std::int64_t min_arrival = 0;   ///< sporadic when > 0 (ns)
  int cpu = 0;
  int priority = 10;
  bool edf = false;
  std::string trigger;  ///< sporadic trigger mailbox in-port
  std::string body;     ///< extra child elements (ports, modes, routes)
};

std::string fmt(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

std::string numbered(const char* prefix, std::size_t n, int digits) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%s%0*zu", prefix, digits, n);
  return buffer;
}

std::string component_xml(const Contract& c, const char* root) {
  std::string xml;
  xml += "<" + std::string(root) + " name=\"" + c.name + "\" type=\"";
  xml += c.min_arrival > 0 ? "sporadic" : "periodic";
  xml += "\" cpuusage=\"" + fmt("%.4f", c.usage) + "\">\n";
  xml += "  <implementation bincode=\"" + std::string(kWorkBincode) + "\"/>\n";
  if (c.min_arrival > 0) {
    xml += "  <sporadictask minarrival=\"" + std::to_string(c.min_arrival) +
           "\" runoncpu=\"" + std::to_string(c.cpu) + "\" priority=\"" +
           std::to_string(c.priority) + "\" trigger=\"" + c.trigger +
           "\"/>\n";
  } else {
    xml += "  <periodictask frequence=\"" + fmt("%g", c.frequency_hz) +
           "\" runoncpu=\"" + std::to_string(c.cpu) + "\" priority=\"" +
           std::to_string(c.priority) + "\"" +
           (c.edf ? " sched=\"edf\"" : "") + "/>\n";
  }
  xml += c.body;
  xml += "</" + std::string(root) + ">\n";
  return xml;
}

std::string document(const Contract& c) {
  return "<?xml version=\"1.0\"?>\n" + component_xml(c, "drt:component");
}

std::string mailbox_port(const char* direction, const std::string& name,
                         bool optional) {
  return "  <" + std::string(direction) + " name=\"" + name +
         "\" interface=\"RTAI.Mailbox\" type=\"Byte\" size=\"8\"" +
         (optional ? " optional=\"true\"" : "") + "/>\n";
}

std::string shm_port(const char* direction, const std::string& name) {
  return "  <" + std::string(direction) + " name=\"" + name +
         "\" interface=\"RTAI.SHM\" type=\"Integer\" size=\"4\"/>\n";
}

/// The typed protocol every provider exposes: one 64-byte request, with an
/// 8-byte reply when two-way (local routes) and none when one-way (remote
/// routes ride a NodeChannel, which carries no replies).
std::string expose_rpc(bool two_way) {
  std::string xml = "  <protocol name=\"rpc\">\n    <method name=\"req\" "
                    "ordinal=\"1\" request=\"" +
                    std::to_string(kRequestBytes) + "\"";
  if (two_way) xml += " response=\"" + std::to_string(kReplyBytes) + "\"";
  xml += "/>\n  </protocol>\n  <expose protocol=\"rpc\"/>\n";
  return xml;
}

std::string use_rpc(const std::string& provider) {
  return "  <use protocol=\"rpc\" from=\"" + provider + "\"/>\n";
}

/// Harmonic low rates (80/40/20/10 ms periods) with rate-monotonic
/// priorities: admitted sets under the 0.9 budget stay schedulable through
/// every mode change, so a deadline miss is a finding.
constexpr double kChurnRates[] = {12.5, 25.0, 50.0, 100.0};
constexpr int kChurnPriority[] = {23, 22, 21, 20};

/// Every churn component declares QoS modes: "low" shrinks the budget
/// (one in eight is dropped there), "high" grows it.
std::string churn_modes(double usage, bool optional_in_low) {
  std::string xml = "  <modes>\n";
  if (optional_in_low) {
    xml += "    <mode name=\"low\" present=\"false\"/>\n";
  } else {
    xml += "    <mode name=\"low\" cpuusage=\"" + fmt("%.5f", usage * 0.6) +
           "\"/>\n";
  }
  xml += "    <mode name=\"high\" cpuusage=\"" + fmt("%.5f", usage * 1.3) +
         "\"/>\n  </modes>\n";
  return xml;
}

Contract churn_contract(std::string name, std::size_t rate, double usage,
                        int cpu, bool optional_in_low) {
  Contract c;
  c.name = std::move(name);
  c.frequency_hz = kChurnRates[rate % 4];
  c.priority = kChurnPriority[rate % 4];
  c.cpu = cpu;
  c.usage = usage;
  c.body = churn_modes(c.usage, optional_in_low);
  return c;
}

/// The n-th contract of a stream of standalone churn components: rate,
/// budget and CPU cycle so that every seed registers the same mix.
Contract churn_contract(std::string name, std::size_t n) {
  return churn_contract(std::move(name), n,
                        static_cast<double>(10 + n % 11) / 10000.0,
                        static_cast<int>(n % 2), false);
}

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1],
              items[static_cast<std::size_t>(
                  rng.uniform(0, static_cast<std::int64_t>(i) - 1))]);
  }
}

// The seed permutes which component gets which CPU, budget and rate, and
// where it sits in the bundles and the script, but never the totals: every
// seed deploys the same multiset of contracts, so run-to-run differences in
// the host-time metrics come from the host, not from a heavier draw.

/// `n` CPU pins, half on each CPU, in seeded order.
std::vector<int> balanced_cpus(std::size_t n, Rng& rng) {
  std::vector<int> cpus(n);
  for (std::size_t i = 0; i < n; ++i) cpus[i] = static_cast<int>(i % 2);
  shuffle(cpus, rng);
  return cpus;
}

/// `n` budgets spread evenly over [lo, hi] / 10000, in seeded order.
std::vector<double> spread_usage(std::size_t n, int lo, int hi, Rng& rng) {
  std::vector<double> usage(n);
  for (std::size_t i = 0; i < n; ++i) {
    usage[i] = static_cast<double>(
                   lo + static_cast<int>(i % static_cast<std::size_t>(
                                                 hi - lo + 1))) /
               10000.0;
  }
  shuffle(usage, rng);
  return usage;
}

}  // namespace

const char* to_string(Workload workload) {
  switch (workload) {
    case Workload::kSteady256: return "steady_256";
    case Workload::kChurn512: return "churn_512";
    case Workload::kFed16: return "fed_16";
  }
  return "?";
}

bool parse_workload(const std::string& text, Workload* out) {
  for (Workload w :
       {Workload::kSteady256, Workload::kChurn512, Workload::kFed16}) {
    if (text == to_string(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

SteadyInputs make_steady(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x256);
  // 32 client->server pairs (client FP 1 kHz, server sporadic MIT 0.5 ms),
  // 32 EDF components at 100/200 Hz, 80 FP components at 1 kHz and 80 at
  // 100 Hz. Each bundle ships two whole pairs. A server owns its trigger
  // inbox; its client names that inbox as an optional in-port and rings it
  // after each typed call.
  constexpr std::size_t kEdf = 32;
  constexpr std::size_t kFast = 80;
  constexpr std::size_t kSlow = 80;
  const std::vector<int> edf_cpu = balanced_cpus(kEdf, rng);
  const std::vector<int> fast_cpu = balanced_cpus(kFast, rng);
  const std::vector<int> slow_cpu = balanced_cpus(kSlow, rng);
  const std::vector<double> edf_usage = spread_usage(kEdf, 30, 60, rng);
  const std::vector<double> fast_usage = spread_usage(kFast, 50, 80, rng);
  const std::vector<double> slow_usage = spread_usage(kSlow, 20, 50, rng);
  std::vector<Contract> singles;
  for (std::size_t i = 0; i < kEdf; ++i) {
    Contract c;
    c.name = numbered("e", i, 3);
    c.edf = true;
    c.frequency_hz = i % 2 == 0 ? 200.0 : 100.0;
    c.priority = 15;
    c.cpu = edf_cpu[i];
    c.usage = edf_usage[i];
    singles.push_back(std::move(c));
  }
  for (std::size_t i = 0; i < kFast + kSlow; ++i) {
    const bool fast = i < kFast;
    const std::size_t k = fast ? i : i - kFast;
    Contract c;
    c.name = numbered("p", i, 3);
    c.frequency_hz = fast ? 1000.0 : 100.0;
    c.priority = (fast ? 10 : 20) + static_cast<int>(k % 4);
    c.cpu = fast ? fast_cpu[k] : slow_cpu[k];
    c.usage = fast ? fast_usage[k] : slow_usage[k];
    singles.push_back(std::move(c));
  }
  shuffle(singles, rng);

  const std::vector<int> client_cpu = balanced_cpus(kSteadyPairs, rng);
  const std::vector<int> server_cpu = balanced_cpus(kSteadyPairs, rng);
  SteadyInputs inputs;
  std::size_t next_single = 0;
  for (std::size_t b = 0; b < kSteadyBundles; ++b) {
    BundleSpec bundle;
    bundle.symbolic_name = numbered("e2e.steady.b", b, 2);
    std::vector<Contract> members;
    for (std::size_t p = 2 * b; p < 2 * b + 2; ++p) {
      const std::string door = numbered("d", p, 3);
      Contract client;
      client.name = numbered("c", p, 3);
      client.frequency_hz = 1000.0;
      client.priority = 10;
      client.cpu = client_cpu[p];
      client.usage = 0.005;
      client.body = mailbox_port("inport", door, true) +
                    use_rpc(numbered("s", p, 3));
      members.push_back(client);
      Contract server;
      server.name = numbered("s", p, 3);
      // Half the client period: a server whose minimum inter-arrival
      // equalled the call period could never catch up after a late job.
      server.min_arrival = 500'000;
      server.priority = 14;
      server.cpu = server_cpu[p];
      server.usage = 0.01;
      server.trigger = door;
      server.body = mailbox_port("inport", door, false) + expose_rpc(true);
      members.push_back(server);
    }
    while (members.size() < kSteadyPerBundle) {
      members.push_back(singles[next_single++]);
    }
    for (const Contract& c : members) {
      bundle.descriptors.emplace_back("DRT-INF/" + c.name + ".xml",
                                      document(c));
    }
    inputs.bundles.push_back(std::move(bundle));
  }
  return inputs;
}

ChurnInputs make_churn(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x512);
  ChurnInputs inputs;
  // Component 3 of every bundle exposes "rpc"; component 11 uses the
  // provider of the next bundle, so bundle churn revokes and re-binds routes.
  constexpr std::size_t kPool = kChurnPoolBundles * kChurnPerBundle;
  std::vector<std::size_t> rates(kPool);
  std::vector<int> optional(kPool);
  for (std::size_t i = 0; i < kPool; ++i) {
    rates[i] = i % 4;
    optional[i] = i % 8 == 0 ? 1 : 0;
  }
  shuffle(rates, rng);
  shuffle(optional, rng);
  const std::vector<double> usage = spread_usage(kPool, 10, 20, rng);
  const std::vector<int> cpus = balanced_cpus(kPool, rng);
  for (std::size_t b = 0; b < kChurnPoolBundles; ++b) {
    BundleSpec bundle;
    bundle.symbolic_name = numbered("e2e.churn.b", b, 2);
    for (std::size_t i = 0; i < kChurnPerBundle; ++i) {
      const std::size_t k = b * kChurnPerBundle + i;
      Contract c = churn_contract(numbered("k", k, 3), rates[k], usage[k],
                                  cpus[k], optional[k] != 0);
      if (i == 3) c.body += expose_rpc(true);
      if (i == 11) {
        const std::size_t next = (b + 1) % kChurnPoolBundles;
        c.body += use_rpc(numbered("k", next * kChurnPerBundle + 3, 3));
      }
      bundle.descriptors.emplace_back("DRT-INF/" + c.name + ".xml",
                                      document(c));
    }
    inputs.bundles.push_back(std::move(bundle));
  }

  // The script repeats one fixed mix of operation kinds (each infeasible
  // registration is followed by its unregistration); the seed picks the
  // targets. It follows a model of what is registered, so every operation
  // is legal when it runs; only admission outcomes are left to the stack.
  // Per 22 operations: 9 cheap ones (unregister, disable, the infeasible
  // registration, undeploy) sit below the 4 connects, so the median
  // latency falls inside one kind's distribution instead of in the gap
  // between two kinds, where it would jump with small timing changes.
  static constexpr OpKind kMix[] = {
      OpKind::kRegister,        OpKind::kRegisterInfeasible,
      OpKind::kModeTransition,  OpKind::kConnect,
      OpKind::kDisable,         OpKind::kDeploySystem,
      OpKind::kUnregister,      OpKind::kEnable,
      OpKind::kConnect,         OpKind::kBundleUninstall,
      OpKind::kConnect,         OpKind::kUnregister,
      OpKind::kRegisterInfeasible, OpKind::kUndeploySystem,
      OpKind::kRegister,        OpKind::kModeTransition,
      OpKind::kBundleInstall,   OpKind::kDisable,
      OpKind::kConnect,         OpKind::kEnable,
  };
  std::vector<bool> installed(kChurnPoolBundles, false);
  std::size_t installed_count = kChurnInitialBundles;
  for (std::size_t b = 0; b < kChurnInitialBundles; ++b) installed[b] = true;
  std::vector<std::string> standalone;
  std::set<std::string> disabled;
  std::vector<std::string> systems;
  std::string pending_infeasible;
  std::size_t transitions = 0;
  std::size_t next_component = 0;
  std::size_t next_system = 0;
  std::size_t next_member = 0;
  std::size_t slot = 0;
  const auto pick = [&rng](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(size) - 1));
  };

  while (inputs.script.size() < kChurnOps) {
    Op op;
    if (!pending_infeasible.empty()) {
      op.kind = OpKind::kUnregister;
      op.target = pending_infeasible;
      pending_infeasible.clear();
      inputs.script.push_back(std::move(op));
      continue;
    }
    op.kind = kMix[slot++ % std::size(kMix)];
    std::vector<std::string> enabled;
    for (const auto& name : standalone) {
      if (!disabled.contains(name)) enabled.push_back(name);
    }
    // Fall back to a registration when the model has nothing to act on.
    if ((op.kind == OpKind::kUnregister && standalone.empty()) ||
        (op.kind == OpKind::kDisable && enabled.empty()) ||
        (op.kind == OpKind::kEnable && disabled.empty()) ||
        (op.kind == OpKind::kBundleInstall &&
         installed_count == kChurnPoolBundles) ||
        (op.kind == OpKind::kBundleUninstall && installed_count <= 24) ||
        (op.kind == OpKind::kDeploySystem && systems.size() >= 16) ||
        (op.kind == OpKind::kUndeploySystem && systems.empty())) {
      op.kind = OpKind::kRegister;
    }

    switch (op.kind) {
      case OpKind::kRegister: {
        Contract c = churn_contract(numbered("x", next_component, 4),
                                    next_component);
        ++next_component;
        op.target = c.name;
        op.xml = document(c);
        standalone.push_back(c.name);
        break;
      }
      case OpKind::kRegisterInfeasible: {
        // No resolver can admit a 97% claim next to the deployed set.
        Contract c;
        c.name = numbered("y", next_component++, 4);
        c.frequency_hz = 100.0;
        c.priority = 20;
        c.cpu = static_cast<int>(next_component % 2);
        c.usage = 0.97;
        op.target = c.name;
        op.xml = document(c);
        pending_infeasible = c.name;
        break;
      }
      case OpKind::kUnregister: {
        const std::size_t i = pick(standalone.size());
        op.target = standalone[i];
        standalone.erase(standalone.begin() + static_cast<std::ptrdiff_t>(i));
        disabled.erase(op.target);
        break;
      }
      case OpKind::kDisable:
        op.target = enabled[pick(enabled.size())];
        disabled.insert(op.target);
        break;
      case OpKind::kEnable: {
        auto it = disabled.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(pick(disabled.size())));
        op.target = *it;
        disabled.erase(it);
        break;
      }
      case OpKind::kBundleInstall:
      case OpKind::kBundleUninstall: {
        const bool want = op.kind == OpKind::kBundleInstall;
        std::vector<std::size_t> candidates;
        for (std::size_t b = 0; b < kChurnPoolBundles; ++b) {
          if (installed[b] != want) candidates.push_back(b);
        }
        op.index = candidates[pick(candidates.size())];
        op.target = inputs.bundles[op.index].symbolic_name;
        installed[op.index] = want;
        if (want) {
          ++installed_count;
        } else {
          --installed_count;
        }
        break;
      }
      case OpKind::kDeploySystem: {
        // A three-stage SHM pipeline with its declared connections.
        op.target = numbered("sy", next_system++, 4);
        std::string xml = "<?xml version=\"1.0\"?>\n<drt:system name=\"" +
                          op.target + "\">\n";
        std::string members[3];
        std::string links[2];
        for (auto& member : members) member = numbered("m", next_member++, 4);
        for (auto& link : links) link = numbered("q", next_member++, 4);
        for (int m = 0; m < 3; ++m) {
          // Pipeline members declare no modes: a mode drop of a provider
          // cascading into a re-budgeted dependent leaves a stale
          // ContractCache entry behind (see README.md, "Findings").
          Contract c = churn_contract(members[m], next_member + m);
          c.body.clear();
          if (m > 0) c.body += shm_port("inport", links[m - 1]);
          if (m < 2) c.body += shm_port("outport", links[m]);
          xml += component_xml(c, "drt:component");
        }
        for (int m = 0; m < 2; ++m) {
          xml += "<connection from=\"" + members[m] + "." + links[m] +
                 "\" to=\"" + members[m + 1] + "." + links[m] + "\"/>\n";
        }
        xml += "</drt:system>\n";
        op.xml = std::move(xml);
        systems.push_back(op.target);
        break;
      }
      case OpKind::kUndeploySystem: {
        const std::size_t i = pick(systems.size());
        op.target = systems[i];
        systems.erase(systems.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      case OpKind::kModeTransition: {
        // A fixed cycle: low -> base -> high -> base -> low ...
        static const char* const kCycle[] = {"low", "", "high", ""};
        op.target = kCycle[transitions++ % std::size(kCycle)];
        break;
      }
      case OpKind::kConnect: {
        std::vector<std::size_t> live;
        for (std::size_t b = 0; b < kChurnPoolBundles; ++b) {
          if (installed[b]) live.push_back(b);
        }
        op.target = numbered("k", live[pick(live.size())] * kChurnPerBundle + 3,
                             3);
        break;
      }
    }
    inputs.script.push_back(std::move(op));
  }
  return inputs;
}

FedInputs make_fed(std::uint64_t seed, std::size_t ops) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x16);
  FedInputs inputs;
  constexpr std::size_t kPlaced = kFedNodes * kFedPerNode;
  const std::vector<int> cpus = balanced_cpus(kPlaced, rng);
  const std::vector<double> usage = spread_usage(kPlaced, 80, 120, rng);
  for (std::size_t i = 0; i < kPlaced; ++i) {
    Contract c;
    c.name = numbered("f", i, 3);
    c.frequency_hz = 1000.0;
    c.priority = 10;
    c.cpu = cpus[i];
    c.usage = usage[i];
    inputs.placed.push_back(document(c));
  }
  for (std::size_t node = 0; node < kFedNodes; ++node) {
    for (std::size_t p = 0; p < kFedPairsPerNode; ++p) {
      FedInputs::Pair pair;
      pair.client_node = node;
      pair.server_node = (node + 1 + p) % kFedNodes;
      pair.client = numbered("rc", node * kFedPairsPerNode + p, 3);
      pair.server = numbered("rs", node * kFedPairsPerNode + p, 3);
      Contract client;
      client.name = pair.client;
      client.frequency_hz = 1000.0;
      client.priority = 9;
      client.cpu = static_cast<int>(p);
      client.usage = 0.005;
      pair.client_xml = document(client);
      Contract server = client;
      server.name = pair.server;
      server.cpu = static_cast<int>(1 - p);
      server.body = expose_rpc(false);
      pair.server_xml = document(server);
      inputs.pairs.push_back(std::move(pair));
    }
  }
  for (std::size_t n = 0; n < ops; ++n) {
    FedOp op;
    op.leave_join = n % 20 == 19;
    op.victim = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(inputs.placed.size()) - 1));
    op.node = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(kFedNodes) - 1));
    inputs.script.push_back(op);
  }
  return inputs;
}

std::uint64_t fingerprint(const SteadyInputs& inputs) {
  Fnv h;
  for (const auto& bundle : inputs.bundles) {
    h.text(bundle.symbolic_name);
    for (const auto& [path, xml] : bundle.descriptors) {
      h.text(path);
      h.text(xml);
    }
  }
  return h.value();
}

std::uint64_t fingerprint(const ChurnInputs& inputs) {
  Fnv h;
  h.u64(fingerprint(SteadyInputs{inputs.bundles}));
  for (const Op& op : inputs.script) {
    h.u64(static_cast<std::uint64_t>(op.kind));
    h.text(op.target);
    h.text(op.xml);
    h.u64(op.index);
  }
  return h.value();
}

std::uint64_t fingerprint(const FedInputs& inputs) {
  Fnv h;
  for (const auto& xml : inputs.placed) h.text(xml);
  for (const auto& pair : inputs.pairs) {
    h.u64(pair.client_node);
    h.text(pair.client_xml);
    h.u64(pair.server_node);
    h.text(pair.server_xml);
  }
  for (const FedOp& op : inputs.script) {
    h.u64(op.leave_join ? 1 : 0);
    h.u64(op.victim);
    h.u64(op.node);
  }
  return h.value();
}

}  // namespace e2e
