// Federation — many DRCR nodes on one virtual-time engine.
//
// A `Node` is one simulated machine: its own OSGi framework, RtKernel and
// DRCR, bound to one engine shard (node i = shard i). The nodes interleave on
// one thread in the engine's global (time, seq, shard) order, so federation
// decisions — which are pure functions of node state between engine runs —
// are deterministic.
//
// Inter-node traffic flows over `rtos::NodeChannel`s (channel.hpp): the
// pooled zero-copy cross-shard path with sampled cross-group latency, FIFO
// per channel, counted exactly at both ends. The federation keeps a registry
// of channels keyed (source node, target node, target mailbox) and folds the
// counters of destroyed channels into `RetiredChannelCounters`, mirroring
// RtKernel::RetiredMailboxCounters, so Σ(live) + retired is exact across
// channel churn, independent of the process-wide MessagePool::stats().
//
// Membership: nodes can leave/join and links can partition/heal. Both are
// modeled at the channel layer (a severed channel refuses sends at the
// source; in-flight messages still arrive), applied between engine runs.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cap/channel.hpp"
#include "drcom/drcr.hpp"
#include "osgi/framework.hpp"
#include "rtos/channel.hpp"
#include "rtos/kernel.hpp"
#include "rtos/sim_engine.hpp"
#include "util/result.hpp"

namespace drt::fed {

using NodeIndex = std::size_t;

struct FederationConfig {
  std::size_t nodes = 1;
  /// Per-node kernel template; node i runs with `kernel.seed + i` so the
  /// nodes' latency/load draws are independent but deterministic.
  rtos::KernelConfig kernel;
  double cpu_budget = 0.9;
  bool auto_resolve = true;
  bool register_service = true;
  bool incremental_admission = true;
  /// > 0 creates a "fed.inbox" mailbox of this capacity on every node (the
  /// default cross-node traffic sink the fuzzer and benches target). 0 keeps
  /// nodes byte-identical to a bare DRCR of the same config.
  std::size_t inbox_capacity = 0;
};

/// One federated machine. Owns nothing engine-wise except a shard handle;
/// the Federation owns the engine.
struct Node {
  std::unique_ptr<rtos::SimEngine> handle;  ///< null for node 0 (the owner)
  osgi::Framework framework;
  std::unique_ptr<rtos::RtKernel> kernel;
  std::unique_ptr<drcom::Drcr> drcr;
  rtos::Mailbox* inbox = nullptr;  ///< "fed.inbox" when configured
  bool alive = true;

  Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
};

/// Cumulative counters of channels that were destroyed — the exact-accounting
/// mirror of RtKernel::RetiredMailboxCounters for the inter-node layer.
/// destroy_channel refuses while messages are in flight, so every fold here
/// is final: Federation totals = Σ live channel stats + retired.
using RetiredChannelCounters = rtos::ChannelStats;

class Federation {
 public:
  explicit Federation(const FederationConfig& config);
  ~Federation();

  [[nodiscard]] const FederationConfig& config() const { return config_; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] Node& node(NodeIndex index) { return *nodes_[index]; }
  [[nodiscard]] const Node& node(NodeIndex index) const {
    return *nodes_[index];
  }
  [[nodiscard]] rtos::SimEngine& engine() { return engine_; }
  [[nodiscard]] const rtos::SimEngine& engine() const { return engine_; }
  [[nodiscard]] SimTime now() const { return engine_.now(); }

  /// Runs every node until no work <= `deadline` remains. Membership,
  /// placement and channel mutations are only legal between runs.
  std::size_t run_until(SimTime deadline) {
    return engine_.run_until(deadline);
  }
  std::size_t advance(SimDuration duration) {
    return engine_.run_until(engine_.now() + duration);
  }

  // -- Membership ----------------------------------------------------------

  /// Marks a node down: every channel touching it is severed. The node's
  /// kernel keeps simulating (a "left" node is unreachable, not erased —
  /// exactly like a partitioned real machine).
  void leave(NodeIndex index);
  /// Brings a node back; links heal unless an explicit partition remains.
  void join(NodeIndex index);
  [[nodiscard]] bool alive(NodeIndex index) const {
    return index < nodes_.size() && nodes_[index]->alive;
  }
  [[nodiscard]] std::size_t alive_count() const;

  /// Cuts / heals both directions between two nodes (order-insensitive).
  void partition(NodeIndex a, NodeIndex b);
  void heal(NodeIndex a, NodeIndex b);
  [[nodiscard]] bool partitioned(NodeIndex a, NodeIndex b) const;

  // -- Channels ------------------------------------------------------------

  /// Get-or-create the channel source -> (target, mailbox name). Severed
  /// state reflects current membership/partitions on creation and after
  /// every membership change.
  rtos::NodeChannel& channel(NodeIndex source, NodeIndex target,
                             const std::string& mailbox);
  [[nodiscard]] rtos::NodeChannel* find_channel(NodeIndex source,
                                                NodeIndex target,
                                                const std::string& mailbox);
  /// Destroys a channel, folding its counters into retired_channels().
  /// Refuses (fed.channel_busy) while messages are in flight — the exact
  /// accounting guarantee.
  Result<void> destroy_channel(NodeIndex source, NodeIndex target,
                               const std::string& mailbox);
  [[nodiscard]] std::size_t channel_count() const { return channels_.size(); }
  [[nodiscard]] const RetiredChannelCounters& retired_channels() const {
    return retired_;
  }
  /// Σ over live channels + retired: the federation-wide conservation input.
  [[nodiscard]] rtos::ChannelStats channel_totals() const;
  /// Σ sent - Σ arrived over live channels (retired channels are drained).
  [[nodiscard]] std::uint64_t in_flight_total() const;

  // -- Typed capability routes (docs/CHANNELS.md) --------------------------

  /// Binds a typed client endpoint on `client_node` against `provider` on
  /// `provider_node`. Same-node routes delegate to that node's DRCR (full
  /// two-way semantics); cross-node routes ride the NodeChannel to the
  /// provider's cap inbox and are one-way only. The endpoint is revoked
  /// promptly when the provider deactivates anywhere in the federation (a
  /// DrcrListener fans the revocation out to every other node's router) and
  /// rejects sends while the link is severed by membership or partitions.
  Result<cap::Connection*> bind_capability(NodeIndex client_node,
                                           const std::string& client,
                                           NodeIndex provider_node,
                                           const std::string& provider,
                                           const std::string& protocol);

  template <typename Fn>
  void for_each_channel(Fn&& fn) const {
    for (const auto& [key, channel] : channels_) {
      fn(std::get<0>(key), std::get<1>(key), std::get<2>(key), *channel);
    }
  }

 private:
  using ChannelKey = std::tuple<NodeIndex, NodeIndex, std::string>;

  /// Re-applies membership + partition state to every channel.
  void refresh_links();
  [[nodiscard]] bool link_up(NodeIndex source, NodeIndex target) const {
    return alive(source) && alive(target) && !partitioned(source, target);
  }

  FederationConfig config_;
  rtos::SimEngine engine_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<ChannelKey, std::unique_ptr<rtos::NodeChannel>> channels_;
  std::set<std::pair<NodeIndex, NodeIndex>> partitions_;  ///< (min, max)
  RetiredChannelCounters retired_;
  /// Nodes whose DRCR already carries the capability revocation fan-out
  /// listener (installed lazily by the first cross-node bind from them).
  std::set<NodeIndex> cap_listeners_;
  /// Set in the destructor body so the fan-out listeners, fired by node
  /// teardown deactivations, never touch sibling nodes mid-destruction.
  bool tearing_down_ = false;
};

}  // namespace drt::fed
