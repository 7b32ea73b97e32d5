#include "fed/federation.hpp"

#include <algorithm>

#include "rtos/latency_model.hpp"

namespace drt::fed {
namespace {

rtos::EngineConfig engine_config(const FederationConfig& config) {
  rtos::EngineConfig engine;
  engine.shards = std::max<std::size_t>(1, config.nodes);
  // The guaranteed minimum cross-group latency makes kernel-originated sends
  // never clamp.
  engine.lookahead =
      rtos::LatencyModel(config.kernel.latency).min_cross_group_latency();
  return engine;
}

drcom::DrcrConfig drcr_config(const FederationConfig& config) {
  drcom::DrcrConfig drcr;
  drcr.cpu_budget = config.cpu_budget;
  drcr.auto_resolve = config.auto_resolve;
  drcr.register_service = config.register_service;
  drcr.incremental_admission = config.incremental_admission;
  return drcr;
}

}  // namespace

Federation::Federation(const FederationConfig& config)
    : config_(config), engine_(engine_config(config)) {
  const std::size_t count = engine_.shards();
  nodes_.reserve(count);
  for (NodeIndex i = 0; i < count; ++i) {
    auto node = std::make_unique<Node>();
    rtos::SimEngine* shard_engine = &engine_;
    if (i != 0) {
      node->handle = engine_.shard_handle(static_cast<rtos::ShardId>(i));
      shard_engine = node->handle.get();
    }
    rtos::KernelConfig kernel_config = config_.kernel;
    kernel_config.seed = config_.kernel.seed + i;
    node->kernel =
        std::make_unique<rtos::RtKernel>(*shard_engine, kernel_config);
    node->drcr = std::make_unique<drcom::Drcr>(node->framework, *node->kernel,
                                               drcr_config(config_));
    if (config_.inbox_capacity > 0) {
      node->inbox =
          node->kernel->mailbox_create("fed.inbox", config_.inbox_capacity)
              .value_or(nullptr);
    }
    nodes_.push_back(std::move(node));
  }
}

Federation::~Federation() { tearing_down_ = true; }

Result<cap::Connection*> Federation::bind_capability(
    NodeIndex client_node, const std::string& client, NodeIndex provider_node,
    const std::string& provider, const std::string& protocol) {
  if (client_node >= nodes_.size() || provider_node >= nodes_.size()) {
    return make_error(ErrorCode::kInvalidArgument, "fed.bad_node",
                      "node index out of range");
  }
  if (client_node == provider_node) {
    return nodes_[client_node]->drcr->connect_capability(client, provider,
                                                         protocol);
  }
  drcom::Drcr& provider_drcr = *nodes_[provider_node]->drcr;
  const drcom::ComponentDescriptor* descriptor =
      provider_drcr.descriptor_of(provider);
  if (descriptor == nullptr || !descriptor->exposes_protocol(protocol)) {
    return make_error(ErrorCode::kNotFound, "cap.no_such_route",
                      "'" + provider + "' on node " +
                          std::to_string(provider_node) +
                          " does not expose protocol '" + protocol + "'");
  }
  const cap::ProtocolSpec* spec = descriptor->find_protocol(protocol);
  if (spec == nullptr) {
    return make_error(ErrorCode::kNotFound, "cap.no_such_route",
                      "'" + provider + "' exposes undeclared protocol '" +
                          protocol + "'");
  }
  // Remote endpoints live in the CLIENT node's router, which cannot see the
  // provider-side deactivate. One listener per provider node fans the
  // revocation out so remote callers get the typed kCapabilityRevoked
  // promptly instead of silently feeding a dead inbox.
  if (!cap_listeners_.contains(provider_node)) {
    cap_listeners_.insert(provider_node);
    provider_drcr.add_listener([this,
                                provider_node](const drcom::DrcrEvent& event) {
      if (tearing_down_) return;
      if (event.type != drcom::DrcrEventType::kDeactivated) return;
      for (NodeIndex i = 0; i < nodes_.size(); ++i) {
        if (i == provider_node) continue;
        nodes_[i]->drcr->cap_router().revoke_routes_to(event.component);
      }
    });
  }
  rtos::NodeChannel& link =
      channel(client_node, provider_node, provider + "." + protocol + ".cap");
  return nodes_[client_node]->drcr->cap_router().connect_remote(
      client, provider, protocol, *spec, link);
}

void Federation::leave(NodeIndex index) {
  if (index >= nodes_.size()) return;
  nodes_[index]->alive = false;
  refresh_links();
}

void Federation::join(NodeIndex index) {
  if (index >= nodes_.size()) return;
  nodes_[index]->alive = true;
  refresh_links();
}

std::size_t Federation::alive_count() const {
  std::size_t count = 0;
  for (const auto& node : nodes_) {
    if (node->alive) ++count;
  }
  return count;
}

void Federation::partition(NodeIndex a, NodeIndex b) {
  if (a == b || a >= nodes_.size() || b >= nodes_.size()) return;
  partitions_.insert({std::min(a, b), std::max(a, b)});
  refresh_links();
}

void Federation::heal(NodeIndex a, NodeIndex b) {
  partitions_.erase({std::min(a, b), std::max(a, b)});
  refresh_links();
}

bool Federation::partitioned(NodeIndex a, NodeIndex b) const {
  return partitions_.contains({std::min(a, b), std::max(a, b)});
}

void Federation::refresh_links() {
  for (auto& [key, channel] : channels_) {
    if (link_up(std::get<0>(key), std::get<1>(key))) {
      channel->restore();
    } else {
      channel->sever();
    }
  }
}

rtos::NodeChannel& Federation::channel(NodeIndex source, NodeIndex target,
                                       const std::string& mailbox) {
  const ChannelKey key{source, target, mailbox};
  auto found = channels_.find(key);
  if (found == channels_.end()) {
    auto created = std::make_unique<rtos::NodeChannel>(
        *nodes_[source]->kernel, *nodes_[target]->kernel, mailbox);
    if (!link_up(source, target)) created->sever();
    found = channels_.emplace(key, std::move(created)).first;
  }
  return *found->second;
}

rtos::NodeChannel* Federation::find_channel(NodeIndex source, NodeIndex target,
                                            const std::string& mailbox) {
  const auto found = channels_.find(ChannelKey{source, target, mailbox});
  return found == channels_.end() ? nullptr : found->second.get();
}

Result<void> Federation::destroy_channel(NodeIndex source, NodeIndex target,
                                         const std::string& mailbox) {
  const auto found = channels_.find(ChannelKey{source, target, mailbox});
  if (found == channels_.end()) {
    return make_error(ErrorCode::kNotFound, "fed.no_such_channel",
                      "no channel " + std::to_string(source) + " -> " +
                          std::to_string(target) + " '" + mailbox + "'");
  }
  if (found->second->in_flight() > 0) {
    // In-flight engine messages hold the channel's RemoteTarget address;
    // destroying now would dangle them AND lose counts. Refusing keeps the
    // retired fold exact (mirrors mailbox_delete + RetiredMailboxCounters).
    return make_error(ErrorCode::kInvalidState, "fed.channel_busy",
                      "channel has " +
                          std::to_string(found->second->in_flight()) +
                          " message(s) in flight");
  }
  retired_ += found->second->stats();
  channels_.erase(found);
  return Result<void>::success();
}

rtos::ChannelStats Federation::channel_totals() const {
  rtos::ChannelStats totals = retired_;
  for (const auto& [key, channel] : channels_) totals += channel->stats();
  return totals;
}

std::uint64_t Federation::in_flight_total() const {
  std::uint64_t total = 0;
  for (const auto& [key, channel] : channels_) total += channel->in_flight();
  return total;
}

}  // namespace drt::fed
