// NodeChannel — a unidirectional inter-node message channel on the pooled
// zero-copy cross-shard path.
//
// A channel binds a source kernel (one federation node) to a *named* mailbox
// on a target kernel (another node). Sends ride RtKernel::remote_post: the
// message is posted into the engine's cross-shard hand-off machinery with a
// sampled cross-group latency and delivered, on the destination shard's own
// execution context, through the channel's RemoteTarget endpoint. The
// endpoint resolves the destination mailbox BY NAME at delivery time, so a
// component deactivating (and its mailboxes dying) while messages are in
// flight cannot dangle — late arrivals count as `unroutable` instead.
//
// FIFO: cross-group latency is jittered per message, so two back-to-back
// sends could be scheduled out of order. The channel clamps every delivery
// time to be >= the previous one; equal times fall back to the engine's
// (time, seq, shard) total order, which preserves send order. Channel
// traffic is therefore FIFO per channel — the property migration replay
// depends on.
//
// Accounting (the exact counters the federation oracle sums):
//   sender side   : sent, sent_bytes, severed   (written on the source shard)
//   receiver side : arrived, accepted, rejected, unroutable (target shard)
// Conservation:  sent == arrived + in-flight;
//                arrived == accepted + rejected + unroutable.
//
// A severed channel (partition injection) rejects sends at the source;
// messages already in flight still arrive. restore() heals it.
//
// The channel owns the RemoteTarget that in-flight messages point at, so it
// must not be destroyed (or moved) while messages are in flight —
// fed::Federation enforces that by refusing to destroy channels with
// in_flight() > 0 and folding retired channels' counters into
// RetiredChannelCounters (mirroring RetiredMailboxCounters).
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "rtos/ipc.hpp"
#include "rtos/kernel.hpp"

namespace drt::rtos {

struct ChannelStats {
  std::uint64_t sent = 0;        ///< accepted at the source, posted in-engine
  std::uint64_t sent_bytes = 0;  ///< payload bytes of accepted sends
  std::uint64_t severed = 0;     ///< sends rejected because the link was cut
  std::uint64_t arrived = 0;     ///< reached the destination endpoint
  std::uint64_t accepted = 0;    ///< delivered into the target mailbox
  std::uint64_t rejected = 0;    ///< target mailbox full — dropped
  std::uint64_t unroutable = 0;  ///< target mailbox gone — dropped

  [[nodiscard]] std::uint64_t dropped() const { return rejected + unroutable; }
  [[nodiscard]] std::uint64_t in_flight() const { return sent - arrived; }

  ChannelStats& operator+=(const ChannelStats& other) {
    sent += other.sent;
    sent_bytes += other.sent_bytes;
    severed += other.severed;
    arrived += other.arrived;
    accepted += other.accepted;
    rejected += other.rejected;
    unroutable += other.unroutable;
    return *this;
  }
};

class NodeChannel {
 public:
  /// Binds `source`'s shard to the mailbox named `target_mailbox` on
  /// `target`'s shard. Both kernels must share one engine backend and
  /// outlive the channel.
  NodeChannel(RtKernel& source, RtKernel& target, std::string target_mailbox)
      : source_(&source),
        target_shard_(target.engine().shard()),
        mailbox_name_(std::move(target_mailbox)) {}

  // In-flight messages hold &remote_: the address must stay pinned.
  NodeChannel(const NodeChannel&) = delete;
  NodeChannel& operator=(const NodeChannel&) = delete;

  /// Sends on the channel. False when severed (the message is dropped at the
  /// source and counted in stats().severed). Call from the source node's
  /// context only.
  bool send(Message message) {
    if (severed_) {
      ++stats_severed_;
      return false;
    }
    const std::uint64_t bytes = message.size();
    const SimTime when = source_->remote_post(target_shard_, remote_,
                                              std::move(message), fifo_floor_);
    if (when == kSimTimeNever) {
      ++stats_severed_;  // target shard vanished: indistinguishable from cut
      return false;
    }
    fifo_floor_ = when;
    ++sent_;
    sent_bytes_ += bytes;
    return true;
  }

  /// Partition injection: cut / heal the link. Messages already in flight
  /// still arrive — only new sends are refused.
  void sever() { severed_ = true; }
  void restore() { severed_ = false; }
  [[nodiscard]] bool severed() const { return severed_; }

  [[nodiscard]] const std::string& target_mailbox() const {
    return mailbox_name_;
  }
  [[nodiscard]] ShardId source_shard() const {
    return source_->engine().shard();
  }
  [[nodiscard]] ShardId target_shard() const { return target_shard_; }

  /// Exact counters; read between engine runs (see file comment).
  [[nodiscard]] ChannelStats stats() const {
    ChannelStats stats;
    stats.sent = sent_;
    stats.sent_bytes = sent_bytes_;
    stats.severed = stats_severed_;
    stats.arrived = arrived_;
    stats.accepted = accepted_;
    stats.rejected = rejected_;
    stats.unroutable = unroutable_;
    return stats;
  }
  [[nodiscard]] std::uint64_t in_flight() const { return sent_ - arrived_; }

 private:
  /// RemoteTarget thunk; runs on the destination shard's context.
  static void deliver(RtKernel& kernel, void* owner, Message message) {
    auto* channel = static_cast<NodeChannel*>(owner);
    ++channel->arrived_;
    Mailbox* mailbox = kernel.mailbox_find(channel->mailbox_name_);
    if (mailbox == nullptr) {
      ++channel->unroutable_;
      return;
    }
    if (kernel.mailbox_send(*mailbox, std::move(message))) {
      ++channel->accepted_;
    } else {
      ++channel->rejected_;
    }
  }

  RtKernel* source_;
  ShardId target_shard_;
  std::string mailbox_name_;
  RemoteTarget remote_{&NodeChannel::deliver, this};
  bool severed_ = false;
  SimTime fifo_floor_ = 0;  ///< last scheduled delivery time (FIFO clamp)

  // Source-shard counters.
  std::uint64_t sent_ = 0;
  std::uint64_t sent_bytes_ = 0;
  std::uint64_t stats_severed_ = 0;
  // Destination-shard counters.
  std::uint64_t arrived_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t unroutable_ = 0;
};

}  // namespace drt::rtos
