// Virtual-time discrete-event engine (facade).
//
// The entire real-time substrate (src/rtos/) runs on this engine instead of
// wall-clock threads: every test and bench is bit-reproducible and the
// latency experiments of the paper's §4 can be replayed deterministically.
// Events fire in (time, key) order, where key encodes (seq, shard) — with a
// single shard that reduces to (time, insertion order).
//
// `SimEngine` is the facade the kernel, DRCR runtime, fuzzer and benches
// program against. It is *bound to one shard* of an `EngineCore`
// (engine_core.hpp): `schedule_at` et al. act on that shard, `schedule_on` /
// `post_message` reach across shards, and `run_*` drive every shard of the
// core on the calling thread.
#pragma once

#include <cstddef>
#include <memory>

#include "rtos/engine_core.hpp"
#include "util/types.hpp"

namespace drt::rtos {

class SimEngine {
 public:
  using Callback = EventFn;

  /// Default engine: one shard.
  SimEngine() : SimEngine(EngineConfig{}) {}
  explicit SimEngine(const EngineConfig& config)
      : owned_(std::make_unique<EngineCore>(config)), core_(owned_.get()) {}
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// This handle's shard clock.
  [[nodiscard]] SimTime now() const { return core_->now(shard_); }

  /// Schedules `callback` at absolute time `when` on this handle's shard.
  /// Returns an id usable with cancel(). Scheduling into the past is defined
  /// behaviour: the event is clamped to fire at now(), ordered after events
  /// already due at now() — callers whose computed release time just slipped
  /// by need no special casing.
  EventId schedule_at(SimTime when, Callback callback) {
    return core_->schedule(shard_, shard_, when, std::move(callback));
  }

  /// Schedules `callback` after `delay` ns (negative delays clamp to 0).
  EventId schedule_after(SimDuration delay, Callback callback) {
    return schedule_at(now() + (delay < 0 ? 0 : delay), std::move(callback));
  }

  /// Schedules onto another shard. The event is clamped to fire no earlier
  /// than now() + lookahead() and is not cancellable: returns kInvalidEvent.
  EventId schedule_on(ShardId target, SimTime when, Callback callback) {
    return core_->schedule(shard_, target, when, std::move(callback));
  }

  /// Hands a pooled Message to `target` shard's MessageSink at
  /// max(when, now() + lookahead()) — the zero-copy cross-shard path (no
  /// EventFn capture, no allocation). Same-shard posts deliver at
  /// max(when, now()).
  void post_message(ShardId target, SimTime when, void* sink_target,
                    Message message) {
    core_->post_message(shard_, target, when, sink_target, std::move(message));
  }

  /// Registers the cross-shard message delivery hook for this handle's
  /// shard.
  void set_message_sink(MessageSink sink) {
    core_->set_message_sink(shard_, sink);
  }

  /// Cancels a pending event in O(log n). Cancelling an already-fired or
  /// invalid id is a harmless no-op (the common case when races resolve).
  void cancel(EventId id) { core_->cancel(id); }

  /// Runs events on every shard until no work <= `deadline` remains. Every
  /// shard clock ends at `deadline` when it is ahead of the last event.
  /// Returns events fired.
  std::size_t run_until(SimTime deadline) { return core_->run_until(deadline); }

  /// Runs every pending event (including ones scheduled while running).
  /// `max_events` is a runaway guard.
  std::size_t run_to_completion(std::size_t max_events = 10'000'000) {
    return core_->run_to_completion(max_events);
  }

  /// True when no live events remain on any shard.
  [[nodiscard]] bool idle() const { return core_->idle(); }

  /// Live events + undelivered cross-shard messages across all shards.
  [[nodiscard]] std::size_t pending_events() const {
    return core_->pending_events_total();
  }

  /// Undelivered cross-shard messages only. The federation oracle balances
  /// channel send counters against this.
  [[nodiscard]] std::size_t pending_messages() const {
    return core_->pending_messages_total();
  }

  [[nodiscard]] std::size_t shards() const { return core_->shards(); }
  [[nodiscard]] SimDuration lookahead() const { return core_->lookahead(); }
  /// The shard this handle is bound to (0 for the owning engine).
  [[nodiscard]] ShardId shard() const { return shard_; }

  /// A non-owning SimEngine bound to `target` shard of the same core — what
  /// a per-shard kernel programs against. Valid while the owning engine
  /// lives; nullptr when `target` is out of range.
  [[nodiscard]] std::unique_ptr<SimEngine> shard_handle(ShardId target) {
    if (target >= core_->shards()) return nullptr;
    return std::unique_ptr<SimEngine>(new SimEngine(core_, target));
  }

 private:
  SimEngine(EngineCore* core, ShardId shard) : core_(core), shard_(shard) {}

  std::unique_ptr<EngineCore> owned_;  ///< null for shard handles
  EngineCore* core_ = nullptr;
  ShardId shard_ = 0;
};

}  // namespace drt::rtos
