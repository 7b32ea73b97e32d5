#include "rtos/engine_core.hpp"

#include <algorithm>

namespace drt::rtos {

namespace {

/// Min-heap comparator for ShardCore::messages (std::*_heap are max-heaps,
/// so "later" sorts toward the back).
struct MsgLater {
  bool operator()(const PendingMessage& a, const PendingMessage& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.key > b.key;
  }
};

[[nodiscard]] SimTime sat_add(SimTime a, SimDuration b) {
  return a > kSimTimeNever - b ? kSimTimeNever : a + b;
}

}  // namespace

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

EventId EventQueue::push(ShardId shard, SimTime when, std::uint64_t key,
                         EventFn fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Record& rec = slab_[slot];
  rec.when = when;
  rec.key = key;
  rec.callback = std::move(fn);
  rec.heap_pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(slot);
  sift_up(heap_.size() - 1);
  return encode_id(shard, rec.generation, slot);
}

void EventQueue::cancel(EventId id) {
  const std::uint64_t low = id & kSlotMask;
  if (low == 0 || low > slab_.size()) return;
  const auto slot = static_cast<std::uint32_t>(low - 1);
  Record& rec = slab_[slot];
  // Stale ids (already fired or cancelled) carry an old generation: no-op,
  // so callers need not track whether their event raced with execution.
  if ((rec.generation & kGenerationMask) !=
      static_cast<std::uint32_t>((id >> kSlotBits) & kGenerationMask)) {
    return;
  }
  heap_erase(rec.heap_pos);
  release_slot(slot);
}

EventFn EventQueue::pop() {
  const std::uint32_t slot = heap_[0];
  EventFn fn = std::move(slab_[slot].callback);
  heap_erase(0);
  // Free the slot before the caller invokes: the callback may schedule new
  // events (reusing the slot under a fresh generation) or cancel its own
  // stale id.
  release_slot(slot);
  return fn;
}

void EventQueue::sift_up(std::size_t pos) {
  const std::uint32_t slot = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!earlier(slot, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slab_[heap_[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = slot;
  slab_[slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_down(std::size_t pos) {
  const std::uint32_t slot = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = pos * 4 + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t child = first + 1; child < last; ++child) {
      if (earlier(heap_[child], heap_[best])) best = child;
    }
    if (!earlier(heap_[best], slot)) break;
    heap_[pos] = heap_[best];
    slab_[heap_[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = slot;
  slab_[slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::heap_fix(std::size_t pos) {
  if (pos > 0 && earlier(heap_[pos], heap_[(pos - 1) / 4])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void EventQueue::heap_erase(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];
    slab_[heap_[pos]].heap_pos = static_cast<std::uint32_t>(pos);
    heap_.pop_back();
    heap_fix(pos);
  } else {
    heap_.pop_back();
  }
}

void EventQueue::release_slot(std::uint32_t slot) {
  Record& rec = slab_[slot];
  rec.callback.reset();
  rec.heap_pos = kNoPos;
  ++rec.generation;  // invalidates every id issued for this slot so far
  free_slots_.push_back(slot);
}

// ---------------------------------------------------------------------------
// ShardCore
// ---------------------------------------------------------------------------

bool ShardCore::peek(SimTime& when, std::uint64_t& key) const {
  SimTime ew = 0;
  std::uint64_t ek = 0;
  const bool has_event = queue.peek(ew, ek);
  if (!messages.empty()) {
    const PendingMessage& m = messages.front();
    if (!has_event || m.when < ew || (m.when == ew && m.key < ek)) {
      when = m.when;
      key = m.key;
      return true;
    }
  }
  if (!has_event) return false;
  when = ew;
  key = ek;
  return true;
}

void ShardCore::msg_push(PendingMessage item) {
  messages.push_back(std::move(item));
  std::push_heap(messages.begin(), messages.end(), MsgLater{});
}

void ShardCore::fire_min() {
  SimTime ew = 0;
  std::uint64_t ek = 0;
  const bool has_event = queue.peek(ew, ek);
  bool use_message = false;
  if (!messages.empty()) {
    const PendingMessage& m = messages.front();
    use_message = !has_event || m.when < ew || (m.when == ew && m.key < ek);
  }
  if (use_message) {
    std::pop_heap(messages.begin(), messages.end(), MsgLater{});
    PendingMessage m = std::move(messages.back());
    messages.pop_back();
    now = m.when;
    assert(sink.deliver != nullptr &&
           "cross-shard message arrived on a shard with no MessageSink");
    sink.deliver(sink.ctx, m.target, std::move(m.message));
  } else {
    now = ew;
    EventFn fn = queue.pop();
    fn();
  }
}

// ---------------------------------------------------------------------------
// EngineCore
// ---------------------------------------------------------------------------

EngineCore::EngineCore(const EngineConfig& config) {
  std::size_t shards = config.shards;
  if (shards < 1) shards = 1;
  if (shards > kMaxShards) shards = kMaxShards;
  cores_.resize(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    cores_[s].shard = static_cast<ShardId>(s);
  }
  lookahead_ = config.lookahead > 0 ? config.lookahead : kDefaultLookahead;
}

std::size_t EngineCore::pending_events_total() const {
  std::size_t total = 0;
  for (const ShardCore& core : cores_) total += core.pending();
  return total;
}

std::size_t EngineCore::pending_messages_total() const {
  std::size_t total = 0;
  for (const ShardCore& core : cores_) total += core.messages.size();
  return total;
}

SimTime EngineCore::clamp_cross(ShardId ctx, SimTime when) const {
  const SimTime floor = sat_add(cores_[ctx].now, lookahead_);
  return when < floor ? floor : when;
}

EventId EngineCore::schedule(ShardId ctx, ShardId target, SimTime when,
                             EventFn fn) {
  ShardCore& src = cores_[ctx];
  if (ctx == target) {
    // Past times are clamped: the event fires at now(), after events already
    // due at now() (its key is newer). See the SimEngine header contract.
    if (when < src.now) when = src.now;
    return src.queue.push(ctx, when, src.make_key(), std::move(fn));
  }
  cores_[target].queue.push(target, clamp_cross(ctx, when), src.make_key(),
                            std::move(fn));
  return kInvalidEvent;  // cross-shard posts are not cancellable
}

void EngineCore::post_message(ShardId ctx, ShardId target, SimTime when,
                              void* sink_target, Message message) {
  ShardCore& src = cores_[ctx];
  PendingMessage pm;
  pm.when = ctx == target ? std::max(when, src.now) : clamp_cross(ctx, when);
  pm.key = src.make_key();
  pm.target = sink_target;
  pm.message = std::move(message);
  cores_[target].msg_push(std::move(pm));
}

void EngineCore::cancel(EventId id) {
  const ShardId shard = EventQueue::shard_of(id);
  if (shard >= cores_.size()) return;
  cores_[shard].queue.cancel(id);
}

bool EngineCore::fire_next(SimTime deadline) {
  ShardCore* best = nullptr;
  SimTime best_when = 0;
  std::uint64_t best_key = 0;
  for (ShardCore& core : cores_) {
    SimTime when = 0;
    std::uint64_t key = 0;
    if (!core.peek(when, key)) continue;
    if (best == nullptr || when < best_when ||
        (when == best_when && key < best_key)) {
      best = &core;
      best_when = when;
      best_key = key;
    }
  }
  if (best == nullptr || best_when > deadline) return false;
  best->fire_min();
  return true;
}

void EngineCore::finish_clocks(SimTime to) {
  for (ShardCore& core : cores_) {
    if (core.now < to) core.now = to;
  }
}

std::size_t EngineCore::run_until(SimTime deadline) {
  std::size_t fired = 0;
  while (fire_next(deadline)) ++fired;
  finish_clocks(deadline);
  return fired;
}

std::size_t EngineCore::run_to_completion(std::size_t max_events) {
  std::size_t fired = 0;
  while (fired < max_events && fire_next(kSimTimeNever)) ++fired;
  SimTime last = 0;
  for (const ShardCore& core : cores_) last = std::max(last, core.now);
  finish_clocks(last);
  return fired;
}

}  // namespace drt::rtos
