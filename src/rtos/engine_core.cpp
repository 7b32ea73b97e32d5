#include "rtos/engine_core.hpp"

#include <algorithm>

namespace drt::rtos {

namespace {

/// Min-heap comparator for ShardCore::messages (std::*_heap are max-heaps,
/// so "later" sorts toward the back).
struct MsgLater {
  bool operator()(const PendingMessage& a, const PendingMessage& b) const {
    return b.at < a.at;
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
  rec.callback = std::move(fn);
  heap_.push_back(Node{EventKey{when, key}, slot});
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
  const std::uint32_t slot = heap_[0].slot;
  EventFn fn = std::move(slab_[slot].callback);
  heap_erase(0);
  // Free the slot before the caller invokes: the callback may schedule new
  // events (reusing the slot under a fresh generation) or cancel its own
  // stale id.
  release_slot(slot);
  return fn;
}

void EventQueue::sift_up(std::size_t pos) {
  const Node node = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!(node.at < heap_[parent].at)) break;
    place(pos, heap_[parent]);
    pos = parent;
    ++sift_steps_;
  }
  place(pos, node);
}

void EventQueue::sift_down(std::size_t pos) {
  const Node node = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = pos * 4 + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t child = first + 1; child < last; ++child) {
      if (heap_[child].at < heap_[best].at) best = child;
    }
    if (!(heap_[best].at < node.at)) break;
    place(pos, heap_[best]);
    pos = best;
    ++sift_steps_;
  }
  place(pos, node);
}

void EventQueue::heap_fix(std::size_t pos) {
  if (pos > 0 && heap_[pos].at < heap_[(pos - 1) / 4].at) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void EventQueue::heap_erase(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];  // heap_fix places it and records its position
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

EventKey ShardCore::head() const {
  const EventKey event = queue.top();
  if (messages.empty()) return event;
  const EventKey& message = messages.front().at;
  return message < event ? message : event;
}

void ShardCore::msg_push(PendingMessage item) {
  messages.push_back(std::move(item));
  std::push_heap(messages.begin(), messages.end(), MsgLater{});
}

void ShardCore::fire_min() {
  const bool use_message =
      !messages.empty() && messages.front().at < queue.top();
  if (use_message) {
    std::pop_heap(messages.begin(), messages.end(), MsgLater{});
    PendingMessage m = std::move(messages.back());
    messages.pop_back();
    now = m.at.when;
    assert(sink.deliver != nullptr &&
           "cross-shard message arrived on a shard with no MessageSink");
    sink.deliver(sink.ctx, m.target, std::move(m.message));
  } else {
    now = queue.top().when;
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
  while (leaves_ < shards) leaves_ *= 2;
  heads_.resize(leaves_);
  // Every head starts empty, so each match goes to its left child.
  tree_.resize(2 * leaves_);
  for (std::size_t s = 0; s < leaves_; ++s) {
    tree_[leaves_ + s] = static_cast<ShardId>(s);
  }
  for (std::size_t node = leaves_ - 1; node >= 1; --node) {
    tree_[node] = tree_[2 * node];
  }
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

EngineWork EngineCore::work() const {
  EngineWork work;
  work.events_fired = events_fired_;
  work.head_compares = head_compares_;
  for (const ShardCore& core : cores_) {
    work.sift_steps += core.queue.sift_steps();
  }
  return work;
}

SimTime EngineCore::clamp_cross(ShardId ctx, SimTime when) const {
  const SimTime floor = sat_add(cores_[ctx].now, lookahead_);
  return when < floor ? floor : when;
}

EventId EngineCore::schedule(ShardId ctx, ShardId target, SimTime when,
                             EventFn fn) {
  ShardCore& src = cores_[ctx];
  const std::uint64_t key = src.make_key();
  if (ctx == target) {
    // Past times are clamped: the event fires at now(), after events already
    // due at now() (its key is newer). See the SimEngine header contract.
    if (when < src.now) when = src.now;
    const EventId id = src.queue.push(ctx, when, key, std::move(fn));
    note_queued(ctx, EventKey{when, key});
    return id;
  }
  when = clamp_cross(ctx, when);
  cores_[target].queue.push(target, when, key, std::move(fn));
  note_queued(target, EventKey{when, key});
  return kInvalidEvent;  // cross-shard posts are not cancellable
}

void EngineCore::post_message(ShardId ctx, ShardId target, SimTime when,
                              void* sink_target, Message message) {
  ShardCore& src = cores_[ctx];
  PendingMessage pm;
  pm.at.when =
      ctx == target ? std::max(when, src.now) : clamp_cross(ctx, when);
  pm.at.key = src.make_key();
  pm.target = sink_target;
  pm.message = std::move(message);
  const EventKey at = pm.at;
  cores_[target].msg_push(std::move(pm));
  note_queued(target, at);
}

void EngineCore::cancel(EventId id) {
  const ShardId shard = EventQueue::shard_of(id);
  if (shard >= cores_.size()) return;
  cores_[shard].queue.cancel(id);
  refresh(shard);
}

void EngineCore::note_queued(ShardId shard, const EventKey& at) {
  // The firing shard's leaf is re-read after its item returns; any other
  // leaf is exact, so a later item cannot change its shard's head.
  if (shard == firing_ || !(at < heads_[shard])) return;
  heads_[shard] = at;
  // Only this leaf improved: it takes over each match up the path until it
  // meets a winner it does not beat (which then also beats it above).
  for (std::size_t node = (leaves_ + shard) / 2; node >= 1; node /= 2) {
    if (tree_[node] == shard) continue;
    if (!before(shard, tree_[node])) break;
    tree_[node] = shard;
  }
}

void EngineCore::refresh(ShardId shard) {
  if (shard == firing_) return;
  const EventKey head = cores_[shard].head();
  if (head == heads_[shard]) return;
  heads_[shard] = head;
  replay(shard);
}

void EngineCore::replay(ShardId shard) {
  for (std::size_t node = (leaves_ + shard) / 2; node >= 1; node /= 2) {
    const ShardId left = tree_[2 * node];
    const ShardId right = tree_[2 * node + 1];
    tree_[node] = before(right, left) ? right : left;
  }
}

bool EngineCore::fire_next(SimTime deadline) {
  // A callback that runs the engine itself (or one that threw out of an
  // earlier run) leaves its shard marked as firing: make that leaf exact
  // before picking, and hand the mark back afterwards.
  const ShardId outer = firing_;
  if (outer != kNoShard) {
    firing_ = kNoShard;
    refresh(outer);
  }
  const ShardId shard = tree_[1];
  const EventKey& head = heads_[shard];
  if (head.empty() || head.when > deadline) {
    firing_ = outer;
    return false;
  }
  firing_ = shard;
  ++events_fired_;
  cores_[shard].fire_min();
  firing_ = kNoShard;
  refresh(shard);
  firing_ = outer;
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
