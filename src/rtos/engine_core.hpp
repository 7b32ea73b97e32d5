// EngineCore: the discrete-event core behind SimEngine.
//
// The virtual-time engine is split into two layers:
//
//   * `EventQueue` — an indexed 4-ary min-heap (slab records, true O(log n)
//     cancel, generation-checked ids) keyed by a composite 64-bit `key`
//     (see "Ordering"). Heap nodes carry their (when, key) inline, so a sift
//     compares contiguous nodes and never loads a slab record.
//   * `EngineCore` — every shard's heap, pending cross-shard messages, clock
//     and sequence counter, executed on the calling thread in one global
//     (when, key) order. A winner tree over the shards' cached heads names
//     the next shard in O(1) and is repaired in O(log shards) per change.
//     `SimEngine` (sim_engine.hpp) is the facade every subsystem programs
//     against, bound to one shard of a core.
//
// Ordering — the (time, seq, shard) total order
// ---------------------------------------------
// Every event carries a composite key `(seq << kShardIdBits) | shard` where
// `seq` is a per-shard monotone counter of the shard that *scheduled* the
// event and `shard` is that scheduling shard's id. Events fire in
// (when, key) order, i.e. ties on `when` break by (seq, shard). This order
// is total (keys are globally unique — the shard id is embedded) and each
// shard's counter advances only with that shard's own execution, so a
// shard's key sequence does not depend on how its peers interleave. With a
// single shard the composite reduces to plain insertion order.
//
// Cross-shard sends have a minimum latency, the `lookahead` (derived from
// LatencyModel::min_cross_group_latency()): a send from shard s lands no
// earlier than now(s) + lookahead. Shards (CPU groups, federation nodes)
// therefore exchange traffic with the same causality rule a distributed
// deployment would impose.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "rtos/ipc.hpp"
#include "util/types.hpp"

namespace drt::rtos {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Shard (CPU-group / node) index within an engine.
using ShardId = std::uint32_t;

/// Bits of the composite event key reserved for the scheduling shard's id.
/// 8 bits = up to 256 shards, sized for federation benches at 256 nodes
/// (one engine shard per node).
inline constexpr unsigned kShardIdBits = 8;
inline constexpr std::size_t kMaxShards = std::size_t{1} << kShardIdBits;

/// Move-only callable with inline storage for small captures; larger
/// callables transparently fall back to a single heap allocation. The
/// kernel's event callbacks all fit inline.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for std::function.
  EventFn(F&& fn) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      vtable_ = &kInlineVTable<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      vtable_ = &kHeapVTable<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { vtable_->invoke(storage_); }
  [[nodiscard]] explicit operator bool() const { return vtable_ != nullptr; }

  void reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void* storage);
    void (*relocate)(void* from, void* to) noexcept;  ///< move, destroy src
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr VTable kInlineVTable = {
      [](void* s) { (*static_cast<Fn*>(s))(); },
      [](void* from, void* to) noexcept {
        ::new (to) Fn(std::move(*static_cast<Fn*>(from)));
        static_cast<Fn*>(from)->~Fn();
      },
      [](void* s) noexcept { static_cast<Fn*>(s)->~Fn(); },
  };

  template <typename Fn>
  static constexpr VTable kHeapVTable = {
      [](void* s) { (**static_cast<Fn**>(s))(); },
      [](void* from, void* to) noexcept {
        ::new (to) Fn*(*static_cast<Fn**>(from));
      },
      [](void* s) noexcept { delete *static_cast<Fn**>(s); },
  };

  void move_from(EventFn& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      vtable_->relocate(other.storage_, storage_);
      other.vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const VTable* vtable_ = nullptr;
};

/// (when, key) position of a pending work item in the engine's total order.
/// The default value is the empty position, later than every real item.
struct EventKey {
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  SimTime when = kSimTimeNever;
  std::uint64_t key = kNone;  ///< composite (seq << kShardIdBits) | src shard

  [[nodiscard]] bool empty() const { return key == kNone; }
  [[nodiscard]] friend bool operator<(const EventKey& a, const EventKey& b) {
    return a.when != b.when ? a.when < b.when : a.key < b.key;
  }
  [[nodiscard]] friend bool operator==(const EventKey& a, const EventKey& b) {
    return a.when == b.when && a.key == b.key;
  }
};

/// Host-side work counts of one EngineCore. They describe how the engine
/// runs, not what it simulates, and live outside every metrics registry, so
/// no export changes with them.
struct EngineWork {
  std::uint64_t events_fired = 0;   ///< events and messages executed
  std::uint64_t sift_steps = 0;     ///< event-heap levels moved (up or down)
  std::uint64_t head_compares = 0;  ///< shard-head winner-tree comparisons
};

/// Default cross-shard lookahead when the caller derives none (mirrors
/// LatencyModelConfig::cross_group_min_latency_ns).
inline constexpr SimDuration kDefaultLookahead = 250'000;

struct EngineConfig {
  /// Event shards (CPU groups / nodes), interleaved in global (when, key)
  /// order on the calling thread.
  std::size_t shards = 1;
  /// Minimum cross-shard latency (ns of virtual time). Cross-shard sends are
  /// clamped to arrive at least this far in the sender's future.
  /// <= 0 selects kDefaultLookahead.
  SimDuration lookahead = 0;
};

/// Per-shard delivery hook for cross-shard *message* sends (the pooled
/// zero-copy path). The kernel owning a shard registers itself here; the
/// engine then hands posted Messages to `deliver(ctx, target, msg)` when
/// they come due on that shard — for the kernel that means
/// `mailbox_send(*static_cast<Mailbox*>(target), ...)`.
struct MessageSink {
  void (*deliver)(void* ctx, void* target, Message message) = nullptr;
  void* ctx = nullptr;
};

// ---------------------------------------------------------------------------
// EventQueue: one shard's indexed 4-ary heap (slab records + generation ids)
// ---------------------------------------------------------------------------

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(EventQueue&&) = default;
  EventQueue& operator=(EventQueue&&) = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Inserts an event with an externally composed ordering key. Returns an
  /// id encoding (shard, generation, slot) — see encode_id().
  EventId push(ShardId shard, SimTime when, std::uint64_t key, EventFn fn);

  /// O(log n) true removal; stale or foreign ids are a harmless no-op.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Position of the earliest event; empty when the queue is.
  [[nodiscard]] EventKey top() const {
    return heap_.empty() ? EventKey{} : heap_[0].at;
  }

  /// Heap levels moved by every sift so far (see EngineWork).
  [[nodiscard]] std::uint64_t sift_steps() const { return sift_steps_; }

  /// Removes and returns the earliest event's callback. The slot is released
  /// before the callback is returned, so invoking it may freely schedule new
  /// events (reusing the slot under a fresh generation).
  EventFn pop();

  // EventId layout: [shard:8][generation:27][slot+1:29]. kInvalidEvent (0)
  // never collides because slot+1 is non-zero. Generations wrap at 2^27;
  // cancel() masks both sides, so a stale id can only alias after 2^27
  // reuses of one slot between schedule and cancel — beyond any real run.
  static constexpr unsigned kSlotBits = 29;
  static constexpr unsigned kGenerationBits = 64 - kSlotBits - kShardIdBits;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kGenerationMask =
      (1ull << kGenerationBits) - 1;

  [[nodiscard]] static EventId encode_id(ShardId shard,
                                         std::uint32_t generation,
                                         std::uint32_t slot) {
    return (static_cast<EventId>(shard) << (kSlotBits + kGenerationBits)) |
           (static_cast<EventId>(generation & kGenerationMask) << kSlotBits) |
           (static_cast<EventId>(slot) + 1);
  }
  [[nodiscard]] static ShardId shard_of(EventId id) {
    return static_cast<ShardId>(id >> (kSlotBits + kGenerationBits));
  }

 private:
  struct Record {
    EventFn callback;
    std::uint32_t heap_pos = kNoPos;
    std::uint32_t generation = 0;
  };
  /// One heap entry: the ordering key inline, the record slot alongside.
  struct Node {
    EventKey at;
    std::uint32_t slot = 0;
  };
  static constexpr std::uint32_t kNoPos = 0xffff'ffffu;

  /// Stores `node` at heap position `pos` and tells its record where it is.
  void place(std::size_t pos, const Node& node) {
    heap_[pos] = node;
    slab_[node.slot].heap_pos = static_cast<std::uint32_t>(pos);
  }
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void heap_fix(std::size_t pos);
  void heap_erase(std::size_t pos);
  void release_slot(std::uint32_t slot);

  std::vector<Record> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Node> heap_;  ///< 4-ary min-heap by `at`
  std::uint64_t sift_steps_ = 0;
};

// ---------------------------------------------------------------------------
// ShardCore: everything one shard owns (heap, pending messages, clock, seq)
// ---------------------------------------------------------------------------

/// A cross-shard message awaiting delivery on its destination shard, ordered
/// by the same (when, key) total order as heap events.
struct PendingMessage {
  EventKey at;
  void* target = nullptr;  ///< opaque handle passed through to the sink
  Message message;
};

struct ShardCore {
  EventQueue queue;
  /// Binary min-heap by (when, key); kept separate from the EventQueue so
  /// message hand-off needs no EventFn capture (and thus no allocation).
  std::vector<PendingMessage> messages;
  MessageSink sink;
  SimTime now = 0;
  std::uint64_t next_seq = 1;
  ShardId shard = 0;

  [[nodiscard]] std::uint64_t make_key() {
    return (next_seq++ << kShardIdBits) | shard;
  }

  /// Position of the earliest pending work (event or message); empty when
  /// the shard has none.
  [[nodiscard]] EventKey head() const;
  [[nodiscard]] std::size_t pending() const {
    return queue.size() + messages.size();
  }

  void msg_push(PendingMessage item);
  /// Executes the earliest pending work item and advances `now` to it.
  void fire_min();
};

// ---------------------------------------------------------------------------
// EngineCore: every shard, executed in one global (when, key) order
// ---------------------------------------------------------------------------

class EngineCore {
 public:
  explicit EngineCore(const EngineConfig& config);
  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  [[nodiscard]] std::size_t shards() const { return cores_.size(); }
  [[nodiscard]] SimDuration lookahead() const { return lookahead_; }
  [[nodiscard]] SimTime now(ShardId shard) const { return cores_[shard].now; }
  [[nodiscard]] std::size_t pending_events_total() const;
  /// Cross-shard messages posted but not yet delivered to a MessageSink,
  /// summed over every shard's pending-message heap. Used by the federation
  /// layer's message-conservation invariant.
  [[nodiscard]] std::size_t pending_messages_total() const;
  [[nodiscard]] bool idle() const { return pending_events_total() == 0; }

  void set_message_sink(ShardId shard, MessageSink sink) {
    cores_[shard].sink = sink;
  }

  /// Schedules onto `target` from the context of `ctx` (the shard whose seq
  /// counter stamps the key). Cross-shard (`ctx != target`) schedules are
  /// clamped to `when >= now(ctx) + lookahead` and are not cancellable (they
  /// return kInvalidEvent).
  EventId schedule(ShardId ctx, ShardId target, SimTime when, EventFn fn);

  /// Cross-shard message hand-off (the pooled zero-copy path): delivers
  /// `message` to `target` shard's MessageSink at
  /// `max(when, now(ctx) + lookahead)` in (when, key) order.
  void post_message(ShardId ctx, ShardId target, SimTime when,
                    void* sink_target, Message message);

  void cancel(EventId id);

  /// Runs every shard until no work <= `deadline` remains; every shard's
  /// clock ends at `deadline` (or its last event time if later).
  std::size_t run_until(SimTime deadline);

  /// Drains every shard; `max_events` is a runaway guard. Every shard's
  /// clock ends at the global last fired time.
  std::size_t run_to_completion(std::size_t max_events);

  /// Work done so far (events fired, heap sift steps, head comparisons).
  [[nodiscard]] EngineWork work() const;

 private:
  static constexpr ShardId kNoShard = ~ShardId{0};

  /// Fires the winner tree's shard when its head is due at or before
  /// `deadline`; false otherwise.
  bool fire_next(SimTime deadline);
  [[nodiscard]] SimTime clamp_cross(ShardId ctx, SimTime when) const;
  /// Advances every shard clock that is behind to `to` (called only when no
  /// work <= `to` remains anywhere).
  void finish_clocks(SimTime to);

  // Shard-head tournament. heads_[s] caches cores_[s].head() for every shard
  // except the one firing (its leaf is re-read once its item returns);
  // tree_ is a winner tree over heads_: leaf s sits at tree_[leaves_ + s]
  // and tree_[1] names the shard whose head is globally earliest.
  /// `at` was just queued on `shard`: promote it when it beats the head.
  void note_queued(ShardId shard, const EventKey& at);
  /// Re-reads `shard`'s head and repairs the tree when it moved.
  void refresh(ShardId shard);
  /// Recomputes the winners on the path from `shard`'s leaf to the root.
  void replay(ShardId shard);
  [[nodiscard]] bool before(ShardId a, ShardId b) {
    ++head_compares_;
    return heads_[a] < heads_[b];
  }

  std::vector<ShardCore> cores_;
  SimDuration lookahead_ = kDefaultLookahead;
  std::size_t leaves_ = 1;  ///< shard count rounded up to a power of two
  std::vector<EventKey> heads_;  ///< leaves_ entries; padding stays empty
  std::vector<ShardId> tree_;    ///< 2 * leaves_ entries; [0] unused
  ShardId firing_ = kNoShard;
  std::uint64_t events_fired_ = 0;
  std::uint64_t head_compares_ = 0;
};

}  // namespace drt::rtos
