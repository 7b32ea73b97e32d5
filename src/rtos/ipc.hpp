// RTAI-style inter-process communication: named shared memory and mailboxes.
//
// The paper's prototype supports exactly two inter-component interfaces —
// RTAI.SHM and RTAI.Mailbox (§2.3) — and routes all inter-real-time-component
// communication directly through the RT kernel rather than the OSGi registry
// (§3.3). These are the C++ equivalents. SHM is a versioned byte array with
// typed accessors; Mailbox is a bounded FIFO of byte messages with
// asynchronous (never-blocking) send, which is what §3.2 prescribes for the
// management command channel.
//
// Message lifetime & pooling
// --------------------------
// The mailbox path sits under every inter-component byte the framework
// moves, so it must be allocation-free in steady state (the timeliness
// argument of Cano & García-Valls: bounded channel operations). A `Message`
// stores payloads of up to kInlineCapacity bytes in-place; larger payloads
// live in reference-counted slabs acquired from the process-wide
// `MessagePool`, a size-class free-list allocator that recycles released
// slabs instead of returning them to the heap. Copying a Message shares the
// slab (refcount bump, no copy); moving transfers it. Mailboxes themselves
// queue messages in a fixed power-of-two ring buffer, so a steady
// send/receive stream performs zero heap allocations: either the buffer is
// handed directly to a parked receiver (rendezvous) or it moves into a
// pre-sized ring slot.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"
#include "util/types.hpp"

namespace drt::rtos {

struct Task;
class RtKernel;
class Message;

/// Port data types from the descriptor schema (§2.3: "integer or byte").
enum class DataType { kByte, kInteger };

[[nodiscard]] constexpr const char* to_string(DataType type) {
  return type == DataType::kByte ? "Byte" : "Integer";
}

[[nodiscard]] constexpr std::size_t element_size(DataType type) {
  return type == DataType::kByte ? 1 : 4;
}

/// Named shared-memory segment (rt_shm_alloc equivalent).
class Shm {
 public:
  Shm(std::string name, std::size_t size_bytes)
      : name_(std::move(name)), data_(size_bytes, std::byte{0}) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  /// Whole-segment or ranged raw access. Out-of-range (including offsets
  /// where offset + size would overflow) => false, no effect.
  bool write(std::size_t offset, std::span<const std::byte> bytes,
             SimTime when = 0);
  bool read(std::size_t offset, std::span<std::byte> out) const;

  /// Typed accessors (little-endian 32-bit for kInteger).
  bool write_i32(std::size_t index, std::int32_t value, SimTime when = 0);
  [[nodiscard]] std::optional<std::int32_t> read_i32(std::size_t index) const;
  bool write_byte(std::size_t index, std::byte value, SimTime when = 0);
  [[nodiscard]] std::optional<std::byte> read_byte(std::size_t index) const;

  /// Bulk typed accessors: one range check + one memcpy for a whole span of
  /// 32-bit slots (the fast path for block transfers between components).
  bool write_i32_span(std::size_t index, std::span<const std::int32_t> values,
                      SimTime when = 0);
  bool read_i32_span(std::size_t index, std::span<std::int32_t> out) const;

  /// Monotonic write counter — lets a consumer detect fresh data without
  /// locking (the classic seqlock-light pattern used on RTAI shm).
  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] SimTime last_write_time() const { return last_write_time_; }

 private:
  std::string name_;
  std::vector<std::byte> data_;
  std::uint64_t version_ = 0;
  SimTime last_write_time_ = 0;
};

// ---------------------------------------------------------------------------
// Message buffers
// ---------------------------------------------------------------------------

/// Slab allocator for out-of-line message payloads. Slabs are bucketed into
/// power-of-two size classes and recycled through per-class free lists, so
/// steady-state message traffic never reaches operator new. Oversize
/// payloads (> kMaxPooledBytes) fall through to the heap and are freed on
/// release.
///
/// Threading: none. Every message is created, shared and released on the
/// thread that runs the virtual-time engine, so there is one process-wide
/// pool with plain refcounts and plain statistics counters.
class MessagePool {
 public:
  /// Smallest slab payload. Anything that fits inline never gets here.
  static constexpr std::size_t kMinSlabBytes = 64;
  /// Largest pooled payload; beyond this, slabs are heap round-trips.
  static constexpr std::size_t kMaxPooledBytes = 64 * 1024;

  struct Slab {
    std::uint32_t refs = 0;       ///< Messages sharing this payload
    std::int32_t size_class = 0;  ///< index into free_lists_; <0 = unpooled
    std::size_t capacity = 0;     ///< payload bytes
    Slab* next_free = nullptr;
    [[nodiscard]] std::byte* data() {
      return reinterpret_cast<std::byte*>(this + 1);
    }
  };

  struct Stats {
    std::uint64_t heap_allocations = 0;  ///< slabs obtained via operator new
    std::uint64_t reuses = 0;            ///< acquisitions served from a free list
    std::uint64_t oversize = 0;          ///< unpooled (oversize) acquisitions
    std::size_t live_slabs = 0;          ///< currently owned by Messages
    std::size_t free_slabs = 0;          ///< cached, ready for reuse
    std::size_t free_bytes = 0;          ///< payload bytes held in the cache
  };

  /// The process-wide pool.
  static MessagePool& instance() {
    static MessagePool pool;
    return pool;
  }

  /// Occupancy snapshot.
  [[nodiscard]] Stats stats() const { return stats_; }

  /// Releases every cached slab back to the heap (tests; memory pressure).
  /// Live slabs are unaffected.
  void trim();

  ~MessagePool() { trim(); }

 private:
  friend class Message;
  MessagePool() = default;

  /// Size class of a payload (0 for <= 64 B, 1 for <= 128 B, ...); -1 when
  /// the payload is above kMaxPooledBytes (unpooled).
  [[nodiscard]] static int class_of(std::size_t bytes) {
    if (bytes > kMaxPooledBytes) return -1;
    const std::size_t rounded =
        std::bit_ceil(bytes > kMinSlabBytes ? bytes : kMinSlabBytes);
    return std::countr_zero(rounded) - std::countr_zero(kMinSlabBytes);
  }

  /// Hot path, inline: serve from the size-class free list. Misses (empty
  /// list, oversize) go out of line to the heap.
  [[nodiscard]] Slab* acquire(std::size_t bytes) {
    const int size_class = class_of(bytes);
    if (size_class >= 0) {
      Slab*& head = free_lists_[static_cast<std::size_t>(size_class)];
      if (Slab* slab = head) {
        head = slab->next_free;
        slab->next_free = nullptr;
        slab->refs = 1;
        ++stats_.reuses;
        ++stats_.live_slabs;
        --stats_.free_slabs;
        stats_.free_bytes -= slab->capacity;
        return slab;
      }
    }
    return acquire_slow(bytes, size_class);
  }
  static void add_ref(Slab* slab) { ++slab->refs; }
  /// Hot path, inline: the last owner pushes the slab onto its free list.
  void release(Slab* slab) {
    if (--slab->refs != 0) return;
    --stats_.live_slabs;
    if (slab->size_class >= 0) {
      Slab*& head = free_lists_[static_cast<std::size_t>(slab->size_class)];
      slab->next_free = head;
      head = slab;
      ++stats_.free_slabs;
      stats_.free_bytes += slab->capacity;
    } else {
      release_oversize(slab);
    }
  }

  [[nodiscard]] Slab* acquire_slow(std::size_t bytes, int size_class);
  static void release_oversize(Slab* slab);

  static constexpr std::size_t kClasses = 11;  // 64 .. 64Ki
  Slab* free_lists_[kClasses] = {};
  Stats stats_;
};

/// A mailbox payload: small-buffer-optimised, pool-backed byte buffer.
/// Payloads of up to kInlineCapacity bytes live inside the object; larger
/// ones in a shared MessagePool slab. Copies share the slab (the payload is
/// logically immutable once sent); moves transfer it.
class Message {
 public:
  static constexpr std::size_t kInlineCapacity = 48;

  Message() noexcept : size_(0) {}
  /// Uninitialised buffer of `size` bytes (fill through data()).
  explicit Message(std::size_t size) : size_(size) {
    if (size_ > kInlineCapacity) {
      slab_ = MessagePool::instance().acquire(size_);
    }
  }
  /// Buffer initialised from `bytes` (memcpy; nullptr allowed when size 0).
  Message(const void* bytes, std::size_t size) : Message(size) {
    if (size > 0) std::memcpy(data(), bytes, size);
  }

  Message(const Message& other) noexcept : size_(other.size_) {
    if (other.is_slab()) {
      slab_ = other.slab_;
      MessagePool::add_ref(slab_);
    } else if (size_ > 0) {
      copy_inline(other.inline_, size_);
    }
  }
  Message(Message&& other) noexcept : size_(other.size_) {
    if (other.is_slab()) {
      slab_ = other.slab_;
    } else if (size_ > 0) {
      copy_inline(other.inline_, size_);
    }
    other.size_ = 0;
  }
  Message& operator=(const Message& other) noexcept {
    if (this != &other) {
      Message copy(other);
      *this = std::move(copy);
    }
    return *this;
  }
  Message& operator=(Message&& other) noexcept {
    if (this != &other) {
      reset();
      size_ = other.size_;
      if (other.is_slab()) {
        slab_ = other.slab_;
      } else if (size_ > 0) {
        copy_inline(other.inline_, size_);
      }
      other.size_ = 0;
    }
    return *this;
  }
  ~Message() { reset(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::byte* data() {
    return is_slab() ? slab_->data() : inline_;
  }
  [[nodiscard]] const std::byte* data() const {
    return is_slab() ? slab_->data() : inline_;
  }
  [[nodiscard]] std::span<const std::byte> bytes() const {
    return {data(), size_};
  }
  [[nodiscard]] std::span<std::byte> bytes() { return {data(), size_}; }

  /// True when the payload lives inside the object (no slab involved).
  [[nodiscard]] bool inline_storage() const { return !is_slab(); }

 private:
  [[nodiscard]] bool is_slab() const { return size_ > kInlineCapacity; }
  void copy_inline(const std::byte* from, std::size_t n) {
    std::memcpy(inline_, from, n);
  }
  void reset() {
    if (is_slab()) MessagePool::instance().release(slab_);
    size_ = 0;
  }

  std::size_t size_;
  union {
    std::byte inline_[kInlineCapacity];
    MessagePool::Slab* slab_;
  };
};

/// Helpers for string payloads (management command channel). Compatibility
/// shims from the std::vector<std::byte> era — descriptor-level code is
/// unchanged by the pooled buffer type.
[[nodiscard]] Message message_from_string(std::string_view text);
[[nodiscard]] std::string message_to_string(const Message& message);
/// Zero-copy view of the payload as text (valid while `message` lives).
[[nodiscard]] inline std::string_view message_view(const Message& message) {
  return {reinterpret_cast<const char*>(message.data()), message.size()};
}

// ---------------------------------------------------------------------------
// Wait queues & mailboxes
// ---------------------------------------------------------------------------

/// Intrusive FIFO of tasks blocked on an IPC object. Links live in the Task
/// control block (wait_next/wait_prev), so enqueue, dequeue and mid-queue
/// removal (suspend/delete/timeout) are pointer splices — no allocation on
/// the block/wake path.
class WaitQueue {
 public:
  void push_back(Task& task);
  /// O(1) unlink; no-op when the task is not in this queue.
  void remove(Task& task);
  /// Oldest waiter, unlinked; nullptr when empty.
  Task* pop_front();

  [[nodiscard]] bool empty() const { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const { return count_; }

 private:
  Task* head_ = nullptr;
  Task* tail_ = nullptr;
  std::size_t count_ = 0;
};

/// Bounded mailbox (rt_mbx equivalent). Send is asynchronous and fails fast
/// when full; receive can be polled (try_receive) or awaited from a task
/// coroutine (TaskContext::receive). Messages queue in a fixed power-of-two
/// ring buffer sized at creation; a capacity of 0 makes the mailbox
/// rendezvous-only (sends succeed only by direct handoff to a parked
/// receiver).
class RtKernel;

/// Destination descriptor for cross-shard message delivery (the engine's
/// MessageSink path). The engine carries an opaque `void*` per posted
/// message; that pointer is a RemoteTarget, and the receiving kernel
/// dispatches through it on its own shard context. Every Mailbox embeds one
/// (remote_send targets mailboxes directly); the federation channel layer
/// supplies its own so deliveries can be re-routed by name and counted
/// per channel. The RemoteTarget must outlive any in-flight message that
/// references it.
struct RemoteTarget {
  void (*deliver)(RtKernel& kernel, void* owner, Message message) = nullptr;
  void* owner = nullptr;
};

class Mailbox {
 public:
  Mailbox(std::string name, std::size_t capacity);
  // In-flight remote_sends hold a pointer to remote_: pin the address.
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// This mailbox's cross-shard delivery descriptor (dispatches into the
  /// owning kernel's mailbox_send on arrival).
  [[nodiscard]] RemoteTarget& remote_target() { return remote_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] bool full() const { return count_ >= capacity_; }

  /// Accepted sends (queued + handed off).
  [[nodiscard]] std::uint64_t sent_count() const { return sent_; }
  /// Sends rejected because the queue was full and no receiver waited.
  [[nodiscard]] std::uint64_t dropped_count() const { return dropped_; }
  /// Sends that bypassed the queue into a waiting receiver (subset of sent).
  [[nodiscard]] std::uint64_t handoff_count() const { return handoff_; }
  /// Messages taken out by receivers (handoffs + queue pops). Conservation
  /// law checked by the fuzzer's oracle: sent == received + size().
  [[nodiscard]] std::uint64_t received_count() const { return received_; }
  /// Sends discarded by an armed FaultPlan (the sender saw success).
  [[nodiscard]] std::uint64_t fault_dropped_count() const {
    return fault_dropped_;
  }
  /// Extra deliveries manufactured by duplicate-message faults.
  [[nodiscard]] std::uint64_t fault_duplicated_count() const {
    return fault_duplicated_;
  }
  [[nodiscard]] std::size_t waiting_count() const { return waiting_.size(); }

 private:
  friend class RtKernel;
  // Raw queue ops; waiting-task wakeups are the kernel's job, so the mailbox
  // only exposes them to it.
  bool push(Message message);
  std::optional<Message> pop();

  /// RemoteTarget thunk: forwards into kernel.mailbox_send(*owner, ...).
  /// Defined in kernel.cpp (needs the complete RtKernel).
  static void remote_deliver(RtKernel& kernel, void* owner, Message message);

  RemoteTarget remote_{&Mailbox::remote_deliver, this};
  std::string name_;
  std::size_t capacity_;
  std::vector<Message> ring_;  ///< power-of-two slots (empty for capacity 0)
  std::size_t mask_ = 0;
  std::size_t head_ = 0;  ///< absolute pop index (masked on access)
  std::size_t count_ = 0;
  WaitQueue waiting_;  ///< FIFO of blocked receivers (kernel-managed)
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t handoff_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t fault_dropped_ = 0;
  std::uint64_t fault_duplicated_ = 0;
};

/// Counting semaphore (rt_sem equivalent) — the paper's §6 notes "limited
/// communication support between real-time tasks"; semaphores extend the IPC
/// set beyond SHM + mailboxes. Waiters queue FIFO; signal wakes the first
/// waiter directly (no thundering herd). All waiting/waking policy lives in
/// the kernel.
class Semaphore {
 public:
  Semaphore(std::string name, int initial)
      : name_(std::move(name)), count_(initial) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int count() const { return count_; }
  [[nodiscard]] std::size_t waiting_count() const { return waiting_.size(); }

 private:
  friend class RtKernel;
  std::string name_;
  int count_;
  WaitQueue waiting_;
};

}  // namespace drt::rtos
