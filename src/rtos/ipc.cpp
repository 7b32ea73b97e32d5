#include "rtos/ipc.hpp"

#include <algorithm>
#include <bit>
#include <new>
#include <vector>

#include "rtos/task.hpp"

namespace drt::rtos {

// ------------------------------------------------------------------- Shm --

bool Shm::write(std::size_t offset, std::span<const std::byte> bytes,
                SimTime when) {
  // Two-step check: `offset + bytes.size()` can wrap around for offsets near
  // SIZE_MAX, which would make the naive comparison pass.
  if (offset > data_.size() || bytes.size() > data_.size() - offset) {
    return false;
  }
  if (!bytes.empty()) {
    std::memcpy(data_.data() + offset, bytes.data(), bytes.size());
  }
  ++version_;
  last_write_time_ = when;
  return true;
}

bool Shm::read(std::size_t offset, std::span<std::byte> out) const {
  if (offset > data_.size() || out.size() > data_.size() - offset) {
    return false;
  }
  if (!out.empty()) {
    std::memcpy(out.data(), data_.data() + offset, out.size());
  }
  return true;
}

bool Shm::write_i32(std::size_t index, std::int32_t value, SimTime when) {
  std::byte buffer[4];
  std::memcpy(buffer, &value, 4);
  return write(index * 4, buffer, when);
}

std::optional<std::int32_t> Shm::read_i32(std::size_t index) const {
  std::byte buffer[4];
  if (!read(index * 4, buffer)) return std::nullopt;
  std::int32_t value = 0;
  std::memcpy(&value, buffer, 4);
  return value;
}

bool Shm::write_byte(std::size_t index, std::byte value, SimTime when) {
  return write(index, {&value, 1}, when);
}

std::optional<std::byte> Shm::read_byte(std::size_t index) const {
  std::byte value{};
  if (!read(index, {&value, 1})) return std::nullopt;
  return value;
}

bool Shm::write_i32_span(std::size_t index, std::span<const std::int32_t> values,
                         SimTime when) {
  if (index > data_.size() / 4) return false;
  return write(index * 4, std::as_bytes(values), when);
}

bool Shm::read_i32_span(std::size_t index, std::span<std::int32_t> out) const {
  if (index > data_.size() / 4) return false;
  return read(index * 4, std::as_writable_bytes(out));
}

// ----------------------------------------------------------- MessagePool --

namespace {

[[nodiscard]] std::size_t class_bytes(std::size_t size_class) {
  return MessagePool::kMinSlabBytes << size_class;
}

[[nodiscard]] MessagePool::Slab* new_slab(std::size_t payload_bytes) {
  void* raw = ::operator new(sizeof(MessagePool::Slab) + payload_bytes);
  auto* slab = new (raw) MessagePool::Slab();
  slab->capacity = payload_bytes;
  return slab;
}

void delete_slab(MessagePool::Slab* slab) {
  slab->~Slab();
  ::operator delete(slab);
}

}  // namespace

MessagePool::Slab* MessagePool::acquire_slow(std::size_t bytes,
                                             int size_class) {
  Slab* slab;
  if (size_class < 0) {
    // Oversize: straight heap round-trip, never cached.
    slab = new_slab(bytes);
    slab->size_class = -1;
    ++stats_.oversize;
  } else {
    slab = new_slab(class_bytes(static_cast<std::size_t>(size_class)));
    slab->size_class = size_class;
  }
  slab->refs = 1;
  ++stats_.heap_allocations;
  ++stats_.live_slabs;
  return slab;
}

void MessagePool::release_oversize(Slab* slab) { delete_slab(slab); }

void MessagePool::trim() {
  for (Slab*& head : free_lists_) {
    while (head != nullptr) {
      Slab* next = head->next_free;
      --stats_.free_slabs;
      stats_.free_bytes -= head->capacity;
      delete_slab(head);
      head = next;
    }
  }
}

// --------------------------------------------------------------- Message --

Message message_from_string(std::string_view text) {
  return Message(text.data(), text.size());
}

std::string message_to_string(const Message& message) {
  return std::string(message_view(message));
}

// ------------------------------------------------------------- WaitQueue --

void WaitQueue::push_back(Task& task) {
  task.wait_next = nullptr;
  task.wait_prev = tail_;
  if (tail_ != nullptr) {
    tail_->wait_next = &task;
  } else {
    head_ = &task;
  }
  tail_ = &task;
  task.wait_queue = this;
  ++count_;
}

void WaitQueue::remove(Task& task) {
  if (task.wait_queue != this) return;  // not linked here: harmless no-op
  if (task.wait_prev != nullptr) {
    task.wait_prev->wait_next = task.wait_next;
  } else {
    head_ = task.wait_next;
  }
  if (task.wait_next != nullptr) {
    task.wait_next->wait_prev = task.wait_prev;
  } else {
    tail_ = task.wait_prev;
  }
  task.wait_next = nullptr;
  task.wait_prev = nullptr;
  task.wait_queue = nullptr;
  --count_;
}

Task* WaitQueue::pop_front() {
  Task* task = head_;
  if (task != nullptr) remove(*task);
  return task;
}

// --------------------------------------------------------------- Mailbox --

Mailbox::Mailbox(std::string name, std::size_t capacity)
    : name_(std::move(name)), capacity_(capacity) {
  if (capacity_ > 0) {
    ring_.resize(std::bit_ceil(capacity_));
    mask_ = ring_.size() - 1;
  }
}

bool Mailbox::push(Message message) {
  if (full()) {
    ++dropped_;
    return false;
  }
  ring_[(head_ + count_) & mask_] = std::move(message);
  ++count_;
  ++sent_;
  return true;
}

std::optional<Message> Mailbox::pop() {
  if (count_ == 0) return std::nullopt;
  Message out = std::move(ring_[head_ & mask_]);
  ++head_;
  --count_;
  ++received_;
  return out;
}

}  // namespace drt::rtos
