#include "calibration.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace e2e {
namespace {

/// A miniature discrete-event engine: periodic tasks behind virtual calls
/// (a third of them through a std::function), released from a binary
/// min-heap of (time, task), each job adding into its task's state and
/// into one random slot of a table larger than a core's private caches.
/// Everything is allocated when the kernel is built and never freed or
/// resized, so a slice's cost does not depend on the program's heap.
class Kernel {
 public:
  Kernel() : table_(kTableSlots, 1) {
    tasks_.reserve(kTasks);
    queue_.reserve(kTasks);
    for (std::uint32_t i = 0; i < kTasks; ++i) {
      const std::uint64_t period = 1000 + (i * 7919u) % 9000;
      if (i % 3 == 0) {
        tasks_.push_back(std::make_unique<Callback>(
            period, [period](std::uint64_t now) { return period + (now & 7); }));
      } else {
        tasks_.push_back(std::make_unique<Periodic>(period));
      }
      queue_.emplace_back(i, i);
    }
    std::make_heap(queue_.begin(), queue_.end(), std::greater<>());
  }

  std::uint64_t slice() {
    std::uint64_t sum = 0;
    for (int step = 0; step < kSliceEvents; ++step) {
      std::pop_heap(queue_.begin(), queue_.end(), std::greater<>());
      auto& [when, id] = queue_.back();
      Task& task = *tasks_[id];
      const std::uint64_t next = task.fire(when);
      random_ ^= random_ << 13;
      random_ ^= random_ >> 7;
      random_ ^= random_ << 17;
      sum += table_[random_ % kTableSlots] += when;
      when += next;
      std::push_heap(queue_.begin(), queue_.end(), std::greater<>());
    }
    return sum;
  }

 private:
  static constexpr std::uint32_t kTasks = 8192;
  static constexpr std::size_t kTableSlots = (4u << 20) / 8;  // 4 MiB
  static constexpr int kSliceEvents = 3000;

  struct Task {
    explicit Task(std::uint64_t period) : period(period) {}
    virtual ~Task() = default;
    /// Runs one job released at `now`; returns the time to the next one.
    virtual std::uint64_t fire(std::uint64_t now) = 0;
    std::uint64_t period;
    std::uint64_t state[5] = {};
  };
  struct Periodic final : Task {
    using Task::Task;
    std::uint64_t fire(std::uint64_t now) override {
      state[now % 5] += now;
      return period;
    }
  };
  struct Callback final : Task {
    Callback(std::uint64_t period,
             std::function<std::uint64_t(std::uint64_t)> body)
        : Task(period), body(std::move(body)) {}
    std::uint64_t fire(std::uint64_t now) override {
      state[1] ^= now;
      return body(now);
    }
    std::function<std::uint64_t(std::uint64_t)> body;
  };

  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> queue_;
  std::vector<std::uint64_t> table_;
  std::uint64_t random_ = 0x2545f4914f6cdd1dull;
};

volatile std::uint64_t g_sink = 0;

}  // namespace

double calibration_slice_ns() {
  static Kernel kernel;
  const std::int64_t start = cpu_ns();
  g_sink = g_sink + kernel.slice();
  return static_cast<double>(cpu_ns() - start);
}

}  // namespace e2e
