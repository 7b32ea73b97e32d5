// IPC fast-path throughput: host-time cost and heap-allocation count per
// message, at the 64 B payload point (just above Message::kInlineCapacity,
// so the pooled-slab path is exercised).
//
// Two levels are measured:
//
//  * Channel models (container level, no scheduler): the seed implementation
//    rebuilt in-binary — one std::vector<std::byte> heap buffer per message
//    through a std::deque, with the by-value trace-detail string the seed
//    Trace::add copied per op — against the pooled Message moving through a
//    power-of-two ring with a zero-copy message_view read. The seed's
//    string-framed row adds the message_from_string/message_to_string
//    conversion copies that every management-channel transfer performed
//    before this change (hybrid.cpp now reads commands via message_view).
//
//  * Kernel API (the real code): mailbox_send/try_receive on the queued
//    path, and full simulations of 1-to-1 rendezvous (every send is a
//    direct handoff into the parked receiver's result slot) and 4-to-1
//    fan-in. These must run allocation-free in steady state.
//
// Allocations are counted by a global operator new/delete replacement local
// to this binary.
//
// Flags:
//   --json <path>  machine-readable report (bench_common.hpp format)
//   --check        also gate on the >= 5x host-time ratio against the seed
//                  transfer; without it the ratio is printed but only the
//                  0-allocations-per-message count sets the exit code
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <new>
#include <optional>
#include <vector>

#include "bench_common.hpp"

// ---------------------------------------------------------------------------
// Counting-allocator hook (this translation unit only).
// ---------------------------------------------------------------------------

namespace {
std::uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  const auto alignment = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(
          alignment, (size + alignment - 1) & ~(alignment - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace drt::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kPayloadBytes = 64;  // > Message::kInlineCapacity
constexpr int kReps = 7;                   // batches per scenario

struct PathCost {
  StatSummary ns_per_msg;     ///< host ns per message, one sample per batch
  double allocs_per_msg = 0;  ///< heap allocations per message, last batch
};

/// Runs `batch(n)` kReps times (plus one warm-up) and reports ns/msg across
/// batches plus the allocation count of the final (warmest) batch.
template <typename Batch>
PathCost measure(std::size_t messages_per_batch, Batch&& batch) {
  batch(messages_per_batch / 4);  // warm-up: pools, free lists, tcache
  SampleSeries ns;
  std::uint64_t allocs = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::uint64_t alloc_start = g_allocations;
    const auto start = Clock::now();
    const std::uint64_t messages = batch(messages_per_batch);
    const auto elapsed = Clock::now() - start;
    // Read the counter before SampleSeries::add — its push_back allocates.
    allocs = g_allocations - alloc_start;
    if (messages == 0) std::abort();
    ns.add(static_cast<double>(
               std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                   .count()) /
           static_cast<double>(messages));
  }
  return {ns.summary(), static_cast<double>(allocs) /
                            static_cast<double>(messages_per_batch)};
}

rtos::Message make_payload(std::uint64_t seq) {
  rtos::Message message(kPayloadBytes);
  std::memcpy(message.data(), &seq, sizeof(seq));
  return message;
}

// --------------------------------------------------------- channel models --

/// Seed data plane: vector<byte> buffer + deque queue + the by-value trace
/// detail string + the optional wrap of Mailbox::pop.
PathCost run_seed_raw(std::size_t messages_per_batch) {
  const std::string channel = "chan";
  return measure(messages_per_batch, [&](std::size_t n) {
    std::deque<std::vector<std::byte>> queue;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::vector<std::byte> payload(kPayloadBytes);
      std::memcpy(payload.data(), &i, sizeof(i));
      std::string send_detail(channel);
      asm volatile("" : : "r"(send_detail.data()) : "memory");
      queue.push_back(std::move(payload));
      std::optional<std::vector<std::byte>> received(std::move(queue.front()));
      queue.pop_front();
      std::string recv_detail(channel);
      asm volatile("" : : "r"(recv_detail.data()) : "memory");
      if (received->size() != kPayloadBytes) std::abort();
    }
    return n;
  });
}

/// Seed management-channel idiom: the same transfer framed through
/// message_from_string on send and message_to_string on receive, as every
/// command/response crossing hybrid.cpp did before the zero-copy path.
PathCost run_seed_string_framed(std::size_t messages_per_batch) {
  const std::string channel = "chan";
  const std::string text(kPayloadBytes, 'x');
  return measure(messages_per_batch, [&](std::size_t n) {
    std::deque<std::vector<std::byte>> queue;
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto* bytes = reinterpret_cast<const std::byte*>(text.data());
      std::vector<std::byte> payload(bytes, bytes + text.size());
      std::string send_detail(channel);
      asm volatile("" : : "r"(send_detail.data()) : "memory");
      queue.push_back(std::move(payload));
      std::optional<std::vector<std::byte>> received(std::move(queue.front()));
      queue.pop_front();
      std::string recv_detail(channel);
      asm volatile("" : : "r"(recv_detail.data()) : "memory");
      std::string out(reinterpret_cast<const char*>(received->data()),
                      received->size());
      asm volatile("" : : "r"(out.data()) : "memory");
    }
    return n;
  });
}

/// The new path at the same abstraction level: pooled Message through a
/// power-of-two ring (what Mailbox::push/pop do), read via message_view.
PathCost run_pooled_ring(std::size_t messages_per_batch) {
  return measure(messages_per_batch, [&](std::size_t n) {
    std::vector<rtos::Message> ring(16);
    std::size_t head = 0;
    std::size_t count = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      ring[(head + count) & 15] = make_payload(i);
      ++count;
      rtos::Message received(std::move(ring[head & 15]));
      ++head;
      --count;
      const auto view = rtos::message_view(received);
      asm volatile("" : : "r"(view.data()) : "memory");
      if (received.size() != kPayloadBytes) std::abort();
    }
    return n;
  });
}

// ------------------------------------------------------------- kernel API --

/// Queued path through the real kernel (no receiver waiting).
PathCost run_kernel_queued(std::size_t messages_per_batch) {
  rtos::SimEngine engine;
  rtos::RtKernel kernel(engine, paper_kernel_config(false, 42));
  auto* mailbox = kernel.mailbox_create("queue", 16).value();
  return measure(messages_per_batch, [&](std::size_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      (void)kernel.mailbox_send(*mailbox, make_payload(i));
      auto received = kernel.mailbox_try_receive(*mailbox);
      if (!received || received->size() != kPayloadBytes) std::abort();
    }
    return n;
  });
}

/// Rendezvous path: `senders` periodic producers, one parked aperiodic
/// consumer; every send is a direct handoff into the consumer's result slot.
PathCost run_rendezvous(std::size_t senders, std::size_t messages_per_batch,
                        std::uint64_t* handoffs_out = nullptr) {
  rtos::SimEngine engine;
  rtos::RtKernel kernel(engine, paper_kernel_config(false, 42));
  auto* mailbox = kernel.mailbox_create("rdv", 8).value();
  std::uint64_t received = 0;

  auto consumer = kernel.create_task(
      rtos::TaskParams{.name = "cons",
                       .type = rtos::TaskType::kAperiodic,
                       .priority = 1},
      [&](rtos::TaskContext& ctx) -> rtos::TaskCoro {
        while (!ctx.stop_requested()) {
          auto message = co_await ctx.receive(*mailbox);
          if (message.has_value() && message->size() == kPayloadBytes) {
            ++received;
          }
        }
      });
  (void)kernel.start_task(consumer.value());

  for (std::size_t s = 0; s < senders; ++s) {
    rtos::TaskParams params;
    params.name = "send" + std::to_string(s);
    params.type = rtos::TaskType::kPeriodic;
    params.period = microseconds(100);
    params.priority = 5;
    auto id = kernel.create_task(
        params, [&](rtos::TaskContext& ctx) -> rtos::TaskCoro {
          std::uint64_t seq = 0;
          while (!ctx.stop_requested()) {
            (void)ctx.send(*mailbox, make_payload(++seq));
            co_await ctx.wait_next_period();
          }
        });
    (void)kernel.start_task(id.value());
  }

  const SimDuration batch_span =
      static_cast<SimDuration>(messages_per_batch / senders) *
      microseconds(100);
  const PathCost cost = measure(messages_per_batch, [&](std::size_t) {
    const std::uint64_t before = received;
    engine.run_until(engine.now() + batch_span);
    return received - before;
  });
  if (handoffs_out != nullptr) *handoffs_out = mailbox->handoff_count();
  return cost;
}

// --------------------------------------------------------------- reporting --

void print_path(const std::string& label, const PathCost& cost) {
  print_table_row(label, cost.ns_per_msg);
  std::printf("%-22s %12.4f allocs/msg\n", "", cost.allocs_per_msg);
  StatSummary allocs;
  allocs.average = cost.allocs_per_msg;
  allocs.min = cost.allocs_per_msg;
  allocs.max = cost.allocs_per_msg;
  allocs.count = 1;
  JsonReport::instance().add("allocs per message", label, allocs);
}

}  // namespace
}  // namespace drt::bench

int main(int argc, char** argv) {
  using namespace drt;
  using namespace drt::bench;
  parse_bench_args(argc, argv);
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }
  constexpr std::size_t kMessages = 400'000;
  constexpr std::size_t kSimMessages = 20'000;

  std::printf(
      "IPC fast path: host ns/msg and heap allocs/msg at the %zu B payload "
      "point\n(pooled slab; inline capacity is %zu B)\n",
      kPayloadBytes, rtos::Message::kInlineCapacity);

  const auto seed_raw = run_seed_raw(kMessages);
  const auto seed_framed = run_seed_string_framed(kMessages);
  const auto pooled = run_pooled_ring(kMessages);
  const auto kernel_queued = run_kernel_queued(kMessages);
  std::uint64_t handoffs = 0;
  const auto rendezvous = run_rendezvous(1, kSimMessages, &handoffs);
  const auto fan_in = run_rendezvous(4, kSimMessages);

  print_table_header("Channel models (container level)",
                     "seed = vector<byte> + deque as shipped; pooled = "
                     "Message + power-of-two ring + message_view");
  print_path("seed raw", seed_raw);
  print_path("seed string-framed", seed_framed);
  print_path("pooled ring + view", pooled);

  print_table_header("Kernel API (real code)",
                     "rendezvous/fan-in run the full simulator per message");
  print_path("queued send+receive", kernel_queued);
  print_path("rendezvous 1:1", rendezvous);
  print_path("fan-in 4:1", fan_in);

  const auto pool = rtos::MessagePool::instance().stats();
  std::printf(
      "\nMessagePool: heap_allocations=%llu reuses=%llu live=%zu free=%zu "
      "free_bytes=%zu; rendezvous handoffs=%llu\n",
      static_cast<unsigned long long>(pool.heap_allocations),
      static_cast<unsigned long long>(pool.reuses), pool.live_slabs,
      pool.free_slabs, pool.free_bytes,
      static_cast<unsigned long long>(handoffs));

  const bool zero_alloc = kernel_queued.allocs_per_msg == 0.0 &&
                          rendezvous.allocs_per_msg == 0.0 &&
                          fan_in.allocs_per_msg == 0.0;
  const double framed_ratio =
      seed_framed.ns_per_msg.average / pooled.ns_per_msg.average;
  const double raw_ratio =
      seed_raw.ns_per_msg.average / pooled.ns_per_msg.average;
  const bool speedup = framed_ratio >= 5.0;
  // The allocation count is deterministic and always gates; the host-time
  // ratio depends on the machine and gates only under --check.
  const bool held = zero_alloc && (speedup || !check);
  std::printf(
      "\nChecks:\n"
      "  [%s] 0 heap allocations per message in steady state on the queued, "
      "rendezvous and fan-in kernel paths\n"
      "  [%s] >= 5x ns/msg vs the seed transfer at %zu B "
      "(string-framed %.1fx, raw %.1fx)%s\n",
      zero_alloc ? "ok" : "FAIL", speedup ? "ok" : (check ? "FAIL" : "low"),
      kPayloadBytes, framed_ratio, raw_ratio,
      check ? "" : " [not gated without --check]");
  std::printf("RESULT: %s\n", held ? "FAST PATH HELD" : "REGRESSION");
  return held ? 0 : 1;
}
