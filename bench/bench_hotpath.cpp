// Microbenchmarks for the three hot dispatch paths (host wall-clock, ns/op):
//
//   1. SimEngine event queue — steady-state schedule+fire churn (on 1, 16
//      and 256 shards) and schedule+cancel pairs with 1000 events pending.
//   2. RtKernel dispatch — one CPU serving N equal-priority round-robin
//      tasks (N = 10/100/1000 ready), ns per fired event. This is the path
//      every consume()/slice/preemption decision takes.
//   3. ServiceRegistry lookup — get_references/get_reference against a
//      10- and 1000-service registry, the DRCR resolver-consultation path.
//
// Rows report ns/op over kSamples repetitions, so AVEDEV/MIN/MAX expose
// host noise. Virtual-time determinism is NOT measured here (that is
// bench_table1_latency's job); this bench tracks how fast the machinery
// itself runs. Use --json <path> to record the trajectory across PRs.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "cap/channel.hpp"
#include "osgi/ldap_filter.hpp"
#include "osgi/service_registry.hpp"
#include "rtos/sim_engine.hpp"

namespace drt::bench {
namespace {

constexpr int kSamples = 7;

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// ns per schedule+fire pair at a steady backlog of `pending` events spread
/// round-robin over `shards` shards (the multi-shard rows add the cost of
/// picking the shard whose head fires next).
StatSummary event_churn(std::size_t pending, std::size_t ops,
                        std::size_t shards = 1) {
  SampleSeries samples;
  for (int rep = 0; rep < kSamples; ++rep) {
    rtos::SimEngine engine(rtos::EngineConfig{.shards = shards});
    std::vector<std::unique_ptr<rtos::SimEngine>> lanes;
    for (rtos::ShardId s = 0; s < shards; ++s) {
      lanes.push_back(engine.shard_handle(s));
    }
    std::size_t fired = 0;
    // Self-replenishing events: each firing schedules its replacement one
    // horizon ahead on its own shard, so the heaps stay at `pending` entries.
    std::vector<std::function<void()>> ticks(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      ticks[s] = [lane = lanes[s].get(), &fired, &tick = ticks[s]] {
        ++fired;
        lane->schedule_after(milliseconds(1), tick);
      };
    }
    for (std::size_t i = 0; i < pending; ++i) {
      lanes[i % shards]->schedule_after(1 + static_cast<SimDuration>(i),
                                        ticks[i % shards]);
    }
    const auto start = Clock::now();
    engine.run_to_completion(ops);
    samples.add(elapsed_ns(start) / static_cast<double>(ops));
    (void)fired;
  }
  return samples.summary();
}

/// ns per schedule+cancel pair at a steady backlog of `pending` events.
StatSummary event_cancel(std::size_t pending, std::size_t ops) {
  SampleSeries samples;
  for (int rep = 0; rep < kSamples; ++rep) {
    rtos::SimEngine engine;
    for (std::size_t i = 0; i < pending; ++i) {
      engine.schedule_after(static_cast<SimDuration>(i + 1), [] {});
    }
    const auto start = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      const rtos::EventId id = engine.schedule_after(
          static_cast<SimDuration>(pending + i % 97), [] {});
      engine.cancel(id);
    }
    samples.add(elapsed_ns(start) / static_cast<double>(ops));
  }
  return samples.summary();
}

/// ns per fired kernel event with `tasks` equal-priority RR tasks ready on
/// one CPU, each task an endless chain of small consume() demands. The
/// default rows keep metrics disabled (the production configuration);
/// `count_metrics` rows measure what opt-in counting adds to the same storm.
StatSummary dispatch_storm(std::size_t tasks, SimDuration horizon,
                           bool count_metrics = false) {
  SampleSeries samples;
  for (int rep = 0; rep < kSamples; ++rep) {
    rtos::SimEngine engine;
    rtos::KernelConfig config;
    config.cpus = 1;
    config.seed = 42 + static_cast<std::uint64_t>(rep);
    rtos::RtKernel kernel(engine, config);
    if (count_metrics) kernel.metrics().enable();
    for (std::size_t i = 0; i < tasks; ++i) {
      rtos::TaskParams params;
      params.name = "t" + std::to_string(i);
      params.type = rtos::TaskType::kAperiodic;
      params.priority = 5;
      params.cpu = 0;
      const TaskId id =
          kernel
              .create_task(params,
                           [](rtos::TaskContext& ctx) -> rtos::TaskCoro {
                             while (!ctx.stop_requested()) {
                               co_await ctx.consume(microseconds(2));
                             }
                           })
              .value_or(0);
      (void)kernel.start_task(id);
    }
    // Warm up so every task has been dispatched at least once.
    engine.run_until(milliseconds(2));
    const SimTime end = engine.now() + horizon;
    const auto start = Clock::now();
    const std::size_t fired = engine.run_until(end);
    samples.add(elapsed_ns(start) / static_cast<double>(fired));
  }
  return samples.summary();
}

std::shared_ptr<int> dummy_service() { return std::make_shared<int>(0); }

/// Registry with `count` services spread over 10 interfaces, ranked so the
/// best match sits mid-registration-order (the sort cannot be skipped).
void fill_registry(osgi::ServiceRegistry& registry, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    osgi::Properties props;
    props.set("service.ranking",
              static_cast<std::int64_t>((i * 7) % 23));
    props.set("component.name", "c" + std::to_string(i));
    registry.register_service(
        1, {"svc.i" + std::to_string(i % 10)}, dummy_service(),
        std::move(props));
  }
}

/// ns per get_references() call on a populated registry.
StatSummary registry_lookup(std::size_t count, std::size_t ops) {
  SampleSeries samples;
  osgi::ServiceRegistry registry;
  fill_registry(registry, count);
  for (int rep = 0; rep < kSamples; ++rep) {
    std::size_t total = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      total += registry.get_references("svc.i3").size();
    }
    samples.add(elapsed_ns(start) / static_cast<double>(ops));
    (void)total;
  }
  return samples.summary();
}

/// ns per typed capability call (bound connection, drained by the stub's
/// try_next) at `payload_bytes`. The route was resolved once at bind time;
/// the loop body is ordinal dispatch + pooled frame + ring push.
StatSummary typed_call(std::size_t payload_bytes, std::size_t ops) {
  rtos::SimEngine engine;
  rtos::RtKernel kernel(engine, paper_kernel_config(false, 42));
  cap::CapRouter router(kernel);
  cap::ProtocolSpec spec;
  spec.name = "ctl";
  cap::MethodSpec method;
  method.name = "data";
  method.ordinal = 1;
  method.request_bytes = payload_bytes;
  spec.methods.push_back(std::move(method));
  cap::ServerEnd* server = router.publish("prov", spec).value();
  cap::Connection* connection = router.ensure_connection("cli", "prov", "ctl");
  std::vector<std::byte> payload(payload_bytes);
  SampleSeries samples;
  for (int rep = 0; rep < kSamples; ++rep) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      if (connection->call(1, payload) != ErrorCode::kNone) std::abort();
      if (!server->try_next().has_value()) std::abort();
    }
    samples.add(elapsed_ns(start) / static_cast<double>(ops));
  }
  return samples.summary();
}

/// ns per string-keyed equivalent of the same transfer: LDAP-filtered
/// get_references, a property probe for the provider, mailbox_find by
/// concatenated name, message_from_string framing, ring push and a
/// message_to_string read — resolution paid on EVERY call.
StatSummary stringly_call(std::size_t payload_bytes, std::size_t ops) {
  rtos::SimEngine engine;
  rtos::RtKernel kernel(engine, paper_kernel_config(false, 42));
  rtos::Mailbox* inbox = kernel.mailbox_create("prov.cmd", 16).value();
  (void)inbox;
  osgi::ServiceRegistry registry;
  fill_registry(registry, 256);
  {
    osgi::Properties props;
    props.set("service.ranking", std::int64_t{50});
    props.set("component.name", "prov");
    registry.register_service(1, {"svc.i3"}, dummy_service(),
                              std::move(props));
  }
  const osgi::Filter filter =
      osgi::Filter::parse("(component.name=prov)").take();
  const std::string text(payload_bytes, 'x');
  SampleSeries samples;
  for (int rep = 0; rep < kSamples; ++rep) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      const auto refs = registry.get_references("svc.i3", &filter);
      if (refs.empty()) std::abort();
      const auto provider =
          refs.front().properties().get_string("component.name");
      rtos::Mailbox* mailbox = kernel.mailbox_find(*provider + ".cmd");
      if (!kernel.mailbox_send(*mailbox, rtos::message_from_string(text))) {
        std::abort();
      }
      auto received = kernel.mailbox_try_receive(*mailbox);
      if (rtos::message_to_string(*received).size() != payload_bytes) {
        std::abort();
      }
    }
    samples.add(elapsed_ns(start) / static_cast<double>(ops));
  }
  return samples.summary();
}

/// ns per get_reference() (best-match) call on a populated registry.
StatSummary registry_best(std::size_t count, std::size_t ops) {
  SampleSeries samples;
  osgi::ServiceRegistry registry;
  fill_registry(registry, count);
  for (int rep = 0; rep < kSamples; ++rep) {
    std::size_t hits = 0;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      hits += registry.get_reference("svc.i3").has_value() ? 1 : 0;
    }
    samples.add(elapsed_ns(start) / static_cast<double>(ops));
    (void)hits;
  }
  return samples.summary();
}

}  // namespace
}  // namespace drt::bench

int main(int argc, char** argv) {
  using namespace drt;
  using namespace drt::bench;
  parse_bench_args(argc, argv);

  std::printf(
      "Hot-path microbenchmarks (host wall-clock, ns/op; %d samples/row)\n",
      kSamples);

  print_table_header("Event queue (ns/op)", "");
  print_table_row("sched+fire @1000", event_churn(1000, 200'000));
  print_table_row("sched+fire x16 shards", event_churn(1000, 200'000, 16));
  print_table_row("sched+fire x256 shards", event_churn(1000, 200'000, 256));
  print_table_row("sched+cancel @1000", event_cancel(1000, 200'000));

  print_table_header("Kernel dispatch (ns/event)",
                     "one CPU, equal-priority RR consume() storm");
  print_table_row("dispatch @10", dispatch_storm(10, milliseconds(40)));
  print_table_row("dispatch @100", dispatch_storm(100, milliseconds(40)));
  print_table_row("dispatch @1000", dispatch_storm(1000, milliseconds(40)));
  print_table_row("dispatch @100 +metrics",
                  dispatch_storm(100, milliseconds(40), true));

  print_table_header("Service registry (ns/call)",
                     "10 interfaces, ranked entries");
  print_table_row("get_references @10", registry_lookup(10, 200'000));
  print_table_row("get_references @1000", registry_lookup(1000, 20'000));
  print_table_row("get_reference @10", registry_best(10, 200'000));
  print_table_row("get_reference @1000", registry_best(1000, 20'000));

  print_table_header("Capability call (ns/call)",
                     "typed bound route vs per-call string-keyed dispatch");
  print_table_row("typed call @64B", typed_call(64, 200'000));
  print_table_row("typed call @1KiB", typed_call(1024, 100'000));
  print_table_row("stringly send @64B", stringly_call(64, 100'000));
  print_table_row("stringly send @1KiB", stringly_call(1024, 100'000));
  return 0;
}
