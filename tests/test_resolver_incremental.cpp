// Incremental admission must be an invisible optimisation: a DRCR running
// with ContractCache-backed views and memoized RTA (incremental_admission =
// true, the default) must take EXACTLY the decisions of the cache-less
// per-candidate from-scratch DRCR (incremental_admission = false, the seed
// behaviour kept in-binary as the reference).
//
// The differential property test drives two such DRCRs through the same
// randomized lifecycle scripts — register/unregister, enable/disable,
// budget shrink, internal-resolver swaps — and after every operation
// compares component states, rejection reasons and per-CPU utilization
// bit-for-bit. ContractCache itself and the SystemView overlay get direct
// unit coverage below.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "drcom/drcr.hpp"
#include "test_helpers.hpp"

namespace drt::drcom {
namespace {

using rtos::testing::quiet_config;

class IdleComponent : public RtComponent {
 public:
  rtos::TaskCoro run(JobContext& job) override {
    while (job.active()) co_await job.next_cycle();
  }
};

// ------------------------------------------------- ContractCache unit ----

ComponentDescriptor periodic_component(std::string name, double usage,
                                       CpuId cpu, double hz, int priority) {
  ComponentDescriptor d;
  d.name = std::move(name);
  d.bincode = "incr.X";
  d.type = rtos::TaskType::kPeriodic;
  d.cpu_usage = usage;
  d.periodic = PeriodicSpec{hz, cpu, priority};
  return d;
}

ComponentDescriptor aperiodic_component(std::string name, double usage,
                                        CpuId cpu) {
  ComponentDescriptor d = periodic_component(std::move(name), usage, cpu,
                                             100.0, 5);
  d.type = rtos::TaskType::kAperiodic;
  d.periodic.reset();  // aperiodic components always land on CPU 0
  return d;
}

TEST(ContractCache, ActivateExtendsAndDeactivateRefolds) {
  ContractCache cache(2);
  const auto a = periodic_component("a", 0.3, 0, 100.0, 1);
  const auto b = aperiodic_component("b", 0.2, 0);
  const auto c = periodic_component("c", 0.4, 0, 200.0, 2);
  cache.on_activate(a);
  cache.on_activate(b);
  cache.on_activate(c);
  EXPECT_EQ(cache.active_count_on(0), 3u);
  EXPECT_EQ(cache.recurring_count_on(0), 2u);
  // Bit-identical to the left-fold over activation order.
  EXPECT_EQ(cache.declared_utilization(0), (0.3 + 0.2) + 0.4);
  EXPECT_EQ(cache.recurring_utilization(0), 0.3 + 0.4);
  EXPECT_EQ(cache.active().size(), 3u);
  EXPECT_EQ(cache.active()[0], &a);
  EXPECT_EQ(cache.active()[2], &c);

  const auto gen_before = cache.generation(0);
  cache.on_deactivate(b);
  EXPECT_GT(cache.generation(0), gen_before);
  EXPECT_EQ(cache.active_count_on(0), 2u);
  // Removal re-folds the survivors (a then c) rather than subtracting.
  EXPECT_EQ(cache.declared_utilization(0), 0.3 + 0.4);
  EXPECT_EQ(cache.active_on(0).size(), 2u);
  EXPECT_EQ(cache.active_on(0)[0], &a);
  EXPECT_EQ(cache.active_on(0)[1], &c);
}

TEST(ContractCache, RecurringMapIteratesPriorityThenActivationOrder) {
  ContractCache cache(1);
  const auto lo = periodic_component("lo", 0.1, 0, 100.0, 9);
  const auto hi = periodic_component("hi", 0.1, 0, 100.0, 1);
  const auto mid1 = periodic_component("mid1", 0.1, 0, 100.0, 5);
  const auto mid2 = periodic_component("mid2", 0.1, 0, 100.0, 5);
  cache.on_activate(lo);
  cache.on_activate(mid2);
  cache.on_activate(hi);
  cache.on_activate(mid1);
  std::vector<const ComponentDescriptor*> order;
  for (const auto& [key, entry] : cache.recurring_by_priority(0)) {
    order.push_back(entry.descriptor);
  }
  // Highest priority (lowest number) first; ties by activation order.
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], &hi);
  EXPECT_EQ(order[1], &mid2);
  EXPECT_EQ(order[2], &mid1);
  EXPECT_EQ(order[3], &lo);
}

TEST(ContractCache, TracksCpusBeyondInitialCount) {
  ContractCache cache(1);
  const auto far = periodic_component("far", 0.5, 5, 100.0, 3);
  cache.on_activate(far);
  EXPECT_EQ(cache.active_count_on(5), 1u);
  EXPECT_EQ(cache.declared_utilization(5), 0.5);
  EXPECT_EQ(cache.declared_utilization(3), 0.0);
}

/// Every observable of `batched` equals `reference`: activation order
/// (global and per CPU), recurring keys and entries, and the cached sums
/// bit for bit.
void expect_same_cache(const ContractCache& reference,
                       const ContractCache& batched) {
  const auto bits = [](double value) {
    return std::bit_cast<std::uint64_t>(value);
  };
  EXPECT_EQ(batched.active(), reference.active());
  ASSERT_EQ(batched.cpu_count(), reference.cpu_count());
  for (CpuId cpu = 0; cpu < reference.cpu_count(); ++cpu) {
    SCOPED_TRACE("cpu " + std::to_string(cpu));
    EXPECT_EQ(batched.active_on(cpu), reference.active_on(cpu));
    EXPECT_EQ(bits(batched.declared_utilization(cpu)),
              bits(reference.declared_utilization(cpu)));
    EXPECT_EQ(bits(batched.recurring_utilization(cpu)),
              bits(reference.recurring_utilization(cpu)));
    const RecurringMap& want = reference.recurring_by_priority(cpu);
    const RecurringMap& got = batched.recurring_by_priority(cpu);
    ASSERT_EQ(got.size(), want.size());
    for (auto g = got.begin(), w = want.begin(); w != want.end(); ++g, ++w) {
      EXPECT_EQ(g->first, w->first);
      EXPECT_EQ(g->second.descriptor, w->second.descriptor);
      EXPECT_EQ(g->second.period, w->second.period);
      EXPECT_EQ(g->second.base_cost, w->second.base_cost);
      EXPECT_EQ(g->second.priority, w->second.priority);
      EXPECT_EQ(g->second.deadline, w->second.deadline);
    }
  }
}

// A mode transition re-budgets its still-active components in one call. The
// reference is the per-component path: on_deactivate, set the new budget,
// on_activate. On random active sets the batch must leave the same state,
// re-fold each touched CPU once and move each touched CPU's generation.
TEST(ContractCache, RebudgetBatchMatchesSequentialReference) {
  std::mt19937_64 rng(29);
  const auto pick = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  const auto usage = [&rng] {
    return std::uniform_real_distribution<double>(0.001, 0.05)(rng);
  };
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t cpus = 1 + pick(4);
    const std::size_t count = 1 + pick(40);
    std::vector<ComponentDescriptor> descriptors;
    descriptors.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::string name = "c" + std::to_string(i);
      const auto cpu = static_cast<CpuId>(pick(cpus));
      const int priority = static_cast<int>(pick(4));
      switch (pick(3)) {
        case 0:
          descriptors.push_back(periodic_component(
              name, usage(), cpu, 100.0 * static_cast<double>(1 + pick(4)),
              priority));
          break;
        case 1: {
          ComponentDescriptor d =
              periodic_component(name, usage(), cpu, 100.0, priority);
          d.type = rtos::TaskType::kSporadic;
          d.periodic.reset();
          d.sporadic.emplace();
          d.sporadic->min_interarrival =
              microseconds(500 * static_cast<std::int64_t>(1 + pick(8)));
          d.sporadic->run_on_cpu = cpu;
          d.sporadic->priority = priority;
          descriptors.push_back(std::move(d));
          break;
        }
        default:
          descriptors.push_back(aperiodic_component(name, usage(), cpu));
          break;
      }
    }
    ContractCache reference(cpus);
    ContractCache batched(cpus);
    for (const ComponentDescriptor& d : descriptors) {
      reference.on_activate(d);
      batched.on_activate(d);
    }
    // Churn both alike so activation order and seqs are not the index order.
    for (std::size_t k = pick(count); k > 0; --k) {
      const ComponentDescriptor& d = descriptors[pick(count)];
      reference.on_deactivate(d);
      batched.on_deactivate(d);
      reference.on_activate(d);
      batched.on_activate(d);
    }
    expect_same_cache(reference, batched);

    for (int round = 0; round < 3; ++round) {
      std::vector<ComponentDescriptor*> order;
      for (ComponentDescriptor& d : descriptors) order.push_back(&d);
      std::shuffle(order.begin(), order.end(), rng);
      order.resize(1 + pick(order.size()));
      std::vector<std::uint64_t> generations;
      for (CpuId cpu = 0; cpu < batched.cpu_count(); ++cpu) {
        generations.push_back(batched.generation(cpu));
      }
      std::vector<const ComponentDescriptor*> batch;
      std::set<CpuId> touched;
      for (ComponentDescriptor* d : order) {
        reference.on_deactivate(*d);
        d->cpu_usage = usage();
        reference.on_activate(*d);
        batch.push_back(d);
        touched.insert(d->target_cpu());
      }
      const std::uint64_t refolds = batched.refolds();
      batched.on_rebudget(batch);
      EXPECT_EQ(batched.refolds() - refolds, touched.size());
      for (CpuId cpu = 0; cpu < batched.cpu_count(); ++cpu) {
        EXPECT_EQ(batched.generation(cpu) != generations[cpu],
                  touched.contains(cpu))
            << "cpu " << cpu;
      }
      expect_same_cache(reference, batched);
    }
  }
}

// ------------------------------------------------ SystemView overlay ----

TEST(SystemViewOverlay, CachedAccessorsMatchScanningFallback) {
  ContractCache cache(2);
  const auto a = periodic_component("a", 0.3, 0, 100.0, 1);
  const auto b = periodic_component("b", 0.25, 1, 100.0, 2);
  cache.on_activate(a);
  cache.on_activate(b);

  SystemView cached;
  cached.active = cache.active();
  cached.cpu_count = 2;
  cached.cache = &cache;
  cached.id = 1;

  SystemView scanned;  // hand-built, seed fallback path
  scanned.active = cache.active();
  scanned.cpu_count = 2;

  const auto c = periodic_component("c", 0.2, 0, 250.0, 3);
  cached.admit_locally(c);
  scanned.active.push_back(&c);

  for (CpuId cpu = 0; cpu < 2; ++cpu) {
    EXPECT_EQ(cached.declared_utilization(cpu),
              scanned.declared_utilization(cpu));
    EXPECT_EQ(cached.recurring_utilization_on(cpu),
              scanned.recurring_utilization_on(cpu));
    EXPECT_EQ(cached.active_count_on(cpu), scanned.active_count_on(cpu));
    EXPECT_EQ(cached.recurring_count_on(cpu), scanned.recurring_count_on(cpu));
  }
  EXPECT_EQ(cached.active.size(), 3u);  // admit_locally also extends `active`

  // Reverse iteration visits the locally admitted candidate first.
  std::vector<const ComponentDescriptor*> reverse;
  cached.for_each_active_on_reverse(
      0, [&](const ComponentDescriptor& d) { reverse.push_back(&d); });
  ASSERT_EQ(reverse.size(), 2u);
  EXPECT_EQ(reverse[0], &c);
  EXPECT_EQ(reverse[1], &a);
}

// ------------------------------------------- differential property test --

/// Both worlds share one scripted op sequence; `World` owns a full stack.
struct World {
  rtos::SimEngine engine;
  osgi::Framework framework;
  rtos::RtKernel kernel;
  Drcr drcr;

  explicit World(bool incremental)
      : kernel(engine, quiet_config(2)),
        drcr(framework, kernel, make_config(incremental)) {
    drcr.factories().register_factory(
        "incr.X", [] { return std::make_unique<IdleComponent>(); });
  }

  static DrcrConfig make_config(bool incremental) {
    DrcrConfig config;
    config.cpu_budget = 0.9;
    config.incremental_admission = incremental;
    return config;
  }
};

ComponentDescriptor random_descriptor(std::mt19937_64& rng,
                                      const std::string& name) {
  // Bounded parameter pools: two-decimal usages, period ratios within 10x,
  // so the RTA converges in a handful of iterations in both worlds.
  static const double kUsages[] = {0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35};
  static const double kRates[] = {100.0, 200.0, 250.0, 500.0, 1000.0};
  ComponentDescriptor d;
  d.name = name;
  d.bincode = "incr.X";
  d.cpu_usage = kUsages[rng() % std::size(kUsages)];
  d.enabled = rng() % 5 != 0;  // 20% start disabled
  const CpuId cpu = static_cast<CpuId>(rng() % 2);
  const int priority = static_cast<int>(rng() % 20) + 1;
  const auto kind = rng() % 10;
  if (kind < 7) {
    d.type = rtos::TaskType::kPeriodic;
    d.periodic =
        PeriodicSpec{kRates[rng() % std::size(kRates)], cpu, priority};
    if (rng() % 5 == 0) {
      // Sometimes provide a mailbox other components can consume.
      PortSpec out;
      out.direction = PortDirection::kOut;
      out.name = "m" + std::to_string(rng() % 3);
      out.interface = PortInterface::kMailbox;
      out.size = 4;
      d.ports.push_back(out);
    }
  } else if (kind < 9) {
    d.type = rtos::TaskType::kSporadic;
    PortSpec trigger;
    trigger.direction = PortDirection::kIn;
    trigger.name = "m" + std::to_string(rng() % 3);
    trigger.interface = PortInterface::kMailbox;
    trigger.size = 4;
    d.ports.push_back(trigger);
    d.sporadic = SporadicSpec{microseconds(1'000 + 500 * (rng() % 4)), cpu,
                              priority, trigger.name};
  } else {
    d.type = rtos::TaskType::kAperiodic;
  }
  return d;
}

void expect_identical(World& incremental, World& reference,
                      const std::vector<std::string>& pool, int step) {
  ASSERT_EQ(incremental.drcr.component_names(), reference.drcr.component_names())
      << "step " << step;
  EXPECT_EQ(incremental.drcr.active_count(), reference.drcr.active_count())
      << "step " << step;
  for (const std::string& name : pool) {
    EXPECT_EQ(incremental.drcr.state_of(name), reference.drcr.state_of(name))
        << "step " << step << " component " << name;
    const auto inc_health = incremental.drcr.component_health(name);
    const auto ref_health = reference.drcr.component_health(name);
    ASSERT_EQ(inc_health.has_value(), ref_health.has_value())
        << "step " << step << " component " << name;
    if (!inc_health.has_value()) continue;
    EXPECT_EQ(inc_health->reason, ref_health->reason)
        << "step " << step << " component " << name;
    EXPECT_EQ(inc_health->last_error, ref_health->last_error)
        << "step " << step << " component " << name;
  }
  // Utilization must agree BIT-FOR-BIT: both sides are activation-ordered
  // left-folds, one cached, one scanned.
  const SystemView a = incremental.drcr.system_view();
  const SystemView b = reference.drcr.system_view();
  for (CpuId cpu = 0; cpu < 2; ++cpu) {
    EXPECT_EQ(a.declared_utilization(cpu), b.declared_utilization(cpu))
        << "step " << step << " cpu " << cpu;
    EXPECT_EQ(a.recurring_utilization_on(cpu), b.recurring_utilization_on(cpu))
        << "step " << step << " cpu " << cpu;
    EXPECT_EQ(a.active_count_on(cpu), b.active_count_on(cpu))
        << "step " << step << " cpu " << cpu;
  }
  // And the incremental world's cache must equal a recompute from records.
  const ContractCache& cache = incremental.drcr.contract_cache();
  std::size_t active = 0;
  for (const std::string& name : incremental.drcr.component_names()) {
    if (incremental.drcr.state_of(name) == ComponentState::kActive) ++active;
  }
  EXPECT_EQ(cache.active().size(), active) << "step " << step;
}

void swap_resolver(World& world, std::uint64_t which) {
  switch (which % 3) {
    case 0:
      world.drcr.set_internal_resolver(
          std::make_unique<UtilizationBudgetResolver>(0.9));
      break;
    case 1:
      world.drcr.set_internal_resolver(
          std::make_unique<RateMonotonicResolver>());
      break;
    default:
      world.drcr.set_internal_resolver(
          std::make_unique<ResponseTimeResolver>());
      break;
  }
}

TEST(IncrementalDifferential, RandomLifecycleScriptsTakeIdenticalDecisions) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL);
    World incremental(true);
    World reference(false);
    const std::vector<std::string> pool = {"c0", "c1", "c2", "c3", "c4",
                                           "c5", "c6", "c7", "c8", "c9"};
    for (int step = 0; step < 120; ++step) {
      const std::string& name = pool[rng() % pool.size()];
      const bool known = incremental.drcr.state_of(name).has_value();
      const auto op = rng() % 12;
      if (op < 5) {
        if (!known) {
          // Both worlds must receive the SAME descriptor; draw it once.
          const ComponentDescriptor d = random_descriptor(rng, name);
          const auto r1 = incremental.drcr.register_component(d);
          const auto r2 = reference.drcr.register_component(d);
          ASSERT_EQ(r1.ok(), r2.ok()) << "step " << step;
        }
      } else if (op < 7) {
        if (known) {
          (void)incremental.drcr.unregister_component(name);
          (void)reference.drcr.unregister_component(name);
        }
      } else if (op < 9) {
        if (known) {
          (void)incremental.drcr.enable_component(name);
          (void)reference.drcr.enable_component(name);
        }
      } else if (op < 10) {
        if (known) {
          (void)incremental.drcr.disable_component(name);
          (void)reference.drcr.disable_component(name);
        }
      } else if (op < 11) {
        // Budget shrink (and later grow) on both internal resolvers, when
        // the current internal resolver is the utilization-budget one.
        static const double kBudgets[] = {0.3, 0.5, 0.7, 0.9};
        const double budget = kBudgets[rng() % std::size(kBudgets)];
        auto* b1 = dynamic_cast<UtilizationBudgetResolver*>(
            &incremental.drcr.internal_resolver());
        auto* b2 = dynamic_cast<UtilizationBudgetResolver*>(
            &reference.drcr.internal_resolver());
        ASSERT_EQ(b1 != nullptr, b2 != nullptr);
        if (b1 != nullptr && b2 != nullptr) {
          b1->set_budget(budget);
          b2->set_budget(budget);
          incremental.drcr.resolve();
          reference.drcr.resolve();
        }
      } else {
        const std::uint64_t which = rng();
        swap_resolver(incremental, which);
        swap_resolver(reference, which);
      }
      expect_identical(incremental, reference, pool, step);
      if (::testing::Test::HasFatalFailure() ||
          ::testing::Test::HasNonfatalFailure()) {
        FAIL() << "divergence at seed " << seed << " step " << step;
      }
    }
  }
}

// ------------------------------------------ RTA memo commit check ----

TEST(IncrementalDifferential, ReentrantDisableDuringCommitDropsTheRtaMemo) {
  // A listener disables `victim` when it sees `trig` ACTIVATED, i.e. in
  // the middle of the batch that commits `trig` on the same CPU. That
  // batch's session still holds `victim`, so the memo must be dropped;
  // kept, it would charge `victim`'s interference to every later admission
  // on CPU 0 and reject `probe`, which fits once `victim` is gone.
  World incremental(true);
  World reference(false);
  const std::vector<std::string> pool = {"victim", "trig", "probe",
                                         "probe2"};
  for (World* world : {&incremental, &reference}) {
    world->drcr.set_internal_resolver(std::make_unique<ResponseTimeResolver>());
    world->drcr.add_listener([world](const DrcrEvent& event) {
      if (event.type == DrcrEventType::kActivated &&
          event.component == "trig") {
        (void)world->drcr.disable_component("victim");
      }
    });
  }
  int step = 0;
  auto both = [&](const ComponentDescriptor& d) {
    ASSERT_TRUE(incremental.drcr.register_component(d).ok()) << d.name;
    ASSERT_TRUE(reference.drcr.register_component(d).ok()) << d.name;
    expect_identical(incremental, reference, pool, step++);
  };
  // T = 10 ms everywhere; C = U * T plus 1.1 us of per-job overhead.
  both(periodic_component("victim", 0.4, 0, 100.0, 5));
  both(periodic_component("trig", 0.1, 0, 100.0, 6));
  ASSERT_EQ(incremental.drcr.state_of("victim"), ComponentState::kDisabled);
  ASSERT_EQ(incremental.drcr.state_of("trig"), ComponentState::kActive);
  // R = 6 + 1 ms fits D = 10 ms; with `victim` still charged it is 11 ms.
  both(periodic_component("probe", 0.6, 0, 100.0, 7));
  EXPECT_EQ(incremental.drcr.state_of("probe"), ComponentState::kActive);
  // Rejected in both worlds, with one text citing the same response time.
  both(periodic_component("probe2", 0.35, 0, 100.0, 8));
  EXPECT_EQ(incremental.drcr.state_of("probe2"),
            ComponentState::kUnsatisfied);
  EXPECT_NE(incremental.drcr.component_health("probe2")->reason.find(
                "RTA: task 'probe2'"),
            std::string::npos);
  // And `victim`'s return is judged against the live set, not the memo.
  ASSERT_TRUE(incremental.drcr.enable_component("victim").ok());
  ASSERT_TRUE(reference.drcr.enable_component("victim").ok());
  expect_identical(incremental, reference, pool, step++);
  const auto& rta = dynamic_cast<const ResponseTimeResolver&>(
      incremental.drcr.internal_resolver());
  EXPECT_GT(rta.work().solves, 0u);
}

// ------------------------------------ churn-scale RTA differential ----

/// Churn-shaped timing: four harmonic rates over three priority levels, so
/// many tasks share each (priority, period) bucket.
constexpr double kChurnRates[] = {12.5, 25.0, 50.0, 100.0};

ComponentDescriptor churn_descriptor(std::mt19937_64& rng,
                                     const std::string& name) {
  static const double kUsages[] = {0.001, 0.002, 0.005, 0.01, 0.02, 0.04};
  ComponentDescriptor d;
  d.name = name;
  d.bincode = "incr.X";
  d.cpu_usage = kUsages[rng() % std::size(kUsages)];
  d.enabled = rng() % 10 != 0;
  const CpuId cpu = static_cast<CpuId>(rng() % 2);
  const int priority = 20 + static_cast<int>(rng() % 3);
  if (rng() % 8 != 0) {
    d.type = rtos::TaskType::kPeriodic;
    d.periodic = PeriodicSpec{kChurnRates[rng() % std::size(kChurnRates)],
                              cpu, priority};
    if (rng() % 6 == 0) {
      PortSpec out;
      out.direction = PortDirection::kOut;
      out.name = "m" + std::to_string(rng() % 3);
      out.interface = PortInterface::kMailbox;
      out.size = 4;
      d.ports.push_back(out);
    }
  } else {
    d.type = rtos::TaskType::kSporadic;
    PortSpec trigger;
    trigger.direction = PortDirection::kIn;
    trigger.name = "m" + std::to_string(rng() % 3);
    trigger.interface = PortInterface::kMailbox;
    trigger.size = 4;
    d.ports.push_back(trigger);
    d.sporadic = SporadicSpec{milliseconds(10 * (1 + rng() % 2)), cpu,
                              priority, trigger.name};
  }
  return d;
}

TEST(IncrementalDifferential, ChurnScaleRtaTakesIdenticalDecisions) {
  // 144 components on 2 CPUs under the RTA: the bucketed incremental
  // analysis must reach the from-scratch per-task analysis's decisions and
  // rejection texts through registration, churn and overload.
  std::mt19937_64 rng(0xc4u);
  World incremental(true);
  World reference(false);
  incremental.drcr.set_internal_resolver(
      std::make_unique<ResponseTimeResolver>());
  reference.drcr.set_internal_resolver(
      std::make_unique<ResponseTimeResolver>());
  std::vector<std::string> pool;
  std::vector<ComponentDescriptor> descriptors;
  for (int i = 0; i < 144; ++i) {
    pool.push_back("k" + std::to_string(i));
    descriptors.push_back(churn_descriptor(rng, pool.back()));
  }
  // One registration no set here can hold: it stays rejected with an RTA
  // text naming the task it would break.
  descriptors[77].type = rtos::TaskType::kPeriodic;
  descriptors[77].sporadic.reset();
  descriptors[77].ports.clear();
  descriptors[77].enabled = true;
  descriptors[77].cpu_usage = 0.97;
  descriptors[77].periodic = PeriodicSpec{50.0, 1, 20};

  int step = 0;
  auto check = [&] {
    expect_identical(incremental, reference, pool, step++);
    return !::testing::Test::HasFailure();
  };
  for (const ComponentDescriptor& d : descriptors) {
    ASSERT_EQ(incremental.drcr.register_component(d).ok(),
              reference.drcr.register_component(d).ok());
    ASSERT_TRUE(check()) << "registering " << d.name;
  }
  ASSERT_NE(incremental.drcr.component_health("k77")->reason.find("RTA: task"),
            std::string::npos);
  for (int op = 0; op < 300; ++op) {
    const std::size_t index = rng() % pool.size();
    const std::string& name = pool[index];
    const bool known = incremental.drcr.state_of(name).has_value();
    switch (rng() % 4) {
      case 0:
        if (known) {
          (void)incremental.drcr.unregister_component(name);
          (void)reference.drcr.unregister_component(name);
        } else {
          ASSERT_EQ(
              incremental.drcr.register_component(descriptors[index]).ok(),
              reference.drcr.register_component(descriptors[index]).ok());
        }
        break;
      case 1:
        if (known) {
          (void)incremental.drcr.enable_component(name);
          (void)reference.drcr.enable_component(name);
        }
        break;
      case 2:
        if (known) {
          (void)incremental.drcr.disable_component(name);
          (void)reference.drcr.disable_component(name);
        }
        break;
      default:
        if (!known) {
          ASSERT_EQ(
              incremental.drcr.register_component(descriptors[index]).ok(),
              reference.drcr.register_component(descriptors[index]).ok());
        }
        break;
    }
    ASSERT_TRUE(check()) << "op " << op << " on " << name;
  }
  // The incremental world really ran the bucketed analysis; the reference
  // world never did.
  const auto& bucketed = dynamic_cast<const ResponseTimeResolver&>(
      incremental.drcr.internal_resolver());
  const auto& scratch = dynamic_cast<const ResponseTimeResolver&>(
      reference.drcr.internal_resolver());
  EXPECT_GT(bucketed.work().solves, 0u);
  EXPECT_EQ(scratch.work().solves, 0u);
}

// ------------------------------------------------ RTA work counts ----

TEST(RtaWorkCount, ChurnAdmissionSumsBucketsNotTasks) {
  // 256 churn-shaped tasks (four rate/priority pairs, alternating CPUs)
  // admitted one registration at a time. Each iteration may sum at most one
  // term per distinct (priority, period) pair on the CPU.
  World world(true);
  world.drcr.set_internal_resolver(std::make_unique<ResponseTimeResolver>());
  const auto& rta = dynamic_cast<const ResponseTimeResolver&>(
      world.drcr.internal_resolver());
  constexpr int kChurnPriority[] = {23, 22, 21, 20};
  std::set<std::pair<int, double>> pairs[2];
  for (std::size_t n = 0; n < 256; ++n) {
    const CpuId cpu = static_cast<CpuId>(n % 2);
    ComponentDescriptor d = periodic_component(
        "w" + std::to_string(n), static_cast<double>(10 + n % 11) / 10000.0,
        cpu, kChurnRates[n % 4], kChurnPriority[n % 4]);
    pairs[cpu].emplace(kChurnPriority[n % 4], kChurnRates[n % 4]);
    const auto before = rta.work();
    ASSERT_TRUE(world.drcr.register_component(d).ok());
    ASSERT_EQ(world.drcr.state_of(d.name), ComponentState::kActive);
    const auto after = rta.work();
    ASSERT_GT(after.solves, before.solves) << d.name;
    EXPECT_LE(after.terms - before.terms,
              (after.iterations - before.iterations) * pairs[cpu].size())
        << d.name;
  }
  // The per-task interference loop this replaced took the same 12'480
  // solves and 24'956 iterations but summed 1'731'072 terms, one per
  // higher-or-equal-priority task (measured by counting in that loop).
  // Summing buckets must stay at least 10x below it; it sums 41'584.
  EXPECT_LE(rta.work().solves, 12'480u);
  EXPECT_LE(rta.work().iterations, 24'956u);
  EXPECT_LE(rta.work().terms, 173'107u);
}

}  // namespace
}  // namespace drt::drcom
