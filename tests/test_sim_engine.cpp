// Unit tests for the discrete-event engine: ordering, cancellation, clock
// semantics, the (time, seq, shard) total order across shards, and the
// pooled cross-shard message path between per-shard kernels.
#include "rtos/sim_engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "rtos/kernel.hpp"
#include "test_helpers.hpp"

namespace drt::rtos {
namespace {

using testing::quiet_config;

TEST(SimEngine, StartsAtTimeZero) {
  SimEngine engine;
  EXPECT_EQ(engine.now(), 0);
  EXPECT_TRUE(engine.idle());
  EXPECT_EQ(engine.pending_events(), 0u);
}

TEST(SimEngine, FiresEventsInTimeOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_at(30, [&] { order.push_back(3); });
  engine.schedule_at(10, [&] { order.push_back(1); });
  engine.schedule_at(20, [&] { order.push_back(2); });
  engine.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 30);
}

TEST(SimEngine, SameTimeEventsFireInScheduleOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_at(5, [&] { order.push_back(1); });
  engine.schedule_at(5, [&] { order.push_back(2); });
  engine.schedule_at(5, [&] { order.push_back(3); });
  engine.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimEngine, ScheduleAfterUsesRelativeDelay) {
  SimEngine engine;
  SimTime seen = -1;
  engine.schedule_at(100, [&] {
    engine.schedule_after(50, [&] { seen = engine.now(); });
  });
  engine.run_to_completion();
  EXPECT_EQ(seen, 150);
}

TEST(SimEngine, CancelPreventsExecution) {
  SimEngine engine;
  bool fired = false;
  const EventId id = engine.schedule_at(10, [&] { fired = true; });
  engine.cancel(id);
  engine.run_to_completion();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(engine.idle());
}

TEST(SimEngine, CancelOfFiredEventIsNoOp) {
  SimEngine engine;
  int count = 0;
  const EventId id = engine.schedule_at(10, [&] { ++count; });
  engine.run_to_completion();
  engine.cancel(id);  // stale: must not disturb anything
  engine.schedule_at(20, [&] { ++count; });
  engine.run_to_completion();
  EXPECT_EQ(count, 2);
}

TEST(SimEngine, CancelInvalidIdIsNoOp) {
  SimEngine engine;
  engine.cancel(kInvalidEvent);
  engine.cancel(999'999);
  EXPECT_TRUE(engine.idle());
}

TEST(SimEngine, RunUntilStopsAtDeadline) {
  SimEngine engine;
  std::vector<SimTime> fired;
  for (SimTime t = 10; t <= 100; t += 10) {
    engine.schedule_at(t, [&, t] { fired.push_back(t); });
  }
  const std::size_t count = engine.run_until(45);
  EXPECT_EQ(count, 4u);
  EXPECT_EQ(engine.now(), 45);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_EQ(engine.pending_events(), 6u);
  engine.run_until(1'000);
  EXPECT_EQ(fired.size(), 10u);
}

TEST(SimEngine, RunUntilAdvancesClockEvenWithoutEvents) {
  SimEngine engine;
  engine.run_until(12'345);
  EXPECT_EQ(engine.now(), 12'345);
}

TEST(SimEngine, RunUntilWithCancelledHeadDoesNotLoseLaterEvents) {
  SimEngine engine;
  bool late_fired = false;
  const EventId head = engine.schedule_at(10, [] {});
  engine.schedule_at(100, [&] { late_fired = true; });
  engine.cancel(head);
  engine.run_until(50);  // deadline between the cancelled and live event
  EXPECT_FALSE(late_fired);
  engine.run_until(200);
  EXPECT_TRUE(late_fired);
}

TEST(SimEngine, EventsScheduledDuringRunAreExecuted) {
  SimEngine engine;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) engine.schedule_after(10, step);
  };
  engine.schedule_at(0, step);
  engine.run_to_completion();
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(engine.now(), 40);
}

TEST(SimEngine, RunToCompletionHonoursMaxEvents) {
  SimEngine engine;
  std::function<void()> forever = [&] { engine.schedule_after(1, forever); };
  engine.schedule_at(0, forever);
  const std::size_t fired = engine.run_to_completion(100);
  EXPECT_EQ(fired, 100u);
}

TEST(SimEngine, PendingEventsTracksCancellation) {
  SimEngine engine;
  const EventId a = engine.schedule_at(10, [] {});
  engine.schedule_at(20, [] {});
  EXPECT_EQ(engine.pending_events(), 2u);
  engine.cancel(a);
  EXPECT_EQ(engine.pending_events(), 1u);
  EXPECT_FALSE(engine.idle());
  engine.run_to_completion();
  EXPECT_TRUE(engine.idle());
}

TEST(SimEngine, RunToCompletionDrainsAndAlignsClocks) {
  SimEngine engine(EngineConfig{.shards = 3});
  auto h1 = engine.shard_handle(1);
  auto h2 = engine.shard_handle(2);
  ASSERT_NE(h1, nullptr);
  ASSERT_NE(h2, nullptr);
  EXPECT_EQ(engine.shard_handle(3), nullptr);  // out of range
  std::vector<int> fired;
  engine.schedule_at(500, [&] { fired.push_back(0); });
  h1->schedule_at(900, [&] { fired.push_back(1); });
  h2->schedule_at(100, [&] { fired.push_back(2); });
  EXPECT_EQ(engine.run_to_completion(), 3u);
  EXPECT_EQ(fired, (std::vector<int>{2, 0, 1}));
  // run_to_completion ends with every shard clock at the global maximum
  // fired time.
  EXPECT_EQ(engine.now(), 900);
  EXPECT_EQ(h1->now(), 900);
  EXPECT_EQ(h2->now(), 900);
}

TEST(SimEngine, RunUntilInsideACallbackKeepsGlobalOrder) {
  // The outer event's shard also holds a later event: the nested run must
  // still interleave it with the other shard's earlier ones.
  SimEngine engine(EngineConfig{.shards = 2});
  auto other = engine.shard_handle(1);
  std::vector<SimTime> fired;
  auto record = [&] { fired.push_back(engine.now() + other->now()); };
  engine.schedule_at(40, record);
  other->schedule_at(20, record);
  other->schedule_at(30, record);
  engine.schedule_at(10, [&] { engine.run_until(35); });
  engine.run_until(100);
  // Clocks: shard 0 at 10 while shard 1 fires 20 and 30, then shard 1 at 35
  // (the nested run's end) when shard 0 fires 40.
  EXPECT_EQ(fired, (std::vector<SimTime>{10 + 20, 10 + 30, 40 + 35}));
}

TEST(SimEngine, ThrowingCallbackLeavesTheOrderIntact) {
  SimEngine engine(EngineConfig{.shards = 2});
  auto other = engine.shard_handle(1);
  std::vector<int> fired;
  engine.schedule_at(10, [] { throw std::runtime_error("callback failed"); });
  engine.schedule_at(30, [&] { fired.push_back(30); });
  other->schedule_at(20, [&] { fired.push_back(20); });
  EXPECT_THROW(engine.run_until(100), std::runtime_error);
  engine.run_until(100);
  EXPECT_EQ(fired, (std::vector<int>{20, 30}));
}

// ------------------------------------------- (time, seq, shard) order ----

TEST(TotalOrder, EventQueuePopsByTimeThenKey) {
  EventQueue queue;
  std::vector<int> fired;
  auto record = [&](int tag) { return [&fired, tag] { fired.push_back(tag); }; };
  // Same timestamp, descending keys: insertion order must not matter.
  queue.push(0, 100, /*key=*/(3u << kShardIdBits) | 0, record(3));
  queue.push(0, 100, (1u << kShardIdBits) | 0, record(1));
  queue.push(0, 100, (2u << kShardIdBits) | 0, record(2));
  queue.push(0, 50, (9u << kShardIdBits) | 0, record(0));
  while (!queue.empty()) queue.pop()();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TotalOrder, CompositeKeyBreaksTiesBySeqThenShard) {
  // key = (seq << kShardIdBits) | shard, so at equal `when` a lower per-shard
  // sequence number always wins, and equal sequence numbers fall back to the
  // scheduling shard's id. This is the documented (time, seq, shard) total
  // order; keys are globally unique because the shard id is embedded.
  ShardCore s1;
  s1.shard = 1;
  ShardCore s2;
  s2.shard = 2;
  const std::uint64_t k_s1_1 = s1.make_key();  // seq 1, shard 1
  const std::uint64_t k_s2_1 = s2.make_key();  // seq 1, shard 2
  const std::uint64_t k_s1_2 = s1.make_key();  // seq 2, shard 1
  EXPECT_LT(k_s1_1, k_s2_1);  // equal seq: shard id breaks the tie
  EXPECT_LT(k_s2_1, k_s1_2);  // lower seq beats lower shard id
}

TEST(TotalOrder, CrossShardTiesResolveBySeqThenShard) {
  // Shards 1..3 each schedule onto shard 0 (in reverse shard order, to prove
  // submission order is irrelevant); every send is clamped to the same
  // arrival time (now + lookahead), so the (seq, shard) tie-break alone
  // decides the order.
  SimEngine engine(EngineConfig{.shards = 4, .lookahead = 1000});
  std::vector<std::unique_ptr<SimEngine>> handles;
  for (ShardId s = 1; s < 4; ++s) handles.push_back(engine.shard_handle(s));

  std::vector<int> fired;
  auto record = [&fired](int tag) { return [&fired, tag] { fired.push_back(tag); }; };
  const EventId cross = handles[2]->schedule_on(0, 0, record(3));  // shard 3
  handles[1]->schedule_on(0, 0, record(2));                        // shard 2
  handles[0]->schedule_on(0, 0, record(1));                        // shard 1
  handles[0]->schedule_on(0, 0, record(4));  // shard 1 again: seq 2
  EXPECT_EQ(cross, kInvalidEvent);  // cross-shard sends are not cancellable
  engine.run_until(10'000);
  // (seq 1, shard 1), (seq 1, shard 2), (seq 1, shard 3), (seq 2, shard 1).
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
}

// --------------------------------------------- cross-shard message path ----

TEST(RemoteSend, DeliversThroughSinkWithMinLatencyAndCountsMetric) {
  SimEngine engine(EngineConfig{.shards = 2});
  auto remote = engine.shard_handle(1);

  KernelConfig config = quiet_config(1);
  config.latency.cross_group_jitter_ns = 0.0;  // delivery exactly at min
  RtKernel k0(engine, config);
  RtKernel k1(*remote, config);
  k0.metrics().enable();
  k1.metrics().enable();

  auto mailbox = k1.mailbox_create("rx", 8);
  ASSERT_TRUE(mailbox.ok());

  const std::string payload = "ping";
  ASSERT_TRUE(k0.remote_send(1, *mailbox.value(),
                             Message(payload.data(), payload.size())));
  // Out-of-range shard: refused, nothing scheduled.
  Message stray(payload.data(), payload.size());
  EXPECT_FALSE(k0.remote_send(7, *mailbox.value(), std::move(stray)));

  engine.run_until(1'000'000);
  auto received = k1.mailbox_try_receive(*mailbox.value());
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(received->data()),
                        received->size()),
            payload);

  const auto snap = k0.metrics().snapshot();
  bool saw_counter = false;
  for (const auto& counter : snap.counters) {
    if (counter.name == "rtos.remote_sent") {
      saw_counter = true;
      EXPECT_EQ(counter.value, 1u);
    }
  }
  EXPECT_TRUE(saw_counter);
}

TEST(RemoteSend, PinballAcrossShardsIsDeterministic) {
  // A message bounced between two per-shard kernels N times; two identical
  // runs must produce the identical delivery timeline.
  auto timeline = [] {
    SimEngine engine(EngineConfig{.shards = 2});
    auto remote = engine.shard_handle(1);
    KernelConfig config = quiet_config(1);
    config.latency.cross_group_jitter_ns = 0.0;
    RtKernel k0(engine, config);
    RtKernel k1(*remote, config);
    auto mb0 = k0.mailbox_create("m0", 8);
    auto mb1 = k1.mailbox_create("m1", 8);
    EXPECT_TRUE(mb0.ok() && mb1.ok());

    // Bounce by polling from a timer on each side: receive on one shard,
    // immediately remote_send back to the other.
    struct Bouncer {
      RtKernel* self;
      Mailbox* in;
      Mailbox* out;
      ShardId peer;
      std::vector<SimTime> hops;
      SimEngine* eng;
      int remaining;
      void poll() {
        if (auto msg = self->mailbox_try_receive(*in)) {
          hops.push_back(eng->now());
          if (remaining-- > 0) {
            self->remote_send(peer, *out, std::move(*msg));
          }
        }
        if (remaining >= 0) {
          eng->schedule_after(50'000, [this] { poll(); });
        }
      }
    };
    Bouncer b0{&k0, mb0.value(), mb1.value(), 1, {}, &engine, 4};
    Bouncer b1{&k1, mb1.value(), mb0.value(), 0, {}, remote.get(), 4};
    b0.poll();
    b1.poll();
    k0.remote_send(1, *mb1.value(), Message("go", 2));
    engine.run_until(5'000'000);
    return std::pair{std::move(b0.hops), std::move(b1.hops)};
  };
  const auto first = timeline();
  EXPECT_GE(first.first.size() + first.second.size(), 5u);
  EXPECT_EQ(timeline(), first);
}

// ------------------------------------------- ordering differential ----

/// Drives an EngineCore with random same-shard schedules, cross-shard
/// schedules, message posts and cancels (live, fired and stale ids), from
/// the top level and from inside callbacks, and mirrors every operation in a
/// reference model: a std::set of pending items sorted by (when, key), with
/// the keys and clamped times the documented rules give. Every fired item
/// must be the model's minimum.
class OrderingDifferential {
 public:
  using Fired = std::tuple<SimTime, std::uint64_t, ShardId, std::size_t>;

  OrderingDifferential(std::size_t shards, std::uint64_t seed)
      : core_(EngineConfig{.shards = shards, .lookahead = kLookahead}),
        rng_(seed),
        clock_(shards, 0),
        seq_(shards, 1) {
    for (ShardId s = 0; s < shards; ++s) {
      core_.set_message_sink(
          s, MessageSink{[](void* ctx, void* target, Message) {
                           static_cast<OrderingDifferential*>(ctx)->fire(
                               *static_cast<Item*>(target));
                         },
                         this});
    }
  }

  void run(int rounds, int ops_per_round) {
    for (int round = 0; round < rounds; ++round) {
      for (int i = 0; i < ops_per_round; ++i) random_op(random_shard());
      deadline_ += draw(0, 400);
      core_.run_until(deadline_);
      for (std::size_t s = 0; s < clock_.size(); ++s) {
        clock_[s] = std::max(clock_[s], deadline_);
      }
      check_state(deadline_);
    }
    deadline_ = kSimTimeNever;
    core_.run_to_completion(10'000'000);
    const SimTime last = *std::max_element(clock_.begin(), clock_.end());
    for (SimTime& clock : clock_) clock = last;
    check_state(last);
    EXPECT_EQ(core_.pending_events_total(), 0u);
    EXPECT_GT(fired_total_, 0u);
  }

 private:
  static constexpr SimDuration kLookahead = 30;
  static constexpr int kSpawnBudget = 4000;

  struct Item {
    std::size_t index = 0;
    SimTime when = 0;
    std::uint64_t key = 0;
    ShardId shard = 0;
    bool message = false;
    bool done = false;  ///< fired or cancelled
    EventId id = kInvalidEvent;
  };
  using ModelKey = std::tuple<SimTime, std::uint64_t, std::size_t>;

  SimTime draw(SimTime lo, SimTime hi) {
    return std::uniform_int_distribution<SimTime>(lo, hi)(rng_);
  }
  ShardId random_shard() {
    return static_cast<ShardId>(
        draw(0, static_cast<SimTime>(clock_.size()) - 1));
  }

  Item& issue(ShardId ctx, ShardId target, SimTime when, bool message) {
    Item& item = items_.emplace_back();
    item.index = items_.size() - 1;
    item.key = (seq_[ctx]++ << kShardIdBits) | ctx;
    item.when = ctx == target ? std::max(when, clock_[ctx])
                              : std::max(when, clock_[ctx] + kLookahead);
    item.shard = target;
    item.message = message;
    model_.emplace(item.when, item.key, item.index);
    if (message) ++model_messages_;
    return item;
  }

  void random_op(ShardId ctx) {
    const SimTime now = clock_[ctx];
    const auto kind = draw(0, 9);
    if (kind < 4) {  // same shard, sometimes in the past
      const SimTime when = now + draw(-20, 60) * 5;
      Item& item = issue(ctx, ctx, when, false);
      item.id = core_.schedule(ctx, ctx, when, [this, &item] { fire(item); });
      cancellable_.push_back(&item);
    } else if (kind < 6) {  // cross shard (same shard when there is one)
      const ShardId target = random_shard();
      const SimTime when = now + draw(0, 20) * 5;
      Item& item = issue(ctx, target, when, false);
      const EventId id =
          core_.schedule(ctx, target, when, [this, &item] { fire(item); });
      if (target == ctx) {
        item.id = id;
        cancellable_.push_back(&item);
      } else {
        EXPECT_EQ(id, kInvalidEvent);
      }
    } else if (kind < 8) {  // message, same or cross shard
      const ShardId target = random_shard();
      const SimTime when = now + draw(-5, 20) * 5;
      Item& item = issue(ctx, target, when, true);
      core_.post_message(ctx, target, when, &item, Message("m", 1));
    } else {  // cancel a live, fired or already-cancelled event
      if (cancellable_.empty()) {
        core_.cancel(kInvalidEvent);
        return;
      }
      // Half the picks come from the newest few, which are mostly live.
      const auto count = static_cast<SimTime>(cancellable_.size());
      const SimTime lo = draw(0, 1) == 0 ? 0 : std::max<SimTime>(0, count - 8);
      Item& item =
          *cancellable_[static_cast<std::size_t>(draw(lo, count - 1))];
      core_.cancel(item.id);
      if (!item.done) {
        model_.erase(ModelKey{item.when, item.key, item.index});
        item.done = true;
      }
    }
  }

  void fire(Item& item) {
    ASSERT_FALSE(model_.empty());
    const auto [when, key, index] = *model_.begin();
    model_.erase(model_.begin());
    const Item& expected = items_[index];
    if (expected.message) --model_messages_;
    clock_[expected.shard] = when;
    EXPECT_LE(when, deadline_);
    EXPECT_EQ((Fired{core_.now(item.shard), item.key, item.shard, item.index}),
              (Fired{when, key, expected.shard, index}))
        << "fired item " << fired_total_;
    EXPECT_FALSE(item.done);
    item.done = true;
    ++fired_total_;
    // Callbacks schedule further work from their own shard's context.
    const auto spawn = draw(0, 2);
    for (SimTime i = 0; i < spawn && spawned_ < kSpawnBudget; ++i, ++spawned_) {
      random_op(item.shard);
    }
  }

  void check_state(SimTime deadline) {
    if (!model_.empty()) {
      EXPECT_GT(std::get<0>(*model_.begin()), deadline);
    }
    EXPECT_EQ(core_.pending_events_total(), model_.size());
    EXPECT_EQ(core_.pending_messages_total(), model_messages_);
    for (ShardId s = 0; s < clock_.size(); ++s) {
      EXPECT_EQ(core_.now(s), clock_[s]) << "shard " << s;
    }
  }

  EngineCore core_;
  std::mt19937_64 rng_;
  std::vector<SimTime> clock_;
  std::vector<std::uint64_t> seq_;
  std::deque<Item> items_;
  std::vector<Item*> cancellable_;
  std::set<ModelKey> model_;
  std::size_t model_messages_ = 0;
  SimTime deadline_ = 0;  ///< of the run in progress
  std::size_t fired_total_ = 0;
  int spawned_ = 0;
};

TEST(EngineOrdering, MatchesSortedReferenceModel) {
  for (const std::size_t shards : {1u, 2u, 16u, 256u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " seed=" + std::to_string(seed));
      OrderingDifferential(shards, seed).run(/*rounds=*/40,
                                             /*ops_per_round=*/60);
    }
  }
}

// ------------------------------------------------------- work counts ----

TEST(EngineWorkCount, ShardSelectionIsLogarithmic) {
  // 256 shards, each with one self-replenishing event at its own period:
  // every firing re-reads one leaf, so picking the next shard costs
  // log2(256) comparisons, where a scan over the shards costs 255.
  constexpr std::size_t kShards = 256;
  EngineCore core(EngineConfig{.shards = kShards});
  struct Tick {
    EngineCore* core;
    ShardId shard;
    void operator()() const {
      core->schedule(shard, shard, core->now(shard) + 1000 + shard, *this);
    }
  };
  for (ShardId s = 0; s < kShards; ++s) {
    core.schedule(s, s, s, Tick{&core, s});
  }
  const EngineWork before = core.work();
  const std::size_t fired = core.run_until(2'000'000);
  const EngineWork after = core.work();
  ASSERT_GT(fired, kShards * 100);
  EXPECT_EQ(after.events_fired - before.events_fired, fired);
  const std::uint64_t compares = after.head_compares - before.head_compares;
  const auto log2_shards = static_cast<std::uint64_t>(std::bit_width(kShards - 1));
  EXPECT_LE(compares, 2 * log2_shards * fired);
  // A one-shard engine needs no selection at all.
  EngineCore single(EngineConfig{});
  single.schedule(0, 0, 0, Tick{&single, 0});
  single.run_until(1'000'000);
  EXPECT_EQ(single.work().head_compares, 0u);
  EXPECT_GT(single.work().events_fired, 900u);
}

}  // namespace
}  // namespace drt::rtos
