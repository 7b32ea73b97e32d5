// The scenario fuzzer is itself a contract: same seed → bit-identical run,
// clean seeds stay clean, the planted accounting bug is caught / shrunk /
// replayable, and repro files round-trip through their parser.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "testing/fuzzer.hpp"
#include "util/logging.hpp"

namespace drt::testing {
namespace {

ScenarioConfig short_config() {
  ScenarioConfig config;
  config.action_count = 20;
  return config;
}

class FuzzTest : public ::testing::Test {
 protected:
  // Component churn logs one line per activation; silence it like drt_fuzz.
  void SetUp() override { log::set_level(log::Level::kError); }
  void TearDown() override { log::set_level(log::Level::kInfo); }
};

TEST_F(FuzzTest, SameSeedIsBitIdentical) {
  const ScenarioConfig config = short_config();
  const ScenarioResult first = run_scenario(7, config);
  const ScenarioResult second = run_scenario(7, config);
  ASSERT_FALSE(first.action_log.empty());
  ASSERT_FALSE(first.trace_text.empty());
  EXPECT_EQ(first.action_log, second.action_log);
  EXPECT_EQ(first.trace_text, second.trace_text);
}

TEST_F(FuzzTest, ShortSweepFindsNoViolations) {
  const ScenarioConfig config = short_config();
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const ScenarioResult result = run_scenario(seed, config);
    EXPECT_FALSE(result.violated)
        << "seed " << seed << ": " << result.violation.invariant << ": "
        << result.violation.detail;
  }
}

TEST_F(FuzzTest, PlantedBugIsCaughtShrunkAndReplayable) {
  ScenarioConfig config = short_config();
  config.plant_bug = true;
  const std::uint64_t seed = 1;

  const ScenarioResult result = run_scenario(seed, config);
  ASSERT_TRUE(result.violated);
  EXPECT_EQ(result.violation.invariant, "mailbox-conservation");

  const auto keep = shrink(seed, config, result.failing_index);
  ASSERT_FALSE(keep.empty());
  EXPECT_LE(keep.size(), result.failing_index + 1);
  const ScenarioResult shrunk = run_scenario_subset(seed, config, keep);
  ASSERT_TRUE(shrunk.violated);
  EXPECT_EQ(shrunk.violation.invariant, "mailbox-conservation");

  // write → parse → replay must reproduce the violation from the file alone.
  const std::string text = write_repro(Repro{seed, config, keep}, shrunk);
  EXPECT_EQ(text.find("\nengine "), std::string::npos);
  auto parsed = parse_repro(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().seed, seed);
  EXPECT_EQ(parsed.value().keep, keep);
  EXPECT_TRUE(parsed.value().config.plant_bug);
  const ScenarioResult replayed = replay(parsed.value());
  ASSERT_TRUE(replayed.violated);
  EXPECT_EQ(replayed.violation.invariant, "mailbox-conservation");
  EXPECT_EQ(replayed.violation.detail, shrunk.violation.detail);
}

TEST_F(FuzzTest, SubsetRunsAreDeterministicToo) {
  const ScenarioConfig config = short_config();
  const std::vector<std::size_t> keep{0, 3, 4, 9, 15};
  const ScenarioResult first = run_scenario_subset(11, config, keep);
  const ScenarioResult second = run_scenario_subset(11, config, keep);
  EXPECT_EQ(first.action_log, second.action_log);
  EXPECT_EQ(first.trace_text, second.trace_text);
  EXPECT_EQ(first.action_log.size(), keep.size());
}

TEST_F(FuzzTest, ReproParserRejectsMalformedInput) {
  auto no_seed = parse_repro("actions 20\nkeep 0 1\n");
  ASSERT_FALSE(no_seed.ok());
  EXPECT_EQ(no_seed.error().code, "fuzz.bad_repro");

  auto bad_seed = parse_repro("seed banana\n");
  ASSERT_FALSE(bad_seed.ok());
  EXPECT_EQ(bad_seed.error().code, "fuzz.bad_repro");

  auto unknown_key = parse_repro("seed 1\nwibble 3\n");
  ASSERT_FALSE(unknown_key.ok());
  EXPECT_EQ(unknown_key.error().code, "fuzz.bad_repro");

  auto unsorted_keep = parse_repro("seed 1\nkeep 3 1\n");
  ASSERT_FALSE(unsorted_keep.ok());
  EXPECT_EQ(unsorted_keep.error().code, "fuzz.bad_repro");

  auto zero_cpus = parse_repro("seed 1\ncpus 0\n");
  ASSERT_FALSE(zero_cpus.ok());
  EXPECT_EQ(zero_cpus.error().code, "fuzz.bad_repro");

  // The parallel engine backend was removed: a repro asking for it is
  // refused, and the error names what is gone.
  auto parallel = parse_repro("seed 1\nengine parallel\n");
  ASSERT_FALSE(parallel.ok());
  EXPECT_EQ(parallel.error().code, "fuzz.bad_repro");
  EXPECT_NE(parallel.error().message.find("parallel backend was removed"),
            std::string::npos)
      << parallel.error().message;
}

TEST_F(FuzzTest, ReproWithoutKeepReplaysTheFullSequence) {
  auto parsed = parse_repro("# comment\n\nseed 5\nactions 12\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().keep.size(), 12u);
  EXPECT_EQ(parsed.value().keep.front(), 0u);
  EXPECT_EQ(parsed.value().keep.back(), 11u);

  // Repro files written before the engine line was dropped still carry
  // "engine sequential"; it parses as a no-op.
  auto with_engine = parse_repro("seed 5\nactions 12\nengine sequential\n");
  ASSERT_TRUE(with_engine.ok()) << with_engine.error().to_string();
  EXPECT_EQ(with_engine.value().seed, 5u);
  EXPECT_EQ(with_engine.value().keep.size(), 12u);
}

}  // namespace
}  // namespace drt::testing
