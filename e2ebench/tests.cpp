// The benchmark's own tests: seeded inputs, span arithmetic, metric names
// against BENCHMARK.json, and run-to-run repeatability of the behaviour
// (vt_digest and per-layer counts), traced or not.
//
//   python3 e2ebench/run.py --test
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "report.hpp"
#include "scenario.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

constexpr Workload kAll[] = {Workload::kSteady256, Workload::kChurn512,
                             Workload::kFed16};

TEST(Inputs, SameSeedSameInputsOtherSeedOtherInputs) {
  for (Workload w : kAll) {
    SCOPED_TRACE(to_string(w));
    EXPECT_EQ(fingerprint(make_inputs(w, 7)), fingerprint(make_inputs(w, 7)));
    EXPECT_NE(fingerprint(make_inputs(w, 7)), fingerprint(make_inputs(w, 8)));
  }
}

TEST(Inputs, ShapesMatchTheWorkloadDefinitions) {
  const SteadyInputs steady = make_steady(3);
  std::size_t components = 0;
  for (const BundleSpec& b : steady.bundles) components += b.descriptors.size();
  EXPECT_EQ(steady.bundles.size(), kSteadyBundles);
  EXPECT_EQ(components, kSteadyBundles * kSteadyPerBundle);

  const ChurnInputs churn = make_churn(3);
  EXPECT_EQ(churn.bundles.size(), kChurnPoolBundles);
  EXPECT_EQ(churn.script.size(), kChurnOps);
  std::size_t infeasible = 0;
  for (const Op& op : churn.script) {
    if (op.kind == OpKind::kRegisterInfeasible) ++infeasible;
  }
  // ~10% of the operations register a contract no resolver can admit.
  EXPECT_GE(infeasible * 100, kChurnOps * 8);
  EXPECT_LE(infeasible * 100, kChurnOps * 12);

  const FedInputs fed = make_fed(3, 40);
  EXPECT_EQ(fed.placed.size(), kFedNodes * kFedPerNode);
  EXPECT_EQ(fed.pairs.size(), kFedNodes * kFedPairsPerNode);
  EXPECT_EQ(fed.script.size(), 40U);
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  // root [0,100) with children a [10,40) and b [50,90); b has child c
  // [60,70). Self: root 100-30-40 = 30, a 30, b 40-10 = 30, c 10.
  SpanRecorder recorder;
  recorder.add({"op.root", 0, 100, -1, 1});
  recorder.add({"rtos.a", 10, 40, 0, 1});
  recorder.add({"cap.b", 50, 90, 0, 1});
  recorder.add({"cap.c", 60, 70, 2, 1});
  EXPECT_EQ(recorder.self_times(),
            (std::vector<std::int64_t>{30, 30, 30, 10}));
  const auto totals = recorder.totals();
  EXPECT_EQ(totals.at("cap.b").total_ns, 40);
  EXPECT_EQ(totals.at("cap.b").self_ns, 30);
  EXPECT_EQ(totals.at("cap.c").count, 1U);
  EXPECT_EQ(layer_of("cap.c"), "cap");
  EXPECT_EQ(layer_of("op"), "op");
}

TEST(Spans, ScopedSpansNestUnderTheOpenSpan) {
  SpanRecorder recorder;
  {
    ScopedSpan outer(&recorder, "op.x", 5);
    ScopedSpan inner(&recorder, "drcom.resolve");
    recorder.leaf("cap.call", 1, 2);
  }
  ScopedSpan off(nullptr, "ignored");
  ASSERT_EQ(recorder.spans().size(), 3U);
  EXPECT_EQ(recorder.spans()[1].parent, 0);
  EXPECT_EQ(recorder.spans()[2].parent, 1);
  EXPECT_EQ(recorder.spans()[2].op, 0U);  // inner span carries no op id
  EXPECT_EQ(recorder.spans()[0].op, 5U);
}

TEST(Report, QuantilesInterpolate) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile({3, 1, 2}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({0, 10}, 0.99), 9.9);
}

TEST(Report, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometric_mean({}), 0.0);
  EXPECT_DOUBLE_EQ(geometric_mean({5}), 5.0);
  EXPECT_NEAR(geometric_mean({1, 100}), 10.0, 1e-12);
  EXPECT_NEAR(geometric_mean({2, 8, 4}), 4.0, 1e-12);
}

/// Names listed in one top-level array of BENCHMARK.json.
std::set<std::string> declared(const std::string& json,
                               const std::string& key) {
  const auto at = json.find("\"" + key + "\"");
  EXPECT_NE(at, std::string::npos) << key;
  const auto open = json.find('[', at);
  const auto close = json.find(']', open);
  const std::string section = json.substr(open, close - open);
  std::set<std::string> names;
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
  for (auto it = std::sregex_iterator(section.begin(), section.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    names.insert((*it)[1]);
  }
  return names;
}

TEST(Report, EveryEmittedNameIsWellFormedAndDeclared) {
  std::ifstream file(E2E_BENCHMARK_JSON);
  ASSERT_TRUE(file.good()) << E2E_BENCHMARK_JSON;
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string json = buffer.str();

  RoundResult round;
  round.setup_samples = {1.0};
  const Report report = build_report({round}, {round}, 1.0);
  const std::regex well_formed("[A-Za-z0-9_.-]+");
  std::set<std::string> e2e;
  for (const Metric& m : report.end_to_end) {
    EXPECT_TRUE(std::regex_match(m.name, well_formed)) << m.name;
    e2e.insert(m.name);
  }
  std::set<std::string> layers;
  for (const Metric& m : report.per_layer) {
    EXPECT_TRUE(std::regex_match(m.name, well_formed)) << m.name;
    layers.insert(m.name);
  }
  EXPECT_EQ(e2e, declared(json, "end_to_end"));
  EXPECT_EQ(layers, declared(json, "per_layer"));
  std::set<std::string> workloads;
  for (Workload w : kAll) workloads.insert(to_string(w));
  EXPECT_EQ(workloads, declared(json, "workloads"));
}

/// Per-layer metrics that each workload exercises (must read non-zero).
std::set<std::string> applicable(Workload w) {
  std::set<std::string> names = {
      "rtos.run_self_ns_per_event", "rtos.events_per_job",
      "rtos.dispatches_per_job", "ipc.mailbox_sent_per_job", "cap.call_ns",
      "cap.serve_ns", "cap.accept_ratio", "cap.binds_per_op",
      "drcom.admit_ratio"};
  switch (w) {
    case Workload::kSteady256:
      names.insert({"ipc.handoffs_per_job", "drcom.disable_ns",
                    "drcom.resolve_ns", "osgi.install_ns", "osgi.start_ns",
                    "osgi.uninstall_ns", "obs.observe_ns", "obs.export_ns",
                    "obs.export_bytes"});
      break;
    case Workload::kChurn512:
      names.insert({"drcom.register_ns", "drcom.unregister_ns",
                    "drcom.enable_ns", "drcom.disable_ns",
                    "drcom.deploy_system_ns", "drcom.resolve_ns",
                    "drcom.mode_transition_ns", "osgi.install_ns",
                    "osgi.start_ns", "osgi.uninstall_ns", "osgi.lookup_ns"});
      break;
    case Workload::kFed16:
      names.insert({"drcom.register_ns", "fed.place_ns", "fed.migrate_ns",
                    "fed.publish_ns", "fed.leave_join_ns",
                    "fed.place_accept_ratio", "fed.channel_msgs_per_job"});
      break;
  }
  return names;
}

TEST(Rounds, BehaviourRepeatsExactlyTracedOrNot) {
  for (Workload w : kAll) {
    SCOPED_TRACE(to_string(w));
    const Inputs inputs = make_inputs(w, 5);
    const RoundResult plain = run_round(inputs, 5, nullptr);
    SpanRecorder recorder;
    const RoundResult traced = run_round(inputs, 5, &recorder);
    EXPECT_EQ(plain.failed, 0U);
    for (const std::string& finding : plain.findings) ADD_FAILURE() << finding;
    EXPECT_EQ(plain.vt_digest, traced.vt_digest);
    EXPECT_EQ(plain.counts.events, traced.counts.events);
    EXPECT_EQ(plain.counts.jobs, traced.counts.jobs);
    EXPECT_EQ(plain.counts.dispatches, traced.counts.dispatches);
    EXPECT_EQ(plain.counts.cap_binds, traced.counts.cap_binds);
    EXPECT_EQ(plain.counts.channel_msgs, traced.counts.channel_msgs);
    EXPECT_TRUE(plain.counts == traced.counts);
    EXPECT_GT(plain.counts.jobs, 0U);
    EXPECT_TRUE(plain.spans.empty());
    EXPECT_FALSE(traced.spans.empty());

    const Report report = build_report({plain}, {traced}, 1.0);
    for (const Metric& m : report.per_layer) {
      if (applicable(w).contains(m.name)) {
        EXPECT_GT(m.value, 0.0) << m.name;
      }
    }
    for (const Metric& m : report.end_to_end) {
      EXPECT_GT(m.value, 0.0) << m.name;
    }
  }
}

}  // namespace
}  // namespace e2e
