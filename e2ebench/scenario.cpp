#include "scenario.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <optional>

#include "calibration.hpp"
#include "components.hpp"
#include "drcom/monitor.hpp"
#include "drcom/resolver.hpp"
#include "fed/coordinator.hpp"
#include "obs/export.hpp"
#include "osgi/ldap_filter.hpp"
#include "testing/oracle.hpp"

namespace e2e {
namespace {

using namespace drt;

/// Admission budget of the internal resolver (the DRCR default).
constexpr double kBudget = 0.9;
/// steady_256: virtual length of the steady-state window, the export
/// cadence, and the tail of each export period the kernel trace records
/// (a sampled flight-recorder window keeps every Chrome-trace render
/// bounded; the full trace would grow without limit).
constexpr SimDuration kSteadyWindow = seconds(2);
constexpr SimDuration kExportPeriod = milliseconds(100);
constexpr SimDuration kTraceWindow = milliseconds(10);
/// Virtual time between two operations of the closed reconfiguration loops.
constexpr SimDuration kTeardownAdvance = milliseconds(1);
constexpr SimDuration kChurnAdvance = milliseconds(2);
/// fed_16: operations come in bursts of kFedBurst, one burst per kFedSlot;
/// every 20th operation is a leave/join. Operations that follow another one
/// find more of the stack's state in the caches than one right after engine
/// work, and their latencies follow the host's speed about as closely as
/// the calibration slice does; isolated operations did not (README.md).
constexpr SimDuration kFedSlot = milliseconds(10);
constexpr std::size_t kFedBurst = 5;
constexpr std::size_t kFedOps = 750;
/// Set-up-only passes before each full round: set-up takes milliseconds,
/// so its median needs more samples than there are rounds.
constexpr int kSetupPasses = 5;
constexpr std::size_t kMaxFindings = 8;
/// One calibration slice per this many engine runs (calibration.hpp).
constexpr std::size_t kProbeEvery = 8;

rtos::KernelConfig kernel_config(std::uint64_t seed) {
  rtos::KernelConfig config;
  config.cpus = 2;
  config.seed = seed;
  return config;
}

drcom::DrcrConfig drcr_config() {
  drcom::DrcrConfig config;
  config.cpu_budget = kBudget;
  config.auto_resolve = false;
  return config;
}

/// Root span name of one churn operation.
const char* op_span(OpKind kind) {
  switch (kind) {
    case OpKind::kRegister: return "op.register";
    case OpKind::kRegisterInfeasible: return "op.register_infeasible";
    case OpKind::kUnregister: return "op.unregister";
    case OpKind::kDisable: return "op.disable";
    case OpKind::kEnable: return "op.enable";
    case OpKind::kBundleInstall: return "op.bundle_install";
    case OpKind::kBundleUninstall: return "op.bundle_uninstall";
    case OpKind::kDeploySystem: return "op.deploy_system";
    case OpKind::kUndeploySystem: return "op.undeploy_system";
    case OpKind::kModeTransition: return "op.mode_transition";
    case OpKind::kConnect: return "op.connect";
  }
  return "op.unknown";
}

osgi::BundleDefinition bundle_definition(const BundleSpec& spec) {
  osgi::BundleDefinition definition;
  definition.manifest.set_symbolic_name(spec.symbolic_name);
  for (const auto& [path, xml] : spec.descriptors) {
    definition.manifest.add_component_resource(path);
    definition.resources[path] = xml;
  }
  return definition;
}

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            const std::string& name) {
  for (const auto& counter : snap.counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

std::uint64_t completions(const rtos::RtKernel& kernel) {
  return counter_value(kernel.metrics().snapshot(), "rtos.completions");
}

/// One DRCR on one kernel: the stack steady_256 and churn_512 run.
struct Solo {
  rtos::SimEngine engine;
  rtos::RtKernel kernel;
  osgi::Framework framework;
  drcom::Drcr drcr;
  std::unique_ptr<drcom::ContractMonitor> monitor;

  explicit Solo(std::uint64_t seed)
      : kernel(engine, kernel_config(seed)),
        drcr(framework, kernel, drcr_config()) {
    kernel.metrics().enable();
  }
};

class Round {
 public:
  Round(const Inputs& inputs, std::uint64_t seed, SpanRecorder* spans,
        bool setup_only)
      : inputs_(inputs), seed_(seed), spans_(spans), setup_only_(setup_only) {
    body_.spans = spans;
  }

  RoundResult run() {
    switch (inputs_.workload) {
      case Workload::kSteady256: steady(); break;
      case Workload::kChurn512: churn(); break;
      case Workload::kFed16: fed(); break;
    }
    result_.vt_digest = digest_.value();
    if (!slices_ns_.empty()) {
      auto middle = slices_ns_.begin() + slices_ns_.size() / 2;
      std::nth_element(slices_ns_.begin(), middle, slices_ns_.end());
      result_.calibration_ns = *middle;
    }
    if (spans_ != nullptr) result_.spans = spans_->totals();
    return std::move(result_);
  }

 private:
  // ------------------------------------------------------------ helpers --
  void fail(const std::string& what) {
    ++result_.failed;
    if (result_.findings.size() < kMaxFindings) {
      result_.findings.push_back(what);
    }
  }
  void expect_ok(const Result<void>& result, const std::string& what) {
    if (!result.ok()) fail(what + ": " + result.error().to_string());
  }

  /// Times one reconfiguration operation from the call to its return.
  template <typename Fn>
  void timed_op(const char* name, Fn&& fn) {
    const std::int64_t start = cpu_ns();
    {
      ScopedSpan span(spans_, name, ++op_id_);
      fn();
    }
    result_.op_us.push_back(static_cast<double>(cpu_ns() - start) / 1e3);
    add_window(start);
    ++result_.counts.ops;
  }

  void run_until(rtos::SimEngine& engine, SimTime deadline) {
    if (++run_calls_ % kProbeEvery == 0) {
      slices_ns_.push_back(calibration_slice_ns());
    }
    const std::int64_t start = cpu_ns();
    {
      ScopedSpan span(spans_, "rtos.run_until");
      const std::size_t fired = engine.run_until(deadline);
      result_.counts.events += fired;
      if (spans_ != nullptr) result_.traced_events += fired;
    }
    add_window(start);
  }

  /// The steady-state window is the sum of the timed pieces inside it (engine
  /// runs, exports and operations), which leaves the calibration slices out.
  void add_window(std::int64_t start) {
    if (in_window_) window_ns_ += cpu_ns() - start;
  }
  void open_window() { in_window_ = true; }
  void close_window() {
    in_window_ = false;
    result_.window_s = static_cast<double>(window_ns_) / 1e9;
  }

  void resolve(drcom::Drcr& drcr) {
    ScopedSpan span(spans_, "drcom.resolve");
    drcr.resolve();
  }

  /// Feeds every lifecycle event into the digest and the admission counts.
  void listen(drcom::Drcr& drcr, std::size_t node) {
    drcr.add_listener([this, node](const drcom::DrcrEvent& event) {
      digest_.u64(node);
      digest_.u64(static_cast<std::uint64_t>(event.when));
      digest_.u64(static_cast<std::uint64_t>(event.type));
      digest_.text(event.component);
      digest_.text(event.reason);
      digest_.u64(static_cast<std::uint64_t>(event.code));
      if (event.type == drcom::DrcrEventType::kActivated) {
        ++result_.counts.activations;
      } else if (event.type == drcom::DrcrEventType::kRejected) {
        ++result_.counts.rejections;
      }
    });
  }

  std::optional<BundleId> install_start(Solo& s, const BundleSpec& spec) {
    osgi::BundleDefinition definition = bundle_definition(spec);
    std::optional<BundleId> id;
    {
      ScopedSpan span(spans_, "osgi.install");
      auto installed = s.framework.install(std::move(definition));
      if (installed.ok()) {
        id = installed.value();
      } else {
        fail("install " + spec.symbolic_name + ": " +
             installed.error().to_string());
      }
    }
    if (id.has_value()) {
      ScopedSpan span(spans_, "osgi.start");
      expect_ok(s.framework.start(*id), "start " + spec.symbolic_name);
    }
    resolve(s.drcr);
    return id;
  }

  void stop_uninstall(Solo& s, BundleId id) {
    {
      ScopedSpan span(spans_, "osgi.stop");
      expect_ok(s.framework.stop(id), "stop bundle");
    }
    {
      ScopedSpan span(spans_, "osgi.uninstall");
      expect_ok(s.framework.uninstall(id), "uninstall bundle");
    }
    resolve(s.drcr);
  }

  /// Drcr::observe() plus the Prometheus and Chrome-trace renders.
  void export_once(drcom::Drcr& drcr) {
    const std::int64_t start = cpu_ns();
    export_rendered(drcr);
    add_window(start);
  }

  void export_rendered(drcom::Drcr& drcr) {
    std::optional<obs::ObsSnapshot> snap;
    {
      ScopedSpan span(spans_, "obs.observe");
      snap = drcr.observe();
    }
    ScopedSpan span(spans_, "obs.export");
    const std::string prom = obs::PrometheusExporter{}.render(*snap);
    const std::string chrome = obs::ChromeTraceExporter{}.render(*snap);
    ++result_.counts.exports;
    result_.counts.export_bytes += prom.size() + chrome.size();
  }

  /// The final Prometheus export of a kernel goes into the digest.
  void digest_export(const drcom::Drcr& drcr) {
    digest_.text(obs::PrometheusExporter{}.render(drcr.observe()));
  }

  /// Kernel, IPC and capability counts of one DRCR stack, plus the
  /// per-stack output checks: the invariant oracle, exact capability
  /// conservation on every live connection, and no deadline miss.
  void collect(const drcom::Drcr& drcr, const std::string& where) {
    const obs::MetricsSnapshot snap = drcr.kernel().metrics().snapshot();
    Counts& c = result_.counts;
    c.jobs += counter_value(snap, "rtos.completions");
    c.dispatches += counter_value(snap, "rtos.dispatches");
    c.preemptions += counter_value(snap, "rtos.preemptions");
    const std::uint64_t misses = counter_value(snap, "rtos.deadline_misses");
    c.deadline_misses += misses;
    c.mailbox_sent += counter_value(snap, "ipc.mailbox_sent");
    c.mailbox_dropped += counter_value(snap, "ipc.mailbox_dropped");
    c.handoffs += counter_value(snap, "ipc.mailbox_handoff");
    c.contract_violations += drcr.total_contract_violations();
    if (misses > 0) {
      fail(where + ": " + std::to_string(misses) +
           " deadline misses by admitted tasks");
    }

    const cap::CapRouter& router = drcr.cap_router();
    cap::ConnectionCounters total = router.retired();
    router.for_each_connection([&](const cap::Connection& connection) {
      const cap::ConnectionCounters& k = connection.counters();
      if (k.sent != k.accepted + k.rejected + k.revoked) {
        fail(where + ": capability conservation broken on " +
             connection.client() + "->" + connection.provider());
      }
      total += k;
    });
    if (total.sent != total.accepted + total.rejected + total.revoked) {
      fail(where + ": capability conservation broken in aggregate");
    }
    c.cap_sent += total.sent;
    c.cap_accepted += total.accepted;
    c.cap_rejected += total.rejected;
    c.cap_revoked += total.revoked;
    c.cap_binds += router.bind_count();

    check_oracle(drcr, where);
  }

  void check_oracle(const drcom::Drcr& drcr, const std::string& where) {
    const rtos::FaultPlan no_faults;
    testing::InvariantOracle oracle(drcr, no_faults, kBudget);
    if (auto violation = oracle.check()) {
      fail(where + ": oracle " + violation->invariant + ": " +
           violation->detail);
    }
  }

  void digest_counts() {
    const Counts& c = result_.counts;
    for (std::uint64_t v :
         {c.events, c.jobs, c.dispatches, c.preemptions, c.deadline_misses,
          c.mailbox_sent, c.mailbox_dropped, c.handoffs, c.cap_sent,
          c.cap_accepted, c.cap_rejected, c.cap_revoked, c.cap_binds,
          c.served, c.activations, c.rejections, c.contract_violations,
          c.channel_msgs, c.placements, c.exports, c.export_bytes}) {
      digest_.u64(v);
    }
  }

  // ---------------------------------------------------------- steady_256 --
  void steady() {
    const std::int64_t t0 = cpu_ns();
    auto s = std::make_unique<Solo>(seed_);
    register_work_factory(s->drcr, body_);
    listen(s->drcr, 0);
    s->monitor = std::make_unique<drcom::ContractMonitor>(s->drcr);
    s->monitor->start();
    std::vector<BundleId> bundles;
    for (const BundleSpec& spec : inputs_.steady.bundles) {
      ++result_.counts.ops;
      if (auto id = install_start(*s, spec)) bundles.push_back(*id);
    }
    const std::size_t expected = kSteadyBundles * kSteadyPerBundle;
    if (s->drcr.active_count() != expected) {
      fail("setup: " + std::to_string(s->drcr.active_count()) + " of " +
           std::to_string(expected) + " components active");
    }
    result_.setup_s = static_cast<double>(cpu_ns() - t0) / 1e9;
    if (setup_only_) return;

    open_window();
    for (SimTime t = 0; t < kSteadyWindow; t += kExportPeriod) {
      run_until(s->engine, t + kExportPeriod - kTraceWindow);
      s->kernel.trace().enable();
      run_until(s->engine, t + kExportPeriod);
      export_once(s->drcr);
      s->kernel.trace().clear();
      s->kernel.trace().disable();
    }
    close_window();
    result_.counts.window_jobs = completions(s->kernel);
    check_oracle(s->drcr, "steady_256 window");
    digest_export(s->drcr);

    // Graceful teardown as the closed reconfiguration loop: disable every
    // component (servers before their clients: reverse name order), then
    // stop and uninstall every bundle.
    std::vector<std::string> names = s->drcr.component_names();
    std::sort(names.rbegin(), names.rend());
    for (const std::string& name : names) {
      timed_op("op.disable", [&] {
        {
          ScopedSpan span(spans_, "drcom.disable");
          expect_ok(s->drcr.disable_component(name), "disable " + name);
        }
        resolve(s->drcr);
      });
      run_until(s->engine, s->engine.now() + kTeardownAdvance);
    }
    for (BundleId id : bundles) {
      timed_op("op.bundle_uninstall", [&] { stop_uninstall(*s, id); });
      run_until(s->engine, s->engine.now() + kTeardownAdvance);
    }
    result_.counts.served = body_.served;
    collect(s->drcr, "steady_256");
    digest_export(s->drcr);
    digest_counts();
  }

  // ----------------------------------------------------------- churn_512 --
  void churn() {
    const ChurnInputs& in = inputs_.churn;
    const std::int64_t t0 = cpu_ns();
    auto s = std::make_unique<Solo>(seed_);
    register_work_factory(s->drcr, body_);
    listen(s->drcr, 0);
    // Response-time analysis joins admission as a custom resolving service
    // discovered in the registry (paper section 2.2).
    const std::shared_ptr<drcom::ResolvingService> rta =
        std::make_shared<drcom::ResponseTimeResolver>();
    osgi::ServiceRegistration rta_registration =
        s->framework.system_context().register_service(
            std::string(drcom::kResolvingServiceInterface),
            std::static_pointer_cast<void>(rta));
    s->monitor = std::make_unique<drcom::ContractMonitor>(s->drcr);
    s->monitor->start();
    std::map<std::size_t, BundleId> installed;
    for (std::size_t b = 0; b < kChurnInitialBundles; ++b) {
      ++result_.counts.ops;
      if (auto id = install_start(*s, in.bundles[b])) installed[b] = *id;
    }
    const std::size_t expected = kChurnInitialBundles * kChurnPerBundle;
    if (s->drcr.active_count() != expected) {
      fail("setup: " + std::to_string(s->drcr.active_count()) + " of " +
           std::to_string(expected) + " components active");
    }
    result_.setup_s = static_cast<double>(cpu_ns() - t0) / 1e9;
    if (setup_only_) return;

    open_window();
    const std::uint64_t jobs0 = completions(s->kernel);
    std::size_t external = 0;
    for (const Op& op : in.script) {
      timed_op(op_span(op.kind), [&] { apply(*s, op, installed, external); });
      run_until(s->engine, s->engine.now() + kChurnAdvance);
    }
    close_window();
    result_.counts.window_jobs = completions(s->kernel) - jobs0;
    result_.counts.served = body_.served;
    collect(s->drcr, "churn_512");
    digest_export(s->drcr);
    digest_counts();
  }

  void register_xml(Solo& s, const Op& op) {
    std::optional<Result<drcom::ComponentDescriptor>> parsed;
    {
      ScopedSpan span(spans_, "xml.parse_descriptor");
      parsed = drcom::parse_descriptor(op.xml);
    }
    if (!parsed->ok()) {
      fail("parse " + op.target + ": " + parsed->error().to_string());
      return;
    }
    ScopedSpan span(spans_, "drcom.register");
    expect_ok(s.drcr.register_component(std::move(*parsed).take()),
              "register " + op.target);
  }

  void apply(Solo& s, const Op& op,
             std::map<std::size_t, BundleId>& installed,
             std::size_t& external) {
    drcom::Drcr& drcr = s.drcr;
    switch (op.kind) {
      case OpKind::kRegister:
        register_xml(s, op);
        break;
      case OpKind::kRegisterInfeasible:
        register_xml(s, op);
        resolve(drcr);
        if (drcr.state_of(op.target) == drcom::ComponentState::kActive) {
          fail("infeasible contract " + op.target + " was admitted");
        } else {
          ++result_.counts.expected_rejections;
        }
        return;  // resolved above
      case OpKind::kUnregister: {
        ScopedSpan span(spans_, "drcom.unregister");
        expect_ok(drcr.unregister_component(op.target),
                  "unregister " + op.target);
        break;
      }
      case OpKind::kDisable: {
        ScopedSpan span(spans_, "drcom.disable");
        expect_ok(drcr.disable_component(op.target), "disable " + op.target);
        break;
      }
      case OpKind::kEnable: {
        ScopedSpan span(spans_, "drcom.enable");
        expect_ok(drcr.enable_component(op.target), "enable " + op.target);
        break;
      }
      case OpKind::kBundleInstall:
        if (auto id = install_start(s, inputs_.churn.bundles[op.index])) {
          installed[op.index] = *id;
        }
        return;  // install_start resolves
      case OpKind::kBundleUninstall: {
        const auto found = installed.find(op.index);
        if (found == installed.end()) {
          fail("uninstall of bundle " + op.target + " that never installed");
          return;
        }
        stop_uninstall(s, found->second);
        installed.erase(found);
        return;  // stop_uninstall resolves
      }
      case OpKind::kDeploySystem: {
        std::optional<Result<drcom::SystemDescriptor>> parsed;
        {
          ScopedSpan span(spans_, "xml.parse_system");
          parsed = drcom::parse_system_descriptor(op.xml);
        }
        if (!parsed->ok()) {
          fail("parse " + op.target + ": " + parsed->error().to_string());
          return;
        }
        ScopedSpan span(spans_, "drcom.deploy_system");
        expect_ok(drcr.deploy_system(parsed->value()), "deploy " + op.target);
        break;
      }
      case OpKind::kUndeploySystem: {
        ScopedSpan span(spans_, "drcom.undeploy_system");
        expect_ok(drcr.undeploy_system(op.target), "undeploy " + op.target);
        break;
      }
      case OpKind::kModeTransition: {
        ScopedSpan span(spans_, "drcom.mode_transition");
        // A transition the projected pre-check refuses is an expected
        // admission outcome, not a failure.
        if (!drcr.mode_controller().transition_to(op.target).ok()) {
          ++result_.counts.expected_rejections;
        }
        break;
      }
      case OpKind::kConnect: {
        const auto filter =
            osgi::Filter::parse("(component.name=" + op.target + ")");
        if (!filter.ok()) {
          fail("filter for " + op.target);
          return;
        }
        std::vector<osgi::ServiceReference> refs;
        {
          ScopedSpan span(spans_, "osgi.lookup");
          refs = s.framework.registry().get_references(
              drcom::kManagementInterface, &filter.value());
        }
        // A provider that is not active (unsatisfied, dropped by a mode,
        // or its bundle gone) has no management service: nothing to do.
        if (refs.empty()) break;
        const std::string client = "xc" + std::to_string(external++);
        Result<cap::Connection*> connection = [&] {
          ScopedSpan span(spans_, "drcom.connect_capability");
          return drcr.connect_capability(client, op.target, "rpc");
        }();
        if (!connection.ok()) {
          fail("connect to " + op.target + ": " +
               connection.error().to_string());
          break;
        }
        std::array<std::byte, kRequestBytes> request{};
        {
          ScopedSpan span(spans_, "cap.call");
          const ErrorCode ec = connection.value()->call(1, request);
          if (ec == ErrorCode::kInvalidArgument) {
            fail("external call to " + op.target + " malformed");
          }
        }
        drcr.cap_router().release_client(client);
        break;
      }
    }
    resolve(drcr);
  }

  // -------------------------------------------------------------- fed_16 --
  void fed() {
    const FedInputs& in = inputs_.fed;
    RemoteRoutes remote;
    body_.remote = &remote;
    const std::int64_t t0 = cpu_ns();
    fed::FederationConfig config;
    config.nodes = kFedNodes;
    config.kernel = kernel_config(seed_);
    config.cpu_budget = kBudget;
    // FederationCoordinator::place and ::migrate judge a node by whether
    // the component settled right after registration, which needs each
    // node's DRCR to resolve on registration.
    config.auto_resolve = true;
    config.inbox_capacity = 64;
    fed::Federation federation(config);
    for (std::size_t n = 0; n < federation.size(); ++n) {
      fed::Node& node = federation.node(n);
      node.kernel->metrics().enable();
      register_work_factory(*node.drcr, body_);
      listen(*node.drcr, n);
    }
    fed::FederationCoordinator coordinator(federation);

    const auto parse = [&](const std::string& xml) {
      ScopedSpan span(spans_, "xml.parse_descriptor");
      return drcom::parse_descriptor(xml);
    };
    for (const FedInputs::Pair& pair : in.pairs) {
      for (const auto& [node, xml] :
           {std::pair{pair.server_node, &pair.server_xml},
            std::pair{pair.client_node, &pair.client_xml}}) {
        ++result_.counts.ops;
        auto descriptor = parse(*xml);
        if (!descriptor.ok()) {
          fail("parse pair: " + descriptor.error().to_string());
          continue;
        }
        ScopedSpan span(spans_, "drcom.register");
        expect_ok(federation.node(node).drcr->register_component(
                      std::move(descriptor).take()),
                  "register pair member");
      }
      ++result_.counts.ops;
      auto bound =
          federation.bind_capability(pair.client_node, "x" + pair.client,
                                     pair.server_node, pair.server, "rpc");
      if (bound.ok()) {
        remote[pair.client] = bound.value();
      } else {
        fail("bind " + pair.client + ": " + bound.error().to_string());
      }
    }
    {
      ScopedSpan span(spans_, "fed.publish");
      coordinator.publish_all();
    }
    std::vector<drcom::ComponentDescriptor> placed;
    for (const std::string& xml : in.placed) {
      auto descriptor = parse(xml);
      if (!descriptor.ok()) {
        fail("parse placed: " + descriptor.error().to_string());
        continue;
      }
      placed.push_back(std::move(descriptor).take());
      ++result_.counts.ops;
      place(federation, coordinator, placed.back());
    }
    result_.setup_s = static_cast<double>(cpu_ns() - t0) / 1e9;
    if (setup_only_) return;

    open_window();
    for (std::size_t i = 0; i < kFedOps && i < in.script.size(); ++i) {
      const FedOp& op = in.script[i];
      if (i % kFedBurst == 0) {
        run_until(federation.engine(), federation.now() + kFedSlot);
      }
      if (op.leave_join) {
        timed_op("op.leave_join", [&] {
          leave_join(federation, coordinator, placed, op.node);
        });
        continue;
      }
      const std::string& name = placed[op.victim].name;
      const auto source = coordinator.node_of(name);
      const std::size_t target =
          source == op.node ? (op.node + 1) % kFedNodes : op.node;
      timed_op("op.migrate", [&] {
        ScopedSpan span(spans_, "fed.migrate");
        expect_ok(coordinator.migrate(name, target), "migrate " + name);
      });
    }
    close_window();

    for (std::size_t n = 0; n < federation.size(); ++n) {
      collect(*federation.node(n).drcr, "fed_16 node " + std::to_string(n));
    }
    result_.counts.window_jobs = result_.counts.jobs;
    result_.counts.served = body_.served;
    result_.counts.channel_msgs = federation.channel_totals().sent;
    if (auto violation = testing::check_federation(federation)) {
      fail("fed_16: invariant 9 " + violation->invariant + ": " +
           violation->detail);
    }
    for (std::size_t n = 0; n < federation.size(); ++n) {
      digest_export(*federation.node(n).drcr);
    }
    digest_counts();
  }

  void place(fed::Federation& federation,
             fed::FederationCoordinator& coordinator,
             const drcom::ComponentDescriptor& descriptor) {
    ++result_.counts.place_calls;
    ScopedSpan span(spans_, "fed.place");
    auto node = coordinator.place(descriptor);
    if (!node.ok()) {
      fail("place " + descriptor.name + ": " + node.error().to_string());
      return;
    }
    if (federation.node(node.value()).drcr->state_of(descriptor.name) ==
        drcom::ComponentState::kActive) {
      ++result_.counts.placements;
    }
  }

  /// A node leaves; up to kFedReplaced of its placed components are
  /// re-placed on the surviving nodes; the node joins again and every
  /// summary is republished.
  void leave_join(fed::Federation& federation,
                  fed::FederationCoordinator& coordinator,
                  const std::vector<drcom::ComponentDescriptor>& placed,
                  std::size_t node) {
    {
      ScopedSpan span(spans_, "fed.leave");
      federation.leave(node);
    }
    std::size_t moved = 0;
    for (const drcom::ComponentDescriptor& descriptor : placed) {
      if (moved == kFedReplaced) break;
      if (coordinator.node_of(descriptor.name) != node) continue;
      ++moved;
      {
        ScopedSpan span(spans_, "fed.remove");
        expect_ok(coordinator.remove(descriptor.name),
                  "remove " + descriptor.name);
      }
      place(federation, coordinator, descriptor);
    }
    {
      ScopedSpan span(spans_, "fed.join");
      federation.join(node);
    }
    ScopedSpan span(spans_, "fed.publish");
    coordinator.publish_all();
  }

  const Inputs& inputs_;
  std::uint64_t seed_;
  std::int64_t window_ns_ = 0;
  bool in_window_ = false;
  std::size_t run_calls_ = 0;
  std::vector<double> slices_ns_;  ///< calibration slices of this round
  SpanRecorder* spans_;
  /// Stop right after set-up (set-up time sampling passes).
  bool setup_only_;
  BodyContext body_;
  RoundResult result_;
  Fnv digest_;
  std::uint32_t op_id_ = 0;
};

}  // namespace

Inputs make_inputs(Workload workload, std::uint64_t seed) {
  Inputs inputs;
  inputs.workload = workload;
  switch (workload) {
    case Workload::kSteady256: inputs.steady = make_steady(seed); break;
    case Workload::kChurn512: inputs.churn = make_churn(seed); break;
    case Workload::kFed16: inputs.fed = make_fed(seed, kFedOps); break;
  }
  return inputs;
}

std::uint64_t fingerprint(const Inputs& inputs) {
  switch (inputs.workload) {
    case Workload::kSteady256: return fingerprint(inputs.steady);
    case Workload::kChurn512: return fingerprint(inputs.churn);
    case Workload::kFed16: return fingerprint(inputs.fed);
  }
  return 0;
}

RoundResult run_round(const Inputs& inputs, std::uint64_t seed,
                      SpanRecorder* spans) {
  std::vector<double> setups;
  std::uint64_t failed = 0;
  std::vector<std::string> findings;
  for (int pass = 0; pass < kSetupPasses; ++pass) {
    RoundResult setup = Round(inputs, seed, nullptr, true).run();
    setups.push_back(setup.setup_s);
    failed += setup.failed;
    findings.insert(findings.end(), setup.findings.begin(),
                    setup.findings.end());
  }
  if (spans != nullptr) spans->clear();
  RoundResult result = Round(inputs, seed, spans, false).run();
  setups.push_back(result.setup_s);
  result.setup_samples = std::move(setups);
  result.failed += failed;
  result.findings.insert(result.findings.end(), findings.begin(),
                         findings.end());
  return result;
}

}  // namespace e2e
