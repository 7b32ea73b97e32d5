// End-to-end DRCR stack benchmark: command-line entry point.
//
//   e2e_bench --workload steady_256|churn_512|fed_16 --seed N --seconds S
//              --trace 0|1 [--spans-out PATH]
//
// Runs whole rounds of the workload (see scenario.hpp) until S host seconds
// have passed, checks every round's outputs, and prints a summary followed
// by one JSON line: {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics; traced runs alternate untraced and
// traced rounds and report the per-layer metrics, each layer's self time
// and the tracing overhead. The exit code is non-zero when any check
// failed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "report.hpp"
#include "scenario.hpp"
#include "util/logging.hpp"

namespace {

using namespace e2e;

struct Args {
  Workload workload = Workload::kSteady256;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "steady_256|churn_512|fed_16 --seed N --seconds S --trace 0|1 "
               "[--spans-out PATH]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!parse_workload(value, &args.workload)) usage("unknown workload");
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
      if (!(args.seconds > 0.0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Writes the spans of the last traced round, one per line:
/// name, start_ns, end_ns, parent index, operation id.
void write_spans(const SpanRecorder& recorder, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "e2e_bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "name\tstart_ns\tend_ns\tparent\top\n");
  for (const Span& span : recorder.spans()) {
    std::fprintf(out, "%s\t%lld\t%lld\t%d\t%u\n", span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent, span.op);
  }
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  drt::log::set_level(drt::log::Level::kOff);

  const Inputs inputs = make_inputs(args.workload, args.seed);
  const std::int64_t start = host_ns();
  // Stop starting rounds well before the 180 s per-run limit.
  constexpr double kRunLimitS = 150.0;
  const std::size_t min_rounds = args.trace ? 4 : 3;

  SpanRecorder recorder;
  std::vector<RoundResult> plain;
  std::vector<RoundResult> traced;
  double last_round_s = 0.0;
  for (std::size_t round = 0;; ++round) {
    const bool trace_round = args.trace && round % 2 == 1;
    const std::int64_t round_start = host_ns();
    RoundResult result =
        run_round(inputs, args.seed, trace_round ? &recorder : nullptr);
    last_round_s = static_cast<double>(host_ns() - round_start) / 1e9;
    (trace_round ? traced : plain).push_back(std::move(result));
    const double elapsed = static_cast<double>(host_ns() - start) / 1e9;
    const std::size_t rounds = plain.size() + traced.size();
    if (elapsed + last_round_s > kRunLimitS) break;
    if (elapsed >= args.seconds && rounds >= min_rounds) break;
  }

  const Report report = build_report(plain, traced, peak_rss_mb());
  std::printf(
      "workload %s seed %llu inputs %016llx rounds %zu untraced + %zu "
      "traced\n",
      to_string(args.workload), static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(fingerprint(inputs)), plain.size(),
      traced.size());
  print_summary(report, stdout);
  if (args.trace && !args.spans_out.empty()) {
    write_spans(recorder, args.spans_out);
    std::printf("spans of the last traced round written to %s\n",
                args.spans_out.c_str());
  }
  std::printf("%s\n",
              result_json(report, args.trace ? report.per_layer
                                             : report.end_to_end)
                  .c_str());
  std::fflush(stdout);
  return report.failed == 0 ? 0 : 1;
}
