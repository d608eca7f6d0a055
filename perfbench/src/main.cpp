// The iFDK repository benchmark.
//
//   perfbench --workload <fdk_scan|fdk_stream|sart|service_mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>] [--tiny] [--corrupt]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics (and writes the Chrome
// trace-event JSON to --trace-out). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. --tiny and
// --corrupt serve the self-test (perfbench/selftest.py).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/simd_dispatch.h"
#include "workloads.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fdk_scan|fdk_stream|sart|service_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>] [--tiny] "
               "[--corrupt]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        args.workload = value();
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value());
      } else if (flag == "--trace") {
        args.trace = std::stoi(value()) != 0;
      } else if (flag == "--trace-out") {
        args.trace_out = value();
      } else if (flag == "--tiny") {
        args.tiny = true;
      } else if (flag == "--corrupt") {
        args.corrupt = true;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Outcome (*run)(const Context&) = nullptr;
  if (args.workload == "fdk_scan") run = run_fdk_scan;
  if (args.workload == "fdk_stream") run = run_fdk_stream;
  if (args.workload == "sart") run = run_sart;
  if (args.workload == "service_mixed") run = run_service_mixed;
  if (run == nullptr) usage(("unknown workload " + args.workload).c_str());

  Tracer tracer;
  Report report;
  CheckLog checks;
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "ranks=%d rows=%d simd=%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, kRanks, kRows,
              ifdk::simd::to_string(
                  ifdk::simd::resolve(ifdk::simd::Backend::kAuto, "perfbench")));
  Outcome outcome;
  try {
    outcome = run(Context{args, tracer, report, checks});
  } catch (const std::exception& e) {
    // Input synthesis, oracles or set-up failed: there is no result.
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  const double error_rate =
      checks.attempted() == 0 ? 0.0
                              : static_cast<double>(checks.failed()) /
                                    static_cast<double>(checks.attempted());
  char line[128];
  std::snprintf(line, sizeof(line),
                "  error_rate = %zu / %zu = %.6f (calls or jobs that threw, "
                "failed or failed a check)",
                checks.failed(), checks.attempted(), error_rate);
  report.note(line);
  if (args.trace) {
    print_self_times(report, tracer);
    if (!args.trace_out.empty()) {
      if (tracer.write_chrome_trace(args.trace_out, args.workload,
                                    args.seed)) {
        report.note("  trace: " + std::to_string(tracer.size()) +
                    " spans written to " + args.trace_out);
      } else {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.trace_out.c_str());
        return 1;
      }
    }
    emit_layers(report, outcome.layers);
  } else {
    emit_end_to_end(report, outcome.e2e);
  }
  report.print_json(checks.failed() == 0, checks.attempted(), checks.failed());
  return 0;
}
