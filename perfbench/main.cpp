// perfbench: the end-to-end benchmark of the erbench library.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--tiny] [--expect-digest D] [--trace-out PATH]
//
// Workloads: eps-lowt, blocking-dbw, serve-mixed, scale-rotate (README.md).
// Prints a human-readable summary, then as its last line one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics of untraced
// repetitions with --trace 0, the per-layer metrics of a traced run with
// --trace 1. Exits non-zero without a result on a usage or run error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <string_view>

#include "common/parallel.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Args;

[[noreturn]] void Usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--expect-digest D] "
               "[--trace-out PATH]\n",
               problem);
  std::exit(2);
}

std::uint64_t ParseU64(const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') Usage("expected a whole number");
  return value;
}

double ParseSeconds(const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(value > 0.0)) {
    Usage("expected a positive number of seconds");
  }
  return value;
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = ParseU64(value);
    } else if (flag == "--seconds") {
      args.seconds = ParseSeconds(value);
    } else if (flag == "--trace") {
      args.trace = ParseU64(value) != 0;
    } else if (flag == "--expect-digest") {
      args.expect_digest = ParseU64(value);
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage("unknown flag");
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  erb::SetNumThreads(perfbench::kThreads);
  const std::unique_ptr<perfbench::Workload> workload =
      perfbench::MakeWorkload(args);
  if (!workload) Usage("unknown workload");
  perfbench::Report report;
  try {
    report = perfbench::RunWorkload(args, *workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (args.trace && !args.trace_out.empty() &&
      !perfbench::Spans().WriteChromeTrace(args.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.trace_out.c_str());
    return 1;
  }
  perfbench::PrintReport(args, report);
  return 0;
}
