// The perfbench workloads (see README.md for why each exists), the
// interface the runner times them through, and the input they share.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "datagen/spec.hpp"
#include "harness.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// One repetition's output identity and its per-layer figures.
struct Outcome {
  std::uint64_t count = 0;
  std::uint64_t digest = 0;
  std::map<std::string, double> layer;
};

/// A workload as the runner sees it: set-up, then repetitions of one
/// operation through the library's public entry point. The first warm-up
/// repetition is the reference every later one must reproduce.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Makes the inputs (timed as set-up).
  virtual void Setup() = 0;
  /// Untimed preparation before each repetition.
  virtual void Prepare() {}
  /// One repetition (timed).
  virtual Outcome Run() = 0;
  /// Operations one repetition performs (counted as attempted).
  virtual std::uint64_t OpsPerRun() const { return 1; }
  /// Adds per-layer figures from the obs counters of a traced repetition.
  virtual void ReadCounters(const erb::obs::Snapshot&, Outcome*) const {}
  /// Oracle check that needs the inputs but no repetition's output; may
  /// drop inputs the repetitions do not use.
  virtual bool CheckBeforeRuns() { return true; }
  /// Oracle check of the output of the last Run().
  virtual bool CheckLast() { return true; }
  /// Traced runs only: extra traced measurements reported as per-layer
  /// metrics, with their operations checked against the reference.
  virtual void TraceExtra(const Outcome& /*reference*/, bool /*reference_ok*/,
                          Report* /*report*/) {}
};

/// Times `workload` per `args` and returns its metrics and operation counts.
Report RunWorkload(const Args& args, Workload& workload);

/// The named workload, or nullptr.
std::unique_ptr<Workload> MakeWorkload(const Args& args);

/// D10 (the IMDb-DBpedia replica, 27,615 x 23,182 entities) with its
/// generator seed derived from the run's seed; 3% of that size at the
/// self-test scale.
erb::datagen::DatasetSpec D10Spec(const Args& args);

std::unique_ptr<Workload> MakeEpsLowT(const Args& args);
std::unique_ptr<Workload> MakeBlockingDbw(const Args& args);
std::unique_ptr<Workload> MakeScaleRotate(const Args& args);
std::unique_ptr<Workload> MakeServeMixed(const Args& args);

/// The named obs counter, 0 when absent.
double CounterValue(const erb::obs::Snapshot& snapshot, const char* name);

/// Enables the program's obs tracing and the benchmark's span log for its
/// lifetime.
class TracedSection {
 public:
  TracedSection();
  ~TracedSection();
  TracedSection(const TracedSection&) = delete;
  TracedSection& operator=(const TracedSection&) = delete;
};

/// "(n=<n> <what>)", the sample-count note printed beside a metric.
std::string SampleNote(std::size_t n, const std::string& what);

}  // namespace perfbench
