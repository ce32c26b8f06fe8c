// Shared machinery of the perfbench program: arguments, clocks, process
// counters, order statistics, output digests, the benchmark's own span log
// and the metric tables every run reports against.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< self-test scale: small inputs, same code paths
  /// Replaces the pinned digest (any seed and scale); the self-test passes a
  /// wrong value to prove a mismatch is reported as failed operations.
  std::optional<std::uint64_t> expect_digest;
  std::string trace_out;  ///< span log destination of a traced run
};

/// The seed whose outputs are pinned (count and digest) in the benchmark.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Worker threads of the library's parallel runtime in every run.
inline constexpr std::size_t kThreads = 4;

/// Set-ups per process; setup_s is the median over all of them.
inline constexpr int kSetups = 3;

/// Untimed warm-up repetitions before timing starts.
inline constexpr int kWarmupReps = 2;

/// Fewest timed repetitions a run reports, however long they take.
inline constexpr int kMinTimedReps = 3;

/// Steady-clock time since process start.
double NowS();
std::uint64_t NowNs();

/// CPU time (user + system) and minor page faults of the process so far.
struct ProcSample {
  double cpu_s = 0.0;
  std::uint64_t minflt = 0;
};
ProcSample SampleProcess();

/// High-water resident set size of the process, in MiB.
double PeakRssMb();

double Median(std::vector<double> values);

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

/// Order-dependent 64-bit FNV-1a over a stream of integers.
class Digest {
 public:
  void Add(std::uint64_t value);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Spans the benchmark records around each call into the library: name,
/// start, end, parent span and request id (plus the due time of open-loop
/// requests). Kept in memory while enabled and written once at exit.
class SpanLog {
 public:
  struct Record {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< 0 = root
    std::uint64_t request = 0;  ///< request or repetition the span serves
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t due_ns = 0;  ///< open-loop due time, 0 when unscheduled
  };

  /// Closes its span on destruction. Inert when the log was disabled at
  /// Open().
  class Scope {
   public:
    Scope(SpanLog* log, std::size_t index) : log_(log), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t index_;
  };

  void SetEnabled(bool on) { enabled_ = on; }

  /// Opens a span under the innermost open one.
  [[nodiscard]] Scope Open(std::string_view name, std::uint64_t request = 0,
                           std::uint64_t due_ns = 0);

  /// Durations in microseconds of the spans named `name` that start at or
  /// after record index `from`.
  std::vector<double> DurationsUs(std::string_view name,
                                  std::size_t from = 0) const;

  std::size_t size() const { return records_.size(); }

  /// Writes the log as Chrome trace_event JSON; false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  bool enabled_ = false;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;  // indices of the open spans, innermost last
};

/// The process-wide span log.
SpanLog& Spans();

/// Metrics of one run. Every name must appear in the end-to-end or the
/// per-layer table (checked on Set); per-layer metrics a workload does not
/// set print as 0 — the layer did not run.
struct Report {
  std::map<std::string, double> values;
  std::map<std::string, std::string> notes;  ///< metric -> how it was sampled
  /// Raw samples of the end-to-end metrics, printed so run.py can pool the
  /// samples of several processes.
  std::map<std::string, std::vector<double>> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Set(const std::string& name, double value, std::string note = "");
  /// Sets an end-to-end metric to the median of `values` and keeps them.
  void SetSamples(const std::string& name, std::vector<double> values,
                  std::string note = "");
};

/// Prints the human-readable summary and, as the last line, the result JSON
/// with the end-to-end (untraced) or per-layer (traced) metric table.
void PrintReport(const Args& args, const Report& report);

/// True when a run's reference output matches the pin: the digest given on
/// the command line, else the benchmark's pinned count and digest at the
/// default seed and full scale, else (nothing pinned) always.
bool MatchesPin(const Args& args, std::string_view workload,
                std::uint64_t count, std::uint64_t digest);

}  // namespace perfbench
