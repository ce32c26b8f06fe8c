#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json; run.py --selftest checks that they agree.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"rt_s", "s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sparsenn.preprocess_ms", "ms"},
    {"sparsenn.index_ms", "ms"},
    {"sparsenn.query_ms", "ms"},
    {"sparsenn.verify_calls", "count"},
    {"sparsenn.prefix_skipped", "count"},
    {"sparsenn.positional_pruned", "count"},
    {"sparsenn.emitted_per_verify", "ratio"},
    {"blocking.build_ms", "ms"},
    {"blocking.filter_ms", "ms"},
    {"blocking.clean_ms", "ms"},
    {"blocking.blocks_built", "count"},
    {"blocking.blocks_after_cleaning", "count"},
    {"blocking.pairs_weighted", "count"},
    {"blocking.retained_per_weighted", "ratio"},
    {"serve.resolve_p50_us", "us"},
    {"serve.resolve_p99_us", "us"},
    {"serve.resolve_service_us_p50", "us"},
    {"serve.resolve_service_us_p99", "us"},
    {"serve.queue_wait_us_p99", "us"},
    {"serve.backlog_max", "count"},
    {"serve.delta_probed_per_resolve", "ratio"},
    {"serve.insert_us_p50", "us"},
    {"serve.seal_ms_p50", "ms"},
    {"serve.seal_ms_max", "ms"},
    {"serve.seals", "count"},
    {"shard.render_ms", "ms"},
    {"shard.build_ms", "ms"},
    {"shard.probe_ms", "ms"},
    {"shard.slowest_cell_ratio", "ratio"},
    {"shard.schedule_rotate", "count"},
    {"shard.projected_mb", "MB"},
    {"core.candidates", "count"},
    {"process.cpu_per_wall", "ratio"},
    {"process.minflt_per_rep", "count"},
    {"process.first_rep_s", "s"},
    {"obs.trace_overhead_pct", "%"},
};

// Outputs at kDefaultSeed and full scale. A change to them is a change to
// what the library computes, not to its speed.
struct Pin {
  const char* workload;
  std::uint64_t count;
  std::uint64_t digest;
};
constexpr Pin kPins[] = {
    {"eps-lowt", 11990, 12483988293676914692ULL},
    {"blocking-dbw", 409771, 4851702254141536266ULL},
    {"serve-mixed", 3547, 693215177304127885ULL},
    {"scale-rotate", 664, 2752845061221946204ULL},
};

const MetricSpec* FindMetric(std::string_view name) {
  for (const MetricSpec& m : kEndToEnd) {
    if (name == m.name) return &m;
  }
  for (const MetricSpec& m : kPerLayer) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

using Clock = std::chrono::steady_clock;
const Clock::time_point kOrigin = Clock::now();

}  // namespace

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           kOrigin)
          .count());
}

double NowS() { return static_cast<double>(NowNs()) / 1e9; }

ProcSample SampleProcess() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {seconds(usage.ru_utime) + seconds(usage.ru_stime),
          static_cast<std::uint64_t>(usage.ru_minflt)};
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void Digest::Add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (value >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ULL;
  }
}

SpanLog::Scope::~Scope() {
  if (index_ == kNone) return;
  log_->records_[index_].end_ns = NowNs();
  log_->open_.pop_back();
}

SpanLog::Scope SpanLog::Open(std::string_view name, std::uint64_t request,
                             std::uint64_t due_ns) {
  if (!enabled_) return Scope(this, kNone);
  Record record;
  record.name = std::string(name);
  record.id = records_.size() + 1;
  record.parent = open_.empty() ? 0 : records_[open_.back()].id;
  record.request = request;
  record.due_ns = due_ns;
  record.start_ns = NowNs();
  records_.push_back(std::move(record));
  open_.push_back(records_.size() - 1);
  return Scope(this, records_.size() - 1);
}

std::vector<double> SpanLog::DurationsUs(std::string_view name,
                                         std::size_t from) const {
  std::vector<double> out;
  for (std::size_t i = from; i < records_.size(); ++i) {
    if (records_[i].name == name) {
      out.push_back(
          static_cast<double>(records_[i].end_ns - records_[i].start_ns) /
          1e3);
    }
  }
  return out;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  char line[512];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                  "\"parent\": %llu, \"request\": %llu, \"due_us\": %.3f}}%s\n",
                  r.name.c_str(), static_cast<double>(r.start_ns) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                  static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent),
                  static_cast<unsigned long long>(r.request),
                  static_cast<double>(r.due_ns) / 1e3,
                  i + 1 < records_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

SpanLog& Spans() {
  static SpanLog log;
  return log;
}

void Report::Set(const std::string& name, double value, std::string note) {
  if (FindMetric(name) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
    std::abort();
  }
  values[name] = value;
  if (!note.empty()) notes[name] = std::move(note);
}

void Report::SetSamples(const std::string& name, std::vector<double> values,
                        std::string note) {
  Set(name, Median(values), std::move(note));
  samples[name] = std::move(values);
}

void PrintReport(const Args& args, const Report& report) {
  std::printf("# perfbench workload=%s seed=%llu threads=%zu trace=%d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), kThreads,
              args.trace ? 1 : 0, args.tiny ? " scale=tiny" : "");
  const auto value_of = [&](const char* name) {
    const auto it = report.values.find(name);
    return it == report.values.end() ? 0.0 : it->second;
  };
  const auto print_table = [&](const MetricSpec* begin, const MetricSpec* end) {
    for (const MetricSpec* m = begin; m != end; ++m) {
      const auto note = report.notes.find(m->name);
      std::printf("#   %-32s %16.6f %-5s %s\n", m->name, value_of(m->name),
                  m->unit,
                  note == report.notes.end() ? "" : note->second.c_str());
    }
  };
  if (args.trace) {
    print_table(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    print_table(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  std::string pooled = "# samples {";
  for (const auto& [name, values] : report.samples) {
    pooled += (pooled.back() == '{' ? "\"" : ", \"") + name + "\": [";
    char buf[32];
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", values[i]);
      pooled += buf;
    }
    pooled += "]";
  }
  std::printf("%s}\n", pooled.c_str());
  std::printf("#   operations attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));

  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  const auto append = [&](const MetricSpec* begin, const MetricSpec* end) {
    char buf[256];
    for (const MetricSpec* m = begin; m != end; ++m) {
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    m == begin ? "" : ", ", m->name, value_of(m->name),
                    m->unit);
      json += buf;
    }
  };
  if (args.trace) {
    append(std::begin(kPerLayer), std::end(kPerLayer));
  } else {
    append(std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

bool MatchesPin(const Args& args, std::string_view workload,
                std::uint64_t count, std::uint64_t digest) {
  std::printf("# output of %.*s: count=%llu digest=%llu\n",
              static_cast<int>(workload.size()), workload.data(),
              static_cast<unsigned long long>(count),
              static_cast<unsigned long long>(digest));
  if (args.expect_digest) return digest == *args.expect_digest;
  if (args.seed != kDefaultSeed || args.tiny) return true;
  for (const Pin& pin : kPins) {
    if (workload == pin.workload) {
      return count == pin.count && digest == pin.digest;
    }
  }
  return false;
}

}  // namespace perfbench
