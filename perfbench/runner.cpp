// The measurement protocol shared by every workload: set-ups, untimed
// warm-up, the reference check, timed (or interleaved plain and traced)
// repetitions, and the operation accounting.
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {
namespace {

struct Rep {
  double seconds = 0.0;
  double cpu_s = 0.0;
  double minflt = 0.0;
  Outcome out;
};

Rep RunRep(Workload& workload, bool traced, std::uint64_t index) {
  workload.Prepare();
  Rep rep;
  {
    erb::obs::ResetCollected();
    std::optional<TracedSection> section;
    if (traced) section.emplace();
    const ProcSample before = SampleProcess();
    const double start = NowS();
    {
      auto span = Spans().Open("rep", index);
      rep.out = workload.Run();
    }
    rep.seconds = NowS() - start;
    const ProcSample after = SampleProcess();
    rep.cpu_s = after.cpu_s - before.cpu_s;
    rep.minflt = static_cast<double>(after.minflt - before.minflt);
  }
  if (traced) workload.ReadCounters(erb::obs::Collect(), &rep.out);
  return rep;
}

std::vector<double> Seconds(const std::vector<Rep>& reps) {
  std::vector<double> out;
  for (const Rep& rep : reps) out.push_back(rep.seconds);
  return out;
}

}  // namespace

double CounterValue(const erb::obs::Snapshot& snapshot, const char* name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0.0
                                       : static_cast<double>(it->second);
}

TracedSection::TracedSection() {
  erb::obs::SetTraceEnabled(true);
  Spans().SetEnabled(true);
}

TracedSection::~TracedSection() {
  Spans().SetEnabled(false);
  erb::obs::SetTraceEnabled(false);
}

std::string SampleNote(std::size_t n, const std::string& what) {
  return "(n=" + std::to_string(n) + " " + what + ")";
}

std::unique_ptr<Workload> MakeWorkload(const Args& args) {
  if (args.workload == "eps-lowt") return MakeEpsLowT(args);
  if (args.workload == "blocking-dbw") return MakeBlockingDbw(args);
  if (args.workload == "serve-mixed") return MakeServeMixed(args);
  if (args.workload == "scale-rotate") return MakeScaleRotate(args);
  return nullptr;
}

Report RunWorkload(const Args& args, Workload& workload) {
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const double start = NowS();
    workload.Setup();
    setups.push_back(NowS() - start);
  }

  const bool inputs_ok = workload.CheckBeforeRuns();
  std::vector<Rep> warmup;
  warmup.push_back(RunRep(workload, false, 0));
  const Outcome reference = warmup[0].out;
  const bool reference_ok =
      inputs_ok && workload.CheckLast() &&
      MatchesPin(args, workload.name(), reference.count, reference.digest);
  while (warmup.size() < static_cast<std::size_t>(kWarmupReps)) {
    warmup.push_back(RunRep(workload, false, warmup.size()));
  }

  Report report;
  if (args.trace) workload.TraceExtra(reference, reference_ok, &report);

  // Untraced runs time every repetition plainly. Traced runs interleave
  // plain and traced repetitions, alternating which goes first, so slow
  // drift of the host lands on both sides of the overhead ratio.
  std::vector<Rep> plain, traced;
  const double start = NowS();
  for (std::uint64_t pair = 0;; ++pair) {
    const std::size_t done = args.trace ? traced.size() : plain.size();
    if (done >= static_cast<std::size_t>(kMinTimedReps) &&
        NowS() - start >= args.seconds) {
      break;
    }
    const std::uint64_t index = kWarmupReps + plain.size() + traced.size();
    if (!args.trace) {
      plain.push_back(RunRep(workload, false, index));
    } else if (pair % 2 == 0) {
      plain.push_back(RunRep(workload, false, index));
      traced.push_back(RunRep(workload, true, index + 1));
    } else {
      traced.push_back(RunRep(workload, true, index));
      plain.push_back(RunRep(workload, false, index + 1));
    }
  }
  const double peak_rss_mb = PeakRssMb();

  for (const auto* reps : {&warmup, &plain, &traced}) {
    for (const Rep& rep : *reps) {
      report.attempted += workload.OpsPerRun();
      if (!reference_ok || rep.out.digest != reference.digest) {
        report.failed += workload.OpsPerRun();
      }
    }
  }

  if (!args.trace) {
    report.SetSamples("setup_s", setups, SampleNote(setups.size(), "set-ups"));
    report.SetSamples("rt_s", Seconds(plain),
                      SampleNote(plain.size(), "timed reps after " +
                                                   std::to_string(kWarmupReps) +
                                                   " warm-up"));
    report.SetSamples("peak_rss_mb", {peak_rss_mb});
    return report;
  }

  std::map<std::string, std::vector<double>> layer;
  for (const Rep& rep : traced) {
    for (const auto& [name, value] : rep.out.layer) {
      layer[name].push_back(value);
    }
  }
  for (const auto& [name, values] : layer) {
    report.Set(name, Median(values), SampleNote(values.size(), "traced reps"));
  }
  double cpu = 0.0;
  double wall = 0.0;
  std::vector<double> minflt;
  for (const Rep& rep : plain) {
    cpu += rep.cpu_s;
    wall += rep.seconds;
    minflt.push_back(rep.minflt);
  }
  const std::string untraced = SampleNote(plain.size(), "untraced reps");
  report.Set("core.candidates", static_cast<double>(reference.count));
  report.Set("process.cpu_per_wall", cpu / wall, untraced);
  report.Set("process.minflt_per_rep", Median(minflt), untraced);
  report.Set("process.first_rep_s", warmup[0].seconds);
  report.Set("obs.trace_overhead_pct",
             (Median(Seconds(traced)) / Median(Seconds(plain)) - 1.0) * 100.0,
             SampleNote(traced.size(), "traced/untraced pairs"));
  return report;
}

}  // namespace perfbench
