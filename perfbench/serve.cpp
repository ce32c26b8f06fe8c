// serve-mixed: one client drives a serve::Resolver preloaded with D10's E1
// through a fixed stream of 80% RESOLVE and 20% INSERT of D10 E2 profiles.
// The server seals whenever the delta reaches 1% of the corpus, in line
// between requests, as docs/serving.md prescribes.
//
// A timed repetition replays the stream back to back (closed loop) on a
// freshly loaded resolver, so rt_s is the stream's service time at
// saturation. Traced runs also replay it open loop at a fixed rate.
#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "datagen/generator.hpp"
#include "obs/trace.hpp"
#include "oracle/serve.hpp"
#include "serve/resolver.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace erb;

// About a quarter of the closed-loop rate: the open loop measures latency
// and seal stalls, not overload.
constexpr double kOfferedRps = 2000.0;

struct Op {
  bool insert;
  core::EntityId profile;  // index into E2
};

/// A resolve whose answer is checked against the brute-force oracle.
struct Sample {
  std::size_t corpus_size;
  core::EntityId profile;
  std::vector<core::EntityId> ids;
};

struct Pass {
  std::uint64_t digest = 0;
  std::uint64_t matches = 0;
  bool ids_ok = true;  ///< every insert got the next corpus id
  std::vector<Sample> samples;
  // Open-loop bookkeeping (empty in a closed loop).
  std::vector<double> latency_us;     ///< resolve end - due
  std::vector<double> queue_wait_us;  ///< resolve start - due
  std::uint64_t backlog_max = 0;
  bool drained = true;  ///< open loop: backlog was 0 in the final tenth
};

serve::ServeConfig Config() {
  serve::ServeConfig config;
  config.threshold = 0.5;  // T1G, cosine, default filter
  return config;
}

std::vector<Op> MakeStream(std::uint64_t seed, std::size_t e2_size,
                           std::size_t length) {
  std::mt19937_64 rng(seed ^ 0x5e7e5e7eULL);
  std::vector<core::EntityId> order(e2_size);
  for (std::size_t i = 0; i < e2_size; ++i) {
    order[i] = static_cast<core::EntityId>(i);
  }
  for (std::size_t i = e2_size; i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  std::vector<Op> stream;
  std::size_t next_insert = 0;
  for (std::size_t i = 0; i < length; ++i) {
    if (rng() % 5 == 0 && next_insert < order.size()) {
      stream.push_back({true, order[next_insert++]});
    } else {
      stream.push_back({false, static_cast<core::EntityId>(rng() % e2_size)});
    }
  }
  return stream;
}

std::unique_ptr<serve::Resolver> LoadCorpus(const core::Dataset& data) {
  auto resolver = std::make_unique<serve::Resolver>(Config());
  for (std::size_t i = 0; i < data.e1().size(); ++i) {
    resolver->Insert("e1:" + std::to_string(i), data.e1()[i]);
  }
  resolver->SealEpoch();
  return resolver;
}

// Sleeps until shortly before `due_ns`, then spins: a plain sleep
// overshoots by tens of microseconds, a fifth of a resolve.
void WaitUntil(std::uint64_t due_ns) {
  for (std::uint64_t now = NowNs(); now < due_ns; now = NowNs()) {
    if (due_ns - now > 300'000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due_ns - now - 200'000));
    }
  }
}

/// Sends `stream` to `resolver`: back to back when `rps` is 0, else open
/// loop with request i due at start + i / rps.
Pass RunStream(const core::Dataset& data, const std::vector<Op>& stream,
               std::size_t sample_stride, serve::Resolver& resolver,
               double rps) {
  Pass pass;
  Digest digest;
  const std::size_t first_insert_id = resolver.NumEntities();
  std::size_t inserts = 0;
  std::size_t resolves = 0;
  const double period_ns = rps > 0.0 ? 1e9 / rps : 0.0;
  pass.drained = rps <= 0.0;
  const std::uint64_t t0 = NowNs();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Op& op = stream[i];
    const core::EntityProfile& profile = data.e2()[op.profile];
    std::uint64_t due = 0;
    if (rps > 0.0) {
      due = t0 + static_cast<std::uint64_t>(static_cast<double>(i) * period_ns);
      WaitUntil(due);
    }
    const std::uint64_t start = NowNs();
    if (rps > 0.0) {
      const auto due_by_now = static_cast<std::uint64_t>(
          static_cast<double>(start - t0) / period_ns);
      const std::uint64_t backlog = due_by_now > i ? due_by_now - i : 0;
      pass.backlog_max = std::max(pass.backlog_max, backlog);
      if (backlog == 0 && i >= stream.size() - stream.size() / 10) {
        pass.drained = true;
      }
    }
    digest.Add(i);
    {
      auto request = Spans().Open("request", i, due);
      if (op.insert) {
        serve::InsertResult result;
        {
          auto span = Spans().Open("serve.Insert", i);
          result = resolver.Insert("e2:" + std::to_string(op.profile), profile);
        }
        pass.ids_ok = pass.ids_ok && result.inserted &&
                      result.id == first_insert_id + inserts;
        ++inserts;
        digest.Add(result.id);
      } else {
        serve::ResolveResult result;
        {
          auto span = Spans().Open("serve.Resolve", i);
          result = resolver.Resolve(profile);
        }
        digest.Add(result.matches.size());
        for (const serve::Match& match : result.matches) digest.Add(match.id);
        pass.matches += result.matches.size();
        if (resolves++ % sample_stride == 0) {
          Sample sample{resolver.NumEntities(), op.profile, {}};
          for (const serve::Match& match : result.matches) {
            sample.ids.push_back(match.id);
          }
          pass.samples.push_back(std::move(sample));
        }
        if (rps > 0.0) {
          const std::uint64_t end = NowNs();
          pass.latency_us.push_back(static_cast<double>(end - due) / 1e3);
          pass.queue_wait_us.push_back(static_cast<double>(start - due) / 1e3);
        }
      }
    }
    if (op.insert && resolver.DeltaCount() * 100 >= resolver.NumEntities()) {
      auto span = Spans().Open("serve.SealEpoch", i);
      digest.Add(resolver.SealEpoch());
    }
  }
  pass.digest = digest.value();
  return pass;
}

/// Every sampled resolve equals the brute-force oracle over the corpus as
/// it stood when the resolve ran (corpus ids are insert-ordered, so that
/// corpus is a prefix of the final one).
bool CheckSamples(const core::Dataset& data, const std::vector<Op>& stream,
                  const std::vector<Sample>& samples) {
  std::vector<core::EntityProfile> corpus = data.e1();
  for (const Op& op : stream) {
    if (op.insert) corpus.push_back(data.e2()[op.profile]);
  }
  std::vector<core::EntityProfile> queries;
  for (const Sample& sample : samples) {
    queries.push_back(data.e2()[sample.profile]);
  }
  const core::CandidateSet expected =
      oracle::ServeBruteForce(corpus, queries, Config());
  std::vector<std::vector<core::EntityId>> want(samples.size());
  for (const core::PairKey key : expected) {
    const core::EntityId q = core::PairSecond(key);
    if (core::PairFirst(key) < samples[q].corpus_size) {
      want[q].push_back(core::PairFirst(key));
    }
  }
  for (std::size_t q = 0; q < samples.size(); ++q) {
    if (want[q] != samples[q].ids) return false;
  }
  return true;
}

std::vector<double> ScaledDurations(std::string_view name, std::size_t from,
                                    double divisor) {
  std::vector<double> out = Spans().DurationsUs(name, from);
  for (double& value : out) value /= divisor;
  return out;
}

class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(const Args& args)
      : args_(args),
        spec_(D10Spec(args)),
        sample_stride_(args.tiny ? 10 : 100) {}

  const char* name() const override { return "serve-mixed"; }

  void Setup() override {
    resolver_.reset();
    data_ = datagen::Generate(spec_);
    resolver_ = LoadCorpus(data_);
    stream_ = MakeStream(args_.seed, data_.e2().size(),
                         args_.tiny ? 400 : 8000);
    resolver_used_ = false;
  }

  // Every repetition replays the stream on the corpus as loaded.
  void Prepare() override {
    if (resolver_used_) resolver_ = LoadCorpus(data_);
    resolver_used_ = true;
  }

  Outcome Run() override {
    last_ = RunStream(data_, stream_, sample_stride_, *resolver_, 0.0);
    return {last_.matches, last_.digest, {}};
  }

  std::uint64_t OpsPerRun() const override { return stream_.size(); }

  bool CheckLast() override {
    return last_.ids_ok && CheckSamples(data_, stream_, last_.samples);
  }

  // The same stream open loop at kOfferedRps: each request is timed from
  // its due time; service times come from the spans around each call.
  void TraceExtra(const Outcome& reference, bool reference_ok,
                  Report* report) override {
    Prepare();
    const std::size_t first_span = Spans().size();
    erb::obs::ResetCollected();
    Pass open;
    {
      TracedSection section;
      open = RunStream(data_, stream_, sample_stride_, *resolver_, kOfferedRps);
    }
    report->attempted += stream_.size() + 1;
    if (!reference_ok || open.digest != reference.digest) {
      report->failed += stream_.size();
    }
    // A backlog that never empties means the offered rate is not sustained.
    if (!open.drained) ++report->failed;

    const std::string resolves =
        SampleNote(open.latency_us.size(), "open-loop resolves");
    report->Set("serve.resolve_p50_us", Median(open.latency_us), resolves);
    report->Set("serve.resolve_p99_us", Quantile(open.latency_us, 0.99),
                resolves);
    report->Set("serve.queue_wait_us_p99", Quantile(open.queue_wait_us, 0.99),
                resolves);
    report->Set("serve.backlog_max", static_cast<double>(open.backlog_max));
    const std::vector<double> service =
        ScaledDurations("serve.Resolve", first_span, 1.0);
    report->Set("serve.resolve_service_us_p50", Median(service), resolves);
    report->Set("serve.resolve_service_us_p99", Quantile(service, 0.99),
                resolves);
    const std::vector<double> inserts =
        ScaledDurations("serve.Insert", first_span, 1.0);
    report->Set("serve.insert_us_p50", Median(inserts),
                SampleNote(inserts.size(), "open-loop inserts"));
    const std::vector<double> seals =
        ScaledDurations("serve.SealEpoch", first_span, 1e3);
    report->Set("serve.seal_ms_p50", Median(seals),
                SampleNote(seals.size(), "open-loop seals"));
    report->Set("serve.seal_ms_max", Quantile(seals, 1.0));
    report->Set("serve.seals", static_cast<double>(seals.size()));
    const erb::obs::Snapshot snapshot = erb::obs::Collect();
    const double resolved = CounterValue(snapshot, "serve.resolves");
    report->Set("serve.delta_probed_per_resolve",
                resolved > 0.0
                    ? CounterValue(snapshot, "serve.delta_probed") / resolved
                    : 0.0);
  }

 private:
  Args args_;
  datagen::DatasetSpec spec_;
  std::size_t sample_stride_;
  core::Dataset data_;
  std::vector<Op> stream_;
  std::unique_ptr<serve::Resolver> resolver_;
  bool resolver_used_ = false;
  Pass last_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMixed(const Args& args) {
  return std::make_unique<ServeMixed>(args);
}

}  // namespace perfbench
