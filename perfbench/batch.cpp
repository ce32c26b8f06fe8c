// The batch workloads: one filtering run (profiles in, candidates out) is
// one repetition.
#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "blocking/workflow.hpp"
#include "core/candidates.hpp"
#include "datagen/generator.hpp"
#include "datagen/registry.hpp"
#include "datagen/scale.hpp"
#include "oracle/sparse.hpp"
#include "shard/scale.hpp"
#include "sparsenn/joins.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace erb;

constexpr double kThreshold = 0.5;
constexpr std::size_t kOracleQueries = 64;

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Outcome Summarize(const core::CandidateSet& candidates) {
  Digest digest;
  for (const core::PairKey key : candidates) digest.Add(key);
  return {candidates.size(), digest.value(), {}};
}

sparsenn::SparseConfig LowThresholdConfig() {
  return {};  // T1G, cosine, no cleaning, default (kAuto) filter
}

/// `k` distinct ids below `n`, ascending, drawn from `seed`.
std::vector<core::EntityId> SampleIds(std::uint64_t seed, std::size_t n,
                                      std::size_t k) {
  std::vector<core::EntityId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<core::EntityId>(i);
  std::mt19937_64 rng(seed);
  k = std::min(k, n);
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(ids[i], ids[i + rng() % (n - i)]);
  }
  ids.resize(k);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The ε-Join reference over `corpus` x `queries`, computed pairwise by the
/// oracle, as sorted (corpus id, query index) keys.
std::vector<core::PairKey> OracleEpsilon(
    const std::vector<core::EntityProfile>& corpus,
    std::vector<core::EntityProfile> queries) {
  const core::Dataset sample("oracle-sample", corpus, std::move(queries), {},
                             "");
  const core::CandidateSet expected = oracle::EpsilonJoinOracle(
      sample, core::SchemaMode::kAgnostic, LowThresholdConfig(), kThreshold);
  return expected.pairs();
}

class EpsLowT final : public Workload {
 public:
  explicit EpsLowT(const Args& args) : args_(args), spec_(D10Spec(args)) {}

  const char* name() const override { return "eps-lowt"; }

  void Setup() override { data_ = datagen::Generate(spec_); }

  Outcome Run() override {
    sparsenn::SparseResult result = [&] {
      auto span = Spans().Open("sparsenn.EpsilonJoin");
      return sparsenn::EpsilonJoin(data_, core::SchemaMode::kAgnostic,
                                   LowThresholdConfig(), kThreshold);
    }();
    Outcome out = Summarize(result.candidates);
    out.layer["sparsenn.preprocess_ms"] =
        result.timing.Get(sparsenn::kPhasePreprocess);
    out.layer["sparsenn.index_ms"] = result.timing.Get(sparsenn::kPhaseIndex);
    out.layer["sparsenn.query_ms"] = result.timing.Get(sparsenn::kPhaseQuery);
    last_ = std::move(result.candidates);
    return out;
  }

  void ReadCounters(const obs::Snapshot& snapshot,
                    Outcome* out) const override {
    const double verify = CounterValue(snapshot, "sparse.verify_calls");
    out->layer["sparsenn.verify_calls"] = verify;
    out->layer["sparsenn.prefix_skipped"] =
        CounterValue(snapshot, "sparse.prefix_skipped");
    out->layer["sparsenn.positional_pruned"] =
        CounterValue(snapshot, "sparse.positional_pruned");
    out->layer["sparsenn.emitted_per_verify"] =
        Ratio(static_cast<double>(out->count), verify);
  }

  // The join's pairs for a fixed sample of E2 queries equal the pairwise
  // oracle's over the whole of E1.
  bool CheckLast() override {
    const std::vector<core::EntityId> ids =
        SampleIds(args_.seed, data_.e2().size(), kOracleQueries);
    std::vector<core::EntityProfile> queries;
    for (const core::EntityId id : ids) queries.push_back(data_.e2()[id]);
    std::vector<core::PairKey> got;
    for (const core::PairKey key : last_) {
      const auto it =
          std::lower_bound(ids.begin(), ids.end(), core::PairSecond(key));
      if (it != ids.end() && *it == core::PairSecond(key)) {
        got.push_back(core::MakePair(
            core::PairFirst(key),
            static_cast<core::EntityId>(it - ids.begin())));
      }
    }
    std::sort(got.begin(), got.end());
    last_ = {};
    return got == OracleEpsilon(data_.e1(), std::move(queries));
  }

 private:
  Args args_;
  datagen::DatasetSpec spec_;
  core::Dataset data_;
  core::CandidateSet last_;
};

// No oracle pass: the output is pinned at the default seed, and every
// repetition must reproduce the first.
class BlockingDbw final : public Workload {
 public:
  explicit BlockingDbw(const Args& args) : spec_(D10Spec(args)) {}

  const char* name() const override { return "blocking-dbw"; }

  void Setup() override { data_ = datagen::Generate(spec_); }

  Outcome Run() override {
    blocking::WorkflowResult result = [&] {
      auto span = Spans().Open("blocking.RunWorkflow");
      return blocking::RunWorkflow(data_, core::SchemaMode::kAgnostic,
                                   blocking::DefaultWorkflow());
    }();
    Outcome out = Summarize(result.candidates);
    out.layer["blocking.build_ms"] = result.timing.Get(blocking::kPhaseBuild);
    out.layer["blocking.filter_ms"] =
        result.timing.Get(blocking::kPhaseFilter);
    out.layer["blocking.clean_ms"] = result.timing.Get(blocking::kPhaseClean);
    out.layer["blocking.blocks_built"] =
        static_cast<double>(result.blocks_built);
    out.layer["blocking.blocks_after_cleaning"] =
        static_cast<double>(result.blocks_after_cleaning);
    return out;
  }

  void ReadCounters(const obs::Snapshot& snapshot,
                    Outcome* out) const override {
    const double weighted = CounterValue(snapshot, "blocking.pairs_weighted");
    out->layer["blocking.pairs_weighted"] = weighted;
    out->layer["blocking.retained_per_weighted"] =
        Ratio(static_cast<double>(out->count), weighted);
  }

 private:
  datagen::DatasetSpec spec_;
  core::Dataset data_;
};

class ScaleRotate final : public Workload {
 public:
  explicit ScaleRotate(const Args& args)
      : args_(args), spec_(D10Spec(args)) {}

  const char* name() const override { return "scale-rotate"; }

  // The measured run renders its corpus inside the timed call (streaming is
  // what it measures). Set-up generates D10 itself, which is replica 0 of
  // that corpus and the input of the oracle check.
  void Setup() override { base_ = datagen::Generate(spec_); }

  Outcome Run() override {
    const shard::ScaleRunResult result = [&] {
      auto span = Spans().Open("shard.RunScaleEpsilon");
      return shard::RunScaleEpsilon(Config());
    }();
    Digest digest;
    digest.Add(result.total_candidates);
    double render = 0.0, build = 0.0, probe = 0.0, slowest = 0.0;
    for (const shard::ShardCell& cell : result.cells) {
      digest.Add(cell.entities);
      digest.Add(cell.tokens);
      digest.Add(cell.candidates);
      render += cell.render_ms;
      build += cell.build_ms;
      probe += cell.probe_ms;
      slowest =
          std::max(slowest, cell.render_ms + cell.build_ms + cell.probe_ms);
    }
    Outcome out{result.total_candidates, digest.value(), {}};
    out.layer["shard.render_ms"] = render;
    out.layer["shard.build_ms"] = build;
    out.layer["shard.probe_ms"] = probe;
    out.layer["shard.slowest_cell_ratio"] = Ratio(
        slowest, (render + build + probe) / static_cast<double>(
                                                 result.cells.size()));
    out.layer["shard.schedule_rotate"] =
        result.schedule == shard::ShardSchedule::kRotate ? 1.0 : 0.0;
    out.layer["shard.projected_mb"] =
        static_cast<double>(result.projected_bytes) / (1024.0 * 1024.0);
    return out;
  }

  // The same sharded, rotating pipeline over replica 0 alone, with pairs
  // collected, equals the pairwise oracle for a sample of its queries.
  // D10 is dropped afterwards so it does not count toward peak_rss_mb.
  bool CheckBeforeRuns() override {
    shard::ScaleRunConfig config = Config();
    config.spec.replicas = 1;
    config.num_queries = kOracleQueries;
    config.options.mem_budget_mb = 1;
    config.collect_pairs = true;
    const shard::ScaleRunResult result = shard::RunScaleEpsilon(config);
    std::vector<core::EntityProfile> queries;
    for (std::uint64_t q = 0; q < config.num_queries; ++q) {
      queries.push_back(datagen::RenderScaledQuery(config.spec, 0, q));
    }
    const bool ok =
        result.pairs.pairs() == OracleEpsilon(base_.e1(), std::move(queries));
    base_ = {};
    return ok;
  }

 private:
  shard::ScaleRunConfig Config() const {
    shard::ScaleRunConfig config;
    config.spec.base = spec_;
    config.spec.replicas = args_.tiny ? 6 : 10;
    config.sparse = LowThresholdConfig();
    config.threshold = kThreshold;
    config.num_queries = args_.tiny ? 100 : 1000;
    config.options.num_shards = 4;
    config.options.mem_budget_mb = args_.tiny ? 1 : 64;
    return config;
  }

  Args args_;
  datagen::DatasetSpec spec_;
  core::Dataset base_;
};

}  // namespace

datagen::DatasetSpec D10Spec(const Args& args) {
  datagen::DatasetSpec spec = datagen::PaperSpec(10);
  spec.seed ^= args.seed * 0x9e3779b97f4a7c15ULL;
  return args.tiny ? spec.Scaled(0.03) : spec;
}

std::unique_ptr<Workload> MakeEpsLowT(const Args& args) {
  return std::make_unique<EpsLowT>(args);
}

std::unique_ptr<Workload> MakeBlockingDbw(const Args& args) {
  return std::make_unique<BlockingDbw>(args);
}

std::unique_ptr<Workload> MakeScaleRotate(const Args& args) {
  return std::make_unique<ScaleRotate>(args);
}

}  // namespace perfbench
