// offline_fit_match: the paper's Table II path in-process, with no
// server. Fit on half the sources of the camera HighQuality dataset,
// score every cross-source pair with ScoreCandidatesOn(all-pairs), and
// match single held-out properties against all cross-source candidates.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "blocking/candidate_pipeline.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "data/domain.h"
#include "data/generator.h"
#include "embedding/synthetic_model.h"
#include "layers.h"
#include "workload/traffic.h"
#include "workloads.h"

namespace leapme::benchmark {
namespace {

constexpr size_t kSetupRepeats = 7;
constexpr size_t kTopK = 5;
constexpr size_t kOracleQueries = 40;
/// The evaluation's bench-scale embedding width (eval::EvalScale::kBench).
constexpr size_t kEmbeddingDim = 48;

uint64_t Derive(uint64_t seed, uint64_t stream) {
  return seed * 1000003ULL + stream;
}

uint64_t PairKey(data::PropertyId a, data::PropertyId b) {
  return (static_cast<uint64_t>(std::min(a, b)) << 32) | std::max(a, b);
}

struct OfflineSetup {
  std::unique_ptr<embedding::SyntheticEmbeddingModel> base;
  std::unique_ptr<embedding::CachingEmbeddingModel> cache;
  data::Dataset dataset;
  data::SourceSplit split;
  std::vector<data::LabeledPair> training;
  std::unique_ptr<core::LeapmeMatcher> matcher;
  double generate_s = 0.0;
  double setup_s = 0.0;
  double fit_s = 0.0;
  double cache_hit_frac_fit = 0.0;
};

/// Generation and model build are set-up; Fit is timed on its own. The
/// data and the source split are fixed (the evaluation's camera seeds);
/// --seed draws the order of the per-property matches.
std::unique_ptr<OfflineSetup> SetUpOffline() {
  auto setup = std::make_unique<OfflineSetup>();
  const uint64_t start = NowNs();
  data::GeneratorOptions options = data::HighQualityOptions(24, 100);
  options.seed = 101;
  auto dataset = data::GenerateCatalog(data::CameraDomain(), options);
  CheckOk(dataset.status(), "GenerateCatalog");
  setup->dataset = std::move(dataset).value();
  setup->generate_s = SecondsSince(start);
  // The evaluation's camera embedding space (eval::DefaultDatasetSpecs).
  embedding::SyntheticModelOptions embedding_options;
  embedding_options.dimension = kEmbeddingDim;
  embedding_options.seed = 101 ^ 0x5eedULL;
  embedding_options.oov_policy = embedding::OovPolicy::kHashedVector;
  embedding_options.intra_cluster_sigma = 0.3;
  embedding_options.maverick_fraction = 0.18;
  auto base = embedding::SyntheticEmbeddingModel::Build(
      data::DomainClusters(data::CameraDomain()), embedding_options);
  CheckOk(base.status(), "SyntheticEmbeddingModel::Build");
  setup->base = std::make_unique<embedding::SyntheticEmbeddingModel>(
      std::move(base).value());
  setup->cache = std::make_unique<embedding::CachingEmbeddingModel>(
      setup->base.get(), 1 << 17);
  Rng rng(2024);
  setup->split = data::SplitSources(setup->dataset, 0.5, rng);
  auto training = data::BuildTrainingPairs(
      setup->dataset, setup->split.train_sources, 2.0, rng);
  CheckOk(training.status(), "BuildTrainingPairs");
  setup->training = std::move(training).value();
  setup->matcher =
      std::make_unique<core::LeapmeMatcher>(setup->cache.get());
  setup->setup_s = SecondsSince(start);

  const uint64_t hits = setup->cache->hits();
  const uint64_t misses = setup->cache->misses();
  const uint64_t fit_start = NowNs();
  CheckOk(setup->matcher->Fit(setup->dataset, setup->training), "Fit");
  setup->fit_s = SecondsSince(fit_start);
  setup->cache_hit_frac_fit = HitFrac(hits, misses, setup->cache->hits(),
                                      setup->cache->misses());
  return setup;
}

/// Matching one property against every property of the other sources:
/// its features computed from name and values, scored against the
/// precomputed features of the rest, top-k kept.
class PropertyMatcher {
 public:
  PropertyMatcher(const OfflineSetup& setup,
                  const std::vector<features::PropertyFeatures>& all)
      : setup_(setup), all_(all) {}

  struct Match {
    std::vector<data::PropertyId> candidates;
    std::vector<double> scores;
    std::vector<uint32_t> top;
  };

  Match Run(data::PropertyId query, uint64_t request, Tracer* tracer) const {
    const data::Dataset& dataset = setup_.dataset;
    Match match;
    const std::vector<std::string> values = ValuesOf(dataset, query);
    ScopedSpan root(tracer, "request", request);
    features::PropertyFeatures query_features;
    {
      ScopedSpan span(tracer, "features.property", request);
      query_features = setup_.matcher->ComputePropertyFeatures(
          dataset.property(query).name, values);
    }
    StatusOr<std::vector<double>> scores = std::vector<double>{};
    {
      ScopedSpan span(tracer, "core.score", request);
      const data::SourceId source = dataset.property(query).source;
      std::vector<const features::PropertyFeatures*> lhs;
      std::vector<const features::PropertyFeatures*> rhs;
      for (data::PropertyId id = 0; id < dataset.property_count(); ++id) {
        if (dataset.property(id).source == source) continue;
        match.candidates.push_back(id);
        // Canonical (a < b) orientation, as all-pairs scoring uses.
        lhs.push_back(id < query ? &all_[id] : &query_features);
        rhs.push_back(id < query ? &query_features : &all_[id]);
      }
      scores = setup_.matcher->ScoreFeaturePairs(lhs, rhs);
    }
    CheckOk(scores.status(), "ScoreFeaturePairs");
    match.scores = std::move(scores).value();
    {
      ScopedSpan span(tracer, "topk", request);
      std::vector<size_t> order(match.candidates.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      const size_t keep = std::min(kTopK, order.size());
      std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                        [&](size_t x, size_t y) {
                          if (match.scores[x] != match.scores[y]) {
                            return match.scores[x] > match.scores[y];
                          }
                          return match.candidates[x] < match.candidates[y];
                        });
      for (size_t j = 0; j < keep; ++j) {
        match.top.push_back(match.candidates[order[j]]);
      }
    }
    return match;
  }

 private:
  const OfflineSetup& setup_;
  const std::vector<features::PropertyFeatures>& all_;
};

std::vector<features::PropertyFeatures> AllFeatures(
    const OfflineSetup& setup) {
  const data::Dataset& dataset = setup.dataset;
  std::vector<features::PropertyFeatures> all(dataset.property_count());
  ParallelFor(0, dataset.property_count(), 1, [&](size_t begin, size_t end) {
    for (size_t id = begin; id < end; ++id) {
      const auto pid = static_cast<data::PropertyId>(id);
      all[id] = setup.matcher->ComputePropertyFeatures(
          dataset.property(pid).name, ValuesOf(dataset, pid));
    }
  });
  return all;
}

/// Held-out properties in a seeded order.
std::vector<data::PropertyId> HeldOutQueries(const OfflineSetup& setup,
                                             uint64_t seed) {
  std::vector<bool> train(setup.dataset.source_count(), false);
  for (data::SourceId source : setup.split.train_sources) train[source] = true;
  std::vector<data::PropertyId> queries;
  for (data::PropertyId id = 0; id < setup.dataset.property_count(); ++id) {
    if (!train[setup.dataset.property(id).source]) queries.push_back(id);
  }
  Rng rng(seed);
  rng.Shuffle(queries);
  return queries;
}

struct OpsPhase {
  std::vector<double> latency_ms;
  double elapsed_s = 0.0;
};

/// Back-to-back per-property matches for `seconds` (at least `min_ops`),
/// cycling through `queries`; `each` sees every finished match.
OpsPhase RunOps(const PropertyMatcher& matcher,
                const std::vector<data::PropertyId>& queries, double seconds,
                size_t min_ops, Tracer* tracer,
                const std::function<void(size_t, const PropertyMatcher::Match&)>&
                    each) {
  OpsPhase phase;
  const uint64_t start = NowNs();
  for (size_t op = 0;
       op < min_ops || SecondsSince(start) < seconds; ++op) {
    const uint64_t op_start = NowNs();
    const PropertyMatcher::Match match =
        matcher.Run(queries[op % queries.size()], op, tracer);
    phase.latency_ms.push_back(static_cast<double>(NowNs() - op_start) / 1e6);
    if (each) each(op, match);
  }
  phase.elapsed_s = SecondsSince(start);
  return phase;
}

void MeasureOffline(const Args& args, OfflineSetup& setup, Result* result) {
  auto pipeline = blocking::CandidatePipeline::Parse("all-pairs",
                                                     setup.cache.get());
  CheckOk(pipeline.status(), "CandidatePipeline::Parse");
  // Bulk scoring: repeated ScoreCandidatesOn over the whole dataset.
  std::vector<double> rates;
  core::BlockedScores first;
  const uint64_t bulk_start = NowNs();
  while (rates.size() < 2 || SecondsSince(bulk_start) < args.seconds * 0.45) {
    const uint64_t start = NowNs();
    auto scored = setup.matcher->ScoreCandidatesOn(setup.dataset, **pipeline);
    const double seconds = SecondsSince(start);
    CheckOk(scored.status(), "ScoreCandidatesOn");
    ++result->counts.attempted;
    ++result->counts.ok;
    rates.push_back(static_cast<double>(scored->scores.size()) / seconds);
    if (first.scores.empty()) first = std::move(scored).value();
  }
  result->Set("pairs_per_s", Median(rates), "pairs/s");
  result->NoteNumber("all_pairs", static_cast<double>(first.scores.size()));
  result->NoteNumber("score_calls", static_cast<double>(rates.size()));
  result->Set("f1",
              HeldOutF1(setup.dataset, setup.split.train_sources,
                        first.candidates, first.scores,
                        setup.matcher->decision_threshold()),
              "ratio");

  // Per-property matching, checked against the bulk scores.
  std::unordered_map<uint64_t, size_t> bulk_index;
  bulk_index.reserve(first.candidates.size());
  for (size_t i = 0; i < first.candidates.size(); ++i) {
    bulk_index[PairKey(first.candidates[i].a, first.candidates[i].b)] = i;
  }
  const std::vector<features::PropertyFeatures> all = AllFeatures(setup);
  const PropertyMatcher matcher(setup, all);
  const std::vector<data::PropertyId> queries =
      HeldOutQueries(setup, Derive(args.seed, 6));
  const std::vector<std::vector<uint32_t>> truth_of =
      TruthPerProperty(setup.dataset);
  std::vector<uint32_t> recall_queries;
  std::vector<std::vector<uint32_t>> returned;
  std::vector<std::vector<uint32_t>> truth;
  const OpsPhase ops = RunOps(
      matcher, queries, args.seconds * 0.55, 1000, nullptr,
      [&](size_t op, const PropertyMatcher::Match& match) {
        ++result->counts.attempted;
        ++result->counts.ok;
        if (op >= queries.size()) return;
        const data::PropertyId query = queries[op];
        recall_queries.push_back(query);
        returned.push_back(match.top);
        truth.push_back(truth_of[query]);
        if (op >= kOracleQueries) return;
        for (size_t i = 0; i < match.candidates.size(); ++i) {
          const auto it = bulk_index.find(PairKey(query, match.candidates[i]));
          if (it == bulk_index.end() ||
              std::memcmp(&first.scores[it->second], &match.scores[i],
                          sizeof(double)) != 0) {
            ++result->counts.mismatches;
            return;
          }
        }
      });
  result->Set("p50_ms", WindowedMedian(ops.latency_ms), "ms");
  // Reported by the traced run; see index_workload.cc.
  result->Note("p99_window_ms", JsonArray(WindowTails(ops.latency_ms)));
  result->NoteNumber("match_ops", static_cast<double>(ops.latency_ms.size()));
  result->Set("sustained_rps",
              static_cast<double>(ops.latency_ms.size()) / ops.elapsed_s,
              "req/s");
  result->Set("recall_at_k",
              RecallAtK(returned, truth, recall_queries, kTopK), "ratio");
  result->Set("ok_frac", 1.0 - FailedFrac(result->counts), "ratio");
}

void MeasureOfflineTraced(const Args& args, OfflineSetup& setup,
                          Result* result) {
  const std::vector<features::PropertyFeatures> all = AllFeatures(setup);
  const PropertyMatcher matcher(setup, all);
  const std::vector<data::PropertyId> queries =
      HeldOutQueries(setup, Derive(args.seed, 6));
  const auto count = [&](size_t, const PropertyMatcher::Match&) {
    ++result->counts.attempted;
    ++result->counts.ok;
  };
  const OpsPhase plain =
      RunOps(matcher, queries, args.seconds * 0.25, 200, nullptr, count);
  Tracer tracer;
  const OpsPhase traced =
      RunOps(matcher, queries, args.seconds * 0.25, 200, &tracer, count);
  result->Set("p99_ms", WindowedTail(plain.latency_ms), "ms");
  const double p50_plain = Median(plain.latency_ms);
  result->Set("trace.overhead_frac",
              (Median(traced.latency_ms) - p50_plain) / p50_plain, "ratio");
  result->Set("trace.layer_self_frac", tracer.LayerSelfFrac(), "ratio");
  result->Set("embedding.cache_hit_frac", setup.cache_hit_frac_fit, "ratio");
  result->Set("data.generate_s", setup.generate_s, "s");
  result->Set("nn.train_s",
              setup.fit_s - FitFeatureSeconds(*setup.matcher, setup.dataset,
                                              setup.training),
              "s");

  // The serve layer on this workload's properties: a short open-loop
  // burst of 4-pair score requests against the fitted matcher.
  ServeStack stack = ServeStack::Start(*setup.matcher, *setup.cache, nullptr,
                                       nullptr);
  auto sampler = workload::RequestSampler::Build(
      {.catalog_size = setup.dataset.property_count(),
       .zipf_s = 1.0,
       .seed = Derive(args.seed, 5)});
  CheckOk(sampler.status(), "RequestSampler::Build");
  const auto pairs_of = [&](size_t event) {
    std::vector<data::PropertyPair> pairs(4);
    for (size_t j = 0; j < pairs.size(); ++j) {
      pairs[j] = {static_cast<data::PropertyId>(sampler->PropertyAt(4 * event + j)),
                  static_cast<data::PropertyId>(
                      sampler->PairPropertyAt(4 * event + j))};
    }
    return pairs;
  };
  constexpr double kBurstRate = 500.0;
  const serve::ServiceStats before = stack.service->Snapshot();
  QueueAgeSampler queue_age(stack.service.get());
  const PhaseResult burst = RunPhase(
      stack.port(),
      {.rate = kBurstRate,
       .duration_s = 1.0,
       .schedule_seed = Derive(args.seed, 31),
       .first_event = 0,
       .connections = 2},
      [&](size_t event, size_t, tools::LineClient& client) {
        std::string response;
        if (!client.RoundTrip(ScoreLine(setup.dataset, pairs_of(event), event),
                              &response)) {
          return workload::Outcome::kError;
        }
        serve::JsonValue parsed;
        return ClassifyResponse(response, &parsed);
      },
      nullptr);
  const double mean_queue_age = queue_age.Stop();
  const serve::ServiceStats after = stack.service->Snapshot();
  AddCounts(burst.counts, &result->counts);
  RecordServeCounters(before, after, mean_queue_age, burst.events.size(),
                      result);
  RecordGeneratorHealth(burst, kBurstRate, result);

  LayerInputs inputs;
  inputs.matcher = setup.matcher.get();
  inputs.cache = setup.cache.get();
  inputs.dataset = &setup.dataset;
  inputs.blocking_spec = "name-token";
  inputs.stack = &stack;
  for (size_t i = 0; i < queries.size() && i < 64; ++i) {
    inputs.queries.push_back(queries[i]);
  }
  for (size_t i = 0; i < 8 && i < queries.size(); ++i) {
    std::vector<data::PropertyPair> group;
    for (data::PropertyId id = 0; id < setup.dataset.property_count(); ++id) {
      if (setup.dataset.property(id).source !=
          setup.dataset.property(queries[i]).source) {
        group.push_back({std::min(id, queries[i]), std::max(id, queries[i])});
      }
    }
    inputs.score_groups.push_back(std::move(group));
  }
  for (size_t event = 0; event < 200; ++event) {
    inputs.lines.push_back(ScoreLine(setup.dataset, pairs_of(event), event));
  }
  MeasureLayers(inputs, result);
  stack.Stop();
  result->Set("failed_frac", FailedFrac(result->counts), "ratio");

  if (!args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/offline_fit_match-seed" +
                             std::to_string(args.seed) + ".spans.tsv";
    if (!tracer.WriteTsv(path)) {
      std::fprintf(stderr, "benchmark: cannot write %s\n", path.c_str());
    }
    result->NoteString("spans_file", path);
  }
}

}  // namespace

Result RunOfflineFitMatch(const Args& args) {
  Result result;
  std::vector<double> setup_s;
  std::vector<double> fit_s;
  std::unique_ptr<OfflineSetup> setup;
  for (size_t r = 0; r < (args.trace ? 1 : kSetupRepeats); ++r) {
    // Repeats are identical; only the timings differ.
    setup.reset();
    setup = SetUpOffline();
    setup_s.push_back(setup->setup_s);
    fit_s.push_back(setup->fit_s);
  }
  result.NoteNumber("properties",
                    static_cast<double>(setup->dataset.property_count()));
  result.NoteNumber("embedding_dim", kEmbeddingDim);
  result.NoteNumber("training_pairs",
                    static_cast<double>(setup->training.size()));
  result.Note("setup_s_samples", JsonArray(setup_s));
  result.Note("fit_s_samples", JsonArray(fit_s));
  if (args.trace) {
    MeasureOfflineTraced(args, *setup, &result);
  } else {
    result.Set("setup_s", Median(setup_s), "s");
    // The fits are identical work; the host's noise only adds time.
    result.Set("fit_s", *std::min_element(fit_s.begin(), fit_s.end()), "s");
    MeasureOffline(args, *setup, &result);
  }
  return result;
}

}  // namespace leapme::benchmark
