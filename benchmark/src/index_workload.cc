// index_match_40k: open-loop index_match requests (k = 5) over loopback
// TCP against the program's serve stack at its defaults, with
// soak_bench's scaled 40k-property catalog attached as the index. Each
// request blocks a property against the catalog and scores its ~400
// candidates.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "blocking/candidate_pipeline.h"
#include "common/rng.h"
#include "data/domain.h"
#include "data/generator.h"
#include "embedding/synthetic_model.h"
#include "layers.h"
#include "workload/traffic.h"
#include "workloads.h"

namespace leapme::benchmark {
namespace {

constexpr const char* kName = "index_match_40k";
constexpr const char* kBlocking = "name-token:max-freq=0.02";
constexpr size_t kSetupRepeats = 7;
constexpr size_t kTopK = 5;
/// Client connections (and client threads). The server already runs
/// ~10 threads on a 4-core host; two connections keep the generator from
/// competing with it for cores.
constexpr unsigned kConnections = 2;
constexpr size_t kOracleSample = 40;
constexpr size_t kReplaySample = 150;

/// The pinned rate sits well below saturation (~180-200 req/s at the
/// seed), so its latency is the program's, not a queue's. The limit sits
/// well above the pinned p99 (~30-45 ms) because the host stalls threads
/// for up to tens of ms; saturation drives a step's tail past it within
/// the step anyway.
constexpr double kPinnedRate = 68.0;
constexpr double kLimitMs = 200.0;
/// Share of --seconds at the pinned rate; the rest is split evenly over
/// the ladder. At --seconds 45 the pinned phase holds two windows of
/// more than 1000 requests for the p99.
constexpr double kPinnedShare = 0.67;
const std::vector<double> kLadder = {70,  80,  90,  100, 115, 130, 145,
                                     160, 175, 190, 205, 220, 240, 260};

uint64_t Derive(uint64_t seed, uint64_t stream) {
  return seed * 1000003ULL + stream;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// soak_bench's serve stack: its 40k catalog, and its matcher fitted on a
/// 4-source TV catalog over an embedding space covering every domain's
/// vocabulary. The data is fixed; --seed draws the traffic.
struct IndexSetup {
  std::unique_ptr<embedding::SyntheticEmbeddingModel> base;
  std::unique_ptr<embedding::CachingEmbeddingModel> cache;
  data::Dataset catalog;
  data::Dataset tv;
  data::SourceSplit split;
  std::vector<data::LabeledPair> training;
  std::unique_ptr<core::LeapmeMatcher> matcher;
  std::unique_ptr<blocking::CandidatePipeline> pipeline;
  ServeStack stack;
  double generate_s = 0.0;
  double fit_s = 0.0;
};

std::unique_ptr<IndexSetup> SetUpIndex() {
  auto setup = std::make_unique<IndexSetup>();
  uint64_t start = NowNs();
  data::ScaledCatalogOptions catalog_options;
  catalog_options.target_properties = 40000;
  catalog_options.num_sources = 100;
  catalog_options.entities_per_source = 8;
  catalog_options.sources_per_category = 6;
  catalog_options.seed = 101;
  auto catalog = data::GenerateScaledCatalog(catalog_options);
  CheckOk(catalog.status(), "GenerateScaledCatalog");
  setup->catalog = std::move(catalog).value();
  data::GeneratorOptions tv_options;
  tv_options.num_sources = 4;
  tv_options.min_entities_per_source = 10;
  tv_options.max_entities_per_source = 10;
  tv_options.seed = 103;
  auto tv = data::GenerateCatalog(data::TvDomain(), tv_options);
  CheckOk(tv.status(), "GenerateCatalog");
  setup->tv = std::move(tv).value();
  setup->generate_s = SecondsSince(start);

  std::vector<embedding::SemanticCluster> clusters;
  for (const data::DomainSpec* domain : data::AllDomains()) {
    auto domain_clusters = data::DomainClusters(*domain);
    clusters.insert(clusters.end(), domain_clusters.begin(),
                    domain_clusters.end());
  }
  auto base = embedding::SyntheticEmbeddingModel::Build(
      clusters, {.dimension = 16,
                 .seed = 102,
                 .oov_policy = embedding::OovPolicy::kHashedVector});
  CheckOk(base.status(), "SyntheticEmbeddingModel::Build");
  setup->base = std::make_unique<embedding::SyntheticEmbeddingModel>(
      std::move(base).value());
  setup->cache = std::make_unique<embedding::CachingEmbeddingModel>(
      setup->base.get(), 1 << 17);

  Rng rng(104);
  setup->split = data::SplitSources(setup->tv, 0.8, rng);
  auto training = data::BuildTrainingPairs(
      setup->tv, setup->split.train_sources, 2.0, rng);
  CheckOk(training.status(), "BuildTrainingPairs");
  setup->training = std::move(training).value();
  setup->matcher = std::make_unique<core::LeapmeMatcher>(setup->cache.get());
  start = NowNs();
  CheckOk(setup->matcher->Fit(setup->tv, setup->training), "Fit");
  setup->fit_s = SecondsSince(start);

  auto pipeline = blocking::CandidatePipeline::Parse(kBlocking,
                                                     setup->cache.get());
  CheckOk(pipeline.status(), "CandidatePipeline::Parse");
  setup->pipeline = std::move(pipeline).value();
  setup->stack = ServeStack::Start(*setup->matcher, *setup->cache,
                                   &setup->catalog, setup->pipeline.get());
  return setup;
}

/// What the client kept of one ok response.
struct Served {
  size_t event = 0;  ///< the request's draw index
  std::vector<uint32_t> ids;
  std::vector<double> scores;
};

size_t EventCount(double rate, double seconds) {
  return static_cast<size_t>(std::llround(rate * seconds));
}

class IndexTraffic {
 public:
  explicit IndexTraffic(IndexSetup* setup)
      : setup_(setup), sampler_(BuildDraws(setup->catalog.property_count())) {}

  ServeStack& stack() { return setup_->stack; }

  /// The catalog property event `event` queries: a Zipf(1.0) draw over
  /// soak_bench's fixed popularity order, keyed by the event index.
  uint32_t QueryOf(size_t event) const {
    return static_cast<uint32_t>(sampler_.PropertyAt(event));
  }

  std::string Line(size_t event) const {
    return IndexMatchLine(setup_->catalog, QueryOf(event), event, kTopK);
  }

  /// Runs one open-loop phase over the fixed draws [first_event,
  /// first_event + n): every seed sends the same requests, in a seeded
  /// order at seeded Poisson times. A request's cost follows its
  /// candidate count, which is heavy-tailed; with seed-drawn requests a
  /// run's tail would mostly say which rare expensive properties it drew.
  /// Ok responses are kept in `served` (one per slot) when given.
  PhaseResult Phase(const PhaseOptions& options, std::vector<Served>* served,
                    std::vector<Tracer>* tracers) {
    std::vector<size_t> order(EventCount(options.rate, options.duration_s));
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = options.first_event + i;
    }
    Rng rng(options.schedule_seed ^ 0x9e3779b97f4a7c15ULL);
    rng.Shuffle(order);
    if (served != nullptr) served->assign(order.size(), Served{});
    return RunPhase(
        stack().port(), options,
        [&](size_t, size_t slot, tools::LineClient& client) {
          const size_t event = order[slot];
          std::string response;
          if (!client.RoundTrip(Line(event), &response)) {
            return workload::Outcome::kError;
          }
          serve::JsonValue parsed;
          const workload::Outcome outcome =
              ClassifyResponse(response, &parsed);
          if (outcome == workload::Outcome::kOk && served != nullptr) {
            (*served)[slot].event = event;
            Store(parsed, &(*served)[slot]);
          }
          return outcome;
        },
        tracers);
  }

  /// Keeps the top-k ids and scores of an ok response.
  static void Store(const serve::JsonValue& response, Served* out) {
    const serve::JsonValue* matches = response.Find("matches");
    if (matches == nullptr || !matches->is_array()) return;
    for (const serve::JsonValue& match : matches->AsArray()) {
      const serve::JsonValue* property = match.Find("property");
      const serve::JsonValue* score = match.Find("score");
      if (property == nullptr || score == nullptr) continue;
      out->ids.push_back(static_cast<uint32_t>(property->AsNumber()));
      out->scores.push_back(score->AsNumber());
    }
  }

  /// Recomputes `event` in-process through the layers' public functions,
  /// with spans when `tracer` is set, and returns whether the top-k ids
  /// and scores are bit-identical to what was served.
  bool Replay(size_t event, const Served& served, Tracer* tracer) {
    const std::string line = Line(event);
    const core::LeapmeMatcher& matcher = *setup_->matcher;
    // The service precomputed every catalog property's features at
    // attach time; the replay computes its own copy outside the spans.
    auto blocked = setup_->pipeline->Query(
        setup_->catalog.property(QueryOf(event)).name);
    CheckOk(blocked.status(), "Query");
    for (data::PropertyId id : *blocked) CatalogFeatures(id);

    ScopedSpan request(tracer, "request", event);
    serve::Request parsed;
    {
      ScopedSpan span(tracer, "serve.parse", event);
      auto parsed_or = serve::ParseRequest(line);
      CheckOk(parsed_or.status(), "ParseRequest");
      parsed = std::move(parsed_or).value();
    }
    std::vector<data::PropertyId> candidates;
    {
      ScopedSpan span(tracer, "blocking.query", event);
      auto query = setup_->pipeline->Query(parsed.query.name);
      CheckOk(query.status(), "Query");
      candidates = std::move(query).value();
    }
    features::PropertyFeatures query_features;
    {
      ScopedSpan span(tracer, "features.property", event);
      query_features = matcher.ComputePropertyFeatures(parsed.query.name,
                                                       parsed.query.values);
    }
    StatusOr<std::vector<double>> scores = std::vector<double>{};
    {
      ScopedSpan span(tracer, "core.score", event);
      std::vector<const features::PropertyFeatures*> lhs(candidates.size(),
                                                         &query_features);
      std::vector<const features::PropertyFeatures*> rhs;
      rhs.reserve(candidates.size());
      for (data::PropertyId id : candidates) {
        rhs.push_back(&catalog_features_.at(id));
      }
      scores = matcher.ScoreFeaturePairs(lhs, rhs);
    }
    CheckOk(scores.status(), "ScoreFeaturePairs");
    serve::IndexMatchOutcome outcome;
    {
      ScopedSpan span(tracer, "topk", event);
      std::vector<serve::IndexMatchResult> matches(candidates.size());
      for (size_t i = 0; i < candidates.size(); ++i) {
        matches[i].property = candidates[i];
        matches[i].score = (*scores)[i];
      }
      const size_t keep = std::min(parsed.k, matches.size());
      std::partial_sort(
          matches.begin(), matches.begin() + keep, matches.end(),
          [](const serve::IndexMatchResult& a,
             const serve::IndexMatchResult& b) {
            if (a.score != b.score) return a.score > b.score;
            return a.property < b.property;
          });
      matches.resize(keep);
      for (serve::IndexMatchResult& match : matches) {
        const auto id = static_cast<data::PropertyId>(match.property);
        match.name = setup_->catalog.property(id).name;
        match.source = setup_->catalog.source_name(
            setup_->catalog.property(id).source);
      }
      outcome.matches = std::move(matches);
      outcome.candidate_count = candidates.size();
    }
    {
      ScopedSpan span(tracer, "serve.serialize", event);
      sink_ += serve::IndexMatchResponse(parsed.id, outcome).size();
    }
    if (outcome.matches.size() != served.ids.size()) return false;
    for (size_t i = 0; i < outcome.matches.size(); ++i) {
      if (outcome.matches[i].property != served.ids[i] ||
          !SameBits(outcome.matches[i].score, served.scores[i])) {
        return false;
      }
    }
    return true;
  }

  /// recall@k of the served top-k lists of a phase.
  double ServedRecall(const PhaseResult& phase,
                      const std::vector<Served>& served) const {
    const std::vector<std::vector<uint32_t>> truth_of =
        TruthPerProperty(setup_->catalog);
    std::vector<uint32_t> queries;
    std::vector<std::vector<uint32_t>> returned;
    std::vector<std::vector<uint32_t>> truth;
    for (size_t slot = 0; slot < phase.events.size(); ++slot) {
      if (phase.events[slot].outcome != workload::Outcome::kOk) continue;
      queries.push_back(QueryOf(served[slot].event));
      returned.push_back(served[slot].ids);
      truth.push_back(truth_of[queries.back()]);
    }
    return RecallAtK(returned, truth, queries, kTopK);
  }

  LayerInputs Layers(const std::vector<size_t>& events) {
    LayerInputs inputs;
    inputs.matcher = setup_->matcher.get();
    inputs.cache = setup_->cache.get();
    inputs.dataset = &setup_->catalog;
    inputs.blocking_spec = kBlocking;
    inputs.stack = &setup_->stack;
    for (size_t event : events) {
      const uint32_t query = QueryOf(event);
      if (std::find(inputs.queries.begin(), inputs.queries.end(), query) ==
          inputs.queries.end()) {
        inputs.queries.push_back(query);
      }
      inputs.lines.push_back(Line(event));
    }
    for (size_t i = 0; i < inputs.queries.size() && i < 32; ++i) {
      auto blocked = setup_->pipeline->Query(
          setup_->catalog.property(inputs.queries[i]).name);
      CheckOk(blocked.status(), "Query");
      std::vector<data::PropertyPair> group;
      for (data::PropertyId id : *blocked) {
        group.push_back({inputs.queries[i], id});
      }
      inputs.score_groups.push_back(std::move(group));
    }
    return inputs;
  }

  /// Brings the caches to their steady state: 1.5 s of the same draw at
  /// the pinned rate, on events the timed phases never use.
  void WarmUp() {
    Phase({.rate = kPinnedRate,
           .duration_s = 1.5,
           .schedule_seed = 999,
           .first_event = 1u << 30,
           .connections = kConnections},
          nullptr, nullptr);
  }

 private:
  static workload::RequestSampler BuildDraws(size_t catalog_size) {
    auto sampler = workload::RequestSampler::Build(
        {.catalog_size = catalog_size, .zipf_s = 1.0, .seed = 105});
    CheckOk(sampler.status(), "RequestSampler::Build");
    return std::move(sampler).value();
  }

  const features::PropertyFeatures& CatalogFeatures(data::PropertyId id) {
    auto it = catalog_features_.find(id);
    if (it == catalog_features_.end()) {
      it = catalog_features_
               .emplace(id, setup_->matcher->ComputePropertyFeatures(
                                setup_->catalog.property(id).name,
                                ValuesOf(setup_->catalog, id)))
               .first;
    }
    return it->second;
  }

  IndexSetup* setup_;
  workload::RequestSampler sampler_;
  std::unordered_map<data::PropertyId, features::PropertyFeatures>
      catalog_features_;
  size_t sink_ = 0;
};

/// Seeded sample of up to `count` ok slots of a phase.
std::vector<size_t> SampleOkSlots(const PhaseResult& phase, size_t count,
                                  uint64_t seed) {
  std::vector<size_t> slots;
  for (size_t i = 0; i < phase.events.size(); ++i) {
    if (phase.events[i].outcome == workload::Outcome::kOk) slots.push_back(i);
  }
  Rng rng(seed);
  rng.Shuffle(slots);
  if (slots.size() > count) slots.resize(count);
  std::sort(slots.begin(), slots.end());
  return slots;
}

void NoteConfig(const Args& args, const IndexSetup& setup, Result* result) {
  result->NoteString("blocking", kBlocking);
  result->NoteNumber("catalog_properties",
                     static_cast<double>(setup.catalog.property_count()));
  result->NoteNumber("k", kTopK);
  result->NoteNumber("client_connections", kConnections);
  result->NoteNumber("server_event_loops",
                     serve::ServerOptions{}.event_loop_threads);
  result->NoteNumber("server_workers", serve::ServerOptions{}.worker_threads);
  result->NoteNumber("batch_window_us",
                     serve::ServiceOptions{}.batch_window_us);
  result->NoteNumber("max_batch", serve::ServiceOptions{}.max_batch);
  result->NoteNumber("pinned_rps", kPinnedRate);
  result->NoteNumber("latency_limit_ms", kLimitMs);
  result->Note("ladder_rps", JsonArray(kLadder));
  result->NoteNumber("seconds", args.seconds);
}

/// The untraced run: latency at the pinned rate, the ladder, recall and
/// the oracle.
void Measure(const Args& args, IndexTraffic& traffic, Result* result) {
  const double step_s = args.seconds * (1.0 - kPinnedShare) /
                        static_cast<double>(kLadder.size());
  std::vector<Served> served;
  const PhaseResult pinned =
      traffic.Phase({.rate = kPinnedRate,
                     .duration_s = args.seconds * kPinnedShare,
                     .schedule_seed = Derive(args.seed, 10),
                     .first_event = 0,
                     .connections = kConnections},
                    &served, nullptr);
  AddCounts(pinned.counts, &result->counts);
  const std::vector<double> intended = pinned.IntendedMs();
  result->Set("p50_ms", WindowedMedian(intended), "ms");
  // The tail is recorded here and reported by the traced run (p99_ms):
  // on a shared host its run-to-run spread exceeds any bound.
  result->Note("p99_window_ms", JsonArray(WindowTails(intended)));
  result->NoteNumber("pinned_samples", static_cast<double>(intended.size()));

  // Every step runs; pairs_per_s is the server's scoring rate on the
  // step that sets sustained_rps.
  std::vector<LadderStep> steps;
  std::vector<double> step_pairs_per_s;
  size_t first_event = pinned.events.size();
  for (size_t i = 0; i < kLadder.size(); ++i) {
    const serve::ServiceStats before = traffic.stack().service->Snapshot();
    const PhaseResult step =
        traffic.Phase({.rate = kLadder[i],
                       .duration_s = step_s,
                       .schedule_seed = Derive(args.seed, 11 + i),
                       .first_event = first_event,
                       .connections = kConnections},
                      nullptr, nullptr);
    const serve::ServiceStats after = traffic.stack().service->Snapshot();
    first_event += step.events.size();
    AddCounts(step.counts, &result->counts);
    steps.push_back({kLadder[i], WindowedTail(step.IntendedMs()),
                     Failed(step.counts), step.drain_ms});
    step_pairs_per_s.push_back(
        static_cast<double>(after.pairs_scored - before.pairs_scored) /
        step.elapsed_s);
  }
  const double sustained = PickSustainedRate(steps, kLimitMs);
  result->Set("sustained_rps", sustained, "req/s");
  double pairs_per_s = 0.0;
  std::string ladder_json = "[";
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].rate == sustained) pairs_per_s = step_pairs_per_s[i];
    if (i > 0) ladder_json += ",";
    ladder_json += "{\"rate\":" + serve::FormatJsonDouble(steps[i].rate) +
                   ",\"tail_ms\":" + serve::FormatJsonDouble(steps[i].tail_ms) +
                   ",\"failures\":" + std::to_string(steps[i].failures) +
                   ",\"drain_ms\":" + serve::FormatJsonDouble(steps[i].drain_ms) +
                   "}";
  }
  result->Note("ladder_steps", ladder_json + "]");
  result->Set("pairs_per_s", pairs_per_s, "pairs/s");
  result->Set("recall_at_k", traffic.ServedRecall(pinned, served), "ratio");

  // Oracle: a seeded sample of served responses recomputed in-process.
  for (size_t slot :
       SampleOkSlots(pinned, kOracleSample, Derive(args.seed, 20))) {
    if (!traffic.Replay(served[slot].event, served[slot], nullptr)) {
      ++result->counts.mismatches;
    }
  }
}

/// The traced run: untraced vs traced pinned phases, in-process replays
/// with layer spans, and the per-layer probes.
void MeasureTraced(const Args& args, IndexSetup& setup,
                   IndexTraffic& traffic, uint64_t hits_before,
                   uint64_t misses_before, Result* result) {
  // The untraced phase is long enough for a p99 with ten samples beyond.
  const PhaseResult plain =
      traffic.Phase({.rate = kPinnedRate,
                     .duration_s = args.seconds * 0.4,
                     .schedule_seed = Derive(args.seed, 30),
                     .first_event = 0,
                     .connections = kConnections},
                    nullptr, nullptr);
  AddCounts(plain.counts, &result->counts);
  result->Set("p99_ms", WindowedTail(plain.IntendedMs()), "ms");

  std::vector<Tracer> tracers(kConnections);
  std::vector<Served> served;
  const serve::ServiceStats before = setup.stack.service->Snapshot();
  QueueAgeSampler queue_age(setup.stack.service.get());
  const PhaseResult traced =
      traffic.Phase({.rate = kPinnedRate,
                     .duration_s = args.seconds * 0.3,
                     .schedule_seed = Derive(args.seed, 31),
                     .first_event = plain.events.size(),
                     .connections = kConnections},
                    &served, &tracers);
  const double mean_queue_age = queue_age.Stop();
  const serve::ServiceStats after = setup.stack.service->Snapshot();
  AddCounts(traced.counts, &result->counts);
  RecordServeCounters(before, after, mean_queue_age, traced.events.size(),
                      result);
  RecordGeneratorHealth(traced, kPinnedRate, result);
  const double p50_plain = Median(plain.IntendedMs());
  const double p50_traced = Median(traced.IntendedMs());
  result->NoteNumber("p50_untraced_ms", p50_plain);
  result->NoteNumber("p50_traced_ms", p50_traced);
  result->Set("trace.overhead_frac", (p50_traced - p50_plain) / p50_plain,
              "ratio");

  // In-process replays of sampled traced events: the oracle pass first
  // (it also fills the replay's feature cache), then the traced pass.
  Tracer replay;
  std::vector<size_t> events;
  for (size_t slot :
       SampleOkSlots(traced, kReplaySample, Derive(args.seed, 32))) {
    const size_t event = served[slot].event;
    if (!traffic.Replay(event, served[slot], nullptr) ||
        !traffic.Replay(event, served[slot], &replay)) {
      ++result->counts.mismatches;
    }
    events.push_back(event);
  }
  result->Set("trace.layer_self_frac", replay.LayerSelfFrac(), "ratio");

  // Token-embedding lookups happen on property-cache misses: from warm-up
  // (cold) through the traced phase.
  result->Set("embedding.cache_hit_frac",
              HitFrac(hits_before, misses_before, setup.cache->hits(),
                      setup.cache->misses()),
              "ratio");
  MeasureLayers(traffic.Layers(events), result);
  result->Set("data.generate_s", setup.generate_s, "s");
  result->Set("nn.train_s",
              setup.fit_s - FitFeatureSeconds(*setup.matcher, setup.tv,
                                              setup.training),
              "s");
  result->Set("failed_frac", FailedFrac(result->counts), "ratio");

  if (!args.trace_dir.empty()) {
    for (const Tracer& tracer : tracers) replay.Absorb(tracer);
    const std::string path = args.trace_dir + "/" + kName + "-seed" +
                             std::to_string(args.seed) + ".spans.tsv";
    if (!replay.WriteTsv(path)) {
      std::fprintf(stderr, "benchmark: cannot write %s\n", path.c_str());
    }
    result->NoteString("spans_file", path);
  }
}

}  // namespace

Result RunIndexMatch40k(const Args& args) {
  Result result;
  std::vector<double> setup_s;
  std::vector<double> fit_s;
  std::unique_ptr<IndexSetup> setup;
  for (size_t r = 0; r < (args.trace ? 1 : kSetupRepeats); ++r) {
    // Repeats are identical; only the timings differ.
    setup.reset();
    const uint64_t start = NowNs();
    setup = SetUpIndex();
    setup_s.push_back(SecondsSince(start));
    fit_s.push_back(setup->fit_s);
  }
  result.Note("setup_s_samples", JsonArray(setup_s));
  result.Note("fit_s_samples", JsonArray(fit_s));
  NoteConfig(args, *setup, &result);

  IndexTraffic traffic(setup.get());
  const uint64_t hits = setup->cache->hits();
  const uint64_t misses = setup->cache->misses();
  traffic.WarmUp();
  if (args.trace) {
    MeasureTraced(args, *setup, traffic, hits, misses, &result);
  } else {
    result.Set("setup_s", Median(setup_s), "s");
    // The fits are identical work; the host's noise only adds time.
    result.Set("fit_s", *std::min_element(fit_s.begin(), fit_s.end()), "s");
    const std::vector<data::PropertyPair> pairs =
        setup->tv.AllCrossSourcePairs();
    auto scores = setup->matcher->ScorePairs(pairs);
    CheckOk(scores.status(), "ScorePairs");
    result.Set("f1",
               HeldOutF1(setup->tv, setup->split.train_sources, pairs,
                         *scores, setup->matcher->decision_threshold()),
               "ratio");
    Measure(args, traffic, &result);
    result.Set("ok_frac", 1.0 - FailedFrac(result.counts), "ratio");
  }
  setup->stack.Stop();
  return result;
}

}  // namespace leapme::benchmark
