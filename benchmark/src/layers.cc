#include "layers.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "blocking/candidate_pipeline.h"
#include "common/rng.h"
#include "nn/mlp.h"
#include "serve/protocol.h"
#include "text/string_metrics.h"
#include "text/tokenizer.h"

namespace leapme::benchmark {
namespace {

volatile double g_sink = 0.0;

/// Mean ns per call of `fn` over `items` calls, repeated until at least
/// 20 ms have been measured.
double NsPerCall(size_t items, const std::function<double(size_t)>& fn) {
  if (items == 0) return 0.0;
  uint64_t calls = 0;
  const uint64_t start = NowNs();
  double sink = 0.0;
  do {
    for (size_t i = 0; i < items; ++i) sink += fn(i);
    calls += items;
  } while (NowNs() - start < 20'000'000);
  g_sink = sink;
  return static_cast<double>(NowNs() - start) / static_cast<double>(calls);
}

void MeasureText(const LayerInputs& in, Result* result) {
  std::vector<std::pair<std::string, std::string>> names;
  for (const auto& group : in.score_groups) {
    for (const data::PropertyPair& pair : group) {
      if (names.size() >= 2000) break;
      names.emplace_back(in.dataset->property(pair.a).name,
                         in.dataset->property(pair.b).name);
    }
  }
  const std::vector<
      std::pair<const char*, std::function<double(std::string_view,
                                                  std::string_view)>>>
      metrics = {
          {"levenshtein",
           [](auto a, auto b) { return double(text::Levenshtein(a, b)); }},
          {"osa",
           [](auto a, auto b) {
             return double(text::OptimalStringAlignment(a, b));
           }},
          {"damerau",
           [](auto a, auto b) {
             return double(text::DamerauLevenshtein(a, b));
           }},
          {"lcs", [](auto a, auto b) { return double(text::LcsDistance(a, b)); }},
          {"qgram", [](auto a, auto b) { return text::ThreeGramDistance(a, b); }},
          {"qgram_cosine",
           [](auto a, auto b) { return text::ThreeGramCosineDistance(a, b); }},
          {"qgram_jaccard",
           [](auto a, auto b) { return text::ThreeGramJaccardDistance(a, b); }},
          {"jaro_winkler",
           [](auto a, auto b) { return text::JaroWinklerDistance(a, b); }},
      };
  for (const auto& [name, fn] : metrics) {
    result->Set(std::string("text.") + name + "_ns",
                NsPerCall(names.size(),
                          [&](size_t i) {
                            return fn(names[i].first, names[i].second);
                          }),
                "ns");
  }
}

void MeasureFeaturesCoreNn(const LayerInputs& in, Result* result) {
  const features::FeaturePipeline& pipeline = in.matcher->pipeline();
  // Every property the score groups touch, computed once.
  std::vector<data::PropertyId> ids;
  std::unordered_map<data::PropertyId, size_t> slot;
  for (const auto& group : in.score_groups) {
    for (const data::PropertyPair& pair : group) {
      for (data::PropertyId id : {pair.a, pair.b}) {
        if (slot.emplace(id, ids.size()).second) ids.push_back(id);
      }
    }
  }
  std::vector<std::vector<std::string>> values(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    values[i] = ValuesOf(*in.dataset, ids[i]);
  }

  const std::vector<features::StageTiming> before = pipeline.StageTimings();
  std::vector<features::PropertyFeatures> features(ids.size());
  const uint64_t property_start = NowNs();
  for (size_t i = 0; i < ids.size(); ++i) {
    features[i] = in.matcher->ComputePropertyFeatures(
        in.dataset->property(ids[i]).name, values[i]);
  }
  result->Set("features.property_us",
              static_cast<double>(NowNs() - property_start) / 1e3 /
                  static_cast<double>(std::max<size_t>(1, ids.size())),
              "us");

  std::vector<const features::PropertyFeatures*> lhs;
  std::vector<const features::PropertyFeatures*> rhs;
  for (const auto& group : in.score_groups) {
    for (const data::PropertyPair& pair : group) {
      lhs.push_back(&features[slot[pair.a]]);
      rhs.push_back(&features[slot[pair.b]]);
    }
  }
  const uint64_t design_start = NowNs();
  const nn::Matrix design = pipeline.BuildDesignMatrix(lhs, rhs, {});
  result->Set("features.design_matrix_ns_per_pair",
              static_cast<double>(NowNs() - design_start) /
                  static_cast<double>(std::max<size_t>(1, design.rows())),
              "ns");
  const std::vector<features::StageTiming> after = pipeline.StageTimings();
  for (size_t s = 0; s < after.size() && s < before.size(); ++s) {
    const auto per_call = [](uint64_t ns, uint64_t calls) {
      return calls == 0 ? 0.0
                        : static_cast<double>(ns) / static_cast<double>(calls);
    };
    result->Set("features." + after[s].name + ".property_ns",
                per_call(after[s].property_ns - before[s].property_ns,
                         after[s].property_calls - before[s].property_calls),
                "ns");
    result->Set("features." + after[s].name + ".pair_ns",
                per_call(after[s].pair_ns - before[s].pair_ns,
                         after[s].pair_calls - before[s].pair_calls),
                "ns");
  }

  // core: one ScoreFeaturePairs call per group, as the workload makes.
  uint64_t score_ns = 0;
  uint64_t score_pairs = 0;
  for (const auto& group : in.score_groups) {
    std::vector<const features::PropertyFeatures*> a;
    std::vector<const features::PropertyFeatures*> b;
    for (const data::PropertyPair& pair : group) {
      a.push_back(&features[slot[pair.a]]);
      b.push_back(&features[slot[pair.b]]);
    }
    const uint64_t start = NowNs();
    auto scores = in.matcher->ScoreFeaturePairs(a, b);
    score_ns += NowNs() - start;
    CheckOk(scores.status(), "ScoreFeaturePairs");
    score_pairs += group.size();
  }
  result->Set("core.score_ns_per_pair",
              static_cast<double>(score_ns) /
                  static_cast<double>(std::max<uint64_t>(1, score_pairs)),
              "ns");

  // nn: the matcher's classifier shape (input width, 128/64 hidden, 2
  // classes) on rows of the workload's own design width.
  Rng rng(7);
  const nn::Mlp mlp = nn::BuildMlp(in.matcher->input_dimension(),
                                   in.matcher->options().hidden_sizes, 2, rng);
  const size_t rows = std::clamp<size_t>(lhs.size(), 1, 512);
  nn::Matrix input(rows, in.matcher->input_dimension());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < input.cols(); ++c) {
      input(r, c) = static_cast<float>(rng.NextDouble() - 0.5);
    }
  }
  nn::Matrix probabilities;
  result->Set("nn.infer_ns_per_row",
              NsPerCall(1,
                        [&](size_t) {
                          mlp.Infer(input, &probabilities);
                          return static_cast<double>(probabilities(0, 0));
                        }) /
                  static_cast<double>(rows),
              "ns");
}

void MeasureEmbedding(const LayerInputs& in, Result* result) {
  std::vector<std::string> words;
  for (data::PropertyId id : in.queries) {
    for (std::string& word : text::EmbeddingWords(in.dataset->property(id).name)) {
      words.push_back(std::move(word));
    }
    for (const data::InstanceValue& instance : in.dataset->instances(id)) {
      for (std::string& word : text::EmbeddingWords(instance.value)) {
        words.push_back(std::move(word));
      }
    }
  }
  std::vector<std::string_view> views(words.begin(), words.end());
  std::vector<float> out(views.size() * in.cache->dimension());
  std::vector<uint8_t> in_vocabulary(views.size());
  result->Set("embedding.lookup_ns_per_token",
              NsPerCall(1,
                        [&](size_t) {
                          in.cache->LookupBatch(views, out.data(),
                                                in_vocabulary.data());
                          return out.empty() ? 0.0 : double(out[0]);
                        }) /
                  static_cast<double>(std::max<size_t>(1, views.size())),
              "ns");
}

void MeasureBlocking(const LayerInputs& in, Result* result) {
  auto pipeline = blocking::CandidatePipeline::Parse(in.blocking_spec,
                                                     in.cache);
  CheckOk(pipeline.status(), "CandidatePipeline::Parse");
  const uint64_t build_start = NowNs();
  CheckOk((*pipeline)->BuildIndex(*in.dataset), "BuildIndex");
  result->Set("blocking.build_index_s", SecondsSince(build_start), "s");

  const std::vector<std::vector<uint32_t>> truth_of =
      TruthPerProperty(*in.dataset);
  std::vector<double> query_us;
  double candidates = 0.0;
  double recall_sum = 0.0;
  size_t recall_count = 0;
  for (data::PropertyId query : in.queries) {
    const uint64_t start = NowNs();
    auto blocked = (*pipeline)->Query(in.dataset->property(query).name);
    query_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    CheckOk(blocked.status(), "CandidatePipeline::Query");
    candidates += static_cast<double>(blocked->size());
    const std::vector<uint32_t>& truth = truth_of[query];
    if (truth.empty()) continue;
    const std::unordered_set<data::PropertyId> found(blocked->begin(),
                                                     blocked->end());
    size_t hit = 0;
    for (uint32_t other : truth) hit += found.count(other);
    recall_sum += static_cast<double>(hit) / static_cast<double>(truth.size());
    ++recall_count;
  }
  result->Set("blocking.query_us", Median(query_us), "us");
  result->Set("blocking.candidates_per_query",
              candidates / static_cast<double>(
                               std::max<size_t>(1, in.queries.size())),
              "count");
  result->Set("blocking.recall",
              recall_count == 0
                  ? 0.0
                  : recall_sum / static_cast<double>(recall_count),
              "ratio");
}

void MeasureServe(const LayerInputs& in, Result* result) {
  std::vector<double> parse_us;
  for (const std::string& line : in.lines) {
    const uint64_t start = NowNs();
    auto request = serve::ParseRequest(line);
    parse_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    CheckOk(request.status(), "ParseRequest");
  }
  std::vector<double> handle_us;
  for (const std::string& line : in.lines) {
    const uint64_t start = NowNs();
    const std::string response = in.stack->service->HandleLine(line);
    handle_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    g_sink = static_cast<double>(response.size());
  }
  std::vector<double> round_trip_us;
  tools::LineClient client("127.0.0.1", in.stack->port());
  for (const std::string& line : in.lines) {
    std::string response;
    const uint64_t start = NowNs();
    if (!client.RoundTrip(line, &response)) {
      CheckOk(Status::Unavailable("loopback round trip failed"), "serve probe");
    }
    round_trip_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  const double handle = Median(handle_us);
  result->Set("serve.parse_us", Median(parse_us), "us");
  result->Set("serve.handle_line_us", handle, "us");
  result->Set("serve.transport_us", Median(round_trip_us) - handle, "us");
}

}  // namespace

void MeasureLayers(const LayerInputs& inputs, Result* result) {
  MeasureText(inputs, result);
  MeasureFeaturesCoreNn(inputs, result);
  MeasureEmbedding(inputs, result);
  MeasureBlocking(inputs, result);
  MeasureServe(inputs, result);
}

void RecordServeCounters(const serve::ServiceStats& before,
                         const serve::ServiceStats& after,
                         double queue_age_us, uint64_t requests,
                         Result* result) {
  const double batches =
      static_cast<double>(after.batches - before.batches);
  result->Set("serve.batch_pairs_mean",
              batches > 0.0
                  ? static_cast<double>(after.pairs_scored -
                                        before.pairs_scored) /
                        batches
                  : 0.0,
              "pairs");
  result->Set("serve.queue_age_us", queue_age_us, "us");
  result->Set("serve.property_cache_hit_frac",
              HitFrac(before.property_cache_hits, before.property_cache_misses,
                      after.property_cache_hits, after.property_cache_misses),
              "ratio");
  result->Set("serve.epoll_wakeups_per_request",
              requests == 0 ? 0.0
                            : static_cast<double>(after.epoll_wakeups -
                                                  before.epoll_wakeups) /
                                  static_cast<double>(requests),
              "count");
  result->Set("serve.shed",
              static_cast<double>(after.rejected_overload -
                                  before.rejected_overload),
              "count");
  result->Set("serve.deadline_exceeded",
              static_cast<double>(after.deadline_exceeded -
                                  before.deadline_exceeded),
              "count");
}

void RecordGeneratorHealth(const PhaseResult& phase, double rate,
                           Result* result) {
  result->Set("workload.late_frac", phase.LateFrac(rate), "ratio");
  result->Set("workload.achieved_rps",
              phase.elapsed_s > 0.0
                  ? static_cast<double>(phase.events.size()) / phase.elapsed_s
                  : 0.0,
              "req/s");
  result->Set("workload.send_lag_p99_ms",
              Quantile(phase.SendLagMs(), 0.99), "ms");
}

double HitFrac(uint64_t hits_before, uint64_t misses_before,
               uint64_t hits_after, uint64_t misses_after) {
  const double hits = static_cast<double>(hits_after - hits_before);
  const double misses = static_cast<double>(misses_after - misses_before);
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

}  // namespace leapme::benchmark
