#ifndef LEAPME_BENCHMARK_LAYERS_H_
#define LEAPME_BENCHMARK_LAYERS_H_

// Per-layer probes of a traced run: each layer's public functions timed
// from the benchmark on the workload's own inputs.

#include <string>
#include <vector>

#include "harness.h"

namespace leapme::benchmark {

struct LayerInputs {
  const core::LeapmeMatcher* matcher = nullptr;
  const embedding::CachingEmbeddingModel* cache = nullptr;
  /// The workload's property set (catalog, TV set or camera dataset).
  const data::Dataset* dataset = nullptr;
  /// Blocking spec rebuilt over `dataset` for the blocking probe.
  std::string blocking_spec;
  /// Properties the workload's traffic queried (sampled).
  std::vector<data::PropertyId> queries;
  /// One entry per scoring call the workload makes: the pairs scored
  /// together (a query's candidates, or one request's pairs).
  std::vector<std::vector<data::PropertyPair>> score_groups;
  /// Request lines of the workload, for the serve probes.
  std::vector<std::string> lines;
  ServeStack* stack = nullptr;
};

/// Times the text, features, embedding, core, nn, blocking and serve
/// layers on `inputs` and records their per-layer metrics in `result`.
void MeasureLayers(const LayerInputs& inputs, Result* result);

/// Records the serve.* metrics that come from service counters, from
/// Snapshot() taken before and after a served phase of `requests`.
void RecordServeCounters(const serve::ServiceStats& before,
                         const serve::ServiceStats& after,
                         double queue_age_us, uint64_t requests,
                         Result* result);

/// Records workload.* metrics of an open-loop phase.
void RecordGeneratorHealth(const PhaseResult& phase, double rate,
                           Result* result);

/// Share of `cache`'s lookups between two (hits, misses) readings that hit.
double HitFrac(uint64_t hits_before, uint64_t misses_before,
               uint64_t hits_after, uint64_t misses_after);

}  // namespace leapme::benchmark

#endif  // LEAPME_BENCHMARK_LAYERS_H_
