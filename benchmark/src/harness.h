#ifndef LEAPME_BENCHMARK_HARNESS_H_
#define LEAPME_BENCHMARK_HARNESS_H_

// Shared machinery of the three workloads: the result record, the
// open-loop generator over loopback TCP, the in-process serve stack and
// the request-line renderers.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/leapme.h"
#include "data/splitting.h"
#include "embedding/caching_model.h"
#include "serve/matcher_service.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/tcp_server.h"
#include "stats.h"
#include "trace.h"
#include "tools/line_client.h"
#include "workload/open_loop.h"

namespace leapme::benchmark {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_dir;  ///< where span files go ("" = not written)
};

/// Everything one run measured. `metrics` holds the numbers of the result
/// line; `provenance` is written beside them.
struct Result {
  bool correct = true;
  OutcomeCounts counts;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::string> provenance;  ///< key -> JSON value

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Note(const std::string& key, const std::string& json_value) {
    provenance[key] = json_value;
  }
  void NoteNumber(const std::string& key, double value);
  void NoteString(const std::string& key, const std::string& value);

  std::string ToJson() const;
};

/// One open-loop event as the client saw it (steady-clock ns).
struct EventRecord {
  uint64_t intended_ns = 0;
  uint64_t send_ns = 0;
  uint64_t done_ns = 0;
  workload::Outcome outcome = workload::Outcome::kError;
};

/// What the fire callback gets for one event: the global event index
/// (first_event + slot), the phase-local slot (keys per-event output
/// storage) and the thread's connection.
using FireFn = std::function<workload::Outcome(size_t event, size_t slot,
                                               tools::LineClient& client)>;

struct PhaseOptions {
  double rate = 0.0;
  double duration_s = 0.0;
  uint64_t schedule_seed = 1;
  size_t first_event = 0;  ///< offset of this phase's events in the draw
  unsigned connections = 2;
};

struct PhaseResult {
  std::vector<EventRecord> events;
  double elapsed_s = 0.0;
  /// Last response time minus last intended send, ms.
  double drain_ms = 0.0;
  OutcomeCounts counts;

  std::vector<double> IntendedMs() const;
  std::vector<double> SendLagMs() const;
  double LateFrac(double rate) const;
};

/// Fires a seeded Poisson schedule over `connections` client threads,
/// each on its own keep-alive connection opened before the clock starts;
/// the next due event goes to the next free connection. `tracers` (size =
/// connections, may be null) receive per-thread spans.
PhaseResult RunPhase(int port, const PhaseOptions& options,
                     const FireFn& fire, std::vector<Tracer>* tracers);

/// Classifies a response line and returns the parsed JSON when ok.
workload::Outcome ClassifyResponse(const std::string& response,
                                   serve::JsonValue* parsed);

/// The program's serve stack at its library defaults: MatcherService
/// (1 batcher, 200 us window, max batch 256, 4096-entry property cache)
/// behind the epoll TcpServer (1 loop, 4 workers) on an ephemeral
/// loopback port.
struct ServeStack {
  std::unique_ptr<serve::MatcherService> service;
  std::unique_ptr<serve::TcpServer> server;

  /// Creates and starts the stack; exits the process on failure.
  static ServeStack Start(const core::LeapmeMatcher& matcher,
                          const embedding::CachingEmbeddingModel& cache,
                          const data::Dataset* catalog,
                          blocking::CandidatePipeline* pipeline);
  void Stop();
  int port() const { return server->port(); }
};

std::string PropertyJson(const std::string& name,
                         const std::vector<std::string>& values);
std::string IndexMatchLine(const data::Dataset& dataset, data::PropertyId id,
                           size_t event, size_t k);
std::string ScoreLine(const data::Dataset& dataset,
                      const std::vector<data::PropertyPair>& pairs,
                      size_t event);
std::vector<std::string> ValuesOf(const data::Dataset& dataset,
                                  data::PropertyId id);

/// Cross-source matches of every property of `dataset` (ground truth).
std::vector<std::vector<uint32_t>> TruthPerProperty(
    const data::Dataset& dataset);

/// F1 at `threshold` over the pairs with a property outside
/// `train_sources` (the held-out side of a source split).
double HeldOutF1(const data::Dataset& dataset,
                 const std::vector<data::SourceId>& train_sources,
                 const std::vector<data::PropertyPair>& pairs,
                 const std::vector<double>& scores, double threshold);

/// Wall time of the feature work inside LeapmeMatcher::Fit, replayed
/// through public functions: every property's features (fanned out over
/// the pool as Fit does) and the training design matrix.
double FitFeatureSeconds(const core::LeapmeMatcher& matcher,
                         const data::Dataset& dataset,
                         const std::vector<data::LabeledPair>& training);

/// Samples the service's queue_age_us gauge every 20 ms on its own
/// thread until Stop(); Stop returns the mean sample.
class QueueAgeSampler {
 public:
  explicit QueueAgeSampler(const serve::MatcherService* service);
  ~QueueAgeSampler();
  QueueAgeSampler(const QueueAgeSampler&) = delete;
  QueueAgeSampler& operator=(const QueueAgeSampler&) = delete;
  double Stop();

 private:
  const serve::MatcherService* service_;
  std::atomic<bool> stop_{false};
  double sum_ = 0.0;
  uint64_t samples_ = 0;
  std::thread thread_;
};

/// Renders numbers as a JSON array.
std::string JsonArray(const std::vector<double>& values);

/// Peak resident set size of this process, MB (ru_maxrss).
double PeakRssMb();

double SecondsSince(uint64_t start_ns);

/// Exits with a message when `status` is not OK.
void CheckOk(const Status& status, const char* context);

}  // namespace leapme::benchmark

#endif  // LEAPME_BENCHMARK_HARNESS_H_
