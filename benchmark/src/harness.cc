#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <unordered_map>

#include "common/parallel.h"
#include "workload/arrival.h"

namespace leapme::benchmark {

void Result::NoteNumber(const std::string& key, double value) {
  provenance[key] = serve::FormatJsonDouble(value);
}

void Result::NoteString(const std::string& key, const std::string& value) {
  std::string json;
  serve::AppendJsonString(&json, value);
  provenance[key] = json;
}

std::string Result::ToJson() const {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(counts.attempted);
  out += ",\"failed\":" + std::to_string(Failed(counts));
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, entry] : metrics) {
    if (!first) out += ',';
    first = false;
    serve::AppendJsonString(&out, name);
    out += ":{\"value\":" + serve::FormatJsonDouble(entry.first) +
           ",\"unit\":";
    serve::AppendJsonString(&out, entry.second);
    out += '}';
  }
  out += "},\"provenance\":{";
  first = true;
  for (const auto& [key, value] : provenance) {
    if (!first) out += ',';
    first = false;
    serve::AppendJsonString(&out, key);
    out += ':' + value;
  }
  out += "}}";
  return out;
}

std::vector<double> PhaseResult::IntendedMs() const {
  std::vector<double> out;
  out.reserve(events.size());
  for (const EventRecord& event : events) {
    out.push_back(static_cast<double>(event.done_ns - event.intended_ns) /
                  1e6);
  }
  return out;
}

std::vector<double> PhaseResult::SendLagMs() const {
  std::vector<double> out;
  out.reserve(events.size());
  for (const EventRecord& event : events) {
    const uint64_t lag = event.send_ns > event.intended_ns
                             ? event.send_ns - event.intended_ns
                             : 0;
    out.push_back(static_cast<double>(lag) / 1e6);
  }
  return out;
}

double PhaseResult::LateFrac(double rate) const {
  if (events.empty() || rate <= 0.0) return 0.0;
  // Late = sent more than one mean inter-arrival gap after its time.
  const double gap_ms = 1000.0 / rate;
  size_t late = 0;
  for (double lag : SendLagMs()) late += lag > gap_ms ? 1 : 0;
  return static_cast<double>(late) / static_cast<double>(events.size());
}

PhaseResult RunPhase(int port, const PhaseOptions& options,
                     const FireFn& fire, std::vector<Tracer>* tracers) {
  auto schedule = workload::ArrivalSchedule::Build(
      {.target_rps = options.rate,
       .duration_s = options.duration_s,
       .poisson = true,
       .seed = options.schedule_seed});
  CheckOk(schedule.status(), "ArrivalSchedule::Build");
  const size_t n = schedule->size();
  const unsigned threads = std::max(1u, options.connections);

  PhaseResult result;
  result.events.resize(n);
  std::vector<std::unique_ptr<tools::LineClient>> clients(threads);
  for (auto& client : clients) {
    client = std::make_unique<tools::LineClient>("127.0.0.1", port);
    if (!client->connected()) {
      std::fprintf(stderr, "benchmark: cannot connect to port %d\n", port);
      std::exit(1);
    }
  }
  // Start slightly in the future so every thread is parked before the
  // first intended send.
  const uint64_t start_ns = NowNs() + 2'000'000;
  // Events go out in schedule order on whichever connection is free, as
  // from a client's connection pool: a slow response delays later events
  // only when every connection is busy.
  std::atomic<size_t> next_event{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Tracer* tracer = tracers != nullptr ? &(*tracers)[t] : nullptr;
      for (size_t i = next_event.fetch_add(1); i < n;
           i = next_event.fetch_add(1)) {
        EventRecord& record = result.events[i];
        record.intended_ns = start_ns + schedule->intended_nanos(i);
        const uint64_t now = NowNs();
        if (now < record.intended_ns) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(record.intended_ns - now));
        }
        record.send_ns = NowNs();
        if (!clients[t]->connected()) {
          clients[t] = std::make_unique<tools::LineClient>("127.0.0.1", port);
        }
        record.outcome = fire(options.first_event + i, i, *clients[t]);
        record.done_ns = NowNs();
        if (record.outcome == workload::Outcome::kError) {
          // A dropped connection: reconnect before the next event.
          clients[t] = std::make_unique<tools::LineClient>("127.0.0.1", port);
        }
        if (tracer != nullptr) {
          const size_t root = tracer->Add("client.request", record.intended_ns,
                                          record.done_ns, -1, i);
          tracer->Add("client.send_wait", record.intended_ns, record.send_ns,
                      static_cast<int64_t>(root), i);
          tracer->Add("client.round_trip", record.send_ns, record.done_ns,
                      static_cast<int64_t>(root), i);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  uint64_t last_done = start_ns;
  uint64_t last_intended = start_ns;
  for (const EventRecord& event : result.events) {
    last_done = std::max(last_done, event.done_ns);
    last_intended = std::max(last_intended, event.intended_ns);
    ++result.counts.attempted;
    switch (event.outcome) {
      case workload::Outcome::kOk:
      case workload::Outcome::kDegraded:
        ++result.counts.ok;
        break;
      case workload::Outcome::kShed:
        ++result.counts.shed;
        break;
      case workload::Outcome::kDeadline:
        ++result.counts.deadline;
        break;
      case workload::Outcome::kError:
        ++result.counts.errors;
        break;
    }
  }
  result.elapsed_s = static_cast<double>(last_done - start_ns) / 1e9;
  result.drain_ms = static_cast<double>(last_done - last_intended) / 1e6;
  return result;
}

workload::Outcome ClassifyResponse(const std::string& response,
                                   serve::JsonValue* parsed) {
  auto json = serve::JsonValue::Parse(response);
  if (!json.ok()) return workload::Outcome::kError;
  const serve::JsonValue* ok = json->Find("ok");
  if (ok == nullptr || !ok->is_bool()) return workload::Outcome::kError;
  if (ok->AsBool()) {
    const serve::JsonValue* degraded = json->Find("degraded");
    const workload::Outcome outcome =
        degraded != nullptr && degraded->is_bool() && degraded->AsBool()
            ? workload::Outcome::kDegraded
            : workload::Outcome::kOk;
    *parsed = std::move(json).value();
    return outcome;
  }
  const serve::JsonValue* error = json->Find("error");
  const serve::JsonValue* code =
      error != nullptr && error->is_object() ? error->Find("code") : nullptr;
  if (code != nullptr && code->is_string()) {
    const std::string& name = code->AsString();
    if (name == "Unavailable" || name == "ResourceExhausted") {
      return workload::Outcome::kShed;
    }
    if (name == "DeadlineExceeded") return workload::Outcome::kDeadline;
  }
  return workload::Outcome::kError;
}

ServeStack ServeStack::Start(const core::LeapmeMatcher& matcher,
                             const embedding::CachingEmbeddingModel& cache,
                             const data::Dataset* catalog,
                             blocking::CandidatePipeline* pipeline) {
  ServeStack stack;
  auto service = serve::MatcherService::Create(&matcher, &cache);
  CheckOk(service.status(), "MatcherService::Create");
  stack.service = std::move(service).value();
  if (catalog != nullptr) {
    CheckOk(stack.service->AttachCatalog(catalog, pipeline), "AttachCatalog");
  }
  stack.server = std::make_unique<serve::TcpServer>(stack.service.get());
  CheckOk(stack.server->Start(), "TcpServer::Start");
  if (!tools::WaitForServerReady("127.0.0.1", stack.server->port())) {
    std::fprintf(stderr, "benchmark: server never reported ready\n");
    std::exit(1);
  }
  return stack;
}

void ServeStack::Stop() {
  if (server != nullptr) server->Stop();
  server.reset();
  service.reset();
}

std::string PropertyJson(const std::string& name,
                         const std::vector<std::string>& values) {
  std::string out = "{\"name\":";
  serve::AppendJsonString(&out, name);
  out += ",\"values\":[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    serve::AppendJsonString(&out, values[i]);
  }
  out += "]}";
  return out;
}

std::vector<std::string> ValuesOf(const data::Dataset& dataset,
                                  data::PropertyId id) {
  std::vector<std::string> values;
  for (const data::InstanceValue& instance : dataset.instances(id)) {
    values.push_back(instance.value);
  }
  return values;
}

std::string IndexMatchLine(const data::Dataset& dataset, data::PropertyId id,
                           size_t event, size_t k) {
  return "{\"op\":\"index_match\",\"id\":" + std::to_string(event) +
         ",\"property\":" +
         PropertyJson(dataset.property(id).name, ValuesOf(dataset, id)) +
         ",\"k\":" + std::to_string(k) + "}";
}

std::string ScoreLine(const data::Dataset& dataset,
                      const std::vector<data::PropertyPair>& pairs,
                      size_t event) {
  std::string line =
      "{\"op\":\"score\",\"id\":" + std::to_string(event) + ",\"pairs\":[";
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) line += ',';
    line += "{\"a\":" +
            PropertyJson(dataset.property(pairs[i].a).name,
                         ValuesOf(dataset, pairs[i].a)) +
            ",\"b\":" +
            PropertyJson(dataset.property(pairs[i].b).name,
                         ValuesOf(dataset, pairs[i].b)) +
            "}";
  }
  return line + "]}";
}

std::vector<std::vector<uint32_t>> TruthPerProperty(
    const data::Dataset& dataset) {
  std::unordered_map<std::string, std::vector<uint32_t>> by_reference;
  for (data::PropertyId id = 0; id < dataset.property_count(); ++id) {
    const std::string& reference = dataset.property(id).reference;
    if (!reference.empty()) by_reference[reference].push_back(id);
  }
  std::vector<std::vector<uint32_t>> truth(dataset.property_count());
  for (data::PropertyId id = 0; id < dataset.property_count(); ++id) {
    const data::PropertyRecord& record = dataset.property(id);
    if (record.reference.empty()) continue;
    for (uint32_t other : by_reference[record.reference]) {
      if (dataset.property(other).source != record.source) {
        truth[id].push_back(other);
      }
    }
  }
  return truth;
}

double HeldOutF1(const data::Dataset& dataset,
                 const std::vector<data::SourceId>& train_sources,
                 const std::vector<data::PropertyPair>& pairs,
                 const std::vector<double>& scores, double threshold) {
  std::vector<bool> train(dataset.source_count(), false);
  for (data::SourceId source : train_sources) train[source] = true;
  std::vector<int> predicted;
  std::vector<int> labels;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (train[dataset.property(pairs[i].a).source] &&
        train[dataset.property(pairs[i].b).source]) {
      continue;
    }
    predicted.push_back(scores[i] >= threshold ? 1 : 0);
    labels.push_back(dataset.IsMatch(pairs[i].a, pairs[i].b) ? 1 : 0);
  }
  return F1Score(predicted, labels);
}

double FitFeatureSeconds(const core::LeapmeMatcher& matcher,
                         const data::Dataset& dataset,
                         const std::vector<data::LabeledPair>& training) {
  const uint64_t start = NowNs();
  std::vector<features::PropertyFeatures> features(dataset.property_count());
  ParallelFor(0, dataset.property_count(), /*grain=*/1,
              [&](size_t begin, size_t end) {
                for (size_t id = begin; id < end; ++id) {
                  const auto pid = static_cast<data::PropertyId>(id);
                  features[id] = matcher.ComputePropertyFeatures(
                      dataset.property(pid).name, ValuesOf(dataset, pid));
                }
              });
  std::vector<const features::PropertyFeatures*> lhs;
  std::vector<const features::PropertyFeatures*> rhs;
  for (const data::LabeledPair& pair : training) {
    lhs.push_back(&features[pair.pair.a]);
    rhs.push_back(&features[pair.pair.b]);
  }
  const nn::Matrix design = matcher.pipeline().BuildDesignMatrix(lhs, rhs, {});
  return design.rows() == training.size() ? SecondsSince(start) : 0.0;
}

QueueAgeSampler::QueueAgeSampler(const serve::MatcherService* service)
    : service_(service), thread_([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
          sum_ += static_cast<double>(service_->Snapshot().queue_age_us);
          ++samples_;
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }) {}

QueueAgeSampler::~QueueAgeSampler() { Stop(); }

double QueueAgeSampler::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  return samples_ == 0 ? 0.0 : sum_ / static_cast<double>(samples_);
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += serve::FormatJsonDouble(values[i]);
  }
  return out + "]";
}

double PeakRssMb() {
  rusage usage = {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

void CheckOk(const Status& status, const char* context) {
  if (!status.ok()) {
    std::fprintf(stderr, "benchmark: %s: %s\n", context,
                 status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace leapme::benchmark
