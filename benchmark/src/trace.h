#ifndef LEAPME_BENCHMARK_TRACE_H_
#define LEAPME_BENCHMARK_TRACE_H_

// In-memory span recording around the benchmark's own calls into the
// program's public functions. One Tracer per thread; spans are merged
// and written out when the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace leapme::benchmark {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  /// Opens a span under the innermost open span and returns its index.
  size_t Begin(const std::string& name, uint64_t request);
  void End(size_t span);

  /// Appends an already-measured span (used where the interval comes
  /// from a timestamp taken elsewhere, e.g. an intended send time).
  size_t Add(const std::string& name, uint64_t start_ns, uint64_t end_ns,
             int64_t parent, uint64_t request);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Moves every span of `other` into this tracer (parents re-based).
  void Absorb(const Tracer& other);

  /// Total self time and span count per span name.
  struct NameTotals {
    uint64_t self_ns = 0;
    uint64_t total_ns = 0;
    uint64_t count = 0;
  };
  std::map<std::string, NameTotals> TotalsByName() const;

  /// Summed self time of every span other than the "request" roots,
  /// over the summed duration of those roots: how much of a request the
  /// layer spans account for.
  double LayerSelfFrac() const;

  /// Writes one tab-separated line per span (name, start, end, parent,
  /// request, self_ns). Returns false when the file cannot be written.
  bool WriteTsv(const std::string& path) const;

 private:
  uint32_t NameId(const std::string& name);

  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> name_ids_;
  std::vector<size_t> open_;
};

/// Scoped span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t request)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->Begin(name, request) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  size_t span_;
};

}  // namespace leapme::benchmark

#endif  // LEAPME_BENCHMARK_TRACE_H_
