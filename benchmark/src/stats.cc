#include "stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

namespace leapme::benchmark {
namespace {

// ceil(q * n) with a guard against q * n landing a rounding error above
// an integer (0.98 * 500 = 490.00000000000006).
size_t NearestRank(size_t n, double q) {
  const double exact = q * static_cast<double>(n);
  return static_cast<size_t>(std::ceil(exact - 1e-9 * exact));
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  size_t rank = NearestRank(n, q);
  rank = std::clamp<size_t>(rank, 1, n);
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

namespace {

/// `values` cut into consecutive windows of at least `window` samples
/// (one window when there are fewer than 2 * `window`).
std::vector<std::vector<double>> Windows(const std::vector<double>& values,
                                         size_t window) {
  const size_t windows = std::max<size_t>(1, values.size() / window);
  std::vector<std::vector<double>> out;
  for (size_t w = 0; w < windows; ++w) {
    out.emplace_back(values.begin() + values.size() * w / windows,
                     values.begin() + values.size() * (w + 1) / windows);
  }
  return out;
}

}  // namespace

double WindowedMedian(const std::vector<double>& values, size_t window) {
  std::vector<double> medians;
  for (std::vector<double>& slice : Windows(values, window)) {
    medians.push_back(Median(std::move(slice)));
  }
  return Median(medians);
}

double WindowedTail(const std::vector<double>& values, size_t window) {
  return Median(WindowTails(values, window));
}

std::vector<double> WindowTails(const std::vector<double>& values,
                                size_t window) {
  std::vector<double> tails;
  for (std::vector<double>& slice : Windows(values, window)) {
    const double level = TailQuantileLevel(slice.size());
    tails.push_back(Quantile(std::move(slice), level));
  }
  return tails;
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  size_t rank = NearestRank(n, q);
  rank = std::clamp<size_t>(rank, 1, n);
  return n - rank;
}

double TailQuantileLevel(size_t n, size_t min_beyond) {
  if (n <= min_beyond) return 0.0;
  if (SamplesBeyond(n, 0.99) >= min_beyond) return 0.99;
  return static_cast<double>(n - min_beyond) / static_cast<double>(n);
}

bool StepPasses(const LadderStep& step, double limit_ms) {
  return step.failures == 0 && step.tail_ms <= limit_ms &&
         step.drain_ms <= limit_ms;
}

double PickSustainedRate(const std::vector<LadderStep>& steps,
                         double limit_ms) {
  double sustained = 0.0;
  for (const LadderStep& step : steps) {
    if (StepPasses(step, limit_ms)) sustained = std::max(sustained, step.rate);
  }
  return sustained;
}

uint64_t Failed(const OutcomeCounts& counts) {
  return counts.errors + counts.shed + counts.deadline + counts.mismatches;
}

void AddCounts(const OutcomeCounts& add, OutcomeCounts* total) {
  total->attempted += add.attempted;
  total->ok += add.ok;
  total->errors += add.errors;
  total->shed += add.shed;
  total->deadline += add.deadline;
  total->mismatches += add.mismatches;
}

double FailedFrac(const OutcomeCounts& counts) {
  if (counts.attempted == 0) return 0.0;
  return static_cast<double>(Failed(counts)) /
         static_cast<double>(counts.attempted);
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    const uint64_t begin = std::max(span.start_ns, parent.start_ns);
    const uint64_t end = std::min(span.end_ns, parent.end_ns);
    if (begin < end) {
      children[static_cast<size_t>(span.parent)].emplace_back(begin, end);
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    uint64_t covered = 0;
    uint64_t run_begin = 0;
    uint64_t run_end = 0;
    bool open = false;
    for (const auto& [begin, end] : intervals) {
      if (open && begin <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_begin;
      run_begin = begin;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_begin;
    const uint64_t duration =
        spans[i].end_ns > spans[i].start_ns
            ? spans[i].end_ns - spans[i].start_ns
            : 0;
    self[i] = duration - std::min(duration, covered);
  }
  return self;
}

double RecallAtK(const std::vector<std::vector<uint32_t>>& returned,
                 const std::vector<std::vector<uint32_t>>& truth,
                 const std::vector<uint32_t>& queries, size_t k) {
  double sum = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    std::unordered_set<uint32_t> relevant;
    for (uint32_t id : truth[i]) {
      if (id != queries[i]) relevant.insert(id);
    }
    if (relevant.empty()) continue;
    size_t hits = 0;
    for (size_t j = 0; j < returned[i].size() && j < k; ++j) {
      hits += relevant.count(returned[i][j]);
    }
    sum += static_cast<double>(hits) /
           static_cast<double>(std::min(k, relevant.size()));
    ++counted;
  }
  return counted == 0 ? -1.0 : sum / static_cast<double>(counted);
}

double F1Score(const std::vector<int>& predicted,
               const std::vector<int>& labels) {
  uint64_t tp = 0;
  uint64_t fp = 0;
  uint64_t fn = 0;
  for (size_t i = 0; i < predicted.size() && i < labels.size(); ++i) {
    if (predicted[i] != 0 && labels[i] != 0) ++tp;
    if (predicted[i] != 0 && labels[i] == 0) ++fp;
    if (predicted[i] == 0 && labels[i] != 0) ++fn;
  }
  if (tp == 0) return 0.0;
  const double precision = static_cast<double>(tp) / static_cast<double>(tp + fp);
  const double recall = static_cast<double>(tp) / static_cast<double>(tp + fn);
  return 2.0 * precision * recall / (precision + recall);
}

}  // namespace leapme::benchmark
