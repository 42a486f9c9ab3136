#ifndef LEAPME_BENCHMARK_STATS_H_
#define LEAPME_BENCHMARK_STATS_H_

// The benchmark's own arithmetic: percentiles, the sustained-rate ladder
// pick, failure accounting, span self time and match quality. Kept free
// of program headers so tests/stats_test.cc checks it on hand-built
// cases.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace leapme::benchmark {

/// Exact order-statistic quantile of `values` (sorted copy, nearest rank:
/// the ceil(q * n)-th smallest). 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Middle value (mean of the two middle values for an even count).
double Median(std::vector<double> values);

/// The tail quantile reported as "p99": 0.99 when the sample leaves at
/// least `min_beyond` samples above it, otherwise the highest quantile
/// that still does, floor((n - min_beyond)) / n. 0 when n <= min_beyond.
double TailQuantileLevel(size_t n, size_t min_beyond = 10);

/// Median robust to a slow period of the host: the median of the
/// medians of consecutive windows of at least `window` samples (in time
/// order).
double WindowedMedian(const std::vector<double>& values, size_t window = 200);

/// Tail latency robust to a short stall of the host: `values` (in time
/// order) are cut into consecutive windows of at least `window` samples,
/// each window's tail is taken at TailQuantileLevel of its size, and the
/// median over windows is returned. One window when there are fewer than
/// 2 * `window` samples.
double WindowedTail(const std::vector<double>& values, size_t window = 1000);

/// The per-window tails WindowedTail takes the median of.
std::vector<double> WindowTails(const std::vector<double>& values,
                                size_t window = 1000);

/// Number of samples strictly beyond the nearest-rank `q` quantile.
size_t SamplesBeyond(size_t n, double q);

/// One step of the sustained-rate ladder.
struct LadderStep {
  double rate = 0.0;        ///< offered rate, requests/s
  double tail_ms = 0.0;     ///< intended-clock tail latency of the step
  uint64_t failures = 0;    ///< errors + shed + deadline + mismatches
  /// Time the last response of the step arrived after the step's last
  /// intended send. A queue that grows through the step drains past its
  /// end, so this exceeding the latency limit marks a growing backlog.
  double drain_ms = 0.0;
};

/// True when the step meets the limit: no failures, tail within
/// `limit_ms`, and no growing backlog.
bool StepPasses(const LadderStep& step, double limit_ms);

/// The highest rate of the ladder whose step passes StepPasses; 0 when no
/// step does. Every step runs: a failing step below a passing one is a
/// stall of the host, not saturation, which shows as a growing backlog
/// at every rate above it.
double PickSustainedRate(const std::vector<LadderStep>& steps,
                         double limit_ms);

/// Request outcome tallies of one run.
struct OutcomeCounts {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;
  uint64_t deadline = 0;
  uint64_t mismatches = 0;  ///< oracle disagreements
};

uint64_t Failed(const OutcomeCounts& counts);

void AddCounts(const OutcomeCounts& add, OutcomeCounts* total);

/// (errors + shed + deadline + mismatches) / attempted; 0 when nothing
/// was attempted.
double FailedFrac(const OutcomeCounts& counts);

/// One recorded span: [start_ns, end_ns) on the steady clock, its parent
/// span index (-1 for a root) and the request it belongs to.
struct Span {
  uint32_t name = 0;  ///< index into the tracer's name table
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once,
/// children are clipped to the parent's interval).
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans);

/// Mean over queries of |returned ∩ truth| / min(k, |truth|), where
/// truth excludes the query itself; queries with no true match are
/// skipped. -1 when no query has a true match.
double RecallAtK(const std::vector<std::vector<uint32_t>>& returned,
                 const std::vector<std::vector<uint32_t>>& truth,
                 const std::vector<uint32_t>& queries, size_t k);

/// F1 of binary predictions against labels (1 = match). 0 when there are
/// no true positives.
double F1Score(const std::vector<int>& predicted,
               const std::vector<int>& labels);

}  // namespace leapme::benchmark

#endif  // LEAPME_BENCHMARK_STATS_H_
