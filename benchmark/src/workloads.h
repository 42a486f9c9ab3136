#ifndef LEAPME_BENCHMARK_WORKLOADS_H_
#define LEAPME_BENCHMARK_WORKLOADS_H_

#include "harness.h"

namespace leapme::benchmark {

/// Open-loop index_match (k=5) over loopback TCP against the 40k-property
/// multi-category catalog.
Result RunIndexMatch40k(const Args& args);

/// In-process Fit on half the camera sources, all-pairs
/// ScoreCandidatesOn, and per-property top-k matching.
Result RunOfflineFitMatch(const Args& args);

}  // namespace leapme::benchmark

#endif  // LEAPME_BENCHMARK_WORKLOADS_H_
