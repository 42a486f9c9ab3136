// The repository benchmark: one process runs one workload and prints one
// JSON result line (see benchmark/README.md).
//
//   leapme_benchmark --workload index_match_40k --seed 1 --seconds 20
//                    --trace 0 [--trace-dir DIR]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/kernels/kernels.h"
#include "common/parallel.h"
#include "workloads.h"

namespace {

using leapme::benchmark::Args;
using leapme::benchmark::Result;

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "leapme_benchmark: %s\nusage: leapme_benchmark --workload "
               "index_match_40k|offline_fit_match --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n",
               message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) Usage("every flag takes a value");
    const std::string flag = argv[i];
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed must be a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || args.seconds < 1.0 || args.seconds > 600.0) {
        Usage("--seconds must be a number in [1, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Result result;
  if (args.workload == "index_match_40k") {
    result = leapme::benchmark::RunIndexMatch40k(args);
  } else if (args.workload == "offline_fit_match") {
    result = leapme::benchmark::RunOfflineFitMatch(args);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  if (!args.trace) {
    result.Set("peak_rss_mb", leapme::benchmark::PeakRssMb(), "MB");
  }
  result.correct = result.counts.mismatches == 0;
  result.NoteString("workload", args.workload);
  result.NoteNumber("seed", static_cast<double>(args.seed));
  result.NoteNumber("trace", args.trace ? 1 : 0);
  result.NoteNumber("nproc", std::thread::hardware_concurrency());
  result.NoteNumber("pool_threads",
                    static_cast<double>(leapme::GlobalThreadCount()));
  result.NoteString("kernel", leapme::kernels::ActiveKernelName());
  result.NoteNumber("oracle_mismatches",
                    static_cast<double>(result.counts.mismatches));
  std::printf("%s\n", result.ToJson().c_str());
  std::fflush(stdout);
  if (!result.correct) {
    std::fprintf(stderr, "leapme_benchmark: %llu oracle mismatches\n",
                 static_cast<unsigned long long>(result.counts.mismatches));
    return 1;
  }
  return 0;
}
