// The benchmark's three workloads. Each builds its input from the seed
// before anything is timed, then either runs the correctness gate
// (`check`) or measures for `seconds` and reports metrics.
#ifndef CEDRBENCH_WORKLOADS_H_
#define CEDRBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace cedrbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Run the correctness gate instead of measuring.
  bool check = false;
  /// Where the traced run writes its spans.
  std::string trace_path;
};

/// Worker count of the parallel paths: min(hardware threads, queries).
int ParallelWorkers(size_t queries);

RunReport RunPatternMix(const Options& options);
RunReport RunRelationalColumnar(const Options& options);
RunReport RunSupervisedOverload(const Options& options);

}  // namespace cedrbench

#endif  // CEDRBENCH_WORKLOADS_H_
