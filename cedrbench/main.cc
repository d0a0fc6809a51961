// CEDR benchmark binary.
//
//   cedrbench --workload NAME --seed N --seconds S --trace 0|1
//             [--check] [--trace-out PATH]
//
// --check runs the workload's correctness gate and prints the output
// digest; without it the workload is measured for S seconds. Either way
// the last line of standard output is one JSON object. run.py builds
// this binary, runs both phases in separate processes (so the measured
// process's peak memory excludes the gate) and prints the benchmark
// result, with 0 for the per-layer metrics a workload does not report.
#include <malloc.h>

#include <cstring>
#include <iostream>
#include <sstream>
#include <thread>

#include "workloads.h"

namespace cedrbench {
namespace {

void Usage(std::ostream& os) {
  os << "usage: cedrbench --workload "
        "pattern_mix|relational_columnar|supervised_overload\n"
        "                 --seed N --seconds S --trace 0|1 [--check]\n"
        "                 [--trace-out PATH]\n";
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 19) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

std::string JsonMap(const std::map<std::string, double>& m) {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    out << (first ? "" : ", ") << "\"" << k << "\": " << v;
    first = false;
  }
  out << "}";
  return out.str();
}

int Main(int argc, char** argv) {
  // Freed memory stays with the process and is reused. Otherwise every
  // pass maps fresh pages, and the page faults, whose cost on a virtual
  // machine follows the host's load, take up to a third of a pass.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Options options;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    uint64_t v = 0;
    if (flag == "--check") {
      options.check = true;
    } else if (flag == "--workload" && has_value) {
      options.workload = argv[++i];
      have_workload = true;
    } else if (flag == "--seed" && has_value && ParseUint(argv[i + 1], &v)) {
      options.seed = v;
      have_seed = true;
      ++i;
    } else if (flag == "--seconds" && has_value &&
               ParseUint(argv[i + 1], &v) && v >= 1 && v <= 600) {
      options.seconds = static_cast<double>(v);
      ++i;
    } else if (flag == "--trace" && has_value &&
               (std::strcmp(argv[i + 1], "0") == 0 ||
                std::strcmp(argv[i + 1], "1") == 0)) {
      options.trace = argv[++i][0] == '1';
    } else if (flag == "--trace-out" && has_value) {
      options.trace_path = argv[++i];
    } else {
      std::cerr << "cedrbench: bad argument: " << flag << "\n";
      Usage(std::cerr);
      return 2;
    }
  }
  if (!have_workload || !have_seed) {
    Usage(std::cerr);
    return 2;
  }

  RunReport report;
  if (options.workload == "pattern_mix") {
    report = RunPatternMix(options);
  } else if (options.workload == "relational_columnar") {
    report = RunRelationalColumnar(options);
  } else if (options.workload == "supervised_overload") {
    report = RunSupervisedOverload(options);
  } else {
    std::cerr << "cedrbench: unknown workload: " << options.workload << "\n";
    Usage(std::cerr);
    return 2;
  }

  report.inputs["nproc"] = std::thread::hardware_concurrency();
  report.inputs["seed"] = static_cast<double>(options.seed);
  std::cout << "{\"digest\": \"" << report.digest
            << "\", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed
            << ", \"inputs\": " << JsonMap(report.inputs)
            << ", \"metrics\": " << report.metrics.ToJson() << "}"
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace cedrbench

int main(int argc, char** argv) { return cedrbench::Main(argc, argv); }
