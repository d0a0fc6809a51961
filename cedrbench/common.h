// Shared pieces of the CEDR benchmark binary: clocks and order
// statistics, the in-memory span tracer, the metric sink, and output
// digests used by the correctness gate.
#ifndef CEDRBENCH_COMMON_H_
#define CEDRBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "consistency/spec.h"
#include "lang/binder.h"
#include "engine/query.h"
#include "engine/source.h"

namespace cedrbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time the calling thread has run, in seconds. Single-threaded work
/// is timed on this clock rather than the wall clock: on a shared host,
/// time the hypervisor gives this vCPU to another guest (steal time) or
/// the scheduler gives the core to another process stalls the wall
/// clock but not this one, so these timings follow the program's own
/// cost.
double ThreadCpuSeconds();

/// Runs a fixed piece of single-threaded work shaped like the engine's
/// (small allocations, ordered-map inserts and lookups, number
/// formatting) and returns its CPU seconds. On a shared host the CPU
/// time of such work drifts by tens of percent within a minute, with
/// what the other tenants run. The workloads run this reference a few
/// times in every measuring round and scale the round's timings by it
/// (see RoundScales): each timing then reads as on a machine where the
/// reference takes kReferenceSeconds, and a change to the engine still
/// moves it one for one.
double ReferenceSeconds();
inline constexpr double kReferenceSeconds = 0.02;

/// The factor each measuring round's timings are multiplied by, given
/// the reference times taken in every round: kReferenceSeconds over the
/// median reference time of the round and its two neighbours. The
/// machine's speed drifts over seconds; pooling the neighbours' samples
/// evens out the reference task's own jitter and still follows that
/// drift.
std::vector<double> RoundScales(
    const std::vector<std::vector<double>>& reference);

/// Nearest-rank percentile (p in [0, 1]); 0 on an empty sample.
double Percentile(std::vector<double> xs, double p);
double Median(std::vector<double> xs);

/// tick_growth: the mean tick time over the last fifth of each pass's
/// ticks divided by the mean over the first fifth, both pooled over the
/// run's passes, with the slowest 2% of each pool trimmed so a stray
/// scheduler stall does not dominate. 1.0 when per-tick cost does not
/// grow with history. Means, not medians: the supervised ticks that
/// advance the sync-point barrier carry most of the cost, and fewer than
/// half the ticks do.
class TickGrowth {
 public:
  void Add(const std::vector<double>& tick_s);
  double Ratio() const;

 private:
  std::vector<double> first_, last_;
};

/// Spans recorded around the benchmark's calls into each layer. Held in
/// memory and written out when the run ends. Only the main thread
/// records spans, so a span's children never overlap and its self time
/// is its duration minus the sum of its children's.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int run = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_run(int run) { run_ = run; }

  /// Opens a span under the innermost open span; returns its index, or
  /// -1 when tracing is off.
  int Begin(const std::string& name);
  void End(int id);

  /// Total self time (seconds) per span name.
  std::map<std::string, double> SelfSeconds() const;
  /// Writes spans and per-name self times as JSON.
  cedr::Status WriteJson(const std::string& path) const;

 private:
  int64_t NowNs() const;

  bool enabled_;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
  Clock::time_point epoch_ = Clock::now();
};

/// A tracer that records nothing, for untraced calls.
Tracer* NoTrace();

/// RAII span; a no-op when the tracer is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Named metrics with units, in insertion order of first set.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// What a workload run reports back to main().
struct RunReport {
  Metrics metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Digest of every query's output; the check and measure phases must
  /// agree on it.
  std::string digest;
  /// Input description recorded with the results.
  std::map<std::string, double> inputs;
};

inline constexpr uint64_t kDigestSeed = 1469598103934665603ull;

/// Folds the serialized physical stream (kinds, ids, lifetimes,
/// payloads, cs) into a 64-bit FNV-1a digest.
uint64_t DigestStream(const std::vector<cedr::Message>& messages,
                      uint64_t seed);

std::string Hex(uint64_t v);

/// Peak resident set size of this process so far, in MiB. The workloads
/// read it before their first parallel pass: how the worker threads'
/// allocator arenas fragment depends on scheduling, which would make the
/// figure vary from run to run.
double PeakRssMb();

/// Cuts every stream at the last arrival of the stream that ends first,
/// so the whole input has every source publishing. The machine
/// generator's late restarts run on long after the last session; in
/// that tail the common sync point no longer advances and the cost
/// profile of the run's last stretch would be the generator's, not the
/// engine's.
void TruncateToCommonSpan(std::vector<cedr::LabeledStream>* streams);

/// Keeps the first `n` messages of the streams' merged arrival order and
/// returns that order; each stream keeps its own messages among them, in
/// order. A fixed `n` makes every seed's input the same size. Fails when
/// the streams hold fewer than `n` messages.
std::vector<cedr::TypedMessage> CutToArrivals(
    std::vector<cedr::LabeledStream>* streams, size_t n);

/// Progress note on standard error, stamped with seconds since start.
void Note(const std::string& what);

/// Fails the gate: prints the reason to stderr and exits non-zero.
[[noreturn]] void Fail(const std::string& what);

/// Exits non-zero when `st` is not OK.
void Check(const cedr::Status& st, const std::string& what);

template <typename T>
T ValueOrFail(cedr::Result<T> result, const std::string& what) {
  Check(result.status(), what);
  return std::move(result).ValueOrDie();
}

/// Set-ups per measuring round; setup_s is the median over the run.
inline constexpr int kSetupsPerRound = 10;

/// A standing query of a workload: its text, the consistency level it
/// runs at, and that level's label in the consistency.* metrics.
struct QueryDef {
  std::string text;
  cedr::ConsistencySpec spec;
  std::string level;
};

/// Seconds one traced set-up spent in each layer a query compiles
/// through, summed over the workload's queries.
struct SetupLayers {
  double parse = 0, bind = 0, optimize = 0, build = 0;
};

/// Runs ParseQuery, Bind, plan::Optimize and plan::BuildPhysicalPlan on
/// `q` one by one (the steps CompiledQuery::Compile takes), adding each
/// step's time to `layers` under a span per step.
void TimeCompileLayers(const QueryDef& q, const cedr::Catalog& catalog,
                       Tracer* tracer, SetupLayers* layers);

/// Emits lang.parse_ms, lang.bind_ms, plan.optimize_ms and
/// plan.build_ms: medians over the traced set-ups.
void ReportSetupLayers(const std::vector<SetupLayers>& layers, Metrics* m);

/// Name of the per-query metric slot of the i-th registered query
/// (BENCHMARK.json lists slots q0..q7).
std::string Slot(size_t i);

/// Per-level accumulation of the Figure 8 quantities.
struct LevelStats {
  double blocking_sum = 0;  // sum of per-query mean blocking
  int queries = 0;
  uint64_t inserts = 0;
  uint64_t retracts = 0;
  uint64_t lost = 0;
};

/// Adds `stats` of one query at `level` to `acc`.
void AddLevelStats(const std::string& level, const cedr::QueryStats& stats,
                   std::map<std::string, LevelStats>* acc);

/// Emits consistency.{mean_blocking,retract_ratio,lost_corrections}.<level>
/// for every level the workload runs.
void ReportLevels(const std::map<std::string, LevelStats>& acc, Metrics* m);

/// Emits ops.max_state / ops.max_buffer for every query.
void ReportOps(const std::vector<cedr::QueryStats>& per_query, Metrics* m);

}  // namespace cedrbench

#endif  // CEDRBENCH_COMMON_H_
