#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "io/serde.h"
#include "lang/parser.h"
#include "plan/physical.h"

namespace cedrbench {

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p * static_cast<double>(xs.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

void TickGrowth::Add(const std::vector<double>& tick_s) {
  const size_t fifth = tick_s.size() / 5;
  first_.insert(first_.end(), tick_s.begin(),
                tick_s.begin() + static_cast<ptrdiff_t>(fifth));
  last_.insert(last_.end(), tick_s.end() - static_cast<ptrdiff_t>(fifth),
               tick_s.end());
}

namespace {
double TrimmedMean(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  xs.resize(xs.size() - xs.size() / 50);
  double sum = 0;
  for (double x : xs) sum += x;
  return xs.empty() ? 0 : sum / static_cast<double>(xs.size());
}
}  // namespace

double TickGrowth::Ratio() const {
  const double first = TrimmedMean(first_);
  return first > 0 ? TrimmedMean(last_) / first : 1;
}

Tracer* NoTrace() {
  static Tracer off(false);
  return &off;
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int Tracer::Begin(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.run = run_;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) *
                    1e-9;
  }
  return self;
}

cedr::Status Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return cedr::Status::Internal("cannot write " + path);
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"run\": " << s.run << "}"
        << (i + 1 < spans_.size() ? "," : "") << "\n";
  }
  out << "],\n\"self_s\": {";
  bool first = true;
  for (const auto& [name, secs] : SelfSeconds()) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << secs;
    first = false;
  }
  out << "}}\n";
  return out ? cedr::Status::OK()
             : cedr::Status::Internal("short write to " + path);
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

std::string Metrics::ToJson() const {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    out << (i ? ", " : "") << "\"" << order_[i] << "\": {\"value\": "
        << (std::isfinite(value) ? value : 0.0) << ", \"unit\": \"" << unit
        << "\"}";
  }
  out << "}";
  return out.str();
}

uint64_t DigestStream(const std::vector<cedr::Message>& messages,
                      uint64_t seed) {
  uint64_t h = seed ^ messages.size();
  for (const cedr::Message& m : messages) {
    cedr::io::BinaryWriter w;
    cedr::io::WriteMessage(&w, m);
    for (unsigned char c : w.bytes()) {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void TruncateToCommonSpan(std::vector<cedr::LabeledStream>* streams) {
  cedr::Time end = cedr::kInfinity;
  for (const cedr::LabeledStream& s : *streams) {
    if (!s.messages.empty()) end = std::min(end, s.messages.back().cs);
  }
  for (cedr::LabeledStream& s : *streams) {
    while (!s.messages.empty() && s.messages.back().cs > end) {
      s.messages.pop_back();
    }
  }
}

std::vector<cedr::TypedMessage> CutToArrivals(
    std::vector<cedr::LabeledStream>* streams, size_t n) {
  std::vector<cedr::TypedMessage> merged = cedr::MergeByArrival(*streams);
  if (merged.size() < n) {
    Fail("the generator produced " + std::to_string(merged.size()) +
         " messages, fewer than the " + std::to_string(n) + " required");
  }
  merged.resize(n);
  for (cedr::LabeledStream& s : *streams) s.messages.clear();
  for (const auto& [type, msg] : merged) {
    for (cedr::LabeledStream& s : *streams) {
      if (s.event_type == type) s.messages.push_back(msg);
    }
  }
  return merged;
}

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

void Note(const std::string& what) {
  std::cerr << "[" << SecondsBetween(kProcessStart, Clock::now()) << " s] "
            << what
            << "\n";
}

void Fail(const std::string& what) {
  std::cerr << "cedrbench: check failed: " << what << "\n";
  std::exit(1);
}

void Check(const cedr::Status& st, const std::string& what) {
  if (!st.ok()) Fail(what + ": " + st.ToString());
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ReferenceSeconds() {
  const double t0 = ThreadCpuSeconds();
  uint64_t x = 88172645463325252ull;  // xorshift64, fixed seed
  std::map<uint64_t, std::string> index;
  std::vector<std::vector<uint64_t>> rows;
  size_t found = 0;
  for (int i = 0; i < 30000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    index.emplace(x % 200000, std::to_string(x));
    rows.emplace_back(x % 16 + 1, x);
    found += index.count((x >> 20) % 200000);
  }
  const double seconds = ThreadCpuSeconds() - t0;
  if (found + index.size() + rows.size() == 0) Fail("reference");
  return seconds;
}

std::vector<double> RoundScales(
    const std::vector<std::vector<double>>& reference) {
  std::vector<double> scales;
  for (size_t i = 0; i < reference.size(); ++i) {
    std::vector<double> pooled;
    for (size_t j = i == 0 ? 0 : i - 1; j <= i + 1 && j < reference.size();
         ++j) {
      pooled.insert(pooled.end(), reference[j].begin(), reference[j].end());
    }
    scales.push_back(kReferenceSeconds / Median(pooled));
  }
  return scales;
}

void TimeCompileLayers(const QueryDef& q, const cedr::Catalog& catalog,
                       Tracer* tracer, SetupLayers* layers) {
  const Clock::time_point t0 = Clock::now();
  cedr::ast::Query ast;
  {
    ScopedSpan s(tracer, "lang.parse");
    ast = ValueOrFail(cedr::ParseQuery(q.text), "parse");
  }
  const Clock::time_point t1 = Clock::now();
  cedr::plan::BoundQuery bound;
  {
    ScopedSpan s(tracer, "lang.bind");
    bound = ValueOrFail(cedr::Bind(ast, catalog), "bind");
  }
  bound.spec = q.spec;
  const Clock::time_point t2 = Clock::now();
  {
    ScopedSpan s(tracer, "plan.optimize");
    cedr::plan::Optimize(&bound);
  }
  const Clock::time_point t3 = Clock::now();
  {
    ScopedSpan s(tracer, "plan.build");
    ValueOrFail(cedr::plan::BuildPhysicalPlan(bound), "build");
  }
  const Clock::time_point t4 = Clock::now();
  layers->parse += SecondsBetween(t0, t1);
  layers->bind += SecondsBetween(t1, t2);
  layers->optimize += SecondsBetween(t2, t3);
  layers->build += SecondsBetween(t3, t4);
}

void ReportSetupLayers(const std::vector<SetupLayers>& layers, Metrics* m) {
  auto median_ms = [&layers](double SetupLayers::*field) {
    std::vector<double> xs;
    for (const SetupLayers& l : layers) xs.push_back(l.*field * 1e3);
    return Median(xs);
  };
  m->Set("lang.parse_ms", median_ms(&SetupLayers::parse), "ms");
  m->Set("lang.bind_ms", median_ms(&SetupLayers::bind), "ms");
  m->Set("plan.optimize_ms", median_ms(&SetupLayers::optimize), "ms");
  m->Set("plan.build_ms", median_ms(&SetupLayers::build), "ms");
}

std::string Slot(size_t i) {
  std::string slot = "q";
  slot += std::to_string(i);
  return slot;
}

void AddLevelStats(const std::string& level, const cedr::QueryStats& stats,
                   std::map<std::string, LevelStats>* acc) {
  LevelStats& l = (*acc)[level];
  l.blocking_sum += stats.MeanBlocking();
  ++l.queries;
  l.inserts += stats.out_inserts;
  l.retracts += stats.out_retracts;
  l.lost += stats.lost_corrections;
}

void ReportLevels(const std::map<std::string, LevelStats>& acc, Metrics* m) {
  for (const auto& [level, l] : acc) {
    m->Set("consistency.mean_blocking." + level,
           l.queries ? l.blocking_sum / l.queries : 0, "time");
    m->Set("consistency.retract_ratio." + level,
           l.inserts ? static_cast<double>(l.retracts) /
                           static_cast<double>(l.inserts)
                     : 0,
           "ratio");
    m->Set("consistency.lost_corrections." + level,
           static_cast<double>(l.lost), "count");
  }
}

void ReportOps(const std::vector<cedr::QueryStats>& per_query, Metrics* m) {
  for (size_t i = 0; i < per_query.size(); ++i) {
    m->Set("ops.max_state." + Slot(i),
           static_cast<double>(per_query[i].max_state_size), "events");
    m->Set("ops.max_buffer." + Slot(i),
           static_cast<double>(per_query[i].max_buffer_size), "messages");
  }
}

}  // namespace cedrbench
