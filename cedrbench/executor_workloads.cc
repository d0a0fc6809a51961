// pattern_mix and relational_columnar: standing queries over a fixed,
// seeded, merged input, driven through Executor (serial) and
// ParallelExecutor, plus checkpoint restore through
// CompiledQuery::Snapshot/Restore.
//
// The merged input is fed in ingress batches of kIngressBatch messages
// (one Executor::PushBatch per batch: a "tick"); ParallelExecutor gets
// batches of its default fan-out size. The whole input is
// available when a pass starts (bulk load, closed loop), so a message's
// ingress latency is the time from the pass start to the end of the
// batch that carried it.
#include <iterator>
#include <optional>
#include <thread>

#include "audit/denote.h"
#include "denotation/ideal.h"
#include "denotation/relational.h"
#include "engine/executor.h"
#include "engine/parallel.h"
#include "io/serde.h"
#include "ops/groupby.h"
#include "ops/select.h"
#include "stream/batch.h"
#include "workload/disorder.h"
#include "workload/financial.h"
#include "workload/machines.h"
#include "workloads.h"

namespace cedrbench {
namespace {

using cedr::CompiledQuery;
using cedr::ConsistencySpec;
using cedr::LabeledStream;
using cedr::Message;
using cedr::QueryStats;
using cedr::Status;
using cedr::Time;
using cedr::TypedMessage;

/// Serial ingress batch (one tick). Small enough that a pattern_mix
/// pass has 125 ticks, so each pass's tick_p95 has six beyond it.
constexpr size_t kIngressBatch = 32;
/// The checkpoint that recovery restores is taken before this batch: a
/// quarter of the input is replayed after it.
size_t CheckpointBatch(size_t batches) { return batches * 3 / 4; }
/// Input sizes, fixed so that every seed gives the same amount of input.
constexpr size_t kPatternMessages = 4000;
constexpr size_t kRelationalMessages = 80000;
/// ParallelExecutor's fan-out batch: its default, so each fan-out
/// barrier is amortized the way ParallelExecutor::Run amortizes it.
constexpr size_t kParallelBatch = cedr::ParallelConfig{}.batch_size;

/// relational_columnar's hand-built plan: Select(Qty > qty_min) feeding
/// GroupBy(Symbol; count, sum(Qty)), pushed through
/// Operator::PushColumnar.
struct HandPlanDef {
  std::string type;
  cedr::SchemaPtr input_schema;
  int64_t qty_min = 0;
  ConsistencySpec spec;
  std::string level;
};

std::vector<cedr::AggregateSpec> HandAggregates() {
  return {{cedr::AggregateKind::kCount, "", "n"},
          {cedr::AggregateKind::kSum, "Qty", "total"}};
}

cedr::SchemaPtr HandOutputSchema() {
  return cedr::Schema::Make(
      {{"Symbol", cedr::ValueType::kString},
       {"n", cedr::ValueType::kInt64},
       {"total", cedr::AggregateOutputType(cedr::AggregateKind::kSum,
                                           cedr::ValueType::kInt64)}});
}

class HandPlan {
 public:
  explicit HandPlan(const HandPlanDef& def) : type_(def.type) {
    cedr::AttributeComparison qty;
    qty.left_contributor = 0;
    qty.left_attribute = "Qty";
    qty.right_contributor = -1;
    qty.constant = cedr::Value(def.qty_min);
    qty.op = cedr::AttributeComparison::Op::kGt;
    select_ = std::make_unique<cedr::SelectOp>(
        std::vector<cedr::AttributeComparison>{qty}, def.spec, "hand:select");
    groupby_ = std::make_unique<cedr::GroupByAggregateOp>(
        std::vector<std::string>{"Symbol"}, HandAggregates(),
        HandOutputSchema(), def.spec, "hand:groupby");
    sink_ = std::make_unique<cedr::CollectingSink>("sink:hand");
    select_->ConnectTo(groupby_.get(), 0);
    groupby_->ConnectTo(sink_.get(), 0);
  }

  /// Packs this plan's rows of `batch` into one EventBatch (order kept)
  /// and pushes it through PushColumnar.
  Status PushColumnar(std::span<const TypedMessage> batch) {
    packed_.Clear();
    for (const auto& [type, msg] : batch) {
      last_cs_ = std::max(last_cs_, msg.cs);
      if (type != type_) continue;
      if (packed_.Append(msg)) continue;
      CEDR_RETURN_NOT_OK(Flush());
      if (!packed_.Append(msg)) CEDR_RETURN_NOT_OK(select_->Push(0, msg));
    }
    return Flush();
  }

  /// The same rows, one Operator::Push per message.
  Status PushScalar(std::span<const TypedMessage> batch) {
    for (const auto& [type, msg] : batch) {
      last_cs_ = std::max(last_cs_, msg.cs);
      if (type == type_) CEDR_RETURN_NOT_OK(select_->Push(0, msg));
    }
    return Status::OK();
  }

  Status Finish() {
    CEDR_RETURN_NOT_OK(
        select_->Push(0, cedr::CtiOf(cedr::kInfinity, last_cs_ + 1)));
    CEDR_RETURN_NOT_OK(select_->Drain());
    CEDR_RETURN_NOT_OK(groupby_->Drain());
    return sink_->Drain();
  }

  const cedr::CollectingSink& sink() const { return *sink_; }

  QueryStats Stats() const {
    return cedr::CollectStats({select_.get(), groupby_.get()});
  }

  void Snapshot(cedr::io::BinaryWriter* w) const {
    w->PutTime(last_cs_);
    for (const cedr::Operator* op :
         {static_cast<const cedr::Operator*>(select_.get()),
          static_cast<const cedr::Operator*>(groupby_.get()),
          static_cast<const cedr::Operator*>(sink_.get())}) {
      cedr::io::BinaryWriter frame;
      op->Snapshot(&frame);
      w->PutString(frame.Take());
    }
  }

  Status Restore(cedr::io::BinaryReader* r) {
    CEDR_ASSIGN_OR_RETURN(last_cs_, r->GetTime());
    for (cedr::Operator* op :
         {static_cast<cedr::Operator*>(select_.get()),
          static_cast<cedr::Operator*>(groupby_.get()),
          static_cast<cedr::Operator*>(sink_.get())}) {
      CEDR_ASSIGN_OR_RETURN(std::string frame, r->GetString());
      cedr::io::BinaryReader frame_reader(frame);
      CEDR_RETURN_NOT_OK(op->Restore(&frame_reader));
      CEDR_RETURN_NOT_OK(frame_reader.ExpectEnd());
    }
    return Status::OK();
  }

 private:
  Status Flush() {
    if (packed_.empty()) return Status::OK();
    Status st = select_->PushColumnar(0, packed_);
    packed_.Clear();
    return st;
  }

  std::string type_;
  std::unique_ptr<cedr::SelectOp> select_;
  std::unique_ptr<cedr::GroupByAggregateOp> groupby_;
  std::unique_ptr<cedr::CollectingSink> sink_;
  cedr::EventBatch packed_;
  Time last_cs_ = 0;
};

struct ExecWorkload {
  cedr::Catalog catalog;
  std::vector<LabeledStream> streams;
  std::vector<TypedMessage> merged;
  std::vector<QueryDef> queries;
  std::optional<HandPlanDef> hand;
  std::map<std::string, double> inputs;

  size_t NumQueries() const { return queries.size() + (hand ? 1 : 0); }
  std::vector<std::span<const TypedMessage>> Batches(
      size_t size = kIngressBatch) const {
    std::vector<std::span<const TypedMessage>> out;
    for (size_t i = 0; i < merged.size(); i += size) {
      out.emplace_back(merged.data() + i, std::min(size, merged.size() - i));
    }
    return out;
  }
};

/// One compiled instance of every query of a workload. The hand-built
/// plan, when present, occupies the last slot.
struct Suite {
  std::vector<std::unique_ptr<CompiledQuery>> queries;
  std::unique_ptr<HandPlan> hand;

  const cedr::CollectingSink& sink(size_t i) const {
    return i < queries.size() ? queries[i]->sink() : hand->sink();
  }
  size_t size() const { return queries.size() + (hand ? 1 : 0); }

  std::vector<QueryStats> Stats() const {
    std::vector<QueryStats> out;
    for (const auto& q : queries) out.push_back(q->Stats());
    if (hand) out.push_back(hand->Stats());
    return out;
  }

  uint64_t Digest() const {
    uint64_t h = kDigestSeed;
    for (size_t i = 0; i < size(); ++i) h = DigestStream(sink(i).messages(), h);
    return h;
  }

  /// Cheap stand-in for Digest on repeated passes: per-sink message and
  /// kind counts.
  uint64_t Fingerprint() const {
    std::string counts;
    for (size_t i = 0; i < size(); ++i) {
      const cedr::CollectingSink& s = sink(i);
      counts += std::to_string(s.messages().size()) + "/" +
                std::to_string(s.inserts()) + "/" +
                std::to_string(s.retracts()) + "/" +
                std::to_string(s.ctis()) + ";";
    }
    return std::hash<std::string>()(counts);
  }
};

Suite Setup(const ExecWorkload& w, Tracer* tracer, SetupLayers* layers) {
  ScopedSpan setup_span(tracer, "setup");
  Suite suite;
  for (const QueryDef& def : w.queries) {
    if (layers != nullptr) TimeCompileLayers(def, w.catalog, tracer, layers);
    ScopedSpan s(tracer, "engine.query.compile");
    suite.queries.push_back(ValueOrFail(
        CompiledQuery::Compile(def.text, w.catalog, def.spec), "compile"));
  }
  if (w.hand) {
    ScopedSpan s(tracer, "engine.query.compile");
    suite.hand = std::make_unique<HandPlan>(*w.hand);
  }
  return suite;
}

struct SerialPass {
  double seconds = 0;
  std::vector<double> tick_s;
  /// tick_s / batch size: the last batch may be short.
  std::vector<double> tick_per_message_s;
  std::vector<double> latency_s;
  /// Per query slot (traced passes only).
  std::vector<double> push_s, finish_s, read_s;
  std::string checkpoint;
  /// Digest only when requested; the fingerprint always.
  uint64_t digest = 0;
  uint64_t fingerprint = 0;
  std::vector<QueryStats> stats;
  /// The queries after Finish, kept for the oracle check.
  Suite suite;
};

enum class PushMode { kBatch, kPerMessage };

/// One serial pass. Untraced passes run Executor::PushBatch per ingress
/// batch; traced passes call each query's PushBatch in the same
/// query-major order, one span per query. `checkpoint` snapshots every
/// query before batch CheckpointBatch(), with the clock paused.
SerialPass RunSerial(const ExecWorkload& w, Tracer* tracer, PushMode mode,
                     bool checkpoint, bool digest = true) {
  Suite suite = Setup(w, NoTrace(), nullptr);
  cedr::Executor exec;
  for (auto& q : suite.queries) exec.Register(q.get());
  const auto batches = w.Batches();
  const size_t n = suite.size();
  SerialPass pass;
  pass.push_s.assign(n, 0);
  pass.finish_s.assign(n, 0);
  pass.read_s.assign(n, 0);
  pass.latency_s.reserve(w.merged.size());
  const bool traced = tracer->enabled();

  ScopedSpan pass_span(tracer, "pass.serial");
  const size_t checkpoint_at = CheckpointBatch(batches.size());
  // CPU time spent taking the checkpoint, left out of the pass's timings.
  double paused = 0;
  const double start = ThreadCpuSeconds();
  for (size_t b = 0; b < batches.size(); ++b) {
    const std::span<const TypedMessage> batch = batches[b];
    if (checkpoint && b == checkpoint_at) {
      const double p0 = ThreadCpuSeconds();
      cedr::io::BinaryWriter cp;
      for (const auto& q : suite.queries) Check(q->Snapshot(&cp), "snapshot");
      if (suite.hand) suite.hand->Snapshot(&cp);
      pass.checkpoint = cp.Take();
      paused += ThreadCpuSeconds() - p0;
    }
    ScopedSpan tick_span(tracer, "tick");
    const double t0 = ThreadCpuSeconds();
    if (mode == PushMode::kPerMessage) {
      for (auto& q : suite.queries) {
        for (const auto& [type, msg] : batch) {
          Check(q->Push(type, msg), "push");
        }
      }
      if (suite.hand) Check(suite.hand->PushScalar(batch), "hand push");
    } else if (traced) {
      for (size_t i = 0; i < suite.queries.size(); ++i) {
        ScopedSpan s(tracer, "engine.query.push");
        const double q0 = ThreadCpuSeconds();
        Check(suite.queries[i]->PushBatch(batch), "push");
        pass.push_s[i] += ThreadCpuSeconds() - q0;
      }
    } else {
      Check(exec.PushBatch(batch), "push");
    }
    if (suite.hand && mode == PushMode::kBatch) {
      ScopedSpan s(tracer, "engine.query.push");
      const double q0 = ThreadCpuSeconds();
      Check(suite.hand->PushColumnar(batch), "hand push");
      pass.push_s[n - 1] += ThreadCpuSeconds() - q0;
    }
    const double t1 = ThreadCpuSeconds();
    pass.tick_s.push_back(t1 - t0);
    pass.tick_per_message_s.push_back(pass.tick_s.back() /
                                      static_cast<double>(batch.size()));
    pass.latency_s.insert(pass.latency_s.end(), batch.size(),
                          t1 - start - paused);
  }
  for (size_t i = 0; i < n; ++i) {
    ScopedSpan s(tracer, "engine.query.finish");
    const double q0 = ThreadCpuSeconds();
    Check(i < suite.queries.size() ? suite.queries[i]->Finish()
                                   : suite.hand->Finish(),
          "finish");
    pass.finish_s[i] = ThreadCpuSeconds() - q0;
  }
  size_t read = 0;
  for (size_t i = 0; i < n; ++i) {
    ScopedSpan s(tracer, "engine.sink.read");
    const double q0 = ThreadCpuSeconds();
    read += suite.sink(i).messages().size();
    pass.read_s[i] = ThreadCpuSeconds() - q0;
  }
  const double end = ThreadCpuSeconds();
  pass.seconds = end - start - paused;
  if (read == 0) Fail("no output read");
  if (digest) pass.digest = suite.Digest();
  pass.fingerprint = suite.Fingerprint();
  pass.stats = suite.Stats();
  pass.suite = std::move(suite);
  return pass;
}

struct ParallelPass {
  double seconds = 0;
  uint64_t digest = 0;
  uint64_t fingerprint = 0;
  size_t quarantined = 0;
};

ParallelPass RunParallel(const ExecWorkload& w, int workers,
                         bool digest = true) {
  Suite suite = Setup(w, NoTrace(), nullptr);
  cedr::ParallelExecutor exec(cedr::ParallelConfig{workers, kParallelBatch});
  for (auto& q : suite.queries) exec.Register(q.get());
  const auto batches = w.Batches(kParallelBatch);
  ParallelPass pass;
  const auto start = Clock::now();
  for (const auto& batch : batches) {
    Check(exec.PushBatch(batch), "parallel push");
    if (suite.hand) Check(suite.hand->PushColumnar(batch), "hand push");
  }
  Check(exec.Finish(), "parallel finish");
  if (suite.hand) Check(suite.hand->Finish(), "hand finish");
  size_t read = 0;
  for (size_t i = 0; i < suite.size(); ++i) {
    read += suite.sink(i).messages().size();
  }
  pass.seconds = SecondsBetween(start, Clock::now());
  if (read == 0) Fail("no output read");
  pass.quarantined = exec.num_quarantined();
  if (digest) pass.digest = suite.Digest();
  pass.fingerprint = suite.Fingerprint();
  return pass;
}

/// Recovery after a crash: recompiles every query, restores the
/// checkpoint, replays the input after it, finishes and reads the
/// output. Returns CPU seconds; `digest` (when given) receives the
/// output digest and `fingerprint` its fingerprint.
double RunRecover(const ExecWorkload& w, const std::string& checkpoint,
                  uint64_t* digest, uint64_t* fingerprint) {
  const auto batches = w.Batches();
  const double start = ThreadCpuSeconds();
  Suite suite = Setup(w, NoTrace(), nullptr);
  cedr::Executor exec;
  for (auto& q : suite.queries) exec.Register(q.get());
  cedr::io::BinaryReader r(checkpoint);
  for (auto& q : suite.queries) Check(q->Restore(&r), "restore");
  if (suite.hand) Check(suite.hand->Restore(&r), "hand restore");
  Check(r.ExpectEnd(), "checkpoint end");
  for (size_t b = CheckpointBatch(batches.size()); b < batches.size(); ++b) {
    Check(exec.PushBatch(batches[b]), "replay");
    if (suite.hand) Check(suite.hand->PushColumnar(batches[b]), "hand replay");
  }
  for (auto& q : suite.queries) Check(q->Finish(), "finish");
  if (suite.hand) Check(suite.hand->Finish(), "hand finish");
  size_t read = 0;
  for (size_t i = 0; i < suite.size(); ++i) {
    read += suite.sink(i).messages().size();
  }
  const double seconds = ThreadCpuSeconds() - start;
  if (read == 0) Fail("no output read");
  if (digest != nullptr) *digest = suite.Digest();
  *fingerprint = suite.Fingerprint();
  return seconds;
}

/// Converged output of every query against the denotational oracle.
void CheckOracle(const ExecWorkload& w, const Suite& suite) {
  std::map<std::string, cedr::EventList> ideal_inputs;
  for (const LabeledStream& s : w.streams) {
    ideal_inputs[s.event_type] = cedr::denotation::IdealOf(s.messages);
  }
  const std::vector<QueryStats> stats = suite.Stats();
  for (size_t i = 0; i < suite.queries.size(); ++i) {
    if (stats[i].lost_corrections != 0) {
      Fail("query " + Slot(i) +
           " lost corrections; the workload must converge");
    }
    cedr::EventList expected = ValueOrFail(
        cedr::audit::DenoteQuery(suite.queries[i]->bound(), ideal_inputs),
        "denote");
    if (!cedr::denotation::StarEqual(suite.queries[i]->sink().Ideal(),
                                     expected)) {
      Fail("query " + Slot(i) +
           " diverged from the denotational oracle");
    }
  }
  if (suite.hand) {
    if (stats.back().lost_corrections != 0) {
      Fail("hand plan lost corrections; the workload must converge");
    }
    const HandPlanDef& def = *w.hand;
    const size_t qty = ValueOrFail(def.input_schema->FieldIndex("Qty"), "Qty");
    const int64_t qty_min = def.qty_min;
    cedr::EventList selected = cedr::denotation::Select(
        ideal_inputs[def.type], [qty, qty_min](const cedr::Row& row) {
          return row.at(qty).AsInt64() > qty_min;
        });
    cedr::EventList expected = cedr::denotation::GroupByAggregate(
        selected, {"Symbol"}, HandAggregates(), HandOutputSchema());
    if (!cedr::denotation::StarEqual(suite.hand->sink().Ideal(), expected)) {
      Fail("hand plan diverged from the denotational oracle");
    }
  }
}

/// The gate: serial == parallel byte for byte, checkpoint restore is
/// invisible, converged output equals the oracle.
RunReport CheckExecutor(const ExecWorkload& w) {
  SerialPass serial = RunSerial(w, NoTrace(), PushMode::kBatch, true);
  const Suite& suite = serial.suite;
  for (size_t i = 0; i < suite.size(); ++i) {
    Note("query " + Slot(i) + ": " +
         std::to_string(suite.sink(i).messages().size()) + " output messages");
  }
  Note("checkpoint " + std::to_string(serial.checkpoint.size()) + " bytes");
  ParallelPass parallel = RunParallel(w, ParallelWorkers(w.NumQueries()));
  if (parallel.quarantined != 0) Fail("parallel run quarantined a query");
  if (parallel.digest != serial.digest) {
    Fail("parallel output differs from serial output");
  }
  uint64_t restored = 0, fingerprint = 0;
  RunRecover(w, serial.checkpoint, &restored, &fingerprint);
  if (restored != serial.digest) {
    Fail("checkpoint-restored output differs from the uninterrupted run");
  }
  SerialPass per_message =
      RunSerial(w, NoTrace(), PushMode::kPerMessage, false);
  if (per_message.digest != serial.digest) {
    Fail("per-message push output differs from batched push output");
  }
  Note("gate: serial, parallel, restore and per-message passes agree");
  CheckOracle(w, suite);
  Note("gate: oracle agrees");
  RunReport report;
  report.digest = Hex(serial.digest);
  report.attempted = w.merged.size();
  report.inputs = w.inputs;
  return report;
}

/// The timings of a measuring run, or of one of its rounds before the
/// round's speed factor (see RoundScales) is applied.
struct ExecSamples {
  std::vector<double> setup_s, serial_s, parallel_s, recover_s, traced_s,
      per_message_s;
  /// Percentiles of each serial pass's tick times and ingress latencies.
  std::vector<double> tick_p50, tick_p95, ingress_p50, ingress_p95;
  /// Per-message tick times of each serial pass, for tick_growth.
  std::vector<std::vector<double>> pass_ticks;
  std::vector<SetupLayers> layers;
  /// Traced passes, for their per-query times.
  std::vector<SerialPass> traced;

  void Scale(double f) {
    for (std::vector<double>* xs :
         {&setup_s, &serial_s, &parallel_s, &recover_s, &traced_s,
          &per_message_s, &tick_p50, &tick_p95, &ingress_p50,
          &ingress_p95}) {
      for (double& x : *xs) x *= f;
    }
    for (std::vector<double>& xs : pass_ticks) {
      for (double& x : xs) x *= f;
    }
    for (SetupLayers& l : layers) {
      for (double* x : {&l.parse, &l.bind, &l.optimize, &l.build}) *x *= f;
    }
    for (SerialPass& p : traced) {
      for (std::vector<double>* xs : {&p.push_s, &p.finish_s, &p.read_s}) {
        for (double& x : *xs) x *= f;
      }
    }
  }

  void Append(ExecSamples&& r) {
    auto append = [](auto* to, auto* from) {
      std::move(from->begin(), from->end(), std::back_inserter(*to));
    };
    append(&setup_s, &r.setup_s);
    append(&serial_s, &r.serial_s);
    append(&parallel_s, &r.parallel_s);
    append(&recover_s, &r.recover_s);
    append(&traced_s, &r.traced_s);
    append(&per_message_s, &r.per_message_s);
    append(&tick_p50, &r.tick_p50);
    append(&tick_p95, &r.tick_p95);
    append(&ingress_p50, &r.ingress_p50);
    append(&ingress_p95, &r.ingress_p95);
    append(&pass_ticks, &r.pass_ticks);
    append(&layers, &r.layers);
    append(&traced, &r.traced);
  }
};

RunReport MeasureExecutor(const ExecWorkload& w, const Options& options) {
  const int workers = ParallelWorkers(w.NumQueries());
  const double n_messages = static_cast<double>(w.merged.size());
  RunReport report;
  report.inputs = w.inputs;
  Tracer tracer(options.trace);

  // The measured rounds' timings and reference times; each round is
  // scaled once the run ends (see RoundScales).
  std::vector<ExecSamples> kept;
  std::vector<std::vector<double>> kept_reference;
  ExecSamples all;
  std::vector<double> reference_s;
  std::vector<QueryStats> stats;
  // Every pass must reproduce the first pass's output: the first round
  // compares full digests, later rounds the cheap fingerprints.
  uint64_t digest = 0, fingerprint = 0;
  double peak_rss_mb = 0;
  auto same_output = [&](uint64_t d, uint64_t f) {
    if (fingerprint == 0) fingerprint = f;
    if (f != fingerprint) Fail("output changed between passes");
    if (d == 0) return;
    if (digest == 0) digest = d;
    if (d != digest) Fail("output changed between passes");
  };
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  int rounds = 0;
  // The checkpoint restored by every recovery, taken in the first round.
  std::string checkpoint;
  // The first round warms the allocator and the caches: only its outputs
  // and the peak memory are kept. At least two rounds are measured.
  while (rounds < 3 || Clock::now() < deadline) {
    ++rounds;
    const bool first = rounds == 1;
    ExecSamples r;
    std::vector<double> reference = {ReferenceSeconds()};
    // Set-up time: a few set-ups every round, median over the run.
    for (int i = 0; i < kSetupsPerRound; ++i) {
      const double t0 = ThreadCpuSeconds();
      Suite s = Setup(w, NoTrace(), nullptr);
      r.setup_s.push_back(ThreadCpuSeconds() - t0);
      if (options.trace) {
        tracer.set_run(rounds * kSetupsPerRound + i);
        r.layers.emplace_back();
        Setup(w, &tracer, &r.layers.back());
      }
    }
    // Traced and per-message passes (trace mode only); the traced pass
    // alternates before and after the untraced one so the overhead
    // estimate does not favour either position.
    auto run_traced = [&] {
      tracer.set_run(1000 + rounds);
      SerialPass traced = RunSerial(w, &tracer, PushMode::kBatch, false, first);
      same_output(traced.digest, traced.fingerprint);
      r.traced_s.push_back(traced.seconds);
      traced.suite = Suite();
      r.traced.push_back(std::move(traced));
    };
    if (options.trace && rounds % 2 == 0) run_traced();
    SerialPass pass = RunSerial(w, NoTrace(), PushMode::kBatch,
                                first && !options.trace, first);
    same_output(pass.digest, pass.fingerprint);
    if (first) checkpoint = std::move(pass.checkpoint);
    r.serial_s.push_back(pass.seconds);
    r.pass_ticks.push_back(pass.tick_per_message_s);
    r.tick_p50.push_back(Percentile(pass.tick_s, 0.50));
    r.tick_p95.push_back(Percentile(pass.tick_s, 0.95));
    r.ingress_p50.push_back(Percentile(pass.latency_s, 0.50));
    r.ingress_p95.push_back(Percentile(pass.latency_s, 0.95));
    stats = pass.stats;
    pass.suite = Suite();  // free the outputs before the next pass
    report.attempted += w.merged.size();
    reference.push_back(ReferenceSeconds());
    if (options.trace) {
      if (rounds % 2 == 1) run_traced();
      SerialPass per_message =
          RunSerial(w, NoTrace(), PushMode::kPerMessage, false, first);
      same_output(per_message.digest, per_message.fingerprint);
      r.per_message_s.push_back(per_message.seconds);
    } else {
      uint64_t restored = 0, restored_fingerprint = 0;
      r.recover_s.push_back(RunRecover(w, checkpoint,
                                       first ? &restored : nullptr,
                                       &restored_fingerprint));
      same_output(restored, restored_fingerprint);
    }
    reference.push_back(ReferenceSeconds());
    if (first) peak_rss_mb = PeakRssMb();
    ParallelPass parallel = RunParallel(w, workers, first);
    same_output(parallel.digest, parallel.fingerprint);
    report.failed += parallel.quarantined;
    r.parallel_s.push_back(parallel.seconds);
    reference.push_back(ReferenceSeconds());
    Note("round " + std::to_string(rounds) + ": serial " +
         std::to_string(r.serial_s.back()) + " s, parallel " +
         std::to_string(r.parallel_s.back()) + " s" +
         (options.trace ? ", traced " + std::to_string(r.traced_s.back()) +
                              " s, per-message " +
                              std::to_string(r.per_message_s.back()) + " s"
                        : ", recover " + std::to_string(r.recover_s.back()) +
                              " s") +
         ", reference " + std::to_string(Median(reference)) + " s");
    if (first) continue;
    kept.push_back(std::move(r));
    kept_reference.push_back(std::move(reference));
  }
  report.digest = Hex(digest);
  const std::vector<double> scales = RoundScales(kept_reference);
  for (size_t i = 0; i < kept.size(); ++i) {
    kept[i].Scale(scales[i]);
    all.Append(std::move(kept[i]));
    reference_s.insert(reference_s.end(), kept_reference[i].begin(),
                       kept_reference[i].end());
  }
  TickGrowth growth;
  for (const std::vector<double>& xs : all.pass_ticks) growth.Add(xs);

  Metrics& m = report.metrics;
  if (!options.trace) {
    m.Set("setup_s", Median(all.setup_s), "s");
    m.Set("events_per_s", n_messages / Median(all.serial_s), "events/s");
    m.Set("ingress_p50_ms", Median(all.ingress_p50) * 1e3, "ms");
    m.Set("ingress_p95_ms", Median(all.ingress_p95) * 1e3, "ms");
    m.Set("tick_p50_ms", Median(all.tick_p50) * 1e3, "ms");
    m.Set("tick_p95_ms", Median(all.tick_p95) * 1e3, "ms");
    m.Set("tick_growth", growth.Ratio(), "ratio");
    m.Set("recover_s", Median(all.recover_s), "s");
    m.Set("peak_rss_mb", peak_rss_mb, "MB");
    return report;
  }

  // Traced run: per-layer metrics.
  ReportSetupLayers(all.layers, &m);
  const size_t nq = w.NumQueries();
  auto median_slot = [&all](std::vector<double> SerialPass::*field,
                            size_t i) {
    std::vector<double> xs;
    for (const SerialPass& p : all.traced) xs.push_back((p.*field)[i]);
    return Median(xs);
  };
  std::vector<double> push(nq), finish(nq);
  for (size_t i = 0; i < nq; ++i) {
    push[i] = median_slot(&SerialPass::push_s, i);
    finish[i] = median_slot(&SerialPass::finish_s, i);
    m.Set("engine.query.push_s." + Slot(i), push[i], "s");
    m.Set("engine.query.finish_s." + Slot(i), finish[i], "s");
    m.Set("engine.sink.read_s." + Slot(i),
          median_slot(&SerialPass::read_s, i), "s");
  }
  double push_sum = 0, push_max = 0, serial_sum = 0;
  for (size_t i = 0; i < nq; ++i) {
    push_sum += push[i];
    push_max = std::max(push_max, push[i]);
    serial_sum += push[i] + finish[i];
  }
  m.Set("engine.parallel.imbalance",
        push_sum > 0 ? push_max / (push_sum / static_cast<double>(nq)) : 0,
        "ratio");
  m.Set("engine.parallel.events_per_s", n_messages / Median(all.parallel_s),
        "events/s");
  m.Set("engine.parallel.efficiency",
        serial_sum / (static_cast<double>(workers) * Median(all.parallel_s)),
        "ratio");
  m.Set("stream.columnar_gain",
        Median(all.per_message_s) / Median(all.serial_s), "ratio");
  ReportOps(stats, &m);
  std::map<std::string, LevelStats> levels;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    AddLevelStats(w.queries[i].level, stats[i], &levels);
  }
  if (w.hand) AddLevelStats(w.hand->level, stats.back(), &levels);
  ReportLevels(levels, &m);
  m.Set("bench.trace_overhead",
        Median(all.traced_s) / Median(all.serial_s) - 1, "ratio");
  m.Set("bench.reference_ms", Median(reference_s) * 1e3, "ms");
  if (!options.trace_path.empty()) {
    Check(tracer.WriteJson(options.trace_path), "write trace");
  }
  return report;
}

RunReport RunExecutorWorkload(const ExecWorkload& w, const Options& options) {
  return options.check ? CheckExecutor(w) : MeasureExecutor(w, options);
}

}  // namespace

int ParallelWorkers(size_t queries) {
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::max<size_t>(1, std::min(hw, queries)));
}

RunReport RunPatternMix(const Options& options) {
  ExecWorkload w;
  cedr::workload::MachineConfig config;
  config.num_machines = 12;
  config.num_sessions = 1600;
  config.max_session_length = 60;
  config.restart_scope = 12;
  config.session_interval = 4;
  config.seed = options.seed;
  cedr::workload::MachineStreams streams =
      cedr::workload::GenerateMachineEvents(config);
  cedr::DisorderConfig disorder;
  disorder.disorder_fraction = 0.25;
  disorder.max_delay = 12;
  disorder.cti_period = 20;
  disorder.seed = options.seed * 17 + 3;
  w.streams = {{"INSTALL", cedr::ApplyDisorder(streams.installs, disorder)},
               {"SHUTDOWN", cedr::ApplyDisorder(streams.shutdowns, disorder)},
               {"RESTART", cedr::ApplyDisorder(streams.restarts, disorder)}};
  TruncateToCommonSpan(&w.streams);
  w.merged = CutToArrivals(&w.streams, kPatternMessages);
  w.catalog = cedr::workload::MachineCatalog();
  const std::string cidr07 =
      "EVENT CIDR07_Example\n"
      "WHEN UNLESS(SEQUENCE(INSTALL AS x, SHUTDOWN AS y, 80),\n"
      "            RESTART AS z, 12)\n"
      "WHERE {x.Machine_Id = y.Machine_Id} AND\n"
      "      {x.Machine_Id = z.Machine_Id}";
  const std::string pairs = "EVENT Pairs WHEN SEQUENCE(INSTALL, SHUTDOWN, 60)";
  for (const std::string& text : {cidr07, pairs}) {
    w.queries.push_back({text, ConsistencySpec::Strong(), "strong"});
    w.queries.push_back({text, ConsistencySpec::Middle(), "middle"});
    w.queries.push_back({text, ConsistencySpec::Weak(60), "weak"});
    w.queries.push_back({text, ConsistencySpec::Custom(0, 240), "custom"});
  }
  w.inputs = {{"sessions", config.num_sessions},
              {"messages", static_cast<double>(w.merged.size())},
              {"queries", static_cast<double>(w.NumQueries())}};
  return RunExecutorWorkload(w, options);
}

RunReport RunRelationalColumnar(const Options& options) {
  ExecWorkload w;
  cedr::workload::FinancialConfig quotes_config;
  quotes_config.num_symbols = 16;
  quotes_config.num_quotes = 36000;
  quotes_config.quote_ttl = 40;
  quotes_config.revision_fraction = 0.2;
  quotes_config.seed = options.seed;
  cedr::workload::TradeConfig trades_config;
  trades_config.num_traders = 8;
  trades_config.num_symbols = 16;
  trades_config.num_trades = 36000;
  trades_config.trade_interval = 1;
  trades_config.bust_fraction = 0.02;
  trades_config.seed = options.seed * 31 + 5;
  cedr::DisorderConfig disorder;
  disorder.disorder_fraction = 0.25;
  disorder.max_delay = 12;
  disorder.cti_period = 20;
  disorder.seed = options.seed * 17 + 3;
  w.streams = {
      {"QUOTE", cedr::ApplyDisorder(
                    cedr::workload::GenerateQuotes(quotes_config), disorder)},
      {"TRADE", cedr::ApplyDisorder(
                    cedr::workload::GenerateTrades(trades_config), disorder)}};
  w.merged = CutToArrivals(&w.streams, kRelationalMessages);
  w.catalog = {{"QUOTE", cedr::workload::QuoteSchema()},
               {"TRADE", cedr::workload::TradeSchema()}};
  // Volume is uniform per quote, so the filter keeps about half the
  // quotes for every seed (a Price filter would follow a random walk).
  const std::string big =
      "EVENT BigQuotes WHEN ANY(QUOTE AS q) WHERE {q.Volume > 500} "
      "OUTPUT q.Symbol, q.Price";
  w.queries = {{big, ConsistencySpec::Middle(), "middle"},
               {big, ConsistencySpec::Weak(60), "weak"},
               {big, ConsistencySpec::Strong(), "strong"}};
  w.hand = HandPlanDef{"TRADE", cedr::workload::TradeSchema(), 20,
                       ConsistencySpec::Middle(), "middle"};
  w.inputs = {{"quotes", quotes_config.num_quotes},
              {"trades", trades_config.num_trades},
              {"messages", static_cast<double>(w.merged.size())},
              {"queries", static_cast<double>(w.NumQueries())}};
  return RunExecutorWorkload(w, options);
}

}  // namespace cedrbench
