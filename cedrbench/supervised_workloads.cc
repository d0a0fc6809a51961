// supervised_overload: a SupervisedService with one source, driven open
// loop. Every call is assigned to a logical tick before timing starts;
// tick k is due k * period. A pass offers tick k's calls and calls
// Tick(), tick after tick, timing each call in CPU seconds; the
// supervisor sees the same call sequence on every run. The pass is then
// placed on the schedule: tick k starts when it is due, or when tick
// k - 1 ends if that is later, and a call's ingress latency runs from
// its tick's due time to the end of the Tick that drained it, with
// every call's time scaled like all timings (see RoundScales). So the
// latencies are those of a service with a core to itself, whatever else
// the host runs. Refused calls are not retried: they are failures.
#include <deque>

#include "common/rng.h"
#include "denotation/ideal.h"
#include "engine/supervisor.h"
#include "io/journal.h"
#include "workload/disorder.h"
#include "workload/machines.h"
#include "workloads.h"

namespace cedrbench {
namespace {

using cedr::ConsistencySpec;
using cedr::Message;
using cedr::QueryStats;
using cedr::Status;
using cedr::SupervisedService;
using cedr::io::JournalOp;
using cedr::io::JournalRecord;

constexpr char kSource[] = "machine-events";
/// Barrier-snapshot sampling cadence of the traced run, in ticks.
constexpr int64_t kSnapshotEvery = 16;

struct TickedCall {
  int64_t tick = 0;
  JournalRecord call;
};

/// Feeds per run, each drawn from the seed. The service's cost grows
/// faster than the output it has produced, and one 900-call feed's
/// figures move by ±10-20% from seed to seed; each measuring round runs
/// the next feed in turn, and every metric is the median over the feeds
/// of the feed's median.
constexpr size_t kFeeds = 8;

using Feed = std::vector<TickedCall>;

struct SupWorkload {
  cedr::Catalog catalog;
  std::vector<QueryDef> queries;
  std::vector<Feed> feeds;
  cedr::SupervisorConfig config;
  std::chrono::nanoseconds period{0};
  std::map<std::string, double> inputs;
};

std::unique_ptr<SupervisedService> Setup(const SupWorkload& w,
                                         Tracer* tracer,
                                         SetupLayers* layers) {
  ScopedSpan setup_span(tracer, "setup");
  if (layers != nullptr) {
    // The steps RegisterQuery compiles each query through.
    for (const QueryDef& q : w.queries) {
      TimeCompileLayers(q, w.catalog, tracer, layers);
    }
  }
  ScopedSpan s(tracer, "engine.supervisor.register");
  auto svc = std::make_unique<SupervisedService>(w.config);
  std::vector<std::string> types;
  for (const auto& [type, schema] : w.catalog) {
    Check(svc->RegisterEventType(type, schema), "register type");
    types.push_back(type);
  }
  std::vector<std::string> registered;
  for (const QueryDef& q : w.queries) {
    registered.push_back(
        ValueOrFail(svc->RegisterQuery(q.text, q.spec), "register query"));
  }
  // Per-query metrics walk QueryNames() (ascending) alongside
  // w.queries (registration order); the query names keep them aligned.
  if (svc->QueryNames() != registered) {
    Fail("query names must sort in registration order");
  }
  Check(svc->AttachSource(kSource, types), "attach source");
  return svc;
}

/// Everything one pass over the feed observed. Times are CPU seconds of
/// the calls into the service.
struct LivePass {
  std::vector<double> tick_s;          // per Tick()
  std::vector<double> tick_publish_s;  // per tick: its Publish* calls
  std::vector<double> publish_us;      // per call
  /// Per tick: the tick slots of the calls its Tick() drained and
  /// applied, in queue order.
  std::vector<std::vector<int64_t>> drained_slots;
  double finish_s = 0;
  double busy_s = 0;  // Publish* + Tick + Finish
  uint64_t offered = 0;
  uint64_t rejected = 0;
  uint64_t journaled_calls = 0;
  cedr::ShedStats shed;
  size_t max_queue_depth = 0;
  size_t quarantined = 0;
  std::string journal;
  uint64_t digest = 0;
  std::map<std::string, cedr::EventList> ideals;
  std::vector<QueryStats> plan_stats;   // per query, registration order
  std::vector<QueryStats> query_stats;  // StatsFor: plan + ingress
  // Traced only.
  std::vector<std::pair<int64_t, double>> snapshot_ms;     // (tick, ms)
  std::vector<std::pair<int64_t, double>> snapshot_bytes;  // (tick, bytes)
  size_t retained_input_max = 0;
  uint64_t switches = 0;
  std::vector<double> switch_tick_s;
  size_t sink_retained = 0;
};

uint64_t GovernorMoves(const SupervisedService& svc,
                       const std::vector<std::string>& names) {
  uint64_t moves = 0;
  for (const std::string& name : names) {
    cedr::GovernorStatus g = ValueOrFail(svc.GovernorOf(name), "governor");
    moves += g.degrades + g.restores;
  }
  return moves;
}

/// Routed calls in the journal (publish, retract and sync records).
uint64_t JournaledCalls(const std::string& journal) {
  cedr::io::JournalContents contents =
      ValueOrFail(cedr::io::ReadJournal(journal), "read journal");
  uint64_t calls = 0;
  for (const JournalRecord& r : contents.records) {
    calls += r.op == JournalOp::kPublish || r.op == JournalOp::kRetract ||
             r.op == JournalOp::kSyncPoint;
  }
  return calls;
}

uint64_t OutputDigest(const SupervisedService& svc,
                      const std::vector<std::string>& names) {
  uint64_t h = kDigestSeed;
  for (const std::string& name : names) {
    const cedr::SwitchableQuery* q = ValueOrFail(svc.GetQuery(name), "query");
    h = DigestStream(q->OutputMessages(), h);
  }
  return h;
}

Status Offer(SupervisedService* svc, uint64_t seq, const JournalRecord& c) {
  const SupervisedService::Ingress ingress{kSource, 0, seq};
  switch (c.op) {
    case JournalOp::kPublish:
      return svc->Publish(ingress, c.name, c.event);
    case JournalOp::kRetract:
      return svc->PublishRetraction(ingress, c.name, c.event, c.new_ve);
    case JournalOp::kSyncPoint:
      return svc->PublishSyncPoint(ingress, c.name, c.time);
    default:
      return Status::Internal("feed holds a non-ingress record");
  }
}

/// One pass over the whole feed, then Finish: tick k's calls are
/// offered, then Tick() runs. The service's behaviour depends on the
/// tick sequence only (the watchdog is off), so the pass runs unpaced
/// and Timeline() places it on the open-loop schedule afterwards.
LivePass RunLive(const SupWorkload& w, const Feed& feed, Tracer* tracer) {
  std::unique_ptr<SupervisedService> svc =
      Setup(w, NoTrace(), nullptr);
  const std::vector<std::string> names = svc->QueryNames();
  const bool traced = tracer->enabled();
  LivePass pass;
  pass.publish_us.reserve(feed.size());

  // Queue-order model of the ingress queue: the tick slot of every
  // accepted call. Shed victims are removed at random among candidates
  // of the kind the supervisor sheds (retractions first, then inserts),
  // mirroring its victim choice in distribution.
  struct Queued {
    JournalOp op;
    int64_t slot;
  };
  std::deque<Queued> queue;
  cedr::Rng victim_rng(0x5EED);
  auto remove_shed = [&](uint64_t count) {
    for (; count > 0; --count) {
      for (JournalOp op : {JournalOp::kRetract, JournalOp::kPublish}) {
        std::vector<size_t> candidates;
        for (size_t i = 0; i < queue.size(); ++i) {
          if (queue[i].op == op) candidates.push_back(i);
        }
        if (candidates.empty()) continue;
        const size_t pick =
            candidates[victim_rng.NextBounded(candidates.size())];
        queue.erase(queue.begin() + static_cast<ptrdiff_t>(pick));
        break;
      }
    }
  };
  auto shed_total = [&svc] {
    return svc->shed().shed_inserts + svc->shed().shed_retractions;
  };
  auto dropped_total = [&svc] {
    return svc->shed().dropped_invalid + svc->shed().shed_late;
  };

  ScopedSpan pass_span(tracer, "pass.supervised");
  uint64_t seq = 0;
  size_t next = 0;
  uint64_t moves = 0;
  for (int64_t tick = 0; next < feed.size() || svc->queue_depth() > 0;
       ++tick) {
    double publish_s = 0;
    for (; next < feed.size() && feed[next].tick <= tick; ++next) {
      const JournalRecord& call = feed[next].call;
      const uint64_t shed_before = shed_total();
      ScopedSpan s(tracer, "engine.supervisor.publish");
      const double t0 = ThreadCpuSeconds();
      Status st = Offer(svc.get(), seq, call);
      const double secs = ThreadCpuSeconds() - t0;
      pass.publish_us.push_back(secs * 1e6);
      publish_s += secs;
      ++pass.offered;
      remove_shed(shed_total() - shed_before);
      if (st.ok()) {
        queue.push_back({call.op, tick});
        ++seq;
      } else if (st.code() == cedr::StatusCode::kResourceExhausted) {
        ++pass.rejected;
      } else {
        Check(st, "publish");
      }
    }
    pass.tick_publish_s.push_back(publish_s);
    const size_t depth_before = svc->queue_depth();
    const uint64_t dropped_before = dropped_total();
    {
      ScopedSpan s(tracer, "engine.supervisor.tick");
      const double t0 = ThreadCpuSeconds();
      Check(svc->Tick(), "tick");
      pass.tick_s.push_back(ThreadCpuSeconds() - t0);
    }
    const size_t drained = depth_before - svc->queue_depth();
    const uint64_t dropped = dropped_total() - dropped_before;
    std::vector<int64_t>& slots = pass.drained_slots.emplace_back();
    for (size_t i = 0; i < drained && !queue.empty(); ++i) {
      // Dropped calls leave the latency sample by count.
      if (i + dropped < drained) slots.push_back(queue.front().slot);
      queue.pop_front();
    }
    if (traced) {
      for (const std::string& name : names) {
        const cedr::SwitchableQuery* q =
            ValueOrFail(svc->GetQuery(name), "query");
        pass.retained_input_max =
            std::max(pass.retained_input_max, q->retained_input_size());
      }
      const uint64_t now_moves = GovernorMoves(*svc, names);
      if (now_moves != moves) pass.switch_tick_s.push_back(pass.tick_s.back());
      moves = now_moves;
      if (tick % kSnapshotEvery == 0) {
        ScopedSpan s(tracer, "engine.switching.snapshot");
        double ms = 0, bytes = 0;
        for (const std::string& name : names) {
          const cedr::SwitchableQuery* q =
              ValueOrFail(svc->GetQuery(name), "query");
          cedr::io::BinaryWriter snap;
          const double t0 = ThreadCpuSeconds();
          Check(q->active().Snapshot(&snap), "snapshot");
          ms += (ThreadCpuSeconds() - t0) * 1e3;
          bytes += static_cast<double>(snap.size());
        }
        pass.snapshot_ms.emplace_back(tick, ms);
        pass.snapshot_bytes.emplace_back(tick, bytes);
      }
    }
  }
  {
    ScopedSpan s(tracer, "engine.supervisor.finish");
    const double t0 = ThreadCpuSeconds();
    Check(svc->Finish(), "finish");
    pass.finish_s = ThreadCpuSeconds() - t0;
  }
  for (size_t k = 0; k < pass.tick_s.size(); ++k) {
    pass.busy_s += pass.tick_publish_s[k] + pass.tick_s[k];
  }
  pass.busy_s += pass.finish_s;

  pass.switches = GovernorMoves(*svc, names);
  pass.shed = svc->shed();
  pass.max_queue_depth = svc->StatsSnapshot().max_queue_depth;
  pass.quarantined = svc->QuarantinedQueries().size();
  pass.journal = svc->journal().bytes();
  pass.journaled_calls = JournaledCalls(pass.journal);
  pass.digest = OutputDigest(*svc, names);
  for (const std::string& name : names) {
    const cedr::SwitchableQuery* q = ValueOrFail(svc->GetQuery(name), "query");
    pass.ideals[name] = q->Ideal();
    pass.sink_retained += q->active().sink().messages().size();
    pass.plan_stats.push_back(q->Stats());
    pass.query_stats.push_back(ValueOrFail(svc->StatsFor(name), "stats"));
  }
  Note("live pass: " + std::to_string(pass.tick_s.size()) + " ticks, busy " +
       std::to_string(pass.busy_s) + " s, " +
       std::to_string(pass.switches) + " governor moves, queue peak " +
       std::to_string(pass.max_queue_depth));
  return pass;
}

/// A pass placed on the open-loop schedule: tick slot k is due at
/// k * period, and the load generator starts it then or, when the
/// previous tick ran past that, as soon as that tick ends. Each call and
/// tick takes its measured time times `scale`.
struct Timeline {
  std::vector<double> latency_s;  // per applied call: due to drained
  std::vector<double> lag_s;      // per tick slot: start - due
};

Timeline PlaceOnSchedule(const LivePass& pass, double period_s,
                         double scale) {
  Timeline t;
  double now = 0;
  for (size_t k = 0; k < pass.tick_s.size(); ++k) {
    const double due = static_cast<double>(k) * period_s;
    now = std::max(now, due);
    t.lag_s.push_back(now - due);
    now += (pass.tick_publish_s[k] + pass.tick_s[k]) * scale;
    for (int64_t slot : pass.drained_slots[k]) {
      t.latency_s.push_back(now - static_cast<double>(slot) * period_s);
    }
  }
  return t;
}

/// Failed calls: shed, refused, dropped at drain, plus quarantined
/// queries.
uint64_t Failures(const LivePass& p) {
  return p.shed.TotalShed() + p.rejected + p.quarantined;
}

struct RecoverPass {
  double seconds = 0;
  uint64_t digest = 0;
  std::map<std::string, cedr::EventList> ideals;
};

RecoverPass RunRecover(const SupWorkload& w, const std::string& journal,
                       int route_workers) {
  cedr::SupervisorConfig config = w.config;
  config.routing.route_workers = route_workers;
  RecoverPass pass;
  // Serial replay is timed in CPU seconds like every other call; a
  // parallel replay spreads over threads and is timed on the wall clock.
  const bool serial = route_workers == 1;
  const double c0 = ThreadCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<SupervisedService> svc =
      ValueOrFail(SupervisedService::Recover(journal, config), "recover");
  Check(svc->Finish(), "finish recovered");
  const std::vector<std::string> names = svc->QueryNames();
  size_t read = 0;
  for (const std::string& name : names) {
    read += ValueOrFail(svc->GetQuery(name), "query")->OutputMessages().size();
  }
  pass.seconds = serial ? ThreadCpuSeconds() - c0
                        : SecondsBetween(t0, Clock::now());
  Note("recover (" + std::to_string(route_workers) + " workers): " +
       std::to_string(pass.seconds) + " s");
  if (read == 0) Fail("recovered service has no output");
  pass.digest = OutputDigest(*svc, names);
  for (const std::string& name : names) {
    pass.ideals[name] = ValueOrFail(svc->GetQuery(name), "query")->Ideal();
  }
  return pass;
}

void CheckSameIdeals(const std::map<std::string, cedr::EventList>& a,
                     const std::map<std::string, cedr::EventList>& b,
                     const std::string& what) {
  if (a.size() != b.size()) Fail(what + ": query sets differ");
  for (const auto& [name, ideal] : a) {
    auto it = b.find(name);
    if (it == b.end() || !cedr::denotation::StarEqual(ideal, it->second)) {
      Fail(what + ": converged output of " + name + " differs");
    }
  }
}

/// Folds per-feed output digests into one.
uint64_t CombineDigests(const std::vector<uint64_t>& digests) {
  uint64_t h = kDigestSeed;
  for (uint64_t d : digests) {
    h ^= d;
    h *= 1099511628211ull;
  }
  return h;
}

RunReport CheckSupervised(const SupWorkload& w) {
  RunReport report;
  std::vector<uint64_t> digests;
  for (const Feed& feed : w.feeds) {
    LivePass live = RunLive(w, feed, NoTrace());
    if (live.quarantined != 0) Fail("a query was quarantined");
    // Conservation: offered = routed + shed + rejected + dropped.
    const uint64_t accounted = live.journaled_calls + live.shed.TotalShed() +
                               live.rejected;
    if (accounted != live.offered) {
      Fail("offered " + std::to_string(live.offered) +
           " calls but accounted " + std::to_string(accounted));
    }
    if (live.rejected != live.shed.backpressure_rejections) {
      Fail("refused calls disagree with the supervisor's count");
    }
    RecoverPass recovered = RunRecover(w, live.journal, 1);
    CheckSameIdeals(live.ideals, recovered.ideals, "recovered vs live");
    if (live.switches == 0 && recovered.digest != live.digest) {
      Fail("recovered output is not byte-identical to the live output");
    }
    RecoverPass parallel =
        RunRecover(w, live.journal, ParallelWorkers(w.queries.size()));
    if (parallel.digest != recovered.digest) {
      Fail("parallel-routed replay differs from serial replay");
    }
    digests.push_back(live.digest);
    report.attempted += live.offered;
    report.failed += Failures(live);
  }
  report.digest = Hex(CombineDigests(digests));
  report.inputs = w.inputs;
  return report;
}

/// The timings of one feed's passes in a measuring run, each scaled by
/// its round's speed factor (see RoundScales).
struct FeedSamples {
  std::vector<double> busy_s, recover_s, replay_s, traced_busy_s;
  /// Percentiles of each pass's tick times and ingress latencies.
  std::vector<double> tick_p50, tick_p95, ingress_p50, ingress_p95;
  TickGrowth growth;
  uint64_t offered = 0;
  uint64_t journaled_calls = 0;
};

RunReport MeasureSupervised(const SupWorkload& w, const Options& options) {
  RunReport report;
  report.inputs = w.inputs;
  Tracer tracer(options.trace);
  const int workers = ParallelWorkers(w.queries.size());
  const double period_s = std::chrono::duration<double>(w.period).count();
  const size_t n_feeds = w.feeds.size();

  // A measured round, kept unscaled until the run ends (see
  // RoundScales).
  struct Round {
    size_t feed = 0;
    std::vector<double> setup_s;
    std::vector<SetupLayers> layers;
    LivePass pass;
    double recover_s = 0, replay_s = 0, traced_busy_s = 0;
  };
  std::vector<Round> kept;
  std::vector<std::vector<double>> kept_reference;
  std::vector<LivePass> traced_passes;
  // The latest pass over the first feed, for the per-layer counters.
  LivePass feed0;
  std::vector<uint64_t> digests(n_feeds, 0), recover_digests(n_feeds, 0);
  double peak_rss_mb = 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  // Round 0 warms the allocator and the caches on the first feed: only
  // its outputs and the peak memory are kept. Later rounds take the
  // feeds in turn, each at least once.
  for (size_t round = 0; round <= n_feeds || Clock::now() < deadline;
       ++round) {
    const bool first = round == 0;
    const size_t f = first ? 0 : (round - 1) % n_feeds;
    const Feed& feed = w.feeds[f];
    std::vector<double> reference = {ReferenceSeconds()};
    // Set-up time: a few set-ups every round, median over the run.
    std::vector<double> round_setup_s;
    std::vector<SetupLayers> round_layers;
    for (int i = 0; i < kSetupsPerRound; ++i) {
      const double t0 = ThreadCpuSeconds();
      std::unique_ptr<SupervisedService> svc = Setup(w, NoTrace(), nullptr);
      round_setup_s.push_back(ThreadCpuSeconds() - t0);
      if (options.trace) {
        tracer.set_run(static_cast<int>(round) * kSetupsPerRound + i);
        round_layers.emplace_back();
        Setup(w, &tracer, &round_layers.back());
      }
    }
    // The traced pass alternates before and after the untraced one so
    // the overhead estimate does not favour either position.
    LivePass traced;
    auto run_traced = [&] {
      tracer.set_run(1000 + static_cast<int>(round));
      traced = RunLive(w, feed, &tracer);
    };
    if (options.trace && round % 2 == 0) run_traced();
    LivePass pass = RunLive(w, feed, NoTrace());
    if (digests[f] == 0) digests[f] = pass.digest;
    if (pass.digest != digests[f]) Fail("output changed between passes");
    report.attempted += pass.offered;
    report.failed += Failures(pass);
    reference.push_back(ReferenceSeconds());
    double recover_s = 0, replay_s = 0;
    if (options.trace) {
      if (round % 2 == 1) run_traced();
      if (traced.digest != digests[f]) Fail("traced output changed");
      replay_s = RunRecover(w, pass.journal, workers).seconds;
    } else {
      RecoverPass rec = RunRecover(w, pass.journal, 1);
      if (recover_digests[f] == 0) recover_digests[f] = rec.digest;
      if (rec.digest != recover_digests[f]) Fail("recovered output changed");
      recover_s = rec.seconds;
    }
    if (first) peak_rss_mb = PeakRssMb();
    reference.push_back(ReferenceSeconds());
    Note("round " + std::to_string(round) + " (feed " + std::to_string(f) +
         "): busy " + std::to_string(pass.busy_s) + " s, reference " +
         std::to_string(Median(reference)) + " s");
    if (first) continue;
    if (f == 0) feed0 = pass;
    pass.journal.clear();
    pass.ideals.clear();
    Round& kept_round = kept.emplace_back();
    kept_round.feed = f;
    kept_round.setup_s = std::move(round_setup_s);
    kept_round.layers = std::move(round_layers);
    kept_round.pass = std::move(pass);
    kept_round.recover_s = recover_s;
    kept_round.replay_s = replay_s;
    if (options.trace) {
      kept_round.traced_busy_s = traced.busy_s;
      traced_passes.push_back(std::move(traced));
    }
    kept_reference.push_back(std::move(reference));
  }

  std::vector<FeedSamples> per_feed(n_feeds);
  std::vector<double> setup_s, publish_us, lag_s, reference_s;
  std::vector<SetupLayers> layers;
  const std::vector<double> scales = RoundScales(kept_reference);
  for (size_t i = 0; i < kept.size(); ++i) {
    Round& rd = kept[i];
    const double scale = scales[i];
    const LivePass& pass = rd.pass;
    FeedSamples& fs = per_feed[rd.feed];
    fs.offered = pass.offered;
    fs.journaled_calls = pass.journaled_calls;
    for (double x : rd.setup_s) setup_s.push_back(x * scale);
    for (SetupLayers& l : rd.layers) {
      for (double* x : {&l.parse, &l.bind, &l.optimize, &l.build}) *x *= scale;
      layers.push_back(l);
    }
    fs.busy_s.push_back(pass.busy_s * scale);
    std::vector<double> ticks = pass.tick_s;
    for (double& x : ticks) x *= scale;
    fs.tick_p50.push_back(Percentile(ticks, 0.50));
    fs.tick_p95.push_back(Percentile(ticks, 0.95));
    fs.growth.Add(ticks);
    const Timeline t = PlaceOnSchedule(pass, period_s, scale);
    fs.ingress_p50.push_back(Percentile(t.latency_s, 0.50));
    fs.ingress_p95.push_back(Percentile(t.latency_s, 0.95));
    lag_s.insert(lag_s.end(), t.lag_s.begin(), t.lag_s.end());
    for (double us : pass.publish_us) publish_us.push_back(us * scale);
    if (options.trace) {
      fs.replay_s.push_back(rd.replay_s * scale);
      fs.traced_busy_s.push_back(rd.traced_busy_s * scale);
    } else {
      fs.recover_s.push_back(rd.recover_s * scale);
    }
    reference_s.insert(reference_s.end(), kept_reference[i].begin(),
                       kept_reference[i].end());
  }
  report.digest = Hex(CombineDigests(digests));

  // Each metric is the median over the feeds of the feed's own figure:
  // now and then a feed costs a third less than the rest, and a mean
  // would carry that into the run's figure.
  auto over_feeds = [&per_feed](auto of) {
    std::vector<double> xs;
    for (const FeedSamples& fs : per_feed) xs.push_back(of(fs));
    return Median(xs);
  };
  Metrics& m = report.metrics;
  if (!options.trace) {
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("events_per_s", over_feeds([](const FeedSamples& fs) {
            return static_cast<double>(fs.offered) / Median(fs.busy_s);
          }),
          "events/s");
    m.Set("ingress_p50_ms", over_feeds([](const FeedSamples& fs) {
            return Median(fs.ingress_p50) * 1e3;
          }),
          "ms");
    m.Set("ingress_p95_ms", over_feeds([](const FeedSamples& fs) {
            return Median(fs.ingress_p95) * 1e3;
          }),
          "ms");
    m.Set("tick_p50_ms", over_feeds([](const FeedSamples& fs) {
            return Median(fs.tick_p50) * 1e3;
          }),
          "ms");
    m.Set("tick_p95_ms", over_feeds([](const FeedSamples& fs) {
            return Median(fs.tick_p95) * 1e3;
          }),
          "ms");
    m.Set("tick_growth",
          over_feeds([](const FeedSamples& fs) { return fs.growth.Ratio(); }),
          "ratio");
    m.Set("recover_s", over_feeds([](const FeedSamples& fs) {
            return Median(fs.recover_s);
          }),
          "s");
    m.Set("peak_rss_mb", peak_rss_mb, "MB");
    return report;
  }

  ReportSetupLayers(layers, &m);
  ReportOps(feed0.plan_stats, &m);
  std::map<std::string, LevelStats> levels;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    AddLevelStats(w.queries[i].level, feed0.query_stats[i], &levels);
  }
  ReportLevels(levels, &m);
  m.Set("engine.parallel.events_per_s", over_feeds([](const FeedSamples& fs) {
          return static_cast<double>(fs.journaled_calls) / Median(fs.replay_s);
        }),
        "events/s");
  m.Set("engine.supervisor.publish_us_p50", Percentile(publish_us, 0.50),
        "us");
  m.Set("engine.supervisor.publish_us_p99", Percentile(publish_us, 0.99),
        "us");
  m.Set("engine.supervisor.queue_depth_max",
        static_cast<double>(feed0.max_queue_depth), "calls");
  m.Set("engine.supervisor.shed",
        static_cast<double>(feed0.shed.TotalShed()), "calls");
  m.Set("engine.supervisor.rejected", static_cast<double>(feed0.rejected),
        "calls");
  // Snapshot cost over the first and last fifth of the ticks, averaged
  // over the traced passes' samples.
  auto fifth_mean = [&traced_passes](
                        std::vector<std::pair<int64_t, double>> LivePass::*f,
                        bool last_fifth) {
    double sum = 0;
    int count = 0;
    for (const LivePass& p : traced_passes) {
      const double ticks_n = static_cast<double>(p.tick_s.size());
      for (const auto& [tick, v] : p.*f) {
        const double pos = static_cast<double>(tick) / ticks_n;
        if (last_fifth ? pos >= 0.8 : pos < 0.2) {
          sum += v;
          ++count;
        }
      }
    }
    return count ? sum / count : 0;
  };
  m.Set("engine.switching.snapshot_ms.first",
        fifth_mean(&LivePass::snapshot_ms, false), "ms");
  m.Set("engine.switching.snapshot_ms.last",
        fifth_mean(&LivePass::snapshot_ms, true), "ms");
  m.Set("engine.switching.snapshot_bytes.first",
        fifth_mean(&LivePass::snapshot_bytes, false), "bytes");
  m.Set("engine.switching.snapshot_bytes.last",
        fifth_mean(&LivePass::snapshot_bytes, true), "bytes");
  size_t retained = 0;
  std::vector<double> switch_ticks;
  for (const LivePass& p : traced_passes) {
    retained = std::max(retained, p.retained_input_max);
    switch_ticks.insert(switch_ticks.end(), p.switch_tick_s.begin(),
                        p.switch_tick_s.end());
  }
  m.Set("engine.switching.retained_input", static_cast<double>(retained),
        "messages");
  m.Set("engine.switching.switches", static_cast<double>(feed0.switches),
        "count");
  m.Set("engine.switching.switch_tick_ms", Median(switch_ticks) * 1e3, "ms");
  m.Set("engine.sink.retained_msgs", static_cast<double>(feed0.sink_retained),
        "messages");
  m.Set("io.journal_bytes", static_cast<double>(feed0.journal.size()),
        "bytes");
  m.Set("bench.generator_lag_ms_p99", Percentile(lag_s, 0.99) * 1e3, "ms");
  m.Set("bench.trace_overhead", over_feeds([](const FeedSamples& fs) {
          return Median(fs.traced_busy_s) / Median(fs.busy_s) - 1;
        }),
        "ratio");
  m.Set("bench.reference_ms", Median(reference_s) * 1e3, "ms");
  if (!options.trace_path.empty()) {
    Check(tracer.WriteJson(options.trace_path), "write trace");
  }
  return report;
}

/// The machine feed's catalog and queries.
SupWorkload MachineQueries() {
  SupWorkload w;
  w.catalog = cedr::workload::MachineCatalog();
  const std::string cidr07 =
      "EVENT CIDR07_Example\n"
      "WHEN UNLESS(SEQUENCE(INSTALL AS x, SHUTDOWN AS y, 80),\n"
      "            RESTART AS z, 12)\n"
      "WHERE {x.Machine_Id = y.Machine_Id} AND\n"
      "      {x.Machine_Id = z.Machine_Id}";
  // Distinct event names keep the registered query names distinct.
  std::string cidr07_middle = cidr07;
  cidr07_middle.replace(cidr07_middle.find("CIDR07_Example"),
                        std::string("CIDR07_Example").size(),
                        "CIDR07_Middle");
  w.queries = {{cidr07, ConsistencySpec::Strong(), "strong"},
               {cidr07_middle, ConsistencySpec::Middle(), "middle"},
               {"EVENT Pairs WHEN SEQUENCE(INSTALL AS x, SHUTDOWN AS y, 60) "
                "WHERE {x.Machine_Id = y.Machine_Id}",
                ConsistencySpec::Weak(60), "weak"}};
  return w;
}

/// The first `calls` messages of a seeded machine feed, merged by
/// arrival.
std::vector<cedr::TypedMessage> MachineCalls(uint64_t seed, int sessions,
                                             size_t calls) {
  cedr::workload::MachineConfig config;
  config.num_machines = 8;
  config.num_sessions = sessions;
  config.max_session_length = 40;
  config.restart_scope = 10;
  config.session_interval = 6;
  config.seed = seed;
  cedr::workload::MachineStreams streams =
      cedr::workload::GenerateMachineEvents(config);
  cedr::DisorderConfig disorder;
  disorder.disorder_fraction = 0.25;
  disorder.max_delay = 12;
  disorder.cti_period = 20;
  disorder.seed = seed * 17 + 3;
  std::vector<cedr::LabeledStream> labeled = {
      {"INSTALL", cedr::ApplyDisorder(streams.installs, disorder)},
      {"SHUTDOWN", cedr::ApplyDisorder(streams.shutdowns, disorder)},
      {"RESTART", cedr::ApplyDisorder(streams.restarts, disorder)}};
  TruncateToCommonSpan(&labeled);
  return CutToArrivals(&labeled, calls);
}

/// One merged message as an ingress call. The feed keeps the arrival
/// order of MergeByArrival (testing::MergeFeeds would order sync points
/// by their time instead).
JournalRecord RecordOf(const cedr::TypedMessage& tm) {
  JournalRecord rec;
  rec.name = tm.first;
  const Message& m = tm.second;
  switch (m.kind) {
    case cedr::MessageKind::kInsert:
      rec.op = JournalOp::kPublish;
      rec.event = m.event;
      break;
    case cedr::MessageKind::kRetract:
      rec.op = JournalOp::kRetract;
      rec.event = m.event;
      rec.new_ve = m.new_ve;
      break;
    case cedr::MessageKind::kCti:
      rec.op = JournalOp::kSyncPoint;
      rec.time = m.time;
      break;
  }
  return rec;
}

}  // namespace

RunReport RunSupervisedOverload(const Options& options) {
  constexpr int kSessions = 320;
  constexpr size_t kCalls = 900;
  // A tick offers the calls up to and including the next sync point
  // (about four calls: the streams put a sync point after every 20 of
  // their messages), so every calm tick advances the sync-point barrier
  // once and tick costs do not split by how many barriers a tick
  // happens to carry. Burst ticks carry eight sync points' worth, about
  // twice drain_per_tick: the backlog grows through the burst and
  // drains after it, and the queue holds it all, so nothing is shed or
  // refused.
  constexpr int kCalmSyncs = 1;
  constexpr int kBurstSyncs = 8;
  constexpr size_t kBurstFrom = kCalls * 3 / 10;
  constexpr size_t kBurstTo = kCalls * 6 / 10;
  SupWorkload w = MachineQueries();
  for (size_t f = 0; f < kFeeds; ++f) {
    const std::vector<cedr::TypedMessage> calls =
        MachineCalls(options.seed * kFeeds + f, kSessions, kCalls);
    Feed& feed = w.feeds.emplace_back();
    int64_t tick = 0;
    int syncs = 0;
    for (size_t i = 0; i < calls.size(); ++i) {
      feed.push_back({tick, RecordOf(calls[i])});
      if (calls[i].second.kind != cedr::MessageKind::kCti) continue;
      const bool burst = i >= kBurstFrom && i < kBurstTo;
      if (++syncs >= (burst ? kBurstSyncs : kCalmSyncs)) {
        ++tick;
        syncs = 0;
      }
    }
  }
  w.config.ingress.queue_capacity = 512;
  w.config.ingress.drain_per_tick = 16;
  w.config.session.heartbeat_timeout = 0;
  w.config.watchdog.enabled = false;
  w.config.routing.route_workers = 1;
  w.config.governor.restore_after = 6;
  // Strong blocking accumulated per tick grows with the calls routed
  // per tick: the bound holds in calm phases and trips in the burst.
  w.config.governor.degrade_after = 2;
  w.config.governor.default_budget.max_blocking_per_check = 60;
  w.period = std::chrono::microseconds(12000);
  w.inputs = {{"feeds", kFeeds},
              {"sessions", kSessions},
              {"calls", kCalls},
              {"queries", static_cast<double>(w.queries.size())}};
  w.inputs["calm_syncs_per_tick"] = kCalmSyncs;
  w.inputs["burst_syncs_per_tick"] = kBurstSyncs;
  w.inputs["period_ms"] = 12.0;
  return options.check ? CheckSupervised(w) : MeasureSupervised(w, options);
}

}  // namespace cedrbench
