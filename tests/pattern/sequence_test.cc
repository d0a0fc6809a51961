// Runtime SEQUENCE detector vs the denotational semantics: ordered,
// disordered, retracted, and SC-mode behaviour.
#include "pattern/sequence.h"

#include <gtest/gtest.h>

#include "denotation/patterns.h"
#include "engine/sink.h"
#include "io/serde.h"
#include "testing/helpers.h"
#include "workload/disorder.h"

namespace cedr {
namespace {

using denotation::StarEqual;
using testing::KV;
using testing::RunMultiPort;

Event E(EventId id, Time vs, int64_t key = 0) {
  return MakeEvent(id, vs, TimeAdd(vs, 1), KV(key, static_cast<int64_t>(id)));
}

std::vector<Message> Stream(const EventList& events) {
  std::vector<Message> out;
  for (const Event& e : events) out.push_back(InsertOf(e, e.vs));
  return out;
}

TEST(SequenceOpTest, MatchesDenotationInOrder) {
  EventList a = {E(1, 1), E(2, 10)};
  EventList b = {E(3, 5), E(4, 20)};
  SequenceOp op(2, /*scope=*/6, nullptr, {}, nullptr,
                ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b)});
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(StarEqual(result.Ideal(), denotation::Sequence({a, b}, 6)));
}

TEST(SequenceOpTest, OutOfOrderArrivalStillMatches) {
  // The first contributor arrives after the second (monotonic repair:
  // the match appears late, no retraction needed).
  Event first = E(1, 1);
  Event second = E(2, 3);
  SequenceOp op(2, 10, nullptr, {}, nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(
      &op, {{InsertOf(first, 5)}, {InsertOf(second, 4)}});
  ASSERT_TRUE(result.status.ok());
  EventList ideal = result.Ideal();
  ASSERT_EQ(ideal.size(), 1u);
  EXPECT_EQ(ideal[0].vs, 3);
  EXPECT_EQ(result.retracts(), 0u);
}

TEST(SequenceOpTest, ContributorRemovalRetractsComposite) {
  Event a = E(1, 1);
  Event b = E(2, 3);
  SequenceOp op(2, 10, nullptr, {}, nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(
      &op, {{InsertOf(a, 1), RetractOf(a, 1, 5)}, {InsertOf(b, 3)}});
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.sink->inserts(), 1u);   // optimistic match
  EXPECT_EQ(result.retracts(), 1u);        // repaired away
  EXPECT_TRUE(result.Ideal().empty());     // converged: no match
}

TEST(SequenceOpTest, PartialShrinkDoesNotRetract) {
  Event a = MakeEvent(1, 1, 100, KV(0, 1));
  Event b = E(2, 3);
  SequenceOp op(2, 10, nullptr, {}, nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(
      &op, {{InsertOf(a, 1), RetractOf(a, 50, 5)}, {InsertOf(b, 3)}});
  EXPECT_EQ(result.retracts(), 0u);
  EXPECT_EQ(result.Ideal().size(), 1u);  // occurrence (Vs) unchanged
}

TEST(SequenceOpTest, PredicateFiltersAcrossContributors) {
  EventList a = {E(1, 1, 7), E(2, 2, 9)};
  EventList b = {E(3, 5, 7), E(4, 6, 9)};
  auto pred = [](const std::vector<const Event*>& tuple,
                 const std::vector<int>&) {
    if (tuple.size() < 2) return true;
    return tuple[0]->payload.at(0) == tuple[1]->payload.at(0);
  };
  SequenceOp op(2, 10, pred, {}, nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b)});
  EXPECT_EQ(result.Ideal().size(), 2u);  // key-equal pairs only
}

TEST(SequenceOpTest, ConsumptionPreventsReuse) {
  // Port 0 contributor consumed after first match: second B event finds
  // no A.
  EventList a = {E(1, 1)};
  EventList b = {E(2, 3), E(3, 5)};
  ScModes modes(2);
  modes[0].consumption = ConsumptionMode::kConsume;
  SequenceOp op(2, 10, nullptr, modes, nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b)});
  EXPECT_EQ(result.Ideal().size(), 1u);
}

TEST(SequenceOpTest, ReuseAllowsMultipleMatches) {
  EventList a = {E(1, 1)};
  EventList b = {E(2, 3), E(3, 5)};
  SequenceOp op(2, 10, nullptr, {}, nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b)});
  EXPECT_EQ(result.Ideal().size(), 2u);
}

TEST(SequenceOpTest, FirstSelectionPicksEarliest) {
  EventList a = {E(1, 1), E(2, 2)};
  EventList b = {E(3, 5)};
  ScModes modes(2);
  modes[0].selection = SelectionMode::kFirst;
  SequenceOp op(2, 10, nullptr, modes, nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b)});
  EventList ideal = result.Ideal();
  ASSERT_EQ(ideal.size(), 1u);
  EXPECT_EQ(ideal[0].cbt[0]->id, 1u);  // earliest A
}

TEST(SequenceOpTest, LastSelectionPicksLatest) {
  EventList a = {E(1, 1), E(2, 2)};
  EventList b = {E(3, 5)};
  ScModes modes(2);
  modes[0].selection = SelectionMode::kLast;
  SequenceOp op(2, 10, nullptr, modes, nullptr, ConsistencySpec::Middle());
  auto result = RunMultiPort(&op, {Stream(a), Stream(b)});
  EventList ideal = result.Ideal();
  ASSERT_EQ(ideal.size(), 1u);
  EXPECT_EQ(ideal[0].cbt[0]->id, 2u);  // latest A
}

// Operator output serialized message by message, for byte comparison.
std::string OutputBytes(const CollectingSink& sink) {
  io::BinaryWriter w;
  for (const Message& m : sink.messages()) io::WriteMessage(&w, m);
  return w.Take();
}

TEST(SequenceOpTest, PartialRetractionIsCopyOnWrite) {
  // a's lifetime shrinks between two matches that use it: the first
  // composite's lineage keeps the lifetime it was emitted with, the
  // second carries the shrunk one.
  Event a = MakeEvent(1, 1, 100, KV(0, 1));
  std::vector<std::pair<int, Message>> feed = {
      {0, InsertOf(a, 1)},
      {1, InsertOf(E(2, 3), 2)},
      {0, RetractOf(a, 50, 3)},
      {1, InsertOf(E(3, 5), 4)},
  };
  // Runs the feed, snapshotting and restoring into a fresh operator
  // before step `split` (no restore when split > feed.size()).
  auto run = [&](size_t split) {
    auto op = std::make_unique<SequenceOp>(2, 10, nullptr, ScModes{}, nullptr,
                                           ConsistencySpec::Middle());
    auto sink = std::make_unique<CollectingSink>("sink");
    op->ConnectTo(sink.get(), 0);
    for (size_t i = 0; i < feed.size(); ++i) {
      if (i == split) {
        io::BinaryWriter op_bytes;
        io::BinaryWriter sink_bytes;
        op->Snapshot(&op_bytes);
        sink->Snapshot(&sink_bytes);
        op = std::make_unique<SequenceOp>(2, 10, nullptr, ScModes{}, nullptr,
                                          ConsistencySpec::Middle());
        sink = std::make_unique<CollectingSink>("sink");
        op->ConnectTo(sink.get(), 0);
        io::BinaryReader op_reader(op_bytes.bytes());
        EXPECT_TRUE(op->Restore(&op_reader).ok());
        io::BinaryReader sink_reader(sink_bytes.bytes());
        EXPECT_TRUE(sink->Restore(&sink_reader).ok());
      }
      EXPECT_TRUE(op->Push(feed[i].first, feed[i].second).ok());
    }
    for (int p = 0; p < 2; ++p) {
      EXPECT_TRUE(op->Push(p, CtiOf(kInfinity, 10)).ok());
    }
    EXPECT_TRUE(op->Drain().ok());
    EXPECT_TRUE(sink->Drain().ok());
    return sink;
  };

  std::unique_ptr<CollectingSink> uninterrupted = run(feed.size() + 1);
  std::vector<Event> composites;
  for (const Message& m : uninterrupted->messages()) {
    if (m.kind == MessageKind::kInsert) composites.push_back(m.event);
  }
  ASSERT_EQ(composites.size(), 2u);
  ASSERT_EQ(composites[0].cbt.size(), 2u);
  ASSERT_EQ(composites[1].cbt.size(), 2u);
  EXPECT_EQ(composites[0].cbt[0]->id, a.id);
  EXPECT_EQ(composites[0].cbt[0]->ve, 100);
  EXPECT_EQ(composites[1].cbt[0]->id, a.id);
  EXPECT_EQ(composites[1].cbt[0]->ve, 50);
  EXPECT_EQ(uninterrupted->retracts(), 0u);

  const std::string want = OutputBytes(*uninterrupted);
  for (size_t split = 0; split <= feed.size(); ++split) {
    EXPECT_EQ(OutputBytes(*run(split)), want) << "split " << split;
  }
}

class SequenceDisorderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SequenceDisorderTest, WellBehavedUnderDisorder) {
  Rng rng(GetParam());
  EventList a, b;
  for (int i = 0; i < 30; ++i) {
    a.push_back(E(static_cast<EventId>(i * 2 + 1), rng.NextInt(0, 100),
                  rng.NextInt(0, 2)));
    b.push_back(E(static_cast<EventId>(i * 2 + 2), rng.NextInt(0, 100),
                  rng.NextInt(0, 2)));
  }
  auto order = [](EventList* list) {
    std::sort(list->begin(), list->end(),
              [](const Event& x, const Event& y) { return x.vs < y.vs; });
  };
  order(&a);
  order(&b);

  DisorderConfig config;
  config.disorder_fraction = 0.5;
  config.max_delay = 15;
  config.cti_period = 8;
  config.seed = GetParam() + 7;
  std::vector<Message> da = ApplyDisorder(Stream(a), config);
  config.seed = GetParam() + 8;
  std::vector<Message> db = ApplyDisorder(Stream(b), config);

  EventList expected = denotation::Sequence({a, b}, 12);

  for (ConsistencySpec spec :
       {ConsistencySpec::Strong(), ConsistencySpec::Middle()}) {
    SequenceOp op(2, 12, nullptr, {}, nullptr, spec);
    auto result = RunMultiPort(&op, {da, db});
    ASSERT_TRUE(result.status.ok());
    EXPECT_TRUE(StarEqual(result.Ideal(), expected))
        << "spec " << spec.ToString() << "\ngot:\n"
        << testing::Describe(result.Ideal()) << "want:\n"
        << testing::Describe(expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequenceDisorderTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace cedr
