// Composite construction (Section 3.3.1 header semantics) and the
// contributor-lineage index.
#include "pattern/instance.h"

#include <gtest/gtest.h>

#include "testing/helpers.h"

namespace cedr {
namespace {

using testing::KV;

TEST(MakeCompositeEventTest, HeaderFieldsPerPaper) {
  Event a = MakeEvent(1, 3, 4, KV(1, 10));
  Event b = MakeEvent(2, 9, 10, KV(2, 20));
  b.os = 9;
  b.oe = 42;
  std::vector<const Event*> tuple = {&a, &b};
  Event c = MakeCompositeEvent(tuple, /*w=*/20, nullptr);
  EXPECT_EQ(c.id, IdGen({1, 2}));
  EXPECT_EQ(c.vs, 9);          // last contributor's Vs
  EXPECT_EQ(c.ve, 3 + 20);     // first contributor's Vs + w
  EXPECT_EQ(c.os, 9);          // Os/Oe from the last contributor
  EXPECT_EQ(c.oe, 42);
  EXPECT_EQ(c.rt, 3);          // min root time
  ASSERT_EQ(c.cbt.size(), 2u);
  EXPECT_EQ(c.cbt[0]->id, 1u);
  EXPECT_EQ(c.payload.size(), 4u);  // concatenated payloads
  EXPECT_EQ(c.payload.at(2), Value(2));
}

TEST(MakeCompositeEventTest, RootTimePropagatesThroughNesting) {
  Event a = MakeEvent(1, 3, 4);
  Event b = MakeEvent(2, 9, 10);
  std::vector<const Event*> inner_tuple = {&a, &b};
  Event inner = MakeCompositeEvent(inner_tuple, 20, nullptr);
  Event c = MakeEvent(3, 15, 16);
  std::vector<const Event*> outer_tuple = {&inner, &c};
  Event outer = MakeCompositeEvent(outer_tuple, 30, nullptr);
  EXPECT_EQ(outer.rt, 3);  // min over the whole lineage
}

TEST(CompositeIndexTest, TakeByContributor) {
  CompositeIndex index;
  Event a = MakeEvent(1, 3, 4);
  Event b = MakeEvent(2, 9, 10);
  Event c = MakeEvent(3, 12, 13);
  std::vector<const Event*> t1 = {&a, &b};
  std::vector<const Event*> t2 = {&a, &c};
  Event c1 = MakeCompositeEvent(t1, 20, nullptr);
  Event c2 = MakeCompositeEvent(t2, 20, nullptr);
  index.Record(c1);
  index.Record(c2);
  EXPECT_EQ(index.size(), 2u);

  // Removing contributor b invalidates only c1.
  std::vector<Event> taken = index.TakeByContributor(b.id);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].id, c1.id);
  EXPECT_EQ(index.size(), 1u);

  // Removing a invalidates the rest; already-taken composites are gone.
  taken = index.TakeByContributor(a.id);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].id, c2.id);
  EXPECT_EQ(index.size(), 0u);
}

TEST(CompositeIndexTest, TakeUnknownContributorIsEmpty) {
  CompositeIndex index;
  EXPECT_TRUE(index.TakeByContributor(99).empty());
}

TEST(CompositeIndexTest, TrimDropsFinishedComposites) {
  CompositeIndex index;
  Event a = MakeEvent(1, 3, 4);
  std::vector<const Event*> tuple = {&a};
  Event composite = MakeCompositeEvent(tuple, 10, nullptr);  // [3, 13)
  index.Record(composite);
  index.Trim(10);
  EXPECT_EQ(index.size(), 1u);
  index.Trim(13);
  EXPECT_EQ(index.size(), 0u);
  EXPECT_TRUE(index.TakeByContributor(a.id).empty());
}

std::string SnapshotBytes(const CompositeIndex& index) {
  io::BinaryWriter w;
  index.Snapshot(&w);
  return w.Take();
}

Event Composite(std::vector<const Event*> tuple, Duration w) {
  return MakeCompositeEvent(tuple, w, nullptr);
}

TEST(CompositeIndexTest, TakeLeavesNoStaleIds) {
  Event a = MakeEvent(1, 3, 4);
  Event b = MakeEvent(2, 9, 10);
  Event c = MakeEvent(3, 12, 13);
  Event d = MakeEvent(4, 14, 15);
  Event ab = Composite({&a, &b}, 20);
  Event ac = Composite({&a, &c}, 20);
  Event bd = Composite({&b, &d}, 20);

  CompositeIndex index;
  index.Record(ab);
  index.Record(ac);
  index.Record(bd);
  std::vector<Event> taken = index.TakeByContributor(b.id);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].id, ab.id);  // recording order
  EXPECT_EQ(taken[1].id, bd.id);

  // a's and d's lists no longer mention the taken composites.
  CompositeIndex never_taken;
  never_taken.Record(ac);
  EXPECT_EQ(SnapshotBytes(index), SnapshotBytes(never_taken));
}

TEST(CompositeIndexTest, RestoreRebuildsExpiryOrder) {
  Event a = MakeEvent(1, 3, 4);
  Event b = MakeEvent(2, 9, 10);
  Event c = MakeEvent(3, 12, 13);
  Event ab = Composite({&a, &b}, 10);  // [9, 13)
  Event bc = Composite({&b, &c}, 10);  // [12, 19)
  Event c_only = Composite({&c}, 30);  // [12, 42)

  CompositeIndex original;
  original.Record(c_only);
  original.Record(bc);
  original.Record(ab);
  const std::string bytes = SnapshotBytes(original);

  CompositeIndex restored;
  io::BinaryReader r(bytes);
  ASSERT_TRUE(restored.Restore(&r).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(SnapshotBytes(restored), bytes);

  restored.Trim(12);
  EXPECT_EQ(restored.size(), 3u);  // nothing has ve <= 12
  restored.Trim(19);
  CompositeIndex survivors;
  survivors.Record(c_only);
  EXPECT_EQ(restored.size(), 1u);  // ab (ve 13) and bc (ve 19) dropped
  EXPECT_EQ(SnapshotBytes(restored), SnapshotBytes(survivors));
  restored.Trim(42);
  EXPECT_EQ(restored.size(), 0u);
  EXPECT_EQ(SnapshotBytes(restored), SnapshotBytes(CompositeIndex()));
}

TEST(CompositeIndexTest, CompositeRecordedTwiceIsTrimmedOnce) {
  Event a = MakeEvent(1, 3, 4);
  Event b = MakeEvent(2, 9, 10);
  Event ab = Composite({&a, &b}, 10);  // [9, 13)
  Event b_only = Composite({&b}, 10);  // [9, 19)

  CompositeIndex index;
  index.Record(ab);
  index.Record(ab);
  index.Record(b_only);
  EXPECT_EQ(index.size(), 2u);
  index.Trim(13);
  EXPECT_EQ(index.size(), 1u);
  CompositeIndex survivors;
  survivors.Record(b_only);
  EXPECT_EQ(SnapshotBytes(index), SnapshotBytes(survivors));

  // Recorded again after being trimmed: the old heap entries are gone,
  // the new one retires it at its own expiry.
  index.Record(ab);
  index.Trim(13);
  EXPECT_EQ(index.size(), 1u);
  EXPECT_EQ(SnapshotBytes(index), SnapshotBytes(survivors));
  std::vector<Event> taken = index.TakeByContributor(b.id);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].id, b_only.id);
}

}  // namespace
}  // namespace cedr
