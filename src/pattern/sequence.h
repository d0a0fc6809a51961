// Runtime pattern detectors for the positive (monotonic) WHEN-clause
// operators: SEQUENCE, and the shared machinery reused by the counting
// family (pattern/counting.h).
//
// Out-of-order handling: positive pattern operators are monotonic - a
// straggler can only *add* matches, never invalidate one - so the
// detector stores live contributor candidates per input and, on each
// arrival, enumerates exactly the new matches that include the arrival
// at its own position. Full-removal retractions of a contributor retract
// every emitted composite it participated in (within the repair
// horizon). Under a strong spec the alignment buffers make all of this
// invisible: inputs are already ordered and final when processed.
#ifndef CEDR_PATTERN_SEQUENCE_H_
#define CEDR_PATTERN_SEQUENCE_H_

#include <map>

#include "ops/operator.h"
#include "pattern/instance.h"
#include "pattern/predicate.h"
#include "pattern/sc_mode.h"

namespace cedr {

/// Base for k-input pattern detectors with a time scope w: owns the
/// per-port candidate stores, SC modes, lineage index, and the retraction
/// and trimming logic.
class PatternOpBase : public Operator {
 public:
  PatternOpBase(int num_inputs, Duration scope, PatternTuplePredicate predicate,
                ScModes sc_modes, SchemaPtr output_schema,
                ConsistencySpec spec, std::string name);

  size_t StateSize() const override;

 protected:
  Status ProcessInsert(const Event& e, int port) override;
  Status ProcessRetract(const Event& e, Time new_ve, int port) override;
  void TrimState(Time horizon) override;
  /// Serializes the candidate stores, pending consumptions, and lineage
  /// index. SequenceOp/AtLeastOp add no further state, so this covers
  /// the whole positive-pattern family.
  void SnapshotState(io::BinaryWriter* w) const override;
  Status RestoreState(io::BinaryReader* r) override;

  /// Enumerate and emit the new matches created by `e` arriving on
  /// `port`. Called after `e` has been stored.
  virtual Status OnNewCandidate(const EventRef& e, int port) = 0;

  /// Emits a composite whose lineage shares the contributor refs
  /// `refs`, records it, applies consumption modes.
  void EmitComposite(const std::vector<const EventRef*>& refs,
                     const std::vector<int>& ports);

  const ScMode& ModeOf(int port) const;

  /// Contributors are held as shared immutable refs: stored once on
  /// arrival, then shared by every composite's lineage. A partial
  /// retraction replaces the entry with a fresh ref (copy-on-write), so
  /// lineage already emitted keeps the lifetime it was emitted with.
  using Store = std::map<std::pair<Time, EventId>, EventRef>;
  Store& store(int port) { return stores_[port]; }
  const Store& store(int port) const { return stores_[port]; }

  Duration scope_;
  PatternTuplePredicate predicate_;
  ScModes sc_modes_;
  SchemaPtr output_schema_;
  CompositeIndex emitted_;

  /// Enumeration scratch reused across arrivals: the tuple bound so far
  /// (as predicates see it), its store refs, and its input ports.
  std::vector<const Event*> tuple_;
  std::vector<const EventRef*> refs_;
  std::vector<int> ports_;

 private:
  std::vector<Store> stores_;
  std::vector<std::pair<int, EventId>> pending_consumption_;
};

/// SEQUENCE(E1, ..., Ek, w): one contributor per input, strictly
/// increasing Vs, spanning at most w.
class SequenceOp : public PatternOpBase {
 public:
  SequenceOp(int num_inputs, Duration scope, PatternTuplePredicate predicate,
             ScModes sc_modes, SchemaPtr output_schema, ConsistencySpec spec,
             std::string name = "sequence");

 protected:
  Status OnNewCandidate(const EventRef& e, int port) override;

 private:
  void Extend(int stage, const EventRef& anchor, int anchor_port);
};

}  // namespace cedr

#endif  // CEDR_PATTERN_SEQUENCE_H_
