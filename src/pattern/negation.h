// Negation operators (Section 3.3.2): UNLESS and NOT(..., SEQUENCE(...)).
//
// Negation is where the consistency spectrum bites hardest: an output
// asserting the *non-occurrence* of events can only be certain once the
// input guarantee has passed its negation scope. NegationCore implements
// the shared machinery:
//
//   strong (B = inf)  candidates are held until the combined input
//                     guarantee closes their negation window, then
//                     emitted clean - blocking grows, no retractions;
//   optimistic        candidates are emitted after at most B time units
//                     of (application-time) delay; a late-arriving
//                     blocker retracts the output, and a full removal of
//                     a blocker resurrects suppressed output - output
//                     grows, blocking stays low;
//   weak (finite M)   corrections whose targets are beyond the repair
//                     horizon are dropped and counted as lost.
#ifndef CEDR_PATTERN_NEGATION_H_
#define CEDR_PATTERN_NEGATION_H_

#include <functional>
#include <map>
#include <unordered_map>

#include "ops/operator.h"
#include "pattern/predicate.h"

namespace cedr {

class NegationCore {
 public:
  struct Callbacks {
    std::function<void(Event)> emit_insert;
    std::function<void(const Event&, Time)> emit_retract;
    std::function<void()> lost_correction;
  };

  /// `blocking` is the effective B; `blocker_retention` is how far a
  /// future candidate's window can reach behind the guarantee (0 for
  /// UNLESS, the inner sequence scope for NOT, unbounded for
  /// CANCEL-WHEN).
  NegationCore(Duration blocking, Duration blocker_retention,
               NegationPredicate predicate, Callbacks callbacks);

  /// Registers a candidate output whose negation window is
  /// (block_lo, block_hi) in Vs. `key` identifies it for cancellation
  /// (the positive contributor's id). `certain_at` is the guarantee
  /// needed for finality; `resolve_at` the watermark for optimistic
  /// emission. `tuple` is the predicate tuple: the positive contributor
  /// lineage, shared with the arriving event.
  void AddCandidate(EventId key, Event output, std::vector<EventRef> tuple,
                    Time block_lo, Time block_hi, Time certain_at,
                    Time resolve_at);

  /// A negated event occurred.
  void AddBlocker(const Event& e);
  /// A negated event was fully removed by a retraction.
  void RemoveBlocker(const Event& e);
  /// The positive side fully removed the candidate's source.
  void CancelCandidate(EventId key);

  /// Resolves due candidates. Call whenever watermark/guarantee advance,
  /// and *before* forwarding a CTI downstream.
  void Advance(Time watermark, Time guarantee);

  /// Drops final candidates and unreachable blockers; freezes (resolves)
  /// candidates whose window fell behind the horizon.
  void Trim(Time horizon, Time guarantee);

  size_t StateSize() const;

  /// Serializes candidates, resolution indexes, blockers, and frontier
  /// bookkeeping. The indexes are written verbatim (not rebuilt) so the
  /// equal-key insertion order - the resolution order - survives
  /// recovery.
  void Snapshot(io::BinaryWriter* w) const;
  Status Restore(io::BinaryReader* r);

 private:
  enum class State { kPending, kEmitted, kSuppressed, kRetracted };

  struct Candidate {
    EventId key = 0;
    Event output;
    std::vector<EventRef> tuple;
    Time block_lo = 0;
    Time block_hi = 0;
    Time certain_at = 0;
    Time resolve_at = 0;
    State state = State::kPending;
    uint64_t generation = 0;
  };

  bool IsBlocked(const Candidate& c) const;
  void Resolve(Candidate* c);
  void EmitCandidate(Candidate* c);
  /// The candidate's tuple as predicates see it, in a reused scratch
  /// vector (valid until the next call).
  const std::vector<const Event*>& TuplePtrs(const Candidate& c) const;
  /// Applies fn to every candidate whose window contains vs.
  template <typename Fn>
  void ForEachAffected(Time vs, Fn fn);

  Duration blocking_;
  Duration blocker_retention_;
  NegationPredicate predicate_;
  Callbacks callbacks_;

  std::unordered_map<EventId, Candidate> candidates_;  // by key
  std::multimap<Time, EventId> by_block_lo_;
  std::multimap<Time, EventId> by_resolve_at_;
  std::multimap<Time, EventId> by_certain_at_;
  std::map<std::pair<Time, EventId>, Event> blockers_;  // by (vs, id)
  Duration max_window_ = 0;  // kInfinity once an unbounded window is seen
  Time last_watermark_ = kMinTime;
  Time last_guarantee_ = kMinTime;
  Time trim_frontier_ = kMinTime;
  mutable std::vector<const Event*> tuple_scratch_;
};

/// The predicate tuple of a positive input event: its contributor
/// lineage, or the event itself (one fresh ref) when it is primitive.
std::vector<EventRef> NegationTuple(const Event& e);

/// UNLESS(E1, E2, w): port 0 carries E1 outputs, port 1 carries E2.
/// Output lifetime [e1.Vs, e1.Vs + w); negation window (e1.Vs, e1.Vs+w).
class UnlessOp : public Operator {
 public:
  UnlessOp(Duration scope, NegationPredicate predicate, ConsistencySpec spec,
           std::string name = "unless");

  size_t StateSize() const override { return core_->StateSize(); }

 protected:
  Status ProcessInsert(const Event& e, int port) override;
  Status ProcessRetract(const Event& e, Time new_ve, int port) override;
  Status ProcessCti(Time t, int port) override;
  void TrimState(Time horizon) override;
  /// Output corrections can reach back w behind the input guarantee.
  Time OutputGuarantee(Time input_guarantee) const override {
    return TimeSub(input_guarantee, scope_);
  }
  void SnapshotState(io::BinaryWriter* w) const override;
  Status RestoreState(io::BinaryReader* r) override;

 private:
  Duration scope_;
  std::unique_ptr<NegationCore> core_;
};

/// UNLESS'(E1, E2, n, w): the paper's flexible variant - the negation
/// scope is anchored at the n-th (1-based) contributor of the E1
/// composite. Output Vs = max(e1.Vs, cbt[n].Vs + w), Ve = e1.Vs + w.
class UnlessPrimeOp : public Operator {
 public:
  UnlessPrimeOp(size_t n, Duration scope, NegationPredicate predicate,
                ConsistencySpec spec, std::string name = "unless_prime");

  size_t StateSize() const override { return core_->StateSize(); }

 protected:
  Status ProcessInsert(const Event& e, int port) override;
  Status ProcessRetract(const Event& e, Time new_ve, int port) override;
  Status ProcessCti(Time t, int port) override;
  void TrimState(Time horizon) override;
  Time OutputGuarantee(Time input_guarantee) const override {
    return TimeSub(input_guarantee, scope_);
  }
  void SnapshotState(io::BinaryWriter* w) const override;
  Status RestoreState(io::BinaryReader* r) override;

 private:
  size_t n_;
  Duration scope_;
  std::unique_ptr<NegationCore> core_;
};

/// NOT(E, SEQUENCE(...)): port 0 carries the inner sequence's composite
/// outputs (with lineage), port 1 carries the negated E events. An
/// output survives iff no E event falls strictly between the first and
/// last contributor's Vs.
class NotSequenceOp : public Operator {
 public:
  /// `lookback` bounds how far a composite's window reaches behind its
  /// own Vs - the inner sequence's scope.
  NotSequenceOp(Duration lookback, NegationPredicate predicate,
                ConsistencySpec spec, std::string name = "not");

  size_t StateSize() const override { return core_->StateSize(); }

 protected:
  Status ProcessInsert(const Event& e, int port) override;
  Status ProcessRetract(const Event& e, Time new_ve, int port) override;
  Status ProcessCti(Time t, int port) override;
  void TrimState(Time horizon) override;
  void SnapshotState(io::BinaryWriter* w) const override;
  Status RestoreState(io::BinaryReader* r) override;

 private:
  std::unique_ptr<NegationCore> core_;
};

}  // namespace cedr

#endif  // CEDR_PATTERN_NEGATION_H_
