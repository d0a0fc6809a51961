// Composite-instance construction and bookkeeping shared by the runtime
// pattern detectors.
#ifndef CEDR_PATTERN_INSTANCE_H_
#define CEDR_PATTERN_INSTANCE_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "io/serde.h"
#include "stream/event.h"

namespace cedr {

/// Builds the composite event of the Section 3.3.2 operator tables from
/// an ordered contributor tuple: id = idgen(contributor ids),
/// Os/Oe/Vs from the last contributor, Ve = first.Vs + w, rt = min root
/// time, lineage [e1..en], payload = concatenated contributor payloads
/// under `schema` (may be null). The contributors are immutable and
/// shared: the lineage header holds the tuple's refs, not copies.
Event MakeCompositeEvent(std::vector<EventRef> tuple, Duration w,
                         const SchemaPtr& schema);

/// Same, for contributors the caller does not hold as shared refs: each
/// one is copied once into the lineage.
Event MakeCompositeEvent(const std::vector<const Event*>& tuple, Duration w,
                         const SchemaPtr& schema);

/// Index from contributor event id to the composite outputs it
/// participates in, used to retract composites when a contributor is
/// removed by a full retraction. Retirement costs O(expired): a (ve, id)
/// min-heap orders the composites by expiry, and a composite leaving the
/// index (trimmed or taken) is unlinked from its contributors' lists at
/// once, so the lists never hold ids of composites that are gone.
class CompositeIndex {
 public:
  void Record(const Event& composite);

  /// Removes and returns the live composites involving `contributor`.
  std::vector<Event> TakeByContributor(EventId contributor);

  /// Forgets composites whose lifetime ended at or before `horizon`.
  void Trim(Time horizon);

  size_t size() const { return composites_.size(); }

  /// Serializes the live composites and the contributor index (the
  /// index's vector order matters: it is the retraction emission order).
  /// The expiry heap is not written; Restore rebuilds it.
  void Snapshot(io::BinaryWriter* w) const;
  Status Restore(io::BinaryReader* r);

 private:
  using Expiry = std::pair<Time, EventId>;

  /// Drops ids of composites no longer in composites_ from the lists of
  /// the contributors in touched_ (each list is swept once).
  void UnlinkTouched();
  void RebuildExpiry();

  std::unordered_map<EventId, Event> composites_;
  std::unordered_map<EventId, std::vector<EventId>> by_contributor_;
  /// Min-heap (std::greater) of (ve, id), one entry per Record. Entries
  /// of composites already taken, or recorded again, are skipped when
  /// they surface.
  std::vector<Expiry> expiry_;
  std::vector<EventId> touched_;  // scratch for UnlinkTouched
};

}  // namespace cedr

#endif  // CEDR_PATTERN_INSTANCE_H_
