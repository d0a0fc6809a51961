#include "pattern/sequence.h"

#include <algorithm>

namespace cedr {

PatternOpBase::PatternOpBase(int num_inputs, Duration scope,
                             PatternTuplePredicate predicate, ScModes sc_modes,
                             SchemaPtr output_schema, ConsistencySpec spec,
                             std::string name)
    : Operator(std::move(name), spec, num_inputs),
      scope_(scope),
      predicate_(predicate ? std::move(predicate) : TruePatternPredicate()),
      sc_modes_(std::move(sc_modes)),
      output_schema_(std::move(output_schema)),
      stores_(num_inputs) {
  sc_modes_.resize(num_inputs);
  // TrimState here is a pure trim keyed on (Vs + scope, horizon): safe
  // to run only when the horizon advances.
  trim_on_advance_ = true;
}

size_t PatternOpBase::StateSize() const {
  size_t n = emitted_.size();
  for (const Store& s : stores_) n += s.size();
  return n;
}

const ScMode& PatternOpBase::ModeOf(int port) const {
  return sc_modes_[port];
}

Status PatternOpBase::ProcessInsert(const Event& e, int port) {
  if (e.valid().empty()) return Status::OK();
  // The one copy of a contributor: the store and every composite built
  // from it share this ref. A duplicate (vs, id) keeps the stored ref
  // but still enumerates with the arrival.
  EventRef ref = std::make_shared<const Event>(e);
  stores_[port].emplace(std::make_pair(e.vs, e.id), ref);
  Status st = OnNewCandidate(ref, port);
  // Consumption is applied after enumeration so one arrival sees a
  // consistent candidate snapshot.
  for (const auto& [p, id] : pending_consumption_) {
    for (auto it = stores_[p].begin(); it != stores_[p].end(); ++it) {
      if (it->first.second == id) {
        stores_[p].erase(it);
        break;
      }
    }
  }
  pending_consumption_.clear();
  return st;
}

Status PatternOpBase::ProcessRetract(const Event& e, Time new_ve, int port) {
  const bool full_removal = new_ve <= e.vs;
  bool found = false;
  auto it = stores_[port].find(std::make_pair(e.vs, e.id));
  if (it != stores_[port].end()) {
    found = true;
    if (full_removal) {
      stores_[port].erase(it);
    } else if (new_ve < it->second->ve) {
      // Copy-on-write: composites already emitted share the old ref and
      // keep the lifetime they were emitted with.
      Event shrunk = *it->second;
      shrunk.ve = new_ve;
      it->second = std::make_shared<const Event>(std::move(shrunk));
    }
  }
  if (full_removal) {
    // Every composite this contributor participated in is invalidated.
    std::vector<Event> invalidated = emitted_.TakeByContributor(e.id);
    for (const Event& composite : invalidated) {
      EmitRetract(composite, composite.vs);
    }
    if (!found && invalidated.empty()) CountLostCorrection();
  }
  // Partial lifetime shrink does not affect sequencing (contributor
  // occurrence is its Vs), so nothing else to repair.
  return Status::OK();
}

void PatternOpBase::TrimState(Time horizon) {
  for (Store& s : stores_) {
    // A candidate can still combine with future events (sync >= horizon)
    // only while its Vs + scope reaches the horizon.
    for (auto it = s.begin(); it != s.end();) {
      if (TimeAdd(it->first.first, scope_) <= horizon) {
        it = s.erase(it);
      } else {
        break;  // store is ordered by Vs
      }
    }
  }
  emitted_.Trim(horizon);
}

void PatternOpBase::EmitComposite(const std::vector<const EventRef*>& refs,
                                  const std::vector<int>& ports) {
  std::vector<EventRef> lineage;
  lineage.reserve(refs.size());
  for (const EventRef* r : refs) lineage.push_back(*r);
  Event composite =
      MakeCompositeEvent(std::move(lineage), scope_, output_schema_);
  // A tuple spanning exactly the scope has an empty lifetime: no match.
  if (composite.valid().empty()) return;
  emitted_.Record(composite);
  for (size_t i = 0; i < refs.size(); ++i) {
    if (ModeOf(ports[i]).consumption == ConsumptionMode::kConsume) {
      pending_consumption_.emplace_back(ports[i], (*refs[i])->id);
    }
  }
  EmitInsert(std::move(composite));
}

void PatternOpBase::SnapshotState(io::BinaryWriter* w) const {
  w->PutU64(stores_.size());
  for (const Store& s : stores_) {
    w->PutU64(s.size());
    for (const auto& [key, e] : s) io::WriteEvent(w, *e);
  }
  w->PutU64(pending_consumption_.size());
  for (const auto& [port, id] : pending_consumption_) {
    w->PutU64(static_cast<uint64_t>(port));
    w->PutU64(id);
  }
  emitted_.Snapshot(w);
}

Status PatternOpBase::RestoreState(io::BinaryReader* r) {
  CEDR_ASSIGN_OR_RETURN(uint64_t num_stores, r->GetU64());
  if (num_stores != stores_.size()) {
    return Status::Corruption("pattern snapshot: store count mismatch");
  }
  for (Store& s : stores_) {
    s.clear();
    CEDR_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
    for (uint64_t i = 0; i < n; ++i) {
      CEDR_ASSIGN_OR_RETURN(Event e, io::ReadEvent(r));
      auto key = std::make_pair(e.vs, e.id);
      s.emplace(key, std::make_shared<const Event>(std::move(e)));
    }
  }
  CEDR_ASSIGN_OR_RETURN(uint64_t num_pending, r->GetU64());
  pending_consumption_.clear();
  for (uint64_t i = 0; i < num_pending; ++i) {
    CEDR_ASSIGN_OR_RETURN(uint64_t port, r->GetU64());
    if (port >= stores_.size()) {
      return Status::Corruption("pattern snapshot: pending port out of range");
    }
    CEDR_ASSIGN_OR_RETURN(EventId id, r->GetU64());
    pending_consumption_.emplace_back(static_cast<int>(port), id);
  }
  return emitted_.Restore(r);
}

SequenceOp::SequenceOp(int num_inputs, Duration scope,
                       PatternTuplePredicate predicate, ScModes sc_modes,
                       SchemaPtr output_schema, ConsistencySpec spec,
                       std::string name)
    : PatternOpBase(num_inputs, scope, std::move(predicate),
                    std::move(sc_modes), std::move(output_schema), spec,
                    std::move(name)) {}

Status SequenceOp::OnNewCandidate(const EventRef& e, int port) {
  tuple_.clear();
  refs_.clear();
  ports_.clear();
  Extend(/*stage=*/0, e, port);
  return Status::OK();
}

void SequenceOp::Extend(int stage, const EventRef& anchor_ref,
                        int anchor_port) {
  const int k = num_inputs();
  if (stage == k) {
    EmitComposite(refs_, ports_);
    return;
  }
  const Event& anchor = *anchor_ref;

  auto try_candidate = [&](const EventRef& ref) -> bool {
    const Event& candidate = *ref;
    if (!tuple_.empty()) {
      if (candidate.vs <= tuple_.back()->vs) return false;
      if (candidate.vs - tuple_.front()->vs > scope_) return false;
    }
    if (stage < anchor_port) {
      if (candidate.vs >= anchor.vs) return false;
      if (anchor.vs - candidate.vs > scope_) return false;
    }
    tuple_.push_back(&candidate);
    refs_.push_back(&ref);
    ports_.push_back(stage);
    if (predicate_(tuple_, ports_)) {
      Extend(stage + 1, anchor_ref, anchor_port);
    }
    tuple_.pop_back();
    refs_.pop_back();
    ports_.pop_back();
    return true;
  };

  if (stage == anchor_port) {
    try_candidate(anchor_ref);
    return;
  }

  // Range of admissible Vs in this port's store.
  Time lo = kMinTime;
  if (!tuple_.empty()) lo = std::max(lo, TimeAdd(tuple_.back()->vs, 1));
  if (stage < anchor_port && scope_ != kInfinity) {
    lo = std::max(lo, TimeSub(anchor.vs, scope_));
  }
  const Store& s = store(stage);
  auto begin = s.lower_bound(std::make_pair(lo, EventId{0}));

  const SelectionMode mode = ModeOf(stage).selection;
  if (mode == SelectionMode::kLast) {
    // Walk backwards from the end of the admissible range (exclusive
    // upper bound on Vs).
    Time hi = kInfinity;
    if (stage < anchor_port) hi = anchor.vs;
    if (!tuple_.empty()) {
      hi = std::min(hi, TimeAdd(TimeAdd(tuple_.front()->vs, scope_), 1));
    }
    auto end = hi == kInfinity ? s.end()
                               : s.lower_bound(std::make_pair(hi, EventId{0}));
    while (end != begin) {
      --end;
      if (try_candidate(end->second)) return;  // admissible: only the last
    }
    return;
  }

  for (auto it = begin; it != s.end(); ++it) {
    if (stage < anchor_port && it->first.first >= anchor.vs) break;
    if (!tuple_.empty() && it->first.first - tuple_.front()->vs > scope_) {
      break;
    }
    bool admissible = try_candidate(it->second);
    if (admissible && mode == SelectionMode::kFirst) return;
  }
}

}  // namespace cedr
