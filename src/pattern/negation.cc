#include "pattern/negation.h"

#include <algorithm>

namespace cedr {

NegationCore::NegationCore(Duration blocking, Duration blocker_retention,
                           NegationPredicate predicate, Callbacks callbacks)
    : blocking_(blocking),
      blocker_retention_(blocker_retention),
      predicate_(predicate ? std::move(predicate) : TrueNegationPredicate()),
      callbacks_(std::move(callbacks)) {}

std::vector<EventRef> NegationTuple(const Event& e) {
  if (!e.cbt.empty()) return e.cbt;
  return {std::make_shared<const Event>(e)};
}

const std::vector<const Event*>& NegationCore::TuplePtrs(
    const Candidate& c) const {
  tuple_scratch_.clear();
  for (const EventRef& e : c.tuple) tuple_scratch_.push_back(e.get());
  return tuple_scratch_;
}

bool NegationCore::IsBlocked(const Candidate& c) const {
  if (c.block_lo >= c.block_hi) return false;
  auto begin = blockers_.lower_bound(
      std::make_pair(TimeAdd(c.block_lo, 1), EventId{0}));
  const std::vector<const Event*>* tuple = nullptr;
  for (auto it = begin; it != blockers_.end(); ++it) {
    if (it->first.first >= c.block_hi) break;
    if (tuple == nullptr) tuple = &TuplePtrs(c);
    if (predicate_(*tuple, it->second)) return true;
  }
  return false;
}

void NegationCore::AddCandidate(EventId key, Event output,
                                std::vector<EventRef> tuple, Time block_lo,
                                Time block_hi, Time certain_at,
                                Time resolve_at) {
  Duration window = block_hi == kInfinity || block_lo == kMinTime
                        ? kInfinity
                        : block_hi - block_lo;
  max_window_ = max_window_ == kInfinity ? kInfinity
                                         : std::max(max_window_, window);

  auto [it, inserted] = candidates_.try_emplace(key);
  if (!inserted) return;  // duplicate key: first wins
  Candidate& c = it->second;
  c.key = key;
  c.output = std::move(output);
  c.tuple = std::move(tuple);
  c.block_lo = block_lo;
  c.block_hi = block_hi;
  c.certain_at = certain_at;
  c.resolve_at = resolve_at;
  by_block_lo_.emplace(block_lo, key);
  by_resolve_at_.emplace(resolve_at, key);
  by_certain_at_.emplace(certain_at, key);
  // It may already be due.
  Advance(last_watermark_, last_guarantee_);
}

void NegationCore::Resolve(Candidate* c) {
  if (c->state != State::kPending) return;
  if (IsBlocked(*c)) {
    c->state = State::kSuppressed;
    return;
  }
  EmitCandidate(c);
}

void NegationCore::EmitCandidate(Candidate* c) {
  if (c->generation > 0) {
    // Re-emission after a full retraction: fresh identity (Section 4's
    // remove-and-reinsert protocol). c->output keeps the identity
    // actually emitted.
    c->output.id = IdGen({c->output.id, c->generation});
    c->output.k = c->output.id;
  }
  ++c->generation;
  c->state = State::kEmitted;
  callbacks_.emit_insert(c->output);
}

void NegationCore::AddBlocker(const Event& e) {
  if (e.vs < trim_frontier_) {
    // The region this blocker falls in is frozen: any output it should
    // have suppressed is beyond repair (weak consistency).
    callbacks_.lost_correction();
    return;
  }
  blockers_.emplace(std::make_pair(e.vs, e.id), e);
  ForEachAffected(e.vs, [&](Candidate* c) {
    if (c->state != State::kEmitted) return;
    if (!predicate_(TuplePtrs(*c), e)) return;
    callbacks_.emit_retract(c->output, c->output.vs);
    c->state = State::kRetracted;
  });
}

void NegationCore::RemoveBlocker(const Event& e) {
  auto it = blockers_.find(std::make_pair(e.vs, e.id));
  if (it == blockers_.end()) {
    // Possibly already trimmed: the blocker (and any suppression it
    // caused) is beyond repair.
    if (e.vs <= trim_frontier_) callbacks_.lost_correction();
    return;
  }
  blockers_.erase(it);
  ForEachAffected(e.vs, [&](Candidate* c) {
    if (c->state != State::kSuppressed && c->state != State::kRetracted) {
      return;
    }
    if (IsBlocked(*c)) return;  // another blocker still applies
    // Resurrect: emit now if due, otherwise go back to pending.
    bool due = last_guarantee_ >= c->certain_at ||
               (blocking_ != kInfinity && last_watermark_ >= c->resolve_at);
    if (due) {
      EmitCandidate(c);
    } else {
      // Back to pending; its resolution index entries may already have
      // been consumed, so re-register.
      c->state = State::kPending;
      by_resolve_at_.emplace(c->resolve_at, c->key);
      by_certain_at_.emplace(c->certain_at, c->key);
    }
  });
}

void NegationCore::CancelCandidate(EventId key) {
  auto it = candidates_.find(key);
  if (it == candidates_.end()) {
    callbacks_.lost_correction();
    return;
  }
  if (it->second.state == State::kEmitted) {
    callbacks_.emit_retract(it->second.output, it->second.output.vs);
  }
  // Erase all index entries lazily: indices may hold stale keys; they are
  // skipped when the candidate no longer exists.
  candidates_.erase(it);
}

template <typename Fn>
void NegationCore::ForEachAffected(Time vs, Fn fn) {
  // Candidates whose (block_lo, block_hi) contains vs have
  // block_lo < vs and block_hi > vs. block_lo ranges over
  // [vs - max_window, vs).
  auto begin = max_window_ == kInfinity
                   ? by_block_lo_.begin()
                   : by_block_lo_.lower_bound(TimeSub(vs, max_window_));
  for (auto it = begin; it != by_block_lo_.end();) {
    if (it->first >= vs) break;
    auto cit = candidates_.find(it->second);
    if (cit == candidates_.end()) {
      it = by_block_lo_.erase(it);  // stale index entry
      continue;
    }
    Candidate& c = cit->second;
    if (c.block_lo < vs && vs < c.block_hi) fn(&c);
    ++it;
  }
}

void NegationCore::Advance(Time watermark, Time guarantee) {
  last_watermark_ = std::max(last_watermark_, watermark);
  last_guarantee_ = std::max(last_guarantee_, guarantee);

  // Certainty-based resolution (the only path when B = inf).
  while (!by_certain_at_.empty() &&
         by_certain_at_.begin()->first <= last_guarantee_) {
    EventId key = by_certain_at_.begin()->second;
    by_certain_at_.erase(by_certain_at_.begin());
    auto it = candidates_.find(key);
    if (it != candidates_.end()) Resolve(&it->second);
  }
  if (blocking_ == kInfinity) return;

  // Optimistic resolution after at most B application-time units.
  while (!by_resolve_at_.empty() &&
         by_resolve_at_.begin()->first <= last_watermark_) {
    EventId key = by_resolve_at_.begin()->second;
    by_resolve_at_.erase(by_resolve_at_.begin());
    auto it = candidates_.find(key);
    if (it != candidates_.end()) Resolve(&it->second);
  }
}

void NegationCore::Trim(Time horizon, Time guarantee) {
  Advance(last_watermark_, guarantee);
  trim_frontier_ = std::max(trim_frontier_, horizon);

  for (auto it = candidates_.begin(); it != candidates_.end();) {
    Candidate& c = it->second;
    bool final_by_guarantee =
        c.state != State::kPending && c.certain_at <= last_guarantee_;
    bool frozen = c.block_hi <= horizon && c.output.ve <= horizon;
    if (frozen && c.state == State::kPending) {
      Resolve(&c);  // freeze: decide from what is known
    }
    if (final_by_guarantee || (frozen && c.state != State::kPending)) {
      it = candidates_.erase(it);
    } else {
      ++it;
    }
  }

  // Blockers can affect future candidates whose windows reach back at
  // most blocker_retention behind the guarantee.
  while (!blockers_.empty()) {
    Time vs = blockers_.begin()->first.first;
    if (TimeAdd(vs, blocker_retention_) > horizon) break;
    blockers_.erase(blockers_.begin());
  }

  // Compact stale index entries.
  auto compact = [this](std::multimap<Time, EventId>* index) {
    for (auto it = index->begin(); it != index->end();) {
      if (candidates_.count(it->second) == 0) {
        it = index->erase(it);
      } else {
        ++it;
      }
    }
  };
  if (by_block_lo_.size() > 2 * candidates_.size() + 16) {
    compact(&by_block_lo_);
  }
  if (by_resolve_at_.size() > 2 * candidates_.size() + 16) {
    compact(&by_resolve_at_);
  }
  if (by_certain_at_.size() > 2 * candidates_.size() + 16) {
    compact(&by_certain_at_);
  }
}

size_t NegationCore::StateSize() const {
  return candidates_.size() + blockers_.size();
}

namespace {

void WriteIndex(io::BinaryWriter* w,
                const std::multimap<Time, EventId>& index) {
  w->PutU64(index.size());
  for (const auto& [t, id] : index) {
    w->PutTime(t);
    w->PutU64(id);
  }
}

Status ReadIndex(io::BinaryReader* r, std::multimap<Time, EventId>* index) {
  index->clear();
  CEDR_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  for (uint64_t i = 0; i < n; ++i) {
    CEDR_ASSIGN_OR_RETURN(Time t, r->GetTime());
    CEDR_ASSIGN_OR_RETURN(EventId id, r->GetU64());
    // emplace_hint at end preserves the serialized equal-key order.
    index->emplace_hint(index->end(), t, id);
  }
  return Status::OK();
}

}  // namespace

void NegationCore::Snapshot(io::BinaryWriter* w) const {
  // Candidates sorted by key for deterministic snapshot bytes (lookups
  // go through the indexes, which are serialized verbatim below).
  std::map<EventId, const Candidate*> sorted;
  for (const auto& [key, c] : candidates_) sorted.emplace(key, &c);
  w->PutU64(sorted.size());
  for (const auto& [key, c] : sorted) {
    w->PutU64(c->key);
    io::WriteEvent(w, c->output);
    w->PutU64(c->tuple.size());
    for (const EventRef& e : c->tuple) io::WriteEvent(w, *e);
    w->PutTime(c->block_lo);
    w->PutTime(c->block_hi);
    w->PutTime(c->certain_at);
    w->PutTime(c->resolve_at);
    w->PutU8(static_cast<uint8_t>(c->state));
    w->PutU64(c->generation);
  }
  WriteIndex(w, by_block_lo_);
  WriteIndex(w, by_resolve_at_);
  WriteIndex(w, by_certain_at_);
  w->PutU64(blockers_.size());
  for (const auto& [key, e] : blockers_) io::WriteEvent(w, e);
  w->PutI64(max_window_);
  w->PutTime(last_watermark_);
  w->PutTime(last_guarantee_);
  w->PutTime(trim_frontier_);
}

Status NegationCore::Restore(io::BinaryReader* r) {
  candidates_.clear();
  CEDR_ASSIGN_OR_RETURN(uint64_t num_candidates, r->GetU64());
  for (uint64_t i = 0; i < num_candidates; ++i) {
    Candidate c;
    CEDR_ASSIGN_OR_RETURN(c.key, r->GetU64());
    CEDR_ASSIGN_OR_RETURN(c.output, io::ReadEvent(r));
    CEDR_ASSIGN_OR_RETURN(std::vector<Event> tuple, io::ReadEvents(r));
    c.tuple.reserve(tuple.size());
    for (Event& e : tuple) {
      c.tuple.push_back(std::make_shared<const Event>(std::move(e)));
    }
    CEDR_ASSIGN_OR_RETURN(c.block_lo, r->GetTime());
    CEDR_ASSIGN_OR_RETURN(c.block_hi, r->GetTime());
    CEDR_ASSIGN_OR_RETURN(c.certain_at, r->GetTime());
    CEDR_ASSIGN_OR_RETURN(c.resolve_at, r->GetTime());
    CEDR_ASSIGN_OR_RETURN(uint8_t state, r->GetU8());
    if (state > static_cast<uint8_t>(State::kRetracted)) {
      return Status::Corruption("negation snapshot: invalid candidate state");
    }
    c.state = static_cast<State>(state);
    CEDR_ASSIGN_OR_RETURN(c.generation, r->GetU64());
    EventId key = c.key;
    candidates_.emplace(key, std::move(c));
  }
  CEDR_RETURN_NOT_OK(ReadIndex(r, &by_block_lo_));
  CEDR_RETURN_NOT_OK(ReadIndex(r, &by_resolve_at_));
  CEDR_RETURN_NOT_OK(ReadIndex(r, &by_certain_at_));
  blockers_.clear();
  CEDR_ASSIGN_OR_RETURN(uint64_t num_blockers, r->GetU64());
  for (uint64_t i = 0; i < num_blockers; ++i) {
    CEDR_ASSIGN_OR_RETURN(Event e, io::ReadEvent(r));
    auto key = std::make_pair(e.vs, e.id);
    blockers_.emplace(key, std::move(e));
  }
  CEDR_ASSIGN_OR_RETURN(max_window_, r->GetI64());
  CEDR_ASSIGN_OR_RETURN(last_watermark_, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(last_guarantee_, r->GetTime());
  CEDR_ASSIGN_OR_RETURN(trim_frontier_, r->GetTime());
  return Status::OK();
}

UnlessOp::UnlessOp(Duration scope, NegationPredicate predicate,
                   ConsistencySpec spec, std::string name)
    : Operator(std::move(name), spec, /*num_inputs=*/2), scope_(scope) {
  NegationCore::Callbacks callbacks;
  callbacks.emit_insert = [this](Event e) { EmitInsert(std::move(e)); };
  callbacks.emit_retract = [this](const Event& e, Time t) {
    EmitRetract(e, t);
  };
  callbacks.lost_correction = [this]() { CountLostCorrection(); };
  // Pending candidates wait until the guarantee reaches vs + w, so their
  // windows reach back up to `scope` behind the guarantee: blockers must
  // be retained that long.
  core_ = std::make_unique<NegationCore>(
      this->spec().max_blocking, /*blocker_retention=*/scope,
      std::move(predicate), std::move(callbacks));
}

Status UnlessOp::ProcessInsert(const Event& e, int port) {
  if (port == 1) {
    core_->AddBlocker(e);
    return Status::OK();
  }
  // The predicate tuple exposes e's contributors so injected WHERE
  // predicates can correlate them with the negated event.
  std::vector<EventRef> tuple = NegationTuple(e);
  // The UNLESS output row of the operator table: e1's identity and
  // payload with lifetime [e1.Vs, e1.Vs + w).
  Event output = e;
  output.ve = TimeAdd(e.vs, scope_);
  if (output.cbt.empty()) output.cbt = tuple;
  Duration optimistic_delay = std::min(scope_, spec().max_blocking);
  core_->AddCandidate(e.id, std::move(output), std::move(tuple),
                      /*block_lo=*/e.vs,
                      /*block_hi=*/TimeAdd(e.vs, scope_),
                      /*certain_at=*/TimeAdd(e.vs, scope_),
                      /*resolve_at=*/TimeAdd(e.vs, optimistic_delay));
  core_->Advance(max_watermark(), input_guarantee());
  return Status::OK();
}

Status UnlessOp::ProcessRetract(const Event& e, Time new_ve, int port) {
  if (new_ve > e.vs) return Status::OK();  // partial shrink: Vs intact
  if (port == 1) {
    core_->RemoveBlocker(e);
  } else {
    core_->CancelCandidate(e.id);
  }
  return Status::OK();
}

Status UnlessOp::ProcessCti(Time t, int port) {
  core_->Advance(max_watermark(), input_guarantee());
  return Operator::ProcessCti(t, port);
}

void UnlessOp::TrimState(Time horizon) {
  core_->Advance(max_watermark(), input_guarantee());
  core_->Trim(horizon, input_guarantee());
}

UnlessPrimeOp::UnlessPrimeOp(size_t n, Duration scope,
                             NegationPredicate predicate,
                             ConsistencySpec spec, std::string name)
    : Operator(std::move(name), spec, /*num_inputs=*/2),
      n_(n),
      scope_(scope) {
  NegationCore::Callbacks callbacks;
  callbacks.emit_insert = [this](Event e) { EmitInsert(std::move(e)); };
  callbacks.emit_retract = [this](const Event& e, Time t) {
    EmitRetract(e, t);
  };
  callbacks.lost_correction = [this]() { CountLostCorrection(); };
  // The anchor contributor's Vs is at most the composite's Vs, so the
  // window reaches back at most `scope` behind pending candidates, which
  // themselves wait until the guarantee reaches anchor + scope; the
  // anchor can lag the composite arbitrarily, so retain blockers for the
  // scope plus the candidate's own wait (conservatively unbounded is
  // avoided by anchoring retention at the scope; windows further back
  // belong to candidates whose anchor already passed the guarantee).
  core_ = std::make_unique<NegationCore>(
      this->spec().max_blocking, /*blocker_retention=*/scope,
      std::move(predicate), std::move(callbacks));
}

Status UnlessPrimeOp::ProcessInsert(const Event& e, int port) {
  if (port == 1) {
    core_->AddBlocker(e);
    return Status::OK();
  }
  const Event* anchor = nullptr;
  if (e.cbt.empty()) {
    if (n_ == 1) anchor = &e;
  } else if (n_ >= 1 && n_ <= e.cbt.size()) {
    anchor = e.cbt[n_ - 1].get();
  }
  if (anchor == nullptr) return Status::OK();  // lineage too short

  Event output = e;
  output.vs = std::max(e.vs, TimeAdd(anchor->vs, scope_));
  output.ve = TimeAdd(e.vs, scope_);
  if (output.valid().empty()) return Status::OK();
  Time window_end = TimeAdd(anchor->vs, scope_);
  Duration optimistic_delay = std::min(scope_, spec().max_blocking);
  core_->AddCandidate(e.id, std::move(output), NegationTuple(e),
                      /*block_lo=*/anchor->vs,
                      /*block_hi=*/window_end,
                      /*certain_at=*/window_end,
                      /*resolve_at=*/TimeAdd(e.vs, optimistic_delay));
  core_->Advance(max_watermark(), input_guarantee());
  return Status::OK();
}

Status UnlessPrimeOp::ProcessRetract(const Event& e, Time new_ve, int port) {
  if (new_ve > e.vs) return Status::OK();
  if (port == 1) {
    core_->RemoveBlocker(e);
  } else {
    core_->CancelCandidate(e.id);
  }
  return Status::OK();
}

Status UnlessPrimeOp::ProcessCti(Time t, int port) {
  core_->Advance(max_watermark(), input_guarantee());
  return Operator::ProcessCti(t, port);
}

void UnlessPrimeOp::TrimState(Time horizon) {
  core_->Advance(max_watermark(), input_guarantee());
  core_->Trim(horizon, input_guarantee());
}

NotSequenceOp::NotSequenceOp(Duration lookback, NegationPredicate predicate,
                             ConsistencySpec spec, std::string name)
    : Operator(std::move(name), spec, /*num_inputs=*/2) {
  NegationCore::Callbacks callbacks;
  callbacks.emit_insert = [this](Event e) { EmitInsert(std::move(e)); };
  callbacks.emit_retract = [this](const Event& e, Time t) {
    EmitRetract(e, t);
  };
  callbacks.lost_correction = [this]() { CountLostCorrection(); };
  core_ = std::make_unique<NegationCore>(this->spec().max_blocking, lookback,
                                         std::move(predicate),
                                         std::move(callbacks));
}

Status NotSequenceOp::ProcessInsert(const Event& e, int port) {
  if (port == 1) {
    core_->AddBlocker(e);
    return Status::OK();
  }
  // Negation window: strictly between the first and last contributor.
  Time lo = e.vs;
  Time hi = e.vs;
  if (!e.cbt.empty()) {
    lo = e.cbt.front()->vs;
    hi = e.cbt.back()->vs;
  }
  Duration blocking = spec().max_blocking;
  Time resolve_at =
      blocking == kInfinity ? kInfinity : TimeAdd(e.vs, blocking);
  core_->AddCandidate(e.id, e, NegationTuple(e), lo, hi,
                      /*certain_at=*/e.vs, resolve_at);
  core_->Advance(max_watermark(), input_guarantee());
  return Status::OK();
}

Status NotSequenceOp::ProcessRetract(const Event& e, Time new_ve, int port) {
  if (new_ve > e.vs) return Status::OK();
  if (port == 1) {
    core_->RemoveBlocker(e);
  } else {
    core_->CancelCandidate(e.id);
  }
  return Status::OK();
}

Status NotSequenceOp::ProcessCti(Time t, int port) {
  core_->Advance(max_watermark(), input_guarantee());
  return Operator::ProcessCti(t, port);
}

void NotSequenceOp::TrimState(Time horizon) {
  core_->Advance(max_watermark(), input_guarantee());
  core_->Trim(horizon, input_guarantee());
}

void UnlessOp::SnapshotState(io::BinaryWriter* w) const {
  core_->Snapshot(w);
}

Status UnlessOp::RestoreState(io::BinaryReader* r) {
  return core_->Restore(r);
}

void UnlessPrimeOp::SnapshotState(io::BinaryWriter* w) const {
  core_->Snapshot(w);
}

Status UnlessPrimeOp::RestoreState(io::BinaryReader* r) {
  return core_->Restore(r);
}

void NotSequenceOp::SnapshotState(io::BinaryWriter* w) const {
  core_->Snapshot(w);
}

Status NotSequenceOp::RestoreState(io::BinaryReader* r) {
  return core_->Restore(r);
}

}  // namespace cedr
