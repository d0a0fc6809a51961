#include "pattern/instance.h"

#include <algorithm>
#include <functional>
#include <map>

namespace cedr {

Event MakeCompositeEvent(std::vector<EventRef> tuple, Duration w,
                         const SchemaPtr& schema) {
  const Event& first = *tuple.front();
  const Event& last = *tuple.back();
  Event out;
  std::vector<EventId> ids;
  ids.reserve(tuple.size());
  size_t num_values = 0;
  out.rt = kInfinity;
  for (const EventRef& e : tuple) {
    ids.push_back(e->id);
    num_values += e->payload.size();
    out.rt = std::min(out.rt, e->rt);
  }
  out.id = IdGen(ids);
  out.k = out.id;
  out.os = last.os;
  out.oe = last.oe;
  out.vs = last.vs;
  out.ve = TimeAdd(first.vs, w);
  std::vector<Value> values;
  values.reserve(num_values);
  for (const EventRef& e : tuple) {
    values.insert(values.end(), e->payload.values().begin(),
                  e->payload.values().end());
  }
  out.payload = Row(schema, std::move(values));
  out.cbt = std::move(tuple);
  return out;
}

Event MakeCompositeEvent(const std::vector<const Event*>& tuple, Duration w,
                         const SchemaPtr& schema) {
  std::vector<EventRef> refs;
  refs.reserve(tuple.size());
  for (const Event* e : tuple) refs.push_back(std::make_shared<const Event>(*e));
  return MakeCompositeEvent(std::move(refs), w, schema);
}

void CompositeIndex::Record(const Event& composite) {
  composites_[composite.id] = composite;
  for (const EventRef& c : composite.cbt) {
    by_contributor_[c->id].push_back(composite.id);
  }
  expiry_.emplace_back(composite.ve, composite.id);
  std::push_heap(expiry_.begin(), expiry_.end(), std::greater<Expiry>());
  // Entries of taken composites linger until their ve passes; rebuild
  // once they outnumber the live ones so the heap follows live state.
  if (expiry_.size() > 2 * composites_.size() + 64) RebuildExpiry();
}

std::vector<Event> CompositeIndex::TakeByContributor(EventId contributor) {
  std::vector<Event> out;
  auto it = by_contributor_.find(contributor);
  if (it == by_contributor_.end()) return out;
  std::vector<EventId> ids = std::move(it->second);
  by_contributor_.erase(it);
  touched_.clear();
  for (EventId id : ids) {
    auto cit = composites_.find(id);
    if (cit == composites_.end()) continue;  // listed twice: already taken
    for (const EventRef& c : cit->second.cbt) touched_.push_back(c->id);
    out.push_back(std::move(cit->second));
    composites_.erase(cit);
  }
  UnlinkTouched();
  return out;
}

void CompositeIndex::Trim(Time horizon) {
  touched_.clear();
  while (!expiry_.empty() && expiry_.front().first <= horizon) {
    EventId id = expiry_.front().second;
    std::pop_heap(expiry_.begin(), expiry_.end(), std::greater<Expiry>());
    expiry_.pop_back();
    auto it = composites_.find(id);
    // Taken already, or recorded again with a later expiry of its own.
    if (it == composites_.end() || it->second.ve > horizon) continue;
    for (const EventRef& c : it->second.cbt) touched_.push_back(c->id);
    composites_.erase(it);
  }
  UnlinkTouched();
}

void CompositeIndex::UnlinkTouched() {
  if (touched_.empty()) return;
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  for (EventId contributor : touched_) {
    auto it = by_contributor_.find(contributor);
    if (it == by_contributor_.end()) continue;
    std::vector<EventId>& ids = it->second;
    ids.erase(std::remove_if(ids.begin(), ids.end(),
                             [this](EventId id) {
                               return composites_.count(id) == 0;
                             }),
              ids.end());
    if (ids.empty()) by_contributor_.erase(it);
  }
  touched_.clear();
}

void CompositeIndex::RebuildExpiry() {
  expiry_.clear();
  expiry_.reserve(composites_.size());
  for (const auto& [id, e] : composites_) expiry_.emplace_back(e.ve, id);
  std::make_heap(expiry_.begin(), expiry_.end(), std::greater<Expiry>());
}

void CompositeIndex::Snapshot(io::BinaryWriter* w) const {
  // Sorted by id for deterministic snapshot bytes; lookups are by key so
  // map order does not affect behavior.
  std::map<EventId, const Event*> sorted;
  for (const auto& [id, e] : composites_) sorted.emplace(id, &e);
  w->PutU64(sorted.size());
  for (const auto& [id, e] : sorted) io::WriteEvent(w, *e);

  std::map<EventId, const std::vector<EventId>*> index;
  for (const auto& [id, ids] : by_contributor_) index.emplace(id, &ids);
  w->PutU64(index.size());
  for (const auto& [contributor, ids] : index) {
    w->PutU64(contributor);
    w->PutU64(ids->size());
    for (EventId id : *ids) w->PutU64(id);
  }
}

Status CompositeIndex::Restore(io::BinaryReader* r) {
  composites_.clear();
  by_contributor_.clear();
  CEDR_ASSIGN_OR_RETURN(uint64_t num_composites, r->GetU64());
  for (uint64_t i = 0; i < num_composites; ++i) {
    CEDR_ASSIGN_OR_RETURN(Event e, io::ReadEvent(r));
    EventId id = e.id;
    composites_.emplace(id, std::move(e));
  }
  CEDR_ASSIGN_OR_RETURN(uint64_t num_contributors, r->GetU64());
  for (uint64_t i = 0; i < num_contributors; ++i) {
    CEDR_ASSIGN_OR_RETURN(EventId contributor, r->GetU64());
    CEDR_ASSIGN_OR_RETURN(uint64_t num_ids, r->GetU64());
    std::vector<EventId> ids;
    ids.reserve(num_ids);
    for (uint64_t j = 0; j < num_ids; ++j) {
      CEDR_ASSIGN_OR_RETURN(EventId id, r->GetU64());
      // Snapshots written before composites were unlinked on retirement
      // may still list retracted ones.
      if (composites_.count(id) != 0) ids.push_back(id);
    }
    if (!ids.empty()) by_contributor_.emplace(contributor, std::move(ids));
  }
  RebuildExpiry();
  return Status::OK();
}

}  // namespace cedr
