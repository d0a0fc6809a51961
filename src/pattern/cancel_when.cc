#include "pattern/cancel_when.h"

namespace cedr {

CancelWhenOp::CancelWhenOp(NegationPredicate predicate, ConsistencySpec spec,
                           std::string name)
    : Operator(std::move(name), spec, /*num_inputs=*/2) {
  NegationCore::Callbacks callbacks;
  callbacks.emit_insert = [this](Event e) { EmitInsert(std::move(e)); };
  callbacks.emit_retract = [this](const Event& e, Time t) {
    EmitRetract(e, t);
  };
  callbacks.lost_correction = [this]() { CountLostCorrection(); };
  // Cancellation windows (rt, vs) are unbounded below: blockers are
  // retained for the whole memory horizon.
  core_ = std::make_unique<NegationCore>(this->spec().max_blocking,
                                         /*blocker_retention=*/kInfinity,
                                         std::move(predicate),
                                         std::move(callbacks));
}

Status CancelWhenOp::ProcessInsert(const Event& e, int port) {
  if (port == 1) {
    core_->AddBlocker(e);
    return Status::OK();
  }
  Duration blocking = spec().max_blocking;
  Time resolve_at =
      blocking == kInfinity ? kInfinity : TimeAdd(e.vs, blocking);
  core_->AddCandidate(e.id, e, NegationTuple(e),
                      /*block_lo=*/e.rt, /*block_hi=*/e.vs,
                      /*certain_at=*/e.vs, resolve_at);
  core_->Advance(max_watermark(), input_guarantee());
  return Status::OK();
}

Status CancelWhenOp::ProcessRetract(const Event& e, Time new_ve, int port) {
  if (new_ve > e.vs) return Status::OK();
  if (port == 1) {
    core_->RemoveBlocker(e);
  } else {
    core_->CancelCandidate(e.id);
  }
  return Status::OK();
}

Status CancelWhenOp::ProcessCti(Time t, int port) {
  core_->Advance(max_watermark(), input_guarantee());
  return Operator::ProcessCti(t, port);
}

void CancelWhenOp::TrimState(Time horizon) {
  core_->Advance(max_watermark(), input_guarantee());
  core_->Trim(horizon, input_guarantee());
}

void CancelWhenOp::SnapshotState(io::BinaryWriter* w) const {
  core_->Snapshot(w);
}

Status CancelWhenOp::RestoreState(io::BinaryReader* r) {
  return core_->Restore(r);
}

}  // namespace cedr
