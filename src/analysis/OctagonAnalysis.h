//===- analysis/OctagonAnalysis.h - Octagon domain over CHCs ----*- C++ -*-===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A relational octagon abstract domain over CHC systems: each predicate is
/// abstracted by one `PackedOctagon` — one small DBM per variable pack of
/// the predicate (`analysis/VariablePacks.h`) — carrying `±x_i ± x_j <= c`
/// facts with exact rational bounds and integer tightening. The clause-wise
/// transfer runs once per head pack over the pack's interaction classes
/// only: it imports the body predicates' within-pack facts, conjoins the
/// clause constraint (exactly for unit-coefficient atoms of up to two
/// variables, via sound interval/pair consequences otherwise) while
/// projecting dead clause dimensions away eagerly (live-range windowing, so
/// the scratch DBM stays small on the `gen_elevator_*`-style wide clauses),
/// equates per-head-argument slot dimensions with the head argument terms,
/// and projects onto the slots. Transfers are memoized per (clause, pack,
/// input-bounds hash) in `OctTransferCache`. The fixpoint strategy lives in
/// the shared driver, `analysis/FixpointEngine.h`.
///
/// The paper's Fig. 1 family needs exactly these facts: per-argument bounds
/// cannot express `x >= y`, so they never discharge such queries,
/// while the octagon run yields `y - x <= 0` shaped candidates that the
/// verify pass then re-proves with `chc::checkClause` (DESIGN.md §9, §13).
///
//===----------------------------------------------------------------------===//

#ifndef LA_ANALYSIS_OCTAGONANALYSIS_H
#define LA_ANALYSIS_OCTAGONANALYSIS_H

#include "analysis/AnalysisContext.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace la::analysis {

/// The octagon abstract domain: one `PackedOctagon` over the argument
/// positions. Implements the `AbstractDomain` concept
/// (`analysis/AbstractDomain.h`).
class OctagonDomain {
public:
  using Value = PackedOctagon;

  /// Rendering-only domain: `isTop`/`toInvariant` work (values carry their
  /// own layout), but `bottom`/`top`/`transfer` need the full constructor.
  OctagonDomain() = default;
  /// Transfer-capable domain over the pack layouts of \p Packs. \p Cache,
  /// when non-null, memoizes per-(clause, pack) transfers across sweeps.
  OctagonDomain(const PackDecomposition &Packs, const PackingOptions &Opts,
                OctTransferCache *Cache);

  std::string name() const { return "octagons"; }
  Value bottom(const chc::Predicate *P) const {
    return PackedOctagon::bottom(Packs->Preds[P->Index]);
  }
  Value top(const chc::Predicate *P) const {
    return PackedOctagon::top(Packs->Preds[P->Index]);
  }
  std::optional<Value>
  transfer(const chc::HornClause &C,
           const std::vector<DomainPredState<Value>> &States) const;
  bool join(Value &Into, const Value &From) const;
  void widen(Value &Into, const Value &Joined) const;
  bool narrow(Value &Into, const Value &Step) const;
  bool isTop(const Value &V) const { return V.isTop(); }
  const Term *toInvariant(TermManager &TM, const chc::Predicate *P,
                          const Value &V) const;

  /// Number of genuinely relational facts: pairwise bounds strictly tighter
  /// than what the unary bounds already imply. Zero means the octagon holds
  /// no information an interval invariant could not carry.
  static size_t relationalFactCount(const PackedOctagon &O);

private:
  struct PlanStore; // per-clause transfer plans, built lazily (.cpp)

  const PackDecomposition *Packs = nullptr;
  PackingOptions PackOpts;
  OctTransferCache *Cache = nullptr;
  std::shared_ptr<PlanStore> Plans;

  std::optional<Octagon>
  transferPack(const chc::HornClause &C, const struct OctPackPlan &PP,
               const std::vector<DomainPredState<Value>> &States) const;
};

static_assert(AbstractDomain<OctagonDomain>);

/// Runs the octagon fixpoint over the live clauses of \p Ctx and returns
/// one state per predicate index. Uses `Ctx.packs()` for the pack layouts
/// and `Ctx.OctCache` for transfer memoization.
std::vector<OctagonState>
runOctagonAnalysis(const AnalysisContext &Ctx,
                   FixpointTelemetry *Telemetry = nullptr);

/// Renders a state with the uniform cross-domain convention of
/// `domainInvariant`: `false` for bottom, nullptr for top, otherwise a
/// conjunction of bound and `±x ± y <= c` atoms over `P->Params` (pairwise
/// atoms only where strictly tighter than the unary bounds imply).
const Term *octagonInvariant(TermManager &TM, const chc::Predicate *P,
                             const OctagonState &State);

} // namespace la::analysis

#endif // LA_ANALYSIS_OCTAGONANALYSIS_H
