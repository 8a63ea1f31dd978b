//===- analysis/TemplateAnalysis.h - Template polyhedra over CHCs -*- C++ -*-//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The template-polyhedra abstract domain over CHC systems: each predicate
/// is abstracted by one `TemplatePolyhedron` over its argument positions,
/// against a per-predicate row matrix **mined statically from the clause
/// system** before the fixpoint starts:
///
///   * octagon-shaped defaults: `±x_i` always, `±x_i ± x_j` on small
///     arities, so the domain subsumes per-argument bounds and (on those
///     arities) the octagon rung;
///   * harvested rows: every linear atom of every live clause constraint is
///     projected onto the argument positions of each application of the
///     predicate (a query guard `x - 2y > 0` over an application `p(x, y)`
///     yields the row `(1, -2)` and its negation) — exactly the directions
///     the clause system itself talks about;
///   * loop-guard combinations: pairwise sums of harvested rows, capturing
///     compound guards split across clauses.
///
/// Mining carries zero soundness burden: a bad row can only fail to verify.
/// The clause-wise transfer function expands the constraint into a bounded
/// DNF and answers one LP maximization per head row and branch over the
/// exact `Simplex` (`smt/LpSolver.h`), with cooperative cancellation polled
/// in every LP loop. The fixpoint strategy is the shared driver
/// (`analysis/FixpointEngine.h`).
///
//===----------------------------------------------------------------------===//

#ifndef LA_ANALYSIS_TEMPLATEANALYSIS_H
#define LA_ANALYSIS_TEMPLATEANALYSIS_H

#include "analysis/AnalysisContext.h"
#include "analysis/TemplatePolyhedra.h"

#include <optional>
#include <string>
#include <vector>

namespace la::analysis {

/// Mines one template matrix per predicate index of `Ctx.system()` from
/// the live clauses (see the file comment for the heuristics). Masked
/// predicates get an empty matrix.
std::vector<TemplateMatrixRef>
mineTemplates(const AnalysisContext &Ctx, const TemplateMiningOptions &Opts);

/// The template-polyhedra abstract domain; implements the `AbstractDomain`
/// concept against the matrices mined for one specific system.
class TemplateDomain {
public:
  using Value = TemplatePolyhedron;

  TemplateDomain(std::vector<TemplateMatrixRef> Matrices,
                 TemplateMiningOptions MineOpts,
                 std::shared_ptr<const CancellationToken> Cancel)
      : Matrices(std::move(Matrices)), MineOpts(MineOpts),
        Cancel(std::move(Cancel)) {}

  std::string name() const { return "polyhedra"; }
  Value bottom(const chc::Predicate *P) const {
    return TemplatePolyhedron::bottom(Matrices[P->Index]);
  }
  Value top(const chc::Predicate *P) const {
    return TemplatePolyhedron::top(Matrices[P->Index]);
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

private:
  std::vector<TemplateMatrixRef> Matrices;
  TemplateMiningOptions MineOpts;
  std::shared_ptr<const CancellationToken> Cancel;
};

static_assert(AbstractDomain<TemplateDomain>);

/// Mines templates and runs the polyhedra fixpoint over the live clauses of
/// \p Ctx; returns one state per predicate index. \p Matrices receives the
/// mined matrices (for stats and tests); \p Telemetry, when non-null, the
/// fixpoint engine's sweep telemetry.
std::vector<PolyhedraState>
runTemplateAnalysis(const AnalysisContext &Ctx,
                    std::vector<TemplateMatrixRef> *Matrices = nullptr,
                    FixpointTelemetry *Telemetry = nullptr);

/// Renders a state with the uniform cross-domain convention of
/// `domainInvariant`: `false` for bottom, nullptr for top, otherwise a
/// conjunction of `sum a_i x_i <= c` atoms over `P->Params`.
const Term *templateInvariant(TermManager &TM, const chc::Predicate *P,
                              const PolyhedraState &State);

} // namespace la::analysis

#endif // LA_ANALYSIS_TEMPLATEANALYSIS_H
