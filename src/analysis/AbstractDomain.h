//===- analysis/AbstractDomain.h - Domain-parametric analysis ---*- C++ -*-===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `AbstractDomain` concept behind the clause-wise abstract-interpretation
/// engine (`analysis/FixpointEngine.h`). A domain supplies the per-predicate
/// abstract value, the lattice operators (join / widen / narrow), the clause
/// transfer function, and the rendering of a value as a candidate invariant
/// formula. `OctagonAnalysis` (relational `±x ± y <= c` facts) and
/// `TemplateAnalysis` (mined `sum a_i x_i <= c` rows) both implement it,
/// sharing one fixpoint driver instead of duplicating the sweep / widening /
/// narrowing machinery.
///
/// Every invariant a domain produces is a *candidate* only: the verify pass
/// re-proves it with `chc::checkClause` before anything downstream may trust
/// it (DESIGN.md §9), so a domain bug can cost precision but never soundness.
///
//===----------------------------------------------------------------------===//

#ifndef LA_ANALYSIS_ABSTRACTDOMAIN_H
#define LA_ANALYSIS_ABSTRACTDOMAIN_H

#include "chc/Chc.h"

#include <concepts>
#include <optional>
#include <string>
#include <vector>

namespace la::analysis {

/// Knobs of the clause-wise fixpoint engine, shared by every abstract domain
/// (each domain instance gets its own copy in `AnalysisOptions`).
struct FixpointOptions {
  /// Joins applied to one predicate before switching to widening.
  size_t WideningDelay = 3;
  /// Hard cap on whole-system sweeps (a safety net; widening bounds the
  /// rare closure/widening oscillation of the relational domains).
  size_t MaxSweeps = 64;
  /// Descending iterations after the widened fixpoint; these recover bounds
  /// that widening overshot (e.g. the upper bound a loop guard implies).
  size_t NarrowingPasses = 2;
};

/// What the fixpoint driver did on one run: how many ascending sweeps ran
/// and whether the `MaxSweeps` safety net cut iteration short of a real
/// fixpoint. Surfaced through `PassStats` so a capped run is
/// distinguishable from clean convergence in `summary()` and
/// `BENCH_table1.json` (a capped run's candidates are still sound — the
/// verify pass re-proves everything — but precision silently suffered).
struct FixpointTelemetry {
  /// Ascending sweeps executed.
  size_t Sweeps = 0;
  /// True when the ascending loop stopped at `MaxSweeps` while the states
  /// were still changing (deadline expiry is not counted).
  bool HitSweepCap = false;
};

/// Abstract state of one predicate under some domain: `Reachable == false`
/// is bottom (no derivation reaches the predicate), `Value` is the domain's
/// abstract value over the predicate's argument positions.
template <class ValueT> struct DomainPredState {
  bool Reachable = false;
  /// Number of joins applied so far (drives the widening delay).
  size_t Updates = 0;
  ValueT Value;
};

/// The contract a domain implements to plug into `runDomainAnalysis`:
///
///   * `bottom(P)`       -- the least value for a predicate of P's arity;
///   * `top(P)`          -- the greatest value (no information); the engine
///     seeds skip-masked predicates with it so `transfer` treats their body
///     occurrences as unconstrained;
///   * `transfer(C, S)`  -- the head contribution of clause C under the
///     current predicate states, or `nullopt` when some body atom is
///     unreachable or the constraint is infeasible at this abstraction;
///   * `join(Into, From)`  -- lattice union in place; true iff `Into` grew;
///   * `widen(Into, Joined)` -- `Into = Into widen Joined` (Joined is the
///     joined next iterate; unstable facts must be dropped);
///   * `narrow(Into, Step)`  -- refine `Into` towards the one-step recompute
///     `Step` (typically a meet); true iff `Into` changed. Must never narrow
///     a reachable value to bottom;
///   * `isTop(V)`        -- true when V carries no information at all, so
///     `toInvariant` would render `true` (callers emit nothing instead);
///   * `toInvariant(TM, P, V)` -- V as a formula over `P->Params`.
template <class D>
concept AbstractDomain =
    requires(const D Dom, typename D::Value V, const typename D::Value CV,
             TermManager &TM, const chc::Predicate *P,
             const chc::HornClause &C,
             const std::vector<DomainPredState<typename D::Value>> &States) {
      { Dom.name() } -> std::convertible_to<std::string>;
      { Dom.bottom(P) } -> std::same_as<typename D::Value>;
      { Dom.top(P) } -> std::same_as<typename D::Value>;
      {
        Dom.transfer(C, States)
      } -> std::same_as<std::optional<typename D::Value>>;
      { Dom.join(V, CV) } -> std::same_as<bool>;
      { Dom.widen(V, CV) };
      { Dom.narrow(V, CV) } -> std::same_as<bool>;
      { Dom.isTop(CV) } -> std::same_as<bool>;
      { Dom.toInvariant(TM, P, CV) } -> std::convertible_to<const Term *>;
    };

/// Renders a predicate state as a candidate invariant with the uniform
/// cross-domain convention: `false` for bottom (unreachable), nullptr for
/// top (the invariant would be `true` and is not worth emitting), otherwise
/// the domain's formula over the predicate's formal parameters.
template <AbstractDomain D>
const Term *domainInvariant(const D &Dom, TermManager &TM,
                            const chc::Predicate *P,
                            const DomainPredState<typename D::Value> &State) {
  if (!State.Reachable)
    return TM.mkFalse();
  if (Dom.isTop(State.Value))
    return nullptr;
  return Dom.toInvariant(TM, P, State.Value);
}

} // namespace la::analysis

#endif // LA_ANALYSIS_ABSTRACTDOMAIN_H
