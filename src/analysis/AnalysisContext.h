//===- analysis/AnalysisContext.h - Shared analysis state -------*- C++ -*-===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared state every analysis pass and abstract domain operates on: the
/// CHC system, the live-clause mask, the skip-predicate mask, the per-pass
/// options, the accumulated `AnalysisResult`, and a stats sink. One
/// `AnalysisContext` replaces the `(System, LiveClause, SkipPred, Opts)`
/// parameter lists that used to be duplicated across `src/analysis`
/// (DESIGN.md §9).
///
//===----------------------------------------------------------------------===//

#ifndef LA_ANALYSIS_ANALYSISCONTEXT_H
#define LA_ANALYSIS_ANALYSISCONTEXT_H

#include "analysis/AbstractDomain.h"
#include "analysis/Octagon.h"
#include "analysis/TemplatePolyhedra.h"
#include "analysis/VariablePacks.h"
#include "chc/ChcCheck.h"
#include "support/Timer.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace la::analysis {

struct InlineMap; // analysis/InlinePass.h

/// Counters of one pass execution (also used merged across runs by the
/// benchmark harness).
struct PassStats {
  std::string Name;
  double Seconds = 0;
  size_t ClausesPruned = 0;
  size_t PredicatesResolved = 0;
  /// Predicates eliminated by substitution into their call sites and
  /// clauses that dropped out of the system with them (inline pass only).
  size_t PredicatesInlined = 0;
  size_t ClausesRemoved = 0;
  size_t BoundsFound = 0;
  /// Relational (two-variable) facts: candidates for the octagon pass,
  /// facts inside verified invariants for the verify pass.
  size_t RelationalFound = 0;
  size_t InvariantsVerified = 0;
  size_t InvariantsRejected = 0;
  size_t SmtChecks = 0;
  /// Template rows mined from the clause system (polyhedra pass only).
  size_t TemplatesMined = 0;
  /// Finite multi-variable template bounds: candidates for the polyhedra
  /// pass, facts inside verified polyhedral invariants for the verify pass.
  size_t PolyhedraFacts = 0;
  /// Fixpoint runs that stopped at `FixpointOptions::MaxSweeps` while still
  /// unstable (the safety net fired; convergence was not reached). At most
  /// one per domain pass execution; the merged benchmark stats count how
  /// many runs were capped.
  size_t SweepCapHits = 0;
  /// Per-pass flag behind `SweepCapHits` (true when this very execution hit
  /// the cap).
  bool HitSweepCap = false;
  /// Memoized octagon transfer-cache traffic (octagon pass only): replayed
  /// vs recomputed per-(clause, pack) transfers.
  size_t XferCacheHits = 0;
  size_t XferCacheMisses = 0;
  /// Simplex pivots spent by LP-backed lattice operations during this pass
  /// (polyhedra and verify passes), so LP cost is attributable per pass.
  uint64_t LpPivots = 0;
  /// Pack-decomposition shape behind the relational passes (octagon pass
  /// only): total packs over all predicates and the largest pack size.
  size_t PacksBuilt = 0;
  size_t LargestPack = 0;
  /// Incremental clause-check counters (populated by passes that go through
  /// chc::ClauseCheckContext, currently the verify pass).
  chc::CheckStats Check;

  /// Sums the counters of \p O into this (the name is kept).
  void merge(const PassStats &O);
  std::string toString() const;
};

/// Configuration of the pipeline.
struct AnalysisOptions {
  /// Inline non-recursive single-definition predicates into their call
  /// sites before anything else runs (the system every later pass and the
  /// CEGAR loop sees is the transformed one).
  bool EnableInlining = true;
  bool EnableSlicing = true;
  bool EnableOctagons = true;
  /// Template-polyhedra pass (`analysis/TemplateAnalysis.h`): mined
  /// `sum a_i x_i <= c` rows, LP-backed lattice over the exact simplex.
  bool EnablePolyhedra = true;
  FixpointOptions Octagons;
  FixpointOptions Polyhedra;
  /// Template mining + transfer knobs for the polyhedra pass.
  TemplateMiningOptions Mining;
  /// Variable-pack decomposition knobs shared by the relational domains
  /// (`analysis/VariablePacks.h`).
  PackingOptions Packs;
  /// SMT budget for the per-invariant verification checks.
  smt::SmtSolver::Options Smt;
  /// Soft wall-clock cap for the whole pipeline (0 = unlimited). On expiry
  /// the pipeline stops early; partial results remain sound because every
  /// pass only adds independently verified facts.
  double TimeoutSeconds = 0;
};

/// Finite per-argument bounds of one predicate, the shape handed to the
/// decision-tree learner as candidate attributes.
struct ArgBounds {
  size_t ArgIndex = 0;
  bool HasLo = false;
  bool HasHi = false;
  Rational Lo;
  Rational Hi;
};

/// Flat counters summarizing one pipeline run — the analysis half of the
/// scheduler's `ProblemFeatures` vector. Exported here (instead of the
/// scheduler re-walking `Passes`) so the feature definition lives next to
/// the counters it aggregates and cannot drift from them.
struct FeatureCounters {
  size_t PredicatesInlined = 0;
  size_t ClausesRemoved = 0;
  size_t ClausesPruned = 0;
  size_t PredicatesResolved = 0;
  size_t BoundsFound = 0;
  size_t RelationalFound = 0;
  size_t PolyhedraFacts = 0;
  bool ProvedSat = false;
  bool TimedOut = false;
};

/// Everything the pipeline proved about a system.
///
/// When the inline pass rewrote the system, `Transformed` holds the smaller
/// system and every per-clause / per-predicate field below (`LiveClause`,
/// `Fixed`, `Invariants`, `Bounds`) refers to *it*, not to the input system;
/// `Inline` carries the metadata needed to translate solutions and
/// refutations of the transformed system back to the original one
/// (`analysis/InlinePass.h`). Both handles are null when nothing was
/// inlined.
struct AnalysisResult {
  /// The inlined system the rest of the pipeline (and the CEGAR loop)
  /// operates on; null when the inline pass did not fire.
  std::shared_ptr<chc::ChcSystem> Transformed;
  /// Back-translation metadata for `Transformed`; null iff it is.
  std::shared_ptr<const InlineMap> Inline;
  /// Per-clause liveness mask: pruned clauses are valid under `Fixed` plus
  /// any downstream strengthening, so the solver never re-checks them.
  std::vector<char> LiveClause;
  /// Statically resolved predicates (interpretation `true` or `false`);
  /// no live clause mentions them.
  std::map<const chc::Predicate *, const Term *> Fixed;
  /// Verified inductive invariants for live predicates (the polyhedra and
  /// octagon conjunction where it survives verification, the octagon
  /// candidate otherwise). Sound over-approximations: every derivable fact
  /// satisfies them.
  std::map<const chc::Predicate *, const Term *> Invariants;
  /// The finite bounds behind `Invariants`, as learner-feature fodder.
  std::map<const chc::Predicate *, std::vector<ArgBounds>> Bounds;
  /// Verified relational template rows (coefficients over the argument
  /// positions) behind polyhedra-backed invariants: linear feature
  /// directions for the learner beyond the unary `Bounds`.
  std::map<const chc::Predicate *, std::vector<std::vector<Rational>>>
      PolyRows;
  /// True when the verified seed already discharges every query clause:
  /// `Fixed` + `Invariants` is a full solution and no learning is needed.
  bool ProvedSat = false;
  /// True when the analysis budget (`TimeoutSeconds` or the cancellation
  /// token) expired mid-pipeline: later passes ran degraded or not at all,
  /// so a weaker result does not mean the extra domains were useless.
  bool TimedOut = false;
  /// Per-pass statistics, in execution order.
  std::vector<PassStats> Passes;

  size_t numLiveClauses() const;
  size_t clausesPruned() const { return LiveClause.size() - numLiveClauses(); }
  size_t predicatesResolved() const { return Fixed.size(); }
  size_t boundsFound() const;
  /// Verified relational (two-variable) facts, summed over the passes.
  size_t relationalFound() const;
  double totalSeconds() const;
  size_t smtChecks() const;

  /// The flat counter summary behind the scheduler's feature vector.
  FeatureCounters featureCounters() const;

  /// Empty result treating every clause as live (analysis disabled).
  static AnalysisResult allLive(const chc::ChcSystem &System);

  /// Multi-line human-readable report for benches and examples.
  std::string report() const;
};

/// Abstract per-predicate states of the bundled domains.
using OctagonState = DomainPredState<PackedOctagon>;
using PolyhedraState = DomainPredState<TemplatePolyhedron>;

/// Shared mutable state the passes and domain engines operate on: system +
/// live-clause mask + skip-pred mask + options + result + stats sink.
///
/// The system a pass sees is `system()`: initially the input system, but
/// rebound to the inlined clone once `adoptTransformed()` runs, so the
/// octagon/polyhedra ladder and the verify pass transparently analyze the
/// smaller system.
struct AnalysisContext {
  TermManager &TM;
  /// Held by value so a context outlives any temporary it was built from.
  /// `Opts.Smt.Cancel` carries the pipeline's deadline (`TimeoutSeconds`)
  /// as well as the caller's token.
  AnalysisOptions Opts;
  /// Per-predicate-index mask of predicates some earlier pass resolved;
  /// domain engines treat them as unconstrained and never update them.
  /// Maintained by `fix()`; empty means "nothing masked".
  std::vector<char> SkipPred;
  AnalysisResult Result;
  /// Raw octagon states, populated by the octagon pass for the verifier.
  std::vector<OctagonState> Octagons;
  /// Raw polyhedra states, populated by the polyhedra pass for the
  /// verifier, plus the matrices they were computed against.
  std::vector<PolyhedraState> Polyhedra;
  std::vector<TemplateMatrixRef> PolyMatrices;

  explicit AnalysisContext(const chc::ChcSystem &System,
                           AnalysisOptions Opts = {});

  /// The system every pass operates on (the inlined clone after
  /// `adoptTransformed()`, the input system before).
  const chc::ChcSystem &system() const { return *Sys; }

  /// Pipeline budget check: the time cap or cooperative cancellation (both
  /// travel in the token `Opts.Smt.Cancel`, shared with every SMT check the
  /// passes issue).
  bool expired() const { return isCancelled(Opts.Smt.Cancel); }

  /// Rebinds the context to the inlined system \p T produced by the inline
  /// pass and re-initializes the per-clause / per-predicate masks to its
  /// sizes, pre-masking every eliminated predicate so later passes treat it
  /// as inert without resolving it to a constant. Must run before any other
  /// pass has recorded state (asserts `Fixed` and `Invariants` are empty).
  void adoptTransformed(std::shared_ptr<chc::ChcSystem> T,
                        std::shared_ptr<const InlineMap> M);

  /// The variable-pack decomposition of the current system, computed
  /// lazily from the live clauses at first use and cached (invalidated when
  /// `adoptTransformed()` rebinds the system). Clauses pruned after the
  /// first call leave the decomposition coarser than strictly needed, which
  /// is sound either way — any position partition is.
  const PackDecomposition &packs() const;

  /// Memoized per-(clause, pack) octagon transfer cache, shared across the
  /// octagon pass's sweeps (cleared with the pack cache). Mutable: filling
  /// a memo table does not change what the context means.
  mutable OctTransferCache OctXfer;

  bool isLive(size_t ClauseIdx) const { return Result.LiveClause[ClauseIdx]; }
  /// Prunes a clause; returns true when it was live before.
  bool prune(size_t ClauseIdx);
  bool isFixed(const chc::Predicate *P) const {
    return !SkipPred.empty() && SkipPred[P->Index];
  }
  /// Resolves \p P to the constant interpretation \p Interp and masks it for
  /// every later pass.
  void fix(const chc::Predicate *P, const Term *Interp);

  /// The stats sink of the currently running pass (a local scratch outside
  /// the pass pipeline, so domain engines can always count).
  PassStats &stats() { return Sink ? *Sink : Scratch; }
  void setStatsSink(PassStats *S) { Sink = S; }

private:
  /// Points at the input system until `adoptTransformed()` rebinds it to
  /// `Result.Transformed` (which owns the clone).
  const chc::ChcSystem *Sys;
  PassStats *Sink = nullptr;
  PassStats Scratch;
  /// Lazy cache behind `packs()`.
  mutable std::shared_ptr<const PackDecomposition> PacksCache;
};

} // namespace la::analysis

#endif // LA_ANALYSIS_ANALYSISCONTEXT_H
