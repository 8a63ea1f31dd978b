//===- analysis/PassManager.h - Static pre-analysis pipeline ----*- C++ -*-===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static pre-analysis pipeline that runs over a parsed `chc::ChcSystem`
/// before the data-driven CEGAR loop starts (cf. the symbolic front of
/// Chronosymbolic Learning and the preprocessing stage of CHC portfolio
/// solvers). Six passes, each timed and counted:
///
///   0. inline:      non-recursive single-definition predicates are inlined
///      into their call sites and eliminated; the remaining passes (and the
///      CEGAR loop) analyze the transformed system (`analysis/InlinePass.h`,
///      DESIGN.md §10);
///   1. fact-reach:  predicates with no derivation at all are resolved to
///      `false` and every clause mentioning them is pruned;
///   2. query-cone:  predicates outside the cone of influence of the query
///      clauses are resolved to `true` and their defining clauses pruned;
///   3. octagons:    the relational octagon domain computes candidate
///      `±x ± y <= c` facts, per-argument bounds included (the `x >= y`
///      shapes the paper's Fig. 1 family needs);
///   4. polyhedra:   the template-polyhedra domain computes candidate
///      `sum a_i x_i <= c` facts over rows mined from the clauses
///      (`analysis/TemplateAnalysis.h`);
///   5. verify:      every candidate invariant is re-proved inductive with
///      `chc::checkClause`; a failing polyhedra-and-octagon candidate falls
///      back to the predicate's octagon candidate before being dropped
///      entirely. Verified `false` predicates are resolved, and query
///      clauses already valid under the verified seed are discharged.
///
/// Soundness is by construction: nothing unverified leaves this module, so
/// downstream consumers (the CEGAR loop seeding its interpretations, the
/// decision-tree learner taking candidate attributes) may trust the result
/// blindly. The soundness arguments are spelled out in DESIGN.md §9.
///
/// All shared state lives in `AnalysisContext`
/// (`analysis/AnalysisContext.h`); passes communicate only through it.
///
//===----------------------------------------------------------------------===//

#ifndef LA_ANALYSIS_PASSMANAGER_H
#define LA_ANALYSIS_PASSMANAGER_H

#include "analysis/AnalysisContext.h"

#include <memory>
#include <string>
#include <vector>

namespace la::analysis {

/// One analysis pass. Passes must only add *verified or construction-sound*
/// facts to the context result; pruning must preserve every solution of the
/// live subsystem as a solution of the full system. Counters go to
/// `Ctx.stats()`, which the manager points at the pass's own `PassStats`
/// for the duration of `run`.
class Pass {
public:
  virtual ~Pass() = default;
  virtual std::string name() const = 0;
  virtual void run(AnalysisContext &Ctx) = 0;
};

/// Runs a pass sequence with per-pass timing and a shared deadline.
class PassManager {
public:
  void addPass(std::unique_ptr<Pass> P) { Passes.push_back(std::move(P)); }

  AnalysisResult run(const chc::ChcSystem &System,
                     const AnalysisOptions &Opts) const;
  /// Runs the passes over a caller-prepared context (the context keeps the
  /// raw domain states afterwards).
  void run(AnalysisContext &Ctx) const;

  /// The default pipeline described in the file comment.
  static PassManager defaultPipeline(const AnalysisOptions &Opts);

private:
  std::vector<std::unique_ptr<Pass>> Passes;
};

/// Convenience: default pipeline over \p System.
AnalysisResult analyzeSystem(const chc::ChcSystem &System,
                             const AnalysisOptions &Opts = {});

} // namespace la::analysis

#endif // LA_ANALYSIS_PASSMANAGER_H
