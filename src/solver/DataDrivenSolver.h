//===- solver/DataDrivenSolver.h - Algorithm 3 of the paper -----*- C++ -*-===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `CHCSolve` (paper Algorithm 3): the CEGAR loop that samples positive and
/// negative data from counterexamples to clause validity and learns
/// interpretations with the Algorithm 2 toolchain.
///
/// Key mechanics (paper §4.2):
///   * positive samples are *bounded* -- a sample of the head is accepted
///     only when every body sample is already positive, which implicitly
///     unwinds the system and yields a derivation forest;
///   * samples failing that condition become tentative negatives,
///     strengthening body predicates until the clause is inductive;
///   * when a head gains a new positive sample, its negative samples are
///     cleared and its interpretation reset to `true` (weakening), which
///     re-prioritises the clauses producing that head;
///   * a counterexample reaching a known head (assertion) replays the
///     derivation forest into a checkable refutation tree.
///
//===----------------------------------------------------------------------===//

#ifndef LA_SOLVER_DATADRIVENSOLVER_H
#define LA_SOLVER_DATADRIVENSOLVER_H

#include "analysis/PassManager.h"
#include "chc/SolverTypes.h"
#include "ml/Learn.h"
#include "support/Cancellation.h"
#include "support/Timer.h"

#include <functional>
#include <memory>

namespace la {
class FileCache;
}

namespace la::solver {

/// Signature of a pluggable sample-based learner: produces a formula over
/// \p Vars separating the dataset (Lemma 3.1) or fails. The default is the
/// paper's Algorithm 2 toolchain; the PIE-style enumerative and DIG-style
/// template baselines plug in here so that every data-driven solver shares
/// the same CEGAR loop (as in the paper's Fig. 8(a)/(b) comparisons).
using LearnerFn = std::function<ml::LearnResult(
    TermManager &TM, const std::vector<const Term *> &Vars,
    const ml::Dataset &Data, uint64_t Seed)>;

/// Configuration of the data-driven solver.
struct DataDrivenOptions {
  ml::LearnOptions Learn;
  smt::SmtSolver::Options Smt;
  /// Resource budget: wall clock plus a cap on counterexample-handling
  /// iterations (`MaxIterations == 0` means unlimited). Callers that used
  /// to set `TimeoutSeconds` / `MaxIterations` set these two fields now.
  Budget Limits{0, 50000};
  /// Cooperative cancellation, polled at every CEGAR loop head and plumbed
  /// into the clause-check backend and the pre-analysis pipeline.
  std::shared_ptr<const CancellationToken> Cancel;
  /// Stop after the static pre-analysis: report Sat when the verified seed
  /// discharges the system, Unknown otherwise, and never enter the CEGAR
  /// loop. This is the portfolio's cheap "analysis" lane.
  bool AnalysisOnly = false;
  /// Alternative learner; when unset, Algorithm 2 (`ml::learn`) is used
  /// with the `Learn` options above.
  LearnerFn Learner;
  /// Display name override (for benches comparing learners).
  std::string Name = "LinearArbitrary";
  /// Run the static pre-analysis pipeline (`src/analysis`) before the CEGAR
  /// loop: inlining, cone-of-influence slicing, fact-reachability
  /// resolution, and verified octagon / template-polyhedra invariants
  /// seeding the interpretations.
  bool EnableAnalysis = true;
  analysis::AnalysisOptions Analysis;
  /// Optional persistent tier under the clause-check memo cache: Valid
  /// clause verdicts are stored in this shared on-disk cache keyed by a
  /// canonical system hash, so repeated solves of the same system — across
  /// requests, restarts, and crashes — skip their SMT checks entirely.
  std::shared_ptr<FileCache> CheckCache;
};

/// The LinearArbitrary CHC solver.
class DataDrivenChcSolver : public chc::ChcSolverInterface {
public:
  explicit DataDrivenChcSolver(DataDrivenOptions Opts = {}) : Opts(Opts) {}

  chc::ChcSolverResult solve(const chc::ChcSystem &System) override;
  std::string name() const override { return Opts.Name; }

  /// Extra statistics of the last run, for the paper's tables.
  struct DetailedStats {
    size_t PositiveSamples = 0;
    size_t NegativeSamples = 0;
    size_t LearnCalls = 0;
    size_t Weakenings = 0;
    /// Static pre-analysis impact (see `analysisResult()` for details).
    size_t ClausesPruned = 0;
    size_t PredicatesResolved = 0;
    /// Inline-pass impact: predicates substituted away before the CEGAR
    /// loop and the clauses that went with them (their interpretations are
    /// back-translated into the reported solution).
    size_t PredicatesInlined = 0;
    size_t ClausesRemoved = 0;
    size_t BoundsFound = 0;
    /// Polyhedra-pass impact: mined template rows, verified relational
    /// polyhedral facts (verify pass), and fixpoint runs that stopped at
    /// the `MaxSweeps` safety net.
    size_t TemplatesMined = 0;
    size_t PolyhedraFacts = 0;
    size_t SweepCapHits = 0;
    double AnalysisSeconds = 0;
    bool SolvedByAnalysis = false;
  };
  const DetailedStats &detailedStats() const { return Details; }

  /// Full pre-analysis outcome of the last run (per-pass statistics,
  /// verified invariants, liveness mask). Trivial when analysis is off.
  const analysis::AnalysisResult &analysisResult() const { return Analysis; }

private:
  DataDrivenOptions Opts;
  DetailedStats Details;
  analysis::AnalysisResult Analysis;
};

} // namespace la::solver

#endif // LA_SOLVER_DATADRIVENSOLVER_H
