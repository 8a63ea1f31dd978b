//===- solver/Scheduler.h - Feature-based engine scheduling -----*- C++ -*-===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine-selection layer under the staged plan. Racing every
/// registered engine on every request matches the paper's evaluation setup
/// but burns cores linearly in engine count; a CHCVerif-style
/// selection/scheduling layer matches the full-race solve rate at a
/// fraction of the core-seconds:
///
///   * `ProblemFeatures` is a cheap feature vector over the input system —
///     structural counts straight off the clauses, plus the pre-analysis
///     counters the pipeline already computes (`analysis::FeatureCounters`),
///     extracted without re-running any analysis;
///   * `EngineSelector` ranks registry engines for a feature vector.
///     `RuleSelector` is the hand-written baseline over capability
///     descriptors (`EngineInfo`); `TableSelector` is a per-engine linear
///     model fit offline from `BENCH_table1.json` lane reports by
///     `bench/fit_selector.py`;
///   * the staged plan (`stagedPlan` in Plan.h) runs a cheap analysis-only
///     probe first, then the selector's top-k engines under a staggered
///     budget, escalating to the full race only when everything before it
///     answered `unknown`.
///
//===----------------------------------------------------------------------===//

#ifndef LA_SOLVER_SCHEDULER_H
#define LA_SOLVER_SCHEDULER_H

#include "solver/SolverRegistry.h"

#include <optional>

namespace la::solver {

/// How the façade turns one request into engine runs.
enum class SchedulePolicy {
  Single, ///< Run exactly `SolveOptions::Engine` (the legacy behavior).
  Race,   ///< Full portfolio race, every default lane at once.
  Staged, ///< Probe, then top-k, then escalate to the race on `unknown`.
  Auto,   ///< Staged when >= 2 selectable engines are registered, else Race.
};

const char *toString(SchedulePolicy P);
/// Parses "single" / "race" / "staged" / "auto"; nullopt on anything else.
std::optional<SchedulePolicy> parseSchedulePolicy(const std::string &Text);

/// The feature vector engines are ranked on. All fields are doubles so the
/// table model is a plain dot product; the structural half is filled by
/// `fromSystem` (a single walk over the clauses), the analysis half by
/// `addAnalysis` from a pipeline result that already exists.
struct ProblemFeatures {
  // Structural features (always available).
  double Predicates = 0;
  double Clauses = 0;
  double Queries = 0;        ///< Clauses with a formula head (assertions).
  double Facts = 0;          ///< Clauses with an empty body.
  double MaxArity = 0;
  double TotalArgs = 0;      ///< Sum of predicate arities.
  double MaxBodyApps = 0;    ///< Widest clause body.
  double NonlinearClauses = 0; ///< Clauses with >= 2 body applications.
  double Recursive = 0;      ///< 1 when the dependency graph has a cycle.
  double RecursivePreds = 0;
  // Pre-analysis features (zero until `addAnalysis` runs).
  double HaveAnalysis = 0;
  double PredicatesInlined = 0;
  double ClausesRemoved = 0;
  double ClausesPruned = 0;
  double PredicatesResolved = 0;
  double BoundsFound = 0;
  double RelationalFound = 0;
  double PolyhedraFacts = 0;
  double ProvedByAnalysis = 0;
  double AnalysisTimedOut = 0;

  /// Structural features of \p System, one clause walk, no SMT.
  static ProblemFeatures fromSystem(const chc::ChcSystem &System);

  /// Folds an existing pre-analysis outcome in (sets `HaveAnalysis`).
  void addAnalysis(const analysis::AnalysisResult &R);

  /// Feature names, in `values()` order — the offline fitting contract:
  /// `BENCH_table1.json` and the selector-model file both use these names.
  static const std::vector<std::string> &names();
  std::vector<double> values() const;

  /// "name=value" per line, for golden tests and diagnostics.
  std::string toString() const;
};

/// One ranked candidate: higher scores run earlier.
struct RankedEngine {
  EngineId Id;
  double Score = 0;
};

/// Ranks selectable engines for one feature vector. Engines a selector
/// omits are merely scheduled late — the escalation race still runs the
/// full default lane set, so a bad ranking costs time, never answers.
class EngineSelector {
public:
  virtual ~EngineSelector() = default;
  virtual std::string name() const = 0;
  /// Returns \p Candidates ranked best-first (possibly filtered).
  virtual std::vector<RankedEngine>
  rank(const ProblemFeatures &F,
       const std::vector<EngineInfo> &Candidates) const = 0;
};

/// The hand-written rule baseline. Rules read capabilities, not engine
/// names: filter engines that cannot handle the clause shape, prefer cheap
/// cost classes, boost analysis-consuming engines when the probe found
/// facts, and boost symbolic (non-analysis) engines on non-recursive
/// systems, which typically discharge by plain unwinding.
class RuleSelector : public EngineSelector {
public:
  std::string name() const override { return "rules"; }
  std::vector<RankedEngine>
  rank(const ProblemFeatures &F,
       const std::vector<EngineInfo> &Candidates) const override;
};

/// Table-driven selector: one linear model (bias + weight per feature) per
/// engine id, fit offline by `bench/fit_selector.py` over per-lane
/// `BENCH_table1.json` reports. Candidates without a model rank after every
/// modeled one, ordered by the rule baseline.
class TableSelector : public EngineSelector {
public:
  struct Model {
    double Bias = 0;
    /// Weight per feature name; names unknown to this build are ignored,
    /// features absent from the model weigh zero — both directions stay
    /// compatible across feature-set changes.
    std::vector<std::pair<std::string, double>> Weights;
  };

  std::string name() const override { return "table"; }
  std::vector<RankedEngine>
  rank(const ProblemFeatures &F,
       const std::vector<EngineInfo> &Candidates) const override;

  /// Model score for one engine (nullopt when no model is loaded for it).
  std::optional<double> score(const EngineId &Id,
                              const ProblemFeatures &F) const;

  void setModel(const EngineId &Id, Model M);

  /// Parses the `fit_selector.py` output format:
  ///
  ///   selector 1
  ///   features <n> <name>...
  ///   engine <id> <bias> <weight>...       (one per modeled engine)
  ///   end
  ///
  /// Weights align positionally with the features line. Returns false (and
  /// fills \p Error) on any framing mismatch.
  static bool parse(const std::string &Text, TableSelector &Out,
                    std::string &Error);
  /// `parse` over a file's contents; null + \p Error on I/O or parse
  /// failure.
  static std::shared_ptr<TableSelector> loadFile(const std::string &Path,
                                                 std::string &Error);

private:
  std::map<EngineId, Model> Models;
  RuleSelector Fallback;
};

/// The schedule policy plus its staged-mode settings.
struct ScheduleOptions {
  SchedulePolicy Policy = SchedulePolicy::Single;
  /// Engines racing in the top-k stage.
  size_t TopK = 2;
  /// Ranking engine; null means the rule baseline.
  std::shared_ptr<const EngineSelector> Selector;
};

} // namespace la::solver

#endif // LA_SOLVER_SCHEDULER_H
