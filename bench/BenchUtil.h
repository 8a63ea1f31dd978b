//===- bench/BenchUtil.h - Shared benchmark-harness plumbing ----*- C++ -*-===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-table/per-figure benchmark binaries: suite
/// selection, per-program timeouts (override with the LA_BENCH_TIMEOUT
/// environment variable, in seconds), scatter and summary printing. Every
/// binary prints PAPER reference lines next to MEASURED lines so
/// EXPERIMENTS.md can be cross-checked by re-running the harness.
///
//===----------------------------------------------------------------------===//

#ifndef LA_BENCH_BENCHUTIL_H
#define LA_BENCH_BENCHUTIL_H

#include "baselines/EnumLearner.h"
#include "baselines/PdrSolver.h"
#include "baselines/RegisterEngines.h"
#include "baselines/TemplateLearner.h"
#include "baselines/UnwindSolver.h"
#include "corpus/Harness.h"
#include "solver/Plan.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>

namespace la::bench {

/// Per-program wall-clock budget in seconds.
inline double benchTimeout(double Default = 3.0) {
  if (const char *Env = std::getenv("LA_BENCH_TIMEOUT"))
    return std::atof(Env);
  return Default;
}

/// A solver factory: fresh solver per program (they keep per-run state).
using SolverFactory =
    std::function<std::unique_ptr<chc::ChcSolverInterface>(
        const corpus::BenchmarkProgram &, double TimeoutSeconds)>;

inline SolverFactory linearArbitraryFactory() {
  return [](const corpus::BenchmarkProgram &P, double Timeout) {
    return std::make_unique<solver::DataDrivenChcSolver>(
        corpus::defaultOptionsFor(P, Timeout));
  };
}

/// The data-driven solver with only the system-rewriting passes (inlining +
/// slicing) enabled: isolates what predicate elimination buys the CEGAR
/// loop before any abstract-domain seeding.
inline SolverFactory linearArbitraryInlineOnlyFactory() {
  return [](const corpus::BenchmarkProgram &P, double Timeout) {
    solver::DataDrivenOptions Opts = corpus::defaultOptionsFor(P, Timeout);
    Opts.Analysis.EnableOctagons = false;
    Opts.Analysis.EnablePolyhedra = false;
    Opts.Name = "LA-inline";
    return std::make_unique<solver::DataDrivenChcSolver>(Opts);
  };
}

/// Octagons only, polyhedra off: the pre-polyhedra ladder, the baseline the
/// `solved_by_analysis` delta in BENCH_table1.json compares against.
inline SolverFactory linearArbitraryOctagonOnlyFactory() {
  return [](const corpus::BenchmarkProgram &P, double Timeout) {
    solver::DataDrivenOptions Opts = corpus::defaultOptionsFor(P, Timeout);
    Opts.Analysis.EnablePolyhedra = false;
    Opts.Name = "LA-octagons";
    return std::make_unique<solver::DataDrivenChcSolver>(Opts);
  };
}

/// Template polyhedra only, octagons off: isolates what the mined templates
/// buy beyond the octagon shapes.
inline SolverFactory linearArbitraryPolyhedraFactory() {
  return [](const corpus::BenchmarkProgram &P, double Timeout) {
    solver::DataDrivenOptions Opts = corpus::defaultOptionsFor(P, Timeout);
    Opts.Analysis.EnableOctagons = false;
    Opts.Name = "LA-polyhedra";
    return std::make_unique<solver::DataDrivenChcSolver>(Opts);
  };
}

inline SolverFactory noDtFactory() {
  return [](const corpus::BenchmarkProgram &P, double Timeout) {
    solver::DataDrivenOptions Opts = corpus::defaultOptionsFor(P, Timeout);
    Opts.Learn.UseDecisionTree = false;
    Opts.Name = "LinearArbitrary-noDT";
    return std::make_unique<solver::DataDrivenChcSolver>(Opts);
  };
}

inline SolverFactory enumFactory() {
  return [](const corpus::BenchmarkProgram &, double Timeout) {
    return std::make_unique<solver::DataDrivenChcSolver>(
        baselines::makeEnumSolverOptions(Timeout));
  };
}

inline SolverFactory templateFactory() {
  return [](const corpus::BenchmarkProgram &, double Timeout) {
    return std::make_unique<solver::DataDrivenChcSolver>(
        baselines::makeTemplateSolverOptions(Timeout));
  };
}

inline SolverFactory pdrFactory(bool CacheReachable) {
  return [CacheReachable](const corpus::BenchmarkProgram &, double Timeout) {
    baselines::PdrOptions Opts;
    Opts.CacheReachable = CacheReachable;
    Opts.Limits.WallSeconds = Timeout;
    Opts.Smt.TimeoutSeconds = Timeout / 2;
    return std::make_unique<baselines::PdrSolver>(Opts);
  };
}

inline SolverFactory unwindFactory(bool SummaryReuse) {
  return [SummaryReuse](const corpus::BenchmarkProgram &, double Timeout) {
    baselines::UnwindOptions Opts;
    Opts.SummaryReuse = SummaryReuse;
    Opts.Limits.WallSeconds = Timeout;
    Opts.Smt.TimeoutSeconds = Timeout / 2;
    return std::make_unique<baselines::UnwindSolver>(Opts);
  };
}

/// The parallel portfolio over the registered engines, racing data-driven,
/// analysis-only, PDR and unwinding lanes with a shared global budget.
inline SolverFactory portfolioFactory() {
  baselines::registerBuiltinEngines();
  return [](const corpus::BenchmarkProgram &P, double Timeout) {
    solver::EngineOptions Base;
    Base.DataDriven = corpus::defaultOptionsFor(P, Timeout);
    Base.Smt.TimeoutSeconds = Timeout / 2;
    Base.Limits.WallSeconds = Timeout;
    solver::Plan Race =
        solver::racePlan(Base, solver::SolverRegistry::global());
    Race.Name = "LA-portfolio";
    return std::make_unique<solver::PlanSolver>(std::move(Race));
  };
}

/// Result of running one suite under one solver.
struct SuiteResult {
  std::string SolverName;
  std::vector<corpus::RunOutcome> Outcomes; ///< parallel to the program list
  size_t Solved = 0;
  size_t Unsound = 0;
  double TotalSeconds = 0;
  /// Pre-analysis statistics merged per pass name across all programs.
  std::vector<analysis::PassStats> AnalysisPasses;
  /// Programs discharged by the pre-analysis alone (0 CEGAR iterations).
  size_t SolvedByAnalysis = 0;
};

inline SuiteResult
runSuite(const SolverFactory &Factory,
         const std::vector<const corpus::BenchmarkProgram *> &Programs,
         double Timeout) {
  SuiteResult Result;
  for (const corpus::BenchmarkProgram *P : Programs) {
    std::unique_ptr<chc::ChcSolverInterface> Solver = Factory(*P, Timeout);
    if (Result.SolverName.empty())
      Result.SolverName = Solver->name();
    corpus::RunOutcome Out = corpus::runOnProgram(*Solver, *P);
    Result.Solved += Out.Solved;
    Result.Unsound += Out.Unsound;
    Result.TotalSeconds += Out.Seconds;
    Result.SolvedByAnalysis += Out.SolvedByAnalysis;
    for (const analysis::PassStats &PS : Out.AnalysisPasses) {
      auto It = std::find_if(
          Result.AnalysisPasses.begin(), Result.AnalysisPasses.end(),
          [&](const analysis::PassStats &S) { return S.Name == PS.Name; });
      if (It == Result.AnalysisPasses.end())
        Result.AnalysisPasses.push_back(PS);
      else
        It->merge(PS);
    }
    Result.Outcomes.push_back(std::move(Out));
  }
  return Result;
}

/// Prints the merged per-pass statistics of the static pre-analysis pipeline
/// for one suite run (no output when the solver ran without analysis).
inline void printAnalysisReport(const SuiteResult &R) {
  if (R.AnalysisPasses.empty())
    return;
  printf("ANALYSIS: %-18s (%zu program(s) discharged statically)\n",
         R.SolverName.c_str(), R.SolvedByAnalysis);
  for (const analysis::PassStats &PS : R.AnalysisPasses)
    printf("  %s\n", PS.toString().c_str());
}

/// Prints the scatter rows for a two-solver comparison figure.
inline void
printScatter(const std::vector<const corpus::BenchmarkProgram *> &Programs,
             const SuiteResult &Ours, const SuiteResult &Theirs) {
  printf("%-28s %10s %10s   %-8s %-8s\n", "program", Ours.SolverName.c_str(),
         Theirs.SolverName.c_str(), "verdict", "verdict");
  for (size_t I = 0; I < Programs.size(); ++I) {
    const corpus::RunOutcome &A = Ours.Outcomes[I];
    const corpus::RunOutcome &B = Theirs.Outcomes[I];
    printf("%-28s %9.3fs %9.3fs   %-8s %-8s\n", Programs[I]->Name.c_str(),
           A.Seconds, B.Seconds, chc::toString(A.Status),
           chc::toString(B.Status));
  }
}

inline void printSummary(size_t Total, const SuiteResult &R) {
  printf("MEASURED: %-18s solved %zu / %zu  (total %.1fs%s)\n",
         R.SolverName.c_str(), R.Solved, Total, R.TotalSeconds,
         R.Unsound ? ", UNSOUND RESULTS PRESENT" : "");
}

/// Concatenates corpus categories into one suite.
inline std::vector<const corpus::BenchmarkProgram *>
suite(std::initializer_list<const char *> Categories) {
  std::vector<const corpus::BenchmarkProgram *> Programs;
  for (const char *Cat : Categories)
    for (const corpus::BenchmarkProgram *P : corpus::category(Cat))
      Programs.push_back(P);
  return Programs;
}

} // namespace la::bench

#endif // LA_BENCH_BENCHUTIL_H
