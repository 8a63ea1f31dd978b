//===- bench/table1_solver_comparison.cpp -----------------------------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
// Reproduces the solver-count table of §6:
//
//   #Total  #GPDR  #Spacer  #Duality  #LinearArbitrary
//   381     300    303      309       368
//
// over this repository's corpus. The absolute counts differ (our corpus is
// smaller), but the ordering -- LinearArbitrary ahead, Duality slightly
// ahead of Spacer/GPDR -- is the shape under reproduction.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "solver/Scheduler.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>

using namespace la;
using namespace la::bench;

namespace {

double cacheHitRate(const chc::CheckStats &C) {
  uint64_t Lookups = C.CacheHits + C.CacheMisses;
  return Lookups ? static_cast<double>(C.CacheHits) / Lookups : 0.0;
}

/// Emits the machine-readable companion of the printed table: per program
/// and solver the wall-clock, the SMT checks actually issued by the
/// incremental backend, and its cache hit rate. CI uploads this file as an
/// artifact so backend regressions show up as a diff in review.
void writeJson(const char *Path,
               const std::vector<const corpus::BenchmarkProgram *> &Programs,
               const std::vector<SuiteResult> &Results,
               double BestSingleSeconds) {
  std::ofstream Out(Path);
  if (!Out) {
    fprintf(stderr, "warning: cannot write %s\n", Path);
    return;
  }
  // The headline the polyhedra rung is accountable for: how many extra
  // programs the full ladder discharges statically over the octagon-only
  // ladder.
  long SolvedByAnalysisDelta = 0;
  {
    const SuiteResult *Full = nullptr, *OctOnly = nullptr;
    for (const SuiteResult &R : Results) {
      if (R.SolverName == "LinearArbitrary")
        Full = &R;
      if (R.SolverName == "LA-octagons")
        OctOnly = &R;
    }
    if (Full && OctOnly)
      SolvedByAnalysisDelta = static_cast<long>(Full->SolvedByAnalysis) -
                              static_cast<long>(OctOnly->SolvedByAnalysis);
  }
  Out << "{\n  \"solved_by_analysis_delta\": " << SolvedByAnalysisDelta
      << ",\n";
  // Static problem features per program (the scheduler's ProblemFeatures
  // vector, extracted from the encoded system without running anything).
  // bench/fit_selector.py joins these rows with the per-solver outcomes
  // below to fit the table-driven engine-selector model offline.
  Out << "  \"program_features\": [\n";
  for (size_t I = 0; I < Programs.size(); ++I) {
    TermManager TM;
    chc::ChcSystem System(TM);
    frontend::EncodeResult E = frontend::encodeMiniC(Programs[I]->Source,
                                                     System);
    Out << "    {\"name\": \"" << Programs[I]->Name << "\"";
    if (E.Ok) {
      solver::ProblemFeatures F = solver::ProblemFeatures::fromSystem(System);
      std::vector<double> Values = F.values();
      const std::vector<std::string> &Names =
          solver::ProblemFeatures::names();
      for (size_t J = 0; J < Names.size(); ++J)
        Out << ", \"" << Names[J] << "\": " << Values[J];
    }
    Out << "}" << (I + 1 < Programs.size() ? "," : "") << "\n";
  }
  Out << "  ],\n  \"solvers\": [\n";
  for (size_t S = 0; S < Results.size(); ++S) {
    const SuiteResult &R = Results[S];
    chc::CheckStats Total;
    size_t TotalIterations = 0;
    size_t PredicatesInlined = 0, ClausesRemoved = 0;
    size_t TemplatesMined = 0, PolyhedraFacts = 0, SweepCapHits = 0;
    for (const analysis::PassStats &PS : R.AnalysisPasses) {
      PredicatesInlined += PS.PredicatesInlined;
      ClausesRemoved += PS.ClausesRemoved;
      TemplatesMined += PS.TemplatesMined;
      SweepCapHits += PS.SweepCapHits;
      if (PS.Name == "verify")
        PolyhedraFacts += PS.PolyhedraFacts;
    }
    Out << "    {\n      \"name\": \"" << R.SolverName << "\",\n"
        << "      \"solved\": " << R.Solved << ",\n"
        << "      \"solved_by_analysis\": " << R.SolvedByAnalysis << ",\n"
        << "      \"predicates_inlined\": " << PredicatesInlined << ",\n"
        << "      \"clauses_removed\": " << ClausesRemoved << ",\n"
        << "      \"templates_mined\": " << TemplatesMined << ",\n"
        << "      \"polyhedra_facts\": " << PolyhedraFacts << ",\n"
        << "      \"sweep_cap_hits\": " << SweepCapHits << ",\n"
        << "      \"total_seconds\": " << R.TotalSeconds << ",\n";
    // Per-pass wall clock and hot-path counters (transfer cache, LP
    // pivots, pack shapes), merged over the suite: the smoke job diffs
    // these to catch silent slowdowns of a single pass.
    Out << "      \"passes\": [\n";
    for (size_t PI = 0; PI < R.AnalysisPasses.size(); ++PI) {
      const analysis::PassStats &PS = R.AnalysisPasses[PI];
      Out << "        {\"name\": \"" << PS.Name
          << "\", \"millis\": " << PS.Seconds * 1000.0
          << ", \"xfer_cache_hits\": " << PS.XferCacheHits
          << ", \"xfer_cache_misses\": " << PS.XferCacheMisses
          << ", \"lp_pivots\": " << PS.LpPivots
          << ", \"packs_built\": " << PS.PacksBuilt
          << ", \"largest_pack\": " << PS.LargestPack << "}"
          << (PI + 1 < R.AnalysisPasses.size() ? "," : "") << "\n";
    }
    Out << "      ],\n";
    if (R.SolverName == "LA-portfolio")
      Out << "      \"best_single_seconds\": " << BestSingleSeconds << ",\n";
    Out << "      \"programs\": [\n";
    for (size_t I = 0; I < R.Outcomes.size(); ++I) {
      const corpus::RunOutcome &O = R.Outcomes[I];
      Total.merge(O.Stats.Check);
      TotalIterations += O.Stats.Iterations;
      Out << "        {\"name\": \"" << Programs[I]->Name
          << "\", \"status\": \"" << chc::toString(O.Status)
          << "\", \"solved\": " << (O.Solved ? "true" : "false")
          << ", \"seconds\": " << O.Seconds
          << ", \"iterations\": " << O.Stats.Iterations
          << ", \"solved_by_analysis\": "
          << (O.SolvedByAnalysis ? "true" : "false")
          << ", \"smt_checks\": " << O.Stats.Check.ChecksIssued
          << ", \"cache_hits\": " << O.Stats.Check.CacheHits
          << ", \"cache_hit_rate\": " << cacheHitRate(O.Stats.Check)
          << ", \"scope_pushes\": " << O.Stats.Check.ScopePushes
          << ", \"rebuilds_avoided\": " << O.Stats.Check.RebuildsAvoided
          << ", \"disk_hits\": " << O.Stats.Check.DiskHits
          << ", \"disk_misses\": " << O.Stats.Check.DiskMisses
          << "}" << (I + 1 < R.Outcomes.size() ? "," : "") << "\n";
    }
    Out << "      ],\n"
        << "      \"iterations\": " << TotalIterations << ",\n"
        << "      \"smt_checks\": " << Total.ChecksIssued << ",\n"
        << "      \"cache_hit_rate\": " << cacheHitRate(Total) << ",\n"
        << "      \"disk_hits\": " << Total.DiskHits << ",\n"
        << "      \"disk_misses\": " << Total.DiskMisses << ",\n"
        << "      \"disk_stores\": " << Total.DiskStores << "\n"
        << "    }" << (S + 1 < Results.size() ? "," : "") << "\n";
  }
  Out << "  ]\n}\n";
  printf("\nwrote %s\n", Path);
}

} // namespace

int main() {
  printf("== Table 1: verified benchmarks per CHC solver ==\n");
  printf("PAPER: #Total 381 | GPDR 300 | Spacer 303 | Duality 309 | "
         "LinearArbitrary 368\n\n");

  std::vector<const corpus::BenchmarkProgram *> Programs =
      suite({"loop-lit", "loop-invgen", "pie-suite", "dig-suite",
             "recursive"});
  double Timeout = benchTimeout();

  // Smoke mode (LA_BENCH_SMOKE=N): keep every N-th program and only the
  // analysis-bearing solver rows, so CI can afford the run on every push
  // while still gating on `solved_by_analysis`.
  size_t SmokeStride = 0;
  if (const char *Env = std::getenv("LA_BENCH_SMOKE"))
    SmokeStride = std::max<long>(1, std::atol(Env));
  if (SmokeStride > 1) {
    std::vector<const corpus::BenchmarkProgram *> Subset;
    for (size_t I = 0; I < Programs.size(); I += SmokeStride)
      Subset.push_back(Programs[I]);
    Programs = std::move(Subset);
  }

  struct Row {
    const char *Label;
    SolverFactory Factory;
  };
  std::vector<Row> Rows;
  if (SmokeStride == 0) {
    Rows.push_back({"gpdr", pdrFactory(/*CacheReachable=*/false)});
    Rows.push_back({"spacer", pdrFactory(/*CacheReachable=*/true)});
    Rows.push_back({"duality", unwindFactory(/*SummaryReuse=*/true)});
    Rows.push_back({"LA-inline", linearArbitraryInlineOnlyFactory()});
  }
  Rows.push_back({"LA-octagons", linearArbitraryOctagonOnlyFactory()});
  if (SmokeStride == 0)
    Rows.push_back({"LA-polyhedra", linearArbitraryPolyhedraFactory()});
  Rows.push_back({"LinearArbitrary", linearArbitraryFactory()});
  if (SmokeStride == 0)
    Rows.push_back({"LA-portfolio", portfolioFactory()});

  printf("MEASURED: #Total %zu\n", Programs.size());
  std::vector<SuiteResult> Results;
  for (const Row &R : Rows) {
    SuiteResult Result = runSuite(R.Factory, Programs, Timeout);
    printf("MEASURED: %-18s solved %3zu / %zu   (%.1fs total%s)\n", R.Label,
           Result.Solved, Programs.size(), Result.TotalSeconds,
           Result.Unsound ? ", UNSOUND RESULTS PRESENT" : "");
    Results.push_back(std::move(Result));
  }

  // Portfolio headline: wall clock against the best single engine. The
  // portfolio burns more CPU but should match or beat the best lane on
  // solved count while staying in the same wall-clock ballpark.
  double BestSingleSeconds = 0;
  if (SmokeStride == 0) {
    const SuiteResult &Portfolio = Results.back();
    const char *BestSingle = "";
    size_t BestSolved = 0;
    for (size_t I = 0; I + 1 < Results.size(); ++I) {
      if (Results[I].Solved > BestSolved ||
          (Results[I].Solved == BestSolved &&
           Results[I].TotalSeconds < BestSingleSeconds)) {
        BestSolved = Results[I].Solved;
        BestSingleSeconds = Results[I].TotalSeconds;
        BestSingle = Rows[I].Label;
      }
    }
    printf("\nPORTFOLIO: solved %zu vs best single engine %s %zu "
           "(wall %.1fs vs %.1fs)\n",
           Portfolio.Solved, BestSingle, BestSolved, Portfolio.TotalSeconds,
           BestSingleSeconds);
  }

  printf("\n== Static pre-analysis impact (per pass, summed over suite) ==\n");
  for (const SuiteResult &R : Results)
    printAnalysisReport(R);
  writeJson("BENCH_table1.json", Programs, Results, BestSingleSeconds);
  return 0;
}
