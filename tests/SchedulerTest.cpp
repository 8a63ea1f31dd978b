//===- tests/SchedulerTest.cpp - Feature/selector/staged-schedule tests ---===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "baselines/RegisterEngines.h"
#include "corpus/Harness.h"
#include "corpus/Smt2Corpus.h"
#include "frontend/Encoder.h"
#include "smtlib2/Parser.h"
#include "solver/DataDrivenSolver.h"
#include "solver/SolveFacade.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace la;
using namespace la::chc;
using namespace la::solver;

namespace {

constexpr const char *SafeCounterText = R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (inv n))))
(assert (forall ((n Int) (m Int))
  (=> (and (inv n) (< n 10) (= m (+ n 1))) (inv m))))
(assert (forall ((n Int)) (=> (inv n) (<= n 10))))
)";

constexpr const char *UnsafeCounterText = R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (inv n))))
(assert (forall ((n Int) (m Int))
  (=> (and (inv n) (< n 10) (= m (+ n 1))) (inv m))))
(assert (forall ((n Int)) (=> (inv n) (<= n 5))))
)";

/// No finite unrolling settles the query bound within these tests' budgets:
/// drives the staged solver through every stage to the escalation race.
constexpr const char *DivergingText = R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (inv x))))
(assert (forall ((x Int) (x1 Int))
  (=> (and (inv x) (= x1 (+ x 1))) (inv x1))))
(assert (forall ((x Int)) (=> (inv x) (<= x 1000000000))))
)";

void parseInto(const char *Text, ChcSystem &System) {
  smtlib2::ParseResult P = smtlib2::parseSmtLib2(Text, System);
  ASSERT_TRUE(P.Ok) << P.error();
}

EngineInfo info(const char *Id, CostClass Cost, bool SupportsNonlinear = true,
                bool NeedsAnalysis = false, bool Deterministic = true) {
  EngineInfo E;
  E.Id = EngineId(Id);
  E.Description = Id;
  E.TypicalCost = Cost;
  E.SupportsNonlinear = SupportsNonlinear;
  E.NeedsAnalysis = NeedsAnalysis;
  E.Deterministic = Deterministic;
  return E;
}

//===----------------------------------------------------------------------===//
// Schedule policy parsing
//===----------------------------------------------------------------------===//

TEST(SchedulePolicyTest, ParseAndRenderRoundTrip) {
  for (SchedulePolicy P : {SchedulePolicy::Single, SchedulePolicy::Race,
                           SchedulePolicy::Staged, SchedulePolicy::Auto})
    EXPECT_EQ(parseSchedulePolicy(toString(P)), P);
  EXPECT_FALSE(parseSchedulePolicy("ladder").has_value());
  EXPECT_FALSE(parseSchedulePolicy("").has_value());
}

//===----------------------------------------------------------------------===//
// Problem features
//===----------------------------------------------------------------------===//

TEST(ProblemFeaturesTest, GoldenCounterSystem) {
  TermManager TM;
  ChcSystem System(TM);
  parseInto(SafeCounterText, System);
  ProblemFeatures F = ProblemFeatures::fromSystem(System);
  EXPECT_EQ(F.Predicates, 1);
  EXPECT_EQ(F.Clauses, 3);
  EXPECT_EQ(F.Queries, 1);
  EXPECT_EQ(F.Facts, 1);
  EXPECT_EQ(F.MaxArity, 1);
  EXPECT_EQ(F.TotalArgs, 1);
  EXPECT_EQ(F.MaxBodyApps, 1);
  EXPECT_EQ(F.NonlinearClauses, 0);
  EXPECT_EQ(F.Recursive, 1);
  EXPECT_EQ(F.RecursivePreds, 1);
  EXPECT_EQ(F.HaveAnalysis, 0);

  // names() and values() are the offline-fitting contract: same length,
  // and toString renders every name.
  EXPECT_EQ(ProblemFeatures::names().size(), F.values().size());
  std::string Rendered = F.toString();
  for (const std::string &Name : ProblemFeatures::names())
    EXPECT_NE(Rendered.find(Name + "="), std::string::npos) << Name;
  EXPECT_NE(Rendered.find("clauses=3"), std::string::npos);
}

TEST(ProblemFeaturesTest, Smt2CorpusGoldenShape) {
  // Every bundled exchange-format benchmark must extract coherent features,
  // and the nonlinearity flag must agree with the corpus registry.
  for (const corpus::Smt2Benchmark &B : corpus::smt2Benchmarks()) {
    std::ifstream In(B.Path);
    ASSERT_TRUE(In.good()) << B.Path;
    std::ostringstream Text;
    Text << In.rdbuf();
    TermManager TM;
    ChcSystem System(TM);
    smtlib2::ParseResult P = smtlib2::parseSmtLib2(Text.str(), System);
    ASSERT_TRUE(P.Ok) << B.Name << ": " << P.Message;
    ProblemFeatures F = ProblemFeatures::fromSystem(System);
    EXPECT_GE(F.Predicates, 1) << B.Name;
    EXPECT_GE(F.Clauses, 2) << B.Name;
    EXPECT_GE(F.Queries, 1) << B.Name;
    EXPECT_EQ(F.NonlinearClauses > 0, B.NonlinearHorn) << B.Name;
    EXPECT_EQ(F.Predicates > 1, B.MultiPredicate) << B.Name;
  }
}

TEST(ProblemFeaturesTest, StructuralFeaturesStableUnderInlining) {
  // The structural half is extracted from the *input* system; running the
  // pre-analysis (which inlines predicates and rewrites clauses internally)
  // must not change it — only the analysis half may light up.
  std::vector<const corpus::BenchmarkProgram *> Programs =
      corpus::category("loop-lit");
  ASSERT_FALSE(Programs.empty());
  size_t AnalysisRan = 0;
  for (const corpus::BenchmarkProgram *P : Programs) {
    TermManager TM;
    ChcSystem System(TM);
    frontend::EncodeResult E = frontend::encodeMiniC(P->Source, System);
    ASSERT_TRUE(E.Ok) << P->Name << ": " << E.Error;
    ProblemFeatures Before = ProblemFeatures::fromSystem(System);

    DataDrivenOptions DO = corpus::defaultOptionsFor(*P, /*Timeout=*/10);
    DO.AnalysisOnly = true;
    DO.EnableAnalysis = true;
    DataDrivenChcSolver Prober(DO);
    (void)Prober.solve(System);

    ProblemFeatures After = ProblemFeatures::fromSystem(System);
    EXPECT_EQ(Before.values(), After.values()) << P->Name;

    After.addAnalysis(Prober.analysisResult());
    EXPECT_EQ(After.HaveAnalysis, 1) << P->Name;
    if (After.PredicatesInlined > 0)
      ++AnalysisRan;
    // Static features survive the analysis merge untouched.
    EXPECT_EQ(After.Predicates, Before.Predicates) << P->Name;
    EXPECT_EQ(After.Clauses, Before.Clauses) << P->Name;
    EXPECT_EQ(After.Recursive, Before.Recursive) << P->Name;
  }
  // At least one loop-lit program must actually exercise the inliner, or
  // the stability claim above is vacuous.
  EXPECT_GE(AnalysisRan, 1u);
}

//===----------------------------------------------------------------------===//
// Rule selector
//===----------------------------------------------------------------------===//

TEST(RuleSelectorTest, FiltersNonlinearIncapableEngines) {
  RuleSelector S;
  ProblemFeatures F;
  F.NonlinearClauses = 2;
  std::vector<RankedEngine> Ranked =
      S.rank(F, {info("linear-only", CostClass::Cheap,
                      /*SupportsNonlinear=*/false),
                 info("full", CostClass::Heavy)});
  ASSERT_EQ(Ranked.size(), 1u);
  EXPECT_EQ(Ranked[0].Id, EngineId("full"));
}

TEST(RuleSelectorTest, AnalysisConsumersBoostOnlyWhenProbeHelped) {
  RuleSelector S;
  std::vector<EngineInfo> Candidates = {
      info("learner", CostClass::Heavy, true, /*NeedsAnalysis=*/true),
      info("pdr-like", CostClass::Heavy)};

  ProblemFeatures NoFacts;
  NoFacts.Recursive = 1;
  NoFacts.HaveAnalysis = 1;
  std::vector<RankedEngine> Cold = S.rank(NoFacts, Candidates);
  ASSERT_EQ(Cold.size(), 2u);

  ProblemFeatures Helped = NoFacts;
  Helped.BoundsFound = 4;
  std::vector<RankedEngine> Warm = S.rank(Helped, Candidates);
  ASSERT_EQ(Warm.size(), 2u);
  // With analysis facts on the table the analysis-consuming engine must
  // strictly gain on the symbolic one.
  auto ScoreOf = [](const std::vector<RankedEngine> &R, const char *Id) {
    for (const RankedEngine &E : R)
      if (E.Id == EngineId(Id))
        return E.Score;
    return -1.0;
  };
  EXPECT_GT(ScoreOf(Warm, "learner") - ScoreOf(Cold, "learner"), 1.0);
  EXPECT_EQ(ScoreOf(Warm, "pdr-like"), ScoreOf(Cold, "pdr-like"));
  EXPECT_EQ(Warm[0].Id, EngineId("learner"));
}

TEST(RuleSelectorTest, CheapEnginesLeadOnEqualFooting) {
  RuleSelector S;
  ProblemFeatures F;
  F.Recursive = 1;
  std::vector<RankedEngine> Ranked =
      S.rank(F, {info("heavy", CostClass::Heavy),
                 info("cheap", CostClass::Cheap),
                 info("moderate", CostClass::Moderate)});
  ASSERT_EQ(Ranked.size(), 3u);
  EXPECT_EQ(Ranked[0].Id, EngineId("cheap"));
  EXPECT_EQ(Ranked[2].Id, EngineId("heavy"));
}

//===----------------------------------------------------------------------===//
// Table selector
//===----------------------------------------------------------------------===//

TEST(TableSelectorTest, ParseRoundTripAndScoring) {
  std::string Text = "selector 1\n"
                     "features 2 clauses recursive\n"
                     "engine la 0.5 0.25 -1\n"
                     "engine pdr 1 0 0\n"
                     "end\n";
  TableSelector S;
  std::string Error;
  ASSERT_TRUE(TableSelector::parse(Text, S, Error)) << Error;

  ProblemFeatures F;
  F.Clauses = 4;
  F.Recursive = 1;
  // la: 0.5 + 0.25*4 - 1*1 = 0.5; pdr: 1.
  EXPECT_DOUBLE_EQ(S.score(EngineId("la"), F).value(), 0.5);
  EXPECT_DOUBLE_EQ(S.score(EngineId("pdr"), F).value(), 1.0);
  EXPECT_FALSE(S.score(EngineId("unwind"), F).has_value());

  std::vector<RankedEngine> Ranked =
      S.rank(F, {info("la", CostClass::Moderate),
                 info("pdr", CostClass::Heavy),
                 info("unmodeled", CostClass::Cheap)});
  ASSERT_EQ(Ranked.size(), 3u);
  EXPECT_EQ(Ranked[0].Id, EngineId("pdr"));
  EXPECT_EQ(Ranked[1].Id, EngineId("la"));
  // Unmodeled engines rank after every modeled one.
  EXPECT_EQ(Ranked[2].Id, EngineId("unmodeled"));
  EXPECT_LT(Ranked[2].Score, -1e8);
}

TEST(TableSelectorTest, UnknownFeatureNamesAreIgnored) {
  // A model fit by a newer build may name features this build lacks; they
  // must weigh zero instead of failing the load.
  std::string Text = "selector 1\n"
                     "features 2 clauses not_a_feature_yet\n"
                     "engine la 1 2 100\n"
                     "end\n";
  TableSelector S;
  std::string Error;
  ASSERT_TRUE(TableSelector::parse(Text, S, Error)) << Error;
  ProblemFeatures F;
  F.Clauses = 3;
  EXPECT_DOUBLE_EQ(S.score(EngineId("la"), F).value(), 7.0);
}

TEST(TableSelectorTest, RejectsMalformedModels) {
  TableSelector S;
  std::string Error;
  EXPECT_FALSE(TableSelector::parse("selector 2\nend\n", S, Error));
  EXPECT_NE(Error.find("selector 1"), std::string::npos);
  EXPECT_FALSE(TableSelector::parse("selector 1\nfeatures 1 clauses\n"
                                    "engine la 1\nend\n",
                                    S, Error));
  EXPECT_NE(Error.find("truncated weight"), std::string::npos);
  EXPECT_FALSE(TableSelector::parse("selector 1\nfeatures 1 clauses\n"
                                    "engine la 1 2\n",
                                    S, Error));
  EXPECT_NE(Error.find("end"), std::string::npos);
  EXPECT_FALSE(
      TableSelector::loadFile("/nonexistent/selector.model", Error));
  EXPECT_NE(Error.find("cannot open"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// SolveOptionsBuilder validation
//===----------------------------------------------------------------------===//

TEST(SolveOptionsBuilderTest, DefaultsValidate) {
  SolveOptionsBuilder::Validated V = SolveOptionsBuilder().build();
  ASSERT_TRUE(V.Ok) << V.Error;
  EXPECT_EQ(V.Options.Engine, EngineId("la"));
  EXPECT_EQ(V.Options.Schedule.Policy, SchedulePolicy::Single);
}

TEST(SolveOptionsBuilderTest, RejectsBadBudgetAndTopK) {
  SolveOptionsBuilder::Validated Neg =
      SolveOptionsBuilder().wallSeconds(-5).build();
  EXPECT_FALSE(Neg.Ok);
  EXPECT_NE(Neg.Error.find("budget"), std::string::npos);

  SolveOptionsBuilder::Validated ZeroK =
      SolveOptionsBuilder().schedule(SchedulePolicy::Staged).topK(0).build();
  EXPECT_FALSE(ZeroK.Ok);
}

TEST(SolveOptionsBuilderTest, CrashEnginesRequireProcessIsolation) {
  SolveOptionsBuilder::Validated Thread =
      SolveOptionsBuilder().allowCrashEngines().build();
  ASSERT_FALSE(Thread.Ok);
  EXPECT_NE(Thread.Error.find("process isolation"), std::string::npos);

  SolveOptionsBuilder::Validated Process = SolveOptionsBuilder()
                                               .allowCrashEngines()
                                               .isolation(Isolation::Process)
                                               .build();
  EXPECT_TRUE(Process.Ok) << Process.Error;
}

TEST(SolveOptionsBuilderTest, ExplicitEngineConflictsWithPortfolioPolicy) {
  SolveOptionsBuilder::Validated Conflict = SolveOptionsBuilder()
                                                .engine(EngineId("pdr"))
                                                .schedule(SchedulePolicy::Race)
                                                .build();
  ASSERT_FALSE(Conflict.Ok);
  EXPECT_NE(Conflict.Error.find("engine"), std::string::npos);

  // An explicit engine under the (default or explicit) Single policy is the
  // legacy path and stays fine.
  EXPECT_TRUE(SolveOptionsBuilder().engine(EngineId("pdr")).build().Ok);
  EXPECT_TRUE(SolveOptionsBuilder()
                  .engine(EngineId("pdr"))
                  .schedule(SchedulePolicy::Single)
                  .build()
                  .Ok);
  // Schedule-only requests never conflict.
  EXPECT_TRUE(
      SolveOptionsBuilder().schedule(SchedulePolicy::Staged).build().Ok);
}

//===----------------------------------------------------------------------===//
// Staged solving
//===----------------------------------------------------------------------===//

TEST(StagedSolverTest, SolvesSafeSystemAndKeepsLaneTimeline) {
  baselines::registerBuiltinEngines();
  TermManager TM;
  ChcSystem System(TM);
  parseInto(SafeCounterText, System);

  EngineOptions Base;
  Base.Limits.WallSeconds = 60;
  PlanSolver Solver(stagedPlan(Base, 2, nullptr, SolverRegistry::global()));
  ChcSolverResult Res = Solver.solve(System);
  EXPECT_EQ(Res.Status, ChcResult::Sat);

  // The probe stage always runs first and the feature vector is complete.
  ASSERT_FALSE(Solver.stages().empty());
  EXPECT_EQ(Solver.stages().front().Stage, "probe");
  EXPECT_EQ(Solver.features().Clauses, 3);
  EXPECT_EQ(Solver.features().HaveAnalysis, 1);

  // Reports carry stage-prefixed labels and a global start-order index
  // consistent with their position; timestamps sit on one clock.
  ASSERT_FALSE(Solver.reports().empty());
  for (size_t I = 0; I < Solver.reports().size(); ++I) {
    const EngineReport &R = Solver.reports()[I];
    EXPECT_EQ(R.LaneIndex, I) << R.Lane;
    EXPECT_TRUE(R.Lane.find("probe:") == 0 || R.Lane.find("top:") == 0 ||
                R.Lane.find("race:") == 0)
        << R.Lane;
    EXPECT_LE(R.QueuedSeconds, R.StartSeconds) << R.Lane;
    EXPECT_LE(R.StartSeconds, R.StopSeconds) << R.Lane;
  }
  // Exactly one stage hit, and it is the one carrying the verdict.
  size_t Hits = 0;
  for (const StageReport &S : Solver.stages())
    Hits += S.Hit;
  EXPECT_EQ(Hits, 1u);
  EXPECT_EQ(Solver.stages().back().Status, ChcResult::Sat);
}

TEST(StagedSolverTest, EscalatesToRaceWhenEarlierStagesSayUnknown) {
  baselines::registerBuiltinEngines();
  TermManager TM;
  ChcSystem System(TM);
  parseInto(DivergingText, System);

  EngineOptions Base;
  Base.Limits.WallSeconds = 3;
  PlanSolver Solver(stagedPlan(Base, 1, nullptr, SolverRegistry::global()));
  ChcSolverResult Res = Solver.solve(System);
  EXPECT_EQ(Res.Status, ChcResult::Unknown);
  EXPECT_TRUE(Solver.escalated());
  EXPECT_FALSE(Solver.solvedByAnalysis());
  ASSERT_GE(Solver.stages().size(), 3u);
  EXPECT_EQ(Solver.stages().back().Stage, "race");
  for (const StageReport &S : Solver.stages())
    EXPECT_FALSE(S.Hit) << S.Stage;
}

TEST(StagedSolverTest, SelectorTopKCapsTheSelectedStage) {
  baselines::registerBuiltinEngines();
  TermManager TM;
  ChcSystem System(TM);
  parseInto(DivergingText, System);

  EngineOptions Base;
  Base.Limits.WallSeconds = 2;
  PlanSolver Solver(stagedPlan(Base, 2, nullptr, SolverRegistry::global()));
  (void)Solver.solve(System);
  ASSERT_GE(Solver.stages().size(), 2u);
  const StageReport &TopK = Solver.stages()[1];
  EXPECT_EQ(TopK.Stage, "top-k");
  EXPECT_LE(TopK.Engines.size(), 2u);
  EXPECT_GE(TopK.Engines.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Façade integration: differential parity and serialization
//===----------------------------------------------------------------------===//

TEST(StagedFacadeTest, StagedMatchesRaceVerdicts) {
  baselines::registerBuiltinEngines();
  for (const char *Text : {SafeCounterText, UnsafeCounterText}) {
    SolveOptionsBuilder RaceB;
    RaceB.schedule(SchedulePolicy::Race).wallSeconds(30);
    SolveOptionsBuilder::Validated Race = RaceB.build();
    ASSERT_TRUE(Race.Ok) << Race.Error;
    SolveResult R = solveChcText(Text, Race.Options);
    ASSERT_TRUE(R.Ok) << R.Error;
    ASSERT_NE(R.Status, ChcResult::Unknown);
    EXPECT_TRUE(R.Stages.empty());

    SolveOptionsBuilder StagedB;
    StagedB.schedule(SchedulePolicy::Staged).wallSeconds(30);
    SolveOptionsBuilder::Validated Staged = StagedB.build();
    ASSERT_TRUE(Staged.Ok) << Staged.Error;
    SolveResult S = solveChcText(Text, Staged.Options);
    ASSERT_TRUE(S.Ok) << S.Error;
    // Parity: staged ends in the same full race with the remaining budget,
    // so it must match every definitive race verdict.
    EXPECT_EQ(S.Status, R.Status);
    ASSERT_FALSE(S.Stages.empty());
    EXPECT_EQ(S.SolverName, "staged");
    // The summary renders the stage ladder.
    EXPECT_NE(S.summary().find("stages:"), std::string::npos);
  }
}

TEST(StagedFacadeTest, AutoPolicyPicksStagedWithChoices) {
  baselines::registerBuiltinEngines();
  SolveOptionsBuilder B;
  B.schedule(SchedulePolicy::Auto).wallSeconds(30);
  SolveOptionsBuilder::Validated V = B.build();
  ASSERT_TRUE(V.Ok) << V.Error;
  SolveResult S = solveChcText(SafeCounterText, V.Options);
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_EQ(S.Status, ChcResult::Sat);
  // The baselines are registered, so auto must resolve to staged.
  EXPECT_FALSE(S.Stages.empty());
}

TEST(StagedFacadeTest, SerializationV2RoundTripsStages) {
  baselines::registerBuiltinEngines();
  SolveOptionsBuilder B;
  B.schedule(SchedulePolicy::Staged).wallSeconds(30);
  SolveOptionsBuilder::Validated V = B.build();
  ASSERT_TRUE(V.Ok) << V.Error;
  SolveResult S = solveChcText(SafeCounterText, V.Options);
  ASSERT_TRUE(S.Ok) << S.Error;
  ASSERT_EQ(S.Status, ChcResult::Sat);
  ASSERT_FALSE(S.Stages.empty());

  SolveResult R;
  ASSERT_TRUE(deserializeResult(serializeResult(S), R));
  EXPECT_EQ(R.Status, S.Status);
  EXPECT_EQ(R.Escalated, S.Escalated);
  ASSERT_EQ(R.Stages.size(), S.Stages.size());
  for (size_t I = 0; I < R.Stages.size(); ++I) {
    EXPECT_EQ(R.Stages[I].Stage, S.Stages[I].Stage);
    EXPECT_EQ(R.Stages[I].Engines, S.Stages[I].Engines);
    EXPECT_EQ(R.Stages[I].Hit, S.Stages[I].Hit);
    EXPECT_EQ(R.Stages[I].Status, S.Stages[I].Status);
  }
  ASSERT_EQ(R.Engines.size(), S.Engines.size());
  for (size_t I = 0; I < R.Engines.size(); ++I) {
    EXPECT_EQ(R.Engines[I].Lane, S.Engines[I].Lane);
    EXPECT_EQ(R.Engines[I].LaneIndex, S.Engines[I].LaneIndex);
  }

  // Old-format records must read as cache misses, not as corrupt data.
  std::string V1 = serializeResult(S);
  V1.replace(V1.find("la-solve 2"), 10, "la-solve 1");
  SolveResult Stale;
  EXPECT_FALSE(deserializeResult(V1, Stale));
}

} // namespace
