//===- tests/PortfolioTest.cpp - Registry + plan executor tests -----------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "baselines/RegisterEngines.h"
#include "corpus/Harness.h"
#include "smtlib2/Parser.h"
#include "solver/Plan.h"
#include "solver/SolveFacade.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

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

/// A diverging loop (no finite unrolling refutes or proves the query bound
/// within the budget of these tests): keeps lanes busy until cancelled.
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

/// Stub engine with scripted behavior, for winner-selection and isolation
/// tests that must not depend on real solver timing.
struct StubEngine : ChcSolverInterface {
  enum class Behavior { Sat, Unsat, Unknown, Throw, SleepThenSat, WaitCancel };
  Behavior Mode;
  std::shared_ptr<const CancellationToken> Cancel;
  double SleepSeconds = 0;

  StubEngine(Behavior Mode, std::shared_ptr<const CancellationToken> Cancel,
             double SleepSeconds)
      : Mode(Mode), Cancel(std::move(Cancel)), SleepSeconds(SleepSeconds) {}

  ChcSolverResult solve(const ChcSystem &System) override {
    ChcSolverResult R(System.termManager());
    switch (Mode) {
    case Behavior::Throw:
      throw std::runtime_error("stub blew up");
    case Behavior::SleepThenSat:
      std::this_thread::sleep_for(
          std::chrono::duration<double>(SleepSeconds));
      [[fallthrough]];
    case Behavior::Sat:
      R.Status = ChcResult::Sat;
      // `true` for every predicate is a genuine solution only for systems
      // without query clauses; these tests never validate stub models.
      for (const Predicate *P : System.predicates())
        R.Interp.set(P, System.termManager().mkTrue());
      return R;
    case Behavior::Unsat:
      R.Status = ChcResult::Unsat;
      return R;
    case Behavior::Unknown:
      return R;
    case Behavior::WaitCancel:
      // Cooperative lane: spins until the shared token fires, like a real
      // engine polling at its loop head.
      while (!isCancelled(Cancel))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return R;
    }
    return R;
  }
  std::string name() const override { return "stub"; }
};

/// A private registry with scripted engines (the registry owns a mutex and
/// cannot move, so stubs are added in place). Lanes receive the shared race
/// token through `EngineOptions::Cancel`, which the factories capture.
void addStubEngines(SolverRegistry &R) {
  auto Stub = [](StubEngine::Behavior Mode, double Sleep = 0) {
    return [Mode, Sleep](const EngineOptions &EO)
               -> std::unique_ptr<ChcSolverInterface> {
      return std::make_unique<StubEngine>(Mode, EO.Cancel, Sleep);
    };
  };
  auto Add = [&R](const char *Id, const char *Description,
                  SolverRegistry::Factory F) {
    EngineInfo Info;
    Info.Id = EngineId(Id);
    Info.Description = Description;
    Info.TypicalCost = CostClass::Cheap;
    R.add(std::move(Info), std::move(F));
  };
  Add("stub-sat", "returns sat", Stub(StubEngine::Behavior::Sat));
  Add("stub-unsat", "returns unsat", Stub(StubEngine::Behavior::Unsat));
  Add("stub-unknown", "returns unknown", Stub(StubEngine::Behavior::Unknown));
  Add("stub-throw", "throws", Stub(StubEngine::Behavior::Throw));
  Add("stub-slow-sat", "sat after 300ms",
      Stub(StubEngine::Behavior::SleepThenSat, 0.3));
  Add("stub-wait", "spins until cancelled",
      Stub(StubEngine::Behavior::WaitCancel));
}

/// Registers the genuine data-driven solver under "la-real" (tests race it
/// against stubs to exercise cancellation and process isolation).
void addRealLaEngine(SolverRegistry &R) {
  EngineInfo Info;
  Info.Id = EngineId("la-real");
  Info.Description = "the real data-driven solver";
  R.add(std::move(Info),
        [](const EngineOptions &EO) -> std::unique_ptr<ChcSolverInterface> {
          DataDrivenOptions Opts = EO.DataDriven;
          Opts.Limits = EO.Limits.resolvedOver(Opts.Limits);
          Opts.Cancel = EO.Cancel;
          return std::make_unique<DataDrivenChcSolver>(std::move(Opts));
        });
}

/// A one-stage plan racing \p Engines from the private registry \p R.
Plan stubPlan(const SolverRegistry &R,
              std::initializer_list<const char *> Engines) {
  Plan P;
  P.Registry = &R;
  Stage Race;
  for (const char *E : Engines)
    Race.Lanes.push_back({EngineId(E), E, {}});
  P.Stages.push_back(std::move(Race));
  return P;
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(SolverRegistryTest, BuiltinsAndBaselinesRegistered) {
  SolverRegistry &R = SolverRegistry::global();
  EXPECT_TRUE(R.contains(EngineId("la")));
  EXPECT_TRUE(R.contains(EngineId("analysis")));
  baselines::registerBuiltinEngines();
  for (const char *Id :
       {"pdr", "spacer", "gpdr", "unwind", "duality", "interpolation", "pie",
        "dig"})
    EXPECT_TRUE(R.contains(EngineId(Id))) << Id;
  // Idempotent: a second registration call must not fail or duplicate.
  baselines::registerBuiltinEngines();
  std::vector<EngineId> Ids = R.engineIds();
  EXPECT_TRUE(std::is_sorted(Ids.begin(), Ids.end()));
  EXPECT_EQ(std::adjacent_find(Ids.begin(), Ids.end()), Ids.end());
}

TEST(SolverRegistryTest, CapabilityDescriptorsAndSelectableSet) {
  SolverRegistry &R = SolverRegistry::global();
  baselines::registerBuiltinEngines();

  // Capabilities drive the scheduler; spot-check the load-bearing ones.
  std::optional<EngineInfo> Pdr = R.info(EngineId("pdr"));
  ASSERT_TRUE(Pdr.has_value());
  EXPECT_EQ(Pdr->TypicalCost, CostClass::Heavy);
  std::optional<EngineInfo> Pie = R.info(EngineId("pie"));
  ASSERT_TRUE(Pie.has_value());
  EXPECT_TRUE(Pie->NeedsAnalysis);
  // An alias shares the target's descriptor.
  std::optional<EngineInfo> Spacer = R.info(EngineId("spacer"));
  ASSERT_TRUE(Spacer.has_value());
  EXPECT_EQ(Spacer->TypicalCost, CostClass::Heavy);
  EXPECT_FALSE(R.info(EngineId("no-such-engine")).has_value());

  // selectable() excludes aliases and diagnostic engines.
  std::vector<EngineInfo> Selectable = R.selectable();
  EXPECT_GE(Selectable.size(), 2u);
  for (const EngineInfo &E : Selectable) {
    EXPECT_FALSE(E.IsDiagnostic) << E.Id.str();
    EXPECT_NE(E.Id, EngineId("spacer")) << "aliases are not candidates";
    EXPECT_NE(E.Id, EngineId("duality")) << "aliases are not candidates";
  }
}

TEST(SolverRegistryTest, CreateAppliesBudgetAndUnknownIdFails) {
  SolverRegistry &R = SolverRegistry::global();
  EngineOptions EO;
  EO.Limits.WallSeconds = 1;
  std::unique_ptr<ChcSolverInterface> La = R.create(EngineId("la"), EO);
  ASSERT_NE(La, nullptr);
  EXPECT_EQ(La->name(), "LinearArbitrary");
  EXPECT_EQ(R.create(EngineId("no-such-engine"), EO), nullptr);
}

TEST(SolverRegistryTest, FacadeRejectsUnknownEngine) {
  SolveOptions Opts;
  Opts.Engine = EngineId("no-such-engine");
  SolveResult S = solveChcText(SafeCounterText, Opts);
  EXPECT_FALSE(S.Ok);
  EXPECT_NE(S.Error.find("unknown engine"), std::string::npos);
  // The error names the available engines so callers can self-correct.
  EXPECT_NE(S.Error.find("la"), std::string::npos);
  EXPECT_NE(S.Error.find("analysis"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Winner selection
//===----------------------------------------------------------------------===//

TEST(PortfolioTest, DefinitiveAnswerBeatsUnknown) {
  TermManager TM;
  ChcSystem System(TM);
  parseInto(SafeCounterText, System);
  SolverRegistry R;
  addStubEngines(R);
  PlanSolver Solver(stubPlan(R, {"stub-unknown", "stub-sat", "stub-unknown"}));
  ChcSolverResult Res = Solver.solve(System);
  EXPECT_EQ(Res.Status, ChcResult::Sat);
  ASSERT_EQ(Solver.reports().size(), 3u);
  // Exactly one winner, the sat lane.
  size_t Winners = 0;
  for (const EngineReport &Rep : Solver.reports()) {
    if (Rep.Winner) {
      ++Winners;
      EXPECT_EQ(Rep.Engine, "stub-sat");
      EXPECT_EQ(Rep.Status, ChcResult::Sat);
    }
  }
  EXPECT_EQ(Winners, 1u);
}

TEST(PortfolioTest, FirstDefinitiveAnswerWinsAndCancelsSlowLane) {
  TermManager TM;
  ChcSystem System(TM);
  parseInto(UnsafeCounterText, System);
  SolverRegistry R;
  addStubEngines(R);
  // The unsat lane answers immediately; the 300ms sat lane must lose. (Both
  // are definitive: first-wins resolves the race, not a verdict priority.)
  PlanSolver Solver(stubPlan(R, {"stub-slow-sat", "stub-unsat"}));
  Timer Wall;
  ChcSolverResult Res = Solver.solve(System);
  EXPECT_EQ(Res.Status, ChcResult::Unsat);
  for (const EngineReport &Rep : Solver.reports())
    EXPECT_EQ(Rep.Winner, Rep.Engine == "stub-unsat");
  // The race itself must not wait out the slow lane's full sleep forever;
  // generous bound for loaded CI machines.
  EXPECT_LT(Wall.elapsedSeconds(), 10.0);
}

TEST(PortfolioTest, ReportsFollowStartOrder) {
  // Race: reports keep the configured lane order, not completion order.
  TermManager TM;
  ChcSystem System(TM);
  parseInto(SafeCounterText, System);
  SolverRegistry R;
  addStubEngines(R);
  PlanSolver Race(
      stubPlan(R, {"stub-unknown", "stub-sat", "stub-unsat", "stub-throw"}));
  (void)Race.solve(System);
  const std::vector<std::string> Order = {"stub-unknown", "stub-sat",
                                          "stub-unsat", "stub-throw"};
  ASSERT_EQ(Race.reports().size(), Order.size());
  for (size_t I = 0; I < Order.size(); ++I) {
    EXPECT_EQ(Race.reports()[I].Lane, Order[I]);
    EXPECT_EQ(Race.reports()[I].LaneIndex, I);
  }

  // Staged: stage after stage, each stage's lanes in their configured
  // order, numbered across the whole plan.
  baselines::registerBuiltinEngines();
  TermManager TM2;
  ChcSystem Diverging(TM2);
  parseInto(DivergingText, Diverging);
  EngineOptions Base;
  Base.Limits.WallSeconds = 2;
  PlanSolver Staged(stagedPlan(Base, 2, nullptr, SolverRegistry::global()));
  (void)Staged.solve(Diverging);
  std::vector<std::string> Labels;
  for (const StageReport &S : Staged.stages())
    Labels.insert(Labels.end(), S.Engines.begin(), S.Engines.end());
  ASSERT_GE(Staged.stages().size(), 2u);
  ASSERT_EQ(Staged.reports().size(), Labels.size());
  for (size_t I = 0; I < Labels.size(); ++I) {
    EXPECT_EQ(Staged.reports()[I].Lane, Labels[I]);
    EXPECT_EQ(Staged.reports()[I].LaneIndex, I);
  }
  EXPECT_EQ(Labels.front(), "probe:analysis");
}

//===----------------------------------------------------------------------===//
// Isolation and cancellation
//===----------------------------------------------------------------------===//

TEST(PortfolioTest, ThrowingLaneDoesNotSpoilTheRace) {
  TermManager TM;
  ChcSystem System(TM);
  parseInto(SafeCounterText, System);
  // One stub lane throws; the real "la" lane must still solve the system.
  SolverRegistry R;
  addStubEngines(R);
  addRealLaEngine(R);
  Plan PO = stubPlan(R, {"stub-throw", "la-real"});
  PO.Base.Limits.WallSeconds = 60;
  PlanSolver Solver(PO);
  ChcSolverResult Res = Solver.solve(System);
  EXPECT_EQ(Res.Status, ChcResult::Sat);
  // The winner's model lives in the *input* manager and validates there.
  EXPECT_EQ(checkInterpretation(System, Res.Interp), ClauseStatus::Valid);
  ASSERT_EQ(Solver.reports().size(), 2u);
  const EngineReport &Thrown = Solver.reports()[0];
  ASSERT_EQ(Thrown.Engine, "stub-throw");
  EXPECT_TRUE(Thrown.Crashed);
  EXPECT_NE(Thrown.Error.find("stub blew up"), std::string::npos);
  EXPECT_FALSE(Thrown.Winner);
}

TEST(PortfolioTest, UnknownLaneIdIsContainedAsLaneError) {
  TermManager TM;
  ChcSystem System(TM);
  parseInto(SafeCounterText, System);
  SolverRegistry R;
  addStubEngines(R);
  Plan PO = stubPlan(R, {"no-such-engine", "stub-sat"});
  PlanSolver Solver(PO);
  ChcSolverResult Res = Solver.solve(System);
  EXPECT_EQ(Res.Status, ChcResult::Sat);
  const EngineReport &Bad = Solver.reports()[0];
  ASSERT_EQ(Bad.Engine, "no-such-engine");
  EXPECT_TRUE(Bad.Crashed);
  EXPECT_NE(Bad.Error.find("unknown engine id"), std::string::npos);
}

TEST(PortfolioTest, WinnerCancelsCooperativeLanesPromptly) {
  TermManager TM;
  ChcSystem System(TM);
  parseInto(SafeCounterText, System);
  SolverRegistry R;
  addStubEngines(R);
  // The waiting lane only returns once cancelled; the race must finish
  // quickly after the sat lane answers, bounding cancellation latency.
  PlanSolver Solver(stubPlan(R, {"stub-wait", "stub-sat"}));
  Timer Wall;
  ChcSolverResult Res = Solver.solve(System);
  EXPECT_EQ(Res.Status, ChcResult::Sat);
  EXPECT_LT(Wall.elapsedSeconds(), 5.0);
  for (const EngineReport &Rep : Solver.reports())
    if (Rep.Engine == "stub-wait") {
      EXPECT_TRUE(Rep.Cancelled);
      EXPECT_EQ(Rep.Status, ChcResult::Unknown);
    }
}

TEST(PortfolioTest, CancellationReachesRealEngineInsideSmt) {
  // A real data-driven lane grinding on a diverging system must be torn
  // down by a stub answer: the token is polled inside the CEGAR loop and at
  // every SMT theory check, so the solve returns well before the lane's own
  // wall-clock budget.
  TermManager TM;
  ChcSystem System(TM);
  parseInto(DivergingText, System);
  SolverRegistry R;
  addStubEngines(R);
  addRealLaEngine(R);
  Plan PO = stubPlan(R, {"la-real", "stub-slow-sat"});
  PO.Base.Limits.WallSeconds = 60; // the budget is NOT what ends this race
  PlanSolver Solver(PO);
  Timer Wall;
  ChcSolverResult Res = Solver.solve(System);
  EXPECT_EQ(Res.Status, ChcResult::Sat);
  EXPECT_LT(Wall.elapsedSeconds(), 30.0);
  for (const EngineReport &Rep : Solver.reports()) {
    if (Rep.Engine == "la-real") {
      EXPECT_EQ(Rep.Status, ChcResult::Unknown);
    }
  }
}

TEST(PortfolioTest, GlobalBudgetCancelsEveryLane) {
  TermManager TM;
  ChcSystem System(TM);
  parseInto(SafeCounterText, System);
  SolverRegistry R;
  addStubEngines(R);
  Plan PO = stubPlan(R, {"stub-wait", "stub-wait-2"});
  PO.Stages[0].Lanes[1].Engine = EngineId("stub-wait");
  PO.Stages[0].Lanes[1].Label = "stub-wait-2";
  PO.Base.Limits.WallSeconds = 0.2;
  PlanSolver Solver(PO);
  Timer Wall;
  ChcSolverResult Res = Solver.solve(System);
  EXPECT_EQ(Res.Status, ChcResult::Unknown);
  EXPECT_LT(Wall.elapsedSeconds(), 5.0);
  for (const EngineReport &Rep : Solver.reports())
    EXPECT_TRUE(Rep.Cancelled) << Rep.Lane;
}

//===----------------------------------------------------------------------===//
// The wall budget is a hard bound on a single thread-mode engine
//===----------------------------------------------------------------------===//

TEST(PlanBudgetTest, SingleEngineStopsAtTheBudget) {
  // A cooperative engine that never answers on its own: only the stage
  // deadline, relayed through its token, can end it.
  EngineInfo Info;
  Info.Id = EngineId("stub-wait");
  Info.Description = "spins until cancelled";
  Info.IsDiagnostic = true; // never a selector candidate
  SolverRegistry::global().add(
      std::move(Info),
      [](const EngineOptions &EO) -> std::unique_ptr<ChcSolverInterface> {
        return std::make_unique<StubEngine>(StubEngine::Behavior::WaitCancel,
                                            EO.Cancel, 0);
      });
  // Safety net: a regression fails the timing check instead of hanging.
  auto Safety = std::make_shared<CancellationToken>();
  std::atomic<bool> Done{false};
  std::thread Net([&] {
    for (int I = 0; I < 1000 && !Done; ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Safety->cancel();
  });
  SolveOptions Opts;
  Opts.Engine = EngineId("stub-wait");
  Opts.Schedule.Policy = SchedulePolicy::Single;
  Opts.Limits.WallSeconds = 0.3;
  Opts.Cancel = Safety;
  Timer Wall;
  SolveResult S = solveChcText(SafeCounterText, Opts);
  double Seconds = Wall.elapsedSeconds();
  Done = true;
  Net.join();
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_EQ(S.Status, ChcResult::Unknown);
  EXPECT_LT(Seconds, 1.0);
}

TEST(PlanBudgetTest, LaStopsAtTheBudgetOnPaperFig4b) {
  // Left alone, `la` spends about 10 s in one SMT check on this program;
  // the stage token reaches inside the check.
  const corpus::BenchmarkProgram *P = corpus::find("paper_fig4_b");
  ASSERT_NE(P, nullptr);
  SolveRequest Request;
  Request.Source = P->Source;
  Request.Format = SourceFormat::MiniC;
  Request.Options.Engine = EngineId("la");
  Request.Options.Limits.WallSeconds = 0.5;
  Timer Wall;
  SolveResult S = solve(Request);
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_LT(Wall.elapsedSeconds(), 1.5);
}

//===----------------------------------------------------------------------===//
// Thread-mode lane diagnostics (contained exceptions keep their message)
//===----------------------------------------------------------------------===//

TEST(PortfolioTest, ThreadModeLaneDiagnosticsAreNeverEmpty) {
  TermManager TM;
  ChcSystem System(TM);
  parseInto(SafeCounterText, System);
  SolverRegistry R;
  addStubEngines(R);
  PlanSolver Solver(stubPlan(R, {"stub-throw", "stub-sat"}));
  ChcSolverResult Res = Solver.solve(System);
  EXPECT_EQ(Res.Status, ChcResult::Sat);
  for (const EngineReport &Rep : Solver.reports()) {
    if (Rep.Engine != "stub-throw")
      continue;
    EXPECT_TRUE(Rep.Crashed);
    // The exception text must be preserved verbatim — an empty or
    // placeholder diagnostic makes crashed lanes undebuggable.
    EXPECT_EQ(Rep.Error, "stub blew up");
    EXPECT_EQ(Rep.Outcome, LaneOutcome::Failed);
  }
}

//===----------------------------------------------------------------------===//
// Process isolation
//===----------------------------------------------------------------------===//

// TSan does not support fork() from a multithreaded process; thread-mode
// isolation is still covered above, and the process paths run in the plain
// and ASan/UBSan jobs.
#if defined(__SANITIZE_THREAD__)
#define LA_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LA_TSAN_ACTIVE 1
#endif
#endif
#ifndef LA_TSAN_ACTIVE
#define LA_TSAN_ACTIVE 0
#endif

#if LA_TSAN_ACTIVE
#define LA_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "fork() from a multithreaded TSan process is unsupported"
#else
#define LA_SKIP_UNDER_TSAN() (void)0
#endif

// NOTE: crash engines (crash-segv / crash-abort / crash-spin) can only be
// raced under Isolation::Process. In thread mode a segfaulting lane takes
// down the whole process — that is precisely the limitation process
// isolation removes, so there is deliberately no thread-mode crash test.

TEST(ProcessIsolationTest, CrashingLaneLosesAndIsReportedKilled) {
  LA_SKIP_UNDER_TSAN();
  TermManager TM;
  ChcSystem System(TM);
  parseInto(SafeCounterText, System);
  SolverRegistry R;
  addStubEngines(R);
  baselines::registerCrashEngines(R);
  Plan PO = stubPlan(R, {"crash-segv", "stub-sat"});
  PO.Isolate = Isolation::Process;
  PO.Base.Limits.WallSeconds = 60;
  PlanSolver Solver(PO);
  ChcSolverResult Res = Solver.solve(System);
  EXPECT_EQ(Res.Status, ChcResult::Sat);
  ASSERT_EQ(Solver.reports().size(), 2u);
  for (const EngineReport &Rep : Solver.reports()) {
    if (Rep.Engine == "crash-segv") {
      EXPECT_NE(Rep.Outcome, LaneOutcome::Completed) << toString(Rep.Outcome);
      EXPECT_TRUE(Rep.Crashed || Rep.Outcome != LaneOutcome::Completed);
      EXPECT_FALSE(Rep.Error.empty());
      EXPECT_FALSE(Rep.Winner);
    } else {
      EXPECT_TRUE(Rep.Winner);
      EXPECT_EQ(Rep.Status, ChcResult::Sat);
    }
  }
}

TEST(ProcessIsolationTest, AbortAndSpinLanesAreContained) {
  LA_SKIP_UNDER_TSAN();
  TermManager TM;
  ChcSystem System(TM);
  parseInto(UnsafeCounterText, System);
  SolverRegistry R;
  addStubEngines(R);
  baselines::registerCrashEngines(R);
  Plan PO = stubPlan(R, {"crash-abort", "crash-spin", "stub-unsat"});
  PO.Isolate = Isolation::Process;
  PO.Base.Limits.WallSeconds = 60;
  PlanSolver Solver(PO);
  Timer Wall;
  ChcSolverResult Res = Solver.solve(System);
  EXPECT_EQ(Res.Status, ChcResult::Unsat);
  // The spinning lane ignores its token entirely; only the process kill
  // ends it, and it must not stall the race.
  EXPECT_LT(Wall.elapsedSeconds(), 30.0);
  for (const EngineReport &Rep : Solver.reports()) {
    if (Rep.Engine == "crash-abort") {
      EXPECT_NE(Rep.Outcome, LaneOutcome::Completed);
      EXPECT_FALSE(Rep.Error.empty());
    }
    if (Rep.Engine == "crash-spin") {
      EXPECT_TRUE(Rep.Outcome == LaneOutcome::Cancelled ||
                  Rep.Outcome == LaneOutcome::TimedOut)
          << toString(Rep.Outcome);
      EXPECT_FALSE(Rep.Winner);
    }
    if (Rep.Engine == "stub-unsat") {
      EXPECT_TRUE(Rep.Winner);
    }
  }
}

TEST(ProcessIsolationTest, RealEngineModelSurvivesThePipe) {
  LA_SKIP_UNDER_TSAN();
  // A real data-driven lane solves in a forked child; its model crosses
  // the pipe as printed formulas and must validate against the parent-side
  // system after rebuilding.
  TermManager TM;
  ChcSystem System(TM);
  parseInto(SafeCounterText, System);
  SolverRegistry R;
  addStubEngines(R);
  addRealLaEngine(R);
  Plan PO = stubPlan(R, {"la-real"});
  PO.Isolate = Isolation::Process;
  PO.Base.Limits.WallSeconds = 60;
  PlanSolver Solver(PO);
  ChcSolverResult Res = Solver.solve(System);
  ASSERT_EQ(Res.Status, ChcResult::Sat);
  EXPECT_EQ(checkInterpretation(System, Res.Interp), ClauseStatus::Valid);
  ASSERT_EQ(Solver.reports().size(), 1u);
  EXPECT_EQ(Solver.reports()[0].Outcome, LaneOutcome::Completed);
}

TEST(ProcessIsolationTest, CounterexampleSurvivesThePipe) {
  LA_SKIP_UNDER_TSAN();
  TermManager TM;
  ChcSystem System(TM);
  parseInto(UnsafeCounterText, System);
  SolverRegistry R;
  addRealLaEngine(R);
  Plan PO = stubPlan(R, {"la-real"});
  PO.Isolate = Isolation::Process;
  PO.Base.Limits.WallSeconds = 60;
  PlanSolver Solver(PO);
  ChcSolverResult Res = Solver.solve(System);
  ASSERT_EQ(Res.Status, ChcResult::Unsat);
  ASSERT_TRUE(Res.Cex.has_value());
}

TEST(ProcessIsolationTest, FacadeSingleEngineProcessMode) {
  LA_SKIP_UNDER_TSAN();
  SolveOptions Opts;
  Opts.Engine = EngineId("la");
  Opts.Isolate = Isolation::Process;
  Opts.Limits.WallSeconds = 60;
  SolveResult S = solveChcText(SafeCounterText, Opts);
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_EQ(S.Status, ChcResult::Sat);
  EXPECT_TRUE(S.ModelValidated);
  ASSERT_EQ(S.Engines.size(), 1u);
  EXPECT_EQ(S.Engines[0].Outcome, LaneOutcome::Completed);
}

TEST(ProcessIsolationTest, SingleEngineReportsAgreeAcrossIsolationModes) {
  LA_SKIP_UNDER_TSAN();
  SolveOptions Opts;
  Opts.Engine = EngineId("la");
  Opts.Limits.WallSeconds = 60;
  SolveResult Thread = solveChcText(SafeCounterText, Opts);
  Opts.Isolate = Isolation::Process;
  SolveResult Process = solveChcText(SafeCounterText, Opts);
  ASSERT_TRUE(Thread.Ok) << Thread.Error;
  ASSERT_TRUE(Process.Ok) << Process.Error;
  // The static interval analysis discharges this system outright.
  EXPECT_TRUE(Thread.SolvedByAnalysis);
  EXPECT_EQ(Process.Status, Thread.Status);
  EXPECT_EQ(Process.SolverName, Thread.SolverName);
  EXPECT_EQ(Process.SolvedByAnalysis, Thread.SolvedByAnalysis);
  EXPECT_EQ(Process.ModelValidated, Thread.ModelValidated);
}

TEST(ProcessIsolationTest, FacadeContainsCrashingSingleEngine) {
  LA_SKIP_UNDER_TSAN();
  baselines::registerCrashEngines();
  SolveOptions Opts;
  Opts.Engine = EngineId("crash-segv");
  Opts.Isolate = Isolation::Process;
  Opts.Limits.WallSeconds = 60;
  SolveResult S = solveChcText(SafeCounterText, Opts);
  // The crash is contained: the call returns (no verdict) instead of
  // taking the process down, and the lane report says what happened.
  EXPECT_EQ(S.Status, ChcResult::Unknown);
  ASSERT_EQ(S.Engines.size(), 1u);
  EXPECT_NE(S.Engines[0].Outcome, LaneOutcome::Completed);
  EXPECT_FALSE(S.Engines[0].Error.empty());
  std::string Summary = S.summary();
  EXPECT_NE(Summary.find(toString(S.Engines[0].Outcome)), std::string::npos);
}

TEST(IsolationParseTest, RoundTripAndRejects) {
  EXPECT_EQ(parseIsolation("thread"), Isolation::Thread);
  EXPECT_EQ(parseIsolation("process"), Isolation::Process);
  EXPECT_FALSE(parseIsolation("forked").has_value());
  EXPECT_STREQ(solver::toString(Isolation::Thread), "thread");
  EXPECT_STREQ(solver::toString(Isolation::Process), "process");
}

//===----------------------------------------------------------------------===//
// End-to-end through the façade
//===----------------------------------------------------------------------===//

TEST(PortfolioTest, FacadePortfolioSolvesSafeAndUnsafe) {
  baselines::registerBuiltinEngines();
  SolveOptions Opts;
  Opts.Schedule.Policy = SchedulePolicy::Race;
  Opts.Limits.WallSeconds = 30;

  SolveResult Safe = solveChcText(SafeCounterText, Opts);
  ASSERT_TRUE(Safe.Ok) << Safe.Error;
  EXPECT_EQ(Safe.Status, ChcResult::Sat);
  EXPECT_TRUE(Safe.ModelValidated);
  EXPECT_GT(Safe.Engines.size(), 1u);
  // Deterministic rendering: the lane block lists every lane.
  std::string Summary = Safe.summary();
  for (const EngineReport &Rep : Safe.Engines)
    EXPECT_NE(Summary.find(Rep.Lane), std::string::npos) << Rep.Lane;

  SolveResult Unsafe = solveChcText(UnsafeCounterText, Opts);
  ASSERT_TRUE(Unsafe.Ok) << Unsafe.Error;
  EXPECT_EQ(Unsafe.Status, ChcResult::Unsat);
  EXPECT_FALSE(Unsafe.Cex.empty());
}

//===----------------------------------------------------------------------===//
// Corpus differential: portfolio verdicts == single-engine verdicts
//===----------------------------------------------------------------------===//

TEST(PortfolioCorpusTest, VerdictsMatchSingleEngine) {
  baselines::registerBuiltinEngines();
  std::vector<const corpus::BenchmarkProgram *> Programs =
      corpus::category("loop-lit");
  ASSERT_FALSE(Programs.empty());
  const double Timeout = 10;
  for (const corpus::BenchmarkProgram *P : Programs) {
    solver::DataDrivenChcSolver Single(corpus::defaultOptionsFor(*P, Timeout));
    corpus::RunOutcome SingleOut = corpus::runOnProgram(Single, *P);

    EngineOptions Base;
    Base.DataDriven = corpus::defaultOptionsFor(*P, Timeout);
    Base.Limits.WallSeconds = Timeout;
    Plan Race = racePlan(Base, SolverRegistry::global());
    Race.Name = "LA-portfolio";
    PlanSolver Portfolio(std::move(Race));
    corpus::RunOutcome PortfolioOut = corpus::runOnProgram(Portfolio, *P);

    // The harness validates witnesses and checks ground truth: neither run
    // may be unsound, and definitive verdicts must agree.
    EXPECT_FALSE(SingleOut.Unsound) << P->Name;
    EXPECT_FALSE(PortfolioOut.Unsound) << P->Name;
    if (SingleOut.Status != ChcResult::Unknown &&
        PortfolioOut.Status != ChcResult::Unknown) {
      EXPECT_EQ(SingleOut.Status, PortfolioOut.Status) << P->Name;
    }
  }
}

} // namespace
