//===- tests/SolverTest.cpp - Data-driven CHC solver tests ----------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "smtlib2/Parser.h"
#include "solver/DataDrivenSolver.h"
#include "solver/SolveFacade.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

using namespace la;
using namespace la::chc;
using namespace la::solver;

namespace {

DataDrivenOptions testOptions() {
  DataDrivenOptions Opts;
  Opts.Limits.WallSeconds = 60;
  return Opts;
}

/// Solves the given SMT-LIB2 HORN text and checks the verdict end-to-end:
/// a SAT interpretation must validate every clause; an UNSAT counterexample
/// must replay as a genuine refutation.
ChcResult solveText(const char *Text,
                    DataDrivenOptions Opts = testOptions()) {
  TermManager TM;
  ChcSystem System(TM);
  smtlib2::ParseResult P = smtlib2::parseSmtLib2(Text, System);
  EXPECT_TRUE(P.Ok) << P.error();
  DataDrivenChcSolver Solver(Opts);
  ChcSolverResult R = Solver.solve(System);
  if (R.Status == ChcResult::Sat) {
    EXPECT_EQ(checkInterpretation(System, R.Interp), ClauseStatus::Valid)
        << "solver returned a non-solution:\n"
        << R.Interp.toString();
  }
  if (R.Status == ChcResult::Unsat) {
    EXPECT_TRUE(R.Cex.has_value()) << "unsat without counterexample";
    if (R.Cex) {
      EXPECT_TRUE(validateCounterexample(System, *R.Cex))
          << R.Cex->toString(System);
    }
  }
  return R.Status;
}

//===----------------------------------------------------------------------===//
// The paper's running examples
//===----------------------------------------------------------------------===//

/// Fig. 1: Spacer diverges on this one; the data-driven solver should find
/// an invariant such as x >= 1 /\ y >= 0.
TEST(DataDrivenSolverTest, PaperFig1Safe) {
  EXPECT_EQ(solveText(R"(
(set-logic HORN)
(declare-fun p (Int Int) Bool)
(assert (forall ((x Int) (y Int))
  (=> (and (= x 1) (= y 0)) (p x y))))
(assert (forall ((x Int) (y Int) (x1 Int) (y1 Int))
  (=> (and (p x y) (= x1 (+ x y)) (= y1 (+ y 1))) (p x1 y1))))
(assert (forall ((x Int) (y Int) (x1 Int) (y1 Int))
  (=> (and (p x y) (= x1 (+ x y)) (= y1 (+ y 1))) (>= x1 y1))))
(assert (forall ((x Int) (y Int))
  (=> (and (= x 1) (= y 0)) (>= x y))))
)"),
            ChcResult::Sat);
}

/// An unsafe variant of Fig. 1: x > y fails at the first iteration (1, 1).
TEST(DataDrivenSolverTest, Fig1UnsafeVariant) {
  EXPECT_EQ(solveText(R"(
(set-logic HORN)
(declare-fun p (Int Int) Bool)
(assert (forall ((x Int) (y Int))
  (=> (and (= x 1) (= y 0)) (p x y))))
(assert (forall ((x Int) (y Int) (x1 Int) (y1 Int))
  (=> (and (p x y) (= x1 (+ x y)) (= y1 (+ y 1))) (p x1 y1))))
(assert (forall ((x Int) (y Int))
  (=> (p x y) (> x y))))
)"),
            ChcResult::Unsat);
}

/// A simple bounded counter: safe bound 10, unsafe bound 9.
TEST(DataDrivenSolverTest, BoundedCounter) {
  const char *Template = R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (inv x))))
(assert (forall ((x Int) (x1 Int))
  (=> (and (inv x) (< x 10) (= x1 (+ x 1))) (inv x1))))
(assert (forall ((x Int)) (=> (inv x) (<= x %s))))
)";
  char Safe[1024], Unsafe[1024];
  snprintf(Safe, sizeof(Safe), Template, "10");
  snprintf(Unsafe, sizeof(Unsafe), Template, "9");
  EXPECT_EQ(solveText(Safe), ChcResult::Sat);
  EXPECT_EQ(solveText(Unsafe), ChcResult::Unsat);
}

/// Fig. 5 (program (c)): the recursive fibonacci summary with a non-linear
/// clause -- the case ICE-style frameworks cannot express (§2.3).
TEST(DataDrivenSolverTest, PaperFig5FiboSafe) {
  EXPECT_EQ(solveText(R"(
(set-logic HORN)
(declare-fun p (Int Int) Bool)
(assert (forall ((x Int) (y Int))
  (=> (and (< x 1) (= y 0)) (p x y))))
(assert (forall ((x Int) (y Int))
  (=> (and (>= x 1) (= x 1) (= y 1)) (p x y))))
(assert (forall ((x Int) (y Int) (y1 Int) (y2 Int))
  (=> (and (>= x 1) (distinct x 1) (p (- x 1) y1) (p (- x 2) y2)
           (= y (+ y1 y2)))
      (p x y))))
(assert (forall ((x Int) (y Int)) (=> (p x y) (>= y (- x 1)))))
)"),
            ChcResult::Sat);
}

/// Unsafe fibonacci property: fibo(x) >= x fails at x = 2 (fibo(2) = 1);
/// the refutation needs a genuine derivation tree p(0,0), p(1,1) |- p(2,1).
TEST(DataDrivenSolverTest, FiboUnsafeNeedsDerivationTree) {
  EXPECT_EQ(solveText(R"(
(set-logic HORN)
(declare-fun p (Int Int) Bool)
(assert (forall ((x Int) (y Int))
  (=> (and (< x 1) (= y 0)) (p x y))))
(assert (forall ((x Int) (y Int))
  (=> (and (>= x 1) (= x 1) (= y 1)) (p x y))))
(assert (forall ((x Int) (y Int) (y1 Int) (y2 Int))
  (=> (and (>= x 1) (distinct x 1) (p (- x 1) y1) (p (- x 2) y2)
           (= y (+ y1 y2)))
      (p x y))))
(assert (forall ((x Int) (y Int)) (=> (p x y) (>= y x))))
)"),
            ChcResult::Unsat);
}

/// Two chained predicates (no recursion): solved by pure propagation.
TEST(DataDrivenSolverTest, NonRecursiveChain) {
  EXPECT_EQ(solveText(R"(
(set-logic HORN)
(declare-fun a (Int) Bool)
(declare-fun b (Int) Bool)
(assert (forall ((x Int)) (=> (and (>= x 0) (<= x 3)) (a x))))
(assert (forall ((x Int) (y Int)) (=> (and (a x) (= y (+ x 2))) (b y))))
(assert (forall ((y Int)) (=> (b y) (and (>= y 2) (<= y 5)))))
)"),
            ChcResult::Sat);
}

/// A disjunctive invariant: x goes up to 5 then resets to -5 and climbs;
/// the invariant needs the boolean structure LinearArbitrary provides.
TEST(DataDrivenSolverTest, DisjunctiveInvariant) {
  EXPECT_EQ(solveText(R"(
(set-logic HORN)
(declare-fun inv (Int Int) Bool)
(assert (forall ((x Int) (f Int)) (=> (and (= x 0) (= f 0)) (inv x f))))
(assert (forall ((x Int) (f Int) (x1 Int) (f1 Int))
  (=> (and (inv x f) (= f 0) (< x 5) (= x1 (+ x 1)) (= f1 0)) (inv x1 f1))))
(assert (forall ((x Int) (f Int) (x1 Int) (f1 Int))
  (=> (and (inv x f) (= f 0) (>= x 5) (= x1 (- 0 5)) (= f1 1)) (inv x1 f1))))
(assert (forall ((x Int) (f Int) (x1 Int) (f1 Int))
  (=> (and (inv x f) (= f 1) (= x1 (+ x 1)) (< x 0)) (inv x1 f1))))
(assert (forall ((x Int) (f Int)) (=> (inv x f) (<= x 5))))
)"),
            ChcResult::Sat);
}

/// Unknown on an over-tight iteration budget instead of wrong answers.
TEST(DataDrivenSolverTest, BudgetYieldsUnknown) {
  DataDrivenOptions Opts = testOptions();
  Opts.Limits.MaxIterations = 1;
  // The octagon pre-analysis discharges Fig. 1 statically; turn it off so
  // the CEGAR loop actually runs into its one-iteration budget.
  Opts.EnableAnalysis = false;
  EXPECT_EQ(solveText(R"(
(set-logic HORN)
(declare-fun p (Int Int) Bool)
(assert (forall ((x Int) (y Int))
  (=> (and (= x 1) (= y 0)) (p x y))))
(assert (forall ((x Int) (y Int) (x1 Int) (y1 Int))
  (=> (and (p x y) (= x1 (+ x y)) (= y1 (+ y 1))) (p x1 y1))))
(assert (forall ((x Int) (y Int)) (=> (p x y) (>= x y))))
)",
                      Opts),
            ChcResult::Unknown);
}

/// The perceptron backend solves simple systems too.
TEST(DataDrivenSolverTest, PerceptronBackend) {
  DataDrivenOptions Opts = testOptions();
  Opts.Learn.LA.Learner = ml::LinearArbitraryOptions::BaseLearner::Perceptron;
  EXPECT_EQ(solveText(R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (inv x))))
(assert (forall ((x Int) (x1 Int))
  (=> (and (inv x) (< x 5) (= x1 (+ x 1))) (inv x1))))
(assert (forall ((x Int)) (=> (inv x) (>= x 0))))
)",
                      Opts),
            ChcResult::Sat);
}

/// Trivially-safe system: valid with A = true, zero iterations.
TEST(DataDrivenSolverTest, TriviallySafe) {
  constexpr const char *Text = R"(
(declare-fun p (Int) Bool)
(assert (forall ((x Int)) (=> (> x 0) (p x))))
(assert (forall ((x Int)) (=> (p x) true)))
)";
  TermManager TM;
  ChcSystem System(TM);
  ASSERT_TRUE(smtlib2::parseSmtLib2(Text, System).Ok);
  DataDrivenChcSolver Solver(testOptions());
  ChcSolverResult R = Solver.solve(System);
  EXPECT_EQ(R.Status, ChcResult::Sat);
  EXPECT_EQ(R.Stats.Iterations, 0u);
}

/// Mod features: loop increments by 2, assertion about parity. Requires the
/// "Beyond Polyhedra" features of §3.3.
TEST(DataDrivenSolverTest, ParityInvariantWithModFeatures) {
  DataDrivenOptions Opts = testOptions();
  Opts.Learn.ModFeatures = {2};
  EXPECT_EQ(solveText(R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (inv x))))
(assert (forall ((x Int) (x1 Int))
  (=> (and (inv x) (= x1 (+ x 2))) (inv x1))))
(assert (forall ((x Int)) (=> (inv x) (distinct x 7))))
)",
                      Opts),
            ChcResult::Sat);
}

//===----------------------------------------------------------------------===//
// The one-call façade (examples use nothing else)
//===----------------------------------------------------------------------===//

constexpr const char *BoundedCounterText = R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (inv n))))
(assert (forall ((n Int) (m Int))
  (=> (and (inv n) (< n 10) (= m (+ n 1))) (inv m))))
(assert (forall ((n Int)) (=> (inv n) (<= n 10))))
)";

TEST(SolveFacadeTest, SolvesTextEndToEnd) {
  solver::SolveResult S = solveChcText(BoundedCounterText);
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_EQ(S.Status, ChcResult::Sat);
  EXPECT_EQ(S.Clauses, 3u);
  EXPECT_EQ(S.Predicates, 1u);
  EXPECT_TRUE(S.Recursive);
  EXPECT_FALSE(S.Model.empty());
  EXPECT_TRUE(S.ModelValidated);
  // The bounded counter is discharged by the pre-analysis; the per-pass
  // statistics come back through the façade.
  EXPECT_TRUE(S.SolvedByAnalysis);
  EXPECT_EQ(S.Solver.Iterations, 0u);
  EXPECT_FALSE(S.AnalysisPasses.empty());
  EXPECT_NE(S.summary().find("sat"), std::string::npos);
}

/// Answers sat with a valid model of the bounded counter, but only once its
/// stage deadline has passed.
class LateSatSolver : public ChcSolverInterface {
public:
  explicit LateSatSolver(std::shared_ptr<const CancellationToken> Tok)
      : Tok(std::move(Tok)) {}

  ChcSolverResult solve(const ChcSystem &System) override {
    while (!isCancelled(Tok))
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    TermManager &TM = System.termManager();
    ChcSolverResult R(TM);
    R.Status = ChcResult::Sat;
    const Predicate *Inv = System.predicates().front();
    R.Interp.set(Inv, TM.mkLe(Inv->Params[0], TM.mkIntConst(10)));
    return R;
  }
  std::string name() const override { return "late-sat"; }

private:
  std::shared_ptr<const CancellationToken> Tok;
};

TEST(SolveFacadeTest, ModelCheckStaysWithinTheWallBudget) {
  solver::EngineInfo Info;
  Info.Id = solver::EngineId("late-sat-test");
  Info.Description = "answers sat once its budget is spent (test engine)";
  Info.IsDiagnostic = true;
  solver::SolverRegistry::global().add(
      std::move(Info), [](const solver::EngineOptions &EO) {
        return std::make_unique<LateSatSolver>(EO.Cancel);
      });
  SolveOptions Opts;
  Opts.Engine = solver::EngineId("late-sat-test");
  Opts.Limits.WallSeconds = 0.2;

  // No time is left to check the model, so the sat answer is not reported.
  solver::SolveResult Late = solveChcText(BoundedCounterText, Opts);
  ASSERT_TRUE(Late.Ok) << Late.Error;
  EXPECT_EQ(Late.Status, ChcResult::Unknown);
  EXPECT_FALSE(Late.ModelValidated);
  EXPECT_TRUE(Late.Model.empty());

  // Without the check the same answer stands.
  Opts.ValidateModel = false;
  solver::SolveResult Unchecked = solveChcText(BoundedCounterText, Opts);
  ASSERT_TRUE(Unchecked.Ok) << Unchecked.Error;
  EXPECT_EQ(Unchecked.Status, ChcResult::Sat);
  EXPECT_FALSE(Unchecked.Model.empty());
}

TEST(SolveFacadeTest, ReportsParseAndFileErrors) {
  solver::SolveResult Bad = solveChcText("(assert (not-horn");
  EXPECT_FALSE(Bad.Ok);
  EXPECT_NE(Bad.Error.find("parse error"), std::string::npos);
  EXPECT_EQ(Bad.Status, ChcResult::Unknown);
  EXPECT_NE(Bad.summary().find("error"), std::string::npos);

  solver::SolveResult Missing = solveFile("/nonexistent/path.smt2");
  EXPECT_FALSE(Missing.Ok);
  EXPECT_NE(Missing.Error.find("cannot open"), std::string::npos);
}

TEST(SolveFacadeTest, SolvesFileAndHonorsCustomRegistryEngine) {
  const char *Path = "facade_test_tmp.smt2";
  {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good());
    Out << BoundedCounterText;
  }

  solver::SolveResult S = solveFile(Path);
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_EQ(S.Status, ChcResult::Sat);
  EXPECT_TRUE(S.ModelValidated);

  // A custom engine registered under a fresh id swaps in a
  // differently-configured solver; analysis statistics still surface
  // because it is a DataDrivenChcSolver.
  solver::EngineInfo Hooked;
  Hooked.Id = solver::EngineId("hooked-test");
  Hooked.Description = "differently-configured data-driven engine";
  solver::SolverRegistry::global().add(
      std::move(Hooked), [](const solver::EngineOptions &EO) {
        DataDrivenOptions DD = EO.DataDriven;
        DD.Limits = DD.Limits.resolvedOver(EO.Limits);
        DD.Name = "hooked";
        return std::make_unique<DataDrivenChcSolver>(DD);
      });
  SolveOptions Opts;
  Opts.Engine = solver::EngineId("hooked-test");
  solver::SolveResult H = solveFile(Path, Opts);
  ASSERT_TRUE(H.Ok) << H.Error;
  EXPECT_EQ(H.Status, ChcResult::Sat);
  EXPECT_EQ(H.SolverName, "hooked");
  EXPECT_FALSE(H.AnalysisPasses.empty());

  std::remove(Path);
}

TEST(SolveFacadeTest, UnsafeSystemYieldsRenderedCounterexample) {
  solver::SolveResult S = solveChcText(R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (inv n))))
(assert (forall ((n Int) (m Int))
  (=> (and (inv n) (< n 10) (= m (+ n 1))) (inv m))))
(assert (forall ((n Int)) (=> (inv n) (<= n 5))))
)");
  ASSERT_TRUE(S.Ok) << S.Error;
  EXPECT_EQ(S.Status, ChcResult::Unsat);
  EXPECT_FALSE(S.Cex.empty());
  EXPECT_TRUE(S.Model.empty());
}

//===----------------------------------------------------------------------===//
// Format detection
//===----------------------------------------------------------------------===//

TEST(DetectFormatTest, PathExtensionIsConclusive) {
  EXPECT_EQ(detectFormat("bench.smt2", "anything"), SourceFormat::SmtLib2);
  EXPECT_EQ(detectFormat("prog.c", "anything"), SourceFormat::MiniC);
}

TEST(DetectFormatTest, ContentShapeDecidesWhenPathDoesNot) {
  EXPECT_EQ(detectFormat("", "  ; comment\n(set-logic HORN)"),
            SourceFormat::SmtLib2);
  EXPECT_EQ(detectFormat("", "int x;\nassert(x >= 0);"), SourceFormat::MiniC);
  EXPECT_EQ(detectFormat("", "while (x < 10) x = x + 1;"),
            SourceFormat::MiniC);
}

TEST(DetectFormatTest, InconclusiveSniffReturnsAuto) {
  // Neither a leading `(` nor a mini-C keyword: the sniff must say so
  // instead of committing to an arbitrary format.
  EXPECT_EQ(detectFormat("", "garbage that is neither format"),
            SourceFormat::Auto);
  EXPECT_EQ(detectFormat("", ""), SourceFormat::Auto);
  EXPECT_EQ(detectFormat("noext", "x = y"), SourceFormat::Auto);
}

TEST(DetectFormatTest, AutoFallbackDiagnosticNamesBothInterpretations) {
  SolveRequest Request;
  Request.Source = "definitely not a program in either language";
  SolveResult S = solver::solve(Request);
  ASSERT_FALSE(S.Ok);
  // The deterministic fallback tries mini-C first, then SMT-LIB2, and the
  // error names both rejected interpretations so the user can tell which
  // parser said what.
  EXPECT_NE(S.Error.find("cannot determine input format"), std::string::npos)
      << S.Error;
  EXPECT_NE(S.Error.find("not mini-C"), std::string::npos) << S.Error;
  EXPECT_NE(S.Error.find("not SMT-LIB2"), std::string::npos) << S.Error;
}

//===----------------------------------------------------------------------===//
// Result serialization (the persistent-cache record form)
//===----------------------------------------------------------------------===//

TEST(ResultSerializationTest, SatResultRoundTrips) {
  SolveResult S = solveChcText(R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (inv n))))
(assert (forall ((n Int) (m Int))
  (=> (and (inv n) (< n 10) (= m (+ n 1))) (inv m))))
(assert (forall ((n Int)) (=> (inv n) (<= n 10))))
)");
  ASSERT_TRUE(S.Ok) << S.Error;
  ASSERT_EQ(S.Status, ChcResult::Sat);

  std::string Text = serializeResult(S);
  SolveResult R;
  ASSERT_TRUE(deserializeResult(Text, R));
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Status, S.Status);
  EXPECT_EQ(R.SolverName, S.SolverName);
  EXPECT_EQ(R.Model, S.Model);
  EXPECT_EQ(R.ModelValidated, S.ModelValidated);
  EXPECT_EQ(R.Clauses, S.Clauses);
  EXPECT_EQ(R.Predicates, S.Predicates);
  EXPECT_EQ(R.Recursive, S.Recursive);
  EXPECT_EQ(R.SolvedByAnalysis, S.SolvedByAnalysis);
  ASSERT_EQ(R.Engines.size(), S.Engines.size());
  for (size_t I = 0; I < R.Engines.size(); ++I) {
    EXPECT_EQ(R.Engines[I].Lane, S.Engines[I].Lane);
    EXPECT_EQ(R.Engines[I].Status, S.Engines[I].Status);
    EXPECT_EQ(R.Engines[I].Winner, S.Engines[I].Winner);
  }
}

TEST(ResultSerializationTest, UnsatResultKeepsCounterexample) {
  SolveResult S = solveChcText(R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (inv n))))
(assert (forall ((n Int) (m Int))
  (=> (and (inv n) (< n 10) (= m (+ n 1))) (inv m))))
(assert (forall ((n Int)) (=> (inv n) (<= n 5))))
)");
  ASSERT_TRUE(S.Ok) << S.Error;
  ASSERT_EQ(S.Status, ChcResult::Unsat);
  ASSERT_FALSE(S.Cex.empty());

  SolveResult R;
  ASSERT_TRUE(deserializeResult(serializeResult(S), R));
  EXPECT_EQ(R.Status, ChcResult::Unsat);
  EXPECT_EQ(R.Cex, S.Cex);
}

TEST(ResultSerializationTest, CorruptRecordsAreRejected) {
  SolveResult S = solveChcText(R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (inv n))))
(assert (forall ((n Int)) (=> (inv n) (<= n 10))))
)");
  ASSERT_TRUE(S.Ok) << S.Error;
  std::string Good = serializeResult(S);

  SolveResult R;
  EXPECT_FALSE(deserializeResult("", R));
  EXPECT_FALSE(deserializeResult("not a record", R));
  EXPECT_FALSE(deserializeResult(Good.substr(0, Good.size() / 2), R));
  EXPECT_FALSE(deserializeResult("garbage\n" + Good, R));
  // The intact record still parses after all those rejections.
  EXPECT_TRUE(deserializeResult(Good, R));
}

} // namespace
