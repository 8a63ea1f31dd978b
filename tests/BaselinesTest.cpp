//===- tests/BaselinesTest.cpp - Baseline solver tests --------------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "baselines/EnumLearner.h"
#include "baselines/PdrSolver.h"
#include "baselines/TemplateLearner.h"
#include "baselines/UnwindSolver.h"
#include "smtlib2/Parser.h"

#include <gtest/gtest.h>

using namespace la;
using namespace la::baselines;
using namespace la::chc;

namespace {

const char *SafeCounter = R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (inv x))))
(assert (forall ((x Int) (x1 Int))
  (=> (and (inv x) (< x 10) (= x1 (+ x 1))) (inv x1))))
(assert (forall ((x Int)) (=> (inv x) (<= x 10))))
)";

const char *UnsafeCounter = R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (inv x))))
(assert (forall ((x Int) (x1 Int))
  (=> (and (inv x) (< x 10) (= x1 (+ x 1))) (inv x1))))
(assert (forall ((x Int)) (=> (inv x) (<= x 9))))
)";

const char *FiboUnsafe = R"(
(set-logic HORN)
(declare-fun p (Int Int) Bool)
(assert (forall ((x Int) (y Int)) (=> (and (< x 1) (= y 0)) (p x y))))
(assert (forall ((x Int) (y Int)) (=> (and (>= x 1) (= x 1) (= y 1)) (p x y))))
(assert (forall ((x Int) (y Int) (y1 Int) (y2 Int))
  (=> (and (>= x 1) (distinct x 1) (p (- x 1) y1) (p (- x 2) y2)
           (= y (+ y1 y2)))
      (p x y))))
(assert (forall ((x Int) (y Int)) (=> (p x y) (>= y x))))
)";

/// Disjunctive system: x counts 0..5 then flag flips; a conjunctive-only
/// learner cannot express the invariant.
const char *Disjunctive = R"(
(set-logic HORN)
(declare-fun inv (Int Int) Bool)
(assert (forall ((x Int) (f Int)) (=> (and (= x 0) (= f 0)) (inv x f))))
(assert (forall ((x Int) (f Int) (x1 Int) (f1 Int))
  (=> (and (inv x f) (= f 0) (< x 5) (= x1 (+ x 1)) (= f1 0)) (inv x1 f1))))
(assert (forall ((x Int) (f Int) (x1 Int) (f1 Int))
  (=> (and (inv x f) (= f 0) (>= x 5) (= x1 (- 0 5)) (= f1 1)) (inv x1 f1))))
(assert (forall ((x Int) (f Int)) (=> (inv x f) (<= x 5))))
)";

/// Runs a solver and checks the verdict's witness end-to-end.
ChcResult runSolver(ChcSolverInterface &Solver, const char *Text) {
  TermManager TM;
  ChcSystem System(TM);
  smtlib2::ParseResult P = smtlib2::parseSmtLib2(Text, System);
  EXPECT_TRUE(P.Ok) << P.error();
  ChcSolverResult R = Solver.solve(System);
  if (R.Status == ChcResult::Sat) {
    EXPECT_EQ(checkInterpretation(System, R.Interp), ClauseStatus::Valid)
        << Solver.name() << " returned a non-solution:\n"
        << R.Interp.toString();
  }
  if (R.Status == ChcResult::Unsat && R.Cex) {
    EXPECT_TRUE(validateCounterexample(System, *R.Cex))
        << Solver.name() << ":\n"
        << R.Cex->toString(System);
  }
  return R.Status;
}

PdrOptions pdrOptions() {
  PdrOptions Opts;
  Opts.Limits.WallSeconds = 30;
  return Opts;
}

UnwindOptions unwindOptions(bool SummaryReuse) {
  UnwindOptions Opts;
  Opts.SummaryReuse = SummaryReuse;
  Opts.Limits.WallSeconds = 30;
  return Opts;
}

//===----------------------------------------------------------------------===//
// PDR
//===----------------------------------------------------------------------===//

TEST(PdrSolverTest, SafeCounter) {
  PdrSolver Solver(pdrOptions());
  EXPECT_EQ(runSolver(Solver, SafeCounter), ChcResult::Sat);
}

TEST(PdrSolverTest, UnsafeCounterWithDerivation) {
  PdrSolver Solver(pdrOptions());
  EXPECT_EQ(runSolver(Solver, UnsafeCounter), ChcResult::Unsat);
}

TEST(PdrSolverTest, RecursiveUnsafe) {
  PdrSolver Solver(pdrOptions());
  EXPECT_EQ(runSolver(Solver, FiboUnsafe), ChcResult::Unsat);
}

TEST(PdrSolverTest, GpdrConfigAlsoSolves) {
  PdrOptions Opts = pdrOptions();
  Opts.CacheReachable = false;
  PdrSolver Solver(Opts);
  EXPECT_EQ(Solver.name(), "gpdr");
  EXPECT_EQ(runSolver(Solver, SafeCounter), ChcResult::Sat);
  EXPECT_EQ(runSolver(Solver, UnsafeCounter), ChcResult::Unsat);
}

TEST(PdrSolverTest, NeverUnsound) {
  // Whatever the verdict on harder systems, witnesses must validate (the
  // runSolver helper enforces it); Unknown is acceptable.
  PdrOptions Opts = pdrOptions();
  Opts.Limits.WallSeconds = 5;
  PdrSolver Solver(Opts);
  (void)runSolver(Solver, Disjunctive);
}

//===----------------------------------------------------------------------===//
// Unwinding / interpolation
//===----------------------------------------------------------------------===//

TEST(UnwindSolverTest, SafeCounterByInterpolation) {
  UnwindSolver Solver(unwindOptions(true));
  EXPECT_EQ(runSolver(Solver, SafeCounter), ChcResult::Sat);
}

TEST(UnwindSolverTest, PathByPathConfig) {
  UnwindSolver Solver(unwindOptions(false));
  EXPECT_EQ(Solver.name(), "interpolation");
  EXPECT_EQ(runSolver(Solver, SafeCounter), ChcResult::Sat);
}

TEST(UnwindSolverTest, UnsafeCounterByBmc) {
  UnwindSolver Solver(unwindOptions(true));
  EXPECT_EQ(runSolver(Solver, UnsafeCounter), ChcResult::Unsat);
}

TEST(UnwindSolverTest, RecursiveUnsafeByBmc) {
  UnwindSolver Solver(unwindOptions(true));
  EXPECT_EQ(runSolver(Solver, FiboUnsafe), ChcResult::Unsat);
}

TEST(UnwindSolverTest, RecursiveSafeIsUnknown) {
  // Non-linear safe systems exceed the interpolation fragment: the solver
  // must give up rather than guess.
  UnwindOptions Opts = unwindOptions(true);
  Opts.Limits.WallSeconds = 5;
  Opts.MaxBmcDepth = 6;
  UnwindSolver Solver(Opts);
  const char *FiboSafe = R"(
(set-logic HORN)
(declare-fun p (Int Int) Bool)
(assert (forall ((x Int) (y Int)) (=> (and (< x 1) (= y 0)) (p x y))))
(assert (forall ((x Int) (y Int)) (=> (and (>= x 1) (= x 1) (= y 1)) (p x y))))
(assert (forall ((x Int) (y Int) (y1 Int) (y2 Int))
  (=> (and (>= x 1) (distinct x 1) (p (- x 1) y1) (p (- x 2) y2)
           (= y (+ y1 y2)))
      (p x y))))
(assert (forall ((x Int) (y Int)) (=> (p x y) (>= y (- x 1)))))
)";
  EXPECT_EQ(runSolver(Solver, FiboSafe), ChcResult::Unknown);
}

//===----------------------------------------------------------------------===//
// Enumerative (PIE) and template (DIG) learners
//===----------------------------------------------------------------------===//

TEST(EnumLearnerTest, LearnsOctagonSeparator) {
  TermManager TM;
  std::vector<const Term *> Vars{TM.mkVar("ex"), TM.mkVar("ey")};
  ml::Dataset Data(2);
  Data.Pos = {{Rational(0), Rational(0)}, {Rational(1), Rational(1)}};
  Data.Neg = {{Rational(5), Rational(0)}, {Rational(0), Rational(5)}};
  ml::LearnResult R = enumLearn(TM, Vars, Data, EnumLearnerOptions{});
  ASSERT_TRUE(R.Ok);
  std::unordered_map<const Term *, Rational> Asg{{Vars[0], Rational(0)},
                                                 {Vars[1], Rational(0)}};
  EXPECT_TRUE(evalFormula(R.Formula, Asg));
  Asg[Vars[0]] = Rational(5);
  EXPECT_FALSE(evalFormula(R.Formula, Asg));
}

TEST(EnumLearnerTest, SolvesSimpleSystem) {
  solver::DataDrivenChcSolver Solver(makeEnumSolverOptions(30));
  EXPECT_EQ(Solver.name(), "pie-enum");
  EXPECT_EQ(runSolver(Solver, SafeCounter), ChcResult::Sat);
}

TEST(TemplateLearnerTest, NullspaceFindsEqualities) {
  // Samples on the line y = 2x + 1.
  std::vector<ml::Sample> Samples{{Rational(0), Rational(1)},
                                  {Rational(1), Rational(3)},
                                  {Rational(2), Rational(5)}};
  auto Basis = sampleNullspace(Samples, 2);
  ASSERT_EQ(Basis.size(), 1u);
  // w . (x, y) + b = 0 must be a multiple of 2x - y + 1 = 0.
  const auto &W = Basis[0];
  EXPECT_EQ(W[0], W[1] * Rational(-2));
  EXPECT_EQ(W[2], -W[1]);
  // And it must vanish on every sample.
  for (const auto &S : Samples)
    EXPECT_TRUE((W[0] * S[0] + W[1] * S[1] + W[2]).isZero());
}

TEST(TemplateLearnerTest, ConjunctiveSeparation) {
  TermManager TM;
  std::vector<const Term *> Vars{TM.mkVar("tx"), TM.mkVar("ty")};
  ml::Dataset Data(2);
  Data.Pos = {{Rational(0), Rational(1)}, {Rational(1), Rational(3)}};
  Data.Neg = {{Rational(0), Rational(0)}, {Rational(4), Rational(9)}};
  ml::LearnResult R = templateLearn(TM, Vars, Data);
  ASSERT_TRUE(R.Ok);
  std::unordered_map<const Term *, Rational> Asg{{Vars[0], Rational(1)},
                                                 {Vars[1], Rational(3)}};
  EXPECT_TRUE(evalFormula(R.Formula, Asg));
  Asg[Vars[1]] = Rational(0);
  Asg[Vars[0]] = Rational(0);
  EXPECT_FALSE(evalFormula(R.Formula, Asg));
}

TEST(TemplateLearnerTest, FailsOnDisjunctiveData) {
  TermManager TM;
  std::vector<const Term *> Vars{TM.mkVar("dx"), TM.mkVar("dy")};
  ml::Dataset Data(2);
  // XOR-ish: the negative (3,3) is inside every octagon hull of the
  // positives, so no conjunction of octagon bounds can exclude it.
  Data.Pos = {{Rational(0), Rational(0)}, {Rational(6), Rational(6)},
              {Rational(0), Rational(6)}, {Rational(6), Rational(0)}};
  Data.Neg = {{Rational(3), Rational(3)}};
  ml::LearnResult R = templateLearn(TM, Vars, Data);
  EXPECT_FALSE(R.Ok);
}

TEST(TemplateLearnerTest, SolverSolvesConjunctiveFailsDisjunctive) {
  solver::DataDrivenChcSolver Solver(makeTemplateSolverOptions(20));
  EXPECT_EQ(Solver.name(), "dig-template");
  EXPECT_EQ(runSolver(Solver, SafeCounter), ChcResult::Sat);
  // A genuinely disjunctive invariant ({-1, 1} cannot be described by a
  // conjunction of octagon constraints excluding 0) defeats the
  // conjunctive-only learner but not LinearArbitrary.
  const char *TrulyDisjunctive = R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(assert (forall ((x Int)) (=> (= x 1) (inv x))))
(assert (forall ((x Int)) (=> (= x (- 0 1)) (inv x))))
(assert (forall ((x Int)) (=> (inv x) (distinct x 0))))
)";
  EXPECT_EQ(runSolver(Solver, TrulyDisjunctive), ChcResult::Unknown);
  solver::DataDrivenOptions LaOpts;
  LaOpts.Limits.WallSeconds = 20;
  solver::DataDrivenChcSolver La(LaOpts);
  EXPECT_EQ(runSolver(La, TrulyDisjunctive), ChcResult::Sat);
}

} // namespace

#include "corpus/Harness.h"

namespace {

/// Cross-solver agreement: on corpus programs, any two definite verdicts
/// must agree with each other and with the ground truth (the harness also
/// validates every witness). Unknown is always acceptable.
class CrossSolverTest : public ::testing::TestWithParam<const char *> {};

TEST_P(CrossSolverTest, DefiniteVerdictsAgree) {
  const corpus::BenchmarkProgram *P = corpus::find(GetParam());
  ASSERT_NE(P, nullptr) << GetParam();

  std::vector<std::unique_ptr<ChcSolverInterface>> Solvers;
  Solvers.push_back(std::make_unique<solver::DataDrivenChcSolver>(
      corpus::defaultOptionsFor(*P, 20)));
  {
    PdrOptions Opts;
    Opts.Limits.WallSeconds = 10;
    Opts.Smt.TimeoutSeconds = 5;
    Solvers.push_back(std::make_unique<PdrSolver>(Opts));
  }
  {
    UnwindOptions Opts;
    Opts.Limits.WallSeconds = 10;
    Opts.Smt.TimeoutSeconds = 5;
    Solvers.push_back(std::make_unique<UnwindSolver>(Opts));
  }
  for (auto &Solver : Solvers) {
    corpus::RunOutcome Out = corpus::runOnProgram(*Solver, *P);
    EXPECT_FALSE(Out.Unsound)
        << Solver->name() << " disagrees with ground truth on " << P->Name
        << " (verdict " << chc::toString(Out.Status) << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CrossSolverTest,
    ::testing::Values("paper_fig1", "paper_fig1_unsafe", "gen_counter_b5_s1",
                      "gen_counter_b5_s1_bug", "rec_sum_unsafe",
                      "lit_updown", "gen_systemc_s3", "gen_product_bug"));

} // namespace
