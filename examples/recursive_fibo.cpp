//===- examples/recursive_fibo.cpp - Recursive CHCs and derivations -------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
// The paper's Fig. 5 walk-through: non-linear recursive CHCs for the
// fibonacci function, solved by counterexample-guided sampling (§2.3).
// Shows the safe property (fibo(x) >= x - 1), the harder SV-COMP variant
// (x < 9 || fibo(x) >= 34), and an unsafe variant whose refutation is a
// derivation tree built from the positive-sample forest.
//
//===----------------------------------------------------------------------===//

#include "smtlib2/Parser.h"
#include "solver/DataDrivenSolver.h"

#include <cstdio>

using namespace la;
using namespace la::chc;

static const char *fiboSystem(const char *Property) {
  static std::string Text;
  Text = std::string(R"(
(set-logic HORN)
(declare-fun p (Int Int) Bool)
; CHC (5): x < 1 -> fibo(x) = 0
(assert (forall ((x Int) (y Int)) (=> (and (< x 1) (= y 0)) (p x y))))
; CHC (6): fibo(1) = 1
(assert (forall ((x Int) (y Int)) (=> (and (>= x 1) (= x 1) (= y 1)) (p x y))))
; CHC (7): the non-linear recursive case
(assert (forall ((x Int) (y Int) (y1 Int) (y2 Int))
  (=> (and (>= x 1) (distinct x 1) (p (- x 1) y1) (p (- x 2) y2)
           (= y (+ y1 y2)))
      (p x y))))
; CHC (8): the property
)") + Property;
  return Text.c_str();
}

static int solveAndReport(const char *Label, const char *Property,
                          double Timeout) {
  printf("=== %s ===\n", Label);
  TermManager TM;
  ChcSystem System(TM);
  smtlib2::ParseResult P = smtlib2::parseSmtLib2(fiboSystem(Property), System);
  if (!P.Ok) {
    printf("parse error: %s\n", P.error().c_str());
    return 1;
  }
  printf("recursive: %s (CHC (7) has two occurrences of p in its body)\n",
         System.isRecursive() ? "yes" : "no");

  solver::DataDrivenOptions Opts;
  Opts.Limits.WallSeconds = Timeout;
  solver::DataDrivenChcSolver Solver(Opts);
  ChcSolverResult R = Solver.solve(System);

  printf("verdict: %s (%.2fs, %zu samples, %zu weakenings)\n",
         toString(R.Status), R.Stats.Seconds, R.Stats.Samples,
         Solver.detailedStats().Weakenings);
  if (R.Status == ChcResult::Sat) {
    printf("summary of fibo learned from data:\n%s",
           R.Interp.toString().c_str());
    printf("validation: %s\n",
           checkInterpretation(System, R.Interp) == ClauseStatus::Valid
               ? "VALID"
               : "INVALID");
  }
  if (R.Status == ChcResult::Unsat && R.Cex) {
    printf("%s", R.Cex->toString(System).c_str());
    printf("derivation replay: %s\n",
           validateCounterexample(System, *R.Cex) ? "confirmed" : "FAILED");
  }
  printf("\n");
  return 0;
}

int main() {
  int Rc = 0;
  // The paper's property: fibo(x) >= x - 1.
  Rc |= solveAndReport("Fig. 5: fibo(x) >= x - 1",
                       "(assert (forall ((x Int) (y Int)) "
                       "(=> (p x y) (>= y (- x 1)))))",
                       120);
  // The SV-COMP variant from §2.3: needs positive samples up to fibo(10).
  Rc |= solveAndReport("SV-COMP variant: x < 9 || fibo(x) >= 34",
                       "(assert (forall ((x Int) (y Int)) "
                       "(=> (p x y) (or (< x 9) (>= y 34)))))",
                       300);
  // An unsafe property: fibo(x) >= x fails at x = 2.
  Rc |= solveAndReport("unsafe variant: fibo(x) >= x",
                       "(assert (forall ((x Int) (y Int)) "
                       "(=> (p x y) (>= y x))))",
                       120);
  return Rc;
}
