//===- tests/PolyhedraTest.cpp - Template-polyhedra domain tests ----------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the template-polyhedra rung: the LP front end over the exact
/// simplex, the `TemplatePolyhedron` lattice, static template mining, the
/// two-rung verify ladder, cooperative cancellation inside value-internal
/// loops, and the fixpoint-engine corner cases the domains lean on. The
/// corpus differential at the bottom pins that adding the polyhedra rung to
/// the ladder never loses a static discharge.
///
//===----------------------------------------------------------------------===//

#include "analysis/DomainCancellation.h"
#include "analysis/FixpointEngine.h"
#include "analysis/OctagonAnalysis.h"
#include "analysis/PassManager.h"
#include "analysis/TemplateAnalysis.h"
#include "corpus/Harness.h"
#include "smt/LpSolver.h"
#include "smtlib2/Parser.h"
#include "solver/DataDrivenSolver.h"

#include <gtest/gtest.h>

using namespace la;
using namespace la::analysis;
using namespace la::chc;

namespace {

const Predicate *findPred(const ChcSystem &System, const std::string &Name) {
  for (const Predicate *P : System.predicates())
    if (P->Name == Name)
      return P;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// LP front end (smt/LpSolver.h over the exact Simplex)
//===----------------------------------------------------------------------===//

TEST(LpSolverTest, FiniteOptimum) {
  smt::LpProblem Lp;
  int X = Lp.addVar();
  int Y = Lp.addVar();
  Lp.addLe({{X, Rational(1)}}, Rational(5));
  Lp.addLe({{Y, Rational(1)}}, Rational(3));
  Lp.addGe({{X, Rational(1)}}, Rational(0));
  Lp.addGe({{Y, Rational(1)}}, Rational(0));
  ASSERT_TRUE(Lp.feasible());

  smt::LpProblem::Optimum O =
      Lp.maximize({{X, Rational(1)}, {Y, Rational(1)}});
  ASSERT_EQ(O.St, smt::LpProblem::Status::Optimal);
  EXPECT_EQ(O.Value.real(), Rational(8));
  EXPECT_TRUE(O.Value.isRational());

  // A joint constraint cuts the same objective down.
  Lp.addLe({{X, Rational(1)}, {Y, Rational(1)}}, Rational(6));
  O = Lp.maximize({{X, Rational(1)}, {Y, Rational(1)}});
  ASSERT_EQ(O.St, smt::LpProblem::Status::Optimal);
  EXPECT_EQ(O.Value.real(), Rational(6));

  // Maximizing the negated direction flips to the lower bound.
  O = Lp.maximize({{X, Rational(-1)}});
  ASSERT_EQ(O.St, smt::LpProblem::Status::Optimal);
  EXPECT_EQ(O.Value.real(), Rational(0));
}

TEST(LpSolverTest, UnboundedObjective) {
  smt::LpProblem Lp;
  int X = Lp.addVar();
  Lp.addGe({{X, Rational(1)}}, Rational(0));
  ASSERT_TRUE(Lp.feasible());
  EXPECT_EQ(Lp.maximize({{X, Rational(1)}}).St,
            smt::LpProblem::Status::Unbounded);
  // The bounded direction of the same problem stays answerable.
  smt::LpProblem::Optimum O = Lp.maximize({{X, Rational(-1)}});
  ASSERT_EQ(O.St, smt::LpProblem::Status::Optimal);
  EXPECT_EQ(O.Value.real(), Rational(0));
}

TEST(LpSolverTest, InfeasibleProblem) {
  smt::LpProblem Lp;
  int X = Lp.addVar();
  Lp.addLe({{X, Rational(1)}}, Rational(0));
  Lp.addGe({{X, Rational(1)}}, Rational(1));
  EXPECT_FALSE(Lp.feasible());
  EXPECT_EQ(Lp.maximize({{X, Rational(1)}}).St,
            smt::LpProblem::Status::Infeasible);
}

TEST(LpSolverTest, StrictBoundGivesDeltaOptimum) {
  smt::LpProblem Lp;
  int X = Lp.addVar();
  Lp.addLt({{X, Rational(1)}}, Rational(5));
  ASSERT_TRUE(Lp.feasible());
  smt::LpProblem::Optimum O = Lp.maximize({{X, Rational(1)}});
  ASSERT_EQ(O.St, smt::LpProblem::Status::Optimal);
  // Supremum 5 - delta: the strict constraint is active at the optimum.
  EXPECT_EQ(O.Value.real(), Rational(5));
  EXPECT_TRUE(O.Value.delta().isNegative());
}

TEST(LpSolverTest, CancelledQueryReportsCancelled) {
  auto Token = std::make_shared<CancellationToken>();
  smt::LpProblem Lp(Token);
  int X = Lp.addVar();
  Lp.addGe({{X, Rational(1)}}, Rational(0));
  ASSERT_TRUE(Lp.feasible());
  Token->cancel();
  EXPECT_EQ(Lp.maximize({{X, Rational(1)}}).St,
            smt::LpProblem::Status::Cancelled);
}

//===----------------------------------------------------------------------===//
// Integer tightening helper
//===----------------------------------------------------------------------===//

TEST(PolyhedronTest, IntegralUpperBound) {
  using la::analysis::integralUpperBound;
  EXPECT_EQ(integralUpperBound(DeltaRational(Rational(5))), Rational(5));
  EXPECT_EQ(integralUpperBound(DeltaRational(Rational(BigInt(7), BigInt(2)))),
            Rational(3));
  EXPECT_EQ(integralUpperBound(
                DeltaRational(Rational(BigInt(-7), BigInt(2)))),
            Rational(-4));
  // Strict bound at an integer: the largest integer strictly below it.
  EXPECT_EQ(integralUpperBound(DeltaRational(Rational(5), Rational(-1))),
            Rational(4));
  // Strict bound at a fraction: floor already is strictly below.
  EXPECT_EQ(integralUpperBound(
                DeltaRational(Rational(BigInt(7), BigInt(2)), Rational(-1))),
            Rational(3));
}

//===----------------------------------------------------------------------===//
// TemplatePolyhedron lattice
//===----------------------------------------------------------------------===//

/// Matrix over (x, y): +-x, +-y, and the mined-shape row x - 2y.
TemplateMatrixRef testMatrix() {
  auto M = std::make_shared<TemplateMatrix>();
  M->Arity = 2;
  M->Rows = {
      {{Rational(1), Rational(0)}},  {{Rational(-1), Rational(0)}},
      {{Rational(0), Rational(1)}},  {{Rational(0), Rational(-1)}},
      {{Rational(1), Rational(-2)}},
  };
  return M;
}

/// 0 <= x <= 5, 0 <= y <= 3 (the relational row left unbounded).
TemplatePolyhedron boxValue(const TemplateMatrixRef &M) {
  TemplatePolyhedron V = TemplatePolyhedron::top(M);
  V.setBound(0, Rational(5));
  V.setBound(1, Rational(0));
  V.setBound(2, Rational(3));
  V.setBound(3, Rational(0));
  return V;
}

TEST(PolyhedronTest, ClosureTightensUnsetRows) {
  TemplateMatrixRef M = testMatrix();
  TemplatePolyhedron V = boxValue(M);
  ASSERT_FALSE(V.isEmpty());
  // max x - 2y over the box is 5 (at x=5, y=0): closure must find it even
  // though the row was never constrained directly.
  EXPECT_EQ(V.boundOfRow(4), OctBound::of(Rational(5)));
  EXPECT_EQ(V.boundOf(0), Interval::range(Rational(0), Rational(5)));
  EXPECT_EQ(V.boundOf(1), Interval::range(Rational(0), Rational(3)));
  EXPECT_EQ(V.relationalRowCount(), 1u);

  EXPECT_TRUE(V.contains({Rational(2), Rational(1)}));
  EXPECT_TRUE(V.contains({Rational(5), Rational(0)}));
  EXPECT_FALSE(V.contains({Rational(6), Rational(0)}));
  EXPECT_FALSE(V.contains({Rational(0), Rational(4)}));
}

TEST(PolyhedronTest, ClosureDetectsEmptiness) {
  TemplateMatrixRef M = testMatrix();
  TemplatePolyhedron V = TemplatePolyhedron::top(M);
  V.setBound(0, Rational(-1)); // x <= -1
  V.setBound(1, Rational(0));  // -x <= 0, i.e. x >= 0
  EXPECT_TRUE(V.isEmpty());
  EXPECT_FALSE(V.contains({Rational(0), Rational(0)}));
}

TEST(PolyhedronTest, LatticeOperationsAgainstPoints) {
  TemplateMatrixRef M = testMatrix();
  TemplatePolyhedron A = boxValue(M);
  TemplatePolyhedron B = TemplatePolyhedron::top(M);
  B.setBound(0, Rational(7)); // 4 <= x <= 7, 1 <= y <= 2
  B.setBound(1, Rational(-4));
  B.setBound(2, Rational(2));
  B.setBound(3, Rational(-1));

  TemplatePolyhedron J = A.join(B);
  // Join is an over-approximation of the union: every point of either
  // operand stays inside.
  for (const auto &P :
       {std::vector<Rational>{Rational(0), Rational(0)},
        std::vector<Rational>{Rational(5), Rational(3)},
        std::vector<Rational>{Rational(7), Rational(1)},
        std::vector<Rational>{Rational(4), Rational(2)}})
    EXPECT_TRUE(J.contains(P));
  // ... and the template bounds are the row-wise max, not coarser.
  EXPECT_EQ(J.boundOf(0), Interval::range(Rational(0), Rational(7)));
  EXPECT_EQ(J.boundOfRow(4), OctBound::of(Rational(5)));
  EXPECT_FALSE(J.contains({Rational(8), Rational(0)}));

  TemplatePolyhedron Meet = A.meet(B);
  // x in [4,5], y in [1,2]: exactly the box intersection.
  EXPECT_TRUE(Meet.contains({Rational(4), Rational(1)}));
  EXPECT_TRUE(Meet.contains({Rational(5), Rational(2)}));
  EXPECT_FALSE(Meet.contains({Rational(3), Rational(1)}));
  EXPECT_FALSE(Meet.isEmpty());

  // Widening drops exactly the rows B grew past A.
  TemplatePolyhedron W = A.widen(J);
  EXPECT_FALSE(W.boundOf(0).hasHi()); // x bound grew 5 -> 7: dropped
  EXPECT_EQ(W.boundOf(0).lo(), Rational(0));  // stable rows stay
  EXPECT_EQ(W.boundOf(1), Interval::range(Rational(0), Rational(3)));
  // Widening over-approximates the second argument: W contains J, and the
  // kept relational row x - 2y <= 5 is now the only rein on large x.
  for (const auto &P :
       {std::vector<Rational>{Rational(0), Rational(0)},
        std::vector<Rational>{Rational(7), Rational(1)},
        std::vector<Rational>{Rational(11), Rational(3)}})
    EXPECT_TRUE(W.contains(P));
  EXPECT_FALSE(W.contains({Rational(12), Rational(3)}));

  EXPECT_TRUE(A == A);
  EXPECT_TRUE(A != B);
  EXPECT_FALSE(A.toString().empty());
}

TEST(PolyhedronTest, EmptyOperandsAreLatticeUnits) {
  TemplateMatrixRef M = testMatrix();
  TemplatePolyhedron A = boxValue(M);
  TemplatePolyhedron Bot = TemplatePolyhedron::bottom(M);
  EXPECT_TRUE(Bot.isEmpty());
  EXPECT_TRUE(A.join(Bot) == A);
  EXPECT_TRUE(Bot.join(A) == A);
  EXPECT_TRUE(A.meet(Bot).isEmpty());
  EXPECT_TRUE(Bot.widen(A) == A);
}

//===----------------------------------------------------------------------===//
// Cooperative cancellation inside value-internal loops
//===----------------------------------------------------------------------===//

TEST(DomainCancellationTest, PolyhedronClosureIsInterruptibleAndResumable) {
  TemplateMatrixRef M = testMatrix();
  auto Token = std::make_shared<CancellationToken>();
  Token->cancel();
  {
    DomainCancelScope Scope(Token);
    ASSERT_TRUE(DomainCancelScope::cancelled());
    TemplatePolyhedron V = boxValue(M);
    // Interrupted closure: the relational row stays at its stored (infinite)
    // bound — a sound over-approximation, not a wrong answer.
    EXPECT_FALSE(V.boundOfRow(4).Finite);
    EXPECT_FALSE(V.isEmpty());
  }
  // Outside the scope the same value closes fully.
  EXPECT_FALSE(DomainCancelScope::cancelled());
  TemplatePolyhedron V = boxValue(M);
  EXPECT_EQ(V.boundOfRow(4), OctBound::of(Rational(5)));
}

TEST(DomainCancellationTest, OctagonClosureIsInterruptibleAndResumable) {
  auto Build = [] {
    Octagon O(2);
    O.addUpper(0, Rational(5)); // x <= 5
    O.addPair(1, false, 0, true, Rational(0)); // y - x <= 0
    return O;
  };
  auto Token = std::make_shared<CancellationToken>();
  Token->cancel();
  {
    DomainCancelScope Scope(Token);
    Octagon O = Build();
    // Interrupted strong closure: the implied bound y <= 5 is not
    // propagated, but nothing is wrong — just less precise.
    EXPECT_FALSE(O.isEmpty());
    EXPECT_FALSE(O.boundOf(1).hasHi());
  }
  Octagon O = Build();
  ASSERT_TRUE(O.boundOf(1).hasHi());
  EXPECT_EQ(O.boundOf(1).hi(), Rational(5));

  // Nested scopes restore the outer token on exit.
  auto Outer = std::make_shared<CancellationToken>();
  DomainCancelScope S1(Outer);
  {
    DomainCancelScope S2(Token);
    EXPECT_TRUE(DomainCancelScope::cancelled());
  }
  EXPECT_EQ(DomainCancelScope::current(), Outer);
  EXPECT_FALSE(DomainCancelScope::cancelled());
}

//===----------------------------------------------------------------------===//
// Template mining and the flagship beyond-octagon invariant
//===----------------------------------------------------------------------===//

/// x starts at 0 and grows by 2 while y grows by 1: the invariant x <= 2y
/// needed by the query has a coefficient no octagon can carry.
constexpr const char *TwoToOneSystem = R"(
(set-logic HORN)
(declare-fun p (Int Int) Bool)
(assert (forall ((x Int) (y Int)) (=> (and (= x 0) (= y 0)) (p x y))))
(assert (forall ((x Int) (y Int) (u Int) (v Int))
  (=> (and (p x y) (= u (+ x 2)) (= v (+ y 1))) (p u v))))
(assert (forall ((x Int) (y Int)) (=> (p x y) (<= x (* 2 y)))))
)";

TEST(TemplateMiningTest, HarvestsQueryGuardRows) {
  TermManager TM;
  ChcSystem System(TM);
  smtlib2::ParseResult P = smtlib2::parseSmtLib2(TwoToOneSystem, System);
  ASSERT_TRUE(P.Ok) << P.error();
  const Predicate *Pred = findPred(System, "p");

  AnalysisContext Ctx(System);
  std::vector<TemplateMatrixRef> Matrices =
      mineTemplates(Ctx, Ctx.Opts.Mining);
  ASSERT_EQ(Matrices.size(), System.predicates().size());
  const TemplateMatrix &M = *Matrices[Pred->Index];
  ASSERT_EQ(M.Arity, 2u);
  EXPECT_LE(M.Rows.size(), Ctx.Opts.Mining.MaxTemplatesPerPredicate);

  auto HasRow = [&](std::vector<Rational> Coef) {
    for (const TemplateRow &R : M.Rows)
      if (R.Coef == Coef)
        return true;
    return false;
  };
  // Octagon-shaped defaults.
  EXPECT_TRUE(HasRow({Rational(1), Rational(0)}));
  EXPECT_TRUE(HasRow({Rational(0), Rational(-1)}));
  EXPECT_TRUE(HasRow({Rational(1), Rational(1)}));
  EXPECT_TRUE(HasRow({Rational(1), Rational(-1)}));
  // The query guard x <= 2y projects to the row x - 2y (and its negation):
  // exactly the direction the invariant needs.
  EXPECT_TRUE(HasRow({Rational(1), Rational(-2)}));
  EXPECT_TRUE(HasRow({Rational(-1), Rational(2)}));
}

TEST(TemplateMiningTest, MaskedPredicatesGetEmptyMatrices) {
  TermManager TM;
  ChcSystem System(TM);
  smtlib2::ParseResult P = smtlib2::parseSmtLib2(TwoToOneSystem, System);
  ASSERT_TRUE(P.Ok) << P.error();
  const Predicate *Pred = findPred(System, "p");

  AnalysisContext Ctx(System);
  Ctx.fix(Pred, TM.mkTrue());
  std::vector<TemplateMatrixRef> Matrices =
      mineTemplates(Ctx, Ctx.Opts.Mining);
  EXPECT_TRUE(Matrices[Pred->Index]->Rows.empty());
}

TEST(TemplateAnalysisTest, FindsCoefficientTwoInvariant) {
  TermManager TM;
  ChcSystem System(TM);
  smtlib2::ParseResult P = smtlib2::parseSmtLib2(TwoToOneSystem, System);
  ASSERT_TRUE(P.Ok) << P.error();
  const Predicate *Pred = findPred(System, "p");

  AnalysisContext Ctx(System);

  // The octagon rung cannot express x <= 2y: its unary rows see both
  // arguments unbounded above, its pair rows only unit coefficients.
  std::vector<OctagonState> OStates = runOctagonAnalysis(Ctx);
  EXPECT_FALSE(OStates[Pred->Index].Value.boundOf(0).hasHi());
  Interpretation OctOnly(TM);
  if (const Term *OctInv = octagonInvariant(TM, Pred, OStates[Pred->Index]))
    OctOnly.set(Pred, OctInv);
  else
    OctOnly.set(Pred, TM.mkTrue());
  bool OctagonDischarges = true;
  for (const HornClause &C : System.clauses())
    if (C.isQuery())
      OctagonDischarges &=
          checkClause(System, C, OctOnly).Status == ClauseStatus::Valid;
  EXPECT_FALSE(OctagonDischarges);

  // The polyhedra rung pins the mined direction to x - 2y <= 0.
  std::vector<TemplateMatrixRef> Matrices;
  std::vector<PolyhedraState> States = runTemplateAnalysis(Ctx, &Matrices);
  ASSERT_TRUE(States[Pred->Index].Reachable);
  const TemplatePolyhedron &V = States[Pred->Index].Value;
  const TemplateMatrix &M = *Matrices[Pred->Index];
  bool Found = false;
  for (size_t R = 0; R < M.Rows.size(); ++R)
    if (M.Rows[R].Coef ==
        std::vector<Rational>{Rational(1), Rational(-2)}) {
      ASSERT_TRUE(V.boundOfRow(R).Finite);
      EXPECT_LE(V.boundOfRow(R).B, Rational(0));
      Found = true;
    }
  EXPECT_TRUE(Found);

  // The rendered candidate is inductive as-is.
  const Term *Inv = templateInvariant(TM, Pred, States[Pred->Index]);
  ASSERT_NE(Inv, nullptr);
  Interpretation Interp(TM);
  Interp.set(Pred, Inv);
  for (const HornClause &C : System.clauses())
    EXPECT_EQ(checkClause(System, C, Interp).Status, ClauseStatus::Valid)
        << C.Name;
}

TEST(TemplateAnalysisTest, PipelineDischargesBeyondOctagonQuery) {
  TermManager TM;
  ChcSystem System(TM);
  smtlib2::ParseResult P = smtlib2::parseSmtLib2(TwoToOneSystem, System);
  ASSERT_TRUE(P.Ok) << P.error();

  // The pre-polyhedra ladder cannot discharge the query statically.
  AnalysisOptions NoPoly;
  NoPoly.EnablePolyhedra = false;
  AnalysisResult RO = analyzeSystem(System, NoPoly);
  EXPECT_FALSE(RO.ProvedSat);

  // The full ladder does, and reports the polyhedral facts behind it.
  AnalysisResult R = analyzeSystem(System);
  EXPECT_TRUE(R.ProvedSat);
  EXPECT_FALSE(R.Invariants.empty());
  size_t PolyFacts = 0, TemplatesMined = 0;
  for (const PassStats &PS : R.Passes) {
    TemplatesMined += PS.TemplatesMined;
    if (PS.Name == "verify")
      PolyFacts += PS.PolyhedraFacts;
  }
  EXPECT_GT(TemplatesMined, 0u);
  EXPECT_GT(PolyFacts, 0u);
  EXPECT_FALSE(R.PolyRows.empty());

  // End to end: the solver answers Sat with zero CEGAR iterations and a
  // valid interpretation, and surfaces the mining stats.
  solver::DataDrivenChcSolver Solver;
  ChcSolverResult SR = Solver.solve(System);
  EXPECT_EQ(SR.Status, ChcResult::Sat);
  EXPECT_EQ(SR.Stats.Iterations, 0u);
  EXPECT_GT(SR.Stats.TemplatesMined, 0u);
  EXPECT_GT(SR.Stats.PolyhedraFacts, 0u);
  EXPECT_TRUE(Solver.detailedStats().SolvedByAnalysis);
  EXPECT_EQ(checkInterpretation(System, SR.Interp), ClauseStatus::Valid);
  EXPECT_NE(SR.Stats.summary().find("templates"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Fixpoint engine corner cases
//===----------------------------------------------------------------------===//

/// One counting loop 0..3 guarded by n < 3, plus a query using n <= 3.
constexpr const char *CountToThree = R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (inv n))))
(assert (forall ((n Int) (m Int))
  (=> (and (inv n) (< n 3) (= m (+ n 1))) (inv m))))
(assert (forall ((n Int)) (=> (inv n) (<= n 3))))
)";

/// The octagon domain over \p Ctx's pack layout with no transfer memo, so
/// every engine run below starts from scratch.
OctagonDomain coldOctagons(const AnalysisContext &Ctx) {
  return OctagonDomain(Ctx.packs(), Ctx.Opts.Packs, /*Cache=*/nullptr);
}

TEST(FixpointEngineTest, WideningDelayBoundaryIsExclusive) {
  TermManager TM;
  ChcSystem System(TM);
  smtlib2::ParseResult P = smtlib2::parseSmtLib2(CountToThree, System);
  ASSERT_TRUE(P.Ok) << P.error();
  const Predicate *Pred = findPred(System, "inv");

  // Reaching the fixpoint takes exactly 3 joins (n = 1, 2, 3 after the
  // fact). With WideningDelay == 3 the engine widens only *past* the delay
  // (Updates > Delay), so the exact bound survives without narrowing.
  AnalysisContext Ctx(System);
  FixpointOptions AtBoundary;
  AtBoundary.WideningDelay = 3;
  AtBoundary.NarrowingPasses = 0;
  std::vector<OctagonState> S =
      runDomainAnalysis(coldOctagons(Ctx), Ctx, AtBoundary);
  ASSERT_TRUE(S[Pred->Index].Reachable);
  EXPECT_EQ(S[Pred->Index].Value.boundOf(0),
            Interval::range(Rational(0), Rational(3)));

  // One join earlier (Delay == 2) the third join widens: without narrowing
  // the upper bound is gone...
  FixpointOptions BelowBoundary;
  BelowBoundary.WideningDelay = 2;
  BelowBoundary.NarrowingPasses = 0;
  S = runDomainAnalysis(coldOctagons(Ctx), Ctx, BelowBoundary);
  EXPECT_EQ(S[Pred->Index].Value.boundOf(0).lo(), Rational(0));
  EXPECT_FALSE(S[Pred->Index].Value.boundOf(0).hasHi());

  // ... and one descending pass recovers it from the loop guard.
  BelowBoundary.NarrowingPasses = 1;
  S = runDomainAnalysis(coldOctagons(Ctx), Ctx, BelowBoundary);
  EXPECT_EQ(S[Pred->Index].Value.boundOf(0),
            Interval::range(Rational(0), Rational(3)));
}

TEST(FixpointEngineTest, UnreachablePredicateStaysBottom) {
  constexpr const char *Unreachable = R"(
(set-logic HORN)
(declare-fun p (Int) Bool)
(declare-fun q (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (p n))))
(assert (forall ((n Int) (m Int)) (=> (and (q n) (= m (+ n 1))) (q m))))
(assert (forall ((n Int)) (=> (q n) (p n))))
)";
  TermManager TM;
  ChcSystem System(TM);
  smtlib2::ParseResult P = smtlib2::parseSmtLib2(Unreachable, System);
  ASSERT_TRUE(P.Ok) << P.error();
  const Predicate *Q = findPred(System, "q");

  // `q` has no fact clause: bottom propagates through its self-loop and it
  // never becomes reachable, in every domain of the ladder.
  AnalysisContext Ctx(System);
  Ctx.Opts.EnableInlining = false;
  Ctx.Opts.EnableSlicing = false;
  EXPECT_FALSE(runOctagonAnalysis(Ctx)[Q->Index].Reachable);
  EXPECT_FALSE(runTemplateAnalysis(Ctx)[Q->Index].Reachable);

  // The verify pass turns the bottom state into a verified-false
  // resolution.
  AnalysisOptions Opts;
  Opts.EnableInlining = false;
  Opts.EnableSlicing = false;
  AnalysisResult R = analyzeSystem(System, Opts);
  auto It = R.Fixed.find(Q);
  ASSERT_NE(It, R.Fixed.end());
  EXPECT_TRUE(It->second->isFalse());
}

TEST(FixpointEngineTest, SweepCapTelemetryIsSurfaced) {
  TermManager TM;
  ChcSystem System(TM);
  smtlib2::ParseResult P = smtlib2::parseSmtLib2(CountToThree, System);
  ASSERT_TRUE(P.Ok) << P.error();

  // The loop needs several sweeps; a cap of 1 must fire the safety net.
  AnalysisContext Ctx(System);
  FixpointOptions Capped;
  Capped.MaxSweeps = 1;
  FixpointTelemetry Tele;
  runDomainAnalysis(coldOctagons(Ctx), Ctx, Capped, &Tele);
  EXPECT_EQ(Tele.Sweeps, 1u);
  EXPECT_TRUE(Tele.HitSweepCap);

  // Defaults converge and report clean telemetry.
  FixpointTelemetry Clean;
  runDomainAnalysis(coldOctagons(Ctx), Ctx, FixpointOptions(), &Clean);
  EXPECT_FALSE(Clean.HitSweepCap);
  EXPECT_GT(Clean.Sweeps, 1u);

  // And the cap hit reaches the per-pass statistics.
  AnalysisOptions Opts;
  Opts.Octagons.MaxSweeps = 1;
  AnalysisResult R = analyzeSystem(System, Opts);
  bool Reported = false;
  for (const PassStats &PS : R.Passes)
    if (PS.Name == "octagons") {
      EXPECT_TRUE(PS.HitSweepCap);
      EXPECT_EQ(PS.SweepCapHits, 1u);
      Reported = true;
    }
  EXPECT_TRUE(Reported);
  EXPECT_NE(R.report().find("sweep-capped"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Corpus differential: the ladder only ever strengthens
//===----------------------------------------------------------------------===//

TEST(PolyhedraCorpusTest, LadderOnlyStrengthensStaticDischarges) {
  size_t WithOctagons = 0, Full = 0, Programs = 0;
  size_t Skipped = 0;
  for (const corpus::BenchmarkProgram &Prog : corpus::allPrograms()) {
    if (!Prog.ExpectedSafe)
      continue; // analysis alone never discharges unsafe programs
    TermManager TM;
    ChcSystem System(TM);
    frontend::EncodeResult E = frontend::encodeMiniC(Prog.Source, System);
    ASSERT_TRUE(E.Ok) << Prog.Name << ": " << E.Error;

    AnalysisOptions OctOnly;
    OctOnly.EnablePolyhedra = false;
    OctOnly.TimeoutSeconds = 2;
    AnalysisResult RO = analyzeSystem(System, OctOnly);

    AnalysisOptions Both;
    Both.TimeoutSeconds = 2;
    AnalysisResult RF = analyzeSystem(System, Both);

    // A config that ran out of budget mid-pipeline proves nothing about
    // ladder strength (its later rungs ran degraded or not at all), so the
    // differential only counts programs where both configs converged.
    // The scalability-family programs with hundreds of SSA dimensions per
    // clause land here by design.
    if (RO.TimedOut || RF.TimedOut) {
      ++Skipped;
      continue;
    }
    ++Programs;
    bool O = RO.ProvedSat, F = RF.ProvedSat;

    // Strengthening must be monotone per program: the polyhedra rung added
    // on top of the octagon rung can never lose a discharge it had.
    EXPECT_LE(O, F) << Prog.Name;
    WithOctagons += O;
    Full += F;

    // Every invariant the full pipeline publishes is inductive (checked
    // against the system the invariants refer to: the inlined clone when
    // the inline pass fired).
    const ChcSystem &Sys = RF.Transformed ? *RF.Transformed : System;
    Interpretation Interp(TM);
    for (const auto &[Pred, Inv] : RF.Fixed)
      Interp.set(Pred, Inv);
    for (const auto &[Pred, Inv] : RF.Invariants)
      Interp.set(Pred, Inv);
    for (const HornClause &Cl : Sys.clauses()) {
      if (!Cl.HeadPred)
        continue;
      EXPECT_EQ(checkClause(Sys, Cl, Interp).Status, ClauseStatus::Valid)
          << Prog.Name << ": " << Cl.Name;
    }
  }
  ASSERT_GT(Programs, 0u);
  printf("static discharges: +octagons %zu, +polyhedra %zu of %zu safe "
         "programs (%zu budget-skipped)\n",
         WithOctagons, Full, Programs, Skipped);
  // The acceptance bar of this PR: the polyhedra rung strictly grows the
  // set of statically discharged programs.
  EXPECT_GT(Full, WithOctagons);
}

} // namespace
