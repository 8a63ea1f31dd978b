//===- tests/AnalysisTest.cpp - Static pre-analysis layer tests -----------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/DependencyGraph.h"
#include "analysis/InlinePass.h"
#include "analysis/Octagon.h"
#include "analysis/OctagonAnalysis.h"
#include "analysis/PassManager.h"
#include "smtlib2/Parser.h"
#include "solver/DataDrivenSolver.h"

#include <gtest/gtest.h>

#include <functional>

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
// Interval lattice
//===----------------------------------------------------------------------===//

TEST(IntervalTest, LatticeBasics) {
  Interval Top = Interval::top();
  Interval Empty = Interval::empty();
  EXPECT_TRUE(Top.isTop());
  EXPECT_TRUE(Empty.isEmpty());
  EXPECT_EQ(Top.join(Empty), Top);
  EXPECT_EQ(Top.meet(Empty), Empty);

  Interval A = Interval::range(Rational(0), Rational(5));
  Interval B = Interval::range(Rational(3), Rational(9));
  EXPECT_EQ(A.join(B), Interval::range(Rational(0), Rational(9)));
  EXPECT_EQ(A.meet(B), Interval::range(Rational(3), Rational(5)));
  EXPECT_TRUE(A.contains(Rational(5)));
  EXPECT_FALSE(A.contains(Rational(6)));

  // Crossed bounds collapse to empty.
  EXPECT_TRUE(Interval::range(Rational(4), Rational(2)).isEmpty());
  EXPECT_TRUE(Interval::atLeast(Rational(7))
                  .meet(Interval::atMost(Rational(3)))
                  .isEmpty());
}

TEST(IntervalTest, Widening) {
  Interval Prev = Interval::range(Rational(0), Rational(3));
  // Stable lower bound is kept; growing upper bound is dropped.
  Interval W = Prev.widen(Interval::range(Rational(0), Rational(4)));
  EXPECT_TRUE(W.hasLo());
  EXPECT_EQ(W.lo(), Rational(0));
  EXPECT_FALSE(W.hasHi());
  // Nothing moved: widening is the identity.
  EXPECT_EQ(Prev.widen(Prev), Prev);
}

TEST(IntervalTest, ArithmeticAndTightening) {
  Interval A = Interval::range(Rational(1), Rational(2));
  Interval B = Interval::range(Rational(10), Rational(20));
  EXPECT_EQ(A + B, Interval::range(Rational(11), Rational(22)));
  EXPECT_EQ(B.scaled(Rational(-1)), Interval::range(Rational(-20), Rational(-10)));

  Interval Frac =
      Interval::range(Rational(BigInt(1), BigInt(2)), Rational(BigInt(7), BigInt(2)));
  EXPECT_EQ(Frac.tightenIntegral(), Interval::range(Rational(1), Rational(3)));
  // A fraction-only interval contains no integer at all.
  EXPECT_TRUE(Interval::range(Rational(BigInt(1), BigInt(3)),
                              Rational(BigInt(2), BigInt(3)))
                  .tightenIntegral()
                  .isEmpty());

  EXPECT_EQ(floorOf(Rational(BigInt(-7), BigInt(2))), Rational(-4));
  EXPECT_EQ(ceilOf(Rational(BigInt(-7), BigInt(2))), Rational(-3));
  EXPECT_EQ(floorOf(Rational(5)), Rational(5));
}

//===----------------------------------------------------------------------===//
// Dependency slicing
//===----------------------------------------------------------------------===//

/// `dead` is defined but never demanded by the query; `orphan` has no fact
/// clause at all. Slicing must resolve the former to true and the latter to
/// false, pruning their clauses.
constexpr const char *SlicingSystem = R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(declare-fun dead (Int) Bool)
(declare-fun orphan (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (inv n))))
(assert (forall ((n Int) (m Int))
  (=> (and (inv n) (< n 10) (= m (+ n 1))) (inv m))))
(assert (forall ((n Int) (a Int))
  (=> (and (inv n) (= a (+ n 5))) (dead a))))
(assert (forall ((b Int)) (=> (and (orphan b) (> b 0)) (orphan b))))
(assert (forall ((n Int) (b Int)) (=> (and (inv n) (orphan b)) (< n b))))
(assert (forall ((n Int)) (=> (inv n) (<= n 10))))
)";

TEST(DependencyGraphTest, ReachabilityQueries) {
  TermManager TM;
  ChcSystem System(TM);
  smtlib2::ParseResult P = smtlib2::parseSmtLib2(SlicingSystem, System);
  ASSERT_TRUE(P.Ok) << P.error();

  DependencyGraph G(System, {});
  std::vector<char> Derivable = G.derivableFromFacts();
  std::vector<char> InCone = G.reachesQuery();

  EXPECT_TRUE(Derivable[findPred(System, "inv")->Index]);
  EXPECT_TRUE(Derivable[findPred(System, "dead")->Index]);
  EXPECT_FALSE(Derivable[findPred(System, "orphan")->Index]);

  EXPECT_TRUE(InCone[findPred(System, "inv")->Index]);
  EXPECT_FALSE(InCone[findPred(System, "dead")->Index]);
  EXPECT_TRUE(InCone[findPred(System, "orphan")->Index]);
}

TEST(AnalysisTest, SlicingResolvesAndPrunes) {
  TermManager TM;
  ChcSystem System(TM);
  smtlib2::ParseResult P = smtlib2::parseSmtLib2(SlicingSystem, System);
  ASSERT_TRUE(P.Ok) << P.error();

  AnalysisResult R = analyzeSystem(System);

  // The inline pass eliminates `dead` (one definition, no recursion, never
  // in a query body) before slicing even sees it, so every later field
  // refers to the transformed system. `orphan` is self-recursive and must
  // not be inlined; slicing still resolves it to false.
  ASSERT_TRUE(R.Transformed != nullptr);
  ASSERT_TRUE(R.Inline != nullptr);
  const Predicate *Dead = findPred(*R.Transformed, "dead");
  const Predicate *Orphan = findPred(*R.Transformed, "orphan");
  ASSERT_TRUE(Dead && Orphan);
  EXPECT_TRUE(R.Inline->Eliminated[Dead->Index]);
  EXPECT_FALSE(R.Inline->Eliminated[Orphan->Index]);
  EXPECT_FALSE(R.Fixed.count(Dead));
  ASSERT_TRUE(R.Fixed.count(Orphan));
  EXPECT_TRUE(R.Fixed.at(Orphan)->isFalse());
  EXPECT_GE(R.clausesPruned(), 2u);
  EXPECT_EQ(R.predicatesResolved(), 1u);

  // No live clause of the transformed system mentions a resolved or
  // eliminated predicate.
  const auto &Clauses = R.Transformed->clauses();
  for (size_t I = 0; I < Clauses.size(); ++I) {
    if (!R.LiveClause[I])
      continue;
    EXPECT_TRUE(!Clauses[I].HeadPred || (Clauses[I].HeadPred->Pred != Dead &&
                                         Clauses[I].HeadPred->Pred != Orphan));
    for (const PredApp &App : Clauses[I].Body)
      EXPECT_TRUE(App.Pred != Dead && App.Pred != Orphan);
  }
}

//===----------------------------------------------------------------------===//
// Octagon fixpoint: per-argument bounds
//===----------------------------------------------------------------------===//

/// The classic counting loop: n starts at 0 and increments below the guard
/// n < 10. Widening first overshoots the upper bound; the narrowing passes
/// must recover the exact bound [0, 10] on the octagon's unary rows.
TEST(OctagonAnalysisTest, CountingLoopConverges) {
  constexpr const char *Text = R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (inv n))))
(assert (forall ((n Int) (m Int))
  (=> (and (inv n) (< n 10) (= m (+ n 1))) (inv m))))
(assert (forall ((n Int)) (=> (inv n) (<= n 10))))
)";
  TermManager TM;
  ChcSystem System(TM);
  smtlib2::ParseResult P = smtlib2::parseSmtLib2(Text, System);
  ASSERT_TRUE(P.Ok) << P.error();

  AnalysisContext Ctx(System);
  std::vector<OctagonState> States = runOctagonAnalysis(Ctx);

  const Predicate *Inv = findPred(System, "inv");
  ASSERT_TRUE(States[Inv->Index].Reachable);
  ASSERT_EQ(States[Inv->Index].Value.numVars(), 1u);
  EXPECT_EQ(States[Inv->Index].Value.boundOf(0),
            Interval::range(Rational(0), Rational(10)));
}

/// Without a loop guard the upper bound genuinely diverges: widening must
/// drop it (and narrowing must not resurrect a bound that does not exist),
/// while the stable lower bound survives.
TEST(OctagonAnalysisTest, WideningDropsUnstableBound) {
  constexpr const char *Text = R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (inv n))))
(assert (forall ((n Int) (m Int))
  (=> (and (inv n) (= m (+ n 1))) (inv m))))
(assert (forall ((n Int)) (=> (inv n) (>= n 0))))
)";
  TermManager TM;
  ChcSystem System(TM);
  smtlib2::ParseResult P = smtlib2::parseSmtLib2(Text, System);
  ASSERT_TRUE(P.Ok) << P.error();

  AnalysisContext Ctx(System);
  std::vector<OctagonState> States = runOctagonAnalysis(Ctx);

  const Predicate *Inv = findPred(System, "inv");
  ASSERT_TRUE(States[Inv->Index].Reachable);
  Interval I = States[Inv->Index].Value.boundOf(0);
  EXPECT_TRUE(I.hasLo());
  EXPECT_EQ(I.lo(), Rational(0));
  EXPECT_FALSE(I.hasHi());
}

//===----------------------------------------------------------------------===//
// Octagon domain, differential against brute-force enumeration
//===----------------------------------------------------------------------===//

namespace {

/// All integer points of the box [-B, B]^N, as rational coordinate vectors.
std::vector<std::vector<Rational>> boxPoints(size_t N, int B) {
  std::vector<std::vector<Rational>> Points(1);
  for (size_t D = 0; D < N; ++D) {
    std::vector<std::vector<Rational>> Next;
    for (const auto &P : Points)
      for (int V = -B; V <= B; ++V) {
        Next.push_back(P);
        Next.back().push_back(Rational(V));
      }
    Points = std::move(Next);
  }
  return Points;
}

/// Evaluates one canonical octagon constraint at a point.
Rational evalConstraint(const OctConstraint &C,
                        const std::vector<Rational> &P) {
  Rational V = P[C.Var1] * Rational(C.Coef1);
  if (C.Coef2 != 0)
    V = V + P[C.Var2] * Rational(C.Coef2);
  return V;
}

/// Checks every finite canonical constraint of \p O against the enumerated
/// \p Sat points: each must be sound (no point exceeds it) and, when \p
/// ExpectTight, exact (some point attains it). Requires the concretization
/// of \p O to lie strictly inside the enumeration box.
void checkAgainstEnumeration(const Octagon &O,
                             const std::vector<std::vector<Rational>> &Sat,
                             bool ExpectTight) {
  O.forEachConstraint([&](const OctConstraint &C) {
    Rational Max;
    bool Any = false;
    for (const auto &P : Sat) {
      Rational V = evalConstraint(C, P);
      if (!Any || Max < V) {
        Max = V;
        Any = true;
      }
      EXPECT_TRUE(V <= C.Bound) << O.toString();
    }
    ASSERT_TRUE(Any);
    if (ExpectTight) {
      EXPECT_EQ(Max, C.Bound) << "loose bound in " << O.toString();
    }
  });
}

} // namespace

TEST(OctagonTest, ClosureIsTightOnEnumeratedBox) {
  // x in [0, 5], y in [1, 4], x + y <= 7: bounded and strictly inside the
  // enumeration box, so every closed bound must match the enumerated max.
  Octagon O(2);
  O.addLower(0, Rational(0));
  O.addUpper(0, Rational(5));
  O.addLower(1, Rational(1));
  O.addUpper(1, Rational(4));
  O.addPair(0, false, 1, false, Rational(7));

  auto SatPred = [](const std::vector<Rational> &P) {
    return Rational(0) <= P[0] && P[0] <= Rational(5) && Rational(1) <= P[1] &&
           P[1] <= Rational(4) && P[0] + P[1] <= Rational(7);
  };
  std::vector<std::vector<Rational>> Sat;
  for (const auto &P : boxPoints(2, 8)) {
    EXPECT_EQ(O.contains(P), SatPred(P));
    if (SatPred(P))
      Sat.push_back(P);
  }
  ASSERT_FALSE(O.isEmpty());
  checkAgainstEnumeration(O, Sat, /*ExpectTight=*/true);

  EXPECT_EQ(O.boundOf(0), Interval::range(Rational(0), Rational(5)));
  EXPECT_EQ(O.boundOf(1), Interval::range(Rational(1), Rational(4)));
  EXPECT_EQ(O.pairUpper(0, false, 1, false), OctBound::of(Rational(7)));
  // Implied by closure: x - y <= 5 - 1 = 4.
  EXPECT_EQ(O.pairUpper(0, false, 1, true), OctBound::of(Rational(4)));
}

TEST(OctagonTest, IntegerTightening) {
  // Fractional unary bound floors to the next integer.
  Octagon A(1);
  A.addUpper(0, Rational(BigInt(5), BigInt(2))); // x <= 5/2
  Interval IA = A.boundOf(0);
  ASSERT_TRUE(IA.hasHi());
  EXPECT_EQ(IA.hi(), Rational(2));

  // Half-sum strengthening: x + y <= 3 and x - y <= 4 imply 2x <= 7, which
  // tightens to x <= 3 over the integers.
  Octagon B(2);
  B.addPair(0, false, 1, false, Rational(3));
  B.addPair(0, false, 1, true, Rational(4));
  Interval IB = B.boundOf(0);
  ASSERT_TRUE(IB.hasHi());
  EXPECT_EQ(IB.hi(), Rational(3));
  EXPECT_FALSE(IB.hasLo());

  // x in [1/2, 1/2] holds no integer point at all.
  Octagon C(1);
  C.addUpper(0, Rational(BigInt(1), BigInt(2)));
  C.addLower(0, Rational(BigInt(1), BigInt(2)));
  EXPECT_TRUE(C.isEmpty());
}

TEST(OctagonTest, EmptinessDetection) {
  Octagon A(1);
  A.addLower(0, Rational(1));
  A.addUpper(0, Rational(0));
  EXPECT_TRUE(A.isEmpty());

  // x + y <= 1 together with x + y >= 2.
  Octagon B(2);
  B.addPair(0, false, 1, false, Rational(1));
  B.addPair(0, true, 1, true, Rational(-2));
  EXPECT_TRUE(B.isEmpty());

  Octagon C(2);
  C.markEmpty();
  EXPECT_TRUE(C.isEmpty());
  EXPECT_EQ(C, Octagon::bottom(2));

  // Emptiness is absorbing for meet, neutral for join.
  Octagon Box(2);
  Box.addLower(0, Rational(0));
  Box.addUpper(0, Rational(2));
  EXPECT_TRUE(Box.meet(B).isEmpty());
  EXPECT_EQ(Box.join(B), Box);
}

TEST(OctagonTest, JoinIsExactPerConstraint) {
  // Two disjoint boxes; the join's canonical bounds must equal the max of
  // the operands' bounds, i.e. the enumerated max over the union.
  Octagon A(2);
  A.addLower(0, Rational(0));
  A.addUpper(0, Rational(2));
  A.addLower(1, Rational(0));
  A.addUpper(1, Rational(2));

  Octagon B(2);
  B.addLower(0, Rational(4));
  B.addUpper(0, Rational(6));
  B.addLower(1, Rational(1));
  B.addUpper(1, Rational(3));

  Octagon J = A.join(B);
  ASSERT_FALSE(J.isEmpty());

  std::vector<std::vector<Rational>> Union;
  for (const auto &P : boxPoints(2, 7)) {
    bool InEither = A.contains(P) || B.contains(P);
    if (InEither) {
      Union.push_back(P);
      // Join over-approximates the union...
      EXPECT_TRUE(J.contains(P));
    }
  }
  // ...and is exact constraint-by-constraint.
  checkAgainstEnumeration(J, Union, /*ExpectTight=*/true);

  EXPECT_EQ(J.boundOf(0), Interval::range(Rational(0), Rational(6)));
  EXPECT_EQ(J.boundOf(1), Interval::range(Rational(0), Rational(3)));
  // Relational fact the interval join cannot see: x - y <= 5 (attained at
  // (6, 1)), tighter than the unary-implied 6 - 0 = 6.
  EXPECT_EQ(J.pairUpper(0, false, 1, true), OctBound::of(Rational(5)));
}

TEST(OctagonTest, WideningDropsUnstableKeepsStable) {
  Octagon Prev(2);
  Prev.addLower(0, Rational(0));
  Prev.addUpper(0, Rational(3));
  Prev.addLower(1, Rational(0));
  Prev.addUpper(1, Rational(0));
  Prev.addPair(1, false, 0, true, Rational(0)); // y - x <= 0

  Octagon Next(2);
  Next.addLower(0, Rational(0));
  Next.addUpper(0, Rational(4)); // upper bound of x moved
  Next.addLower(1, Rational(0));
  Next.addUpper(1, Rational(0));
  Next.addPair(1, false, 0, true, Rational(0));

  Octagon W = Prev.widen(Prev.join(Next));
  // Widening over-approximates both iterates...
  for (const auto &P : boxPoints(2, 5))
    if (Prev.contains(P) || Next.contains(P)) {
      EXPECT_TRUE(W.contains(P));
    }
  // ...keeps every stable bound and drops the moving one.
  Interval X = W.boundOf(0);
  EXPECT_TRUE(X.hasLo());
  EXPECT_EQ(X.lo(), Rational(0));
  EXPECT_FALSE(X.hasHi());
  EXPECT_EQ(W.boundOf(1), Interval::range(Rational(0), Rational(0)));
  EXPECT_EQ(W.pairUpper(1, false, 0, true), OctBound::of(Rational(0)));

  // Nothing moved: widening is the identity.
  EXPECT_EQ(Prev.widen(Prev), Prev);
}

TEST(OctagonTest, ProjectionKeepsImpliedFacts) {
  // x = y + 1, y in [0, 3], z unconstrained: projecting away z keeps the
  // relation, projecting onto {x} keeps the implied bounds [1, 4].
  Octagon O(3);
  O.addPair(0, false, 1, true, Rational(1));  // x - y <= 1
  O.addPair(1, false, 0, true, Rational(-1)); // y - x <= -1
  O.addLower(1, Rational(0));
  O.addUpper(1, Rational(3));

  Octagon XY = O.project({0, 1});
  EXPECT_EQ(XY.pairUpper(0, false, 1, true), OctBound::of(Rational(1)));
  EXPECT_EQ(XY.pairUpper(1, false, 0, true), OctBound::of(Rational(-1)));
  EXPECT_EQ(XY.boundOf(0), Interval::range(Rational(1), Rational(4)));

  Octagon X = O.project({0});
  EXPECT_EQ(X.numVars(), 1u);
  EXPECT_EQ(X.boundOf(0), Interval::range(Rational(1), Rational(4)));
}

//===----------------------------------------------------------------------===//
// Octagon fixpoint: relational invariants beyond per-argument bounds
//===----------------------------------------------------------------------===//

/// `p(x, y)` starts on the diagonal x = y (unbounded!) and only ever grows
/// x. The query x >= y needs the relational fact y - x <= 0; per-argument
/// bounds see no finite bound anywhere, so they provably carry nothing.
constexpr const char *RelationalSystem = R"(
(set-logic HORN)
(declare-fun p (Int Int) Bool)
(assert (forall ((x Int) (y Int)) (=> (= x y) (p x y))))
(assert (forall ((x Int) (y Int) (x1 Int))
  (=> (and (p x y) (= x1 (+ x 1))) (p x1 y))))
(assert (forall ((x Int) (y Int)) (=> (p x y) (>= x y))))
)";

TEST(OctagonAnalysisTest, RelationalInvariantBeyondIntervals) {
  TermManager TM;
  ChcSystem System(TM);
  smtlib2::ParseResult P = smtlib2::parseSmtLib2(RelationalSystem, System);
  ASSERT_TRUE(P.Ok) << P.error();
  const Predicate *Pred = findPred(System, "p");

  AnalysisContext Ctx(System);

  // The unary rows provably learn nothing here: every argument stays
  // unbounded. The octagon domain keeps the diagonal fact y - x <= 0
  // through the loop.
  std::vector<OctagonState> OStates = runOctagonAnalysis(Ctx);
  ASSERT_TRUE(OStates[Pred->Index].Reachable);
  const PackedOctagon &O = OStates[Pred->Index].Value;
  EXPECT_TRUE(O.boundOf(0).isTop());
  EXPECT_TRUE(O.boundOf(1).isTop());
  EXPECT_EQ(O.pairUpper(1, false, 0, true), OctBound::of(Rational(0)));
  EXPECT_GE(OctagonDomain::relationalFactCount(O), 1u);

  const Term *Inv = octagonInvariant(TM, Pred, OStates[Pred->Index]);
  ASSERT_NE(Inv, nullptr);

  // The emitted candidate is inductive: it survives chc::checkClause.
  Interpretation Interp(TM);
  Interp.set(Pred, Inv);
  for (const HornClause &C : System.clauses())
    EXPECT_EQ(checkClause(System, C, Interp).Status, ClauseStatus::Valid)
        << C.Name;
}

TEST(OctagonAnalysisTest, PipelineDischargesRelationalQuery) {
  TermManager TM;
  ChcSystem System(TM);
  smtlib2::ParseResult P = smtlib2::parseSmtLib2(RelationalSystem, System);
  ASSERT_TRUE(P.Ok) << P.error();

  // No abstract domain: no invariant, no discharge.
  AnalysisOptions NoDomain;
  NoDomain.EnableOctagons = false;
  NoDomain.EnablePolyhedra = false;
  AnalysisResult RI = analyzeSystem(System, NoDomain);
  EXPECT_FALSE(RI.ProvedSat);
  EXPECT_TRUE(RI.Invariants.empty());
  EXPECT_EQ(RI.relationalFound(), 0u);

  // Full pipeline: the octagon invariant discharges the query statically.
  AnalysisResult R = analyzeSystem(System);
  EXPECT_TRUE(R.ProvedSat);
  EXPECT_FALSE(R.Invariants.empty());
  EXPECT_GE(R.relationalFound(), 1u);

  // End to end: zero CEGAR iterations with the analysis on.
  solver::DataDrivenChcSolver Solver;
  ChcSolverResult SR = Solver.solve(System);
  EXPECT_EQ(SR.Status, ChcResult::Sat);
  EXPECT_EQ(SR.Stats.Iterations, 0u);
  EXPECT_TRUE(Solver.detailedStats().SolvedByAnalysis);
  EXPECT_EQ(checkInterpretation(System, SR.Interp), ClauseStatus::Valid);
}

//===----------------------------------------------------------------------===//
// Full pipeline: verification, discharge, solver integration
//===----------------------------------------------------------------------===//

/// Every invariant the pipeline emits must already be inductive; this
/// re-proves them independently with chc::checkClause.
TEST(AnalysisTest, EmittedInvariantsAreInductive) {
  TermManager TM;
  ChcSystem System(TM);
  smtlib2::ParseResult P = smtlib2::parseSmtLib2(SlicingSystem, System);
  ASSERT_TRUE(P.Ok) << P.error();

  AnalysisResult R = analyzeSystem(System);
  EXPECT_FALSE(R.Invariants.empty());

  // The analysis annotates the inlined clone when the inline pass fired.
  const ChcSystem &Analyzed = R.Transformed ? *R.Transformed : System;
  Interpretation Interp(TM);
  for (const auto &[Pred, T] : R.Fixed)
    Interp.set(Pred, T);
  for (const auto &[Pred, T] : R.Invariants)
    Interp.set(Pred, T);
  for (const HornClause &C : Analyzed.clauses()) {
    if (!C.HeadPred)
      continue;
    EXPECT_EQ(checkClause(Analyzed, C, Interp).Status, ClauseStatus::Valid)
        << "non-inductive analysis output on clause " << C.Name;
  }
}

/// The bounded counter is provable by per-argument bounds alone: the
/// pipeline discharges the query and the solver returns Sat after zero CEGAR
/// iterations. With analysis off the same system needs real learning work.
TEST(AnalysisTest, BoundedCounterSolvedStatically) {
  constexpr const char *Text = R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (inv n))))
(assert (forall ((n Int) (m Int))
  (=> (and (inv n) (< n 10) (= m (+ n 1))) (inv m))))
(assert (forall ((n Int)) (=> (inv n) (<= n 10))))
)";

  // Analysis on: discharged statically.
  {
    TermManager TM;
    ChcSystem System(TM);
    smtlib2::ParseResult P = smtlib2::parseSmtLib2(Text, System);
    ASSERT_TRUE(P.Ok) << P.error();

    AnalysisResult A = analyzeSystem(System);
    EXPECT_TRUE(A.ProvedSat);
    EXPECT_GE(A.boundsFound(), 2u); // lower and upper bound on n

    solver::DataDrivenChcSolver Solver;
    ChcSolverResult R = Solver.solve(System);
    EXPECT_EQ(R.Status, ChcResult::Sat);
    EXPECT_EQ(R.Stats.Iterations, 0u);
    EXPECT_TRUE(Solver.detailedStats().SolvedByAnalysis);
    EXPECT_EQ(checkInterpretation(System, R.Interp), ClauseStatus::Valid);
  }

  // Analysis off: still Sat, but the CEGAR loop has to do the work.
  {
    TermManager TM;
    ChcSystem System(TM);
    smtlib2::ParseResult P = smtlib2::parseSmtLib2(Text, System);
    ASSERT_TRUE(P.Ok) << P.error();

    solver::DataDrivenOptions Opts;
    Opts.EnableAnalysis = false;
    Opts.Limits.WallSeconds = 60;
    solver::DataDrivenChcSolver Solver(Opts);
    ChcSolverResult R = Solver.solve(System);
    EXPECT_EQ(R.Status, ChcResult::Sat);
    EXPECT_GT(R.Stats.Iterations, 0u);
    EXPECT_FALSE(Solver.detailedStats().SolvedByAnalysis);
    EXPECT_EQ(checkInterpretation(System, R.Interp), ClauseStatus::Valid);
  }
}

/// End-to-end agreement on a system the analysis cannot discharge (Fig. 1 of
/// the paper needs the relational invariant x >= y that per-argument bounds
/// cannot express): both configurations must agree on Sat.
TEST(AnalysisTest, AnalysisOnOffAgreeOnFig1) {
  constexpr const char *Fig1 = R"(
(set-logic HORN)
(declare-fun p (Int Int) Bool)
(assert (forall ((x Int) (y Int))
  (=> (and (= x 1) (= y 0)) (p x y))))
(assert (forall ((x Int) (y Int) (x1 Int) (y1 Int))
  (=> (and (p x y) (= x1 (+ x y)) (= y1 (+ y 1))) (p x1 y1))))
(assert (forall ((x Int) (y Int)) (=> (p x y) (>= x y))))
)";
  for (bool Enable : {true, false}) {
    TermManager TM;
    ChcSystem System(TM);
    smtlib2::ParseResult P = smtlib2::parseSmtLib2(Fig1, System);
    ASSERT_TRUE(P.Ok) << P.error();

    solver::DataDrivenOptions Opts;
    Opts.EnableAnalysis = Enable;
    Opts.Limits.WallSeconds = 60;
    solver::DataDrivenChcSolver Solver(Opts);
    ChcSolverResult R = Solver.solve(System);
    EXPECT_EQ(R.Status, ChcResult::Sat) << "EnableAnalysis=" << Enable;
    EXPECT_EQ(checkInterpretation(System, R.Interp), ClauseStatus::Valid)
        << "EnableAnalysis=" << Enable;
  }
}

/// Unsafe systems must stay Unsat with a replayable counterexample whether
/// or not the pre-analysis runs (its pruning must never hide a refutation).
TEST(AnalysisTest, UnsafeSystemStillRefuted) {
  constexpr const char *Unsafe = R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (inv n))))
(assert (forall ((n Int) (m Int))
  (=> (and (inv n) (< n 10) (= m (+ n 1))) (inv m))))
(assert (forall ((n Int)) (=> (inv n) (<= n 5))))
)";
  for (bool Enable : {true, false}) {
    TermManager TM;
    ChcSystem System(TM);
    smtlib2::ParseResult P = smtlib2::parseSmtLib2(Unsafe, System);
    ASSERT_TRUE(P.Ok) << P.error();

    solver::DataDrivenOptions Opts;
    Opts.EnableAnalysis = Enable;
    Opts.Limits.WallSeconds = 60;
    solver::DataDrivenChcSolver Solver(Opts);
    ChcSolverResult R = Solver.solve(System);
    EXPECT_EQ(R.Status, ChcResult::Unsat) << "EnableAnalysis=" << Enable;
    ASSERT_TRUE(R.Cex.has_value());
    EXPECT_TRUE(validateCounterexample(System, *R.Cex));
  }
}

/// The per-pass statistics must cover the whole pipeline and account for the
/// SMT checks spent on verification.
TEST(AnalysisTest, PassStatisticsAreReported) {
  TermManager TM;
  ChcSystem System(TM);
  smtlib2::ParseResult P = smtlib2::parseSmtLib2(SlicingSystem, System);
  ASSERT_TRUE(P.Ok) << P.error();

  AnalysisResult R = analyzeSystem(System);
  ASSERT_EQ(R.Passes.size(), 6u);
  EXPECT_EQ(R.Passes[0].Name, "inline");
  EXPECT_EQ(R.Passes[1].Name, "fact-reach");
  EXPECT_EQ(R.Passes[2].Name, "query-cone");
  EXPECT_EQ(R.Passes[3].Name, "octagons");
  EXPECT_EQ(R.Passes[4].Name, "polyhedra");
  EXPECT_EQ(R.Passes[5].Name, "verify");
  EXPECT_EQ(R.Passes[0].PredicatesInlined, 1u);
  EXPECT_EQ(R.Passes[0].ClausesRemoved, 1u);
  EXPECT_GT(R.Passes[3].BoundsFound, 0u);
  EXPECT_GT(R.Passes[4].BoundsFound, 0u);
  EXPECT_GT(R.Passes[4].TemplatesMined, 0u);
  EXPECT_GT(R.Passes[5].SmtChecks, 0u);
  EXPECT_GT(R.smtChecks(), 0u);
  EXPECT_FALSE(R.report().empty());

  // Disabling every pass group yields the trivial result.
  AnalysisOptions Off;
  Off.EnableInlining = false;
  Off.EnableSlicing = false;
  Off.EnableOctagons = false;
  Off.EnablePolyhedra = false;
  AnalysisResult Trivial = analyzeSystem(System, Off);
  EXPECT_TRUE(Trivial.Transformed == nullptr);
  EXPECT_EQ(Trivial.clausesPruned(), 0u);
  EXPECT_TRUE(Trivial.Fixed.empty());
  EXPECT_TRUE(Trivial.Invariants.empty());
}

} // namespace
