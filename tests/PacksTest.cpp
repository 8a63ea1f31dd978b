//===- tests/PacksTest.cpp - Variable-pack decomposition tests ------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Covers the pack-decomposition layer (DESIGN.md §13): the interaction-graph
// partition, the pack-size cap boundaries, the PackedOctagon lattice, the
// packed-vs-monolithic differential, cooperative cancellation inside the
// per-pack transfer, the memoized transfer cache, and the `gen_elevator_*`
// scalability regression that motivated the layer.
//
//===----------------------------------------------------------------------===//

#include "analysis/OctagonAnalysis.h"
#include "analysis/PassManager.h"
#include "analysis/VariablePacks.h"
#include "corpus/Corpus.h"
#include "frontend/Encoder.h"
#include "smtlib2/Parser.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>

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

/// `p(a, b, c, d)` with two independent variable groups: the clauses relate
/// a with b and c with d but never couple the groups, so the decomposition
/// must split the positions into the packs {0,1} and {2,3}.
constexpr const char *TwoGroupSystem = R"(
(set-logic HORN)
(declare-fun p (Int Int Int Int) Bool)
(assert (forall ((a Int) (c Int)) (=> (and (= a 0) (= c 0)) (p a a c c))))
(assert (forall ((a Int) (b Int) (c Int) (d Int) (a1 Int) (c1 Int))
  (=> (and (p a b c d) (= a1 (+ a 1)) (= c1 (+ c 2))) (p a1 b c1 d))))
(assert (forall ((a Int) (b Int) (c Int) (d Int)) (=> (p a b c d) (>= a b))))
)";

/// Same arity, but the query relates a with d, transitively coupling every
/// position into one class.
constexpr const char *CoupledSystem = R"(
(set-logic HORN)
(declare-fun p (Int Int Int Int) Bool)
(assert (forall ((a Int) (c Int)) (=> (and (= a 0) (= c 0)) (p a a c c))))
(assert (forall ((a Int) (b Int) (c Int) (d Int) (a1 Int) (c1 Int))
  (=> (and (p a b c d) (= a1 (+ a 1)) (= c1 (+ c 2))) (p a1 b c1 d))))
(assert (forall ((a Int) (b Int) (c Int) (d Int))
  (=> (and (p a b c d) (>= b d)) (>= a c))))
)";

/// The Fig.-1-shaped loop whose query needs the relational fact y - x <= 0
/// (also used by AnalysisTest); here it drives the packed/monolithic
/// differential and the transfer cache.
constexpr const char *RelationalSystem = R"(
(set-logic HORN)
(declare-fun p (Int Int) Bool)
(assert (forall ((x Int) (y Int)) (=> (= x y) (p x y))))
(assert (forall ((x Int) (y Int) (x1 Int))
  (=> (and (p x y) (= x1 (+ x 1))) (p x1 y))))
(assert (forall ((x Int) (y Int)) (=> (p x y) (>= x y))))
)";

void parse(const char *Text, ChcSystem &System) {
  smtlib2::ParseResult P = smtlib2::parseSmtLib2(Text, System);
  ASSERT_TRUE(P.Ok) << P.error();
}

//===----------------------------------------------------------------------===//
// Pack decomposition shape
//===----------------------------------------------------------------------===//

TEST(PackDecompositionTest, IndependentGroupsSplit) {
  TermManager TM;
  ChcSystem System(TM);
  parse(TwoGroupSystem, System);
  const Predicate *P = findPred(System, "p");
  ASSERT_NE(P, nullptr);

  PackDecomposition D = computePackDecomposition(System, {}, {});
  const PredPacks &Packs = *D.Preds[P->Index];
  ASSERT_EQ(Packs.Arity, 4u);
  EXPECT_EQ(Packs.packCount(), 2u);
  EXPECT_EQ(Packs.PackOf[0], Packs.PackOf[1]);
  EXPECT_EQ(Packs.PackOf[2], Packs.PackOf[3]);
  EXPECT_NE(Packs.PackOf[0], Packs.PackOf[2]);
  // Deterministic layout: packs ordered by smallest member, sorted members.
  EXPECT_EQ(Packs.Packs[0], (std::vector<size_t>{0, 1}));
  EXPECT_EQ(Packs.Packs[1], (std::vector<size_t>{2, 3}));
  EXPECT_EQ(D.LargestPack, 2u);
}

TEST(PackDecompositionTest, QueryCouplingMergesGroups) {
  TermManager TM;
  ChcSystem System(TM);
  parse(CoupledSystem, System);
  const Predicate *P = findPred(System, "p");

  // The query atom `a >= c` (with guard `b >= d`) couples the two groups;
  // query conclusions live in HeadFormula and must shape the packs.
  PackDecomposition D = computePackDecomposition(System, {}, {});
  EXPECT_EQ(D.Preds[P->Index]->packCount(), 1u);
  EXPECT_EQ(D.LargestPack, 4u);
}

TEST(PackDecompositionTest, PackCapBoundaries) {
  TermManager TM;
  ChcSystem System(TM);
  parse(CoupledSystem, System);
  const Predicate *P = findPred(System, "p");

  // Cap 1: every merge would exceed the cap, so all packs stay singletons.
  PackingOptions Tiny;
  Tiny.MaxPackSize = 1;
  PackDecomposition DT = computePackDecomposition(System, {}, Tiny);
  EXPECT_EQ(DT.Preds[P->Index]->packCount(), 4u);
  EXPECT_EQ(DT.LargestPack, 1u);

  // Cap 2 on a fully coupled predicate: merges stop at pairs; no pack may
  // exceed the cap even though the interaction graph is one component.
  PackingOptions Pair;
  Pair.MaxPackSize = 2;
  PackDecomposition DP = computePackDecomposition(System, {}, Pair);
  EXPECT_LE(DP.LargestPack, 2u);
  EXPECT_GE(DP.Preds[P->Index]->packCount(), 2u);

  // A huge cap reproduces the unconstrained decomposition.
  PackingOptions Huge;
  Huge.MaxPackSize = 64;
  PackDecomposition DH = computePackDecomposition(System, {}, Huge);
  EXPECT_EQ(DH.Preds[P->Index]->packCount(), 1u);

  // Packing disabled: one monolithic pack regardless of interaction.
  PackingOptions Off;
  Off.Enable = false;
  PackDecomposition DO = computePackDecomposition(System, {}, Off);
  EXPECT_EQ(DO.Preds[P->Index]->packCount(), 1u);
  EXPECT_EQ(DO.LargestPack, 4u);
}

//===----------------------------------------------------------------------===//
// PackedOctagon lattice
//===----------------------------------------------------------------------===//

TEST(PackedOctagonTest, LatticeOpsArePackWise) {
  std::shared_ptr<const PredPacks> Layout = PredPacks::uniform(4, 2);
  ASSERT_EQ(Layout->packCount(), 2u);

  PackedOctagon Top = PackedOctagon::top(Layout);
  PackedOctagon Bot = PackedOctagon::bottom(Layout);
  EXPECT_TRUE(Top.isTop());
  EXPECT_FALSE(Top.isEmpty());
  EXPECT_TRUE(Bot.isEmpty());
  EXPECT_EQ(Top.join(Bot), Top);
  EXPECT_EQ(Top.meet(Bot), Bot);

  PackedOctagon A = Top;
  A.pack(0).addLower(0, Rational(0));
  A.pack(0).addUpper(0, Rational(5));
  A.pack(0).addPair(0, false, 1, true, Rational(1)); // x0 - x1 <= 1
  A.pack(1).addLower(0, Rational(2));                // global position 2
  EXPECT_EQ(A.boundOf(0), Interval::range(Rational(0), Rational(5)));
  EXPECT_EQ(A.boundOf(2), Interval::atLeast(Rational(2)));
  EXPECT_EQ(A.pairUpper(0, false, 1, true), OctBound::of(Rational(1)));
  // Cross-pack pairs are exactly the information packing gives up.
  EXPECT_EQ(A.pairUpper(0, false, 2, true), OctBound::inf());

  PackedOctagon B = Top;
  B.pack(0).addLower(0, Rational(3));
  B.pack(0).addUpper(0, Rational(9));
  PackedOctagon J = A.join(B);
  EXPECT_EQ(J.boundOf(0), Interval::range(Rational(0), Rational(9)));
  // The join in pack 1 loses A's lower bound (B is top there).
  EXPECT_TRUE(J.boundOf(2).isTop());

  // Widening drops the unstable upper bound but keeps the stable lower one.
  PackedOctagon W = A.widen(J);
  EXPECT_TRUE(W.boundOf(0).hasLo());
  EXPECT_FALSE(W.boundOf(0).hasHi());

  // Two empty values compare equal regardless of which pack collapsed.
  PackedOctagon E1 = Top;
  E1.pack(0).addLower(0, Rational(1));
  E1.pack(0).addUpper(0, Rational(0));
  PackedOctagon E2 = Top;
  E2.pack(1).addLower(1, Rational(4));
  E2.pack(1).addUpper(1, Rational(2));
  EXPECT_TRUE(E1.isEmpty());
  EXPECT_TRUE(E2.isEmpty());
  EXPECT_EQ(E1, E2);
  EXPECT_EQ(E1, Bot);
}

//===----------------------------------------------------------------------===//
// Packed vs monolithic differential
//===----------------------------------------------------------------------===//

TEST(PacksDifferentialTest, StateMatchesMonolithicWithinPacks) {
  TermManager TM;
  ChcSystem System(TM);
  parse(TwoGroupSystem, System);
  const Predicate *P = findPred(System, "p");

  AnalysisOptions Packed;
  AnalysisContext CtxP(System, Packed);
  std::vector<OctagonState> SP = runOctagonAnalysis(CtxP);

  AnalysisOptions Mono;
  Mono.Packs.Enable = false;
  AnalysisContext CtxM(System, Mono);
  std::vector<OctagonState> SM = runOctagonAnalysis(CtxM);

  ASSERT_TRUE(SP[P->Index].Reachable);
  ASSERT_TRUE(SM[P->Index].Reachable);
  const PackedOctagon &OP = SP[P->Index].Value;
  const PackedOctagon &OM = SM[P->Index].Value;

  // Unary bounds agree exactly; pairwise bounds agree within a pack and may
  // only be weaker (never tighter -- that would be unsound) across packs.
  const PredPacks *Layout = OP.layout();
  for (size_t I = 0; I < 4; ++I)
    EXPECT_EQ(OP.boundOf(I), OM.boundOf(I)) << "position " << I;
  for (size_t I = 0; I < 4; ++I)
    for (size_t J = 0; J < 4; ++J) {
      if (I == J)
        continue;
      for (int Signs = 0; Signs < 4; ++Signs) {
        bool NegI = Signs & 1, NegJ = Signs & 2;
        OctBound BP = OP.pairUpper(I, NegI, J, NegJ);
        OctBound BM = OM.pairUpper(I, NegI, J, NegJ);
        if (Layout->PackOf[I] == Layout->PackOf[J])
          EXPECT_EQ(BP, BM) << I << "," << J << " signs " << Signs;
        else
          EXPECT_TRUE(BM <= BP) << I << "," << J << " signs " << Signs;
      }
    }
}

TEST(PacksDifferentialTest, PipelineVerdictMatchesMonolithic) {
  TermManager TM;
  ChcSystem System(TM);
  parse(RelationalSystem, System);

  AnalysisResult RP = analyzeSystem(System);
  AnalysisOptions Mono;
  Mono.Packs.Enable = false;
  AnalysisResult RM = analyzeSystem(System, Mono);

  EXPECT_TRUE(RP.ProvedSat);
  EXPECT_TRUE(RM.ProvedSat);
  EXPECT_GE(RP.relationalFound(), 1u);
  EXPECT_EQ(RP.relationalFound(), RM.relationalFound());
}

//===----------------------------------------------------------------------===//
// Cancellation and the transfer cache
//===----------------------------------------------------------------------===//

TEST(PacksTest, PreTrippedCancellationSkipsMemoization) {
  TermManager TM;
  ChcSystem System(TM);
  parse(RelationalSystem, System);

  AnalysisOptions Opts;
  auto Token = std::make_shared<CancellationToken>();
  Token->cancel();
  Opts.Smt.Cancel = Token;
  AnalysisContext Ctx(System, Opts);
  std::vector<OctagonState> States = runOctagonAnalysis(Ctx);

  // The fixpoint must return promptly and, critically, never memoize a
  // transfer that may have been cut short mid-closure: a truncated octagon
  // replayed later would silently lose precision across the whole run.
  EXPECT_TRUE(Ctx.OctXfer.Map.empty());
  EXPECT_EQ(Ctx.OctXfer.Hits, 0u);
}

TEST(PacksTest, TransferCacheHitsAcrossSweeps) {
  TermManager TM;
  ChcSystem System(TM);
  parse(RelationalSystem, System);

  AnalysisContext Ctx(System);
  std::vector<OctagonState> States = runOctagonAnalysis(Ctx);
  const Predicate *P = findPred(System, "p");
  ASSERT_TRUE(States[P->Index].Reachable);

  // The widening/stabilization sweeps revisit clauses whose inputs did not
  // change; those replays must come from the memo table.
  EXPECT_GT(Ctx.OctXfer.Misses, 0u);
  EXPECT_GT(Ctx.OctXfer.Hits, 0u);
}

//===----------------------------------------------------------------------===//
// gen_elevator scalability regression
//===----------------------------------------------------------------------===//

/// Runs the full pipeline on one generated elevator program. These are the
/// wide-clause programs (hundreds of SSA dimensions in one clause) that a
/// monolithic octagon cannot finish within any of these budgets; the packed
/// domain must produce verified relational facts without tripping the
/// analysis deadline.
AnalysisResult analyzeElevator(const char *Name, double Seconds,
                               ChcSystem &System) {
  const corpus::BenchmarkProgram *Prog = corpus::find(Name);
  EXPECT_NE(Prog, nullptr) << Name;
  frontend::EncodeResult E = frontend::encodeMiniC(Prog->Source, System);
  EXPECT_TRUE(E.Ok) << E.Error;
  AnalysisOptions Opts;
  Opts.TimeoutSeconds = Seconds;
  // Mirror corpus::defaultOptionsFor: the f48 verify pass has one genuinely
  // hard conjunct (the relational fact over the 96-branch Or cascade) that
  // sits near the default 10s per-check budget; give each check half the
  // wall budget so the test probes the packing layer, not SMT jitter.
  Opts.Smt.TimeoutSeconds = std::max(Opts.Smt.TimeoutSeconds, Seconds / 2);
  return analyzeSystem(System, Opts);
}

TEST(ElevatorRegressionTest, F16RelationalFactsWithinBudget) {
  TermManager TM;
  ChcSystem System(TM);
  AnalysisResult R = analyzeElevator("gen_elevator_f16", 30.0, System);
  EXPECT_FALSE(R.TimedOut);
  EXPECT_GE(R.relationalFound(), 1u);
  EXPECT_TRUE(R.ProvedSat);
}

TEST(ElevatorRegressionTest, F48RelationalFactsWithinBudget) {
  TermManager TM;
  ChcSystem System(TM);
  AnalysisResult R = analyzeElevator("gen_elevator_f48", 60.0, System);
  EXPECT_FALSE(R.TimedOut);
  EXPECT_GE(R.relationalFound(), 1u);
}

/// The analysis time cap binds every pass, the SMT checks of the verify
/// pass included: f48's verify pass runs for over a second, so a pipeline
/// capped at 0.5 s must cut it short instead of letting each check run to
/// the default 10 s per-check clock. The slack covers sanitizer builds.
TEST(ElevatorRegressionTest, F48AnalysisEndsAtItsCap) {
  TermManager TM;
  ChcSystem System(TM);
  const corpus::BenchmarkProgram *Prog = corpus::find("gen_elevator_f48");
  ASSERT_NE(Prog, nullptr);
  ASSERT_TRUE(frontend::encodeMiniC(Prog->Source, System).Ok);
  AnalysisOptions Opts;
  Opts.TimeoutSeconds = 0.5;
  Timer Watch;
  AnalysisResult R = analyzeSystem(System, Opts);
  EXPECT_LT(Watch.elapsedSeconds(), 0.75);
  EXPECT_TRUE(R.TimedOut);
}

} // namespace
