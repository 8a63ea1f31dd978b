//===- tests/InlineTest.cpp - Clause inlining / pred elimination tests ----===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests of `analysis::inlineSystem` (candidate selection, residual
/// construction, witness back-translation) plus the corpus differential
/// suite: every sampled program must keep its verdict with inlining on and
/// off, and every back-translated model must re-verify clause by clause on
/// the *original* system.
///
//===----------------------------------------------------------------------===//

#include "analysis/InlinePass.h"
#include "corpus/Harness.h"
#include "frontend/Encoder.h"
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

smtlib2::ParseResult parse(const char *Text, ChcSystem &System) {
  return smtlib2::parseSmtLib2(Text, System);
}

/// `mid` and `out` form a chain off the loop invariant; only `mid` may be
/// inlined (`out` sits in the query body).
constexpr const char *ChainSystem = R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(declare-fun mid (Int) Bool)
(declare-fun out (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (inv n))))
(assert (forall ((n Int) (m Int))
  (=> (and (inv n) (< n 10) (= m (+ n 1))) (inv m))))
(assert (forall ((n Int) (a Int)) (=> (and (inv n) (= a (+ n 2))) (mid a))))
(assert (forall ((b Int) (c Int)) (=> (and (mid b) (= c (+ b 3))) (out c))))
(assert (forall ((c Int)) (=> (out c) (<= c 15))))
)";

TEST(InlineTest, SingleDefPredicateIsInlined) {
  TermManager TM;
  ChcSystem System(TM);
  ASSERT_TRUE(parse(ChainSystem, System).Ok);

  InlineResult R = inlineSystem(System);
  ASSERT_TRUE(R.System != nullptr);
  ASSERT_TRUE(R.Map != nullptr);

  const Predicate *Mid = findPred(System, "mid");
  const Predicate *Out = findPred(System, "out");
  EXPECT_TRUE(R.Map->Eliminated[Mid->Index]);
  EXPECT_FALSE(R.Map->Eliminated[Out->Index]); // query-body predicate
  EXPECT_EQ(R.Map->numEliminated(), 1u);
  // mid's defining clause dropped out of the system.
  EXPECT_EQ(R.System->clauses().size(), System.clauses().size() - 1);

  // The recorded definition depends on `inv` only, with a parameter-only
  // residual.
  const InlineDef &D = R.Map->Defs[R.Map->DefOf[Mid->Index]];
  EXPECT_EQ(D.Pred, Mid);
  ASSERT_EQ(D.Deps.size(), 1u);
  EXPECT_EQ(D.Deps[0].Pred->Name, "inv");
  ASSERT_TRUE(D.Residual != nullptr);
  for (const Term *V : TM.collectVars(D.Residual))
    EXPECT_EQ(V, Mid->Params[0]);

  // No transformed clause mentions mid.
  for (const HornClause &C : R.System->clauses()) {
    EXPECT_TRUE(!C.HeadPred || C.HeadPred->Pred->Name != "mid");
    for (const PredApp &App : C.Body)
      EXPECT_NE(App.Pred->Name, "mid");
  }
}

TEST(InlineTest, SelfRecursivePredicateIsNotInlined) {
  TermManager TM;
  ChcSystem System(TM);
  ASSERT_TRUE(parse(R"(
(set-logic HORN)
(declare-fun p (Int) Bool)
(assert (forall ((n Int)) (=> (and (p n) (< n 5)) (p (+ n 1)))))
(assert (forall ((n Int)) (=> (p n) (>= n 0))))
)",
                    System)
                  .Ok);
  InlineResult R = inlineSystem(System);
  EXPECT_TRUE(R.System == nullptr);
  EXPECT_TRUE(R.Map == nullptr);
}

TEST(InlineTest, SingleDefPredicateOnCycleThroughSurvivorIsInlined) {
  TermManager TM;
  ChcSystem System(TM);
  // `odd` has exactly one defining clause and sits on the even/odd cycle,
  // but the cycle runs through `even`, which survives (two defining
  // clauses). Unfolding `odd`'s sole definition at its sole use is plain
  // resolution and stays sound; the collapsed system steps `even` by 2.
  ASSERT_TRUE(parse(R"(
(set-logic HORN)
(declare-fun even (Int) Bool)
(declare-fun odd (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (even n))))
(assert (forall ((n Int)) (=> (even n) (odd (+ n 1)))))
(assert (forall ((n Int)) (=> (odd n) (even (+ n 1)))))
(assert (forall ((n Int)) (=> (even n) (>= n 0))))
)",
                    System)
                  .Ok);
  InlineResult R = inlineSystem(System);
  ASSERT_NE(R.System, nullptr);
  EXPECT_EQ(R.Map->numEliminated(), 1u);
  for (const HornClause &C : R.System->clauses()) {
    EXPECT_TRUE(!C.HeadPred || C.HeadPred->Pred->Name != "odd");
    for (const PredApp &App : C.Body)
      EXPECT_NE(App.Pred->Name, "odd");
  }
}

TEST(InlineTest, MutuallyRecursiveCandidatesAreNotInlined) {
  TermManager TM;
  ChcSystem System(TM);
  // `p` and `q` each have exactly one defining clause and define each
  // other — a cycle entirely within the candidate set admits no
  // processing order, so both must be dropped. `r` is query-anchored.
  ASSERT_TRUE(parse(R"(
(set-logic HORN)
(declare-fun p (Int) Bool)
(declare-fun q (Int) Bool)
(declare-fun r (Int) Bool)
(assert (forall ((n Int)) (=> (and (q n) (< n 10)) (p (+ n 1)))))
(assert (forall ((n Int)) (=> (p n) (q (+ n 1)))))
(assert (forall ((n Int)) (=> (p n) (r n))))
(assert (forall ((n Int)) (=> (r n) (>= n 0))))
)",
                    System)
                  .Ok);
  InlineResult R = inlineSystem(System);
  EXPECT_TRUE(R.System == nullptr);
  EXPECT_TRUE(R.Map == nullptr);
}

TEST(InlineTest, QueryBodyPredicateIsNotInlined) {
  TermManager TM;
  ChcSystem System(TM);
  ASSERT_TRUE(parse(R"(
(set-logic HORN)
(declare-fun p (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (p n))))
(assert (forall ((n Int)) (=> (p n) (>= n 0))))
)",
                    System)
                  .Ok);
  InlineResult R = inlineSystem(System);
  EXPECT_TRUE(R.System == nullptr);
  EXPECT_TRUE(R.Map == nullptr);
}

TEST(InlineTest, MultiDefinitionPredicateIsNotInlined) {
  TermManager TM;
  ChcSystem System(TM);
  // `p` has two defining clauses; `q` is single-definition but appears in
  // the query body. Nothing may be inlined.
  ASSERT_TRUE(parse(R"(
(set-logic HORN)
(declare-fun p (Int) Bool)
(declare-fun q (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (p n))))
(assert (forall ((n Int)) (=> (= n 1) (p n))))
(assert (forall ((n Int)) (=> (p n) (q n))))
(assert (forall ((n Int)) (=> (q n) (>= n 0))))
)",
                    System)
                  .Ok);
  InlineResult R = inlineSystem(System);
  EXPECT_TRUE(R.System == nullptr);
  EXPECT_TRUE(R.Map == nullptr);
}

TEST(InlineTest, FloatingConjunctIsDroppedWhenSatisfiable) {
  TermManager TM;
  ChcSystem System(TM);
  // `k` is not determined by p's parameter, but `k >= 0` is satisfiable on
  // its own, so it factors out of the implicit existential.
  ASSERT_TRUE(parse(R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(declare-fun p (Int) Bool)
(declare-fun q (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (inv n))))
(assert (forall ((n Int) (m Int))
  (=> (and (inv n) (< n 4) (= m (+ n 1))) (inv m))))
(assert (forall ((n Int) (a Int) (k Int))
  (=> (and (inv n) (>= k 0) (= a (+ n 1))) (p a))))
(assert (forall ((b Int)) (=> (p b) (q b))))
(assert (forall ((b Int)) (=> (q b) (<= b 5))))
)",
                    System)
                  .Ok);
  size_t Checks = 0;
  InlineResult R = inlineSystem(System, {}, &Checks);
  ASSERT_TRUE(R.Map != nullptr);
  EXPECT_TRUE(R.Map->Eliminated[findPred(System, "p")->Index]);
  EXPECT_EQ(Checks, 1u); // one satisfiability check for the floating part
}

TEST(InlineTest, UnsatisfiableFloatingConjunctBlocksInlining) {
  TermManager TM;
  ChcSystem System(TM);
  // Dropping `k >= 0 /\ k <= -1` would *weaken* the definition (the body is
  // unsatisfiable), so p must not be inlined.
  ASSERT_TRUE(parse(R"(
(set-logic HORN)
(declare-fun p (Int) Bool)
(declare-fun q (Int) Bool)
(assert (forall ((a Int) (k Int))
  (=> (and (>= k 0) (<= k (- 1)) (= a 0)) (p a))))
(assert (forall ((b Int)) (=> (p b) (q b))))
(assert (forall ((b Int)) (=> (q b) (<= b 5))))
)",
                    System)
                  .Ok);
  InlineResult R = inlineSystem(System);
  if (R.Map) {
    EXPECT_FALSE(R.Map->Eliminated[findPred(System, "p")->Index]);
  }
}

/// Chains collapse transitively: `mid` is inlined into `out`'s definition
/// before `out` itself is considered, so the surviving deps only mention
/// surviving predicates.
TEST(InlineTest, ChainsCollapseTransitively) {
  TermManager TM;
  ChcSystem System(TM);
  ASSERT_TRUE(parse(R"(
(set-logic HORN)
(declare-fun inv (Int) Bool)
(declare-fun mid (Int) Bool)
(declare-fun out (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (inv n))))
(assert (forall ((n Int) (m Int))
  (=> (and (inv n) (< n 10) (= m (+ n 1))) (inv m))))
(assert (forall ((n Int) (a Int)) (=> (and (inv n) (= a (+ n 2))) (mid a))))
(assert (forall ((b Int) (c Int)) (=> (and (mid b) (= c (+ b 3))) (out c))))
(assert (forall ((d Int) (e Int)) (=> (and (out d) (= e d)) (<= e 15))))
)",
                    System)
                  .Ok);
  InlineResult R = inlineSystem(System);
  ASSERT_TRUE(R.Map != nullptr);
  EXPECT_TRUE(R.Map->Eliminated[findPred(System, "mid")->Index]);
  // `out` is in the query body here, so it survives; its transformed
  // definition must reference `inv` directly.
  EXPECT_FALSE(R.Map->Eliminated[findPred(System, "out")->Index]);
  bool SawInvInOutDef = false;
  for (const HornClause &C : R.System->clauses()) {
    if (!C.HeadPred || C.HeadPred->Pred->Name != "out")
      continue;
    for (const PredApp &App : C.Body) {
      EXPECT_EQ(App.Pred->Name, "inv");
      SawInvInOutDef = true;
    }
  }
  EXPECT_TRUE(SawInvInOutDef);
  // Recorded deps of every definition mention surviving predicates only.
  for (const InlineDef &D : R.Map->Defs)
    for (const PredApp &Dep : D.Deps)
      EXPECT_FALSE(R.Map->Eliminated[Dep.Pred->Index]);
}

TEST(InlineTest, BackTranslatedModelCoversEliminatedPredicates) {
  TermManager TM;
  ChcSystem System(TM);
  ASSERT_TRUE(parse(ChainSystem, System).Ok);

  solver::DataDrivenOptions Opts;
  Opts.Limits.WallSeconds = 60;
  solver::DataDrivenChcSolver Solver(Opts);
  ChcSolverResult R = Solver.solve(System);
  ASSERT_EQ(R.Status, ChcResult::Sat);
  EXPECT_GE(Solver.detailedStats().PredicatesInlined, 1u);

  // The eliminated predicate received a back-translated interpretation and
  // the whole model re-verifies clause by clause on the original system.
  const Predicate *Mid = findPred(System, "mid");
  EXPECT_TRUE(R.Interp.get(Mid) != nullptr);
  ClauseCheckContext Checker(System);
  EXPECT_EQ(Checker.checkAll(R.Interp), ClauseStatus::Valid);
}

TEST(InlineTest, CexBackTranslationRematerializesEliminatedNodes) {
  TermManager TM;
  ChcSystem System(TM);
  // `base` is eliminated but sits on the refutation's derivation path: the
  // back-translated counterexample must re-materialize its node.
  ASSERT_TRUE(parse(R"(
(set-logic HORN)
(declare-fun base (Int) Bool)
(declare-fun inv (Int) Bool)
(assert (forall ((n Int)) (=> (= n 0) (base n))))
(assert (forall ((n Int) (m Int)) (=> (and (base n) (= m (+ n 1))) (inv m))))
(assert (forall ((n Int) (m Int))
  (=> (and (inv n) (< n 3) (= m (+ n 1))) (inv m))))
(assert (forall ((n Int)) (=> (inv n) (<= n 1))))
)",
                    System)
                  .Ok);

  // Sanity: the transformation fires on `base`.
  InlineResult I = inlineSystem(System);
  ASSERT_TRUE(I.Map != nullptr);
  EXPECT_TRUE(I.Map->Eliminated[findPred(System, "base")->Index]);

  solver::DataDrivenOptions Opts;
  Opts.Limits.WallSeconds = 60;
  solver::DataDrivenChcSolver Solver(Opts);
  ChcSolverResult R = Solver.solve(System);
  ASSERT_EQ(R.Status, ChcResult::Unsat);
  ASSERT_TRUE(R.Cex.has_value());
  EXPECT_TRUE(validateCounterexample(System, *R.Cex));
  bool SawBase = false;
  for (const Counterexample::Node &N : R.Cex->Nodes)
    SawBase |= N.Pred->Name == "base";
  EXPECT_TRUE(SawBase);
}

//===----------------------------------------------------------------------===//
// Corpus coverage and differential suite
//===----------------------------------------------------------------------===//

/// The pass must fire broadly: at least 10 bundled corpus programs lose at
/// least one predicate (ISSUE acceptance bar).
TEST(InlineCorpusTest, EliminatesPredicatesAcrossTheCorpus) {
  size_t ProgramsWithElimination = 0;
  for (const corpus::BenchmarkProgram &P : corpus::allPrograms()) {
    TermManager TM;
    ChcSystem System(TM);
    frontend::EncodeResult E = frontend::encodeMiniC(P.Source, System);
    ASSERT_TRUE(E.Ok) << P.Name << ": " << E.Error;
    InlineResult R = inlineSystem(System);
    if (R.Map && R.Map->numEliminated() >= 1) {
      ++ProgramsWithElimination;
      EXPECT_LT(R.System->clauses().size(), System.clauses().size())
          << P.Name;
    }
  }
  EXPECT_GE(ProgramsWithElimination, 10u);
}

/// Differential: sampled programs keep their verdict with inlining on and
/// off; Sat models re-verify clause by clause on the original system and
/// Unsat witnesses replay on it.
TEST(InlineCorpusTest, DifferentialVerdictsAndWitnesses) {
  const char *Sample[] = {
      "paper_fig1",       "paper_fig3_a",       "rec_sum",
      "gen_counter_b5_s1", "gen_counter_b5_s1_bug", "mod_even_counter",
      "lit_updown_unsafe", "gen_relation_a2_b1",
  };
  for (const char *Name : Sample) {
    const corpus::BenchmarkProgram *P = corpus::find(Name);
    ASSERT_NE(P, nullptr) << Name;
    for (bool Inline : {true, false}) {
      TermManager TM;
      ChcSystem System(TM);
      frontend::EncodeResult E = frontend::encodeMiniC(P->Source, System);
      ASSERT_TRUE(E.Ok) << Name << ": " << E.Error;

      solver::DataDrivenOptions Opts = corpus::defaultOptionsFor(*P, 60);
      Opts.Analysis.EnableInlining = Inline;
      solver::DataDrivenChcSolver Solver(Opts);
      ChcSolverResult R = Solver.solve(System);
      EXPECT_EQ(R.Status,
                P->ExpectedSafe ? ChcResult::Sat : ChcResult::Unsat)
          << Name << " inline=" << Inline;
      if (R.Status == ChcResult::Sat) {
        ClauseCheckContext Checker(System);
        EXPECT_EQ(Checker.checkAll(R.Interp), ClauseStatus::Valid)
            << Name << " inline=" << Inline;
      } else if (R.Status == ChcResult::Unsat) {
        ASSERT_TRUE(R.Cex.has_value()) << Name << " inline=" << Inline;
        EXPECT_TRUE(validateCounterexample(System, *R.Cex))
            << Name << " inline=" << Inline;
      }
    }
  }
}

} // namespace
