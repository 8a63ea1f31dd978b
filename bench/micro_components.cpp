//===- bench/micro_components.cpp --------------------------------------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
// google-benchmark microbenchmarks for the substrate components: exact
// arithmetic, simplex, the SMT solver, the learners and the decision tree.
// These support the evaluation (no paper counterpart): they document where
// the verification time goes.
//
//===----------------------------------------------------------------------===//

#include "analysis/Octagon.h"
#include "analysis/PassManager.h"
#include "analysis/VariablePacks.h"
#include "ml/Learn.h"
#include "ml/Svm.h"
#include "smt/SmtSolver.h"
#include "smtlib2/Parser.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

using namespace la;

static void BM_BigIntMulDiv(benchmark::State &State) {
  BigInt A = *BigInt::fromString("123456789123456789123456789123456789");
  BigInt B = *BigInt::fromString("987654321987654321");
  for (auto _ : State) {
    BigInt C = A * B;
    benchmark::DoNotOptimize(C.divMod(B));
  }
}
BENCHMARK(BM_BigIntMulDiv);

static void BM_RationalArithmetic(benchmark::State &State) {
  Rational A(BigInt(355), BigInt(113));
  Rational B(BigInt(-22), BigInt(7));
  for (auto _ : State) {
    Rational C = A * B + A - B;
    benchmark::DoNotOptimize(C / A);
  }
}
BENCHMARK(BM_RationalArithmetic);

/// The scalar step of Octagon::close on the integer bounds that dominate
/// it: sum two single-digit entries, compare against the current one and
/// keep the smaller, then halve-and-compare as the strengthening step does.
static void BM_RationalSmallIntegers(benchmark::State &State) {
  Rational PK(3), KQ(-7), PQ(5), Unary(8);
  for (auto _ : State) {
    Rational Via = PK + KQ;
    Rational Kept = Via < PQ ? Via : PQ;
    Rational Doubled = Unary * Rational(2);
    benchmark::DoNotOptimize(Kept.compare(Doubled));
  }
}
BENCHMARK(BM_RationalSmallIntegers);

/// Simplex feasibility on a random bounded system of the size a CHC VC has.
static void BM_SimplexCheck(benchmark::State &State) {
  const int NumVars = static_cast<int>(State.range(0));
  for (auto _ : State) {
    Random Rng(42);
    smt::Simplex Splx;
    std::vector<smt::Simplex::VarId> Vars;
    for (int I = 0; I < NumVars; ++I)
      Vars.push_back(Splx.addVar());
    // Random difference constraints.
    for (int I = 0; I < NumVars * 2; ++I) {
      smt::Simplex::VarId A = Vars[Rng.nextBounded(Vars.size())];
      smt::Simplex::VarId B = Vars[Rng.nextBounded(Vars.size())];
      if (A == B)
        continue;
      smt::Simplex::VarId S =
          Splx.addDefinedVar({{A, Rational(1)}, {B, Rational(-1)}});
      smt::Simplex::BoundUndo Undo;
      (void)Splx.assertBound(S, false,
                             DeltaRational(Rational(Rng.nextInRange(0, 10))),
                             I, Undo);
    }
    benchmark::DoNotOptimize(Splx.check());
  }
}
BENCHMARK(BM_SimplexCheck)->Arg(8)->Arg(32);

/// A full SMT check of a Fig.1-style verification condition.
static void BM_SmtVerificationCondition(benchmark::State &State) {
  for (auto _ : State) {
    TermManager TM;
    const Term *X = TM.mkVar("x"), *Y = TM.mkVar("y");
    const Term *X2 = TM.mkVar("x2"), *Y2 = TM.mkVar("y2");
    const Term *Inv = TM.mkAnd(TM.mkGe(X, TM.mkIntConst(1)),
                               TM.mkGe(Y, TM.mkIntConst(0)));
    const Term *InvPost = TM.mkAnd(TM.mkGe(X2, TM.mkIntConst(1)),
                                   TM.mkGe(Y2, TM.mkIntConst(0)));
    smt::SmtSolver Solver(TM);
    Solver.assertFormula(TM.mkAnd(
        {Inv, TM.mkEq(X2, TM.mkAdd(X, Y)),
         TM.mkEq(Y2, TM.mkAdd(Y, TM.mkIntConst(1))), TM.mkNot(InvPost)}));
    benchmark::DoNotOptimize(Solver.check());
  }
}
BENCHMARK(BM_SmtVerificationCondition);

/// The CEGAR-shaped workload of the incremental backend: one clause skeleton
/// checked against a chain of candidate invariants. Arg(0) = one-shot (fresh
/// solver per candidate, the pre-incremental behaviour), Arg(1) = incremental
/// (persistent solver, push/assert/check/pop per candidate). The `pivots`
/// counter exposes the simplex work: the incremental arm sets up the skeleton
/// tableau once and keeps its bounds, so it must pivot far less.
static void BM_IncrementalVsOneShot(benchmark::State &State) {
  const bool Incremental = State.range(0) != 0;
  const int NumCandidates = 24;
  for (auto _ : State) {
    TermManager TM;
    const Term *X = TM.mkVar("x"), *Y = TM.mkVar("y");
    const Term *X2 = TM.mkVar("x2"), *Y2 = TM.mkVar("y2");
    // Step clause body of Fig. 1: x' = x + y, y' = y + 1.
    const Term *Skeleton =
        TM.mkAnd(TM.mkEq(X2, TM.mkAdd(X, Y)),
                 TM.mkEq(Y2, TM.mkAdd(Y, TM.mkIntConst(1))));
    // Candidate K: x >= 1 /\ y >= 0 /\ x + K >= K*y (a strengthening chain
    // like the learner's successive half-space refinements).
    auto Candidate = [&](int K, const Term *A, const Term *B) {
      return TM.mkAnd({TM.mkGe(A, TM.mkIntConst(1)),
                       TM.mkGe(B, TM.mkIntConst(0)),
                       TM.mkGe(TM.mkAdd(A, TM.mkIntConst(K)),
                               TM.mkMul(Rational(K), B))});
    };
    uint64_t Pivots = 0;
    if (Incremental) {
      smt::SmtSolver S(TM);
      S.assertFormula(Skeleton);
      for (int K = 0; K < NumCandidates; ++K) {
        S.push();
        S.assertFormula(TM.mkAnd(Candidate(K, X, Y),
                                 TM.mkNot(Candidate(K, X2, Y2))));
        benchmark::DoNotOptimize(S.check());
        S.pop();
      }
      Pivots = S.stats().SimplexStats.Pivots;
    } else {
      for (int K = 0; K < NumCandidates; ++K) {
        smt::SmtSolver S(TM);
        S.assertFormula(Skeleton);
        S.assertFormula(TM.mkAnd(Candidate(K, X, Y),
                                 TM.mkNot(Candidate(K, X2, Y2))));
        benchmark::DoNotOptimize(S.check());
        Pivots += S.stats().SimplexStats.Pivots;
      }
    }
    State.counters["pivots"] = static_cast<double>(Pivots);
  }
}
BENCHMARK(BM_IncrementalVsOneShot)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("incremental");

/// The full static pre-analysis pipeline (inlining + slicing + octagon and
/// polyhedra fixpoints + invariant verification) on a system with a bounded
/// counting loop, a predicate outside the query cone, and a predicate
/// unreachable from facts.
static void BM_AnalysisPipeline(benchmark::State &State) {
  const std::string Text = R"(
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
(assert (forall ((n Int)) (=> (inv n) (<= n 10))))
)";
  for (auto _ : State) {
    TermManager TM;
    chc::ChcSystem System(TM);
    smtlib2::ParseResult P = smtlib2::parseSmtLib2(Text, System);
    if (!P.Ok)
      State.SkipWithError("parse failure in BM_AnalysisPipeline");
    analysis::AnalysisResult R = analysis::analyzeSystem(System);
    benchmark::DoNotOptimize(R);
    State.counters["pruned"] = static_cast<double>(R.clausesPruned());
    State.counters["resolved"] = static_cast<double>(R.predicatesResolved());
    State.counters["bounds"] = static_cast<double>(R.boundsFound());
    State.counters["proved_sat"] = R.ProvedSat ? 1 : 0;
  }
}
BENCHMARK(BM_AnalysisPipeline);

/// Strong closure of one octagon DBM, the inner loop of the relational
/// analysis pass: Arg = number of variables (a 2n x 2n matrix of exact
/// rationals). The octagon carries a random mix of unary and pairwise
/// constraints plus one infeasible-free chain so closure does real work.
static void BM_OctagonClosure(benchmark::State &State) {
  const size_t NumVars = static_cast<size_t>(State.range(0));
  for (auto _ : State) {
    Random Rng(17);
    analysis::Octagon O(NumVars);
    for (size_t I = 0; I < NumVars; ++I) {
      O.addLower(I, Rational(Rng.nextInRange(-20, 0)));
      O.addUpper(I, Rational(Rng.nextInRange(1, 20)));
    }
    for (size_t I = 0; I + 1 < NumVars; ++I)
      O.addPair(I, false, I + 1, true, Rational(Rng.nextInRange(0, 5)));
    // boundOf forces the strong closure (Floyd-Warshall, strengthening,
    // integer tightening).
    benchmark::DoNotOptimize(O.boundOf(NumVars - 1));
    State.counters["empty"] = O.isEmpty() ? 1 : 0;
  }
}
BENCHMARK(BM_OctagonClosure)->Arg(4)->Arg(16);

/// Pack-decomposed vs monolithic strong closure at the same total dimension
/// count: Arg0 = total variables, Arg1 = pack size (0 = one monolithic
/// DBM). The constraint mix mirrors BM_OctagonClosure with pair chains kept
/// within packs, so the packed shape carries the same per-pack facts while
/// replacing one O((2n)^3) closure by n/p closures of O((2p)^3) — the
/// wide-clause win of the pack decomposition (DESIGN.md §13).
static void BM_PackedVsMonolithicClosure(benchmark::State &State) {
  const size_t NumVars = static_cast<size_t>(State.range(0));
  const size_t PackSize = static_cast<size_t>(State.range(1));
  std::shared_ptr<const analysis::PredPacks> Layout =
      PackSize == 0 ? analysis::PredPacks::monolithic(NumVars)
                    : analysis::PredPacks::uniform(NumVars, PackSize);
  for (auto _ : State) {
    Random Rng(17);
    analysis::PackedOctagon V = analysis::PackedOctagon::top(Layout);
    for (size_t K = 0; K < V.packCount(); ++K) {
      analysis::Octagon &O = V.pack(K);
      for (size_t I = 0; I < O.numVars(); ++I) {
        O.addLower(I, Rational(Rng.nextInRange(-20, 0)));
        O.addUpper(I, Rational(Rng.nextInRange(1, 20)));
      }
      for (size_t I = 0; I + 1 < O.numVars(); ++I)
        O.addPair(I, false, I + 1, true, Rational(Rng.nextInRange(0, 5)));
    }
    // boundOf forces the strong closure of the owning pack; sweeping every
    // position closes all packs (the monolithic layout closes everything on
    // the first query).
    for (size_t J = 0; J < NumVars; ++J)
      benchmark::DoNotOptimize(V.boundOf(J));
    State.counters["packs"] = static_cast<double>(V.packCount());
  }
}
BENCHMARK(BM_PackedVsMonolithicClosure)
    ->Args({120, 0})
    ->Args({120, 8})
    ->Unit(benchmark::kMillisecond);

static ml::Dataset randomDataset(int NumSamples, int Dim, uint64_t Seed) {
  Random Rng(Seed);
  ml::Dataset Data(Dim);
  for (int I = 0; I < NumSamples; ++I) {
    ml::Sample S;
    int64_t Sum = 0;
    for (int D = 0; D < Dim; ++D) {
      int64_t V = Rng.nextInRange(-20, 20);
      Sum += V;
      S.push_back(Rational(V));
    }
    // Mostly linearly separable labels with some noise.
    bool Positive = Sum + Rng.nextInRange(-4, 4) >= 0;
    (Positive ? Data.Pos : Data.Neg).push_back(std::move(S));
  }
  return Data;
}

static void BM_SvmTraining(benchmark::State &State) {
  ml::Dataset Data = randomDataset(static_cast<int>(State.range(0)), 4, 7);
  for (auto _ : State) {
    Random Rng(13);
    benchmark::DoNotOptimize(ml::SvmLearner().learn(Data, Rng));
  }
}
BENCHMARK(BM_SvmTraining)->Arg(50)->Arg(200);

static void BM_LearnToolchain(benchmark::State &State) {
  ml::Dataset Data = randomDataset(static_cast<int>(State.range(0)), 4, 11);
  for (auto _ : State) {
    TermManager TM;
    std::vector<const Term *> Vars{TM.mkVar("a"), TM.mkVar("b"),
                                   TM.mkVar("c"), TM.mkVar("d")};
    ml::LearnOptions Opts;
    benchmark::DoNotOptimize(ml::learn(TM, Vars, Data, Opts));
  }
}
BENCHMARK(BM_LearnToolchain)->Arg(40)->Arg(120);

BENCHMARK_MAIN();
