//===- solver/DataDrivenSolver.cpp - Algorithm 3 of the paper -------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solver/DataDrivenSolver.h"

#include "analysis/InlinePass.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>

/// Set the LA_TRACE environment variable to get a CEGAR event log on stderr.
static bool traceEnabled() {
  static bool Enabled = std::getenv("LA_TRACE") != nullptr;
  return Enabled;
}
#define LA_TRACE(...)                                                          \
  do {                                                                         \
    if (traceEnabled()) {                                                      \
      fprintf(stderr, "[chc-solve] " __VA_ARGS__);                             \
      fprintf(stderr, "\n");                                                   \
    }                                                                          \
  } while (false)

using namespace la;
using namespace la::solver;
using namespace la::chc;

namespace {

/// A sample with its hash computed once at construction. The dedup indices
/// below are probed several times per CEGAR iteration with the same sample
/// (positivity test, negative-store dedup, derivation lookup), and the old
/// ordered-map indices re-walked the Rational vector lexicographically on
/// every probe; hashing once and comparing only on bucket collisions makes
/// the hot dedup path cheap.
struct HashedSample {
  ml::Sample Values;
  size_t Hash = 0;

  explicit HashedSample(ml::Sample V) : Values(std::move(V)) {
    size_t H = 0x9e3779b97f4a7c15ull;
    for (const Rational &R : Values)
      H = (H ^ R.hash()) * 0x100000001b3ull;
    Hash = H;
  }
  bool operator==(const HashedSample &O) const {
    assert(Values.size() == O.Values.size() &&
           "comparing samples of different arity");
    return Hash == O.Hash && Values == O.Values;
  }
};

struct HashedSampleHasher {
  size_t operator()(const HashedSample &S) const { return S.Hash; }
};

/// Per-predicate sample stores and derivation bookkeeping (s+/s- of Alg. 3).
struct PredState {
  const Predicate *Pred = nullptr;

  std::vector<ml::Sample> Pos;
  std::unordered_map<HashedSample, size_t, HashedSampleHasher> PosIndex;
  /// Derivation record per positive sample: the clause that produced it and
  /// the (predicate, positive-sample-index) pairs explaining it.
  struct Derivation {
    size_t ClauseIndex = 0;
    std::vector<std::pair<size_t, size_t>> Children; ///< (pred idx, pos idx)
  };
  std::vector<Derivation> Derivs;

  std::vector<ml::Sample> Neg;
  std::unordered_map<HashedSample, size_t, HashedSampleHasher> NegIndex;

  bool hasPositive(const HashedSample &S) const { return PosIndex.count(S); }
};

class Algorithm3 {
public:
  Algorithm3(const ChcSystem &System, const DataDrivenOptions &Opts,
             const analysis::AnalysisResult &Analysis,
             DataDrivenChcSolver::DetailedStats &Details)
      : System(System), TM(System.termManager()), Opts(Opts),
        Analysis(Analysis), Details(Details), Clock(Opts.Limits.WallSeconds),
        Result(TM), Checker(System, Opts.Smt, 1 << 14, Opts.CheckCache) {
    for (const Predicate *P : System.predicates()) {
      PredState State;
      State.Pred = P;
      States.push_back(std::move(State));
    }
    // Only clauses surviving the static analysis need CEGAR attention;
    // pruned ones are valid under the seed and any later strengthening.
    for (size_t I = 0; I < System.clauses().size(); ++I)
      if (Analysis.LiveClause[I])
        LiveClauses.push_back(I);
    // Seed the interpretation: statically resolved predicates are final,
    // verified invariants lower-bound every later interpretation.
    for (const auto &[P, F] : Analysis.Fixed)
      Result.Interp.set(P, F);
    for (const auto &[P, Inv] : Analysis.Invariants)
      Result.Interp.set(P, Inv);
  }

  ChcSolverResult run() {
    ChcSolverResult R = runLoop();
    R.Stats.Check = Checker.stats();
    return R;
  }

private:
  ChcSolverResult runLoop() {
    Timer Total;
    if (Analysis.ProvedSat) {
      // The verified seed already validates every live clause.
      Details.SolvedByAnalysis = true;
      Result.Status = ChcResult::Sat;
      Result.Stats.Seconds = Total.elapsedSeconds();
      return Result;
    }
    // Line 1-2: A = lambda p: true; empty sample stores.
    for (;;) {
      if (outOfBudget())
        break;
      // Line 3: find an invalid clause under the current interpretation.
      int InvalidIdx = -1;
      ClauseCheckResult Check;
      for (size_t I : LiveClauses) {
        Check = Checker.check(I, Result.Interp);
        ++Result.Stats.SmtQueries;
        if (Check.Status == ClauseStatus::Invalid) {
          InvalidIdx = static_cast<int>(I);
          break;
        }
        if (Check.Status == ClauseStatus::Unknown) {
          LA_TRACE("SMT unknown checking clause '%s'",
                   System.clauses()[I].Name.c_str());
          Result.Status = ChcResult::Unknown;
          Result.Stats.Seconds = Total.elapsedSeconds();
          return Result;
        }
      }
      if (InvalidIdx < 0) {
        // Line 24: every clause is valid.
        Result.Status = ChcResult::Sat;
        Result.Stats.Seconds = Total.elapsedSeconds();
        return Result;
      }

      // Lines 4-22: resolve this clause (or bail to re-prioritise after a
      // weakening, or report unsat).
      switch (resolveClause(static_cast<size_t>(InvalidIdx), Check)) {
      case ResolveOutcome::Resolved:
      case ResolveOutcome::Weakened:
        continue;
      case ResolveOutcome::FoundUnsat:
        Result.Status = ChcResult::Unsat;
        Result.Stats.Seconds = Total.elapsedSeconds();
        return Result;
      case ResolveOutcome::Budget:
        break;
      }
      break;
    }
    Result.Status = ChcResult::Unknown;
    Result.Stats.Seconds = Total.elapsedSeconds();
    return Result;
  }

  enum class ResolveOutcome { Resolved, Weakened, FoundUnsat, Budget };

  bool outOfBudget() {
    return Clock.expired() || isCancelled(Opts.Cancel) ||
           (Opts.Limits.MaxIterations &&
            Result.Stats.Iterations >= Opts.Limits.MaxIterations);
  }

  PredState &stateOf(const Predicate *P) { return States[P->Index]; }

  /// The verified static invariant of \p P (`true` when none was found).
  /// Every interpretation of P stays below it: positive samples are
  /// derivable facts and the invariant is a verified over-approximation of
  /// those, so conjoining it never contradicts the sample stores.
  const Term *invariantOf(const Predicate *P) const {
    auto It = Analysis.Invariants.find(P);
    return It == Analysis.Invariants.end() ? TM.mkTrue() : It->second;
  }

  /// Evaluates the argument terms of an application under a model.
  ml::Sample sampleOf(const PredApp &App,
                      const std::unordered_map<const Term *, Rational> &Model) {
    ml::Sample S;
    S.reserve(App.Args.size());
    for (const Term *Arg : App.Args)
      S.push_back(evalWithDefaults(Arg, Model));
    ++Result.Stats.Samples;
    return S;
  }

  /// The inner do-while loop of Algorithm 3 for one invalid clause.
  ResolveOutcome resolveClause(size_t ClauseIdx, ClauseCheckResult Check) {
    const HornClause &C = System.clauses()[ClauseIdx];
    for (;;) {
      assert(Check.Status == ClauseStatus::Invalid && "resolving valid clause");
      ++Result.Stats.Iterations;
      if (outOfBudget())
        return ResolveOutcome::Budget;

      // Lines 5-8: extract samples from the model (hashed once here; the
      // stores below are probed with them several times).
      std::vector<HashedSample> BodySamples;
      for (const PredApp &App : C.Body)
        BodySamples.emplace_back(sampleOf(App, Check.Model));

      bool AllPositive = true;
      for (size_t I = 0; I < C.Body.size(); ++I)
        AllPositive &= stateOf(C.Body[I].Pred).hasPositive(BodySamples[I]);

      if (AllPositive) {
        // Lines 9-15: the body facts are derivable, so the head sample is a
        // bounded positive sample (or a genuine refutation).
        if (!C.HeadPred)
          return foundCounterexample(ClauseIdx, BodySamples);
        HashedSample HeadSample(sampleOf(*C.HeadPred, Check.Model));
        weakenHead(ClauseIdx, *C.HeadPred, BodySamples, HeadSample);
        return ResolveOutcome::Weakened;
      }

      // Lines 16-21: strengthen the body predicates that are not yet
      // explained; their samples become tentative negatives.
      for (size_t I = 0; I < C.Body.size(); ++I) {
        PredState &State = stateOf(C.Body[I].Pred);
        if (State.hasPositive(BodySamples[I]))
          continue;
        if (!State.NegIndex.count(BodySamples[I])) {
          State.NegIndex.emplace(BodySamples[I], State.Neg.size());
          State.Neg.push_back(BodySamples[I].Values);
          ++Details.NegativeSamples;
        }
        if (!relearn(State)) {
          LA_TRACE("learn failed for %s (|pos|=%zu |neg|=%zu)",
                   State.Pred->Name.c_str(), State.Pos.size(),
                   State.Neg.size());
          return ResolveOutcome::Budget;
        }
      }

      // Line 22: re-check the clause.
      Check = Checker.check(ClauseIdx, Result.Interp);
      ++Result.Stats.SmtQueries;
      if (Check.Status == ClauseStatus::Valid)
        return ResolveOutcome::Resolved;
      if (Check.Status == ClauseStatus::Unknown) {
        LA_TRACE("SMT unknown re-checking clause '%s'", C.Name.c_str());
        return ResolveOutcome::Budget;
      }
    }
  }

  /// Lines 10-13: record a new positive head sample, clear the negatives of
  /// the head and reset its interpretation to true.
  void weakenHead(size_t ClauseIdx, const PredApp &Head,
                  const std::vector<HashedSample> &BodySamples,
                  const HashedSample &HeadSample) {
    PredState &State = stateOf(Head.Pred);
    if (!State.hasPositive(HeadSample)) {
      PredState::Derivation D;
      D.ClauseIndex = ClauseIdx;
      const HornClause &C = System.clauses()[ClauseIdx];
      for (size_t I = 0; I < C.Body.size(); ++I) {
        const PredState &Child = stateOf(C.Body[I].Pred);
        D.Children.emplace_back(C.Body[I].Pred->Index,
                                Child.PosIndex.at(BodySamples[I]));
      }
      State.PosIndex.emplace(HeadSample, State.Pos.size());
      State.Pos.push_back(HeadSample.Values);
      State.Derivs.push_back(std::move(D));
      ++Details.PositiveSamples;
    }
    // A positive sample may shadow an earlier tentative negative; drop all
    // negatives so learning stays contradiction-free (line 12). The reset
    // target is the static invariant, not `true`: it is sound for every
    // derivable fact, so re-weakening below it is never necessary.
    State.Neg.clear();
    State.NegIndex.clear();
    Result.Interp.set(Head.Pred, invariantOf(Head.Pred));
    ++Details.Weakenings;
  }

  /// Line 20: A(p) = Learn(s+(p), s-(p)).
  bool relearn(PredState &State) {
    ml::Dataset Data(State.Pred->arity());
    Data.Pos = State.Pos;
    Data.Neg = State.Neg;
    assert(!Data.hasContradiction() &&
           "positive/negative stores must stay disjoint");
    // Derive a per-call seed so repeated learning explores different random
    // choices deterministically.
    uint64_t Seed = Opts.Learn.LA.Seed * 1000003 + ++Details.LearnCalls * 7919;
    ml::LearnResult R;
    if (Opts.Learner) {
      R = Opts.Learner(TM, State.Pred->Params, Data, Seed);
    } else {
      ml::LearnOptions LearnOpts = Opts.Learn;
      LearnOpts.LA.Seed = Seed;
      // Statically bounded argument positions become candidate attributes
      // for the decision tree: unit directions whose thresholds the tree
      // re-fits from the data.
      auto BI = Analysis.Bounds.find(State.Pred);
      if (BI != Analysis.Bounds.end()) {
        for (const analysis::ArgBounds &B : BI->second) {
          std::vector<Rational> W(State.Pred->arity(), Rational(0));
          W[B.ArgIndex] = Rational(1);
          LearnOpts.ExtraFeatures.push_back(ml::Feature::linear(std::move(W)));
        }
      }
      // Verified polyhedral template rows are relational directions the
      // unit attributes above cannot express (e.g. `x - 2y`); the tree
      // re-fits their thresholds from the data.
      auto PI = Analysis.PolyRows.find(State.Pred);
      if (PI != Analysis.PolyRows.end())
        for (const std::vector<Rational> &Row : PI->second)
          LearnOpts.ExtraFeatures.push_back(ml::Feature::linear(Row));
      R = ml::learn(TM, State.Pred->Params, Data, LearnOpts);
    }
    if (!R.Ok)
      return false;
    const Term *Inv = invariantOf(State.Pred);
    Result.Interp.set(State.Pred,
                      Inv->isTrue() ? R.Formula : TM.mkAnd(Inv, R.Formula));
    return true;
  }

  /// Line 15: replay the derivation forest into a counterexample tree.
  ResolveOutcome
  foundCounterexample(size_t QueryClauseIdx,
                      const std::vector<HashedSample> &BodySamples) {
    Counterexample Cex;
    // Emit the derivation tree rooted at (pred, posIdx) into Cex.Nodes.
    std::map<std::pair<size_t, size_t>, size_t> Emitted;
    std::function<size_t(size_t, size_t)> Emit = [&](size_t PredIdx,
                                                     size_t PosIdx) -> size_t {
      auto Key = std::make_pair(PredIdx, PosIdx);
      auto It = Emitted.find(Key);
      if (It != Emitted.end())
        return It->second;
      const PredState &State = States[PredIdx];
      const PredState::Derivation &D = State.Derivs[PosIdx];
      Counterexample::Node Node;
      Node.Pred = State.Pred;
      Node.Args = State.Pos[PosIdx];
      Node.ClauseIndex = D.ClauseIndex;
      for (const auto &[ChildPred, ChildPos] : D.Children)
        Node.Children.push_back(Emit(ChildPred, ChildPos));
      Cex.Nodes.push_back(std::move(Node));
      size_t Index = Cex.Nodes.size() - 1;
      Emitted.emplace(Key, Index);
      return Index;
    };

    const HornClause &C = System.clauses()[QueryClauseIdx];
    Cex.QueryClauseIndex = QueryClauseIdx;
    for (size_t I = 0; I < C.Body.size(); ++I) {
      const PredState &State = stateOf(C.Body[I].Pred);
      Cex.QueryChildren.push_back(
          Emit(C.Body[I].Pred->Index, State.PosIndex.at(BodySamples[I])));
    }
    Result.Cex = std::move(Cex);
    return ResolveOutcome::FoundUnsat;
  }

  const ChcSystem &System;
  TermManager &TM;
  const DataDrivenOptions &Opts;
  const analysis::AnalysisResult &Analysis;
  DataDrivenChcSolver::DetailedStats &Details;
  Deadline Clock;
  ChcSolverResult Result;
  ClauseCheckContext Checker;
  std::vector<PredState> States;
  std::vector<size_t> LiveClauses;
};

} // namespace

ChcSolverResult DataDrivenChcSolver::solve(const ChcSystem &System) {
  Details = DetailedStats{};
  Timer Total;
  // The cancellation token reaches every SMT check (and through Smt, the
  // analysis pipeline and clause-check backend) without separate plumbing.
  if (Opts.Cancel && !Opts.Smt.Cancel)
    Opts.Smt.Cancel = Opts.Cancel;
  if (Opts.EnableAnalysis) {
    analysis::AnalysisOptions AOpts = Opts.Analysis;
    AOpts.Smt = Opts.Smt;
    // Cap the pipeline at half the solve budget so a pathological system
    // still leaves the CEGAR loop room to run (the analysis-only engine
    // gets the whole budget: there is no loop to save time for).
    if (Opts.Limits.WallSeconds > 0) {
      double Cap =
          Opts.AnalysisOnly ? Opts.Limits.WallSeconds : Opts.Limits.WallSeconds / 2;
      AOpts.TimeoutSeconds =
          AOpts.TimeoutSeconds > 0 ? std::min(AOpts.TimeoutSeconds, Cap) : Cap;
    }
    Analysis = analysis::analyzeSystem(System, AOpts);
  } else {
    Analysis = analysis::AnalysisResult::allLive(System);
  }
  Details.ClausesPruned = Analysis.clausesPruned();
  Details.PredicatesResolved = Analysis.predicatesResolved();
  Details.BoundsFound = Analysis.boundsFound();
  Details.AnalysisSeconds = Analysis.totalSeconds();
  for (const analysis::PassStats &P : Analysis.Passes) {
    Details.PredicatesInlined += P.PredicatesInlined;
    Details.ClausesRemoved += P.ClausesRemoved;
    Details.TemplatesMined += P.TemplatesMined;
    Details.SweepCapHits += P.SweepCapHits;
    // Only the verify pass counts *verified* polyhedral facts; the
    // polyhedra pass counts raw candidates.
    if (P.Name == "verify")
      Details.PolyhedraFacts += P.PolyhedraFacts;
  }
  LA_TRACE("analysis: pruned %zu/%zu clauses, resolved %zu preds, %zu bounds",
           Analysis.clausesPruned(), Analysis.LiveClause.size(),
           Analysis.predicatesResolved(), Analysis.boundsFound());

  // Analysis-only mode: when the verified seed does not already discharge
  // the system, answer Unknown instead of entering the CEGAR loop. (On
  // ProvedSat the loop below exits before its first iteration and the
  // shared witness back-translation applies.)
  if (Opts.AnalysisOnly && !Analysis.ProvedSat) {
    ChcSolverResult Unknown(System.termManager());
    Unknown.Stats.SmtQueries = Analysis.smtChecks();
    Unknown.Stats.TemplatesMined = Details.TemplatesMined;
    Unknown.Stats.PolyhedraFacts = Details.PolyhedraFacts;
    Unknown.Stats.Seconds = Total.elapsedSeconds();
    return Unknown;
  }

  // The CEGAR loop runs over the inlined system when the inline pass fired;
  // witnesses are translated back to the input system below.
  const ChcSystem &SolveSystem =
      Analysis.Transformed ? *Analysis.Transformed : System;
  ChcSolverResult Result = Algorithm3(SolveSystem, Opts, Analysis, Details).run();
  if (Analysis.Transformed) {
    if (Result.Status == ChcResult::Sat) {
      Result.Interp = analysis::backTranslateModel(
          System, *Analysis.Transformed, *Analysis.Inline, Result.Interp);
    } else if (Result.Status == ChcResult::Unsat && Result.Cex) {
      // One SMT model per transformed node hiding an expansion; on failure
      // the unsat verdict stands without a witness tree.
      Result.Cex = analysis::backTranslateCex(System, *Analysis.Transformed,
                                              *Analysis.Inline, *Result.Cex,
                                              Opts.Smt);
    }
  }
  Result.Stats.SmtQueries += Analysis.smtChecks();
  Result.Stats.TemplatesMined = Details.TemplatesMined;
  Result.Stats.PolyhedraFacts = Details.PolyhedraFacts;
  Result.Stats.Seconds = Total.elapsedSeconds();
  return Result;
}
