//===- analysis/PassManager.cpp - Static pre-analysis pipeline ------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/PassManager.h"

#include "analysis/DependencyGraph.h"
#include "analysis/InlinePass.h"
#include "analysis/OctagonAnalysis.h"
#include "analysis/TemplateAnalysis.h"
#include "smt/LpSolver.h"

#include <cassert>

using namespace la;
using namespace la::analysis;
using namespace la::chc;

//===----------------------------------------------------------------------===//
// Passes
//===----------------------------------------------------------------------===//

namespace {

/// Resolves predicates with no derivation at all to `false`. Every clause
/// headed by such a predicate has an underivable body atom (by the least-
/// fixpoint definition) and every clause using one has a `false` body
/// conjunct, so both kinds are valid forever and can be pruned.
class FactReachabilityPass : public Pass {
public:
  std::string name() const override { return "fact-reach"; }

  void run(AnalysisContext &Ctx) override {
    PassStats &Stats = Ctx.stats();
    DependencyGraph Graph(Ctx);
    std::vector<char> Derivable = Graph.derivableFromFacts();
    for (const Predicate *P : Ctx.system().predicates()) {
      if (Derivable[P->Index] || Ctx.isFixed(P))
        continue;
      Ctx.fix(P, Ctx.TM.mkFalse());
      ++Stats.PredicatesResolved;
      for (size_t CI : Ctx.system().clausesWithHead(P))
        Stats.ClausesPruned += Ctx.prune(CI);
      for (size_t CI : Ctx.system().clausesUsing(P))
        Stats.ClausesPruned += Ctx.prune(CI);
    }
  }
};

/// Resolves predicates outside the cone of influence of the query clauses
/// to `true`: nothing ever demands an upper bound on them, so `true` makes
/// their defining clauses valid, and no live clause can mention them in a
/// body (a body occurrence would place them inside the cone).
class QueryConePass : public Pass {
public:
  std::string name() const override { return "query-cone"; }

  void run(AnalysisContext &Ctx) override {
    PassStats &Stats = Ctx.stats();
    DependencyGraph Graph(Ctx);
    std::vector<char> InCone = Graph.reachesQuery();
    for (const Predicate *P : Ctx.system().predicates()) {
      if (InCone[P->Index] || Ctx.isFixed(P))
        continue;
      Ctx.fix(P, Ctx.TM.mkTrue());
      ++Stats.PredicatesResolved;
      for (size_t CI : Ctx.system().clausesWithHead(P))
        Stats.ClausesPruned += Ctx.prune(CI);
    }
  }
};

/// Runs the octagon fixpoint; everything it finds is a candidate until the
/// verify pass has re-proved it.
class OctagonPass : public Pass {
public:
  std::string name() const override { return "octagons"; }

  void run(AnalysisContext &Ctx) override {
    PassStats &Stats = Ctx.stats();
    FixpointTelemetry Tele;
    size_t Hits0 = Ctx.OctXfer.Hits, Misses0 = Ctx.OctXfer.Misses;
    Ctx.Octagons = runOctagonAnalysis(Ctx, &Tele);
    Stats.HitSweepCap = Tele.HitSweepCap;
    Stats.SweepCapHits += Tele.HitSweepCap;
    Stats.XferCacheHits += Ctx.OctXfer.Hits - Hits0;
    Stats.XferCacheMisses += Ctx.OctXfer.Misses - Misses0;
    Stats.PacksBuilt = Ctx.packs().PacksBuilt;
    Stats.LargestPack = Ctx.packs().LargestPack;
    for (const Predicate *P : Ctx.system().predicates()) {
      if (Ctx.isFixed(P))
        continue;
      const OctagonState &S = Ctx.Octagons[P->Index];
      if (!S.Reachable)
        continue;
      for (size_t J = 0; J < S.Value.numVars(); ++J) {
        Interval B = S.Value.boundOf(J);
        Stats.BoundsFound += (B.hasLo() ? 1 : 0) + (B.hasHi() ? 1 : 0);
      }
      Stats.RelationalFound += OctagonDomain::relationalFactCount(S.Value);
    }
  }
};

/// Runs the template-polyhedra fixpoint over the mined matrices; like the
/// octagon pass, everything it finds is a candidate until the verify pass
/// has re-proved it.
class PolyhedraPass : public Pass {
public:
  std::string name() const override { return "polyhedra"; }

  void run(AnalysisContext &Ctx) override {
    PassStats &Stats = Ctx.stats();
    FixpointTelemetry Tele;
    smt::takeLpPivots(); // drain pivots a previous pass left behind
    Ctx.Polyhedra = runTemplateAnalysis(Ctx, &Ctx.PolyMatrices, &Tele);
    Stats.HitSweepCap = Tele.HitSweepCap;
    Stats.SweepCapHits += Tele.HitSweepCap;
    for (const TemplateMatrixRef &M : Ctx.PolyMatrices)
      Stats.TemplatesMined += M ? M->Rows.size() : 0;
    for (const Predicate *P : Ctx.system().predicates()) {
      if (Ctx.isFixed(P))
        continue;
      const PolyhedraState &S = Ctx.Polyhedra[P->Index];
      if (!S.Reachable)
        continue;
      for (size_t J = 0; J < P->arity(); ++J) {
        Interval B = S.Value.boundOf(J);
        Stats.BoundsFound += (B.hasLo() ? 1 : 0) + (B.hasHi() ? 1 : 0);
      }
      Stats.PolyhedraFacts += S.Value.relationalRowCount();
    }
    Stats.LpPivots += smt::takeLpPivots();
  }
};

/// Re-proves every candidate invariant with the SMT solver, resolves
/// verified-`false` predicates, and discharges query clauses that are
/// already valid under the verified seed. Each predicate carries a ladder
/// of candidates ordered strongest first (polyhedra conjoined with octagon,
/// then octagon): a clause failure demotes the head predicate one rung
/// before dropping it to `true`, so a too-strong polyhedral candidate cannot
/// cost the fact the octagon candidate alone would have kept. The strongest
/// rung conjoins the two candidates — the intersection of two inductive
/// invariants is inductive over Horn clauses, so the rung only ever
/// strengthens what either candidate alone would verify.
class InvariantVerifyPass : public Pass {
public:
  std::string name() const override { return "verify"; }

  void run(AnalysisContext &Ctx) override {
    PassStats &Stats = Ctx.stats();
    TermManager &TM = Ctx.TM;
    AnalysisResult &Res = Ctx.Result;
    // Rendering polyhedral candidates below runs LP bound queries; drain
    // the pivot counter around the pass so they are attributed here.
    smt::takeLpPivots();
    struct PivotDrain {
      PassStats &Stats;
      ~PivotDrain() { Stats.LpPivots += smt::takeLpPivots(); }
    } Drain{Stats};

    struct Ladder {
      struct Level {
        const Term *Inv = nullptr;
        /// Which domain states stand behind this rung (drive the bound
        /// and feature-row publishing of the surviving level).
        bool UsesPoly = false;
        bool UsesOct = false;
      };
      std::vector<Level> Levels;
      size_t Cur = 0;

      const Term *current() const { return Levels[Cur].Inv; }
      const Level &level() const { return Levels[Cur]; }
    };
    std::map<const Predicate *, Ladder> Ladders;
    for (const Predicate *P : Ctx.system().predicates()) {
      if (Ctx.isFixed(P))
        continue;
      const Term *PolyInv =
          Ctx.Polyhedra.empty()
              ? nullptr
              : templateInvariant(TM, P, Ctx.Polyhedra[P->Index]);
      const Term *OctInv =
          Ctx.Octagons.empty()
              ? nullptr
              : octagonInvariant(TM, P, Ctx.Octagons[P->Index]);
      Ladder L;
      // Terms are hash-consed, so identical candidates dedupe by pointer;
      // a dedup merges the domain flags (e.g. the polyhedral and octagon
      // candidates rendering the same formula stand on both states).
      auto Push = [&](const Term *Inv, bool Poly, bool Oct) {
        if (!Inv)
          return;
        for (Ladder::Level &Lvl : L.Levels)
          if (Lvl.Inv == Inv) {
            Lvl.UsesPoly |= Poly;
            Lvl.UsesOct |= Oct;
            return;
          }
        L.Levels.push_back({Inv, Poly, Oct});
      };
      if (PolyInv && OctInv && PolyInv != OctInv)
        Push(TM.mkAnd(PolyInv, OctInv), true, true);
      else
        Push(PolyInv, true, false);
      Push(OctInv, false, true);
      if (!L.Levels.empty())
        Ladders.emplace(P, std::move(L));
    }
    if (Ladders.empty() && Res.Fixed.empty())
      return; // nothing to verify, nothing to discharge

    // One incremental backend for the whole pass: the inductiveness fixpoint
    // re-checks clauses whose candidates did not change between rescans, and
    // the memo cache answers those without touching a solver.
    ClauseCheckContext Checker(Ctx.system(), Ctx.Opts.Smt);

    Interpretation Cand(TM);
    for (const auto &[P, F] : Res.Fixed)
      Cand.set(P, F);
    for (const auto &[P, L] : Ladders)
      Cand.set(P, L.current());

    // Inductiveness fixpoint. Only clauses whose head carries a candidate
    // can be invalid (a `true` head validates the clause trivially); when a
    // candidate fails its clause, demote it and rescan, since the weakened
    // head may invalidate other candidates' clauses.
    const auto &Clauses = Ctx.system().clauses();
    bool Demoted = true;
    while (Demoted && !Ladders.empty()) {
      Demoted = false;
      for (size_t CI = 0; CI < Clauses.size() && !Ladders.empty(); ++CI) {
        const HornClause &C = Clauses[CI];
        if (!Ctx.isLive(CI) || !C.HeadPred)
          continue;
        const Predicate *Head = C.HeadPred->Pred;
        auto It = Ladders.find(Head);
        if (It == Ladders.end())
          continue;
        if (Ctx.expired()) {
          // Out of budget: nothing else gets verified this run.
          Stats.InvariantsRejected += Ladders.size();
          Stats.Check = Checker.stats();
          return;
        }
        ClauseCheckResult Check = Checker.check(CI, Cand);
        ++Stats.SmtChecks;
        if (Check.Status == ClauseStatus::Valid)
          continue;
        Ladder &L = It->second;
        ++L.Cur;
        ++Stats.InvariantsRejected;
        if (L.Cur < L.Levels.size()) {
          Cand.set(Head, L.current());
        } else {
          Ladders.erase(It);
          Cand.set(Head, TM.mkTrue());
        }
        Demoted = true;
      }
    }
    Stats.InvariantsVerified = Ladders.size();

    // A verified `false` resolves the predicate outright: its defining
    // clauses are valid under the seed and stay so when bodies strengthen,
    // and clauses using it have a permanently-false body conjunct.
    for (auto It = Ladders.begin(); It != Ladders.end();) {
      const Predicate *P = It->first;
      if (!It->second.current()->isFalse()) {
        ++It;
        continue;
      }
      Ctx.fix(P, TM.mkFalse());
      ++Stats.PredicatesResolved;
      for (size_t CI : Ctx.system().clausesWithHead(P))
        Stats.ClausesPruned += Ctx.prune(CI);
      for (size_t CI : Ctx.system().clausesUsing(P))
        Stats.ClausesPruned += Ctx.prune(CI);
      It = Ladders.erase(It);
    }

    // Publish the survivors, and the finite bounds of the states behind
    // each surviving level (the learner takes them as candidate
    // attributes). A conjunction rung draws on every domain it conjoined.
    for (const auto &[P, L] : Ladders) {
      Res.Invariants.emplace(P, L.current());
      const Ladder::Level &Lvl = L.level();
      if (Lvl.UsesOct)
        Stats.RelationalFound +=
            OctagonDomain::relationalFactCount(Ctx.Octagons[P->Index].Value);
      if (Lvl.UsesPoly) {
        const TemplatePolyhedron &PV = Ctx.Polyhedra[P->Index].Value;
        Stats.PolyhedraFacts += PV.relationalRowCount();
        // Hand the verified relational rows to the learner as linear
        // feature directions (the per-argument bounds below only carry
        // unary information).
        std::vector<std::vector<Rational>> Rows;
        for (size_t R = 0; R < PV.numRows(); ++R)
          if (PV.boundOfRow(R).Finite && PV.matrix()->Rows[R].arity() >= 2)
            Rows.push_back(PV.matrix()->Rows[R].Coef);
        if (!Rows.empty())
          Res.PolyRows.emplace(P, std::move(Rows));
      }
      std::vector<ArgBounds> Bs;
      for (size_t J = 0; J < P->arity(); ++J) {
        Interval I = Interval::top();
        if (Lvl.UsesPoly)
          I = I.meet(Ctx.Polyhedra[P->Index].Value.boundOf(J));
        if (Lvl.UsesOct)
          I = I.meet(Ctx.Octagons[P->Index].Value.boundOf(J));
        I = I.tightenIntegral();
        if (!I.hasLo() && !I.hasHi())
          continue;
        ArgBounds B;
        B.ArgIndex = J;
        B.HasLo = I.hasLo();
        B.HasHi = I.hasHi();
        if (B.HasLo)
          B.Lo = I.lo();
        if (B.HasHi)
          B.Hi = I.hi();
        Bs.push_back(std::move(B));
      }
      if (!Bs.empty())
        Res.Bounds.emplace(P, std::move(Bs));
    }

    // Query discharge: a query clause valid under the seed stays valid when
    // body interpretations strengthen (the CEGAR loop only ever conjoins
    // onto the seed), so it can be pruned. If every live query is valid the
    // seed is a full solution.
    bool AllQueriesValid = true;
    for (size_t CI = 0; CI < Clauses.size(); ++CI) {
      const HornClause &C = Clauses[CI];
      if (!Ctx.isLive(CI) || !C.isQuery())
        continue;
      if (Ctx.expired()) {
        Stats.Check = Checker.stats();
        return; // skip discharge; ProvedSat stays false
      }
      ClauseCheckResult Check = Checker.check(CI, Cand);
      ++Stats.SmtChecks;
      if (Check.Status == ClauseStatus::Valid)
        Stats.ClausesPruned += Ctx.prune(CI);
      else
        AllQueriesValid = false;
    }
    // All candidate-headed clauses are inductive, `true`-headed clauses are
    // trivially valid, and every query discharged: the seed is a solution.
    Res.ProvedSat = AllQueriesValid;
    Stats.Check = Checker.stats();
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Manager
//===----------------------------------------------------------------------===//

void PassManager::run(AnalysisContext &Ctx) const {
  for (const std::unique_ptr<Pass> &P : Passes) {
    if (Ctx.expired())
      break;
    PassStats Stats;
    Stats.Name = P->name();
    Ctx.setStatsSink(&Stats);
    Timer Watch;
    P->run(Ctx);
    Stats.Seconds = Watch.elapsedSeconds();
    Ctx.setStatsSink(nullptr);
    Ctx.Result.Passes.push_back(std::move(Stats));
  }
  Ctx.Result.TimedOut = Ctx.expired();
}

AnalysisResult PassManager::run(const ChcSystem &System,
                                const AnalysisOptions &Opts) const {
  AnalysisContext Ctx(System, Opts);
  run(Ctx);
  return std::move(Ctx.Result);
}

PassManager PassManager::defaultPipeline(const AnalysisOptions &Opts) {
  PassManager PM;
  // Inlining runs first: it is the only pass that rewrites the system, and
  // everything after it (including the slicing passes) analyzes the clone.
  if (Opts.EnableInlining)
    PM.addPass(std::make_unique<InlinePass>());
  if (Opts.EnableSlicing) {
    PM.addPass(std::make_unique<FactReachabilityPass>());
    PM.addPass(std::make_unique<QueryConePass>());
  }
  if (Opts.EnableOctagons)
    PM.addPass(std::make_unique<OctagonPass>());
  if (Opts.EnablePolyhedra)
    PM.addPass(std::make_unique<PolyhedraPass>());
  PM.addPass(std::make_unique<InvariantVerifyPass>());
  return PM;
}

AnalysisResult analysis::analyzeSystem(const ChcSystem &System,
                                       const AnalysisOptions &Opts) {
  return PassManager::defaultPipeline(Opts).run(System, Opts);
}
