//===- analysis/AnalysisContext.cpp - Shared analysis state ---------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisContext.h"

#include "analysis/InlinePass.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace la;
using namespace la::analysis;
using namespace la::chc;

void PassStats::merge(const PassStats &O) {
  Seconds += O.Seconds;
  ClausesPruned += O.ClausesPruned;
  PredicatesResolved += O.PredicatesResolved;
  PredicatesInlined += O.PredicatesInlined;
  ClausesRemoved += O.ClausesRemoved;
  BoundsFound += O.BoundsFound;
  RelationalFound += O.RelationalFound;
  InvariantsVerified += O.InvariantsVerified;
  InvariantsRejected += O.InvariantsRejected;
  SmtChecks += O.SmtChecks;
  TemplatesMined += O.TemplatesMined;
  PolyhedraFacts += O.PolyhedraFacts;
  SweepCapHits += O.SweepCapHits;
  HitSweepCap = HitSweepCap || O.HitSweepCap;
  XferCacheHits += O.XferCacheHits;
  XferCacheMisses += O.XferCacheMisses;
  LpPivots += O.LpPivots;
  PacksBuilt += O.PacksBuilt;
  LargestPack = std::max(LargestPack, O.LargestPack);
  Check.merge(O.Check);
}

std::string PassStats::toString() const {
  char Buf[512];
  int N = snprintf(Buf, sizeof(Buf),
                   "%-10s %8.3fs  pruned %zu  resolved %zu  bounds %zu  "
                   "relational %zu  verified %zu  rejected %zu  smt %zu",
                   Name.c_str(), Seconds, ClausesPruned, PredicatesResolved,
                   BoundsFound, RelationalFound, InvariantsVerified,
                   InvariantsRejected, SmtChecks);
  if (PredicatesInlined + ClausesRemoved > 0 && N > 0 &&
      static_cast<size_t>(N) < sizeof(Buf))
    N += snprintf(Buf + N, sizeof(Buf) - N, "  inlined %zu  removed %zu",
                  PredicatesInlined, ClausesRemoved);
  if (TemplatesMined + PolyhedraFacts > 0 && N > 0 &&
      static_cast<size_t>(N) < sizeof(Buf))
    N += snprintf(Buf + N, sizeof(Buf) - N, "  templates %zu  polyfacts %zu",
                  TemplatesMined, PolyhedraFacts);
  if (SweepCapHits > 0 && N > 0 && static_cast<size_t>(N) < sizeof(Buf))
    N += snprintf(Buf + N, sizeof(Buf) - N, "  sweep-capped %zu",
                  SweepCapHits);
  if (PacksBuilt > 0 && N > 0 && static_cast<size_t>(N) < sizeof(Buf))
    N += snprintf(Buf + N, sizeof(Buf) - N, "  packs %zu (max %zu)",
                  PacksBuilt, LargestPack);
  if (XferCacheHits + XferCacheMisses > 0 && N > 0 &&
      static_cast<size_t>(N) < sizeof(Buf))
    N += snprintf(Buf + N, sizeof(Buf) - N, "  xfer-cache %zu/%zu",
                  XferCacheHits, XferCacheHits + XferCacheMisses);
  if (LpPivots > 0 && N > 0 && static_cast<size_t>(N) < sizeof(Buf))
    N += snprintf(Buf + N, sizeof(Buf) - N, "  lp-pivots %llu",
                  static_cast<unsigned long long>(LpPivots));
  if (Check.CacheHits + Check.CacheMisses > 0 && N > 0 &&
      static_cast<size_t>(N) < sizeof(Buf))
    snprintf(Buf + N, sizeof(Buf) - N,
             "  cache %llu/%llu  pushes %llu  reuse %llu",
             static_cast<unsigned long long>(Check.CacheHits),
             static_cast<unsigned long long>(Check.CacheHits +
                                             Check.CacheMisses),
             static_cast<unsigned long long>(Check.ScopePushes),
             static_cast<unsigned long long>(Check.RebuildsAvoided));
  return Buf;
}

size_t AnalysisResult::numLiveClauses() const {
  size_t N = 0;
  for (char L : LiveClause)
    N += L != 0;
  return N;
}

size_t AnalysisResult::boundsFound() const {
  size_t N = 0;
  for (const auto &[P, Bs] : Bounds)
    for (const ArgBounds &B : Bs)
      N += (B.HasLo ? 1 : 0) + (B.HasHi ? 1 : 0);
  return N;
}

size_t AnalysisResult::relationalFound() const {
  size_t N = 0;
  for (const PassStats &P : Passes)
    if (P.Name == "verify")
      N += P.RelationalFound;
  return N;
}

double AnalysisResult::totalSeconds() const {
  double S = 0;
  for (const PassStats &P : Passes)
    S += P.Seconds;
  return S;
}

size_t AnalysisResult::smtChecks() const {
  size_t N = 0;
  for (const PassStats &P : Passes)
    N += P.SmtChecks;
  return N;
}

FeatureCounters AnalysisResult::featureCounters() const {
  FeatureCounters F;
  for (const PassStats &P : Passes) {
    F.PredicatesInlined += P.PredicatesInlined;
    F.ClausesRemoved += P.ClausesRemoved;
    if (P.Name == "verify")
      F.PolyhedraFacts += P.PolyhedraFacts;
  }
  F.ClausesPruned = clausesPruned();
  F.PredicatesResolved = predicatesResolved();
  F.BoundsFound = boundsFound();
  F.RelationalFound = relationalFound();
  F.ProvedSat = ProvedSat;
  F.TimedOut = TimedOut;
  return F;
}

AnalysisResult AnalysisResult::allLive(const ChcSystem &System) {
  AnalysisResult R;
  R.LiveClause.assign(System.clauses().size(), 1);
  return R;
}

std::string AnalysisResult::report() const {
  char Buf[256];
  snprintf(Buf, sizeof(Buf),
           "analysis: %zu/%zu clauses pruned, %zu predicates resolved, "
           "%zu bounds, %zu invariants (%zu relational facts), "
           "proved-sat=%s, %.3fs\n",
           clausesPruned(), LiveClause.size(), predicatesResolved(),
           boundsFound(), Invariants.size(), relationalFound(),
           ProvedSat ? "yes" : "no", totalSeconds());
  std::string Out = Buf;
  for (const PassStats &P : Passes)
    Out += "  " + P.toString() + "\n";
  return Out;
}

AnalysisContext::AnalysisContext(const ChcSystem &System, AnalysisOptions Opts)
    : TM(System.termManager()), Opts(std::move(Opts)), Sys(&System) {
  // The time cap becomes a deadline on the token every pass already polls,
  // so it also bounds each SMT check and LP the passes issue, not only the
  // gaps between them.
  if (this->Opts.TimeoutSeconds > 0)
    this->Opts.Smt.Cancel = std::make_shared<CancellationToken>(
        this->Opts.Smt.Cancel, this->Opts.TimeoutSeconds);
  Result.LiveClause.assign(System.clauses().size(), 1);
  SkipPred.assign(System.predicates().size(), 0);
}

void AnalysisContext::adoptTransformed(std::shared_ptr<chc::ChcSystem> T,
                                       std::shared_ptr<const InlineMap> M) {
  assert(T && M && "adoptTransformed needs a system and its map");
  assert(Result.Fixed.empty() && Result.Invariants.empty() &&
         "the inline pass must run before any annotating pass");
  Result.Transformed = std::move(T);
  Result.Inline = std::move(M);
  Sys = Result.Transformed.get();
  Result.LiveClause.assign(Sys->clauses().size(), 1);
  // Eliminated predicates stay registered (so indices line up with the
  // original system) but have no clauses; mask them so no later pass tries
  // to resolve or bound them. They are deliberately NOT added to `Fixed`:
  // their final interpretations come from back-translation after solving.
  SkipPred.assign(Sys->predicates().size(), 0);
  for (size_t I = 0; I < Result.Inline->Eliminated.size(); ++I)
    if (Result.Inline->Eliminated[I])
      SkipPred[I] = 1;
  // Pack layouts and memoized transfers refer to the previous system's
  // clauses and predicate indices; recompute against the new one.
  PacksCache.reset();
  OctXfer.clear();
}

const PackDecomposition &AnalysisContext::packs() const {
  if (!PacksCache)
    PacksCache = std::make_shared<const PackDecomposition>(
        computePackDecomposition(*Sys, Result.LiveClause, Opts.Packs));
  return *PacksCache;
}

bool AnalysisContext::prune(size_t ClauseIdx) {
  bool WasLive = Result.LiveClause[ClauseIdx];
  Result.LiveClause[ClauseIdx] = 0;
  return WasLive;
}

void AnalysisContext::fix(const Predicate *P, const Term *Interp) {
  Result.Fixed[P] = Interp;
  if (SkipPred.empty())
    SkipPred.assign(Sys->predicates().size(), 0);
  SkipPred[P->Index] = 1;
}
