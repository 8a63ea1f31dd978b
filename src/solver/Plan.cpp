//===- solver/Plan.cpp - Plan executor for every solve --------------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solver/Plan.h"

#include "smtlib2/Parser.h"
#include "smtlib2/Printer.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sstream>
#include <thread>

using namespace la;
using namespace la::solver;
using namespace la::chc;

const char *solver::toString(Isolation I) {
  return I == Isolation::Process ? "process" : "thread";
}

std::optional<Isolation> solver::parseIsolation(const std::string &Text) {
  if (Text == "thread")
    return Isolation::Thread;
  if (Text == "process")
    return Isolation::Process;
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Wire codec
//===----------------------------------------------------------------------===//

void wire::putBlock(std::string &Out, const char *Tag,
                    const std::string &Text) {
  Out += Tag;
  Out += ' ';
  Out += std::to_string(Text.size());
  Out += '\n';
  Out += Text;
  Out += '\n';
}

bool wire::getBlock(std::istream &In, const char *Tag, std::string &Out) {
  std::string Word;
  size_t Len = 0;
  if (!(In >> Word) || Word != Tag || !(In >> Len) || In.get() != '\n')
    return false;
  if (Len > (size_t(1) << 28))
    return false;
  Out.resize(Len);
  if (Len > 0 && !In.read(Out.data(), static_cast<std::streamsize>(Len)))
    return false;
  return In.get() == '\n';
}

void wire::putStats(std::string &Out, const EngineStats &S) {
  const CheckStats &C = S.Check;
  char Buf[512];
  snprintf(Buf, sizeof(Buf),
           "stats %zu %zu %zu %.6f %zu %zu %llu %llu %llu %llu %llu %llu "
           "%llu %llu %llu %llu %llu\n",
           S.SmtQueries, S.Samples, S.Iterations, S.Seconds, S.TemplatesMined,
           S.PolyhedraFacts, static_cast<unsigned long long>(C.ChecksIssued),
           static_cast<unsigned long long>(C.CacheHits),
           static_cast<unsigned long long>(C.CacheMisses),
           static_cast<unsigned long long>(C.CacheEvictions),
           static_cast<unsigned long long>(C.ScopePushes),
           static_cast<unsigned long long>(C.SolverRebuilds),
           static_cast<unsigned long long>(C.RebuildsAvoided),
           static_cast<unsigned long long>(C.ConjunctSplits),
           static_cast<unsigned long long>(C.DiskHits),
           static_cast<unsigned long long>(C.DiskMisses),
           static_cast<unsigned long long>(C.DiskStores));
  Out += Buf;
}

bool wire::getStats(std::istream &In, EngineStats &S) {
  std::string Word;
  CheckStats &C = S.Check;
  return static_cast<bool>(
      (In >> Word) && Word == "stats" &&
      (In >> S.SmtQueries >> S.Samples >> S.Iterations >> S.Seconds >>
       S.TemplatesMined >> S.PolyhedraFacts >> C.ChecksIssued >> C.CacheHits >>
       C.CacheMisses >> C.CacheEvictions >> C.ScopePushes >> C.SolverRebuilds >>
       C.RebuildsAvoided >> C.ConjunctSplits >> C.DiskHits >> C.DiskMisses >>
       C.DiskStores));
}

std::optional<ChcResult> wire::parseStatus(const std::string &Word) {
  if (Word == "sat")
    return ChcResult::Sat;
  if (Word == "unsat")
    return ChcResult::Unsat;
  if (Word == "unknown")
    return ChcResult::Unknown;
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Plans
//===----------------------------------------------------------------------===//

std::vector<Lane> solver::defaultLanes(const EngineOptions &Base,
                                       const SolverRegistry &R) {
  std::vector<Lane> Lanes;
  Lanes.push_back({EngineId("la"), "la", Base});
  {
    Lane Seeded{EngineId("la"), "la-seed2", Base};
    Seeded.Opts.Seed = Base.Seed ? Base.Seed + 1 : 2;
    Lanes.push_back(std::move(Seeded));
  }
  Lanes.push_back({EngineId("analysis"), "analysis", Base});
  // Baseline lanes only when `registerBuiltinEngines()` ran.
  if (R.contains(EngineId("pdr")))
    Lanes.push_back({EngineId("pdr"), "pdr", Base});
  if (R.contains(EngineId("unwind")))
    Lanes.push_back({EngineId("unwind"), "unwind", Base});
  return Lanes;
}

Plan solver::singlePlan(const EngineId &Engine, const EngineOptions &Base) {
  Plan P;
  P.Base = Base;
  P.Stages.emplace_back().Lanes.push_back({Engine, Engine.str(), Base});
  return P;
}

Plan solver::racePlan(const EngineOptions &Base, const SolverRegistry &R) {
  Plan P;
  P.Name = "portfolio";
  P.Base = Base;
  P.Stages.emplace_back().Lanes = defaultLanes(Base, R);
  return P;
}

Plan solver::stagedPlan(const EngineOptions &Base, size_t TopK,
                        std::shared_ptr<const EngineSelector> Selector,
                        const SolverRegistry &R) {
  Plan P;
  P.Name = "staged";
  P.Base = Base;
  P.Selector = std::move(Selector);
  P.Stages.resize(3);
  // The probe doubles as feature extraction: its analysis completes the
  // feature vector the top-k stage is ranked on, and a static discharge
  // ends the solve.
  Stage &Probe = P.Stages[0];
  Probe.Name = "probe";
  Probe.Prefix = "probe:";
  Probe.Lanes.push_back({EngineId("analysis"), "analysis", Base});
  Probe.Fraction = 0.15;
  Probe.MinSeconds = 0.5;
  Probe.MaxSeconds = Probe.UnlimitedSeconds = 10;
  Probe.InProcess = true;
  Stage &Top = P.Stages[1];
  Top.Name = "top-k";
  Top.Prefix = "top:";
  Top.TopK = std::max<size_t>(TopK, 1);
  Top.Fraction = 0.35;
  Top.UnlimitedSeconds = 30;
  // The closing race is why staged scheduling can never solve less than
  // the race, only later.
  Stage &Race = P.Stages[2];
  Race.Name = "race";
  Race.Prefix = "race:";
  Race.Lanes = defaultLanes(Base, R);
  return P;
}

namespace {

//===----------------------------------------------------------------------===//
// Process-mode lane wire format
//
// A forked lane cannot hand back term pointers — they live in the child's
// address space. Instead the child serializes its result to text: verdict,
// whether the static analysis discharged the system, display name, stats,
// the printed interpretation formula per predicate (via
// smtlib2::printTerm, so symbols are quoted canonically), and the
// counterexample as plain numbers. The parent parses this wire form and,
// for a winning sat lane, rebuilds each formula in the input TermManager by
// printing a one-clause synthetic HORN script, parsing it, and substituting
// the head-argument variables with the real predicate parameters.
//===----------------------------------------------------------------------===//

/// Parsed form of a process-mode lane payload.
struct LaneWire {
  ChcResult Status = ChcResult::Unknown;
  bool SolvedByAnalysis = false;
  std::string Name;
  EngineStats Stats;
  /// Printed interpretation formula per predicate index (sat only).
  std::vector<std::string> Formulas;
  /// Counterexample over the parent's predicates (unsat only).
  std::optional<Counterexample> Cex;
};

/// Child side: the lane result as a self-contained text payload.
std::string serializeLaneResult(const ChcSystem &System,
                                const std::string &Name,
                                const ChcSolverResult &Res,
                                bool SolvedByAnalysis) {
  std::string Out = "lane 2\nstatus ";
  Out += chc::toString(Res.Status);
  Out += SolvedByAnalysis ? " 1\n" : " 0\n";
  wire::putBlock(Out, "name", Name);
  wire::putStats(Out, Res.Stats);
  if (Res.Status == ChcResult::Sat) {
    Out += "model " + std::to_string(System.predicates().size()) + '\n';
    for (const Predicate *P : System.predicates())
      wire::putBlock(Out, "interp", smtlib2::printTerm(Res.Interp.get(P)));
  } else if (Res.Status == ChcResult::Unsat && Res.Cex) {
    Out += "cex 1\n";
    Out += "query " + std::to_string(Res.Cex->QueryClauseIndex) + ' ' +
           std::to_string(Res.Cex->QueryChildren.size());
    for (size_t C2 : Res.Cex->QueryChildren)
      Out += ' ' + std::to_string(C2);
    Out += '\n';
    Out += "nodes " + std::to_string(Res.Cex->Nodes.size()) + '\n';
    for (const Counterexample::Node &N : Res.Cex->Nodes) {
      Out += "node " + std::to_string(N.Pred->Index) + ' ' +
             std::to_string(N.ClauseIndex) + ' ' +
             std::to_string(N.Args.size());
      for (const Rational &A : N.Args)
        Out += ' ' + A.toString();
      Out += ' ' + std::to_string(N.Children.size());
      for (size_t C2 : N.Children)
        Out += ' ' + std::to_string(C2);
      Out += '\n';
    }
  }
  Out += "end\n";
  return Out;
}

/// Reads a count (at most 2^20) followed by that many indices.
bool getIndices(std::istream &In, std::vector<size_t> &Out) {
  size_t N = 0;
  if (!(In >> N) || N > (size_t(1) << 20))
    return false;
  Out.resize(N);
  for (size_t &I : Out)
    if (!(In >> I))
      return false;
  return true;
}

/// Parent side: payload text back into LaneWire. Strict — any framing
/// mismatch fails the whole parse and the lane is reported as crashed.
bool parseLaneWire(const std::string &Payload, const ChcSystem &System,
                   LaneWire &W) {
  std::istringstream In(Payload);
  std::string Word;
  int Version = 0;
  int ByAnalysis = 0;
  if (!(In >> Word >> Version) || Word != "lane" || Version != 2)
    return false;
  if (!(In >> Word) || Word != "status" || !(In >> Word))
    return false;
  std::optional<ChcResult> Status = wire::parseStatus(Word);
  if (!Status || !(In >> ByAnalysis))
    return false;
  W.Status = *Status;
  W.SolvedByAnalysis = ByAnalysis != 0;
  if (!wire::getBlock(In, "name", W.Name) || !wire::getStats(In, W.Stats) ||
      !(In >> Word))
    return false;
  const std::vector<const Predicate *> &Preds = System.predicates();
  if (Word == "model") {
    size_t N = 0;
    if (!(In >> N) || N != Preds.size() || In.get() != '\n')
      return false;
    W.Formulas.resize(N);
    for (size_t I = 0; I != N; ++I)
      if (!wire::getBlock(In, "interp", W.Formulas[I]))
        return false;
    if (!(In >> Word))
      return false;
  } else if (Word == "cex") {
    Counterexample &Cex = W.Cex.emplace();
    int Present = 0;
    size_t NNodes = 0;
    if (!(In >> Present) || Present != 1 || !(In >> Word) || Word != "query" ||
        !(In >> Cex.QueryClauseIndex) || !getIndices(In, Cex.QueryChildren) ||
        !(In >> Word) || Word != "nodes" || !(In >> NNodes) ||
        NNodes > (size_t(1) << 20))
      return false;
    Cex.Nodes.resize(NNodes);
    for (Counterexample::Node &Node : Cex.Nodes) {
      size_t Pred = 0;
      size_t NArgs = 0;
      if (!(In >> Word) || Word != "node" || !(In >> Pred) ||
          Pred >= Preds.size() || !(In >> Node.ClauseIndex) ||
          !(In >> NArgs) || NArgs > (size_t(1) << 20))
        return false;
      Node.Pred = Preds[Pred];
      for (size_t J = 0; J != NArgs; ++J) {
        std::optional<Rational> Arg;
        if (!(In >> Word) || !(Arg = Rational::fromString(Word)))
          return false;
        Node.Args.push_back(*Arg);
      }
      if (!getIndices(In, Node.Children))
        return false;
    }
    if (!(In >> Word))
      return false;
  }
  return Word == "end";
}

/// Rebuilds one predicate's printed interpretation formula as a term over
/// `P->Params` in the input manager. The formula is wrapped into a
/// one-clause HORN script whose binders reuse the predicate's own parameter
/// symbols, parsed with the strict front end, and the parsed head-argument
/// variables are substituted with the real parameters (a no-op when the
/// parser interned the binders onto the existing variables).
const Term *parseInterpFormula(const ChcSystem &System, const Predicate *P,
                               const std::string &Formula,
                               std::string &Error) {
  TermManager &TM = System.termManager();
  std::string Script = "(set-logic HORN)\n(declare-fun |la!interp| (";
  for (size_t J = 0; J != P->arity(); ++J)
    Script += J == 0 ? "Int" : " Int";
  Script += ") Bool)\n(assert (forall (";
  if (P->arity() == 0)
    Script += "(|la!unused| Int)";
  for (const Term *Param : P->Params)
    Script += "(" + smtlib2::printTerm(Param) + " Int)";
  Script += ") (=> " + Formula + " ";
  if (P->arity() == 0) {
    Script += "|la!interp|";
  } else {
    Script += "(|la!interp|";
    for (const Term *Param : P->Params)
      Script += " " + smtlib2::printTerm(Param);
    Script += ")";
  }
  Script += ")))\n(check-sat)\n";

  ChcSystem Tmp(TM);
  smtlib2::ParseResult PR = smtlib2::parseSmtLib2(Script, Tmp);
  if (!PR.Ok) {
    Error = "cannot reparse lane model formula: " + PR.error();
    return nullptr;
  }
  if (Tmp.clauses().size() != 1 || !Tmp.clauses()[0].HeadPred ||
      Tmp.clauses()[0].HeadPred->Args.size() != P->arity()) {
    Error = "lane model formula reparsed into an unexpected clause shape";
    return nullptr;
  }
  const HornClause &Clause = Tmp.clauses()[0];
  std::unordered_map<const Term *, const Term *> Map;
  for (size_t J = 0; J != P->arity(); ++J)
    Map[Clause.HeadPred->Args[J]] = P->Params[J];
  return TM.substitute(Clause.Constraint, Map);
}

/// Reconstitutes the winning process lane's wire result in the input
/// manager. A model that fails to rebuild keeps the verdict but records
/// the reason in the lane report (the façade's validation pass will then
/// flag the default all-true interpretation).
ChcSolverResult rebuildLaneResult(const ChcSystem &System, const LaneWire &W,
                                  EngineReport &Report) {
  ChcSolverResult Out(System.termManager());
  Out.Status = W.Status;
  Out.Stats = W.Stats;
  if (W.Status == ChcResult::Sat &&
      W.Formulas.size() == System.predicates().size()) {
    for (size_t I = 0; I != W.Formulas.size(); ++I) {
      std::string Error;
      const Term *F = parseInterpFormula(System, System.predicates()[I],
                                         W.Formulas[I], Error);
      if (F == nullptr) {
        Report.Error = Error;
        break;
      }
      Out.Interp.set(System.predicates()[I], F);
    }
  } else if (W.Status == ChcResult::Unsat) {
    Out.Cex = W.Cex;
  }
  return Out;
}

/// Copies the winning lane's result back into the input system's manager.
/// Predicates map by index (cloning preserves declaration order), terms go
/// through `TermManager::import`, counterexample arguments are plain
/// rationals and copy directly.
ChcSolverResult translateBack(const ChcSystem &System, const ChcSystem &Clone,
                              const ChcSolverResult &Res) {
  TermManager &TM = System.termManager();
  ChcSolverResult Out(TM);
  Out.Status = Res.Status;
  Out.Stats = Res.Stats;
  if (Res.Status == ChcResult::Sat) {
    for (size_t I = 0, N = System.predicates().size(); I != N; ++I)
      Out.Interp.set(System.predicates()[I],
                     TM.import(Res.Interp.get(Clone.predicates()[I])));
  } else if (Res.Status == ChcResult::Unsat && Res.Cex) {
    Out.Cex = Res.Cex;
    for (Counterexample::Node &N : Out.Cex->Nodes)
      N.Pred = System.predicates()[N.Pred->Index];
  }
  return Out;
}

/// Everything one lane owns. Workers only ever touch their own slot; the
/// main thread reads the slots after joining every worker.
struct LaneRun {
  EngineId Engine;
  EngineOptions Opts;
  std::unique_ptr<TermManager> TM;
  std::unique_ptr<ChcSystem> Clone;
  std::optional<ChcSolverResult> Result;
  std::optional<LaneWire> Wire; ///< process mode: parsed child payload
  bool SolvedByAnalysis = false;
  std::optional<analysis::AnalysisResult> Analysis;
  EngineReport Report;
};

void markFailed(EngineReport &Report, const char *What, const char *Fallback) {
  Report.Crashed = true;
  Report.Outcome = LaneOutcome::Failed;
  // Keep the engine's own words: the diagnostic is the only trace of what
  // went wrong that survives into reports and logs.
  Report.Error = (What != nullptr && *What != '\0') ? What : Fallback;
}

/// Solves \p System with \p Solver and notes what a data-driven engine
/// knows beyond its result: whether its analysis discharged the system,
/// and (when \p Keep is set) the analysis itself.
ChcSolverResult solveNoting(ChcSolverInterface &Solver, const ChcSystem &System,
                            bool &SolvedByAnalysis,
                            std::optional<analysis::AnalysisResult> *Keep) {
  ChcSolverResult R = Solver.solve(System);
  if (const auto *DD = dynamic_cast<const DataDrivenChcSolver *>(&Solver)) {
    SolvedByAnalysis = DD->detailedStats().SolvedByAnalysis;
    if (Keep != nullptr)
      *Keep = DD->analysisResult();
  }
  return R;
}

void runThreadLane(const ChcSystem &Input, const SolverRegistry &Registry,
                   LaneRun &Run, bool KeepAnalysis) {
  try {
    std::unique_ptr<ChcSolverInterface> Solver =
        Registry.create(Run.Engine, Run.Opts);
    Run.Report.Name = Solver->name();
    Run.Result = solveNoting(*Solver, Input, Run.SolvedByAnalysis,
                             KeepAnalysis ? &Run.Analysis : nullptr);
    Run.Report.Status = Run.Result->Status;
    Run.Report.Stats = Run.Result->Stats;
  } catch (const std::exception &E) {
    markFailed(Run.Report, E.what(),
               "engine threw an exception with no message");
  } catch (...) {
    markFailed(Run.Report, nullptr, "engine threw a non-standard exception");
  }
}

/// Runs one lane in a forked child. The engine is created in the parent —
/// `Registry.create` takes locks that must never be acquired in a forked
/// child of a multithreaded process — and the child only calls `solve` over
/// already-owned data.
void runProcessLane(const ChcSystem &System, const SolverRegistry &Registry,
                    LaneRun &Run,
                    const std::shared_ptr<CancellationToken> &Token) {
  std::unique_ptr<ChcSolverInterface> Solver;
  EngineOptions ChildOpts = Run.Opts;
  ChildOpts.Cancel = nullptr; // cancellation is delivered as SIGKILL
  try {
    Solver = Registry.create(Run.Engine, ChildOpts);
  } catch (const std::exception &E) {
    markFailed(Run.Report, E.what(), "engine construction failed");
    return;
  }
  Run.Report.Name = Solver->name();

  ProcessLimits PL;
  // The child engine enforces its own soft wall budget and returns Unknown;
  // the parent's hard kill lands one second later, for engines that cannot
  // be trusted to stop on their own.
  if (ChildOpts.Limits.WallSeconds > 0)
    PL.WallSeconds = ChildOpts.Limits.WallSeconds + 1.0;

  ChcSolverInterface *SolverPtr = Solver.get();
  ProcessResult PR = runInChildProcess(
      [SolverPtr, &System]() {
        bool ByAnalysis = false;
        ChcSolverResult R =
            solveNoting(*SolverPtr, System, ByAnalysis, nullptr);
        return serializeLaneResult(System, SolverPtr->name(), R, ByAnalysis);
      },
      PL, Token);

  Run.Report.Outcome = PR.Outcome;
  switch (PR.Outcome) {
  case LaneOutcome::Completed: {
    LaneWire W;
    if (parseLaneWire(PR.Payload, System, W)) {
      Run.Report.Status = W.Status;
      Run.Report.Stats = W.Stats;
      if (!W.Name.empty())
        Run.Report.Name = W.Name;
      Run.SolvedByAnalysis = W.SolvedByAnalysis;
      Run.Wire = std::move(W);
    } else {
      Run.Report.Crashed = true;
      Run.Report.Outcome = LaneOutcome::Crashed;
      Run.Report.Error = "malformed lane result payload";
    }
    break;
  }
  case LaneOutcome::Failed:
  case LaneOutcome::MemoryLimit:
  case LaneOutcome::Crashed:
  case LaneOutcome::CpuLimit:
    Run.Report.Crashed = true;
    Run.Report.Error = PR.describe();
    break;
  case LaneOutcome::TimedOut:
  case LaneOutcome::Cancelled:
    // A killed lane says why: a crash still in progress (an ASan report,
    // say) when another lane won reads as cancelled, not as silence.
    Run.Report.Error = PR.describe();
    break;
  }
}

/// The selector's best \p K selectable engines over \p Features.
std::vector<Lane> topLanes(const Plan &P, const ProblemFeatures &Features,
                           const SolverRegistry &Registry, size_t K) {
  RuleSelector Rules;
  const EngineSelector &Selector = P.Selector ? *P.Selector : Rules;
  std::vector<EngineInfo> Candidates = Registry.selectable();
  // Probe-class engines cannot answer anything the probe did not.
  std::erase_if(Candidates, [](const EngineInfo &E) {
    return E.TypicalCost == CostClass::Probe;
  });
  std::vector<RankedEngine> Ranked = Selector.rank(Features, Candidates);
  if (Ranked.size() > K)
    Ranked.resize(K);
  std::vector<Lane> Lanes;
  for (const RankedEngine &R : Ranked)
    Lanes.push_back({R.Id, R.Id.str(), P.Base});
  return Lanes;
}

} // namespace

//===----------------------------------------------------------------------===//
// PlanSolver
//===----------------------------------------------------------------------===//

PlanSolver::PlanSolver(Plan Pl) : P(std::move(Pl)), DisplayName(P.Name) {
  if (DisplayName.empty() && !P.Stages.empty() && !P.Stages[0].Lanes.empty())
    DisplayName = P.Stages[0].Lanes[0].Engine.str();
}

ChcSolverResult PlanSolver::solve(const ChcSystem &System) {
  Timer Clock;
  Reports.clear();
  Stages.clear();
  Features = ProblemFeatures::fromSystem(System);
  Analysis = analysis::AnalysisResult::allLive(System);
  SolvedByAnalysis = false;
  Escalated = false;
  const SolverRegistry &Registry =
      P.Registry ? *P.Registry : SolverRegistry::global();
  const double Wall = P.Base.Limits.WallSeconds;

  ChcSolverResult Final(System.termManager());
  for (size_t I = 0; I != P.Stages.size(); ++I) {
    const Stage &S = P.Stages[I];
    double Elapsed = Clock.elapsedSeconds();
    if (I > 0 && ((Wall > 0 && Elapsed >= Wall) || isCancelled(P.Base.Cancel)))
      break;
    std::vector<Lane> Lanes =
        S.TopK > 0 ? topLanes(P, Features, Registry, S.TopK) : S.Lanes;
    if (Lanes.empty())
      continue;
    if (I > 0 && I + 1 == P.Stages.size())
      Escalated = true;
    double Budget = S.UnlimitedSeconds;
    if (Wall > 0) {
      double Share = S.Fraction * Wall;
      if (S.MaxSeconds > 0)
        Share = std::min(Share, S.MaxSeconds);
      Budget = std::min(Wall - Elapsed,
                        std::max(std::min(S.MinSeconds, Wall), Share));
    }
    bool KeepAnalysis = I == 0 && Lanes.size() == 1;
    std::optional<ChcSolverResult> Res = runStage(
        System, Registry, S, std::move(Lanes), Budget, Elapsed, KeepAnalysis);
    if (Res) {
      Final = std::move(*Res);
      break;
    }
  }
  Final.Stats.Seconds = Clock.elapsedSeconds();
  if (P.Name.empty() && !Reports.empty() && !Reports[0].Name.empty())
    DisplayName = Reports[0].Name;
  return Final;
}

std::optional<ChcSolverResult>
PlanSolver::runStage(const ChcSystem &System, const SolverRegistry &Registry,
                     const Stage &S, std::vector<Lane> Lanes, double Budget,
                     double StageStart, bool KeepAnalysis) {
  Timer StageClock;
  auto OnPlanClock = [&] { return StageStart + StageClock.elapsedSeconds(); };
  // The stage token: tripped by the first definitive answer, and read as
  // tripped once the stage deadline passes or the caller's token trips, so
  // lanes only ever poll one token and need no monitor thread.
  auto Token = std::make_shared<CancellationToken>(P.Base.Cancel, Budget);
  const bool Forked = P.Isolate == Isolation::Process && !S.InProcess;
  size_t ThreadLanes = 0;
  for (const Lane &L : Lanes)
    ThreadLanes += !Forked && Registry.contains(L.Engine) ? 1 : 0;

  StageReport Record;
  Record.Stage = S.Name;
  Record.BudgetSeconds = Budget;
  std::vector<LaneRun> Runs(Lanes.size());
  std::vector<size_t> Runnable;
  for (size_t I = 0; I != Lanes.size(); ++I) {
    Lane &L = Lanes[I];
    LaneRun &Run = Runs[I];
    Run.Report.Lane = S.Prefix + (L.Label.empty() ? L.Engine.str() : L.Label);
    Run.Report.Engine = L.Engine.str();
    Run.Report.LaneIndex = Reports.size() + I;
    Record.Engines.push_back(Run.Report.Lane);
    if (!Registry.contains(L.Engine)) {
      std::string Error = "unknown engine id '" + L.Engine.str() + "'";
      markFailed(Run.Report, Error.c_str(), "");
      continue;
    }
    // Two thread lanes cannot share one manager. The clone happens before
    // any lane starts, so the input manager is never touched concurrently.
    if (ThreadLanes >= 2) {
      Run.TM = std::make_unique<TermManager>();
      Run.Clone = std::make_unique<ChcSystem>(*Run.TM);
      cloneSystem(System, *Run.Clone);
    }
    Run.Engine = L.Engine;
    Run.Opts = std::move(L.Opts);
    // A lane keeps its own wall cap when tighter; the stage budget is also
    // its soft engine deadline, so engines stop on their own first.
    Run.Opts.Limits = Run.Opts.Limits.resolvedOver(P.Base.Limits);
    if (Budget > 0 && (Run.Opts.Limits.WallSeconds <= 0 ||
                       Run.Opts.Limits.WallSeconds > Budget))
      Run.Opts.Limits.WallSeconds = Budget;
    Run.Opts.Cancel = Token;
    Run.Report.QueuedSeconds = OnPlanClock();
    Runnable.push_back(I);
  }

  std::atomic<int> WinnerIdx{-1};
  auto RunLane = [&](size_t I) {
    LaneRun &Run = Runs[I];
    Timer LaneClock;
    Run.Report.StartSeconds = OnPlanClock();
    if (Forked)
      runProcessLane(System, Registry, Run, Token);
    else
      runThreadLane(Run.Clone ? *Run.Clone : System, Registry, Run,
                    KeepAnalysis);
    Run.Report.Seconds = LaneClock.elapsedSeconds();
    Run.Report.StopSeconds = OnPlanClock();
    Run.Report.Cancelled = !Run.Report.Crashed &&
                           Run.Report.Status == ChcResult::Unknown &&
                           Token->cancelled();
    if (Run.Report.Status != ChcResult::Unknown) {
      // First definitive answer claims the stage and stops everyone else
      // within one SMT propagation round.
      int Expected = -1;
      if (WinnerIdx.compare_exchange_strong(Expected, static_cast<int>(I),
                                            std::memory_order_acq_rel))
        Token->cancel();
    }
  };
  // The first lane runs on the calling thread. A one-lane stage thus starts
  // no thread, and a process that never starts one keeps glibc's and
  // libstdc++'s single-thread fast paths: one-lane `la` solves measured
  // about 10% faster that way.
  std::vector<std::thread> Workers;
  for (size_t K = 1; K < Runnable.size(); ++K)
    Workers.emplace_back(RunLane, Runnable[K]);
  if (!Runnable.empty())
    RunLane(Runnable[0]);
  for (std::thread &W : Workers)
    W.join();

  if (KeepAnalysis) {
    SolvedByAnalysis = Runs[0].SolvedByAnalysis;
    if (Runs[0].Analysis) {
      Analysis = std::move(*Runs[0].Analysis);
      Features.addAnalysis(Analysis);
    }
  }
  std::optional<ChcSolverResult> Out;
  int Winner = WinnerIdx.load(std::memory_order_acquire);
  if (Winner >= 0) {
    LaneRun &Run = Runs[static_cast<size_t>(Winner)];
    Run.Report.Winner = true;
    Run.Report.Cancelled = false;
    if (Run.Wire)
      Out = rebuildLaneResult(System, *Run.Wire, Run.Report);
    else if (Run.Clone)
      Out = translateBack(System, *Run.Clone, *Run.Result);
    else
      Out = std::move(*Run.Result);
    Record.Status = Out->Status;
    Record.Hit = true;
  }
  Record.Seconds = StageClock.elapsedSeconds();
  Stages.push_back(std::move(Record));
  for (LaneRun &Run : Runs)
    Reports.push_back(std::move(Run.Report));
  return Out;
}
