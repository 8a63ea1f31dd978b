//===- solver/SolveFacade.cpp - One-call CHC solving façade ---------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solver/SolveFacade.h"

#include "frontend/Encoder.h"
#include "smtlib2/Parser.h"
#include "smtlib2/Printer.h"
#include "support/FileCache.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace la;
using namespace la::chc;
using namespace la::solver::wire;

const char *solver::toString(SourceFormat F) {
  switch (F) {
  case SourceFormat::Auto:
    return "auto";
  case SourceFormat::SmtLib2:
    return "smt2";
  case SourceFormat::MiniC:
    return "mini-c";
  }
  return "?";
}

std::optional<solver::SourceFormat>
solver::parseSourceFormat(const std::string &Name) {
  if (Name == "auto")
    return SourceFormat::Auto;
  if (Name == "smt2" || Name == "smtlib2" || Name == "horn")
    return SourceFormat::SmtLib2;
  if (Name == "mini-c" || Name == "minic" || Name == "c")
    return SourceFormat::MiniC;
  return std::nullopt;
}

std::string solver::SolveResult::summary() const {
  if (!Ok)
    return "error: " + Error;
  std::string Out = toString(Status);
  Out += " (" + SolverName + ", " + Solver.summary() + ")";
  size_t Inlined = 0, Removed = 0;
  for (const analysis::PassStats &P : AnalysisPasses) {
    Inlined += P.PredicatesInlined;
    Removed += P.ClausesRemoved;
  }
  if (Inlined + Removed > 0)
    Out += " [inlined " + std::to_string(Inlined) + " preds, removed " +
           std::to_string(Removed) + " clauses]";
  // Per-pass wall-clock and the new hot-path counters (transfer cache, LP
  // pivots) so a one-line summary shows where the analysis time went.
  if (!AnalysisPasses.empty()) {
    size_t XferHits = 0, XferMisses = 0;
    unsigned long long Pivots = 0;
    std::string Times;
    for (const analysis::PassStats &P : AnalysisPasses) {
      XferHits += P.XferCacheHits;
      XferMisses += P.XferCacheMisses;
      Pivots += P.LpPivots;
      char Seg[96];
      snprintf(Seg, sizeof(Seg), "%s%s %.0fms", Times.empty() ? "" : "  ",
               P.Name.c_str(), P.Seconds * 1000.0);
      Times += Seg;
    }
    Out += " [" + Times + "]";
    if (XferHits + XferMisses > 0)
      Out += " [xfer-cache " + std::to_string(XferHits) + "/" +
             std::to_string(XferHits + XferMisses) + "]";
    if (Pivots > 0)
      Out += " [lp-pivots " + std::to_string(Pivots) + "]";
  }
  if (SolvedByAnalysis)
    Out += " [solved by pre-analysis]";
  if (!Stages.empty()) {
    // Staged run: which rung of the ladder answered ('*'), and whether the
    // escalation race was needed at all.
    Out += " [stages:";
    for (const StageReport &S : Stages) {
      char Seg[96];
      snprintf(Seg, sizeof(Seg), " %s%s %.3fs", S.Stage.c_str(),
               S.Hit ? "*" : "", S.Seconds);
      Out += Seg;
    }
    Out += Escalated ? "; escalated]" : "]";
  }
  if (FromDiskCache)
    Out += " [disk-cache]";
  // Per-lane block for race and staged runs — and for any run with a killed
  // or crashed lane, so isolation events are never silent. `Engines` is in
  // start order, so the rendering is deterministic regardless of
  // completion order.
  bool AnyAbnormal =
      std::any_of(Engines.begin(), Engines.end(), [](const EngineReport &R) {
        return R.Crashed || R.Outcome != LaneOutcome::Completed;
      });
  if (Engines.size() > 1 || AnyAbnormal) {
    for (const EngineReport &R : Engines) {
      char Mark = R.Winner ? '*' : R.Crashed ? '!' : R.Cancelled ? '~' : ' ';
      char Line[160];
      snprintf(Line, sizeof(Line), "\n  %c %-12s %-8s %.3fs", Mark,
               R.Lane.c_str(), toString(R.Status), R.Seconds);
      Out += Line;
      if (R.Outcome != LaneOutcome::Completed)
        Out += std::string("  [") + la::toString(R.Outcome) + "]";
      if (R.Crashed || !R.Error.empty())
        Out += "  [" + R.Error + "]";
    }
  }
  return Out;
}

namespace {

std::string unknownEngineError(const solver::SolverRegistry &Registry,
                               const solver::EngineId &Id) {
  std::string Error = "unknown engine '" + Id.str() + "' (registered:";
  for (const solver::EngineId &Known : Registry.engineIds())
    Error += " " + Known.str();
  Error += ")";
  return Error;
}

/// Re-checks a sat model on what is left of the wall budget \p Clock.
/// \returns std::nullopt when the budget or the caller's token ran out
/// before the check could finish.
std::optional<ClauseStatus>
validateWithin(const ChcSystem &System, const Interpretation &Interp,
               const Deadline &Clock,
               const std::shared_ptr<const CancellationToken> &Cancel) {
  smt::SmtSolver::Options Check;
  Check.Cancel = Cancel;
  if (Clock.hasLimit()) {
    double Left = Clock.remainingSeconds();
    if (Left <= 0)
      return std::nullopt;
    Check.Cancel = std::make_shared<CancellationToken>(Cancel, Left);
  }
  ClauseStatus S = checkInterpretation(System, Interp, Check);
  if (S == ClauseStatus::Unknown && isCancelled(Check.Cancel))
    return std::nullopt;
  return S;
}

} // namespace

solver::SolveResult solver::solveSystem(const ChcSystem &System,
                                        const SolveOptions &Opts) {
  SolveResult Out;
  Out.Clauses = System.clauses().size();
  Out.Predicates = System.predicates().size();
  Out.Recursive = System.isRecursive();

  const SolverRegistry &Registry = SolverRegistry::global();
  EngineOptions EO;
  EO.Limits = Opts.Limits;
  EO.Cancel = Opts.Cancel;
  EO.DataDriven = Opts.Solver;
  // The persistent clause-verdict tier rides inside the data-driven
  // options, so every lane shares one disk cache.
  EO.DataDriven.CheckCache = Opts.DiskCache;
  // Non-data-driven engines share the data-driven SMT budget by default.
  EO.Smt = Opts.Solver.Smt;

  // `auto` means staged when there is a real engine choice to make, the
  // plain race otherwise.
  SchedulePolicy Policy = Opts.Schedule.Policy;
  if (Policy == SchedulePolicy::Auto)
    Policy = Registry.selectable().size() >= 2 ? SchedulePolicy::Staged
                                               : SchedulePolicy::Race;
  Plan P;
  if (Policy == SchedulePolicy::Staged) {
    P = stagedPlan(EO, Opts.Schedule.TopK, Opts.Schedule.Selector, Registry);
  } else if (Policy == SchedulePolicy::Race) {
    P = racePlan(EO, Registry);
  } else if (Registry.contains(Opts.Engine)) {
    P = singlePlan(Opts.Engine, EO);
  } else {
    Out.Error = unknownEngineError(Registry, Opts.Engine);
    return Out;
  }
  P.Isolate = Opts.Isolate;

  // The wall budget covers the model check as well as the plan.
  Deadline Clock(Opts.Limits.WallSeconds);
  PlanSolver Solver(std::move(P));
  ChcSolverResult R = Solver.solve(System);
  if (R.Status == ChcResult::Sat && Opts.ValidateModel) {
    // A model that cannot be checked within the budget is not reported:
    // the answer is Unknown, as if the engine had run out of time.
    std::optional<ClauseStatus> V =
        validateWithin(System, R.Interp, Clock, Opts.Cancel);
    if (V)
      Out.ModelValidated = *V == ClauseStatus::Valid;
    else
      R.Status = ChcResult::Unknown;
  }
  Out.Ok = true;
  Out.SolverName = Solver.name();
  Out.Status = R.Status;
  Out.Solver = R.Stats;
  if (R.Status == ChcResult::Sat)
    Out.Model = R.Interp.toString();
  if (R.Status == ChcResult::Unsat && R.Cex)
    Out.Cex = R.Cex->toString(System);
  Out.Engines = Solver.reports();
  if (Policy == SchedulePolicy::Staged)
    Out.Stages = Solver.stages();
  Out.Escalated = Solver.escalated();
  Out.AnalysisPasses = Solver.analysis().Passes;
  Out.SolvedByAnalysis = Solver.solvedByAnalysis();
  return Out;
}

solver::SolveOptionsBuilder::Validated solver::SolveOptionsBuilder::build()
    const {
  Validated V;
  V.Options = Opts;
  const Budget &Limits = Opts.Limits;
  if (!(Limits.WallSeconds >= 0) || std::isinf(Limits.WallSeconds)) {
    V.Error = "wall budget must be a finite non-negative number of seconds";
    return V;
  }
  if (Opts.Schedule.TopK < 1) {
    V.Error = "staged scheduling needs top-k >= 1";
    return V;
  }
  if (CrashEngines && Opts.Isolate != Isolation::Process) {
    V.Error = "crash engines require process isolation "
              "(--isolation process): a thread-mode segfault kills the "
              "whole process";
    return V;
  }
  if (EngineExplicit && ScheduleExplicit &&
      Opts.Schedule.Policy != SchedulePolicy::Single) {
    V.Error = "an explicit engine ('" + Opts.Engine.str() +
              "') contradicts schedule policy '" +
              toString(Opts.Schedule.Policy) +
              "', which picks engines itself; drop one of the two";
    return V;
  }
  V.Ok = true;
  return V;
}

namespace {

/// Budgets are bucketed by ceil(log2(seconds)) so near-identical budgets
/// share cache records while a much larger budget (which could turn an
/// Unknown into a verdict) gets its own keyspace. -1 = unlimited.
int budgetBucket(double WallSeconds) {
  if (WallSeconds <= 0)
    return -1;
  int B = 0;
  double V = 1;
  while (V < WallSeconds && B < 24) {
    V *= 2;
    ++B;
  }
  return B;
}

std::string verdictCacheKey(const ChcSystem &System,
                            const solver::SolveOptions &Opts) {
  smtlib2::PrintOptions PO;
  PO.ClauseComments = false;
  // The schedule policy (and its top-k width) is part of the key: under
  // `single` the verdict depends on which engine ran, under `staged` on how
  // far the escalation ladder got within the budget.
  std::string Policy = solver::toString(Opts.Schedule.Policy);
  if (Opts.Schedule.Policy == solver::SchedulePolicy::Staged ||
      Opts.Schedule.Policy == solver::SchedulePolicy::Auto)
    Policy += "k" + std::to_string(Opts.Schedule.TopK);
  return "v2|" + FileCache::hashKey(smtlib2::printSmtLib2(System, PO)) + "|" +
         Opts.Engine.str() + "|" + Policy + "|b" +
         std::to_string(budgetBucket(Opts.Limits.WallSeconds)) + "|" +
         (Opts.ValidateModel ? "val" : "noval");
}

} // namespace

std::string solver::serializeResult(const SolveResult &R) {
  // Version 2: the engine line grew the lane index + race-clock offsets,
  // and stage records follow the engine list. Version-1 records simply
  // read as cache misses.
  std::string Out = "la-solve 2\n";
  Out += std::string("status ") + chc::toString(R.Status) + "\n";
  Out += "flags " + std::to_string(R.ModelValidated ? 1 : 0) + ' ' +
         std::to_string(R.Recursive ? 1 : 0) + ' ' +
         std::to_string(R.SolvedByAnalysis ? 1 : 0) + ' ' +
         std::to_string(R.Escalated ? 1 : 0) + '\n';
  Out += "sizes " + std::to_string(R.Clauses) + ' ' +
         std::to_string(R.Predicates) + '\n';
  putBlock(Out, "solver", R.SolverName);
  putBlock(Out, "model", R.Model);
  putBlock(Out, "cex", R.Cex);
  putStats(Out, R.Solver);
  Out += "engines " + std::to_string(R.Engines.size()) + '\n';
  for (const EngineReport &E : R.Engines) {
    char Buf[192];
    snprintf(Buf, sizeof(Buf), "engine %s %d %d %d %d %.6f %zu %.6f %.6f %.6f\n",
             chc::toString(E.Status), E.Winner ? 1 : 0, E.Cancelled ? 1 : 0,
             E.Crashed ? 1 : 0, static_cast<int>(E.Outcome), E.Seconds,
             E.LaneIndex, E.QueuedSeconds, E.StartSeconds, E.StopSeconds);
    Out += Buf;
    putBlock(Out, "lane", E.Lane);
    putBlock(Out, "id", E.Engine);
    putBlock(Out, "name", E.Name);
    putBlock(Out, "error", E.Error);
    putStats(Out, E.Stats);
  }
  Out += "stages " + std::to_string(R.Stages.size()) + '\n';
  for (const StageReport &S : R.Stages) {
    char Buf[128];
    snprintf(Buf, sizeof(Buf), "stage %s %d %.6f %.6f\n",
             chc::toString(S.Status), S.Hit ? 1 : 0, S.BudgetSeconds,
             S.Seconds);
    Out += Buf;
    putBlock(Out, "stage-name", S.Stage);
    Out += "stage-engines " + std::to_string(S.Engines.size()) + '\n';
    for (const std::string &E : S.Engines)
      putBlock(Out, "stage-engine", E);
  }
  Out += "end\n";
  return Out;
}

bool solver::deserializeResult(const std::string &Text, SolveResult &R) {
  std::istringstream In(Text);
  std::string Word;
  int Version = 0;
  if (!(In >> Word >> Version) || Word != "la-solve" || Version != 2)
    return false;
  if (!(In >> Word) || Word != "status" || !(In >> Word))
    return false;
  std::optional<ChcResult> Status = parseStatus(Word);
  if (!Status)
    return false;
  R.Status = *Status;
  int Validated = 0;
  int Recursive = 0;
  int ByAnalysis = 0;
  int Escalated = 0;
  if (!(In >> Word) || Word != "flags" ||
      !(In >> Validated >> Recursive >> ByAnalysis >> Escalated))
    return false;
  R.ModelValidated = Validated != 0;
  R.Recursive = Recursive != 0;
  R.SolvedByAnalysis = ByAnalysis != 0;
  R.Escalated = Escalated != 0;
  if (!(In >> Word) || Word != "sizes" || !(In >> R.Clauses >> R.Predicates))
    return false;
  In.ignore(1, '\n');
  if (!getBlock(In, "solver", R.SolverName) || !getBlock(In, "model", R.Model) ||
      !getBlock(In, "cex", R.Cex) || !getStats(In, R.Solver))
    return false;
  size_t NumEngines = 0;
  if (!(In >> Word) || Word != "engines" || !(In >> NumEngines) ||
      NumEngines > 256)
    return false;
  R.Engines.resize(NumEngines);
  for (EngineReport &E : R.Engines) {
    int Winner = 0;
    int Cancelled = 0;
    int Crashed = 0;
    int Outcome = 0;
    if (!(In >> Word) || Word != "engine" || !(In >> Word))
      return false;
    Status = parseStatus(Word);
    if (!Status || !(In >> Winner >> Cancelled >> Crashed >> Outcome) ||
        !(In >> E.Seconds >> E.LaneIndex >> E.QueuedSeconds >>
          E.StartSeconds >> E.StopSeconds))
      return false;
    E.Status = *Status;
    E.Winner = Winner != 0;
    E.Cancelled = Cancelled != 0;
    E.Crashed = Crashed != 0;
    if (Outcome < 0 || Outcome > static_cast<int>(LaneOutcome::MemoryLimit))
      return false;
    E.Outcome = static_cast<LaneOutcome>(Outcome);
    In.ignore(1, '\n');
    if (!getBlock(In, "lane", E.Lane) || !getBlock(In, "id", E.Engine) ||
        !getBlock(In, "name", E.Name) || !getBlock(In, "error", E.Error) ||
        !getStats(In, E.Stats))
      return false;
  }
  size_t NumStages = 0;
  if (!(In >> Word) || Word != "stages" || !(In >> NumStages) || NumStages > 16)
    return false;
  R.Stages.resize(NumStages);
  for (StageReport &S : R.Stages) {
    int Hit = 0;
    if (!(In >> Word) || Word != "stage" || !(In >> Word))
      return false;
    Status = parseStatus(Word);
    if (!Status || !(In >> Hit >> S.BudgetSeconds >> S.Seconds))
      return false;
    S.Status = *Status;
    S.Hit = Hit != 0;
    In.ignore(1, '\n');
    if (!getBlock(In, "stage-name", S.Stage))
      return false;
    size_t NumLabels = 0;
    if (!(In >> Word) || Word != "stage-engines" || !(In >> NumLabels) ||
        NumLabels > 256)
      return false;
    In.ignore(1, '\n');
    S.Engines.resize(NumLabels);
    for (std::string &L : S.Engines)
      if (!getBlock(In, "stage-engine", L))
        return false;
  }
  if (!(In >> Word) || Word != "end")
    return false;
  R.Ok = true;
  R.Error.clear();
  return true;
}

solver::SourceFormat solver::detectFormat(const std::string &Path,
                                          const std::string &Source) {
  // Conclusive extensions first.
  auto EndsWith = [&](const char *Suffix) {
    size_t N = std::string(Suffix).size();
    return Path.size() >= N && Path.compare(Path.size() - N, N, Suffix) == 0;
  };
  if (EndsWith(".smt2") || EndsWith(".sl") || EndsWith(".chc"))
    return SourceFormat::SmtLib2;
  if (EndsWith(".c") || EndsWith(".mc") || EndsWith(".minic"))
    return SourceFormat::MiniC;
  // Content sniff: the first token after whitespace and `;` line comments.
  // SMT-LIB2 scripts open with `(`; mini-C opens with a declaration or
  // statement keyword. Anything else is inconclusive — returning Auto (not
  // guessing) lets `solve()` run the deterministic two-parser fallback and
  // report a diagnostic naming both rejected interpretations.
  size_t I = 0;
  while (I < Source.size()) {
    char C = Source[I];
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++I;
      continue;
    }
    if (C == ';') {
      while (I < Source.size() && Source[I] != '\n')
        ++I;
      continue;
    }
    break;
  }
  if (I < Source.size() && Source[I] == '(')
    return SourceFormat::SmtLib2;
  size_t End = I;
  while (End < Source.size() &&
         (std::isalpha(static_cast<unsigned char>(Source[End])) != 0 ||
          Source[End] == '_'))
    ++End;
  std::string Word = Source.substr(I, End - I);
  for (const char *Kw : {"int", "assume", "assert", "while", "if", "return"})
    if (Word == Kw)
      return SourceFormat::MiniC;
  return SourceFormat::Auto;
}

solver::SolveResult solver::solve(const SolveRequest &Request) {
  std::string Source;
  if (!Request.Path.empty()) {
    std::ifstream In(Request.Path);
    if (!In) {
      SolveResult Out;
      Out.Error = "cannot open " + Request.Path;
      return Out;
    }
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    Source = Buffer.str();
  } else {
    Source = Request.Source;
  }

  SourceFormat Format = Request.Format;
  if (Format == SourceFormat::Auto)
    Format = detectFormat(Request.Path, Source);

  auto TM = std::make_unique<TermManager>();
  auto System = std::make_unique<ChcSystem>(*TM);
  smtlib2::ParseOptions PO;
  PO.Filename = Request.Path;
  if (Format == SourceFormat::SmtLib2) {
    smtlib2::ParseResult P = smtlib2::parseSmtLib2(Source, *System, PO);
    if (!P.Ok) {
      SolveResult Out;
      Out.Format = Format;
      Out.Error = "parse error: " + P.error(PO);
      return Out;
    }
  } else if (Format == SourceFormat::MiniC) {
    frontend::EncodeResult E = frontend::encodeMiniC(Source, *System);
    if (!E.Ok) {
      SolveResult Out;
      Out.Format = Format;
      Out.Error = "parse error: " + E.Error;
      return Out;
    }
  } else {
    // Inconclusive sniff: deterministic fallback order — mini-C first (the
    // paper's native language), then SMT-LIB2. A partially-populated system
    // must be discarded, so each attempt parses into a fresh one.
    frontend::EncodeResult E = frontend::encodeMiniC(Source, *System);
    if (E.Ok) {
      Format = SourceFormat::MiniC;
    } else {
      auto TM2 = std::make_unique<TermManager>();
      auto System2 = std::make_unique<ChcSystem>(*TM2);
      smtlib2::ParseResult P = smtlib2::parseSmtLib2(Source, *System2, PO);
      if (P.Ok) {
        Format = SourceFormat::SmtLib2;
        TM = std::move(TM2);
        System = std::move(System2);
      } else {
        SolveResult Out;
        Out.Error = "cannot determine input format: not mini-C (" + E.Error +
                    "); not SMT-LIB2 (" + P.error(PO) + ")";
        return Out;
      }
    }
  }

  // Persistent verdict tier: the key canonicalises the *parsed* system via
  // the SMT-LIB2 printer, so mini-C and HORN spellings of the same system,
  // or the same script with different comments, share one record.
  std::string CacheKey;
  if (Request.Options.DiskCache) {
    CacheKey = verdictCacheKey(*System, Request.Options);
    std::string Stored;
    SolveResult Cached;
    if (Request.Options.DiskCache->lookup(CacheKey, Stored) &&
        deserializeResult(Stored, Cached)) {
      Cached.FromDiskCache = true;
      Cached.Format = Format;
      return Cached;
    }
  }

  SolveResult Out = solveSystem(*System, Request.Options);
  Out.Format = Format;
  // Only definitive, error-free verdicts are worth persisting: Unknown is
  // budget-dependent and must be retried with the next budget.
  if (Request.Options.DiskCache && Out.Ok &&
      Out.Status != ChcResult::Unknown)
    Request.Options.DiskCache->store(CacheKey, serializeResult(Out));
  return Out;
}

solver::SolveResult solver::solveChcText(const std::string &Text,
                                         const SolveOptions &Opts) {
  SolveRequest Request;
  Request.Source = Text;
  Request.Format = SourceFormat::SmtLib2;
  Request.Options = Opts;
  return solve(Request);
}

solver::SolveResult solver::solveFile(const std::string &Path,
                                      const SolveOptions &Opts) {
  SolveRequest Request;
  Request.Path = Path;
  Request.Options = Opts;
  return solve(Request);
}
