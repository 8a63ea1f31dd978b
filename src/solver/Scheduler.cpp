//===- solver/Scheduler.cpp - Feature-based engine scheduling -------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solver/Scheduler.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

using namespace la;
using namespace la::solver;
using namespace la::chc;

const char *solver::toString(SchedulePolicy P) {
  switch (P) {
  case SchedulePolicy::Single:
    return "single";
  case SchedulePolicy::Race:
    return "race";
  case SchedulePolicy::Staged:
    return "staged";
  case SchedulePolicy::Auto:
    return "auto";
  }
  return "single";
}

std::optional<SchedulePolicy>
solver::parseSchedulePolicy(const std::string &Text) {
  if (Text == "single")
    return SchedulePolicy::Single;
  if (Text == "race")
    return SchedulePolicy::Race;
  if (Text == "staged")
    return SchedulePolicy::Staged;
  if (Text == "auto")
    return SchedulePolicy::Auto;
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// ProblemFeatures
//===----------------------------------------------------------------------===//

namespace {

/// Name/member table keeping `names()` and `values()` aligned by
/// construction. The names are the offline-fitting contract: they appear in
/// `BENCH_table1.json` (`program_features`) and in selector-model files.
struct FeatureField {
  const char *Name;
  double ProblemFeatures::*Member;
};

constexpr FeatureField FeatureFields[] = {
    {"predicates", &ProblemFeatures::Predicates},
    {"clauses", &ProblemFeatures::Clauses},
    {"queries", &ProblemFeatures::Queries},
    {"facts", &ProblemFeatures::Facts},
    {"max_arity", &ProblemFeatures::MaxArity},
    {"total_args", &ProblemFeatures::TotalArgs},
    {"max_body_apps", &ProblemFeatures::MaxBodyApps},
    {"nonlinear_clauses", &ProblemFeatures::NonlinearClauses},
    {"recursive", &ProblemFeatures::Recursive},
    {"recursive_preds", &ProblemFeatures::RecursivePreds},
    {"have_analysis", &ProblemFeatures::HaveAnalysis},
    {"predicates_inlined", &ProblemFeatures::PredicatesInlined},
    {"clauses_removed", &ProblemFeatures::ClausesRemoved},
    {"clauses_pruned", &ProblemFeatures::ClausesPruned},
    {"predicates_resolved", &ProblemFeatures::PredicatesResolved},
    {"bounds_found", &ProblemFeatures::BoundsFound},
    {"relational_found", &ProblemFeatures::RelationalFound},
    {"polyhedra_facts", &ProblemFeatures::PolyhedraFacts},
    {"proved_by_analysis", &ProblemFeatures::ProvedByAnalysis},
    {"analysis_timed_out", &ProblemFeatures::AnalysisTimedOut},
};

} // namespace

ProblemFeatures ProblemFeatures::fromSystem(const ChcSystem &System) {
  ProblemFeatures F;
  F.Predicates = static_cast<double>(System.predicates().size());
  F.Clauses = static_cast<double>(System.clauses().size());
  for (const Predicate *P : System.predicates()) {
    F.MaxArity = std::max(F.MaxArity, static_cast<double>(P->arity()));
    F.TotalArgs += static_cast<double>(P->arity());
  }
  for (const HornClause &C : System.clauses()) {
    if (C.isQuery())
      F.Queries += 1;
    if (C.isFact())
      F.Facts += 1;
    F.MaxBodyApps = std::max(F.MaxBodyApps, static_cast<double>(C.Body.size()));
    if (C.Body.size() >= 2)
      F.NonlinearClauses += 1;
  }
  F.Recursive = System.isRecursive() ? 1 : 0;
  F.RecursivePreds = static_cast<double>(System.recursivePredicates().size());
  return F;
}

void ProblemFeatures::addAnalysis(const analysis::AnalysisResult &R) {
  analysis::FeatureCounters C = R.featureCounters();
  HaveAnalysis = 1;
  PredicatesInlined = static_cast<double>(C.PredicatesInlined);
  ClausesRemoved = static_cast<double>(C.ClausesRemoved);
  ClausesPruned = static_cast<double>(C.ClausesPruned);
  PredicatesResolved = static_cast<double>(C.PredicatesResolved);
  BoundsFound = static_cast<double>(C.BoundsFound);
  RelationalFound = static_cast<double>(C.RelationalFound);
  PolyhedraFacts = static_cast<double>(C.PolyhedraFacts);
  ProvedByAnalysis = C.ProvedSat ? 1 : 0;
  AnalysisTimedOut = C.TimedOut ? 1 : 0;
}

const std::vector<std::string> &ProblemFeatures::names() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> Out;
    for (const FeatureField &F : FeatureFields)
      Out.push_back(F.Name);
    return Out;
  }();
  return Names;
}

std::vector<double> ProblemFeatures::values() const {
  std::vector<double> Out;
  Out.reserve(std::size(FeatureFields));
  for (const FeatureField &F : FeatureFields)
    Out.push_back(this->*F.Member);
  return Out;
}

std::string ProblemFeatures::toString() const {
  std::string Out;
  for (const FeatureField &F : FeatureFields) {
    double V = this->*F.Member;
    char Buf[96];
    // Every feature is a counter or a flag today, so %.0f is exact; the
    // %g branch keeps future fractional features printable.
    if (V == std::floor(V) && std::fabs(V) < 1e15)
      snprintf(Buf, sizeof(Buf), "%s=%.0f\n", F.Name, V);
    else
      snprintf(Buf, sizeof(Buf), "%s=%g\n", F.Name, V);
    Out += Buf;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// RuleSelector
//===----------------------------------------------------------------------===//

namespace {

double costBaseScore(CostClass C) {
  switch (C) {
  case CostClass::Probe:
  case CostClass::Cheap:
    return 3.0;
  case CostClass::Moderate:
    return 2.0;
  case CostClass::Heavy:
    return 1.0;
  }
  return 2.0;
}

void sortRanked(std::vector<RankedEngine> &Ranked) {
  std::sort(Ranked.begin(), Ranked.end(),
            [](const RankedEngine &A, const RankedEngine &B) {
              if (A.Score != B.Score)
                return A.Score > B.Score;
              return A.Id < B.Id;
            });
}

} // namespace

std::vector<RankedEngine>
RuleSelector::rank(const ProblemFeatures &F,
                   const std::vector<EngineInfo> &Candidates) const {
  // Did the pre-analysis produce anything an analysis-consuming engine can
  // build on?
  bool AnalysisHelped =
      F.HaveAnalysis > 0 &&
      (F.BoundsFound + F.RelationalFound + F.PolyhedraFacts > 0 ||
       F.PredicatesInlined > 0 || F.PredicatesResolved > 0);
  std::vector<RankedEngine> Ranked;
  for (const EngineInfo &E : Candidates) {
    // Hard filter: an engine that cannot express multi-application bodies
    // would only waste its lane on a nonlinear system.
    if (F.NonlinearClauses > 0 && !E.SupportsNonlinear)
      continue;
    double Score = costBaseScore(E.TypicalCost);
    if (E.NeedsAnalysis && AnalysisHelped)
      Score += 1.5;
    // Non-recursive systems usually fall to plain symbolic unwinding; the
    // analysis pipeline has little to find in them.
    if (F.Recursive == 0 && !E.NeedsAnalysis)
      Score += 1.0;
    // Tiny deterministic bias: reproducible verdicts make better cache
    // entries and failure reports.
    if (E.Deterministic)
      Score += 0.1;
    Ranked.push_back({E.Id, Score});
  }
  sortRanked(Ranked);
  return Ranked;
}

//===----------------------------------------------------------------------===//
// TableSelector
//===----------------------------------------------------------------------===//

std::optional<double> TableSelector::score(const EngineId &Id,
                                           const ProblemFeatures &F) const {
  auto It = Models.find(Id);
  if (It == Models.end())
    return std::nullopt;
  // Dot product by feature name: names the model knows but this build does
  // not are ignored, features the model omits weigh zero.
  const std::vector<std::string> &Names = ProblemFeatures::names();
  std::vector<double> Values = F.values();
  double S = It->second.Bias;
  for (const auto &[Name, Weight] : It->second.Weights) {
    auto NameIt = std::find(Names.begin(), Names.end(), Name);
    if (NameIt != Names.end())
      S += Weight * Values[static_cast<size_t>(NameIt - Names.begin())];
  }
  return S;
}

void TableSelector::setModel(const EngineId &Id, Model M) {
  Models[Id] = std::move(M);
}

std::vector<RankedEngine>
TableSelector::rank(const ProblemFeatures &F,
                    const std::vector<EngineInfo> &Candidates) const {
  std::vector<RankedEngine> Ranked;
  std::vector<EngineInfo> Unmodeled;
  for (const EngineInfo &E : Candidates) {
    if (std::optional<double> S = score(E.Id, F))
      Ranked.push_back({E.Id, *S});
    else
      Unmodeled.push_back(E);
  }
  sortRanked(Ranked);
  // Engines the model has never seen rank after every modeled one, kept in
  // rule-baseline order so a partially-fit model still schedules sensibly.
  for (const RankedEngine &R : Fallback.rank(F, Unmodeled))
    Ranked.push_back({R.Id, -1e9 + R.Score});
  return Ranked;
}

bool TableSelector::parse(const std::string &Text, TableSelector &Out,
                          std::string &Error) {
  std::istringstream In(Text);
  std::string Word;
  int Version = 0;
  if (!(In >> Word >> Version) || Word != "selector" || Version != 1) {
    Error = "not a selector model (expected 'selector 1' header)";
    return false;
  }
  size_t NumFeatures = 0;
  if (!(In >> Word) || Word != "features" || !(In >> NumFeatures) ||
      NumFeatures > 4096) {
    Error = "malformed features line";
    return false;
  }
  std::vector<std::string> Names(NumFeatures);
  for (std::string &N : Names)
    if (!(In >> N)) {
      Error = "truncated feature name list";
      return false;
    }
  TableSelector Parsed;
  while (In >> Word) {
    if (Word == "end") {
      Out = std::move(Parsed);
      return true;
    }
    std::string Id;
    Model M;
    if (Word != "engine" || !(In >> Id) || !(In >> M.Bias)) {
      Error = "malformed engine line";
      return false;
    }
    M.Weights.reserve(NumFeatures);
    for (const std::string &N : Names) {
      double W = 0;
      if (!(In >> W)) {
        Error = "truncated weight list for engine '" + Id + "'";
        return false;
      }
      M.Weights.emplace_back(N, W);
    }
    Parsed.setModel(EngineId(Id), std::move(M));
  }
  Error = "missing 'end' terminator";
  return false;
}

std::shared_ptr<TableSelector>
TableSelector::loadFile(const std::string &Path, std::string &Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Error = "cannot open selector model '" + Path + "'";
    return nullptr;
  }
  std::ostringstream Text;
  Text << In.rdbuf();
  auto Out = std::make_shared<TableSelector>();
  if (!parse(Text.str(), *Out, Error))
    return nullptr;
  return Out;
}
