//===- solver/SolverRegistry.cpp - Typed CHC engine registry --------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "solver/SolverRegistry.h"

#include <algorithm>

using namespace la;
using namespace la::solver;

const char *solver::toString(CostClass C) {
  switch (C) {
  case CostClass::Probe:
    return "probe";
  case CostClass::Cheap:
    return "cheap";
  case CostClass::Moderate:
    return "moderate";
  case CostClass::Heavy:
    return "heavy";
  }
  return "?";
}

namespace {

/// Shared option plumbing of the data-driven engines: overlay the
/// caller-level budget, hand through the cancellation token, apply the seed.
DataDrivenOptions dataDrivenFrom(const EngineOptions &EO) {
  DataDrivenOptions Opts = EO.DataDriven;
  Opts.Limits = EO.Limits.resolvedOver(Opts.Limits);
  if (EO.Cancel)
    Opts.Cancel = EO.Cancel;
  if (EO.Seed)
    Opts.Learn.LA.Seed = EO.Seed;
  return Opts;
}

} // namespace

SolverRegistry::SolverRegistry() {
  {
    EngineInfo Info;
    Info.Id = EngineId("la");
    Info.Description = "data-driven CEGAR solver (paper Algorithm 3)";
    Info.NeedsAnalysis = true;
    Info.TypicalCost = CostClass::Moderate;
    add(std::move(Info),
        [](const EngineOptions &EO) -> std::unique_ptr<chc::ChcSolverInterface> {
          return std::make_unique<DataDrivenChcSolver>(dataDrivenFrom(EO));
        });
  }
  {
    EngineInfo Info;
    Info.Id = EngineId("analysis");
    Info.Description = "static pre-analysis only (slicing + abstract domains)";
    Info.NeedsAnalysis = true;
    Info.TypicalCost = CostClass::Probe;
    add(std::move(Info),
        [](const EngineOptions &EO) -> std::unique_ptr<chc::ChcSolverInterface> {
          DataDrivenOptions Opts = dataDrivenFrom(EO);
          Opts.AnalysisOnly = true;
          Opts.EnableAnalysis = true;
          Opts.Name = "analysis";
          return std::make_unique<DataDrivenChcSolver>(std::move(Opts));
        });
  }
}

SolverRegistry &SolverRegistry::global() {
  static SolverRegistry R;
  return R;
}

bool SolverRegistry::add(EngineInfo Info, Factory F) {
  std::lock_guard<std::mutex> Lock(Mutex);
  EngineId Id = Info.Id;
  return Entries.emplace(std::move(Id), Entry{std::move(Info), std::move(F),
                                              /*IsAlias=*/false})
      .second;
}

bool SolverRegistry::addAlias(const EngineId &Alias, const EngineId &Target) {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find(Target);
  if (It == Entries.end())
    return false;
  EngineInfo Info = It->second.Info;
  Info.Id = Alias;
  Info.Description += " (alias of " + Target.str() + ")";
  return Entries
      .emplace(Alias, Entry{std::move(Info), It->second.Make, /*IsAlias=*/true})
      .second;
}

bool SolverRegistry::contains(const EngineId &Id) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.count(Id) != 0;
}

std::unique_ptr<chc::ChcSolverInterface>
SolverRegistry::create(const EngineId &Id, const EngineOptions &Opts) const {
  Factory Make;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Entries.find(Id);
    if (It == Entries.end())
      return nullptr;
    Make = It->second.Make;
  }
  // Run the factory outside the lock: a factory may consult the registry.
  return Make(Opts);
}

std::vector<EngineId> SolverRegistry::engineIds() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<EngineId> Out;
  Out.reserve(Entries.size());
  for (const auto &KV : Entries)
    Out.push_back(KV.first);
  return Out; // std::map iterates sorted.
}

std::optional<EngineInfo> SolverRegistry::info(const EngineId &Id) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find(Id);
  if (It == Entries.end())
    return std::nullopt;
  return It->second.Info;
}

std::vector<EngineInfo> SolverRegistry::selectable() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<EngineInfo> Out;
  for (const auto &KV : Entries) {
    const Entry &E = KV.second;
    if (E.IsAlias || E.Info.IsDiagnostic)
      continue;
    Out.push_back(E.Info);
  }
  return Out;
}
