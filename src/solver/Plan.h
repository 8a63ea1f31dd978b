//===- solver/Plan.h - Plan executor for every solve ------------*- C++ -*-===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every way of running engines on one CHC system is a `Plan`, and one
/// class, `PlanSolver`, runs any plan:
///
///   * a plan is a list of stages, run in order until one answers;
///   * a stage is a set of lanes plus its budget rule; its lanes are either
///     a fixed list or the selector's top-k over the features gathered so
///     far;
///   * a lane is one registry engine with its options.
///
/// The three schedule policies are plans: `single` is one stage with one
/// lane, `race` one stage with `defaultLanes`, `staged` an analysis probe,
/// then the top-k engines, then the race.
///
/// How a stage runs. The first lane runs on the calling thread, every other
/// lane on a worker thread, and all poll one stage token. The first
/// definitive answer (sat or unsat) wins and trips it; it also reads as
/// tripped once the stage deadline passes or the caller's token trips, so
/// the wall budget binds a lone engine as hard as a race. In thread
/// isolation `TermManager` is not thread-safe, so when two or more thread
/// lanes share the process each solves a deep clone of the input
/// (`chc::cloneSystem`) on a private manager, and the winner's witness is
/// imported back after every worker has joined; a lone thread lane solves
/// the input itself. A lane that throws is contained in its report. In
/// process isolation each lane forks (`runInChildProcess`): a segfault,
/// abort or runaway engine costs only its lane, cancellation becomes
/// SIGKILL, and the winner's model crosses the pipe as printed formulas.
///
//===----------------------------------------------------------------------===//

#ifndef LA_SOLVER_PLAN_H
#define LA_SOLVER_PLAN_H

#include "solver/Scheduler.h"
#include "support/ProcessRunner.h"

#include <iosfwd>
#include <optional>

namespace la::solver {

/// How a plan's lanes are executed.
enum class Isolation {
  /// In-process worker threads; exceptions contained, crashes are not.
  Thread,
  /// Forked child per lane; survives segfaults, aborts and engines that
  /// ignore cancellation.
  Process,
};

const char *toString(Isolation I);
/// Parses "thread" / "process"; nullopt on anything else.
std::optional<Isolation> parseIsolation(const std::string &Text);

/// One competitor: a registry engine id plus its options. The label names
/// the lane in reports and must be unique within a stage (two "la" lanes
/// with different seeds get labels "la" and "la-seed2").
struct Lane {
  EngineId Engine;
  std::string Label;
  EngineOptions Opts;
};

/// Record of one lane, rendered into `SolveResult::summary()`. Reports are
/// in configured start order across all stages: `LaneIndex` equals the
/// report's position.
struct EngineReport {
  std::string Lane;   ///< Stage prefix plus lane label.
  std::string Engine; ///< Registry id the lane ran.
  std::string Name;   ///< The instantiated solver's display name.
  chc::ChcResult Status = chc::ChcResult::Unknown;
  bool Winner = false;    ///< This lane's answer was adopted.
  bool Cancelled = false; ///< Stopped by the stage token, not on its own.
  bool Crashed = false;   ///< Threw / died / hit an rlimit; see `Error`.
  /// How the lane ended. Thread lanes only report `Completed` or `Failed`;
  /// process lanes get the full waitpid classification.
  LaneOutcome Outcome = LaneOutcome::Completed;
  std::string Error;
  double Seconds = 0; ///< Lane wall clock (worker start to finish).
  size_t LaneIndex = 0;
  /// Seconds since the plan started: when the lane was enqueued on the
  /// main thread, when its worker began solving, and when it finished.
  double QueuedSeconds = 0;
  double StartSeconds = 0;
  double StopSeconds = 0;
  chc::EngineStats Stats;
};

/// Record of one executed stage.
struct StageReport {
  std::string Stage;                ///< "probe", "top-k", "race".
  std::vector<std::string> Engines; ///< Lane labels the stage ran.
  double BudgetSeconds = 0;         ///< Wall budget granted (0 = unlimited).
  double Seconds = 0;               ///< Wall clock actually spent.
  chc::ChcResult Status = chc::ChcResult::Unknown;
  bool Hit = false; ///< This stage produced the definitive answer.
};

/// One stage: its lanes plus its budget rule. With a plan budget of W
/// seconds of which R remain, the stage gets
/// `min(R, max(min(MinSeconds, W), min(Fraction * W, MaxSeconds)))`
/// (a zero `MaxSeconds` means no cap); under an unlimited plan budget it
/// gets `UnlimitedSeconds` (0 = unlimited).
struct Stage {
  std::string Name;   ///< Stage name in reports ("probe", "top-k", "race").
  std::string Prefix; ///< Prepended to lane labels ("probe:", "top:", ...).
  /// Fixed lanes; ignored when `TopK` is nonzero.
  std::vector<Lane> Lanes;
  /// Nonzero: the lanes are the selector's best `TopK` selectable engines
  /// (probe-class engines excluded) over the features gathered so far.
  size_t TopK = 0;
  double Fraction = 1;
  double MinSeconds = 0;
  double MaxSeconds = 0;
  double UnlimitedSeconds = 0;
  /// Run as threads whatever the plan's isolation: the staged probe's
  /// analysis must reach the selector, and it cannot cross a pipe.
  bool InProcess = false;
};

/// A whole solve: stages plus what every lane shares.
struct Plan {
  /// Display name; empty means the single lane's engine display name.
  std::string Name;
  std::vector<Stage> Stages;
  /// Options every lane inherits: the plan budget (`Limits`), the caller's
  /// token (`Cancel`), the data-driven and SMT configuration.
  EngineOptions Base;
  Isolation Isolate = Isolation::Thread;
  /// Ranks the top-k stage's candidates; null means the rule baseline.
  std::shared_ptr<const EngineSelector> Selector;
  /// Registry lanes are created from (null = `SolverRegistry::global()`).
  const SolverRegistry *Registry = nullptr;
};

/// The race lane list over \p R: "la" (base seed), "la-seed2", "analysis",
/// plus "pdr" and "unwind" when registered.
std::vector<Lane> defaultLanes(const EngineOptions &Base,
                               const SolverRegistry &R);

/// One stage running exactly \p Engine.
Plan singlePlan(const EngineId &Engine, const EngineOptions &Base);
/// One stage racing `defaultLanes`; named "portfolio".
Plan racePlan(const EngineOptions &Base, const SolverRegistry &R);
/// Probe (`analysis`, 0.15 of the budget within [0.5 s, 10 s]), then the
/// top-k engines (0.35), then the race (the rest). Under an unlimited
/// budget the probe gets 10 s and the top-k stage 30 s. Named "staged".
Plan stagedPlan(const EngineOptions &Base, size_t TopK,
                std::shared_ptr<const EngineSelector> Selector,
                const SolverRegistry &R);

/// Runs any plan.
class PlanSolver : public chc::ChcSolverInterface {
public:
  explicit PlanSolver(Plan P);

  chc::ChcSolverResult solve(const chc::ChcSystem &System) override;
  std::string name() const override { return DisplayName; }

  /// Per-lane records of the last `solve`, in start order.
  const std::vector<EngineReport> &reports() const { return Reports; }
  /// Per-stage records of the last `solve`, in execution order.
  const std::vector<StageReport> &stages() const { return Stages; }
  /// The feature vector the top-k selection ran on.
  const ProblemFeatures &features() const { return Features; }
  /// The plan's analysis: that of the first stage when it runs one lane
  /// (the engine of a single plan, the staged probe). Trivial otherwise,
  /// and for a process lane, whose analysis stays in the child.
  const analysis::AnalysisResult &analysis() const { return Analysis; }
  /// True when the plan's analysis alone discharged the system (a process
  /// lane reports this much over its pipe).
  bool solvedByAnalysis() const { return SolvedByAnalysis; }
  /// True when the last stage ran after earlier ones said unknown.
  bool escalated() const { return Escalated; }

private:
  /// Runs \p Lanes of \p S under one token and \p Budget seconds; the
  /// winner's result in the input manager, or nullopt on `unknown`.
  std::optional<chc::ChcSolverResult>
  runStage(const chc::ChcSystem &System, const SolverRegistry &Registry,
           const Stage &S, std::vector<Lane> Lanes, double Budget,
           double StageStart, bool KeepAnalysis);

  Plan P;
  std::string DisplayName;
  std::vector<EngineReport> Reports;
  std::vector<StageReport> Stages;
  ProblemFeatures Features;
  analysis::AnalysisResult Analysis;
  bool SolvedByAnalysis = false;
  bool Escalated = false;
};

/// The text codec shared by process-lane payloads and persistent result
/// records: a length-prefixed block, and one line of engine statistics.
namespace wire {
void putBlock(std::string &Out, const char *Tag, const std::string &Text);
bool getBlock(std::istream &In, const char *Tag, std::string &Out);
void putStats(std::string &Out, const chc::EngineStats &S);
bool getStats(std::istream &In, chc::EngineStats &S);
std::optional<chc::ChcResult> parseStatus(const std::string &Word);
} // namespace wire

} // namespace la::solver

#endif // LA_SOLVER_PLAN_H
