//===- solver/SolveFacade.h - One-call CHC solving façade -------*- C++ -*-===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one façade every driver goes through — CLI, daemon, benches, tests:
///
///   * `SolveRequest` names the input (inline source or a file path), its
///     format (SMT-LIB2 HORN or mini-C, auto-detected by default), the
///     registry engine id, and the per-request resource limits;
///   * `solve(Request)` reads, parses (through the strict `smtlib2` front
///     end or the mini-C encoder), solves over the `SolverRegistry`, and
///     independently validates the witness;
///   * `SolveResult` is self-contained — witnesses are rendered to strings,
///     so nothing points into the solve's term manager after it is gone.
///
/// `solveFile` / `solveChcText` / `solveSystem` are thin wrappers over the
/// same path for callers that already hold a path, HORN text, or a built
/// system. Engines are selected by registry id (`SolveOptions::Engine`):
/// "la" (default), "analysis", or — after
/// `baselines::registerBuiltinEngines()` — "pdr", "unwind" and friends.
///
/// The schedule policy (`SolveOptions::Schedule`) picks the plan the
/// executor runs (`solver/Plan.h`): `single` runs exactly the engine,
/// `race` the full portfolio, `staged` the probe → top-k → race escalation
/// ladder, and `auto` picks staged whenever at least two selectable
/// engines are registered. Every plan honours the one wall budget in both
/// isolation modes. `SolveOptionsBuilder` is the validated way to assemble
/// all of this — it rejects contradictory combinations (an explicit engine
/// under a race or staged policy, crash engines without process isolation)
/// before any work starts.
///
//===----------------------------------------------------------------------===//

#ifndef LA_SOLVER_SOLVEFACADE_H
#define LA_SOLVER_SOLVEFACADE_H

#include "solver/Plan.h"

#include <memory>
#include <optional>
#include <string>

namespace la {
class FileCache;
}

namespace la::solver {

/// Input language of a solve request.
enum class SourceFormat {
  Auto,    ///< Detect from the path extension, then the content shape.
  SmtLib2, ///< SMT-LIB2 HORN (CHC-COMP), incl. the Z3 fixedpoint dialect.
  MiniC,   ///< The paper's mini-C language, encoded via `frontend`.
};

const char *toString(SourceFormat F);

/// Parses "auto" / "smt2" / "smtlib2" / "mini-c" / "c" (as accepted by the
/// CLI `--format` flag and the daemon request schema).
std::optional<SourceFormat> parseSourceFormat(const std::string &Name);

/// Configuration of the façade.
struct SolveOptions {
  /// Single budget shared by every engine: wall clock plus main-loop
  /// iteration cap. Nonzero fields override engine defaults
  /// (`Budget::resolvedOver`); `{0, 0}` defers to them entirely.
  Budget Limits{60, 0};
  /// Registry id of the engine to run ("la", "analysis", "pdr", ...).
  /// Unknown ids fail the call with an error listing the
  /// registered ids. Consulted only under the `Single` schedule policy —
  /// `race`/`staged`/`auto` pick their own engines.
  EngineId Engine{"la"};
  /// Schedule policy plus its staged-mode settings (top-k, selector).
  /// `Single` (the default) runs exactly `Engine`.
  ScheduleOptions Schedule;
  /// Data-driven engine configuration (analysis options included), the base
  /// of the "la"/"analysis" engines and of every race lane.
  DataDrivenOptions Solver;
  /// Re-check a sat model clause by clause with `chc::checkInterpretation`,
  /// within what is left of `Limits.WallSeconds`; a sat model the check
  /// cannot finish in time is answered Unknown.
  bool ValidateModel = true;
  /// Cooperative cancellation of the whole call.
  std::shared_ptr<const CancellationToken> Cancel;
  /// Thread (default) runs engines in-process; Process forks every lane —
  /// the single selected engine included — into a hard-killable child, so
  /// a segfaulting, aborting, or runaway engine cannot take the caller
  /// down.
  Isolation Isolate = Isolation::Thread;
  /// Disk-backed persistent result cache (shared across requests and
  /// daemon restarts). Two tiers hang off this one object: whole-request
  /// verdicts keyed by a canonical hash of the printed SMT-LIB2 system +
  /// engine + budget bucket (consulted by `solve()` after parsing), and
  /// Valid clause-check verdicts under `ClauseCheckContext`'s memo cache.
  std::shared_ptr<FileCache> DiskCache;
};

/// Validated assembly of `SolveOptions`. The options struct accreted knobs
/// PR by PR — engine id, budget, isolation, schedule, caches — and several
/// combinations are contradictions that used to fail late (or worse,
/// silently run something else). The builder is where those invariants
/// live: `build()` either returns a coherent options blob or names the
/// conflict. Setters follow the fluent pattern so drivers read as the
/// command lines they parse.
class SolveOptionsBuilder {
public:
  SolveOptionsBuilder() = default;
  /// Starts from an existing blob (e.g. a daemon's per-request defaults).
  explicit SolveOptionsBuilder(SolveOptions Base) : Opts(std::move(Base)) {}

  /// Selects a specific engine and forces the `Single` policy with it: an
  /// explicit engine choice and a race or staged policy are contradictory, and
  /// `build()` rejects the combination if `schedule()` says otherwise.
  SolveOptionsBuilder &engine(EngineId Id) {
    Opts.Engine = std::move(Id);
    EngineExplicit = true;
    return *this;
  }
  SolveOptionsBuilder &wallSeconds(double Seconds) {
    Opts.Limits.WallSeconds = Seconds;
    return *this;
  }
  SolveOptionsBuilder &maxIterations(size_t N) {
    Opts.Limits.MaxIterations = N;
    return *this;
  }
  SolveOptionsBuilder &schedule(SchedulePolicy P) {
    Opts.Schedule.Policy = P;
    ScheduleExplicit = true;
    return *this;
  }
  SolveOptionsBuilder &topK(size_t K) {
    Opts.Schedule.TopK = K;
    return *this;
  }
  SolveOptionsBuilder &selector(std::shared_ptr<const EngineSelector> S) {
    Opts.Schedule.Selector = std::move(S);
    return *this;
  }
  SolveOptionsBuilder &isolation(Isolation I) {
    Opts.Isolate = I;
    return *this;
  }
  SolveOptionsBuilder &validateModel(bool V) {
    Opts.ValidateModel = V;
    return *this;
  }
  SolveOptionsBuilder &cancel(std::shared_ptr<const CancellationToken> T) {
    Opts.Cancel = std::move(T);
    return *this;
  }
  SolveOptionsBuilder &diskCache(std::shared_ptr<FileCache> C) {
    Opts.DiskCache = std::move(C);
    return *this;
  }
  /// Declares that deliberately crashing diagnostic engines (crash-*) may
  /// run in this configuration; `build()` then requires process isolation —
  /// a thread-mode segfault takes the whole caller down.
  SolveOptionsBuilder &allowCrashEngines(bool Allow = true) {
    CrashEngines = Allow;
    return *this;
  }

  struct Validated {
    bool Ok = false;
    std::string Error;
    SolveOptions Options;
  };
  /// Checks the cross-field invariants and returns the final blob; on
  /// conflict `Ok` is false and `Error` names the offending combination.
  Validated build() const;

private:
  SolveOptions Opts;
  bool EngineExplicit = false;
  bool ScheduleExplicit = false;
  bool CrashEngines = false;
};

/// One solve request: source + format + engine + limits. This is the
/// request schema shared by the CLI driver, the solver daemon and the
/// benches; engine and limits travel inside `Options`.
struct SolveRequest {
  /// Inline source text, used when `Path` is empty.
  std::string Source;
  /// File to read; when nonempty it wins over `Source` and its name seeds
  /// format detection and diagnostics.
  std::string Path;
  SourceFormat Format = SourceFormat::Auto;
  SolveOptions Options;
};

/// Self-contained outcome of one façade call. Term-level facts are rendered
/// to strings because the term manager dies with the call.
struct SolveResult {
  /// False on I/O or parse failure or an unknown engine id; `Error` says
  /// why and `Status` stays Unknown.
  bool Ok = false;
  std::string Error;

  chc::ChcResult Status = chc::ChcResult::Unknown;
  std::string SolverName;
  /// Input format the request resolved to (never Auto on success).
  SourceFormat Format = SourceFormat::Auto;
  size_t Clauses = 0;
  size_t Predicates = 0;
  bool Recursive = false;

  /// Rendered interpretation when Status == Sat.
  std::string Model;
  /// True when Status == Sat and the model passed independent re-validation
  /// (always false with `ValidateModel` off).
  bool ModelValidated = false;
  /// Rendered refutation when Status == Unsat and the solver produced one.
  std::string Cex;

  /// Winning engine's bookkeeping (queries, samples, iterations, seconds).
  chc::EngineStats Solver;
  /// Per-lane records in start order: one per race or stage lane, or the
  /// one lane of a single-engine run.
  std::vector<EngineReport> Engines;
  /// Static pre-analysis counters, one entry per executed pass (empty when
  /// analysis is off or the engine bypasses it).
  std::vector<analysis::PassStats> AnalysisPasses;
  /// True when the pre-analysis alone discharged every query clause.
  bool SolvedByAnalysis = false;
  /// Per-stage records of a staged solve, in execution order (empty for
  /// single-engine and plain-race runs).
  std::vector<StageReport> Stages;
  /// True when a staged solve fell through to the full escalation race.
  bool Escalated = false;
  /// True when the whole result was served from the persistent disk cache
  /// (`SolveOptions::DiskCache`) without running any engine.
  bool FromDiskCache = false;

  /// Compact rendering for drivers: verdict line plus one line per engine
  /// report (`*` winner, `!` crashed, `~` cancelled).
  std::string summary() const;
};

/// Resolves the input language of \p Request without parsing it: the path
/// extension decides when it is conclusive (".smt2" / ".c" / ...), else the
/// content shape (a leading `(` after trivia means SMT-LIB2, a leading
/// mini-C keyword means mini-C). Returns `Auto` when the sniff is
/// inconclusive; `solve()` then falls back deterministically — mini-C
/// first, then SMT-LIB2 — and reports a diagnostic naming both rejected
/// interpretations if neither parses.
SourceFormat detectFormat(const std::string &Path, const std::string &Source);

/// Serializes a successful result to the persistent-cache record form.
std::string serializeResult(const SolveResult &R);
/// Inverse of `serializeResult`; false (and \p R unspecified) on any
/// framing or field mismatch — corrupt records read as cache misses.
bool deserializeResult(const std::string &Text, SolveResult &R);

/// The one entry point: reads (when `Path` is set), detects the format,
/// parses, solves, validates.
SolveResult solve(const SolveRequest &Request);

/// Solves an already-built system. `System` keeps ownership of its terms;
/// only `SolveResult` escapes.
SolveResult solveSystem(const chc::ChcSystem &System,
                        const SolveOptions &Opts = {});

/// Parses SMT-LIB2 HORN text into a fresh system and solves it.
SolveResult solveChcText(const std::string &Text,
                         const SolveOptions &Opts = {});

/// Reads, format-detects (SMT-LIB2 vs mini-C), parses and solves a file.
SolveResult solveFile(const std::string &Path, const SolveOptions &Opts = {});

} // namespace la::solver

#endif // LA_SOLVER_SOLVEFACADE_H
