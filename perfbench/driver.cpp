//===- perfbench/driver.cpp - Timed workloads over the public entry points -===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measuring half of the benchmark. It reads a run spec on stdin, sets
/// the workload up many times, runs its request list round-robin for a
/// number of rounds and prints one JSON record per line on stdout. It only
/// measures: host normalisation, aggregation, percentiles, the verdict check
/// and the work-determinism guard live in `benchlib.py`.
///
/// Spec lines (one key and its values per line):
///
///   workload cegar|static|serve|deadline
///   seconds <s>             measuring time; whole rounds run until it is used
///   order <name>...         one round's order of the request list (serve);
///                           rounds cycle through the orders given
///   trace 0|1               1 adds traced rounds and the per-layer replay
///   trace_file <path>       Chrome trace-event JSON written at exit
///   request <name> <budget> a corpus program, or smt2:<stem> for a bundled
///                           SMT-LIB2 file, with its wall budget in seconds
///
/// Output records carry their kind in "t": setup, req, round, layer, learn,
/// parse, sched, end, error. Set-up and round records carry "probe", the
/// host probe's time next to them (see `probeSeconds`).
///
//===----------------------------------------------------------------------===//

#include "analysis/PassManager.h"
#include "baselines/RegisterEngines.h"
#include "chc/ChcCheck.h"
#include "corpus/Corpus.h"
#include "corpus/Harness.h"
#include "corpus/Smt2Corpus.h"
#include "frontend/Encoder.h"
#include "ml/Learn.h"
#include "server/SolverService.h"
#include "smtlib2/Parser.h"
#include "smtlib2/Printer.h"
#include "solver/DataDrivenSolver.h"
#include "solver/SolveFacade.h"
#include "solver/SolverRegistry.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory_resource>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace la;

namespace {

double wallNow() {
  static const auto Origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Origin)
      .count();
}

double cpuNow() {
  timespec TS{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &TS);
  return static_cast<double>(TS.tv_sec) + static_cast<double>(TS.tv_nsec) * 1e-9;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

/// One JSON object printed as a single stdout line.
class Record {
public:
  explicit Record(const char *Kind) : Text("{\"t\":") {
    Text += jsonString(Kind);
  }
  Record &num(const char *Key, double V) {
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.9g", V);
    return raw(Key, Buf);
  }
  Record &count(const char *Key, uint64_t V) {
    return raw(Key, std::to_string(V));
  }
  Record &str(const char *Key, const std::string &V) {
    return raw(Key, jsonString(V));
  }
  Record &flag(const char *Key, bool V) { return raw(Key, V ? "true" : "false"); }
  Record &raw(const char *Key, const std::string &Json) {
    Text += ',';
    Text += jsonString(Key);
    Text += ':';
    Text += Json;
    return *this;
  }
  void print() {
    Text += '}';
    std::printf("%s\n", Text.c_str());
    std::fflush(stdout);
  }

private:
  std::string Text;
};

//===----------------------------------------------------------------------===//
// Spans, kept in memory and written as Chrome trace-event JSON at exit.
//===----------------------------------------------------------------------===//

struct Span {
  std::string Name;
  double Start = 0;
  double End = 0;
  int Parent = -1;
  int Request = -1;
};

class SpanLog {
public:
  int add(std::string Name, double Start, double End, int Parent, int Request) {
    Spans.push_back({std::move(Name), Start, End, Parent, Request});
    return static_cast<int>(Spans.size()) - 1;
  }
  int open(std::string Name, int Parent, int Request) {
    double Now = wallNow();
    return add(std::move(Name), Now, Now, Parent, Request);
  }
  void close(int Id) { Spans[static_cast<size_t>(Id)].End = wallNow(); }
  double seconds(int Id) const {
    const Span &S = Spans[static_cast<size_t>(Id)];
    return S.End - S.Start;
  }

  bool write(const std::string &Path) const {
    std::ofstream Out(Path);
    if (!Out)
      return false;
    Out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf),
                    "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f",
                    S.Request + 1, S.Start * 1e6, (S.End - S.Start) * 1e6);
      Out << (I ? ",\n" : "\n") << "{\"name\":" << jsonString(S.Name) << ','
          << Buf << ",\"args\":{\"span\":" << I << ",\"parent\":" << S.Parent
          << ",\"request\":" << S.Request << "}}";
    }
    Out << "\n]}\n";
    return static_cast<bool>(Out);
  }

private:
  std::vector<Span> Spans;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
public:
  ScopedSpan(SpanLog &Log, std::string Name, int Parent, int Request)
      : Log(Log), Id(Log.open(std::move(Name), Parent, Request)) {}
  ~ScopedSpan() { Log.close(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  int id() const { return Id; }

private:
  SpanLog &Log;
  int Id;
};

//===----------------------------------------------------------------------===//
// Spec and set-up.
//===----------------------------------------------------------------------===//

/// Untraced rounds run even when they overshoot the measuring time, so every
/// request has at least two samples.
constexpr int MinRounds = 2;
constexpr int MaxRounds = 50;
/// Set-ups are timed in bursts spread evenly over the untraced measuring
/// time, so that their median rests on no single moment of the host. Within a
/// burst the later set-ups run with warm caches.
constexpr int SetUpBursts = 10;
constexpr int SetUpsPerBurst = 3;

struct Spec {
  std::string Workload;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceFile;
  std::vector<std::pair<std::string, double>> Requests;
  std::vector<std::vector<std::string>> Orders;
};

bool readSpec(std::istream &In, Spec &S, std::string &Error) {
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream Words(Line);
    std::string Key;
    if (!(Words >> Key) || Key[0] == '#')
      continue;
    bool Ok = true;
    if (Key == "workload")
      Ok = static_cast<bool>(Words >> S.Workload);
    else if (Key == "seconds")
      Ok = static_cast<bool>(Words >> S.Seconds);
    else if (Key == "order") {
      S.Orders.emplace_back();
      for (std::string Name; Words >> Name;)
        S.Orders.back().push_back(Name);
      Ok = !S.Orders.back().empty();
    } else if (Key == "trace") {
      int T = 0;
      Ok = static_cast<bool>(Words >> T);
      S.Trace = T != 0;
    } else if (Key == "trace_file")
      Ok = static_cast<bool>(Words >> S.TraceFile);
    else if (Key == "request") {
      std::string Name;
      double Budget = 0;
      Ok = static_cast<bool>(Words >> Name >> Budget) && Budget > 0;
      S.Requests.emplace_back(Name, Budget);
    } else {
      Error = "unknown spec key '" + Key + "'";
      return false;
    }
    if (!Ok) {
      Error = "bad spec line '" + Line + "'";
      return false;
    }
  }
  if (S.Workload != "cegar" && S.Workload != "static" &&
      S.Workload != "serve" && S.Workload != "deadline") {
    Error = "unknown workload '" + S.Workload + "'";
    return false;
  }
  if (S.Requests.empty()) {
    Error = "no requests";
    return false;
  }
  return true;
}

/// One drawn request, ready to submit.
struct Input {
  std::string Name;
  double Budget = 0;
  bool ExpectedSafe = true;
  const corpus::BenchmarkProgram *Program = nullptr; ///< Null for smt2 files.
  solver::SolveRequest Request;
  /// Index of the first request with the same source text (itself when it
  /// is the first): a later one is an exact repeat, even under another name
  /// (two corpus programs can print to the same SMT-LIB2 text).
  size_t FirstOf = 0;
  /// How many requests with the same source text come before this one.
  size_t Occurrence = 0;
};

/// Sets `FirstOf` and `Occurrence` from the list order.
void numberRepeats(std::vector<Input> &Inputs) {
  std::unordered_map<std::string, std::pair<size_t, size_t>> Seen;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    auto [It, Fresh] =
        Seen.emplace(Inputs[I].Request.Source, std::make_pair(I, 0));
    if (!Fresh)
      ++It->second.second;
    Inputs[I].FirstOf = It->second.first;
    Inputs[I].Occurrence = It->second.second;
  }
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// The options each workload sends with a request.
solver::SolveOptions optionsFor(const std::string &Workload, const Input &In) {
  solver::SolveOptions O;
  O.Limits = Budget{In.Budget, 0};
  if (Workload == "serve") {
    // chc_serve's request defaults under `--schedule staged` (top-k 2).
    O.Schedule.Policy = solver::SchedulePolicy::Staged;
    O.Schedule.TopK = 2;
    return O;
  }
  O.Engine = solver::EngineId("la");
  // `cegar`/`static` use the evaluation harness's configuration (mod
  // features from the program text); `deadline` keeps the daemon defaults.
  if (Workload != "deadline" && In.Program)
    O.Solver = corpus::defaultOptionsFor(*In.Program, In.Budget);
  return O;
}

/// Resolves, encodes or prints every request and builds its options. Serve
/// requests carry SMT-LIB2 text: corpus programs are printed from their
/// encoding, bundled files are read.
bool setUp(const Spec &S, std::vector<Input> &Out, std::string &Error) {
  baselines::registerBuiltinEngines();
  Out.clear();
  std::unordered_map<std::string, size_t> First;
  for (const auto &[Name, Budget] : S.Requests) {
    Input In;
    In.Name = Name;
    In.Budget = Budget;
    auto [It, Fresh] = First.emplace(Name, Out.size());
    if (!Fresh) {
      Out.push_back(Out[It->second]);
      continue;
    }
    if (Name.rfind("smt2:", 0) == 0) {
      // The sequential workloads encode and replay mini-C programs.
      if (S.Workload != "serve") {
        Error = "smt2 inputs are served only: '" + Name + "'";
        return false;
      }
      const corpus::Smt2Benchmark *B = corpus::findSmt2(Name.substr(5));
      if (!B) {
        Error = "unknown smt2 benchmark '" + Name + "'";
        return false;
      }
      In.ExpectedSafe = B->ExpectedSafe;
      In.Request.Source = readFile(B->Path);
      In.Request.Format = solver::SourceFormat::SmtLib2;
      TermManager TM;
      chc::ChcSystem System(TM);
      if (In.Request.Source.empty() ||
          !smtlib2::parseSmtLib2(In.Request.Source, System).Ok) {
        Error = "cannot read " + B->Path;
        return false;
      }
    } else {
      In.Program = corpus::find(Name);
      if (!In.Program) {
        Error = "unknown corpus program '" + Name + "'";
        return false;
      }
      In.ExpectedSafe = In.Program->ExpectedSafe;
      TermManager TM;
      chc::ChcSystem System(TM);
      frontend::EncodeResult E = frontend::encodeMiniC(In.Program->Source, System);
      if (!E.Ok) {
        Error = "cannot encode '" + Name + "': " + E.Error;
        return false;
      }
      if (S.Workload == "serve") {
        In.Request.Source = smtlib2::printSmtLib2(System);
        In.Request.Format = solver::SourceFormat::SmtLib2;
      } else {
        In.Request.Source = In.Program->Source;
        In.Request.Format = solver::SourceFormat::MiniC;
      }
    }
    In.Request.Options = optionsFor(S.Workload, In);
    Out.push_back(std::move(In));
  }
  numberRepeats(Out);
  if (S.Workload == "serve") {
    solver::SolveOptionsBuilder::Validated V =
        solver::SolveOptionsBuilder(Out.front().Request.Options).build();
    if (!V.Ok) {
      Error = "serve options rejected: " + V.Error;
      return false;
    }
    server::ServiceOptions SO;
    SO.Workers = 2;
    server::SolverService Service(SO); // started and drained, as a client would
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Per-request records.
//===----------------------------------------------------------------------===//

/// The stage that answered and the winning engine of a result.
std::pair<std::string, std::string> answeredBy(const solver::SolveResult &R) {
  std::string Stage, Engine;
  for (const solver::StageReport &St : R.Stages)
    if (St.Hit)
      Stage = St.Stage;
  for (const solver::EngineReport &E : R.Engines)
    if (E.Winner)
      Engine = E.Engine;
  if (Engine.empty() && R.Engines.size() == 1)
    Engine = R.Engines.front().Engine;
  return {Stage, Engine};
}

Record requestRecord(int Round, size_t Index, const Input &In,
                     const solver::SolveResult &R, double Wall, double Cpu) {
  auto [Stage, Engine] = answeredBy(R);
  Record Rec("req");
  Rec.count("round", static_cast<uint64_t>(Round))
      .count("i", Index)
      .str("name", In.Name)
      .count("k", In.Occurrence)
      .num("budget", In.Budget)
      .num("wall", Wall)
      .num("cpu", Cpu)
      .flag("ok", R.Ok)
      .str("error", R.Error)
      .str("status", chc::toString(R.Status))
      .flag("expected_safe", In.ExpectedSafe)
      .flag("validated", R.ModelValidated)
      .count("iters", R.Solver.Iterations)
      .count("samples", R.Solver.Samples)
      .count("queries", R.Solver.SmtQueries)
      .count("checks", R.Solver.Check.ChecksIssued)
      .flag("by_analysis", R.SolvedByAnalysis)
      .str("stage", Stage)
      .str("engine", Engine);
  return Rec;
}

//===----------------------------------------------------------------------===//
// The host probe.
//===----------------------------------------------------------------------===//

/// A fixed kernel that does not touch the solver: hash-map inserts, erases
/// and string appends, like the solver's own bookkeeping. It allocates from
/// \p Arena, so the solver's heap does not change what it measures.
void probeKernel(std::vector<std::byte> &Arena) {
  std::pmr::monotonic_buffer_resource Pool(Arena.data(), Arena.size(),
                                           std::pmr::null_memory_resource());
  std::pmr::unordered_map<uint64_t, std::pmr::string> Map(&Pool);
  uint64_t X = 12345;
  for (int I = 0; I < 12'000; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    Map[X % 4096] += std::to_string(X % 1000);
    if (Map.size() > 2000)
      Map.erase(Map.begin());
  }
  size_t Chars = 0;
  for (const auto &KV : Map)
    Chars += KV.second.size();
  if (Chars == 1) // never true; keeps the kernel observable
    std::printf("#\n");
}

/// Threads of the `serve` probe: as many as its solver threads (2 workers
/// × 2 top-k lanes).
constexpr int ServeProbeThreads = 4;

/// The host probe: the time of `probeKernel`, run on \p Threads threads at
/// once (on this thread when 1) and averaged over them. Other tenants slow
/// this host by up to half for seconds to minutes, and the probe slows with
/// it, so `benchlib.py` divides request times by the probe's time in the
/// same round. How much a tenant slows several threads at once differs from
/// how much it slows one, so the probe runs as many threads as the
/// workload. It takes their mean, not the slowest: a closed loop's
/// makespan follows the threads' total speed, and one slowed vCPU slows it
/// by a share, not outright.
double probeSeconds(int Threads = 1) {
  static std::vector<std::vector<std::byte>> Arenas(
      ServeProbeThreads, std::vector<std::byte>(1 << 20));
  std::vector<double> Seconds(static_cast<size_t>(Threads));
  auto timed = [&](size_t T) {
    double T0 = wallNow();
    probeKernel(Arenas[T]);
    Seconds[T] = wallNow() - T0;
  };
  if (Threads == 1) {
    timed(0);
    return Seconds[0];
  }
  std::vector<std::thread> Pool;
  for (size_t T = 0; T < Seconds.size(); ++T)
    Pool.emplace_back(timed, T);
  for (std::thread &T : Pool)
    T.join();
  double Sum = 0;
  for (double S : Seconds)
    Sum += S;
  return Sum / Threads;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

//===----------------------------------------------------------------------===//
// Rounds.
//===----------------------------------------------------------------------===//

/// Runs whole rounds until \p Seconds of measuring time are used (judged
/// with the mean round so far), never fewer than \p Least nor more than
/// `MaxRounds`. Returns the number of rounds run.
template <typename RoundFn>
int runRounds(int Least, double Seconds, RoundFn Round) {
  double Start = wallNow();
  int Done = 0;
  while (Done < MaxRounds) {
    if (Done >= Least) {
      double Elapsed = wallNow() - Start;
      if (Elapsed + 0.5 * Elapsed / Done > Seconds)
        break;
    }
    Round(Done);
    ++Done;
  }
  return Done;
}

/// \p Probe is the median probe time of an untraced round, 0 for a traced
/// one (its times are not normalised).
void roundRecord(int Round, bool Traced, double Wall, double Cpu,
                 double Probe) {
  Record("round")
      .count("round", static_cast<uint64_t>(Round))
      .flag("traced", Traced)
      .num("wall", Wall)
      .num("cpu", Cpu)
      .num("probe", Probe)
      .print();
}

/// The CPUs this process may run on.
std::vector<int> allowedCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  std::vector<int> Cpus;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
  return Cpus;
}

/// Restricts the calling thread to \p Cpus.
void pinTo(const std::vector<int> &Cpus) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

/// One round of a sequential workload (cegar, static, deadline): every
/// request in order through the `solver::solve` façade on this thread, each
/// after one host probe. \p Between runs before each request, outside its
/// timing.
template <typename BetweenFn>
void sequentialRound(int Round, const std::vector<Input> &Inputs,
                     BetweenFn Between) {
  double RW = wallNow(), RC = cpuNow();
  std::vector<double> Probes;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    Between();
    Probes.push_back(probeSeconds());
    double W0 = wallNow(), C0 = cpuNow();
    solver::SolveResult R = solver::solve(Inputs[I].Request);
    double Wall = wallNow() - W0, Cpu = cpuNow() - C0;
    requestRecord(Round, I, Inputs[I], R, Wall, Cpu).print();
  }
  roundRecord(Round, false, wallNow() - RW, cpuNow() - RC, median(Probes));
}

double millis(const SpanLog &Log, int Id) { return Log.seconds(Id) * 1e3; }

/// Traced replay of one request through the layers' public calls: encode,
/// `analyzeSystem`, the registry engine's `solve`, `checkInterpretation`.
/// The stand-alone analysis call is replay only: the engine runs its own,
/// so it is left out of the request's traced time.
void tracedRequest(int Round, size_t Index, const Input &In, SpanLog &Log) {
  int Req = static_cast<int>(Index);
  ScopedSpan Top(Log, In.Name, -1, Req);
  TermManager TM;
  chc::ChcSystem System(TM);
  const solver::SolveOptions &O = In.Request.Options;

  int EncodeId = Log.open("frontend.encode", Top.id(), Req);
  frontend::encodeMiniC(In.Program->Source, System);
  Log.close(EncodeId);

  analysis::AnalysisOptions AOpts = O.Solver.Analysis;
  AOpts.Smt = O.Solver.Smt;
  // The engine caps its own analysis at half the budget; replay that.
  AOpts.TimeoutSeconds = O.Limits.WallSeconds / 2;
  int AnalysisId = Log.open("analysis", Top.id(), Req);
  analysis::AnalysisResult A = analysis::analyzeSystem(System, AOpts);
  Log.close(AnalysisId);

  solver::EngineOptions EO;
  EO.Limits = O.Limits;
  EO.DataDriven = O.Solver;
  EO.Smt = O.Solver.Smt;
  std::unique_ptr<chc::ChcSolverInterface> Engine =
      solver::SolverRegistry::global().create(O.Engine, EO);
  int SolveId = Log.open("engine.solve", Top.id(), Req);
  chc::ChcSolverResult R = Engine->solve(System);
  Log.close(SolveId);
  double EngineAnalysisMs = 0;
  if (auto *DD = dynamic_cast<solver::DataDrivenChcSolver *>(Engine.get()))
    EngineAnalysisMs = DD->detailedStats().AnalysisSeconds * 1e3;

  double ValidateMs = 0;
  bool Validated = false;
  if (R.Status == chc::ChcResult::Sat) {
    int ValidateId = Log.open("chc.validate", Top.id(), Req);
    Validated =
        chc::checkInterpretation(System, R.Interp) == chc::ClauseStatus::Valid;
    Log.close(ValidateId);
    ValidateMs = millis(Log, ValidateId);
  }

  std::string Passes = "{";
  uint64_t Pivots = 0;
  size_t XferHits = 0, XferLookups = 0, VerifyHits = 0, VerifyLookups = 0;
  for (const analysis::PassStats &P : A.Passes) {
    Passes += (Passes.size() > 1 ? "," : "") + jsonString(P.Name) + ":" +
              std::to_string(P.Seconds * 1e3);
    Pivots += P.LpPivots;
    XferHits += P.XferCacheHits;
    XferLookups += P.XferCacheHits + P.XferCacheMisses;
    if (P.Name == "verify") {
      VerifyHits += P.Check.CacheHits;
      VerifyLookups += P.Check.CacheHits + P.Check.CacheMisses;
    }
  }
  Passes += "}";
  double SolveMs = millis(Log, SolveId);
  const chc::CheckStats &C = R.Stats.Check;
  Record("layer")
      .count("round", static_cast<uint64_t>(Round))
      .count("i", Index)
      .str("name", In.Name)
      .str("status", chc::toString(R.Status))
      .flag("validated", Validated)
      .num("encode_ms", millis(Log, EncodeId))
      .num("analysis_ms", millis(Log, AnalysisId))
      .raw("passes", Passes)
      .count("lp_pivots", Pivots)
      .count("xfer_hits", XferHits)
      .count("xfer_lookups", XferLookups)
      .count("verify_hits", VerifyHits)
      .count("verify_lookups", VerifyLookups)
      .flag("discharged", A.ProvedSat)
      .num("solve_ms", SolveMs)
      .num("cegar_ms", SolveMs - EngineAnalysisMs)
      .count("iters", R.Stats.Iterations)
      .count("samples", R.Stats.Samples)
      .count("queries", R.Stats.SmtQueries)
      .count("checks", C.ChecksIssued)
      .count("memo_hits", C.CacheHits)
      .count("memo_lookups", C.CacheHits + C.CacheMisses)
      .count("reused", C.RebuildsAvoided)
      .count("rebuilt", C.SolverRebuilds)
      .num("validate_ms", ValidateMs)
      .num("traced_ms", millis(Log, EncodeId) + SolveMs + ValidateMs)
      .print();
}

void tracedSequentialRound(int Round, const std::vector<Input> &Inputs,
                           SpanLog &Log) {
  double RW = wallNow(), RC = cpuNow();
  for (size_t I = 0; I < Inputs.size(); ++I)
    tracedRequest(Round, I, Inputs[I], Log);
  roundRecord(Round, true, wallNow() - RW, cpuNow() - RC, 0);
}

/// Learning problems captured through the public `Learner` hook in an
/// untimed solve, then timed through `ml::learn` with the full options. The
/// hook does not see the analysis-derived features, so timing inside it
/// would measure a different program.
void learnReplay(size_t Index, const Input &In, SpanLog &Log) {
  struct Problem {
    std::vector<const Term *> Vars;
    ml::Dataset Data;
    uint64_t Seed = 0;
  };
  TermManager TM;
  chc::ChcSystem System(TM);
  frontend::encodeMiniC(In.Program->Source, System);
  const solver::SolveOptions &O = In.Request.Options;
  solver::DataDrivenOptions Capture = O.Solver;
  Capture.Limits = O.Limits.resolvedOver(Capture.Limits);
  std::vector<Problem> Problems;
  Capture.Learner = [&Problems, &O](TermManager &LTM,
                                    const std::vector<const Term *> &Vars,
                                    const ml::Dataset &Data, uint64_t Seed) {
    Problems.push_back({Vars, Data, Seed});
    ml::LearnOptions LO = O.Solver.Learn;
    LO.LA.Seed = Seed;
    return ml::learn(LTM, Vars, Data, LO);
  };
  solver::DataDrivenChcSolver(Capture).solve(System);

  int Req = static_cast<int>(Index);
  ScopedSpan Top(Log, In.Name + " (learn replay)", -1, Req);
  for (const Problem &P : Problems) {
    ml::LearnOptions LO = O.Solver.Learn;
    LO.LA.Seed = P.Seed;
    int Id = Log.open("ml.learn", Top.id(), Req);
    ml::LearnResult R = ml::learn(TM, P.Vars, P.Data, LO);
    Log.close(Id);
    Record("learn")
        .count("i", Index)
        .num("ms", millis(Log, Id))
        .count("samples", P.Data.size())
        .flag("ok", R.Ok)
        .print();
  }
}

//===----------------------------------------------------------------------===//
// The serve workload: `server::SolverService` in process.
//===----------------------------------------------------------------------===//

/// Requests the generator keeps outstanding (closed loop).
constexpr size_t Outstanding = 4;
/// Host probes taken before and again after each untraced serve round. The
/// service's threads would compete with a probe taken during the round.
constexpr int ServeProbes = 16;

/// Completion times written by the service's worker threads.
struct Completions {
  std::mutex Mutex;
  std::condition_variable Changed;
  std::unordered_map<uint64_t, double> DoneAt; // guarded by Mutex
  size_t Count = 0;                            // guarded by Mutex
};

void schedRecord(int Round, size_t Index, const server::JobResult &J) {
  std::string Stages = "[", Lanes = "[";
  for (const solver::StageReport &St : J.Result.Stages) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), ",\"s\":%.9g,\"hit\":%s,\"lanes\":%zu}",
                  St.Seconds, St.Hit ? "true" : "false", St.Engines.size());
    Stages += (Stages.size() > 1 ? ",{\"stage\":" : "{\"stage\":") +
              jsonString(St.Stage) + Buf;
  }
  for (const solver::EngineReport &E : J.Result.Engines) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  ",\"s\":%.9g,\"start\":%.9g,\"stop\":%.9g,\"winner\":%s,"
                  "\"cancelled\":%s}",
                  E.Seconds, E.StartSeconds, E.StopSeconds,
                  E.Winner ? "true" : "false", E.Cancelled ? "true" : "false");
    Lanes += (Lanes.size() > 1 ? ",{\"engine\":" : "{\"engine\":") +
             jsonString(E.Engine) + Buf;
  }
  Record("sched")
      .count("round", static_cast<uint64_t>(Round))
      .count("i", Index)
      .flag("cache", J.CacheHit)
      .flag("escalated", J.Result.Escalated)
      .raw("stages", Stages + "]")
      .raw("lanes", Lanes + "]")
      .print();
}

/// One round: a fresh service (cold memo cache), one generator keeping
/// `Outstanding` requests in flight. A repeat is submitted only after its
/// original completed, so it always reads the memo cache the original
/// wrote. Latency runs from submit to the completion callback.
void serveRound(int Round, const std::vector<Input> &Inputs, SpanLog *Log) {
  std::vector<double> Probes;
  for (int K = 0; !Log && K < ServeProbes; ++K)
    Probes.push_back(probeSeconds(ServeProbeThreads));
  Completions C;
  server::ServiceOptions SO;
  SO.Workers = 2;
  SO.OnComplete = [&C](const server::JobResult &J) {
    double Now = wallNow();
    {
      std::lock_guard<std::mutex> Lock(C.Mutex);
      C.DoneAt[J.Id] = Now;
      ++C.Count;
    }
    C.Changed.notify_all();
  };
  server::SolverService Service(SO);

  size_t N = Inputs.size();
  std::vector<double> Submitted(N, 0);
  std::vector<uint64_t> Ids(N, 0);
  std::vector<std::future<server::JobResult>> Results(N);
  size_t Accepted = 0;
  double RW = wallNow(), RC = cpuNow();
  for (size_t I = 0; I < N; ++I) {
    size_t First = Inputs[I].FirstOf;
    {
      std::unique_lock<std::mutex> Lock(C.Mutex);
      C.Changed.wait(Lock, [&] {
        return Accepted - C.Count < Outstanding &&
               (First == I || Ids[First] == 0 || C.DoneAt.count(Ids[First]));
      });
    }
    Submitted[I] = wallNow();
    server::Ticket T = Service.submit(Inputs[I].Request);
    if (T.Status != server::SubmitStatus::Accepted)
      continue;
    std::lock_guard<std::mutex> Lock(C.Mutex);
    Ids[I] = T.Id;
    Results[I] = std::move(T.Result);
    ++Accepted;
  }
  {
    std::unique_lock<std::mutex> Lock(C.Mutex);
    C.Changed.wait(Lock, [&] { return C.Count == Accepted; });
  }
  double Cpu = cpuNow() - RC;
  double LastDone = RW;
  for (size_t I = 0; I < N; ++I) {
    if (Ids[I] == 0) {
      Record("req")
          .count("round", static_cast<uint64_t>(Round))
          .count("i", I)
          .str("name", Inputs[I].Name)
          .count("k", Inputs[I].Occurrence)
          .flag("rejected", true)
          .print();
      continue;
    }
    server::JobResult J = Results[I].get();
    double Done = C.DoneAt[Ids[I]];
    LastDone = std::max(LastDone, Done);
    double Latency = Done - Submitted[I];
    requestRecord(Round, I, Inputs[I], J.Result, Latency, 0)
        .flag("cache", J.CacheHit)
        .num("queue", J.QueueSeconds)
        .num("run", J.RunSeconds)
        .print();
    if (!Log)
      continue;
    schedRecord(Round, I, J);
    int Req = static_cast<int>(I);
    int Top = Log->add(Inputs[I].Name, Submitted[I], Done, -1, Req);
    double RunStart = Submitted[I] + J.QueueSeconds;
    Log->add("server.queue", Submitted[I], RunStart, Top, Req);
    int Run = Log->add("server.run", RunStart, RunStart + J.RunSeconds, Top, Req);
    double StageStart = RunStart;
    for (const solver::StageReport &St : J.Result.Stages) {
      Log->add("sched." + St.Stage, StageStart, StageStart + St.Seconds, Run,
               Req);
      StageStart += St.Seconds;
    }
  }
  Service.shutdown(true);
  for (int K = 0; !Log && K < ServeProbes; ++K)
    Probes.push_back(probeSeconds(ServeProbeThreads));
  roundRecord(Round, Log != nullptr, LastDone - RW, Cpu,
              Probes.empty() ? 0 : median(Probes));
}

/// SMT-LIB2 print and parse time of each distinct input, best of 3 each:
/// the system (encoded, or parsed from its file) is printed, and the
/// printed text parsed back.
void smtlibReplay(const std::vector<Input> &Inputs, SpanLog &Log) {
  for (size_t I = 0; I < Inputs.size(); ++I) {
    if (Inputs[I].FirstOf != I)
      continue;
    int Req = static_cast<int>(I);
    TermManager TM;
    chc::ChcSystem System(TM);
    if (Inputs[I].Program)
      frontend::encodeMiniC(Inputs[I].Program->Source, System);
    else
      smtlib2::parseSmtLib2(Inputs[I].Request.Source, System);
    std::string Text;
    double PrintMs = 0, ParseMs = 0;
    for (int K = 0; K < 3; ++K) {
      int Id = Log.open("smtlib2.print", -1, Req);
      Text = smtlib2::printSmtLib2(System);
      Log.close(Id);
      PrintMs = K == 0 ? millis(Log, Id) : std::min(PrintMs, millis(Log, Id));
    }
    for (int K = 0; K < 3; ++K) {
      TermManager ParseTM;
      chc::ChcSystem Parsed(ParseTM);
      int Id = Log.open("smtlib2.parse", -1, Req);
      smtlib2::parseSmtLib2(Text, Parsed);
      Log.close(Id);
      ParseMs = K == 0 ? millis(Log, Id) : std::min(ParseMs, millis(Log, Id));
    }
    Record("parse")
        .count("i", I)
        .num("print_ms", PrintMs)
        .num("parse_ms", ParseMs)
        .print();
  }
}

} // namespace

int main() {
  Spec S;
  std::string Error;
  if (!readSpec(std::cin, S, Error)) {
    Record("error").str("msg", Error).print();
    return 2;
  }
  probeSeconds(); // first use maps the probe's arena
  auto timedSetUp = [&](std::vector<Input> &Out) {
    double Probe = probeSeconds();
    double T0 = wallNow();
    bool Ok = setUp(S, Out, Error);
    if (Ok)
      Record("setup").num("s", wallNow() - T0).num("probe", Probe).print();
    return Ok;
  };
  std::vector<Input> Inputs;
  if (!timedSetUp(Inputs)) {
    Record("error").str("msg", Error).print();
    return 2;
  }

  bool Serve = S.Workload == "serve";
  // Each serve round submits the same requests in its own order, so the
  // median round is not the luck of a single order.
  std::unordered_map<std::string, const Input *> ByName;
  for (const Input &In : Inputs)
    ByName.emplace(In.Name, &In);
  for (const std::vector<std::string> &Order : S.Orders)
    for (const std::string &Name : Order)
      if (!ByName.count(Name)) {
        Record("error").str("msg", "order names unknown request " + Name).print();
        return 2;
      }
  auto serveOrder = [&](int Round) {
    if (S.Orders.empty())
      return Inputs;
    std::vector<Input> Order;
    for (const std::string &Name :
         S.Orders[static_cast<size_t>(Round) % S.Orders.size()])
      Order.push_back(*ByName.at(Name));
    numberRepeats(Order);
    return Order;
  };
  // A traced run splits its time: untraced rounds first (the base of the
  // tracing overhead), then traced rounds.
  double Untraced = S.Trace ? S.Seconds * 0.4 : S.Seconds;
  // Set-up is timed again between requests (between rounds for `serve`),
  // in bursts paced to spread evenly over the untraced measuring time.
  int BurstsDone = 0;
  double UntracedStart = wallNow();
  auto paceSetUps = [&](double Share) {
    int Due = std::min(SetUpBursts, 1 + static_cast<int>(SetUpBursts * Share));
    for (; BurstsDone < Due; ++BurstsDone)
      for (int K = 0; K < SetUpsPerBurst; ++K) {
        std::vector<Input> Scratch;
        timedSetUp(Scratch);
      }
  };
  auto paceByClock = [&] {
    paceSetUps((wallNow() - UntracedStart) / Untraced);
  };
  // Sequential rounds run on each allowed CPU in turn. The host slows single
  // vCPUs for seconds to minutes at a time, and a thread the scheduler keeps
  // on one of them would see only that vCPU's spell; rotating gives every
  // request samples on every CPU. Whole rounds stay on one CPU, so requests
  // keep warm caches and a round's probes see the CPU its requests ran on.
  const std::vector<int> Cpus = allowedCpus();
  int Rounds = runRounds(MinRounds, Untraced, [&](int R) {
    if (Serve) {
      paceByClock();
      serveRound(R, serveOrder(R), nullptr);
      return;
    }
    if (!Cpus.empty())
      pinTo({Cpus[static_cast<size_t>(R) % Cpus.size()]});
    sequentialRound(R, Inputs, paceByClock);
  });
  pinTo(Cpus);
  paceSetUps(1.0);
  SpanLog Log;
  if (S.Trace) {
    Rounds += runRounds(1, S.Seconds * 0.3, [&](int R) {
      if (Serve)
        serveRound(Rounds + R, serveOrder(Rounds + R), &Log);
      else
        tracedSequentialRound(Rounds + R, Inputs, Log);
    });
    smtlibReplay(Inputs, Log);
    // Deadline requests are clock-bound and serve runs the staged path:
    // learning is captured on the CEGAR path only.
    if (S.Workload == "cegar" || S.Workload == "static")
      for (size_t I = 0; I < Inputs.size(); ++I)
        if (Inputs[I].FirstOf == I)
          learnReplay(I, Inputs[I], Log);
    if (!S.TraceFile.empty() && !Log.write(S.TraceFile)) {
      Record("error").str("msg", "cannot write " + S.TraceFile).print();
      return 2;
    }
  }
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  Record("end")
      .count("rounds", static_cast<uint64_t>(Rounds))
      .num("rss_mb", static_cast<double>(RU.ru_maxrss) / 1024.0)
      .print();
  return 0;
}
