//===- server/SolverService.h - Solver-as-a-service scheduler ---*- C++ -*-===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-process solver service: a thread pool draining a bounded job
/// queue of `SolveRequest`s through the façade's `solve()` entry point.
///
/// Contract:
///
///   * `submit` is non-blocking. A full queue is *rejected* with a
///     retry-after estimate (backpressure travels to the client instead of
///     unbounded buffering inside the server);
///   * every job carries its own `Budget`. The wall-clock budget covers the
///     whole stay in the service — a job whose budget expires while still
///     *queued* is completed as expired without ever running;
///   * definitive results (sat/unsat) are memoised in a bounded LRU cache
///     keyed on the full request (source, format, engine, limits), so
///     repeated identical requests — common when a fleet of CI jobs asks
///     about the same benchmark — are answered without a solve;
///   * `shutdown(Drain)` stops intake, then either finishes the queued work
///     or cancels it cooperatively; the destructor drains.
///
/// The service is deliberately transport-free so tests can drive it
/// directly; `server/Daemon.h` wraps it in a line protocol over iostreams.
///
//===----------------------------------------------------------------------===//

#ifndef LA_SERVER_SOLVERSERVICE_H
#define LA_SERVER_SOLVERSERVICE_H

#include "solver/SolveFacade.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace la::server {

/// Verdict of a `submit` call.
enum class SubmitStatus {
  Accepted,     ///< Queued (or answered from cache); the future is live.
  QueueFull,    ///< Backpressure: retry after `RetryAfterSeconds`.
  ShuttingDown, ///< The service no longer accepts work.
};

/// Final outcome of one accepted job.
struct JobResult {
  uint64_t Id = 0;
  solver::SolveResult Result;
  /// The wall budget ran out while the job was still queued; `Result` is
  /// an error ("budget expired in queue") and no engine ever ran.
  bool ExpiredInQueue = false;
  /// Answered from the memo cache without running an engine.
  bool CacheHit = false;
  double QueueSeconds = 0; ///< Time spent waiting for a worker.
  double RunSeconds = 0;   ///< Time inside the façade (0 on cache hit).
};

/// What `submit` hands back immediately.
struct Ticket {
  SubmitStatus Status = SubmitStatus::Accepted;
  uint64_t Id = 0; ///< Service-assigned job id (0 when rejected).
  /// Suggested client back-off when `Status == QueueFull`: queue depth
  /// times the recent mean solve time (EWMA), never below
  /// `ServiceOptions::RetryFloorSeconds` — in particular it is nonzero
  /// even before the EWMA has its first sample (cold start).
  double RetryAfterSeconds = 0;
  /// The job's outcome; valid only when `Status == Accepted`.
  std::future<JobResult> Result;
};

/// Point-in-time counters, all since construction unless noted.
struct ServiceMetrics {
  size_t Workers = 0;
  size_t QueueDepth = 0;    ///< Jobs waiting right now.
  size_t InFlight = 0;      ///< Jobs running right now.
  size_t QueueCapacity = 0;
  uint64_t Submitted = 0;   ///< Accepted jobs (cache hits included).
  uint64_t Rejected = 0;    ///< QueueFull + ShuttingDown rejections.
  uint64_t Completed = 0;   ///< Futures fulfilled, any outcome.
  uint64_t SolvedSat = 0;
  uint64_t SolvedUnsat = 0;
  uint64_t Unknown = 0;     ///< Completed without a definitive verdict.
  uint64_t Errors = 0;      ///< Completed with `!Result.Ok`.
  uint64_t ExpiredInQueue = 0;
  /// Staged-schedule jobs answered before the escalation race (the probe
  /// or the top-k stage hit).
  uint64_t StageHits = 0;
  /// Staged-schedule jobs that fell through to the full escalation race.
  uint64_t Escalations = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0; ///< Lookups that went on to run an engine.
  /// Jobs whose whole result came from the persistent disk cache
  /// (`ServiceOptions::DiskCache`) without running an engine.
  uint64_t DiskCacheServed = 0;
  /// Snapshot of the shared `FileCache` counters (all zero when the
  /// service runs without a disk cache). Hits/misses count both tiers —
  /// whole-request verdicts and clause-check records.
  uint64_t DiskHits = 0;
  uint64_t DiskMisses = 0;
  uint64_t DiskStores = 0;
  uint64_t DiskEvictions = 0;
  uint64_t DiskCorrupt = 0;
  /// Definitive verdicts per second of service uptime.
  double SolvedPerSecond = 0;
  double UptimeSeconds = 0;
  /// Definitive-verdict counts per requested engine id ("la", "pdr", ...).
  std::vector<std::pair<std::string, uint64_t>> EngineWins;

  /// Multi-line human-readable report (the daemon's `metrics` reply).
  std::string report() const;
  /// Single-line JSON object with the same fields.
  std::string json() const;
};

/// Configuration of the service.
struct ServiceOptions {
  size_t Workers = 4;
  size_t QueueCapacity = 64;
  /// Overlaid under each request's own limits (request fields win); the
  /// service-level default budget for clients that send none.
  Budget DefaultLimits{60, 0};
  /// Capacity of the definitive-result memo cache (0 disables it).
  size_t CacheCapacity = 128;
  /// Lower bound of the `QueueFull` retry-after estimate. Guards the cold
  /// start: before the EWMA has a sample the estimate would otherwise
  /// degenerate, and a zero retry-after makes clients busy-spin against a
  /// full queue. Non-positive values fall back to 0.1s.
  double RetryFloorSeconds = 0.1;
  /// Persistent on-disk result cache shared by every job: injected into
  /// each request's `SolveOptions::DiskCache` (unless the request already
  /// carries one), so verdicts and clause-check records survive restarts
  /// and crashes of the daemon.
  std::shared_ptr<FileCache> DiskCache;
  /// Invoked on the worker thread after each job completes (after the
  /// future is satisfied). Used by the daemon to push responses.
  std::function<void(const JobResult &)> OnComplete;
};

/// The thread-pool scheduler. All public methods are thread-safe.
class SolverService {
public:
  explicit SolverService(ServiceOptions Opts = {});
  ~SolverService(); ///< Equivalent to `shutdown(true)`.

  SolverService(const SolverService &) = delete;
  SolverService &operator=(const SolverService &) = delete;

  /// Enqueues \p Request. Non-blocking; see `SubmitStatus`.
  Ticket submit(solver::SolveRequest Request);

  /// Cooperatively cancels job \p Id (queued or running). A queued job
  /// completes immediately as cancelled; a running one stops at the
  /// engine's next cancellation poll. Returns false when the id is not
  /// live (unknown or already completed).
  bool cancel(uint64_t Id);

  /// Stops intake. `Drain` finishes queued+running work; otherwise queued
  /// jobs complete as cancelled and running ones are cancelled
  /// cooperatively. Joins the workers; idempotent.
  void shutdown(bool Drain = true);

  ServiceMetrics metrics() const;

private:
  struct Job;

  void workerLoop();
  void noteCompleted(const JobResult &R, const std::string &Engine);
  std::string cacheKey(const solver::SolveRequest &Request) const;
  bool cacheLookup(const std::string &Key, solver::SolveResult &Out);
  void cacheStore(const std::string &Key, const solver::SolveResult &R);

  ServiceOptions Opts;
  mutable std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::deque<std::shared_ptr<Job>> Queue;
  std::unordered_map<uint64_t, std::shared_ptr<Job>> Live;
  std::vector<std::thread> Workers;
  bool AcceptingWork = true;
  bool CancelQueued = false; ///< Set by a non-drain shutdown.
  uint64_t NextId = 1;

  // Metrics state (guarded by Mutex).
  size_t InFlight = 0;
  uint64_t Submitted = 0, Rejected = 0, Completed = 0;
  uint64_t SolvedSat = 0, SolvedUnsat = 0, UnknownCount = 0, ErrorCount = 0;
  uint64_t Expired = 0, CacheHits = 0, CacheMisses = 0;
  uint64_t StageHits = 0, Escalations = 0;
  uint64_t DiskCacheServed = 0;
  std::unordered_map<std::string, uint64_t> EngineWins;
  double MeanRunSeconds = 0; ///< EWMA feeding the retry-after estimate.
  std::chrono::steady_clock::time_point Started;

  // Memo cache (guarded by Mutex): key -> list iterator, list is LRU order.
  std::list<std::pair<std::string, solver::SolveResult>> CacheList;
  std::unordered_map<
      std::string,
      std::list<std::pair<std::string, solver::SolveResult>>::iterator>
      CacheMap;
};

} // namespace la::server

#endif // LA_SERVER_SOLVERSERVICE_H
