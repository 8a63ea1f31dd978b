//===- support/ProcessRunner.cpp - Forked worker with hard limits ---------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ProcessRunner.h"

#include "support/Timer.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <new>

#include <csignal>
#include <poll.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

namespace la {

namespace {

/// Pipe payload header: magic then u64 little-endian byte count.
constexpr char Magic[4] = {'L', 'A', 'P', 'R'};

/// Child exit codes understood by the parent-side classifier.
constexpr int ExitOk = 0;
constexpr int ExitException = 3;
constexpr int ExitBadAlloc = 4;

/// write(2) the whole buffer, retrying on EINTR and short writes. Returns
/// false on any hard error (e.g. the parent died and closed the pipe).
bool writeAll(int Fd, const void *Data, size_t Len) {
  const char *P = static_cast<const char *>(Data);
  while (Len > 0) {
    ssize_t N = ::write(Fd, P, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

void applyRlimits(const ProcessLimits &Limits) {
  if (Limits.CpuSeconds > 0) {
    // Soft limit delivers SIGXCPU at the budget; the hard limit two
    // seconds later delivers SIGKILL in case the child ignores it.
    auto Soft = static_cast<rlim_t>(Limits.CpuSeconds < 1 ? 1
                                                          : Limits.CpuSeconds);
    struct rlimit RL = {Soft, Soft + 2};
    ::setrlimit(RLIMIT_CPU, &RL);
  }
  if (Limits.MemoryBytes > 0) {
    auto Cap = static_cast<rlim_t>(Limits.MemoryBytes);
    struct rlimit RL = {Cap, Cap};
    ::setrlimit(RLIMIT_AS, &RL);
  }
}

/// Child side: run the work, ship the result, and _exit without running
/// atexit handlers (the parent's handlers must not run twice, and the child
/// intentionally leaks everything — the address space is about to go away).
[[noreturn]] void runChild(int Fd, const std::function<std::string()> &Work,
                           const ProcessLimits &Limits) {
  applyRlimits(Limits);
  // Keep only the standard streams and this child's own pipe end. When two
  // lanes fork at once, each child inherits the other's pipe write end;
  // held open here it would hide the sibling's EOF until this child dies.
  auto Own = static_cast<unsigned>(Fd);
  if (Own > 3)
    ::close_range(3, Own - 1, 0);
  ::close_range(Own + 1, ~0U, 0);
  std::string Payload;
  int Code = ExitOk;
  try {
    Payload = Work();
  } catch (const std::bad_alloc &) {
    Payload = "std::bad_alloc";
    Code = ExitBadAlloc;
  } catch (const std::exception &E) {
    const char *What = E.what();
    Payload = (What != nullptr && *What != '\0')
                  ? What
                  : "engine threw an exception with no message";
    Code = ExitException;
  } catch (...) {
    Payload = "engine threw a non-standard exception";
    Code = ExitException;
  }
  uint64_t Len = Payload.size();
  bool Ok = writeAll(Fd, Magic, sizeof(Magic)) &&
            writeAll(Fd, &Len, sizeof(Len)) &&
            writeAll(Fd, Payload.data(), Payload.size());
  ::close(Fd);
  _exit(Ok ? Code : ExitException);
}

/// Why the parent sent SIGKILL, if it did.
enum class KillReason { None, Deadline, Cancelled };

/// True when the child has already terminated on its own; it stays
/// reapable, so the final `waitpid` still sees how it ended.
bool alreadyExited(pid_t Pid) {
  siginfo_t Info{};
  int Flags = WEXITED | WNOHANG | WNOWAIT;
  return ::waitid(P_PID, static_cast<id_t>(Pid), &Info, Flags) == 0 &&
         Info.si_pid == Pid;
}

} // namespace

const char *toString(LaneOutcome O) {
  switch (O) {
  case LaneOutcome::Completed:
    return "completed";
  case LaneOutcome::Failed:
    return "failed";
  case LaneOutcome::Crashed:
    return "crashed";
  case LaneOutcome::TimedOut:
    return "timed-out";
  case LaneOutcome::Cancelled:
    return "cancelled";
  case LaneOutcome::CpuLimit:
    return "cpu-limit";
  case LaneOutcome::MemoryLimit:
    return "memory-limit";
  }
  return "unknown";
}

std::string ProcessResult::describe() const {
  char Buf[128];
  switch (Outcome) {
  case LaneOutcome::Completed:
    return "completed";
  case LaneOutcome::Failed:
    return Payload.empty() ? "engine failed" : Payload;
  case LaneOutcome::Crashed:
    if (Signal != 0) {
      const char *Name = strsignal(Signal);
      snprintf(Buf, sizeof(Buf), "killed by signal %d (%s)", Signal,
               Name != nullptr ? Name : "?");
      return Buf;
    }
    snprintf(Buf, sizeof(Buf), "crashed (exit code %d, truncated result)",
             ExitCode);
    return Buf;
  case LaneOutcome::TimedOut:
    snprintf(Buf, sizeof(Buf), "wall deadline exceeded after %.2fs (killed)",
             Seconds);
    return Buf;
  case LaneOutcome::Cancelled:
    return "cancelled (killed after another lane won)";
  case LaneOutcome::CpuLimit:
    return "CPU rlimit exceeded (killed by the kernel)";
  case LaneOutcome::MemoryLimit:
    return Payload.empty() ? "memory rlimit exceeded (std::bad_alloc)"
                           : "memory rlimit exceeded (" + Payload + ")";
  }
  return "unknown outcome";
}

ProcessResult
runInChildProcess(const std::function<std::string()> &Work,
                  const ProcessLimits &Limits,
                  const std::shared_ptr<const CancellationToken> &Cancel) {
  ProcessResult Out;
  Timer Clock;

  int Fds[2];
  if (::pipe(Fds) != 0) {
    Out.Outcome = LaneOutcome::Crashed;
    Out.Payload = "pipe() failed";
    return Out;
  }

  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Fds[0]);
    ::close(Fds[1]);
    Out.Outcome = LaneOutcome::Crashed;
    Out.Payload = "fork() failed";
    return Out;
  }
  if (Pid == 0) {
    ::close(Fds[0]);
    runChild(Fds[1], Work, Limits); // does not return
  }

  ::close(Fds[1]);
  int Rd = Fds[0];

  // Read the pipe to EOF while enforcing the wall deadline and the shared
  // cancellation token. SIGKILL is sent at most once; the loop keeps
  // draining afterwards so a payload already in flight is not lost.
  std::string Raw;
  KillReason Killed = KillReason::None;
  char Buf[4096];
  for (;;) {
    if (Killed == KillReason::None) {
      KillReason Why = KillReason::None;
      if (Limits.WallSeconds > 0 && Clock.elapsedSeconds() > Limits.WallSeconds)
        Why = KillReason::Deadline;
      else if (isCancelled(Cancel))
        Why = KillReason::Cancelled;
      // A child that already died (say, on SIGABRT) is classified by its
      // own end, not by a kill that came too late to matter.
      if (Why != KillReason::None && !alreadyExited(Pid)) {
        Killed = Why;
        ::kill(Pid, SIGKILL);
      }
    }
    struct pollfd PFd = {Rd, POLLIN, 0};
    int PR = ::poll(&PFd, 1, /*timeout_ms=*/20);
    if (PR < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (PR == 0)
      continue; // poll tick: re-check deadline/cancellation above
    ssize_t N = ::read(Rd, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (N == 0)
      break; // EOF: child closed its end (exited or was killed)
    Raw.append(Buf, static_cast<size_t>(N));
  }
  ::close(Rd);

  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  Out.Seconds = Clock.elapsedSeconds();

  // Decode the payload if a complete frame arrived.
  bool FrameOk = false;
  if (Raw.size() >= sizeof(Magic) + sizeof(uint64_t) &&
      memcmp(Raw.data(), Magic, sizeof(Magic)) == 0) {
    uint64_t Len = 0;
    memcpy(&Len, Raw.data() + sizeof(Magic), sizeof(Len));
    if (Raw.size() == sizeof(Magic) + sizeof(uint64_t) + Len) {
      Out.Payload = Raw.substr(sizeof(Magic) + sizeof(uint64_t));
      FrameOk = true;
    }
  }

  // Classification order: a complete frame from a normally-exited child
  // wins (it finished before any kill landed), then a parent-initiated
  // kill, then the termination signal.
  if (WIFEXITED(Status) && FrameOk) {
    Out.ExitCode = WEXITSTATUS(Status);
    switch (Out.ExitCode) {
    case ExitOk:
      Out.Outcome = LaneOutcome::Completed;
      break;
    case ExitBadAlloc:
      Out.Outcome = Limits.MemoryBytes > 0 ? LaneOutcome::MemoryLimit
                                           : LaneOutcome::Failed;
      break;
    default:
      Out.Outcome = LaneOutcome::Failed;
      break;
    }
    return Out;
  }
  if (Killed == KillReason::Deadline) {
    Out.Outcome = LaneOutcome::TimedOut;
    Out.Payload.clear();
    return Out;
  }
  if (Killed == KillReason::Cancelled) {
    Out.Outcome = LaneOutcome::Cancelled;
    Out.Payload.clear();
    return Out;
  }
  if (WIFSIGNALED(Status)) {
    Out.Signal = WTERMSIG(Status);
    Out.Outcome = (Out.Signal == SIGXCPU || Out.Signal == SIGKILL)
                      ? LaneOutcome::CpuLimit
                      : LaneOutcome::Crashed;
    // SIGKILL we did not send means the kernel's RLIMIT_CPU hard limit (or
    // the OOM killer) fired; with no CPU limit configured, call it a crash.
    if (Out.Signal == SIGKILL && Limits.CpuSeconds <= 0)
      Out.Outcome = LaneOutcome::Crashed;
    return Out;
  }
  if (WIFEXITED(Status)) {
    // Exited "normally" without a complete frame: something inside the
    // child (a sanitizer runtime, an abort handler) exited underneath the
    // work closure. Treat it as a crash with the exit code preserved.
    Out.ExitCode = WEXITSTATUS(Status);
  }
  Out.Outcome = LaneOutcome::Crashed;
  Out.Payload.clear();
  return Out;
}

} // namespace la
