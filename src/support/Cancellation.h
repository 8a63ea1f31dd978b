//===- support/Cancellation.h - Budgets + cooperative cancellation -*- C++ -*-//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resource-limit vocabulary shared by every CHC engine:
///
///   * `Budget` is the single pair of knobs (wall-clock seconds, iteration
///     cap) that used to be duplicated as per-engine `TimeoutSeconds` /
///     `MaxIterations` / `MaxObligations` fields;
///   * `CancellationToken` is a shared atomic flag for cooperative
///     cancellation. The plan executor hands one token to every lane of a
///     stage and trips it when a lane produces a definitive answer; the
///     token also reads as tripped once the stage deadline passes or the
///     caller's token trips. Engines poll it at their loop heads (CEGAR
///     iterations, PDR obligations, unwinding steps) and the SMT solver
///     polls it at every theory check, so cancellation latency is bounded
///     by one propagation round, not by a wall-clock poll interval.
///
//===----------------------------------------------------------------------===//

#ifndef LA_SUPPORT_CANCELLATION_H
#define LA_SUPPORT_CANCELLATION_H

#include "support/Timer.h"

#include <atomic>
#include <cstddef>
#include <memory>

namespace la {

/// Resource budget understood by every engine. Zero means "unlimited" for
/// both fields; each engine substitutes its own default iteration cap when
/// `MaxIterations` is 0 and the engine needs one for termination.
struct Budget {
  /// Wall-clock budget in seconds (0 = unlimited).
  double WallSeconds = 0;
  /// Cap on the engine's main-loop steps: CEGAR iterations for the
  /// data-driven solver, proof obligations for PDR, refinement steps for
  /// the unwinding solver (0 = engine default / unlimited).
  size_t MaxIterations = 0;

  /// Overlay semantics used when a caller-level budget (façade, portfolio
  /// lane) meets an engine-level default: nonzero caller fields win.
  Budget resolvedOver(const Budget &Defaults) const {
    Budget Out = *this;
    if (Out.WallSeconds <= 0)
      Out.WallSeconds = Defaults.WallSeconds;
    if (Out.MaxIterations == 0)
      Out.MaxIterations = Defaults.MaxIterations;
    return Out;
  }
};

/// A shared cooperative-cancellation flag. `cancel()` is sticky: once set
/// the token never resets, so late pollers always observe it.
class CancellationToken {
public:
  CancellationToken() = default;
  /// A token that also reads as cancelled once \p Parent is, or once
  /// \p Seconds have passed (non-positive = no deadline). Pollers see a
  /// deadline or a caller's cancellation without any thread relaying it.
  CancellationToken(std::shared_ptr<const CancellationToken> Parent,
                    double Seconds)
      : Parent(std::move(Parent)), Limit(Seconds) {}

  void cancel() noexcept { Flag.store(true, std::memory_order_release); }
  bool cancelled() const noexcept {
    return Flag.load(std::memory_order_acquire) ||
           (Parent && Parent->cancelled()) || Limit.expired();
  }

private:
  std::atomic<bool> Flag{false};
  std::shared_ptr<const CancellationToken> Parent;
  Deadline Limit;
};

/// Null-tolerant poll helper: engine option structs carry the token as a
/// possibly-empty shared_ptr.
inline bool isCancelled(const std::shared_ptr<const CancellationToken> &T) {
  return T && T->cancelled();
}

} // namespace la

#endif // LA_SUPPORT_CANCELLATION_H
