//===- analysis/DomainCancellation.h - Token scope for domain ops -*- C++ -*-=//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cooperative cancellation for loops *inside* abstract-domain values: the
/// octagon strong closure and the polyhedron LP closure run deep inside
/// lattice operators (`join`, `==`, `project`), which have no parameter
/// channel for a `CancellationToken`. Instead, the analysis pass installs
/// the token in a thread-local slot for the duration of its run, and the
/// value-internal loops poll `DomainCancelScope::cancelled()` at their loop
/// heads.
///
/// Cancellation mid-closure is sound by construction: an interrupted
/// closure simply leaves the value un-closed (a syntactic state with the
/// same concretization), and every downstream consumer either re-closes or
/// treats the value as an over-approximation; invariants are independently
/// re-proved by the verify pass regardless (DESIGN.md §9).
///
//===----------------------------------------------------------------------===//

#ifndef LA_ANALYSIS_DOMAINCANCELLATION_H
#define LA_ANALYSIS_DOMAINCANCELLATION_H

#include "support/Cancellation.h"

namespace la::analysis {

/// RAII installer of the thread-local cancellation token polled by
/// domain-value internal loops. Scopes nest: the previous slot is restored
/// on destruction.
///
/// The analysis installs a token that carries its deadline
/// (`AnalysisOptions::TimeoutSeconds`): one octagon transfer over a clause
/// with hundreds of SSA dimensions (or one LP closure burst) could
/// otherwise blow far past the budget inside a single fixpoint sweep, so
/// the same loop-head polls that serve cooperative cancellation also
/// enforce the time budget.
class DomainCancelScope {
public:
  explicit DomainCancelScope(std::shared_ptr<const CancellationToken> Token);
  DomainCancelScope(const DomainCancelScope &) = delete;
  DomainCancelScope &operator=(const DomainCancelScope &) = delete;
  ~DomainCancelScope();

  /// True when this thread's installed token has tripped (or its deadline
  /// has passed).
  static bool cancelled() noexcept;

  /// The installed token (possibly null); lets pass-level code forward the
  /// active token into calls that take one explicitly (e.g. LP queries).
  static const std::shared_ptr<const CancellationToken> &current() noexcept;

private:
  std::shared_ptr<const CancellationToken> Previous;
};

} // namespace la::analysis

#endif // LA_ANALYSIS_DOMAINCANCELLATION_H
