//===- analysis/DomainCancellation.cpp - Token scope for domain ops -------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/DomainCancellation.h"

using namespace la;
using namespace la::analysis;

namespace {
/// One slot per thread; passes on different portfolio lanes never observe
/// each other's tokens.
thread_local std::shared_ptr<const CancellationToken> ActiveToken;
} // namespace

DomainCancelScope::DomainCancelScope(
    std::shared_ptr<const CancellationToken> Token)
    : Previous(std::move(ActiveToken)) {
  ActiveToken = std::move(Token);
}

DomainCancelScope::~DomainCancelScope() { ActiveToken = std::move(Previous); }

bool DomainCancelScope::cancelled() noexcept { return isCancelled(ActiveToken); }

const std::shared_ptr<const CancellationToken> &
DomainCancelScope::current() noexcept {
  return ActiveToken;
}
