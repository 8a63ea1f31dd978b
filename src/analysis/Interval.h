//===- analysis/Interval.h - Integer interval abstract domain ---*- C++ -*-===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classic interval abstract domain over the integers, with exact
/// rational bounds and explicit +-infinity. The relational domains report
/// per-argument bounds in it (`Octagon::boundOf`,
/// `TemplatePolyhedron::boundOf`), and the verify pass hands them to the
/// learner as `ArgBounds`.
///
/// Lattice structure: `empty` is bottom, `top` is (-inf, +inf); `join` is
/// the lattice union, `meet` the intersection, and `widen` the standard
/// interval widening (unstable bounds jump to infinity), which guarantees
/// fixpoint convergence on recursive clause systems.
///
//===----------------------------------------------------------------------===//

#ifndef LA_ANALYSIS_INTERVAL_H
#define LA_ANALYSIS_INTERVAL_H

#include "support/Rational.h"

#include <string>

namespace la::analysis {

/// Largest integer <= V.
Rational floorOf(const Rational &V);
/// Smallest integer >= V.
Rational ceilOf(const Rational &V);

/// A (possibly unbounded, possibly empty) interval of rationals.
class Interval {
public:
  /// The full line (-inf, +inf).
  Interval() = default;

  static Interval top() { return Interval(); }
  static Interval empty();
  static Interval constant(Rational V);
  static Interval range(Rational Lo, Rational Hi);
  static Interval atLeast(Rational Lo);
  static Interval atMost(Rational Hi);

  bool isEmpty() const { return Empty; }
  bool isTop() const { return !Empty && !HasLo && !HasHi; }
  bool hasLo() const { return !Empty && HasLo; }
  bool hasHi() const { return !Empty && HasHi; }
  /// Finite bounds; only meaningful when hasLo()/hasHi().
  const Rational &lo() const { return Lo; }
  const Rational &hi() const { return Hi; }

  bool contains(const Rational &V) const;

  /// Lattice union / intersection.
  Interval join(const Interval &O) const;
  Interval meet(const Interval &O) const;
  /// Standard widening: bounds of \p Next that moved past this interval's
  /// bounds are dropped to infinity. `this` is the previous iterate.
  Interval widen(const Interval &Next) const;

  /// Abstract arithmetic (sound over-approximations).
  Interval operator+(const Interval &O) const;
  Interval scaled(const Rational &Factor) const;
  Interval negated() const { return scaled(Rational(-1)); }

  /// Rounds the bounds to the nearest enclosed integers (sound when the
  /// concrete values are known to be integral, as all CHC variables are).
  /// May produce the empty interval (e.g. [1/3, 2/3]).
  Interval tightenIntegral() const;

  bool operator==(const Interval &O) const;
  bool operator!=(const Interval &O) const { return !(*this == O); }

  std::string toString() const;

private:
  bool Empty = false;
  bool HasLo = false;
  bool HasHi = false;
  Rational Lo;
  Rational Hi;

  /// Canonicalises: a crossed pair of bounds collapses to the empty value.
  void normalize();
};

} // namespace la::analysis

#endif // LA_ANALYSIS_INTERVAL_H
