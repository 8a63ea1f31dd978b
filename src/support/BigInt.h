//===- support/BigInt.h - Arbitrary-precision integers ----------*- C++ -*-===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sign-magnitude arbitrary-precision integer used by the exact arithmetic
/// layer (rationals, simplex pivots, Farkas certificates).
///
/// Nearly every value that occurs in CHC solving fits in a machine word, so
/// a value in [-(2^63-1), 2^63-1] is stored inline as an int64_t and never
/// touches the heap. Addition, subtraction and multiplication of two inline
/// values are overflow-checked and fall through to the limb code on
/// overflow; every limb result that fits moves back inline. INT64_MIN is
/// kept out of the inline range (the int64_t constructor gives it the limb
/// form), so negation, abs and division by -1 of an inline value cannot
/// overflow. The limb code (schoolbook
/// multiplication, shift-subtract division) is the only slow path.
///
/// hash() depends only on the value, never on its form: an inline value
/// hashes as the one-limb magnitude it would have in the limb form. The
/// iteration order of unordered containers keyed by numbers, and so the
/// solver's work counters, rely on that.
///
//===----------------------------------------------------------------------===//

#ifndef LA_SUPPORT_BIGINT_H
#define LA_SUPPORT_BIGINT_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace la {

/// Arbitrary-precision signed integer.
///
/// Representation invariant: every value has exactly one form. When
/// \c Limbs is empty the value is \c Small, which is never INT64_MIN.
/// Otherwise the magnitude is \c Limbs, little-endian with no leading zero
/// limb and greater than INT64_MAX, and \c Small is the sign, +1 or -1.
class BigInt {
public:
  /// Constructs zero.
  BigInt() = default;

  /// Constructs from a machine integer.
  BigInt(int64_t Value);

  /// Parses a decimal string with optional leading '-'.
  ///
  /// \returns std::nullopt if \p Text is empty or contains a non-digit.
  static std::optional<BigInt> fromString(const std::string &Text);

  /// \returns -1, 0 or +1.
  int signum() const { return (Small > 0) - (Small < 0); }

  bool isZero() const { return Small == 0; }
  bool isOne() const { return Small == 1 && Limbs.empty(); }
  bool isNegative() const { return Small < 0; }

  BigInt operator-() const;
  BigInt abs() const;

  BigInt operator+(const BigInt &RHS) const;
  BigInt operator-(const BigInt &RHS) const;
  BigInt operator*(const BigInt &RHS) const;

  BigInt &operator+=(const BigInt &RHS) { return *this = *this + RHS; }
  BigInt &operator-=(const BigInt &RHS) { return *this = *this - RHS; }
  BigInt &operator*=(const BigInt &RHS) { return *this = *this * RHS; }

  /// Truncating division (C semantics): the quotient rounds toward zero and
  /// the remainder has the sign of the dividend. Asserts on division by zero.
  struct DivModResult;
  DivModResult divMod(const BigInt &Divisor) const;

  /// Quotient of truncating division.
  BigInt operator/(const BigInt &RHS) const;
  /// Remainder of truncating division.
  BigInt operator%(const BigInt &RHS) const;

  /// Euclidean (non-negative) remainder, used for `mod` feature semantics.
  BigInt euclideanMod(const BigInt &Divisor) const;

  /// Greatest common divisor of the absolute values; gcd(0, 0) == 0.
  static BigInt gcd(const BigInt &A, const BigInt &B);

  bool operator==(const BigInt &RHS) const {
    return Small == RHS.Small && Limbs == RHS.Limbs;
  }
  bool operator!=(const BigInt &RHS) const { return !(*this == RHS); }
  bool operator<(const BigInt &RHS) const { return compare(RHS) < 0; }
  bool operator<=(const BigInt &RHS) const { return compare(RHS) <= 0; }
  bool operator>(const BigInt &RHS) const { return compare(RHS) > 0; }
  bool operator>=(const BigInt &RHS) const { return compare(RHS) >= 0; }

  /// Three-way comparison: negative, zero or positive.
  int compare(const BigInt &RHS) const;

  /// \returns the value as int64_t, or std::nullopt when out of range.
  std::optional<int64_t> toInt64() const;

  /// \returns a double approximation (may overflow to +/-inf).
  double toDouble() const;

  std::string toString() const;

  /// Number of significant bits of the magnitude (0 for zero).
  size_t bitLength() const;

  /// Hash suitable for unordered containers.
  size_t hash() const;

private:
  using Magnitude = std::vector<uint64_t>;

  bool isSmall() const { return Limbs.empty(); }
  /// The magnitude as limbs: a reference to \c Limbs, or the inline value
  /// spelled into \p Scratch.
  const Magnitude &magnitude(Magnitude &Scratch) const;
  /// Builds the canonical value of sign \p Negative and magnitude \p Mag,
  /// which may carry leading zero limbs.
  static BigInt fromMagnitude(bool Negative, Magnitude Mag);

  /// Magnitude comparison helper: -1, 0, +1 over |A| vs |B|.
  static int compareMagnitude(const Magnitude &A, const Magnitude &B);
  static Magnitude addMagnitude(const Magnitude &A, const Magnitude &B);
  /// Requires |A| >= |B|.
  static Magnitude subMagnitude(const Magnitude &A, const Magnitude &B);

  int64_t Small = 0;
  Magnitude Limbs;
};

struct BigInt::DivModResult {
  BigInt Quotient;
  BigInt Remainder;
};

} // namespace la

#endif // LA_SUPPORT_BIGINT_H
