//===- support/BigInt.cpp - Arbitrary-precision integers ------------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace la;

namespace {
constexpr uint64_t TopBit = uint64_t(1) << 63;

/// |V| of an inline value; never INT64_MIN, so the negation is defined.
uint64_t magnitudeOf(int64_t V) {
  return V < 0 ? static_cast<uint64_t>(-V) : static_cast<uint64_t>(V);
}
} // namespace

BigInt::BigInt(int64_t Value) : Small(Value) {
  if (Value == INT64_MIN) {
    Small = -1;
    Limbs.push_back(TopBit);
  }
}

std::optional<BigInt> BigInt::fromString(const std::string &Text) {
  size_t Start = 0;
  bool Neg = false;
  if (Start < Text.size() && (Text[Start] == '-' || Text[Start] == '+')) {
    Neg = Text[Start] == '-';
    ++Start;
  }
  if (Start >= Text.size())
    return std::nullopt;
  BigInt Result;
  BigInt Ten(10);
  for (size_t I = Start; I < Text.size(); ++I) {
    if (Text[I] < '0' || Text[I] > '9')
      return std::nullopt;
    Result = Result * Ten + BigInt(Text[I] - '0');
  }
  return Neg ? -Result : Result;
}

const BigInt::Magnitude &BigInt::magnitude(Magnitude &Scratch) const {
  if (!isSmall())
    return Limbs;
  Scratch.clear();
  if (Small != 0)
    Scratch.push_back(magnitudeOf(Small));
  return Scratch;
}

BigInt BigInt::fromMagnitude(bool Negative, Magnitude Mag) {
  while (!Mag.empty() && Mag.back() == 0)
    Mag.pop_back();
  BigInt Result;
  if (Mag.empty())
    return Result;
  if (Mag.size() == 1 && Mag[0] < TopBit) {
    int64_t Value = static_cast<int64_t>(Mag[0]);
    Result.Small = Negative ? -Value : Value;
    return Result;
  }
  Result.Small = Negative ? -1 : 1;
  Result.Limbs = std::move(Mag);
  return Result;
}

int BigInt::compareMagnitude(const Magnitude &A, const Magnitude &B) {
  if (A.size() != B.size())
    return A.size() < B.size() ? -1 : 1;
  for (size_t I = A.size(); I-- > 0;) {
    if (A[I] != B[I])
      return A[I] < B[I] ? -1 : 1;
  }
  return 0;
}

BigInt::Magnitude BigInt::addMagnitude(const Magnitude &A, const Magnitude &B) {
  const Magnitude &Long = A.size() >= B.size() ? A : B;
  const Magnitude &Short = A.size() >= B.size() ? B : A;
  Magnitude Result;
  Result.reserve(Long.size() + 1);
  unsigned __int128 Carry = 0;
  for (size_t I = 0; I < Long.size(); ++I) {
    unsigned __int128 Sum = Carry + Long[I];
    if (I < Short.size())
      Sum += Short[I];
    Result.push_back(static_cast<uint64_t>(Sum));
    Carry = Sum >> 64;
  }
  if (Carry != 0)
    Result.push_back(static_cast<uint64_t>(Carry));
  return Result;
}

BigInt::Magnitude BigInt::subMagnitude(const Magnitude &A, const Magnitude &B) {
  assert(compareMagnitude(A, B) >= 0 && "subtraction would underflow");
  Magnitude Result;
  Result.reserve(A.size());
  uint64_t Borrow = 0;
  for (size_t I = 0; I < A.size(); ++I) {
    uint64_t Sub = I < B.size() ? B[I] : 0;
    uint64_t Value = A[I] - Sub - Borrow;
    // Borrow occurred iff A[I] < Sub + Borrow in the unsigned domain.
    Borrow = (A[I] < Sub || (A[I] == Sub && Borrow)) ? 1 : 0;
    Result.push_back(Value);
  }
  return Result;
}

BigInt BigInt::operator-() const {
  // Flips an inline value, or the sign of a limb-form one.
  BigInt Result = *this;
  Result.Small = -Result.Small;
  return Result;
}

BigInt BigInt::abs() const {
  return isNegative() ? -*this : *this;
}

BigInt BigInt::operator+(const BigInt &RHS) const {
  int64_t Sum;
  if (isSmall() && RHS.isSmall() &&
      !__builtin_add_overflow(Small, RHS.Small, &Sum))
    return BigInt(Sum);
  Magnitude ScratchA, ScratchB;
  const Magnitude &A = magnitude(ScratchA);
  const Magnitude &B = RHS.magnitude(ScratchB);
  if (isNegative() == RHS.isNegative())
    return fromMagnitude(isNegative(), addMagnitude(A, B));
  if (compareMagnitude(A, B) >= 0)
    return fromMagnitude(isNegative(), subMagnitude(A, B));
  return fromMagnitude(RHS.isNegative(), subMagnitude(B, A));
}

BigInt BigInt::operator-(const BigInt &RHS) const {
  int64_t Diff;
  if (isSmall() && RHS.isSmall() &&
      !__builtin_sub_overflow(Small, RHS.Small, &Diff))
    return BigInt(Diff);
  return *this + (-RHS);
}

BigInt BigInt::operator*(const BigInt &RHS) const {
  int64_t Product;
  if (isSmall() && RHS.isSmall() &&
      !__builtin_mul_overflow(Small, RHS.Small, &Product))
    return BigInt(Product);
  if (isZero() || RHS.isZero())
    return BigInt();
  Magnitude ScratchA, ScratchB;
  const Magnitude &A = magnitude(ScratchA);
  const Magnitude &B = RHS.magnitude(ScratchB);
  Magnitude Result(A.size() + B.size(), 0);
  for (size_t I = 0; I < A.size(); ++I) {
    unsigned __int128 Carry = 0;
    for (size_t J = 0; J < B.size(); ++J) {
      unsigned __int128 Cur = Result[I + J];
      Cur += static_cast<unsigned __int128>(A[I]) * B[J] + Carry;
      Result[I + J] = static_cast<uint64_t>(Cur);
      Carry = Cur >> 64;
    }
    size_t K = I + B.size();
    while (Carry != 0) {
      unsigned __int128 Cur = Result[K];
      Cur += Carry;
      Result[K] = static_cast<uint64_t>(Cur);
      Carry = Cur >> 64;
      ++K;
    }
  }
  return fromMagnitude(isNegative() != RHS.isNegative(), std::move(Result));
}

size_t BigInt::bitLength() const {
  if (isZero())
    return 0;
  uint64_t Top = isSmall() ? magnitudeOf(Small) : Limbs.back();
  size_t Lower = isSmall() ? 0 : (Limbs.size() - 1) * 64;
  return Lower + 64 - static_cast<size_t>(__builtin_clzll(Top));
}

BigInt::DivModResult BigInt::divMod(const BigInt &Divisor) const {
  assert(!Divisor.isZero() && "division by zero");
  // Neither inline operand is INT64_MIN, so the quotient cannot overflow.
  if (isSmall() && Divisor.isSmall())
    return {BigInt(Small / Divisor.Small), BigInt(Small % Divisor.Small)};
  // An inline dividend is smaller in magnitude than a limb-form divisor.
  if (isSmall())
    return {BigInt(), *this};

  Magnitude Scratch;
  const Magnitude &D = Divisor.magnitude(Scratch);
  const bool QuotientNegative = isNegative() != Divisor.isNegative();
  if (Limbs.size() == 1 && D.size() == 1)
    return {fromMagnitude(QuotientNegative, {Limbs[0] / D[0]}),
            fromMagnitude(isNegative(), {Limbs[0] % D[0]})};

  // Shift-subtract long division over magnitudes.
  Magnitude Quotient(Limbs.size(), 0);
  Magnitude Remainder;
  for (size_t I = bitLength(); I-- > 0;) {
    // Remainder = Remainder * 2 + bit(I); shift in place.
    uint64_t Carry = (Limbs[I / 64] >> (I % 64)) & 1;
    for (uint64_t &Limb : Remainder) {
      uint64_t Next = Limb >> 63;
      Limb = (Limb << 1) | Carry;
      Carry = Next;
    }
    if (Carry != 0)
      Remainder.push_back(Carry);
    if (compareMagnitude(Remainder, D) >= 0) {
      Remainder = subMagnitude(Remainder, D);
      while (!Remainder.empty() && Remainder.back() == 0)
        Remainder.pop_back();
      Quotient[I / 64] |= uint64_t(1) << (I % 64);
    }
  }
  return {fromMagnitude(QuotientNegative, std::move(Quotient)),
          fromMagnitude(isNegative(), std::move(Remainder))};
}

BigInt BigInt::operator/(const BigInt &RHS) const { return divMod(RHS).Quotient; }

BigInt BigInt::operator%(const BigInt &RHS) const {
  return divMod(RHS).Remainder;
}

BigInt BigInt::euclideanMod(const BigInt &Divisor) const {
  BigInt R = *this % Divisor;
  if (R.isNegative())
    R += Divisor.abs();
  return R;
}

BigInt BigInt::gcd(const BigInt &A, const BigInt &B) {
  if (A.isSmall() && B.isSmall()) {
    uint64_t X = magnitudeOf(A.Small), Y = magnitudeOf(B.Small);
    while (Y != 0) {
      uint64_t R = X % Y;
      X = Y;
      Y = R;
    }
    return BigInt(static_cast<int64_t>(X));
  }
  BigInt X = A.abs(), Y = B.abs();
  while (!Y.isZero()) {
    BigInt R = X % Y;
    X = std::move(Y);
    Y = std::move(R);
  }
  return X;
}

int BigInt::compare(const BigInt &RHS) const {
  if (isSmall() && RHS.isSmall())
    return (Small > RHS.Small) - (Small < RHS.Small);
  // A limb-form value lies beyond every inline one, on the side of its sign
  // (which its Small holds as +1 or -1).
  if (isSmall())
    return -RHS.Small;
  if (RHS.isSmall() || Small != RHS.Small)
    return Small;
  int Mag = compareMagnitude(Limbs, RHS.Limbs);
  return isNegative() ? -Mag : Mag;
}

std::optional<int64_t> BigInt::toInt64() const {
  if (isSmall())
    return Small;
  if (isNegative() && Limbs.size() == 1 && Limbs[0] == TopBit)
    return INT64_MIN;
  return std::nullopt;
}

double BigInt::toDouble() const {
  if (isSmall())
    return static_cast<double>(Small);
  double Result = 0;
  for (size_t I = Limbs.size(); I-- > 0;)
    Result = Result * 18446744073709551616.0 + static_cast<double>(Limbs[I]);
  return isNegative() ? -Result : Result;
}

std::string BigInt::toString() const {
  if (isSmall())
    return std::to_string(Small);
  std::string Digits;
  BigInt Value = abs();
  BigInt Ten(10);
  while (!Value.isZero()) {
    DivModResult QR = Value.divMod(Ten);
    Digits.push_back(static_cast<char>('0' + QR.Remainder.Small));
    Value = std::move(QR.Quotient);
  }
  if (isNegative())
    Digits.push_back('-');
  std::reverse(Digits.begin(), Digits.end());
  return Digits;
}

size_t BigInt::hash() const {
  // The limb form's hash, whatever the form: an inline value mixes in as the
  // single limb its magnitude would occupy.
  size_t Seed = isNegative() ? 0x9e3779b97f4a7c15ULL : 0;
  auto Mix = [&Seed](uint64_t Limb) {
    Seed ^= static_cast<size_t>(Limb) + 0x9e3779b97f4a7c15ULL + (Seed << 6) +
            (Seed >> 2);
  };
  if (!isSmall()) {
    for (uint64_t Limb : Limbs)
      Mix(Limb);
  } else if (Small != 0) {
    Mix(magnitudeOf(Small));
  }
  return Seed;
}
