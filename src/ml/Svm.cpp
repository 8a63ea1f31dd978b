//===- ml/Svm.cpp - Linear soft-margin SVM (SMO) ---------------------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ml/Svm.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace la;
using namespace la::ml;

LinearClassifier SvmLearner::learn(const Dataset &Data, Random &Rng) const {
  const size_t N = Data.size();
  const size_t Dim = Data.Dim;
  if (N == 0 || Dim == 0)
    return LinearClassifier(Dim);

  // Flatten to doubles, one row per sample, with labels +1/-1.
  std::vector<double> X;
  std::vector<double> Y;
  X.reserve(N * Dim);
  Y.reserve(N);
  for (const Sample &S : Data.Pos) {
    for (const Rational &V : S)
      X.push_back(V.toDouble());
    Y.push_back(1.0);
  }
  for (const Sample &S : Data.Neg) {
    for (const Rational &V : S)
      X.push_back(V.toDouble());
    Y.push_back(-1.0);
  }
  assert(X.size() == N * Dim && "every sample has Dim coordinates");

  auto RowDot = [&](size_t I, size_t J) {
    const double *A = &X[I * Dim], *Bv = &X[J * Dim];
    double Sum = 0;
    for (size_t K = 0; K < Dim; ++K)
      Sum += A[K] * Bv[K];
    return Sum;
  };
  // Every prediction reads a row of inner products, so they are computed
  // once up front. Each is the same sum as before (products commute
  // exactly), and predictions add their terms in the same index order, so
  // the classifier and the random draws do not change. Past GramLimit
  // samples the matrix would be too large to keep, and products are
  // recomputed instead.
  constexpr size_t GramLimit = 1024;
  std::vector<double> Gram;
  if (N <= GramLimit) {
    Gram.resize(N * N);
    for (size_t I = 0; I < N; ++I)
      for (size_t J = 0; J <= I; ++J)
        Gram[I * N + J] = Gram[J * N + I] = RowDot(I, J);
  }
  auto Dot = [&](size_t I, size_t J) {
    return Gram.empty() ? RowDot(I, J) : Gram[I * N + J];
  };

  // Simplified SMO (Platt'99 / CS229 variant).
  std::vector<double> Alpha(N, 0.0);
  double B = 0.0;
  // The indices of the nonzero multipliers in ascending order: the terms a
  // prediction sums.
  std::vector<size_t> Support;
  auto SetAlpha = [&](size_t K, double V) {
    auto It = std::lower_bound(Support.begin(), Support.end(), K);
    bool Listed = It != Support.end() && *It == K;
    if (V != 0.0 && !Listed)
      Support.insert(It, K);
    else if (V == 0.0 && Listed)
      Support.erase(It);
    Alpha[K] = V;
  };
  // Row I of the Gram matrix; past GramLimit, just its support entries.
  std::vector<double> RowScratch(Gram.empty() ? N : 0);
  auto GramRow = [&](size_t I) -> const double * {
    if (!Gram.empty())
      return &Gram[I * N];
    for (size_t K : Support)
      RowScratch[K] = RowDot(I, K);
    return RowScratch.data();
  };
  auto Predict = [&](size_t I) {
    const double *Row = GramRow(I);
    double Sum = B;
    for (size_t K : Support)
      Sum += Alpha[K] * Y[K] * Row[K];
    return Sum;
  };

  int Passes = 0;
  int Guard = 0;
  while (Passes < MaxPasses && ++Guard < 200) {
    int Changed = 0;
    for (size_t I = 0; I < N; ++I) {
      double Ei = Predict(I) - Y[I];
      bool ViolatesKkt = (Y[I] * Ei < -Tol && Alpha[I] < C) ||
                         (Y[I] * Ei > Tol && Alpha[I] > 0);
      if (!ViolatesKkt)
        continue;
      size_t J = Rng.nextBounded(N - 1);
      if (J >= I)
        ++J;
      double Ej = Predict(J) - Y[J];
      double AiOld = Alpha[I], AjOld = Alpha[J];
      double L, H;
      if (Y[I] != Y[J]) {
        L = std::max(0.0, AjOld - AiOld);
        H = std::min(C, C + AjOld - AiOld);
      } else {
        L = std::max(0.0, AiOld + AjOld - C);
        H = std::min(C, AiOld + AjOld);
      }
      if (L >= H)
        continue;
      double Eta = 2 * Dot(I, J) - Dot(I, I) - Dot(J, J);
      if (Eta >= 0)
        continue;
      double AjNew = AjOld - Y[J] * (Ei - Ej) / Eta;
      AjNew = std::min(H, std::max(L, AjNew));
      if (std::fabs(AjNew - AjOld) < 1e-7)
        continue;
      double AiNew = AiOld + Y[I] * Y[J] * (AjOld - AjNew);
      SetAlpha(I, AiNew);
      SetAlpha(J, AjNew);
      double B1 = B - Ei - Y[I] * (AiNew - AiOld) * Dot(I, I) -
                  Y[J] * (AjNew - AjOld) * Dot(I, J);
      double B2 = B - Ej - Y[I] * (AiNew - AiOld) * Dot(I, J) -
                  Y[J] * (AjNew - AjOld) * Dot(J, J);
      if (AiNew > 0 && AiNew < C)
        B = B1;
      else if (AjNew > 0 && AjNew < C)
        B = B2;
      else
        B = (B1 + B2) / 2;
      ++Changed;
    }
    Passes = Changed == 0 ? Passes + 1 : 0;
  }

  // Recover the primal hyperplane w = sum alpha_i y_i x_i.
  std::vector<double> W(Dim, 0.0);
  for (size_t I = 0; I < N; ++I)
    if (Alpha[I] != 0.0)
      for (size_t K = 0; K < Dim; ++K)
        W[K] += Alpha[I] * Y[I] * X[I * Dim + K];

  std::optional<LinearClassifier> Exact = rationalizeHyperplane(W, B, Data);
  if (!Exact)
    return LinearClassifier(Dim); // dummy classifier (see paper §5)
  return *Exact;
}
