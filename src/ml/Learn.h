//===- ml/Learn.h - Algorithm 2: the layered toolchain ----------*- C++ -*-===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `Learn` (paper Algorithm 2): run LinearArbitrary, harvest its atomic
/// predicates as feature attributes, optionally add predefined features
/// (`v mod m`), and generalise with decision-tree learning. The result is
/// guaranteed (Lemma 3.1) to classify every sample correctly; this module
/// re-validates that property exactly before returning.
///
//===----------------------------------------------------------------------===//

#ifndef LA_ML_LEARN_H
#define LA_ML_LEARN_H

#include "ml/DecisionTree.h"
#include "ml/LinearArbitrary.h"

namespace la::ml {

/// Configuration of the full learning toolchain.
struct LearnOptions {
  LinearArbitraryOptions LA;
  /// Disabling this reproduces the paper's §6 DT ablation: the raw
  /// LinearArbitrary classifier is used as the invariant candidate.
  bool UseDecisionTree = true;
  /// Predefined `v_i mod m` feature moduli ("Beyond Polyhedra", §3.3).
  std::vector<int64_t> ModFeatures;
  /// Also provide unit (octagon-direction) features to the DT stage.
  bool AddUnitFeatures = false;
  /// Externally supplied candidate attributes for the DT stage, e.g. the
  /// bounded argument directions found by the static pre-analysis.
  /// Deduplicated against the learned atoms before use.
  std::vector<Feature> ExtraFeatures;
};

/// Result of Algorithm 2.
struct LearnResult {
  bool Ok = false;
  const Term *Formula = nullptr;
  size_t NumHyperplanes = 0;  ///< atoms learned by LinearArbitrary
  size_t NumDtNodes = 0;      ///< inner nodes of the decision tree (0 if off)
  bool UsedDecisionTree = false;
};

/// Runs the toolchain on \p Data over \p Vars. Requires a contradiction-free
/// dataset; the returned formula satisfies Lemma 3.1 (validated exactly).
LearnResult learn(TermManager &TM, const std::vector<const Term *> &Vars,
                  const Dataset &Data, const LearnOptions &Opts);

/// Shape statistics of a (DNF-ish) formula: number of conjuncts in each
/// disjunct, used for the paper's "#A" benchmark columns.
std::vector<size_t> dnfShape(const Term *Formula);

} // namespace la::ml

#endif // LA_ML_LEARN_H
