//===- tests/MlTest.cpp - Learning toolchain tests ------------------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ml/Learn.h"
#include "ml/Perceptron.h"
#include "ml/Svm.h"

#include <gtest/gtest.h>

using namespace la;
using namespace la::ml;

namespace {

Sample mk(std::initializer_list<int64_t> Values) {
  Sample S;
  for (int64_t V : Values)
    S.push_back(Rational(V));
  return S;
}

/// Binds a sample to the variable vector for formula evaluation.
std::unordered_map<const Term *, Rational>
bind(const std::vector<const Term *> &Vars, const Sample &S) {
  std::unordered_map<const Term *, Rational> Asg;
  for (size_t I = 0; I < Vars.size(); ++I)
    Asg.emplace(Vars[I], S[I]);
  return Asg;
}

bool perfect(const Term *F, const std::vector<const Term *> &Vars,
             const Dataset &Data) {
  for (const Sample &S : Data.Pos)
    if (!evalFormula(F, bind(Vars, S)))
      return false;
  for (const Sample &S : Data.Neg)
    if (evalFormula(F, bind(Vars, S)))
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Base learners
//===----------------------------------------------------------------------===//

TEST(PerceptronTest, SeparableDataConverges) {
  Dataset Data(2);
  Data.Pos = {mk({2, 0}), mk({3, 1}), mk({4, -1})};
  Data.Neg = {mk({-2, 0}), mk({-3, 1}), mk({-1, -2})};
  Random Rng(1);
  LinearClassifier Phi = PerceptronLearner().learn(Data, Rng);
  EXPECT_EQ(Phi.countCorrect(Data), Data.size());
}

TEST(SvmTest, SeparableDataSeparates) {
  Dataset Data(2);
  Data.Pos = {mk({2, 2}), mk({3, 1}), mk({4, 3})};
  Data.Neg = {mk({-2, -1}), mk({-3, -2}), mk({-1, -3})};
  Random Rng(1);
  LinearClassifier Phi = SvmLearner().learn(Data, Rng);
  EXPECT_FALSE(Phi.isDummy());
  EXPECT_EQ(Phi.countCorrect(Data), Data.size());
}

TEST(SvmTest, SurroundedPositiveMayYieldDummy) {
  // The §5 scenario: a single positive surrounded by negatives on all sides
  // admits no hyperplane separating it; the rounded SVM output may be the
  // dummy classifier -- it must at least fail to be perfect.
  Dataset Data(2);
  Data.Pos = {mk({0, 0})};
  Data.Neg = {mk({1, 0}), mk({-1, 0}), mk({0, 1}), mk({0, -1})};
  Random Rng(7);
  LinearClassifier Phi = SvmLearner().learn(Data, Rng);
  EXPECT_LT(Phi.countCorrect(Data), Data.size());
}

TEST(SvmTest, NonSeparableOutputIsPinned) {
  // Positives at |x| >= 100, negatives between: no hyperplane separates
  // them, so SMO runs to its pass cap and its output depends on every
  // floating-point step and random draw. These are the classifiers and the
  // next draws of the straightforward implementation (every inner product
  // recomputed, every multiplier scanned); a faster SMO loop must keep them.
  const std::pair<uint64_t, const char *> Pinned[] = {
      {1, "-1*v0 + 0*v1 + -82 >= 0"},
      {2, "0*v0 + 1*v1 + -46 >= 0"},
      {3, "0*v0 + 1*v1 + -43097 >= 0"}};
  const uint64_t NextDraw[] = {6521607502580014911ull, 15310290414113081390ull,
                               3405601464899815483ull};
  for (size_t K = 0; K < 3; ++K) {
    auto [Seed, Expected] = Pinned[K];
    Random Gen(Seed);
    Dataset Data(2);
    for (int I = 0; I < 80; ++I) {
      int64_t X = Gen.nextInRange(-140, 140);
      Sample S = {Rational(X), Rational(Gen.nextInRange(-3, 3))};
      (X >= 100 || X <= -100 ? Data.Pos : Data.Neg).push_back(S);
    }
    Random Rng(Seed);
    EXPECT_EQ(SvmLearner().learn(Data, Rng).toString(), Expected) << Seed;
    EXPECT_EQ(Rng.next(), NextDraw[K]) << Seed;
  }
}

TEST(SvmTest, LargeDatasetOutputIsPinned) {
  // Past 1,024 samples SMO keeps no Gram matrix and recomputes the products
  // a prediction needs. Two stragglers make the data non-separable; the
  // classifier and the next draw are those of the straightforward
  // implementation, and the draw changes with any step of the optimiser.
  Dataset Data(2);
  for (int64_t I = 0; I < 520; ++I) {
    Data.Pos.push_back(mk({1 + I % 40, I % 7 - 3}));
    Data.Neg.push_back(mk({-1 - I % 40, I % 5 - 2}));
  }
  Data.Pos.push_back(mk({-3, 1}));
  Data.Neg.push_back(mk({4, -1}));
  Random Rng(5);
  EXPECT_EQ(SvmLearner().learn(Data, Rng).toString(), "1*v0 + 0*v1 + 0 >= 0");
  EXPECT_EQ(Rng.next(), 942028621969032168ull);
}

TEST(RationalizeTest, RoundsToSmallIntegers) {
  Dataset Data(2);
  Data.Pos = {mk({1, 1}), mk({2, 2})};
  Data.Neg = {mk({-1, -1}), mk({-2, -2})};
  // w = (0.5004, 0.4996), b ~ 0: expect rounding to x + y >= 0 shape.
  auto Phi = rationalizeHyperplane({0.5004, 0.4996}, 0.001, Data);
  ASSERT_TRUE(Phi.has_value());
  EXPECT_EQ(Phi->W[0], Rational(1));
  EXPECT_EQ(Phi->W[1], Rational(1));
  EXPECT_EQ(Phi->countCorrect(Data), Data.size());
}

TEST(RationalizeTest, ZeroHyperplaneRejected) {
  Dataset Data(1);
  Data.Pos = {mk({1})};
  Data.Neg = {mk({-1})};
  EXPECT_FALSE(rationalizeHyperplane({0.0}, 0.5, Data).has_value());
}

//===----------------------------------------------------------------------===//
// LinearArbitrary (Algorithm 1)
//===----------------------------------------------------------------------===//

class LinearArbitraryTest : public ::testing::Test {
protected:
  TermManager TM;
  std::vector<const Term *> Vars{TM.mkVar("x"), TM.mkVar("y")};
  LinearArbitraryOptions Opts;
};

TEST_F(LinearArbitraryTest, PaperFig6Dataset) {
  // Program (a) of the paper, Fig. 6: positives on the y-axis segment,
  // negatives at (3,-3) and (-3,3). Not linearly separable.
  Dataset Data(2);
  Data.Pos = {mk({0, -2}), mk({0, -1}), mk({0, 0}), mk({0, 1})};
  Data.Neg = {mk({3, -3}), mk({-3, 3})};
  ClassifierResult R = linearArbitrary(TM, Vars, Data, Opts);
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(perfect(R.Formula, Vars, Data));
  EXPECT_GE(R.Atoms.size(), 1u);
}

TEST_F(LinearArbitraryTest, XorPatternSeparated) {
  Dataset Data(2);
  Data.Pos = {mk({0, 0}), mk({5, 5})};
  Data.Neg = {mk({0, 5}), mk({5, 0})};
  ClassifierResult R = linearArbitrary(TM, Vars, Data, Opts);
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(perfect(R.Formula, Vars, Data));
  // XOR needs at least two hyperplanes.
  EXPECT_GE(R.Atoms.size(), 2u);
}

TEST_F(LinearArbitraryTest, PerceptronBackendWorksToo) {
  Dataset Data(2);
  Data.Pos = {mk({0, 0}), mk({5, 5}), mk({1, 1})};
  Data.Neg = {mk({0, 5}), mk({5, 0}), mk({-3, 2})};
  Opts.Learner = LinearArbitraryOptions::BaseLearner::Perceptron;
  ClassifierResult R = linearArbitrary(TM, Vars, Data, Opts);
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(perfect(R.Formula, Vars, Data));
}

TEST_F(LinearArbitraryTest, SinglePointClasses) {
  Dataset Data(2);
  Data.Pos = {mk({1, 2})};
  Data.Neg = {mk({1, 3})};
  ClassifierResult R = linearArbitrary(TM, Vars, Data, Opts);
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(perfect(R.Formula, Vars, Data));
}

TEST_F(LinearArbitraryTest, EmptySidesAreConstants) {
  Dataset OnlyPos(2);
  OnlyPos.Pos = {mk({1, 1})};
  ClassifierResult R1 = linearArbitrary(TM, Vars, OnlyPos, Opts);
  ASSERT_TRUE(R1.Ok);
  EXPECT_EQ(R1.Formula, TM.mkTrue());

  Dataset OnlyNeg(2);
  OnlyNeg.Neg = {mk({1, 1})};
  ClassifierResult R2 = linearArbitrary(TM, Vars, OnlyNeg, Opts);
  ASSERT_TRUE(R2.Ok);
  EXPECT_EQ(R2.Formula, TM.mkFalse());
}

//===----------------------------------------------------------------------===//
// Decision trees
//===----------------------------------------------------------------------===//

TEST(EntropyTest, Values) {
  EXPECT_DOUBLE_EQ(shannonEntropy(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(shannonEntropy(4, 0), 0.0);
  EXPECT_DOUBLE_EQ(shannonEntropy(2, 2), 1.0);
  EXPECT_NEAR(shannonEntropy(1, 3), 0.811278, 1e-5);
  // A clean split of a balanced node gains a full bit.
  EXPECT_DOUBLE_EQ(informationGain(3, 0, 0, 3), 1.0);
  // A useless split gains nothing.
  EXPECT_NEAR(informationGain(1, 1, 1, 1), 0.0, 1e-12);
}

class DecisionTreeTest : public ::testing::Test {
protected:
  TermManager TM;
  std::vector<const Term *> Vars{TM.mkVar("dtx"), TM.mkVar("dty")};
};

TEST_F(DecisionTreeTest, PrefersSimpleFeature) {
  // Separable by x <= 2; a complex feature is also offered.
  Dataset Data(2);
  Data.Pos = {mk({0, 7}), mk({1, -4}), mk({2, 100})};
  Data.Neg = {mk({3, 7}), mk({5, -4}), mk({9, 100})};
  std::vector<Feature> Features{
      Feature::linear({Rational(17), Rational(5)}),
      Feature::linear({Rational(1), Rational(0)}),
  };
  DtResult R = learnDecisionTree(TM, Vars, Data, Features);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.NumInnerNodes, 1u);
  EXPECT_TRUE(perfect(R.Formula, Vars, Data));
  // The simple feature x alone suffices; the formula is exactly x <= 2.
  EXPECT_EQ(R.Formula->toString(), "(<= dtx 2)");
}

TEST_F(DecisionTreeTest, ModFeatureSeparatesParity) {
  Dataset Data(2);
  Data.Pos = {mk({0, 0}), mk({2, 5}), mk({-4, 1}), mk({10, -7})};
  Data.Neg = {mk({1, 0}), mk({3, 5}), mk({-5, 1}), mk({9, -7})};
  std::vector<Feature> Linear{Feature::linear({Rational(1), Rational(0)})};
  // Thresholds on x alone can separate distinct values, but only with a
  // deep interval-carving tree.
  DtResult NoMod = learnDecisionTree(TM, Vars, Data, Linear);
  ASSERT_TRUE(NoMod.Ok);
  EXPECT_GE(NoMod.NumInnerNodes, 3u);
  // The parity feature separates everything in a single decision.
  std::vector<Feature> WithMod = Linear;
  WithMod.push_back(Feature::mod(0, BigInt(2)));
  DtResult R = learnDecisionTree(TM, Vars, Data, WithMod);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.NumInnerNodes, 1u);
  EXPECT_TRUE(perfect(R.Formula, Vars, Data));
}

TEST_F(DecisionTreeTest, DuplicateFeaturesDeduplicated) {
  Dataset Data(2);
  Data.Pos = {mk({0, 0})};
  Data.Neg = {mk({5, 0})};
  // 2x and x and -x normalise to the same feature.
  std::vector<Feature> Features{
      Feature::linear({Rational(2), Rational(0)}),
      Feature::linear({Rational(1), Rational(0)}),
      Feature::linear({Rational(-1), Rational(0)}),
  };
  DtResult R = learnDecisionTree(TM, Vars, Data, Features);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.NumFeaturesUsed, 1u);
}

//===----------------------------------------------------------------------===//
// Learn (Algorithm 2)
//===----------------------------------------------------------------------===//

class LearnTest : public ::testing::Test {
protected:
  TermManager TM;
  std::vector<const Term *> Vars{TM.mkVar("lx"), TM.mkVar("ly")};
  LearnOptions Opts;
};

TEST_F(LearnTest, Fig6EndToEnd) {
  Dataset Data(2);
  Data.Pos = {mk({0, -2}), mk({0, -1}), mk({0, 0}), mk({0, 1})};
  Data.Neg = {mk({3, -3}), mk({-3, 3})};
  LearnResult R = learn(TM, Vars, Data, Opts);
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(perfect(R.Formula, Vars, Data));
}

TEST_F(LearnTest, DtAblationStillClassifies) {
  Dataset Data(2);
  Data.Pos = {mk({0, 0}), mk({5, 5})};
  Data.Neg = {mk({0, 5}), mk({5, 0})};
  Opts.UseDecisionTree = false;
  LearnResult R = learn(TM, Vars, Data, Opts);
  ASSERT_TRUE(R.Ok);
  EXPECT_FALSE(R.UsedDecisionTree);
  EXPECT_TRUE(perfect(R.Formula, Vars, Data));
}

TEST_F(LearnTest, ParityNeedsModFeatures) {
  Dataset Data(2);
  Data.Pos.clear();
  Data.Neg.clear();
  for (int I = -6; I <= 6; ++I)
    (I % 2 == 0 ? Data.Pos : Data.Neg).push_back(mk({I, 0}));
  Opts.ModFeatures = {2};
  LearnResult R = learn(TM, Vars, Data, Opts);
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(perfect(R.Formula, Vars, Data));
}

TEST_F(LearnTest, DegenerateDatasets) {
  Dataset Empty(2);
  LearnResult R0 = learn(TM, Vars, Empty, Opts);
  ASSERT_TRUE(R0.Ok);
  EXPECT_EQ(R0.Formula, TM.mkTrue());

  Dataset OnlyNeg(2);
  OnlyNeg.Neg = {mk({0, 0})};
  LearnResult R1 = learn(TM, Vars, OnlyNeg, Opts);
  ASSERT_TRUE(R1.Ok);
  EXPECT_EQ(R1.Formula, TM.mkFalse());
}

TEST(DnfShapeTest, CountsConjunctsPerDisjunct) {
  TermManager TM;
  const Term *X = TM.mkVar("sx");
  const Term *A = TM.mkLe(X, TM.mkIntConst(0));
  const Term *B = TM.mkGe(X, TM.mkIntConst(-5));
  const Term *C = TM.mkLe(X, TM.mkIntConst(10));
  const Term *F = TM.mkOr(TM.mkAnd(A, B), C);
  EXPECT_EQ(dnfShape(F), (std::vector<size_t>{2, 1}));
  EXPECT_EQ(dnfShape(TM.mkAnd(A, B)), (std::vector<size_t>{2}));
  EXPECT_EQ(dnfShape(A), (std::vector<size_t>{1}));
}

/// Property test: on random contradiction-free datasets, Learn always
/// produces a perfect classifier (Lemma 3.1), with every backend combo.
class LearnPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {};

TEST_P(LearnPropertyTest, AlwaysClassifiesPerfectly) {
  auto [Seed, UseSvm, UseDt] = GetParam();
  Random Rng(Seed * 31 + 5);
  TermManager TM;
  std::vector<const Term *> Vars{TM.mkVar("px"), TM.mkVar("py"),
                                 TM.mkVar("pz")};
  Dataset Data(3);
  std::set<std::vector<int64_t>> Used;
  int NumSamples = 4 + static_cast<int>(Rng.nextBounded(24));
  for (int I = 0; I < NumSamples; ++I) {
    std::vector<int64_t> Raw{Rng.nextInRange(-8, 8), Rng.nextInRange(-8, 8),
                             Rng.nextInRange(-8, 8)};
    if (!Used.insert(Raw).second)
      continue; // avoid label contradictions on duplicate points
    Sample S{Rational(Raw[0]), Rational(Raw[1]), Rational(Raw[2])};
    (Rng.nextBounded(2) == 0 ? Data.Pos : Data.Neg).push_back(S);
  }
  LearnOptions Opts;
  Opts.LA.Learner = UseSvm ? LinearArbitraryOptions::BaseLearner::Svm
                           : LinearArbitraryOptions::BaseLearner::Perceptron;
  Opts.UseDecisionTree = UseDt;
  LearnResult R = learn(TM, Vars, Data, Opts);
  ASSERT_TRUE(R.Ok) << "seed " << Seed;
  std::unordered_map<const Term *, Rational> Asg;
  for (const Sample &S : Data.Pos) {
    for (size_t I = 0; I < Vars.size(); ++I)
      Asg[Vars[I]] = S[I];
    EXPECT_TRUE(evalFormula(R.Formula, Asg));
  }
  for (const Sample &S : Data.Neg) {
    for (size_t I = 0; I < Vars.size(); ++I)
      Asg[Vars[I]] = S[I];
    EXPECT_FALSE(evalFormula(R.Formula, Asg));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LearnPropertyTest,
                         ::testing::Combine(::testing::Range(0, 12),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

} // namespace
