//===- tests/SmtLib2Test.cpp - SMT-LIB2 front end tests -------------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
// The strict SMT-LIB2 HORN front end: located diagnostics, the supported
// term fragment (Bool columns, let, ite, div/mod), the Z3 fixedpoint
// dialect, the shapes the solver layers rely on (the paper's Fig. 1,
// rule/query and negated-body queries, recursion detection), the bundled
// `.smt2` corpus, and the printer round-trip
// (mini-C corpus -> printed SMT-LIB2 -> reparsed -> identical verdicts).
//
//===----------------------------------------------------------------------===//

#include "chc/ChcCheck.h"
#include "corpus/Corpus.h"
#include "corpus/Smt2Corpus.h"
#include "frontend/Encoder.h"
#include "smtlib2/Parser.h"
#include "smtlib2/Printer.h"
#include "solver/SolveFacade.h"

#include <gtest/gtest.h>

#include <unordered_map>

using namespace la;
using namespace la::chc;
using namespace la::smtlib2;

namespace {

ParseResult parseText(const std::string &Text, ChcSystem &System) {
  return parseSmtLib2(Text, System);
}

/// Parses text expected to fail; returns the result for message checks.
ParseResult expectParseError(const std::string &Text) {
  TermManager TM;
  ChcSystem System(TM);
  ParseResult P = parseText(Text, System);
  EXPECT_FALSE(P.Ok) << "expected a parse error for: " << Text;
  return P;
}

//===----------------------------------------------------------------------===//
// Located diagnostics
//===----------------------------------------------------------------------===//

TEST(SmtLib2ParserTest, MalformedSExprHasLocation) {
  ParseResult P = expectParseError("(set-logic HORN)\n(assert (and x");
  EXPECT_NE(P.Message.find("unterminated"), std::string::npos) << P.Message;
  EXPECT_EQ(P.Line, 2u);
  EXPECT_GT(P.Col, 0u);
}

TEST(SmtLib2ParserTest, StrayCloseParenHasLocation) {
  ParseResult P = expectParseError("(set-logic HORN)\n  )");
  EXPECT_NE(P.Message.find("unexpected ')'"), std::string::npos);
  EXPECT_EQ(P.Line, 2u);
  EXPECT_EQ(P.Col, 3u);
}

TEST(SmtLib2ParserTest, UnsupportedLogicIsRejectedWithLocation) {
  ParseResult P = expectParseError("(set-logic LIA)");
  EXPECT_NE(P.Message.find("unsupported logic 'LIA'"), std::string::npos);
  EXPECT_EQ(P.Line, 1u);
}

TEST(SmtLib2ParserTest, UnsupportedSortIsRejected) {
  ParseResult P =
      expectParseError("(set-logic HORN)\n(declare-fun p (Real) Bool)");
  EXPECT_NE(P.Message.find("unsupported sort 'Real'"), std::string::npos);
  EXPECT_EQ(P.Line, 2u);
}

TEST(SmtLib2ParserTest, UnknownSymbolIsRejected) {
  ParseResult P = expectParseError(R"((set-logic HORN)
(declare-fun p (Int) Bool)
(assert (forall ((x Int)) (=> (= y 0) (p x)))))");
  EXPECT_NE(P.Message.find("unknown symbol 'y'"), std::string::npos);
  EXPECT_EQ(P.Line, 3u);
}

TEST(SmtLib2ParserTest, ArityMismatchIsRejected) {
  ParseResult P = expectParseError(R"((set-logic HORN)
(declare-fun p (Int Int) Bool)
(assert (forall ((x Int)) (p x))))");
  EXPECT_NE(P.Message.find("expects 2 arguments, got 1"), std::string::npos);
}

TEST(SmtLib2ParserTest, NonHornHeadIsRejected) {
  ParseResult P = expectParseError(R"((set-logic HORN)
(declare-fun p (Int) Bool)
(declare-fun q (Int) Bool)
(assert (forall ((x Int)) (=> (p x) (or (q x) (= x 0))))))");
  EXPECT_NE(P.Message.find("not a Horn clause"), std::string::npos);
}

TEST(SmtLib2ParserTest, PredicateUnderDisjunctiveBodyIsRejected) {
  ParseResult P = expectParseError(R"((set-logic HORN)
(declare-fun p (Int) Bool)
(declare-fun q (Int) Bool)
(assert (forall ((x Int)) (=> (or (p x) (= x 1)) (q x)))))");
  EXPECT_NE(P.Message.find("not a Horn clause"), std::string::npos);
}

TEST(SmtLib2ParserTest, OverflowingNumeralIsRejected) {
  ParseResult P = expectParseError(R"((set-logic HORN)
(declare-fun p (Int) Bool)
(assert (forall ((x Int)) (=> (= x 99999999999999999999) (p x)))))");
  EXPECT_NE(P.Message.find("64-bit"), std::string::npos);
}

TEST(SmtLib2ParserTest, NonlinearMultiplicationIsRejected) {
  ParseResult P = expectParseError(R"((set-logic HORN)
(declare-fun p (Int Int) Bool)
(assert (forall ((x Int) (y Int)) (=> (= x (* x y)) (p x y)))))");
  EXPECT_NE(P.Message.find("non-linear"), std::string::npos);
}

TEST(SmtLib2ParserTest, DuplicateBinderIsRejected) {
  ParseResult P = expectParseError(R"((set-logic HORN)
(declare-fun p (Int) Bool)
(assert (forall ((x Int) (x Int)) (p x))))");
  EXPECT_NE(P.Message.find("duplicate binder 'x'"), std::string::npos);
}

TEST(SmtLib2ParserTest, ErrorRendersFilenameWhenGiven) {
  ParseResult P = expectParseError("(set-logic LIA)");
  ParseOptions Opts;
  Opts.Filename = "bench.smt2";
  std::string Located = P.error(Opts);
  EXPECT_EQ(Located.rfind("bench.smt2:1:", 0), 0u) << Located;
  EXPECT_EQ(P.error().rfind("line 1", 0), 0u) << P.error();
}

//===----------------------------------------------------------------------===//
// Fragment features
//===----------------------------------------------------------------------===//

TEST(SmtLib2ParserTest, ParsesBoolColumnsLetAndIte) {
  TermManager TM;
  ChcSystem System(TM);
  ParseResult P = parseText(R"((set-logic HORN)
(declare-fun inv (Int Bool) Bool)
(assert (forall ((x Int)) (=> (= x 0) (inv x false))))
(assert (forall ((x Int) (f Bool) (y Int))
  (=> (and (inv x f)
           (let ((step (ite f 2 1))) (= y (+ x step))))
      (inv y (not f)))))
(assert (forall ((x Int) (f Bool)) (=> (inv x f) (>= x 0))))
(check-sat))",
                            System);
  ASSERT_TRUE(P.Ok) << P.error();
  EXPECT_TRUE(P.SawCheckSat);
  EXPECT_TRUE(P.SawLogic);
  EXPECT_EQ(System.predicates().size(), 1u);
  EXPECT_EQ(System.clauses().size(), 3u);
  // The Bool column is 0/1-encoded into the Int-only core language.
  EXPECT_EQ(System.predicates()[0]->arity(), 2u);
}

TEST(SmtLib2ParserTest, LowersDivByConstant) {
  TermManager TM;
  ChcSystem System(TM);
  ParseResult P = parseText(R"((set-logic HORN)
(declare-fun p (Int Int) Bool)
(assert (forall ((a Int) (q Int)) (=> (= q (div a 3)) (p a q)))))",
                            System);
  ASSERT_TRUE(P.Ok) << P.error();
  ASSERT_EQ(System.clauses().size(), 1u);
  // The quotient is a fresh variable defined by a = 3q + (a mod 3).
  std::string Constraint = printTerm(System.clauses()[0].Constraint);
  EXPECT_NE(Constraint.find("(mod "), std::string::npos) << Constraint;
  EXPECT_NE(Constraint.find("div!q"), std::string::npos) << Constraint;
}

TEST(SmtLib2ParserTest, RejectsDivByNonConstant) {
  ParseResult P = expectParseError(R"((set-logic HORN)
(declare-fun p (Int Int) Bool)
(assert (forall ((a Int) (b Int)) (=> (= a (div 10 b)) (p a b)))))");
  EXPECT_NE(P.Message.find("positive constant divisor"), std::string::npos);
}

TEST(SmtLib2ParserTest, ParsesFixedpointDialect) {
  TermManager TM;
  ChcSystem System(TM);
  ParseResult P = parseText(R"(
(declare-rel inv (Int))
(declare-var n Int)
(declare-var m Int)
(rule (=> (= n 0) (inv n)))
(rule (=> (and (inv n) (< n 5) (= m (+ n 1))) (inv m)))
(rule (=> (and (inv n) (> n 5)) false))
(query inv))",
                            System);
  ASSERT_TRUE(P.Ok) << P.error();
  EXPECT_EQ(System.predicates().size(), 1u);
  // Three rules plus the query clause `inv(fresh) -> false`.
  EXPECT_EQ(System.clauses().size(), 4u);
}

TEST(SmtLib2ParserTest, ShadowingBinderIsRenamedApart) {
  TermManager TM;
  ChcSystem System(TM);
  // The global `g` is shadowed by a forall binder of the same name; the
  // clause must quantify over a renamed variable, not capture the global.
  ParseResult P = parseText(R"((set-logic HORN)
(declare-const g Int)
(declare-fun p (Int) Bool)
(assert (forall ((g Int)) (=> (= g 7) (p g)))))",
                            System);
  ASSERT_TRUE(P.Ok) << P.error();
  ASSERT_EQ(System.clauses().size(), 1u);
  const HornClause &C = System.clauses()[0];
  ASSERT_TRUE(C.HeadPred.has_value());
  ASSERT_EQ(C.HeadPred->Args.size(), 1u);
  EXPECT_NE(C.HeadPred->Args[0]->name(), "g");
}

//===----------------------------------------------------------------------===//
// Systems the solver layers rely on
//===----------------------------------------------------------------------===//

TEST(SmtLib2ParserTest, ParsesFig1SmtLib) {
  const char *Text = R"(
(set-logic HORN)
(declare-fun p (Int Int) Bool)
(assert (forall ((x Int) (y Int))
  (=> (and (= x 1) (= y 0)) (p x y))))
(assert (forall ((x Int) (y Int) (x1 Int) (y1 Int))
  (=> (and (p x y) (= x1 (+ x y)) (= y1 (+ y 1))) (p x1 y1))))
(assert (forall ((x Int) (y Int) (x1 Int) (y1 Int))
  (=> (and (p x y) (= x1 (+ x y)) (= y1 (+ y 1))) (>= x1 y1))))
(check-sat)
)";
  TermManager TM;
  ChcSystem System(TM);
  ParseResult R = parseText(Text, System);
  ASSERT_TRUE(R.Ok) << R.error();
  ASSERT_EQ(System.predicates().size(), 1u);
  ASSERT_EQ(System.clauses().size(), 3u);
  EXPECT_TRUE(System.isRecursive());
  EXPECT_TRUE(System.clauses()[2].isQuery());

  // The paper's invariant solves the parsed system too.
  const Predicate *P = System.findPredicate("p");
  Interpretation A(TM);
  A.set(P, TM.mkAnd(TM.mkGe(P->Params[0], TM.mkIntConst(1)),
                    TM.mkGe(P->Params[1], TM.mkIntConst(0))));
  EXPECT_EQ(checkInterpretation(System, A), ClauseStatus::Valid);
}

TEST(SmtLib2ParserTest, RuleQueryStyle) {
  const char *Text = R"(
(declare-rel inv (Int))
(declare-var x Int)
(rule (=> (= x 0) (inv x)))
(rule (=> (and (inv x) (< x 10)) (inv (+ x 1))))
(query inv)
)";
  TermManager TM;
  ChcSystem System(TM);
  ParseResult R = parseText(Text, System);
  ASSERT_TRUE(R.Ok) << R.error();
  EXPECT_EQ(System.clauses().size(), 3u);
  EXPECT_TRUE(System.clauses()[2].isQuery());
  EXPECT_EQ(System.clauses()[2].HeadFormula, TM.mkFalse());
}

TEST(SmtLib2ParserTest, NegatedBodyQuery) {
  const char *Text = R"(
(declare-fun p (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (p x))))
(assert (forall ((x Int)) (not (and (p x) (> x 5)))))
)";
  TermManager TM;
  ChcSystem System(TM);
  ParseResult R = parseText(Text, System);
  ASSERT_TRUE(R.Ok) << R.error();
  ASSERT_EQ(System.clauses().size(), 2u);
  EXPECT_TRUE(System.clauses()[1].isQuery());
  EXPECT_EQ(System.clauses()[1].Body.size(), 1u);
}

TEST(SmtLib2ParserTest, ArithmeticOperators) {
  const char *Text = R"(
(declare-fun p (Int Int) Bool)
(assert (forall ((x Int) (y Int))
  (=> (and (= y (* 2 x)) (= (mod y 2) 0) (distinct x y) (<= 0 x y))
      (p x y))))
)";
  TermManager TM;
  ChcSystem System(TM);
  ParseResult R = parseText(Text, System);
  ASSERT_TRUE(R.Ok) << R.error();
  ASSERT_EQ(System.clauses().size(), 1u);
  const HornClause &C = System.clauses()[0];
  // distinct x y with y = 2x and x, y >= 0 forces x >= 1 at, e.g., x=1,y=2.
  std::unordered_map<const Term *, Rational> Asg{
      {TM.mkVar("x"), Rational(1)}, {TM.mkVar("y"), Rational(2)}};
  EXPECT_TRUE(evalFormula(C.Constraint, Asg));
  Asg[TM.mkVar("y")] = Rational(1);
  EXPECT_FALSE(evalFormula(C.Constraint, Asg));
}

/// One located diagnostic per kind of malformed input: each offending
/// command sits on line 2, after a well-formed first line.
TEST(SmtLib2ParserTest, ErrorDiagnostics) {
  auto Expect = [](const std::string &Line2, const char *Fragment) {
    ParseResult P = expectParseError("(set-logic HORN)\n" + Line2);
    EXPECT_NE(P.Message.find(Fragment), std::string::npos)
        << P.Message << " vs " << Fragment;
    EXPECT_EQ(P.Line, 2u) << P.error();
    EXPECT_GT(P.Col, 0u) << P.error();
  };
  Expect("(declare-fun p (Real) Bool)", "unsupported sort 'Real'");
  Expect("(frobnicate)", "unsupported command 'frobnicate'");
  Expect("(assert (q 1))", "unknown function or predicate 'q'");
  Expect("(declare-fun p (Int) Bool)(assert (p 1 2))",
         "expects 1 arguments, got 2");
  Expect("(declare-fun p (Int) Bool)(assert (forall ((x Int)) "
         "(=> (or (p x) (> x 0)) false)))",
         "not a Horn clause");
  Expect("(declare-fun p (Int Int) Bool)(assert (forall ((x Int) (y Int)) "
         "(=> (= x (* x y)) (p x y))))",
         "non-linear");
}

TEST(SmtLib2ParserTest, NonRecursiveSystemDetected) {
  const char *Text = R"(
(declare-fun a (Int) Bool)
(declare-fun b (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (a x))))
(assert (forall ((x Int)) (=> (a x) (b x))))
(assert (forall ((x Int)) (=> (b x) (>= x 0))))
)";
  TermManager TM;
  ChcSystem System(TM);
  ASSERT_TRUE(parseText(Text, System).Ok);
  EXPECT_FALSE(System.isRecursive());
  EXPECT_TRUE(System.recursivePredicates().empty());
}

TEST(SmtLib2ParserTest, MutualRecursionDetected) {
  const char *Text = R"(
(declare-fun even (Int) Bool)
(declare-fun odd (Int) Bool)
(assert (forall ((x Int)) (=> (= x 0) (even x))))
(assert (forall ((x Int)) (=> (even x) (odd (+ x 1)))))
(assert (forall ((x Int)) (=> (odd x) (even (+ x 1)))))
)";
  TermManager TM;
  ChcSystem System(TM);
  ASSERT_TRUE(parseText(Text, System).Ok);
  EXPECT_TRUE(System.isRecursive());
  EXPECT_EQ(System.recursivePredicates().size(), 2u);
}

//===----------------------------------------------------------------------===//
// Bundled corpus
//===----------------------------------------------------------------------===//

TEST(Smt2CorpusTest, CoversRequiredShapes) {
  const auto &Benchmarks = corpus::smt2Benchmarks();
  ASSERT_GE(Benchmarks.size(), 6u);
  size_t Safe = 0, Unsafe = 0, MultiPred = 0, Nonlinear = 0;
  for (const corpus::Smt2Benchmark &B : Benchmarks) {
    (B.ExpectedSafe ? Safe : Unsafe)++;
    MultiPred += B.MultiPredicate;
    Nonlinear += B.NonlinearHorn;
  }
  EXPECT_GE(Safe, 1u);
  EXPECT_GE(Unsafe, 1u);
  EXPECT_GE(MultiPred, 1u);
  EXPECT_GE(Nonlinear, 1u);
}

TEST(Smt2CorpusTest, AllBenchmarksSolveWithExpectedVerdicts) {
  solver::SolveOptions Opts;
  Opts.Limits.WallSeconds = 60;
  for (const corpus::Smt2Benchmark &B : corpus::smt2Benchmarks()) {
    solver::SolveResult S = solver::solveFile(B.Path, Opts);
    ASSERT_TRUE(S.Ok) << B.Name << ": " << S.Error;
    EXPECT_EQ(S.Format, solver::SourceFormat::SmtLib2) << B.Name;
    EXPECT_EQ(S.Status,
              B.ExpectedSafe ? ChcResult::Sat : ChcResult::Unsat)
        << B.Name;
    if (S.Status == ChcResult::Sat) {
      EXPECT_TRUE(S.ModelValidated) << B.Name;
    }
  }
}

TEST(Smt2CorpusTest, VerdictsMatchMiniCEquivalents) {
  solver::SolveOptions Opts;
  Opts.Limits.WallSeconds = 60;
  size_t Compared = 0;
  for (const corpus::Smt2Benchmark &B : corpus::smt2Benchmarks()) {
    if (B.MiniCEquivalent.empty())
      continue;
    const corpus::BenchmarkProgram *Prog = corpus::find(B.MiniCEquivalent);
    ASSERT_NE(Prog, nullptr) << B.MiniCEquivalent;
    EXPECT_EQ(Prog->ExpectedSafe, B.ExpectedSafe) << B.Name;

    solver::SolveResult Smt2 = solver::solveFile(B.Path, Opts);
    solver::SolveRequest MiniC;
    MiniC.Source = Prog->Source;
    MiniC.Format = solver::SourceFormat::MiniC;
    MiniC.Options = Opts;
    solver::SolveResult C = solver::solve(MiniC);
    ASSERT_TRUE(Smt2.Ok) << Smt2.Error;
    ASSERT_TRUE(C.Ok) << C.Error;
    EXPECT_EQ(Smt2.Status, C.Status) << B.Name;
    ++Compared;
  }
  EXPECT_GE(Compared, 2u);
}

//===----------------------------------------------------------------------===//
// Printer round-trip
//===----------------------------------------------------------------------===//

TEST(Smt2PrinterTest, RoundTripsMiniCCorpusWithIdenticalVerdicts) {
  // mini-C corpus -> encoded system -> printed SMT-LIB2 -> reparsed ->
  // both solved: the verdicts must agree. Encoder-generated names contain
  // characters outside the SMT-LIB2 simple-symbol alphabet (`#`), so this
  // also exercises |...| quoting.
  const char *Programs[] = {"paper_fig1",    "paper_fig1_unsafe",
                            "lit_cggmp_easy", "pie_abs_value",
                            "dig_affine_line", "mod_even_counter"};
  solver::SolveOptions Opts;
  Opts.Limits.WallSeconds = 60;
  // mod_even_counter needs the divisors of its `%` operations as learner
  // features (the harness normally mines them from the program text).
  Opts.Solver.Learn.ModFeatures = {2, 3};
  for (const char *Name : Programs) {
    const corpus::BenchmarkProgram *Prog = corpus::find(Name);
    ASSERT_NE(Prog, nullptr) << Name;

    TermManager TM;
    ChcSystem Encoded(TM);
    frontend::EncodeResult E = frontend::encodeMiniC(Prog->Source, Encoded);
    ASSERT_TRUE(E.Ok) << Name << ": " << E.Error;

    std::string Printed = printSmtLib2(Encoded);
    EXPECT_NE(Printed.find("(set-logic HORN)"), std::string::npos);
    EXPECT_NE(Printed.find("(check-sat)"), std::string::npos);

    TermManager TM2;
    ChcSystem Reparsed(TM2);
    ParseResult P = parseSmtLib2(Printed, Reparsed);
    ASSERT_TRUE(P.Ok) << Name << ": " << P.error() << "\n" << Printed;
    EXPECT_EQ(Reparsed.clauses().size(), Encoded.clauses().size()) << Name;
    EXPECT_EQ(Reparsed.predicates().size(), Encoded.predicates().size())
        << Name;

    solver::SolveResult Direct = solver::solveSystem(Encoded, Opts);
    solver::SolveResult Round = solver::solveSystem(Reparsed, Opts);
    ASSERT_TRUE(Direct.Ok) << Direct.Error;
    ASSERT_TRUE(Round.Ok) << Round.Error;
    ASSERT_NE(Direct.Status, ChcResult::Unknown) << Name;
    EXPECT_EQ(Direct.Status, Round.Status) << Name;
    EXPECT_EQ(Direct.Status,
              Prog->ExpectedSafe ? ChcResult::Sat : ChcResult::Unsat)
        << Name;
  }
}

TEST(Smt2PrinterTest, QuotesNonSimpleSymbols) {
  TermManager TM;
  ChcSystem System(TM);
  const Predicate *P = System.addPredicate("inv#0", 1);
  HornClause C;
  PredApp App;
  App.Pred = P;
  App.Args.push_back(TM.mkVar("x#y"));
  C.HeadPred = App;
  C.Constraint = TM.mkEq(TM.mkVar("x#y"), TM.mkIntConst(0));
  System.addClause(std::move(C));

  std::string Printed = printSmtLib2(System);
  EXPECT_NE(Printed.find("|inv#0|"), std::string::npos) << Printed;
  EXPECT_NE(Printed.find("|x#y|"), std::string::npos) << Printed;

  TermManager TM2;
  ChcSystem Reparsed(TM2);
  ParseResult R = parseSmtLib2(Printed, Reparsed);
  ASSERT_TRUE(R.Ok) << R.error() << "\n" << Printed;
  EXPECT_EQ(Reparsed.predicates().size(), 1u);
  EXPECT_EQ(Reparsed.predicates()[0]->Name, "inv#0");
}

} // namespace
