//===- analysis/TemplateAnalysis.cpp - Template polyhedra over CHCs -------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/TemplateAnalysis.h"

#include "analysis/DomainCancellation.h"
#include "analysis/FixpointEngine.h"
#include "logic/LinearExpr.h"
#include "smt/LpSolver.h"

#include <algorithm>
#include <map>
#include <set>

using namespace la;
using namespace la::analysis;
using namespace la::chc;

namespace {

//===----------------------------------------------------------------------===//
// Shared helpers
//===----------------------------------------------------------------------===//

/// Clause-variable numbering: every distinct Int variable of the clause
/// gets one LP dimension, in discovery order (same scheme as the octagon
/// transfer).
using VarMap = std::map<const Term *, size_t, TermIdLess>;

void collectVars(const Term *T, VarMap &Idx) {
  if (T->kind() == TermKind::Var) {
    if (T->sort() == Sort::Int && !Idx.count(T))
      Idx.emplace(T, Idx.size());
    return;
  }
  for (const Term *Op : T->operands())
    collectVars(Op, Idx);
}

/// Scales \p Coef so every entry is an integer and their gcd is 1 (the sign
/// pattern is preserved: a row and its negation stay distinct templates).
/// Returns false for the all-zero row.
bool normalizeRow(std::vector<Rational> &Coef) {
  Rational Scale(1);
  bool AnyNonzero = false;
  for (const Rational &C : Coef) {
    if (C.isZero())
      continue;
    AnyNonzero = true;
    Scale *= Rational(C.denominator());
  }
  if (!AnyNonzero)
    return false;
  BigInt G;
  for (Rational &C : Coef) {
    C *= Scale;
    G = BigInt::gcd(G, C.numerator());
  }
  Rational Div{G};
  if (Div != Rational(1))
    for (Rational &C : Coef)
      C /= Div;
  return true;
}

//===----------------------------------------------------------------------===//
// Template mining
//===----------------------------------------------------------------------===//

/// Collects the linear atoms of a constraint tree, looking through And/Or
/// and single negations. Mining wants *directions*, not truth: an atom
/// under a disjunction is as good a template hint as a top-level one.
void collectAtomExprs(const Term *T, std::vector<LinearExpr> &Out) {
  switch (T->kind()) {
  case TermKind::And:
  case TermKind::Or:
    for (const Term *Op : T->operands())
      collectAtomExprs(Op, Out);
    return;
  case TermKind::Not:
    collectAtomExprs(T->operand(0), Out);
    return;
  case TermKind::Le:
  case TermKind::Lt:
  case TermKind::Eq:
    if (std::optional<LinearAtom> A = LinearAtom::fromTerm(T))
      Out.push_back(std::move(A->Expr));
    return;
  default:
    return;
  }
}

/// Deduplicating, order-preserving row accumulator with a hard cap. When a
/// pack layout is supplied, rows whose support spans more than one variable
/// pack are rejected: packing already gave those cross-pack relations up in
/// the octagon domain, and mining them here would re-grow exactly the LP
/// dimensions packing removed (DESIGN.md §13).
class RowSet {
public:
  RowSet(size_t Arity, size_t Cap, const PredPacks *Packs = nullptr)
      : Arity(Arity), Cap(Cap), Packs(Packs) {}

  void add(std::vector<Rational> Coef) {
    if (Rows.size() >= Cap || !normalizeRow(Coef))
      return;
    if (Packs && crossesPacks(Coef))
      return;
    TemplateRow R{std::move(Coef)};
    if (Seen.insert(R).second)
      Rows.push_back(std::move(R));
  }

  std::vector<TemplateRow> take() { return std::move(Rows); }
  const std::vector<TemplateRow> &rows() const { return Rows; }
  size_t arity() const { return Arity; }

private:
  bool crossesPacks(const std::vector<Rational> &Coef) const {
    size_t Pack = ~size_t(0);
    for (size_t J = 0; J < Coef.size(); ++J) {
      if (Coef[J].isZero())
        continue;
      if (Pack == ~size_t(0))
        Pack = Packs->PackOf[J];
      else if (Packs->PackOf[J] != Pack)
        return true;
    }
    return false;
  }

  size_t Arity;
  size_t Cap;
  const PredPacks *Packs;
  std::set<TemplateRow> Seen;
  std::vector<TemplateRow> Rows;
};

/// Projects every collected constraint direction of clause \p C onto the
/// argument positions of \p App (arguments that are plain Int variables
/// map to their position; everything else is dropped from the projection).
/// Each projected direction contributes itself and its negation.
void mineFromApp(const PredApp &App, const std::vector<LinearExpr> &Atoms,
                 RowSet &Rows, std::vector<TemplateRow> &Harvested) {
  std::map<const Term *, size_t, TermIdLess> ArgPos;
  for (size_t J = 0; J < App.Args.size(); ++J)
    if (App.Args[J]->kind() == TermKind::Var &&
        App.Args[J]->sort() == Sort::Int)
      ArgPos.emplace(App.Args[J], J); // first position wins on duplicates
  if (ArgPos.empty())
    return;
  for (const LinearExpr &E : Atoms) {
    std::vector<Rational> Coef(Rows.arity());
    bool Any = false;
    for (const auto &[Var, C] : E.coefficients()) {
      auto It = ArgPos.find(Var);
      if (It == ArgPos.end())
        continue;
      Coef[It->second] += C;
      Any = true;
    }
    if (!Any)
      continue;
    std::vector<Rational> Neg(Coef.size());
    for (size_t J = 0; J < Coef.size(); ++J)
      Neg[J] = -Coef[J];
    // Remember the normalized direction for the pairwise combination step.
    std::vector<Rational> Canon = Coef;
    if (normalizeRow(Canon))
      Harvested.push_back(TemplateRow{std::move(Canon)});
    Rows.add(std::move(Coef));
    Rows.add(std::move(Neg));
  }
}

} // namespace

std::vector<TemplateMatrixRef>
analysis::mineTemplates(const AnalysisContext &Ctx,
                        const TemplateMiningOptions &Opts) {
  const auto &Preds = Ctx.system().predicates();
  const auto &Clauses = Ctx.system().clauses();

  // Constraint directions of each live clause, shared across predicates.
  // Query clauses carry their guard in the head formula (`body -> guard`),
  // and that guard is often exactly the direction the invariant must bound,
  // so it is harvested alongside the body constraint.
  std::vector<std::vector<LinearExpr>> ClauseAtoms(Clauses.size());
  for (size_t CI = 0; CI < Clauses.size(); ++CI)
    if (Ctx.isLive(CI)) {
      collectAtomExprs(Clauses[CI].Constraint, ClauseAtoms[CI]);
      if (Clauses[CI].HeadFormula)
        collectAtomExprs(Clauses[CI].HeadFormula, ClauseAtoms[CI]);
    }

  std::vector<TemplateMatrixRef> Out(Preds.size());
  for (const Predicate *P : Preds) {
    auto M = std::make_shared<TemplateMatrix>();
    M->Arity = P->arity();
    Out[P->Index] = M;
    if (Ctx.isFixed(P) || P->arity() == 0)
      continue; // masked or nullary: empty matrix, values are always top

    size_t N = P->arity();
    const PredPacks *Layout = Ctx.packs().Preds[P->Index].get();
    RowSet Rows(N, Opts.MaxTemplatesPerPredicate, Layout);

    // Octagon-shaped defaults: unary rows always, pair rows on small
    // arities (they subsume the octagon rung there).
    for (size_t I = 0; I < N; ++I)
      for (int S : {+1, -1}) {
        std::vector<Rational> Coef(N);
        Coef[I] = Rational(S);
        Rows.add(std::move(Coef));
      }
    if (N <= Opts.PairDefaultMaxArity)
      for (size_t I = 0; I < N; ++I)
        for (size_t J = I + 1; J < N; ++J)
          for (int SI : {+1, -1})
            for (int SJ : {+1, -1}) {
              std::vector<Rational> Coef(N);
              Coef[I] = Rational(SI);
              Coef[J] = Rational(SJ);
              Rows.add(std::move(Coef));
            }

    // Harvested rows: clause constraint directions projected through every
    // application of P (head and body alike).
    std::vector<TemplateRow> Harvested;
    for (size_t CI = 0; CI < Clauses.size(); ++CI) {
      if (!Ctx.isLive(CI) || ClauseAtoms[CI].empty())
        continue;
      const HornClause &C = Clauses[CI];
      if (C.HeadPred && C.HeadPred->Pred == P)
        mineFromApp(*C.HeadPred, ClauseAtoms[CI], Rows, Harvested);
      for (const PredApp &App : C.Body)
        if (App.Pred == P)
          mineFromApp(App, ClauseAtoms[CI], Rows, Harvested);
    }

    // Loop-guard combinations: pairwise sums of the first few harvested
    // directions (and their negations, which the row set already holds),
    // capturing guards split across clauses like `x <= n` + `y >= x`.
    size_t Limit = std::min(Harvested.size(), Opts.MaxCombinedRows);
    for (size_t A = 0; A < Limit; ++A)
      for (size_t B = A + 1; B < Limit; ++B) {
        std::vector<Rational> Sum(N), Diff(N);
        for (size_t J = 0; J < N; ++J) {
          Sum[J] = Harvested[A].Coef[J] + Harvested[B].Coef[J];
          Diff[J] = Harvested[A].Coef[J] - Harvested[B].Coef[J];
        }
        Rows.add(std::move(Sum));
        Rows.add(std::move(Diff));
      }

    M->Rows = Rows.take();
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Transfer
//===----------------------------------------------------------------------===//

namespace {

/// One DNF branch: a conjunction of linear atoms.
using Branch = std::vector<LinearAtom>;

/// Expands a constraint into DNF branches, conservatively dropping
/// non-linear atoms (sound: fewer constraints over-approximate). Returns
/// nullopt when the expansion would exceed \p Cap branches.
std::optional<std::vector<Branch>> expandDNF(const Term *T, size_t Cap) {
  switch (T->kind()) {
  case TermKind::BoolConst:
    if (T->boolValue())
      return std::vector<Branch>{Branch{}};
    return std::vector<Branch>{}; // false: no feasible branch
  case TermKind::And: {
    std::vector<Branch> Acc{Branch{}};
    for (const Term *Op : T->operands()) {
      std::optional<std::vector<Branch>> Sub = expandDNF(Op, Cap);
      if (!Sub)
        return std::nullopt;
      std::vector<Branch> Next;
      if (Acc.size() * Sub->size() > Cap)
        return std::nullopt;
      for (const Branch &L : Acc)
        for (const Branch &R : *Sub) {
          Branch Merged = L;
          Merged.insert(Merged.end(), R.begin(), R.end());
          Next.push_back(std::move(Merged));
        }
      Acc = std::move(Next);
    }
    return Acc;
  }
  case TermKind::Or: {
    std::vector<Branch> Acc;
    for (const Term *Op : T->operands()) {
      std::optional<std::vector<Branch>> Sub = expandDNF(Op, Cap);
      if (!Sub)
        return std::nullopt;
      if (Acc.size() + Sub->size() > Cap)
        return std::nullopt;
      for (Branch &B : *Sub)
        Acc.push_back(std::move(B));
    }
    return Acc;
  }
  case TermKind::Le:
  case TermKind::Lt:
  case TermKind::Eq:
    if (std::optional<LinearAtom> A = LinearAtom::fromTerm(T))
      return std::vector<Branch>{Branch{std::move(*A)}};
    return std::vector<Branch>{Branch{}}; // non-linear: ignore (sound)
  case TermKind::Not:
    if (std::optional<LinearAtom> A = LinearAtom::fromTerm(T->operand(0)))
      if (A->Rel != LinRel::Eq)
        return std::vector<Branch>{Branch{A->negated()}};
    return std::vector<Branch>{Branch{}};
  default:
    return std::vector<Branch>{Branch{}}; // unknown boolean structure
  }
}

/// Fallback when the DNF blows the cap: only the conjunctive spine's atoms
/// (everything under an Or is ignored, which over-approximates).
void collectConjunctiveAtoms(const Term *T, Branch &Out, bool &False) {
  switch (T->kind()) {
  case TermKind::BoolConst:
    if (!T->boolValue())
      False = true;
    return;
  case TermKind::And:
    for (const Term *Op : T->operands())
      collectConjunctiveAtoms(Op, Out, False);
    return;
  case TermKind::Le:
  case TermKind::Lt:
  case TermKind::Eq:
    if (std::optional<LinearAtom> A = LinearAtom::fromTerm(T))
      Out.push_back(std::move(*A));
    return;
  case TermKind::Not:
    if (std::optional<LinearAtom> A = LinearAtom::fromTerm(T->operand(0)))
      if (A->Rel != LinRel::Eq)
        Out.push_back(A->negated());
    return;
  default:
    return;
  }
}

/// The LP image of one clause under one DNF branch: clause variables plus
/// one slot variable per head argument position.
class ClauseLp {
public:
  ClauseLp(const VarMap &Idx, size_t Arity,
           const std::shared_ptr<const CancellationToken> &Cancel)
      : Idx(Idx), Lp(Cancel) {
    for (size_t I = 0; I < Idx.size(); ++I)
      Lp.addVar();
    Slots.reserve(Arity);
    for (size_t K = 0; K < Arity; ++K)
      Slots.push_back(Lp.addVar());
  }

  /// `sum over a LinearExpr's variables` as an LP combo; the constant part
  /// is returned through \p ConstOut.
  smt::LinearCombo comboOf(const LinearExpr &E, Rational &ConstOut) const {
    smt::LinearCombo C;
    for (const auto &[Var, Coef] : E.coefficients())
      C.emplace_back(static_cast<int>(Idx.at(Var)), Coef);
    ConstOut = E.constant();
    return C;
  }

  /// Conjoins the facts of one body application's polyhedron. Returns
  /// false when the application is infeasible outright.
  bool importBodyApp(const PredApp &App, const TemplatePolyhedron &PV) {
    if (PV.isEmpty())
      return false;
    const TemplateMatrixRef &M = PV.matrix();
    if (!M || M->Rows.empty())
      return true;
    // Argument terms as linear expressions; non-linear arguments block
    // every row that mentions their position (sound: the row is dropped).
    std::vector<std::optional<LinearExpr>> ArgExpr(App.Args.size());
    for (size_t J = 0; J < App.Args.size(); ++J)
      ArgExpr[J] = LinearExpr::fromTerm(App.Args[J]);
    for (size_t R = 0; R < M->Rows.size(); ++R) {
      OctBound B = PV.boundOfRow(R);
      if (!B.Finite)
        continue;
      const TemplateRow &Row = M->Rows[R];
      smt::LinearCombo Combo;
      Rational Const;
      bool Ok = true;
      for (size_t J = 0; J < Row.Coef.size() && Ok; ++J) {
        if (Row.Coef[J].isZero())
          continue;
        if (!ArgExpr[J]) {
          Ok = false;
          break;
        }
        for (const auto &[Var, Coef] : ArgExpr[J]->coefficients())
          Combo.emplace_back(static_cast<int>(Idx.at(Var)),
                             Coef * Row.Coef[J]);
        Const += ArgExpr[J]->constant() * Row.Coef[J];
      }
      if (!Ok)
        continue;
      // row . args <= b  with  args = exprs + consts:
      // row . exprs <= b - row . consts.
      Lp.addLe(Combo, B.B - Const);
    }
    return true;
  }

  void addAtom(const LinearAtom &A) {
    Rational Const;
    smt::LinearCombo Combo = comboOf(A.Expr, Const);
    switch (A.Rel) {
    case LinRel::Le:
      Lp.addLe(Combo, -Const);
      break;
    case LinRel::Lt:
      Lp.addLt(Combo, -Const);
      break;
    case LinRel::Eq:
      Lp.addEq(Combo, -Const);
      break;
    }
  }

  /// Equates head slot \p K with the head argument expression.
  void equateSlot(size_t K, const LinearExpr &E) {
    Rational Const;
    smt::LinearCombo Combo = comboOf(E, Const);
    Combo.emplace_back(Slots[K], Rational(-1));
    // expr - slot = -const.
    Lp.addEq(Combo, -Const);
  }

  bool feasible() { return Lp.feasible(); }

  /// Tightest integral upper bound on `Row . slots`, +inf on unbounded or
  /// cancelled queries.
  OctBound maximizeRow(const TemplateRow &Row) {
    smt::LinearCombo Objective;
    for (size_t K = 0; K < Row.Coef.size(); ++K)
      if (!Row.Coef[K].isZero())
        Objective.emplace_back(Slots[K], Row.Coef[K]);
    smt::LpProblem::Optimum Opt = Lp.maximize(Objective);
    if (Opt.St == smt::LpProblem::Status::Optimal)
      return OctBound::of(integralUpperBound(Opt.Value));
    return OctBound::inf();
  }

private:
  const VarMap &Idx;
  smt::LpProblem Lp;
  std::vector<int> Slots;
};

} // namespace

std::optional<TemplateDomain::Value>
TemplateDomain::transfer(const HornClause &C,
                         const std::vector<DomainPredState<Value>> &States)
    const {
  for (const PredApp &App : C.Body)
    if (!States[App.Pred->Index].Reachable)
      return std::nullopt;

  const TemplateMatrixRef &Mat = Matrices[C.HeadPred->Pred->Index];

  VarMap Idx;
  for (const PredApp &App : C.Body)
    for (const Term *Arg : App.Args)
      collectVars(Arg, Idx);
  for (const Term *Arg : C.HeadPred->Args)
    collectVars(Arg, Idx);
  collectVars(C.Constraint, Idx);

  std::optional<std::vector<Branch>> Branches =
      expandDNF(C.Constraint, MineOpts.MaxTransferBranches);
  if (!Branches) {
    Branch Fallback;
    bool False = false;
    collectConjunctiveAtoms(C.Constraint, Fallback, False);
    Branches.emplace();
    if (!False)
      Branches->push_back(std::move(Fallback));
  }

  size_t Arity = C.HeadPred->Args.size();
  std::vector<std::optional<LinearExpr>> HeadExpr(Arity);
  for (size_t K = 0; K < Arity; ++K)
    HeadExpr[K] = LinearExpr::fromTerm(C.HeadPred->Args[K]);

  std::optional<Value> Joined;
  for (const Branch &B : *Branches) {
    if (isCancelled(Cancel))
      break;
    ClauseLp Lp(Idx, Arity, Cancel);
    bool BodyOk = true;
    for (const PredApp &App : C.Body)
      if (!Lp.importBodyApp(App, States[App.Pred->Index].Value)) {
        BodyOk = false;
        break;
      }
    if (!BodyOk)
      continue;
    for (const LinearAtom &A : B)
      Lp.addAtom(A);
    for (size_t K = 0; K < Arity; ++K)
      if (HeadExpr[K])
        Lp.equateSlot(K, *HeadExpr[K]); // non-linear: slot unconstrained
    if (!Lp.feasible())
      continue;

    std::vector<OctBound> Bounds;
    Bounds.reserve(Mat ? Mat->Rows.size() : 0);
    if (Mat)
      for (const TemplateRow &Row : Mat->Rows)
        Bounds.push_back(Lp.maximizeRow(Row));
    Value V = TemplatePolyhedron::top(Mat);
    // Each bound is the tight supremum over this branch's image, so the
    // branch value is closed by construction.
    V.setAllBounds(std::move(Bounds), /*AreClosed=*/true);
    Joined = Joined ? Joined->join(V) : std::move(V);
  }
  return Joined;
}

bool TemplateDomain::join(Value &Into, const Value &From) const {
  Value Joined = Into.join(From);
  if (Joined == Into)
    return false;
  Into = std::move(Joined);
  return true;
}

void TemplateDomain::widen(Value &Into, const Value &Joined) const {
  Into = Into.widen(Joined);
}

bool TemplateDomain::narrow(Value &Into, const Value &Step) const {
  Value M = Into.meet(Step);
  if (M.isEmpty() || M == Into)
    return false;
  Into = std::move(M);
  return true;
}

namespace {

/// Renders a polyhedron as a conjunction of `sum a_i x_i <= c` atoms over
/// the predicate's formal parameters.
const Term *renderPolyhedron(TermManager &TM, const Predicate *P,
                             const TemplatePolyhedron &V) {
  if (V.isEmpty())
    return TM.mkFalse();
  const TemplateMatrixRef &M = V.matrix();
  std::vector<const Term *> Conj;
  if (M)
    for (size_t R = 0; R < M->Rows.size(); ++R) {
      OctBound B = V.boundOfRow(R);
      if (!B.Finite)
        continue;
      const TemplateRow &Row = M->Rows[R];
      std::vector<const Term *> Sum;
      for (size_t J = 0; J < Row.Coef.size(); ++J) {
        if (Row.Coef[J].isZero())
          continue;
        Sum.push_back(Row.Coef[J] == Rational(1)
                          ? P->Params[J]
                          : TM.mkMul(Row.Coef[J], P->Params[J]));
      }
      Conj.push_back(TM.mkLe(TM.mkAdd(std::move(Sum)), TM.mkIntConst(B.B)));
    }
  if (Conj.empty())
    return TM.mkTrue(); // unreachable behind the isTop gate
  return TM.mkAnd(std::move(Conj));
}

} // namespace

const Term *TemplateDomain::toInvariant(TermManager &TM, const Predicate *P,
                                        const Value &V) const {
  return renderPolyhedron(TM, P, V);
}

std::vector<PolyhedraState>
analysis::runTemplateAnalysis(const AnalysisContext &Ctx,
                              std::vector<TemplateMatrixRef> *Matrices,
                              FixpointTelemetry *Telemetry) {
  std::vector<TemplateMatrixRef> Mined =
      mineTemplates(Ctx, Ctx.Opts.Mining);
  if (Matrices)
    *Matrices = Mined;
  // Value-internal LP closures poll the installed token, which carries the
  // analysis deadline (the transfer LPs carry the token explicitly as well).
  DomainCancelScope Scope(Ctx.Opts.Smt.Cancel);
  TemplateDomain Dom(std::move(Mined), Ctx.Opts.Mining, Ctx.Opts.Smt.Cancel);
  return runDomainAnalysis(Dom, Ctx, Ctx.Opts.Polyhedra, Telemetry);
}

const Term *analysis::templateInvariant(TermManager &TM, const Predicate *P,
                                        const PolyhedraState &State) {
  if (!State.Reachable)
    return TM.mkFalse();
  if (State.Value.isTop())
    return nullptr;
  return renderPolyhedron(TM, P, State.Value);
}
