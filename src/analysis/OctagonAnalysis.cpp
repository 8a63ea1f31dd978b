//===- analysis/OctagonAnalysis.cpp - Octagon domain over CHCs ------------===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/OctagonAnalysis.h"

#include "analysis/DomainCancellation.h"
#include "analysis/FixpointEngine.h"
#include "logic/LinearExpr.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

using namespace la;
using namespace la::analysis;
using namespace la::chc;

namespace {

constexpr size_t NPOS = ~size_t(0);

/// Resolves clause variables to scratch-octagon dimensions. A variable with
/// no dimension — outside the pack's interaction scope, or retired by the
/// live-range window — resolves to nothing, and the caller drops the fact
/// (always sound: dropping constraints over-approximates).
struct DimResolver {
  const ClauseVarMap *Idx = nullptr;
  const std::vector<size_t> *DimOf = nullptr;

  std::optional<size_t> at(const Term *V) const {
    auto It = Idx->find(V);
    if (It == Idx->end())
      return std::nullopt;
    size_t D = (*DimOf)[It->second];
    if (D == NPOS)
      return std::nullopt;
    return D;
  }
};

/// One normalised linear constraint `sum Coef_i * dim_i + K <= 0` over
/// octagon dimensions (the dims are distinct by construction).
using LinCombo = std::vector<std::pair<size_t, Rational>>;

/// Conjoins `sum C + K <= 0` onto \p O: exactly when the combination is an
/// octagon constraint (<= 2 dims, equal magnitudes), otherwise through its
/// sound unary and pairwise interval consequences.
void applyLe(Octagon &O, const LinCombo &C, const Rational &K) {
  if (C.empty()) {
    if (K.signum() > 0)
      O.markEmpty();
    return;
  }
  if (C.size() == 1) {
    const auto &[D, A] = C[0];
    // A*x <= -K.
    Rational Bound = -K / A;
    if (A.signum() > 0)
      O.addUpper(D, Bound);
    else
      O.addLower(D, Bound);
    return;
  }
  if (C.size() == 2 && C[0].second.abs() == C[1].second.abs()) {
    Rational A = C[0].second.abs();
    O.addPair(C[0].first, C[0].second.isNegative(), C[1].first,
              C[1].second.isNegative(), -K / A);
    return;
  }
  // Not an octagon constraint. Derive consequences against a snapshot of
  // the current per-dimension intervals (sound: the snapshot is an
  // over-approximation of the store being refined).
  std::vector<Interval> B;
  B.reserve(C.size());
  for (const auto &[D, A] : C)
    B.push_back(O.boundOf(D));
  for (size_t I = 0; I < C.size(); ++I) {
    // Coef_I * x_I <= -K - sum_{J != I} Coef_J * x_J.
    Interval Rest = Interval::constant(-K);
    for (size_t J = 0; J < C.size(); ++J)
      if (J != I)
        Rest = Rest + B[J].scaled(-C[J].second);
    if (!Rest.hasHi())
      continue;
    Rational Bound = Rest.hi() / C[I].second;
    if (C[I].second.signum() > 0)
      O.addUpper(C[I].first, Bound);
    else
      O.addLower(C[I].first, Bound);
  }
  for (size_t I = 0; I < C.size(); ++I)
    for (size_t J = I + 1; J < C.size(); ++J) {
      if (C[I].second.abs() != C[J].second.abs())
        continue;
      Interval Rest = Interval::constant(-K);
      for (size_t L = 0; L < C.size(); ++L)
        if (L != I && L != J)
          Rest = Rest + B[L].scaled(-C[L].second);
      if (!Rest.hasHi())
        continue;
      O.addPair(C[I].first, C[I].second.isNegative(), C[J].first,
                C[J].second.isNegative(), Rest.hi() / C[I].second.abs());
    }
}

void applyEq(Octagon &O, const LinCombo &C, const Rational &K) {
  applyLe(O, C, K);
  LinCombo Neg = C;
  for (auto &[D, A] : Neg)
    A = -A;
  applyLe(O, Neg, -K);
}

/// Conjoins one linear atom `Expr REL 0` onto \p O. The expression is first
/// scaled by a positive factor making everything integral (never by the
/// sign-normalising `LinearExpr::normalizeIntegral`, which may flip the
/// relation), so `<` tightens to `<= -1`. Atoms mentioning an unresolved
/// variable are dropped.
void applyAtom(Octagon &O, const LinearAtom &Atom, const DimResolver &R) {
  Rational Scale(1);
  LinCombo C;
  C.reserve(Atom.Expr.coefficients().size());
  for (const auto &[Var, Coef] : Atom.Expr.coefficients()) {
    std::optional<size_t> D = R.at(Var);
    if (!D)
      return;
    C.emplace_back(*D, Coef);
    Scale *= Rational(Coef.denominator());
  }
  Scale *= Rational(Atom.Expr.constant().denominator());
  for (auto &[D, A] : C)
    A = A * Scale;
  Rational K = Atom.Expr.constant() * Scale;
  switch (Atom.Rel) {
  case LinRel::Le:
    applyLe(O, C, K);
    break;
  case LinRel::Lt:
    // Integral, so E < 0 is E <= -1.
    applyLe(O, C, K + Rational(1));
    break;
  case LinRel::Eq:
    applyEq(O, C, K);
    break;
  }
}

/// Conjoins a clause constraint onto \p O: conjunctions sequentially,
/// disjunctions by joining their branch octagons, negated inequality atoms
/// flipped, anything else conservatively ignored.
void applyConstraint(Octagon &O, const Term *T, const DimResolver &R) {
  if (T->sort() != Sort::Bool)
    return;
  switch (T->kind()) {
  case TermKind::BoolConst:
    if (!T->boolValue())
      O.markEmpty();
    return;
  case TermKind::And:
    for (const Term *Op : T->operands())
      applyConstraint(O, Op, R);
    return;
  case TermKind::Or: {
    std::optional<Octagon> Joined;
    for (const Term *Op : T->operands()) {
      Octagon Branch = O;
      applyConstraint(Branch, Op, R);
      if (Branch.isEmpty())
        continue;
      Joined = Joined ? Joined->join(Branch) : std::move(Branch);
    }
    if (Joined)
      O = std::move(*Joined);
    else
      O.markEmpty();
    return;
  }
  case TermKind::Le:
  case TermKind::Lt:
  case TermKind::Eq: {
    std::optional<LinearAtom> Atom = LinearAtom::fromTerm(T);
    if (Atom)
      applyAtom(O, *Atom, R);
    return;
  }
  case TermKind::Not: {
    std::optional<LinearAtom> Atom = LinearAtom::fromTerm(T->operand(0));
    if (Atom && Atom->Rel != LinRel::Eq)
      applyAtom(O, Atom->negated(), R);
    return;
  }
  default:
    return;
  }
}

/// Imports the facts of one body application's packed octagon into the
/// clause octagon; false when the application is infeasible outright.
bool importBodyApp(Octagon &O, const PredApp &App, const PackedOctagon &PO,
                   const DimResolver &R) {
  if (PO.isEmpty())
    return false;
  if (PO.isTop())
    return true;

  // Argument positions carried by a plain variable map straight to a
  // dimension; the octagonal facts among them transfer losslessly.
  std::vector<std::optional<size_t>> ArgDim(App.Args.size());
  for (size_t J = 0; J < App.Args.size(); ++J)
    if (App.Args[J]->kind() == TermKind::Var &&
        App.Args[J]->sort() == Sort::Int)
      ArgDim[J] = R.at(App.Args[J]);

  Rational Half(BigInt(1), BigInt(2));
  PO.forEachConstraint([&](const OctConstraint &F) {
    if (F.Coef2 == 0) {
      if (!ArgDim[F.Var1])
        return;
      if (F.Coef1 > 0)
        O.addUpper(*ArgDim[F.Var1], F.Bound);
      else
        O.addLower(*ArgDim[F.Var1], -F.Bound);
      return;
    }
    if (!ArgDim[F.Var1] || !ArgDim[F.Var2])
      return;
    size_t D1 = *ArgDim[F.Var1], D2 = *ArgDim[F.Var2];
    if (D1 != D2) {
      O.addPair(D1, F.Coef1 < 0, D2, F.Coef2 < 0, F.Bound);
      return;
    }
    // Both argument positions carry the same clause variable.
    int Sum = F.Coef1 + F.Coef2;
    if (Sum == 0) {
      if (F.Bound.isNegative())
        O.markEmpty();
    } else if (Sum > 0) {
      O.addUpper(D1, F.Bound * Half);
    } else {
      O.addLower(D1, -(F.Bound * Half));
    }
  });

  // Non-variable argument terms: relate through the argument's interval.
  for (size_t J = 0; J < App.Args.size(); ++J) {
    if (ArgDim[J])
      continue;
    if (App.Args[J]->kind() == TermKind::Var)
      continue; // out-of-scope variable: no refinement, no feasibility check
    Interval AI = PO.boundOf(J);
    if (AI.isTop())
      continue;
    std::optional<LinearExpr> LE = LinearExpr::fromTerm(App.Args[J]);
    if (!LE)
      continue;
    if (LE->isConstant()) {
      if (!AI.contains(LE->constant()))
        return false;
      continue;
    }
    Interval Shifted = AI + Interval::constant(-LE->constant());
    if (LE->coefficients().size() == 1) {
      // Coeff*V + b in AI  ==>  V in (AI - b) / Coeff.
      const auto &[Var, Coef] = *LE->coefficients().begin();
      Interval VI = Shifted.scaled(Coef.inverse()).tightenIntegral();
      if (VI.isEmpty())
        return false;
      std::optional<size_t> D = R.at(Var);
      if (!D)
        continue;
      if (VI.hasLo())
        O.addLower(*D, VI.lo());
      if (VI.hasHi())
        O.addUpper(*D, VI.hi());
      continue;
    }
    if (LE->coefficients().size() == 2) {
      auto It = LE->coefficients().begin();
      const auto &[V1, A1] = *It;
      const auto &[V2, A2] = *std::next(It);
      if (A1.abs() != A2.abs())
        continue;
      std::optional<size_t> D1 = R.at(V1), D2 = R.at(V2);
      if (!D1 || !D2)
        continue;
      // a*(s1*V1 + s2*V2) + b in AI, a = |A1| > 0.
      Interval PI = Shifted.scaled(A1.abs().inverse());
      bool N1 = A1.isNegative(), N2 = A2.isNegative();
      if (PI.hasHi())
        O.addPair(*D1, N1, *D2, N2, PI.hi());
      if (PI.hasLo())
        O.addPair(*D1, !N1, *D2, !N2, -PI.lo());
    }
    // Wider argument terms: no backward refinement (sound).
  }
  return true;
}

/// The finite bound the unary facts alone place on the signed variable
/// `±x_I` (the `Neg` flag selects the sign), as an OctBound.
OctBound unarySigned(const Octagon &O, size_t I, bool Neg) {
  Interval B = O.boundOf(I);
  if (!Neg)
    return B.hasHi() ? OctBound::of(B.hi()) : OctBound::inf();
  return B.hasLo() ? OctBound::of(-B.lo()) : OctBound::inf();
}

/// Visits every pairwise fact strictly tighter than its unary-implied bound
/// (the genuinely relational content of the octagon).
template <class Fn> void forEachRelationalFact(const Octagon &O, Fn F) {
  if (O.isEmpty())
    return;
  const int Signs[2] = {+1, -1};
  for (size_t I = 0; I < O.numVars(); ++I)
    for (size_t J = I + 1; J < O.numVars(); ++J)
      for (int SI : Signs)
        for (int SJ : Signs) {
          OctBound B = O.pairUpper(I, SI < 0, J, SJ < 0);
          if (!B.Finite)
            continue;
          OctBound Implied =
              unarySigned(O, I, SI < 0) + unarySigned(O, J, SJ < 0);
          if (Implied.Finite && Implied.B <= B.B)
            continue;
          F(I, SI, J, SJ, B.B);
        }
}

/// Appends the ids (under \p Idx) of every Int variable below \p T.
void collectVarIds(const Term *T, const ClauseVarMap &Idx,
                   std::vector<size_t> &Out) {
  if (T->kind() == TermKind::Var) {
    if (T->sort() == Sort::Int)
      Out.push_back(Idx.at(T));
    return;
  }
  for (const Term *Op : T->operands())
    collectVarIds(Op, Idx, Out);
}

void flattenAnd(const Term *T, std::vector<const Term *> &Out) {
  if (T->kind() == TermKind::And) {
    for (const Term *Op : T->operands())
      flattenAnd(Op, Out);
    return;
  }
  Out.push_back(T);
}

} // namespace

namespace la::analysis {

/// One scheduled action of a per-pack transfer: a body-app import, one
/// top-level conjunct of the clause constraint, or one head-slot equation.
struct OctStepPlan {
  enum Kind : unsigned char { Import, Conjunct, SlotEq };
  Kind K = Import;
  /// Body-app index / conjunct index / member ordinal, by kind.
  size_t Index = 0;
  /// In-scope clause-variable ids the step reads or writes, sorted.
  std::vector<size_t> Vars;
};

/// The precomputed transfer schedule of one (clause, head pack): which
/// clause variables are in scope, in which order the steps run, each
/// variable's last use (for the live-range window), and which body-pred
/// packs feed the memoization hash.
struct OctPackPlan {
  size_t PackId = 0;
  /// False for the feasibility-only pseudo-plan of a pack-less (nullary)
  /// head: the transfer result is discarded, only infeasibility matters.
  bool HasPack = true;
  std::vector<size_t> Members; ///< head positions of the pack, ascending
  std::vector<char> Active;    ///< clause-var id -> in scope
  size_t ActiveCount = 0;
  /// Live-range windowing on; off, every in-scope variable keeps one
  /// dimension for the whole clause and the constraint applies twice (the
  /// historical monolithic behavior, kept for precision on small clauses).
  bool Windowed = false;
  size_t WindowDims = 0; ///< scratch dims beyond the head slots
  std::vector<OctStepPlan> Steps;
  std::vector<size_t> LastUse; ///< var id -> last step index using it
  /// Per body app: pack ids of the body predicate whose octagons can affect
  /// this transfer (the memoization hash covers exactly these).
  std::vector<std::vector<size_t>> AppHashPacks;
  const struct OctClausePlan *Parent = nullptr;
};

/// The per-clause transfer plan: the shared variable numbering and
/// interaction classes, the flattened constraint conjuncts, and one
/// `OctPackPlan` per head pack.
struct OctClausePlan {
  explicit OctClausePlan(ClauseInteraction In) : CI(std::move(In)) {}

  ClauseInteraction CI;
  std::vector<const Term *> Conjuncts;
  std::vector<OctPackPlan> PackPlans;
};

struct OctagonDomain::PlanStore {
  std::unordered_map<const chc::HornClause *, std::unique_ptr<OctClausePlan>>
      Map;
};

} // namespace la::analysis

namespace {

/// Sorted unique in-scope var ids below \p T; \p HasInt (when asked for)
/// reports whether any Int variable occurs at all, in or out of scope.
std::vector<size_t> activeVarsOf(const Term *T, const ClauseVarMap &Idx,
                                 const std::vector<char> &Active,
                                 bool *HasInt = nullptr) {
  std::vector<size_t> All;
  collectVarIds(T, Idx, All);
  if (HasInt)
    *HasInt = !All.empty();
  std::vector<size_t> Out;
  Out.reserve(All.size());
  for (size_t V : All)
    if (Active[V])
      Out.push_back(V);
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

OctPackPlan buildPackPlan(const HornClause &C, const OctClausePlan &Plan,
                          const PackDecomposition &Packs,
                          const PackingOptions &Opts, size_t PackId,
                          bool HasPack) {
  const ClauseVarMap &Idx = Plan.CI.Idx;
  size_t NumVars = Idx.size();
  const PredPacks &HL = *Packs.Preds[C.HeadPred->Pred->Index];

  OctPackPlan PP;
  PP.PackId = PackId;
  PP.HasPack = HasPack;
  if (HasPack)
    PP.Members = HL.Packs[PackId];

  // Scope: the interaction classes seeded by the head arguments at the
  // pack's positions. With packing disabled (and for the nullary
  // pseudo-plan) every clause variable stays in scope, reproducing the
  // monolithic transfer — including its clause-infeasibility detection over
  // head-disconnected variables.
  if (!Opts.Enable || !HasPack) {
    PP.Active.assign(NumVars, 1);
    PP.ActiveCount = NumVars;
  } else {
    PP.Active.assign(NumVars, 0);
    std::set<size_t> Seeds;
    std::vector<size_t> Vs;
    for (size_t P : PP.Members) {
      Vs.clear();
      collectVarIds(C.HeadPred->Args[P], Idx, Vs);
      for (size_t V : Vs)
        Seeds.insert(Plan.CI.Classes.find(V));
    }
    for (size_t V = 0; V < NumVars; ++V)
      if (Seeds.count(Plan.CI.Classes.find(V))) {
        PP.Active[V] = 1;
        ++PP.ActiveCount;
      }
  }

  size_t MaxStepVars = 0;
  auto AddStep = [&](OctStepPlan::Kind K, size_t Index,
                     std::vector<size_t> Vars) {
    MaxStepVars = std::max(MaxStepVars, Vars.size());
    PP.Steps.push_back(OctStepPlan{K, Index, std::move(Vars)});
  };

  for (size_t A = 0; A < C.Body.size(); ++A) {
    std::vector<size_t> Vs;
    for (const Term *Arg : C.Body[A].Args)
      collectVarIds(Arg, Idx, Vs);
    std::vector<size_t> Act;
    for (size_t V : Vs)
      if (PP.Active[V])
        Act.push_back(V);
    std::sort(Act.begin(), Act.end());
    Act.erase(std::unique(Act.begin(), Act.end()), Act.end());
    AddStep(OctStepPlan::Import, A, std::move(Act));
  }
  for (size_t CJ = 0; CJ < Plan.Conjuncts.size(); ++CJ) {
    bool HasInt = false;
    std::vector<size_t> Vs =
        activeVarsOf(Plan.Conjuncts[CJ], Idx, PP.Active, &HasInt);
    // Conjuncts over out-of-scope variables only are skipped; variable-free
    // conjuncts (a ground `false`) must always apply.
    if (!Vs.empty() || !HasInt)
      AddStep(OctStepPlan::Conjunct, CJ, std::move(Vs));
  }
  for (size_t J = 0; J < PP.Members.size(); ++J)
    AddStep(OctStepPlan::SlotEq, J,
            activeVarsOf(C.HeadPred->Args[PP.Members[J]], Idx, PP.Active));

  PP.Windowed = Opts.Enable && PP.ActiveCount > Opts.WindowThreshold;
  PP.LastUse.assign(NumVars, 0);
  if (!PP.Windowed) {
    PP.WindowDims = PP.ActiveCount;
  } else {
    std::vector<size_t> First(NumVars, NPOS);
    for (size_t T = 0; T < PP.Steps.size(); ++T)
      for (size_t V : PP.Steps[T].Vars) {
        if (First[V] == NPOS)
          First[V] = T;
        PP.LastUse[V] = T;
      }
    // The peak of the live-range intervals bounds how many dimensions the
    // window ever needs; `MaxWindowVars` caps it (overflow evicts).
    std::vector<ptrdiff_t> Delta(PP.Steps.size() + 1, 0);
    for (size_t V = 0; V < NumVars; ++V)
      if (First[V] != NPOS) {
        ++Delta[First[V]];
        --Delta[PP.LastUse[V] + 1];
      }
    size_t Peak = 0;
    ptrdiff_t Live = 0;
    for (size_t T = 0; T < PP.Steps.size(); ++T) {
      Live += Delta[T];
      Peak = std::max(Peak, static_cast<size_t>(Live));
    }
    PP.WindowDims = std::max(MaxStepVars, std::min(Peak, Opts.MaxWindowVars));
  }

  PP.AppHashPacks.resize(C.Body.size());
  for (size_t A = 0; A < C.Body.size(); ++A) {
    const PredApp &App = C.Body[A];
    const PredPacks &BL = *Packs.Preds[App.Pred->Index];
    std::set<size_t> Rel;
    for (size_t J = 0; J < App.Args.size() && J < BL.PackOf.size(); ++J) {
      const Term *Arg = App.Args[J];
      bool Relevant;
      if (Arg->kind() == TermKind::Var) {
        auto It = Idx.find(Arg);
        Relevant = It != Idx.end() && PP.Active[It->second];
      } else {
        // Constant and compound arguments feed feasibility checks through
        // the position's interval regardless of scope, so their packs are
        // always inputs.
        Relevant = true;
      }
      if (Relevant)
        Rel.insert(BL.PackOf[J]);
    }
    PP.AppHashPacks[A].assign(Rel.begin(), Rel.end());
  }
  return PP;
}

std::unique_ptr<OctClausePlan> buildClausePlan(const HornClause &C,
                                               const PackDecomposition &Packs,
                                               const PackingOptions &Opts) {
  auto Plan =
      std::make_unique<OctClausePlan>(clauseInteraction(C, Packs, Opts));
  flattenAnd(C.Constraint, Plan->Conjuncts);
  const PredPacks &HL = *Packs.Preds[C.HeadPred->Pred->Index];
  if (HL.packCount() == 0) {
    // Nullary head: no packs to fill, but the clause can still be
    // infeasible, which the old monolithic transfer detected. Keep that
    // with a feasibility-only pseudo-plan.
    Plan->PackPlans.push_back(buildPackPlan(C, *Plan, Packs, Opts, 0, false));
  } else {
    for (size_t K = 0; K < HL.packCount(); ++K)
      Plan->PackPlans.push_back(buildPackPlan(C, *Plan, Packs, Opts, K, true));
  }
  for (OctPackPlan &PP : Plan->PackPlans)
    PP.Parent = Plan.get();
  return Plan;
}

/// Fingerprint of everything that can influence one per-pack transfer: the
/// body states' reachability/emptiness and the relevant input packs'
/// canonical octagons. A collision replays a stale output — a candidate
/// precision loss only, since the verify pass re-proves every invariant.
size_t hashPackInputs(const HornClause &C, const OctPackPlan &PP,
                      const std::vector<DomainPredState<PackedOctagon>>
                          &States) {
  size_t H = 0x9e3779b97f4a7c15ULL;
  for (size_t A = 0; A < C.Body.size(); ++A) {
    const DomainPredState<PackedOctagon> &S = States[C.Body[A].Pred->Index];
    H = H * 1099511628211ULL ^ (S.Reachable ? 2 : 1);
    if (!S.Reachable)
      continue;
    bool Empty = S.Value.isEmpty();
    H = H * 1099511628211ULL ^ (Empty ? 5 : 3);
    if (Empty)
      continue;
    for (size_t L : PP.AppHashPacks[A])
      H = H * 1099511628211ULL ^ S.Value.pack(L).hash();
  }
  return H;
}

} // namespace

OctagonDomain::OctagonDomain(const PackDecomposition &Decomp,
                             const PackingOptions &Opts,
                             OctTransferCache *Xfer)
    : Packs(&Decomp), PackOpts(Opts), Cache(Xfer),
      Plans(std::make_shared<PlanStore>()) {}

std::optional<Octagon>
OctagonDomain::transferPack(const HornClause &C, const OctPackPlan &PP,
                            const std::vector<DomainPredState<Value>> &States)
    const {
  const OctClausePlan &Plan = *PP.Parent;
  const ClauseVarMap &Idx = Plan.CI.Idx;
  size_t NumVars = Idx.size();
  size_t S = PP.Members.size();
  size_t Total = S + PP.WindowDims;

  // Slots for the head arguments occupy dims [0, S); clause variables live
  // in [S, Total), permanently (monolithic path) or windowed.
  Octagon O(Total);
  std::vector<size_t> DimOf(NumVars, NPOS);
  DimResolver R{&Idx, &DimOf};

  auto Apply = [&](const OctStepPlan &St) -> bool {
    switch (St.K) {
    case OctStepPlan::Import:
      if (!importBodyApp(O, C.Body[St.Index],
                         States[C.Body[St.Index].Pred->Index].Value, R))
        return false;
      break;
    case OctStepPlan::Conjunct:
      applyConstraint(O, Plan.Conjuncts[St.Index], R);
      break;
    case OctStepPlan::SlotEq: {
      size_t J = St.Index;
      std::optional<LinearExpr> LE =
          LinearExpr::fromTerm(C.HeadPred->Args[PP.Members[J]]);
      if (!LE)
        break; // e.g. Mod: the slot stays unconstrained
      // slot_J - Expr = 0.
      LinCombo Combo;
      Combo.emplace_back(J, Rational(1));
      bool Resolved = true;
      for (const auto &[Var, Coef] : LE->coefficients()) {
        std::optional<size_t> D = R.at(Var);
        if (!D) {
          Resolved = false;
          break;
        }
        Combo.emplace_back(*D, -Coef);
      }
      if (Resolved)
        applyEq(O, Combo, -LE->constant());
      break;
    }
    }
    return !O.isEmpty();
  };

  if (!PP.Windowed) {
    // Monolithic-parity path: permanent dimensions, two constraint rounds
    // (so information discovered late reaches earlier conjuncts), slots
    // equated last — the historical single-DBM transfer.
    size_t Next = S;
    for (size_t V = 0; V < NumVars; ++V)
      if (PP.Active[V])
        DimOf[V] = Next++;
    for (const OctStepPlan &St : PP.Steps)
      if (St.K == OctStepPlan::Import && !Apply(St))
        return std::nullopt;
    for (int Round = 0; Round < 2; ++Round)
      for (const OctStepPlan &St : PP.Steps)
        if (St.K == OctStepPlan::Conjunct && !Apply(St))
          return std::nullopt;
    for (const OctStepPlan &St : PP.Steps)
      if (St.K == OctStepPlan::SlotEq && !Apply(St))
        return std::nullopt;
  } else {
    // Windowed path: a dimension enters at a variable's first use and is
    // existentially forgotten after its last one, so each closure runs over
    // the live window instead of the whole clause. Single constraint round:
    // on the wide clauses that reach this path the second round used to
    // cost more than the whole analysis budget.
    std::vector<size_t> VarAt(Total, NPOS);
    std::vector<size_t> Free;
    for (size_t D = Total; D-- > S;)
      Free.push_back(D);

    auto Ensure = [&](size_t V, const std::vector<size_t> &Cur) {
      if (DimOf[V] != NPOS)
        return;
      size_t D = NPOS;
      if (!Free.empty()) {
        D = Free.back();
        Free.pop_back();
      } else {
        // Window overflow: evict the occupant whose last use is farthest
        // away (never one the current step needs). Forgetting a dimension
        // only loses facts, so this stays sound.
        size_t BestLast = 0;
        for (size_t E = S; E < Total; ++E) {
          size_t W = VarAt[E];
          if (std::binary_search(Cur.begin(), Cur.end(), W))
            continue;
          if (D == NPOS || PP.LastUse[W] >= BestLast) {
            D = E;
            BestLast = PP.LastUse[W];
          }
        }
        if (D == NPOS)
          return; // every dimension pinned by this step; stay unresolved
        O.forget(D);
        DimOf[VarAt[D]] = NPOS;
      }
      VarAt[D] = V;
      DimOf[V] = D;
    };

    for (size_t T = 0; T < PP.Steps.size(); ++T) {
      const OctStepPlan &St = PP.Steps[T];
      for (size_t V : St.Vars)
        Ensure(V, St.Vars);
      if (!Apply(St))
        return std::nullopt;
      for (size_t V : St.Vars)
        if (PP.LastUse[V] == T && DimOf[V] != NPOS) {
          size_t D = DimOf[V];
          O.forget(D);
          VarAt[D] = NPOS;
          Free.push_back(D);
          DimOf[V] = NPOS;
        }
    }
  }

  std::vector<size_t> Slots(S);
  std::iota(Slots.begin(), Slots.end(), 0);
  Octagon Res = O.project(Slots);
  if (Res.isEmpty())
    return std::nullopt;
  return Res;
}

std::optional<OctagonDomain::Value>
OctagonDomain::transfer(const HornClause &C,
                        const std::vector<DomainPredState<Value>> &States)
    const {
  assert(Packs && "transfer needs the pack-aware constructor");
  for (const PredApp &App : C.Body)
    if (!States[App.Pred->Index].Reachable)
      return std::nullopt;

  std::unique_ptr<OctClausePlan> &Slot = Plans->Map[&C];
  if (!Slot)
    Slot = buildClausePlan(C, *Packs, PackOpts);
  const OctClausePlan &Plan = *Slot;

  Value Out = PackedOctagon::top(Packs->Preds[C.HeadPred->Pred->Index]);
  for (const OctPackPlan &PP : Plan.PackPlans) {
    size_t InHash = 0;
    if (Cache) {
      InHash = hashPackInputs(C, PP, States);
      auto It = Cache->Map.find({&C, PP.PackId});
      if (It != Cache->Map.end() && It->second.InHash == InHash) {
        ++Cache->Hits;
        if (!It->second.Feasible)
          return std::nullopt;
        if (PP.HasPack)
          Out.pack(PP.PackId) = It->second.Out;
        continue;
      }
      ++Cache->Misses;
    }
    std::optional<Octagon> R = transferPack(C, PP, States);
    // A transfer interrupted by cancellation is sound but not canonical;
    // never memoize it.
    if (Cache && !DomainCancelScope::cancelled())
      Cache->Map[{&C, PP.PackId}] =
          OctTransferCache::Entry{InHash, R.has_value(), R ? *R : Octagon()};
    if (!R)
      return std::nullopt;
    if (PP.HasPack)
      Out.pack(PP.PackId) = std::move(*R);
  }
  return Out;
}

bool OctagonDomain::join(Value &Into, const Value &From) const {
  Value Joined = Into.join(From);
  if (Joined == Into)
    return false;
  Into = std::move(Joined);
  return true;
}

void OctagonDomain::widen(Value &Into, const Value &Joined) const {
  Into = Into.widen(Joined);
}

bool OctagonDomain::narrow(Value &Into, const Value &Step) const {
  Value M = Into.meet(Step);
  if (M.isEmpty() || M == Into)
    return false;
  Into = std::move(M);
  return true;
}

const Term *OctagonDomain::toInvariant(TermManager &TM, const Predicate *P,
                                       const Value &V) const {
  if (V.isEmpty())
    return TM.mkFalse();
  std::vector<const Term *> Conj;
  for (size_t I = 0; I < V.numVars(); ++I) {
    Interval B = V.boundOf(I);
    if (B.hasLo())
      Conj.push_back(TM.mkGe(P->Params[I], TM.mkIntConst(B.lo())));
    if (B.hasHi())
      Conj.push_back(TM.mkLe(P->Params[I], TM.mkIntConst(B.hi())));
  }
  const PredPacks *L = V.layout();
  for (size_t K = 0; L && K < V.packCount(); ++K) {
    const std::vector<size_t> &Members = L->Packs[K];
    forEachRelationalFact(
        V.pack(K),
        [&](size_t I, int SI, size_t J, int SJ, const Rational &Bound) {
          const Term *TI =
              SI < 0 ? TM.mkNeg(P->Params[Members[I]]) : P->Params[Members[I]];
          const Term *TJ =
              SJ < 0 ? TM.mkNeg(P->Params[Members[J]]) : P->Params[Members[J]];
          Conj.push_back(TM.mkLe(TM.mkAdd(TI, TJ), TM.mkIntConst(Bound)));
        });
  }
  if (Conj.empty())
    return TM.mkTrue(); // unreachable behind the isTop gate
  return TM.mkAnd(std::move(Conj));
}

size_t OctagonDomain::relationalFactCount(const PackedOctagon &O) {
  if (O.isEmpty())
    return 0;
  size_t N = 0;
  for (size_t K = 0; K < O.packCount(); ++K)
    forEachRelationalFact(O.pack(K),
                          [&](size_t, int, size_t, int, const Rational &) {
                            ++N;
                          });
  return N;
}

std::vector<OctagonState>
analysis::runOctagonAnalysis(const AnalysisContext &Ctx,
                             FixpointTelemetry *Telemetry) {
  // The octagon strong closure polls the installed token (which carries the
  // analysis deadline) at its loop head, so a large DBM closure can stall
  // neither portfolio cancellation nor the analysis time budget.
  DomainCancelScope Scope(Ctx.Opts.Smt.Cancel);
  OctagonDomain Dom(Ctx.packs(), Ctx.Opts.Packs, &Ctx.OctXfer);
  return runDomainAnalysis(Dom, Ctx, Ctx.Opts.Octagons, Telemetry);
}

const Term *analysis::octagonInvariant(TermManager &TM, const Predicate *P,
                                       const OctagonState &State) {
  return domainInvariant(OctagonDomain(), TM, P, State);
}
