//===- smtlib2/Parser.h - Strict SMT-LIB2 HORN front end --------*- C++ -*-===//
//
// Part of the LinearArbitrary reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one SMT-LIB2 (HORN) reader, used by the façade, the CLI driver, the
/// solver daemon, the benches and the tests: a strict, sort-checked
/// translation from the CHC-COMP exchange format into `chc::ChcSystem`,
/// with precise line:column diagnostics. It provides
///
///   * logic gating: `(set-logic L)` with any `L` other than `HORN` is
///     rejected; unsupported sorts (`Real`, arrays, bit-vectors, parametric
///     sorts) are rejected at their source location;
///   * scoping: quantifier and `let` binders shadow correctly, free symbols
///     that were never declared are errors;
///   * `Bool` alongside `Int`: Bool-sorted binders, constants and predicate
///     arguments are translated into the core integer term language by a
///     0/1 encoding (a Bool value `b` becomes an Int variable constrained
///     to `(or (= b 0) (= b 1))`; its formula reading is `(= b 1)`);
///   * `let` bindings, `(! t :annotations)`, chained comparisons, `xor`,
///     Bool equality, and `ite`/`div` lowered via fresh variables and
///     clause-local side constraints;
///   * the Z3 fixedpoint dialect (`declare-rel` / `declare-var` / `rule` /
///     `query`) accepted in the same run, so one front end serves both
///     styles.
///
/// The grammar subset is documented in DESIGN.md §14.
///
//===----------------------------------------------------------------------===//

#ifndef LA_SMTLIB2_PARSER_H
#define LA_SMTLIB2_PARSER_H

#include "chc/Chc.h"

#include <string>

namespace la::smtlib2 {

/// Configuration of one parse.
struct ParseOptions {
  /// When nonempty, diagnostics are prefixed "<Filename>:line:col: ...";
  /// otherwise "line N, col M: ...".
  std::string Filename;
};

/// Outcome of a parse. On failure `Line`/`Col` locate the offending token
/// and `Message` describes the problem; `error()` renders both.
struct ParseResult {
  bool Ok = true;
  std::string Message;
  size_t Line = 0;
  size_t Col = 0;
  /// True when the input contained `(check-sat)` (CHC-COMP files do).
  bool SawCheckSat = false;
  /// True when the input contained `(set-logic HORN)`.
  bool SawLogic = false;

  /// The located diagnostic ("file.smt2:3:14: unsupported sort 'Real'").
  std::string error(const ParseOptions &Opts = {}) const;
};

/// Parses \p Text into \p Out (which must be an empty system). On error the
/// system may be partially populated and should be discarded.
ParseResult parseSmtLib2(const std::string &Text, chc::ChcSystem &Out,
                         const ParseOptions &Opts = {});

} // namespace la::smtlib2

#endif // LA_SMTLIB2_PARSER_H
