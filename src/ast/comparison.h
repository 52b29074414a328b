#ifndef CQAC_AST_COMPARISON_H_
#define CQAC_AST_COMPARISON_H_

#include <iosfwd>
#include <string>

#include "ast/term.h"

namespace cqac {

/// The comparison operator of an arithmetic-comparison subgoal.
///
/// The paper's rewriting language uses `<, <=, =, >=, >` ("open" operators
/// are `<`/`>`, "closed" ones `<=`/`>=`).  `!=` is additionally supported by
/// the constraint solver because negating `=` during refutation-style
/// implication checks produces it.
enum class CompOp {
  kLt,   // <
  kLe,   // <=
  kEq,   // =
  kNe,   // !=
  kGe,   // >=
  kGt,   // >
};

/// The textual form of `op` (`"<"`, `"<="`, ...).
std::string CompOpToString(CompOp op);

/// The operator with sides swapped: `a op b` iff `b Flip(op) a`.
CompOp FlipOp(CompOp op);

/// The logical negation: `a op b` iff NOT `a Negate(op) b`.
CompOp NegateOp(CompOp op);

/// True for `<` and `>` (the paper's "open" comparisons).
bool IsOpenOp(CompOp op);

/// Evaluates `a op b` on concrete rational values.
bool EvalCompOp(const Rational& a, CompOp op, const Rational& b);

/// An arithmetic-comparison subgoal `lhs op rhs` where each side is a
/// variable or a rational constant.
class Comparison {
 public:
  Comparison() : op_(CompOp::kEq) {}
  Comparison(Term lhs, CompOp op, Term rhs)
      : lhs_(std::move(lhs)), op_(op), rhs_(std::move(rhs)) {}

  const Term& lhs() const { return lhs_; }
  CompOp op() const { return op_; }
  const Term& rhs() const { return rhs_; }

  /// The same constraint with sides swapped (`X < 5` becomes `5 > X`).
  Comparison Flipped() const { return Comparison(rhs_, FlipOp(op_), lhs_); }

  /// The logical negation (`X < 5` becomes `X >= 5`).
  Comparison Negated() const { return Comparison(lhs_, NegateOp(op_), rhs_); }

  friend bool operator==(const Comparison& a, const Comparison& b) {
    return a.op_ == b.op_ && a.lhs_ == b.lhs_ && a.rhs_ == b.rhs_;
  }
  friend bool operator!=(const Comparison& a, const Comparison& b) {
    return !(a == b);
  }
  friend bool operator<(const Comparison& a, const Comparison& b) {
    if (a.lhs_ != b.lhs_) return a.lhs_ < b.lhs_;
    if (a.op_ != b.op_) return a.op_ < b.op_;
    return a.rhs_ < b.rhs_;
  }

  /// Renders as `lhs op rhs`, e.g. `X <= 7`.
  std::string ToString() const;

  /// Appends ToString() to `*out`, building no intermediate strings.
  void AppendTo(std::string* out) const;

 private:
  Term lhs_;
  CompOp op_;
  Term rhs_;
};

std::ostream& operator<<(std::ostream& os, const Comparison& c);

}  // namespace cqac

#endif  // CQAC_AST_COMPARISON_H_
