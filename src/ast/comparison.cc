#include "ast/comparison.h"

#include <ostream>

namespace cqac {

std::string CompOpToString(CompOp op) {
  switch (op) {
    case CompOp::kLt:
      return "<";
    case CompOp::kLe:
      return "<=";
    case CompOp::kEq:
      return "=";
    case CompOp::kNe:
      return "!=";
    case CompOp::kGe:
      return ">=";
    case CompOp::kGt:
      return ">";
  }
  return "?";
}

CompOp FlipOp(CompOp op) {
  switch (op) {
    case CompOp::kLt:
      return CompOp::kGt;
    case CompOp::kLe:
      return CompOp::kGe;
    case CompOp::kEq:
      return CompOp::kEq;
    case CompOp::kNe:
      return CompOp::kNe;
    case CompOp::kGe:
      return CompOp::kLe;
    case CompOp::kGt:
      return CompOp::kLt;
  }
  return op;
}

CompOp NegateOp(CompOp op) {
  switch (op) {
    case CompOp::kLt:
      return CompOp::kGe;
    case CompOp::kLe:
      return CompOp::kGt;
    case CompOp::kEq:
      return CompOp::kNe;
    case CompOp::kNe:
      return CompOp::kEq;
    case CompOp::kGe:
      return CompOp::kLt;
    case CompOp::kGt:
      return CompOp::kLe;
  }
  return op;
}

bool IsOpenOp(CompOp op) { return op == CompOp::kLt || op == CompOp::kGt; }

bool EvalCompOp(const Rational& a, CompOp op, const Rational& b) {
  switch (op) {
    case CompOp::kLt:
      return a < b;
    case CompOp::kLe:
      return a <= b;
    case CompOp::kEq:
      return a == b;
    case CompOp::kNe:
      return a != b;
    case CompOp::kGe:
      return a >= b;
    case CompOp::kGt:
      return a > b;
  }
  return false;
}

std::string Comparison::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Comparison::AppendTo(std::string* out) const {
  lhs_.AppendTo(out);
  *out += ' ';
  *out += CompOpToString(op_);
  *out += ' ';
  rhs_.AppendTo(out);
}

std::ostream& operator<<(std::ostream& os, const Comparison& c) {
  return os << c.ToString();
}

}  // namespace cqac
