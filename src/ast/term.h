#ifndef CQAC_AST_TERM_H_
#define CQAC_AST_TERM_H_

#include <functional>
#include <iosfwd>
#include <string>
#include <utility>

#include "ast/value.h"

namespace cqac {

/// An argument position in an atom or a side of an arithmetic comparison:
/// either a variable (named, starting with an upper-case letter by the
/// paper's convention) or a rational constant.
///
/// Terms are small value types; copy freely.
class Term {
 public:
  /// Default-constructs the constant 0.  Needed for containers; prefer the
  /// named factories below.
  Term() : is_variable_(false), constant_(0) {}

  /// A variable with the given name.
  static Term Variable(std::string name) {
    Term t;
    t.is_variable_ = true;
    t.name_ = std::move(name);
    return t;
  }

  /// A rational constant.
  static Term Constant(Rational value) {
    Term t;
    t.is_variable_ = false;
    t.constant_ = value;
    return t;
  }

  /// An integer constant.
  static Term Constant(int64_t value) { return Constant(Rational(value)); }

  bool IsVariable() const { return is_variable_; }
  bool IsConstant() const { return !is_variable_; }

  /// The variable name; only meaningful when `IsVariable()`.
  const std::string& name() const { return name_; }

  /// The constant value; only meaningful when `IsConstant()`.
  const Rational& value() const { return constant_; }

  friend bool operator==(const Term& a, const Term& b) {
    if (a.is_variable_ != b.is_variable_) return false;
    return a.is_variable_ ? a.name_ == b.name_ : a.constant_ == b.constant_;
  }
  friend bool operator!=(const Term& a, const Term& b) { return !(a == b); }

  /// Arbitrary-but-total order so terms can key ordered containers.
  friend bool operator<(const Term& a, const Term& b) {
    if (a.is_variable_ != b.is_variable_) return a.is_variable_;
    if (a.is_variable_) return a.name_ < b.name_;
    if (a.constant_ == b.constant_) return false;
    return a.constant_ < b.constant_;
  }

  /// Renders the variable name or the constant value.
  std::string ToString() const {
    return is_variable_ ? name_ : constant_.ToString();
  }

  /// Appends ToString() to `*out`.
  void AppendTo(std::string* out) const {
    if (is_variable_) {
      *out += name_;
    } else {
      *out += constant_.ToString();
    }
  }

  /// Hash compatible with `operator==`.  The variable/constant tag is
  /// mixed in with a splitmix-style combine rather than a plain xor, so a
  /// variable and a constant whose underlying hashes collide still spread
  /// apart, and low-entropy string hashes get diffused.
  size_t Hash() const {
    size_t h = is_variable_ ? std::hash<std::string>()(name_)
                            : constant_.Hash();
    h += is_variable_ ? 0x9e3779b97f4a7c15ULL : 0x517cc1b726220a95ULL;
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    return h;
  }

 private:
  bool is_variable_;
  std::string name_;
  Rational constant_;
};

std::ostream& operator<<(std::ostream& os, const Term& t);

}  // namespace cqac

template <>
struct std::hash<cqac::Term> {
  size_t operator()(const cqac::Term& t) const { return t.Hash(); }
};

#endif  // CQAC_AST_TERM_H_
