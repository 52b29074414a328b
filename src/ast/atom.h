#ifndef CQAC_AST_ATOM_H_
#define CQAC_AST_ATOM_H_

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "ast/term.h"

namespace cqac {

/// An ordinary (relational) atom `p(t1, ..., tn)`: a predicate name applied
/// to a list of terms.  Used both for query heads and body subgoals.
class Atom {
 public:
  Atom() = default;
  Atom(std::string predicate, std::vector<Term> args)
      : predicate_(std::move(predicate)), args_(std::move(args)) {}

  const std::string& predicate() const { return predicate_; }
  const std::vector<Term>& args() const { return args_; }
  std::vector<Term>& mutable_args() { return args_; }
  int arity() const { return static_cast<int>(args_.size()); }

  friend bool operator==(const Atom& a, const Atom& b) {
    return a.predicate_ == b.predicate_ && a.args_ == b.args_;
  }
  friend bool operator!=(const Atom& a, const Atom& b) { return !(a == b); }
  friend bool operator<(const Atom& a, const Atom& b) {
    if (a.predicate_ != b.predicate_) return a.predicate_ < b.predicate_;
    return a.args_ < b.args_;
  }

  /// Renders as `p(t1,...,tn)`.
  std::string ToString() const;

  /// Appends ToString() to `*out`, building no intermediate strings.
  void AppendTo(std::string* out) const;

  /// Hash compatible with `operator==`.
  size_t Hash() const;

 private:
  std::string predicate_;
  std::vector<Term> args_;
};

std::ostream& operator<<(std::ostream& os, const Atom& a);

}  // namespace cqac

template <>
struct std::hash<cqac::Atom> {
  size_t operator()(const cqac::Atom& a) const { return a.Hash(); }
};

#endif  // CQAC_AST_ATOM_H_
