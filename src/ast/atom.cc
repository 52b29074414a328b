#include "ast/atom.h"

#include <ostream>

namespace cqac {

std::string Atom::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Atom::AppendTo(std::string* out) const {
  *out += predicate_;
  *out += '(';
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) *out += ',';
    args_[i].AppendTo(out);
  }
  *out += ')';
}

size_t Atom::Hash() const {
  size_t h = std::hash<std::string>()(predicate_);
  for (const Term& t : args_) {
    h ^= t.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

std::ostream& operator<<(std::ostream& os, const Atom& a) {
  return os << a.ToString();
}

}  // namespace cqac
