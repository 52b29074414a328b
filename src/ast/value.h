#ifndef CQAC_AST_VALUE_H_
#define CQAC_AST_VALUE_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

namespace cqac {

/// An exact rational number with 64-bit numerator and denominator.
///
/// Arithmetic comparisons in CQACs range over an infinite, totally and
/// densely ordered domain (the paper fixes the rationals).  Canonical
/// databases need values *strictly between* any two adjacent constants, so
/// integers are not enough; exact rationals avoid the rounding pitfalls of
/// floating point when constants are close together.
///
/// The representation is always normalized: `den > 0` and
/// `gcd(|num|, den) == 1`.  Ordering is exact over the whole 64-bit range
/// (it cross-multiplies in 128 bits).  Arithmetic is not checked: the
/// algorithms only ever take midpoints and +/-1 around query constants, so
/// overflow there is left to the caller.
class Rational {
 public:
  /// Zero.
  constexpr Rational() : num_(0), den_(1) {}

  /// The integer `n`.
  constexpr explicit Rational(int64_t n) : num_(n), den_(1) {}

  /// The fraction `num/den`; normalizes sign and reduces to lowest terms.
  /// `den` must be nonzero.
  Rational(int64_t num, int64_t den);

  int64_t num() const { return num_; }
  int64_t den() const { return den_; }

  /// True when the value is an integer.
  bool IsInteger() const { return den_ == 1; }

  Rational operator+(const Rational& other) const;
  Rational operator-(const Rational& other) const;
  Rational operator*(const Rational& other) const;
  Rational operator-() const;

  /// The arithmetic mean of this value and `other`; by density it lies
  /// strictly between them whenever they differ.
  Rational MidpointWith(const Rational& other) const;

  friend bool operator==(const Rational& a, const Rational& b) {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend bool operator!=(const Rational& a, const Rational& b) {
    return !(a == b);
  }
  friend bool operator<(const Rational& a, const Rational& b);
  friend bool operator<=(const Rational& a, const Rational& b) {
    return a < b || a == b;
  }
  friend bool operator>(const Rational& a, const Rational& b) { return b < a; }
  friend bool operator>=(const Rational& a, const Rational& b) {
    return b <= a;
  }

  /// Renders as `num` for integers and `num/den` otherwise.
  std::string ToString() const;

  template <typename H>
  friend H AbslHashValue(H h, const Rational& r) {
    return H::combine(std::move(h), r.num_, r.den_);
  }

  /// Hash compatible with `operator==`.
  size_t Hash() const;

 private:
  int64_t num_;
  int64_t den_;
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

}  // namespace cqac

template <>
struct std::hash<cqac::Rational> {
  size_t operator()(const cqac::Rational& r) const { return r.Hash(); }
};

#endif  // CQAC_AST_VALUE_H_
