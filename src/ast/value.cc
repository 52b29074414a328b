#include "ast/value.h"

#include <cassert>
#include <cstdlib>
#include <numeric>
#include <ostream>

namespace cqac {

Rational::Rational(int64_t num, int64_t den) {
  assert(den != 0 && "Rational denominator must be nonzero");
  if (den < 0) {
    num = -num;
    den = -den;
  }
  const int64_t g = std::gcd(num < 0 ? -num : num, den);
  if (g > 1) {
    num /= g;
    den /= g;
  }
  num_ = num;
  den_ = den;
}

Rational Rational::operator+(const Rational& other) const {
  return Rational(num_ * other.den_ + other.num_ * den_, den_ * other.den_);
}

Rational Rational::operator-(const Rational& other) const {
  return *this + (-other);
}

Rational Rational::operator*(const Rational& other) const {
  return Rational(num_ * other.num_, den_ * other.den_);
}

Rational Rational::operator-() const {
  Rational r;
  r.num_ = -num_;
  r.den_ = den_;
  return r;
}

Rational Rational::MidpointWith(const Rational& other) const {
  return (*this + other) * Rational(1, 2);
}

bool operator<(const Rational& a, const Rational& b) {
  // Denominators are positive, so cross-multiplication preserves order.
  // Each product of two int64 values fits in 128 bits, so the comparison
  // is exact over the whole range.
  return static_cast<__int128>(a.num_) * b.den_ <
         static_cast<__int128>(b.num_) * a.den_;
}

std::string Rational::ToString() const {
  if (den_ == 1) return std::to_string(num_);
  return std::to_string(num_) + "/" + std::to_string(den_);
}

size_t Rational::Hash() const {
  size_t h = std::hash<int64_t>()(num_);
  h ^= std::hash<int64_t>()(den_) + 0x9e3779b97f4a7c15ULL + (h << 6) +
       (h >> 2);
  return h;
}

std::ostream& operator<<(std::ostream& os, const Rational& r) {
  return os << r.ToString();
}

}  // namespace cqac
