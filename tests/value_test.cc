#include "ast/value.h"

#include <set>
#include <unordered_set>

#include "gtest/gtest.h"

namespace cqac {
namespace {

TEST(RationalTest, DefaultIsZero) {
  Rational r;
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
  EXPECT_TRUE(r.IsInteger());
}

TEST(RationalTest, IntegerConstruction) {
  Rational r(7);
  EXPECT_EQ(r.num(), 7);
  EXPECT_EQ(r.den(), 1);
  EXPECT_TRUE(r.IsInteger());
}

TEST(RationalTest, NormalizesToLowestTerms) {
  Rational r(6, 4);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 2);
  EXPECT_FALSE(r.IsInteger());
}

TEST(RationalTest, NormalizesSignToDenominatorPositive) {
  Rational r(3, -6);
  EXPECT_EQ(r.num(), -1);
  EXPECT_EQ(r.den(), 2);
}

TEST(RationalTest, NegativeOverNegativeIsPositive) {
  Rational r(-4, -8);
  EXPECT_EQ(r.num(), 1);
  EXPECT_EQ(r.den(), 2);
}

TEST(RationalTest, ZeroNormalizes) {
  Rational r(0, 17);
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
}

TEST(RationalTest, EqualityIgnoresRepresentation) {
  EXPECT_EQ(Rational(1, 2), Rational(2, 4));
  EXPECT_NE(Rational(1, 2), Rational(1, 3));
}

TEST(RationalTest, OrderingBasics) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1), Rational(0));
  EXPECT_LE(Rational(5), Rational(5));
  EXPECT_GT(Rational(7, 2), Rational(3));
  EXPECT_GE(Rational(3), Rational(3));
  EXPECT_FALSE(Rational(2) < Rational(2));
}

TEST(RationalTest, OrderingIsExactNearInt64Limits) {
  // Cross-multiplying these in 64 bits overflows; the order must still be
  // exact.  INT64_MAX is odd, so INT64_MAX/2 stays a proper fraction.
  constexpr int64_t kMax = INT64_MAX;
  EXPECT_LT(Rational(kMax, 2), Rational(kMax - 1));
  EXPECT_GT(Rational(kMax - 1), Rational(kMax, 2));
  EXPECT_LT(Rational(-(kMax - 1)), Rational(-kMax, 2));
  // (M-1)/M vs (M-2)/(M-1): the cross products differ by exactly 1.
  EXPECT_GT(Rational(kMax - 1, kMax), Rational(kMax - 2, kMax - 1));
  EXPECT_FALSE(Rational(kMax, 3) < Rational(kMax, 3));
}

TEST(RationalTest, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(-Rational(1, 2), Rational(-1, 2));
}

TEST(RationalTest, MidpointIsStrictlyBetween) {
  const Rational a(1);
  const Rational b(2);
  const Rational m = a.MidpointWith(b);
  EXPECT_LT(a, m);
  EXPECT_LT(m, b);
  EXPECT_EQ(m, Rational(3, 2));
}

TEST(RationalTest, MidpointOfEqualValuesIsThatValue) {
  const Rational a(5, 3);
  EXPECT_EQ(a.MidpointWith(a), a);
}

TEST(RationalTest, MidpointDensitySweep) {
  // Repeated midpoints stay strictly ordered: the domain is dense.
  Rational lo(0);
  Rational hi(1);
  for (int i = 0; i < 20; ++i) {
    const Rational mid = lo.MidpointWith(hi);
    ASSERT_LT(lo, mid);
    ASSERT_LT(mid, hi);
    hi = mid;
  }
}

TEST(RationalTest, ToStringIntegers) {
  EXPECT_EQ(Rational(5).ToString(), "5");
  EXPECT_EQ(Rational(-3).ToString(), "-3");
  EXPECT_EQ(Rational().ToString(), "0");
}

TEST(RationalTest, ToStringFractions) {
  EXPECT_EQ(Rational(1, 2).ToString(), "1/2");
  EXPECT_EQ(Rational(-7, 3).ToString(), "-7/3");
}

TEST(RationalTest, HashConsistentWithEquality) {
  EXPECT_EQ(Rational(2, 4).Hash(), Rational(1, 2).Hash());
  std::unordered_set<Rational> set;
  set.insert(Rational(1, 2));
  set.insert(Rational(2, 4));
  EXPECT_EQ(set.size(), 1u);
}

TEST(RationalTest, UsableInOrderedSet) {
  std::set<Rational> set;
  set.insert(Rational(3));
  set.insert(Rational(1, 2));
  set.insert(Rational(3));
  set.insert(Rational(-1));
  ASSERT_EQ(set.size(), 3u);
  auto it = set.begin();
  EXPECT_EQ(*it++, Rational(-1));
  EXPECT_EQ(*it++, Rational(1, 2));
  EXPECT_EQ(*it++, Rational(3));
}

}  // namespace
}  // namespace cqac
