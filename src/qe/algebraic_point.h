#ifndef CCDB_QE_ALGEBRAIC_POINT_H_
#define CCDB_QE_ALGEBRAIC_POINT_H_

#include <vector>

#include "base/resource.h"
#include "base/status.h"
#include "poly/algebraic_number.h"
#include "poly/polynomial.h"

namespace ccdb {

/// A point in R^k whose coordinates are real algebraic numbers, with exact
/// multivariate sign evaluation. This is the sample-point machinery of the
/// CAD algorithm ("for each cell, sample points are exhibited to be able to
/// check the value of the polynomials on the sample points" — paper,
/// Appendix I).
///
/// The key primitive is ValueAt: q(alpha_1,...,alpha_k) is itself a real
/// algebraic number, obtained by eliminating each coordinate's defining
/// polynomial from z - q via iterated resultants; the true value is then
/// identified among the candidate roots by interval refinement. This gives
/// exact sign queries (and exact stack construction) over sample points of
/// ANY level, without nested field extensions.
class AlgebraicPoint {
 public:
  AlgebraicPoint() = default;

  int dimension() const { return static_cast<int>(coords_.size()); }
  const std::vector<AlgebraicNumber>& coords() const { return coords_; }
  const AlgebraicNumber& coord(int i) const { return coords_[i]; }

  /// Extends the point with one more coordinate (variable index
  /// dimension()).
  void Append(AlgebraicNumber value) { coords_.push_back(std::move(value)); }
  /// A copy extended by one coordinate.
  AlgebraicPoint Extended(AlgebraicNumber value) const;

  /// True iff every coordinate is (represented as) rational.
  bool AllRational() const;
  /// The rational coordinates; requires AllRational().
  std::vector<Rational> RationalCoords() const;

  /// Exact sign of p at this point. p may mention variables 0..dim-1 only.
  /// One interval evaluation on the current coordinate intervals decides
  /// most calls; only when it straddles 0 does an exact step decide (the
  /// gcd zero test for one algebraic coordinate, ValueAt for more).
  /// `exact`, when non-null, is set to whether that exact step ran. A
  /// non-null `gov` is charged in ValueAt and turns a budget trip into
  /// kResourceExhausted; ungoverned, the call cannot fail.
  StatusOr<int> SignAt(const Polynomial& p, const ResourceGovernor* gov,
                       bool* exact = nullptr) const;
  /// Ungoverned SignAt.
  int SignAt(const Polynomial& p, bool* exact = nullptr) const;

  /// Sign of p at this point when p is already known not to vanish there
  /// (for example because the lifting proved it): refines the mentioned
  /// coordinates until the interval enclosure of p has a certain sign.
  /// Never runs an exact step; loops forever if p does vanish.
  int NonzeroSignAt(const Polynomial& p) const;

  /// Exact value of p at this point as an algebraic number. The iterated
  /// resultant and the root isolation of its candidates charge a non-null
  /// `gov`.
  StatusOr<AlgebraicNumber> ValueAt(const Polynomial& p,
                                    const ResourceGovernor* gov) const;
  /// Ungoverned ValueAt.
  AlgebraicNumber ValueAt(const Polynomial& p) const;

  /// The distinct real roots of y -> p(point, y) in increasing order, where
  /// y is the variable with index dimension(). Each root is returned as an
  /// algebraic number over Q (via the iterated-resultant candidate set).
  /// Fails with kNumericalFailure in the degenerate case where the
  /// candidate resultant vanishes identically, and with kInvalidArgument
  /// when p vanishes identically over the stack. A non-null `gov` is
  /// charged during root isolation, the exact sign steps and candidate
  /// filtering and turns budget trips into kResourceExhausted.
  StatusOr<std::vector<AlgebraicNumber>> StackRoots(
      const Polynomial& p, const ResourceGovernor* gov = nullptr) const;

  /// Rational approximations of all coordinates within epsilon.
  std::vector<Rational> Approximate(const Rational& epsilon) const;

  std::string ToString() const;

 private:
  // Eliminates all non-rational coordinates from q (rational coordinates
  // are substituted exactly). Variable `extra_var`, if >= 0, is kept.
  // Returns a polynomial mentioning only extra_var (or a constant). The
  // iterated resultants charge `gov` when non-null.
  StatusOr<Polynomial> EliminateCoords(Polynomial q, int extra_var,
                                       const ResourceGovernor* gov) const;
  // Substitutes the rational coordinates into p. Sets *algebraic_var to a
  // remaining algebraic coordinate p mentions (or -1) and returns how many
  // such coordinates there are.
  Polynomial SubstituteRational(const Polynomial& p, int* algebraic_var,
                                int* algebraic_count) const;
  // The current isolating intervals of the coordinates q mentions (other
  // entries 0).
  std::vector<Interval> Box(const Polynomial& q) const;

  std::vector<AlgebraicNumber> coords_;
};

}  // namespace ccdb

#endif  // CCDB_QE_ALGEBRAIC_POINT_H_
