#ifndef CCDB_POLY_POLYNOMIAL_H_
#define CCDB_POLY_POLYNOMIAL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arith/interval.h"
#include "arith/rational.h"
#include "base/status.h"

namespace ccdb {

/// A power product x_0^{e_0} ... x_{n-1}^{e_{n-1}}. Variables are dense
/// indices; names live at the query-language layer.
///
/// Invariant: the exponent vector carries no trailing zeros, so equal
/// monomials have equal representations regardless of ambient dimension.
class Monomial {
 public:
  /// Constructs the empty product (the constant monomial 1).
  Monomial() = default;
  /// Constructs from raw exponents (trailing zeros are trimmed).
  explicit Monomial(std::vector<std::uint32_t> exponents);

  /// The monomial x_var^exponent.
  static Monomial Var(int var, std::uint32_t exponent = 1);

  bool is_one() const { return exponents_.empty(); }
  /// Exponent of x_var (0 when the monomial does not mention it).
  std::uint32_t exponent(int var) const;
  /// Largest variable index with a positive exponent, or -1 for the
  /// constant monomial.
  int max_var() const { return static_cast<int>(exponents_.size()) - 1; }
  std::uint32_t total_degree() const;

  Monomial operator*(const Monomial& other) const;
  /// Exact division; returns kInvalidArgument if some exponent would go
  /// negative.
  StatusOr<Monomial> Divide(const Monomial& other) const;
  bool Divides(const Monomial& into) const;

  /// Pointwise power.
  Monomial Pow(std::uint32_t exponent) const;

  /// Lexicographic order with higher variables more significant: this is a
  /// term order compatible with treating the highest variable as the CAD
  /// "main" variable.
  bool operator<(const Monomial& other) const;
  bool operator==(const Monomial& other) const {
    return exponents_ == other.exponents_;
  }
  bool operator!=(const Monomial& other) const { return !(*this == other); }

  std::string ToString(const std::vector<std::string>& names = {}) const;

 private:
  void Trim();
  std::vector<std::uint32_t> exponents_;
};

/// Occupancy of the process-wide polynomial intern pool (for REPL `.stats`
/// and bench node-count columns): entries currently pooled, including
/// unreferenced ones not yet swept.
struct PolyInternStats {
  std::size_t entries = 0;
};

/// Sparse multivariate polynomial over the rationals.
///
/// This is the atom type of the constraint model: a generalized tuple is a
/// conjunction of atoms "p(x) θ 0" with p a Polynomial (paper, Section 3).
/// The representation is a sorted term map, so iteration order (and thus
/// printing, hashing, and the QE algorithm's behaviour) is deterministic —
/// which the paper's finite-precision semantics requires ("imposing some
/// systematic choice", Section 4).
///
/// Polynomials are IMMUTABLE shared values: a Polynomial is a handle to a
/// refcounted term-map representation with an eagerly computed structural
/// hash, so copies are O(1) and equality is pointer comparison in the
/// common case (hash-guarded structural comparison otherwise). Canonical
/// construction points (atom canonicalization, CAD factor sets) intern the
/// representation into a process-wide pool via Interned(), after which
/// structurally equal polynomials share one representation.
class Polynomial {
 public:
  /// Constructs the zero polynomial.
  Polynomial();
  /// Implicit from a constant: arithmetic like p + 1 is pervasive.
  Polynomial(Rational constant);      // NOLINT
  Polynomial(std::int64_t constant);  // NOLINT

  /// The polynomial x_var.
  static Polynomial Var(int var);
  /// The polynomial c * m.
  static Polynomial Term(Rational coefficient, Monomial monomial);

  bool is_zero() const { return terms().empty(); }
  bool is_constant() const {
    return terms().empty() ||
           (terms().size() == 1 && terms().begin()->first.is_one());
  }
  /// Constant term value (the whole value when is_constant()).
  Rational constant_value() const;

  /// Number of terms.
  std::size_t term_count() const { return terms().size(); }
  /// Read-only access to the term map (sorted by monomial).
  const std::map<Monomial, Rational>& terms() const { return rep_->terms; }

  /// Largest variable index mentioned, or -1 for constants.
  int max_var() const;
  std::uint32_t TotalDegree() const;
  std::uint32_t DegreeIn(int var) const;
  /// True iff x_var appears.
  bool Mentions(int var) const { return DegreeIn(var) > 0; }

  Polynomial operator-() const;
  Polynomial operator+(const Polynomial& other) const;
  Polynomial operator-(const Polynomial& other) const;
  Polynomial operator*(const Polynomial& other) const;
  Polynomial& operator+=(const Polynomial& o) { return *this = *this + o; }
  Polynomial& operator-=(const Polynomial& o) { return *this = *this - o; }
  Polynomial& operator*=(const Polynomial& o) { return *this = *this * o; }

  Polynomial Scale(const Rational& factor) const;
  Polynomial Pow(std::uint32_t exponent) const;

  /// Partial derivative with respect to x_var.
  Polynomial Derivative(int var) const;

  /// Full evaluation; point must cover every mentioned variable.
  Rational Evaluate(const std::vector<Rational>& point) const;
  /// Substitutes x_var := value, returning a polynomial in the remaining
  /// variables.
  Polynomial Substitute(int var, const Rational& value) const;
  /// Substitutes x_var := replacement (polynomial composition).
  Polynomial SubstitutePoly(int var, const Polynomial& replacement) const;
  /// Renames variables: x_i becomes x_{mapping[i]}. mapping must cover
  /// max_var()+1 entries.
  Polynomial RenameVars(const std::vector<int>& mapping) const;

  /// Interval enclosure of the value over a box (monomial-wise; correct but
  /// not tight). `box` must cover every mentioned variable.
  Interval EvaluateInterval(const std::vector<Interval>& box) const;

  /// Dense coefficient list of this viewed as a univariate polynomial in
  /// x_var: result[i] is the coefficient (a polynomial not mentioning
  /// x_var) of x_var^i; size DegreeIn(var)+1 (a single zero for the zero
  /// polynomial).
  std::vector<Polynomial> CoefficientsIn(int var) const;
  /// Inverse of CoefficientsIn: sum coefficients[i] * x_var^i.
  static Polynomial FromCoefficientsIn(int var,
                                       const std::vector<Polynomial>& coeffs);
  /// Leading coefficient in x_var (constant polynomial if var is absent).
  Polynomial LeadingCoefficientIn(int var) const;

  /// Multiplies by the lcm of coefficient denominators and divides by the
  /// gcd of numerators, yielding the primitive integer-coefficient multiple
  /// with positive leading coefficient (in the term order). The result
  /// defines the same variety; *this == result * factor (factor is
  /// negative when the leading sign flipped).
  Polynomial IntegerNormalized(Rational* factor = nullptr) const;

  /// The canonical pooled instance of this polynomial: structurally equal
  /// polynomials returned by Interned() share one representation, so
  /// equality between them is a single pointer comparison. Thread-safe.
  /// A pool entry lives while any handle to it does; entries nobody else
  /// holds are swept out as the pool grows.
  Polynomial Interned() const;

  /// Largest coefficient bit length (numerator or denominator): the size
  /// measure of the paper's complexity bounds.
  std::uint64_t MaxCoefficientBitLength() const;

  /// Rough heap footprint of this polynomial (term-map nodes, exponent
  /// vectors, coefficient limbs). Used as the tracked-allocation unit for
  /// ResourceGovernor byte budgets; an estimate, not an exact accounting.
  std::size_t EstimateBytes() const;

  bool operator==(const Polynomial& other) const {
    if (rep_ == other.rep_) return true;
    if (rep_->hash != other.rep_->hash) return false;
    return rep_->terms == other.rep_->terms;
  }
  bool operator!=(const Polynomial& other) const { return !(*this == other); }
  /// Deterministic total order (for canonical sets of polynomials).
  bool operator<(const Polynomial& other) const;

  /// Structural hash, computed once at construction: O(1) to read.
  std::size_t Hash() const { return rep_->hash; }

  /// Human-readable rendering, e.g. "4*x^2 - y - 20*x + 25". Default names
  /// are x0, x1, ...; pass names to use query-level variable names.
  std::string ToString(const std::vector<std::string>& names = {}) const;

  /// Occupancy of the process-wide intern pool.
  static PolyInternStats InternStats();

 private:
  /// Immutable shared representation: the sorted term map plus its
  /// structural hash, computed once. `interned` marks representations that
  /// are the pooled canonical instance of their equivalence class.
  struct Rep {
    std::map<Monomial, Rational> terms;
    std::size_t hash = 0;
    mutable std::atomic<bool> interned{false};
  };
  struct Pool;

  explicit Polynomial(std::shared_ptr<const Rep> rep);
  /// The single construction funnel: hashes the term map and wraps it.
  static Polynomial FromTerms(std::map<Monomial, Rational> terms);

  std::shared_ptr<const Rep> rep_;  // never null; terms carry no zeros
};

std::ostream& operator<<(std::ostream& os, const Polynomial& p);

PolyInternStats GetPolyInternStats();

}  // namespace ccdb

#endif  // CCDB_POLY_POLYNOMIAL_H_
