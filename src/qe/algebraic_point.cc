#include "qe/algebraic_point.h"

#include <algorithm>

#include "base/logging.h"
#include "poly/resultant.h"

namespace ccdb {

AlgebraicPoint AlgebraicPoint::Extended(AlgebraicNumber value) const {
  AlgebraicPoint result = *this;
  result.Append(std::move(value));
  return result;
}

bool AlgebraicPoint::AllRational() const {
  for (const AlgebraicNumber& c : coords_) {
    if (!c.is_rational()) return false;
  }
  return true;
}

std::vector<Rational> AlgebraicPoint::RationalCoords() const {
  std::vector<Rational> out;
  out.reserve(coords_.size());
  for (const AlgebraicNumber& c : coords_) out.push_back(c.rational_value());
  return out;
}

StatusOr<Polynomial> AlgebraicPoint::EliminateCoords(
    Polynomial q, int extra_var, const ResourceGovernor* gov) const {
  // Substitute rational coordinates exactly first (cheap, lowers degrees).
  for (int i = 0; i < dimension(); ++i) {
    if (coords_[i].is_rational() && q.Mentions(i)) {
      q = q.Substitute(i, coords_[i].rational_value());
    }
  }
  // Eliminate remaining algebraic coordinates by resultants with their
  // defining polynomials.
  for (int i = 0; i < dimension(); ++i) {
    if (coords_[i].is_rational() || !q.Mentions(i)) continue;
    CCDB_CHECK_BUDGET(gov, "cad.stack");
    Polynomial defining =
        coords_[i].defining_polynomial().ToPolynomial(i);
    CCDB_ASSIGN_OR_RETURN(q, Resultant(defining, q, i, gov));
    if (q.is_zero()) break;
  }
  // Now q mentions at most extra_var.
  CCDB_DCHECK(q.is_zero() || q.max_var() <= extra_var);
  (void)extra_var;
  return q;
}

Polynomial AlgebraicPoint::EliminateCoords(Polynomial q, int extra_var) const {
  auto result = EliminateCoords(std::move(q), extra_var, nullptr);
  CCDB_CHECK(result.ok());
  return *std::move(result);
}

Polynomial AlgebraicPoint::SubstituteRational(const Polynomial& p,
                                              int* algebraic_var,
                                              int* algebraic_count) const {
  CCDB_CHECK_MSG(p.max_var() < dimension(),
                 "polynomial mentions variables beyond the point dimension");
  Polynomial q = p;
  *algebraic_var = -1;
  *algebraic_count = 0;
  for (int i = 0; i < dimension(); ++i) {
    if (!q.Mentions(i)) continue;
    if (coords_[i].is_rational()) {
      q = q.Substitute(i, coords_[i].rational_value());
    } else {
      *algebraic_var = i;
      ++*algebraic_count;
    }
  }
  return q;
}

std::vector<Interval> AlgebraicPoint::Box(const Polynomial& q) const {
  std::vector<Interval> box(dimension(), Interval(Rational(0)));
  for (int i = 0; i < dimension(); ++i) {
    if (q.Mentions(i)) box[i] = coords_[i].isolating_interval();
  }
  return box;
}

int AlgebraicPoint::SignAt(const Polynomial& p, bool* exact) const {
  if (exact != nullptr) *exact = false;
  // Substitute rational coordinates; if at most one algebraic coordinate
  // remains, delegate to the univariate machinery.
  int algebraic_var = -1;
  int algebraic_count = 0;
  Polynomial q = SubstituteRational(p, &algebraic_var, &algebraic_count);
  if (q.is_constant()) return q.constant_value().sign();
  if (algebraic_count == 1) {
    auto u = UPoly::FromPolynomial(q, algebraic_var);
    CCDB_CHECK(u.ok());
    return coords_[algebraic_var].SignOfPolyAt(*u, exact);
  }
  // General path: one interval evaluation on the current coordinate
  // intervals, then exact identification. Refining blindly first cannot
  // certify a zero, which is the common ambiguous case.
  int sign = q.EvaluateInterval(Box(q)).CertainSign();
  if (sign != Interval::kAmbiguousSign) return sign;
  if (exact != nullptr) *exact = true;
  return ValueAt(p).Sign();
}

int AlgebraicPoint::NonzeroSignAt(const Polynomial& p) const {
  int algebraic_var = -1;
  int algebraic_count = 0;
  Polynomial q = SubstituteRational(p, &algebraic_var, &algebraic_count);
  if (q.is_constant()) return q.constant_value().sign();
  if (algebraic_count == 1) {
    auto u = UPoly::FromPolynomial(q, algebraic_var);
    CCDB_CHECK(u.ok());
    return coords_[algebraic_var].NonzeroSignOfPolyAt(*u);
  }
  // p(point) != 0, so halving every mentioned coordinate's interval makes
  // the enclosure's sign certain after finitely many rounds.
  while (true) {
    int sign = q.EvaluateInterval(Box(q)).CertainSign();
    if (sign != Interval::kAmbiguousSign) return sign;
    for (int i = 0; i < dimension(); ++i) {
      if (q.Mentions(i)) {
        coords_[i].RefineTo(coords_[i].isolating_interval().Width() *
                            Rational(BigInt(1), BigInt(2)));
      }
    }
  }
}

AlgebraicNumber AlgebraicPoint::ValueAt(const Polynomial& p) const {
  CCDB_CHECK(p.max_var() < dimension());
  // T(z) = iterated resultant eliminating every coordinate from z - p; the
  // value p(point) is among the real roots of T.
  int z_var = dimension();
  Polynomial z_minus_p = Polynomial::Var(z_var) - p;
  Polynomial t = EliminateCoords(std::move(z_minus_p), z_var);
  CCDB_CHECK_MSG(!t.is_zero(),
                 "iterated resultant vanished identically in ValueAt");
  auto t_upoly = UPoly::FromPolynomial(t, z_var);
  CCDB_CHECK(t_upoly.ok());
  std::vector<AlgebraicNumber> candidates = AlgebraicNumber::RootsOf(*t_upoly);
  CCDB_CHECK_MSG(!candidates.empty(), "candidate set empty in ValueAt");
  if (candidates.size() == 1) return candidates[0];

  // Identify the true value by shrinking the enclosure of p(point) until it
  // meets exactly one candidate's isolating interval.
  std::vector<Interval> box(dimension(), Interval(Rational(0)));
  Rational shrink(BigInt(1), BigInt(4));
  while (true) {
    for (int i = 0; i < dimension(); ++i) {
      box[i] = coords_[i].isolating_interval();
    }
    Interval value = p.EvaluateInterval(box);
    // Refine candidates away from the value enclosure.
    int hits = 0;
    std::size_t hit_index = 0;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (candidates[c].isolating_interval().Intersects(value)) {
        ++hits;
        hit_index = c;
      }
    }
    if (hits == 1) return candidates[hit_index];
    // Shrink both the point coordinates and the candidate intervals.
    for (int i = 0; i < dimension(); ++i) {
      if (p.Mentions(i) && !coords_[i].is_rational()) {
        coords_[i].RefineTo(coords_[i].isolating_interval().Width() * shrink);
      }
    }
    for (AlgebraicNumber& c : candidates) {
      c.RefineTo(c.isolating_interval().Width() * shrink);
    }
  }
}

StatusOr<std::vector<AlgebraicNumber>> AlgebraicPoint::StackRoots(
    const Polynomial& p, const ResourceGovernor* gov) const {
  int y_var = dimension();
  CCDB_CHECK_MSG(p.max_var() <= y_var,
                 "stack polynomial mentions variables beyond the next level");
  CCDB_CHECK_MSG(p.Mentions(y_var), "stack polynomial must mention the stack variable");

  // Fast path: all coordinates rational.
  if (AllRational()) {
    Polynomial q = p;
    for (int i = 0; i < dimension(); ++i) {
      if (q.Mentions(i)) q = q.Substitute(i, coords_[i].rational_value());
    }
    if (q.is_constant()) {
      if (q.is_zero()) {
        return Status::InvalidArgument(
            "polynomial vanishes identically over the stack");
      }
      return std::vector<AlgebraicNumber>{};
    }
    auto u = UPoly::FromPolynomial(q, y_var);
    CCDB_CHECK(u.ok());
    return AlgebraicNumber::RootsOf(*u, gov);
  }

  // Trim leading coefficients (in y) that vanish at the point to expose the
  // effective degree.
  std::vector<Polynomial> coeffs = p.CoefficientsIn(y_var);
  int effective_degree = static_cast<int>(coeffs.size()) - 1;
  while (effective_degree >= 0 &&
         SignAt(coeffs[effective_degree]) == 0) {
    --effective_degree;
  }
  if (effective_degree < 0) {
    return Status::InvalidArgument(
        "polynomial vanishes identically over the stack");
  }
  if (effective_degree == 0) return std::vector<AlgebraicNumber>{};
  std::vector<Polynomial> trimmed(coeffs.begin(),
                                  coeffs.begin() + effective_degree + 1);
  Polynomial effective = Polynomial::FromCoefficientsIn(y_var, trimmed);

  // Candidate roots: real roots of the iterated resultant.
  CCDB_ASSIGN_OR_RETURN(Polynomial r,
                        EliminateCoords(effective, y_var, gov));
  if (r.is_zero()) {
    return Status::NumericalFailure(
        "degenerate lifting: candidate resultant vanished identically");
  }
  auto r_upoly = UPoly::FromPolynomial(r, y_var);
  CCDB_CHECK(r_upoly.ok());
  CCDB_ASSIGN_OR_RETURN(std::vector<AlgebraicNumber> candidates,
                        AlgebraicNumber::RootsOf(*r_upoly, gov));

  // Keep exactly the candidates where p(point, candidate) == 0, tested
  // exactly via the extended point.
  std::vector<AlgebraicNumber> roots;
  for (AlgebraicNumber& candidate : candidates) {
    CCDB_CHECK_BUDGET(gov, "cad.stack");
    AlgebraicPoint extended = Extended(candidate);
    if (extended.SignAt(effective) == 0) {
      roots.push_back(std::move(candidate));
    }
  }
  return roots;
}

std::vector<Rational> AlgebraicPoint::Approximate(
    const Rational& epsilon) const {
  std::vector<Rational> out;
  out.reserve(coords_.size());
  for (const AlgebraicNumber& c : coords_) {
    out.push_back(c.Approximate(epsilon));
  }
  return out;
}

std::string AlgebraicPoint::ToString() const {
  std::string out = "(";
  for (std::size_t i = 0; i < coords_.size(); ++i) {
    if (i > 0) out += ", ";
    out += coords_[i].ToString();
  }
  return out + ")";
}

}  // namespace ccdb
