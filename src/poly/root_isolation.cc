#include "poly/root_isolation.h"

#include <algorithm>
#include <deque>

#include "base/logging.h"

namespace ccdb {

namespace {

// One root of squarefree p lies in the open interval (lo, hi) with
// p(lo) != 0 != p(hi); bisect until the width is below `width`.
Interval BisectToWidth(const UPoly& p, Rational lo, Rational hi,
                       const Rational& width, bool* became_exact) {
  *became_exact = false;
  int sign_lo = p.Evaluate(lo).sign();
  CCDB_DCHECK(sign_lo != 0);
  while (hi - lo > width) {
    Rational mid = Rational::Midpoint(lo, hi);
    int sign_mid = p.Evaluate(mid).sign();
    if (sign_mid == 0) {
      *became_exact = true;
      return Interval(mid);
    }
    if (sign_mid == sign_lo) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return Interval(std::move(lo), std::move(hi));
}

// If the unique root of f in the open interval (lo, hi) is rational,
// identifies it exactly. f must be squarefree with f(lo), f(hi) != 0. Uses
// the rational root theorem on the integer-normalized polynomial: a root
// p/q (lowest terms) has q | lc and lands in (q*lo, q*hi) — after a little
// refinement only a handful of candidates remain per divisor.
bool TrySnapRationalRoot(const UPoly& f, Rational* lo, Rational* hi,
                         Rational* root) {
  // Integer-normalize: scale coefficients to integers.
  BigInt den_lcm(1);
  for (const Rational& c : f.coefficients()) {
    const BigInt& d = c.denominator();
    den_lcm = den_lcm / BigInt::Gcd(den_lcm, d) * d;
  }
  std::vector<Rational> scaled;
  scaled.reserve(f.coefficients().size());
  for (const Rational& c : f.coefficients()) {
    scaled.push_back(c * Rational(den_lcm));
  }
  UPoly g(std::move(scaled));
  BigInt lc = g.leading_coefficient().numerator().Abs();
  if (lc.bit_length() > 20) return false;  // divisor enumeration too costly
  std::int64_t lc_value = lc.ToInt64();

  // Refine until each divisor q admits at most one integer candidate p in
  // (q*lo, q*hi): width < 1/(2*lc) suffices for every q <= lc.
  Rational target_width(BigInt(1), BigInt(2 * lc_value));
  int sign_lo = f.Evaluate(*lo).sign();
  while (*hi - *lo > target_width) {
    Rational mid = Rational::Midpoint(*lo, *hi);
    int sign_mid = f.Evaluate(mid).sign();
    if (sign_mid == 0) {
      *root = mid;
      return true;
    }
    if (sign_mid == sign_lo) {
      *lo = mid;
    } else {
      *hi = mid;
    }
  }
  // Divisors of lc via trial division (lc < 2^20, so <= 2^10 iterations).
  std::vector<std::int64_t> divisors;
  for (std::int64_t i = 1; i * i <= lc_value; ++i) {
    if (lc_value % i != 0) continue;
    divisors.push_back(i);
    if (i != lc_value / i) divisors.push_back(lc_value / i);
  }
  for (std::int64_t q : divisors) {
    Rational q_rational(q);
    BigInt p_lo = (*lo * q_rational).Floor();
    BigInt p_hi = (*hi * q_rational).Ceil();
    for (BigInt p = p_lo; p <= p_hi; p += BigInt(1)) {
      Rational candidate(p, BigInt(q));
      if (!(candidate > *lo && candidate < *hi)) continue;
      if (f.Evaluate(candidate).is_zero()) {
        *root = candidate;
        return true;
      }
    }
  }
  return false;
}

}  // namespace

std::vector<IsolatedRoot> IsolateRealRoots(const UPoly& p) {
  auto roots = IsolateRealRoots(p, nullptr);
  CCDB_CHECK(roots.ok());  // a null governor never trips
  return *std::move(roots);
}

StatusOr<std::vector<IsolatedRoot>> IsolateRealRoots(
    const UPoly& p, const ResourceGovernor* gov) {
  CCDB_CHECK_MSG(!p.is_zero(), "cannot isolate roots of the zero polynomial");
  return IsolateSquarefreeRealRoots(p.SquarefreePart(), gov);
}

StatusOr<std::vector<IsolatedRoot>> IsolateSquarefreeRealRoots(
    const UPoly& f, const ResourceGovernor* gov) {
  std::vector<IsolatedRoot> roots;
  CCDB_CHECK_MSG(!f.is_zero(), "cannot isolate roots of the zero polynomial");
  if (f.degree() <= 0) return roots;
  if (f.degree() == 1) {
    // Exact rational root -c0/c1.
    roots.push_back(
        {Interval(-f.coefficient(0) / f.coefficient(1)), true});
    return roots;
  }

  std::vector<UPoly> chain = f.SturmChain();
  Rational bound = f.CauchyRootBound();
  Rational lo = -bound;
  Rational hi = bound;
  // Endpoints are strict bounds, so f(lo) != 0 != f(hi).
  CCDB_DCHECK(f.Evaluate(lo).sign() != 0 && f.Evaluate(hi).sign() != 0);

  struct Segment {
    Rational lo, hi;
    int count;
  };
  std::deque<Segment> work;
  int total = UPoly::SturmCountRoots(chain, lo, hi);
  if (total > 0) work.push_back({lo, hi, total});

  while (!work.empty()) {
    CCDB_CHECK_BUDGET(gov, "poly.isolate");
    Segment seg = work.front();
    work.pop_front();
    if (seg.count == 1) {
      // (lo, hi] contains exactly one root; normalize to our invariant.
      if (f.Evaluate(seg.hi).sign() == 0) {
        roots.push_back({Interval(seg.hi), true});
        continue;
      }
      Rational snapped(0);
      if (TrySnapRationalRoot(f, &seg.lo, &seg.hi, &snapped)) {
        roots.push_back({Interval(snapped), true});
      } else {
        roots.push_back({Interval(seg.lo, seg.hi), false});
      }
      continue;
    }
    Rational mid = Rational::Midpoint(seg.lo, seg.hi);
    if (f.Evaluate(mid).sign() == 0) {
      // Rational root at the midpoint: emit it exactly, then carve out a
      // window (mid-delta, mid+delta] that contains no other root and whose
      // boundary points are not roots, and recurse on the two sides.
      roots.push_back({Interval(mid), true});
      Rational delta = (seg.hi - seg.lo) * Rational(BigInt(1), BigInt(4));
      while (f.Evaluate(mid - delta).sign() == 0 ||
             f.Evaluate(mid + delta).sign() == 0 ||
             UPoly::SturmCountRoots(chain, mid - delta, mid + delta) > 1) {
        delta = delta * Rational(BigInt(1), BigInt(2));
      }
      int left_count = UPoly::SturmCountRoots(chain, seg.lo, mid - delta);
      int right_count = UPoly::SturmCountRoots(chain, mid + delta, seg.hi);
      if (left_count > 0) work.push_back({seg.lo, mid - delta, left_count});
      if (right_count > 0) work.push_back({mid + delta, seg.hi, right_count});
      continue;
    }
    int left = UPoly::SturmCountRoots(chain, seg.lo, mid);
    int right = seg.count - left;
    if (left > 0) work.push_back({seg.lo, mid, left});
    if (right > 0) work.push_back({mid, seg.hi, right});
  }

  std::sort(roots.begin(), roots.end(),
            [](const IsolatedRoot& a, const IsolatedRoot& b) {
              return a.interval.lo() < b.interval.lo();
            });
  return roots;
}

IsolatedRoot RefineRoot(const UPoly& p, IsolatedRoot root,
                        const Rational& width) {
  if (root.is_exact || root.interval.Width() <= width) return root;
  CCDB_DCHECK(UPoly::Gcd(p, p.Derivative()).degree() <= 0);
  bool became_exact = false;
  Interval refined = BisectToWidth(p, root.interval.lo(), root.interval.hi(),
                                   width, &became_exact);
  return {std::move(refined), became_exact};
}

std::vector<Rational> ApproximateRealRoots(const UPoly& p,
                                           const Rational& epsilon) {
  CCDB_CHECK_MSG(epsilon.sign() > 0, "epsilon must be positive");
  CCDB_CHECK_MSG(!p.is_zero(), "cannot isolate roots of the zero polynomial");
  UPoly f = p.SquarefreePart();
  auto roots = IsolateSquarefreeRealRoots(f, nullptr);
  CCDB_CHECK(roots.ok());  // a null governor never trips
  std::vector<Rational> values;
  for (IsolatedRoot& root : *roots) {
    IsolatedRoot refined = RefineRoot(f, std::move(root), epsilon);
    values.push_back(refined.is_exact ? refined.interval.lo()
                                      : refined.interval.Midpoint());
  }
  return values;
}

}  // namespace ccdb
