#include "oracle.h"

#include <cmath>

namespace perfbench {

void Range::CapBelow(const Rational& value) {
  if (!has_lo || value > lo) {
    lo = value;
    has_lo = true;
  }
  if (has_hi && lo > hi) empty = true;
}

void Range::CapAbove(const Rational& value) {
  if (!has_hi || value < hi) {
    hi = value;
    has_hi = true;
  }
  if (has_lo && lo > hi) empty = true;
}

void Range::Intersect(const Range& other) {
  if (other.empty) empty = true;
  if (empty) return;
  if (other.has_lo) CapBelow(other.lo);
  if (other.has_hi) CapAbove(other.hi);
}

namespace {

// The set of t with coef_t * t <= rhs, intersected into `range`.
void ApplyBound(const Rational& coef_t, const Rational& rhs, Range* range) {
  if (coef_t.is_zero()) {
    if (rhs.sign() < 0) range->empty = true;
    return;
  }
  Rational bound = rhs / coef_t;
  if (coef_t.sign() > 0) {
    range->CapAbove(bound);
  } else {
    range->CapBelow(bound);
  }
}

}  // namespace

Range SliceAtFirst(const Polygon& p, const Rational& u) {
  Range range;
  for (const HalfPlane& hp : p) {
    ApplyBound(hp.b, hp.c - hp.a * u, &range);
    if (range.empty) break;
  }
  return range;
}

Range SliceAtSecond(const Polygon& p, const Rational& v) {
  Range range;
  for (const HalfPlane& hp : p) {
    ApplyBound(hp.a, hp.c - hp.b * v, &range);
    if (range.empty) break;
  }
  return range;
}

bool FirstColumnExtent(const Polygon& p, Rational* lo, Rational* hi) {
  bool found = false;
  for (std::size_t i = 0; i < p.size(); ++i) {
    for (std::size_t j = i + 1; j < p.size(); ++j) {
      const Rational det = p[i].a * p[j].b - p[j].a * p[i].b;
      if (det.is_zero()) continue;
      const Rational u = (p[i].c * p[j].b - p[j].c * p[i].b) / det;
      const Rational v = (p[i].a * p[j].c - p[j].a * p[i].c) / det;
      bool inside = true;
      for (const HalfPlane& hp : p) inside = inside && hp.a * u + hp.b * v <= hp.c;
      if (!inside) continue;
      if (!found || u < *lo) *lo = u;
      if (!found || u > *hi) *hi = u;
      found = true;
    }
  }
  // A bounded nonempty polygon has its extremes at vertices; make sure the
  // slice just beyond them is empty, else the polygon is unbounded.
  if (!found) return false;
  const Rational step = Rational(1) / Rational(1024);
  return SliceAtFirst(p, *lo - step).empty && SliceAtFirst(p, *hi + step).empty;
}

bool ProjectionHolds(const PolygonSet& rel, const Polygon& extra,
                     const Rational& x) {
  Range extra_range = SliceAtFirst(extra, x);
  if (extra_range.empty) return false;
  for (const Polygon& p : rel) {
    Range range = SliceAtFirst(p, x);
    range.Intersect(extra_range);
    if (!range.empty) return true;
  }
  return false;
}

bool JoinHolds(const PolygonSet& left, const PolygonSet& right,
               const Rational& z_cap, const Rational& x, const Rational& y) {
  std::vector<Range> from_right;
  for (const Polygon& p : right) {
    Range range = SliceAtSecond(p, y);
    range.CapAbove(z_cap);
    if (!range.empty) from_right.push_back(range);
  }
  for (const Polygon& p : left) {
    Range range = SliceAtFirst(p, x);
    if (range.empty) continue;
    for (const Range& r : from_right) {
      Range both = range;
      both.Intersect(r);
      if (!both.empty) return true;
    }
  }
  return false;
}

namespace {

// lhs <= sqrt(disc), for disc >= 0.
bool AtMostSqrt(const Rational& lhs, const Rational& disc) {
  return lhs.sign() <= 0 || lhs * lhs <= disc;
}

}  // namespace

bool BandSelectHolds(const Band& band, const Rational& c, const Rational& x) {
  const Rational dx = x - Rational(band.h);
  const Rational disc = Rational(band.r * band.r) - dx * dx;
  if (disc.sign() < 0) return false;  // x outside the disc's shadow
  const Rational centre(band.v + 2);
  const Rational parabola = Rational(band.a) * dx * dx + Rational(band.v);
  // y ranges over [max(parabola, centre - s), min(c, centre + s)] with
  // s = sqrt(disc); it is nonempty iff every lower bound is at most every
  // upper bound (centre - s <= centre + s always holds).
  return parabola <= c && AtMostSqrt(parabola - centre, disc) &&
         AtMostSqrt(centre - c, disc);
}

double BandCapArea(const Band& band, const Rational& height) {
  const double h = height.ToDouble();
  return 4.0 / 3.0 * h * std::sqrt(h / band.a);
}

Rational TangentX(const Band& band, const Rational& slope) {
  return Rational(band.h) + slope / Rational(2 * band.a);
}

Rational TangentOffset(const Band& band, const Rational& slope) {
  // Tangent point (xt, yt) with yt = v + slope^2 / (4a); the line is
  // y = yt + slope * (x - xt), i.e. y - slope*x = yt - slope*xt.
  const Rational xt = TangentX(band, slope);
  const Rational yt = Rational(band.v) + slope * slope / Rational(4 * band.a);
  return yt - slope * xt;
}

bool ReachHolds(const Rational& start, const Rational& end, const Rational& a,
                const Rational& b) {
  const Rational step = b - a;
  return a >= start && b <= end && step.is_integer() && step.sign() > 0;
}

}  // namespace perfbench
