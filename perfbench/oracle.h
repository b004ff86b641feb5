#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// Exact answer oracles owned by the benchmark. None of them calls the
// engine path under test: every answer is decided in Rational arithmetic
// from the benchmark's own model of the data (2-variable templates), or in
// closed form.

#include <string>
#include <vector>

#include "arith/rational.h"

namespace perfbench {

using ccdb::Rational;

/// a*u + b*v <= c over the two columns (u, v) of a binary relation.
struct HalfPlane {
  Rational a, b, c;
};
/// A convex polygon: the conjunction of its half-planes.
using Polygon = std::vector<HalfPlane>;
/// A relation: the union of its polygons.
using PolygonSet = std::vector<Polygon>;

/// A closed interval of the real line; missing ends are infinite.
struct Range {
  bool empty = false;
  bool has_lo = false, has_hi = false;
  Rational lo, hi;

  void CapBelow(const Rational& value);  // this ∩ [value, +inf)
  void CapAbove(const Rational& value);  // this ∩ (-inf, value]
  void Intersect(const Range& other);
};

/// The set of v with (u, v) in `p`.
Range SliceAtFirst(const Polygon& p, const Rational& u);
/// The set of u with (u, v) in `p`.
Range SliceAtSecond(const Polygon& p, const Rational& v);

/// The extent of `p` along its first column, from its vertices; false when
/// `p` is empty or unbounded in that column.
bool FirstColumnExtent(const Polygon& p, Rational* lo, Rational* hi);

/// exists v: (x, v) in `rel` and (x, v) in `extra`.
bool ProjectionHolds(const PolygonSet& rel, const Polygon& extra,
                     const Rational& x);
/// exists z: (x, z) in `left` and (z, y) in `right` and z <= z_cap.
bool JoinHolds(const PolygonSet& left, const PolygonSet& right,
               const Rational& z_cap, const Rational& x, const Rational& y);

/// One stored degree-2 band of the cad_select catalog: the region above
/// the parabola y = a(x-h)^2 + v, clipped to the disc of radius r centred
/// at (h, v + 2).
struct Band {
  int a = 1, h = 0, v = 0, r = 3;
};

/// exists y (band(x, y) and y <= c), decided exactly: the two quadratic
/// bounds are compared by squaring.
bool BandSelectHolds(const Band& band, const Rational& c, const Rational& x);
/// Area of {band and y <= v + height} for 0 < height <= 4, where the disc
/// does not clip: the parabolic cap (4/3) * height * sqrt(height / a).
double BandCapArea(const Band& band, const Rational& height);
/// The x of the tangent point of the line of slope `slope` touching the
/// parabola from below: h + slope / (2a).
Rational TangentX(const Band& band, const Rational& slope);
/// The constant k of that tangent line written as y - slope*x <= k.
Rational TangentOffset(const Band& band, const Rational& slope);

/// Transitive closure of the unit-step chain Edge(x, x+1), x in
/// [start, end-1]: Reach(a, b) iff a >= start, b <= end and b - a is a
/// positive integer.
bool ReachHolds(const Rational& start, const Rational& end, const Rational& a,
                const Rational& b);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
