#ifndef CCDB_POLY_ROOT_ISOLATION_H_
#define CCDB_POLY_ROOT_ISOLATION_H_

#include <vector>

#include "arith/interval.h"
#include "base/resource.h"
#include "base/status.h"
#include "poly/upoly.h"

namespace ccdb {

/// An isolating interval for one real root of a squarefree polynomial:
/// either a point (the root is rational and equals lo == hi) or an open
/// interval (lo, hi) containing exactly one root, with the polynomial
/// nonzero at both endpoints.
struct IsolatedRoot {
  Interval interval;
  bool is_exact = false;  // true when interval is the point root itself
};

/// Isolates all distinct real roots of `p` (any nonzero polynomial; the
/// squarefree part is taken internally), returned in increasing order.
/// This is the base phase of the CAD algorithm ("all the roots are
/// identified [CL82]", paper Appendix I) and the heart of the paper's
/// NUMERICAL EVALUATION step.
std::vector<IsolatedRoot> IsolateRealRoots(const UPoly& p);

/// Governed variant: charges `gov` per Sturm bisection segment and fails
/// with kResourceExhausted when the budget trips (stage "poly.isolate").
/// Null governor = identical to the ungoverned overload.
StatusOr<std::vector<IsolatedRoot>> IsolateRealRoots(
    const UPoly& p, const ResourceGovernor* gov);

/// IsolateRealRoots for a polynomial that is already squarefree (as
/// returned by UPoly::SquarefreePart): skips recomputing the squarefree
/// part.
StatusOr<std::vector<IsolatedRoot>> IsolateSquarefreeRealRoots(
    const UPoly& f, const ResourceGovernor* gov);

/// Shrinks an isolating interval of `p` below `width` by bisection,
/// preserving the isolation invariant. No-op for exact roots. `p` must be
/// squarefree (checked in debug builds only).
IsolatedRoot RefineRoot(const UPoly& p, IsolatedRoot root,
                        const Rational& width);

/// Convenience: all real roots of `p` to absolute precision `epsilon`
/// (midpoints of refined isolating intervals; exact roots returned
/// exactly). Implements Theorem 3.2's ε-approximation for the univariate
/// case.
std::vector<Rational> ApproximateRealRoots(const UPoly& p,
                                           const Rational& epsilon);

}  // namespace ccdb

#endif  // CCDB_POLY_ROOT_ISOLATION_H_
