#ifndef CCDB_QE_CAD_H_
#define CCDB_QE_CAD_H_

#include <functional>
#include <vector>

#include "base/resource.h"
#include "base/status.h"
#include "base/thread_pool.h"
#include "poly/polynomial.h"
#include "qe/algebraic_point.h"

namespace ccdb {

/// One cell of a cylindrical algebraic decomposition.
///
/// A cell at tree depth d (dimension d+1) is identified by its Collins
/// index path: index[i] is the 1-based position of the cell in its stack at
/// level i — odd positions are sectors (open intervals), even positions are
/// sections (root surfaces). `sample` holds one exact algebraic coordinate
/// per level ("for each cell, sample points are exhibited", paper
/// Appendix I).
struct CadCell {
  std::vector<int> index;
  AlgebraicPoint sample;
  /// What the lifting proved about the factors of the cell's own level
  /// (Cad::factors_at_level(dimension() - 1)): the ascending indices of
  /// those that vanish at `sample`. A section lists the factors with a root
  /// at its coordinate; every cell also lists the factors that vanish
  /// identically over its stack. Every factor not listed is nonzero here.
  std::vector<int> vanishing;
  std::vector<CadCell> children;

  int dimension() const { return static_cast<int>(index.size()); }
  bool IsSectionAt(int level) const { return index[level] % 2 == 0; }
};

/// Options controlling CAD construction.
struct CadOptions {
  /// Levels [0, derivative_closure_below) have their projection factor sets
  /// closed under main-variable derivatives before the base/lifting phases.
  /// Used by solution-formula construction (Thom-style cell discrimination).
  int derivative_closure_below = 0;
  /// Resource budget charged per projection factor, per isolated root, and
  /// per lifted cell — the loops where the doubly exponential blowup
  /// materializes. Null = unlimited. Borrowed, not owned.
  const ResourceGovernor* governor = nullptr;
  /// Worker pool for the lifting phase: base-phase cells are lifted as
  /// independent stacks (each base cell's subtree touches only its own
  /// sample points) and the cell tree is assembled in stack order, so the
  /// decomposition is identical at every thread count. Null = the
  /// process-wide ThreadPool::Shared(). Borrowed, not owned.
  ThreadPool* pool = nullptr;
};

/// A cylindrical algebraic decomposition of R^num_vars, sign-invariant for
/// the input polynomials (paper, Appendix I: projection phase, base phase,
/// lifting/extension phase). The variable order is fixed — x0 is the base
/// variable, x_{num_vars-1} the innermost — exactly the "pre-established
/// order" the paper's finite precision semantics requires.
class Cad {
 public:
  /// Builds a P-invariant CAD for the given polynomials over variables
  /// 0..num_vars-1. Fails with kNumericalFailure on degenerate lifting
  /// configurations (see AlgebraicPoint::StackRoots).
  static StatusOr<Cad> Build(const std::vector<Polynomial>& polys,
                             int num_vars, const CadOptions& options = {});

  int num_vars() const { return num_vars_; }

  /// The squarefree-basis projection factors whose main variable is
  /// `level`. Signs of these factors are invariant on every cell of
  /// dimension > level.
  const std::vector<Polynomial>& factors_at_level(int level) const {
    return factors_[level];
  }
  /// All projection factors with max_var < dim, flattened (the sign-vector
  /// alphabet for cells of dimension dim).
  std::vector<Polynomial> FactorsBelow(int dim) const;

  /// The level-0 stack (cells of dimension 1).
  const std::vector<CadCell>& roots() const { return roots_; }
  std::vector<CadCell>& mutable_roots() { return roots_; }

  /// Visits every cell of the given dimension (1-based: dimension 1 cells
  /// are the base stack) in stack order.
  void ForEachCellAtDimension(
      int dim, const std::function<void(const CadCell&)>& fn) const;

  /// Number of cells of full dimension num_vars.
  std::size_t CountLeafCells() const;
  /// Total cells across all dimensions.
  std::size_t CountAllCells() const;

 private:
  Cad() = default;

  int num_vars_ = 0;
  std::vector<std::vector<Polynomial>> factors_;  // per level
  std::vector<CadCell> roots_;
};

/// Returns a rational number strictly between two algebraic numbers a < b
/// (refining their isolating intervals as needed).
Rational RationalBetween(const AlgebraicNumber& a, const AlgebraicNumber& b);

/// Merges per-polynomial root lists into one increasing list of distinct
/// algebraic numbers (exact comparison/deduplication). (*owners)[k]
/// receives the ascending indices j of the lists root_lists[j] that
/// contain the k-th distinct root.
std::vector<AlgebraicNumber> MergeRoots(
    std::vector<std::vector<AlgebraicNumber>> root_lists,
    std::vector<std::vector<int>>* owners);

/// Builds the stack sample coordinates over a (possibly empty) base sample:
/// given the increasing distinct section roots, returns the 2k+1 stack
/// coordinates (sector, section, sector, ..., section, sector).
std::vector<AlgebraicNumber> StackCoordinates(
    const std::vector<AlgebraicNumber>& roots);

}  // namespace ccdb

#endif  // CCDB_QE_CAD_H_
