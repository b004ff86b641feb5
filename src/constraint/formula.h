#ifndef CCDB_CONSTRAINT_FORMULA_H_
#define CCDB_CONSTRAINT_FORMULA_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/status.h"
#include "constraint/atom.h"

namespace ccdb {

/// First-order formula over the real closed field extended with database
/// relation symbols (the language L ∪ σ of the paper, Section 3).
///
/// Variables are global integer indices; the caller (query layer) owns the
/// mapping from names to indices.
///
/// Formulas are immutable, HASH-CONSED values: every constructor
/// canonicalizes its node (atoms gcd-reduced and sign-normalized;
/// AND/OR children flattened, structurally sorted, and deduplicated;
/// ¬¬φ → φ; constants folded; vacuous quantifiers elided — sound over the
/// nonempty domain ℝ) and interns it in a process-wide thread-safe arena,
/// so structurally equal formulas share one node and operator== is a
/// single pointer comparison. Each interned node carries a unique id()
/// (stable for the node's lifetime) that the QE/memo caches use as a key,
/// and caches of derived values: free variables, quantifier-freeness,
/// relation-symbol presence, and a structural hash — all O(1) to read.
///
/// The child order of AND/OR is the deterministic STRUCTURAL order (hash,
/// then full structural comparison), never intern or pointer order, so a
/// formula prints and evaluates byte-identically at every thread count.
class Formula {
 public:
  enum class Kind {
    kTrue,
    kFalse,
    kAtom,      // polynomial constraint
    kRelation,  // database relation symbol applied to variables
    kNot,
    kAnd,
    kOr,
    kExists,
    kForall,
  };

  /// Constructs the formula "true".
  Formula();

  static Formula True();
  static Formula False();
  static Formula MakeAtom(Atom atom);
  /// Convenience: lhs op rhs as the atom (lhs - rhs) op 0.
  static Formula Compare(const Polynomial& lhs, RelOp op,
                         const Polynomial& rhs);
  /// R(args...): the named relation applied to variable indices.
  static Formula Relation(std::string name, std::vector<int> args);
  static Formula Not(Formula f);
  static Formula And(Formula a, Formula b);
  static Formula Or(Formula a, Formula b);
  static Formula And(const std::vector<Formula>& fs);
  static Formula Or(const std::vector<Formula>& fs);
  static Formula Exists(int var, Formula body);
  static Formula Forall(int var, Formula body);

  Kind kind() const;
  /// Atom payload; requires kind() == kAtom.
  const struct Atom& atom() const;
  /// Relation payload; requires kind() == kRelation.
  const std::string& relation_name() const;
  const std::vector<int>& relation_args() const;
  /// Child formulas (1 for kNot/kExists/kForall, 2+ for kAnd/kOr).
  const std::vector<Formula>& children() const;
  /// Bound variable; requires a quantifier kind.
  int quantified_var() const;

  bool is_quantifier_free() const;
  bool has_relation_symbols() const;

  /// Free variable indices (cached at construction; O(1)).
  const std::set<int>& FreeVars() const;
  /// All variable indices occurring (free or bound).
  std::set<int> AllVars() const;

  /// Structural equality — a pointer comparison, because construction
  /// hash-conses: equal formulas share one interned node.
  bool operator==(const Formula& other) const;
  bool operator!=(const Formula& other) const { return !(*this == other); }
  /// Deterministic structural total order (used to sort AND/OR children).
  bool operator<(const Formula& other) const;

  /// Structural hash, cached at construction.
  std::size_t Hash() const;
  /// Unique id of the interned node, assigned at intern time. Stable while
  /// any handle to the node lives; ids are never reused, so (id, id) pairs
  /// are sound memo-cache keys. NOT deterministic across runs or thread
  /// counts — never let an id influence output.
  std::uint64_t id() const;

  /// Replaces every occurrence of relation symbols by their definitions:
  /// the INSTANTIATION step of query evaluation (paper, Section 2).
  /// `lookup(name)` must return the relation's ConstraintRelation whose
  /// columns are variables 0..arity-1; occurrences are rewritten with the
  /// column variables renamed to the atom's argument variables.
  StatusOr<Formula> InstantiateRelations(
      const std::function<StatusOr<ConstraintRelation>(const std::string&)>&
          lookup) const;

  /// Renames free occurrences of `from` to `to` (capture is the caller's
  /// responsibility; `to` should be fresh).
  Formula RenameFreeVar(int from, int to) const;

  /// Substitutes a rational value for a free variable (into atoms).
  Formula SubstituteValue(int var, const Rational& value) const;

  /// Truth of a quantifier-free, relation-free formula at a point.
  bool EvaluateAt(const std::vector<Rational>& point) const;

  std::string ToString(const std::vector<std::string>& names = {}) const;

  /// Occupancy of the process-wide formula arena (see FormulaArenaStats).
  static struct FormulaArenaStats ArenaStats();

 private:
  struct Node;
  struct Arena;
  explicit Formula(std::shared_ptr<const Node> node);
  std::shared_ptr<const Node> node_;
};

/// Occupancy of the hash-consing arena, for REPL `.stats` and bench
/// node-count columns. The arena holds weak references: nodes die with
/// their last handle, so `live_nodes` tracks reachable formulas while
/// `total_interned` counts every distinct node ever interned.
/// `retained_slots` counts the arena's weak entries, live or expired but
/// not yet swept (each expired one still pins its node's storage).
struct FormulaArenaStats {
  std::size_t live_nodes = 0;
  std::size_t total_interned = 0;
  std::size_t retained_slots = 0;
};
FormulaArenaStats GetFormulaArenaStats();

/// Negation-normal form: negations pushed to atoms (atoms absorb them via
/// operator complement), quantifiers dualized.
Formula ToNnf(const Formula& f);

/// Prenex normal form of a relation-free formula: returns the quantifier
/// prefix (outermost first) and the quantifier-free matrix. Bound variables
/// are renamed apart using `next_fresh_var` (incremented as used).
struct PrenexBlock {
  bool is_exists;
  int var;
};
struct PrenexForm {
  std::vector<PrenexBlock> prefix;
  Formula matrix;
};
PrenexForm ToPrenex(const Formula& f, int* next_fresh_var);

/// Disjunctive normal form of a quantifier-free, relation-free formula, as
/// a list of canonicalized generalized tuples, with trivially-false and
/// syntactically duplicate disjuncts dropped (first occurrence kept).
std::vector<GeneralizedTuple> ToDnf(const Formula& f);

/// Builds the formula of a constraint relation body (the disjunction of its
/// generalized tuples), with relation columns already mapped to the given
/// variable indices.
Formula RelationToFormula(const ConstraintRelation& relation,
                          const std::vector<int>& column_vars);

}  // namespace ccdb

#endif  // CCDB_CONSTRAINT_FORMULA_H_
