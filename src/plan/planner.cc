#include "plan/planner.h"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <sstream>

#include "base/logging.h"
#include "base/memo.h"
#include "base/metrics.h"
#include "base/profile.h"
#include "base/trace.h"
#include "qe/dense_order.h"
#include "qe/fourier_motzkin.h"

namespace ccdb {

namespace {

std::uint64_t MaxBits(const std::vector<GeneralizedTuple>& tuples) {
  std::uint64_t bits = 0;
  for (const GeneralizedTuple& tuple : tuples) {
    for (const Atom& atom : tuple.atoms) {
      bits = std::max(bits, atom.poly.MaxCoefficientBitLength());
    }
  }
  return bits;
}

std::string VarName(int v, const std::vector<std::string>& names) {
  if (v >= 0 && static_cast<std::size_t>(v) < names.size()) return names[v];
  return "x" + std::to_string(v);
}

std::string TuplesToDisplay(const std::vector<GeneralizedTuple>& tuples,
                            const std::vector<std::string>& names) {
  if (tuples.empty()) return "false";
  std::string out;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    if (i > 0) out += " or ";
    out += tuples[i].ToString(names);
  }
  return out;
}

void RenderNode(const PlanNode& node, const std::vector<std::string>& names,
                int depth, std::ostringstream* out) {
  std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
  switch (node.kind) {
    case PlanNode::Kind::kLeaf:
      *out << indent << "leaf: " << TuplesToDisplay(node.tuples, names)
           << "\n";
      return;
    case PlanNode::Kind::kBlock: {
      *out << indent << "block[" << FragmentEngine(node.fragment)
           << "] exists";
      for (int v : node.vars) *out << " " << VarName(v, names);
      *out << ": " << TuplesToDisplay(node.tuples, names) << "\n";
      return;
    }
    case PlanNode::Kind::kProduct:
      *out << indent << "product\n";
      break;
    case PlanNode::Kind::kUnion:
      *out << indent << "union (" << node.children.size() << " member"
           << (node.children.size() == 1 ? "" : "s") << ")\n";
      break;
    case PlanNode::Kind::kMonolithic:
      *out << indent << "monolithic[" << FragmentEngine(node.fragment)
           << "]: " << node.formula.ToString(names) << "\n";
      return;
  }
  for (const auto& child : node.children) {
    RenderNode(*child, names, depth + 1, out);
  }
}

// Packed algorithm options relevant to plan shape (the same five bits the
// QE result cache packs; the planner bit itself is implied — plans are
// only built when planning is on).
unsigned PlanOptionBits(const QeOptions& options) {
  return (options.allow_linear_fast_path ? 1u : 0u) |
         (options.allow_thom_augmentation ? 2u : 0u) |
         (options.allow_equation_substitution ? 4u : 0u) |
         (options.linear_only ? 8u : 0u) |
         (options.allow_disjunct_split ? 16u : 0u);
}

struct PlanCacheKey {
  std::uint64_t formula_id = 0;
  int num_free_vars = 0;
  unsigned option_bits = 0;

  bool operator==(const PlanCacheKey& other) const {
    return formula_id == other.formula_id &&
           num_free_vars == other.num_free_vars &&
           option_bits == other.option_bits;
  }
};

struct PlanCacheKeyHash {
  std::size_t operator()(const PlanCacheKey& key) const {
    std::size_t h = 1469598103934665603ull;
    h = h * 1099511628211ull + static_cast<std::size_t>(key.formula_id);
    h = h * 1099511628211ull + static_cast<std::size_t>(key.num_free_vars);
    h = h * 1099511628211ull + key.option_bits;
    return h;
  }
};

struct PlanCacheValue {
  Formula formula;  // pins the interned node (and so the key id) alive
  QueryPlan plan;   // nodes are shared immutable — copying is cheap
};

ShardedMemoCache<PlanCacheKey, PlanCacheValue, PlanCacheKeyHash>&
PlanCache() {
  static auto* cache =
      new ShardedMemoCache<PlanCacheKey, PlanCacheValue, PlanCacheKeyHash>(
          "plan_cache", 2048);
  return *cache;
}

std::shared_ptr<PlanNode> MakeLeaf(std::vector<GeneralizedTuple> tuples) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNode::Kind::kLeaf;
  node->tuples = std::move(tuples);
  return node;
}

// The executor's per-node result: the produced union of tuples over the
// free variables plus the engine stats of the sub-eliminations that
// produced it. Each node writes its own result (union members execute in
// parallel, each into its own slot); the caller merges them in member
// order, keeping the accumulation thread-count independent. The profile
// node (filled only when EXPLAIN ANALYZE armed a sink) rides the same
// channel for the same reason: parents splice children in plan order, so
// the attribution tree's shape is deterministic at every thread count.
struct ExecResult {
  std::vector<GeneralizedTuple> tuples;
  QeStats stats;
  ProfileNode profile;
};

Formula BlockToFormula(const std::vector<GeneralizedTuple>& tuples,
                       const std::vector<int>& vars) {
  std::vector<Formula> disjuncts;
  disjuncts.reserve(tuples.size());
  for (const GeneralizedTuple& tuple : tuples) {
    std::vector<Formula> conjuncts;
    conjuncts.reserve(tuple.atoms.size());
    for (const Atom& atom : tuple.atoms) {
      conjuncts.push_back(Formula::MakeAtom(atom));
    }
    disjuncts.push_back(Formula::And(conjuncts));
  }
  Formula f = Formula::Or(disjuncts);
  for (int i = static_cast<int>(vars.size()) - 1; i >= 0; --i) {
    f = Formula::Exists(vars[i], std::move(f));
  }
  return f;
}

Status ExecNode(const PlanNode& node, int num_free_vars,
                const QeOptions& options, bool profiling, ExecResult* r);

// Eliminates one block with its fragment's engine, mirroring the
// monolithic driver's primitive sequence exactly: peel defining equations
// innermost-first, then per-variable dense-order / Fourier-Motzkin rounds;
// polynomial residue goes back through the public CAD driver with
// planning forced off.
Status ExecBlock(const PlanNode& node, int num_free_vars,
                 const QeOptions& options, bool profiling, ExecResult* r) {
  const ResourceGovernor* gov = options.governor;
  if (profiling) {
    r->profile.label = std::string("block[") + FragmentEngine(node.fragment) +
                       "] exists";
    for (int v : node.vars) r->profile.label += " x" + std::to_string(v);
  }
  r->tuples = node.tuples;
  r->stats.max_intermediate_bits = MaxBits(r->tuples);
  std::vector<int> vars = node.vars;
  std::uint64_t peeled = 0;
  while (options.allow_equation_substitution && !vars.empty() &&
         TrySubstituteInnermostExists(&r->tuples, vars.back())) {
    CCDB_CHECK_BUDGET(gov, "qe.drive");
    CCDB_METRIC_COUNT("qe.equation_substitutions", 1);
    ++peeled;
    vars.pop_back();
    r->tuples = SimplifyTuples(std::move(r->tuples));
    r->stats.max_intermediate_bits =
        std::max(r->stats.max_intermediate_bits, MaxBits(r->tuples));
  }
  if (profiling && peeled > 0) r->profile.AddCounter("substitutions", peeled);

  if (vars.empty()) {
    // Every quantifier was peeled: nothing is left to eliminate.
  } else if (node.fragment != Fragment::kPolynomial) {
    CCDB_TRACE_SPAN("qe.fourier_motzkin");
    r->stats.used_linear_path = true;
    r->stats.used_dense_order_path = node.fragment == Fragment::kDenseOrder;
    CCDB_METRIC_COUNT("qe.linear_path", 1);
    if (r->stats.used_dense_order_path) {
      CCDB_METRIC_COUNT("qe.dense_order_path", 1);
    }
    for (int i = static_cast<int>(vars.size()) - 1; i >= 0; --i) {
      CCDB_CHECK_BUDGET(gov, "qe.fm");
      ++r->stats.fm_rounds;
      if (node.fragment == Fragment::kDenseOrder) {
        // Closure over the dense-order language is asserted per round, so
        // every intermediate result stays inside FO(<=).
        CCDB_ASSIGN_OR_RETURN(r->tuples, EliminateExistsDenseOrder(
                                             r->tuples, vars[i], gov,
                                             options.pool));
      } else {
        CCDB_ASSIGN_OR_RETURN(
            r->tuples,
            EliminateExistsLinear(r->tuples, vars[i], gov, options.pool));
      }
      r->stats.max_intermediate_bits =
          std::max(r->stats.max_intermediate_bits, MaxBits(r->tuples));
    }
  } else {
    // Polynomial residue: rebuild the block formula and hand it to the
    // monolithic driver (planning off). Under linear_only this refuses with
    // kResourceExhausted, exactly like the monolithic path would.
    QeOptions sub = options;
    sub.plan = PlanToggle::kOff;
    sub.profile = nullptr;
    QeStats sub_stats;
    CCDB_ASSIGN_OR_RETURN(
        ConstraintRelation rel,
        EliminateQuantifiers(BlockToFormula(r->tuples, vars), num_free_vars,
                             sub, &sub_stats));
    r->stats.Merge(sub_stats);
    r->tuples = std::move(*rel.mutable_tuples());
  }
  if (profiling) r->stats.AddCountersTo(&r->profile, r->tuples.size());
  return Status::Ok();
}

// Executes `node` into `*r` (fresh on entry). When `profiling`, r->profile
// is the node's attribution: the Stage below times it over the whole call.
Status ExecNode(const PlanNode& node, int num_free_vars,
                const QeOptions& options, bool profiling, ExecResult* r) {
  const ResourceGovernor* gov = options.governor;
  Stage stage(nullptr, profiling ? &r->profile : nullptr);
  switch (node.kind) {
    case PlanNode::Kind::kLeaf:
      r->tuples = node.tuples;
      r->stats.max_intermediate_bits = MaxBits(r->tuples);
      if (profiling) {
        r->profile.label = "leaf";
        r->profile.AddCounter("tuples_out", r->tuples.size());
      }
      return Status::Ok();
    case PlanNode::Kind::kBlock:
      return ExecBlock(node, num_free_vars, options, profiling, r);
    case PlanNode::Kind::kProduct: {
      // Cartesian recombination of independent factors, in child order:
      // sound because the children's quantified supports are disjoint and
      // deterministic because the nesting order is a plan decision.
      r->tuples = {GeneralizedTuple()};
      for (const auto& child : node.children) {
        CCDB_CHECK_BUDGET(gov, "qe.drive");
        ExecResult part;
        CCDB_RETURN_IF_ERROR(
            ExecNode(*child, num_free_vars, options, profiling, &part));
        r->stats.Merge(part.stats);
        if (profiling) r->profile.children.push_back(std::move(part.profile));
        std::vector<GeneralizedTuple> crossed;
        crossed.reserve(r->tuples.size() * part.tuples.size());
        for (const GeneralizedTuple& a : r->tuples) {
          for (const GeneralizedTuple& b : part.tuples) {
            GeneralizedTuple joined = a;
            joined.atoms.insert(joined.atoms.end(), b.atoms.begin(),
                                b.atoms.end());
            crossed.push_back(std::move(joined));
          }
        }
        r->tuples = std::move(crossed);
      }
      if (profiling) {
        r->profile.label = "product";
        r->profile.AddCounter("tuples_out", r->tuples.size());
      }
      return Status::Ok();
    }
    case PlanNode::Kind::kUnion: {
      // The planner's parallel fan-out point: members are independent
      // eliminations; slots merge in member order, never completion
      // order, so the answer is identical at every thread count.
      CCDB_ASSIGN_OR_RETURN(
          std::vector<ExecResult> slots,
          ThreadPool::Resolve(options.pool)->ParallelMap<ExecResult>(
              node.children.size(),
              [&](std::size_t i) -> StatusOr<ExecResult> {
                CCDB_CHECK_BUDGET(gov, "qe.drive");
                ExecResult slot;
                CCDB_RETURN_IF_ERROR(ExecNode(*node.children[i],
                                              num_free_vars, options,
                                              profiling, &slot));
                return slot;
              }));
      for (ExecResult& slot : slots) {
        r->stats.Merge(slot.stats);
        if (profiling) r->profile.children.push_back(std::move(slot.profile));
        for (GeneralizedTuple& tuple : slot.tuples) {
          r->tuples.push_back(std::move(tuple));
        }
      }
      if (profiling) {
        // Inclusive time is the union's wall time (the parallel wait);
        // children may sum past it, which exclusive_us() clamps at 0.
        r->profile.label = "union";
        r->profile.AddCounter("members", node.children.size());
        r->profile.AddCounter("tuples_out", r->tuples.size());
      }
      return Status::Ok();
    }
    case PlanNode::Kind::kMonolithic: {
      QeOptions sub = options;
      sub.plan = PlanToggle::kOff;
      sub.profile = nullptr;
      CCDB_ASSIGN_OR_RETURN(
          ConstraintRelation rel,
          EliminateQuantifiers(node.formula, num_free_vars, sub, &r->stats));
      r->tuples = std::move(*rel.mutable_tuples());
      if (profiling) {
        r->profile.label =
            std::string("monolithic[") + FragmentEngine(node.fragment) + "]";
        r->stats.AddCountersTo(&r->profile, r->tuples.size());
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unreachable plan node kind");
}

}  // namespace

bool PlannerResolved(const QeOptions& options) {
  return ResolveToggle(options.plan, EngineConfig::Process().plan);
}

std::string QueryPlan::Summary() const {
  if (root == nullptr) return "";
  if (fallback) {
    return std::string("monolithic[") + FragmentEngine(root->fragment) + "]";
  }
  if (root->kind == PlanNode::Kind::kLeaf) return "quantifier_free";
  std::ostringstream out;
  out << "union=" << root->children.size() << " blocks=" << blocks
      << " [dense_order=" << dispatch[0]
      << " fourier_motzkin=" << dispatch[1] << " cad=" << dispatch[2]
      << "] miniscoped=" << miniscope_pushes
      << " split=" << component_splits;
  return out.str();
}

std::string QueryPlan::ToString(const std::vector<std::string>& names) const {
  std::ostringstream out;
  out << "plan (" << Summary() << ")\n";
  if (root != nullptr) RenderNode(*root, names, 1, &out);
  return out.str();
}

QueryPlan PlanQuery(const Formula& formula, int num_free_vars,
                    const QeOptions& options) {
  CCDB_TRACE_SPAN("qe.plan");
  CCDB_METRIC_COUNT("qe.plan.built", 1);
  QueryPlan plan;
  plan.num_free_vars = num_free_vars;

  // Same normalization prologue as the monolithic driver: prenex, compact
  // quantified variables to num_free_vars..n-1 in prefix order, DNF.
  std::set<int> all_vars = formula.AllVars();
  int next_fresh = num_free_vars;
  if (!all_vars.empty()) {
    next_fresh = std::max(next_fresh, *all_vars.rbegin() + 1);
  }
  PrenexForm prenex = ToPrenex(formula, &next_fresh);
  Formula matrix_formula = prenex.matrix;
  for (std::size_t i = 0; i < prenex.prefix.size(); ++i) {
    int target = num_free_vars + static_cast<int>(i);
    if (prenex.prefix[i].var != target) {
      matrix_formula =
          matrix_formula.RenameFreeVar(prenex.prefix[i].var, target);
      prenex.prefix[i].var = target;
    }
  }
  int q = static_cast<int>(prenex.prefix.size());
  int n = num_free_vars + q;
  std::vector<GeneralizedTuple> tuples = ToDnf(matrix_formula);

  if (q == 0) {
    plan.root = MakeLeaf(std::move(tuples));
    return plan;
  }

  bool all_exists = true;
  for (const PrenexBlock& block : prenex.prefix) {
    if (!block.is_exists) all_exists = false;
  }
  // Fallbacks the planner does not restructure: universal quantifiers
  // (miniscoping ∃ over ∨ needs an all-existential prefix), variable-free
  // sentences, and — when the disjunct-split ablation knob is off — any
  // union the planner would otherwise split.
  if (!all_exists || n == 0 ||
      (!options.allow_disjunct_split && tuples.size() > 1)) {
    auto node = std::make_shared<PlanNode>();
    node->kind = PlanNode::Kind::kMonolithic;
    node->formula = formula;
    node->fragment = options.allow_linear_fast_path
                         ? ClassifyTuples(tuples)
                         : Fragment::kPolynomial;
    plan.root = node;
    plan.fallback = true;
    return plan;
  }

  // Miniscoping over ∨: one member per disjunct. Per member, atoms that
  // mention no quantified variable are pushed out into a leaf (miniscoping
  // over ∧) and the remaining atoms split into connected components of
  // the quantified-variable–atom incidence graph.
  auto root = std::make_shared<PlanNode>();
  root->kind = PlanNode::Kind::kUnion;
  for (const GeneralizedTuple& disjunct : tuples) {
    // Union-find over this disjunct's quantified variables.
    std::vector<int> parent(static_cast<std::size_t>(q));
    std::iota(parent.begin(), parent.end(), 0);
    std::function<int(int)> find = [&](int a) {
      while (parent[a] != a) {
        parent[a] = parent[parent[a]];
        a = parent[a];
      }
      return a;
    };
    auto unite = [&](int a, int b) { parent[find(a)] = find(b); };

    GeneralizedTuple leaf;
    std::vector<std::vector<int>> atom_qvars(disjunct.atoms.size());
    std::vector<int> occurrences(static_cast<std::size_t>(q), 0);
    for (std::size_t a = 0; a < disjunct.atoms.size(); ++a) {
      for (int v = 0; v < q; ++v) {
        if (disjunct.atoms[a].poly.Mentions(num_free_vars + v)) {
          atom_qvars[a].push_back(v);
          ++occurrences[static_cast<std::size_t>(v)];
        }
      }
      if (atom_qvars[a].empty()) {
        leaf.atoms.push_back(disjunct.atoms[a]);
      } else {
        for (std::size_t j = 1; j < atom_qvars[a].size(); ++j) {
          unite(atom_qvars[a][0], atom_qvars[a][j]);
        }
      }
    }

    // Components keyed by their smallest quantified variable, each with
    // its atoms in original conjunct order.
    std::map<int, std::vector<int>> component_vars;  // root -> vars
    for (int v = 0; v < q; ++v) {
      if (occurrences[static_cast<std::size_t>(v)] == 0) continue;
      component_vars[find(v)].push_back(v);
    }
    std::map<int, GeneralizedTuple> component_atoms;
    for (std::size_t a = 0; a < disjunct.atoms.size(); ++a) {
      if (atom_qvars[a].empty()) continue;
      component_atoms[find(atom_qvars[a][0])].atoms.push_back(
          disjunct.atoms[a]);
    }

    std::vector<std::shared_ptr<const PlanNode>> kids;
    if (!leaf.atoms.empty() || component_vars.empty()) {
      kids.push_back(MakeLeaf({leaf}));
      ++plan.miniscope_pushes;
    }
    for (auto& [comp_root, vars] : component_vars) {
      auto block = std::make_shared<PlanNode>();
      block->kind = PlanNode::Kind::kBlock;
      block->tuples = {component_atoms[comp_root]};
      // Cheap-first elimination order (min-occurrence heuristic): the
      // executor eliminates innermost-first, so the least-constrained
      // variable goes innermost. Ties keep the highest index innermost —
      // the monolithic driver's natural order, which is what keeps
      // single-heuristic-neutral inputs byte-identical across paths.
      std::vector<int> ordered = vars;
      std::stable_sort(ordered.begin(), ordered.end(), [&](int a, int b) {
        int oa = occurrences[static_cast<std::size_t>(a)];
        int ob = occurrences[static_cast<std::size_t>(b)];
        if (oa != ob) return oa > ob;
        return a < b;
      });
      block->vars.reserve(ordered.size());
      for (int v : ordered) block->vars.push_back(num_free_vars + v);
      block->fragment = options.allow_linear_fast_path
                            ? ClassifyTuple(block->tuples[0])
                            : Fragment::kPolynomial;
      ++plan.blocks;
      ++plan.dispatch[static_cast<int>(block->fragment)];
      kids.push_back(std::move(block));
    }
    if (component_vars.size() > 1) ++plan.component_splits;

    if (kids.size() == 1) {
      root->children.push_back(std::move(kids[0]));
    } else {
      auto product = std::make_shared<PlanNode>();
      product->kind = PlanNode::Kind::kProduct;
      product->children = std::move(kids);
      root->children.push_back(std::move(product));
    }
  }
  plan.root = root;
  return plan;
}

QueryPlan GetOrBuildPlan(const Formula& formula, int num_free_vars,
                         const QeOptions& options) {
  const bool use_cache =
      options.governor == nullptr && MemoCachesEnabledFor(options.memo);
  PlanCacheKey key{formula.id(), num_free_vars, PlanOptionBits(options)};
  if (use_cache) {
    PlanCacheValue cached;
    if (PlanCache().Lookup(key, &cached)) return cached.plan;
  }
  QueryPlan plan = PlanQuery(formula, num_free_vars, options);
  if (use_cache) PlanCache().Insert(key, PlanCacheValue{formula, plan});
  return plan;
}

StatusOr<ConstraintRelation> ExecutePlan(const QueryPlan& plan,
                                         const QeOptions& options,
                                         QeStats* stats,
                                         ProfileNode* profile) {
  CCDB_TRACE_SPAN("qe.plan.execute");
  CCDB_CHECK(plan.root != nullptr);
  CCDB_METRIC_COUNT("qe.plan.executions", 1);
  CCDB_METRIC_COUNT("qe.plan.blocks", plan.blocks);
  CCDB_METRIC_COUNT("qe.plan.miniscope_pushes", plan.miniscope_pushes);
  CCDB_METRIC_COUNT("qe.plan.component_splits", plan.component_splits);
  CCDB_METRIC_COUNT("qe.plan.dispatch.dense_order", plan.dispatch[0]);
  CCDB_METRIC_COUNT("qe.plan.dispatch.fourier_motzkin", plan.dispatch[1]);
  CCDB_METRIC_COUNT("qe.plan.dispatch.cad", plan.dispatch[2]);
  ExecResult r;
  CCDB_RETURN_IF_ERROR(ExecNode(*plan.root, plan.num_free_vars, options,
                                profile != nullptr, &r));
  stats->Merge(r.stats);
  if (profile != nullptr) *profile = std::move(r.profile);
  return ConstraintRelation(plan.num_free_vars,
                            SimplifyTuples(std::move(r.tuples)));
}

}  // namespace ccdb
