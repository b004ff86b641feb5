// Sign kernels at CAD sample points: the interval filter in
// AlgebraicPoint::SignAt / AlgebraicNumber::SignOfPolyAt, the nonzero-only
// refinement NonzeroSignAt, and the per-cell vanishing record the lifting
// leaves on CadCell. The oracle everywhere is the exact value
// AlgebraicPoint::ValueAt(p).Sign(), computed on a separate copy of the
// point so its refinement never influences the path under test.

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/resource.h"
#include "base/thread_pool.h"
#include "constraint/formula.h"
#include "property_env.h"
#include "qe/algebraic_point.h"
#include "qe/cad.h"
#include "qe/qe.h"

namespace ccdb {
namespace {

Polynomial V(int i) { return Polynomial::Var(i); }

UPoly FromInts(std::initializer_list<std::int64_t> coeffs) {
  std::vector<Rational> c;
  for (std::int64_t v : coeffs) c.emplace_back(BigInt(v));
  return UPoly(std::move(c));
}

// A random polynomial in x0..x_{vars-1}: every monomial of degree <= 2 in
// each variable and total degree <= `total`, with small integer
// coefficients (about half of them zero).
Polynomial RandomPoly(std::mt19937_64* rng, int vars, int total) {
  std::uniform_int_distribution<int> coeff(-3, 3);
  Polynomial p;
  std::vector<int> exps(vars, 0);
  std::function<void(int, int)> walk = [&](int var, int budget) {
    if (var == vars) {
      int c = coeff(*rng);
      if (c == 0 || (*rng)() % 2 == 0) return;
      Polynomial term(c);
      for (int i = 0; i < vars; ++i) {
        if (exps[i] > 0) term = term * V(i).Pow(exps[i]);
      }
      p = p + term;
      return;
    }
    for (int e = 0; e <= std::min(2, budget); ++e) {
      exps[var] = e;
      walk(var + 1, budget - e);
    }
    exps[var] = 0;
  };
  walk(0, total);
  return p;
}

// A sparse random polynomial of degree 1 or 2 in its main variable
// x_{vars-1}: c*y^d + b*x_i*y + sum_i a_i*x_i^{e_i} + c0, small integer
// coefficients. Sparse so that CADs over 3 variables stay small.
Polynomial RandomLevelPoly(std::mt19937_64* rng, int vars) {
  const int y = vars - 1;
  std::uniform_int_distribution<int> coeff(-3, 3);
  Polynomial p = Polynomial(1 + static_cast<int>((*rng)() % 2)) *
                 V(y).Pow(1 + static_cast<int>((*rng)() % 2));
  for (int i = 0; i < y; ++i) {
    p = p + Polynomial(coeff(*rng)) *
                V(i).Pow(1 + static_cast<int>((*rng)() % 2));
  }
  if (y > 0 && (*rng)() % 3 == 0) {
    p = p + Polynomial(coeff(*rng)) * V(static_cast<int>((*rng)() % y)) * V(y);
  }
  return p + Polynomial(coeff(*rng));
}

// A sample point built by lifting: coordinate k is a real root of
// `defining[k]` over the first k coordinates (irrational roots preferred),
// as a CAD section would be.
struct LiftedPoint {
  AlgebraicPoint point;
  std::vector<Polynomial> defining;
  int algebraic = 0;
};

bool LiftPoint(std::mt19937_64* rng, int dim, LiftedPoint* out) {
  int degrees = 1;
  for (int level = 0; level < dim; ++level) {
    // Lifting and the exact oracle both run iterated resultants whose
    // degree grows with this product: keep it small.
    if (degrees > 4) return false;
    Polynomial f = RandomLevelPoly(rng, level + 1);
    if (!f.Mentions(level)) return false;
    auto roots = out->point.StackRoots(f);
    if (!roots.ok() || roots->empty()) return false;
    std::vector<AlgebraicNumber>& candidates = *roots;
    auto irrational = std::find_if(
        candidates.begin(), candidates.end(),
        [](const AlgebraicNumber& a) { return !a.is_rational(); });
    AlgebraicNumber chosen = irrational != candidates.end()
                                 ? *irrational
                                 : candidates[(*rng)() % candidates.size()];
    if (!chosen.is_rational()) {
      ++out->algebraic;
      degrees *= chosen.defining_polynomial().degree();
    }
    out->point.Append(std::move(chosen));
    out->defining.push_back(f);
  }
  return out->algebraic >= 1;
}

// Polynomials to evaluate at a lifted point: random ones, and ones built
// to vanish there (each level's defining polynomial, products with it,
// sums of two vanishing ones).
std::vector<Polynomial> Probes(std::mt19937_64* rng, const LiftedPoint& lp) {
  const int dim = lp.point.dimension();
  std::vector<Polynomial> probes;
  for (int i = 0; i < 6; ++i) probes.push_back(RandomPoly(rng, dim, 2));
  for (const Polynomial& f : lp.defining) {
    probes.push_back(f);
    probes.push_back(f * RandomPoly(rng, dim, 1) + f);
  }
  probes.push_back(lp.defining.back() - lp.defining.front());
  probes.push_back(lp.defining.back() + lp.defining.front() * V(0));
  return probes;
}

TEST(SignEvalTest, SignAtMatchesExactValueInAnyOrder) {
  std::mt19937_64 rng(20261019);
  const int points = 40 * ccdb_test::PropertyIterScale();
  int built = 0;
  int zeros = 0;
  int multi = 0;
  for (int attempt = 0; built < points && attempt < 50 * points; ++attempt) {
    LiftedPoint lp;
    const int dim = 1 + static_cast<int>(attempt % 3);
    if (!LiftPoint(&rng, dim, &lp)) continue;
    ++built;
    if (lp.algebraic >= 2) ++multi;
    std::vector<Polynomial> probes = Probes(&rng, lp);
    std::vector<int> expected;
    {
      const AlgebraicPoint oracle = lp.point;
      for (const Polynomial& p : probes) {
        expected.push_back(oracle.ValueAt(p).Sign());
      }
    }
    zeros += static_cast<int>(std::count(expected.begin(), expected.end(), 0));
    // Two passes over one copy in shuffled orders: refinement left behind
    // by earlier calls must never change a later answer.
    const AlgebraicPoint point = lp.point;
    std::vector<std::size_t> order(probes.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (int pass = 0; pass < 2; ++pass) {
      std::shuffle(order.begin(), order.end(), rng);
      for (std::size_t i : order) {
        EXPECT_EQ(point.SignAt(probes[i]), expected[i])
            << probes[i].ToString() << " at " << lp.point.ToString()
            << " pass " << pass;
        if (expected[i] != 0) {
          EXPECT_EQ(point.NonzeroSignAt(probes[i]), expected[i])
              << probes[i].ToString() << " at " << lp.point.ToString();
        }
      }
    }
  }
  EXPECT_EQ(built, points);
  // The corpus must exercise both the zero case and the general path.
  EXPECT_GT(zeros, points);
  EXPECT_GT(multi, 0);
}

TEST(SignEvalTest, SignOfPolyAtFilterAndExactStep) {
  auto roots = AlgebraicNumber::RootsOf(FromInts({-2, 0, 1}));
  const AlgebraicNumber& sqrt2 = roots[1];
  bool exact = true;
  // x - 10 is negative on any isolating interval of sqrt(2) in (0, 10).
  EXPECT_EQ(sqrt2.SignOfPolyAt(FromInts({-10, 1}), &exact), -1);
  EXPECT_FALSE(exact);
  // x^2 - 2 vanishes: only the exact step can say so.
  EXPECT_EQ(sqrt2.SignOfPolyAt(FromInts({-2, 0, 1}), &exact), 0);
  EXPECT_TRUE(exact);
  // 99*sqrt(2) - 140 ~ +0.007 and 70*sqrt(2) - 99 ~ -0.005: refinement
  // alone decides.
  EXPECT_EQ(sqrt2.NonzeroSignOfPolyAt(FromInts({-140, 99})), 1);
  EXPECT_EQ(sqrt2.NonzeroSignOfPolyAt(FromInts({-99, 70})), -1);
}

// Repeated ambiguous SignAt calls must not lengthen the sample point's
// rationals: blind refinement before the exact step would shrink every
// mentioned coordinate's interval on each call (to about 964-bit
// denominators after these 20 calls), while the exact identification
// needs only a few bits.
TEST(SignEvalTest, RepeatedZeroQueriesDoNotGrowTheSamplePoint) {
  AlgebraicPoint point;
  point.Append(AlgebraicNumber::RootsOf(FromInts({-2, 0, 1}))[1]);
  point.Append(AlgebraicNumber::RootsOf(FromInts({-2, 0, 0, 0, 1}))[1]);
  const Polynomial p = V(1).Pow(2) - V(0);  // y^2 - x at (sqrt2, 2^(1/4))
  for (int call = 0; call < 20; ++call) {
    bool exact = false;
    ASSERT_EQ(point.SignAt(p, &exact), 0);
    EXPECT_TRUE(exact);
  }
  for (const AlgebraicNumber& c : point.coords()) {
    EXPECT_LE(c.isolating_interval().lo().denominator().bit_length(), 64u)
        << c.ToString();
    EXPECT_LE(c.isolating_interval().hi().denominator().bit_length(), 64u)
        << c.ToString();
  }
}

void CheckRecord(const Cad& cad, const CadCell& cell,
                 const std::vector<CadCell>& stack) {
  const int level = cell.dimension() - 1;
  const std::vector<Polynomial>& factors = cad.factors_at_level(level);
  std::vector<int> expected;
  for (std::size_t j = 0; j < factors.size(); ++j) {
    const AlgebraicPoint oracle = cell.sample;
    int sign = oracle.ValueAt(factors[j]).Sign();
    if (sign == 0) {
      expected.push_back(static_cast<int>(j));
    } else {
      // The sign of an unlisted factor comes from refinement alone.
      EXPECT_EQ(cell.sample.NonzeroSignAt(factors[j]), sign);
    }
  }
  EXPECT_EQ(cell.vanishing, expected) << cell.sample.ToString();
  if (!cell.IsSectionAt(level)) {
    // A sector lists only factors that vanish on its whole stack.
    for (int j : cell.vanishing) {
      for (const CadCell& sibling : stack) {
        EXPECT_TRUE(std::binary_search(sibling.vanishing.begin(),
                                       sibling.vanishing.end(), j))
            << "factor " << j << " vanishes on sector "
            << cell.sample.ToString() << " but not on "
            << sibling.sample.ToString();
      }
    }
  }
  for (const CadCell& child : cell.children) {
    CheckRecord(cad, child, cell.children);
  }
}

// Random inputs in 2 variables, filtered to small decompositions by a step
// budget, then fixed inputs in 3 variables: random ones there too often
// lift into thousands of cells whose exact oracle would take minutes.
std::vector<std::vector<Polynomial>> CadInputs() {
  std::mt19937_64 rng(1996);
  std::vector<std::vector<Polynomial>> inputs;
  const int random = 6 * ccdb_test::PropertyIterScale();
  for (int attempt = 0; static_cast<int>(inputs.size()) < random &&
                        attempt < 20 * random;
       ++attempt) {
    std::vector<Polynomial> polys = {RandomLevelPoly(&rng, 2),
                                     RandomLevelPoly(&rng, 2)};
    ResourceGovernor budget(ResourceLimits::Steps(2000));
    CadOptions options;
    options.governor = &budget;
    if (Cad::Build(polys, 2, options).ok()) inputs.push_back(polys);
  }
  const Polynomial one(1);
  // (x0 - 1) * x2 + x1 - 1 vanishes identically over the stack above
  // (1, 1).
  inputs.push_back({V(2) - V(0), (V(0) - one) * V(2) + V(1) - one});
  inputs.push_back({V(2) - V(0) * V(1), V(2).Pow(2) + V(1) - Polynomial(2)});
  inputs.push_back({Polynomial(2) * V(2).Pow(2) - Polynomial(3) * V(1).Pow(2) -
                        V(0) + Polynomial(2),
                    Polynomial(2) * V(2) - V(1) + Polynomial(2)});
  return inputs;
}

TEST(SignEvalTest, LiftingRecordListsExactlyTheVanishingFactors) {
  int section_zeros = 0;
  int sector_zeros = 0;
  for (const std::vector<Polynomial>& polys : CadInputs()) {
    int vars = 0;
    for (const Polynomial& p : polys) vars = std::max(vars, p.max_var() + 1);
    auto cad = Cad::Build(polys, vars);
    ASSERT_TRUE(cad.ok()) << cad.status().ToString();
    for (const CadCell& cell : cad->roots()) {
      CheckRecord(*cad, cell, cad->roots());
    }
    cad->ForEachCellAtDimension(vars, [&](const CadCell& cell) {
      if (cell.vanishing.empty()) return;
      ++(cell.IsSectionAt(vars - 1) ? section_zeros : sector_zeros);
    });
  }
  EXPECT_GT(section_zeros, 0);
  EXPECT_GT(sector_zeros, 0);
}

TEST(SignEvalTest, QeAnswersIdenticalAcrossThreadCounts) {
  std::mt19937_64 rng(14);
  const RelOp ops[] = {RelOp::kLt, RelOp::kLe, RelOp::kEq, RelOp::kGe};
  for (const std::vector<Polynomial>& polys : CadInputs()) {
    int vars = 0;
    std::vector<Formula> atoms;
    for (const Polynomial& p : polys) {
      vars = std::max(vars, p.max_var() + 1);
      atoms.push_back(Formula::MakeAtom(Atom(p, ops[rng() % 4])));
    }
    Formula query = Formula::Exists(vars - 1, Formula::And(atoms));
    std::string baseline;
    for (int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      QeOptions options;
      options.pool = &pool;
      options.memo = PlanToggle::kOff;
      auto answer = EliminateQuantifiers(query, vars - 1, options);
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      if (threads == 1) {
        baseline = answer->ToString();
      } else {
        EXPECT_EQ(answer->ToString(), baseline)
            << query.ToString() << " threads " << threads;
      }
    }
  }
}

}  // namespace
}  // namespace ccdb
