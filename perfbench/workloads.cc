#include "workloads.h"

#include <cmath>
#include <deque>
#include <random>
#include <sstream>
#include <unordered_set>

namespace perfbench {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kQuery:
      return "query";
    case OpKind::kAggregate:
      return "aggregate";
    case OpKind::kSolve:
      return "solve";
    case OpKind::kFpQuery:
      return "fp_query";
    case OpKind::kInsert:
      return "insert";
    case OpKind::kRedefine:
      return "redefine";
    case OpKind::kRefresh:
      return "refresh";
  }
  return "?";
}

namespace {

using Rng = std::mt19937_64;

int Uniform(Rng& rng, int lo, int hi) {  // inclusive
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

Rational Frac(std::int64_t num, std::int64_t den) {
  return Rational(num) / Rational(den);
}

// A number as a CALC_F term; negatives are parenthesized.
std::string Num(const Rational& r) {
  return r.sign() < 0 ? "(" + r.ToString() + ")" : r.ToString();
}

// "(x - 3)", "(x + 3)" or "x".
std::string Shifted(const char* var, int shift) {
  if (shift == 0) return var;
  std::ostringstream out;
  out << "(" << var << (shift > 0 ? " - " : " + ") << std::abs(shift) << ")";
  return out.str();
}

std::string HalfPlaneText(const HalfPlane& hp, const char* u, const char* v) {
  std::string lhs;
  auto term = [&](const Rational& coef, const char* var) {
    if (coef.is_zero()) return;
    if (!lhs.empty()) lhs += " + ";
    lhs += Num(coef) + "*" + var;
  };
  term(hp.a, u);
  term(hp.b, v);
  if (lhs.empty()) lhs = "0";
  return lhs + " <= " + Num(hp.c);
}

std::string PolygonText(const Polygon& p) {
  std::string out;
  for (const HalfPlane& hp : p) {
    if (!out.empty()) out += " and ";
    out += HalfPlaneText(hp, "x", "y");
  }
  return out;
}

// The relation's definition, translated by `shift` along x.
std::string RelationText(const std::string& name, const PolygonSet& set,
                         int shift = 0) {
  std::string out = name + "(x, y) := ";
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (i > 0) out += " or ";
    Polygon moved = set[i];
    for (HalfPlane& hp : moved) hp.c += hp.a * Rational(shift);
    out += "(" + PolygonText(moved) + ")";
  }
  return out;
}

// Draws texts until one is new to `used`; after 32 collisions the caller's
// generator is asked for a finer-grained variant (`fine` = true), whose
// space is large enough never to run dry.
template <typename Gen>
auto DrawDistinct(std::unordered_set<std::string>* used, Gen gen) {
  for (int attempt = 0;; ++attempt) {
    auto drawn = gen(attempt >= 32);
    if (used->insert(drawn.text).second) return drawn;
  }
}

// Op kinds and shapes follow fixed repeating patterns (seeds vary the
// constants, probes and repeats, not the mix), so every seed runs the same
// mix of work and runs differ by noise, not by what they happened to draw.
char PatternAt(const char* pattern, std::uint64_t n) {
  return pattern[n % std::char_traits<char>::length(pattern)];
}

bool Fail(std::string* why, const std::string& message) {
  if (why != nullptr) *why = message;
  return false;
}

// Membership probes of a relation answer against an expected predicate.
bool CheckProbes(const Answer& answer,
                 const std::vector<std::string>& columns,
                 const std::vector<std::vector<Rational>>& probes,
                 const std::function<bool(const std::vector<Rational>&)>&
                     expected,
                 std::string* why) {
  if (answer.columns != columns) {
    return Fail(why, "unexpected answer columns");
  }
  for (const auto& probe : probes) {
    const bool got = answer.relation.Contains(probe);
    if (got != expected(probe)) {
      std::string at;
      for (const Rational& r : probe) at += (at.empty() ? "" : ", ") + r.ToString();
      return Fail(why, std::string("membership of (") + at + ") is " +
                           (got ? "true" : "false") + ", oracle says " +
                           (got ? "false" : "true"));
    }
  }
  return true;
}

// ---------------------------------------------------------------- cad_select

class CadSelectStream : public OpStream {
 public:
  explicit CadSelectStream(std::uint64_t seed) : rng_(seed) {}

  std::vector<std::string> CatalogDefinitions(int variant) const override {
    std::vector<std::string> defs;
    for (int i = 0; i < kBands; ++i) {
      Band b = BandAt(i);
      b.h += 40 * variant;
      std::ostringstream out;
      out << "B" << i << "(x, y) := " << b.a << "*" << Shifted("x", b.h)
          << "^2 - y + " << Num(Rational(b.v)) << " <= 0 and "
          << Shifted("x", b.h) << "^2 + " << Shifted("y", b.v + 2)
          << "^2 <= " << b.r * b.r;
      defs.push_back(out.str());
    }
    return defs;
  }

  // One unconstrained projection per band: fills the per-band projection
  // factors the loop's queries share.
  std::vector<Op> WarmupOps(int variant) const override {
    (void)variant;
    std::vector<Op> ops;
    for (int i = 0; i < kBands; ++i) {
      Op op;
      op.text = "exists y (B" + std::to_string(i) + "(x, y))";
      ops.push_back(op);
    }
    return ops;
  }

  // 17 selects, 2 SURFACE, 1 Solve per 20 ops; each kind visits the bands
  // round-robin.
  Op Next() override {
    switch (PatternAt("QQQQAQQQQSQQQQQAQQQQ", ops_++)) {
      case 'A':
        return Surface(aggregates_++ % kBands);
      case 'S':
        return Solve(solves_++ % kBands);
      default:
        return Select(selects_++ % kBands);
    }
  }

 private:
  Op Select(int i) {
    const Band band = BandAt(i);
    auto drawn = DrawDistinct(&used_, [&](bool fine) {
      const int den = fine ? 65536 : 256;
      Rational c = Rational(band.v - 1) +
                   Frac(Uniform(rng_, 0, (band.r + 4) * den), den);
      std::ostringstream text;
      text << "exists y (B" << i << "(x, y) and y <= " << Num(c) << ")";
      struct { std::string text; Rational c; } d{text.str(), c};
      return d;
    });
    const Rational c = drawn.c;
    std::vector<std::vector<Rational>> probes;
    probes.push_back({Rational(band.h)});
    for (int k = 0; k < 9; ++k) {
      probes.push_back({Rational(band.h) +
                        Frac(Uniform(rng_, -(band.r + 1) * 16,
                                     (band.r + 1) * 16),
                             16)});
    }
    // Just inside and outside both parabola crossings, where a shifted
    // constant or a dropped piece shows first.
    const double rise = (c.ToDouble() - band.v) / band.a;
    if (rise > 0) {
      const double w = std::sqrt(rise);
      for (double side : {-1.0, 1.0}) {
        for (double off : {-1.0 / 64, 1.0 / 64}) {
          const double x = band.h + side * (w + off);
          probes.push_back({Frac(std::llround(x * 1024), 1024)});
        }
      }
    }
    Op op;
    op.kind = OpKind::kQuery;
    op.text = drawn.text;
    op.probes = probes;
    op.check = [band, c, probes](const Answer& a, std::string* why) {
      return CheckProbes(a, {"x"}, probes,
                         [&](const std::vector<Rational>& p) {
                           return BandSelectHolds(band, c, p[0]);
                         },
                         why);
    };
    return op;
  }

  Op Surface(int i) {
    const Band band = BandAt(i);
    auto drawn = DrawDistinct(&used_, [&](bool fine) {
      const int den = fine ? 65536 : 256;
      Rational height = Frac(Uniform(rng_, den / 4, 4 * den), den);
      std::ostringstream body;
      body << "B" << i << "(x, y) and y <= "
           << Num(Rational(band.v) + height);
      struct {
        std::string text, body;
        Rational height;
      } d{"SURFACE[x, y](" + body.str() + ")(z)", body.str(), height};
      return d;
    });
    const double area = BandCapArea(band, drawn.height);
    Op op;
    op.kind = OpKind::kAggregate;
    op.text = drawn.text;
    op.body = drawn.body;
    op.check = [area](const Answer& a, std::string* why) {
      if (!a.has_scalar) return Fail(why, "aggregate returned no scalar");
      const double tol = std::max(4 * a.scalar_error, 1e-6 * area + 1e-9);
      if (std::fabs(a.scalar - area) > tol) {
        return Fail(why, "area " + std::to_string(a.scalar) +
                             ", analytic " + std::to_string(area));
      }
      return true;
    };
    return op;
  }

  // Figure 1's shape: a cap that touches the band only at its vertex,
  // y - v <= d (x - h)^2 with 0 < d < a, so the answer is the single point
  // x = h. The cap sits inside the block, so each op is a cold CAD.
  Op Solve(int i) {
    const Band band = BandAt(i);
    auto drawn = DrawDistinct(&used_, [&](bool fine) {
      const int den = fine ? 65536 : 256;
      const Rational d = Frac(Uniform(rng_, 1, band.a * den - 1), den);
      std::ostringstream text;
      text << "exists y (B" << i << "(x, y) and y - " << Num(Rational(band.v))
           << " <= " << d.ToString() << "*" << Shifted("x", band.h) << "^2)";
      struct { std::string text; } out{text.str()};
      return out;
    });
    const Rational x(band.h);
    Op op;
    op.kind = OpKind::kSolve;
    op.text = drawn.text;
    op.check = [x](const Answer& a, std::string* why) {
      if (a.points.size() != 1 || a.points[0].size() != 1) {
        return Fail(why, "expected exactly one solution point, got " +
                             std::to_string(a.points.size()));
      }
      const Rational err = (a.points[0][0] - x).Abs();
      if (err > Frac(1, std::int64_t{1} << (kSolveEpsilonLog2 - 1))) {
        return Fail(why, "solution " + a.points[0][0].ToString() +
                             " is not the tangent point " + x.ToString());
      }
      return true;
    };
    return op;
  }

  Rng rng_;
  std::uint64_t ops_ = 0, selects_ = 0, aggregates_ = 0, solves_ = 0;
  std::unordered_set<std::string> used_;
};

// ------------------------------------------------------ reachability chains

// A chain Edge(x, y) := y - x - 1 = 0 over x in [start, end - 1] whose
// closure refresh ops keep up to date: each op inserts the unit segment
// [end - 1, end], and after `inserts` of them re-defines the chain to its
// `base`-step start, shifted through kOffsets origins so a text recurs only
// kOffsets cycles later, long after its cache entries are evicted. Every
// cycle recomputes once and resumes `inserts` times; the set of distinct
// constants stays bounded.
class Chain {
 public:
  static constexpr int kOffsets = 16;

  Chain(std::string edge, int base, int inserts, int origin)
      : edge_(std::move(edge)),
        base_(base),
        inserts_(inserts),
        origin_(origin),
        start_(origin),
        end_(origin + base) {}

  std::string Definition(int variant) const {
    const int start = start_ + 100000 * variant;
    return Text(start, start + base_ - 1);
  }

  // One whole refresh cycle on a chain far from any the loop visits, then
  // back to the base chain of `variant`, whose closure the loop starts from.
  std::vector<Op> Warmup(int variant) const {
    const int base = start_ + 100000 * variant;
    const int far = base + 50000;
    std::vector<Op> ops = {Refresh(true, Text(far, far + base_ - 1))};
    for (int j = 1; j <= inserts_; ++j) {
      ops.push_back(Refresh(false, Text(far + base_ - 2 + j, far + base_ - 1 + j)));
    }
    ops.push_back(Refresh(true, Text(base, base + base_ - 1)));
    return ops;
  }

  Op Next(Rng& rng) {
    Op op;
    if (inserted_ == inserts_) {
      ++cycle_;
      inserted_ = 0;
      start_ = origin_ + 64 * (cycle_ % kOffsets);
      end_ = start_ + base_;
      op = Refresh(true, Text(start_, start_ + base_ - 1));
    } else {
      ++inserted_;
      op = Refresh(false, Text(end_ - 1, end_));
      ++end_;
    }
    const Rational start(start_), end(end_);
    const int diameter = end_ - start_;
    for (int k = 0; k < 16; ++k) {
      Rational a = start + Frac(Uniform(rng, -2, 2 * diameter + 2), 2);
      Rational b = a + Rational(Uniform(rng, -1, diameter + 1));
      if (Uniform(rng, 0, 3) == 0) b += Frac(1, 2);
      op.probes.push_back({a, b});
    }
    op.check = [start, end, probes = op.probes](const Answer& a,
                                                std::string* why) {
      return CheckProbes(a, {"x", "y"}, probes,
                         [&](const std::vector<Rational>& p) {
                           return ReachHolds(start, end, p[0], p[1]);
                         },
                         why);
    };
    return op;
  }

 private:
  Op Refresh(bool redefine, std::string text) const {
    Op op;
    op.kind = OpKind::kRefresh;
    op.relation = edge_;
    op.redefine = redefine;
    op.text = std::move(text);
    return op;
  }

  std::string Text(int lo, int hi) const {
    std::ostringstream out;
    out << edge_ << "(x, y) := y - x - 1 = 0 and x >= " << lo
        << " and x <= " << hi;
    return out.str();
  }

  const std::string edge_;
  const int base_, inserts_, origin_;
  int cycle_ = 0, inserted_ = 0;
  int start_, end_;
};

// ----------------------------------------------------------------- linear_rw

Polygon Box(int x0, int x1, int y0, int y1, bool diagonal) {
  Polygon p = {{Rational(-1), Rational(0), Rational(-x0)},
               {Rational(1), Rational(0), Rational(x1)},
               {Rational(0), Rational(-1), Rational(-y0)},
               {Rational(0), Rational(1), Rational(y1)}};
  if (diagonal) p.push_back({Rational(1), Rational(-1), Rational(0)});
  return p;
}

Polygon RandomBox(Rng& rng) {
  const int x0 = Uniform(rng, 0, 28), y0 = Uniform(rng, 0, 28);
  return Box(x0, x0 + Uniform(rng, 2, 8), y0, y0 + Uniform(rng, 2, 8),
             Uniform(rng, 0, 1) == 1);
}

// A nondegenerate triangle with integer vertices in [0, 32]^2, as three
// half-planes oriented towards its interior.
Polygon RandomTriangle(Rng& rng) {
  for (;;) {
    int px[3], py[3];
    for (int k = 0; k < 3; ++k) {
      px[k] = Uniform(rng, 0, 32);
      py[k] = Uniform(rng, 0, 32);
    }
    const long area2 = static_cast<long>(px[1] - px[0]) * (py[2] - py[0]) -
                       static_cast<long>(px[2] - px[0]) * (py[1] - py[0]);
    if (std::labs(area2) < 24) continue;
    Polygon p;
    for (int k = 0; k < 3; ++k) {
      const int q = (k + 1) % 3, r = (k + 2) % 3;
      std::int64_t a = py[q] - py[k], b = -(px[q] - px[k]);
      std::int64_t c = a * px[k] + b * py[k];
      if (a * px[r] + b * py[r] > c) {
        a = -a;
        b = -b;
        c = -c;
      }
      p.push_back({Rational(a), Rational(b), Rational(c)});
    }
    return p;
  }
}

// Relation names: D<k> hold dense-order boxes, P<k> linear triangles.
// Client c owns D<2c>, D<2c+1>, P<2c>, P<2c+1>.
struct LinearRelation {
  std::string name;
  bool dense = false;
  PolygonSet base;     // what a re-Define restores
  PolygonSet growth;   // the tuples inserts add, in order, every cycle
  PolygonSet initial;  // what the catalog starts with
  std::shared_ptr<const PolygonSet> current;
};

class LinearClientStream : public OpStream {
 public:
  LinearClientStream(std::uint64_t seed, int client)
      : rng_(seed * 2 + static_cast<std::uint64_t>(client)),
        chain_("E" + std::to_string(client), kLinearChainBase,
               kLinearChainInserts, Uniform(rng_, 0, 999)) {
    for (int k = 0; k < kLinearRelationsPerClient; ++k) {
      LinearRelation rel;
      rel.dense = k < 2;
      rel.name = std::string(rel.dense ? "D" : "P") +
                 std::to_string(2 * client + k % 2);
      // The data — base catalog and the tuples writes add — is the same
      // for every seed, and every growth cycle adds the same tuples, so the
      // catalog runs through the same states over and over: seeds vary
      // what the reads ask, and the engine's interned polynomials stay
      // bounded however long the run.
      Rng data_rng(1000003u * static_cast<std::uint64_t>(2 * client + k + 1));
      auto draw = [&] {
        return rel.dense ? RandomBox(data_rng) : RandomTriangle(data_rng);
      };
      for (int t = 0; t < kLinearBaseTuples; ++t) rel.base.push_back(draw());
      for (int t = kLinearBaseTuples; t < kLinearMaxTuples; ++t) {
        rel.growth.push_back(draw());
      }
      // The second relation of each kind starts half-way through its
      // growth cycle, so the catalog's size stays level instead of every
      // relation growing and resetting in step.
      rel.initial = rel.base;
      if (k % 2 == 1) {
        rel.initial.insert(rel.initial.end(), rel.growth.begin(),
                           rel.growth.begin() + rel.growth.size() / 2);
      }
      rel.current = std::make_shared<const PolygonSet>(rel.initial);
      relations_.push_back(std::move(rel));
    }
  }

  std::vector<std::string> CatalogDefinitions(int variant) const override {
    std::vector<std::string> defs;
    for (const LinearRelation& rel : relations_) {
      defs.push_back(RelationText(rel.name, rel.initial, 64 * variant));
    }
    defs.push_back(chain_.Definition(variant));
    return defs;
  }

  // One read per relation this client owns, every join of its two
  // triangle relations (the constant 161/10 is outside the loop's grid of
  // sixty-fourths), and a refresh cycle of its chain.
  std::vector<Op> WarmupOps(int variant) const override {
    std::vector<Op> ops;
    for (const LinearRelation& rel : relations_) {
      Op op;
      op.text = rel.dense ? "exists y (" + rel.name +
                                "(x, y) and y <= 161/10 and x <= y)"
                          : "exists y (" + rel.name + "(x, y) and y >= 161/10)";
      ops.push_back(op);
    }
    for (int left : {2, 3}) {
      for (int right : {2, 3}) {
        Op join;
        join.text = "exists z (" + relations_[left].name + "(x, z) and " +
                    relations_[right].name + "(z, y) and z <= 161/10)";
        ops.push_back(join);
      }
    }
    for (Op& op : chain_.Warmup(variant)) ops.push_back(std::move(op));
    return ops;
  }

  // Per 20 ops: 2 writes, 1 QueryFp, 1 refresh of the client's chain (an
  // insert or re-define, then Fixpoint), 16 reads; every 4th read repeats
  // a hot text (Zipf over the last kHotTexts fresh ones).
  Op Next() override {
    switch (PatternAt("RRRRWRRRRFRRRRXWRRRR", ops_++)) {
      case 'W':
        return Write();
      case 'F':
        return MakeRead(FreshRead('P'), OpKind::kFpQuery);
      case 'X':
        return chain_.Next(rng_);
      default:
        break;
    }
    if (reads_++ % 4 == 3 && !hot_.empty()) {
      return MakeRead(hot_[ZipfRank(hot_.size())], OpKind::kQuery);
    }
    // 9 projections, 7 dense-order selections, 4 joins per 20 fresh reads.
    Read read = FreshRead(PatternAt("PDPJDPDPJDPDPJDPDPJP", fresh_++));
    hot_.push_front(read);
    if (hot_.size() > kHotTexts) hot_.pop_back();
    return MakeRead(read, OpKind::kQuery);
  }

 private:
  static constexpr std::size_t kHotTexts = 64;

  enum class Shape { kProjection, kDenseSelect, kJoin };
  struct Read {
    Shape shape;
    int left = 0, right = 0;  // relation indices into relations_
    Rational c;
    std::string text;
  };

  std::size_t ZipfRank(std::size_t n) {
    double total = 0;
    for (std::size_t r = 0; r < n; ++r) total += 1.0 / (r + 1);
    double u = std::uniform_real_distribution<double>(0, total)(rng_);
    for (std::size_t r = 0; r < n; ++r) {
      u -= 1.0 / (r + 1);
      if (u <= 0) return r;
    }
    return n - 1;
  }

  // A read of shape 'P' (projection), 'D' (dense-order selection) or 'J'
  // (join). Constants come from a grid of 2049 sixty-fourths, so fresh
  // texts are drawn from a pool of 16392 per client: 4x the QE cache's
  // 4096 entries, and both clients together 8x.
  Read FreshRead(char shape) {
    Read read;
    read.c = Frac(Uniform(rng_, 0, 32 * 64), 64);
    std::ostringstream text;
    if (shape == 'P') {
      read.shape = Shape::kProjection;
      read.left = 2 + Uniform(rng_, 0, 1);
      text << "exists y (" << relations_[read.left].name
           << "(x, y) and y >= " << Num(read.c) << ")";
    } else if (shape == 'D') {
      read.shape = Shape::kDenseSelect;
      read.left = Uniform(rng_, 0, 1);
      text << "exists y (" << relations_[read.left].name
           << "(x, y) and y <= " << Num(read.c) << " and x <= y)";
    } else {
      read.shape = Shape::kJoin;
      read.left = 2 + Uniform(rng_, 0, 1);
      read.right = 2 + Uniform(rng_, 0, 1);
      text << "exists z (" << relations_[read.left].name << "(x, z) and "
           << relations_[read.right].name << "(z, y) and z <= "
           << Num(read.c) << ")";
    }
    read.text = text.str();
    return read;
  }

  Op MakeRead(const Read& read, OpKind kind) {
    Op op;
    op.kind = kind;
    op.text = read.text;
    std::vector<std::vector<Rational>> probes;
    const int dims = read.shape == Shape::kJoin ? 2 : 1;
    for (int k = 0; k < 12; ++k) {
      std::vector<Rational> p;
      for (int d = 0; d < dims; ++d) p.push_back(Frac(Uniform(rng_, -8, 264), 8));
      probes.push_back(std::move(p));
    }
    const std::shared_ptr<const PolygonSet> left = relations_[read.left].current;
    const std::shared_ptr<const PolygonSet> right =
        relations_[read.right].current;
    const Rational c = read.c;
    Polygon extra;
    std::vector<std::string> columns = {"x"};
    switch (read.shape) {
      case Shape::kProjection:
        extra = {{Rational(0), Rational(-1), -c}};
        break;
      case Shape::kDenseSelect:
        extra = {{Rational(0), Rational(1), c},
                 {Rational(1), Rational(-1), Rational(0)}};
        break;
      case Shape::kJoin:
        columns = {"x", "y"};
        break;
    }
    // At and just beyond the ends of a few tuples' shadows, where a shifted
    // constant or a dropped tuple shows first. For a join the shadow is
    // taken at a fixed y: the x-extent of a left tuple whose z stays in the
    // z-range a right tuple allows at that y.
    auto pick = [&](const PolygonSet& set) {
      return set[Uniform(rng_, 0, static_cast<int>(set.size()) - 1)];
    };
    for (int k = 0; k < 3; ++k) {
      Polygon cut = pick(*left);
      std::vector<Rational> at;
      if (read.shape == Shape::kJoin) {
        const Rational y = Frac(Uniform(rng_, 0, 256), 8);
        Range z = SliceAtSecond(pick(*right), y);
        z.CapAbove(c);
        if (z.empty) continue;
        if (z.has_lo) cut.push_back({Rational(0), Rational(-1), -z.lo});
        if (z.has_hi) cut.push_back({Rational(0), Rational(1), z.hi});
        at.push_back(y);
      } else {
        cut.insert(cut.end(), extra.begin(), extra.end());
      }
      Rational lo, hi;
      if (!FirstColumnExtent(cut, &lo, &hi)) continue;
      for (const Rational& x : {lo - Frac(1, 64), lo, hi, hi + Frac(1, 64)}) {
        std::vector<Rational> p = {x};
        p.insert(p.end(), at.begin(), at.end());
        probes.push_back(std::move(p));
      }
    }
    const Shape shape = read.shape;
    op.probes = probes;
    op.check = [=](const Answer& a, std::string* why) {
      return CheckProbes(a, columns, probes,
                         [&](const std::vector<Rational>& p) {
                           if (shape == Shape::kJoin) {
                             return JoinHolds(*left, *right, c, p[0], p[1]);
                           }
                           return ProjectionHolds(*left, extra, p[0]);
                         },
                         why);
    };
    return op;
  }

  Op Write() {
    LinearRelation& rel = relations_[writes_++ % kLinearRelationsPerClient];
    Op op;
    op.relation = rel.name;
    if (static_cast<int>(rel.current->size()) >= kLinearMaxTuples) {
      op.kind = OpKind::kRedefine;
      op.text = RelationText(rel.name, rel.base);
      rel.current = std::make_shared<const PolygonSet>(rel.base);
      return op;
    }
    const Polygon& added = rel.growth[rel.current->size() - rel.base.size()];
    auto grown = std::make_shared<PolygonSet>(*rel.current);
    grown->push_back(added);
    rel.current = std::move(grown);
    op.kind = OpKind::kInsert;
    op.text = RelationText(rel.name, {added});
    return op;
  }

  Rng rng_;  // read constants, probes, repeats
  Chain chain_;
  std::uint64_t ops_ = 0, reads_ = 0, fresh_ = 0, writes_ = 0;
  std::vector<LinearRelation> relations_;
  std::deque<Read> hot_;
};

// -------------------------------------------------------------------- cad_rw

// cad_select's op stream with one op in five taken from a linear_rw
// client's stream instead: its reads, writes, QueryFp and chain refreshes,
// on a durable database. The CAD selections stay four fifths of the ops
// and nearly all of the time, so the op percentiles fall among them and
// the run's figures hold as steady as cad_select's, while the write path,
// the WAL, QueryFp and the Datalog refreshes run beside them.
class CadRwStream : public OpStream {
 public:
  explicit CadRwStream(std::uint64_t seed) : cad_(seed), linear_(seed, 0) {}

  std::vector<std::string> CatalogDefinitions(int variant) const override {
    std::vector<std::string> defs = cad_.CatalogDefinitions(variant);
    for (std::string& def : linear_.CatalogDefinitions(variant)) {
      defs.push_back(std::move(def));
    }
    return defs;
  }
  std::vector<Op> WarmupOps(int variant) const override {
    std::vector<Op> ops = cad_.WarmupOps(variant);
    for (Op& op : linear_.WarmupOps(variant)) ops.push_back(std::move(op));
    return ops;
  }
  Op Next() override {
    return PatternAt("CCCCL", ops_++) == 'L' ? linear_.Next() : cad_.Next();
  }

 private:
  CadSelectStream cad_;
  LinearClientStream linear_;
  std::uint64_t ops_ = 0;
};

// ----------------------------------------------------------- datalog_refresh

class DatalogStream : public OpStream {
 public:
  explicit DatalogStream(std::uint64_t seed)
      : rng_(seed),
        chain_("Edge", kChainBase, kChainInsertsPerCycle,
               Uniform(rng_, 0, 999)) {}

  std::vector<std::string> CatalogDefinitions(int variant) const override {
    return {chain_.Definition(variant)};
  }
  std::vector<Op> WarmupOps(int variant) const override {
    return chain_.Warmup(variant);
  }
  Op Next() override { return chain_.Next(rng_); }

 private:
  Rng rng_;
  Chain chain_;
};

}  // namespace

Band BandAt(int i) {
  Band b;
  b.a = 1 + i % 3;
  b.h = i - kBands / 2;
  b.v = i % 5 - 2;
  b.r = 3 + i % 2;
  return b;
}

std::unique_ptr<OpStream> MakeStream(const std::string& workload,
                                     std::uint64_t seed, int client) {
  if (workload == "cad_select") return std::make_unique<CadSelectStream>(seed);
  if (workload == "cad_rw") return std::make_unique<CadRwStream>(seed);
  if (workload == "linear_rw") {
    return std::make_unique<LinearClientStream>(seed, client);
  }
  if (workload == "datalog_refresh") {
    return std::make_unique<DatalogStream>(seed);
  }
  return nullptr;
}

int WorkloadClients(const std::string& workload) {
  if (workload == "cad_select" || workload == "cad_rw" ||
      workload == "datalog_refresh") {
    return 1;
  }
  if (workload == "linear_rw") return 2;
  return 0;
}

std::uint64_t OpSequenceHash(const std::string& workload, std::uint64_t seed,
                             int count) {
  std::uint64_t hash = 14695981039346656037ull;
  auto mix = [&hash](const std::string& s) {
    for (unsigned char ch : s) {
      hash ^= ch;
      hash *= 1099511628211ull;
    }
  };
  for (int client = 0; client < WorkloadClients(workload); ++client) {
    auto stream = MakeStream(workload, seed, client);
    for (const std::string& def : stream->CatalogDefinitions(0)) mix(def);
    for (int i = 0; i < count; ++i) {
      Op op = stream->Next();
      mix(OpKindName(op.kind));
      mix(op.text);
    }
  }
  return hash;
}

std::string ReachOf(const std::string& edge) { return "Reach" + edge; }

ccdb::DatalogProgram ClosureProgram(const std::string& edge) {
  using ccdb::DatalogLiteral;
  using ccdb::DatalogRule;
  const std::string reach = ReachOf(edge);
  ccdb::DatalogProgram program;
  program.idb_arities[reach] = 2;
  DatalogRule base;
  base.head = reach;
  base.head_vars = {0, 1};
  base.body.push_back(DatalogLiteral::Rel(edge, {0, 1}));
  program.rules.push_back(base);
  DatalogRule step;
  step.head = reach;
  step.head_vars = {0, 1};
  step.body.push_back(DatalogLiteral::Rel(reach, {0, 2}));
  step.body.push_back(DatalogLiteral::Rel(edge, {2, 1}));
  program.rules.push_back(step);
  return program;
}

}  // namespace perfbench
