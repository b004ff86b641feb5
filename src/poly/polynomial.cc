#include "poly/polynomial.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <mutex>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "base/logging.h"
#include "base/metrics.h"

namespace ccdb {

Monomial::Monomial(std::vector<std::uint32_t> exponents)
    : exponents_(std::move(exponents)) {
  Trim();
}

void Monomial::Trim() {
  while (!exponents_.empty() && exponents_.back() == 0) exponents_.pop_back();
}

Monomial Monomial::Var(int var, std::uint32_t exponent) {
  CCDB_CHECK(var >= 0);
  if (exponent == 0) return Monomial();
  std::vector<std::uint32_t> exps(var + 1, 0);
  exps[var] = exponent;
  return Monomial(std::move(exps));
}

std::uint32_t Monomial::exponent(int var) const {
  if (var < 0 || var >= static_cast<int>(exponents_.size())) return 0;
  return exponents_[var];
}

std::uint32_t Monomial::total_degree() const {
  std::uint32_t sum = 0;
  for (std::uint32_t e : exponents_) sum += e;
  return sum;
}

Monomial Monomial::operator*(const Monomial& other) const {
  std::vector<std::uint32_t> exps(
      std::max(exponents_.size(), other.exponents_.size()), 0);
  for (std::size_t i = 0; i < exponents_.size(); ++i) exps[i] += exponents_[i];
  for (std::size_t i = 0; i < other.exponents_.size(); ++i) {
    exps[i] += other.exponents_[i];
  }
  return Monomial(std::move(exps));
}

StatusOr<Monomial> Monomial::Divide(const Monomial& other) const {
  if (!other.Divides(*this)) {
    return Status::InvalidArgument("monomial does not divide");
  }
  std::vector<std::uint32_t> exps = exponents_;
  for (std::size_t i = 0; i < other.exponents_.size(); ++i) {
    exps[i] -= other.exponents_[i];
  }
  return Monomial(std::move(exps));
}

bool Monomial::Divides(const Monomial& into) const {
  if (exponents_.size() > into.exponents_.size()) return false;
  for (std::size_t i = 0; i < exponents_.size(); ++i) {
    if (exponents_[i] > into.exponents_[i]) return false;
  }
  return true;
}

Monomial Monomial::Pow(std::uint32_t exponent) const {
  std::vector<std::uint32_t> exps = exponents_;
  for (auto& e : exps) e *= exponent;
  return Monomial(std::move(exps));
}

bool Monomial::operator<(const Monomial& other) const {
  // Lex with higher variable indices more significant.
  std::size_t n = std::max(exponents_.size(), other.exponents_.size());
  for (std::size_t i = n; i-- > 0;) {
    std::uint32_t a = i < exponents_.size() ? exponents_[i] : 0;
    std::uint32_t b = i < other.exponents_.size() ? other.exponents_[i] : 0;
    if (a != b) return a < b;
  }
  return false;
}

std::string Monomial::ToString(const std::vector<std::string>& names) const {
  if (is_one()) return "1";
  std::string out;
  for (std::size_t i = 0; i < exponents_.size(); ++i) {
    if (exponents_[i] == 0) continue;
    if (!out.empty()) out += "*";
    if (i < names.size()) {
      out += names[i];
    } else {
      out += "x" + std::to_string(i);
    }
    if (exponents_[i] > 1) out += "^" + std::to_string(exponents_[i]);
  }
  return out;
}

namespace {

using TermMap = std::map<Monomial, Rational>;

std::size_t HashTerms(const TermMap& terms) {
  std::size_t h = 1469598103934665603ull;
  for (const auto& [monomial, coeff] : terms) {
    for (int v = 0; v <= monomial.max_var(); ++v) {
      h = h * 1099511628211ull + monomial.exponent(v);
    }
    h = h * 1099511628211ull + coeff.Hash();
  }
  return h;
}

// Adds c*m into a term map under construction, dropping cancelled terms.
void AddTermTo(TermMap* terms, const Monomial& monomial,
               const Rational& coefficient) {
  if (coefficient.is_zero()) return;
  auto [it, inserted] = terms->emplace(monomial, coefficient);
  if (!inserted) {
    it->second += coefficient;
    if (it->second.is_zero()) terms->erase(it);
  }
}

}  // namespace

/// Process-wide polynomial intern pool: hash → representations. The pool
/// holds strong references, so a pooled rep stays canonical while any
/// handle to it lives; entries nobody else holds are swept out, per shard
/// and amortised (a shard is swept when it has doubled since its last
/// sweep), so the pool tracks the live set instead of every polynomial
/// ever interned. An evicted rep had no other holder, so no live handle
/// can observe that a later equal polynomial gets a new canonical rep.
/// Sharded to keep concurrent canonicalization cheap.
struct Polynomial::Pool {
  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kMinSweep = 64;

  struct Shard {
    std::mutex mu;
    std::unordered_map<std::size_t, std::vector<std::shared_ptr<const Rep>>>
        buckets;
    std::size_t size = 0;                // entries in this shard
    std::size_t sweep_at = kMinSweep;    // size that triggers the next sweep
  };
  Shard shards[kShards];
  std::atomic<std::size_t> entries{0};

  static Pool& Global() {
    static Pool* pool = new Pool();  // leaked: process lifetime
    return *pool;
  }

  std::shared_ptr<const Rep> Intern(const std::shared_ptr<const Rep>& rep) {
    Shard& shard = shards[rep->hash % kShards];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto& bucket = shard.buckets[rep->hash];
    for (const auto& existing : bucket) {
      if (existing->terms == rep->terms) {
        CCDB_METRIC_COUNT("poly_intern_hits", 1);
        return existing;
      }
    }
    rep->interned.store(true, std::memory_order_relaxed);
    bucket.push_back(rep);
    entries.fetch_add(1, std::memory_order_relaxed);
    if (++shard.size >= shard.sweep_at) Sweep(&shard);
    return rep;
  }

  // Drops the entries only the pool holds. Requires shard->mu. A count of
  // 1 cannot rise concurrently: the only other path to the rep is Intern,
  // which needs the lock held here. Destroying a rep takes no lock.
  void Sweep(Shard* shard) {
    std::size_t kept = 0;
    for (auto it = shard->buckets.begin(); it != shard->buckets.end();) {
      auto& bucket = it->second;
      std::erase_if(bucket, [](const std::shared_ptr<const Rep>& rep) {
        return rep.use_count() == 1;
      });
      kept += bucket.size();
      it = bucket.empty() ? shard->buckets.erase(it) : std::next(it);
    }
    entries.fetch_sub(shard->size - kept, std::memory_order_relaxed);
    shard->size = kept;
    shard->sweep_at = std::max(kMinSweep, 2 * kept);
  }
};

Polynomial::Polynomial(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}

Polynomial::Polynomial() {
  static const std::shared_ptr<const Rep>* zero = [] {
    auto rep = std::make_shared<Rep>();
    rep->hash = HashTerms(rep->terms);
    return new std::shared_ptr<const Rep>(
        Pool::Global().Intern(std::move(rep)));
  }();
  rep_ = *zero;
}

Polynomial Polynomial::FromTerms(TermMap terms) {
  auto rep = std::make_shared<Rep>();
  rep->hash = HashTerms(terms);
  rep->terms = std::move(terms);
  return Polynomial(std::move(rep));
}

Polynomial Polynomial::Interned() const {
  if (rep_->interned.load(std::memory_order_relaxed)) return *this;
  return Polynomial(Pool::Global().Intern(rep_));
}

PolyInternStats Polynomial::InternStats() {
  PolyInternStats stats;
  stats.entries = Pool::Global().entries.load(std::memory_order_relaxed);
  return stats;
}

PolyInternStats GetPolyInternStats() { return Polynomial::InternStats(); }

Polynomial::Polynomial(Rational constant) {
  TermMap terms;
  if (!constant.is_zero()) terms.emplace(Monomial(), std::move(constant));
  *this = FromTerms(std::move(terms));
}

Polynomial::Polynomial(std::int64_t constant) : Polynomial(Rational(constant)) {}

Polynomial Polynomial::Var(int var) {
  return Term(Rational(1), Monomial::Var(var));
}

Polynomial Polynomial::Term(Rational coefficient, Monomial monomial) {
  TermMap terms;
  if (!coefficient.is_zero()) {
    terms.emplace(std::move(monomial), std::move(coefficient));
  }
  return FromTerms(std::move(terms));
}

Rational Polynomial::constant_value() const {
  auto it = terms().find(Monomial());
  return it == terms().end() ? Rational(0) : it->second;
}

int Polynomial::max_var() const {
  int result = -1;
  for (const auto& [monomial, coeff] : terms()) {
    result = std::max(result, monomial.max_var());
  }
  return result;
}

std::uint32_t Polynomial::TotalDegree() const {
  std::uint32_t degree = 0;
  for (const auto& [monomial, coeff] : terms()) {
    degree = std::max(degree, monomial.total_degree());
  }
  return degree;
}

std::uint32_t Polynomial::DegreeIn(int var) const {
  std::uint32_t degree = 0;
  for (const auto& [monomial, coeff] : terms()) {
    degree = std::max(degree, monomial.exponent(var));
  }
  return degree;
}

Polynomial Polynomial::operator-() const {
  TermMap result = terms();
  for (auto& [monomial, coeff] : result) coeff = -coeff;
  return FromTerms(std::move(result));
}

Polynomial Polynomial::operator+(const Polynomial& other) const {
  TermMap result = terms();
  for (const auto& [monomial, coeff] : other.terms()) {
    AddTermTo(&result, monomial, coeff);
  }
  return FromTerms(std::move(result));
}

Polynomial Polynomial::operator-(const Polynomial& other) const {
  TermMap result = terms();
  for (const auto& [monomial, coeff] : other.terms()) {
    AddTermTo(&result, monomial, -coeff);
  }
  return FromTerms(std::move(result));
}

Polynomial Polynomial::operator*(const Polynomial& other) const {
  TermMap result;
  for (const auto& [m1, c1] : terms()) {
    for (const auto& [m2, c2] : other.terms()) {
      AddTermTo(&result, m1 * m2, c1 * c2);
    }
  }
  return FromTerms(std::move(result));
}

Polynomial Polynomial::Scale(const Rational& factor) const {
  if (factor.is_zero()) return Polynomial();
  TermMap result = terms();
  for (auto& [monomial, coeff] : result) coeff *= factor;
  return FromTerms(std::move(result));
}

Polynomial Polynomial::Pow(std::uint32_t exponent) const {
  Polynomial result(Rational(1));
  Polynomial base = *this;
  while (exponent != 0) {
    if (exponent & 1u) result *= base;
    base *= base;
    exponent >>= 1;
  }
  return result;
}

Polynomial Polynomial::Derivative(int var) const {
  TermMap result;
  for (const auto& [monomial, coeff] : terms()) {
    std::uint32_t e = monomial.exponent(var);
    if (e == 0) continue;
    auto reduced = monomial.Divide(Monomial::Var(var));
    CCDB_CHECK(reduced.ok());
    AddTermTo(&result, *reduced,
              coeff * Rational(static_cast<std::int64_t>(e)));
  }
  return FromTerms(std::move(result));
}

Rational Polynomial::Evaluate(const std::vector<Rational>& point) const {
  Rational total(0);
  for (const auto& [monomial, coeff] : terms()) {
    Rational term = coeff;
    for (int v = 0; v <= monomial.max_var(); ++v) {
      std::uint32_t e = monomial.exponent(v);
      if (e == 0) continue;
      CCDB_CHECK_MSG(v < static_cast<int>(point.size()),
                     "evaluation point does not cover variable " << v);
      term *= point[v].Pow(static_cast<std::int32_t>(e));
    }
    total += term;
  }
  return total;
}

Polynomial Polynomial::Substitute(int var, const Rational& value) const {
  TermMap result;
  for (const auto& [monomial, coeff] : terms()) {
    std::uint32_t e = monomial.exponent(var);
    if (e == 0) {
      AddTermTo(&result, monomial, coeff);
      continue;
    }
    auto reduced = monomial.Divide(Monomial::Var(var, e));
    CCDB_CHECK(reduced.ok());
    AddTermTo(&result, *reduced,
              coeff * value.Pow(static_cast<std::int32_t>(e)));
  }
  return FromTerms(std::move(result));
}

Polynomial Polynomial::SubstitutePoly(int var,
                                      const Polynomial& replacement) const {
  Polynomial result;
  for (const auto& [monomial, coeff] : terms()) {
    std::uint32_t e = monomial.exponent(var);
    auto reduced = monomial.Divide(Monomial::Var(var, e));
    CCDB_CHECK(reduced.ok());
    Polynomial term = Polynomial::Term(coeff, *reduced);
    if (e > 0) term *= replacement.Pow(e);
    result += term;
  }
  return result;
}

Polynomial Polynomial::RenameVars(const std::vector<int>& mapping) const {
  TermMap result;
  for (const auto& [monomial, coeff] : terms()) {
    Monomial renamed;
    for (int v = 0; v <= monomial.max_var(); ++v) {
      std::uint32_t e = monomial.exponent(v);
      if (e == 0) continue;
      CCDB_CHECK_MSG(v < static_cast<int>(mapping.size()),
                     "rename mapping does not cover variable " << v);
      renamed = renamed * Monomial::Var(mapping[v], e);
    }
    AddTermTo(&result, renamed, coeff);
  }
  return FromTerms(std::move(result));
}

Interval Polynomial::EvaluateInterval(const std::vector<Interval>& box) const {
  Interval total(Rational(0));
  for (const auto& [monomial, coeff] : terms()) {
    Interval term(coeff);
    for (int v = 0; v <= monomial.max_var(); ++v) {
      std::uint32_t e = monomial.exponent(v);
      if (e == 0) continue;
      CCDB_CHECK_MSG(v < static_cast<int>(box.size()),
                     "interval box does not cover variable " << v);
      term = term * box[v].Pow(e);
    }
    total = total + term;
  }
  return total;
}

std::vector<Polynomial> Polynomial::CoefficientsIn(int var) const {
  std::vector<TermMap> maps(DegreeIn(var) + 1);
  for (const auto& [monomial, coeff] : terms()) {
    std::uint32_t e = monomial.exponent(var);
    auto reduced = monomial.Divide(Monomial::Var(var, e));
    CCDB_CHECK(reduced.ok());
    AddTermTo(&maps[e], *reduced, coeff);
  }
  std::vector<Polynomial> coeffs;
  coeffs.reserve(maps.size());
  for (TermMap& map : maps) coeffs.push_back(FromTerms(std::move(map)));
  return coeffs;
}

Polynomial Polynomial::FromCoefficientsIn(
    int var, const std::vector<Polynomial>& coeffs) {
  Polynomial result;
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    result += coeffs[i] * Polynomial::Term(
                              Rational(1),
                              Monomial::Var(var, static_cast<std::uint32_t>(i)));
  }
  return result;
}

Polynomial Polynomial::LeadingCoefficientIn(int var) const {
  if (is_zero()) return Polynomial();
  return CoefficientsIn(var).back();
}

Polynomial Polynomial::IntegerNormalized(Rational* factor) const {
  if (is_zero()) {
    if (factor != nullptr) *factor = Rational(1);
    return Polynomial();
  }
  // lcm of denominators.
  BigInt den_lcm(1);
  for (const auto& [monomial, coeff] : terms()) {
    const BigInt& den = coeff.denominator();
    den_lcm = den_lcm / BigInt::Gcd(den_lcm, den) * den;
  }
  // gcd of scaled numerators.
  BigInt num_gcd(0);
  for (const auto& [monomial, coeff] : terms()) {
    BigInt scaled = coeff.numerator() * (den_lcm / coeff.denominator());
    num_gcd = BigInt::Gcd(num_gcd, scaled);
  }
  Rational scale(den_lcm, num_gcd);  // multiply by this
  // Positive leading coefficient in the term order.
  const Rational& leading = terms().rbegin()->second;
  if ((leading * scale).sign() < 0) scale = -scale;
  if (factor != nullptr) *factor = scale.Inverse();
  return Scale(scale);
}

std::uint64_t Polynomial::MaxCoefficientBitLength() const {
  std::uint64_t bits = 0;
  for (const auto& [monomial, coeff] : terms()) {
    bits = std::max(bits, coeff.bit_length());
  }
  return bits;
}

std::size_t Polynomial::EstimateBytes() const {
  std::size_t bytes = sizeof(Polynomial) + sizeof(Rep);
  for (const auto& [monomial, coeff] : terms()) {
    // Map node + monomial exponent vector + coefficient limbs.
    bytes += 64;
    bytes += static_cast<std::size_t>(monomial.max_var() + 1) *
             sizeof(std::uint32_t);
    bytes += static_cast<std::size_t>(coeff.bit_length() / 8) + 8;
  }
  return bytes;
}

bool Polynomial::operator<(const Polynomial& other) const {
  if (rep_ == other.rep_) return false;
  auto it = terms().begin();
  auto jt = other.terms().begin();
  for (; it != terms().end() && jt != other.terms().end(); ++it, ++jt) {
    if (it->first != jt->first) return it->first < jt->first;
    int cmp = it->second.Compare(jt->second);
    if (cmp != 0) return cmp < 0;
  }
  return it == terms().end() && jt != other.terms().end();
}

std::string Polynomial::ToString(const std::vector<std::string>& names) const {
  if (is_zero()) return "0";
  std::ostringstream out;
  bool first = true;
  // Print highest monomial first for conventional reading order.
  for (auto it = terms().rbegin(); it != terms().rend(); ++it) {
    const auto& [monomial, coeff] = *it;
    Rational magnitude = coeff.Abs();
    if (first) {
      if (coeff.sign() < 0) out << "-";
      first = false;
    } else {
      out << (coeff.sign() < 0 ? " - " : " + ");
    }
    if (monomial.is_one()) {
      out << magnitude.ToString();
    } else if (magnitude == Rational(1)) {
      out << monomial.ToString(names);
    } else {
      out << magnitude.ToString() << "*" << monomial.ToString(names);
    }
  }
  return out.str();
}

std::ostream& operator<<(std::ostream& os, const Polynomial& p) {
  return os << p.ToString();
}

}  // namespace ccdb
