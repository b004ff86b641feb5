#ifndef CCDB_ENGINE_SESSION_H_
#define CCDB_ENGINE_SESSION_H_

/// Session contexts (DESIGN.md §16): the execution scope of every read.
/// The read path (Query, Explain, Fixpoint, ...) is implemented here, once;
/// the ConstraintDatabase read methods forward to the database's default
/// session. A Session opened with ConstraintDatabase::OpenSession carries
/// everything that used to be process-global state:
///
///   - an immutable, resolved EngineConfig (base/config.h) — the planner /
///     memo / semi-naive / incremental toggles and the thread count this
///     session runs at, independent of every other session's settings;
///   - a private ThreadPool of config.threads runners;
///   - a unique session id and the config's fingerprint, stamped into
///     every query-log record the session produces (schema v3);
///   - a query-log binding (the global log by default, replaceable with a
///     session-owned instance via SetQueryLog);
///   - an optional pinned MVCC catalog snapshot (PinSnapshot/Unpin): while
///     pinned, every read — parse, lower, plan, execute, whole-query memo
///     key, read-set — runs against that one immutable catalog version,
///     so writers can Define/Insert/Drop concurrently without the session
///     observing any of it.
///
/// The default session (id 0) is the facade: EngineConfig::Process(), the
/// database's CalcFOptions unmodified (kAuto toggles resolve to the process
/// config, explicit ones win), ThreadPool::Shared(), QueryLog::Global(),
/// and the caller's DatalogOptions passed through to Fixpoint unchanged.
///
/// Answers are byte-identical across session configs (plan on/off, memo
/// on/off, any thread count) — the engine's determinism and pure-memo
/// contracts, now checkable in one process by opening two sessions.
///
/// Thread safety: a Session's read methods are safe to call concurrently
/// with other sessions' methods and with database mutators. Pin/Unpin and
/// SetQueryLog synchronize with the session's own reads internally.
/// Lifetime: the database must outlive the session.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "engine/database.h"

namespace ccdb {

class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Unique in this process (1, 2, ... in open order across databases);
  /// 0 for a database's default session.
  std::uint64_t id() const { return id_; }
  /// The immutable configuration this session was opened with.
  const EngineConfig& config() const { return config_; }
  /// 16-hex fingerprint of config(), as stamped into query-log records.
  const std::string& config_fingerprint() const { return fingerprint_; }
  /// The session's private pool (config().threads runners). Never null.
  ThreadPool* pool() const { return pool_.get(); }
  /// The resolved evaluation options: the database's options with the
  /// session config applied (qe.plan / qe.memo forced on or off, qe.pool
  /// pointing at the session pool); unmodified for the default session.
  const CalcFOptions& options() const { return options_; }

  /// Pins the database's CURRENT catalog state: until Unpin, every read
  /// method answers against this one immutable version — concurrent
  /// Define/Insert/Drop by other sessions or the facade are invisible.
  /// Re-pinning replaces the pinned version with the now-current one.
  void PinSnapshot();
  void Unpin();
  bool pinned() const;
  /// The pinned snapshot, or null when not pinned.
  std::shared_ptr<const Catalog::View> snapshot() const;

  /// Routes this session's query-log records to `log` (not owned; must
  /// outlive the session or be reset). Null restores QueryLog::Global().
  void SetQueryLog(QueryLog* log);

  /// Read path — documented on the ConstraintDatabase methods of the same
  /// names, evaluated under this session's options, snapshot (when
  /// pinned), pool, and log binding.
  StatusOr<CalcFResult> Query(const std::string& text) const;
  StatusOr<CalcFResult> QueryWithPolicy(const std::string& text,
                                        const QueryPolicy& policy,
                                        QueryVerdict* verdict = nullptr) const;
  StatusOr<ExplainResult> Explain(const std::string& text) const;
  StatusOr<ExplainAnalyzeResult> ExplainAnalyze(const std::string& text) const;
  StatusOr<std::string> Plan(const std::string& text) const;
  StatusOr<CalcFResult> QueryFp(const std::string& text, std::uint32_t k,
                                FpQeStats* stats = nullptr) const;
  StatusOr<std::vector<std::vector<Rational>>> Solve(
      const std::string& text, const Rational& epsilon) const;
  /// Fixpoint under an opened session's config: the semi-naive,
  /// incremental, plan and memo toggles are forced from config(), caller
  /// options otherwise respected (a caller-supplied pool/governor/profile
  /// wins over the session pool). The default session forces nothing.
  StatusOr<std::map<std::string, ConstraintRelation>> Fixpoint(
      const DatalogProgram& program, const DatalogOptions& options = {},
      DatalogStats* stats = nullptr) const;
  StatusOr<std::vector<std::pair<std::string, std::uint64_t>>> ReadSet(
      const std::string& text) const;

  /// Mutators — applied to the database's CURRENT state (MVCC: writers
  /// never mutate a snapshot; a pinned session keeps reading its pinned
  /// version, including across its own writes, until it re-pins).
  Status Define(const std::string& definition);
  Status Register(const std::string& name, ConstraintRelation relation);
  Status Drop(const std::string& name);
  Status Insert(const std::string& definition);

 private:
  friend class ConstraintDatabase;
  /// The default session of `db`: id 0, EngineConfig::Process(), db's
  /// options unmodified, no private pool.
  explicit Session(ConstraintDatabase* db);
  Session(ConstraintDatabase* db, EngineConfig config);

  /// Query() body; `cache_hit`, when non-null, reports whether the answer
  /// came from the whole-query memo (Explain's cached-plan reporting).
  StatusOr<CalcFResult> QueryImpl(const std::string& text,
                                  bool* cache_hit) const;
  /// The catalog snapshot a read uses: the pinned one, else a fresh one.
  std::shared_ptr<const Catalog::View> ReadSnapshot() const;
  /// The query log this session's records go to.
  QueryLog& Log() const;

  ConstraintDatabase* db_;
  const EngineConfig config_;
  const std::string fingerprint_;
  const std::uint64_t id_;
  /// Null for the default session.
  std::unique_ptr<ThreadPool> pool_;
  CalcFOptions options_;
  /// Guards pinned_ and log_ (the mutable bindings).
  mutable std::mutex mu_;
  std::shared_ptr<const Catalog::View> pinned_;
  QueryLog* log_ = nullptr;
};

}  // namespace ccdb

#endif  // CCDB_ENGINE_SESSION_H_
