#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// The benchmark's own span recorder: spans are kept in memory (one
// recorder per client) and written out as JSON lines when the run
// ends. A span's layer is the first dotted component of its name.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t NowNs();

struct Span {
  const char* name = "";  // a string literal
  std::uint64_t op = 0;   // spans of one op share this id
  int parent = -1;        // index into the recorder's spans, -1 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double micros() const { return (end_ns - start_ns) / 1e3; }
};

class SpanRecorder {
 public:
  /// Opens a span under the innermost open one (or as a root).
  int Begin(const char* name, std::uint64_t op);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::uint64_t op)
      : recorder_(recorder),
        index_(recorder == nullptr ? -1 : recorder->Begin(name, op)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

/// Writes every span of `recorders` as one JSON object per line:
/// {"op":..,"id":..,"parent":..,"name":"..","start_ns":..,"end_ns":..};
/// ids are unique across recorders. Returns false on an I/O error.
bool WriteSpans(const std::vector<const SpanRecorder*>& recorders,
                const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
