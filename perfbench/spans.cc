#include "spans.h"

#include <fstream>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanRecorder::Begin(const char* name, std::uint64_t op) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  // Stamp last so the bookkeeping above stays outside the span.
  spans_[index].start_ns = NowNs();
  return index;
}

void SpanRecorder::End(int index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool WriteSpans(const std::vector<const SpanRecorder*>& recorders,
                const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::size_t base = 0;
  for (const SpanRecorder* recorder : recorders) {
    const std::vector<Span>& spans = recorder->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << "{\"op\":" << s.op << ",\"id\":" << base + i << ",\"parent\":"
          << (s.parent < 0 ? -1 : static_cast<long long>(base + s.parent))
          << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}\n";
    }
    base += spans.size();
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
