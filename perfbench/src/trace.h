// In-memory spans for the traced run. The benchmark records a span around
// each call it makes into a layer's public functions; nothing inside the
// library is instrumented.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< layer call, e.g. "join", "decluster"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  uint32_t query = 0;   ///< spans of one query share this id

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Records the spans of one thread. A disabled recorder records nothing, so
/// the untraced run pays one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Spans opened from now on belong to query `id`.
  void SetQuery(uint32_t id) { query_ = id; }
  /// Opens a span nested in the innermost open one; returns its index.
  int32_t Open(const char* name);
  void Close(int32_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint32_t query_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), index_(rec != nullptr ? rec->Open(name) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int32_t index_;
};

/// One query's spans summed: self time by span name (a span's duration
/// minus its direct children's; the spans of one thread nest and never
/// overlap), and the share of the root span's wall time its child spans
/// cover.
struct QueryProfile {
  std::map<std::string, int64_t> self_ns;
  double coverage = 0;
};
QueryProfile ProfileQuery(const std::vector<Span>& spans, uint32_t query);

/// Writes the spans as a JSON array (times in microseconds from the first
/// span). Returns false when the file cannot be written.
bool WriteSpansJson(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
