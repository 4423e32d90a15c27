#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "bench.h"

namespace perfbench {

int32_t SpanRecorder::Open(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.query = query_;
  const auto index = static_cast<int32_t>(spans_.size());
  spans_.push_back(s);
  open_.push_back(index);
  spans_.back().start_ns = NowNs();
  return index;
}

void SpanRecorder::Close(int32_t index) {
  if (!enabled_ || index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

namespace {

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].duration_ns();
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.duration_ns();
  }
  return self;
}

}  // namespace

QueryProfile ProfileQuery(const std::vector<Span>& spans, uint32_t query) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  QueryProfile p;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].query != query) continue;
    p.self_ns[spans[i].name] += self[i];
    if (spans[i].parent < 0 && spans[i].duration_ns() > 0) {
      p.coverage = 1.0 - static_cast<double>(self[i]) /
                             static_cast<double>(spans[i].duration_ns());
    }
  }
  return p;
}

bool WriteSpansJson(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::fputs("[\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "  %s%s\n",
                 JsonObject()
                     .Str("name", s.name)
                     .Num("start_us", static_cast<double>(s.start_ns - origin) / 1e3)
                     .Num("end_us", static_cast<double>(s.end_ns - origin) / 1e3)
                     .Num("parent", s.parent)
                     .Num("query", s.query)
                     .str()
                     .c_str(),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
