#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  constexpr size_t kBeyond = 10;
  const size_t n = v.size();
  // Below eleven samples the minimum, which has the most samples beyond
  // it, stands in; the value then moves smoothly as the count crosses 11.
  const size_t idx = n > kBeyond ? n - kBeyond - 1 : 0;
  t.value = v[idx];
  t.beyond = n - idx - 1;
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          (void)std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonNumber(values[i]);
  }
  return out + "]";
}

void JsonObject::Key(std::string_view key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonString(key);
  body_ += ": ";
}

JsonObject& JsonObject::Num(std::string_view key, double v) {
  Key(key);
  body_ += JsonNumber(v);
  return *this;
}

JsonObject& JsonObject::Str(std::string_view key, std::string_view v) {
  Key(key);
  body_ += JsonString(v);
  return *this;
}

JsonObject& JsonObject::Bool(std::string_view key, bool v) {
  Key(key);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Raw(std::string_view key, std::string_view json) {
  Key(key);
  body_ += json;
  return *this;
}

void PrintResult(const RunResult& result) {
  for (const auto* list : {&result.metrics, &result.shown}) {
    for (const Metric& m : *list) {
      std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("detail %s\n", result.detail.str().c_str());
  JsonObject metrics;
  for (const Metric& m : result.metrics) {
    metrics.Raw(m.name,
                JsonObject().Num("value", m.value).Str("unit", m.unit).str());
  }
  JsonObject line;
  line.Bool("correct", result.failed == 0)
      .Raw("attempted", std::to_string(result.attempted))
      .Raw("failed", std::to_string(result.failed))
      .Raw("metrics", metrics.str());
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
