// Shared declarations of the repository benchmark (see perfbench/METRICS.md
// for what every metric means and why each workload exists).
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Median of `v` (0 for an empty sample); takes a copy so callers keep order.
double Median(std::vector<double> v);

/// The tail the benchmark reports: the highest percentile with at least ten
/// samples beyond it. With fewer than eleven samples no such percentile
/// exists and the minimum is reported; `percentile` and `beyond` say which
/// sample it was, so a short run's "tail" is never mistaken for a real one.
struct Tail {
  double value = 0;
  double percentile = 0;  ///< share of samples at or below `value`, in %
  size_t samples = 0;     ///< sample count the tail was taken from
  size_t beyond = 0;      ///< samples strictly after it in sorted order
};
Tail TailOf(std::vector<double> v);

// --- JSON text -------------------------------------------------------------

/// Shortest text that reads back as exactly `v`; non-finite values, which
/// JSON cannot carry, print as 0.
std::string JsonNumber(double v);
std::string JsonString(std::string_view s);
std::string JsonArray(const std::vector<double>& values);

/// An object built member by member, in insertion order.
class JsonObject {
 public:
  JsonObject& Num(std::string_view key, double v);
  JsonObject& Str(std::string_view key, std::string_view v);
  JsonObject& Bool(std::string_view key, bool v);
  /// `json` must already be valid JSON text (an object, array, ...).
  JsonObject& Raw(std::string_view key, std::string_view json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(std::string_view key);
  std::string body_;
};

// --- Results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one invocation reports: the counts and metrics of the final line,
/// plus a detail object (host fingerprint, tail percentile, plan codes, ...)
/// printed on the line before it.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Printed in the table but kept out of the final line: values that are
  /// 0 on every passing run (failed_frac), which no bound can be a share of.
  std::vector<Metric> shown;
  JsonObject detail;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Prints the human-readable metric table, the detail line and, last, the
/// one-line JSON result.
void PrintResult(const RunResult& result);

// --- Workloads -------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans; empty = not written.
  std::string spans_out;
};

bool IsWorkload(std::string_view name);

/// Runs one workload: set-up, the measured closed loop, verification of
/// every result and, when traced, the per-layer replays. Fills `result`
/// with the end-to-end metrics (untraced) or the per-layer ones (traced).
void RunWorkload(const Args& args, RunResult* result);

// --- Host ------------------------------------------------------------------

/// CPU model, core count, every cache level with its size and sharing, the
/// active kernel ISA, the huge-page mode and whether a PMU answers, as a
/// JSON object. Absolute numbers compare only within one host class.
std::string HostFingerprintJson();

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
