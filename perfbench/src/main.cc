// perfbench: the repository benchmark binary.
//
//   perfbench --workload <project_4m|stream_16m|serve_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <path>]
//
// Prints a metric table, a `detail` line and, as the last line, one JSON
// object {correct, attempted, failed, metrics}. Exits 1 when any query
// fails or returns a wrong result, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<project_4m|stream_16m|serve_mix> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-out <path>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 120) {
        return Usage("--seconds takes a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !perfbench::IsWorkload(args.workload)) {
    return Usage("unknown or missing --workload");
  }
  perfbench::RunResult result;
  perfbench::RunWorkload(args, &result);
  perfbench::PrintResult(result);
  return result.failed == 0 ? 0 : 1;
}
