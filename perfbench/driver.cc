// perfbench_driver: runs one benchmark workload and prints its result as
// one JSON line (the last line of standard output).
//
//   perfbench_driver --workload paper|serve|mixed --seed N --seconds S
//                    --trace 0|1
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Each run also writes its per-query figures (and, traced, a Chrome trace
// of the driver's spans) under .bench_out/ in the working directory. The
// exit code is non-zero when any result check fails.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "trace_spans.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload paper|serve|mixed "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.process_start = perfbench::Clock::now();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') return Usage();
  }
  if (argc % 2 == 0 || !(options.seconds > 0.0)) return Usage();
  perfbench::SpanRecorder::Get().Enable(options.trace);

  perfbench::RunReport report;
  sjos::Status st;
  if (options.workload == "paper") {
    st = perfbench::RunPaper(options, &report);
  } else if (options.workload == "serve") {
    st = perfbench::RunServe(options, &report);
  } else if (options.workload == "mixed") {
    st = perfbench::RunMixed(options, &report);
  } else {
    return Usage();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n",
                 st.ToString().c_str());
    report.correct = false;
  }
  std::fflush(stderr);
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct ? 0 : 1;
}
