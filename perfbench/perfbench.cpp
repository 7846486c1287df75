//===- perfbench.cpp - The repository benchmark ---------------------------===//
//
// Part of the Thresher reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload suite_cold|deep_parallel|serve_mixed --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--verbose]
//
// Runs one workload (perfbench/README.md) and prints, as the last line of
// stdout, one JSON object: correct, attempted, failed, and the metrics —
// end-to-end with --trace 0, per-layer with --trace 1. A traced run also
// writes its spans to DIR/<workload>-seed<N>.spans.jsonl; serve_mixed keeps
// its cache root under DIR while it runs. Exits 1 when any verdict or
// report fails its check.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload suite_cold|deep_parallel|"
               "serve_mixed --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--verbose]\n");
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (K == "--verbose") {
      A.Verbose = true;
      continue;
    }
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    char *End = nullptr;
    if (K == "--workload") {
      A.Workload = V;
    } else if (K == "--seed") {
      A.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        return false;
    } else if (K == "--seconds") {
      A.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(A.Seconds > 0) || A.Seconds > 600)
        return false;
    } else if (K == "--trace") {
      if (V != "0" && V != "1")
        return false;
      A.Trace = V == "1";
    } else if (K == "--work-dir") {
      A.WorkDir = V;
    } else {
      return false;
    }
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    usage();
    return 2;
  }
  RunResult R;
  if (A.Workload == "suite_cold") {
    R = runSuiteCold(A);
  } else if (A.Workload == "deep_parallel") {
    R = runDeepParallel(A);
  } else if (A.Workload == "serve_mixed") {
    R = runServeMixed(A);
  } else {
    usage();
    return 2;
  }

  if (A.Trace) {
    std::string Path = A.WorkDir + "/" + A.Workload + "-seed" +
                       std::to_string(A.Seed) + ".spans.jsonl";
    if (!tracer().writeJsonl(Path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
  }

  JsonValue Doc = JsonValue::makeObject();
  Doc.set("correct", JsonValue::makeBool(R.Failed == 0));
  Doc.set("attempted", JsonValue::makeUint(R.Attempted));
  Doc.set("failed", JsonValue::makeUint(R.Failed));
  Doc.set("metrics", R.Metrics.toJson(A.Trace));
  std::printf("%s\n", Doc.toString(-1).c_str());
  return R.Failed == 0 ? 0 : 1;
}
