//===- main.cpp - the VBMC benchmark harness ------------------------------===//
//
// Runs one workload and prints, in order: one ledger row per pinned check
// ("ledger {...}"), the run's notes (serve counters, span summary), every
// metric with its unit, and as the last line the result object
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// whose metrics are the end-to-end set, or with --trace 1 the per-layer
// set. Usage:
//
//   vbmc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--smoke] [--corpus DIR] [--socket-dir DIR]
//                  [--invert-reference]
//
// Exit codes: 0 all verdicts right, 1 a wrong verdict, 2 usage or a
// workload that could not run.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "support/Cli.h"
#include "support/Json.h"

#include <cstdio>

using namespace vbmc;
using namespace vbmc::perfbench;

int main(int Argc, char **Argv) {
  CommandLine CL =
      CommandLine::parse(Argc, Argv, {"smoke", "invert-reference"});
  std::vector<std::string> Unknown =
      CL.unknownFlags({"workload", "seed", "seconds", "trace", "smoke",
                       "corpus", "socket-dir", "invert-reference"});
  RunOptions O;
  O.Workload = CL.getString("workload");
  O.Seed = static_cast<uint64_t>(CL.getInt("seed", 1));
  O.Seconds = CL.getDouble("seconds", 10);
  O.Trace = CL.getInt("trace", 0) != 0;
  O.Smoke = CL.hasFlag("smoke");
  O.InvertReference = CL.hasFlag("invert-reference");
  O.CorpusDir = CL.getString("corpus", O.CorpusDir);
  O.SocketDir = CL.getString("socket-dir", O.SocketDir);
  if (!Unknown.empty() || O.Workload.empty()) {
    std::fprintf(stderr, "usage: vbmc_perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--smoke]\n");
    return 2;
  }

  WorkloadResult R;
  std::string Err;
  if (!runWorkload(O, R, Err)) {
    std::fprintf(stderr, "perfbench: %s: %s\n", O.Workload.c_str(),
                 Err.c_str());
    return 2;
  }

  std::printf("workload %s seed %llu trace %d\n", O.Workload.c_str(),
              static_cast<unsigned long long>(O.Seed), O.Trace ? 1 : 0);
  for (const CellLedger &L : R.Ledger)
    std::printf("ledger %s\n", L.rowJson(O.Workload, O.Trace).c_str());
  for (const std::string &N : R.Notes)
    std::printf("%s\n", N.c_str());
  std::printf("end-to-end:\n%s", R.EndToEnd.text().c_str());
  std::printf("  %-28s %14.6g share\n", "error_share",
              R.Attempted ? double(R.Errors) / R.Attempted : 0.0);
  if (O.Trace)
    std::printf("per-layer:\n%s", R.PerLayer.text().c_str());

  bool Correct = R.Wrong == 0 && R.Attempted > 0;
  json::JsonWriter W;
  W.beginObject();
  W.key("correct").value(Correct);
  W.key("attempted").value(R.Attempted);
  W.key("failed").value(R.Errors);
  W.key("metrics").raw(O.Trace ? R.PerLayer.json() : R.EndToEnd.json());
  W.endObject();
  std::printf("%s\n", W.str().c_str());
  return Correct ? 0 : 1;
}
