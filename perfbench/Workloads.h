//===- Workloads.h - the benchmark's three workloads ------------*- C++ -*-===//
///
/// \file
/// Each workload builds its pinned checks from the seed (set-up), runs
/// them for the requested time, checks every verdict against a reference
/// that is not the SAT pipeline, and folds the samples into end-to-end
/// and per-layer metrics:
///
///   table1_bugs      Table 1's unfenced protocols, UNSAFE (bug finding)
///   litmus_observer  litmus observer queries against the axiomatic oracle
///   serve_corpus     the pinned corpus through serve::Server/Client
///
//===----------------------------------------------------------------------===//

#ifndef VBMC_PERFBENCH_WORKLOADS_H
#define VBMC_PERFBENCH_WORKLOADS_H

#include "Ledger.h"

#include <cstdint>
#include <string>
#include <vector>

namespace vbmc::perfbench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  /// Measure for this long; every pinned check still runs at least once.
  double Seconds = 10;
  bool Trace = false;
  /// One check per workload, once (the benchmark's self-test).
  bool Smoke = false;
  /// Self-test of the verdict check: flip every expected verdict so a
  /// correct program must be reported wrong.
  bool InvertReference = false;
  std::string CorpusDir = "perfbench/corpus";
  /// Where serve_corpus binds its daemon socket.
  std::string SocketDir = ".";
};

struct WorkloadResult {
  std::vector<Cell> Cells;
  std::vector<CellLedger> Ledger;
  MetricSet EndToEnd, PerLayer;
  uint64_t Attempted = 0;
  /// Wrong verdicts plus classified failures, rejected or shed requests.
  uint64_t Errors = 0;
  uint64_t Wrong = 0;
  /// Human-readable lines printed before the result (span summary,
  /// overhead, serve counters).
  std::vector<std::string> Notes;
};

/// Runs \p O.Workload. False (with \p Err) when it could not run at all:
/// unknown name, missing corpus, daemon start failure.
bool runWorkload(const RunOptions &O, WorkloadResult &Out, std::string &Err);

} // namespace vbmc::perfbench

#endif // VBMC_PERFBENCH_WORKLOADS_H
