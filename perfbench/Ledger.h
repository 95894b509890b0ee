//===- Ledger.h - per-check ledger and metric aggregation -------*- C++ -*-===//
///
/// \file
/// The measurement side of the benchmark: one Sample per check (the
/// bench-side wall time of the public call plus the stage split the call
/// reports through CheckContext::stats() or the serve report), one ledger
/// row per pinned check, and the end-to-end and per-layer metrics folded
/// from them. Nothing here calls into the program under test except to
/// read the statistics it already publishes.
///
//===----------------------------------------------------------------------===//

#ifndef VBMC_PERFBENCH_LEDGER_H
#define VBMC_PERFBENCH_LEDGER_H

#include "support/Rng.h"
#include "vbmc/Engine.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vbmc::perfbench {

/// One pinned check: a program, the request that decides it, and the
/// verdict an independent reference expects.
struct Cell {
  std::string Program; ///< Row label, e.g. "dekker" or "SB+".
  ir::Program Prog;
  std::string Text; ///< Printed program (the serve wire form).
  driver::CheckRequest Req;
  driver::Verdict Expected = driver::Verdict::Unknown;
  /// Where Expected comes from: "table-label", "axiomatic", "corpus".
  std::string Reference;
  /// Wall-clock budget of one check; an undecided one counts at twice it.
  double Budget = 0;
};

/// The stage split of one check, read from the statistics the call
/// publishes (translate.*, sat.*).
struct Stages {
  double TranslateS = 0, UnrollS = 0, EncodeS = 0, SolveS = 0,
         InprocessS = 0;
  uint64_t OutVars = 0, AigNodes = 0, FormulaBytes = 0, Conflicts = 0,
           Decisions = 0, Propagations = 0, IncrementalSolves = 0;

  double stageSum() const {
    return TranslateS + UnrollS + EncodeS + SolveS + InprocessS;
  }
  /// The deterministic counts, for the repeat-exactly check.
  bool sameCounts(const Stages &O) const {
    return OutVars == O.OutVars && AigNodes == O.AigNodes &&
           Conflicts == O.Conflicts && Propagations == O.Propagations &&
           Decisions == O.Decisions;
  }
};

/// Builds Stages from a flat name -> value view of the statistics.
Stages stagesFrom(const std::map<std::string, double> &Stats);

/// Flattens a StatsRegistry (counters and timers) for stagesFrom.
std::map<std::string, double> statsMap(const StatsRegistry &R);

/// One answered check.
struct Sample {
  driver::Verdict Verdict = driver::Verdict::Unknown;
  bool Failed = false; ///< Classified crash/oom/timeout, rejected or shed.
  double Seconds = 0;  ///< Bench-side wall time of the call.
  Stages St;
  /// Serve only: the worker's own seconds (report) and whether the
  /// verdict cache answered.
  double WorkerS = 0;
  bool Cached = false;
};

/// All samples of one cell plus the verdict bookkeeping.
struct CellLedger {
  const Cell *C = nullptr;
  std::vector<Sample> Samples;
  uint64_t Wrong = 0, Undecided = 0, Failed = 0;
  bool CountsRepeat = true;
  /// Traced runs only: statements of the unrolled [[P]]_K.
  uint64_t UnrolledStmts = 0;

  void add(const Sample &S);
  /// Median wall seconds; undecided samples count at twice the budget.
  double medianSeconds() const;
  /// Median of one stage field over the samples.
  double median(double Stages::*Field) const;
  /// The first sample that reports stage data (the counts repeat).
  const Stages &counts() const;
  /// The ledger row as one JSON object.
  std::string rowJson(const std::string &Workload, bool Traced) const;
};

double median(std::vector<double> V);
/// Nearest-rank percentile \p P in (0, 100].
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);

/// Peak resident set of this process and of its reaped children, in MB.
double peakRssMb();

/// The host's speed, taken between checks: a fixed unit-propagation
/// kernel, timed in nanoseconds per watch visit. It keeps two watched
/// literals over a random 3-CNF of 30k variables and 120k clauses (about
/// 4 MB), assigns random decisions and restarts on each conflict, all from
/// fixed seeds. Co-tenants on a shared host slow the solver by up to 1.5x
/// for minutes at a time, through the caches, memory and cores they share;
/// this kernel does the same kind of work and slows with it, while a plain
/// arithmetic loop or a pointer chase does not, or only in part. Scaling a
/// time by nominal / measured speed cancels most of that drift and nothing
/// of the program's own speed, since the kernel is fixed code. Each check
/// (or serve cycle) is scaled by the sample taken just before it, which
/// also follows the drift inside a run.
class HostProbe {
public:
  /// The speed the normalized times are stated at: about what the kernel
  /// reads on a 4-vCPU shared Xeon VM under typical load, so that a
  /// normalized time is close to the time measured there.
  static constexpr double NominalNs = 60;

  HostProbe();
  /// Runs 2^18 watch visits (about 16 ms) and returns the factor taking a
  /// time measured now to one at NominalNs.
  double sample();
  /// Median nanoseconds per visit over the samples.
  double nsPerVisit() const;
  size_t samples() const { return Ns.size(); }

private:
  int value(uint32_t Lit) const;
  void assign(uint32_t Lit);
  void restart();

  /// Three literals per clause (2 * var + sign); the first two watched.
  std::vector<uint32_t> Lits;
  /// Literal L -> the clauses watching its negation, visited when L is
  /// assigned true.
  std::vector<std::vector<uint32_t>> Watches;
  std::vector<int8_t> Values; ///< Per variable: 1 true, -1 false, 0 unset.
  std::vector<uint32_t> Trail;
  size_t Head = 0;
  Rng Decide;
  std::vector<double> Ns;
};

/// Name -> (value, unit) in the order they were set.
class MetricSet {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  /// The "metrics" object of the result line.
  std::string json() const;
  /// One "name = value unit" line per metric.
  std::string text() const;

private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> M;
};

} // namespace vbmc::perfbench

#endif // VBMC_PERFBENCH_LEDGER_H
