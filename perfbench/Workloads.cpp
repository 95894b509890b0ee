//===- Workloads.cpp - the benchmark's three workloads --------------------===//

#include "Workloads.h"

#include "bmc/Unroll.h"
#include "fuzz/Differ.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "litmus/Litmus.h"
#include "protocols/Protocols.h"
#include "serve/Client.h"
#include "serve/Serve.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Timer.h"
#include "translation/Translate.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace vbmc;
using namespace vbmc::perfbench;

namespace {

constexpr double ProtocolBudget = 60; // Per check, table1_bugs.
constexpr double LitmusBudget = 10;   // Per observer query.
/// Set-up is timed several times, spread over the run, and the median
/// reported: a sub-millisecond set-up timed in one burst reads up to 1.8x
/// apart between processes on a shared host.
constexpr unsigned SetupReps = 5; // Up front; in-process workloads add one
                                  // per check, serve_corpus one per probe.
constexpr unsigned ServeProbes = 6; // Daemon set-ups spread over a run.

template <class T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.nextBelow(I)]);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// Bench-side spans around the calls into each layer, kept in memory and
/// summarised when the run ends.
class SpanLog {
public:
  uint32_t open(const char *Name, uint32_t Parent) {
    Spans.push_back({Name, Parent, Epoch.elapsedSeconds(), 0});
    return static_cast<uint32_t>(Spans.size());
  }
  void close(uint32_t Id) { Spans[Id - 1].End = Epoch.elapsedSeconds(); }

  /// Total and self seconds per span name.
  std::map<std::string, std::pair<double, double>> totals() const {
    std::vector<double> ChildTime(Spans.size() + 1, 0);
    for (const Span &S : Spans)
      ChildTime[S.Parent] += S.End - S.Start;
    std::map<std::string, std::pair<double, double>> T;
    for (size_t I = 0; I < Spans.size(); ++I) {
      double D = Spans[I].End - Spans[I].Start;
      T[Spans[I].Name].first += D;
      T[Spans[I].Name].second += D - ChildTime[I + 1];
    }
    return T;
  }

  std::vector<std::string> summary() const {
    std::map<std::string, size_t> N;
    for (const Span &S : Spans)
      ++N[S.Name];
    std::vector<std::string> Lines;
    char Buf[160];
    for (const auto &[Name, TS] : totals()) {
      std::snprintf(Buf, sizeof(Buf),
                    "span %-14s n=%-6zu total=%.6fs self=%.6fs",
                    Name.c_str(), N[Name], TS.first, TS.second);
      Lines.push_back(Buf);
    }
    return Lines;
  }

private:
  struct Span {
    const char *Name;
    uint32_t Parent; ///< 0 = root.
    double Start, End;
  };
  Timer Epoch;
  std::vector<Span> Spans;
};

uint64_t countStmts(const std::vector<ir::Stmt> &Body) {
  uint64_t N = 0;
  for (const ir::Stmt &S : Body)
    N += 1 + countStmts(S.Then) + countStmts(S.Else);
  return N;
}

/// The traced-only calls: [[.]]_K and the unroller, timed from outside.
/// Returns the unrolled program's statement count.
uint64_t traceLayers(const Cell &C, SpanLog &Spans, uint32_t Parent) {
  translation::TranslationOptions TO;
  TO.K = C.Req.Mode == driver::EngineMode::Incremental ? C.Req.MaxK
                                                       : C.Req.Opts.K;
  TO.CasAllowance = C.Req.Opts.CasAllowance;
  uint32_t T = Spans.open("translation", Parent);
  translation::TranslationResult TR = translation::translateToSc(C.Prog, TO);
  Spans.close(T);
  uint32_t U = Spans.open("bmc.unroll", Parent);
  ir::Program Unrolled = bmc::unrollLoops(TR.Prog, C.Req.Opts.L);
  Spans.close(U);
  uint64_t N = 0;
  for (const ir::Process &P : Unrolled.Procs)
    N += countStmts(P.Body);
  return N;
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

bool usesCasOrFence(const std::vector<ir::Stmt> &Body) {
  for (const ir::Stmt &S : Body)
    if (S.Kind == ir::StmtKind::Cas || S.Kind == ir::StmtKind::Fence ||
        usesCasOrFence(S.Then) || usesCasOrFence(S.Else))
      return true;
  return false;
}

/// A Single-mode SAT check of a mutex protocol, with the table benches'
/// CAS allowance rule (6 stamps when the program has a CAS or fence,
/// else 1; bench/BenchCommon.h's runVbmc), pinned here so the benchmark
/// does not move when the table benches do.
Cell protocolCell(std::string Name, ir::Program P, uint32_t K, uint32_t L,
                  driver::Verdict Expected) {
  bool CasStamps = false;
  for (const ir::Process &Proc : P.Procs)
    CasStamps |= usesCasOrFence(Proc.Body);
  Cell C;
  C.Program = std::move(Name);
  C.Prog = std::move(P);
  C.Req.Mode = driver::EngineMode::Single;
  C.Req.Opts.K = K;
  C.Req.Opts.L = L;
  C.Req.Opts.CasAllowance = CasStamps ? 6 : 1;
  C.Req.Opts.Backend = driver::BackendKind::Sat;
  C.Req.Opts.BudgetSeconds = ProtocolBudget;
  C.Budget = ProtocolBudget;
  C.Expected = Expected;
  C.Reference = "table-label";
  return C;
}

/// Table 1 (K=2, L=2): every unfenced protocol is UNSAFE under RA.
/// dekker (21-32 s), lamport (13 s) and peterson_0(3) (36-40 s) are left
/// out: any one of them outlasts a run. bakery (3.9 s) and szymanski_0
/// (2.3 s) are left out too: with them a pass takes 7 s, each check gets
/// a handful of samples, and the run-to-run spread doubles.
std::vector<Cell> table1Cells() {
  using namespace protocols;
  const MutexOptions O = MutexOptions::unfenced(2);
  std::vector<Cell> Cells;
  auto Add = [&](const char *Name, ir::Program P) {
    Cells.push_back(
        protocolCell(Name, std::move(P), 2, 2, driver::Verdict::Unsafe));
  };
  Add("burns", makeBurns(O));
  Add("peterson_0", makePeterson(O));
  Add("sim_dekker", makeSimplifiedDekker(O));
  return Cells;
}

/// The litmus classics as observer queries, exactly the ones
/// litmus::runVbmcSweep issues with one positive and one negative query
/// per test: the first oracle outcome in Incremental mode up to the
/// sweep's AutoK (expected UNSAFE), and the sweep's fixed-seed perturbed
/// non-outcome at K=2 in Single mode (expected SAFE). The set is fixed:
/// the proof cost of a perturbation varies tenfold between choices
/// (0.25-3.1 s), so a seeded choice would swamp the run-to-run spread.
std::vector<Cell> litmusCells() {
  // The queries kept, by row label. SB (7 s a pair), LB (7.3 s), CAS-MP
  // (8.6 s), MP+ and CoRR+ (1.4-1.9 s, 160 MB) are left out: with them a
  // pass takes 5-15 s and each query gets a handful of samples in a run.
  // The CoRR non-outcome (1.7 s) goes with its outcome.
  static const std::set<std::string> Keep = {"MP-", "CoWW-", "CoWW+", "R-",
                                             "R+"};
  std::vector<Cell> Cells;
  Rng PerturbRng(0x117EAF5); // runVbmcSweep's stream, over every classic.
  for (const litmus::LitmusTest &T : litmus::classicTests()) {
    std::vector<ir::Value> Negative;
    for (const std::vector<ir::Value> &Outcome : T.Expected) {
      if (Outcome.empty())
        break;
      std::vector<ir::Value> P = Outcome;
      P[PerturbRng.nextBelow(P.size())] += 1;
      if (!T.Expected.count(P)) {
        Negative = P;
        break;
      }
    }
    if (T.Expected.empty())
      continue;
    uint32_t AutoK = T.Prog.numProcs() + 1;
    for (const ir::Process &Proc : T.Prog.Procs)
      for (const ir::Stmt &S : Proc.Body)
        AutoK += S.Kind == ir::StmtKind::Read || S.Kind == ir::StmtKind::Cas;

    Cell Pos;
    Pos.Program = T.Name + "+";
    Pos.Prog = litmus::makeObserverProgram(T, *T.Expected.begin());
    Pos.Req.Mode = driver::EngineMode::Incremental;
    Pos.Req.MaxK = AutoK;
    Pos.Req.Opts.L = 1; // Litmus programs are loop-free.
    Pos.Req.Opts.CasAllowance = 6;
    Pos.Req.Opts.Backend = driver::BackendKind::Sat;
    Pos.Req.Opts.BudgetSeconds = LitmusBudget;
    Pos.Budget = LitmusBudget;
    Pos.Expected = driver::Verdict::Unsafe;
    Pos.Reference = "axiomatic";
    if (!Negative.empty() && Keep.count(T.Name + "-")) {
      Cell Neg = Pos;
      Neg.Program = T.Name + "-";
      Neg.Prog = litmus::makeObserverProgram(T, Negative);
      Neg.Req.Mode = driver::EngineMode::Single;
      Neg.Req.Opts.K = 2;
      Neg.Expected = driver::Verdict::Safe;
      Cells.push_back(std::move(Neg));
    }
    if (Keep.count(Pos.Program))
      Cells.push_back(std::move(Pos));
  }
  return Cells;
}

/// The `// expect: safe|unsafe k=<n>` lines of every pinned corpus file,
/// each as a Single-mode SAT check at L=3 with the fuzz replay's CAS
/// allowance (the configuration ConformanceTest checks them under).
bool corpusCells(const std::string &Dir, std::vector<Cell> &Cells,
                 std::string &Err) {
  std::vector<std::filesystem::path> Files;
  std::error_code EC;
  for (const auto &E : std::filesystem::directory_iterator(Dir, EC))
    if (E.path().extension() == ".ra")
      Files.push_back(E.path());
  if (EC || Files.empty()) {
    Err = "no corpus files in '" + Dir + "'";
    return false;
  }
  std::sort(Files.begin(), Files.end());
  for (const auto &F : Files) {
    std::ifstream In(F);
    std::stringstream Buf;
    Buf << In.rdbuf();
    auto Parsed = ir::parseProgram(Buf.str());
    if (!Parsed) {
      Err = "cannot parse " + F.string();
      return false;
    }
    std::istringstream Lines(Buf.str());
    std::string Line;
    while (std::getline(Lines, Line)) {
      std::istringstream Toks(Line);
      std::string Slashes, Word, Verdict, KTok;
      Toks >> Slashes >> Word >> Verdict >> KTok;
      if (Slashes != "//" || Word != "expect:")
        continue;
      uint64_t K = 0;
      if ((Verdict != "safe" && Verdict != "unsafe") ||
          KTok.rfind("k=", 0) != 0 || !json::parseUint(KTok.substr(2), K)) {
        Err = "bad expect line in " + F.string() + ": " + Line;
        return false;
      }
      Cell C;
      C.Program = F.stem().string() + "@" + KTok;
      C.Prog = *Parsed;
      C.Text = ir::printProgram(C.Prog);
      C.Req.Mode = driver::EngineMode::Single;
      C.Req.Opts.K = static_cast<uint32_t>(K);
      C.Req.Opts.L = 3;
      C.Req.Opts.CasAllowance =
          fuzz::casAllowanceFor(C.Prog, fuzz::DiffOptions());
      C.Req.Opts.Backend = driver::BackendKind::Sat;
      C.Budget = serve::ServerOptions().DefaultDeadlineSeconds;
      C.Expected = Verdict == "safe" ? driver::Verdict::Safe
                                     : driver::Verdict::Unsafe;
      C.Reference = "corpus";
      Cells.push_back(std::move(C));
    }
  }
  return true;
}

/// \p P with every shared variable and register renamed: new to the
/// verdict cache, the same work for a worker.
std::string renamed(const ir::Program &P, const std::string &Suffix) {
  ir::Program Q = P;
  for (std::string &V : Q.Vars)
    V += Suffix;
  for (ir::RegDecl &R : Q.Regs)
    R.Name += Suffix;
  return ir::printProgram(Q);
}

void invert(std::vector<Cell> &Cells) {
  for (Cell &C : Cells)
    C.Expected = C.Expected == driver::Verdict::Safe ? driver::Verdict::Unsafe
                                                     : driver::Verdict::Safe;
}

//===----------------------------------------------------------------------===//
// Running one check
//===----------------------------------------------------------------------===//

/// Reads the verdict, failure and stage split of a serve response's
/// vbmc-run-report/v1 document into \p S; \p ReportSeconds gets the
/// report's own backend plus translation seconds. False on a malformed
/// document.
bool fromReport(const std::string &Json, Sample &S, double &ReportSeconds) {
  json::Value Report;
  if (!json::parse(Json, Report) || !Report.isObject())
    return false;
  auto Str = [&](const char *Key) {
    const json::Value *V = Report.get(Key);
    return V && V->isString() ? V->asString() : std::string();
  };
  auto Num = [&](const char *Key) {
    const json::Value *V = Report.get(Key);
    return V && V->isNumber() ? V->asNumber() : 0.0;
  };
  std::map<std::string, double> Stats;
  if (const json::Value *St = Report.get("stats"))
    for (const auto &[K, V] : St->members())
      if (V.isNumber())
        Stats[K] = V.asNumber();
  S.St = stagesFrom(Stats);
  S.Verdict = driver::verdictFromName(Str("verdict"));
  S.Failed = Str("failure") != "none";
  ReportSeconds = Num("seconds") + Num("translate_seconds");
  return true;
}

/// Runs \p C once. A fresh Engine per check: a warm encoding cache would
/// make the repetitions of an Incremental query cheaper than the first.
Sample runCheck(const Cell &C) {
  driver::Engine E;
  CheckContext Ctx(C.Req.Opts.BudgetSeconds);
  Timer W;
  driver::CheckReport R = E.run(C.Prog, C.Req, Ctx);
  Sample S;
  S.Seconds = W.elapsedSeconds();
  S.Verdict = R.Outcome;
  S.Failed = R.failed();
  S.St = stagesFrom(statsMap(Ctx.stats()));
  return S;
}

//===----------------------------------------------------------------------===//
// Folding samples into metrics
//===----------------------------------------------------------------------===//

/// Per-layer metrics of one pass over the pinned checks: per-cell medians
/// of the stage times, the (repeating) counts, summed over the cells.
void foldLayers(const std::vector<CellLedger> &Ledger, MetricSet &M) {
  double Translate = 0, Unroll = 0, Encode = 0, Solve = 0, Inproc = 0,
         Other = 0;
  double OutVars = 0, Stmts = 0, Nodes = 0, Bytes = 0, Conflicts = 0,
         Decisions = 0, Props = 0, IncSolves = 0;
  for (const CellLedger &L : Ledger) {
    Translate += L.median(&Stages::TranslateS);
    Unroll += L.median(&Stages::UnrollS);
    Encode += L.median(&Stages::EncodeS);
    Solve += L.median(&Stages::SolveS);
    Inproc += L.median(&Stages::InprocessS);
    std::vector<double> Rest;
    for (const Sample &S : L.Samples)
      if (!S.Cached)
        Rest.push_back(std::max(0.0, (S.WorkerS > 0 ? S.WorkerS : S.Seconds) -
                                         S.St.stageSum()));
    Other += median(Rest);
    Stmts += L.UnrolledStmts;
    const Stages &N = L.counts();
    OutVars += N.OutVars;
    Nodes += N.AigNodes;
    Bytes += N.FormulaBytes;
    Conflicts += N.Conflicts;
    Decisions += N.Decisions;
    Props += N.Propagations;
    IncSolves += N.IncrementalSolves;
  }
  M.set("translation.seconds", Translate, "s");
  M.set("translation.out_vars", OutVars, "count");
  M.set("bmc.unroll.seconds", Unroll, "s");
  M.set("bmc.unrolled_stmts", Stmts, "count");
  M.set("bmc.encode.seconds", Encode, "s");
  M.set("formula.aig_nodes", Nodes, "count");
  M.set("formula.bytes", Bytes, "bytes");
  M.set("sat.solve.seconds", Solve, "s");
  M.set("sat.conflicts", Conflicts, "count");
  M.set("sat.decisions", Decisions, "count");
  M.set("sat.propagations", Props, "count");
  M.set("sat.props_per_s", Solve > 0 ? Props / Solve : 0, "1/s");
  M.set("sat.props_per_conflict", Conflicts > 0 ? Props / Conflicts : 0,
        "count");
  M.set("sat.inprocess.seconds", Inproc, "s");
  M.set("vbmc.incremental.solves", IncSolves, "count");
  M.set("vbmc.engine.other_s", Other, "s");
}

void foldVerdicts(WorkloadResult &Out) {
  for (const CellLedger &L : Out.Ledger) {
    Out.Attempted += L.Samples.size();
    Out.Errors += L.Wrong + L.Failed;
    Out.Wrong += L.Wrong;
  }
}

double decidedShare(const std::vector<CellLedger> &Ledger) {
  uint64_t Decided = 0, All = 0;
  for (const CellLedger &L : Ledger) {
    All += L.Samples.size();
    Decided += L.Samples.size() - L.Wrong - L.Undecided - L.Failed;
  }
  return All ? static_cast<double>(Decided) / All : 0;
}

void setServeLayers(MetricSet &M, double Rtt, double Worker, double Overhead,
                    double HitShare, double Restarts) {
  M.set("serve.rtt_s_p50", Rtt, "s");
  M.set("serve.worker_s_p50", Worker, "s");
  M.set("serve.overhead_s_p50", Overhead, "s");
  M.set("serve.cache_hit_share", HitShare, "share");
  M.set("serve.worker_restarts", Restarts, "count");
}

/// A run's timing samples: the wall time of each timed pass (or serve
/// cycle) and each verdict, as measured and times the host probe's scale
/// taken just before it.
struct Timings {
  std::vector<double> Walls, Verdicts, NormWalls, NormVerdicts;

  void wall(double S, double K) {
    Walls.push_back(S);
    NormWalls.push_back(S * K);
  }
  void verdict(double S, double K) {
    Verdicts.push_back(S);
    NormVerdicts.push_back(S * K);
  }
};

/// The timing metrics, normalized; the figures as measured go to the
/// notes, with the host's latency and the sample counts.
void setTimes(WorkloadResult &Out, const HostProbe &Host, const Timings &T) {
  // Every pass (cycle) times the same number of checks.
  auto PerS = [&](const std::vector<double> &Walls) {
    double W = median(Walls);
    return W > 0 ? T.Verdicts.size() / (Walls.size() * W) : 0;
  };
  MetricSet &E2E = Out.EndToEnd;
  E2E.set("norm_wall_s", median(T.NormWalls), "s");
  E2E.set("norm_checks_per_s", PerS(T.NormWalls), "1/s");
  E2E.set("norm_verdict_s_p50", median(T.NormVerdicts), "s");
  E2E.set("norm_verdict_s_geomean", geomean(T.NormVerdicts), "s");
  E2E.set("norm_verdict_s_p75", percentile(T.NormVerdicts, 75), "s");
  Out.PerLayer.set("host.probe_ns", Host.nsPerVisit(), "ns");
  char Buf[320];
  std::snprintf(Buf, sizeof(Buf),
                "host: %.3f ns per probe visit (median of %zu samples); as "
                "measured: wall_s %.6g checks_per_s %.6g verdict_s_p50 %.6g "
                "verdict_s_geomean %.6g verdict_s_p75 %.6g (%zu walls, %zu "
                "verdicts)",
                Host.nsPerVisit(), Host.samples(), median(T.Walls),
                PerS(T.Walls), median(T.Verdicts), geomean(T.Verdicts),
                percentile(T.Verdicts, 75), T.Walls.size(),
                T.Verdicts.size());
  Out.Notes.push_back(Buf);
}

//===----------------------------------------------------------------------===//
// In-process workloads
//===----------------------------------------------------------------------===//

using CellBuilder = std::vector<Cell> (*)();

bool runInProcess(const RunOptions &O, CellBuilder Build,
                  WorkloadResult &Out) {
  // Set-up: build the inputs and their oracle answers.
  std::vector<double> SetupTimes;
  auto TimeSetup = [&] {
    Timer W;
    std::vector<Cell> Cells = Build();
    SetupTimes.push_back(W.elapsedSeconds());
    return Cells;
  };
  for (unsigned I = 0; I < SetupReps; ++I)
    Out.Cells = TimeSetup();
  if (O.Smoke)
    Out.Cells.resize(1);
  if (O.InvertReference)
    invert(Out.Cells);
  for (const Cell &C : Out.Cells)
    Out.Ledger.emplace_back().C = &C;

  // Whole passes over the checks, each in a seeded order, while the next
  // pass still fits in the run by the median pass so far. Pass 0 warms
  // the process up and is not timed unless it is the only one (smoke).
  SpanLog Spans;
  HostProbe Host;
  double CheckS = 0, TraceS = 0;
  Timings T;
  Rng Order(O.Seed);
  Timer Clock;
  for (unsigned Pass = 0;; ++Pass) {
    if (Pass > 0 && (O.Smoke || Clock.elapsedSeconds() +
                                        median(T.Walls) > O.Seconds))
      break;
    std::vector<size_t> Perm(Out.Cells.size());
    for (size_t I = 0; I < Perm.size(); ++I)
      Perm[I] = I;
    shuffle(Perm, Order);
    double PassS = 0, PassNormS = 0;
    std::vector<std::pair<double, double>> PassVerdicts; // Seconds, scale.
    for (size_t I : Perm) {
      TimeSetup();
      double K = Host.sample();
      const Cell &C = Out.Cells[I];
      uint32_t Root = 0;
      if (O.Trace) {
        Timer TW;
        Root = Spans.open("check", 0);
        Out.Ledger[I].UnrolledStmts = traceLayers(C, Spans, Root);
        TraceS += TW.elapsedSeconds();
      }
      uint32_t Run = O.Trace ? Spans.open("vbmc.engine", Root) : 0;
      Sample S = runCheck(C);
      if (O.Trace) {
        Spans.close(Run);
        Spans.close(Root);
      }
      CheckS += S.Seconds;
      PassS += S.Seconds;
      PassNormS += S.Seconds * K;
      PassVerdicts.push_back(
          {S.Verdict == driver::Verdict::Unknown ? 2 * C.Budget : S.Seconds,
           K});
      Out.Ledger[I].add(S);
    }
    if (Pass == 1) // A timed pass replaces the warm-up's figures.
      T = Timings();
    T.Walls.push_back(PassS);
    T.NormWalls.push_back(PassNormS);
    for (auto [V, K] : PassVerdicts)
      T.verdict(V, K);
  }

  foldVerdicts(Out);
  MetricSet &E2E = Out.EndToEnd;
  E2E.set("setup_s", median(SetupTimes), "s");
  setTimes(Out, Host, T);
  E2E.set("decided_share", decidedShare(Out.Ledger), "share");
  E2E.set("peak_rss_mb", peakRssMb(), "MB");

  foldLayers(Out.Ledger, Out.PerLayer);
  setServeLayers(Out.PerLayer, 0, 0, 0, 0, 0);
  Out.PerLayer.set("trace.overhead_share", CheckS > 0 ? TraceS / CheckS : 0,
                   "share");
  if (O.Trace)
    for (std::string &L : Spans.summary())
      Out.Notes.push_back(std::move(L));
  return true;
}

//===----------------------------------------------------------------------===//
// serve_corpus
//===----------------------------------------------------------------------===//

constexpr unsigned ServeWorkers = 2;
constexpr unsigned InFlight = 4;

/// One request of the stream: which pinned check, and its text.
struct StreamItem {
  uint32_t Cell;
  bool Repeat; ///< Exact text of an earlier request (a verdict-cache hit).
  std::string Text;
};

/// Cycle 0 warms the verdict cache with every check once. Each later
/// cycle sends every check once under fresh names (new to the cache) and
/// half as many exact repeats of texts drawn from the previous cycle, in
/// a seeded order. Repeats are a third of the stream, not a half: at a
/// half the median falls between the hit and the miss latencies and
/// swings with noise. Each cycle finishes before the next starts, so every
/// repeat's source has been answered (and cached) before it is sent.
std::vector<StreamItem> buildCycle(const std::vector<Cell> &Cells,
                                   uint64_t Seed, uint32_t Cycle,
                                   const std::vector<StreamItem> &Prev,
                                   bool Smoke) {
  Rng R = Rng::derived(Seed, Cycle);
  std::vector<StreamItem> Items;
  for (uint32_t I = 0; I < Cells.size(); ++I)
    Items.push_back({I, false,
                     Cycle == 0 ? Cells[I].Text
                                : renamed(Cells[I].Prog,
                                          "_c" + std::to_string(Cycle))});
  if (Cycle == 0)
    return Items;
  size_t Repeats = Smoke ? 1 : Items.size() / 2;
  for (size_t I = 0; I < Repeats; ++I) {
    const StreamItem &Src = Prev[R.nextBelow(Prev.size())];
    Items.push_back({Src.Cell, true, Src.Text});
  }
  if (!Smoke)
    shuffle(Items, R);
  return Items;
}

struct Daemon {
  serve::ServerOptions Opts;
  std::unique_ptr<serve::Server> S;
  std::thread Waiter;
  serve::Client C;

  bool start(const std::string &Sock, std::string &Err) {
    Opts.SocketPath = Sock;
    Opts.Workers = ServeWorkers;
    S = std::make_unique<serve::Server>(Opts);
    if (!S->start(&Err))
      return false;
    Waiter = std::thread([this] { S->wait(); });
    if (!C.connect(Sock, 10, &Err)) {
      stop();
      return false;
    }
    return true;
  }
  void stop() {
    C.close();
    S->requestDrain("perfbench");
    if (Waiter.joinable())
      Waiter.join();
  }
};

bool runServe(const RunOptions &O, WorkloadResult &Out, std::string &Err) {
  std::string Sock = O.SocketDir + "/perfbench-" +
                     std::to_string(::getpid()) + ".sock";
  // Set-up: read and pin the corpus, start the daemon, connect. Timed up
  // front (keeping the last daemon) and again by probe daemons between
  // cycles, whose drain is not timed.
  std::vector<double> SetupTimes;
  std::unique_ptr<Daemon> D;
  auto TimeSetup = [&](const std::string &Path, std::vector<Cell> &Cells) {
    Timer W;
    Cells.clear();
    if (!corpusCells(O.CorpusDir, Cells, Err))
      return std::unique_ptr<Daemon>();
    auto New = std::make_unique<Daemon>();
    if (!New->start(Path, Err))
      return std::unique_ptr<Daemon>();
    SetupTimes.push_back(W.elapsedSeconds());
    return New;
  };
  for (unsigned I = 0; I < SetupReps; ++I) {
    if (D)
      D->stop();
    if (!(D = TimeSetup(Sock, Out.Cells)))
      return false;
  }
  if (O.Smoke)
    Out.Cells.resize(1);
  if (O.InvertReference)
    invert(Out.Cells);
  for (const Cell &C : Out.Cells)
    Out.Ledger.emplace_back().C = &C;

  Timings T;
  uint64_t Answered = 0, Hits = 0;
  double TraceS = 0, Measured = 0;
  SpanLog Spans;
  HostProbe Host; // Sampled between cycles, while the daemon is idle.
  std::vector<StreamItem> Prev;
  bool Broken = false;
  for (uint32_t Cycle = 0; !Broken; ++Cycle) {
    if (Cycle > 1 && (O.Smoke || Measured >= O.Seconds))
      break;
    std::vector<StreamItem> Items =
        buildCycle(Out.Cells, O.Seed, Cycle, Prev, O.Smoke);
    double K = Host.sample();
    std::map<std::string, std::pair<size_t, Timer>> Pending;
    size_t Next = 0;
    Timer CycleW;
    while (Next < Items.size() || !Pending.empty()) {
      while (Pending.size() < InFlight && Next < Items.size()) {
        const StreamItem &It = Items[Next];
        const Cell &C = Out.Cells[It.Cell];
        if (O.Trace && !It.Repeat && Cycle > 0) {
          Timer TW;
          uint32_t Root = Spans.open("check", 0);
          Out.Ledger[It.Cell].UnrolledStmts = traceLayers(C, Spans, Root);
          Spans.close(Root);
          TraceS += TW.elapsedSeconds();
        }
        serve::Request Rq;
        Rq.Id = std::to_string(Cycle) + "." + std::to_string(Next);
        Rq.Program = It.Text;
        Rq.Check = C.Req;
        Pending.emplace(Rq.Id, std::make_pair(Next, Timer()));
        if (!D->C.send(Rq)) {
          Err = "daemon closed the connection";
          Broken = true;
          break;
        }
        ++Next;
      }
      if (Broken)
        break;
      serve::Response Resp;
      std::string RErr;
      if (!D->C.receive(Resp, 2 * Out.Cells.front().Budget + 30, &RErr)) {
        Err = "no response: " + RErr;
        Broken = true;
        break;
      }
      auto P = Pending.find(Resp.Id);
      if (P == Pending.end())
        continue;
      double Rtt = P->second.second.elapsedSeconds();
      const StreamItem &It = Items[P->second.first];
      Pending.erase(P);
      if (Cycle == 0)
        continue; // Warm-up: not measured.
      Sample S;
      if (Resp.ReportJson.empty() ||
          !fromReport(Resp.ReportJson, S, S.WorkerS))
        S.Verdict = driver::verdictFromName(Resp.Verdict);
      S.Seconds = Rtt;
      S.Cached = Resp.Cached;
      S.Failed |= Resp.Status != "ok" || Resp.Failure != "none";
      Hits += S.Cached;
      ++Answered;
      T.verdict(S.Verdict == driver::Verdict::Unknown && !S.Failed
                    ? 2 * Out.Cells[It.Cell].Budget
                    : Rtt,
                K);
      Out.Ledger[It.Cell].add(S);
    }
    if (Cycle > 0) {
      T.wall(CycleW.elapsedSeconds(), K);
      Measured += T.Walls.back();
    }
    if (!O.Smoke && SetupTimes.size() < SetupReps + ServeProbes &&
        Measured >= O.Seconds * (SetupTimes.size() - SetupReps) / ServeProbes) {
      std::vector<Cell> Scratch;
      std::unique_ptr<Daemon> Probe = TimeSetup(Sock + ".probe", Scratch);
      if (!Probe) {
        Broken = true;
        break;
      }
      Probe->stop();
    }
    Prev = std::move(Items);
  }
  D->stop();
  const serve::ServerSummary &Sum = D->S->summary();
  if (Broken)
    return false;

  foldVerdicts(Out); // Rejected and shed requests are failed samples.
  MetricSet &E2E = Out.EndToEnd;
  E2E.set("setup_s", median(SetupTimes), "s");
  setTimes(Out, Host, T);
  E2E.set("decided_share", decidedShare(Out.Ledger), "share");
  E2E.set("peak_rss_mb", peakRssMb(), "MB");

  foldLayers(Out.Ledger, Out.PerLayer);
  std::vector<double> Workers, Overheads;
  for (const CellLedger &L : Out.Ledger)
    for (const Sample &S : L.Samples)
      if (!S.Cached && !S.Failed) {
        Workers.push_back(S.WorkerS);
        Overheads.push_back(S.Seconds - S.WorkerS);
      }
  setServeLayers(Out.PerLayer, median(T.Verdicts), median(Workers),
                 median(Overheads),
                 Answered ? static_cast<double>(Hits) / Answered : 0,
                 static_cast<double>(Sum.WorkerRestarts));
  Out.PerLayer.set("trace.overhead_share",
                   Measured > 0 ? TraceS / Measured : 0, "share");
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "serve: %llu answered in %zu measured cycles, %llu cache "
                "hits, %llu shed, %llu rejected, %llu worker restarts",
                static_cast<unsigned long long>(Answered), T.Walls.size(),
                static_cast<unsigned long long>(Hits),
                static_cast<unsigned long long>(Sum.Shed),
                static_cast<unsigned long long>(Sum.Rejected),
                static_cast<unsigned long long>(Sum.WorkerRestarts));
  Out.Notes.push_back(Buf);
  if (O.Trace)
    for (std::string &L : Spans.summary())
      Out.Notes.push_back(std::move(L));
  return true;
}

} // namespace

bool vbmc::perfbench::runWorkload(const RunOptions &O, WorkloadResult &Out,
                                  std::string &Err) {
  if (O.Workload == "table1_bugs")
    return runInProcess(O, table1Cells, Out);
  if (O.Workload == "litmus_observer")
    return runInProcess(O, litmusCells, Out);
  if (O.Workload == "serve_corpus")
    return runServe(O, Out, Err);
  Err = "unknown workload '" + O.Workload + "'";
  return false;
}
