//===- Ledger.cpp - per-check ledger and metric aggregation ---------------===//

#include "Ledger.h"

#include "support/Json.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <sys/resource.h>

using namespace vbmc;
using namespace vbmc::perfbench;

namespace {

double at(const std::map<std::string, double> &M, const char *Key) {
  auto It = M.find(Key);
  return It == M.end() ? 0 : It->second;
}

uint64_t countAt(const std::map<std::string, double> &M, const char *Key) {
  return static_cast<uint64_t>(at(M, Key));
}

} // namespace

Stages vbmc::perfbench::stagesFrom(const std::map<std::string, double> &M) {
  Stages S;
  S.TranslateS = at(M, "translate.seconds");
  S.UnrollS = at(M, "sat.unroll.seconds");
  S.EncodeS = at(M, "sat.encode.seconds");
  S.SolveS = at(M, "sat.solve.seconds");
  S.InprocessS = at(M, "sat.inprocess.seconds");
  S.OutVars = countAt(M, "translate.out_vars");
  S.AigNodes = countAt(M, "sat.encode.nodes");
  S.FormulaBytes = countAt(M, "sat.encode.bytes");
  S.Conflicts = countAt(M, "sat.solve.conflicts");
  S.Decisions = countAt(M, "sat.solve.decisions");
  S.Propagations = countAt(M, "sat.solve.propagations");
  S.IncrementalSolves = countAt(M, "sat.incremental.solves");
  return S;
}

std::map<std::string, double>
vbmc::perfbench::statsMap(const StatsRegistry &R) {
  std::map<std::string, double> M;
  for (const StatsRegistry::Entry &E : R.snapshot())
    M[E.Name] = E.IsCounter ? static_cast<double>(E.Count) : E.Seconds;
  return M;
}

void CellLedger::add(const Sample &S) {
  if (S.Failed)
    ++Failed;
  else if (S.Verdict == driver::Verdict::Unknown)
    ++Undecided;
  else if (S.Verdict != C->Expected)
    ++Wrong;
  // A cache hit carries no stage data; every other sample must repeat the
  // first one's counts exactly (the solver is deterministic).
  if (!S.Cached && !S.Failed) {
    for (const Sample &Prev : Samples)
      if (!Prev.Cached && !Prev.Failed) {
        CountsRepeat &= Prev.St.sameCounts(S.St);
        break;
      }
  }
  Samples.push_back(S);
}

double CellLedger::medianSeconds() const {
  // Serve cells: the checks a worker ran, not the cache hits.
  bool AnyFresh = false;
  for (const Sample &S : Samples)
    AnyFresh |= !S.Cached;
  std::vector<double> V;
  for (const Sample &S : Samples)
    if (!AnyFresh || !S.Cached)
      V.push_back(S.Verdict == driver::Verdict::Unknown ? 2 * C->Budget
                                                        : S.Seconds);
  return perfbench::median(V);
}

double CellLedger::median(double Stages::*Field) const {
  std::vector<double> V;
  for (const Sample &S : Samples)
    if (!S.Cached)
      V.push_back(S.St.*Field);
  return perfbench::median(V);
}

const Stages &CellLedger::counts() const {
  static const Stages None;
  for (const Sample &S : Samples)
    if (!S.Cached && !S.Failed)
      return S.St;
  return None;
}

std::string CellLedger::rowJson(const std::string &Workload,
                                bool Traced) const {
  const Stages &N = counts();
  json::JsonWriter W;
  W.beginObject();
  W.key("workload").value(Workload);
  W.key("program").value(C->Program);
  W.key("k").value(C->Req.Mode == driver::EngineMode::Incremental
                       ? C->Req.MaxK
                       : C->Req.Opts.K);
  W.key("l").value(C->Req.Opts.L);
  W.key("mode").value(driver::engineModeName(C->Req.Mode));
  W.key("reference").value(C->Reference);
  W.key("expected").value(driver::verdictName(C->Expected));
  // The verdict row shows the worst outcome seen over the repetitions.
  const char *Verdict = Wrong       ? "WRONG"
                        : Failed    ? "failed"
                        : Undecided ? "unknown"
                                    : driver::verdictName(C->Expected);
  W.key("verdict").value(Verdict);
  W.key("reps").value(static_cast<uint64_t>(Samples.size()));
  W.key("seconds").value(medianSeconds());
  W.key("translate_s").value(median(&Stages::TranslateS));
  W.key("unroll_s").value(median(&Stages::UnrollS));
  W.key("encode_s").value(median(&Stages::EncodeS));
  W.key("solve_s").value(median(&Stages::SolveS));
  W.key("inprocess_s").value(median(&Stages::InprocessS));
  W.key("out_vars").value(N.OutVars);
  W.key("aig_nodes").value(N.AigNodes);
  W.key("formula_bytes").value(N.FormulaBytes);
  W.key("conflicts").value(N.Conflicts);
  W.key("decisions").value(N.Decisions);
  W.key("propagations").value(N.Propagations);
  W.key("counts_repeat").value(CountsRepeat);
  if (Traced)
    W.key("unrolled_stmts").value(UnrolledStmts);
  W.endObject();
  return W.str();
}

double vbmc::perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double vbmc::perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100 * V.size()));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double vbmc::perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(std::max(X, 1e-9));
  return std::exp(LogSum / V.size());
}

double vbmc::perfbench::peakRssMb() {
  struct rusage Self {}, Kids {};
  ::getrusage(RUSAGE_SELF, &Self);
  ::getrusage(RUSAGE_CHILDREN, &Kids);
  return std::max(Self.ru_maxrss, Kids.ru_maxrss) / 1024.0; // KiB -> MiB
}

void MetricSet::set(const std::string &Name, double Value,
                    const std::string &Unit) {
  M.push_back({Name, {Value, Unit}});
}

std::string MetricSet::json() const {
  json::JsonWriter W;
  W.beginObject();
  for (const auto &[Name, VU] : M) {
    W.key(Name).beginObject();
    W.key("value").value(VU.first);
    W.key("unit").value(VU.second);
    W.endObject();
  }
  W.endObject();
  return W.str();
}

std::string MetricSet::text() const {
  std::string S;
  char Buf[160];
  for (const auto &[Name, VU] : M) {
    std::snprintf(Buf, sizeof(Buf), "  %-28s %14.6g %s\n", Name.c_str(),
                  VU.first, VU.second.c_str());
    S += Buf;
  }
  return S;
}

HostProbe::HostProbe()
    : Watches(2 * 30000), Values(30000, 0), Decide(0xDEC1DE) {
  Rng R(0xC4A5E);
  constexpr uint32_t Clauses = 120000;
  for (uint32_t C = 0; C < Clauses; ++C) {
    for (int K = 0; K < 3; ++K)
      Lits.push_back(static_cast<uint32_t>(R.nextBelow(Watches.size())));
    Watches[Lits[3 * C] ^ 1].push_back(C);
    Watches[Lits[3 * C + 1] ^ 1].push_back(C);
  }
}

int HostProbe::value(uint32_t Lit) const {
  int V = Values[Lit >> 1];
  return Lit & 1 ? -V : V;
}

void HostProbe::assign(uint32_t Lit) {
  Values[Lit >> 1] = Lit & 1 ? -1 : 1;
  Trail.push_back(Lit);
}

void HostProbe::restart() {
  for (uint32_t Lit : Trail)
    Values[Lit >> 1] = 0;
  Trail.clear();
  Head = 0;
}

double HostProbe::sample() {
  constexpr uint64_t Visits = 1u << 18;
  Timer W;
  uint64_t Done = 0;
  while (Done < Visits) {
    if (Head == Trail.size()) {
      // Decide a random unset variable; restart when none turns up.
      uint32_t V = static_cast<uint32_t>(Decide.nextBelow(Values.size()));
      for (int Try = 0; Try < 64 && Values[V]; ++Try)
        V = static_cast<uint32_t>(Decide.nextBelow(Values.size()));
      if (Values[V]) {
        restart();
        continue;
      }
      assign(2 * V + static_cast<uint32_t>(Decide.nextBelow(2)));
    }
    uint32_t P = Trail[Head++]; // P is true: its negation is false.
    std::vector<uint32_t> &Ws = Watches[P];
    size_t J = 0;
    bool Conflict = false;
    for (size_t I = 0; I < Ws.size(); ++I) {
      ++Done;
      uint32_t C = Ws[I];
      uint32_t *L = &Lits[3 * C];
      if (L[0] == (P ^ 1))
        std::swap(L[0], L[1]);
      if (Conflict || value(L[0]) > 0) {
        Ws[J++] = C;
        continue;
      }
      if (value(L[2]) >= 0) { // Watch the third literal instead.
        std::swap(L[1], L[2]);
        Watches[L[1] ^ 1].push_back(C);
        continue;
      }
      Ws[J++] = C;
      if (value(L[0]) < 0)
        Conflict = true;
      else
        assign(L[0]);
    }
    Ws.resize(J);
    if (Conflict)
      restart();
  }
  Ns.push_back(W.elapsedSeconds() * 1e9 / Done);
  return NominalNs / Ns.back();
}

double HostProbe::nsPerVisit() const { return perfbench::median(Ns); }
