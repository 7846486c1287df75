//===- CliWorkloads.cpp - suite_cold and deep_parallel --------------------===//
//
// Part of the Thresher reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Both workloads repeat passes of `thresher check --json`-equivalent
// checks — compile, points-to, thresh, render — in one process, until the
// run's seconds are spent. A pass is timed over that chain only; the
// verification of each report happens between passes, off the clock.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "android/AndroidModel.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

using namespace perfbench;
using namespace thresher;

namespace {

struct AppInput {
  std::string Name;
  std::string Source;
  uint64_t Budget = 10000;
  TrueLeakList TrueLeaks;
};

struct CheckConfig {
  bool Annotate = false;
  unsigned Threads = 1;
  unsigned SearchThreads = 1;
};

/// What one check leaves behind for verification.
struct CheckRecord {
  double TimedS = 0; ///< compile -> report bytes, wall seconds.
  std::string DeterministicJson;
  uint32_t RefutedAlarms = 0;
  uint64_t Consulted = 0, Timeouts = 0, Prefetched = 0, Queries = 0;
  bool Ok = true;
};

/// One `thresher check --json` equivalent. Only the chain from source text
/// to report bytes is timed.
CheckRecord checkApp(const AppInput &A, const CheckConfig &C, uint64_t Req,
                     LayerTotals &L) {
  CheckRecord Out;
  SpanScope Check("check", Req);
  uint64_t T0 = nowNs();
  CompileResult CR;
  {
    SpanScope S("frontend", Req);
    CR = compileAndroidApp(A.Source);
  }
  uint64_t T1 = nowNs();
  if (!CR.ok()) {
    std::fprintf(stderr, "perfbench: %s failed to compile\n", A.Name.c_str());
    Out.Ok = false;
    return Out;
  }
  PTAOptions PO;
  if (C.Annotate)
    annotateHashMapEmptyTable(*CR.Prog, PO);
  std::unique_ptr<PointsToResult> PTA;
  {
    SpanScope S("pta", Req);
    PTA = PointsToAnalysis(*CR.Prog, PO).run();
  }
  uint64_t T2 = nowNs();
  SymOptions SO;
  SO.EdgeBudget = A.Budget;
  SO.SearchThreads = C.SearchThreads;
  LeakChecker LC(*CR.Prog, *PTA, activityBaseClass(*CR.Prog), SO);
  LeakReport R;
  {
    SpanScope S("leak", Req);
    R = LC.run(C.Threads);
  }
  uint64_t T3 = nowNs();
  std::string Json;
  {
    SpanScope S("report", Req);
    std::ostringstream OS;
    LC.writeJsonReport(OS, R);
    Json = OS.str();
  }
  uint64_t T4 = nowNs();
  Out.TimedS = double(T4 - T0) * 1e-9;

  L.CompileMs += double(T1 - T0) * 1e-6;
  L.PtaMs += double(T2 - T1) * 1e-6;
  L.LeakS += double(T3 - T2) * 1e-9;
  L.RenderMs += double(T4 - T3) * 1e-6;
  ++L.Compiles;
  ++L.Ptas;
  ++L.Renders;
  ++L.Reports;
  L.ReportKb += double(Json.size()) / 1024.0;
  L.addChecker(LC, R);

  ReportJsonOptions JO;
  JO.DeterministicOnly = true;
  std::ostringstream DS;
  LC.writeJsonReport(DS, R, JO);
  Out.DeterministicJson = DS.str();
  Out.RefutedAlarms = R.RefutedAlarms;
  Out.Consulted = R.Edges.size();
  Out.Timeouts = R.TimeoutEdges;
  Out.Prefetched = R.PrefetchedEdges;
  Out.Queries = LC.stats().get("sym.queriesProcessed");

  // Every seeded true leak must come back LEAK or LEAK_TIMEOUT.
  for (const auto &[Global, Label] : A.TrueLeaks) {
    bool Found = false;
    for (const AlarmResult &AR : R.Alarms)
      if (AR.Status != AlarmStatus::Refuted &&
          CR.Prog->globalName(AR.Source) == Global &&
          PTA->Locs.label(*CR.Prog, AR.Activity) == Label)
        Found = true;
    if (!Found) {
      std::fprintf(stderr, "perfbench: %s: true leak %s ~> %s not reported\n",
                   A.Name.c_str(), Global.c_str(), Label.c_str());
      Out.Ok = false;
    }
  }
  return Out;
}

RunResult runCliWorkload(const Args &A, const std::vector<AppSpec> &Specs,
                         const CheckConfig &C) {
  RunResult Out;
  // A traced run needs a traced and an untraced pass.
  const size_t MinPasses = A.Trace ? 2 : 1;
  HostSpeed Speed(C.Threads * C.SearchThreads);
  LayerTotals Layers;
  tracer().setEnabled(A.Trace);
  double SetupS = measureSetup(Specs, C.Annotate, Layers);
  tracer().setEnabled(false);

  std::vector<AppInput> Apps;
  double SourceKb = 0;
  for (const AppSpec &Spec : Specs) {
    AppInput In;
    In.Name = Spec.Name;
    In.Source = generateAppSource(Spec);
    In.Budget = Spec.EdgeBudget;
    In.TrueLeaks = trueLeakNames(Spec);
    SourceKb += double(In.Source.size()) / 1024.0;
    Apps.push_back(std::move(In));
  }
  Layers.SourceKb = SourceKb;
  std::vector<double> PassRawS, TracedRawS;
  std::vector<std::vector<double>> AppRawS(Apps.size());
  std::vector<std::string> FirstReports(Apps.size());
  uint32_t Refuted = 0;
  uint64_t Consulted = 0, Timeouts = 0;

  uint64_t WindowStart = nowNs();
  for (size_t Pass = 0;; ++Pass) {
    // Start another pass while at least half of one fits in the window.
    double Elapsed = double(nowNs() - WindowStart) * 1e-9;
    double Estimate = PassRawS.empty() ? 0.0 : median(PassRawS);
    if (Pass >= MinPasses && Elapsed + Estimate / 2 > A.Seconds)
      break;
    // A traced run alternates traced and untraced passes; the difference
    // of their medians is the tracing overhead.
    bool Traced = A.Trace && Pass % 2 == 1;
    std::vector<CheckRecord> Recs(Apps.size());
    double RawS = 0;
    tracer().setEnabled(Traced);
    {
      SpanScope P("pass", Pass);
      for (size_t I = 0; I < Apps.size(); ++I) {
        Recs[I] = checkApp(Apps[I], C, Pass * Apps.size() + I, Layers);
        RawS += Recs[I].TimedS;
        Speed.sampleAfter(Recs[I].TimedS);
      }
    }
    tracer().setEnabled(false);

    // Verification, off the clock: truth, and byte-identity across passes.
    Refuted = 0;
    Consulted = Timeouts = 0;
    uint64_t Prefetched = 0, Queries = 0;
    for (size_t I = 0; I < Apps.size(); ++I) {
      ++Out.Attempted;
      bool Ok = Recs[I].Ok;
      if (Pass == 0) {
        FirstReports[I] = Recs[I].DeterministicJson;
      } else if (Recs[I].DeterministicJson != FirstReports[I]) {
        std::fprintf(stderr,
                     "perfbench: %s: report differs from the first pass\n",
                     Apps[I].Name.c_str());
        Ok = false;
      }
      if (!Ok)
        ++Out.Failed;
      Refuted += Recs[I].RefutedAlarms;
      Consulted += Recs[I].Consulted;
      Timeouts += Recs[I].Timeouts;
      Prefetched += Recs[I].Prefetched;
      Queries += Recs[I].Queries;
    }
    note(A, "pass %zu%s raw %.3fs calib %.5fs prefetched %llu queries %llu\n",
         Pass, Traced ? " (traced)" : "", RawS, Speed.calibSeconds(),
         static_cast<unsigned long long>(Prefetched),
         static_cast<unsigned long long>(Queries));
    if (Traced) {
      TracedRawS.push_back(RawS);
      continue;
    }
    PassRawS.push_back(RawS);
    for (size_t I = 0; I < Apps.size(); ++I)
      AppRawS[I].push_back(Recs[I].TimedS);
  }
  // The same check repeats every pass with the same work, so the pass-to-
  // pass spread of one app is host noise, not latency spread: each check
  // counts once per pass at its app's median latency. A quantile then reads
  // one app's median (p50: the 4th of 7 apps; p99: the slowest).
  std::vector<double> LatRawS;
  for (size_t I = 0; I < Apps.size(); ++I) {
    LatRawS.insert(LatRawS.end(), AppRawS[I].size(), median(AppRawS[I]));
    note(A, "%-13s median %.1f ms, min %.1f ms, max %.1f ms (raw)\n",
         Apps[I].Name.c_str(), median(AppRawS[I]) * 1e3,
         quantile(AppRawS[I], 0) * 1e3, quantile(AppRawS[I], 1) * 1e3);
  }

  const double F = Speed.factor();
  double TotalRawS = 0;
  for (double S : PassRawS)
    TotalRawS += S;
  MetricSet &M = Out.Metrics;
  M.set("setup_s", SetupS);
  M.set("check_s", median(PassRawS) * F);
  // One request = one app checked. A CLI check keeps no state between
  // runs, so every check takes the cold path of an edited source.
  M.set("serve_rps", double(LatRawS.size()) / (TotalRawS * F));
  M.set("serve_p50_ms", quantile(LatRawS, 0.5) * F * 1e3);
  M.set("serve_p99_ms", quantile(LatRawS, 0.99) * F * 1e3);
  M.set("serve_edit_p50_ms", quantile(LatRawS, 0.5) * F * 1e3);
  M.set("refuted_alarms", Refuted);
  M.set("decided_edge_share",
        Consulted ? double(Consulted - Timeouts) / double(Consulted) : 0.0);
  M.set("peak_rss_mb", peakRssMb());
  Layers.emit(M, double(PassRawS.size() + TracedRawS.size()), F);
  M.set("host.calib_s", Speed.calibSeconds());
  M.set("host.raw_check_s", median(PassRawS));
  if (A.Trace) {
    M.set("trace.overhead_s", (median(TracedRawS) - median(PassRawS)) * F);
    emitSelfTimes(M, "pass", double(TracedRawS.size()), F);
  }
  return Out;
}

/// generateAppSource -> compileAndroidApp -> PointsToAnalysis::run.
void buildInputs(const std::vector<AppSpec> &Specs, bool Annotate,
                 LayerTotals &L) {
  SpanScope Setup("setup");
  for (const AppSpec &Spec : Specs) {
    std::string Src;
    {
      SpanScope S("generate");
      Src = generateAppSource(Spec);
    }
    CompileResult CR;
    uint64_t T0 = nowNs();
    {
      SpanScope S("frontend");
      CR = compileAndroidApp(Src);
    }
    uint64_t T1 = nowNs();
    L.CompileMs += double(T1 - T0) * 1e-6;
    ++L.Compiles;
    if (!CR.ok())
      continue;
    PTAOptions PO;
    if (Annotate)
      annotateHashMapEmptyTable(*CR.Prog, PO);
    {
      SpanScope S("pta");
      (void)PointsToAnalysis(*CR.Prog, PO).run();
    }
    L.PtaMs += double(nowNs() - T1) * 1e-6;
    ++L.Ptas;
  }
}

} // namespace

TrueLeakList perfbench::trueLeakNames(const AppSpec &Spec) {
  BenchmarkApp App = buildBenchmarkApp(Spec);
  TrueLeakList Out;
  for (const auto &[G, Label] : App.TrueLeaks)
    Out.push_back({App.Prog->globalName(G), Label});
  return Out;
}

double perfbench::measureSetup(const std::vector<AppSpec> &Specs,
                               bool Annotate, LayerTotals &L) {
  HostSpeed Speed;
  Speed.sample();
  std::vector<double> S;
  for (int I = 0; I < SetupReps; ++I) {
    double Before = Speed.lastCalibSeconds();
    uint64_t T0 = nowNs();
    buildInputs(Specs, Annotate, L);
    double RawS = double(nowNs() - T0) * 1e-9;
    Speed.sample();
    S.push_back(normalise(RawS, (Before + Speed.lastCalibSeconds()) / 2));
  }
  return median(S);
}

RunResult perfbench::runSuiteCold(const Args &A) {
  // The paper's Table 1 traffic: Ann?=N, each spec's own 100k per-edge
  // budget, one thread.
  return runCliWorkload(A, paperBenchmarks(), CheckConfig{false, 1, 1});
}

RunResult perfbench::runDeepParallel(const Args &A) {
  AppSpec Metro;
  for (const AppSpec &S : paperBenchmarks())
    if (S.Name == "aMetro")
      Metro = S;
  // A 5k per-edge budget: 3-5 s a pass on a 4-core host, so a run holds
  // the 5+ passes a steady median needs (one pass on 4 busy threads varies
  // by 15% even host-normalised); at 10k a pass takes 8-11 s.
  Metro.EdgeBudget = 5000;
  // Ann?=Y; 2 edge-prefetch workers x 2 search threads = 4 threads.
  return runCliWorkload(A, {Metro}, CheckConfig{true, 2, 2});
}
