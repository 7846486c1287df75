//===- Harness.cpp - Timing, tracing and metrics for perfbench ------------===//
//
// Part of the Thresher reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/Hash.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <unordered_map>

#include <sys/resource.h>

using namespace perfbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

// The catalogue. BENCHMARK.json lists exactly these names and units, and
// `run.py --smoke` checks that every one is printed with its unit.
const MetricDef EndToEndMetrics[] = {
    {"setup_s", "s"},
    {"check_s", "s"},
    {"serve_rps", "1/s"},
    {"serve_p50_ms", "ms"},
    {"serve_p99_ms", "ms"},
    {"serve_edit_p50_ms", "ms"},
    {"peak_rss_mb", "MiB"},
    {"refuted_alarms", "count"},
    {"decided_edge_share", "ratio"},
};

const MetricDef PerLayerMetrics[] = {
    {"sym.queries", "count"},
    {"sym.us_per_query", "us"},
    {"sym.edge_ms_p50", "ms"},
    {"sym.edge_ms_p99", "ms"},
    {"sym.subsume_ns_p50", "ns"},
    {"solver.sat_ns_p50", "ns"},
    {"solver.sat_calls", "count"},
    {"mem.arena_peak_kb", "KiB"},
    {"mem.interned_nodes", "count"},
    {"leak.prefetched_edges", "count"},
    {"leak.consulted_edges", "count"},
    {"leak.prefetch_useful", "ratio"},
    {"leak.timeout_edges", "count"},
    {"par.steals", "count"},
    {"par.waves", "count"},
    {"par.items_skipped", "count"},
    {"par.registry_hit_ratio", "ratio"},
    {"sym.timeout_query_share", "ratio"},
    {"sym.refute.slice", "count"},
    {"sym.refute.cyclic", "count"},
    {"sym.subsumed_global", "count"},
    {"sym.ag_widen", "count"},
    {"sym.widened_to_any", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.invalidated", "count"},
    {"cache.reg_restored", "count"},
    {"serve.app_hit_ratio", "ratio"},
    {"serve.app_evicted", "count"},
    {"serve.flushes", "count"},
    {"serve.queue_depth_p50", "count"},
    {"serve.request_ms_p50", "ms"},
    {"report.render_ms", "ms"},
    {"report.kb", "KiB"},
    {"frontend.compile_ms", "ms"},
    {"frontend.source_kb", "KiB"},
    {"pta.solve_ms", "ms"},
    {"pta.abs_locs", "count"},
    {"pta.edges", "count"},
    {"host.calib_s", "s"},
    {"host.raw_check_s", "s"},
    {"self.generate_ms", "ms"},
    {"self.frontend_ms", "ms"},
    {"self.pta_ms", "ms"},
    {"self.leak_ms", "ms"},
    {"self.report_ms", "ms"},
    {"self.check_ms", "ms"},
    {"self.request_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.overhead_s", "s"},
};

bool knownMetric(const std::string &Name) {
  for (const MetricDef &D : EndToEndMetrics)
    if (Name == D.Name)
      return true;
  for (const MetricDef &D : PerLayerMetrics)
    if (Name == D.Name)
      return true;
  return false;
}

/// Calibration time of calibrationKernel() on the reference host (a
/// 4-vCPU Xeon KVM guest), in seconds. Every timed metric scales with it:
/// never change it between a baseline and a comparison.
constexpr double RefCalibSeconds = 0.006;

std::atomic<uint64_t> CalibSink{0};

/// A fixed CPU kernel shaped like the analysis (hash-map inserts and
/// probes, then a sort), about 5 ms. Its wall time tracks the host's
/// current speed; without a hardware instruction counter, this ratio is
/// the speed reference.
double calibrationKernel() {
  constexpr size_t N = 1 << 15;
  uint64_t T0 = nowNs();
  std::unordered_map<uint64_t, uint32_t> Map;
  Map.reserve(N);
  std::vector<uint64_t> Keys(N);
  uint64_t X = 0x2545F4914F6CDD1DULL;
  for (size_t I = 0; I < N; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    Keys[I] = X ^ (X >> 29);
    ++Map[Keys[I] >> 44];
  }
  uint64_t Hits = 0;
  for (uint64_t K : Keys)
    Hits += Map.count(K >> 43);
  std::sort(Keys.begin(), Keys.end());
  CalibSink.fetch_add(Hits + Keys[N / 2], std::memory_order_relaxed);
  return double(nowNs() - T0) * 1e-9;
}

Tracer TheTracer;
thread_local uint64_t CurrentSpan = 0;

} // namespace

void perfbench::note(const Args &A, const char *Fmt, ...) {
  if (!A.Verbose)
    return;
  va_list AP;
  va_start(AP, Fmt);
  std::vfprintf(stderr, Fmt, AP);
  va_end(AP);
}

void MetricSet::set(const std::string &Name, double V) {
  if (!knownMetric(Name)) {
    std::fprintf(stderr, "perfbench: internal error: unknown metric %s\n",
                 Name.c_str());
    std::abort();
  }
  Values[Name] = V;
}

JsonValue MetricSet::toJson(bool PerLayer) const {
  JsonValue Out = JsonValue::makeObject();
  auto Emit = [&](const MetricDef &D) {
    auto It = Values.find(D.Name);
    JsonValue M = JsonValue::makeObject();
    M.set("value",
          JsonValue::makeDouble(It == Values.end() ? 0.0 : It->second));
    M.set("unit", JsonValue::makeString(D.Unit));
    Out.set(D.Name, std::move(M));
  };
  if (PerLayer)
    for (const MetricDef &D : PerLayerMetrics)
      Emit(D);
  else
    for (const MetricDef &D : EndToEndMetrics)
      Emit(D);
  return Out;
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double perfbench::smoothQuantile(std::vector<double> V, double Q) {
  double N = double(V.size());
  double Sigma = std::sqrt(Q * (1 - Q) / (N + 2));
  if (V.size() < 2 || Sigma == 0)
    return quantile(std::move(V), Q);
  std::sort(V.begin(), V.end());
  auto Phi = [&](double X) {
    return 0.5 * std::erfc(-(X - Q) / (Sigma * std::sqrt(2.0)));
  };
  double Sum = 0, Weight = 0;
  for (size_t I = 0; I < V.size(); ++I) {
    double W = Phi(double(I + 1) / N) - Phi(double(I) / N);
    Sum += W * V[I];
    Weight += W;
  }
  return Sum / Weight;
}

void perfbench::addHistogramJson(Histogram &H, const JsonValue &J) {
  const JsonValue *Pairs = J.find("buckets");
  if (!Pairs)
    return;
  for (const JsonValue &P : Pairs->items()) {
    if (P.items().size() != 2)
      continue;
    uint64_t Lo = P.items()[0].asUint();
    for (uint64_t K = P.items()[1].asUint(); K > 0; --K)
      H.record(Lo);
  }
}

double perfbench::interpolatedQuantile(const Histogram &H, double Q) {
  if (H.count() == 0)
    return 0.0;
  double Rank = std::max(1.0, std::ceil(Q * double(H.count())));
  double Cum = 0;
  for (unsigned B = 0; B < Histogram::NumBuckets; ++B) {
    double K = double(H.buckets()[B]);
    if (K == 0)
      continue;
    if (Cum + K >= Rank) {
      double Lo = double(Histogram::bucketLo(B));
      double Width = B == 0 ? 0.0 : Lo;
      return Lo + Width * ((Rank - Cum) / K);
    }
    Cum += K;
  }
  return 0.0;
}

void HostSpeed::sample(int Kernels) {
  SpanScope S("calibrate");
  std::vector<std::vector<double>> Times(Threads);
  auto Run = [&](unsigned T) {
    for (int I = 0; I < Kernels; ++I)
      Times[T].push_back(calibrationKernel());
  };
  std::vector<std::thread> Helpers;
  for (unsigned T = 1; T < Threads; ++T)
    Helpers.emplace_back(Run, T);
  Run(0);
  for (std::thread &H : Helpers)
    H.join();
  std::vector<double> Last;
  for (const std::vector<double> &T : Times)
    Last.insert(Last.end(), T.begin(), T.end());
  LastMedian = median(Last);
  Samples.insert(Samples.end(), Last.begin(), Last.end());
}

void HostSpeed::sampleAfter(double WorkSeconds) {
  double Kernel = Samples.empty() ? RefCalibSeconds : Samples.back();
  sample(std::max(3, static_cast<int>(std::ceil(0.03 * WorkSeconds / Kernel))));
}

double HostSpeed::calibSeconds() const { return median(Samples); }

double HostSpeed::factor() const {
  return Samples.empty() ? 1.0 : RefCalibSeconds / calibSeconds();
}

double perfbench::normalise(double RawS, double CalibS) {
  return RawS * RefCalibSeconds / CalibS;
}

double perfbench::peakRssMb() {
  struct rusage RU;
  ::getrusage(RUSAGE_SELF, &RU);
  return double(RU.ru_maxrss) / 1024.0;
}

uint64_t perfbench::mix(uint64_t Seed, uint64_t I) {
  return thresher::hashCombine(thresher::hashMix64(Seed), I);
}

//===----------------------------------------------------------------------===//
// Tracer.
//===----------------------------------------------------------------------===//

Tracer &perfbench::tracer() { return TheTracer; }

uint64_t Tracer::open(const char *Name, uint64_t Parent, uint64_t Req) {
  std::lock_guard<std::mutex> Lock(M);
  Span S;
  S.Id = Spans.size() + 1;
  S.Parent = Parent;
  S.Req = Req;
  S.Name = Name;
  S.StartNs = nowNs();
  Spans.push_back(S);
  return S.Id;
}

void Tracer::close(uint64_t Id) {
  uint64_t End = nowNs();
  std::lock_guard<std::mutex> Lock(M);
  Spans[Id - 1].EndNs = End;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Spans.size();
}

std::vector<uint64_t> Tracer::selfTimes() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Kids(Spans.size() +
                                                               1);
  for (const Span &S : Spans)
    if (S.Parent)
      Kids[S.Parent].push_back({S.StartNs, S.EndNs});
  std::vector<uint64_t> Self(Spans.size());
  for (const Span &S : Spans) {
    auto &K = Kids[S.Id];
    std::sort(K.begin(), K.end());
    uint64_t Covered = 0, Cursor = S.StartNs;
    for (auto [B, E] : K) {
      B = std::max(B, Cursor);
      E = std::min(E, S.EndNs);
      if (E > B) {
        Covered += E - B;
        Cursor = E;
      }
    }
    Self[S.Id - 1] = (S.EndNs - S.StartNs) - Covered;
  }
  return Self;
}

std::map<std::string, double>
Tracer::selfMsByName(const std::string &Root) const {
  std::vector<uint64_t> Self = selfTimes();
  std::lock_guard<std::mutex> Lock(M);
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span *R = &Spans[I];
    while (R->Parent)
      R = &Spans[R->Parent - 1];
    if (Root == R->Name)
      Out[Spans[I].Name] += double(Self[I]) * 1e-6;
  }
  return Out;
}

bool Tracer::writeJsonl(const std::string &Path) const {
  std::vector<uint64_t> Self = selfTimes();
  std::lock_guard<std::mutex> Lock(M);
  std::ofstream OS(Path);
  if (!OS)
    return false;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    JsonValue L = JsonValue::makeObject();
    L.set("id", JsonValue::makeUint(S.Id));
    L.set("parent", JsonValue::makeUint(S.Parent));
    L.set("name", JsonValue::makeString(S.Name));
    L.set("req", JsonValue::makeUint(S.Req));
    L.set("start_ns", JsonValue::makeUint(S.StartNs));
    L.set("end_ns", JsonValue::makeUint(S.EndNs));
    L.set("self_ns", JsonValue::makeUint(Self[I]));
    OS << L.toString(-1) << "\n";
  }
  return bool(OS);
}

SpanScope::SpanScope(const char *Name, uint64_t Req, uint64_t Parent)
    : Prev(CurrentSpan) {
  if (!TheTracer.enabled())
    return;
  Id = TheTracer.open(Name, Parent == UINT64_MAX ? Prev : Parent, Req);
  CurrentSpan = Id;
}

SpanScope::~SpanScope() {
  if (!Id)
    return;
  TheTracer.close(Id);
  CurrentSpan = Prev;
}

void perfbench::emitSelfTimes(MetricSet &M, const std::string &WindowRoot,
                              double TracedPasses, double Factor) {
  std::map<std::string, double> Window = TheTracer.selfMsByName(WindowRoot);
  std::map<std::string, double> Setup = TheTracer.selfMsByName("setup");
  auto Per = [&](const std::map<std::string, double> &Self, const char *Span,
                 double N) {
    auto It = Self.find(Span);
    return It == Self.end() || N == 0 ? 0.0 : It->second * Factor / N;
  };
  M.set("self.generate_ms", Per(Setup, "generate", SetupReps));
  M.set("self.frontend_ms", Per(Window, "frontend", TracedPasses));
  M.set("self.pta_ms", Per(Window, "pta", TracedPasses));
  M.set("self.leak_ms", Per(Window, "leak", TracedPasses));
  M.set("self.report_ms", Per(Window, "report", TracedPasses));
  M.set("self.check_ms", Per(Window, "check", TracedPasses));
  M.set("self.request_ms", Per(Window, "request", TracedPasses));
  M.set("trace.spans",
        TracedPasses ? double(TheTracer.size()) / TracedPasses : 0.0);
}

//===----------------------------------------------------------------------===//
// LayerTotals.
//===----------------------------------------------------------------------===//

void LayerTotals::addChecker(const thresher::LeakChecker &LC,
                             const LeakReport &R) {
  for (const auto &[Name, V] : LC.stats().counterSnapshot())
    Counters[Name] += V;
  SubsumeNs.mergeFrom(LC.stats().histogram("hist.subsumeNanos"));
  SatNs.mergeFrom(LC.stats().histogram("hist.pureSatNanos"));
  Prefetched += R.PrefetchedEdges;
  Consulted += R.Edges.size();
  Timeouts += R.TimeoutEdges;
  for (const thresher::EdgeVerdict &E : R.Edges) {
    EdgeMs.push_back(double(E.Nanos) * 1e-6);
    Steps += E.Steps;
    if (E.Outcome == thresher::SearchOutcome::BudgetExhausted)
      TimeoutSteps += E.Steps;
  }
}

void LayerTotals::addReportJson(const JsonValue &Doc) {
  auto U = [&](const char *Path) {
    const JsonValue *V = Doc.findPath(Path);
    return V ? V->asUint() : uint64_t(0);
  };
  Consulted += U("summary.edges.consulted");
  Timeouts += U("summary.edges.timeout");
  Prefetched += U("effort.prefetchedEdges");
  if (const JsonValue *S = Doc.findPath("effort.seconds"))
    LeakS += S->asDouble();
  if (const JsonValue *Cs = Doc.findPath("effort.counters"))
    for (const auto &[Name, V] : Cs->members())
      Counters[Name] += V.asUint();
  if (const JsonValue *H = Doc.findPath("effort.histograms")) {
    if (const JsonValue *Sub = H->find("hist.subsumeNanos"))
      addHistogramJson(SubsumeNs, *Sub);
    if (const JsonValue *Sat = H->find("hist.pureSatNanos"))
      addHistogramJson(SatNs, *Sat);
  }
  CacheHits += U("effort.cache.hits");
  CacheInvalidated += U("effort.cache.invalidated");
  CacheProbes += U("effort.cache.hits") + U("effort.cache.misses") +
                 U("effort.cache.invalidated");
  if (const JsonValue *Edges = Doc.find("edges"))
    for (const JsonValue &E : Edges->items()) {
      const JsonValue *Verdict = E.find("verdict");
      const JsonValue *Cache = E.find("cache");
      uint64_t EdgeSteps = E.find("steps") ? E.find("steps")->asUint() : 0;
      // Cache hits skipped the search: no search wall to sample.
      if (!Cache || Cache->asString() != "hit")
        if (const JsonValue *Ns = E.find("nanos"))
          EdgeMs.push_back(double(Ns->asUint()) * 1e-6);
      Steps += EdgeSteps;
      if (Verdict && Verdict->asString() == "TIMEOUT")
        TimeoutSteps += EdgeSteps;
    }
}

void LayerTotals::emit(MetricSet &M, double Passes, double Factor) const {
  auto C = [&](const char *Name) {
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0.0 : double(It->second);
  };
  auto PerPass = [&](double V) { return Passes ? V / Passes : 0.0; };
  double Queries = C("sym.queriesProcessed");
  M.set("sym.queries", PerPass(Queries));
  M.set("sym.us_per_query", Queries ? LeakS * Factor * 1e6 / Queries : 0.0);
  M.set("sym.edge_ms_p50", quantile(EdgeMs, 0.5) * Factor);
  M.set("sym.edge_ms_p99", quantile(EdgeMs, 0.99) * Factor);
  M.set("sym.subsume_ns_p50", interpolatedQuantile(SubsumeNs, 0.5) * Factor);
  M.set("solver.sat_ns_p50", interpolatedQuantile(SatNs, 0.5) * Factor);
  M.set("solver.sat_calls", PerPass(double(SatNs.count())));
  M.set("mem.arena_peak_kb", PerPass(C("mem.arenaPeakBytes") / 1024.0));
  M.set("mem.interned_nodes", PerPass(C("mem.internedNodes")));
  M.set("leak.prefetched_edges", PerPass(double(Prefetched)));
  M.set("leak.consulted_edges", PerPass(double(Consulted)));
  M.set("leak.prefetch_useful",
        Prefetched ? double(Consulted) / double(Prefetched) : 0.0);
  M.set("leak.timeout_edges", PerPass(double(Timeouts)));
  M.set("par.steals", PerPass(C("par.steals")));
  M.set("par.waves", PerPass(C("par.waves")));
  M.set("par.items_skipped", PerPass(C("par.itemsSkipped")));
  double RegProbes = C("par.registryHits") + C("par.registryMisses");
  M.set("par.registry_hit_ratio",
        RegProbes ? C("par.registryHits") / RegProbes : 0.0);
  M.set("sym.timeout_query_share",
        Steps ? double(TimeoutSteps) / double(Steps) : 0.0);
  M.set("sym.refute.slice", PerPass(C("sym.refute.slice")));
  M.set("sym.refute.cyclic", PerPass(C("sym.refute.cyclic")));
  M.set("sym.subsumed_global", PerPass(C("sym.subsumedGlobal")));
  M.set("sym.ag_widen", PerPass(C("sym.agWiden")));
  M.set("sym.widened_to_any", PerPass(C("sym.widenedToAny")));
  M.set("cache.hit_ratio",
        CacheProbes ? double(CacheHits) / double(CacheProbes) : 0.0);
  M.set("cache.invalidated", PerPass(double(CacheInvalidated)));
  M.set("cache.reg_restored", PerPass(C("cache.regRestored")));
  M.set("pta.abs_locs", PerPass(C("pta.absLocs")));
  M.set("pta.edges", PerPass(C("pta.edges")));
  if (Compiles)
    M.set("frontend.compile_ms", CompileMs * Factor / double(Compiles));
  if (Ptas)
    M.set("pta.solve_ms", PtaMs * Factor / double(Ptas));
  if (Renders)
    M.set("report.render_ms", RenderMs * Factor / double(Renders));
  if (Reports)
    M.set("report.kb", ReportKb / double(Reports));
  M.set("frontend.source_kb", SourceKb);
}
