//===- Harness.h - Timing, tracing and metrics for perfbench ----*- C++ -*-===//
//
// Part of the Thresher reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every perfbench workload shares: the metric catalogue and its
/// output, host-speed normalisation, in-memory tracing spans with self-time
/// accounting, and the engine-effort totals behind the per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef THRESHER_PERFBENCH_HARNESS_H
#define THRESHER_PERFBENCH_HARNESS_H

#include "android/Benchmarks.h"
#include "leak/LeakChecker.h"
#include "support/Json.h"
#include "support/Stats.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using thresher::Histogram;
using thresher::JsonValue;
using thresher::LeakReport;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Verbose = false;
  /// Where a run may write: span files, the serve cache root.
  std::string WorkDir = ".";
};

/// Prints to stderr under --verbose (per-pass diagnostics for tuning).
void note(const Args &A, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

//===----------------------------------------------------------------------===//
// Metrics.
//===----------------------------------------------------------------------===//

/// Named metric values. Only names in the catalogue (Harness.cpp, mirrored
/// by BENCHMARK.json) are accepted; a catalogued metric never set prints as
/// 0, meaning the layer did not run on this workload.
class MetricSet {
public:
  void set(const std::string &Name, double V);
  /// {"name": {"value": v, "unit": u}, ...} over the end-to-end or the
  /// per-layer catalogue.
  JsonValue toJson(bool PerLayer) const;

private:
  std::map<std::string, double> Values;
};

/// Outcome of one workload run.
struct RunResult {
  MetricSet Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

//===----------------------------------------------------------------------===//
// Time, statistics, host-speed normalisation.
//===----------------------------------------------------------------------===//

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Linear-interpolation quantile of \p V (0 for an empty sample).
double quantile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Harrell-Davis-style quantile of a latency sample: a weighted mean of the
/// order statistics, weighted by a normal approximation of the sampling
/// distribution of the Q-th quantile. Latencies here come in per-app
/// clusters; a plain order statistic jumps from one cluster to the next
/// when the mix shifts by one request, this estimate moves smoothly.
double smoothQuantile(std::vector<double> V, double Q);

/// Adds a report histogram, {"buckets": [[lowerBound, count], ...]}, to
/// \p H, each sample at its bucket's lower bound.
void addHistogramJson(Histogram &H, const JsonValue &J);

/// Quantile of \p H interpolated linearly inside the bucket holding the
/// rank (Histogram::quantile, the bucket's lower bound, would read the same
/// power of two on every run). 0 when empty.
double interpolatedQuantile(const Histogram &H, double Q);

/// Host-speed reference for one run. On a shared virtual host the
/// run-to-run noise is mostly the host's speed, which can drift by tens of
/// percent over tens of seconds. Workloads take calibration samples — a
/// fixed CPU kernel — between their timed units throughout the run; every
/// timed metric is scaled by RefCalibSeconds / (median sample), still in
/// seconds, read as "seconds on the reference host".
class HostSpeed {
public:
  /// \p Threads: how many threads the timed work keeps busy. The kernel
  /// then runs on that many threads at once, since the host's speed under
  /// a 4-thread load is not its single-thread speed.
  explicit HostSpeed(unsigned Threads = 1) : Threads(Threads) {}

  /// Runs the calibration kernel \p Kernels times (on each thread) and
  /// keeps each time.
  void sample(int Kernels = 3);
  /// Samples after \p WorkSeconds of timed work, in proportion to it (about
  /// 3% of it, at least 3 kernels), so the samples weight the run's
  /// stretches by how long the timed work ran in them.
  void sampleAfter(double WorkSeconds);
  /// Median kernel time so far (seconds).
  double calibSeconds() const;
  /// Median time of the last sample() call's kernels (seconds).
  double lastCalibSeconds() const { return LastMedian; }
  /// Scale from this host's seconds to reference-host seconds.
  double factor() const;

private:
  unsigned Threads;
  std::vector<double> Samples;
  double LastMedian = 0;
};

/// \p RawS scaled to the reference host, given a calibration time.
double normalise(double RawS, double CalibS);

double peakRssMb();

/// Seeded 64-bit stream: the only randomness in the benchmark.
uint64_t mix(uint64_t Seed, uint64_t I);

//===----------------------------------------------------------------------===//
// Tracing: in-memory spans around the benchmark's own layer calls.
//===----------------------------------------------------------------------===//

class Tracer {
public:
  struct Span {
    uint64_t Id = 0, Parent = 0, Req = 0;
    const char *Name = "";
    uint64_t StartNs = 0, EndNs = 0;
  };

  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  uint64_t open(const char *Name, uint64_t Parent, uint64_t Req);
  void close(uint64_t Id);

  /// Total self milliseconds per span name, over the spans whose root
  /// span is named \p Root. A span's self time is its duration minus the
  /// part of it its children cover.
  std::map<std::string, double> selfMsByName(const std::string &Root) const;
  size_t size() const;
  /// One JSON object per span, with its self time.
  bool writeJsonl(const std::string &Path) const;

private:
  std::vector<uint64_t> selfTimes() const;

  std::atomic<bool> Enabled{false};
  mutable std::mutex M; ///< Guards Spans.
  std::vector<Span> Spans;
};

Tracer &tracer();

/// RAII span, a no-op while tracing is off. Nests under the calling
/// thread's current span unless an explicit parent is given. Spans of one
/// serve request share its id (\p Req).
class SpanScope {
public:
  explicit SpanScope(const char *Name, uint64_t Req = 0,
                     uint64_t Parent = UINT64_MAX);
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  ~SpanScope();
  uint64_t id() const { return Id; }

private:
  uint64_t Prev;
  uint64_t Id = 0;
};

/// Sets the self-time metrics (self.*, host-normalised by \p Factor) and
/// trace.spans from the spans recorded so far: per traced pass for the
/// layers under \p WindowRoot spans, per repetition under "setup" spans.
void emitSelfTimes(MetricSet &M, const std::string &WindowRoot,
                   double TracedPasses, double Factor);

//===----------------------------------------------------------------------===//
// Engine effort behind the per-layer metrics.
//===----------------------------------------------------------------------===//

/// Engine effort summed over every check of a run's passes, read either
/// from a LeakChecker after its run or from the effort section of a full
/// JSON report a server returned.
struct LayerTotals {
  std::map<std::string, uint64_t> Counters; ///< Engine counters, summed.
  Histogram SubsumeNs, SatNs; ///< hist.subsumeNanos, hist.pureSatNanos.
  std::vector<double> EdgeMs; ///< Per consulted edge search wall.
  uint64_t Prefetched = 0, Consulted = 0, Timeouts = 0;
  uint64_t TimeoutSteps = 0, Steps = 0;
  uint64_t CacheHits = 0, CacheProbes = 0, CacheInvalidated = 0;
  double LeakS = 0; ///< Wall inside LeakChecker::run.
  double CompileMs = 0, PtaMs = 0, RenderMs = 0;
  uint64_t Compiles = 0, Ptas = 0, Renders = 0;
  double ReportKb = 0, SourceKb = 0;
  uint64_t Reports = 0;

  /// After LeakChecker::run: its counters, histograms and verdicts.
  void addChecker(const thresher::LeakChecker &LC, const LeakReport &R);
  /// A full (non-deterministic) thresher-report document.
  void addReportJson(const JsonValue &Doc);
  /// Sets the engine-side per-layer metrics: counts per pass, times
  /// host-normalised by \p Factor.
  void emit(MetricSet &M, double Passes, double Factor) const;
};

//===----------------------------------------------------------------------===//
// Workloads.
//===----------------------------------------------------------------------===//

/// Ground truth: (static field, Activity allocation label) pairs.
using TrueLeakList = std::vector<std::pair<std::string, std::string>>;

/// The seeded true leaks of \p Spec (BenchmarkApp::TrueLeaks), by name.
TrueLeakList trueLeakNames(const thresher::AppSpec &Spec);

/// Repetitions of the set-up step per run; setup_s is their median.
constexpr int SetupReps = 15;

/// One set-up repetition: generateAppSource -> compileAndroidApp ->
/// PointsToAnalysis::run for every spec (the inputs a check starts from).
/// Returns the median over SetupReps repetitions of host-normalised
/// seconds, each repetition normalised by the calibrations right before
/// and after it (set-up is short and runs first, so the run-wide host
/// speed does not describe it). Adds the compile and points-to call times
/// to \p L.
double measureSetup(const std::vector<thresher::AppSpec> &Specs,
                    bool Annotate, LayerTotals &L);

RunResult runSuiteCold(const Args &A);
RunResult runDeepParallel(const Args &A);
RunResult runServeMixed(const Args &A);

} // namespace perfbench

#endif // THRESHER_PERFBENCH_HARNESS_H
