//===- ServeMixed.cpp - serve_mixed: closed-loop traffic on ServeServer ---===//
//
// Part of the Thresher reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// An in-process ServeServer (2 workers, a cache root inside the build
// directory, the default 8 resident apps) serves 2 client connections over
// socketpairs. Each client is a closed loop: it sends its next request only
// when the previous result frame has arrived, like a CI job waiting for its
// report.
//
// Traffic comes from a population of 12 generated apps, more than the
// resident cap, with Zipf popularity. A round of requests holds exact
// per-app counts of reads (warm re-checks of an app's own source) and
// writes (one-function edits: each a source never seen before, so a new
// bundle key, a cold build, an empty cache and appendDirty appends); the
// seed shuffles each round and places each edit. An app's first request is
// a first-seen cold check. The mix itself (8 edits in 100 requests, Zipf
// exponent 1, single-local edits) is an assumption: no measured caller
// traffic exists to take it from.
//
// The window is cut into segments; between segments both clients are idle
// and the host speed is sampled. Every result payload is compared, after
// the window, with a cold runCheckService report of the same source, and
// every such reference must report the app's seeded true leaks.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "leak/CheckService.h"
#include "serve/AppBundle.h"
#include "serve/Protocol.h"
#include "serve/Server.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <random>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

using namespace perfbench;
using namespace thresher;

namespace {

constexpr size_t PopulationSize = 12;
constexpr unsigned Clients = 2;
constexpr unsigned Workers = 2;
constexpr size_t RoundSize = 100;
constexpr size_t EditsPerRound = 8;
/// Requests per "pass", the unit check_s and the per-layer counts use.
constexpr double RequestsPerPass = 50;

/// Small and mid app shapes; cold checks take tens to hundreds of ms.
AppSpec populationShape(size_t I) {
  AppSpec S;
  S.Name = "Pop" + std::to_string(I);
  S.Activities = 2 + int(I % 3);
  S.SingletonLeaks = 1 + int(I % 2);
  S.SingletonFanout = 2;
  S.LatentFlagAlarms = 2 + int(I % 4);
  S.VecFalseAlarms = 1 + int(I % 3);
  S.HashMapAlarms = int(I % 3);
  S.HashMapWrapperDepth = 1;
  S.ConflationFalseAlarms = 2 * int(I % 2);
  return S;
}

/// The population in popularity order: shape I is rank I.
std::vector<AppSpec> populationSpecs() {
  std::vector<AppSpec> Specs;
  for (size_t I = 0; I < PopulationSize; ++I)
    Specs.push_back(populationShape(I));
  return Specs;
}

enum class Kind : uint8_t { First, Read, Edit };

struct Item {
  uint32_t App = 0;
  bool Edit = false;
};

/// Largest-remainder split of \p Total over Zipf(1) weights.
std::vector<size_t> zipfCounts(size_t Total) {
  std::vector<double> W(PopulationSize);
  double Sum = 0;
  for (size_t I = 0; I < W.size(); ++I)
    Sum += W[I] = 1.0 / double(I + 1);
  std::vector<size_t> N(W.size());
  std::vector<std::pair<double, size_t>> Rem;
  size_t Given = 0;
  for (size_t I = 0; I < W.size(); ++I) {
    double Share = double(Total) * W[I] / Sum;
    N[I] = static_cast<size_t>(Share);
    Given += N[I];
    Rem.push_back({Share - double(N[I]), I});
  }
  std::sort(Rem.rbegin(), Rem.rend());
  for (size_t K = 0; Given < Total; ++K, ++Given)
    ++N[Rem[K].second];
  return N;
}

/// The request sequence: rounds of exact per-app counts, each shuffled by
/// the seed. Exact counts keep the traffic mix the same on every seed.
std::vector<Item> makeSchedule(uint64_t Seed, size_t Rounds) {
  std::vector<size_t> Reads = zipfCounts(RoundSize - EditsPerRound);
  std::vector<size_t> Edits = zipfCounts(EditsPerRound);
  std::vector<Item> Out;
  std::mt19937_64 Rng(Seed);
  for (size_t R = 0; R < Rounds; ++R) {
    std::vector<Item> Round;
    for (size_t A = 0; A < PopulationSize; ++A) {
      for (size_t K = 0; K < Reads[A]; ++K)
        Round.push_back({uint32_t(A), false});
      for (size_t K = 0; K < Edits[A]; ++K)
        Round.push_back({uint32_t(A), true});
    }
    std::shuffle(Round.begin(), Round.end(), Rng);
    Out.insert(Out.end(), Round.begin(), Round.end());
  }
  return Out;
}

/// A one-function edit: a new local in the onCreate handler of one
/// activity, picked by the seed. \p Tag makes every edit's text unique.
std::string editSource(const std::string &Base, uint64_t Seed, uint64_t Tag) {
  const std::string Anchor = "  onCreate() {\n";
  std::vector<size_t> At;
  for (size_t P = Base.find(Anchor); P != std::string::npos;
       P = Base.find(Anchor, P + 1))
    At.push_back(P + Anchor.size());
  size_t Pos = At[mix(Seed, Tag) % At.size()];
  std::string T = std::to_string(Tag);
  return Base.substr(0, Pos) + "    var edit" + T + " = " + T + ";\n" +
         Base.substr(Pos);
}

std::string requestLine(const std::string &Id, const std::string &Source,
                        bool FullReport) {
  JsonValue R = JsonValue::makeObject();
  R.set("schema", JsonValue::makeString(ServeSchema));
  R.set("id", JsonValue::makeString(Id));
  R.set("op", JsonValue::makeString("check"));
  R.set("tenant", JsonValue::makeString("ci"));
  JsonValue Sources = JsonValue::makeArray();
  Sources.append(JsonValue::makeString(Source));
  R.set("sources", std::move(Sources));
  JsonValue Opts = JsonValue::makeObject();
  Opts.set("android", JsonValue::makeBool(true));
  Opts.set("deterministic", JsonValue::makeBool(!FullReport));
  R.set("options", std::move(Opts));
  return R.toString(-1) + "\n";
}

/// The reference: a cold check of \p Source in the deterministic form,
/// exactly what the daemon must stream back (docs/SERVE.md).
std::string coldReference(const std::string &Source) {
  AnalysisOptions Opt;
  Opt.Android = true;
  Opt.Deterministic = true;
  std::vector<Error> Errs;
  std::unique_ptr<AppBundle> App =
      buildAppBundle({Source}, Opt, /*Gov=*/nullptr, &Errs);
  if (!App || App->ActivityBase == InvalidId)
    return std::string();
  ResourceGovernor Gov((GovernorConfig()));
  CheckServiceRequest Req;
  Req.Opt = Opt;
  return runCheckService(*App->Prog, *App->PTA, App->ActivityBase, Req,
                         /*Cache=*/nullptr, &Gov)
      .ReportJson;
}

/// Computes coldReference for every source, outside the timed window, on
/// up to \p Threads threads (never more than the host's cores).
std::vector<std::string> coldReferences(const std::vector<std::string> &Srcs,
                                        unsigned Threads) {
  std::vector<std::string> Out(Srcs.size());
  std::atomic<size_t> Next{0};
  unsigned N =
      std::max(1u, std::min(Threads, std::thread::hardware_concurrency()));
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < N; ++T)
    Pool.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < Srcs.size();)
        Out[I] = coldReference(Srcs[I]);
    });
  for (std::thread &T : Pool)
    T.join();
  return Out;
}

/// Whether \p Report (a parsed reference) reports every true leak in
/// \p Truth as LEAK or LEAK_TIMEOUT; prints each one it does not.
bool keepsTrueLeaks(const JsonValue &Report, const TrueLeakList &Truth,
                    const std::string &App) {
  bool Ok = true;
  const JsonValue *Alarms = Report.find("alarms");
  for (const auto &[Global, Label] : Truth) {
    bool Found = false;
    if (Alarms)
      for (const JsonValue &AO : Alarms->items()) {
        const JsonValue *Src = AO.find("source");
        const JsonValue *Act = AO.find("activity");
        const JsonValue *Status = AO.find("status");
        if (Src && Act && Status && Src->asString() == Global &&
            Act->asString() == Label && Status->asString() != "REFUTED")
          Found = true;
      }
    if (!Found) {
      std::fprintf(stderr, "perfbench: %s: true leak %s ~> %s not reported\n",
                   App.c_str(), Global.c_str(), Label.c_str());
      Ok = false;
    }
  }
  return Ok;
}

/// The deterministic form of a full report: without the effort section and
/// without the per-edge wall-clock and cache fields (LeakChecker::
/// buildJsonReport's DeterministicOnly), written the same way.
std::string deterministicForm(const std::string &Full) {
  JsonValue Doc;
  if (!parseJson(Full, Doc, nullptr))
    return std::string();
  JsonValue Out = JsonValue::makeObject();
  for (const auto &[Key, V] : Doc.members()) {
    if (Key == "effort")
      continue;
    if (Key != "edges") {
      Out.set(Key, V);
      continue;
    }
    JsonValue Edges = JsonValue::makeArray();
    for (const JsonValue &E : V.items()) {
      JsonValue EO = JsonValue::makeObject();
      for (const auto &[EK, EV] : E.members())
        if (EK != "nanos" && EK != "cache")
          EO.set(EK, EV);
      Edges.append(std::move(EO));
    }
    Out.set(Key, std::move(Edges));
  }
  return Out.toString(2) + "\n";
}

/// The client end of one socketpair: blocking framed reads.
class ClientConn {
public:
  explicit ClientConn(int Fd) : Fd(Fd) {}
  ClientConn(const ClientConn &) = delete;
  ClientConn &operator=(const ClientConn &) = delete;
  ~ClientConn() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool send(const std::string &S) {
    for (size_t Off = 0; Off < S.size();) {
      ssize_t N = ::write(Fd, S.data() + Off, S.size() - Off);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += size_t(N);
    }
    return true;
  }

  /// Reads one frame: its header, and the payload a result header counts.
  bool readFrame(JsonValue &Header, std::string &Payload) {
    size_t Nl;
    while ((Nl = Buf.find('\n', Pos)) == std::string::npos)
      if (!fill())
        return false;
    std::string Line = Buf.substr(Pos, Nl - Pos);
    Pos = Nl + 1;
    if (!parseJson(Line, Header, nullptr))
      return false;
    Payload.clear();
    const JsonValue *Bytes = Header.find("reportBytes");
    if (!Bytes)
      return true;
    size_t N = static_cast<size_t>(Bytes->asUint());
    while (Buf.size() - Pos < N)
      if (!fill())
        return false;
    Payload = Buf.substr(Pos, N);
    Pos += N;
    return true;
  }

  /// Half-closes: the server's session sees EOF and returns.
  void finish() { ::shutdown(Fd, SHUT_WR); }

private:
  bool fill() {
    if (Pos > 0 && Pos == Buf.size()) {
      Buf.clear();
      Pos = 0;
    }
    char Chunk[1 << 16];
    for (;;) {
      ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Buf.append(Chunk, size_t(N));
      return true;
    }
  }

  int Fd;
  std::string Buf;
  size_t Pos = 0;
};

/// One completed request.
struct Sample {
  uint32_t App = 0;
  Kind K = Kind::Read;
  bool Traced = false;
  bool Ok = false;       ///< A result frame arrived.
  uint64_t Tag = 0;      ///< Request index: edit identity and trace id.
  double LatS = 0;       ///< Send -> result frame, wall seconds.
  std::string Payload;
};

struct SegmentLog {
  double RawS = 0;
  size_t Done = 0;
  bool Traced = false;
};

} // namespace

RunResult perfbench::runServeMixed(const Args &A) {
  RunResult Out;
  HostSpeed Speed(Workers);
  LayerTotals Layers;
  const std::vector<AppSpec> Specs = populationSpecs();
  tracer().setEnabled(A.Trace);
  double SetupS = measureSetup(Specs, /*Annotate=*/false, Layers);
  tracer().setEnabled(false);

  std::vector<std::string> Sources;
  std::vector<TrueLeakList> Truth;
  double SourceKb = 0;
  for (const AppSpec &S : Specs) {
    Sources.push_back(generateAppSource(S));
    Truth.push_back(trueLeakNames(S));
    SourceKb += double(Sources.back().size()) / 1024.0;
  }
  // One thread, so the references' memory stays below the server's and
  // peak_rss_mb describes the window.
  const std::vector<std::string> BaseRefs = coldReferences(Sources, 1);
  note(A, "peak rss before the window %.1f MiB\n", peakRssMb());
  // A reference is usable when it parses and keeps every true leak; a
  // request whose reference is not fails.
  std::vector<bool> BaseOk(BaseRefs.size());
  uint64_t Refuted = 0, Consulted = 0, Timeouts = 0;
  for (size_t I = 0; I < BaseRefs.size(); ++I) {
    JsonValue Doc;
    if (!parseJson(BaseRefs[I], Doc, nullptr)) {
      std::fprintf(stderr, "perfbench: no cold reference for %s\n",
                   Specs[I].Name.c_str());
      continue;
    }
    BaseOk[I] = keepsTrueLeaks(Doc, Truth[I], Specs[I].Name);
    Refuted += Doc.findPath("summary.refutedAlarms")->asUint();
    Consulted += Doc.findPath("summary.edges.consulted")->asUint();
    Timeouts += Doc.findPath("summary.edges.timeout")->asUint();
  }
  const std::vector<Item> Schedule = makeSchedule(A.Seed, 100);

  namespace fs = std::filesystem;
  fs::path CacheRoot = fs::path(A.WorkDir) /
                       ("serve-cache-" + std::to_string(::getpid()));
  fs::remove_all(CacheRoot);
  fs::create_directories(CacheRoot);
  ServeOptions SO;
  SO.CacheRoot = CacheRoot.string();
  SO.Workers = Workers;
  std::vector<Sample> Samples;
  std::vector<SegmentLog> Segments;
  Stats ServerStats;
  double PeakRssMb = 0;
  {
    ServeServer Server(SO);
    int SV[Clients][2];
    for (unsigned C = 0; C < Clients; ++C)
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, SV[C]) != 0) {
        std::perror("perfbench: socketpair");
        std::exit(1);
      }
    std::vector<std::unique_ptr<ClientConn>> Conns;
    std::vector<std::thread> Sessions;
    for (unsigned C = 0; C < Clients; ++C) {
      // serveConnection owns the server end from here on.
      Sessions.emplace_back(
          [&Server, Fd = SV[C][0]] { Server.serveConnection(Fd); });
      Conns.push_back(std::make_unique<ClientConn>(SV[C][1]));
      JsonValue Hello;
      std::string Ignored;
      Conns.back()->readFrame(Hello, Ignored);
    }

    std::atomic<size_t> Next{0};
    std::vector<std::atomic<bool>> Seen(PopulationSize);
    std::mutex SamplesM;
    // Traced runs alternate traced and untraced segments; their difference
    // is the tracing overhead. Only traced segments ask for full reports.
    size_t NumSegments =
        std::max<size_t>(A.Trace ? 4 : 2, size_t(std::lround(A.Seconds / 2.5)));
    double SegSeconds = A.Seconds / double(NumSegments);
    for (size_t Seg = 0; Seg < NumSegments; ++Seg) {
      SegmentLog Log;
      Log.Traced = A.Trace && Seg % 2 == 1;
      Speed.sample(5);
      tracer().setEnabled(Log.Traced);
      SpanScope SegSpan("segment", Seg);
      size_t Before = Samples.size();
      uint64_t T0 = nowNs();
      uint64_t Deadline = T0 + uint64_t(SegSeconds * 1e9);
      std::vector<std::thread> Loops;
      for (unsigned C = 0; C < Clients; ++C)
        Loops.emplace_back([&, C] {
          std::vector<Sample> Mine;
          while (nowNs() < Deadline) {
            size_t I = Next.fetch_add(1);
            const Item &It = Schedule[I % Schedule.size()];
            Sample S;
            S.App = It.App;
            S.Tag = I;
            S.Traced = Log.Traced;
            S.K = It.Edit ? Kind::Edit
                          : (Seen[It.App].exchange(true) ? Kind::Read
                                                         : Kind::First);
            std::string Src = It.Edit ? editSource(Sources[It.App], A.Seed, I)
                                      : Sources[It.App];
            std::string Id = std::to_string(I);
            std::string Line = requestLine(Id, Src, Log.Traced);
            SpanScope Req("request", I, SegSpan.id());
            uint64_t Sent = nowNs();
            JsonValue H;
            bool Connected = Conns[C]->send(Line);
            while (Connected) {
              Connected = Conns[C]->readFrame(H, S.Payload);
              const JsonValue *FrameId = H.find("id");
              if (FrameId && FrameId->asString() == Id)
                break;
            }
            S.LatS = double(nowNs() - Sent) * 1e-9;
            const JsonValue *Ev = H.find("event");
            S.Ok = Connected && Ev && Ev->asString() == "result";
            if (!S.Ok)
              std::fprintf(stderr, "perfbench: request %s: %s\n", Id.c_str(),
                           H.toString(-1).c_str());
            Mine.push_back(std::move(S));
            if (!Connected)
              break;
          }
          std::lock_guard<std::mutex> Lock(SamplesM);
          for (Sample &S : Mine)
            Samples.push_back(std::move(S));
        });
      for (std::thread &T : Loops)
        T.join();
      Log.RawS = double(nowNs() - T0) * 1e-9;
      tracer().setEnabled(false);
      Log.Done = Samples.size() - Before;
      note(A, "segment %zu%s %.3fs %zu requests calib %.5f\n", Seg,
           Log.Traced ? " (traced)" : "", Log.RawS, Log.Done,
           Speed.calibSeconds());
      Segments.push_back(Log);
    }
    PeakRssMb = peakRssMb();
    Speed.sample(5);
    for (auto &C : Conns)
      C->finish();
    for (std::thread &T : Sessions)
      T.join();
    Server.shutdown();
    ServerStats.mergeFrom(Server.stats());
  }
  fs::remove_all(CacheRoot);

  // Verification, off the clock: every payload against a cold reference
  // of the same source.
  std::vector<std::string> EditSrcs;
  std::vector<size_t> EditOf(Samples.size(), SIZE_MAX);
  for (size_t I = 0; I < Samples.size(); ++I)
    if (Samples[I].K == Kind::Edit && Samples[I].Ok) {
      EditOf[I] = EditSrcs.size();
      EditSrcs.push_back(
          editSource(Sources[Samples[I].App], A.Seed, Samples[I].Tag));
    }
  const std::vector<std::string> EditRefs = coldReferences(EditSrcs, 4);

  // Requests were issued in schedule order, so the samples hold exactly the
  // schedule's first Samples.size() items. Latency quantiles count whole
  // rounds only: then every run's sample has the same per-app mix, and a
  // quantile between two apps' latency clusters does not move with where
  // the window cut the last round.
  const size_t WholeRounds = Samples.size() >= RoundSize
                                 ? Samples.size() / RoundSize * RoundSize
                                 : Samples.size();
  Layers.SourceKb = SourceKb;
  std::vector<double> LatRawS, EditLatRawS;
  for (size_t I = 0; I < Samples.size(); ++I) {
    const Sample &S = Samples[I];
    ++Out.Attempted;
    if (S.Ok) {
      bool Edit = S.K == Kind::Edit;
      const std::string &Want = Edit ? EditRefs[EditOf[I]] : BaseRefs[S.App];
      bool WantOk = BaseOk[S.App];
      if (Edit) {
        JsonValue Doc;
        WantOk = parseJson(Want, Doc, nullptr) &&
                 keepsTrueLeaks(Doc, Truth[S.App],
                                Specs[S.App].Name + " edit " +
                                    std::to_string(S.Tag));
      }
      if (!WantOk) {
        ++Out.Failed;
      } else if ((S.Traced ? deterministicForm(S.Payload) : S.Payload) !=
                 Want) {
        std::fprintf(stderr,
                     "perfbench: request %llu: report differs from a cold "
                     "check of the same source\n",
                     static_cast<unsigned long long>(S.Tag));
        ++Out.Failed;
      }
    } else {
      ++Out.Failed;
    }
    if (S.Traced) {
      JsonValue Doc;
      if (parseJson(S.Payload, Doc, nullptr))
        Layers.addReportJson(Doc);
      Layers.ReportKb += double(S.Payload.size()) / 1024.0;
      ++Layers.Reports;
      continue;
    }
    if (S.Tag >= WholeRounds)
      continue;
    LatRawS.push_back(S.LatS);
    if (S.K == Kind::Edit)
      EditLatRawS.push_back(S.LatS);
  }

  if (A.Verbose) {
    const char *Names[] = {"first", "read", "edit"};
    for (size_t App = 0; App < PopulationSize; ++App)
      for (int K = 0; K < 3; ++K) {
        std::vector<double> L;
        for (const Sample &S : Samples)
          if (S.App == App && int(S.K) == K)
            L.push_back(S.LatS * 1e3);
        if (!L.empty())
          note(A, "app %zu %-5s n=%zu p50=%.1fms max=%.1fms\n", App,
               Names[K], L.size(), median(L), quantile(L, 1.0));
      }
  }

  const double F = Speed.factor();
  double UntracedS = 0;
  size_t UntracedDone = 0, TracedDone = 0;
  std::vector<double> PassS, TracedPassS;
  for (const SegmentLog &L : Segments) {
    if (!L.Done)
      continue;
    double PerPass = L.RawS / double(L.Done) * RequestsPerPass;
    if (L.Traced) {
      TracedDone += L.Done;
      TracedPassS.push_back(PerPass);
    } else {
      UntracedS += L.RawS;
      UntracedDone += L.Done;
      PassS.push_back(PerPass);
    }
  }

  note(A, "raw check %.4fs calib %.5fs factor %.4f\n", median(PassS),
       Speed.calibSeconds(), F);
  MetricSet &M = Out.Metrics;
  M.set("setup_s", SetupS);
  M.set("check_s", median(PassS) * F);
  M.set("serve_rps", double(UntracedDone) / (UntracedS * F));
  M.set("serve_p50_ms", smoothQuantile(LatRawS, 0.5) * F * 1e3);
  M.set("serve_p99_ms", smoothQuantile(LatRawS, 0.99) * F * 1e3);
  M.set("serve_edit_p50_ms", smoothQuantile(EditLatRawS, 0.5) * F * 1e3);
  M.set("refuted_alarms", double(Refuted));
  M.set("decided_edge_share",
        Consulted ? double(Consulted - Timeouts) / double(Consulted) : 0.0);
  M.set("peak_rss_mb", PeakRssMb);

  double TracedPasses = double(TracedDone) / RequestsPerPass;
  Layers.emit(M, TracedPasses, F);
  auto C = [&](const char *Name) { return double(ServerStats.get(Name)); };
  double AppProbes = C("serve.cache.appHits") + C("serve.cache.appMisses");
  double AllPasses = double(UntracedDone + TracedDone) / RequestsPerPass;
  M.set("serve.app_hit_ratio",
        AppProbes ? C("serve.cache.appHits") / AppProbes : 0.0);
  M.set("serve.app_evicted", C("serve.cache.appEvicted") / AllPasses);
  M.set("serve.flushes", C("serve.cache.flushes") / AllPasses);
  M.set("serve.queue_depth_p50",
        interpolatedQuantile(ServerStats.histogram("hist.serve.queueDepth"),
                             0.5));
  M.set("serve.request_ms_p50",
        interpolatedQuantile(ServerStats.histogram("hist.serve.requestMs"),
                             0.5) *
            F);
  M.set("host.calib_s", Speed.calibSeconds());
  M.set("host.raw_check_s", median(PassS));
  if (A.Trace) {
    M.set("trace.overhead_s", (median(TracedPassS) - median(PassS)) * F);
    emitSelfTimes(M, "segment", TracedPasses, F);
  }
  return Out;
}
