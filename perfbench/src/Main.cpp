//===- perfbench/src/Main.cpp - Served-path benchmark program -------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload router|batch|churn --seed N --seconds S --trace 0|1
//             [--spans FILE] [--results FILE]
//   perfbench --self-test
//
// One run: generate the workload's inputs from the seed, set up (several
// times; setup_s is the median), run the untraced closed loop, and with
// --trace 1 also the traced loop and the ledger's direct per-layer
// probes. Prints the configuration, every metric with its unit, and as
// the last line one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer ones with
// --trace 1. Exits 1 when any lane of any request or probe was wrong.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Ledger.h"
#include "SelfTest.h"
#include "Spans.h"
#include "Workloads.h"

#include "batch/BatchDivider.h"
#include "jit/Jit.h"
#include "telemetry/BenchReport.h"
#include "telemetry/Json.h"
#include "trace/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unistd.h>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

using namespace perfbench;
namespace json = gmdiv::telemetry::json;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

/// ROADMAP aim 4: tracing may cost at most this share of throughput.
constexpr double TraceBudget = 0.02;
/// Set-up repeats: at least MinSetups and MinSetupSeconds in total, at
/// most MaxSetups. Set-up time follows the host's load over seconds, so
/// the repeats span two of them.
constexpr int MinSetups = 5;
constexpr int MaxSetups = 400;
constexpr double MinSetupSeconds = 2.0;
/// Untimed closed-loop run between set-up and measurement: the first
/// seconds after start-up run slower on this kind of host (measured on
/// all three workloads), and set-up is timed on its own.
constexpr double WarmupSeconds = 2.0;
/// A traced run alternates this many untraced/traced segment pairs,
/// which together last --seconds.
constexpr int TracePairs = 4;

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
  std::string SpansPath, ResultsPath;
  bool SelfTest = false;
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload router|batch|churn --seed N "
               "--seconds S --trace 0|1 [--spans FILE] [--results FILE]\n"
               "       perfbench --self-test\n",
               Why);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    const std::string Flag = Argv[I];
    if (Flag == "--self-test") {
      A.SelfTest = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const std::string V = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = V;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        usage("--seed takes a non-negative integer");
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(A.Seconds > 0 && A.Seconds <= 120))
        usage("--seconds takes a number in (0, 120]");
    } else if (Flag == "--trace") {
      if (V != "0" && V != "1")
        usage("--trace takes 0 or 1");
      A.Trace = V == "1";
    } else if (Flag == "--spans") {
      A.SpansPath = V;
    } else if (Flag == "--results") {
      A.ResultsPath = V;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!A.SelfTest && (A.Workload.empty() || A.Seconds == 0 || A.Trace < 0))
    usage("--workload, --seconds and --trace are required");
  return A;
}

/// One reported metric.
struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

/// The effective configuration, printed and recorded with the results.
std::vector<std::pair<std::string, std::string>> configuration() {
  const gmdiv::telemetry::bench::MachineInfo M =
      gmdiv::telemetry::bench::collectMachineInfo();
  gmdiv::jit::VectorIsa Isa = gmdiv::jit::VectorIsa::Avx2;
  const bool Vector = gmdiv::jit::vectorJitIsa(Isa);
  const auto R = registryOptions();
  const auto S = serviceOptions();
  // Any GMDIV_* variable could steer the library (JIT veto, batch
  // backend, vector ISA); run.py clears them, and this records what got
  // through.
  std::string Env;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "GMDIV_", 6) == 0)
      Env += std::string(Env.empty() ? "" : ",") + *E;
  return {
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"git_sha", M.GitSha},
      {"compiler", M.Compiler},
      {"cpu_model", M.CpuModel},
      {"nproc", std::to_string(M.Cpus)},
      {"governor", M.Governor},
      {"batch_backend",
       gmdiv::batch::backendName(gmdiv::batch::activeBackend())},
      {"jit_scalar", gmdiv::jit::enabled() ? "on" : "off"},
      {"jit_vector", Vector ? gmdiv::jit::vectorIsaName(Isa) : "off"},
      {"registry_options",
       "NumShards=" + std::to_string(R.NumShards) +
           " ShardCapacity=" + std::to_string(R.ShardCapacity) +
           " UseJit=" + std::to_string(R.UseJit) +
           " SampleEvery=" + std::to_string(R.SampleEvery) +
           " TopKSlots=" + std::to_string(R.TopKSlots)},
      {"service_options", "Workers=" + std::to_string(S.Workers) +
                              " QueueCapacity=" +
                              std::to_string(S.QueueCapacity)},
      {"gmdiv_env", Env.empty() ? "none" : Env},
  };
}

/// Adds a segment's counters and per-layer distributions to \p Into;
/// rates are combined by the caller.
void fold(LoopResult &Into, const LoopResult &From) {
  Into.Attempted += From.Attempted;
  Into.Failed += From.Failed;
  Into.UnitsPerRequest = From.UnitsPerRequest;
  Into.JobNs.merge(From.JobNs);
  Into.QueueWaitNs.merge(From.QueueWaitNs);
  Into.Registry += From.Registry;
  Into.JitCache += From.JitCache;
}

template <typename HistogramT>
double percentileUs(const HistogramT &H, double P) {
  return H.quantileNs(P) / 1e3;
}

struct RunOutcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> EndToEnd, PerLayer;
  std::vector<SetupTime> Setups;
  /// Untraced run's per-window rates, latency quantiles (µs, 0 for a
  /// thin window) and host steal.
  std::vector<double> WindowRates, WindowP50Us, WindowP99Us, WindowSteal;
  size_t LatencySamples = 0;
  /// Failed over attempted requests of the untraced loop.
  double FailedRatio = 0;
  bool OverBudget = false;
};

std::vector<Metric> perLayerMetrics(const Workload &W, const LoopResult &U,
                                    const LoopResult &T,
                                    const std::vector<SpanLog> &LoopLogs,
                                    const SpanLog &LedgerLog,
                                    const LedgerResult &L, double Overhead) {
  std::vector<const SpanLog *> Led = {&LedgerLog};
  std::vector<const SpanLog *> Loop;
  for (const SpanLog &S : LoopLogs)
    Loop.push_back(&S);
  auto Ns = [&](SpanName N) { return medianPerCall(Led, N); };
  auto Us = [&](SpanName N) { return medianPerCall(Led, N) / 1e3; };

  const std::string Name = W.name();
  // The batch service numbers come from the workload itself on batch,
  // from the ledger's service probe elsewhere.
  const bool IsBatch = Name == "batch";
  const LoopResult &Svc = IsBatch ? T : *L.Service;
  const LoopResult &SvcE2E = IsBatch ? U : *L.Service;
  const auto &SvcLogs = IsBatch ? Loop : Led;

  const double WithEntry = Ns(SpanName::RegistryWithEntryTrivial);
  const double AcquireHit = Ns(SpanName::RegistryAcquireHit);
  const double EntryRem = Ns(SpanName::EntryRemainderBits);
  const double EntryArray = Ns(SpanName::EntryArray);
  const double RouterE2E =
      Name == "router" ? U.NsPerUnit : L.RouteNsPerMessage;
  const double BatchE2E = SvcE2E.NsPerUnit;

  const auto &Reg = T.Registry;
  return {
      {"registry.withentry_ns", WithEntry, "ns"},
      {"registry.acquire_hit_ns", AcquireHit, "ns"},
      {"registry.admit_us", Us(SpanName::RegistryAcquireMiss), "us"},
      {"registry.hit_ratio", Reg.hitRatio(), "ratio"},
      {"registry.evictions_per_admit",
       Reg.Inserts ? static_cast<double>(Reg.Evictions) /
                         static_cast<double>(Reg.Inserts)
                   : 0.0,
       "ratio"},
      {"entry.remainder_ns", EntryRem, "ns"},
      {"entry.array_ns_per_lane", EntryArray, "ns"},
      {"entry.build_us", Us(SpanName::EntryBuild), "us"},
      {"service.submit_us",
       medianPerCall(SvcLogs, SpanName::ServiceSubmit) / 1e3, "us"},
      {"service.job_us", percentileUs(Svc.JobNs, 0.5), "us"},
      {"service.queue_wait_us", percentileUs(Svc.QueueWaitNs, 0.5), "us"},
      {"batch.kernel_ns_per_lane", Ns(SpanName::BatchKernel), "ns"},
      {"batch.precompute_ns", Ns(SpanName::BatchCtor), "ns"},
      {"jit.vector_ns_per_lane", Ns(SpanName::JitVectorKernel), "ns"},
      {"jit.scalar_remainder_ns", Ns(SpanName::JitScalarRemainder), "ns"},
      {"jit.compile_us", Us(SpanName::JitCtor), "us"},
      {"jit.cache_hit_ratio", T.JitCache.hitRatio(), "ratio"},
      {"core.remainder_ns", Ns(SpanName::CoreRemainder), "ns"},
      {"core.precompute_ns", Ns(SpanName::CoreCtor), "ns"},
      {"codegen.gen_us", Us(SpanName::CodegenGen), "us"},
      {"router.e2e_ns", RouterE2E, "ns"},
      {"router.residual_ns", residual(RouterE2E, {WithEntry, EntryRem}), "ns"},
      {"batch.e2e_ns_per_lane", BatchE2E, "ns"},
      {"batch.residual_ns_per_lane",
       residual(BatchE2E, {AcquireHit / SvcE2E.UnitsPerRequest, EntryArray}),
       "ns"},
      {"trace.overhead_ratio", Overhead, "ratio"},
  };
}

RunOutcome runWorkload(const Args &A) {
  std::unique_ptr<Workload> W = makeWorkload(A.Workload, A.Seed);
  if (!W)
    usage(("unknown workload " + A.Workload).c_str());

  RunOutcome Out;
  double SetupTotal = 0;
  while (static_cast<int>(Out.Setups.size()) < MaxSetups &&
         (static_cast<int>(Out.Setups.size()) < MinSetups ||
          SetupTotal < MinSetupSeconds)) {
    Out.Setups.push_back(W->setup());
    SetupTotal += Out.Setups.back().Wall;
  }

  const LoopResult Warm = W->run(WarmupSeconds, nullptr);
  Out.Attempted += Warm.Attempted;
  Out.Failed += Warm.Failed;
  if (!A.Trace) {
    const LoopResult U = W->run(A.Seconds, nullptr);
    Out.Attempted += U.Attempted;
    Out.Failed += U.Failed;
    Out.LatencySamples = U.Latency.count();
    Out.WindowRates = U.WindowRates;
    Out.WindowSteal = U.WindowSteal;
    for (double Ns : U.Latency.perWindowNs(0.50))
      Out.WindowP50Us.push_back(Ns / 1e3);
    for (double Ns : U.Latency.perWindowNs(0.99))
      Out.WindowP99Us.push_back(Ns / 1e3);
    Out.FailedRatio =
        static_cast<double>(U.Failed) / static_cast<double>(U.Attempted);
    Out.EndToEnd = {
        {"requests_per_s", U.RequestsPerS, "1/s"},
        {"latency_p50_us", U.Latency.quantileNs(0.50, U.WindowSteal) / 1e3,
         "us"},
        {"latency_p99_us", U.Latency.quantileNs(0.99, U.WindowSteal) / 1e3,
         "us"},
        {"setup_s", steadySetupSeconds(Out.Setups), "s"},
        {"peak_rss_mib", peakRssMiB(), "MiB"},
    };
    std::printf("untraced: %llu requests, %llu failed, %zu latency "
                "samples, %.4g units/request\n",
                static_cast<unsigned long long>(U.Attempted),
                static_cast<unsigned long long>(U.Failed), Out.LatencySamples,
                U.UnitsPerRequest);
    return Out;
  }

  // Untraced and traced segments alternate (ABBA) so both see the same
  // host; the tracing overhead is the median of the pairs' ratios.
  std::vector<SpanLog> Logs;
  for (size_t C = 0; C < W->clients(); ++C)
    Logs.emplace_back(static_cast<uint32_t>(C));
  LoopResult U, T;
  std::vector<double> URates, TRates, UNsPerUnit, Ratios;
  for (int P = 0; P < TracePairs; ++P) {
    double Rate[2] = {0, 0};
    for (int Half = 0; Half < 2; ++Half) {
      const bool Traced = (Half == 0) == (P % 2 == 1);
      for (SpanLog &L : Logs)
        L.setRequestBase(static_cast<uint64_t>(P) << 40);
      const LoopResult R =
          W->run(A.Seconds / (2 * TracePairs), Traced ? &Logs : nullptr);
      fold(Traced ? T : U, R);
      Rate[Traced] = R.RequestsPerS;
      (Traced ? TRates : URates).push_back(R.RequestsPerS);
      if (!Traced)
        UNsPerUnit.push_back(R.NsPerUnit);
    }
    Ratios.push_back(Rate[1] / Rate[0]);
  }
  U.RequestsPerS = median(URates);
  U.NsPerUnit = median(UNsPerUnit);
  T.RequestsPerS = median(TRates);
  Out.Attempted += U.Attempted + T.Attempted;
  Out.Failed += U.Failed + T.Failed;
  Out.FailedRatio =
      static_cast<double>(U.Failed) / static_cast<double>(U.Attempted);
  std::printf("untraced: %llu requests, %llu failed; traced: %llu requests, "
              "%llu failed (%d interleaved pairs)\n",
              static_cast<unsigned long long>(U.Attempted),
              static_cast<unsigned long long>(U.Failed),
              static_cast<unsigned long long>(T.Attempted),
              static_cast<unsigned long long>(T.Failed), TracePairs);

  SpanLog LedgerLog(100);
  LedgerOptions Opts;
  Opts.RouteProbe = std::string(W->name()) != "router";
  Opts.ServiceProbe = std::string(W->name()) != "batch";
  const LedgerResult L = runLedger(*W, W->probeSet(), LedgerLog, Opts);
  Out.Attempted += L.Attempted;
  Out.Failed += L.Failed;
  for (size_t N = 0; N < L.FailedBy.size(); ++N)
    if (L.FailedBy[N])
      std::printf("ledger: %s failed %llu check(s)\n",
                  spanName(static_cast<SpanName>(N)),
                  static_cast<unsigned long long>(L.FailedBy[N]));
  std::printf("ledger: %llu checked probe calls, %llu failed\n",
              static_cast<unsigned long long>(L.Attempted),
              static_cast<unsigned long long>(L.Failed));
  std::printf("counters: registry hits=%llu misses=%llu inserts=%llu "
              "evictions=%llu; jit cache hits=%llu misses=%llu (traced loop)\n",
              static_cast<unsigned long long>(T.Registry.Hits),
              static_cast<unsigned long long>(T.Registry.Misses),
              static_cast<unsigned long long>(T.Registry.Inserts),
              static_cast<unsigned long long>(T.Registry.Evictions),
              static_cast<unsigned long long>(T.JitCache.Hits),
              static_cast<unsigned long long>(T.JitCache.Misses));

  const double Overhead = median(Ratios);
  Out.PerLayer = perLayerMetrics(*W, U, T, Logs, LedgerLog, L, Overhead);
  Out.OverBudget = Overhead < 1.0 - TraceBudget;

  if (!A.SpansPath.empty()) {
    std::vector<const SpanLog *> All;
    for (const SpanLog &S : Logs)
      All.push_back(&S);
    All.push_back(&LedgerLog);
    if (!writeSpanFile(A.SpansPath, All, W->name(), A.Seed))
      throw std::runtime_error("cannot write " + A.SpansPath);
    std::printf("spans: %s\n", A.SpansPath.c_str());
  }
  return Out;
}

void writeMetrics(json::Writer &J, const std::vector<Metric> &Ms) {
  J.beginObject();
  for (const Metric &M : Ms)
    J.key(M.Name).beginObject().key("value").value(M.Value).key("unit")
        .value(M.Unit).endObject();
  J.endObject();
}

void printTable(const char *Title, const std::vector<Metric> &Ms) {
  std::printf("%s\n", Title);
  for (const Metric &M : Ms)
    std::printf("  %-32s %16.6g %s\n", M.Name.c_str(), M.Value, M.Unit);
}

} // namespace

int main(int Argc, char **Argv) {
  const Args A = parseArgs(Argc, Argv);
  // Program-internal tracing stays off: the benchmark's own spans are
  // the only instrumentation in either run.
  gmdiv::trace::setEnabled(false);

  if (A.SelfTest) {
    const int Failures = runArithmeticSelfTests(true) + runStreamSelfTests();
    std::printf("self-test: %d failure(s)\n", Failures);
    return Failures ? 1 : 0;
  }
  if (runArithmeticSelfTests(false)) {
    std::fprintf(stderr, "perfbench: arithmetic self-test failed\n");
    return 3;
  }

  const auto Config = configuration();
  std::printf("config: workload=%s seed=%llu seconds=%g trace=%d\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace);
  for (const auto &[K, V] : Config)
    std::printf("config: %s=%s\n", K.c_str(), V.c_str());
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
    std::printf("config: WARNING: not a Release build; figures are not "
                "comparable with Release baselines\n");

  RunOutcome Out;
  try {
    Out = runWorkload(A);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 4;
  }

  std::printf("setup: %zu repeats, steady median %.6g s\n",
              Out.Setups.size(), steadySetupSeconds(Out.Setups));
  if (!A.Trace)
    printTable("end-to-end (untraced run):", Out.EndToEnd);
  std::printf("  %-32s %16.6g %s\n", "failed_ratio", Out.FailedRatio, "ratio");
  if (A.Trace) {
    printTable("per-layer (traced run and ledger):", Out.PerLayer);
    if (Out.OverBudget)
      std::printf("  trace.overhead_ratio is OVER the %.0f%% instrumentation "
                  "budget\n",
                  TraceBudget * 100);
  }

  const bool Correct = Out.Failed == 0;
  if (!A.ResultsPath.empty()) {
    json::Writer R;
    R.beginObject().key("workload").value(A.Workload).key("seed")
        .value(A.Seed).key("seconds").value(A.Seconds).key("trace")
        .value(A.Trace).key("config").beginObject();
    for (const auto &[K, V] : Config)
      R.key(K).value(V);
    R.endObject().key("setup_samples_s").beginArray();
    for (const SetupTime &S : Out.Setups)
      R.value(S.Wall);
    R.endArray().key("setup_cpu_s").beginArray();
    for (const SetupTime &S : Out.Setups)
      R.value(S.Cpu);
    R.endArray();
    for (const auto &[Name, Values] :
         {std::pair{"window_requests_per_s", &Out.WindowRates},
          std::pair{"window_p50_us", &Out.WindowP50Us},
          std::pair{"window_p99_us", &Out.WindowP99Us},
          std::pair{"window_steal", &Out.WindowSteal}}) {
      R.key(Name).beginArray();
      for (double V : *Values)
        R.value(V);
      R.endArray();
    }
    R.key("latency_samples").value(uint64_t{Out.LatencySamples})
        .key("attempted").value(Out.Attempted).key("failed")
        .value(Out.Failed).key("failed_ratio").value(Out.FailedRatio)
        .key("trace_over_budget").value(Out.OverBudget).key("end_to_end");
    writeMetrics(R, Out.EndToEnd);
    R.key("per_layer");
    writeMetrics(R, Out.PerLayer);
    R.endObject();
    std::ofstream(A.ResultsPath) << R.str() << "\n";
  }

  json::Writer J;
  J.beginObject().key("correct").value(Correct).key("attempted")
      .value(Out.Attempted).key("failed").value(Out.Failed).key("metrics");
  writeMetrics(J, A.Trace ? Out.PerLayer : Out.EndToEnd);
  J.endObject();
  std::printf("%s\n", J.str().c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
