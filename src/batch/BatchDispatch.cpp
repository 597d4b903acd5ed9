//===- batch/BatchDispatch.cpp - Runtime backend selection ----------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
//
// Picks the widest kernel set the running CPU supports: compiled-in
// backends are probed via the null/non-null kernel-table pointers, and
// AVX2 additionally requires a CPUID check (__builtin_cpu_supports,
// which also verifies OS XSAVE state). The GMDIV_BATCH_BACKEND
// environment variable overrides the choice when it names an available
// backend. Every selection is reported through one "batch.backend"
// telemetry remark (see docs/OBSERVABILITY.md).
//
//===----------------------------------------------------------------------===//

#include "batch/BatchDivider.h"

#include "metrics/Metrics.h"
#include "telemetry/Remarks.h"
#include "telemetry/Stats.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iterator>

namespace gmdiv {
namespace batch {

const char *backendName(Backend B) {
  switch (B) {
  case Backend::Scalar:
    return "scalar";
  case Backend::SSE2:
    return "sse2";
  case Backend::AVX2:
    return "avx2";
  case Backend::NEON:
    return "neon";
  }
  return "scalar";
}

/// Internal: the kernel table backing \p B; scalar when \p B is not
/// available (callers should have checked backendAvailable).
const KernelTables &tablesForBackend(Backend B) {
  const KernelTables *Tables = nullptr;
  switch (B) {
  case Backend::Scalar:
    return scalarKernels();
  case Backend::SSE2:
    Tables = sse2Kernels();
    break;
  case Backend::AVX2:
    Tables = avx2Kernels();
    break;
  case Backend::NEON:
    Tables = neonKernels();
    break;
  }
  return Tables ? *Tables : scalarKernels();
}

std::vector<Backend> compiledBackends() {
  std::vector<Backend> Result{Backend::Scalar};
  if (sse2Kernels())
    Result.push_back(Backend::SSE2);
  if (avx2Kernels())
    Result.push_back(Backend::AVX2);
  if (neonKernels())
    Result.push_back(Backend::NEON);
  return Result;
}

namespace {

/// CPU check over and above "the kernels were compiled in". SSE2 and
/// NEON are baseline on the targets where their TUs compile; AVX2 needs
/// the runtime probe.
bool cpuSupports(Backend B) {
  if (B != Backend::AVX2)
    return true;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

} // namespace

bool backendAvailable(Backend B) {
  if (B == Backend::Scalar)
    return true;
  switch (B) {
  case Backend::SSE2:
    if (!sse2Kernels())
      return false;
    break;
  case Backend::AVX2:
    if (!avx2Kernels())
      return false;
    break;
  case Backend::NEON:
    if (!neonKernels())
      return false;
    break;
  case Backend::Scalar:
    break;
  }
  return cpuSupports(B);
}

namespace {

/// The selection sources noteBackendSelected() caches counters for.
constexpr const char *SelectionSources[] = {"divider", "env-override",
                                            "autodetect", "fallback"};
constexpr size_t NumSources = std::size(SelectionSources);
constexpr size_t NumBackends = 4;

/// gmdiv_batch_backend_selected_total{backend,source}, looked up by name
/// (under the metrics registry's mutex) once per series and cached:
/// instruments are never unregistered, so the reference stays valid.
/// Series are registered on first use, so backends that were never
/// selected export nothing.
metrics::Counter &selectionCounter(Backend B, const char *Source) {
  const auto Lookup = [&] {
    return &metrics::Registry::global().counter(
        "gmdiv_batch_backend_selected_total",
        "Batch backend selection events by backend and source",
        {{"backend", backendName(B)}, {"source", Source}});
  };
  static std::atomic<metrics::Counter *> Cache[NumBackends][NumSources];
  const size_t BI = static_cast<size_t>(B);
  size_t SI = 0;
  while (SI < NumSources && std::strcmp(Source, SelectionSources[SI]) != 0)
    ++SI;
  if (SI == NumSources)
    return *Lookup();
  std::atomic<metrics::Counter *> &Slot = Cache[BI][SI];
  metrics::Counter *C = Slot.load(std::memory_order_acquire);
  if (!C) {
    // Racing first uses resolve the same instrument.
    C = Lookup();
    Slot.store(C, std::memory_order_release);
  }
  return *C;
}

} // namespace

/// Internal: one "batch.backend" remark per selection event — the
/// process-wide default resolution and every explicitly pinned
/// BatchDivider. Guarded by remarksEnabled(), so the default (no sink)
/// costs nothing and GMDIV_NO_TELEMETRY compiles it out. Runs on every
/// BatchDivider construction, so the counter is a cached reference.
void noteBackendSelected(Backend B, const char *Source) {
  GMDIV_STAT_ADD(batch, backend_selections, 1);
  selectionCounter(B, Source).inc();
  if (!telemetry::remarksEnabled())
    return;
  telemetry::Remark R;
  R.Pass = "batch";
  R.Kind = "batch.backend";
  R.Figure = "Figure 4.1/5.1";
  R.CaseName = "batch backend selection";
  R.HasDivisor = false;
  R.Details.emplace_back("backend", backendName(B));
  R.Details.emplace_back("source", Source);
  telemetry::emitRemark(R);
}

namespace {

/// Calls with fewer elements than this are routed "below break-even":
/// per §10 (and arch::estimateBatchCost) the vector setup cost has not
/// amortized yet and the scalar per-element API would have been at
/// least as fast. The default matches the cost model's typical
/// break-even batch for 32-bit lanes; tools with a profile in hand can
/// refine it via setBatchBreakEvenHint().
std::atomic<size_t> BreakEvenHint{8};

} // namespace

void setBatchBreakEvenHint(size_t Elements) {
  BreakEvenHint.store(Elements == 0 ? 1 : Elements,
                      std::memory_order_relaxed);
}

size_t batchBreakEvenHint() {
  return BreakEvenHint.load(std::memory_order_relaxed);
}

void noteBatchCall(size_t Count) {
  auto &Reg = metrics::Registry::global();
  static metrics::Counter &Calls = Reg.counter(
      "gmdiv_batch_calls_total", "Batch kernel invocations");
  static metrics::Counter &Elements = Reg.counter(
      "gmdiv_batch_elements_total", "Elements processed by batch kernels");
  static metrics::Counter &BelowBreakEven = Reg.counter(
      "gmdiv_batch_calls_below_break_even_total",
      "Batch calls smaller than the break-even batch size");
  Calls.inc();
  Elements.add(Count);
  if (Count < BreakEvenHint.load(std::memory_order_relaxed))
    BelowBreakEven.inc();
}

Backend activeBackend() {
  static const Backend Resolved = [] {
    if (const char *Env = std::getenv("GMDIV_BATCH_BACKEND")) {
      for (Backend B : {Backend::Scalar, Backend::SSE2, Backend::AVX2,
                        Backend::NEON}) {
        if (std::strcmp(Env, backendName(B)) == 0) {
          if (backendAvailable(B)) {
            noteBackendSelected(B, "env-override");
            return B;
          }
          break; // Named but unavailable: fall through to autodetect.
        }
      }
    }
    for (Backend B : {Backend::AVX2, Backend::SSE2, Backend::NEON}) {
      if (backendAvailable(B)) {
        noteBackendSelected(B, "autodetect");
        return B;
      }
    }
    noteBackendSelected(Backend::Scalar, "fallback");
    return Backend::Scalar;
  }();
  return Resolved;
}

} // namespace batch
} // namespace gmdiv
