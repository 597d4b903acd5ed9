//===- perfbench/src/Spans.cpp - In-memory span log -----------------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>

namespace perfbench {

const char *spanName(SpanName N) {
  switch (N) {
  case SpanName::None:
    return "";
  case SpanName::RouterRequest:
    return "router.request";
  case SpanName::RegistryWithEntryRoute:
    return "registry.withEntry(remainderBits)";
  case SpanName::BatchRequest:
    return "batch.request";
  case SpanName::ServiceSubmit:
    return "service.submit";
  case SpanName::ServiceGet:
    return "service.future_get";
  case SpanName::ChurnRequest:
    return "churn.request";
  case SpanName::RegistryAcquire:
    return "registry.acquire";
  case SpanName::EntryRemainderArray:
    return "entry.remainderArray";
  case SpanName::LedgerProbe:
    return "ledger.probe";
  case SpanName::RegistryWithEntryTrivial:
    return "registry.withEntry(trivial)";
  case SpanName::RegistryAcquireHit:
    return "registry.acquire(hit)";
  case SpanName::RegistryAcquireMiss:
    return "registry.acquire(miss)";
  case SpanName::EntryRemainderBits:
    return "entry.remainderBits";
  case SpanName::EntryArray:
    return "entry.array";
  case SpanName::EntryBuild:
    return "entry.makeDividerEntry";
  case SpanName::BatchKernel:
    return "batch.BatchDivider.kernel";
  case SpanName::BatchCtor:
    return "batch.BatchDivider.ctor";
  case SpanName::JitVectorKernel:
    return "jit.JitBatchDivider.kernel";
  case SpanName::JitScalarRemainder:
    return "jit.JitDivider.remainder";
  case SpanName::JitCtor:
    return "jit.JitDivider.ctor";
  case SpanName::CoreRemainder:
    return "core.Divider.remainder";
  case SpanName::CoreCtor:
    return "core.Divider.ctor";
  case SpanName::CodegenGen:
    return "codegen.gen";
  case SpanName::Count:
    break;
  }
  return "?";
}

SpanLog::SpanLog(uint32_t Thread)
    : Thread(Thread), Reservoir(streamSeed(0x5a4e, Thread)) {
  Kept.reserve(4 * KeepPerName);
}

void SpanLog::add(SpanName Name, uint64_t Request, SpanName Parent,
                  uint64_t T0, uint64_t T1, uint32_t Calls) {
  const uint64_t Dur = T1 - T0;
  const size_t I = static_cast<size_t>(Name);
  if (KeptByName[I] < KeepPerName) {
    ++KeptByName[I];
    Kept.push_back({RequestBase + Request, T0, Dur, Calls, Name, Parent});
  }
  ++Recorded;
  const double PerCall = static_cast<double>(Dur) / static_cast<double>(Calls);
  std::vector<double> &S = Samples[I];
  const uint64_t N = ++Seen[I];
  if (S.size() < MaxSamples) {
    S.push_back(PerCall);
  } else {
    const uint64_t Slot = Reservoir.below(N);
    if (Slot < MaxSamples)
      S[Slot] = PerCall;
  }
}

double medianPerCall(const std::vector<const SpanLog *> &Logs, SpanName N) {
  std::vector<double> All;
  for (const SpanLog *L : Logs)
    All.insert(All.end(), L->samples(N).begin(), L->samples(N).end());
  return median(std::move(All));
}

bool writeSpanFile(const std::string &Path,
                   const std::vector<const SpanLog *> &Logs,
                   const std::string &Workload, uint64_t Seed) {
  uint64_t Origin = std::numeric_limits<uint64_t>::max();
  uint64_t Recorded = 0;
  for (const SpanLog *L : Logs) {
    Recorded += L->recorded();
    for (const Span &S : L->kept())
      Origin = std::min(Origin, S.StartNs);
  }
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\"traceEvents\":[";
  bool First = true;
  char Buf[512];
  for (const SpanLog *L : Logs) {
    for (const Span &S : L->kept()) {
      std::snprintf(
          Buf, sizeof(Buf),
          "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
          "\"parent\":\"%s\",\"calls\":%u}}",
          First ? "" : ",", spanName(S.Name), L->thread(),
          static_cast<double>(S.StartNs - Origin) / 1e3,
          static_cast<double>(S.DurNs) / 1e3,
          static_cast<unsigned long long>(S.Request), spanName(S.Parent),
          S.Calls);
      Out << Buf;
      First = false;
    }
  }
  Out << "\n],\"otherData\":{\"workload\":\"" << Workload
      << "\",\"seed\":" << Seed << ",\"spans_recorded\":" << Recorded
      << ",\"spans_kept_per_name\":" << SpanLog::KeepPerName << "}}\n";
  return static_cast<bool>(Out);
}

} // namespace perfbench
