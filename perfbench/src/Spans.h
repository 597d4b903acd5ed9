//===- perfbench/src/Spans.h - In-memory span log ---------------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span log. The benchmark records a span around each
/// call it makes into a layer's public functions; spans of one request
/// share the request id and name their parent span. Calls shorter than
/// about a microsecond are recorded as one span per burst with the
/// burst's call count, and per-layer numbers divide by it.
///
/// Each thread owns one SpanLog (no synchronization on the record
/// path). For every span name, the log keeps the first KeepPerName
/// spans for the span file, and per-call samples for the medians (all
/// of them up to MaxSamples, a seeded reservoir after that).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include "Common.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Every span the benchmark records: "<layer>.<call>".
enum class SpanName : uint8_t {
  None, ///< Parent of a root span.
  RouterRequest,
  RegistryWithEntryRoute, ///< withEntry with the remainderBits body.
  BatchRequest,
  ServiceSubmit,
  ServiceGet,
  ChurnRequest,
  RegistryAcquire,
  EntryRemainderArray,
  LedgerProbe, ///< Parent named by ledger spans; not recorded itself.
  RegistryWithEntryTrivial,
  RegistryAcquireHit,
  RegistryAcquireMiss,
  EntryRemainderBits,
  EntryArray,
  EntryBuild,
  BatchKernel,
  BatchCtor,
  JitVectorKernel,
  JitScalarRemainder,
  JitCtor,
  CoreRemainder,
  CoreCtor,
  CodegenGen,
  Count
};

const char *spanName(SpanName N);

struct Span {
  uint64_t Request = 0;
  uint64_t StartNs = 0;
  uint64_t DurNs = 0;
  uint32_t Calls = 1;
  SpanName Name = SpanName::None;
  SpanName Parent = SpanName::None;
};

class SpanLog {
public:
  static constexpr size_t KeepPerName = 2000;
  static constexpr size_t MaxSamples = 1 << 18;

  explicit SpanLog(uint32_t Thread);

  void add(SpanName Name, uint64_t Request, SpanName Parent, uint64_t T0,
           uint64_t T1, uint32_t Calls = 1);

  /// Added to every request id recorded from now on, so the segments
  /// of one traced run keep distinct ids.
  void setRequestBase(uint64_t Base) { RequestBase = Base; }
  uint32_t thread() const { return Thread; }
  const std::vector<Span> &kept() const { return Kept; }
  uint64_t recorded() const { return Recorded; }
  /// Per-call ns samples of every span named \p N.
  const std::vector<double> &samples(SpanName N) const {
    return Samples[static_cast<size_t>(N)];
  }

private:
  uint32_t Thread;
  uint64_t RequestBase = 0;
  uint64_t Recorded = 0;
  std::vector<Span> Kept;
  std::array<size_t, static_cast<size_t>(SpanName::Count)> KeptByName{};
  std::array<std::vector<double>, static_cast<size_t>(SpanName::Count)>
      Samples;
  std::array<uint64_t, static_cast<size_t>(SpanName::Count)> Seen{};
  Rng Reservoir;
};

/// Median per-call ns of span \p N over \p Logs; 0 when none recorded.
double medianPerCall(const std::vector<const SpanLog *> &Logs, SpanName N);

/// Writes the kept spans of \p Logs as Chrome trace-event JSON (load in
/// Perfetto or chrome://tracing). Returns false on I/O failure.
bool writeSpanFile(const std::string &Path,
                   const std::vector<const SpanLog *> &Logs,
                   const std::string &Workload, uint64_t Seed);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
