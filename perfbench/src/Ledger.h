//===- perfbench/src/Ledger.h - Direct per-layer probes ---------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's ledger: after the traced loop, one thread calls
/// each layer's public functions directly on the workload's probe set
/// (registry hit paths and admission, DividerEntry, BatchService,
/// BatchDivider, JitDivider/JitBatchDivider, the core dividers and the
/// codegen generators), recording one span per call or per burst of
/// short calls. Every result is checked against the hardware reference
/// outside the spans.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LEDGER_H
#define PERFBENCH_LEDGER_H

#include "Spans.h"
#include "Workloads.h"

#include <array>
#include <optional>

namespace perfbench {

struct LedgerResult {
  /// Checked probe calls (bursts count once) and the failed ones.
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Failed checks by the span of the probe that made them.
  std::array<uint64_t, static_cast<size_t>(SpanName::Count)> FailedBy{};
  /// Route probe: ns per message on the router's served path, one
  /// client, on this workload's keys. Set when requested.
  double RouteNsPerMessage = 0;
  /// Service probe: the batch closed loop on this workload's jobs.
  /// Set when requested.
  std::optional<LoopResult> Service;
};

/// Which of the two end-to-end probes to run (each is skipped on the
/// workload whose own loop already measures that path).
struct LedgerOptions {
  bool RouteProbe = false;
  bool ServiceProbe = false;
};

LedgerResult runLedger(Workload &W, const ProbeSet &P, SpanLog &Log,
                       const LedgerOptions &Opts);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_H
