//===- perfbench/src/Workloads.h - Seeded served-path workloads -*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three closed-loop workloads (router, batch, churn). Each one
/// generates its inputs from the seed, builds its registry/service
/// objects with pinned Options, runs its loop for a fixed time, checks
/// every lane of every request against the hardware reference outside
/// the timed region, and hands the ledger a probe set drawn from the
/// same inputs. README.md says why each workload exists.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"
#include "Spans.h"

#include "service/BatchService.h"
#include "service/Registry.h"

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Registry Options, spelled out rather than read from GMDIV_* so the
/// environment cannot change what is measured (these are Options{}).
gmdiv::service::DividerRegistry::Options registryOptions();
/// BatchService Options for the batch workload and the ledger's
/// service probe.
gmdiv::service::BatchService::Options serviceOptions();

/// Throughput and latency quantiles are taken per window of this length
/// and reported as the windows' steady slow quartile (see steadyQuantile),
/// so a stall on a shared host moves a few windows, not the run's figure.
constexpr double WindowSeconds = 0.1;

/// What one closed-loop phase measured.
struct LoopResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Steady slow quartile over windows of requests per second: requests
  /// over the mean per-client time spent inside requests (router,
  /// churn), or over wall time (batch, whose requests overlap).
  double RequestsPerS = 0;
  /// The per-window rates RequestsPerS summarizes.
  std::vector<double> WindowRates;
  /// Per-window host steal (see StealSampler).
  std::vector<double> WindowSteal;
  /// Per-request latency, ns, by window.
  WindowedLatency Latency;
  /// Units of work per request (messages per burst, lanes per job).
  double UnitsPerRequest = 0;
  /// End-to-end cost per unit at RequestsPerS, ns: per client (router,
  /// churn) or per worker (batch).
  double NsPerUnit = 0;
  /// Batch loops only: worker-side JobNs, and latency minus JobNs.
  LatencyHistogram JobNs, QueueWaitNs;
  /// Counter deltas over the phase.
  gmdiv::cache::CacheStats Registry, JitCache;
};

/// Direct per-layer inputs the ledger draws from one workload.
struct ProbeSet {
  /// Keys resident in the workload's registry.
  std::vector<Key> Keys;
  /// Scalar stream in bursts of BurstMessages: key index, dividend
  /// bits, reference remainder bits.
  std::vector<uint32_t> MsgKey;
  std::vector<uint64_t> MsgBits, MsgRem;
  /// Array requests the workload would send.
  std::vector<ArrayJob> Jobs;
  /// Keys never seen by the workload, for constructor/admission probes
  /// (three disjoint sets so no probe warms another's cache).
  std::vector<Key> FreshCtor, FreshBuild, FreshAdmit;
};

constexpr size_t BurstMessages = 256;

class Workload {
public:
  virtual ~Workload() = default;
  virtual const char *name() const = 0;
  /// Closed-loop client threads (the batch submitter counts as one).
  virtual size_t clients() const = 0;
  /// Builds fresh registry/service objects and runs the warm-up
  /// admissions, replacing the previous set. Returns its time.
  virtual SetupTime setup() = 0;
  /// Runs the closed loop for \p Seconds. \p Logs is null for the
  /// untraced run, else one SpanLog per client thread.
  virtual LoopResult run(double Seconds, std::vector<SpanLog> *Logs) = 0;
  virtual gmdiv::service::DividerRegistry &registry() = 0;
  /// The ledger's inputs, drawn from this workload's generators.
  virtual ProbeSet probeSet() const = 0;
  /// Hash of the first \p Requests requests of every client stream.
  virtual uint64_t fingerprint(size_t Requests) const = 0;
};

/// Null for an unknown name. Generates every input up front.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       uint64_t Seed);

/// The router's served path on one burst: withEntry + remainderBits per
/// message. Returns false if any key missed.
bool routeBurst(gmdiv::service::DividerRegistry &Reg,
                std::span<const Key> Keys, const uint32_t *MsgKey,
                const uint64_t *MsgBits, uint64_t *Out);

/// The batch workload's closed loop: one submitter keeps InFlight jobs
/// in flight on \p Svc, cycling through \p Jobs, for \p Seconds.
LoopResult runBatchLoop(gmdiv::service::BatchService &Svc,
                        std::span<const ArrayJob> Jobs, double Seconds,
                        SpanLog *Log);

/// True when \p Out (quotients) / \p Rem match job \p J's reference for
/// its op.
bool checkArrayJob(const ArrayJob &J, const LaneTuple &Q,
                   const LaneTuple &R);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
