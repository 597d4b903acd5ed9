//===- perfbench/src/Common.h - Shared benchmark helpers --------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Clock, seeded generators, lane-type dispatch, the hardware reference
/// and the summary arithmetic (percentiles, residuals) every part of
/// the served-path benchmark shares.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "service/Key.h"

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

namespace perfbench {

using gmdiv::service::Key;

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// SplitMix64: the whole request stream of a run is a pure function of
/// the seed and the stream's salt.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N), N > 0.
  uint64_t below(uint64_t N) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(next()) * N) >> 64);
  }

private:
  uint64_t State;
};

/// Seed for one named stream of one run: workloads, threads and probe
/// sets each draw from their own stream so adding one leaves the
/// others unchanged.
uint64_t streamSeed(uint64_t Seed, uint64_t Salt);

/// Zipf(s) over ranks [0, N) by Vose's alias method: O(1) per draw.
class ZipfSampler {
public:
  ZipfSampler(size_t N, double S);
  size_t draw(Rng &R) const;

private:
  std::vector<double> Prob;
  std::vector<uint32_t> Alias;
};

/// The lane types the workloads draw from.
enum class Lane : uint8_t { U32, I32, U64 };

Lane laneOf(const Key &K);
Key keyOf(Lane L, uint64_t DivisorBits);

/// Calls \p F with a value-initialized T of lane type \p L.
template <typename Fn> decltype(auto) withLane(Lane L, Fn &&F) {
  switch (L) {
  case Lane::U32:
    return F(uint32_t{});
  case Lane::I32:
    return F(int32_t{});
  case Lane::U64:
    break;
  }
  return F(uint64_t{});
}

template <typename T> T fromBits(uint64_t Bits) {
  return static_cast<T>(static_cast<std::make_unsigned_t<T>>(Bits));
}
template <typename T> uint64_t toBits(T V) {
  return static_cast<uint64_t>(static_cast<std::make_unsigned_t<T>>(V));
}

/// The independent reference: hardware `/` and `%`. Divisors satisfy
/// |d| >= 2, so INT_MIN / -1 never reaches it.
template <typename T> T refDivide(T N, T D) { return static_cast<T>(N / D); }
template <typename T> T refRemainder(T N, T D) {
  return static_cast<T>(N % D);
}
/// remainderBits() semantics on bit patterns at the key's width.
uint64_t refRemainderBits(const Key &K, uint64_t NBits);

enum class Op : uint8_t { Divide, Remainder, DivRem };

/// Typed lane storage for one lane type among the workloads'.
using LaneTuple = std::tuple<std::vector<uint32_t>, std::vector<int32_t>,
                             std::vector<uint64_t>>;
template <typename T> std::vector<T> &lanes(LaneTuple &L) {
  return std::get<std::vector<T>>(L);
}
template <typename T> const std::vector<T> &lanes(const LaneTuple &L) {
  return std::get<std::vector<T>>(L);
}
template <typename Fn> void forEachLane(LaneTuple &L, Fn &&F) {
  std::apply([&](auto &...V) { (F(V), ...); }, L);
}

/// One array request: \p Count lanes of the key's type with the
/// reference results computed at generation time.
struct ArrayJob {
  Key K;
  Op O = Op::Remainder;
  size_t Count = 0;
  LaneTuple In, ExpQ, ExpR;
};

ArrayJob makeArrayJob(const Key &K, Op O, Rng &R, size_t Count);

/// Dividend bits with magnitudes spread over the whole width.
uint64_t spreadBits(Rng &R);

/// A divisor with |d| >= 2 and a log-uniform magnitude, as bits of \p L.
uint64_t drawDivisor(Rng &R, Lane L);

/// Linear interpolation between closest ranks on sorted data, P in
/// [0, 1]. Empty input gives 0.
double percentileSorted(std::span<const double> Sorted, double P);
double median(std::vector<double> V);

/// Latency distribution in ns with constant memory (so the sample count
/// does not show in peak RSS): exact below 256 ns, 128 log-linear
/// buckets per octave above (0.8% resolution), interpolated by rank.
/// quantileNs() matches percentileSorted() on distinct integers below
/// 256.
class LatencyHistogram {
public:
  LatencyHistogram();
  void add(uint64_t Ns);
  void merge(const LatencyHistogram &Other);
  uint64_t count() const { return Count; }
  double quantileNs(double P) const;

private:
  static size_t bucketOf(uint64_t Ns);
  static double lowerBound(size_t Bucket);
  static double width(size_t Bucket);

  std::vector<uint32_t> Counts;
  uint64_t Count = 0;
};

/// The figure a run reports from its per-window values: quantile \p P
/// over the windows in which the host stole no more vCPU time than in
/// the least-stolen quarter of the run (\p Steal, from StealSampler),
/// which is every steal-free window when a quarter or more are. A vCPU
/// the host deschedules stalls every request on it, so the stolen
/// windows show the neighbours rather than the program. Values <= 0
/// mark windows without data.
double steadyQuantile(const std::vector<double> &PerWindow,
                      const std::vector<double> &Steal, double P);

/// The quantile steadyQuantile() takes of throughput and latency
/// windows: the quartile on the slow side. Among steal-free windows the
/// host still switches every few seconds between a loaded state and a
/// quiet one that runs up to a third faster (sibling hyperthreads busy
/// or idle; steal does not show it). A median lands on whichever state
/// a run spent more than half its time in; the slow quartile reads the
/// loaded state unless the host was quiet for three quarters of the run.
constexpr double SlowSideRate = 0.25, SlowSideLatency = 0.75;

/// Latency per time window of a closed loop. A quantile is taken in
/// each window that holds at least MinWindowSamples requests, and the
/// steady slow quartile over those windows is reported.
class WindowedLatency {
public:
  static constexpr uint64_t MinWindowSamples = 1000;

  explicit WindowedLatency(size_t Windows = 0) : Windows(Windows) {}
  void add(size_t Window, uint64_t Ns) { Windows[Window].add(Ns); }
  void merge(const WindowedLatency &Other);
  uint64_t count() const;
  /// steadyQuantile() at SlowSideLatency over eligible windows of each
  /// window's quantile; over all samples when no window is eligible.
  double quantileNs(double P, const std::vector<double> &Steal) const;
  /// Each window's quantile \p P, ns, in time order; 0 for a window
  /// with fewer than MinWindowSamples requests.
  std::vector<double> perWindowNs(double P) const;

private:
  std::vector<LatencyHistogram> Windows;
};

/// Wall and thread-CPU seconds of one set-up.
struct SetupTime {
  double Wall = 0, Cpu = 0;
};

/// Times a set-up from construction to done().
class SetupClock {
public:
  SetupClock();
  SetupTime done() const;

private:
  uint64_t Wall0, Cpu0;
};

/// setup_s: steadyQuantile() at the median of the set-ups' wall times,
/// with the wall time each spent off the CPU (Wall - Cpu: the host
/// running someone else) in place of steal.
double steadySetupSeconds(const std::vector<SetupTime> &Setups);

/// Reads the host's steal time (all vCPUs, from /proc/stat) at each
/// window boundary of a closed loop, from a thread that sleeps between
/// reads.
class StealSampler {
public:
  StealSampler(uint64_t StartNs, uint64_t WindowNs, size_t Windows);
  ~StealSampler();
  /// Stops sampling (the window in progress is measured as far as it
  /// got). Per window: vCPU-seconds stolen per wall-second, 0 for
  /// windows not reached.
  std::vector<double> finish();

private:
  struct State;
  std::unique_ptr<State> S;
};

/// End-to-end cost per unit minus the layers on its blocking path.
double residual(double EndToEnd, std::initializer_list<double> Layers);

/// Peak resident set size of this process (VmHWM), MiB.
double peakRssMiB();

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
