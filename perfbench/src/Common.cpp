//===- perfbench/src/Common.cpp - Shared benchmark helpers ----------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <ctime>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>

namespace perfbench {

uint64_t streamSeed(uint64_t Seed, uint64_t Salt) {
  Rng R(Seed ^ (Salt * 0xd1b54a32d192ed03ULL));
  return R.next();
}

ZipfSampler::ZipfSampler(size_t N, double S) : Prob(N), Alias(N) {
  std::vector<double> W(N);
  double Sum = 0;
  for (size_t I = 0; I < N; ++I)
    Sum += W[I] = 1.0 / std::pow(static_cast<double>(I + 1), S);
  std::vector<uint32_t> Small, Large;
  for (size_t I = 0; I < N; ++I) {
    W[I] = W[I] * static_cast<double>(N) / Sum;
    (W[I] < 1.0 ? Small : Large).push_back(static_cast<uint32_t>(I));
  }
  while (!Small.empty() && !Large.empty()) {
    const uint32_t Lo = Small.back(), Hi = Large.back();
    Small.pop_back();
    Prob[Lo] = W[Lo];
    Alias[Lo] = Hi;
    W[Hi] -= 1.0 - W[Lo];
    if (W[Hi] < 1.0) {
      Large.pop_back();
      Small.push_back(Hi);
    }
  }
  for (uint32_t I : Large)
    Prob[I] = 1.0, Alias[I] = I;
  for (uint32_t I : Small)
    Prob[I] = 1.0, Alias[I] = I;
}

size_t ZipfSampler::draw(Rng &R) const {
  const size_t I = static_cast<size_t>(R.below(Prob.size()));
  const double U = static_cast<double>(R.next() >> 11) * 0x1.0p-53;
  return U < Prob[I] ? I : Alias[I];
}

Lane laneOf(const Key &K) {
  if (K.WordBits == 64)
    return Lane::U64;
  return K.Kind == gmdiv::service::OpKind::Signed ? Lane::I32 : Lane::U32;
}

Key keyOf(Lane L, uint64_t DivisorBits) {
  return withLane(L, [&](auto Tag) {
    using T = decltype(Tag);
    return gmdiv::service::keyFor<T>(fromBits<T>(DivisorBits));
  });
}

uint64_t refRemainderBits(const Key &K, uint64_t NBits) {
  return withLane(laneOf(K), [&](auto Tag) {
    using T = decltype(Tag);
    return toBits(refRemainder(fromBits<T>(NBits), fromBits<T>(K.DivisorBits)));
  });
}

uint64_t spreadBits(Rng &R) {
  const uint64_t Shift = R.below(64);
  return R.next() >> Shift;
}

uint64_t drawDivisor(Rng &R, Lane L) {
  const int Bits = L == Lane::U64 ? 64 : 32;
  // Magnitude bits in [2, Bits - 1] for signed lanes, [2, Bits] else.
  const int Top = L == Lane::I32 ? Bits - 1 : Bits;
  const int Width =
      2 + static_cast<int>(R.below(static_cast<uint64_t>(Top - 1)));
  const uint64_t High = uint64_t{1} << (Width - 1);
  const uint64_t Magnitude = High | (R.next() & (High - 1));
  if (L != Lane::I32)
    return Magnitude;
  const int32_t S = static_cast<int32_t>(Magnitude);
  return toBits<int32_t>(R.below(2) ? -S : S);
}

ArrayJob makeArrayJob(const Key &K, Op O, Rng &R, size_t Count) {
  ArrayJob J;
  J.K = K;
  J.O = O;
  J.Count = Count;
  withLane(laneOf(K), [&](auto Tag) {
    using T = decltype(Tag);
    const T D = fromBits<T>(K.DivisorBits);
    auto &In = lanes<T>(J.In);
    auto &Q = lanes<T>(J.ExpQ);
    auto &Rem = lanes<T>(J.ExpR);
    In.resize(Count);
    Q.resize(Count);
    Rem.resize(Count);
    for (size_t I = 0; I < Count; ++I) {
      In[I] = fromBits<T>(spreadBits(R));
      Q[I] = refDivide(In[I], D);
      Rem[I] = refRemainder(In[I], D);
    }
  });
  return J;
}

double percentileSorted(std::span<const double> Sorted, double P) {
  if (Sorted.empty())
    return 0;
  const double Pos = P * static_cast<double>(Sorted.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  const double Frac = Pos - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return percentileSorted(V, 0.5);
}

namespace {
constexpr size_t ExactBuckets = 256;
constexpr size_t PerOctave = 128;
constexpr int ExactBits = 8;
constexpr int OctaveBits = 7;
constexpr size_t Octaves = 64 - ExactBits;
} // namespace

LatencyHistogram::LatencyHistogram()
    : Counts(ExactBuckets + Octaves * PerOctave) {}

size_t LatencyHistogram::bucketOf(uint64_t Ns) {
  if (Ns < ExactBuckets)
    return static_cast<size_t>(Ns);
  const int Exp = 63 - __builtin_clzll(Ns); // >= ExactBits
  const int Shift = Exp - OctaveBits;
  return ExactBuckets + static_cast<size_t>(Exp - ExactBits) * PerOctave +
         static_cast<size_t>((Ns >> Shift) - PerOctave);
}

double LatencyHistogram::lowerBound(size_t B) {
  if (B < ExactBuckets)
    return static_cast<double>(B);
  const size_t Exp = ExactBits + (B - ExactBuckets) / PerOctave;
  const uint64_t Mantissa = PerOctave + (B - ExactBuckets) % PerOctave;
  return static_cast<double>(Mantissa << (Exp - OctaveBits));
}

double LatencyHistogram::width(size_t B) {
  if (B < ExactBuckets)
    return 1;
  const size_t Exp = ExactBits + (B - ExactBuckets) / PerOctave;
  return static_cast<double>(uint64_t{1} << (Exp - OctaveBits));
}

void LatencyHistogram::add(uint64_t Ns) {
  ++Counts[bucketOf(Ns)];
  ++Count;
}

void LatencyHistogram::merge(const LatencyHistogram &Other) {
  for (size_t B = 0; B < Counts.size(); ++B)
    Counts[B] += Other.Counts[B];
  Count += Other.Count;
}

double LatencyHistogram::quantileNs(double P) const {
  if (!Count)
    return 0;
  const double Rank = P * static_cast<double>(Count - 1);
  double Below = 0;
  for (size_t B = 0; B < Counts.size(); ++B) {
    const double C = static_cast<double>(Counts[B]);
    if (C > 0 && Rank < Below + C)
      return lowerBound(B) + width(B) * (Rank - Below) / C;
    Below += C;
  }
  return lowerBound(Counts.size() - 1);
}

void WindowedLatency::merge(const WindowedLatency &Other) {
  for (size_t W = 0; W < Windows.size(); ++W)
    Windows[W].merge(Other.Windows[W]);
}

uint64_t WindowedLatency::count() const {
  uint64_t N = 0;
  for (const LatencyHistogram &H : Windows)
    N += H.count();
  return N;
}

std::vector<double> WindowedLatency::perWindowNs(double P) const {
  std::vector<double> PerWindow;
  for (const LatencyHistogram &H : Windows)
    PerWindow.push_back(H.count() >= MinWindowSamples ? H.quantileNs(P) : 0);
  return PerWindow;
}

double WindowedLatency::quantileNs(double P,
                                   const std::vector<double> &Steal) const {
  std::vector<double> PerWindow = perWindowNs(P);
  if (std::any_of(PerWindow.begin(), PerWindow.end(),
                  [](double V) { return V > 0; }))
    return steadyQuantile(PerWindow, Steal, SlowSideLatency);
  LatencyHistogram All;
  for (const LatencyHistogram &H : Windows)
    All.merge(H);
  return All.quantileNs(P);
}

double steadyQuantile(const std::vector<double> &PerWindow,
                      const std::vector<double> &Steal, double P) {
  auto StealOf = [&](size_t W) { return W < Steal.size() ? Steal[W] : 0.0; };
  std::vector<double> Stolen;
  for (size_t W = 0; W < PerWindow.size(); ++W)
    if (PerWindow[W] > 0)
      Stolen.push_back(StealOf(W));
  std::sort(Stolen.begin(), Stolen.end());
  const double Cut = percentileSorted(Stolen, 0.25);
  std::vector<double> Kept;
  for (size_t W = 0; W < PerWindow.size(); ++W)
    if (PerWindow[W] > 0 && StealOf(W) <= Cut)
      Kept.push_back(PerWindow[W]);
  std::sort(Kept.begin(), Kept.end());
  return percentileSorted(Kept, P);
}

namespace {
uint64_t cpuClockNs(clockid_t Clock) {
  timespec T;
  clock_gettime(Clock, &T);
  return static_cast<uint64_t>(T.tv_sec) * 1000000000u +
         static_cast<uint64_t>(T.tv_nsec);
}
uint64_t threadCpuNs() { return cpuClockNs(CLOCK_THREAD_CPUTIME_ID); }

/// Host steal time of all vCPUs so far (the eighth field of the cpu
/// line of /proc/stat), ns; 0 where the file is unreadable.
uint64_t stealNs() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  uint64_t V[8] = {};
  In >> Cpu;
  for (uint64_t &X : V)
    In >> X;
  return In ? V[7] * (1000000000u / static_cast<uint64_t>(sysconf(_SC_CLK_TCK)))
            : 0;
}
} // namespace

SetupClock::SetupClock() : Wall0(nowNs()), Cpu0(threadCpuNs()) {}

SetupTime SetupClock::done() const {
  const uint64_t Cpu = threadCpuNs(), Wall = nowNs();
  return {static_cast<double>(Wall - Wall0) / 1e9,
          static_cast<double>(Cpu - Cpu0) / 1e9};
}

double steadySetupSeconds(const std::vector<SetupTime> &Setups) {
  std::vector<double> Wall, OffCpu;
  for (const SetupTime &S : Setups) {
    Wall.push_back(S.Wall);
    OffCpu.push_back(S.Wall - S.Cpu);
  }
  return steadyQuantile(Wall, OffCpu, 0.5);
}

struct StealSampler::State {
  std::mutex M;
  std::condition_variable Cv;
  bool Stop = false;
  std::vector<double> Steal;
  std::thread Thread;
};

StealSampler::StealSampler(uint64_t StartNs, uint64_t WindowNs,
                           size_t Windows)
    : S(std::make_unique<State>()) {
  S->Steal.assign(Windows, 0.0);
  S->Thread = std::thread([this, StartNs, WindowNs, Windows] {
    const auto At = [](uint64_t Ns) {
      return std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(Ns));
    };
    uint64_t Wall = nowNs(), Stolen = stealNs();
    std::unique_lock<std::mutex> Lock(S->M);
    for (size_t W = 0; W < Windows; ++W) {
      // On stop, the window in progress is measured as far as it got.
      const bool Stopped = S->Cv.wait_until(
          Lock, At(StartNs + (W + 1) * WindowNs), [this] { return S->Stop; });
      const uint64_t T = nowNs(), St = stealNs();
      S->Steal[W] = static_cast<double>(St - Stolen) /
                    static_cast<double>(std::max<uint64_t>(T - Wall, 1));
      Wall = T, Stolen = St;
      if (Stopped)
        return;
    }
  });
}

StealSampler::~StealSampler() { finish(); }

std::vector<double> StealSampler::finish() {
  {
    std::lock_guard<std::mutex> Lock(S->M);
    S->Stop = true;
  }
  S->Cv.notify_all();
  if (S->Thread.joinable())
    S->Thread.join();
  return S->Steal;
}

double residual(double EndToEnd, std::initializer_list<double> Layers) {
  double Sum = 0;
  for (double L : Layers)
    Sum += L;
  return EndToEnd - Sum;
}

double peakRssMiB() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0;
}

} // namespace perfbench
