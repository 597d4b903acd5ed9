//===- perfbench/src/Workloads.cpp - Seeded served-path workloads ---------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "jit/JitCache.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>

using gmdiv::jit::CodeCache;
using gmdiv::service::BatchResult;
using gmdiv::service::BatchService;
using gmdiv::service::DividerEntry;
using gmdiv::service::DividerRegistry;

namespace perfbench {

DividerRegistry::Options registryOptions() {
  DividerRegistry::Options O;
  O.NumShards = 16;
  O.ShardCapacity = 256;
  O.UseJit = true;
  O.SampleEvery = 64;
  O.TopKSlots = 32;
  return O;
}

BatchService::Options serviceOptions() {
  BatchService::Options O;
  O.Workers = 2;
  O.QueueCapacity = 1024;
  return O;
}

namespace {

// Stream salts: every generator of a run draws from its own stream.
enum : uint64_t {
  SaltRouterTenants = 1,
  SaltRouterStream = 0x100,
  SaltBatchKeys = 2,
  SaltBatchJobs = 3,
  SaltChurnPool = 4,
  SaltChurnDividends = 5,
  SaltChurnStream = 0x200,
  SaltProbe = 6,
  SaltFresh = 7,
};

constexpr size_t RouterTenants = 256;
constexpr size_t RouterThreads = 2;
constexpr size_t RouterRingBursts = 1024;

constexpr size_t BatchKeys = 64;
constexpr size_t BatchRing = 128;
constexpr size_t BatchLanes = 4096;
constexpr size_t BatchInFlight = 8;

constexpr size_t ChurnPool = size_t{1} << 20;
constexpr size_t ChurnThreads = 2;
constexpr size_t ChurnLanes = 64;
constexpr size_t ChurnDividends = size_t{1} << 16;
constexpr size_t ChurnWarmKeys = 4096;

/// The key sets (router tenants, batch keys and job shapes, churn pool)
/// play the part of a deployment's configuration: drawn once from this
/// fixed seed, so --seed varies the traffic, not which divisors are hot.
/// With seeded tenants, the sequences of the few hottest tenants moved
/// router's p50 by up to 25% from seed to seed.
constexpr uint64_t KeySetSeed = 0x9e3779b97f4a7c15ULL;

constexpr size_t FreshPerProbe = 256;
constexpr double ZipfExponent = 1.0;
/// Churn's skew: steep enough that about 70% of requests hit, so the
/// median request is a hit and the 99th percentile an admission, on
/// every seed (at 1.0 the hit ratio sits near 50%).
constexpr double ChurnZipfExponent = 1.1;

uint64_t keyOrder(const Key &K) {
  return K.DivisorBits ^ (static_cast<uint64_t>(laneOf(K)) << 62);
}

bool isPrime(uint64_t N) {
  if (N < 2)
    return false;
  for (uint64_t P = 2; P * P <= N; ++P)
    if (N % P == 0)
      return false;
  return true;
}

/// A prime bucket count, log-uniform in [2^6, 2^24).
uint64_t drawPrime(Rng &R) {
  const uint64_t Width = 6 + R.below(18);
  uint64_t N = (uint64_t{1} << Width) | R.below(uint64_t{1} << Width);
  while (!isPrime(N))
    ++N;
  return N;
}

/// Draws \p Count keys from \p Draw that are not in \p Taken (which
/// grows), for the ledger's constructor/admission probes.
template <typename DrawFn>
std::vector<Key> drawFresh(std::set<std::pair<uint8_t, uint64_t>> &Taken,
                           size_t Count, DrawFn &&Draw) {
  std::vector<Key> Out;
  while (Out.size() < Count) {
    const Key K = Draw();
    if (Taken.insert({static_cast<uint8_t>(laneOf(K)), K.DivisorBits}).second)
      Out.push_back(K);
  }
  return Out;
}

std::set<std::pair<uint8_t, uint64_t>> keySet(std::span<const Key> Keys) {
  std::set<std::pair<uint8_t, uint64_t>> S;
  for (const Key &K : Keys)
    S.insert({static_cast<uint8_t>(laneOf(K)), K.DivisorBits});
  return S;
}

/// Scalar probe messages: \p Bursts bursts of (key index, dividend).
template <typename DrawFn>
void fillMessages(ProbeSet &P, size_t Bursts, DrawFn &&Draw) {
  const size_t N = Bursts * BurstMessages;
  P.MsgKey.resize(N);
  P.MsgBits.resize(N);
  P.MsgRem.resize(N);
  for (size_t I = 0; I < N; ++I) {
    std::tie(P.MsgKey[I], P.MsgBits[I]) = Draw(I);
    P.MsgRem[I] = refRemainderBits(P.Keys[P.MsgKey[I]], P.MsgBits[I]);
  }
}

size_t windowsFor(double Seconds) {
  return static_cast<size_t>(std::ceil(Seconds / WindowSeconds));
}

/// Per-client state shared by the router and churn loops.
struct ClientTally {
  ClientTally(uint64_t Start, size_t Windows)
      : Start(Start), Requests(Windows), BusyNs(Windows), Latency(Windows) {}

  void record(uint64_t T0, uint64_t T1, bool Ok) {
    Failed += !Ok;
    const size_t W = std::min<size_t>((T1 - Start) / WindowNs,
                                      Requests.size() - 1);
    Latency.add(W, T1 - T0);
    ++Requests[W];
    BusyNs[W] += T1 - T0;
  }

  static constexpr uint64_t WindowNs =
      static_cast<uint64_t>(WindowSeconds * 1e9);
  uint64_t Start;
  uint64_t Failed = 0;
  std::vector<uint64_t> Requests, BusyNs;
  WindowedLatency Latency;
};

/// Runs \p Body(client, endNs, tally) on \p Clients threads released
/// together, then folds their tallies into a LoopResult.
template <typename BodyFn>
LoopResult runClients(size_t Clients, double Seconds, double Units,
                      BodyFn &&Body) {
  const size_t Windows = windowsFor(Seconds);
  std::vector<ClientTally> Tally(Clients, ClientTally(0, Windows));
  std::atomic<size_t> Ready{0};
  std::atomic<uint64_t> EndNs{0};
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      Ready.fetch_add(1);
      uint64_t End;
      while ((End = EndNs.load(std::memory_order_acquire)) == 0)
        std::this_thread::yield();
      Body(C, End, Tally[C]);
    });
  while (Ready.load() < Clients)
    std::this_thread::yield();
  const uint64_t Start = nowNs();
  for (ClientTally &T : Tally)
    T.Start = Start;
  StealSampler Steal(Start, ClientTally::WindowNs, Windows);
  EndNs.store(Start + static_cast<uint64_t>(Seconds * 1e9),
              std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();

  LoopResult R;
  R.WindowSteal = Steal.finish();
  R.Latency = WindowedLatency(Windows);
  std::vector<double> Rates;
  for (size_t W = 0; W < Windows; ++W) {
    uint64_t Requests = 0, Busy = 0;
    for (const ClientTally &T : Tally) {
      Requests += T.Requests[W];
      Busy += T.BusyNs[W];
    }
    Rates.push_back(Busy ? static_cast<double>(Requests) * 1e9 *
                               static_cast<double>(Clients) /
                               static_cast<double>(Busy)
                         : 0.0);
  }
  for (const ClientTally &T : Tally) {
    R.Attempted += T.Latency.count();
    R.Failed += T.Failed;
    R.Latency.merge(T.Latency);
  }
  R.WindowRates = Rates;
  R.RequestsPerS = steadyQuantile(Rates, R.WindowSteal, SlowSideRate);
  R.UnitsPerRequest = Units;
  R.NsPerUnit = static_cast<double>(Clients) * 1e9 / (R.RequestsPerS * Units);
  return R;
}

gmdiv::cache::CacheStats delta(const gmdiv::cache::CacheStats &After,
                               const gmdiv::cache::CacheStats &Before) {
  gmdiv::cache::CacheStats D = After;
  D.Hits -= Before.Hits;
  D.Misses -= Before.Misses;
  D.NegativeHits -= Before.NegativeHits;
  D.Evictions -= Before.Evictions;
  D.Inserts -= Before.Inserts;
  return D;
}

/// Wraps a phase with registry and JIT-cache counter deltas.
template <typename Fn>
LoopResult withDeltas(DividerRegistry &Reg, Fn &&Phase) {
  const auto RegBefore = Reg.stats();
  const auto JitBefore = CodeCache::global().stats();
  LoopResult R = Phase();
  R.Registry = delta(Reg.stats(), RegBefore);
  R.JitCache = delta(CodeCache::global().stats(), JitBefore);
  return R;
}

//===----------------------------------------------------------------------===//
// router
//===----------------------------------------------------------------------===//

class RouterWorkload final : public Workload {
public:
  explicit RouterWorkload(uint64_t Seed)
      : Seed(Seed), Popularity(RouterTenants, ZipfExponent) {
    Rng R(streamSeed(KeySetSeed, SaltRouterTenants));
    // Lane types alternate by popularity rank, so every seed sends the
    // same u32/u64 traffic mix.
    std::set<uint64_t> Primes;
    while (Tenants.size() < RouterTenants) {
      const uint64_t P = drawPrime(R);
      const Lane L = Tenants.size() % 2 ? Lane::U64 : Lane::U32;
      if (Primes.insert(P).second)
        Tenants.push_back(keyOf(L, P));
    }
    for (size_t T = 0; T < RouterThreads; ++T) {
      Rng S(streamSeed(Seed, SaltRouterStream + T));
      Ring &G = Rings[T];
      const size_t N = RouterRingBursts * BurstMessages;
      G.KeyIdx.resize(N);
      G.Bits.resize(N);
      G.Rem.resize(N);
      for (size_t I = 0; I < N; ++I) {
        G.KeyIdx[I] = static_cast<uint32_t>(Popularity.draw(S));
        G.Bits[I] = S.next();
        G.Rem[I] = refRemainderBits(Tenants[G.KeyIdx[I]], G.Bits[I]);
      }
    }
  }

  const char *name() const override { return "router"; }
  size_t clients() const override { return RouterThreads; }

  SetupTime setup() override {
    Reg.reset();
    CodeCache::global().clear();
    const SetupClock Clock;
    Reg = std::make_unique<DividerRegistry>(registryOptions());
    for (const Key &K : Tenants)
      if (!Reg->acquire(K))
        throw std::runtime_error("router: tenant key rejected");
    return Clock.done();
  }

  LoopResult run(double Seconds, std::vector<SpanLog> *Logs) override {
    return withDeltas(*Reg, [&] {
      return runClients(
          RouterThreads, Seconds, BurstMessages,
          [&](size_t C, uint64_t End, ClientTally &Tally) {
            const Ring &G = Rings[C];
            SpanLog *Log = Logs ? &(*Logs)[C] : nullptr;
            std::array<uint64_t, BurstMessages> Out{};
            for (uint64_t B = 0;; ++B) {
              const uint64_t T0 = nowNs();
              if (T0 >= End)
                break;
              const size_t Off = (B % RouterRingBursts) * BurstMessages;
              bool Ok = false;
              try {
                Ok = routeBurst(*Reg, Tenants, &G.KeyIdx[Off], &G.Bits[Off],
                                Out.data());
              } catch (...) {
              }
              const uint64_t T1 = nowNs();
              const uint64_t Id = (uint64_t{C} << 48) | B;
              if (Log) {
                Log->add(SpanName::RouterRequest, Id, SpanName::None, T0, T1,
                         BurstMessages);
                Log->add(SpanName::RegistryWithEntryRoute, Id,
                         SpanName::RouterRequest, T0, T1, BurstMessages);
              }
              Tally.record(T0, T1,
                           Ok && std::equal(Out.begin(), Out.end(),
                                            &G.Rem[Off]));
            }
          });
    });
  }

  DividerRegistry &registry() override { return *Reg; }

  ProbeSet probeSet() const override {
    ProbeSet P;
    P.Keys = Tenants;
    const Ring &G = Rings[0];
    fillMessages(P, 64, [&](size_t I) {
      return std::pair<uint32_t, uint64_t>{G.KeyIdx[I], G.Bits[I]};
    });
    Rng R(streamSeed(Seed, SaltProbe));
    for (size_t J = 0; J < 32; ++J)
      P.Jobs.push_back(makeArrayJob(Tenants[Popularity.draw(R)],
                                    Op::Remainder, R, BatchLanes));
    Rng F(streamSeed(Seed, SaltFresh));
    auto Taken = keySet(Tenants);
    auto Draw = [&] {
      return keyOf(F.below(2) ? Lane::U64 : Lane::U32, drawPrime(F));
    };
    P.FreshCtor = drawFresh(Taken, FreshPerProbe, Draw);
    P.FreshBuild = drawFresh(Taken, FreshPerProbe, Draw);
    P.FreshAdmit = drawFresh(Taken, FreshPerProbe, Draw);
    return P;
  }

  uint64_t fingerprint(size_t Requests) const override {
    uint64_t H = 0;
    for (const Key &K : Tenants)
      H = streamSeed(H, keyOrder(K));
    for (const Ring &G : Rings)
      for (size_t I = 0; I < Requests * BurstMessages; ++I)
        H = streamSeed(H, G.Bits[I] ^ G.KeyIdx[I]);
    return H;
  }

private:
  struct Ring {
    std::vector<uint32_t> KeyIdx;
    std::vector<uint64_t> Bits, Rem;
  };

  uint64_t Seed;
  ZipfSampler Popularity;
  std::vector<Key> Tenants;
  std::array<Ring, RouterThreads> Rings;
  std::unique_ptr<DividerRegistry> Reg;
};

//===----------------------------------------------------------------------===//
// batch
//===----------------------------------------------------------------------===//

constexpr Lane BatchLaneTypes[] = {Lane::U32, Lane::I32, Lane::U64};

Lane drawBatchLane(Rng &R) { return BatchLaneTypes[R.below(3)]; }

class BatchWorkload final : public Workload {
public:
  explicit BatchWorkload(uint64_t Seed) : Seed(Seed) {
    // Lane types and ops are assigned round-robin (key i has lane type
    // i % 3; job j has lane type j % 3 and op j / 3 % 3). Keys and each
    // job's key come from the key-set seed, lanes from --seed.
    Rng R(streamSeed(KeySetSeed, SaltBatchKeys));
    std::set<std::pair<uint8_t, uint64_t>> Taken;
    while (Keys.size() < BatchKeys) {
      const Lane L = BatchLaneTypes[Keys.size() % 3];
      Keys.push_back(drawFresh(Taken, 1, [&] {
        return keyOf(L, drawDivisor(R, L));
      })[0]);
    }
    Rng Shape(streamSeed(KeySetSeed, SaltBatchJobs));
    Rng J(streamSeed(Seed, SaltBatchJobs));
    for (size_t I = 0; I < BatchRing; ++I) {
      const size_t Type = I % 3;
      const size_t OfType = (BatchKeys - Type + 2) / 3;
      const Key &K = Keys[Type + 3 * Shape.below(OfType)];
      const Op O = static_cast<Op>(I / 3 % 3);
      Jobs.push_back(makeArrayJob(K, O, J, BatchLanes));
    }
  }

  const char *name() const override { return "batch"; }
  size_t clients() const override { return 1; }

  SetupTime setup() override {
    Svc.reset();
    Reg.reset();
    CodeCache::global().clear();
    const SetupClock Clock;
    Reg = std::make_unique<DividerRegistry>(registryOptions());
    Svc = std::make_unique<BatchService>(*Reg, serviceOptions());
    for (const Key &K : Keys)
      if (!Reg->acquire(K))
        throw std::runtime_error("batch: key rejected");
    return Clock.done();
  }

  LoopResult run(double Seconds, std::vector<SpanLog> *Logs) override {
    return withDeltas(*Reg, [&] {
      return runBatchLoop(*Svc, Jobs, Seconds, Logs ? &(*Logs)[0] : nullptr);
    });
  }

  DividerRegistry &registry() override { return *Reg; }

  ProbeSet probeSet() const override {
    ProbeSet P;
    P.Keys = Keys;
    P.Jobs = Jobs;
    std::vector<uint32_t> JobKey;
    for (const ArrayJob &J : Jobs)
      JobKey.push_back(static_cast<uint32_t>(
          std::find(Keys.begin(), Keys.end(), J.K) - Keys.begin()));
    // The first 256 lanes of every job, as a scalar stream.
    fillMessages(P, Jobs.size(), [&](size_t I) {
      const ArrayJob &J = Jobs[I / BurstMessages];
      const size_t Lane0 = I % BurstMessages;
      const uint64_t Bits = withLane(laneOf(J.K), [&](auto Tag) {
        return toBits(lanes<decltype(Tag)>(J.In)[Lane0]);
      });
      return std::pair<uint32_t, uint64_t>{JobKey[I / BurstMessages], Bits};
    });
    Rng F(streamSeed(Seed, SaltFresh));
    auto Taken = keySet(Keys);
    auto Draw = [&] {
      const Lane L = drawBatchLane(F);
      return keyOf(L, drawDivisor(F, L));
    };
    P.FreshCtor = drawFresh(Taken, FreshPerProbe, Draw);
    P.FreshBuild = drawFresh(Taken, FreshPerProbe, Draw);
    P.FreshAdmit = drawFresh(Taken, FreshPerProbe, Draw);
    return P;
  }

  uint64_t fingerprint(size_t Requests) const override {
    uint64_t H = 0;
    for (size_t I = 0; I < std::min(Requests, Jobs.size()); ++I) {
      const ArrayJob &J = Jobs[I];
      H = streamSeed(H, keyOrder(J.K) ^ static_cast<uint64_t>(J.O));
      withLane(laneOf(J.K), [&](auto Tag) {
        for (auto V : lanes<decltype(Tag)>(J.In))
          H = streamSeed(H, toBits(V));
      });
    }
    return H;
  }

private:
  uint64_t Seed;
  std::vector<Key> Keys;
  std::vector<ArrayJob> Jobs;
  std::unique_ptr<DividerRegistry> Reg;
  std::unique_ptr<BatchService> Svc;
};

//===----------------------------------------------------------------------===//
// churn
//===----------------------------------------------------------------------===//

Lane drawChurnLane(Rng &R) { return R.below(2) ? Lane::U64 : Lane::U32; }

class ChurnWorkload final : public Workload {
public:
  explicit ChurnWorkload(uint64_t Seed)
      : Seed(Seed), Popularity(ChurnPool, ChurnZipfExponent) {
    Rng R(streamSeed(KeySetSeed, SaltChurnPool));
    Pool.resize(ChurnPool);
    for (Key &K : Pool) {
      const Lane L = drawChurnLane(R);
      K = keyOf(L, drawDivisor(R, L));
    }
    Rng D(streamSeed(Seed, SaltChurnDividends));
    forEachLane(Dividends, [&](auto &Vec) {
      Vec.resize(ChurnDividends);
      for (auto &X : Vec)
        X = fromBits<std::decay_t<decltype(X)>>(spreadBits(D));
    });
  }

  const char *name() const override { return "churn"; }
  size_t clients() const override { return ChurnThreads; }

  SetupTime setup() override {
    Reg.reset();
    CodeCache::global().clear();
    const SetupClock Clock;
    Reg = std::make_unique<DividerRegistry>(registryOptions());
    // Least popular first, so the hottest keys carry the newest stamps.
    for (size_t R = ChurnWarmKeys; R-- > 0;)
      if (!Reg->acquire(Pool[R]))
        throw std::runtime_error("churn: pool key rejected");
    return Clock.done();
  }

  LoopResult run(double Seconds, std::vector<SpanLog> *Logs) override {
    const uint64_t Phase = Phases++;
    return withDeltas(*Reg, [&] {
      return runClients(
          ChurnThreads, Seconds, ChurnLanes,
          [&](size_t C, uint64_t End, ClientTally &Tally) {
            Rng S(streamSeed(Seed, SaltChurnStream + Phase * 16 + C));
            SpanLog *Log = Logs ? &(*Logs)[C] : nullptr;
            for (uint64_t Q = 0;; ++Q) {
              const Key &K = Pool[Popularity.draw(S)];
              const size_t Off = S.below(ChurnDividends - ChurnLanes);
              const uint64_t Id = (uint64_t{C} << 48) | Q;
              const bool Issued = withLane(laneOf(K), [&](auto Tag) {
                using T = decltype(Tag);
                return request<T>(K, &lanes<T>(Dividends)[Off], End, Id, Log,
                                  Tally);
              });
              if (!Issued)
                break;
            }
          });
    });
  }

  DividerRegistry &registry() override { return *Reg; }

  ProbeSet probeSet() const override {
    ProbeSet P;
    P.Keys.assign(Pool.begin(), Pool.begin() + 256);
    Rng R(streamSeed(Seed, SaltProbe));
    ZipfSampler Top(P.Keys.size(), ChurnZipfExponent);
    fillMessages(P, 64, [&](size_t) {
      const uint32_t K = static_cast<uint32_t>(Top.draw(R));
      return std::pair<uint32_t, uint64_t>{K, spreadBits(R)};
    });
    for (size_t J = 0; J < 512; ++J)
      P.Jobs.push_back(
          makeArrayJob(P.Keys[Top.draw(R)], Op::Remainder, R, ChurnLanes));
    // The pool is too large for a std::set; check novelty against its
    // sorted key bits instead.
    std::vector<uint64_t> Sorted;
    Sorted.reserve(Pool.size());
    for (const Key &K : Pool)
      Sorted.push_back(keyOrder(K));
    std::sort(Sorted.begin(), Sorted.end());
    Rng F(streamSeed(Seed, SaltFresh));
    std::set<std::pair<uint8_t, uint64_t>> Taken;
    auto Draw = [&] {
      for (;;) {
        const Lane L = drawChurnLane(F);
        const Key K = keyOf(L, drawDivisor(F, L));
        if (!std::binary_search(Sorted.begin(), Sorted.end(), keyOrder(K)))
          return K;
      }
    };
    P.FreshCtor = drawFresh(Taken, FreshPerProbe, Draw);
    P.FreshBuild = drawFresh(Taken, FreshPerProbe, Draw);
    P.FreshAdmit = drawFresh(Taken, FreshPerProbe, Draw);
    return P;
  }

  uint64_t fingerprint(size_t Requests) const override {
    uint64_t H = 0;
    for (size_t C = 0; C < ChurnThreads; ++C) {
      Rng S(streamSeed(Seed, SaltChurnStream + C));
      for (size_t Q = 0; Q < Requests; ++Q) {
        const Key &K = Pool[Popularity.draw(S)];
        H = streamSeed(H, keyOrder(K) ^ S.below(ChurnDividends - ChurnLanes));
      }
    }
    for (uint64_t V : lanes<uint64_t>(Dividends))
      H = streamSeed(H, V);
    return H;
  }

private:
  /// One churn request: acquire + 64-lane remainderArray. Returns false
  /// when the loop's time is up (the request is then not issued).
  template <typename T>
  bool request(const Key &K, const T *In, uint64_t End, uint64_t Id,
               SpanLog *Log, ClientTally &Tally) {
    std::array<T, ChurnLanes> Out;
    Out.fill(static_cast<T>(0x5a5a5a5a));
    const uint64_t T0 = nowNs();
    if (T0 >= End)
      return false;
    bool Ok = false;
    uint64_t TA = 0;
    try {
      DividerRegistry::EntryHandle E = Reg->acquire(K);
      if (Log)
        TA = nowNs();
      if (E) {
        E->remainderArray(In, Out.data(), ChurnLanes);
        Ok = true;
      }
    } catch (...) {
    }
    const uint64_t T1 = nowNs();
    if (Log) {
      Log->add(SpanName::ChurnRequest, Id, SpanName::None, T0, T1);
      Log->add(SpanName::RegistryAcquire, Id, SpanName::ChurnRequest, T0, TA);
      Log->add(SpanName::EntryRemainderArray, Id, SpanName::ChurnRequest, TA,
               T1);
    }
    const T D = fromBits<T>(K.DivisorBits);
    for (size_t I = 0; Ok && I < ChurnLanes; ++I)
      Ok = Out[I] == refRemainder(In[I], D);
    Tally.record(T0, T1, Ok);
    return true;
  }

  uint64_t Seed;
  ZipfSampler Popularity;
  std::vector<Key> Pool;
  LaneTuple Dividends;
  uint64_t Phases = 0;
  std::unique_ptr<DividerRegistry> Reg;
};

//===----------------------------------------------------------------------===//
// The batch closed loop (shared with the ledger's service probe)
//===----------------------------------------------------------------------===//

struct BatchSlot {
  size_t Job = 0;
  uint64_t Request = 0;
  uint64_t T0 = 0;
  std::future<BatchResult> F;
  LaneTuple Q, R;
};

std::future<BatchResult> submitJob(BatchService &Svc, const ArrayJob &J,
                                   BatchSlot &S) {
  return withLane(laneOf(J.K), [&](auto Tag) {
    using T = decltype(Tag);
    const T D = fromBits<T>(J.K.DivisorBits);
    std::span<const T> In(lanes<T>(J.In).data(), J.Count);
    std::span<T> Q(lanes<T>(S.Q).data(), J.Count);
    std::span<T> R(lanes<T>(S.R).data(), J.Count);
    S.T0 = nowNs();
    switch (J.O) {
    case Op::Divide:
      return Svc.submitDivide<T>(D, In, Q);
    case Op::Remainder:
      return Svc.submitRemainder<T>(D, In, R);
    case Op::DivRem:
      break;
    }
    return Svc.submitDivRem<T>(D, In, Q, R);
  });
}

} // namespace

bool routeBurst(DividerRegistry &Reg, std::span<const Key> Keys,
                const uint32_t *MsgKey, const uint64_t *MsgBits,
                uint64_t *Out) {
  bool All = true;
  for (size_t M = 0; M < BurstMessages; ++M) {
    const uint64_t Bits = MsgBits[M];
    uint64_t &Dst = Out[M];
    All &= Reg.withEntry(Keys[MsgKey[M]], [&](const DividerEntry &E) {
      Dst = E.remainderBits(Bits);
    });
  }
  return All;
}

bool checkArrayJob(const ArrayJob &J, const LaneTuple &Q, const LaneTuple &R) {
  return withLane(laneOf(J.K), [&](auto Tag) {
    using T = decltype(Tag);
    const size_t N = J.Count;
    if (J.O != Op::Remainder &&
        !std::equal(lanes<T>(J.ExpQ).begin(), lanes<T>(J.ExpQ).begin() + N,
                    lanes<T>(Q).begin()))
      return false;
    return J.O == Op::Divide ||
           std::equal(lanes<T>(J.ExpR).begin(), lanes<T>(J.ExpR).begin() + N,
                      lanes<T>(R).begin());
  });
}

LoopResult runBatchLoop(BatchService &Svc, std::span<const ArrayJob> Jobs,
                        double Seconds, SpanLog *Log) {
  size_t MaxLanes = 0;
  for (const ArrayJob &J : Jobs)
    MaxLanes = std::max(MaxLanes, J.Count);
  std::array<BatchSlot, BatchInFlight> Slots;
  // Outputs are not cleared per job (that would make the client, not
  // the service, the bottleneck): a slot starts poisoned and afterwards
  // holds a different job's results, so a lane the service leaves
  // unwritten fails the check.
  for (BatchSlot &S : Slots) {
    forEachLane(S.Q, [&](auto &V) { V.assign(MaxLanes, 0x5a); });
    forEachLane(S.R, [&](auto &V) { V.assign(MaxLanes, 0x5a); });
  }

  LoopResult R;
  const size_t Windows = windowsFor(Seconds);
  R.Latency = WindowedLatency(Windows);
  std::vector<uint64_t> Completed(Windows);
  size_t Next = 0;
  uint64_t Lanes = 0;
  auto Submit = [&](BatchSlot &S) {
    S.Job = Next++ % Jobs.size();
    S.Request = Next;
    S.F = submitJob(Svc, Jobs[S.Job], S);
    if (Log)
      Log->add(SpanName::ServiceSubmit, S.Request, SpanName::BatchRequest,
               S.T0, nowNs());
  };

  const uint64_t Start = nowNs();
  const uint64_t End = Start + static_cast<uint64_t>(Seconds * 1e9);
  StealSampler Steal(Start, ClientTally::WindowNs, Windows);
  for (BatchSlot &S : Slots)
    Submit(S);
  // The client polls its in-flight futures and takes whichever is ready
  // first. Sleeping in get() would add the client's own wake-up, a path
  // whose latency swings by orders of magnitude on a shared VM, to what
  // it measures; collecting in submit order would charge one stalled job
  // to the seven behind it.
  for (size_t K = 0, Live = Slots.size(); Live; ++K) {
    BatchSlot &S = Slots[K % Slots.size()];
    if (!S.F.valid() ||
        S.F.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
      continue;
    const uint64_t TG = Log ? nowNs() : 0;
    bool Ok = true;
    BatchResult Res;
    try {
      Res = S.F.get();
    } catch (...) {
      Ok = false;
    }
    const uint64_t T1 = nowNs();
    const size_t W =
        std::min<size_t>((T1 - Start) / ClientTally::WindowNs, Windows - 1);
    R.Latency.add(W, T1 - S.T0);
    R.JobNs.add(Res.JobNs);
    R.QueueWaitNs.add(T1 - S.T0 > Res.JobNs ? T1 - S.T0 - Res.JobNs : 0);
    if (Log) {
      Log->add(SpanName::ServiceGet, S.Request, SpanName::BatchRequest, TG,
               T1);
      Log->add(SpanName::BatchRequest, S.Request, SpanName::None, S.T0, T1);
    }
    const ArrayJob &J = Jobs[S.Job];
    ++R.Attempted;
    Lanes += J.Count;
    if (!Ok || !checkArrayJob(J, S.Q, S.R))
      ++R.Failed;
    if (T1 < End) {
      ++Completed[W];
      Submit(S);
    } else {
      --Live;
    }
  }
  R.WindowSteal = Steal.finish();
  std::vector<double> Rates;
  for (uint64_t C : Completed)
    Rates.push_back(static_cast<double>(C) / WindowSeconds);
  // A trailing partial window would read low; mark it empty.
  if (Seconds / WindowSeconds < static_cast<double>(Windows))
    Rates.back() = 0;
  R.WindowRates = Rates;
  R.RequestsPerS = steadyQuantile(Rates, R.WindowSteal, SlowSideRate);
  R.UnitsPerRequest =
      static_cast<double>(Lanes) / static_cast<double>(R.Attempted);
  R.NsPerUnit = static_cast<double>(Svc.workers()) * 1e9 /
                (R.RequestsPerS * R.UnitsPerRequest);
  return R;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       uint64_t Seed) {
  if (Name == "router")
    return std::make_unique<RouterWorkload>(Seed);
  if (Name == "batch")
    return std::make_unique<BatchWorkload>(Seed);
  if (Name == "churn")
    return std::make_unique<ChurnWorkload>(Seed);
  return nullptr;
}

} // namespace perfbench
