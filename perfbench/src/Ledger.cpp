//===- perfbench/src/Ledger.cpp - Direct per-layer probes -----------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "Ledger.h"

#include "batch/BatchDivider.h"
#include "codegen/DivCodeGen.h"
#include "core/Divider.h"
#include "ir/Interp.h"
#include "jit/JitBatchDivider.h"
#include "jit/JitDivider.h"

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <variant>

using gmdiv::jit::CodeCache;
using gmdiv::service::BatchService;
using gmdiv::service::DividerEntry;
using gmdiv::service::DividerRegistry;

namespace perfbench {
namespace {

/// Minimum time per repeatable probe, and the service probe's length.
constexpr double ProbeSeconds = 0.15;
constexpr double ServiceSeconds = 1.0;
/// Array probes group jobs so one span covers at least this many lanes.
constexpr size_t MinLanesPerSpan = 2048;
/// Constructor probes time this many constructions per span.
constexpr size_t CtorBurst = 64;
/// Dividends each constructed divider is checked on.
constexpr std::array<uint64_t, 4> CheckBits = {
    0, 0x7fffffffffffffffULL, 0xdeadbeefcafef00dULL, 0xffffffff80000001ULL};

template <typename T>
using CoreDivider = std::conditional_t<std::is_signed_v<T>,
                                       gmdiv::SignedDivider<T>,
                                       gmdiv::UnsignedDivider<T>>;

/// Every precomputed form of one probe key, outside the registry.
template <typename T> struct Kit {
  Kit(T D, CodeCache &Cache)
      : Core(D), Batch(D), Jit(D, Cache), Vec(D, Cache) {}
  CoreDivider<T> Core;
  gmdiv::batch::BatchDivider<T> Batch;
  gmdiv::jit::JitDivider<T> Jit;
  gmdiv::jit::JitBatchDivider<T> Vec;
};

using AnyKit = std::variant<std::unique_ptr<Kit<uint32_t>>,
                            std::unique_ptr<Kit<int32_t>>,
                            std::unique_ptr<Kit<uint64_t>>>;

AnyKit makeKit(const Key &K, CodeCache &Cache) {
  return withLane(laneOf(K), [&](auto Tag) -> AnyKit {
    using T = decltype(Tag);
    return std::make_unique<Kit<T>>(fromBits<T>(K.DivisorBits), Cache);
  });
}

/// Calls \p F(kit, dividend) at the kit's lane type; result as bits.
template <typename Fn> uint64_t onKit(const AnyKit &K, uint64_t Bits, Fn &&F) {
  switch (K.index()) {
  case 0:
    return toBits(F(*std::get<0>(K), fromBits<uint32_t>(Bits)));
  case 1:
    return toBits(F(*std::get<1>(K), fromBits<int32_t>(Bits)));
  default:
    return toBits(F(*std::get<2>(K), fromBits<uint64_t>(Bits)));
  }
}

/// True when \p Div and \p Rem give the reference quotient and
/// remainder for key \p K on every CheckBits dividend.
template <typename DivFn, typename RemFn>
bool checkScalar(const Key &K, DivFn &&Div, RemFn &&Rem) {
  return withLane(laneOf(K), [&](auto Tag) {
    using T = decltype(Tag);
    const T D = fromBits<T>(K.DivisorBits);
    for (uint64_t Bits : CheckBits) {
      const T N = fromBits<T>(Bits);
      if (Div(Bits) != toBits(refDivide(N, D)) ||
          Rem(Bits) != toBits(refRemainder(N, D)))
        return false;
    }
    return true;
  });
}

class Prober {
public:
  Prober(DividerRegistry &Reg, const ProbeSet &P, SpanLog &Log,
         const LedgerOptions &Opts)
      : Reg(Reg), P(P), Log(Log), Opts(Opts) {}

  LedgerResult run() {
    prepare();
    probeRegistryHits();
    probeScalar();
    probeArrays();
    probeConstructors();
    probeCodegen();
    probeJitCompile();
    probeEntryBuild();
    if (Opts.RouteProbe)
      probeRoute();
    if (Opts.ServiceProbe)
      probeService();
    probeAdmission(); // Last: it grows (or, on churn, churns) the registry.
    return Result;
  }

private:
  void check(bool Ok) {
    ++Result.Attempted;
    if (!Ok) {
      ++Result.Failed;
      ++Result.FailedBy[static_cast<size_t>(Current)];
    }
  }

  /// Calls \p Step(item, request id) over [0, Items) until the probe's
  /// time is spent and at least one full pass is done.
  template <typename StepFn>
  void repeat(SpanName Name, size_t Items, StepFn &&Step) {
    Current = Name;
    const uint64_t Until =
        nowNs() + static_cast<uint64_t>(ProbeSeconds * 1e9);
    do {
      for (size_t I = 0; I < Items; ++I)
        Step(I, NextId++);
    } while (nowNs() < Until);
  }

  /// Makes every probe key resident at once. On a full registry (churn)
  /// one admission can evict another probe key whose recency stamp is
  /// stale, so repeat until a pass admits nothing.
  void prepare() {
    for (int Pass = 0;; ++Pass) {
      const uint64_t Before = Reg.stats().Inserts;
      Entries.clear();
      for (const Key &K : P.Keys) {
        DividerRegistry::EntryHandle E = Reg.acquire(K);
        if (!E)
          throw std::runtime_error("ledger: probe key rejected");
        Entries.push_back(std::move(E));
      }
      if (Reg.stats().Inserts == Before)
        break;
      if (Pass == 50)
        throw std::runtime_error("ledger: probe keys do not stay resident");
    }
    for (const Key &K : P.Keys)
      Kits.push_back(makeKit(K, KitCache));
    for (const ArrayJob &J : P.Jobs)
      JobKey.push_back(static_cast<uint32_t>(
          std::find(P.Keys.begin(), P.Keys.end(), J.K) - P.Keys.begin()));
  }

  /// One span per burst of BurstMessages calls; \p Expect(offset,
  /// outputs) checks the burst outside the span.
  template <typename CallFn, typename ExpectFn>
  void scalarBursts(SpanName Name, CallFn &&Call, ExpectFn &&Expect) {
    std::array<uint64_t, BurstMessages> Out{};
    repeat(Name, P.MsgKey.size() / BurstMessages, [&](size_t B, uint64_t Id) {
      const size_t Off = B * BurstMessages;
      const uint64_t T0 = nowNs();
      for (size_t M = 0; M < BurstMessages; ++M)
        Out[M] = Call(P.MsgKey[Off + M], P.MsgBits[Off + M]);
      const uint64_t T1 = nowNs();
      Log.add(Name, Id, SpanName::LedgerProbe, T0, T1, BurstMessages);
      check(Expect(Off, Out));
    });
  }

  template <typename CallFn>
  void remainderBursts(SpanName Name, CallFn &&Call) {
    scalarBursts(Name, Call, [&](size_t Off, const auto &Out) {
      return std::equal(Out.begin(), Out.end(), &P.MsgRem[Off]);
    });
  }

  void probeRegistryHits() {
    auto AllOnes = [](size_t, const auto &Out) {
      return std::all_of(Out.begin(), Out.end(),
                         [](uint64_t V) { return V == 1; });
    };
    scalarBursts(
        SpanName::RegistryWithEntryTrivial,
        [&](uint32_t K, uint64_t) {
          uint64_t Hit = 0;
          Reg.withEntry(P.Keys[K], [&](const DividerEntry &) { Hit = 1; });
          return Hit;
        },
        AllOnes);
    scalarBursts(
        SpanName::RegistryAcquireHit,
        [&](uint32_t K, uint64_t) {
          return static_cast<uint64_t>(Reg.acquire(P.Keys[K]) != nullptr);
        },
        AllOnes);
  }

  void probeScalar() {
    remainderBursts(SpanName::EntryRemainderBits, [&](uint32_t K, uint64_t N) {
      return Entries[K]->remainderBits(N);
    });
    remainderBursts(SpanName::JitScalarRemainder, [&](uint32_t K, uint64_t N) {
      return onKit(Kits[K], N,
                   [](const auto &Kt, auto V) { return Kt.Jit.remainder(V); });
    });
    remainderBursts(SpanName::CoreRemainder, [&](uint32_t K, uint64_t N) {
      return onKit(Kits[K], N,
                   [](const auto &Kt, auto V) { return Kt.Core.remainder(V); });
    });
  }

  /// Runs \p Run(job, key index, Q, R) over groups of jobs, one span
  /// per group (per-lane samples), checking each job afterwards.
  template <typename RunFn> void arrayGroups(SpanName Name, RunFn &&Run) {
    std::vector<std::pair<size_t, size_t>> Groups; // [begin, end) jobs
    for (size_t B = 0; B < P.Jobs.size();) {
      size_t E = B, Lanes = 0;
      while (E < P.Jobs.size() && Lanes < MinLanesPerSpan)
        Lanes += P.Jobs[E++].Count;
      Groups.push_back({B, E});
      B = E;
    }
    std::vector<LaneTuple> Q(P.Jobs.size()), R(P.Jobs.size());
    for (size_t J = 0; J < P.Jobs.size(); ++J) {
      forEachLane(Q[J], [&](auto &V) { V.resize(P.Jobs[J].Count); });
      forEachLane(R[J], [&](auto &V) { V.resize(P.Jobs[J].Count); });
    }
    repeat(Name, Groups.size(), [&](size_t G, uint64_t Id) {
      const auto [Begin, End] = Groups[G];
      uint32_t Lanes = 0;
      for (size_t J = Begin; J < End; ++J) {
        forEachLane(Q[J], [](auto &V) { std::fill(V.begin(), V.end(), 0x5a); });
        forEachLane(R[J], [](auto &V) { std::fill(V.begin(), V.end(), 0x5a); });
        Lanes += static_cast<uint32_t>(P.Jobs[J].Count);
      }
      const uint64_t T0 = nowNs();
      for (size_t J = Begin; J < End; ++J)
        Run(P.Jobs[J], JobKey[J], Q[J], R[J]);
      const uint64_t T1 = nowNs();
      Log.add(Name, Id, SpanName::LedgerProbe, T0, T1, Lanes);
      for (size_t J = Begin; J < End; ++J)
        check(checkArrayJob(P.Jobs[J], Q[J], R[J]));
    });
  }

  /// Dispatches \p J's op to \p Target's divide/remainder/divRem.
  template <typename T, typename TargetT>
  static void runOp(const TargetT &Target, const ArrayJob &J, LaneTuple &Q,
                    LaneTuple &R) {
    const T *In = lanes<T>(J.In).data();
    switch (J.O) {
    case Op::Divide:
      return Target.divide(In, lanes<T>(Q).data(), J.Count);
    case Op::Remainder:
      return Target.remainder(In, lanes<T>(R).data(), J.Count);
    case Op::DivRem:
      return Target.divRem(In, lanes<T>(Q).data(), lanes<T>(R).data(),
                           J.Count);
    }
  }

  template <typename Fn>
  static void onJobKit(const AnyKit &K, Fn &&F) {
    switch (K.index()) {
    case 0:
      return F(*std::get<0>(K), uint32_t{});
    case 1:
      return F(*std::get<1>(K), int32_t{});
    default:
      return F(*std::get<2>(K), uint64_t{});
    }
  }

  void probeArrays() {
    arrayGroups(SpanName::EntryArray, [&](const ArrayJob &J, uint32_t K,
                                          LaneTuple &Q, LaneTuple &R) {
      const DividerEntry &E = *Entries[K];
      withLane(laneOf(J.K), [&](auto Tag) {
        using T = decltype(Tag);
        const T *In = lanes<T>(J.In).data();
        switch (J.O) {
        case Op::Divide:
          return E.divideArray(In, lanes<T>(Q).data(), J.Count);
        case Op::Remainder:
          return E.remainderArray(In, lanes<T>(R).data(), J.Count);
        case Op::DivRem:
          return E.divRemArray(In, lanes<T>(Q).data(), lanes<T>(R).data(),
                               J.Count);
        }
      });
    });
    arrayGroups(SpanName::BatchKernel, [&](const ArrayJob &J, uint32_t K,
                                           LaneTuple &Q, LaneTuple &R) {
      onJobKit(Kits[K], [&](const auto &Kt, auto Tag) {
        runOp<decltype(Tag)>(Kt.Batch, J, Q, R);
      });
    });
    arrayGroups(SpanName::JitVectorKernel, [&](const ArrayJob &J, uint32_t K,
                                               LaneTuple &Q, LaneTuple &R) {
      onJobKit(Kits[K], [&](const auto &Kt, auto Tag) {
        runOp<decltype(Tag)>(Kt.Vec, J, Q, R);
      });
    });
  }

  /// Constructs \p Make(divisor) for every fresh key, CtorBurst per
  /// span, then checks each object with \p Check(object, key).
  template <template <typename> class ObjT, typename CheckFn>
  void ctorBursts(SpanName Name, CheckFn &&Check) {
    const std::vector<Key> &Keys = P.FreshCtor;
    std::tuple<std::vector<ObjT<uint32_t>>, std::vector<ObjT<int32_t>>,
               std::vector<ObjT<uint64_t>>>
        Made;
    repeat(Name, (Keys.size() + CtorBurst - 1) / CtorBurst,
           [&](size_t B, uint64_t Id) {
             std::apply([](auto &...V) { (V.clear(), ...); }, Made);
             std::apply([](auto &...V) { (V.reserve(CtorBurst), ...); },
                        Made);
             const size_t Begin = B * CtorBurst;
             const size_t End = std::min(Keys.size(), Begin + CtorBurst);
             const uint64_t T0 = nowNs();
             for (size_t I = Begin; I < End; ++I)
               withLane(laneOf(Keys[I]), [&](auto Tag) {
                 using T = decltype(Tag);
                 std::get<std::vector<ObjT<T>>>(Made).emplace_back(
                     fromBits<T>(Keys[I].DivisorBits));
               });
             const uint64_t T1 = nowNs();
             Log.add(Name, Id, SpanName::LedgerProbe, T0, T1,
                     static_cast<uint32_t>(End - Begin));
             std::array<size_t, 3> Next{};
             for (size_t I = Begin; I < End; ++I)
               withLane(laneOf(Keys[I]), [&](auto Tag) {
                 using T = decltype(Tag);
                 const size_t L = static_cast<size_t>(laneOf(Keys[I]));
                 const size_t Slot = Next[L]++;
                 check(Check(std::get<std::vector<ObjT<T>>>(Made)[Slot],
                             Keys[I]));
               });
           });
  }

  template <typename T> using BatchObj = gmdiv::batch::BatchDivider<T>;

  void probeConstructors() {
    auto CheckCore = [](const auto &D, const Key &K) {
      using T = std::decay_t<decltype(D.divide(0))>;
      return checkScalar(
          K, [&](uint64_t N) { return toBits(D.divide(fromBits<T>(N))); },
          [&](uint64_t N) { return toBits(D.remainder(fromBits<T>(N))); });
    };
    ctorBursts<CoreDivider>(SpanName::CoreCtor, CheckCore);
    ctorBursts<BatchObj>(SpanName::BatchCtor, [](const auto &D, const Key &K) {
      using T = std::decay_t<decltype(D.divisor())>;
      return checkScalar(
          K,
          [&](uint64_t N) {
            T In = fromBits<T>(N), Out = 0;
            D.divide(&In, &Out, 1);
            return toBits(Out);
          },
          [&](uint64_t N) {
            T In = fromBits<T>(N), Out = 0;
            D.remainder(&In, &Out, 1);
            return toBits(Out);
          });
    });

  }

  /// The gen* IR of the key's three sequences: divide, divRem (whose
  /// second result is the remainder sequence) and divRem.
  void probeCodegen() {
    namespace cg = gmdiv::codegen;
    repeat(SpanName::CodegenGen, P.FreshCtor.size(), [&](size_t I,
                                                         uint64_t Id) {
      const Key &K = P.FreshCtor[I];
      const int W = K.WordBits;
      const uint64_t U = K.DivisorBits;
      // Signed keys are i32 only.
      const bool Signed = laneOf(K) == Lane::I32;
      const int64_t S = static_cast<int32_t>(static_cast<uint32_t>(U));
      const uint64_t T0 = nowNs();
      gmdiv::ir::Program Div =
          Signed ? cg::genSignedDiv(W, S) : cg::genUnsignedDiv(W, U);
      gmdiv::ir::Program Rem =
          Signed ? cg::genSignedDivRem(W, S) : cg::genUnsignedDivRem(W, U);
      gmdiv::ir::Program Both =
          Signed ? cg::genSignedDivRem(W, S) : cg::genUnsignedDivRem(W, U);
      const uint64_t T1 = nowNs();
      Log.add(SpanName::CodegenGen, Id, SpanName::LedgerProbe, T0, T1);
      const uint64_t Mask = W == 64 ? ~uint64_t{0} : (uint64_t{1} << W) - 1;
      auto Result = [&](const gmdiv::ir::Program &Prog, size_t Index) {
        return [&Prog, Index, Mask](uint64_t N) {
          return gmdiv::ir::run(Prog, {N & Mask}).at(Index);
        };
      };
      check(checkScalar(K, Result(Div, 0), Result(Rem, 1)) &&
            checkScalar(K, Result(Both, 0), Result(Both, 1)));
    });
  }

  /// JitDivider construction (three compiles) into a private cache
  /// that is fresh for every pass, so every construction misses.
  void probeJitCompile() {
    std::unique_ptr<CodeCache> Private;
    repeat(SpanName::JitCtor, P.FreshCtor.size(), [&](size_t I, uint64_t Id) {
      if (I == 0)
        Private = std::make_unique<CodeCache>();
      const Key &K = P.FreshCtor[I];
      withLane(laneOf(K), [&](auto Tag) {
        using T = decltype(Tag);
        const uint64_t T0 = nowNs();
        gmdiv::jit::JitDivider<T> J(fromBits<T>(K.DivisorBits), *Private);
        const uint64_t T1 = nowNs();
        Log.add(SpanName::JitCtor, Id, SpanName::LedgerProbe, T0, T1);
        check(checkScalar(
            K, [&](uint64_t N) { return toBits(J.divide(fromBits<T>(N))); },
            [&](uint64_t N) { return toBits(J.remainder(fromBits<T>(N))); }));
      });
    });
  }

  /// The whole admission build against the global code cache, emptied
  /// before every pass so each build compiles.
  void probeEntryBuild() {
    repeat(SpanName::EntryBuild, P.FreshBuild.size(), [&](size_t I,
                                                          uint64_t Id) {
      if (I == 0)
        CodeCache::global().clear();
      const Key &K = P.FreshBuild[I];
      const uint64_t T0 = nowNs();
      std::shared_ptr<const DividerEntry> E =
          gmdiv::service::makeDividerEntry(K, true);
      const uint64_t T1 = nowNs();
      Log.add(SpanName::EntryBuild, Id, SpanName::LedgerProbe, T0, T1);
      check(E && checkEntry(*E, K));
    });
  }

  static bool checkEntry(const DividerEntry &E, const Key &K) {
    return checkScalar(
        K, [&](uint64_t N) { return E.divideBits(N); },
        [&](uint64_t N) { return E.remainderBits(N); });
  }

  void probeRoute() {
    std::array<uint64_t, BurstMessages> Out{};
    std::vector<double> PerMessage;
    repeat(SpanName::RegistryWithEntryRoute, P.MsgKey.size() / BurstMessages,
           [&](size_t B, uint64_t Id) {
      const size_t Off = B * BurstMessages;
      const uint64_t T0 = nowNs();
      const bool Ok = routeBurst(Reg, P.Keys, &P.MsgKey[Off], &P.MsgBits[Off],
                                 Out.data());
      const uint64_t T1 = nowNs();
      Log.add(SpanName::RegistryWithEntryRoute, Id, SpanName::LedgerProbe, T0,
              T1, BurstMessages);
      PerMessage.push_back(static_cast<double>(T1 - T0) / BurstMessages);
      check(Ok && std::equal(Out.begin(), Out.end(), &P.MsgRem[Off]));
    });
    Result.RouteNsPerMessage = median(std::move(PerMessage));
  }

  void probeService() {
    BatchService Svc(Reg, serviceOptions());
    LoopResult R = runBatchLoop(Svc, P.Jobs, ServiceSeconds, &Log);
    Result.Attempted += R.Attempted;
    Result.Failed += R.Failed;
    Result.FailedBy[static_cast<size_t>(SpanName::BatchRequest)] += R.Failed;
    Result.Service = std::move(R);
  }

  void probeAdmission() {
    Current = SpanName::RegistryAcquireMiss;
    for (size_t I = 0; I < P.FreshAdmit.size(); ++I) {
      const Key &K = P.FreshAdmit[I];
      const uint64_t T0 = nowNs();
      DividerRegistry::EntryHandle E = Reg.acquire(K);
      const uint64_t T1 = nowNs();
      Log.add(SpanName::RegistryAcquireMiss, NextId++, SpanName::LedgerProbe,
              T0, T1);
      check(E && checkEntry(*E, K));
    }
  }

  DividerRegistry &Reg;
  const ProbeSet &P;
  SpanLog &Log;
  LedgerOptions Opts;
  LedgerResult Result;
  SpanName Current = SpanName::None;
  uint64_t NextId = uint64_t{1} << 56;
  CodeCache KitCache;
  std::vector<DividerRegistry::EntryHandle> Entries;
  std::vector<AnyKit> Kits;
  std::vector<uint32_t> JobKey;
};

} // namespace

LedgerResult runLedger(Workload &W, const ProbeSet &P, SpanLog &Log,
                       const LedgerOptions &Opts) {
  return Prober(W.registry(), P, Log, Opts).run();
}

} // namespace perfbench
