//===- service/Registry.cpp - Concurrent divider registry -----------------===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "service/Registry.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

namespace gmdiv {
namespace service {

namespace {

size_t envSize(const char *Name, size_t Default) {
  const char *V = std::getenv(Name);
  if (!V || !*V)
    return Default;
  const long long Parsed = std::atoll(V);
  return Parsed > 0 ? static_cast<size_t>(Parsed) : Default;
}

} // namespace

DividerRegistry::Options DividerRegistry::Options::fromEnv() {
  Options O;
  O.NumShards = envSize("GMDIV_SERVICE_SHARDS", O.NumShards);
  O.ShardCapacity =
      envSize("GMDIV_SERVICE_SHARD_CAPACITY", O.ShardCapacity);
  O.SampleEvery = static_cast<uint32_t>(
      envSize("GMDIV_SERVICE_SAMPLE", O.SampleEvery));
  O.TopKSlots = prof::topKCapacityFromEnv(O.TopKSlots);
  return O;
}

DividerRegistry::DividerRegistry(Options Opts)
    : Shards(cache::ceilPow2(std::max<size_t>(1, Opts.NumShards))),
      ShardCapacity(std::max<size_t>(1, Opts.ShardCapacity)),
      BucketsPerShard(cache::ceilPow2(std::max<size_t>(8, ShardCapacity * 2))),
      SampleMask(static_cast<uint32_t>(
          cache::ceilPow2(std::max<uint32_t>(1, Opts.SampleEvery)) - 1)),
      HotKeys(Opts.TopKSlots) {
  LookupNs.reserve(Shards.size());
  for (Shard &S : Shards) {
    S.Current.store(new Table(BucketsPerShard), std::memory_order_release);
    LookupNs.push_back(std::make_unique<metrics::Histogram>());
  }
}

DividerRegistry::~DividerRegistry() {
  if (CollectorHandle != 0)
    metrics::Registry::global().removeCollector(CollectorHandle);
  // Destruction contract: no concurrent readers. Everything retired is
  // past its grace period by definition.
  for (Shard &S : Shards) {
    delete S.Current.load(std::memory_order_acquire);
    for (const Retired &R : S.RetiredTables)
      delete R.T;
  }
}

uint64_t DividerRegistry::steadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool DividerRegistry::sampleThisOp() const {
  thread_local uint32_t Tick = 0;
  return (++Tick & SampleMask) == 0;
}

void DividerRegistry::recordLookupNs(const Shard &S, uint64_t Ns) {
  LookupNs[static_cast<size_t>(&S - Shards.data())]->record(Ns);
  LookupNsAll.record(Ns);
}

DividerRegistry::EntryHandle DividerRegistry::lookup(const Key &K) {
  if (!K.valid()) {
    InvalidKeys.inc();
    return nullptr;
  }
  const uint64_t H = KeyHash()(K);
  Shard &S = Shards[shardIndexFor(H)];
  const bool Sampled = sampleThisOp();
  const uint64_t T0 = Sampled ? steadyNs() : 0;
  EntryHandle E;
  {
    EpochDomain::Guard G(EpochDomain::global());
    const Table *T = S.Current.load(std::memory_order_seq_cst);
    if (const Bucket *B = T->find(K, H))
      E = B->E;
  }
  if (E) {
    S.Hits.inc();
    if (Sampled) {
      E->LastUseNs.store(T0, std::memory_order_relaxed);
      recordLookupNs(S, steadyNs() - T0);
      HotKeys.offer(K, SampleMask + uint64_t{1});
    }
  } else {
    S.Misses.inc();
  }
  return E;
}

DividerRegistry::EntryHandle DividerRegistry::acquire(const Key &K) {
  if (!K.valid()) {
    InvalidKeys.inc();
    return nullptr;
  }
  const uint64_t H = KeyHash()(K);
  Shard &S = Shards[shardIndexFor(H)];
  const bool Sampled = sampleThisOp();
  const uint64_t T0 = Sampled ? steadyNs() : 0;
  {
    EpochDomain::Guard G(EpochDomain::global());
    const Table *T = S.Current.load(std::memory_order_seq_cst);
    if (const Bucket *B = T->find(K, H)) {
      EntryHandle E = B->E;
      S.Hits.inc();
      if (Sampled) {
        E->LastUseNs.store(T0, std::memory_order_relaxed);
        recordLookupNs(S, steadyNs() - T0);
        HotKeys.offer(K, SampleMask + uint64_t{1});
      }
      return E;
    }
  }

  std::lock_guard<std::mutex> Lock(S.WriterMutex);
  // Only this shard's writer replaces Current and we hold its lock, so
  // the raw load needs no epoch guard.
  const Table *Cur = S.Current.load(std::memory_order_relaxed);
  if (const Bucket *B = Cur->find(K, H)) {
    // Late hit: another thread admitted the key between our probe and
    // the lock. Build-once means this counts as a hit, keeping
    // Misses == Inserts exact.
    S.Hits.inc();
    return B->E;
  }

  S.Misses.inc();
  const uint64_t Admit0 = steadyNs();
  EntryHandle E = makeDividerEntry(K);
  AdmitNsAll.record(steadyNs() - Admit0);
  E->LastUseNs.store(steadyNs(), std::memory_order_relaxed);

  // Copy-on-write rebuild: same geometry, minus a victim when full.
  auto *NewT = new Table(BucketsPerShard);
  const Bucket *Victim = nullptr;
  if (Cur->Size >= ShardCapacity) {
    uint64_t Stalest = UINT64_MAX;
    for (const Bucket &B : Cur->Buckets) {
      if (!B.E)
        continue;
      const uint64_t Used = B.E->LastUseNs.load(std::memory_order_relaxed);
      if (Used <= Stalest) {
        // <= so a tie (e.g. SampleEvery leaving stamps at admission
        // time) still yields a victim deterministically (last wins).
        Stalest = Used;
        Victim = &B;
      }
    }
  }
  auto place = [NewT](const Key &BK, uint64_t BH, EntryHandle BE) {
    for (uint64_t I = BH & NewT->Mask;; I = (I + 1) & NewT->Mask) {
      Bucket &Slot = NewT->Buckets[I];
      if (!Slot.E) {
        Slot.K = BK;
        Slot.E = std::move(BE);
        ++NewT->Size;
        return;
      }
    }
  };
  for (const Bucket &B : Cur->Buckets)
    if (B.E && &B != Victim)
      place(B.K, KeyHash()(B.K), B.E);
  place(K, H, E);
  if (Victim)
    S.Evictions.fetch_add(1, std::memory_order_relaxed);
  S.Inserts.fetch_add(1, std::memory_order_relaxed);
  // Admissions always reach the sketch, so cold-start traffic is
  // attributed even before any sampled hit lands.
  HotKeys.offer(K);
  publish(S, NewT);
  return E;
}

void DividerRegistry::publish(Shard &S, const Table *NewT) {
  const Table *Old = S.Current.load(std::memory_order_relaxed);
  S.Current.store(NewT, std::memory_order_seq_cst);
  EpochDomain &D = EpochDomain::global();
  S.RetiredTables.push_back({Old, D.retire()});
  // Reclaim every retired table whose grace period has elapsed: no
  // active reader announced an epoch older than its retirement tag.
  const uint64_t MinActive = D.minActive();
  auto Keep = S.RetiredTables.begin();
  for (Retired &R : S.RetiredTables) {
    if (R.Epoch <= MinActive)
      delete R.T;
    else
      *Keep++ = R;
  }
  S.RetiredTables.erase(Keep, S.RetiredTables.end());
}

void DividerRegistry::clear() {
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.WriterMutex);
    publish(S, new Table(BucketsPerShard));
  }
}

std::vector<cache::CacheStats> DividerRegistry::shardStats() const {
  std::vector<cache::CacheStats> Out(Shards.size());
  EpochDomain::Guard G(EpochDomain::global());
  for (size_t I = 0; I < Shards.size(); ++I) {
    const Shard &S = Shards[I];
    cache::CacheStats &Row = Out[I];
    Row.Hits = S.Hits.value();
    Row.Misses = S.Misses.value();
    Row.Evictions = S.Evictions.load(std::memory_order_relaxed);
    Row.Inserts = S.Inserts.load(std::memory_order_relaxed);
    Row.Entries = S.Current.load(std::memory_order_seq_cst)->Size;
    Row.Capacity = ShardCapacity;
  }
  return Out;
}

cache::CacheStats DividerRegistry::stats() const {
  cache::CacheStats Total;
  for (const cache::CacheStats &Row : shardStats())
    Total += Row;
  return Total;
}

size_t DividerRegistry::size() const {
  size_t N = 0;
  EpochDomain::Guard G(EpochDomain::global());
  for (const Shard &S : Shards)
    N += S.Current.load(std::memory_order_seq_cst)->Size;
  return N;
}

void DividerRegistry::collect(metrics::SnapshotBuilder &B) const {
  const std::string &P = MetricsPrefix;
  const std::vector<cache::CacheStats> PerShard = shardStats();
  cache::CacheStats Total;
  for (size_t I = 0; I < PerShard.size(); ++I) {
    const cache::CacheStats &Row = PerShard[I];
    const metrics::LabelSet L = {{"shard", std::to_string(I)}};
    B.counter(P + "_shard_hits_total",
              "Registry lookups that found an entry", L,
              static_cast<double>(Row.Hits));
    B.counter(P + "_shard_misses_total",
              "Registry lookups that found nothing (admissions and "
              "absent keys)",
              L, static_cast<double>(Row.Misses));
    B.counter(P + "_shard_evictions_total", "LRU evictions", L,
              static_cast<double>(Row.Evictions));
    B.counter(P + "_shard_inserts_total", "Entries admitted", L,
              static_cast<double>(Row.Inserts));
    B.gauge(P + "_shard_entries", "Entries resident in the shard", L,
            static_cast<double>(Row.Entries));
    B.gauge(P + "_shard_capacity", "Shard capacity", L,
            static_cast<double>(Row.Capacity));
    metrics::Histogram::Cumulative C = LookupNs[I]->cumulative();
    B.histogram(P + "_shard_lookup_ns",
                "Sampled hit-path lookup latency per shard (ns)", L,
                std::move(C.Bounds), C.Count, C.Sum);
    Total += Row;
  }
  B.counter(P + "_invalid_keys_total",
            "Lookups rejected up front (zero divisor, bad width)", {},
            static_cast<double>(InvalidKeys.value()));
  B.gauge(P + "_entries", "Entries resident across all shards", {},
          static_cast<double>(Total.Entries));
  B.gauge(P + "_capacity", "Total registry capacity", {},
          static_cast<double>(Total.Capacity));
  B.gauge(P + "_occupancy",
          "Resident entries / capacity across all shards", {},
          Total.Capacity ? static_cast<double>(Total.Entries) /
                               static_cast<double>(Total.Capacity)
                         : 0.0);
  B.gauge(P + "_hit_ratio", "Hits / lookups since process start", {},
          Total.hitRatio());
  metrics::Histogram::Cumulative CL = LookupNsAll.cumulative();
  B.histogram(P + "_lookup_ns",
              "Sampled hit-path lookup latency, all shards (ns)", {},
              std::move(CL.Bounds), CL.Count, CL.Sum);
  metrics::Histogram::Cumulative CA = AdmitNsAll.cumulative();
  B.histogram(P + "_admit_ns",
              "Entry construction latency on admission (ns)", {},
              std::move(CA.Bounds), CA.Count, CA.Sum);
  // Heavy-hitter sketch: estimated traffic per hot key. Counts are
  // space-saving estimates (overestimate by at most _topk_error); with
  // zero sketch evictions they are exact.
  const auto Hot = HotKeys.items();
  for (size_t I = 0; I < Hot.size(); ++I) {
    const metrics::LabelSet L = {{"key", Hot[I].Key.describe()},
                                 {"rank", std::to_string(I)}};
    B.gauge(P + "_topk",
            "Estimated operations for the hottest divisor keys "
            "(space-saving sketch)",
            L, static_cast<double>(Hot[I].Count));
    B.gauge(P + "_topk_error",
            "Overestimate bound for the matching _topk sample", L,
            static_cast<double>(Hot[I].Error));
  }
  B.gauge(P + "_topk_capacity", "Heavy-hitter sketch slots", {},
          static_cast<double>(HotKeys.capacity()));
  B.counter(P + "_topk_evictions_total",
            "Space-saving sketch evictions (0 means counts are exact)",
            {}, static_cast<double>(HotKeys.evictions()));
}

void DividerRegistry::exportMetrics(const std::string &Prefix) {
  if (CollectorHandle != 0)
    return;
  MetricsPrefix = Prefix;
  CollectorHandle = metrics::Registry::global().addCollector(
      [this](metrics::SnapshotBuilder &B) { collect(B); });
}

DividerRegistry &DividerRegistry::global() {
  // Leaked: the metrics exporter thread may snapshot (and hence run
  // this registry's collector) arbitrarily late in process teardown.
  static DividerRegistry *R = [] {
    auto *Registry = new DividerRegistry(Options::fromEnv());
    Registry->exportMetrics("gmdiv_service_registry");
    return Registry;
  }();
  return *R;
}

} // namespace service
} // namespace gmdiv
