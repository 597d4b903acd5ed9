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
      MaxUsedSlots(BucketsPerShard / 4 * 3),
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
  // past its grace period by definition; RetiredList frees itself.
  for (Shard &S : Shards)
    delete S.Current.load(std::memory_order_acquire);
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
    Table *T = S.Current.load(std::memory_order_seq_cst);
    uint64_t I;
    if (const DividerEntry *Found = T->find(K, H, I)) {
      E = Found->shared_from_this();
      if (Sampled)
        T->touch(I, Found, T0);
    }
  }
  if (E) {
    S.Hits.inc();
    if (Sampled) {
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
  uint64_t I;
  {
    EpochDomain::Guard G(EpochDomain::global());
    Table *T = S.Current.load(std::memory_order_seq_cst);
    if (const DividerEntry *Found = T->find(K, H, I)) {
      EntryHandle E = Found->shared_from_this();
      S.Hits.inc();
      if (Sampled) {
        T->touch(I, Found, T0);
        recordLookupNs(S, steadyNs() - T0);
        HotKeys.offer(K, SampleMask + uint64_t{1});
      }
      return E;
    }
  }

  std::lock_guard<std::mutex> Lock(S.WriterMutex);
  // Only this shard's writer replaces or frees Current and we hold its
  // lock, so the table needs no epoch guard here.
  Table *Cur = S.Current.load(std::memory_order_relaxed);
  if (Cur->find(K, H, I)) {
    // Late hit: another thread admitted the key between our probe and
    // the lock. Build-once means this counts as a hit, keeping
    // Misses == Inserts exact.
    S.Hits.inc();
    if (Sampled)
      HotKeys.offer(K, SampleMask + uint64_t{1});
    return Cur->Handles[I];
  }

  S.Misses.inc();
  const uint64_t Admit0 = steadyNs();
  EntryHandle E = makeDividerEntry(K);
  // One clock read serves as both the build's end and the new slot's
  // recency stamp.
  const uint64_t Built = steadyNs();
  AdmitNsAll.record(Built - Admit0);

  if (Cur->Live.load(std::memory_order_relaxed) >= ShardCapacity)
    evictStalest(S, *Cur);
  if (Cur->Live.load(std::memory_order_relaxed) +
          Cur->Tombstones.load(std::memory_order_relaxed) >=
      MaxUsedSlots)
    Cur = rebuild(S, *Cur);
  insert(*Cur, H, E, Built);
  S.Inserts.fetch_add(1, std::memory_order_relaxed);
  // Admissions feed the sketch on the same 1-in-SampleEvery ticks and
  // with the same weight as hits, so every count estimates operations
  // and the registry-wide sketch mutex stays off most admissions.
  if (Sampled)
    HotKeys.offer(K, SampleMask + uint64_t{1});
  reclaim(S);
  return E;
}

void DividerRegistry::insert(Table &T, uint64_t H, EntryHandle E,
                             uint64_t Stamp) {
  uint64_t I = H & T.Mask;
  const DividerEntry *Old;
  while (isLive(Old = T.Slots[I].E.load(std::memory_order_relaxed)))
    I = (I + 1) & T.Mask;
  if (Old)
    T.Tombstones.fetch_sub(1, std::memory_order_relaxed);
  T.Slots[I].Hash.store(H, std::memory_order_relaxed);
  T.Stamps[I].store(Stamp, std::memory_order_relaxed);
  const DividerEntry *Raw = E.get();
  T.Handles[I] = std::move(E);
  T.Slots[I].E.store(Raw, std::memory_order_seq_cst);
  T.Live.fetch_add(1, std::memory_order_relaxed);
}

void DividerRegistry::evictStalest(Shard &S, Table &T) {
  uint64_t Victim = 0, Stalest = UINT64_MAX;
  for (uint64_t I = 0; I <= T.Mask; ++I) {
    const uint64_t Used = T.Stamps[I].load(std::memory_order_relaxed);
    // <= so a tie (e.g. SampleEvery leaving stamps at admission time)
    // still yields a victim deterministically (last wins). Null and
    // tombstone slots may carry any stamp, so check liveness too.
    if (Used <= Stalest &&
        isLive(T.Slots[I].E.load(std::memory_order_relaxed))) {
      Stalest = Used;
      Victim = I;
    }
  }
  T.Slots[Victim].E.store(tombstone(), std::memory_order_seq_cst);
  T.Stamps[Victim].store(UINT64_MAX, std::memory_order_relaxed);
  T.Live.fetch_sub(1, std::memory_order_relaxed);
  T.Tombstones.fetch_add(1, std::memory_order_relaxed);
  S.RetiredList.push_back(
      {nullptr, std::move(T.Handles[Victim]), EpochDomain::global().retire()});
  S.Evictions.fetch_add(1, std::memory_order_relaxed);
}

DividerRegistry::Table *DividerRegistry::rebuild(Shard &S, Table &T) {
  auto *NewT = new Table(BucketsPerShard);
  for (uint64_t I = 0; I <= T.Mask; ++I)
    if (isLive(T.Slots[I].E.load(std::memory_order_relaxed)))
      insert(*NewT, T.Slots[I].Hash.load(std::memory_order_relaxed),
             std::move(T.Handles[I]),
             T.Stamps[I].load(std::memory_order_relaxed));
  S.Rebuilds.fetch_add(1, std::memory_order_relaxed);
  publish(S, NewT);
  return NewT;
}

void DividerRegistry::publish(Shard &S, Table *NewT) {
  Table *Old = S.Current.load(std::memory_order_relaxed);
  S.Current.store(NewT, std::memory_order_seq_cst);
  S.RetiredList.push_back(
      {std::unique_ptr<Table>(Old), nullptr, EpochDomain::global().retire()});
}

void DividerRegistry::reclaim(Shard &S) {
  // Free everything whose grace period has elapsed: no active reader
  // announced an epoch older than its retirement tag.
  const uint64_t MinActive = EpochDomain::global().minActive();
  std::erase_if(S.RetiredList,
                [&](const Retired &R) { return R.Epoch <= MinActive; });
}

void DividerRegistry::clear() {
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.WriterMutex);
    publish(S, new Table(BucketsPerShard));
    reclaim(S);
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
    Row.Entries =
        S.Current.load(std::memory_order_seq_cst)->Live.load(
            std::memory_order_relaxed);
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
  for (const TableStats &Row : tableStats())
    N += Row.Live;
  return N;
}

std::vector<DividerRegistry::EntryHandle> DividerRegistry::entries() const {
  std::vector<EntryHandle> Out;
  EpochDomain::Guard G(EpochDomain::global());
  for (const Shard &S : Shards) {
    const Table *T = S.Current.load(std::memory_order_seq_cst);
    for (uint64_t I = 0; I <= T->Mask; ++I) {
      const DividerEntry *E = T->Slots[I].E.load(std::memory_order_seq_cst);
      if (isLive(E))
        Out.push_back(E->shared_from_this());
    }
  }
  return Out;
}

std::vector<DividerRegistry::TableStats> DividerRegistry::tableStats() const {
  std::vector<TableStats> Out(Shards.size());
  EpochDomain::Guard G(EpochDomain::global());
  for (size_t I = 0; I < Shards.size(); ++I) {
    const Table *T = Shards[I].Current.load(std::memory_order_seq_cst);
    Out[I].Buckets = T->Mask + 1;
    Out[I].Live = T->Live.load(std::memory_order_relaxed);
    Out[I].Tombstones = T->Tombstones.load(std::memory_order_relaxed);
    Out[I].Rebuilds = Shards[I].Rebuilds.load(std::memory_order_relaxed);
  }
  return Out;
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
    B.counter(P + "_shard_rebuilds_total",
              "Slot-table rebuilds (live plus tombstone slots reached "
              "3/4 of the buckets)",
              L,
              static_cast<double>(
                  Shards[I].Rebuilds.load(std::memory_order_relaxed)));
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
