//===- service/Registry.h - Concurrent divider registry ----------*- C++ -*-===//
//
// Part of the gmdiv project, a reproduction of Granlund & Montgomery,
// "Division by Invariant Integers using Multiplication", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's premise is that invariant-divisor precomputation
/// amortizes across many divisions. This registry owns that
/// amortization under concurrent traffic: a process-wide cache of
/// precomputed DividerEntry handles keyed by (kind, width, divisor),
/// shaped for read-mostly workloads — hash-sharding routers and
/// partitioners that resolve a divisor per message.
///
/// Structure: keys spread over power-of-two shards (cache::mixBits).
/// Each shard owns a live open-addressing slot table behind an atomic
/// pointer. The hit path — lookup() / withEntry() — never takes a
/// mutex: it pins the epoch domain (service/Epoch.h), loads the table,
/// probes the slots (the stored key hash filters them, so a hit
/// dereferences only its entry) and runs the callback or returns
/// shared_from_this(). Writers (acquire() on a miss) serialize
/// on a per-shard mutex, re-probe (build-once: latecomers on the same
/// key become "late hits"), build the entry and store it into a null
/// or tombstone slot in place. Eviction stores a tombstone into the
/// victim's slot and retires only the victim's handle through the
/// epoch domain. Slots never return to null, so probes terminate; once
/// live plus tombstone slots would pass 3/4 of the buckets the writer
/// rebuilds the table (raw pointers only, no handle copies) and
/// retires the old one whole.
///
/// Eviction is size-capped approximate LRU: each slot carries an
/// atomic recency stamp refreshed on *sampled* hits (1 in
/// Options::SampleEvery, sharing the clock read with the
/// lookup-latency histogram, so the unsampled hit path performs no
/// clock reads); a full shard evicts the slot with the stalest stamp,
/// found by one scan over the contiguous stamp array. Handles are
/// shared_ptr: eviction drops the registry's reference, never the
/// entry — holders keep dividing.
///
/// Counters per shard: Hits/Misses on wait-free striped
/// metrics::Counter (exact at snapshot); Inserts/Evictions/Rebuilds
/// as plain words under the writer mutex. For acquire()-only workloads
/// Misses == Inserts exactly (the consistency check the tests and the
/// JIT cache both rely on); lookup() misses on absent keys add to
/// Misses without an insert. Everything is exported to the metrics
/// plane under gmdiv_service_registry_* (see exportMetrics).
///
//===----------------------------------------------------------------------===//

#ifndef GMDIV_SERVICE_REGISTRY_H
#define GMDIV_SERVICE_REGISTRY_H

#include "jit/CachePolicy.h"
#include "metrics/Metrics.h"
#include "prof/TopK.h"
#include "service/DividerEntry.h"
#include "service/Epoch.h"
#include "service/Key.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gmdiv {
namespace service {

class DividerRegistry {
public:
  struct Options {
    /// Shard count; rounded up to a power of two.
    size_t NumShards = 16;
    /// Entries per shard; total capacity is the product.
    size_t ShardCapacity = 256;
    /// Ignored; admission never compiles code; kept so existing
    /// callers build.
    bool UseJit = true;
    /// Recency-stamp, latency-histogram and heavy-hitter sampling
    /// period, rounded up to a power of two. 1 = every operation
    /// (deterministic LRU and an exact sketch, used by tests); default
    /// 64 keeps clock reads and the sketch mutex off the common path.
    uint32_t SampleEvery = 64;
    /// Heavy-hitter sketch slots for the hottest divisor keys
    /// (gmdiv_service_registry_topk, `gmdiv_tool top`).
    size_t TopKSlots = 32;

    /// Reads GMDIV_SERVICE_SHARDS, GMDIV_SERVICE_SHARD_CAPACITY,
    /// GMDIV_SERVICE_SAMPLE, GMDIV_TOPK.
    static Options fromEnv();
  };

  using EntryHandle = std::shared_ptr<const DividerEntry>;

  explicit DividerRegistry(Options Opts = Options::fromEnv());
  /// Destruction requires that no other thread is inside lookup/
  /// withEntry/acquire on this registry (the global() instance is
  /// leaked for exactly that reason).
  ~DividerRegistry();

  /// Lock-free hit path: returns the entry for \p K or null (miss or
  /// invalid key). Never admits, never blocks on a writer.
  EntryHandle lookup(const Key &K);

  /// Lookup-or-admit. On a miss, takes the shard writer lock,
  /// re-probes (another thread may have admitted the key — that is a
  /// hit, not a second build), builds the entry once and publishes
  /// it. Returns null only for invalid keys.
  EntryHandle acquire(const Key &K);

  /// acquire() for a native divisor: acquireFor<uint32_t>(7).
  template <typename T> EntryHandle acquireFor(T Divisor) {
    return acquire(keyFor<T>(Divisor));
  }

  /// Zero-refcount hit path for per-message routing: runs
  /// \p F(const DividerEntry &) under the epoch guard without copying
  /// the shared_ptr. \p F must be short and must not re-enter writer
  /// paths of this registry. Returns false on miss (F not called).
  template <typename Fn> bool withEntry(const Key &K, Fn &&F) {
    if (!K.valid()) {
      InvalidKeys.inc();
      return false;
    }
    const uint64_t H = KeyHash()(K);
    Shard &S = Shards[shardIndexFor(H)];
    const bool Sampled = sampleThisOp();
    const uint64_t T0 = Sampled ? steadyNs() : 0;
    {
      EpochDomain::Guard G(EpochDomain::global());
      Table *T = S.Current.load(std::memory_order_seq_cst);
      uint64_t I;
      if (const DividerEntry *E = T->find(K, H, I)) {
        F(*E);
        if (Sampled) {
          T->touch(I, E, T0);
          recordLookupNs(S, steadyNs() - T0);
          // Sampled heavy-hitter credit, scaled back up to an estimate
          // of the unsampled stream.
          HotKeys.offer(K, SampleMask + uint64_t{1});
        }
        S.Hits.inc();
        return true;
      }
    }
    S.Misses.inc();
    return false;
  }

  /// Aggregate counters over every shard.
  cache::CacheStats stats() const;
  /// Per-shard counters, index = shard number.
  std::vector<cache::CacheStats> shardStats() const;
  size_t numShards() const { return Shards.size(); }
  size_t shardCapacity() const { return ShardCapacity; }
  /// Entries resident right now (sums the shard tables).
  size_t size() const;
  /// Handles to every resident entry, in no particular order. Touches
  /// neither recency stamps nor counters.
  std::vector<EntryHandle> entries() const;

  /// Slot-table shape of one shard.
  struct TableStats {
    size_t Buckets = 0;
    size_t Live = 0;
    size_t Tombstones = 0;
    /// Tables rebuilt because live plus tombstone slots would pass 3/4
    /// of the buckets (clear() does not count).
    uint64_t Rebuilds = 0;
  };
  /// Per-shard slot-table shape, index = shard number.
  std::vector<TableStats> tableStats() const;
  /// Invalid-key rejections (d = 0, unsupported width); never cached.
  uint64_t invalidKeys() const { return InvalidKeys.value(); }

  /// Drops every entry (counters keep accumulating). Takes every
  /// writer lock; concurrent readers stay safe via the epoch domain.
  void clear();

  /// Heavy-hitter sketch over divisor keys, fed on sampled operations
  /// only: each sampled hit or admission offers its key weighted by the
  /// (rounded) sampling period, so counts estimate operations and
  /// totalOffered() is the period times the sampled hits plus
  /// admissions (exactly Hits + Inserts at SampleEvery = 1). Exported
  /// as <prefix>_topk and printed by `gmdiv_tool top`.
  const prof::TopK<Key, KeyHash> &hotKeys() const { return HotKeys; }

  /// Sampled hit-path lookup latency (ns), aggregated over shards.
  const metrics::Histogram &lookupLatency() const { return LookupNsAll; }
  /// Entry-construction latency (ns): core + batch precompute.
  const metrics::Histogram &admitLatency() const { return AdmitNsAll; }

  /// Registers per-shard hit/miss/insert/eviction counters, occupancy
  /// and hit-ratio gauges and lookup/admit latency histograms with the
  /// global metrics registry under \p Prefix (the global() instance
  /// uses "gmdiv_service_registry"). Idempotent; the destructor
  /// unregisters.
  void exportMetrics(const std::string &Prefix);

  /// The process-wide registry (leaked), built from Options::fromEnv()
  /// and exported as gmdiv_service_registry_*.
  static DividerRegistry &global();

private:
  /// Stored in an evicted entry's slot. Never dereferenced.
  static const DividerEntry *tombstone() {
    return reinterpret_cast<const DividerEntry *>(uintptr_t{1});
  }
  static bool isLive(const DividerEntry *E) { return E && E != tombstone(); }

  struct Slot {
    /// Full key hash; set before E is published.
    std::atomic<uint64_t> Hash{0};
    /// Null (never used), tombstone(), or a resident entry.
    std::atomic<const DividerEntry *> E{nullptr};
  };

  /// Linear-probing slot table the shard writer mutates in place.
  /// Live plus tombstone slots stay at or under 3/4 of the buckets, so
  /// every probe ends at a null slot.
  struct Table {
    std::unique_ptr<Slot[]> Slots;
    /// Recency stamp per slot (steadyNs()), apart from the slots so the
    /// victim scan reads one contiguous array.
    std::unique_ptr<std::atomic<uint64_t>[]> Stamps;
    /// The owning handle per live slot; writer-only.
    std::vector<EntryHandle> Handles;
    uint64_t Mask;
    std::atomic<size_t> Live{0};
    std::atomic<size_t> Tombstones{0};

    explicit Table(size_t BucketCount)
        : Slots(new Slot[BucketCount]),
          Stamps(new std::atomic<uint64_t>[BucketCount]),
          Handles(BucketCount), Mask(BucketCount - 1) {
      for (size_t I = 0; I < BucketCount; ++I)
        Stamps[I].store(UINT64_MAX, std::memory_order_relaxed);
    }

    /// The entry for \p K and its slot index in \p Index, or null.
    const DividerEntry *find(const Key &K, uint64_t H,
                             uint64_t &Index) const {
      // Locals, so the seq_cst loads below do not force reloads.
      const Slot *Base = Slots.get();
      const uint64_t M = Mask;
      const Key Want = K;
      for (uint64_t I = H & M;; I = (I + 1) & M) {
        const DividerEntry *E = Base[I].E.load(std::memory_order_seq_cst);
        if (!E)
          return nullptr;
        if (E != tombstone() &&
            Base[I].Hash.load(std::memory_order_relaxed) == H &&
            E->key() == Want) {
          Index = I;
          return E;
        }
      }
    }

    /// Sampled-hit recency refresh; skipped if the slot no longer holds
    /// \p E, so a reused slot never gets the old key's stamp.
    void touch(uint64_t I, const DividerEntry *E, uint64_t Ns) {
      if (Slots[I].E.load(std::memory_order_relaxed) == E)
        Stamps[I].store(Ns, std::memory_order_relaxed);
    }
  };

  struct Retired {
    std::unique_ptr<Table> T; ///< A whole table (rebuild, clear), or
    EntryHandle E;            ///< one evicted entry.
    uint64_t Epoch; ///< Free once Epoch <= EpochDomain::minActive().
  };

  struct alignas(64) Shard {
    /// The live table; readers load it under an epoch guard.
    std::atomic<Table *> Current{nullptr};
    /// Wait-free striped counters: written by the lock-free hit path.
    metrics::Counter Hits;
    metrics::Counter Misses;
    /// Everything below is written only under WriterMutex; the counts
    /// are atomics so stats() can read them without taking the lock.
    std::mutex WriterMutex;
    std::atomic<uint64_t> Inserts{0};
    std::atomic<uint64_t> Evictions{0};
    std::atomic<uint64_t> Rebuilds{0};
    std::vector<Retired> RetiredList;
  };

  size_t shardIndexFor(uint64_t H) const {
    // High bits: the low bits pick the bucket inside the table.
    return static_cast<size_t>(H >> 48) & (Shards.size() - 1);
  }

  /// 1-in-SampleEvery per-thread decimation for recency stamps and
  /// latency recording.
  bool sampleThisOp() const;
  static uint64_t steadyNs();
  void recordLookupNs(const Shard &S, uint64_t Ns);

  /// The writer half, all called with S.WriterMutex held.
  /// Stores \p E into the first null or tombstone slot on its probe.
  static void insert(Table &T, uint64_t H, EntryHandle E, uint64_t Stamp);
  /// Tombstones the slot with the stalest stamp; retires its handle.
  void evictStalest(Shard &S, Table &T);
  /// Publishes a fresh table holding T's live slots; retires T.
  Table *rebuild(Shard &S, Table &T);
  /// Publishes \p NewT and retires the old table whole.
  void publish(Shard &S, Table *NewT);
  /// Frees everything retired whose grace period has elapsed.
  void reclaim(Shard &S);

  void collect(metrics::SnapshotBuilder &B) const;

  std::vector<Shard> Shards;
  size_t ShardCapacity;
  size_t BucketsPerShard;
  /// Live plus tombstone slots allowed before a rebuild (3/4 buckets).
  size_t MaxUsedSlots;
  uint32_t SampleMask;
  /// Space-saving sketch of the hottest keys. One mutex guards it for
  /// every shard, so only sampled hits and sampled admissions touch it,
  /// never the common hit or miss path.
  prof::TopK<Key, KeyHash> HotKeys;
  metrics::Counter InvalidKeys;
  /// Sampled lookup latency: per shard + aggregate (mirrors the JIT
  /// cache's per-shard compile histograms).
  std::vector<std::unique_ptr<metrics::Histogram>> LookupNs;
  metrics::Histogram LookupNsAll;
  metrics::Histogram AdmitNsAll;
  std::string MetricsPrefix;
  uint64_t CollectorHandle = 0;
};

} // namespace service
} // namespace gmdiv

#endif // GMDIV_SERVICE_REGISTRY_H
