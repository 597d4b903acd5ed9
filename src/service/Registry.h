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
/// Each shard publishes an immutable open-addressing table through an
/// atomic pointer. The hit path — lookup() / withEntry() — never takes
/// a mutex: it pins the epoch domain (service/Epoch.h), loads the
/// published table, probes, and copies out the entry's shared_ptr.
/// Writers (acquire() on a miss) serialize on a per-shard mutex,
/// re-probe (build-once: latecomers on the same key become "late
/// hits"), build the entry, then publish a rebuilt table copy-on-write
/// and retire the old one through the epoch domain.
///
/// Eviction is size-capped approximate LRU: each entry carries an
/// atomic LastUseNs stamp refreshed on *sampled* hits (1 in
/// Options::SampleEvery, sharing the clock read with the
/// lookup-latency histogram, so the unsampled hit path performs no
/// clock reads); a full shard evicts the stalest entry during the
/// admission rebuild. Handles are shared_ptr: eviction drops the
/// registry's reference, never the entry — holders keep dividing.
///
/// Counters per shard: Hits/Misses on wait-free striped
/// metrics::Counter (exact at snapshot); Inserts/Evictions as plain
/// words under the writer mutex. For acquire()-only workloads
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
    /// Recency-stamp + latency-histogram sampling period, rounded up
    /// to a power of two. 1 = every hit (deterministic LRU, used by
    /// tests); default 64 keeps clock reads off the common hit path.
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
      const Table *T = S.Current.load(std::memory_order_seq_cst);
      if (const Bucket *B = T->find(K, H)) {
        F(*B->E);
        if (Sampled) {
          B->E->LastUseNs.store(T0, std::memory_order_relaxed);
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
  /// Entries resident right now (sums the published tables).
  size_t size() const;
  /// Invalid-key rejections (d = 0, unsupported width); never cached.
  uint64_t invalidKeys() const { return InvalidKeys.value(); }

  /// Drops every entry (counters keep accumulating). Takes every
  /// writer lock; concurrent readers stay safe via the epoch domain.
  void clear();

  /// Heavy-hitter sketch over divisor keys: sampled hits (weighted by
  /// the sampling period) plus every admission. Exported as
  /// <prefix>_topk and printed by `gmdiv_tool top`.
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
  struct Bucket {
    Key K{};
    EntryHandle E; ///< Null = empty slot (no tombstones; see rebuild).
  };

  /// Immutable once published: linear-probing table with load <= 0.5,
  /// so probes on a published table always terminate at an empty slot.
  struct Table {
    std::vector<Bucket> Buckets;
    uint64_t Mask = 0;
    size_t Size = 0;

    explicit Table(size_t BucketCount)
        : Buckets(BucketCount), Mask(BucketCount - 1) {}

    const Bucket *find(const Key &K, uint64_t H) const {
      for (uint64_t I = H & Mask;; I = (I + 1) & Mask) {
        const Bucket &B = Buckets[I];
        if (!B.E)
          return nullptr;
        if (B.K == K)
          return &B;
      }
    }
  };

  struct Retired {
    const Table *T;
    uint64_t Epoch; ///< Free once Epoch <= EpochDomain::minActive().
  };

  struct alignas(64) Shard {
    /// The published table; readers load it under an epoch guard.
    std::atomic<const Table *> Current{nullptr};
    /// Wait-free striped counters: written by the lock-free hit path.
    metrics::Counter Hits;
    metrics::Counter Misses;
    /// Everything below is written only under WriterMutex; the insert
    /// and eviction counts are atomics so stats() can read them
    /// without taking the lock.
    std::mutex WriterMutex;
    std::atomic<uint64_t> Inserts{0};
    std::atomic<uint64_t> Evictions{0};
    std::vector<Retired> RetiredTables;
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

  /// Publishes \p NewT in \p S and retires the old table; then frees
  /// every retired table whose grace period has elapsed. Caller holds
  /// S.WriterMutex.
  void publish(Shard &S, const Table *NewT);

  void collect(metrics::SnapshotBuilder &B) const;

  std::vector<Shard> Shards;
  size_t ShardCapacity;
  size_t BucketsPerShard;
  uint32_t SampleMask;
  /// Space-saving sketch of the hottest keys (its own mutex; touched
  /// only on sampled hits and admissions, never the common hit path).
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
