/**
 * @file
 * A thread-safe, cross-design-point cache for per-layer mapping
 * search results.
 *
 * The pre-design sweep runs a full mapping search for every surviving
 * design point, and each model re-visits the same layer shapes many
 * times (ResNet-50's repeated residual blocks dominate the workload).
 * Hoisting the memoization out of mapModel() and keying it on (layer
 * shape, relevant configuration fields, technology fingerprint,
 * effort, objective) lets one cache serve the whole sweep — including
 * the parallel sweep, where many worker threads look up the same key
 * concurrently — and, since the key carries the TechnologyModel
 * digest, a cache that outlives a single fixed-tech run (the
 * `nn-baton serve` daemon) can never return a result computed under
 * different pJ/bit anchors or clock.
 *
 * Entries are compute-once while resident: the first thread to miss a
 * key runs the search while later arrivals block on that entry, so
 * every unique key is searched at most once per residency regardless
 * of thread count.  With the default unbounded capacity nothing is
 * ever evicted and the evaluated/pruned counters stay deterministic
 * and bit-identical between serial and parallel runs (the sweep
 * engine relies on this).
 *
 * setCapacity() arms least-recently-used eviction under an
 * approximate byte cap for long-lived caches (the serving daemon):
 * each shard owns an LRU list and sheds published entries from its
 * tail once the resident estimate exceeds its share of the cap.
 * Evicted keys are simply recomputed on the next miss — results never
 * change, only the amount of work saved.
 *
 * The map is sharded by key hash to keep lock hold times short; entry
 * values are immutable after publication and handed out by value, so
 * a result stays usable after its entry is evicted.
 */

#ifndef NNBATON_MAPPER_CACHE_HPP
#define NNBATON_MAPPER_CACHE_HPP

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "arch/config.hpp"
#include "mapper/search.hpp"
#include "nn/layer.hpp"
#include "tech/technology.hpp"

namespace nnbaton {

class MappingCache
{
  public:
    /**
     * Everything the per-layer search result depends on: the layer
     * shape (including grouping), the configuration knobs visible to
     * candidate enumeration, the C3P accounting and the cost models,
     * the technology model digest, plus the search effort and
     * objective.
     */
    struct Key
    {
        // Layer shape.  `batch` and `postOps` change the accounting;
        // the op tag (conv vs gemm) does not — equivalent lowered
        // shapes deliberately share entries.
        int ho = 0, wo = 0, co = 0, ci = 0;
        int kh = 0, kw = 0, stride = 0, groups = 0;
        int batch = 1, postOps = 0;
        // Hardware configuration.
        int chiplets = 0, cores = 0, lanes = 0, vectorSize = 0;
        int64_t ol1Bytes = 0, al1Bytes = 0, wl1Bytes = 0, al2Bytes = 0;
        // Technology model (energy anchors, fits, clock, widths).
        uint64_t techFingerprint = 0;
        // Search parameters.
        int effort = 0, objective = 0;

        bool operator==(const Key &) const = default;
    };

    static Key makeKey(const ConvLayer &layer,
                       const AcceleratorConfig &cfg,
                       const TechnologyModel &tech, SearchEffort effort,
                       Objective objective);

    /**
     * Return the cached search result for the key, computing it with
     * @p search on a miss.  While an entry is resident @p search runs
     * at most once for its key across all threads; concurrent
     * arrivals block until the value is published.  Sets @p was_hit
     * (when non-null) to false only for the caller that ran the
     * search.  Returned by value so the result survives eviction.
     */
    std::optional<MappingChoice> lookupOrCompute(
        const Key &key,
        const std::function<std::optional<MappingChoice>()> &search,
        bool *was_hit = nullptr);

    /** One key's outcome in lookupOrComputeBatch(). */
    struct BatchSlot
    {
        std::optional<MappingChoice> value;
        bool hit = false;         //!< served without running a search
        std::exception_ptr error; //!< what the key's search threw
    };

    /** Fills slots[i].value (or slots[i].error) for every index in
     *  @p missing, all in one call. */
    using BatchSearch = std::function<void(
        const std::vector<size_t> &missing, std::vector<BatchSlot> &slots)>;

    /**
     * lookupOrCompute() for several keys at once (the capacity-batched
     * sweep looks up one layer shape for every buffer-size variant of
     * a configuration group).  Every key that is neither resident nor
     * being computed by another caller is claimed, and all claimed
     * keys go into ONE call of @p search; keys another caller holds
     * are awaited afterwards.  The per-key contract is lookupOrCompute()'s:
     * each key is searched at most once while resident, the claimant
     * counts a miss and everyone else a hit, and a key whose search
     * threw is not latched (its error lands in its slot; a waiter on
     * it claims and searches it again).  @p slots is resized to
     * keys.size(), slot i answering keys[i].
     */
    void lookupOrComputeBatch(const std::vector<Key> &keys,
                              const BatchSearch &search,
                              std::vector<BatchSlot> &slots);

    /**
     * Arm LRU eviction: keep the resident-byte estimate under
     * @p max_bytes (split evenly across shards); 0 restores the
     * default unbounded behaviour.  Entries already resident stay
     * until a subsequent insertion pushes their shard over its share.
     */
    void setCapacity(int64_t max_bytes);

    /** The configured byte cap (0 = unbounded). */
    int64_t capacityBytes() const
    {
        return capacityBytes_.load(std::memory_order_relaxed);
    }

    /** Drop every entry of shard @p shard (< kShards), freeing its
     *  memory on the calling thread.  Must not race with lookups of
     *  that shard's keys; a cache being discarded can release its
     *  shards on several threads at once. */
    void releaseShard(size_t shard);

    /** Number of distinct keys currently cached. */
    size_t size() const;

    /** Approximate resident bytes (fixed per-entry estimate). */
    int64_t bytes() const;

    /** Entries evicted so far (0 while unbounded). */
    int64_t evictions() const
    {
        return evictions_.load(std::memory_order_relaxed);
    }

    /** Lifetime lookup counters (process-wide metrics mirror these). */
    int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
    int64_t misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }

    /**
     * Per-entry resident-byte estimate.  MappingChoice is a flat
     * aggregate (no heap members), so entry weight is dominated by the
     * key, the value and the map/list node overhead.
     */
    static constexpr int64_t kEntryBytes = 512;

    /** Shard count (public so metrics can name per-shard counters). */
    static constexpr size_t kShards = 16;

  private:
    struct Entry
    {
        /** Guarded by the shard mutex.  Empty entries are free to
         *  claim (fresh, or their search threw); only Ready ones are
         *  published and evictable. */
        enum class State
        {
            Empty,
            Computing,
            Ready,
        };
        State state = State::Empty;
        std::optional<MappingChoice> value; //!< immutable once Ready
        std::list<Key>::iterator lruIt; //!< position in the shard LRU
    };

    struct KeyHash
    {
        size_t operator()(const Key &key) const;
    };

    struct Shard
    {
        mutable std::mutex m;
        std::condition_variable ready; //!< an entry left Computing
        std::unordered_map<Key, std::shared_ptr<Entry>, KeyHash> map;
        std::list<Key> lru; //!< most-recently-used first
        int64_t bytes = 0;  //!< published entries * kEntryBytes
    };

    /** Drop published tail entries until @p shard fits its share of
     *  the cap.  Caller holds the shard lock. */
    void evictLocked(Shard &shard);

    /** Find or create @p key's entry and touch it; @p was gets its
     *  prior state.  An Empty entry is now Computing and the caller
     *  owns its search. */
    std::shared_ptr<Entry> claim(Shard &shard, const Key &key,
                                 Entry::State &was);

    /** End an owned search: publish @p value, or (null) release the
     *  entry back to Empty after the search threw. */
    void finish(Shard &shard, Entry &entry,
                const std::optional<MappingChoice> *value);

    /** Block while another caller computes @p entry; true when it was
     *  published, false when its search threw. */
    bool await(Shard &shard, const Entry &entry);

    /** Count one resolved lookup in the metrics and counters. */
    void count(size_t shard, bool hit);

    std::array<Shard, kShards> shards_;
    std::atomic<int64_t> capacityBytes_{0};
    std::atomic<int64_t> evictions_{0};
    std::atomic<int64_t> hits_{0};
    std::atomic<int64_t> misses_{0};
};

} // namespace nnbaton

#endif // NNBATON_MAPPER_CACHE_HPP
