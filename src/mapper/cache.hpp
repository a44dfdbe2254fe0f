/**
 * @file
 * A thread-safe cache for per-layer mapping search results.
 *
 * A model re-visits the same layer shapes many times (ResNet-50's
 * repeated residual blocks dominate the workload), so
 * mapModelVariants() memoises its layer searches in a MappingCache:
 * a private one per call, or one the caller shares across calls and
 * threads (the `nn-baton serve` daemon keeps one for its lifetime).
 * The key is (layer shape, relevant configuration fields, technology
 * fingerprint, effort, objective); since it carries the
 * TechnologyModel digest, a cache that outlives a single fixed-tech
 * run can never return a result computed under different pJ/bit
 * anchors or clock.
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
     * Return the cached search result for every key, computing the
     * misses with @p search (the capacity-batched sweep looks up one
     * layer shape for every buffer-size variant of a configuration
     * group).  Every key that is neither resident nor being computed
     * by another caller is claimed, and all claimed keys go into ONE
     * call of @p search; keys another caller holds are awaited
     * afterwards.  While an entry is resident its key is searched at
     * most once across all threads: the claimant counts a miss and
     * everyone else a hit.  A key whose search threw is not latched
     * (its error lands in its slot; a waiter on it claims and searches
     * it again).  @p slots is resized to keys.size(), slot i answering
     * keys[i]; values are copies, so a result survives eviction.
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
     * Per-entry resident-byte estimate: the map node (key and entry
     * pointer), the shared Entry holding the MappingChoice, the LRU
     * list node, and the three heap-allocated ReuseResult critical-
     * point vectors inside the choice.  glibc's allocator on x86-64
     * measured 1,106 B per entry over fig15 Sketch sweep entries and
     * 1,128 B over Exhaustive zoo entries (malloc'd bytes after
     * filling a cache, divided by its size); rounded up.
     */
    static constexpr int64_t kEntryBytes = 1152;

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
    static_assert(kEntryBytes >= sizeof(Key) + sizeof(Entry),
                  "kEntryBytes must cover at least the flat key and entry");

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
