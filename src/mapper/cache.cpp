#include "mapper/cache.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace nnbaton {

namespace {

/**
 * Cache observability: aggregate and per-shard hit/miss counters plus
 * the eviction count, registered once and cached so the per-lookup
 * cost is a few relaxed atomic increments.  The per-shard split shows
 * whether the key hash spreads the sweep's load (a hot shard means
 * serialized lookups).
 */
struct CacheMetrics
{
    obs::Counter *hits;
    obs::Counter *misses;
    obs::Counter *evicted;
    std::array<obs::Counter *, MappingCache::kShards> shardHits;
    std::array<obs::Counter *, MappingCache::kShards> shardMisses;

    CacheMetrics()
    {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::instance();
        hits = &reg.counter("mapper.cache.hits");
        misses = &reg.counter("mapper.cache.misses");
        evicted = &reg.counter("mapper.cache.evicted");
        for (size_t s = 0; s < MappingCache::kShards; ++s) {
            shardHits[s] = &reg.counter(
                strprintf("mapper.cache.shard%02zu.hits", s));
            shardMisses[s] = &reg.counter(
                strprintf("mapper.cache.shard%02zu.misses", s));
        }
    }
};

CacheMetrics &
cacheMetrics()
{
    static CacheMetrics m;
    return m;
}

} // namespace

MappingCache::Key
MappingCache::makeKey(const ConvLayer &layer,
                      const AcceleratorConfig &cfg,
                      const TechnologyModel &tech, SearchEffort effort,
                      Objective objective)
{
    Key k;
    k.ho = layer.ho;
    k.wo = layer.wo;
    k.co = layer.co;
    k.ci = layer.ci;
    k.kh = layer.kh;
    k.kw = layer.kw;
    k.stride = layer.stride;
    k.groups = layer.groups;
    k.batch = layer.batch;
    k.postOps = layer.postOps;
    k.chiplets = cfg.package.chiplets;
    k.cores = cfg.chiplet.cores;
    k.lanes = cfg.core.lanes;
    k.vectorSize = cfg.core.vectorSize;
    k.ol1Bytes = cfg.core.ol1Bytes;
    k.al1Bytes = cfg.core.al1Bytes;
    k.wl1Bytes = cfg.core.wl1Bytes;
    k.al2Bytes = cfg.chiplet.al2Bytes;
    k.techFingerprint = tech.fingerprint();
    k.effort = static_cast<int>(effort);
    k.objective = static_cast<int>(objective);
    return k;
}

size_t
MappingCache::KeyHash::operator()(const Key &key) const
{
    // FNV-1a over the key fields; collisions only cost a comparison.
    uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(static_cast<uint64_t>(key.ho) << 32 |
        static_cast<uint32_t>(key.wo));
    mix(static_cast<uint64_t>(key.co) << 32 |
        static_cast<uint32_t>(key.ci));
    mix(static_cast<uint64_t>(key.kh) << 32 |
        static_cast<uint32_t>(key.kw));
    mix(static_cast<uint64_t>(key.stride) << 32 |
        static_cast<uint32_t>(key.groups));
    mix(static_cast<uint64_t>(key.batch) << 32 |
        static_cast<uint32_t>(key.postOps));
    mix(static_cast<uint64_t>(key.chiplets) << 32 |
        static_cast<uint32_t>(key.cores));
    mix(static_cast<uint64_t>(key.lanes) << 32 |
        static_cast<uint32_t>(key.vectorSize));
    mix(static_cast<uint64_t>(key.ol1Bytes));
    mix(static_cast<uint64_t>(key.al1Bytes));
    mix(static_cast<uint64_t>(key.wl1Bytes));
    mix(static_cast<uint64_t>(key.al2Bytes));
    mix(key.techFingerprint);
    mix(static_cast<uint64_t>(key.effort) << 32 |
        static_cast<uint32_t>(key.objective));
    return static_cast<size_t>(h);
}

std::shared_ptr<MappingCache::Entry>
MappingCache::claim(Shard &shard, const Key &key, Entry::State &was)
{
    NNBATON_TRACE_SCOPE("mapper.cache_lookup");
    std::lock_guard<std::mutex> lock(shard.m);
    std::shared_ptr<Entry> &slot = shard.map[key];
    if (!slot) {
        slot = std::make_shared<Entry>();
        shard.lru.push_front(key);
        slot->lruIt = shard.lru.begin();
    } else {
        // Touch: most-recently-used entries live at the front.
        shard.lru.splice(shard.lru.begin(), shard.lru, slot->lruIt);
    }
    was = slot->state;
    if (was == Entry::State::Empty)
        slot->state = Entry::State::Computing;
    return slot;
}

void
MappingCache::finish(Shard &shard, Entry &entry,
                     const std::optional<MappingChoice> *value)
{
    // The value is written before the state flips under the lock, and
    // readers only touch it after seeing Ready under that lock, so the
    // copy needs no lock of its own.
    if (value)
        entry.value = *value;
    {
        std::lock_guard<std::mutex> lock(shard.m);
        if (value) {
            // Publish: account the entry's bytes and shed LRU tails if
            // the shard is now over its share of the cap.
            entry.state = Entry::State::Ready;
            shard.bytes += kEntryBytes;
            evictLocked(shard);
        } else {
            entry.state = Entry::State::Empty;
        }
    }
    shard.ready.notify_all();
}

bool
MappingCache::await(Shard &shard, const Entry &entry)
{
    std::unique_lock<std::mutex> lock(shard.m);
    shard.ready.wait(lock, [&] {
        return entry.state != Entry::State::Computing;
    });
    return entry.state == Entry::State::Ready;
}

void
MappingCache::count(size_t shard, bool hit)
{
    CacheMetrics &cm = cacheMetrics();
    (hit ? cm.hits : cm.misses)->add();
    (hit ? cm.shardHits : cm.shardMisses)[shard]->add();
    (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
}

void
MappingCache::lookupOrComputeBatch(const std::vector<Key> &keys,
                                   const BatchSearch &search,
                                   std::vector<BatchSlot> &slots)
{
    const size_t n = keys.size();
    slots.assign(n, BatchSlot{});
    std::vector<size_t> shard_of(n);
    std::vector<std::shared_ptr<Entry>> entries(n);
    std::vector<size_t> pending(n), owned, waiting;
    for (size_t i = 0; i < n; ++i) {
        shard_of[i] = KeyHash{}(keys[i]) % kShards;
        pending[i] = i;
    }
    const auto hit = [&](size_t i) {
        slots[i].value = entries[i]->value;
        slots[i].hit = true;
        count(shard_of[i], true);
    };

    // Rounds: claim what is free, search the claims together, then
    // await the keys other callers hold.  A key whose owner's search
    // threw comes back Empty and goes into the next round.
    while (!pending.empty()) {
        owned.clear();
        waiting.clear();
        for (const size_t i : pending) {
            Entry::State was;
            entries[i] = claim(shards_[shard_of[i]], keys[i], was);
            if (was == Entry::State::Empty)
                owned.push_back(i);
            else if (was == Entry::State::Computing)
                waiting.push_back(i);
            else
                hit(i);
        }

        if (!owned.empty()) {
            try {
                search(owned, slots);
            } catch (...) {
                for (const size_t i : owned)
                    slots[i].error = std::current_exception();
            }
            for (const size_t i : owned) {
                const bool failed = slots[i].error != nullptr;
                finish(shards_[shard_of[i]], *entries[i],
                       failed ? nullptr : &slots[i].value);
                if (!failed)
                    count(shard_of[i], false);
            }
        }

        pending.clear();
        for (const size_t i : waiting) {
            if (await(shards_[shard_of[i]], *entries[i]))
                hit(i);
            else
                pending.push_back(i);
        }
    }
}

void
MappingCache::evictLocked(Shard &shard)
{
    const int64_t cap = capacityBytes_.load(std::memory_order_relaxed);
    if (cap <= 0)
        return;
    const int64_t share =
        std::max<int64_t>(cap / static_cast<int64_t>(kShards),
                          kEntryBytes);
    auto it = shard.lru.end();
    while (shard.bytes > share && it != shard.lru.begin()) {
        --it;
        auto slot = shard.map.find(*it);
        if (slot == shard.map.end() ||
            slot->second->state != Entry::State::Ready)
            continue; // still being computed (or stale); skip
        shard.map.erase(slot);
        it = shard.lru.erase(it);
        shard.bytes -= kEntryBytes;
        evictions_.fetch_add(1, std::memory_order_relaxed);
        cacheMetrics().evicted->add();
    }
}

void
MappingCache::setCapacity(int64_t max_bytes)
{
    capacityBytes_.store(max_bytes < 0 ? 0 : max_bytes,
                         std::memory_order_relaxed);
    if (max_bytes > 0) {
        for (Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.m);
            evictLocked(shard);
        }
    }
}

size_t
MappingCache::size() const
{
    size_t n = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.m);
        n += shard.map.size();
    }
    return n;
}

int64_t
MappingCache::bytes() const
{
    int64_t n = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.m);
        n += shard.bytes;
    }
    return n;
}

} // namespace nnbaton
