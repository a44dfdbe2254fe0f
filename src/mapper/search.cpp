#include "mapper/search.hpp"

#include <exception>
#include <limits>
#include <memory>
#include <vector>

#include "c3p/incremental.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/status.hpp"
#include "common/trace.hpp"
#include "mapper/bnb.hpp"
#include "mapper/bound.hpp"
#include "mapper/cache.hpp"
#include "verif/fault.hpp"

namespace nnbaton {

const char *
toString(SearchMode mode)
{
    switch (mode) {
      case SearchMode::Exhaustive:
        return "exhaustive";
      case SearchMode::Bnb:
        return "bnb";
      case SearchMode::Anneal:
        return "anneal";
    }
    panic("bad SearchMode");
}

MappingChoice
evaluateMapping(const ConvLayer &layer, const AcceleratorConfig &cfg,
                const TechnologyModel &tech, const Mapping &mapping,
                const AnalysisOptions &options)
{
    MappingChoice choice;
    choice.mapping = mapping;
    choice.analysis = analyzeMapping(layer, cfg, mapping, options);
    choice.energy = computeEnergy(choice.analysis.counts, cfg, tech);
    choice.runtime = estimateRuntime(layer, cfg, choice.analysis, tech);
    return choice;
}

MappingChoice
evaluateMappingIncremental(const ConvLayer &layer,
                           const AcceleratorConfig &cfg,
                           const TechnologyModel &tech,
                           const Mapping &mapping,
                           IncrementalAnalyzer &state)
{
    MappingChoice choice;
    evaluateMappingIncrementalInto(layer, cfg, tech, mapping, state,
                                   choice);
    return choice;
}

void
evaluateMappingIncrementalInto(const ConvLayer &layer,
                               const AcceleratorConfig &cfg,
                               const TechnologyModel &tech,
                               const Mapping &mapping,
                               IncrementalAnalyzer &state,
                               MappingChoice &out)
{
    out.mapping = mapping;
    state.analyzeInto(mapping, out.analysis);
    out.energy = computeEnergy(out.analysis.counts, cfg, tech);
    out.runtime = estimateRuntime(layer, cfg, out.analysis, tech);
}

namespace {

/**
 * Candidates are consumed in fixed blocks: pruning decisions use the
 * incumbent frozen at the block boundary, so they depend only on the
 * candidate order — never on the thread count or timing — and the
 * parallel search is bit-identical to the serial one (counters
 * included).  The block size trades pruning strength (incumbent
 * refreshes) against parallel width; it must stay a constant.
 */
constexpr size_t kPruneBlock = 32;

/** Relative slack before a bound may prune, absorbing the rounding
 *  difference between the bound's and the accounting's float paths
 *  when a floor is exactly tight. */
constexpr double kPruneMargin = 1.0 + 1e-9;

double
scoreOf(const MappingChoice &c, Objective objective)
{
    return objective == Objective::MinEnergy ? c.energy.total()
                                             : c.edp();
}

/** One capacity variant's result in a batched layer search. */
struct VariantPick
{
    std::optional<MappingChoice> best;
    double bestScore = std::numeric_limits<double>::max();
    std::exception_ptr error; //!< the variant's search threw; it dropped out
    SearchStats stats;
};

/**
 * The search loop, over every capacity variant in @p cfgs at once.
 * The variants share the compute allocation, O-L1 and A-L1, hence one
 * candidate block, one set of derived shapes and bound floors, and
 * one loop nest and footprint ladder per candidate.  Each variant
 * still runs exactly the serial search it would run alone: fixed
 * prune blocks, its own incumbent frozen at each block boundary (the
 * whole block is bounded before any of it is evaluated), its own
 * bound pricing, and a strict '<' reduction in candidate order.  So
 * pick v is bit-identical to a search of cfgs[v] alone, counters
 * included.  A cancellation or fault raised by a variant's block poll
 * drops that variant only.  @p pool (single-variant searches only)
 * evaluates each block's survivors in parallel lanes.
 */
void
pickBest(const ConvLayer &layer, std::span<const AcceleratorConfig> cfgs,
         const TechnologyModel &tech, const CandidateBlock &candidates,
         Objective objective, const SearchOptions &search,
         ThreadPool *pool, std::span<VariantPick> picks)
{
    NNBATON_TRACE_SCOPE("mapper.pick_best");
    const size_t nv = cfgs.size();
    if (pool && nv != 1)
        panic("pickBest: parallel lanes serve single-variant searches");
    const bool prune = search.boundPruning;
    const AcceleratorConfig &group = cfgs[0];

    std::vector<double> al2_per_bit(nv), wl1_per_bit(nv);
    for (size_t v = 0; v < nv; ++v) {
        al2_per_bit[v] = tech.sramEnergyPerBit(cfgs[v].chiplet.al2Bytes);
        wl1_per_bit[v] = tech.sramEnergyPerBit(cfgs[v].core.wl1Bytes);
    }

    // The serial lane walks the block in ascending-ordinal order — an
    // enumeration-neighbour stream — through the incremental
    // analyzer, preparing each surviving candidate once for all
    // variants.  The parallel lanes hand out indices
    // nondeterministically and keep the full evaluation (results are
    // bit-identical either way).
    std::optional<IncrementalAnalyzer> inc;
    if (!pool)
        inc.emplace(layer, group);

    const size_t n = candidates.size();
    std::vector<MappingShapes> shapes(std::min(n, kPruneBlock));
    std::vector<BoundFloor> floors(shapes.size());
    std::vector<uint8_t> survives(shapes.size() * nv);
    std::vector<size_t> live(nv);
    for (size_t v = 0; v < nv; ++v)
        live[v] = v;
    MappingChoice scratch;
    std::vector<MappingChoice> slots(pool ? shapes.size() : 0);
    std::vector<size_t> survivors;

    for (size_t base = 0; base < n && !live.empty(); base += kPruneBlock) {
        // Cancellation granularity: one poll per prune block and
        // variant, so a fired deadline stops even a single huge layer
        // search within ~kPruneBlock evaluations.  Unwinding is safe:
        // the compute-once cache does not latch an entry whose search
        // threw, so a later (post-resume) search recomputes it.
        size_t kept = 0;
        for (const size_t v : live) {
            try {
                if (search.cancel && search.cancel->cancelled())
                    throwStatus(search.cancel->toStatus());
                if (verif::faultPlanArmed())
                    verif::injectSearchBlockFault();
                live[kept++] = v;
            } catch (...) {
                picks[v].error = std::current_exception();
            }
        }
        live.resize(kept);
        if (live.empty())
            break;

        const size_t count = std::min(kPruneBlock, n - base);

        // Pruning pass against each variant's block-boundary
        // incumbent.  The floor is capacity-independent, so it is
        // derived once per candidate and priced per variant.
        {
            NNBATON_TRACE_SCOPE("mapper.bound_prune");
            bool bound = false;
            for (const size_t v : live)
                bound = bound || (prune && picks[v].best.has_value());
            for (size_t i = 0; i < count; ++i) {
                const Mapping &m = candidates.mapping(base + i);
                // The serial lane prepares survivors from these shapes.
                if (bound || !pool)
                    shapes[i] = deriveShapes(layer, group, m);
                if (bound)
                    floors[i] = boundFloor(layer, group, tech, shapes[i],
                                           m, objective);
                for (const size_t v : live) {
                    VariantPick &pick = picks[v];
                    const bool cut =
                        prune && pick.best &&
                        priceBound(floors[i], al2_per_bit[v],
                                   wl1_per_bit[v], objective) >=
                            pick.bestScore * kPruneMargin;
                    pick.stats.pruned += cut;
                    survives[i * nv + v] = !cut;
                }
            }
        }

        NNBATON_TRACE_SCOPE("mapper.c3p_analysis");
        if (pool) {
            // Full evaluation of the survivors in parallel lanes
            // (indices write disjoint slots), then the deterministic
            // reduction in candidate order.
            survivors.clear();
            for (size_t i = 0; i < count; ++i) {
                if (survives[i])
                    survivors.push_back(i);
            }
            pool->parallelFor(
                static_cast<int64_t>(survivors.size()), [&](int64_t j) {
                    const size_t i = survivors[static_cast<size_t>(j)];
                    slots[i] = evaluateMapping(
                        layer, group, tech, candidates.mapping(base + i));
                });
            VariantPick &pick = picks[0];
            pick.stats.evaluated += static_cast<int64_t>(survivors.size());
            for (const size_t i : survivors) {
                const double score = scoreOf(slots[i], objective);
                if (!pick.best || score < pick.bestScore) {
                    pick.best = std::move(slots[i]);
                    pick.bestScore = score;
                }
            }
            continue;
        }

        // Candidate-major evaluation: prepare a survivor once, then
        // resolve, price and reduce it for each variant it survived
        // in (only the W-L1 / A-L2 retention and the counts change
        // between variants; a winner is copied out).  The bound pass
        // above already froze every decision of this block, so
        // reducing as we go equals reducing after it.
        for (size_t i = 0; i < count; ++i) {
            bool prepared = false;
            for (const size_t v : live) {
                if (!survives[i * nv + v])
                    continue;
                if (!prepared) {
                    scratch.mapping = candidates.mapping(base + i);
                    inc->prepare(scratch.mapping, shapes[i]);
                    inc->beginInto(scratch.analysis);
                    prepared = true;
                }
                const AcceleratorConfig &cfg = cfgs[v];
                VariantPick &pick = picks[v];
                inc->resolveInto(cfg, scratch.analysis);
                scratch.energy =
                    computeEnergy(scratch.analysis.counts, cfg, tech);
                scratch.runtime =
                    estimateRuntime(layer, cfg, scratch.analysis, tech);
                ++pick.stats.evaluated;
                // Strict '<' keeps the earliest candidate on score
                // ties.
                const double score = scoreOf(scratch, objective);
                if (!pick.best || score < pick.bestScore) {
                    pick.best = scratch;
                    pick.bestScore = score;
                }
            }
        }
    }

    // Mirror the work counters into the metrics registry (totals stay
    // equal to SearchStats by construction) and keep a histogram of
    // how many candidates the bound killed per variant search — the
    // pruning effectiveness distribution.
    static obs::Counter &m_evaluated =
        obs::MetricsRegistry::instance().counter(
            "mapper.candidates.evaluated");
    static obs::Counter &m_pruned =
        obs::MetricsRegistry::instance().counter(
            "mapper.candidates.pruned");
    static obs::Histogram &m_prune_hist =
        obs::MetricsRegistry::instance().histogram(
            "mapper.prune.pruned_per_search");
    for (const VariantPick &pick : picks) {
        m_evaluated.add(pick.stats.evaluated);
        m_pruned.add(pick.stats.pruned);
        if (prune)
            m_prune_hist.record(pick.stats.pruned);
    }
    if (inc)
        mirrorIncrementalMetrics(inc->stats());
}

/** pickBest() for one configuration; rethrows its poll error. */
std::optional<MappingChoice>
pickOne(const ConvLayer &layer, const AcceleratorConfig &cfg,
        const TechnologyModel &tech, const CandidateBlock &candidates,
        Objective objective, const SearchOptions &search,
        ThreadPool *pool, SearchStats *stats)
{
    VariantPick pick;
    pickBest(layer, std::span(&cfg, 1), tech, candidates, objective,
             search, pool, std::span(&pick, 1));
    if (pick.error)
        std::rethrow_exception(pick.error);
    if (stats)
        *stats += pick.stats;
    return std::move(pick.best);
}

/**
 * Strategy dispatch for one layer search.  @p warm_hint (Bnb only) is
 * a cached winner from a sibling configuration, or null.
 */
std::optional<MappingChoice>
runLayerSearch(const ConvLayer &layer, const AcceleratorConfig &cfg,
               const TechnologyModel &tech, SearchEffort effort,
               Objective objective, const SearchOptions &search,
               ThreadPool *pool, SearchStats *stats,
               const Mapping *warm_hint)
{
    switch (search.mode) {
      case SearchMode::Exhaustive: {
        CandidateBlock candidates;
        {
            NNBATON_TRACE_SCOPE("mapper.candidates");
            enumerateCandidatesInto(layer, cfg, effort, candidates);
        }
        return pickOne(layer, cfg, tech, candidates, objective,
                       search, pool, stats);
      }
      case SearchMode::Bnb: {
        const CandidateSpace space(layer, cfg, effort);
        return searchBranchAndBound(layer, cfg, tech, space, objective,
                                    search, pool, stats, warm_hint);
      }
      case SearchMode::Anneal: {
        const CandidateSpace space(layer, cfg, effort);
        return searchAnneal(layer, cfg, tech, space, objective, search,
                            stats);
      }
    }
    panic("bad SearchMode");
}

/**
 * The cache-miss search of one layer for the capacity variants
 * @p cfgs.  Exhaustive search enumerates the candidates once and runs
 * pickBest() over every variant whose W-L1 holds a vector step (the
 * others have no legal candidate at all); the other modes search each
 * variant on its own, warm-started from @p cache when asked to.
 */
void
searchVariants(const ConvLayer &layer,
               std::span<const AcceleratorConfig> cfgs,
               const TechnologyModel &tech, SearchEffort effort,
               Objective objective, const SearchOptions &search,
               ThreadPool *pool, MappingCache &cache,
               std::span<VariantPick> picks)
{
    if (search.mode != SearchMode::Exhaustive) {
        for (size_t v = 0; v < cfgs.size(); ++v) {
            try {
                // Warm start (opt-in): seed the B&B incumbent from a
                // published sibling-config winner for this layer
                // shape.  Hint only — the winner never changes.
                std::optional<Mapping> hint;
                if (search.warmStart && search.mode == SearchMode::Bnb)
                    hint = cache.findShapeMatch(MappingCache::makeKey(
                        layer, cfgs[v], tech, effort, objective,
                        search.mode, search.annealSeed));
                picks[v].best = runLayerSearch(
                    layer, cfgs[v], tech, effort, objective, search,
                    pool, &picks[v].stats, hint ? &*hint : nullptr);
            } catch (...) {
                picks[v].error = std::current_exception();
            }
        }
        return;
    }

    std::vector<AcceleratorConfig> feasible;
    std::vector<size_t> slot;
    for (size_t v = 0; v < cfgs.size(); ++v) {
        if (wl1HoldsVectorStep(cfgs[v])) {
            feasible.push_back(cfgs[v]);
            slot.push_back(v);
        }
    }
    if (feasible.empty())
        return;
    CandidateBlock candidates;
    {
        NNBATON_TRACE_SCOPE("mapper.candidates");
        enumerateCandidatesInto(layer, feasible[0], effort, candidates);
    }
    std::vector<VariantPick> feasible_picks(feasible.size());
    pickBest(layer, feasible, tech, candidates, objective, search, pool,
             feasible_picks);
    for (size_t k = 0; k < slot.size(); ++k)
        picks[slot[k]] = std::move(feasible_picks[k]);
}

} // namespace

std::optional<MappingChoice>
searchLayer(const ConvLayer &layer, const AcceleratorConfig &cfg,
            const TechnologyModel &tech, SearchEffort effort,
            Objective objective)
{
    return searchLayer(layer, cfg, tech, effort, objective,
                       SearchOptions{});
}

std::optional<MappingChoice>
searchLayer(const ConvLayer &layer, const AcceleratorConfig &cfg,
            const TechnologyModel &tech, SearchEffort effort,
            Objective objective, const SearchOptions &search,
            SearchStats *stats)
{
    std::unique_ptr<ThreadPool> pool;
    if (search.threads > 1 && !ThreadPool::inParallelRegion())
        pool = std::make_unique<ThreadPool>(search.threads);
    return runLayerSearch(layer, cfg, tech, effort, objective, search,
                          pool.get(), stats, /*warm_hint=*/nullptr);
}

std::optional<MappingChoice>
searchLayerWithSpatial(const ConvLayer &layer,
                       const AcceleratorConfig &cfg,
                       const TechnologyModel &tech, PackagePartition pkg,
                       ChipletPartition chip, SearchEffort effort,
                       Objective objective)
{
    CandidateBlock candidates;
    enumerateCandidatesInto(CandidateSpace(layer, cfg, effort, pkg, chip),
                            candidates);
    return pickOne(layer, cfg, tech, candidates, objective,
                   SearchOptions{}, /*pool=*/nullptr, /*stats=*/nullptr);
}

ModelMappingResult
mapModel(const Model &model, const AcceleratorConfig &cfg,
         const TechnologyModel &tech, SearchEffort effort,
         Objective objective)
{
    return mapModel(model, cfg, tech, effort, objective,
                    SearchOptions{});
}

ModelMappingResult
mapModel(const Model &model, const AcceleratorConfig &cfg,
         const TechnologyModel &tech, SearchEffort effort,
         Objective objective, const SearchOptions &search,
         MappingCache *cache)
{
    std::vector<VariantMappingResult> r = mapModelVariants(
        model, std::span(&cfg, 1), tech, effort, objective, search, cache);
    if (r[0].error)
        std::rethrow_exception(r[0].error);
    return std::move(r[0].mapped);
}

std::vector<VariantMappingResult>
mapModelVariants(const Model &model,
                 std::span<const AcceleratorConfig> cfgs,
                 const TechnologyModel &tech, SearchEffort effort,
                 Objective objective, const SearchOptions &search,
                 MappingCache *cache)
{
    NNBATON_TRACE_SCOPE("mapper.map_model");
    for (const AcceleratorConfig &cfg : cfgs) {
        if (!isCapacityVariant(cfgs[0], cfg)) {
            throwStatus(errInvalidArgument(
                "mapModelVariants: %s is not a W-L1 / A-L2 variant of %s",
                cfg.toString().c_str(), cfgs[0].toString().c_str()));
        }
    }

    const size_t nv = cfgs.size();
    std::vector<VariantMappingResult> results(nv);
    for (VariantMappingResult &r : results)
        r.mapped.cost.modelName = model.name();

    // Layers with identical shapes (repeated residual blocks) share
    // one search result.  Without an external cache, a private one
    // scopes the memoization to this call, as before.
    MappingCache private_cache;
    MappingCache &shared = cache ? *cache : private_cache;

    // Intra-layer parallel lanes serve single-configuration searches;
    // a batch is one serial candidate walk.
    std::unique_ptr<ThreadPool> pool;
    if (nv == 1 && search.threads > 1 && !ThreadPool::inParallelRegion())
        pool = std::make_unique<ThreadPool>(search.threads);

    static obs::Histogram &m_layer_us =
        obs::MetricsRegistry::instance().histogram(
            "mapper.layer_search_us");

    // Variants still mapping; one whose search throws drops out with
    // its error, as a lone mapModel() would unwind.
    std::vector<size_t> live(nv);
    for (size_t v = 0; v < nv; ++v)
        live[v] = v;
    std::vector<MappingCache::Key> keys;
    std::vector<MappingCache::BatchSlot> slots;
    std::vector<AcceleratorConfig> batch_cfgs;
    std::vector<VariantPick> picks;

    for (const ConvLayer &layer : model.layers()) {
        if (live.empty())
            break;
        if (search.cancel && search.cancel->cancelled()) {
            try {
                throwStatus(search.cancel->toStatus());
            } catch (...) {
                for (const size_t v : live)
                    results[v].error = std::current_exception();
            }
            break;
        }
        // Capacity variants' keys differ only in the two sizes.
        keys.assign(live.size(),
                    MappingCache::makeKey(layer, cfgs[live[0]], tech,
                                          effort, objective, search.mode,
                                          search.annealSeed));
        for (size_t k = 0; k < live.size(); ++k) {
            keys[k].wl1Bytes = cfgs[live[k]].core.wl1Bytes;
            keys[k].al2Bytes = cfgs[live[k]].chiplet.al2Bytes;
        }
        const uint64_t t0 =
            search.detailedMetrics ? obs::traceNowNs() : 0;
        // Every variant's key is looked up; the misses are searched
        // together (one enumeration, one ladder per candidate).
        shared.lookupOrComputeBatch(
            keys,
            [&](const std::vector<size_t> &missing,
                std::vector<MappingCache::BatchSlot> &out) {
                batch_cfgs.clear();
                for (const size_t k : missing)
                    batch_cfgs.push_back(cfgs[live[k]]);
                picks.assign(missing.size(), VariantPick{});
                searchVariants(layer, batch_cfgs, tech, effort,
                               objective, search, pool.get(), shared,
                               picks);
                for (size_t j = 0; j < missing.size(); ++j) {
                    MappingCache::BatchSlot &slot = out[missing[j]];
                    slot.value = std::move(picks[j].best);
                    slot.error = picks[j].error;
                    results[live[missing[j]]].mapped.stats +=
                        picks[j].stats;
                }
            },
            slots);
        // One latency record per lookup: the layer's batched wall time
        // shared evenly by the variants it served.
        const int64_t layer_us =
            search.detailedMetrics
                ? static_cast<int64_t>((obs::traceNowNs() - t0) / 1000 /
                                       live.size())
                : 0;

        size_t kept = 0;
        for (size_t k = 0; k < live.size(); ++k) {
            const size_t v = live[k];
            ModelMappingResult &result = results[v].mapped;
            MappingCache::BatchSlot &slot = slots[k];
            if (slot.error) {
                results[v].error = slot.error;
                continue;
            }
            live[kept++] = v;
            ++(slot.hit ? result.stats.cacheHits
                        : result.stats.cacheMisses);
            if (search.detailedMetrics)
                m_layer_us.record(layer_us);
            if (!slot.value) {
                // The caller decides whether infeasibility is worth
                // reporting (the DSE sweeps hit this by design).
                result.feasible = false;
                continue;
            }
            LayerCost lc;
            lc.layerName = layer.name;
            lc.energy = slot.value->energy;
            lc.cycles = slot.value->runtime.cycles;
            lc.utilization = slot.value->runtime.utilization;
            result.cost.add(std::move(lc));
            result.choices.push_back(std::move(*slot.value));
        }
        live.resize(kept);
    }
    return results;
}

} // namespace nnbaton
