/**
 * @file
 * The post-design mapping search: for a fixed hardware configuration,
 * find the per-layer mapping minimising energy (or EDP) by exhaustive
 * evaluation of the candidate space (paper sections IV-D, V-C).
 */

#ifndef NNBATON_MAPPER_SEARCH_HPP
#define NNBATON_MAPPER_SEARCH_HPP

#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "c3p/access.hpp"
#include "common/cancel.hpp"
#include "cost/energy.hpp"
#include "cost/ledger.hpp"
#include "mapper/candidates.hpp"
#include "nn/model.hpp"
#include "sim/runtime.hpp"
#include "tech/technology.hpp"

namespace nnbaton {

class MappingCache; // mapper/cache.hpp

/** Search objective. */
enum class Objective
{
    MinEnergy, //!< minimise total energy (the paper's default)
    MinEdp,    //!< minimise energy-delay product
};

/**
 * Work counters for the mapping search.  All counters are
 * deterministic: pruning decisions are made at fixed block boundaries
 * (kPruneBlock in search.cpp) and the cross-design-point cache
 * computes every unique key exactly once, so the batched sweep, the
 * per-point path and any number of sweep lanes report identical
 * totals.
 */
struct SearchStats
{
    int64_t evaluated = 0;   //!< candidates given the full C3P analysis
    int64_t pruned = 0;      //!< candidates skipped by the score bound
    int64_t cacheHits = 0;   //!< layer searches served from the cache
    int64_t cacheMisses = 0; //!< layer searches actually run

    SearchStats &operator+=(const SearchStats &other)
    {
        evaluated += other.evaluated;
        pruned += other.pruned;
        cacheHits += other.cacheHits;
        cacheMisses += other.cacheMisses;
        return *this;
    }
};

/** Execution options for the mapping search. */
struct SearchOptions
{
    /** Skip candidates whose cheap score lower bound (mapper/
     *  bound.hpp) cannot beat the incumbent.  Sound: never changes
     *  the selected mapping. */
    bool boundPruning = true;

    /** Record latency histograms (per-layer search time) into the
     *  obs metrics registry (the --metrics CLI flag).  Observation
     *  only: adds clock reads but never changes results. */
    bool detailedMetrics = false;

    /**
     * Cooperative cancellation, polled at prune-block boundaries and
     * between layers.  Borrowed, may be null.  A fired token unwinds
     * the search with StatusError(Cancelled / DeadlineExceeded); the
     * sweep engine maps that to a skipped design point.
     */
    const CancelToken *cancel = nullptr;
};

/** A fully evaluated mapping for one layer. */
struct MappingChoice
{
    Mapping mapping;
    AccessAnalysis analysis;
    EnergyBreakdown energy; //!< pJ
    RuntimeResult runtime;

    double edp() const { return energy.total() * runtime.cycles; }
};

/** Evaluate one specific mapping (no search). */
MappingChoice evaluateMapping(const ConvLayer &layer,
                              const AcceleratorConfig &cfg,
                              const TechnologyModel &tech,
                              const Mapping &mapping,
                              const AnalysisOptions &options = {});

/**
 * Search the best mapping for one layer.  Returns std::nullopt when
 * no legal candidate exists (the configuration cannot run the layer).
 */
std::optional<MappingChoice>
searchLayer(const ConvLayer &layer, const AcceleratorConfig &cfg,
            const TechnologyModel &tech,
            SearchEffort effort = SearchEffort::Exhaustive,
            Objective objective = Objective::MinEnergy);

/**
 * searchLayer() with explicit execution options: one serial walk of
 * the enumerated candidates through the incremental evaluator,
 * optionally score-bound pruned.  @p stats, when non-null,
 * accumulates work counters.
 */
std::optional<MappingChoice>
searchLayer(const ConvLayer &layer, const AcceleratorConfig &cfg,
            const TechnologyModel &tech, SearchEffort effort,
            Objective objective, const SearchOptions &search,
            SearchStats *stats = nullptr);

/**
 * Search the best mapping for one layer restricted to a spatial
 * combination (figure 11 study).
 */
std::optional<MappingChoice>
searchLayerWithSpatial(const ConvLayer &layer,
                       const AcceleratorConfig &cfg,
                       const TechnologyModel &tech, PackagePartition pkg,
                       ChipletPartition chip,
                       SearchEffort effort = SearchEffort::Exhaustive,
                       Objective objective = Objective::MinEnergy);

/** Whole-model mapping result. */
struct ModelMappingResult
{
    ModelCost cost;
    std::vector<MappingChoice> choices; //!< one per layer, model order
    bool feasible = true; //!< false if any layer had no legal mapping
    SearchStats stats;    //!< work counters for this call
};

/**
 * Map every layer of @p model with a per-layer search.  Layers with
 * identical shapes share one search (ResNet-style repeated blocks),
 * which the result re-expands to model order.
 */
ModelMappingResult
mapModel(const Model &model, const AcceleratorConfig &cfg,
         const TechnologyModel &tech,
         SearchEffort effort = SearchEffort::Exhaustive,
         Objective objective = Objective::MinEnergy);

/**
 * mapModel() with explicit execution options.  When @p cache is
 * non-null the per-layer memoization uses that (thread-safe,
 * cross-design-point) cache instead of a private one, so repeated
 * shapes are searched once per unique (shape, config) across every
 * caller sharing the cache.  A group of one for mapModelVariants().
 */
ModelMappingResult
mapModel(const Model &model, const AcceleratorConfig &cfg,
         const TechnologyModel &tech, SearchEffort effort,
         Objective objective, const SearchOptions &search,
         MappingCache *cache = nullptr);

/** One capacity variant's outcome in mapModelVariants(). */
struct VariantMappingResult
{
    ModelMappingResult mapped;
    /** What this variant's mapping threw (cancellation, an injected
     *  fault), or null.  The variant stopped at that layer, so
     *  @ref mapped is partial and must be discarded. */
    std::exception_ptr error;
};

/**
 * mapModel() for every configuration of a capacity group at once: the
 * @p cfgs must differ at most in their W-L1 and A-L2 sizes
 * (isCapacityVariant(); StatusError(InvalidArgument) otherwise).
 *
 * Layer by layer, every variant's MappingCache::Key is looked up and
 * the misses are searched together: the candidates are enumerated
 * once, and each candidate's shapes, bound floor, loop nests and
 * footprint ladders are derived once.  Each variant then resolves its
 * retention boundaries on the ladders (c3p/analysis.hpp), prices the
 * bound and the energy and runtime at its own capacities, and reduces
 * with its own frozen incumbent.  So result v is bit-identical to
 * mapModel(model, cfgs[v], ...) on the same cache state — mapping
 * choices, costs and SearchStats, hits and misses included.
 */
std::vector<VariantMappingResult>
mapModelVariants(const Model &model,
                 std::span<const AcceleratorConfig> cfgs,
                 const TechnologyModel &tech, SearchEffort effort,
                 Objective objective, const SearchOptions &search,
                 MappingCache *cache = nullptr);

} // namespace nnbaton

#endif // NNBATON_MAPPER_SEARCH_HPP
