/**
 * @file
 * The pre-design flow: sweep the table II space under MAC-count and
 * chiplet-area budgets, evaluate each design with the optimal
 * per-layer mapping, and report energy / runtime / EDP (paper
 * sections IV-D and VI-B).
 */

#ifndef NNBATON_DSE_EXPLORER_HPP
#define NNBATON_DSE_EXPLORER_HPP

#include <optional>
#include <string>
#include <vector>

#include "arch/area.hpp"
#include "common/cancel.hpp"
#include "cost/ledger.hpp"
#include "dse/space.hpp"
#include "mapper/search.hpp"
#include "nn/model.hpp"
#include "tech/technology.hpp"

namespace nnbaton {

/** One evaluated hardware design. */
struct DesignPoint
{
    ComputeAllocation compute;
    MemoryAllocation memory;
    AreaBreakdown area; //!< per-chiplet area
    ModelCost cost;     //!< whole-model cost with optimal mappings
    double clockGhz = 0.5; //!< core clock used for runtime reporting,
                           //!< taken from the TechnologyModel

    double edp() const { return cost.edp(); }

    /** Runtime in milliseconds at the technology model's clock. */
    double runtimeMs() const { return cost.runtimeMs(clockGhz); }

    /** e.g. "2-8-16-16 | A-L1 32K W-L1 144K A-L2 64K | 2.86mm2". */
    std::string toString() const;
};

/** Sweep options. */
struct DseOptions
{
    int64_t totalMacs = 2048;       //!< required MAC units
    double areaLimitMm2 = 0.0;      //!< per-chiplet; <= 0: unconstrained
    bool proportionalMem = false;   //!< figure 14 mode (vs table II grid)
    SearchEffort effort = SearchEffort::Fast;
    Objective objective = Objective::MinEnergy;

    /** Worker lanes for the sweep (including the caller); <= 1 runs
     *  serially.  Results are bit-identical across thread counts. */
    int threads = 1;

    /** Score-bound pruning inside the mapping search (sound). */
    bool boundPruning = true;

    /** Record latency histograms (per design point and per layer
     *  search) into the obs metrics registry (the --metrics CLI
     *  flag).  Observation only: never changes results. */
    bool detailedMetrics = false;

    /**
     * Progress heartbeat period in seconds (--progress[=secs]; <= 0
     * disables).  A sweep-side thread logs points done/total,
     * points/sec, ETA and cache-hit / prune rates every period and
     * mirrors them as dse.progress.* gauges, so a long sweep (or a
     * fleet worker's daemon) is monitorable mid-flight.  Observation
     * only: never changes results.
     */
    double progressSeconds = 0.0;

    /**
     * Fail-fast mode (--strict): the first design point whose
     * evaluation throws aborts the whole sweep by rethrowing.  The
     * default quarantines such points into DseResult::poisoned and
     * keeps sweeping.
     */
    bool strict = false;

    /** Checkpoint file; empty disables checkpointing. */
    std::string checkpointPath;

    /** Flush the checkpoint every N completed design points (the
     *  final flush always happens). */
    int checkpointEvery = 32;

    /** Resume from this checkpoint; empty starts fresh.  Throws
     *  StatusError(FailedPrecondition) when the file was written for
     *  a different model or options. */
    std::string resumePath;

    /**
     * Cooperative cancellation (deadline / SIGINT).  Borrowed, may be
     * null.  Once it fires, remaining design points are skipped, the
     * sweep finishes collection and returns with complete == false.
     */
    CancelToken *cancel = nullptr;

    /**
     * Shared mapping cache (borrowed, may be null).  The sweep
     * defaults to a private cache scoped to one explore() call; a
     * long-lived caller (the serving daemon) passes its process-wide
     * cache here so layer searches stay warm across sweeps.  The key
     * includes the technology fingerprint, so sharing across tech
     * models is safe.  Search hit/miss counters then reflect the
     * cache's prior contents instead of starting cold.
     */
    MappingCache *cache = nullptr;
};

/** A design point whose evaluation threw (quarantined, not fatal). */
struct PoisonedPoint
{
    ComputeAllocation compute;
    MemoryAllocation memory;
    int64_t sweepIndex = 0; //!< position in the deterministic sweep
                            //!< order — rerun with the same options to
                            //!< reproduce
    std::string error;      //!< the captured Status, stringified
};

/** Sweep result. */
struct DseResult
{
    std::vector<DesignPoint> points; //!< valid designs
    int64_t swept = 0;               //!< combos considered
    int64_t areaRejected = 0;        //!< failed the area budget
    int64_t infeasible = 0;          //!< no legal mapping for a layer

    /** Mapping-search work counters, summed over the sweep.  The
     *  compute-once cache and fixed-block pruning keep these
     *  deterministic across thread counts. */
    SearchStats search;

    /** Wall-clock seconds spent in explore() (not deterministic). */
    double elapsedSeconds = 0.0;

    /** Distinct (layer shape, config) searches in the shared cache. */
    int64_t cacheEntries = 0;

    /** Design points whose evaluation threw, quarantined with the
     *  error (empty under --strict, which rethrows instead). */
    std::vector<PoisonedPoint> poisoned;

    /** Points not evaluated because cancellation / deadline fired. */
    int64_t skipped = 0;

    /** Points restored from a --resume checkpoint (their search work
     *  counters are not re-counted; see dse/checkpoint.hpp). */
    int64_t resumed = 0;

    /** False when the sweep was cut short (skipped > 0). */
    bool complete = true;

    /** Index of the minimum-EDP point, if any. */
    std::optional<size_t> bestEdp() const;

    /** Index of the minimum-energy point, if any. */
    std::optional<size_t> bestEnergy() const;
};

/**
 * Run the pre-design sweep for @p model.
 *
 * The points are evaluated in capacity groups (capacityGroups(),
 * evaluateSweepGroup() in dse/slice.hpp): the W-L1 x A-L2 variants of
 * one (compute allocation, O-L1, A-L1) share one candidate walk per
 * layer shape, with results bit-identical to mapping each point on
 * its own.  Groups run in parallel on options.threads lanes.
 *
 * Resilience: a design point whose evaluation throws is quarantined
 * into DseResult::poisoned (unless options.strict), a fired
 * options.cancel token skips the remaining points and marks the
 * result incomplete, and options.checkpointPath / resumePath persist
 * and restore evaluated points so an interrupted sweep resumed with
 * identical options reproduces the same points, classification counts
 * and winner bit-for-bit.
 */
DseResult explore(const Model &model, const DseOptions &options,
                  const TechnologyModel &tech);

} // namespace nnbaton

#endif // NNBATON_DSE_EXPLORER_HPP
