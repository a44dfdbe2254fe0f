/**
 * @file
 * The sweep decomposed into its order-independent pieces, so one
 * design-point evaluation pipeline serves three callers:
 *
 *  - explore() (dse/explorer.cpp), the single-process sweep;
 *  - the serve daemon's `sweepUnit` op, which evaluates one
 *    contiguous slice of the fingerprinted task list on behalf of a
 *    remote coordinator;
 *  - the fabric coordinator's local fallback and final merge.
 *
 * The contract that makes distribution safe: enumerateSweepTasks() is
 * a pure function of DseOptions (deterministic order), every task is
 * evaluated independently, and collectSweepOutcomes() folds a full
 * outcome vector into a DseResult in task order.  Any partition of
 * the index space, evaluated anywhere, merges back bit-identically to
 * the serial sweep.
 */

#ifndef NNBATON_DSE_SLICE_HPP
#define NNBATON_DSE_SLICE_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dse/explorer.hpp"
#include "mapper/cache.hpp"

namespace nnbaton {

/** One enumerated design point, in deterministic sweep order. */
struct SweepTask
{
    ComputeAllocation compute;
    MemoryAllocation memory;
};

/**
 * The full task list for @p options: the table II grid (or the
 * proportional-memory diagonal) flattened in the canonical order that
 * indexes checkpoints, work units and poisoned-point reports.  Throws
 * StatusError(InvalidArgument) when no compute allocation yields the
 * requested MAC count.
 */
std::vector<SweepTask> enumerateSweepTasks(const DseOptions &options);

/** Per-design-point evaluation outcome, kept in sweep order so any
 *  parallel or distributed collection is bit-identical to serial. */
struct SweepPointOutcome
{
    enum Kind
    {
        AreaRejected,
        Infeasible,
        Valid,
        Poisoned, //!< evaluation threw; quarantined with the error
        Skipped,  //!< not evaluated (cancellation / deadline)
    };
    Kind kind = AreaRejected;
    DesignPoint point;
    SearchStats stats;
    std::string error;     //!< Poisoned only: the captured Status
    bool restored = false; //!< prefilled from a checkpoint
};

/**
 * Evaluate one task: a capacity group of one.  Propagates exceptions
 * (the caller owns quarantine policy); honours options.cancel through
 * the mapping search.
 */
SweepPointOutcome evaluateSweepPoint(const Model &model,
                                     const DseOptions &options,
                                     const TechnologyModel &tech,
                                     const SweepTask &task,
                                     MappingCache &cache);

/**
 * Split [begin, end) of @p tasks into capacity groups: maximal
 * contiguous runs sharing the compute allocation, O-L1 and A-L1,
 * whose points differ only in W-L1 and A-L2 and so share every
 * mapping candidate.  The canonical task order varies W-L1 and A-L2
 * innermost, so the Table II grid falls into one group per (compute,
 * O-L1, A-L1); proportional-memory sweeps give groups of one.
 * Returns [first, last) ranges in order.
 */
std::vector<std::pair<int64_t, int64_t>>
capacityGroups(const std::vector<SweepTask> &tasks, int64_t begin,
               int64_t end);

/**
 * Evaluate the capacity group [begin, end) of @p tasks into
 * outcomes[0 .. end-begin) under the sweep's per-point policy: points
 * already marked restored are left alone, a fired options.cancel
 * skips, verif::injectPointFault and the area budget apply per point,
 * and a point whose evaluation throws is quarantined (or rethrown
 * under options.strict) without disturbing the others.  The surviving
 * points are mapped together by mapModelVariants() through @p cache,
 * or, when it is null, through a memo private to this call (the
 * group's repeated layer shapes are searched once either way), so
 * each outcome is bit-identical to evaluateSweepPoint() on it.
 */
void evaluateSweepGroup(const Model &model, const DseOptions &options,
                        const TechnologyModel &tech,
                        const std::vector<SweepTask> &tasks,
                        int64_t begin, int64_t end, MappingCache *cache,
                        SweepPointOutcome *outcomes);

/**
 * Evaluate the contiguous slice [begin, end) of @p tasks serially,
 * group by group (capacityGroups(), evaluateSweepGroup()),
 * returning end-begin outcomes (slot i holds task begin+i).  Faults
 * are quarantined as Poisoned (or rethrown under options.strict) and
 * a fired options.cancel marks the remaining slots Skipped — the same
 * policy as explore(), so a slice evaluated remotely merges without
 * translation.  Each point passes through verif::injectPointFault
 * with its absolute sweep index, keeping FaultPlan semantics aligned
 * between local and distributed runs.
 */
std::vector<SweepPointOutcome>
evaluateSweepSlice(const Model &model, const DseOptions &options,
                   const TechnologyModel &tech,
                   const std::vector<SweepTask> &tasks, int64_t begin,
                   int64_t end, MappingCache &cache);

/**
 * Fold a full outcome vector (one slot per task, sweep order) into a
 * DseResult: points, classification counters, poisoned list, summed
 * SearchStats and the complete flag.  cacheEntries / elapsedSeconds
 * are the caller's to fill.  Consumes the outcomes (points are moved
 * out).
 */
DseResult collectSweepOutcomes(const std::vector<SweepTask> &tasks,
                               std::vector<SweepPointOutcome> &outcomes);

} // namespace nnbaton

#endif // NNBATON_DSE_SLICE_HPP
