/**
 * @file
 * Full-hierarchy differential verification of the analytical engine.
 *
 * replayMapping() re-executes a complete Mapping across the package /
 * chiplet / core levels for all three tensors: per-level fill traffic
 * is measured by the coordinate-enumerating reference interpreter
 * (verif/interpreter.hpp, input halos included), the core-tile
 * schedule is walked tile by tile, and the access composition, DRAM
 * traffic, cycle count and energy are reconstructed from those
 * measurements with code that shares no closed-form footprint or trip
 * math with c3p/access.cpp or sim/runtime.cpp.  diffMapping() then
 * compares every access-count field, the cycle counts and the energy
 * total against the analytical engine and reports each mismatch.
 *
 * Intended for tests and the `nn-baton post --verify` mode; cost is
 * proportional to the number of touched tensor elements, so replay
 * budgets should prefer small layers (see tools/nn_baton.cpp).
 */

#ifndef NNBATON_VERIF_REPLAY_HPP
#define NNBATON_VERIF_REPLAY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "arch/config.hpp"
#include "c3p/access.hpp"
#include "common/cancel.hpp"
#include "cost/energy.hpp"
#include "dataflow/mapping.hpp"
#include "nn/layer.hpp"
#include "tech/technology.hpp"
#include "verif/interpreter.hpp"

namespace nnbaton {

/** One buffer level's replayed fill measurement. */
struct LevelReplay
{
    int64_t fillBytes = 0;     //!< bytes filled from the parent level
    int64_t retainedTiles = 0; //!< retained subtrees seen by the walk
};

/** Everything the full-hierarchy replay measures for one mapping. */
struct ReplayResult
{
    AccessCounts counts;  //!< independently composed access counts
    MappingShapes shapes; //!< derived shapes (shared mapping semantics)
    LevelReplay wl1;      //!< per-core W-L1 (pooled capacity)
    LevelReplay al1;      //!< per-core A-L1
    LevelReplay al2;      //!< per-chiplet A-L2

    int64_t tilesWalked = 0;   //!< core tiles counted by the schedule walk
    int64_t cycles = 0;        //!< total cycles (pipeline-fill included)
    int64_t computeCycles = 0; //!< pure compute cycles
    EnergyBreakdown energy;    //!< energy of the replayed counts
};

/**
 * Replay @p mapping end to end.  The mapping must pass checkMapping();
 * throws StatusError otherwise (same contract as analyzeMapping()).
 * @p cancel (may be null) is polled once per chiplet-tile trip of the
 * schedule walk and per visited subtree of the fill measurements
 * (referenceFills()); once it fires the replay unwinds with its
 * status, so a deadline or SIGTERM stops even a huge layer.
 */
ReplayResult replayMapping(const ConvLayer &layer,
                           const AcceleratorConfig &cfg,
                           const TechnologyModel &tech,
                           const Mapping &mapping,
                           const AnalysisOptions &options = {},
                           const CancelToken *cancel = nullptr);

/** One analytical-vs-replay field mismatch. */
struct FieldDiff
{
    std::string field;
    double analytical = 0.0;
    double replayed = 0.0;
};

/** Outcome of one differential comparison. */
struct DifferentialReport
{
    std::vector<FieldDiff> diffs; //!< empty when the engines agree
    ReplayResult replay;

    bool ok() const { return diffs.empty(); }

    /** Multi-line mismatch table (empty string when ok). */
    std::string toString() const;
};

/**
 * Run both engines on (layer, cfg, mapping) and compare every access
 * count, the cycle counts and the energy total bit-for-bit.  Bumps
 * the obs counters verif.replays / verif.mismatches.  The replay
 * polls @p cancel as replayMapping() does.
 */
DifferentialReport diffMapping(const ConvLayer &layer,
                               const AcceleratorConfig &cfg,
                               const TechnologyModel &tech,
                               const Mapping &mapping,
                               const AnalysisOptions &options = {},
                               const CancelToken *cancel = nullptr);

} // namespace nnbaton

#endif // NNBATON_VERIF_REPLAY_HPP
