/**
 * @file
 * Cheap score lower bounds for the mapping search (score-bound
 * pruning).
 *
 * Evaluating one candidate runs the full C3P accounting — legality
 * check, loop-nest lowering and three buffer analyses — before the
 * energy and runtime models.  The bound below costs only
 * deriveShapes() plus closed-form arithmetic, yet is a provable lower
 * bound on the exact score, so pickBest() can skip any candidate
 * whose bound cannot beat the incumbent without changing the search
 * result.
 *
 * The bound combines
 *  - exact terms that the accounting computes in closed form anyway
 *    (MAC ops, O-L1 read-modify-writes and drains, O-L2 traffic,
 *    W-L1 PE-side reads, A-L1 PE-side reads, DRAM output writes), and
 *  - compulsory-traffic floors for everything that depends on the
 *    buffer analyses: every distinct element a level consumes must be
 *    filled at least once (cold misses), so tensor volumes — times
 *    the spatial replication factors the mapping fixes (chiplets
 *    needing the full input under a C-type package split, channel-way
 *    cores each ingesting their planar stream, ring rotation hops) —
 *    floor the fill counts.
 *
 * Under-estimation is safe (weaker pruning); over-estimation would
 * change search results, so every term here must stay a true floor
 * of src/c3p/access.cpp's accounting.  tests/test_fuzz.cpp asserts
 * bound <= exact score across randomized layers, configurations and
 * whole candidate sets.
 */

#ifndef NNBATON_MAPPER_BOUND_HPP
#define NNBATON_MAPPER_BOUND_HPP

#include "arch/config.hpp"
#include "c3p/access.hpp"
#include "cost/energy.hpp"
#include "dataflow/mapping.hpp"
#include "mapper/search.hpp"
#include "nn/layer.hpp"
#include "tech/technology.hpp"

namespace nnbaton {

/**
 * The capacity-independent part of a candidate's score lower bound:
 * every energy floor term except A-L2 and W-L1, which stay bit counts
 * until priceBound() multiplies them by a capacity's energy per bit,
 * plus the EDP cycle floor (none of the traffic floors read the W-L1
 * or A-L2 size).  The capacity-batched search computes it once per
 * candidate and prices it per buffer-size variant; scoreLowerBound()
 * is exactly boundFloor() then priceBound(), so the bound has one
 * implementation and both paths produce the same bits.
 */
struct BoundFloor
{
    EnergyBreakdown energy; //!< pJ; al2 and wl1 left at zero
    double al2Bits = 0.0;   //!< A-L2 floor traffic (bits)
    double wl1Bits = 0.0;   //!< W-L1 floor traffic (bits)
    double cycles = 0.0;    //!< cycle floor (Objective::MinEdp only)
};

/** The floor of @p mapping, whose derived shapes are @p shapes. */
BoundFloor boundFloor(const ConvLayer &layer,
                      const AcceleratorConfig &cfg,
                      const TechnologyModel &tech,
                      const MappingShapes &shapes,
                      const Mapping &mapping, Objective objective,
                      const AnalysisOptions &options = {});

/**
 * Price @p floor for one capacity variant: @p al2_pj_per_bit and
 * @p wl1_pj_per_bit are TechnologyModel::sramEnergyPerBit() of the
 * variant's A-L2 and W-L1 sizes.  Returns the score bound.
 */
double priceBound(const BoundFloor &floor, double al2_pj_per_bit,
                  double wl1_pj_per_bit, Objective objective);

/**
 * Lower bound on the total energy (pJ) of evaluating @p mapping for
 * @p layer on @p cfg under @p options.  The mapping must be legal
 * (checkMapping() empty), as guaranteed for enumerated candidates.
 */
double energyLowerBound(const ConvLayer &layer,
                        const AcceleratorConfig &cfg,
                        const TechnologyModel &tech,
                        const Mapping &mapping,
                        const AnalysisOptions &options = {});

/**
 * Lower bound on the pickBest() score of @p mapping: total energy for
 * Objective::MinEnergy, energy times the compute-cycle floor for
 * Objective::MinEdp.
 */
double scoreLowerBound(const ConvLayer &layer,
                       const AcceleratorConfig &cfg,
                       const TechnologyModel &tech,
                       const Mapping &mapping, Objective objective,
                       const AnalysisOptions &options = {});

} // namespace nnbaton

#endif // NNBATON_MAPPER_BOUND_HPP
