/**
 * @file
 * The C3P (Critical-Capacity Critical-Position) buffer-reuse analysis
 * (paper section IV-B, equations 1-2).
 *
 * For a buffer of a given capacity and a temporal loop nest, the
 * engine finds the outermost nest boundary whose enclosed tensor
 * footprint still fits the buffer (the retention boundary).  Loops
 * relevant to the tensor are the paper's critical positions and the
 * footprints at their boundaries are the critical capacities;
 * irrelevant loops never grow the footprint, so they are crossed for
 * free — exactly the reuse-region behaviour of the paper.  The fill
 * traffic from the parent memory level is then
 *
 *     fills = footprint(retention) * prod(trips of loops above it)
 *
 * which equals the paper's A0 * prod(P_k) penalty form (the paper
 * writes A0 * (1 + prod P_k), counting the intrinsic load separately;
 * we fold it in, the difference is the off-by-one of the first load).
 */

#ifndef NNBATON_C3P_ANALYSIS_HPP
#define NNBATON_C3P_ANALYSIS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "c3p/footprint.hpp"
#include "dataflow/loopnest.hpp"

namespace nnbaton {

/** One critical position found by the scan (reported for inspection). */
struct CriticalPoint
{
    size_t boundary;          //!< nest boundary index (above loops[b])
    int64_t criticalCapacity; //!< bytes needed to retain across it
};

/** Result of analysing one buffer for one tensor. */
struct ReuseResult
{
    int64_t fillBytes = 0;      //!< traffic from the parent level
    int64_t footprintAtFit = 0; //!< retained working set in bytes
    size_t fitBoundary = 0;     //!< retention boundary index
    int64_t intrinsicBytes = 0; //!< A0: footprint of the whole nest
    std::vector<CriticalPoint> criticalPoints;

    /** Penalty factor fills / A0 (1.0 when the buffer is large enough). */
    double penalty() const
    {
        return intrinsicBytes > 0
                   ? static_cast<double>(fillBytes) / intrinsicBytes
                   : 1.0;
    }
};

/**
 * The capacity-independent half of the analysis: the footprint of one
 * tensor enclosed below every boundary of one nest (the critical
 * capacities of equations 1-2) and the trip product above each
 * boundary.  Footprints never shrink toward the outermost boundary,
 * so a buffer's retention boundary is a threshold lookup on this
 * ladder: the outermost boundary whose footprint fits.  One ladder
 * therefore prices every capacity of that buffer — the capacity-
 * batched sweep derives it once per candidate and resolves it per
 * buffer-size variant.
 */
struct FootprintLadder
{
    std::vector<int64_t> footprint;  //!< [b]: bytes enclosed below b
    std::vector<int64_t> tripsAbove; //!< [b]: trips of loops above b
    std::vector<CriticalPoint> criticalPoints; //!< innermost first

    /** The retention boundary for @p capacity_bytes (loops.size()
     *  when not even the atom fits). */
    size_t fitBoundary(int64_t capacity_bytes) const
    {
        const size_t nb = footprint.size() - 1;
        for (size_t b = 0; b < nb; ++b) {
            if (footprint[b] <= capacity_bytes)
                return b;
        }
        return nb;
    }

    /** analyzeBuffer()'s result for a buffer of @p capacity_bytes,
     *  written into caller-owned storage (all fields reassigned).
     *  Linear instead of quadratic in the nest depth: the span
     *  products are the same exact int64 multiplications in a
     *  different (commutative) order, so every field is bit-identical
     *  to analyzeBuffer()'s — the incremental evaluator and the
     *  capacity-batched search rely on that, and test_incremental
     *  pins it. */
    void resolveInto(int64_t capacity_bytes, ReuseResult &out) const;

    /** The capacity-dependent fields of resolveInto() only (retention
     *  boundary, retained footprint, fills); @p out's intrinsic
     *  footprint and critical points are left as they are. */
    void resolveFillInto(int64_t capacity_bytes, ReuseResult &out) const
    {
        out.fitBoundary = fitBoundary(capacity_bytes);
        out.footprintAtFit = footprint[out.fitBoundary];
        out.fillBytes = out.footprintAtFit * tripsAbove[out.fitBoundary];
    }
};

/**
 * Build the footprint ladder of @p tensor through @p nest into
 * caller-owned storage (vector capacity is reused).  One inward-to-
 * outward pass: every boundary footprint comes from one running span
 * accumulation, and crossing an irrelevant loop carries the inner
 * footprint over (the C3P reuse-region property).
 */
void buildFootprintLadder(const LoopNest &nest, Tensor tensor,
                          const ConvLayer &layer, FootprintLadder &out);

/**
 * Analyse @p tensor through @p nest for a buffer of @p capacity_bytes.
 *
 * The atom footprint is assumed to fit (legality-checked by the
 * mapper); if it does not, fills degenerate to atom * total trips and
 * a warning flag is set in the result via fitBoundary == loops.size().
 */
ReuseResult analyzeBuffer(const LoopNest &nest, Tensor tensor,
                          const ConvLayer &layer, int64_t capacity_bytes);

} // namespace nnbaton

#endif // NNBATON_C3P_ANALYSIS_HPP
