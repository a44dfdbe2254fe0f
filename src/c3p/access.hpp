/**
 * @file
 * Whole-layer, whole-package memory-access accounting built on the
 * C3P buffer analysis (DESIGN.md section 4).
 *
 * Produces bit counts per hardware component; cost/energy.hpp turns
 * them into picojoules with the technology model.  Rotation sharing
 * (paper figure 3) is applied here: the tensor shared by the package
 * spatial primitive (activations for C-type, weights for P-type) is
 * loaded from DRAM once and forwarded (N_P - 1) times over the ring.
 */

#ifndef NNBATON_C3P_ACCESS_HPP
#define NNBATON_C3P_ACCESS_HPP

#include <cstdint>
#include <string>

#include "arch/config.hpp"
#include "c3p/analysis.hpp"
#include "dataflow/mapping.hpp"
#include "nn/layer.hpp"

namespace nnbaton {

/** Bit counts per component for one layer on the whole package. */
struct AccessCounts
{
    int64_t dramReadActBits = 0;    //!< DRAM activation reads
    int64_t dramReadWeightBits = 0; //!< DRAM weight reads
    int64_t dramWriteBits = 0;      //!< DRAM writes (final outputs)
    int64_t d2dBits = 0;       //!< NoP traffic (rotation / psum hops)
    int64_t nocBits = 0;       //!< on-chip NoC hops (Simba psum flow)
    int64_t al2ReadBits = 0;
    int64_t al2WriteBits = 0;
    int64_t al1ReadBits = 0;
    int64_t al1WriteBits = 0;
    int64_t wl1ReadBits = 0;
    int64_t wl1WriteBits = 0;
    int64_t ol1RmwBits = 0;  //!< accumulator read-modify-writes
    int64_t ol1ReadBits = 0; //!< final-result drain reads
    int64_t ol2ReadBits = 0;
    int64_t ol2WriteBits = 0;
    int64_t macOps = 0;      //!< effective MAC operations
    int64_t vectorOps = 0;   //!< post-MAC vector-ALU passes (softmax)

    int64_t ol2Bytes = 0; //!< derived O-L2 size (single chiplet workload)

    /** Total DRAM reads in bits. */
    int64_t dramReadBits() const
    {
        return dramReadActBits + dramReadWeightBits;
    }

    /** Total DRAM traffic in bits. */
    int64_t dramBits() const { return dramReadBits() + dramWriteBits; }

    std::string toString() const;
};

/** Detail retained for reporting and the runtime simulator. */
struct AccessAnalysis
{
    AccessCounts counts;
    MappingShapes shapes;
    ReuseResult wl1;         //!< per-core W-L1 fill analysis
    ReuseResult al1;         //!< per-core A-L1 fill analysis
    ReuseResult al2;         //!< per-chiplet A-L2 fill analysis
    double laneUtilization = 1.0;   //!< fraction of L lanes active
    double vectorUtilization = 1.0; //!< fraction of P slots active
};

/**
 * Ablation switches for the architecture's dataflow mechanisms
 * (paper section III); all enabled reproduces the proposed design.
 */
struct AnalysisOptions
{
    /** Ring rotation of the package-shared tensor (figure 3); off =
     *  every chiplet loads the shared tensor from DRAM itself. */
    bool rotationSharing = true;

    /** W-L1 buffer pooling: cores needing the same weights merge
     *  their W-L1 into one broadcast group (section III-A.2); off =
     *  private W-L1 per core with duplicated fills. */
    bool wl1Pooling = true;

    /** Central-bus multicast from A-L2 to the cores of a channel
     *  group; off = one unicast read per core. */
    bool al2Multicast = true;
};

/**
 * Run the full C3P accounting for a (layer, config, mapping) triple.
 * The mapping must pass checkMapping(); this throws
 * StatusError(InvalidArgument) otherwise.
 */
AccessAnalysis analyzeMapping(const ConvLayer &layer,
                              const AcceleratorConfig &cfg,
                              const Mapping &mapping,
                              const AnalysisOptions &options = {});

/**
 * The closed-form composition step of the accounting: turn the three
 * buffer reuse analyses plus the derived shapes into whole-package
 * access counts.  analyzeMapping() and the incremental
 * evaluator (c3p/incremental.hpp) both call this one function, so the
 * incremental path is bit-identical to the full one by construction —
 * the only inputs are the (integer-exact) ReuseResults and shapes.
 */
AccessAnalysis composeAccessAnalysis(const ConvLayer &layer,
                                     const AcceleratorConfig &cfg,
                                     const Mapping &mapping,
                                     const AnalysisOptions &options,
                                     const MappingShapes &shapes,
                                     const ReuseResult &wl1,
                                     const ReuseResult &al1,
                                     const ReuseResult &al2);

/**
 * composeAccessAnalysis() writing into caller-owned storage.  The
 * evaluation hot loops feed the same @p out back in every call so the
 * criticalPoints vectors keep their capacity; all scalar fields are
 * fully (re)assigned, so no stale state survives.  Copies the inputs
 * into @p out, then runs composeFixedCountsInto() and
 * addFillCountsInto().
 */
void composeAccessAnalysisInto(const ConvLayer &layer,
                               const AcceleratorConfig &cfg,
                               const Mapping &mapping,
                               const AnalysisOptions &options,
                               const MappingShapes &shapes,
                               const ReuseResult &wl1,
                               const ReuseResult &al1,
                               const ReuseResult &al2,
                               AccessAnalysis &out);

/**
 * The counts of composeAccessAnalysisInto() in two halves, split at
 * the capacity-variant boundary.  composeFixedCountsInto() resets
 * @p out's counts to everything that does not read the W-L1 or A-L2
 * fills — PE-side reads, the A-L1 chain, O-L1 / O-L2, MACs, DRAM
 * writes — and sets the utilisations, from the shapes and A-L1 term
 * already in @p out.  addFillCountsInto() then adds the W-L1 and A-L2
 * fill traffic (DRAM reads, ring hops, W-L1 / A-L2 writes).  All
 * counts are exact integer sums, so the split changes no bit; the
 * capacity-batched search runs the first half once per candidate and
 * only the second per buffer-size variant.
 */
void composeFixedCountsInto(const ConvLayer &layer,
                            const AcceleratorConfig &cfg,
                            const Mapping &mapping,
                            const AnalysisOptions &options,
                            AccessAnalysis &out);

/** The W-L1 / A-L2 fill half; see composeFixedCountsInto(). */
void addFillCountsInto(const AcceleratorConfig &cfg,
                       const Mapping &mapping,
                       const AnalysisOptions &options,
                       AccessAnalysis &out);

} // namespace nnbaton

#endif // NNBATON_C3P_ACCESS_HPP
