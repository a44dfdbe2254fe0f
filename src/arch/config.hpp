/**
 * @file
 * The universal three-level multichip hardware model (paper section
 * III, figure 2): package -> chiplet -> core, with the per-level
 * memory components.
 *
 * - core: L lanes of P-size vector MAC (weight stationary), A-L1 and
 *   W-L1 double-buffered SRAMs, O-L1 accumulation registers.
 * - chiplet: N_C cores, shared activation buffer A-L2, output collector
 *   O-L2, central bus with multicast, GRS D2D interface, DDR PHY.
 * - package: N_P chiplets on a directional ring NoP, N_P DRAMs behind
 *   a crossbar.
 */

#ifndef NNBATON_ARCH_CONFIG_HPP
#define NNBATON_ARCH_CONFIG_HPP

#include <cstdint>
#include <string>

#include "common/status.hpp"

namespace nnbaton {

/** Per-core compute and memory resources. */
struct CoreConfig
{
    int lanes = 8;        //!< L: output-channel parallelism
    int vectorSize = 8;   //!< P: input-channel parallelism per lane
    int64_t al1Bytes = 800;       //!< A-L1 activation buffer
    int64_t wl1Bytes = 18 * 1024; //!< W-L1 weight buffer
    int64_t ol1Bytes = 1536;      //!< O-L1 accumulation registers

    /** MAC units in the core (L x P). */
    int64_t macs() const
    {
        return static_cast<int64_t>(lanes) * vectorSize;
    }

    /**
     * Maximum output-tile plane (HOc x WOc) the O-L1 registers can
     * accumulate at @p psum_bits precision for all L lanes.
     */
    int64_t maxCoreTilePlane(int psum_bits) const
    {
        return ol1Bytes * 8 / (static_cast<int64_t>(psum_bits) * lanes);
    }
};

/** Per-chiplet resources. */
struct ChipletConfig
{
    int cores = 8;                 //!< N_C cores on the central bus
    int64_t al2Bytes = 64 * 1024;  //!< shared activation buffer A-L2
    // The O-L2 size is derived: it matches the output volume of one
    // chiplet workload (paper section V-C), so it is not a free knob.
};

/** Package-level resources. */
struct PackageConfig
{
    int chiplets = 4; //!< N_P chiplets on the directional ring NoP
    // One DRAM per chiplet behind a crossbar, as in the paper.
};

/** The complete accelerator configuration. */
struct AcceleratorConfig
{
    PackageConfig package;
    ChipletConfig chiplet;
    CoreConfig core;

    /** Total MAC units in the system. */
    int64_t totalMacs() const
    {
        return static_cast<int64_t>(package.chiplets) * chiplet.cores *
               core.macs();
    }

    /** MAC units per chiplet. */
    int64_t macsPerChiplet() const
    {
        return static_cast<int64_t>(chiplet.cores) * core.macs();
    }

    /** Check resource counts; errInvalidArgument describing the first
     *  violation, OK otherwise. */
    Status check() const;

    /** check(), but throwing the error as a StatusError. */
    void validate() const;

    /** Compact id, e.g. "4-8-8-8" = (chiplets, cores, lanes, vector). */
    std::string computeId() const;

    /** Full description including buffer sizes. */
    std::string toString() const;
};

/**
 * True when @p a and @p b differ at most in the W-L1 and A-L2 sizes:
 * capacity variants of one configuration group, which share every
 * mapping candidate (see the capacity-batched sweep in
 * docs/architecture.md).
 */
bool isCapacityVariant(const AcceleratorConfig &a,
                       const AcceleratorConfig &b);

/**
 * The hardware configuration used throughout the case studies of
 * section VI-A: 4 chiplets, 8 cores, 8 lanes of 8-size vector MAC,
 * 1.5 KB O-L1, 800 B A-L1, 18 KB W-L1 and 64 KB A-L2.
 */
AcceleratorConfig caseStudyConfig();

} // namespace nnbaton

#endif // NNBATON_ARCH_CONFIG_HPP
