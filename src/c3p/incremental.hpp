/**
 * @file
 * Incremental C3P evaluation of a candidate stream.
 *
 * The mapping search spends nearly all its time in the three buffer
 * reuse analyses (W-L1, A-L1, A-L2).  Each is a footprint ladder of
 * one loop nest (c3p/analysis.hpp) resolved at the buffer's capacity,
 * and the nests depend only on the derived shapes and the two loop
 * orders, so enumeration neighbours keep meeting the same nests.  An
 * IncrementalAnalyzer rebuilds the nests of each candidate
 * allocation-free and serves each ladder either from a small
 * hash-guarded exact-match memo keyed on the nest alone or with the
 * linear-time scan; the final composition runs through the same
 * composeAccessAnalysis() code as analyzeMapping(), so results are
 * bit-identical by construction.
 *
 * The analysis splits into prepare() and beginInto() (nests, ladders
 * and the fill-independent counts — all capacity-independent) and
 * resolveInto() (one threshold lookup per W-L1 / A-L2 ladder plus
 * the fill counts), so the capacity-batched sweep prepares a
 * candidate once and resolves it for every W-L1 / A-L2 variant of its
 * configuration group.  The shapes come from the caller, which
 * derives them once per rung for the bound anyway.
 *
 * Cross-check mode (debug/CI) validates every incremental result
 * against the independent full analysis and aborts on any divergence;
 * enable per analyzer with setCrossCheck() or process-wide with the
 * NNBATON_INCREMENTAL_CHECK environment variable.
 */

#ifndef NNBATON_C3P_INCREMENTAL_HPP
#define NNBATON_C3P_INCREMENTAL_HPP

#include <cstdint>
#include <vector>

#include "arch/config.hpp"
#include "c3p/access.hpp"
#include "dataflow/loopnest.hpp"
#include "dataflow/mapping.hpp"
#include "nn/layer.hpp"

namespace nnbaton {

/**
 * Evaluator-local work counters, mirrored into the obs metrics
 * registry (c3p.incremental.*).  Not part of SearchStats: they
 * describe the memo, not the search.
 */
struct IncrementalStats
{
    int64_t evaluations = 0; //!< candidates prepared
    int64_t nestReuses = 0;  //!< buffer terms served from the memo
    int64_t nestScans = 0;   //!< buffer terms recomputed (fast scan)
    int64_t crossChecks = 0; //!< full-analysis validations performed
};

/**
 * Stateful per-(layer, config) incremental evaluator.  Feed it a
 * candidate stream via prepare(), beginInto() and resolveInto().
 * Mappings must be legal (checkMapping-clean), as enumerated
 * candidates are.  Not thread-safe; use one analyzer per search.
 */
class IncrementalAnalyzer
{
  public:
    IncrementalAnalyzer(const ConvLayer &layer,
                        const AcceleratorConfig &cfg,
                        const AnalysisOptions &options = {});

    /**
     * The capacity-independent half of the analysis: build the nests
     * and the W-L1 / A-L1 / A-L2 footprint ladders of @p mapping,
     * whose derived shapes are @p shapes (they must equal
     * deriveShapes() of @p mapping).  The prepared candidate stays
     * current until the next prepare().
     */
    void prepare(const Mapping &mapping, const MappingShapes &shapes);

    /**
     * Write the prepared candidate's capacity-independent analysis
     * into @p out: the shapes, the A-L1 term (at the analyzer's A-L1
     * capacity), the intrinsic footprints and critical points of the
     * W-L1 and A-L2 terms, and the counts that do not read their
     * fills.
     */
    void beginInto(AccessAnalysis &out);

    /**
     * Complete @p out, begun by beginInto() for the current prepared
     * candidate, for the W-L1 and A-L2 capacities of @p cfg: one
     * threshold lookup per ladder, then the fill counts
     * (addFillCountsInto()).  Calling it again with another variant
     * rewrites only those fields.  @p cfg must be a capacity variant
     * of the analyzer's configuration (same compute allocation, O-L1
     * and A-L1; only W-L1 and A-L2 may differ).  Bit-identical to
     * analyzeMapping() under @p cfg.
     */
    void resolveInto(const AcceleratorConfig &cfg, AccessAnalysis &out);

    const IncrementalStats &stats() const { return stats_; }

    /** Validate every result against the full analysis (CI mode);
     *  panics on the first divergence with the offending mapping. */
    void setCrossCheck(bool on) { crossCheck_ = on; }
    bool crossCheckEnabled() const { return crossCheck_; }

    /** True when NNBATON_INCREMENTAL_CHECK is set (and not "0"). */
    static bool crossCheckFromEnv();

  private:
    struct MemoEntry
    {
        uint64_t hash = 0;
        LoopNest nest;
        FootprintLadder ladder;
    };

    /** One buffer slot's exact-match memo: a small ring keyed on the
     *  nest, newest first.  Entries carry a 64-bit nest hash so the
     *  scan compares one word per entry; a hash match is verified
     *  against the full nest before it is trusted. */
    struct NestMemo
    {
        static constexpr size_t kEntries = 8;
        std::vector<MemoEntry> ring;
        size_t next = 0;

        const FootprintLadder *find(uint64_t hash,
                                    const LoopNest &nest) const;

        /** Hand out the next ring slot (evicting the oldest entry when
         *  the ring is full) so the caller can fill it in place; the
         *  slot's vectors keep their capacity across evictions. */
        MemoEntry &claim();
    };

    const FootprintLadder &ladderOf(NestMemo &memo, const LoopNest &nest,
                                    uint64_t nest_hash, Tensor tensor);
    void validate(const Mapping &mapping, const AcceleratorConfig &cfg,
                  const AccessAnalysis &incremental);

    const ConvLayer layer_;
    const AcceleratorConfig cfg_;
    const AnalysisOptions options_;
    bool crossCheck_ = false;

    Mapping mapping_; //!< the prepared candidate
    MappingShapes shapes_;
    NestSet nests_;
    NestMemo wl1Memo_, al1Memo_, al2Memo_;
    // The prepared candidate: ladders point into the memo rings and
    // stay valid until the next prepare() claims a slot.
    const FootprintLadder *wl1Ladder_ = nullptr;
    const FootprintLadder *al1Ladder_ = nullptr;
    const FootprintLadder *al2Ladder_ = nullptr;
    AccessCounts fixedCounts_; //!< composeFixedCountsInto() result
    IncrementalStats stats_;
};

/** Mirror evaluator-local counters into the obs metrics registry
 *  (c3p.incremental.*).  Observation only. */
void mirrorIncrementalMetrics(const IncrementalStats &stats);

} // namespace nnbaton

#endif // NNBATON_C3P_INCREMENTAL_HPP
