#include "c3p/incremental.hpp"

#include <cstdlib>

#include "common/logging.hpp"
#include "common/metrics.hpp"

namespace nnbaton {

namespace {

bool
sameSpan(const TileSpan &a, const TileSpan &b)
{
    return a.ho == b.ho && a.wo == b.wo && a.co == b.co &&
           a.ci == b.ci && a.kh == b.kh && a.kw == b.kw && a.b == b.b;
}

bool
sameNest(const LoopNest &a, const LoopNest &b)
{
    if (a.loops.size() != b.loops.size() || !sameSpan(a.atom, b.atom))
        return false;
    for (size_t i = 0; i < a.loops.size(); ++i) {
        if (a.loops[i].dim != b.loops[i].dim ||
            a.loops[i].trips != b.loops[i].trips)
            return false;
    }
    return true;
}

uint64_t
fnvStep(uint64_t h, uint64_t v)
{
    return (h ^ v) * 1099511628211ull; // FNV-1a, one multiply per word
}

/** Hash of the full nest identity (atom + loop sequence), the memo
 *  key.  Computed once per nest per prepare().  A collision is
 *  harmless — find() verifies the full nest. */
uint64_t
nestHash(const LoopNest &nest)
{
    uint64_t h = 14695981039346656037ull;
    h = fnvStep(h, static_cast<uint64_t>(nest.atom.ho));
    h = fnvStep(h, static_cast<uint64_t>(nest.atom.wo));
    h = fnvStep(h, static_cast<uint64_t>(nest.atom.co));
    h = fnvStep(h, static_cast<uint64_t>(nest.atom.ci));
    h = fnvStep(h, (static_cast<uint64_t>(nest.atom.kh) << 42) ^
                       (static_cast<uint64_t>(nest.atom.kw) << 21) ^
                       static_cast<uint64_t>(nest.atom.b));
    for (const Loop &l : nest.loops)
        h = fnvStep(h, (static_cast<uint64_t>(l.dim) << 56) ^
                           static_cast<uint64_t>(l.trips));
    return h;
}

bool
sameCounts(const AccessCounts &a, const AccessCounts &b)
{
    return a.dramReadActBits == b.dramReadActBits &&
           a.dramReadWeightBits == b.dramReadWeightBits &&
           a.dramWriteBits == b.dramWriteBits &&
           a.d2dBits == b.d2dBits && a.nocBits == b.nocBits &&
           a.al2ReadBits == b.al2ReadBits &&
           a.al2WriteBits == b.al2WriteBits &&
           a.al1ReadBits == b.al1ReadBits &&
           a.al1WriteBits == b.al1WriteBits &&
           a.wl1ReadBits == b.wl1ReadBits &&
           a.wl1WriteBits == b.wl1WriteBits &&
           a.ol1RmwBits == b.ol1RmwBits &&
           a.ol1ReadBits == b.ol1ReadBits &&
           a.ol2ReadBits == b.ol2ReadBits &&
           a.ol2WriteBits == b.ol2WriteBits && a.macOps == b.macOps &&
           a.vectorOps == b.vectorOps && a.ol2Bytes == b.ol2Bytes;
}

} // namespace

const char *
toString(MappingDelta d)
{
    switch (d) {
      case MappingDelta::Prime:
        return "prime";
      case MappingDelta::TileFactor:
        return "tile-factor";
      case MappingDelta::TileAndOrder:
        return "tile-and-order";
      case MappingDelta::LoopOrder:
        return "loop-order";
      case MappingDelta::SpatialSplit:
        return "spatial-split";
      case MappingDelta::Uncovered:
        return "uncovered";
    }
    panic("bad MappingDelta");
}

MappingDelta
classifyMappingDelta(const Mapping &prev, const Mapping &next)
{
    // Spatial groups: the three independent spatial-split decisions of
    // the mapping.  A covered spatial diff changes exactly one group
    // and nothing else.
    const bool pkg_group = prev.pkgSpatial != next.pkgSpatial ||
                           !(prev.pkgSplit == next.pkgSplit);
    const bool chip_group =
        prev.chipSpatial != next.chipSpatial ||
        prev.chipChannelWays != next.chipChannelWays ||
        !(prev.chipSplit == next.chipSplit);
    const bool core_group =
        prev.hoC != next.hoC || prev.woC != next.woC;
    const int spatial_changes = static_cast<int>(pkg_group) +
                                static_cast<int>(chip_group) +
                                static_cast<int>(core_group);

    const int tile_changes =
        static_cast<int>(prev.chipletTile.ho != next.chipletTile.ho) +
        static_cast<int>(prev.chipletTile.wo != next.chipletTile.wo) +
        static_cast<int>(prev.chipletTile.co != next.chipletTile.co);

    const bool order_changed = prev.pkgOrder != next.pkgOrder ||
                               prev.chipOrder != next.chipOrder;

    if (spatial_changes > 0) {
        if (spatial_changes == 1 && tile_changes == 0 && !order_changed)
            return MappingDelta::SpatialSplit;
        return MappingDelta::Uncovered;
    }
    if (tile_changes > 1)
        return MappingDelta::Uncovered;
    if (tile_changes == 1)
        return order_changed ? MappingDelta::TileAndOrder
                             : MappingDelta::TileFactor;
    // Order-only diff; an identical mapping lands here too (every
    // cached term is reusable either way).
    return MappingDelta::LoopOrder;
}

const FootprintLadder *
IncrementalAnalyzer::NestMemo::find(uint64_t hash,
                                    const LoopNest &nest) const
{
    // Newest-first: enumeration streams revisit the most recent nests
    // (order flips alternate between two nests per tile point).  The
    // wrap is branch-based — a modulo per probe costs more than the
    // whole one-word hash compare.
    const size_t n = ring.size();
    size_t i = next;
    for (size_t k = 0; k < n; ++k) {
        i = (i == 0 ? n : i) - 1;
        if (ring[i].hash == hash && sameNest(ring[i].nest, nest))
            return &ring[i].ladder;
    }
    return nullptr;
}

IncrementalAnalyzer::MemoEntry &
IncrementalAnalyzer::NestMemo::claim()
{
    if (ring.size() < kEntries) {
        ring.reserve(kEntries);
        ring.emplace_back();
        next = ring.size() % kEntries;
        return ring.back();
    }
    MemoEntry &slot = ring[next];
    next = (next + 1) % kEntries;
    return slot;
}

IncrementalAnalyzer::IncrementalAnalyzer(const ConvLayer &layer,
                                         const AcceleratorConfig &cfg,
                                         const AnalysisOptions &options)
    : layer_(layer), cfg_(cfg), options_(options),
      crossCheck_(crossCheckFromEnv())
{
}

bool
IncrementalAnalyzer::crossCheckFromEnv()
{
    const char *v = std::getenv("NNBATON_INCREMENTAL_CHECK");
    return v != nullptr && v[0] != '\0' &&
           !(v[0] == '0' && v[1] == '\0');
}

const FootprintLadder &
IncrementalAnalyzer::ladderOf(NestMemo &memo, const LoopNest &nest,
                              uint64_t nest_hash, Tensor tensor)
{
    if (const FootprintLadder *hit = memo.find(nest_hash, nest)) {
        ++stats_.nestReuses;
        return *hit;
    }
    ++stats_.nestScans;
    MemoEntry &slot = memo.claim();
    slot.hash = nest_hash;
    slot.nest = nest;
    buildFootprintLadder(nest, tensor, layer_, slot.ladder);
    return slot.ladder;
}

void
IncrementalAnalyzer::validate(const Mapping &mapping,
                              const AcceleratorConfig &cfg,
                              const AccessAnalysis &incremental)
{
    ++stats_.crossChecks;
    const AccessAnalysis full =
        analyzeMapping(layer_, cfg, mapping, options_);
    if (!sameCounts(incremental.counts, full.counts) ||
        incremental.wl1.fillBytes != full.wl1.fillBytes ||
        incremental.al1.fillBytes != full.al1.fillBytes ||
        incremental.al2.fillBytes != full.al2.fillBytes ||
        incremental.laneUtilization != full.laneUtilization ||
        incremental.vectorUtilization != full.vectorUtilization) {
        panic("incremental cross-check divergence on %s %s "
              "(W-L1 %lld B, A-L2 %lld B):\n"
              "  incremental: %s\n  full:        %s",
              layer_.name.c_str(), mapping.toString().c_str(),
              static_cast<long long>(cfg.core.wl1Bytes),
              static_cast<long long>(cfg.chiplet.al2Bytes),
              incremental.counts.toString().c_str(),
              full.counts.toString().c_str());
    }
}

const AccessAnalysis &
IncrementalAnalyzer::analyze(const Mapping &mapping)
{
    analyzeInto(mapping, out_);
    return out_;
}

void
IncrementalAnalyzer::analyzeInto(const Mapping &mapping,
                                 AccessAnalysis &out)
{
    prepare(mapping);
    beginInto(out);
    resolveInto(cfg_, out);
}

void
IncrementalAnalyzer::prepare(const Mapping &mapping)
{
    const MappingDelta delta =
        hasPrev_ ? classifyMappingDelta(prevMapping_, mapping)
                 : MappingDelta::Prime;

    // The classification only gates shape reuse.  Everything else —
    // the rebuilt nests, the memoised ladders, the shared composition
    // — is sound for any diff, because the memo keys on the exact
    // nest; a fallback just re-derives the shapes from scratch
    // instead of carrying them over.
    if (delta == MappingDelta::Prime ||
        delta == MappingDelta::Uncovered) {
        ++stats_.fallbacks;
        shapes_ = deriveShapes(layer_, cfg_, mapping);
    } else {
        ++stats_.deltaHits;
        if (delta == MappingDelta::LoopOrder) {
            // deriveShapes() never reads the loop orders, so the
            // derived shapes carry over verbatim.
            ++stats_.shapeReuses;
        } else {
            shapes_ = deriveShapes(layer_, cfg_, mapping);
        }
    }
    prepare(mapping, shapes_);
}

void
IncrementalAnalyzer::prepare(const Mapping &mapping,
                             const MappingShapes &shapes)
{
    ++stats_.evaluations;
    if (&shapes != &shapes_)
        shapes_ = shapes;
    buildNestsInto(layer_, cfg_, mapping, shapes_, nests_);

    const uint64_t core_hash = nestHash(nests_.perCore);
    const uint64_t chiplet_hash = nestHash(nests_.perChiplet);
    wl1Ladder_ =
        &ladderOf(wl1Memo_, nests_.perCore, core_hash, Tensor::Weights);
    al1Ladder_ = &ladderOf(al1Memo_, nests_.perCore, core_hash,
                           Tensor::Activations);
    al2Ladder_ = &ladderOf(al2Memo_, nests_.perChiplet, chiplet_hash,
                           Tensor::Activations);
    prevMapping_ = mapping;
    hasPrev_ = true;
}

void
IncrementalAnalyzer::beginInto(AccessAnalysis &out)
{
    out.shapes = shapes_;
    al1Ladder_->resolveInto(cfg_.core.al1Bytes, out.al1);
    out.wl1.intrinsicBytes = wl1Ladder_->footprint[0];
    out.wl1.criticalPoints = wl1Ladder_->criticalPoints;
    out.al2.intrinsicBytes = al2Ladder_->footprint[0];
    out.al2.criticalPoints = al2Ladder_->criticalPoints;
    composeFixedCountsInto(layer_, cfg_, prevMapping_, options_, out);
    fixedCounts_ = out.counts;
}

void
IncrementalAnalyzer::resolveInto(const AcceleratorConfig &cfg,
                                 AccessAnalysis &out)
{
    if (cfg.core.al1Bytes != cfg_.core.al1Bytes)
        panic("IncrementalAnalyzer::resolveInto: A-L1 %lld B is not a "
              "capacity variant of the analyzer's %lld B",
              static_cast<long long>(cfg.core.al1Bytes),
              static_cast<long long>(cfg_.core.al1Bytes));
    // W-L1 buffers of the pw cores sharing one weight stream are
    // merged into one pool (paper section III-A.2).
    const int64_t wl1_capacity =
        cfg.core.wl1Bytes *
        (options_.wl1Pooling ? prevMapping_.chipSplit.parts() : 1);
    wl1Ladder_->resolveFillInto(wl1_capacity, out.wl1);
    al2Ladder_->resolveFillInto(cfg.chiplet.al2Bytes, out.al2);
    out.counts = fixedCounts_;
    addFillCountsInto(cfg, prevMapping_, options_, out);
    if (crossCheck_)
        validate(prevMapping_, cfg, out);
}

AccessAnalysis
analyzeMappingIncremental(IncrementalAnalyzer &state,
                          const Mapping &mapping)
{
    return state.analyze(mapping);
}

void
mirrorIncrementalMetrics(const IncrementalStats &stats)
{
    static obs::Counter &m_evals =
        obs::MetricsRegistry::instance().counter(
            "c3p.incremental.evaluations");
    static obs::Counter &m_hits =
        obs::MetricsRegistry::instance().counter(
            "c3p.incremental.delta_hits");
    static obs::Counter &m_fallbacks =
        obs::MetricsRegistry::instance().counter(
            "c3p.incremental.fallbacks");
    static obs::Counter &m_shape =
        obs::MetricsRegistry::instance().counter(
            "c3p.incremental.shape_reuses");
    static obs::Counter &m_nest =
        obs::MetricsRegistry::instance().counter(
            "c3p.incremental.nest_reuses");
    static obs::Counter &m_scan =
        obs::MetricsRegistry::instance().counter(
            "c3p.incremental.nest_scans");
    static obs::Counter &m_checks =
        obs::MetricsRegistry::instance().counter(
            "c3p.incremental.cross_checks");
    m_evals.add(stats.evaluations);
    m_hits.add(stats.deltaHits);
    m_fallbacks.add(stats.fallbacks);
    m_shape.add(stats.shapeReuses);
    m_nest.add(stats.nestReuses);
    m_scan.add(stats.nestScans);
    m_checks.add(stats.crossChecks);
}

} // namespace nnbaton
