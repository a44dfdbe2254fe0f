#include "mapper/candidates.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/util.hpp"

namespace nnbaton {

namespace {

/** Spatial skeleton of a candidate before temporal choices. */
struct Skeleton
{
    PackagePartition pkg;
    PlanarSplit pkgSplit;
    ChipletPartition chip;
    int cw;
    PlanarSplit chipSplit;
};

std::vector<Skeleton>
enumerateSkeletons(const ConvLayer &layer, const AcceleratorConfig &cfg,
                   SearchEffort effort, bool has_pkg_filter,
                   PackagePartition pkg_filter, bool has_chip_filter,
                   ChipletPartition chip_filter)
{
    const int np = cfg.package.chiplets;
    const int nc = cfg.chiplet.cores;

    // Package-level options.
    struct PkgOpt
    {
        PackagePartition pkg;
        PlanarSplit split;
    };
    std::vector<PkgOpt> pkg_opts;
    if (!has_pkg_filter || pkg_filter == PackagePartition::Channel)
        pkg_opts.push_back({PackagePartition::Channel, {1, 1}});
    if (np > 1 && (!has_pkg_filter ||
                   pkg_filter == PackagePartition::Plane)) {
        auto splits = enumerateSplits(np, layer.ho, layer.wo);
        const size_t keep =
            effort == SearchEffort::Exhaustive ? splits.size()
            : effort == SearchEffort::Fast     ? 2
                                               : 1;
        if (splits.size() > keep)
            splits.resize(keep);
        for (const auto &sp : splits)
            pkg_opts.push_back({PackagePartition::Plane, sp});
    }

    // Chiplet-level options.
    struct ChipOpt
    {
        ChipletPartition chip;
        int cw;
        PlanarSplit split;
    };
    std::vector<ChipOpt> chip_opts;
    auto want_chip = [&](ChipletPartition c) {
        return !has_chip_filter || chip_filter == c;
    };
    if (want_chip(ChipletPartition::Channel))
        chip_opts.push_back({ChipletPartition::Channel, nc, {1, 1}});
    if (nc > 1 && want_chip(ChipletPartition::Plane)) {
        auto splits = enumerateSplits(nc, layer.ho, layer.wo);
        const size_t keep =
            effort == SearchEffort::Exhaustive ? splits.size()
            : effort == SearchEffort::Fast     ? 2
                                               : 1;
        if (splits.size() > keep)
            splits.resize(keep);
        for (const auto &sp : splits)
            chip_opts.push_back({ChipletPartition::Plane, 1, sp});
    }
    if (nc > 3 && want_chip(ChipletPartition::Hybrid)) {
        // Sketch keeps only the most balanced channel/plane split.
        std::vector<int> cws;
        for (int cw : divisors(nc)) {
            if (cw >= 2 && cw < nc)
                cws.push_back(cw);
        }
        if (effort == SearchEffort::Sketch && cws.size() > 1)
            cws = {cws[cws.size() / 2]};
        for (int cw : cws) {
            const int pw = nc / cw;
            auto splits = enumerateSplits(pw, layer.ho, layer.wo);
            if (splits.empty())
                continue;
            size_t take = effort == SearchEffort::Exhaustive
                              ? std::min<size_t>(2, splits.size())
                              : 1;
            for (size_t i = 0; i < take && i < splits.size(); ++i) {
                chip_opts.push_back(
                    {ChipletPartition::Hybrid, cw, splits[i]});
            }
        }
    }

    std::vector<Skeleton> out;
    for (const auto &po : pkg_opts) {
        for (const auto &co : chip_opts) {
            out.push_back(
                {po.pkg, po.split, co.chip, co.cw, co.split});
        }
    }
    return out;
}

/** Power-of-two values up to @p limit (always includes limit). */
std::vector<int>
pow2Ladder(int limit, SearchEffort effort)
{
    std::vector<int> out;
    for (int v = 1; v < limit; v *= 2)
        out.push_back(v);
    out.push_back(limit);
    if (effort == SearchEffort::Sketch && out.size() > 2)
        return {out.front(), out.back()};
    if (effort == SearchEffort::Fast && out.size() > 3) {
        // Keep 1, a mid rung and the limit.
        std::vector<int> fast{out.front(), out[out.size() / 2],
                              out.back()};
        return fast;
    }
    return out;
}

/** Candidate (hoC, woC) core-tile planes respecting O-L1 and A-L1. */
std::vector<std::pair<int, int>>
coreTilePlanes(const ConvLayer &layer, const AcceleratorConfig &cfg,
               SearchEffort effort)
{
    const int64_t max_plane = cfg.core.maxCoreTilePlane(24);
    std::vector<std::pair<int, int>> out;
    auto fits_al1 = [&](int h, int w) {
        const int64_t need =
            static_cast<int64_t>(inputExtent(h, layer.kh, layer.stride)) *
            inputExtent(w, layer.kw, layer.stride) *
            std::min(cfg.core.vectorSize, layer.ciPerGroup());
        return need <= cfg.core.al1Bytes;
    };
    for (int h = 1; h <= std::min(layer.ho, 64); h *= 2) {
        for (int w : {h, h / 2, h * 2, 1}) {
            if (w < 1 || w > std::min(layer.wo, 64))
                continue;
            if (static_cast<int64_t>(h) * w > max_plane)
                continue;
            if (!fits_al1(h, w))
                continue;
            if (std::find(out.begin(), out.end(),
                          std::make_pair(h, w)) == out.end()) {
                out.emplace_back(h, w);
            }
        }
    }
    if (out.empty())
        return out;
    // Largest tiles first: fewer, bigger tiles amortise loads better.
    std::sort(out.begin(), out.end(), [](auto a, auto b) {
        return a.first * a.second > b.first * b.second;
    });
    const size_t cap = effort == SearchEffort::Exhaustive ? 8
                       : effort == SearchEffort::Fast     ? 3
                                                          : 2;
    if (out.size() > cap)
        out.resize(cap);
    return out;
}

/** The two loop orders in grid-index order (index 0 and 1). */
constexpr LoopOrder kOrders[] = {LoopOrder::ChannelPriority,
                                 LoopOrder::PlanePriority};

std::vector<CandidateSpace::Subtree>
buildSubtrees(const ConvLayer &layer, const AcceleratorConfig &cfg,
              SearchEffort effort, bool has_pkg, PackagePartition pkg,
              bool has_chip, ChipletPartition chip)
{
    std::vector<CandidateSpace::Subtree> out;
    const auto skeletons = enumerateSkeletons(layer, cfg, effort,
                                              has_pkg, pkg, has_chip,
                                              chip);
    const auto planes = coreTilePlanes(layer, cfg, effort);
    int64_t ordinal = 0;
    for (const auto &sk : skeletons) {
        // Macro workload per chiplet under this package split.
        const int macro_ho =
            sk.pkg == PackagePartition::Plane
                ? static_cast<int>(ceilDiv(layer.ho, sk.pkgSplit.fh))
                : layer.ho;
        const int macro_wo =
            sk.pkg == PackagePartition::Plane
                ? static_cast<int>(ceilDiv(layer.wo, sk.pkgSplit.fw))
                : layer.wo;
        const int macro_co =
            sk.pkg == PackagePartition::Channel
                ? static_cast<int>(ceilDiv(layer.co,
                                           cfg.package.chiplets))
                : layer.co;
        for (auto [hoc, woc] : planes) {
            CandidateSpace::Subtree st;
            st.pkg = sk.pkg;
            st.pkgSplit = sk.pkgSplit;
            st.chip = sk.chip;
            st.cw = sk.cw;
            st.chipSplit = sk.chipSplit;
            st.hoC = hoc;
            st.woC = woc;
            st.macro = {macro_ho, macro_wo, macro_co};
            // Chiplet tiles grow from the core split in power-of-two
            // steps along the plane and in lane multiples along CO.
            st.baseH = hoc * sk.chipSplit.fh;
            st.baseW = woc * sk.chipSplit.fw;
            st.baseC = cfg.core.lanes * sk.cw;
            st.ladderH =
                pow2Ladder(std::max(1, macro_ho / st.baseH), effort);
            st.ladderW =
                pow2Ladder(std::max(1, macro_wo / st.baseW), effort);
            st.ladderC =
                pow2Ladder(std::max(1, macro_co / st.baseC), effort);
            st.firstOrdinal = ordinal;
            ordinal += st.gridLeaves();
            out.push_back(std::move(st));
        }
    }
    return out;
}

} // namespace

void
CandidateBlock::keepOnly(bool full_lane)
{
    const uint8_t want = full_lane ? 1 : 0;
    size_t w = 0;
    for (size_t r = 0; r < mappings_.size(); ++r) {
        if (fullLane_[r] != want)
            continue;
        if (w != r) {
            mappings_[w] = mappings_[r];
            ordinals_[w] = ordinals_[r];
            fullLane_[w] = fullLane_[r];
        }
        ++w;
    }
    mappings_.resize(w);
    ordinals_.resize(w);
    fullLane_.resize(w);
}

CandidateSpace::CandidateSpace(const ConvLayer &layer,
                               const AcceleratorConfig &cfg,
                               SearchEffort effort)
    : layer_(layer), cfg_(cfg),
      subtrees_(buildSubtrees(layer, cfg, effort, false,
                              PackagePartition::Channel, false,
                              ChipletPartition::Channel))
{
}

CandidateSpace::CandidateSpace(const ConvLayer &layer,
                               const AcceleratorConfig &cfg,
                               SearchEffort effort, PackagePartition pkg,
                               ChipletPartition chip)
    : layer_(layer), cfg_(cfg),
      subtrees_(
          buildSubtrees(layer, cfg, effort, true, pkg, true, chip))
{
}

std::optional<CandidateSpace::Leaf>
CandidateSpace::makeRung(size_t i, size_t ih, size_t iw, size_t ic) const
{
    const Subtree &st = subtrees_[i];
    Mapping m;
    m.pkgSpatial = st.pkg;
    m.pkgSplit = st.pkgSplit;
    m.chipSpatial = st.chip;
    m.chipChannelWays = st.cw;
    m.chipSplit = st.chipSplit;
    m.chipletTile = {
        std::min(st.baseH * st.ladderH[ih], st.macro.ho),
        std::min(st.baseW * st.ladderW[iw], st.macro.wo),
        std::min(st.baseC * st.ladderC[ic], st.macro.co)};
    m.hoC = st.hoC;
    m.woC = st.woC;
    m.pkgOrder = kOrders[0];
    m.chipOrder = kOrders[0];
    if (!checkMapping(layer_, cfg_, m).empty())
        return std::nullopt;
    Leaf leaf;
    leaf.mapping = m;
    leaf.ordinal =
        st.firstOrdinal +
        static_cast<int64_t>((ih * st.ladderW.size() + iw) *
                                 st.ladderC.size() +
                             ic) *
            kOrderPairs;
    const MappingShapes sh = deriveShapes(layer_, cfg_, m);
    leaf.fullLane = sh.coreMacro.co >= cfg_.core.lanes;
    return leaf;
}

std::optional<CandidateSpace::Leaf>
CandidateSpace::makeLeaf(size_t i, size_t ih, size_t iw, size_t ic,
                         size_t order) const
{
    std::optional<Leaf> leaf = makeRung(i, ih, iw, ic);
    if (leaf) {
        leaf->mapping.pkgOrder = kOrders[order / 2];
        leaf->mapping.chipOrder = kOrders[order % 2];
        leaf->ordinal += static_cast<int64_t>(order);
    }
    return leaf;
}

void
CandidateSpace::appendLeaves(size_t i, CandidateBlock &out) const
{
    const Subtree &st = subtrees_[i];
    for (size_t ih = 0; ih < st.ladderH.size(); ++ih) {
        for (size_t iw = 0; iw < st.ladderW.size(); ++iw) {
            for (size_t ic = 0; ic < st.ladderC.size(); ++ic) {
                std::optional<Leaf> rung = makeRung(i, ih, iw, ic);
                if (!rung)
                    continue;
                Mapping &m = rung->mapping;
                for (int64_t order = 0; order < kOrderPairs; ++order) {
                    m.pkgOrder = kOrders[order / 2];
                    m.chipOrder = kOrders[order % 2];
                    out.push(m, rung->ordinal + order, rung->fullLane);
                }
            }
        }
    }
}

void
enumerateCandidatesInto(const CandidateSpace &space, CandidateBlock &out)
{
    out.clear();
    for (size_t i = 0; i < space.size(); ++i)
        space.appendLeaves(i, out);
    // Prefer candidates that fill the lanes; fall back when the layer
    // is too narrow for any to exist.  keepOnly preserves ascending
    // ordinal order, so the block stays an enumeration-neighbour
    // stream either way.
    if (out.anyFullLane())
        out.keepOnly(true);
}

void
enumerateCandidatesInto(const ConvLayer &layer,
                        const AcceleratorConfig &cfg, SearchEffort effort,
                        CandidateBlock &out)
{
    enumerateCandidatesInto(CandidateSpace(layer, cfg, effort), out);
}

static std::vector<Mapping>
collectFromSpace(const CandidateSpace &space)
{
    CandidateBlock block;
    enumerateCandidatesInto(space, block);
    std::vector<Mapping> out;
    out.reserve(block.size());
    for (size_t i = 0; i < block.size(); ++i)
        out.push_back(block.mapping(i));
    return out;
}

std::vector<Mapping>
enumerateCandidates(const ConvLayer &layer, const AcceleratorConfig &cfg,
                    SearchEffort effort)
{
    return collectFromSpace(CandidateSpace(layer, cfg, effort));
}

std::vector<Mapping>
enumerateCandidatesFor(const ConvLayer &layer,
                       const AcceleratorConfig &cfg, SearchEffort effort,
                       PackagePartition pkg, ChipletPartition chip)
{
    return collectFromSpace(
        CandidateSpace(layer, cfg, effort, pkg, chip));
}

} // namespace nnbaton
