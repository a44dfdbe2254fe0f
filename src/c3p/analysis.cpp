#include "c3p/analysis.hpp"

#include "common/logging.hpp"

namespace nnbaton {

ReuseResult
analyzeBuffer(const LoopNest &nest, Tensor tensor, const ConvLayer &layer,
              int64_t capacity_bytes)
{
    ReuseResult r;
    const size_t nb = nest.loops.size();
    r.intrinsicBytes = footprintBytes(tensor, nest.spanBelow(0), layer);

    // Record critical positions: boundaries above relevant loops,
    // innermost first, with the footprint (critical capacity) enclosed
    // below the *next outer* boundary once the loop is crossed.
    for (size_t i = nb; i-- > 0;) {
        if (isRelevant(tensor, nest.loops[i].dim, layer)) {
            r.criticalPoints.push_back(
                {i, footprintBytes(tensor, nest.spanBelow(i), layer)});
        }
    }

    // Retention scan: outermost boundary whose footprint fits.
    // Footprints are non-decreasing toward boundary 0, so scan from
    // the top down until one fits.
    size_t fit = nb;
    for (size_t b = 0; b <= nb; ++b) {
        if (footprintBytes(tensor, nest.spanBelow(b), layer) <=
            capacity_bytes) {
            fit = b;
            break;
        }
    }
    r.fitBoundary = fit;
    r.footprintAtFit = footprintBytes(tensor, nest.spanBelow(fit), layer);
    r.fillBytes = r.footprintAtFit * nest.tripsAbove(fit);
    return r;
}

void
FootprintLadder::resolveInto(int64_t capacity_bytes, ReuseResult &out) const
{
    out.intrinsicBytes = footprint[0];
    out.criticalPoints = criticalPoints;
    resolveFillInto(capacity_bytes, out);
}

void
buildFootprintLadder(const LoopNest &nest, Tensor tensor,
                     const ConvLayer &layer, FootprintLadder &out)
{
    // One running span, grown outward from the atom; footprint[b] is
    // exactly footprintBytes(spanBelow(b)).  Crossing an irrelevant
    // loop never grows the footprint (footprintBytes() reads none of
    // the dims isRelevant() rejects), so those boundaries carry the
    // inner value over instead of recomputing it.
    const size_t nb = nest.loops.size();
    out.footprint.resize(nb + 1);
    out.tripsAbove.resize(nb + 1);
    out.criticalPoints.clear();
    TileSpan span = nest.atom;
    out.footprint[nb] = footprintBytes(tensor, span, layer);
    for (size_t i = nb; i-- > 0;) {
        const Dim d = nest.loops[i].dim;
        span.at(d) *= nest.loops[i].trips;
        if (isRelevant(tensor, d, layer)) {
            out.footprint[i] = footprintBytes(tensor, span, layer);
            out.criticalPoints.push_back({i, out.footprint[i]});
        } else {
            out.footprint[i] = out.footprint[i + 1];
        }
    }
    // Same left-to-right product as LoopNest::tripsAbove().
    out.tripsAbove[0] = 1;
    for (size_t i = 0; i < nb; ++i)
        out.tripsAbove[i + 1] = out.tripsAbove[i] * nest.loops[i].trips;
}

} // namespace nnbaton
