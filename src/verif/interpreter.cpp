#include "verif/interpreter.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/logging.hpp"
#include "common/status.hpp"

namespace nnbaton {

namespace {

/** Per-dimension start offset of the current subtree, in atoms' units. */
struct Offsets
{
    int64_t ho = 0;
    int64_t wo = 0;
    int64_t co = 0;
    int64_t ci = 0;
    int64_t kh = 0;
    int64_t kw = 0;
    int64_t b = 0;

    int64_t &at(Dim d)
    {
        switch (d) {
          case Dim::OH:
            return ho;
          case Dim::OW:
            return wo;
          case Dim::OC:
            return co;
          case Dim::IC:
            return ci;
          case Dim::KH:
            return kh;
          case Dim::KW:
            return kw;
          case Dim::B:
            return b;
        }
        panic("bad Dim");
    }
};

/**
 * Dense linearisation of 4D coordinates into one int64 key, with
 * strides derived from the actual per-dimension extents (transformer
 * layers blow far past any fixed per-field width; seq * d_model alone
 * exceeds 16 bits).  Construction fails with InvalidArgument only when
 * the extent product genuinely overflows 64 bits.
 */
struct Linearizer
{
    int64_t e1 = 1, e2 = 1, e3 = 1;
    bool valid = false;

    static StatusOr<Linearizer>
    make(int64_t e0, int64_t e1, int64_t e2, int64_t e3)
    {
        const int64_t cap = INT64_MAX;
        int64_t product = 1;
        for (int64_t e : {e0, e1, e2, e3}) {
            if (e <= 0)
                e = 1;
            if (product > cap / e) {
                return errInvalidArgument(
                    "referenceFills: coordinate extents "
                    "%lld x %lld x %lld x %lld overflow the 64-bit "
                    "linearisation",
                    static_cast<long long>(e0),
                    static_cast<long long>(e1),
                    static_cast<long long>(e2),
                    static_cast<long long>(e3));
            }
            product *= e;
        }
        Linearizer l;
        l.e1 = std::max<int64_t>(e1, 1);
        l.e2 = std::max<int64_t>(e2, 1);
        l.e3 = std::max<int64_t>(e3, 1);
        l.valid = true;
        return l;
    }

    int64_t key(int64_t a, int64_t b, int64_t c, int64_t d) const
    {
        return ((a * e1 + b) * e2 + c) * e3 + d;
    }
};

/**
 * Enumerate the unique element coordinates of @p tensor touched by the
 * tile [offset, offset + span) and insert them into @p seen; returns
 * the number of newly inserted elements (bytes, 8-bit elements).
 */
int64_t
enumerateTile(Tensor tensor, const Offsets &off, const TileSpan &span,
              const ConvLayer &layer, const Linearizer &lin,
              std::unordered_set<int64_t> &seen)
{
    int64_t added = 0;
    auto touch = [&](int64_t a, int64_t b, int64_t c, int64_t d) {
        if (seen.insert(lin.key(a, b, c, d)).second)
            ++added;
    };

    switch (tensor) {
      case Tensor::Weights:
        // Weight coordinates carry no batch index: a retained subtree
        // spanning several samples dedupes them, matching the
        // batch-irrelevance of the analytical footprint.
        for (int64_t co = off.co; co < off.co + span.co; ++co)
            for (int64_t ci = off.ci; ci < off.ci + span.ci; ++ci)
                for (int64_t kh = off.kh; kh < off.kh + span.kh; ++kh)
                    for (int64_t kw = off.kw; kw < off.kw + span.kw;
                         ++kw)
                        touch(co, ci, kh, kw);
        break;
      case Tensor::Activations: {
        const int s = layer.stride;
        const int64_t kh_span = std::min<int64_t>(span.kh, layer.kh);
        const int64_t kw_span = std::min<int64_t>(span.kw, layer.kw);
        const int64_t row0 = off.ho * s + off.kh;
        const int64_t row1 = (off.ho + span.ho - 1) * s + off.kh +
                             kh_span;
        const int64_t col0 = off.wo * s + off.kw;
        const int64_t col1 = (off.wo + span.wo - 1) * s + off.kw +
                             kw_span;
        // Depthwise layers select input channels through the output
        // channel index (one input channel per output channel); dense
        // layers walk the IC span.
        const int64_t ch0 = layer.isDepthwise() ? off.co : off.ci;
        const int64_t chn = layer.isDepthwise()
                                ? std::min<int64_t>(layer.ci, span.co)
                                : span.ci;
        for (int64_t b = off.b; b < off.b + span.b; ++b)
            for (int64_t ch = ch0; ch < ch0 + chn; ++ch)
                for (int64_t r = row0; r < row1; ++r)
                    for (int64_t c = col0; c < col1; ++c)
                        touch(b, ch, r, c);
        break;
      }
      case Tensor::Outputs:
        for (int64_t b = off.b; b < off.b + span.b; ++b)
            for (int64_t co = off.co; co < off.co + span.co; ++co)
                for (int64_t h = off.ho; h < off.ho + span.ho; ++h)
                    for (int64_t w = off.wo; w < off.wo + span.wo; ++w)
                        touch(b, co, h, w);
        break;
    }
    return added;
}

struct Walker
{
    const LoopNest &nest;
    Tensor tensor;
    const ConvLayer &layer;
    Linearizer lin;
    int64_t capacity;
    const CancelToken *cancel;
    ReferenceResult result;

    void
    visit(size_t level, Offsets off)
    {
        if (cancel && cancel->cancelled())
            throwStatus(cancel->toStatus());
        const TileSpan span = nest.spanBelow(level);
        if (footprintBytes(tensor, span, layer) <= capacity) {
            // Retain this whole subtree: measure its unique touches.
            std::unordered_set<int64_t> seen;
            result.fillBytes +=
                enumerateTile(tensor, off, span, layer, lin, seen);
            result.retainedTiles += 1;
            return;
        }
        if (level == nest.loops.size()) {
            // Even the atom does not fit: every iteration reloads it.
            std::unordered_set<int64_t> seen;
            result.fillBytes +=
                enumerateTile(tensor, off, span, layer, lin, seen);
            result.retainedTiles += 1;
            return;
        }
        const Loop &loop = nest.loops[level];
        const int64_t step = nest.spanBelow(level + 1).at(loop.dim);
        for (int64_t i = 0; i < loop.trips; ++i) {
            Offsets child = off;
            child.at(loop.dim) = off.at(loop.dim) + i * step;
            visit(level + 1, child);
        }
    }
};

/** The per-tensor coordinate extents the dense linearisation packs. */
StatusOr<Linearizer>
makeLinearizer(Tensor tensor, const TileSpan &full, const ConvLayer &layer)
{
    switch (tensor) {
      case Tensor::Weights:
        return Linearizer::make(full.co, full.ci, full.kh, full.kw);
      case Tensor::Activations: {
        // Input rows/cols include the halo of the outermost span.
        const int64_t rows =
            (full.ho - 1) * layer.stride +
            std::min<int64_t>(full.kh, layer.kh);
        const int64_t cols =
            (full.wo - 1) * layer.stride +
            std::min<int64_t>(full.kw, layer.kw);
        // Depthwise layers address channels through the CO index.
        const int64_t channels = std::max(full.ci, full.co);
        return Linearizer::make(full.b, channels, rows, cols);
      }
      case Tensor::Outputs:
        return Linearizer::make(full.b, full.co, full.ho, full.wo);
    }
    panic("bad Tensor");
}

} // namespace

ReferenceResult
referenceFills(const LoopNest &nest, Tensor tensor, const ConvLayer &layer,
               int64_t capacity_bytes, const CancelToken *cancel)
{
    if (capacity_bytes <= 0) {
        throwStatus(errInvalidArgument(
            "referenceFills: capacity must be positive, got %lld bytes",
            static_cast<long long>(capacity_bytes)));
    }
    // Dense strides are derived from the nest's outermost span, so any
    // extents whose product fits in 64 bits linearise exactly; only a
    // genuine overflow is rejected (with the nest in the message).
    const TileSpan full = nest.spanBelow(0);
    StatusOr<Linearizer> lin = makeLinearizer(tensor, full, layer);
    if (!lin.ok()) {
        throwStatus(errInvalidArgument(
            "%s (nest %s)", lin.status().message().c_str(),
            nest.toString().c_str()));
    }
    Walker w{nest, tensor, layer, lin.value(), capacity_bytes, cancel, {}};
    w.visit(0, Offsets{});
    return w.result;
}

} // namespace nnbaton
