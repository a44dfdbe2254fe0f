#include "nn/layer.hpp"

#include <initializer_list>
#include <limits>

#include "common/logging.hpp"
#include "common/status.hpp"

namespace nnbaton {

namespace {

/** True when the product of @p factors fits in int64_t. */
bool
productFits(std::initializer_list<int64_t> factors)
{
    int64_t product = 1;
    for (const int64_t f : factors) {
        if (__builtin_mul_overflow(product, f, &product))
            return false;
    }
    return true;
}

} // namespace

LayerKind
ConvLayer::kind() const
{
    if (kh >= 5 || kw >= 5)
        return LayerKind::LargeKernel;
    if (isPointWise())
        return LayerKind::PointWise;
    int64_t acts = static_cast<int64_t>(hi()) * wi() * ci;
    int64_t wts = weightVolume();
    // A layer is "common" when neither tensor dominates strongly; the
    // asymmetric thresholds follow the paper's examples (res2a_
    // branch2b with ~6x more activations than weights is "common").
    if (acts > 8 * wts)
        return LayerKind::ActivationIntensive;
    if (wts > 4 * acts)
        return LayerKind::WeightIntensive;
    return LayerKind::Common;
}

void
ConvLayer::validate() const
{
    if (ho <= 0 || wo <= 0 || co <= 0 || ci <= 0) {
        throwStatus(errInvalidArgument(
            "layer %s: non-positive extent (ho=%d wo=%d co=%d ci=%d)",
            name.c_str(), ho, wo, co, ci));
    }
    if (kh <= 0 || kw <= 0 || stride <= 0) {
        throwStatus(errInvalidArgument(
            "layer %s: non-positive kernel/stride (kh=%d kw=%d s=%d)",
            name.c_str(), kh, kw, stride));
    }
    if (batch <= 0) {
        throwStatus(errInvalidArgument(
            "layer %s: non-positive batch %d", name.c_str(), batch));
    }
    if (postOps < 0) {
        throwStatus(errInvalidArgument(
            "layer %s: negative postOps %d", name.c_str(), postOps));
    }
    if (groups != 1 && !(groups == ci && groups == co)) {
        throwStatus(errInvalidArgument(
            "layer %s: only dense (groups=1) and depthwise "
            "(groups=ci=co) convolutions are supported, got "
            "groups=%d ci=%d co=%d",
            name.c_str(), groups, ci, co));
    }
    // Every extent is positive from here on, so the checks below only
    // need to catch overflow: the input-cube edges are ints, and the
    // tensor volumes, MACs and vector passes are int64 products that
    // every later stage builds on.
    constexpr int64_t kIntMax = std::numeric_limits<int>::max();
    const int64_t hi64 = static_cast<int64_t>(ho - 1) * stride + kh;
    const int64_t wi64 = static_cast<int64_t>(wo - 1) * stride + kw;
    if (hi64 > kIntMax || wi64 > kIntMax) {
        throwStatus(errInvalidArgument(
            "layer %s: input extent %lld x %lld overflows int "
            "(ho=%d wo=%d k=%dx%d s=%d)",
            name.c_str(), static_cast<long long>(hi64),
            static_cast<long long>(wi64), ho, wo, kh, kw, stride));
    }
    const auto require = [&](const char *what,
                             std::initializer_list<int64_t> factors) {
        if (!productFits(factors)) {
            throwStatus(errInvalidArgument(
                "layer %s: %s overflows int64 (batch=%d ho=%d wo=%d "
                "co=%d ci=%d k=%dx%d)",
                name.c_str(), what, batch, ho, wo, co, ci, kh, kw));
        }
    };
    const int64_t cpg = ciPerGroup();
    require("MAC count", {batch, ho, wo, co, cpg, kh, kw});
    require("input volume", {batch, hi64, wi64, ci});
    require("weight volume", {kh, kw, cpg, co});
    require("output volume", {batch, ho, wo, co});
    require("vector-op count", {batch, ho, wo, co, postOps});
    if (op == LayerOp::Gemm) {
        if (static_cast<int64_t>(ho) * wo != gemmM || gemmN != co ||
            gemmK != ci || kh != 1 || kw != 1 || stride != 1 ||
            groups != 1) {
            throwStatus(errInvalidArgument(
                "layer %s: inconsistent GEMM lowering "
                "(M=%d N=%d K=%d vs ho=%d wo=%d co=%d ci=%d)",
                name.c_str(), gemmM, gemmN, gemmK, ho, wo, co, ci));
        }
    }
}

std::string
ConvLayer::toString() const
{
    if (op == LayerOp::Gemm) {
        return strprintf("%s: gemm %dx%dx%d (plane %dx%d), batch %d%s",
                         name.c_str(), gemmM, gemmN, gemmK, ho, wo,
                         batch,
                         postOps > 0
                             ? strprintf(", postops %d", postOps).c_str()
                             : "");
    }
    return strprintf("%s: out %dx%dx%d, ci %d, k %dx%d, s %d%s%s%s",
                     name.c_str(), ho, wo, co, ci, kh, kw, stride,
                     isDepthwise() ? ", depthwise" : "",
                     batch > 1 ? strprintf(", batch %d", batch).c_str()
                               : "",
                     postOps > 0
                         ? strprintf(", postops %d", postOps).c_str()
                         : "");
}

ConvLayer
makeConv(std::string name, int ho, int wo, int co, int ci, int kh, int kw,
         int stride)
{
    ConvLayer l;
    l.name = std::move(name);
    l.ho = ho;
    l.wo = wo;
    l.co = co;
    l.ci = ci;
    l.kh = kh;
    l.kw = kw;
    l.stride = stride;
    l.validate();
    return l;
}

ConvLayer
makeDepthwiseConv(std::string name, int ho, int wo, int channels, int k,
                  int stride)
{
    return makeDepthwiseConv(std::move(name), ho, wo, channels, k, k,
                             stride);
}

ConvLayer
makeDepthwiseConv(std::string name, int ho, int wo, int channels,
                  int kh, int kw, int stride)
{
    ConvLayer l;
    l.name = std::move(name);
    l.ho = ho;
    l.wo = wo;
    l.co = channels;
    l.ci = channels;
    l.kh = kh;
    l.kw = kw;
    l.stride = stride;
    l.groups = channels;
    l.validate();
    return l;
}

ConvLayer
makeFullyConnected(std::string name, int out_features, int in_features)
{
    return makeConv(std::move(name), 1, 1, out_features, in_features, 1, 1,
                    1);
}

ConvLayer
makeGemm(std::string name, int m, int n, int k, int batch, int post_ops)
{
    if (m <= 0) {
        throwStatus(errInvalidArgument(
            "layer %s: non-positive GEMM M %d", name.c_str(), m));
    }
    // Most balanced exact factorisation: the largest divisor of M not
    // above sqrt(M) becomes ho (1 x M for prime M).  Exactness keeps
    // the lowered cube's MAC and output counts identical to the native
    // M x N x K workload.
    int ho = 1;
    for (int d = 1; static_cast<int64_t>(d) * d <= m; ++d) {
        if (m % d == 0)
            ho = d;
    }
    ConvLayer l;
    l.name = std::move(name);
    l.ho = ho;
    l.wo = m / ho;
    l.co = n;
    l.ci = k;
    l.kh = 1;
    l.kw = 1;
    l.stride = 1;
    l.batch = batch;
    l.op = LayerOp::Gemm;
    l.gemmM = m;
    l.gemmN = n;
    l.gemmK = k;
    l.postOps = post_ops;
    l.validate();
    return l;
}

} // namespace nnbaton
