#include "nn/model.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/status.hpp"

namespace nnbaton {

const ConvLayer &
Model::layer(const std::string &layer_name) const
{
    for (const auto &l : layers_) {
        if (l.name == layer_name)
            return l;
    }
    throwStatus(errNotFound("model %s: no layer named %s", name_.c_str(),
                            layer_name.c_str()));
}

void
Model::scaleBatch(int factor)
{
    if (factor <= 0) {
        throwStatus(errInvalidArgument(
            "model %s: non-positive batch factor %d", name_.c_str(),
            factor));
    }
    // Scale and validate a copy, so an overflow (of the batch itself
    // or of a volume it multiplies) leaves the model unscaled instead
    // of half-scaled.
    std::vector<ConvLayer> scaled = layers_;
    for (auto &l : scaled) {
        if (l.batch > std::numeric_limits<int>::max() / factor) {
            throwStatus(errInvalidArgument(
                "model %s: batch %d x %d overflows layer %s",
                name_.c_str(), l.batch, factor, l.name.c_str()));
        }
        l.batch *= factor;
        l.validate();
    }
    layers_ = std::move(scaled);
}

int64_t
Model::totalMacs() const
{
    int64_t total = 0;
    for (const auto &l : layers_)
        total += l.macs();
    return total;
}

int64_t
Model::totalWeights() const
{
    int64_t total = 0;
    for (const auto &l : layers_)
        total += l.weightVolume();
    return total;
}

int64_t
Model::peakActivations() const
{
    int64_t peak = 0;
    for (const auto &l : layers_)
        peak = std::max(peak, l.inputVolume() + l.outputVolume());
    return peak;
}

std::string
Model::toString() const
{
    std::ostringstream ss;
    ss << name_ << " @" << inputResolution_ << "x" << inputResolution_
       << " (" << layers_.size() << " layers)\n";
    for (const auto &l : layers_)
        ss << "  " << l.toString() << "\n";
    return ss.str();
}

RepresentativeLayers
representativeLayers(int resolution)
{
    Model vgg = makeVgg16(resolution);
    Model resnet = makeResNet50(resolution);
    RepresentativeLayers out{
        vgg.layer("conv1"),
        vgg.layer("conv12"),
        resnet.layer("conv1"),
        resnet.layer("res2a_branch2a"),
        resnet.layer("res2a_branch2b"),
    };
    return out;
}

} // namespace nnbaton
