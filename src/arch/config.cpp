#include "arch/config.hpp"

#include "common/logging.hpp"
#include "common/status.hpp"

namespace nnbaton {

Status
AcceleratorConfig::check() const
{
    if (package.chiplets < 1 || package.chiplets > 8) {
        return errInvalidArgument(
            "chiplet count %d outside the 1-8 ring-NoP range",
            package.chiplets);
    }
    if (chiplet.cores < 1) {
        return errInvalidArgument("core count %d must be positive",
                                  chiplet.cores);
    }
    if (core.lanes < 1 || core.vectorSize < 1) {
        return errInvalidArgument("core shape %dx%d must be positive",
                                  core.lanes, core.vectorSize);
    }
    if (core.al1Bytes <= 0 || core.wl1Bytes <= 0 || core.ol1Bytes <= 0 ||
        chiplet.al2Bytes <= 0) {
        return errInvalidArgument("all buffer sizes must be positive");
    }
    return Status::okStatus();
}

void
AcceleratorConfig::validate() const
{
    throwIfError(check());
}

std::string
AcceleratorConfig::computeId() const
{
    return strprintf("%d-%d-%d-%d", package.chiplets, chiplet.cores,
                     core.lanes, core.vectorSize);
}

std::string
AcceleratorConfig::toString() const
{
    return strprintf(
        "%s: %lld MACs | O-L1 %lldB A-L1 %lldB W-L1 %lldB A-L2 %lldB",
        computeId().c_str(), static_cast<long long>(totalMacs()),
        static_cast<long long>(core.ol1Bytes),
        static_cast<long long>(core.al1Bytes),
        static_cast<long long>(core.wl1Bytes),
        static_cast<long long>(chiplet.al2Bytes));
}

bool
isCapacityVariant(const AcceleratorConfig &a, const AcceleratorConfig &b)
{
    return a.package.chiplets == b.package.chiplets &&
           a.chiplet.cores == b.chiplet.cores &&
           a.core.lanes == b.core.lanes &&
           a.core.vectorSize == b.core.vectorSize &&
           a.core.ol1Bytes == b.core.ol1Bytes &&
           a.core.al1Bytes == b.core.al1Bytes;
}

AcceleratorConfig
caseStudyConfig()
{
    AcceleratorConfig cfg;
    cfg.package.chiplets = 4;
    cfg.chiplet.cores = 8;
    cfg.core.lanes = 8;
    cfg.core.vectorSize = 8;
    cfg.core.ol1Bytes = 1536;
    cfg.core.al1Bytes = 800;
    cfg.core.wl1Bytes = 18 * 1024;
    cfg.chiplet.al2Bytes = 64 * 1024;
    cfg.validate();
    return cfg;
}

} // namespace nnbaton
