#include "serve/protocol.hpp"

#include <cmath>
#include <sstream>

#include "common/json.hpp"

namespace nnbaton {
namespace serve {

namespace {

/** A JSON number that is an exact positive integer within range. */
StatusOr<int64_t>
positiveInt(const std::string &name, const JsonValue &v)
{
    if (!v.isNumber()) {
        return errInvalidArgument("'%s' must be a number",
                                  name.c_str());
    }
    const double d = v.number;
    if (d <= 0 || d != std::floor(d) || d > 9.007199254740992e15) {
        return errInvalidArgument(
            "'%s' must be a positive integer, got %g", name.c_str(), d);
    }
    return static_cast<int64_t>(d);
}

/** A JSON number that is an exact integer >= 0. */
StatusOr<int64_t>
nonNegativeInt(const std::string &name, const JsonValue &v)
{
    if (!v.isNumber()) {
        return errInvalidArgument("'%s' must be a number",
                                  name.c_str());
    }
    const double d = v.number;
    if (d < 0 || d != std::floor(d) || d > 9.007199254740992e15) {
        return errInvalidArgument(
            "'%s' must be a non-negative integer, got %g",
            name.c_str(), d);
    }
    return static_cast<int64_t>(d);
}

StatusOr<int>
positiveInt32(const std::string &name, const JsonValue &v)
{
    StatusOr<int64_t> wide = positiveInt(name, v);
    if (!wide.ok())
        return wide.status();
    if (wide.value() > 0x7fffffff) {
        return errInvalidArgument("'%s' out of int range",
                                  name.c_str());
    }
    return static_cast<int>(wide.value());
}

StatusOr<double>
positiveDouble(const std::string &name, const JsonValue &v)
{
    if (!v.isNumber() || v.number <= 0 || !std::isfinite(v.number)) {
        return errInvalidArgument(
            "'%s' must be a positive finite number", name.c_str());
    }
    return v.number;
}

Status
parseConfig(const JsonValue &v, AcceleratorConfig &cfg)
{
    if (!v.isObject())
        return errInvalidArgument("'config' must be an object");
    for (const auto &[key, value] : v.object) {
        if (key == "chiplets") {
            StatusOr<int> n = positiveInt32(key, value);
            if (!n.ok())
                return n.status();
            cfg.package.chiplets = n.value();
        } else if (key == "cores") {
            StatusOr<int> n = positiveInt32(key, value);
            if (!n.ok())
                return n.status();
            cfg.chiplet.cores = n.value();
        } else if (key == "lanes") {
            StatusOr<int> n = positiveInt32(key, value);
            if (!n.ok())
                return n.status();
            cfg.core.lanes = n.value();
        } else if (key == "vectorSize") {
            StatusOr<int> n = positiveInt32(key, value);
            if (!n.ok())
                return n.status();
            cfg.core.vectorSize = n.value();
        } else if (key == "ol1Bytes") {
            StatusOr<int64_t> n = positiveInt(key, value);
            if (!n.ok())
                return n.status();
            cfg.core.ol1Bytes = n.value();
        } else if (key == "al1Bytes") {
            StatusOr<int64_t> n = positiveInt(key, value);
            if (!n.ok())
                return n.status();
            cfg.core.al1Bytes = n.value();
        } else if (key == "wl1Bytes") {
            StatusOr<int64_t> n = positiveInt(key, value);
            if (!n.ok())
                return n.status();
            cfg.core.wl1Bytes = n.value();
        } else if (key == "al2Bytes") {
            StatusOr<int64_t> n = positiveInt(key, value);
            if (!n.ok())
                return n.status();
            cfg.chiplet.al2Bytes = n.value();
        } else {
            return errInvalidArgument("unknown config member '%s'",
                                      key.c_str());
        }
    }
    return Status::okStatus();
}

Status
parseTech(const JsonValue &v, TechnologyModel &tech)
{
    if (!v.isObject())
        return errInvalidArgument("'tech' must be an object");
    for (const auto &[key, value] : v.object) {
        double *dbl = nullptr;
        int *i32 = nullptr;
        if (key == "dramEnergyPerBit")
            dbl = &tech.dramEnergyPerBit;
        else if (key == "d2dEnergyPerBit")
            dbl = &tech.d2dEnergyPerBit;
        else if (key == "l2EnergyPerBitAt32K")
            dbl = &tech.l2EnergyPerBitAt32K;
        else if (key == "l1EnergyPerBitAt1K")
            dbl = &tech.l1EnergyPerBitAt1K;
        else if (key == "rfEnergyPerBitRmw")
            dbl = &tech.rfEnergyPerBitRmw;
        else if (key == "macEnergyPerOp")
            dbl = &tech.macEnergyPerOp;
        else if (key == "nocEnergyPerBit")
            dbl = &tech.nocEnergyPerBit;
        else if (key == "sramEnergyOffset")
            dbl = &tech.sramEnergyPerBitKb.offset;
        else if (key == "sramEnergySlope")
            dbl = &tech.sramEnergyPerBitKb.slope;
        else if (key == "vectorOpEnergyPerOp")
            dbl = &tech.vectorOpEnergyPerOp;
        else if (key == "frequencyGhz")
            dbl = &tech.frequencyGhz;
        else if (key == "dramBitsPerCycle")
            i32 = &tech.dramBitsPerCycle;
        else if (key == "d2dBitsPerCycle")
            i32 = &tech.d2dBitsPerCycle;
        else if (key == "dataBits")
            i32 = &tech.dataBits;
        else if (key == "psumBits")
            i32 = &tech.psumBits;
        else {
            return errInvalidArgument("unknown tech member '%s'",
                                      key.c_str());
        }
        if (dbl) {
            StatusOr<double> d = positiveDouble(key, value);
            if (!d.ok())
                return d.status();
            *dbl = d.value();
        } else {
            StatusOr<int> n = positiveInt32(key, value);
            if (!n.ok())
                return n.status();
            *i32 = n.value();
        }
    }
    return Status::okStatus();
}

} // namespace

StatusOr<ServeRequest>
parseRequest(const std::string &line)
{
    const JsonParseResult parsed = parseJson(line);
    if (!parsed.ok()) {
        return errInvalidArgument("malformed request: %s at offset %zu",
                                  parsed.error.c_str(),
                                  parsed.errorOffset);
    }
    const JsonValue &root = parsed.value;
    if (!root.isObject())
        return errInvalidArgument("request must be a JSON object");

    ServeRequest req;
    req.config = caseStudyConfig();
    req.tech = defaultTech();

    const JsonValue *op = root.find("op");
    if (!op || !op->isString())
        return errInvalidArgument("request needs a string 'op'");
    if (op->string == "post")
        req.op = Op::Post;
    else if (op->string == "pre")
        req.op = Op::Pre;
    else if (op->string == "sweepUnit")
        req.op = Op::SweepUnit;
    else if (op->string == "stats")
        req.op = Op::Stats;
    else if (op->string == "metrics")
        req.op = Op::Metrics;
    else if (op->string == "flight")
        req.op = Op::Flight;
    else if (op->string == "ping")
        req.op = Op::Ping;
    else if (op->string == "shutdown")
        req.op = Op::Shutdown;
    else {
        return errInvalidArgument(
            "unknown op '%s' (post, pre, sweepUnit, stats, metrics, "
            "flight, ping, shutdown)",
            op->string.c_str());
    }

    bool modelNamed = false;
    for (const auto &[key, value] : root.object) {
        if (key == "op") {
            continue;
        } else if (key == "model") {
            if (!value.isString())
                return errInvalidArgument("'model' must be a string");
            req.model = value.string;
            modelNamed = true;
        } else if (key == "modelText") {
            if (!value.isString()) {
                return errInvalidArgument(
                    "'modelText' must be a string");
            }
            req.modelText = value.string;
        } else if (key == "resolution") {
            StatusOr<int> n = positiveInt32(key, value);
            if (!n.ok())
                return n.status();
            req.resolution = n.value();
        } else if (key == "batch") {
            StatusOr<int> n = positiveInt32(key, value);
            if (!n.ok())
                return n.status();
            req.batch = n.value();
        } else if (key == "config") {
            Status s = parseConfig(value, req.config);
            if (!s.ok())
                return s;
        } else if (key == "tech") {
            Status s = parseTech(value, req.tech);
            if (!s.ok())
                return s;
        } else if (key == "objective") {
            if (!value.isString() || (value.string != "energy" &&
                                      value.string != "edp")) {
                return errInvalidArgument(
                    "'objective' must be \"energy\" or \"edp\"");
            }
            req.edpObjective = value.string == "edp";
        } else if (key == "search") {
            // Exhaustive search is the only mapping search; the member
            // stays accepted so existing clients keep working.
            if (!value.isString()) {
                return errInvalidArgument(
                    "'search' must be a string");
            }
            if (value.string != "exhaustive") {
                return errInvalidArgument(
                    "'search' mode '%s' is not available (the other "
                    "search modes were removed); \"exhaustive\" is the "
                    "only mode",
                    value.string.c_str());
            }
        } else if (key == "deadlineSeconds") {
            StatusOr<double> d = positiveDouble(key, value);
            if (!d.ok())
                return d.status();
            req.deadlineSeconds = d.value();
        } else if (key == "progressSeconds") {
            StatusOr<double> d = positiveDouble(key, value);
            if (!d.ok())
                return d.status();
            req.progressSeconds = d.value();
        } else if (key == "macs") {
            StatusOr<int64_t> n = positiveInt(key, value);
            if (!n.ok())
                return n.status();
            req.macs = n.value();
        } else if (key == "areaMm2") {
            StatusOr<double> d = positiveDouble(key, value);
            if (!d.ok())
                return d.status();
            req.areaMm2 = d.value();
        } else if (key == "proportional") {
            if (!value.isBool()) {
                return errInvalidArgument(
                    "'proportional' must be a boolean");
            }
            req.proportional = value.boolean;
        } else if (key == "unitId") {
            StatusOr<int64_t> n = nonNegativeInt(key, value);
            if (!n.ok())
                return n.status();
            req.unitId = n.value();
        } else if (key == "begin") {
            StatusOr<int64_t> n = nonNegativeInt(key, value);
            if (!n.ok())
                return n.status();
            req.unitBegin = n.value();
        } else if (key == "end") {
            StatusOr<int64_t> n = positiveInt(key, value);
            if (!n.ok())
                return n.status();
            req.unitEnd = n.value();
        } else if (key == "fingerprint") {
            if (!value.isString()) {
                return errInvalidArgument(
                    "'fingerprint' must be a string");
            }
            req.sweepFp = value.string;
        } else if (key == "techFingerprint") {
            if (!value.isString()) {
                return errInvalidArgument(
                    "'techFingerprint' must be a string");
            }
            req.techFp = value.string;
        } else {
            return errInvalidArgument("unknown request member '%s'",
                                      key.c_str());
        }
    }
    if (modelNamed && !req.modelText.empty()) {
        return errInvalidArgument(
            "'model' and 'modelText' are mutually exclusive");
    }
    if (req.op == Op::SweepUnit) {
        if (req.unitId < 0 || req.unitEnd <= req.unitBegin) {
            return errInvalidArgument(
                "sweepUnit needs unitId >= 0 and end > begin");
        }
        if (req.sweepFp.empty() || req.techFp.empty()) {
            return errInvalidArgument(
                "sweepUnit needs 'fingerprint' and 'techFingerprint'");
        }
    }
    return req;
}

const char *
toString(Op op)
{
    switch (op) {
      case Op::Post:
        return "post";
      case Op::Pre:
        return "pre";
      case Op::SweepUnit:
        return "sweepUnit";
      case Op::Stats:
        return "stats";
      case Op::Metrics:
        return "metrics";
      case Op::Flight:
        return "flight";
      case Op::Ping:
        return "ping";
      case Op::Shutdown:
        return "shutdown";
    }
    return "?";
}

bool
isRetryableCode(StatusCode code)
{
    // Transient conditions: the operation may succeed on another
    // worker or after backoff.  Everything else (bad request, wrong
    // fingerprint, internal bug) would fail identically on retry.
    return code == StatusCode::Unavailable ||
           code == StatusCode::Cancelled ||
           code == StatusCode::DeadlineExceeded;
}

std::string
errorResponse(const Status &status, uint64_t rid)
{
    std::ostringstream ss;
    JsonWriter j(ss);
    j.beginObject();
    j.field("ok", false);
    if (rid)
        j.field("rid", static_cast<int64_t>(rid));
    j.field("retryable", isRetryableCode(status.code()));
    j.key("error").beginObject();
    j.field("code", nnbaton::toString(status.code()));
    j.field("message", status.message());
    j.endObject();
    j.endObject();
    return ss.str();
}

} // namespace serve
} // namespace nnbaton
