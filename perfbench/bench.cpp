/**
 * @file
 * Entry point of the end-to-end benchmark.
 *
 *   perfbench --workload <fig15_sweep|post_zoo|serve_mix> --seed <n>
 *             --seconds <s> --trace <0|1> [--out <dir>]
 *
 * Human-readable lines (every metric by name and unit, checks, span
 * summary) go to stdout; the last stdout line is one JSON object
 * {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
 * metrics are the end-to-end set, with --trace 1 the per-layer set.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace perfbench {

void
report(const std::string &name, double value, const std::string &unit,
       const std::string &note)
{
    std::printf("metric %-32s %18.6f %-6s%s%s\n", name.c_str(), value,
                unit.c_str(), note.empty() ? "" : "  # ", note.c_str());
}

} // namespace perfbench

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<fig15_sweep|post_zoo|serve_mix> --seed <n> --seconds "
                 "<s> --trace <0|1> [--out <dir>]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::atof(v);
        } else if (a == "--trace") {
            o.trace = std::strcmp(v, "0") != 0;
        } else if (a == "--out") {
            o.outDir = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (!have_workload || o.seconds <= 0)
        usage("--workload and a positive --seconds are required");

    std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d "
                "cpus=%d\n",
                o.workload.c_str(), o.seed, o.seconds, o.trace ? 1 : 0,
                cpuCount());
    RunResult r;
    if (o.workload == "fig15_sweep")
        r = runFig15Sweep(o);
    else if (o.workload == "post_zoo")
        r = runPostZoo(o);
    else if (o.workload == "serve_mix")
        r = runServeMix(o);
    else
        usage(("unknown workload " + o.workload).c_str());

    std::string json = "{\"correct\": ";
    json += r.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
