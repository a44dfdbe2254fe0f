/**
 * @file
 * The three benchmark workloads (fig15_sweep, post_zoo, serve_mix),
 * their output checks, and the traced stage replay.
 *
 * Everything here calls the library's public entry points only:
 * explore / enumerateSweepTasks / evaluateSweepPoint, PostDesignFlow,
 * exportPostDesign / exportPreDesign, EvalService::handleLine,
 * searchLayer / enumerateCandidatesInto / scoreLowerBound and the
 * MappingCache accessors, analyzeMapping, computeEnergy and
 * estimateRuntime.  Spans sit around those calls and nowhere else.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>

#include "arch/area.hpp"
#include "baton/baton.hpp"
#include "baton/export.hpp"
#include "c3p/access.hpp"
#include "cost/energy.hpp"
#include "dse/explorer.hpp"
#include "dse/slice.hpp"
#include "dse/space.hpp"
#include "mapper/bound.hpp"
#include "mapper/cache.hpp"
#include "mapper/candidates.hpp"
#include "mapper/search.hpp"
#include "nn/model.hpp"
#include "serve/service.hpp"
#include "sim/runtime.hpp"
#include "tech/technology.hpp"

#include "bench.hpp"

namespace perfbench {

using namespace nnbaton;

namespace {

// ------------------------------------------------------------------ zoo

struct ZooEntry
{
    const char *name; //!< CLI / wire model name
    int resolution;
};

/** The post_zoo / serve_mix model zoo, in report order. */
constexpr ZooEntry kZoo[] = {
    {"vgg16", 224},    {"vgg16", 512},     {"resnet50", 224},
    {"resnet50", 512}, {"darknet19", 224}, {"darknet19", 512},
    {"alexnet", 224},  {"mobilenetv2", 224}, {"bert_base", 224},
    {"vit_b16", 224},
};
constexpr size_t kZooSize = sizeof kZoo / sizeof kZoo[0];
constexpr size_t kDarkNet224 = 4; //!< the fig15 model

/**
 * FNV-1a digests of each zoo model's lean post-design JSON on the
 * case-study configuration (Exhaustive effort, MinEnergy), i.e. the
 * bytes `nn-baton post --model <m> --resolution <r> --json <f>
 * --no-obs` writes.
 */
constexpr const char *kZooDigest[kZooSize] = {
    "2d88927eab3fdaa7", "c3244a67476b90db", "f171bb08ab453fc2",
    "0b5f1c182f902ff3", "daa2dc61a9626fb7", "5b5f3c13452ec589",
    "7b081c6460105391", "a0f5f7ed7fb29544", "1823721a37bfc8cd",
    "aff2e024dec7131f",
};

/** Build one zoo model under an `nn.build` span. */
Model
buildModel(const ZooEntry &e, uint64_t group)
{
    Span span("nn.build", group);
    const std::string n = e.name;
    const int r = e.resolution;
    if (n == "vgg16")
        return makeVgg16(r);
    if (n == "resnet50")
        return makeResNet50(r);
    if (n == "darknet19")
        return makeDarkNet19(r);
    if (n == "alexnet")
        return makeAlexNet(r);
    if (n == "mobilenetv2")
        return makeMobileNetV2(r);
    if (n == "bert_base")
        return makeBertBase(r);
    return makeVitB16(r);
}

std::string
zooLabel(const ZooEntry &e)
{
    return std::string(e.name) + "@" + std::to_string(e.resolution);
}

std::string
leanPost(const PostDesignReport &report)
{
    std::ostringstream ss;
    exportPostDesign(report, ss, ExportOptions::lean());
    return ss.str();
}

std::string
leanPre(const PreDesignReport &report)
{
    std::ostringstream ss;
    exportPreDesign(report, ss, ExportOptions::lean());
    return ss.str();
}

/** What the serve daemon sends for a document: no trailing newline. */
std::string
wireForm(std::string s)
{
    while (!s.empty() && s.back() == '\n')
        s.pop_back();
    return s;
}

/** Run fn(i) for i in [0, n) on @p threads lanes (dynamic claims). */
void
parallelFor(int threads, size_t n, const std::function<void(size_t)> &fn)
{
    std::atomic<size_t> next{0};
    auto lane = [&] {
        for (size_t i; (i = next.fetch_add(1)) < n;)
            fn(i);
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < threads; ++t)
        pool.emplace_back(lane);
    lane();
    for (std::thread &t : pool)
        t.join();
}

/** Each layer shape once, first name kept (what mapModel searches). */
std::vector<const ConvLayer *>
uniqueLayers(const Model &model)
{
    std::set<std::tuple<int, int, int, int, int, int, int, int, int, int>>
        seen;
    std::vector<const ConvLayer *> out;
    for (const ConvLayer &l : model.layers()) {
        if (seen.insert({l.ho, l.wo, l.co, l.ci, l.kh, l.kw, l.stride,
                         l.groups, l.batch, l.postOps})
                .second)
            out.push_back(&l);
    }
    return out;
}

// -------------------------------------------------------- per-layer table

/**
 * Every per-layer metric a traced run reports, in output order.  A
 * metric a workload does not exercise reads 0 (nothing was counted).
 */
const std::vector<std::pair<const char *, const char *>> kLayerMetrics = {
    {"nn.build_us", "us"},
    {"dse.points", "count"},
    {"dse.area_rejected", "count"},
    {"dse.point_us_p50", "us"},
    {"dse.point_us_p99", "us"},
    {"dse.sweep_s", "s"},
    {"program.evaluated", "count"},
    {"program.pruned", "count"},
    {"program.cache_hits", "count"},
    {"program.cache_misses", "count"},
    {"mapper.cache.hits", "count"},
    {"mapper.cache.misses", "count"},
    {"mapper.cache.hit_ratio", "ratio"},
    {"mapper.cache.evictions", "count"},
    {"mapper.cache.entries", "count"},
    {"replay.population", "count"},
    {"replay.sample_fraction", "ratio"},
    {"replay.self_us", "us"},
    {"mapper.search.calls", "count"},
    {"mapper.search.us", "us"},
    {"mapper.search.evaluated", "count"},
    {"mapper.search.pruned", "count"},
    {"mapper.prune_ratio", "ratio"},
    {"mapper.replay.evaluated", "count"},
    {"mapper.replay.pruned", "count"},
    {"mapper.replay.prune_ratio", "ratio"},
    {"mapper.replay.winner_mismatches", "count"},
    {"mapper.enumerate.candidates", "count"},
    {"mapper.enumerate.us", "us"},
    {"mapper.bound.calls", "count"},
    {"mapper.bound.us", "us"},
    {"c3p.analyze.calls", "count"},
    {"c3p.analyze.us", "us"},
    {"cost.energy.us", "us"},
    {"sim.runtime.us", "us"},
    {"baton.post.calls", "count"},
    {"baton.post.us", "us"},
    {"baton.export.calls", "count"},
    {"baton.export.us", "us"},
    {"baton.export.bytes", "bytes"},
    {"serve.requests", "count"},
    {"serve.refused", "count"},
    {"serve.errors", "count"},
    {"serve.handle_us.post_p50", "us"},
    {"serve.handle_us.post_tail", "us"},
    {"serve.handle_us.pre_p50", "us"},
    {"serve.handle_us.pre_tail", "us"},
    {"trace.spans", "count"},
    {"trace.untraced_wall_s", "s"},
    {"trace.traced_wall_s", "s"},
    {"trace.overhead_s", "s"},
    {"trace.overhead_ratio", "ratio"},
};

using LayerValues = std::map<std::string, double>;

void
setCache(LayerValues &v, int64_t hits, int64_t misses, int64_t evictions,
         int64_t entries)
{
    v["mapper.cache.hits"] = static_cast<double>(hits);
    v["mapper.cache.misses"] = static_cast<double>(misses);
    v["mapper.cache.hit_ratio"] =
        hits + misses ? static_cast<double>(hits) /
                            static_cast<double>(hits + misses)
                      : 0.0;
    v["mapper.cache.evictions"] = static_cast<double>(evictions);
    v["mapper.cache.entries"] = static_cast<double>(entries);
}

void
setProgram(LayerValues &v, const SearchStats &s)
{
    v["program.evaluated"] = static_cast<double>(s.evaluated);
    v["program.pruned"] = static_cast<double>(s.pruned);
    v["program.cache_hits"] = static_cast<double>(s.cacheHits);
    v["program.cache_misses"] = static_cast<double>(s.cacheMisses);
}

void
setOverhead(LayerValues &v, double untraced_s, double traced_s)
{
    v["trace.untraced_wall_s"] = untraced_s;
    v["trace.traced_wall_s"] = traced_s;
    v["trace.overhead_s"] = traced_s - untraced_s;
    v["trace.overhead_ratio"] =
        untraced_s > 0 ? (traced_s - untraced_s) / untraced_s : 0.0;
    report("trace.overhead_s", traced_s - untraced_s, "s",
           "traced " + std::to_string(traced_s) + " s minus untraced " +
               std::to_string(untraced_s) + " s");
}

/**
 * Fold the span summary into the per-layer values, write the span
 * files, and emit every per-layer metric into @p r.
 */
void
finishTrace(const Options &o, LayerValues &v, RunResult &r)
{
    const std::vector<SpanRecord> spans = Tracer::collect();
    const std::vector<SpanSummary> summary = Tracer::summarize(spans);
    auto find = [&](const char *name) -> const SpanSummary * {
        for (const SpanSummary &s : summary) {
            if (s.name == name)
                return &s;
        }
        return nullptr;
    };
    auto total = [&](const char *name) {
        const SpanSummary *s = find(name);
        return s ? s->totalUs : 0.0;
    };
    auto count = [&](const char *name) {
        const SpanSummary *s = find(name);
        return s ? static_cast<double>(s->count) : 0.0;
    };
    v["nn.build_us"] = total("nn.build");
    if (const SpanSummary *s = find("dse.point")) {
        v["dse.point_us_p50"] = s->p50Us;
        v["dse.point_us_p99"] = s->p99Us;
    }
    v["mapper.search.us"] = total("mapper.search");
    v["mapper.enumerate.us"] = total("mapper.enumerate");
    if (const SpanSummary *s = find("replay.search"))
        v["replay.self_us"] = s->selfUs;
    v["baton.post.calls"] = count("baton.post");
    v["baton.post.us"] = total("baton.post");
    v["baton.export.calls"] = count("baton.export");
    v["baton.export.us"] = total("baton.export");
    v["trace.spans"] = static_cast<double>(spans.size());

    std::filesystem::create_directories(o.outDir);
    const std::string stem = o.outDir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed);
    Tracer::writeFiles(stem, spans, summary);
    std::printf("spans: %zu written to %s.spans.tsv (self time per span "
                "name in %s.summary.tsv)\n",
                spans.size(), stem.c_str(), stem.c_str());
    for (const SpanSummary &s : summary) {
        std::printf("  span %-20s count %9lld total %14.1f us self "
                    "%14.1f us p50 %10.1f us p99 %10.1f us\n",
                    s.name.c_str(), static_cast<long long>(s.count),
                    s.totalUs, s.selfUs, s.p50Us, s.p99Us);
    }

    for (const auto &[name, unit] : kLayerMetrics) {
        const double value = v.count(name) ? v[name] : 0.0;
        report(name, value, unit);
        r.add(name, value, unit);
    }
}

// ---------------------------------------------------------- stage replay

/** One layer search to replay: the same arguments the program used. */
struct SearchItem
{
    const ConvLayer *layer = nullptr;
    AcceleratorConfig cfg;
    SearchEffort effort = SearchEffort::Exhaustive;
    Objective objective = Objective::MinEnergy;
    uint64_t group = 0; //!< design point / model / request id
    size_t model = 0;   //!< index into kZoo
};

std::string
mappingText(const Mapping &m)
{
    std::ostringstream ss;
    exportMapping(m, ss);
    return ss.str();
}

/**
 * Replay @p items serially.  Each item runs searchLayer() (the
 * program's own search and SearchStats), then re-walks the same
 * candidates through the public stage functions with a live
 * incumbent: enumerateCandidatesInto, scoreLowerBound, and for each
 * survivor analyzeMapping + computeEnergy + estimateRuntime.  The
 * stage times therefore describe the checked public path, not the
 * incremental evaluator inside searchLayer.  The replay's winner must
 * equal searchLayer's; a mismatch fails the run.
 */
void
replaySearches(const std::vector<SearchItem> &items,
               const TechnologyModel &tech, LayerValues &v,
               RunResult &r)
{
    std::map<std::pair<size_t, std::string>, double> layer_us;
    constexpr double kMargin = 1.0 + 1e-9; // float slack, as the search
    SearchStats program;
    int64_t replay_eval = 0, replay_pruned = 0, candidates = 0;
    int64_t mismatches = 0;
    enum { kBound, kAnalyze, kEnergy, kRuntime };
    int64_t stage[4] = {}; // ns per stage, summed over the sample
    CandidateBlock block;
    for (const SearchItem &it : items) {
        Span top("replay.search", it.group);
        const ConvLayer &layer = *it.layer;
        std::optional<MappingChoice> best;
        {
            const int64_t t0 = nowNs();
            Span s("mapper.search", it.group);
            best = searchLayer(layer, it.cfg, tech, it.effort,
                               it.objective, SearchOptions{}, &program);
            layer_us[{it.model, layer.name}] +=
                static_cast<double>(nowNs() - t0) * 1e-3;
        }
        {
            Span s("mapper.enumerate", it.group);
            enumerateCandidatesInto(layer, it.cfg, it.effort, block);
        }
        candidates += static_cast<int64_t>(block.size());

        // Per-candidate stage calls are timed counters at the same
        // boundaries, not spans: a span each would mean millions of
        // records per run.  Their sum sits inside one replay.stages
        // span per search.
        double best_score = std::numeric_limits<double>::max();
        std::optional<size_t> best_i;
        Span stages("replay.stages", it.group);
        for (size_t i = 0; i < block.size(); ++i) {
            const Mapping &m = block.mapping(i);
            int64_t t0 = nowNs();
            const double bound =
                scoreLowerBound(layer, it.cfg, tech, m, it.objective);
            int64_t t1 = nowNs();
            stage[kBound] += t1 - t0;
            if (best_i && bound >= best_score * kMargin) {
                ++replay_pruned;
                continue;
            }
            const AccessAnalysis a = analyzeMapping(layer, it.cfg, m);
            t0 = nowNs();
            stage[kAnalyze] += t0 - t1;
            const EnergyBreakdown e = computeEnergy(a.counts, it.cfg, tech);
            t1 = nowNs();
            stage[kEnergy] += t1 - t0;
            const RuntimeResult rt = estimateRuntime(layer, it.cfg, a, tech);
            stage[kRuntime] += nowNs() - t1;
            ++replay_eval;
            const double score =
                it.objective == Objective::MinEnergy
                    ? e.total()
                    : e.total() * static_cast<double>(rt.cycles);
            if (!best_i || score < best_score) {
                best_score = score;
                best_i = i;
            }
        }

        const bool same =
            best.has_value() == best_i.has_value() &&
            (!best ||
             mappingText(best->mapping) ==
                 mappingText(block.mapping(*best_i)));
        if (!same) {
            ++mismatches;
            std::printf("MISMATCH replay winner differs from searchLayer "
                        "on layer %s (group %llu)\n",
                        layer.name.c_str(),
                        static_cast<unsigned long long>(it.group));
        }
    }
    ++r.attempted;
    if (mismatches)
        ++r.failed;

    v["mapper.search.calls"] = static_cast<double>(items.size());
    v["mapper.search.evaluated"] = static_cast<double>(program.evaluated);
    v["mapper.search.pruned"] = static_cast<double>(program.pruned);
    v["mapper.prune_ratio"] =
        program.evaluated + program.pruned
            ? static_cast<double>(program.pruned) /
                  static_cast<double>(program.evaluated + program.pruned)
            : 0.0;
    v["mapper.replay.evaluated"] = static_cast<double>(replay_eval);
    v["mapper.replay.pruned"] = static_cast<double>(replay_pruned);
    v["mapper.replay.prune_ratio"] =
        replay_eval + replay_pruned
            ? static_cast<double>(replay_pruned) /
                  static_cast<double>(replay_eval + replay_pruned)
            : 0.0;
    v["mapper.replay.winner_mismatches"] = static_cast<double>(mismatches);
    v["mapper.enumerate.candidates"] = static_cast<double>(candidates);
    v["mapper.bound.calls"] = static_cast<double>(candidates);
    v["mapper.bound.us"] = static_cast<double>(stage[kBound]) * 1e-3;
    v["c3p.analyze.calls"] = static_cast<double>(replay_eval);
    v["c3p.analyze.us"] = static_cast<double>(stage[kAnalyze]) * 1e-3;
    v["cost.energy.us"] = static_cast<double>(stage[kEnergy]) * 1e-3;
    v["sim.runtime.us"] = static_cast<double>(stage[kRuntime]) * 1e-3;
    std::printf("replay: %zu searches; program SearchStats evaluated %lld "
                "pruned %lld | replay (live incumbent) evaluated %lld "
                "pruned %lld of %lld candidates | winner mismatches %lld\n",
                items.size(), static_cast<long long>(program.evaluated),
                static_cast<long long>(program.pruned),
                static_cast<long long>(replay_eval),
                static_cast<long long>(replay_pruned),
                static_cast<long long>(candidates),
                static_cast<long long>(mismatches));
    // Top DNN layers by share of (serial) searchLayer time, per model
    // in the sample.
    for (size_t m = 0; m < kZooSize; ++m) {
        std::vector<std::pair<double, std::string>> rows;
        double sum = 0.0;
        for (const auto &[key, us] : layer_us) {
            if (key.first == m) {
                rows.emplace_back(us, key.second);
                sum += us;
            }
        }
        if (rows.empty())
            continue;
        std::sort(rows.rbegin(), rows.rend());
        std::printf("top layers by search time, %s (%.0f us over %zu "
                    "unique layers):",
                    zooLabel(kZoo[m]).c_str(), sum, rows.size());
        for (size_t i = 0; i < std::min<size_t>(3, rows.size()); ++i)
            std::printf(" %s %.1f%%", rows[i].second.c_str(),
                        100.0 * rows[i].first / sum);
        std::printf("\n");
    }
    std::printf("replay: stage times come from the benchmark calling the "
                "public stage functions (full analyzeMapping per "
                "survivor), not from the incremental evaluator inside "
                "searchLayer\n");
}

/** Median of @p reps set-up runs of @p fn, in seconds. */
double
timedSetup(int reps, const std::function<void()> &fn)
{
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        const double t0 = nowSeconds();
        fn();
        t.push_back(nowSeconds() - t0);
    }
    return median(t);
}

constexpr int kSetupReps = 5;

void
reportCommon(RunResult &r, double setup_s, double peak_mb)
{
    report("setup_s", setup_s, "s",
           "median of " + std::to_string(kSetupReps) + " set-ups");
    report("peak_rss_mb", peak_mb, "MB",
           "at the end of the timed phase; printed, not gated");
    const double ratio =
        r.attempted ? static_cast<double>(r.failed) /
                          static_cast<double>(r.attempted)
                    : 0.0;
    report("failed_ratio", ratio, "ratio",
           std::to_string(r.failed) + " failed of " +
               std::to_string(r.attempted) + " attempted");
    r.add("setup_s", setup_s, "s");
}

void
reportOps(RunResult &r, double latency_s, size_t ops, double cpu_per_op_s,
          const char *op_name, const std::vector<double> &tail_wall_s,
          const char *tail_name, double ops_per_s)
{
    const Tail tail = tailOf(tail_wall_s);
    const double p50_ms = latency_s * 1e3;
    report("latency_ms", p50_ms, "ms",
           std::string("median wall time of one ") + op_name +
               ", n=" + std::to_string(ops));
    char pct[96];
    std::snprintf(pct, sizeof pct, "%s, p%g of %zu", tail_name,
                  tail.percentile, tail_wall_s.size());
    report("tail_ms", tail.value * 1e3, "ms",
           std::string(pct) + (tail.percentile >= 100.0
                                   ? " (the slowest; 10 or fewer samples)"
                                   : " (exactly 10 samples beyond it)"));
    report("cpu_ms", cpu_per_op_s * 1e3, "ms",
           std::string("process CPU per ") + op_name);
    report("ops_per_s", ops_per_s, "1/s",
           std::string("completed per second, one ") + op_name + " each");
    r.add("latency_ms", p50_ms, "ms");
    r.add("tail_ms", tail.value * 1e3, "ms");
    r.add("cpu_ms", cpu_per_op_s * 1e3, "ms");
    r.add("ops_per_s", ops_per_s, "1/s");
}

} // namespace

// ============================================================ fig15_sweep

namespace {

/** The recommended design of the paper's Fig. 15 DarkNet-19 sweep. */
constexpr const char *kFig15Winner =
    "2-16-16-8 | O-L1 96B A-L1 8K W-L1 6K A-L2 96K |";
constexpr int64_t kFig15Swept = 45000;
constexpr int64_t kFig15Valid = 36545;
/** Bits of the winner's edp() and the digest of the lean pre JSON
 *  (`nn-baton pre --model darknet19 --macs 4096 --area 3 --edp
 *  --json <f> --no-obs`). */
constexpr uint64_t kFig15EdpBits = 0x4328fed79c296219ull;
constexpr const char *kFig15Digest = "f6fa55e55e6210cf";

DseOptions
fig15Options(int threads)
{
    DseOptions opt;
    opt.totalMacs = 4096;
    opt.areaLimitMm2 = 3.0;
    opt.effort = SearchEffort::Sketch; // the CLI's pre effort
    opt.objective = Objective::MinEdp;
    opt.threads = threads;
    return opt;
}

double
edpMjMs(const DesignPoint &p)
{
    return p.cost.energyMj() * p.runtimeMs();
}

/** Check one sweep against the pins; prints what differs. */
bool
checkFig15(const DseResult &res, const std::string &lean_json)
{
    bool ok = res.complete && res.poisoned.empty() &&
              res.swept == kFig15Swept &&
              static_cast<int64_t>(res.points.size()) == kFig15Valid;
    std::string winner = "(none)";
    uint64_t bits = 0;
    if (auto best = res.bestEdp()) {
        winner = res.points[*best].toString();
        const double edp = res.points[*best].edp();
        std::memcpy(&bits, &edp, sizeof bits);
    }
    ok = ok && winner.rfind(kFig15Winner, 0) == 0 && bits == kFig15EdpBits;
    const std::string digest = hex64(fnv1a(lean_json));
    ok = ok && digest == kFig15Digest;
    if (!ok) {
        std::printf("MISMATCH fig15: swept %lld valid %zu winner '%s' "
                    "edp bits %s digest %s\n",
                    static_cast<long long>(res.swept), res.points.size(),
                    winner.c_str(), hex64(bits).c_str(), digest.c_str());
    }
    return ok;
}

} // namespace

RunResult
runFig15Sweep(const Options &o)
{
    RunResult r;
    const int threads = cpuCount();
    const TechnologyModel &tech = defaultTech();
    const DseOptions opt = fig15Options(threads);

    std::optional<Model> model;
    const double setup_s = timedSetup(kSetupReps, [&] {
        model.emplace(buildModel(kZoo[kDarkNet224], 0));
        // Warm-up: a few design points through the same evaluation
        // path, on a throw-away cache.
        const std::vector<SweepTask> tasks = enumerateSweepTasks(opt);
        MappingCache warm;
        for (size_t i = 0; i < 16; ++i)
            evaluateSweepPoint(*model, opt, tech,
                               tasks[i * tasks.size() / 16], warm);
    });

    if (!o.trace) {
        // One operation = one explore() sweep, as `nn-baton pre` runs
        // it; each sweep is checked (with its lean export) outside
        // its clock.  Sweeps keep starting until the run's time is up;
        // each one started is finished, and the median covers them all.
        std::vector<double> walls, cpus;
        double best_edp = 0.0;
        const double t_start = nowSeconds();
        do {
            const double c0 = processCpuSeconds();
            const double w0 = nowSeconds();
            DseResult res = explore(*model, opt, tech);
            walls.push_back(nowSeconds() - w0);
            cpus.push_back(processCpuSeconds() - c0);
            std::printf("sweep %zu: %.3f s wall, %.3f s cpu\n",
                        walls.size(), walls.back(), cpus.back());
            PreDesignReport rep;
            if (auto best = res.bestEdp()) {
                rep.recommended = res.points[*best];
                best_edp = edpMjMs(*rep.recommended);
            }
            rep.sweep = std::move(res);
            ++r.attempted;
            if (!checkFig15(rep.sweep, leanPre(rep)))
                ++r.failed;
        } while (nowSeconds() - t_start < o.seconds);
        const double peak = peakRssMb();
        reportOps(r, median(walls), walls.size(), median(cpus), "sweep",
                  walls, "per sweep", 1.0 / median(walls));
        report("sweep_s", median(walls), "s",
               "median of " + std::to_string(walls.size()) + " sweeps");
        report("sweep_cpu_s", median(cpus), "s");
        report("best_edp_mj_ms", best_edp, "mJ*ms",
               "simulated; repeats exactly");
        reportCommon(r, setup_s, peak);
        return r;
    }

    // Traced run: the sweep driven point by point through
    // enumerateSweepTasks + evaluateSweepPoint on cpuCount() lanes
    // (dynamic per-point claims), one span per design point under one
    // sweep span.  The same loop runs once untraced first, so the
    // difference is the tracing overhead alone.
    const std::vector<SweepTask> tasks = enumerateSweepTasks(opt);
    std::vector<SweepPointOutcome> outcomes;
    std::unique_ptr<MappingCache> cache;
    auto driven = [&] {
        outcomes.assign(tasks.size(), SweepPointOutcome{});
        cache = std::make_unique<MappingCache>();
        const double w0 = nowSeconds();
        Span sweep("dse.sweep");
        const uint64_t root = sweep.id();
        parallelFor(threads, tasks.size(), [&](size_t i) {
            Span point("dse.point", i, root);
            outcomes[i] =
                evaluateSweepPoint(*model, opt, tech, tasks[i], *cache);
        });
        return nowSeconds() - w0;
    };
    const double untraced_s = driven();
    Tracer::enable();
    LayerValues v;
    buildModel(kZoo[kDarkNet224], 0); // one traced nn.build span
    const double traced_s = driven();

    std::vector<size_t> valid;
    for (size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].kind == SweepPointOutcome::Valid)
            valid.push_back(i);
    }
    PreDesignReport rep;
    rep.sweep = collectSweepOutcomes(tasks, outcomes);
    if (auto best = rep.sweep.bestEdp())
        rep.recommended = rep.sweep.points[*best];
    std::string json;
    {
        Span s("baton.export");
        json = leanPre(rep);
    }
    ++r.attempted;
    if (!checkFig15(rep.sweep, json))
        ++r.failed;
    v["baton.export.bytes"] = static_cast<double>(json.size());
    v["dse.points"] = static_cast<double>(rep.sweep.swept);
    v["dse.area_rejected"] = static_cast<double>(rep.sweep.areaRejected);
    v["dse.sweep_s"] = traced_s;
    setProgram(v, rep.sweep.search);
    setCache(v, cache->hits(), cache->misses(), cache->evictions(),
             static_cast<int64_t>(cache->size()));
    setOverhead(v, untraced_s, traced_s);

    // Stage replay on a seeded sample of the sweep's design points
    // (every unique layer of each sampled valid point).
    constexpr double kFraction = 1.0 / 500.0;
    Rng rng(o.seed);
    std::vector<SearchItem> items;
    const std::vector<const ConvLayer *> layers = uniqueLayers(*model);
    for (size_t i : valid) {
        if (rng.unit() >= kFraction)
            continue;
        const AcceleratorConfig cfg =
            makeConfig(tasks[i].compute, tasks[i].memory);
        for (const ConvLayer *l : layers)
            items.push_back(
                {l, cfg, opt.effort, opt.objective, i, kDarkNet224});
    }
    v["replay.population"] =
        static_cast<double>(valid.size() * layers.size());
    v["replay.sample_fraction"] = kFraction;
    std::printf("replay sample: %zu searches = every unique layer (%zu) "
                "of the valid design points kept with probability %g "
                "(seed %llu), out of %zu valid points\n",
                items.size(), layers.size(), kFraction,
                static_cast<unsigned long long>(o.seed), valid.size());
    replaySearches(items, tech, v, r);
    finishTrace(o, v, r);
    return r;
}

// =============================================================== post_zoo

RunResult
runPostZoo(const Options &o)
{
    RunResult r;
    const int threads = cpuCount();
    const TechnologyModel &tech = defaultTech();
    std::vector<Model> zoo;
    std::optional<PostDesignFlow> flow;
    const double setup_s = timedSetup(kSetupReps, [&] {
        zoo.clear();
        for (size_t m = 0; m < kZooSize; ++m)
            zoo.push_back(buildModel(kZoo[m], m));
        flow.emplace(caseStudyConfig(), tech, SearchEffort::Exhaustive,
                     Objective::MinEnergy, threads);
        leanPost(flow->run(zoo[6])); // warm-up: AlexNet
    });

    double zoo_energy = 0.0;
    int64_t passes_ok = 0;
    std::vector<double> model_walls; // run + export per model
    // One operation = one pass over the zoo: run + lean export per
    // model, digests checked after the pass clock stops.
    auto pass = [&](std::vector<double> &walls, std::vector<double> &cpus,
                    LayerValues *traced) {
        std::vector<std::string> json(kZooSize);
        double energy = 0.0;
        bool feasible = true;
        SearchStats stats;
        int64_t hits = 0, misses = 0, entries = 0, bytes = 0;
        const double c0 = processCpuSeconds();
        const double w0 = nowSeconds();
        for (size_t m = 0; m < kZooSize; ++m) {
            Span model_span("zoo.model", m);
            const double m0 = nowSeconds();
            PostDesignReport rep;
            if (traced) {
                // A fresh cache per model is what run() uses
                // privately; passing it in makes its counters visible.
                MappingCache cache;
                {
                    Span s("baton.post", m);
                    rep = flow->run(zoo[m], &cache);
                }
                hits += cache.hits();
                misses += cache.misses();
                entries += static_cast<int64_t>(cache.size());
            } else {
                rep = flow->run(zoo[m]);
            }
            {
                Span s("baton.export", m);
                json[m] = leanPost(rep);
            }
            model_walls.push_back(nowSeconds() - m0);
            energy += rep.cost.energyMj();
            feasible = feasible && rep.feasible;
            stats += rep.stats;
            bytes += static_cast<int64_t>(json[m].size());
        }
        walls.push_back(nowSeconds() - w0);
        cpus.push_back(processCpuSeconds() - c0);
        std::printf("pass %zu: %.3f s wall, %.3f s cpu; per model (s):",
                    walls.size(), walls.back(), cpus.back());
        for (size_t i = model_walls.size() - kZooSize;
             i < model_walls.size(); ++i)
            std::printf(" %.3f", model_walls[i]);
        std::printf("\n");
        for (size_t m = 0; m < kZooSize; ++m) {
            ++r.attempted;
            const std::string digest = hex64(fnv1a(json[m]));
            if (digest != kZooDigest[m] || !feasible) {
                ++r.failed;
                std::printf("MISMATCH post %s: digest %s\n",
                            zooLabel(kZoo[m]).c_str(), digest.c_str());
            }
        }
        if (passes_ok && energy != zoo_energy) {
            ++r.failed;
            std::printf("MISMATCH zoo energy %.17g != %.17g\n", energy,
                        zoo_energy);
        }
        zoo_energy = energy;
        ++passes_ok;
        if (traced) {
            setProgram(*traced, stats);
            setCache(*traced, hits, misses, 0, entries);
            (*traced)["baton.export.bytes"] = static_cast<double>(bytes);
        }
    };

    std::vector<double> walls, cpus;
    const double budget = o.trace ? o.seconds / 2 : o.seconds;
    const double t_start = nowSeconds();
    do {
        pass(walls, cpus, nullptr);
    } while (nowSeconds() - t_start + walls.back() <= budget);
    const double peak = peakRssMb();

    if (!o.trace) {
        // The pass time is taken model by model: the sum of each
        // model's median run + export over the passes.  Host stalls
        // (steal time) hit the fine-grained intra-layer lanes in
        // bursts of a second or two; per-model medians keep one such
        // burst from setting the whole pass.
        double pass_s = 0.0;
        for (size_t m = 0; m < kZooSize; ++m) {
            std::vector<double> t;
            for (size_t i = m; i < model_walls.size(); i += kZooSize)
                t.push_back(model_walls[i]);
            pass_s += median(t);
        }
        reportOps(r, pass_s, walls.size(), median(cpus), "zoo pass",
                  model_walls, "per model run + export", 1.0 / pass_s);
        report("post_zoo_s", pass_s, "s",
               "sum of per-model medians over " +
                   std::to_string(walls.size()) + " passes (median whole "
                   "pass " + std::to_string(median(walls)) + " s)");
        report("post_zoo_cpu_s", median(cpus), "s");
        report("zoo_energy_mj", zoo_energy, "mJ",
               "simulated, summed over " + std::to_string(kZooSize) +
                   " models; repeats exactly");
        reportCommon(r, setup_s, peak);
        return r;
    }

    Tracer::enable();
    LayerValues v;
    for (size_t m = 0; m < kZooSize; ++m)
        buildModel(kZoo[m], m); // traced nn.build spans
    std::vector<double> twalls, tcpus;
    const double t2 = nowSeconds();
    do {
        pass(twalls, tcpus, &v);
    } while (nowSeconds() - t2 + twalls.back() <= budget);
    setOverhead(v, median(walls), median(twalls));

    // Stage replay: every unique layer search of every zoo model
    // (sample fraction 1), serial, on the case-study configuration.
    std::vector<SearchItem> items;
    for (size_t m = 0; m < kZooSize; ++m) {
        for (const ConvLayer *l : uniqueLayers(zoo[m]))
            items.push_back({l, caseStudyConfig(), SearchEffort::Exhaustive,
                             Objective::MinEnergy, m, m});
    }
    v["replay.population"] = static_cast<double>(items.size());
    v["replay.sample_fraction"] = 1.0;
    replaySearches(items, tech, v, r);

    finishTrace(o, v, r);
    return r;
}

// ============================================================== serve_mix

namespace {

struct ServeRequestSpec
{
    bool pre = false;
    size_t model = 0; //!< index into kZoo
    size_t cfg = 0;   //!< index into the config pool (post)
    std::string line;

    size_t key() const { return pre ? ~model : cfg * kZooSize + model; }
};

/** Models the occasional Fig. 14-style `pre` request rotates over. */
constexpr size_t kPreModels[] = {2, 4, 6, 7}; // resnet50, darknet19,
                                              // alexnet, mobilenetv2 @224

struct ServeStream
{
    std::vector<SweepTask> configs; //!< fig15-grid configs, by index
    std::vector<ServeRequestSpec> requests;
};

std::string
postLine(const ZooEntry &z, const SweepTask &t)
{
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\"op\":\"post\",\"model\":\"%s\",\"resolution\":%d,"
        "\"config\":{\"chiplets\":%d,\"cores\":%d,\"lanes\":%d,"
        "\"vectorSize\":%d,\"ol1Bytes\":%lld,\"al1Bytes\":%lld,"
        "\"wl1Bytes\":%lld,\"al2Bytes\":%lld}}",
        z.name, z.resolution, t.compute.chiplets, t.compute.cores,
        t.compute.lanes, t.compute.vectorSize,
        static_cast<long long>(t.memory.ol1Bytes),
        static_cast<long long>(t.memory.al1Bytes),
        static_cast<long long>(t.memory.wl1Bytes),
        static_cast<long long>(t.memory.al2Bytes));
    return buf;
}

std::string
preLine(const ZooEntry &z)
{
    return std::string("{\"op\":\"pre\",\"model\":\"") + z.name +
           "\",\"resolution\":" + std::to_string(z.resolution) +
           ",\"macs\":2048,\"proportional\":true}";
}

/** Deals 0..n-1 in seeded shuffled rounds, so any prefix of the deal
 *  holds every value equally often (to within one round). */
class Deck
{
  public:
    Deck(size_t n, Rng &rng) : n_(n), rng_(rng) {}
    size_t next()
    {
        if (cards_.empty()) {
            for (size_t i = 0; i < n_; ++i)
                cards_.push_back(i);
            for (size_t i = n_ - 1; i > 0; --i)
                std::swap(cards_[i], cards_[rng_.below(i + 1)]);
        }
        const size_t c = cards_.back();
        cards_.pop_back();
        return c;
    }

  private:
    size_t n_;
    Rng &rng_;
    std::vector<size_t> cards_;
};

/**
 * The seeded request stream, in shuffled blocks of 20: 8 posts on
 * fresh (zoo model, fig15-grid config) pairs, 11 posts repeating an
 * earlier pair, and one Fig. 14-style `pre`.  So a little over half
 * the posts hit warm cache entries and the median request is a warm
 * one.  Models and compute allocations are dealt from decks, so runs
 * of any length and any seed see the same mix of request costs; the
 * seed picks the deal, the memory sizes and which pair repeats.
 */
ServeStream
makeStream(uint64_t seed, size_t blocks, const TechnologyModel &tech)
{
    Rng rng(seed);
    ServeStream s;
    // The fig15 grid under the 3 mm^2 budget, grouped by compute
    // allocation (the task list is compute-major).
    DseOptions grid;
    grid.totalMacs = 4096;
    std::vector<std::vector<SweepTask>> by_compute;
    for (const SweepTask &t : enumerateSweepTasks(grid)) {
        const AcceleratorConfig cfg = makeConfig(t.compute, t.memory);
        if (chipletArea(cfg, tech, defaultOl2Bytes(cfg)).total() > 3.0)
            continue;
        const ComputeAllocation *last =
            by_compute.empty() ? nullptr : &by_compute.back().front().compute;
        if (!last || last->chiplets != t.compute.chiplets ||
            last->cores != t.compute.cores ||
            last->lanes != t.compute.lanes ||
            last->vectorSize != t.compute.vectorSize)
            by_compute.emplace_back();
        by_compute.back().push_back(t);
    }
    Deck fresh_models(kZooSize, rng), repeat_models(kZooSize, rng);
    Deck computes(by_compute.size(), rng);
    std::vector<std::vector<size_t>> pairs_of(kZooSize); // cfg indices
    size_t next_pre = 0;
    for (size_t b = 0; b < blocks; ++b) {
        std::vector<ServeRequestSpec> block;
        std::vector<std::pair<size_t, size_t>> fresh_pairs;
        auto fresh = [&](size_t m) {
            const std::vector<SweepTask> &ts = by_compute[computes.next()];
            s.configs.push_back(ts[rng.below(ts.size())]);
            ServeRequestSpec q;
            q.model = m;
            q.cfg = s.configs.size() - 1;
            block.push_back(q);
            fresh_pairs.emplace_back(m, q.cfg);
        };
        for (int k = 0; k < 8; ++k)
            fresh(fresh_models.next());
        for (int k = 0; k < 11; ++k) {
            const size_t m = repeat_models.next();
            if (pairs_of[m].empty()) {
                fresh(m); // nothing to repeat yet
                continue;
            }
            ServeRequestSpec q;
            q.model = m;
            q.cfg = pairs_of[m][rng.below(pairs_of[m].size())];
            block.push_back(q);
        }
        for (const auto &[m, cfg] : fresh_pairs)
            pairs_of[m].push_back(cfg);
        ServeRequestSpec pre;
        pre.pre = true;
        pre.model = kPreModels[next_pre++ % std::size(kPreModels)];
        block.push_back(pre);
        for (size_t i = block.size() - 1; i > 0; --i)
            std::swap(block[i], block[rng.below(i + 1)]);
        for (ServeRequestSpec &q : block) {
            q.line = q.pre ? preLine(kZoo[q.model])
                           : postLine(kZoo[q.model], s.configs[q.cfg]);
            s.requests.push_back(std::move(q));
        }
    }
    return s;
}

/** One closed-loop pass: what each issued request returned. */
struct LoopResult
{
    std::vector<double> latencyS;  //!< per issued request
    std::vector<uint64_t> digest;  //!< FNV-1a of the response
    std::vector<size_t> length;
    std::vector<char> refused, error;
    size_t issued = 0;
    double windowS = 0.0;
    double cpuS = 0.0;
    bool exhausted = false;
};

/**
 * @p clients threads, each sending its next request only after the
 * previous reply (closed loop), drawing from the shared stream in
 * order until @p seconds have passed.
 */
LoopResult
closedLoop(serve::EvalService &svc, const ServeStream &s, int clients,
           double seconds)
{
    LoopResult out;
    const size_t n = s.requests.size();
    out.latencyS.assign(n, 0.0);
    out.digest.assign(n, 0);
    out.length.assign(n, 0);
    out.refused.assign(n, 0);
    out.error.assign(n, 0);
    std::atomic<size_t> next{0};
    std::atomic<bool> exhausted{false};
    const double c0 = processCpuSeconds();
    const double t0 = nowSeconds();
    Span loop("serve.loop");
    const uint64_t root = loop.id();
    auto client = [&] {
        while (nowSeconds() - t0 < seconds) {
            const size_t i = next.fetch_add(1);
            if (i >= n) {
                exhausted = true;
                return;
            }
            const ServeRequestSpec &q = s.requests[i];
            const double a = nowSeconds();
            std::string resp;
            {
                Span span(q.pre ? "serve.pre" : "serve.post", i, root);
                resp = svc.handleLine(q.line).response;
            }
            out.latencyS[i] = nowSeconds() - a;
            out.digest[i] = fnv1a(resp);
            out.length[i] = resp.size();
            if (resp.rfind("{\"ok\":false", 0) == 0) {
                if (resp.find("\"UNAVAILABLE\"") != std::string::npos)
                    out.refused[i] = 1;
                else
                    out.error[i] = 1;
            }
        }
    };
    std::vector<std::thread> pool;
    for (int c = 0; c < clients; ++c)
        pool.emplace_back(client);
    for (std::thread &t : pool)
        t.join();
    out.windowS = nowSeconds() - t0;
    out.cpuS = processCpuSeconds() - c0;
    out.issued = std::min(next.load(), n);
    out.exhausted = exhausted;
    return out;
}

/** Reference bytes digest and length per unique request key. */
using References = std::map<size_t, std::pair<uint64_t, size_t>>;

/**
 * Compute the in-process answer of every unique request the loop
 * issued that @p refs does not hold yet (PostDesignFlow / explore +
 * lean export on a separate cache), and count responses that differ
 * from it, refusals and errors.  Returns the bytes of the answers
 * computed.
 */
int64_t
verifyLoop(const ServeStream &s, const LoopResult &loop,
           const std::vector<Model> &zoo, const TechnologyModel &tech,
           int threads, References &refs, RunResult &r)
{
    std::vector<size_t> todo;
    {
        std::set<size_t> want;
        for (size_t i = 0; i < loop.issued; ++i) {
            const size_t k = s.requests[i].key();
            if (!refs.count(k) && want.insert(k).second)
                todo.push_back(i);
        }
    }
    MappingCache ref_cache;
    std::vector<std::pair<uint64_t, size_t>> got(todo.size());
    const double v0 = nowSeconds();
    parallelFor(threads, todo.size(), [&](size_t j) {
        const ServeRequestSpec &q = s.requests[todo[j]];
        std::string bytes;
        if (q.pre) {
            DseOptions opt;
            opt.totalMacs = 2048;
            opt.proportionalMem = true;
            opt.effort = SearchEffort::Fast;
            opt.cache = &ref_cache;
            PreDesignReport rep;
            rep.sweep = explore(zoo[q.model], opt, tech);
            if (auto best = rep.sweep.bestEdp())
                rep.recommended = rep.sweep.points[*best];
            Span e("baton.export", todo[j]);
            bytes = wireForm(leanPre(rep));
        } else {
            const SweepTask &t = s.configs[q.cfg];
            PostDesignFlow flow(makeConfig(t.compute, t.memory), tech,
                                SearchEffort::Exhaustive,
                                Objective::MinEnergy, SearchOptions{});
            PostDesignReport rep;
            {
                Span p("baton.post", todo[j]);
                rep = flow.run(zoo[q.model], &ref_cache);
            }
            Span e("baton.export", todo[j]);
            bytes = wireForm(leanPost(rep));
        }
        got[j] = {fnv1a(bytes), bytes.size()};
    });
    std::printf("verify: %zu unique requests recomputed in %.2f s\n",
                todo.size(), nowSeconds() - v0);
    int64_t export_bytes = 0;
    for (size_t j = 0; j < todo.size(); ++j) {
        refs[s.requests[todo[j]].key()] = got[j];
        export_bytes += static_cast<int64_t>(got[j].second);
    }

    for (size_t i = 0; i < loop.issued; ++i) {
        ++r.attempted;
        const auto &ref = refs.at(s.requests[i].key());
        if (loop.refused[i] || loop.error[i] ||
            loop.digest[i] != ref.first || loop.length[i] != ref.second) {
            ++r.failed;
            if (r.failed <= 5) {
                std::printf("MISMATCH serve request %zu (%s): %zu bytes "
                            "vs reference %zu\n",
                            i, s.requests[i].line.c_str(), loop.length[i],
                            ref.second);
            }
        }
    }
    return export_bytes;
}

} // namespace

RunResult
runServeMix(const Options &o)
{
    RunResult r;
    const int clients = cpuCount();
    const TechnologyModel &tech = defaultTech();
    // Enough blocks that the stream outlasts the run (a block takes
    // well over 0.1 s of client time).
    const size_t blocks =
        static_cast<size_t>(std::ceil(o.seconds * 10.0 * clients)) + 8;

    std::vector<Model> zoo;
    ServeStream stream;
    std::unique_ptr<serve::EvalService> svc;
    const double setup_s = timedSetup(kSetupReps, [&] {
        zoo.clear();
        for (size_t m = 0; m < kZooSize; ++m)
            zoo.push_back(buildModel(kZoo[m], m));
        stream = makeStream(o.seed, blocks, tech);
        svc = std::make_unique<serve::EvalService>(serve::ServiceOptions{});
        // Warm-up that leaves the cache untouched.
        svc->handleLine("{\"op\":\"ping\"}");
        svc->handleLine("{\"op\":\"stats\"}");
    });

    LoopResult loop = closedLoop(*svc, stream, clients, o.seconds);
    const double peak = peakRssMb();
    References refs;
    verifyLoop(stream, loop, zoo, tech, clients, refs, r);
    if (loop.exhausted) {
        std::printf("WARNING: the request stream ran out before the "
                    "clock\n");
    }

    std::vector<double> lat(loop.latencyS.begin(),
                            loop.latencyS.begin() +
                                static_cast<long>(loop.issued));
    auto split = [&](const LoopResult &l, bool pre) {
        std::vector<double> us;
        for (size_t i = 0; i < l.issued; ++i) {
            if (stream.requests[i].pre == pre)
                us.push_back(l.latencyS[i] * 1e6);
        }
        return us;
    };
    const double untraced_p50 = median(lat);

    if (!o.trace) {
        const double n = static_cast<double>(loop.issued);
        reportOps(r, median(lat), lat.size(), loop.cpuS / n, "request", lat,
                  "per request", n / loop.windowS);
        const Tail tail = tailOf(lat);
        report("serve_p50_ms", median(lat) * 1e3, "ms",
               std::to_string(loop.issued) + " requests, " +
                   std::to_string(clients) + " closed-loop clients");
        report("serve_tail_ms", tail.value * 1e3, "ms",
               "p" + std::to_string(tail.percentile) + " of " +
                   std::to_string(loop.issued));
        report("serve_req_per_s", n / loop.windowS, "1/s");
        std::printf("latency deciles (ms):");
        for (int d = 1; d <= 9; ++d)
            std::printf(" %.2f", quantile(lat, d / 10.0) * 1e3);
        std::printf("\n");
        int64_t hits = svc->cache().hits(), misses = svc->cache().misses();
        std::printf("cache: %lld hits / %lld misses on the service "
                    "cache\n",
                    static_cast<long long>(hits),
                    static_cast<long long>(misses));
        reportCommon(r, setup_s, peak);
        return r;
    }

    // Traced run: the same stream on a fresh service, spans around
    // every handleLine and every reference flow/export.
    Tracer::enable();
    LayerValues v;
    for (size_t m = 0; m < kZooSize; ++m)
        buildModel(kZoo[m], m);
    serve::EvalService traced_svc{serve::ServiceOptions{}};
    LoopResult tloop = closedLoop(traced_svc, stream, clients, o.seconds);
    v["baton.export.bytes"] = static_cast<double>(
        verifyLoop(stream, tloop, zoo, tech, clients, refs, r));
    std::vector<double> tlat(tloop.latencyS.begin(),
                             tloop.latencyS.begin() +
                                 static_cast<long>(tloop.issued));
    setOverhead(v, untraced_p50, median(tlat));
    const MappingCache &c = traced_svc.cache();
    setCache(v, c.hits(), c.misses(), c.evictions(),
             static_cast<int64_t>(c.size()));
    SearchStats program;
    program.cacheHits = c.hits();
    program.cacheMisses = c.misses();
    setProgram(v, program); // evaluated/pruned: not exposed by serve
    int64_t refused = 0, errors = 0;
    for (size_t i = 0; i < tloop.issued; ++i) {
        refused += tloop.refused[i];
        errors += tloop.error[i];
    }
    v["serve.requests"] = static_cast<double>(tloop.issued);
    v["serve.refused"] = static_cast<double>(refused);
    v["serve.errors"] = static_cast<double>(errors);
    const std::vector<double> post_us = split(tloop, false);
    const std::vector<double> pre_us = split(tloop, true);
    v["serve.handle_us.post_p50"] = median(post_us);
    v["serve.handle_us.post_tail"] = tailOf(post_us).value;
    v["serve.handle_us.pre_p50"] = median(pre_us);
    v["serve.handle_us.pre_tail"] = tailOf(pre_us).value;
    std::printf("serve traced: %zu requests (%zu post, %zu pre); post "
                "tail is p%g, pre tail is p%g\n",
                tloop.issued, post_us.size(), pre_us.size(),
                tailOf(post_us).percentile, tailOf(pre_us).percentile);

    // Stage replay on a seeded sample of the issued post requests
    // (every unique layer of each sampled request).
    constexpr double kFraction = 1.0 / 40.0;
    Rng rng(o.seed ^ 0x5e7e);
    std::vector<SearchItem> items;
    size_t population = 0;
    for (size_t i = 0; i < tloop.issued; ++i) {
        const ServeRequestSpec &q = stream.requests[i];
        if (q.pre)
            continue;
        const std::vector<const ConvLayer *> layers =
            uniqueLayers(zoo[q.model]);
        population += layers.size();
        if (rng.unit() >= kFraction)
            continue;
        const SweepTask &t = stream.configs[q.cfg];
        for (const ConvLayer *l : layers)
            items.push_back({l, makeConfig(t.compute, t.memory),
                             SearchEffort::Exhaustive, Objective::MinEnergy,
                             i, q.model});
    }
    v["replay.population"] = static_cast<double>(population);
    v["replay.sample_fraction"] = kFraction;
    std::printf("replay sample: %zu searches = every unique layer of the "
                "post requests kept with probability %g (seed %llu)\n",
                items.size(), kFraction,
                static_cast<unsigned long long>(o.seed));
    replaySearches(items, tech, v, r);
    finishTrace(o, v, r);
    return r;
}

} // namespace perfbench
