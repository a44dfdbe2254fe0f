#include "dse/slice.hpp"

#include <exception>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/status.hpp"
#include "common/trace.hpp"
#include "verif/fault.hpp"

namespace nnbaton {

std::vector<SweepTask>
enumerateSweepTasks(const DseOptions &options)
{
    NNBATON_TRACE_SCOPE("dse.enumerate_space");
    std::vector<SweepTask> tasks;
    const auto computes = enumerateCompute(options.totalMacs);
    if (computes.empty()) {
        throwStatus(errInvalidArgument(
            "explore: no table II compute allocation yields %lld MACs",
            static_cast<long long>(options.totalMacs)));
    }

    std::vector<MemoryAllocation> memories;
    if (!options.proportionalMem)
        memories = enumerateMemory();

    for (const ComputeAllocation &compute : computes) {
        if (options.proportionalMem) {
            tasks.push_back({compute, proportionalMemory(compute)});
            continue;
        }
        for (const MemoryAllocation &memory : memories)
            tasks.push_back({compute, memory});
    }
    return tasks;
}

namespace {

/** The search options every design point of a sweep maps with. */
SearchOptions
pointSearchOptions(const DseOptions &options)
{
    SearchOptions search;
    search.boundPruning = options.boundPruning;
    search.detailedMetrics = options.detailedMetrics;
    search.cancel = options.cancel;
    return search;
}

/** A design point that passed the area budget, ready to map. */
struct PreparedPoint
{
    const SweepTask *task = nullptr;
    AreaBreakdown area;
    SweepPointOutcome *out = nullptr;
};

/** Assemble @p task's configuration into @p cfg and price its chiplet
 *  area into @p area; false (with @p out final) when the area budget
 *  rejects it. */
bool
prepareSweepPoint(const DseOptions &options, const TechnologyModel &tech,
                  const SweepTask &task, AcceleratorConfig &cfg,
                  AreaBreakdown &area, SweepPointOutcome &out)
{
    out = SweepPointOutcome();
    cfg = makeConfig(task.compute, task.memory);
    area = chipletArea(cfg, tech, defaultOl2Bytes(cfg));
    if (options.areaLimitMm2 > 0.0 &&
        area.total() > options.areaLimitMm2) {
        out.kind = SweepPointOutcome::AreaRejected;
        return false;
    }
    return true;
}

/**
 * Map the prepared design points @p points (configurations @p cfgs,
 * one capacity group) in one mapModelVariants() call and complete
 * their outcomes.  Returns one error per point, null when it mapped;
 * the quarantine policy is the caller's.
 *
 * dse.point_latency_us gets one record per mapped point: the group's
 * mapping wall time divided by its point count, so the count is the
 * number of mapped points and the sum is the sweep's mapping time.
 */
std::vector<std::exception_ptr>
mapSweepPoints(const Model &model, const DseOptions &options,
               const TechnologyModel &tech,
               const std::vector<PreparedPoint> &points,
               const std::vector<AcceleratorConfig> &cfgs,
               MappingCache &cache)
{
    const uint64_t t0 = options.detailedMetrics ? obs::traceNowNs() : 0;
    std::vector<VariantMappingResult> mapped =
        mapModelVariants(model, cfgs, tech, options.effort,
                         options.objective, pointSearchOptions(options),
                         &cache);
    if (options.detailedMetrics) {
        static obs::Histogram &m_point_us =
            obs::MetricsRegistry::instance().histogram(
                "dse.point_latency_us");
        const int64_t per_point = static_cast<int64_t>(
            (obs::traceNowNs() - t0) / 1000 / cfgs.size());
        for (size_t k = 0; k < cfgs.size(); ++k)
            m_point_us.record(per_point);
    }
    std::vector<std::exception_ptr> errors(cfgs.size());
    for (size_t k = 0; k < cfgs.size(); ++k) {
        if (mapped[k].error) {
            errors[k] = mapped[k].error;
            continue;
        }
        const PreparedPoint &p = points[k];
        SweepPointOutcome &out = *p.out;
        ModelMappingResult &m = mapped[k].mapped;
        out.stats = m.stats;
        if (!m.feasible) {
            out.kind = SweepPointOutcome::Infeasible;
            continue;
        }
        out.kind = SweepPointOutcome::Valid;
        out.point.compute = p.task->compute;
        out.point.memory = p.task->memory;
        out.point.area = p.area;
        out.point.cost = std::move(m.cost);
        out.point.clockGhz = tech.frequencyGhz;
    }
    return errors;
}

/**
 * The sweep's quarantine policy for a point whose evaluation threw
 * @p error: cancellation skips it, anything else poisons it (or is
 * rethrown under options.strict).
 */
void
recordPointFailure(const DseOptions &options, std::exception_ptr error,
                   SweepPointOutcome &out)
{
    out = SweepPointOutcome();
    try {
        std::rethrow_exception(error);
    } catch (const StatusError &e) {
        const StatusCode code = e.status().code();
        if (code == StatusCode::Cancelled ||
            code == StatusCode::DeadlineExceeded) {
            out.kind = SweepPointOutcome::Skipped;
            return;
        }
        if (options.strict)
            throw;
        out.kind = SweepPointOutcome::Poisoned;
        out.error = e.status().toString();
    } catch (const std::exception &e) {
        if (options.strict)
            throw;
        out.kind = SweepPointOutcome::Poisoned;
        out.error = e.what();
    }
}

} // namespace

SweepPointOutcome
evaluateSweepPoint(const Model &model, const DseOptions &options,
                   const TechnologyModel &tech, const SweepTask &task,
                   MappingCache &cache)
{
    NNBATON_TRACE_SCOPE("dse.design_point");
    SweepPointOutcome out;
    AcceleratorConfig cfg;
    PreparedPoint point{&task, {}, &out};
    if (!prepareSweepPoint(options, tech, task, cfg, point.area, out))
        return out;
    const std::vector<std::exception_ptr> errors =
        mapSweepPoints(model, options, tech, {point}, {cfg}, cache);
    if (errors[0])
        std::rethrow_exception(errors[0]);
    return out;
}

std::vector<std::pair<int64_t, int64_t>>
capacityGroups(const std::vector<SweepTask> &tasks, int64_t begin,
               int64_t end)
{
    std::vector<std::pair<int64_t, int64_t>> groups;
    for (int64_t i = begin; i < end;) {
        const SweepTask &head = tasks[static_cast<size_t>(i)];
        int64_t j = i + 1;
        // isCapacityVariant() on the tasks' allocations.
        while (j < end) {
            const SweepTask &t = tasks[static_cast<size_t>(j)];
            if (t.compute.chiplets != head.compute.chiplets ||
                t.compute.cores != head.compute.cores ||
                t.compute.lanes != head.compute.lanes ||
                t.compute.vectorSize != head.compute.vectorSize ||
                t.memory.ol1Bytes != head.memory.ol1Bytes ||
                t.memory.al1Bytes != head.memory.al1Bytes)
                break;
            ++j;
        }
        groups.emplace_back(i, j);
        i = j;
    }
    return groups;
}

void
evaluateSweepGroup(const Model &model, const DseOptions &options,
                   const TechnologyModel &tech,
                   const std::vector<SweepTask> &tasks, int64_t begin,
                   int64_t end, MappingCache &cache,
                   SweepPointOutcome *outcomes)
{
    NNBATON_TRACE_SCOPE("dse.capacity_group");
    // Per point first: restored points stay as they are, a fired
    // token skips, the fault hook and the area budget apply, and a
    // point that throws here is quarantined on its own.
    std::vector<PreparedPoint> batch;
    std::vector<AcceleratorConfig> cfgs;
    for (int64_t i = begin; i < end; ++i) {
        SweepPointOutcome &out = outcomes[i - begin];
        if (out.restored)
            continue;
        if (options.cancel && options.cancel->cancelled()) {
            out = SweepPointOutcome();
            out.kind = SweepPointOutcome::Skipped;
            continue;
        }
        const SweepTask &task = tasks[static_cast<size_t>(i)];
        try {
            verif::injectPointFault(i);
            NNBATON_TRACE_SCOPE("dse.design_point");
            AcceleratorConfig cfg;
            PreparedPoint point{&task, {}, &out};
            if (!prepareSweepPoint(options, tech, task, cfg, point.area,
                                   out))
                continue;
            batch.push_back(point);
            cfgs.push_back(cfg);
        } catch (...) {
            recordPointFailure(options, std::current_exception(), out);
        }
    }
    if (batch.empty())
        return;

    std::vector<std::exception_ptr> errors;
    try {
        errors = mapSweepPoints(model, options, tech, batch, cfgs, cache);
    } catch (...) {
        errors.assign(batch.size(), std::current_exception());
    }
    for (size_t k = 0; k < batch.size(); ++k) {
        if (errors[k])
            recordPointFailure(options, errors[k], *batch[k].out);
    }
}

std::vector<SweepPointOutcome>
evaluateSweepSlice(const Model &model, const DseOptions &options,
                   const TechnologyModel &tech,
                   const std::vector<SweepTask> &tasks, int64_t begin,
                   int64_t end, MappingCache &cache)
{
    if (begin < 0 || end < begin ||
        end > static_cast<int64_t>(tasks.size())) {
        throwStatus(errInvalidArgument(
            "evaluateSweepSlice: [%lld, %lld) out of range for %zu "
            "tasks",
            static_cast<long long>(begin), static_cast<long long>(end),
            tasks.size()));
    }
    std::vector<SweepPointOutcome> outcomes(
        static_cast<size_t>(end - begin));
    for (const auto &[first, last] : capacityGroups(tasks, begin, end)) {
        evaluateSweepGroup(model, options, tech, tasks, first, last,
                           cache, &outcomes[static_cast<size_t>(
                                      first - begin)]);
        for (int64_t i = first; i < last; ++i) {
            if (outcomes[static_cast<size_t>(i - begin)].kind !=
                SweepPointOutcome::Skipped)
                verif::notifyPointCompleted(options.cancel);
        }
    }
    return outcomes;
}

DseResult
collectSweepOutcomes(const std::vector<SweepTask> &tasks,
                     std::vector<SweepPointOutcome> &outcomes)
{
    NNBATON_TRACE_SCOPE("dse.collect");
    DseResult result;
    for (size_t i = 0; i < outcomes.size(); ++i) {
        SweepPointOutcome &out = outcomes[i];
        ++result.swept;
        result.search += out.stats;
        if (out.restored)
            ++result.resumed;
        switch (out.kind) {
        case SweepPointOutcome::AreaRejected:
            ++result.areaRejected;
            break;
        case SweepPointOutcome::Infeasible:
            ++result.infeasible;
            break;
        case SweepPointOutcome::Valid:
            result.points.push_back(std::move(out.point));
            break;
        case SweepPointOutcome::Poisoned:
            result.poisoned.push_back(
                {tasks[i].compute, tasks[i].memory,
                 static_cast<int64_t>(i), std::move(out.error)});
            break;
        case SweepPointOutcome::Skipped:
            ++result.skipped;
            break;
        }
    }
    result.complete = result.skipped == 0;
    return result;
}

} // namespace nnbaton
