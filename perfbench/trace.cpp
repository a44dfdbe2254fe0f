/**
 * @file
 * Clocks, statistics, digests and the in-memory span tracer.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
nowSeconds()
{
    return static_cast<double>(nowNs()) * 1e-9;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    }
    std::fclose(f);
    return kb / 1024.0;
}

int
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const size_t i = static_cast<size_t>(std::max(1.0, rank)) - 1;
    return v[std::min(i, v.size() - 1)];
}

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    if (n <= 10) {
        t.value = v.back();
        return t;
    }
    // The sample with exactly ten above it.
    t.value = v[n - 11];
    t.percentile = 100.0 * static_cast<double>(n - 10) /
                   static_cast<double>(n);
    return t;
}

uint64_t
fnv1a(const std::string &bytes)
{
    uint64_t h = 14695981039346656037ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

uint64_t
Rng::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// ---------------------------------------------------------------- tracer

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_nextId{1};
std::atomic<uint32_t> g_nextThread{0};

struct ThreadBuffer
{
    uint32_t thread = 0;
    std::vector<SpanRecord> spans;
    std::vector<uint64_t> open; //!< ids of this thread's open spans
};

std::mutex g_buffersMutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer &
threadBuffer()
{
    thread_local ThreadBuffer *mine = nullptr;
    if (!mine) {
        auto buf = std::make_unique<ThreadBuffer>();
        buf->thread = g_nextThread.fetch_add(1);
        std::lock_guard<std::mutex> lock(g_buffersMutex);
        mine = buf.get();
        g_buffers.push_back(std::move(buf));
    }
    return *mine;
}

} // namespace

void
Tracer::enable()
{
    g_enabled.store(true);
}

bool
Tracer::enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

Span::Span(const char *name, uint64_t group, uint64_t parent)
{
    if (!Tracer::enabled())
        return;
    ThreadBuffer &buf = threadBuffer();
    live_ = true;
    rec_.id = g_nextId.fetch_add(1, std::memory_order_relaxed);
    rec_.parent = parent != kInherit      ? parent
                  : buf.open.empty() ? 0
                                     : buf.open.back();
    rec_.group = group;
    rec_.name = name;
    rec_.thread = buf.thread;
    buf.open.push_back(rec_.id);
    rec_.startNs = nowNs();
}

Span::~Span()
{
    if (!live_)
        return;
    rec_.endNs = nowNs();
    ThreadBuffer &buf = threadBuffer();
    buf.open.pop_back();
    buf.spans.push_back(rec_);
}

std::vector<SpanRecord>
Tracer::collect()
{
    std::lock_guard<std::mutex> lock(g_buffersMutex);
    std::vector<SpanRecord> all;
    for (const auto &buf : g_buffers)
        all.insert(all.end(), buf->spans.begin(), buf->spans.end());
    std::sort(all.begin(), all.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return a.id < b.id;
              });
    return all;
}

std::vector<SpanSummary>
Tracer::summarize(const std::vector<SpanRecord> &spans)
{
    // Child intervals per parent, so self time subtracts the union of
    // the children (children on other threads may overlap).
    std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
        children;
    for (const SpanRecord &s : spans) {
        if (s.parent)
            children[s.parent].emplace_back(s.startNs, s.endNs);
    }

    std::map<std::string, SpanSummary> by_name;
    std::map<std::string, std::vector<double>> durations;
    for (const SpanRecord &s : spans) {
        int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            int64_t cur_lo = 0, cur_hi = 0;
            bool open = false;
            for (auto [lo, hi] : iv) {
                lo = std::max(lo, s.startNs);
                hi = std::min(hi, s.endNs);
                if (hi <= lo)
                    continue;
                if (open && lo <= cur_hi) {
                    cur_hi = std::max(cur_hi, hi);
                } else {
                    if (open)
                        covered += cur_hi - cur_lo;
                    cur_lo = lo;
                    cur_hi = hi;
                    open = true;
                }
            }
            if (open)
                covered += cur_hi - cur_lo;
        }
        const double dur_us = static_cast<double>(s.endNs - s.startNs) * 1e-3;
        SpanSummary &sum = by_name[s.name];
        sum.name = s.name;
        ++sum.count;
        sum.totalUs += dur_us;
        sum.selfUs += dur_us - static_cast<double>(covered) * 1e-3;
        durations[s.name].push_back(dur_us);
    }

    std::vector<SpanSummary> out;
    for (auto &[name, sum] : by_name) {
        sum.p50Us = quantile(durations[name], 0.50);
        sum.p99Us = quantile(durations[name], 0.99);
        out.push_back(sum);
    }
    return out;
}

void
Tracer::writeFiles(const std::string &stem,
                   const std::vector<SpanRecord> &spans,
                   const std::vector<SpanSummary> &summary)
{
    {
        std::ofstream os(stem + ".spans.tsv");
        os << "id\tparent\tgroup\tthread\tname\tstart_ns\tend_ns\n";
        for (const SpanRecord &s : spans) {
            os << s.id << '\t' << s.parent << '\t' << s.group << '\t'
               << s.thread << '\t' << s.name << '\t' << s.startNs << '\t'
               << s.endNs << '\n';
        }
    }
    std::ofstream os(stem + ".summary.tsv");
    os << "name\tcount\ttotal_us\tself_us\tp50_us\tp99_us\n";
    for (const SpanSummary &s : summary) {
        os << s.name << '\t' << s.count << '\t' << s.totalUs << '\t'
           << s.selfUs << '\t' << s.p50Us << '\t' << s.p99Us << '\n';
    }
}

} // namespace perfbench
