/**
 * @file
 * Shared pieces of the end-to-end benchmark: clocks and process
 * counters, order statistics, digests, the seeded RNG, the in-memory
 * span tracer, and the result record every workload fills.
 *
 * The benchmark drives the library only through its public entry
 * points and records spans only around those calls, from these files.
 */

#ifndef NNBATON_PERFBENCH_BENCH_HPP
#define NNBATON_PERFBENCH_BENCH_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- clocks

int64_t nowNs();                 //!< steady clock, nanoseconds
double nowSeconds();             //!< steady clock, seconds
double processCpuSeconds();      //!< user + system CPU of this process
double peakRssMb();              //!< VmHWM so far, MiB
int cpuCount();                  //!< CPUs this process may run on

// ------------------------------------------------------------ statistics

double median(std::vector<double> v);

/** Nearest-rank quantile, q in [0, 1]. */
double quantile(std::vector<double> v, double q);

/** The highest percentile with at least ten samples beyond it — the
 *  sample with exactly ten above it, at percentile 100 * (n - 10) / n;
 *  with ten samples or fewer, the slowest one (percentile 100). */
struct Tail
{
    double value = 0.0;
    double percentile = 100.0;
};
Tail tailOf(std::vector<double> v);

// --------------------------------------------------------------- digests

/** 64-bit FNV-1a. */
uint64_t fnv1a(const std::string &bytes);
std::string hex64(uint64_t v);

// ------------------------------------------------------------------- rng

/** splitmix64: small, seedable, identical on every platform. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : state_(seed) {}
    uint64_t next();
    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }
    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

  private:
    uint64_t state_;
};

// --------------------------------------------------------------- tracing

/** One finished span. */
struct SpanRecord
{
    uint64_t id = 0;
    uint64_t parent = 0; //!< 0: root
    uint64_t group = 0;  //!< shared id: design point / model / request
    const char *name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    uint32_t thread = 0;
};

/** Per-name aggregate over the recorded spans. */
struct SpanSummary
{
    std::string name;
    int64_t count = 0;
    double totalUs = 0.0;
    double selfUs = 0.0; //!< duration minus the union of child spans
    double p50Us = 0.0;
    double p99Us = 0.0;
};

/**
 * Process-wide span recorder.  Disabled (every Span a no-op) unless
 * enable() ran.  Each thread appends to its own buffer; buffers are
 * never capped and never drop a span.  Nothing is written until
 * writeFiles() at the end of the run.
 */
class Tracer
{
  public:
    static void enable();
    static bool enabled();

    /** All spans recorded so far (call once every thread joined). */
    static std::vector<SpanRecord> collect();

    /** Aggregates per span name, self time included. */
    static std::vector<SpanSummary>
    summarize(const std::vector<SpanRecord> &spans);

    /** Write `<stem>.spans.tsv` and `<stem>.summary.tsv`. */
    static void writeFiles(const std::string &stem,
                           const std::vector<SpanRecord> &spans,
                           const std::vector<SpanSummary> &summary);
};

/**
 * RAII span.  The parent defaults to the innermost open span of the
 * calling thread; pass @p parent explicitly for work handed to other
 * threads.
 */
class Span
{
  public:
    static constexpr uint64_t kInherit = ~0ull;

    explicit Span(const char *name, uint64_t group = 0,
                  uint64_t parent = kInherit);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    uint64_t id() const { return rec_.id; }

  private:
    SpanRecord rec_;
    bool live_ = false;
};

// ---------------------------------------------------------------- result

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one run reports. */
struct RunResult
{
    int64_t attempted = 0;
    int64_t failed = 0; //!< failed, refused or mismatched operations
    std::vector<Metric> metrics;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_build/out"; //!< span files (traced runs)
};

RunResult runFig15Sweep(const Options &options);
RunResult runPostZoo(const Options &options);
RunResult runServeMix(const Options &options);

/** Print one human-readable metric line (stdout). */
void report(const std::string &name, double value,
            const std::string &unit, const std::string &note = "");

} // namespace perfbench

#endif // NNBATON_PERFBENCH_BENCH_HPP
