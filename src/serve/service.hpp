/**
 * @file
 * The evaluation core of the persistent service: request in, response
 * line out, independent of any transport so it unit-tests without
 * sockets.
 *
 * One EvalService owns the process-wide MappingCache.  Every request
 * evaluates against it, so repeated layer shapes across requests —
 * the millions-of-users steady state is mostly repeated shapes — are
 * served from warm search results.  The cache key carries the
 * TechnologyModel fingerprint, so requests overriding energy anchors
 * or clock can never alias a cached result computed under different
 * technology assumptions; an LRU byte cap keeps a long-lived daemon's
 * footprint bounded.
 *
 * Responses are bit-identical to the equivalent one-shot CLI
 * invocation (post/pre with `--no-obs`): the evaluation path is the
 * same PostDesignFlow / explore() code, the cache is compute-once and
 * deterministic, and the lean export omits everything run-dependent.
 *
 * Each request runs under its own CancelToken: the request's
 * `deadlineSeconds` (capped by the service maximum, which always
 * bounds pre-design sweeps) arms the deadline, and the token is
 * linked under the service-wide stop token so shutdown interrupts
 * in-flight work.  Failures come back as structured Status envelopes,
 * never as a dropped connection.
 */

#ifndef NNBATON_SERVE_SERVICE_HPP
#define NNBATON_SERVE_SERVICE_HPP

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/cancel.hpp"
#include "mapper/cache.hpp"
#include "serve/protocol.hpp"

namespace nnbaton {
namespace serve {

/** Service policy knobs. */
struct ServiceOptions
{
    /** LRU byte cap for the shared mapping cache (0 = unbounded);
     *  about 466k entries at MappingCache::kEntryBytes. */
    int64_t cacheBytes = 512ll << 20;

    /** Hard per-request wall-clock cap.  Pre-design sweeps always run
     *  under min(request deadline, this); post queries only get a
     *  deadline when the request asks for one. */
    double maxDeadlineSeconds = 300.0;

    /** Request-latency SLO in microseconds (--slo-us; 0 disables).
     *  Requests slower than this bump serve.slo.violations, so a
     *  scrape of the metrics op reads SLO compliance directly. */
    int64_t sloUs = 0;

    /** Access-log file (--access-log; empty disables): one structured
     *  JSON line per request, appended with a single fwrite. */
    std::string accessLogPath;

    /** Where a request error dumps the flight recorder
     *  (--flight-dump; empty disables the on-error dump). */
    std::string flightDumpPath;

    /** Service-wide stop token (borrowed, may be null).  Linked under
     *  every per-request token so shutdown interrupts evaluations. */
    const CancelToken *stop = nullptr;

    /** Admission control: maximum heavy requests (post / pre /
     *  sweepUnit) evaluating concurrently; excess requests are
     *  answered immediately with a retryable UNAVAILABLE envelope
     *  instead of queueing unboundedly (0 = unlimited).  Cheap ops
     *  (ping, stats, ...) are never refused. */
    int maxInflight = 0;
};

/** One handled request: the response line plus control flow. */
struct HandleResult
{
    std::string response; //!< one line, no trailing newline
    bool shutdown = false; //!< request asked the daemon to stop

    /** Close the connection without sending `response` — the
     *  transport-fault injection path (a crashed worker, from the
     *  coordinator's point of view). */
    bool dropConnection = false;
};

class EvalService
{
  public:
    explicit EvalService(ServiceOptions options);
    ~EvalService();

    EvalService(const EvalService &) = delete;
    EvalService &operator=(const EvalService &) = delete;

    /**
     * Handle one request line and return the response line.  Never
     * throws: every failure becomes a structured error envelope.
     * Thread-safe; called concurrently by the transport lanes.
     */
    HandleResult handleLine(const std::string &line);

    /** The shared cache (tests inspect hit/eviction counters). */
    const MappingCache &cache() const { return cache_; }

    int64_t requestsHandled() const
    {
        return requests_.load(std::memory_order_relaxed);
    }

  private:
    /** Per-request facts the access log records (docs/serving.md). */
    struct RequestAudit
    {
        uint64_t rid = 0;
        const char *op = "invalid"; //!< wire op, or "invalid"
        int64_t cacheHits = 0;      //!< post/pre: this request's hits
        int64_t cacheMisses = 0;
        std::string outcome = "OK"; //!< "OK" or the StatusCode name
        size_t bytesIn = 0;
        size_t bytesOut = 0;
        int64_t durationUs = 0;
    };

    std::string runPost(const ServeRequest &req, CancelToken &cancel,
                        RequestAudit &audit);
    std::string runPre(const ServeRequest &req, CancelToken &cancel,
                       RequestAudit &audit);
    std::string runSweepUnit(const ServeRequest &req,
                             CancelToken &cancel, RequestAudit &audit);
    std::string runStats();
    std::string runMetrics();
    std::string runFlight();

    /** Append one JSON line; single fwrite so lanes never interleave. */
    void writeAccessLog(const RequestAudit &audit);

    /** Dump the flight recorder after a failed request (when
     *  flightDumpPath is set), tagged with the failing rid. */
    void dumpFlightOnError(uint64_t rid, const Status &status);

    ServiceOptions options_;
    MappingCache cache_;
    std::FILE *accessLog_ = nullptr; //!< owned; null when disabled
    std::atomic<int64_t> requests_{0};
    std::atomic<int64_t> errors_{0};
    std::atomic<int64_t> evictionsSeen_{0};
    std::atomic<int> inflight_{0}; //!< heavy ops currently evaluating
};

} // namespace serve
} // namespace nnbaton

#endif // NNBATON_SERVE_SERVICE_HPP
