/**
 * @file
 * Scoped trace spans for the DSE/mapping pipeline.
 *
 * Usage: drop NNBATON_TRACE_SCOPE("dse.map_model") at the top of a
 * scope; when tracing is enabled (obs::setTracingEnabled) the span's
 * wall-clock extent is recorded into a per-thread buffer and can be
 * exported as Chrome trace-event JSON (open in Perfetto or
 * chrome://tracing).  When tracing is disabled the macro costs one
 * relaxed atomic load and a predictable branch; defining
 * NNBATON_TRACE_DISABLED compiles every span site away entirely.
 *
 * Recording is observation-only and lock-free on the hot path: each
 * thread appends to its own chunked buffer and publishes the event
 * count with a release store, so writers never block each other and
 * the exporter (which reads under the rarely-taken chunk mutex with
 * an acquire load of the count) sees only fully written events.  The
 * buffers are owned by a process-wide registry and outlive their
 * threads, so pools may come and go between export calls.
 *
 * Span names must be string literals (or otherwise outlive the
 * process): buffers store the pointer, not a copy.
 */

#ifndef NNBATON_COMMON_TRACE_HPP
#define NNBATON_COMMON_TRACE_HPP

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace nnbaton {

class JsonWriter; // common/json.hpp

namespace obs {

/** One completed span, times in nanoseconds since the trace origin. */
struct TraceEvent
{
    const char *name = nullptr; //!< static string, "subsystem.phase"
    uint32_t tid = 0;           //!< small per-thread id (not the OS tid)
    uint64_t startNs = 0;
    uint64_t durNs = 0;
    uint64_t rid = 0; //!< request id the span ran under (0 = none)
};

/** Turn span collection on or off (off by default). */
void setTracingEnabled(bool enabled);

/** True when spans are currently being collected. */
bool tracingEnabled();

/** Nanoseconds since the process trace origin (steady clock). */
uint64_t traceNowNs();

/** Append a completed span to the calling thread's buffer. */
void recordSpan(const char *name, uint64_t startNs, uint64_t endNs);

/**
 * Copy out every event recorded so far, in per-thread buffer order.
 * Safe to call while other threads are still tracing: events
 * published before the call are included, later ones are not.
 */
std::vector<TraceEvent> snapshotTrace();

/** Events discarded because a thread buffer hit its capacity. */
int64_t droppedTraceEvents();

/**
 * Write the collected spans as a Chrome trace-event JSON object
 * ({"traceEvents":[...]}).  The "cat" of each event is the span-name
 * prefix before the first '.'.
 */
void writeChromeTrace(std::ostream &os);

// ---------------------------------------------------------------------
// Request-scoped context: a per-thread request id threaded through
// spans, flight-recorder events and log lines so everything one
// request touched can be correlated postmortem.

/** Allocate a fresh nonzero request id (process-wide counter). */
uint64_t nextRequestId();

/** Set the calling thread's current request id (0 clears it). */
void setCurrentRequestId(uint64_t rid);

/** The calling thread's current request id (0 when outside one). */
uint64_t currentRequestId();

/** The calling thread's small trace id (allocates it on first use). */
uint32_t currentThreadTag();

/** RAII: set the thread's request id for a scope, restore the old. */
class RequestIdScope
{
  public:
    explicit RequestIdScope(uint64_t rid) : prev_(currentRequestId())
    {
        setCurrentRequestId(rid);
    }

    ~RequestIdScope() { setCurrentRequestId(prev_); }

    RequestIdScope(const RequestIdScope &) = delete;
    RequestIdScope &operator=(const RequestIdScope &) = delete;

  private:
    const uint64_t prev_;
};

// ---------------------------------------------------------------------
// Flight recorder: an always-on, fixed-size per-thread ring of the
// most recent spans and marks (riding the same thread buffers as the
// tracer).  Unlike tracing it is bounded and enabled by default, so a
// crash, deadline blowup or failed request can always dump the last
// few hundred events per thread as a postmortem.

/** Turn the flight recorder on or off (ON by default). */
void setFlightRecorderEnabled(bool enabled);

/** True when spans/marks are being captured into the flight rings. */
bool flightRecorderEnabled();

/** Per-thread flight ring capacity in events (a power of two). */
size_t flightRingCapacity();

/** Record an instant event (durNs 0) into the calling thread's ring. */
void flightMark(const char *name);

/**
 * Write the flight recorder as a JSON *value* at the writer's current
 * position: {"capacity":N,"truncated":b,"threads":[{"tid":t,
 * "events":[{"name":...,"rid":...,"startNs":...,"durNs":...}]}]}.
 * @p maxEventsPerThread 0 dumps each full ring; a smaller cap keeps
 * only the newest events and sets "truncated".
 */
void writeFlightRecorderJson(JsonWriter &j,
                             size_t maxEventsPerThread = 0);

/** writeFlightRecorderJson wrapped as {"flightRecorder":...}. */
void writeFlightRecorder(std::ostream &os,
                         size_t maxEventsPerThread = 0);

/**
 * Async-signal-safe flight dump: walks a lock-free buffer list and
 * hand-formats the same JSON document straight to @p fd (no locks, no
 * allocation, write(2) only).  Events may be torn mid-overwrite under
 * concurrent writers — fields are individually consistent (each slot
 * field is an atomic) but a slot can mix two events; acceptable for a
 * best-effort postmortem.
 */
void writeFlightRecorderToFd(int fd);

/**
 * Install a fatal-signal handler (SIGSEGV/SIGBUS/SIGFPE/SIGILL/
 * SIGABRT) that dumps the flight recorder to @p path (stderr when
 * null/empty), then re-raises with the default disposition so the
 * process still dies with the original signal.  Idempotent; the path
 * is copied into static storage.
 */
void installFlightSignalHandler(const char *path);

/** RAII span; prefer the NNBATON_TRACE_SCOPE and
 *  NNBATON_TRACE_DETAIL_SCOPE macros.  A @p detail span is recorded
 *  only while tracing is on, never for the flight recorder alone. */
class TraceScope
{
  public:
    explicit TraceScope(const char *name, bool detail = false)
    {
        if (tracingEnabled() || (!detail && flightRecorderEnabled())) {
            name_ = name;
            start_ = traceNowNs();
        }
    }

    ~TraceScope()
    {
        if (name_)
            recordSpan(name_, start_, traceNowNs());
    }

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

  private:
    const char *name_ = nullptr; //!< null when tracing was off at entry
    uint64_t start_ = 0;
};

} // namespace obs
} // namespace nnbaton

#define NNBATON_TRACE_CAT2(a, b) a##b
#define NNBATON_TRACE_CAT(a, b) NNBATON_TRACE_CAT2(a, b)

#ifdef NNBATON_TRACE_DISABLED
#define NNBATON_TRACE_SCOPE(name) static_cast<void>(0)
#define NNBATON_TRACE_DETAIL_SCOPE(name) static_cast<void>(0)
#else
/** Trace the enclosing scope as a span named @p name (a literal). */
#define NNBATON_TRACE_SCOPE(name)                                       \
    ::nnbaton::obs::TraceScope NNBATON_TRACE_CAT(nnbatonTraceScope_,    \
                                                 __LINE__)(name)
/** NNBATON_TRACE_SCOPE for scopes too fine-grained for the always-on
 *  flight recorder: two clock reads each would be a measurable share
 *  of the work, and they would crowd everything else out of its ring.
 *  Recorded only while tracing is on. */
#define NNBATON_TRACE_DETAIL_SCOPE(name)                                \
    ::nnbaton::obs::TraceScope NNBATON_TRACE_CAT(nnbatonTraceScope_,    \
                                                 __LINE__)(name, true)
#endif

#endif // NNBATON_COMMON_TRACE_HPP
