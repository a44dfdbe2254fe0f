/**
 * @file
 * Test-only fault injection for the resilience machinery.
 *
 * The checkpoint/resume, quarantine and cancellation paths only fire
 * when something goes wrong, so the resilience tests need a way to
 * make things go wrong deterministically.  A FaultPlan armed via
 * armFaultPlan() asks the sweep to fail at a specific design point,
 * fail the next checkpoint write, throw from inside the mapping
 * search, or request cancellation after N completed points (the
 * kill/resume determinism test uses the latter to interrupt a sweep
 * at a seeded-random checkpoint boundary).
 *
 * Production code pays one relaxed atomic load per hook when no plan
 * is armed.  Plans are process-global; tests arm and disarm them
 * around a single sweep and never run armed sweeps concurrently.
 */

#ifndef NNBATON_VERIF_FAULT_HPP
#define NNBATON_VERIF_FAULT_HPP

#include <cstdint>

namespace nnbaton {

class CancelToken;

namespace verif {

/** What to break, and where.  -1 disables the respective fault. */
struct FaultPlan
{
    /** Throw from evaluating the design point with this sweep index. */
    int64_t failAtPoint = -1;

    /** Throw from inside pickBest() at this rung poll (a
     *  global countdown across all searches, decremented per poll). */
    int64_t failAtSearchBlock = -1;

    /** Request cancellation on the sweep's token once this many
     *  design points have completed. */
    int64_t cancelAfterPoints = -1;

    /** Make the next checkpoint write fail (cleared once it fires). */
    bool failNextCheckpointWrite = false;

    // Transport faults for the distributed sweep fabric.  Each fires
    // once when a worker receives the sweepUnit with the matching
    // coordinator-assigned unit id, then clears, so the coordinator's
    // retry/re-lease path gets a healthy worker on the next attempt
    // (killWorkerAtUnit is the exception — the worker stays down and
    // the unit must be re-leased elsewhere).

    /** Drop the connection without answering this unit. */
    int64_t dropConnAtUnit = -1;

    /** Stall this unit's response by stallUnitMs before answering
     *  (past the coordinator's I/O timeout = a wedged worker). */
    int64_t stallAtUnit = -1;
    int64_t stallUnitMs = 0;

    /** Answer this unit with a corrupted (non-protocol) frame. */
    int64_t corruptFrameAtUnit = -1;

    /** Kill the worker mid-unit: drop the connection AND stop the
     *  whole server, as a crash would. */
    int64_t killWorkerAtUnit = -1;
};

/** Install @p plan process-wide (overwrites any previous plan). */
void armFaultPlan(const FaultPlan &plan);

/** Remove the armed plan; all hooks become no-ops again. */
void disarmFaultPlan();

/** True while a plan is armed (one relaxed atomic load). */
bool faultPlanArmed();

/**
 * Sweep-engine hooks.  Each is a no-op unless a plan is armed and the
 * corresponding fault matches.
 */

/** Throws StatusError(Internal) when @p index == failAtPoint. */
void injectPointFault(int64_t index);

/** Throws StatusError(Internal) when the armed search-block countdown
 *  reaches zero. */
void injectSearchBlockFault();

/** True when the next checkpoint write should fail; clears the
 *  one-shot flag as it fires. */
bool injectCheckpointWriteFailure();

/** Called after each completed design point; requests cancellation on
 *  @p cancel once cancelAfterPoints points have completed. */
void notifyPointCompleted(CancelToken *cancel);

/** What the transport should do to the sweepUnit with @p unitId. */
enum class TransportFault
{
    None,
    DropConnection, //!< close without answering
    Stall,          //!< sleep stallMs, then answer normally
    CorruptFrame,   //!< answer with a garbage frame
    KillWorker,     //!< drop the connection and stop the server
};

/**
 * Consume the armed transport fault matching @p unitId, if any
 * (one-shot: the matched fault clears as it fires).  For Stall,
 * @p stallMs receives the armed delay.
 */
TransportFault injectTransportFault(int64_t unitId, int64_t *stallMs);

} // namespace verif
} // namespace nnbaton

#endif // NNBATON_VERIF_FAULT_HPP
