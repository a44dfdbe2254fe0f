/**
 * @file
 * A minimal thread-pool / parallel-for utility for the sweep engines
 * (no external dependencies, std::thread + an atomic work queue).
 *
 * Design rules, chosen for the sweep and serving callers:
 *
 *  - The calling thread participates in the work, so a pool with N
 *    workers runs N + 1 lanes and `ThreadPool(0)` degenerates to a
 *    plain serial loop.
 *  - Nested parallelFor() calls run inline on the calling worker
 *    (nested-free): the sweep parallelises across design points and
 *    the per-point mapping searches then execute serially inside the
 *    worker, so thread counts never multiply.
 *  - The first exception thrown by any index is captured, remaining
 *    indices are abandoned, and the exception is rethrown on the
 *    calling thread after all workers drain.
 *  - Indices are handed out through a single atomic counter, so the
 *    schedule is work-stealing-free and allocation-free; callers that
 *    need determinism must make per-index work order-independent
 *    (write to slot i, reduce afterwards in index order).
 */

#ifndef NNBATON_COMMON_PARALLEL_HPP
#define NNBATON_COMMON_PARALLEL_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nnbaton {

/** std::thread::hardware_concurrency with a floor of one. */
int hardwareThreads();

/**
 * A persistent pool of worker threads executing blocking
 * parallel-for jobs.
 *
 * @code
 *   ThreadPool pool(4);             // 3 workers + the caller
 *   std::vector<double> out(n);
 *   pool.parallelFor(n, [&](int64_t i) { out[i] = f(i); });
 * @endcode
 */
class ThreadPool
{
  public:
    /**
     * @p threads is the total lane count including the calling
     * thread; values <= 1 create no workers (serial pool).
     */
    explicit ThreadPool(int threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total execution lanes (workers + the calling thread). */
    int threads() const
    {
        return static_cast<int>(workers_.size()) + 1;
    }

    /**
     * Run fn(i) for every i in [0, n).  Blocks until all indices
     * finish; rethrows the first exception.  Serial (inline) when the
     * pool has no workers, when n <= 1, or when called from inside a
     * parallelFor body (nested-free guarantee).
     */
    void parallelFor(int64_t n, const std::function<void(int64_t)> &fn);

    /** True while the current thread executes a parallelFor body. */
    static bool inParallelRegion();

  private:
    void workerLoop();
    void runIndices(const std::function<void(int64_t)> &fn);

    std::vector<std::thread> workers_;

    std::mutex m_;
    std::condition_variable wake_; //!< workers wait for a job
    std::condition_variable done_; //!< caller waits for completion
    uint64_t jobId_ = 0;           //!< bumped per parallelFor call
    int active_ = 0;               //!< workers still in the current job
    bool stop_ = false;

    // Current job (valid while active_ > 0 or the caller is running).
    const std::function<void(int64_t)> *fn_ = nullptr;
    int64_t n_ = 0;
    std::atomic<int64_t> next_{0};
    std::exception_ptr error_; //!< first captured exception
};

} // namespace nnbaton

#endif // NNBATON_COMMON_PARALLEL_HPP
