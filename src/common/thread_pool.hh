/**
 * @file
 * Work-stealing fixed-size thread pool for the sweep engine.
 *
 * One pool per process (ThreadPool::global()) sized from the
 * RTOC_THREADS environment variable or hardware concurrency. The only
 * primitive is parallelFor(n, fn[, grain]): the index range is split
 * into per-participant deques (Chase–Lev-style: the owner claims from
 * the front of its own range, idle participants steal from the back of
 * a victim's range, both through one CAS'd head/tail word). Relative to
 * the previous single shared-counter queue, a worker that drains its
 * block early migrates to whichever block still has work, so skewed
 * task lengths (relin-vs-fixed-trim cells, fueled-rocket episodes) no
 * longer leave workers idle behind one slow peer.
 *
 * Nested parallelFor calls from inside a worker run inline, so composed
 * sweeps cannot deadlock — the outermost fan-out owns the pool.
 *
 * The optional grain groups @p grain consecutive indices into one
 * claimable task (executed in ascending index order), amortizing the
 * per-task claim/wake overhead when individual tasks are tiny (1-tick
 * smoke episodes). SweepRunner picks it per fan-out (see
 * hil/sweep.hh).
 *
 * Determinism contract: fn(i) must depend only on i (each sweep task
 * seeds its own RNG from its index). parallelFor imposes no ordering —
 * stealing makes execution order nondeterministic by design — so
 * callers that aggregate must do so over an index-ordered result
 * array, never in completion order. Neither the thread count nor the
 * grain can change what any fn(i) computes.
 */

#ifndef RTOC_COMMON_THREAD_POOL_HH
#define RTOC_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rtoc {

/**
 * One participant's claimable range of task ids. head/tail live in a
 * single atomic word: the owner pops from the front (head+1), thieves
 * pop from the back (tail-1), and the shared CAS makes the two ends
 * collide safely on the last element. Tasks are never pushed while a
 * job runs (nested submits run inline), so a deque only ever shrinks.
 */
class WorkDeque
{
  public:
    /** Non-atomic rearm before the job is published to workers. */
    void
    init(size_t begin, size_t end)
    {
        span_.store(pack(static_cast<uint32_t>(begin),
                         static_cast<uint32_t>(end)),
                    std::memory_order_relaxed);
    }

    /** Owner side: claim the lowest remaining task id. */
    bool
    popFront(size_t &out)
    {
        uint64_t s = span_.load(std::memory_order_relaxed);
        while (true) {
            uint32_t head = unpackHead(s);
            uint32_t tail = unpackTail(s);
            if (head >= tail)
                return false;
            if (span_.compare_exchange_weak(s, pack(head + 1, tail),
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
                out = head;
                return true;
            }
        }
    }

    /** Thief side: claim the highest remaining task id. */
    bool
    stealBack(size_t &out)
    {
        uint64_t s = span_.load(std::memory_order_relaxed);
        while (true) {
            uint32_t head = unpackHead(s);
            uint32_t tail = unpackTail(s);
            if (head >= tail)
                return false;
            if (span_.compare_exchange_weak(s, pack(head, tail - 1),
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed)) {
                out = tail - 1;
                return true;
            }
        }
    }

  private:
    static uint64_t
    pack(uint32_t head, uint32_t tail)
    {
        return (static_cast<uint64_t>(tail) << 32) | head;
    }
    static uint32_t unpackHead(uint64_t s)
    {
        return static_cast<uint32_t>(s);
    }
    static uint32_t unpackTail(uint64_t s)
    {
        return static_cast<uint32_t>(s >> 32);
    }

    /** Padded so per-participant deques never false-share. */
    alignas(64) std::atomic<uint64_t> span_{0};
};

/** Fixed-size worker pool with a work-stealing fan-out primitive. */
class ThreadPool
{
  public:
    /** @param threads total parallelism; <=1 means run everything
     *  inline on the caller. */
    explicit ThreadPool(int threads);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total parallelism (workers + the participating caller). */
    int threads() const { return threads_; }

    /**
     * Run fn(0..n-1), distributing indices over the pool. Blocks until
     * every index has completed. Exceptions from fn propagate to the
     * caller (first one wins; the rest of the range still drains).
     *
     * @p grain groups that many consecutive indices into one claimable
     * task; within a task, indices execute in ascending order. grain
     * affects scheduling only — results are independent of it.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn,
                     size_t grain = 1);

    /**
     * Process-wide pool. Size: RTOC_THREADS when set, else hardware
     * concurrency. Constructed on first use.
     */
    static ThreadPool &global();

  private:
    struct Job
    {
        const std::function<void(size_t)> *fn = nullptr;
        size_t limit = 0;          ///< index count (fn domain)
        size_t grain = 1;          ///< indices per claimable task
        size_t tasks = 0;          ///< ceil(limit / grain)
        std::vector<WorkDeque> deques; ///< one per participant
        std::atomic<size_t> done{0};   ///< completed tasks
        std::exception_ptr error;
        std::mutex errorMu;
    };

    void workerLoop(int slot);

    /** Run task @p t (its grain-sized index span) guarding errors. */
    static void runTask(Job &job, size_t t);

    /** Drain as participant @p slot: own deque first, then steal. */
    void drainAs(Job &job, int slot);

    int threads_ = 1;
    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable cv_;      ///< wakes workers for a new job
    std::condition_variable doneCv_;  ///< wakes the submitting caller
    std::shared_ptr<Job> job_;
    uint64_t generation_ = 0;
    bool stop_ = false;

    std::mutex submitMu_; ///< serializes top-level parallelFor calls
};

} // namespace rtoc

#endif // RTOC_COMMON_THREAD_POOL_HH
