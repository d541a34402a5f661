/**
 * @file
 * The external-submission (inject) path: one lock-free bounded MPMC
 * ring, with a mutex-guarded spillover so submission never drops a
 * task or blocks unboundedly.
 *
 * External producers — threads that are not workers of the target
 * runtime — enqueue root tasks into a Vyukov-style bounded MPMC ring
 * (per-cell sequence numbers: a cell whose sequence equals the
 * enqueue position is free, one past the dequeue position is full).
 * When the ring is full the task spills to a mutex-guarded deque
 * instead of failing: `push` always succeeds, the mutex is simply not
 * on the fast path. The scheduler-facing protocol (who publishes the
 * Dekker handshake word, why a parked worker cannot sleep through a
 * submission) is documented in docs/ARCHITECTURE.md; this file only
 * stores and hands back tasks.
 */

#ifndef HERMES_RUNTIME_INJECT_QUEUE_HPP
#define HERMES_RUNTIME_INJECT_QUEUE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "runtime/task.hpp"

namespace hermes::runtime {

/**
 * Bounded lock-free MPMC ring with per-cell sequence numbers
 * (Vyukov's algorithm).
 *
 * Each cell carries a sequence word. A producer may claim enqueue
 * position `p` only while `cell[p % cap].seq == p` (the cell is
 * free); after moving the task in it publishes `seq = p + 1`. A
 * consumer may claim dequeue position `p` only while `seq == p + 1`
 * (the cell is full); after moving the task out it publishes
 * `seq = p + cap`, freeing the cell for the producer one lap ahead.
 * Claims race on the position counters with weak CAS; the sequence
 * check makes a claimed cell private to its claimant, so the task
 * move itself is uncontended. Both operations are non-blocking:
 * `tryPush` fails on a full ring, `tryPop` on an empty one, and
 * neither spins on a stalled peer.
 */
class InjectRing
{
  public:
    /** @param capacity ring capacity in tasks; rounded up to 2^k,
     *        minimum 2. */
    explicit InjectRing(size_t capacity);

    InjectRing(const InjectRing &) = delete;
    InjectRing &operator=(const InjectRing &) = delete;

    /**
     * Enqueue at the tail.
     * @param t consumed only on success; intact when the ring is
     *        full so the caller can spill it
     * @return false if the ring is full
     */
    bool tryPush(Task &&t);

    /**
     * Dequeue from the head (FIFO).
     * @param out receives the task on success
     * @return false if the ring is empty
     */
    bool tryPop(Task &out);

    size_t capacity() const { return mask_ + 1; }

  private:
    struct Cell
    {
        std::atomic<size_t> seq{0};
        Task task;
    };

    std::unique_ptr<Cell[]> cells_;
    size_t mask_;
    /** Producer and consumer claim words on separate cachelines so
     * push traffic never invalidates the pop side and vice versa. */
    alignas(64) std::atomic<size_t> enqueuePos_{0};
    alignas(64) std::atomic<size_t> dequeuePos_{0};
};

/**
 * The inject queue: one InjectRing plus a mutex-guarded spillover
 * deque.
 *
 * The queue stores tasks only — the Dekker publish word
 * (`Runtime::injectPending_`), wake notification, and all counters
 * stay in the scheduler, next to the parking proof
 * (docs/ARCHITECTURE.md).
 */
class InjectQueue
{
  public:
    /**
     * Opportunistic spill drain-back bound: after a pop frees ring
     * room, up to this many of the oldest spilled tasks move back
     * into the ring, so sustained overflow regains (rough) FIFO
     * instead of stranding spilled tasks behind a constantly
     * refilling ring. `RuntimeStats::injectDrainBack` counts moved
     * tasks.
     */
    static constexpr unsigned kDrainBackBatch = 8;

    /** Where a push landed. */
    enum class PushPath
    {
        Ring, ///< lock-free fast path (the ring had room)
        Spill ///< mutex-guarded overflow (the ring was full)
    };

    /** Where a pop was satisfied from. */
    enum class PopSource
    {
        None, ///< nothing claimable
        Ring, ///< the lock-free ring
        Spill ///< the overflow deque
    };

    /**
     * @param capacity ring capacity in tasks (rounded up to 2^k,
     *        >= 2); submissions beyond a full ring spill, and
     *        `RuntimeStats::injectSpill` counts how often the
     *        capacity was too small for the offered load
     */
    explicit InjectQueue(size_t capacity);

    InjectQueue(const InjectQueue &) = delete;
    InjectQueue &operator=(const InjectQueue &) = delete;

    /**
     * Enqueue `t`, never failing and never blocking beyond the
     * spillover mutex (taken only when the ring is full).
     * @param t always consumed
     * @return which path the task landed on
     */
    PushPath push(Task &&t);

    /**
     * Dequeue one task: the ring first, then the spillover. A `None`
     * return does not prove the queue is empty — a concurrent
     * producer may be between its claim and its publish — so callers
     * gate retries on the scheduler's pending counter, not on this
     * result.
     * @param out receives the task on success
     * @return where the task came from, or None
     */
    PopSource tryPop(Task &out);

    /** Racy spillover depth estimate (exact only when quiescent). */
    size_t spillSizeApprox() const
    {
        return spillSize_.load(std::memory_order_relaxed);
    }

    /** Total spilled tasks moved back into the ring by the
     * opportunistic drain-back (see kDrainBackBatch). */
    uint64_t
    drainBacks() const
    {
        return drainBacks_.load(std::memory_order_relaxed);
    }

  private:
    /** Move up to kDrainBackBatch spilled tasks into the ring
     * (oldest first), stopping when either runs out of room/tasks.
     * Called right after a pop freed at least one slot. */
    void drainBack();

    InjectRing ring_;
    std::mutex spillMutex_;
    std::deque<Task> spill_;
    /** Lets tryPop skip the spill mutex while the overflow is empty
     * (the common case once the ring capacity fits the offered
     * load). */
    std::atomic<size_t> spillSize_{0};
    std::atomic<uint64_t> drainBacks_{0};
};

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_INJECT_QUEUE_HPP
