/**
 * @file
 * The HERMES tempo controller — the paper's core contribution
 * (Figure 5), factored out of any particular scheduler.
 *
 * The controller consumes five scheduler events and drives a DVFS
 * backend:
 *
 *  - onStealSuccess(thief, victim): Thief Procrastination — the thief
 *    is set one tempo below its victim (DOWN(w, v)) and spliced into
 *    the immediacy list right after the victim (Figure 5 lines
 *    20-26).
 *  - onOutOfWork(w): Immediacy Relay — every worker downstream of w
 *    gets one tempo step up, then w is unlinked (lines 6-14).
 *  - onPush(w, size): workload control — crossing a threshold upward
 *    raises w's tempo (Algorithm 3.3).
 *  - onPopSuccess(w, size) / onVictimStolen(v, size): crossing a
 *    threshold downward lowers the tempo (Algorithms 3.4/3.5), unless
 *    the worker heads the immediacy list (`prev == null` guard, the
 *    single interaction point between the two strategies).
 *
 * Both execution substrates — the threaded runtime and the
 * discrete-event simulator — call these same hooks, so the algorithm
 * under test is literally identical code in both.
 *
 * Thread safety: state is split by owner, so the per-task hooks of
 * different workers never meet on one lock.
 *
 *  - Each worker has a cache-line-aligned slot holding its tempo,
 *    workload region, parked flag, threshold profiler and its share of
 *    the counters, under a per-slot lock. The owner takes it on
 *    push/pop/park/wake. Another worker takes it only for the rare
 *    cross-worker writes: onVictimStolen(victim) (the thief updates
 *    the victim's region) and the relay's one-step UP of each
 *    downstream thief. A thief's procrastination DOWN in
 *    onStealSuccess takes its own slot lock inside the list lock.
 *  - onOutOfWork(w) runs on w's own thread and takes no slot lock: it
 *    marks the slot `dry` (the next reconcile, by whichever thread,
 *    restarts from region 0 — exactly what resetting the region on
 *    the spot would do) and bumps a counter that only w writes.
 *  - One list lock covers the immediacy-list structure: the splice in
 *    onStealSuccess and the relay walk plus unlink in onOutOfWork.
 *    Nothing else takes it.
 *  - Lock order is list -> slot -> DVFS backend. No path takes the
 *    list lock while it holds a slot lock, and at most one slot lock
 *    is held at a time. The `domainOf` callback and the backend are
 *    invoked under a slot lock and must not call back into the
 *    controller.
 *  - tempoOf(), frequencyOf(), nextOf() and prevOf() are lock-free
 *    relaxed loads: the tempo is an atomic written only under its slot
 *    lock, and the list links are atomics written only under the list
 *    lock. counters() sums the slots one at a time.
 *
 * Two list reads run without the list lock, and both are benign. The
 * unified head guard reads `prevOf(w)` under w's slot lock only, and
 * onOutOfWork(w) pre-tests `linked(w)` to skip the list lock in the
 * common case where w already left the list on an earlier hunt. A
 * splice racing with either read is one that, under a single global
 * lock, could equally have landed just after the hook: the read sees
 * each link before or after the concurrent store, and the hook's
 * outcome is that of one of the two serial orders. Likewise a relay
 * that finds a thief already at the fastest tempo skips its slot
 * lock: an UP there is a no-op, and a concurrent DOWN by the owner
 * simply orders after the relay.
 *
 * The discrete-event simulator drives every hook from one thread, so
 * its tempo decisions, DVFS calls and counters are exactly those of a
 * single-lock controller.
 */

#ifndef HERMES_CORE_TEMPO_CONTROLLER_HPP
#define HERMES_CORE_TEMPO_CONTROLLER_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/immediacy_list.hpp"
#include "core/policy.hpp"
#include "core/threshold_profiler.hpp"
#include "core/worker_id.hpp"
#include "dvfs/backend.hpp"
#include "platform/frequency.hpp"
#include "util/assert.hpp"

namespace hermes::core {

/** Event counters for overhead analysis and tests. */
struct TempoCounters
{
    uint64_t stealDowns = 0;     ///< thief-procrastination DOWNs
    uint64_t relayUps = 0;       ///< immediacy-relay UPs
    uint64_t workloadUps = 0;    ///< threshold-crossing UPs
    uint64_t workloadDowns = 0;  ///< threshold-crossing DOWNs
    uint64_t guardBlocks = 0;    ///< downs blocked by prev==null
    uint64_t outOfWorkEvents = 0;
    uint64_t profilerPeriods = 0;
    uint64_t parkEvents = 0;     ///< workers entering the parked state
    uint64_t wakeEvents = 0;     ///< workers leaving the parked state
};

/** Figure 5's unified algorithm over an abstract DVFS backend. */
class TempoController
{
  public:
    /** Maps a worker to the clock domain currently hosting it (under
     * dynamic scheduling this changes between tasks). */
    using DomainLookup = std::function<platform::DomainId(WorkerId)>;

    /**
     * @param config policy, usable ladder (N-frequency selection,
     *        must be set — substrates resolve defaults before
     *        constructing), K, profiler window
     * @param backend DVFS sink; must outlive the controller
     * @param num_workers dense worker-id space size
     * @param domain_of worker -> clock domain lookup
     */
    TempoController(TempoConfig config, dvfs::DvfsBackend &backend,
                    unsigned num_workers, DomainLookup domain_of);

    /** Bootstrap: every worker at the fastest tempo (Section 3.2),
     * lists cleared, profilers reset. */
    void reset(double now);

    /** Hook: `thief` successfully stole from `victim` at `now`. A
     * bulk steal-half grab is still one steal event — thief
     * procrastination fires once per grab, like the single steal it
     * replaces; the surplus re-enters through onPush() as the thief
     * stocks its own deque (docs/STEALING.md). */
    void onStealSuccess(WorkerId thief, WorkerId victim, double now);

    /** Hook: `w` found its deque empty (before hunting for victims).
     * Must be called on `w`'s own thread (see the thread-safety
     * notes above). */
    void onOutOfWork(WorkerId w, double now);

    /** Hook: `w` pushed; deque size is now `deque_size`. Fired for
     * spawned tasks and for bulk-steal surplus tasks alike, so
     * workload-threshold control sees the worker's real backlog. */
    void onPush(WorkerId w, size_t deque_size, double now);

    /** Hook: `w` popped successfully; size is now `deque_size`. */
    void onPopSuccess(WorkerId w, size_t deque_size, double now);

    /** Hook: `victim` was stolen from; size is now `deque_size`. */
    void onVictimStolen(WorkerId victim, size_t deque_size,
                        double now);

    /**
     * Hook: `w` parked (actually blocked on the runtime's lot;
     * aborted parks are not reported, keeping `parkEvents` aligned
     * with `RuntimeStats::parks`). Parking is the fifth worker state
     * the controller tracks — distinct from busy, hunting, yielding,
     * and the four deque events. It deliberately
     * changes no frequency: Section 3.4's no-frequency-change-on-
     * yield rule extends to parking (the energy saving comes from the
     * core's C-state, modeled in energy::PowerModel::parkedPower, not
     * from a P-state move), and `w` already left the immediacy list
     * through the onOutOfWork() that preceded its empty hunts.
     */
    void onPark(WorkerId w, double now);

    /** Hook: `w` returned from a blocked park (notified or
     * spurious). Tempo is untouched; the next steal/push event
     * repositions `w`. */
    void onWake(WorkerId w, double now);

    // --- introspection (tests, reports) ---

    /** Whether `w` is currently in the parked state. */
    bool parkedOf(WorkerId w) const;

    /** Current tempo of `w` as a ladder index (0 = fastest). */
    platform::FreqIndex tempoOf(WorkerId w) const;

    /** Current frequency of `w` in MHz. */
    platform::FreqMhz frequencyOf(WorkerId w) const;

    /** Immediacy-list successor / predecessor of `w`. */
    WorkerId nextOf(WorkerId w) const;
    WorkerId prevOf(WorkerId w) const;

    /** The immediacy list itself, for invariant checks; its links
     * may be read without the controller's locks. */
    const ImmediacyList &immediacyList() const { return list_; }

    /** Current workload region S of `w` (0 = emptiest). */
    unsigned regionOf(WorkerId w) const;

    /** Current thresholds of `w` (ascending, size K). */
    std::vector<double> thresholdsOf(WorkerId w) const;

    TempoCounters counters() const;

    const TempoConfig &config() const { return config_; }

    /** The resolved usable ladder (N-frequency selection). */
    const platform::FrequencyLadder &ladder() const { return ladder_; }

    unsigned numWorkers() const { return numWorkers_; }

  private:
    /** Slowest usable rung (N-1 under N-frequency control). */
    platform::FreqIndex slowestIndex() const
    {
        return ladder_.size() - 1;
    }

    /** Test-and-test-and-set lock: one exchange to take and one
     * plain store to release when uncontended, and the owner takes
     * its slot's lock on every push and pop. Holders run a few dozen
     * instructions plus at most a DVFS request, so a waiter spins
     * briefly and then yields. */
    class SpinLock
    {
      public:
        void lock()
        {
            while (held_.exchange(true, std::memory_order_acquire)) {
                for (unsigned spins = 0;
                     held_.load(std::memory_order_relaxed);) {
                    if (++spins % 64 == 0)
                        std::this_thread::yield();
                }
            }
        }

        void unlock() { held_.store(false, std::memory_order_release); }

      private:
        std::atomic<bool> held_{false};
    };

    using Guard = std::lock_guard<SpinLock>;

    /** One worker's tempo state, on its own cache lines. The plain
     * fields are read and written only under `lock`; `tempo` is also
     * written only under it, but read lock-free. */
    struct alignas(64) Slot
    {
        mutable SpinLock lock;
        std::atomic<platform::FreqIndex> tempo{0};
        unsigned region = 0;   ///< workload region S
        bool parked = false;   ///< the fifth worker state
        /** Set by onOutOfWork without the lock: the deque ran dry, so
         * the region reads as 0 until the next reconcile applies it. */
        std::atomic<bool> dry{false};
        /** onOutOfWork count; written only by the owner's thread. */
        std::atomic<uint64_t> outOfWork{0};
        /** Sized from the config by the constructor and reset(). */
        ThresholdProfiler profiler{1, 1};
        /** All but outOfWorkEvents and relayUps, which are kept in
         * `outOfWork` and relayUps_. */
        TempoCounters counters;
    };

    void validate(WorkerId w) const
    {
        HERMES_ASSERT(w < numWorkers_,
                      "worker " << w << " out of range");
    }

    /** Apply `idx` to `w`'s hosting domain; records nothing if the
     * tempo is unchanged. Caller holds w's slot lock. */
    void setTempo(WorkerId w, platform::FreqIndex idx, double now);

    /** One step faster (clamped). Caller holds w's slot lock. */
    void up(WorkerId w, double now);

    /** One step slower (clamped). Caller holds w's slot lock. */
    void down(WorkerId w, double now);

    /**
     * Workload reconciliation: move w's region S stepwise toward the
     * region implied by `deque_size`, raising or lowering the tempo
     * one step per threshold crossed. Downward steps honour the
     * unified-policy head guard. Takes w's slot lock.
     */
    void reconcileWorkload(WorkerId w, size_t deque_size, double now);

    TempoConfig config_;
    platform::FrequencyLadder ladder_;
    dvfs::DvfsBackend &backend_;
    unsigned numWorkers_;
    DomainLookup domainOf_;

    /** Guards list_'s structure (splice, relay walk, unlink) and
     * relayUps_. */
    mutable SpinLock listLock_;
    ImmediacyList list_;
    uint64_t relayUps_ = 0;
    std::vector<Slot> slots_;
};

} // namespace hermes::core

#endif // HERMES_CORE_TEMPO_CONTROLLER_HPP
