/**
 * @file
 * The immediacy list (Section 3.3, Figure 5).
 *
 * A doubly-linked list threaded through the workers via `next`/`prev`
 * indices. If w1.next == w2, worker w2 is processing work immediately
 * following w1's (w2 stole from w1, or from one of w1's descendants
 * that has since retired). The head of a chain (prev == invalid) holds
 * the most immediate work and is never slowed by workload rules.
 *
 * Implemented over dense arrays rather than pointer nodes: workers are
 * a small fixed population and the controller indexes them constantly.
 * Not internally synchronized — the tempo controller serializes every
 * mutation under its list lock. The links are atomics so that reads
 * (nextOf, prevOf, linked, isHead) may also run without that lock:
 * every access is a relaxed load or store, so an unlocked reader sees
 * each link either before or after a concurrent splice, never torn.
 */

#ifndef HERMES_CORE_IMMEDIACY_LIST_HPP
#define HERMES_CORE_IMMEDIACY_LIST_HPP

#include <atomic>
#include <vector>

#include "core/worker_id.hpp"
#include "util/assert.hpp"

namespace hermes::core {

/** Dense doubly-linked immediacy list over worker ids. */
class ImmediacyList
{
  public:
    /** All workers start unlinked. */
    explicit ImmediacyList(unsigned num_workers);

    unsigned numWorkers() const
    {
        return static_cast<unsigned>(next_.size());
    }

    WorkerId nextOf(WorkerId w) const
    {
        validate(w);
        return load(next_[w]);
    }

    WorkerId prevOf(WorkerId w) const
    {
        validate(w);
        return load(prev_[w]);
    }

    /** Whether `w` belongs to any chain. */
    bool linked(WorkerId w) const
    {
        return nextOf(w) != invalidWorker
            || prevOf(w) != invalidWorker;
    }

    /** Whether `w` heads a chain (has a successor but no
     * predecessor). */
    bool isHead(WorkerId w) const
    {
        return prevOf(w) == invalidWorker
            && nextOf(w) != invalidWorker;
    }

    /**
     * Insert thief `w` immediately after victim `v` (Figure 5 lines
     * 20-26). If `v` already has a thief, `w` is spliced between them
     * — the newer thief holds more immediate work (its stolen task
     * came from nearer the tail of v's deque). `w` must be unlinked.
     *
     * Note: Figure 5 line 23 reads "v.prev <- w.prev", which would
     * corrupt the victim's predecessor; the intended splice (shown in
     * the surrounding prose) is "v.next.prev <- w", which is what we
     * implement.
     */
    void insertAfter(WorkerId v, WorkerId w);

    /**
     * Remove `w` from its chain, reconnecting neighbours (Figure 5
     * lines 11-14). No-op if `w` is unlinked.
     */
    void unlink(WorkerId w);

    /**
     * Apply `fn` to every worker strictly downstream of `w`
     * (w.next, w.next.next, ...) — the immediacy-relay walk
     * (Figure 5 lines 7-10).
     */
    template <typename Fn>
    void forEachDownstream(WorkerId w, Fn &&fn) const
    {
        validate(w);
        unsigned guard = 0;
        for (WorkerId cur = load(next_[w]); cur != invalidWorker;
             cur = load(next_[cur])) {
            HERMES_ASSERT(++guard <= next_.size(),
                          "cycle detected in immediacy list");
            fn(cur);
        }
    }

    /** Number of workers downstream of `w`. */
    unsigned downstreamCount(WorkerId w) const;

    /** Reset every worker to unlinked. */
    void clear();

    /**
     * Validate structural invariants (next/prev symmetry, no cycles);
     * panics on violation. Used by tests and debug builds.
     */
    void checkInvariants() const;

  private:
    void validate(WorkerId w) const
    {
        HERMES_ASSERT(w < next_.size(),
                      "worker " << w << " out of range");
    }

    static WorkerId load(const std::atomic<WorkerId> &link)
    {
        return link.load(std::memory_order_relaxed);
    }

    static void store(std::atomic<WorkerId> &link, WorkerId to)
    {
        link.store(to, std::memory_order_relaxed);
    }

    std::vector<std::atomic<WorkerId>> next_;
    std::vector<std::atomic<WorkerId>> prev_;
};

} // namespace hermes::core

#endif // HERMES_CORE_IMMEDIACY_LIST_HPP
