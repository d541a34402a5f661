#include "core/immediacy_list.hpp"

#include "util/assert.hpp"

namespace hermes::core {

ImmediacyList::ImmediacyList(unsigned num_workers)
    : next_(num_workers), prev_(num_workers)
{
    HERMES_ASSERT(num_workers > 0, "need at least one worker");
    clear();
}

void
ImmediacyList::insertAfter(WorkerId v, WorkerId w)
{
    validate(v);
    validate(w);
    HERMES_ASSERT(v != w, "worker cannot steal from itself");
    HERMES_ASSERT(!linked(w),
                  "thief " << w << " must be unlinked before insert");

    const WorkerId old_next = load(next_[v]);
    if (old_next != invalidWorker) {
        store(next_[w], old_next);
        store(prev_[old_next], w);
    }
    store(next_[v], w);
    store(prev_[w], v);
}

void
ImmediacyList::unlink(WorkerId w)
{
    validate(w);
    const WorkerId p = load(prev_[w]);
    const WorkerId n = load(next_[w]);
    if (p != invalidWorker)
        store(next_[p], n);
    if (n != invalidWorker)
        store(prev_[n], p);
    store(next_[w], invalidWorker);
    store(prev_[w], invalidWorker);
}

unsigned
ImmediacyList::downstreamCount(WorkerId w) const
{
    unsigned count = 0;
    forEachDownstream(w, [&](WorkerId) { ++count; });
    return count;
}

void
ImmediacyList::clear()
{
    for (auto &n : next_)
        store(n, invalidWorker);
    for (auto &p : prev_)
        store(p, invalidWorker);
}

void
ImmediacyList::checkInvariants() const
{
    for (WorkerId w = 0; w < next_.size(); ++w) {
        const WorkerId n = load(next_[w]);
        const WorkerId p = load(prev_[w]);
        if (n != invalidWorker) {
            HERMES_ASSERT(n < next_.size(),
                          "dangling next pointer at worker " << w);
            HERMES_ASSERT(load(prev_[n]) == w,
                          "next/prev asymmetry at worker " << w);
        }
        if (p != invalidWorker) {
            HERMES_ASSERT(p < next_.size(),
                          "dangling prev pointer at worker " << w);
            HERMES_ASSERT(load(next_[p]) == w,
                          "prev/next asymmetry at worker " << w);
        }
        // Cycle check: walking downstream must terminate.
        (void)downstreamCount(w);
    }
}

} // namespace hermes::core
