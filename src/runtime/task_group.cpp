#include "runtime/task_group.hpp"

#include <thread>

#include "runtime/scheduler.hpp"
#include "util/assert.hpp"

namespace hermes::runtime {

TaskGroup::~TaskGroup()
{
    HERMES_ASSERT(pending() == 0,
                  "TaskGroup destroyed with tasks still pending; "
                  "call wait() first");
    // An error no waiter took (the group was never waited on).
    delete error_.load(std::memory_order_acquire);
}

void
TaskGroup::run(TaskFn fn)
{
    rt_.spawn(*this, std::move(fn));
}

void
TaskGroup::wait()
{
    Runtime *rt = Runtime::current();
    const core::WorkerId id = Runtime::currentWorker();

    if (rt == &rt_ && id != core::invalidWorker) {
        // A worker at a sync point keeps scheduling: its own deque
        // first (our children sit there), then stealing — the same
        // loop as Algorithm 2.1.
        while (pending_.load(std::memory_order_acquire) != 0) {
            if (!rt_.findAndExecute(id))
                std::this_thread::yield();
        }
    } else {
        // atomic::wait returns only once the loaded value differs
        // from `left`, and the loop re-checks, so spurious wakes
        // (including a notify meant for a group that used to live at
        // this address) cost one extra load.
        for (int left = pending_.load(std::memory_order_acquire);
             left != 0;
             left = pending_.load(std::memory_order_acquire))
            pending_.wait(left, std::memory_order_acquire);
    }
    rethrowIfError();
}

void
TaskGroup::finish()
{
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // From here on the group may already be gone: a worker
        // waiter polling pending_ (or an external one woken
        // spuriously) can see zero, return, and destroy the group
        // before the line below runs. The notify therefore must not
        // touch the group's memory, and it does not: in libstdc++,
        // notify_all on an int-sized atomic reads only the global
        // waiter pool (hashed by address) and then issues
        // FUTEX_WAKE_PRIVATE on the address. A private-futex wake is
        // keyed by the address value alone; the kernel never reads
        // the word, so a freed or reused address at worst wakes an
        // unrelated waiter, which re-checks and sleeps again.
        pending_.notify_all();
    }
}

void
TaskGroup::recordException(std::exception_ptr error)
{
    // The first failing task installs its box; its write of the box
    // is published to waiters by its own finish() (release), which
    // the waiter's zero read acquires. Later errors are dropped, and
    // the load skips their allocation in the common case.
    if (error_.load(std::memory_order_relaxed) != nullptr)
        return;
    auto *box = new std::exception_ptr(std::move(error));
    std::exception_ptr *expected = nullptr;
    if (!error_.compare_exchange_strong(expected, box,
                                        std::memory_order_acq_rel))
        delete box;
}

void
TaskGroup::rethrowIfError()
{
    // Exactly one of several concurrent waiters takes the box; the
    // slot is empty again at once, so the others return normally
    // and a reused group starts clean. The plain load keeps the
    // error-free wait (every fork-join join) free of a locked RMW.
    if (error_.load(std::memory_order_acquire) == nullptr)
        return;
    std::exception_ptr *box =
        error_.exchange(nullptr, std::memory_order_acq_rel);
    if (box == nullptr)
        return;
    std::exception_ptr error = std::move(*box);
    delete box;
    std::rethrow_exception(error);
}

} // namespace hermes::runtime
