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
    // The first failing task claims the slot; its error_ write is
    // published to waiters by its own finish() (release), which the
    // waiter's zero read acquires.
    int expected = kNoError;
    if (errorState_.compare_exchange_strong(expected, kRecorded,
                                            std::memory_order_acq_rel))
        error_ = std::move(error);
}

void
TaskGroup::rethrowIfError()
{
    // Exactly one of several concurrent waiters wins kRecorded →
    // kTaken; it empties the slot before reopening it, so the others
    // return normally and a reused group starts clean.
    int expected = kRecorded;
    if (!errorState_.compare_exchange_strong(expected, kTaken,
                                             std::memory_order_acq_rel))
        return;
    std::exception_ptr error = std::move(error_);
    error_ = nullptr;
    errorState_.store(kNoError, std::memory_order_release);
    std::rethrow_exception(error);
}

} // namespace hermes::runtime
