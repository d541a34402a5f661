/**
 * @file
 * Structured spawn/sync.
 *
 * A TaskGroup plays the role of a Cilk frame's sync scope: spawned
 * tasks report completion to their group, and wait() returns when all
 * of them (including transitively inlined ones) have finished. A
 * worker blocked in wait() does not idle — it keeps scheduling other
 * tasks (its own deque first, then stealing), exactly like a Cilk
 * worker at a sync point.
 *
 * The whole completion protocol is one atomic word: the last
 * finisher's decrement to zero is the release, and external waiters
 * block on that word with std::atomic::wait. The finisher touches no
 * other member of the group afterwards, because a waiter that sees
 * zero may destroy the group immediately (task_group.cpp).
 *
 * A group is 24 bytes, so a heap-allocated one fits glibc's 32-byte
 * chunk: Runtime::submit allocates exactly one per request and the
 * SubmitHandle reference count lives inside it (scheduler.hpp). To
 * stay that small the error slot is one pointer to a boxed
 * exception, allocated only when a task throws.
 */

#ifndef HERMES_RUNTIME_TASK_GROUP_HPP
#define HERMES_RUNTIME_TASK_GROUP_HPP

#include <atomic>
#include <exception>

#include "runtime/task_fn.hpp"

namespace hermes::runtime {

class Runtime;
class SubmitHandle;

/** Completion scope for a set of spawned tasks. */
class TaskGroup
{
  public:
    /** Bind to the runtime that will execute the tasks. */
    explicit TaskGroup(Runtime &rt) : rt_(rt) {}

    /** All tasks must be awaited before destruction. */
    ~TaskGroup();

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /**
     * Spawn `fn` into this group. From a worker thread the task is
     * pushed onto that worker's deque (or run inline if the deque is
     * full); from any other thread it is injected into the runtime.
     * Any callable converts to TaskFn; small trivially-copyable
     * lambdas — every spawn site in parallel.hpp — spawn without
     * allocating (task_fn.hpp).
     */
    void run(TaskFn fn);

    /**
     * Wait until every spawned task has completed. Worker threads
     * help execute pending work while waiting; external threads
     * block. Rethrows the first exception thrown by any task in this
     * group — in exactly one of several concurrent waiters; the
     * others return normally, and the group is clean for reuse.
     */
    void wait();

    /** Tasks spawned but not yet completed. */
    long pending() const
    {
        return pending_.load(std::memory_order_acquire);
    }

  private:
    friend class Runtime;
    friend class SubmitHandle;

    /** Register one more task (before it becomes runnable). */
    void beginTask()
    {
        pending_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Mark one task complete; wakes external waiters at zero. */
    void finish();

    /** Record the first exception observed in this group; later
     * ones are dropped. Must precede the task's finish(). */
    void recordException(std::exception_ptr error);

    /** Rethrow a recorded exception, if any, in one caller only. */
    void rethrowIfError();

    Runtime &rt_;
    /** Spawned-but-unfinished tasks; also the word external waiters
     * block on. `int` so std::atomic::wait maps onto a futex on this
     * very address rather than a shared proxy word. */
    std::atomic<int> pending_{0};
    /** SubmitHandle copies referring to this group; only a group
     * made by Runtime::submit is counted (it starts at the one handle
     * submit returns). Beside pending_ it keeps the group at 24
     * bytes. */
    std::atomic<int> handleRefs_{1};
    /** The first recorded exception, boxed on the heap: null →
     * box by the first failing task (a loser deletes its own box),
     * box → null by the one waiter that rethrows. A box nobody took
     * is freed by the destructor. */
    std::atomic<std::exception_ptr *> error_{nullptr};
};

static_assert(sizeof(TaskGroup) == 24,
              "a submitted TaskGroup must fit one 32-byte heap chunk");

} // namespace hermes::runtime

#endif // HERMES_RUNTIME_TASK_GROUP_HPP
