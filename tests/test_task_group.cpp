/** @file Unit tests for TaskGroup spawn/sync semantics. */

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/scheduler.hpp"
#include "runtime/task_group.hpp"

using namespace hermes;
using runtime::Runtime;
using runtime::RuntimeConfig;
using runtime::TaskGroup;

namespace {

Runtime &
sharedRuntime()
{
    static Runtime rt([] {
        RuntimeConfig cfg;
        cfg.numWorkers = 4;
        return cfg;
    }());
    return rt;
}

} // namespace

TEST(TaskGroup, ExternalThreadSpawnAndWait)
{
    auto &rt = sharedRuntime();
    std::atomic<int> n{0};
    TaskGroup g(rt);
    for (int i = 0; i < 100; ++i)
        g.run([&] { n.fetch_add(1); });
    g.wait();
    EXPECT_EQ(n.load(), 100);
    EXPECT_EQ(g.pending(), 0);
}

TEST(TaskGroup, ReusableAfterWait)
{
    auto &rt = sharedRuntime();
    std::atomic<int> n{0};
    TaskGroup g(rt);
    g.run([&] { n.fetch_add(1); });
    g.wait();
    g.run([&] { n.fetch_add(1); });
    g.wait();
    EXPECT_EQ(n.load(), 2);
}

TEST(TaskGroup, WaitWithNothingSpawnedReturnsImmediately)
{
    auto &rt = sharedRuntime();
    TaskGroup g(rt);
    g.wait();
    SUCCEED();
}

TEST(TaskGroup, PendingVisibleDuringExecution)
{
    auto &rt = sharedRuntime();
    std::atomic<bool> release{false};
    TaskGroup g(rt);
    g.run([&] {
        while (!release.load(std::memory_order_acquire)) {
        }
    });
    EXPECT_GE(g.pending(), 1);
    release.store(true, std::memory_order_release);
    g.wait();
    EXPECT_EQ(g.pending(), 0);
}

TEST(TaskGroup, FirstExceptionWinsAndClears)
{
    auto &rt = sharedRuntime();
    TaskGroup g(rt);
    for (int i = 0; i < 4; ++i)
        g.run([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(g.wait(), std::runtime_error);
    // Error is consumed; the group can be reused cleanly.
    g.run([] {});
    g.wait();
    SUCCEED();
}

TEST(TaskGroup, WorkerWaitHelpsExecuteOtherTasks)
{
    auto &rt = sharedRuntime();
    std::atomic<int> n{0};
    rt.run([&] {
        TaskGroup g(rt);
        for (int i = 0; i < 200; ++i)
            g.run([&] { n.fetch_add(1); });
        // wait() on a worker thread must schedule, not block.
        g.wait();
    });
    EXPECT_EQ(n.load(), 200);
}

TEST(SubmitHandle, WaitRethrowsOnceThenIsClean)
{
    auto &rt = sharedRuntime();
    runtime::SubmitHandle handle =
        rt.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(handle.wait(), std::runtime_error);
    // The error is consumed by the first rethrow: wait() stays
    // idempotent and later waits see a clean group.
    handle.wait();
    SUCCEED();
}

TEST(SubmitHandle, ConcurrentWaitersSeeExactlyOneException)
{
    auto &rt = sharedRuntime();
    runtime::SubmitHandle handle =
        rt.submit([] { throw std::runtime_error("boom"); });
    std::atomic<int> rethrown{0};
    std::vector<std::thread> waiters;
    for (int i = 0; i < 4; ++i) {
        waiters.emplace_back([handle, &rethrown]() mutable {
            try {
                handle.wait();
            } catch (const std::runtime_error &) {
                rethrown.fetch_add(1);
            }
        });
    }
    for (std::thread &t : waiters)
        t.join();
    // The CAS on the error slot hands the exception to exactly one
    // waiter; the rest return clean.
    EXPECT_EQ(rethrown.load(), 1);
}

TEST(SubmitHandle, DroppingAfterExceptionCountsInsteadOfCrashing)
{
    auto &rt = sharedRuntime();
    const uint64_t before = rt.droppedHandleErrors();
    {
        runtime::SubmitHandle handle =
            rt.submit([] { throw std::runtime_error("boom"); });
        // Dropped without wait(): the release drain must swallow
        // the recorded exception (a deleter cannot throw)...
    }
    // ...but not silently — the swallow is counted, so a harness
    // that sheds handles can still assert nothing failed.
    EXPECT_EQ(rt.droppedHandleErrors(), before + 1);
    EXPECT_EQ(rt.stats().droppedHandleErrors, before + 1);

    // A waited handle consumes its error and adds nothing.
    runtime::SubmitHandle waited =
        rt.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(waited.wait(), std::runtime_error);
    waited = runtime::SubmitHandle();
    EXPECT_EQ(rt.droppedHandleErrors(), before + 1);
}

// ------------------------------------------------------------------
// Completion-race regressions: the last finisher must never touch a
// TaskGroup after its decrement to zero, because the waiter may have
// returned and destroyed (or, on the stack, reused) the group by
// then. Both loops below churn exactly that window thousands of
// times; under ASan (with detect_stack_use_after_return for the
// stack case) a touch after free is a hard failure, and without a
// sanitizer it shows up as a crash or a hang on a corrupted lock.

namespace {

RuntimeConfig
twoWorkers()
{
    RuntimeConfig cfg;
    cfg.numWorkers = 2;
    return cfg;
}

} // namespace

TEST(TaskGroupCompletion, BackToBackRunRootsOfASmallForkJoin)
{
    // Each root waits on a stack TaskGroup on a worker (help-first
    // waiter spinning on the counter) while the other worker steals
    // and finishes children; Runtime::run then tears the root's own
    // stack group down as soon as the root completes.
    Runtime rt(twoWorkers());
    constexpr int kRoots = 100000;
    constexpr int kLeaves = 4;
    std::atomic<long> leaves{0};
    for (int r = 0; r < kRoots; ++r) {
        rt.run([&] {
            TaskGroup g(rt);
            for (int i = 0; i < kLeaves; ++i) {
                g.run([&] {
                    leaves.fetch_add(1, std::memory_order_relaxed);
                });
            }
            g.wait();
        });
    }
    EXPECT_EQ(leaves.load(), static_cast<long>(kRoots) * kLeaves);
}

TEST(TaskGroupCompletion, HandlesDroppedRightAfterSubmit)
{
    // The temporary handle is released at the end of each statement:
    // its deleter waits on the heap group and frees it the moment the
    // count reaches zero, racing the finisher's wake-up.
    Runtime rt(twoWorkers());
    constexpr int kSubmits = 100000;
    std::atomic<long> ran{0};
    for (int i = 0; i < kSubmits; ++i)
        rt.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    EXPECT_EQ(ran.load(), kSubmits);
    EXPECT_EQ(rt.droppedHandleErrors(), 0u);
}
