/**
 * @file
 * Allocation and lifetime tests for SubmitHandle.
 *
 * A submission is one heap TaskGroup of at most 24 bytes owned by an
 * intrusive 8-byte handle (scheduler.hpp). This binary replaces the
 * global operator new/delete with counting versions to pin that
 * down, which is why it is its own executable: the counters see
 * every allocation the calling thread makes inside a counted window,
 * and the free of one watched block from any thread.
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/scheduler.hpp"
#include "runtime/task_group.hpp"

using namespace hermes;
using runtime::Runtime;
using runtime::RuntimeConfig;
using runtime::SubmitHandle;
using runtime::TaskGroup;

namespace {

/** Allocations made by one thread inside a counted window. Constant-
 * initialized, so operator new can touch it on any thread at any
 * time. */
struct AllocLog
{
    bool counting = false;
    long count = 0;
    size_t maxSize = 0;
    void *lastPtr = nullptr;
};

thread_local AllocLog t_log;

/** The one block whose free the tests wait for, from any thread. */
std::atomic<void *> g_watched{nullptr};
std::atomic<bool> g_watchedFreed{false};
std::atomic<bool> g_watchedFreedOnWorker{false};

void
startCounting()
{
    t_log = AllocLog{};
    t_log.counting = true;
}

AllocLog
stopCounting()
{
    t_log.counting = false;
    return t_log;
}

void
watch(void *block)
{
    g_watchedFreed.store(false);
    g_watchedFreedOnWorker.store(false);
    g_watched.store(block);
}

/** Submit a no-op and watch the one block it allocated. */
SubmitHandle
submitWatched(Runtime &rt)
{
    startCounting();
    SubmitHandle handle = rt.submit([] {});
    const AllocLog log = stopCounting();
    EXPECT_EQ(log.count, 1);
    watch(log.lastPtr);
    return handle;
}

/** Both operator delete forms: note a watched block, then free. */
void
freeBlock(void *block) noexcept
{
    if (block != nullptr
        && block == g_watched.load(std::memory_order_acquire)) {
        g_watched.store(nullptr, std::memory_order_relaxed);
        g_watchedFreedOnWorker.store(
            Runtime::currentWorker() != core::invalidWorker);
        g_watchedFreed.store(true, std::memory_order_release);
    }
    std::free(block);
}

RuntimeConfig
twoWorkers()
{
    RuntimeConfig cfg;
    cfg.numWorkers = 2;
    return cfg;
}

} // namespace

void *
operator new(std::size_t size)
{
    void *block = std::malloc(size == 0 ? 1 : size);
    if (block == nullptr)
        throw std::bad_alloc();
    AllocLog &log = t_log;
    if (log.counting) {
        ++log.count;
        log.maxSize = std::max(log.maxSize, size);
        log.lastPtr = block;
    }
    return block;
}

void
operator delete(void *block) noexcept
{
    freeBlock(block);
}

void
operator delete(void *block, std::size_t) noexcept
{
    freeBlock(block);
}

TEST(SubmitHandle, SubmitMakesExactlyOneSmallAllocation)
{
    Runtime rt(twoWorkers());
    std::atomic<int> ran{0};
    // Fewer than the inject ring's capacity, so no submit spills.
    constexpr int kSubmits = 512;
    std::vector<SubmitHandle> held;
    held.reserve(kSubmits);

    startCounting();
    for (int i = 0; i < kSubmits; ++i)
        held.push_back(rt.submit([&ran] { ran.fetch_add(1); }));
    const AllocLog log = stopCounting();

    EXPECT_EQ(log.count, kSubmits);
    EXPECT_LE(log.maxSize, 24u);
    for (SubmitHandle &h : held)
        h.wait();
    EXPECT_EQ(ran.load(), kSubmits);
    EXPECT_EQ(rt.stats().injectSpill, 0u);
}

TEST(SubmitHandle, CopyAndMoveAllocateNothing)
{
    Runtime rt(twoWorkers());
    SubmitHandle handle = rt.submit([] {});

    startCounting();
    SubmitHandle copy = handle;
    SubmitHandle moved = std::move(copy);
    SubmitHandle assigned;
    assigned = handle;
    assigned = std::move(moved);
    const AllocLog log = stopCounting();

    EXPECT_EQ(log.count, 0);
    EXPECT_TRUE(handle.valid());
    EXPECT_TRUE(assigned.valid());
    EXPECT_FALSE(copy.valid());
    EXPECT_FALSE(moved.valid());
    assigned.wait();
}

TEST(SubmitHandle, LastDropFreesTheSubmission)
{
    Runtime rt(twoWorkers());
    SubmitHandle handle = submitWatched(rt);
    SubmitHandle copy = handle;
    handle.wait();

    handle = SubmitHandle();
    EXPECT_FALSE(g_watchedFreed.load());
    copy = SubmitHandle();
    EXPECT_TRUE(g_watchedFreed.load());
    EXPECT_FALSE(g_watchedFreedOnWorker.load());
}

TEST(SubmitHandle, LastDropInsideAWorkerTaskAfterFourThreads)
{
    Runtime rt(twoWorkers());
    for (int round = 0; round < 50; ++round) {
        SubmitHandle handle = submitWatched(rt);
        std::atomic<int> dropped{0};

        // The dropper task holds one copy and releases it only after
        // the four threads released theirs: the last drop, with its
        // drain and delete, then runs on a worker.
        SubmitHandle dropper =
            rt.submit([copy = handle, &dropped]() mutable {
                while (dropped.load(std::memory_order_acquire) < 4)
                    std::this_thread::yield();
                copy = SubmitHandle();
            });

        // This thread lets go before any holder can drop its copy.
        std::vector<SubmitHandle> copies(4, handle);
        handle = SubmitHandle();
        std::vector<std::thread> holders;
        for (SubmitHandle &c : copies) {
            holders.emplace_back(
                [copy = std::move(c), &dropped]() mutable {
                    copy.wait();
                    copy = SubmitHandle();
                    dropped.fetch_add(1, std::memory_order_release);
                });
        }
        for (std::thread &t : holders)
            t.join();
        dropper.wait();

        ASSERT_TRUE(g_watchedFreed.load()) << "round " << round;
        EXPECT_TRUE(g_watchedFreedOnWorker.load()) << "round " << round;
    }
    EXPECT_EQ(rt.droppedHandleErrors(), 0u);
}

TEST(SubmitHandle, RacingLastDropsFreeOnce)
{
    // Four threads drop the last four copies at once; exactly one
    // must drain and free (a second free is a hard ASan failure).
    Runtime rt(twoWorkers());
    for (int round = 0; round < 200; ++round) {
        SubmitHandle handle = submitWatched(rt);
        std::vector<SubmitHandle> copies(4, handle);
        handle = SubmitHandle();
        std::atomic<int> ready{0};
        std::vector<std::thread> holders;
        for (SubmitHandle &c : copies) {
            holders.emplace_back([copy = std::move(c), &ready]() mutable {
                ready.fetch_add(1);
                while (ready.load() < 4) {
                }
                copy = SubmitHandle();
            });
        }
        for (std::thread &t : holders)
            t.join();
        ASSERT_TRUE(g_watchedFreed.load()) << "round " << round;
    }
}

TEST(SubmitHandle, SelfAssignmentIsSafeAndMovedFromIsInvalid)
{
    Runtime rt(twoWorkers());
    SubmitHandle handle = submitWatched(rt);
    SubmitHandle &alias = handle;

    handle = alias;
    EXPECT_TRUE(handle.valid());
    handle = std::move(alias);
    EXPECT_TRUE(handle.valid());
    EXPECT_FALSE(g_watchedFreed.load());

    SubmitHandle moved = std::move(handle);
    EXPECT_FALSE(handle.valid());
    EXPECT_TRUE(moved.valid());
    handle.wait(); // a no-op on an empty handle

    moved = SubmitHandle();
    EXPECT_TRUE(g_watchedFreed.load());
}

TEST(SubmitHandle, TwoThrowingTasksRethrowOnce)
{
    Runtime rt(twoWorkers());
    TaskGroup group(rt);
    group.run([] { throw std::runtime_error("first"); });
    group.run([] { throw std::runtime_error("second"); });

    std::atomic<int> rethrown{0};
    std::vector<std::thread> waiters;
    for (int t = 0; t < 2; ++t) {
        waiters.emplace_back([&] {
            try {
                group.wait();
            } catch (const std::runtime_error &) {
                rethrown.fetch_add(1);
            }
        });
    }
    for (std::thread &t : waiters)
        t.join();
    // One box won the slot and was taken by one waiter; the loser's
    // box was deleted by its own task (LSan reports it otherwise).
    EXPECT_EQ(rethrown.load(), 1);
    EXPECT_NO_THROW(group.wait());
}

TEST(SubmitHandle, UntakenErrorIsFreedWithItsGroup)
{
    Runtime rt(twoWorkers());
    {
        TaskGroup group(rt);
        group.run([] { throw std::runtime_error("never waited"); });
        while (group.pending() != 0)
            std::this_thread::yield();
        // Destroyed without wait(): ~TaskGroup frees the boxed error
        // (LSan reports a leak otherwise).
    }
    const uint64_t before = rt.droppedHandleErrors();
    {
        SubmitHandle handle =
            rt.submit([] { throw std::runtime_error("dropped"); });
    }
    EXPECT_EQ(rt.droppedHandleErrors(), before + 1);
}
