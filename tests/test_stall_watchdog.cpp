/**
 * @file
 * Worker heartbeats, the stallWorker() fault site, compensating
 * wakes, and the serve-side watchdog end to end: heartbeats advance
 * under work, an injected stall on a >=2-worker runtime is detected
 * by the watchdog while the accepted requests still all complete
 * (no hang), and the stall is visible in the sampled series.
 * Timing assertions stay order-of-magnitude so the suite survives
 * sanitizers and one-CPU CI runners.
 */

#include <gtest/gtest.h>

#include <atomic>

#include "harness/serve/serve_driver.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_group.hpp"

using namespace hermes;
using namespace hermes::harness::serve;

namespace {

runtime::RuntimeConfig
twoWorkers()
{
    runtime::RuntimeConfig config;
    config.numWorkers = 2;
    return config;
}

} // namespace

TEST(StallWatchdog, TelemetryCoversEveryWorkerAndAdvancesUnderWork)
{
    runtime::Runtime rt(twoWorkers());
    const runtime::StallTelemetry before = rt.stallTelemetry();
    ASSERT_EQ(before.workers.size(), 2u);

    std::atomic<unsigned> ran{0};
    rt.run([&rt, &ran] {
        runtime::TaskGroup group(rt);
        for (int i = 0; i < 256; ++i)
            group.run([&ran] {
                ran.fetch_add(1, std::memory_order_relaxed);
            });
        group.wait();
    });
    EXPECT_EQ(ran.load(), 256u);

    // Running a burst moved at least one worker's heartbeat; summed
    // beats strictly grow (each findAndExecute round bumps one).
    uint64_t sum_before = 0, sum_after = 0;
    for (const auto &w : before.workers)
        sum_before += w.heartbeat;
    for (const auto &w : rt.stallTelemetry().workers)
        sum_after += w.heartbeat;
    EXPECT_GT(sum_after, sum_before);
}

TEST(StallWatchdog, WakeWorkersIsBoundedAndHarmlessWhenIdle)
{
    runtime::Runtime rt(twoWorkers());
    // Compensating wakes against an idle (likely parked) runtime
    // must neither hang nor wake more workers than exist.
    const unsigned woken = rt.wakeWorkers(rt.numWorkers());
    EXPECT_LE(woken, rt.numWorkers());
    // The runtime stays fully usable afterwards.
    std::atomic<bool> ran{false};
    rt.run([&ran] { ran.store(true); });
    EXPECT_TRUE(ran.load());
}

TEST(StallWatchdog, StalledWorkerNapsButWorkStillCompletes)
{
    runtime::Runtime rt(twoWorkers());
    rt.stallWorker(0, 20'000'000); // 20 ms nap at its next loop top
    std::atomic<unsigned> ran{0};
    rt.run([&rt, &ran] {
        runtime::TaskGroup group(rt);
        for (int i = 0; i < 64; ++i)
            group.run([&ran] {
                ran.fetch_add(1, std::memory_order_relaxed);
            });
        group.wait();
    });
    // The un-stalled worker (plus the stalled one after its nap)
    // finishes everything — a stall degrades, never deadlocks.
    EXPECT_EQ(ran.load(), 64u);
}

TEST(StallWatchdog, InjectedStallIsDetectedAndServeRunStillDrains)
{
    runtime::Runtime rt(twoWorkers());
    ServeConfig config;
    config.arrivals.seed = 0x57a11;
    config.arrivals.ratePerSec = 2000.0;
    config.arrivals.durationSec = 0.3;
    MixEntry spin;
    spin.spinNanos = 10'000;
    config.mix = {spin};
    config.producers = 2;
    config.sampleHz = 200.0;
    config.faults.enabled = true;
    config.faults.stall.worker = 1;
    config.faults.stall.atSec = 0.05;
    config.faults.stall.durationMs = 100.0;

    const ServeResult result = runServe(rt, config);

    // Acceptance criterion of the chaos PR: with one of two workers
    // napping 100 ms mid-run, every accepted request still
    // completes — the watchdog's compensating wakes keep the other
    // worker draining the backlog.
    EXPECT_EQ(result.completed, result.accepted);
    EXPECT_EQ(result.offered,
              result.shed + result.ok + result.retriedOk
                  + result.failed + result.deadlineExpired);

    // The watchdog saw the stall (100 ms frozen heartbeat spans
    // many 5 ms samples) and the series makes it visible.
    EXPECT_GE(result.watchdogStalls, 1u);
    unsigned max_stalled = 0;
    for (const SeriesSample &s : result.series)
        max_stalled = std::max(max_stalled, s.stalledWorkers);
    EXPECT_GE(max_stalled, 1u);
}
