/**
 * @file
 * Micro-benchmarks of the external-submission (inject) path, raw and
 * end-to-end. The raw benchmark pairs the lock-free MPMC ring with a
 * bench-local mutex-guarded std::deque — the structure the ring
 * replaced — as a reference: with one producer the two are
 * comparable; from two producers up the mutex queue serializes while
 * the ring scales (docs/ARCHITECTURE.md, "The inject path"). The
 * hold benchmark measures what a held submission costs: the submit
 * call and the heap bytes each retained handle keeps alive.
 */

#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "runtime/inject_queue.hpp"
#include "runtime/scheduler.hpp"

using namespace hermes;

namespace {

/**
 * Raw queue throughput: P producer threads push empty tasks while
 * one drainer pops until every task is through — no runtime, no
 * workers, just the queue under producer contention.
 * Args: {producers, useRing} — 0 runs the mutex-deque reference.
 */
void
benchRawInject(benchmark::State &state)
{
    const int producers = static_cast<int>(state.range(0));
    const bool lock_free = state.range(1) != 0;
    constexpr int kPerProducer = 4096;
    const int total = producers * kPerProducer;

    for (auto _ : state) {
        // The reference side: a mutex around a std::deque, every
        // producer and the drainer serializing on it.
        std::mutex legacy_mutex;
        std::deque<runtime::Task> legacy;
        // Size the ring for the full offered burst: on an
        // oversubscribed host a producer can run a whole scheduler
        // quantum ahead of the drainer, and a ring smaller than the
        // burst would measure the spill mutex instead of the ring.
        runtime::InjectQueue queue(static_cast<size_t>(total));

        std::atomic<int> drained{0};
        std::vector<std::thread> threads;
        for (int p = 0; p < producers; ++p) {
            threads.emplace_back([&] {
                for (int k = 0; k < kPerProducer; ++k) {
                    runtime::Task t([] {}, nullptr);
                    if (lock_free) {
                        queue.push(std::move(t));
                    } else {
                        std::lock_guard<std::mutex> lock(
                            legacy_mutex);
                        legacy.push_back(std::move(t));
                    }
                }
            });
        }
        threads.emplace_back([&] {
            runtime::Task out;
            while (drained.load(std::memory_order_relaxed)
                   < total) {
                bool got = false;
                if (lock_free) {
                    got = queue.tryPop(out)
                        != runtime::InjectQueue::PopSource::None;
                } else {
                    std::lock_guard<std::mutex> lock(legacy_mutex);
                    if (!legacy.empty()) {
                        out = std::move(legacy.front());
                        legacy.pop_front();
                        got = true;
                    }
                }
                if (got)
                    drained.fetch_add(1, std::memory_order_relaxed);
                else
                    std::this_thread::yield();
            }
        });
        for (auto &t : threads)
            t.join();
        benchmark::DoNotOptimize(drained.load());
    }
    state.SetItemsProcessed(state.iterations() * total);
}

/**
 * End-to-end submission throughput: P external producer threads
 * drive tasks through `TaskGroup::run` → `Runtime::inject` into a
 * worker pool that drains them — the full entry path including the
 * Dekker publish and wake notifications.
 * Arg: producers.
 */
void
benchSubmitThroughput(benchmark::State &state)
{
    const int producers = static_cast<int>(state.range(0));
    constexpr int kPerProducer = 2048;

    runtime::RuntimeConfig cfg;
    cfg.numWorkers = 2;
    // Absorb a worst-case burst (every producer a full quantum ahead
    // of the workers) without spilling; see benchRawInject.
    cfg.injectCapacity = static_cast<size_t>(producers) * kPerProducer;
    runtime::Runtime rt(cfg);

    std::atomic<uint64_t> sink{0};
    for (auto _ : state) {
        runtime::TaskGroup group(rt);
        std::vector<std::thread> threads;
        for (int p = 0; p < producers; ++p) {
            threads.emplace_back([&] {
                for (int k = 0; k < kPerProducer; ++k) {
                    group.run([&] {
                        sink.fetch_add(1,
                                       std::memory_order_relaxed);
                    });
                }
            });
        }
        for (auto &t : threads)
            t.join();
        group.wait();
    }
    benchmark::DoNotOptimize(sink.load());

    const auto s = rt.stats();
    state.counters["inject_fast_frac"] =
        benchmark::Counter(s.injectFastFraction());
    state.counters["inject_spill"] = benchmark::Counter(
        static_cast<double>(s.injectSpill));
    state.SetItemsProcessed(state.iterations() * producers
                            * kPerProducer);
}

/** Heap bytes in use across all malloc arenas (chunk headers and
 * size-class rounding included); 0 where glibc is absent. */
size_t
heapBytesInUse()
{
#if defined(__GLIBC__)
    return mallinfo2().uordblks;
#else
    return 0;
#endif
}

/**
 * The submit path as a serving front end uses it: one external
 * thread calls `Runtime::submit` N times and keeps every handle, then
 * waits on and drops them all. Only the submit loop is timed
 * (`ns_per_submit`); `heap_bytes_per_handle` is the growth of the
 * heap's in-use bytes across that loop over N — what each retained
 * submission costs in malloc chunks. The handle vector is reserved
 * before the baseline read, and the ring holds N tasks, so neither
 * it nor a spill allocates inside the window. Needs glibc for the
 * heap counter (it reads 0 elsewhere).
 * Arg: N.
 */
void
benchSubmitHold(benchmark::State &state)
{
    const auto n = static_cast<size_t>(state.range(0));

    runtime::RuntimeConfig cfg;
    cfg.numWorkers = 3;
    cfg.injectCapacity = n;
    runtime::Runtime rt(cfg);

    std::vector<runtime::SubmitHandle> held;
    std::atomic<uint64_t> sink{0};
    double submit_ns = 0.0;
    double heap_bytes = 0.0;
    for (auto _ : state) {
        held.reserve(n);
        const size_t heap_before = heapBytesInUse();
        const auto start = std::chrono::steady_clock::now();
        for (size_t i = 0; i < n; ++i) {
            held.push_back(rt.submit([&sink] {
                sink.fetch_add(1, std::memory_order_relaxed);
            }));
        }
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        heap_bytes += static_cast<double>(heapBytesInUse())
            - static_cast<double>(heap_before);
        state.SetIterationTime(elapsed.count());
        submit_ns += elapsed.count() * 1e9;

        for (runtime::SubmitHandle &h : held)
            h.wait();
        held.clear();
    }
    benchmark::DoNotOptimize(sink.load());

    const double submits =
        static_cast<double>(state.iterations()) * static_cast<double>(n);
    state.counters["ns_per_submit"] =
        benchmark::Counter(submit_ns / submits);
    state.counters["heap_bytes_per_handle"] =
        benchmark::Counter(heap_bytes / submits);
    state.SetItemsProcessed(state.iterations()
                            * static_cast<int64_t>(n));
}

} // namespace

// Args: {producers, useRing}; each producer count pairs the ring
// with the mutex-deque reference — the ring should match or beat it
// from 2 producers up. UseRealTime: producer threads block and join
// outside the calling thread's CPU time.
BENCHMARK(benchRawInject)
    ->Args({1, 0})->Args({1, 1})
    ->Args({2, 0})->Args({2, 1})
    ->Args({4, 0})->Args({4, 1})
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(benchSubmitThroughput)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
// Arg: N held submissions; the iteration time is the submit loop.
BENCHMARK(benchSubmitHold)->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond)->UseManualTime();

BENCHMARK_MAIN();
