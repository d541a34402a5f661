/**
 * @file
 * Micro-benchmarks of the tempo controller itself: per-hook cost of
 * the Figure 5 events under each policy, and the immediacy-list
 * operations. This quantifies overhead source (2) of Section 3.4
 * (online profiling) and the bookkeeping around (1) (DVFS calls are
 * counted but the backend here is in-memory).
 *
 * benchPushPopHooksParallel is the contention case: four threads,
 * each driving push/pop hooks on its own worker id at once, as the
 * threaded runtime does. The single-threaded cases cannot see lock
 * sharing between workers; this one can.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "core/tempo_controller.hpp"
#include "dvfs/simulated.hpp"
#include "platform/system_profile.hpp"

using namespace hermes;

namespace {

struct Fixture
{
    explicit Fixture(core::TempoPolicy policy)
        : profile(platform::systemA()),
          backend(profile.topology.numDomains(), profile.ladder),
          controller(makeConfig(policy), backend, 16,
                     [](core::WorkerId w) {
                         return static_cast<platform::DomainId>(w);
                     })
    {
        controller.reset(0.0);
    }

    static core::TempoConfig
    makeConfig(core::TempoPolicy policy)
    {
        core::TempoConfig cfg;
        cfg.policy = policy;
        cfg.ladder = platform::FrequencyLadder({2400, 1600});
        return cfg;
    }

    platform::SystemProfile profile;
    dvfs::SimulatedDvfs backend;
    core::TempoController controller;
};

void
benchPushPopHooks(benchmark::State &state)
{
    Fixture fx(static_cast<core::TempoPolicy>(state.range(0)));
    double now = 0.0;
    for (auto _ : state) {
        for (size_t size = 1; size <= 16; ++size)
            fx.controller.onPush(3, size, now += 1e-7);
        for (size_t size = 16; size-- > 0;)
            fx.controller.onPopSuccess(3, size, now += 1e-7);
    }
    state.SetItemsProcessed(state.iterations() * 32);
}

/** One shared controller; thread i drives worker i. */
void
benchPushPopHooksParallel(benchmark::State &state)
{
    static std::unique_ptr<Fixture> shared;
    if (state.thread_index() == 0)
        shared = std::make_unique<Fixture>(core::TempoPolicy::Unified);
    // The timed loop starts only once every thread reaches it, so
    // thread 0's setup above is complete before any hook runs.
    const auto self = static_cast<core::WorkerId>(state.thread_index());
    double now = 0.0;
    for (auto _ : state) {
        for (size_t size = 1; size <= 16; ++size)
            shared->controller.onPush(self, size, now += 1e-7);
        for (size_t size = 16; size-- > 0;)
            shared->controller.onPopSuccess(self, size, now += 1e-7);
    }
    state.SetItemsProcessed(state.iterations() * 32);
    if (state.thread_index() == 0)
        shared.reset();
}

void
benchStealHooks(benchmark::State &state)
{
    Fixture fx(static_cast<core::TempoPolicy>(state.range(0)));
    double now = 0.0;
    for (auto _ : state) {
        // thief 1 steals from 0, then runs dry (relay + unlink)
        fx.controller.onStealSuccess(1, 0, now += 1e-7);
        fx.controller.onOutOfWork(1, now += 1e-7);
    }
    state.SetItemsProcessed(state.iterations() * 2);
}

void
benchRelayChain(benchmark::State &state)
{
    Fixture fx(core::TempoPolicy::Unified);
    double now = 0.0;
    for (auto _ : state) {
        // Build a 15-deep thief chain, then relay from its head.
        for (core::WorkerId w = 1; w < 16; ++w)
            fx.controller.onStealSuccess(w, w - 1, now += 1e-7);
        fx.controller.onOutOfWork(0, now += 1e-7);
        for (core::WorkerId w = 1; w < 16; ++w)
            fx.controller.onOutOfWork(w, now += 1e-7);
    }
    state.SetItemsProcessed(state.iterations() * 31);
}

} // namespace

// Arg: TempoPolicy (0 Baseline, 1 WorkpathOnly, 2 WorkloadOnly,
// 3 Unified)
BENCHMARK(benchPushPopHooks)->Arg(0)->Arg(2)->Arg(3);
BENCHMARK(benchPushPopHooksParallel)->Threads(4)->UseRealTime();
BENCHMARK(benchStealHooks)->Arg(0)->Arg(1)->Arg(3);
BENCHMARK(benchRelayChain);

BENCHMARK_MAIN();
