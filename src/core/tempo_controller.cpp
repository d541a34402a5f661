#include "core/tempo_controller.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace hermes::core {

TempoController::TempoController(TempoConfig config,
                                 dvfs::DvfsBackend &backend,
                                 unsigned num_workers,
                                 DomainLookup domain_of)
    : config_(std::move(config)),
      ladder_(config_.ladder.has_value()
                  ? *config_.ladder
                  : platform::FrequencyLadder({1})),
      backend_(backend),
      numWorkers_(num_workers), domainOf_(std::move(domain_of)),
      list_(num_workers),
      slots_(num_workers)
{
    HERMES_ASSERT(config_.ladder.has_value(),
                  "TempoConfig::ladder must be resolved before "
                  "constructing a TempoController (see "
                  "platform::defaultTempoLadder)");
    HERMES_ASSERT(num_workers > 0, "need at least one worker");
    HERMES_ASSERT(domainOf_ != nullptr, "domain lookup required");
    for (auto &slot : slots_)
        slot.profiler = ThresholdProfiler(config_.numThresholds,
                                          config_.profilerWindow);
}

void
TempoController::reset(double now)
{
    Guard list_guard(listLock_);
    list_.clear();
    relayUps_ = 0;
    for (WorkerId w = 0; w < numWorkers_; ++w) {
        Slot &slot = slots_[w];
        Guard guard(slot.lock);
        slot.tempo.store(0, std::memory_order_relaxed);
        slot.region = 0;
        slot.parked = false;
        slot.dry.store(false, std::memory_order_relaxed);
        slot.outOfWork.store(0, std::memory_order_relaxed);
        slot.profiler = ThresholdProfiler(config_.numThresholds,
                                          config_.profilerWindow);
        slot.counters = TempoCounters{};
        backend_.setDomainFreq(domainOf_(w), ladder_.fastest(),
                               now);
    }
}

void
TempoController::setTempo(WorkerId w, platform::FreqIndex idx,
                          double now)
{
    idx = std::min(idx, slowestIndex());
    auto &tempo = slots_[w].tempo;
    if (tempo.load(std::memory_order_relaxed) == idx)
        return;
    tempo.store(idx, std::memory_order_relaxed);
    backend_.setDomainFreq(domainOf_(w), ladder_.at(idx), now);
}

void
TempoController::up(WorkerId w, double now)
{
    const auto idx = slots_[w].tempo.load(std::memory_order_relaxed);
    if (idx > 0)
        setTempo(w, idx - 1, now);
}

void
TempoController::down(WorkerId w, double now)
{
    setTempo(w, slots_[w].tempo.load(std::memory_order_relaxed) + 1,
             now);
}

void
TempoController::onStealSuccess(WorkerId thief, WorkerId victim,
                                double now)
{
    validate(thief);
    validate(victim);
    HERMES_ASSERT(thief != victim, "self-steal is impossible");
    if (config_.policy == TempoPolicy::Baseline)
        return;

    Slot &slot = slots_[thief];
    if (hasWorkpath(config_.policy)) {
        // Thief Procrastination: one tempo below the victim, then
        // splice into the immediacy list right after the victim
        // (Figure 5 lines 20-26). The list lock is held across both,
        // so a relay walking onto the thief finds its new tempo. A
        // thief that is still linked can occur only through
        // scheduler misuse; the out-of-work hook always precedes a
        // steal and unlinks it.
        Guard list_guard(listLock_);
        {
            Guard guard(slot.lock);
            // The thief starts over with an empty deque in workload
            // terms.
            slot.region = 0;
            setTempo(thief,
                     slots_[victim].tempo.load(
                         std::memory_order_relaxed) + 1,
                     now);
            ++slot.counters.stealDowns;
        }
        list_.unlink(thief);
        list_.insertAfter(victim, thief);
    } else {
        // Workload-only (Figure 4(b)): an empty deque maps the thief
        // to the slowest workload region's tempo, K steps below
        // fastest, clamped to the usable ladder.
        Guard guard(slot.lock);
        slot.region = 0;
        const auto idx = std::min<platform::FreqIndex>(
            config_.numThresholds, slowestIndex());
        const auto cur = slot.tempo.load(std::memory_order_relaxed);
        if (idx > cur)
            ++slot.counters.workloadDowns;
        else if (idx < cur)
            ++slot.counters.workloadUps;
        setTempo(thief, idx, now);
    }
}

void
TempoController::onOutOfWork(WorkerId w, double now)
{
    validate(w);
    if (config_.policy == TempoPolicy::Baseline)
        return;

    // The region reset waits in `dry` for w's next reconcile; the
    // counter has one writer, so a load and a store suffice.
    Slot &slot = slots_[w];
    slot.dry.store(true, std::memory_order_relaxed);
    slot.outOfWork.store(
        slot.outOfWork.load(std::memory_order_relaxed) + 1,
        std::memory_order_relaxed);

    // An unlinked w has nothing downstream and nothing to unlink:
    // re-invocations while w stays idle are no-ops, matching the
    // pseudocode's loop structure, and skip the list lock.
    if (!hasWorkpath(config_.policy) || !list_.linked(w))
        return;

    // Immediacy Relay: the tempo baton passes to every downstream
    // thief, one step each, preserving their relative order
    // (Figure 5 lines 7-10). Then w leaves the list (lines 11-14).
    // A thief already at the fastest tempo has no step to take, so
    // its slot lock is skipped.
    Guard list_guard(listLock_);
    list_.forEachDownstream(w, [&](WorkerId t) {
        ++relayUps_;
        if (tempoOf(t) == 0)
            return;
        Guard guard(slots_[t].lock);
        up(t, now);
    });
    list_.unlink(w);
}

void
TempoController::reconcileWorkload(WorkerId w, size_t deque_size,
                                   double now)
{
    Slot &slot = slots_[w];
    Guard guard(slot.lock);
    if (slot.dry.load(std::memory_order_relaxed)) {
        slot.dry.store(false, std::memory_order_relaxed);
        slot.region = 0;
    }
    if (slot.profiler.addSample(deque_size)) {
        ++slot.counters.profilerPeriods;
        // Thresholds moved; S is re-anchored stepwise below.
    }
    const unsigned target = slot.profiler.regionOf(deque_size);
    while (slot.region < target) {
        ++slot.region;
        up(w, now);
        ++slot.counters.workloadUps;
    }
    while (slot.region > target) {
        // The single intersection of the two strategies: a worker at
        // the head of the immediacy list holds the most immediate
        // work and is never slowed by workload rules (the
        // `prev != null` condition in Algorithms 3.4/3.5). The guard
        // exists only under the unified policy; under workload-only
        // no list is maintained. The read takes no list lock (see
        // the header).
        if (config_.policy == TempoPolicy::Unified
                && list_.prevOf(w) == invalidWorker) {
            ++slot.counters.guardBlocks;
            break;
        }
        --slot.region;
        down(w, now);
        ++slot.counters.workloadDowns;
    }
}

void
TempoController::onPush(WorkerId w, size_t deque_size, double now)
{
    validate(w);
    if (!hasWorkload(config_.policy))
        return;
    reconcileWorkload(w, deque_size, now);
}

void
TempoController::onPopSuccess(WorkerId w, size_t deque_size,
                              double now)
{
    validate(w);
    if (!hasWorkload(config_.policy))
        return;
    reconcileWorkload(w, deque_size, now);
}

void
TempoController::onVictimStolen(WorkerId victim, size_t deque_size,
                                double now)
{
    validate(victim);
    if (!hasWorkload(config_.policy))
        return;
    reconcileWorkload(victim, deque_size, now);
}

void
TempoController::onPark(WorkerId w, double /*now*/)
{
    validate(w);
    // Bookkeeping for every policy (including Baseline): the parked
    // state feeds power accounting and reports, not tempo decisions,
    // and by design changes no frequency (see header).
    Slot &slot = slots_[w];
    Guard guard(slot.lock);
    slot.parked = true;
    ++slot.counters.parkEvents;
}

void
TempoController::onWake(WorkerId w, double /*now*/)
{
    validate(w);
    Slot &slot = slots_[w];
    Guard guard(slot.lock);
    slot.parked = false;
    ++slot.counters.wakeEvents;
}

bool
TempoController::parkedOf(WorkerId w) const
{
    validate(w);
    const Slot &slot = slots_[w];
    Guard guard(slot.lock);
    return slot.parked;
}

platform::FreqIndex
TempoController::tempoOf(WorkerId w) const
{
    validate(w);
    return slots_[w].tempo.load(std::memory_order_relaxed);
}

platform::FreqMhz
TempoController::frequencyOf(WorkerId w) const
{
    return ladder_.at(tempoOf(w));
}

WorkerId
TempoController::nextOf(WorkerId w) const
{
    validate(w);
    return list_.nextOf(w);
}

WorkerId
TempoController::prevOf(WorkerId w) const
{
    validate(w);
    return list_.prevOf(w);
}

unsigned
TempoController::regionOf(WorkerId w) const
{
    validate(w);
    const Slot &slot = slots_[w];
    Guard guard(slot.lock);
    return slot.dry.load(std::memory_order_relaxed) ? 0 : slot.region;
}

std::vector<double>
TempoController::thresholdsOf(WorkerId w) const
{
    validate(w);
    const Slot &slot = slots_[w];
    Guard guard(slot.lock);
    return slot.profiler.thresholds();
}

TempoCounters
TempoController::counters() const
{
    TempoCounters sum;
    {
        Guard list_guard(listLock_);
        sum.relayUps = relayUps_;
    }
    for (const Slot &slot : slots_) {
        sum.outOfWorkEvents +=
            slot.outOfWork.load(std::memory_order_relaxed);
        Guard guard(slot.lock);
        const TempoCounters &k = slot.counters;
        sum.stealDowns += k.stealDowns;
        sum.workloadUps += k.workloadUps;
        sum.workloadDowns += k.workloadDowns;
        sum.guardBlocks += k.guardBlocks;
        sum.profilerPeriods += k.profilerPeriods;
        sum.parkEvents += k.parkEvents;
        sum.wakeEvents += k.wakeEvents;
    }
    return sum;
}

} // namespace hermes::core
