/**
 * @file
 * Admission control for the serving harness: accept or shed each
 * offered request from an instantaneous view of the inject path.
 *
 * The controller is a pure hysteresis state machine — no clocks, no
 * threads, no runtime handles — fed two numbers per decision: the
 * current injected-but-undrained backlog and the cumulative spill
 * count from Runtime::injectTelemetry(). Purity keeps it unit-testable
 * (tests/test_admission.cpp drives it with synthetic sequences) and
 * keeps the producer hot path allocation- and lock-free: one branch
 * and a few counter bumps per offered request, never blocking.
 *
 * Hysteresis (enter shedding at highWatermark, leave at lowWatermark)
 * prevents flapping when the backlog hovers near a single threshold;
 * a spill event (ring full) optionally trips shedding
 * immediately, since spilling is the runtime's own signal that the
 * inject fast path is saturated.
 */

#ifndef HERMES_HARNESS_SERVE_ADMISSION_HPP
#define HERMES_HARNESS_SERVE_ADMISSION_HPP

#include <cstddef>
#include <cstdint>

namespace hermes::harness::serve {

/** Thresholds for the hysteresis machine. */
struct AdmissionConfig
{
    /** Backlog at or above this enters shedding. */
    size_t highWatermark = 1024;

    /** Backlog at or below this (with no fresh spill) leaves
     * shedding. Must be < highWatermark. */
    size_t lowWatermark = 256;

    /** Whether a spill-count increase also trips shedding. */
    bool shedOnSpill = true;
};

/**
 * Per-producer accept/shed decision maker. Not thread-safe: the
 * driver gives each producer thread its own controller and sums the
 * counters after the run (they are plain integers, so the sum is
 * exact).
 */
class AdmissionController
{
  public:
    explicit AdmissionController(const AdmissionConfig &config);

    /**
     * Decide one offered request. `backlog` is the instantaneous
     * inject backlog; `spillTotal` the cumulative spill counter (must
     * be monotone across calls — the first call sets the baseline,
     * so spills predating this controller are not a signal). Returns
     * true to accept, false to shed; counters update either way.
     */
    bool admit(size_t backlog, uint64_t spillTotal);

    /** Currently in the shedding state? */
    bool shedding() const { return shedding_; }

    /** Requests offered so far (== accepted() + shed() always). */
    uint64_t offered() const { return offered_; }

    /** Requests accepted so far. */
    uint64_t accepted() const { return accepted_; }

    /** Requests shed so far. */
    uint64_t shed() const { return shed_; }

    /** State flips (accept->shed or shed->accept) so far; a small
     * number relative to offered() demonstrates the hysteresis. */
    uint64_t transitions() const { return transitions_; }

  private:
    AdmissionConfig config_;
    bool shedding_ = false;
    bool primed_ = false;
    uint64_t lastSpill_ = 0;
    uint64_t offered_ = 0;
    uint64_t accepted_ = 0;
    uint64_t shed_ = 0;
    uint64_t transitions_ = 0;
};

} // namespace hermes::harness::serve

#endif // HERMES_HARNESS_SERVE_ADMISSION_HPP
