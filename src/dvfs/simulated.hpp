/**
 * @file
 * Simulated DVFS backend.
 *
 * Substitutes for the per-core DVFS hardware of the paper's AMD
 * systems (see docs/ENERGY_MODEL.md). Maintains per-domain
 * frequency state,
 * validates requests against the ladder and counts transitions.
 * Only the count is kept: a runtime changes frequency hundreds of
 * times per fork-join root, so a recorded timeline would grow for
 * the whole life of the Runtime. Thread-safe: the threaded runtime
 * issues requests from many workers.
 */

#ifndef HERMES_DVFS_SIMULATED_HPP
#define HERMES_DVFS_SIMULATED_HPP

#include <mutex>
#include <vector>

#include "dvfs/backend.hpp"
#include "platform/frequency.hpp"

namespace hermes::dvfs {

/** In-memory DVFS with a transition count. */
class SimulatedDvfs : public DvfsBackend
{
  public:
    /**
     * @param num_domains independently scalable domains
     * @param ladder the frequencies requests must come from
     * @param transition_latency_sec modelled switch latency, exposed
     *        via latency() for the simulator's delayed-effect model
     */
    SimulatedDvfs(unsigned num_domains,
                  platform::FrequencyLadder ladder,
                  double transition_latency_sec = 50e-6);

    unsigned numDomains() const override { return numDomains_; }

    platform::FreqMhz
    domainFreq(platform::DomainId domain) const override;

    void setDomainFreq(platform::DomainId domain,
                       platform::FreqMhz freq_mhz,
                       double now) override;

    /** Modelled per-switch latency in seconds. */
    double latency() const { return latencySec_; }

    /** Ladder this backend validates against. */
    const platform::FrequencyLadder &ladder() const { return ladder_; }

    /** Total accepted (non-redundant) transitions so far. */
    size_t transitionCount() const;

    /** Reset all domains to `freq_mhz` and zero the count. */
    void reset(platform::FreqMhz freq_mhz);

  private:
    unsigned numDomains_;
    platform::FrequencyLadder ladder_;
    double latencySec_;

    mutable std::mutex mutex_;
    std::vector<platform::FreqMhz> freqs_;
    size_t transitions_ = 0;
};

/** Backend that ignores requests; the Cilk-Plus-baseline stand-in. */
class NullDvfs : public DvfsBackend
{
  public:
    NullDvfs(unsigned num_domains, platform::FreqMhz fixed_mhz)
        : numDomains_(num_domains), fixedMhz_(fixed_mhz)
    {}

    unsigned numDomains() const override { return numDomains_; }

    platform::FreqMhz
    domainFreq(platform::DomainId) const override
    {
        return fixedMhz_;
    }

    void
    setDomainFreq(platform::DomainId, platform::FreqMhz,
                  double) override
    {}

  private:
    unsigned numDomains_;
    platform::FreqMhz fixedMhz_;
};

} // namespace hermes::dvfs

#endif // HERMES_DVFS_SIMULATED_HPP
