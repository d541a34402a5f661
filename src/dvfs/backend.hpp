/**
 * @file
 * The DVFS abstraction HERMES drives.
 *
 * The tempo controller only ever needs two operations: read a clock
 * domain's current frequency and request a new one. Keeping the
 * interface this small lets the identical controller run against real
 * sysfs cpufreq, the simulated backend, or a test recorder.
 *
 * Timestamps are supplied by the caller (wall-clock seconds in the
 * threaded runtime, virtual seconds in the simulator) so one backend
 * serves both substrates.
 */

#ifndef HERMES_DVFS_BACKEND_HPP
#define HERMES_DVFS_BACKEND_HPP

#include "platform/frequency.hpp"
#include "platform/topology.hpp"

namespace hermes::dvfs {

/** Abstract per-clock-domain frequency control. */
class DvfsBackend
{
  public:
    virtual ~DvfsBackend() = default;

    /** Number of independently scalable clock domains. */
    virtual unsigned numDomains() const = 0;

    /** Current frequency of `domain` in MHz. */
    virtual platform::FreqMhz
    domainFreq(platform::DomainId domain) const = 0;

    /**
     * Request `freq_mhz` on `domain` at caller time `now` (seconds).
     * Redundant requests (same frequency) must be cheap no-ops.
     */
    virtual void setDomainFreq(platform::DomainId domain,
                               platform::FreqMhz freq_mhz,
                               double now) = 0;
};

} // namespace hermes::dvfs

#endif // HERMES_DVFS_BACKEND_HPP
