#include "dvfs/simulated.hpp"

#include "util/assert.hpp"

namespace hermes::dvfs {

SimulatedDvfs::SimulatedDvfs(unsigned num_domains,
                             platform::FrequencyLadder ladder,
                             double transition_latency_sec)
    : numDomains_(num_domains), ladder_(std::move(ladder)),
      latencySec_(transition_latency_sec),
      freqs_(num_domains, ladder_.fastest())
{
    HERMES_ASSERT(num_domains > 0, "need at least one clock domain");
}

platform::FreqMhz
SimulatedDvfs::domainFreq(platform::DomainId domain) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    HERMES_ASSERT(domain < numDomains_,
                  "domain " << domain << " out of range");
    return freqs_[domain];
}

void
SimulatedDvfs::setDomainFreq(platform::DomainId domain,
                             platform::FreqMhz freq_mhz, double)
{
    HERMES_ASSERT(ladder_.contains(freq_mhz),
                  freq_mhz << " MHz is not a ladder rung");
    std::lock_guard<std::mutex> lock(mutex_);
    HERMES_ASSERT(domain < numDomains_,
                  "domain " << domain << " out of range");
    if (freqs_[domain] == freq_mhz)
        return;
    ++transitions_;
    freqs_[domain] = freq_mhz;
}

size_t
SimulatedDvfs::transitionCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return transitions_;
}

void
SimulatedDvfs::reset(platform::FreqMhz freq_mhz)
{
    HERMES_ASSERT(ladder_.contains(freq_mhz),
                  freq_mhz << " MHz is not a ladder rung");
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &f : freqs_)
        f = freq_mhz;
    transitions_ = 0;
}

} // namespace hermes::dvfs
