/**
 * @file
 * hermes-serve: open-loop request serving over Runtime::submit().
 *
 * Every macro-bench in this repo so far is batch-shaped (submit a
 * DAG, wait, time the makespan). The paper's energy story, though,
 * is about *servers*: tail latency and joules per request under an
 * offered load the runtime does not control. This driver closes that
 * gap. It replays a precomputed arrival schedule (arrivals.hpp) from
 * one or more producer threads, pushes each accepted request through
 * Runtime::submit(), timestamps submit/start/finish with
 * util::nowNanos(), and folds latencies into per-worker
 * LatencyRecorders merged after the run.
 *
 * Open-loop discipline, concretely:
 *  - producers pace against the wall clock, never against
 *    completions — a slow runtime makes the backlog grow, it does
 *    not slow the generator;
 *  - producers never block on the runtime: Runtime::submit() is
 *    non-blocking by contract and every SubmitHandle is *retained*
 *    until end-of-run — dropping one mid-run would run the handle's
 *    release drain and silently turn the generator closed-loop;
 *  - overload is handled by shedding, not back-pressure: each offered
 *    request consults an AdmissionController fed by
 *    Runtime::injectTelemetry(), and shed requests are counted, not
 *    queued.
 *
 * Energy per request comes from energy::LiveMeter sampling the
 * modeled package power for the whole run; the run bundle
 * (writeRunBundle) echoes the config, a Google-Benchmark-schema
 * summary JSON (so tools/bench_compare.py gates it unchanged), the
 * time series CSV, and the arrival schedule CSV.
 */

#ifndef HERMES_HARNESS_SERVE_SERVE_DRIVER_HPP
#define HERMES_HARNESS_SERVE_SERVE_DRIVER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "harness/faults/fault_plan.hpp"
#include "harness/serve/admission.hpp"
#include "harness/serve/arrivals.hpp"
#include "harness/serve/latency_recorder.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/stats.hpp"

namespace hermes::harness::serve {

/** One entry of the request mix: a named service kernel. */
struct MixEntry
{
    std::string name = "spin";

    /** Relative arrival weight (feeds ArrivalConfig::mixWeights). */
    double weight = 1.0;

    /** Wall-clock busy-spin service time, used when `workload` is
     * empty. A timed spin (not an iteration count) so service time
     * survives sanitizer instrumentation and frequency scaling. */
    uint64_t spinNanos = 20'000;

    /** When non-empty, each request runs this registered workload
     * (workloads::runWorkload) at `scale`, seeded with the
     * request's own Arrival::requestSeed — the request body executes
     * on a worker, so the workload's TaskGroup waits help instead of
     * blocking. */
    std::string workload;

    /** Input size for `workload` requests. Keep it request-sized:
     * this is per-request service demand, not a batch run. */
    size_t scale = 1024;
};

/** Everything runServe() needs besides the Runtime. */
struct ServeConfig
{
    /** Arrival process; its mixWeights are overwritten from `mix` so
     * the mix has one source of truth. */
    ArrivalConfig arrivals;

    /** Request mix; must be non-empty. */
    std::vector<MixEntry> mix = {MixEntry{}};

    /** Producer (load-generator) threads; the schedule is dealt
     * round-robin so each producer's slice stays time-ordered. */
    unsigned producers = 1;

    /** Admission thresholds (see admission.hpp). */
    AdmissionConfig admission;

    /** When false every offered request is accepted (for measuring
     * raw saturation behavior). */
    bool admissionEnabled = true;

    /** Time-series sampling rate (offered/completed/parked/power). */
    double sampleHz = 100.0;

    /** Power-meter sampling rate (paper rig: 100 Hz). */
    double meterHz = 100.0;

    /** platform::profileByName() name for the power model. */
    std::string profileName = "SystemA";

    /** hermes-chaos: deterministic fault injection + request
     * lifecycle (deadlines/retries). Disabled by default; when
     * `faults.enabled` is false the run and its bundle are
     * byte-identical to the pre-chaos driver. See
     * docs/RESILIENCE.md. */
    faults::FaultConfig faults;
};

/** One row of the run's time series. */
struct SeriesSample
{
    double tSec = 0.0;          ///< seconds since run start
    uint64_t offered = 0;       ///< cumulative offered requests
    uint64_t accepted = 0;      ///< cumulative accepted requests
    uint64_t shed = 0;          ///< cumulative shed requests
    uint64_t completed = 0;     ///< cumulative finished requests
    size_t injectPending = 0;   ///< instantaneous inject backlog
    unsigned parkedWorkers = 0; ///< workers parked at sample time
    double packageWatts = 0.0;  ///< modeled package power
    /** Workers the watchdog currently suspects (heartbeat frozen,
     * not parked, past the detection threshold). Emitted into
     * timeseries.csv only when faults are enabled. */
    unsigned stalledWorkers = 0;
};

/** Everything a serving run produced. */
struct ServeResult
{
    uint64_t offered = 0;
    uint64_t accepted = 0;
    uint64_t shed = 0;
    uint64_t completed = 0;
    uint64_t admissionTransitions = 0;

    /**
     * Outcome taxonomy (docs/RESILIENCE.md). Every offered request
     * lands in exactly one terminal bucket —
     *   offered == shed + ok + retriedOk + failed + deadlineExpired
     * — asserted at end-of-run. All zero except `ok` when faults are
     * disabled (then ok == accepted).
     */
    uint64_t ok = 0;              ///< succeeded on the first attempt
    uint64_t retriedOk = 0;       ///< succeeded after >=1 retry
    uint64_t failed = 0;          ///< every attempt threw (bounded retries spent)
    uint64_t deadlineExpired = 0; ///< deadline passed; counted, not waited on
    uint64_t retriesSpent = 0;    ///< total retry attempts across requests
    uint64_t stragglers = 0;      ///< requests with inflated service time
    uint64_t injectedFaults = 0;  ///< injected exception throws (per attempt)

    /** Watchdog: stall episodes detected (a worker's heartbeat frozen
     * while unparked across consecutive samples) and the compensating
     * wakes issued so parked peers pick up the stranded backlog. */
    uint64_t watchdogStalls = 0;
    uint64_t compensatingWakes = 0;

    /** Successful requests per wall second: (ok + retriedOk) / wall. */
    double goodputPerSec = 0.0;

    /** finish − submit of completed requests (queueing + service).
     * Successful requests only: failed and deadline-expired requests
     * are counted in their buckets, not folded into latency (see the
     * coordinated-omission note in docs/RESILIENCE.md). */
    LatencyRecorder sojourn;
    /** start − submit (time spent queued before a worker picked it
     * up). */
    LatencyRecorder queueing;
    /** finish − start (service time as executed). */
    LatencyRecorder service;
    /** Alias view for gating: sojourn of successful requests only
     * (== sojourn today; kept distinct so the healthy-path recorder
     * can widen later without breaking p99-of-successful gates). */
    LatencyRecorder successSojourn;

    double wallSeconds = 0.0;       ///< first submit to last completion
    double joules = 0.0;            ///< metered energy over the run
    double joulesPerRequest = 0.0;  ///< joules / completed (0 if none)

    runtime::InjectTelemetry inject; ///< final inject-path snapshot
    runtime::RuntimeStats stats;     ///< final scheduler counters

    std::vector<SeriesSample> series;
    std::vector<Arrival> schedule; ///< echoed into the bundle

    /** The per-request fault schedule as drawn (empty requests vector
     * when faults are disabled); echoed into faults.csv. */
    faults::FaultPlan faultPlan;

    ServeConfig config; ///< the (mix-weight-resolved) config as run
};

/**
 * Execute one serving run against `rt`. Blocks until every accepted
 * request has completed (handles are retained and waited at the
 * end). The runtime outlives the call and can be reused.
 */
ServeResult runServe(runtime::Runtime &rt, const ServeConfig &config);

/**
 * Write the run bundle into directory `dir` (created if needed):
 * config.json (config echo), summary.json (Google Benchmark schema —
 * bench_compare.py-gateable counters), timeseries.csv, schedule.csv.
 * JSON artifacts are written atomically (temp file + rename). With
 * faults enabled the bundle additionally gets faults.csv (the drawn
 * fault plan, byte-identical per seed), outcome counters in
 * summary.json, and a stalled_workers column in timeseries.csv;
 * with faults disabled the bundle is byte-identical to the
 * pre-chaos layout.
 */
void writeRunBundle(const std::string &dir, const ServeResult &result);

} // namespace hermes::harness::serve

#endif // HERMES_HARNESS_SERVE_SERVE_DRIVER_HPP
