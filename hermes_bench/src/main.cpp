/**
 * @file
 * hermes-bench: one process of the HERMES benchmark.
 *
 * run.py builds this binary, starts it once per run segment, and turns
 * its line protocol into metrics; README.md documents the workloads.
 * The process calls only the public API of the runtime, core, dvfs,
 * energy and workloads modules, and generates every input itself from
 * --seed, so the library under test receives nothing but data.
 *
 * Line protocol on stdout (one record per line, flushed per operation
 * so a crash loses at most the operation in flight):
 *   fingerprint {json}
 *   setup <seconds>                 one per set-up repetition
 *   timed                           the timed region begins
 *   stop                            the timed region has ended
 *   begin <op>                      batch: before each root / round
 *   op <op> <status> <start_ns> <end_ns> <k0..k4 ns> <c0 c1 c2> <rss_kb>
 *   ref <c0 c1 c2>                  --reference: 1-worker checksums
 *   counters {json}                 cumulative: after each batch
 *                                   operation and the timed region
 *   span <name> <parent> <op> <start_ns> <end_ns>   traced runs only
 *   end
 * Serve writes one 40-byte record per request into the --records file
 * (a shared mapping, so the records survive a crash of this process).
 */

#include <sys/mman.h>
#include <sys/resource.h>
#include <fcntl.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/policy.hpp"
#include "core/tempo_controller.hpp"
#include "dvfs/simulated.hpp"
#include "energy/meter.hpp"
#include "energy/power_model.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_group.hpp"
#include "workloads/data_gen.hpp"
#include "workloads/hull.hpp"
#include "workloads/knn.hpp"
#include "workloads/ray.hpp"
#include "workloads/sort_radix.hpp"
#include "workloads/sort_sample.hpp"

namespace {

using hermes::runtime::Runtime;
using hermes::runtime::RuntimeConfig;
using hermes::runtime::RuntimeStats;
using hermes::runtime::SubmitHandle;
using hermes::runtime::TaskGroup;
namespace wl = hermes::workloads;

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "hermes-bench: %s\n", msg.c_str());
    std::exit(2);
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// ------------------------------------------------------------ inputs

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** The benchmark's own generator: inputs do not move when the
 * library's data_gen helpers change. */
struct SplitMix
{
    uint64_t state;
    explicit SplitMix(uint64_t seed, uint64_t stream)
        : state(mix64(seed ^ mix64(stream)))
    {}
    uint64_t next() { return mix64(state++); }
    double uniform() { return double(next() >> 11) * 0x1.0p-53; }
    double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
};

/** Order-independent digest of a key multiset: equal for any
 * permutation, different (with overwhelming probability) otherwise. */
uint64_t
multisetDigest(const std::vector<uint32_t> &keys)
{
    uint64_t sum = 0, x = 0;
    for (uint32_t k : keys) {
        const uint64_t h = mix64(k);
        sum += h;
        x ^= h * 0x2545f4914f6cdd1dULL;
    }
    return sum ^ mix64(x);
}

template <typename T>
uint64_t
sequenceDigest(const std::vector<T> &values)
{
    uint64_t h = mix64(values.size());
    for (const T &v : values) {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        for (size_t i = 0; i < sizeof(T); i += 8) {
            uint64_t word = 0;
            std::memcpy(&word, bytes + i, std::min<size_t>(8, sizeof(T) - i));
            h = mix64(h ^ word);
        }
    }
    return h;
}

struct Sizes
{
    int fibN;
    size_t radixKeys, sampleKeys, knnPoints, knnQueries, triangles, rays,
        hullPoints, fanoutLeaves;
};

// Full-size inputs, and a seconds-long smoke variant.
constexpr Sizes kFull{40, 16u << 20, 8u << 20, 1u << 20, 256u << 10,
                      128u << 10, 512u << 10, 8u << 20, 16u << 10};
constexpr Sizes kSmoke{30, 256u << 10, 128u << 10, 16u << 10, 4u << 10,
                       2u << 10, 8u << 10, 128u << 10, 2u << 10};

struct PbbsInputs
{
    std::vector<uint32_t> radixKeys, sampleKeys;
    std::vector<wl::Point2> knnPoints, knnQueries, hullPoints;
    std::vector<wl::Triangle> triangles;
    std::vector<wl::RayQuery> rays;
};

void
genKeys(std::vector<uint32_t> &keys, size_t n, uint64_t seed, uint64_t stream)
{
    SplitMix rng(seed, stream);
    keys.resize(n);
    for (auto &k : keys)
        k = static_cast<uint32_t>(rng.next());
}

void
genPoints(std::vector<wl::Point2> &pts, size_t n, uint64_t seed,
          uint64_t stream)
{
    SplitMix rng(seed, stream);
    pts.resize(n);
    for (auto &p : pts)
        p = {rng.uniform(), rng.uniform()};
}

/** Fills `in` with the inputs of `seed`. Buffers already sized by an
 * earlier call are reused, so repeated set-ups time the generation, not
 * the kernel's first touch of fresh pages. */
void
genPbbs(const Sizes &s, uint64_t seed, PbbsInputs &in)
{
    genKeys(in.radixKeys, s.radixKeys, seed, 1);
    genKeys(in.sampleKeys, s.sampleKeys, seed, 2);
    genPoints(in.knnPoints, s.knnPoints, seed, 3);
    genPoints(in.knnQueries, s.knnQueries, seed, 4);
    genPoints(in.hullPoints, s.hullPoints, seed, 5);
    SplitMix rng(seed, 6);
    in.triangles.resize(s.triangles);
    for (auto &t : in.triangles) {
        const wl::Point3 base{rng.uniform(), rng.uniform(), rng.uniform()};
        auto j = [&] { return rng.uniform(-0.05, 0.05); };
        t.a = base;
        t.b = {base.x + j(), base.y + j(), base.z + j()};
        t.c = {base.x + j(), base.y + j(), base.z + j()};
    }
    in.rays.resize(s.rays);
    for (auto &r : in.rays) {
        r.origin = {rng.uniform(), rng.uniform(), -1.0};
        r.dir = {rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), 1.0};
    }
}

// ------------------------------------------------------------ tracing

/** One span at a layer boundary; `name` is "<layer>.<call>". */
struct Span
{
    const char *name;
    const char *parent;
    int64_t op;
    int64_t start, end;
};

/** In-memory span store: one buffer per recording thread, registered
 * on first use and written out when the process ends. */
class SpanStore
{
  public:
    void
    record(const char *name, const char *parent, int64_t op,
           int64_t start, int64_t end)
    {
        thread_local std::vector<Span> *buf = nullptr;
        if (buf == nullptr) {
            std::lock_guard<std::mutex> lock(mutex_);
            bufs_.push_back(std::make_unique<std::vector<Span>>());
            buf = bufs_.back().get();
            buf->reserve(1 << 14);
        }
        buf->push_back({name, parent, op, start, end});
    }

    /** Call only once every recording thread has gone quiet. */
    void
    write() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &buf : bufs_)
            for (const Span &s : *buf)
                std::printf("span %s %s %lld %lld %lld\n", s.name,
                            s.parent, (long long)s.op,
                            (long long)s.start, (long long)s.end);
    }

  private:
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<std::vector<Span>>> bufs_;
};

SpanStore g_spans;

// ------------------------------------------------------------ fib

constexpr int kSerialBelow = 14;
constexpr unsigned kTaskGroupSampleMask = 1023; // 1 in 1024 joins

uint64_t
serialFib(int n)
{
    return n < 2 ? uint64_t(n) : serialFib(n - 1) + serialFib(n - 2);
}

uint64_t
closedFormFib(int n)
{
    const double phi = (1.0 + std::sqrt(5.0)) / 2.0;
    return static_cast<uint64_t>(std::llround(std::pow(phi, n) / std::sqrt(5.0)));
}

/** Fork-join fib; the traced instantiation samples TaskGroup spans. */
template <bool Traced>
uint64_t
fib(Runtime &rt, int n, int64_t op)
{
    if (n < kSerialBelow)
        return serialFib(n);
    uint64_t a = 0;
    TaskGroup group(rt);
    auto left = [&a, &rt, n, op] { a = fib<Traced>(rt, n - 1, op); };
    bool sampled = false;
    if constexpr (Traced) {
        thread_local unsigned joins = 0;
        sampled = (++joins & kTaskGroupSampleMask) == 0;
    }
    if (!sampled) {
        group.run(left);
        const uint64_t b = fib<Traced>(rt, n - 2, op);
        group.wait();
        return a + b;
    }
    const int64_t t0 = nowNs();
    group.run(left);
    const int64_t t1 = nowNs();
    const uint64_t b = fib<Traced>(rt, n - 2, op);
    const int64_t t2 = nowNs();
    group.wait();
    const int64_t t3 = nowNs();
    g_spans.record("task_group.run", "bench.fib", op, t0, t1);
    g_spans.record("task_group.wait", "bench.fib", op, t2, t3);
    return a + b;
}

// ------------------------------------------------------------ fanout

/** Inputs of a fan-out root: one serial fib size per leaf, and the
 * slots the leaves write their results to. */
struct FanoutState
{
    std::vector<uint8_t> leafN;
    std::vector<uint64_t> out;
};

constexpr int kFanoutSizes = 4; // leaves are serial fib(14..17)

/** Fills `st` with the leaf sizes of `seed`, reusing its buffers (see
 * genPbbs). */
void
genFanout(const Sizes &s, uint64_t seed, FanoutState &st)
{
    SplitMix rng(seed, 7);
    st.leafN.resize(s.fanoutLeaves);
    for (auto &n : st.leafN)
        n = static_cast<uint8_t>(kSerialBelow + rng.next() % kFanoutSizes);
    st.out.resize(s.fanoutLeaves);
}

// ------------------------------------------------------------ options

/** Sleep between two set-ups. This host's CPU speed alternates between
 * two levels about 2x apart, in phases of about a second; set-ups
 * spread over seconds sample several phases, so their median does not
 * hinge on the phase a run starts in. */
constexpr std::chrono::milliseconds kSetupSpacing{250};

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    bool reference = false;
    int64_t firstOp = 0;
    uint64_t segment = 0;
    unsigned setupReps = 1;
    std::string records;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                die("missing value for " + a);
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::stoull(value());
        else if (a == "--seconds")
            o.seconds = std::stod(value());
        else if (a == "--trace")
            o.trace = value() == "1";
        else if (a == "--first-op")
            o.firstOp = std::stoll(value());
        else if (a == "--segment")
            o.segment = std::stoull(value());
        else if (a == "--setup-reps")
            o.setupReps = std::max(1, std::stoi(value()));
        else if (a == "--records")
            o.records = value();
        else if (a == "--smoke")
            o.smoke = true;
        else if (a == "--reference")
            o.reference = true;
        else
            die("unknown flag " + a);
    }
    if (o.workload != "fib" && o.workload != "fib-hermes"
        && o.workload != "fanout-hermes" && o.workload != "pbbs-hermes"
        && o.workload != "serve")
        die("--workload must be fib, fib-hermes, fanout-hermes, "
            "pbbs-hermes or serve");
    if (!(o.seconds > 0.0))
        die("--seconds must be positive");
    if (o.workload == "serve" && o.records.empty())
        die("serve needs --records");
    return o;
}

RuntimeConfig
configFor(const Options &o)
{
    RuntimeConfig cfg; // default host profile: SystemB power parameters
    cfg.numWorkers = o.workload == "serve" ? 3 : 4;
    cfg.seed = mix64(o.seed ^ 0x5eedULL);
    if (o.workload == "fib-hermes" || o.workload == "fanout-hermes"
        || o.workload == "pbbs-hermes") {
        cfg.enableTempo = true;
        cfg.tempo.policy = hermes::core::TempoPolicy::Unified;
    }
    return cfg;
}

// ------------------------------------------------------------ reporting

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string s(reinterpret_cast<const char *>(regs), sizeof(regs));
        s = s.c_str();
        const auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

#if defined(__GNUC__) && !defined(__clang__)
constexpr const char *kCompiler = "gcc " __VERSION__;
#else
constexpr const char *kCompiler = __VERSION__;
#endif

void
printFingerprint()
{
    std::printf("fingerprint {\"nproc\": %u, \"cpu\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
                std::thread::hardware_concurrency(),
                jsonEscape(cpuModel()).c_str(),
                jsonEscape(kCompiler).c_str(), HERMES_BENCH_BUILD_TYPE);
}

long
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** Counters of the timed region, as deltas of the layers' own
 * counters between its start and its end. */
struct Snapshot
{
    RuntimeStats stats;
    hermes::core::TempoCounters tempo;
    size_t transitions = 0;

    static Snapshot
    of(const Runtime &rt)
    {
        Snapshot s;
        s.stats = rt.stats();
        if (rt.tempo() != nullptr)
            s.tempo = rt.tempo()->counters();
        s.transitions = rt.backend().transitionCount();
        return s;
    }
};

void
printCounters(const Runtime &rt, const Snapshot &a, const Snapshot &b,
              int64_t ops, double timedSec, double joules)
{
    auto d = [](uint64_t x, uint64_t y) {
        return static_cast<unsigned long long>(y - x);
    };
    const RuntimeStats &s = a.stats, &t = b.stats;
    std::printf(
        "counters {\"ops\": %lld, \"timed_s\": %.9f, \"joules\": %.9f, "
        "\"workers\": %u, \"peak_rss_kb\": %ld, "
        "\"steals\": %llu, \"stolen_tasks\": %llu, "
        "\"steal_cas_retries\": %llu, \"pop_cas_losses\": %llu, "
        "\"failed_hunts\": %llu, \"parks\": %llu, \"wakes\": %llu, "
        "\"spurious_wakes\": %llu, \"parked_ns\": %llu, "
        "\"inject_fast\": %llu, \"inject_spill\": %llu, "
        "\"workload_ups\": %llu, \"workload_downs\": %llu, "
        "\"steal_downs\": %llu, \"relay_ups\": %llu, "
        "\"out_of_work\": %llu, \"dvfs_transitions\": %llu}\n",
        (long long)ops, timedSec, joules, rt.numWorkers(), peakRssKb(),
        d(s.steals, t.steals),
        d(s.stolenTasks, t.stolenTasks),
        d(s.stealCasRetries, t.stealCasRetries),
        d(s.popCasLosses, t.popCasLosses),
        d(s.failedSteals, t.failedSteals), d(s.parks, t.parks),
        d(s.wakes, t.wakes), d(s.spuriousWakes, t.spuriousWakes),
        d(s.parkedNanos, t.parkedNanos),
        d(s.injectFastPath, t.injectFastPath),
        d(s.injectSpill, t.injectSpill),
        d(a.tempo.workloadUps, b.tempo.workloadUps),
        d(a.tempo.workloadDowns, b.tempo.workloadDowns),
        d(a.tempo.stealDowns, b.tempo.stealDowns),
        d(a.tempo.relayUps, b.tempo.relayUps),
        d(a.tempo.outOfWorkEvents, b.tempo.outOfWorkEvents),
        d(a.transitions, b.transitions));
    std::fflush(stdout);
}

// ------------------------------------------------------------ batch

enum Status { kOk = 1, kWrong = 2, kThrew = 3 };

struct OpResult
{
    int status = kOk;
    int64_t start = 0, end = 0;
    int64_t kernelNs[5] = {};
    uint64_t checksum[3] = {};
};

/** Runtime::run around `body`, traced as runtime.run → `name`. */
template <typename Body>
void
timedRun(Runtime &rt, bool traced, int64_t op, const char *name,
         Body &&body)
{
    const int64_t t0 = nowNs();
    rt.run([&] {
        const int64_t b0 = nowNs();
        body();
        if (traced)
            g_spans.record(name, "runtime.run", op, b0, nowNs());
    });
    if (traced)
        g_spans.record("runtime.run", "-", op, t0, nowNs());
}

OpResult
fibOp(Runtime &rt, const Sizes &sz, bool traced, int64_t op)
{
    OpResult r;
    uint64_t result = 0;
    r.start = nowNs();
    timedRun(rt, traced, op, "bench.fib", [&] {
        result = traced ? fib<true>(rt, sz.fibN, op)
                        : fib<false>(rt, sz.fibN, op);
    });
    r.end = nowNs();
    r.checksum[0] = result;
    if (result != closedFormFib(sz.fibN))
        r.status = kWrong;
    return r;
}

/** One root that spawns every leaf into a single TaskGroup and waits
 * once; a traced root samples 1 in 1024 spawns. One join per root keeps
 * the roots clear of the TaskGroup completion race that fails a few in
 * a thousand fib(40) roots, so two sets of runs agree on `failed`. */
OpResult
fanoutOp(Runtime &rt, FanoutState &st, bool traced, int64_t op)
{
    OpResult r;
    std::fill(st.out.begin(), st.out.end(), 0);
    r.start = nowNs();
    timedRun(rt, traced, op, "bench.fanout", [&] {
        TaskGroup group(rt);
        for (size_t i = 0; i < st.leafN.size(); ++i) {
            auto leaf = [&st, i] { st.out[i] = serialFib(st.leafN[i]); };
            if (!traced || (i & kTaskGroupSampleMask) != 0) {
                group.run(leaf);
                continue;
            }
            const int64_t t0 = nowNs();
            group.run(leaf);
            g_spans.record("task_group.run", "bench.fanout", op, t0,
                           nowNs());
        }
        const int64_t t0 = nowNs();
        group.wait();
        if (traced)
            g_spans.record("task_group.wait", "bench.fanout", op, t0,
                           nowNs());
    });
    r.end = nowNs();
    uint64_t expect[kSerialBelow + kFanoutSizes] = {};
    for (int n = kSerialBelow; n < kSerialBelow + kFanoutSizes; ++n)
        expect[n] = closedFormFib(n);
    for (size_t i = 0; i < st.out.size(); ++i) {
        r.checksum[0] += st.out[i];
        if (st.out[i] != expect[st.leafN[i]])
            r.status = kWrong;
    }
    return r;
}

struct PbbsState
{
    PbbsInputs in;
    uint64_t radixDigest = 0, sampleDigest = 0;
    std::vector<uint32_t> radixWork, sampleWork;
};

bool
isSortedPermutation(const std::vector<uint32_t> &keys, uint64_t digest)
{
    return std::is_sorted(keys.begin(), keys.end())
        && multisetDigest(keys) == digest;
}

/** knn, ray and hull on `rt`: the checksums a 1-worker run must match. */
void
geometryKernels(Runtime &rt, const PbbsInputs &in, bool traced, int64_t op,
                OpResult &r)
{
    const char *names[3] = {"workloads.knn", "workloads.ray",
                            "workloads.hull"};
    std::vector<size_t> nn, hits;
    std::vector<wl::Point2> hull;
    for (int k = 0; k < 3; ++k) {
        const int64_t t0 = nowNs();
        timedRun(rt, traced, op, names[k], [&] {
            if (k == 0) {
                wl::KdTree tree(rt, in.knnPoints);
                nn = wl::nearestNeighbors(rt, tree, in.knnQueries);
            } else if (k == 1) {
                wl::Bvh bvh(rt, in.triangles);
                hits = wl::castRays(rt, bvh, in.rays);
            } else {
                hull = wl::convexHull(rt, in.hullPoints);
            }
        });
        r.kernelNs[2 + k] = nowNs() - t0;
    }
    r.checksum[0] = sequenceDigest(nn);
    r.checksum[1] = sequenceDigest(hits);
    r.checksum[2] = sequenceDigest(hull);
}

OpResult
pbbsOp(Runtime &rt, PbbsState &st, bool traced, int64_t op)
{
    OpResult r;
    // Fresh unsorted copies, outside the timed kernels.
    st.radixWork = st.in.radixKeys;
    st.sampleWork = st.in.sampleKeys;
    r.start = nowNs();
    int64_t t0 = r.start;
    timedRun(rt, traced, op, "workloads.sort",
             [&] { wl::radixSort(rt, st.radixWork); });
    r.kernelNs[0] = nowNs() - t0;
    t0 = nowNs();
    timedRun(rt, traced, op, "workloads.compare",
             [&] { wl::sampleSort(rt, st.sampleWork); });
    r.kernelNs[1] = nowNs() - t0;
    geometryKernels(rt, st.in, traced, op, r);
    r.end = nowNs();
    if (!isSortedPermutation(st.radixWork, st.radixDigest)
        || !isSortedPermutation(st.sampleWork, st.sampleDigest))
        r.status = kWrong;
    return r;
}

void
printOp(int64_t op, const OpResult &r)
{
    std::printf("op %lld %d %lld %lld", (long long)op, r.status,
                (long long)r.start, (long long)r.end);
    for (int64_t k : r.kernelNs)
        std::printf(" %lld", (long long)k);
    for (uint64_t c : r.checksum)
        std::printf(" %016llx", (unsigned long long)c);
    std::printf(" %ld\n", peakRssKb());
    std::fflush(stdout);
}

int
runBatch(const Options &o, const Sizes &sz)
{
    const RuntimeConfig cfg = configFor(o);
    const bool pbbs = o.workload == "pbbs-hermes";
    const bool fanout = o.workload == "fanout-hermes";
    std::unique_ptr<Runtime> rt;
    PbbsState st;
    FanoutState fs;
    // First touch of the input buffers, untimed.
    if (pbbs)
        genPbbs(sz, o.seed, st.in);
    else if (fanout)
        genFanout(sz, o.seed, fs);
    for (unsigned rep = 0; rep < o.setupReps; ++rep) {
        if (rep > 0 && !o.smoke)
            std::this_thread::sleep_for(kSetupSpacing);
        rt.reset();
        const int64_t t0 = nowNs();
        if (pbbs)
            genPbbs(sz, o.seed, st.in);
        else if (fanout)
            genFanout(sz, o.seed, fs);
        const int64_t t1 = nowNs();
        rt = std::make_unique<Runtime>(cfg);
        const int64_t t2 = nowNs();
        if (o.trace)
            g_spans.record("runtime.ctor", "-", -1 - int64_t(rep), t1, t2);
        std::printf("setup %.9f\n", (t2 - t0) * 1e-9);
    }
    if (pbbs) {
        st.radixDigest = multisetDigest(st.in.radixKeys);
        st.sampleDigest = multisetDigest(st.in.sampleKeys);
    }
    std::fflush(stdout);

    const hermes::energy::PowerModel model(cfg.profile);
    hermes::energy::LiveMeter meter(
        [&] { return rt->packagePower(model); }, 100.0);
    const Snapshot before = Snapshot::of(*rt);
    const int64_t start = nowNs();
    const int64_t budget = static_cast<int64_t>(o.seconds * 1e9);
    std::printf("timed\n");
    std::fflush(stdout);
    meter.start();
    int64_t op = o.firstOp;
    for (; op == o.firstOp || nowNs() - start < budget; ++op) {
        std::printf("begin %lld\n", (long long)op);
        std::fflush(stdout);
        // Odd operations are traced in a traced run; even ones give
        // the untraced side of trace.overhead_frac.
        const bool traced = o.trace && (op % 2 != 0);
        OpResult r;
        try {
            r = pbbs     ? pbbsOp(*rt, st, traced, op)
                : fanout ? fanoutOp(*rt, fs, traced, op)
                         : fibOp(*rt, sz, traced, op);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "hermes-bench: op %lld threw: %s\n",
                         (long long)op, e.what());
            r.status = kThrew;
        }
        printOp(op, r);
        // Cumulative, so a child killed later still accounts for the
        // operations it finished.
        printCounters(*rt, before, Snapshot::of(*rt), op + 1 - o.firstOp,
                      (nowNs() - start) * 1e-9, meter.joules());
    }
    meter.stop();
    const int64_t stop = nowNs();
    std::printf("stop\n");
    printCounters(*rt, before, Snapshot::of(*rt), op - o.firstOp,
                  (stop - start) * 1e-9, meter.joules());
    rt.reset();
    if (o.trace)
        g_spans.write();
    std::printf("end\n");
    return 0;
}

int
runReference(const Options &o, const Sizes &sz)
{
    RuntimeConfig cfg = configFor(o);
    cfg.numWorkers = 1;
    cfg.enableTempo = false;
    Runtime rt(cfg);
    PbbsInputs in;
    genPbbs(sz, o.seed, in);
    OpResult r;
    geometryKernels(rt, in, false, 0, r);
    std::printf("ref %016llx %016llx %016llx\nend\n",
                (unsigned long long)r.checksum[0],
                (unsigned long long)r.checksum[1],
                (unsigned long long)r.checksum[2]);
    return 0;
}

// ------------------------------------------------------------ serve

constexpr double kServeRatePerSec = 30000.0;
constexpr int64_t kServiceNs = 20000;
constexpr int64_t kDrainDeadlineNs = 2'000'000'000;

/** One request's record in the shared --records file. */
struct Record
{
    int64_t due;    ///< absolute steady-clock ns the request was due
    int64_t submit;   ///< generator's clock when Runtime::submit began
    int64_t returned; ///< generator's clock when Runtime::submit returned
    int64_t end;      ///< body end (0 while unfinished)
    uint64_t runs;    ///< times the body ran; must end at exactly 1
};
static_assert(sizeof(Record) == 40);

Record *
mapRecords(const std::string &path, size_t n)
{
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd < 0 || ::ftruncate(fd, off_t(n * sizeof(Record))) != 0)
        die("cannot create records file " + path);
    void *p = ::mmap(nullptr, n * sizeof(Record), PROT_READ | PROT_WRITE,
                     MAP_SHARED, fd, 0);
    ::close(fd);
    if (p == MAP_FAILED)
        die("cannot map records file " + path);
    return static_cast<Record *>(p);
}

/** Poisson arrival offsets (ns from the first due time), into `out`
 * (its buffer is reused, as genPbbs's are). */
void
arrivalOffsets(uint64_t seed, uint64_t segment, double seconds,
               std::vector<int64_t> &out)
{
    SplitMix rng(seed, 100 + segment);
    out.clear();
    double t = 0.0;
    for (;;) {
        t += -std::log1p(-rng.uniform()) / kServeRatePerSec;
        if (t >= seconds)
            break;
        out.push_back(static_cast<int64_t>(t * 1e9));
    }
}

int
runServe(const Options &o)
{
    const RuntimeConfig cfg = configFor(o);
    std::unique_ptr<Runtime> rt;
    std::vector<int64_t> offsets;
    arrivalOffsets(o.seed, o.segment, o.seconds, offsets); // first touch
    for (unsigned rep = 0; rep < o.setupReps; ++rep) {
        if (rep > 0 && !o.smoke)
            std::this_thread::sleep_for(kSetupSpacing);
        rt.reset();
        const int64_t t0 = nowNs();
        rt = std::make_unique<Runtime>(cfg);
        const int64_t t1 = nowNs();
        arrivalOffsets(o.seed, o.segment, o.seconds, offsets);
        const int64_t t2 = nowNs();
        if (o.trace)
            g_spans.record("runtime.ctor", "-", -1 - int64_t(rep), t0, t1);
        std::printf("setup %.9f\n", (t2 - t0) * 1e-9);
    }
    const size_t n = offsets.size();
    Record *recs = mapRecords(o.records, std::max<size_t>(n, 1));
    std::vector<SubmitHandle> handles(n); // kept until the end
    std::fflush(stdout);

    const hermes::energy::PowerModel model(cfg.profile);
    hermes::energy::LiveMeter meter(
        [&] { return rt->packagePower(model); }, 100.0);
    const Snapshot before = Snapshot::of(*rt);
    std::printf("timed\n");
    std::fflush(stdout);
    const int64_t start = nowNs() + 1'000'000; // first due time
    meter.start();
    for (size_t i = 0; i < n; ++i) {
        Record *rec = &recs[i];
        const int64_t op = o.firstOp + int64_t(i);
        const bool traced = o.trace && (op % 2 != 0);
        rec->due = start + offsets[i];
        int64_t t = nowNs();
        while (t < rec->due)
            t = nowNs();
        rec->submit = t;
        handles[i] = rt->submit([rec, traced, op] {
            const int64_t b0 = nowNs();
            int64_t b1 = b0;
            while (b1 - b0 < kServiceNs)
                b1 = nowNs();
            std::atomic_ref<uint64_t>(rec->runs).fetch_add(1);
            std::atomic_ref<int64_t>(rec->end).store(b1);
            if (traced)
                g_spans.record("request.body", "-", op, b0, b1);
        });
        rec->returned = nowNs();
        if (traced)
            g_spans.record("submit.call", "-", op, t, rec->returned);
    }
    // Requests that have not ended by the drain deadline are failed:
    // they are left running, and the process exits without tearing
    // the runtime down under them.
    const int64_t deadline =
        (n ? recs[n - 1].due : start) + kDrainDeadlineNs;
    int64_t last = start;
    int64_t unfinished = 0;
    for (size_t i = 0; i < n; ++i) {
        int64_t e;
        while ((e = std::atomic_ref<int64_t>(recs[i].end).load()) == 0
               && nowNs() < deadline)
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        if (e == 0)
            ++unfinished;
        last = std::max(last, e);
    }
    meter.stop();
    std::printf("stop\n");
    printCounters(*rt, before, Snapshot::of(*rt), int64_t(n),
                  (last - start) * 1e-9, meter.joules());
    if (unfinished != 0) {
        std::printf("end\n");
        std::fflush(stdout);
        std::_Exit(0);
    }
    handles.clear();
    rt.reset();
    if (o.trace)
        g_spans.write();
    ::munmap(recs, std::max<size_t>(n, 1) * sizeof(Record));
    std::printf("end\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
#ifndef NDEBUG
    die("refusing to report from a build with assertions on (NDEBUG unset)");
#endif
    if (std::string(HERMES_BENCH_BUILD_TYPE) != "Release")
        die(std::string("refusing to report from a non-Release build (")
            + HERMES_BENCH_BUILD_TYPE + ")");
    printFingerprint();
    const Sizes &sz = o.smoke ? kSmoke : kFull;
    if (o.reference)
        return runReference(o, sz);
    if (o.workload == "serve")
        return runServe(o);
    return runBatch(o, sz);
}
