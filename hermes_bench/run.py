#!/usr/bin/env python3
"""hermes-bench: the HERMES benchmark (see README.md beside this file).

    python3 hermes_bench/run.py                      # all workloads
    python3 hermes_bench/run.py --trace 1            # per-layer metrics
    python3 hermes_bench/run.py --smoke              # seconds-long check
    python3 hermes_bench/run.py --workload fib --seed 3 --seconds 30 --trace 0

Run from anywhere inside a checkout. It builds hermes-bench in Release
under .bench_build/ at the checkout's root, runs each workload in child
processes, checks every output, and prints each metric as
"<workload> <metric> <value> <unit>". With one --workload, the last
line of stdout is one JSON object {correct, attempted, failed, metrics};
with all workloads it exits 1 when an output check failed or an
operation failed.

A child that crashes or outlives an operation's deadline costs the
operation in flight (counted in `failed`, never re-run); the run goes on
in a fresh child for the time that is left.
"""

import argparse
import hashlib
import json
import os
import queue
import signal
import struct
import subprocess
import sys
import threading
import time

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "hermes-bench")

WORKLOADS = ["fib", "fib-hermes", "fanout-hermes", "pbbs-hermes", "serve"]
KERNELS = ["sort", "compare", "knn", "ray", "hull"]

# Set-ups per run, 0.25 s apart (see kSetupSpacing in src/main.cpp);
# setup_s is their median.
SETUP_REPS = 21
# An operation still running this long after its `begin` is failed.
OP_DEADLINE_S = {"fib": 2.0, "fib-hermes": 3.0, "fanout-hermes": 3.0,
                 "pbbs-hermes": 10.0}
SMOKE_OP_DEADLINE_S = 5.0
# Beyond --seconds: set-up, the serve drain, and slack.
CHILD_GRACE_S = 60.0
# From the end of the timed region to the child's exit: Runtime teardown.
TEARDOWN_DEADLINE_S = 5.0
# Batch peak RSS is read after this many operations of a process, so it
# measures a fixed amount of work, not however much fit in the run.
RSS_AFTER_OPS = {"fib": 16, "fib-hermes": 16, "fanout-hermes": 16,
                 "pbbs-hermes": 1}
# Serve percentiles pool the requests of every window of due time in
# which the host's steal counter did not grow and the generator thread
# was never descheduled for longer than GEN_STALL_NS outside
# Runtime::submit (benchlib.steady_sojourns).
SERVE_WINDOW_NS = 100_000_000
GEN_STALL_NS = 200_000
# The steal counter is read this often while a child runs.
STEAL_SAMPLE_S = 0.02
# A serve request failed unless its body ended this soon after its due
# time (the child's own drain deadline).
SERVE_DEADLINE_NS = 2_000_000_000
MAX_SEGMENTS = 16

E2E_UNITS = {
    "setup_s": "s", "makespan_s": "s", "energy_j": "J",
    "sojourn_p50_us": "us", "sojourn_p99_us": "us",
    "energy_per_req_mj": "mJ", "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "runtime.steals": "count", "runtime.tasks_per_steal": "count",
    "runtime.steal_cas_retries": "count", "runtime.pop_cas_losses": "count",
    "runtime.failed_hunts": "count", "runtime.parked_frac": "frac",
    "runtime.parks_per_req": "count", "runtime.parks_per_s": "1/s",
    "runtime.spurious_wake_frac": "frac", "runtime.inject_fast_frac": "frac",
    "runtime.inject_spill": "count", "runtime.ctor_us": "us",
    "runtime.self_us": "us", "submit.call_ns": "ns",
    "submit.pickup_p50_us": "us", "submit.pickup_p99_us": "us",
    "submit.service_us": "us", "submit.self_us": "us",
    "request.self_us": "us", "task_group.run_return_us": "us",
    "task_group.spawn_ns": "ns", "task_group.wait_us": "us",
    "tempo.workload_ups": "count", "tempo.workload_downs": "count",
    "tempo.steal_downs": "count", "tempo.relay_ups": "count",
    "tempo.out_of_work": "count", "dvfs.transitions": "count",
    "workloads.sort_s": "s", "workloads.compare_s": "s",
    "workloads.knn_s": "s", "workloads.ray_s": "s", "workloads.hull_s": "s",
    "workloads.self_us": "us", "energy.avg_w": "W",
    "gen.lag_p99_us": "us", "gen.lag_max_us": "us",
    "host.steal_frac": "frac", "host.dropped_frac": "frac",
    "trace.overhead_frac": "frac",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------ build

def build():
    """Configure (once) and build hermes-bench in Release; the build's
    own output goes to stderr so stdout stays the result."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise SystemExit("hermes-bench: no HERMES sources beside "
                         + HERE + " (need ../CMakeLists.txt and ../src)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "hermes-bench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("hermes-bench: build failed: " + " ".join(cmd))


def source_digest():
    """sha256 over the library and benchmark sources: identifies the
    code measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


# ------------------------------------------------------------ children

class Segment:
    """What one child process reported before it ended."""

    def __init__(self):
        self.fingerprint = None
        self.setups = []
        self.ops = []            # parsed `op` lines
        self.begun = None        # op begun and not yet reported
        self.counters = None
        self.spans = []
        self.ref = None
        self.stopped = False     # its timed region ended
        self.clean = False       # printed `end` and exited 0
        self.timed_wall = 0.0    # wall seconds of its timed region
        self.records = []        # serve: (due, submit, returned, end, runs)
        self.steal = []          # (monotonic ns, cumulative steal ticks)


def parse_line(seg, line):
    kind, _, rest = line.partition(" ")
    if kind == "fingerprint":
        seg.fingerprint = json.loads(rest)
    elif kind == "setup":
        seg.setups.append(float(rest))
    elif kind == "begin":
        seg.begun = int(rest)
    elif kind == "op":
        f = rest.split()
        seg.ops.append({
            "op": int(f[0]), "status": int(f[1]),
            "start": int(f[2]), "end": int(f[3]),
            "kernel_ns": [int(x) for x in f[4:9]],
            "checksums": f[9:12],
            "rss_kb": int(f[12]),
        })
        seg.begun = None
    elif kind == "counters":
        seg.counters = json.loads(rest)
    elif kind == "span":
        f = rest.split()
        seg.spans.append({"name": f[0], "parent": f[1], "op": int(f[2]),
                          "start": int(f[3]), "end": int(f[4])})
    elif kind == "ref":
        seg.ref = rest.split()
    elif kind == "stop":
        seg.stopped = True
    elif kind == "end":
        seg.clean = True


def read_steal():
    """Cumulative steal time of all CPUs in clock ticks: time in which
    the hypervisor ran something else while this machine's CPUs were
    runnable. None where the kernel does not report it."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def run_child(args, op_deadline, wall_deadline):
    """Run one hermes-bench child to its end, killing it when an
    operation or the whole child outlives its deadline, and sampling
    the steal counter meanwhile."""
    seg = Segment()
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE,
                            text=True, bufsize=1)
    lines = queue.Queue()
    done = threading.Event()

    def pump():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    def sample_steal():
        while True:
            ticks = read_steal()
            if ticks is None:
                return
            seg.steal.append((time.monotonic_ns(), ticks))
            if done.is_set():
                return
            done.wait(STEAL_SAMPLE_S)

    reader = threading.Thread(target=pump, daemon=True)
    sampler = threading.Thread(target=sample_steal, daemon=True)
    reader.start()
    sampler.start()
    try:
        return supervise(proc, lines, seg, args, op_deadline, wall_deadline)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join()
        done.set()
        sampler.join()


def supervise(proc, lines, seg, args, op_deadline, wall_deadline):
    started = time.monotonic()
    timed_at = begun_at = stopped_at = None
    killed = None
    while True:
        try:
            line = lines.get(timeout=0.2)
        except queue.Empty:
            line = ""
        if line is None:
            break
        now = time.monotonic()
        if line:
            before = seg.begun
            try:
                parse_line(seg, line.rstrip("\n"))
            except (ValueError, IndexError):
                # A line cut short by a crash mid-write.
                log("hermes-bench: unreadable child line %r" % line[:80])
            if line.startswith("timed"):
                timed_at = now
            elif line.startswith("stop"):
                stopped_at = now
            if seg.begun is not None and seg.begun != before:
                begun_at = now
        if killed is None:
            if seg.begun is not None and now - begun_at > op_deadline:
                killed = "op %d outlived its %.0f s deadline" % (
                    seg.begun, op_deadline)
            elif (stopped_at is not None
                  and now - stopped_at > TEARDOWN_DEADLINE_S):
                killed = "teardown outlived its %.0f s deadline" % (
                    TEARDOWN_DEADLINE_S)
            elif now - started > wall_deadline:
                killed = "child outlived its %.0f s deadline" % wall_deadline
            if killed:
                proc.kill()
    code = proc.wait()
    if timed_at is not None:
        seg.timed_wall = time.monotonic() - timed_at
    if code != 0 or killed:
        seg.clean = False
        why = killed or (
            "killed by %s" % signal.Signals(-code).name if code < 0
            else "exit code %d" % code)
        log("hermes-bench: child failed (%s): %s" % (why, " ".join(args)))
    return seg


def read_records(path):
    if not os.path.exists(path):
        return []
    with open(path, "rb") as f:
        data = f.read()
    os.remove(path)
    return list(struct.iter_unpack("<qqqqQ", data[: len(data) // 40 * 40]))


def run_workload(name, seed, seconds, trace, smoke):
    """All segments of one run: the first with SETUP_REPS set-ups, then
    one fresh child per failure for the time that is left."""
    segments = []
    first_op = 0
    left = seconds
    deadline = (SMOKE_OP_DEADLINE_S if smoke
                else OP_DEADLINE_S.get(name, seconds + CHILD_GRACE_S))
    while len(segments) < MAX_SEGMENTS:
        args = ["--workload", name, "--seed", str(seed),
                "--seconds", "%.3f" % left, "--trace", str(int(trace)),
                "--first-op", str(first_op),
                "--segment", str(len(segments)),
                "--setup-reps", str(SETUP_REPS if not segments else 1)]
        if smoke:
            args.append("--smoke")
        records = None
        if name == "serve":
            records = os.path.join(BUILD, "serve-%d-%d.rec"
                                   % (os.getpid(), len(segments)))
            args += ["--records", records]
        seg = run_child(args, deadline, left + CHILD_GRACE_S)
        if records:
            seg.records = read_records(records)
        segments.append(seg)
        if seg.stopped:
            break
        if seg.fingerprint is None:
            raise SystemExit("hermes-bench: the benchmark binary refused "
                             "to run (see its message above)")
        left -= seg.timed_wall
        if left < 0.5:
            break
        if name == "serve":
            first_op += len(seg.records)
        else:
            done = [o["op"] for o in seg.ops]
            if seg.begun is not None:
                done.append(seg.begun)
            first_op = max(done) + 1 if done else first_op + 1
    ref = None
    if name == "pbbs-hermes":
        ref_args = ["--workload", name, "--seed", str(seed), "--seconds", "1",
                    "--reference"] + (["--smoke"] if smoke else [])
        ref = run_child(ref_args, CHILD_GRACE_S, CHILD_GRACE_S).ref
    return segments, ref


# ------------------------------------------------------------ metrics

def outcomes(name, segments, ref):
    """(attempted, failed, correct) of one run.

    A child that crashed or was killed costs the operation it was in:
    a root or round (batch), the requests left unfinished (serve), or
    else one more operation for its set-up or its teardown."""
    attempted = failed = 0
    correct = True
    for seg in segments:
        seg_failed = 0
        if name == "serve":
            _, _, a, seg_failed = benchlib.serve_outcomes(
                seg.records, SERVE_DEADLINE_NS)
            attempted += a
        for o in seg.ops:
            attempted += 1
            wrong = o["status"] != 1
            if name == "pbbs-hermes" and not wrong:
                wrong = ref is None or o["checksums"] != ref
            if wrong:
                seg_failed += 1
                correct = False
        if not seg.clean and (name != "serve" or seg_failed == 0):
            attempted += 1
            seg_failed += 1
        failed += seg_failed
    if name == "pbbs-hermes" and ref is None:
        log("hermes-bench: no 1-worker reference checksums; "
            "geometry outputs are unverified")
        correct = False
    return attempted, failed, correct


def steady_sojourns(segments):
    records = [r for s in segments for r in s.records]
    stolen = [iv for s in segments for iv in benchlib.steal_intervals(s.steal)]
    return benchlib.steady_sojourns(records, SERVE_DEADLINE_NS,
                                    SERVE_WINDOW_NS, GEN_STALL_NS, stolen)


def end_to_end(name, segments):
    measured = [s for s in segments if s.counters]
    c = benchlib.sum_counters(s.counters for s in measured)
    ops = c["ops"]
    m = {"setup_s": benchlib.median(segments[0].setups)}
    if name == "serve":
        records = [r for s in segments for r in s.records]
        soj = steady_sojourns(segments)[0]
        m["makespan_s"] = c["timed_s"]
        m["energy_j"] = c["joules"]
        m["energy_per_req_mj"] = 1e3 * c["joules"] / ops
        for q in (50, 99):
            m["sojourn_p%d_us" % q] = benchlib.percentile(soj, q)
        m["peak_rss_mb"] = max(s.counters["peak_rss_kb"]
                               for s in measured) / 1024.0
        return m
    soj = [(o["end"] - o["start"]) / 1e3 for s in segments
           for o in s.ops if o["status"] == 1]
    m["makespan_s"] = benchlib.median(soj) / 1e6
    m["energy_j"] = c["joules"] / ops
    m["energy_per_req_mj"] = 1e3 * c["joules"] / ops
    m["sojourn_p50_us"] = benchlib.percentile(soj, 50)
    m["sojourn_p99_us"] = benchlib.percentile(soj, 99)
    m["peak_rss_mb"] = max(
        s.ops[min(len(s.ops), RSS_AFTER_OPS[name]) - 1]["rss_kb"]
        for s in segments if s.ops) / 1024.0
    return m


def per_layer(name, segments):
    measured = [s for s in segments if s.counters]
    c = benchlib.sum_counters(s.counters for s in measured)
    spans = [sp for s in segments for sp in s.spans]
    ops = c["ops"]
    timed = c["timed_s"]
    r = benchlib.ratio
    m = {
        "runtime.steals": r(c["steals"], ops),
        "runtime.tasks_per_steal": r(c["stolen_tasks"], c["steals"]),
        "runtime.steal_cas_retries": r(c["steal_cas_retries"], ops),
        "runtime.pop_cas_losses": r(c["pop_cas_losses"], ops),
        "runtime.failed_hunts": r(c["failed_hunts"], ops),
        "runtime.parked_frac": r(c["parked_ns"] / 1e9,
                                 timed * measured[0].counters["workers"]),
        "runtime.parks_per_req": r(c["parks"], ops),
        "runtime.parks_per_s": r(c["parks"], timed),
        "runtime.spurious_wake_frac": r(c["spurious_wakes"], c["wakes"]),
        "runtime.inject_fast_frac": r(c["inject_fast"],
                                      c["inject_fast"] + c["inject_spill"]),
        "runtime.inject_spill": r(c["inject_spill"], ops),
        "tempo.workload_ups": r(c["workload_ups"], ops),
        "tempo.workload_downs": r(c["workload_downs"], ops),
        "tempo.steal_downs": r(c["steal_downs"], ops),
        "tempo.relay_ups": r(c["relay_ups"], ops),
        "tempo.out_of_work": r(c["out_of_work"], ops),
        "dvfs.transitions": r(c["dvfs_transitions"], ops),
        "energy.avg_w": r(c["joules"], timed),
        "host.steal_frac": benchlib.steal_frac(
            [x for s in segments for x in s.steal],
            os.sysconf("SC_CLK_TCK"), os.cpu_count() or 1),
        "runtime.ctor_us": benchlib.med_or_zero(
            benchlib.durations(spans, "runtime.ctor", 1e3)),
        "task_group.run_return_us": benchlib.med_or_zero(
            benchlib.run_return_us(spans)),
        "task_group.spawn_ns": benchlib.med_or_zero(
            benchlib.durations(spans, "task_group.run", 1.0)),
        "task_group.wait_us": benchlib.med_or_zero(
            benchlib.durations(spans, "task_group.wait", 1e3)),
        "submit.call_ns": benchlib.med_or_zero(
            benchlib.durations(spans, "submit.call", 1.0)),
        "submit.service_us": benchlib.med_or_zero(
            benchlib.durations(spans, "request.body", 1e3)),
    }
    # Self time per traced operation, for the layers whose spans are
    # complete (task_group spans are a 1-in-1024 sample).
    op_spans = [s for s in spans if s["op"] >= 0]
    traced_ops = len({s["op"] for s in op_spans})
    self_us = benchlib.self_times_us(op_spans)
    for layer in ("runtime", "workloads", "submit", "request"):
        m[layer + ".self_us"] = r(self_us.get(layer, 0.0), traced_ops)

    submit_end = {s["op"]: s["end"] for s in spans
                  if s["name"] == "submit.call"}
    pickup = [(s["start"] - submit_end[s["op"]]) / 1e3 for s in spans
              if s["name"] == "request.body" and s["op"] in submit_end]
    m["submit.pickup_p50_us"] = (benchlib.percentile(pickup, 50)
                                 if pickup else 0.0)
    m["submit.pickup_p99_us"] = (benchlib.percentile(pickup, 99)
                                 if pickup else 0.0)

    ops_ok = [o for s in segments for o in s.ops if o["status"] == 1]
    for k, kernel in enumerate(KERNELS):
        m["workloads.%s_s" % kernel] = (
            benchlib.median([o["kernel_ns"][k] / 1e9 for o in ops_ok])
            if name == "pbbs-hermes" and ops_ok else 0.0)

    if name == "serve":
        records = [rec for s in segments for rec in s.records]
        lag = benchlib.serve_outcomes(records, SERVE_DEADLINE_NS)[1]
        m["gen.lag_p99_us"] = benchlib.percentile(lag, 99)
        m["gen.lag_max_us"] = max(lag)
        m["host.dropped_frac"] = steady_sojourns(segments)[1]
        # Requests were numbered from 0 in order, odd ones traced.
        first = 0
        traced, plain = [], []
        for s in segments:
            for i, rec in enumerate(s.records):
                if rec[1] == 0:
                    continue
                (traced if (first + i) % 2 else plain).append(
                    (rec[3] - rec[0]) / 1e3)
            first += len(s.records)
        m["trace.overhead_frac"] = (
            benchlib.median(traced) / benchlib.median(plain) - 1.0
            if traced and plain else 0.0)
    else:
        m["gen.lag_p99_us"] = 0.0
        m["gen.lag_max_us"] = 0.0
        m["host.dropped_frac"] = 0.0
        traced = [o["end"] - o["start"] for o in ops_ok if o["op"] % 2]
        plain = [o["end"] - o["start"] for o in ops_ok if o["op"] % 2 == 0]
        m["trace.overhead_frac"] = (
            benchlib.median(traced) / benchlib.median(plain) - 1.0
            if traced and plain else 0.0)
    return m


def measure(name, seed, seconds, trace, smoke):
    """One benchmark run of one workload: (result dict, fingerprint)."""
    segments, ref = run_workload(name, seed, seconds, trace, smoke)
    attempted, failed, correct = outcomes(name, segments, ref)
    finished = any(o["status"] == 1 for s in segments for o in s.ops)
    if (not any(s.counters for s in segments) or not segments[0].setups
            or (name != "serve" and not finished)):
        # Nothing finished cleanly enough to measure: still a result.
        return ({"correct": False, "attempted": max(attempted, 1),
                 "failed": max(failed, 1), "metrics": {}},
                segments[0].fingerprint)
    metrics = per_layer(name, segments) if trace else end_to_end(name,
                                                                 segments)
    units = LAYER_UNITS if trace else E2E_UNITS
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }
    return result, segments[0].fingerprint


def fingerprint_line(child_fp, name, seed, seconds, trace, smoke):
    fp = dict(child_fp or {})
    fp.update({"commit": commit(), "source_sha256": source_digest(),
               "workload": name, "seed": seed, "seconds": seconds,
               "trace": int(trace), "smoke": smoke})
    return "fingerprint " + json.dumps(fp, sort_keys=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default 30; 1 with --smoke)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs, for checking the benchmark itself")
    a = ap.parse_args(argv)
    seconds = a.seconds if a.seconds is not None else (1.0 if a.smoke else 30.0)
    if not seconds > 0:
        ap.error("--seconds must be positive")
    build()

    names = WORKLOADS if a.workload == "all" else [a.workload]
    healthy = True
    for name in names:
        result, fp = measure(name, a.seed, seconds, a.trace, a.smoke)
        print(fingerprint_line(fp, name, a.seed, seconds, a.trace, a.smoke))
        for k, v in result["metrics"].items():
            print("%s %s %.6g %s" % (name, k, v["value"], v["unit"]))
        print("%s failed_frac %.6g frac (%d of %d)" % (
            name, benchlib.failed_frac(result["attempted"], result["failed"]),
            result["failed"], result["attempted"]))
        print(json.dumps(result), flush=True)
        healthy = healthy and result["correct"] and result["failed"] == 0
    if a.workload == "all" and not healthy:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
