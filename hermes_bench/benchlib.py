"""Arithmetic of hermes-bench: percentiles, failure shares,
span self times and the metrics derived from one run's records.

Everything here is pure: run.py feeds it what the hermes-bench
processes printed, and test_benchlib.py pins it.
"""

import math

# Sojourn charged to a request that failed: it missed every latency
# limit, so it sorts above any request that finished.
FAILED_SOJOURN_US = 2e6


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50)


def failed_frac(attempted, failed):
    """Share of attempted operations that failed."""
    if attempted < 1:
        raise ValueError("nothing was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must be within [0, attempted]")
    return failed / attempted


def ratio(num, den):
    """num / den, or 0 when the denominator never happened."""
    return num / den if den else 0.0


def sum_counters(dicts):
    """Key-wise sum of the counter dicts of several segments."""
    out = {}
    for d in dicts:
        for k, v in d.items():
            out[k] = out.get(k, 0) + v
    return out


def covered(interval, children):
    """Length of `interval` covered by the union of `children`."""
    lo, hi = interval
    parts = sorted((max(lo, s), min(hi, e)) for s, e in children
                   if s < hi and e > lo)
    total, cur_s, cur_e = 0, None, None
    for s, e in parts:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def link_spans(spans):
    """Pair each span with the parent span that caused it: the span of
    the same operation, named as its parent, whose interval holds its
    start. Returns {index of parent span: [child spans]}."""
    by_op = {}
    for i, s in enumerate(spans):
        by_op.setdefault((s["op"], s["name"]), []).append(i)
    children = {}
    for s in spans:
        for i in by_op.get((s["op"], s["parent"]), []):
            p = spans[i]
            if p["start"] <= s["start"] <= p["end"]:
                children.setdefault(i, []).append(s)
                break
    return children


def self_times_us(spans):
    """Per-layer self time in microseconds, summed over all spans: a
    span's duration minus the part of it its child spans cover."""
    children = link_spans(spans)
    out = {}
    for i, s in enumerate(spans):
        kids = [(c["start"], c["end"]) for c in children.get(i, [])]
        own = (s["end"] - s["start"]) - covered((s["start"], s["end"]), kids)
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own / 1e3
    return out


def run_return_us(spans):
    """Per Runtime::run: its end minus the end of the body it ran."""
    children = link_spans(spans)
    out = []
    for i, s in enumerate(spans):
        if s["name"] == "runtime.run":
            for c in children.get(i, []):
                out.append((s["end"] - c["end"]) / 1e3)
    return out


def durations(spans, name, scale):
    return [(s["end"] - s["start"]) / scale for s in spans
            if s["name"] == name]


def med_or_zero(values):
    return median(values) if values else 0.0


def serve_outcomes(records, deadline_ns):
    """Sojourns (us), generator lags (us) and counts of serve records.

    `records` holds (due, submit, returned, end, runs) per request; a
    request whose `submit` is 0 was never attempted. A request fails
    when its body did not run exactly once or did not end by
    `deadline_ns` after it was due."""
    sojourn, lag, attempted, failed = [], [], 0, 0
    for due, submit, _, end, runs in records:
        if submit == 0:
            continue
        attempted += 1
        lag.append((submit - due) / 1e3)
        if runs != 1 or end == 0 or end - due > deadline_ns:
            failed += 1
            sojourn.append(FAILED_SOJOURN_US)
        else:
            sojourn.append((end - due) / 1e3)
    return sojourn, lag, attempted, failed


def steal_intervals(samples):
    """Intervals (t0, t1) between consecutive samples of the cumulative
    steal counter, (time ns, count), across which it rose."""
    return [(a[0], b[0]) for a, b in zip(samples, samples[1:]) if b[1] > a[1]]


def steal_frac(samples, ticks_per_s, cpus):
    """Share of the CPUs' time that the steal counter grew by over the
    sampled span."""
    if len(samples) < 2:
        return 0.0
    span_s = (samples[-1][0] - samples[0][0]) / 1e9
    rise = samples[-1][1] - samples[0][1]
    return ratio(rise / ticks_per_s, span_s * cpus)


def steady_sojourns(records, deadline_ns, window_ns, stall_ns, stolen=()):
    """Sojourns (us) of the requests due while the host left the run
    alone, and the share of windows dropped.

    Requests are grouped in windows of `window_ns` of due time. A
    window is dropped when either holds:
    - one of the intervals in `stolen` overlaps it: the hypervisor ran
      something else while this machine's CPUs were runnable;
    - the generator stalled in it. The generator is ready for a request
      at its due time or when the previous Runtime::submit returned,
      whichever is later; it then busy-waits, so it calls submit within
      a microsecond unless its thread was descheduled. A gap over
      `stall_ns` there drops every window the gap overlaps, since its
      requests were issued late.
    A delay inside submit, or of a worker, is the runtime's own and
    stays in. When every window is dropped, all requests are kept."""
    attempted = [r for r in records if r[1] != 0]
    if not attempted:
        raise ValueError("no request was attempted")
    sojourn = serve_outcomes(attempted, deadline_ns)[0]
    t0 = min(r[0] for r in attempted)
    dropped = set()

    def drop(lo, hi):
        if hi >= t0:
            dropped.update(range((max(lo, t0) - t0) // window_ns,
                                 (hi - t0) // window_ns + 1))

    for lo, hi in stolen:
        drop(lo, hi)
    prev_returned = None
    for due, submit, returned, _, _ in attempted:
        ready = due if prev_returned is None else max(due, prev_returned)
        if submit - ready > stall_ns:
            drop(ready, submit)
        prev_returned = returned
    windows = {(r[0] - t0) // window_ns for r in attempted}
    kept = [s for r, s in zip(attempted, sojourn)
            if (r[0] - t0) // window_ns not in dropped]
    return (kept or sojourn), len(windows & dropped) / len(windows)
