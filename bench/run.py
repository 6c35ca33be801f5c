"""The repository benchmark: one closed-loop client, one process.

    python3 bench/run.py --workload exact_queries --seed 1 --seconds 20 --trace 0

Generates the workload's requests from the seed, warms up on other inputs,
then sends the requests one after another (a closed loop with one caller, no
threads, BLAS pinned to one thread) under a per-request deadline enforced by
a timer signal.  Every answer is checked against ``refs``; a request fails if
it raises, answers wrongly or passes its deadline.  The last line of stdout
is one JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from spans around every public call) with ``--trace 1``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BERGMAN_SEED", None)  # the CLI would prefer it to --seed

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
#: The host's speed swings by up to 2x, for seconds to minutes at a time, as
#: other tenants load the machine, and it flips between a fast and a slow
#: state every few hundred ms.  So a fixed speed probe runs before every
#: request, and each request's latency is reported at reference speed:
#: measured latency * PROBE_REF_S / (median of the two probes before and the
#: two after it).  PROBE_REF_S is the probe's time in the fast state of a
#: 2-vCPU sandbox.  Probes at the edges of a request of seconds miss the flips
#: inside it; so a CPU-time timer takes a probe every SAMPLE_EVERY_S inside
#: each request, and a request that took at least MIN_INNER of them is scaled
#: by their mean instead.  Probe time is not part of any latency.
PROBE_REF_S = 0.00065
SAMPLE_EVERY_S = 0.1
MIN_INNER = 3
#: 4 MB that the probe reads, because memory-bound work (the tensor mesh,
#: quadrature) slows with the host's memory traffic more than with its CPU
_PROBE_ARRAY = np.linspace(0.0, 1.0, 512 * 1024)

TIMED = {
    "cli": ("run",),
    "index_sets": ("index_report", "thresholds", "index_set_window"),
    "domains": ("moment",),
    "duality_projection": ("injectivity_witness_scan", "project", "pairing",
                           "projection_ratio", "lyapunov_check", "holder_check"),
    "quadrature": ("integrate", "divergence_probe", "lp_norm"),
    "kernel": ("kernel_truncated", "kernel_closed_form", "density_residual",
               "kernel_pnorm_estimate"),
}
GUARDS = ("quadrature.integrate.max_rel_err", "quadrature.lp_norm.max_rel_err",
          "kernel.max_rel_err", "quadrature.integrate.max_rel_err_est",
          "duality_projection.lyapunov_check.max_rel_err")


class DeadlineExceeded(BaseException):
    """Raised by the timer signal inside a request that ran past its deadline."""


def _on_alarm(_signum, _frame):
    raise DeadlineExceeded()


class InnerProbes:
    """Speed probes taken inside a request, on SIGPROF."""

    def __init__(self):
        self.probes, self.spent_s = [], 0.0

    def __call__(self, _signum, _frame):
        start = time.perf_counter()
        self.probes.append(speed_probe())
        self.spent_s += time.perf_counter() - start


def setup(workloads, args):
    """Input generation and warm-up: (requests, prepared jobs)."""
    requests = workloads.generate(args.workload, args.seed, args.seconds)
    jobs = [workloads.prepare(req) for req in requests]
    for req in workloads.warmup_requests(args.workload, args.seed, requests):
        outcome, _, detail = execute(req, workloads.prepare(req), spans.Caller(False),
                                     workloads.Guards())
        if outcome != "ok":
            print(f"warm-up request failed ({outcome}): {detail}", file=sys.stderr)
    gc.collect()
    return requests, jobs


def _elapsed(start, inner) -> float:
    return time.perf_counter() - start - (inner.spent_s if inner else 0.0)


def execute(req, job, call, guards, inner=None):
    """Run one request under its deadline: (outcome, latency_s, detail).

    With ``inner`` (an InnerProbes installed on SIGPROF), speed probes are
    taken inside the request and their time is left out of the latency.
    """
    run, check = job
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, req.deadline_s)
    if inner:
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        answer = run(call)
        latency = _elapsed(start, inner)
    except DeadlineExceeded:
        return "deadline", req.deadline_s, f"{req.kind} passed {req.deadline_s} s"
    except Exception as exc:  # a raise is a failed request, reported by main
        return "error", _elapsed(start, inner), f"{req.kind}: {exc!r}"
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
    try:
        check(answer, guards)
    except Exception as exc:  # workloads.Mismatch, or an answer of the wrong shape
        return "wrong", latency, f"{req.kind}: {exc}"
    return "ok", latency, ""


def speed_probe() -> float:
    """Time of a fixed mix of Fraction, complex, small-array and 4 MB read work."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 40):
        total += Fraction(1, k)
    x = np.arange(256.0)
    for _ in range(20):
        x = np.sqrt(x * 1.0001 + 1.0)
    z = 0j
    for k in range(1500):
        z += complex(k, 1) * 0.5
    float(_PROBE_ARRAY.sum())
    return time.perf_counter() - start


def probe_median(count: int = 11) -> float:
    return statistics.median(speed_probe() for _ in range(count))


def measure_setup_s(args) -> float:
    """Median time from spawning a fresh interpreter to a warmed-up client,
    at reference speed: each child's time is scaled by PROBE_REF_S over the
    mean of two speed readings, the median probe just before it starts and the
    median probe in the child just after it is ready."""
    times = []
    for _ in range(SETUP_PROBES):
        before = probe_median()
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--setup-probe"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            after = child.stdout.read().split()
            code = child.wait()
        if line.strip() != "ready" or code != 0 or len(after) != 1:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        speed = (before + float(after[0])) / 2
        times.append(elapsed * PROBE_REF_S / speed)
    return statistics.median(times)


def closed_loop(requests, jobs, call, guards, probe: bool):
    """Send every request in order: ([(outcome, latency_s, detail)], wall_s).

    With ``probe``, latencies are given at reference speed (see PROBE_REF_S);
    a missed deadline counts as the deadline itself.
    """
    records, probes = [], []
    inner = None
    if probe:
        inner = InnerProbes()
        signal.signal(signal.SIGPROF, inner)
    started = time.perf_counter()
    for index, (req, job) in enumerate(zip(requests, jobs)):
        if probe:
            probes.append(speed_probe())
        call.request_id = index
        if inner:
            inner.probes, inner.spent_s = [], 0.0
        record = execute(req, job, call, guards, inner)
        records.append((record, len(probes), inner.probes if inner else []))
    wall_s = time.perf_counter() - started
    if not probe:
        return [record for record, _, _ in records], wall_s
    probes.append(speed_probe())
    outcomes = []
    for (outcome, latency, detail), before, taken in records:
        if outcome != "deadline":
            if len(taken) >= MIN_INNER:
                speed = statistics.fmean(taken)
            else:
                speed = statistics.median(probes[max(0, before - 2):before + 2])
            latency *= PROBE_REF_S / speed
        outcomes.append((outcome, latency, detail))
    return outcomes, wall_s


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(outcomes, setup_s):
    latencies = [lat for _, lat, _ in outcomes]
    ok = sum(1 for outcome, _, _ in outcomes if outcome == "ok")
    return {
        "ops_per_s": (ok / sum(latencies), "1/s"),
        "op_p50_ms": (1000 * percentile(latencies, 50), "ms"),
        "op_p90_ms": (1000 * percentile(latencies, 90), "ms"),
        "ok_frac": (ok / len(outcomes), "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _duration(span) -> float:
    return span["end"] - span["start"]


def per_layer(spans_list, guards, wall_s, span_cost):
    metrics = {}
    for layer, fns in TIMED.items():
        mine = [s for s in spans_list if s["layer"] == layer]
        busy = sum(map(_duration, mine))
        metrics[f"{layer}.calls"] = (len(mine), "count")
        metrics[f"{layer}.busy_s"] = (busy, "s")
        metrics[f"{layer}.busy_frac"] = (busy / wall_s, "frac")
        for fn in fns:
            ms = [1000 * _duration(s) for s in mine if s["fn"] == fn]
            metrics[f"{layer}.{fn}.p50_ms"] = (percentile(ms, 50) if ms else 0.0, "ms")
            metrics[f"{layer}.{fn}.p90_ms"] = (percentile(ms, 90) if ms else 0.0, "ms")

    def having(key, fn=None):
        return [s for s in spans_list
                if key in s["attrs"] and fn in (None, s["fn"])]

    def per_busy_s(selected, key):
        busy = sum(map(_duration, selected))
        return sum(s["attrs"][key] for s in selected) / busy if busy else 0.0

    def mean(selected, key):
        return statistics.fmean(s["attrs"][key] for s in selected) if selected else 0.0

    metrics["index_sets.box_points_per_s"] = (per_busy_s(having("points"), "points"),
                                              "1/s")
    metrics["kernel.cold_series_s"] = (sum(map(_duration, having("cold"))), "s")
    metrics["kernel.series_terms_per_s"] = (per_busy_s(having("terms"), "terms"), "1/s")
    metrics["quadrature.divergence_probe.levels_mean"] = (
        mean(having("levels", "divergence_probe"), "levels"), "count")
    metrics["kernel.kernel_pnorm_estimate.levels_mean"] = (
        mean(having("levels", "kernel_pnorm_estimate"), "levels"), "count")
    via_cli = having("indices")
    specs = {s["attrs"]["indices"] for s in via_cli}
    direct = [s for s in having("domain") if s["attrs"]["domain"] in specs]
    overhead = 0.0
    if via_cli and direct:
        overhead = 1000 * (statistics.median(map(_duration, via_cli))
                           - statistics.median(map(_duration, direct)))
    metrics["cli.overhead_ms"] = (overhead, "ms")
    for name in GUARDS:
        metrics[name] = (guards.worst.get(name, 0.0), "rel")
    metrics["trace.covered_frac"] = (spans.covered_s(spans_list) / wall_s, "frac")
    metrics["trace.overhead_frac"] = (len(spans_list) * span_cost / wall_s, "frac")
    return metrics


def main(argv=None) -> int:
    if not (ROOT / "src" / "bergman_indices" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.dont_write_bytecode = True
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)

    requests, jobs = setup(workloads, args)
    if args.setup_probe:
        print("ready", flush=True)
        print(probe_median())
        return 0
    setup_s = 0.0 if args.trace else measure_setup_s(args)
    span_cost = spans.span_cost_s() if args.trace else 0.0

    call = spans.Caller(bool(args.trace))
    guards = workloads.Guards()
    outcomes, wall_s = closed_loop(requests, jobs, call, guards, probe=not args.trace)

    failures = [outcome for outcome in outcomes if outcome[0] != "ok"]
    for outcome, latency, detail in failures:
        print(f"failed ({outcome}, {latency:.3f} s): {detail}", file=sys.stderr)
    if args.trace:
        call.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json")
        metrics = per_layer(call.spans, guards, wall_s, span_cost)
    else:
        metrics = end_to_end(outcomes, setup_s)
    print(json.dumps({
        "correct": not any(outcome in ("error", "wrong") for outcome, _, _ in failures),
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
