"""Alternating parent/change pairs of the benchmark, written to one JSON file.

    python3 scripts/bench_pairs.py --parent REV --workload moment_oracle \
        --seeds 1 2 3 4 5 6 7 8 9 10 --out BENCH.json

Exports REV and the change with ``git archive`` to sibling directories
``parent`` and ``change`` of one temporary directory: no run starts from the
checkout, whose path would set the allocator's state apart from the code's.
The change is the commit ``git stash create`` makes of the tracked and staged
files, or ``HEAD`` on a clean tree, so stage new files first; ``--parent
HEAD`` on a clean tree is an A/A pair.  Each tree runs the benchmark command
of ``BENCHMARK.json`` (``--trace 0``) once per seed, the parent first on even
pairs and second on odd ones, so a slow spell of the host hits both sides.
``--out`` gets, per workload, every run's metrics, per end-to-end metric each
side's median and quartiles and the share of pairs the change won (ties count
for neither), and per side the share of failed operations and the seeds of
runs not ``correct``.  Each side of a pair also runs once with ``--trace 1``
after both untraced runs; ``layers`` summarizes those over the per-layer
metrics, and ``process`` the untraced runs' rusage (``os.wait4``: minor page
faults, user and system seconds).  A workload already in ``--out`` is
replaced; the others are kept.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROCESS = [{"name": "minor_faults", "unit": "count", "better": "lower"},
           {"name": "user_s", "unit": "s", "better": "lower"},
           {"name": "sys_s", "unit": "s", "better": "lower"}]


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def export(rev: str, dest: Path) -> str:
    """Write the files of commit ``rev`` under ``dest``; its full hash."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha))) as tar:
        tar.extractall(dest, filter="data")
    return sha


def run_once(tree: Path, command: list, workload: str, seed: int,
             seconds: int, trace: int = 0) -> dict:
    """One benchmark run in ``tree``: its last stdout line, parsed, and its
    rusage."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, cwd=tree, stdout=out, stderr=err)
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited "
                           f"{proc.returncode}:\n{stderr}")
    report = json.loads(stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": report["correct"],
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": {name: m["value"] for name, m in report["metrics"].items()},
            "rusage": {"minor_faults": usage.ru_minflt, "user_s": usage.ru_utime,
                       "sys_s": usage.ru_stime}}


def summarize(pairs: list, metrics: list) -> dict:
    """Per metric: each side's median and quartiles, and the
    share of pairs in which the change read better.  Per side also
    ``failed_frac``, the share of attempted operations that failed over all
    its runs, and ``incorrect_runs``, the seeds of its runs with ``correct``
    false."""
    out = {"failed_frac": {}, "incorrect_runs": {}}
    for side in ("parent", "change"):
        runs = [pair[side] for pair in pairs]
        out["failed_frac"][side] = (sum(run["failed"] for run in runs)
                                    / sum(run["attempted"] for run in runs))
        out["incorrect_runs"][side] = [run["seed"] for run in runs
                                       if not run["correct"]]
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        sides = {side: [pair[side]["metrics"][name] for pair in pairs]
                 for side in ("parent", "change")}
        won = sum((c > p) if higher else (c < p)
                  for p, c in zip(sides["parent"], sides["change"]))
        entry = {key: spec[key] for key in ("unit", "better", "bound") if key in spec}
        for side, values in sides.items():
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        entry["change_won_frac"] = won / len(pairs)
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"unknown workload {args.workload}")
    seconds = bench["run_seconds"]

    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        parent_sha = export(args.parent, trees["parent"])
        change_sha = export(_git("stash", "create").decode().strip() or "HEAD",
                            trees["change"])
        pairs = []
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for trace in (0, 1):
                for side in order:
                    run = run_once(trees[side], bench["command"],
                                   args.workload, seed, seconds, trace)
                    if trace:
                        pair[side]["traced"] = run
                    else:
                        pair[side] = run
                    print(f"{args.workload} seed {seed} {side} trace {trace}: "
                          f"{run['metrics']}", file=sys.stderr, flush=True)
            pairs.append(pair)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update({
        "parent": parent_sha,
        "change": change_sha,
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "cpus": len(os.sched_getaffinity(0))},
    })
    entry = {"seconds": seconds, "command": bench["command"],
             "summary": summarize(pairs, bench["end_to_end"]), "pairs": pairs}
    traced = [{side: pair[side]["traced"] for side in ("parent", "change")}
              for pair in pairs]
    entry["layers"] = summarize(traced, bench["per_layer"])
    entry["process"] = summarize(
        [{side: dict(pair[side], metrics=pair[side]["rusage"])
          for side in ("parent", "change")} for pair in pairs], PROCESS)
    doc.setdefault("workloads", {})[args.workload] = entry
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
