"""List the package's executable lines that a run never executes.

    python3 scripts/line_trace.py --pytest
    python3 scripts/line_trace.py --bench exact_queries --seed 1 --seconds 15
    python3 scripts/line_trace.py --pytest --save T1.json
    python3 scripts/line_trace.py --load T1.json --load B1.json

A line tracer with no dependencies: ``sys.settrace`` records the lines run in
frames whose code lies under ``src/bergman_indices``, and returns no local
tracer for any other frame.  It runs tier-1 (``--pytest``, the repository's
``tests`` directory) or benchmark workloads (``--bench W``, repeatable), all
in this process, then prints per module the executable lines (those with
bytecode, from the compiled source) that no run reached.  ``--save`` writes
the lines run, ``--load`` adds those of earlier saves, so the report can be
the union of several processes.

A bench workload runs as ``bench/run.py`` runs it, but without the set-up
timing children and without spans: its requests are generated for
``--seconds`` and sent in one closed loop under their deadlines.  Tracing
slows them several times, so a deadline can pass where it would not
untraced; such a request is counted and reported on stderr.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bergman_indices"


def executable_lines(path: Path) -> set:
    """Line numbers that carry bytecode in the module at ``path``."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _start, _end, line in code.co_lines()
                     if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class Tracer:
    """Records (file, line) for every line run in a frame of the package."""

    def __init__(self, package: Path):
        self.prefix = str(package) + "/"
        self.hits: dict = {}

    def _global(self, frame, event, _arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        self.hits.setdefault(filename, set()).add(frame.f_lineno)
        return self._local

    def _local(self, frame, event, _arg):
        if event == "line":
            self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def __enter__(self):
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def run_pytest() -> int:
    import pytest
    return pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])


def run_bench(workload: str, seed: int, seconds: int) -> int:
    """One closed loop of ``workload``; the number of requests not ok."""
    import run
    import spans
    import workloads
    signal.signal(signal.SIGALRM, run._on_alarm)
    args = argparse.Namespace(workload=workload, seed=seed, seconds=seconds)
    requests, jobs = run.setup(workloads, args)
    outcomes, _wall = run.closed_loop(requests, jobs, spans.Caller(False),
                                      workloads.Guards(), probe=False)
    failed = [(outcome, detail) for outcome, _lat, detail in outcomes
              if outcome != "ok"]
    for outcome, detail in failed:
        print(f"{workload}: {outcome}: {detail}", file=sys.stderr)
    return len(failed)


def _ranges(lines) -> str:
    """'3-5,9' for [3, 4, 5, 9]."""
    runs: list = []
    for line in sorted(lines):
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report(hits: dict) -> list:
    """One line per module: executable, missed, and the missed line numbers.

    ``hits`` maps a module's file name to the line numbers run in it."""
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = lines - hits.get(path.name, set())
        rows.append(f"{path.name}: {len(lines)} executable, {len(missed)} never run"
                    + (f": {_ranges(missed)}" if missed else ""))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pytest", action="store_true", help="run tier-1")
    parser.add_argument("--bench", action="append", default=[], metavar="W",
                        help="run benchmark workload W (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--save", type=Path, help="write the lines run as JSON")
    parser.add_argument("--load", type=Path, action="append", default=[],
                        help="add the lines of an earlier --save (repeatable)")
    args = parser.parse_args(argv)
    if not (args.pytest or args.bench or args.load):
        parser.error("nothing to trace: give --pytest, --bench or --load")
    sys.path[:0] = [str(ROOT / "src")] + ([str(ROOT / "bench")] if args.bench else [])
    sys.dont_write_bytecode = True

    tracer = Tracer(PACKAGE)
    with tracer:
        if args.pytest:
            print(f"pytest exit code {run_pytest()}", file=sys.stderr)
        for workload in args.bench:
            failed = run_bench(workload, args.seed, args.seconds)
            print(f"{workload}: {failed} requests not ok", file=sys.stderr)
    hits = {Path(name).name: lines for name, lines in tracer.hits.items()}
    for path in args.load:
        for filename, lines in json.loads(path.read_text()).items():
            hits.setdefault(filename, set()).update(lines)
    if args.save:
        args.save.write_text(json.dumps(
            {name: sorted(lines) for name, lines in sorted(hits.items())}) + "\n")
    print("\n".join(report(hits)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
