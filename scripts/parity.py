"""Check every pinned output of this checkout against the rows of PARITY.json.

    python3 scripts/parity.py            # exit 1 if any row moved
    python3 scripts/parity.py --write    # record the observed values instead

Each row runs in a fresh process on this checkout, with ``BERGMAN_SEED``
unset.  An ``argvs`` row is one ``python3 -m bergman_indices.cli`` argv with
the sha256 of its stdout, its exit code and the sha256 of its stderr without
the ``elapsed_ms=`` line, the one part that changes from run to run.  An
``answers`` row is a benchmark workload's seeded request list, as long as
``BENCHMARK.json``'s ``run_seconds`` makes it, run once in order under each
request's deadline as ``bench/run.py`` runs it, with no warm-up, probes or
answer check; it holds the number of answers and the sha256 of their lines:
each answer's ``repr``, ``error: `` and the exception's repr for a raise, or
``deadline``.

The check prints one line per row and each moved value as recorded →
observed.  A change that moves a row on purpose records it with ``--write``
and says why in CHANGES.md; rows are added or removed by editing the file.
On stderr, one line per row gives its wall time and its peak resident set
size, which the manifest leaves out.  Tier-1 checks the rows marked ``fast``
(``tests/test_parity.py``); all rows take about two minutes on two cores.
The golden argvs of ``bench/golden_cli.json`` stay under ``pytest bench``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "PARITY.json"
TIMEOUT_S = 900
#: the child of an ``answers`` row; it prints ``<count> <sha256>``
ANSWERS = "import sys, parity; print(*parity.answer_digest(sys.argv[1], int(sys.argv[2])))"


def _run(args: list, name: str, path: list) -> tuple:
    """(exit code, stdout, stderr) of ``python3 *args`` with ``path`` as its
    PYTHONPATH; its wall time and peak RSS go to stderr, and it is killed
    after ``TIMEOUT_S``."""
    env = {k: v for k, v in os.environ.items() if k != "BERGMAN_SEED"}
    env.update(PYTHONPATH=os.pathsep.join(str(ROOT / p) for p in path),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    print(f"{wall:8.2f} s {usage.ru_maxrss / 1024:8.1f} MB  {name}",
          file=sys.stderr, flush=True)
    return proc.returncode, stdout, stderr


def label(row: dict) -> str:
    if "argv" in row:
        return " ".join(row["argv"])
    return f"{row['workload']} seed {row['seed']}"


def observe(row: dict) -> dict:
    """The values one manifest row records, as this checkout gives them."""
    if "argv" in row:
        code, stdout, stderr = _run(["-m", "bergman_indices.cli", *row["argv"]],
                                    label(row), ["src"])
        stderr = b"".join(line for line in stderr.splitlines(keepends=True)
                          if not line.startswith(b"elapsed_ms="))
        return {"stdout": hashlib.sha256(stdout).hexdigest(), "exit": code,
                "stderr": hashlib.sha256(stderr).hexdigest()}
    code, stdout, stderr = _run(["-c", ANSWERS, row["workload"], str(row["seed"])],
                                label(row), ["scripts", "src", "bench"])
    if code:
        sys.exit(f"{label(row)}: exit {code}\n{stderr.decode(errors='replace')}")
    count, digest = stdout.split()
    return {"answers": int(count), "sha256": digest.decode()}


def answer_digest(workload: str, seed: int) -> tuple:
    """(count, sha256) of one workload's answers; runs in the child of an
    ``answers`` row, whose path holds ``bench``, so the imports are local."""
    import run  # first: it pins the BLAS threads before numpy loads
    import spans
    import workloads
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    signal.signal(signal.SIGALRM, run._on_alarm)
    call = spans.Caller(False)
    lines = []
    for req in workloads.generate(workload, seed, seconds):
        job_run, _check = workloads.prepare(req)
        signal.setitimer(signal.ITIMER_REAL, req.deadline_s)
        try:
            lines.append(repr(job_run(call)))
        except run.DeadlineExceeded:
            lines.append("deadline")
        except Exception as exc:  # an answer too: the same raise gives the same line
            lines.append(f"error: {exc!r}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check(rows: list, write: bool = False) -> int:
    """Run every row and print it; return the number of moved rows.  With
    ``write``, each row takes its observed values."""
    moved = 0
    for row in rows:
        seen = observe(row)
        diff = [f"{key} {row.get(key)} → {value}" for key, value in seen.items()
                if row.get(key) != value]
        moved += bool(diff)
        print(f"{'moved' if diff else 'same '}  {label(row)}", flush=True)
        for line in diff:
            print(f"         {line}", flush=True)
        if write:
            row.update(seen)
    return moved


def dumps(manifest: dict) -> str:
    """The manifest as JSON with one row per line, so a moved row is a
    one-line diff."""
    blocks = [f'  "{key}": [\n' + ",\n".join(f"    {json.dumps(row)}" for row in rows)
              + "\n  ]" for key, rows in manifest.items()]
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="record the observed values in the manifest")
    args = parser.parse_args(argv)
    manifest = json.loads(MANIFEST.read_text())
    rows = [row for rows in manifest.values() for row in rows]
    moved = check(rows, write=args.write)
    if args.write:
        MANIFEST.write_text(dumps(manifest))
    print(f"{moved} of {len(rows)} rows moved" + (", now recorded" if args.write else ""))
    return 1 if moved and not args.write else 0


if __name__ == "__main__":
    sys.exit(main())
