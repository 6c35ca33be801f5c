"""Print the sha256 of every pinned command-line output, one line each.

    python3 scripts/pinned_digests.py

Runs each argv of ``ARGVS`` in a fresh ``python3 -m bergman_indices.cli``
process on this checkout's ``src`` (with ``BERGMAN_SEED`` unset) and prints
the sha256 of its stdout, its exit code, the sha256 of its stderr without the
``elapsed_ms=`` line (the one part that changes from run to run) and the
argv.  The argvs are quick and full ``verify --format json``, the ball
``probe`` at alpha = (1000, 1000) and every ``kernel ... --pnorm`` argv that
CHANGES.md names; two of those pass flags that no longer exist and exit 2.
The last line is ``all: <sha256>`` over the lines before it, so two
checkouts print the same outputs when their last lines agree.  On stderr,
one line per argv gives its wall time and its peak resident set size (the
``ru_maxrss`` of ``os.wait4`` on the child), which the digests leave out.
Nothing under ``bench/`` is read.  One run takes about two minutes on two
cores.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARTOGS = ["--z", "0,0.5", "--w", "0,0.5", "--pnorm"]
ARGVS = [
    ["verify", "--format", "json"],
    ["verify", "--full", "--format", "json"],
    ["probe", "ball:2", "--alpha", "1000,1000", "--gamma", "0,0", "--plo", "2",
     "--phi", "64", "--steps", "16"],
    ["kernel", "ball:3", "--z", "0.2,0.1,0.3", "--w", "0,0,0", "--pnorm", "2"],
    ["kernel", "hartogs:1/1", *HARTOGS, "0"],
    ["kernel", "hartogs:1/1", *HARTOGS, "1/1000"],
    ["kernel", "hartogs:1/1", *HARTOGS, "3", "--refine", "12"],
    ["kernel", "hartogs:1/1", *HARTOGS, "3"],
    ["kernel", "hartogs:1/1", *HARTOGS, "5"],
    ["kernel", "hartogs:1/1", "--z", "0.01,0.9", "--w", "0,0.5", "--pnorm", "2"],
    ["kernel", "hartogs:1/1", "--z", "0.05,0.5", "--w", "0,0.5", "--pnorm", "3",
     "--radial-nodes", "256", "--angular-nodes", "256", "--tol", "1e-12"],
    ["kernel", "hartogs:1/1", "--z", "0.05,0.5", "--w", "0,0.5", "--pnorm", "7/2"],
    ["kernel", "hartogs:1/25", *HARTOGS, "2"],
    ["kernel", "hartogs:2/1", *HARTOGS, "5/2"],
    ["kernel", "hartogs:2/1", "--z", "0.05,0.5", "--w", "0,0.5", "--pnorm", "3"],
    ["kernel", "hartogs:50/49", "--z", "0.01,0.9", "--w", "0,0.5", "--pnorm", "2"],
    ["kernel", "polydisc:1", "--z", "0.3", "--w", "0", "--pnorm", "3"],
    ["kernel", "polydisc:1", "--z", "0.3", "--w", "0.1", "--pnorm", "1/1000"],
]


def digest_line(argv: list, env: dict) -> str:
    """``<stdout sha256> exit <code> stderr <sha256>  <argv>`` for one run,
    whose wall time and peak RSS go to stderr; a run is killed after 900 s."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "bergman_indices.cli", *argv],
                                stdout=out, stderr=err, env=env)
        timer = threading.Timer(900, proc.kill)
        timer.start()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    print(f"{wall:8.2f} s {usage.ru_maxrss / 1024:8.1f} MB  {' '.join(argv)}",
          file=sys.stderr, flush=True)
    stderr = b"".join(line for line in stderr.splitlines(keepends=True)
                      if not line.startswith(b"elapsed_ms="))
    return (f"{hashlib.sha256(stdout).hexdigest()} exit {proc.returncode} "
            f"stderr {hashlib.sha256(stderr).hexdigest()}  {' '.join(argv)}")


def main() -> int:
    env = {k: v for k, v in os.environ.items() if k != "BERGMAN_SEED"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    lines = []
    for argv in ARGVS:
        lines.append(digest_line(argv, env))
        print(lines[-1], flush=True)
    print(f"all: {hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
