"""Print one sha256 over the answers of a benchmark workload's request list.

    python3 scripts/answer_digest.py moment_oracle 1

Generates the seeded request list of ``bench/workloads.py`` for the
benchmark's 20 s run, then runs every request once, in order, under its
deadline, as ``bench/run.py`` does but with no warm-up, no probes and no
answer check.  Each answer becomes its ``repr`` (a request that raises
becomes ``error: `` and the exception's repr, one past its deadline
``deadline``), and the digest is the sha256 of those lines joined by
newlines.  Two checkouts whose digests agree gave the same answers bit for
bit, so a change meant to keep every value can be checked by running this in
both.  The last stdout line is ``<workload> seed <seed>: <n> answers
<sha256>``.
"""

from __future__ import annotations

import argparse
import hashlib
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 20  # the list length of BENCHMARK.json's run_seconds


def answer_lines(workload: str, seed: int):
    """One line per request of the list: its answer's repr, or its failure."""
    import run
    import spans
    import workloads
    signal.signal(signal.SIGALRM, run._on_alarm)
    call = spans.Caller(False)
    for req in workloads.generate(workload, seed, SECONDS):
        job_run, _check = workloads.prepare(req)
        signal.setitimer(signal.ITIMER_REAL, req.deadline_s)
        try:
            yield repr(job_run(call))
        except run.DeadlineExceeded:
            yield "deadline"
        except Exception as exc:  # an answer too: the same raise gives the same line
            yield f"error: {exc!r}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    sys.dont_write_bytecode = True
    import run  # noqa: F401  first: it pins the BLAS threads before numpy loads
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"workload must be one of {', '.join(workloads.WORKLOADS)}")
    lines = list(answer_lines(args.workload, args.seed))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"{args.workload} seed {args.seed}: {len(lines)} answers {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
