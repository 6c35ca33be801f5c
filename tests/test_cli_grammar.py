"""Property test of the CLI grammar: every argv, well formed or mutated,
ends in exit 0, 2 or 3 within a time bound, without a traceback, and prints
nothing on stdout when it exits 2.  verify and kernel --pnorm take seconds,
so they are not drawn: a fixed table of their argvs, whose domains ``run``
parses like every other subcommand's, is held to the same bound."""

import contextlib
import io
import json
import time
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bergman_indices import cli

SECONDS_PER_RUN = 5.0

DOMAINS = st.one_of(
    st.builds("polydisc:{}".format, st.integers(1, 3)),
    st.builds("ball:{}".format, st.integers(1, 3)),
    st.builds("hartogs:{}/{}".format, st.integers(1, 5), st.integers(1, 5)),
)
RATIONALS = st.one_of(st.builds(str, st.integers(1, 8)),
                      st.builds("{}/{}".format, st.integers(1, 24),
                                st.integers(1, 6)))
WINDOWS = st.builds(str, st.integers(1, 6))
COMPONENTS = st.sampled_from(["0", "0.1", "0.3j", "0.5", "-0.2+0.1j", "0.05"])


def multi_index(dim, lo=-3):
    return st.lists(st.integers(lo, 4), min_size=dim, max_size=dim).map(
        lambda xs: ",".join(map(str, xs)))


def point(dim):
    return st.lists(COMPONENTS, min_size=dim, max_size=dim).map(",".join)


def dim_of(spec):
    family, size = spec.split(":")
    return 2 if family == "hartogs" else int(size)


@st.composite
def well_formed(draw):
    """An argv of the grammar with small values (the answer may still be
    an exit 2, e.g. a point outside the domain)."""
    spec = draw(DOMAINS)
    dim = dim_of(spec)
    command = draw(st.sampled_from(["info", "index-set", "thresholds", "indices",
                                    "kernel", "density", "project", "probe"]))
    argv = [command, spec]
    if command == "index-set":
        argv += ["--p", draw(RATIONALS), "--window", draw(WINDOWS)]
    elif command == "thresholds":
        argv += ["--plo", draw(RATIONALS), "--phi", draw(RATIONALS),
                 "--window", draw(WINDOWS)]
    elif command == "indices":
        argv += draw(st.sampled_from([[], ["--window", "2"], ["--window", "7"],
                                      ["--p-cap", "8"]]))
    elif command == "kernel":
        argv += ["--z", draw(point(dim)), "--w", draw(point(dim)),
                 "--window", draw(WINDOWS)]
    elif command == "density":
        argv += ["--alpha=" + draw(multi_index(dim, 0)),
                 "--format", draw(st.sampled_from(["csv", "json"]))]
        if dim == 1:
            argv += ["--ks", draw(st.sampled_from(["1,2,4", "3", "8,16"]))]
        else:
            argv += ["--points", json.dumps([[[0.1 * j, 0.0]] + [[0.2, 0.0]] * (dim - 1)
                                             for j in range(draw(st.integers(1, 3)))])]
    elif command == "project":
        terms = [{"c": [1, 0], "alpha": draw(st.lists(st.integers(-3, 4), min_size=dim,
                                                       max_size=dim)),
                  "gamma": draw(st.lists(st.integers(0, 3), min_size=dim,
                                         max_size=dim))}]
        argv += ["--terms", json.dumps(terms)]
    elif command == "probe":
        argv += ["--alpha=" + draw(multi_index(dim)), "--gamma=" + draw(multi_index(dim, 0)),
                 "--plo", draw(RATIONALS), "--phi", draw(RATIONALS),
                 "--steps", str(draw(st.integers(1, 6))),
                 "--format", draw(st.sampled_from(["csv", "json"]))]
    return argv


BAD_VALUES = st.sampled_from([
    "0", "-1", "1000000", "100000000000", "nan", "inf", "x", "", "1/0", "3/-2",
    "1e3", "0.5", "1,", ",", "a,b", "0,0,0,0", "2,2", "[", "[{}]",
    '[{"c": [1, 0], "alpha": [1, 0.5]}]', "[[[0, 0]]]", "polydisc:0",
    "ball:100000000", "hartogs:0/1", "hartogs:1001/1", "hartogs:2", "torus:2",
])
UNKNOWN_FLAGS = st.sampled_from(["--cutoff", "--tol", "--format", "--refine",
                                 "--bogus", "--radial-nodes", "--steps", "--p"])


@st.composite
def mutated(draw):
    argv = draw(well_formed())
    kind = draw(st.sampled_from(["value", "flag", "drop"]))
    if kind == "value":
        argv[draw(st.integers(1, len(argv) - 1))] = draw(BAD_VALUES)
    elif kind == "flag":
        argv[2:2] = [draw(UNKNOWN_FLAGS), draw(BAD_VALUES)]
    else:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - started


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(well_formed(), mutated()))
def test_every_argv_exits_cleanly_and_in_bounded_time(argv):
    code, out, err, seconds = run_cli(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, argv
    if code == 2:
        assert out == "", argv
    assert seconds < SECONDS_PER_RUN, (argv, seconds)


@pytest.mark.parametrize("argv, code, stderr", [
    (["verify", "polydisc:1", "torus:2"], 2, "error: unknown domain family 'torus'"),
    (["verify", "hartogs:0/1"], 2, "error: malformed domain spec 'hartogs:0/1'"),
    (["verify", "hartogs:2/4", "--format", "json"], 0,
     "warning: hartogs:2/4 reduced to hartogs:1/2"),
    (["kernel", "polydisc:1", "--z", "0.3", "--w", "0", "--pnorm", "3"], 0, None),
    (["kernel", "hartogs:1/1", "--z", "0,0.5", "--w", "0,0.5", "--pnorm", "5"], 0,
     None),
])
def test_slow_subcommands_exit_cleanly_and_in_bounded_time(argv, code, stderr):
    got, out, err, seconds = run_cli(argv)
    assert got == code, (argv, err)
    assert "Traceback" not in err
    assert seconds < SECONDS_PER_RUN, (argv, seconds)
    lines = err.splitlines()
    if code == 2:
        assert out == "" and len(lines) == 1
        assert lines[0].startswith(stderr)
    else:
        assert lines[-1].startswith("elapsed_ms=")
        assert lines[:-1] == ([stderr] if stderr else [])
        if argv[0] == "verify":
            assert json.loads(out)["result"]["domains"] == ["hartogs:1/2"]
