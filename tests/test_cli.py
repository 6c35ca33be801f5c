"""CLI black-box behavior: exit codes, schema, determinism, negative control."""

import argparse
import io
import json
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from bergman_indices import cli
from bergman_indices import domains as dm
from bergman_indices import quadrature as qd
from bergman_indices import verify as vf


def run_json(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out


SCHEMA = json.load(open("src/bergman_indices/schema/report.schema.json"))


def check_schema(payload):
    if jsonschema is not None:
        jsonschema.validate(payload, SCHEMA)
    assert payload["schema"] == "bergman-indices/1"


def test_indices_hartogs_values(capsys):
    code, out = run_json(capsys, ["indices", "hartogs:1/1"])
    assert code == 0
    payload = json.loads(out)
    check_schema(payload)
    result = payload["result"]
    assert result["duality_bound"] == {"kind": "exact", "value": "2"}
    assert result["regularity_probe"] == {"kind": "exact", "value": "4"}
    assert result["beta_upper"] == {"kind": "exact", "value": "4"}


def test_indices_ball_unbounded(capsys):
    code, out = run_json(capsys, ["indices", "ball:2"])
    assert code == 0
    result = json.loads(out)["result"]
    for key in ("duality_bound", "regularity_probe", "beta_upper"):
        assert result[key] == {"kind": "unbounded"}


def test_thresholds_listing(capsys):
    code, out = run_json(capsys, ["thresholds", "hartogs:1/1", "--window", "6",
                                  "--plo", "1", "--phi", "5"])
    assert code == 0
    payload = json.loads(out)
    check_schema(payload)
    values = [t["value"] for t in payload["result"]["thresholds"]]
    assert values == ["1", "4/3", "2", "4"]


def test_kernel_subcommand(capsys):
    code, out = run_json(capsys, ["kernel", "hartogs:1/1", "--z", "0,0.5",
                                  "--w", "0,0.5", "--window", "20"])
    assert code == 0
    payload = json.loads(out)
    check_schema(payload)
    result = payload["result"]
    assert result["abs_diff"] < 1e-9
    assert result["closed_form"]["re"] > 0


def test_kernel_closed_form_on_general_triangle(capsys):
    code, out = run_json(capsys, ["kernel", "hartogs:2/1", "--z", "0.1,0.5",
                                  "--w", "0,0.5", "--window", "20"])
    assert code == 0
    payload = json.loads(out)
    check_schema(payload)
    result = payload["result"]
    assert result["closed_form"] is not None
    assert result["abs_diff"] < 1e-9 * result["closed_form"]["re"]


def test_kernel_pnorm_flag(capsys):
    code, out = run_json(capsys, ["kernel", "hartogs:1/1", "--z", "0,0.5",
                                  "--w", "0,0.5", "--pnorm", "5"])
    assert code == 0
    payload = json.loads(out)
    check_schema(payload)
    assert payload["result"]["pnorm"]["diverging"] is True


def test_inconclusive_exit_code(capsys, monkeypatch):
    from bergman_indices import cli as cli_mod
    from bergman_indices.errors import Inconclusive

    def raise_inconclusive(*_args, **_kwargs):
        raise Inconclusive("forced for the exit-code contract")

    monkeypatch.setattr(cli_mod.kn, "kernel_pnorm_estimate", raise_inconclusive)
    code = cli_mod.run(["kernel", "hartogs:1/1", "--z", "0,0.5",
                        "--w", "0,0.5", "--pnorm", "4"])
    capsys.readouterr()
    assert code == 3


def test_density_explicit_points_2d(capsys):
    points = json.dumps([[[0.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [0.0, 0.6]],
                         [[0.1, 0.0], [0.55, 0.0]]])
    code, out = run_json(capsys, ["density", "hartogs:1/1", "--alpha", "0,-1",
                                  "--points", points, "--format", "json"])
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert rows[0]["k"] == 3 and rows[0]["residual"] >= 0


def test_density_csv(capsys):
    code = cli.run(["density", "polydisc:1", "--alpha", "0",
                    "--ks", "1,2,4", "--radius", "0.5"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "k,residual"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [1, 2, 4]
    residuals = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))


def test_project_subcommand(capsys):
    terms = json.dumps([{"c": [1, 0], "alpha": [0, 0], "gamma": [0, 1]}])
    code, out = run_json(capsys, ["project", "hartogs:1/1", "--terms", terms])
    assert code == 0
    payload = json.loads(out)
    check_schema(payload)
    projected = payload["result"]["projected"]
    assert projected == [{"c": [0.5, 0.0], "c_exact": ["1/2", "0"],
                          "alpha": [0, -1], "gamma": [0, 0]}]


def test_project_terms_from_stdin_and_file_match_inline(capsys, monkeypatch, tmp_path):
    terms = json.dumps([{"c": [1, 0], "alpha": [0, 0], "gamma": [0, 1]}])
    path = tmp_path / "terms.json"
    path.write_text(terms)
    monkeypatch.setattr("sys.stdin", io.StringIO(terms))
    outputs = [run_json(capsys, ["project", "hartogs:1/1", "--terms", source])
               for source in (terms, "-", str(path))]
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1] == outputs[2]


def test_all_json_commands_validate_against_schema(capsys):
    argvs = [
        ["info", "polydisc:2"],
        ["index-set", "hartogs:1/1", "--p", "2", "--window", "3"],
        ["density", "polydisc:1", "--alpha", "1", "--ks", "1,2",
         "--format", "json"],
        ["probe", "hartogs:1/1", "--alpha", "0,0", "--gamma", "0,1",
         "--plo", "3", "--phi", "4", "--steps", "2", "--format", "json"],
    ]
    for argv in argvs:
        code, out = run_json(capsys, argv)
        assert code == 0, argv
        check_schema(json.loads(out))


def test_probe_csv_flips_at_critical_exponent(capsys):
    code = cli.run(["probe", "hartogs:1/1", "--alpha", "0,0", "--gamma", "0,1",
                    "--plo", "7/2", "--phi", "9/2", "--steps", "4"])
    captured = capsys.readouterr()
    assert code == 0
    rows = [line.split(",") for line in captured.out.strip().splitlines()[1:]]
    verdicts = {p: v for p, v in rows}
    assert verdicts["7/2"] not in ("divergent",)
    assert verdicts["4"] == "divergent"
    assert verdicts["9/2"] == "divergent"


def test_usage_errors_exit_2(capsys):
    assert cli.run(["info", "bogus:3"]) == 2
    capsys.readouterr()
    assert cli.run(["indices", "hartogs:0/1"]) == 2
    capsys.readouterr()
    assert cli.run(["kernel", "hartogs:1/1", "--z", "0.9,0.5", "--w", "0,0.5"]) == 2
    capsys.readouterr()
    assert cli.run(["nonsense"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["probe", "hartogs:1/1", "--alpha", "0", "--gamma", "0"],
    ["probe", "hartogs:1/1", "--alpha", "0,0", "--gamma", "0,1", "--steps", "0"],
    ["index-set", "hartogs:1/1", "--p", "1e3"],
    ["density", "polydisc:1", "--alpha", "x"],
    ["density", "polydisc:1", "--ks", "0"],
    ["thresholds", "hartogs:1/1", "--window", "0"],
    ["project", "hartogs:1/1", "--terms", "notjson"],
    ["project", "hartogs:1/1", "--terms", '[{"c": [1, 0]}]'],
    ["kernel", "hartogs:1/1", "--z", "0,0.5", "--w", "0,0.5", "--pnorm", "0"],
    ["kernel", "hartogs:1/1", "--z", "0,0.5", "--w", "0,0.5", "--pnorm", "-1"],
    ["density", "polydisc:1", "--points", "x"],
    ["project", "hartogs:1/1", "--terms", '[{"c": [1, 0], "alpha": ["a", 0]}]'],
    ["project", "hartogs:1/1", "--terms", '[{"c": [1, 0], "alpha": [0.5, 0]}]'],
    *(["kernel", "hartogs:1/1", "--z", "0,0.5", "--w", "0,0.5", "--pnorm", "3",
       flag, value]
      for flag, value in [("--refine", "1"), ("--radial-nodes", "2"),
                          ("--angular-nodes", "2"), ("--cutoff", "0.7"),
                          ("--refine", "1000000"), ("--radial-nodes", "100000"),
                          ("--angular-nodes", "100000"), ("--tol", "nan")]),
    # flags a subcommand does not read
    ["info", "ball:1", "--tol", "1e-3"],
    ["indices", "hartogs:1/1", "--format", "csv"],
    ["density", "polydisc:1", "--format", "table"],
    ["verify", "--format", "csv"],
    ["kernel", "hartogs:1/1", "--z", "0,0.5", "--w", "0,0.5", "--cutoff", "0.3"],
    # input caps
    ["indices", "hartogs:1/1", "--window", "1000000"],
    ["index-set", "polydisc:20", "--window", "1"],
    ["density", "polydisc:1", "--ks", "100000"],
    ["density", "polydisc:1", "--points", json.dumps([[[0.001 * j, 0]]
                                                       for j in range(257)])],
    ["probe", "hartogs:1/1", "--alpha", "0,0", "--gamma", "0,1",
     "--steps", "100000"],
    ["probe", "hartogs:1/1", "--alpha", "0,0", "--gamma", "0,1",
     "--phi", "100000"],
    ["project", "ball:2", "--terms", '[{"c": [1, 0], "alpha": [100000, 100000]}]'],
    ["probe", "ball:6", "--alpha", "1000,1000,1000,1000,1000,1000",
     "--gamma", "0,0,0,0,0,0", "--plo", "64", "--phi", "64", "--steps", "1"],
    ["info", "ball:100000000"],
    ["info", "hartogs:1001/1"],
    # the window cap comes before the closed form's float-range refusal
    ["kernel", "hartogs:997/998", "--z", "0.01,0.5", "--w", "0.01,0.5",
     "--window", "600"],
    # valid values: kernel takes no quadrature flag
    *(["kernel", "hartogs:1/1", "--z", "0,0.5", "--w", "0,0.5", "--pnorm", "3",
       flag, value]
      for flag, value in [("--radial-nodes", "64"), ("--angular-nodes", "32"),
                          ("--refine", "3"), ("--tol", "1e-9")]),
    ["verify", "polydisc:1", "--seed", "-1"],  # numpy's generator takes no negative seed
    # a coefficient past the float range: merged input, then a projected term
    ["project", "polydisc:1", "--terms",
     '[{"c":[1.5e308,0],"alpha":[1]},{"c":[1.5e308,0],"alpha":[1]}]'],
    ["project", "polydisc:1", "--terms",
     '[{"c":[1.5e308,0],"alpha":[1]},{"c":[1.5e308,0],"alpha":[2],"gamma":[1]}]'],
])
def test_bad_input_exits_2_without_traceback(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["kernel", "hartogs:1/1", "--z", "0,0.5", "--w", "0,0.5", "--tol", "1e-9"],
    ["indices", "hartogs:1/1", "--window", "x"],
])
def test_argparse_rejection_is_one_stderr_line(capsys, argv):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("bergman-indices")
    assert ": error: " in captured.err


#: every option of every subcommand, ``-h`` aside: 43 flags across the nine
FLAG_INVENTORY = {
    "info": set(),
    "index-set": {"--p", "--window"},
    "thresholds": {"--plo", "--phi", "--window"},
    "indices": {"--window", "--p-cap"},
    "kernel": {"--z", "--w", "--window", "--pnorm"},
    "density": {"--alpha", "--ks", "--radius", "--points", "--format"},
    "project": {"--terms"},
    "probe": {"--alpha", "--gamma", "--plo", "--phi", "--steps", "--format"},
    "verify": {"--full", "--format"},
}


def test_flag_inventory():
    sub, = (a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    flags = {name: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
             for name, sp in sub.choices.items()}
    assert flags == {name: {"--seed", "--threads"} | own
                     for name, own in FLAG_INVENTORY.items()}
    assert sum(map(len, flags.values())) == 43


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_verify_default_domains_are_declared_in_the_parser(capsys, monkeypatch):
    ran = []

    def record(doms, level, seed):
        ran.append([d.spec_string() for d in doms])
        return vf.VerifySummary([], True)

    monkeypatch.setattr(vf, "run_verify", record)
    code, out = run_json(capsys, ["verify", "--format", "json"])
    assert code == 0
    assert ran == [["polydisc:1", "ball:2", "hartogs:1/1"]]
    assert json.loads(out)["result"]["domains"] == ran[0]
    assert cli.build_parser().parse_args(["verify"]).domains == (
        "polydisc:1", "ball:2", "hartogs:1/1")


def test_verify_rejects_oversized_domain_before_any_check(capsys, monkeypatch):
    def no_check(*_args, **_kwargs):
        raise AssertionError("a check ran before the window caps")

    monkeypatch.setattr(vf, "_moments_vs_quadrature", no_check)
    for argv, radius in ((["verify", "polydisc:4"], 30),
                         (["verify", "--full", "ball:1", "ball:4"], 40)):
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: window radius {radius} in dimension 4 "
                                "exceeds 1000000 lattice points\n")


@pytest.mark.parametrize("argv", [
    ["kernel", "hartogs:1/31", "--z", "0,1e-10", "--w", "0,1e-10"],
    ["kernel", "hartogs:1/31", "--z", "0,1e-10", "--w", "0,1e-10",
     "--window", "2"],
    # a tiny p: the 1000th root of a finite integral overflows
    ["kernel", "polydisc:1", "--z", "0.3", "--w", "0.1", "--pnorm", "1/1000"],
    ["kernel", "hartogs:1/1", "--z", "0,0.5", "--w", "0,0.5", "--pnorm", "1/1000"],
    # the ladder's mesh overflows, and inf times a zero weight is NaN
    ["kernel", "hartogs:1/25", "--z", "0,0.5", "--w", "0,0.5", "--pnorm", "2"],
])
def test_kernel_beyond_float_range_is_inconclusive(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning precedes the line
        code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("inconclusive: ")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_kernel_beyond_float_range_refuses_before_the_series(capsys):
    """The closed form refuses first; the window-499 series took 15 s."""
    t0 = time.perf_counter()
    code = cli.run(["kernel", "hartogs:997/998", "--z", "0.01,0.5", "--w", "0.01,0.5",
                    "--window", "499"])
    elapsed = time.perf_counter() - t0
    assert code == 3 and elapsed < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("inconclusive: kernel_closed_form: the value leaves "
                            "the floating-point range\n")


@pytest.mark.parametrize("argv, message", [
    (["info", "hartogs:2/4"], "hartogs:2/4 reduced to hartogs:1/2"),
    (["kernel", "hartogs:1/1", "--z", "0,0.9999999999999",
      "--w", "0,0.9999999999999", "--window", "2"],
     "kernel denominator nearly singular at z="),
])
def test_warning_is_one_stderr_line(capsys, argv, message):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 0
    check_schema(json.loads(captured.out))
    warning, timing = captured.err.splitlines()
    assert warning.startswith(f"warning: {message}")
    assert timing.startswith("elapsed_ms=")
    if argv[0] == "info":  # the report of the reduced domain, unchanged
        assert run_json(capsys, ["info", "hartogs:1/2"])[1] == captured.out


def test_kernel_pnorm_above_dimension_two_needs_z_zero(capsys):
    """At z != 0 a C^3 p-norm ran past 300 s; it is refused up front."""
    t0 = time.perf_counter()
    code = cli.run(["kernel", "ball:3", "--z", "0.2,0.1,0.3", "--w", "0,0,0",
                    "--pnorm", "2"])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 2 and elapsed < 1.0
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: --pnorm in dimension 3 needs z = 0")
    code, out = run_json(capsys, ["kernel", "polydisc:3", "--z", "0,0,0",
                                  "--w", "0,0,0", "--pnorm", "2"])
    assert code == 0
    assert json.loads(out)["result"]["pnorm"]["diverging"] is False


def test_probe_negative_gamma_is_one_line(capsys):
    """The rejection comes after the L^2 and L^p checks, as one line."""
    code = cli.run(["probe", "hartogs:1/1", "--alpha", "2,0", "--gamma=-1,0",
                    "--plo", "2", "--phi", "3", "--steps", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: conjugate exponents gamma must be >= 0\n"


@pytest.mark.parametrize("argv, message", [
    (["kernel", "polydisc:2", "--z", "0.1", "--w", "0,0"],
     "error: point '0.1' needs 2 comma-separated components\n"),
    (["kernel", "polydisc:2", "--z", "0.1,zz", "--w", "0,0"],
     "error: malformed point '0.1,zz': "),
    (["density", "polydisc:2", "--ks", "1,2"],
     "error: --ks point sets need a one-dimensional domain; "),
])
def test_point_and_dimension_rejections_are_one_line(capsys, argv, message):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert len(captured.err.splitlines()) == 1


def test_probe_skips_nonpositive_exponents(capsys):
    code = cli.run(["probe", "hartogs:1/1", "--alpha", "0,-1", "--gamma", "0,0",
                    "--plo", "-1", "--phi", "5", "--steps", "6"])
    captured = capsys.readouterr()
    assert code == 0
    rows = [line.split(",", 1) for line in captured.out.strip().splitlines()[1:]]
    assert rows == [["1", "1.0"], ["2", "1.0"], ["3", "1.0"],
                    ["4", "not-integrable: witness monomial is not in L^4"],
                    ["5", "not-integrable: witness monomial is not in L^5"]]


def test_indices_one_sided_chain(capsys):
    """A p cap below the duality bound leaves two indices one-sided; the
    chain compares each with the exact regularity probe, which runs both
    one-sided branches of ``index_sets._comparable_le``."""
    code, out = run_json(capsys, ["indices", "hartogs:1/3", "--window", "3",
                                  "--p-cap", "5/2"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["duality_bound"] == {"kind": "at_least", "value": "5/2"}
    assert result["regularity_probe"] == {"kind": "exact", "value": "8/3"}
    assert result["beta_upper"] == {"kind": "at_least", "value": "5/2"}


def test_probe_ratio_of_large_exponents(capsys):
    """The moments leave the float range; their ratio does not (the
    monomial is holomorphic, so it is its own projection)."""
    code = cli.run(["probe", "ball:2", "--alpha", "1000,1000", "--gamma", "0,0",
                    "--plo", "2", "--phi", "3", "--steps", "1"])
    captured = capsys.readouterr()
    assert code == 0
    rows = [line.split(",") for line in captured.out.strip().splitlines()[1:]]
    assert [p for p, _r in rows] == ["2", "3"]
    assert all(float(r) == pytest.approx(1.0, rel=1e-12) for _p, r in rows)


def test_bad_seed_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("BERGMAN_SEED", "abc")
    code = cli.run(["info", "ball:1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    monkeypatch.setenv("BERGMAN_SEED", "-5")
    assert cli.run(["verify", "polydisc:1"]) == 2
    assert cli.run(["info", "ball:1"]) == 0  # only verify draws from the seed


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("BERGMAN_SEED", "123")
    code, out = run_json(capsys, ["info", "ball:1"])
    assert code == 0
    assert json.loads(out)["seed"] == 123
    # the environment wins even over an explicit flag
    code, out = run_json(capsys, ["info", "ball:1", "--seed", "9"])
    assert json.loads(out)["seed"] == 123


def test_determinism_across_threads_and_repeats(capsys):
    outputs = set()
    for threads in ("1", "4", "8"):
        for _ in range(2):
            code, out = run_json(capsys, ["indices", "hartogs:3/2",
                                          "--threads", threads])
            assert code == 0
            outputs.add(out)
    assert len(outputs) == 1


def test_exact_and_float_renderings_agree(capsys):
    import math

    code, out = run_json(capsys, ["info", "hartogs:1/1"])
    assert code == 0
    vol = json.loads(out)["result"]["volume"]
    coeff = Fraction(vol["exact"]["coeff"])
    pi_power = Fraction(vol["exact"]["pi_power"])
    assert vol["float"] == pytest.approx(
        float(coeff) * math.pi ** float(pi_power), rel=1e-12)


def test_verify_negative_control(monkeypatch):
    """A corrupted moment formula must break the bootstrap and abort."""
    def corrupt(d, alpha, p):
        m = real_moment(d, alpha, p)
        if m.is_finite:
            return dm.Moment(m.value * 1.001)
        return m

    real_moment = dm.moment
    monkeypatch.setattr(vf.dm, "moment", corrupt)
    summary = vf.run_verify([dm.polydisc(1)], level="quick")
    assert not summary.ok
    assert summary.aborted and not summary.bootstrap_ok


def test_verify_cli_negative_control_exit_nonzero(capsys, monkeypatch):
    """Same corruption through the CLI path: bootstrap failure, exit != 0."""
    def corrupt(d, alpha, p):
        m = real_moment(d, alpha, p)
        if m.is_finite:
            return dm.Moment(m.value * 1.000001)
        return m

    real_moment = dm.moment
    monkeypatch.setattr(vf.dm, "moment", corrupt)
    code = cli.run(["verify", "polydisc:1", "--format", "json"])
    captured = capsys.readouterr()
    assert code != 0
    payload = json.loads(captured.out)
    assert payload["result"]["bootstrap_ok"] is False
    assert payload["result"]["aborted_after_bootstrap"] is True


def test_pnorm_brackets_fail_when_no_p_is_answered(monkeypatch):
    """``pnorm-probe-brackets-beta`` skips a refused p; with every p refused
    it has checked nothing, so it must not pass."""
    def refuse(*_args, **_kwargs):
        raise vf.Inconclusive("refused")

    ok, detail = vf._pnorm_brackets(None, None, None)
    assert ok and detail == "[]"
    monkeypatch.setattr(vf.kn, "kernel_pnorm_estimate", refuse)
    ok, detail = vf._pnorm_brackets(None, None, None)
    assert not ok and "no p was answered" in detail


def _refused_ladder(*_args, **_kwargs):
    raise vf.Inconclusive("refused")


def _falling_ladder(*_args, **_kwargs):
    return qd.ProbeResult(True, True, (2.0, 1.0), False)


@pytest.mark.parametrize("probe", [_refused_ladder, _falling_ladder])
def test_oracle_scan_fails_both_moment_rows_on_an_unconfirmed_ladder(monkeypatch, probe):
    """A ladder that cannot answer, or one that falls, confirms no divergence:
    the bootstrap row and ``random-moment-exactness`` both fail through the
    one scan."""
    d, size = dm.polydisc(1), vf.SIZES["quick"]
    monkeypatch.setattr(vf.qd, "divergence_probe", probe)
    ok, detail = vf._moments_vs_quadrature(d, [d], np.random.default_rng(1), size)
    assert not ok and detail.endswith("; probe failed at ((-3,), Fraction(1, 1))")
    ok, detail = vf._random_moments([d], np.random.default_rng(1), size)
    assert not ok and "divergence failures [('polydisc:1', (" in detail


def test_oracle_scan_fails_random_moments_on_a_scaled_moment(monkeypatch):
    """Finite moments off by 1e-6 relative fail ``random-moment-exactness`` on
    its worst relative error alone."""
    def scaled(d, alpha, p):
        m = real_moment(d, alpha, p)
        return dm.Moment(m.value * Fraction(1000001, 1000000)) if m.is_finite else m

    real_moment = dm.moment
    monkeypatch.setattr(vf.dm, "moment", scaled)
    ok, detail = vf._random_moments([dm.polydisc(1)], np.random.default_rng(1),
                                    vf.SIZES["quick"])
    assert not ok
    assert "worst rel 1.00e-06" in detail and detail.endswith("divergence failures []")


def test_oracle_scan_fails_both_moment_rows_on_a_nan_estimate(monkeypatch):
    """A NaN quadrature value matches no moment: it is the worst error."""
    monkeypatch.setattr(vf.qd, "integrate",
                        lambda *_args: qd.IntegralResult(float("nan"), 0.0))
    d, size = dm.polydisc(1), vf.SIZES["quick"]
    ok, detail = vf._moments_vs_quadrature(d, [d], np.random.default_rng(1), size)
    assert not ok and detail.startswith("13 finite (worst rel err nan at ((")
    ok, detail = vf._random_moments([d], np.random.default_rng(1), size)
    assert not ok and "worst rel nan" in detail


PLANTED_DOMAINS = [dm.polydisc(1), dm.ball(2), dm.hartogs(1, 1), dm.hartogs(3, 2)]


@pytest.mark.parametrize("module, name, fault, check, detail", [
    (vf.kn, "kernel_closed_form", lambda real: lambda d, z, w: real(d, z, w) * (1 + 1e-6),
     vf._series_vs_closed, "worst rel 1.00e-06"),
    (vf.dm, "volume", lambda real: lambda d: dm.Moment(real(d).value * Fraction(1, 2)),
     vf._holder_inclusion, "[('polydisc:1', ("),
    (vf.dp, "project", lambda real: lambda d, f: vf.dp.MixedMonomialSum(real(d, f).terms[:-1]),
     vf._projection_algebra, "'idempotence'"),
], ids=["series-vs-closed-form", "holder-inclusion", "algebra-exact-identities"])
def test_verify_check_fails_on_its_planted_fault(monkeypatch, module, name, fault,
                                                 check, detail):
    """A check about one function fails when that function is planted with a
    plausible fault: a closed form off by 1e-6, a halved volume, a projection
    that loses a term."""
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    ok, text = check(PLANTED_DOMAINS, np.random.default_rng(1), vf.SIZES["quick"])
    assert not ok and detail in text


@pytest.mark.parametrize("row", [1, 2])
def test_threshold_completeness_fails_on_a_dropped_critical_row(monkeypatch, row):
    """A flip missing from the critical table leaves a gap whose two ends see
    different index sets; the drawn sub-intervals alone almost never straddle
    it.  Row 1 is 4/3 on H(1,1) and 1 on H(3,2), row 2 is 2 and 10/9."""
    real = vf.ix.critical_table
    monkeypatch.setattr(vf.ix, "critical_table",
                        lambda d, radius: real(d, radius)[:row] + real(d, radius)[row + 1:])
    ok, text = vf._threshold_completeness(PLANTED_DOMAINS, np.random.default_rng(1),
                                          vf.SIZES["quick"])
    assert not ok and text.startswith("[('hartogs:")


def test_verify_cli_quick_passes(capsys):
    code = cli.run(["verify", "polydisc:1", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["result"]["ok"] is True
    assert payload["result"]["bootstrap_ok"] is True


def test_verify_table_has_one_pass_row_per_check(capsys):
    code, out = run_json(capsys, ["verify", "polydisc:1"])
    assert code == 0
    *rows, overall = out.splitlines()
    names = ["moments-vs-quadrature[polydisc:1]"] + [name for _s, name, _c in vf.CHECKS]
    assert [row.split()[:3:2] for row in rows] == [["[PASS]", n] for n in names]
    assert overall == "overall: PASS"


def test_verify_json_identical_with_cold_and_warm_axis_memo(capsys, clear_separable_caches):
    """The separable axis memo and rule caches hold only fresh bits: a verify
    run from empty ones prints what a run from warm ones prints."""
    outputs = [run_json(capsys, ["verify", "hartogs:1/1", "--format", "json"])
               for _ in range(2)]
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1]
