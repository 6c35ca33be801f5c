"""CLI black-box behavior: exit codes, schema, determinism, negative control."""

import json

import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from bergman_indices import cli
from bergman_indices import domains as dm
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
])
def test_bad_input_exits_2_without_traceback(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err


def test_bad_seed_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("BERGMAN_SEED", "abc")
    code = cli.run(["info", "ball:1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err


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
    from fractions import Fraction

    code, out = run_json(capsys, ["info", "hartogs:1/1"])
    assert code == 0
    vol = json.loads(out)["result"]["volume"]
    coeff = Fraction(vol["exact"]["coeff"])
    pi_power = Fraction(vol["exact"]["pi_power"])
    assert vol["float"] == pytest.approx(
        float(coeff) * math.pi ** float(pi_power), rel=1e-12)


def test_verify_negative_control():
    """A corrupted moment formula must break the bootstrap and abort."""
    def corrupt(d, alpha, p):
        m = dm.moment(d, alpha, p)
        if m.is_finite:
            return dm.Moment.finite(m.value * 1.001)
        return m

    summary = vf.run_verify([dm.polydisc(1)], level="quick", moment_fn=corrupt)
    assert not summary.ok
    assert summary.aborted and not summary.bootstrap_ok


def test_verify_cli_negative_control_exit_nonzero(capsys, monkeypatch):
    """Same corruption through the CLI path: bootstrap failure, exit != 0."""
    def corrupt(d, alpha, p):
        m = real_moment(d, alpha, p)
        if m.is_finite:
            return dm.Moment.finite(m.value * 1.000001)
        return m

    real_moment = dm.moment
    monkeypatch.setattr(vf.dm, "moment", corrupt)
    code = cli.run(["verify", "polydisc:1", "--format", "json"])
    captured = capsys.readouterr()
    assert code != 0
    payload = json.loads(captured.out)
    assert payload["result"]["bootstrap_ok"] is False
    assert payload["result"]["aborted_after_bootstrap"] is True


def test_verify_cli_quick_passes(capsys):
    code = cli.run(["verify", "polydisc:1", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["result"]["ok"] is True
    assert payload["result"]["bootstrap_ok"] is True
