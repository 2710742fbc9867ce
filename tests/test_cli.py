"""Command-line front end: config parsing, runs, reports, reproducibility."""

import configparser
import contextlib
import inspect
import io
import json
import os
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisy_control import cli, scenarios, verification
from noisy_control.errors import ConfigError, NonFiniteState
from noisy_control.paths import JumpSpec, make_grid, sample_ensemble

FAST_LINEAR = """\
[model]
name = linear-noisy-memory

[monte_carlo]
n_paths = 400
seed = 3

[control]
kind = constant
value = 1.0

[checks]
run = closed-form, bridge

[output]
directory = {out}
"""


# Explicit affine coefficients with a drift that overflows the state (1e300)
# or only the quadratic regression design (1e12).
EXPLODING_AFFINE = """\
[model]
name = custom-affine
bx = {bx}
s_const = 0.1

[grid]
steps_per_delay = 4

[monte_carlo]
n_paths = 200

[checks]
run = regression

[output]
directory = {out}
"""

# Consumption with discrete jump marks, so the regression route solves for
# the jump adjoint r1 as well.
JUMP_CONSUMPTION = """\
[model]
name = consumption
jump_intensity = 1
jump_marks = -0.5:0.5, 1.0:0.5
jump_scale = 0.1

[monte_carlo]
n_paths = 400
seed = 3

[control]
kind = foc

[checks]
run = closed-form, regression, bridge, max-principle

[output]
directory = {out}
"""

REPO = pathlib.Path(__file__).resolve().parent.parent

# Regression-derived bytes whose last digits follow the BLAS summation order
# inside adjoint._gram and adjoint._project, so they regenerate exactly only
# on some machines
# (ROADMAP item 5).
BLAS_ORDER_DEPENDENT = (
    "consumption/report.json",
    "custom-affine/adjoint.csv",
    "linear-noisy-memory/report.json",
)
# The report leaves that come from those sums; every other leaf of the two
# reports regenerates exactly.
BLAS_ORDER_LEAVES = (
    ("checks", "regression", "p_rel_rms"),
    ("checks", "regression", "zero_component_rms", "q2"),
)


def _write(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_config_fills_documented_defaults(tmp_path):
    path = _write(tmp_path, "[model]\nname = consumption\n")
    cfg = cli.load_config(path)
    assert cfg["grid"]["steps_per_delay"] == 8
    assert cfg["monte_carlo"] == {"n_paths": 2000, "seed": 0}
    assert cfg["solver"] == {"basis": "quad-xz", "ridge": 1e-8}
    assert cfg["control"]["kind"] == "constant"
    assert cfg["output"]["directory"] == "out"
    # factory defaults flow through untouched
    assert cfg["model"]["a1"] == 0.3
    assert sorted(cfg["checks"]["run"]) == sorted(
        ["bridge", "closed-form", "max-principle", "regression"]
    )


def test_load_config_reports_file_and_line(tmp_path):
    path = _write(tmp_path, "[model]\nname = consumption\n\nwhatever = 1\n")
    with pytest.raises(ConfigError) as err:
        cli.load_config(path)
    msg = str(err.value)
    assert msg.startswith(path + ":4:")
    assert "whatever" in msg


def test_load_config_rejects_unknown_section_and_scenario(tmp_path):
    with pytest.raises(ConfigError) as err:
        cli.load_config(_write(tmp_path, "[model]\nname = consumption\n[wat]\nx = 1\n"))
    assert ":3:" in str(err.value)
    with pytest.raises(ConfigError) as err:
        cli.load_config(_write(tmp_path, "[model]\nname = nope\n", "b.ini"))
    assert ":2:" in str(err.value) and "unknown scenario" in str(err.value)


def test_load_config_rejects_keys_from_other_scenarios(tmp_path):
    path = _write(tmp_path, "[model]\nname = generalized-memory\npsi = 0.1\n")
    with pytest.raises(ConfigError) as err:
        cli.load_config(path)
    assert "psi" in str(err.value)


def test_load_config_jump_marks_validation(tmp_path):
    good = _write(
        tmp_path,
        "[model]\nname = consumption\njump_intensity = 1.0\n"
        "jump_marks = -0.5:0.5, 1.0:0.5\njump_scale = 0.1\n",
    )
    cfg = cli.load_config(good)
    model, jump_spec = cli.build_scenario(cfg)
    assert jump_spec is not None
    assert jump_spec.levy_moment(1) == pytest.approx(1.0 * (-0.5 * 0.5 + 1.0 * 0.5))

    bad = _write(
        tmp_path,
        "[model]\nname = consumption\njump_intensity = 1.0\n"
        "jump_marks = -0.5:0.7, 1.0:0.5\n",
        "bad.ini",
    )
    with pytest.raises(ConfigError) as err:
        cli.load_config(bad)
    assert "jump_marks" in str(err.value)


def test_load_config_control_kind_rules(tmp_path):
    both = _write(tmp_path, "[model]\nname = consumption\n[control]\nkind = foc\nvalue = 1.0\n")
    with pytest.raises(ConfigError) as err:
        cli.load_config(both)
    assert "value" in str(err.value)
    foc_affine = _write(
        tmp_path, "[model]\nname = custom-affine\n[control]\nkind = foc\n", "b.ini"
    )
    with pytest.raises(ConfigError):
        cli.load_config(foc_affine)


def test_load_config_rejects_inapplicable_checks(tmp_path):
    path = _write(
        tmp_path, "[model]\nname = custom-affine\n[checks]\nrun = closed-form\n"
    )
    with pytest.raises(ConfigError) as err:
        cli.load_config(path)
    assert "closed-form" in str(err.value)


def test_load_config_rejects_regression_under_weighted_memory(tmp_path):
    path = _write(
        tmp_path,
        "[model]\nname = consumption\nkernel = ramp\n[checks]\nrun = regression\n",
    )
    with pytest.raises(ConfigError) as err:
        cli.load_config(path)
    assert "regression" in str(err.value)


@pytest.mark.parametrize("name,key,value", [
    ("custom-affine", "target", "nan"),
    ("custom-affine", "target", "inf"),
    ("custom-affine", "target", "-inf"),
    ("consumption", "delta", "0"),
    ("consumption", "delta", "-0.2"),
    ("linear-noisy-memory", "horizon", "0"),
    ("consumption", "control_upper", "0"),
    pytest.param("consumption", "jump_intensity", "-1\njump_marks = 1:1",
                 id="consumption-jump_intensity--1-with-marks"),
])
def test_run_rejects_non_finite_and_non_positive_numbers(tmp_path, capsys, name, key, value):
    path = _write(tmp_path, "[model]\nname = %s\n%s = %s\n[output]\ndirectory = %s\n"
                  % (name, key, value, tmp_path / "out"))
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "%s:3: [model] %s: " % (path, key) in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


_NO_FLOAT_STEP = "GridTooLarge: the grid's step count horizon * steps_per_delay / delta is past"
_STEPS_1E400 = "[grid]\nsteps_per_delay = 1%s\n" % ("0" * 400)


@pytest.mark.parametrize("extra,message", [
    pytest.param("horizon = 1e15\n", "GridTooLarge: numpy cannot allocate the ", id="1e15"),
    pytest.param("horizon = 1e300\n", "GridTooLarge: numpy cannot allocate the ", id="1e300"),
    # the max-principle check counts the steps in load_config; the grid counts them itself
    pytest.param(_STEPS_1E400, _NO_FLOAT_STEP, id="steps_per_delay-1e400"),
    pytest.param(_STEPS_1E400 + "[checks]\nrun = bridge\n", _NO_FLOAT_STEP,
                 id="steps_per_delay-1e400-bridge"),
])
def test_run_rejects_grids_numpy_cannot_allocate(tmp_path, capsys, extra, message):
    """numpy refuses these grids at once, or a float cannot count their steps;
    the refusal is a typed error, exit 2."""
    path = _write(tmp_path, "[model]\nname = linear-noisy-memory\n%s"
                  "[output]\ndirectory = %s\n" % (extra, tmp_path / "out"))
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("directory", ["a-file", "a-file/out"])
def test_run_rejects_an_output_directory_under_a_file(tmp_path, capsys, directory):
    (tmp_path / "a-file").write_text("")
    path = _write(tmp_path, "[model]\nname = linear-noisy-memory\n"
                  "[output]\ndirectory = %s\n" % (tmp_path / directory))
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err == "config error: %s:4: [output] directory: %s is not a directory\n" % (
        path, tmp_path / "a-file")


_BAD_VALUES = "mark values must be finite"
_BAD_PROBS = "probabilities must be finite and non-negative"


@pytest.mark.parametrize("marks,message", [
    ("nan:1.0", _BAD_VALUES),
    ("inf:1.0", _BAD_VALUES),
    ("-0.5:0.5, -inf:0.5", _BAD_VALUES),
    ("1.0:nan", _BAD_PROBS),
    ("-0.5:0.5, 1.0:inf", _BAD_PROBS),
    ("-0.5:-inf, 1.0:0.5", _BAD_PROBS),
    ("2.0:-0.5, 1.0:1.5", _BAD_PROBS),
])
def test_run_rejects_bad_jump_marks(tmp_path, capsys, marks, message):
    path = _write(tmp_path, "[model]\nname = consumption\njump_marks = %s\n"
                  "jump_intensity = 1.0\njump_scale = 0.1\n[monte_carlo]\nn_paths = 200\n"
                  "[output]\ndirectory = %s\n" % (marks, tmp_path / "out"))
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "%s:3: [model] jump_marks: %s" % (path, message) in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_exit_codes(tmp_path, capsys):
    ok = _write(tmp_path, FAST_LINEAR.format(out=tmp_path / "out"))
    assert cli.main(["run", ok]) == 0
    out = capsys.readouterr().out
    assert "closed-form" in out and "PASS" in out

    bad = _write(tmp_path, "[model]\nname = consumption\nbogus = 2\n", "bad.ini")
    assert cli.main(["run", bad]) == 2
    assert "config error" in capsys.readouterr().err

    # commensurability failures surface as typed errors, not tracebacks
    off = _write(
        tmp_path,
        "[model]\nname = consumption\ndelta = 0.3\nhorizon = 1.0\n",
        "off.ini",
    )
    assert cli.main(["run", off]) == 2
    assert "NonCommensurate" in capsys.readouterr().err

    # too few paths for the regression basis is a config error, not a crash
    few = _write(tmp_path, EXPLODING_AFFINE.format(bx="0.1", out=tmp_path / "few").replace(
        "n_paths = 200", "n_paths = 20"), "few.ini")
    assert cli.main(["run", few]) == 2
    err = capsys.readouterr().err
    assert few + ":10: [monte_carlo] n_paths:" in err and "Traceback" not in err

    # an overflowing state, or a regression design that overflows, is typed too
    for bx, error in (("1e300", "NonFiniteState"), ("1e12", "RankDeficientBasis")):
        path = _write(tmp_path, EXPLODING_AFFINE.format(bx=bx, out=tmp_path / "big"), "big.ini")
        # numpy's overflow warnings would quote package source lines
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(error + ":") and "Traceback" not in err


def _committed_config(tmp_path, name, **changes):
    """configs/<name>.ini with some [model]/[grid] values replaced, writing to tmp_path."""
    lines = []
    for line in (REPO / "configs" / (name + ".ini")).read_text().splitlines():
        key = line.split("=")[0].strip()
        if key in changes:
            line = "%s = %s" % (key, changes[key])
        elif key == "directory":
            line = "directory = %s" % (tmp_path / "out")
        lines.append(line)
    return _write(tmp_path, "\n".join(lines) + "\n", name + ".ini")


@pytest.mark.parametrize("name", ["consumption", "custom-affine", "generalized-memory",
                                  "linear-noisy-memory"])
def test_run_with_delay_past_horizon(tmp_path, capsys, name):
    """delta = 2 > T: the advanced term is empty; too few steps for spikes is a config error."""
    coarse = _committed_config(tmp_path, name, delta=2)  # 4 steps on [0, 1]
    code = cli.main(["run", coarse])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if name == "custom-affine":  # no max-principle check
        assert code == 0
    else:
        line = pathlib.Path(coarse).read_text().splitlines().index("steps_per_delay = 8") + 1
        assert code == 2
        assert "%s:%d: [grid] steps_per_delay: the max-principle check needs at least 5 " \
            "steps on [0, horizon], this grid has 4" % (coarse, line) in err
        assert not (tmp_path / "out").exists()
    fine = _committed_config(tmp_path, name, delta=2, steps_per_delay=12)  # 6 steps
    assert cli.main(["run", fine]) in (0, 1)
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["grid"]["horizon_steps"] == 6


@pytest.mark.parametrize("name", ["consumption", "generalized-memory"])
def test_run_with_exactly_zero_residual_is_typed(tmp_path, capsys, name):
    """a1 = 0 makes the closed-form residual exactly 0.0 on both grids: no order."""
    path = _committed_config(tmp_path, name, a1=0)
    assert cli.main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ZeroResidual: the closed-form BSDE residual sup is exactly 0.0 "
                          "at steps_per_delay 8 and 16")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_render_report_rejects_non_finite_values(value):
    report = {"performance": {"estimate": 1.0, "standard_error": value}}
    with pytest.raises(NonFiniteState, match="not finite"):
        verification.render_report(report)


def test_run_report_is_byte_stable(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    cfg1 = _write(tmp_path, FAST_LINEAR.format(out=out1), "one.ini")
    cfg2 = _write(tmp_path, FAST_LINEAR.format(out=out2), "two.ini")
    assert cli.main(["run", cfg1]) == 0
    assert cli.main(["run", cfg2]) == 0
    r1 = (out1 / "report.json").read_bytes()
    r2 = (out2 / "report.json").read_bytes()
    # reports may only differ in the echoed output directory
    d1 = json.loads(r1)
    d2 = json.loads(r2)
    d1["config"]["output"].pop("directory")
    d2["config"]["output"].pop("directory")
    assert d1 == d2
    assert (out1 / "paths.csv").exists()
    assert (out1 / "adjoint.csv").exists()


def test_run_same_directory_is_identical(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, FAST_LINEAR.format(out=out))
    assert cli.main(["run", cfg]) == 0
    first = (out / "report.json").read_bytes()
    assert cli.main(["run", cfg]) == 0
    assert (out / "report.json").read_bytes() == first


def test_list_json_catalog(capsys):
    assert cli.main(["list", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    names = [row["name"] for row in data["scenarios"]]
    assert names == sorted(names)
    assert "linear-noisy-memory" in names
    for row in data["scenarios"]:
        assert row["template"] == "configs/%s.ini" % row["name"]
        assert isinstance(row["checks"], list)


def test_run_consumption_with_discrete_jumps(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", _write(tmp_path, JUMP_CONSUMPTION.format(out=out))]) == 0
    report = json.loads((out / "report.json").read_text())
    assert sorted(report["checks"]) == ["bridge", "closed-form", "max-principle", "regression"]
    zeros = report["checks"]["regression"]["zero_component_rms"]
    assert {"r1_level", "r1_slope"} <= set(zeros)


def test_sample_noise_is_sample_ensemble():
    grid = make_grid(0.2, 1.0, 8)
    spec = JumpSpec.discrete(0.5, [1.0], [1.0])
    whole = sample_ensemble(grid, spec, seed=9, n_paths=5000)
    ran = cli.sample_noise(grid, spec, seed=9, n_paths=5000)
    assert np.array_equal(whole.increments, ran.increments)
    assert np.array_equal(whole.jump_counts, ran.jump_counts)
    assert np.array_equal(whole.jump_marks, ran.jump_marks)


# Every [model] key each scenario accepts, with its default
_MODEL_DEFAULTS = {
    "linear-noisy-memory": {
        "a0": 0.5, "a1": 0.3, "sigma0": 0.2, "psi": 0.1, "delta": 0.2, "horizon": 1.0,
        "xi0": 1.0, "control_lower": 0.05, "control_upper": 20.0,
    },
    "consumption": {
        "a0": 0.5, "a1": 0.3, "sigma0": 0.2, "delta": 0.2, "horizon": 1.0, "xi0": 1.0,
        "kernel": "none", "control_lower": 0.05, "control_upper": 20.0, "running": "log",
        "linear_rate": 1.0, "jump_scale": 0.0, "jump_intensity": 0.0, "jump_marks": "",
    },
    "generalized-memory": {
        "a1": 0.3, "sigma0": 0.2, "delta": 0.2, "horizon": 1.0, "xi0": 1.0,
        "control_lower": 0.05, "control_upper": 20.0,
    },
    "custom-affine": {
        "bx": 0.0, "by": 0.0, "bz": 0.0, "bu": 0.0, "b_const": 0.0, "s_const": 0.0,
        "sx": 0.0, "running": "quadratic", "target": 1.0, "terminal_slope": 0.0,
        "delta": 0.2, "horizon": 1.0, "xi0": 1.0, "control_lower": -5.0, "control_upper": 5.0,
    },
}


def test_model_keys_are_the_catalog_factory_parameters(tmp_path):
    """Each factory parameter is a float key of its own name and default, or one
    of the four parameters the CLI reads through its own keys."""
    assert set(cli._MODEL_PARAMS) == {"kernel", "running", "control_set", "jump_spec"}
    assert sorted(_MODEL_DEFAULTS) == sorted(scenarios.CATALOG)
    for name, entry in scenarios.CATALOG.items():
        keys = cli.model_keys(name)
        for param in inspect.signature(entry["factory"]).parameters.values():
            if param.name not in cli._MODEL_PARAMS:
                assert type(param.default) is float, (name, param.name)
                assert keys[param.name] == (param.default, None)
        defaults = {key: default for key, (default, _) in keys.items()}
        assert defaults == _MODEL_DEFAULTS[name]
        assert all(type(default) is type(_MODEL_DEFAULTS[name][key])
                   for key, default in defaults.items())
        # an empty [model] resolves to exactly these defaults
        cfg = cli.load_config(_write(tmp_path, "[model]\nname = %s\n" % name))
        assert cfg["model"] == {"name": name, **_MODEL_DEFAULTS[name]}
        cli.build_scenario(cfg)


# Values the fuzzer sets a config key to.  A value that sizes a run either
# grows a committed run at most 2-fold or is refused before any large
# allocation: by the config checks, or by numpy for the grid of horizon = 1e15
# or 1e300.
_FUZZ_VALUES = ["0", "-1", "-0.5", "0.5", "1", "2", "1e15", "1e300", "-1e300", "nan", "inf",
                "-inf", "", "junk", "1:1", "-0.5:0.5, 1.0:0.5", "true", "false"]

# (scenario, section, key) for every key each committed config's scenario accepts
_FUZZ_KEYS = [
    (name, section, key)
    for name in sorted(scenarios.CATALOG)
    for section, keys in [("model", ["name", *cli.model_keys(name)]), *cli._SECTIONS.items()]
    for key in keys
]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=st.sampled_from(_FUZZ_KEYS), value=st.sampled_from(_FUZZ_VALUES))
@example(case=("consumption", "model", "control_upper"), value="0")
@example(case=("generalized-memory", "model", "horizon"), value="1e300")
@example(case=("custom-affine", "output", "directory"), value="")
def test_run_on_a_mutated_committed_config_never_crashes(case, value):
    """One key of a committed config, run on 100 paths, set to a hostile value:
    the run ends in exit 0, 1 or 2 and never in a traceback."""
    name, section, key = case
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(REPO / "configs" / (name + ".ini"))
    parser["monte_carlo"]["n_paths"] = "100"
    parser["output"]["directory"] = "out"
    if not parser.has_section(section):
        parser.add_section(section)
    parser[section][key] = value
    cwd = os.getcwd()
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)  # a relative output directory lands here
        try:
            with open("case.ini", "w") as fh:
                parser.write(fh)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["run", "case.ini"])
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_templates_parse_cleanly():
    here = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in sorted(os.listdir(here)):
        cfg = cli.load_config(os.path.join(here, name))
        assert cfg["model"]["name"] + ".ini" == name


def _regenerate_out(tmp_path, monkeypatch):
    """Run every committed config from tmp_path; yield (file, new bytes, committed bytes)."""
    monkeypatch.chdir(tmp_path)  # the reports echo their relative output directory
    configs = sorted((REPO / "configs").glob("*.ini"))
    for cfg in configs:
        assert cli.main(["run", str(cfg)]) == 0
    for cfg in configs:
        committed = sorted((REPO / "out" / cfg.stem).iterdir())
        assert sorted(p.name for p in (tmp_path / "out" / cfg.stem).iterdir()) == [
            p.name for p in committed
        ]
        for old in committed:
            rel = cfg.stem + "/" + old.name
            yield rel, (tmp_path / "out" / rel).read_bytes(), old.read_bytes()


def _without_blas_order_leaves(raw):
    report = json.loads(raw)
    for path in BLAS_ORDER_LEAVES:
        node = report
        for key in path[:-1]:
            node = node.get(key, {})
        node.pop(path[-1], None)
    return report


def test_configs_regenerate_committed_out(tmp_path, monkeypatch):
    """The committed out/ is what configs/*.ini write, byte for byte.

    The two BLAS-order-dependent reports match exactly in every other leaf.
    """
    checked = reports = 0
    for rel, new, old in _regenerate_out(tmp_path, monkeypatch):
        if rel not in BLAS_ORDER_DEPENDENT:
            assert new == old, rel
            checked += 1
        elif rel.endswith("report.json"):
            assert _without_blas_order_leaves(new) == _without_blas_order_leaves(old), rel
            reports += 1
    assert checked == 9 and reports == 2


@pytest.mark.xfail(
    strict=False,
    reason="ROADMAP item 5: the regression's BLAS summation order moves the last digits",
)
def test_configs_regenerate_blas_order_dependent_out(tmp_path, monkeypatch):
    differing = [rel for rel, new, old in _regenerate_out(tmp_path, monkeypatch)
                 if rel in BLAS_ORDER_DEPENDENT and new != old]
    assert differing == []
