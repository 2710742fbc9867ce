"""Command-line front end: scenario runner, catalog listing, acceptance suite.

Subcommands:
    run <config.ini>    simulate a configured scenario, solve the adjoint on
                        both available routes, run the requested checks, and
                        write report.json (+ CSV dumps) to the output directory
    list [--json]       show the scenario catalog and its config templates
    verify [--seed N] [--out DIR] [--quick]
                        run the numbered acceptance checks

Exit codes: 0 all requested checks passed, 1 a check failed, 2 bad usage or
configuration (including non-commensurate delay/horizon).

Reports are canonical JSON with no timing data, so identical config + seed
gives byte-identical output.
"""

import argparse
import configparser
import csv
import inspect
import json
import os
import sys

import numpy as np

from . import adjoint as adjoint_mod
from . import maxprinciple as mp
from . import scenarios, verification
from .dynamics import ControlPath, MemoryKernel, evaluate_performance, reduce_2d, simulate_state
from .errors import ConfigError, GridTooLarge, NoisyControlError
from .malliavin import horizon_values
from .paths import _UNCOUNTABLE, JumpSpec, make_grid, sample_ensemble

_CHECK_NAMES = ("closed-form", "regression", "bridge", "max-principle")

# the spike battery starts no spike on the last _SPIKE_TAIL horizon nodes
_SPIKE_TAIL = 5

# The cost names of a scenario's `running` parameter, and the memory kernels
# by name (a kernel is built from the delay)
_RUNNING = {
    "consumption": ("log", "linear"),
    "custom-affine": ("quadratic", "linear", "convex"),
}
_KERNELS = {
    "none": lambda delta: None,
    "identity": lambda delta: MemoryKernel.identity(),
    "ramp": MemoryKernel.ramp,
}

# A scenario's [model] keys are its catalog factory's keyword parameters: a
# float parameter is a float key of the same name and default.  The others
# map parameter -> (keys(scenario, parameter default) -> {key: (default,
# choices or None)}, argument(resolved [model], marks) -> factory argument).
_MODEL_PARAMS = {
    "control_set": (
        lambda name, bounds: {"control_lower": (float(bounds[0]), None),
                              "control_upper": (float(bounds[1]), None)},
        lambda mc, marks: (mc["control_lower"], mc["control_upper"]),
    ),
    "jump_spec": (
        lambda name, spec: {"jump_intensity": (0.0, None), "jump_marks": ("", None)},
        lambda mc, marks: (None if marks is None
                           else JumpSpec.discrete(mc["jump_intensity"], *marks)),
    ),
    "kernel": (
        lambda name, kernel: {"kernel": ("none", tuple(_KERNELS))},
        lambda mc, marks: _KERNELS[mc["kernel"]](mc["delta"]),
    ),
    "running": (
        lambda name, running: {"running": (running, _RUNNING[name])},
        lambda mc, marks: mc["running"],
    ),
}

# Every other section: key -> default, whose type is the key's type
_SECTIONS = {
    "grid": {"steps_per_delay": 8},
    "monte_carlo": {"n_paths": 2000, "seed": 0},
    "control": {"kind": "constant", "value": 1.0},
    "solver": {"basis": "quad-xz", "ridge": 1e-8},
    "checks": {
        "bridge_tol": 1e-10, "regression_rel_tol": 0.05, "zero_abs_tol": 0.02,
        "terminal_tol": 1e-12, "order_band_low": 0.7, "order_band_high": 1.3,
        "se_multiplier": 3.0, "spike_count": 5, "condition_limit": 1e13, "run": "",
    },
    "output": {"directory": "out", "write_paths": True, "write_adjoint": True},
}


def model_keys(name):
    """[model] key -> (default, choices or None) for scenario `name`."""
    keys = {}
    for param in inspect.signature(scenarios.CATALOG[name]["factory"]).parameters.values():
        if param.name in _MODEL_PARAMS:
            keys.update(_MODEL_PARAMS[param.name][0](name, param.default))
        else:
            keys[param.name] = (param.default, None)
    return keys


# checks that make sense per scenario (missing oracle => loud config error)
_APPLICABLE = {
    "linear-noisy-memory": {"closed-form", "regression", "bridge", "max-principle"},
    "consumption": {"closed-form", "regression", "bridge", "max-principle"},
    "generalized-memory": {"closed-form", "bridge", "max-principle"},
    "custom-affine": {"regression"},
}


def _key_lines(path):
    """Map (section, key) -> 1-based line number for error messages."""
    lines = {}
    section = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith(("#", ";")):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                lines[(section, None)] = lineno
                continue
            for sep in ("=", ":"):
                if sep in line:
                    key = line.split(sep, 1)[0].strip().lower()
                    lines.setdefault((section, key), lineno)
                    break
    return lines


def _fail(path, lines, section, key, message):
    lineno = lines.get((section, key)) or lines.get((section, None))
    where = "%s:%s" % (path, lineno) if lineno else path
    raise ConfigError("%s: [%s] %s: %s" % (where, section, key or "", message))


def load_config(path):
    """Parse and validate a scenario config; returns a fully resolved dict.

    Every key the run will use appears in the result, whether it came from
    the file or from a default, so the report's config echo is complete.
    Unknown sections or keys and values of the wrong type are ConfigErrors
    carrying the file line number.
    """
    if not os.path.exists(path):
        raise ConfigError("config file not found: %s" % path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError("%s: %s" % (path, exc)) from exc
    if not read:
        raise ConfigError("config file not readable: %s" % path)
    lines = _key_lines(path)

    allowed = {"model": {"name"}.union(*map(model_keys, scenarios.CATALOG)), **_SECTIONS}
    for section in parser.sections():
        if section not in allowed:
            _fail(path, lines, section, None, "unknown section")
        for key in parser[section]:
            if key not in allowed[section]:
                _fail(path, lines, section, key, "unknown key")

    def get(section, key, default):
        """The key's value, of its default's type, or the default if unset."""
        if not parser.has_option(section, key):
            return default
        if isinstance(default, bool):
            try:
                return parser.getboolean(section, key)
            except ValueError:
                _fail(path, lines, section, key, "expected a boolean")
        conv = type(default)
        raw = parser.get(section, key)
        try:
            value = conv(raw)
        except (TypeError, ValueError):
            _fail(path, lines, section, key,
                  "cannot parse %r as %s" % (raw, conv.__name__))
        if conv is float and not np.isfinite(value):
            _fail(path, lines, section, key, "expected a finite number, got %r" % raw)
        return value

    name = parser.get("model", "name", fallback=None)
    if name is None:
        _fail(path, lines, "model", "name", "required key is missing")
    if name not in scenarios.CATALOG:
        _fail(path, lines, "model", "name",
              "unknown scenario (run `noisy-control list` for the catalog)")
    schema = model_keys(name)
    for key in parser["model"] if parser.has_section("model") else ():
        if key != "name" and key not in schema:
            _fail(path, lines, "model", key,
                  "not a parameter of scenario %r" % name)

    model_cfg = {"name": name}
    for key in sorted(schema):
        default, choices = schema[key]
        value = get("model", key, default)
        if choices is not None and value not in choices:
            _fail(path, lines, "model", key, "expected one of: %s" % ", ".join(choices))
        model_cfg[key] = value

    for key in ("delta", "horizon"):
        if not model_cfg[key] > 0:
            _fail(path, lines, "model", key, "must be positive")

    marks = _parse_marks(model_cfg.get("jump_marks", ""), path, lines)
    if model_cfg.get("jump_intensity", 0.0) > 0 and marks is None:
        _fail(path, lines, "model", "jump_marks",
              "required when jump_intensity > 0 (format: value:prob, value:prob)")
    if model_cfg.get("jump_intensity", 0.0) == 0.0 and marks is not None:
        _fail(path, lines, "model", "jump_intensity",
              "jump_marks given but intensity is zero")
    if model_cfg.get("jump_scale", 0.0) != 0.0 and marks is None:
        _fail(path, lines, "model", "jump_scale",
              "nonzero jump_scale needs jump_intensity and jump_marks")

    cfg = {"model": model_cfg}
    for section, defaults in _SECTIONS.items():
        cfg[section] = {key: get(section, key, default) for key, default in defaults.items()}

    if cfg["control"]["kind"] not in ("constant", "foc"):
        _fail(path, lines, "control", "kind", "expected 'constant' or 'foc'")
    if cfg["control"]["kind"] == "foc" and parser.has_option("control", "value"):
        _fail(path, lines, "control", "value",
              "a value cannot be given for kind = foc")
    if cfg["solver"]["basis"] != "quad-xz":
        _fail(path, lines, "solver", "basis", "the only shipped basis is quad-xz")
    if cfg["grid"]["steps_per_delay"] < 1:
        _fail(path, lines, "grid", "steps_per_delay", "must be >= 1")
    if cfg["monte_carlo"]["n_paths"] < 2:
        _fail(path, lines, "monte_carlo", "n_paths", "need at least two paths")
    if cfg["monte_carlo"]["seed"] < 0:
        _fail(path, lines, "monte_carlo", "seed", "must be nonnegative")

    applicable = _APPLICABLE[name]
    if not parser.has_option("checks", "run"):
        requested = sorted(applicable, key=_CHECK_NAMES.index)
    else:
        requested = [c.strip() for c in cfg["checks"]["run"].split(",") if c.strip()]
        for check in requested:
            if check not in _CHECK_NAMES:
                _fail(path, lines, "checks", "run",
                      "unknown check %r (known: %s)" % (check, ", ".join(_CHECK_NAMES)))
            if check not in applicable:
                _fail(path, lines, "checks", "run",
                      "check %r has no reference for scenario %r" % (check, name))
    cfg["checks"]["run"] = requested
    if cfg["control"]["kind"] == "foc" and name == "custom-affine":
        _fail(path, lines, "control", "kind",
              "kind = foc needs a scenario with a reference adjoint")
    if "regression" in requested and model_cfg.get("kernel") == "ramp":
        _fail(path, lines, "checks", "run",
              "the regression route needs the plain (unweighted) memory window")
    if "max-principle" in requested:
        try:
            steps = round(cfg["grid"]["steps_per_delay"] * model_cfg["horizon"]
                          / model_cfg["delta"])
        except OverflowError:
            raise GridTooLarge(_UNCOUNTABLE) from None
        if steps < _SPIKE_TAIL:
            _fail(path, lines, "grid", "steps_per_delay",
                  "the max-principle check needs at least %d steps on [0, horizon], "
                  "this grid has %d" % (_SPIKE_TAIL, steps))
    min_paths = 10 * adjoint_mod.QuadXZBasis.size
    if "regression" in requested and cfg["monte_carlo"]["n_paths"] < min_paths:
        _fail(path, lines, "monte_carlo", "n_paths",
              "the regression check needs at least %d paths" % min_paths)
    if not model_cfg["control_lower"] <= model_cfg["control_upper"]:
        key = "control_upper" if parser.has_option("model", "control_upper") else "control_lower"
        _fail(path, lines, "model", key, "control_lower must not exceed control_upper")
    if marks is not None and model_cfg["jump_intensity"] < 0:
        _fail(path, lines, "model", "jump_intensity", "must be >= 0")
    if not cfg["output"]["directory"]:
        _fail(path, lines, "output", "directory", "must not be empty")
    existing = os.path.abspath(cfg["output"]["directory"])
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        _fail(path, lines, "output", "directory", "%s is not a directory" % existing)
    cfg["_marks"] = marks
    return cfg


def _parse_marks(text, path, lines):
    text = text.strip()
    if not text:
        return None
    values, probs = [], []
    for part in text.split(","):
        try:
            v, p = part.split(":")
            values.append(float(v))
            probs.append(float(p))
        except ValueError:
            _fail(path, lines, "model", "jump_marks",
                  "expected value:prob pairs separated by commas, got %r" % part)
    if not np.all(np.isfinite(values)):
        _fail(path, lines, "model", "jump_marks", "mark values must be finite, got %r" % text)
    if not (np.all(np.isfinite(probs)) and min(probs) >= 0):
        _fail(path, lines, "model", "jump_marks",
              "probabilities must be finite and non-negative, got %r" % text)
    if abs(sum(probs) - 1.0) > 1e-12:
        _fail(path, lines, "model", "jump_marks", "probabilities must sum to 1")
    return values, probs


def build_scenario(cfg):
    """Instantiate (model, jump_spec) from a resolved config."""
    mc = cfg["model"]
    factory = scenarios.CATALOG[mc["name"]]["factory"]
    kwargs = {}
    for param in inspect.signature(factory).parameters:
        if param in _MODEL_PARAMS:
            kwargs[param] = _MODEL_PARAMS[param][1](mc, cfg["_marks"])
        else:
            kwargs[param] = mc[param]
    model = factory(**kwargs)
    jump_spec = model.jump_spec if model.has_jumps else JumpSpec.none()
    return model, jump_spec


def sample_noise(grid, jump_spec, seed, n_paths):
    """The run's noise ensemble: paths keyed (seed, 0), ..., (seed, n_paths - 1)."""
    return sample_ensemble(grid, jump_spec, seed, n_paths)


def check_closed_form(model, cfg, grid, noise, closed):
    """Closed-form route: terminal condition and defect order on a coupled pair.

    The order is criterion 2's verification.residual_order.
    """
    tol = cfg["checks"]["terminal_tol"]
    weight = model.terminal.grad(np.ones(closed.p.shape[0]), noise)
    weight = np.broadcast_to(np.asarray(weight, dtype=float), (closed.p.shape[0],))
    terminal_residual = float(np.max(np.abs(closed.p[:, -1] - weight)))

    fine_grid = make_grid(grid.delta, grid.horizon, 2 * grid.steps_per_delay)
    fine = sample_noise(fine_grid, JumpSpec.none(), cfg["monte_carlo"]["seed"] + 1,
                        min(500, cfg["monte_carlo"]["n_paths"]))
    sups, order = verification.residual_order(model, fine, _reference_control_value(cfg))
    band = (cfg["checks"]["order_band_low"], cfg["checks"]["order_band_high"])
    # a stochastic adjoint pays an O(h) window-quadrature defect per step; a
    # deterministic one (psi = 0) leaves only the O(h^2) local truncation
    shift = 0.0 if np.any(horizon_values(grid, model.meta["psi"])) else 1.0
    passed = terminal_residual <= tol and band[0] <= order - shift <= band[1]
    return {
        "passed": bool(passed),
        "terminal_residual": terminal_residual,
        "terminal_tol": tol,
        "residual_sup": sups,
        "residual_order": order,
        "deterministic_adjoint_shift": shift,
        "order_band": list(band),
        "mean_reversion_path": [float(v) for v in closed.diagnostics["A"]],
        "window_growth_path": [float(v) for v in closed.diagnostics["alpha"]],
        "log_drift_path": [float(v) for v in closed.diagnostics["c"]],
        "normalization": float(closed.diagnostics["C"]),
    }


def _reference_control_value(cfg):
    if cfg["control"]["kind"] == "constant":
        return cfg["control"]["value"]
    return 1.0


def check_bridge(model, cfg, grid, closed):
    """1D <-> 2D consistency: window reconstruction and driver assembly.

    The deviations are criterion 3's verification.bridge_deviations.
    """
    tol = cfg["checks"]["bridge_tol"]
    q2_dev, mu_dev = verification.bridge_deviations(model, grid, closed)
    statistic = max(q2_dev, mu_dev)
    return {
        "passed": bool(statistic <= tol),
        "q2_reconstruction_dev": q2_dev,
        "mu_assembly_dev": mu_dev,
        "tolerance": tol,
    }


def check_regression(model, cfg, grid, state, closed):
    """Regression ABSDE against the closed-form route (when one exists).

    Graded by criterion 4's relative and zero-component RMS.
    """
    sol = adjoint_mod.solve_absde_2d(model, state, ridge=cfg["solver"]["ridge"])
    cond = float(sol.diagnostics["max_condition"])
    result = {
        "basis": sol.diagnostics["basis"],
        "ridge": cfg["solver"]["ridge"],
        "max_condition": cond,
        "condition_limit": cfg["checks"]["condition_limit"],
    }
    passed = cond <= cfg["checks"]["condition_limit"]
    if closed is not None:
        rel = verification.rel_rms(sol.p1, closed.p)
        result["p_rel_rms"] = rel
        result["p_rel_tol"] = cfg["checks"]["regression_rel_tol"]
        passed = passed and rel <= cfg["checks"]["regression_rel_tol"]
        if not np.any(horizon_values(grid, model.meta["psi"])):
            zero_tol = cfg["checks"]["zero_abs_tol"]
            zeros = {"q2": verification.rms(sol.q2)}
            if sol.r1 is not None:
                zeros["r1_level"] = verification.rms(sol.r1[0])
                zeros["r1_slope"] = verification.rms(sol.r1[1])
            result["zero_component_rms"] = zeros
            result["zero_abs_tol"] = zero_tol
            passed = passed and max(zeros.values()) <= zero_tol
    result["passed"] = bool(passed)
    return result, sol


def check_max_principle(model, cfg, grid, noise, closed):
    """FOC control, necessary condition, sufficiency, spike battery.

    The battery is criterion 7's verification.spike_battery, with spikes four
    steps wide.
    """
    seed = cfg["monte_carlo"]["seed"]
    ustar = mp.solve_foc(model, closed.p, grid)
    state = simulate_state(model, ustar, noise)
    triple = adjoint_mod.AdjointTriple(grid, closed.p, closed.q, None, closed.mu, {})
    nec = mp.check_necessary_I(ustar, triple, model, state)
    suff = mp.check_sufficient(ustar, triple, model, state, seed=seed)
    lo, hi = model.control_set.lower, model.control_set.upper
    worst, spikes = verification.spike_battery(
        model, ustar, noise, state, seed, grid.horizon_nodes[:-_SPIKE_TAIL], 4 * grid.step,
        (max(lo, 0.1), min(hi, 3.0)), cfg["checks"]["spike_count"],
        cfg["checks"]["se_multiplier"],
    )
    passed = bool(nec.passed and suff.passed and worst <= 0.0)
    return {
        "passed": passed,
        "necessary_statistic": float(nec.statistic),
        "necessary_passed": bool(nec.passed),
        "sufficient_passed": bool(suff.passed),
        "concavity_gap": float(suff.details["concavity_gap"]),
        "worst_spike_margin": float(worst),
        "spikes": spikes,
        "control_head": [float(v) for v in np.atleast_2d(ustar.values)[0, :5]],
        "clamped_nodes": int(np.count_nonzero(ustar.clamped)),
    }


def run_scenario(cfg):
    """Execute the configured pipeline; returns (report_dict, passed)."""
    model, jump_spec = build_scenario(cfg)
    grid = make_grid(cfg["model"]["delta"], cfg["model"]["horizon"],
                     cfg["grid"]["steps_per_delay"])
    noise = sample_noise(grid, jump_spec, cfg["monte_carlo"]["seed"],
                         cfg["monte_carlo"]["n_paths"])

    closed = None
    if cfg["model"]["name"] != "custom-affine":
        closed = verification.closed_form(model, noise)

    if cfg["control"]["kind"] == "foc":
        control = mp.solve_foc(model, closed.p, grid)
    else:
        control = ControlPath.constant(grid, cfg["control"]["value"],
                                       control_set=model.control_set)
    state = simulate_state(model, control, noise)
    j_value, j_se, _ = evaluate_performance(model, control, noise, state=state)

    checks = {}
    regression_sol = None
    for check in cfg["checks"]["run"]:
        if check == "closed-form":
            checks[check] = check_closed_form(model, cfg, grid, noise, closed)
        elif check == "bridge":
            checks[check] = check_bridge(model, cfg, grid, closed)
        elif check == "regression":
            reg_state = reduce_2d(model, control, noise)
            checks[check], regression_sol = check_regression(
                model, cfg, grid, reg_state, closed
            )
        elif check == "max-principle":
            checks[check] = check_max_principle(model, cfg, grid, noise, closed)
    passed = all(c["passed"] for c in checks.values())

    echo = {k: v for k, v in cfg.items() if not k.startswith("_")}
    report = {
        "schema_version": 1,
        "suite": "scenario",
        "scenario": cfg["model"]["name"],
        "seed": cfg["monte_carlo"]["seed"],
        "config": echo,
        "grid": {
            "delay": grid.delta,
            "horizon": grid.horizon,
            "steps_per_delay": grid.steps_per_delay,
            "step": grid.step,
            "horizon_steps": grid.n_horizon_steps,
        },
        "performance": {"estimate": j_value, "standard_error": j_se},
        "checks": verification._jsonable(checks),
        "passed": bool(passed),
    }
    artifacts = {
        "state": state,
        "closed": closed,
        "regression": regression_sol,
        "grid": grid,
    }
    return report, passed, artifacts


def write_outputs(cfg, report, artifacts):
    out_dir = cfg["output"]["directory"]
    text = verification.render_report(report)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(text)
    written = [os.path.join(out_dir, "report.json")]
    grid = artifacts["grid"]
    state = artifacts["state"]
    if cfg["output"]["write_paths"]:
        path = os.path.join(out_dir, "paths.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "y", "z", "z_general", "x2"])
            iz = grid.index_zero
            for k, t in enumerate(grid.horizon_nodes):
                row = [
                    "%.17g" % t,
                    "%.17g" % state.x[0, iz + k],
                    "%.17g" % state.y[0, k],
                    "%.17g" % state.z[0, k],
                ]
                zg = state.z_general
                row.append("" if zg is None else "%.17g" % zg[0, k])
                row.append("" if state.x2 is None else "%.17g" % state.x2[0, iz + k])
                writer.writerow(row)
        written.append(path)
    if cfg["output"]["write_adjoint"]:
        closed = artifacts["closed"]
        reg = artifacts["regression"]
        source = None
        if closed is not None:
            source = ("closed-form", closed.p, closed.q, closed.mu)
        elif reg is not None:
            source = ("regression", reg.p1, reg.q1, reg.mu1)
        if source is not None:
            route, p, q, mu = source
            path = os.path.join(out_dir, "adjoint.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "p_mean", "q_mean", "mu_mean", "route"])
                for k, t in enumerate(grid.horizon_nodes):
                    writer.writerow([
                        "%.17g" % t,
                        "%.17g" % p[:, k].mean(),
                        "%.17g" % q[:, k].mean(),
                        "%.17g" % mu[:, k].mean(),
                        route if k == 0 else "",
                    ])
            written.append(path)
    return written


def _cmd_run(args):
    cfg = load_config(args.config)
    # an overflowing state or regression design ends in a typed error; numpy's
    # warnings on the way there would only quote package source lines
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        report, passed, artifacts = run_scenario(cfg)
        written = write_outputs(cfg, report, artifacts)
    for check, result in report["checks"].items():
        print("check %-14s %s" % (check, "PASS" if result["passed"] else "FAIL"))
    print("performance %.6g (se %.2g)" % (
        report["performance"]["estimate"], report["performance"]["standard_error"]
    ))
    for path in written:
        print("wrote %s" % path)
    return 0 if passed else 1


def _cmd_list(args):
    entries = []
    for name in sorted(scenarios.CATALOG):
        entries.append({
            "name": name,
            "summary": scenarios.CATALOG[name]["summary"],
            "template": "configs/%s.ini" % name,
            "checks": sorted(_APPLICABLE[name], key=_CHECK_NAMES.index),
        })
    if args.json:
        print(json.dumps({"scenarios": entries}, indent=2, sort_keys=True))
        return 0
    for e in entries:
        print("%-22s %s" % (e["name"], e["summary"]))
        print("%-22s checks: %s; template: %s"
              % ("", ", ".join(e["checks"]), e["template"]))
    return 0


def _cmd_verify(args):
    profile = "quick" if args.quick else "full"
    results, report = verification.verify_all(
        seed=args.seed, out_dir=args.out, profile=profile, echo=print
    )
    passed = report["passed"]
    print("acceptance suite: %s (%d criteria, seed %d, %s profile)" % (
        "PASS" if passed else "FAIL", len(results), args.seed, profile
    ))
    if args.out:
        print("wrote %s" % os.path.join(args.out, "report.json"))
    return 0 if passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="noisy-control",
        description="Delayed stochastic control with noisy memory: "
                    "simulation, adjoint solvers, and checkers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a configured scenario")
    p_run.add_argument("config", help="path to a scenario config (INI)")
    p_run.set_defaults(fn=_cmd_run)
    p_list = sub.add_parser("list", help="list the scenario catalog")
    p_list.add_argument("--json", action="store_true",
                        help="machine-readable output")
    p_list.set_defaults(fn=_cmd_list)
    p_verify = sub.add_parser("verify", help="run the acceptance checks")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None, help="directory for report.json")
    p_verify.add_argument("--quick", action="store_true",
                          help="reduced path counts for a fast smoke pass")
    p_verify.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except NoisyControlError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
