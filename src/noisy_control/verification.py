"""Acceptance suite: nine numbered, seeded, self-contained checks.

Each criterion function returns a CriterionResult with the decisive statistic
and its tolerance; verify_all runs them all and assembles a canonical
(byte-stable) report.  The same functions back `noisy-control verify` and the
acceptance tests.  The statistics that `noisy-control run` grades (residual
order, bridge deviations, relative RMS, spike battery) are computed by the
shared functions below, which criteria 2, 3, 4 and 7 call with their own
frozen constants, so neither the CLI nor the test suite can drift apart from
the criteria.

The default seed is the tested configuration; other seeds shift every sampler
consistently and keep determinism, but the frozen empirical margins are
validated at seed 0 only.
"""

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import adjoint as adjoint_mod
from . import malliavin as malliavin_mod
from . import maxprinciple as mp
from . import scenarios
from .dynamics import (
    ControlPath, MemoryKernel, _mean_se, _performance_paths, evaluate_performance, reduce_2d,
    simulate_state,
)
from .errors import NonFiniteState, ZeroResidual
from .malliavin import horizon_values
from .paths import JumpSpec, coarsen, make_grid, sample_ensemble


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    statistic: float
    tolerance: float
    seconds: float
    details: dict = field(default_factory=dict)

    def one_line(self):
        verdict = "PASS" if self.passed else "FAIL"
        return "criterion %d %-22s %s  (statistic %.3e, tolerance %.3e) [%.1fs]" % (
            self.index, self.name, verdict, self.statistic, self.tolerance, self.seconds
        )


def _ens(grid, n, seed, jump_spec=None):
    return sample_ensemble(grid, jump_spec or JumpSpec.none(), seed, n)


def _timed(fn):
    def wrapper(seed=0, profile="full"):
        t0 = time.perf_counter()
        result = fn(seed=seed, profile=profile)
        result.seconds = time.perf_counter() - t0
        return result

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


# ---------------------------------------------------------------------------
# Shared computations.  The checks of `noisy-control run` and the criteria
# below call these with their own grids, sizes, seeds and tolerances.


def closed_form(model, noise):
    """Closed-form adjoint of a linear-family model on the given noise."""
    spec = adjoint_mod.LinearBSDESpec.from_model(model)
    return adjoint_mod.solve_linear_closed_form(spec, noise)


def window_engine(model, grid, closed):
    """dH/dz = a0 p window engine on the closed form's F, or the deterministic
    one when the scenario's volatility loading vanishes."""
    spec = model.linear_spec
    a0 = float(spec.a0)
    if spec.psi_vanishes(grid):
        return adjoint_mod.Chaos1WindowEngine.deterministic(grid, a0 * closed.p[0])
    return adjoint_mod.Chaos1WindowEngine(
        closed.chaos, np.full(grid.n_horizon_steps + 1, a0), closed.p)


def closed_form_2d(model, closed):
    """The closed form as the 2D system the bridge audits: (p1, q1, mu1) =
    (p, q, mu) and q2 = (A - a1) p; it gives no p2, r or mu2."""
    a1 = float(model.linear_spec.a1)
    q2 = (closed.diagnostics["A"] - a1)[None, :] * closed.p
    return adjoint_mod.Adjoint2D(closed.grid, closed.p, None, closed.q, q2, None, None,
                                 closed.mu, None)


def dhx(model, grid, closed):
    """dH/dx on the closed-form adjoint: a1 p + sigma0 q."""
    spec = model.linear_spec
    sigma0 = horizon_values(grid, spec.sigma0)
    return float(spec.a1) * closed.p + sigma0[None, :] * closed.q


def residual_order(model, fine_noise, control_value):
    """Order of the closed-form BSDE residual between coarsen(fine, 2) and fine.

    Each level simulates the constant control `control_value` and takes the
    sup of bsde_residual_1d.  Returns ({steps_per_delay: sup}, log2 of the
    coarse sup over the fine one).

    Raises:
        ZeroResidual: if either sup is exactly 0.0 (e.g. a1 = 0 with a
            deterministic adjoint, where the scheme is exact).
    """
    sups = {}
    for noise in (coarsen(fine_noise, 2), fine_noise):
        grid = noise.grid
        closed = closed_form(model, noise)
        ctrl = ControlPath.constant(grid, control_value, control_set=model.control_set)
        state = simulate_state(model, ctrl, noise)
        engine = window_engine(model, grid, closed)
        sup, _ = adjoint_mod.bsde_residual_1d(closed, state, model, engine)
        sups[grid.steps_per_delay] = float(sup)
    zero = [k for k, sup in sups.items() if sup == 0.0]
    if zero:
        raise ZeroResidual(
            "the closed-form BSDE residual sup is exactly 0.0 at steps_per_delay %s, "
            "so its order is undefined" % " and ".join(map(str, zero))
        )
    m = fine_noise.grid.steps_per_delay
    return sups, float(np.log2(sups[m // 2] / sups[m]))


def bridge_deviations(model, grid, closed):
    """1D <-> 2D bridge: (q2 window reconstruction dev, mu assembly dev).

    The first is bridge_1d_from_2d's audit of the closed form's 2D adjoint.
    """
    engine = window_engine(model, grid, closed)
    # [1] alone: the collapsed triple, holding the reconstruction, dies here
    q2_dev = adjoint_mod.bridge_1d_from_2d(closed_form_2d(model, closed), engine)[1]
    mu_bridge = adjoint_mod.mu_generalized(dhx(model, grid, closed), None, engine)
    mu_dev = float(np.max(np.abs(mu_bridge - closed.mu)))
    return q2_dev, mu_dev


def rms(x):
    """Root mean square over every element."""
    return float(np.sqrt(np.mean(x**2)))


def rel_rms(approx, exact):
    """RMS of approx - exact relative to the RMS of exact, each over its own elements."""
    return rms(approx - exact) / rms(exact)


# spikes per stacked sweep of spike_battery: its buffers are this many
# controls' worth, whatever the spike count
_SPIKE_BLOCK = 16


def spike_battery(model, state, seed, t0_nodes, width, values, count, se_mult):
    """Spike perturbations of the control of `state`, scored against it on its noise.

    Draws from Philox(seed + 7): per spike a start among `t0_nodes`, then a
    value uniform on `values` = (low, high); every draw comes before any
    sweep.  The spikes of `width` are then swept _SPIKE_BLOCK at a time, each
    block one stacked sweep beside the base control (dynamics._performance_paths),
    so each spike's state is swept only from the node where it starts.  Each
    spike is scored by the paired per-path gain in J over the base control,
    whose J is read from `state`.  Returns (worst gain - se_mult * se, one
    dict per spike).
    """
    base, noise = state.control, state.noise
    _, _, per0 = evaluate_performance(model, base, noise, state=state)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed + 7)))
    draws = [(float(gen.choice(t0_nodes)), float(gen.uniform(*values))) for _ in range(count)]
    worst = -np.inf
    spikes = []
    for first in range(0, count, _SPIKE_BLOCK):
        block = draws[first : first + _SPIKE_BLOCK]
        controls = [base] + [mp.spike_perturbation(base, t0, width, v) for t0, v in block]
        # the block's rows die here, before the next block is swept
        scores = [_mean_se(per1 - per0)
                  for per1 in _performance_paths(model, controls, noise)[1:]]
        for (t0, v), (gain, se) in zip(block, scores):
            worst = max(worst, gain - se_mult * se)
            spikes.append({"t0": t0, "value": v, "gain": gain, "se": se})
    return worst, spikes


@_timed
def criterion_1_reduction(seed=0, profile="full"):
    """Window process == difference of running integrals; 1D/2D states bitwise."""
    model = scenarios.linear_noisy_memory()
    grid = make_grid(0.2, 1.0, 8)
    n_seeds = 100 if profile == "full" else 10
    worst = 0.0
    bitwise = True
    for s in range(n_seeds):
        noise = _ens(grid, 20, seed + s)
        ctrl = ControlPath.constant(grid, 1.0, control_set=model.control_set)
        st1 = simulate_state(model, ctrl, noise)
        st2 = reduce_2d(model, ctrl, noise)
        m = grid.steps_per_delay
        lagged = st2.x2[:, : grid.n_horizon_steps + 1]
        dev = np.max(np.abs(st2.z - (st2.x2[:, m:] - lagged)))
        worst = max(worst, float(dev))
        bitwise = bitwise and np.array_equal(st1.x, st2.x)
    return CriterionResult(
        1, "reduction-identity", worst == 0.0 and bitwise, worst, 0.0, 0.0,
        {"seeds": n_seeds, "states_bitwise": bitwise},
    )


@_timed
def criterion_2_residual_order(seed=0, profile="full"):
    """Closed-form BSDE residual order in [0.7, 1.3]; exact limits to 1e-12."""
    model = scenarios.linear_noisy_memory()
    n_paths = 1000  # cheap closed-form solves; quick profile keeps full accuracy
    noise16 = _ens(make_grid(0.2, 1.0, 16), n_paths, seed + 20)
    sups, order = residual_order(model, noise16, 1.0)

    limit_noise = _ens(make_grid(0.2, 1.0, 8), 50, seed + 21)
    grid8 = limit_noise.grid
    p_flat = np.exp(0.3 * (grid8.horizon - grid8.horizon_nodes))
    limit_dev = 0.0
    for m_limit in (
        scenarios.linear_noisy_memory(psi=0.0),
        scenarios.linear_noisy_memory(a0=0.0),
    ):
        tr = closed_form(m_limit, limit_noise)
        if m_limit.linear_spec.psi_vanishes(grid8):
            limit_dev = max(limit_dev, float(np.max(np.abs(tr.p - p_flat[None, :]))))
        else:
            # a0 = 0 keeps the lognormal factor; check A(t) collapses to a1
            limit_dev = max(limit_dev, float(np.max(np.abs(tr.diagnostics["A"] - 0.3))))
    passed = 0.7 <= order <= 1.3 and limit_dev <= 1e-12
    return CriterionResult(
        2, "residual-order", passed, order, 1.3, 0.0,
        {"sup_m8": sups[8], "sup_m16": sups[16], "order_band": (0.7, 1.3),
         "limit_deviation": limit_dev},
    )


@_timed
def criterion_3_bridge(seed=0, profile="full"):
    """q2 window reconstruction and mu bridge match closed forms to 1e-10."""
    model = scenarios.linear_noisy_memory()
    grid = make_grid(0.2, 1.0, 8)
    n = grid.n_horizon_steps
    n_paths = 2000 if profile == "full" else 400
    noise = _ens(grid, n_paths, seed + 30)
    q2_dev, mu_dev = bridge_deviations(model, grid, closed_form(model, noise))

    # psi = 0 limit: the window correction vanishes identically on both routes
    # (an engine on the closed form's zero-loading F and per-path F = p, where
    # window_engine would pick the deterministic one-row F = 1)
    m_flat = scenarios.linear_noisy_memory(psi=0.0)
    tr_flat = closed_form(m_flat, noise)
    eng_flat = adjoint_mod.Chaos1WindowEngine(tr_flat.chaos, 0.5 * np.ones(n + 1), tr_flat.p)
    q2_flat = float(np.max(np.abs(closed_form_2d(m_flat, tr_flat).q2)))
    recon_flat = float(np.max(np.abs(eng_flat.malliavin_windows())))
    statistic = max(q2_dev, mu_dev)
    passed = statistic <= 1e-10 and q2_flat == 0.0 and recon_flat == 0.0
    return CriterionResult(
        3, "bridge-consistency", passed, statistic, 1e-10, 0.0,
        {"q2_deviation": q2_dev, "mu_deviation": mu_dev,
         "q2_zero_case": max(q2_flat, recon_flat)},
    )


@_timed
def criterion_4_regression(seed=0, profile="full"):
    """Regression ABSDE recovers the closed-form adjoints on both fixtures."""
    n_paths = 10000 if profile == "full" else 2000
    grid = make_grid(0.2, 1.0, 8)

    model = scenarios.linear_noisy_memory()
    noise = _ens(grid, n_paths, seed + 40)
    ctrl = ControlPath.constant(grid, 1.0, control_set=model.control_set)
    state = reduce_2d(model, ctrl, noise)
    sol = adjoint_mod.solve_absde_2d(model, state)
    rel_linear = rel_rms(sol.p1, closed_form(model, noise).p)

    jump_spec = JumpSpec.discrete(1.0, [-0.5, 1.0], [0.5, 0.5])
    m_jump = scenarios.consumption(jump_scale=0.1, jump_spec=jump_spec)
    noise_jump = _ens(grid, n_paths, seed + 41, jump_spec)
    state_jump = reduce_2d(
        m_jump, ControlPath.constant(grid, 1.0, control_set=m_jump.control_set), noise_jump
    )
    sol_jump = adjoint_mod.solve_absde_2d(m_jump, state_jump)
    p1_oracle = np.exp(0.3 * (grid.horizon - grid.horizon_nodes))
    rel_jump = rel_rms(sol_jump.p1, p1_oracle)
    zero_rms = {
        "q1": rms(sol_jump.q1),
        "q2": rms(sol_jump.q2),
        "r1_level": rms(sol_jump.r1[0]),
        "r1_slope": rms(sol_jump.r1[1]),
    }
    worst_zero = max(zero_rms.values())
    passed = rel_linear <= 0.05 and rel_jump <= 0.01 and worst_zero <= 0.02
    return CriterionResult(
        4, "regression-absde", passed, max(rel_linear, rel_jump, worst_zero), 0.05, 0.0,
        {"linear_p_rel_rms": rel_linear, "jump_p1_rel_rms": rel_jump,
         "jump_zero_rms": zero_rms,
         "max_condition": float(sol.diagnostics["max_condition"])},
    )


@_timed
def criterion_5_directional(seed=0, profile="full"):
    """K-route, Hamiltonian-route, and CRN finite differences agree pairwise."""
    if profile == "full":
        n_paths, chunk, m = 100000, 25000, 64
    else:
        n_paths, chunk, m = 20000, 20000, 64
    grid = make_grid(0.2, 1.0, m)
    directions = mp.probe_directions(grid)[:3]
    worst_ratio = 0.0
    per_fixture = {}
    for name, model in (
        ("linear-noisy-memory", scenarios.linear_noisy_memory()),
        ("consumption", scenarios.consumption()),
    ):
        ctrl = ControlPath.constant(grid, 3.0, control_set=model.control_set)
        per = {nm: {"K": [], "H": [], "F": []} for nm, _ in directions}
        j_parts = []
        for c in range(n_paths // chunk):
            noise = _ens(grid, chunk, seed + 500 + c)
            state = simulate_state(model, ctrl, noise)
            closed = closed_form(model, noise)
            j_parts.append(evaluate_performance(model, ctrl, noise, state=state)[2])
            for nm, eta in directions:
                per[nm]["K"].append(mp.directional_derivative_K(model, state, eta)[2])
                h_per = mp.directional_derivative_H(model, state, closed, eta)[2]
                if h_per.shape[0] == 1:
                    h_per = np.repeat(h_per, chunk)
                per[nm]["H"].append(h_per)
                per[nm]["F"].append(
                    mp.finite_difference_derivative(model, ctrl, noise, eta, s=1e-3)[2]
                )
            # free this chunk's ensemble, with its time-major companion, and
            # its state before the next chunk is drawn
            del noise, state, closed
        j_value = float(np.concatenate(j_parts).mean())
        gaps = {}
        for nm, _ in directions:
            stats = {}
            for route, parts in per[nm].items():
                stats[route] = _mean_se(np.concatenate(parts))
            for a, b in (("K", "H"), ("K", "F"), ("H", "F")):
                gap = abs(stats[a][0] - stats[b][0])
                tol = max(
                    4.0 * float(np.hypot(stats[a][1], stats[b][1])),
                    1e-3 * abs(j_value),
                )
                gaps["%s/%s-%s" % (nm, a, b)] = (gap, tol)
                worst_ratio = max(worst_ratio, gap / tol)
        per_fixture[name] = {"J": j_value, "gaps": gaps}
    return CriterionResult(
        5, "directional-derivatives", worst_ratio <= 1.0, worst_ratio, 1.0, 0.0,
        per_fixture,
    )


@_timed
def criterion_6_duality(seed=0, profile="full"):
    """Duality z-scores <= 4 on the battery; Clark-Ocone error halves."""
    grid = make_grid(0.2, 1.0, 8)
    n_paths = 100000 if profile == "full" else 10000
    worst_z = 0.0
    z_scores = {}
    for name, spec, phi in scenarios.duality_battery(grid, include_brownian=False):
        res = malliavin_mod.duality_check(spec, phi, n_paths=n_paths, seed=seed + 600)
        z_scores[name] = float(res.z_score)
        worst_z = max(worst_z, abs(res.z_score))

    co_paths = 10000 if profile == "full" else 2000
    co_rms = {}
    for m in (8, 16):
        g = make_grid(0.2, 1.0, m)
        f = malliavin_mod.Chaos1Exponential(g, 0.1, -0.5 * 0.1**2)
        res = malliavin_mod.clark_ocone_residual(f, _ens(g, co_paths, seed + 610))
        co_rms[m] = rms(res)
    ratio = co_rms[16] / co_rms[8]
    passed = worst_z <= 4.0 and 0.35 <= ratio <= 0.65
    return CriterionResult(
        6, "duality-clark-ocone", passed, worst_z, 4.0, 0.0,
        {"z_scores": z_scores, "clark_ocone_ratio": float(ratio),
         "ratio_band": (0.35, 0.65)},
    )


@_timed
def criterion_7_max_principle(seed=0, profile="full"):
    """FOC inversion, necessary/sufficient certification, spike battery."""
    model = scenarios.generalized_memory()
    grid = make_grid(0.2, 1.0, 8)
    tt = grid.horizon_nodes
    p_exact = np.exp(0.3 * (grid.horizon - tt))
    u_exact = np.exp(-0.3 * (grid.horizon - tt))
    n_paths = 4000 if profile == "full" else 1000
    noise = _ens(grid, n_paths, seed + 60)

    foc = mp.solve_foc(model, p_exact[None, :], grid)
    foc_dev = float(np.max(np.abs(foc.values - u_exact)))

    ustar = ControlPath(grid, u_exact, control_set=model.control_set)
    state = simulate_state(model, ustar, noise)
    atr = adjoint_mod.AdjointTriple(
        grid, p_exact[None, :], np.zeros((1, grid.n_horizon_steps + 1)), None, None, {}
    )
    nec = mp.check_necessary_I(model, state, atr)
    suff = mp.check_sufficient(model, state, atr, seed=seed)

    n_spikes = 20 if profile == "full" else 6
    worst_gain, _ = spike_battery(model, state, seed, tt[:-8], 0.1, (0.1, 3.0), n_spikes, 2.0)

    scaled = ControlPath(grid, 1.5 * u_exact, control_set=model.control_set)
    st_scaled = simulate_state(model, scaled, noise)
    nec_scaled = mp.check_necessary_I(model, st_scaled, atr)

    passed = (
        foc_dev <= 1e-10
        and nec.passed
        and suff.passed
        and worst_gain <= 0.0
        and (not nec_scaled.passed)
        and nec_scaled.statistic > 5.0
    )
    return CriterionResult(
        7, "max-principle", passed, foc_dev, 1e-10, 0.0,
        {"necessary_I": nec.statistic, "sufficient_gap": suff.details["concavity_gap"],
         "worst_spike_gain_minus_2se": worst_gain, "n_spikes": n_spikes,
         "scaled_control_statistic": float(min(nec_scaled.statistic, 1e30))},
    )


@_timed
def criterion_8_generalized_kernel(seed=0, profile="full"):
    """Ramp-kernel pipeline runs; phi == 1 reduces bitwise; residual order."""
    model = scenarios.generalized_memory()
    grid = make_grid(0.2, 1.0, 8)
    tt = grid.horizon_nodes
    u_exact = np.exp(-0.3 * (grid.horizon - tt))

    # bitwise reduction of the generalized mu on a stochastic-engine fixture
    m_ref = scenarios.linear_noisy_memory()
    noise_ref = _ens(grid, 200 if profile == "full" else 50, seed + 71)
    closed = closed_form(m_ref, noise_ref)
    engine = window_engine(m_ref, grid, closed)
    dh_dx = dhx(m_ref, grid, closed)
    flat = MemoryKernel(
        lambda t, s: np.ones_like(np.asarray(t, dtype=float) * np.asarray(s, dtype=float)),
        bound=1.0,
    )
    mu_plain = adjoint_mod.mu_generalized(dh_dx, None, engine, kernel=None)
    mu_flagged = adjoint_mod.mu_generalized(dh_dx, None, engine, kernel=MemoryKernel.identity())
    mu_flat = adjoint_mod.mu_generalized(dh_dx, None, engine, kernel=flat)
    bitwise = np.array_equal(mu_plain, mu_flagged) and np.array_equal(mu_plain, mu_flat)

    def residuals(m_steps, n_paths):
        g = make_grid(0.2, 1.0, m_steps)
        nz = _ens(g, n_paths, seed + 70)
        t_loc = g.horizon_nodes
        pe = np.exp(0.3 * (g.horizon - t_loc))
        u = ControlPath(g, np.exp(-0.3 * (g.horizon - t_loc)), control_set=model.control_set)
        st = simulate_state(model, u, nz)
        triple = adjoint_mod.AdjointTriple(
            g, pe[None, :], np.zeros((1, g.n_horizon_steps + 1)), None, None, {}
        )
        eng = adjoint_mod.Chaos1WindowEngine.deterministic(g, pe)
        return adjoint_mod.bsde_residual_1d(triple, st, model, eng)

    n_paths = 500 if profile == "full" else 100
    sup8, rms8 = residuals(8, n_paths)
    sup16, rms16 = residuals(16, n_paths)
    # accumulated (time-summed) defect: n * per-step rms, so its order is the
    # per-step order minus one
    acc_order = float(np.log2((8 * 5 * rms8) / (16 * 5 * rms16)))
    run_ok = np.isfinite(sup8) and sup16 < sup8
    passed = bool(bitwise and run_ok and 0.7 <= acc_order <= 1.3)
    return CriterionResult(
        8, "generalized-kernel", passed, acc_order, 1.3, 0.0,
        {"mu_bitwise": bitwise, "sup_m8": float(sup8), "sup_m16": float(sup16),
         "order_band": (0.7, 1.3), "u_exact_used": float(u_exact[0])},
    )


def _mini_report(seed):
    """Cheap deterministic sub-pipeline serialized to canonical bytes."""
    model = scenarios.linear_noisy_memory()
    grid = make_grid(0.2, 1.0, 8)
    noise = _ens(grid, 100, seed)
    ctrl = ControlPath.constant(grid, 1.0, control_set=model.control_set)
    state = simulate_state(model, ctrl, noise)
    closed = closed_form(model, noise)
    j_value, j_se, _ = evaluate_performance(model, ctrl, noise)
    payload = {
        "terminal_mean": float(state.terminal_x.mean()),
        "p0_mean": float(closed.p[:, 0].mean()),
        "performance": [float(j_value), float(j_se)],
        "alpha_head": [float(v) for v in closed.chaos.alpha[:4]],
    }
    return _canonical_json(payload).encode()


@_timed
def criterion_9_determinism(seed=0, profile="full"):
    """Same seed twice -> identical bytes; corrupted oracle -> loud failure."""
    first = _mini_report(seed + 90)
    second = _mini_report(seed + 90)
    identical = first == second

    # negative control: the deterministic-adjoint oracle with its rate off by 25%
    grid = make_grid(0.2, 1.0, 8)
    n_paths = 4000 if profile == "full" else 1000
    m_ctrl = scenarios.consumption()
    noise = _ens(grid, n_paths, seed + 41)
    state = reduce_2d(
        m_ctrl, ControlPath.constant(grid, 1.0, control_set=m_ctrl.control_set), noise
    )
    sol = adjoint_mod.solve_absde_2d(m_ctrl, state)
    corrupted = np.exp(1.25 * 0.3 * (grid.horizon - grid.horizon_nodes))
    rel = rel_rms(sol.p1, corrupted)
    control_fails = rel > 0.01
    passed = bool(identical and control_fails)
    return CriterionResult(
        9, "determinism-provenance", passed, rel, 0.01, 0.0,
        {"reports_identical": identical, "negative_control_rel_rms": rel,
         "negative_control_failed_as_expected": control_fails},
    )


ALL_CRITERIA = (
    criterion_1_reduction,
    criterion_2_residual_order,
    criterion_3_bridge,
    criterion_4_regression,
    criterion_5_directional,
    criterion_6_duality,
    criterion_7_max_principle,
    criterion_8_generalized_kernel,
    criterion_9_determinism,
)


def verify_all(seed=0, out_dir=None, profile="full", echo=None):
    """Run the full acceptance suite.

    Args:
        seed: base seed shifting every sampler (0 is the frozen configuration).
        out_dir: optional directory receiving report.json and verify.txt.
        profile: "full" for acceptance-scale runs, "quick" for a fast smoke
            pass with reduced path counts (same checks, same seeds).
        echo: optional callable receiving each one-line verdict as it lands.

    Returns (results, report) where report is a JSON-ready dict that contains
    no timing data, so two runs with the same seed serialize identically.
    """
    if profile not in ("full", "quick"):
        raise ValueError("profile must be 'full' or 'quick'")
    results = []
    for fn in ALL_CRITERIA:
        result = fn(seed=seed, profile=profile)
        results.append(result)
        if echo is not None:
            echo(result.one_line())
    report = {
        "schema_version": 1,
        "suite": "acceptance",
        "seed": int(seed),
        "profile": profile,
        "passed": all(r.passed for r in results),
        "criteria": [
            {
                "index": r.index,
                "name": r.name,
                "passed": r.passed,
                "statistic": float(r.statistic),
                "tolerance": float(r.tolerance),
                "details": _jsonable(r.details),
            }
            for r in results
        ],
    }
    if out_dir is not None:
        text = render_report(report)
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(text)
        with open(os.path.join(out_dir, "verify.txt"), "w") as fh:
            for r in results:
                fh.write(r.one_line() + "\n")
    return results, report


def _canonical_json(payload, indent=None):
    """Strict JSON with sorted keys; NaN or infinity raises NonFiniteState."""
    try:
        return json.dumps(payload, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteState("a report value is not finite: %s" % exc) from exc


def render_report(report):
    """Canonical report serialization (sorted keys, fixed layout).

    Raises:
        NonFiniteState: a value is NaN or infinite, which strict JSON cannot
            hold.
    """
    return _canonical_json(report, indent=2) + "\n"


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)
