"""Maximum-principle toolkit: derivatives, condition checks, FOC, spikes."""

import numpy as np
import pytest

from noisy_control import scenarios
from noisy_control.adjoint import AdjointTriple
from noisy_control.dynamics import CallableJumpCoefficient, ControlPath, simulate_state
from noisy_control.errors import NonMonotone, OffGrid, OutOfControlSet
from noisy_control.maxprinciple import (
    check_necessary_I,
    check_necessary_II,
    check_sufficient,
    derivative_process,
    directional_derivative_H,
    directional_derivative_K,
    finite_difference_derivative,
    probe_directions,
    solve_foc,
    spike_perturbation,
)
from noisy_control.paths import JumpSpec, make_grid, sample_ensemble

GRID = make_grid(0.2, 1.0, 8)
NODES = GRID.horizon_nodes
P_EXACT = np.exp(0.3 * (1.0 - NODES))


def _flat_adjoint(p_row):
    zeros = np.zeros((1, GRID.n_horizon_steps + 1))
    return AdjointTriple(GRID, p_row[None, :], zeros, None, None, {})


def _state(model, value=1.0, n_paths=2000, seed=0, kernel=None):
    ens = sample_ensemble(GRID, model.jump_spec or JumpSpec.none(), seed, n_paths)
    ctrl = ControlPath.constant(GRID, value, control_set=model.control_set)
    return simulate_state(model, ctrl, ens, kernel=kernel), ctrl, ens


def test_directional_derivative_K_matches_per_node_reference():
    """One whole-horizon cost gradient, accumulated node by node as before."""
    model = scenarios.linear_noisy_memory()
    state, ctrl, _ = _state(model, value=3.0, n_paths=300, seed=4)
    eta = probe_directions(GRID)[3][1]
    kb = derivative_process(model, state, eta)
    iz, m = GRID.index_zero, GRID.steps_per_delay
    running = np.zeros(300)
    for k in range(GRID.n_horizon_steps):
        fg = model.cost_grad(NODES[k], state.x[:, iz + k], state.y[:, k], state.z[:, k],
                             ctrl.rows()[:, k])
        vec = (kb.k[:, iz + k], kb.k[:, iz + k - m], kb.kz[:, k], eta[k])
        running += sum(fg[w] * vec[w] for w in range(4))
    per_path = model.terminal.grad(state.terminal_x, state.noise) * kb.k[:, -1] + GRID.step * running
    assert directional_derivative_K(model, state, eta)[2].tobytes() == per_path.tobytes()


def test_derivative_process_starts_from_rest():
    model = scenarios.linear_noisy_memory()
    state, _, _ = _state(model, n_paths=50)
    kb = derivative_process(model, state, np.ones(GRID.n_horizon_steps + 1))
    m = GRID.steps_per_delay
    assert np.all(kb.k[:, : m + 1] == 0.0)
    assert np.all(kb.kz[:, 0] == 0.0)
    assert np.any(kb.k[:, -1] != 0.0)


def test_derivative_process_rejects_nonaffine_jumps():
    spec = JumpSpec.discrete(1.0, [-0.5, 1.0], [0.5, 0.5])
    model = scenarios.consumption(jump_scale=0.1, jump_spec=spec)
    model.gamma = CallableJumpCoefficient(
        lambda t, x, y, z, u, zeta: 0.1 * x * zeta
    )
    state, _, _ = _state(model, n_paths=20)
    with pytest.raises(NotImplementedError):
        derivative_process(model, state, np.ones(GRID.n_horizon_steps + 1))


def test_sensitivity_route_matches_finite_differences():
    """With common noise the K route and central differences agree pathwise."""
    model = scenarios.linear_noisy_memory()
    state, ctrl, ens = _state(model, n_paths=400, seed=3)
    for _, eta in probe_directions(GRID)[:3]:
        val_k, _, per_k = directional_derivative_K(model, state, eta)
        val_f, _, per_f = finite_difference_derivative(model, ctrl, ens, eta)
        assert val_k == pytest.approx(val_f, abs=5e-6)
        assert np.max(np.abs(per_k - per_f)) <= 1e-4 * (1.0 + np.max(np.abs(per_f)))


def test_hamiltonian_route_agrees_within_noise():
    model = scenarios.consumption()
    state, ctrl, ens = _state(model, value=3.0, n_paths=4000, seed=4)
    adjoint = _flat_adjoint(P_EXACT)
    eta = probe_directions(GRID)[0][1]
    val_k, se_k, _ = directional_derivative_K(model, state, eta)
    val_h, se_h, _ = directional_derivative_H(model, state, adjoint, eta)
    assert abs(val_k - val_h) <= 4.0 * np.hypot(se_k, se_h) + 1e-3 * abs(val_k)


def test_finite_difference_one_sided_fallback():
    model = scenarios.consumption()
    lo = model.control_set.lower
    state, ctrl, ens = _state(model, value=lo, n_paths=50)
    eta = np.ones(GRID.n_horizon_steps + 1)
    # shifting down leaves the interval, so the estimate must be one-sided
    val, _, _ = finite_difference_derivative(model, ctrl, ens, eta, s=1e-3)
    assert np.isfinite(val)
    with pytest.raises(OutOfControlSet):
        big = ControlPath.constant(GRID, lo, control_set=model.control_set)
        finite_difference_derivative(model, big, ens, eta, s=100.0)


def test_probe_directions_battery():
    probes = probe_directions(GRID, scale=2.0)
    names = [name for name, _ in probes]
    assert names == ["const", "late-half", "mid-quarter", "random"]
    for _, eta in probes:
        assert eta.shape == (GRID.n_horizon_steps + 1,)
        assert np.max(np.abs(eta)) <= 2.0


def test_solve_foc_inverts_log_utility():
    model = scenarios.consumption()
    ustar = solve_foc(model, P_EXACT[None, :], GRID)
    assert ustar.information == "trivial"
    assert np.max(np.abs(ustar.values - 1.0 / P_EXACT)) <= 1e-10
    assert not np.any(ustar.clamped)


def test_solve_foc_full_information_is_pathwise():
    model = scenarios.consumption()
    gen = np.random.Generator(np.random.Philox(key=np.uint64(2)))
    p_paths = P_EXACT[None, :] * np.exp(gen.normal(0.0, 0.1, size=(40, 1)))
    ustar = solve_foc(model, p_paths, GRID, information="full")
    resid = np.abs(1.0 / ustar.values - p_paths)
    assert np.max(resid) <= 1e-10


def test_solve_foc_clamps_to_the_interval():
    model = scenarios.consumption()
    ustar = solve_foc(model, 100.0 * P_EXACT[None, :], GRID)
    assert np.all(ustar.clamped)
    assert np.all(ustar.values == model.control_set.lower)


def test_solve_foc_rejects_flat_marginal_cost():
    model = scenarios.consumption(running="linear", linear_rate=2.0)
    with pytest.raises(NonMonotone):
        solve_foc(model, P_EXACT[None, :], GRID)


def test_spike_perturbation_window_and_validation():
    base = ControlPath.constant(GRID, 1.0, control_set=scenarios.consumption().control_set)
    spiked = spike_perturbation(base, 0.25, 0.25, 2.5)
    vals = np.asarray(spiked.values)
    k0 = GRID.index_of(0.25) - GRID.index_zero
    kw = int(round(0.25 / GRID.step))
    assert np.all(vals[k0 : k0 + kw] == 2.5)
    assert np.all(np.delete(vals, np.s_[k0 : k0 + kw]) == 1.0)
    assert spike_perturbation(base, 0.25, 0, 2.5) is base
    with pytest.raises(OutOfControlSet):
        spike_perturbation(base, 0.25, 0.25, 50.0)
    with pytest.raises(OffGrid):
        spike_perturbation(base, 0.25, 0.013, 2.5)
    with pytest.raises(OffGrid):
        spike_perturbation(base, 0.875, 0.25, 2.5)


def test_spike_perturbation_event_mask():
    base = ControlPath.constant(GRID, 1.0, control_set=scenarios.consumption().control_set)
    mask = np.array([True, False, True, False])
    spiked = spike_perturbation(base, 0.5, 0.125, 3.0, event_mask=mask)
    assert spiked.information == "full"
    rows = spiked.rows()
    k0 = GRID.index_of(0.5) - GRID.index_zero
    assert np.all(rows[mask, k0] == 3.0)
    assert np.all(rows[~mask, k0] == 1.0)


def test_necessary_I_accepts_the_optimizer_and_rejects_others():
    model = scenarios.consumption()
    adjoint = _flat_adjoint(P_EXACT)
    ustar = solve_foc(model, P_EXACT[None, :], GRID)
    ens = sample_ensemble(GRID, JumpSpec.none(), 11, 2000)
    state = simulate_state(model, ustar, ens)
    at_opt = check_necessary_I(ustar, adjoint, model, state)
    assert at_opt.passed
    assert not at_opt.vacuous

    off = ControlPath(GRID, 1.5 * np.asarray(ustar.values), information="trivial",
                      control_set=model.control_set)
    state_off = simulate_state(model, off, ens)
    at_off = check_necessary_I(off, adjoint, model, state_off)
    assert not at_off.passed
    assert at_off.statistic > 5.0


def test_necessary_I_full_information_is_deterministic():
    model = scenarios.consumption()
    adjoint = _flat_adjoint(P_EXACT)
    ustar = solve_foc(model, P_EXACT[None, :], GRID)
    ens = sample_ensemble(GRID, JumpSpec.none(), 12, 200)
    state = simulate_state(model, ustar, ens)
    report = check_necessary_I(ustar, adjoint, model, state, information="full")
    assert report.passed
    assert report.statistic <= 1e-10
    assert report.se is None


def test_boundary_optimum_splits_the_two_necessary_conditions():
    """A bang control can satisfy the variational inequality while the
    stationarity form fails: the gradient points out of the interval."""
    model = scenarios.consumption(running="linear", linear_rate=2.0 * np.exp(0.3))
    cs = model.control_set
    bang = ControlPath.constant(GRID, cs.upper, control_set=cs)
    ens = sample_ensemble(GRID, JumpSpec.none(), 13, 500)
    state = simulate_state(model, bang, ens)
    adjoint = _flat_adjoint(P_EXACT)
    assert check_necessary_II(bang, adjoint, model, state).passed
    assert not check_necessary_I(bang, adjoint, model, state).passed


def test_necessary_checks_vacuous_on_singleton_control_set():
    model = scenarios.custom_affine(control_set=(2.0, 2.0))
    state, ctrl, _ = _state(model, value=2.0, n_paths=30)
    adjoint = _flat_adjoint(np.ones(GRID.n_horizon_steps + 1))
    report = check_necessary_I(ctrl, adjoint, model, state)
    assert report.vacuous and report.passed
    assert "vacuous" in str(report)


def test_sufficient_certifies_concave_problem():
    model, kernel = scenarios.generalized_memory()
    adjoint = _flat_adjoint(P_EXACT)
    ustar = solve_foc(model, P_EXACT[None, :], GRID)
    ens = sample_ensemble(GRID, JumpSpec.none(), 14, 800)
    state = simulate_state(model, ustar, ens, kernel=kernel)
    report = check_sufficient(ustar, adjoint, model, state, seed=14)
    assert report.passed
    assert report.details["concavity_gap"] <= 1e-12
    assert "pass" in str(report)


def test_sufficient_rejects_convex_running_cost():
    model = scenarios.custom_affine(running="convex")
    state, ctrl, _ = _state(model, value=0.5, n_paths=200)
    adjoint = _flat_adjoint(np.ones(GRID.n_horizon_steps + 1))
    report = check_sufficient(ctrl, adjoint, model, state, seed=3)
    assert not report.passed
    assert report.details["concavity_gap"] > 1e-12
    assert report.details["concavity_witness"] is not None


def test_spike_battery_never_beats_the_optimizer():
    model = scenarios.consumption()
    ustar = solve_foc(model, P_EXACT[None, :], GRID)
    ens = sample_ensemble(GRID, JumpSpec.none(), 15, 3000)
    from noisy_control.dynamics import evaluate_performance

    j_star, _, per_star = evaluate_performance(model, ustar, ens)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(7)))
    tt = GRID.horizon_nodes
    for _ in range(8):
        t0 = float(gen.choice(tt[:-3]))
        v = float(gen.uniform(0.1, 3.0))
        spiked = spike_perturbation(ustar, t0, 2 * GRID.step, v)
        _, _, per_s = evaluate_performance(model, spiked, ens)
        diff = per_s - per_star
        gain = float(diff.mean())
        se = float(diff.std(ddof=1) / np.sqrt(len(diff)))
        assert gain <= 3.0 * se + 1e-12


def test_sufficient_reads_scalar_and_node_indexed_jump_adjoints_alike():
    spec = JumpSpec.discrete(1.0, [-0.5, 1.0], [0.5, 0.5])
    model = scenarios.consumption(jump_scale=0.1, jump_spec=spec)
    state, ctrl, _ = _state(model, n_paths=200)
    shape = (state.n_paths, GRID.n_horizon_steps + 1)
    p = np.broadcast_to(P_EXACT, shape)
    reports = [
        check_sufficient(ctrl, AdjointTriple(GRID, p, np.zeros(shape), r, None, {}), model,
                         state, seed=5)
        for r in ((0.0, 0.0), (np.zeros(shape), np.zeros(shape)))
    ]
    scalar, arrays = reports
    assert scalar.passed == arrays.passed
    assert scalar.statistic == arrays.statistic
    assert scalar.details["concavity_gap"] == arrays.details["concavity_gap"]
    assert scalar.details["concavity_witness"] == arrays.details["concavity_witness"]
    assert scalar.details["variational"].statistic == arrays.details["variational"].statistic
