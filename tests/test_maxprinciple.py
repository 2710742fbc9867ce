"""Maximum-principle toolkit: derivatives, condition checks, FOC, spikes."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from noisy_control import scenarios, verification
from noisy_control.adjoint import (
    AdjointTriple,
    LinearBSDESpec,
    _r_pair,
    hamiltonian,
    solve_linear_closed_form,
)
from noisy_control.dynamics import (
    CallableJumpCoefficient,
    CoefficientModel,
    ControlPath,
    DeterministicTerminal,
    evaluate_performance,
    simulate_state,
)
from noisy_control.errors import GridMismatch, NonMonotone, OffGrid, OutOfControlSet
from noisy_control.maxprinciple import (
    _sample_points,
    check_necessary_I,
    check_necessary_II,
    check_sufficient,
    control_partial_paths,
    derivative_process,
    directional_derivative_H,
    directional_derivative_K,
    finite_difference_derivative,
    probe_directions,
    solve_foc,
    spike_perturbation,
)
from noisy_control.paths import JumpSpec, NoiseEnsemble, make_grid, sample_ensemble

GRID = make_grid(0.2, 1.0, 8)
NODES = GRID.horizon_nodes
P_EXACT = np.exp(0.3 * (1.0 - NODES))


def _flat_adjoint(p_row):
    zeros = np.zeros((1, GRID.n_horizon_steps + 1))
    return AdjointTriple(GRID, p_row[None, :], zeros, None, None, {})


def _state(model, value=1.0, n_paths=2000, seed=0):
    ens = sample_ensemble(GRID, model.jump_spec or JumpSpec.none(), seed, n_paths)
    ctrl = ControlPath.constant(GRID, value, control_set=model.control_set)
    return simulate_state(model, ctrl, ens), ctrl, ens


@pytest.mark.parametrize("name", ["linear-noisy-memory", "state-dependent-cost"])
def test_directional_derivative_K_matches_per_node_reference(name):
    """The K route's quadrature is the per-node cost gradient contracted
    against (K, K(t - delta), window, eta) and accumulated node by node."""
    model = _EACH_TERM[name]()
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


def test_perturbed_sweeps_start_at_the_support():
    """The tangent reads no gradient before eta's support, and the K route
    reads the running cost's gradient in the same pass, once per swept node
    and never on the horizon block; the two sides of a finite difference
    sweep the nodes before it once, as one path's rows, then every later
    node once, as stacked (2, n_paths) rows."""
    model = scenarios.consumption()
    state, ctrl, ens = _state(model, n_paths=50)
    eta = dict(probe_directions(GRID))["late-half"]
    n, k_s = GRID.n_horizon_steps, int(np.flatnonzero(eta)[0])
    times, cost_times = [], []
    drift, drift_grad, cost_grad = model.drift, model.drift_grad, model.cost_grad
    model.drift_grad = lambda t, *args: times.append(t) or drift_grad(t, *args)
    model.cost_grad = lambda t, *args: cost_times.append(t) or cost_grad(t, *args)
    directional_derivative_K(model, state, eta)
    assert times == list(GRID.nodes[GRID.index_zero + k_s : -1])
    assert cost_times == times
    shapes = []
    model.drift = lambda t, x, *args: shapes.append(np.shape(x)) or drift(t, x, *args)
    finite_difference_derivative(model, ctrl, ens, eta)
    assert shapes == [(50,)] * k_s + [(2, 50)] * (n - k_s)


def test_sensitivity_route_handles_a_general_jump_coefficient():
    """K route through a non-affine callable gamma matches CRN finite differences
    within criterion 5's rule, max(4 sigma, 1e-3 |J|)."""
    spec = JumpSpec.discrete(2.0, [-0.5, 1.0], [0.5, 0.5])
    model = scenarios.consumption(jump_scale=0.1, jump_spec=spec)
    model.gamma = CallableJumpCoefficient(
        lambda t, x, y, z, u, zeta: 0.1 * np.tanh(x) * zeta + 0.05 * x * zeta * zeta
    )
    state, ctrl, ens = _state(model, n_paths=400, seed=5)
    assert ens.jump_counts.sum() > 0
    j_value = evaluate_performance(model, ctrl, ens, state=state)[0]
    for _, eta in probe_directions(GRID)[:3]:
        val_k, se_k, _ = directional_derivative_K(model, state, eta)
        val_f, se_f, _ = finite_difference_derivative(model, ctrl, ens, eta)
        assert abs(val_k - val_f) <= max(4.0 * np.hypot(se_k, se_f), 1e-3 * abs(j_value))


def test_directions_off_the_horizon_nodes_are_rejected():
    """eta needs n+1 values per row and 1 or n_paths rows, for every route."""
    model = scenarios.consumption()
    state, ctrl, ens = _state(model, n_paths=50)
    adjoint = _flat_adjoint(P_EXACT)
    n = GRID.n_horizon_steps
    routes = (
        lambda eta: derivative_process(model, state, eta),
        lambda eta: directional_derivative_K(model, state, eta),
        lambda eta: directional_derivative_H(model, state, adjoint, eta),
        lambda eta: finite_difference_derivative(model, ctrl, ens, eta),
    )
    for eta in (np.ones(n), np.ones(n + 5), np.ones((7, n + 1)), np.ones((50, n)), 1.0):
        for route in routes:
            with pytest.raises(GridMismatch, match=r"shape \(.*\).*1 or 50 rows"):
                route(eta)
    for eta in (np.ones(n + 1), np.ones((1, n + 1)), np.ones((50, n + 1))):
        for route in routes:
            route(eta)


def _affine_delay():
    return scenarios.custom_affine(bx=0.3, by=0.1, bz=0.2, bu=-1.0, s_const=0.1, sx=0.2,
                                   terminal_slope=1.0)


def _state_dependent_cost():
    """_affine_delay's dynamics with the running cost -(u - 1)^2 / 2 - 0.3 x^2
    + 0.2 y z, whose analytic gradient check_gradients confirms."""
    affine = _affine_delay()
    model = CoefficientModel(
        drift=affine.drift,
        diffusion=affine.diffusion,
        running_cost=lambda t, x, y, z, u: -0.5 * (u - 1.0) ** 2 - 0.3 * x * x + 0.2 * y * z,
        terminal=affine.terminal,
        initial_segment=affine.initial_segment,
        control_set=affine.control_set,
        drift_grad=affine.drift_grad,
        diffusion_grad=affine.diffusion_grad,
        cost_grad=lambda t, x, y, z, u: (-0.6 * x, 0.2 * z, 0.2 * y, -(u - 1.0)),
    )
    model.check_gradients()
    return model


def _callable_gamma():
    """consumption with its affine jumps replaced by a non-affine callable
    gamma, whose gradient is its central finite difference."""
    model = scenarios.consumption(
        jump_scale=0.1, jump_spec=JumpSpec.discrete(1.0, [-0.5, 1.0], [0.5, 0.5]))
    model.gamma = CallableJumpCoefficient(
        lambda t, x, y, z, u, zeta: 0.1 * np.tanh(x) * zeta + 0.05 * x * zeta * zeta
    )
    return model


# One model per term of the dynamics that the K route must carry: the noisy
# memory window, the delay X(t - delta) (no catalog model's coefficients read
# it), the affine jumps, a general callable gamma, the ramp kernel, and a
# running cost that reads x, y and z (no catalog running cost does).
_EACH_TERM = {
    "linear-noisy-memory": scenarios.linear_noisy_memory,
    "custom-affine-delay": _affine_delay,
    "consumption-jumps": lambda: scenarios.consumption(
        jump_scale=0.1, jump_spec=JumpSpec.discrete(1.0, [-0.5, 1.0], [0.5, 0.5])),
    "callable-gamma": _callable_gamma,
    "generalized-memory-ramp": scenarios.generalized_memory,
    "state-dependent-cost": _state_dependent_cost,
}


@pytest.mark.parametrize("factory", _EACH_TERM.values(), ids=_EACH_TERM.keys())
def test_sensitivity_route_matches_finite_differences(factory):
    """With common noise the K route and central differences agree pathwise."""
    model = factory()
    state, ctrl, ens = _state(model, n_paths=400, seed=3)
    for _, eta in probe_directions(GRID)[:3]:
        val_k, _, per_k = directional_derivative_K(model, state, eta)
        val_f, _, per_f = finite_difference_derivative(model, ctrl, ens, eta)
        assert val_k == pytest.approx(val_f, abs=5e-6)
        assert np.max(np.abs(per_k - per_f)) <= 1e-4 * (1.0 + np.max(np.abs(per_f)))


def test_the_terminal_weight_sum_is_made_once_per_ensemble(monkeypatch):
    """On one linear-noisy-memory ensemble the closed form, J, the K route and
    the finite differences of three directions read psi * dB summed over the
    horizon 8 times, and sum it once: the ensemble holds it."""
    model = scenarios.linear_noisy_memory()
    ens = sample_ensemble(GRID, JumpSpec.none(), 7, 300)
    ctrl = ControlPath.constant(GRID, 3.0, control_set=model.control_set)
    read, made = [], []
    horizon_sum = NoiseEnsemble.horizon_sum

    def counted(noise, loading):
        held = len(vars(noise)["_horizon_sums"])
        out = horizon_sum(noise, loading)
        read.append(noise)
        if len(vars(noise)["_horizon_sums"]) > held:
            made.append(noise)
        return out

    monkeypatch.setattr(NoiseEnsemble, "horizon_sum", counted)
    solve_linear_closed_form(LinearBSDESpec.from_model(model), ens)
    evaluate_performance(model, ctrl, ens)
    state = simulate_state(model, ctrl, ens)
    for _, eta in probe_directions(GRID)[:3]:
        directional_derivative_K(model, state, eta)
        finite_difference_derivative(model, ctrl, ens, eta)
    assert len(read) == 8 and all(noise is ens for noise in read)
    assert made == [ens]


def _per_path_H(model, state, adjoint, eta):
    """The H route's per-path values from the full dH/du block."""
    n = GRID.n_horizon_steps
    dhu = control_partial_paths(model, state, adjoint)
    eta_r = np.broadcast_to(eta, dhu.shape)
    return GRID.step * (dhu[:, :n] * eta_r[:, :n]).sum(axis=1)


def test_hamiltonian_route_on_row_constant_operands_is_bitwise_the_block():
    """On the psi = 0 closed form of consumption (p, q and mu broadcast views,
    a shared control, constant u-partials) the H route is made on one row;
    its per-path values are a fresh C-contiguous array, bitwise those of the
    same call on contiguous copies and of the full dH/du block."""
    model = scenarios.consumption()
    state, _, ens = _state(model, value=3.0, n_paths=500, seed=2)
    closed = solve_linear_closed_form(LinearBSDESpec.from_model(model), ens)
    assert closed.p.strides[0] == 0 and closed.q.strides[0] == 0
    copies = AdjointTriple(GRID, np.ascontiguousarray(closed.p), np.ascontiguousarray(closed.q),
                           None, np.ascontiguousarray(closed.mu), {})
    for _, eta in probe_directions(GRID):
        got = directional_derivative_H(model, state, closed, eta)
        ref = directional_derivative_H(model, state, copies, eta)
        assert got[2].tobytes() == ref[2].tobytes() and got[:2] == ref[:2]
        assert got[2].tobytes() == _per_path_H(model, state, closed, eta).tobytes()
        assert got[2].shape == (500,) and got[2].flags.c_contiguous and got[2].flags.writeable


def _u_reads_x():
    """consumption's dynamics with the running cost -(u - x)^2 / 2, whose
    u-partial x - u differs per path."""
    base = scenarios.consumption()
    model = CoefficientModel(
        drift=base.drift,
        diffusion=base.diffusion,
        running_cost=lambda t, x, y, z, u: -0.5 * (u - x) ** 2,
        terminal=base.terminal,
        initial_segment=base.initial_segment,
        control_set=base.control_set,
        drift_grad=base.drift_grad,
        diffusion_grad=base.diffusion_grad,
        cost_grad=lambda t, x, y, z, u: (u - x, 0.0 * y, 0.0 * z, x - u),
    )
    model.check_gradients()
    return model


@pytest.mark.parametrize("case", ["per-path-eta", "psi-adjoint", "u-partial-reads-x"])
def test_hamiltonian_route_on_per_path_operands_is_the_block(case):
    """With one operand that differs per path (eta, a psi != 0 adjoint, or a
    u-partial that reads the state) the H route contracts the full block, as
    before, bit for bit."""
    model = {"per-path-eta": scenarios.consumption, "psi-adjoint": scenarios.linear_noisy_memory,
             "u-partial-reads-x": _u_reads_x}[case]()
    state, _, ens = _state(model, value=3.0, n_paths=500, seed=2)
    fixture = model if case == "psi-adjoint" else scenarios.consumption()
    closed = solve_linear_closed_form(LinearBSDESpec.from_model(fixture), ens)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(11)))
    etas = ([gen.uniform(-1.0, 1.0, size=(500, GRID.n_horizon_steps + 1))]
            if case == "per-path-eta" else [eta for _, eta in probe_directions(GRID)])
    for eta in etas:
        per_path = directional_derivative_H(model, state, closed, eta)[2]
        assert per_path.tobytes() == _per_path_H(model, state, closed, eta).tobytes()


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
    probes = probe_directions(GRID)
    names = [name for name, _ in probes]
    assert names == ["const", "late-half", "mid-quarter", "random"]
    for _, eta in probes:
        assert eta.shape == (GRID.n_horizon_steps + 1,)
        assert np.max(np.abs(eta)) <= 1.0


def test_solve_foc_inverts_log_utility():
    model = scenarios.consumption()
    ustar = solve_foc(model, P_EXACT[None, :], GRID)
    assert ustar.values.shape == (GRID.n_horizon_steps + 1,)  # one value per node
    assert np.max(np.abs(ustar.values - 1.0 / P_EXACT)) <= 1e-10
    assert not np.any(ustar.clamped)


def test_solve_foc_clamps_to_the_interval():
    model = scenarios.consumption()
    ustar = solve_foc(model, 100.0 * P_EXACT[None, :], GRID)
    assert np.all(ustar.clamped)
    assert np.all(ustar.values == model.control_set.lower)


def test_solve_foc_refuses_p_from_another_grid():
    """p off the grid's horizon nodes is a GridMismatch naming both shapes,
    not an error about a control the caller never passed."""
    model = scenarios.consumption()
    fine = make_grid(0.2, 1.0, 16)
    p = np.exp(0.3 * (1.0 - fine.horizon_nodes))
    with pytest.raises(GridMismatch, match=r"p of shape \(1, 81\), but .* needs \(rows, 41\)"):
        solve_foc(model, p, GRID)


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


def test_necessary_I_accepts_the_optimizer_and_rejects_others():
    model = scenarios.consumption()
    adjoint = _flat_adjoint(P_EXACT)
    ustar = solve_foc(model, P_EXACT[None, :], GRID)
    ens = sample_ensemble(GRID, JumpSpec.none(), 11, 2000)
    state = simulate_state(model, ustar, ens)
    at_opt = check_necessary_I(model, state, adjoint)
    assert at_opt.passed
    assert not at_opt.vacuous

    off = ControlPath(GRID, 1.5 * np.asarray(ustar.values), control_set=model.control_set)
    state_off = simulate_state(model, off, ens)
    at_off = check_necessary_I(model, state_off, adjoint)
    assert not at_off.passed
    assert at_off.statistic > 5.0


def test_boundary_optimum_splits_the_two_necessary_conditions():
    """A bang control can satisfy the variational inequality while the
    stationarity form fails: the gradient points out of the interval."""
    model = scenarios.consumption(running="linear", linear_rate=2.0 * np.exp(0.3))
    cs = model.control_set
    bang = ControlPath.constant(GRID, cs.upper, control_set=cs)
    ens = sample_ensemble(GRID, JumpSpec.none(), 13, 500)
    state = simulate_state(model, bang, ens)
    adjoint = _flat_adjoint(P_EXACT)
    assert check_necessary_II(model, state, adjoint).passed
    assert not check_necessary_I(model, state, adjoint).passed


def test_necessary_checks_vacuous_on_singleton_control_set():
    model = scenarios.custom_affine(control_set=(2.0, 2.0))
    state, _, _ = _state(model, value=2.0, n_paths=30)
    adjoint = _flat_adjoint(np.ones(GRID.n_horizon_steps + 1))
    report = check_necessary_I(model, state, adjoint)
    assert report.vacuous and report.passed
    assert "vacuous" in str(report)


def test_sufficient_certifies_concave_problem():
    model = scenarios.generalized_memory()
    adjoint = _flat_adjoint(P_EXACT)
    ustar = solve_foc(model, P_EXACT[None, :], GRID)
    ens = sample_ensemble(GRID, JumpSpec.none(), 14, 800)
    state = simulate_state(model, ustar, ens)
    report = check_sufficient(model, state, adjoint, seed=14)
    assert report.passed
    assert report.details["concavity_gap"] <= 1e-12
    assert "pass" in str(report)


def test_sufficient_rejects_convex_running_cost():
    model = scenarios.custom_affine(running="convex")
    state, _, _ = _state(model, value=0.5, n_paths=200)
    adjoint = _flat_adjoint(np.ones(GRID.n_horizon_steps + 1))
    report = check_sufficient(model, state, adjoint, seed=3)
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


@pytest.mark.parametrize("case", ["consumption", "generalized-memory", "per-path-base"])
def test_spike_battery_is_bitwise_a_loop_of_single_spikes(case):
    """Every gain and se of the stacked battery equals the one a sweep of
    that spike alone gives, over more spikes than one stacked sweep holds."""
    model = scenarios.generalized_memory() if case == "generalized-memory" \
        else scenarios.consumption()
    ens = sample_ensemble(GRID, JumpSpec.none(), seed=4, n_paths=300)
    n = GRID.n_horizon_steps
    if case == "per-path-base":
        values = np.random.default_rng(1).uniform(0.5, 2.0, size=(300, n + 1))
        base = ControlPath(GRID, values, control_set=model.control_set)
    else:
        base = ControlPath.constant(GRID, 1.0, control_set=model.control_set)
    state = simulate_state(model, base, ens)
    count, seed, width, t0s = verification._SPIKE_BLOCK + 5, 3, 4 * GRID.step, NODES[:-5]
    worst, spikes = verification.spike_battery(model, state, seed, t0s, width, (0.1, 3.0),
                                               count, 2.0)
    per0 = evaluate_performance(model, base, ens)[2]
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed + 7)))
    expected = []
    for _ in range(count):
        t0 = float(gen.choice(t0s))
        v = float(gen.uniform(0.1, 3.0))
        per1 = evaluate_performance(model, spike_perturbation(base, t0, width, v), ens)[2]
        diff = per1 - per0
        gain, se = float(diff.mean()), float(diff.std(ddof=1) / np.sqrt(len(diff)))
        expected.append({"t0": t0, "value": v, "gain": gain, "se": se})
    assert spikes == expected
    assert worst == max(s["gain"] - 2.0 * s["se"] for s in expected)


def test_spike_battery_traced_peak_does_not_grow_with_the_count():
    """200 spikes at 2000 paths hold one stacked sweep's worth of buffers,
    as a battery of one sweep does, plus the returned scores, under 1 kB a
    spike.  One slot of a carry is 0.3 MB here, so 200 slots at once would
    hold about 60 MB."""
    model = scenarios.consumption()
    ens = sample_ensemble(GRID, JumpSpec.none(), seed=4, n_paths=2000)
    base = ControlPath.constant(GRID, 1.0, control_set=model.control_set)
    state = simulate_state(model, base, ens)
    peaks = {}
    for count in (verification._SPIKE_BLOCK, 200, verification._SPIKE_BLOCK):
        tracemalloc.start()
        try:
            verification.spike_battery(model, state, 0, NODES[:-5], 4 * GRID.step,
                                       (0.1, 3.0), count, 2.0)
            _, peaks[count] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks[200] - peaks[verification._SPIKE_BLOCK] <= 200 * 1e3, peaks


def test_sufficient_reads_scalar_and_node_indexed_jump_adjoints_alike():
    spec = JumpSpec.discrete(1.0, [-0.5, 1.0], [0.5, 0.5])
    model = scenarios.consumption(jump_scale=0.1, jump_spec=spec)
    state, _, _ = _state(model, n_paths=200)
    shape = (state.n_paths, GRID.n_horizon_steps + 1)
    p = np.broadcast_to(P_EXACT, shape)
    reports = [
        check_sufficient(model, state, AdjointTriple(GRID, p, np.zeros(shape), r, None, {}),
                         seed=5)
        for r in ((0.0, 0.0), (np.zeros(shape), np.zeros(shape)))
    ]
    scalar, arrays = reports
    assert scalar.passed == arrays.passed
    assert scalar.statistic == arrays.statistic
    assert scalar.details["concavity_gap"] == arrays.details["concavity_gap"]
    assert scalar.details["concavity_witness"] == arrays.details["concavity_witness"]
    assert scalar.details["variational"].statistic == arrays.details["variational"].statistic


# ---------------------------------------------------------------------------
# Per-node and per-probe references for the whole-horizon checkers


def _solve_foc_reference(model, p, grid, tol=1e-10, max_iter=200):
    """solve_foc as one bisection per node, with the node's own stopping rule."""
    cs = model.control_set
    lo, hi = cs.lower, cs.upper
    n = grid.n_horizon_steps
    target = np.atleast_2d(np.asarray(p, dtype=float)).mean(axis=0)[None, :]

    def dfdu(t, u):
        return model.cost_grad(t, 0.0, 0.0, 0.0, u)[3]

    probe_vals = np.array(
        [np.mean(dfdu(grid.horizon_nodes[0], u)) for u in np.linspace(lo, hi, 9)]
    )
    diffs = np.diff(probe_vals)
    if np.all(diffs < 0):
        increasing = False
    elif np.all(diffs > 0):
        increasing = True
    else:
        raise NonMonotone("not monotone")

    values = np.empty((1, n + 1))
    clamped = np.zeros((1, n + 1), dtype=bool)
    for k in range(n + 1):
        t_k = grid.horizon_nodes[k]
        tgt = target[:, k]
        g_lo = dfdu(t_k, np.full_like(tgt, lo)) - tgt
        g_hi = dfdu(t_k, np.full_like(tgt, hi)) - tgt
        if not increasing:
            g_lo, g_hi = -g_lo, -g_hi
        clamp_hi = g_hi < 0
        clamp_lo = g_lo > 0
        a = np.full_like(tgt, lo)
        b = np.full_like(tgt, hi)
        for _ in range(max_iter):
            mid = 0.5 * (a + b)
            g_mid = dfdu(t_k, mid) - tgt
            if not increasing:
                g_mid = -g_mid
            go_right = g_mid < 0
            a = np.where(go_right, mid, a)
            b = np.where(go_right, b, mid)
            if np.max(b - a) < 1e-16 * max(1.0, abs(hi)):
                break
        u_k = 0.5 * (a + b)
        u_k = np.where(clamp_hi, hi, u_k)
        u_k = np.where(clamp_lo, lo, u_k)
        values[:, k] = u_k
        clamped[:, k] = clamp_hi | clamp_lo
        resid = np.abs(dfdu(t_k, u_k) - target[:, k])
        if np.any(~clamped[:, k] & (resid > max(tol, 1e-8 * np.max(np.abs(tgt))))):
            raise NonMonotone(
                "bisection failed to reach |df/du - target| <= %g at node %d" % (tol, k)
            )
    return values[0], clamped[0]


def _concavity_reference(adjoint, model, state, probe_count=64, seed=0):
    """check_sufficient's concavity probes, one scalar Hamiltonian per probe
    and the terminal payoff on every path; returns (worst gap, witness)."""
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    grid = state.grid
    n = grid.n_horizon_steps
    p = np.atleast_2d(adjoint.p)
    q = np.atleast_2d(adjoint.q)
    cs = model.control_set
    a_pts = _sample_points(gen, state, cs, probe_count)
    b_pts = _sample_points(gen, state, cs, probe_count)
    lams = gen.uniform(0.1, 0.9, size=probe_count)
    nodes = gen.integers(0, n + 1, size=probe_count)
    rows = gen.integers(0, p.shape[0], size=probe_count)
    r = None
    if adjoint.r is not None:
        r = [np.broadcast_to(c, np.broadcast_shapes(p.shape, c.shape)) for c in _r_pair(adjoint.r)]
    worst_gap = -np.inf
    witness = None
    for i in range(probe_count):
        k = int(nodes[i])
        t_k = grid.horizon_nodes[k]
        pv, qv = float(p[rows[i], k]), float(q[rows[i], k])
        rv = None if r is None else tuple(float(c[rows[i], k]) for c in r)
        lam = float(lams[i])
        mix = lam * a_pts[i] + (1.0 - lam) * b_pts[i]

        def h_at(pt):
            ev = hamiltonian(model, t_k, pt[0], pt[1], pt[2], pt[3], p=pv, q=qv, r=rv)
            return float(ev.value)

        gap = lam * h_at(a_pts[i]) + (1.0 - lam) * h_at(b_pts[i]) - h_at(mix)
        scale = 1.0 + abs(h_at(mix))
        if gap / scale > worst_gap:
            worst_gap = gap / scale
            witness = {"kind": "hamiltonian", "node": k, "a": a_pts[i].tolist(),
                       "b": b_pts[i].tolist(), "lam": lam}
    n_paths = state.n_paths
    xs = state.x.ravel()
    x_lo, x_hi = float(xs.min()), float(xs.max())
    for i in range(probe_count):
        xa = gen.uniform(x_lo - 1.0, x_hi + 1.0)
        xb = gen.uniform(x_lo - 1.0, x_hi + 1.0)
        lam = float(gen.uniform(0.1, 0.9))
        xm = lam * xa + (1.0 - lam) * xb

        def g_at(xv):
            vals = model.terminal.value(np.full(n_paths, xv), state.noise)
            return float(np.atleast_1d(vals)[int(rows[i]) % n_paths])

        gap = lam * g_at(xa) + (1.0 - lam) * g_at(xb) - g_at(xm)
        scale = 1.0 + abs(g_at(xm))
        if gap / scale > worst_gap:
            worst_gap = gap / scale
            witness = {"kind": "terminal", "a": xa, "b": xb, "lam": lam}
    return worst_gap, witness


def _x_dependent_model():
    """Consumption dynamics with a running payoff w(t, x, y, z) ln u, so the
    first-order condition reads the state's per-node means."""
    base = scenarios.consumption()

    def weight(t, x, y, z):
        return 1.0 + 0.5 * x * x + 0.1 * y * y + 0.2 * np.abs(z) + 0.1 * t

    def cost(t, x, y, z, u):
        return weight(t, x, y, z) * np.log(u)

    def cost_grad(t, x, y, z, u):
        log_u = np.log(u)
        return (x * log_u, 0.2 * y * log_u, 0.2 * np.sign(z) * log_u,
                weight(t, x, y, z) / u)

    return CoefficientModel(
        drift=base.drift, diffusion=base.diffusion, running_cost=cost,
        terminal=base.terminal, initial_segment=base.initial_segment,
        control_set=base.control_set, cost_grad=cost_grad, name="x-dependent",
    )


def _assert_foc_matches_reference(model, p):
    out = solve_foc(model, p, GRID)
    values, clamped = _solve_foc_reference(model, p, GRID)
    assert out.values.shape == values.shape
    assert out.values.tobytes() == values.tobytes()
    assert out.clamped.shape == clamped.shape
    assert np.array_equal(out.clamped, clamped)
    return out


def test_solve_foc_matches_per_node_reference():
    gen = np.random.Generator(np.random.Philox(key=np.uint64(21)))
    shape = (30, GRID.n_horizon_steps + 1)
    consumption = scenarios.consumption()
    _assert_foc_matches_reference(consumption, P_EXACT[None, :])
    jittered = P_EXACT[None, :] * np.exp(gen.normal(0.0, 0.1, size=(40, 1)))
    _assert_foc_matches_reference(consumption, jittered)
    wide = np.exp(gen.uniform(-5.0, 5.0, size=shape))
    _assert_foc_matches_reference(consumption, wide)
    # 1/u = p leaves [0.05, 20] at both ends: clamps to the upper and the
    # lower bound
    ends = np.where(NODES < 0.5, 100.0, 0.01)
    ends[NODES > 0.75] = P_EXACT[NODES > 0.75]
    out = _assert_foc_matches_reference(consumption, ends[None, :])
    assert np.any(out.values == 0.05) and np.any(out.values == 20.0)
    # df/du = -(u - 1) decreases, df/du = u increases
    spread = gen.normal(0.0, 3.0, size=shape)
    for running in ("quadratic", "convex"):
        model = scenarios.custom_affine(running=running)
        _assert_foc_matches_reference(model, spread)


def test_solve_foc_lower_clamp_wins_where_df_du_turns():
    """df/du = (1 - 2t) u increases at node 0 and decreases after T/2, where
    a zero target lies above df/du at the lower end and below it at the upper
    end: both clamps fire and the lower one wins."""
    base = scenarios.custom_affine(running="convex")
    model = CoefficientModel(
        drift=base.drift, diffusion=base.diffusion,
        running_cost=lambda t, x, y, z, u: 0.5 * (1.0 - 2.0 * t) * u * u,
        terminal=base.terminal, initial_segment=base.initial_segment,
        control_set=base.control_set, name="turning",
    )
    zero = np.zeros((3, GRID.n_horizon_steps + 1))
    out = _assert_foc_matches_reference(model, zero)
    late = NODES > 0.5
    assert np.all(out.clamped[late]) and np.all(out.values[late] == -5.0)


def test_solve_foc_names_the_first_unconverged_node():
    """Clamped nodes are exempt from the residual check, so with too few
    bisection steps the first failing node is the first unclamped one."""
    model = scenarios.consumption()
    p = P_EXACT.copy()
    p[:3] = 100.0
    messages = []
    for solver in (solve_foc, _solve_foc_reference):
        with pytest.raises(NonMonotone) as err:
            solver(model, p[None, :], GRID, max_iter=5)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].endswith("at node 3")


def _assert_concavity_matches_reference(adjoint, model, state, seed):
    report = check_sufficient(model, state, adjoint, seed=seed)
    gap, witness = _concavity_reference(adjoint, model, state, seed=seed)
    assert report.details["concavity_gap"] == gap
    assert report.details["concavity_witness"] == (witness if gap > 1e-12 else None)
    return report


def test_sufficient_concavity_probes_match_per_probe_reference():
    shape = (200, GRID.n_horizon_steps + 1)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(31)))
    p_rows = P_EXACT[None, :] * np.exp(gen.normal(0.0, 0.2, size=(shape[0], 1)))
    q_rows = gen.normal(0.0, 0.1, size=shape)

    model = scenarios.generalized_memory()
    state, _, _ = _state(model, n_paths=400)
    report = _assert_concavity_matches_reference(_flat_adjoint(P_EXACT), model, state, 14)
    assert report.details["concavity_witness"] is None

    model = scenarios.custom_affine(running="convex")
    state, _, _ = _state(model, value=0.5, n_paths=200)
    report = _assert_concavity_matches_reference(
        _flat_adjoint(np.ones(shape[1])), model, state, 3)
    assert report.details["concavity_witness"]["kind"] == "hamiltonian"

    # a convex terminal payoff under a concave Hamiltonian
    model = scenarios.custom_affine()
    model.terminal = DeterministicTerminal(lambda x: 0.5 * x * x)
    state, _, _ = _state(model, value=0.5, n_paths=200)
    report = _assert_concavity_matches_reference(
        _flat_adjoint(np.ones(shape[1])), model, state, 4)
    assert report.details["concavity_witness"]["kind"] == "terminal"

    # a path-dependent terminal weight, read on each probe's own path
    model = scenarios.linear_noisy_memory()
    state, _, _ = _state(model, n_paths=200, seed=2)
    adjoint = AdjointTriple(GRID, p_rows, q_rows, None, None, {})
    _assert_concavity_matches_reference(adjoint, model, state, 6)

    model = _x_dependent_model()
    state, _, _ = _state(model, n_paths=200, seed=9)
    _assert_concavity_matches_reference(adjoint, model, state, 7)

    # a terminal payoff undefined left of 0: its NaN gaps never win
    model = scenarios.consumption()
    model.terminal = DeterministicTerminal(np.sqrt)
    state, _, _ = _state(model, n_paths=200, seed=10)
    with np.errstate(invalid="ignore"):
        report = _assert_concavity_matches_reference(adjoint, model, state, 9)
    assert state.x.min() < 1.0 and np.isfinite(report.details["concavity_gap"])

    spec = JumpSpec.discrete(1.0, [-0.5, 1.0], [0.5, 0.5])
    model = scenarios.consumption(jump_scale=0.1, jump_spec=spec)
    state, _, _ = _state(model, n_paths=200)
    for r in ((0.1, -0.05), (gen.normal(0.0, 0.1, size=shape), gen.normal(0.0, 0.1, size=shape))):
        adjoint = AdjointTriple(GRID, p_rows, q_rows, r, None, {})
        _assert_concavity_matches_reference(adjoint, model, state, 8)


# sha256 of the per-path outputs of the K, H and finite-difference routes at
# 200 paths, steps_per_delay=8, noise seed 5, constant control 1.0 and the
# random probe direction.  The catalog's gradients are read-only broadcast
# views; these pin the bits that flow through them.  Every reduction here is
# elementwise, but exp and log come from numpy's own kernels, so the digests
# hold for one numpy build.
_ROUTE_DIGESTS = {
    "consumption-affine-jumps": (
        "600c270899529c417730caf347ae28c948b81547fc18b807c206da4caf3d8757",
        "5de495b5119914c18b80e4f241af629129fbad20f51d7cc2b7db315f65ce5f8c",
        "2269be0735e9740b0744aa39d0c08651472d4125ea2ed2262b44768bbede588f",
    ),
    "custom-affine": (
        "a72f3df02a0962c3d08634fdbf50d50e8b949790e7f095b2251feef32bb83056",
        "c220097f9b0f1fab1a24a9ef5e1081df5420f20db716d35a7c737c4dcb65b905",
        "ac2476f7f621576e7afd68db685e31f35617991a7ca08ae8637afdf17e3ea738",
    ),
    "linear-noisy-memory": (
        "f66c1618b26cbd6cbe71154290609380b283488ccf5242c6ddcad9e24fc80e1f",
        "5b77105189a28712c2f7d1f0a9688f90622ff780dddb98bdefa4353014a700b2",
        "8facb1085873a66c06dc3984610c0959e14997ba2a986dd9c8c965e303b986bf",
    ),
}


@pytest.mark.parametrize("case", sorted(_ROUTE_DIGESTS))
def test_route_outputs_are_pinned(case):
    spec = JumpSpec.none()
    if case == "linear-noisy-memory":
        model = scenarios.linear_noisy_memory()
    elif case == "consumption-affine-jumps":
        spec = JumpSpec.discrete(1.0, [-0.5, 1.0], [0.5, 0.5])
        model = scenarios.consumption(jump_scale=0.1, jump_spec=spec)
    else:
        model = scenarios.custom_affine(bx=0.3, by=0.1, bz=0.2, bu=-1.0, s_const=0.1,
                                        sx=0.2, terminal_slope=1.0)
    ens = sample_ensemble(GRID, spec, seed=5, n_paths=200)
    ctrl = ControlPath.constant(GRID, 1.0, control_set=model.control_set)
    state = simulate_state(model, ctrl, ens)
    if case == "custom-affine":
        p = P_EXACT[None, :]
        adjoint = AdjointTriple(GRID, p, 0.1 * p, None, None, {})
    else:
        closed = solve_linear_closed_form(LinearBSDESpec.from_model(model), ens)
        r = (0.02, 0.01) if model.has_jumps else None  # reads the jump gradients
        adjoint = AdjointTriple(GRID, closed.p, closed.q, r, closed.mu, {})
    eta = probe_directions(GRID)[3][1]
    routes = (
        directional_derivative_K(model, state, eta)[2],
        directional_derivative_H(model, state, adjoint, eta)[2],
        finite_difference_derivative(model, ctrl, ens, eta)[2],
    )
    got = tuple(hashlib.sha256(np.ascontiguousarray(per).tobytes()).hexdigest()
                for per in routes)
    assert got == _ROUTE_DIGESTS[case]


def _warm_case(case):
    """(model, noise, control, eta) of one warm-start pin case."""
    model_name, direction = case.split("/")
    spec = JumpSpec.none()
    if model_name == "linear-noisy-memory":
        model = scenarios.linear_noisy_memory()
    elif model_name == "consumption-affine-jumps":
        spec = JumpSpec.discrete(1.0, [-0.5, 1.0], [0.5, 0.5])
        model = scenarios.consumption(jump_scale=0.1, jump_spec=spec)
    else:
        model = scenarios.generalized_memory()
    ens = sample_ensemble(GRID, spec, seed=5, n_paths=200)
    # at the lower bound, the minus shift leaves the control set
    value = model.control_set.lower if direction == "one-sided" else 1.0
    ctrl = ControlPath.constant(GRID, value, control_set=model.control_set)
    etas = dict(probe_directions(GRID))
    n = GRID.n_horizon_steps
    if direction in ("late-half", "mid-quarter"):
        eta = etas[direction]
    elif direction == "one-sided":
        eta = etas["late-half"]
    elif direction == "zero":
        eta = np.zeros(n + 1)
    elif direction == "last-node":
        eta = np.zeros(n + 1)
        eta[n] = 1.0
    else:  # per-path rows that start at nodes 7, 12, 17, ...: the earliest decides
        starts = 7 + 5 * (np.arange(200) % 6)
        eta = np.where(np.arange(n + 1)[None, :] >= starts[:, None], 0.5, 0.0)
    return model, ens, ctrl, eta


# sha256 of the K route's per-path output, the finite difference's per-path
# output and the KBundle's k and kz bytes at 200 paths, steps_per_delay=8 and
# noise seed 5, for directions that are zero before some node: late-half and
# mid-quarter, eta = 0, eta nonzero only on the last node, a one-sided
# difference at the lower bound, and per-path rows starting at different
# nodes.  They are the digests of sweeps run from node 0.  The ramp-kernel
# window is a BLAS matrix-vector product, so those digests hold on one
# machine and BLAS build; the rest hold for one numpy build.
_WARM_DIGESTS = {
    "consumption-affine-jumps/late-half": (
        "ae9edbfb218721ad899ab7e35c311882cab1619bedcf7292c499607901764efe",
        "12213be8b4577c6b0f73583fa7bd25ee34d8293871ba092ff65178e534c5312d",
        "23f06dc0638e913a10ca89813cd488fa6d1ad92ac026e19b0930fa2137e014a9",
    ),
    "consumption-affine-jumps/mid-quarter": (
        "0ff783e54e6f8fb055de00e2e93ecc0202ef9de82fb9a23a6008a09550adbd65",
        "4d30b0a025a87d153172de7cb21b7119aba5caa37df487006b1669c37720d288",
        "deb11e9f71f5af1dd0f2c6102ffa5785d3a4361ab7dae02ff97957d56e8f4031",
    ),
    "consumption-affine-jumps/one-sided": (
        "09ee61d6a85ce2de6d5e4f7a0410d2a6e2403491f5545de911dad61124e4ed18",
        "4ff99b9cf0a32358de89198ef71b5f190458a3a539853d21960ee4e580b42a2f",
        "23f06dc0638e913a10ca89813cd488fa6d1ad92ac026e19b0930fa2137e014a9",
    ),
    "consumption-affine-jumps/per-path": (
        "c936f45ff8b4b0f0d2f2ce76bef1be5e255d1422eb4096ed7b20c50b6eb945b4",
        "0d293cabaea5ac11d6b95d6d97a1519dfeeb26b80419bde6c140e41251f61ac4",
        "b8eab1c3f2c0a895419075814b2276d305da66e30edaeddc6d129622a91f8bea",
    ),
    "generalized-memory/late-half": (
        "80d4d67edb3b952e0cf55f0532a7cee08158e921f0140293617347002fabb4fd",
        "52b5f36aca25d6441565726d451a906f910befc478e6cfe22facbdfc2306b054",
        "591ab088ec62306bac84d5c053c98478cdff8ea2e58f3e523a710c3918f7c31b",
    ),
    "generalized-memory/mid-quarter": (
        "ec19c672011f5ff12378ffc350a91ec3b8739f3d19b081c972398d86ddef9b87",
        "e780c0bb7b24716e20fbdeb5fa636f8b384897dd171378507869a9386644a224",
        "a45362af3e49bc1efc4c2b3af168542aad4da791031365b8ead82d503f26a0c8",
    ),
    "generalized-memory/one-sided": (
        "555e34e4d6e1a9bdeffd139171ec81467a35e2362964619fe99766d67f720e25",
        "fe34d8c982e8b986ee6bdae8639e35ac502d139a3a5d73f380d8b2d541fbadc2",
        "591ab088ec62306bac84d5c053c98478cdff8ea2e58f3e523a710c3918f7c31b",
    ),
    "linear-noisy-memory/last-node": (
        "e61f41d57db208c5f92a35c4ce7198570924a3fc87eeba83441fceee5d6a2865",
        "e61f41d57db208c5f92a35c4ce7198570924a3fc87eeba83441fceee5d6a2865",
        "09d70dfa508c78be6e37aecd90919b4e01452ff385a3329c4a7beaca85f291f5",
    ),
    "linear-noisy-memory/late-half": (
        "c079aab7dc3ba8280f59b8b7ac276fffa0742d7ffa946058651d43ecd11ebd72",
        "ecfafc56a037453731ae6bccf309aa141f3c0308020273b6f5c5064ae961debf",
        "c5df126b4e539c7adee4de7565d4a2c409673d5efefaf2995943e14508e37e05",
    ),
    "linear-noisy-memory/mid-quarter": (
        "09ffac3a52381d3cf2e6e2a0c446dad589819ce7f9481a9645f898d823878300",
        "71a57047e56df2f2b86f889597a88148fb618fa22bf4159780b6a167e8f15802",
        "32e9105cdfcb99bc7154c19d7f75f244d2c8791bc25562c87c316e7e8a67cbf0",
    ),
    "linear-noisy-memory/per-path": (
        "c129315d233d7c88c8cde17ed63c2693355dacaec549ce2a38b60ba6b822309d",
        "8989bfce6fee015327efb10e1119c3ff9bb8780489229cb2b8180c8872ba2ad5",
        "732471767b33ac795d87cf3cdc73545961511e983f6a884a247da20e125f7867",
    ),
    "linear-noisy-memory/zero": (
        "e61f41d57db208c5f92a35c4ce7198570924a3fc87eeba83441fceee5d6a2865",
        "e61f41d57db208c5f92a35c4ce7198570924a3fc87eeba83441fceee5d6a2865",
        "09d70dfa508c78be6e37aecd90919b4e01452ff385a3329c4a7beaca85f291f5",
    ),
}


@pytest.mark.parametrize("case", sorted(_WARM_DIGESTS))
def test_routes_that_start_inside_the_horizon_are_pinned(case):
    model, ens, ctrl, eta = _warm_case(case)
    state = simulate_state(model, ctrl, ens)
    kb = derivative_process(model, state, eta)
    got = (
        hashlib.sha256(directional_derivative_K(model, state, eta)[2].tobytes()).hexdigest(),
        hashlib.sha256(finite_difference_derivative(model, ctrl, ens, eta)[2].tobytes()).hexdigest(),
        hashlib.sha256(np.ascontiguousarray(kb.k).tobytes()
                       + np.ascontiguousarray(kb.kz).tobytes()).hexdigest(),
    )
    assert got == _WARM_DIGESTS[case]


# Traced peak of one H-route call in (n_paths, n+1) float buffers, at 4000
# paths x 320 horizon steps.  Gradients built as full arrays peaked at 5.0.
# On consumption every operand of dH/du is the same on every path, so dH/du
# is one row; as a full block it peaked at 1.67.
_H_PEAK_BOUND = {"linear_noisy_memory": 2.5, "consumption": 0.1}


@pytest.mark.parametrize("name", list(_H_PEAK_BOUND))
def test_hamiltonian_route_traced_peak(name):
    model = getattr(scenarios, name)()
    g = make_grid(0.2, 1.0, 64)
    ens = sample_ensemble(g, JumpSpec.none(), seed=3, n_paths=4000)
    state = simulate_state(model, ControlPath.constant(g, 3.0, control_set=model.control_set),
                           ens)
    closed = solve_linear_closed_form(LinearBSDESpec.from_model(model), ens)
    eta = probe_directions(g)[3][1]
    directional_derivative_H(model, state, closed, eta)  # first-call allocations stay out
    tracemalloc.start()
    try:
        directional_derivative_H(model, state, closed, eta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (8 * ens.n_paths * (g.n_horizon_steps + 1)) <= _H_PEAK_BOUND[name]


# Traced peak of one finite difference in (n_paths, n_nodes) float buffers, at
# 4000 paths x 449 nodes.  The second sweep resumes from the one copy of the
# first's carry, and the terminal payoffs are read after both sweeps are
# freed.  Two sweeps from node 0 peaked at 0.36 (consumption) and 1.02
# (linear-noisy-memory, whose lognormal terminal weight needs the most room).
@pytest.mark.parametrize("name, bound", [("consumption", 0.75), ("linear_noisy_memory", 1.0)])
def test_finite_difference_traced_peak(name, bound):
    model = getattr(scenarios, name)()
    g = make_grid(0.2, 1.0, 64)
    ens = sample_ensemble(g, JumpSpec.none(), seed=3, n_paths=4000)
    ctrl = ControlPath.constant(g, 3.0, control_set=model.control_set)
    eta = probe_directions(g)[1][1]
    finite_difference_derivative(model, ctrl, ens, eta)  # first-call allocations stay out
    tracemalloc.start()
    try:
        finite_difference_derivative(model, ctrl, ens, eta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (8 * ens.n_paths * g.n_nodes) <= bound
