"""Adjoint solvers: closed form, regression, window engines, and the bridge."""

import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from noisy_control import adjoint as adjoint_mod
from noisy_control import scenarios, verification
from noisy_control.adjoint import (
    AdjointTriple,
    Chaos1WindowEngine,
    LinearBSDESpec,
    QuadXZBasis,
    bridge_1d_from_2d,
    bsde_residual_1d,
    hamiltonian,
    lift_2d_from_1d,
    mu_generalized,
    solve_absde_2d,
    solve_linear_closed_form,
)
from noisy_control.dynamics import ControlPath, MemoryKernel, reduce_2d, simulate_state
from noisy_control.errors import (
    FixedPointDiverged,
    GridMismatch,
    NotReduced,
    RankDeficientBasis,
    TooFewPaths,
)
from noisy_control.malliavin import horizon_values
from noisy_control.maxprinciple import (
    check_necessary_I,
    check_necessary_II,
    check_sufficient,
    control_partial_paths,
    directional_derivative_H,
)
from noisy_control.paths import JumpSpec, make_grid, sample_ensemble

GRID = make_grid(0.2, 1.0, 8)
NODES = GRID.horizon_nodes


def _closed(model, noise):
    return solve_linear_closed_form(LinearBSDESpec.from_model(model), noise)


def _chaos_engine(model, closed):
    return Chaos1WindowEngine(
        closed.chaos, np.full(closed.grid.n_horizon_steps + 1, model.linear_spec.a0), closed.p
    )


def test_hamiltonian_affine_assembly():
    model = scenarios.custom_affine(bx=0.3, bz=0.5, bu=1.0, sx=0.2, running="quadratic")
    ev = hamiltonian(model, 0.1, x=2.0, y=1.0, z=0.5, u=0.4, p=1.5, q=0.7)
    f = -0.5 * (0.4 - 1.0) ** 2
    b = 0.3 * 2.0 + 0.5 * 0.5 + 1.0 * 0.4
    s = 0.2 * 2.0
    assert ev.value == pytest.approx(f + b * 1.5 + s * 0.7)
    dx, dy, dz, du = ev.grad
    assert dx == pytest.approx(0.3 * 1.5 + 0.2 * 0.7)
    assert dy == pytest.approx(0.0)
    assert dz == pytest.approx(0.5 * 1.5)
    assert du == pytest.approx(-(0.4 - 1.0) + 1.5)


def test_hamiltonian_jump_pairing():
    spec = JumpSpec.discrete(1.0, [-0.5, 1.0], [0.5, 0.5])
    model = scenarios.consumption(jump_scale=0.1, jump_spec=spec)
    ev_with = hamiltonian(model, 0.0, 1.0, 1.0, 0.0, 1.0, p=1.0, q=0.0, r=(0.2, 0.1))
    ev_none = hamiltonian(model, 0.0, 1.0, 1.0, 0.0, 1.0, p=1.0, q=0.0, r=None)
    # gamma = 0.1 x zeta; pairing with r0 + r1 zeta = 0.1 x (r0 m1 + r1 m2) lam
    expected = 0.1 * 1.0 * (0.2 * spec.levy_moment(1) + 0.1 * spec.levy_moment(2))
    assert ev_with.value - ev_none.value == pytest.approx(expected)


def test_closed_form_terminal_condition_and_q():
    model = scenarios.linear_noisy_memory()
    ens = sample_ensemble(GRID, JumpSpec.none(), seed=0, n_paths=200)
    closed = _closed(model, ens)
    weight = model.terminal.grad(np.ones(200), ens)
    assert np.max(np.abs(closed.p[:, -1] - weight)) <= 1e-12
    assert np.allclose(closed.q, 0.1 * closed.p, rtol=1e-13)


def test_closed_form_limits():
    """psi = 0 kills the noisy-memory coupling; a0 = 0 kills the window term."""
    ens = sample_ensemble(GRID, JumpSpec.none(), seed=1, n_paths=100)
    flat = np.exp(0.3 * (1.0 - NODES))

    no_noise = _closed(scenarios.linear_noisy_memory(psi=0.0), ens)
    assert np.max(np.abs(no_noise.p - flat[None, :])) <= 1e-12
    assert np.max(np.abs(no_noise.q)) == 0.0

    no_memory = _closed(scenarios.linear_noisy_memory(a0=0.0), ens)
    assert np.max(np.abs(no_memory.diagnostics["A"] - 0.3)) <= 1e-12


# sha256 of the closed form's p, q, mu, A and of its F's alpha, drift_adjust
# (c) and scale (C) at 40 paths, seed 24, recorded when alpha, c and C were
# diagnostics entries
_CLOSED_FORM_DIGESTS = {
    (0.1, 8): "3f9913ee5dc3dfab583b4d511e470eab5efb03c8aed7830df433422a7f457b6f",
    (0.1, 64): "531d87f52bce8e3681c87cd85a216ad0e8e750d912ff6275d355d46d7d90154d",
    (0.0, 8): "e8e50780e09054a9c73bcfc3c7fb80ec56e15280a0401ec356e45c8aaa0f0dbc",
    (0.0, 64): "387c254f825c84a8e735895e6f82973cec70d46e3304a712a3e81c23c0300fb8",
}


@pytest.mark.parametrize("psi, m", sorted(_CLOSED_FORM_DIGESTS))
def test_closed_form_and_its_chaos_are_pinned(psi, m):
    grid = make_grid(0.2, 1.0, m)
    ens = sample_ensemble(grid, JumpSpec.none(), seed=24, n_paths=40)
    closed = _closed(scenarios.linear_noisy_memory(psi=psi), ens)
    assert sorted(closed.diagnostics) == ["A", "terminal_residual"]
    chaos = closed.chaos
    assert chaos.grid == grid and np.array_equal(chaos.paths(ens), closed.p)
    h = hashlib.sha256()
    for a in (closed.p, closed.q, closed.mu, closed.diagnostics["A"], chaos.alpha,
              chaos.drift_adjust, np.float64(chaos.scale)):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == _CLOSED_FORM_DIGESTS[psi, m]


@pytest.mark.parametrize("factory", [lambda: scenarios.linear_noisy_memory(psi=0.0),
                                     scenarios.consumption], ids=["psi-0", "consumption"])
def test_a_deterministic_closed_form_holds_one_row(factory):
    """With psi = 0, p, q and mu are read-only zero-stride views of the usual
    shape, bitwise the per-path closed form, and the solve holds O(n) bytes."""
    model = factory()
    spec = model.linear_spec
    ens = sample_ensemble(GRID, JumpSpec.none(), seed=2, n_paths=10_000)
    _closed(model, ens)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        closed = _closed(model, ens)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    width = GRID.n_horizon_steps + 1
    assert held <= 1e5, held  # one (n_paths, n+1) block is 3.3 MB
    f = closed.chaos.paths(ens)
    psi = closed.chaos.psi
    rate = closed.diagnostics["A"] + horizon_values(GRID, spec.sigma0) * psi
    for view, full in zip((closed.p, closed.q, closed.mu), (f, psi * f, rate * f)):
        assert view.shape == (10_000, width) and view.strides[0] == 0
        assert not view.flags.writeable
        assert np.ascontiguousarray(view).tobytes() == full.tobytes()


def test_closed_form_rejects_wrong_grid():
    model = scenarios.linear_noisy_memory()
    other = sample_ensemble(make_grid(0.25, 1.0, 8), JumpSpec.none(), 0, 3)
    with pytest.raises(GridMismatch):
        _closed(model, other)


def test_closed_form_names_the_node_where_the_sweep_diverges():
    """psi = 1e200 squares to infinity in the rate at the first swept node."""
    ens = sample_ensemble(GRID, JumpSpec.none(), seed=0, n_paths=4)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FixedPointDiverged, match="at node 40 "):
        solve_linear_closed_form(LinearBSDESpec(a0=1.0, a1=0.0, psi=1e200), ens)


def test_window_reconstruction_identity():
    """The engine's Malliavin window must reproduce q2 = (A - a1) p exactly."""
    model = scenarios.linear_noisy_memory()
    ens = sample_ensemble(GRID, JumpSpec.none(), seed=2, n_paths=500)
    closed = _closed(model, ens)
    engine = _chaos_engine(model, closed)
    q2_closed = (closed.diagnostics["A"] - 0.3)[None, :] * closed.p
    assert np.max(np.abs(q2_closed - engine.malliavin_windows())) <= 1e-10


def test_mu_assembly_matches_closed_form():
    model = scenarios.linear_noisy_memory()
    ens = sample_ensemble(GRID, JumpSpec.none(), seed=3, n_paths=300)
    closed = _closed(model, ens)
    engine = _chaos_engine(model, closed)
    dhx = 0.3 * closed.p + 0.2 * closed.q
    mu = mu_generalized(dhx, None, engine)
    assert np.max(np.abs(mu - closed.mu)) <= 1e-10
    # the flagged identity kernel takes the same code path, bit for bit
    mu_flagged = mu_generalized(dhx, None, engine, kernel=MemoryKernel.identity())
    assert np.array_equal(mu, mu_flagged)
    # an unflagged phi = 1 kernel multiplies by exactly 1.0, also bitwise
    flat = MemoryKernel(lambda t, s: np.ones_like(np.asarray(s, dtype=float) * t), 1.0)
    assert np.array_equal(mu, mu_generalized(dhx, None, engine, kernel=flat))


def test_bsde_residual_shrinks_on_the_closed_form():
    model = scenarios.linear_noisy_memory()
    ens = sample_ensemble(GRID, JumpSpec.none(), seed=4, n_paths=200)
    closed = _closed(model, ens)
    state = simulate_state(
        model, ControlPath.constant(GRID, 1.0, control_set=model.control_set), ens
    )
    sup, rms = bsde_residual_1d(closed, state, model, _chaos_engine(model, closed))
    assert 0.0 < rms < sup < 0.05


def test_absde_recovers_linear_fixture():
    model = scenarios.linear_noisy_memory()
    ens = sample_ensemble(GRID, JumpSpec.none(), seed=5, n_paths=4000)
    ctrl = ControlPath.constant(GRID, 1.0, control_set=model.control_set)
    state = reduce_2d(model, ctrl, ens)
    sol = solve_absde_2d(model, state)
    closed = _closed(model, ens)
    rel = np.sqrt(np.mean((sol.p1 - closed.p) ** 2)) / np.sqrt(np.mean(closed.p**2))
    assert rel <= 0.08
    assert sol.diagnostics["max_condition"] < 1e13
    # one condition number per regression node, in node order: at t = 0 every
    # path sits at (xi0, 0), so the ridge alone conditions that design
    cond = sol.diagnostics["condition"]
    assert cond.shape == (GRID.n_horizon_steps,) and np.argmax(cond) == 0
    assert cond.max() == sol.diagnostics["max_condition"]


def test_absde_zero_components_on_deterministic_adjoint():
    model = scenarios.consumption()
    ens = sample_ensemble(GRID, JumpSpec.none(), seed=6, n_paths=4000)
    ctrl = ControlPath.constant(GRID, 1.0, control_set=model.control_set)
    sol = solve_absde_2d(model, reduce_2d(model, ctrl, ens))
    oracle = np.exp(0.3 * (1.0 - NODES))
    rel = np.sqrt(np.mean((sol.p1 - oracle[None, :]) ** 2)) / np.sqrt(np.mean(oracle**2))
    assert rel <= 0.02
    assert np.sqrt((sol.q1**2).mean()) <= 0.02
    assert np.sqrt((sol.q2**2).mean()) <= 0.02


def test_absde_jump_adjoint_is_negligible_for_compensated_scaling():
    spec = JumpSpec.discrete(1.0, [-0.5, 1.0], [0.5, 0.5])
    model = scenarios.consumption(jump_scale=0.1, jump_spec=spec)
    ens = sample_ensemble(GRID, spec, seed=7, n_paths=3000)
    ctrl = ControlPath.constant(GRID, 1.0, control_set=model.control_set)
    sol = solve_absde_2d(model, reduce_2d(model, ctrl, ens))
    assert sol.r1 is not None
    assert np.sqrt((sol.r1[0] ** 2).mean()) <= 0.02
    assert np.sqrt((sol.r1[1] ** 2).mean()) <= 0.02


class _DuplicateColumnBasis:
    names = ("1", "x", "x_again")
    size = 3

    def design(self, x, z):
        one = np.ones_like(x)
        return np.column_stack([one, x, x])


def _plain_state(n_paths, reduced):
    model = scenarios.linear_noisy_memory()
    ens = sample_ensemble(GRID, JumpSpec.none(), seed=0, n_paths=n_paths)
    ctrl = ControlPath.constant(GRID, 1.0)
    return model, (reduce_2d if reduced else simulate_state)(model, ctrl, ens)


def test_too_few_paths_per_basis_function_is_typed():
    """A TooFewPaths, still a ValueError, naming both sizes."""
    with pytest.raises(TooFewPaths, match="at least 60 paths for a size-6 basis, got 59") as err:
        solve_absde_2d(*_plain_state(59, reduced=True))
    assert isinstance(err.value, ValueError)


def test_a_state_without_x2_is_typed():
    """A state that reduce_2d did not make is a NotReduced, still a
    ValueError, naming the state's shape."""
    with pytest.raises(NotReduced, match=r"state of shape \(60, 49\) has no x2") as err:
        solve_absde_2d(*_plain_state(60, reduced=False))
    assert isinstance(err.value, ValueError)


def test_rank_deficient_basis_raises_without_ridge():
    model = scenarios.linear_noisy_memory()
    ens = sample_ensemble(GRID, JumpSpec.none(), seed=8, n_paths=500)
    ctrl = ControlPath.constant(GRID, 1.0, control_set=model.control_set)
    state = reduce_2d(model, ctrl, ens)
    with pytest.raises(RankDeficientBasis) as err:
        solve_absde_2d(model, state, basis=_DuplicateColumnBasis(), ridge=0.0)
    assert err.value.condition_number > 1e13
    # the backward sweep visits node n - 1 first, and the error names it
    n = GRID.n_horizon_steps
    assert str(err.value).endswith("at node %d (t=%g)" % (n - 1, NODES[n - 1]))
    # the default ridge regularizes the same degenerate basis into a solve
    sol = solve_absde_2d(model, state, basis=_DuplicateColumnBasis())
    assert np.all(np.isfinite(sol.p1))


_JUMPS = JumpSpec.discrete(1.0, [-0.5, 1.0], [0.5, 0.5])


def _absde_case(case, m, n_paths, seed):
    """(model, reduce_2d state) for the sweep's pinned and memory cases."""
    grid = make_grid(0.2, 1.0, m)
    spec = JumpSpec.none()
    if case == "linear":
        model = scenarios.linear_noisy_memory()
    elif case == "jumps":
        model, spec = scenarios.consumption(jump_scale=0.1, jump_spec=_JUMPS), _JUMPS
    else:
        model = scenarios.custom_affine(bx=0.3, bz=0.5, bu=1.0, sx=0.2, terminal_slope=1.0)
    ens = sample_ensemble(grid, spec, seed=seed, n_paths=n_paths)
    if case == "per-path-control":
        nodes = grid.horizon_nodes
        u = 1.0 + 0.1 * np.cos(np.arange(n_paths)[:, None] + 7.0 * nodes[None, :])
        ctrl = ControlPath(grid, u, control_set=model.control_set)
    else:
        ctrl = ControlPath.constant(grid, 1.0, control_set=model.control_set)
    return model, reduce_2d(model, ctrl, ens)


# sha256 of p1, p2, q1, q2, mu1, mu2, r1 and max_condition at 300 paths,
# seed 21.  The regressions sum through BLAS, so the digests hold per OpenBLAS
# build and CPU kernel; the thread count does not move them (ROADMAP item 5).
_ABSDE_DIGESTS = {
    # n = 20: the backward reads span a full and a partial 16-node block
    "linear-m4": ("linear", 4,
                  "e916511bb599722b03e49a3a84781aa1b0d2f9152e5c4274691635336afb967b"),
    "consumption-jumps-m8": ("jumps", 8,
                             "b1eefbcac005067839851f12b5a5498932e394f14ed9530f3776370c41b61861"),
    # custom-affine under a per-path control, read row by row, not broadcast
    "custom-affine-per-path-control": (
        "per-path-control", 8,
        "07a1a9a31830c17b54b481dad6f27a5073ddbe7f63e419dbf489ceb03a7b7a60"),
}


@pytest.mark.parametrize("label", sorted(_ABSDE_DIGESTS))
def test_absde_outputs_are_pinned_and_path_major(label):
    case, m, want = _ABSDE_DIGESTS[label]
    model, state = _absde_case(case, m, n_paths=300, seed=21)
    sol = solve_absde_2d(model, state)
    arrays = [sol.p1, sol.p2, sol.q1, sol.q2, sol.mu1, sol.mu2]
    arrays += list(sol.r1) if sol.r1 is not None else []
    h = hashlib.sha256()
    for a in arrays + [np.float64(sol.diagnostics["max_condition"])]:
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == want
    # verification.rms and friends reduce with np.mean, whose order follows layout
    for a in arrays:
        assert a.flags.c_contiguous and a.shape == (300, state.grid.n_horizon_steps + 1)


# sha256 of mu_generalized at the model's Hamiltonian partials and of the
# lift's p2, q2, mu2, mu1 and p2 residual, at 40 paths, seed 23, on the engine
# verification.window_engine picks: chaos for psi = 0.1, deterministic for
# psi = 0.  Recorded with the per-node engines these block methods replaced.
_ENGINE_DIGESTS = {
    "chaos-plain": "27ac1e056aca600e9d55a314717eb347923bced004bbd56b255c2c602ec4ba07",
    "chaos-ramp": "083c7f55ad86a1fa91a01d0e8b4366f97f0a6a6541da9b7959299576769cf9b5",
    "deterministic-plain": "8edabee19b087c9b07de1c4b75af1985d6a8e59d7fe78ceaa07d15920e304389",
    "deterministic-ramp": "9e57061be46583c7880cef613b3d479e5dd62c675a6aca0fc009f52470ab36f8",
}


@pytest.mark.parametrize("label", sorted(_ENGINE_DIGESTS))
def test_window_engine_outputs_are_pinned(label):
    if label.startswith("chaos"):
        model = scenarios.linear_noisy_memory()
        if label.endswith("ramp"):
            model.kernel = MemoryKernel.ramp(0.2)
    else:
        model = scenarios.generalized_memory() if label.endswith("ramp") else scenarios.consumption()
    ens = sample_ensemble(GRID, JumpSpec.none(), seed=23, n_paths=40)
    closed = verification.closed_form(model, ens)
    engine = verification.window_engine(model, GRID, closed)
    assert engine.f_paths.shape[0] == (40 if label.startswith("chaos") else 1)
    ctrl = ControlPath.constant(GRID, 1.0, control_set=model.control_set)
    state = simulate_state(model, ctrl, ens)
    ev = hamiltonian(model, *state.horizon_args(), p=closed.p, q=closed.q, r=None)
    mu = mu_generalized(ev.grad[0], ev.grad[1], engine, kernel=model.kernel)
    lifted, residual = lift_2d_from_1d(closed, engine, model, state)
    h = hashlib.sha256()
    for a in (mu, lifted.p2, lifted.q2, lifted.mu2, lifted.mu1, np.float64(residual)):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == _ENGINE_DIGESTS[label]


def _on_grid(model, m):
    grid = make_grid(0.2, 1.0, m)
    ens = sample_ensemble(grid, JumpSpec.none(), seed=5, n_paths=50)
    closed = _closed(model, ens)
    ctrl = ControlPath.constant(grid, 1.0, control_set=model.control_set)
    return SimpleNamespace(closed=closed, engine=_chaos_engine(model, closed), ctrl=ctrl,
                           state=simulate_state(model, ctrl, ens))


# Each call combines inputs on the m = 8 grid (a) with one on the m = 16 grid (b).
_MISMATCHED = {
    "mu_generalized": lambda md, a, b: mu_generalized(a.closed.p, None, b.engine),
    "bsde_residual_1d-adjoint": lambda md, a, b: bsde_residual_1d(b.closed, a.state, md, a.engine),
    "bsde_residual_1d-engine": lambda md, a, b: bsde_residual_1d(a.closed, a.state, md, b.engine),
    "bridge_1d_from_2d": lambda md, a, b: bridge_1d_from_2d(
        lift_2d_from_1d(a.closed, a.engine, md, a.state)[0], b.engine),
    "lift_2d_from_1d-engine": lambda md, a, b: lift_2d_from_1d(a.closed, b.engine, md, a.state),
    "lift_2d_from_1d-state": lambda md, a, b: lift_2d_from_1d(a.closed, a.engine, md, b.state),
    "control_partial_paths": lambda md, a, b: control_partial_paths(md, a.state, b.closed),
    "directional_derivative_H": lambda md, a, b: directional_derivative_H(
        md, a.state, b.closed, np.ones(a.ctrl.values.shape)),
    "check_necessary_I": lambda md, a, b: check_necessary_I(md, a.state, b.closed),
    "check_necessary_II": lambda md, a, b: check_necessary_II(md, a.state, b.closed),
    "check_sufficient": lambda md, a, b: check_sufficient(md, a.state, b.closed),
    "Chaos1WindowEngine": lambda md, a, b: Chaos1WindowEngine(
        b.closed.chaos, b.engine.coeff, a.closed.p),
}


@pytest.mark.parametrize("call", sorted(_MISMATCHED))
def test_inputs_on_another_grid_are_typed(call):
    """An adjoint, engine, state or partial on another grid is a GridMismatch
    naming both grids or shapes, not a numpy broadcast error or a silent
    misread."""
    model = scenarios.linear_noisy_memory()
    with pytest.raises(GridMismatch) as err:
        _MISMATCHED[call](model, _on_grid(model, 8), _on_grid(model, 16))
    message = str(err.value)
    assert "steps_per_delay=16" in message
    assert "steps_per_delay=8" in message or "(50, 41)" in message


def test_row_counts_and_dhy_off_the_engine_grid_are_typed():
    """An adjoint with another number of paths than the state, or a dH/dy or
    an engine coeff off the engine's grid, is a GridMismatch naming both
    shapes."""
    model = scenarios.linear_noisy_memory()
    a = _on_grid(model, 8)  # 50 paths
    closed_30 = _closed(model, sample_ensemble(a.state.grid, JumpSpec.none(), seed=6, n_paths=30))
    eta = np.ones(a.ctrl.values.shape)
    for call in (lambda: control_partial_paths(model, a.state, closed_30),
                 lambda: directional_derivative_H(model, a.state, closed_30, eta)):
        with pytest.raises(GridMismatch, match=r"\(30, 41\) on paths of shape \(50, 41\)"):
            call()
    with pytest.raises(GridMismatch, match=r"dHy of shape \(3, 81\).*steps_per_delay=8"):
        mu_generalized(a.closed.p, np.ones((3, 81)), a.engine)
    with pytest.raises(GridMismatch, match=r"dHy of shape \(1, 81\)"):
        mu_generalized(a.closed.p, np.ones(81), a.engine)
    # one row, or one per path, is what the routes read
    one_row = AdjointTriple(a.state.grid, a.closed.p[:1], a.closed.q[:1], None, None, {})
    assert control_partial_paths(model, a.state, one_row).shape == (50, 41)
    # an engine's deterministic factor needs one value per node of its F's grid
    with pytest.raises(GridMismatch, match=r"coeff of shape \(81,\).*needs \(41,\)"):
        Chaos1WindowEngine(a.closed.chaos, np.ones(81), a.closed.p)
    with pytest.raises(GridMismatch, match=r"coeff of shape \(81,\)"):
        Chaos1WindowEngine.deterministic(a.state.grid, np.ones(81))


# Traced peak of one call in (n_paths, n+1) float buffers, at 4000 paths x 40
# steps; the bounds are the peaks of the path-major sweep this one replaced.
@pytest.mark.parametrize("case, bound", [("linear", 9.08), ("jumps", 14.02)])
def test_absde_traced_peak_stays_within_bound(case, bound):
    model, state = _absde_case(case, 8, n_paths=4000, seed=3)
    solve_absde_2d(model, state)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        solve_absde_2d(model, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (8 * state.n_paths * (state.grid.n_horizon_steps + 1)) <= bound


def test_bridge_and_lift_round_trip():
    model = scenarios.linear_noisy_memory()
    ens = sample_ensemble(GRID, JumpSpec.none(), seed=9, n_paths=400)
    closed = _closed(model, ens)
    engine = _chaos_engine(model, closed)
    ctrl = ControlPath.constant(GRID, 1.0, control_set=model.control_set)
    state = simulate_state(model, ctrl, ens)
    triple = AdjointTriple(GRID, closed.p, closed.q, None, closed.mu, {})

    lifted, p2_residual = lift_2d_from_1d(triple, engine, model=model, state=state)
    assert lifted.p1 is triple.p  # the 1D block is carried, not copied
    assert np.isfinite(p2_residual)
    # q2 of the lift is the window reconstruction, so bridging back audits to 0
    back, deviation = bridge_1d_from_2d(lifted, engine)
    assert deviation == 0.0
    assert np.array_equal(back.p, closed.p)
    assert np.array_equal(back.q, closed.q)
    # and mu1 assembled from model partials matches the closed-form driver
    assert np.max(np.abs(lifted.mu1 - closed.mu)) <= 1e-10


def test_delay_past_the_horizon_advances_nothing():
    """delta = 2 > T = 1: no t + delta lies on [0, T], so mu and mu1 carry no dH/dy term."""
    grid = make_grid(2.0, 1.0, 12)  # m = 12 > n = 6
    model = scenarios.linear_noisy_memory(delta=2.0)
    ens = sample_ensemble(grid, JumpSpec.none(), seed=9, n_paths=100)
    closed = _closed(model, ens)
    engine = _chaos_engine(model, closed)
    ctrl = ControlPath.constant(grid, 1.0, control_set=model.control_set)
    state = simulate_state(model, ctrl, ens)
    triple = AdjointTriple(grid, closed.p, closed.q, None, closed.mu, {})
    ev = hamiltonian(model, *state.horizon_args(), p=closed.p, q=closed.q, r=None)
    without_y = mu_generalized(ev.grad[0], None, engine)
    dhy = np.ones_like(ev.grad[0])
    assert np.array_equal(mu_generalized(ev.grad[0], dhy, engine), without_y)
    lifted, _ = lift_2d_from_1d(triple, engine, model=model, state=state)
    assert np.array_equal(lifted.mu1, ev.grad[0] + lifted.q2)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_jump_adjoint_partials_match_per_node_hamiltonian(monkeypatch):
    """The regression route's node-indexed r feeds every Hamiltonian reader.

    Each reader evaluates the partials over the whole horizon block; they
    must equal a node-by-node evaluation with r sliced at the node, sign bits
    included.
    """
    spec = JumpSpec.discrete(1.0, [-0.5, 1.0], [0.5, 0.5])
    model = scenarios.consumption(jump_scale=0.1, jump_spec=spec)
    ens = sample_ensemble(GRID, spec, seed=14, n_paths=600)
    ctrl = ControlPath.constant(GRID, 1.0, control_set=model.control_set)
    state = reduce_2d(model, ctrl, ens)
    engine = Chaos1WindowEngine.deterministic(
        GRID, model.linear_spec.a0 * np.exp(0.3 * (1.0 - NODES)))
    triple, _ = bridge_1d_from_2d(solve_absde_2d(model, state), engine)
    r0, r1 = triple.r
    assert r0.shape == (600, GRID.n_horizon_steps + 1)

    n = GRID.n_horizon_steps
    m = GRID.steps_per_delay
    iz = GRID.index_zero
    u = ctrl.rows()
    ref = np.empty((4, 600, n + 1))
    for k in range(n + 1):
        ev = hamiltonian(
            model, NODES[k], state.x[:, iz + k], state.y[:, k], state.z[:, k], u[:, k],
            p=triple.p[:, k], q=triple.q[:, k], r=(r0[:, k], r1[:, k]),
        )
        for w in range(4):
            ref[w, :, k] = ev.grad[w]

    seen = {}

    def spy(dHx, dHy, eng, kernel=None):
        seen["dHx"], seen["dHy"] = dHx, dHy
        return mu_generalized(dHx, dHy, eng, kernel=kernel)

    monkeypatch.setattr(adjoint_mod, "mu_generalized", spy)
    sup, rms = bsde_residual_1d(triple, state, model, engine)
    assert _same_bits(seen["dHx"], ref[0]) and _same_bits(seen["dHy"], ref[1])
    # the residual, jump pairing included, against its node-by-node form
    h = GRID.step
    mu = mu_generalized(ref[0], ref[1], engine)
    marks = ens.step_mark_sums()
    residual = np.empty((600, n))
    for k in range(n):
        jump = (r0[:, k] * (ens.jump_counts[:, iz + k] - spec.intensity * h)
                + r1[:, k] * (marks[:, iz + k] - spec.levy_moment(1) * h))
        residual[:, k] = (triple.p[:, k + 1] - triple.p[:, k] + mu[:, k] * h
                          - triple.q[:, k] * ens.increments[:, iz + k] - jump)
    assert sup == float(np.max(np.abs(residual)))
    assert rms == float(np.sqrt(np.mean(residual**2)))

    lifted, _ = lift_2d_from_1d(triple, engine, model=model, state=state)
    mu1 = ref[0] + lifted.q2
    mu1[:, : n + 1 - m] += ref[1][:, m:]
    assert _same_bits(lifted.mu1, mu1)

    assert _same_bits(control_partial_paths(model, state, triple), ref[3])
    report = check_necessary_I(model, state, triple)
    assert _same_bits(report.details["node_means"], ref[3].mean(axis=0))


def test_lift_p2_matches_conditional_window_values():
    model = scenarios.linear_noisy_memory()
    ens = sample_ensemble(GRID, JumpSpec.none(), seed=10, n_paths=50)
    closed = _closed(model, ens)
    engine = _chaos_engine(model, closed)
    state = simulate_state(
        model, ControlPath.constant(GRID, 1.0, control_set=model.control_set), ens
    )
    lifted, _ = lift_2d_from_1d(closed, engine, model, state)
    assert _same_bits(lifted.p2, engine.conditional_windows())
    n = GRID.n_horizon_steps
    assert np.all(lifted.p2[:, n] == 0.0)  # empty window at the terminal node
    k = 5
    alpha = engine.chaos.alpha
    growth = np.exp(np.concatenate([[0.0], np.cumsum(alpha[k + 1 : k + 8] * GRID.step)]))
    window = GRID.step * (engine.coeff[k : k + 8] * growth).sum()
    assert np.allclose(lifted.p2[:, k], closed.p[:, k] * window, rtol=1e-15, atol=0.0)


def test_lift_reads_the_models_kernel():
    """A weighted-kernel model weights the lift's windows; a model without a
    kernel and one with the identity kernel both lift with the plain window."""
    model = scenarios.generalized_memory()
    ens = sample_ensemble(GRID, JumpSpec.none(), seed=10, n_paths=50)
    ctrl = ControlPath.constant(GRID, 1.0, control_set=model.control_set)
    state = simulate_state(model, ctrl, ens)
    engine = Chaos1WindowEngine.deterministic(GRID, np.exp(0.3 * (1.0 - NODES)))
    triple = AdjointTriple(GRID, np.ones((1, GRID.n_horizon_steps + 1)),
                           np.zeros((1, GRID.n_horizon_steps + 1)), None, None, {})
    weighted, _ = lift_2d_from_1d(triple, engine, model, state)
    assert _same_bits(weighted.p2, engine.conditional_windows(model.kernel))
    plain_model = scenarios.linear_noisy_memory()
    plain, _ = lift_2d_from_1d(triple, engine, plain_model, state)
    assert not np.array_equal(weighted.p2, plain.p2)
    plain_model.kernel = MemoryKernel.identity()  # also the plain window
    again, _ = lift_2d_from_1d(triple, engine, plain_model, state)
    assert _same_bits(again.p2, plain.p2)


def test_deterministic_engine_windows():
    """A deterministic path is the one-row chaos engine with F = 1."""
    values = np.exp(0.3 * (1.0 - NODES))
    engine = Chaos1WindowEngine.deterministic(GRID, values)
    n1 = GRID.n_horizon_steps + 1
    assert _same_bits(engine.values(), values[None, :])
    assert _same_bits(engine.malliavin_windows(), np.zeros((1, n1)))
    windows = engine.conditional_windows()
    assert windows.shape == (1, n1) and _same_bits(windows[:, -1], [0.0])
    k = 4
    expected = GRID.step * values[k : k + 8].sum()
    assert windows[0, k] == pytest.approx(expected, rel=1e-15)
    advanced = engine.advanced_conditionals()
    assert advanced[0, k] == values[k + 8]
    assert _same_bits(advanced[:, n1 - 8 :], np.zeros((1, 8)))


def test_quad_basis_shape():
    basis = QuadXZBasis()
    x = np.array([1.0, 2.0])
    z = np.array([0.5, -0.5])
    d = basis.design(x, z)
    assert d.shape == (2, 6)
    assert tuple(basis.names) == ("1", "x", "z", "x^2", "xz", "z^2")
    assert d[1, 4] == pytest.approx(2.0 * -0.5)
