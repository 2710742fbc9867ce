"""Forward simulation: delayed state, memory window, jumps, performance."""

import hashlib
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisy_control import adjoint, cli, dynamics, maxprinciple, scenarios, verification
from noisy_control.dynamics import (
    AffineJumpCoefficient,
    CallableJumpCoefficient,
    CoefficientModel,
    ControlPath,
    ControlSet,
    MemoryKernel,
    evaluate_performance,
    reduce_2d,
    simulate_state,
)
from noisy_control.errors import (
    GradientMismatch,
    GridMismatch,
    KernelNotReducible,
    NonFiniteState,
    OutOfControlSet,
)
from noisy_control.maxprinciple import derivative_process, probe_directions
from noisy_control.paths import JumpSpec, coarsen, make_grid, sample_ensemble


def _frozen_state_model(xi0=1.0):
    """Coefficients all zero: the state stays at xi0 and Z is a pure B-window."""
    return scenarios.custom_affine(xi0=xi0)


def test_window_is_brownian_difference_for_frozen_state():
    g = make_grid(0.2, 1.0, 8)
    ens = sample_ensemble(g, JumpSpec.none(), seed=0, n_paths=20)
    model = _frozen_state_model()
    state = simulate_state(model, ControlPath.constant(g, 0.0), ens)
    assert np.all(state.x == 1.0)
    m = g.steps_per_delay
    for i in range(ens.n_paths):
        b = ens.path(i).brownian()[0]
        expected = b[m:] - b[: g.n_horizon_steps + 1]
        assert np.array_equal(state.z[i], expected)


def test_delay_argument_is_shifted_state():
    model = scenarios.linear_noisy_memory()
    g = make_grid(0.2, 1.0, 8)
    ens = sample_ensemble(g, JumpSpec.none(), seed=1, n_paths=5)
    state = simulate_state(model, ControlPath.constant(g, 1.0), ens)
    m = g.steps_per_delay
    assert np.array_equal(state.y, state.x[:, : g.n_horizon_steps + 1])
    assert np.array_equal(state.y[:, m:], state.x[:, m : g.index_zero + g.n_horizon_steps + 1 - m])


def test_geometric_model_discrete_moments():
    """Euler recursion of dX = a X dt + s X dB has exactly computable moments."""
    a, s = 0.3, 0.2
    model = scenarios.custom_affine(bx=a, sx=s, xi0=1.0)
    g = make_grid(0.2, 1.0, 8)
    n = g.n_horizon_steps
    ens = sample_ensemble(g, JumpSpec.none(), seed=2, n_paths=20000)
    state = simulate_state(model, ControlPath.constant(g, 0.0), ens)
    xt = state.terminal_x
    h = g.step
    mean_exact = (1 + a * h) ** n
    second_exact = ((1 + a * h) ** 2 + s**2 * h) ** n
    se_mean = xt.std(ddof=1) / np.sqrt(len(xt))
    assert abs(xt.mean() - mean_exact) < 4 * se_mean
    sq = xt**2
    se_sq = sq.std(ddof=1) / np.sqrt(len(sq))
    assert abs(sq.mean() - second_exact) < 4 * se_sq


def test_identity_kernel_shares_window_arithmetic():
    model = scenarios.linear_noisy_memory()
    g = make_grid(0.2, 1.0, 8)
    ens = sample_ensemble(g, JumpSpec.none(), seed=3, n_paths=8)
    ctrl = ControlPath.constant(g, 1.0, control_set=model.control_set)
    plain = simulate_state(model, ctrl, ens)
    model.kernel = MemoryKernel.identity()
    flagged = simulate_state(model, ctrl, ens)
    assert np.array_equal(plain.x, flagged.x)
    assert np.array_equal(flagged.z_general, flagged.z)

    # an unflagged phi = 1 kernel resummes the window, so only ulp-level equal
    flat = MemoryKernel(lambda t, s: np.ones_like(np.asarray(s, dtype=float)), 1.0)
    model.kernel = flat
    resummed = simulate_state(model, ctrl, ens)
    assert np.max(np.abs(resummed.z_general - plain.z)) < 1e-13
    assert np.max(np.abs(resummed.x - plain.x)) < 1e-12


def test_ramp_kernel_downweights_old_noise():
    """The ramp gives weight ~0 to the oldest window node and ~1 to the newest."""
    g = make_grid(0.2, 1.0, 8)
    kernel = MemoryKernel.ramp(0.2)
    w = kernel.weights(g, g.index_zero + 8)
    assert w.shape == (8,)
    assert w[0] == pytest.approx(0.0)  # left-point node at s = t - delta
    assert w[-1] == pytest.approx(7.0 / 8.0)
    ens = sample_ensemble(g, JumpSpec.none(), seed=4, n_paths=4)
    model = _frozen_state_model()
    model.kernel = kernel
    state = simulate_state(model, ControlPath.constant(g, 0.0), ens)
    k = g.index_zero + 8
    manual = ens.increments[:, k - 8 : k] @ w
    assert np.allclose(state.z_general[:, 8], manual, rtol=0, atol=1e-15)


def test_reduce_2d_prefix_identity_and_kernel_guard():
    model = scenarios.linear_noisy_memory()
    g = make_grid(0.2, 1.0, 8)
    ens = sample_ensemble(g, JumpSpec.none(), seed=5, n_paths=10)
    ctrl = ControlPath.constant(g, 1.0, control_set=model.control_set)
    state = reduce_2d(model, ctrl, ens)
    m = g.steps_per_delay
    window = state.x2[:, m:] - state.x2[:, : g.n_horizon_steps + 1]
    assert np.array_equal(state.z, window)

    # the generalized-memory model carries the ramp kernel: the reduction
    # refuses it, and the plain simulation weights its window with it
    ramp_model = scenarios.generalized_memory()
    with pytest.raises(KernelNotReducible):
        reduce_2d(ramp_model, ctrl, ens)
    ramp = simulate_state(ramp_model, ctrl, ens)
    assert ramp.z_general is not None and ramp.z_general is not ramp.z
    iz = g.index_zero
    for k in (0, 3, g.n_horizon_steps):
        j = iz + k
        terms = ramp.x[:, j - m : j] * ens.increments[:, j - m : j]
        manual = terms @ MemoryKernel.ramp(0.2).weights(g, j)
        assert np.allclose(ramp.z_general[:, k], manual, rtol=0, atol=1e-15)


def test_no_public_function_takes_a_kernel_beside_its_model():
    """The memory kernel lives on the model: passing one beside it again
    would let the two disagree."""
    offenders = []
    for module in (dynamics, maxprinciple, adjoint, verification, scenarios, cli):
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            params = inspect.signature(obj).parameters
            if "model" in params and "kernel" in params:
                offenders.append("%s.%s" % (module.__name__, name))
    assert offenders == []


def test_constant_cost_integrates_to_horizon_exactly():
    # binary-exact grid: h = 1/32, so n * h is exact and J == T bitwise
    model = scenarios.custom_affine(running="linear", target=1.0, delta=0.25)
    g = make_grid(0.25, 1.0, 8)
    ens = sample_ensemble(g, JumpSpec.none(), seed=6, n_paths=3)
    j_value, se, per_path = evaluate_performance(
        model, ControlPath.constant(g, 1.0), ens
    )
    assert np.all(per_path == 1.0)
    assert j_value == 1.0
    assert se == 0.0


def test_state_is_adapted_to_the_driving_noise():
    """Bumping a Brownian increment must not move the state before that step."""
    model = scenarios.linear_noisy_memory()
    g = make_grid(0.2, 1.0, 8)
    noise = sample_ensemble(g, JumpSpec.none(), seed=7, n_paths=1)
    ctrl = ControlPath.constant(g, 1.0, control_set=model.control_set)
    base = simulate_state(model, ctrl, noise)
    step = g.index_zero + 12
    bumped = simulate_state(model, ctrl, noise.with_bumped_increment(step, 0.3))
    assert np.array_equal(base.x[:, : step + 1], bumped.x[:, : step + 1])
    assert not np.array_equal(base.x[:, step + 1 :], bumped.x[:, step + 1 :])


def test_strong_error_shrinks_with_the_step():
    """Coupled coarsenings of one fine ensemble: the terminal strong error
    must fall monotonically, at the drift-dominated rate seen for this fixture
    (the diffusion correction sigma*sigma' = 0.04 X is small at these steps)."""
    model = scenarios.linear_noisy_memory()
    fine = sample_ensemble(make_grid(0.2, 1.0, 32), JumpSpec.none(), seed=90, n_paths=4000)

    def terminal(noise):
        g = noise.grid
        ctrl = ControlPath.constant(g, 1.0, control_set=model.control_set)
        return simulate_state(model, ctrl, noise).terminal_x

    ref = terminal(fine)
    e8 = np.abs(terminal(coarsen(fine, 4)) - ref).mean()
    e16 = np.abs(terminal(coarsen(fine, 2)) - ref).mean()
    assert e16 < e8
    assert 1.7 < e8 / e16 < 3.0


def test_check_gradients_accepts_correct_and_rejects_wrong():
    model = scenarios.linear_noisy_memory()
    worst = model.check_gradients(seed=0)
    assert worst < 1e-4

    bad = scenarios.custom_affine(bx=0.1, sx=0.2)
    bad._drift_grad = lambda t, x, y, z, u: (
        np.full(np.shape(x), 0.9),  # should be 0.1
        np.zeros(np.shape(x)),
        np.zeros(np.shape(x)),
        np.zeros(np.shape(x)),
    )
    with pytest.raises(GradientMismatch):
        bad.check_gradients(seed=0)


def test_control_set_and_path_validation():
    cs = ControlSet(0.0, 2.0)
    assert cs.midpoint == 1.0
    assert not cs.is_singleton
    assert ControlSet(1.5, 1.5).is_singleton
    g = make_grid(0.2, 1.0, 8)
    with pytest.raises(OutOfControlSet):
        ControlPath.constant(g, 3.0, control_set=cs)
    path = ControlPath.constant(g, 1.0, control_set=cs)
    shifted = path.shifted_by(np.ones(g.n_horizon_steps + 1), 0.5)
    assert shifted.values[0] == 1.5
    with pytest.raises(OutOfControlSet):
        path.shifted_by(np.ones(g.n_horizon_steps + 1), 5.0)
    with pytest.raises(ValueError):
        ControlPath(g, np.ones(7))


def test_exploding_state_raises_with_step_info():
    model = scenarios.custom_affine(bx=1e12)  # overflows double range mid-run
    g = make_grid(0.2, 1.0, 8)
    ens = sample_ensemble(g, JumpSpec.none(), seed=8, n_paths=2)
    with pytest.raises(NonFiniteState) as err, np.errstate(over="ignore"):
        simulate_state(model, ControlPath.constant(g, 0.0), ens)
    assert err.value.step is not None


def test_compensated_jumps_preserve_the_mean():
    """gamma = c x zeta with compensator subtracted leaves E[X(T)] unchanged."""
    spec = JumpSpec.discrete(1.0, [-0.5, 1.0], [0.5, 0.5])
    with_jumps = scenarios.consumption(jump_scale=0.1, jump_spec=spec)
    without = scenarios.consumption()
    g = make_grid(0.2, 1.0, 8)
    ctrl_kwargs = dict(control_set=without.control_set)
    ens_j = sample_ensemble(g, spec, seed=9, n_paths=20000)
    ens_0 = sample_ensemble(g, JumpSpec.none(), seed=9, n_paths=20000)
    xt_j = simulate_state(with_jumps, ControlPath.constant(g, 1.0, **ctrl_kwargs), ens_j).terminal_x
    xt_0 = simulate_state(without, ControlPath.constant(g, 1.0, **ctrl_kwargs), ens_0).terminal_x
    se = np.hypot(
        xt_j.std(ddof=1) / np.sqrt(len(xt_j)), xt_0.std(ddof=1) / np.sqrt(len(xt_0))
    )
    assert abs(xt_j.mean() - xt_0.mean()) < 4 * se


def test_affine_and_callable_jump_coefficients_agree():
    spec = JumpSpec.discrete(2.0, [-0.5, 1.0], [0.5, 0.5])
    base = lambda t, x, y, z, u: 0.1 * x
    slope = lambda t, x, y, z, u: 0.2 * x + 0.05 * z
    affine = AffineJumpCoefficient(base, slope)
    general = CallableJumpCoefficient(
        lambda t, x, y, z, u, zeta: base(t, x, y, z, u) + slope(t, x, y, z, u) * zeta
    )
    x = np.array([1.0, 2.0])
    z = np.array([0.3, -0.1])
    args = (0.5, x, x, z, 1.0)
    assert np.allclose(
        affine.nu_integral(*args, spec), general.nu_integral(*args, spec), atol=1e-14
    )
    assert np.allclose(
        affine.pair_nu_integral(*args, 0.7, -0.2, spec),
        general.pair_nu_integral(*args, 0.7, -0.2, spec),
        atol=1e-14,
    )
    vec4 = (1.0, 0.5, -0.3, 0.0)
    assert np.allclose(
        affine.grad_dot_nu_integral(*args, vec4, spec),
        general.grad_dot_nu_integral(*args, vec4, spec),
        atol=1e-8,  # callable route differentiates numerically
    )
    for got, want in zip(general.pair_grad_nu_integral(*args, 0.7, -0.2, spec),
                         affine.pair_grad_nu_integral(*args, 0.7, -0.2, spec)):
        assert np.allclose(got, want, atol=1e-8)
    assert np.allclose(
        affine.evaluate(*args, 0.7), general.evaluate(*args, 0.7), atol=0.0
    )


def test_callable_pair_grad_takes_one_gradient_per_quadrature_node():
    """Eight fn calls per node (central differences, four partials), and each
    partial summed bit for bit as nu_expectation sums it alone."""
    calls = []

    def fn(t, x, y, z, u, zeta):
        calls.append(zeta)
        return _gamma_nonaffine(t, x, y, z, u, zeta)

    gamma = CallableJumpCoefficient(fn)
    spec = JumpSpec.gaussian(1.5, 0.2, 0.4)
    assert len(spec.quad_nodes) == 21
    x = np.array([1.0, -0.4, 2.5])
    args = (0.3, x, 0.5 * x, np.array([0.2, 0.1, -0.3]), np.array([1.0, 0.5, 2.0]))
    r0, r1 = np.array([0.7, -0.1, 0.3]), -0.2
    got = gamma.pair_grad_nu_integral(*args, r0, r1, spec)
    assert len(calls) == 168
    for i, component in enumerate(got):
        want = spec.nu_expectation(lambda zeta: gamma.grad(*args, zeta)[i] * (r0 + r1 * zeta))
        assert np.array_equal(component, want)
    assert gamma.pair_grad_nu_integral(*args, r0, r1, JumpSpec.none()) == (0.0,) * 4


def _gamma_nonaffine(t, x, y, z, u, zeta):
    return (0.1 * x + 0.3 * y * z) * zeta + 0.05 * u * zeta * zeta - 0.2 * t * x


def _step_sums_by_path_loop(gamma, t, x, y, z, u, vec4, noise, k):
    """The per-path, per-mark reference: gamma and grad gamma . vec4 added
    mark by mark in draw order, each path's arguments read from its own row."""
    def row(a, i):
        a = np.asarray(a)
        return a if not a.ndim else (a[i] if a.shape[0] > 1 else a[0])

    out = np.zeros(noise.n_paths)
    out_dot = np.zeros(noise.n_paths)
    for i in range(noise.n_paths):
        first = int(noise.jump_counts[:i].sum() + noise.jump_counts[i, :k].sum())
        args = [row(a, i) for a in (x, y, z, u)]
        for zeta in noise.jump_marks[first : first + noise.jump_counts[i, k]]:
            out[i] += gamma.fn(t, *args, zeta)
            grads = gamma.grad(t, *args, zeta)
            out_dot[i] += sum(g * row(v, i) for g, v in zip(grads, vec4))
    return out, out_dot


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(
    intensity=st.sampled_from([1.0, 40.0, 200.0]),
    n_paths=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    shared_u=st.booleans(),
    factor=st.sampled_from([1, 2, 4]),
)
# about 40 jumps per path in a coarse step, with per-path and shared u
@example(intensity=200.0, n_paths=6, seed=1, shared_u=False, factor=4)
@example(intensity=200.0, n_paths=6, seed=2, shared_u=True, factor=2)
def test_callable_step_sum_equals_the_per_path_loop_bitwise(intensity, n_paths, seed,
                                                            shared_u, factor):
    """One fn call per step, summed per path, gives the mark-by-mark loop's bits."""
    g = make_grid(0.2, 0.4, 4)
    spec = JumpSpec.gaussian(intensity, 0.3, 1.0)
    noise = coarsen(sample_ensemble(g, spec, seed, n_paths), factor)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    x, y, z, kz = gen.normal(size=(4, n_paths))
    u = gen.uniform(0.5, 2.0, size=1 if shared_u else n_paths)
    vec4 = (x - 1.0, 0.5, kz, u[:1] if shared_u else u)
    gamma = CallableJumpCoefficient(_gamma_nonaffine)
    for k in range(noise.grid.n_steps):
        t = noise.grid.nodes[k]
        want, want_dot = _step_sums_by_path_loop(gamma, t, x, y, z, u, vec4, noise, k)
        assert gamma.step_sum(t, x, y, z, u, noise, k).tobytes() == want.tobytes()
        got_dot = gamma.grad_dot_step_sum(t, x, y, z, u, vec4, noise, k)
        assert got_dot.tobytes() == want_dot.tobytes()


def test_jump_moment_identities_close_under_affine_pairing():
    """pair integrals must equal the result of expanding moment by moment."""
    spec = JumpSpec.discrete(1.5, [-1.0, 0.5, 2.0], [0.2, 0.5, 0.3])
    affine = AffineJumpCoefficient(
        lambda t, x, y, z, u: 0.3, lambda t, x, y, z, u: 0.8
    )
    args = (0.0, 1.0, 1.0, 0.0, 1.0)
    r0, r1 = 0.4, -0.6
    manual = (
        0.3 * r0 * spec.levy_moment(0)
        + (0.3 * r1 + 0.8 * r0) * spec.levy_moment(1)
        + 0.8 * r1 * spec.levy_moment(2)
    )
    assert affine.pair_nu_integral(*args, r0, r1, spec) == pytest.approx(manual)


def test_performance_common_random_numbers():
    """Same seed means the J difference of two controls has tiny variance."""
    model = scenarios.linear_noisy_memory()
    g = make_grid(0.2, 1.0, 8)
    ens = sample_ensemble(g, JumpSpec.none(), seed=10, n_paths=500)
    cs = model.control_set
    _, _, per_a = evaluate_performance(model, ControlPath.constant(g, 1.0, control_set=cs), ens)
    _, _, per_b = evaluate_performance(model, ControlPath.constant(g, 1.01, control_set=cs), ens)
    diff = per_a - per_b
    assert diff.std(ddof=1) < 0.1 * per_a.std(ddof=1)


# sha256 of the per-path J at 200 paths, steps_per_delay=8, noise seed 5 and
# constant control 1.0 (custom-affine: a per-path control), recorded with the
# J read from a simulated StateBundle.  The weighted window of
# generalized-memory is a BLAS matrix-vector product and state-cost calls exp
# and log1p, so those two digests hold on one machine and numpy/BLAS build.
_PERFORMANCE_DIGESTS = {
    "linear-noisy-memory": "e0547595782d58d51723c04deb81859dba40ec6c89c4bef2733fab6f0d5b612c",
    "consumption-affine-jumps": "8593940e02bb47a9bc58dd6b885f03a528bf80e99ae4ef6688a4d2d137020edb",
    "consumption-callable-jumps": "8593940e02bb47a9bc58dd6b885f03a528bf80e99ae4ef6688a4d2d137020edb",
    "generalized-memory": "dc7d961ddc25ddae12be70dc5c67e337cbd1e97c4dc0145e8abdf75a5b9c392c",
    "custom-affine-full": "18295af0db81b0a0644593719651320ef8aa0ace63c3da7b87d8c9a02a689369",
    "state-cost": "bf465f03f8e57df754d1df9a5ac3358b1998ad11c46ef1b74c56e11c72652291",
}


def _performance_case(case, g):
    spec = JumpSpec.none()
    if case == "linear-noisy-memory":
        model = scenarios.linear_noisy_memory()
    elif case.startswith("consumption"):
        spec = JumpSpec.discrete(1.0, [-0.5, 1.0], [0.5, 0.5])
        model = scenarios.consumption(jump_scale=0.1, jump_spec=spec)
        if case == "consumption-callable-jumps":
            model.gamma = CallableJumpCoefficient(lambda t, x, y, z, u, zeta: 0.1 * x * zeta)
    elif case == "generalized-memory":
        model = scenarios.generalized_memory()
    elif case == "custom-affine-full":
        model = scenarios.custom_affine(bx=0.3, by=-0.2, bz=0.5, bu=0.4, sx=0.2,
                                        s_const=0.1, terminal_slope=1.5)
    else:
        # the built-in running costs read only u; this one reads every argument,
        # and the diffusion hands back the delayed state row itself
        base = scenarios.linear_noisy_memory()
        model = CoefficientModel(
            drift=base.drift, diffusion=lambda t, x, y, z, u: y,
            running_cost=lambda t, x, y, z, u: np.exp(-x) * y + np.log1p(z * z) - t * u * u,
            terminal=base.terminal, initial_segment=base.initial_segment,
            control_set=base.control_set, name=case,
        )
    ens = sample_ensemble(g, spec, seed=5, n_paths=200)
    if case == "custom-affine-full":
        values = np.random.default_rng(1).uniform(-1, 1, (200, g.n_horizon_steps + 1))
        ctrl = ControlPath(g, values, "full", model.control_set)
    else:
        ctrl = ControlPath.constant(g, 1.0, control_set=model.control_set)
    return model, ctrl, ens


@pytest.mark.parametrize("case", sorted(_PERFORMANCE_DIGESTS))
def test_state_free_performance_matches_the_state_bitwise(case):
    g = make_grid(0.2, 1.0, 8)
    model, ctrl, ens = _performance_case(case, g)
    j_free, se_free, free = evaluate_performance(model, ctrl, ens)
    j_held, se_held, held = evaluate_performance(
        model, ctrl, ens, state=simulate_state(model, ctrl, ens)
    )
    assert free.dtype == held.dtype and free.shape == held.shape == (200,)
    assert free.tobytes() == held.tobytes()
    assert (j_free, se_free) == (j_held, se_held)
    assert hashlib.sha256(free.tobytes()).hexdigest() == _PERFORMANCE_DIGESTS[case]


def test_state_free_performance_raises_typed_errors():
    g = make_grid(0.2, 1.0, 8)
    ens = sample_ensemble(g, JumpSpec.none(), seed=8, n_paths=2)
    with pytest.raises(GridMismatch):
        evaluate_performance(
            scenarios.custom_affine(), ControlPath.constant(make_grid(0.2, 1.0, 4), 0.0), ens
        )
    model = scenarios.custom_affine(bx=1e300)  # finite after one step, inf after two
    with pytest.raises(NonFiniteState) as err, np.errstate(over="ignore"):
        evaluate_performance(model, ControlPath.constant(g, 0.0), ens)
    assert err.value.step == g.index_zero + 1
    assert err.value.time == g.nodes[g.index_zero + 1]


# One state-free J holds a ring of state rows, not a StateBundle: reading J
# from a simulated state peaks at 3.55 (n_paths, n_nodes) float buffers here.
@pytest.mark.parametrize("name", ["linear_noisy_memory", "consumption"])
def test_state_free_performance_traced_peak_stays_below_two_buffers(name):
    model = getattr(scenarios, name)()
    g = make_grid(0.2, 1.0, 64)
    ens = sample_ensemble(g, JumpSpec.none(), seed=3, n_paths=4000)
    ctrl = ControlPath.constant(g, 3.0, control_set=model.control_set)
    evaluate_performance(model, ctrl, ens)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        evaluate_performance(model, ctrl, ens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (8 * ens.n_paths * g.n_nodes) < 2.0


# sha256 of the sweep outputs at 200 paths, steps_per_delay=8, noise seed 5,
# constant control 1.0 and the random probe direction.  The plain-window cases
# use only elementwise + and *, so their bits hold on any IEEE-754 machine;
# the ramp kernel's window is a BLAS matrix-vector product, so its digests
# hold on one machine and BLAS build.
_SWEEP_DIGESTS = {
    "linear-noisy-memory": (
        "82f9b2a2f50ae5914d4e72aaa273295d2ba08b050a56e2220a7de0f238883ddb",
        "c4ce790954caf5a675c4d60626b3f789d6053c29d201ac1d305b8fec1643e5c8",
        "258855b8934ad1a4c9411569b164e57625aea64a3d09654fe21a580196cda548",
    ),
    "consumption-affine-jumps": (
        "4b052cc8d81a04bf484027f399e4a1fe46fabaeabbac9441e887cbbaa7e7edc6",
        "2bf25b1e172b5a3167ebb383f99f5b7d94df4fc35a3546b03d90d67322338e61",
        "4be82c0929af24d4bccadd150e37cf3293368edf9c2739721b2cafdf2b17886d",
    ),
    "ramp-kernel": (
        "3fd15dc4dc6d44efe07fb9a2446f29b1c411403303f01662bebc60abac6ada53",
        None,
        "c907929c1eb3ed7709368464e4c1dc2e598e15d2a2accaaf076f6188c4d075f2",
    ),
}


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(_SWEEP_DIGESTS))
def test_sweep_outputs_are_pinned_and_path_major(case):
    g = make_grid(0.2, 1.0, 8)
    spec = JumpSpec.none()
    if case == "linear-noisy-memory":
        model = scenarios.linear_noisy_memory()
    elif case == "consumption-affine-jumps":
        spec = JumpSpec.discrete(1.0, [-0.5, 1.0], [0.5, 0.5])
        model = scenarios.consumption(jump_scale=0.1, jump_spec=spec)
    else:
        model = scenarios.generalized_memory()
    ens = sample_ensemble(g, spec, seed=5, n_paths=200)
    ctrl = ControlPath.constant(g, 1.0, control_set=model.control_set)
    state = simulate_state(model, ctrl, ens)
    kb = derivative_process(model, state, probe_directions(g)[3][1])
    want_state, want_x2, want_tangent = _SWEEP_DIGESTS[case]
    assert _digest(state.x, state.y, state.z, state.memory_arg) == want_state
    assert _digest(kb.k, kb.kz) == want_tangent
    # downstream reductions (sums over paths or nodes, kernel matvecs) read
    # these arrays, and their bits depend on the memory layout
    bundles = [state]
    if want_x2 is not None:
        reduced = reduce_2d(model, ctrl, ens)
        assert _digest(reduced.x2) == want_x2
        bundles.append(reduced)
    for bundle in bundles:
        arrays = [bundle.x, bundle.y, bundle.z, bundle.memory_arg]
        arrays += [] if bundle.x2 is None else [bundle.x2]
        for arr in arrays:
            assert arr.flags.c_contiguous and arr.shape[0] == 200


def test_exploding_derivative_process_raises_with_step_info():
    # the state stays at xi0 under u = 0, but its tangent overflows at once
    model = scenarios.custom_affine(bu=1e308)
    g = make_grid(0.2, 1.0, 8)
    ens = sample_ensemble(g, JumpSpec.none(), seed=8, n_paths=2)
    state = simulate_state(model, ControlPath.constant(g, 0.0), ens)
    with pytest.raises(NonFiniteState) as err, np.errstate(over="ignore", invalid="ignore"):
        derivative_process(model, state, np.full(g.n_horizon_steps + 1, 10.0))
    assert err.value.step == g.index_zero
