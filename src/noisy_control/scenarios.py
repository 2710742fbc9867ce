"""Built-in model catalog: ready-made control problems used by tests and the CLI.

Each factory returns a CoefficientModel with analytic gradients.  The members
of the paper's linear noisy-memory family (linear_noisy_memory, consumption
and generalized_memory) also carry their adjoint.LinearBSDESpec as
model.linear_spec, from which the closed-form adjoint, the regression
cross-check and the bridge checks read the parameters; custom_affine has none.
"""

import numpy as np

from .adjoint import LinearBSDESpec
from .dynamics import (
    AffineJumpCoefficient,
    ControlSet,
    CoefficientModel,
    DeterministicTerminal,
    MemoryKernel,
    StochasticLinearTerminal,
)
from .malliavin import BrownianTerminal, Chaos1Exponential


def _as_time_fn(value):
    """Normalize a constant or callable-of-t into a vectorized callable.

    A constant comes back as itself for a scalar t, and filled to t's shape
    otherwise.
    """
    if callable(value):
        return value
    c = float(value)

    def fn(t):
        return c if np.ndim(t) == 0 else np.full(np.shape(t), c)

    return fn


def _constants(*values):
    """shape -> the tuple of `values` as read-only views broadcast to shape.

    The views are cached per shape, so a gradient with constant partials
    allocates nothing per call; no caller writes into a gradient partial.
    """
    scalars = [np.asarray(float(v)) for v in values]
    cache = {}

    def at(shape):
        views = cache.get(shape)
        if views is None:
            views = cache[shape] = tuple(np.broadcast_to(c, shape) for c in scalars)
        return views

    return at


def _log_utility():
    zeros = _constants(0.0, 0.0, 0.0)

    def cost(t, x, y, z, u):
        return np.log(u)

    def cost_grad(t, x, y, z, u):
        u = np.asarray(u, dtype=float)
        return zeros(u.shape) + (1.0 / u,)

    return cost, cost_grad


def _linear_utility(rate):
    c = float(rate)
    partials = _constants(0.0, 0.0, 0.0, c)

    def cost(t, x, y, z, u):
        return c * np.asarray(u, dtype=float)

    def cost_grad(t, x, y, z, u):
        return partials(np.shape(u))

    return cost, cost_grad


def _memory_drift(a0, a1):
    partials = _constants(a1, 0.0, a0, -1.0)

    def drift(t, x, y, z, u):
        return a1 * x + a0 * z - u

    def drift_grad(t, x, y, z, u):
        return partials(np.shape(x))

    return drift, drift_grad


def _proportional_diffusion(sigma0_fn):
    zeros = _constants(0.0, 0.0, 0.0)

    def diffusion(t, x, y, z, u):
        return sigma0_fn(t) * x

    def diffusion_grad(t, x, y, z, u):
        shape = np.shape(x)
        return (np.broadcast_to(np.asarray(sigma0_fn(t), dtype=float), shape),) + zeros(shape)

    return diffusion, diffusion_grad


def _lognormal_weight(psi_fn):
    """Terminal weight exp(sum psi(t_k) dB_k) over the horizon steps."""

    def weight(noise):
        grid = noise.grid
        psi_vals = np.asarray(psi_fn(grid.horizon_nodes[:-1]), dtype=float)
        return np.exp((psi_vals * noise.increments[:, grid.index_zero:]).sum(axis=1))

    return weight


def linear_noisy_memory(
    a0=0.5,
    a1=0.3,
    sigma0=0.2,
    psi=0.1,
    delta=0.2,
    horizon=1.0,
    xi0=1.0,
    control_set=(0.05, 20.0),
):
    """Linear memory dynamics with a lognormal terminal weight.

    dX = (a1 X + a0 Z - u) dt + sigma0(t) X dB, X = xi0 on [-delta, 0],
    running payoff ln(u), terminal payoff exp(int psi dB) * X(T).

    The adjoint BSDE of this model is solved in closed form by
    adjoint.solve_linear_closed_form, which is what makes it the main
    regression/bridge test fixture.
    """
    sigma0_fn = _as_time_fn(sigma0)
    psi_fn = _as_time_fn(psi)
    drift, drift_grad = _memory_drift(a0, a1)
    diffusion, diffusion_grad = _proportional_diffusion(sigma0_fn)
    cost, cost_grad = _log_utility()
    return CoefficientModel(
        drift=drift,
        diffusion=diffusion,
        running_cost=cost,
        terminal=StochasticLinearTerminal(_lognormal_weight(psi_fn)),
        initial_segment=_as_time_fn(xi0),
        control_set=ControlSet(*control_set),
        drift_grad=drift_grad,
        diffusion_grad=diffusion_grad,
        cost_grad=cost_grad,
        name="linear-noisy-memory",
        linear_spec=LinearBSDESpec(a0, a1, sigma0_fn, psi_fn, delta, horizon),
    )


def consumption(
    a0=0.5,
    a1=0.3,
    sigma0=0.2,
    delta=0.2,
    horizon=1.0,
    xi0=1.0,
    kernel=None,
    control_set=(0.05, 20.0),
    running="log",
    linear_rate=1.0,
    jump_scale=0.0,
    jump_spec=None,
):
    """Consumption problem: same memory dynamics, terminal payoff g(x) = x.

    With g' = 1 deterministic the adjoint collapses to the deterministic path
    p(t) = e^{a1 (T - t)}, q = 0, regardless of sigma0, a0, or the memory
    kernel — which is what makes this the fixture for the first-order
    condition and the maximum-principle checkers.  With f(t,u) = ln u the
    optimal control is u*(t) = e^{-a1 (T - t)}.

    Args:
        kernel: optional MemoryKernel, kept as model.kernel; the ramp kernel
            with a0=1 gives the generalized-memory variant where
            dX = (Z' + a1 X - u) dt + ...
        running: "log" for ln u, or "linear" for linear_rate * u (used to
            build boundary-optimum fixtures).
        jump_scale: adds the compensated jump term jump_scale * X dN~ with
            mark-proportional sizes; since the term is mean zero, the adjoint
            stays p(t) = e^{a1 (T - t)} with r = 0 — it only widens the
            ensemble.  Requires jump_spec (also stored on the model).
    """
    sigma0_fn = _as_time_fn(sigma0)
    drift, drift_grad = _memory_drift(a0, a1)
    diffusion, diffusion_grad = _proportional_diffusion(sigma0_fn)
    gamma = None
    if jump_scale:
        if jump_spec is None:
            raise ValueError("jump_scale needs a jump_spec for the mark law")
        g0 = float(jump_scale)
        zeros = _constants(0.0, 0.0, 0.0, 0.0)
        slope_partials = _constants(g0, 0.0, 0.0, 0.0)
        gamma = AffineJumpCoefficient(
            base=lambda t, x, y, z, u: zeros(np.shape(x))[0],
            slope=lambda t, x, y, z, u: g0 * np.asarray(x, dtype=float),
            base_grad=lambda t, x, y, z, u: zeros(np.shape(x)),
            slope_grad=lambda t, x, y, z, u: slope_partials(np.shape(x)),
        )
    if running == "log":
        cost, cost_grad = _log_utility()
    elif running == "linear":
        cost, cost_grad = _linear_utility(linear_rate)
    else:
        raise ValueError("running must be 'log' or 'linear'")
    return CoefficientModel(
        drift=drift,
        diffusion=diffusion,
        running_cost=cost,
        terminal=DeterministicTerminal(lambda x: x, grad=lambda x: np.ones(np.shape(x))),
        initial_segment=_as_time_fn(xi0),
        control_set=ControlSet(*control_set),
        jump_coefficient=gamma,
        jump_spec=jump_spec,
        drift_grad=drift_grad,
        diffusion_grad=diffusion_grad,
        cost_grad=cost_grad,
        name="consumption",
        kernel=kernel,
        linear_spec=LinearBSDESpec(a0, a1, sigma0_fn, _as_time_fn(0.0), delta, horizon),
    )


def generalized_memory(a1=0.3, sigma0=0.2, delta=0.2, horizon=1.0, xi0=1.0,
                       control_set=(0.05, 20.0)):
    """Consumption dynamics driven by the ramp-weighted memory integral.

    dX = (Z' + a1 X - u) dt + sigma0 X dB with Z'(t) = int_{t-delta}^t
    (s - t + delta)/delta X dB: the model's kernel is MemoryKernel.ramp(delta).
    """
    model = consumption(
        a0=1.0, a1=a1, sigma0=sigma0, delta=delta, horizon=horizon, xi0=xi0,
        kernel=MemoryKernel.ramp(delta), control_set=control_set,
    )
    model.name = "generalized-memory"
    return model


def custom_affine(
    bx=0.0,
    by=0.0,
    bz=0.0,
    bu=0.0,
    b_const=0.0,
    s_const=0.0,
    sx=0.0,
    running="quadratic",
    target=1.0,
    terminal_slope=0.0,
    delta=0.2,
    horizon=1.0,
    xi0=1.0,
    control_set=(-5.0, 5.0),
):
    """Fully explicit affine model for targeted checker tests.

    Drift b_const + bx x + by y + bz z + bu u, diffusion s_const + sx x,
    running payoff -(u - target)^2 / 2 ("quadratic"), target * u ("linear"),
    or +u^2 / 2 ("convex", a deliberately non-concave payoff for negative
    controls), terminal payoff terminal_slope * x.
    """
    drift_partials = _constants(bx, by, bz, bu)
    diffusion_partials = _constants(sx, 0.0, 0.0, 0.0)
    zeros = _constants(0.0, 0.0, 0.0)

    def drift(t, x, y, z, u):
        return b_const + bx * x + by * y + bz * z + bu * u

    def drift_grad(t, x, y, z, u):
        return drift_partials(np.shape(x))

    def diffusion(t, x, y, z, u):
        return s_const + sx * x

    def diffusion_grad(t, x, y, z, u):
        return diffusion_partials(np.shape(x))

    c = float(target)
    if running == "quadratic":
        def cost(t, x, y, z, u):
            return -0.5 * (u - c) ** 2

        def cost_grad(t, x, y, z, u):
            u = np.asarray(u, dtype=float)
            return zeros(u.shape) + (-(u - c),)
    elif running == "linear":
        cost, cost_grad = _linear_utility(c)
    elif running == "convex":
        def cost(t, x, y, z, u):
            return 0.5 * np.asarray(u, dtype=float) ** 2

        def cost_grad(t, x, y, z, u):
            u = np.asarray(u, dtype=float)
            return zeros(u.shape) + (u,)
    else:
        raise ValueError("running must be 'quadratic', 'linear', or 'convex'")

    k = float(terminal_slope)
    return CoefficientModel(
        drift=drift,
        diffusion=diffusion,
        running_cost=cost,
        terminal=DeterministicTerminal(lambda x: k * x, grad=lambda x: np.full(np.shape(x), k)),
        initial_segment=_as_time_fn(xi0),
        control_set=ControlSet(*control_set),
        drift_grad=drift_grad,
        diffusion_grad=diffusion_grad,
        cost_grad=cost_grad,
        name="custom-affine",
    )


def duality_battery(grid, include_brownian=True):
    """Fixture battery for the duality checker: 3 volatility loadings x 2 weights.

    Returns a list of (name, functional, phi) triples, each phi an array over
    grid's horizon nodes.  All entries are deterministic-coefficient members
    of the closed-form family, so both sides of the duality identity also
    have analytic values.
    """
    def psi_flat(t):
        return np.full(np.shape(np.asarray(t, dtype=float)), 0.1)

    def psi_zero(t):
        return np.zeros(np.shape(np.asarray(t, dtype=float)))

    def psi_wave(t):
        return 0.2 * (1.0 - 0.5 * np.asarray(t, dtype=float))

    phi_one = np.ones(grid.n_horizon_steps + 1)
    phi_ramp = 0.5 + grid.horizon_nodes
    battery = []
    for psi_name, psi in (("flat", psi_flat), ("zero", psi_zero), ("wave", psi_wave)):
        mart = lambda t, p=psi: -0.5 * np.asarray(p(t), dtype=float) ** 2
        spec = Chaos1Exponential(grid, psi, mart)
        for phi_name, phi in (("one", phi_one), ("ramp", phi_ramp)):
            battery.append(("psi-%s/phi-%s" % (psi_name, phi_name), spec, phi))
    if include_brownian:
        battery.append(("brownian/phi-one", BrownianTerminal(grid), phi_one))
    return battery


CATALOG = {
    "linear-noisy-memory": {
        "factory": linear_noisy_memory,
        "summary": "linear memory SDE, log utility, lognormal terminal weight; "
                   "closed-form adjoint available",
    },
    "consumption": {
        "factory": consumption,
        "summary": "linear memory SDE, log utility, terminal payoff x; "
                   "deterministic adjoint and explicit optimal control",
    },
    "generalized-memory": {
        "factory": generalized_memory,
        "summary": "consumption dynamics with the ramp-weighted memory window",
    },
    "custom-affine": {
        "factory": custom_affine,
        "summary": "fully explicit affine coefficients for targeted checker tests",
    },
}
