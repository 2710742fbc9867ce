"""Adjoint machinery: Hamiltonian evaluation and the backward equations.

Two independent routes to the adjoint processes are implemented and checked
against each other:

* the one-dimensional backward equation with the anticipating "noisy memory"
  driver, solved in closed form for the linear family (LinearBSDESpec) and
  measured by a pathwise residual checker in general, and
* the two-dimensional time-advanced backward equation obtained from the
  memory reduction, solved by a least-squares Monte Carlo sweep.

The bridge between the two (reconstructing the second martingale component
q2 from a Malliavin window integral, and conversely lifting a 1D solution to
the 2D system) is provided in both directions; the acceptance checks grade
the closed form's q2 through bridge_1d_from_2d.

Both routes and the bridge read the driver's noisy-memory window through one
Chaos1WindowEngine, in blocks over the whole horizon: each engine method
returns (rows, n+1), with the row count of the engine's f_paths (one row for
a deterministic path), and the window blocks' terminal column is +0.0.  The
engine reads its grid, loading and growth rate from its first-chaos
exponential F, the object the closed form's adjoint p is; every reader checks
the grid against its other inputs and raises GridMismatch naming both.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (FixedPointDiverged, GridMismatch, NotReduced, RankDeficientBasis,
                     TooFewPaths)
from .malliavin import Chaos1Exponential, horizon_values
from .paths import _time_major

_COND_LIMIT = 1e13


# ---------------------------------------------------------------------------
# Hamiltonian


@dataclass
class HamiltonianEval:
    """Value and (x, y, z, u) gradient of the Hamiltonian at one point."""

    value: np.ndarray
    grad: tuple


def _r_pair(r):
    if r is None:
        return None
    if isinstance(r, (tuple, list)):
        r0, r1 = r
        return np.asarray(r0, dtype=float), np.asarray(r1, dtype=float)
    return np.asarray(r, dtype=float), np.zeros(np.shape(np.asarray(r)))


def hamiltonian(model, t, x, y, z, u, p, q, r=None):
    """Evaluate f + b p + sigma q + jump pairing, with its 4-gradient.

    Args:
        model: CoefficientModel.
        t: time, or the row of horizon times for a whole-horizon block.
        x, y, z, u, p, q: scalars, per-path arrays, or (rows, n+1) blocks
            on the horizon nodes (StateBundle.horizon_args).
        r: jump adjoint as an affine pair (r0, r1) meaning r(zeta) = r0 +
            r1 * zeta, a bare array (slope taken as 0), or None.  Each
            component is a scalar or, for a block, a node-indexed (rows, n+1)
            array aligned with x.

    Returns:
        HamiltonianEval; the jump term is the nu-quadrature pairing of gamma
        with r and is dropped for models without jumps.
    """
    value = (
        model.running_cost(t, x, y, z, u)
        + model.drift(t, x, y, z, u) * p
        + model.diffusion(t, x, y, z, u) * q
    )
    fg = model.cost_grad(t, x, y, z, u)
    bg = model.drift_grad(t, x, y, z, u)
    sg = model.diffusion_grad(t, x, y, z, u)
    grad = [fg[i] + bg[i] * p + sg[i] * q for i in range(4)]
    if model.has_jumps and r is not None:
        r0, r1 = _r_pair(r)
        value = value + model.gamma.pair_nu_integral(t, x, y, z, u, r0, r1, model.jump_spec)
        gg = model.gamma.pair_grad_nu_integral(t, x, y, z, u, r0, r1, model.jump_spec)
        grad = [grad[i] + gg[i] for i in range(4)]
    return HamiltonianEval(value, tuple(grad))


# ---------------------------------------------------------------------------
# Closed-form solution of the linear noisy-memory backward equation


@dataclass
class LinearBSDESpec:
    """Parameters of the linear fixture whose adjoint solves in closed form.

    State: dX = (a1 X + a0 Z - u) dt + sigma0(t) X dB; terminal weight
    exp(int psi dB).  sigma0 and psi may be constants or callables of t.
    """

    a0: float
    a1: float
    sigma0: object = 0.2
    psi: object = 0.1
    delta: float = 0.2
    horizon: float = 1.0

    @classmethod
    def from_model(cls, model):
        """The model's linear_spec; ValueError for a model outside the family."""
        if model.linear_spec is None:
            raise ValueError("model does not carry linear-family metadata")
        return model.linear_spec

    def psi_vanishes(self, grid):
        """True when psi is zero on every horizon node of grid: the terminal
        weight is then 1 and the adjoint deterministic."""
        return not np.any(horizon_values(grid, self.psi))


@dataclass
class AdjointTriple:
    """Adjoint processes on the horizon nodes.

    p, q: (n_paths, n+1); r: affine pair (r0, r1) or None; mu: the
    conditional driver E[mu(t) | F_t] per node and path; chaos: the
    first-chaos exponential F that p is, for the closed form, else None.

    A deterministic closed form (psi = 0) holds p, q and mu as read-only
    zero-stride views of one row.  Reduce elementwise results (p**2,
    approx - p) or 1-D columns (p[:, k]) over the paths: a reduction of the
    whole view, such as p.mean(), may add in another order than the
    contiguous block would.
    """

    grid: object
    p: np.ndarray
    q: np.ndarray
    r: object
    mu: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    chaos: object = None


@dataclass
class Adjoint2D:
    """Adjoint processes of the reduced two-dimensional backward system."""

    grid: object
    p1: np.ndarray
    p2: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    r1: object
    r2: object
    mu1: np.ndarray
    mu2: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _window_growth(alpha, h, i, end):
    """Accumulated growth weights exp(sum_{r=i+1}^{s} alpha_r h) for s in [i, end).

    The inner sum is right-point, so the weight at s never involves alpha_i;
    that is what makes the backward A/alpha computation lower-triangular (the
    value at node i only consumes already-known rates at i+1..end-1).
    """
    w = np.empty(end - i)
    if end <= i:
        return w
    w[0] = 1.0
    # cumsum adds left to right, so each weight keeps the running sum's order
    w[1:] = np.exp(np.cumsum(alpha[i + 1 : end] * h))
    return w


def _window_sum(alpha, h, k, end, coeff=None, weights=None):
    """h * sum over s in [k, end) of coeff(s) * growth(k, s) * weights(s).

    This is the deterministic part of the driver window at node k, the one
    quadrature behind the closed-form A sweep (coeff and weights 1) and every
    engine window; growth is _window_growth's.  An empty window sums to +0.0.
    """
    terms = _window_growth(alpha, h, k, end)
    if coeff is not None:
        terms = coeff[k:end] * terms
    if weights is not None:
        terms = terms * weights
    return h * terms.sum()


def solve_linear_closed_form(spec, noise):
    """Closed-form adjoint for the linear fixture, evaluated on given paths.

    The driver's memory window makes the mean-reversion rate A(t) depend on
    the conditional growth rate alpha on [t, t+delta], and alpha in turn
    depends on A(t); on the grid this dependence is lower-triangular backward
    in time, so one sweep from the terminal node resolves both with no
    fixed-point iteration.  The solution is the first-chaos exponential

        p(t) = C * exp(int_0^t psi dB + int_0^t c ds),   q = psi * p,

    with log-drift c = sigma0^2/2 - (sigma0 + psi)^2/2 - A and normalization
    C = exp(-int_0^T c ds) pinning p(T) to the terminal weight exp(int psi dB).

    Returns:
        AdjointTriple whose chaos is that exponential, with psi, its growth
        rate alpha, c as drift_adjust and C as scale; diagnostics holds A and
        the terminal mismatch max |p(T) - weight|.  When psi vanishes on the
        grid (spec.psi_vanishes), p, q and mu are the same on every path and
        are returned as read-only zero-stride views of one row, shape
        (n_paths, n+1) as always; see AdjointTriple on reducing them.

    Raises:
        FixedPointDiverged: a non-finite value appeared in the backward sweep
            (with the node index in the message).
        GridMismatch: the noise grid disagrees with the spec's delta/horizon.
    """
    grid = noise.grid
    if abs(grid.delta - spec.delta) > 1e-12 or abs(grid.horizon - spec.horizon) > 1e-12:
        raise GridMismatch(
            "grid (delta=%g, horizon=%g) does not match spec (delta=%g, horizon=%g)"
            % (grid.delta, grid.horizon, spec.delta, spec.horizon)
        )
    n = grid.n_horizon_steps
    m = grid.steps_per_delay
    h = grid.step
    sigma0 = horizon_values(grid, spec.sigma0)
    psi = horizon_values(grid, spec.psi)

    a_path = np.empty(n + 1)
    alpha = np.empty(n + 1)
    c_path = np.empty(n + 1)
    for i in range(n, -1, -1):
        q_window = _window_sum(alpha, h, i, min(i + m, n))
        a_path[i] = spec.a1 + spec.a0 * psi[i] * q_window
        c_path[i] = 0.5 * sigma0[i] ** 2 - 0.5 * (sigma0[i] + psi[i]) ** 2 - a_path[i]
        alpha[i] = c_path[i] + 0.5 * psi[i] ** 2
        if not (np.isfinite(a_path[i]) and np.isfinite(alpha[i])):
            raise FixedPointDiverged(
                "backward sweep produced a non-finite rate at node %d (t=%g): "
                "A=%r, alpha=%r" % (i, grid.horizon_nodes[i], a_path[i], alpha[i])
            )

    chaos = Chaos1Exponential(grid, psi, c_path, scale=np.exp(-h * c_path[:n].sum()))
    # With psi zero on every node F has no chaos part: psi * dB is a signed
    # zero and exp(+-0) is 1, so every path's row is bitwise path 0's.  The
    # rows are then computed for path 0 alone and broadcast over the paths.
    rows = noise.path(0) if spec.psi_vanishes(grid) else noise
    p = chaos.paths(rows)
    q = psi[None, :] * p
    mu = (a_path + sigma0 * psi)[None, :] * p

    weight = np.exp((psi[:n] * rows.increments[:, grid.index_zero:]).sum(axis=1))
    terminal_residual = float(np.max(np.abs(p[:, -1] - weight)))
    if rows is not noise:
        p, q, mu = (np.broadcast_to(a, (noise.n_paths, n + 1)) for a in (p, q, mu))

    diagnostics = {"A": a_path, "terminal_residual": terminal_residual}
    return AdjointTriple(grid, p, q, None, mu, diagnostics, chaos)


# ---------------------------------------------------------------------------
# The window engine: the adjoint driver's conditional and Malliavin integrals


class Chaos1WindowEngine:
    """Window integrals for dH/dz(s) = coeff(s) * F(s) with F first-chaos.

    Every method answers for the whole horizon: it returns a (rows, n+1)
    block, one row per row of f_paths, whose column k is the quantity at t_k.
    The window at T is empty, so the terminal column of a window block is
    +0.0.  Per node the deterministic window sum is computed once, with the
    same right-point growth weights as the closed-form A sweep (_window_sum),
    so reconstruction identities hold to rounding rather than to
    discretization error.

    Args:
        chaos: the Chaos1Exponential F; its grid, volatility loading psi and
            conditional growth rate alpha are the engine's.
        coeff: the deterministic factor in dH/dz, one value per horizon node.
        f_paths: (rows, n+1) values of F on the horizon nodes.

    Raises:
        GridMismatch: coeff or f_paths is not on F's grid, naming both shapes.
    """

    def __init__(self, chaos, coeff, f_paths):
        grid = chaos.grid
        _require_grid(grid, f_paths=f_paths)
        coeff = np.asarray(coeff, dtype=float)
        if coeff.shape != (grid.n_horizon_steps + 1,):
            raise GridMismatch("coeff of shape %r, but %r needs (%d,)"
                               % (coeff.shape, grid, grid.n_horizon_steps + 1))
        self.chaos = chaos
        self.coeff = coeff
        self.f_paths = f_paths

    @property
    def grid(self):
        return self.chaos.grid

    @classmethod
    def deterministic(cls, grid, values):
        """The engine of a deterministic dH/dz path: the one-row F = 1 with
        zero loading and zero growth, so its Malliavin windows are zero."""
        return cls(Chaos1Exponential(grid, 0.0, 0.0), values,
                   np.ones((1, grid.n_horizon_steps + 1)))

    def values(self):
        """dH/dz on every node."""
        return self.coeff * self.f_paths

    def conditional_windows(self, kernel=None):
        """int_t^{(t+delta) ^ T} E[dH/dz(s) | F_t] phi(s, t) ds on every node.

        phi is the kernel's forward weight, the weight that the memory window
        ending at s gives to t; None or the identity kernel is phi = 1.
        """
        grid = self.grid
        n = grid.n_horizon_steps
        iz = grid.index_zero
        plain = kernel is None or kernel.is_identity
        sums = np.empty(n)
        for k in range(n):
            end = min(k + grid.steps_per_delay, n)
            weights = None if plain else kernel.forward_weights(grid, iz + k, iz + end)
            sums[k] = _window_sum(self.chaos.alpha, grid.step, k, end, self.coeff, weights)
        out = np.zeros(self.f_paths.shape)
        out[:, :n] = self.f_paths[:, :n] * sums
        return out

    def malliavin_windows(self, kernel=None):
        """Same windows over E[D_t dH/dz(s) | F_t] — the q2 reconstruction."""
        n = self.grid.n_horizon_steps
        out = self.conditional_windows(kernel)
        out[:, :n] *= self.chaos.psi[:n]
        return out

    def advanced_conditionals(self):
        """E[dH/dz(t_k + delta) | F_{t_k}] on the nodes with t_k + delta <= T;
        the later columns are +0.0."""
        grid = self.grid
        m = grid.steps_per_delay
        count = max(grid.n_horizon_steps + 1 - m, 0)
        growth = np.array([_window_growth(self.chaos.alpha, grid.step, k, k + m + 1)[-1]
                           for k in range(count)])
        out = np.zeros(self.f_paths.shape)
        out[:, :count] = self.coeff[m:] * growth * self.f_paths[:, :count]
        return out


# ---------------------------------------------------------------------------
# Driver assembly and the 1D residual checker


def _require_grid(grid, n_paths=None, **named):
    """Raise GridMismatch unless every named input lives on grid.

    A value is an object with a .grid, which must equal grid, or an array,
    which must be (rows, n+1) on grid's horizon nodes, with 1 or n_paths
    rows when n_paths is given.  The message names both grids or both
    shapes.
    """
    width = grid.n_horizon_steps + 1
    for name, item in named.items():
        if isinstance(item, np.ndarray):
            if item.ndim != 2 or item.shape[1] != width:
                raise GridMismatch("%s of shape %r, but %r needs (rows, %d)"
                                   % (name, item.shape, grid, width))
            if n_paths is not None and item.shape[0] not in (1, n_paths):
                raise GridMismatch("%s of shape %r on paths of shape %r; need 1 or %d rows"
                                   % (name, item.shape, (n_paths, width), n_paths))
        elif item.grid != grid:
            raise GridMismatch("%s on %r, but expected %r" % (name, item.grid, grid))


def mu_generalized(dHx, dHy, engine, kernel=None):
    """Conditional driver E[mu(t) | F_t] on every horizon node of engine.grid.

    mu(t) = dH/dx(t) + dH/dy(t+delta) 1_{t+delta <= T}
          + int_t^{t+delta} E[D_t dH/dz(s) | F_t] phi(s, t) 1_{s <= T} ds,

    where phi is the memory kernel's weight as seen from the future window
    (identity when kernel is None).  dHx is (rows, n+1); dHy is None (no
    y-dependence), a deterministic (n+1,) path, or per-path values whose
    t+delta slice is already F_t-measurable.

    Returns an array shaped like dHx.  Raises GridMismatch when dHx, or a
    dHy, is not (rows, n+1) on the engine's grid.
    """
    grid = engine.grid
    n = grid.n_horizon_steps
    m = grid.steps_per_delay
    dHx = np.asarray(dHx, dtype=float)
    _require_grid(grid, dHx=dHx)
    if dHy is not None:
        dHy = np.asarray(dHy, dtype=float)
        _require_grid(grid, dHy=np.atleast_2d(dHy))
    out = np.array(dHx, dtype=float, copy=True)
    if dHy is not None and m <= n:  # a delay past the horizon advances nothing
        adv = np.zeros(dHy.shape[:-1] + (n + 1,))
        adv[..., : n + 1 - m] = dHy[..., m:]
        out += adv
    # the terminal window is empty; adding its zero would flip a -0.0 there
    out[:, :n] += engine.malliavin_windows(kernel)[:, :n]
    return out


def _jump_residual_terms(model, state, adjoint):
    """Compensated jump pairing per step: int int r(zeta) Ntilde(ds, dzeta)."""
    noise = state.noise
    spec = model.jump_spec
    iz = state.grid.index_zero
    n = state.grid.n_horizon_steps
    h = state.grid.step
    r0, r1 = (np.atleast_2d(c)[:, :n] for c in _r_pair(adjoint.r))
    comp0 = noise.jump_counts[:, iz:] - spec.intensity * h
    comp1 = noise.step_mark_sums()[:, iz:] - spec.levy_moment(1) * h
    return r0 * comp0 + r1 * comp1


def bsde_residual_1d(adjoint, state, model, engine):
    """Pathwise Euler residual of the 1D noisy-memory backward equation.

    residual_k = p_{k+1} - p_k + E[mu | F]_k h - q_k dB_k - jump pairing,
    assembled with the model's Hamiltonian partials at the simulated state and
    the engine's window integrals, weighted by the model's kernel.  Returns
    (sup, rms) over paths and steps; GridMismatch when the adjoint or the
    engine is on another grid than the state.
    """
    grid = state.grid
    _require_grid(grid, adjoint=adjoint, engine=engine)
    h = grid.step
    p = np.atleast_2d(adjoint.p)
    q = np.atleast_2d(adjoint.q)
    ev = hamiltonian(model, *state.horizon_args(), p=p, q=q, r=adjoint.r)
    mu = mu_generalized(ev.grad[0], ev.grad[1], engine, kernel=model.kernel)

    incr = state.noise.increments[:, grid.index_zero:]
    residual = p[:, 1:] - p[:, :-1] + mu[:, :-1] * h - q[:, :-1] * incr
    if model.has_jumps and adjoint.r is not None:
        residual = residual - _jump_residual_terms(model, state, adjoint)
    sup = float(np.max(np.abs(residual)))
    rms = float(np.sqrt(np.mean(residual**2)))
    return sup, rms


# ---------------------------------------------------------------------------
# Least-squares Monte Carlo solver for the 2D time-advanced system


class QuadXZBasis:
    """Quadratic polynomial regression basis in the state pair (x, z)."""

    names = ("1", "x", "z", "x^2", "xz", "z^2")
    size = 6

    def design(self, x, z):
        one = np.ones_like(x)
        return np.column_stack([one, x, z, x * x, x * z, z * z])


def _gram(design, ridge):
    """Normalized Gram matrix of a design with Tikhonov floor, and its condition.

    Returns (gram, cond).  Raises RankDeficientBasis when the regularized
    normal matrix is non-finite or still ill-conditioned (condition number
    above 1e13), which with the default ridge only happens for degenerate or
    non-finite designs.
    """
    gram = design.T @ design / design.shape[0]
    gram = gram + ridge * np.eye(design.shape[1])
    cond = np.linalg.cond(gram) if np.isfinite(gram).all() else np.inf
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise RankDeficientBasis(
            "regression basis is rank deficient on this ensemble "
            "(condition number %.3e)" % cond,
            condition_number=float(cond),
        )
    return gram, cond


def _project(design, gram, targets):
    """Fitted values of targets, (N,) or (N, J), on a design with its _gram."""
    rhs = design.T @ (targets if targets.ndim == 2 else targets[:, None]) / design.shape[0]
    fitted = design @ np.linalg.solve(gram, rhs)
    return fitted if targets.ndim == 2 else fitted[:, 0]


def _affine_r_from_moments(u0, u1, spec):
    """Solve the 2x2 jump-moment system for the affine pair (r0, r1).

    The projections of p against the two compensated increments satisfy
    [lam, lam m1; lam m1, lam m2] (r0, r1) = (u0, u1) nodewise.
    """
    lam = spec.intensity
    m1 = spec.levy_moment(1)
    m2 = spec.levy_moment(2)
    det = lam * (lam * m2) - (lam * m1) ** 2
    if abs(det) < 1e-300:
        return np.zeros_like(u0), np.zeros_like(u1)
    r0 = (lam * m2 * u0 - lam * m1 * u1) / det
    r1 = (lam * u1 - lam * m1 * u0) / det
    return r0, r1


def _columns_backward(arr):
    """Columns of a path-major array, last first, as contiguous rows.

    16 columns at a time are transposed into one reused (16, n_paths) buffer,
    so a block's cache lines of `arr` are fetched once.  Because the buffer
    is reused, a row stays valid only until the next one is read.
    """
    buf = np.empty((16, arr.shape[0]))
    for k1 in range(arr.shape[1], 0, -16):
        block = buf[: min(k1, 16)]
        block[:] = arr[:, k1 - len(block) : k1].T
        yield from block[::-1]


def _absde_sweep(model, state, basis, ridge):
    """The backward sweep of solve_absde_2d on (node, path) rows.

    Returns the time-major outputs [p1, p2, q1, q2, mu1, mu2] (+ [r1_0, r1_1]
    with jumps) and the per-node condition numbers.  Kept apart from
    solve_absde_2d so the input blocks and the ring are freed before the
    outputs are turned path-major.
    """
    grid = state.grid
    n = grid.n_horizon_steps
    m = grid.steps_per_delay
    h = grid.step
    iz = grid.index_zero
    noise = state.noise
    jumps_on = model.has_jumps
    spec = model.jump_spec
    x_rows = _columns_backward(state.x[:, iz:])
    y_rows = _columns_backward(state.y)
    z_rows = _columns_backward(state.z)
    u_rows = _columns_backward(state.control.rows())  # one row when shared
    incr = noise.increment_rows[iz:]
    if jumps_on:
        counts = noise.jump_count_rows[iz:]
        mark_sums = noise.mark_sum_rows[iz:]

    out = [np.zeros((n + 1, state.n_paths)) for _ in range(8 if jumps_on else 6)]
    p1, p2, q1, q2, mu1, mu2 = out[:6]
    r1_0, r1_1 = out[6:] if jumps_on else (None, None)
    # dH/dy and dH/dz are only read m nodes after they are written
    ring = m + 1
    dHy = np.empty((ring, state.n_paths))
    dHz = np.empty((ring, state.n_paths))
    cond = np.empty(n)

    p1[n] = model.terminal.grad(state.terminal_x, noise)
    ev_T = hamiltonian(
        model, grid.horizon, next(x_rows), next(y_rows), next(z_rows), next(u_rows),
        p=p1[n], q=q1[n], r=(0.0, 0.0) if jumps_on else None,
    )
    dHy[n % ring] = ev_T.grad[1]
    dHz[n % ring] = ev_T.grad[2]
    mu2[n] = dHz[n % ring]
    mu1[n] = ev_T.grad[0]

    for k in range(n - 1, -1, -1):
        t_k = grid.horizon_nodes[k]
        xk, yk, zk, uk = (next(rows) for rows in (x_rows, y_rows, z_rows, u_rows))
        db = incr[k]
        design = basis.design(xk, zk)
        try:
            gram, cond[k] = _gram(design, ridge)
        except RankDeficientBasis as err:
            raise RankDeficientBasis(
                "%s at node %d (t=%g)" % (err, k, t_k), condition_number=err.condition_number
            ) from None

        fitted = _project(design, gram, np.column_stack([p1[k + 1], p2[k + 1]]))
        pbar1 = fitted[:, 0]
        pbar2 = fitted[:, 1]
        fitted_q = _project(design, gram, np.column_stack([
            (p1[k + 1] - pbar1) * db / h,
            (p2[k + 1] - pbar2) * db / h,
        ]))
        q1[k] = fitted_q[:, 0]
        q2[k] = fitted_q[:, 1]

        if jumps_on:
            comp0 = counts[k] - spec.intensity * h
            comp1 = mark_sums[k] - spec.levy_moment(1) * h
            fitted_r = _project(design, gram, np.column_stack([
                (p1[k + 1] - pbar1) * comp0 / h,
                (p1[k + 1] - pbar1) * comp1 / h,
            ]))
            r1_0[k], r1_1[k] = _affine_r_from_moments(fitted_r[:, 0], fitted_r[:, 1], spec)

        ev = hamiltonian(
            model, t_k, xk, yk, zk, uk, p=pbar1, q=q1[k],
            r=(r1_0[k], r1_1[k]) if jumps_on else None,
        )
        dHy[k % ring] = ev.grad[1]
        dHz[k % ring] = ev.grad[2]

        mu1_k = q2[k] + ev.grad[0]
        if k + m <= n:
            mu1_k = mu1_k + _project(design, gram, dHy[(k + m) % ring])
            mu2_k = dHz[k % ring] - _project(design, gram, dHz[(k + m) % ring])
        else:
            mu2_k = dHz[k % ring]
        mu1[k] = mu1_k
        mu2[k] = mu2_k
        p1[k] = pbar1 + mu1_k * h
        p2[k] = pbar2 + mu2_k * h
    return out, cond


def solve_absde_2d(model, state, basis=None, ridge=1e-8):
    """Backward least-squares sweep for the reduced time-advanced system.

    The sweep is time-major: it reads the state backward, 16 nodes at a
    time, into (node, path) rows, reads the noise from the ensemble's
    time-major companions, and keeps dH/dy and dH/dz in a ring of m + 1
    rows.  Each node builds one Gram matrix and condition number and
    projects every target group on it.  Every array of the result is handed
    back path-major and C-contiguous, (n_paths, n+1).

    Args:
        model: CoefficientModel.
        state: StateBundle from reduce_2d (x2 populated) on an ensemble.
        basis: regression basis (default QuadXZBasis) evaluated on
            (X(t_k), Z(t_k)).
        ridge: Tikhonov weight.

    Returns:
        Adjoint2D with all components on the horizon nodes; q and r at the
        terminal node are zero by convention.  Conditional expectations are
        least-squares projections: each step fits the continuation values,
        estimates the martingale loadings from control-variate products with
        the step increments, assembles the drivers mu1 (which consumes the
        same-step q2 and the regressed advance term) and mu2 (the z-partial
        minus its regressed advance), and steps p back.  diagnostics holds
        the per-node condition numbers ("condition", (n,) in node order) and
        their maximum ("max_condition").

    Raises:
        KernelNotReducible via reduce_2d upstream; RankDeficientBasis from
        the regressions, naming the node; NotReduced if the state has no x2;
        TooFewPaths if the ensemble has fewer than ten paths per basis
        function.
    """
    if state.x2 is None:
        raise NotReduced("state of shape %r has no x2: the 2D solver needs a state "
                         "from reduce_2d" % (state.x.shape,))
    basis = basis if basis is not None else QuadXZBasis()
    n_paths = state.n_paths
    if n_paths < 10 * basis.size:
        raise TooFewPaths(
            "need at least %d paths for a size-%d basis, got %d"
            % (10 * basis.size, basis.size, n_paths)
        )
    rows, cond = _absde_sweep(model, state, basis, ridge)
    # Each buffer takes its path-major copy back into its own memory, so the
    # result keeps the sweep's allocations and one copy at a time is live.
    out = []
    for a in rows:
        pm = a.reshape(a.shape[::-1])
        pm[:] = _time_major(a)
        out.append(pm)
    p1, p2, q1, q2, mu1, mu2 = out[:6]
    jumps_on = model.has_jumps
    r1 = tuple(out[6:]) if jumps_on else None
    r2 = (np.zeros(p1.shape), np.zeros(p1.shape)) if jumps_on else None
    diagnostics = {
        "basis": basis.names,
        "ridge": ridge,
        "condition": cond,
        "max_condition": cond.max(),
    }
    return Adjoint2D(state.grid, p1, p2, q1, q2, r1, r2, mu1, mu2, diagnostics)


# ---------------------------------------------------------------------------
# The bridge between the 1D and 2D formulations


def bridge_1d_from_2d(adjoint2d, engine):
    """Collapse a 2D solution to the 1D triple and audit q2 against its
    Malliavin-window reconstruction.

    The window is the plain, unweighted one: the 2D system exists only for
    the identity kernel (reduce_2d raises KernelNotReducible otherwise).

    Returns (AdjointTriple, max_reconstruction_deviation).  The triple reuses
    the (p1, q1, r1, mu1) arrays; the deviation is max over nodes and paths
    of |q2 - window reconstruction| and is the bridge-consistency statistic.
    Raises GridMismatch when the engine is on another grid.
    """
    grid = adjoint2d.grid
    _require_grid(grid, engine=engine)
    recon = engine.malliavin_windows()
    deviation = float(np.max(np.abs(adjoint2d.q2 - recon)))
    triple = AdjointTriple(
        grid, adjoint2d.p1, adjoint2d.q1, adjoint2d.r1, adjoint2d.mu1,
        {"q2_reconstruction_deviation": deviation, "q2_reconstructed": recon},
    )
    return triple, deviation


def lift_2d_from_1d(adjoint, engine, model, state):
    """Extend a 1D triple to the 2D system via the window integrals.

    p2(t) = window conditional of dH/dz; q2(t) = its Malliavin window;
    mu2(t) = dH/dz(t) - E[dH/dz(t + delta) | F_t] 1_{t+delta <= T}; r2 = 0.
    The windows are weighted by model.kernel, and mu1 = dH/dx + dH/dy(t +
    delta) + q2 is assembled from the model partials at the state.  (p1, q1,
    r1) are the input arrays unchanged, so bridging back returns them
    bitwise; p2, q2 and mu2 have the adjoint's rows.

    Returns (Adjoint2D, p2_equation_residual_sup) where the residual is the
    Euler defect of the p2 equation dp2 = -mu2 dt + q2 dB.  Raises
    GridMismatch when the engine or the state is on another grid.
    """
    grid = adjoint.grid
    _require_grid(grid, engine=engine, state=state)
    n = grid.n_horizon_steps
    m = grid.steps_per_delay
    p = np.atleast_2d(adjoint.p)
    q = np.atleast_2d(adjoint.q)

    def rows(block):
        return np.broadcast_to(block, p.shape).copy()

    p2 = rows(engine.conditional_windows(model.kernel))
    q2 = rows(engine.malliavin_windows(model.kernel))
    mu2 = rows(engine.values() - engine.advanced_conditionals())

    ev = hamiltonian(model, *state.horizon_args(), p=p, q=q, r=adjoint.r)
    mu1 = ev.grad[0] + q2
    if m <= n:
        mu1[:, : n + 1 - m] += ev.grad[1][:, m:]

    incr = state.noise.increments[:, grid.index_zero:]
    defect = p2[:, 1:] - p2[:, :-1] + mu2[:, :-1] * grid.step - q2[:, :-1] * incr
    p2_residual = float(np.max(np.abs(defect)))
    lifted = Adjoint2D(
        grid=grid, p1=adjoint.p, p2=p2, q1=adjoint.q, q2=q2,
        r1=adjoint.r, r2=None, mu1=mu1, mu2=mu2,
        diagnostics={"p2_equation_residual": p2_residual},
    )
    return lifted, p2_residual
