"""Executable forms of the sufficient and necessary maximum principles.

The two directional derivatives of the performance functional — the pathwise
one through the state-sensitivity process K, and the adjoint one through the
Hamiltonian's control partial — are computed independently and compared; the
condition checkers turn the optimality statements into MPReport verdicts with
explicit statistics and tolerances.
"""

from dataclasses import dataclass, field

import numpy as np

from .adjoint import _r_pair, _require_grid, hamiltonian
from .dynamics import (
    ControlPath,
    _Carry,
    _mean_se,
    _performance_paths,
    _sweep,
    simulate_state,
)
from .errors import GridMismatch, NonMonotone, OffGrid, OutOfControlSet

# absolute tolerance of the checks and of the first-order inversion's residual;
# probe pairs of the concavity check and the largest scaled gap that passes it
_TOL = 1e-10
_PROBES = 64
_CONCAVITY_TOL = 1e-12


@dataclass
class KBundle:
    """State-sensitivity paths: K on all nodes, its memory window on [0, T],
    and cost_sum, the (n_paths,) sum of grad f . (K, K(t - delta), window,
    eta) over the horizon nodes before the last, without the factor h (as
    StateBundle.cost_sum sums f)."""

    k: np.ndarray
    kz: np.ndarray
    grid: object
    cost_sum: np.ndarray


@dataclass
class MPReport:
    """Outcome of one maximum-principle check."""

    name: str
    passed: bool
    statistic: float
    threshold: float
    se: float = None
    vacuous: bool = False
    details: dict = field(default_factory=dict)

    def __str__(self):
        verdict = "vacuous" if self.vacuous else ("pass" if self.passed else "FAIL")
        return "%s: %s (statistic %.3e vs threshold %.3e)" % (
            self.name, verdict, self.statistic, self.threshold
        )


def _eta_rows(eta, n_paths, grid):
    """The direction eta as (n_paths, n+1) rows; GridMismatch unless eta has
    one value per horizon node of grid and 1 or n_paths rows."""
    eta = np.asarray(eta, dtype=float)
    shape = (n_paths, grid.n_horizon_steps + 1)
    if eta.shape[-1:] != shape[1:] or eta.shape[:-1] not in ((), (1,), shape[:1]):
        raise GridMismatch("direction of shape %r on %r; need %d values per row and 1 or %d "
                           "rows" % (eta.shape, grid, shape[1], n_paths))
    return np.broadcast_to(eta, shape)


def _support_start(eta_r):
    """First horizon node below n at which some row of eta is nonzero; n if none is.

    eta on the last node is read by no step of the tangent and no term of the
    K route's quadrature, and before this node both see exact zeros.
    """
    n = eta_r.shape[1] - 1
    live = np.flatnonzero(eta_r[:, :n].any(axis=0))
    return int(live[0]) if live.size else n


def _dot4(grads, vec):
    """grads . vec over (x, y, z, u), added left to right from the first term."""
    return grads[0] * vec[0] + grads[1] * vec[1] + grads[2] * vec[2] + grads[3] * vec[3]


def derivative_process(model, state, eta):
    """Euler recursion for the derivative of the state in direction eta.

    The recursion is the state's own sweep with the coefficient gradients
    contracted against (K, K(t - delta), window of K, eta); K vanishes on the
    initial segment.  The memory window is weighted by model.kernel, as the
    state's was.  K is exactly zero up to the first node of eta's support
    (_support_start), so the sweep starts there from zero buffers.  Each
    step also adds the running cost's gradient contracted against the same
    vector into the carry's running sum, in node order (KBundle.cost_sum);
    before the support every such term is zero.

    Returns a KBundle whose k and kz are transposed views of the sweep's
    (node, path) buffers; raises GridMismatch for an eta off the horizon
    nodes (see _eta_rows).
    """
    grid = state.grid
    m = grid.steps_per_delay
    u_rows = state.control.rows()
    eta_r = _eta_rows(eta, state.n_paths, grid)
    memory = state.memory_arg
    noise = state.noise
    carry = _Carry(noise, m + _support_start(eta_r), 1, kernel=model.kernel)
    carry.cost = np.zeros((1, state.n_paths))
    cost = carry.cost[0]

    def step(j, kj, k_lag, kz):
        i = j - m
        point = (grid.nodes[j], state.x[:, j], state.y[:, i], memory[:, i], u_rows[:, i])
        vec = (kj, k_lag, kz, eta_r[:, i])
        np.add(cost, _dot4(model.cost_grad(*point), vec), out=cost)
        coef = (_dot4(model.drift_grad(*point), vec), _dot4(model.diffusion_grad(*point), vec))
        if not model.has_jumps:
            return coef
        return coef + (
            model.gamma.grad_dot_step_sum(*point, vec, noise, j),
            model.gamma.grad_dot_nu_integral(*point, vec, model.jump_spec),
        )

    k_path, kz, kz_weighted = (a if a is None else a[:, 0]
                               for a in _sweep(noise, carry, step, what="derivative process"))
    return KBundle(k_path.T, (kz if kz_weighted is None else kz_weighted).T, grid, cost)


def directional_derivative_K(model, state, eta):
    """Derivative of J in direction eta via the state-sensitivity process.

    E[g'(X(T)) K(T) + int grad f . (K, K_y, K_window, eta) dt], estimated on
    the ensemble the state was simulated on; the quadrature is the tangent
    sweep's own sum (KBundle.cost_sum).

    Returns (value, se, per_path).
    """
    kb = derivative_process(model, state, eta)
    per_path = (model.terminal.grad(state.terminal_x, state.noise) * kb.k[:, -1]
                + state.grid.step * kb.cost_sum)
    value, se = _mean_se(per_path)
    return value, se, per_path


def _control_partial_terms(model, state, adjoint):
    """The operands of dH/du, in _control_partial's order: the u-partials of
    f, b and sigma at StateBundle.horizon_args(), p, q, and the jump
    pairing's u-partial (None without one).  Raises GridMismatch as
    control_partial_paths does."""
    grid = state.grid
    p = np.atleast_2d(adjoint.p)
    q = np.atleast_2d(adjoint.q)
    _require_grid(grid, n_paths=state.n_paths, adjoint=adjoint, p=p, q=q)
    args = state.horizon_args()
    terms = (model.cost_grad(*args)[3], model.drift_grad(*args)[3], p,
             model.diffusion_grad(*args)[3], q)
    jump = None
    if model.has_jumps and adjoint.r is not None:
        r0, r1 = _r_pair(adjoint.r)
        jump = model.gamma.pair_grad_nu_integral(*args, r0, r1, model.jump_spec)[3]
    return terms + (jump,)


def _control_partial(f_u, b_u, p, sigma_u, q, jump_u):
    """dH/du = f_u + b_u p + sigma_u q (+ the jump pairing's u-partial),
    added left to right."""
    dhu = f_u + b_u * p + sigma_u * q
    return dhu if jump_u is None else dhu + jump_u


def _row_constant(a):
    """Whether a is the same on every path: a scalar, a row of the horizon,
    or (rows, n+1) with one row or a zero stride on the path axis."""
    nd = np.ndim(a)
    return nd < 2 or (nd == 2 and (a.shape[0] == 1 or a.strides[0] == 0))


def control_partial_paths(model, state, adjoint):
    """dH/du on every horizon node and path, at the given adjoint values.

    One evaluation over the whole horizon block (StateBundle.horizon_args),
    so the coefficient gradients must accept the row of horizon times.  p and
    q are (rows, n+1) with 1 or n_paths rows; each component of adjoint.r is
    a scalar or a node-indexed array of such rows.  Returns a fresh
    C-contiguous (n_paths, n+1) array; raises GridMismatch when the adjoint
    is on another grid than the state or p or q has another row count.
    """
    dhu = _control_partial(*_control_partial_terms(model, state, adjoint))
    shape = (state.n_paths, state.grid.n_horizon_steps + 1)
    if dhu.shape == shape and dhu.flags.c_contiguous:
        return dhu  # already a fresh block of its own
    return np.broadcast_to(dhu, shape).copy()


def directional_derivative_H(model, state, adjoint, eta):
    """Derivative of J in direction eta via the Hamiltonian control partial.

    E[int dH/du(t) eta(t) dt] on the ensemble; returns (value, se, per_path).
    When every operand of dH/du and eta is the same on every path
    (_row_constant: a shared control, constant u-partials and a
    deterministic adjoint, such as the psi = 0 closed form's broadcast
    views), dH/du and its contraction are made for one row, and per_path is
    a fresh C-contiguous (n_paths,) array of that row's value, bitwise the
    per-path result.
    """
    grid = state.grid
    n = grid.n_horizon_steps
    terms = _control_partial_terms(model, state, adjoint)
    eta_r = _eta_rows(eta, state.n_paths, grid)
    one_row = all(_row_constant(a) for a in terms + (eta_r,))
    if one_row:
        terms = tuple(a[:1] if np.ndim(a) == 2 else a for a in terms)
        eta_r = eta_r[:1]
    dhu = _control_partial(*terms)
    per_path = grid.step * (dhu[:, :n] * eta_r[:, :n]).sum(axis=1)
    if one_row:
        per_path = np.full(state.n_paths, per_path[0])
    value, se = _mean_se(per_path)
    return value, se, per_path


def finite_difference_derivative(model, control, noise, eta, s=1e-3):
    """Central finite difference of J in direction eta with common noise.

    Falls back to a one-sided difference when the shifted control leaves the
    admissible set on one side; raises OutOfControlSet if it leaves on both.
    The two sides are swept once together up to the first node at which
    their controls differ, which is where eta's support starts, and from
    there as one stacked (2, n_paths) sweep (dynamics._performance_paths).
    Returns (value, se, per_path); raises GridMismatch for an eta off the
    horizon nodes (see _eta_rows).
    """
    _eta_rows(eta, noise.n_paths, noise.grid)
    plus = minus = None
    try:
        plus = control.shifted_by(eta, s)
    except OutOfControlSet:
        pass
    try:
        minus = control.shifted_by(eta, -s)
    except OutOfControlSet:
        pass
    if plus is None and minus is None:
        raise OutOfControlSet(
            "direction leaves the admissible set on both sides at step %g" % s
        )
    if minus is None:
        minus, denom = control, s
    elif plus is None:
        plus, minus, denom = control, minus, s
    else:
        denom = 2 * s
    per_plus, per_minus = _performance_paths(model, (plus, minus), noise)
    per_path = (per_plus - per_minus) / denom
    value, se = _mean_se(per_path)
    return value, se, per_path


def probe_directions(grid):
    """Direction battery bounded by 1: constants, step indicators, one random path."""
    n = grid.n_horizon_steps
    t = grid.horizon_nodes
    const = np.full(n + 1, 1.0)
    late = np.where(t >= grid.horizon / 2, 1.0, 0.0)
    mid = np.where((t >= grid.horizon / 4) & (t < grid.horizon / 2), 1.0, 0.0)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(0)))
    random = gen.uniform(-1.0, 1.0, size=n + 1)
    return [("const", const), ("late-half", late), ("mid-quarter", mid), ("random", random)]


# ---------------------------------------------------------------------------
# Condition checkers


def _node_stats(dhu):
    """Per-node mean and standard error of dH/du over the paths: its
    conditional mean and standard error under the trivial information flow."""
    means = dhu.mean(axis=0)
    n = dhu.shape[0]
    ses = dhu.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(means)
    return means, ses


def check_necessary_I(model, state, adjoint):
    """Stationarity: E[dH/du | G_t] = 0 at every node, for the control of `state`,
    under the trivial information flow: E[. | G_t] is the mean over the paths.

    The statistic is the largest per-node standardized mean (threshold 3).
    Its integral form, the derivative of J in a direction, is
    directional_derivative_H.
    """
    dhu = control_partial_paths(model, state, adjoint)
    vacuous = model.control_set.is_singleton
    means, ses = _node_stats(dhu)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(
            ses > 0, np.abs(means) / ses, np.where(np.abs(means) <= _TOL, 0.0, np.inf)
        )
    passed = bool(np.all(np.abs(means) <= np.maximum(3.0 * ses, _TOL)))
    worst = int(np.argmax(z))
    details = {"node_means": means.copy(), "node_ses": ses.copy(), "worst_node": worst}
    return MPReport(
        "necessary-I", passed or vacuous, float(np.max(z)), 3.0,
        se=float(ses[worst]), vacuous=vacuous, details=details,
    )


def check_necessary_II(model, state, adjoint):
    """Variational inequality: E[dH/du | G_t] (v - u(t)) <= 0 for v in V,
    with u the control of `state`, under the trivial information flow: E[. | G_t]
    and u(t) are the means over the paths.

    Probes both endpoints and the midpoint of the control interval; a
    statistic above the threshold means some admissible value strictly
    improves the Hamiltonian pairing beyond noise.
    """
    dhu = control_partial_paths(model, state, adjoint)
    cs = model.control_set
    vacuous = cs.is_singleton
    means, ses = _node_stats(dhu)
    u_ref = state.control.rows().mean(axis=0)
    candidates = [cs.lower, cs.midpoint, cs.upper]
    worst_excess = -np.inf
    witness = None
    per_candidate = {}
    for v in candidates:
        gap = v - u_ref
        stat = means * gap
        se = np.abs(gap) * ses
        excess = stat - 3.0 * se
        worst_here = float(np.max(excess))
        per_candidate[float(v)] = (float(np.max(stat)), float(np.max(se)))
        if worst_here > worst_excess:
            worst_excess = worst_here
            witness = (float(v), int(np.argmax(excess)))
    passed = worst_excess <= _TOL
    details = {"per_candidate": per_candidate, "witness": witness}
    return MPReport(
        "necessary-II", bool(passed) or vacuous, float(worst_excess), _TOL,
        vacuous=vacuous, details=details,
    )


def _sample_points(gen, state, cs, count):
    """Random (x, y, z, u) probe points spanning the visited state range."""
    pools = [state.x.ravel(), state.y.ravel(), state.z.ravel()]
    lo_u, hi_u = cs.lower, cs.upper
    if not np.isfinite(lo_u):
        lo_u = -2.0
    if not np.isfinite(hi_u):
        hi_u = max(lo_u + 4.0, 4.0)
    pts = np.empty((count, 4))
    for w, pool in enumerate(pools):
        mean, sd = float(pool.mean()), float(pool.std()) + 1e-3
        pts[:, w] = gen.normal(mean, 2.0 * sd, size=count)
    pts[:, 3] = gen.uniform(lo_u + 1e-6 * (hi_u - lo_u), hi_u, size=count)
    return pts


def check_sufficient(model, state, adjoint, seed=0):
    """Concavity probes for H and g plus the variational condition.

    (a) For _PROBES random point pairs and mixing weights each, checks
    midpoint concavity of (x, y, z, u) -> H at frozen adjoint values, and of
    the terminal payoff, to _CONCAVITY_TOL; (b) re-runs the variational
    inequality at 3 standard errors.  Certifies optimality only when both
    parts pass.  Raises GridMismatch when the adjoint is on another grid than
    the state.
    """
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    grid = state.grid
    _require_grid(grid, adjoint=adjoint)
    n = grid.n_horizon_steps
    p = np.atleast_2d(adjoint.p)
    q = np.atleast_2d(adjoint.q)
    cs = model.control_set

    a_pts = _sample_points(gen, state, cs, _PROBES)
    b_pts = _sample_points(gen, state, cs, _PROBES)
    lams = gen.uniform(0.1, 0.9, size=_PROBES)
    nodes = gen.integers(0, n + 1, size=_PROBES)
    rows = gen.integers(0, p.shape[0], size=_PROBES)
    r = None
    if adjoint.r is not None:
        # scalars and node rows broadcast over the paths, like p
        r = tuple(np.broadcast_to(c, np.broadcast_shapes(p.shape, c.shape))[rows, nodes]
                  for c in _r_pair(adjoint.r))

    def h_at(pts):
        return hamiltonian(model, grid.horizon_nodes[nodes], *pts.T,
                           p=p[rows, nodes], q=q[rows, nodes], r=r).value

    h_mix = h_at(lams[:, None] * a_pts + (1.0 - lams)[:, None] * b_pts)
    h_gap = lams * h_at(a_pts) + (1.0 - lams) * h_at(b_pts) - h_mix

    xs = state.x.ravel()
    x_lo, x_hi = float(xs.min()), float(xs.max())
    # per probe, in draw order: xa, xb and the mixing weight
    xa, xb, lam_g = gen.uniform([x_lo - 1.0, x_lo - 1.0, 0.1], [x_hi + 1.0, x_hi + 1.0, 0.9],
                                size=(_PROBES, 3)).T
    xm = lam_g * xa + (1.0 - lam_g) * xb
    g = np.array([
        model.terminal.value(np.array([xa[i], xb[i], xm[i]]),
                             state.noise.path(int(rows[i]) % state.n_paths))
        for i in range(_PROBES)
    ])
    g_gap = lam_g * g[:, 0] + (1.0 - lam_g) * g[:, 1] - g[:, 2]

    # the first largest scaled gap wins; NaN gaps never do
    ratios = np.concatenate([h_gap / (1.0 + np.abs(h_mix)), g_gap / (1.0 + np.abs(g[:, 2]))])
    ratios[np.isnan(ratios)] = -np.inf
    i = int(np.argmax(ratios))
    worst_gap = ratios[i]
    if worst_gap == -np.inf:
        witness = None
    elif i < _PROBES:
        witness = {"kind": "hamiltonian", "node": int(nodes[i]), "a": a_pts[i].tolist(),
                   "b": b_pts[i].tolist(), "lam": float(lams[i])}
    else:
        i -= _PROBES
        witness = {"kind": "terminal", "a": float(xa[i]), "b": float(xb[i]),
                   "lam": float(lam_g[i])}

    concave_ok = worst_gap <= _CONCAVITY_TOL
    variational = check_necessary_II(model, state, adjoint)
    passed = bool(concave_ok and variational.passed)
    details = {
        "concavity_gap": float(worst_gap),
        "concavity_witness": witness if not concave_ok else None,
        "variational": variational,
    }
    return MPReport(
        "sufficient", passed, float(max(worst_gap, variational.statistic)),
        variational.threshold, vacuous=variational.vacuous, details=details,
    )


# ---------------------------------------------------------------------------
# First-order condition and spike perturbations


def solve_foc(model, p, grid, max_iter=200):
    """Invert the first-order condition df/du(t, u) = E[p(t)] nodewise.

    The control is deterministic (the trivial information model): the target
    is the cross-path mean of p, and df/du is read at x = y = z = 0, so f_u
    must depend on (t, u) alone, as it does in every catalog scenario.
    Bisection on the control interval; nodes where the target lies outside
    the range of df/du on V are clamped to the nearer endpoint and flagged in
    the returned path's `clamped` attribute.  All nodes are bisected at once,
    with t the row of horizon times.

    Raises NonMonotone when df/du is not strictly monotone in u across the
    probe grid (bisection would not bracket), or naming the first node whose
    residual misses the tolerance; GridMismatch, naming both shapes, when p
    is not (rows, n+1) on grid's horizon nodes.
    """
    cs = model.control_set
    lo, hi = cs.lower, cs.upper
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("first-order inversion needs a bounded control interval")
    p = np.atleast_2d(np.asarray(p, dtype=float))
    _require_grid(grid, p=p)
    target = p.mean(axis=0)
    t = grid.horizon_nodes

    def dfdu(t, u):
        return model.cost_grad(t, 0.0, 0.0, 0.0, u)[3]

    probe_vals = np.array([np.mean(dfdu(t[0], u)) for u in np.linspace(lo, hi, 9)])
    diffs = np.diff(probe_vals)
    if np.all(diffs > 0):
        sign = 1.0
    elif np.all(diffs < 0):
        sign = -1.0
    else:
        raise NonMonotone(
            "df/du is not strictly monotone on the control interval "
            "(probe values %s)" % np.array2string(probe_vals, precision=4)
        )

    def excess(u):
        return sign * (dfdu(t, u) - target)

    a = np.full_like(target, lo)
    b = np.full_like(target, hi)
    clamp_hi = excess(b) < 0
    clamp_lo = excess(a) > 0
    live = np.ones(target.shape, dtype=bool)
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        go_right = excess(mid) < 0
        a = np.where(live & go_right, mid, a)
        b = np.where(live & ~go_right, mid, b)
        live &= ~(b - a < 1e-16 * max(1.0, abs(hi)))
        if not live.any():
            break
    values = np.where(clamp_lo, lo, np.where(clamp_hi, hi, 0.5 * (a + b)))
    clamped = clamp_hi | clamp_lo
    resid = np.abs(dfdu(t, values) - target)
    bound = np.fmax(_TOL, 1e-8 * np.abs(target))
    failed = np.flatnonzero(~clamped & (resid > bound))
    if failed.size:
        raise NonMonotone(
            "bisection failed to reach |df/du - target| <= %g at node %d" % (_TOL, failed[0])
        )

    out = ControlPath(grid, values, control_set=cs)
    out.clamped = clamped
    return out


def spike_perturbation(base, t0, width, v):
    """Replace the control by the constant v on [t0, t0 + width).

    Zero width returns the base control unchanged.
    """
    grid = base.grid
    cs = base.control_set
    if cs is not None and not cs.contains(v):
        raise OutOfControlSet("spike value %r is outside the admissible interval" % (v,))
    if width == 0:
        return base
    h = grid.step
    k0 = grid.index_of(t0) - grid.index_zero
    if k0 < 0:
        raise OffGrid("spike start %r lies before time 0" % (t0,))
    kw = int(round(width / h))
    if abs(kw * h - width) > 1e-9 * h or kw <= 0:
        raise OffGrid("spike width %r is not a positive multiple of the step" % (width,))
    if k0 + kw > grid.n_horizon_steps + 1:
        raise OffGrid("spike window [%r, %r) leaves the horizon" % (t0, t0 + width))

    values = np.array(base.values, copy=True)
    values[..., k0 : k0 + kw] = v
    return ControlPath(grid, values, control_set=cs)
