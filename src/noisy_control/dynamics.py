"""Coefficient models and forward simulation of the delayed, noisy-memory state.

The state follows

    dX(t) = b(t, X, Y, Z, u) dt + sigma(t, X, Y, Z, u) dB(t) + jumps,
    X(t) = xi(t) on [-delta, 0],

where Y(t) = X(t - delta) and Z(t) is the Brownian integral of X over the
trailing window (t - delta, t], optionally reweighted by a memory kernel.
Everything is simulated with the left-point Euler rule on the shared grid;
the memory integral is maintained as a running prefix sum so that Z is, bit
for bit, the difference of two anchored Ito integrals.
"""

import numpy as np

from .errors import (
    GradientMismatch,
    GridMismatch,
    KernelNotReducible,
    NonFiniteState,
    OutOfControlSet,
)
from .paths import JumpSpec

_FD_BUMP = 1e-5
_ARGS = ("x", "y", "z", "u")


class ControlSet:
    """Closed interval of admissible control values (endpoints may be inf)."""

    def __init__(self, lower, upper):
        if not (lower <= upper):
            raise ValueError("control set needs lower <= upper")
        self.lower = float(lower)
        self.upper = float(upper)

    def contains(self, v, tol=0.0):
        v = np.asarray(v)
        return bool(np.all(v >= self.lower - tol) and np.all(v <= self.upper + tol))

    @property
    def midpoint(self):
        return 0.5 * (self.lower + self.upper)

    @property
    def is_singleton(self):
        return self.lower == self.upper

    def __repr__(self):
        return "ControlSet(%g, %g)" % (self.lower, self.upper)


class MemoryKernel:
    """Deterministic weight phi(t, s) applied inside the memory window.

    The plain memory integral corresponds to phi identically one; that case is
    flagged so the simulator can reuse the unweighted running-sum arithmetic
    (the weighted and unweighted fold then agree bit for bit by construction).

    Attributes:
        bound: sup |phi| over the window, used in error reports.
    """

    def __init__(self, fn, bound, identity=False):
        self.fn = fn
        self.bound = float(bound)
        self.is_identity = bool(identity)

    @classmethod
    def identity(cls):
        return cls(lambda t, s: np.ones_like(np.asarray(s, dtype=float)), 1.0, identity=True)

    @classmethod
    def ramp(cls, delta, scale=1.0):
        """phi(t, s) = scale * (s - t + delta) / delta, rising 0 -> scale."""

        def fn(t, s):
            return scale * (np.asarray(s, dtype=float) - t + delta) / delta

        return cls(fn, abs(scale))

    def weights(self, grid, k):
        """phi(t_k, t_j) for the window nodes j in [k - m, k)."""
        j = np.arange(k - grid.steps_per_delay, k)
        return np.asarray(self.fn(grid.nodes[k], grid.nodes[j]), dtype=float)

    def forward_weights(self, grid, k, end):
        """phi(t_s, t_k) for s in [k, end) — the weight that the window ending
        at the future node s assigns to the current node t_k.

        This is what the adjoint driver needs: its window integral runs over
        the future times whose memory window still contains t_k.  Indices are
        full-grid node indices; `end` must not exceed the last node.
        """
        if self.is_identity:
            return np.ones(end - k)
        s = np.arange(k, end)
        return np.asarray(self.fn(grid.nodes[s], grid.nodes[k]), dtype=float)


class ControlPath:
    """Control values on the nodes of [0, horizon].

    values has shape (n_horizon_steps + 1,) for controls that are identical
    across noise paths (always the case under the trivial information flow)
    or (n_paths, n_horizon_steps + 1) for adapted per-path controls.
    """

    def __init__(self, grid, values, information="trivial", control_set=None):
        if information not in ("full", "trivial"):
            raise ValueError("information must be 'full' or 'trivial'")
        values = np.asarray(values, dtype=float)
        width = grid.n_horizon_steps + 1
        if values.ndim == 0:
            values = np.full(width, float(values))
        if values.shape[-1] != width:
            raise ValueError("control needs one value per node of [0, horizon]")
        if information == "trivial" and values.ndim != 1:
            raise ValueError("trivial-information controls are one value per node")
        if control_set is not None and not control_set.contains(values):
            raise OutOfControlSet(
                "control leaves the admissible interval %r" % (control_set,)
            )
        self.grid = grid
        self.values = values
        self.information = information
        self.control_set = control_set
        self.values.flags.writeable = False

    @classmethod
    def constant(cls, grid, v, information="trivial", control_set=None):
        return cls(grid, np.full(grid.n_horizon_steps + 1, float(v)), information, control_set)

    def rows(self):
        """values with a leading path axis (size 1 when shared across paths)."""
        return self.values if self.values.ndim == 2 else self.values[None, :]

    def shifted_by(self, direction, s):
        """Control with values + s * direction (direction: same node layout).

        Keeps the admissible set, so a shift that leaves it raises
        OutOfControlSet.
        """
        direction = np.asarray(direction, dtype=float)
        info = self.information
        if direction.ndim == 2 or self.values.ndim == 2:
            info = "full"
        return ControlPath(self.grid, self.values + s * direction, info, self.control_set)


class DeterministicTerminal:
    """Terminal payoff g(x) with an optional analytic derivative."""

    def __init__(self, fn, grad=None):
        self.fn = fn
        self._grad = grad

    def value(self, x_terminal, noise=None):
        return self.fn(x_terminal)

    def grad(self, x_terminal, noise=None):
        if self._grad is not None:
            return self._grad(x_terminal)
        eps = _FD_BUMP * (1.0 + np.abs(x_terminal))
        return (self.fn(x_terminal + eps) - self.fn(x_terminal - eps)) / (2 * eps)


class StochasticLinearTerminal:
    """Terminal payoff weight(noise) * x with path-dependent weight.

    Linear in x (hence concave), with derivative equal to the weight itself.
    """

    def __init__(self, weight_fn):
        self.weight_fn = weight_fn

    def value(self, x_terminal, noise=None):
        return self.weight_fn(noise) * x_terminal

    def grad(self, x_terminal, noise=None):
        w = self.weight_fn(noise)
        return np.broadcast_to(np.asarray(w, dtype=float), np.shape(x_terminal)).copy()


def _central_fd(fn, t, x, y, z, u, which):
    args = [np.asarray(x, dtype=float), np.asarray(y, dtype=float),
            np.asarray(z, dtype=float), np.asarray(u, dtype=float)]
    v = args[which]
    eps = _FD_BUMP * (1.0 + np.abs(v))
    hi = list(args)
    lo = list(args)
    hi[which] = v + eps
    lo[which] = v - eps
    return (fn(t, *hi) - fn(t, *lo)) / (2 * eps)


def _grad4(fn, grad_fns, t, x, y, z, u):
    """(d/dx, d/dy, d/dz, d/du) of fn, analytic when supplied, else central FD."""
    if grad_fns is not None:
        out = grad_fns(t, x, y, z, u)
        return tuple(np.asarray(g, dtype=float) for g in out)
    return tuple(_central_fd(fn, t, x, y, z, u, i) for i in range(4))


class AffineJumpCoefficient:
    """Jump coefficient gamma(t,x,y,z,u,zeta) = base(...) + slope(...) * zeta.

    The affine structure keeps every jump-measure integral closed form: sums
    over realized marks need only per-step counts and mark sums (the
    ensemble's jump_count_rows and mark_sum_rows), and pairings with an
    affine integrand reduce to the first two moments of the measure.
    """

    def __init__(self, base, slope, base_grad=None, slope_grad=None):
        self.base = base
        self.slope = slope
        self.base_grad = base_grad
        self.slope_grad = slope_grad

    def evaluate(self, t, x, y, z, u, zeta):
        return self.base(t, x, y, z, u) + self.slope(t, x, y, z, u) * zeta

    def _partials(self, t, x, y, z, u):
        return (_grad4(self.base, self.base_grad, t, x, y, z, u),
                _grad4(self.slope, self.slope_grad, t, x, y, z, u))

    def step_sum(self, t, x, y, z, u, noise, k):
        """Per-path sum of gamma over the jumps of step k of `noise`."""
        return (self.base(t, x, y, z, u) * noise.jump_count_rows[k]
                + self.slope(t, x, y, z, u) * noise.mark_sum_rows[k])

    def nu_integral(self, t, x, y, z, u, jump_spec):
        return (
            self.base(t, x, y, z, u) * jump_spec.levy_moment(0)
            + self.slope(t, x, y, z, u) * jump_spec.levy_moment(1)
        )

    def pair_nu_integral(self, t, x, y, z, u, r0, r1, jump_spec):
        """Integral of gamma(zeta) * (r0 + r1 zeta) against the jump measure."""
        b = self.base(t, x, y, z, u)
        s = self.slope(t, x, y, z, u)
        return (
            b * r0 * jump_spec.levy_moment(0)
            + (b * r1 + s * r0) * jump_spec.levy_moment(1)
            + s * r1 * jump_spec.levy_moment(2)
        )

    def grad_dot_step_sum(self, t, x, y, z, u, vec4, noise, k):
        """Per-path sum over the jumps of step k of grad gamma . vec4."""
        dot_b, dot_s = (sum(g * v for g, v in zip(gr, vec4))
                        for gr in self._partials(t, x, y, z, u))
        return dot_b * noise.jump_count_rows[k] + dot_s * noise.mark_sum_rows[k]

    def grad_dot_nu_integral(self, t, x, y, z, u, vec4, jump_spec):
        dot_b, dot_s = (sum(g * v for g, v in zip(gr, vec4))
                        for gr in self._partials(t, x, y, z, u))
        return dot_b * jump_spec.levy_moment(0) + dot_s * jump_spec.levy_moment(1)

    def pair_grad_nu_integral(self, t, x, y, z, u, r0, r1, jump_spec):
        """4-tuple of integrals of (d gamma / d arg)(zeta) * (r0 + r1 zeta)."""
        gb, gs = self._partials(t, x, y, z, u)
        lm0, lm1, lm2 = (jump_spec.levy_moment(k) for k in (0, 1, 2))
        return tuple(
            b * r0 * lm0 + (b * r1 + s * r0) * lm1 + s * r1 * lm2
            for b, s in zip(gb, gs)
        )


class CallableJumpCoefficient:
    """General gamma(t,x,y,z,u,zeta); measure integrals via mark quadrature.

    A step's jump sums call fn (or the gradient) once on every jump of the
    step, with x, y, z, u read on each jump's path, and add the values per
    path in jump order (NoiseEnsemble.step_jumps).
    """

    def __init__(self, fn, grad_fns=None):
        self.fn = fn
        self.grad_fns = grad_fns

    def evaluate(self, t, x, y, z, u, zeta):
        return self.fn(t, x, y, z, u, zeta)

    def step_sum(self, t, x, y, z, u, noise, k):
        """Per-path sum of gamma over the jumps of step k of `noise`."""
        path, marks, args = _at_jumps(noise, k, (x, y, z, u))
        return _sum_per_path(self.fn(t, *args, marks), path, noise.n_paths)

    def nu_integral(self, t, x, y, z, u, jump_spec):
        return jump_spec.nu_expectation(lambda zeta: self.fn(t, x, y, z, u, zeta))

    def pair_nu_integral(self, t, x, y, z, u, r0, r1, jump_spec):
        return jump_spec.nu_expectation(
            lambda zeta: self.fn(t, x, y, z, u, zeta) * (r0 + r1 * zeta)
        )

    def grad(self, t, x, y, z, u, zeta):
        grad_fns = None if self.grad_fns is None else (lambda *a: self.grad_fns(*a, zeta))
        return _grad4(lambda *a: self.fn(*a, zeta), grad_fns, t, x, y, z, u)

    def grad_dot_step_sum(self, t, x, y, z, u, vec4, noise, k):
        """Per-path sum over the jumps of step k of grad gamma . vec4."""
        path, marks, args = _at_jumps(noise, k, (x, y, z, u, *vec4))
        dot = sum(g * v for g, v in zip(self.grad(t, *args[:4], marks), args[4:]))
        return _sum_per_path(dot, path, noise.n_paths)

    def grad_dot_nu_integral(self, t, x, y, z, u, vec4, jump_spec):
        def dotted(zeta):
            return sum(g * v for g, v in zip(self.grad(t, x, y, z, u, zeta), vec4))

        return jump_spec.nu_expectation(dotted)

    def pair_grad_nu_integral(self, t, x, y, z, u, r0, r1, jump_spec):
        """4-tuple of integrals of (d gamma / d arg)(zeta) * (r0 + r1 zeta).

        One gradient per quadrature node; each component is summed like
        JumpSpec.nu_expectation sums it.
        """
        if jump_spec.intensity == 0.0:
            return (0.0,) * 4
        totals = (0.0,) * 4
        for zeta, w in zip(jump_spec.quad_nodes, jump_spec.quad_weights):
            pair = r0 + r1 * zeta
            grads = self.grad(t, x, y, z, u, zeta)
            totals = tuple(total + w * (g * pair) for total, g in zip(totals, grads))
        return tuple(jump_spec.intensity * total for total in totals)


def _at_jumps(noise, k, arrays):
    """Path index and mark of every jump of step k, and each of `arrays` (one
    value per path, a singleton row or a scalar) read on the jump's path."""
    bounds, path, marks = noise.step_jumps
    jumps = slice(bounds[k], bounds[k + 1])
    path = path[jumps]
    return path, marks[jumps], [np.broadcast_to(a, (noise.n_paths,))[path] for a in arrays]


def _sum_per_path(values, path, n_paths):
    # bincount adds its weights in input order from 0.0: per path, in draw order
    return np.bincount(path, weights=np.broadcast_to(values, path.shape), minlength=n_paths)


class CoefficientModel:
    """Drift, diffusion, jump, cost and terminal data for one control problem.

    All coefficient callables take (t, x, y, z, u) with x, y, z, u possibly
    arrays (one entry per path) and must vectorize.  t may also be the row of
    horizon times, with x, y, z, u then (paths, nodes) blocks: the
    Hamiltonian's partials are read over the whole horizon in one call (see
    StateBundle.horizon_args), so the coefficients, their gradients and the
    jump coefficient must broadcast a time row.  check_sufficient also passes
    a vector of probe times, with one x, y, z, u per probe.  Gradients, when
    supplied, return the 4-tuple of partials in the order (x, y, z, u);
    missing gradients fall back to central finite differences with bump
    1e-5 * (1 + |value|).  A partial may be a read-only broadcast view (the
    catalog's constant partials are), so no caller writes into one.  A
    CallableJumpCoefficient's fn and grad_fns take an array of marks zeta
    with matching arrays of x, y, z and u, one entry per jump of a step.

    Args:
        drift, diffusion, running_cost: coefficient callables.
        terminal: DeterministicTerminal or StochasticLinearTerminal.
        initial_segment: xi(t) on [-delta, 0], vectorized in t.
        control_set: admissible interval for the control.
        jump_coefficient / jump_spec: compound-Poisson part (both or neither).
        drift_grad, diffusion_grad, cost_grad: optional analytic 4-gradients.
        kernel: optional MemoryKernel reweighting the memory window Z.  Every
            simulation, derivative and residual of the model reads it from
            here; the identity kernel reuses the plain window bit for bit.
    """

    def __init__(
        self,
        drift,
        diffusion,
        running_cost,
        terminal,
        initial_segment,
        control_set,
        jump_coefficient=None,
        jump_spec=None,
        drift_grad=None,
        diffusion_grad=None,
        cost_grad=None,
        name="",
        kernel=None,
    ):
        if jump_coefficient is not None and jump_spec is None:
            raise ValueError("a jump coefficient needs a jump spec")
        self.drift = drift
        self.diffusion = diffusion
        self.running_cost = running_cost
        self.terminal = terminal
        self.initial_segment = initial_segment
        self.control_set = control_set
        self.gamma = jump_coefficient
        self.jump_spec = jump_spec if jump_spec is not None else JumpSpec.none()
        self._drift_grad = drift_grad
        self._diffusion_grad = diffusion_grad
        self._cost_grad = cost_grad
        self.name = name
        self.kernel = kernel

    @property
    def has_jumps(self):
        return self.gamma is not None and self.jump_spec.intensity > 0.0

    def drift_grad(self, t, x, y, z, u):
        return _grad4(self.drift, self._drift_grad, t, x, y, z, u)

    def diffusion_grad(self, t, x, y, z, u):
        return _grad4(self.diffusion, self._diffusion_grad, t, x, y, z, u)

    def cost_grad(self, t, x, y, z, u):
        return _grad4(self.running_cost, self._cost_grad, t, x, y, z, u)

    def check_gradients(self, seed=0, n_points=32, rtol=1e-4, atol=1e-8):
        """Compare analytic gradients against central differences.

        Random interior points; raises GradientMismatch on the worst offender
        if any partial disagrees beyond rtol/atol.  Returns the worst relative
        error seen (useful as a health number even when everything passes).
        """
        gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        worst = 0.0
        worst_what = None
        named = [
            ("drift", self.drift, self._drift_grad),
            ("diffusion", self.diffusion, self._diffusion_grad),
            ("running_cost", self.running_cost, self._cost_grad),
        ]
        lo, hi = self.control_set.lower, self.control_set.upper
        if not np.isfinite(lo):
            lo = -1.0
        if not np.isfinite(hi):
            hi = max(lo + 2.0, 2.0)
        for _ in range(n_points):
            t = float(gen.uniform(0.0, 1.0))
            x, y, z = gen.normal(0.8, 0.6, size=3)
            u = float(gen.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo)))
            for label, fn, grad_fns in named:
                if grad_fns is None:
                    continue
                analytic = _grad4(fn, grad_fns, t, x, y, z, u)
                numeric = tuple(_central_fd(fn, t, x, y, z, u, i) for i in range(4))
                for arg, a, b in zip(_ARGS, analytic, numeric):
                    denom = max(abs(float(b)), atol / rtol)
                    err = abs(float(a) - float(b)) / denom
                    if err > worst:
                        worst = err
                        worst_what = "%s d/d%s at t=%.3f" % (label, arg, t)
        if worst > rtol:
            raise GradientMismatch(
                "analytic gradient disagrees with finite differences: %s "
                "(rel err %.3e > %.1e)" % (worst_what, worst, rtol)
            )
        return worst


class StateBundle:
    """Simulated state paths on the shared grid.

    The sweep that fills it runs time-major, but every array here is handed
    back path-major and C-contiguous: sums over paths or nodes and kernel
    matrix-vector products give different bits on a transposed layout, so
    the layout is part of the reproducibility contract.

    Attributes:
        x: (n_paths, n_nodes) state on [-delta, horizon].
        y: (n_paths, n_horizon+1) delayed state X(t - delta) on [0, horizon].
        z: (n_paths, n_horizon+1) trailing-window memory integral on [0, horizon].
        z_general: kernel-weighted memory integral, present when the model
            has a kernel (identical object to z for the identity kernel).
        x2: running memory integral from the first node, present only on
            bundles built by reduce_2d; then z[k] == x2[k] - x2[k-m] exactly.
        control, noise: the inputs the bundle was built from.
    """

    def __init__(self, grid, x, y, z, control, noise, z_general=None, x2=None):
        self.grid = grid
        self.x = x
        self.y = y
        self.z = z
        self.z_general = z_general
        self.x2 = x2
        self.control = control
        self.noise = noise
        for arr in (x, y, z):
            arr.flags.writeable = False
        if x2 is not None:
            x2.flags.writeable = False
        if z_general is not None and z_general is not z:
            z_general.flags.writeable = False

    @property
    def n_paths(self):
        return self.x.shape[0]

    @property
    def terminal_x(self):
        return self.x[:, -1]

    @property
    def memory_arg(self):
        """The memory value the coefficients actually consumed (z or z_general)."""
        return self.z if self.z_general is None else self.z_general

    def horizon_args(self):
        """(t, x, y, z, u) on the nodes of [0, horizon], one column per node.

        t is the row of horizon times and u has one row when it is shared
        across paths; this is the point at which the Hamiltonian's partials
        are read, so coefficients must accept it (see CoefficientModel).
        """
        grid = self.grid
        return (grid.horizon_nodes, self.x[:, grid.index_zero:], self.y,
                self.memory_arg, self.control.rows())


def _sweep(noise, start, step, kernel=None, keep_prefix=False, ring=False, what="state"):
    """Time-major left-point Euler sweep of a process V fed by its own memory window.

    V equals `start` on the initial segment (zero when None) and leaves node
    k >= m by V[k+1] = V[k] + b h + s dB[k] (+ jump - h * comp), where
    step(k, V[k], V[k-m], window[k]) returns (b, s), or (b, s, jump, comp)
    with jump the step's per-path jump sum, read from the noise by the jump
    coefficient.  The window integrates V dB over the trailing delay,
    kernel-weighted for a non-identity kernel.

    The work buffers are (node, path) rows, so each step touches contiguous
    memory, and the increments are read forward from the ensemble's
    time-major companion NoiseEnsemble.increment_rows.  The plain window is
    the difference of two entries of the running prefix of V dB, kept in a
    ring of m + 1 rows unless `keep_prefix` asks for all of it.  The
    weighted window keeps the path-major term matrix and its matrix-vector
    product, whose BLAS summation order fixes its bits.
    With `ring`, V is kept in a ring of m + 2 rows, so the row being written
    is never V[k-m], and each window in one row: for callers that read the
    process only inside `step`.

    Returns time-major (V, plain window, weighted window or None, prefix or
    None); the windows cover the nodes of [0, horizon].  With `ring`, V is
    its terminal row and each window its last row.

    Raises:
        NonFiniteState: V left the finite range (step and time attached).
    """
    grid = noise.grid
    m = grid.steps_per_delay
    n = grid.n_horizon_steps
    h = grid.step
    n_paths = noise.n_paths
    use_kernel = kernel is not None and not kernel.is_identity
    incr = noise.increment_rows

    v_rows = m + 2 if ring else grid.n_nodes
    v = np.zeros((v_rows, n_paths))
    first = m if start is None else 0  # a zero start keeps V dB zero before m
    if start is not None:
        v[: m + 1] = np.asarray(start)[:, None]
    prefix_rows = grid.n_nodes if keep_prefix else m + 1
    prefix = np.zeros((prefix_rows, n_paths))
    window_rows = 1 if ring else n + 1
    window = np.empty((window_rows, n_paths))
    weighted = np.empty((window_rows, n_paths)) if use_kernel else None
    terms = np.zeros((n_paths, grid.n_steps)) if use_kernel else None

    for k in range(first, m + n + 1):
        vk = v[k % v_rows]
        if k >= m:
            w = (k - m) % window_rows
            np.subtract(prefix[k % prefix_rows], prefix[(k - m) % prefix_rows], out=window[w])
            if use_kernel:
                weighted[w] = terms[:, k - m : k] @ kernel.weights(grid, k)
            if k == m + n:
                break
        incr_k = incr[k]
        if k >= m:
            coef = step(k, vk, v[(k - m) % v_rows], (weighted if use_kernel else window)[w])
            # v[k] + b h + s dB (+ jump - h comp), evaluated in that order
            v_next = v[(k + 1) % v_rows]
            np.multiply(coef[0], h, out=v_next)
            np.add(vk, v_next, out=v_next)
            v_next += coef[1] * incr_k
            if len(coef) > 2:
                v_next += coef[2]
                v_next -= h * coef[3]
            if not np.isfinite(v_next).all():
                t_k = grid.nodes[k]
                raise NonFiniteState(
                    "%s became non-finite advancing from t=%g (step %d)" % (what, t_k, k),
                    step=k, time=t_k,
                )
        term = vk * incr_k
        if use_kernel:
            terms[:, k] = term
        np.add(prefix[k % prefix_rows], term, out=prefix[(k + 1) % prefix_rows])
    return (vk if ring else v), window, weighted, (prefix if keep_prefix else None)


def _path_major(rows):
    """C-contiguous transpose of a (node, path) buffer, copied out 256 paths at a time."""
    if rows is None:
        return None
    out = np.empty(rows.shape[::-1])
    for p0 in range(0, rows.shape[1], 256):
        out[p0 : p0 + 256] = rows[:, p0 : p0 + 256].copy().T
    return out


def _state_sweep(model, control, noise, keep_prefix=False, cost=None):
    """_sweep of the state equation of `model` under `control` on `noise`.

    With `cost`, a zero row of one value per path, each step also adds the
    running cost at its node to `cost`, in node order, with u a scalar when
    the control is shared across paths; the sweep then keeps the state in a
    ring (see _sweep) and returns its terminal row as V.

    Raises:
        GridMismatch: control and noise grids differ.
        NonFiniteState: the state left the finite range.
    """
    grid = noise.grid
    if control.grid != grid:
        raise GridMismatch("control grid %r vs noise grid %r" % (control.grid, grid))
    m = grid.steps_per_delay
    u_rows = control.rows()

    def step(k, xk, yk, zk):
        t_k = grid.nodes[k]
        uk = u_rows[:, k - m]
        if cost is not None:
            u_cost = uk if u_rows.shape[0] > 1 else u_rows[0, k - m]
            np.add(cost, model.running_cost(t_k, xk, yk, zk, u_cost), out=cost)
        coef = (model.drift(t_k, xk, yk, zk, uk), model.diffusion(t_k, xk, yk, zk, uk))
        if not model.has_jumps:
            return coef
        return coef + (model.gamma.step_sum(t_k, xk, yk, zk, uk, noise, k),
                       model.gamma.nu_integral(t_k, xk, yk, zk, uk, model.jump_spec))

    return _sweep(
        noise, model.initial_segment(grid.nodes[: m + 1]), step,
        kernel=model.kernel, keep_prefix=keep_prefix, ring=cost is not None,
    )


def simulate_state(model, control, noise, _expose_prefix=False):
    """Euler simulation of the delayed state with noisy memory.

    The memory window is weighted by model.kernel when the model has one.

    Args:
        model: CoefficientModel.
        control: ControlPath on the same grid as the noise.
        noise: NoiseEnsemble (a single path is a one-path ensemble).

    Returns:
        StateBundle with one row per path.

    Raises:
        GridMismatch: control and noise grids differ.
        NonFiniteState: the state left the finite range (step and time attached).
    """
    grid = noise.grid
    x, z, zg, prefix = _state_sweep(model, control, noise, keep_prefix=_expose_prefix)
    # Copy back one buffer at a time so the time-major ones are freed early.
    x = _path_major(x)
    y = x[:, : grid.n_horizon_steps + 1].copy()
    z = _path_major(z)
    zg = _path_major(zg)
    kernel = model.kernel
    return StateBundle(
        grid, x, y, z,
        control=control, noise=noise,
        z_general=(z if (kernel is not None and kernel.is_identity) else zg),
        x2=_path_major(prefix),
    )


def reduce_2d(model, control, noise):
    """Simulate the equivalent two-component system (state, running memory).

    The second component is the memory integral accumulated from the first
    grid node, whose increments are X dB; the window integral is then exactly
    the difference X2(t) - X2(t - delta).  Shares every floating-point
    operation with simulate_state, so the state paths agree bitwise.

    Raises:
        KernelNotReducible: the model has a non-identity kernel (the
            reduction only represents the unweighted window).
    """
    kernel = model.kernel
    if kernel is not None and not kernel.is_identity:
        raise KernelNotReducible(
            "the two-component reduction represents only the plain window "
            "integral; got a weighted kernel with bound %g" % kernel.bound
        )
    return simulate_state(model, control, noise, _expose_prefix=True)


def evaluate_performance(model, control, noise, state=None):
    """Performance of a control on given noise: (J, std_error, per-path values).

    J is the left-point time quadrature of the running cost plus the terminal
    payoff; the quadrature factors out h so a constant cost integrates to the
    horizon exactly.

    Without `state`, the running cost is summed inside the state's own Euler
    sweep, which keeps only a ring of state rows: no StateBundle is built,
    and the per-path values are bitwise those read from
    state=simulate_state(model, control, noise).  Pass `state` when one is
    already held.

    Raises:
        GridMismatch: control and noise grids differ (without `state`).
        NonFiniteState: the state left the finite range (without `state`).
    """
    if state is None:
        grid, n_paths = noise.grid, noise.n_paths
        cost = np.zeros(n_paths)
        x_terminal = _state_sweep(model, control, noise, cost=cost)[0]
    else:
        grid, n_paths = state.grid, state.n_paths
        n = grid.n_horizon_steps
        u_rows = control.rows()
        t_hor = grid.horizon_nodes
        zmem = state.memory_arg
        cost = np.zeros(n_paths)
        for j in range(n):
            cost = cost + model.running_cost(
                t_hor[j], state.x[:, grid.index_zero + j], state.y[:, j], zmem[:, j],
                u_rows[:, j] if u_rows.shape[0] > 1 else u_rows[0, j],
            )
        x_terminal = state.terminal_x
    per_path = grid.step * cost + model.terminal.value(x_terminal, noise)
    per_path = np.broadcast_to(per_path, (n_paths,)).astype(float)
    return (*_mean_se(per_path), per_path)


def _mean_se(per_path):
    """Monte Carlo mean of per-path samples and its standard error (0 for one path)."""
    n = len(per_path)
    value = float(per_path.mean())
    se = float(per_path.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return value, se
