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
    ControlShape,
    GradientMismatch,
    GridMismatch,
    KernelNotReducible,
    NonFiniteState,
    OutOfControlSet,
)
from .paths import JumpSpec, _time_major

_FD_BUMP = 1e-5
_ARGS = ("x", "y", "z", "u")


class ControlSet:
    """Closed interval of admissible control values (endpoints may be inf)."""

    def __init__(self, lower, upper):
        if not (lower <= upper):
            raise ValueError("control set needs lower <= upper")
        self.lower = float(lower)
        self.upper = float(upper)

    def contains(self, v):
        v = np.asarray(v)
        return bool(np.all(v >= self.lower) and np.all(v <= self.upper))

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
    def ramp(cls, delta):
        """phi(t, s) = (s - t + delta) / delta, rising 0 -> 1."""

        def fn(t, s):
            return (np.asarray(s, dtype=float) - t + delta) / delta

        return cls(fn, 1.0)

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
        s = np.arange(k, end)
        return np.asarray(self.fn(grid.nodes[s], grid.nodes[k]), dtype=float)


class ControlPath:
    """Control values on the nodes of [0, horizon].

    values has shape (n_horizon_steps + 1,) for controls that are identical
    across noise paths or (n_paths, n_horizon_steps + 1) for adapted per-path
    controls.  Which information flow a control is adapted to is the
    optimality checks' information argument, not a property of the values.
    Values of any other shape are a ControlShape error naming it.
    """

    def __init__(self, grid, values, control_set=None):
        values = np.asarray(values, dtype=float)
        width = grid.n_horizon_steps + 1
        if values.ndim == 0:
            values = np.full(width, float(values))
        if values.ndim > 2 or values.shape[-1] != width:
            raise ControlShape("control of shape %r: need (%d,) or (n_paths, %d), one value "
                               "per node of [0, horizon]" % (values.shape, width, width))
        if control_set is not None and not control_set.contains(values):
            raise OutOfControlSet(
                "control leaves the admissible interval %r" % (control_set,)
            )
        self.grid = grid
        self.values = values
        self.control_set = control_set
        self.values.flags.writeable = False

    @classmethod
    def constant(cls, grid, v, control_set=None):
        return cls(grid, np.full(grid.n_horizon_steps + 1, float(v)), control_set)

    def rows(self):
        """values with a leading path axis (size 1 when shared across paths)."""
        return self.values if self.values.ndim == 2 else self.values[None, :]

    def shifted_by(self, direction, s):
        """Control with values + s * direction (direction: same node layout).

        Keeps the admissible set, so a shift that leaves it raises
        OutOfControlSet.
        """
        direction = np.asarray(direction, dtype=float)
        return ControlPath(self.grid, self.values + s * direction, self.control_set)


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

    def __init__(self, fn):
        self.fn = fn

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
        return _grad4(lambda *a: self.fn(*a, zeta), None, t, x, y, z, u)

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
    """Path index and mark of every jump of step k, and each of `arrays` read
    on the jump's path.  An array holds one value per path, a singleton or a
    scalar on its last axis, behind which a leading axis (a stacked sweep's
    slots) is kept."""
    bounds, path, marks = noise.step_jumps
    jumps = slice(bounds[k], bounds[k + 1])
    path = path[jumps]
    return path, marks[jumps], [
        np.broadcast_to(a, np.shape(a)[:-1] + (noise.n_paths,))[..., path] for a in arrays]


def _sum_per_path(values, path, n_paths):
    """Per-path sums of `values`, one per jump on the last axis; a leading
    axis (a stacked sweep's slots) gives one row of sums per entry."""
    values = np.broadcast_to(values, np.shape(values)[:-1] + path.shape)
    rows = values.shape[0] if values.ndim == 2 else 1
    cells = path + n_paths * np.arange(rows)[:, None]  # row r's paths are bins r * n_paths + path
    # bincount adds its weights in input order from 0.0: per path, in draw order
    sums = np.bincount(cells.ravel(), weights=values.ravel(), minlength=rows * n_paths)
    return sums.reshape(values.shape[:-1] + (n_paths,))


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
    CallableJumpCoefficient's fn takes an array of marks zeta with matching
    arrays of x, y, z and u, one entry per jump of a step; its gradient is
    always the central finite difference.
    A terminal payoff's value must vectorize too: a finite difference reads
    it once on the stacked (k, n_paths) terminal rows of its k controls.
    Several controls swept together (_performance_paths) pass x, y, z as
    (k, n_paths) blocks with u a (k, 1) column, or a (k, n_paths) block when
    some control is per path, and a CallableJumpCoefficient's fn then gets
    (k, jumps) arrays beside the step's marks.

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
        linear_spec: the adjoint.LinearBSDESpec of a member of the paper's
            linear noisy-memory family, whose adjoint solves in closed form;
            None for every other model.  The closed-form route, the regression
            cross-check and the bridge checks read their parameters from it.
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
        linear_spec=None,
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
        self.linear_spec = linear_spec

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
    """The record of one state sweep on the shared grid.

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
        cost_sum: (n_paths,) running cost summed over the horizon nodes
            before the last, in node order and without the factor h.
        x2: running memory integral from the first node, present only on
            bundles built by reduce_2d; then z[k] == x2[k] - x2[k-m] exactly.
        control, noise: the inputs the bundle was built from.
    """

    def __init__(self, grid, x, y, z, control, noise, cost_sum, z_general=None):
        self.grid = grid
        self.x = x
        self.y = y
        self.z = z
        self.z_general = z_general
        self.cost_sum = cost_sum
        self.x2 = None
        self.control = control
        self.noise = noise
        for arr in (x, y, z, cost_sum):
            arr.flags.writeable = False
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


class _Carry:
    """The buffers a sweep reads from node `node` on; the sweep updates them in place.

    Each row of a buffer has a slot axis, one slot per control that a
    stacked sweep carries (_performance_paths); a sweep advances the first
    `active` slots, one contiguous (active, n_paths) block per row, and
    slot 0 alone as (n_paths,) rows.  v holds V's rows, indexed by node
    modulo its row count: every node, or with `ring` a ring of m + 2 rows
    that holds every row the next steps read.  prefix is a ring of m + 1
    rows of the running prefix of V dB.  terms is the path-major term matrix
    of each slot for a non-identity kernel (None otherwise).  cost is None
    here; a state carry (_state_carry) sums the running cost over the nodes
    before `node` into it.  A fresh carry has zero buffers, with V equal to
    `start` on the initial segment when given.
    """

    def __init__(self, noise, node, slots, start=None, kernel=None, ring=False):
        grid = noise.grid
        m = grid.steps_per_delay
        n_paths = noise.n_paths
        self.node = node
        self.ring = ring
        self.active = 1
        self.kernel = kernel if kernel is not None and not kernel.is_identity else None
        self.v = np.zeros((m + 2 if ring else grid.n_nodes, slots, n_paths))
        if start is not None:
            self.v[: m + 1] = np.asarray(start)[:, None, None]
        self.prefix = np.zeros((m + 1, slots, n_paths))
        self.terms = (np.zeros((slots, n_paths, grid.n_steps)) if self.kernel is not None
                      else None)
        self.cost = None

    @property
    def live(self):
        """Index of the slots a sweep advances: 0, for (n_paths,) rows, while
        slot 0 is the only one, else the first `active`."""
        return 0 if self.active == 1 else slice(0, self.active)

    def fan_out(self, active):
        """Start slots active..: each becomes a copy of slot 0 at `node`.

        Of the term matrix, only the m columns before `node` are copied: a
        sweep reads no earlier column, and writes each later one before it
        reads it.
        """
        new = slice(self.active, active)
        # row by row: numpy would first copy a source whose bounds overlap the target's
        for buf in (self.v, self.prefix):
            for row in buf:
                row[new] = row[0]
        if self.terms is not None:
            window = slice(self.node - (len(self.prefix) - 1), self.node)
            self.terms[new, :, window] = self.terms[0, :, window]
        if self.cost is not None:
            self.cost[new] = self.cost[0]
        self.active = active


def _sweep(noise, carry, step, what="state", stop=None):
    """Time-major left-point Euler sweep of a process V fed by its own memory window.

    The sweep begins at node carry.node from the carry's buffers (see _Carry)
    and runs to the end, or up to node `stop`, where it leaves the carry for
    a later sweep to resume: a cold start is a fresh carry at node 0 (V the
    initial segment) or at node m (V zero, so V dB is zero before m).  V
    leaves node k >= m by V[k+1] = V[k] + b h + s dB[k] (+ jump - h * comp),
    where step(k, V[k], V[k-m], window[k]) returns (b, s), or (b, s, jump,
    comp) with jump the step's per-path jump sum, read from the noise by the
    jump coefficient.  The window integrates V dB over the trailing delay,
    weighted by the carry's kernel when it has one.  Each argument of step
    holds the carry's live slots (_Carry.live): (n_paths,) rows, or
    (slots, n_paths) blocks on which every operation is elementwise, so each
    slot's rows are bitwise those of a sweep of that slot alone.

    The work buffers are (node, slot, path) rows, so each step touches
    contiguous memory, and the increments are read forward from the
    ensemble's time-major companion NoiseEnsemble.increment_rows.  The plain
    window is the difference of two entries of the running prefix of V dB.
    The weighted window keeps each slot's path-major term matrix and its
    matrix-vector product, one (n_paths, m) @ (m,) product per slot whose
    BLAS summation order fixes its bits.  With a ring carry the row being
    written is never V[k-m], and each window is kept in one row: for callers
    that read the process only inside `step`.

    Returns time-major (V, plain window, weighted window or None), each with
    a slot axis after the node axis; the windows cover the nodes of
    [0, horizon], and those before the first node swept are zero.  With a
    ring carry, V is its terminal row and each window its last row.

    Raises:
        NonFiniteState: V left the finite range in some slot (the earliest
            such step and its time attached).
    """
    grid = noise.grid
    m = grid.steps_per_delay
    n = grid.n_horizon_steps
    h = grid.step
    kernel = carry.kernel
    incr = noise.increment_rows
    v, prefix, terms = carry.v, carry.prefix, carry.terms
    v_rows, prefix_rows = len(v), len(prefix)
    window_rows = 1 if carry.ring else n + 1
    window = np.zeros((window_rows,) + v.shape[1:])
    weighted = np.zeros(window.shape) if kernel is not None else None
    s = carry.live

    end = m + n + 1 if stop is None else stop
    for k in range(carry.node, end):
        vk = v[k % v_rows, s]
        if k >= m:
            w = (k - m) % window_rows
            np.subtract(prefix[k % prefix_rows, s], prefix[(k - m) % prefix_rows, s],
                        out=window[w, s])
            if kernel is not None:
                weighted[w, s] = terms[s, :, k - m : k] @ kernel.weights(grid, k)
            if k == m + n:
                break
        incr_k = incr[k]
        if k >= m:
            coef = step(k, vk, v[(k - m) % v_rows, s],
                        (window if kernel is None else weighted)[w, s])
            # v[k] + b h + s dB (+ jump - h comp), evaluated in that order
            v_next = v[(k + 1) % v_rows, s]
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
        if kernel is not None:
            terms[s, :, k] = term
        np.add(prefix[k % prefix_rows, s], term, out=prefix[(k + 1) % prefix_rows, s])
    carry.node = end
    return (v[(m + n) % v_rows] if carry.ring else v), window, weighted


def _state_carry(model, noise, slots, ring=False):
    """Fresh carry of `slots` slots of the state sweep of `model` at node 0,
    V its initial segment, with a zero running-cost sum (see _Carry and
    _state_sweep)."""
    grid = noise.grid
    carry = _Carry(noise, 0, slots,
                   model.initial_segment(grid.nodes[: grid.steps_per_delay + 1]),
                   kernel=model.kernel, ring=ring)
    carry.cost = np.zeros((slots, noise.n_paths))
    return carry


def _control_rows(control, noise):
    """control.rows(), refused with GridMismatch unless the control is on
    noise's grid with 1 or n_paths rows."""
    if control.grid != noise.grid:
        raise GridMismatch("control grid %r vs noise grid %r" % (control.grid, noise.grid))
    rows = control.rows()
    if rows.shape[0] not in (1, noise.n_paths):
        raise GridMismatch("control of shape %r on paths of shape %r; need 1 or %d rows"
                           % (control.values.shape, (noise.n_paths, rows.shape[1]),
                              noise.n_paths))
    return rows


def _state_sweep(model, u, noise, carry, stop=None):
    """_sweep of the state equation of `model` on `noise`, from `carry`.

    u holds the control rows of each slot of the carry, (slots, 1 or
    n_paths, n+1).  Each step also adds the running cost at its node to
    carry.cost, in node order, with u a scalar when slot 0 sweeps alone
    under a control shared across paths.

    Raises:
        NonFiniteState: the state left the finite range.
    """
    grid = noise.grid
    m = grid.steps_per_delay
    s = carry.live
    cost = carry.cost[s]
    u = u[s]

    def step(k, xk, yk, zk):
        t_k = grid.nodes[k]
        uk = u[..., k - m]
        np.add(cost, model.running_cost(t_k, xk, yk, zk, uk[0] if uk.shape == (1,) else uk),
               out=cost)
        coef = (model.drift(t_k, xk, yk, zk, uk), model.diffusion(t_k, xk, yk, zk, uk))
        if not model.has_jumps:
            return coef
        return coef + (model.gamma.step_sum(t_k, xk, yk, zk, uk, noise, k),
                       model.gamma.nu_integral(t_k, xk, yk, zk, uk, model.jump_spec))

    return _sweep(noise, carry, step, stop=stop)


def simulate_state(model, control, noise):
    """Euler simulation of the delayed state with noisy memory.

    The memory window is weighted by model.kernel when the model has one.
    The sweep also sums the running cost (StateBundle.cost_sum), which is
    what evaluate_performance reads from a held state.

    Args:
        model: CoefficientModel.
        control: ControlPath on the same grid as the noise.
        noise: NoiseEnsemble (a single path is a one-path ensemble).

    Returns:
        StateBundle with one row per path.

    Raises:
        GridMismatch: the control is on another grid than the noise, or
            has neither 1 nor n_paths rows.
        NonFiniteState: the state left the finite range (step and time attached).
    """
    grid = noise.grid
    carry = _state_carry(model, noise, 1)
    u = _control_rows(control, noise)[None]
    x, z, zg = (a if a is None else a[:, 0] for a in _state_sweep(model, u, noise, carry))
    cost_sum = carry.cost[0]
    del carry
    # Copy back one buffer at a time so the time-major ones are freed early.
    x = _time_major(x)
    y = x[:, : grid.n_horizon_steps + 1].copy()
    z = _time_major(z)
    zg = None if zg is None else _time_major(zg)
    kernel = model.kernel
    return StateBundle(
        grid, x, y, z,
        control=control, noise=noise, cost_sum=cost_sum,
        z_general=(z if (kernel is not None and kernel.is_identity) else zg),
    )


def reduce_2d(model, control, noise):
    """Simulate the equivalent two-component system (state, running memory).

    The second component is the memory integral accumulated from the first
    grid node, whose increments are X dB; the window integral is then exactly
    the difference X2(t) - X2(t - delta).  The state is simulate_state's, and
    X2 is one cumulative sum of X dB from 0.0, the sweep's own running
    prefix in the same order, so X2 agrees bitwise with the window.

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
    state = simulate_state(model, control, noise)
    x2 = np.zeros(state.x.shape)
    np.multiply(state.x[:, :-1], noise.increments, out=x2[:, 1:])
    np.cumsum(x2, axis=1, out=x2)
    x2.flags.writeable = False
    state.x2 = x2
    return state


def evaluate_performance(model, control, noise, state=None):
    """Performance of a control on given noise: (J, std_error, per-path values).

    J is the left-point time quadrature of the running cost plus the terminal
    payoff; the quadrature factors out h so a constant cost integrates to the
    horizon exactly.

    The running cost is summed inside the state's own Euler sweep.  Without
    `state`, that sweep keeps only a ring of state rows and no StateBundle
    is built.  With `state`, J is read from the sum its sweep kept
    (StateBundle.cost_sum), so the state must be the one of this control
    on this noise.  The per-path values are bitwise the same either way.

    Raises:
        GridMismatch: the control is on another grid than the noise, or
            has neither 1 nor n_paths rows, or `state` was simulated from
            another control or noise object.
        NonFiniteState: the state left the finite range (without `state`).
    """
    if state is None:
        per_path = _performance_paths(model, (control,), noise)[0]
    else:
        _control_rows(control, state.noise)
        if state.control is not control or state.noise is not noise:
            raise GridMismatch("state of another control or noise than the ones passed")
        per_path = _per_path_value(model, state.grid, state.cost_sum, state.terminal_x, noise)
    return (*_mean_se(per_path), per_path)


def _per_path_value(model, grid, cost, x_terminal, noise):
    """h * (running-cost sum) + terminal payoff, one float per entry of `cost`."""
    per_path = grid.step * cost + model.terminal.value(x_terminal, noise)
    return np.broadcast_to(per_path, cost.shape).astype(float)


def _performance_paths(model, controls, noise):
    """Per-path J of each of `controls` on `noise`, state-free (see evaluate_performance).

    The controls are swept together, one slot of the carry each, so each
    Euler step makes one set of numpy calls for all of them: rows are
    (slots, n_paths) and a shared control's u is a (slots, 1) column.  A
    control whose rows agree bit for bit with those of controls[0] on its
    first s horizon nodes (_shared_nodes) has its state up to node m + s:
    slot 0, which holds controls[0], sweeps alone up to the first such node,
    and each other control's slot starts as a copy of slot 0 at its own
    node (_Carry.fan_out), in order of that node.  This is how the two sides
    of a finite difference skip the nodes before their direction's support,
    and how a spike is swept only from where it starts.  Each step does the
    same elementwise operations on each slot's rows as a sweep of that
    control alone, so each row of the result is bitwise that sweep's.  The
    terminal payoff is evaluated once, on the stacked (len(controls),
    n_paths) terminal rows; the result has one row per control.

    Raises:
        GridMismatch: a control is on another grid than the noise, or has
            neither 1 nor n_paths rows.
        NonFiniteState: a state left the finite range (the earliest step
            over all the controls).
    """
    grid = noise.grid
    m = grid.steps_per_delay
    rows = [_control_rows(c, noise) for c in controls]
    starts = [0] + [_shared_nodes(rows[0], r) for r in rows[1:]]
    order = [0] + sorted(range(1, len(rows)), key=starts.__getitem__)
    width = max(len(r) for r in rows)
    u = np.stack([np.broadcast_to(rows[i], (width, rows[i].shape[1])) for i in order])
    carry = _state_carry(model, noise, len(rows), ring=True)
    for slot, i in enumerate(order[1:], start=1):
        _state_sweep(model, u, noise, carry, stop=m + starts[i])
        carry.fan_out(slot + 1)
    x_terminal = _state_sweep(model, u, noise, carry)[0]
    back = np.argsort(order)
    x_terminal, cost = x_terminal[back], carry.cost[back]
    del carry  # a terminal payoff may need more room than a sweep
    return _per_path_value(model, grid, cost, x_terminal, noise)


def _shared_nodes(first, rows):
    """Horizon nodes before the first at which control rows `rows` differ
    from `first` in any bit, sign of zero included: at most n, as no step
    reads node n, and 0 when their row counts differ."""
    n = first.shape[1] - 1
    if rows.shape != first.shape:
        return 0
    first, rows = first[:, :n], rows[:, :n]
    differ = ((rows != first) | (np.signbit(rows) != np.signbit(first))).any(axis=0)
    hits = np.flatnonzero(differ)
    return int(hits[0]) if hits.size else n


def _mean_se(per_path):
    """Monte Carlo mean of per-path samples and its standard error (0 for one path)."""
    n = len(per_path)
    value = float(per_path.mean())
    se = float(per_path.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return value, se
