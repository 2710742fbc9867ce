"""Time grids and the driving noise.

Everything downstream is indexed by the shared grid: nodes t_k = -delta + k*h
with h = delta / steps_per_delay, so the delay is always an exact index shift
and no float time arithmetic is needed anywhere else.
"""

from functools import cached_property

import numpy as np

from .errors import (GridTooLarge, InvalidGrid, NonCommensurate, OffGrid, SeedOutOfRange,
                     TooFewPaths)

_COMMENSURATE_RTOL = 1e-9
_UNCOUNTABLE = "the grid's step count horizon * steps_per_delay / delta is past the float range"
_KEY_MAX = 2**64 - 1  # a Philox key word is 64 bits


class TimeGrid:
    """Uniform grid on [-delta, horizon] whose step divides the delay exactly.

    Attributes:
        delta: memory lag (> 0).
        horizon: terminal time (> 0); must be an integer multiple of the step.
        steps_per_delay: number of steps per delay window (m).
        step: grid step h = delta / m.
        nodes: array of m + n + 1 node times, nodes[m] == 0.0 exactly.
        index_zero: index of the node t = 0 (equal to m).
        index_horizon: index of the terminal node.
    """

    def __init__(self, delta, horizon, steps_per_delay):
        if not (delta > 0):
            raise InvalidGrid("delay must be positive, got %r" % (delta,))
        if not (horizon > 0):
            raise InvalidGrid("horizon must be positive, got %r" % (horizon,))
        m = int(steps_per_delay)
        if m < 1 or m != steps_per_delay:
            raise InvalidGrid("steps_per_delay must be a positive integer, got %r"
                              % (steps_per_delay,))
        try:
            h = delta / m
            n = int(round(horizon / h))
        except (OverflowError, ZeroDivisionError):
            raise GridTooLarge(_UNCOUNTABLE) from None
        if n < 1 or abs(n * h - horizon) > _COMMENSURATE_RTOL * h:
            raise NonCommensurate(
                "horizon %r is not an integer number of steps h=%r "
                "(delta=%r, steps_per_delay=%d)" % (horizon, h, delta, m)
            )
        self.delta = float(delta)
        self.horizon = float(horizon)
        self.steps_per_delay = m
        self.step = h
        self.n_horizon_steps = n
        self.n_steps = m + n
        self.n_nodes = m + n + 1
        self.index_zero = m
        self.index_horizon = m + n
        try:
            nodes = (np.arange(self.n_nodes) - m) * h
        except (ValueError, MemoryError):
            raise GridTooLarge("numpy cannot allocate the %.3g nodes of this grid "
                               "(horizon=%r, h=%r)" % (self.n_nodes, horizon, h)) from None
        nodes.flags.writeable = False
        self.nodes = nodes

    def node(self, k):
        """Time of node k (exact grid arithmetic, k may be an array)."""
        return (np.asarray(k) - self.index_zero) * self.step

    def index_of(self, t):
        """Map a time to its node index, raising OffGrid if t is not a node."""
        k = int(round(t / self.step)) + self.index_zero
        if k < 0 or k >= self.n_nodes or abs(self.node(k) - t) > _COMMENSURATE_RTOL * self.step:
            raise OffGrid("time %r is not a node of this grid (h=%r)" % (t, self.step))
        return k

    @property
    def horizon_nodes(self):
        """Node times on [0, horizon]."""
        return self.nodes[self.index_zero:]

    def __eq__(self, other):
        return (
            isinstance(other, TimeGrid)
            and self.delta == other.delta
            and self.horizon == other.horizon
            and self.steps_per_delay == other.steps_per_delay
        )

    def __hash__(self):
        return hash((self.delta, self.horizon, self.steps_per_delay))

    def __repr__(self):
        return "TimeGrid(delta=%g, horizon=%g, steps_per_delay=%d)" % (
            self.delta,
            self.horizon,
            self.steps_per_delay,
        )


def make_grid(delta, horizon, steps_per_delay):
    """Build the shared simulation grid.

    Args:
        delta: memory lag, > 0.
        horizon: terminal time, > 0; must equal an integer number of steps
            h = delta / steps_per_delay within relative tolerance 1e-9.
        steps_per_delay: subdivisions of one delay window.

    Returns:
        TimeGrid with nodes t_k = -delta + k*h; the node t = 0 sits exactly at
        index steps_per_delay, so a lag of delta is always the index shift m.

    Raises:
        InvalidGrid: delta or horizon is not positive, or steps_per_delay is
            not a positive integer.
        NonCommensurate: if the horizon is not commensurate with the step.
        GridTooLarge: if numpy refuses to allocate the nodes.
    """
    return TimeGrid(delta, horizon, steps_per_delay)


class JumpSpec:
    """Compound-Poisson jump description: intensity plus mark distribution.

    The mark distribution is carried twice: as a sampler (for path generation)
    and as quadrature nodes/weights (for integrals against the jump measure,
    exact when the marks are discrete).  sample_ensemble calls
    mark_sampler(gen, size) only for a path with at least one jump, so size
    is always positive; a jump-free path draws no marks.
    """

    def __init__(self, intensity, mark_sampler=None, quad_nodes=None, quad_weights=None):
        if intensity < 0 or not np.isfinite(intensity):
            raise ValueError("jump intensity must be finite and >= 0")
        self.intensity = float(intensity)
        self.mark_sampler = mark_sampler
        if intensity > 0:
            if mark_sampler is None:
                raise ValueError("positive intensity requires a mark sampler")
            if quad_nodes is None or quad_weights is None:
                raise ValueError("positive intensity requires mark quadrature")
            quad_nodes = np.asarray(quad_nodes, dtype=float)
            quad_weights = np.asarray(quad_weights, dtype=float)
            if quad_nodes.shape != quad_weights.shape:
                raise ValueError("quadrature nodes and weights must align")
            if abs(quad_weights.sum() - 1.0) > 1e-12:
                raise ValueError("mark quadrature weights must sum to one")
        else:
            quad_nodes = np.zeros(0)
            quad_weights = np.zeros(0)
        self.quad_nodes = quad_nodes
        self.quad_weights = quad_weights

    @classmethod
    def none(cls):
        """No jumps at all."""
        return cls(0.0)

    @classmethod
    def discrete(cls, intensity, values, probs):
        """Marks drawn from a finite set; all jump-measure integrals exact."""
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if values.ndim != 1:
            raise ValueError("mark values must be a 1-d array")
        if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-12):
            raise ValueError("mark probabilities must be a distribution")
        cdf = probs.cumsum()
        cdf /= cdf[-1]

        def sampler(gen, size):
            # gen.choice(values, size, p=probs) without its per-call checks
            return values[cdf.searchsorted(gen.random(size), side="right")]

        return cls(intensity, sampler, values, probs)

    @classmethod
    def gaussian(cls, intensity, loc, scale, n_quad=21):
        """Normal marks; jump-measure integrals via Gauss-Hermite quadrature."""
        x, w = np.polynomial.hermite_e.hermegauss(n_quad)
        nodes = loc + scale * x
        weights = w / w.sum()

        def sampler(gen, size):
            return gen.normal(loc, scale, size=size)

        return cls(intensity, sampler, nodes, weights)

    def levy_moment(self, k):
        """k-th moment of the jump measure, intensity * E[mark^k] (k=0 gives
        the intensity itself)."""
        if self.intensity == 0.0:
            return 0.0
        return self.intensity * float(np.dot(self.quad_weights, self.quad_nodes**k))

    def nu_expectation(self, fn):
        """Integral of fn against the jump measure: intensity * E[fn(mark)].

        fn may return arrays (evaluated once per quadrature node and summed
        with the node weights), so state-dependent integrands vectorize.
        """
        if self.intensity == 0.0:
            return 0.0
        total = 0.0
        for zeta, w in zip(self.quad_nodes, self.quad_weights):
            total = total + w * fn(zeta)
        return self.intensity * total

    def __eq__(self, other):
        return (
            isinstance(other, JumpSpec)
            and self.intensity == other.intensity
            and np.array_equal(self.quad_nodes, other.quad_nodes)
            and np.array_equal(self.quad_weights, other.quad_weights)
        )


class NoiseEnsemble:
    """A batch of independent noise paths sharing one grid.

    Row i is bit-identical to sample_ensemble(grid, jump_spec, seed, 1,
    first_path=i): the ensemble is just the stacked per-key draws, so results
    never depend on ensemble size or iteration order.  A single path is an
    ensemble with n_paths == 1.

    Fields:
        grid: the TimeGrid.
        increments: Brownian increments, shape (n_paths, grid.n_steps).
        jump_counts: jumps per path and step, same shape.
        jump_marks: the mark of every jump, one flat array of length
            jump_counts.sum(), in path order and, within a path, in step and
            draw order.  The Euler scheme applies a jump at the end of its
            step, so a step's count and marks are all it reads.

    The arrays are read-only, path-major and C-contiguous, with one
    exception: counts given as one value broadcast over every cell are kept
    as that zero-stride view.  So a jump-free ensemble's jump_counts has the
    usual shape and zeros but holds a single int64; integer sums over it are
    exact in any order.

    The Euler sweeps read the noise one step at a time, so the first sweep
    to ask builds read-only time-major companions, shape (n_steps, n_paths):
    increment_rows, and for the jump part jump_count_rows and mark_sum_rows.
    A general jump coefficient reads step_jumps instead, every jump laid out
    step by step.  Each is built once per ensemble and kept with it; sampling
    and the path-major readers (duality_check, ...) never build them, and
    the sweeps of a model without jumps build none of the jump part.
    """

    def __init__(self, grid, increments, jump_counts, jump_marks):
        self.grid = grid
        self.increments = np.ascontiguousarray(increments, dtype=float)
        counts = np.asarray(jump_counts, dtype=np.int64)
        self.jump_counts = np.ascontiguousarray(counts) if any(counts.strides) else counts
        self.jump_marks = np.ascontiguousarray(jump_marks, dtype=float)
        shape = self.increments.shape
        if len(shape) != 2 or shape[1] != grid.n_steps or self.jump_counts.shape != shape:
            raise ValueError(
                "increments and jump counts must both have shape (n_paths, %d)" % grid.n_steps
            )
        if self.jump_marks.shape != (self.jump_counts.sum(),):
            raise ValueError("jump marks must be one flat array of one mark per jump")
        self.n_paths = shape[0]
        for arr in (self.increments, self.jump_counts, self.jump_marks):
            arr.flags.writeable = False

    @cached_property
    def increment_rows(self):
        """increments, time-major: row k holds every path's increment of step k."""
        return _time_major(self.increments)

    @cached_property
    def jump_count_rows(self):
        """jump_counts, time-major."""
        return _time_major(self.jump_counts)

    @cached_property
    def mark_sum_rows(self):
        """step_mark_sums(), time-major."""
        return _time_major(self.step_mark_sums())

    @cached_property
    def step_jumps(self):
        """(bounds, path, marks) of every jump, step-major: the jumps of step k
        are entries bounds[k]:bounds[k+1] of the path index and mark arrays, in
        path order and, within a path, in draw order."""
        n_steps = self.grid.n_steps
        cells = _jump_cells(self.jump_counts)
        order = np.argsort(cells % n_steps, kind="stable")
        bounds = np.concatenate(([0], self.jump_counts.sum(axis=0).cumsum()))
        out = (bounds, cells[order] // n_steps, self.jump_marks[order])
        for arr in out:
            arr.flags.writeable = False
        return out

    def path(self, i):
        """Path i as a one-path ensemble (a view of row i)."""
        i = range(self.n_paths)[i]  # negative indices count from the end
        counts = self.jump_counts[i : i + 1]
        marks = self.jump_marks
        if marks.size:  # a jump-free ensemble skips the offset sum
            start = int(self.jump_counts[:i].sum())
            marks = marks[start : start + int(counts.sum())]
        return NoiseEnsemble(self.grid, self.increments[i : i + 1], counts, marks)

    def step_mark_sums(self):
        """Sum of marks per path and step (zeros when there are no jumps),
        added in draw order: bincount accumulates its weights in input order."""
        sums = np.bincount(_jump_cells(self.jump_counts), weights=self.jump_marks,
                           minlength=self.jump_counts.size)
        return sums.reshape(self.jump_counts.shape)


def _jump_cells(counts):
    """Flat (path, step) cell of every jump, path-major then step-major: the
    order of jump_marks."""
    flat = counts.ravel()
    cells = np.flatnonzero(flat)
    return np.repeat(cells, flat[cells])


def _time_major(arr):
    """Read-only C-contiguous transpose of a path-major array.

    Copied 64 paths at a time: each block of rows is read once while its
    transposed strip is written, about three times faster than a plain
    np.ascontiguousarray(arr.T) at 4000 paths x 384 steps.
    """
    out = np.empty(arr.shape[::-1], dtype=arr.dtype)
    for p0 in range(0, arr.shape[0], 64):
        out[:, p0 : p0 + 64] = arr[p0 : p0 + 64].T
    out.flags.writeable = False
    return out


def sample_ensemble(grid, jump_spec, seed, n_paths, first_path=0):
    """Draw n_paths independent noise paths keyed (seed, first_path + i).

    Each path draws, in order, its normals, jump counts and marks.
    The per-path keying makes chunked sampling reproducible: the concatenation
    of ensembles with first_path 0, c, 2c, ... equals the monolithic ensemble
    bit for bit, whatever the chunk size.

    Raises:
        SeedOutOfRange: seed is negative or not finite, or a key (seed,
            first_path + i) is past 2**64 - 1.
        TooFewPaths: n_paths is below one.
        GridTooLarge: numpy refuses the (n_paths, n_steps) arrays.
    """
    # the range check comes first: it is also what refuses nan and inf
    if not 0 <= seed <= _KEY_MAX:
        raise SeedOutOfRange("seed %s is outside [0, 2**64 - 1]" % seed)
    if int(seed) != seed:
        raise ValueError("seed must be an integer")
    if n_paths < 1:
        raise TooFewPaths("need at least one path, got n_paths=%r" % (n_paths,))
    if first_path < 0 or int(first_path) != first_path:
        raise ValueError("first_path must be a nonnegative integer")
    seed, first_path = int(seed), int(first_path)
    if first_path + n_paths - 1 > _KEY_MAX:
        raise SeedOutOfRange("the path keys (seed, first_path + i) for i < n_paths "
                             "run past 2**64 - 1")
    # One Philox re-keyed per path: the state set below (counter 0, empty
    # buffer, no cached uint32) is that of a fresh Philox(key=[seed, path]).
    # The state is built from plain ints: the setter reads them about twice
    # as fast as the uint64 arrays the state getter returns.
    key = [seed, first_path]
    bitgen = np.random.Philox(key=np.array(key, dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    has_jumps = jump_spec.intensity > 0.0
    try:
        incr = np.empty((n_paths, grid.n_steps))
        # a jump-free ensemble holds its zero counts as one broadcast zero
        counts = (np.zeros((n_paths, grid.n_steps), dtype=np.int64) if has_jumps
                  else np.broadcast_to(np.int64(0), (n_paths, grid.n_steps)))
    except (ValueError, MemoryError):
        raise GridTooLarge("numpy cannot allocate the (%.3g, %d) noise arrays of this "
                           "ensemble" % (n_paths, grid.n_steps)) from None
    marks = []  # the marks of the paths with jumps, in path order
    # The loop makes only the draws of each path's stream.  A path's stream
    # ends with its marks, so a path that drew no jumps skips the empty mark
    # draw without moving any bit.
    for i in range(n_paths):
        key[1] = first_path + i
        bitgen.state = fresh
        gen.standard_normal(out=incr[i])
        if has_jumps:
            row = gen.poisson(jump_spec.intensity * grid.step, grid.n_steps)
            counts[i] = row
            total = int(row.sum())
            if total:
                marks.append(jump_spec.mark_sampler(gen, total))
    incr *= np.sqrt(grid.step)
    marks = np.concatenate(marks, dtype=float) if marks else np.zeros(0)
    return NoiseEnsemble(grid, incr, counts, marks)


def coarsen(noise, factor):
    """Aggregate a noise ensemble onto a grid `factor` times coarser.

    Brownian increments over merged steps add; jumps keep their marks and
    land in the coarse step containing their fine step.  Used for
    strong-order checks against a common refinement.
    """
    grid = noise.grid
    factor = int(factor)
    if factor < 1 or grid.steps_per_delay % factor:
        raise ValueError("factor must divide steps_per_delay")
    coarse = make_grid(grid.delta, grid.horizon, grid.steps_per_delay // factor)
    shape = (noise.n_paths, coarse.n_steps, factor)
    return NoiseEnsemble(coarse, noise.increments.reshape(shape).sum(axis=-1),
                         noise.jump_counts.reshape(shape).sum(axis=-1), noise.jump_marks)
