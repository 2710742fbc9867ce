"""First-chaos exponential functionals and Malliavin-calculus checks.

The workhorse family is

    F(t) = scale * exp( int_0^t psi dB + int_0^t drift ds ),

with deterministic psi and drift.  For these, the Malliavin derivative, all
conditional expectations, and the martingale representation are closed form,
which makes them exact oracles for the duality identity

    E[ F int_0^T phi dB ] = E[ int_0^T E[D_t F | F_t] phi(t) dt ]

and for the Clark-Ocone reconstruction of F from its integrand.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import _mean_se
from .paths import JumpSpec, sample_ensemble


def horizon_values(grid, spec):
    """Evaluate a callable-of-t (or pass through an array) on [0, T] nodes."""
    width = grid.n_horizon_steps + 1
    out = np.asarray(spec(grid.horizon_nodes) if callable(spec) else spec, dtype=float)
    if out.ndim == 0:
        out = np.full(width, float(out))
    if out.shape != (width,):
        raise ValueError("expected one value per node of [0, horizon]")
    return out


class Chaos1Exponential:
    """Exponential of a first-chaos integral with deterministic coefficients.

    Args:
        grid: TimeGrid; the functional lives on the horizon part [0, T].
        psi: volatility loading, callable of t or array over horizon nodes.
        drift_adjust: the ds-integrand (a martingale has -psi^2/2 here),
            callable or array over horizon nodes.
        scale: F(0).

    Node convention: F_k uses left-point sums over steps j < k, so F_0 = scale
    and F at the terminal node consumes every increment.
    """

    def __init__(self, grid, psi, drift_adjust, scale=1.0):
        self.grid = grid
        self.psi = horizon_values(grid, psi)
        self.drift_adjust = horizon_values(grid, drift_adjust)
        self.scale = float(scale)
        h = grid.step
        n = grid.n_horizon_steps
        # alpha is the conditional-growth rate: E[F(s)|F_t] = F(t) e^{int alpha}
        self.alpha = self.drift_adjust + 0.5 * self.psi**2
        # log of the deterministic growth from node k to the terminal node
        tail = np.zeros(n + 1)
        tail[:n] = np.cumsum((self.alpha[:n] * h)[::-1])[::-1]
        self._log_tail_growth = tail

    def paths(self, noise):
        """F on every horizon node, shape (n_paths, n_horizon_steps + 1)."""
        incr = noise.increments[:, noise.grid.index_zero:]
        n = self.grid.n_horizon_steps
        expo = np.zeros((incr.shape[0], n + 1))
        terms = self.psi[:n] * incr + self.drift_adjust[:n] * self.grid.step
        np.cumsum(terms, axis=1, out=expo[:, 1:])
        return self.scale * np.exp(expo)

    def mean_terminal(self):
        """E[F(T)] in closed form."""
        return self.scale * float(np.exp(self._log_tail_growth[0]))

    def conditional_terminals(self, noise, f_paths=None):
        """E[F(T) | F_{t_k}] on every horizon node, shape (rows, n+1).

        f_paths, F on the horizon nodes of noise, is computed when not given.
        """
        if f_paths is None:
            f_paths = self.paths(noise)
        return f_paths * np.exp(self._log_tail_growth)

    def conditional_malliavin_terminals(self, noise, f_paths=None):
        """E[D_{t_k} F(T) | F_{t_k}] = psi(t_k) E[F(T) | F_{t_k}] on every
        horizon node, shape (rows, n+1), scaled in the buffer of
        conditional_terminals."""
        block = self.conditional_terminals(noise, f_paths)
        block *= self.psi
        return block


class BrownianTerminal:
    """The functional B(T) - B(0), with D_t F = 1 identically.

    A degenerate (non-exponential) member of the closed-form family, kept for
    boundary checks of the duality and reconstruction machinery.
    """

    def __init__(self, grid):
        self.grid = grid

    def terminal(self, noise):
        return noise.increments[:, noise.grid.index_zero:].sum(axis=1)

    def mean_terminal(self):
        return 0.0

    def conditional_malliavin_terminals(self, noise, f_paths=None):
        """E[D_{t_k} F | F_{t_k}] = 1 on every horizon node, shape (n_paths, n+1)."""
        return np.ones((noise.n_paths, self.grid.n_horizon_steps + 1))


@dataclass
class DualityResult:
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    z_score: float

    def __str__(self):
        return "lhs %.6g (se %.2g) vs rhs %.6g (se %.2g), z = %.2f" % (
            self.lhs, self.lhs_se, self.rhs, self.rhs_se, self.z_score
        )


def _phi_matrix(grid, phi, noise):
    """phi as per-path step values on the horizon, shape (n_paths, n)."""
    n = grid.n_horizon_steps
    if callable(phi):
        vals = np.asarray(phi(noise), dtype=float)[..., :n]
    else:
        vals = horizon_values(grid, phi)[:n]
    return np.broadcast_to(vals, (noise.n_paths, n))


def duality_check(f_spec, phi, n_paths, seed):
    """Monte Carlo check of the generalized duality identity.

    Both sides are estimated on the same paths: the left as F(T) times the
    left-point Ito sum of phi, the right by the closed-form conditional
    Malliavin integrand.  The z-score is for the paired per-path difference,
    so common randomness does not inflate the variance.

    Args:
        f_spec: Chaos1Exponential or BrownianTerminal.
        phi: a deterministic weight, as a scalar or an array over the
            horizon nodes, or an adapted rule: a callable taking the noise
            ensemble and returning per-path step values, (n_paths, n) or
            (n_paths, n+1) with the last node ignored.  A callable is always
            called with the ensemble, never with times.
        n_paths, seed: ensemble size and base seed.

    Returns:
        DualityResult with both estimates, their standard errors, and the
        paired z-score.
    """
    grid = f_spec.grid
    noise = sample_ensemble(grid, JumpSpec.none(), seed, n_paths)
    incr = noise.increments[:, grid.index_zero:]
    n = grid.n_horizon_steps
    h = grid.step
    phi_vals = _phi_matrix(grid, phi, noise)

    # F's paths are built once: the terminal is their last column
    f_paths = f_spec.paths(noise) if isinstance(f_spec, Chaos1Exponential) else None
    f_terminal = f_spec.terminal(noise) if f_paths is None else f_paths[:, -1]
    ito = (phi_vals * incr).sum(axis=1)
    lhs_samples = f_terminal * ito

    # one integrand block for every node; each path still adds them in node order
    cond = f_spec.conditional_malliavin_terminals(noise, f_paths)
    rhs_samples = np.zeros(n_paths)
    for k in range(n):
        rhs_samples += cond[:, k] * phi_vals[:, k]
    rhs_samples *= h

    lhs, lhs_se = _mean_se(lhs_samples)
    rhs, rhs_se = _mean_se(rhs_samples)
    diff_mean, diff_se = _mean_se(lhs_samples - rhs_samples)
    z = 0.0 if diff_se == 0.0 else diff_mean / diff_se
    return DualityResult(lhs, lhs_se, rhs, rhs_se, z)


def clark_ocone_residual(f_spec, noise, scheme="corrected"):
    """Reconstruction error of F(T) from its closed-form integrand.

    Computes |F(T) - E[F] - S| per path.  With scheme="euler", S is the
    literal left-point sum of E[D_t F | F_t] dB.  The default "corrected"
    scheme adds the closed-form quadratic-variation term
    0.5 * psi^2 * E[F(T)|F_t] * (dB^2 - h), i.e. integrates the integrand to
    second order within each step; the leftover error is then one order of h
    smaller in root mean square, which is what the refinement checks assert.

    Returns the per-path absolute residuals (shape (n_paths,)).
    """
    if scheme not in ("corrected", "euler"):
        raise ValueError("scheme must be 'corrected' or 'euler'")
    grid = f_spec.grid
    incr = noise.increments[:, noise.grid.index_zero:]
    n = grid.n_horizon_steps
    h = grid.step
    # F's paths are built once: the terminal is their last column
    f_paths = f_spec.paths(noise) if isinstance(f_spec, Chaos1Exponential) else None
    terminal = f_spec.terminal(noise) if f_paths is None else f_paths[:, -1]
    cond = f_spec.conditional_malliavin_terminals(noise, f_paths)
    corrected = scheme == "corrected" and isinstance(f_spec, Chaos1Exponential)
    if corrected:
        # the quadratic-variation weight 0.5 psi^2 E[F(T) | F_t] of each step
        qv = f_spec.conditional_terminals(noise, f_paths)
        qv *= 0.5 * f_spec.psi**2
    recon = np.full(incr.shape[0], f_spec.mean_terminal())
    for k in range(n):
        recon = recon + cond[:, k] * incr[:, k]
        if corrected:
            recon = recon + qv[:, k] * (incr[:, k] ** 2 - h)
    return np.abs(terminal - recon)

