"""First-chaos functionals: closed forms, duality, and reconstruction."""

import hashlib

import numpy as np
import pytest

from noisy_control.malliavin import (
    BrownianTerminal,
    Chaos1Exponential,
    clark_ocone_residual,
    duality_check,
)
from noisy_control.paths import JumpSpec, make_grid, sample_ensemble
from noisy_control.scenarios import duality_battery


def _grid(m=8):
    return make_grid(0.2, 1.0, m)


def test_chaos1_martingale_paths():
    """With drift_adjust = -psi^2/2 the functional is a discrete martingale."""
    g = _grid()
    psi = 0.1
    f = Chaos1Exponential(g, psi, -0.5 * psi**2)
    assert f.mean_terminal() == pytest.approx(1.0)
    ens = sample_ensemble(g, JumpSpec.none(), seed=0, n_paths=50000)
    term = f.paths(ens)[:, -1]
    se = term.std(ddof=1) / np.sqrt(len(term))
    assert abs(term.mean() - 1.0) < 4 * se
    paths = f.paths(ens)
    assert np.all(paths[:, 0] == 1.0)
    # one explicit path value: F_1 = exp(psi dB_0 - psi^2 h / 2)
    manual = np.exp(psi * ens.increments[:, g.index_zero] - 0.5 * psi**2 * g.step)
    assert np.allclose(paths[:, 1], manual, rtol=1e-14)


def test_chaos1_conditional_growth():
    g = _grid()
    f = Chaos1Exponential(g, 0.1, 0.05)  # not a martingale: alpha = 0.055
    alpha = 0.05 + 0.5 * 0.1**2
    assert f.mean_terminal() == pytest.approx(np.exp(alpha * 1.0))
    ens = sample_ensemble(g, JumpSpec.none(), seed=1, n_paths=10)
    cond = f.conditional_terminals(ens)
    remaining = 1.0 - g.horizon_nodes
    assert cond.shape == (10, g.n_horizon_steps + 1)
    assert np.allclose(cond, f.paths(ens) * np.exp(alpha * remaining), rtol=1e-13)
    assert np.array_equal(cond[:, -1], f.paths(ens)[:, -1])
    # D_t F(T) = psi(t) F(T), conditioned like F(T) itself
    assert np.array_equal(f.conditional_malliavin_terminals(ens), cond * 0.1)


def test_duality_flat_fixture():
    g = _grid()
    psi = 0.1
    f = Chaos1Exponential(g, psi, -0.5 * psi**2)
    res = duality_check(f, 0.1, n_paths=10000, seed=0)
    assert abs(res.z_score) <= 4.0
    # rhs is deterministic-ish: its closed-form mean is psi * phi * T * E[F(T)]
    assert res.rhs == pytest.approx(0.1 * psi * 1.0, rel=0.02)


def test_duality_brownian_terminal_is_exact_per_path():
    """For F = B(T) and phi = 1 the rhs collapses to T with zero variance."""
    g = _grid()
    f = BrownianTerminal(g)
    res = duality_check(f, 1.0, n_paths=200, seed=5)
    assert res.rhs == pytest.approx(1.0, abs=1e-12)
    assert res.rhs_se <= 1e-15
    assert abs(res.z_score) <= 4.0


def test_duality_battery_all_pass():
    g = _grid()
    battery = duality_battery(g)
    assert len(battery) == 7  # six chaos fixtures plus the Brownian boundary
    for name, spec, phi in battery:
        res = duality_check(spec, phi, n_paths=4000, seed=6)
        assert abs(res.z_score) <= 4.0, name


# (lhs, lhs_se, rhs, rhs_se, z_score) at 2000 paths, seed 600; the sums run
# in numpy's own order, so the bits are pinned for this numpy build
_DUALITY_BITS = {
    "psi-flat/phi-one": "(0.10577303371090863, 0.023110392661783982, "
                        "0.09994794326608804, 0.0001255129784132707, 0.2532184868598418)",
    "psi-flat/phi-ramp": "(0.11220305643906994, 0.02420517099694619, "
                         "0.09868370025837953, 0.00014064592820251022, 0.5608644953262071)",
    "psi-zero/phi-one": "(0.0016656392816563094, 0.022877750199955017, "
                        "0.0, 0.0, 0.07280607870522096)",
    "psi-zero/phi-ramp": "(0.00742902670401978, 0.023941480903624072, "
                         "0.0, 0.0, 0.31029938097501863)",
    "psi-wave/phi-one": "(0.15661988580989467, 0.023537255156257875, "
                        "0.15115227675089332, 0.0003140652152207531, 0.23468868204235918)",
    "psi-wave/phi-ramp": "(0.15473466030036628, 0.02456285909870189, "
                         "0.14090598198413828, 0.0003299799170056323, 0.5676830885643794)",
    "brownian/phi-one": "(1.0462622913230886, 0.03319616445219004, "
                        "1.0, 0.0, 1.3936035107223532)",
}


def test_duality_battery_results_are_pinned():
    battery = duality_battery(_grid())
    assert [name for name, _, _ in battery] == list(_DUALITY_BITS)
    for name, spec, phi in battery:
        res = duality_check(spec, phi, n_paths=2000, seed=600)
        got = (res.lhs, res.lhs_se, res.rhs, res.rhs_se, res.z_score)
        assert repr(got) == _DUALITY_BITS[name], name


def test_duality_accepts_adapted_weights():
    """phi may be a rule of the noise; the identity still holds for adapted phi."""
    g = _grid()
    psi = 0.1
    f = Chaos1Exponential(g, psi, -0.5 * psi**2)

    def phi(noise):
        # piecewise weight that flips sign with the first increment's sign
        lead = np.sign(noise.increments[:, g.index_zero])[:, None]
        flat = np.full((noise.n_paths, g.n_horizon_steps), 0.05)
        flat[:, g.n_horizon_steps // 2 :] *= lead
        return flat

    res = duality_check(f, phi, n_paths=20000, seed=7)
    assert abs(res.z_score) <= 4.0


def test_duality_calls_a_callable_weight_with_the_ensemble():
    """A callable phi is an adapted rule, called with the noise ensemble only."""
    g = _grid()
    iz = g.index_zero
    f = Chaos1Exponential(g, 0.1, -0.5 * 0.1**2)
    # phi on step k is 1 after a rise of B over step k - 1, else 0.5
    res = duality_check(f, lambda noise: np.where(noise.increments[:, iz - 1:-1] > 0, 1.0, 0.5),
                        n_paths=20000, seed=7)
    assert abs(res.z_score) <= 4.0
    # rhs is about psi * T * E[phi] = 0.1 * 0.75
    assert res.rhs == pytest.approx(0.075, rel=0.02)


# sha256 of the per-path residuals at 2000 paths, seed 5, psi = 0.1 (a
# martingale), recorded with the per-node integrand these blocks replaced
_CLARK_OCONE_DIGESTS = {
    ("corrected", 8): "3eeb9abf52f610202b44c0ec65c9be51c1b75b212c27940370b0696c472e25d9",
    ("corrected", 16): "652675be0c360b43c182719749c0e924fbba839ae5ef146373889fbf32dc82dd",
    ("euler", 8): "18f0a2bded4816357eddf46394a4be524d8f8de75afaefa2247a8b56eefbf440",
    ("euler", 16): "f5340f9dbb64474205c4af32e45dc4181a61e4e9487b484b02322992387609b9",
}


@pytest.mark.parametrize("scheme, m", sorted(_CLARK_OCONE_DIGESTS))
def test_clark_ocone_residuals_are_pinned(scheme, m):
    g = make_grid(0.2, 1.0, m)
    f = Chaos1Exponential(g, 0.1, -0.5 * 0.1**2)
    ens = sample_ensemble(g, JumpSpec.none(), seed=5, n_paths=2000)
    res = clark_ocone_residual(f, ens, scheme=scheme)
    assert hashlib.sha256(res.tobytes()).hexdigest() == _CLARK_OCONE_DIGESTS[scheme, m]


def test_clark_ocone_zero_loading_reconstructs_exactly():
    g = _grid()
    f = Chaos1Exponential(g, 0.0, 0.1)  # deterministic exponential
    ens = sample_ensemble(g, JumpSpec.none(), seed=8, n_paths=100)
    res = clark_ocone_residual(f, ens)
    assert np.max(res) <= 1e-13


def test_clark_ocone_corrected_halves_under_refinement():
    psi = 0.1
    rms = {}
    for m in (8, 16):
        g = make_grid(0.2, 1.0, m)
        f = Chaos1Exponential(g, psi, -0.5 * psi**2)
        ens = sample_ensemble(g, JumpSpec.none(), seed=5, n_paths=2000)
        rms[m] = float(np.sqrt((clark_ocone_residual(f, ens) ** 2).mean()))
    ratio = rms[16] / rms[8]
    assert 0.35 <= ratio <= 0.65


def test_clark_ocone_euler_is_half_order_slower():
    psi = 0.1
    rms = {}
    for m in (8, 16):
        g = make_grid(0.2, 1.0, m)
        f = Chaos1Exponential(g, psi, -0.5 * psi**2)
        ens = sample_ensemble(g, JumpSpec.none(), seed=5, n_paths=2000)
        rms[m] = float(np.sqrt((clark_ocone_residual(f, ens, scheme="euler") ** 2).mean()))
    ratio = rms[16] / rms[8]
    assert 0.6 <= ratio <= 0.85
    with pytest.raises(ValueError):
        clark_ocone_residual(
            Chaos1Exponential(make_grid(0.2, 1.0, 8), psi, 0.0),
            sample_ensemble(make_grid(0.2, 1.0, 8), JumpSpec.none(), 0, 2),
            scheme="midpoint",
        )


def test_corrected_beats_euler_at_same_resolution():
    g = _grid()
    f = Chaos1Exponential(g, 0.1, -0.5 * 0.1**2)
    ens = sample_ensemble(g, JumpSpec.none(), seed=9, n_paths=2000)
    rms_corrected = np.sqrt((clark_ocone_residual(f, ens) ** 2).mean())
    rms_euler = np.sqrt((clark_ocone_residual(f, ens, scheme="euler") ** 2).mean())
    assert rms_corrected < 0.5 * rms_euler
