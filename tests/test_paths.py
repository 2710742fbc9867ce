"""Grid arithmetic, noise sampling, and stochastic-integral plumbing."""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from noisy_control import malliavin, scenarios
from noisy_control.dynamics import ControlPath, simulate_state
from noisy_control.errors import (
    InvalidFirstPath,
    InvalidGrid,
    NoisyControlError,
    NonCommensurate,
    OffGrid,
    SeedNotInteger,
    SeedOutOfRange,
    TooFewPaths,
)
from noisy_control.paths import (
    JumpSpec,
    NoiseEnsemble,
    coarsen,
    make_grid,
    sample_ensemble,
)


def test_grid_layout():
    g = make_grid(0.2, 1.0, 8)
    assert g.step == pytest.approx(0.025)
    assert g.n_nodes == 8 + 40 + 1
    assert g.index_zero == 8
    assert g.nodes[g.index_zero] == 0.0  # exact, not approx
    assert g.nodes[0] == pytest.approx(-0.2)
    assert g.nodes[-1] == pytest.approx(1.0)
    assert g.horizon_nodes[0] == 0.0
    assert len(g.horizon_nodes) == g.n_horizon_steps + 1


@pytest.mark.parametrize("delta,horizon,m", [
    (0.3, 1.0, 2),
    (0.2, 0.99, 8),
    (0.7, 1.0, 3),
])
def test_non_commensurate_rejected(delta, horizon, m):
    with pytest.raises(NonCommensurate):
        make_grid(delta, horizon, m)


def test_grid_validates_inputs():
    """A delay or horizon that is not positive, or steps_per_delay that is
    not a positive integer, is an InvalidGrid, still a ValueError, naming
    the value."""
    for args, value in (((-0.2, 1.0, 8), "-0.2"), ((0.2, 0.0, 8), "0.0"),
                        ((0.2, 1.0, 0), "0"), ((0.2, 1.0, 2.5), "2.5")):
        with pytest.raises(InvalidGrid, match="got %s$" % re.escape(value)):
            make_grid(*args)
    assert issubclass(InvalidGrid, ValueError)


def test_index_of_round_trip_and_off_grid():
    g = make_grid(0.2, 1.0, 8)
    for k in range(g.n_nodes):
        assert g.index_of(g.nodes[k]) == k
    with pytest.raises(OffGrid):
        g.index_of(0.013)
    with pytest.raises(OffGrid):
        g.index_of(1.025)  # past the horizon


def test_nodes_are_frozen():
    g = make_grid(0.2, 1.0, 8)
    with pytest.raises(ValueError):
        g.nodes[0] = 99.0


def _marks_of(ens, i):
    """Path i's marks: its slice of the ensemble's flat mark array."""
    start = int(ens.jump_counts[:i].sum())
    return ens.jump_marks[start : start + int(ens.jump_counts[i].sum())]


def test_sampling_is_deterministic_and_keyed_per_path():
    """The ensemble must be the stack of per-index single draws, bit for bit."""
    g = make_grid(0.2, 1.0, 8)
    spec = JumpSpec.discrete(1.5, [-0.5, 1.0], [0.5, 0.5])
    ens = sample_ensemble(g, spec, seed=7, n_paths=6)
    again = sample_ensemble(g, spec, seed=7, n_paths=6)
    assert np.array_equal(ens.increments, again.increments)
    for i in range(6):
        for single in (sample_ensemble(g, spec, seed=7, n_paths=1, first_path=i), ens.path(i)):
            assert single.n_paths == 1
            assert np.array_equal(ens.increments[i : i + 1], single.increments)
            assert np.array_equal(ens.jump_counts[i : i + 1], single.jump_counts)
            assert np.array_equal(_marks_of(ens, i), single.jump_marks)
    # a different seed or index must actually change the draw
    other = sample_ensemble(g, spec, seed=8, n_paths=1)
    assert not np.array_equal(other.increments[0], ens.increments[0])


def test_first_path_offset_matches_monolithic():
    g = make_grid(0.2, 1.0, 4)
    whole = sample_ensemble(g, JumpSpec.none(), seed=3, n_paths=10)
    tail = sample_ensemble(g, JumpSpec.none(), seed=3, n_paths=4, first_path=6)
    assert np.array_equal(whole.increments[6:], tail.increments)


def test_brownian_increment_moments():
    g = make_grid(0.2, 1.0, 8)
    ens = sample_ensemble(g, JumpSpec.none(), seed=11, n_paths=4000)
    incr = ens.increments
    se = incr.std(ddof=1) / np.sqrt(incr.size)
    assert abs(incr.mean()) < 4 * se
    assert incr.var() == pytest.approx(g.step, rel=0.05)


def test_jump_counts_match_intensity():
    g = make_grid(0.2, 1.0, 8)
    spec = JumpSpec.discrete(2.0, [1.0], [1.0])
    ens = sample_ensemble(g, spec, seed=13, n_paths=3000)
    per_path = ens.jump_counts.sum(axis=1)
    expected = spec.intensity * (g.horizon + g.delta)  # jumps fill the whole grid
    se = per_path.std(ddof=1) / np.sqrt(len(per_path))
    assert abs(per_path.mean() - expected) < 4 * se
    for i in (0, 1, 2):
        assert len(_marks_of(ens, i)) == per_path[i]


def test_coarsen_sums_increments_and_keeps_jumps():
    g = make_grid(0.2, 1.0, 8)
    ens = sample_ensemble(g, JumpSpec.discrete(1.0, [2.0], [1.0]), seed=9, n_paths=5)
    half = coarsen(ens, 2)
    assert half.grid.steps_per_delay == 4
    assert np.array_equal(
        half.increments, ens.increments.reshape(5, -1, 2).sum(axis=-1)
    )
    assert half.jump_counts.sum() == ens.jump_counts.sum()
    with pytest.raises(ValueError):
        coarsen(ens, 3)  # does not divide 8


def test_a_factor_that_does_not_divide_the_grid_is_typed():
    """A coarsening factor that is not a positive integer dividing
    steps_per_delay is an InvalidGrid naming both."""
    ens = sample_ensemble(make_grid(0.2, 1.0, 8), JumpSpec.none(), seed=9, n_paths=2)
    for factor in (3, 0, -2, 16, 2.5):
        with pytest.raises(InvalidGrid, match="factor %s does not divide steps_per_delay 8$"
                           % re.escape(repr(factor))):
            coarsen(ens, factor)


def test_coarsen_single_path():
    g = make_grid(0.2, 1.0, 4)
    noise = sample_ensemble(g, JumpSpec.none(), seed=2, n_paths=1)
    half = coarsen(noise, 4)
    assert isinstance(half, NoiseEnsemble)
    assert half.increments.shape == (1, half.grid.n_steps)
    assert half.increments.sum() == pytest.approx(noise.increments.sum())


def test_jump_spec_moments():
    spec = JumpSpec.discrete(2.0, [-0.5, 1.0], [0.5, 0.5])
    assert spec.levy_moment(0) == pytest.approx(2.0)
    assert spec.levy_moment(1) == pytest.approx(2.0 * 0.25)
    assert spec.levy_moment(2) == pytest.approx(2.0 * 0.625)
    assert JumpSpec.none().levy_moment(2) == 0.0
    gauss = JumpSpec.gaussian(1.5, loc=0.3, scale=0.2)
    assert gauss.levy_moment(1) == pytest.approx(1.5 * 0.3, rel=1e-10)
    assert gauss.levy_moment(2) == pytest.approx(1.5 * (0.3**2 + 0.2**2), rel=1e-10)


def test_jump_spec_validation():
    with pytest.raises(ValueError):
        JumpSpec(-1.0)
    with pytest.raises(ValueError):
        JumpSpec.discrete(1.0, [1.0, 2.0], [0.6, 0.6])
    with pytest.raises(ValueError):
        JumpSpec.discrete(1.0, [1.0, 2.0], [np.nan, 1.0])
    with pytest.raises(ValueError):
        JumpSpec.discrete(1.0, [[1.0, 2.0]], [[0.5, 0.5]])
    with pytest.raises(ValueError):
        JumpSpec(1.0)  # intensity without a sampler


def test_nu_expectation_matches_moments():
    spec = JumpSpec.discrete(2.0, [-0.5, 1.0], [0.5, 0.5])
    assert spec.nu_expectation(lambda z: z**2) == pytest.approx(spec.levy_moment(2))
    vec = spec.nu_expectation(lambda z: np.array([z, z**2]))
    assert vec[0] == pytest.approx(spec.levy_moment(1))


def test_ensemble_shape_contract():
    """Arrays are (n_paths, n_steps), read-only and C-contiguous; a path is a row view."""
    g = make_grid(0.2, 1.0, 4)
    ens = sample_ensemble(g, JumpSpec.discrete(1.0, [2.0], [1.0]), seed=6, n_paths=3)
    one = ens.path(1)
    for noise in (ens, one):
        for arr in (noise.increments, noise.jump_counts):
            assert arr.shape == (noise.n_paths, g.n_steps)
            assert arr.flags.c_contiguous and not arr.flags.writeable
    assert np.shares_memory(one.increments, ens.increments)
    assert np.array_equal(one.step_mark_sums(), ens.step_mark_sums()[1:2])
    assert np.array_equal(ens.path(-1).increments, ens.increments[2:])
    with pytest.raises(IndexError):
        ens.path(3)
    with pytest.raises(ValueError):
        NoiseEnsemble(g, ens.increments[0], ens.jump_counts[0],
                      _marks_of(ens, 0))  # one path still needs a path axis
    with pytest.raises(ValueError):
        NoiseEnsemble(g, ens.increments, ens.jump_counts[:, 1:], ens.jump_marks)
    with pytest.raises(ValueError):
        NoiseEnsemble(g, ens.increments[:, 1:], ens.jump_counts[:, 1:], ens.jump_marks)
    assert ens.jump_marks.size  # every jump needs its mark
    with pytest.raises(ValueError):
        NoiseEnsemble(g, ens.increments, ens.jump_counts, ens.jump_marks[:-1])


def test_an_ensemble_of_no_paths_is_typed():
    g = make_grid(0.2, 1.0, 4)
    for n_paths in (0, -3):
        with pytest.raises(TooFewPaths, match="n_paths=%d" % n_paths) as err:
            sample_ensemble(g, JumpSpec.none(), 0, n_paths)
        assert isinstance(err.value, ValueError)


def test_path_keys_stay_in_the_philox_range():
    """Keys (seed, first_path + i) are two 64-bit words; the last one is drawn."""
    g = make_grid(0.2, 1.0, 4)
    assert sample_ensemble(g, JumpSpec.none(), 2**64 - 1, 1, first_path=2**64 - 1).n_paths == 1
    for seed, n_paths, first_path in ((-1, 1, 0), (2**64, 1, 0), (0, 2, 2**64 - 1),
                                      (float("inf"), 1, 0), (float("nan"), 1, 0)):
        with pytest.raises(SeedOutOfRange) as err:
            sample_ensemble(g, JumpSpec.none(), seed, n_paths, first_path=first_path)
        assert isinstance(err.value, ValueError)


def test_non_integer_seeds_and_first_paths_are_typed():
    """A seed inside the key range that is not an integer, and a first_path
    that is negative, nan or not an integer, each raise a typed ValueError
    naming the value."""
    g = make_grid(0.2, 1.0, 4)
    with pytest.raises(SeedNotInteger, match=r"seed 2\.5 ") as err:
        sample_ensemble(g, JumpSpec.none(), 2.5, 1)
    assert isinstance(err.value, ValueError) and isinstance(err.value, NoisyControlError)
    for first_path in (-1, 2.5, float("nan")):
        with pytest.raises(InvalidFirstPath, match="first_path %s " % re.escape(repr(first_path))) as err:
            sample_ensemble(g, JumpSpec.none(), 0, 1, first_path=first_path)
        assert isinstance(err.value, ValueError) and isinstance(err.value, NoisyControlError)
    assert np.array_equal(sample_ensemble(g, JumpSpec.none(), 3.0, 2, first_path=4.0).increments,
                          sample_ensemble(g, JumpSpec.none(), 3, 2, first_path=4).increments)


def test_horizon_sum_is_held_per_loading():
    """horizon_sum is today's expression, bit for bit, made once per loading
    and held read-only; a second loading gets its own entry, and a path or
    coarsened ensemble starts with none."""
    g = make_grid(0.2, 1.0, 8)
    ens = sample_ensemble(g, JumpSpec.none(), seed=5, n_paths=300)
    flat = np.full(g.n_horizon_steps, 0.1)
    wave = 0.2 * (1.0 - 0.5 * g.horizon_nodes[:-1])
    assert vars(ens)["_horizon_sums"] == {}
    held = ens.horizon_sum(flat)
    expected = (flat * ens.increments[:, g.index_zero:]).sum(axis=1)
    assert held.shape == (300,) and held.tobytes() == expected.tobytes()
    assert not held.flags.writeable
    assert ens.horizon_sum(flat) is held
    assert ens.horizon_sum(flat.copy()) is held  # keyed by the bytes, not the object
    other = ens.horizon_sum(wave)
    assert other is not held
    assert other.tobytes() == (wave * ens.increments[:, g.index_zero:]).sum(axis=1).tobytes()
    assert len(vars(ens)["_horizon_sums"]) == 2
    assert ens.horizon_sum(wave) is other and ens.horizon_sum(flat) is held
    for fresh in (ens.path(3), coarsen(ens, 2)):
        assert vars(fresh)["_horizon_sums"] == {}
    assert ens.path(3).horizon_sum(flat).tobytes() == held[3:4].tobytes()


_COMPANIONS = ("increment_rows", "jump_count_rows", "mark_sum_rows")


def _bits(arr):
    return np.ascontiguousarray(arr).tobytes()


def _bumped(noise, step, bump):
    """noise with the Brownian increment of one step shifted by bump."""
    incr = noise.increments.copy()
    incr[:, step] += bump
    return NoiseEnsemble(noise.grid, incr, noise.jump_counts, noise.jump_marks)


def test_time_major_companions(monkeypatch):
    """Built on first request, once per ensemble; never by sampling or duality_check."""
    g = make_grid(0.2, 1.0, 4)
    ens = sample_ensemble(g, JumpSpec.discrete(2.0, [-0.5, 1.0], [0.5, 0.5]), seed=6,
                          n_paths=5)
    assert not any(name in vars(ens) for name in _COMPANIONS)
    rows = ens.increment_rows
    assert _bits(rows) == _bits(ens.increments.T)
    assert _bits(ens.jump_count_rows) == _bits(ens.jump_counts.T)
    assert ens.jump_count_rows.dtype == ens.jump_counts.dtype
    assert _bits(ens.mark_sum_rows) == _bits(ens.step_mark_sums().T)
    for name in _COMPANIONS:
        arr = getattr(ens, name)
        assert arr.shape == (g.n_steps, 5) and getattr(ens, name) is arr
        assert arr.flags.c_contiguous and not arr.flags.writeable
    assert ens.increments.flags.c_contiguous and ens.increments.shape == (5, g.n_steps)

    # ensembles derived from this one build their own
    for derived in (ens.path(2), _bumped(ens, 3, 0.5), coarsen(ens, 2)):
        assert "increment_rows" not in vars(derived)
        assert _bits(derived.increment_rows) == _bits(derived.increments.T)
        assert _bits(derived.mark_sum_rows) == _bits(derived.step_mark_sums().T)

    # a sweep asks for it; the path-major duality check does not
    plain = sample_ensemble(g, JumpSpec.none(), seed=6, n_paths=5)
    model = scenarios.consumption()
    simulate_state(model, ControlPath.constant(g, 1.0, control_set=model.control_set), plain)
    assert "increment_rows" in vars(plain)
    drawn = []

    def recording_sample(*args, **kwargs):
        drawn.append(sample_ensemble(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(malliavin, "sample_ensemble", recording_sample)
    _, f_spec, phi = scenarios.duality_battery(g)[0]
    malliavin.duality_check(f_spec, phi, n_paths=50, seed=1)
    assert len(drawn) == 1
    assert not any(name in vars(drawn[0]) for name in _COMPANIONS)


@pytest.mark.parametrize("spec", [
    JumpSpec.discrete(3.0, [-0.5, 1.0, 2.5], [0.2, 0.5, 0.3]),
    JumpSpec.gaussian(4.0, loc=0.1, scale=0.7),
    JumpSpec.gaussian(30.0, loc=0.1, scale=0.7),
    JumpSpec.none(),
], ids=["discrete", "gaussian", "gaussian-dense", "none"])
def test_step_mark_sums_matches_per_path_definition(spec):
    """Bit for bit the per-path sum of each step's marks, added in draw order."""
    g = make_grid(0.2, 1.0, 8)
    ens = sample_ensemble(g, spec, seed=21, n_paths=300)
    expected = np.zeros((ens.n_paths, g.n_steps))
    for i in range(ens.n_paths):
        steps = np.repeat(np.arange(g.n_steps), ens.jump_counts[i])
        np.add.at(expected[i], steps, _marks_of(ens, i))
    got = ens.step_mark_sums()
    assert got.shape == (300, g.n_steps)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


# sha256 of the sampler's output at seed 7 on the 48-step grid, 40 paths from
# first_path 0 and from first_path 1000: (increments, jump_counts, jump_marks),
# the marks in path order.  The bits depend on numpy's Generator algorithms
# (standard_normal, poisson, random), so they hold for one numpy release line.
_SAMPLER_SPECS = {
    "none": JumpSpec.none(),
    "discrete": JumpSpec.discrete(1.5, [-0.5, 1.0, 2.5], [0.2, 0.5, 0.3]),
    "gaussian": JumpSpec.gaussian(2.0, loc=0.1, scale=0.7),
}
_SAMPLER_DIGESTS = {
    ("discrete", 0): (
        "7dbd6a286bb4f9e0e9829ca15b5792f4859141a60fd5070026b3889cbeda3e5e",
        "c1eaca6a66b8d5329bbd33df4371ad2c39ebd55b8d244ee10eb7356a41bd658c",
        "40814c89735509b44d49b36f5dfffc225a33602d412cb7452a82ee06db5af5fc",
    ),
    ("discrete", 1000): (
        "6fe4f699c05f767634069f910fe84559e2c3ec602910e20eeb08db0a71ce1780",
        "8eb6905c17237a188f748ee8ecd20619e22ee3116ff62cf76e3f021ba663938f",
        "d69d08a61416ecf8d16871144582c2ce47533340a3892cfc65915337164cf140",
    ),
    ("gaussian", 0): (
        "7dbd6a286bb4f9e0e9829ca15b5792f4859141a60fd5070026b3889cbeda3e5e",
        "4645425d806ae40a5effa5ef35ed30fa49c8e0ebd17c0b663977ff5861161e3d",
        "236941c32d032a7ee31bf02deff8925b3ca9db9619d77e1eccdc5a27cb26e23e",
    ),
    ("gaussian", 1000): (
        "6fe4f699c05f767634069f910fe84559e2c3ec602910e20eeb08db0a71ce1780",
        "a6eb14b467b86807f58f46efa982b0b906c341d589de239fa3fbd9885173ce45",
        "a14a19af15780427ebe99a2d8788be80d8c8ee5799e3e08039d69d1bc34070f8",
    ),
    ("none", 0): (
        "7dbd6a286bb4f9e0e9829ca15b5792f4859141a60fd5070026b3889cbeda3e5e",
        "0299f757a85a1aad6cbe1ad2b0eda925d8df667cd04e646af8917f65cbf24537",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    ("none", 1000): (
        "6fe4f699c05f767634069f910fe84559e2c3ec602910e20eeb08db0a71ce1780",
        "0299f757a85a1aad6cbe1ad2b0eda925d8df667cd04e646af8917f65cbf24537",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _reference_row(grid, spec, marks_of, seed, index):
    """Path `index` drawn from a fresh Philox keyed (seed, index), in the
    documented order: normals, jump counts, marks."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    incr = np.sqrt(grid.step) * gen.standard_normal(grid.n_steps)
    if spec.intensity == 0.0:
        return incr, np.zeros(grid.n_steps, dtype=np.int64), np.zeros(0)
    counts = gen.poisson(spec.intensity * grid.step, grid.n_steps)
    return incr, counts, marks_of(gen, int(counts.sum()))


_REFERENCE_MARKS = {
    "none": None,
    "discrete": lambda gen, size: gen.choice([-0.5, 1.0, 2.5], size, p=[0.2, 0.5, 0.3]),
    "gaussian": lambda gen, size: gen.normal(0.1, 0.7, size=size),
}


@pytest.mark.parametrize("first_path", [0, 1000])
@pytest.mark.parametrize("name", sorted(_SAMPLER_SPECS))
def test_sampler_bits_are_pinned_and_keyed_per_path(name, first_path):
    g = make_grid(0.2, 1.0, 8)
    spec = _SAMPLER_SPECS[name]
    ens = sample_ensemble(g, spec, seed=7, n_paths=40, first_path=first_path)
    got = (
        _digest(ens.increments),
        _digest(ens.jump_counts),
        _digest(ens.jump_marks),
    )
    assert got == _SAMPLER_DIGESTS[name, first_path]
    for i in range(ens.n_paths):
        incr, counts, marks = _reference_row(
            g, spec, _REFERENCE_MARKS[name], 7, first_path + i
        )
        assert np.array_equal(ens.increments[i], incr)
        assert np.array_equal(ens.jump_counts[i], counts)
        assert np.array_equal(_marks_of(ens, i), marks)


@pytest.mark.parametrize("values,probs", [
    ([-0.5, 1.0, 2.5], [0.2, 0.5, 0.3]),
    ([1.0], [1.0]),
    ([-2.0, -0.25, 0.0, 0.75, 3.0], [0.1, 0.3, 0.0, 0.4, 0.2]),
    (np.arange(10.0), [0.1] * 10),  # the cumulative sum ends one ulp below 1
])
def test_discrete_sampler_is_generator_choice(values, probs):
    """Same values and same stream position as Generator.choice."""
    sampler = JumpSpec.discrete(1.0, values, probs).mark_sampler
    for size in range(5):
        for key in range(3):
            ours = np.random.Generator(np.random.Philox(key=[key, size]))
            theirs = np.random.Generator(np.random.Philox(key=[key, size]))
            got = sampler(ours, size)
            want = theirs.choice(np.asarray(values, dtype=float), size, p=probs)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert ours.random() == theirs.random()


@pytest.mark.parametrize("spec", [
    JumpSpec.discrete(1.5, [-0.5, 1.0, 2.5], [0.2, 0.5, 0.3]),
    JumpSpec.none(),
], ids=["discrete", "none"])
def test_jump_lists_are_read_only(spec):
    g = make_grid(0.2, 1.0, 8)
    ens = sample_ensemble(g, spec, seed=3, n_paths=50)
    assert ens.jump_marks.shape == (ens.jump_counts.sum(),)
    assert not ens.jump_marks.flags.writeable
    with pytest.raises(ValueError):
        ens.jump_marks[:] = 0.0


def test_mark_sampler_runs_only_for_paths_with_jumps():
    """A path with no jumps draws no marks; the others draw exactly their count."""
    g = make_grid(0.2, 1.0, 8)
    reference = JumpSpec.discrete(0.5, [-0.5, 1.0], [0.5, 0.5])
    sizes = []

    def counting(gen, size):
        sizes.append(size)
        return reference.mark_sampler(gen, size)

    spec = JumpSpec(0.5, counting, reference.quad_nodes, reference.quad_weights)
    ens = sample_ensemble(g, spec, seed=2, n_paths=40)
    per_path = ens.jump_counts.sum(axis=1)
    assert 0 < np.count_nonzero(per_path) < 40  # both kinds of path occur
    assert sizes == [int(c) for c in per_path if c]
    plain = sample_ensemble(g, reference, seed=2, n_paths=40)
    assert np.array_equal(ens.jump_marks, plain.jump_marks)


def test_jump_free_ensemble_holds_only_its_arrays():
    """No per-path arrays: at most 1.5 MB beyond the increments and counts."""
    g = make_grid(0.2, 1.0, 8)
    sample_ensemble(g, JumpSpec.none(), seed=0, n_paths=2)  # warm any lazy set-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ens = sample_ensemble(g, JumpSpec.none(), seed=0, n_paths=10_000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    arrays = ens.increments.nbytes + ens.jump_counts.nbytes
    assert held <= arrays + 1.5e6, (held, arrays)


def test_jump_free_ensemble_holds_no_count_block():
    """Its jump_counts is a read-only zero-stride view of the usual shape, so
    the ensemble holds at most 1.5 MB beyond its increments."""
    g = make_grid(0.2, 1.0, 8)
    sample_ensemble(g, JumpSpec.none(), seed=0, n_paths=2)  # warm any lazy set-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ens = sample_ensemble(g, JumpSpec.none(), seed=0, n_paths=10_000)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= ens.increments.nbytes + 1.5e6, (held, ens.increments.nbytes)
    counts = ens.jump_counts
    assert counts.shape == (10_000, g.n_steps) and counts.strides == (0, 0)
    assert not counts.flags.writeable and not counts.any()
    assert ens.path(7).jump_counts.strides == (0, 0)
    assert np.array_equal(coarsen(ens, 2).jump_counts, np.zeros((10_000, g.n_steps // 2)))
    assert coarsen(ens, 2).jump_counts.strides == (0, 0)


def test_marks_that_do_not_match_a_broadcast_count_raise():
    """A count broadcast from one value is checked against the marks as
    that value times the number of cells."""
    g = make_grid(0.2, 1.0, 2)
    shape = (3, g.n_steps)
    ones = np.broadcast_to(np.int64(1), shape)
    ens = NoiseEnsemble(g, np.zeros(shape), ones, np.zeros(3 * g.n_steps))
    assert ens.jump_counts.strides == (0, 0)
    for marks in (np.zeros(3 * g.n_steps - 1), np.zeros(1), np.zeros(0)):
        with pytest.raises(ValueError, match="one mark per jump"):
            NoiseEnsemble(g, np.zeros(shape), ones, marks)
    with pytest.raises(ValueError, match="one mark per jump"):
        NoiseEnsemble(g, np.zeros(shape), np.broadcast_to(np.int64(0), shape), np.zeros(1))
