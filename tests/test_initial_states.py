"""Initial-state descriptors and their phase-space samplers."""

import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from torusecho import initial_states
from torusecho import (
    CapacityError,
    GaussianWavepacket,
    InvalidInputError,
    MapSpec,
    PositionEigenstate,
    SampleSet,
    build_state,
    samples_gaussian,
    samples_position_state,
    wrap_unit,
)
from torusecho.cli import main
from torusecho.initial_states import _UNIFORM_STD

SPEC = MapSpec(0.8, 5e-3, 1000)
SMALL = MapSpec(0.8, 5e-3, 64)


def test_grid_sampler_covers_momentum_grid():
    s = samples_position_state(SPEC, 0.4)
    assert len(s) == 1000
    assert s.kind == "grid"
    assert np.array_equal(s.p, np.arange(1000) / 1000)
    assert np.all(s.q == np.float64(0.4))
    assert np.all(s.weights == s.weights[0])
    assert s.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_grid_sampler_count_must_match_dim():
    assert len(samples_position_state(SMALL, 0.25, count=64)) == 64
    with pytest.raises(InvalidInputError):
        samples_position_state(SMALL, 0.25, count=100)
    with pytest.raises(InvalidInputError, match="samples must be an integer >= 1"):
        samples_position_state(SMALL, 0.25, count=np.float64(64))


def test_grid_sampler_respects_the_sample_ceiling(monkeypatch):
    monkeypatch.setattr(initial_states, "_MAX_SAMPLES", 999)
    with pytest.raises(CapacityError, match="samples 1000 exceeds limit 999"):
        samples_position_state(SPEC, 0.4)
    monkeypatch.setattr(initial_states, "_MAX_SAMPLES", 1000)
    assert len(samples_position_state(SPEC, 0.4)) == 1000


def test_misaligned_q0_rejected():
    with pytest.raises(InvalidInputError):
        samples_position_state(SMALL, 0.4, count=None)  # 0.4 * 64 = 25.6
    # q0 * N of inf or nan has no grid index
    for q0 in (float("inf"), float("nan"), 1e308):
        with pytest.raises(InvalidInputError, match="not aligned"):
            samples_position_state(SPEC, q0)
    # aligned within 1e-9 * N is accepted
    s = samples_position_state(SPEC, 0.4 + 1e-13)
    assert len(s) == 1000


def test_monte_carlo_sampler_deterministic_per_seed():
    a = samples_position_state(SPEC, 0.4, count=500, mode="monte_carlo", seed=9)
    b = samples_position_state(SPEC, 0.4, count=500, mode="monte_carlo", seed=9)
    c = samples_position_state(SPEC, 0.4, count=500, mode="monte_carlo", seed=10)
    assert np.array_equal(a.p, b.p)
    assert not np.array_equal(a.p, c.p)
    assert a.kind == "monte_carlo"
    assert a.seed == 9
    with pytest.raises(InvalidInputError):
        samples_position_state(SPEC, 0.4, count=None, mode="monte_carlo")
    with pytest.raises(InvalidInputError):
        samples_position_state(SPEC, 0.4, count=10, mode="fancy")
    for seed in (-1, 2**128, 1.5):
        with pytest.raises(InvalidInputError, match="seed must"):
            samples_position_state(SPEC, 0.4, count=10, mode="monte_carlo", seed=seed)


def test_sample_set_validation():
    with pytest.raises(InvalidInputError):
        SampleSet(np.array([]), np.array([]), np.array([]), "grid", "x")
    with pytest.raises(InvalidInputError):
        SampleSet(np.zeros(3), np.zeros(2), np.zeros(3), "grid", "x")
    with pytest.raises(InvalidInputError):
        SampleSet(np.zeros(3), np.zeros(3), np.ones(3) / 3, "other", "x")
    # weights other than exactly 1/len are refused, equal ones included
    for w in (np.array([0.2, 0.3, 0.5]), np.full(3, 0.5)):
        with pytest.raises(InvalidInputError, match="1/len"):
            SampleSet(np.zeros(3), np.zeros(3), w, "grid", "x")


@pytest.mark.parametrize("sigma", [0.0, -0.1, 0.5, 0.7])
def test_gaussian_sigma_bounds(sigma):
    with pytest.raises(InvalidInputError):
        GaussianWavepacket(0.4, 0.0, sigma)
    with pytest.raises(InvalidInputError):
        samples_gaussian(SPEC, 0.4, 0.0, sigma, count=10)


@pytest.mark.parametrize("q0, p0", [(float("nan"), 0.0), (0.3, float("inf"))])
def test_gaussian_centre_must_be_finite(q0, p0):
    with pytest.raises(InvalidInputError, match="must be finite"):
        GaussianWavepacket(q0, p0, 0.1)
    with pytest.raises(InvalidInputError, match="must be finite"):
        samples_gaussian(SPEC, q0, p0, 0.1, count=10)


def test_gaussian_position_only_mode():
    s = samples_gaussian(SPEC, 0.4, 0.3, 0.05, count=2000, mode="position_only", seed=1)
    assert np.all(s.p == np.float64(0.3))
    assert np.all((s.q >= 0.0) & (s.q < 1.0))
    assert abs(np.std(s.q) - 0.05) < 0.005


def test_gaussian_wigner_momentum_spread():
    sigma = 0.05
    s = samples_gaussian(SPEC, 0.5, 0.0, sigma, count=20000, mode="wigner", seed=2)
    sigma_p = SPEC.hbar / (2 * sigma)
    # unwrap (p0 = 0, mass sits near 0 and just below 1)
    p = np.where(s.p > 0.5, s.p - 1.0, s.p)
    assert abs(np.std(p) - sigma_p) / sigma_p < 0.05
    assert np.all((s.p >= 0.0) & (s.p < 1.0))


def test_wigner_marginals_match_gaussian_law():
    """KS check of both marginals against the target normal laws."""
    sigma = 0.05
    s = samples_gaussian(SPEC, 0.5, 0.0, sigma, count=5000, mode="wigner", seed=11)
    res_q = stats.kstest(s.q, lambda x: stats.norm.cdf(x, 0.5, sigma))
    assert res_q.pvalue > 1e-3
    p = np.where(s.p > 0.5, s.p - 1.0, s.p)
    res_p = stats.kstest(p, lambda x: stats.norm.cdf(x, 0.0, SPEC.hbar / (2 * sigma)))
    assert res_p.pvalue > 1e-3


@pytest.mark.parametrize("sigma", [1e-10, 1e-30, 1e-300, 5e-324])
def test_narrow_wigner_packets_draw_uniform_momenta(sigma):
    """A momentum std that p0 + s z would round away gives uniform p; q keeps its stream."""
    count = 10**4
    s = samples_gaussian(SPEC, 0.25, 0.3, sigma, count=count, mode="wigner", seed=5)
    assert len(np.unique(s.p)) == count
    assert stats.kstest(s.p, "uniform").pvalue > 1e-3
    rng = np.random.Generator(np.random.Philox(key=5))
    assert np.array_equal(s.q, wrap_unit(0.25 + sigma * rng.standard_normal(count)))
    assert np.array_equal(s.p, rng.random(count))


def test_wigner_momenta_go_uniform_where_the_wrapped_normal_is_uniform():
    # the wrapped normal's density is within 2 exp(-2 pi^2 s^2) of 1: 2^-53 at the cut
    assert 2.0 * np.exp(-2.0 * np.pi**2 * _UNIFORM_STD**2) == pytest.approx(2.0**-53, rel=1e-12)
    for factor, uniform in ((0.99, False), (1.01, True)):
        sigma = SPEC.hbar / (2.0 * factor * _UNIFORM_STD)
        s = samples_gaussian(SPEC, 0.25, 0.3, sigma, count=100, mode="wigner", seed=5)
        rng = np.random.Generator(np.random.Philox(key=5))
        rng.standard_normal(100)
        std = SPEC.hbar / (2.0 * sigma)
        want = rng.random(100) if uniform else wrap_unit(0.3 + std * rng.standard_normal(100))
        assert np.array_equal(s.p, want), factor


def test_cli_run_of_a_narrow_wigner_packet_decays(capsys):
    argv = ["run", "--state", "gaussian", "--sample-mode", "wigner", "--samples", "5",
            "--sigma", "1e-300", "--q0", "0.25", "--methods", "dr"]
    assert main(argv) == 0
    fidelity = float(re.search(r"M\(50\) = (\S+),", capsys.readouterr().out).group(1))
    assert fidelity < 0.9  # it read 1, no decay, while p kept no fraction bit


def test_wigner_position_marginal_matches_quantum_density():
    # empirical cell histogram vs |psi_j|^2 on the same grid
    g = GaussianWavepacket(0.4, 0.0, 0.05)
    psi = build_state(SPEC, g)
    s = samples_gaussian(SPEC, 0.4, 0.0, 0.05, count=20000, mode="wigner", seed=11)
    cells = np.floor(s.q * SPEC.dim_n).astype(int)
    emp = np.bincount(cells, minlength=SPEC.dim_n) / len(s)
    tv = 0.5 * np.abs(emp - np.abs(psi.vector) ** 2).sum()
    assert tv < 0.08  # measured 0.045 at this seed/count


def test_gaussian_count_validation(monkeypatch):
    with pytest.raises(InvalidInputError):
        samples_gaussian(SPEC, 0.4, 0.0, 0.05, count=0)
    with monkeypatch.context() as patch:
        patch.setattr(initial_states, "_rng", lambda seed: pytest.fail("drew under an unknown mode"))
        with pytest.raises(InvalidInputError, match="sample_mode for gaussian states must be one of"):
            samples_gaussian(SPEC, 0.4, 0.0, 0.05, count=10, mode="nope")
    with pytest.raises(CapacityError, match="exceeds limit"):
        samples_gaussian(SPEC, 0.4, 0.0, 0.05, count=10**12)  # refused before any draw


def _periodized_gaussian_density(state, q):
    """Wrapped-normal position density of the wavepacket: the normal density
    summed over the torus images that reach 1e-16 of its peak, written out."""
    # exp(-d^2/(2 sigma^2)) < 1e-16  <=>  |d| > sigma * sqrt(-2 ln 1e-16)
    n_images = int(np.ceil(state.sigma * np.sqrt(-2.0 * np.log(1e-16)))) + 1
    norm = 1.0 / (state.sigma * np.sqrt(2.0 * np.pi))
    return sum(
        norm * np.exp(-0.5 * ((q + n - state.q0) / state.sigma) ** 2)
        for n in range(-n_images, n_images + 1)
    )


def test_periodized_density_normalized():
    # the wrapped density integrates to 1 over [0, 1): the image sum reshuffles
    # a normal density; samples_gaussian draws positions from it
    g = GaussianWavepacket(0.3, 0.0, 0.12)
    grid = np.linspace(0.0, 1.0, 2001, endpoint=False)
    dens = _periodized_gaussian_density(g, grid)
    assert dens.min() > 0.0
    assert np.mean(dens) == pytest.approx(1.0, rel=1e-10)


def test_labels():
    assert "position" in PositionEigenstate(0.4).label()
    assert "gaussian" in GaussianWavepacket(0.4, 0.0, 0.05).label()


# every sampler and mode, with the columns it holds as one shared value
_CONSTANT_COLUMNS = [
    (lambda: samples_position_state(SPEC, 0.4), ("q", "weights")),
    (lambda: samples_position_state(SPEC, 0.4, count=300, mode="monte_carlo", seed=3),
     ("q", "weights")),
    (lambda: samples_gaussian(SPEC, 0.4, 0.3, 0.05, count=300, mode="wigner", seed=3),
     ("weights",)),
    (lambda: samples_gaussian(SPEC, 0.4, 0.3, 0.05, count=300, mode="position_only", seed=3),
     ("p", "weights")),
]


@pytest.mark.parametrize("make, constant", _CONSTANT_COLUMNS,
                         ids=["grid", "monte_carlo", "wigner", "position_only"])
def test_constant_columns_are_read_only_broadcasts(make, constant):
    s = make()
    for name in ("q", "p", "weights"):
        column = getattr(s, name)
        assert column.dtype == np.float64 and column.shape == (len(s),), name
        if name in constant:
            assert column.strides == (0,), name
            assert not column.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.5
        else:  # a drawn column is the sampler's own, writable buffer
            assert column.strides == (8,) and column.flags.writeable, name
    assert np.all(s.weights == 1.0 / len(s))


def test_monte_carlo_position_set_holds_one_column():
    # 10^6 samples: the momenta (7.6 MiB) and two one-float columns
    tracemalloc.start()
    try:
        s = samples_position_state(SPEC, 0.4, count=10**6, mode="monte_carlo", seed=1)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(s) == 10**6
    assert held <= 9 * 2**20, held


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("q0, p0, sigma", [(0.4, 0.3, 0.05), (0.01, 0.98, 0.3)])
def test_gaussian_draws_are_the_written_out_wrap_bitwise(seed, q0, p0, sigma):
    count = 5000
    for mode in ("wigner", "position_only"):
        s = samples_gaussian(SPEC, q0, p0, sigma, count=count, mode=mode, seed=seed)
        rng = np.random.Generator(np.random.Philox(key=seed))
        q = wrap_unit(q0 + sigma * rng.standard_normal(count))
        if mode == "wigner":
            p = wrap_unit(p0 + SPEC.hbar / (2.0 * sigma) * rng.standard_normal(count))
        else:
            p = np.full(count, np.float64(p0))
        assert np.array_equal(s.q.view(np.uint64), q.view(np.uint64)), mode
        assert np.array_equal(s.p.view(np.uint64), p.view(np.uint64)), mode
