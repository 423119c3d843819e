"""Split-operator propagation, dense oracle, echo equivalence."""

import numpy as np
import pytest

from torusecho import quantum
from torusecho import (
    CapacityError,
    GaussianWavepacket,
    InvalidInputError,
    MapSpec,
    PositionEigenstate,
    QuantumState,
    build_state,
    dense_oracle,
    dr_curve,
    exact_fidelity_curve,
    loschmidt_equivalence,
    samples_position_state,
    step_quantum,
)

SMALL = MapSpec(0.8, 5e-3, 64)
CHAOTIC_SMALL = MapSpec(10.0, 2e-3, 64)


def _random_state(spec, seed=42):
    rng = np.random.Generator(np.random.Philox(key=seed))
    v = rng.standard_normal(spec.dim_n) + 1j * rng.standard_normal(spec.dim_n)
    return QuantumState(v / np.linalg.norm(v), spec)


def test_position_state_is_one_hot():
    psi = build_state(SMALL, PositionEigenstate(0.25))
    assert psi.vector[16] == 1.0
    assert np.count_nonzero(psi.vector) == 1


def test_misaligned_position_state_rejected():
    for q0 in (0.4, float("nan"), float("inf"), 1e308):
        with pytest.raises(InvalidInputError, match="not aligned"):
            build_state(SMALL, PositionEigenstate(q0))


def test_norm_guard():
    with pytest.raises(InvalidInputError):
        QuantumState(np.ones(64, dtype=np.complex128), SMALL)
    with pytest.raises(InvalidInputError):
        QuantumState(np.ones(32, dtype=np.complex128) / np.sqrt(32), SMALL)


def test_gaussian_state_shape_and_width():
    spec = MapSpec(0.8, 5e-3, 1000)
    sigma = 0.05
    psi = build_state(spec, GaussianWavepacket(0.4, 0.0, sigma))
    assert np.linalg.norm(psi.vector) == pytest.approx(1.0, abs=1e-12)
    dens = psi.position_density
    q = np.arange(1000) / 1000
    mean = float(np.sum(q * dens))
    var = float(np.sum((q - mean) ** 2 * dens))
    assert mean == pytest.approx(0.4, abs=1e-6)
    assert np.sqrt(var) == pytest.approx(sigma, rel=1e-3)


def test_gaussian_state_momentum_center():
    spec = MapSpec(0.8, 5e-3, 1000)
    p0 = 0.25
    psi = build_state(spec, GaussianWavepacket(0.5, p0, 0.05))
    mom = np.fft.fft(psi.vector, norm="ortho")
    m_peak = int(np.argmax(np.abs(mom)))
    assert abs(m_peak / 1000 - p0) < 0.01


def test_unitarity_over_long_evolution():
    spec = MapSpec(0.8, 5e-3, 1000)
    psi = build_state(spec, GaussianWavepacket(0.4, 0.0, 0.05))
    for _ in range(1000):
        psi = step_quantum(psi, perturbed=True)
    assert abs(np.linalg.norm(psi.vector) - 1.0) < 1e-12  # measured ~3e-14


def _per_branch_amplitudes(spec, psi0, steps):
    """<pert|plain> with each branch stepped alone: kick * psi, then one np.fft pair."""
    n = spec.dim_n
    j = np.arange(n)
    cos_q = np.cos(2.0 * np.pi * j / n)
    drift = np.exp(-1j * np.pi * j * j / n)
    kick_pert = np.exp(1j * ((spec.k + spec.epsilon) * n / (2.0 * np.pi)) * cos_q)
    kick_plain = np.exp(1j * (spec.k * n / (2.0 * np.pi)) * cos_q)
    pert = plain = psi0
    amp = [np.vdot(pert, plain)]
    for _ in range(steps):
        branches = []
        for kick, psi in ((kick_pert, pert), (kick_plain, plain)):
            mom = np.fft.fft(kick * psi, norm="ortho")
            mom *= drift
            branches.append(np.fft.ifft(mom, norm="ortho"))
        pert, plain = branches
        amp.append(np.vdot(pert, plain))
    return np.array(amp)


@pytest.mark.parametrize(
    "spec, state",
    [
        (CHAOTIC_SMALL, PositionEigenstate(0.25)),
        (MapSpec(0.8, 5e-3, 1000), GaussianWavepacket(0.4, 0.3, 0.05)),
        (MapSpec(10.0, 2e-3, 256), "vector"),
        (MapSpec(10.0, 0.0, 128), PositionEigenstate(0.25)),
    ],
)
def test_exact_curve_matches_per_branch_loop_bitwise(spec, state):
    psi = _random_state(spec) if state == "vector" else build_state(spec, state)
    before = psi.vector.copy()
    curve = exact_fidelity_curve(spec, psi if state == "vector" else state, 40)
    ref = _per_branch_amplitudes(spec, psi.vector, 40)
    assert curve.amplitude.tobytes() == ref.tobytes()
    assert np.array_equal(psi.vector, before)  # the caller's state is not stepped


def test_exact_loop_builds_no_state_and_takes_no_norm(monkeypatch):
    psi = _random_state(MapSpec(10.0, 2e-3, 256))

    def never(*args, **kwargs):
        raise AssertionError("norm taken inside the step loop")

    monkeypatch.setattr(np.linalg, "norm", never)
    curve = exact_fidelity_curve(psi.spec, psi, 30)
    assert curve.sample_count == 256


def test_phase_factors_hold_one_entry_per_spec():
    quantum._phase_factors.cache_clear()
    psi = build_state(SMALL, PositionEigenstate(0.25))
    exact_fidelity_curve(SMALL, psi, 3)
    step_quantum(step_quantum(psi), perturbed=True)
    assert quantum._phase_factors.cache_info().currsize == 1
    kicks, drift = quantum._phase_factors(SMALL)
    assert kicks.shape == (2, 64) and drift.shape == (64,)
    assert not kicks.flags.writeable and not drift.flags.writeable


def test_zero_perturbation_fidelity_stays_unity():
    spec = MapSpec(10.0, 0.0, 128)
    curve = exact_fidelity_curve(spec, PositionEigenstate(0.25), 60)
    assert np.abs(curve.fidelity - 1.0).max() < 1e-12
    assert curve.method == "exact"
    assert np.all(curve.stderr_re == 0.0)


@pytest.mark.parametrize("spec", [SMALL, CHAOTIC_SMALL])
def test_split_operator_matches_dense_oracle(spec):
    state = PositionEigenstate(0.25)
    split = exact_fidelity_curve(spec, state, 30)
    dense = dense_oracle(spec, state, 30)
    assert np.abs(split.amplitude - dense.amplitude).max() < 1e-9
    assert dense.method == "dense"


def test_dense_oracle_on_random_vector():
    psi = _random_state(MapSpec(10.0, 2e-3, 32))
    split = exact_fidelity_curve(psi.spec, psi, 20)
    dense = dense_oracle(psi.spec, psi, 20)
    assert np.abs(split.amplitude - dense.amplitude).max() < 1e-10


def test_dense_oracle_capacity_limit():
    spec = MapSpec(0.8, 5e-3, 257)
    with pytest.raises(CapacityError):
        dense_oracle(spec, PositionEigenstate(0.0), 5)


def test_echo_reading_equals_two_branch_reading():
    dev = loschmidt_equivalence(CHAOTIC_SMALL, PositionEigenstate(0.25), 20)
    assert dev < 1e-10
    dev_g = loschmidt_equivalence(
        MapSpec(0.8, 5e-3, 128), GaussianWavepacket(0.5, 0.0, 0.05), 15
    )
    assert dev_g < 1e-10


def test_single_kick_amplitude_is_conjugate_across_routes():
    # both routes give a pure phase after one kick from a position state;
    # the semiclassical amplitude is the conjugate of the quantum overlap
    spec = MapSpec(0.8, 5e-3, 1000)
    dr = dr_curve(spec, samples_position_state(spec, 0.4), 1)
    ex = exact_fidelity_curve(spec, PositionEigenstate(0.4), 1)
    assert abs(abs(dr.amplitude[1]) - 1.0) < 1e-12
    assert abs(abs(ex.amplitude[1]) - 1.0) < 1e-12
    assert abs(dr.amplitude[1] - np.conj(ex.amplitude[1])) < 1e-12


def test_overlap_and_state_mismatch():
    a = _random_state(SMALL, seed=1)
    b = _random_state(SMALL, seed=2)
    assert abs(a.overlap(a) - 1.0) < 1e-12
    assert a.overlap(b) != a.overlap(a)
    with pytest.raises(InvalidInputError):
        a.overlap(_random_state(MapSpec(0.8, 5e-3, 32)))
    with pytest.raises(InvalidInputError):
        exact_fidelity_curve(SMALL, _random_state(MapSpec(0.8, 5e-3, 32)), 3)


def test_steps_validation():
    with pytest.raises(InvalidInputError):
        exact_fidelity_curve(SMALL, PositionEigenstate(0.25), -1)
    with pytest.raises(InvalidInputError):
        dense_oracle(SMALL, PositionEigenstate(0.25), -1)


def test_wigner_sampler_has_no_wavefunction():
    from torusecho import SampleSet, WignerSampler

    class Flat(WignerSampler):
        def sample(self, spec, count, seed):
            rng = np.random.default_rng(seed)
            return SampleSet(
                rng.random(count), rng.random(count),
                np.full(count, 1.0 / count), "monte_carlo", self.label(), seed=seed,
            )

    with pytest.raises(InvalidInputError):
        build_state(SMALL, Flat())
