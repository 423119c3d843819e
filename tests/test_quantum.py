"""Split-operator propagation, dense oracle, echo equivalence."""

import hashlib
import importlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fresh import run_fresh
from torusecho import quantum
from torusecho import (
    CapacityError,
    GaussianWavepacket,
    InitialState,
    InvalidInputError,
    MapSpec,
    PositionEigenstate,
    build_state,
    dense_oracle,
    dr_curve,
    exact_fidelity_curve,
    samples_position_state,
    step_quantum,
)

SMALL = MapSpec(0.8, 5e-3, 64)
CHAOTIC_SMALL = MapSpec(10.0, 2e-3, 64)
# a state whose grid vector is complex and nowhere zero, on any grid used here
PACKET = GaussianWavepacket(0.3, 0.2, 0.05)


def _random_state(spec, seed=42):
    rng = np.random.Generator(np.random.Philox(key=seed))
    v = rng.standard_normal(spec.dim_n) + 1j * rng.standard_normal(spec.dim_n)
    return v / np.linalg.norm(v)


def test_position_state_is_one_hot():
    psi = build_state(SMALL, PositionEigenstate(0.25))
    assert psi[16] == 1.0
    assert np.count_nonzero(psi) == 1


def test_misaligned_position_state_rejected():
    for q0 in (0.4, float("nan"), float("inf"), 1e308):
        with pytest.raises(InvalidInputError, match="not aligned"):
            build_state(SMALL, PositionEigenstate(q0))


def test_gaussian_state_shape_and_width():
    spec = MapSpec(0.8, 5e-3, 1000)
    sigma = 0.05
    psi = build_state(spec, GaussianWavepacket(0.4, 0.0, sigma))
    assert psi.shape == (1000,) and psi.dtype == np.complex128
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    dens = np.abs(psi) ** 2
    q = np.arange(1000) / 1000
    mean = float(np.sum(q * dens))
    var = float(np.sum((q - mean) ** 2 * dens))
    assert mean == pytest.approx(0.4, abs=1e-6)
    assert np.sqrt(var) == pytest.approx(sigma, rel=1e-3)


def test_gaussian_state_momentum_center():
    spec = MapSpec(0.8, 5e-3, 1000)
    p0 = 0.25
    psi = build_state(spec, GaussianWavepacket(0.5, p0, 0.05))
    mom = np.fft.fft(psi, norm="ortho")
    m_peak = int(np.argmax(np.abs(mom)))
    assert abs(m_peak / 1000 - p0) < 0.01


def test_gaussian_narrower_than_the_grid():
    """An on-grid packet below the grid spacing is one-hot; one with no weight is refused."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = build_state(SMALL, GaussianWavepacket(0.25, 0.0, 1e-160))
        assert psi[16] == 1.0 and np.count_nonzero(psi) == 1
        # all weight underflows off the grid points, or sigma^2 itself underflows
        for q0, sigma, norm in ((0.4005, 1e-6, "0.0"), (0.25, 1e-300, "nan")):
            want = f"norm {norm} on the grid: sigma={sigma!r} is too narrow for q0={q0!r} on dim_n=64"
            with pytest.raises(InvalidInputError, match=re.escape(want)):
                build_state(SMALL, GaussianWavepacket(q0, 0.0, sigma))


def test_unitarity_over_long_evolution():
    spec = MapSpec(0.8, 5e-3, 1000)
    psi = build_state(spec, GaussianWavepacket(0.4, 0.0, 0.05))
    for _ in range(1000):
        psi = step_quantum(spec, psi, perturbed=True)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12  # measured ~3e-14


def _overlap(pert, plain):
    """<pert|plain> as conj(pert) * plain summed by numpy, the program's formula."""
    prod = np.conjugate(pert)
    prod *= plain
    return prod.sum()


def _phases(spec):
    """(perturbed kick, bare kick, drift) of one split step, written out."""
    n = spec.dim_n
    j = np.arange(n)
    cos_q = np.cos(2.0 * np.pi * j / n)
    drift = np.exp(-1j * np.pi * ((j * j) % (2 * n)) / n)
    kick_pert = np.exp(1j * ((spec.k + spec.epsilon) * n / (2.0 * np.pi)) * cos_q)
    kick_plain = np.exp(1j * (spec.k * n / (2.0 * np.pi)) * cos_q)
    return kick_pert, kick_plain, drift


def _fft(x, forward=True):
    """A new array, the unitary DFT of x (its inverse if not forward) by the program's FFT routine.

    The bitwise references check how the program steps, not which FFT it
    calls, so they take the routine the exact route loads.
    """
    return quantum._c2c()(x, (-1,), forward, 1)


def _split_amplitudes(spec, psi0, steps):
    """<pert|plain> with each branch stepped alone: kick * psi, then one FFT pair."""
    kick_pert, kick_plain, drift = _phases(spec)
    pert = plain = psi0
    amp = [_overlap(pert, plain)]
    for _ in range(steps):
        branches = []
        for kick, psi in ((kick_pert, pert), (kick_plain, plain)):
            mom = _fft(kick * psi)
            mom *= drift
            branches.append(_fft(mom, forward=False))
        pert, plain = branches
        amp.append(_overlap(pert, plain))
    return np.array(amp)


def _per_branch_amplitudes(spec, psi0, steps):
    """<pert|plain> with each branch stepped alone, as the program steps it.

    Odd N: the split pair. Even N: after the first overlap each branch enters
    as phi = psi0 * conj(C), C_j = exp(i pi j^2 / N), and steps with one FFT,
    phi <- fft((kick * C^2) * phi).
    """
    n = spec.dim_n
    if n % 2:
        return _split_amplitudes(spec, psi0, steps)
    kick_pert, kick_plain, _ = _phases(spec)
    j = np.arange(n)
    entry = np.exp(-1j * np.pi * ((j * j) % (2 * n)) / n)
    chirp2 = np.exp(2j * np.pi * ((j * j) % n) / n)
    row_pert, row_plain = kick_pert * chirp2, kick_plain * chirp2
    amp = [_overlap(psi0, psi0)]
    pert = plain = psi0 * entry
    for _ in range(steps):
        pert = _fft(row_pert * pert)
        plain = _fft(row_plain * plain)
        amp.append(_overlap(pert, plain))
    return np.array(amp)


@pytest.mark.parametrize(
    "spec, state",
    [
        (CHAOTIC_SMALL, PositionEigenstate(0.25)),
        (MapSpec(0.8, 5e-3, 1000), GaussianWavepacket(0.4, 0.3, 0.05)),
        (MapSpec(10.0, 2e-3, 256), PACKET),
        (MapSpec(10.0, 0.0, 128), PositionEigenstate(0.25)),
        (MapSpec(10.0, 2e-3, 255), GaussianWavepacket(0.3, 0.2, 0.05)),
        (MapSpec(0.8, 5e-3, 101), PACKET),
    ],
)
def test_exact_curve_matches_per_branch_loop_bitwise(spec, state):
    curve = exact_fidelity_curve(spec, state, 40)
    ref = _per_branch_amplitudes(spec, build_state(spec, state), 40)
    assert curve.amplitude.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "library, dim_n",
    [("scipy", n) for n in (128, 1000, 1001, 8192, 8193, 65536)]
    # the presets step at N = 1000 and 256 and exact-large at 65536: their bits stay numpy's
    + [("numpy", n) for n in (256, 1000, 65536)],
)
def test_loaded_fft_gives_the_bytes_of_the_library_fft(library, dim_n):
    # transformed in place on rows and on the (2, N) array, as _split_step calls it
    fft = importlib.import_module(f"{library}.fft")
    c2c = quantum._c2c()
    rng = np.random.default_rng(dim_n)
    x = rng.standard_normal((2, dim_n)) + 1j * rng.standard_normal((2, dim_n))
    for forward, transform in ((True, fft.fft), (False, fft.ifft)):
        want = transform(x, axis=-1, norm="ortho")
        rows, whole = [row.copy() for row in x], x.copy()
        for y in (*rows, whole):
            c2c(y, quantum._LAST_AXIS, forward, 1, y, 1)
        assert whole.tobytes() == want.tobytes()
        assert all(row.tobytes() == w.tobytes() for row, w in zip(rows, want))


def test_exact_curve_loads_only_the_fft_extension_of_scipy():
    code = (
        "import sys\n"
        "from torusecho import MapSpec, PositionEigenstate, exact_fidelity_curve\n"
        "exact_fidelity_curve(MapSpec(10.0, 2e-3, 1000), PositionEigenstate(0.5), 3)\n"
        "print('scipy' in sys.modules,"
        " sorted(m for m in sys.modules if m.startswith(('scipy.fft', 'scipy.linalg'))))"
    )
    assert run_fresh(code).strip() == "True ['scipy.fft._pocketfft.pypocketfft']"


_CURVES_AROUND_IMPORT = """\
import hashlib, sys
from torusecho import MapSpec, PositionEigenstate, exact_fidelity_curve, quantum

def digest():
    amps = [exact_fidelity_curve(MapSpec(10.0, 2e-3, n), PositionEigenstate(0.5), 20).amplitude
            for n in (128, 8192)]
    return hashlib.sha256(b"".join(a.tobytes() for a in amps)).hexdigest()

if sys.argv[1] == "curve-first":
    before = digest()
import scipy.fft
from scipy.fft._pocketfft import pypocketfft
if sys.argv[1] == "import-first":
    before = digest()
print(before, digest(), pypocketfft.c2c is quantum._c2c())
"""


@pytest.mark.parametrize("order", ["curve-first", "import-first"])
def test_exact_curves_before_or_after_importing_scipy_fft_give_the_same_bytes(order):
    # one curve on each stepping path, both at sizes where scipy's bits are not numpy's
    amps = [exact_fidelity_curve(MapSpec(10.0, 2e-3, n), PositionEigenstate(0.5), 20).amplitude
            for n in (128, 8192)]
    digest = hashlib.sha256(b"".join(a.tobytes() for a in amps)).hexdigest()
    assert run_fresh(_CURVES_AROUND_IMPORT, order).split() == [digest, digest, "True"]


def test_exact_loop_builds_no_state_and_takes_no_norm(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("norm taken inside the step loop")

    monkeypatch.setattr(np.linalg, "norm", never)
    curve = exact_fidelity_curve(MapSpec(10.0, 2e-3, 256), PACKET, 30)
    assert curve.sample_count == 256


def test_exact_curve_bits_do_not_depend_on_the_worker_count(monkeypatch):
    spec, state = MapSpec(10.0, 2e-3, quantum._THREAD_MIN_DIM), PositionEigenstate(0.25)
    reference = _per_branch_amplitudes(spec, build_state(spec, state), 8).tobytes()
    pools = []

    class CountedPool(quantum.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(quantum, "ThreadPoolExecutor", CountedPool)
    step, stepped = quantum._split_step, []

    def counted_step(rows, factor, drift):
        stepped.append((rows.ndim, drift is None))
        step(rows, factor, drift)

    monkeypatch.setattr(quantum, "_split_step", counted_step)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL over as often as it can go
    try:
        amplitude = exact_fidelity_curve(spec, state, 8).amplitude
    finally:
        sys.setswitchinterval(interval)
    # one one-worker pool, for the bare row
    assert pools == [{"max_workers": 1}]
    # one one-FFT call per row per step (even N, no drift), no (2, N) call
    assert stepped == [(1, True)] * 16
    assert amplitude.tobytes() == reference


@pytest.mark.parametrize(
    "dim_n", [quantum._THREAD_MIN_DIM - 1, quantum._THREAD_MIN_DIM, quantum._THREAD_MIN_DIM + 1]
)
def test_exact_curve_reads_no_cpu_count(monkeypatch, dim_n):
    def never(*args):
        raise AssertionError("CPU count read by the exact route")

    monkeypatch.setattr(os, "sched_getaffinity", never, raising=False)
    monkeypatch.setattr(os, "cpu_count", never)
    spec = MapSpec(10.0, 2e-3, dim_n)
    curve = exact_fidelity_curve(spec, PACKET, 5)
    ref = _per_branch_amplitudes(spec, build_state(spec, PACKET), 5)
    assert curve.amplitude.tobytes() == ref.tobytes()


def test_exact_curve_below_the_cut_starts_no_thread(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("thread pool started below the cut")

    monkeypatch.setattr(quantum, "ThreadPoolExecutor", never)
    spec = MapSpec(10.0, 2e-3, quantum._THREAD_MIN_DIM - 1)
    curve = exact_fidelity_curve(spec, PACKET, 5)
    ref = _per_branch_amplitudes(spec, build_state(spec, PACKET), 5)
    assert curve.amplitude.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dim_n", [256, quantum._THREAD_MIN_DIM])
def test_exact_loop_makes_no_blas_call(monkeypatch, dim_n):
    def never(*args, **kwargs):
        raise AssertionError("BLAS call in the exact route")

    for name in ("vdot", "dot", "inner"):
        monkeypatch.setattr(np, name, never)
    curve = exact_fidelity_curve(MapSpec(10.0, 2e-3, dim_n), PACKET, 5)
    assert curve.amplitude[0] == pytest.approx(1.0, abs=1e-12)


def test_exact_curve_bits_do_not_depend_on_blas_threads():
    # OpenBLAS splits a dot product over its threads above 10000 points
    import torusecho

    src = str(Path(torusecho.__file__).resolve().parent.parent)
    n, steps = 16384, 10
    code = (
        "import hashlib\n"
        "from torusecho import MapSpec, PositionEigenstate, exact_fidelity_curve\n"
        f"c = exact_fidelity_curve(MapSpec(10.0, 2.0 / {n}, {n}), PositionEigenstate(0.5), {steps})\n"
        "print(hashlib.sha256(c.amplitude.tobytes()).hexdigest())"
    )
    digests = set()
    for blas_threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        digests.add(out.strip())
    here = exact_fidelity_curve(MapSpec(10.0, 2.0 / n, n), PositionEigenstate(0.5), steps)
    assert digests == {hashlib.sha256(here.amplitude.tobytes()).hexdigest()}


def test_gaussian_state_bits_do_not_depend_on_blas_threads():
    # np.linalg.norm is a BLAS dot, which OpenBLAS splits over its threads
    import torusecho

    src = str(Path(torusecho.__file__).resolve().parent.parent)
    code = (
        "import hashlib\n"
        "from torusecho import GaussianWavepacket, MapSpec, build_state\n"
        "v = build_state(MapSpec(10.0, 1e-3, 16384), GaussianWavepacket(0.3, 0.2, 0.05))\n"
        "print(hashlib.sha256(v.tobytes()).hexdigest())"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    digests = {
        subprocess.run([sys.executable, "-c", code], env=dict(env, OPENBLAS_NUM_THREADS=threads),
                       capture_output=True, text=True, check=True).stdout.strip()
        for threads in ("1", "2")
    }
    assert len(digests) == 1


def test_phase_factors_hold_one_entry_per_spec():
    quantum._phase_factors.cache_clear()
    odd = MapSpec(0.8, 5e-3, 63)
    for spec in (SMALL, odd):
        exact_fidelity_curve(spec, PositionEigenstate(0.0), 3)
        step_quantum(spec, step_quantum(spec, build_state(spec, PositionEigenstate(0.0))), True)
    assert quantum._phase_factors.cache_info().currsize == 2
    rows, entry, drift = quantum._phase_factors(SMALL)  # kick * C^2 rows, conj(C)
    assert rows.shape == (2, 64) and entry.shape == (64,) and drift is None
    assert not rows.flags.writeable and not entry.flags.writeable
    kicks, entry, drift = quantum._phase_factors(odd)
    assert kicks.shape == (2, 63) and entry is None and drift.shape == (63,)
    assert not kicks.flags.writeable and not drift.flags.writeable


def test_spec_caches_hold_a_pass_of_each_workload():
    # a presets pass builds three exact specs and one dense N; an exact-large pass two specs
    presets = [MapSpec(0.8, 5e-3, 1000), MapSpec(10.0, 2e-3, 1000), MapSpec(0.8, 5e-3, 256)]
    large = [MapSpec(10.0, 2 / 65536, 65536), MapSpec(0.8, 5 / 65536, 65536)]
    for specs, dims in ((presets, [256]), (large, [])):
        quantum._phase_factors.cache_clear()
        quantum._dense_drift.cache_clear()
        for _ in range(2):
            for spec in specs:
                quantum._phase_factors(spec)
            for dim_n in dims:
                quantum._dense_drift(dim_n)
        info = quantum._phase_factors.cache_info()
        assert (info.hits, info.misses, info.maxsize) == (len(specs), len(specs), 4)
        info = quantum._dense_drift.cache_info()
        assert (info.hits, info.misses, info.maxsize) == (len(dims), len(dims), 4)
    # an epsilon sweep keeps no more than four specs' factors alive
    for eps in np.linspace(1e-3, 5e-3, 9):
        quantum._phase_factors(MapSpec(0.8, eps, 1000))
    assert quantum._phase_factors.cache_info().currsize == 4


def test_dense_drift_is_one_read_only_matrix_per_grid():
    quantum._dense_drift.cache_clear()
    gmat = quantum._dense_drift(64)
    assert quantum._dense_drift(64) is gmat and quantum._dense_drift(63) is not gmat
    assert not gmat.flags.writeable
    with pytest.raises(ValueError):
        gmat[0, 0] = 0.0
    # the oracle reads the cached matrix and leaves it as it was
    before = gmat.copy()
    dense_oracle(SMALL, PositionEigenstate(0.25), 3)
    assert quantum._dense_drift(64) is gmat and np.array_equal(gmat, before)


@pytest.mark.parametrize("dim_n", [2, 3, 64, 63, 1000, 65536])
def test_phase_factors_are_the_written_out_phases_bitwise(dim_n):
    # the in-place build keeps the bits of the whole-array expressions
    spec = MapSpec(10.0, 2e-3, dim_n)
    kick_pert, kick_plain, quad = _phases(spec)
    want = np.stack([kick_pert, kick_plain])
    j = np.arange(dim_n)
    if dim_n % 2 == 0:
        want *= np.exp(2j * np.pi * ((j * j) % dim_n) / dim_n)
    rows, entry, drift = quantum._phase_factors(spec)
    assert np.array_equal(rows.view(np.uint64), want.view(np.uint64))
    kept = drift if dim_n % 2 else entry
    assert np.array_equal(kept.view(np.uint64), quad.view(np.uint64))


def test_zero_perturbation_fidelity_stays_unity():
    for dim_n, q0 in ((128, 0.25), (255, 0.2)):
        spec = MapSpec(10.0, 0.0, dim_n)
        curve = exact_fidelity_curve(spec, PositionEigenstate(q0), 60)
        assert np.abs(curve.fidelity - 1.0).max() < 1e-12
        assert curve.method == "exact"
        assert np.all(curve.stderr_re == 0.0)


@pytest.mark.parametrize("dim_n", [2, 64, 1000, quantum._THREAD_MIN_DIM])
def test_even_grid_position_state_starts_at_exactly_one(dim_n):
    # amp(0) is read from psi0 before the entry chirp, on every stepping path
    curve = exact_fidelity_curve(MapSpec(10.0, 2e-3, dim_n), PositionEigenstate(0.5), 2)
    assert curve.amplitude[0] == 1.0
    assert np.abs(curve.amplitude).max() <= 1.0 + 1e-12


def test_one_fft_curve_stays_close_to_the_split_pair():
    # the chirp factorization moves an even-N curve by rounding only
    spec = MapSpec(10.0, 2e-3, 1000)
    for state in (PositionEigenstate(0.4), GaussianWavepacket(0.4, 0.3, 0.05)):
        curve = exact_fidelity_curve(spec, state, 200).amplitude
        split = _split_amplitudes(spec, build_state(spec, state), 200)
        assert np.abs(curve - split).max() < 1e-12  # measured ~1e-13


@pytest.mark.parametrize("dim_n", [64, 65])
def test_step_quantum_is_the_dense_one_step_unitary(dim_n):
    spec = MapSpec(10.0, 2e-3, dim_n)
    psi = _random_state(spec)
    kick_pert, kick_plain, drift = _phases(spec)
    j = np.arange(dim_n)
    fmat = np.exp(-2j * np.pi * (np.outer(j, j) % dim_n) / dim_n) / np.sqrt(dim_n)
    for perturbed, kick in ((False, kick_plain), (True, kick_pert)):
        # F^-1 diag(drift) F diag(kick) as an explicit matrix
        unitary = fmat.conj().T @ (drift[:, None] * (fmat * kick[None, :]))
        stepped = step_quantum(spec, psi, perturbed=perturbed)
        assert np.abs(stepped - unitary @ psi).max() < 1e-12


@pytest.mark.parametrize("dim_n", [2, 3, 63, 64, 255, 256])
def test_dense_drift_is_the_written_out_circulant(dim_n):
    # odd N too: drift is symmetric in m <-> N - m only for even N, so a
    # transposed circulant index changes G only at odd N
    j = np.arange(dim_n)
    fmat = np.exp(-2j * np.pi * np.outer(j, j) / dim_n) / np.sqrt(dim_n)
    drift = np.exp(-1j * np.pi * j * j / dim_n)
    want = fmat.conj().T @ (drift[:, None] * fmat)
    gmat = quantum._dense_drift(dim_n)
    assert np.abs(gmat - want).max() < 1e-13  # measured 2e-16 to 1.8e-14
    assert np.abs(gmat @ gmat.conj().T - np.eye(dim_n)).max() < 1e-13


@pytest.mark.parametrize(
    "spec", [SMALL, CHAOTIC_SMALL, MapSpec(10.0, 2e-3, 255), MapSpec(0.8, 5e-3, 101)]
)
def test_split_operator_matches_dense_oracle(spec):
    state = PositionEigenstate(round(0.25 * spec.dim_n) / spec.dim_n)
    split = exact_fidelity_curve(spec, state, 30)
    dense = dense_oracle(spec, state, 30)
    assert np.abs(split.amplitude - dense.amplitude).max() < 1e-9
    assert dense.method == "dense"


def test_dense_oracle_capacity_limit():
    spec = MapSpec(0.8, 5e-3, 257)
    with pytest.raises(CapacityError):
        dense_oracle(spec, PositionEigenstate(0.0), 5)


def test_grid_cap_is_refused_before_any_grid_array(monkeypatch):
    spec = MapSpec(10.0, 1e-3, 65537)
    for name in ("zeros", "empty", "arange"):  # every allocation build_state can make
        monkeypatch.setattr(np, name, lambda *a, **k: pytest.fail("grid array allocated"))
    for state in (PositionEigenstate(0.0), GaussianWavepacket(0.5, 0.0, 0.05)):
        with pytest.raises(CapacityError, match="dim_n 65537 exceeds limit 65536"):
            build_state(spec, state)
        with pytest.raises(CapacityError, match="dim_n 65537 exceeds limit 65536"):
            exact_fidelity_curve(spec, state, 1)


@pytest.mark.parametrize("route", [exact_fidelity_curve, dense_oracle])
def test_non_finite_states_are_refused_not_propagated(route):
    nan, inf = float("nan"), float("inf")
    for q0, p0 in ((nan, 0.0), (0.3, inf)):
        with pytest.raises(InvalidInputError, match="must be finite"):
            route(SMALL, GaussianWavepacket(q0, p0, 0.1), 3)


@settings(deadline=None, max_examples=40)
@given(
    k=st.floats(0.0, 12.0),
    epsilon=st.floats(-0.05, 0.05),
    dim_n=st.integers(2, 128),
    steps=st.integers(0, 20),
    where=st.floats(0.0, 1.0, exclude_max=True),
    p0=st.floats(0.0, 1.0, exclude_max=True),
    sigma=st.one_of(st.none(), st.floats(0.03, 0.15)),
)
def test_exact_route_agrees_with_the_dense_oracle(k, epsilon, dim_n, steps, where, p0, sigma):
    # both parities of N; a Gaussian (sigma drawn) or a grid-aligned position state
    spec = MapSpec(k, epsilon, dim_n)
    if sigma is None:
        state = PositionEigenstate(int(where * dim_n) / dim_n)
    else:
        state = GaussianWavepacket(where, p0, sigma)
    if epsilon != 0.0 and k + epsilon == k:  # a perturbation lost to rounding is refused
        for route in (exact_fidelity_curve, dense_oracle):
            with pytest.raises(InvalidInputError, match="below the rounding of k"):
                route(spec, state, steps)
        return
    exact = exact_fidelity_curve(spec, state, steps).amplitude
    dense = dense_oracle(spec, state, steps).amplitude
    assert np.abs(exact - dense).max() < 1e-9
    assert np.abs(exact).max() <= 1.0 + 1e-12


def _echo_amplitudes(spec, psi0, steps):
    """<psi0|U_pert^-t U^t|psi0>: t bare steps forward, then t perturbed steps undone."""
    kick_pert, kick_plain, drift = _phases(spec)
    amp = []
    plain = psi0
    for t in range(steps + 1):
        echo = plain
        for _ in range(t):  # adjoint step: undo the drift, then the kick
            mom = np.fft.fft(echo, norm="ortho") * np.conj(drift)
            echo = np.conj(kick_pert) * np.fft.ifft(mom, norm="ortho")
        amp.append(np.vdot(psi0, echo))
        plain = np.fft.ifft(np.fft.fft(kick_plain * plain, norm="ortho") * drift, norm="ortho")
    return np.array(amp)


def test_echo_reading_equals_two_branch_reading():
    for spec, state, steps in (
        (CHAOTIC_SMALL, PositionEigenstate(0.25), 20),
        (MapSpec(0.8, 5e-3, 128), GaussianWavepacket(0.5, 0.0, 0.05), 15),
    ):
        forward = exact_fidelity_curve(spec, state, steps).amplitude
        echo = _echo_amplitudes(spec, build_state(spec, state), steps)
        assert np.abs(echo - forward).max() < 1e-10


def test_single_kick_amplitude_is_conjugate_across_routes():
    # both routes give a pure phase after one kick from a position state;
    # the semiclassical amplitude is the conjugate of the quantum overlap
    spec = MapSpec(0.8, 5e-3, 1000)
    dr = dr_curve(spec, samples_position_state(spec, 0.4), 1)
    ex = exact_fidelity_curve(spec, PositionEigenstate(0.4), 1)
    assert abs(abs(dr.amplitude[1]) - 1.0) < 1e-12
    assert abs(abs(ex.amplitude[1]) - 1.0) < 1e-12
    assert abs(dr.amplitude[1] - np.conj(ex.amplitude[1])) < 1e-12


def test_steps_validation():
    with pytest.raises(InvalidInputError):
        exact_fidelity_curve(SMALL, PositionEigenstate(0.25), -1)
    with pytest.raises(InvalidInputError):
        dense_oracle(SMALL, PositionEigenstate(0.25), -1)


def test_unknown_state_type_is_refused_by_every_route():
    # a state none of the routes knows, such as one with no wavefunction
    class Unknown(InitialState):
        def label(self):
            return "unknown"

    for route in (build_state, exact_fidelity_curve, dense_oracle):
        args = (SMALL, Unknown()) if route is build_state else (SMALL, Unknown(), 3)
        with pytest.raises(InvalidInputError, match="unknown initial state type Unknown"):
            route(*args)
    # a bare grid vector is no state descriptor
    for route in (exact_fidelity_curve, dense_oracle):
        with pytest.raises(InvalidInputError, match="unknown initial state type ndarray"):
            route(SMALL, _random_state(SMALL), 3)
    with pytest.raises(InvalidInputError, match=r"shape \(64,\), got \(65,\)"):
        step_quantum(SMALL, _random_state(MapSpec(0.8, 5e-3, 65)))
