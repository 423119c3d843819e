"""Dephasing-representation estimator: exactness limits, errors, threading."""

import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusecho import (
    CHUNK,
    FidelityCurve,
    InvalidInputError,
    MapSpec,
    SampleSet,
    dr_conjugation_check,
    dr_curve,
    samples_position_state,
    step_ensemble,
)
from torusecho import dephasing, samples_gaussian
from torusecho.dephasing import HISTORY, _chunk_sums, _half_angle, _worker_count

from map_reference import step_ref

# whole chunks one dr job stacks at most
STACK = HISTORY // CHUNK

MIXED = MapSpec(0.8, 5e-3, 64)
CHAOTIC = MapSpec(10.0, 2e-3, 1000)


def test_zero_perturbation_gives_exact_unity():
    spec = MapSpec(0.8, 0.0, 64)
    curve = dr_curve(spec, samples_position_state(spec, 0.25), 50)
    assert np.all(curve.fidelity == 1.0)
    assert np.all(curve.amplitude == 1.0 + 0.0j)


def test_single_sample_amplitude_is_pure_phase():
    """One trajectory: amplitude must equal exp(i dS / hbar) along its orbit."""
    s = SampleSet(
        np.array([0.37]), np.array([0.21]), np.array([1.0]),
        "grid", "point", seed=None,
    )
    curve = dr_curve(MIXED, s, 12)
    c = MIXED.kick_coefficient(False)
    q, p, delta_s = 0.37, 0.21, 0.0
    for t in range(13):
        expect = np.exp(1j * delta_s / MIXED.hbar)
        assert abs(curve.amplitude[t] - expect) < 1e-12
        assert abs(curve.fidelity[t] - 1.0) < 1e-12  # single phase: no decay
        # dS grows by (epsilon / 4pi^2) cos(2pi q) per kick of the unperturbed map
        delta_s += MIXED.epsilon * np.cos(2 * np.pi * q) / (4 * np.pi**2)
        q, p = step_ref(c, q, p)


def test_curve_metadata_and_properties():
    s = samples_position_state(MIXED, 0.25)
    curve = dr_curve(MIXED, s, 10)
    assert curve.method == "dr"
    assert curve.steps == 10
    assert curve.sample_count == 64
    assert curve.state_label == s.state_label
    assert np.array_equal(curve.fidelity, curve.amplitude.real**2 + curve.amplitude.imag**2)
    # grid sets carry no statistical error
    assert np.all(curve.stderr_re == 0.0) and np.all(curve.stderr_im == 0.0)


def test_monte_carlo_reports_positive_stderr():
    s = samples_position_state(CHAOTIC, 0.4, count=3000, mode="monte_carlo", seed=4)
    curve = dr_curve(CHAOTIC, s, 15)
    assert curve.stderr_re[0] == 0.0  # all phases are 1 at t = 0
    assert np.all(curve.stderr_re[2:] > 0.0)
    assert np.all(curve.stderr_im[2:] > 0.0)


def test_reported_stderr_matches_scatter_over_seeds():
    """Std of the estimate across independent seeds ~ mean reported stderr."""
    amps, errs = [], []
    for seed in range(20):
        s = samples_position_state(CHAOTIC, 0.4, count=2000, mode="monte_carlo", seed=seed)
        c = dr_curve(CHAOTIC, s, 20)
        amps.append(c.amplitude[20].real)
        errs.append(c.stderr_re[20])
    ratio = np.std(amps, ddof=1) / np.mean(errs)
    assert 0.6 < ratio < 1.5  # measured 1.01 for these seeds


@pytest.mark.parametrize("threads", [2, 3, 8])
def test_thread_count_never_changes_bits(threads, monkeypatch):
    # many usable CPUs, so the requested workers start on any machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    s = samples_position_state(CHAOTIC, 0.4, count=CHUNK * 2 + 77, mode="monte_carlo", seed=6)
    base = dr_curve(CHAOTIC, s, 12, threads=1)
    other = dr_curve(CHAOTIC, s, 12, threads=threads)
    assert np.array_equal(base.amplitude, other.amplitude)
    assert np.array_equal(base.stderr_re, other.stderr_re)
    assert np.array_equal(base.stderr_im, other.stderr_im)


def _cos_sin_ref(x):
    """cos x and sin x by the half-angle identity, t = tan(x/2)."""
    t = np.tan(x / 2)
    w = 2.0 / (1.0 + t * t)
    return w - 1.0, t * w


def _reference_chunk_sums(spec, q, p, steps, phase_factor):
    """The phase record with the map step written out apart from the program.

    The map kicks with np.sin; the action cos and the record's cos and sin
    follow the half-angle identity.
    """
    c = spec.kick_coefficient(False)
    cos_sum = np.zeros_like(q)
    out = np.empty((4, steps + 1))
    for t in range(steps + 1):
        if t > 0:
            cos_sum = cos_sum + _cos_sin_ref(2 * np.pi * q)[0]
            q, p = step_ref(c, q, p)
        re, im = _cos_sin_ref(phase_factor * cos_sum)
        out[:, t] = re.sum(), im.sum(), (re * re).sum(), (im * im).sum()
    return out


def test_chunk_sums_match_checked_loop_bitwise(monkeypatch):
    rng = np.random.default_rng(8)
    n = 500
    # points of a sample set: finite and in [0, 1)
    q, p = rng.random(n), rng.random(n)
    calls = []

    def counted(half, cos, sin=True):
        calls.append((half.size, sin))
        _half_angle(half, cos, sin)

    monkeypatch.setattr(dephasing, "_half_angle", counted)
    # blocks of one step, of three (17 steps end in a ragged block of two) and of all steps
    for block in (1, 3, 17):
        monkeypatch.setattr(dephasing, "HISTORY", block * n)
        for spec in (CHAOTIC, MIXED.with_epsilon(-0.03)):
            factor = spec.epsilon * spec.dim_n / (2 * np.pi)
            for steps in (0, 1, 2, 17):
                calls.clear()
                got = _chunk_sums(spec, q, p, steps, factor)
                # the action (its cos alone) and the record once a block; the t = 0
                # record is written
                blocks = -(-steps // block)
                assert [sin for _, sin in calls] == [False, True] * blocks
                assert max((size for size, _ in calls), default=0) == n * min(block, steps)
                want = _reference_chunk_sums(spec, q, p, steps, factor)
                assert got.shape == (4, steps + 1) and np.array_equal(got, want)
                # grid sets skip the stderr square sums, leaving them zero
                got = _chunk_sums(spec, q, p, steps, factor, squares=False)
                assert np.array_equal(got[:2], want[:2]) and not got[2:].any()


def _half_angle_of(x):
    """`_half_angle` on a copy of the angles x: (cos x, sin x)."""
    half = np.array(x, dtype=np.float64) / 2
    cos = np.empty_like(half)
    _half_angle(half, cos)
    return cos, half


def test_half_angle_cos_sin_track_libm():
    rng = np.random.default_rng(12)
    special = np.array([0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi])
    phases = np.concatenate([
        special,
        rng.uniform(-10, 10, 2000),
        rng.uniform(-1e8, 1e8, 2000),
        np.geomspace(1e-12, 1e8, 200),
        -np.geomspace(1e-12, 1e8, 200),
    ])
    # the action's angles 2 pi q, at q = 0, 0.5 and the last float below 1
    angles = 2 * np.pi * np.array([0.0, 0.5, np.nextafter(1.0, 0.0), *rng.random(2000)])
    for x in (phases, angles):
        cos, sin = _half_angle_of(x)
        assert np.abs(cos - np.cos(x)).max() <= 4e-16
        # without sin the cos is the same, bitwise
        half, cos_alone = np.array(x, dtype=np.float64) / 2, np.empty_like(cos)
        _half_angle(half, cos_alone, sin=False)
        assert cos_alone.tobytes() == cos.tobytes()
        assert np.abs(sin - np.sin(x)).max() <= 4e-16
        assert np.abs(cos * cos + sin * sin - 1.0).max() <= 1e-15
        # -x gives the exact conjugate: cos the same, sin negated, bitwise
        cos_neg, sin_neg = _half_angle_of(-x)
        assert np.array_equal(cos_neg, cos) and np.array_equal(sin_neg, -sin)
    cos, sin = _half_angle_of([0.0, -0.0])
    assert np.all(cos == 1.0) and np.all(sin == 0.0)


def test_dr_orbits_are_the_written_out_sin_map(monkeypatch):
    # the record takes its cos from tan; the map must keep np.sin bit for bit
    seen = []
    first, kernel = dephasing.step_ensemble, dephasing._step_in_place

    def checked(spec, q, p, perturbed=False):
        q, p = first(spec, q, p, perturbed)
        seen.append((q.copy(), p.copy()))
        return q, p

    def unchecked(c, q, p, arg, tmp):
        kernel(c, q, p, arg, tmp)
        seen.append((q.copy(), p.copy()))

    monkeypatch.setattr(dephasing, "step_ensemble", checked)
    monkeypatch.setattr(dephasing, "_step_in_place", unchecked)
    s = samples_position_state(CHAOTIC, 0.4, count=600, mode="monte_carlo", seed=5)
    dr_curve(CHAOTIC, s, 30)
    assert len(seen) == 30
    q, p = s.q, s.p
    for got_q, got_p in seen:
        q, p = step_ref(CHAOTIC.kick_coefficient(False), q, p)
        assert np.array_equal(got_q.ravel(), q) and np.array_equal(got_p.ravel(), p)


def test_stacked_chunk_sums_equal_one_row_calls_bitwise():
    rng = np.random.default_rng(9)
    q, p = rng.random((3, 700)), rng.random((3, 700))
    for spec in (CHAOTIC, MIXED.with_epsilon(-0.03)):
        factor = spec.epsilon * spec.dim_n / (2 * np.pi)
        for steps in (0, 1, 2, 17):
            for squares in (True, False):
                # the one-row references at the default budget: one block of all steps
                ones = [_chunk_sums(spec, q[row], p[row], steps, factor, squares)
                        for row in range(len(q))]
                # stacks in blocks of one step, of three (17 end ragged) and of all steps
                for block in (1, 3, 17):
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(dephasing, "HISTORY", block * q.size)
                        stacked = _chunk_sums(spec, q, p, steps, factor, squares)
                    for row, one in enumerate(ones):
                        for got, want in zip(stacked, one):
                            assert got.shape == (len(q), steps + 1)
                            assert np.array_equal(got[row], want)


def _per_chunk_curve(spec, samples, steps):
    """dr_curve's amplitude and stderrs from one 1-D `_chunk_sums` call per chunk."""
    n = len(samples)
    factor = spec.epsilon * spec.dim_n / (2 * np.pi)
    total = np.zeros((4, steps + 1))
    for lo in range(0, n, CHUNK):
        total += _chunk_sums(spec, samples.q[lo:lo + CHUNK], samples.p[lo:lo + CHUNK],
                             steps, factor)
    re, im, r2, i2 = total
    amp = re / n + 1j * (im / n)  # each part divided alone
    stderr_re = np.sqrt(np.maximum(r2 / n - amp.real**2, 0.0) / n)
    stderr_im = np.sqrt(np.maximum(i2 / n - amp.imag**2, 0.0) / n)
    return amp, stderr_re, stderr_im


@pytest.mark.parametrize(
    "count",
    [1, CHUNK - 1, CHUNK, CHUNK + 1, STACK * CHUNK - 1, STACK * CHUNK + 1,
     2 * STACK * CHUNK + 77],
)
def test_stacked_jobs_match_a_per_chunk_loop_bitwise(count, monkeypatch):
    # many usable CPUs, so the requested workers start on any machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    s = samples_position_state(CHAOTIC, 0.4, count=count, mode="monte_carlo", seed=21)
    want = _per_chunk_curve(CHAOTIC, s, 6)
    for threads in (1, 2, 3, 8):
        curve = dr_curve(CHAOTIC, s, 6, threads=threads)
        for got, ref in zip((curve.amplitude, curve.stderr_re, curve.stderr_im), want):
            assert np.array_equal(got, ref)


@pytest.mark.parametrize(
    "count, threads, cpus, workers, n_jobs",
    [
        (CHUNK, 8, 2, 1, 1),  # one chunk: no pool
        (CHUNK + 1, 8, 2, 2, 2),
        (2 * CHUNK + 1808, 2, 2, 2, 2),  # the golden monte-carlo run: 3 chunks, 2 threads
        (2 * CHUNK + 1808, 8, 64, 3, 3),
        (STACK * CHUNK, 2, 2, 2, 2),  # one stack would idle a CPU: two half stacks
        (3 * STACK * CHUNK + 5, 2, 2, 2, 4),
        (3 * STACK * CHUNK + 5, 8, 1, 1, 4),
    ],
)
def test_workers_follow_the_jobs(count, threads, cpus, workers, n_jobs, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    jobs, started = [], []

    def counted_sums(spec, q, p, steps, phase_factor, squares=True):
        jobs.append(q.shape)
        return np.zeros((4,) + q.shape[:-1] + (steps + 1,))

    class CountedPool(dephasing.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(dephasing, "_chunk_sums", counted_sums)
    monkeypatch.setattr(dephasing, "ThreadPoolExecutor", CountedPool)
    s = SampleSet(np.zeros(count), np.zeros(count), np.full(count, 1.0 / count),
                  "monte_carlo", "flat", seed=0)
    dr_curve(CHAOTIC, s, 2, threads=threads)
    assert started == ([workers] if workers > 1 else [])
    assert len(jobs) == n_jobs
    # stacks of at most STACK whole chunks; a ragged tail is a one-row job
    assert all(rows <= STACK and (width == CHUNK or rows == 1) for rows, width in jobs)
    assert sum(width != CHUNK for _, width in jobs) == (count % CHUNK > 0)
    assert sum(rows * width for rows, width in jobs) == count


def test_dr_holds_at_most_two_parts_at_one_thread(monkeypatch):
    """Each job's sums are added as they arrive: only the part in hand and the next are alive."""
    n_jobs = 32
    count = n_jobs * STACK * CHUNK
    counts = {"jobs": 0, "alive": 0, "peak": 0}

    def released():
        counts["alive"] -= 1

    def counted_sums(spec, q, p, steps, phase_factor, squares=True):
        part = np.zeros((4,) + q.shape[:-1] + (steps + 1,))
        weakref.finalize(part, released)
        counts["jobs"] += 1
        counts["alive"] += 1
        counts["peak"] = max(counts["peak"], counts["alive"])
        return part

    monkeypatch.setattr(dephasing, "_chunk_sums", counted_sums)
    s = SampleSet(np.zeros(count), np.zeros(count), np.full(count, 1.0 / count),
                  "monte_carlo", "flat", seed=0)
    dr_curve(CHAOTIC, s, 2, threads=1)
    assert counts["jobs"] == n_jobs
    assert counts["peak"] <= 2 and counts["alive"] == 0, counts


@pytest.mark.parametrize("column", ["q", "p"])
@pytest.mark.parametrize("bad", [np.inf, np.nan, -0.1, 1.0])
def test_sample_set_refuses_points_off_the_torus(column, bad):
    # the set is dr's one checked entry: its jobs step the unchecked kernel from t = 1
    columns = {"q": np.array([0.2, 0.4]), "p": np.array([0.1, 0.3])}
    columns[column][1] = bad
    with pytest.raises(InvalidInputError, match=f"sample set {column}"):
        SampleSet(columns["q"], columns["p"], np.array([0.5, 0.5]), "monte_carlo", "bad", seed=0)


def test_worker_count_is_clamped(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert _worker_count(10_000, 2442) == 3  # the 10M-sample cap at any threads
    assert _worker_count(2, 2442) == 2
    assert _worker_count(8, 2) == 2
    assert _worker_count(8, 1) == 1
    assert _worker_count(1, 2442) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _worker_count(8, 100) == 1


def test_worker_count_without_cpu_affinity(monkeypatch):
    # platforms without sched_getaffinity (macOS, Windows): os.cpu_count decides
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    s = samples_position_state(CHAOTIC, 0.4, count=3 * CHUNK + 5, mode="monte_carlo", seed=21)
    want = _per_chunk_curve(CHAOTIC, s, 6)
    for cpus in (3, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        for threads, chunks in ((10_000, 2442), (2, 2442), (8, 2), (8, 1), (1, 2442)):
            assert _worker_count(threads, chunks) == min(threads, chunks, cpus or 1)
        curve = dr_curve(CHAOTIC, s, 6, threads=3)
        for got, ref in zip((curve.amplitude, curve.stderr_re, curve.stderr_im), want):
            assert np.array_equal(got, ref)


def test_dr_curve_rejects_phases_that_overflow_over_the_run():
    spec = MapSpec(0.8, 1e305, 1000)  # finite per step, not over 50 steps
    s = samples_position_state(spec, 0.4)
    with pytest.raises(InvalidInputError, match="phase factor"):
        dr_curve(spec, s, 50)
    assert np.all(np.isfinite(dr_curve(spec, s, 1).amplitude))


def test_chunking_invisible_at_boundary():
    # CHUNK+1 samples forces a second chunk; result must match the
    # order-preserving single pass
    n = CHUNK + 1
    s = samples_position_state(CHAOTIC, 0.4, count=n, mode="monte_carlo", seed=13)
    curve = dr_curve(CHAOTIC, s, 5)
    rec_amp = np.zeros(6, dtype=np.complex128)
    q = s.q.copy()
    p = s.p.copy()
    cos_sum = np.zeros(n)
    factor = CHAOTIC.epsilon * CHAOTIC.dim_n / (2 * np.pi)
    for t in range(6):
        if t > 0:
            cos_sum += np.cos(2 * np.pi * q)
            q, p = step_ensemble(CHAOTIC, q, p)
        rec_amp[t] = np.exp(1j * factor * cos_sum).mean()
    assert np.abs(curve.amplitude - rec_amp).max() < 1e-14


def test_zero_steps_curve():
    curve = dr_curve(MIXED, samples_position_state(MIXED, 0.25), 0)
    assert curve.steps == 0
    assert curve.fidelity[0] == 1.0


def test_input_validation():
    s = samples_position_state(MIXED, 0.25)
    with pytest.raises(InvalidInputError):
        dr_curve(MIXED, s, -1)
    with pytest.raises(InvalidInputError):
        dr_curve(MIXED, s, 10, threads=0)


def test_conjugation_check_flags_sign_flip():
    s = samples_position_state(MIXED, 0.25)
    plus = dr_curve(MIXED, s, 20)
    minus = dr_curve(MIXED.with_epsilon(-MIXED.epsilon), s, 20)
    assert dr_conjugation_check(plus, minus) is True
    # same sign twice: comparable metadata but not conjugate
    assert dr_conjugation_check(plus, plus) is False


def test_conjugation_check_rejects_mismatched_curves():
    s = samples_position_state(MIXED, 0.25)
    curve = dr_curve(MIXED, s, 20)
    shorter = dr_curve(MIXED, s, 10)
    with pytest.raises(InvalidInputError):
        dr_conjugation_check(curve, shorter)
    other_k = MapSpec(1.1, 5e-3, 64)
    with pytest.raises(InvalidInputError):
        dr_conjugation_check(curve, dr_curve(other_k, samples_position_state(other_k, 0.25), 20))


def test_fidelity_curve_shape_validation():
    amp = np.ones(5, dtype=np.complex128)
    with pytest.raises(InvalidInputError):
        FidelityCurve(amp, np.zeros(4), np.zeros(5), "dr", MIXED, "x", 1)
    with pytest.raises(InvalidInputError):
        FidelityCurve(np.ones((2, 2)), np.zeros(4), np.zeros(4), "dr", MIXED, "x", 1)


@st.composite
def _dr_cases(draw):
    """(spec, samples, steps): k, epsilon, N, a position or a Gaussian state, grid or MC."""
    spec = MapSpec(draw(st.floats(0.0, 12.0)), draw(st.floats(-0.05, 0.05)),
                   draw(st.integers(2, 2048)))
    # one to seven chunks, drawn as chunks so that multi-job splits are common
    count = draw(st.integers(0, 6)) * CHUNK + draw(st.integers(1, CHUNK))
    seed = draw(st.integers(0, 2**32))
    sigma = draw(st.one_of(st.none(), st.floats(0.03, 0.15)))
    where = draw(st.floats(0.0, 1.0, exclude_max=True))
    if sigma is None:
        q0 = int(where * spec.dim_n) / spec.dim_n
        if draw(st.booleans()):
            samples = samples_position_state(spec, q0)
        else:
            samples = samples_position_state(spec, q0, count=count, mode="monte_carlo",
                                             seed=seed)
    else:
        samples = samples_gaussian(spec, where, 0.3, sigma, count, seed=seed)
    return spec, samples, draw(st.integers(0, 20))


def _bits(curve):
    return [a.view(np.uint64) for a in (curve.amplitude, curve.stderr_re, curve.stderr_im)]


@settings(deadline=None, max_examples=25)
@given(case=_dr_cases())
def test_dr_is_exactly_one_at_zero_epsilon(case):
    spec, samples, steps = case
    curve = dr_curve(spec.with_epsilon(0.0), samples, steps)
    assert np.all(curve.amplitude == 1.0) and np.all(curve.fidelity == 1.0)


@settings(deadline=None, max_examples=25)
@given(case=_dr_cases())
def test_dr_at_minus_epsilon_is_the_conjugate_bitwise(case):
    spec, samples, steps = case
    plus = dr_curve(spec, samples, steps)
    minus = dr_curve(spec.with_epsilon(-spec.epsilon), samples, steps)
    assert np.array_equal(minus.amplitude.real, plus.amplitude.real)
    assert np.array_equal(minus.amplitude.imag, -plus.amplitude.imag)
    assert np.array_equal(minus.stderr_re, plus.stderr_re)
    assert np.array_equal(minus.stderr_im, plus.stderr_im)


@settings(deadline=None, max_examples=25)
@given(case=_dr_cases())
def test_dr_bits_do_not_depend_on_threads(case):
    spec, samples, steps = case
    with pytest.MonkeyPatch.context() as mp:
        # many usable CPUs, so the requested workers start on any machine
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        base = _bits(dr_curve(spec, samples, steps, threads=1))
        for threads in (2, 3):
            for got, want in zip(_bits(dr_curve(spec, samples, steps, threads=threads)), base):
                assert np.array_equal(got, want)
        # nor on the block length: the action and the record one step at a time
        mp.setattr(dephasing, "HISTORY", 1)
        for got, want in zip(_bits(dr_curve(spec, samples, steps)), base):
            assert np.array_equal(got, want)
