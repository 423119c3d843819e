"""Dephasing-representation estimator: exactness limits, errors, threading."""

import os

import numpy as np
import pytest

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
from torusecho import dephasing
from torusecho.dephasing import BLOCK, _chunk_sums, _worker_count

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
        p = (p - c * np.sin(2 * np.pi * q)) % 1.0
        q = (q + p) % 1.0


def test_curve_metadata_and_properties():
    s = samples_position_state(MIXED, 0.25)
    curve = dr_curve(MIXED, s, 10)
    assert curve.method == "dr"
    assert curve.steps == 10
    assert curve.sample_count == 64
    assert curve.state_label == s.state_label
    assert np.array_equal(curve.fidelity, curve.amplitude.real**2 + curve.amplitude.imag**2)
    assert np.all(curve.stderr_re == 0.0)  # grid sets carry no statistical error
    assert np.all(curve.fidelity_stderr == 0.0)


def test_monte_carlo_reports_positive_stderr():
    s = samples_position_state(CHAOTIC, 0.4, count=3000, mode="monte_carlo", seed=4)
    curve = dr_curve(CHAOTIC, s, 15)
    assert curve.stderr_re[0] == 0.0  # all phases are 1 at t = 0
    assert np.all(curve.stderr_re[2:] > 0.0)
    assert np.all(curve.fidelity_stderr[2:] > 0.0)


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


def _wrap_ref(x):
    y = x - np.floor(x)
    return np.where(y >= 1.0, y - 1.0, y)


def _reference_chunk_sums(spec, q, p, steps, phase_factor):
    """The phase record with the map step written out apart from the program."""
    c = spec.kick_coefficient(False)
    cos_sum = np.zeros_like(q)
    out = np.empty((4, steps + 1))
    for t in range(steps + 1):
        if t > 0:
            cos_sum = cos_sum + np.cos(2 * np.pi * q)
            q = _wrap_ref(q)
            p = _wrap_ref(_wrap_ref(p) - c * np.sin(2 * np.pi * q))
            q = _wrap_ref(q + p)
        phase = phase_factor * cos_sum
        re, im = np.cos(phase), np.sin(phase)
        out[:, t] = re.sum(), im.sum(), (re * re).sum(), (im * im).sum()
    return out[0] + 1j * out[1], out[2], out[3]


def test_chunk_sums_match_checked_loop_bitwise():
    rng = np.random.default_rng(8)
    n = 500
    # raw coordinates off the torus: the chunk's checked first step wraps them
    q = 3.0 * rng.random(n) - 1.0
    p = 5.0 * rng.random(n) - 2.0
    for spec in (CHAOTIC, MIXED.with_epsilon(-0.03)):
        factor = spec.epsilon * spec.dim_n / (2 * np.pi)
        for steps in (0, 1, 2, 17):
            got = _chunk_sums(spec, q, p, steps, factor)
            want = _reference_chunk_sums(spec, q, p, steps, factor)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            # grid sets skip the stderr square sums, leaving them zero
            s, r2, i2 = _chunk_sums(spec, q, p, steps, factor, squares=False)
            assert np.array_equal(s, want[0]) and not r2.any() and not i2.any()


def test_stacked_chunk_sums_equal_one_row_calls_bitwise():
    rng = np.random.default_rng(9)
    q = 3.0 * rng.random((3, 700)) - 1.0
    p = 5.0 * rng.random((3, 700)) - 2.0
    for spec in (CHAOTIC, MIXED.with_epsilon(-0.03)):
        factor = spec.epsilon * spec.dim_n / (2 * np.pi)
        for steps in (0, 1, 2, 17):
            for squares in (True, False):
                stacked = _chunk_sums(spec, q, p, steps, factor, squares)
                for row in range(len(q)):
                    one = _chunk_sums(spec, q[row], p[row], steps, factor, squares)
                    for got, want in zip(stacked, one):
                        assert got.shape == (len(q), steps + 1)
                        assert np.array_equal(got[row], want)


def _per_chunk_curve(spec, samples, steps):
    """dr_curve's amplitude and stderrs from one 1-D `_chunk_sums` call per chunk."""
    n = len(samples)
    factor = spec.epsilon * spec.dim_n / (2 * np.pi)
    s_tot = np.zeros(steps + 1, dtype=np.complex128)
    r2_tot = np.zeros(steps + 1)
    i2_tot = np.zeros(steps + 1)
    for lo in range(0, n, CHUNK):
        s, r2, i2 = _chunk_sums(spec, samples.q[lo:lo + CHUNK], samples.p[lo:lo + CHUNK],
                                steps, factor)
        s_tot += s
        r2_tot += r2
        i2_tot += i2
    amp = s_tot / n
    stderr_re = np.sqrt(np.maximum(r2_tot / n - amp.real**2, 0.0) / n)
    stderr_im = np.sqrt(np.maximum(i2_tot / n - amp.imag**2, 0.0) / n)
    return amp, stderr_re, stderr_im


@pytest.mark.parametrize(
    "count",
    [1, CHUNK - 1, CHUNK, CHUNK + 1, BLOCK * CHUNK - 1, BLOCK * CHUNK + 1,
     2 * BLOCK * CHUNK + 77],
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
        (BLOCK * CHUNK, 2, 2, 2, 2),  # one stack would idle a CPU: two half stacks
        (3 * BLOCK * CHUNK + 5, 2, 2, 2, 4),
        (3 * BLOCK * CHUNK + 5, 8, 1, 1, 4),
    ],
)
def test_workers_follow_the_jobs(count, threads, cpus, workers, n_jobs, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    jobs, started = [], []

    def counted_sums(spec, q, p, steps, phase_factor, squares=True):
        jobs.append(q.shape)
        rows = np.zeros(q.shape[:-1] + (steps + 1,))
        return rows + 0j, rows, rows

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
    # stacks of at most BLOCK whole chunks; a ragged tail is a one-row job
    assert all(rows <= BLOCK and (width == CHUNK or rows == 1) for rows, width in jobs)
    assert sum(width != CHUNK for _, width in jobs) == (count % CHUNK > 0)
    assert sum(rows * width for rows, width in jobs) == count


def test_chunk_rejects_nonfinite_sample_at_first_step():
    s = SampleSet(
        np.array([0.2, np.inf]), np.array([0.1, 0.3]), np.array([0.5, 0.5]),
        "monte_carlo", "bad", seed=0,
    )
    # the first step's action cos meets the inf before the check, as before
    with np.errstate(invalid="ignore"), pytest.raises(InvalidInputError):
        dr_curve(MIXED, s, 3)
    assert dr_curve(MIXED, s, 0).steps == 0  # no step, nothing to check


def test_worker_count_is_clamped(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert _worker_count(10_000, 2442) == 3  # the 10M-sample cap at any threads
    assert _worker_count(2, 2442) == 2
    assert _worker_count(8, 2) == 2
    assert _worker_count(8, 1) == 1
    assert _worker_count(1, 2442) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _worker_count(8, 100) == 1


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
