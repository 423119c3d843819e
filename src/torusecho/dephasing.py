"""Semiclassical fidelity decay from dephasing over unperturbed orbits.

The estimator propagates phase-space samples with the *unperturbed*
classical map, accumulates the action difference picked up from the
kick-potential perturbation along each orbit, and averages the resulting
pure phases with the sample set's uniform weights 1/n:

    amp(t) = (1/n) sum_j exp(i * dS_j(t) / hbar),    M(t) = |amp(t)|^2

No stability prefactors enter; all decay comes from phase cancellation
across the ensemble.

Determinism contract: samples are processed in fixed chunks of CHUNK
consecutive indices and the per-chunk partial sums are combined in index
order, so results are bitwise identical for any thread count.

Work budget: HISTORY, the number of values one numpy call covers, is the
route's one budget. A job steps up to HISTORY // CHUNK whole chunks (at
least one) as one (B, CHUNK) stack, summing each row alone (the ragged
tail is a one-row job), with the bits of one chunk a job; no more threads
start than there are jobs or usable CPUs. Each job's sums are added into
one accumulator as they arrive, in index order, so only the jobs in flight
hold theirs. A job of S samples runs its action and phase record once per
block of HISTORY // S steps, at least one.

A `SampleSet` holds finite points of [0, 1) (`dynamics.unit_problem`), so
each job copies its slice and runs the unchecked in-place kernel of
`dynamics` from its first step. The kernel's 2 pi q of the old positions
is reused for the action cos, so each step computes it once.

Blocks of steps: only the map is sequential. The loop over t runs the
kernel alone and keeps each step's 2 pi q as a row of a block history; the
action cos, the running action sum and the phase record then run once per
block of steps: each elementwise op and each set of row sums as one numpy
call over the block, the action sum as one np.add a step, carried from
block to block. On grids of about 10^3 samples numpy's per-call overhead,
not arithmetic, ruled the step. These are the float operations of a
step-by-step loop in the same order, so no output bit depends on the block
length. At t = 0 every z_j is exactly 1, so that record is written, not
computed.

Half-angle record: the action's cos(2 pi q) and the record's cos and sin
of the phase come from one tan of the half angle each (`_half_angle`).
Where the CPU has AVX-512, numpy runs float64 tan on a SIMD path about ten
times faster than its scalar-libm sin and cos; elsewhere tan is one libm
call where the record made two. The power-of-two halving is exact. The map
kicks with np.sin: at k = 10 one ulp on an orbit grows to O(1) within 25
steps, so only the libm sin keeps the orbits, and every shadowing result,
bitwise those of the written-out map.
"""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    TWO_PI,
    MapSpec,
    _step_in_place,
    count_problem,
    kick_problem,
    phase_scale_problem,
    step_ensemble,  # noqa: F401  (not called here; torusbench traces it under this name)
    steps_problem,
)
from .errors import InvalidInputError, raise_problem
from .initial_states import SampleSet

# fixed work unit; combining per-chunk sums in index order keeps the
# floating-point reduction identical for every thread count
CHUNK = 4096
# the work budget: values one numpy call covers (see the module docstring)
HISTORY = 2**15

_CONJUGATION_TOL = 1e-15


@dataclass(frozen=True)
class FidelityCurve:
    """Fidelity amplitude and M(t) = |amp|^2 on steps t = 0..steps.

    stderr_re / stderr_im are per-component standard errors of the complex
    amplitude estimate; they are zero for exact-quadrature ("grid") sample
    sets and for exact quantum curves.
    """

    amplitude: np.ndarray
    stderr_re: np.ndarray
    stderr_im: np.ndarray
    method: str
    spec: MapSpec
    state_label: str
    sample_count: int
    seed: int | None = None
    fidelity: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        amp = np.asarray(self.amplitude, dtype=np.complex128)
        if amp.ndim != 1 or amp.size == 0:
            raise InvalidInputError("amplitude must be a nonempty 1-d array")
        for name in ("stderr_re", "stderr_im"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != amp.shape:
                raise InvalidInputError(f"{name} must match amplitude shape")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "amplitude", amp)
        # re^2 + im^2 rather than abs()**2: exact 1.0 for amp == 1+0j
        object.__setattr__(self, "fidelity", amp.real**2 + amp.imag**2)

    @property
    def steps(self) -> int:
        return len(self.amplitude) - 1


def _half_angle(half, cos, sin=True):
    """cos x into `cos` and sin x into `half`, which holds x/2 on entry.

    With t = tan(x/2) and w = 2/(1 + t^2): cos x = w - 1, sin x = t w, each
    within a few 1e-16 of np.cos and np.sin. tan is odd, so -x gives the
    same cos and the negated sin bitwise, and x = 0 gives exactly (1, 0).
    Both arrays are caller-owned float64 buffers of one shape. Without sin,
    half is left holding t: the action record reads only the cos.
    """
    np.tan(half, out=half)
    np.multiply(half, half, out=cos)
    np.add(cos, 1.0, out=cos)
    np.divide(2.0, cos, out=cos)
    if sin:
        np.multiply(half, cos, out=half)
    np.subtract(cos, 1.0, out=cos)


def _chunk_sums(spec, q, p, steps, phase_factor, squares=True):
    """Raw partial sums over each chunk of a (..., m) stack of samples.

    Returns one (4, ..., steps + 1) array: the sums of Re z_j(t), Im z_j(t),
    (Re z_j)^2 and (Im z_j)^2 over the last axis, so each row's sums are
    bitwise a 1-D call's. They are unweighted (the epsilon = 0 sum of ones
    stays integral). Without squares the last two are left zero: only a
    Monte Carlo stderr reads them.

    q and p are finite and in [0, 1); copies of them are stepped in place.
    The map steps alone; the action and the record run once per block of
    steps (see "Blocks of steps" in the module docstring).
    """
    q, p = np.array(q), np.array(p)
    size, width = q.size, q.shape[-1]
    chunks = size // width
    block = max(1, min(steps, HISTORY // size))
    # each step's 2 pi q of the old positions, then half angles, then the record's sin
    angle = np.empty((block,) + q.shape)
    # the action cos and its running sums, then the record's cos; between
    # blocks, its first row is the kernel's scratch
    cos = np.empty_like(angle)
    cos_sum = np.zeros(q.shape)  # the running action sum, carried from block to block
    # one (block * chunks, m) view of each: the elementwise ops and the row sums of a block
    angle_rows, cos_rows = angle.reshape(-1, width), cos.reshape(-1, width)
    sums = np.zeros((4, (steps + 1) * chunks))  # Re, Im, Re^2, Im^2 sums; time-major
    # t = 0: every z_j is exactly 1
    sums[0, :chunks] = width
    if squares:
        sums[2, :chunks] = width
    half_factor = phase_factor / 2  # exact, a power-of-two scaling, unless subnormal
    c = spec.kick_coefficient(False)
    for t0 in range(1, steps + 1, block):
        n = min(block, steps + 1 - t0)
        for i in range(n):
            _step_in_place(c, q, p, angle[i], cos[0])
        half, re = angle_rows[:n * chunks], cos_rows[:n * chunks]
        np.multiply(half, 0.5, out=half)  # the half angle pi q of the action cos
        _half_angle(half, re, sin=False)
        # the running sum, one row a step in step order, on from the carried sum
        np.add(cos_sum, cos[0], out=cos[0])
        for r in range(1, n):
            np.add(cos[r - 1], cos[r], out=cos[r])
        cos_sum[...] = cos[n - 1]
        # the record's cos and sin of the phases at t0..t0 + n - 1
        np.multiply(re, half_factor, out=half)
        _half_angle(half, re)
        out = slice(t0 * chunks, (t0 + n) * chunks)
        sums[0, out] = re.sum(axis=-1)
        sums[1, out] = half.sum(axis=-1)
        if squares:  # (x*x).sum() keeps numpy's pairwise order; a BLAS dot would not
            sums[2, out] = np.multiply(re, re, out=re).sum(axis=-1)
            sums[3, out] = np.multiply(half, half, out=half).sum(axis=-1)
    return np.moveaxis(sums.reshape((4, steps + 1) + q.shape[:-1]), 1, -1)


def _worker_count(threads, chunks):
    """Threads worth starting: no more than the chunks or the usable CPUs."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(threads, chunks, cpus))


def dr_curve(
    spec: MapSpec, samples: SampleSet, steps: int, threads: int = 1
) -> FidelityCurve:
    """Dephasing estimate of the fidelity curve on t = 0..steps.

    Parameters
    ----------
    spec : MapSpec
        Map parameters; spec.epsilon is the perturbation strength whose
        accumulated action difference drives the dephasing.
    samples : SampleSet
        Phase-space samples of the initial state, each of weight 1/n.
    steps : int
        Number of map iterations (curve has steps + 1 entries); more
        than 10^6 is refused with CapacityError.
    threads : int
        Worker threads for chunk evaluation, clamped to the job count
        and the usable CPUs. Any value >= 1 produces bitwise-identical
        output.

    Notes
    -----
    The phase at step t is dS(t)/hbar with
    dS(t) = (epsilon / (4 pi^2)) * sum_{m<t} cos(2 pi q_m) along the
    unperturbed orbit, i.e. phase = (epsilon N / (2 pi)) * sum cos.
    """
    raise_problem(steps_problem(steps))
    raise_problem(count_problem("threads", threads, 1))
    raise_problem(phase_scale_problem(spec.k, spec.epsilon, spec.dim_n, int(steps)))
    raise_problem(kick_problem(spec.k))
    n = len(samples)
    # dS/hbar with hbar = 1/(2 pi N); zero epsilon gives exactly zero phase;
    # |action sum| <= steps, so the check above keeps every phase finite
    phase_factor = spec.epsilon * spec.dim_n / TWO_PI

    q = np.asarray(samples.q, dtype=np.float64)
    p = np.asarray(samples.p, dtype=np.float64)
    monte_carlo = samples.kind == "monte_carlo"
    chunks, whole = -(-n // CHUNK), n - n % CHUNK
    workers = _worker_count(int(threads), chunks)
    # up to HISTORY // CHUNK whole chunks a job (at least one), fewer where
    # that would idle a worker; the ragged tail is a job of its own
    size = min(max(1, HISTORY // CHUNK), -(-chunks // workers)) * CHUNK
    bounds = [(lo, min(lo + size, whole)) for lo in range(0, whole, size)]
    bounds += [(whole, n)] * (whole < n)

    def job(bound):
        lo, hi = bound
        width = min(CHUNK, hi - lo)
        return _chunk_sums(spec, q[lo:hi].reshape(-1, width), p[lo:hi].reshape(-1, width),
                           steps, phase_factor, monte_carlo)

    n_t = steps + 1
    total = np.zeros((4, n_t))
    workers = min(workers, len(bounds))
    with ThreadPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        # each part is added as it arrives, in index order, not completion
        for part in pool.map(job, bounds) if pool else map(job, bounds):
            for chunk in np.moveaxis(part, 1, 0):  # one chunk a row, in index order
                total += chunk

    # the real and imaginary sums divided apart: complex / n multiplies by a
    # rounded 1/n, so an epsilon = 0 sum of n ones would not give exactly 1
    # (n = 161, say)
    mean = total[:2] / n
    amp = np.empty(n_t, dtype=np.complex128)
    amp.real, amp.imag = mean
    if monte_carlo:
        stderr_re, stderr_im = np.sqrt(np.maximum(total[2:] / n - mean**2, 0.0) / n)
    else:
        stderr_re, stderr_im = np.zeros(n_t), np.zeros(n_t)

    return FidelityCurve(
        amplitude=amp,
        stderr_re=stderr_re,
        stderr_im=stderr_im,
        method="dr",
        spec=spec,
        state_label=samples.state_label,
        sample_count=n,
        seed=samples.seed,
    )


def dr_conjugation_check(curve_a: FidelityCurve, curve_b: FidelityCurve) -> bool:
    """True when curve_b is the complex conjugate of curve_a.

    Flipping the sign of the perturbation strength negates every
    accumulated phase, so dr curves built from the same samples at +eps
    and -eps must be conjugates of each other. Curves must agree on all
    metadata except the perturbation strength; a mismatch elsewhere
    (different map, state, sample count, seed, or length) is an error
    rather than False.
    """
    for a, b, what in (
        (curve_a.method, curve_b.method, "method"),
        (curve_a.spec.k, curve_b.spec.k, "kick strength"),
        (curve_a.spec.dim_n, curve_b.spec.dim_n, "grid size"),
        (curve_a.state_label, curve_b.state_label, "state"),
        (curve_a.sample_count, curve_b.sample_count, "sample count"),
        (curve_a.seed, curve_b.seed, "seed"),
        (len(curve_a.amplitude), len(curve_b.amplitude), "length"),
    ):
        if a != b:
            raise InvalidInputError(f"curves are not comparable: {what} differs ({a!r} vs {b!r})")
    if curve_a.method != "dr":
        raise InvalidInputError(f"conjugation check applies to dr curves, got {curve_a.method!r}")
    dev = np.abs(curve_b.amplitude - np.conj(curve_a.amplitude)).max()
    return bool(dev <= _CONJUGATION_TOL)
