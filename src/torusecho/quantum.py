"""Exact quantum fidelity on the quantized torus.

States live on an N-point position grid q_j = j/N with effective Planck
constant hbar = 1/(2 pi N) and periodic boundary conditions (zero Bloch
phases). One kicked-map step is the split unitary

    U = exp(-i p^2 / (2 hbar)) * exp(-i W(q) / hbar)

a position-space kick phase followed by the momentum-space drift
F^-1 diag(exp(-i pi m^2 / N)) F. The perturbed branch uses the kick
potential at strength k + epsilon.

For even N the drift factors as exp(-i pi/4) C F C with the chirp
C_j = exp(i pi j^2 / N) (the quadratic Gauss sum behind the discrete
Fresnel transform), so U^t = exp(-i pi t/4) C (F E)^t C^-1 with
E = C^2 * kick. An exact curve therefore steps phi = conj(C) psi with one
unitary FFT per step, phi <- F(E phi): C and the global phase are the
same on both branches and drop out of their overlap. For odd N
exp(-i pi m^2 / N) is not N-periodic, no such factorization exists, and
each step is the split pair: kick, FFT, drift, inverse FFT.

A route takes a state descriptor and builds its grid vector once, with
`build_state`; from there one in-place kernel steps both branches as one
(2, N) array, perturbed row first, and builds no state and takes no
norm. From N = 8192 up the two rows are stepped one call each instead,
on two threads whatever thread count the run was given; the path
depends on N alone, never on the machine's CPU count. The overlap of
the rows is a numpy pairwise sum, not a BLAS dot, so an exact curve's
bits depend neither on the thread count nor on the BLAS library's
threads.

Each FFT is pocketfft's `c2c` from scipy, called in place on one thread
(`_c2c`). The first exact step loads scipy's pocketfft extension module
alone, not the `scipy.fft` package; `import torusecho` loads no scipy.
numpy's FFT is a pocketfft too, and the bits are numpy's at every power
of 4 (65536 among them) and at N = 1000, 1001 and 256. Elsewhere they may
differ in the last bits: at 253 of the sizes from 2 to 1099, at
N = 2 * 4^m (128, 8192, 32768) and at sizes pocketfft takes by
Bluestein's algorithm (8193).

`dense_oracle` rebuilds the same unitary as an explicit matrix with its
own DFT construction and no shared phase helpers, so split-operator and
dense results are independent routes to the same curve. Its drift
F^-1 diag(drift) F is a circulant matrix, G[a, b] = g[(a - b) mod N], so
one column g (an explicit DFT matvec over the N roots of unity) gives all
of G in O(N^2), shared by both branches and kept for the process; a step
is psi <- G (kick psi).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import cache, lru_cache

import numpy as np

from ._extensions import scipy_extension
from .dephasing import FidelityCurve
from .dynamics import TWO_PI, MapSpec, count_problem, perturbation_problem, steps_problem
from .errors import CapacityError, InvalidInputError, raise_problem
from .initial_states import GaussianWavepacket, InitialState, PositionEigenstate, grid_index

# relative size below which periodized-Gaussian image terms are dropped
_IMAGE_TRUNCATION = 1e-16
# capacity ceiling on the grid of a state or an exact curve
_MAX_DIM = 65536
# dense propagation costs N^2 per step and one N^2 drift matrix, built in O(N^2)
_DENSE_MAX_DIM = 256
# from this grid size up, the two rows are stepped one call each, the bare
# row on a pool thread, instead of as one (2, N) call. Median ms per one-FFT
# step in a fresh process, (2, N) call / one call per row in turn / rows on
# two threads, on a 2-vCPU x86-64 VM with scipy 1.17's pocketfft: 0.058 /
# 0.079 / 0.082 at N = 4096, 0.24 / 0.15 / 0.12 at 8192, 0.58 / 0.31 / 0.25
# at 16384, 1.32 / 0.73 / 0.50 at 32768, 2.9 / 1.7 / 1.1 at 65536. The pool
# wins when its worker runs on the second vCPU; when the worker shares the
# caller's vCPU, the other one idle, it is about 10 % slower than the rows
# stepped in turn.
_THREAD_MIN_DIM = 8192
# the axis each FFT runs along: a row's points
_LAST_AXIS = (-1,)


def grid_problem(dim_n):
    """Why no state or exact curve is built on a grid of dim_n points, or None."""
    return count_problem("dim_n", dim_n, 2, _MAX_DIM)


def dense_problem(dim_n):
    """Why the dense oracle refuses a grid of dim_n points, or None."""
    if dim_n <= _DENSE_MAX_DIM:
        return None
    return CapacityError, f"dense method supports dim_n <= {_DENSE_MAX_DIM}, got {dim_n}"


@lru_cache(maxsize=4)
def _phase_factors(spec: MapSpec):
    """Read-only (rows, entry, drift) of one exact step; rows is (2, N), perturbed row first.

    Even N: rows are E = kick * C^2, entry is conj(C), which turns psi into
    phi once, and drift is None, so a step is phi <- F(E phi). Odd N: rows
    are the kicks, entry is None and drift the momentum phase of the split
    step. Either way a spec's cache entry holds 3N complex values, and the
    cache keeps the four most recent specs. Every quadratic phase is
    reduced in integers first (j^2 mod 2N for exp(i pi j^2 / N), mod N for
    exp(2 i pi j^2 / N)), so its argument stays below 2 pi. Each phase is built in place in the buffer it is kept in,
    so a build allocates little beyond the entry itself.
    """
    n = spec.dim_n
    j = np.arange(n)
    cos_q = np.cos(TWO_PI * j / n)
    # -W(q)/hbar with W(q) = -(c / 4 pi^2) cos(2 pi q) and hbar = 1/(2 pi N)
    rows = np.empty((2, n), dtype=np.complex128)
    for row, c in zip(rows, (spec.k + spec.epsilon, spec.k)):
        np.exp(np.multiply(1j * (c * n / TWO_PI), cos_q, out=row), out=row)
    del cos_q
    square = np.multiply(j, j, out=j)  # exact in int64 up to the grid cap
    quad = np.empty(n, dtype=np.complex128)
    if n % 2 == 0:  # E = kick * C^2, with C^2 built in quad's buffer first
        np.multiply(2j * np.pi, square % n, out=quad)
        rows *= np.exp(np.divide(quad, n, out=quad), out=quad)
    # conj(C) for even N; for odd N the drift, -p^2/(2 hbar) at p_m = m/N
    np.multiply(-1j * np.pi, square % (2 * n), out=quad)
    np.exp(np.divide(quad, n, out=quad), out=quad)
    entry, drift = (None, quad) if n % 2 else (quad, None)
    rows.setflags(write=False)
    quad.setflags(write=False)
    return rows, entry, drift


@cache
def _c2c():
    """pocketfft's complex FFT, loaded on the first exact step: `import torusecho` loads no scipy.

    Only scipy's pocketfft extension module is loaded (`scipy_extension`),
    not the `scipy.fft` package. The routine is the same object as the one
    `scipy.fft` calls, in either import order.
    """
    return scipy_extension("scipy.fft._pocketfft.pypocketfft").c2c


def _split_step(psi: np.ndarray, row: np.ndarray, drift: np.ndarray | None) -> None:
    """One exact step in place on an (N,) psi or, row by row, a (2, N) psi.

    With no drift (even N) the step is phi <- F(E phi); with one (odd N) it
    is the split pair: kick, FFT, drift, inverse FFT. Each FFT is one
    in-place `c2c` call on the last axis, scaled by 1/sqrt(N) (the unitary
    scale, inorm=1), on one thread.
    """
    c2c = _c2c()
    # row * psi, in this operand order: psi *= row moves the last bit
    np.multiply(row, psi, out=psi)
    c2c(psi, _LAST_AXIS, True, 1, psi, 1)
    if drift is not None:
        psi *= drift
        c2c(psi, _LAST_AXIS, False, 1, psi, 1)


def _overlap(psi: np.ndarray, buf: np.ndarray) -> complex:
    """<psi[0]|psi[1]> as one numpy pairwise sum through buf, with no BLAS call.

    A BLAS dot product splits its sum over however many threads the library
    starts, so its bits would depend on the machine; this sum does not.
    """
    np.conjugate(psi[0], out=buf)
    buf *= psi[1]
    return buf.sum()


def build_state(spec: MapSpec, state: InitialState) -> np.ndarray:
    """Normalized (N,) complex grid wavefunction of an initial-state descriptor.

    Position eigenstates require grid alignment. Gaussian wavepackets are
    periodized over torus images and normalized on the grid. Any other
    state, and a grid above 65536 points, is refused.
    """
    raise_problem(grid_problem(spec.dim_n))
    if isinstance(state, PositionEigenstate):
        vec = np.zeros(spec.dim_n, dtype=np.complex128)
        vec[grid_index(spec, state.q0)] = 1.0
        return vec
    if isinstance(state, GaussianWavepacket):
        n = spec.dim_n
        q = np.arange(n, dtype=np.float64) / n
        # exp(-d^2/(4 sigma^2)) < 1e-16  <=>  |d| > 2 sigma sqrt(-ln 1e-16)
        reach = 2.0 * state.sigma * np.sqrt(-np.log(_IMAGE_TRUNCATION))
        n_images = int(np.ceil(reach)) + 1
        vec = np.zeros(n, dtype=np.complex128)
        # a packet far narrower than the grid spacing underflows to 0 at every
        # point, or to 0/0 at its centre once sigma^2 does: refused below
        with np.errstate(all="ignore"):
            for img in range(-n_images, n_images + 1):
                d = q + img - state.q0
                vec += np.exp(-(d * d) / (4.0 * state.sigma**2)) * np.exp(
                    1j * state.p0 * d / spec.hbar
                )
            # a numpy pairwise sum: np.linalg.norm is a BLAS dot, whose bits
            # depend on the library's threads from about 10^4 points up
            norm = np.sqrt((vec.real**2 + vec.imag**2).sum())
        if not 0.0 < norm < np.inf:
            raise InvalidInputError(
                f"gaussian state has norm {norm} on the grid: sigma={state.sigma!r} is too "
                f"narrow for q0={state.q0!r} on dim_n={n} points"
            )
        vec /= norm
        return vec
    raise InvalidInputError(f"unknown initial state type {type(state).__name__}")


def step_quantum(spec: MapSpec, psi: np.ndarray, perturbed: bool = False) -> np.ndarray:
    """One exact step of one branch: a new (N,) vector U psi, psi left as it is.

    Even N: exp(-i pi/4) C F(E conj(C) psi), one FFT. Odd N: kick phase,
    FFT, drift phase, inverse FFT.
    """
    psi = np.array(psi, dtype=np.complex128)
    if psi.shape != (spec.dim_n,):
        raise InvalidInputError(f"state vector must have shape ({spec.dim_n},), got {psi.shape}")
    rows, entry, drift = _phase_factors(spec)
    if entry is not None:
        psi *= entry
    _split_step(psi, rows[0 if perturbed else 1], drift)
    if entry is not None:
        psi *= np.conj(entry) * np.exp(-0.25j * np.pi)
    return psi


def _grid_curve(amp, method, spec, label) -> FidelityCurve:
    """Curve of an exact route: zero stderr, the N grid points as its sample count."""
    zeros = np.zeros(len(amp))
    return FidelityCurve(amp, zeros, zeros.copy(), method, spec, label, spec.dim_n)


def exact_fidelity_curve(spec: MapSpec, state: InitialState, steps: int) -> FidelityCurve:
    """Exact fidelity amplitude <psi_pert(t)|psi_unpert(t)> for t = 0..steps.

    Both branches start from the same state; one evolves with the bare
    kick strength, the other with k + epsilon. stderr arrays are zero
    (no sampling is involved). Grids above 65536 points are refused with
    CapacityError before any grid-sized array is allocated.

    For even N both rows start as phi = conj(C) psi0, after amp(0) is read
    from psi0 itself (so a position eigenstate gives amp(0) == 1 exactly),
    and each step is one FFT per row; odd N steps the split pair (see the
    module docstring). The overlap of the phi rows equals that of the psi
    rows.

    Below N = `_THREAD_MIN_DIM` both rows are stepped as one (2, N) array.
    From the cut up, one pool worker steps the bare row while the calling
    thread steps the perturbed one (`c2c` releases the GIL); they join
    before each overlap. The path depends on N alone, not on how many CPUs
    are usable, and the rows are stepped exactly as in the (2, N) step, so
    the curve's bits do not depend on the thread count.
    """
    raise_problem(steps_problem(steps))
    raise_problem(perturbation_problem(spec.k, spec.epsilon))
    psi0 = build_state(spec, state)
    rows, entry, drift = _phase_factors(spec)
    psi = np.stack([psi0, psi0])  # perturbed row first, as in rows
    buf = np.empty(spec.dim_n, dtype=np.complex128)
    amp = np.empty(steps + 1, dtype=np.complex128)
    amp[0] = _overlap(psi, buf)
    if entry is not None:
        psi *= entry
    if spec.dim_n < _THREAD_MIN_DIM:
        for t in range(1, steps + 1):
            _split_step(psi, rows, drift)
            amp[t] = _overlap(psi, buf)
    else:
        with ThreadPoolExecutor(max_workers=1) as pool:
            for t in range(1, steps + 1):
                plain = pool.submit(_split_step, psi[1], rows[1], drift)
                _split_step(psi[0], rows[0], drift)
                plain.result()
                amp[t] = _overlap(psi, buf)
    return _grid_curve(amp, "exact", spec, state.label())


@lru_cache(maxsize=4)
def _dense_drift(n: int) -> np.ndarray:
    """The dense oracle's position-space drift F^-1 diag(drift) F, an (N, N) circulant.

    G[a, b] = g[(a - b) mod N] with g = F^-1(drift) / sqrt(N), that is
    g[c] = (1/N) sum_m drift[m] exp(2 pi i m c / N): one explicit DFT
    matvec over the N roots of unity, indexed by the integer products
    (m c) mod N, so every root's argument stays below 2 pi. O(N^2) work and
    memory, no FFT and no N^3 product. G depends on N alone, so it is
    built once per N and kept read-only, for the four most recent N.
    """
    two_pi = 2.0 * np.pi
    hbar = 1.0 / (two_pi * n)
    j = np.arange(n, dtype=np.float64)
    kin = 0.5 * (j / n) ** 2
    drift = np.exp(-1j * kin / hbar)
    idx = np.arange(n)
    roots = np.exp(1j * two_pi * j / n)
    g = roots[np.outer(idx, idx) % n] @ drift / n
    gmat = g[np.subtract.outer(idx, idx) % n]
    gmat.setflags(write=False)
    return gmat


def dense_oracle(spec: MapSpec, state: InitialState, steps: int) -> FidelityCurve:
    """Fidelity curve by dense matrix propagation (independent oracle).

    The one-step unitary is U = G diag(kick), with G the circulant
    position-space drift of `_dense_drift`, built once per N from its own
    DFT construction and shared by both branches; each step is
    psi <- G @ (kick * psi). Shares no phase or FFT code with the split
    route. Refuses grids above 256 points (dense cost grows as N^2 per
    step).
    """
    raise_problem(dense_problem(spec.dim_n))
    raise_problem(steps_problem(steps))
    raise_problem(perturbation_problem(spec.k, spec.epsilon))
    psi0 = build_state(spec, state)

    n = spec.dim_n
    two_pi = 2.0 * np.pi
    hbar = 1.0 / (two_pi * n)
    j = np.arange(n, dtype=np.float64)
    gmat = _dense_drift(n)

    def kick(strength):
        pot = -(strength / (two_pi * two_pi)) * np.cos(two_pi * j / n)
        return np.exp(-1j * pot / hbar)

    kick_plain = kick(spec.k)
    kick_pert = kick(spec.k + spec.epsilon)

    plain = pert = psi0
    amp = np.empty(steps + 1, dtype=np.complex128)
    amp[0] = np.vdot(pert, plain)
    for t in range(1, steps + 1):
        plain = gmat @ (kick_plain * plain)
        pert = gmat @ (kick_pert * pert)
        amp[t] = np.vdot(pert, plain)
    return _grid_curve(amp, "dense", spec, state.label())
