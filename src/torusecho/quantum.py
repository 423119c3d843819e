"""Exact quantum fidelity on the quantized torus.

States live on an N-point position grid q_j = j/N with effective Planck
constant hbar = 1/(2 pi N) and periodic boundary conditions (zero Bloch
phases). One kicked-map step is the split unitary

    U = exp(-i p^2 / (2 hbar)) * exp(-i W(q) / hbar)

applied as a position-space kick phase followed by a momentum-space drift
phase via the unitary FFT pair. The perturbed branch uses the kick
potential at strength k + epsilon.

A state is checked (shape, norm) once, as a `QuantumState` where it
enters; from there one in-place kernel steps both branches as one (2, N)
array, perturbed row first, and builds no state and takes no norm. From
N = 8192 up, where two CPUs are usable, the two rows are stepped on two
threads instead, whatever thread count the run was given. The overlap of
the rows is a numpy pairwise sum, not a BLAS dot, so an exact curve's
bits depend neither on the thread count nor on the BLAS library's threads.

`dense_oracle` rebuilds the same unitary as an explicit matrix with its
own DFT construction and no shared phase helpers, so split-operator and
dense results are independent routes to the same curve.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dephasing import FidelityCurve, _worker_count
from .dynamics import TWO_PI, MapSpec, steps_problem
from .errors import CapacityError, InvalidInputError, raise_problem
from .initial_states import (
    _IMAGE_TRUNCATION,
    GaussianWavepacket,
    InitialState,
    PositionEigenstate,
    WignerSampler,
    grid_index,
)

_NORM_GUARD = 1e-9
# dense propagation costs N^2 per step and N^2 memory per unitary
_DENSE_MAX_DIM = 256
# from this grid size up, stepping the two branches on two threads beats one
# (2, N) step; median ms per step, serial against threaded, on a 2-vCPU
# x86-64 VM with numpy 2.4: 0.14 / 0.16 at N = 4096, 0.57 / 0.38 at 8192,
# 5.9 / 2.7 at 65536 (between 4096 and 8192 the winner changed run to run)
_THREAD_MIN_DIM = 8192


def dense_problem(dim_n):
    """Why the dense oracle refuses a grid of dim_n points, or None."""
    if dim_n <= _DENSE_MAX_DIM:
        return None
    return CapacityError, f"dense method supports dim_n <= {_DENSE_MAX_DIM}, got {dim_n}"


@dataclass(frozen=True)
class QuantumState:
    """Normalized wavefunction on the N-point position grid."""

    vector: np.ndarray
    spec: MapSpec

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=np.complex128)
        if vec.shape != (self.spec.dim_n,):
            raise InvalidInputError(
                f"state vector must have shape ({self.spec.dim_n},), got {vec.shape}"
            )
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > _NORM_GUARD:
            raise InvalidInputError(f"state vector must be normalized, |psi| = {norm!r}")
        object.__setattr__(self, "vector", vec)

    @property
    def position_density(self) -> np.ndarray:
        """Probability per grid cell, |psi_j|^2 (sums to 1)."""
        return np.abs(self.vector) ** 2


@lru_cache(maxsize=32)
def _phase_factors(spec: MapSpec):
    """Read-only (kicks, drift) of one split step; kicks is (2, N), perturbed row first."""
    n = spec.dim_n
    j = np.arange(n)
    cos_q = np.cos(TWO_PI * j / n)
    # -W(q)/hbar with W(q) = -(c / 4 pi^2) cos(2 pi q) and hbar = 1/(2 pi N)
    kicks = np.stack(
        [np.exp(1j * (c * n / TWO_PI) * cos_q) for c in (spec.k + spec.epsilon, spec.k)]
    )
    # -p^2/(2 hbar) at p_m = m/N reduces to -pi m^2 / N
    drift = np.exp(-1j * np.pi * j * j / n)
    kicks.setflags(write=False)
    drift.setflags(write=False)
    return kicks, drift


def _split_step(psi: np.ndarray, kick: np.ndarray, drift: np.ndarray) -> None:
    """One split step in place on an (N,) psi or, row by row, a (2, N) psi."""
    # kick * psi, in this operand order: psi *= kick moves the last bit
    np.multiply(kick, psi, out=psi)
    np.fft.fft(psi, axis=-1, norm="ortho", out=psi)
    psi *= drift
    np.fft.ifft(psi, axis=-1, norm="ortho", out=psi)


def _overlap(psi: np.ndarray, buf: np.ndarray) -> complex:
    """<psi[0]|psi[1]> as one numpy pairwise sum through buf, with no BLAS call.

    A BLAS dot product splits its sum over however many threads the library
    starts, so its bits would depend on the machine; this sum does not.
    """
    np.conjugate(psi[0], out=buf)
    buf *= psi[1]
    return buf.sum()


def build_state(spec: MapSpec, state: InitialState) -> QuantumState:
    """Grid wavefunction for an initial-state descriptor.

    Position eigenstates require grid alignment. Gaussian wavepackets are
    periodized over torus images and normalized on the grid. Abstract
    Wigner samplers carry no wavefunction and are rejected.
    """
    if isinstance(state, PositionEigenstate):
        vec = np.zeros(spec.dim_n, dtype=np.complex128)
        vec[grid_index(spec, state.q0)] = 1.0
        return QuantumState(vec, spec)
    if isinstance(state, GaussianWavepacket):
        n = spec.dim_n
        q = np.arange(n, dtype=np.float64) / n
        # exp(-d^2/(4 sigma^2)) < 1e-16  <=>  |d| > 2 sigma sqrt(-ln 1e-16)
        reach = 2.0 * state.sigma * np.sqrt(-np.log(_IMAGE_TRUNCATION))
        n_images = int(np.ceil(reach)) + 1
        vec = np.zeros(n, dtype=np.complex128)
        for img in range(-n_images, n_images + 1):
            d = q + img - state.q0
            vec += np.exp(-(d * d) / (4.0 * state.sigma**2)) * np.exp(
                1j * state.p0 * d / spec.hbar
            )
        vec /= np.linalg.norm(vec)
        return QuantumState(vec, spec)
    if isinstance(state, WignerSampler):
        raise InvalidInputError(
            "abstract Wigner samplers carry no wavefunction; "
            "use the dephasing route for such states"
        )
    raise InvalidInputError(f"unknown initial state type {type(state).__name__}")


def step_quantum(state: QuantumState, perturbed: bool = False) -> QuantumState:
    """One split-operator step: kick phase, FFT, drift phase, inverse FFT."""
    kicks, drift = _phase_factors(state.spec)
    psi = state.vector.copy()
    _split_step(psi, kicks[0 if perturbed else 1], drift)
    return QuantumState(psi, state.spec)


def _resolve_state(spec, state, state_label):
    """(checked grid vector, label) of a state descriptor or a QuantumState."""
    if isinstance(state, QuantumState):
        if state.spec.dim_n != spec.dim_n:
            raise InvalidInputError("state grid size does not match spec")
        psi0, label = state, f"vector(n={spec.dim_n})"
    elif isinstance(state, InitialState):
        psi0, label = build_state(spec, state), state.label()
    else:
        raise InvalidInputError(f"unsupported state {type(state).__name__}")
    return psi0.vector, label if state_label is None else state_label


def _grid_curve(amp, method, spec, label) -> FidelityCurve:
    """Curve of an exact route: zero stderr, the N grid points as its sample count."""
    zeros = np.zeros(len(amp))
    return FidelityCurve(amp, zeros, zeros.copy(), method, spec, label, spec.dim_n)


def exact_fidelity_curve(
    spec: MapSpec,
    state: InitialState | QuantumState,
    steps: int,
    state_label: str | None = None,
) -> FidelityCurve:
    """Exact fidelity amplitude <psi_pert(t)|psi_unpert(t)> for t = 0..steps.

    Both branches start from the same state; one evolves with the bare
    kick strength, the other with k + epsilon. stderr arrays are zero
    (no sampling is involved).

    From N = `_THREAD_MIN_DIM` up, and where two CPUs are usable, one pool
    worker steps the bare row while the calling thread steps the perturbed
    one (np.fft releases the GIL); they join before each overlap. The rows
    are stepped exactly as in the serial (2, N) step, so the curve's bits
    do not depend on the thread count.
    """
    raise_problem(steps_problem(steps))
    psi0, label = _resolve_state(spec, state, state_label)
    kicks, drift = _phase_factors(spec)
    psi = np.stack([psi0, psi0])  # perturbed row first, as in kicks
    buf = np.empty(spec.dim_n, dtype=np.complex128)
    amp = np.empty(steps + 1, dtype=np.complex128)
    amp[0] = _overlap(psi, buf)
    if spec.dim_n < _THREAD_MIN_DIM or _worker_count(2, 2) < 2:
        for t in range(1, steps + 1):
            _split_step(psi, kicks, drift)
            amp[t] = _overlap(psi, buf)
    else:
        with ThreadPoolExecutor(max_workers=1) as pool:
            for t in range(1, steps + 1):
                plain = pool.submit(_split_step, psi[1], kicks[1], drift)
                _split_step(psi[0], kicks[0], drift)
                plain.result()
                amp[t] = _overlap(psi, buf)
    return _grid_curve(amp, "exact", spec, label)


def dense_oracle(
    spec: MapSpec,
    state: InitialState | QuantumState,
    steps: int,
    state_label: str | None = None,
) -> FidelityCurve:
    """Fidelity curve by dense matrix propagation (independent oracle).

    Builds the one-step unitary as an explicit matrix from its own DFT
    construction: U = F_inv @ diag(drift) @ F @ diag(kick). Shares no
    phase or FFT code with the split route. Refuses grids above
    256 points (dense cost grows as N^2 per step).
    """
    raise_problem(dense_problem(spec.dim_n))
    raise_problem(steps_problem(steps))
    psi0, label = _resolve_state(spec, state, state_label)

    n = spec.dim_n
    two_pi = 2.0 * np.pi
    hbar = 1.0 / (two_pi * n)
    j = np.arange(n, dtype=np.float64)
    # unitary DFT matrix, F[m, j] = exp(-2 pi i m j / N) / sqrt(N)
    fmat = np.exp(-1j * two_pi * np.outer(j, j) / n) / np.sqrt(n)
    finv = fmat.conj().T

    def one_step(strength):
        pot = -(strength / (two_pi * two_pi)) * np.cos(two_pi * j / n)
        kick = np.exp(-1j * pot / hbar)
        kin = 0.5 * (j / n) ** 2
        drift = np.exp(-1j * kin / hbar)
        return finv @ (drift[:, None] * (fmat * kick[None, :]))

    u_plain = one_step(spec.k)
    u_pert = one_step(spec.k + spec.epsilon)

    plain = pert = psi0
    amp = np.empty(steps + 1, dtype=np.complex128)
    amp[0] = np.vdot(pert, plain)
    for t in range(1, steps + 1):
        plain = u_plain @ plain
        pert = u_pert @ pert
        amp[t] = np.vdot(pert, plain)
    return _grid_curve(amp, "dense", spec, label)
