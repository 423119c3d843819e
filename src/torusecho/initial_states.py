"""Initial quantum states and their phase-space samplers.

Two state families feed the dephasing estimator:

* position eigenstates -- fixed grid-aligned q0, momenta spread over the
  torus (full grid by default, one sample per momentum grid point);
* Gaussian wavepackets -- positions drawn from |psi(q)|^2 with either a
  fixed mean momentum or momenta drawn from the Gaussian Wigner function.

Samplers are deterministic functions of (spec, params, seed); the stream
is counter-based (Philox) so partitioned generation can reproduce any
index range independently.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dynamics import MapSpec, _wrap_in_place, count_problem, is_finite, is_integer
from .errors import InvalidInputError, raise_problem

_GRID_ALIGN_TOL = 1e-9

# capacity ceiling on the samples of one set
_MAX_SAMPLES = 10_000_000

# Philox keys, and so seeds, are 128-bit unsigned integers
_SEED_LIMIT = 2**128

_SAMPLE_MODES = {"position": ("grid", "monte_carlo"), "gaussian": ("wigner", "position_only")}

# the std from which a wrapped normal is the uniform density to float64
# precision: its density differs from 1 by at most about 2 exp(-2 pi^2 s^2),
# below 2^-53 from s = sqrt(54 ln 2 / (2 pi^2)) ~ 1.377 up
_UNIFORM_STD = math.sqrt(54.0 * math.log(2.0) / (2.0 * math.pi**2))


def alignment_problem(q0, dim_n):
    """Why q0 is no point j/N of the dim_n-point grid on [0, 1), or None.

    q0 * N is judged exactly, so grids beyond the float range are judged
    too. q0 is on the grid within 1e-9 steps of a point j/N, or where it
    is the float nearest j/N (0.4 on a grid of 10**12 points).
    """
    if 0.0 <= q0 < 1.0:
        x = Fraction(float(q0)) * dim_n
        j = round(x)
        if abs(x - j) <= _GRID_ALIGN_TOL or j / dim_n == q0:
            return None
    return InvalidInputError, f"q0={q0!r} is not aligned to the dim_n={dim_n} grid"


def grid_count_problem(dim_n, count):
    """Why `count` (None for N) is not the N samples a grid set has, or None."""
    if count is None or count == dim_n:
        return None
    return InvalidInputError, (
        f"grid sampling yields exactly dim_n={dim_n!r} samples; "
        f"set samples to that or none, got {count!r}"
    )


def sample_count_problem(count):
    """Why `count` is no sample count, as a (kind, message) problem, or None."""
    return count_problem("samples", count, 1, _MAX_SAMPLES)


def mode_problem(state, mode):
    """Why `mode` is no sampling mode for `state` ("position" or "gaussian") states, or None."""
    modes = _SAMPLE_MODES[state]
    if mode in modes:
        return None
    return InvalidInputError, f"sample_mode for {state} states must be one of {modes}, got {mode!r}"


def sigma_problem(sigma):
    """Why sigma is no wavepacket width in (0, 0.5), or None."""
    if 0.0 < sigma < 0.5:
        return None
    return InvalidInputError, f"sigma must lie in (0, 0.5), got {sigma!r}"


def seed_problem(seed):
    """Why `seed` is no Philox key, an integer in [0, 2**128), or None."""
    if not is_integer(seed):
        return InvalidInputError, f"seed must be an integer, got {seed!r}"
    if not 0 <= seed < _SEED_LIMIT:
        return InvalidInputError, f"seed must lie in [0, 2**128), got {seed!r}"
    return None


@dataclass(frozen=True)
class SampleSet:
    """Vectorized container of phase-space samples, each of weight 1/len.

    kind is "grid" for exact-quadrature sets (deterministic, no statistical
    error bars) or "monte_carlo" for seeded random draws.

    The samplers return every column that holds one value (the weights,
    a position state's q, a position_only set's p) as a read-only
    zero-stride broadcast view, 8 bytes in all: copy one before writing
    to it.
    """

    q: np.ndarray
    p: np.ndarray
    weights: np.ndarray
    kind: str
    state_label: str
    seed: int | None = None

    def __post_init__(self):
        if len(self.q) == 0:
            raise InvalidInputError("sample set must be nonempty")
        if not (len(self.q) == len(self.p) == len(self.weights)):
            raise InvalidInputError("q, p, weights must have equal lengths")
        if not np.all(self.weights == 1.0 / len(self.q)):
            raise InvalidInputError("weights must all equal 1/len")
        if self.kind not in ("grid", "monte_carlo"):
            raise InvalidInputError(f"unknown sample kind {self.kind!r}")

    def __len__(self):
        return len(self.q)


class InitialState(ABC):
    """Marker base for initial-state descriptors."""

    @abstractmethod
    def label(self) -> str:
        """Short descriptor used in curve metadata and output sidecars."""


@dataclass(frozen=True)
class PositionEigenstate(InitialState):
    """|q0> with q0 on the position grid (q0 * N integral)."""

    q0: float

    def label(self) -> str:
        return f"position(q0={self.q0!r})"


@dataclass(frozen=True)
class GaussianWavepacket(InitialState):
    """Periodized Gaussian centered at (q0, p0) with position width sigma.

    q0 and p0 must be finite. sigma is the standard deviation of
    |psi(q)|^2, in torus units; it must sit in (0, 0.5) so the packet is
    localized on the torus.
    """

    q0: float
    p0: float
    sigma: float

    def __post_init__(self):
        for name, value in (("q0", self.q0), ("p0", self.p0)):
            if not is_finite(value):
                raise InvalidInputError(f"{name} must be finite, got {value!r}")
        raise_problem(sigma_problem(self.sigma))

    def label(self) -> str:
        return f"gaussian(q0={self.q0!r},p0={self.p0!r},sigma={self.sigma!r})"


def grid_index(spec: MapSpec, q0: float) -> int:
    """Grid index of a grid-aligned position; error if q0*N is not integral."""
    raise_problem(alignment_problem(q0, spec.dim_n))
    return round(Fraction(float(q0)) * spec.dim_n) % spec.dim_n


def _rng(seed: int) -> np.random.Generator:
    """The package's one random stream constructor, keyed by a checked seed."""
    raise_problem(seed_problem(seed))
    # Philox: counter-based, so substreams are reproducible under partitioning
    return np.random.Generator(np.random.Philox(key=seed))


def _constant(value, count):
    """A read-only float64 column of `count` copies of value, held as one float."""
    return np.broadcast_to(np.float64(value), (count,))


def _wrapped_normal(rng, count, mean, std):
    """`count` normal draws of (mean, std) wrapped onto [0, 1), in their own buffer.

    Bitwise wrap_unit(mean + std * z): the same float operations, in place.
    """
    z = rng.standard_normal(count)
    z *= std
    z += mean
    _wrap_in_place(z, np.empty_like(z))
    return z


def samples_position_state(
    spec: MapSpec,
    q0: float,
    count: int | None = None,
    mode: str = "grid",
    seed: int = 0,
) -> SampleSet:
    """Weighted samples representing a position eigenstate.

    Parameters
    ----------
    q0 : float
        Grid-aligned position; all samples share it.
    count : int or None
        Sample count. Grid mode forces count = N (pass None or N);
        monte_carlo mode requires count >= 1.
    mode : {"grid", "monte_carlo"}
        Grid mode returns the N equally spaced momenta j/N, weight 1/N each.
        monte_carlo draws momenta uniformly on [0, 1), weight 1/count.
    seed : int
        Stream key; ignored by grid mode.
    """
    grid_index(spec, q0)  # alignment check
    raise_problem(mode_problem("position", mode))
    label = PositionEigenstate(q0).label()
    if mode == "grid":
        n = spec.dim_n
        raise_problem(sample_count_problem(n if count is None else count))
        raise_problem(grid_count_problem(n, count))
        p = np.arange(n, dtype=np.float64) / n
        return SampleSet(_constant(q0, n), p, _constant(1.0 / n, n), "grid", label, seed=None)
    raise_problem(sample_count_problem(count))
    p = _rng(seed).random(count)
    return SampleSet(_constant(q0, count), p, _constant(1.0 / count, count), "monte_carlo",
                     label, seed=seed)


def samples_gaussian(
    spec: MapSpec,
    q0: float,
    p0: float,
    sigma: float,
    count: int,
    mode: str = "wigner",
    seed: int = 0,
) -> SampleSet:
    """Weighted samples for a Gaussian wavepacket.

    position_only: q ~ |psi(q)|^2 (wrapped normal, std sigma), p fixed at p0.
    wigner: (q, p) from the Gaussian Wigner function -- wrapped normals with
    position std sigma and momentum std hbar/(2 sigma). Valid while the
    packet is well localized (images overlapping across the torus fall below
    sampling resolution for sigma <~ 0.15). From a momentum std of
    `_UNIFORM_STD` up, p is drawn uniformly on [0, 1), the same law there.

    Draw order is q then p from one Philox stream keyed by `seed`.
    """
    state = GaussianWavepacket(q0, p0, sigma)  # validates q0, p0 and sigma
    raise_problem(sample_count_problem(count))
    raise_problem(mode_problem("gaussian", mode))
    rng = _rng(seed)
    q = _wrapped_normal(rng, count, q0, sigma)
    if mode == "position_only":
        p = _constant(p0, count)
    elif spec.hbar >= 2.0 * sigma * _UNIFORM_STD:  # std >= _UNIFORM_STD, which may overflow
        p = rng.random(count)
    else:
        p = _wrapped_normal(rng, count, p0, spec.hbar / (2.0 * sigma))
    return SampleSet(q, p, _constant(1.0 / count, count), "monte_carlo", state.label(), seed=seed)
