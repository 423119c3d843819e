"""Classical kicked-map dynamics on the unit torus.

The map is the kicked rotor in unit-torus coordinates q, p in [0, 1) with
kick potential W(q) = -(k/4pi^2) cos(2pi q) and perturbation
V(q) = W(q)/k.  One step applies the kick first, then the free drift:

    p' = p - ((k + eps_eff)/2pi) sin(2pi q)   (mod 1)
    q' = q + p'                               (mod 1)

The dephasing route accumulates the action difference
dS(T) = -eps * sum_{m<T} V(q_m) = (eps/4pi^2) * sum_{m<T} cos(2pi q_m)
along the *unperturbed* orbit; eps enters only as a multiplicative factor.

Points are checked where they enter, not where they move: `unit_problem`
is the one rule that coordinates are finite and in [0, 1), and
`SampleSet`, `PseudoOrbit` and `orbit_from_map`'s start apply it, so every
orbit loop runs `_step_in_place`, the one implementation of the map step,
from its first step. The kernel keeps the rule: it wraps p with both
passes of `_wrap_in_place`, the one general wrap, and q with one
floor-and-subtract: for q, p in [0, 1) the sum rounds to at most
2 - 2^-52 < 2, so x - floor(x) is exact and already in [0, 1), where the
second pass would be the identity.

Small arrays: the shadowing refinement runs the kernel thousands of times
on 15- to 23-point orbits, where numpy's per-call dispatch costs more than
the arithmetic. So the kernel and the wrap reach numpy at its call floor.
No Python float operand reaches a ufunc: NEP 50's weak-scalar promotion
costs about 0.2 us a call (`np.multiply(a, 2.0, out=b)` on 22 points took
0.66 us, against 0.46 us with a 0-d float64 operand; numpy 2.4.6, 2-vCPU
VM). Every call is an explicit ufunc call with a positional out, in place
of an in-place operator or an `out=` keyword, which cost up to a few tens
of ns more. The constant operands are `_TWO_PI` and `_ONE`, read-only 0-d
float64 arrays, so that a stray out= raises instead of changing every
later step. These are the same float operations, so no bit moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, InvalidInputError, raise_problem

TWO_PI = 2.0 * math.pi


def _constant(value):
    """value as a read-only float64 array, an operand at numpy's call floor (0-d for a scalar)."""
    operand = np.array(value, dtype=np.float64)
    operand.flags.writeable = False
    return operand


_ONE, _TWO_PI = _constant(1.0), _constant(TWO_PI)

# capacity ceiling on the steps of one run, orbit or curve
_MAX_STEPS = 1_000_000
# kick coefficients |k_eff| / 2pi from here up leave the momentum at most
# one bit (`kick_problem`)
_MAX_KICK_COEFFICIENT = 2.0**52


def is_integer(x) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_finite(x) -> bool:
    """True for a real number that converts to a finite float."""
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def count_problem(name, value, minimum: int, limit: int | None = None):
    """Why `value` is no integer count of at least `minimum`, or None.

    The package's one count rule. A count above `limit` is a capacity
    refusal; without a limit there is none.
    """
    if not is_integer(value) or value < minimum:
        return InvalidInputError, f"{name} must be an integer >= {minimum}, got {value!r}"
    if limit is not None and value > limit:
        return CapacityError, f"{name} {value} exceeds limit {limit}"
    return None


def map_problems(k, epsilon, dim_n) -> list:
    """Every problem that keeps k, epsilon and dim_n from making a map, in order."""
    problems = [
        (InvalidInputError, f"{name} must be finite, got {value!r}")
        for name, value in (("k", k), ("epsilon", epsilon))
        if not is_finite(value)
    ]
    if (problem := count_problem("dim_n", dim_n, 2)) is not None:
        problems.append(problem)
    return problems


def steps_problem(steps, minimum: int = 0):
    """Why `steps` is no step count of at least `minimum` (0 or 1), or None.

    Counts above 10^6 are a capacity refusal: every route allocates and
    iterates per step.
    """
    return count_problem("steps", steps, minimum, _MAX_STEPS)


def phase_scale_problem(k: float, epsilon: float, dim_n: int, steps: int = 1):
    """Why k, epsilon, N and a run of `steps` give no finite phases, or None.

    (|k| + |epsilon|) N / 2pi bounds the factor on every kick and action
    phase (kick / hbar, dS / hbar), and the dr action sum grows by at most 1
    per step, so (|k| + |epsilon|) N max(steps, 1) / 2pi bounds every phase
    of the run; where it overflows, the dr and exact routes would return nan.
    """
    # in the order the routes compute it: the factor first, then the sum
    try:
        scale = (abs(k) + abs(epsilon)) * dim_n / TWO_PI * max(steps, 1)
    except OverflowError:  # an N beyond the float range
        scale = math.inf
    if math.isfinite(scale):
        return None
    return InvalidInputError, (
        f"k={k!r} and epsilon={epsilon!r} are too large for dim_n={dim_n} "
        f"over {steps} steps: the phase factor (|k| + |epsilon|) N / 2pi times max(steps, 1) "
        "is not finite"
    )


def perturbation_problem(k, epsilon):
    """Why a nonzero epsilon vanishes from k + epsilon in float64, or None.

    The exact, dense and shadowing routes kick the perturbed branch at
    k + epsilon; where that rounds to k (|k| beyond about 2^53 |epsilon|)
    they would report no perturbation at all. dr reads epsilon only as a
    phase factor, so a dr run at such k needs no such rule.
    """
    k, epsilon = float(k), float(epsilon)
    if epsilon == 0.0 or k + epsilon != k:
        return None
    return InvalidInputError, (
        f"epsilon={epsilon!r} is below the rounding of k={k!r}: k + epsilon == k in float64, "
        "so the perturbed map would be the unperturbed one"
    )


def kick_problem(k_eff):
    """Why the float map cannot step under kicks of strength k_eff, or None.

    Where |k_eff| / 2pi reaches 2^52, p - (k_eff / 2pi) sin(2 pi q) at
    |sin| ~ 1 rounds to a multiple of 1/2 (to an integer a little further
    up), so the wrapped momentum keeps at most one bit and the orbit stalls;
    below that, p keeps about 52 - log2(|k_eff| / 2pi) bits.
    k_eff is k for the unperturbed map (dr, `pseudo_residual`,
    `refine_shadow`) and k + epsilon for the perturbed one
    (`orbit_from_map`, the survey's orbits).
    """
    if abs(k_eff) / TWO_PI < _MAX_KICK_COEFFICIENT:
        return None
    return InvalidInputError, (
        f"kick strength {k_eff!r} is too large for the float map: at |k|/2pi >= 2^52 a kick "
        "p - (k/2pi) sin(2 pi q) leaves the momentum at most one bit"
    )


@dataclass(frozen=True)
class MapSpec:
    """Physical/numerical configuration: kick strength, perturbation, grid size.

    Parameters
    ----------
    k : float
        Kick strength (dimensionless). k ~ 0.8 gives mixed phase space,
        k ~ 10 strong chaos.
    epsilon : float
        Perturbation strength; any finite real.
    dim_n : int
        Hilbert dimension N of the quantized torus (>= 2). Sets the
        effective Planck constant hbar = 1/(2 pi N).
    """

    k: float
    epsilon: float
    dim_n: int
    hbar: float = field(init=False, repr=False)

    def __post_init__(self):
        for problem in map_problems(self.k, self.epsilon, self.dim_n):
            raise_problem(problem)
        raise_problem(phase_scale_problem(self.k, self.epsilon, self.dim_n))
        object.__setattr__(self, "dim_n", int(self.dim_n))
        object.__setattr__(self, "k", float(self.k))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        object.__setattr__(self, "hbar", 1.0 / (TWO_PI * self.dim_n))

    def kick_coefficient(self, perturbed: bool) -> float:
        """Momentum-kick prefactor (k + eps_eff)/2pi of the map."""
        k_eff = self.k + self.epsilon if perturbed else self.k
        return k_eff / TWO_PI

    def with_epsilon(self, epsilon: float) -> "MapSpec":
        return MapSpec(self.k, epsilon, self.dim_n)


def wrap_unit(x):
    """Map values onto [0, 1) as a fresh float64 array (see `_wrap_in_place`)."""
    out = np.array(x, dtype=np.float64)
    _wrap_in_place(out, np.empty_like(out))
    return out


def unit_problem(what, x):
    """Why some coordinate of the nonempty array x is nan or outside [0, 1), or None.

    The one rule for the points that map loops step (see the module
    docstring). A nan fails both reductions; only a refusal looks for one.
    """
    if np.minimum.reduce(x, axis=None) >= 0.0 and np.maximum.reduce(x, axis=None) < 1.0:
        return None
    if not np.isfinite(x).all():
        return InvalidInputError, f"{what} contains non-finite coordinates"
    return InvalidInputError, f"{what} coordinates must lie in [0, 1)"


def _require_finite(q, p):
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
        raise InvalidInputError("phase-space coordinates must be finite")


def _wrap_in_place(x, tmp):
    """Map x onto [0, 1) in place; tmp is scratch of x's shape.

    Non-finite values become nan. The one general wrap (the map kernel
    wraps q, known to lie in [0, 2), with its first pass alone).
    """
    np.floor(x, tmp)
    np.subtract(x, tmp, x)
    # x - floor(x) lies in [0, 1]; a second pass maps the rounding case 1.0
    # to 0.0 and leaves [0, 1) as it is
    np.floor(x, tmp)
    np.subtract(x, tmp, x)


def _step_in_place(c, q, p, arg, tmp):
    """One map step with kick coefficient c on finite q, p in [0, 1), in place.

    q and p receive the image; arg is left holding 2 pi q of the old
    positions, which the action record reuses; tmp is scratch. All four
    are caller-owned float arrays of one shape. c is a float or a 0-d
    float64 array, with the same bits either way: dr and the survey's
    orbit generator pass a float, once a step on a whole ensemble, and the
    shadowing refinement a 0-d array, built once a refinement, since on
    its few points a float operand costs more than the multiply (see
    "Small arrays" in the module docstring). Nothing is checked here: the
    points were checked where they entered (`unit_problem`).
    """
    np.multiply(q, _TWO_PI, arg)
    np.sin(arg, tmp)
    np.multiply(tmp, c, tmp)
    np.subtract(p, tmp, p)
    _wrap_in_place(p, tmp)
    np.add(q, p, q)
    # q + p < 2 (see the module docstring): one pass of the wrap is enough
    np.floor(q, tmp)
    np.subtract(q, tmp, q)


def step_ensemble(spec: MapSpec, q, p, perturbed: bool = False):
    """One kick-then-drift map step applied elementwise to coordinate arrays.

    The entry to the map step for raw coordinates: rejects a kick the
    float map cannot carry (`kick_problem`) and non-finite coordinates,
    wraps them onto [0, 1) and applies `_step_in_place` to fresh arrays.

    Parameters
    ----------
    q, p : array_like
        Torus coordinates (wrapped onto [0, 1) on input).
    perturbed : bool
        If True evolve under the perturbed map f^eps, else under f^0.

    Returns
    -------
    (q1, p1) : ndarray pair on [0, 1).
    """
    raise_problem(kick_problem(spec.k + spec.epsilon if perturbed else spec.k))
    _require_finite(q, p)
    q1 = wrap_unit(q)
    p1 = wrap_unit(p)
    if q1.shape != p1.shape:
        q1, p1 = (np.array(a) for a in np.broadcast_arrays(q1, p1))
    _step_in_place(spec.kick_coefficient(perturbed), q1, p1, np.empty_like(q1), np.empty_like(q1))
    return q1, p1
