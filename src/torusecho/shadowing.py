"""Pseudo-orbit residuals and shadowing diagnostics for the kicked map.

A perturbed-map orbit is an epsilon-pseudotrajectory of the unperturbed
map: its one-step residual never exceeds epsilon / (2 pi), the sup of the
perturbing kick. Adding bounded noise of size delta raises the bound to
delta + epsilon / (2 pi). `refine_shadow` then looks for a true
unperturbed orbit near a pseudo-orbit by Newton iteration on the orbit
equations, using the minimum-norm correction at each step (the orbit has
free endpoints, so the linearized system is underdetermined).

The horizon out to which a perturbed orbit can stay near a true one
before the accumulated action difference reaches O(hbar) scales as
epsilon^(-1/2); `shadow_time_estimate` returns that scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .dynamics import (
    TWO_PI,
    MapSpec,
    _step_in_place,
    _tangent_blocks,
    is_integer,
    step_ensemble,
    steps_problem,
    torus_distance,
    wrap_unit,
)
from .errors import CapacityError, InvalidInputError, raise_problem
from .initial_states import _rng

_MAX_REFINE_STEPS = 10_000
# orbits in one survey; each is generated, measured and refined in turn
_MAX_SURVEY_COUNT = 100_000
_MIN_TOL = 1e-13
_MIN_DAMPING = 2.0**-16

_GENERATORS = ("perturbed_map", "noisy", "external")


@dataclass(frozen=True)
class PseudoOrbit:
    """A finite orbit segment, points[t] = (q_t, p_t), t = 0..len-1.

    generator records how the segment was produced; noise_delta is the
    per-coordinate bound of any added jump noise (0 for exact-map orbits).
    """

    points: np.ndarray
    generator: str = "external"
    noise_delta: float = 0.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise InvalidInputError(
                f"orbit needs shape (L, 2) with L >= 2, got {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError("orbit contains non-finite coordinates")
        if np.any(pts < 0.0) or np.any(pts >= 1.0):
            raise InvalidInputError("orbit coordinates must lie in [0, 1)")
        if self.generator not in _GENERATORS:
            raise InvalidInputError(f"unknown generator {self.generator!r}")
        if not (0.0 <= self.noise_delta < 1.0):
            raise InvalidInputError(f"noise_delta must be in [0, 1), got {self.noise_delta!r}")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]

    @property
    def steps(self) -> int:
        return self.points.shape[0] - 1


@dataclass(frozen=True)
class ShadowResult:
    """Outcome of a shadow refinement.

    shadow_distance is the sup (over steps and coordinates, with torus
    wrapping) of the distance between the pseudo-orbit and the refined
    orbit; residual is the refined orbit's one-step defect under the
    target map.
    """

    shadow_points: np.ndarray
    shadow_distance: float
    residual: float
    converged: bool
    iterations: int


def wrap_signed(d) -> np.ndarray:
    """Shortest signed torus displacement, elementwise into [-0.5, 0.5]."""
    d = np.asarray(d, dtype=np.float64)
    return d - np.round(d)


def orbit_from_map(
    spec: MapSpec, start, steps: int, perturbed: bool = True
) -> PseudoOrbit:
    """Orbit segment generated by iterating the (default: perturbed) map.

    The first step is the checked `step_ensemble`; its 0-d outputs are
    then stepped in place by the map kernel.
    """
    raise_problem(steps_problem(steps, minimum=1))
    q, p = np.float64(start[0]), np.float64(start[1])
    pts = np.empty((steps + 1, 2))
    pts[0] = (q, p)
    q, p = step_ensemble(spec, q, p, perturbed=perturbed)
    pts[1] = (q, p)
    c = spec.kick_coefficient(perturbed)
    arg, tmp = np.empty_like(q), np.empty_like(q)
    for t in range(2, steps + 1):
        _step_in_place(c, q, p, arg, tmp)
        pts[t] = (q, p)
    return PseudoOrbit(pts, generator="perturbed_map", noise_delta=0.0)


def noisy_orbit(
    spec: MapSpec, start, steps: int, delta: float, seed: int = 0
) -> PseudoOrbit:
    """Perturbed-map orbit with uniform jump noise in [-delta, delta]^2.

    Noise is added after each map step and wrapped back onto the torus,
    so the segment is a (delta + epsilon/(2 pi))-pseudotrajectory of the
    unperturbed map.
    """
    raise_problem(steps_problem(steps, minimum=1))
    if not (0.0 <= delta < 0.5):
        raise InvalidInputError(f"delta must be in [0, 0.5), got {delta!r}")
    rng = _rng(seed)
    q, p = np.float64(start[0]), np.float64(start[1])
    pts = np.empty((steps + 1, 2))
    pts[0] = (q, p)
    jumps = (2.0 * rng.random((steps, 2)) - 1.0) * delta
    for t in range(1, steps + 1):
        q, p = step_ensemble(spec, q, p, perturbed=True)
        q = wrap_unit(q + jumps[t - 1, 0])
        p = wrap_unit(p + jumps[t - 1, 1])
        pts[t] = (q, p)
    return PseudoOrbit(pts, generator="noisy", noise_delta=delta)


def pseudo_residual(
    spec: MapSpec, orbit: PseudoOrbit, against: str = "unperturbed"
) -> float:
    """Sup one-step defect of the orbit under the chosen map.

    max over steps t of the torus sup-distance between points[t+1] and
    the image of points[t]; zero iff the segment is a true orbit.
    """
    perturbed = _against_flag(against)
    pts = orbit.points
    q1, p1 = step_ensemble(spec, pts[:-1, 0], pts[:-1, 1], perturbed=perturbed)
    image = np.stack([q1, p1], axis=-1)
    return float(torus_distance(pts[1:], image).max())


def _against_flag(against: str) -> bool:
    if against == "unperturbed":
        return False
    if against == "perturbed":
        return True
    raise InvalidInputError(f"against must be 'unperturbed' or 'perturbed', got {against!r}")


def _orbit_defect(spec, pts, perturbed):
    """Signed defect G[t] = points[t+1] - f(points[t]), torus-wrapped.

    pts are PseudoOrbit points or wrap_unit trials, so finite and in
    [0, 1): the unchecked map kernel applies.
    """
    q = pts[:-1, 0].copy()
    p = pts[:-1, 1].copy()
    _step_in_place(spec.kick_coefficient(perturbed), q, p, np.empty_like(q), np.empty_like(q))
    return wrap_signed(pts[1:] - np.stack([q, p], axis=-1))


def _min_norm_newton_step(spec, pts, defect, perturbed):
    """Minimum-norm correction dX with J dX = -G for the orbit equations.

    J is the 2T x 2(T+1) block bidiagonal orbit Jacobian (blocks -A_t and
    I); the least-norm solution is J^T (J J^T)^{-1} (-G) with J J^T block
    tridiagonal and positive definite, factored sparsely.
    """
    big_t = pts.shape[0] - 1
    a = _tangent_blocks(spec.kick_coefficient(perturbed), pts[:-1, 0])

    diag = np.einsum("nij,nkj->nik", a, a)
    diag[:, 0, 0] += 1.0
    diag[:, 1, 1] += 1.0

    rows, cols, data = [], [], []
    idx = np.arange(big_t) * 2
    for r in range(2):
        for c2 in range(2):
            rows.append(idx + r)
            cols.append(idx + c2)
            data.append(diag[:, r, c2])
            if big_t > 1:
                # upper block (t, t+1) = -A_{t+1}^T, lower is its transpose
                rows.append(idx[:-1] + r)
                cols.append(idx[1:] + c2)
                data.append(-a[1:, c2, r])
                rows.append(idx[1:] + r)
                cols.append(idx[:-1] + c2)
                data.append(-a[1:, r, c2])
    mat = csc_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(2 * big_t, 2 * big_t),
    )
    lam = splu(mat).solve(-defect.reshape(-1)).reshape(big_t, 2)

    dx = np.empty((big_t + 1, 2))
    dx[0] = -a[0].T @ lam[0]
    if big_t > 1:
        dx[1:big_t] = lam[:-1] - np.einsum("nji,nj->ni", a[1:], lam[1:])
    dx[big_t] = lam[big_t - 1]
    return dx


def _check_refine_steps(steps):
    if steps > _MAX_REFINE_STEPS:
        raise CapacityError(
            f"refinement supports up to {_MAX_REFINE_STEPS} steps, got {steps}"
        )


def refine_shadow(
    spec: MapSpec,
    orbit: PseudoOrbit,
    against: str = "unperturbed",
    tol: float = 1e-10,
    max_iter: int = 50,
) -> ShadowResult:
    """Newton-refine a pseudo-orbit toward a true orbit of the target map.

    Endpoints are free; each iteration applies the minimum-norm
    correction, damped by halving whenever the sup residual would
    increase. Convergence means sup residual <= tol.

    Refinement can fail honestly: a segment that brushes a
    non-hyperbolic region (an island pass, where the one-step stability
    turns elliptic) may admit no nearby true orbit through that moment.
    The result then carries converged=False with the best points found,
    and the leftover defect is concentrated at the offending steps;
    the sub-segments on either side typically refine to full precision.

    Raises CapacityError for segments longer than 10^4 steps and
    InvalidInputError for tolerances below 1e-13 (under double
    precision the orbit equations cannot be satisfied more tightly).
    """
    perturbed = _against_flag(against)
    _check_refine_steps(orbit.steps)
    if not np.isfinite(tol) or tol < _MIN_TOL:
        raise InvalidInputError(f"tol must be >= {_MIN_TOL}, got {tol!r}")
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be >= 1, got {max_iter!r}")

    pts = orbit.points.copy()
    defect = _orbit_defect(spec, pts, perturbed)
    res = float(np.abs(defect).max())
    iterations = 0
    converged = res <= tol

    while not converged and iterations < max_iter:
        dx = _min_norm_newton_step(spec, pts, defect, perturbed)
        scale = 1.0
        while True:
            trial = wrap_unit(pts + scale * dx)
            trial_defect = _orbit_defect(spec, trial, perturbed)
            trial_res = float(np.abs(trial_defect).max())
            if trial_res < res:
                pts, defect, res = trial, trial_defect, trial_res
                break
            scale *= 0.5
            if scale < _MIN_DAMPING:
                break
        iterations += 1
        if scale < _MIN_DAMPING:
            break  # stalled; report best point found
        converged = res <= tol

    distance = float(torus_distance(pts, orbit.points).max())
    return ShadowResult(
        shadow_points=pts,
        shadow_distance=distance,
        residual=res,
        converged=bool(converged),
        iterations=iterations,
    )


def shadow_time_estimate(epsilon: float) -> float:
    """Steps before accumulated action error reaches O(hbar): epsilon^(-1/2)."""
    eps = float(epsilon)
    if not np.isfinite(eps) or eps <= 0.0:
        raise InvalidInputError(f"epsilon must be positive and finite, got {epsilon!r}")
    return eps**-0.5


def shadow_survey(
    spec: MapSpec,
    count: int = 32,
    steps: int | None = None,
    seed: int = 0,
    tol: float = 1e-9,
    max_iter: int = 40,
) -> dict:
    """Shadowing diagnostics over random perturbed orbits.

    Generates `count` perturbed-map segments from uniform random starts,
    measures their pseudo-residuals against the unperturbed map, refines
    each toward a true unperturbed orbit, and summarizes convergence,
    shadow distances, and the epsilon^(-1/2) horizon.

    fraction_converged below 1 is expected when orbits brush island
    regions (see refine_shadow); the residual bound diagnostics are
    unconditional.

    Raises CapacityError for more than 10^5 orbits or segments longer
    than 10^4 steps before any start is drawn.
    """
    if not is_integer(count) or count < 1:
        raise InvalidInputError(f"count must be a positive integer, got {count!r}")
    if count > _MAX_SURVEY_COUNT:
        raise CapacityError(f"survey supports up to {_MAX_SURVEY_COUNT} orbits, got {count}")
    t_shadow = shadow_time_estimate(spec.epsilon)
    if steps is None:
        steps = max(2, int(round(t_shadow)))
    _check_refine_steps(steps)  # before any orbit is generated
    starts = _rng(seed).random((count, 2))
    bound = spec.epsilon / TWO_PI

    residuals = np.empty(count)
    distances = np.empty(count)
    final_residuals = np.empty(count)
    converged = np.zeros(count, dtype=bool)
    for i in range(count):
        orb = orbit_from_map(spec, starts[i], steps, perturbed=True)
        residuals[i] = pseudo_residual(spec, orb, against="unperturbed")
        result = refine_shadow(spec, orb, tol=tol, max_iter=max_iter)
        distances[i] = result.shadow_distance
        final_residuals[i] = result.residual
        converged[i] = result.converged
    return {
        "count": count,
        "steps": int(steps),
        "epsilon": spec.epsilon,
        "shadow_time": t_shadow,
        "residual_bound": bound,
        "max_pseudo_residual": float(residuals.max()),
        "bound_violations": int(np.sum(residuals > bound)),
        "fraction_converged": float(np.mean(converged)),
        "max_shadow_distance": float(distances.max()),
        "mean_shadow_distance": float(distances.mean()),
        "max_refined_residual": float(final_residuals.max()),
    }
