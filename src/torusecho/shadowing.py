"""Pseudo-orbit residuals and shadowing diagnostics for the kicked map.

Orbits are generated under the perturbed map; residuals and refinement
are taken against the unperturbed map (another target is another
`MapSpec`, such as MapSpec(k + epsilon, 0, N)). A perturbed-map orbit is
an epsilon-pseudotrajectory of the unperturbed map: in exact arithmetic
its one-step residual never exceeds epsilon / (2 pi), the sup of the
perturbing kick. The stored points are float64 images, each rounded by up
to about half an ulp, so where |sin(2 pi q)| ~ 1 a measured residual can
exceed the bound by a fraction of an ulp; `shadow_survey`'s
`bound_violations` counts such excesses too.
`refine_shadow` then looks for a true unperturbed orbit near a
pseudo-orbit by Newton iteration on the orbit equations, using the
minimum-norm correction at each step (the orbit has free endpoints, so
the linearized system is underdetermined).

Each Newton step is one banded Cholesky solve of J J^T, O(T) for T
steps: the band is built straight from the map's kick slope and solved
by a direct LAPACK dpbsv call; scipy is loaded by the first step, not by
`import torusecho`. The step is damped by the first of the scales 1,
1/2, ..., 2^-16 that lowers the residual: scale 1 is tried alone, the
other 16 in one stacked defect call (split on long orbits), so an
iteration on a short orbit makes one or two calls. Orbits and their
pseudo-residuals are computed for a whole ensemble of starts at once
(`_orbits`, `_residuals`), bitwise the one-start results;
`shadow_survey` takes its starts `_SURVEY_BLOCK` at a time, so its orbit
storage does not grow with the orbit count. The one-step defect has one
implementation, `_orbit_defect`: the Newton iteration solves against it,
and a pseudo-residual is its largest magnitude.

The horizon out to which a perturbed orbit can stay near a true one
before the accumulated action difference reaches O(hbar) scales as
epsilon^(-1/2); `shadow_time_estimate` returns that scale.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    TWO_PI,
    MapSpec,
    _step_in_place,
    _wrap_in_place,
    count_problem,
    is_finite,
    kick_problem,
    perturbation_problem,
    step_ensemble,
    steps_problem,
    torus_distance,
)
from .errors import CapacityError, InvalidInputError, raise_problem
from .initial_states import _rng

_MAX_REFINE_STEPS = 10_000
# orbits in one survey; each is refined in turn
_MAX_SURVEY_COUNT = 100_000
# starts a survey steps together; at the step cap one block of orbits
# holds 64 x (10^4 + 1) x 2 floats, about 10 MB
_SURVEY_BLOCK = 64
_MIN_TOL = 1e-13
# the damping scales 1, 1/2, ..., 2^-16 in ladder order: scale 1 alone, then
# the other 16, each group one stacked _orbit_defect call
_DAMPING_GROUPS = tuple(np.split(0.5 ** np.arange(17.0), [1]))
# most orbit points one stacked trial call holds: the 16 damped scales are one
# call up to 128 points, one scale per call from 1025. On long orbits a call's
# overhead is small against its arithmetic, so stacking saves nothing there, and
# trials past the accepted scale made whole groups 1.4x slower at 10^4 steps
_TRIAL_POINTS = 2048


@dataclass(frozen=True)
class PseudoOrbit:
    """A finite orbit segment, points[t] = (q_t, p_t), t = 0..len-1."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise InvalidInputError(f"orbit needs shape (L, 2) with L >= 2, got {pts.shape}")
        if not ((pts >= 0.0) & (pts < 1.0)).all():  # nan fails this test too
            if not np.isfinite(pts).all():
                raise InvalidInputError("orbit contains non-finite coordinates")
            raise InvalidInputError("orbit coordinates must lie in [0, 1)")
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
    unperturbed map.
    """

    shadow_points: np.ndarray
    shadow_distance: float
    residual: float
    converged: bool
    iterations: int


def orbit_from_map(spec: MapSpec, start, steps: int) -> PseudoOrbit:
    """Orbit segment generated by iterating the perturbed map.

    The one-start case of the ensemble generator `_orbits`.
    """
    raise_problem(steps_problem(steps, minimum=1))
    raise_problem(perturbation_problem(spec.k, spec.epsilon))
    starts = np.array([(start[0], start[1])], dtype=np.float64)
    return PseudoOrbit(_orbits(spec, starts, steps)[0])


def _orbits(spec, starts, steps):
    """Perturbed-map orbit segments of every start at once, (len(starts), steps + 1, 2).

    The first step is the checked `step_ensemble`; its outputs are then
    stepped in place by the map kernel, one call per step for the whole
    ensemble.
    """
    pts = np.empty((starts.shape[0], steps + 1, 2))
    pts[:, 0] = starts
    q, p = step_ensemble(spec, starts[:, 0], starts[:, 1], perturbed=True)
    pts[:, 1, 0], pts[:, 1, 1] = q, p
    c = spec.kick_coefficient(True)
    arg, tmp = np.empty_like(q), np.empty_like(q)
    for t in range(2, steps + 1):
        _step_in_place(c, q, p, arg, tmp)
        pts[:, t, 0], pts[:, t, 1] = q, p
    return pts


def pseudo_residual(spec: MapSpec, orbit: PseudoOrbit) -> float:
    """Sup one-step defect of the orbit under the unperturbed map.

    max over steps t of the torus sup-distance between points[t+1] and
    the image of points[t]; zero iff the segment is a true unperturbed
    orbit.
    """
    raise_problem(kick_problem(spec.k))
    return float(_residuals(spec, orbit.points))


def _residuals(spec, pts):
    """Sup one-step defect of each segment in pts, shape (..., L, 2), in one map call."""
    return np.abs(_orbit_defect(spec, pts)).max(axis=(-2, -1))


def _orbit_defect(spec, pts):
    """Signed defect G[t] = points[t+1] - f(points[t]), f the unperturbed map, torus-wrapped.

    pts has shape (..., T+1, 2), the defect (..., T, 2); a leading axis
    stacks orbits. pts are PseudoOrbit points, `_orbits` blocks or wrapped
    trials, so finite and in [0, 1): the unchecked map kernel applies. The
    images are stepped in one coordinate-first copy, (2, ..., T), so q and
    p are contiguous at every length; the defect is a view of that copy,
    wrapped in place into [-0.5, 0.5], the shortest signed displacement.
    """
    coords_first = (pts.ndim - 1, *range(pts.ndim - 1))
    q, p = image = pts[..., :-1, :].transpose(coords_first).copy()
    _step_in_place(spec.kick_coefficient(False), q, p, np.empty_like(q), np.empty_like(q))
    defect = np.subtract(pts[..., 1:, :].transpose(coords_first), image, out=image)
    defect -= np.rint(defect)
    return defect.transpose((*range(1, pts.ndim), 0))


@functools.cache
def _dpbsv():
    """LAPACK's banded Cholesky solver, imported on first use: `import torusecho` loads no scipy."""
    from scipy.linalg.lapack import dpbsv
    return dpbsv


def _min_norm_newton_step(spec, pts, defect):
    """Minimum-norm correction dX with J dX = -G for the orbit equations.

    J is the 2T x 2(T+1) block bidiagonal orbit Jacobian (blocks -A_t and
    I, A_t = [[1 - K_t, 1], [-K_t, 1]] the tangent map at q_t, with kick
    slope K_t = dp'/dq); the least-norm solution is J^T (J J^T)^{-1} (-G).
    J J^T is block tridiagonal, with diagonal blocks D_t = A_t A_t^T + I
    and upper blocks (t, t+1) = -A_{t+1}^T, so it is symmetric positive
    definite with half-bandwidth 3. Its entries are written from K_t
    straight into LAPACK upper band storage, ab[3 + i - j, j] =
    (J J^T)[i, j], in the order of the products and sums of A_t A_t^T, and
    solved by a direct LAPACK dpbsv call (banded Cholesky). Returns None
    where no step exists in double precision: a band that is not positive
    definite (at kicks beyond about 10^7, A_t A_t^T + I rounds to a
    singular matrix). The band is finite: `kick_problem` keeps |k|/2pi
    below 2^52, so |K_t| < 2.9e16 and every band entry is below 1e33, and
    pts and their defect are finite.
    """
    big_t = pts.shape[0] - 1
    kick = spec.kick_coefficient(False) * TWO_PI * np.cos(TWO_PI * pts[:-1, 0])
    neg_kick = -kick
    a00 = 1.0 - kick
    # Fortran order and the overwrite flags: f2py hands both arrays to LAPACK uncopied
    ab = np.zeros((4, 2 * big_t), order="F")
    ab[3, 0::2] = a00 * a00 + 1.0 + 1.0
    ab[3, 1::2] = kick * kick + 1.0 + 1.0
    ab[2, 1::2] = a00 * neg_kick + 1.0
    ab[2, 2::2] = -1.0
    ab[1, 2::2] = -a00[1:]
    ab[1, 3::2] = -1.0
    ab[0, 3::2] = kick[1:]
    _, lam, info = _dpbsv()(ab, -defect.reshape(-1), overwrite_ab=1, overwrite_b=1)
    if info != 0:
        return None  # J J^T is singular in double precision
    lam = lam.reshape(big_t, 2)

    dx = np.empty((big_t + 1, 2))
    a0 = np.array([[a00[0], 1.0], [neg_kick[0], 1.0]])
    dx[0] = -a0.T @ lam[0]
    if big_t > 1:
        l0, l1 = lam[1:, 0], lam[1:, 1]
        np.subtract(lam[:-1, 0], a00[1:] * l0 + neg_kick[1:] * l1, out=dx[1:big_t, 0])
        np.subtract(lam[:-1, 1], l0 + l1, out=dx[1:big_t, 1])
    dx[big_t] = lam[big_t - 1]
    return dx


def _damped_trial(spec, pts, dx, res):
    """(points, defect, residual) at the first damping scale whose residual is below res.

    The scales are tried in ladder order: scale 1 alone, then the other 16
    in one stacked defect call, split where it would hold more than
    `_TRIAL_POINTS` orbit points; None when no scale lowers the residual (a
    stall). Every step is elementwise or an exact max, so the accepted trial
    is bitwise the one a one-scale-at-a-time ladder accepts.
    """
    per_call = max(1, _TRIAL_POINTS // len(pts))
    for group in _DAMPING_GROUPS:
        for lo in range(0, len(group), per_call):
            scales = group[lo : lo + per_call]
            trials = pts + scales[:, None, None] * dx
            _wrap_in_place(trials, np.empty_like(trials))
            defects = _orbit_defect(spec, trials)
            trial_res = np.abs(defects).max(axis=(1, 2))
            first = (trial_res < res).argmax()
            if trial_res[first] < res:
                # a copy: a view would keep the whole stack alive in the result
                return trials[first].copy(), defects[first], float(trial_res[first])
    return None


def _refine_problem(steps, tol, max_iter):
    """Why a refinement of `steps` steps at tol and max_iter cannot run, or None."""
    if steps > _MAX_REFINE_STEPS:
        return CapacityError, f"refinement supports up to {_MAX_REFINE_STEPS} steps, got {steps}"
    if not (is_finite(tol) and tol >= _MIN_TOL):
        return InvalidInputError, f"tol must be >= {_MIN_TOL}, got {tol!r}"
    return count_problem("max_iter", max_iter, 1)


def refine_shadow(
    spec: MapSpec,
    orbit: PseudoOrbit,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> ShadowResult:
    """Newton-refine a pseudo-orbit toward a true orbit of the unperturbed map.

    Endpoints are free; each iteration applies the minimum-norm correction
    at the largest damping scale 1, 1/2, ..., 2^-16 that lowers the sup
    residual, and stops (stalled) where none does; scale 1 is tested alone,
    the other 16 in one stacked call (`_DAMPING_GROUPS`, split on orbits of
    more than 128 points). Convergence means sup residual <= tol.

    Refinement can fail honestly: a segment that brushes a
    non-hyperbolic region (an island pass, where the one-step stability
    turns elliptic) may admit no nearby true orbit through that moment.
    The result then carries converged=False with the best points found,
    and the leftover defect is concentrated at the offending steps;
    the sub-segments on either side typically refine to full precision.
    Under kicks so strong (|k| beyond about 10^7) that the Newton system
    is singular in double precision, refinement stops the same way.

    Raises CapacityError for segments longer than 10^4 steps and
    InvalidInputError for tolerances below 1e-13 (under double
    precision the orbit equations cannot be satisfied more tightly), a
    max_iter that is no integer >= 1 or a k that the float map cannot
    carry (`kick_problem`).
    """
    raise_problem(_refine_problem(orbit.steps, tol, max_iter))
    raise_problem(kick_problem(spec.k))

    pts = orbit.points.copy()
    defect = _orbit_defect(spec, pts)
    res = float(np.abs(defect).max())
    iterations, converged = 0, res <= tol

    while not converged and iterations < max_iter:
        dx = _min_norm_newton_step(spec, pts, defect)
        if dx is None:
            break  # no Newton step; report best point found
        iterations += 1
        accepted = _damped_trial(spec, pts, dx, res)
        if accepted is None:
            break  # stalled; report best point found
        pts, defect, res = accepted
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

    The segments are generated and measured `_SURVEY_BLOCK` starts at a
    time as one ensemble (bitwise the one-start orbits), then refined one
    by one, in start order, through `refine_shadow`.

    fraction_converged below 1 is expected when orbits brush island
    regions (see refine_shadow); the residual bound diagnostics are
    unconditional.

    Every argument is checked before any start is drawn: CapacityError
    for more than 10^5 orbits or segments longer than 10^4 steps (a
    default length over that cap is refused in terms of epsilon),
    InvalidInputError for the other rules of refine_shadow, for an
    epsilon below the rounding of k (`perturbation_problem`) and for a
    kick the float map cannot carry (`kick_problem`).
    """
    raise_problem(count_problem("count", count, 1, _MAX_SURVEY_COUNT))
    t_shadow = shadow_time_estimate(spec.epsilon)
    if steps is None:
        steps = max(2, int(round(t_shadow)))
        if steps > _MAX_REFINE_STEPS:
            raise CapacityError(f"epsilon={spec.epsilon!r} sets the default length to the shadow "
                                f"horizon epsilon^-1/2 = {t_shadow:.6g} steps, over the refinement "
                                f"cap of {_MAX_REFINE_STEPS} steps; pass --steps (at most that)")
    raise_problem(steps_problem(steps, minimum=1))
    raise_problem(_refine_problem(steps, tol, max_iter))
    raise_problem(perturbation_problem(spec.k, spec.epsilon))
    # the orbits kick at k + epsilon, their refinement at k
    raise_problem(kick_problem(spec.k + spec.epsilon))
    raise_problem(kick_problem(spec.k))
    starts = _rng(seed).random((count, 2))
    bound = spec.epsilon / TWO_PI

    residuals = np.empty(count)
    distances = np.empty(count)
    final_residuals = np.empty(count)
    converged = np.zeros(count, dtype=bool)
    for lo in range(0, count, _SURVEY_BLOCK):
        block = _orbits(spec, starts[lo : lo + _SURVEY_BLOCK], steps)
        residuals[lo : lo + len(block)] = _residuals(spec, block)
        for i, pts in enumerate(block, start=lo):
            orb = PseudoOrbit(pts)
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
