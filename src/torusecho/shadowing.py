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
iteration on a short orbit makes one or two calls. A refinement holds its
orbit coordinate-first, a q row and a p row, in arrays allocated once
(`_Workspace`): the map kernel steps contiguous rows with no transposed
copy, an accepted trial swaps with the current orbit, and an iteration on
a short orbit, where per-call overhead decides the speed, makes about 50
numpy calls. The float operations are those of the earlier (L, 2)
construction, in the same order, so no result bit moved. Orbits and their
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
# the damping scales after 1: 1/2, ..., 2^-16 in ladder order, tried in one
# stacked _orbit_defect call once scale 1, tried alone, fails
_DAMPED_SCALES = 0.5 ** np.arange(1.0, 17.0)
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
    x = np.moveaxis(pts, -1, 0)
    defect, scratch = np.empty(x[..., 1:].shape), np.empty(x[..., 1:].shape)
    _orbit_defect(spec, x, defect, scratch)
    return np.abs(defect, out=scratch).max(axis=(0, -1))


def _orbit_defect(spec, x, defect, scratch):
    """Signed defect G[t] = x[:, t+1] - f(x[:, t]), f the unperturbed map, torus-wrapped.

    x is coordinate-first, (2, ..., T+1): a q row and a p row, with an
    optional middle axis that stacks orbits. The defect is written into
    `defect`, (2, ..., T), and returned; `scratch`, of the same shape, is
    the kernel's. x holds PseudoOrbit points, `_orbits` blocks or wrapped
    trials, so finite and in [0, 1): the unchecked map kernel applies. The
    images are stepped in `defect` itself, so q and p are contiguous rows
    at every length; the defect is then wrapped in place into
    [-0.5, 0.5], the shortest signed displacement.
    """
    defect[...] = x[..., :-1]
    _step_in_place(spec.kick_coefficient(False), defect[0], defect[1], scratch[0], scratch[1])
    np.subtract(x[..., 1:], defect, out=defect)
    defect -= np.rint(defect, out=scratch)
    return defect


@functools.cache
def _dpbsv():
    """LAPACK's banded Cholesky solver, imported on first use: `import torusecho` loads no scipy."""
    from scipy.linalg.lapack import dpbsv
    return dpbsv


class _Workspace:
    """The arrays one refinement of a T-step orbit works in, each allocated once.

    x (the current orbit), trial and dx (the Newton step) are
    coordinate-first, (2, T+1); defect and trial_defect are their defects,
    (2, T). An accepted scale-1 trial swaps with x. The Newton step writes
    slopes (rows a00 = 1 - K_t and kick = K_t), a0 = A_0, band (J J^T in
    LAPACK upper band storage; `diagonal` views its main diagonal as
    (2, T)) and rhs. dpbsv overwrites band and rhs, so each step first
    copies the band's constant entries from template. wrap, scratch, terms
    and multipliers are scratch.
    """

    def __init__(self, points):
        big_t = len(points) - 1
        orbit, defect = (2, big_t + 1), (2, big_t)
        # one np.empty a buffer: unpacking rows of one allocation costs more per row
        self.x = points.T.copy()
        self.trial, self.wrap, self.dx = np.empty(orbit), np.empty(orbit), np.empty(orbit)
        self.defect, self.trial_defect, self.scratch = np.empty(defect), np.empty(defect), np.empty(defect)
        self.slopes, self.terms, self.multipliers = np.empty(defect), np.empty(defect), np.empty(defect)
        self.a00, self.kick = self.slopes[0], self.slopes[1]
        self.a0 = np.array([[0.0, 1.0], [0.0, 1.0]])
        # Fortran order and the overwrite flags: f2py hands band and rhs to LAPACK uncopied
        self.template = np.zeros((4, 2 * big_t), order="F")
        self.template[2, 2::2] = self.template[1, 3::2] = -1.0
        self.band = np.empty_like(self.template)
        self.diagonal = self.band[3].reshape(big_t, 2).T
        self.rhs = np.empty(2 * big_t)


def _min_norm_newton_step(spec, work):
    """Minimum-norm correction dX with J dX = -G for the orbit equations, in work.dx.

    J is the 2T x 2(T+1) block bidiagonal orbit Jacobian (blocks -A_t and
    I, A_t = [[1 - K_t, 1], [-K_t, 1]] the tangent map at q_t, with kick
    slope K_t = dp'/dq); the least-norm solution is J^T (J J^T)^{-1} (-G).
    J J^T is block tridiagonal, with diagonal blocks D_t = A_t A_t^T + I
    and upper blocks (t, t+1) = -A_{t+1}^T, so it is symmetric positive
    definite with half-bandwidth 3. Its entries are written from K_t
    straight into LAPACK upper band storage, ab[3 + i - j, j] =
    (J J^T)[i, j], in the order of the products and sums of A_t A_t^T, and
    solved by a direct LAPACK dpbsv call (banded Cholesky). The orbit and
    its defect G are work.x and work.defect (see `_Workspace`). Returns
    None where no step exists in double precision: a band that is not
    positive definite (at kicks beyond about 10^7, A_t A_t^T + I rounds to
    a singular matrix). The band is finite: `kick_problem` keeps |k|/2pi
    below 2^52, so |K_t| < 2.9e16 and every band entry is below 1e33, and
    the orbit and its defect are finite.
    """
    a00, kick, slopes = work.a00, work.kick, work.slopes
    terms, multipliers = work.terms, work.multipliers
    big_t = kick.shape[0]
    np.multiply(work.x[0, :-1], TWO_PI, out=kick)
    np.cos(kick, out=kick)
    kick *= spec.kick_coefficient(False) * TWO_PI
    np.subtract(1.0, kick, out=a00)
    ab = work.band
    ab[...] = work.template
    # (1 - K_t)^2 + 1 + 1 and K_t^2 + 1 + 1, then (1 - K_t)(-K_t) + 1, taken as
    # 1 - (1 - K_t) K_t: negation is exact, so the bits are the same
    np.multiply(slopes, slopes, out=terms)
    terms += 1.0
    terms += 1.0
    work.diagonal[...] = terms
    np.multiply(a00, kick, out=terms[0])
    np.subtract(1.0, terms[0], out=ab[2, 1::2])
    np.negative(a00[1:], out=ab[1, 2::2])
    ab[0, 3::2] = kick[1:]
    rhs = work.rhs
    rhs.reshape(big_t, 2)[...] = work.defect.T
    np.negative(rhs, out=rhs)
    _, lam, info = _dpbsv()(ab, rhs, overwrite_ab=1, overwrite_b=1)
    if info != 0:
        return None  # J J^T is singular in double precision
    lam = lam.reshape(big_t, 2)

    dx, a0 = work.dx, work.a0
    a0[0, 0], a0[1, 0] = a00[0], -kick[0]
    dx[:, 0] = -a0.T @ lam[0]
    # dx_t = lam_{t-1} - A_t^T lam_t: rows (1 - K_t) l0 + (-K_t) l1, taken as
    # (1 - K_t) l0 - K_t l1, and l0 + l1
    multipliers[...] = lam.T
    np.multiply(slopes, multipliers, out=terms)
    np.subtract(terms[0], terms[1], out=terms[0])
    np.add(multipliers[0], multipliers[1], out=terms[1])
    np.subtract(multipliers[:, :-1], terms[:, 1:], out=dx[:, 1:big_t])
    dx[:, big_t] = lam[big_t - 1]
    return dx


def _sup_defect(defect, scratch):
    """max |defect| of one orbit, as a float; scratch has the defect's shape."""
    # ndarray.max's Python wrapper costs as much as the reduction on 10-30 points
    return float(np.maximum.reduce(np.abs(defect, out=scratch), axis=None))


def _damped_trial(spec, work, res):
    """Residual at the first damping scale whose residual is below res, or None (a stall).

    The scales are tried in ladder order: scale 1 alone, in work.trial,
    then the other 16 in one stacked defect call, split where it would hold
    more than `_TRIAL_POINTS` orbit points. The accepted trial and its
    defect are left in work.trial and work.trial_defect. Every step is
    elementwise or an exact max, so the accepted trial is bitwise the one a
    one-scale-at-a-time ladder accepts.
    """
    x, dx, trial = work.x, work.dx, work.trial
    np.add(x, dx, out=trial)
    _wrap_in_place(trial, work.wrap)
    trial_res = _sup_defect(_orbit_defect(spec, trial, work.trial_defect, work.scratch), work.scratch)
    if trial_res < res:
        return trial_res
    length = x.shape[1]
    per_call = max(1, _TRIAL_POINTS // length)
    for lo in range(0, len(_DAMPED_SCALES), per_call):
        scales = _DAMPED_SCALES[lo : lo + per_call, None]
        trials = x[:, None] + scales * dx[:, None]
        _wrap_in_place(trials, np.empty_like(trials))
        defects, scratch = np.empty(trials[..., 1:].shape), np.empty(trials[..., 1:].shape)
        _orbit_defect(spec, trials, defects, scratch)
        trial_res = np.abs(defects, out=scratch).max(axis=(0, 2))
        first = (trial_res < res).argmax()
        if trial_res[first] < res:
            trial[...] = trials[:, first]
            work.trial_defect[...] = defects[:, first]
            return float(trial_res[first])
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
    the other 16 in one stacked call (split on orbits of more than 128
    points). Convergence means sup residual <= tol.

    The refinement works on the orbit coordinate-first, as a q row and a p
    row, in arrays allocated once (`_Workspace`); an accepted step swaps
    the trial with the current orbit. The result's points are a fresh
    (L, 2) array that shares no memory with the input or the work arrays.
    The float operations are those of the earlier (L, 2) construction that
    allocated every array afresh, in the same order, so no result bit
    moved.

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

    work = _Workspace(orbit.points)
    res = _sup_defect(_orbit_defect(spec, work.x, work.defect, work.scratch), work.scratch)
    iterations, converged = 0, res <= tol

    while not converged and iterations < max_iter:
        if _min_norm_newton_step(spec, work) is None:
            break  # no Newton step; report best point found
        iterations += 1
        trial_res = _damped_trial(spec, work, res)
        if trial_res is None:
            break  # stalled; report best point found
        work.x, work.trial = work.trial, work.x
        work.defect, work.trial_defect = work.trial_defect, work.defect
        res = trial_res
        converged = res <= tol

    points = work.x.T.copy()
    distance = float(torus_distance(points, orbit.points).max())
    return ShadowResult(
        shadow_points=points,
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
