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
1/2, ..., 2^-16 that lowers the residual. After a full step (and on the
first iteration) scale 1 is tried alone, then the other 16 in one
stacked defect call; after a damped step, which is most often followed
by another, all 17 go in one stacked call. Stacked calls are split on
long orbits, so an iteration on a short orbit makes one or two calls.
A refinement holds its orbit coordinate-first, a q row and a p row, in
arrays that each thread allocates once per orbit length and reuses
(`_Workspace`): the map kernel steps contiguous rows with no transposed
copy, an accepted trial swaps with the current orbit, and the Newton
step writes into fixed views of the band and its right-hand side.
Orbits and their pseudo-residuals are computed for a whole
ensemble of starts at once (`_orbits`, `_residuals`), bitwise the
one-start results; `shadow_survey` takes its starts `_SURVEY_BLOCK` at a
time, so its orbit storage does not grow with the orbit count. The
one-step defect has one implementation, `_orbit_defect`: the Newton
iteration solves against it, and a pseudo-residual is its largest
magnitude.

The horizon out to which a perturbed orbit can stay near a true one
before the accumulated action difference reaches O(hbar) scales as
epsilon^(-1/2); `shadow_time_estimate` returns that scale.
"""

from __future__ import annotations

import functools
import threading
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
    step_ensemble,  # noqa: F401  (not called here; torusbench traces it under this name)
    steps_problem,
    unit_problem,
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
# the damping ladder 1, 1/2, ..., 2^-16, tried in this order
_SCALES = 0.5 ** np.arange(17.0)
# most orbit points one stacked trial call holds: the 17 scales are one call up
# to 120 points, one scale per call from 1025. On long orbits a call's overhead
# is small against its arithmetic, so stacking saves nothing there, and trials
# past the accepted scale made whole groups 1.4x slower at 10^4 steps
_TRIAL_POINTS = 2048


@dataclass(frozen=True)
class PseudoOrbit:
    """A finite orbit segment, points[t] = (q_t, p_t), t = 0..len-1."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise InvalidInputError(f"orbit needs shape (L, 2) with L >= 2, got {pts.shape}")
        raise_problem(unit_problem("orbit", pts))
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

    The one-start case of the ensemble generator `_orbits`. The start must
    be finite and in [0, 1) (`unit_problem`); it is refused before any map
    step, as is a kick the float map cannot carry (`kick_problem`).
    """
    raise_problem(steps_problem(steps, minimum=1))
    raise_problem(perturbation_problem(spec.k, spec.epsilon))
    raise_problem(kick_problem(spec.k + spec.epsilon))
    starts = np.array([(start[0], start[1])], dtype=np.float64)
    raise_problem(unit_problem("orbit start", starts))
    return PseudoOrbit(_orbits(spec, starts, steps)[0])


def _orbits(spec, starts, steps):
    """Perturbed-map orbit segments of every start at once, (len(starts), steps + 1, 2).

    The starts are finite points of [0, 1) (`unit_problem`); copies of them
    are stepped in place by the map kernel, one call per step for the whole
    ensemble.
    """
    pts = np.empty((starts.shape[0], steps + 1, 2))
    pts[:, 0] = starts
    q, p = starts[:, 0].copy(), starts[:, 1].copy()
    c = spec.kick_coefficient(True)
    arg, tmp = np.empty_like(q), np.empty_like(q)
    for t in range(1, steps + 1):
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
    """The arrays a refinement of a T-step orbit works in: one set a thread and orbit length.

    x (the current orbit), trial and dx (the Newton step) are
    coordinate-first, (2, T+1); defect and trial_defect are their defects,
    (2, T). An accepted trial swaps with x. The Newton step writes slopes
    (rows a00 = 1 - K_t and kick = K_t), a0 = A_0, band (J J^T in LAPACK
    upper band storage, through fixed views: `diagonal`, the main
    diagonal, with its (1 - K_t)^2 and K_t^2 entries diagonal_q and
    diagonal_p, and upper1, upper2 and upper3, the entries of the upper
    rows that change) and rhs, which `multipliers` views as (2, T).
    dpbsv overwrites band and rhs, the latter with the multipliers, so each
    step first copies the band's constant entries from template. `ladder`
    (scales 1, ..., 2^-16) and `damped` (1/2, ..., 2^-16) split the scales
    into stacked trial calls of at most `_TRIAL_POINTS` orbit points, each
    as its first ladder position, its scale column and its views of a
    stack of up to 17 trial orbits, (2, S, T+1), with their wrap scratch,
    defects and kernel scratch. wrap, scratch and terms are scratch; the
    other attributes are fixed views of these arrays.
    """

    def __init__(self, length):
        big_t = length - 1
        orbit, defect = (2, length), (2, big_t)
        self.length = length
        # one np.empty a buffer: unpacking rows of one allocation costs more per row
        self.x, self.trial, self.wrap, self.dx = (np.empty(orbit), np.empty(orbit),
                                                  np.empty(orbit), np.empty(orbit))
        self.defect, self.trial_defect, self.scratch = np.empty(defect), np.empty(defect), np.empty(defect)
        self.slopes, self.terms = np.empty(defect), np.empty(defect)
        self.a00, self.kick = self.slopes[0], self.slopes[1]
        self.a00_tail, self.kick_tail = self.a00[1:], self.kick[1:]
        self.a0 = np.array([[0.0, 1.0], [0.0, 1.0]])
        self.a0t = self.a0.T
        # Fortran order and the overwrite flags: f2py hands band and rhs to LAPACK uncopied
        self.template = np.zeros((4, 2 * big_t), order="F")
        self.template[2, 2::2] = self.template[1, 3::2] = -1.0
        self.band = np.empty_like(self.template)
        # the main diagonal, its (1 - K_t)^2 and K_t^2 entries: 1-D views, since a
        # ufunc writes a strided 2-D view by its slower general loop
        self.diagonal, self.diagonal_q, self.diagonal_p = self.band[3], self.band[3, 0::2], self.band[3, 1::2]
        self.upper1, self.upper2, self.upper3 = self.band[2, 1::2], self.band[1, 2::2], self.band[0, 3::2]
        self.rhs = np.empty(2 * big_t)
        self.multipliers = self.rhs.reshape(big_t, 2).T
        self.lam_q, self.lam_p = self.multipliers
        self.lam0, self.lam_head, self.lam_last = self.rhs[:2], self.multipliers[:, :-1], self.rhs[-2:]
        self.terms0, self.terms1, self.terms_tail = self.terms[0], self.terms[1], self.terms[:, 1:]
        self.dx0, self.dx_inner, self.dx_last = self.dx[:, 0], self.dx[:, 1:big_t], self.dx[:, big_t]
        self.dx_stack = self.dx[:, None]

        per_call = max(1, _TRIAL_POINTS // length)
        stack = min(per_call, len(_SCALES))
        # the stacked trials, their wrap scratch, their defects and the kernel's scratch
        buffers = [np.empty((2, stack, n)) for n in (length, length, big_t, big_t)]

        def groups(start):
            return [
                (lo, scales, *(b[:, : len(scales)] for b in buffers))
                for lo in range(start, len(_SCALES), per_call)
                for scales in [_SCALES[lo : lo + per_call, None]]
            ]

        self.ladder, self.damped = groups(0), groups(1)


_THREAD = threading.local()


def _workspace(points):
    """This thread's `_Workspace` for len(points) points, with the (L, 2) points copied into x.

    One is kept a thread and replaced when the orbit length changes; every
    buffer is written before it is read, so nothing of an earlier refinement
    reaches the next.
    """
    work = getattr(_THREAD, "work", None)
    if work is None or work.length != len(points):
        work = _THREAD.work = _Workspace(len(points))
    work.x[...] = points.T
    return work


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
    a00, kick, slopes, diagonal = work.a00, work.kick, work.slopes, work.diagonal
    np.multiply(work.x[0, :-1], TWO_PI, out=kick)
    np.cos(kick, out=kick)
    kick *= spec.kick_coefficient(False) * TWO_PI
    np.subtract(1.0, kick, out=a00)
    work.band[...] = work.template
    # (1 - K_t)^2 + 1 + 1 and K_t^2 + 1 + 1, then (1 - K_t)(-K_t) + 1, taken as
    # 1 - (1 - K_t) K_t: negation is exact, so the bits are the same
    np.multiply(a00, a00, out=work.diagonal_q)
    np.multiply(kick, kick, out=work.diagonal_p)
    diagonal += 1.0
    diagonal += 1.0
    np.multiply(a00, kick, out=work.terms0)
    np.subtract(1.0, work.terms0, out=work.upper1)
    np.negative(work.a00_tail, out=work.upper2)
    work.upper3[...] = work.kick_tail
    multipliers = work.multipliers
    np.negative(work.defect, out=multipliers)
    info = _dpbsv()(work.band, work.rhs, overwrite_ab=1, overwrite_b=1)[2]
    if info != 0:
        return None  # J J^T is singular in double precision
    # solved in place: rhs, which multipliers views, now holds lambda

    a0, terms = work.a0, work.terms
    a0[0, 0], a0[1, 0] = a00[0], -kick[0]
    work.dx0[...] = -work.a0t @ work.lam0
    # dx_t = lam_{t-1} - A_t^T lam_t: rows (1 - K_t) l0 + (-K_t) l1, taken as
    # (1 - K_t) l0 - K_t l1, and l0 + l1
    np.multiply(slopes, multipliers, out=terms)
    np.subtract(work.terms0, work.terms1, out=work.terms0)
    np.add(work.lam_q, work.lam_p, out=work.terms1)
    np.subtract(work.lam_head, work.terms_tail, out=work.dx_inner)
    work.dx_last[...] = work.lam_last
    return work.dx


def _sup_defect(defect, scratch):
    """max |defect| of one orbit, as a float; scratch has the defect's shape."""
    # ndarray.max's Python wrapper costs as much as the reduction on 10-30 points
    return float(np.maximum.reduce(np.abs(defect, out=scratch), axis=None))


def _damped_trial(spec, work, res, alone):
    """The first damping scale whose residual is below res, as (residual, ladder position), or None (a stall).

    The scales are tried in ladder order, 1, 1/2, ..., 2^-16. With `alone`
    (on the first iteration and after one that took scale 1) scale 1 is
    tried by itself, in work.trial, and the other 16 follow in stacked
    defect calls; without it (after a damped step, which is most often
    followed by another) all 17 are stacked. A stacked call holds at most
    `_TRIAL_POINTS` orbit points. The accepted trial and its defect are
    left in work.trial and work.trial_defect. Every step is elementwise or
    an exact max, and a stacked scale 1 gives x + dx as the lone trial does,
    so the accepted trial is bitwise the one a one-scale-at-a-time ladder
    accepts.
    """
    x = work.x
    if alone:
        trial = work.trial
        np.add(x, work.dx, out=trial)
        _wrap_in_place(trial, work.wrap)
        trial_res = _sup_defect(_orbit_defect(spec, trial, work.trial_defect, work.scratch), work.scratch)
        if trial_res < res:
            return trial_res, 0
    for lo, scales, trials, wrap, defects, scratch in work.damped if alone else work.ladder:
        # scale dx + x: addition commutes, so these are the bits of x + scale dx
        np.multiply(scales, work.dx_stack, out=trials)
        trials += x[:, None]
        _wrap_in_place(trials, wrap)
        _orbit_defect(spec, trials, defects, scratch)
        trial_res = np.maximum.reduce(np.abs(defects, out=scratch), axis=(0, 2))
        first = (trial_res < res).argmax()
        if trial_res[first] < res:
            work.trial[...] = trials[:, first]
            work.trial_defect[...] = defects[:, first]
            return float(trial_res[first]), lo + int(first)
    return None


def _shadow_distance(work, points):
    """Sup torus distance between work.x and the (L, 2) points, in the free buffers
    work.wrap and work.trial: max over every coordinate of |d - rint(d)|, d = x - y,
    the shortest wrap that `_orbit_defect` takes."""
    d = np.subtract(work.x, points.T, out=work.wrap)
    d -= np.rint(d, out=work.trial)
    return float(np.maximum.reduce(np.abs(d, out=d), axis=None))


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
    residual, and stops (stalled) where none does. On the first iteration
    and after one that took scale 1, scale 1 is tested alone and the other
    16 in one stacked call; after a damped iteration all 17 go in one
    stacked call (stacked calls are split on orbits of more than 120
    points). Convergence means sup residual <= tol.

    The refinement works on the orbit coordinate-first, as a q row and a p
    row, in arrays that each thread allocates once per orbit length and
    reuses (`_Workspace`); an accepted step swaps the trial with the
    current orbit. The result's points are a fresh (L, 2) array that
    shares no memory with the input, the work arrays or other results.

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

    work = _workspace(orbit.points)
    res = _sup_defect(_orbit_defect(spec, work.x, work.defect, work.scratch), work.scratch)
    iterations, converged, alone = 0, res <= tol, True

    while not converged and iterations < max_iter:
        if _min_norm_newton_step(spec, work) is None:
            break  # no Newton step; report best point found
        iterations += 1
        accepted = _damped_trial(spec, work, res, alone)
        if accepted is None:
            break  # stalled; report best point found
        res, position = accepted
        alone = position == 0
        work.x, work.trial = work.trial, work.x
        work.defect, work.trial_defect = work.trial_defect, work.defect
        converged = res <= tol

    return ShadowResult(
        shadow_points=work.x.T.copy(),
        shadow_distance=_shadow_distance(work, orbit.points),
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
