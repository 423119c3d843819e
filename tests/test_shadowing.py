"""Pseudo-orbit residual bounds and Newton shadow refinement."""

import hashlib
import importlib.machinery
import json
import math
import os
import re
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from torusecho import (
    CapacityError,
    InvalidInputError,
    MapSpec,
    PseudoOrbit,
    orbit_from_map,
    pseudo_residual,
    refine_shadow,
    shadow_survey,
    shadow_time_estimate,
    step_ensemble,
    wrap_unit,
)
from torusecho import quantum, shadowing
from torusecho.cli import main
from torusecho.dynamics import TWO_PI, kick_problem
from torusecho.shadowing import _defect_views, _min_norm_newton_step, _orbit_defect

from fresh import run_fresh
from map_reference import step_ref, torus_distance_ref

MIXED = MapSpec(0.8, 5e-3, 1000)
CHAOTIC = MapSpec(10.0, 2e-3, 1000)
KICK_BOUND = lambda spec: spec.epsilon / (2 * np.pi)  # noqa: E731


def _defect(spec, pts):
    """`_orbit_defect` of (L, 2) points, as (T, 2); the refinement works coordinate-first."""
    shape = (2, len(pts) - 1)
    views = _defect_views(np.ascontiguousarray(pts.T), np.empty(shape), np.empty(shape))
    return _orbit_defect(spec.kick_coefficient(False), views).T


def _newton_step(spec, pts, defect):
    """`_min_norm_newton_step` on (L, 2) points and their (T, 2) defect: dx as (L, 2), or None."""
    work = shadowing._Workspace(len(pts))
    work.x[...], work.defect[...] = pts.T, defect.T
    dx = _min_norm_newton_step(np.array(spec.kick_coefficient(False) * TWO_PI), work)
    return None if dx is None else dx.T.copy()


def _perturbed_target(spec):
    """The spec whose unperturbed map is spec's perturbed map."""
    return MapSpec(spec.k + spec.epsilon, 0.0, spec.dim_n)


def test_orbit_container_validation():
    with pytest.raises(InvalidInputError):
        PseudoOrbit(np.zeros((1, 2)))  # too short
    with pytest.raises(InvalidInputError):
        PseudoOrbit(np.zeros((5, 3)))
    with pytest.raises(InvalidInputError):
        PseudoOrbit(np.full((5, 2), 1.5))  # off torus
    orb = PseudoOrbit(np.full((5, 2), 0.25))
    assert len(orb) == 5 and orb.steps == 4


def test_orbit_defect_is_the_shortest_signed_displacement():
    # each point is its predecessor's image moved by a known jump; the defect
    # recovers the jump wrapped into [-0.5, 0.5], and the residual is its sup
    jumps = np.array([[0.6, -0.6], [0.49, 1.2], [-3.3, 0.45]])
    pts = np.empty((4, 2))
    pts[0] = (0.37, 0.21)
    for t, (dq, dp) in enumerate(jumps):
        q, p = step_ensemble(MIXED, pts[t, 0], pts[t, 1])
        pts[t + 1] = wrap_unit(q + dq), wrap_unit(p + dp)
    defect = _defect(MIXED, pts)
    assert np.all(np.abs(defect) <= 0.5)
    assert np.abs(defect - [[-0.4, 0.4], [0.49, 0.2], [-0.3, 0.45]]).max() < 1e-12
    assert pseudo_residual(MIXED, PseudoOrbit(pts)) == np.abs(defect).max()


@pytest.mark.parametrize("spec", [MIXED, CHAOTIC])
def test_exact_orbit_has_zero_residual_against_own_map(spec):
    orb = orbit_from_map(spec, (0.37, 0.21), 100)
    assert pseudo_residual(_perturbed_target(spec), orb) == 0.0
    orb0 = orbit_from_map(spec.with_epsilon(0.0), (0.37, 0.21), 100)
    assert pseudo_residual(spec, orb0) == 0.0


@pytest.mark.parametrize("spec", [MIXED, CHAOTIC])
def test_perturbed_orbit_residual_bounded_by_kick(spec):
    for seed, start in enumerate([(0.4, 0.2), (0.9, 0.7), (0.11, 0.53)]):
        orb = orbit_from_map(spec, start, 500)
        r = pseudo_residual(spec, orb)
        assert 0.0 < r <= KICK_BOUND(spec)


def _noisy_orbit(spec, start, steps, delta, seed):
    """Perturbed-map orbit with uniform jump noise in [-delta, delta]^2 after each step."""
    jumps = (2.0 * np.random.Generator(np.random.Philox(key=seed)).random((steps, 2)) - 1.0)
    jumps *= delta
    pts = np.empty((steps + 1, 2))
    pts[0] = start
    for t in range(steps):
        q, p = step_ensemble(spec, pts[t, 0], pts[t, 1], perturbed=True)
        pts[t + 1] = wrap_unit(q + jumps[t, 0]), wrap_unit(p + jumps[t, 1])
    return PseudoOrbit(pts)


def test_noisy_orbit_residual_bounded():
    delta = 2e-4
    orb = _noisy_orbit(MIXED, (0.3, 0.8), 400, delta=delta, seed=5)
    r = pseudo_residual(MIXED, orb)
    assert r <= delta + KICK_BOUND(MIXED)
    # noise-free residual vs the generating map is within delta alone
    assert pseudo_residual(_perturbed_target(MIXED), orb) <= delta


@pytest.mark.parametrize("spec,steps", [(MIXED, 200), (CHAOTIC, 100)])
def test_refinement_finds_true_orbit(spec, steps):
    orb = orbit_from_map(spec, (0.37, 0.61), steps)
    res = refine_shadow(spec, orb, tol=1e-11)
    assert res.converged
    assert res.residual <= 1e-11
    # the refined points really are an unperturbed orbit
    refined = PseudoOrbit(res.shadow_points)
    assert pseudo_residual(spec, refined) <= 1e-11
    assert res.shadow_points.shape == orb.points.shape
    assert 0.0 < res.shadow_distance < 0.5


def test_chaotic_shadow_stays_close():
    # strong hyperbolicity keeps the true orbit near the pseudo-orbit
    orb = orbit_from_map(CHAOTIC, (0.37, 0.61), 100)
    res = refine_shadow(CHAOTIC, orb, tol=1e-11)
    assert res.converged
    assert res.shadow_distance < 0.05  # measured ~2.4e-3


def test_true_orbit_needs_no_iterations():
    orb = orbit_from_map(MIXED.with_epsilon(0.0), (0.4, 0.2), 50)
    res = refine_shadow(MIXED, orb, tol=1e-10)
    assert res.converged and res.iterations == 0
    assert res.residual == 0.0
    assert res.shadow_distance == 0.0


def test_shadow_distance_is_the_written_out_torus_distance_bitwise():
    """Pairs where a shortest-wrap rule could slip: uniform, one ulp apart,
    0.5 apart, about 1 apart and subnormal, each against the written-out rule."""
    rng = np.random.default_rng(11)
    x, near, low, tiny = (rng.random((500, 2)) for _ in range(4))
    low *= 1e-3
    tiny *= 1e-310
    cases = [
        (x, rng.random((500, 2))),
        (near, np.nextafter(near, rng.choice([0.0, 1.0], (500, 2)))),
        (0.5 * x, 0.5 * x + 0.5),
        (low, 1.0 - low),
        (tiny, rng.random((500, 2)) * 1e-310),
    ]
    whole, pair = shadowing._Workspace(500), shadowing._Workspace(2)
    for a, b in cases:
        b = np.where(b >= 1.0, 0.0, b)  # a point that rounds up to 1.0 is the point 0.0
        want = torus_distance_ref(a, b)
        whole.x[...] = a.T
        assert shadowing._shadow_distance(whole, b).hex() == float(want.max()).hex()
        for i in range(0, len(a), 2):  # two points at a time, so no pair hides behind the max
            pair.x[...] = a[i:i + 2].T
            got = shadowing._shadow_distance(pair, b[i:i + 2])
            assert got.hex() == float(want[i:i + 2].max()).hex()


def test_refine_toward_perturbed_map():
    orb = _noisy_orbit(CHAOTIC, (0.2, 0.9), 80, delta=1e-4, seed=8)
    target = _perturbed_target(CHAOTIC)
    res = refine_shadow(target, orb, tol=1e-11)
    assert res.converged
    refined = PseudoOrbit(res.shadow_points)
    assert pseudo_residual(target, refined) <= 1e-11


def test_refine_capacity_and_tolerance_limits():
    orb = orbit_from_map(MIXED, (0.4, 0.2), 10)
    with pytest.raises(InvalidInputError):
        refine_shadow(MIXED, orb, tol=1e-14)
    for max_iter in (0, -1, 2.5, float("nan"), True, 3.0):
        with pytest.raises(InvalidInputError, match="max_iter must be an integer >= 1"):
            refine_shadow(MIXED, orb, max_iter=max_iter)
    assert refine_shadow(MIXED, orb, max_iter=np.int64(1)).iterations == 1
    long_pts = np.full((10_002, 2), 0.25)
    with pytest.raises(CapacityError):
        refine_shadow(MIXED, PseudoOrbit(long_pts), tol=1e-10)


def test_survey_refuses_long_segments_before_any_map_step(monkeypatch, capsys):
    steps_taken = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            steps_taken.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(shadowing, "step_ensemble", counted(shadowing.step_ensemble))
    monkeypatch.setattr(shadowing, "_step_in_place", counted(shadowing._step_in_place))
    with pytest.raises(CapacityError):
        shadow_survey(MIXED, count=1, steps=20_000)
    assert main(["shadow", "--steps", "20000", "--count", "1"]) == 3
    assert "10000 steps" in capsys.readouterr().err
    assert steps_taken == []
    shadow_survey(MIXED, count=1, steps=3)  # the counting does see map steps
    assert steps_taken


def test_shadow_time_estimate_values():
    assert shadow_time_estimate(5e-3) == pytest.approx(14.142135623730951, rel=1e-15)
    assert shadow_time_estimate(2e-3) == pytest.approx(22.360679774997898, rel=1e-15)
    assert shadow_time_estimate(1.0) == 1.0
    with pytest.raises(InvalidInputError):
        shadow_time_estimate(0.0)
    with pytest.raises(InvalidInputError):
        shadow_time_estimate(-1e-3)
    with pytest.raises(InvalidInputError):
        shadow_time_estimate(float("nan"))


def test_shadow_survey_report():
    report = shadow_survey(CHAOTIC, count=6, steps=40, seed=1, tol=1e-9)
    assert report["count"] == 6
    assert report["steps"] == 40
    assert report["bound_violations"] == 0
    # island passes block full convergence for some chaotic-regime orbits
    assert report["fraction_converged"] >= 0.8
    assert report["max_pseudo_residual"] <= report["residual_bound"]
    # refinement never worsens an orbit: residual stays within the bound
    assert report["max_refined_residual"] <= report["residual_bound"]
    assert report["shadow_time"] == pytest.approx(22.360679774997898)
    with pytest.raises(InvalidInputError):
        shadow_survey(CHAOTIC, count=0)


def test_glitch_orbit_reports_honest_failure():
    """An island pass blocks refinement; both sub-segments still refine."""
    start = np.random.Generator(np.random.Philox(key=1002)).random(2)
    orb = orbit_from_map(CHAOTIC, start, 40)
    res = refine_shadow(CHAOTIC, orb, tol=1e-11, max_iter=80)
    assert not res.converged
    assert res.residual <= pseudo_residual(CHAOTIC, orb)
    defect = _defect(CHAOTIC, res.shadow_points)
    worst = int(np.argmax(np.abs(defect).max(axis=1)))
    head = refine_shadow(CHAOTIC, PseudoOrbit(orb.points[:worst]), tol=1e-11, max_iter=60)
    tail = refine_shadow(CHAOTIC, PseudoOrbit(orb.points[worst + 2 :]), tol=1e-11, max_iter=60)
    assert head.converged and tail.converged


def _fail_on_map_step(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("map step taken under a refused argument")

    monkeypatch.setattr(shadowing, "step_ensemble", never)
    monkeypatch.setattr(shadowing, "_step_in_place", never)
    monkeypatch.setattr(shadowing, "_rng", never)


@pytest.mark.parametrize(
    "start",
    [(float("nan"), 0.2), (1.5, 0.2), (0.1, 0.2, 0.3), (0.5,), [[0.1, 0.2]], 0.3],
    ids=["nan", "off-torus", "three-coordinates", "one-coordinate", "nested", "scalar"],
)
def test_orbit_from_map_refuses_a_start_off_the_torus_before_any_map_step(monkeypatch, start):
    _fail_on_map_step(monkeypatch)
    with pytest.raises(InvalidInputError, match="orbit start"):
        orbit_from_map(MIXED, start, 5)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": 1e-14},
        {"tol": float("nan")},
        {"max_iter": 0},
        {"max_iter": 2.5},
        {"max_iter": float("nan")},
        {"max_iter": True},
        {"steps": 0},
        {"steps": 2.5},
    ],
)
def test_survey_checks_every_argument_before_any_start_is_drawn(monkeypatch, kwargs):
    _fail_on_map_step(monkeypatch)
    with pytest.raises(InvalidInputError):
        shadow_survey(MIXED, **{"count": 20_000, "steps": 5_000, **kwargs})


def test_cli_shadow_refused_refinement_exits_2_without_a_map_step(monkeypatch, capsys):
    _fail_on_map_step(monkeypatch)
    argv = ["shadow", "--count", "20000", "--steps", "5000"]
    assert main([*argv, "--tol", "1e-14"]) == 2
    assert "tol must be >= 1e-13" in capsys.readouterr().err
    assert main([*argv, "--max-iter", "0"]) == 2
    assert "max_iter must be an integer >= 1" in capsys.readouterr().err
    assert main(["shadow", "--count", "1", "--steps", "0"]) == 2
    assert "steps must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon, horizon", [("1e-9", "31622.8"), ("1e-20", "1e+10")])
def test_cli_shadow_default_length_over_the_cap_names_epsilon(monkeypatch, capsys, epsilon,
                                                              horizon):
    _fail_on_map_step(monkeypatch)
    assert main(["shadow", "--epsilon", epsilon, "--count", "1"]) == 3
    err = capsys.readouterr().err
    for part in (f"epsilon={float(epsilon)!r}", f"epsilon^-1/2 = {horizon} steps",
                 "refinement cap of 10000 steps", "pass --steps"):
        assert part in err


def test_import_loads_no_scipy():
    """`import torusecho` loads no scipy: a route's first call loads the one extension it uses."""
    code = (
        "import sys, torusecho\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert run_fresh(code).strip() == "[]"


def _random_band(rng, big_t):
    """A random (4, 2T) upper band, diagonally dominant so positive definite, in Fortran order."""
    band = np.asfortranarray(rng.uniform(-1.0, 1.0, (4, 2 * big_t)))
    band[3] += 8.0  # each row has at most six off-diagonal entries, each below 1
    return band


@pytest.mark.parametrize("big_t", [1, 22, 2000])
def test_loaded_dpbsv_solves_as_scipy_linalg_lapack_bitwise(big_t):
    from scipy.linalg.lapack import dpbsv

    rng = np.random.default_rng(big_t)
    band, rhs = _random_band(rng, big_t), rng.uniform(-1.0, 1.0, 2 * big_t)
    indefinite = band.copy(order="F")
    indefinite[3, big_t] = -1.0
    for ab in (band, indefinite):
        c, x, info = shadowing._dpbsv()(ab, rhs)
        c_ref, x_ref, info_ref = dpbsv(ab, rhs)
        assert info == info_ref
        assert c.tobytes() == c_ref.tobytes() and x.tobytes() == x_ref.tobytes()
    assert shadowing._dpbsv()(band, rhs)[2] == 0
    assert shadowing._dpbsv()(indefinite, rhs)[2] == big_t + 1  # the leading minor that fails


def test_a_missing_scipy_extension_is_an_import_error_naming_it(monkeypatch):
    import scipy

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, name, path=None, target=None: None))
    # each caller uncached, so the loaded routines stay as they are
    for load, name in ((shadowing._dpbsv.__wrapped__, "scipy.linalg._flapack"),
                       (quantum._c2c.__wrapped__, "scipy.fft._pocketfft.pypocketfft")):
        folder = os.path.join(scipy.__path__[0], *name.split(".")[1:-1])
        with pytest.raises(ImportError, match=rf"{re.escape(name)} not found in ") as caught:
            load()
        assert str(caught.value).endswith(folder)


def test_refinement_loads_only_the_lapack_extension_of_scipy():
    code = (
        "import sys\n"
        "from torusecho import MapSpec, shadow_survey\n"
        "shadow_survey(MapSpec(10.0, 2e-3, 1000), count=4, steps=22, seed=0)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))"
    )
    assert run_fresh(code).strip() == "['scipy.linalg._flapack']"


_SURVEY_AROUND_IMPORT = """\
import hashlib, sys
from torusecho import MapSpec, shadow_survey, shadowing

def report():
    survey = shadow_survey(MapSpec(10.0, 2e-3, 1000), count=32, steps=22, seed=0)
    return hashlib.sha256(repr(survey).encode()).hexdigest()

if sys.argv[1] == "refine-first":
    before = report()
import scipy.linalg
from scipy.linalg.lapack import dpbsv
if sys.argv[1] == "import-first":
    before = report()
print(before, report(), dpbsv is shadowing._dpbsv())
"""


@pytest.mark.parametrize("order", ["refine-first", "import-first"])
def test_refining_before_or_after_importing_scipy_linalg_gives_the_same_report(order):
    report = shadow_survey(CHAOTIC, count=32, steps=22, seed=0)
    digest = hashlib.sha256(repr(report).encode()).hexdigest()
    assert run_fresh(_SURVEY_AROUND_IMPORT, order).split() == [digest, digest, "True"]


def _orbit_jacobian_ref(c, pts):
    """The 2T x 2(T+1) orbit Jacobian written out: row block t is [.. -A_t  I ..]."""
    big_t = pts.shape[0] - 1
    jac = np.zeros((2 * big_t, 2 * (big_t + 1)))
    for t in range(big_t):
        kick = c * 2.0 * math.pi * math.cos(2.0 * math.pi * pts[t, 0])
        jac[2 * t : 2 * t + 2, 2 * t : 2 * t + 2] = -np.array([[1.0 - kick, 1.0], [-kick, 1.0]])
        jac[2 * t : 2 * t + 2, 2 * t + 2 : 2 * t + 4] = np.eye(2)
    return jac


@pytest.mark.parametrize("spec", [MIXED, CHAOTIC])
@pytest.mark.parametrize("steps", [1, 2, 22, 200])
def test_newton_step_is_the_written_out_min_norm_solution(spec, steps):
    orb = orbit_from_map(spec, (0.37, 0.61), steps)
    defect = _defect(spec, orb.points)
    jac = _orbit_jacobian_ref(spec.kick_coefficient(False), orb.points)
    g = defect.reshape(-1)
    ref = jac.T @ np.linalg.solve(jac @ jac.T, -g)
    dx = _newton_step(spec, orb.points, defect)
    assert dx.shape == orb.points.shape
    assert np.abs(dx.reshape(-1) - ref).max() <= 1e-10 * np.abs(ref).max()
    assert np.abs(jac @ dx.reshape(-1) + g).max() <= 1e-10 * np.abs(g).max()


def test_newton_step_without_a_double_precision_solution_stalls():
    """At |k| = 1e8, A A^T + I rounds to a singular matrix: no step, no exception."""
    spec = MapSpec(1e8, 5e-3, 1000)
    orb = orbit_from_map(spec, (0.37, 0.61), 30)
    assert _newton_step(spec, orb.points, _defect(spec, orb.points)) is None
    res = refine_shadow(spec, orb, tol=1e-10)
    assert not res.converged and res.iterations == 0
    assert np.array_equal(res.shadow_points, orb.points)
    assert main(["shadow", "--k", "1e8", "--count", "4", "--steps", "30"]) == 0


def _newton_step_ref(spec, pts, defect):
    """The Newton step as built from (T, 2, 2) tangent blocks: band by einsum,
    scipy.linalg.solveh_banded, back-substitution by einsum."""
    from scipy.linalg import solveh_banded

    big_t = pts.shape[0] - 1
    kick = spec.kick_coefficient(False) * (2.0 * np.pi) * np.cos(2.0 * np.pi * pts[:-1, 0])
    a = np.empty((big_t, 2, 2))
    a[:, 0, 0], a[:, 0, 1], a[:, 1, 0], a[:, 1, 1] = 1.0 - kick, 1.0, -kick, 1.0
    diag = np.einsum("nij,nkj->nik", a, a)
    ab = np.zeros((4, 2 * big_t))
    ab[3, 0::2] = diag[:, 0, 0] + 1.0
    ab[3, 1::2] = diag[:, 1, 1] + 1.0
    ab[2, 1::2] = diag[:, 0, 1]
    ab[2, 2::2] = -a[1:, 0, 1]
    ab[1, 2::2] = -a[1:, 0, 0]
    ab[1, 3::2] = -a[1:, 1, 1]
    ab[0, 3::2] = -a[1:, 1, 0]
    lam = solveh_banded(ab, -defect.reshape(-1)).reshape(big_t, 2)
    dx = np.empty((big_t + 1, 2))
    dx[0] = -np.einsum("ji,j->i", a[0], lam[0])
    if big_t > 1:
        dx[1:big_t] = lam[:-1] - np.einsum("nji,nj->ni", a[1:], lam[1:])
    dx[big_t] = lam[big_t - 1]
    return dx


@pytest.mark.parametrize(
    "spec,orbit",
    [
        *[
            (spec, lambda spec=spec, steps=steps: orbit_from_map(spec, (0.37, 0.61), steps))
            for spec in (MIXED, CHAOTIC)
            for steps in (1, 2, 22, 200, 2000)
        ],
        # k=10, seed-0 benchmark survey: orbit 18 stalls, orbit 42 is damped
        (CHAOTIC, lambda: _survey_orbit(CHAOTIC, 0, 18, 22)),
        (CHAOTIC, lambda: _survey_orbit(CHAOTIC, 0, 42, 22)),
    ],
)
def test_newton_step_matches_the_solveh_banded_step_bitwise(monkeypatch, spec, orbit):
    """Every Newton step of a refinement, bitwise the block-and-einsum construction."""
    newton, steps = shadowing._min_norm_newton_step, []

    def checked(slope, work):
        pts, defect = work.x.T.copy(), work.defect.T.copy()
        dx = newton(slope, work)
        assert dx.T.tobytes() == _newton_step_ref(spec, pts, defect).tobytes()
        steps.append(dx.copy())
        return dx

    monkeypatch.setattr(shadowing, "_min_norm_newton_step", checked)
    result = refine_shadow(spec, orbit(), tol=1e-10, max_iter=40)
    assert steps and len(steps) == result.iterations


def test_refinement_at_the_kick_limit_raises_no_warning():
    """Past the kick limit a refinement is refused; up to it, nothing warns.

    `kick_problem` keeps |k|/2pi below 2^52, so the kick slopes of the
    Newton band stay below 2.9e16 and the band is finite; at such kicks it
    is singular in double precision, and a refinement stops after no
    iteration.
    """
    pts = np.random.Generator(np.random.Philox(key=11)).random((31, 2))
    k_max = np.nextafter(2.0**52 * TWO_PI, 0.0)  # the largest k the float map carries
    assert kick_problem(k_max) is None and kick_problem(np.nextafter(k_max, np.inf)) is not None
    for sign in (1.0, -1.0):
        with pytest.raises(InvalidInputError, match="too large for the float map"):
            refine_shadow(MapSpec(sign * 1e200, 5e-3, 1000), PseudoOrbit(pts), tol=1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = refine_shadow(MapSpec(sign * 1e16, 5e-3, 1000), PseudoOrbit(pts), tol=1e-10)
            spec = MapSpec(sign * k_max, 5e-3, 1000)
            dx = _newton_step(spec, pts, _defect(spec, pts))
        assert not res.converged and res.iterations == 0
        assert np.array_equal(res.shadow_points, pts)
        assert dx is None or np.isfinite(dx).all()


def _survey_orbits_ref(spec, count, steps, seed):
    """Each start's perturbed orbit, stepped alone."""
    starts = np.random.Generator(np.random.Philox(key=seed)).random((count, 2))
    c = spec.kick_coefficient(True)
    orbits = []
    for q, p in starts:
        pts = [(q, p)]
        for _ in range(steps):
            q, p = step_ref(c, q, p)
            pts.append((q, p))
        orbits.append(np.array(pts))
    return orbits


def _residual_ref(spec, pts):
    """Sup torus distance between points[t+1] and the unperturbed image of points[t]."""
    c = spec.kick_coefficient(False)
    worst = 0.0
    for (q, p), nxt in zip(pts[:-1], pts[1:]):
        for a, b in zip(nxt, step_ref(c, q, p)):
            d = abs(a - b) % 1.0
            worst = max(worst, min(d, 1.0 - d))
    return worst


def _recorded_survey(monkeypatch, spec, **kwargs):
    """Run a survey; return its report, the orbits refined and the residuals measured."""
    refine, residuals = shadowing.refine_shadow, shadowing._residuals
    orbits, measured, results = [], [], []

    def keep_refine(spec_, orbit, *args, **kw):
        orbits.append(orbit.points.copy())
        results.append(refine(spec_, orbit, *args, **kw))
        return results[-1]

    def keep_residuals(*args, **kw):
        measured.append(residuals(*args, **kw))
        return measured[-1]

    with monkeypatch.context() as patch:
        patch.setattr(shadowing, "refine_shadow", keep_refine)
        patch.setattr(shadowing, "_residuals", keep_residuals)
        report = shadow_survey(spec, **kwargs)
    return report, orbits, np.concatenate(measured), results


@pytest.mark.parametrize("spec,seed", [(CHAOTIC, 0), (MIXED, 3)])
def test_survey_orbits_and_residuals_match_a_per_start_loop_bitwise(monkeypatch, spec, seed):
    count, steps = 70, 25  # more than one block of starts
    report, orbits, residuals, _ = _recorded_survey(
        monkeypatch, spec, count=count, steps=steps, seed=seed, max_iter=3
    )
    expected = _survey_orbits_ref(spec, count, steps, seed)
    assert len(orbits) == count
    for got, want in zip(orbits, expected):
        assert got.tobytes() == want.tobytes()
    want_res = np.array([_residual_ref(spec, pts) for pts in expected])
    assert residuals.tobytes() == want_res.tobytes()
    bound = spec.epsilon / (2 * np.pi)
    assert report["max_pseudo_residual"] == want_res.max()
    assert report["bound_violations"] == int(np.sum(want_res > bound))
    # orbit_from_map is the one-start case of the same generator
    for i in (0, count - 1):
        start = np.random.Generator(np.random.Philox(key=seed)).random((count, 2))[i]
        assert orbit_from_map(spec, start, steps).points.tobytes() == expected[i].tobytes()


def test_survey_report_does_not_depend_on_the_block_size(monkeypatch):
    kwargs = dict(count=10, steps=30, seed=4, max_iter=10)
    one_block, orbits, residuals, _ = _recorded_survey(monkeypatch, CHAOTIC, **kwargs)
    monkeypatch.setattr(shadowing, "_SURVEY_BLOCK", 3)
    blocks, orbits3, residuals3, _ = _recorded_survey(monkeypatch, CHAOTIC, **kwargs)
    assert blocks == one_block
    assert residuals3.tobytes() == residuals.tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(orbits3, orbits))


# sha256 over every refine_shadow result of a benchmark survey, in call order
# (shadow_points bytes in (L, 2) C order, then the repr of shadow_distance,
# residual, converged and iterations), then over the report's repr
SURVEY_DIGESTS = {
    0: "82a9e324c6d0800aa0203bed006dfddd81d0e266fc865dd2da7a769c28ead22b",
    3: "dbfb0fa1fd2345f13922d571a79c37bdd19d4f0da6dbd1bb194c0ad9cddb75b0",
}


def _survey_digest(report, results):
    digest = hashlib.sha256()
    for r in results:
        digest.update(r.shadow_points.tobytes())
        digest.update(repr((r.shadow_distance, r.residual, r.converged, r.iterations)).encode())
    digest.update(repr(report).encode())
    return digest.hexdigest()


# `_orbit_defect` calls a benchmark survey makes: its residual blocks and each
# refinement's trial calls (a refinement starts from its block's defect)
SURVEY_DEFECT_CALLS = {0: 850, 3: 523}


@pytest.mark.parametrize(
    "spec,seed,converged,iterations", [(CHAOTIC, 0, 217, 802), (MIXED, 3, 256, 519)]
)
def test_benchmark_surveys_keep_their_newton_path(monkeypatch, spec, seed, converged, iterations):
    """The benchmark's surveys: one refinement per orbit, same outcomes as before.

    The digest pins every bit of every refinement and of the report. Like
    the golden digests it rests on the platform's libm sin and cos bits,
    and also on the OpenBLAS kernel behind scipy's dpbsv (which
    `OPENBLAS_CORETYPE` selects): on another libm or kernel it may move
    with no fault in the program, while the Newton path stays (the kernel
    test below). The count of `_orbit_defect` calls pins the work done: a
    separate scale-1 call after every damped iteration would raise it at
    k = 10.
    """
    defect, calls = shadowing._orbit_defect, []

    def counted(*args):
        calls.append(1)
        return defect(*args)

    monkeypatch.setattr(shadowing, "_orbit_defect", counted)
    report, _, _, results = _recorded_survey(monkeypatch, spec, count=256, seed=seed, tol=1e-9)
    assert len(results) == 256
    assert len(calls) == SURVEY_DEFECT_CALLS[seed]
    assert sum(r.converged for r in results) == converged
    assert report["fraction_converged"] == converged / 256
    assert sum(r.iterations for r in results) == iterations
    assert _survey_digest(report, results) == SURVEY_DIGESTS[seed]


# both benchmark surveys (CHAOTIC at seed 0, MIXED at seed 3): each refinement's
# [iterations, converged] in call order, and the report's fraction converged
_SURVEY_PATHS = """\
import json
from torusecho import MapSpec, shadow_survey, shadowing

refine, paths = shadowing.refine_shadow, []

def keep(*args, **kwargs):
    result = refine(*args, **kwargs)
    paths.append([result.iterations, result.converged])
    return result

shadowing.refine_shadow = keep
surveys = []
for spec, seed in ((MapSpec(10.0, 2e-3, 1000), 0), (MapSpec(0.8, 5e-3, 1000), 3)):
    paths.clear()
    report = shadow_survey(spec, count=256, seed=seed, tol=1e-9)
    surveys.append([list(paths), report["fraction_converged"]])
print(json.dumps(surveys))
"""


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_survey_newton_path_does_not_depend_on_the_openblas_kernel(monkeypatch, coretype):
    """Under another OpenBLAS kernel (`OPENBLAS_CORETYPE`, read as the library
    loads), both benchmark surveys take the in-process run's Newton path: every
    orbit's iteration count and converged flag, and each report's fraction
    converged. The shadow bits may move with the kernel behind scipy's dpbsv;
    the traced Newton counts of the benchmark rest on the path not moving."""
    want = []
    for spec, seed in ((CHAOTIC, 0), (MIXED, 3)):
        report, _, _, results = _recorded_survey(monkeypatch, spec, count=256, seed=seed, tol=1e-9)
        want.append([[[r.iterations, r.converged] for r in results], report["fraction_converged"]])
    monkeypatch.setenv("OPENBLAS_CORETYPE", coretype)
    assert json.loads(run_fresh(_SURVEY_PATHS)) == want


@pytest.mark.parametrize("spec,seed,steps", [(CHAOTIC, 0, 22), (MIXED, 3, 14), (CHAOTIC, 0, 1)])
def test_a_refinement_from_its_block_defect_is_bitwise_one_from_its_own(spec, seed, steps):
    """The survey hands each refinement its slice of the block's defect; every
    result field is bitwise that of a refinement that takes its own."""
    starts = np.random.Generator(np.random.Philox(key=seed)).random((shadowing._SURVEY_BLOCK, 2))
    block = shadowing._orbits(spec, starts, steps)
    defects = np.empty((2, len(block), steps))
    residuals = shadowing._residuals(spec, block, out=defects)
    assert residuals.tobytes() == shadowing._residuals(spec, block).tobytes()
    outcomes = []
    for i, pts in enumerate(block):
        orbit = PseudoOrbit(pts)
        own = refine_shadow(spec, orbit, tol=1e-9, max_iter=40)
        handed = refine_shadow(spec, orbit, tol=1e-9, max_iter=40, _defect=defects[:, i])
        assert handed.shadow_points.tobytes() == own.shadow_points.tobytes()
        assert repr(handed) == repr(own)  # the float fields to the last bit
        outcomes.append((own.converged, own.iterations))
    if spec is CHAOTIC and steps == 22:
        # orbit 53 stalls, orbits 18 and 42 creep (see the stacked-trial test)
        assert all(not outcomes[i][0] and outcomes[i][1] < 40 for i in (18, 42, 53))
        assert any(converged for converged, _ in outcomes)


def test_survey_checks_its_points_at_most_once_a_block(monkeypatch):
    """The survey's orbits come from the map kernel, whose starts are points of
    [0, 1): `unit_problem` is not run again on each orbit."""
    check, calls = shadowing.unit_problem, []

    def counted(*args):
        calls.append(1)
        return check(*args)

    monkeypatch.setattr(shadowing, "unit_problem", counted)
    report = shadow_survey(CHAOTIC, count=70, steps=10, seed=0, max_iter=3)  # two blocks
    assert report["count"] == 70
    assert len(calls) <= 2


@pytest.mark.parametrize(
    "spec,seed,count,steps,converged",
    [
        (CHAOTIC, 1, 256, 22, 221),
        (MapSpec(3.0, 2e-3, 1000), 0, 128, 32, 109),
        # a rule that stopped at scale 2^-4 would lose two of these orbits
        (MIXED, 0, 128, 400, 101),
    ],
)
def test_stopping_a_creeping_refinement_converges_as_many_orbits(spec, seed, count, steps,
                                                                   converged):
    """The creep rule loses no orbit that 40 iterations converge: the counts are
    those of refinements that ran every creeping orbit to max_iter."""
    report = shadow_survey(spec, count=count, steps=steps, seed=seed, tol=1e-9)
    assert report["fraction_converged"] == converged / count


def test_a_creeping_refinement_stops_after_three_small_steps(monkeypatch):
    """Orbit 42 of the k=10, seed-0 survey, which no true orbit shadows, stops
    after 7 iterations, the last three at scale 2^-6 or below, in place of 40."""
    trial, positions = shadowing._damped_trial, []

    def keep(*args):
        accepted = trial(*args)
        positions.append(accepted[1])
        return accepted

    monkeypatch.setattr(shadowing, "_damped_trial", keep)
    result = refine_shadow(CHAOTIC, _survey_orbit(CHAOTIC, 0, 42, 22), tol=1e-9, max_iter=40)
    assert not result.converged and result.iterations == len(positions) == 7
    assert all(shadowing._SCALES[i] <= 2.0**-6 for i in positions[-3:])
    assert shadowing._SCALES[positions[-4]] > 2.0**-6


def _fresh_workspace(points):
    """A new `_Workspace` for every refinement, in place of the thread's reused one."""
    work = shadowing._Workspace(len(points))
    work.x[...] = points.T
    return work


def _same_result(a, b):
    return (a.shadow_points.tobytes() == b.shadow_points.tobytes()
            and repr((a.shadow_distance, a.residual, a.converged, a.iterations))
            == repr((b.shadow_distance, b.residual, b.converged, b.iterations)))


def test_refinements_own_their_points(monkeypatch):
    """Results share no memory with the refinement's reused buffers,
    with each other or with their input, later refinements leave them be, and
    each is bitwise the result of a refinement in a workspace of its own."""
    orbits = [
        (CHAOTIC, orbit_from_map(CHAOTIC, (0.37, 0.61), 22)),
        (CHAOTIC, _survey_orbit(CHAOTIC, 0, 18, 22)),  # the same length: it creeps
        (MIXED, orbit_from_map(MIXED, (0.4, 0.2), 14)),  # another length
        (CHAOTIC, _survey_orbit(CHAOTIC, 0, 42, 22)),  # the first length again
        # no Newton step exists: the result is the input's points
        (MapSpec(1e8, 5e-3, 1000), orbit_from_map(MapSpec(1e8, 5e-3, 1000), (0.37, 0.61), 30)),
    ]
    inputs = [orb.points.copy() for _, orb in orbits]
    results = []
    for spec, orb in orbits:
        results.append(refine_shadow(spec, orb, tol=1e-10))
        if len(results) == 1:
            first = results[0].shadow_points.copy()
    assert all(r.iterations > 0 for r in results[:4]) and not results[1].converged
    assert results[4].iterations == 0 and not results[4].converged
    assert results[0].shadow_points.tobytes() == first.tobytes()
    for (_, orb), before, result in zip(orbits, inputs, results):
        assert orb.points.tobytes() == before.tobytes()
        assert result.shadow_points.shape == orb.points.shape == (len(orb), 2)
        assert not np.shares_memory(result.shadow_points, orb.points)
        for other in results:
            if other is not result:
                assert not np.shares_memory(result.shadow_points, other.shadow_points)
    assert np.array_equal(results[4].shadow_points, orbits[4][1].points)
    monkeypatch.setattr(shadowing, "_workspace", _fresh_workspace)
    for (spec, orb), result in zip(orbits, results):
        assert _same_result(result, refine_shadow(spec, orb, tol=1e-10))


def test_surveys_on_a_thread_pool_match_fresh_sequential_runs(monkeypatch):
    """Both benchmark surveys, twice each on two threads, give the reports and
    refinements of one-workspace-a-refinement runs on one thread, bitwise, in
    arrays of their own."""
    refine, kept = shadowing.refine_shadow, threading.local()

    def keep(*args, **kwargs):
        kept.results.append(refine(*args, **kwargs))
        return kept.results[-1]

    def survey(case):
        spec, seed = case
        kept.results = []
        return shadow_survey(spec, count=256, seed=seed, tol=1e-9), kept.results

    monkeypatch.setattr(shadowing, "refine_shadow", keep)
    cases = [(CHAOTIC, 0), (MIXED, 3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the threads take turns within refinements
    try:
        with ThreadPoolExecutor(2) as pool:
            pooled = list(pool.map(survey, cases * 2, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(shadowing, "_workspace", _fresh_workspace)
    fresh = [survey(case) for case in cases]
    for (report, results), (want_report, want) in zip(pooled, fresh * 2):
        assert repr(report) == repr(want_report)
        assert len(results) == len(want) == 256
        assert all(_same_result(a, b) for a, b in zip(results, want))
    # each result's points own their memory, so no two share any
    points = [r.shadow_points for _, results in pooled for r in results]
    assert all(p.flags.owndata for p in points)
    assert len({id(p) for p in points}) == len(points)


def _refine_ref(spec, orbit, tol, max_iter, accepted=None):
    """refine_shadow written out with the damping scales tried one at a time.

    It stops, as a creeping refinement, after three accepted iterations in a
    row at scale 2^-6 or below. `accepted`, if given, receives each accepted
    trial and its scale.
    """

    def defect(pts):
        q, p = step_ensemble(spec, pts[:-1, 0], pts[:-1, 1], perturbed=False)
        d = pts[1:] - np.stack([q, p], axis=-1)
        return d - np.round(d)  # the shortest signed displacement

    pts = orbit.points.copy()
    d = defect(pts)
    res = float(np.abs(d).max())
    iterations, converged, creeping = 0, res <= tol, 0
    while not converged and iterations < max_iter and creeping < 3:
        dx = _newton_step(spec, pts, d)
        iterations += 1
        scale = 1.0
        while scale >= 2.0**-16:
            trial = wrap_unit(pts + scale * dx)
            trial_d = defect(trial)
            if float(np.abs(trial_d).max()) < res:
                break
            scale *= 0.5
        else:
            return pts, res, False, iterations  # stalled
        pts, d, res = trial, trial_d, float(np.abs(trial_d).max())
        converged = res <= tol
        creeping = creeping + 1 if scale <= 2.0**-6 else 0
        if accepted is not None:
            accepted.append((pts, scale))
    return pts, res, converged, iterations


def _survey_orbit(spec, seed, index, steps):
    """Orbit `index` of a survey at `seed`, built as the survey builds it."""
    starts = np.random.Generator(np.random.Philox(key=seed)).random((index + 1, 2))
    return orbit_from_map(spec, starts[index], steps)


@pytest.mark.parametrize(
    "spec,orbit,tol",
    [
        # converging orbits
        (MIXED, lambda: orbit_from_map(MIXED, (0.37, 0.61), 200), 1e-11),
        (CHAOTIC, lambda: orbit_from_map(CHAOTIC, (0.37, 0.61), 100), 1e-11),
        # k=10, seed-0 survey: orbit 18 creeps to a stop, orbit 42 takes scales
        # from the inside of groups, often where a later scale of the same group
        # has the lower residual
        (CHAOTIC, lambda: _survey_orbit(CHAOTIC, 0, 18, 22), 1e-9),
        (CHAOTIC, lambda: _survey_orbit(CHAOTIC, 0, 42, 22), 1e-9),
        # longer orbits, whose groups are split: 5 scales a call at 401 points,
        # one at 2001
        (CHAOTIC, lambda: orbit_from_map(CHAOTIC, (0.37, 0.61), 400), 1e-10),
        (CHAOTIC, lambda: orbit_from_map(CHAOTIC, (0.37, 0.61), 2000), 1e-10),
        # at k = 10^4 the residual's rounding floor is above 1e-13: the orbit
        # stalls there, on trials whose residual equals the current one
        (MapSpec(1e4, 2e-3, 1000), lambda: _survey_orbit(MapSpec(1e4, 2e-3, 1000), 1, 1, 22),
         1e-13),
    ],
)
def test_damping_ladder_matches_a_sequential_ladder_bitwise(spec, orbit, tol):
    orb = orbit()
    res = refine_shadow(spec, orb, tol=tol, max_iter=40)
    pts, residual, converged, iterations = _refine_ref(spec, orb, tol, 40)
    assert res.shadow_points.tobytes() == pts.tobytes()
    assert (res.residual, res.converged, res.iterations) == (residual, converged, iterations)


@pytest.mark.parametrize(
    "orbit,tol",
    [
        # k=10, seed-0 survey orbit 42: its second iteration is damped, and its
        # third takes scale 1 from the 17-scale call that follows a damped one
        (lambda: _survey_orbit(CHAOTIC, 0, 42, 22), 1e-9),
        # damped on every iteration, in 5-scale calls, until it creeps
        (lambda: orbit_from_map(CHAOTIC, (0.37, 0.61), 400), 1e-10),
    ],
)
def test_folded_ladder_keeps_every_iterate_bitwise(monkeypatch, orbit, tol):
    """Each iterate, and the result, is bitwise the one-scale-at-a-time ladder's,
    scale 1 included after a damped iteration."""
    orb = orbit()
    newton, iterates = shadowing._min_norm_newton_step, []

    def keep(slope, work):
        iterates.append(work.x.T.copy())  # the orbit this iteration starts from
        return newton(slope, work)

    monkeypatch.setattr(shadowing, "_min_norm_newton_step", keep)
    result = refine_shadow(CHAOTIC, orb, tol=tol, max_iter=40)
    accepted = []
    pts, residual, converged, iterations = _refine_ref(CHAOTIC, orb, tol, 40, accepted)
    want = [orb.points] + [trial for trial, _ in accepted]
    scales = [scale for _, scale in accepted]
    if orb.steps == 22:
        assert any(a < 1.0 and b == 1.0 for a, b in zip(scales, scales[1:]))
    assert len(iterates) == result.iterations == iterations
    assert len(want) in (iterations, iterations + 1)  # a stall accepts no trial
    for got, ref in zip(iterates, want):
        assert got.tobytes() == ref.tobytes()
    assert result.shadow_points.tobytes() == want[-1].tobytes() == pts.tobytes()
    assert (result.residual, result.converged) == (residual, converged)
    d = np.abs(pts - orb.points) % 1.0
    assert result.shadow_distance == np.minimum(d, 1.0 - d).max()


def test_benchmark_survey_refinements_match_a_sequential_ladder_bitwise(monkeypatch):
    """Every refinement of the k=10, seed-0 benchmark survey, stalled orbits
    included, is bitwise the one-scale-at-a-time ladder's."""
    _, orbits, _, results = _recorded_survey(monkeypatch, CHAOTIC, count=256, seed=0, tol=1e-9)
    assert len(results) == 256
    for orb, got in zip(orbits, results):
        pts, residual, converged, iterations = _refine_ref(CHAOTIC, PseudoOrbit(orb), 1e-9, 40)
        assert got.shadow_points.tobytes() == pts.tobytes()
        assert (got.residual, got.converged, got.iterations) == (residual, converged, iterations)
        d = np.abs(pts - orb) % 1.0
        assert got.shadow_distance == np.minimum(d, 1.0 - d).max()


def test_stacked_trials_make_one_defect_call_per_damping_group(monkeypatch):
    defect, newton = shadowing._orbit_defect, shadowing._min_norm_newton_step
    events = []

    def counted_defect(c, views):
        head = views[0]
        events.append(head.shape[1] if head.ndim == 3 else 1)  # x (2, S, L) stacks S trials
        return defect(c, views)

    def counted_newton(*args):
        events.append("newton")
        return newton(*args)

    def refined(spec, orb, tol):
        """The result, and the trial stack sizes of each iteration."""
        events.clear()
        result = refine_shadow(spec, orb, tol=tol, max_iter=40)
        marks = [i for i, e in enumerate(events) if e == "newton"] + [len(events)]
        assert len(marks) == result.iterations + 1
        return result, [events[a + 1 : b] for a, b in zip(marks, marks[1:])]

    monkeypatch.setattr(shadowing, "_orbit_defect", counted_defect)
    monkeypatch.setattr(shadowing, "_min_norm_newton_step", counted_newton)
    # scale 1 alone on the first iteration and after one that took it: [1] where
    # it is taken again, [1, 16] where it is not; after a damped iteration the
    # 17 scales go in one call, [17], the stall included
    stalled, calls = refined(CHAOTIC, _survey_orbit(CHAOTIC, 0, 53, 22), 1e-9)
    assert not stalled.converged and stalled.iterations < 40
    assert calls == [[1], [1], [1, 16]] + [[17]] * 3
    # orbit 18 creeps: it stops after accepting 2^-7, 2^-8 and 2^-12
    crept, calls = refined(CHAOTIC, _survey_orbit(CHAOTIC, 0, 18, 22), 1e-9)
    assert not crept.converged
    assert calls == [[1], [1, 16]] + [[17]] * 4
    # orbit 42 takes scale 1 from the folded call of its third iteration, so the
    # fourth tries it alone again
    damped, calls = refined(CHAOTIC, _survey_orbit(CHAOTIC, 0, 42, 22), 1e-9)
    assert calls[:4] == [[1, 16], [17], [1, 16], [17]]
    assert all(c == [17] for c in calls[3:])
    # at 401 points a call holds at most 2048 // 401 = 5 scales
    crept, calls = refined(CHAOTIC, orbit_from_map(CHAOTIC, (0.37, 0.61), 400), 1e-10)
    assert not crept.converged
    # damped from the first iteration on, until it creeps; the last iteration
    # accepts 2^-16, the 17th scale, in its 4th call
    assert calls == [[1, 5], [5], [5, 5], [5, 5, 5], [5, 5, 5, 2]]
    converged, calls = refined(MIXED, orbit_from_map(MIXED, (0.37, 0.61), 200), 1e-11)
    assert converged.converged and converged.iterations >= 2
    assert calls == [[1]] * converged.iterations  # scale 1 taken: one call
