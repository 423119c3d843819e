"""Pseudo-orbit residual bounds and Newton shadow refinement."""

import numpy as np
import pytest

from torusecho import (
    CapacityError,
    InvalidInputError,
    MapSpec,
    PseudoOrbit,
    noisy_orbit,
    orbit_from_map,
    pseudo_residual,
    refine_shadow,
    shadow_survey,
    shadow_time_estimate,
)
from torusecho import shadowing
from torusecho.cli import main
from torusecho.shadowing import wrap_signed

MIXED = MapSpec(0.8, 5e-3, 1000)
CHAOTIC = MapSpec(10.0, 2e-3, 1000)
KICK_BOUND = lambda spec: spec.epsilon / (2 * np.pi)  # noqa: E731


def test_orbit_container_validation():
    with pytest.raises(InvalidInputError):
        PseudoOrbit(np.zeros((1, 2)))  # too short
    with pytest.raises(InvalidInputError):
        PseudoOrbit(np.zeros((5, 3)))
    with pytest.raises(InvalidInputError):
        PseudoOrbit(np.full((5, 2), 1.5))  # off torus
    with pytest.raises(InvalidInputError):
        PseudoOrbit(np.zeros((5, 2)), generator="mystery")
    orb = PseudoOrbit(np.full((5, 2), 0.25))
    assert len(orb) == 5 and orb.steps == 4


def test_wrap_signed_range():
    d = wrap_signed(np.array([0.6, -0.6, 0.49, 1.2, -3.3]))
    assert np.all(np.abs(d) <= 0.5)
    assert d[0] == pytest.approx(-0.4)
    assert d[1] == pytest.approx(0.4)
    assert d[2] == pytest.approx(0.49)


@pytest.mark.parametrize("spec", [MIXED, CHAOTIC])
def test_exact_orbit_has_zero_residual_against_own_map(spec):
    orb = orbit_from_map(spec, (0.37, 0.21), 100, perturbed=True)
    assert pseudo_residual(spec, orb, against="perturbed") == 0.0
    orb0 = orbit_from_map(spec, (0.37, 0.21), 100, perturbed=False)
    assert pseudo_residual(spec, orb0, against="unperturbed") == 0.0


@pytest.mark.parametrize("spec", [MIXED, CHAOTIC])
def test_perturbed_orbit_residual_bounded_by_kick(spec):
    for seed, start in enumerate([(0.4, 0.2), (0.9, 0.7), (0.11, 0.53)]):
        orb = orbit_from_map(spec, start, 500, perturbed=True)
        r = pseudo_residual(spec, orb, against="unperturbed")
        assert 0.0 < r <= KICK_BOUND(spec)


def test_noisy_orbit_residual_bounded():
    delta = 2e-4
    orb = noisy_orbit(MIXED, (0.3, 0.8), 400, delta=delta, seed=5)
    assert orb.generator == "noisy" and orb.noise_delta == delta
    r = pseudo_residual(MIXED, orb, against="unperturbed")
    assert r <= delta + KICK_BOUND(MIXED)
    # noise-free residual vs the generating map is within delta alone
    assert pseudo_residual(MIXED, orb, against="perturbed") <= delta
    with pytest.raises(InvalidInputError, match="seed must"):
        noisy_orbit(MIXED, (0.3, 0.8), 4, delta=delta, seed=-1)


def test_residual_against_validation():
    orb = orbit_from_map(MIXED, (0.3, 0.8), 10)
    with pytest.raises(InvalidInputError):
        pseudo_residual(MIXED, orb, against="sideways")


@pytest.mark.parametrize("spec,steps", [(MIXED, 200), (CHAOTIC, 100)])
def test_refinement_finds_true_orbit(spec, steps):
    orb = orbit_from_map(spec, (0.37, 0.61), steps, perturbed=True)
    res = refine_shadow(spec, orb, tol=1e-11)
    assert res.converged
    assert res.residual <= 1e-11
    # the refined points really are an unperturbed orbit
    refined = PseudoOrbit(res.shadow_points)
    assert pseudo_residual(spec, refined, against="unperturbed") <= 1e-11
    assert res.shadow_points.shape == orb.points.shape
    assert 0.0 < res.shadow_distance < 0.5


def test_chaotic_shadow_stays_close():
    # strong hyperbolicity keeps the true orbit near the pseudo-orbit
    orb = orbit_from_map(CHAOTIC, (0.37, 0.61), 100, perturbed=True)
    res = refine_shadow(CHAOTIC, orb, tol=1e-11)
    assert res.converged
    assert res.shadow_distance < 0.05  # measured ~2.4e-3


def test_true_orbit_needs_no_iterations():
    orb = orbit_from_map(MIXED, (0.4, 0.2), 50, perturbed=False)
    res = refine_shadow(MIXED, orb, tol=1e-10)
    assert res.converged and res.iterations == 0
    assert res.residual == 0.0
    assert res.shadow_distance == 0.0


def test_refine_toward_perturbed_map():
    orb = noisy_orbit(CHAOTIC, (0.2, 0.9), 80, delta=1e-4, seed=8)
    res = refine_shadow(CHAOTIC, orb, against="perturbed", tol=1e-11)
    assert res.converged
    refined = PseudoOrbit(res.shadow_points)
    assert pseudo_residual(CHAOTIC, refined, against="perturbed") <= 1e-11


def test_refine_capacity_and_tolerance_limits():
    orb = orbit_from_map(MIXED, (0.4, 0.2), 10)
    with pytest.raises(InvalidInputError):
        refine_shadow(MIXED, orb, tol=1e-14)
    with pytest.raises(InvalidInputError):
        refine_shadow(MIXED, orb, max_iter=0)
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
    orb = orbit_from_map(CHAOTIC, start, 40, perturbed=True)
    res = refine_shadow(CHAOTIC, orb, tol=1e-11, max_iter=80)
    assert not res.converged
    assert res.residual <= pseudo_residual(CHAOTIC, orb, against="unperturbed")
    from torusecho.shadowing import _orbit_defect

    defect = _orbit_defect(CHAOTIC, res.shadow_points, False)
    worst = int(np.argmax(np.abs(defect).max(axis=1)))
    head = refine_shadow(CHAOTIC, PseudoOrbit(orb.points[:worst]), tol=1e-11, max_iter=60)
    tail = refine_shadow(CHAOTIC, PseudoOrbit(orb.points[worst + 2 :]), tol=1e-11, max_iter=60)
    assert head.converged and tail.converged
