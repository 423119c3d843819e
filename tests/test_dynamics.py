"""Classical map: stepping, Jacobians, action accumulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusecho import initial_states, shadowing
from torusecho import (
    CapacityError,
    InvalidInputError,
    MapSpec,
    PositionEigenstate,
    SampleSet,
    dense_oracle,
    dr_curve,
    exact_fidelity_curve,
    orbit_from_map,
    samples_position_state,
    shadow_survey,
    step_ensemble,
    torus_distance,
    wrap_unit,
)
from torusecho.dynamics import (
    _MAX_STEPS,
    TWO_PI,
    _step_in_place,
    kick_problem,
    map_problems,
    perturbation_problem,
    phase_scale_problem,
    steps_problem,
)
from torusecho.errors import raise_problem
from torusecho.initial_states import _MAX_SAMPLES
from torusecho.quantum import _MAX_DIM, grid_problem
from torusecho.shadowing import _MAX_SURVEY_COUNT

from map_reference import step_ref, wrap_ref

MIXED = MapSpec(0.8, 0.0, 1000)
PERTURBED = MapSpec(0.8, 5e-3, 1000)
CHAOTIC = MapSpec(10.0, 2e-3, 1000)


def test_spec_derives_hbar():
    assert MIXED.hbar == 1.0 / (2.0 * np.pi * 1000)
    assert MapSpec(1.0, 0.0, 64).hbar == 1.0 / (2.0 * np.pi * 64)


@pytest.mark.parametrize("bad_n", [0, 1, -5, 2.5])
def test_spec_rejects_bad_dim(bad_n):
    with pytest.raises(InvalidInputError):
        MapSpec(0.8, 0.0, bad_n)


def test_spec_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        MapSpec(float("nan"), 0.0, 10)
    with pytest.raises(InvalidInputError):
        MapSpec(0.8, float("inf"), 10)


def test_step_matches_independent_value():
    # hand-computed with plain math; implementation may differ by ~1 ulp
    # through association order, hence the tight relative tolerance
    q1, p1 = step_ensemble(MIXED, 0.4, 0.0)
    assert q1.shape == p1.shape == ()
    assert p1 == pytest.approx(0.92516085729690889, rel=1e-12)
    assert q1 == pytest.approx(0.32516085729690891, rel=1e-12)


def test_step_order_is_kick_then_drift():
    # p updates first, then q advances by the *new* p
    q1, p1 = step_ensemble(MIXED, 0.25, 0.5)
    p_expect = wrap_unit(0.5 - (0.8 / (2 * np.pi)) * np.sin(2 * np.pi * 0.25))
    assert p1 == pytest.approx(float(p_expect), abs=1e-15)
    assert q1 == pytest.approx(float(wrap_unit(0.25 + p1)), abs=1e-15)


def test_step_ensemble_matches_scalar_loop():
    rng = np.random.default_rng(11)
    q = rng.random(40)
    p = rng.random(40)
    q1, p1 = step_ensemble(CHAOTIC, q, p, perturbed=True)
    for i in range(40):
        qi, pi = step_ensemble(CHAOTIC, q[i], p[i], perturbed=True)
        assert q1[i] == qi
        assert p1[i] == pi


def _step_inverse_ref(c, q, p):
    """The inverse step written out: undo the drift, then undo the kick."""
    q0 = wrap_ref(q - p)
    return q0, wrap_ref(p + c * np.sin(2.0 * np.pi * q0))


@pytest.mark.parametrize("spec", [MIXED, PERTURBED, CHAOTIC])
@pytest.mark.parametrize("perturbed", [False, True])
def test_step_inverse_round_trip(spec, perturbed):
    rng = np.random.default_rng(3)
    c = spec.kick_coefficient(perturbed)
    for _ in range(50):
        x = rng.random(2)
        back = _step_inverse_ref(c, *step_ensemble(spec, x[0], x[1], perturbed=perturbed))
        assert float(torus_distance(x, np.array(back))) < 1e-14


def test_kernel_matches_explicit_formula_bitwise():
    """The in-place kernel and its checked wrapper give the written-out step's bits."""
    rng = np.random.default_rng(5)
    q = np.concatenate([rng.random(300), [0.0, 0.5, np.nextafter(1.0, 0.0)]])
    p = np.concatenate([rng.random(300), [np.nextafter(1.0, 0.0), 0.0, 0.0]])
    for spec, perturbed in ((CHAOTIC, True), (MIXED, False), (MapSpec(-3.0, 0.1, 50), True)):
        c = spec.kick_coefficient(perturbed)
        q_ref, p_ref = step_ref(c, q, p)
        qk, pk = q.copy(), p.copy()
        arg, tmp = np.empty_like(q), np.empty_like(q)
        _step_in_place(c, qk, pk, arg, tmp)
        assert np.array_equal(qk, q_ref) and np.array_equal(pk, p_ref)
        assert np.array_equal(arg, 2.0 * np.pi * q)  # left for the action record
        assert np.all((qk >= 0.0) & (qk < 1.0) & (pk >= 0.0) & (pk < 1.0))
        # the checked wrapper, also on raw coordinates off the torus
        q1, p1 = step_ensemble(spec, q, p, perturbed=perturbed)
        assert np.array_equal(q1, q_ref) and np.array_equal(p1, p_ref)
        q_raw, p_raw = 4.0 * q - 2.0, 6.0 * p - 3.0
        q1, p1 = step_ensemble(spec, q_raw, p_raw, perturbed=perturbed)
        q_ref, p_ref = step_ref(c, q_raw, p_raw)
        assert np.array_equal(q1, q_ref) and np.array_equal(p1, p_ref)


def test_step_ensemble_broadcasts_and_keeps_inputs():
    q = np.array([0.1, 0.6, 1.7])
    q_before = q.copy()
    q1, p1 = step_ensemble(CHAOTIC, q, 0.25)
    assert q1.shape == p1.shape == (3,)
    assert np.array_equal(q, q_before)
    for i in range(3):
        assert (q1[i], p1[i]) == step_ensemble(CHAOTIC, q[i], 0.25)


def test_spec_rejects_overflowing_phase_factor():
    with pytest.raises(InvalidInputError, match="phase factor"):
        MapSpec(0.8, 1e308, 1000)
    with pytest.raises(InvalidInputError, match="phase factor"):
        MapSpec(-1e306, 0.0, 65536)
    with pytest.raises(InvalidInputError, match="phase factor"):
        MapSpec(0.8, 5e-3, 10**400)  # N beyond the float range
    assert MapSpec(0.8, 1e300, 1000).epsilon == 1e300  # large but finite phases
    # the bound grows with the step count of a run
    assert phase_scale_problem(0.8, 1e305, 1000) is None
    assert "phase factor" in phase_scale_problem(0.8, 1e305, 1000, steps=50)[1]
    assert phase_scale_problem(0.8, 1e300, 1000, steps=50) is None


def test_perturbation_below_the_rounding_of_k():
    # k + epsilon == k in float64: |k| beyond about 2^53 |epsilon|
    for k, epsilon in ((1e17, 5e-3), (-1e17, 5e-3), (1e306, 5e-3), (1.0, 2e-22), (0.8, -1e-20)):
        assert k + epsilon == k
        assert "below the rounding of k" in perturbation_problem(k, epsilon)[1]
    for k, epsilon in ((1e17, 0.0), (1e17, 50.0), (1e306, 1e291), (0.8, 5e-3), (0.0, 5e-324)):
        assert perturbation_problem(k, epsilon) is None
    # every route that kicks at k + epsilon refuses; dr reads epsilon as a phase factor
    spec = MapSpec(1e17, 5e-3, 64)
    for route, args in (
        (exact_fidelity_curve, (PositionEigenstate(0.25), 3)),
        (dense_oracle, (PositionEigenstate(0.25), 3)),
        (orbit_from_map, ((0.3, 0.2), 3)),
        (shadow_survey, (1, 3)),
    ):
        with pytest.raises(InvalidInputError, match="below the rounding of k"):
            route(spec, *args)
    spec = MapSpec(1e15, 5e-3, 64)  # k + epsilon == k too, at a kick the map still carries
    assert np.isfinite(dr_curve(spec, samples_position_state(spec, 0.25), 3).fidelity).all()


def test_kicks_the_float_map_cannot_carry_are_refused():
    limit = 2.0**52 * TWO_PI  # |k| / 2pi == 2^52
    for k_eff in (limit, -limit, 1e17, 1e306, math.inf, math.nan):
        assert "too large for the float map" in kick_problem(k_eff)[1], k_eff
    for k_eff in (np.nextafter(limit, 0.0), -np.nextafter(limit, 0.0), 1e16, 10.0, 0.0):
        assert kick_problem(k_eff) is None, k_eff
    # from the limit up a kick at sin(2 pi q) = 1 leaves p' on a grid of 1/2, then of 1
    c = limit / TWO_PI
    assert (0.3 - c) % 1.0 == 0.5
    assert (0.3 - np.nextafter(c, math.inf)) % 1.0 == 0.0
    # every route that steps the map refuses, at k (unperturbed) or k + epsilon (perturbed)
    huge = MapSpec(1e17, 1e2, 64)
    orbit = shadowing.PseudoOrbit(np.full((4, 2), 0.25))
    for route, args in (
        (step_ensemble, (0.25, 0.5)),
        (step_ensemble, (0.25, 0.5, True)),
        (dr_curve, (samples_position_state(huge, 0.25), 3)),
        (orbit_from_map, ((0.3, 0.2), 3)),
        (shadowing.pseudo_residual, (orbit,)),
        (shadowing.refine_shadow, (orbit,)),
        (shadow_survey, (2, 3)),
    ):
        with pytest.raises(InvalidInputError, match="too large for the float map"):
            route(huge, *args)
    # k + epsilon alone over the limit: only the perturbed map refuses
    edge = MapSpec(np.nextafter(limit, 0.0), 64.0, 64)
    assert kick_problem(edge.k) is None and kick_problem(edge.k + edge.epsilon) is not None
    step_ensemble(edge, 0.25, 0.5)
    for route, args in ((step_ensemble, (0.25, 0.5, True)), (shadow_survey, (2, 3))):
        with pytest.raises(InvalidInputError, match="too large for the float map"):
            route(edge, *args)


def test_step_rejects_nonfinite_point():
    with pytest.raises(InvalidInputError):
        step_ensemble(MIXED, float("nan"), 0.0)


def _tangent_ref(spec, q, perturbed):
    """Tangent map [[1 - K, 1], [-K, 1]] of the step at position q, K = dp'/dq, written out."""
    kick = spec.kick_coefficient(perturbed) * 2.0 * math.pi * math.cos(2.0 * math.pi * q)
    return np.array([[1.0 - kick, 1.0], [-kick, 1.0]])


def test_jacobian_determinant_is_one():
    # the map is area-preserving; the Newton step of shadowing builds its
    # band from this tangent map
    rng = np.random.default_rng(7)
    for _ in range(100):
        j = _tangent_ref(CHAOTIC, rng.random(), perturbed=True)
        assert abs(np.linalg.det(j) - 1.0) < 1e-13


def test_jacobian_matches_finite_differences():
    q, p = 0.3, 0.62
    j = _tangent_ref(PERTURBED, q, perturbed=True)
    h = 1e-7
    num = np.empty((2, 2))
    for col, (dq, dp) in enumerate([(h, 0.0), (0.0, h)]):
        q_plus, p_plus = step_ensemble(PERTURBED, q + dq, p + dp, perturbed=True)
        q_minus, p_minus = step_ensemble(PERTURBED, q - dq, p - dp, perturbed=True)
        # central difference with torus-wrapped numerator
        dq_out = (q_plus - q_minus + 0.5) % 1.0 - 0.5
        dp_out = (p_plus - p_minus + 0.5) % 1.0 - 0.5
        num[0, col] = dq_out / (2 * h)
        num[1, col] = dp_out / (2 * h)
    assert np.abs(j - num).max() < 1e-6


def test_wrap_unit_edge_cases():
    assert wrap_unit(0.0) == 0.0
    assert wrap_unit(1.0) == 0.0
    assert wrap_unit(-0.25) == 0.75
    assert wrap_unit(3.25) == 0.25
    # tiny negative values must not round up to exactly 1.0
    out = wrap_unit(-1e-17)
    assert 0.0 <= out < 1.0


def test_wrap_unit_matches_explicit_wrap_bitwise():
    rng = np.random.default_rng(3)
    x = np.concatenate([
        20.0 * rng.random(200) - 10.0,
        [0.0, -0.0, 1.0, -1.0, -1e-17, -5e-324, np.nextafter(1.0, 0.0), 1e300,
         -1e300, np.inf, -np.inf, np.nan],
    ])
    with np.errstate(invalid="ignore"):
        got, want = wrap_unit(x), wrap_ref(x)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert wrap_unit(0.75).shape == () and wrap_unit([0.5]).dtype == np.float64
    x_before = x.copy()
    with np.errstate(invalid="ignore"):
        wrap_unit(x)
    assert np.array_equal(x, x_before, equal_nan=True)  # the input is not written


def test_torus_distance_wraps():
    a = np.array([0.95, 0.1])
    b = np.array([0.05, 0.1])
    assert float(torus_distance(a, b)) == pytest.approx(0.1, abs=1e-15)
    assert float(torus_distance(a, a)) == 0.0


def _orbit_and_sums_ref(spec, q, p, steps):
    """The unperturbed orbit from (q, p) and its action sums, written out.

    sums[t] = sum_{m<t} cos(2 pi q_m), so dS(t) = epsilon sums[t] / 4pi^2.
    One-element arrays, like the program's chunk of one sample. The cos is
    taken as the dr record takes it, from t = tan(pi q) as (1 - t^2)/(1 + t^2)
    written 2/(1 + t^2) - 1; the map kicks with np.sin.
    """
    c = spec.kick_coefficient(False)
    q, p = wrap_ref(np.array([q])), wrap_ref(np.array([p]))
    orbit, sums, s = [(q[0], p[0])], [0.0], np.zeros(1)
    for _ in range(steps):
        t = np.tan(2.0 * np.pi * q / 2)
        s = s + (2.0 / (1.0 + t * t) - 1.0)
        q, p = step_ref(c, q, p)
        orbit.append((q[0], p[0]))
        sums.append(s[0])
    return np.array(orbit), np.array(sums)


def _one_sample(q, p):
    return SampleSet(np.array([q]), np.array([p]), np.array([1.0]), "grid", "point")


def test_propagate_action_matches_independent_values():
    _, sums = _orbit_and_sums_ref(PERTURBED, 0.4, 0.2, 3)
    delta_s = PERTURBED.epsilon * sums / (4.0 * np.pi**2)
    assert delta_s[3] == pytest.approx(-0.00028829426634786502, rel=1e-12)
    _, sums1 = _orbit_and_sums_ref(PERTURBED, 0.4, 0.0, 1)
    assert PERTURBED.epsilon * sums1[1] / (4.0 * np.pi**2) == pytest.approx(
        -0.00010246319932104524, rel=1e-12
    )
    # the dr phase of one sample is that action over hbar
    curve = dr_curve(PERTURBED, _one_sample(0.4, 0.2), 3)
    assert np.abs(curve.amplitude - np.exp(1j * delta_s / PERTURBED.hbar)).max() < 1e-12


def test_propagate_action_linear_in_epsilon():
    # epsilon multiplies an orbit-only sum, so the phase at 2 epsilon is
    # exactly twice that at epsilon and the amplitudes follow bitwise
    _, sums = _orbit_and_sums_ref(PERTURBED, 0.17, 0.58, 40)
    factor = PERTURBED.epsilon * PERTURBED.dim_n / (2.0 * np.pi)
    for scale in (1.0, 2.0, 0.0):
        curve = dr_curve(PERTURBED.with_epsilon(scale * PERTURBED.epsilon), _one_sample(0.17, 0.58), 40)
        for t in range(41):
            # cos and sin of the phase by the half-angle identity
            half = np.tan(np.array([sums[t] * (scale * factor)]) / 2)
            w = 2.0 / (1.0 + half * half)
            assert curve.amplitude[t] == complex(w[0] - 1.0, half[0] * w[0])
    assert np.all(curve.amplitude == 1.0)


def test_propagate_orbit_storage():
    orbit = orbit_from_map(PERTURBED.with_epsilon(0.0), (0.4, 0.2), 5)
    assert orbit.points.shape == (6, 2)
    assert orbit.points[0, 0] == 0.4 and orbit.points[0, 1] == 0.2
    want, _ = _orbit_and_sums_ref(PERTURBED, 0.4, 0.2, 5)
    assert np.array_equal(orbit.points, want)
    q, p = 0.4, 0.2
    for t in range(1, 6):
        q, p = step_ensemble(PERTURBED, q, p)
        assert orbit.points[t, 0] == q and orbit.points[t, 1] == p


def test_propagate_rejects_negative_steps():
    for steps in (-1, 0, 2.0, True):
        with pytest.raises(InvalidInputError, match="steps must be an integer >= 1"):
            orbit_from_map(MIXED, (0.1, 0.1), steps)
    assert steps_problem(0) is None and steps_problem(_MAX_STEPS) is None
    assert steps_problem(-1)[0] is InvalidInputError
    assert steps_problem(_MAX_STEPS + 1)[0] is CapacityError
    # a capacity refusal, before the curve is allocated
    with pytest.raises(CapacityError, match="exceeds limit"):
        dr_curve(MIXED, _one_sample(0.1, 0.1), 10**15)


class _Accepted(Exception):
    """Raised by the first step of work, which starts only once every argument passed."""


def _accept(*args, **kwargs):
    raise _Accepted


def _raise_first(problems):
    for problem in problems:
        raise_problem(problem)


def _grid_samples(count):
    # past the count rule, a count other than N is the grid's own refusal
    try:
        samples_position_state(PERTURBED, 0.4, count=count)
    except InvalidInputError as exc:
        if "grid sampling yields exactly" not in str(exc):
            raise
        raise _Accepted from exc


# (name, minimum, limit, a call that checks the count as its owner does)
COUNT_OWNERS = [
    ("steps", 0, _MAX_STEPS, lambda v: raise_problem(steps_problem(v))),
    ("steps", 1, _MAX_STEPS, lambda v: raise_problem(steps_problem(v, minimum=1))),
    ("samples", 1, _MAX_SAMPLES,
     lambda v: samples_position_state(MIXED, 0.5, count=v, mode="monte_carlo")),
    ("samples", 1, _MAX_SAMPLES, _grid_samples),
    ("threads", 1, None, lambda v: dr_curve(MIXED, _one_sample(0.1, 0.1), 1, threads=v)),
    ("dim_n", 2, None, lambda v: _raise_first(map_problems(0.8, 0.0, v))),
    ("dim_n", 2, _MAX_DIM, lambda v: raise_problem(grid_problem(v))),
    ("count", 1, _MAX_SURVEY_COUNT, lambda v: shadow_survey(PERTURBED, count=v, steps=3)),
    ("max_iter", 1, None, lambda v: shadow_survey(PERTURBED, count=1, steps=3, max_iter=v)),
]


@pytest.mark.parametrize(
    "name, minimum, limit, check",
    COUNT_OWNERS,
    ids=["steps>=0", "steps>=1", "samples", "grid samples", "threads", "dim_n", "grid", "count",
         "max_iter"],
)
def test_every_count_goes_through_the_count_rule(monkeypatch, name, minimum, limit, check):
    monkeypatch.setattr(initial_states, "_rng", _accept)
    monkeypatch.setattr(shadowing, "_rng", _accept)
    over = CapacityError if limit is not None else None
    cases = [
        (True, InvalidInputError),
        (10**400, over),
        (-(10**400), InvalidInputError),
        (1.0, InvalidInputError),
        (1000.0, InvalidInputError),  # N as a float, on the grid of N = 1000 too
        (minimum - 1, InvalidInputError),
        (minimum, None),
    ]
    if limit is not None:
        cases += [(limit, None), (limit + 1, CapacityError)]
    for value, kind in cases:
        if kind is None:
            try:
                check(value)
            except _Accepted:
                pass
            continue
        message = (
            f"{name} must be an integer >= {minimum}, got {value!r}"
            if kind is InvalidInputError
            else f"{name} {value} exceeds limit {limit}"
        )
        with pytest.raises(kind) as refused:
            check(value)
        assert str(refused.value) == message


@settings(deadline=None, max_examples=60)
@given(
    q=st.floats(0.0, 1.0, exclude_max=True),
    p=st.floats(0.0, 1.0, exclude_max=True),
    k=st.floats(0.0, 20.0),
)
def test_step_stays_on_torus(q, p, k):
    spec = MapSpec(k, 1e-3, 100)
    q1, p1 = step_ensemble(spec, q, p, perturbed=True)
    assert 0.0 <= q1 < 1.0
    assert 0.0 <= p1 < 1.0
