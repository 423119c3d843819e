"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines; each test also asserts, so the suite fails loudly if any
guarantee regresses. Stated time budgets are asserted too.
"""

import time

import numpy as np
import pytest

from torusecho import (
    PRESETS,
    GaussianWavepacket,
    MapSpec,
    PositionEigenstate,
    PseudoOrbit,
    dr_curve,
    dense_oracle,
    exact_fidelity_curve,
    pseudo_residual,
    run_experiment,
    samples_gaussian,
    samples_position_state,
    shadow_time_estimate,
    step_ensemble,
    wrap_unit,
)
from torusecho.harness import render_csv


def _line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_c1_zero_perturbation_identity():
    """eps = 0: dephasing M(t) exactly 1, exact route within 1e-10."""
    t0 = time.perf_counter()
    worst_exact = 0.0
    dr_exactly_one = True
    for k in (0.8, 10.0):
        spec = MapSpec(k, 0.0, 1000)
        dr = dr_curve(spec, samples_position_state(spec, 0.4), 100)
        dr_exactly_one &= bool(np.all(dr.fidelity == 1.0))
        ex = exact_fidelity_curve(spec, PositionEigenstate(0.4), 100)
        worst_exact = max(worst_exact, float(np.abs(ex.fidelity - 1.0).max()))
    elapsed = time.perf_counter() - t0
    ok = dr_exactly_one and worst_exact < 1e-10 and elapsed < 5.0
    assert _line(
        "criterion 1 (eps=0 identity)",
        ok,
        f"dr exactly 1: {dr_exactly_one}, exact max|M-1| = {worst_exact:.2e}, "
        f"{elapsed:.2f}s (budget 5s)",
    )
    assert dr_exactly_one
    assert worst_exact < 1e-10
    assert elapsed < 5.0


@pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2, 0.1])
def test_c2_single_kick_unity(eps):
    """Position eigenstate: M(1) = 1 within 1e-12 on both routes."""
    spec = MapSpec(0.8, eps, 1000)
    dr = dr_curve(spec, samples_position_state(spec, 0.4), 1)
    ex = exact_fidelity_curve(spec, PositionEigenstate(0.4), 1)
    dev_dr = abs(dr.fidelity[1] - 1.0)
    dev_ex = abs(ex.fidelity[1] - 1.0)
    ok = dev_dr < 1e-12 and dev_ex < 1e-12
    assert _line(
        f"criterion 2 (single-kick unity, eps={eps})",
        ok,
        f"|M_dr(1)-1| = {dev_dr:.2e}, |M_exact(1)-1| = {dev_ex:.2e}",
    )
    assert dev_dr < 1e-12
    assert dev_ex < 1e-12


def test_c3_split_operator_vs_dense_oracle():
    """Independent dense propagation agrees to 1e-9 in amplitude."""
    t0 = time.perf_counter()
    worst = 0.0
    for dim in (16, 64, 128):
        for k, eps in ((0.8, 5e-3), (10.0, 2e-3)):
            spec = MapSpec(k, eps, dim)
            state = PositionEigenstate(0.25)
            split = exact_fidelity_curve(spec, state, 30)
            dense = dense_oracle(spec, state, 30)
            worst = max(worst, float(np.abs(split.amplitude - dense.amplitude).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 30.0
    assert _line(
        "criterion 3 (split vs dense)",
        ok,
        f"max |amp dev| = {worst:.2e} over 6 combos, {elapsed:.2f}s (budget 30s)",
    )
    assert worst < 1e-9
    assert elapsed < 30.0


def test_c4_preset_agreement():
    """Preset runs: dephasing tracks the exact curve within the stated MAD."""
    t0 = time.perf_counter()
    gates = {"fig1-mixed": 0.08, "fig1-chaotic": 0.05}
    measured = {}
    for name, gate in gates.items():
        result = run_experiment(PRESETS[name])
        measured[name] = result.comparison.mad
    elapsed = time.perf_counter() - t0
    ok = all(measured[n] < g for n, g in gates.items()) and elapsed < 60.0
    assert _line(
        "criterion 4 (preset dr-vs-exact agreement)",
        ok,
        f"mad fig1-mixed = {measured['fig1-mixed']:.4f} (< 0.08), "
        f"fig1-chaotic = {measured['fig1-chaotic']:.4f} (< 0.05), "
        f"{elapsed:.2f}s (budget 60s)",
    )
    # regression baselines, measured at first ship: 0.0029 and 0.0143
    assert measured["fig1-mixed"] < 0.08
    assert measured["fig1-chaotic"] < 0.05
    assert elapsed < 60.0


def test_c5_shadow_horizon_values():
    """epsilon^(-1/2) horizon hits the documented figures."""
    t_mixed = shadow_time_estimate(5e-3)
    t_chaotic = shadow_time_estimate(2e-3)
    ok = round(t_mixed, 1) == 14.1 and round(t_chaotic, 1) == 22.4
    ok &= abs(t_mixed - 14.142135623730951) < 1e-9
    ok &= abs(t_chaotic - 22.360679774997898) < 1e-9
    assert _line(
        "criterion 5 (shadow horizon)",
        ok,
        f"t(5e-3) = {t_mixed:.6f} ~ 14.1, t(2e-3) = {t_chaotic:.6f} ~ 22.4",
    )
    assert ok


def _ensemble_orbits(spec, count, steps, seed, noise=0.0):
    """count orbits of the perturbed map, all evolved at once."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    pts = np.empty((steps + 1, count, 2))
    q = rng.random(count)
    p = rng.random(count)
    pts[0, :, 0] = q
    pts[0, :, 1] = p
    for t in range(1, steps + 1):
        q, p = step_ensemble(spec, q, p, perturbed=True)
        if noise > 0.0:
            q = wrap_unit(q + noise * (2.0 * rng.random(count) - 1.0))
            p = wrap_unit(p + noise * (2.0 * rng.random(count) - 1.0))
        pts[t, :, 0] = q
        pts[t, :, 1] = p
    return pts


def test_c6_pseudo_orbit_bounds_hold_everywhere():
    """Residual bounds: 1000 orbits x 1000 steps, zero violations."""
    steps = 1000
    per_reg = 250  # x2 regimes x2 noise settings = 1000 orbits
    delta = 1e-4
    violations = 0
    checked = 0
    worst_margin = np.inf
    for k, eps in ((0.8, 5e-3), (10.0, 2e-3)):
        spec = MapSpec(k, eps, 1000)
        kick_bound = eps / (2 * np.pi)
        for noise, bound in ((0.0, kick_bound), (delta, delta + kick_bound)):
            pts = _ensemble_orbits(spec, per_reg, steps, seed=17, noise=noise)
            for i in range(per_reg):
                orbit = PseudoOrbit(pts[:, i, :])
                r = pseudo_residual(spec, orbit)
                checked += 1
                if r > bound:
                    violations += 1
                worst_margin = min(worst_margin, bound - r)
    ok = violations == 0 and checked == 1000
    assert _line(
        "criterion 6 (pseudo-orbit residual bounds)",
        ok,
        f"{checked} orbits x {steps} steps, violations = {violations}, "
        f"tightest margin = {worst_margin:.2e}",
    )
    assert checked == 1000
    assert violations == 0


def test_c7_monte_carlo_error_scaling():
    """Reported standard error scales as 1/sqrt(samples)."""
    t0 = time.perf_counter()
    spec = MapSpec(10.0, 2e-3, 1000)
    counts = [100, 1000, 10_000, 100_000]
    errs = []
    for n in counts:
        s = samples_position_state(spec, 0.4, count=n, mode="monte_carlo", seed=5)
        errs.append(float(dr_curve(spec, s, 50).stderr_re[50]))
    slope = float(np.polyfit(np.log(counts), np.log(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = abs(slope + 0.5) < 0.1 and elapsed < 60.0
    assert _line(
        "criterion 7 (Monte Carlo error scaling)",
        ok,
        f"log-log slope = {slope:.4f} (want -0.5 +/- 0.1), {elapsed:.2f}s (budget 60s)",
    )
    assert abs(slope + 0.5) < 0.1
    assert elapsed < 60.0


def test_c8_output_bytes_independent_of_workers(tmp_path):
    """Same seed, 1 vs 8 workers: byte-identical data files."""
    base = dict(
        dim_n=1000, q0=0.4, steps=25, sample_mode="monte_carlo",
        samples=20_000, seed=21, methods=("dr",),
    )
    cfg1 = PRESETS["fig1-chaotic"].replace(**base, threads=1)
    cfg8 = PRESETS["fig1-chaotic"].replace(**base, threads=8)
    r1 = run_experiment(cfg1.replace(out=tmp_path / "workers1.csv"))
    r8 = run_experiment(cfg8.replace(out=tmp_path / "workers8.csv"))
    b1 = (tmp_path / "workers1.csv").read_bytes()
    b8 = (tmp_path / "workers8.csv").read_bytes()
    ok = b1 == b8 and len(b1) > 0
    assert _line(
        "criterion 8 (worker-count determinism)",
        ok,
        f"{len(b1)} bytes, identical = {b1 == b8} "
        f"(in-memory curves identical = "
        f"{np.array_equal(r1.curves['dr'].amplitude, r8.curves['dr'].amplitude)})",
    )
    assert b1 == b8
    # and the rendered text is derived purely from the curves
    assert "".join(render_csv(r1.curves)).encode() == b1


def test_c9_gaussian_states():
    """Gaussian wavepackets: split vs dense to 1e-9, dr (Wigner) tracks exact."""
    t0 = time.perf_counter()
    worst_dense = 0.0
    for dim in (64, 256):
        for k, eps in ((0.8, 5e-3), (10.0, 2e-3)):
            spec = MapSpec(k, eps, dim)
            state = GaussianWavepacket(0.4, 0.3, 0.05)
            split = exact_fidelity_curve(spec, state, 30)
            dense = dense_oracle(spec, state, 30)
            worst_dense = max(worst_dense, float(np.abs(split.amplitude - dense.amplitude).max()))
    # (k, epsilon, p0): MAD gate at about twice the largest MAD over sample
    # seeds 0-5 (N = 1000, 10^5 Wigner samples, 50 steps), which was
    # 0.0101, 0.0059, 0.0173 and 0.0036 for the cases in this order
    gates = {
        (0.8, 5e-3, 0.0): 0.02, (0.8, 5e-3, 0.3): 0.012,
        (10.0, 2e-3, 0.0): 0.035, (10.0, 2e-3, 0.3): 0.008,
    }
    measured = {}
    for k, eps, p0 in gates:
        spec = MapSpec(k, eps, 1000)
        samples = samples_gaussian(spec, 0.4, p0, 0.05, 100_000, mode="wigner", seed=0)
        dr = dr_curve(spec, samples, 50)
        ex = exact_fidelity_curve(spec, GaussianWavepacket(0.4, p0, 0.05), 50)
        measured[k, eps, p0] = float(np.mean(np.abs(dr.fidelity - ex.fidelity)))
    elapsed = time.perf_counter() - t0
    mads_ok = all(measured[key] < gate for key, gate in gates.items())
    ok = worst_dense < 1e-9 and mads_ok and elapsed < 60.0
    assert _line(
        "criterion 9 (Gaussian states)",
        ok,
        f"split vs dense max |amp dev| = {worst_dense:.2e}; dr vs exact mad "
        + ", ".join(f"k={key[0]:g} p0={key[2]:g}: {m:.4f} (< {gates[key]:g})"
                    for key, m in measured.items())
        + f", {elapsed:.2f}s (budget 60s)",
    )
    assert worst_dense < 1e-9
    assert mads_ok, measured
    assert elapsed < 60.0


def test_c10_semiclassical_limit():
    """At fixed epsilon*N, dr approaches exact as hbar = 1/(2 pi N) falls."""
    t0 = time.perf_counter()
    grids = (250, 1000, 4000, 16000)
    # (k, epsilon*N): required fall of the MAD from N = 250 to 16000, about
    # 2.5 times below the measured 7.5 and 21 (the fall is not monotone at k = 10)
    gates = {(10.0, 2.0): 3.0, (0.8, 5.0): 8.0}
    mads = {}
    for k, eps_n in gates:
        for n in grids:
            spec = MapSpec(k, eps_n / n, n)
            dr = dr_curve(spec, samples_position_state(spec, 0.4), 50)
            ex = exact_fidelity_curve(spec, PositionEigenstate(0.4), 50)
            mads[k, eps_n, n] = float(np.mean(np.abs(dr.fidelity - ex.fidelity)))
    falls = {key: mads[(*key, grids[0])] / mads[(*key, grids[-1])] for key in gates}
    elapsed = time.perf_counter() - t0
    falls_ok = all(falls[key] > gate for key, gate in gates.items())
    ok = falls_ok and elapsed < 10.0
    assert _line(
        "criterion 10 (semiclassical limit)",
        ok,
        "; ".join(
            f"k={k:g} eps*N={eps_n:g}: mad "
            + " / ".join(f"{mads[k, eps_n, n]:.4f}" for n in grids)
            + f" at N = {' / '.join(map(str, grids))}, fall {falls[k, eps_n]:.1f}x (> {gate:g}x)"
            for (k, eps_n), gate in gates.items()
        )
        + f", {elapsed:.2f}s (budget 10s)",
    )
    assert falls_ok, falls
    assert elapsed < 10.0
