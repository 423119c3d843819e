"""The public surface: what `torusecho` exports, and the names the benchmark traces."""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import torusecho
from torusecho import dephasing, dynamics, harness, initial_states, quantum, shadowing

TRACING = Path(__file__).resolve().parents[1] / "torusbench" / "tracing.py"

# names removed from the program: test-only ones, and rules folded into a shared one
REMOVED = (
    (dynamics, ("PhasePoint", "step", "step_inverse", "jacobian", "dim_problem",
                "torus_distance")),
    (dephasing, ("threads_problem", "BLOCK")),
    (harness, ("_parse_value", "_POSITION_MODES", "_GAUSSIAN_MODES", "curve_rows",
               "_JSON_METHOD")),
    (initial_states, ("WignerSampler", "periodized_gaussian_density")),
    (shadowing, ("wrap_signed", "noisy_orbit", "_GENERATORS", "_against_flag")),
    (initial_states.SampleSet, ("uniform",)),
    (quantum, ("loschmidt_equivalence",)),
    (quantum, ("QuantumState", "_resolve_state", "_NORM_GUARD")),
    (dephasing.FidelityCurve, ("amplitude_re", "amplitude_im", "fidelity_stderr")),
)

# parameters that no caller set to anything but the default, and were removed
RETIRED_PARAMETERS = (
    (shadowing.refine_shadow, "against"),
    (shadowing.pseudo_residual, "against"),
    (shadowing._residuals, "perturbed"),
    (shadowing._orbit_defect, "perturbed"),
    (shadowing._min_norm_newton_step, "perturbed"),
    (shadowing._damped_trial, "perturbed"),
    (shadowing.orbit_from_map, "perturbed"),
    (shadowing._orbits, "perturbed"),
    (dephasing._chunk_sums, "scale"),
    (quantum.exact_fidelity_curve, "state_label"),
    (quantum.dense_oracle, "state_label"),
    (harness.write_result, "fmt"),
    (harness.run_experiment, "out"),
    (harness.write_result, "out"),
)


def test_every_exported_name_resolves():
    assert len(set(torusecho.__all__)) == len(torusecho.__all__)
    missing = [name for name in torusecho.__all__ if not hasattr(torusecho, name)]
    assert missing == []


def test_removed_names_are_not_exported():
    for owner, names in REMOVED:
        for name in names:
            assert name not in torusecho.__all__
            assert not hasattr(torusecho, name)
            assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    fields = {f.name for f in dataclasses.fields(harness.ComparisonReport)}
    assert not fields & {"curve_a", "curve_b"}
    assert "spec" not in {f.name for f in dataclasses.fields(harness.RunResult)}
    for fn, name in RETIRED_PARAMETERS:
        assert name not in inspect.signature(fn).parameters, f"{fn.__name__}({name}=)"
    fields = {f.name for f in dataclasses.fields(shadowing.PseudoOrbit)}
    assert not fields & {"generator", "noise_delta"}


def test_shadow_result_keeps_its_five_positional_fields():
    # the benchmark's shadow-survey check builds ShadowResult positionally
    names = [f.name for f in dataclasses.fields(shadowing.ShadowResult)]
    assert names == ["shadow_points", "shadow_distance", "residual", "converged", "iterations"]
    points = np.zeros((3, 2))
    result = shadowing.ShadowResult(points, 0.25, 1e-12, True, 4)
    assert (result.shadow_points is points and result.shadow_distance == 0.25
            and result.residual == 1e-12 and result.converged and result.iterations == 4)


def test_every_traced_name_resolves():
    # the benchmark replaces each traced function in the module its callers
    # look it up in; a name that no longer resolves there breaks its runs
    spec = importlib.util.spec_from_file_location("torusbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, *_ in tracing.TRACED
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []


def test_no_orbit_loop_steps_through_step_ensemble(monkeypatch):
    # points are checked where they enter, so every loop steps the kernel from t = 1;
    # the benchmark still traces step_ensemble in dephasing and shadowing
    def never(*args, **kwargs):
        raise AssertionError("an orbit loop stepped through step_ensemble")

    for module in (dynamics, dephasing, shadowing):
        monkeypatch.setattr(module, "step_ensemble", never)
    grid_spec = dynamics.MapSpec(0.8, 5e-3, 64)
    grid = initial_states.samples_position_state(grid_spec, 0.25)
    spec = dynamics.MapSpec(10.0, 2e-3, 1000)
    # more than one job at either thread count, with a ragged tail
    mc = initial_states.samples_position_state(spec, 0.4, count=10 * dephasing.CHUNK - 7,
                                               mode="monte_carlo", seed=4)
    for threads in (1, 2):
        assert dephasing.dr_curve(grid_spec, grid, 5, threads=threads).steps == 5
        assert dephasing.dr_curve(spec, mc, 3, threads=threads).steps == 3
    assert shadowing.orbit_from_map(spec, (0.37, 0.21), 5).steps == 5
    assert shadowing.shadow_survey(spec, count=3, steps=5)["count"] == 3
    for name, config in harness.PRESETS.items():
        assert config.out is None, name
        assert harness.run_experiment(config).curves.keys() == {"dr", "exact"}
