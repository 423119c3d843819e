"""The public surface: what `torusecho` exports, and the names the benchmark traces."""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

import torusecho
from torusecho import dephasing, dynamics, harness, initial_states, quantum, shadowing

TRACING = Path(__file__).resolve().parents[1] / "torusbench" / "tracing.py"

# names removed from the program: test-only ones, and rules folded into a shared one
REMOVED = (
    (dynamics, ("PhasePoint", "step", "step_inverse", "jacobian", "dim_problem")),
    (dephasing, ("threads_problem", "BLOCK")),
    (harness, ("_parse_value", "_POSITION_MODES", "_GAUSSIAN_MODES")),
    (initial_states, ("WignerSampler", "periodized_gaussian_density")),
    (shadowing, ("wrap_signed", "noisy_orbit", "_GENERATORS", "_against_flag")),
    (initial_states.SampleSet, ("uniform",)),
    (quantum, ("loschmidt_equivalence",)),
    (quantum.QuantumState, ("position_density", "overlap")),
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
