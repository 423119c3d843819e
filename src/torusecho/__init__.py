"""Fidelity decay of perturbed kicked torus maps.

Two routes to the same quantity: a semiclassical dephasing average over
unperturbed classical orbits, and exact split-operator quantum
propagation on the quantized torus, plus shadowing diagnostics that
explain why the classical input to the semiclassical route is
trustworthy over the relevant horizon.
"""

__version__ = "0.1.0"

from .dephasing import CHUNK, FidelityCurve, dr_conjugation_check, dr_curve
from .dynamics import MapSpec, step_ensemble, wrap_unit
from .errors import CapacityError, ConfigValidationError, InvalidInputError
from .harness import (
    PRESETS,
    ComparisonReport,
    ExperimentConfig,
    RunResult,
    compare,
    load_config,
    parse_config,
    run_experiment,
    validate_config,
    write_result,
)
from .initial_states import (
    GaussianWavepacket,
    InitialState,
    PositionEigenstate,
    SampleSet,
    samples_gaussian,
    samples_position_state,
)
from .quantum import (
    build_state,
    dense_oracle,
    exact_fidelity_curve,
    step_quantum,
)
from .shadowing import (
    PseudoOrbit,
    ShadowResult,
    orbit_from_map,
    pseudo_residual,
    refine_shadow,
    shadow_survey,
    shadow_time_estimate,
)

__all__ = [
    "__version__",
    "CHUNK",
    "PRESETS",
    "CapacityError",
    "ComparisonReport",
    "ConfigValidationError",
    "ExperimentConfig",
    "FidelityCurve",
    "GaussianWavepacket",
    "InitialState",
    "InvalidInputError",
    "MapSpec",
    "PositionEigenstate",
    "PseudoOrbit",
    "RunResult",
    "SampleSet",
    "ShadowResult",
    "build_state",
    "compare",
    "dense_oracle",
    "dr_conjugation_check",
    "dr_curve",
    "exact_fidelity_curve",
    "load_config",
    "orbit_from_map",
    "parse_config",
    "pseudo_residual",
    "refine_shadow",
    "run_experiment",
    "samples_gaussian",
    "samples_position_state",
    "shadow_survey",
    "shadow_time_estimate",
    "step_ensemble",
    "step_quantum",
    "validate_config",
    "wrap_unit",
    "write_result",
]
