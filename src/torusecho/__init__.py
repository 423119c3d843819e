"""Fidelity decay of perturbed kicked torus maps.

Two routes to the same quantity: a semiclassical dephasing average over
unperturbed classical orbits, and exact split-operator quantum
propagation on the quantized torus, plus shadowing diagnostics that
explain why the classical input to the semiclassical route is
trustworthy over the relevant horizon.
"""

__version__ = "0.1.0"

from .dephasing import CHUNK, FidelityCurve, dr_conjugation_check, dr_curve
from .dynamics import (
    MapSpec,
    PhasePoint,
    jacobian,
    step,
    step_ensemble,
    step_inverse,
    torus_distance,
    wrap_unit,
)
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
    WignerSampler,
    periodized_gaussian_density,
    samples_gaussian,
    samples_position_state,
)
from .quantum import (
    QuantumState,
    build_state,
    dense_oracle,
    exact_fidelity_curve,
    step_quantum,
)
from .shadowing import (
    PseudoOrbit,
    ShadowResult,
    noisy_orbit,
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
    "PhasePoint",
    "PositionEigenstate",
    "PseudoOrbit",
    "QuantumState",
    "RunResult",
    "SampleSet",
    "ShadowResult",
    "WignerSampler",
    "build_state",
    "compare",
    "dense_oracle",
    "dr_conjugation_check",
    "dr_curve",
    "exact_fidelity_curve",
    "jacobian",
    "load_config",
    "noisy_orbit",
    "orbit_from_map",
    "parse_config",
    "periodized_gaussian_density",
    "pseudo_residual",
    "refine_shadow",
    "run_experiment",
    "samples_gaussian",
    "samples_position_state",
    "shadow_survey",
    "shadow_time_estimate",
    "step",
    "step_ensemble",
    "step_inverse",
    "step_quantum",
    "torus_distance",
    "validate_config",
    "wrap_unit",
    "write_result",
]
