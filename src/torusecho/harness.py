"""Experiment configuration, execution, comparison, and serialization.

An experiment fixes the map, the initial state, the sampling strategy,
and which fidelity routes to run (semiclassical dephasing, exact
split-operator, dense-matrix oracle). Results are written as one flat
table (CSV or JSON) with a `.meta.json` sidecar. CSV writes every float
with 17 significant digits, JSON with Python's shortest round-trip repr
(as json does), so both round-trip bitwise and are byte-identical for
any thread count at a fixed seed. Timestamps and durations live only in
the sidecar, never in the data file.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .dephasing import FidelityCurve, dr_curve
from .dynamics import (
    MapSpec,
    count_problem,
    kick_problem,
    map_problems,
    perturbation_problem,
    phase_scale_problem,
    steps_problem,
)
from .errors import CapacityError, ConfigValidationError, InvalidInputError
from .initial_states import (
    GaussianWavepacket,
    PositionEigenstate,
    alignment_problem,
    grid_count_problem,
    mode_problem,
    sample_count_problem,
    samples_gaussian,
    samples_position_state,
    seed_problem,
    sigma_problem,
)
from .quantum import dense_oracle, dense_problem, exact_fidelity_curve, grid_problem

METHOD_ORDER = ("dr", "exact", "dense")
COMPARISON_PRIORITY = (("dr", "exact"), ("dr", "dense"), ("exact", "dense"))
CSV_COLUMNS = ("step", "t", "method", "M", "amp_re", "amp_im", "stderr_re", "stderr_im")

_STATES = ("position", "gaussian")
_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one fidelity experiment."""

    k: float = 0.8
    epsilon: float = 5e-3
    dim_n: int = 1000
    state: str = "position"
    q0: float = 0.4
    p0: float = 0.0
    sigma: float = 0.05
    steps: int = 50
    samples: int | None = None
    sample_mode: str = "grid"
    seed: int = 0
    methods: tuple[str, ...] = ("dr", "exact")
    out: str | os.PathLike | None = None
    format: str = "csv"
    threads: int = 1

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)


PRESETS: dict[str, ExperimentConfig] = {
    # mixed phase space, moderate perturbation
    "fig1-mixed": ExperimentConfig(
        k=0.8, epsilon=5e-3, dim_n=1000, state="position", q0=0.4,
        steps=50, sample_mode="grid", methods=("dr", "exact"),
    ),
    # strongly chaotic regime
    "fig1-chaotic": ExperimentConfig(
        k=10.0, epsilon=2e-3, dim_n=1000, state="position", q0=0.4,
        steps=50, sample_mode="grid", methods=("dr", "exact"),
    ),
}


@dataclass(frozen=True)
class ComparisonReport:
    """Per-step fidelity deviation between two curves of one experiment."""

    method_a: str
    method_b: str
    deviations: np.ndarray
    mad: float
    max_dev: float
    argmax: int


@dataclass(frozen=True)
class RunResult:
    config: ExperimentConfig
    curves: dict
    comparison: ComparisonReport | None
    out_path: Path | None = None
    meta_path: Path | None = None
    duration_s: float = 0.0
    # wall seconds of each stage that ran: sampling, dr, exact, dense, compare, write
    timings: dict = field(default_factory=dict)


def _optional(parse):
    """A field parser that also takes `none`, named as `parse` for argparse's messages."""
    def optional(raw):
        return None if raw.lower() == "none" else parse(raw)
    optional.__name__ = parse.__name__
    return optional


def _method_list(raw):
    return tuple(part.strip() for part in raw.split(",") if part.strip())


_FIELD_PARSERS = {
    "k": float,
    "epsilon": float,
    "dim_n": int,
    "state": str,
    "q0": float,
    "p0": float,
    "sigma": float,
    "steps": int,
    "samples": _optional(int),
    "sample_mode": str,
    "seed": int,
    "methods": _method_list,
    "out": _optional(str),
    "format": str,
    "threads": int,
}


def parse_config(text: str) -> ExperimentConfig:
    """Build a config from flat `key = value` text.

    Lines starting with `#` and blank lines are skipped. All problems
    (unknown keys, malformed lines, bad values) are collected with their
    line numbers and raised together as ConfigValidationError.
    """
    values = {}
    violations = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            violations.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_PARSERS:
            violations.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            violations.append(f"line {lineno}: duplicate key {key!r}")
            continue
        try:
            values[key] = _FIELD_PARSERS[key](raw)
        except ValueError:
            violations.append(f"line {lineno}: cannot parse {key} value {raw!r}")
    if violations:
        raise ConfigValidationError(violations)
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    """Parse a UTF-8 config file, a leading byte-order mark dropped; non-UTF-8 is a config error."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigValidationError(
            [f"{path}: not UTF-8 text at byte {exc.start}: {exc.reason}"]
        ) from None
    return parse_config(text)


def validate_config(config: ExperimentConfig) -> list[tuple[type, str]]:
    """All semantic violations as (kind, message) pairs; empty when runnable.

    kind is CapacityError for a resource refusal, else InvalidInputError.
    The argument rules are those of the modules that own the arguments;
    only the checks that concern the config as a whole are made here.
    The rules every run shares come first, then one block a requested
    route: the sample set's rules for dr, the grid caps for exact and dense.
    """
    map_bad = map_problems(config.k, config.epsilon, config.dim_n)
    dim_ok = count_problem("dim_n", config.dim_n, 2) is None
    v = list(map_bad)

    def add(problem):
        if problem is not None and problem not in v:  # a rule two routes share is named once
            v.append(problem)

    def invalid(message):
        v.append((InvalidInputError, message))

    if config.state not in _STATES:
        invalid(f"state must be one of {_STATES}, got {config.state!r}")
    steps_bad = steps_problem(config.steps)
    add(steps_bad)
    q0_ok = 0.0 <= config.q0 < 1.0
    if not q0_ok:
        invalid(f"q0 must lie in [0, 1), got {config.q0!r}")
    if not 0.0 <= config.p0 < 1.0:
        invalid(f"p0 must lie in [0, 1), got {config.p0!r}")
    if config.format not in _FORMATS:
        invalid(f"format must be one of {_FORMATS}, got {config.format!r}")
    if config.out is not None:
        out = os.fspath(config.out)
        if not out or "\0" in out:  # os.path.exists is False for a path with a NUL byte
            invalid(f"out must name a file, got {out!r}")
        elif os.path.exists(out) and not os.path.isfile(out):
            # /dev/null or a directory: the sidecar is named after a regular file
            invalid(f"out must name a regular file, got {out!r}")
        elif os.path.exists(meta := _sidecar(out)) and not os.path.isfile(meta):
            invalid(f"out's sidecar must be a regular file, got {str(meta)!r}")
    add(count_problem("threads", config.threads, 1))
    add(seed_problem(config.seed))
    if not config.methods:
        invalid("methods must name at least one of dr, exact, dense")
    for m in config.methods:
        if m not in METHOD_ORDER:
            invalid(f"unknown method {m!r} (choose from dr, exact, dense)")
    if len(set(config.methods)) != len(config.methods):
        invalid(f"methods contains duplicates: {config.methods!r}")
    if config.samples is not None:  # the count's form holds whatever runs; its cap binds dr
        add(count_problem("samples", config.samples, 1))
    if config.state == "position" and dim_ok and q0_ok:  # the range rule above reports any other q0
        add(alignment_problem(config.q0, config.dim_n))
    elif config.state == "gaussian":
        add(sigma_problem(config.sigma))

    if "dr" in config.methods:  # the sample set's rules; dr steps the unperturbed map, at k
        add(None if map_bad else kick_problem(config.k))
        if config.state in _STATES:
            add(mode_problem(config.state, config.sample_mode))
        if config.samples is not None:
            add(sample_count_problem(config.samples))
        if config.state == "position" and config.sample_mode == "grid":
            add(grid_count_problem(config.dim_n, config.samples))
            add(sample_count_problem(config.dim_n) if dim_ok else None)  # a grid set has N samples
        if config.state == "position" and config.sample_mode == "monte_carlo" and config.samples is None:
            invalid("monte_carlo sampling requires samples")
        if config.state == "gaussian" and config.samples is None:
            invalid("gaussian states require samples for the dr method")
    # the exact and dense routes kick at k + epsilon; dr reads epsilon as a phase factor
    if "exact" in config.methods:
        add(grid_problem(config.dim_n) if dim_ok else None)
        add(None if map_bad else perturbation_problem(config.k, config.epsilon))
    if "dense" in config.methods:
        add(dense_problem(config.dim_n) if dim_ok else None)
        add(None if map_bad else perturbation_problem(config.k, config.epsilon))
    # judged only where no cap refused the run, so dim_n = 10**400 is refused for capacity alone
    if not map_bad and steps_bad is None and all(kind is not CapacityError for kind, _ in v):
        add(phase_scale_problem(config.k, config.epsilon, config.dim_n, config.steps))
    return v


def check_config(config: ExperimentConfig) -> None:
    """Raise on violations: CapacityError if all are capacity, else config error."""
    violations = validate_config(config)
    if not violations:
        return
    if all(kind is CapacityError for kind, _ in violations):
        raise CapacityError("; ".join(m for _, m in violations))
    raise ConfigValidationError(
        [f"capacity: {m}" if kind is CapacityError else m for kind, m in violations]
    )


def _descriptor(config: ExperimentConfig):
    if config.state == "position":
        return PositionEigenstate(config.q0)
    return GaussianWavepacket(config.q0, config.p0, config.sigma)


def _samples(config: ExperimentConfig, spec: MapSpec):
    if config.state == "position":
        return samples_position_state(
            spec, config.q0, count=config.samples,
            mode=config.sample_mode, seed=config.seed,
        )
    return samples_gaussian(
        spec, config.q0, config.p0, config.sigma,
        count=config.samples, mode=config.sample_mode, seed=config.seed,
    )


def compare(curve_a: FidelityCurve, curve_b: FidelityCurve) -> ComparisonReport:
    """Per-step |M_a - M_b| with its mean (mad), max, and argmax."""
    if len(curve_a.amplitude) != len(curve_b.amplitude):
        raise InvalidInputError(
            f"curves have different lengths: {len(curve_a.amplitude)} vs {len(curve_b.amplitude)}"
        )
    for attr in ("k", "epsilon", "dim_n"):
        a, b = getattr(curve_a.spec, attr), getattr(curve_b.spec, attr)
        if a != b:
            raise InvalidInputError(f"curves disagree on {attr}: {a!r} vs {b!r}")
    dev = np.abs(curve_a.fidelity - curve_b.fidelity)
    return ComparisonReport(
        method_a=curve_a.method,
        method_b=curve_b.method,
        deviations=dev,
        mad=float(dev.mean()),
        max_dev=float(dev.max()),
        argmax=int(dev.argmax()),
    )


def _tables(curves: dict):
    """Each curve present, method-major in canonical order: its method and its rows.

    A row is (step, (M, amp_re, amp_im, stderr_re, stderr_im)), steps
    ascending. Each column is read through a memoryview, whose items are
    the Python floats .tolist() gives, one at a time, so no list is built.
    """
    for method in METHOD_ORDER:
        curve = curves.get(method)
        if curve is not None:
            columns = (curve.fidelity, curve.amplitude.real, curve.amplitude.imag,
                       curve.stderr_re, curve.stderr_im)
            yield method, enumerate(zip(*map(memoryview, columns)))


# one template a row, values in CSV_COLUMNS order: every float with 17 significant digits
_CSV_ROW = ",".join("{}" if c in ("step", "method") else "{:.17g}" for c in CSV_COLUMNS) + "\n"
# one row of json.dumps(rows, indent=2), its values filled in CSV_COLUMNS order
_JSON_ROW = "  {{\n" + ",\n".join(f'    "{c}": {{}}' for c in CSV_COLUMNS) + "\n  }}"


def _json_float(x: float) -> str:
    """A float as json writes it: its shortest round-trip repr, or NaN and +-Infinity."""
    if x - x == 0.0:  # finite
        return float.__repr__(x)
    if x != x:
        return "NaN"
    return "Infinity" if x > 0.0 else "-Infinity"


def render_csv(curves: dict):
    """The CSV text of the curves' table, one piece a line: the header, then each row."""
    yield ",".join(CSV_COLUMNS) + "\n"
    for method, rows in _tables(curves):
        for t, row in rows:  # .17g formats the int step t as float(t)
            yield _CSV_ROW.format(t, t, method, *row)


def render_json(curves: dict):
    """The text of json.dumps(rows, indent=2) and a newline, one piece a row.

    rows is the table as a list of dicts keyed by CSV_COLUMNS, "t" a float.
    """
    f = _json_float
    lead = "[\n"
    for method, rows in _tables(curves):
        name = json.dumps(method)
        for t, row in rows:
            yield lead + _JSON_ROW.format(t, f(float(t)), name, *map(f, row))
            lead = ",\n"
    yield "[]\n" if lead == "[\n" else "\n]\n"


def _sidecar(out) -> Path:
    """The .meta.json sidecar written next to the data file out."""
    out = Path(out)
    return out.parent / (out.stem + ".meta.json")


def write_result(result: "RunResult"):
    """Write the data table to the config's out, in its format, and a .meta.json sidecar next to it.

    The seconds taken to render and write the data table go into
    result.timings as "write" before the sidecar, which lists them, is written.
    """
    start = time.perf_counter()
    out = Path(result.config.out)
    render = render_csv if result.config.format == "csv" else render_json
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="\n") as data:
        data.writelines(render(result.curves))
    result.timings["write"] = time.perf_counter() - start
    meta_path = _sidecar(out)
    meta = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "duration_s": result.duration_s,
        "timings_s": result.timings,
        "package": _package_version(),
        "numpy": np.__version__,
        # what dr bits rest on: numpy's SIMD dispatch of tan, the C library's sin
        "numpy_simd": np.show_config(mode="dicts").get("SIMD Extensions"),
        "libc": list(platform.libc_ver()),
        # what exact bits rest on: the pocketfft of the scipy its first step loaded
        # (a 0-step curve loads none), read from that module
        "scipy": (getattr(sys.modules.get("scipy"), "__version__", None)
                  if "exact" in result.curves else None),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "config": _config_dict(result.config),
        "methods_run": [m for m in METHOD_ORDER if m in result.curves],
    }
    if result.comparison is not None:
        meta["comparison"] = {
            "method_a": result.comparison.method_a,
            "method_b": result.comparison.method_b,
            "mad": result.comparison.mad,
            "max_dev": result.comparison.max_dev,
            "argmax": result.comparison.argmax,
        }
    meta_path.write_text(json.dumps(meta, indent=2) + "\n", newline="\n")
    return out, meta_path


def _package_version() -> str:
    from torusecho import __version__

    return __version__


def _config_dict(config: ExperimentConfig) -> dict:
    d = dataclasses.asdict(config)
    d["methods"] = list(d["methods"])
    d["out"] = None if config.out is None else os.fspath(config.out)  # JSON has no Path
    return d


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Validate, run every requested method, compare, write to config.out if set.

    Methods execute in canonical order (dr, exact, dense). The comparison
    pairs the two highest-priority curves present: (dr, exact), then
    (dr, dense), then (exact, dense).
    """
    check_config(config)
    spec = MapSpec(config.k, config.epsilon, config.dim_n)
    t0 = time.perf_counter()
    curves = {}
    timings = {}
    for method in METHOD_ORDER:
        if method not in config.methods:
            continue
        start = time.perf_counter()
        if method == "dr":
            samples = _samples(config, spec)
            timings["sampling"] = time.perf_counter() - start
            start = time.perf_counter()
            curves["dr"] = dr_curve(spec, samples, config.steps, threads=config.threads)
        elif method == "exact":
            curves["exact"] = exact_fidelity_curve(spec, _descriptor(config), config.steps)
        else:
            curves["dense"] = dense_oracle(spec, _descriptor(config), config.steps)
        timings[method] = time.perf_counter() - start

    comparison = None
    start = time.perf_counter()
    for a, b in COMPARISON_PRIORITY:
        if a in curves and b in curves:
            comparison = compare(curves[a], curves[b])
            timings["compare"] = time.perf_counter() - start
            break

    duration = time.perf_counter() - t0
    result = RunResult(
        config=config, curves=curves, comparison=comparison, duration_s=duration,
        timings=timings,
    )
    if config.out is not None:
        out_path, meta_path = write_result(result)
        result = dataclasses.replace(result, out_path=out_path, meta_path=meta_path)
    return result
