"""Command-line interface.

Subcommands:

* run          -- execute an experiment (preset, config file, or flags)
* presets      -- list built-in presets or emit one as a config file
* validate     -- check a config file and report every violation
* shadow       -- shadowing diagnostics for a given map
* oracle-check -- cross-validate the split-operator against the dense oracle

Exit codes: 0 success, 1 self-test failure, 2 invalid input or config,
3 capacity refused, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

import numpy as np

from .dynamics import MapSpec, is_finite
from .errors import CapacityError, ConfigValidationError, InvalidInputError
from .harness import (
    PRESETS,
    _FIELD_PARSERS,
    ExperimentConfig,
    load_config,
    check_config,
    run_experiment,
)
from .initial_states import PositionEigenstate
from .quantum import dense_oracle, exact_fidelity_curve
from .shadowing import shadow_survey

# (dim_n, k, epsilon) combos exercised by oracle-check
_ORACLE_COMBOS = tuple(
    (n, k, eps) for n in (16, 64, 128) for (k, eps) in ((0.8, 5e-3), (10.0, 2e-3))
)


class _Parser(argparse.ArgumentParser):
    """Refuses a malformed command line as invalid input, which `main` reports.

    A value such as -5e-3 is read as a negative number, not as an option:
    argparse's own rule knows no exponent forms, so `--epsilon -5e-3` would
    leave --epsilon without its argument.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise InvalidInputError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once a process.

    argparse builds a help formatter for every argument it adds, about a
    millisecond a build; a parse keeps no state in the parser and returns
    a fresh namespace, so one parser serves every `main` call.
    """
    parser = _Parser(
        prog="torusecho",
        description="Fidelity decay of perturbed kicked torus maps: "
        "semiclassical dephasing vs exact quantum propagation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment")
    src = run.add_mutually_exclusive_group()
    src.add_argument("--preset", choices=sorted(PRESETS), help="start from a preset")
    src.add_argument("--config", help="start from a key = value config file")
    for key, parse in _FIELD_PARSERS.items():
        run.add_argument("--" + key.replace("_", "-"), dest=key, type=parse,
                         default=argparse.SUPPRESS, metavar="V", help=f"override {key}")
    run.set_defaults(func=_cmd_run)

    presets = sub.add_parser("presets", help="list presets or emit one as a config")
    presets.add_argument("--emit", choices=sorted(PRESETS), metavar="NAME",
                         help="print NAME as a config file body")
    presets.set_defaults(func=_cmd_presets)

    val = sub.add_parser("validate", help="validate a config file")
    val.add_argument("--config", required=True, help="config file to check")
    val.set_defaults(func=_cmd_validate)

    shadow = sub.add_parser("shadow", help="shadowing diagnostics")
    shadow.add_argument("--k", type=float, default=0.8)
    shadow.add_argument("--epsilon", type=float, default=5e-3)
    # the survey's keywords: a flag not given leaves shadow_survey's own default
    shadow.add_argument("--count", type=int, default=argparse.SUPPRESS, help="number of orbits")
    shadow.add_argument("--steps", type=int, default=argparse.SUPPRESS,
                        help="segment length (default: the epsilon^-1/2 horizon)")
    shadow.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    shadow.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    shadow.add_argument("--max-iter", type=int, default=argparse.SUPPRESS)
    shadow.set_defaults(func=_cmd_shadow)

    oracle = sub.add_parser(
        "oracle-check",
        help="cross-check split-operator vs dense propagation on small grids",
    )
    oracle.add_argument("--steps", type=int, default=30)
    oracle.add_argument("--tol", type=float, default=1e-9)
    oracle.set_defaults(func=_cmd_oracle_check)
    return parser


def _assemble_config(args) -> ExperimentConfig:
    if args.preset:
        base = PRESETS[args.preset]
    elif args.config:
        base = load_config(args.config)
    else:
        base = ExperimentConfig()
    given = {key: getattr(args, key) for key in _FIELD_PARSERS if hasattr(args, key)}
    return base.replace(**given)


def _cmd_run(args) -> int:
    config = _assemble_config(args)
    result = run_experiment(config)
    for method, curve in result.curves.items():
        final = curve.fidelity[-1]
        extra = f", samples = {curve.sample_count}" if method == "dr" else ""
        print(f"{method}: M({curve.steps}) = {final:.6g}{extra}")
    if result.comparison is not None:
        c = result.comparison
        print(
            f"compare {c.method_a} vs {c.method_b}: "
            f"mad = {c.mad:.6g}, max = {c.max_dev:.6g} at step {c.argmax}"
        )
    if result.out_path is not None:
        print(f"wrote {result.out_path} and {result.meta_path}")
    return 0


def _emit_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ",".join(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_config(config: ExperimentConfig, header: str | None = None) -> str:
    lines = [] if header is None else [f"# {header}"]
    for key in _FIELD_PARSERS:
        lines.append(f"{key} = {_emit_value(getattr(config, key))}")
    return "\n".join(lines) + "\n"


def _cmd_presets(args) -> int:
    if args.emit:
        sys.stdout.write(emit_config(PRESETS[args.emit], header=f"preset {args.emit}"))
        return 0
    for name in sorted(PRESETS):
        cfg = PRESETS[name]
        print(
            f"{name}: k={cfg.k} epsilon={cfg.epsilon} dim_n={cfg.dim_n} "
            f"state={cfg.state} q0={cfg.q0} steps={cfg.steps} "
            f"sample_mode={cfg.sample_mode} methods={','.join(cfg.methods)}"
        )
    return 0


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    check_config(config)
    print(f"config ok: {args.config}")
    return 0


def _cmd_shadow(args) -> int:
    # the survey is classical and reads only k and epsilon: the smallest grid
    # keeps the quantum phase-scale rule from refusing what it can run
    spec = MapSpec(args.k, args.epsilon, 2)
    keys = ("count", "steps", "seed", "tol", "max_iter")
    report = shadow_survey(spec, **{key: getattr(args, key) for key in keys if hasattr(args, key)})
    print(f"epsilon = {report['epsilon']:g}, shadow horizon ~ {report['shadow_time']:.4g} steps")
    print(f"orbits: {report['count']} x {report['steps']} steps")
    print(
        f"pseudo-residual vs unperturbed map: max = {report['max_pseudo_residual']:.6g}, "
        f"bound epsilon/(2 pi) = {report['residual_bound']:.6g}, "
        f"violations = {report['bound_violations']}"
    )
    print(
        f"refinement: converged {report['fraction_converged']:.0%}, "
        f"max refined residual = {report['max_refined_residual']:.3g}"
    )
    print(
        f"shadow distance: max = {report['max_shadow_distance']:.6g}, "
        f"mean = {report['mean_shadow_distance']:.6g}"
    )
    return 0


def _cmd_oracle_check(args) -> int:
    # a tolerance every combination meets (inf) or misses (nan, <= 0) checks nothing
    if not (is_finite(args.tol) and args.tol > 0.0):
        raise InvalidInputError(f"tol must be positive and finite, got {args.tol!r}")
    failures = 0
    for dim_n, k, eps in _ORACLE_COMBOS:
        spec = MapSpec(k, eps, dim_n)
        state = PositionEigenstate(0.25)  # grid-aligned for every dim here
        split = exact_fidelity_curve(spec, state, args.steps)
        dense = dense_oracle(spec, state, args.steps)
        dev = float(np.abs(split.amplitude - dense.amplitude).max())
        ok = dev <= args.tol
        failures += 0 if ok else 1
        print(
            f"N={dim_n:<4d} k={k:<4g} epsilon={eps:g}: "
            f"max |amp_split - amp_dense| = {dev:.3e} "
            f"{'ok' if ok else 'FAIL'}"
        )
    if failures:
        print(f"oracle-check: {failures} combination(s) FAILED (tol {args.tol:g})")
        return 1
    print(f"oracle-check: all {len(_ORACLE_COMBOS)} combinations within {args.tol:g}")
    return 0


def _stdout_to_null():
    """Point fd 1 at the null device, so the exit flush of a closed pipe adds nothing."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # an in-process caller's stand-in stream
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at the interpreter's exit
        return status
    except ConfigValidationError as exc:
        for violation in exc.violations:
            print(f"error: {violation}", file=sys.stderr)
        return 2
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            _stdout_to_null()
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
