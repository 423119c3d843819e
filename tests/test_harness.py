"""Config parsing/validation, experiment runs, serialization, CLI."""

import contextlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusecho import (
    PRESETS,
    CapacityError,
    ConfigValidationError,
    ExperimentConfig,
    InvalidInputError,
    MapSpec,
    compare,
    dr_curve,
    exact_fidelity_curve,
    parse_config,
    run_experiment,
    samples_position_state,
    validate_config,
)
from torusecho import cli, harness, quantum, shadowing
from torusecho.cli import emit_config, main
from torusecho.dynamics import _MAX_STEPS
from torusecho.dephasing import FidelityCurve
from torusecho.harness import (
    _FIELD_PARSERS,
    CSV_COLUMNS,
    RunResult,
    check_config,
    load_config,
    render_csv,
    render_json,
    write_result,
)
from torusecho.shadowing import _MAX_SURVEY_COUNT


def _messages(config):
    return [m for _, m in validate_config(config)]


def test_presets_known():
    assert set(PRESETS) == {"fig1-mixed", "fig1-chaotic"}
    mixed = PRESETS["fig1-mixed"]
    assert (mixed.k, mixed.epsilon, mixed.dim_n) == (0.8, 5e-3, 1000)
    chaotic = PRESETS["fig1-chaotic"]
    assert (chaotic.k, chaotic.epsilon) == (10.0, 2e-3)
    for cfg in PRESETS.values():
        assert validate_config(cfg) == []
        assert cfg.q0 == 0.4 and cfg.steps == 50 and cfg.sample_mode == "grid"


def test_config_text_round_trip():
    for name, cfg in PRESETS.items():
        text = emit_config(cfg, header=f"preset {name}")
        assert parse_config(text) == cfg


def test_parse_collects_every_problem_with_line_numbers():
    text = "\n".join(
        [
            "# comment",
            "k = 0.8",
            "mystery = 3",       # line 3: unknown key
            "dim_n = thousand",  # line 4: bad int
            "no equals here",    # line 5: malformed
            "k = 0.9",           # line 6: duplicate
        ]
    )
    with pytest.raises(ConfigValidationError) as exc:
        parse_config(text)
    msgs = exc.value.violations
    assert len(msgs) == 4
    assert any("line 3" in m and "mystery" in m for m in msgs)
    assert any("line 4" in m for m in msgs)
    assert any("line 5" in m for m in msgs)
    assert any("line 6" in m and "duplicate" in m for m in msgs)


def test_parse_optional_and_list_values():
    cfg = parse_config("samples = none\nout = none\nmethods = dr, dense\nseed = 7")
    assert cfg.samples is None and cfg.out is None
    assert cfg.methods == ("dr", "dense")
    assert cfg.seed == 7
    cfg2 = parse_config("samples = 500\nsample_mode = monte_carlo")
    assert cfg2.samples == 500


def test_validate_reports_all_semantic_violations():
    cfg = ExperimentConfig(
        k=float("nan"), epsilon=float("inf"), dim_n=1, state="plasma",
        q0=1.5, p0=-0.1, steps=-3, samples=0, sample_mode="odd",
        methods=("dr", "warp"), format="xml", threads=0,
    )
    msgs = _messages(cfg)
    for needle in ("k must", "epsilon must", "dim_n", "state", "q0", "p0",
                   "steps", "samples", "warp", "format", "threads"):
        assert any(needle in m for m in msgs), needle
    # mode checks hang off a valid state
    msgs2 = _messages(ExperimentConfig(state="position", sample_mode="odd"))
    assert any("sample_mode" in m for m in msgs2)
    msgs3 = _messages(ExperimentConfig(state="gaussian", sample_mode="grid", samples=10))
    assert any("sample_mode" in m for m in msgs3)


def test_validate_grid_alignment_and_sample_count():
    cfg = ExperimentConfig(q0=0.4005, dim_n=1000)
    assert any("aligned" in m for m in _messages(cfg))
    cfg2 = ExperimentConfig(samples=999, sample_mode="grid")
    assert any("grid sampling" in m for m in _messages(cfg2))
    cfg3 = ExperimentConfig(sample_mode="monte_carlo", samples=None)
    assert any("requires samples" in m for m in _messages(cfg3))
    cfg4 = ExperimentConfig(state="gaussian", sample_mode="wigner", samples=None)
    assert any("require samples" in m for m in _messages(cfg4))
    cfg5 = ExperimentConfig(state="gaussian", sample_mode="wigner", samples=100, sigma=0.9)
    assert any("sigma" in m for m in _messages(cfg5))


def test_validate_seed_range():
    assert validate_config(ExperimentConfig(seed=2**128 - 1)) == []
    for seed in (-1, 2**128):
        msgs = _messages(ExperimentConfig(seed=seed))
        assert any("seed must lie in [0, 2**128)" in m for m in msgs), seed


def test_validate_rejects_overflowing_phase_factor():
    msgs = _messages(ExperimentConfig(epsilon=1e308))
    assert any("phase factor" in m for m in msgs)
    with pytest.raises(ConfigValidationError):
        check_config(ExperimentConfig(k=1e308, dim_n=64, q0=0.25))
    assert validate_config(ExperimentConfig(epsilon=1e300)) == []
    # finite per step, but the dr phase sums up to 50 per-step factors
    msgs = _messages(ExperimentConfig(epsilon=1e305))
    assert any("phase factor" in m for m in msgs)
    assert validate_config(ExperimentConfig(epsilon=1e305, steps=1)) == []


def test_capacity_violations_raise_capacity_error():
    cfg = ExperimentConfig(dim_n=100_000)
    assert validate_config(cfg) == [(CapacityError, "dim_n 100000 exceeds limit 65536")]
    with pytest.raises(CapacityError):
        check_config(cfg)
    cfg2 = ExperimentConfig(dim_n=1000, methods=("dr", "exact", "dense"))
    with pytest.raises(CapacityError):
        check_config(cfg2)  # dense beyond its grid limit is a capacity refusal
    # capacity mixed with a plain violation reports as config error
    cfg3 = ExperimentConfig(dim_n=100_000, state="plasma")
    with pytest.raises(ConfigValidationError):
        check_config(cfg3)


def test_run_experiment_all_methods_small_grid():
    cfg = ExperimentConfig(
        dim_n=64, q0=0.25, steps=10, methods=("dense", "exact", "dr"),
    )
    result = run_experiment(cfg)
    assert list(result.curves) == ["dr", "exact", "dense"]  # canonical order
    c = result.comparison
    assert (c.method_a, c.method_b) == ("dr", "exact")  # highest-priority pair
    assert c.deviations.shape == (11,)
    assert c.mad >= 0.0 and c.max_dev >= c.mad
    assert c.argmax == int(np.argmax(c.deviations))


def test_comparison_pair_priority_without_dr():
    cfg = ExperimentConfig(dim_n=64, q0=0.25, steps=5, methods=("exact", "dense"))
    result = run_experiment(cfg)
    c = result.comparison
    assert (c.method_a, c.method_b) == ("exact", "dense")
    assert c.max_dev < 1e-12


def test_single_method_run_has_no_comparison():
    cfg = ExperimentConfig(dim_n=64, q0=0.25, steps=5, methods=("exact",))
    result = run_experiment(cfg)
    assert result.comparison is None
    assert list(result.curves) == ["exact"]


def test_compare_validation():
    spec = MapSpec(0.8, 5e-3, 64)
    a = dr_curve(spec, samples_position_state(spec, 0.25), 10)
    b = dr_curve(spec, samples_position_state(spec, 0.25), 8)
    with pytest.raises(InvalidInputError):
        compare(a, b)
    other = MapSpec(0.9, 5e-3, 64)
    c = dr_curve(other, samples_position_state(other, 0.25), 10)
    with pytest.raises(InvalidInputError):
        compare(a, c)


def test_rows_and_csv_round_trip():
    cfg = ExperimentConfig(dim_n=64, q0=0.25, steps=3, methods=("dr", "exact"))
    result = run_experiment(cfg)
    lines = "".join(render_csv(result.curves)).strip().split("\n")
    assert lines[0] == "step,t,method,M,amp_re,amp_im,stderr_re,stderr_im"
    assert len(lines) == 1 + 2 * 4
    rows = [line.split(",") for line in lines[1:]]
    assert [r[2] for r in rows] == ["dr"] * 4 + ["exact"] * 4
    assert [r[0] for r in rows[:4]] == ["0", "1", "2", "3"]
    # 17-significant-digit serialization round-trips bitwise
    for method, fields in zip(("dr", "exact"), (rows[:4], rows[4:])):
        curve = result.curves[method]
        assert [float(r[3]) for r in fields] == curve.fidelity.tolist()
        assert [float(r[4]) for r in fields] == curve.amplitude.real.tolist()
        assert [float(r[5]) for r in fields] == curve.amplitude.imag.tolist()


def _written_out_csv(rows):
    # the row-at-a-time formula: 17 significant digits for every float
    def fmt(value):
        return format(value, ".17g") if isinstance(value, float) else str(value)

    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(fmt(row[c]) for c in CSV_COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"


def _written_out_rows(curves):
    return [
        {"step": t, "t": float(t), "method": method, "M": float(curve.fidelity[t]),
         "amp_re": float(curve.amplitude[t].real), "amp_im": float(curve.amplitude[t].imag),
         "stderr_re": float(curve.stderr_re[t]), "stderr_im": float(curve.stderr_im[t])}
        for method, curve in curves.items() for t in range(len(curve.amplitude))
    ]


def _curve_sets():
    routes = ExperimentConfig(dim_n=64, q0=0.25, steps=6, methods=("dr", "exact", "dense"))
    yield run_experiment(routes).curves
    yield run_experiment(routes.replace(sample_mode="monte_carlo", samples=300, seed=7,
                                        methods=("dr",))).curves
    yield run_experiment(routes.replace(state="gaussian", sample_mode="wigner", samples=300,
                                        p0=0.3, sigma=0.1)).curves
    spec = MapSpec(0.8, 5e-3, 64)
    amp = np.array([1.0, np.nan, complex(np.inf, -np.inf), complex(-0.0, 5e-324), 1e-300j])
    odd = np.array([0.0, np.inf, -np.inf, np.nan, 1.7976931348623157e308])
    yield {"dr": FidelityCurve(amp, odd, odd[::-1], "dr", spec, "hand-built", 5)}


def test_renderers_match_the_written_out_formulas_byte_for_byte():
    for curves in [*_curve_sets(), {}]:
        rows = _written_out_rows(curves)
        assert "".join(render_csv(curves)) == _written_out_csv(rows)
        assert "".join(render_json(curves)) == json.dumps(rows, indent=2) + "\n"
    # the hand-built curve reaches every non-finite spelling of both formats
    curves = list(_curve_sets())[-1]
    text = "".join(render_json(curves))
    for token in ("NaN", "Infinity", "-Infinity", "5e-324", "1.7976931348623157e+308"):
        assert f": {token}," in text or f": {token}\n" in text, token
    text = "".join(render_csv(curves))
    assert all(f",{token}," in text for token in ("nan", "inf", "-inf"))


def _long_result(steps, out, fmt):
    spec = MapSpec(0.8, 5e-3, 64)
    amp = np.exp(1j * np.linspace(0.0, 1.0, steps + 1))
    err = np.linspace(0.0, 1e-3, steps + 1)
    curves = {"dr": FidelityCurve(amp, err, err[::-1], "dr", spec, "hand-built", 5)}
    return RunResult(ExperimentConfig(steps=steps, out=out, format=fmt), curves, None)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_result_peak_does_not_grow_with_steps(fmt, tmp_path):
    """The table is written a row at a time: no list of rows, no whole-table string."""
    out = tmp_path / f"run.{fmt}"
    write_result(_long_result(10, out, fmt))  # first-call imports and caches
    peaks = []
    for steps in (2_000, 20_000):
        result = _long_result(steps, out, fmt)
        tracemalloc.start()
        try:
            write_result(result)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert out.stat().st_size > 20_000 * 100  # the long table was written
    assert peaks[1] <= peaks[0] + 64 * 1024, peaks


def test_cli_runs_in_one_process_do_not_share_flags(tmp_path, capsys):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["run", "--dim-n", "64", "--q0", "0.25", "--steps", "2"]
    assert main([*base, "--k", "0.9", "--out", str(first)]) == 0
    assert main([*base, "--out", str(second)]) == 0
    config_a = json.loads((tmp_path / "a.meta.json").read_text())["config"]
    config_b = json.loads((tmp_path / "b.meta.json").read_text())["config"]
    assert config_a["k"] == 0.9 and config_b["k"] == ExperimentConfig().k
    assert {key for key in config_a if config_a[key] != config_b[key]} == {"k", "out"}
    capsys.readouterr()
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "-h"])
        assert exit_info.value.code == 0
        assert "--dim-n" in capsys.readouterr().out


def test_write_csv_and_sidecar(tmp_path):
    out = tmp_path / "run.csv"
    cfg = ExperimentConfig(dim_n=64, q0=0.25, steps=4, out=str(out))
    result = run_experiment(cfg)
    assert result.out_path == out
    meta_path = tmp_path / "run.meta.json"
    assert result.meta_path == meta_path
    body = out.read_text()
    assert body.startswith("step,t,method,")
    assert "\r" not in body
    meta = json.loads(meta_path.read_text())
    assert meta["config"]["dim_n"] == 64
    assert meta["comparison"]["method_a"] == "dr"
    assert "created_utc" in meta and "duration_s" in meta
    # the platform that dr bits rest on: numpy's SIMD tan, the C library's sin
    assert meta["numpy_simd"] == np.show_config(mode="dicts")["SIMD Extensions"]
    # numpy lists the dispatched features it found, or says it found none
    assert "baseline" in meta["numpy_simd"]
    assert set(meta["numpy_simd"]) <= {"baseline", "found", "not found"}
    assert meta["libc"] == list(platform.libc_ver())
    assert meta["machine"] == platform.machine()
    assert meta["python"] == platform.python_version()
    # data file itself carries no timestamp (colons only occur in ISO times)
    assert ":" not in body


def test_sidecar_records_scipy_when_an_exact_curve_ran(tmp_path):
    import scipy

    # exact bits rest on scipy's pocketfft build; a run without exact records null
    cfg = ExperimentConfig(dim_n=64, q0=0.25, steps=4, methods=("dr", "exact"),
                           out=tmp_path / "run.csv")
    for methods, want in ((("dr", "exact"), scipy.__version__), (("dr", "dense"), None)):
        result = run_experiment(cfg.replace(methods=methods))
        assert json.loads(result.meta_path.read_text())["scipy"] == want


def test_sidecar_times_each_stage_that_ran(tmp_path):
    out = tmp_path / "run.csv"
    cfg = ExperimentConfig(dim_n=64, q0=0.25, steps=4, methods=("dr", "exact", "dense"), out=out)
    result = run_experiment(cfg)
    meta = json.loads(result.meta_path.read_text())
    timings = meta["timings_s"]
    assert list(timings) == ["sampling", "dr", "exact", "dense", "compare", "write"]
    assert timings == result.timings
    # duration_s spans the stages up to the comparison; the write follows it
    stages = dict(timings)
    assert 0.0 < stages.pop("write")
    assert all(0.0 <= seconds <= meta["duration_s"] for seconds in stages.values())
    exact_only = run_experiment(cfg.replace(methods=("exact",), out=None))
    assert list(exact_only.timings) == ["exact"]


def test_write_json_format(tmp_path):
    out = tmp_path / "run.json"
    cfg = ExperimentConfig(dim_n=64, q0=0.25, steps=4, out=str(out), format="json")
    result = run_experiment(cfg)
    rows = json.loads(out.read_text())
    assert len(rows) == 2 * 5
    # json floats round-trip exactly
    assert rows[1]["amp_re"] == float(result.curves["dr"].amplitude[1].real)
    assert result.meta_path.exists()


def test_runs_are_reproducible_bytes(tmp_path):
    cfg = ExperimentConfig(
        dim_n=128, q0=0.25, steps=6, sample_mode="monte_carlo",
        samples=5000, seed=12,
    )
    a = run_experiment(cfg.replace(out=tmp_path / "a.csv"))
    b = run_experiment(cfg.replace(out=tmp_path / "b.csv"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert a.curves["dr"].seed == 12
    assert b.comparison.mad == a.comparison.mad


# ---- CLI ----------------------------------------------------------------


def test_cli_run_preset(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    code = main(["run", "--preset", "fig1-mixed", "--steps", "8", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "compare dr vs exact" in captured
    assert out.exists()
    assert (tmp_path / "fig1.meta.json").exists()


def test_cli_flag_overrides_and_json(tmp_path):
    out = tmp_path / "o.json"
    code = main([
        "run", "--dim-n", "64", "--q0", "0.25", "--steps", "4",
        "--methods", "exact,dense", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    rows = json.loads(out.read_text())
    assert {r["method"] for r in rows} == {"exact", "dense"}


def test_cli_validate_good_and_bad(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text(emit_config(PRESETS["fig1-mixed"]))
    assert main(["validate", "--config", str(good)]) == 0
    assert "config ok" in capsys.readouterr().out

    bad = tmp_path / "bad.cfg"
    bad.write_text("k = 0.8\nstate = plasma\nsteps = -1\n")
    assert main(["validate", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "state" in err and "steps" in err


def test_cli_empty_out_exits_2(tmp_path, capsys):
    """An empty out names no file: refused as input before any work, not an I/O error."""
    assert _messages(ExperimentConfig(out="")) == ["out must name a file, got ''"]
    cfg = tmp_path / "empty-out.cfg"
    cfg.write_text("steps = 3\nout =\n")
    for command in ("validate", "run"):
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: out must name a file, got ''\n"


def test_out_that_is_not_a_regular_file_is_refused(tmp_path, monkeypatch, capsys):
    """/dev/null would take its sidecar as /dev/null.meta.json: refused, and nothing opened."""
    def never(*args, **kwargs):
        raise AssertionError("validation opened a file or ran a route")

    # a path with a NUL byte names no file (os.path.exists is False for it): refused before any route
    nul = f"{tmp_path}/a\x00b.csv"
    cfg = tmp_path / "nul.cfg"
    cfg.write_text(f"steps = 2\nout = {nul}\n")
    monkeypatch.setattr(harness, "dr_curve", never)
    monkeypatch.setattr(harness, "exact_fidelity_curve", never)
    for command in ("validate", "run"):
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: out must name a file, got {nul!r}\n"
    meta = tmp_path / "x.meta.json"
    meta.mkdir()
    monkeypatch.setattr("builtins.open", never)
    monkeypatch.setattr(os, "open", never)
    assert validate_config(ExperimentConfig(out="/dev/null")) == [
        (InvalidInputError, "out must name a regular file, got '/dev/null'")
    ]
    # a data file whose sidecar path is a directory
    assert validate_config(ExperimentConfig(out=tmp_path / "x.csv")) == [
        (InvalidInputError, f"out's sidecar must be a regular file, got {str(meta)!r}")
    ]


def test_cli_directory_out_exits_2_before_any_route(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a route ran")

    monkeypatch.setattr(harness, "dr_curve", never)
    monkeypatch.setattr(harness, "exact_fidelity_curve", never)
    assert main(["run", "--preset", "fig1-mixed", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: out must name a regular file, got {str(tmp_path)!r}\n"
    assert list(tmp_path.iterdir()) == []
    # a directory where the sidecar would go: exit 2, and no data file written
    meta = tmp_path / "x.meta.json"
    meta.mkdir()
    assert main(["run", "--preset", "fig1-mixed", "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"error: out's sidecar must be a regular file, got {str(meta)!r}\n"
    assert list(tmp_path.iterdir()) == [meta]


def test_cli_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"k = 0.8\n\xff\xfe = 1\n")
    for command in ("validate", "run"):
        assert main([command, "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(bad) in err and "byte 8" in err
    # UTF-8 text beyond ASCII is read as such, whatever the locale
    good = tmp_path / "good.cfg"
    good.write_bytes("# ε = 5e-3, k = 0.8\nk = 0.8\n".encode("utf-8"))
    assert main(["validate", "--config", str(good)]) == 0
    capsys.readouterr()


def test_cli_config_with_a_byte_order_mark_runs(tmp_path, capsys):
    """A UTF-8 byte-order mark, as some editors write it, is not part of the first key."""
    text = "k = 0.8\ndim_n = 100\nsteps = 3\nmethods = dr,exact\n"
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_config(cfg) == parse_config(text)
    assert main(["validate", "--config", str(cfg)]) == 0
    out = tmp_path / "bom.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists() and capsys.readouterr().err == ""
    # after the mark, bytes that are not UTF-8 are still a config error
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xef\xbb\xbfk = 0.8\n\xff = 1\n")
    assert main(["validate", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err and "Traceback" not in err


def test_cli_exit_codes(tmp_path, capsys):
    # capacity: dense on a large grid
    cap = tmp_path / "cap.cfg"
    cap.write_text("dim_n = 1000\nmethods = dr,exact,dense\n")
    assert main(["validate", "--config", str(cap)]) == 3
    # io error: missing config file
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 4
    # bad flag value
    assert main(["run", "--dim-n", "furby"]) == 2
    capsys.readouterr()


def test_cli_out_of_range_seed_exits_2(tmp_path, capsys):
    out = tmp_path / "s.csv"
    for seed in ("-1", str(2**128)):
        code = main(["run", "--seed", seed, "--sample-mode", "monte_carlo",
                     "--samples", "10", "--out", str(out)])
        assert code == 2
        assert "seed must lie in [0, 2**128)" in capsys.readouterr().err
    assert not out.exists()


def test_cli_overflowing_epsilon_exits_2(tmp_path, capsys):
    out = tmp_path / "e.csv"
    assert main(["run", "--epsilon", "1e308", "--out", str(out)]) == 2
    assert "phase factor" in capsys.readouterr().err
    assert not out.exists()
    assert main(["shadow", "--epsilon", "1e308", "--count", "1", "--steps", "2"]) == 2
    capsys.readouterr()
    # each step's factor is finite; the sum over 50 steps is not
    assert main(["run", "--epsilon", "1e305", "--out", str(out)]) == 2
    assert "phase factor" in capsys.readouterr().err
    assert not out.exists()


def test_cli_presets_listing_and_emit(tmp_path, capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "fig1-mixed" in out and "fig1-chaotic" in out

    assert main(["presets", "--emit", "fig1-chaotic"]) == 0
    text = capsys.readouterr().out
    cfg = parse_config(text)
    assert cfg == PRESETS["fig1-chaotic"]
    assert main(["presets", "--emit", "nope"]) == 2


def test_python_m_torusecho_runs_the_cli_from_a_checkout(tmp_path):
    import torusecho

    src = str(Path(torusecho.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "torusecho", "presets"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert "fig1-mixed" in proc.stdout and "fig1-chaotic" in proc.stdout


@pytest.mark.parametrize("unbuffered", [False, True])
def test_cli_closed_stdout_exits_4_once(unbuffered):
    import torusecho

    src = str(Path(torusecho.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for command in (["presets"], ["oracle-check", "--steps", "2"],
                    ["shadow", "--count", "2", "--steps", "5"]):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the child writes
        try:
            proc = subprocess.run([sys.executable, "-m", "torusecho", *command], env=env,
                                  stdout=write, stderr=subprocess.PIPE, text=True, check=False)
        finally:
            os.close(write)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.count("io error:") == 1 and len(proc.stderr.splitlines()) == 1
        assert "Exception ignored" not in proc.stderr


def test_cli_shadow_passes_only_the_flags_given(monkeypatch, capsys):
    # shadow_survey alone owns the defaults of its keywords
    seen = []

    def survey(spec, **kwargs):
        seen.append(kwargs)
        return shadowing.shadow_survey(spec, count=1, steps=3)

    monkeypatch.setattr(cli, "shadow_survey", survey)
    assert main(["shadow"]) == 0
    assert main(["shadow", "--count", "4", "--tol", "1e-8"]) == 0
    assert seen == [{}, {"count": 4, "tol": 1e-8}]


def test_cli_shadow_prints_the_converged_count(capsys):
    # 399 of 400 orbits converge here; a rounded percentage printed 100 %
    assert main(["shadow", "--k", "2", "--epsilon", "5e-3", "--count", "400", "--seed", "1"]) == 0
    assert "refinement: converged 399 of 400, " in capsys.readouterr().out


def test_cli_reads_negative_numbers_in_exponent_form(tmp_path, capsys):
    """-5e-3 is a value, as -0.005 is, and not an unknown option."""
    for name, flag in (("spaced", ["--epsilon", "-5e-3"]), ("joined", ["--epsilon=-5e-3"])):
        out = tmp_path / f"{name}.csv"
        assert main(["run", *flag, "--methods", "dr", "--steps", "5", "--out", str(out)]) == 0
    assert (tmp_path / "spaced.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()
    assert main(["shadow", "--k", "-1e1", "--count", "2", "--steps", "5"]) == 0
    assert capsys.readouterr().err == ""


def test_cli_shadow_and_oracle_check(capsys):
    assert main(["shadow", "--epsilon", "0.005", "--count", "4", "--steps", "10"]) == 0
    out = capsys.readouterr().out
    assert "violations = 0" in out
    assert main(["oracle-check", "--steps", "5"]) == 0
    out = capsys.readouterr().out
    assert "all 6 combinations" in out


def test_cli_huge_q0_exits_2(tmp_path, capsys):
    # q0 * N overflows to inf: refused as input, not a traceback
    out = tmp_path / "q.csv"
    assert main(["run", "--q0", "1e308", "--out", str(out)]) == 2
    assert "q0 must lie in [0, 1)" in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "q.cfg"
    cfg.write_text("q0 = 1e308\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_cli_shadow_takes_no_grid_size(capsys):
    # the survey is classical: no grid size gates it (a k that the float map
    # still carries, and an epsilon that still moves it)
    assert main(["shadow", "--k", "1e16", "--epsilon", "10", "--steps", "3",
                 "--count", "1"]) == 0
    assert capsys.readouterr().err == ""
    assert main(["shadow", "--dim-n", "5"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_cli_shadow_out_of_range_seed_exits_2(capsys):
    for seed in ("-1", str(2**128)):
        assert main(["shadow", "--seed", seed, "--count", "1", "--steps", "3"]) == 2
        assert "seed must lie in [0, 2**128)" in capsys.readouterr().err


def test_cli_over_cap_steps_and_count_exit_3(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("work started at a refused size")

    monkeypatch.setattr(quantum, "build_state", never)
    monkeypatch.setattr(quantum, "_split_step", never)
    assert main(["oracle-check", "--steps", str(_MAX_STEPS + 1)]) == 3
    assert "steps 1000001 exceeds limit" in capsys.readouterr().err
    monkeypatch.setattr(shadowing, "_rng", never)
    monkeypatch.setattr(shadowing, "_orbits", never)
    assert main(["shadow", "--count", str(_MAX_SURVEY_COUNT + 1), "--steps", "3"]) == 3
    assert f"count {_MAX_SURVEY_COUNT + 1} exceeds limit" in capsys.readouterr().err


def test_cli_oracle_check_bad_tol_exits_2(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("curve built under a refused tolerance")

    monkeypatch.setattr(quantum, "build_state", never)
    for tol in ("nan", "inf", "-1", "0"):
        assert main(["oracle-check", "--steps", "3", "--tol", tol]) == 2
        assert "tol must be positive and finite" in capsys.readouterr().err


_MALFORMED_ARGV = [
    ["run", "--dim-n", "furby"],
    ["run", "--samples", "y"],
    ["run", "--bogus", "1"],
    ["run", "--preset", "fig1-mixed", "--config", "x"],
    ["shadow", "--k", "x"],
    ["oracle-check", "--steps", "x"],
    ["presets", "--emit", "nope"],
    ["run", "--epsilon", "--k", "1"],
    ["run", "--out", ""],
    ["bogus"],
    [],
]


@pytest.mark.parametrize("argv", _MALFORMED_ARGV, ids=lambda argv: " ".join(argv) or "no-args")
def test_cli_refuses_a_malformed_command_line_in_one_line(argv, capsys):
    """Every malformed argv is refused by main: exit 2, one `error: ` line, no usage dump."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "usage:" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


def test_cli_help_still_exits_0(capsys):
    for argv in (["-h"], ["run", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and "usage:" in capsys.readouterr().out


def test_cli_run_refuses_flags_at_the_first_unparsable_value(capsys):
    assert main(["run", "--dim-n", "furby", "--samples", "y"]) == 2
    assert capsys.readouterr().err == "error: argument --dim-n: invalid int value: 'furby'\n"


@pytest.mark.parametrize("method", ["exact", "dense"])
@pytest.mark.parametrize("sigma, q0, norm", [("1e-6", "0.4005", "0.0"), ("1e-300", "0.25", "nan")])
def test_cli_gaussian_narrower_than_the_grid_exits_2(method, sigma, q0, norm, capsys):
    """A packet with no weight on the grid, or whose sigma^2 underflows, is refused by name."""
    argv = ["run", "--state", "gaussian", "--sample-mode", "wigner", "--samples", "5",
            "--sigma", sigma, "--q0", q0, "--dim-n", "64", "--methods", method]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert not caught and "Warning" not in err
    assert err == (f"error: gaussian state has norm {norm} on the grid: sigma={float(sigma)!r} "
                   f"is too narrow for q0={float(q0)!r} on dim_n=64 points\n")


def test_sampling_rules_apply_only_when_dr_runs(capsys):
    # without dr there is no sample set for the mode and grid-count rules to judge
    assert main(["run", "--state", "gaussian", "--methods", "exact,dense", "--dim-n", "64",
                 "--q0", "0.25"]) == 0
    assert main(["run", "--methods", "exact", "--samples", "5"]) == 0
    capsys.readouterr()
    assert main(["run", "--state", "gaussian", "--dim-n", "64", "--q0", "0.25", "--samples", "5"]) == 2
    assert "sample_mode for gaussian states" in capsys.readouterr().err
    assert main(["run", "--samples", "5", "--steps", "2"]) == 2
    assert "grid sampling yields exactly dim_n=1000 samples" in capsys.readouterr().err
    # the sample count's own rule holds whatever runs
    assert main(["run", "--methods", "exact", "--samples", "0"]) == 2
    assert "samples" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["shadow", "--k", "1e306", "--steps", "3", "--count", "1"],
    ["run", "--k", "1e17", "--dim-n", "64", "--q0", "0.25", "--methods", "exact,dense",
     "--steps", "3"],
])
def test_cli_refuses_a_perturbation_below_the_rounding_of_k(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "below the rounding of k" in lines[0] and captured.out == ""


def test_perturbation_rule_applies_only_when_exact_or_dense_runs(capsys):
    # dr reads epsilon as a phase factor, never through k + epsilon
    assert main(["run", "--k", "1e15", "--dim-n", "64", "--q0", "0.25", "--methods", "dr",
                 "--steps", "3"]) == 0
    assert capsys.readouterr().err == ""
    cfg = ExperimentConfig(k=1e15, dim_n=64, q0=0.25, steps=3, methods=("dr",))
    assert validate_config(cfg) == []
    for methods in (("exact",), ("dense",), ("dr", "exact")):
        msgs = _messages(cfg.replace(methods=methods))
        assert len(msgs) == 1 and "below the rounding of k" in msgs[0], methods


@pytest.mark.parametrize("argv", [
    ["run", "--k", "1e17", "--dim-n", "64", "--q0", "0.25", "--methods", "dr", "--steps", "3"],
    ["shadow", "--k", "1e17", "--epsilon", "1e2", "--count", "2", "--steps", "3"],
])
def test_cli_refuses_a_kick_the_float_map_cannot_carry(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "too large for the float map" in lines[0] and captured.out == ""


def test_kick_rule_applies_only_when_dr_runs():
    # dr steps the float map at k; the quantum routes only take phases of it
    cfg = ExperimentConfig(k=1e17, epsilon=50.0, dim_n=64, q0=0.25, steps=3, methods=("dr",))
    msgs = _messages(cfg)
    assert len(msgs) == 1 and "too large for the float map" in msgs[0]
    assert validate_config(cfg.replace(methods=("exact", "dense"))) == []
    assert validate_config(cfg.replace(k=1e16)) == []


@pytest.mark.parametrize("state", [
    ["--state", "gaussian", "--p0", "0.2", "--sigma", "0.01", "--sample-mode", "wigner"],
    ["--state", "position", "--sample-mode", "monte_carlo"],
])
def test_cli_dr_runs_beyond_the_exact_grid_cap(state, tmp_path, capsys):
    """dr costs samples x steps whatever N is: the exact route's grid cap does not bind it."""
    out = tmp_path / "dr.csv"
    assert main([
        "run", "--methods", "dr", "--k", "10", "--epsilon", "2e-6", "--dim-n", "1000000",
        "--q0", "0.4", *state, "--samples", "2000", "--steps", "20", "--out", str(out),
    ]) == 0
    assert "dr: M(20) = " in capsys.readouterr().out
    rows = out.read_text().splitlines()
    assert rows[0] == ",".join(CSV_COLUMNS) and len(rows) == 22
    assert {row.split(",")[2] for row in rows[1:]} == {"dr"}


def test_dr_fidelity_at_fixed_epsilon_n_is_the_same_on_any_grid():
    def final_fidelity(dim_n):
        config = ExperimentConfig(
            k=10.0, epsilon=2.0 / dim_n, dim_n=dim_n, state="gaussian", q0=0.4, p0=0.2,
            sigma=0.01, sample_mode="wigner", samples=20000, steps=20, methods=("dr",),
        )
        return run_experiment(config).curves["dr"].fidelity[-1]

    # measured 0.2172 and 0.2130; the Monte Carlo stderr of M(20) is about 0.006
    assert abs(final_fidelity(10**9) - final_fidelity(10**3)) < 0.03


@pytest.mark.parametrize("argv, message", [
    (["--methods", "exact", "--dim-n", "65537", "--q0", "0"], "dim_n 65537 exceeds limit 65536"),
    (["--methods", "dr,exact", "--dim-n", "1000000"], "dim_n 1000000 exceeds limit 65536"),
    (["--methods", "dense", "--dim-n", "257", "--q0", "0"],
     "dense method supports dim_n <= 256, got 257"),
    # a position grid set has N samples
    (["--methods", "dr", "--dim-n", "20000000"], "samples 20000000 exceeds limit 10000000"),
])
def test_cli_route_caps_exit_3_before_any_route(argv, message, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a route ran")

    for name in ("_samples", "dr_curve", "exact_fidelity_curve", "dense_oracle"):
        monkeypatch.setattr(harness, name, never)
    assert main(["run", *argv, "--steps", "3"]) == 3
    assert capsys.readouterr().err == f"capacity: {message}\n"


def test_cli_sample_cap_binds_only_runs_that_draw_samples(tmp_path, capsys):
    """Only dr reads `samples`: its cap does not refuse an exact-only run."""
    argv = ["run", "--dim-n", "64", "--q0", "0.25", "--samples", "20000000", "--steps", "2"]
    out = tmp_path / "exact.csv"
    assert main([*argv, "--methods", "exact", "--out", str(out)]) == 0
    assert "exact: M(2) = " in capsys.readouterr().out
    assert out.is_file()
    assert main([*argv, "--methods", "dr", "--sample-mode", "monte_carlo"]) == 3
    assert capsys.readouterr().err == "capacity: samples 20000000 exceeds limit 10000000\n"


def test_alignment_is_judged_exactly_on_any_grid(tmp_path, capsys):
    # q0 * N is beyond the float range, and 0.4 lies on that grid: capacity only,
    # dr's grid set of N samples and the exact route's grid
    huge = ExperimentConfig(dim_n=10**400, q0=0.4)
    assert validate_config(huge) == [
        (CapacityError, f"samples {10**400} exceeds limit 10000000"),
        (CapacityError, f"dim_n {10**400} exceeds limit 65536"),
    ]
    # the float 0.4 is 2.2e-5 steps off 2/5 on 10**12 points, but the float nearest it
    for dim_n in (10**400, 10**12, 100000):
        assert main(["run", "--dim-n", str(dim_n), "--q0", "0.4"]) == 3
    # over the cap and off the grid (0.4 * 100001 = 40000.4): a config error
    assert main(["run", "--dim-n", "100001", "--q0", "0.4"]) == 2
    assert "not aligned" in capsys.readouterr().err
    for q0 in ("inf", "nan"):
        assert main(["run", "--q0", q0]) == 2
        assert capsys.readouterr().err == f"error: q0 must lie in [0, 1), got {q0}\n"


# ---- fuzz of the validation layer ----------------------------------------

_ODD = st.one_of(
    st.sampled_from([
        math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, 10**400, -(10**400),
        2**128, -1, 0, 1, 2, True, False, 0.25, 0.4, 64, 1000, 65537, 10**6, 10**7 + 1, 10**9,
    ]),
    st.floats(),
    st.integers(),
)
_FIELDS = {
    "k": _ODD, "epsilon": _ODD, "dim_n": _ODD, "q0": _ODD, "p0": _ODD,
    "sigma": _ODD, "steps": _ODD, "samples": st.none() | _ODD, "seed": _ODD,
    "threads": _ODD,
    "state": st.sampled_from(["position", "gaussian", "plasma"]),
    "sample_mode": st.sampled_from(["grid", "monte_carlo", "wigner", "position_only", "odd"]),
    "methods": st.lists(st.sampled_from(["dr", "exact", "dense", "warp"]), max_size=4).map(tuple),
    "format": st.sampled_from(["csv", "json", "xml"]),
}


@settings(deadline=None, max_examples=400)
@given(fields=st.fixed_dictionaries({}, optional=_FIELDS))
@example(fields={"q0": 1e308})
@example(fields={"dim_n": 10**400})
@example(fields={"k": 10**400, "sigma": 10**400, "state": "gaussian", "samples": 10})
def test_check_config_refuses_any_field_values_cleanly(fields):
    """Validation only: no config reaches a run, and none escapes as a crash."""
    try:
        check_config(ExperimentConfig(**fields))
    except (ConfigValidationError, CapacityError):
        pass


_VALUE_TEXT = st.one_of(
    st.sampled_from([
        "1e308", "-1e308", "inf", "-inf", "nan", "1" + "0" * 400, "-1", "0", "2", "none",
        "2.5", "0.25", "64", "100000", str(2**128), "True", "dr,dense", "dense", "position",
        "gaussian", "monte_carlo", "wigner", "grid", "json", "xml",
    ]),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12),
)
_LINE = st.one_of(
    st.tuples(st.sampled_from([*_FIELD_PARSERS, "bogus"]), _VALUE_TEXT).map(" = ".join),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=20),
)


# raw bytes around the text: none, a UTF-8 byte-order mark, or any bytes
_RAW = st.one_of(st.just(b""), st.just(b"\xef\xbb\xbf"), st.binary(max_size=4))


@settings(deadline=None, max_examples=300)
@given(head=_RAW, text=st.lists(_LINE, max_size=8).map("\n".join), tail=_RAW)
@example(head=b"", text="q0 = 1e308", tail=b"")
@example(head=b"", text="dim_n = 1" + "0" * 400, tail=b"")
@example(head=b"\xef\xbb\xbf", text="k = 0.8", tail=b"")
@example(head=b"\xef\xbb\xbf", text="k = 0.8\n", tail=b"\xff = 1")
def test_cli_validate_any_config_text_exits_with_a_documented_code(head, text, tail):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = Path(tmp) / "fuzz.cfg"
        path.write_bytes(head + text.encode("utf-8") + tail)
        code = main(["validate", "--config", str(path)])
    assert code in (0, 2, 3, 4) and "Traceback" not in err.getvalue()


_ODD_FLAG_TEXT = ["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "0", "-1", "2.5", "x", "",
                  "1" + "0" * 400, str(2**128)]


def _flag(valid, odd=st.sampled_from(_ODD_FLAG_TEXT)):
    """Flag text: a valid value in three draws of four, else an odd one.

    Valid counts stay small; odd ones are refused or over a cap, so no draw
    starts a long run.
    """
    return st.integers(0, 3).flatmap(lambda i: odd if i == 0 else valid.map(str))


def _any_float(valid):
    return _flag(valid, st.sampled_from(_ODD_FLAG_TEXT) | st.floats().map(str))


_SHADOW_FLAGS = {
    "--k": _any_float(st.floats(-20.0, 20.0)),
    "--epsilon": _any_float(st.floats(1e-4, 0.5)),
    "--count": _flag(st.integers(1, 2)),
    "--steps": _flag(st.integers(1, 5), st.sampled_from([*_ODD_FLAG_TEXT, "10001"])),
    "--seed": _flag(st.integers(0, 2**128 - 1), st.sampled_from(_ODD_FLAG_TEXT) | st.integers().map(str)),
    "--tol": _any_float(st.floats(1e-13, 1.0)),
    # no valid iteration cap above 20: a refinement may take every one
    "--max-iter": _flag(st.integers(1, 20), st.sampled_from(["0", "-1", "2.5", "nan", "x", ""])),
}
_ORACLE_FLAGS = {
    "--steps": _flag(st.integers(0, 5), st.sampled_from([*_ODD_FLAG_TEXT, str(_MAX_STEPS + 1)])),
    "--tol": _any_float(st.floats(1e-300, 1.0)),
}


def _argv(command, flags, required=()):
    chosen = st.fixed_dictionaries(
        {f: flags[f] for f in required},
        optional={f: v for f, v in flags.items() if f not in required},
    )
    return chosen.map(lambda d: [command, *(f"{f}={v}" for f, v in d.items())])


@settings(deadline=None, max_examples=150)
@given(argv=_argv("shadow", _SHADOW_FLAGS, required=("--count", "--steps")))
@example(argv=["shadow", "--count=1", "--steps=3", "--k=1e300"])
def test_cli_shadow_any_flags_exit_with_a_documented_code(argv):
    assert main(argv) in (0, 2, 3)


@settings(deadline=None, max_examples=100)
@given(argv=_argv("oracle-check", _ORACLE_FLAGS, required=("--steps",)))
@example(argv=["oracle-check", "--steps=2", "--tol=nan"])
@example(argv=["oracle-check", "--steps=2", "--tol=5e-324"])
def test_cli_oracle_check_any_flags_exit_with_a_documented_code(argv):
    code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:  # a self-test failure only under a tolerance that can pass
        tol = float(next((a for a in argv if a.startswith("--tol=")), "--tol=1e-9")[6:])
        assert math.isfinite(tol) and tol > 0.0


_RUN_FLAGS = {
    "--k": _flag(st.floats(-20.0, 20.0)),
    "--epsilon": _flag(st.floats(-0.05, 0.05)),
    # above the exact grid cap a dr run goes on; a position grid set is capped at 10^7 samples
    "--dim-n": _flag(st.integers(2, 4096) | st.sampled_from([65537, 10**7 + 1, 10**9])),
    "--state": _flag(st.sampled_from(["position", "gaussian"])),
    "--q0": _flag(st.sampled_from([0.0, 0.25, 0.4, 0.5]) | st.floats(0.0, 1.0, exclude_max=True)),
    "--p0": _flag(st.floats(0.0, 1.0, exclude_max=True)),
    "--sigma": _flag(st.floats(1e-3, 0.3)),
    "--steps": _flag(st.integers(0, 5)),
    "--samples": _flag(st.integers(1, 50) | st.just("none")),
    "--sample-mode": _flag(st.sampled_from(["grid", "monte_carlo", "wigner", "position_only"])),
    "--seed": _flag(st.integers(0, 2**128 - 1)),
    "--methods": _flag(st.lists(st.sampled_from(["dr", "exact", "dense"]), min_size=1,
                                max_size=3, unique=True).map(",".join)),
    "--format": _flag(st.sampled_from(["csv", "json"])),
    "--threads": _flag(st.integers(1, 2)),
}


@settings(deadline=None, max_examples=150)
@given(argv=_argv("run", _RUN_FLAGS, required=("--steps",)))
@example(argv=["run", "--steps=2", "--dim-n=furby", "--samples=y"])
@example(argv=["run", "--steps=2", "--state=gaussian", "--sample-mode=wigner", "--samples=5",
               "--sigma=5e-324", "--q0=0.4005", "--methods=exact"])
@example(argv=["run", "--steps=2", "--methods=dr", "--dim-n=10000001", "--q0=0"])
def test_cli_run_any_flags_exit_with_a_documented_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4) and "Traceback" not in err.getvalue()
    if code == 3:  # a cap that only a route enforces would pass validation
        assert validate_config(cli._assemble_config(cli._build_parser().parse_args(argv)))
