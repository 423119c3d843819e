"""torusecho benchmark: four workloads, checked outputs, one JSON result line.

    python3 torusbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ directory. A run builds the workload's inputs from the seed and
repeats whole passes of the workload's operations while another pass
fits in S seconds. The
first pass's outputs are checked in depth after the timing ends; every
later output must equal the first bit for bit. The last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are setup_s, run_rel and peak_rss_mb; run_rel
is the median pass time over the time of a fixed reference kernel
(refclock.py) timed between the passes, and the raw wall figures go to
a line before the result. With --trace 1 untraced and traced passes
alternate; the metrics are the per-layer numbers of tracing.PER_LAYER
plus import.torusecho_s, import.scipy_s, the untraced wall figures
(wall.*) and trace.overhead_s, and the spans go to
torusbench/out/trace-<workload>-s<seed>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_LAUNCHES = 5
IMPORT_LAUNCHES = 5
MIN_PASSES = 3
THREAD_REPEATS = 3
REF_SHARE = 0.2


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _launch(argv):
    proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


class SetupClock:
    """setup_s: median launch-to-inputs-ready time over fresh interpreters.

    The launches are spread over the run, between passes and outside their
    timing, so a slow spell of a shared machine touches one or two of them
    rather than all.
    """

    def __init__(self, name, seed, seconds):
        self.argv = [sys.executable, str(BENCH / "probe.py"), name, str(seed)]
        self.spacing = seconds / SETUP_LAUNCHES
        self.times = []
        self._launch()  # unmeasured: writes the bytecode caches of a fresh checkout

    def _launch(self):
        t_launch = time.perf_counter()
        return float(_launch(self.argv + [repr(t_launch)]).stdout.split()[-1])

    def due(self, elapsed):
        if len(self.times) < SETUP_LAUNCHES and elapsed >= len(self.times) * self.spacing:
            self.times.append(self._launch())

    def median(self):
        while len(self.times) < SETUP_LAUNCHES:
            self.times.append(self._launch())
        return statistics.median(self.times)


def import_seconds():
    """Median `import torusecho` time and the part of it spent importing scipy.

    -X importtime prints one line per module after its children, indented
    by depth. Read backwards, each line follows its parent; the scipy time
    is the cumulative time of every scipy module with no scipy ancestor,
    which includes what those modules import in turn.
    """
    totals, scipy = [], []
    for _ in range(IMPORT_LAUNCHES):
        err = _launch([sys.executable, "-X", "importtime", "-c", "import torusecho"]).stderr
        rows = []
        for line in err.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                name = fields[2].rstrip()
                rows.append((len(name) - len(name.lstrip()), name.strip(), int(fields[1])))
        ancestors = []  # (depth, is_scipy) of the lines enclosing the current one
        in_scipy = 0
        for depth, name, cumulative_us in reversed(rows):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            is_scipy = name == "scipy" or name.startswith("scipy.")
            if is_scipy and not any(s for _, s in ancestors):
                in_scipy += cumulative_us
            if name == "torusecho":
                totals.append(cumulative_us * 1e-6)
            ancestors.append((depth, is_scipy))
        scipy.append(in_scipy * 1e-6)
    return statistics.median(totals), statistics.median(scipy)


def run_pass(ops):
    """(seconds, {label: output or exception}) for one pass of the timed body."""
    outputs = {}
    elapsed = 0.0
    for label, op in ops:
        t0 = time.perf_counter()
        try:
            outputs[label] = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs[label] = exc
        elapsed += time.perf_counter() - t0
    return elapsed, outputs


class Tally:
    """Operations attempted and failed, against the first pass's outputs."""

    def __init__(self, workload, inputs, first):
        self.workload = workload
        self.inputs = inputs
        self.expected = {
            label: None if isinstance(out, Exception) else workload.capture(inputs, label, out)
            for label, out in first.items()
        }
        self.passes = 0
        self.failed = {label: 0 for label in first}

    @property
    def attempted(self):
        return self.passes * len(self.failed)

    def add(self, outputs):
        self.passes += 1
        for label, out in outputs.items():
            if (isinstance(out, Exception) or self.expected[label] is None
                    or self.workload.capture(self.inputs, label, out) != self.expected[label]):
                self.failed[label] += 1

    def total_failed(self, problems):
        """Failures, counting every operation whose first output failed a check."""
        return sum(self.passes if problems.get(label) else failed
                   for label, failed in self.failed.items())


def measure(workload, inputs, seconds, ref, tracer=None, between=None):
    """Whole passes while another one fits in `seconds`.

    The first pass runs under workload.recording() and its outputs are the
    reference every later pass must reproduce. With a tracer, untraced and
    traced passes alternate, so both see the same state of the machine.
    After each pass the reference clock `ref` catches up with its share of
    the pass time, inside the `seconds` budget; then `between(elapsed)`
    runs, outside the pass timing and outside the `seconds` budget.
    Returns (tally, first outputs, untraced pass times, traced pass times).
    """
    ops = workload.ops(inputs)
    start = time.perf_counter()
    with workload.recording():
        elapsed, first = run_pass(ops)
    tally = Tally(workload, inputs, first)
    tally.add(first)
    plain, traced = [elapsed], []
    ref.keep_up(elapsed)
    paused = 0.0  # time spent in `between`, which does not count towards `seconds`

    def another_pass_fits():
        mean_pass = (sum(plain) + sum(traced)) / (len(plain) + len(traced))
        return time.perf_counter() - start - paused + mean_pass <= seconds

    while (len(plain) < MIN_PASSES or (tracer is not None and len(traced) < MIN_PASSES)
           or another_pass_fits()):
        traced_turn = tracer is not None and len(traced) < len(plain)
        with tracer.active(f"pass{len(traced)}") if traced_turn else contextlib.nullcontext():
            elapsed, outputs = run_pass(ops)
        (traced if traced_turn else plain).append(elapsed)
        tally.add(outputs)
        ref.keep_up(sum(plain) + sum(traced))
        if between is not None:
            t0 = time.perf_counter()
            between(t0 - start - paused)
            paused += time.perf_counter() - t0
    return tally, first, plain, traced


def tail_line(name, times):
    """The highest percentile with at least ten passes beyond it, from 40 passes up."""
    n = len(times)
    if n < 40:
        return f"{name}: {n} passes, median {statistics.median(times):.6g} s"
    pct = max(p for p in (75, 90, 99, 99.9) if n * (100 - p) / 100 >= 10)
    value = statistics.quantiles(times, n=1000, method="inclusive")[round(pct * 10) - 1]
    return (f"{name}: {n} passes, median {statistics.median(times):.6g} s, "
            f"p{pct:g} {value:.6g} s")


def verify(workload, inputs, first):
    """Check problems per operation label, and sentinel or property failures."""
    from workloads import epsilon_zero_routes

    ok = {label: out for label, out in first.items() if not isinstance(out, Exception)}
    problems = {label: [repr(out)] for label, out in first.items() if isinstance(out, Exception)}
    if len(ok) == len(first):
        problems.update(workload.check(inputs, ok))
        broken = workload.sentinels(inputs, ok)
    else:
        broken = ["sentinels skipped: an operation raised"]
    epsilon_zero_routes(broken)
    return problems, broken


def report(name, problems, broken):
    for label, found in problems.items():
        for line in found:
            print(f"{name} {label}: FAILED CHECK: {line}", file=sys.stderr)
    for line in broken:
        print(f"{name}: {line}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "torusecho" / "__init__.py").is_file():
        print(f"error: no torusecho sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import torusecho
    import workloads

    if Path(torusecho.__file__).resolve().parent != (SRC / "torusecho").resolve():
        print(f"error: torusecho imported from {torusecho.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](OUT)
    run = traced_run if args.trace else plain_run
    result = run(workload, args.seed, args.seconds)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def wall_line(workload, inputs, run_s, ref_s):
    work = workload.work_per_pass(inputs)
    return (f"{workload.name}: {work:g} {workload.unit} per pass; wall run_s {run_s:.6g} s, "
            f"work_per_s {work / run_s:.6g} 1/s; reference kernel {ref_s:.6g} s")


def plain_run(workload, seed, seconds):
    from refclock import RefClock

    inputs = workload.setup(seed)
    clock = SetupClock(workload.name, seed, seconds)
    ref = RefClock(REF_SHARE, workload.threads)
    try:
        tally, first, times, _ = measure(workload, inputs, seconds, ref, between=clock.due)
        ref_s = ref.seconds()
    finally:
        ref.close()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = clock.median()
    problems, broken = verify(workload, inputs, first)
    report(workload.name, problems, broken)

    run_s = statistics.median(times)
    print(wall_line(workload, inputs, run_s, ref_s))
    print(tail_line(workload.name, times))
    return {
        "correct": not broken,
        "attempted": tally.attempted,
        "failed": tally.total_failed(problems),
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_rel": {"value": run_s / ref_s, "unit": "x"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        },
    }


def traced_run(workload, seed, seconds):
    import tracing
    from refclock import RefClock

    torusecho_s, scipy_s = import_seconds()
    tracer = tracing.Tracer()
    with tracer.active("setup"):
        inputs = workload.setup(seed)
    ref = RefClock(REF_SHARE, workload.threads)
    try:
        tally, first, plain, traced = measure(workload, inputs, seconds, ref, tracer=tracer)
        ref_s = ref.seconds()
    finally:
        ref.close()

    metrics = tracing.layer_metrics(tracer, [f"pass{i}" for i in range(len(traced))])
    thread_seconds = getattr(workload, "thread_seconds", None)
    one, two = thread_seconds(inputs, THREAD_REPEATS) if thread_seconds else (0.0, 0.0)
    metrics["dephasing.dr_curve.threads1_s"] = {"value": one, "unit": "s"}
    metrics["dephasing.dr_curve.threads2_s"] = {"value": two, "unit": "s"}
    metrics["import.torusecho_s"] = {"value": torusecho_s, "unit": "s"}
    metrics["import.scipy_s"] = {"value": scipy_s, "unit": "s"}
    run_s = statistics.median(plain)
    metrics["wall.run_s"] = {"value": run_s, "unit": "s"}
    metrics["wall.work_per_s"] = {"value": workload.work_per_pass(inputs) / run_s, "unit": "1/s"}
    metrics["wall.ref_kernel_s"] = {"value": ref_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": statistics.median(traced) - run_s, "unit": "s"}

    problems, broken = verify(workload, inputs, first)
    report(workload.name, problems, broken)
    path = OUT / f"trace-{workload.name}-s{seed}.json"
    path.write_text(json.dumps({"workload": workload.name, "seed": seed,
                                "spans": tracer.dump()}) + "\n")
    print(wall_line(workload, inputs, run_s, ref_s))
    print(tail_line(f"{workload.name} untraced", plain))
    print(tail_line(f"{workload.name} traced", traced))
    print(f"{workload.name}: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return {
        "correct": not broken,
        "attempted": tally.attempted,
        "failed": tally.total_failed(problems),
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
