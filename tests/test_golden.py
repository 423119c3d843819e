"""Golden digests: the exact bytes of four `torusecho run` data files.

A change to the map step, the phase record or the serialization that moves
any bit of these files fails here. Changing a pinned digest on purpose must
come with the reason in CHANGES.md, and with the file of that digest in
`tests/golden/`, against which a mismatch names the first row and column
that moved and the largest move.
"""

import hashlib
import os
from pathlib import Path

import pytest

from torusecho.cli import main

GOLDEN = {
    "fig1-mixed": (
        ["--preset", "fig1-mixed"],
        "d4f3374383e191a50c0d53dfdd4029331d9c37e7470f0d8168d3f4153344607d",
    ),
    "fig1-chaotic": (
        ["--preset", "fig1-chaotic"],
        "d2d56b20b1703d1d529e1cdd5589c994a90260782375718c43401fedbd920828",
    ),
    # three 4096-sample chunks over two threads
    "monte-carlo": (
        ["--preset", "fig1-chaotic", "--sample-mode", "monte_carlo",
         "--samples", "10000", "--seed", "11", "--threads", "2"],
        "03105816d4532328a8f63acb60ea21e69a8bebcdb3a87e0ead0f7362eab79928",
    ),
    "gaussian-wigner": (
        ["--state", "gaussian", "--sample-mode", "wigner", "--samples", "10000",
         "--seed", "5", "--k", "10", "--epsilon", "2e-3", "--q0", "0.4",
         "--p0", "0.3", "--sigma", "0.05"],
        "9aab0d9c99474376fc9684f334875596b75b882ff582ab0b5ee54fe57ffcb646",
    ),
}
PINNED = Path(__file__).parent / "golden"


def _first_move(got: bytes, pinned: bytes) -> str:
    """The first line and column where a data file leaves its pinned copy, and the max |delta|."""
    rows = [line.split(",") for line in got.decode().splitlines()]
    want = [line.split(",") for line in pinned.decode().splitlines()]
    if len(rows) != len(want) or rows[0] != want[0]:
        return f"{len(rows)} lines with header {rows[0]}, pinned {len(want)} with {want[0]}"
    first, worst = None, 0.0
    for lineno, (row, ref) in enumerate(zip(rows, want), start=1):
        for column, a, b in zip(want[0], row, ref):
            if a == b:
                continue
            first = first or f"line {lineno} (step {ref[0]}, {ref[2]}), {column}: {a}, pinned {b}"
            try:
                worst = max(worst, abs(float(a) - float(b)))
            except ValueError:  # a method name moved
                pass
    return f"first move at {first}; max |delta| = {worst:.3g}"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_data_file_digest_is_pinned(name, tmp_path, capsys, monkeypatch):
    # many usable CPUs, so `--threads 2` starts two workers on any machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    args, digest = GOLDEN[name]
    out = tmp_path / f"{name}.csv"
    assert main(["run", *args, "--out", str(out)]) == 0
    capsys.readouterr()
    pinned = (PINNED / f"{name}.csv").read_bytes()
    assert hashlib.sha256(pinned).hexdigest() == digest, f"golden/{name}.csv is not the pinned file"
    assert out.read_bytes() == pinned, _first_move(out.read_bytes(), pinned)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
