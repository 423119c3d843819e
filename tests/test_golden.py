"""Golden digests: the exact bytes of four `torusecho run` data files.

A change to the map step, the phase record or the serialization that moves
any bit of these files fails here. Changing a pinned digest on purpose must
come with the reason in CHANGES.md.
"""

import hashlib
import os

import pytest

from torusecho.cli import main

GOLDEN = {
    "fig1-mixed": (
        ["--preset", "fig1-mixed"],
        "44df436e0dae8ce1b17c0048e6be068f8f42ed656115246d34576f1a574571f8",
    ),
    "fig1-chaotic": (
        ["--preset", "fig1-chaotic"],
        "d03f73999e98e5d76d668c1622293b7c0cde8c7f496c441231811a26d33531d6",
    ),
    # three 4096-sample chunks over two threads
    "monte-carlo": (
        ["--preset", "fig1-chaotic", "--sample-mode", "monte_carlo",
         "--samples", "10000", "--seed", "11", "--threads", "2"],
        "887030ecd00d3f5aadf636256fe0d31d4c8464c4f4985298ee71d4871c343a81",
    ),
    "gaussian-wigner": (
        ["--state", "gaussian", "--sample-mode", "wigner", "--samples", "10000",
         "--seed", "5", "--k", "10", "--epsilon", "2e-3", "--q0", "0.4",
         "--p0", "0.3", "--sigma", "0.05"],
        "697211b7d36c6692fcd8a558587c0c2d75352f2f41cc9a2b50477606353b0127",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_data_file_digest_is_pinned(name, tmp_path, capsys, monkeypatch):
    # many usable CPUs, so `--threads 2` starts two workers on any machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    args, digest = GOLDEN[name]
    out = tmp_path / f"{name}.csv"
    assert main(["run", *args, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
