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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_data_file_digest_is_pinned(name, tmp_path, capsys, monkeypatch):
    # many usable CPUs, so `--threads 2` starts two workers on any machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    args, digest = GOLDEN[name]
    out = tmp_path / f"{name}.csv"
    assert main(["run", *args, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
