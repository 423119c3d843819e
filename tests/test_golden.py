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
        "4bbc744fc457543568c694d8a45f8f83ee4b585727006bb54ce5cc0d1a4bb108",
    ),
    "fig1-chaotic": (
        ["--preset", "fig1-chaotic"],
        "a9ae21165b6f2596a1b658c9a0a80d9e7b6c868c66b6eb0866fea50f51b9f6ff",
    ),
    # three 4096-sample chunks over two threads
    "monte-carlo": (
        ["--preset", "fig1-chaotic", "--sample-mode", "monte_carlo",
         "--samples", "10000", "--seed", "11", "--threads", "2"],
        "2a369331d82f0da7cb9d2925c096d654bac50656ac739ee8a10ef8346113796e",
    ),
    "gaussian-wigner": (
        ["--state", "gaussian", "--sample-mode", "wigner", "--samples", "10000",
         "--seed", "5", "--k", "10", "--epsilon", "2e-3", "--q0", "0.4",
         "--p0", "0.3", "--sigma", "0.05"],
        "350b90fa54eba88907ab49868d46592e391cff0af3691bbe180e4a59dcc9010d",
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
