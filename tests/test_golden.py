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
        "4070a0bb435becbf9540b737bfd41dbf38a25a9a514179717c431dcbfe560706",
    ),
    "fig1-chaotic": (
        ["--preset", "fig1-chaotic"],
        "f3827d4622b0bd4572b40ee45a59fd5767a60be0f12aa72942384b4fc64a6319",
    ),
    # three 4096-sample chunks over two threads
    "monte-carlo": (
        ["--preset", "fig1-chaotic", "--sample-mode", "monte_carlo",
         "--samples", "10000", "--seed", "11", "--threads", "2"],
        "e9955cbc7d44e4b209bc19deb4218d89c5fd45bc04ec57a447ab9a53aaedf638",
    ),
    "gaussian-wigner": (
        ["--state", "gaussian", "--sample-mode", "wigner", "--samples", "10000",
         "--seed", "5", "--k", "10", "--epsilon", "2e-3", "--q0", "0.4",
         "--p0", "0.3", "--sigma", "0.05"],
        "a75ba12224bd90407c131f612f27c7f688e045c725682dd26c58b681170753b6",
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
