"""Running code in a fresh interpreter that imports this checkout's torusecho."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(code, *args):
    """stdout of `code` run with args in a fresh interpreter that imports this checkout's torusecho."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout
