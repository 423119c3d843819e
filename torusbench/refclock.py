"""Reference kernel: the machine's own speed, timed between passes.

The machine the benchmark was built on is a shared virtual machine whose
speed drifts by up to a half over minutes, with CPU time equal to wall
time (the vCPU runs slower rather than waiting): one exact-large pass
read 2.7 s and 4.4 s within six minutes of the same process. A median
over one run cannot remove a drift that lasts longer than the run, so
run.py divides the median pass time by the median time of this fixed
kernel, timed between the passes of the same run. The ratio follows the
program's speed and not the machine's.

The kernel runs between passes, in runs of about 0.15 s, for a fifth of
the time the passes take. It uses numpy and plain Python only, never
torusecho, so no change to the program moves it. It has three parts, each a kind of work
the workloads do: FFTs of a 65536-point complex vector (memory- and
FFT-bound, as exact-large), a plain Python loop (interpreter-bound, as
the CLI and the shadowing driver) and many numpy calls on 11 points
(call overhead, as shadow-survey's map steps). Its time is the sum of the
parts' medians. A workload whose timed body runs on several threads gets
a kernel that runs each part on as many threads at once, each on its own
data, timed until the last one ends: a one-thread kernel did not follow
the two-thread dr-mc, whose second vCPU is shared with the rest of the
machine.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_FFT_N = 65536
_FFT_ROUNDS = 24
_LOOP = 150_000
_SMALL_ROUNDS = 2_000
_SMALL_POINTS = 11


class RefClock:
    """Times the kernel between passes, for `share` of the time the passes take.

    One kernel run takes about 0.15 s and can read half as slow again as
    the next, so a few runs do not give the machine's speed; many runs,
    spread between the passes, sample the same spells of the machine as
    the passes do.
    """

    def __init__(self, share, threads=1):
        rng = np.random.default_rng(20031105)
        self._vector = rng.standard_normal(_FFT_N) + 1j * rng.standard_normal(_FFT_N)
        self._phase = np.exp(2j * np.pi * rng.random(_FFT_N))
        self._points = rng.random((_SMALL_POINTS, 2))
        self.share = share
        self.threads = threads
        self._pool = ThreadPoolExecutor(threads) if threads > 1 else None
        self.parts = {"fft": [], "loop": [], "small": []}
        self.spent = 0.0
        self._tick(record=False)  # warm-up: numpy's FFT plan cache and first-call costs

    def _fft(self):
        v = self._vector
        for _ in range(_FFT_ROUNDS):
            v = np.fft.ifft(self._phase * np.fft.fft(self._phase * v, norm="ortho"), norm="ortho")
        return v

    @staticmethod
    def _loop():
        total = 0
        for i in range(_LOOP):
            total += (i * i) % 7
        return total

    def _small(self):
        p = self._points
        for _ in range(_SMALL_ROUNDS):
            q = np.mod(p[:, 0] + p[:, 1], 1.0)
            p = np.stack([q, np.mod(p[:, 1] + 0.1 * np.sin(2 * np.pi * q), 1.0)], axis=1)
        return p

    def _tick(self, record=True):
        for name, part in (("fft", self._fft), ("loop", self._loop), ("small", self._small)):
            t0 = time.perf_counter()
            if self._pool is None:
                part()
            else:
                for future in [self._pool.submit(part) for _ in range(self.threads)]:
                    future.result()
            if record:
                self.parts[name].append(time.perf_counter() - t0)
                self.spent += self.parts[name][-1]

    def keep_up(self, pass_seconds):
        """Run the kernel until it has taken `share` of `pass_seconds`, the passes' total."""
        while self.spent < self.share * pass_seconds:
            self._tick()

    def seconds(self):
        """Kernel time: the sum of its parts' median times."""
        return sum(statistics.median(times) for times in self.parts.values())

    def close(self):
        """Stop the kernel's threads and wait for them."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
