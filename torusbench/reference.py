"""Reference computations written apart from the torusecho package.

Each function recomputes a quantity the program produces, from the
formulas of the model, with no call into torusecho:

* the kicked map on the unit torus, kick then drift;
* the dephasing sum over weighted samples, averaged as exp(i dS / hbar);
* the one-step unitary as an explicit DFT matrix (dense reference);
* the split-operator step on scipy's FFT (the program uses numpy's).

The dephasing reference must follow the program's orbits bit for bit: at
k = 10 a rounding difference of 1e-16 grows past O(1) within 25 steps, so
the map below applies the same float operations in the same order as the
model's definition (p' = p - c sin(2 pi q), q' = q + p', each wrapped).
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.fft

TWO_PI = 2.0 * math.pi


def wrap(x):
    """Onto [0, 1); rounding can leave x - floor(x) at exactly 1.0."""
    x = x - np.floor(x)
    return np.where(x >= 1.0, x - 1.0, x)


def map_step(k, q, p):
    """One kick-then-drift step of the kicked rotor at kick strength k."""
    p1 = wrap(p - (k / TWO_PI) * np.sin(TWO_PI * q))
    return wrap(q + p1), p1


def one_step_residual(k, points):
    """Sup over steps of the torus distance between x[t+1] and f(x[t])."""
    q1, p1 = map_step(k, points[:-1, 0], points[:-1, 1])
    d = np.abs(points[1:] - np.stack([q1, p1], axis=-1))
    d = np.minimum(d, 1.0 - d)
    return float(d.max())


def dephasing_amplitude(k, epsilon, dim_n, q, p, weights, steps):
    """amp(t) = sum_j w_j exp(i dS_j(t) / hbar) along unperturbed orbits.

    dS_j(t) / hbar = (epsilon N / 2 pi) * sum_{m<t} cos(2 pi q_j(m)).
    """
    q = np.array(q, dtype=np.float64)
    p = np.array(p, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    factor = epsilon * dim_n / TWO_PI
    action = np.zeros_like(q)
    amp = np.empty(steps + 1, dtype=np.complex128)
    for t in range(steps + 1):
        if t:
            action += np.cos(TWO_PI * q)
            q, p = map_step(k, q, p)
        amp[t] = np.sum(w * np.exp(1j * factor * action))
    return amp


def _kick_phase(k, dim_n):
    # exp(-i W(q_j) / hbar), W(q) = -(k / 4 pi^2) cos(2 pi q), hbar = 1 / (2 pi N)
    j = np.arange(dim_n)
    return np.exp(1j * (k * dim_n / TWO_PI) * np.cos(TWO_PI * j / dim_n))


def _drift_phase(dim_n):
    # exp(-i p_m^2 / (2 hbar)) at p_m = m / N is exp(-i pi m^2 / N); m^2 is
    # reduced mod 2N first so the phase stays exact for large grids
    m = np.arange(dim_n, dtype=np.int64)
    return np.exp(-1j * np.pi * ((m * m) % (2 * dim_n)) / dim_n)


@functools.lru_cache(maxsize=2)
def _dft_matrices(dim_n):
    """Unitary DFT F[m, j] = exp(-2 pi i m j / N) / sqrt(N) and its inverse."""
    j = np.arange(dim_n, dtype=np.int64)
    fmat = np.exp(-2j * np.pi * (np.outer(j, j) % dim_n) / dim_n) / math.sqrt(dim_n)
    return fmat, fmat.conj().T


def dense_fidelity(k, epsilon, dim_n, j0, steps):
    """Fidelity amplitude of the position state |j0> by dense matrix products.

    The unitary DFT is an explicit N x N matrix, so no FFT is involved.
    Both branches are propagated as the two columns of one array.
    """
    fmat, finv = _dft_matrices(dim_n)
    kicks = np.stack([_kick_phase(k, dim_n), _kick_phase(k + epsilon, dim_n)], axis=1)
    drift = _drift_phase(dim_n)[:, None]
    psi = np.zeros((dim_n, 2), dtype=np.complex128)
    psi[j0, :] = 1.0
    amp = np.empty(steps + 1, dtype=np.complex128)
    amp[0] = np.vdot(psi[:, 1], psi[:, 0])
    for t in range(1, steps + 1):
        psi = finv @ (drift * (fmat @ (kicks * psi)))
        amp[t] = np.vdot(psi[:, 1], psi[:, 0])
    return amp


def split_step_fidelity(k, epsilon, dim_n, j0, steps):
    """Fidelity amplitude of |j0> by split-operator steps on scipy.fft."""
    kicks = np.stack([_kick_phase(k, dim_n), _kick_phase(k + epsilon, dim_n)])
    drift = _drift_phase(dim_n)
    psi = np.zeros((2, dim_n), dtype=np.complex128)
    psi[:, j0] = 1.0
    amp = np.empty(steps + 1, dtype=np.complex128)
    amp[0] = np.vdot(psi[1], psi[0])
    for t in range(1, steps + 1):
        mom = scipy.fft.fft(kicks * psi, axis=1, norm="ortho")
        psi = scipy.fft.ifft(drift * mom, axis=1, norm="ortho")
        amp[t] = np.vdot(psi[1], psi[0])
    return amp
