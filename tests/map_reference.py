"""The kicked map written out apart from the program, for the tests' bitwise references.

Both functions take scalars or arrays and return float64 of the same shape
(a numpy scalar for a scalar). The kick is np.sin; the wrap is x - floor(x)
with the rounding case 1.0 taken to 0.0.
"""

import numpy as np


def wrap_ref(x):
    """The wrap written out apart from the program: x - floor(x), 1.0 -> 0.0."""
    y = np.asarray(x, dtype=np.float64)
    y = y - np.floor(y)
    return np.where(y >= 1.0, y - 1.0, y)[()]


def step_ref(c, q, p):
    """One kick-then-drift step with kick coefficient c, from wrapped q and p."""
    q = wrap_ref(q)
    p = wrap_ref(wrap_ref(p) - c * np.sin(2.0 * np.pi * q))
    return wrap_ref(q + p), p
