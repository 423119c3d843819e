"""scipy's compiled extension modules, each loaded alone on first use.

Two routes call one scipy routine each: the shadow refinement LAPACK's
`dpbsv` (from `scipy.linalg._flapack`) and the exact route pocketfft's
`c2c` (from `scipy.fft._pocketfft.pypocketfft`). Each loads only the
extension module that holds its routine, not the subpackage around it.
`scipy.linalg`'s `__init__` loads about 85 modules, `numpy.f2py` among
them, and `scipy.fft` took 0.29 s to import: either would cost a
process's first refinement or first exact step more time and memory
than its arithmetic. `import torusecho` loads no scipy.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys


def scipy_extension(name: str):
    """The scipy extension module `name`, such as "scipy.linalg._flapack", loaded alone.

    The top-level `scipy` package is imported first: it checks numpy's
    version and does scipy's platform set-up (its DLL search path on
    Windows). The subpackages on the way to the module are not imported.
    The module goes into sys.modules under its name, so a later import of
    its subpackage uses this same module, and the routines are the same
    objects in either import order.
    """
    import scipy

    folder = os.path.join(scipy.__path__[0], *name.split(".")[1:-1])
    spec = importlib.machinery.PathFinder.find_spec(name, [folder])
    if spec is None:
        raise ImportError(f"scipy's extension module {name} not found in {folder}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module
