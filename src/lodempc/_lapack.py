"""scipy's compiled LAPACK module ``_flapack``, loaded after the ``scipy``
package (about 20 ms; its ``__init__`` may set up a wheel's bundled
libraries) but without ``scipy.linalg`` (about 0.4 s and 28 MB more, mostly
numpy submodules its array-API layer imports).  The module leaves
``sys.modules`` again, so that a later ``import scipy.linalg`` loads its
own; one already loaded is reused."""

import importlib.machinery
import importlib.util
import os
import sys

import scipy


def _load():
    where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", [where])
    if spec is None:
        raise ImportError(f"scipy's LAPACK module _flapack is not in {where}")
    if spec.name in sys.modules:
        return sys.modules[spec.name]
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(spec.name, None)
    return module


flapack = _load()
