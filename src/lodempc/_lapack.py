"""scipy's compiled LAPACK module ``_flapack``, loaded from the ``linalg``
directory that ``importlib.util.find_spec`` finds, without running scipy's
``__init__`` (about 6 ms and 1.2 MB) or ``scipy.linalg`` (about 0.4 s and
28 MB more, mostly numpy submodules its array-API layer imports).  The
module leaves ``sys.modules`` again, so that a later ``import
scipy.linalg`` loads its own; one already loaded is reused."""

import importlib.machinery
import importlib.util
import os
import sys


def _load():
    where = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "linalg")
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
