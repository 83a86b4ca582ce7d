import importlib
import pkgutil
import subprocess
import sys

import chronofrac


def test_every_exported_name_resolves():
    # for the package and each of its modules: every name in __all__ is an
    # attribute, and none is listed twice
    modules = [chronofrac] + [
        importlib.import_module(f"chronofrac.{info.name}")
        for info in pkgutil.iter_modules(chronofrac.__path__)
        if info.name != "__main__"
    ]
    assert len(modules) > 5
    for mod in modules:
        names = getattr(mod, "__all__", [])
        assert len(names) == len(set(names)), mod.__name__
        assert [n for n in names if not hasattr(mod, n)] == [], mod.__name__


def test_package_exports_every_library_module_name():
    # the package's namespace and __all__ come from the library modules'
    # own __all__ lists, so no public name is left behind
    for name in ("timescale", "fractional", "conductivity", "solver"):
        mod = importlib.import_module(f"chronofrac.{name}")
        for public in mod.__all__:
            assert getattr(chronofrac, public, None) is getattr(mod, public), public
            assert public in chronofrac.__all__, public


# a child that builds an exponential operator on a fragmented grid and
# prints every module it imported on the way
_OPERATOR_IMPORTS = """
import sys
from chronofrac import TimeScale, build_grid, frac_integral_operator
comps = [(0.07 * k, 0.07 * k + (0.04 if k % 2 else 0.0)) for k in range(300)]
op = frac_integral_operator(build_grid(TimeScale(tuple(comps)), 0.002), 0.3)
assert op.to_json()["blocks"]["exp"] == 1
print(" ".join(sys.modules))
"""


def test_operator_imports_neither_scipy_nor_numpy_polynomial():
    # NumPy is the only dependency, and numpy.polynomial costs 6-10 ms
    # of import in every CLI call that would touch it
    proc = subprocess.run(
        [sys.executable, "-c", _OPERATOR_IMPORTS], capture_output=True, text=True, check=True
    )
    modules = set(proc.stdout.split())
    assert "chronofrac.fractional" in modules
    banned = [m for m in modules if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial")]
    assert banned == []
