import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

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


# a child that builds operators on a fragmented grid and on the mixed scale
# of long uniform intervals, with every public numpy.linalg function made to
# raise, and prints every module it imported on the way
_OPERATOR_IMPORTS = """
import sys
import numpy.linalg
def refuse(*args, **kwargs):
    raise AssertionError("numpy.linalg called")
for name in numpy.linalg.__all__:
    if callable(getattr(numpy.linalg, name)) and not isinstance(getattr(numpy.linalg, name), type):
        setattr(numpy.linalg, name, refuse)
from chronofrac import TimeScale, build_grid, frac_integral_operator
comps = [(0.07 * k, 0.07 * k + (0.04 if k % 2 else 0.0)) for k in range(300)]
op = frac_integral_operator(build_grid(TimeScale(tuple(comps)), 0.002), 0.3)
assert op.to_json()["soe_terms"] > 0
mixed = TimeScale(((0.0, 1.0), (1.5, 1.5), (2.0, 2.5)))
op = frac_integral_operator(build_grid(mixed, 3e-4), 0.5)
assert op.to_json()["distinct_blocks"] < op.to_json()["row_blocks"]
print(" ".join(sys.modules))
"""


def test_operator_imports_neither_scipy_nor_numpy_polynomial():
    # NumPy is the only dependency, and numpy.polynomial costs 6-10 ms
    # of import in every CLI call that would touch it; no operator takes
    # an FFT either, nor a LAPACK call, whose first use pages OpenBLAS in
    proc = subprocess.run(
        [sys.executable, "-c", _OPERATOR_IMPORTS], capture_output=True, text=True, check=True
    )
    modules = set(proc.stdout.split())
    assert "chronofrac.fractional" in modules
    banned = [m for m in modules if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial")]
    assert banned == []
    assert "numpy.fft" not in modules


_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 10
"""


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    # under the project's pytest settings, warnings as errors included, a
    # failing Hypothesis test ends in its example, not in an INTERNALERROR
    pytest.importorskip("hypothesis")
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY)
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    args = ["-c", str(config), "-p", "no:cacheprovider", str(tmp_path / "test_property.py")]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out
