import ast
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


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports at module level and never references."""
    tree = ast.parse(path.read_text())
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_each_module_references_every_name_it_imports():
    src = Path(chronofrac.__file__).parent
    modules = sorted(p for p in src.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    for path in modules:
        assert _unused_imports(path) == [], path.name


def _unread_names(src: Path) -> list[str]:
    """Module-level constants, functions and classes, and private methods,
    of the modules in ``src`` that no module reads, as a loaded name, an
    attribute or an import, less the names each module's ``__all__`` exports."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for name, tree in trees.items():
        defined, exported = [], {"__all__"}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(node.name)
            if isinstance(node, ast.ClassDef):
                defined += [
                    f.name
                    for f in node.body
                    if isinstance(f, ast.FunctionDef)
                    and f.name.startswith("_")
                    and not f.name.endswith("__")
                ]
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in targets if isinstance(t, ast.Name)]
                defined += targets
                if "__all__" in targets:
                    exported.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
        unread += [f"{name}: {d}" for d in defined if d not in read | exported]
    return unread


def test_every_module_level_name_and_private_method_is_read():
    # a constant, function, class or _private method that nothing in the
    # package reads, and that its module does not export, is dead code
    src = Path(chronofrac.__file__).parent
    assert _unread_names(src) == []
