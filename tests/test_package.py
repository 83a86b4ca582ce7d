import importlib
import pkgutil

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
