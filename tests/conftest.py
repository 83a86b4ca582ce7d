import os
from pathlib import Path

import numpy as np
import pytest

import chronofrac
from chronofrac import TimeScale


@pytest.fixture(autouse=True, scope="session")
def _children_import_these_sources():
    # tests that start `python -m chronofrac` must run the package they
    # import, also from a checkout where it is not installed
    src = str(Path(chronofrac.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


def make_scale(rng: np.random.Generator, start: float | None = None) -> TimeScale:
    """Random mix of intervals and isolated points with positive gaps."""
    while True:
        ncomp = int(rng.integers(1, 4))
        comps = []
        cur = float(rng.uniform(-5.0, 5.0)) if start is None else float(start)
        for _ in range(ncomp):
            if rng.random() < 0.3:
                comps.append((cur, cur))
            else:
                width = float(rng.uniform(0.2, 2.0))
                comps.append((cur, cur + width))
                cur += width
            cur += float(rng.uniform(0.1, 1.0))
        if comps[0][0] < comps[-1][1]:
            return TimeScale(tuple(comps))


@pytest.fixture
def random_scale():
    return make_scale
