"""Fractional calculus on time scales and the nonlocal thermistor solver."""

# each public name is listed once, in the __all__ of the module defining it
from . import conductivity, fractional, solver, timescale
from .conductivity import *  # noqa: F403
from .fractional import *  # noqa: F403
from .solver import *  # noqa: F403
from .timescale import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *timescale.__all__,
    *fractional.__all__,
    *conductivity.__all__,
    *solver.__all__,
    "__version__",
]
