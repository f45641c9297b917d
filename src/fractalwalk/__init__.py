"""Certified evaluation of weighted base-r sawtooth series and limit-theorem
experiments for one-step-memory sign walks with variable step length.

A name is public when it is in its module's `__all__`; the package exports
each of those names and `__version__`, and lists none of them again.
"""

from . import blocking, experiments, fractal, reports, rng, stats, walks, weights
from .blocking import *
from .experiments import *
from .fractal import *
from .reports import *
from .reports import VERSION as __version__
from .rng import *
from .stats import *
from .walks import *
from .weights import *

__all__ = ["__version__"]
for _module in (blocking, experiments, fractal, reports, rng, stats, walks, weights):
    __all__ += _module.__all__
del _module
