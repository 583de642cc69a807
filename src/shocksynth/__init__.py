"""Shock time-history synthesis under an SRS specification.

Public API: every name in each module's ``__all__``; see the module
docstrings for the math.
"""

from . import filterbank, nzdf, signal_core, srs, synthesis

_MODULES = (signal_core, nzdf, filterbank, srs, synthesis)

from .signal_core import *  # noqa: E402, F403
from .nzdf import *  # noqa: E402, F403
from .filterbank import *  # noqa: E402, F403
from .srs import *  # noqa: E402, F403  (``shocksynth.srs`` is the function from here on)
from .synthesis import *  # noqa: E402, F403

__version__ = "0.1.0"

__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
