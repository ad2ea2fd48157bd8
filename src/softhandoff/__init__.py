"""Rate regions, multiplexing-gain polygons, and silencing-scheme simulators
for the linear soft-handoff interference network with mixed delay constraints.

The package exports the public names of its modules, as each module's
``__all__`` lists them.
"""
import sys as _sys

from .model import *  # noqa: F403
from .gaussian_mi import *  # noqa: F403
from .inner_bound import *  # noqa: F403
from .outer_bound import *  # noqa: F403
from .mux_gain import *  # noqa: F403
from .conf_sim import *  # noqa: F403
from .reference_curves import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = ("model", "gaussian_mi", "inner_bound", "outer_bound", "mux_gain", "conf_sim", "reference_curves")
__all__ = [name for mod in _MODULES for name in _sys.modules[f"{__name__}.{mod}"].__all__]
