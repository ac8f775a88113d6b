"""Nonlinear variational circle means for complex fields.

The package computes variational means of complex-valued fields over
circles and disks for a convex radial density, extrapolates their
small-radius behaviour to decide holomorphy and membership in the
associated nonlinear Cauchy-Riemann system, checks contact (one-sided)
solution properties along probe directions, and approximates solutions by
a dynamic-programming fixed-point iteration on grids.

``holomeans`` re-exports the ``__all__`` of each of its library modules,
so every public name is importable from the package itself.
"""

from . import asymptotics, contact, density, dpp, errors, fields, geometry, means, pdesystem
from .asymptotics import *  # noqa: F403
from .contact import *  # noqa: F403
from .density import *  # noqa: F403
from .dpp import *  # noqa: F403
from .errors import *  # noqa: F403
from .fields import *  # noqa: F403
from .geometry import *  # noqa: F403
from .means import *  # noqa: F403
from .pdesystem import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (asymptotics, contact, density, dpp, errors, fields, geometry, means, pdesystem)
    for name in module.__all__
]
