"""Nonlinear variational circle means for complex fields.

The package computes variational means of complex-valued fields over
circles and disks for a convex radial density, extrapolates their
small-radius behaviour to decide holomorphy and membership in the
associated nonlinear Cauchy-Riemann system, checks contact (one-sided)
solution properties along probe directions, and approximates solutions by
a dynamic-programming fixed-point iteration on grids.

``holomeans`` re-exports the ``__all__`` of each of its library modules,
so every public name is importable from the package itself.  The core
(``errors``, ``density``, ``geometry``, ``pdesystem``, ``fields`` and
``means``) is imported with the package.  The two layers on top of it, the
verdicts (``asymptotics`` and ``contact``) and the lattice solver
(``dpp``), are imported on the first use of one of their names (PEP 562),
so a DPP run never imports the verdict layer, nor a verdict run ``dpp``.
A resolved name is then bound in the package like an eager one.
``holomeans.cli`` imports every layer.
"""

import importlib

from . import density, errors, fields, geometry, means, pdesystem
from .density import *  # noqa: F403
from .errors import *  # noqa: F403
from .fields import *  # noqa: F403
from .geometry import *  # noqa: F403
from .means import *  # noqa: F403
from .pdesystem import *  # noqa: F403

__version__ = "0.1.0"

# The public names of the layers imported on first use, by module.
_LAZY_MODULES = {
    "asymptotics": (
        "SweepConfig", "RadiusSweep", "LimitEstimate", "HolomorphyVerdict",
        "SystemVerdict", "AmvpVerdict", "sweep", "extrapolate", "holomorphy_verdict",
        "system_verdict", "amvp_verdict",
    ),
    "contact": (
        "ContactProbe", "MembershipResult", "ContactAmvpResult", "ContactReport",
        "unit_directions", "vee_matrix", "vee_eigenvalues", "xi_envelope",
        "jet_membership", "camvp_verdict", "contact_solution_verdict",
    ),
    "dpp": (
        "GridField", "DppConfig", "StepDiagnostics", "DppResult", "make_grid",
        "grid_from_function", "with_interior", "interpolate", "dpp_step", "dpp_solve",
        "write_checkpoint", "read_checkpoint",
    ),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}

__all__ = [
    name
    for module in (density, errors, fields, geometry, means, pdesystem)
    for name in module.__all__
] + list(_LAZY)


def __getattr__(name):
    if name in _LAZY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_MODULES) | set(_LAZY))
