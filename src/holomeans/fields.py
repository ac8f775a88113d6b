"""Built-in complex fields and a small field registry.

Every field carries a vectorised sampler and a label.  The registry parses
specs of the form ``name`` or ``name:arg1,arg2,...`` (complex arguments
accept ``i`` or ``j`` for the imaginary unit), which the command line
interface and the demo scripts use to name fields without code.

The radial p-harmonic gradient field solves the nonlinear Cauchy-Riemann
system of the power density exactly away from the origin, with dilatation
ratio on the boundary of the quasiregularity bound, which makes it usable
as ground truth; :func:`radial_potential_jet2` gives the exact second-order
jet of its potential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .pdesystem import RealJet2

__all__ = [
    "Field",
    "parse_complex",
    "make_field",
    "field_names",
    "radial_potential_jet2",
]


@dataclass(frozen=True)
class Field:
    """A named complex field."""

    label: str
    sample: object  # vectorised callable: complex array -> complex array

    def __call__(self, pts):
        return self.sample(pts)


def parse_complex(text):
    """Parse a complex number accepting ``i`` or ``j`` notation.

    Examples: ``1``, ``-2.5``, ``1+2i``, ``0.5j``, ``i``, ``-i``.
    """
    s = str(text).strip().replace(" ", "")
    if not s:
        raise InvalidParameterError("empty complex literal")
    s = s.replace("i", "j").replace("I", "j").replace("J", "j")
    if s in ("j", "+j"):
        s = "1j"
    elif s == "-j":
        s = "-1j"
    else:
        # bare trailing j with no digits, e.g. "2+j"
        s = s.replace("+j", "+1j").replace("-j", "-1j")
    try:
        return complex(s)
    except ValueError as exc:
        raise InvalidParameterError(f"cannot parse complex literal {text!r}") from exc


def _const_field(c):
    c = complex(c)

    def sample(pts):
        return np.full_like(np.asarray(pts, dtype=complex), c)

    return Field(f"const:{c:g}" if c.imag == 0 else f"const:{c}", sample)


def _identity_field():
    return Field("identity", lambda pts: np.asarray(pts, dtype=complex).copy())


def _square_field():
    return Field("square", lambda pts: np.asarray(pts, dtype=complex) ** 2)


def _cube_field():
    return Field("cube", lambda pts: np.asarray(pts, dtype=complex) ** 3)


def _exp_field():
    return Field("exp", lambda pts: np.exp(np.asarray(pts, dtype=complex)))


def _conj_field():
    return Field("conj", lambda pts: np.conj(np.asarray(pts, dtype=complex)))


def _modsq_field():
    return Field(
        "modsq", lambda pts: (np.abs(np.asarray(pts, dtype=complex)) ** 2).astype(complex)
    )


def _affine_field(value, dz, dzbar):
    value, dz, dzbar = complex(value), complex(dz), complex(dzbar)

    def sample(pts):
        pts = np.asarray(pts, dtype=complex)
        return value + dz * pts + dzbar * np.conj(pts)

    return Field(f"affine:{value},{dz},{dzbar}", sample)


def pharm_exponent(p):
    """Radial growth exponent gamma = (p - 2) / (p - 1) of the potential."""
    if p <= 1.0:
        raise InvalidParameterError(f"exponent must satisfy p > 1, got {p}")
    return (p - 2.0) / (p - 1.0)


def _pharm_radial_field(p):
    """Gradient field of the radial p-harmonic potential |z|**gamma.

    With gamma = (p - 2)/(p - 1) the potential solves the p-Laplace
    equation away from the origin; the gradient field and its Wirtinger
    derivatives are

        f          = gamma * conj(z) * |z|**(gamma - 2)
        df/dz      = gamma * (gamma - 2) / 2 * conj(z)**2 * |z|**(gamma - 4)
        df/d(conj) = gamma**2 / 2 * |z|**(gamma - 2)

    The field is unbounded at the origin for every p != 2, as
    |f| = |gamma| * |z|**(gamma - 1); the sampler returns NaN there.
    """
    gamma = pharm_exponent(p)
    if gamma == 0.0:
        raise InvalidParameterError(
            "p = 2 gives a constant potential; use another field for that case"
        )

    def sample(pts):
        pts = np.asarray(pts, dtype=complex)
        return gamma * np.conj(pts) * np.abs(pts) ** (gamma - 2.0)

    return Field(f"pharm-radial:{p:g}", sample)


def radial_potential_jet2(p, z):
    """Second-order jet of the radial p-harmonic potential |z|**gamma at z.

    Exact; used to drive the gradient-field residual checks.  Undefined at
    the origin.
    """
    gamma = pharm_exponent(p)
    z = complex(z)
    a = abs(z)
    if a == 0.0:
        raise InvalidParameterError("the radial potential jet is undefined at 0")
    x, y = z.real, z.imag
    g2 = a ** (gamma - 2.0)
    g4 = a ** (gamma - 4.0)
    return RealJet2(
        base=z,
        value=a**gamma,
        dx=gamma * x * g2,
        dy=gamma * y * g2,
        dxx=gamma * g2 + gamma * (gamma - 2.0) * x * x * g4,
        dxy=gamma * (gamma - 2.0) * x * y * g4,
        dyy=gamma * g2 + gamma * (gamma - 2.0) * y * y * g4,
    )


def _pharm_linear_field(p):
    """Gradient field of the linear potential Re(z).

    Affine potentials are p-harmonic for every p; the gradient field is the
    constant 1, giving an exact solution with zero derivatives.
    """
    if p <= 1.0:
        raise InvalidParameterError(f"exponent must satisfy p > 1, got {p}")
    return Field(f"pharm-linear:{p:g}", _const_field(1.0).sample)


_BUILDERS = {
    "const": (_const_field, 1),
    "identity": (_identity_field, 0),
    "square": (_square_field, 0),
    "cube": (_cube_field, 0),
    "exp": (_exp_field, 0),
    "conj": (_conj_field, 0),
    "modsq": (_modsq_field, 0),
    "affine": (_affine_field, 3),
    "pharm-radial": (_pharm_radial_field, 1),
    "pharm-linear": (_pharm_linear_field, 1),
}

_REAL_ARG_NAMES = {"pharm-radial": (0,), "pharm-linear": (0,)}


def field_names():
    """Names understood by :func:`make_field`."""
    return tuple(sorted(_BUILDERS))


def make_field(spec):
    """Build a field from a ``name`` or ``name:args`` string.

    Arguments are comma separated complex literals; the exponent arguments
    of the p-harmonic fields are real.  Examples::

        identity
        const:2+i
        affine:1,0.5,0.25i
        pharm-radial:3
    """
    text = str(spec).strip()
    name, _, argtext = text.partition(":")
    name = name.strip()
    if name not in _BUILDERS:
        raise InvalidParameterError(
            f"unknown field {name!r}; known fields: {', '.join(field_names())}"
        )
    builder, arity = _BUILDERS[name]
    args = [a for a in argtext.split(",") if a.strip()] if argtext else []
    if len(args) != arity:
        raise InvalidParameterError(
            f"field {name!r} takes {arity} argument(s), got {len(args)}"
        )
    real_slots = _REAL_ARG_NAMES.get(name, ())
    parsed = []
    for k, raw in enumerate(args):
        val = parse_complex(raw)
        if k in real_slots:
            if val.imag != 0.0:
                raise InvalidParameterError(
                    f"argument {k + 1} of field {name!r} must be real, got {raw!r}"
                )
            parsed.append(float(val.real))
        else:
            parsed.append(val)
    return builder(*parsed)
