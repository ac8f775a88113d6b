"""Non-finite points are refused with a typed error in their own slot.

Every call runs with warnings as errors: a NaN or infinite point must never
reach the arithmetic, where it would leak a RuntimeWarning.
"""

import warnings

import numpy as np
import pytest

import holomeans as hm
from holomeans.asymptotics import _amvp_rows, _holomorphy_rows, _system_rows
from holomeans.errors import InsufficientDataError, InvalidParameterError
from holomeans.geometry import _wirtinger_jets

D3 = hm.power_density(3)
EXP = hm.make_field("exp")
PHARM = hm.make_field("pharm-radial:3")
GOOD = 0.5 + 0.4j
NONFINITE = (complex("nan"), complex("inf"), complex(0.3, float("nan")), complex(-np.inf, 1.0))


def _jets(points):
    jets, errors = _wirtinger_jets(EXP, points)
    parts = (jets.base, jets.value, jets.dz, jets.dzbar)
    return [e or hm.Jet(*(complex(part[i]) for part in parts)) for i, e in enumerate(errors)]


# (name, the one-point call, the call over a list of points that returns one
# result or error per point; None where the API raises the first error)
APIS = (
    ("system_verdict", lambda z: hm.system_verdict(EXP, [z], D3),
     lambda pts: _system_rows(EXP, pts, D3)),
    ("holomorphy_verdict", lambda z: hm.holomorphy_verdict(EXP, [z], D3),
     lambda pts: _holomorphy_rows(EXP, pts, D3)),
    ("amvp_verdict", lambda z: hm.amvp_verdict(PHARM, [z], D3),
     lambda pts: _amvp_rows(PHARM, pts, D3)),
    ("contact_solution_verdict", lambda z: hm.contact_solution_verdict(PHARM, [z], D3, 4), None),
    ("wirtinger_jet", lambda z: hm.wirtinger_jet(EXP, z), _jets),
    ("circle_means", lambda z: hm.circle_means("variational", EXP, [z], 0.1, D3)[0],
     lambda pts: hm.circle_means("variational", EXP, pts, 0.1, D3)),
    ("pair_mean", lambda z: hm.pair_mean(EXP, z, 0.1, D3),
     lambda pts: hm.circle_means("pair", EXP, pts, 0.1, D3)),
    ("infinity_mean", lambda z: hm.infinity_mean(EXP, z, 0.1),
     lambda pts: hm.circle_means("infinity", EXP, pts, 0.1, None)),
    ("sweep", lambda z: hm.sweep("variational", EXP, z, D3), None),
    ("pair_increment sweep", lambda z: hm.sweep("pair_increment", EXP, z, D3), None),
    ("xi_envelope", lambda z: hm.xi_envelope(z, 1, 1, 1, D3), None),
    ("contact probe", lambda z: hm.ContactProbe(z, 1.0, 0.5, 0.25), None),
)


@pytest.mark.parametrize("name, one, many", APIS, ids=[api[0] for api in APIS])
@pytest.mark.parametrize("z", NONFINITE, ids=repr)
def test_a_nonfinite_point_is_refused_with_a_typed_error(name, one, many, z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if name == "circle_means":
            assert isinstance(one(z), InvalidParameterError)
        else:
            with pytest.raises(InvalidParameterError, match="must be finite"):
                one(z)


@pytest.mark.parametrize("name, one, many", APIS, ids=[api[0] for api in APIS])
def test_a_nan_point_next_to_a_good_one_leaves_the_good_row_its_bits(name, one, many):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if many is None:
            if name == "contact_solution_verdict":
                with pytest.raises(InvalidParameterError, match="must be finite"):
                    hm.contact_solution_verdict(PHARM, [GOOD, complex("nan")], D3, 4)
            return
        alone = many([GOOD])
        mixed = many([complex("nan"), GOOD, complex("inf")])
    assert isinstance(mixed[0], InvalidParameterError)
    assert isinstance(mixed[2], InvalidParameterError)
    assert "inf" in str(mixed[2])
    assert not isinstance(alone[0], Exception)
    assert repr(mixed[1]) == repr(alone[0])


def test_a_ladder_whose_circles_overflow_the_field_is_starved_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InsufficientDataError, match="NonFiniteSampleError"):
            hm.sweep("variational", EXP, 0.3, D3, hm.SweepConfig(r0=1e300))


def test_a_stencil_whose_samples_overflow_gets_a_nonfinite_sample_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(hm.NonFiniteSampleError):
            hm.wirtinger_jet(EXP, 710.0)
