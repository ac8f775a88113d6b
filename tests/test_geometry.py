"""Quadrature rules, jets, projections, and the weighted holomorphic mean."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import holomeans as hm
from holomeans.errors import InvalidParameterError, NonFiniteSampleError
from holomeans.geometry import _wirtinger_jets

CENTER = 0.3 - 0.4j
RADIUS = 0.7


def test_circle_rule_geometry():
    q = hm.circle_rule(CENTER, RADIUS, 96)
    assert q.nodes.shape == (96,)
    np.testing.assert_allclose(np.abs(q.nodes - CENTER), RADIUS, rtol=1e-14)
    assert q.weights.sum() == pytest.approx(2.0 * np.pi * RADIUS, rel=1e-14)


def test_circle_rule_trigonometric_moments():
    q = hm.circle_rule(CENTER, RADIUS, 64)
    m = q.nodes - CENTER
    total = q.weights.sum()
    for k in (1, 2, 3, 5):
        moment = hm.circle_integral(q, m**k) / total
        assert abs(moment) <= 1e-13 * RADIUS**k
    # |m|^2 integrates exactly
    second = hm.circle_integral(q, np.abs(m) ** 2) / total
    assert second == pytest.approx(RADIUS**2, rel=1e-14)


def test_disk_rule_area_moments():
    q = hm.disk_rule(CENTER, RADIUS)
    ones = np.ones(q.nodes.shape)
    area = hm.circle_integral(q, ones)
    assert area == pytest.approx(np.pi * RADIUS**2, rel=1e-12)
    m = q.nodes - CENTER
    assert abs(hm.circle_integral(q, m)) <= 1e-13
    # mean of |m|^2 over the disk is r^2 / 2
    second = hm.circle_integral(q, np.abs(m) ** 2) / area
    assert second == pytest.approx(RADIUS**2 / 2.0, rel=1e-12)


@pytest.mark.parametrize(
    "node_count,radius", [(0, 0.5), (-3, 0.5), (8, 0.0), (8, -1.0)]
)
def test_circle_rule_rejects_bad_parameters(node_count, radius):
    with pytest.raises(InvalidParameterError):
        hm.circle_rule(0j, radius, node_count)


def test_wirtinger_jet_on_closed_forms():
    z = 0.4 + 0.2j
    jet = hm.wirtinger_jet(np.exp, z)
    assert jet.base == z
    assert jet.value == pytest.approx(np.exp(z), rel=1e-12)
    assert abs(jet.dz - np.exp(z)) <= 1e-7
    assert abs(jet.dzbar) <= 1e-7

    sq = hm.wirtinger_jet(lambda w: w**2, z)
    assert abs(sq.dz - 2 * z) <= 1e-8
    assert abs(sq.dzbar) <= 1e-8

    cj = hm.wirtinger_jet(np.conj, z)
    assert abs(cj.dz) <= 1e-10
    assert abs(cj.dzbar - 1.0) <= 1e-10


def test_affine_eval_reproduces_jet():
    jet = hm.Jet(base=0.1 + 0.2j, value=1 - 1j, dz=0.5j, dzbar=-0.25)
    zeta = np.array([0.1 + 0.2j, 0.4 - 0.1j, -1.0 + 1.0j])
    m = zeta - jet.base
    expected = jet.value + jet.dz * m + jet.dzbar * np.conj(m)
    np.testing.assert_allclose(hm.affine_eval(jet, zeta), expected, rtol=1e-15)


@given(
    vre=st.floats(-2, 2), vim=st.floats(-2, 2),
    sre=st.floats(-2, 2), sim=st.floats(-2, 2),
    tre=st.floats(-2, 2), tim=st.floats(-2, 2),
)
def test_projection_pair_recovers_affine_coefficients(vre, vim, sre, sim, tre, tim):
    jet = hm.Jet(
        base=CENTER,
        value=complex(vre, vim),
        dz=complex(sre, sim),
        dzbar=complex(tre, tim),
    )
    a, b = hm.projection_pair(lambda z: hm.affine_eval(jet, z), CENTER, 0.35)
    scale = 1.0 + abs(jet.value) + abs(jet.dzbar)
    assert abs(a - jet.value) <= 1e-12 * scale
    assert abs(b - jet.dzbar) <= 1e-12 * scale


@pytest.mark.parametrize(
    "f", [np.exp, lambda z: z**2, lambda z: z**3 - 2 * z + 1j]
)
def test_weighted_mean_reproduces_holomorphic_values(f):
    for z, r in [(0.2 + 0.1j, 0.5), (-0.7 + 0.4j, 0.25), (1.0 - 1.0j, 0.1)]:
        got = hm.weighted_holomorphic_mean(f, z, r)
        assert abs(got - f(z)) <= 1e-12 * (1.0 + abs(f(z)))


def test_weighted_mean_of_conjugate_detects_radius():
    # conj(zeta) at the origin: the weighting turns the mean into exactly r
    for r in (0.5, 0.1, 0.02):
        got = hm.weighted_holomorphic_mean(np.conj, 0j, r)
        assert got == pytest.approx(r, abs=1e-12)


def test_sample_field_rejects_non_finite_values():
    def bad(z):
        out = np.asarray(z, dtype=complex).copy()
        out[0] = np.nan
        return out

    with pytest.raises(NonFiniteSampleError):
        hm.sample_field(bad, np.array([0j, 1j]))


def test_sample_field_rejects_shape_mismatch():
    with pytest.raises(InvalidParameterError):
        hm.sample_field(lambda z: np.ones(3, dtype=complex), np.array([0j, 1j]))


@pytest.mark.parametrize("name", ("exp", "conj", "cube", "pharm-radial:3"))
def test_batched_jets_equal_one_point_jets_bit_for_bit(name):
    f = hm.make_field(name)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.5, 1.5, 25) + 1j * rng.uniform(-1.5, 1.5, 25)
    jets, errors = _wirtinger_jets(f, pts)
    assert errors == [None] * pts.size
    for i, z in enumerate(pts):
        one = hm.wirtinger_jet(f, z)
        assert (jets.base[i], jets.value[i], jets.dz[i], jets.dzbar[i]) == (
            one.base, one.value, one.dz, one.dzbar)


def test_batched_jets_keep_a_non_finite_stencil_in_its_slot():
    def f(z):
        z = np.asarray(z, dtype=complex)
        return np.where(z.real > 0.9, np.nan, z**2)

    jets, errors = _wirtinger_jets(f, [0.2 + 0.1j, 0.9 - 1e-6 + 0j, 0.5j])
    assert errors[0] is None and errors[2] is None
    assert isinstance(errors[1], NonFiniteSampleError)
    assert jets.dz[0] == hm.wirtinger_jet(f, 0.2 + 0.1j).dz
    with pytest.raises(NonFiniteSampleError):
        hm.wirtinger_jet(f, 0.9 - 1e-6)


@pytest.mark.parametrize("radius, radial_nodes, node_count, message", (
    (0.0, 32, 64, "disk radius must be positive"),
    (np.nan, 32, 64, "disk radius must be positive"),
    (0.5, 3, 64, "need at least 4 radial and 8 angular nodes"),
    (0.5, 32, 4, "need at least 4 radial and 8 angular nodes"),
))
def test_disk_rule_rejects_bad_parameters(radius, radial_nodes, node_count, message):
    with pytest.raises(InvalidParameterError, match=message):
        hm.disk_rule(CENTER, radius, radial_nodes, node_count)


def test_circle_integral_samples_a_callable_and_checks_given_samples():
    q = hm.circle_rule(CENTER, RADIUS, 16)
    assert hm.circle_integral(q, np.exp) == hm.circle_integral(q, np.exp(q.nodes))
    with pytest.raises(InvalidParameterError, match="sample count does not match"):
        hm.circle_integral(q, np.ones(15))
    values = np.ones(16)
    values[3] = np.nan
    with pytest.raises(NonFiniteSampleError, match="non-finite integrand at node 3"):
        hm.circle_integral(q, values)
