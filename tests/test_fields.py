"""Field catalogue: spec parsing, closed-form values, gradient profiles."""

import re

import numpy as np
import pytest

import holomeans as hm
from holomeans.errors import ConfigError
from holomeans.fields import pharm_exponent

POINTS = np.array([0.3 + 0.2j, -0.7 + 0.1j, 1.1 - 0.9j, 0.05 + 0.6j])


@pytest.mark.parametrize(
    "text,value",
    [
        ("1", 1 + 0j),
        ("-2i", -2j),
        ("0.5+0.25i", 0.5 + 0.25j),
        ("1e-3-0.5i", 1e-3 - 0.5j),
        ("-1.5-2.5i", -1.5 - 2.5j),
        ("i", 1j),
        ("-i", -1j),
    ],
)
def test_parse_complex(text, value):
    assert hm.parse_complex(text) == value


@pytest.mark.parametrize("text", ["", "1+", "abc", "1 + 2i + 3", "2j j"])
def test_parse_complex_rejects_garbage(text):
    with pytest.raises((ConfigError, ValueError)):
        hm.parse_complex(text)


def test_catalogue_names_build_and_vectorize():
    for name in hm.field_names():
        spec = {
            "const": "const:2+1i",
            "affine": "affine:1,0.5,0.3",
            "pharm-radial": "pharm-radial:3",
            "pharm-linear": "pharm-linear:3",
        }.get(name, name)
        f = hm.make_field(spec)
        vals = f(POINTS)
        assert vals.shape == POINTS.shape
        assert np.all(np.isfinite(vals))


@pytest.mark.parametrize(
    "spec,fn",
    [
        ("identity", lambda z: z),
        ("square", lambda z: z**2),
        ("cube", lambda z: z**3),
        ("exp", np.exp),
        ("conj", np.conj),
        ("modsq", lambda z: np.abs(z) ** 2),
    ],
)
def test_builtin_values(spec, fn):
    f = hm.make_field(spec)
    np.testing.assert_allclose(f(POINTS), fn(POINTS), rtol=1e-15)


def test_const_and_affine_values():
    c = hm.make_field("const:2+1i")
    np.testing.assert_allclose(c(POINTS), np.full(POINTS.shape, 2 + 1j))
    a = hm.make_field("affine:1,0.5,0.3")
    np.testing.assert_allclose(a(POINTS), 1.0 + 0.5 * POINTS + 0.3 * np.conj(POINTS))


@pytest.mark.parametrize("p", (1.5, 3.0, 4.0))
def test_pharm_radial_is_gradient_of_radial_potential(p):
    # u = |z|^gamma has du/dx - i du/dy = gamma |z|^(gamma-2) conj(z)
    gamma = pharm_exponent(p)
    f = hm.make_field(f"pharm-radial:{p}")
    expected = gamma * np.abs(POINTS) ** (gamma - 2.0) * np.conj(POINTS)
    np.testing.assert_allclose(f(POINTS), expected, rtol=1e-13)


@pytest.mark.parametrize("p", (1.5, 3.0, 4.0))
def test_pharm_exponent_formula(p):
    assert pharm_exponent(p) == pytest.approx((p - 2.0) / (p - 1.0))


def test_pharm_linear_is_constant_direction():
    f = hm.make_field("pharm-linear:3")
    np.testing.assert_allclose(f(POINTS), np.ones(POINTS.shape))


@pytest.mark.parametrize(
    "spec",
    ["nope", "affine:1", "affine:1,2,3,4", "const:", "pharm-radial:abc", "pharm-radial:1"],
)
def test_make_field_rejects_bad_specs(spec):
    with pytest.raises((ConfigError, hm.HolomeansError)):
        hm.make_field(spec)


def test_radial_potential_jet_matches_gradient_field():
    p = 3.0
    f = hm.make_field("pharm-radial:3")
    for z in (0.5 + 0.2j, -0.8 + 0.6j):
        u2 = hm.radial_potential_jet2(p, z)
        jet = hm.gradient_jet(u2)
        assert jet.base == z
        assert jet.value == pytest.approx(complex(f(np.array([z]))[0]), rel=1e-12)


@pytest.mark.parametrize("spec, message", (
    ("pharm-radial:2", "p = 2 gives a constant potential"),
    ("pharm-linear:1", "exponent must satisfy p > 1, got 1.0"),
    ("pharm-linear:3,1", "takes 1 argument(s), got 2"),
    ("pharm-radial:3+1i", "argument 1 of field 'pharm-radial' must be real"),
))
def test_make_field_says_what_is_wrong_with_a_spec(spec, message):
    with pytest.raises(hm.InvalidParameterError, match=re.escape(message)):
        hm.make_field(spec)


def test_radial_potential_jet_is_undefined_at_the_origin():
    with pytest.raises(hm.InvalidParameterError, match="undefined at 0"):
        hm.radial_potential_jet2(3.0, 0)
