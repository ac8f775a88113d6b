"""Nonlinear system residuals, dilatation bounds, and potential-field jets."""

import dataclasses

import numpy as np
import pytest

import holomeans as hm
from holomeans.errors import InvalidParameterError, ZeroFieldError
from holomeans.fields import pharm_exponent

POWERS = (1.5, 2.0, 4.0)


def jet_of(field_spec, z):
    f = hm.make_field(field_spec)
    return hm.wirtinger_jet(f, complex(z))


@pytest.mark.parametrize("p", POWERS)
def test_conjugate_field_residual_is_one(p):
    d = hm.power_density(p)
    jet = hm.Jet(base=0.5 + 0.5j, value=0.5 - 0.5j, dz=0j, dzbar=1 + 0j)
    assert hm.cr_residual(jet, d) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("p", POWERS)
def test_modulus_squared_residual_closed_form(p):
    # f = |z|^2 has value real, dz = conj(z), dzbar = z, so the residual
    # collapses to (1 + mu) z
    d = hm.power_density(p)
    z = 0.7 + 0.1j
    jet = hm.Jet(base=z, value=abs(z) ** 2, dz=np.conj(z), dzbar=z)
    mu = (p - 2.0) / p
    assert hm.cr_residual(jet, d) == pytest.approx((1.0 + mu) * z, rel=1e-13)


@pytest.mark.parametrize("p", POWERS)
def test_identity_field_residual_modulus_is_mu(p):
    d = hm.power_density(p)
    z = 0.8 - 0.3j
    jet = hm.Jet(base=z, value=z, dz=1 + 0j, dzbar=0j)
    mu = (p - 2.0) / p
    assert abs(hm.cr_residual(jet, d)) == pytest.approx(abs(mu), abs=1e-14)


def test_holomorphic_jets_solve_only_the_quadratic_system():
    z = 0.6 + 0.2j
    jet = hm.Jet(base=z, value=np.exp(z), dz=np.exp(z), dzbar=0j)
    assert abs(hm.cr_residual(jet, hm.power_density(2))) <= 1e-15
    assert abs(hm.cr_residual(jet, hm.power_density(4))) > 0.1


def test_affine_violator_residual():
    # affine field 1 + 0.5 z + 0.3 conj(z): residual 0.3 + 0.5 mu
    z = 0.4 + 0.4j
    value = 1 + 0.5 * z + 0.3 * np.conj(z)
    jet = hm.Jet(base=z, value=value, dz=0.5 + 0j, dzbar=0.3 + 0j)
    for p in POWERS:
        mu = (p - 2.0) / p
        got = hm.cr_residual(jet, hm.power_density(p))
        expected = 0.3 + mu * (value / np.conj(value)) * 0.5
        assert got == pytest.approx(expected, rel=1e-13)


def test_cr_residual_refuses_vanishing_value():
    jet = hm.Jet(base=0j, value=0j, dz=1 + 0j, dzbar=0j)
    with pytest.raises((ZeroFieldError, InvalidParameterError)):
        hm.cr_residual(jet, hm.power_density(2))


@pytest.mark.parametrize("p", (3.0, 4.0))
def test_radial_gradient_field_solves_its_own_system(p):
    d = hm.power_density(p)
    f = hm.make_field(f"pharm-radial:{p:g}")
    for z in (0.5 + 0.2j, -0.8 + 0.6j, 0.3 - 0.9j):
        jet = hm.wirtinger_jet(f, z)
        assert abs(hm.cr_residual(jet, d)) <= 2e-7


def test_dilatation_check_bound_and_ratio():
    # at p = 3 the distortion is K = 2 and the bound (K-1)/(K+1) = 1/3
    d = hm.power_density(3)
    f = hm.make_field("pharm-radial:3")
    for z in (0.4 + 0.1j, -0.5 - 0.5j, 1.0 + 0.2j):
        rep = hm.dilatation_check(hm.wirtinger_jet(f, z), d)
        assert rep.defined
        assert rep.distortion == pytest.approx(2.0, rel=1e-12)
        assert rep.bound == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert rep.ratio <= rep.bound + 1e-6
        assert rep.ok


def test_dilatation_check_vacuous_on_flat_jet():
    d = hm.power_density(3)
    jet = hm.Jet(base=0j, value=1 + 0j, dz=0j, dzbar=0j)
    rep = hm.dilatation_check(jet, d)
    assert not rep.defined
    assert rep.ok


def test_dilatation_check_flags_heavy_conjugate_part():
    d = hm.power_density(3)
    jet = hm.Jet(base=0j, value=1 + 0j, dz=1 + 0j, dzbar=0.9 + 0j)
    rep = hm.dilatation_check(jet, d)
    assert rep.defined
    assert not rep.ok


def test_gradient_jet_wirtinger_assembly():
    u2 = hm.RealJet2(
        base=0.3 + 0.1j, value=1.0, dx=0.5, dy=-0.2, dxx=2.0, dxy=0.7, dyy=-1.0
    )
    jet = hm.gradient_jet(u2)
    assert jet.value == pytest.approx(0.5 + 0.2j)
    assert jet.dz == pytest.approx((2.0 - (-1.0)) / 2.0 - 1j * 0.7)
    assert jet.dzbar == pytest.approx((2.0 + (-1.0)) / 2.0)


@pytest.mark.parametrize("p", (1.5, 3.0, 4.0))
def test_radial_potential_jet_is_exact(p):
    gamma = pharm_exponent(p)
    z = 0.6 - 0.4j
    u2 = hm.radial_potential_jet2(p, z)
    assert u2.value == pytest.approx(abs(z) ** gamma, rel=1e-13)
    # gradient matches the catalogue field
    f = hm.make_field(f"pharm-radial:{p:g}")
    jet = hm.gradient_jet(u2)
    assert jet.value == pytest.approx(complex(f(np.array([z]))[0]), rel=1e-12)


@pytest.mark.parametrize("p", (1.5, 3.0, 4.0))
def test_p_harmonic_gradient_residual_vanishes_on_solutions(p):
    for z in (0.5 + 0.2j, -0.7 + 0.7j, 0.2 - 0.9j):
        u2 = hm.radial_potential_jet2(p, z)
        assert abs(hm.p_harmonic_gradient_residual(u2, p)) <= 1e-12


def test_p_harmonic_gradient_residual_detects_wrong_exponent():
    z = 0.5 + 0.2j
    u2 = hm.radial_potential_jet2(3.0, z)
    assert abs(hm.p_harmonic_gradient_residual(u2, 4.0)) > 1e-3


@pytest.mark.parametrize("p", (3.0, 4.0))
def test_beltrami_residual_vanishes_on_radial_solution(p):
    f = hm.make_field(f"pharm-radial:{p:g}")
    kappa = (1.0 - np.sqrt(p - 1.0)) / (1.0 + np.sqrt(p - 1.0))
    for z in (0.5 + 0.2j, -0.6 - 0.3j):
        rep = hm.beltrami_residual(f, z, p)
        assert rep.coefficient == pytest.approx(kappa, rel=1e-12)
        assert abs(rep.residual) <= 1e-7


def test_beltrami_residual_nonzero_for_nonsolution():
    rep = hm.beltrami_residual(np.conj, 0.5 + 0.5j, 3.0)
    assert abs(rep.residual) > 1e-2


def test_vee_matrix_is_symmetric_and_eigenvalues_match():
    rng = np.random.default_rng(3)
    for _ in range(20):
        xi, eta = (complex(*rng.standard_normal(2)) for _ in range(2))
        mat = hm.vee_matrix(xi, eta)
        assert mat.shape == (2, 2)
        assert mat[0, 1] == pytest.approx(mat[1, 0], abs=1e-15)
        lo, hi = hm.vee_eigenvalues(xi, eta)
        ev = np.linalg.eigvalsh(mat)
        assert lo == pytest.approx(ev[0], abs=1e-12)
        assert hi == pytest.approx(ev[1], abs=1e-12)
        # closed form
        assert lo == pytest.approx(
            (np.real(np.conj(xi) * eta) - abs(xi) * abs(eta)) / 2.0, abs=1e-12
        )


def test_vee_matrix_is_real_bilinear():
    xi, e1, e2 = 0.3 + 0.7j, 1.2 - 0.4j, -0.8 + 0.5j
    a, b = 0.6, -1.7
    left = hm.vee_matrix(xi, a * e1 + b * e2)
    right = a * hm.vee_matrix(xi, e1) + b * hm.vee_matrix(xi, e2)
    np.testing.assert_allclose(left, right, atol=1e-14)


def test_p_harmonic_gradient_residual_refuses_p_at_most_1_and_a_zero_gradient():
    u2 = hm.radial_potential_jet2(3.0, 0.5 + 0.2j)
    with pytest.raises(InvalidParameterError, match="p > 1, got 1.0"):
        hm.p_harmonic_gradient_residual(u2, 1.0)
    flat = dataclasses.replace(u2, dx=0.0, dy=0.0)
    with pytest.raises(ZeroFieldError, match="needs a nonvanishing gradient"):
        hm.p_harmonic_gradient_residual(flat, 3.0)


@pytest.mark.parametrize("spec, p, error, message", (
    ("pharm-radial:3", 1.0, InvalidParameterError, "p > 1, got 1.0"),
    ("const:0", 3.0, ZeroFieldError, "modulus rescaling needs"),
    # |f| = 1e-7 passes the field floor, but |g| = |f|**sqrt(p - 1) = 1e-14 does not
    ("const:1e-7", 5.0, ZeroFieldError, "Beltrami residual needs"),
))
def test_beltrami_residual_refuses_p_at_most_1_and_a_vanishing_field(spec, p, error, message):
    with pytest.raises(error, match=message):
        hm.beltrami_residual(hm.make_field(spec), 0.5 + 0.2j, p)
