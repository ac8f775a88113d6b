"""Directional probes: envelope identity, jet membership, one-sided verdicts."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import holomeans as hm
from holomeans.asymptotics import _increment_ratios, _sweeps
from holomeans.contact import _direction_rows
from holomeans.errors import InvalidParameterError
from holomeans.geometry import _wirtinger_jets

D2 = hm.power_density(2)
D3 = hm.power_density(3)
CFG = hm.SweepConfig(r0=0.02)


def unit(angle):
    return complex(np.cos(angle), np.sin(angle))


@given(
    wre=st.floats(-3, 3), wim=st.floats(-3, 3),
    sre=st.floats(-3, 3), sim=st.floats(-3, 3),
    tre=st.floats(-3, 3), tim=st.floats(-3, 3),
    angle=st.floats(0, 2 * np.pi),
    p=st.sampled_from((1.5, 2.0, 3.0, 4.0)),
)
def test_envelope_equals_projected_system_residual(wre, wim, sre, sim, tre, tim, angle, p):
    omega = complex(wre, wim)
    if abs(omega) < 1e-3:
        return
    sigma, tau, xi = complex(sre, sim), complex(tre, tim), unit(angle)
    d = hm.power_density(p)
    env = hm.xi_envelope(omega, sigma, tau, xi, d)
    jet = hm.Jet(base=0j, value=omega, dz=sigma, dzbar=tau)
    projected = np.real(np.conj(xi) * hm.cr_residual(jet, d))
    assert abs(env - projected) <= 1e-14 * (1.0 + abs(omega) + abs(sigma) + abs(tau))


def test_envelope_is_real_linear_in_direction():
    # the envelope is the real part of a fixed complex number against
    # conj(xi), so on unit directions it decomposes along 1 and i
    omega, sigma, tau = 1.2 - 0.4j, 0.5 + 0.3j, -0.7 + 0.2j
    e_re = hm.xi_envelope(omega, sigma, tau, 1 + 0j, D3)
    e_im = hm.xi_envelope(omega, sigma, tau, 1j, D3)
    for angle in (0.3, 1.9, 4.4):
        xi = unit(angle)
        got = hm.xi_envelope(omega, sigma, tau, xi, D3)
        assert got == pytest.approx(
            np.cos(angle) * e_re + np.sin(angle) * e_im, abs=1e-13
        )
    # flipping the direction flips the sign
    assert hm.xi_envelope(omega, sigma, tau, -1 + 0j, D3) == pytest.approx(
        -e_re, abs=1e-14
    )


def test_envelope_zero_value_branch():
    # at omega = 0 the coefficient uses the small-argument convexity ratio
    sigma, tau, xi = 0.8 + 0.1j, 0.2 - 0.5j, unit(0.7)
    for p in (1.5, 2.0, 3.0):
        a = p - 1.0
        expected = np.real(np.conj(xi) * tau) + abs((a - 1.0) / (a + 1.0)) * abs(sigma)
        got = hm.xi_envelope(0j, sigma, tau, xi, hm.power_density(p))
        assert got == pytest.approx(expected, abs=1e-14)


def test_unit_directions_fan():
    dirs = hm.unit_directions(12)
    assert len(dirs) == 12
    assert all(abs(abs(x) - 1.0) <= 1e-14 for x in dirs)
    assert len({np.round(np.angle(x), 12) for x in dirs}) == 12
    assert dirs[0] == 1.0 + 0j


def test_contact_probe_requires_unit_direction():
    with pytest.raises(InvalidParameterError):
        hm.ContactProbe(base=0j, xi=2.0 + 0j, sigma=0j, tau=0j)


def test_jet_membership_accepts_true_jet():
    z = 0.4 + 0.2j
    probe = hm.ContactProbe(base=z, xi=unit(0.5), sigma=np.exp(z), tau=0j)
    res = hm.jet_membership(np.exp, probe, CFG)
    assert res.verdict == "member"
    assert len(res.ratios) == len(CFG.radii())


def test_jet_membership_rejects_wrong_conjugate_slope():
    z = 0.4 + 0.2j
    probe = hm.ContactProbe(base=z, xi=unit(0.5), sigma=np.exp(z), tau=0.3 + 0j)
    res = hm.jet_membership(np.exp, probe, CFG)
    assert res.verdict == "rejected"


def test_jet_membership_inconclusive_between_thresholds_or_on_a_poor_fit():
    z = 0.4 + 0.2j
    # a conjugate slope off by 5e-4 puts the limit between the two thresholds
    probe = hm.ContactProbe(base=z, xi=unit(0.5), sigma=np.exp(z), tau=5e-4 + 0j)
    res = hm.jet_membership(np.exp, probe, CFG)
    assert res.estimate.verdict == "converges_nonzero"
    assert 1e-4 < res.estimate.limit.real < 1e-3
    assert res.verdict == "inconclusive"
    # off along i instead, the sweep fails the fit gate
    probe = hm.ContactProbe(base=z, xi=unit(0.5), sigma=np.exp(z), tau=5e-4j)
    res = hm.jet_membership(np.exp, probe, CFG)
    assert res.estimate.verdict == "inconclusive"
    assert res.verdict == "inconclusive"


def test_jet_membership_zero_probe_against_conjugate_field():
    # remainder conj(zeta - z) has ratio modulus exactly 1 at every radius
    z = 0.5 + 0.5j
    probe = hm.ContactProbe(base=z, xi=1 + 0j, sigma=0j, tau=0j)

    def shifted(zeta):
        return np.conj(zeta - z) + np.conj(z) * 0

    res = hm.jet_membership(lambda w: np.conj(w - z), probe, CFG)
    assert res.verdict == "rejected"
    assert abs(res.estimate.limit - 1.0) <= 1e-10


def test_camvp_holds_on_exact_solution():
    z = 0.4 + 0.2j
    probe = hm.ContactProbe(base=z, xi=unit(1.1), sigma=np.exp(z), tau=0j)
    res = hm.camvp_verdict(np.exp, probe, D2, CFG)
    assert res.status == "holds"
    assert res.consistent
    assert abs(res.limit) <= 1e-4


def test_camvp_fails_against_descent_direction():
    # for conj the projected residual along xi = -1 is exactly -1
    z = 0.5 + 0.5j
    probe = hm.ContactProbe(base=z, xi=-1 + 0j, sigma=0j, tau=1 + 0j)
    res = hm.camvp_verdict(np.conj, probe, D2, CFG)
    assert res.status == "fails"
    assert res.consistent
    assert res.limit == pytest.approx(-1.0, abs=1e-3)
    assert res.envelope == pytest.approx(-1.0, abs=1e-12)


def test_camvp_untestable_at_field_zero():
    probe = hm.ContactProbe(base=0j, xi=1 + 0j, sigma=1 + 0j, tau=0j)
    res = hm.camvp_verdict(lambda z: z, probe, D2, CFG)
    assert res.status == "untestable"


def test_contact_solution_verdict_on_solution():
    report = hm.contact_solution_verdict(
        np.exp, [0.4 + 0.2j, -0.5 + 0.1j], D2, directions=8, cfg=CFG
    )
    assert report.camvp_pass
    assert report.envelope_pass
    assert report.residual_pass
    assert report.consistent
    assert not report.untestable_points
    assert len(report.rows) == 16
    assert all(r.status == "holds" for r in report.rows)


def test_contact_solution_verdict_on_violator():
    report = hm.contact_solution_verdict(
        np.conj, [0.5 + 0.5j], D2, directions=8, cfg=CFG
    )
    assert not report.camvp_pass
    assert not report.envelope_pass
    assert not report.residual_pass
    # all three checks agree that the field is not a solution
    assert report.consistent
    assert any(r.status == "fails" for r in report.rows)


def test_contact_solution_verdict_collects_untestable_points():
    report = hm.contact_solution_verdict(
        lambda z: z, [0j, 0.5 + 0.5j], D2, directions=4, cfg=CFG
    )
    assert report.untestable_points == (0j,)
    assert all(row.point != 0j for row in report.rows)


def test_contact_solution_verdict_accepts_explicit_directions():
    report = hm.contact_solution_verdict(
        np.exp, [0.4 + 0.2j], D2, directions=[1 + 0j, 1j], cfg=CFG
    )
    assert len(report.rows) == 2
    assert {r.xi for r in report.rows} == {1 + 0j, 1j}


def test_contact_solution_verdict_rejects_non_unit_direction():
    with pytest.raises(InvalidParameterError):
        hm.contact_solution_verdict(
            np.exp, [0.4 + 0.2j], D2, directions=[0.5 + 0j], cfg=CFG
        )


def test_contact_rows_equal_one_direction_calls():
    # the (points, directions) array pass gives every row the values of a
    # one-direction camvp_verdict on the point's jet and of xi_envelope
    f = hm.make_field("pharm-radial:3")
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.2, 0.8, 10) + 1j * rng.uniform(0.2, 0.8, 10)
    report = hm.contact_solution_verdict(f, pts, D3, directions=16)
    assert len(report.rows) == 160
    for row in report.rows:
        jet = hm.wirtinger_jet(f, row.point)
        envelope = hm.xi_envelope(jet.value, jet.dz, jet.dzbar, row.xi, D3)
        assert abs(row.envelope - envelope) <= 1e-15
        one = hm.camvp_verdict(f, hm.ContactProbe(row.point, row.xi, jet.dz, jet.dzbar), D3)
        assert (one.status, one.consistent) == (row.status, row.consistent)
        for name in ("limit", "fit_residual", "envelope", "envelope_gap"):
            assert abs(getattr(one, name) - getattr(row, name)) <= 1e-15, name


def test_contact_solution_verdict_without_live_points_is_empty():
    report = hm.contact_solution_verdict(lambda z: z, [0j], D2, directions=4, cfg=CFG)
    assert report.rows == ()
    assert report.untestable_points == (0j,)
    assert not (report.camvp_pass or report.envelope_pass or report.residual_pass)
    assert not report.consistent


def test_unit_directions_needs_one_direction():
    with pytest.raises(InvalidParameterError, match="at least one direction"):
        hm.unit_directions(0)


def test_contact_solution_verdict_rejects_an_empty_direction_list():
    with pytest.raises(InvalidParameterError, match="at least one direction"):
        hm.contact_solution_verdict(np.exp, [0.4 + 0.2j], D2, directions=[], cfg=CFG)


def test_envelope_at_a_zero_needs_declared_small_argument_behaviour():
    undeclared = dataclasses.replace(D3, small_exponent=float("nan"))
    # away from a zero the envelope does not use the declaration
    assert np.isfinite(hm.xi_envelope(1.0 + 0j, 0.5j, 0.2, 1 + 0j, undeclared))
    with pytest.raises(InvalidParameterError, match="small-argument"):
        hm.xi_envelope(0j, 0.5j, 0.2, 1 + 0j, undeclared)


def test_jet_membership_ratios_match_a_field_call_per_radius():
    # one field call for the whole ladder gives the ratios of sampling
    # each radius's circle on its own, bit for bit
    f = hm.make_field("pharm-radial:3")
    z = 0.4 + 0.3j
    jet = hm.wirtinger_jet(f, z)
    probe = hm.ContactProbe(base=z, xi=unit(0.8), sigma=jet.dz, tau=jet.dzbar + 1e-3)
    res = hm.jet_membership(f, probe, CFG)
    expected = []
    for r in CFG.radii():
        q = hm.circle_rule(z, r, CFG.node_count)
        remainder = hm.sample_field(f, q.nodes) - (
            f(np.array([z]))[0] + probe.sigma * (q.nodes - z) + probe.tau * np.conj(q.nodes - z)
        )
        top = 0.5 * ((np.conj(probe.xi) * remainder).real + np.abs(remainder))
        expected.append(float(np.max(top)) / r)
    assert res.ratios == tuple(expected)


_HOLE = 0.5 + 0.5j


def _holed_exp(zeta):
    # exp with a NaN disk: circles of radius 0.1 about _HOLE + 0.13 cross it
    zeta = np.asarray(zeta, dtype=complex)
    return np.where(np.abs(zeta - _HOLE) < 0.06, np.nan, np.exp(zeta))


def test_direction_fit_residuals_come_from_each_point_s_own_fit():
    # Ladders of 8 and 7 radii share one call; each point's per-direction
    # fit residual is the RMS of its own linear fit's residuals projected
    # onto the direction, as a refit of that point alone gives it.
    pts = np.array([0.2 + 0.3j, _HOLE + 0.13, 0.8 + 0.2j, _HOLE - 0.13j])
    sweeps = _sweeps("pair_increment", _holed_exp, pts, D3, None)
    assert [len(s.radii) for s in sweeps] == [8, 7, 8, 7]
    jets, _ = _wirtinger_jets(_holed_exp, pts)
    xi = hm.unit_directions(16)
    rows = _direction_rows(pts, xi, sweeps, jets, D3)
    assert len(rows) == pts.size * xi.size
    for i, s in enumerate(sweeps):
        radii, ratios = _increment_ratios(s)
        est = hm.extrapolate(radii, ratios)
        residual = ratios - (est.limit + est.slope * radii)
        projected = (np.conj(xi)[:, None] * residual).real
        own = rows[i * xi.size:(i + 1) * xi.size]
        assert [(row.point, row.xi) for row in own] == [(pts[i], x) for x in xi]
        assert [row.limit for row in own] == (np.conj(xi) * est.limit).real.tolist()
        assert [row.fit_residual for row in own] == np.sqrt(
            np.mean(projected**2, axis=-1)).tolist()
