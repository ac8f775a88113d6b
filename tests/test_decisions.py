"""Every verdict decision, pinned on both sides of its threshold.

Each case feeds one verdict an input whose decisive size lies just inside
or just outside its threshold, so a change to how a decision is made that
moves any threshold, or turns a bound from inclusive to exclusive by more
than rounding, fails here.  At p = 2 every mean is linear in the field, so
the affine field ``1 + t conj(z)`` has sweep limits, system residual,
pair-mean limit and envelopes all equal to ``t`` up to rounding, and the
cone ``1 + L |z - base|`` gives the membership ratios ``L`` at every radius.
"""

import numpy as np
import pytest

import holomeans as hm
from holomeans.asymptotics import _amvp_rows, _holomorphy_rows, _system_rows

D2 = hm.power_density(2)
CFG = hm.SweepConfig()
RADII = CFG.radii()
BASE = 0.3 + 0.2j


def constant(value):
    return hm.extrapolate(RADII, np.full(RADII.shape, value, dtype=complex)).verdict


def fit_with_residual(ratio):
    """Verdict of ``1 + c q``, whose fit residual over its largest value is ``ratio``.

    ``q`` is orthogonal to the linear model with unit RMS, so the fit
    leaves ``c q`` as its residual and the fit residual is ``c``.
    """
    design = np.stack([np.ones_like(RADII), RADII], axis=1)
    q = RADII ** 2 - design @ np.linalg.lstsq(design, RADII ** 2, rcond=None)[0]
    q /= np.sqrt(np.mean(q ** 2))
    c = ratio / (1.0 - ratio * q.max())
    return hm.extrapolate(RADII, (1.0 + c * q).astype(complex)).verdict


def alternating(size):
    return hm.extrapolate(RADII, size * (-1.0) ** np.arange(RADII.size)).verdict


def affine(t):
    return hm.make_field(f"affine:1,0,{t!r}")


def system(t):
    v = _system_rows(affine(t), [BASE], D2, CFG)[0]
    return v.status, v.analytic_satisfied, v.consistent


def contact(t):
    report = hm.contact_solution_verdict(affine(t), [BASE], D2, 16, CFG)
    return report.camvp_pass, report.envelope_pass, report.residual_pass, report.consistent


def camvp(t):
    # along -1 the projected limit and the envelope are -t
    return hm.camvp_verdict(affine(t), hm.ContactProbe(BASE, -1 + 0j, 0j, t), D2, CFG).status


def membership(field):
    return hm.jet_membership(field, hm.ContactProbe(BASE, 1 + 0j, 0j, 0j), CFG).verdict


def cone(slope):
    return membership(lambda z: 1.0 + slope * np.abs(np.asarray(z) - BASE) + 0j)


CASES = {
    # extrapolated limit against the zero threshold, on a perfect fit
    "limit-below": (lambda: constant(0.99e-4), "vanishes"),
    "limit-above": (lambda: constant(1.01e-4), "converges_nonzero"),
    "limit-below-complex": (lambda: constant(0.7e-4 + 0.7e-4j), "vanishes"),
    "limit-above-complex": (lambda: constant(0.72e-4 + 0.72e-4j), "converges_nonzero"),
    # the fit gate, relative to the largest swept value
    "fit-credible": (lambda: fit_with_residual(0.99e-3), "converges_nonzero"),
    "fit-poor": (lambda: fit_with_residual(1.01e-3), "inconclusive"),
    # below the zero threshold the gate is relative to the threshold itself
    "fit-credible-on-noise": (lambda: alternating(1e-8), "vanishes"),
    "fit-poor-on-noise": (lambda: alternating(1e-6), "inconclusive"),
    "holomorphy-below": (lambda: _holomorphy_rows(affine(0.99e-4), [BASE], D2, CFG)[0].verdict,
                         "holomorphic"),
    "holomorphy-above": (lambda: _holomorphy_rows(affine(1.01e-4), [BASE], D2, CFG)[0].verdict,
                         "not_holomorphic"),
    # sweep decision and closed-form system residual
    "system-below": (lambda: system(0.99e-4), ("satisfied", True, True)),
    "system-above": (lambda: system(1.01e-4), ("violated", False, True)),
    # pair-mean increment limit, two-state
    "amvp-below": (lambda: _amvp_rows(affine(0.99e-4), [BASE], D2, CFG)[0].status, "holds"),
    "amvp-above": (lambda: _amvp_rows(affine(1.01e-4), [BASE], D2, CFG)[0].status, "fails"),
    # one-sided projected limit of one direction
    "camvp-holds": (lambda: camvp(0.99e-4), "holds"),
    "camvp-fails": (lambda: camvp(1.01e-4), "fails"),
    # the report: projected limits, envelopes and system residuals
    "contact-inside": (lambda: contact(0.99e-4), (True, True, True, True)),
    "contact-outside": (lambda: contact(1.01e-4), (False, False, False, True)),
    # jet membership: member, the undecided band, rejected, and a poor fit
    "member": (lambda: cone(0.99e-4), "member"),
    "member-band-low": (lambda: cone(1.01e-4), "inconclusive"),
    "member-band-high": (lambda: cone(0.99e-3), "inconclusive"),
    "rejected": (lambda: cone(1.01e-3), "rejected"),
    "member-poor-fit": (lambda: membership(lambda z: 1.0 + np.abs(np.asarray(z) - BASE) ** 0.5
                                           + 0j), "inconclusive"),
}


@pytest.mark.parametrize("case", CASES)
def test_each_decision_on_each_side_of_its_threshold(case):
    observed, expected = CASES[case]
    assert observed() == expected
