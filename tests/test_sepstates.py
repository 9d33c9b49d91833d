"""Separable two-mode state checks.

The portraits' closed forms are checked against honest 4D phase-space
quadrature of weight * |overlap|^2 / (2 pi hbar)^2; nothing in the oracle
reuses the momentum-reduction algebra under test.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sqzq.numerics import legendre_box_rule
from sqzq.onemode import OneModePhasePoint, SqueezeParameter, wavefunction
from sqzq.sepstates import (
    DiagonalKernel,
    Field,
    PhasePoint,
    TwoModeParams,
    portrait_hq,
    portrait_p2_h,
    portrait_p_h,
    sep_kernel_hq,
    sep_wavefunction,
)

from .oracles import erfc_real


def _ov_sq(mode, q, p, qp, pp):
    w = mode.widths()
    lam, hbar = mode.lam, mode.hbar
    u, v = q - qp, p - pp
    return np.exp(
        -w.delta_q_sq * u**2 / (2 * lam**2)
        - lam**2 * w.delta_p_sq * v**2 / (2 * hbar**2)
        - 2 * w.gamma * u * v / hbar
    )


def _mode_qline(mode, q, p, pfactor, order, clip):
    # sum the primed-momentum axis first; the cross term couples it to q',
    # so the result is a per-q'-node weight, not a closed form
    w = mode.widths()
    sq = mode.lam * np.sqrt(w.delta_p_sq)
    sp = mode.hbar * np.sqrt(w.delta_q_sq) / mode.lam
    lo, hi = q - 8.5 * sq, q + 8.5 * sq
    if clip is not None:
        lo, hi = max(lo, clip[0]), min(hi, clip[1])
    rq = legendre_box_rule(lo, hi, order, 1)
    rp = legendre_box_rule(p - 8.5 * sp, p + 8.5 * sp, order, 1)
    ov = _ov_sq(mode, q, p, rq.nodes[:, None], rp.nodes[None, :])
    return rq.nodes, rq.weights * ((ov * pfactor(rp.nodes)[None, :]) @ rp.weights)


def brute_portrait(h, point, params, pfactors=(None, None), order=96, clip=(None, None)):
    """4D quadrature of h(q1',q2') g1(p1') g2(p2') |<q'p'|qp>|^2 / (2 pi hbar)^2.

    Plain reordering of the tensor-product quadrature sum (momentum axes
    summed per mode before the q' axes are combined); no reduction algebra.
    """
    one = np.ones_like
    n1, w1 = _mode_qline(params.mode1, point.q1, point.p1, pfactors[0] or one, order, clip[0])
    n2, w2 = _mode_qline(params.mode2, point.q2, point.p2, pfactors[1] or one, order, clip[1])
    hv = np.broadcast_to(h(n1[:, None], n2[None, :]), (n1.size, n2.size))
    return float(w1 @ hv @ w2) / (2 * np.pi * params.hbar) ** 2


def test_params_validation():
    with pytest.raises(ValueError):
        TwoModeParams(
            SqueezeParameter.from_tau(0.1, hbar=1.0),
            SqueezeParameter.from_tau(0.2, hbar=2.0),
            hbar=1.0,
        )
    par = TwoModeParams.from_tau(0.1, 0.2j, hbar=1.5)
    assert par.mode(1).hbar == par.mode(2).hbar == 1.5
    with pytest.raises(ValueError):
        par.mode(3)


def test_sep_wavefunction_factorises():
    params = TwoModeParams.from_tau(0.3, 0.6j, lam1=0.9, lam2=1.2)
    pt = PhasePoint(0.4, -0.2, 0.8, 1.1)
    x = np.array([[0.3, -0.5], [1.0, 0.2], [-0.7, 0.9]])
    prod = sep_wavefunction(pt, params, x)
    f1 = wavefunction(OneModePhasePoint(0.4, 0.8), params.mode1, x[:, 0])
    f2 = wavefunction(OneModePhasePoint(-0.2, 1.1), params.mode2, x[:, 1])
    assert np.all(prod == f1 * f2)


def test_sep_wavefunction_vacuum_product():
    params = TwoModeParams.from_tau(0.0, 0.0)
    pt = PhasePoint(0, 0, 0, 0)
    x = np.array([0.4, -1.2])
    ref = np.pi**-0.5 * np.exp(-(x[0] ** 2 + x[1] ** 2) / 2)
    assert_allclose(sep_wavefunction(pt, params, x), ref, rtol=1e-14)


def test_sep_wavefunction_normalised():
    params = TwoModeParams.from_tau(0.3, 0.6j)
    pt = PhasePoint(0.5, -0.3, 0.2, 0.7)
    r1 = legendre_box_rule(pt.q1 - 12, pt.q1 + 12, 70, 4)
    r2 = legendre_box_rule(pt.q2 - 12, pt.q2 + 12, 70, 4)
    x1, x2 = np.meshgrid(r1.nodes, r2.nodes, indexing="ij")
    grid = np.stack([x1, x2], axis=-1)
    dens = np.abs(sep_wavefunction(pt, params, grid)) ** 2
    w = r1.weights[:, None] * r2.weights[None, :]
    assert_allclose(np.sum(w * dens), 1.0, atol=1e-9)


def test_portrait_constant_and_affine():
    params = TwoModeParams.from_tau(0.4 + 0.3j, -0.5j, lam1=0.7, lam2=1.3, hbar=1.1)
    pt = PhasePoint(0.9, -1.4, 0.0, 0.0)
    assert_allclose(portrait_hq(lambda q1, q2: 1.0 + 0 * q1, pt, params), 1.0, rtol=1e-13)
    assert_allclose(portrait_hq(lambda q1, q2: q1, pt, params), pt.q1, atol=1e-13)
    affine = lambda q1, q2: 2.0 - 0.7 * q1 + 1.9 * q2
    assert_allclose(portrait_hq(affine, pt, params), affine(pt.q1, pt.q2), rtol=1e-12)


def test_portrait_quadratic_moment():
    params = TwoModeParams.from_tau(0.25 - 0.6j, 0.1, lam1=0.8, lam2=1.0)
    pt = PhasePoint(1.2, 0.3, 0, 0)
    mode1 = params.mode1
    expected = pt.q1**2 + mode1.lam**2 * mode1.widths().delta_p_sq
    assert_allclose(portrait_hq(lambda q1, q2: q1**2, pt, params), expected, rtol=1e-12)


def test_portrait_indicator_matches_erfc():
    # smoothing an indicator is a difference of Gaussian tail integrals
    params = TwoModeParams.from_tau(0.9, 0.9, lam1=0.5, lam2=0.5)
    a1, b1, a2, b2 = -1 / 1.5, 1 / 1.5, -1.0, 1.0
    chi = Field(
        lambda q1, q2: 1.0 * (np.abs(q1) < b1) * (np.abs(q2) < b2),
        support=((a1, b1), (a2, b2)),
    )
    for q1, q2 in [(0.0, 0.0), (0.5, -0.8), (1.2, 0.4), (4.0, 0.0)]:
        pt = PhasePoint(q1, q2, 0, 0)
        got = portrait_hq(chi, pt, params)
        ref = 1.0
        for q, a, b, j in ((q1, a1, b1, 1), (q2, a2, b2, 2)):
            mode = params.mode(j)
            s = mode.lam * np.sqrt(mode.widths().delta_p_sq)
            ref *= 0.5 * (erfc_real((q - b) / (np.sqrt(2) * s)) - erfc_real((q - a) / (np.sqrt(2) * s)))
        assert_allclose(got, ref, atol=1e-12)


def test_portrait_far_from_support_is_zero():
    chi = Field(lambda q1, q2: 1.0 + 0 * q1, support=((-1, 1), (-1, 1)))
    params = TwoModeParams.from_tau(0.0, 0.0)
    assert portrait_hq(chi, PhasePoint(30.0, 0, 0, 0), params) == 0.0


def test_portrait_p_identity_field():
    params = TwoModeParams.from_tau(0.4 + 0.3j, -0.2 + 0.5j)
    pt = PhasePoint(0.3, -0.8, 1.7, -2.2)
    one = lambda q1, q2: 1.0 + 0 * q1
    assert_allclose(portrait_p_h(1, one, pt, params), pt.p1, atol=1e-12)
    assert_allclose(portrait_p_h(2, one, pt, params), pt.p2, atol=1e-12)


def test_portrait_p_real_tau_factorises():
    params = TwoModeParams.from_tau(0.6, -0.4)  # gamma = 0 both modes
    pt = PhasePoint(0.2, 0.9, 1.3, -0.5)
    h = lambda q1, q2: np.exp(-((q1 - 0.3) ** 2) - 0.5 * q2**2)
    assert portrait_p_h(1, h, pt, params) == pt.p1 * portrait_hq(h, pt, params)


def test_portrait_p_oracle_imaginary_tau():
    params = TwoModeParams.from_tau(0.5j, 0.2)
    pt = PhasePoint(0.4, -0.3, 0.7, -1.0)
    h = lambda q1, q2: q1
    closed = portrait_p_h(1, h, pt, params)
    num = brute_portrait(h, pt, params, pfactors=(lambda p: p, None))
    assert_allclose(closed, num, atol=1e-9)


def test_portrait_p2_identity_field_real_tau():
    params = TwoModeParams.from_tau(0.5, -0.3, lam1=0.9, lam2=1.4, hbar=1.2)
    pt = PhasePoint(0.0, 0.0, 1.1, -0.6)
    one = lambda q1, q2: 1.0 + 0 * q1
    for j in (1, 2):
        mode = params.mode(j)
        expected = pt.p(j) ** 2 + params.hbar**2 / (mode.widths().delta_p_sq * mode.lam**2)
        assert_allclose(portrait_p2_h(j, one, pt, params), expected, rtol=1e-12)


def test_portrait_p2_coherent_limit():
    params = TwoModeParams.from_tau(0.0, 0.0)
    pt = PhasePoint(0, 0, 0.8, 0)
    one = lambda q1, q2: 1.0 + 0 * q1
    assert_allclose(portrait_p2_h(1, one, pt, params), 0.8**2 + 1.0, rtol=1e-13)


def test_portrait_p2_mass_profile_oracle():
    # indicator-times-polynomial mass field at the trajectory-figure parameters
    params = TwoModeParams.from_tau(0.9, 0.9, lam1=0.5, lam2=0.5)
    m0, lam_cap1, lam_cap2 = 5.0, 1.5, 1.0
    sup = ((-1 / lam_cap1, 1 / lam_cap1), (-1 / lam_cap2, 1 / lam_cap2))
    mass = Field(
        lambda q1, q2: (1 - lam_cap1**2 * q1**2)
        * (np.abs(q1) < 1 / lam_cap1)
        * (np.abs(q2) < 1 / lam_cap2)
        / m0,
        support=sup,
    )
    pt = PhasePoint(0.2, -0.4, 1.0, 0.5)
    closed = portrait_p2_h(1, mass, pt, params)
    num = brute_portrait(mass.func, pt, params, pfactors=(lambda p: p**2, None), clip=sup)
    assert_allclose(closed, num, atol=1e-9)


def test_portraits_oracle_25_random_draws():
    rng = np.random.default_rng(314)
    for _ in range(25):
        tau1 = rng.uniform(0, 0.7) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        tau2 = rng.uniform(0, 0.7) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        params = TwoModeParams.from_tau(
            tau1, tau2, lam1=rng.uniform(0.7, 1.3), lam2=rng.uniform(0.7, 1.3)
        )
        pt = PhasePoint(*rng.uniform(-1, 1, 4))
        a, b = rng.uniform(0.3, 0.9, 2)
        c1, c2 = rng.uniform(-0.5, 0.5, 2)
        h = lambda q1, q2: np.exp(-a * (q1 - c1) ** 2 - b * (q2 - c2) ** 2)
        j = int(rng.integers(1, 3))
        pk = lambda k: ((lambda p: p**k, None) if j == 1 else (None, lambda p: p**k))
        assert_allclose(portrait_hq(h, pt, params), brute_portrait(h, pt, params), atol=1e-9)
        assert_allclose(portrait_p_h(j, h, pt, params), brute_portrait(h, pt, params, pfactors=pk(1)), atol=1e-9)
        assert_allclose(portrait_p2_h(j, h, pt, params), brute_portrait(h, pt, params, pfactors=pk(2)), atol=1e-9)


def test_generating_function_route():
    # moments of p' via source-term derivatives reproduce the gamma groups
    params = TwoModeParams.from_tau(0.45j, 0.3 - 0.3j, lam1=0.9, lam2=1.1, hbar=1.2)
    pt = PhasePoint(0.3, -0.2, 0.6, -0.9)
    h = lambda q1, q2: np.exp(-0.5 * (q1 + 0.1) ** 2 - 0.8 * (q2 - 0.2) ** 2)

    def gen(s):
        return brute_portrait(h, pt, params, pfactors=(lambda p: np.exp(s * p), None))

    s = 0.05
    g = [gen(k * s) for k in (-2, -1, 0, 1, 2)]
    d1 = (8 * (g[3] - g[1]) - (g[4] - g[0])) / (12 * s)
    d2 = (-(g[4] + g[0]) + 16 * (g[3] + g[1]) - 30 * g[2]) / (12 * s**2)
    assert_allclose(portrait_p_h(1, h, pt, params), d1, atol=1e-5)
    assert_allclose(portrait_p2_h(1, h, pt, params), d2, atol=2e-4)


def test_kernel_identity_and_affine():
    params = TwoModeParams.from_tau(0.35 + 0.2j, -0.6, lam1=0.8, lam2=1.2)
    one = lambda q: 1.0 + 0 * q
    k = sep_kernel_hq(one, one, params)
    x = np.linspace(-2, 2, 5)
    assert_allclose(k.factor(x, x), np.ones(5), rtol=1e-13)
    k2 = sep_kernel_hq(lambda q: q, one, params)
    assert_allclose(k2.factor(x, x), x, atol=1e-13)


def test_kernel_indicator_coherent():
    params = TwoModeParams.from_tau(0.0, 0.0, lam1=0.9, lam2=1.0)
    chi = lambda q: 1.0 * (np.abs(q) < 1.0)
    k = sep_kernel_hq(chi, lambda q: 1.0 + 0 * q, params, support1=(-1.0, 1.0))
    std = params.mode1.lam / np.sqrt(2.0)  # kernel width, half the portrait variance
    x = np.array([-1.5, -0.3, 0.0, 0.8, 2.0])
    ref = 0.5 * (erfc_real((x - 1) / (np.sqrt(2) * std)) - erfc_real((x + 1) / (np.sqrt(2) * std)))
    assert_allclose(k.factor(x, np.zeros(5)), ref, atol=1e-12)


def test_kernel_matches_1d_quadrature():
    params = TwoModeParams.from_tau(0.4 - 0.35j, 0.1, lam1=1.1, lam2=0.9)
    h = lambda q: np.exp(-0.6 * (q - 0.4) ** 2)
    k = sep_kernel_hq(h, lambda q: 1.0 + 0 * q, params)
    mode = params.mode1
    var = mode.lam**2 / (2 * mode.widths().sigma_q_sq.real)
    for x in (-0.7, 0.0, 1.3):
        rule = legendre_box_rule(x - 12 * np.sqrt(var), x + 12 * np.sqrt(var), 80, 4)
        ref = np.sum(
            rule.weights
            * h(rule.nodes)
            * np.exp(-((rule.nodes - x) ** 2) / (2 * var))
            / np.sqrt(2 * np.pi * var)
        )
        assert_allclose(k.factor(np.array(x), np.array(0.0)), ref, atol=1e-10)


def test_diagonal_kernel_apply():
    k = DiagonalKernel(lambda x1, x2: x1 + x2)
    psi = lambda x1, x2: np.exp(-(x1**2) - x2**2)
    out = k.apply(psi)
    assert out(1.0, 2.0) == 3.0 * psi(1.0, 2.0)
