"""Mode-mixed two-mode state checks.

The coefficient algebra is pinned by exact reference values at one draw and
by structural limits (no mixing, equal squeezing, vanishing squeezing); the
wavefunction is checked against its own gradient PDE by high-order finite
differences and against honest 2D quadrature for the norm.  Overlap and
portrait closed forms are compared with direct Gaussian integration that
never touches the momentum-reduction algebra under test, and the
quantisation engine is exercised end to end (identity resolution, linear
and quadratic position fields, ladder-mixing residual of the projected
unitary).
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import ndtr

from sqzq.errors import ConfigError, TruncationTooSmall
from sqzq.nonsepstates import (
    NonSepParams,
    _portrait_precision,
    _rotated_frame,
    bogoliubov_check,
    fock_coefficients,
    nonsep_box_portrait,
    nonsep_coefficients,
    nonsep_overlap_closed,
    nonsep_overlap_sq,
    nonsep_portrait_hq,
    nonsep_wavefunction,
    table1_coefficient_rows,
    table1_operators,
)
from sqzq.nonsepstates import _fock_batch, _two_mode_positions
from sqzq.numerics import TruncatedOperator, legendre_box_rule
from sqzq.onemode import OneModePhasePoint, SqueezeParameter, _number_columns, overlap_sq, wavefunction
from sqzq.onemode import fock_coefficients as fock_coefficients_1m
from sqzq.sepstates import Field, PhasePoint, TwoModeParams, portrait_hq, sep_wavefunction

from .oracles import (
    beam_splitter_sector,
    displacement_elements,
    squeeze_elements,
    twomode_vacuum_precision,
)

REF = NonSepParams.from_tau(0.2, 0.6, np.pi / 4, 0.8, 1.15)


def _draw_params(rng, rmax=0.75):
    t1 = rng.uniform(0, rmax) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    t2 = rng.uniform(0, rmax) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return NonSepParams.from_tau(
        t1, t2, rng.uniform(0, 2 * np.pi),
        rng.uniform(0.6, 1.4), rng.uniform(0.6, 1.4), rng.uniform(0.7, 1.3),
    )


def _draw_point(rng, scale=1.5):
    return PhasePoint(*rng.uniform(-scale, scale, size=4))


# ---------------------------------------------------------------------------
# parameters and coefficients


def test_phi_range_is_validated():
    with pytest.raises(ConfigError):
        NonSepParams.from_tau(0.1, 0.2, -0.5)
    with pytest.raises(ConfigError):
        NonSepParams.from_tau(0.1, 0.2, 2 * np.pi)
    with pytest.raises(ConfigError):
        NonSepParams.from_tau(0.1, 0.2, np.nan)


def test_mode_properties_delegate():
    p = NonSepParams.from_tau(0.3j, -0.2, 1.0, lam1=0.8, lam2=1.2, hbar=0.9)
    assert p.tau1 == 0.3j and p.tau2 == -0.2
    assert (p.lam1, p.lam2, p.hbar) == (0.8, 1.2, 0.9)
    assert isinstance(p.modes, TwoModeParams)


def test_quadratic_coefficients_reference_draw():
    # independently hand-reduced at tau1=0.2, tau2=0.6, phi=pi/4
    co = nonsep_coefficients(REF, PhasePoint(0.3, -0.4, 0.7, 0.2))
    assert_allclose(co.Delta1, 1.375, rtol=1e-12)
    assert_allclose(co.Delta2, 1.375, rtol=1e-12)
    assert_allclose(co.ell, 1.25, rtol=1e-12)
    assert_allclose(co.Delta, 24.0, rtol=1e-12)


def test_quadratic_coefficients_no_mixing():
    # phi=0 reduces each Delta_j to the one-mode value (1+tau_j)/(2(1-tau_j))
    p = NonSepParams.from_tau(0.3, -0.25, 0.0)
    co = nonsep_coefficients(p, PhasePoint(0.0, 0.0, 0.0, 0.0))
    assert_allclose(co.Delta1, 1.3 / 1.4, rtol=1e-14)
    assert_allclose(co.Delta2, 0.75 / 2.5, rtol=1e-14)
    assert co.ell == 0.0


def test_quadratic_coefficients_vanishing_squeezing():
    co = nonsep_coefficients(
        NonSepParams.from_tau(0.0, 0.0, 1.1), PhasePoint(0.2, 0.1, -0.3, 0.4)
    )
    assert_allclose([co.Delta1, co.Delta2], [0.5, 0.5], rtol=1e-14)
    assert co.ell == 0.0
    assert_allclose(co.Delta, 4.0, rtol=1e-14)


def test_equal_squeezing_kills_cross_terms():
    p = NonSepParams.from_tau(0.4j, 0.4j, 0.9)
    co = nonsep_coefficients(p, PhasePoint(0.5, -0.2, 0.1, 0.3))
    assert abs(co.ell) < 1e-15
    for val in (co.theta12, co.Xi12, co.L12, co.L21):
        assert abs(val) < 1e-12


def test_real_squeezing_gives_real_coefficients():
    co = nonsep_coefficients(
        NonSepParams.from_tau(0.5, -0.3, 0.7), PhasePoint(0.1, 0.2, 0.3, 0.4)
    )
    assert co.Delta1.imag == 0.0 and co.Delta2.imag == 0.0 and co.ell.imag == 0.0


@settings(max_examples=40, deadline=None)
@given(
    r1=st.floats(0.0, 0.8),
    r2=st.floats(0.0, 0.8),
    ph1=st.floats(0.0, 6.28),
    ph2=st.floats(0.0, 6.28),
    phi=st.floats(0.0, 6.28),
)
def test_overlap_form_determinant_identity(r1, r2, ph1, ph2, phi):
    # Xi1 Xi2 - Xi12^2/4 collapses to Delta itself, and Delta stays positive
    p = NonSepParams.from_tau(r1 * np.exp(1j * ph1), r2 * np.exp(1j * ph2), phi)
    co = nonsep_coefficients(p, PhasePoint(0.0, 0.0, 0.0, 0.0))
    assert co.Delta > 0.0
    assert_allclose(co.Xi1 * co.Xi2 - co.Xi12**2 / 4.0, co.Delta, rtol=1e-9)


def test_linear_coefficients_follow_phase_point():
    rng = np.random.default_rng(3)
    for _ in range(6):
        p = _draw_params(rng)
        pt = _draw_point(rng)
        co = nonsep_coefficients(p, pt)
        q11 = 2.0 * co.Delta1 / p.lam1**2
        q22 = 2.0 * co.Delta2 / p.lam2**2
        q12 = co.ell / (p.lam1 * p.lam2)
        v1 = q11 * pt.q1 + q12 * pt.q2 + 1j * pt.p1 / p.hbar
        v2 = q12 * pt.q1 + q22 * pt.q2 + 1j * pt.p2 / p.hbar
        assert_allclose(co.ell1, p.lam1 * v1, rtol=1e-12, atol=1e-12)
        assert_allclose(co.ell2, p.lam2 * v2, rtol=1e-12, atol=1e-12)


def test_portrait_kernel_coefficients_match_quadratic_form():
    rng = np.random.default_rng(11)
    for _ in range(6):
        p = _draw_params(rng)
        co = nonsep_coefficients(p, PhasePoint(0.0, 0.0, 0.0, 0.0))
        assert_allclose(co.C1, -co.Delta * co.Delta1.real, rtol=1e-12)
        assert_allclose(co.C2, -co.Delta * co.Delta2.real, rtol=1e-12)
        assert_allclose(co.C12, -co.Delta * co.ell.real, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# wavefunction


def test_wavefunction_is_normalised():
    p = NonSepParams.from_tau(0.4, 0.7j, np.pi / 6, 1.1, 0.9, hbar=0.8)
    pt = PhasePoint(0.5, -0.3, 0.4, -0.6)
    n1, w1 = legendre_box_rule(-10.0, 10.0, 120, 3)
    x = np.stack(np.meshgrid(n1, n1, indexing="ij"), axis=-1)
    psi = nonsep_wavefunction(p, pt, x)
    w = w1[:, None] * w1[None, :]
    assert_allclose(np.sum(w * np.abs(psi) ** 2), 1.0, atol=1e-9)


def test_wavefunction_gradient_pde():
    # grad psi = (v - Q x) psi with Q, v rebuilt from the public coefficients;
    # 8th-order central differences, interior points only
    rng = np.random.default_rng(5)
    stencil = np.array([4 / 5, -1 / 5, 4 / 105, -1 / 280])
    h = 0.03
    for _ in range(4):
        p = _draw_params(rng, rmax=0.6)
        pt = _draw_point(rng, scale=1.0)
        co = nonsep_coefficients(p, pt)
        q = np.array(
            [
                [2.0 * co.Delta1 / p.lam1**2, co.ell / (p.lam1 * p.lam2)],
                [co.ell / (p.lam1 * p.lam2), 2.0 * co.Delta2 / p.lam2**2],
            ]
        )
        v = np.array([co.ell1 / p.lam1, co.ell2 / p.lam2])
        x0 = np.array([pt.q1, pt.q2]) + rng.uniform(-0.5, 0.5, size=2)
        for axis in range(2):
            steps = np.arange(1, 5)
            offs = np.zeros((8, 2))
            offs[:4, axis] = steps * h
            offs[4:, axis] = -steps * h
            vals = nonsep_wavefunction(p, pt, x0 + offs)
            deriv = np.sum(stencil * (vals[:4] - vals[4:])) / h
            psi0 = nonsep_wavefunction(p, pt, x0)
            rhs = (v[axis] - q[axis, 0] * x0[0] - q[axis, 1] * x0[1]) * psi0
            assert abs(deriv - rhs) < 1e-8 * max(1.0, abs(psi0))


def test_no_mixing_factorises_to_separable():
    p = NonSepParams.from_tau(0.3, -0.25 + 0.1j, 0.0, 1.2, 0.7, hbar=1.3)
    tm = TwoModeParams.from_tau(0.3, -0.25 + 0.1j, 1.2, 0.7, 1.3)
    pt = PhasePoint(0.4, 0.9, -0.2, 0.5)
    x = np.random.default_rng(0).normal(size=(60, 2)) * 1.5
    assert_allclose(
        nonsep_wavefunction(p, pt, x), sep_wavefunction(pt, tm, x), atol=1e-10
    )


def test_vanishing_squeezing_gives_coherent_product():
    # the mixer acts after the squeezers and before the displacements, so it
    # drops out entirely on the two-mode vacuum
    p = NonSepParams.from_tau(0.0, 0.0, 1.3, 0.9, 1.2, hbar=0.8)
    pt = PhasePoint(0.7, -0.4, 0.3, 0.6)
    m1 = SqueezeParameter.from_tau(0.0, lam=0.9, hbar=0.8)
    m2 = SqueezeParameter.from_tau(0.0, lam=1.2, hbar=0.8)
    xs = np.linspace(-4.0, 4.0, 41)
    x = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    want = wavefunction(OneModePhasePoint(pt.q1, pt.p1), m1, x[..., 0]) * wavefunction(
        OneModePhasePoint(pt.q2, pt.p2), m2, x[..., 1]
    )
    got = nonsep_wavefunction(p, pt, x)
    assert np.max(np.abs(got - want)) < 1e-8


def test_fock_coefficients_reconstruct_wavefunction():
    p = NonSepParams.from_tau(0.3 * np.exp(0.8j), 0.25, 0.7, 1.1, 0.85)
    pt = PhasePoint(0.6, -0.3, 0.4, 0.2)
    nmax = 40
    c = fock_coefficients(pt, p, nmax)
    xs = np.array([-1.3, -0.4, 0.0, 0.7, 1.6])
    # harmonic eigenfunctions phi_n(x; lam) via the stable ladder recurrence
    def eigenbasis(lam, x):
        u = x / lam
        rows = np.zeros((nmax + 1, x.size))
        rows[0] = np.exp(-0.5 * u**2) / (np.pi**0.25 * np.sqrt(lam))
        rows[1] = np.sqrt(2.0) * u * rows[0]
        for n in range(2, nmax + 1):
            rows[n] = np.sqrt(2.0 / n) * u * rows[n - 1] - np.sqrt((n - 1) / n) * rows[n - 2]
        return rows
    b1 = eigenbasis(p.lam1, xs)
    b2 = eigenbasis(p.lam2, xs)
    got = np.einsum("nm,ni,mj->ij", c, b1, b2)
    x = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    assert np.max(np.abs(got - nonsep_wavefunction(p, pt, x))) < 1e-10


def test_fock_coefficients_parseval():
    p = NonSepParams.from_tau(0.35, 0.3j, 1.9, 1.0, 1.0)
    c = fock_coefficients(PhasePoint(0.5, 0.2, -0.1, 0.4), p, 60)
    assert_allclose(np.sum(np.abs(c) ** 2), 1.0, atol=1e-10)


# ---------------------------------------------------------------------------
# overlap


def test_overlap_coincident_is_unity():
    rng = np.random.default_rng(17)
    for _ in range(5):
        p = _draw_params(rng)
        pt = _draw_point(rng)
        assert_allclose(nonsep_overlap_sq(pt, pt, p), 1.0, rtol=1e-12)
        assert_allclose(nonsep_overlap_closed(pt, pt, p), 1.0, rtol=1e-12)


def test_overlap_closed_form_matches_oracle():
    # 50 seeded draws; the oracle is the exact 2D Gaussian integral of the
    # two wavefunctions, the closed form the displacement-difference
    # quadratic form; they must agree without any correction factor
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(50):
        p = _draw_params(rng)
        a, b = _draw_point(rng), _draw_point(rng)
        oracle = nonsep_overlap_sq(a, b, p)
        assert 0.0 < oracle <= 1.0 + 1e-12
        worst = max(worst, abs(oracle - nonsep_overlap_closed(a, b, p)))
    assert worst < 1e-8


def test_overlap_no_mixing_factorises():
    p = NonSepParams.from_tau(0.45, -0.3, 0.0, 1.2, 0.8, hbar=1.1)
    a = PhasePoint(0.3, -0.5, 0.8, 0.1)
    b = PhasePoint(-0.4, 0.2, 0.3, -0.6)
    m1 = SqueezeParameter.from_tau(0.45, lam=1.2, hbar=1.1)
    m2 = SqueezeParameter.from_tau(-0.3, lam=0.8, hbar=1.1)
    want = overlap_sq(
        OneModePhasePoint(a.q1, a.p1), OneModePhasePoint(b.q1, b.p1), m1
    ) * overlap_sq(OneModePhasePoint(a.q2, a.p2), OneModePhasePoint(b.q2, b.p2), m2)
    assert_allclose(nonsep_overlap_sq(a, b, p), want, rtol=1e-10)
    assert_allclose(nonsep_overlap_closed(a, b, p), want, rtol=1e-10)


# ---------------------------------------------------------------------------
# coupled portrait


def test_portrait_constant_field_is_unity():
    assert_allclose(
        nonsep_portrait_hq(lambda q1, q2: np.ones_like(q1), PhasePoint(0.3, 0.4, 0, 0), REF),
        1.0,
        rtol=1e-12,
    )


def test_portrait_affine_field_is_exact():
    val = nonsep_portrait_hq(
        lambda q1, q2: 2.0 * q1 - 0.7 * q2 + 1.5, PhasePoint(0.3, 0.4, 0, 0), REF
    )
    assert_allclose(val, 2.0 * 0.3 - 0.7 * 0.4 + 1.5, rtol=1e-12)


def test_portrait_product_field_adds_cross_covariance():
    minv = np.linalg.inv(_portrait_precision(REF))
    val = nonsep_portrait_hq(lambda q1, q2: q1 * q2, PhasePoint(0.3, 0.4, 0, 0), REF)
    assert_allclose(val, 0.3 * 0.4 + minv[0, 1], rtol=1e-10)
    assert abs(minv[0, 1]) > 1e-3  # the mixing angle makes this genuinely 2D


def test_portrait_indicator_matches_brute_quadrature():
    chi = Field(
        lambda q1, q2: 1.0 * ((q1 >= 0) & (q1 <= 1) & (q2 >= 0) & (q2 <= 1)),
        growth="bounded",
        support=((0.0, 1.0), (0.0, 1.0)),
    )
    m = _portrait_precision(REF)
    pt = PhasePoint(0.3, 0.4, 0.0, 0.0)
    got = nonsep_portrait_hq(chi, pt, REF)
    u, wu = legendre_box_rule(0.0, 1.0, 160, 4)
    u1, u2 = np.meshgrid(u, u, indexing="ij")
    w = wu[:, None] * wu[None, :]
    d1, d2 = u1 - pt.q1, u2 - pt.q2
    kern = np.exp(
        -0.5 * (m[0, 0] * d1**2 + 2 * m[0, 1] * d1 * d2 + m[1, 1] * d2**2)
    ) * np.sqrt(np.linalg.det(m)) / (2.0 * np.pi)
    assert abs(got - float(np.sum(w * kern))) < 1e-6


def test_portrait_anisotropy_from_mixing():
    # second differences of the indicator portrait along the two diagonals
    # differ because the kernel is correlated; they coincide when phi=0
    chi = Field(
        lambda q1, q2: 1.0 * ((np.abs(q1) <= 1) & (np.abs(q2) <= 1)),
        growth="bounded",
        support=((-1.0, 1.0), (-1.0, 1.0)),
    )
    def second_diff(params, direction, eps=0.35):
        e = np.array(direction) / np.linalg.norm(direction)
        vals = [
            nonsep_portrait_hq(
                chi, PhasePoint(s * eps * e[0], s * eps * e[1], 0, 0), params
            )
            for s in (-1, 0, 1)
        ]
        return vals[0] - 2 * vals[1] + vals[2]
    split = second_diff(REF, (1, 1)) - second_diff(REF, (1, -1))
    assert abs(split) > 1e-4
    p0 = NonSepParams.from_tau(0.2, 0.6, 0.0, 0.8, 1.15)
    split0 = second_diff(p0, (1, 1)) - second_diff(p0, (1, -1))
    assert abs(split0) < 1e-12


def test_portrait_no_mixing_matches_separable():
    p0 = NonSepParams.from_tau(0.3, -0.2, 0.0, 1.2, 0.7)
    tm = TwoModeParams.from_tau(0.3, -0.2, 1.2, 0.7)
    h = Field(
        lambda q1, q2: np.cos(0.8 * q1) * np.exp(-0.1 * q2**2) + 0.2 * q1**2,
        growth="poly",
        degree=2,
    )
    pt = PhasePoint(0.5, -0.6, 0.1, 0.2)
    assert_allclose(nonsep_portrait_hq(h, pt, p0), portrait_hq(h, pt, tm), atol=1e-10)


def test_portrait_missed_support_is_zero():
    chi = Field(
        lambda q1, q2: np.ones_like(q1),
        growth="bounded",
        support=((50.0, 51.0), (0.0, 1.0)),
    )
    assert nonsep_portrait_hq(chi, PhasePoint(0, 0, 0, 0), REF) == 0.0


def _box_probability(centre, cov, box):
    """P(U in box), U ~ N(centre, cov), integrating over u2 with U1 | U2 normal.

    The opposite conditioning order to nonsep_box_portrait, on adaptive
    quadrature instead of a fixed rule.
    """
    (a1, b1), (a2, b2) = box
    c1, c2 = centre
    s2 = np.sqrt(cov[1, 1])
    slope = cov[0, 1] / cov[1, 1]
    sd = np.sqrt(cov[0, 0] - cov[0, 1] ** 2 / cov[1, 1])

    def integrand(u2):
        mu = c1 + slope * (u2 - c2)
        dens = np.exp(-0.5 * ((u2 - c2) / s2) ** 2) / (s2 * np.sqrt(2.0 * np.pi))
        return dens * (ndtr((b1 - mu) / sd) - ndtr((a1 - mu) / sd))

    lo, hi = max(a2, c2 - 12.0 * s2), min(b2, c2 + 12.0 * s2)
    if not hi > lo:
        return 0.0
    points = [c2] if lo < c2 < hi else None
    return quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200, points=points)[0]


def _fig6a_coupled():
    # fig6a squeezes both modes alike, which leaves the kernel separable at
    # any phi; tau2 = 0.3 correlates it (correlation about 0.77)
    return NonSepParams.from_tau(0.9, 0.3, 0.5, 0.5, 0.5)


def test_box_portrait_matches_conditional_normal_oracle():
    params = _fig6a_coupled()
    cov = np.linalg.inv(_portrait_precision(params))
    assert cov[0, 1] / np.sqrt(cov[0, 0] * cov[1, 1]) > 0.7
    box = ((-2.0 / 3.0, 2.0 / 3.0), (-1.0, 1.0))
    centres = np.array([
        [0.0, 0.0], [0.3, -0.5],                                 # inside
        [1.0, 0.0], [0.0, -1.4], [-1.2, 1.6], [0.9, -0.4],       # outside
        [0.66, 0.99], [-0.68, -1.01], [0.7, -0.97], [-0.6, 1.05],  # near corners
        [3.0, 0.0],                                              # kernel misses the box
    ])
    got = nonsep_box_portrait(box, centres, params)
    want = np.array([_box_probability(c, cov, box) for c in centres])
    assert np.max(np.abs(got - want)) < 1e-12
    assert got[-1] == 0.0


def test_box_portrait_complex_tau_without_mixing_matches_separable():
    tm = TwoModeParams.from_tau(0.3 + 0.4j, -0.2 + 0.5j, 1.2, 0.7)
    params = NonSepParams(tm, 0.0)
    box = ((-1.0, 0.5), (-0.4, 0.8))
    chi = Field(
        lambda q1, q2: 1.0 * ((q1 >= -1.0) & (q1 <= 0.5) & (q2 >= -0.4) & (q2 <= 0.8)),
        growth="bounded",
        support=box,
    )
    rng = np.random.default_rng(7)
    centres = rng.uniform(-1.8, 1.6, size=(30, 2))
    got = nonsep_box_portrait(box, centres, params)
    want = [portrait_hq(chi, PhasePoint(c[0], c[1], 0.0, 0.0), tm) for c in centres]
    assert_allclose(got, want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# ladder-mixing residual of the projected unitary


def test_bogoliubov_strong_squeezing_within_budget():
    p = NonSepParams.from_tau(
        np.tanh(0.7) * np.exp(0.9j), np.tanh(0.7) * np.exp(-0.5j), 1.3
    )
    t0 = time.time()
    res = bogoliubov_check(p, 12)
    assert time.time() - t0 < 10.0
    # the residual is 6.9e-15: each mode's columns climb from row 0 to the
    # rows the check reads, so no rows past the box enter them
    assert res < 1e-13


@pytest.mark.parametrize("tau1", [0.85 * np.exp(2j), 0.95 * np.exp(-0.4j)])
def test_bogoliubov_holds_at_strong_squeezing(tau1):
    # nmax 12 at dim 40: columns read off a product D @ S truncated 60 rows
    # past the box put 2.7e-9 and 2.5e-5 here; the climbed columns 5.7e-15
    # and 1.7e-15
    assert bogoliubov_check(NonSepParams.from_tau(tau1, 0.3, 1.3), 12) < 1e-13


def test_bogoliubov_no_mixing_single_mode_squeezing():
    p = NonSepParams.from_tau(np.tanh(0.5), 0.0, 0.0)
    assert bogoliubov_check(p, 10) < 1e-9


def test_bogoliubov_pure_swap():
    # phi = pi/2 with no squeezing turns the relations into a mode swap
    p = NonSepParams.from_tau(0.0, 0.0, np.pi / 2)
    assert bogoliubov_check(p, 10) < 1e-9


def test_bogoliubov_random_draw():
    rng = np.random.default_rng(31)
    p = _draw_params(rng, rmax=np.tanh(0.7))
    assert bogoliubov_check(p, 10) < 1e-6


def test_bogoliubov_truncation_guard():
    with pytest.raises(TruncationTooSmall):
        bogoliubov_check(REF, 21, dim=40)
    # the rows r_j < dim - 2 it reads need dim >= 3, whatever nmax
    with pytest.raises(TruncationTooSmall):
        bogoliubov_check(REF, 0, dim=2)


@pytest.mark.parametrize("phi", [0.9, 1.3, -2.0])
def test_displacement_moves_through_the_beam_splitter(phi):
    # D(alpha1) x D(alpha2) U = U D(beta), beta = R(phi) alpha, which lets
    # bogoliubov_check apply U last.  Dense exponentials of the generators on
    # a box of 24 quanta per mode, read on the rows and columns n_j < 6 that
    # its edge does not reach (at n_j < 8 it is 1.7e-14 off at phi = 0.9)
    a = TruncatedOperator.annihilation(24).entries
    one = np.eye(24)
    u = expm(phi * (np.kron(a.T, one) @ np.kron(one, a) - np.kron(a, one) @ np.kron(one, a.T)))

    def displace(b1, b2):
        return np.kron(*(expm(b * a.T - np.conj(b) * a) for b in (b1, b2)))

    alpha = 0.7 * np.exp(0.4j), 0.7 * np.exp(-1.8j)
    c, s = np.cos(phi), np.sin(phi)
    beta = c * alpha[0] - s * alpha[1], s * alpha[0] + c * alpha[1]
    inner = ((np.arange(24)[:, None] < 6) & (np.arange(24) < 6)).ravel()
    dev = np.abs(displace(*alpha) @ u - u @ displace(*beta))[np.ix_(inner, inner)]
    assert np.max(dev) < 1e-14


@pytest.mark.parametrize("nmax,tot,phi", [(64, 60, 1.15), (32, 30, 4.0)])
def test_beam_split_full_sector_against_40_digit_oracle(nmax, tot, phi):
    # the engine's block of U on a sector the basis n_j <= nmax holds whole
    # is the spin-tot/2 rotation, rows and columns |n1, tot - n1>.  At phi = 4
    # a Pade exponential of the N = 30 block is 1.7e-13 off
    rows, cols, block = _rotated_frame(NonSepParams.from_tau(0.0, 0.0, phi), nmax)[2][tot]
    n1 = np.arange(tot + 1)
    assert np.array_equal(rows, n1 * (nmax + 1) + tot - n1)
    assert np.array_equal(cols, n1 * (2 * nmax + 1) + tot - n1)
    assert np.max(np.abs(block - beam_splitter_sector(phi, tot))) < 1e-14


def _check_amplitudes(phi):
    """The amplitudes beta_1, beta_2 that ``bogoliubov_check`` displaces its
    modes by: its coherent labels rotated by the mixing angle."""
    a1, a2 = 0.7 * np.exp(0.4j), 0.7 * np.exp(-1.8j)
    return np.cos(phi) * a1 - np.sin(phi) * a2, np.sin(phi) * a1 + np.cos(phi) * a2


def _columns_at(beta, tau, rows, ncols):
    """``_number_columns`` of D(beta) S(tau): its label alpha = c beta + s conj(beta)."""
    c = 1.0 / np.sqrt(1.0 - abs(tau) ** 2)
    return _number_columns(c * beta + tau * c * np.conj(beta), tau, rows, ncols)


_VERIFY_TAUS = tuple(np.tanh(0.7) * np.exp(1j * ang) for ang in (0.4, -1.1))
_VERIFY_BETAS = _check_amplitudes(0.9)
_STRONG_BETA = _check_amplitudes(1.3)[0]


@pytest.mark.parametrize(
    "beta,tau,rows,ncols",
    [
        (_VERIFY_BETAS[0], _VERIFY_TAUS[0], 63, 6),
        (_VERIFY_BETAS[1], _VERIFY_TAUS[1], 63, 6),
        (_STRONG_BETA, 0.85 * np.exp(2j), 79, 14),
        (_STRONG_BETA, 0.95 * np.exp(-0.4j), 79, 14),
    ],
    ids=["verify-mode1", "verify-mode2", "nmax12-tau0.85", "nmax12-tau0.95"],
)
def test_number_columns_against_40_digit_oracle(beta, tau, rows, ncols):
    # the rows and columns of each mode's D(beta) S that bogoliubov_check
    # builds: verify's (nmax 4, dim 32) and nmax 12 at dim 40 with mode 1
    # strongly squeezed.  The oracle's product runs 60 rows past them; at 40
    # what D reaches from beyond is still 1.7e-7 at |tau| 0.95
    ambient = rows + 60
    want = displacement_elements(beta, ambient) @ squeeze_elements(tau, ncols, ambient)
    assert np.max(np.abs(_columns_at(beta, tau, rows, ncols) - want[:rows])) < 1e-14


@pytest.mark.parametrize("tau", [0.0, *_VERIFY_TAUS, 0.95 * np.exp(-0.4j)])
def test_number_columns_column_0_is_the_family_state(tau):
    alpha = 0.9 * np.exp(1.2j)
    got = _number_columns(alpha, tau, 40, 3)[:, 0]
    want = fock_coefficients_1m(alpha, SqueezeParameter.from_tau(tau), 39)
    assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps


def test_number_columns_rows_do_not_depend_on_the_row_count():
    # the rows only climb: a shorter build is the head of a longer one
    tau, alpha = 0.8 * np.exp(-2.1j), 1.1 * np.exp(0.3j)
    assert np.array_equal(_number_columns(alpha, tau, 25, 7), _number_columns(alpha, tau, 79, 7)[:25])


# ---------------------------------------------------------------------------
# quantisation engine


@pytest.fixture(scope="module")
def ref_table1():
    """The Table 1 operators of REF at nmax 6, one engine run each."""
    return table1_operators(REF, 6)


def test_identity_resolution_two_mode():
    # hbar != 1 so the measure power (2 pi hbar)^2 is actually discriminated
    p = NonSepParams.from_tau(0.4, 0.7j, np.pi / 6, 1.1, 0.9, hbar=0.8)
    assert table1_operators(p, 6)["q1"].report.identity_deviation < 1e-10


def test_vacuum_precision_matches_fock_vacuum():
    # the weight of the 4D definition in the test oracles; hbar != 1 and
    # complex tau so every block of the closed form is exercised
    p = NonSepParams.from_tau(0.5 * np.exp(0.9j), 0.3j, 0.7, 1.3, 0.6, hbar=0.7)
    prec = twomode_vacuum_precision(p)
    rng = np.random.default_rng(17)
    x = rng.normal(scale=2.0, size=(50, 4))
    c00 = _fock_batch(p, x, 0)[:, 0, 0]
    origin = _fock_batch(p, np.zeros((1, 4)), 0)[0, 0, 0]
    minus_log = -np.log(np.abs(c00 / origin) ** 2)
    quad = np.einsum("ni,ij,nj->n", x, prec, x)
    assert np.max(np.abs(quad - minus_log)) < 1e-12


def test_table1_identity_row(ref_table1):
    # the identity resolution on each field's own rules, over the full
    # matrix; it does not depend on the field, so the three runs, each with
    # its own report, read the same identity on the same orders
    reports = [ref_table1[f].report for f in ("q1", "q2", "q1q2")]
    assert reports[0].identity_deviation < 1e-10
    assert len({id(r) for r in reports}) == 3
    assert len({(r.identity_deviation, r.nodes) for r in reports}) == 1


def _interior_fit(op, nmax=6):
    """Least-squares row of a quantised field of REF over (x1, x2, 1)."""
    x1, x2, sel = _two_mode_positions(REF, nmax)
    basis = np.stack(
        [x1[sel].ravel(), x2[sel].ravel(), np.eye(len(x1))[sel].ravel()], axis=1
    )
    coef, *_ = np.linalg.lstsq(basis, op.entries[sel].real.ravel(), rcond=None)
    return coef


def test_table1_linear_fields_quantise_to_bare_positions(ref_table1):
    for f, want in (("q1", (1.0, 0.0, 0.0)), ("q2", (0.0, 1.0, 0.0))):
        coef = _interior_fit(ref_table1[f])
        assert np.max(np.abs(coef - np.array(want))) < 1e-10
        rival = table1_coefficient_rows(REF)[f]["rival"]
        # the mixing-dressed rival row is refuted by the quadrature, not
        # merely outside tolerance
        assert np.max(np.abs(coef[:2] - np.array(rival))) > 0.1


def test_table1_product_field_constant(ref_table1):
    op = ref_table1["q1q2"]
    rows = table1_coefficient_rows(REF)
    minv = np.linalg.inv(_portrait_precision(REF))
    assert_allclose(rows["q1q2"]["adopted"], minv[0, 1] / 2.0, rtol=1e-12)
    x1, x2, sel = _two_mode_positions(REF, 6)
    resid = op.entries[sel].real - (x1 @ x2)[sel]
    off = resid - rows["q1q2"]["adopted"] * np.eye(49)[sel]
    assert np.max(np.abs(off)) < 1e-10
    assert abs(rows["q1q2"]["adopted"] - rows["q1q2"]["rival"]) > 0.05


def _ladder_position(nmax, lam):
    """lam (a + a^dag) / sqrt 2 on n <= nmax, from the ladder elements alone."""
    off = lam * np.sqrt(np.arange(1.0, nmax + 1) / 2.0)
    return np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize("nmax", [2, 3, 4, 5, 6])
@pytest.mark.parametrize(
    "params",
    [REF, NonSepParams.from_tau(0.3 - 0.4j, -0.5 + 0.2j, 2.7, 0.7, 1.3, 0.8)],
    ids=["table1", "complex"],
)
def test_table1_operators_match_the_closed_forms_on_the_full_matrix(params, nmax):
    # the states are complete, so q1, q2 and q1 q2 quantise to the
    # truncations X1 x 1, 1 x X2 and X1 x X2 + c 1 on every entry, the
    # truncated boundary rows included; c is half the inverse kernel
    # precision's off-diagonal entry
    eye = np.eye(nmax + 1)
    x1 = np.kron(_ladder_position(nmax, params.lam1), eye)
    x2 = np.kron(eye, _ladder_position(nmax, params.lam2))
    c = np.linalg.inv(_portrait_precision(params))[0, 1] / 2.0
    closed = {"q1": x1, "q2": x2, "q1q2": x1 @ x2 + c * np.eye(len(x1))}
    ops = table1_operators(params, nmax)
    for f, want in closed.items():
        assert np.max(np.abs(ops[f].entries - want)) <= 1e-14, f


def test_table1_rejects_tiny_truncation():
    with pytest.raises(TruncationTooSmall):
        table1_operators(REF, 1)
