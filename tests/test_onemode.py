"""One-mode state checks.

Ground truth for coefficients and wavefunctions is the truncated-operator
matrix-exponential construction (squeeze applied after displacement to the
vacuum); closed forms must match it including phase.  Decimal literals come
from a 50-digit reference run.
"""

import itertools
from math import factorial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sqzq.errors import DegenerateSqueezing
from sqzq.numerics import (
    TruncatedOperator,
    hermite_phys,
    legendre_box_rule,
)
from sqzq.onemode import (
    OneModePhasePoint,
    SqueezeParameter,
    alpha_from_qp,
    fock_coefficients,
    holomorphic_orthogonality_check,
    overlap_sq,
    _vacuum_precision,
    wavefunction,
)
from sqzq.quantmap import quantise

from .oracles import matrix_exp

SQRT_3 = 1.732050807568877293527

# e^{-0.045} 0.3^n / sqrt(n!) for n = 0..10, mpmath mp.dps=50
GLAUBER_03 = [
    0.9559974818330999070139,
    0.2867992445499299721042,
    0.06083930719813033962625,
    0.01053767711644526640598,
    0.001580651567466789960897,
    0.0002120666612158402445748,
    0.00002597275557172379457094,
    0.000002945033661679216270083,
    3.123679909494033615307e-7,
    3.123679909494033615307e-8,
    2.963382958592930262454e-9,
]


def expm_state(alpha, param, dim=60):
    """Fock vector of the squeeze-after-displace construction, with the
    squeeze label xi = (tau/|tau|) artanh|tau| of the family's tau."""
    am = TruncatedOperator.annihilation(dim).entries
    ad = am.conj().T
    t = abs(param.tau)
    xi = 0.0 if t == 0.0 else param.tau / t * np.arctanh(t)
    vac = np.zeros(dim)
    vac[0] = 1.0
    squeeze = matrix_exp(0.5 * (np.conj(xi) * am @ am - xi * ad @ ad))
    displace = matrix_exp(alpha * ad - np.conj(alpha) * am)
    return squeeze @ displace @ vac


def ho_eigenfunction(n, x, lam):
    return (
        hermite_phys(n, x / lam)
        * np.exp(-(x**2) / (2 * lam**2))
        / (np.pi**0.25 * np.sqrt(lam * 2.0**n * factorial(n)))
    )


@pytest.mark.parametrize("tau", [1.0, -1.0, 1.5, 0.6 + 0.8j, 1e308 + 1e308j, complex("nan")])
def test_tau_outside_the_unit_disc_is_refused(tau):
    with pytest.raises(ValueError):
        SqueezeParameter.from_tau(tau)


@pytest.mark.parametrize("scale", [1e-300, 1e200, 0.0, np.inf, np.nan])
def test_scale_without_a_finite_nonzero_square_is_refused(scale):
    with pytest.raises(ValueError):
        SqueezeParameter.from_tau(0.2, lam=scale)
    with pytest.raises(ValueError):
        SqueezeParameter.from_tau(0.2, hbar=scale)


@pytest.mark.parametrize(
    "lam,hbar,scale",
    [(1e-155, 1.0, r"1/\(2 lam\^2\) = inf"), (1e150, 1e-150, r"lam\^2/\(2 hbar\^2\) = inf"),
     (1e-150, 1e150, r"lam\^2/\(2 hbar\^2\) = 0;")],
)
def test_scales_whose_precision_leaves_the_float_range_are_refused(lam, hbar, scale):
    # each scale has a finite nonzero square, but the vacuum precision does not
    with pytest.raises(ValueError, match=scale):
        SqueezeParameter.from_tau(0.2, lam=lam, hbar=hbar)
    SqueezeParameter.from_tau(0.2, lam=1e100, hbar=1e-50)


def test_rim_guard_and_validation():
    with pytest.raises(DegenerateSqueezing):
        SqueezeParameter.from_tau(1.0 - 1e-9)
    with pytest.raises(ValueError):
        SqueezeParameter.from_tau(0.2, lam=-1.0)
    with pytest.raises(ValueError):
        OneModePhasePoint(np.inf, 0.0)


def test_alpha_from_qp_reference_points():
    coh = SqueezeParameter.from_tau(0.0)
    assert_allclose(
        alpha_from_qp(OneModePhasePoint(np.sqrt(2.0), 0.0), coh), 1.0, atol=1e-15
    )
    assert alpha_from_qp(OneModePhasePoint(0.0, 0.0), coh) == 0.0
    par = SqueezeParameter.from_tau(0.5)
    assert_allclose(
        alpha_from_qp(OneModePhasePoint(np.sqrt(2.0), 0.0), par), SQRT_3, rtol=1e-15
    )


def test_symplectic_determinant_on_tau_grid():
    from sqzq.onemode import _symplectic_matrix

    for r in np.linspace(0.0, 0.95, 12):
        for ph in np.linspace(0.0, 2 * np.pi, 9):
            m = _symplectic_matrix(r * np.exp(1j * ph))
            assert_allclose(np.linalg.det(m), 1.0, rtol=1e-12)


def test_widths_coherent_and_squeezed():
    w0 = SqueezeParameter.from_tau(0.0).widths()
    assert (w0.sigma_q_sq, w0.delta_q_sq, w0.delta_p_sq, w0.gamma) == (1, 1, 1, 0)
    w9 = SqueezeParameter.from_tau(0.9).widths()
    assert_allclose(w9.sigma_q_sq.real, 19.0, rtol=1e-13)
    assert_allclose(w9.delta_p_sq, 1.0 / 19.0, rtol=1e-13)


def test_width_identities():
    rng = np.random.default_rng(11)
    for _ in range(30):
        tau = rng.uniform(0, 0.93) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        w = SqueezeParameter.from_tau(tau).widths()
        assert w.sigma_q_sq.real > 0 and w.delta_p_sq > 0
        assert_allclose(w.delta_q_sq * w.delta_p_sq, 1 + 4 * w.gamma**2, rtol=1e-12)
    # for real tau the position overlap width collapses to |sigma_q_sq|
    for tau in (-0.7, -0.2, 0.4, 0.85):
        w = SqueezeParameter.from_tau(tau).widths()
        assert_allclose(w.delta_q_sq, abs(w.sigma_q_sq), rtol=1e-13)


def test_wavefunction_vacuum():
    par = SqueezeParameter.from_tau(0.0, lam=0.9)
    x = np.linspace(-3, 3, 13)
    ref = np.pi**-0.25 * 0.9**-0.5 * np.exp(-(x**2) / (2 * 0.81))
    assert_allclose(wavefunction(OneModePhasePoint(0, 0), par, x), ref, rtol=1e-14)


def test_wavefunction_normalisation_and_moments():
    par = SqueezeParameter.from_tau(0.35 + 0.45j, lam=0.8, hbar=1.3)
    pt = OneModePhasePoint(0.7, -1.1)
    x, w = legendre_box_rule(pt.q - 14, pt.q + 14, 60, 8)
    dens = np.abs(wavefunction(pt, par, x)) ** 2
    norm = np.sum(w * dens)
    assert_allclose(norm, 1.0, atol=1e-10)
    mean = np.sum(w * x * dens)
    assert_allclose(mean, pt.q, atol=1e-10)
    var = np.sum(w * (x - pt.q) ** 2 * dens)
    assert_allclose(var, par.lam**2 / (2 * par.widths().sigma_q_sq.real), rtol=1e-10)


def test_wavefunction_squeezes_near_rim():
    # real tau -> 0.9 shrinks the position variance by 1/19
    narrow = SqueezeParameter.from_tau(0.9)
    wide = SqueezeParameter.from_tau(0.0)
    assert narrow.widths().sigma_q_sq.real == pytest.approx(19.0)
    x = np.linspace(-2, 2, 401)
    pn = np.abs(wavefunction(OneModePhasePoint(0, 0), narrow, x)) ** 2
    pw = np.abs(wavefunction(OneModePhasePoint(0, 0), wide, x)) ** 2
    assert pn[200] > pw[200]  # taller peak
    assert pn[350] < pw[350]  # thinner tail


def test_wavefunction_equals_fock_series():
    par = SqueezeParameter.from_tau(0.35 + 0.45j, lam=0.8, hbar=1.3)
    pt = OneModePhasePoint(0.7, -1.1)
    x = np.linspace(-4, 4, 9)
    c = fock_coefficients(alpha_from_qp(pt, par), par, 80)
    series = sum(c[n] * ho_eigenfunction(n, x, par.lam) for n in range(81))
    assert_allclose(series, wavefunction(pt, par, x), atol=1e-9)


def test_wavefunction_matches_operator_construction():
    # project the matrix-exponential state onto position; phases must agree
    par = SqueezeParameter.from_tau(-0.3 + 0.25j)
    pt = OneModePhasePoint(0.5, 0.8)
    vec = expm_state(alpha_from_qp(pt, par), par)
    x = np.linspace(-3, 3, 7)
    proj = sum(vec[n] * ho_eigenfunction(n, x, 1.0) for n in range(len(vec)))
    assert_allclose(proj, wavefunction(pt, par, x), atol=1e-10)


def test_fock_coefficients_vacuum_and_parity():
    par = SqueezeParameter.from_tau(0.0)
    assert_allclose(fock_coefficients(0.0, par, 4), [1, 0, 0, 0, 0], atol=0)
    c = fock_coefficients(0.0, SqueezeParameter.from_tau(0.5), 11)
    assert np.all(c[1::2] == 0)
    assert abs(c[2]) > 0


def test_fock_coefficients_coherent_limit_exact():
    par = SqueezeParameter.from_tau(0.0)
    c = fock_coefficients(0.3, par, 10)
    assert np.all(c.imag == 0)
    assert_allclose(c.real, GLAUBER_03, rtol=1e-14)


@pytest.mark.parametrize(
    "alpha,tau",
    [(0.5, 0.3), (0.4 + 0.3j, 0.2 - 0.5j), (-1.1 + 0.2j, 0.6j)],
)
def test_fock_coefficients_match_expm_oracle(alpha, tau):
    par = SqueezeParameter.from_tau(tau)
    ref = expm_state(alpha, par)[:21]
    assert_allclose(fock_coefficients(alpha, par, 20), ref, atol=1e-8)


def test_fock_norm_converges():
    par = SqueezeParameter.from_tau(0.55 - 0.2j)
    c = fock_coefficients(1.2 + 0.4j, par, 120)
    assert_allclose(np.sum(np.abs(c) ** 2), 1.0, atol=1e-10)


def test_overlap_coincident_is_one():
    par = SqueezeParameter.from_tau(0.4 + 0.1j, lam=0.7, hbar=2.0)
    pt = OneModePhasePoint(1.3, -0.2)
    assert overlap_sq(pt, pt, par) == 1.0


def test_overlap_coherent_limit():
    par = SqueezeParameter.from_tau(0.0, lam=0.9, hbar=1.1)
    a = OneModePhasePoint(0.6, -0.4)
    b = OneModePhasePoint(-0.3, 0.5)
    da = alpha_from_qp(a, par) - alpha_from_qp(b, par)
    assert_allclose(overlap_sq(a, b, par), np.exp(-abs(da) ** 2), rtol=1e-12)


def _overlap_by_quadrature(a, b, par):
    centre = (a.q + b.q) / 2
    spread = abs(a.q - b.q) + 14 * par.lam
    x, w = legendre_box_rule(centre - spread, centre + spread, 80, 8)
    val = np.sum(w * np.conj(wavefunction(b, par, x)) * wavefunction(a, par, x))
    return abs(val) ** 2


def test_overlap_matches_quadrature_imaginary_tau():
    par = SqueezeParameter.from_tau(0.5j)
    a = OneModePhasePoint(0.8, 0.3)
    b = OneModePhasePoint(-0.4, -0.9)
    assert_allclose(overlap_sq(a, b, par), _overlap_by_quadrature(a, b, par), atol=1e-8)


def test_overlap_closed_form_fifty_random_draws():
    rng = np.random.default_rng(21)
    for _ in range(50):
        tau = rng.uniform(0, 0.85) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        par = SqueezeParameter.from_tau(tau, lam=rng.uniform(0.6, 1.5), hbar=rng.uniform(0.7, 1.4))
        a = OneModePhasePoint(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = OneModePhasePoint(rng.uniform(-1, 1), rng.uniform(-1, 1))
        closed = overlap_sq(a, b, par)
        assert_allclose(closed, _overlap_by_quadrature(a, b, par), atol=1e-8)


def test_schroedinger_robertson_saturation():
    par = SqueezeParameter.from_tau(0.3 + 0.4j, lam=0.9, hbar=1.2)
    pt = OneModePhasePoint(0.4, -0.7)
    x, w = legendre_box_rule(pt.q - 12, pt.q + 12, 90, 8)
    h = 1e-3

    def psi(z):
        return wavefunction(pt, par, z)

    dpsi = (8 * (psi(x + h) - psi(x - h)) - (psi(x + 2 * h) - psi(x - 2 * h))) / (12 * h)
    f = psi(x)
    dens = np.abs(f) ** 2
    hbar = par.hbar
    mx = np.sum(w * x * dens)
    var_x = np.sum(w * (x - mx) ** 2 * dens)
    mp = np.real(np.sum(w * np.conj(f) * (-1j * hbar) * dpsi))
    mp2 = hbar**2 * np.sum(w * np.abs(dpsi) ** 2)
    sym = np.real(np.sum(w * np.conj(f) * x * (-1j * hbar) * dpsi))
    covar = sym - mx * mp
    sr = var_x * (mp2 - mp**2) - covar**2
    assert_allclose(sr, hbar**2 / 4, rtol=1e-8)
    assert_allclose(mp, pt.p, atol=1e-9)


def _identity_deviation(par, nmax):
    op = quantise(lambda q, p: np.ones_like(q), par, nmax)
    return op.quadrature_report.identity_deviation


def test_identity_resolution_coherent():
    assert _identity_deviation(SqueezeParameter.from_tau(0.0), 8) < 1e-6


def test_identity_resolution_squeezed():
    assert _identity_deviation(SqueezeParameter.from_tau(0.5), 8) < 1e-4


def test_identity_resolution_cartesian_rule():
    # an oracle independent of the engine: the label-plane integral
    # (1/pi) int c_n conj(c_m) d^2 alpha of the closed-form coefficients on a
    # Gauss-Legendre box
    par = SqueezeParameter.from_tau(0.3)
    x, w1 = legendre_box_rule(-9.0, 9.0, 70, 2)
    re, im = np.meshgrid(x, x, indexing="ij")
    w = np.outer(w1, w1).ravel()
    c = np.array([fock_coefficients(a, par, 5) for a in (re + 1j * im).ravel()])
    plane = (c * w[:, None]).T @ c.conj() / np.pi
    assert np.max(np.abs(plane - np.eye(6))) < 1e-6
    engine = quantise(lambda q, p: np.ones_like(q), par, 5).matrix.entries
    assert np.max(np.abs(engine - plane)) < 1e-6


def test_vacuum_precision_matches_fock_vacuum():
    # complex tau, lam != 1 and hbar != 1 so every entry of the closed form
    # is exercised
    par = SqueezeParameter.from_tau(0.5 * np.exp(0.9j), lam=1.3, hbar=0.7)
    prec = _vacuum_precision(par)
    rng = np.random.default_rng(17)
    x = rng.normal(scale=2.0, size=(50, 2))
    c0 = np.array([
        fock_coefficients(alpha_from_qp(OneModePhasePoint(q, p), par), par, 0)[0] for q, p in x
    ])
    origin = fock_coefficients(0.0, par, 0)[0]
    minus_log = -np.log(np.abs(c0 / origin) ** 2)
    quad = np.einsum("ni,ij,nj->n", x, prec, x)
    assert np.max(np.abs(quad - minus_log)) < 1e-12


def test_vacuum_precision_is_symmetric_bit_for_bit():
    # |tau| 0..0.9 x 12 phases x 5 lam x 3 hbar: d_i form_ij d_j rounds
    # differently above and below the diagonal in 549 of these 1 800
    # families, unless one entry mirrors the other
    for r, phase, lam, hbar in itertools.product(
        np.linspace(0.0, 0.9, 10), np.arange(12) * np.pi / 6, (0.3, 0.8, 1.0, 1.15, 2.7), (0.4, 1.0, 1.9)
    ):
        prec = _vacuum_precision(SqueezeParameter.from_tau(r * np.exp(1j * phase), lam=lam, hbar=hbar))
        assert prec[0, 1] == prec[1, 0], (r, phase, lam, hbar)


def test_holomorphic_orthogonality_diagonal():
    par = SqueezeParameter.from_tau(0.5)
    lhs, rhs = holomorphic_orthogonality_check(par, 3, 3)
    assert_allclose(lhs.real / rhs, 1.0, rtol=1e-6)
    assert abs(lhs.imag) < 1e-10 * rhs


def test_holomorphic_orthogonality_off_diagonal():
    par = SqueezeParameter.from_tau(0.5)
    lhs, rhs = holomorphic_orthogonality_check(par, 2, 4)
    assert rhs == 0.0
    diag, _ = holomorphic_orthogonality_check(par, 4, 4)
    assert abs(lhs) < 1e-10 * abs(diag)


def test_holomorphic_orthogonality_rejects_zero_tau():
    with pytest.raises(ValueError):
        holomorphic_orthogonality_check(SqueezeParameter.from_tau(0.0), 2, 2)
