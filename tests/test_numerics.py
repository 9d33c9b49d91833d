"""Numerical foundation checks.

Reference values were frozen from a 50-digit mpmath run; they appear as
literals so the suite never trusts the code under test to generate its own
expectations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate as sint

from sqzq import numerics
from sqzq.errors import NonConvergent, QuadratureNotConverged, StepSizeUnderflow
from sqzq.numerics import (
    OdeProblem,
    QuadratureReport,
    TruncatedOperator,
    gauss_hermite_rule,
    gaussian_smooth,
    hermite_phys,
    integrate_gaussian_quadratic,
    legendre_box_rule,
    solve_ode,
    whitened_rule,
)

from .oracles import erfc_real, matrix_exp, momentum, quad_box

# mpmath mp.dps=50 references
ERFC_TABLE = [
    (0.0, 1.0),
    (0.5, 0.4795001221869534623173),
    (1.0, 0.1572992070502851306588),
    (2.0, 0.004677734981047265837931),
    (3.5, 7.430983723414127455237e-7),
    (5.0, 1.537459794428034850188e-12),
    (7.0, 4.183825607779414398614e-23),
    (8.5, 2.762324071333771446135e-33),
    (10.0, 2.088487583762544757001e-45),
    (-1.0, 1.842700792949714869341),
    (-4.0, 1.99999998458274209972),
]


@pytest.mark.parametrize("x,ref", ERFC_TABLE)
def test_erfc_against_high_precision(x, ref):
    assert_allclose(erfc_real(x), ref, rtol=1e-14)


def test_erfc_vectorised_and_reflection():
    x = np.linspace(-6.0, 6.0, 241)
    assert_allclose(erfc_real(-x), 2.0 - erfc_real(x), rtol=0, atol=1e-15)


def test_hermite_low_orders():
    z = np.array([0.3, -1.2, 2.0])
    assert_allclose(hermite_phys(0, z), np.ones(3))
    assert_allclose(hermite_phys(1, z), 2 * z)
    assert_allclose(hermite_phys(2, z), 4 * z**2 - 2)
    assert hermite_phys(3, 1.0) == pytest.approx(-4.0)  # 8 - 12


def test_hermite_complex_argument():
    z = 0.8 + 0.5j
    assert_allclose(hermite_phys(3, z), 8 * z**3 - 12 * z, rtol=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=14),
    re=st.floats(-3, 3),
    im=st.floats(-3, 3),
)
def test_hermite_recurrence_property(n, re, im):
    z = re + 1j * im
    lhs = hermite_phys(n + 1, z)
    rhs = 2 * z * hermite_phys(n, z) - 2 * n * hermite_phys(n - 1, z)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) / scale < 1e-12


def test_gauss_hermite_moments():
    # integral x^{2k} e^{-x^2} = sqrt(pi) (2k-1)!! / 2^k, exact up to degree 2n-1
    rule = gauss_hermite_rule(12)
    dfact = 1.0
    for k in range(0, 12):
        ref = np.sqrt(np.pi) * dfact / 2.0**k
        got = np.sum(rule.weights * rule.nodes ** (2 * k))
        assert_allclose(got, ref, rtol=1e-13)
        dfact *= 2 * k + 1
    # odd moments vanish by symmetry
    assert abs(np.sum(rule.weights * rule.nodes**7)) < 1e-14


def test_legendre_box_rule_polynomial_exactness():
    rule = legendre_box_rule(0.0, 1.0, order=2, panels=1)
    assert_allclose(rule.integrate(lambda x: x**3), 0.25, rtol=1e-15)
    comp = legendre_box_rule(-2.0, 3.0, order=5, panels=4)
    assert_allclose(comp.integrate(lambda x: x**4), (3.0**5 + 2.0**5) / 5.0, rtol=1e-14)


def test_quad_box_gaussian_2d():
    val = quad_box(lambda x, y: np.exp(-x * x - y * y), [(-8.5, 8.5)] * 2)
    assert_allclose(val, np.pi, rtol=1e-12)


def test_quad_box_gaussian_4d_chunked():
    val = quad_box(
        lambda a, b, c, d: np.exp(-a * a - b * b - c * c - d * d),
        [(-7.0, 7.0)] * 4,
        order=48,
        refine=False,
    )
    assert_allclose(val, np.pi**2, rtol=1e-12)


def test_quad_box_flags_nonconvergence():
    with pytest.raises(QuadratureNotConverged):
        quad_box(
            lambda x: (x > 0.3).astype(float),
            [(-1.0, 1.0)],
            order=8,
            rtol=1e-13,
            max_doublings=3,
        )


def test_gaussian_quadratic_closed_form_vs_quadrature():
    rng = np.random.default_rng(1234)
    for _ in range(100):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        re = q @ np.diag(rng.uniform(0.5, 3.0, 2)) @ q.T
        im = rng.uniform(-0.3, 0.3, (2, 2))
        im = (im + im.T) / 2
        a = re + 1j * im
        b = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
        closed = integrate_gaussian_quadratic(a, b, c=0.1)
        x0 = np.linalg.solve(re, b.real) / 2
        hw = np.sqrt(34.0 / np.linalg.eigvalsh(re).min())
        num = quad_box(
            lambda x, y: np.exp(
                -(a[0, 0] * x * x + 2 * a[0, 1] * x * y + a[1, 1] * y * y)
                + b[0] * x
                + b[1] * y
                + 0.1
            ),
            [(x0[0] - hw, x0[0] + hw), (x0[1] - hw, x0[1] + hw)],
            order=90,
            refine=False,
        )
        assert abs(closed - num) / abs(closed) < 1e-8


# a correlated kernel (correlation -0.55) for the gaussian_smooth checks
SMOOTH_PREC = np.array([[2.3, 0.9], [0.9, 1.2]])


def test_gaussian_smooth_free_matches_exact_moments():
    # E[x^T A x + b^T x + c] = c^T A c + tr(A S) + b^T c + c0 with S = P^-1
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 2))
    a = a + a.T
    b, c0 = rng.normal(size=2), rng.normal()
    centres = rng.uniform(-3.0, 3.0, size=(40, 2))
    got = gaussian_smooth(
        lambda x, y: a[0, 0] * x * x + 2 * a[0, 1] * x * y + a[1, 1] * y * y + b[0] * x + b[1] * y + c0,
        centres,
        SMOOTH_PREC,
    )
    want = (
        np.einsum("ni,ij,nj->n", centres, a, centres)
        + np.trace(a @ np.linalg.inv(SMOOTH_PREC))
        + centres @ b
        + c0
    )
    assert got.shape == (40,)
    assert_allclose(got, want, rtol=0, atol=1e-12)


def test_gaussian_smooth_free_1d_matches_the_closed_form():
    # E[cos U] = cos(c) exp(-var / 2) for U ~ N(c, var)
    var = 0.37
    x = np.linspace(-4.0, 4.0, 17)[:, None]
    got = gaussian_smooth(np.cos, x, [[1.0 / var]])
    assert_allclose(got, np.cos(x[:, 0]) * np.exp(-var / 2.0), rtol=0, atol=1e-14)


@pytest.mark.parametrize("prec", [[[1.0, 2.0], [2.0, 1.0]], [[-0.5]]], ids=["indefinite", "negative"])
def test_gaussian_smooth_free_refuses_a_precision_that_is_not_positive_definite(prec):
    # the rule is whitened_rule's, which refuses such a weight instead of
    # laying nodes at NaN
    with pytest.raises(NonConvergent):
        gaussian_smooth(lambda *u: np.ones_like(u[0]), np.zeros(len(prec)), prec)


def test_gaussian_smooth_support_matches_dblquad():
    (a1, b1), (a2, b2) = box = ((-1.0, 0.8), (-0.6, 1.2))
    det = np.linalg.det(SMOOTH_PREC)

    def field(x, y):
        return 1.0 + x * y

    def oracle(c):
        def dens(y, x):
            du = np.array([x - c[0], y - c[1]])
            return np.exp(-0.5 * du @ SMOOTH_PREC @ du) * np.sqrt(det) / (2 * np.pi) * field(x, y)

        val, _ = sint.dblquad(dens, a1, b1, a2, b2, epsabs=1e-14, epsrel=1e-13)
        return val

    sd = np.sqrt(np.diag(np.linalg.inv(SMOOTH_PREC)))
    inside = [(0.0, 0.3), (-0.5, 1.0)]
    corners = [(a1 - 0.1, a2 - 0.1), (b1 + 0.2, b2), (a1, b2 + 0.3), (b1 - 0.05, a2 + 0.05)]
    centres = np.array(inside + corners)
    got = gaussian_smooth(field, centres, SMOOTH_PREC, box)
    assert_allclose(got, [oracle(c) for c in centres], rtol=0, atol=1e-12)
    # windows reach 8.5 marginal sd: a centre 8.4 sd off the box still sees
    # it, and one whose window misses the box on either axis gives exactly 0
    reach = np.array([(b1 + 8.4 * sd[0], 0.0), (0.0, a2 - 8.4 * sd[1])])
    assert np.all(gaussian_smooth(field, reach, SMOOTH_PREC, box) > 0.0)
    beyond = np.array([(b1 + 8.6 * sd[0], 0.0), (0.0, a2 - 8.6 * sd[1]), (30.0, -30.0)])
    assert np.all(gaussian_smooth(field, beyond, SMOOTH_PREC, box) == 0.0)


def test_gaussian_smooth_support_1d_matches_erfc():
    var, (a, b) = 0.37, (-1.0, 0.5)
    x = np.linspace(-4.0, 4.0, 81).reshape(9, 9, 1)
    got = gaussian_smooth(lambda u: np.ones_like(u), x, [[1.0 / var]], [(a, b)])
    s = np.sqrt(2.0 * var)
    want = 0.5 * (erfc_real((a - x[..., 0]) / s) - erfc_real((b - x[..., 0]) / s))
    assert got.shape == (9, 9)
    assert_allclose(got, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_whitened_rule_integrates_gaussian_moments(d):
    # with Sigma = P^-1 / 2 the weight exp(-x^T P x) has mass pi^(d/2) / sqrt(det P),
    # second moments Sigma and fourth moments E[x_0^4] = 3 Sigma_00^2
    rng = np.random.default_rng(40 + d)
    a = rng.normal(size=(d, d))
    prec = a @ a.T + 0.5 * np.eye(d)
    pts, w = whitened_rule(prec, 3)
    assert pts.shape == (3**d, d) and w.shape == (3**d,)
    dens = w * np.exp(-np.einsum("ni,ij,nj->n", pts, prec, pts))
    mass = np.pi ** (d / 2) / np.sqrt(np.linalg.det(prec))
    sigma = np.linalg.inv(prec) / 2.0
    assert_allclose(dens.sum(), mass, rtol=1e-13)
    assert_allclose(np.einsum("n,ni,nj->ij", dens, pts, pts) / mass, sigma, rtol=0, atol=1e-13)
    assert_allclose(np.sum(dens * pts[:, 0] ** 4) / mass, 3.0 * sigma[0, 0] ** 2, rtol=1e-12)


def test_gaussian_smooth_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        gaussian_smooth(lambda x, y: x, np.zeros((3, 3)), SMOOTH_PREC)
    with pytest.raises(ValueError):
        gaussian_smooth(lambda x, y, z: x, np.zeros((2, 3)), np.eye(3))


def test_gaussian_quadratic_rejects_indefinite():
    with pytest.raises(NonConvergent):
        integrate_gaussian_quadratic(np.diag([1.0, -0.5]).astype(complex))


def test_truncated_operator_commutator():
    dim = 30
    a = TruncatedOperator.annihilation(dim)
    comm = a.entries @ a.adjoint().entries - a.adjoint().entries @ a.entries
    # exact identity except the corner entry, an artefact of the cutoff
    assert_allclose(comm[: dim - 1, : dim - 1], np.eye(dim - 1), atol=1e-14)
    assert comm[-1, -1] == pytest.approx(1 - dim)


def test_position_momentum_commutator():
    dim, lam, hbar = 36, 0.7, 1.3
    x = TruncatedOperator.position(dim, lam)
    p = momentum(dim, lam, hbar)
    comm = x.entries @ p.entries - p.entries @ x.entries
    k = dim // 2
    assert_allclose(comm[:k, :k], 1j * hbar * np.eye(k), atol=1e-13)


def test_matrix_exp_inverse_pair():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
    ident = matrix_exp(m) @ matrix_exp(-m)
    assert_allclose(ident, np.eye(25), atol=1e-9)


def test_matrix_exp_displacement_unitary_interior():
    dim = 40
    a = TruncatedOperator.annihilation(dim)
    alpha = 0.7 - 0.4j
    gen = TruncatedOperator(dim, alpha * a.adjoint().entries - np.conj(alpha) * a.entries)
    d = matrix_exp(gen)
    block = (d.adjoint() @ d).interior(20)
    assert_allclose(block, np.eye(20), atol=1e-9)


def _harmonic(t, y):
    return y[1], -y[0]


def test_solve_ode_harmonic_quarter_period():
    prob = OdeProblem(2, _harmonic, (0.0, np.pi / 2), np.array([0.0, 1.0]))
    sol = solve_ode(prob)
    assert sol.status == "finished"
    assert abs(sol.interpolant(np.pi / 2)[0] - 1.0) < 1e-8


def test_solve_ode_free_particle():
    prob = OdeProblem(2, lambda t, y: (y[1], 0.0), (0.0, 3.0), np.array([0.0, 2.0]))
    sol = solve_ode(prob)
    assert abs(sol.y[-1, 0] - 6.0) < 1e-10


def test_solve_ode_energy_drift_100_periods():
    prob = OdeProblem(2, _harmonic, (0.0, 200 * np.pi), np.array([1.0, 0.0]))
    sol = solve_ode(prob)
    energy = sol.y[:, 0] ** 2 + sol.y[:, 1] ** 2
    assert np.max(np.abs(energy - 1.0)) < 1e-6


def _square(t, y):
    return (y[0] * y[0],)


def test_solve_ode_blowup_raises():
    prob = OdeProblem(1, _square, (0.0, 2.0), np.array([1.0]))
    with pytest.raises(StepSizeUnderflow):
        solve_ode(prob)


def test_solve_ode_blowup_partial_solution():
    # y' = y^2 from y(0)=1 blows up at t=1; opting out of the exception
    # must hand back the finite samples reached before the stall.
    prob = OdeProblem(1, _square, (0.0, 2.0), np.array([1.0]))
    sol = solve_ode(prob, raise_on_failure=False)
    assert sol.status == "failed"
    assert sol.message
    assert sol.t.size >= 2
    assert np.all(np.diff(sol.t) > 0)
    assert np.all(np.isfinite(sol.y))
    assert sol.t[-1] < 1.0 + 1e-6
    # the recovered samples still track the exact solution 1/(1-t)
    k = np.searchsorted(sol.t, 0.5)
    assert_allclose(sol.y[k, 0], 1.0 / (1.0 - sol.t[k]), rtol=1e-7)


def test_solve_ode_failure_before_the_first_sample():
    # finite at t0 and NaN at every later stage: no step is accepted, and
    # with t_eval given no sample is returned
    def rhs(t, y):
        return [-v for v in y] if t == 0.0 else [np.nan] * len(y)

    prob = OdeProblem(2, rhs, (0.0, 1.0), np.array([1.0, 0.5]))
    sol = solve_ode(prob, t_eval=np.linspace(0.0, 1.0, 11), raise_on_failure=False)
    assert sol.status == "failed"
    assert sol.message
    assert sol.t.shape == (0,)
    assert sol.y.shape == (0, 2)
    assert sol.n_accepted == 0 and _rhs_count_holds(sol)
    with pytest.raises(StepSizeUnderflow):
        solve_ode(prob, t_eval=np.linspace(0.0, 1.0, 11))


def _rhs_count_holds(sol):
    return sol.n_rhs_evals == 2 + 15 * sol.n_accepted + 12 * sol.n_rejected


def test_solve_ode_samples_are_the_step_ends_without_t_eval():
    prob = OdeProblem(2, _harmonic, (0.0, 2.0), np.array([0.0, 1.0]))
    sol = solve_ode(prob)
    assert sol.t[0] == 0.0 and sol.t[-1] == 2.0
    assert sol.t.size == sol.n_accepted + 1
    assert _rhs_count_holds(sol)
    # the dense output passes through every step end, and its 7th-order
    # interpolant holds the tolerance between them
    assert_allclose(sol.interpolant(sol.t).T, sol.y, rtol=0, atol=1e-15)
    mid = 0.5 * (sol.t[1:] + sol.t[:-1])
    assert sol.interpolant(mid).shape == (2, mid.size)
    assert_allclose(sol.interpolant(mid)[0], np.sin(mid), rtol=0, atol=1e-8)


def test_solve_ode_stops_at_the_minimum_step():
    sol = solve_ode(OdeProblem(1, _square, (0.0, 2.0), np.array([1.0])), raise_on_failure=False)
    assert "minimum step" in sol.message
    assert sol.n_rejected > 0
    assert _rhs_count_holds(sol)


def test_solve_ode_stops_at_the_step_budget(monkeypatch):
    # the budget is a module constant; a small one stops a smooth run early
    monkeypatch.setattr(numerics, "_MAX_STEPS", 20)
    prob = OdeProblem(2, _harmonic, (0.0, 200 * np.pi), np.array([1.0, 0.0]))
    sol = solve_ode(prob, t_eval=np.linspace(0.0, 200 * np.pi, 1001), raise_on_failure=False)
    assert sol.status == "failed"
    assert "step budget of 20 steps" in sol.message
    assert sol.n_accepted + sol.n_rejected == 20
    assert _rhs_count_holds(sol)
    # the partial samples end at the last accepted step and stay accurate
    assert 2 <= sol.t.size < 1001
    assert_allclose(sol.y[:, 0], np.cos(sol.t), rtol=0, atol=1e-8)
    with pytest.raises(StepSizeUnderflow, match="step budget"):
        solve_ode(prob)


def test_ode_problem_validation():
    with pytest.raises(ValueError):
        OdeProblem(2, _harmonic, (1.0, 0.0), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        OdeProblem(3, _harmonic, (0.0, 1.0), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        OdeProblem(2, _harmonic, (0.0, 1.0), np.array([np.inf, 1.0]))


def test_report_hermiticity_defect_is_the_largest_over_a_stack():
    rng = np.random.default_rng(3)
    mats = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
    mats[1] *= 4.0
    one = [QuadratureReport.of(m, np.eye(5), 0.0, 1).hermiticity_defect for m in mats]
    stacked = QuadratureReport.of(mats, np.eye(5), 0.0, 1)
    assert stacked.hermiticity_defect == max(one) == one[1]
