"""Numerical foundation checks.

Reference values were frozen from a 50-digit mpmath run; they appear as
literals so the suite never trusts the code under test to generate its own
expectations.
"""

import ctypes
import hashlib
import json
import linecache
import math
import os
import re
import shutil
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate as sint

from sqzq import native, numerics, pdm
from sqzq.cli import _recurrence_residual
from sqzq.errors import ConfigError, NonConvergent, NonFiniteState
from sqzq.numerics import (
    OdeProblem,
    QuadratureReport,
    TruncatedOperator,
    gaussian_rule,
    gaussian_smooth,
    hermite_phys,
    integrate_gaussian_quadratic,
    legendre_box_rule,
    solve_ode,
    whitened_rule,
)
from sqzq.pdm import (
    PRESETS,
    InitialState,
    SemiclassicalModel,
    _c_source,
    _motion,
    classical_integrate,
    semiclassical_integrate,
)

from .oracles import dop853_generic, erfc_real, matrix_exp, momentum, quad_box, whitened_rule_nd

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
    nodes, weights = numerics._hermgauss(12)
    dfact = 1.0
    for k in range(0, 12):
        ref = np.sqrt(np.pi) * dfact / 2.0**k
        got = np.sum(weights * nodes ** (2 * k))
        assert_allclose(got, ref, rtol=1e-13)
        dfact *= 2 * k + 1
    # odd moments vanish by symmetry
    assert abs(np.sum(weights * nodes**7)) < 1e-14


def test_legendre_box_rule_polynomial_exactness():
    x, w = legendre_box_rule(0.0, 1.0, order=2, panels=1)
    assert_allclose(w @ x**3, 0.25, rtol=1e-15)
    x, w = legendre_box_rule(-2.0, 3.0, order=5, panels=4)
    assert_allclose(w @ x**4, (3.0**5 + 2.0**5) / 5.0, rtol=1e-14)


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
    with pytest.raises(NonConvergent):
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


@pytest.mark.parametrize("support", [None, ((-1.0, 0.8), (-0.6, 1.2))], ids=["free", "support"])
@pytest.mark.parametrize("d", [1, 2])
def test_gaussian_smooth_stack_equals_the_per_field_calls(d, support):
    # 30 centres span two blocks on both branches in 2D
    prec = SMOOTH_PREC[:d, :d]
    box = None if support is None else support[:d]
    fields = [
        lambda *u: np.ones_like(u[0]),
        lambda *u: np.cos(u[0]) * u[-1],
        lambda *u: np.exp(-((u[-1] - 0.2) ** 2) / 0.3),
    ]
    centres = np.random.default_rng(5).uniform(-2.0, 2.0, size=(5, 6, d))
    stack = lambda *u: np.stack([f(*u) for f in fields])
    got = gaussian_smooth(stack, centres, prec, box)
    assert got.shape == (3, 5, 6)
    for g, f in zip(got, fields):
        assert np.array_equal(g, gaussian_smooth(f, centres, prec, box))
    assert gaussian_smooth(stack, centres[:0], prec, box).shape == (3, 0, 6)


def test_gaussian_smooth_support_keeps_the_mass_of_a_constant():
    # windows far inside the box, so E[1] = 1 up to numpy's Legendre weights,
    # which are 1e-12 off near a panel's ends; two panels, which put the
    # Gaussian's peak on their junction, read 2.1e-14 (1D) and 4.2e-14 (2D)
    rng = np.random.default_rng(5)
    worst1 = worst2 = 0.0
    for _ in range(200):
        c = rng.uniform(-3.0, 3.0, size=2)
        var = rng.uniform(0.05, 4.0)
        one = gaussian_smooth(lambda x: np.ones_like(x), c[:1], [[1.0 / var]], [(-50, 50)])
        worst1 = max(worst1, abs(one - 1.0))
        a = rng.normal(size=(2, 2))
        prec = a @ a.T + rng.uniform(0.1, 2.0) * np.eye(2)
        one = gaussian_smooth(lambda x, y: np.ones_like(x), c, prec, ((-50, 50), (-50, 50)))
        worst2 = max(worst2, abs(one - 1.0))
    assert worst1 <= 1e-14 and worst2 <= 2e-14


@pytest.mark.parametrize("d", [1, 2, 4])
def test_whitened_rule_integrates_gaussian_moments(d):
    # with Sigma = P^-1 / 2 the weight exp(-x^T P x) has mass pi^(d/2) / sqrt(det P),
    # second moments Sigma and fourth moments E[x_0^4] = 3 Sigma_00^2; the
    # package's rule takes d <= 2, and the 4D one is the test oracle's
    rng = np.random.default_rng(40 + d)
    a = rng.normal(size=(d, d))
    prec = a @ a.T + 0.5 * np.eye(d)
    pts, w = (whitened_rule if d <= 2 else whitened_rule_nd)(prec, 3)
    assert pts.shape == (3**d, d) and w.shape == (3**d,)
    dens = w * np.exp(-np.einsum("ni,ij,nj->n", pts, prec, pts))
    mass = np.pi ** (d / 2) / np.sqrt(np.linalg.det(prec))
    sigma = np.linalg.inv(prec) / 2.0
    assert_allclose(dens.sum(), mass, rtol=1e-13)
    assert_allclose(np.einsum("n,ni,nj->ij", dens, pts, pts) / mass, sigma, rtol=0, atol=1e-13)
    assert_allclose(np.sum(dens * pts[:, 0] ** 4) / mass, 3.0 * sigma[0, 0] ** 2, rtol=1e-12)


def _normal_moment(chol, i, j):
    """E[x0^i x1^j] for x = chol z, z standard normal and chol lower
    triangular: the binomial expansion of x1 = chol10 z0 + chol11 z1 with
    E[z^n] = (n - 1)!! for even n, else 0."""
    even = lambda n: 0 if n % 2 else math.prod(range(n - 1, 0, -2))
    return sum(
        math.comb(j, k) * chol[1, 0] ** k * chol[1, 1] ** (j - k) * chol[0, 0] ** i
        * even(i + k) * even(j - k)
        for k in range(j + 1)
    )


@pytest.mark.parametrize("d", [1, 2])
def test_gaussian_rule_integrates_the_moments_its_orders_make_exact(d):
    # orders (k, L): exact for exp(-x^T P x) times x0^i x1^j with i + j <= 2k - 1
    # and j <= 2L - 1, on random SPD precisions P, Sigma = P^-1 / 2
    rng = np.random.default_rng(60 + d)
    for orders in [(5,), (2,)] if d == 1 else [(4, 2), (2, 5), (6, 3)]:
        a = rng.normal(size=(d, d))
        prec = a @ a.T + 0.3 * np.eye(d)
        pts, w = gaussian_rule(prec, orders)
        assert pts.shape == (math.prod(orders), d) and w.shape == pts.shape[:1]
        dens = w * np.exp(-np.einsum("ni,ij,nj->n", pts, prec, pts))
        mass = np.pi ** (d / 2) / np.sqrt(np.linalg.det(prec))
        assert_allclose(dens.sum(), mass, rtol=1e-13)
        chol = np.linalg.cholesky(np.linalg.inv(prec) / 2.0)
        if d == 1:
            chol = np.array([[chol[0, 0], 0.0], [0.0, 1.0]])
        top, inner = 2 * orders[0] - 1, 2 * orders[-1] - 1 if d == 2 else 0
        for i in range(top + 1):
            for j in range(min(inner, top - i) + 1):
                got = np.sum(dens * pts[:, 0] ** i * pts[:, -1] ** j) / mass
                want = _normal_moment(chol, i, j)
                scale = _normal_moment(chol, 2 * i, 0) ** 0.5 * _normal_moment(chol, 0, 2 * j) ** 0.5
                assert abs(got - want) <= 1e-12 * scale, (orders, i, j)


@pytest.mark.parametrize(
    "prec",
    [[[np.nan]], [[-1.0]], [[np.inf]], [[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.0], [0.0, -2.0]],
     [[1.0, np.nan], [np.nan, 1.0]], [[np.inf, 0.0], [0.0, 1.0]], [[1e300, 0.0], [0.0, 1e300]]],
    ids=["nan", "negative", "inf", "indefinite", "negative-conditional", "nan-2d", "inf-2d",
         "product-overflows"],
)
def test_gaussian_rule_refuses_a_weight_it_cannot_lay(prec):
    with pytest.raises(NonConvergent):
        gaussian_rule(prec, (3,) * len(prec))


def test_gaussian_rule_on_a_diagonal_precision_is_the_principal_axis_rule():
    # slope exactly 0 and sqrt(s0 s1) = sqrt(det): whitened_rule keeps the
    # bits of the per-axis tensor rule
    prec = np.diag([0.7, 2.3])
    pts, w = gaussian_rule(prec, (4, 4))
    t, wt = np.polynomial.hermite.hermgauss(4)
    grid = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    we = wt * np.exp(t**2)
    assert np.array_equal(pts, grid / np.sqrt([0.7, 2.3]))
    assert np.array_equal(w, np.outer(we, we).ravel() / np.sqrt(0.7 * 2.3))


def test_hermgauss_weights_are_usable_up_to_the_max_order():
    # at _MAX_ORDER the weights still sum to sqrt(pi); one order above,
    # numpy's normalising sum overflows and every weight comes out 0
    _, w = np.polynomial.hermite.hermgauss(numerics._MAX_ORDER)
    assert w.sum() == pytest.approx(np.sqrt(np.pi), rel=1e-14)
    with pytest.warns(RuntimeWarning):
        _, w = np.polynomial.hermite.hermgauss(numerics._MAX_ORDER + 1)
    assert not np.any(w)


def test_refine_stops_before_the_max_order():
    # a bounded field that never converges, at no node cost: orders 181,
    # 185, ..., 369, and no step past the last order with usable weights
    orders = []

    def evaluate(order):
        orders.append(order)
        return np.full((2, 2), float(order)), np.eye(2), None

    numerics._refine(1, 180, None, lambda order: 1, evaluate)
    assert orders[0] == 181 and orders[-1] <= numerics._MAX_ORDER < orders[-1] + 4


@pytest.mark.parametrize("nmax,degree,second", [(369, 2, 372), (368, 2, 371), (366, None, 371)])
def test_refine_refuses_a_second_order_past_the_max_order(nmax, degree, second):
    # the loop's second order is k0 + 1 for a polynomial and k0 + 4 for a
    # bounded field; nmax 367 at degree 2 needs 369 and 370, which fit
    assert numerics._refuse_beyond_budget(1, 367, 2, lambda order: 1) == 369
    with pytest.raises(ConfigError, match=f"order {second}, beyond the highest order"):
        numerics._refuse_beyond_budget(1, nmax, degree, lambda order: 1)


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
    a = TruncatedOperator.annihilation(dim).entries
    comm = a @ a.conj().T - a.conj().T @ a
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
    a = TruncatedOperator.annihilation(dim).entries
    alpha = 0.7 - 0.4j
    gen = TruncatedOperator(dim, alpha * a.conj().T - np.conj(alpha) * a)
    d = matrix_exp(gen).entries
    block = (d.conj().T @ d)[:20, :20]
    assert_allclose(block, np.eye(20), atol=1e-9)


def _harmonic(t, y):
    return y[1], -y[0]


def test_solve_ode_harmonic_quarter_period():
    prob = OdeProblem(_harmonic, (0.0, np.pi / 2), np.array([0.0, 1.0]))
    sol = solve_ode(prob, t_eval=[np.pi / 2])
    assert sol.status == "finished"
    assert abs(sol.y[0, 0] - 1.0) < 1e-8


def test_solve_ode_free_particle():
    prob = OdeProblem(lambda t, y: (y[1], 0.0), (0.0, 3.0), np.array([0.0, 2.0]))
    sol = solve_ode(prob)
    assert abs(sol.y[-1, 0] - 6.0) < 1e-10


def test_solve_ode_energy_drift_100_periods():
    prob = OdeProblem(_harmonic, (0.0, 200 * np.pi), np.array([1.0, 0.0]))
    sol = solve_ode(prob)
    energy = sol.y[:, 0] ** 2 + sol.y[:, 1] ** 2
    assert np.max(np.abs(energy - 1.0)) < 1e-6


def _square(t, y):
    return (y[0] * y[0],)


def test_solve_ode_blowup_partial_solution():
    # y' = y^2 from y(0)=1 blows up at t=1: the run fails and hands back the
    # finite samples reached before the stall
    prob = OdeProblem(_square, (0.0, 2.0), np.array([1.0]))
    sol = solve_ode(prob)
    assert sol.status == "failed"
    assert "minimum step" in sol.message
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

    prob = OdeProblem(rhs, (0.0, 1.0), np.array([1.0, 0.5]))
    sol = solve_ode(prob, t_eval=np.linspace(0.0, 1.0, 11))
    assert sol.status == "failed"
    assert "minimum step" in sol.message
    assert sol.t.shape == (0,)
    assert sol.y.shape == (0, 2)
    assert sol.n_accepted == 0 and _rhs_count_holds(sol)


def _rhs_count_holds(sol):
    return sol.n_rhs_evals == 2 + 15 * sol.n_accepted + 12 * sol.n_rejected


def test_solve_ode_samples_are_the_step_ends_without_t_eval():
    prob = OdeProblem(_harmonic, (0.0, 2.0), np.array([0.0, 1.0]))
    sol = solve_ode(prob)
    assert sol.t[0] == 0.0 and sol.t[-1] == 2.0
    assert sol.t.size == sol.n_accepted + 1
    assert _rhs_count_holds(sol)
    # the 7th-order dense output passes through every step end and holds the
    # tolerance between them
    assert_allclose(solve_ode(prob, t_eval=sol.t).y, sol.y, rtol=0, atol=1e-15)
    mid = 0.5 * (sol.t[1:] + sol.t[:-1])
    between = solve_ode(prob, t_eval=mid)
    assert between.y.shape == (mid.size, 2)
    assert_allclose(between.y[:, 0], np.sin(mid), rtol=0, atol=1e-8)


def test_solve_ode_stops_at_the_minimum_step():
    sol = solve_ode(OdeProblem(_square, (0.0, 2.0), np.array([1.0])))
    assert "minimum step" in sol.message
    assert sol.n_rejected > 0
    assert _rhs_count_holds(sol)


def test_solve_ode_stops_at_the_step_budget(monkeypatch):
    # the budget is a module constant; a small one stops a smooth run early
    monkeypatch.setattr(numerics, "_MAX_STEPS", 20)
    prob = OdeProblem(_harmonic, (0.0, 200 * np.pi), np.array([1.0, 0.0]))
    sol = solve_ode(prob, t_eval=np.linspace(0.0, 200 * np.pi, 1001))
    assert sol.status == "failed"
    assert "step budget of 20 steps" in sol.message
    assert sol.n_accepted + sol.n_rejected == 20
    assert _rhs_count_holds(sol)
    # the partial samples end at the last accepted step and stay accurate
    assert 2 <= sol.t.size < 1001
    assert_allclose(sol.y[:, 0], np.cos(sol.t), rtol=0, atol=1e-8)
    # without t_eval the samples are the step ends, up to the last accepted one
    ends = solve_ode(prob)
    assert ends.status == "failed" and "step budget" in ends.message
    assert ends.t.size == ends.n_accepted + 1


def _relaxation(t, y):
    # a fast transient onto a slow forcing: the first steps are rejected
    return (-200.0 * (y[0] - math.cos(t)),)


def _hamiltonian_chain(t, y):
    # two coupled anharmonic oscillators, (q1, q2, p1, p2)
    q1, q2, p1, p2 = y
    return p1, p2, -q1 - 2.0 * q1 * q2, -q2 - q1 * q1 + q2 * q2


def _lorenz96(t, y):
    n = len(y)
    return [(y[(i + 1) % n] - y[i - 2]) * y[i - 1] - y[i] + 8.0 for i in range(n)]


def _spike(stage=0):
    # infinite at one stage of the first step and nowhere else: K_1..K_11 at
    # stage 0..10, f_new at 11 and the dense stages at 12..14; tanh turns the
    # infinite states that follow into finite slopes but keeps NaN, so an
    # error sum that dropped a 0.0 * inf = NaN term would accept that step
    calls = []

    def rhs(t, y):
        calls.append(t)
        return (math.inf if len(calls) == 3 + stage else -math.tanh(y[0]),)

    return OdeProblem(rhs, (0.0, 1.0), np.array([1.0]))


# n = 1, 2, 4 and 7; the blow-up run stops at the minimum step with its stages
# below 1e28, so only the spike run reaches a non-finite stage value
_KERNEL_CASES = {
    "blowup": lambda: OdeProblem(_square, (0.0, 2.0), np.array([1.0])),
    "spike": _spike,
    "rejects": lambda: OdeProblem(_relaxation, (0.0, 3.0), np.array([2.0])),
    "harmonic": lambda: OdeProblem(_harmonic, (0.0, 20.0), np.array([0.0, 1.0])),
    "chain": lambda: OdeProblem(_hamiltonian_chain, (0.0, 30.0), np.array([0.1, -0.2, 0.3, 0.15])),
    "lorenz96": lambda: OdeProblem(
        _lorenz96, (0.0, 2.0), np.array([8.01, 8.0, 7.9, 8.2, 8.0, 7.5, 8.0]), 1e-8, 1e-10
    ),
}


@pytest.mark.parametrize("with_t_eval", [False, True], ids=["step-ends", "t_eval"])
@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_solve_ode_matches_the_generic_loop_to_the_bit(case, with_t_eval):
    # the generated kernel does the generic loop's float operations in its
    # order, except the products with zero tableau entries: with finite stages
    # they add nothing, and its E5 guard rejects a step with a non-finite one
    prob = _KERNEL_CASES[case]()
    t_eval = np.linspace(*prob.t_span, 57) if with_t_eval else None
    sol, ref = solve_ode(prob, t_eval=t_eval), dop853_generic(_KERNEL_CASES[case](), t_eval=t_eval)
    for name in ("t", "y"):
        got, want = getattr(sol, name), getattr(ref, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    for name in ("n_rhs_evals", "n_accepted", "n_rejected", "status", "message", "h_min"):
        assert getattr(sol, name) == getattr(ref, name), name
    if case in ("rejects", "spike"):
        assert sol.n_rejected > 0
    if case == "blowup":
        assert sol.status == "failed"


def _outcome(solve, problem, t_eval):
    """A run's bits, or the exception it raised."""
    try:
        sol = solve(problem, t_eval=t_eval)
    except NonFiniteState as exc:
        return {"raised": repr(exc)}
    out = {name: getattr(sol, name).tobytes() for name in ("t", "y")}
    for name in ("n_rhs_evals", "n_accepted", "n_rejected", "status", "message", "h_min"):
        out[name] = getattr(sol, name)
    return out


@pytest.mark.parametrize("with_t_eval", [False, True], ids=["step-ends", "t_eval"])
@pytest.mark.parametrize("stage", range(15))
def test_a_non_finite_stage_anywhere_in_a_step_runs_as_the_generic_loop(stage, with_t_eval):
    # the kernel's sums skip the zero tableau entries that the generic loop
    # multiplies: a non-finite stage of an attempt must still reject the step,
    # and one of the dense stages must leave the same samples or raise the same
    t_eval = np.linspace(0.0, 1.0, 57) if with_t_eval else None
    # solve_ode runs under the suite's error::RuntimeWarning: a dense row with
    # inf makes NaN samples, which must raise NonFiniteState and not warn
    got = _outcome(solve_ode, _spike(stage), t_eval)
    with np.errstate(invalid="ignore"):
        assert got == _outcome(dop853_generic, _spike(stage), t_eval)
    if stage < 12:
        assert got["n_rejected"] > 0


@pytest.mark.parametrize("n", [1, 4])
def test_kernels_multiply_by_the_nonzero_tableau_entries_and_the_guard_only(n):
    # every product with a literal is a nonzero tableau entry, once per
    # component, or 0.0 times a stage whose E5 entry is zero in the E5 sum's
    # guard, so a zero entry that came back would show here
    attempt, _ = numerics._dop853_kernels(n)
    src = "".join(linecache.getlines(attempt.__code__.co_filename, attempt.__globals__))
    got = Counter(re.findall(r"(-?\d+\.\d+(?:e-?\d+)?) \* k(\d+)_(\d+)\b", src))
    rows = [*numerics._A[1:12], numerics._B, numerics._E5, numerics._E3, *numerics._A[13:], *numerics._D]
    want = Counter((repr(a), str(s), str(i)) for row in rows for s, a in enumerate(row) if a for i in range(n))
    guard = [s for s, a in enumerate(numerics._E5) if not a]
    want.update(("0.0", str(s), str(i)) for s in guard for i in range(n))
    assert got == want
    # 146 of the 210 entries per component are nonzero
    assert sum(got.values()) == (146 + 5) * n and src.count("0.0 *") == 5 * n
    for i in range(n):
        assert f" + (0.0 * k1_{i} + 0.0 * k2_{i} + 0.0 * k3_{i} + 0.0 * k4_{i} + 0.0 * k12_{i})) / s{i}\n" in src


def test_solve_ode_records_the_smallest_accepted_step():
    for case in ("blowup", "rejects"):
        prob = _KERNEL_CASES[case]()
        sol = solve_ode(prob)
        assert sol.h_min == np.min(np.diff(sol.t))
        assert sol.h_min >= 10.0 * np.spacing(max(abs(v) for v in prob.t_span))
    # with t_eval the samples are not the step ends, the smallest step still is
    prob = OdeProblem(_harmonic, (0.0, 2.0), np.array([0.0, 1.0]))
    assert solve_ode(prob, t_eval=[2.0]).h_min == solve_ode(prob).h_min


def test_solve_ode_rejects_a_rhs_of_the_wrong_length():
    prob = OdeProblem(lambda t, y: (y[1], -y[0], 0.0), (0.0, 1.0), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="rhs returned 3 components for a state of 2"):
        solve_ode(prob)


def test_dop853_tableau_literals_are_scipys():
    # the program writes the tableau out so that importing it loads no
    # scipy.integrate; every entry must still be scipy's float
    from scipy.integrate._ivp import dop853_coefficients as ref

    assert numerics._A == [row[:s].tolist() for s, row in enumerate(ref.A)]
    assert numerics._C == ref.C.tolist()
    assert numerics._B == ref.B.tolist()
    assert numerics._E3 == ref.E3.tolist()
    assert numerics._E5 == ref.E5.tolist()
    assert numerics._D == ref.D.tolist()


def test_kernel_tracebacks_show_the_generated_source():
    # linecache keeps no copy of the source: clearing it between the solves
    # that build the kernel and that raise through it must not lose the lines
    solve_ode(OdeProblem(_harmonic, (0.0, 1.0), np.array([0.0, 1.0])))
    linecache.clearcache()
    calls = []

    def rhs(t, y):
        # the first two calls are t0 and the first-step guess, the third the
        # first stage inside the kernel
        calls.append(t)
        if len(calls) == 3:
            raise RuntimeError("stage failed")
        return y[1], -y[0]

    with pytest.raises(RuntimeError) as info:
        solve_ode(OdeProblem(rhs, (0.0, 1.0), np.array([0.0, 1.0])))
    text = "".join(traceback.format_exception(info.value))
    assert 'File "dop853 kernel n=2", line ' in text
    assert "k1_0, k1_1, = rhs(t + " in text


def test_ode_problem_validation():
    with pytest.raises(ValueError):
        OdeProblem(_harmonic, (1.0, 0.0), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        OdeProblem(_harmonic, (0.0, 1.0), np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        OdeProblem(_harmonic, (0.0, 1.0), np.array([np.inf, 1.0]))


def test_report_hermiticity_defect_is_the_largest_over_a_stack():
    rng = np.random.default_rng(3)
    mats = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
    mats[1] *= 4.0
    one = [QuadratureReport.of(m, np.eye(5), 0.0, 1).hermiticity_defect for m in mats]
    stacked = QuadratureReport.of(mats, np.eye(5), 0.0, 1)
    assert stacked.hermiticity_defect == max(one) == one[1]


# ---------------------------------------------------------------- the compiled solver


class _Captured(Exception):
    pass


def _problem_of(run):
    """The ODE problem that ``run()`` hands the solver, which never runs it."""

    def capture(problem, **kwargs):
        raise _Captured(problem)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pdm, "solve_ode", capture)
        with pytest.raises(_Captured) as info:
            run()
    return info.value.args[0]


def _launch(v=(0.75, 0.75), q=(0.0, 0.0), **model):
    """The ODE problem of a launch of the fig6 model (changed by ``model``),
    as ``semiclassical_integrate`` builds it, with its compiled form."""
    preset = PRESETS["fig6a"]
    semi = SemiclassicalModel(replace(preset.model, **model), preset.modes)
    return _problem_of(lambda: semiclassical_integrate(semi, InitialState(*q, *v), preset.t_span))


def _classical(name, v=None):
    """The ODE problem of a classical preset's run (its velocities changed
    by ``v``), as ``classical_integrate`` builds it."""
    preset = PRESETS[name]
    init = replace(preset.init, v1=v[0], v2=v[1]) if v else preset.init
    return _problem_of(lambda: classical_integrate(preset.model, init, preset.t_span))


def _refuse(*args):
    raise AssertionError("the Python kernels ran")


@pytest.fixture
def library():
    """The library of the semiclassical right-hand side, loaded afresh, and
    forgotten afterwards so that what a test does to it stays in the test."""
    native._library.cache_clear()
    lib = native._solver(_c_source(_motion, 21), 4)
    if lib is None:
        assert not (shutil.which("cc") or shutil.which("gcc")), "a C compiler is on PATH, but no library"
        pytest.skip("no C compiler on PATH")
    yield lib
    native._library.cache_clear()


def _on_both_paths(monkeypatch, problem, t_eval):
    """A run's outcome on the Python kernels, and on the library alone."""
    want = _outcome(solve_ode, replace(problem, compiled=None), t_eval)
    with monkeypatch.context() as patch:
        patch.setattr(numerics, "_python_steps", _refuse)
        got = _outcome(solve_ode, problem, t_eval)
    return got, want


_LAUNCHES = {
    "fig6a": lambda: _launch((0.75, 0.75)),
    "fig6b": lambda: _launch((1.0, 1.5)),
    "fig6c": lambda: _launch((1.75, 1.25)),
    # every window underflows: the accelerations are NaN at t0
    "not-finite-at-t0": lambda: _launch(q=(50.0, 50.0)),
    # accelerations near 1e300: the steps shrink without end
    "minimum-step": lambda: _launch(vbar1=1e300),
    **{name: (lambda name=name: _classical(name)) for name in PRESETS if PRESETS[name].kind == "classical"},
    # an angular velocity near 1e307: the steps shrink without end
    "pendulum-minimum-step": lambda: _classical("fig4a", v=(1e307, 2.0)),
}


@pytest.mark.parametrize("with_t_eval", [False, True], ids=["step-ends", "t_eval"])
@pytest.mark.parametrize("case", list(_LAUNCHES))
def test_compiled_solve_gives_the_python_kernels_bits(monkeypatch, library, case, with_t_eval):
    problem = _LAUNCHES[case]()
    t_eval = np.linspace(*problem.t_span, 3001) if with_t_eval else None
    got, want = _on_both_paths(monkeypatch, problem, t_eval)
    assert got == want
    if case.startswith("fig6"):
        assert want["status"] == "finished" and want["n_rejected"] > 0
    elif case in PRESETS:
        assert want["status"] == "finished"
    else:
        stop = "minimum step" if case.startswith("pendulum") else case.replace("-", " ")
        assert want["status"] == "failed" and stop in want["message"]


def test_compiled_solve_gives_the_python_kernels_bits_on_escaping_launches(monkeypatch, library):
    # seeded launches over the benchmark's velocity square [0.5, 2]^2
    rng = np.random.default_rng(11)
    escaped = 0
    for v in rng.uniform(0.5, 2.0, (10, 2)).tolist():
        problem = _launch(tuple(v))
        got, want = _on_both_paths(monkeypatch, problem, np.linspace(0.0, 15.0, 3001))
        assert got == want, v
        last = np.frombuffer(want["y"])[-4:-2] * [PRESETS["fig6a"].model.lambda1, PRESETS["fig6a"].model.lambda2]
        escaped += bool(np.max(np.abs(last)) > 1.0)
    assert 2 <= escaped <= 8


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig3c"])
def test_the_recurrence_residual_is_the_same_on_both_paths(monkeypatch, library, name):
    # simulate's re-solve over one closure time, which it reports
    preset = PRESETS[name]

    def residual():
        return _recurrence_residual(preset.model, preset.init, 0.0, preset.closure_time, {})

    with monkeypatch.context() as patch:
        patch.setattr(numerics, "_python_steps", _refuse)
        got = residual()
    with monkeypatch.context() as patch:
        patch.setattr(pdm, "_compiled_rhs", lambda *args: None)
        want = residual()
    assert got.hex() == want.hex()
    assert got <= 1e-10


def test_compiled_solve_reads_the_step_budget_at_call_time(monkeypatch, library):
    monkeypatch.setattr(numerics, "_MAX_STEPS", 20)
    for t_eval in (None, np.linspace(0.0, 15.0, 3001)):
        got, want = _on_both_paths(monkeypatch, _launch(), t_eval)
        assert got == want
        assert "step budget of 20 steps" in got["message"]
        assert got["n_accepted"] + got["n_rejected"] == 20


@pytest.fixture
def no_library(monkeypatch, tmp_path):
    """An empty cache at tmp_path/cache and no library loaded in the process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    native._library.cache_clear()
    yield tmp_path / "cache"
    native._library.cache_clear()


@pytest.mark.parametrize("host", ["no-compiler", "failing-build", "unwritable-cache"])
def test_without_a_library_the_python_kernels_run_with_the_same_bits(monkeypatch, no_library, host):
    problem, t_eval = _launch((1.75, 1.25)), np.linspace(0.0, 15.0, 3001)
    want = _outcome(solve_ode, replace(problem, compiled=None), t_eval)
    if host == "no-compiler":
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
    elif host == "failing-build":
        monkeypatch.setattr(native, "_FLAGS", native._FLAGS + ("-fno-such-option-anywhere",))
    else:
        no_library.parent.mkdir(exist_ok=True)
        no_library.write_text("a file where the cache directory would be")
    assert _outcome(solve_ode, problem, t_eval) == want
    assert native._solver(_c_source(_motion, 21), 4) is None
    if host == "failing-build":
        # a failed build leaves no temporary files behind, only its marker
        (marker,) = no_library.joinpath("sqzq").iterdir()
        assert marker.name.startswith("dop853-") and marker.suffix == ".failed"
    elif host == "no-compiler":
        assert not no_library.exists()


def _cached_library() -> Path:
    """The semiclassical library's file in the session's cache, built if need be."""
    return Path(native._solver(_c_source(_motion, 21), 4).path)


def test_a_second_load_compiles_nothing(monkeypatch, library):
    path = _cached_library()
    runs = []
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: runs.append(args))
    native._library.cache_clear()
    assert native._solver(_c_source(_motion, 21), 4) is not None
    assert runs == []
    assert native._intact(str(path))


def test_a_truncated_library_is_never_loaded(monkeypatch, library, tmp_path):
    source = _cached_library()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    tmp_path.joinpath("sqzq").mkdir()
    target = tmp_path / "sqzq" / source.name
    target.write_bytes(source.read_bytes()[:-1000])
    # the file name alone would match; the builds fail, so the truncated file
    # is the only library there is
    loads = []

    def failing_build(*args, **kwargs):
        raise subprocess.CalledProcessError(1, args[0])

    monkeypatch.setattr(subprocess, "run", failing_build)
    monkeypatch.setattr(native.ctypes, "CDLL", lambda *args, **kwargs: loads.append(args))
    native._library.cache_clear()
    assert native._solver(_c_source(_motion, 21), 4) is None
    problem = _launch()
    assert _outcome(solve_ode, problem, None) == _outcome(solve_ode, replace(problem, compiled=None), None)
    assert loads == []


def test_a_library_is_checked_once_per_model(monkeypatch, library):
    checks = []
    rhs = library.dll.sqzq_rhs

    def counting(*args):
        checks.append(args[1])
        rhs(*args)

    library.dll.sqzq_rhs = counting
    for problem in (_launch((0.75, 0.75)), _launch((1.75, 1.25)), _launch(vbar1=3.0), _launch(vbar1=3.0)):
        solve_ode(problem)
    # fig6a and fig6c share a model; vbar1 = 3 is a second one
    assert checks == [81, 81]
    assert not library.differs


def test_a_library_that_differs_in_one_bit_is_not_used(monkeypatch, library):
    # a libm whose erfc or exp is not math's would differ like this: the last
    # bit of one acceleration at one probe
    rhs = library.dll.sqzq_rhs

    def off_by_one_ulp(c, m, ys, out):
        rhs(c, m, ys, out)
        value = (ctypes.c_double * (4 * m)).from_address(out)
        value[4 * (m // 2) + 2] = math.nextafter(value[4 * (m // 2) + 2], math.inf)

    library.dll.sqzq_rhs = off_by_one_ulp
    for problem in (_launch((1.75, 1.25)), _launch(vbar1=3.0)):
        want = _outcome(solve_ode, replace(problem, compiled=None), None)
        assert _outcome(solve_ode, problem, None) == want
    assert library.differs


_FRESH_PROCESS = """
import json, sys
import numpy
loaded = {"ctypes-by-numpy": "ctypes" in sys.modules}
import sqzq
from sqzq import cli
def modules():
    return {name: name in sys.modules for name in ("ctypes", "subprocess", "sqzq.native")}
steps = [modules()]
for argv in json.loads(sys.argv[1]):
    steps.append((cli.main(argv), modules()))
print(json.dumps([loaded, steps]))
"""


def test_import_and_a_classical_run_load_no_library(tmp_path):
    # numpy itself imports ctypes; import sqzq adds no module of the loader,
    # builds nothing and writes no cache.  The classical run loads (cold:
    # builds) the solver library of the pendulum, and its 2001 x 6 block the
    # CSV library
    cache = tmp_path / "cache"
    argv = [["simulate", "--preset", "fig4b", "--out", str(tmp_path)]]
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS, json.dumps(argv)], capture_output=True, text=True,
        env={**os.environ, "XDG_CACHE_HOME": str(cache)},
    )
    assert out.returncode == 0, out.stderr
    loaded, (after_import, (code, after_run)) = json.loads(out.stdout.splitlines()[-1])
    numpy_ctypes = loaded["ctypes-by-numpy"]
    assert after_import == {"ctypes": numpy_ctypes, "subprocess": False, "sqzq.native": False}
    assert code == 0
    if shutil.which("cc") or shutil.which("gcc"):
        assert after_run == {"ctypes": True, "subprocess": True, "sqzq.native": True}
        libraries = sorted(cache.joinpath("sqzq").iterdir())
        assert [(p.name.split("-")[0], p.suffix) for p in libraries] == [("csv", ".so"), ("dop853", ".so")]
    else:
        assert after_run == {"ctypes": True, "subprocess": False, "sqzq.native": True}
        assert not cache.exists()


_FAILING_BUILD = """
import json, sys
from sqzq import cli, native
native._FLAGS += ("-fno-such-option-anywhere",)
code = cli.main(["simulate", "--preset", "fig4b", "--out", sys.argv[1]])
print(json.dumps([code, "subprocess" in sys.modules]))
"""


def test_a_failed_build_is_not_run_again_by_the_next_process(tmp_path):
    # the first process runs the compiler, which refuses the flag, and leaves
    # a marker for each library; the second starts no compiler.  Both write
    # the run's pinned bytes with the '%' template
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache")}
    runs = []
    for k in range(2):
        out = subprocess.run([sys.executable, "-c", _FAILING_BUILD, str(tmp_path / str(k))],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        runs.append(json.loads(out.stdout.splitlines()[-1]))
    compiler = bool(shutil.which("cc") or shutil.which("gcc"))
    assert runs == [[0, compiler], [0, False]]
    if compiler:
        # one marker for the pendulum's solver, one for the CSV writer
        markers = sorted(tmp_path.joinpath("cache", "sqzq").iterdir())
        assert [(p.name.split("-")[0], p.suffix) for p in markers] == [("csv", ".failed"), ("dop853", ".failed")]
    first, second = (tmp_path / str(k) / "fig4b.csv" for k in range(2))
    assert first.read_bytes() == second.read_bytes()
    assert hashlib.sha256(first.read_bytes()).hexdigest() == (
        "24d3be8b799a31119e100b0279959bcd7afafd1fce3b7944d8bb32e7160c6267"
    )
