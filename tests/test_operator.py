import numpy as np
import pytest

from heavychain.discretization import (
    Grid,
    _form,
    _natural_terms,
    _weighted_terms,
    sobolev_norms,
    weighted_norm,
)
from heavychain.model import check_admissibility
from heavychain.operator import diff2_matrix, diff_matrix, trapezoid_weights
from tests.conftest import invert_generator

REF_INV_CONST = -17.658  # -theta1/theta3 for the reference configuration


def smooth_state(m, n, seed, complex_valued=True):
    """Grid and state vector (w, v) of two smooth random profiles."""
    rng = np.random.default_rng(seed)
    grid = Grid.make(n, m.length)
    x, ell = grid.x, m.length

    def combo():
        coef = rng.standard_normal(6)
        if complex_valued:
            coef = coef + 1j * rng.standard_normal(6)
        return (
            coef[0]
            + coef[1] * (x / ell)
            + coef[2] * np.sin(np.pi * x / ell)
            + coef[3] * np.cos(np.pi * x / ell)
            + coef[4] * np.sin(2 * np.pi * x / ell)
            + coef[5] * (x / ell) ** 2
        )

    w = combo()
    return grid, np.concatenate([w, combo()])


def weighted_inner(grid, z1, z2, m):
    """z2^H M_H z1 from the matrix-free norm, by the polarization identity."""
    rep = check_admissibility(m)
    return sum(
        1j**k * weighted_norm(_weighted_terms(grid, m, rep.gamma), z1 + 1j**k * z2) ** 2
        for k in range(4)
    ) / 4.0


def apply_generator(x, z, m):
    """(v, (P w')', -w'(L), feedback) with (P w')' = D1 (P D1 w) composed."""
    w, v = np.split(z, 2)
    d1 = diff_matrix(len(x) - 1, x[1] - x[0])
    dw = d1 @ w
    div = d1 @ (m.tension(x) * dw)
    feedback = (m.theta1 * v[0] + m.theta2 * (d1 @ v)[0]
                + m.theta3 * w[0] + m.theta4 * dw[0])
    return v, div, -dw[-1], feedback


def test_fd_matrices_match_stencils(rng):
    n, dx = 37, 0.13
    y = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    assert np.allclose(diff_matrix(n, dx) @ y, np.gradient(y, dx, edge_order=2), atol=1e-13)
    d2 = np.empty_like(y)
    d2[1:-1] = (y[:-2] - 2.0 * y[1:-1] + y[2:]) / dx**2
    d2[0] = (2.0 * y[0] - 5.0 * y[1] + 4.0 * y[2] - y[3]) / dx**2
    d2[-1] = (2.0 * y[-1] - 5.0 * y[-2] + 4.0 * y[-3] - y[-4]) / dx**2
    assert np.allclose(diff2_matrix(n, dx) @ y, d2, atol=1e-11)


def test_fd_exact_on_quadratics():
    x = Grid.make(50, 2.0).x
    y = 3.0 * x**2 - x + 2.0
    assert np.allclose(diff_matrix(50, x[1]) @ y, 6.0 * x - 1.0, atol=1e-10)
    assert np.allclose(diff2_matrix(50, x[1]) @ y, 6.0, atol=1e-9)


def test_trapezoid_weights_sum():
    w = trapezoid_weights(10, 0.1)
    assert w.sum() == pytest.approx(1.0)


def test_natural_norm_linear_profile():
    # w = x, v = 0 on [0, 1]: |w|^2_{H2} = int x^2 + 1 dx = 4/3
    grid = Grid.make(2000, 1.0)
    vec = np.concatenate([grid.x, np.zeros_like(grid.x)])
    h2, h1 = sobolev_norms(grid, vec)
    assert h2**2 == pytest.approx(4.0 / 3.0, rel=1e-6)
    assert h1 == 0.0


def test_natural_inner_includes_boundary_velocities():
    grid = Grid.make(100, 1.0)
    vec = np.concatenate([np.zeros_like(grid.x), np.ones_like(grid.x)])
    # int v^2 + 0 + xi^2 + psi^2 = 1 + 1 + 1
    assert _form(_natural_terms(grid), vec) == pytest.approx(3.0, rel=1e-12)


def test_weighted_inner_term_isolation(ref_model):
    """A state with (P w')' = 0, zero rank-one combination and v = 0 sees only
    the three surviving terms of the weighted product."""
    m = ref_model
    rep = check_admissibility(m)
    alpha1, alpha2, gamma = rep.alpha1, rep.alpha2, rep.gamma
    n = 400
    grid = Grid.make(n, m.length)
    x = grid.x
    P = m.tension(x)
    # w' = 1/P  =>  (P w')' = 0; w(0) chosen so the rank-one term vanishes
    w0 = alpha1 / alpha2
    slope = m.tension.slope
    w_vals = w0 + np.log(P / P[0]) / slope
    vec = np.concatenate([w_vals, np.zeros_like(x)])

    dx = x[1]
    dw = diff_matrix(n, dx) @ w_vals
    expected = (
        alpha1 * np.trapezoid(P * dw**2, dx=dx)
        + alpha1 * gamma * m.tensionL * dw[-1] ** 2
        + alpha2 * w_vals[0] ** 2
    )
    got = weighted_norm(_weighted_terms(grid, m, gamma), vec) ** 2
    assert got == pytest.approx(expected, rel=1e-7)


def test_weighted_inner_conjugate_symmetry(ref_model, energy_gram):
    """The matrix-free norm polarises to the Gram's Hermitian form."""
    grid, z1 = smooth_state(ref_model, 80, seed=5)
    _, z2 = smooth_state(ref_model, 80, seed=6)
    rep = check_admissibility(ref_model)
    M = energy_gram(grid, ref_model, rep.gamma)
    ip12 = weighted_inner(grid, z1, z2, ref_model)
    ip21 = weighted_inner(grid, z2, z1, ref_model)
    assert ip12 == pytest.approx(np.conj(ip21), rel=1e-12)
    # the assembled form itself carries ~1e-12 of rounding at N = 80
    assert ip12 == pytest.approx(np.vdot(z2, M @ z1), rel=1e-11)
    nn = weighted_inner(grid, z1, z1, ref_model)
    assert abs(nn.imag) < 1e-12 * abs(nn.real)
    assert nn.real > 0.0


def test_weighted_inner_linearity(ref_model):
    grid, z1 = smooth_state(ref_model, 60, seed=7)
    _, z2 = smooth_state(ref_model, 60, seed=8)
    _, z3 = smooth_state(ref_model, 60, seed=9)
    lam = 0.7 - 1.3j
    left = weighted_inner(grid, lam * z1 + z2, z3, ref_model)
    right = lam * weighted_inner(grid, z1, z3, ref_model) + weighted_inner(grid, z2, z3, ref_model)
    assert left == pytest.approx(right, rel=1e-11)


def test_boundary_functional_values(ref_model):
    """The last term of the energy form, 1/2 |j z|^2 on the whole state as
    the row j / sqrt(2) at unit weight, reads J(w) = -2 alpha1 P(0) w'(0)
    + 2 alpha2 w(0) on states with v = 0."""
    m = ref_model
    rep = check_admissibility(m)
    grid = Grid.make(200, m.length)
    block, s, (row,) = _weighted_terms(grid, m, rep.gamma)[-1]
    assert block is None and list(s) == [1.0]

    def boundary_functional(w):
        return np.sqrt(2.0) * (row @ np.concatenate([w, np.zeros_like(w)]))[0]

    assert boundary_functional(np.ones_like(grid.x)) == pytest.approx(2.0 * rep.alpha2, rel=1e-12)
    assert boundary_functional(grid.x.copy()) == pytest.approx(  # w'(0) = 1
        -2.0 * rep.alpha1 * m.tension0, rel=1e-10
    )


def test_feedback_decomposition(ref_model):
    """feedback = -a*v(0) - b*J(w) - J(v) holds identically in the traces."""
    m = ref_model
    rep = check_admissibility(m)

    def boundary_functional(value, slope):
        return -2.0 * rep.alpha1 * m.tension0 * slope + 2.0 * rep.alpha2 * value

    rng = np.random.default_rng(0)
    for _ in range(5):
        v0, dv0, w0, dw0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lhs = m.theta1 * v0 + m.theta2 * dv0 + m.theta3 * w0 + m.theta4 * dw0
        rhs = -rep.a * v0 - rep.b * boundary_functional(w0, dw0) - boundary_functional(v0, dv0)
        assert lhs == pytest.approx(rhs, rel=1e-11)


def test_invert_generator_constant_data(ref_model):
    m = ref_model
    x = Grid.make(300, m.length).x
    one, zero = np.ones_like(x), np.zeros_like(x)

    w, v = np.split(invert_generator(x, one, zero, m), 2)
    assert np.allclose(w, REF_INV_CONST, atol=1e-10)
    assert np.allclose(v, 1.0)
    assert v[-1] == 1.0 and v[0] == 1.0  # xi and psi

    w2, _ = np.split(invert_generator(x, zero, one, m), 2)
    dw = diff_matrix(300, x[1]) @ w2
    assert dw[0] == pytest.approx(-1.0, abs=1e-8)


def test_invert_generator_requires_theta3(ref_model):
    m = ref_model
    bad = type(m)(
        theta1=m.theta1, theta2=m.theta2, theta3=0.0, theta4=m.theta4,
        length=m.length, s_x=m.s_x, s_t=m.s_t, params=m.params,
    )
    x = Grid.make(20, m.length).x
    f = np.ones_like(x)
    with pytest.raises(ValueError):
        invert_generator(x, f, f, bad)


def test_invert_then_apply_recovers_datum(ref_model):
    m = ref_model

    def datum(n):
        x = Grid.make(n, m.length).x
        f = np.sin(np.pi * x / m.length) + 0.3 * x / m.length
        g = np.cos(2 * np.pi * x / m.length)
        return x, f, g

    # composing two first-derivative stencils costs an order within a few
    # nodes of each end, so the clean second-order rate is measured on the
    # interior; the semi-discrete generator matrix avoids the composition
    # and is checked globally elsewhere
    errs, errs_int = [], []
    for n in (100, 200, 400):
        x, f, g = datum(n)
        z = invert_generator(x, f, g, m)
        aw, av, axi, apsi = apply_generator(x, z, m)
        e_all = max(
            np.max(np.abs(aw - f)),
            np.max(np.abs(av - g)),
            abs(axi - g[-1]),
            abs(apsi - g[0]),
        )
        errs.append(e_all)
        errs_int.append(np.max(np.abs(av - g)[4:-4]))
    assert errs[2] < errs[0]
    orders = np.log2(np.array(errs_int[:-1]) / np.array(errs_int[1:]))
    assert orders.min() > 1.8


def test_invert_output_satisfies_domain_conditions(ref_model):
    m = ref_model
    n = 800
    x = Grid.make(n, m.length).x
    f = np.cos(np.pi * x / m.length)
    g = np.sin(np.pi * x / m.length) ** 2
    z = invert_generator(x, f, g, m)
    _, div, minus_dw_end, feedback = apply_generator(x, z, m)
    scale = np.max(np.abs(g)) + 1.0
    # domain conditions: (P w')'(L) = -w'(L) and (P w')'(0) = feedback(z)
    assert abs(div[-1] - minus_dw_end) < 2e-3 * scale
    assert abs(div[0] - feedback) < 2e-3 * scale
    # interior equation (P w')' = g
    assert np.max(np.abs(div - g)) < 2e-3 * scale
