import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heavychain.model import (
    ControllerGains,
    PhysicalFeedback,
    PhysicalParams,
    check_admissibility,
    chi3_threshold,
    derive_physical_thetas,
    inner_product_weights,
    quadratic_minorant_constants,
    rescale,
    select_gamma,
    ternary_form_psd,
)

# Frozen values for the reference configuration (rho = L = m_p = m_c = 1,
# g = 9.81, chi = (1, 1, 2.5)), computed once by direct arithmetic.
REF_THETAS_PHYS = (-4.5, 19.62, -2.5, 29.43)
REF_THETAS = (-0.45871559633027525, 19.62, -0.025977777570245724, 5.0)
REF_A = 0.356778797146
REF_B = 0.254841997961
REF_PARABOLA_LHS = 0.150838406793
REF_PARABOLA_RHS = 0.363688885979
REF_CHI3_THRESHOLD = 1.9779841998
REF_ALPHA1 = 0.5
REF_ALPHA2 = 0.0509683995923
REF_GAMMA_MAX = 2.34101714286


def test_tension_profile_endpoints(ref_params):
    assert ref_params.tension_cart == pytest.approx(19.62)
    assert ref_params.tension_payload == pytest.approx(9.81)


def test_physical_feedback_reference(ref_params, ref_gains):
    fb = derive_physical_thetas(ref_params, ref_gains)
    assert fb.thetas == pytest.approx(REF_THETAS_PHYS)


def test_rescaled_coefficients_reference(ref_model):
    assert ref_model.s_x == pytest.approx(9.81)
    assert ref_model.s_t == pytest.approx(9.81)
    assert ref_model.length == pytest.approx(9.81)
    assert ref_model.thetas == pytest.approx(REF_THETAS, rel=1e-11)
    # rescaled tension keeps the physical endpoint values
    assert ref_model.tension(0.0) == pytest.approx(19.62)
    assert ref_model.tension(ref_model.length) == pytest.approx(9.81)


def test_rescale_merges_cart_equation(ref_params, ref_gains):
    """The merged coefficients reproduce the cart equation under the
    coordinate stretch, checked by numerically differentiating one smooth
    trajectory in both coordinate systems."""
    fb = derive_physical_thetas(ref_params, ref_gains)
    m = rescale(ref_params, fb)
    s_x, s_t = m.s_x, m.s_t

    def w_phys(t, x):
        return math.sin(1.3 * t + 0.2) * math.cos(2.1 * x) + 0.3 * math.cos(0.7 * t) * x**2

    h = 1e-5

    def d_dt(f, t, x):
        return (f(t + h, x) - f(t - h, x)) / (2 * h)

    def d_dx(f, t, x):
        return (f(t, x + h) - f(t, x - h)) / (2 * h)

    t0 = 0.37
    v = lambda t, x: d_dt(w_phys, t, x)
    lhs_phys = ref_params.m_c * (v(t0 + h, 0.0) - v(t0 - h, 0.0)) / (2 * h)
    force = (
        fb.theta1 * v(t0, 0.0)
        + fb.theta2 * d_dx(v, t0, 0.0)
        + fb.theta3 * w_phys(t0, 0.0)
        + fb.theta4 * d_dx(w_phys, t0, 0.0)
    )
    resid_phys = lhs_phys - ref_params.tension_cart * d_dx(w_phys, t0, 0.0) - force

    w_til = lambda tt, xx: w_phys(tt / s_t, xx / s_x)
    v_til = lambda tt, xx: d_dt(w_til, tt, xx)
    tt0 = s_t * t0
    lhs_til = (v_til(tt0 + h, 0.0) - v_til(tt0 - h, 0.0)) / (2 * h)
    rhs_til = (
        m.theta1 * v_til(tt0, 0.0)
        + m.theta2 * d_dx(v_til, tt0, 0.0)
        + m.theta3 * w_til(tt0, 0.0)
        + m.theta4 * d_dx(w_til, tt0, 0.0)
    )
    resid_til = lhs_til - rhs_til

    # one equation is the other times m_c*s_t^2
    assert resid_phys == pytest.approx(ref_params.m_c * s_t**2 * resid_til, abs=5e-4)


def test_admissibility_reference(ref_model):
    rep = check_admissibility(ref_model)
    assert rep.admissible
    assert not rep.violations
    assert rep.a == pytest.approx(REF_A, rel=1e-10)
    assert rep.b == pytest.approx(REF_B, rel=1e-10)
    assert rep.parabola_lhs == pytest.approx(REF_PARABOLA_LHS, rel=1e-10)
    assert rep.parabola_rhs == pytest.approx(REF_PARABOLA_RHS, rel=1e-10)
    assert rep.chi3_threshold == pytest.approx(REF_CHI3_THRESHOLD, rel=1e-10)
    assert rep.alpha1 == pytest.approx(REF_ALPHA1, rel=1e-12)
    assert rep.alpha2 == pytest.approx(REF_ALPHA2, rel=1e-10)
    assert rep.gamma == pytest.approx(0.5 * REF_GAMMA_MAX, rel=1e-10)


def test_weights_reference(ref_model):
    a1, a2 = inner_product_weights(ref_model)
    assert a1 == pytest.approx(0.5, abs=1e-14)
    assert a2 == pytest.approx(REF_ALPHA2, rel=1e-10)


def test_non_admissible_sign_flip(ref_model):
    bad = PhysicalFeedback(1.0, 19.62, -2.5, 29.43)  # theta1 > 0
    m = rescale(ref_model.params, bad)
    rep = check_admissibility(m)
    assert not rep.admissible
    assert any("theta1" in v for v in rep.violations)


def test_non_admissible_parabola():
    # a = 3, b = 0.1 violates (a+b-1)^2 < 4ab while all signs are fine
    m_params = PhysicalParams(1.0, 1.0, 1.0, 1.0, 9.81)
    base = rescale(m_params, PhysicalFeedback(0, 1, 0, 0))
    m = type(base)(
        theta1=-4.0,
        theta2=1.0,
        theta3=-0.1,
        theta4=0.1,
        length=base.length,
        s_x=base.s_x,
        s_t=base.s_t,
        params=m_params,
    )
    rep = check_admissibility(m)
    assert rep.a == pytest.approx(3.0)
    assert rep.b == pytest.approx(0.1)
    assert not rep.admissible
    assert any("parabola" in v for v in rep.violations)


def test_chi3_threshold_reference(ref_params):
    assert chi3_threshold(ref_params) == pytest.approx(REF_CHI3_THRESHOLD, rel=1e-10)


def test_chi3_threshold_matched_impedance():
    # m_p = P(L)*sqrt(rho) makes the threshold collapse to zero
    p = PhysicalParams(rho=1.0, L=2.0, m_p=3.0, m_c=1.5, g=1.0)
    assert p.tension_payload * math.sqrt(p.rho) == pytest.approx(p.m_p)
    assert chi3_threshold(p) == 0.0


positive = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    rho=positive,
    L=positive,
    m_p=positive,
    m_c=positive,
    g=st.floats(min_value=0.1, max_value=30.0),
    chi1=positive,
    chi2=positive,
    chi3=positive,
)
def test_threshold_equivalence(rho, L, m_p, m_c, g, chi1, chi2, chi3):
    """Gain-level threshold and coefficient-level parabola test agree."""
    p = PhysicalParams(rho, L, m_p, m_c, g)
    gains = ControllerGains(chi1, chi2, chi3)
    thr = chi3_threshold(p)
    if abs(chi3 - thr) <= 1e-9 * max(1.0, thr):
        return  # boundary band excluded
    m = rescale(p, derive_physical_thetas(p, gains))
    assert check_admissibility(m).admissible == (chi3 > thr)


@settings(max_examples=200, deadline=None)
@given(
    rho=positive,
    L=positive,
    m_p=positive,
    m_c=positive,
    g=st.floats(min_value=0.1, max_value=30.0),
    chi1=positive,
    chi2=positive,
    chi3=positive,
)
def test_round_trip_recovers_ab(rho, L, m_p, m_c, g, chi1, chi2, chi3):
    """For gain-derived coefficients, the admissibility test recovers
    a = (chi3+1)*m_p/(P(L)*sqrt(rho)) and b = chi3*m_p/(P(L)*sqrt(rho))."""
    p = PhysicalParams(rho, L, m_p, m_c, g)
    m = rescale(p, derive_physical_thetas(p, ControllerGains(chi1, chi2, chi3)))
    rep = check_admissibility(m)
    q = p.tension_payload * math.sqrt(p.rho)
    assert rep.a == pytest.approx((chi3 + 1.0) * p.m_p / q, rel=1e-10)
    assert rep.b == pytest.approx(chi3 * p.m_p / q, rel=1e-10)


def test_select_gamma_examples():
    assert select_gamma(1.0, 1.0) == pytest.approx(1.5)
    assert select_gamma(REF_A, REF_B) == pytest.approx(0.5 * REF_GAMMA_MAX, rel=1e-10)
    with pytest.raises(ValueError):
        select_gamma(3.0, 0.1)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(0.01, 10.0), b=st.floats(0.01, 10.0))
def test_select_gamma_certifies_form(a, b):
    if (a + b - 1.0) ** 2 >= 4.0 * a * b * (1.0 - 1e-12):
        return
    gamma = select_gamma(a, b)
    assert 0.0 < gamma <= 2.0 / max(a, b)
    alpha = (a + b - 1.0) / (2.0 * math.sqrt(a * b))
    beta = math.sqrt(b * gamma) / 2.0
    delta = math.sqrt(a * gamma) / 2.0
    assert ternary_form_psd(alpha, beta, delta, tol=1e-12)


def test_ternary_form_examples():
    assert ternary_form_psd(0.5, 0.5, 0.5)
    assert not ternary_form_psd(0.9, 0.9, -0.9)
    assert ternary_form_psd(1.0, 0.0, 0.0)  # boundary case is still psd


@settings(max_examples=400, deadline=None)
@given(
    alpha=st.floats(-1.4, 1.4),
    beta=st.floats(-1.4, 1.4),
    delta=st.floats(-1.4, 1.4),
)
def test_ternary_form_matches_eigenvalue_oracle(alpha, beta, delta):
    mat = np.array([[1.0, alpha, delta], [alpha, 1.0, beta], [delta, beta, 1.0]])
    lam = np.linalg.eigvalsh(mat).min()
    if abs(lam) < 1e-9:
        return  # too close to the psd boundary to classify robustly
    assert ternary_form_psd(alpha, beta, delta) == (lam > 0.0)


def test_quadratic_minorant_zero_slope():
    c, d = quadratic_minorant_constants(0.0, 2.0, 0.5)
    assert (c, d) == (0.5, 4.0)


@settings(max_examples=200, deadline=None)
@given(
    a0=st.floats(0.0, 3.0),
    b0=st.floats(0.1, 3.0),
    eps0=st.floats(0.05, 3.0),
)
def test_quadratic_minorant_bruteforce(a0, b0, eps0):
    c, d = quadratic_minorant_constants(a0, b0, eps0)
    assert c > 0.0 and d > 0.0
    grid = np.linspace(-3.0, 3.0, 13)
    x1, x2 = np.meshgrid(grid, grid)
    for a in (-a0, 0.0, a0):
        for b in (b0, 2.0 * b0, 10.0 * b0):
            for eps in (eps0, 3.0 * eps0):
                form = (a * x1 + b * x2) ** 2 + eps * x1**2
                assert np.all(form >= c * x1**2 + d * x2**2 - 1e-9)
