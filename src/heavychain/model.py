"""Parameters, feedback coefficients and admissibility analysis.

A cart at x = 0 drives a heavy chain that carries a payload at x = L.
The chain tension is P(x) = g*(rho*(L - x) + m_p).  The cart force is a
static output feedback in the boundary traces of the deflection w and
the velocity v = dw/dt:

    F(t) = theta1*v(t,0) + theta2*dxv(t,0) + theta3*w(t,0) + theta4*dxw(t,0)

Positive tuning gains (chi1, chi2, chi3) induce one particular choice of
these coefficients.  A linear change of space/time units normalises the
payload boundary dynamics; the closed loop is then described by four
merged coefficients together with the rescaled tension profile.  This
module owns that bookkeeping plus the algebraic admissibility test
(coefficient signs and a parabola-region inequality), the weights of the
energy inner product, and the small quadratic-form certificates the
dissipativity argument rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "AffineTension",
    "PhysicalParams",
    "ControllerGains",
    "PhysicalFeedback",
    "RescaledModel",
    "AdmissibilityReport",
    "derive_physical_thetas",
    "rescale",
    "chi3_threshold",
    "check_admissibility",
    "inner_product_weights",
    "select_gamma",
    "ternary_form_psd",
]


@dataclass(frozen=True)
class AffineTension:
    """Affine tension profile P(x) = value0 + slope*x."""

    value0: float
    slope: float

    def __call__(self, x):
        return self.value0 + self.slope * np.asarray(x, dtype=float)


@dataclass(frozen=True)
class PhysicalParams:
    """Chain density rho, length L, payload mass m_p, cart mass m_c, gravity g.

    The tension P(x) = g (rho (L - x) + m_p) falls from the cart to the payload.
    """

    rho: float
    L: float
    m_p: float
    m_c: float
    g: float = 9.81

    def __post_init__(self):
        for name in ("rho", "L", "m_p", "m_c", "g"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")

    @property
    def tension_cart(self) -> float:
        return self.g * (self.rho * self.L + self.m_p)

    @property
    def tension_payload(self) -> float:
        return self.g * self.m_p


@dataclass(frozen=True)
class ControllerGains:
    """Positive tuning gains of the boundary feedback law."""

    chi1: float
    chi2: float
    chi3: float

    def __post_init__(self):
        if min(self.chi1, self.chi2, self.chi3) <= 0.0:
            raise ValueError("gains must be positive")


@dataclass(frozen=True)
class PhysicalFeedback:
    """Force-law coefficients before rescaling.

    F(t) = theta1*v(t,0) + theta2*dxv(t,0) + theta3*w(t,0) + theta4*dxw(t,0).
    """

    theta1: float
    theta2: float
    theta3: float
    theta4: float

    @property
    def thetas(self):
        return (self.theta1, self.theta2, self.theta3, self.theta4)


@dataclass(frozen=True)
class RescaledModel:
    """Closed loop after normalising the payload boundary dynamics.

    Space is stretched by s_x, time by s_t; the cart equation becomes

        dtt w(t,0) = theta1*v(t,0) + theta2*dxv(t,0) + theta3*w(t,0) + theta4*dxw(t,0)

    on the domain [0, length] (the rescaled force coefficients already
    absorb the cart-side tension term).  The payload end obeys
    dtt w(t, length) = -dxw(t, length).
    """

    theta1: float
    theta2: float
    theta3: float
    theta4: float
    length: float
    s_x: float
    s_t: float
    params: PhysicalParams

    @property
    def thetas(self):
        return (self.theta1, self.theta2, self.theta3, self.theta4)

    @property
    def tension(self) -> AffineTension:
        p = self.params
        return AffineTension(p.tension_cart, -p.g * p.rho / self.s_x)

    @property
    def tension0(self) -> float:
        return self.params.tension_cart

    @property
    def tensionL(self) -> float:
        return self.params.tension_payload

    @cached_property
    def admissibility(self) -> "AdmissibilityReport":
        """check_admissibility's report, computed on first use and kept."""
        return _admissibility(self)


def derive_physical_thetas(params: PhysicalParams, gains: ControllerGains) -> PhysicalFeedback:
    """Force-law coefficients induced by the tuning gains."""
    p0 = params.tension_cart
    mc = params.m_c
    k1, k2, k3 = gains.chi1, gains.chi2, gains.chi3
    return PhysicalFeedback(
        theta1=-(k3 + k2 + 1.0) * mc,
        theta2=k1 * p0 * mc,
        theta3=-k3 * k2 * mc,
        theta4=(k3 * k1 * mc - 1.0) * p0,
    )


def rescale(params: PhysicalParams, feedback: PhysicalFeedback) -> RescaledModel:
    """Merge the cart dynamics into four coefficients in stretched units.

    The stretch factors s_x = P(L)*rho/m_p and s_t = P(L)*sqrt(rho)/m_p
    turn the payload boundary condition into dtt w = -dxw and leave the
    interior equation in divergence form with the same tension values.
    """
    pl = params.tension_payload
    s_x = pl * params.rho / params.m_p
    s_t = pl * math.sqrt(params.rho) / params.m_p
    mc = params.m_c
    return RescaledModel(
        theta1=feedback.theta1 / (mc * s_t),
        theta2=feedback.theta2 * s_x / (mc * s_t),
        theta3=feedback.theta3 / (mc * s_t**2),
        theta4=(feedback.theta4 + params.tension_cart) * s_x / (mc * s_t**2),
        length=s_x * params.L,
        s_x=s_x,
        s_t=s_t,
        params=params,
    )


def chi3_threshold(params: PhysicalParams) -> float:
    """Critical chi3 above which gain-derived coefficients are admissible.

    Equals (m_p - P(L)*sqrt(rho))^2 / (4*m_p*P(L)*sqrt(rho)); it vanishes
    exactly when the payload impedance matches the chain impedance.
    """
    q = params.tension_payload * math.sqrt(params.rho)
    return (params.m_p - q) ** 2 / (4.0 * params.m_p * q)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the coefficient admissibility test."""

    a: float
    b: float
    parabola_lhs: float  # (a + b - 1)^2
    parabola_rhs: float  # 4ab
    admissible: bool
    violations: tuple
    gamma: float | None
    alpha1: float | None
    alpha2: float | None
    chi3_threshold: float

    @property
    def parabola_margin(self) -> float:
        return self.parabola_rhs - self.parabola_lhs


def check_admissibility(m: RescaledModel) -> AdmissibilityReport:
    """Test sign conditions and the parabola inequality for the coefficients.

    Writes theta1 = theta3/b - a and theta2 = theta4/b, i.e. b = theta4/theta2
    and a = theta3/b - theta1, and requires a, b > 0 with (a+b-1)^2 < 4ab
    together with theta1, theta3 < 0 and theta2, theta4 > 0.  On success the
    report carries the energy-product weights and a certified gamma, computed
    once per (frozen) model and kept as m.admissibility.
    """
    return m.admissibility


def _admissibility(m: RescaledModel) -> AdmissibilityReport:
    t1, t2, t3, t4 = m.thetas
    violations = []
    if not (t1 < 0.0):
        violations.append("theta1 must be negative")
    if not (t2 > 0.0):
        violations.append("theta2 must be positive")
    if not (t3 < 0.0):
        violations.append("theta3 must be negative")
    if not (t4 > 0.0):
        violations.append("theta4 must be positive")

    if t2 != 0.0:
        b = t4 / t2
    else:
        b = math.nan
    if b > 0.0:
        a = t3 / b - t1
    else:
        a = math.nan

    if math.isnan(a) or a <= 0.0 or math.isnan(b) or b <= 0.0:
        violations.append("derived (a, b) must be positive")
        lhs, rhs = math.nan, math.nan
    else:
        lhs = (a + b - 1.0) ** 2
        rhs = 4.0 * a * b
        if not (lhs < rhs):
            violations.append(
                "(a + b - 1)^2 < 4ab fails: coefficients leave the parabola region"
            )

    admissible = not violations
    gamma = alpha1 = alpha2 = None
    if admissible:
        gamma = select_gamma(a, b)
        alpha1, alpha2 = inner_product_weights(m)
    return AdmissibilityReport(
        a=a,
        b=b,
        parabola_lhs=lhs,
        parabola_rhs=rhs,
        admissible=admissible,
        violations=tuple(violations),
        gamma=gamma,
        alpha1=alpha1,
        alpha2=alpha2,
        chi3_threshold=chi3_threshold(m.params),
    )


def inner_product_weights(m: RescaledModel) -> tuple:
    """Weights (alpha1, alpha2) of the energy inner product.

    alpha1 = theta2/(2 P(0)) and alpha2 = -theta2*theta3/(2 theta4); both are
    positive exactly for admissible sign patterns.
    """
    alpha1 = m.theta2 / (2.0 * m.tension0)
    alpha2 = -m.theta2 * m.theta3 / (2.0 * m.theta4)
    return alpha1, alpha2


def select_gamma(a: float, b: float) -> float:
    """Pick a cross-term weight gamma certifying boundary dissipativity.

    Any gamma with gamma <= 4/max(a, b) and gamma <= 4*(1 - (a+b-1)^2/(4ab))
    makes the induced ternary form positive semidefinite; the midpoint
    gamma_max/2 is returned so all inequalities hold strictly.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError("select_gamma needs positive a, b")
    ratio = (a + b - 1.0) ** 2 / (4.0 * a * b)
    if ratio >= 1.0:
        raise ValueError("parabola inequality fails; no admissible gamma")
    gamma_max = min(4.0 / max(a, b), 4.0 * (1.0 - ratio))
    return 0.5 * gamma_max


def ternary_form_psd(alpha: float, beta: float, delta: float, tol: float = 0.0) -> bool:
    """Whether x1^2+x2^2+x3^2 + 2(alpha*x1*x2 + beta*x2*x3 + delta*x1*x3) >= 0.

    Exact characterisation: each cross coefficient squared at most 1 and
    alpha^2 + beta^2 + delta^2 <= 1 + 2*alpha*beta*delta.
    """
    if alpha**2 > 1.0 + tol or beta**2 > 1.0 + tol or delta**2 > 1.0 + tol:
        return False
    return alpha**2 + beta**2 + delta**2 <= 1.0 + 2.0 * alpha * beta * delta + tol
