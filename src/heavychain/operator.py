"""State space machinery on uniformly sampled functions.

A closed-loop state is z = (w, v, xi, psi) with deflection w, velocity v
and the two boundary velocities xi = v(length), psi = v(0) carried as
explicit components.  The generator acts as

    z  |->  ( v,  (P w')',  -w'(length),  feedback(z) )

subject to the domain conditions (P w')'(length) = -w'(length) and
(P w')'(0) = feedback(z).  Everything here works on grid samples: first
and second derivatives use second-order stencils (central in the
interior, one-sided at the ends) and integrals use the trapezoid rule,
so all quantities are consistent with the matrix assembly in
:mod:`heavychain.discretization`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from heavychain.model import RescaledModel, inner_product_weights, check_admissibility

__all__ = [
    "SampledFunction",
    "StateZ",
    "fd_derivative",
    "fd_second_derivative",
    "diff_matrix",
    "diff2_matrix",
    "trapezoid_weights",
    "uniform_grid",
    "natural_inner",
    "natural_norm",
    "weighted_inner",
    "weighted_norm",
    "h1_norm",
    "h2_norm",
    "boundary_functional",
    "feedback_functional",
    "apply_generator",
    "invert_generator",
]


def uniform_grid(n: int, length: float) -> np.ndarray:
    """n + 1 equispaced points covering [0, length]."""
    return np.linspace(0.0, length, n + 1)


def fd_derivative(y: np.ndarray, dx: float) -> np.ndarray:
    """Second-order first derivative (central interior, one-sided ends)."""
    return np.gradient(y, dx, edge_order=2)


def fd_second_derivative(y: np.ndarray, dx: float) -> np.ndarray:
    """Second-order second derivative (central interior, one-sided ends)."""
    if len(y) < 4:
        raise ValueError("need at least 4 samples for the boundary stencils")
    d2 = np.empty_like(y)
    d2[1:-1] = (y[:-2] - 2.0 * y[1:-1] + y[2:]) / dx**2
    d2[0] = (2.0 * y[0] - 5.0 * y[1] + 4.0 * y[2] - y[3]) / dx**2
    d2[-1] = (2.0 * y[-1] - 5.0 * y[-2] + 4.0 * y[-3] - y[-4]) / dx**2
    return d2


def _stencil_matrix(n: int, offsets, weights, first, last, h: float) -> sparse.csr_array:
    """CSR operator on n + 1 points, scaled by 1/h: the central stencil's
    diagonals in rows 1..n-1, the one-sided stencils `first` and `last`
    in rows 0 and n."""
    k = np.arange(1, n)
    cols = np.concatenate([np.arange(len(first)), (k[:, None] + offsets).ravel(),
                           np.arange(n + 1 - len(last), n + 1)])
    vals = np.concatenate([first, np.tile(weights, n - 1), last]) / h
    counts = np.concatenate([[0, len(first)], np.full(n - 1, len(offsets)), [len(last)]])
    return sparse.csr_array((vals, cols, np.cumsum(counts)), shape=(n + 1, n + 1))


def diff_matrix(n: int, dx: float) -> sparse.csr_array:
    """Sparse matrix realisation of :func:`fd_derivative` on n + 1 points."""
    return _stencil_matrix(n, [-1, 1], [-0.5, 0.5], [-1.5, 2.0, -0.5],
                           [0.5, -2.0, 1.5], dx)


def diff2_matrix(n: int, dx: float) -> sparse.csr_array:
    """Sparse matrix realisation of :func:`fd_second_derivative`."""
    return _stencil_matrix(n, [-1, 0, 1], [1.0, -2.0, 1.0], [2.0, -5.0, 4.0, -1.0],
                           [-1.0, 4.0, -5.0, 2.0], dx**2)


def trapezoid_weights(n: int, dx: float) -> np.ndarray:
    w = np.full(n + 1, dx)
    w[0] = w[-1] = 0.5 * dx
    return w


@dataclass
class SampledFunction:
    """Samples of a function on a uniform grid."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x)
        self.y = np.asarray(self.y)
        if self.x.shape != self.y.shape:
            raise ValueError("grid / value shape mismatch")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def at0(self):
        return self.y[0]

    @property
    def atL(self):
        return self.y[-1]

    def cumulative(self) -> "SampledFunction":
        out = np.concatenate(
            ([0.0], np.cumsum(0.5 * (self.y[1:] + self.y[:-1]) * self.dx))
        )
        return SampledFunction(self.x, out)


@dataclass
class StateZ:
    """State (w, v, xi, psi); xi and psi double the boundary velocities."""

    w: SampledFunction
    v: SampledFunction
    xi: complex
    psi: complex

    @classmethod
    def from_functions(cls, w: SampledFunction, v: SampledFunction) -> "StateZ":
        return cls(w=w, v=v, xi=v.atL, psi=v.at0)

    @property
    def x(self) -> np.ndarray:
        return self.w.x


def _quad(y, dx):
    return np.trapezoid(y, dx=dx)


def natural_inner(z1: StateZ, z2: StateZ) -> complex:
    """Plain Sobolev product: w in H^2, v in H^1, plus the two scalars."""
    dx = z1.w.dx
    w1, w2 = z1.w.y, np.conj(z2.w.y)
    dw1 = fd_derivative(z1.w.y, dx)
    dw2 = np.conj(fd_derivative(z2.w.y, dx))
    ddw1 = fd_second_derivative(z1.w.y, dx)
    ddw2 = np.conj(fd_second_derivative(z2.w.y, dx))
    v1, v2 = z1.v.y, np.conj(z2.v.y)
    dv1 = fd_derivative(z1.v.y, dx)
    dv2 = np.conj(fd_derivative(z2.v.y, dx))
    out = _quad(w1 * w2 + dw1 * dw2 + ddw1 * ddw2, dx)
    out += _quad(v1 * v2 + dv1 * dv2, dx)
    out += z1.xi * np.conj(z2.xi) + z1.psi * np.conj(z2.psi)
    return out


def natural_norm(z: StateZ) -> float:
    return float(np.sqrt(natural_inner(z, z).real))


def _resolve_weights(m, gamma, alpha1, alpha2):
    if alpha1 is None or alpha2 is None:
        alpha1, alpha2 = inner_product_weights(m)
    if gamma is None:
        rep = check_admissibility(m)
        if not rep.admissible:
            raise ValueError("model not admissible; pass gamma explicitly")
        gamma = rep.gamma
    return gamma, alpha1, alpha2


def weighted_inner(z1: StateZ, z2: StateZ, m: RescaledModel,
                   gamma=None, alpha1=None, alpha2=None) -> complex:
    """Energy inner product with cross-term weight gamma.

    Seven contributions: the damped H^2 part of w (divergence form plus
    a payload-end derivative term and a cart-end value term), the damped
    H^1 part of v, the payload velocity, the cart velocity, and a rank-one
    coupling between psi and the boundary functional of w.
    """
    gamma, alpha1, alpha2 = _resolve_weights(m, gamma, alpha1, alpha2)
    dx = z1.w.dx
    P = m.tension(z1.w.x)
    PL, P0 = m.tensionL, m.tension0

    dw1 = fd_derivative(z1.w.y, dx)
    dw2 = fd_derivative(z2.w.y, dx)
    div1 = fd_derivative(P * dw1, dx)  # (P w')'
    div2 = fd_derivative(P * dw2, dx)
    dv1 = fd_derivative(z1.v.y, dx)
    dv2 = fd_derivative(z2.v.y, dx)

    out = alpha1 * _quad(gamma * div1 * np.conj(div2) + P * dw1 * np.conj(dw2), dx)
    out += alpha1 * gamma * PL * dw1[-1] * np.conj(dw2[-1])
    out += alpha2 * z1.w.y[0] * np.conj(z2.w.y[0])
    out += alpha1 * _quad(gamma * P * dv1 * np.conj(dv2) + z1.v.y * np.conj(z2.v.y), dx)
    out += alpha1 * PL * z1.xi * np.conj(z2.xi)
    out += alpha2 * gamma * z1.psi * np.conj(z2.psi)
    j1 = z1.psi - 2.0 * alpha1 * P0 * dw1[0] + 2.0 * alpha2 * z1.w.y[0]
    j2 = z2.psi - 2.0 * alpha1 * P0 * dw2[0] + 2.0 * alpha2 * z2.w.y[0]
    out += 0.5 * j1 * np.conj(j2)
    return out


def weighted_norm(z: StateZ, m: RescaledModel, gamma=None, alpha1=None, alpha2=None) -> float:
    return float(np.sqrt(weighted_inner(z, z, m, gamma, alpha1, alpha2).real))


def h1_norm(f: SampledFunction) -> float:
    df = fd_derivative(f.y, f.dx)
    val = _quad(np.abs(f.y) ** 2 + np.abs(df) ** 2, f.dx)
    return float(np.sqrt(val.real))


def h2_norm(f: SampledFunction) -> float:
    df = fd_derivative(f.y, f.dx)
    ddf = fd_second_derivative(f.y, f.dx)
    val = _quad(np.abs(f.y) ** 2 + np.abs(df) ** 2 + np.abs(ddf) ** 2, f.dx)
    return float(np.sqrt(val.real))


def boundary_functional(w: SampledFunction, m: RescaledModel, alpha1=None, alpha2=None):
    """J(w) = -2*alpha1*P(0)*w'(0) + 2*alpha2*w(0)."""
    if alpha1 is None or alpha2 is None:
        alpha1, alpha2 = inner_product_weights(m)
    dw0 = fd_derivative(w.y, w.dx)[0]
    return -2.0 * alpha1 * m.tension0 * dw0 + 2.0 * alpha2 * w.y[0]


def feedback_functional(z: StateZ, m: RescaledModel):
    """Cart force functional theta . (v(0), v'(0), w(0), w'(0))."""
    dv0 = fd_derivative(z.v.y, z.v.dx)[0]
    dw0 = fd_derivative(z.w.y, z.w.dx)[0]
    return m.theta1 * z.v.y[0] + m.theta2 * dv0 + m.theta3 * z.w.y[0] + m.theta4 * dw0


def apply_generator(z: StateZ, m: RescaledModel) -> StateZ:
    """Apply the generator on samples.

    The second component is the divergence-form term (P w')' everywhere;
    the scalar slots carry the two boundary accelerations.  For states
    satisfying the domain conditions the scalars agree with the boundary
    values of the second component up to the stencil error.
    """
    dx = z.w.dx
    P = m.tension(z.w.x)
    dw = fd_derivative(z.w.y, dx)
    div = fd_derivative(P * dw, dx)
    w2 = SampledFunction(z.w.x, z.v.y.copy())
    v2 = SampledFunction(z.w.x, div)
    return StateZ(w=w2, v=v2, xi=-dw[-1], psi=feedback_functional(z, m))


def invert_generator(f: SampledFunction, g: SampledFunction, m: RescaledModel) -> StateZ:
    """Solve  A z = (f, g, g(length), g(0))  in closed form.

    The construction integrates g twice through the tension profile:
    v = f,   w'(x) = (-P(length)*g(length) + int_length^x g) / P(x),
    and the cart equation pins w(0) (theta3 must not vanish).
    """
    if m.theta3 == 0.0:
        raise ValueError("theta3 = 0: generator is not invertible")
    x, dx = f.x, f.dx
    P = m.tension(x)
    cum_g = g.cumulative().y  # int_0^x g
    int_from_L = cum_g - cum_g[-1]  # int_length^x g
    dw = (-m.tensionL * g.y[-1] + int_from_L) / P
    df0 = fd_derivative(f.y, dx)[0]
    w0 = (g.y[0] - m.theta1 * f.y[0] - m.theta2 * df0 - m.theta4 * dw[0]) / m.theta3
    w_vals = w0 + SampledFunction(x, dw).cumulative().y
    w = SampledFunction(x, w_vals)
    return StateZ.from_functions(w, SampledFunction(x, f.y.copy()))
