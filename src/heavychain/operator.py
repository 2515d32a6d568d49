"""Grid-level building blocks of the generator.

A closed-loop state is z = (w, v, xi, psi) with deflection w, velocity v
and the two boundary velocities xi = v(length), psi = v(0).  On the grid
it is one vector (w_0..w_N, v_0..v_N), so xi and psi are v_N and v_0.
The generator acts as

    z  |->  ( v,  (P w')',  -w'(length),  feedback(z) )

subject to the domain conditions (P w')'(length) = -w'(length) and
(P w')'(0) = feedback(z).  This module holds the sparse second-order
difference stencils (central in the interior, one-sided at the ends),
the trapezoid weights, and the closed-form inverse of the generator that
serves as a discretization oracle.  The two discrete energies are defined once, from
these stencils, in :mod:`heavychain.discretization`.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from heavychain.model import RescaledModel

__all__ = [
    "diff_matrix",
    "diff2_matrix",
    "trapezoid_weights",
    "invert_generator",
]


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
    """Second-order first derivative on n + 1 points: central in the
    interior, one-sided three-point stencils at the ends."""
    return _stencil_matrix(n, [-1, 1], [-0.5, 0.5], [-1.5, 2.0, -0.5],
                           [0.5, -2.0, 1.5], dx)


def diff2_matrix(n: int, dx: float) -> sparse.csr_array:
    """Second-order second derivative on n + 1 points: central in the
    interior, one-sided four-point stencils at the ends."""
    return _stencil_matrix(n, [-1, 0, 1], [1.0, -2.0, 1.0], [2.0, -5.0, 4.0, -1.0],
                           [-1.0, 4.0, -5.0, 2.0], dx**2)


def trapezoid_weights(n: int, dx: float) -> np.ndarray:
    """Trapezoid-rule weights on n + 1 points."""
    w = np.full(n + 1, dx)
    w[0] = w[-1] = 0.5 * dx
    return w


def _running_integral(y: np.ndarray, dx: float) -> np.ndarray:
    """Trapezoid running integral int_0^x y on a uniform grid."""
    return np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * dx)))


def invert_generator(x: np.ndarray, f: np.ndarray, g: np.ndarray,
                     m: RescaledModel) -> np.ndarray:
    """Solve  A z = (f, g, g(length), g(0))  in closed form.

    f and g are samples on the uniform grid x.  The construction
    integrates g twice through the tension profile:
    v = f,   w'(x) = (-P(length)*g(length) + int_length^x g) / P(x),
    and the cart equation pins w(0) (theta3 must not vanish).  Returns
    z = (w_0..w_N, v_0..v_N), the generator's state layout, in which the
    boundary velocities xi = v(length) and psi = v(0) are v_N and v_0.
    """
    if m.theta3 == 0.0:
        raise ValueError("theta3 = 0: generator is not invertible")
    dx = float(x[1] - x[0])
    P = m.tension(x)
    cum_g = _running_integral(g, dx)  # int_0^x g
    int_from_L = cum_g - cum_g[-1]  # int_length^x g
    dw = (-m.tensionL * g[-1] + int_from_L) / P
    df0 = (diff_matrix(len(x) - 1, dx) @ f)[0]
    w0 = (g[0] - m.theta1 * f[0] - m.theta2 * df0 - m.theta4 * dw[0]) / m.theta3
    return np.concatenate([w0 + _running_integral(dw, dx), f])
