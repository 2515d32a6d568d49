"""Grid-level building blocks of the generator.

A closed-loop state is z = (w, v, xi, psi) with deflection w, velocity v
and the two boundary velocities xi = v(length), psi = v(0).  On the grid
it is one vector (w_0..w_N, v_0..v_N), so xi and psi are v_N and v_0.
The generator acts as

    z  |->  ( v,  (P w')',  -w'(length),  feedback(z) )

subject to the domain conditions (P w')'(length) = -w'(length) and
(P w')'(0) = feedback(z).  This module holds the sparse second-order
difference stencils (central in the interior, one-sided at the ends)
and the trapezoid weights.  The two discrete energies are defined once,
from these stencils, in :mod:`heavychain.discretization`.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

__all__ = [
    "diff_matrix",
    "diff2_matrix",
    "trapezoid_weights",
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
