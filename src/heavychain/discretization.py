"""Finite-difference semi-discretisation of the closed loop.

State layout: (w_0..w_N, v_0..v_N) on a uniform grid; the boundary
velocities are carried by v_0 and v_N themselves.  The generator is a
sparse CSR matrix and uses the half-node divergence stencil

    ((P w')')_i  ~  (P_{i+1/2} (w_{i+1}-w_i) - P_{i-1/2} (w_i-w_{i-1})) / dx^2

in the interior and replaces the two end rows by the boundary dynamics
(payload: dv_N/dt = -w'(L); cart: dv_0/dt = feedback traces), both with
one-sided second-order stencils.  The natural and the energy inner
products are each defined once, as a list of weighted difference stencils
(trapezoid rule over D1, D2 and D1 P D1, plus the boundary terms).  Every
norm is weighted_norm(terms, states) of such a list; it, the inner
products and the quadratic forms apply these stencils matrix-free, from
the small grids of the dissipativity probe to the long grids of
:mod:`heavychain.resolvent_bvp`.  No Gram matrix is assembled:
the energy factor of the resolvent norms is a banded QR of the same
stencil rows (GeneratorSystem.chol_H).

The dissipativity check probes the Rayleigh residual

    r(z) = Re(z^H M A z) / (z^H M z)

over a reproducible family of smooth random states that satisfy the
generator's domain conditions (plus a subset of interior bumps whose
boundary terms vanish identically, so their exact residual is zero and
the sampled maximum isolates the discretisation error).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import sparse
from scipy.linalg import get_lapack_funcs

from heavychain.model import RescaledModel, inner_product_weights
from heavychain.operator import diff2_matrix, diff_matrix, trapezoid_weights

__all__ = [
    "Grid",
    "GeneratorSystem",
    "DissipativityReport",
    "KAPPA_DISSIPATIVITY",
    "assemble_generator",
    "generator_matrix",
    "sobolev_norms",
    "weighted_norm",
    "sample_states",
    "dissipativity_check",
    "norm_ratio_interval",
]

# Allowance constant for the Rayleigh residual bound max r <= kappa * dx.
# Calibrated once on the reference configuration at N = 100 (1000 smooth
# samples, seed 0: max residual / dx = 0.076) and frozen at 4x that value;
# the headroom keeps the linear-in-dx envelope above the residual on coarse
# grids, where the quadratic decay has not set in yet (0.148 at N = 50).
KAPPA_DISSIPATIVITY = 0.30


def _read_only(a):
    """a, flagged read-only: it is shared by every caller."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform grid with n intervals on [0, length]; equality is identity.

    make shares one grid per (n, length) from a cache of the last four (a
    run uses one or two; resolvent_bvp's long pair grids are built directly).
    x is read-only; d1, q and the sample basis are built once, kept read-only.
    """

    n: int
    length: float
    x: np.ndarray
    dx: float

    @classmethod
    @lru_cache(maxsize=4)
    def make(cls, n: int, length: float) -> "Grid":
        if n < 4:
            raise ValueError("need at least 4 intervals")
        x = _read_only(np.linspace(0.0, length, n + 1))
        return cls(n=n, length=length, x=x, dx=float(x[1] - x[0]))

    @property
    def size(self) -> int:
        # state dimension
        return 2 * (self.n + 1)

    @cached_property
    def d1(self) -> sparse.csr_array:
        """diff_matrix on this grid, its arrays read-only."""
        d1 = diff_matrix(self.n, self.dx)
        for a in (d1.data, d1.indices, d1.indptr):
            _read_only(a)
        return d1

    @cached_property
    def q(self) -> np.ndarray:
        """trapezoid_weights on this grid, read-only."""
        return _read_only(trapezoid_weights(self.n, self.dx))

    @cached_property
    def sample_basis(self) -> tuple:
        """(basis, trace0, traceL) of sample_states, read-only: rows of the
        bumps, the modes of _mode_table and two end quintics on x, and each
        mode's value, slope and curvature at x = 0 and at x = length."""
        ell, x = self.length, self.x
        modes = _mode_table(ell)
        u = x / ell
        # quintics with zero value and slope at both ends and unit second
        # x-derivative at x = 0 (p0) or at x = L (pL)
        p0_vals = 0.5 * ell**2 * u**2 * (1.0 - u) ** 3
        pL_vals = 0.5 * ell**2 * u**3 * (1.0 - u) ** 2
        basis = np.vstack([_bump_profiles(ell, x), [mode[0](x) for mode in modes],
                           p0_vals, pL_vals])
        traces = (np.array([mode[end] for mode in modes]) for end in (1, 2))
        return tuple(_read_only(a) for a in (basis, *traces))


def _row(mat: sparse.csr_array, i: int):
    """(columns, values) of the stored entries in row i of a CSR matrix."""
    lo, hi = mat.indptr[i], mat.indptr[i + 1]
    return mat.indices[lo:hi], mat.data[lo:hi]


def generator_matrix(m: RescaledModel, grid: Grid) -> sparse.csr_array:
    """Sparse semi-discrete generator, written straight to CSR (4N + 7
    entries, columns sorted): dw_i/dt = v_i; the cart end theta1 v(0) +
    theta2 v'(0) + theta3 w(0) + theta4 w'(0) (D1's first row on w and on
    v, theta3 and theta1 added to their first entries); ((P w')')_i in
    the interior; the payload end -w'(L)."""
    n, dx, x = grid.n, grid.dx, grid.x
    npts = n + 1
    P_half = m.tension(0.5 * (x[:-1] + x[1:]))  # tension at half nodes
    lo, hi = P_half[:-1], P_half[1:]
    k = np.arange(1, n)
    (c0, d0), (cn, dn) = _row(grid.d1, 0), _row(grid.d1, n)
    indices = np.concatenate([npts + np.arange(npts), c0, npts + c0,
                              (k[:, None] + [-1, 0, 1]).ravel(), cn])
    data = np.concatenate([np.ones(npts), [m.theta3 + m.theta4 * d0[0]], m.theta4 * d0[1:],
                           [m.theta1 + m.theta2 * d0[0]], m.theta2 * d0[1:],
                           np.column_stack([lo, -(lo + hi), hi]).ravel() / dx**2, -dn])
    indptr = np.concatenate([np.arange(npts + 1), npts + 6 + 3 * np.arange(npts)])
    return sparse.csr_array((data, indices, indptr), shape=(2 * npts, 2 * npts))


# --- the two discrete energies ------------------------------------------
#
# Each energy is one list of terms (block, s, T), and a state's energy is
# sum s |T y|^2 over them.  y is the block the term reads: w (block 0), v
# (block 1) or, for block None, the whole state z.  T is a product of
# sparse stencils applied right to left (the empty product is the
# identity), and s weighs each row of T.  The coupling 1/2 |j . z|^2 of
# psi = v_0 with the boundary functional of w is the one whole-state term
# of the energy form.  Every routine below takes a term list and nothing
# else: forms are evaluated matrix-free (see _form), and _energy_factor
# factors either energy by a banded QR of its rows, so no Gram matrix is
# assembled from them.

def _sobolev_terms(grid: Grid) -> list:
    """|w|^2_{H^2} + |v|^2_{H^1}, trapezoid rule over the stencils."""
    q, d1 = grid.q, grid.d1
    return [(0, q, ()), (0, q, (d1,)), (0, q, (diff2_matrix(grid.n, grid.dx),)),
            (1, q, ()), (1, q, (d1,))]


def _natural_terms(grid: Grid) -> list:
    """The plain Sobolev product plus the boundary velocities psi = v_0, xi = v_N."""
    ends = np.zeros(grid.n + 1)
    ends[[0, grid.n]] = 1.0
    return _sobolev_terms(grid) + [(1, ends, ())]


def _weighted_terms(grid: Grid, m: RescaledModel, gamma: float) -> list:
    """Terms of the energy inner product.

    w: the damped divergence (P w')' = D1 (P D1 w), the gradient with the
    payload-end slope, the cart-end value; v: the damped gradient, the
    velocity with the payload and cart velocities; last, on the whole
    state, the coupling 1/2 |j z|^2 with j z = psi - 2 alpha1 P(0) w'(0) +
    2 alpha2 w(0).  The coupling's 1/2 is carried by its row, j / sqrt(2)
    at unit weight, so the energy factor's row is j / sqrt(2) rounded
    entry by entry.  The feedback fixes alpha1 and alpha2
    (inner_product_weights); gamma is the one free weight.
    """
    alpha1, alpha2 = inner_product_weights(m)
    n = grid.n
    npts = n + 1
    q, d1 = grid.q, grid.d1
    p = m.tension(grid.x)
    pd1 = sparse.csr_array((d1.data * np.repeat(p, np.diff(d1.indptr)), d1.indices,
                            d1.indptr), shape=d1.shape)  # rows of D1 scaled by P
    e0, en = np.zeros(npts), np.zeros(npts)
    e0[0] = en[n] = 1.0
    cols, vals = _row(d1, 0)
    j = np.concatenate([[1.0, 2.0 * alpha2], -2.0 * alpha1 * m.tension0 * vals]) / np.sqrt(2.0)
    # the coupling row j / sqrt(2): D1's first row, w(0)'s weight summed into it, then psi
    j = sparse.csr_array((np.concatenate([[j[1] + j[2]], j[3:], j[:1]]), np.append(cols, npts),
                          [0, len(cols) + 1]), shape=(1, 2 * npts))
    return [(0, alpha1 * gamma * q, (d1, pd1)),
            (0, alpha1 * (p * q + gamma * m.tensionL * en), (d1,)),
            (0, alpha2 * e0, ()),
            (1, alpha1 * gamma * p * q, (d1,)),
            (1, alpha1 * (q + m.tensionL * en) + alpha2 * gamma * e0, ()),
            (None, np.ones(1), (j,))]


def _stencils(terms: list, z: np.ndarray):
    """(s, T y) for each term, z holding one state or states as columns.

    Applies the factors one by one: on long grids an assembled product
    such as D1 (P D1) loses digits like eps / dx^2, the factors do not.
    """
    npts = len(z) // 2
    for block, s, factors in terms:
        tz = z if block is None else z[block * npts:(block + 1) * npts]
        for f in reversed(factors):
            tz = f @ tz
        yield s, tz


def _form(terms: list, x: np.ndarray):
    """x^H M x = sum s |T y|^2, for one state or for each row of x."""
    out = 0.0
    for s, tx in _stencils(terms, np.asarray(x).T):
        out = out + s @ (np.conj(tx) * tx).real
    return out


def _forms(terms: list, x: np.ndarray, y: np.ndarray):
    """(Re(y^H M x), y^H M y) for one state or for each row of x and y,
    with each factor applied once, to the stacked columns [x | y]."""
    shape = np.shape(x)[:-1]
    x, y = np.atleast_2d(x), np.atleast_2d(y)
    k = len(x)
    cross = energy = 0.0
    for s, tz in _stencils(terms, np.concatenate([x, y]).T):
        tx, ty = tz[:, :k], tz[:, k:]
        cross = cross + s @ (np.conj(ty) * tx).real
        energy = energy + s @ (np.conj(ty) * ty).real
    return cross.reshape(shape), energy.reshape(shape)


def _interleaved(k: np.ndarray, npts: int) -> np.ndarray:
    """Position of state index k in the node-interleaved order (w_0, v_0,
    w_1, v_1, ...), in which the energy factor and the generator are banded."""
    return 2 * k - (2 * npts - 1) * (k >= npts)


def _permuted_entries(a: sparse.csr_array, perm: np.ndarray):
    """Row and column of each stored entry of the CSR a in the order perm."""
    return perm[np.repeat(np.arange(len(perm)), np.diff(a.indptr))], perm[a.indices]


# Width of the sliding panel of _energy_factor: each dense QR sees about
# twice as many rows as columns, plus the band it carries forward.
_PANEL = 64


def _energy_rows(terms: list, npts: int) -> sparse.csr_array:
    """G with G^T G = M, M the form of the terms: the rows sqrt(s) T of
    every term, columns in node-interleaved order (w_0, v_0, w_1, v_1,
    ...), rows sorted by their first column and zero rows dropped.  A
    negative weight raises LinAlgError, as a Cholesky factor of M would."""
    rows, cols, vals = [], [], []
    count = 0
    for block, s, factors in terms:
        if np.any(s < 0.0):
            raise np.linalg.LinAlgError("energy form is not positive definite")
        width, offset = (2 * npts, 0) if block is None else (npts, block * npts)
        t = sparse.eye_array(width, format="csr")
        for f in reversed(factors):
            t = f @ t
        t = sparse.coo_array(sparse.diags_array(np.sqrt(s)) @ t)
        rows.append(count + t.row)
        cols.append(_interleaved(offset + t.col, npts))
        vals.append(t.data)
        count += t.shape[0]
    g = sparse.csr_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(count, 2 * npts))
    g.eliminate_zeros()
    g = g[np.diff(g.indptr) > 0]
    g.sort_indices()
    return g[np.argsort(g.indices[g.indptr[:-1]], kind="stable")]


def _energy_factor(terms: list, npts: int) -> np.ndarray:
    """Upper-banded R with R^T R = Pi M Pi^T, M the form of the terms, by
    QR of their stencil rows G: no Gram is formed, so R carries cond(G)
    rounding, not cond(G)^2.  Returned in LAPACK upper band layout, shape
    (kb + 1, n) with R[i, j] at [kb + i - j, j]; kb is the widest row span
    of G (8 for the D1 (P D1) rows of the energy form).

    Dense QR on sliding panels of _PANEL columns: a panel stacks the rows
    carried from the last one with the rows of G that start in it, its
    first rows are final rows of R, the rest are carried on.  O(n) time
    and memory; the diagonal is made positive.
    """
    g = _energy_rows(terms, npts)
    ptr, col, val = g.indptr, g.indices, g.data
    first = col[ptr[:-1]]
    kb = int((col[ptr[1:] - 1] - first).max())
    n = 2 * npts
    band = np.zeros((kb + 1, n))
    carry = np.zeros((0, 0))
    r0 = 0
    for c0 in range(0, n, _PANEL):
        c1 = min(c0 + _PANEL, n)
        width = min(c1 + kb, n) - c0
        r1 = int(np.searchsorted(first, c1))
        panel = np.zeros((len(carry) + r1 - r0, width))
        panel[:len(carry), :carry.shape[1]] = carry
        local = np.repeat(np.arange(len(carry), len(panel)), np.diff(ptr[r0:r1 + 1]))
        panel[local, col[ptr[r0]:ptr[r1]] - c0] = val[ptr[r0]:ptr[r1]]
        r = np.linalg.qr(panel, mode="r")
        p = c1 - c0
        r[:p] *= np.where(np.diag(r)[:p] < 0.0, -1.0, 1.0)[:, None]
        for d in range(kb + 1):
            diag = np.diagonal(r[:p], d)
            band[kb - d, c0 + d:c0 + d + len(diag)] = diag
        carry = r[p:, p:]
        r0 = r1
    return band


def weighted_norm(terms: list, states: np.ndarray):
    """sqrt(z^H M z), M the form of a term list (clamped at 0), of a state
    or of each row of states: the library's one norm.  Matrix-free: on long
    grids an assembled M loses digits like eps / dx^4, the stencils do not.
    """
    return np.sqrt(np.maximum(_form(terms, states), 0.0))


def sobolev_norms(grid: Grid, states: np.ndarray) -> np.ndarray:
    """(|w|_{H^2}, |v|_{H^1}) of a state, or of each row of states, matrix-free."""
    terms = _sobolev_terms(grid)
    return np.stack([weighted_norm([t for t in terms if t[0] == block], states)
                     for block in (0, 1)], axis=-1)


@dataclass(frozen=True, eq=False)
class GeneratorSystem:
    """Sparse generator on one grid and the free weight gamma of its energy.

    The energy form M_H follows from (grid, model, gamma): the model fixes
    its other weights.  Its one representation is the term list energy
    (see _weighted_terms): the method weighted_norm hands it to the
    module's weighted_norm, chol_H factors it, and M_H itself is never
    assembled.  Both are built on first use and kept; the system is frozen,
    so dataclasses.replace is the only way to change a field, and the new
    system builds its own.
    """

    grid: Grid
    model: RescaledModel
    A: sparse.csr_array
    gamma: float

    @cached_property
    def energy(self) -> list:
        """The terms of the energy form M_H, see _weighted_terms."""
        return _weighted_terms(self.grid, self.model, self.gamma)

    @cached_property
    def chol_H(self) -> np.ndarray:
        """Upper-banded R with R^T R = Pi M_H Pi^T, Pi the node-interleaved
        order (w_0, v_0, w_1, v_1, ...), so |z|_H = |R Pi z|_2; in LAPACK
        upper band layout (kb + 1, n), see _energy_factor.  Built in O(n) on
        first use."""
        return _energy_factor(self.energy, self.grid.n + 1)

    @cached_property
    def _band(self):
        """(ab, kl, ku), read-only: Pi A Pi^T, Pi the node-interleaved order, in
        gbtrf's band layout ([i, j] at ab[kl + ku + i - j, j], under kl rows
        for the pivoting fill), from A's entries; built on first use."""
        n = self.grid.size
        i, j = _permuted_entries(self.A, _interleaved(np.arange(n), n // 2))
        kl, ku = int((i - j).max(initial=0)), int((j - i).max(initial=0))
        ab = np.bincount((kl + ku + i - j) * n + j, weights=self.A.data,
                         minlength=(2 * kl + ku + 1) * n).reshape(-1, n)
        return _read_only(ab), kl, ku

    def _shifted_solver(self, alpha, beta):
        """solve(b, trans=0) with alpha I + beta Pi A Pi^T (trans 1: its
        transpose, 2: its conjugate transpose), b in node-interleaved order, by
        one banded LU (?gbtrf, complex if alpha or beta is); None if singular."""
        band, kl, ku = self._band
        ab = (beta * band).astype(np.result_type(alpha, beta, 1.0), order="F")
        ab[kl + ku] += alpha
        gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        lu, piv, info = gbtrf(ab, kl, ku, overwrite_ab=1)
        if info > 0:
            return None
        return lambda b, trans=0: gbtrs(lu, kl, ku, b, piv, trans=trans)[0]

    def weighted_norm(self, states: np.ndarray):
        """|z|_H of a state, or of each row of states: weighted_norm of energy."""
        return weighted_norm(self.energy, states)


def assemble_generator(m: RescaledModel, n: int, gamma: float | None = None) -> GeneratorSystem:
    """Build the sparse generator on n intervals, with the energy weight gamma.

    gamma defaults to the certified value from the admissibility report;
    pass it explicitly to probe non-admissible coefficient sets.
    """
    if gamma is None:
        rep = m.admissibility
        if not rep.admissible:
            raise ValueError(
                "model not admissible (%s); pass gamma explicitly" % "; ".join(rep.violations)
            )
        gamma = rep.gamma
    grid = Grid.make(n, m.length)
    return GeneratorSystem(grid=grid, model=m, A=generator_matrix(m, grid), gamma=gamma)


# --- smooth random states -------------------------------------------------
#
# Mode dictionary with hand-coded end traces (value, first, second
# derivative at x = 0 and x = length).  Coefficients are drawn once from
# the seed, so the same continuous functions are sampled on every grid.

def _mode_table(ell: float):
    pi = np.pi
    modes = []

    def add(fn, t0, tL):
        modes.append((fn, t0, tL))

    add(lambda x: np.ones_like(x), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    add(lambda x: x / ell, (0.0, 1.0 / ell, 0.0), (1.0, 1.0 / ell, 0.0))
    add(lambda x: (x / ell) ** 2, (0.0, 0.0, 2.0 / ell**2), (1.0, 2.0 / ell, 2.0 / ell**2))
    for k in (1, 2, 3):
        wk = k * pi / ell
        add(
            lambda x, wk=wk: np.sin(wk * x),
            (0.0, wk, 0.0),
            (np.sin(wk * ell), wk * np.cos(wk * ell), -wk**2 * np.sin(wk * ell)),
        )
    for k in (1, 2):
        wk = k * pi / ell
        add(
            lambda x, wk=wk: np.cos(wk * x),
            (1.0, 0.0, -wk**2),
            (np.cos(wk * ell), -wk * np.sin(wk * ell), -wk**2 * np.cos(wk * ell)),
        )
    return modes


def _bump_profiles(ell: float, x: np.ndarray):
    # (u(1-u))^3 * mode: value and first two derivatives vanish at both ends
    u = x / ell
    envelope = (u * (1.0 - u)) ** 3
    return [
        envelope * np.sin((j + 1) * np.pi * u) for j in range(3)
    ] + [envelope]


def sample_states(sys: GeneratorSystem, count: int, seed: int = 0) -> np.ndarray:
    """Smooth random states compatible with the generator's domain.

    Returns an array of shape (count, 2*(n+1)).  A quarter of the draws
    are interior bumps with vanishing boundary traces; the rest are
    free mode combinations corrected by two end-localised quintics so that
    (P w')'(L) = -w'(L) and (P w')'(0) equals the feedback functional.
    """
    m, grid = sys.model, sys.grid
    P = m.tension
    rng = np.random.default_rng(seed)
    # basis rows: bumps, modes, the two quintics (Grid.sample_basis)
    basis, trace0, traceL = grid.sample_basis
    n_modes = len(trace0)
    nb = len(basis) - n_modes - 2

    n_neutral = int(round(0.25 * count))
    # one state's draws: real and imaginary w coefficients, then those of v;
    # all bump states come first, then all mode states
    bump_c = rng.standard_normal((n_neutral, 4, nb))
    mode_c = rng.standard_normal((count - n_neutral, 4, n_modes))
    bw, bv = (bump_c[:, k] + 1j * bump_c[:, k + 1] for k in (0, 2))
    cw, cv = (mode_c[:, k] + 1j * mode_c[:, k + 1] for k in (0, 2))
    # analytic end traces of the uncorrected combinations
    w0, dw0, ddw0 = (cw @ trace0).T
    wL, dwL, ddwL = (cw @ traceL).T
    v0, dv0 = (cv @ trace0[:, :2]).T
    P0, PL = float(P(0.0)), float(P(grid.length))
    div0 = P.slope * dw0 + P0 * ddw0
    divL = P.slope * dwL + PL * ddwL
    force = m.theta1 * v0 + m.theta2 * dv0 + m.theta3 * w0 + m.theta4 * dw0

    # coefficients (state, w|v, basis row)
    coef = np.zeros((count, 2, len(basis)), dtype=complex)
    coef[:n_neutral, 0, :nb], coef[:n_neutral, 1, :nb] = bw, bv
    mc = coef[n_neutral:]
    mc[:, 0, nb:nb + n_modes], mc[:, 1, nb:nb + n_modes] = cw, cv
    mc[:, 0, -2] = (force - div0) / P0
    mc[:, 0, -1] = (-dwL - divL) / PL
    return (coef @ basis).reshape(count, grid.size)


@dataclass(frozen=True)
class DissipativityReport:
    max_residual: float
    bound: float
    kappa: float
    dx: float
    n_samples: int
    seed: int
    admissible: bool
    satisfied: bool

    @property
    def certified(self) -> bool:
        return self.admissible and self.satisfied


def _check_samples(samples: int) -> None:
    # an empty family has no maximum or range to report
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples!r}")


def dissipativity_check(sys: GeneratorSystem, samples: int = 1000,
                        seed: int = 0) -> DissipativityReport:
    """Sampled check that the generator is dissipative in the energy form.

    Passes when the largest Rayleigh residual stays below
    KAPPA_DISSIPATIVITY * dx; the
    residual of every admissible configuration tends to zero from above
    under grid refinement, while an inadmissible coefficient set produces
    order-one positive residuals for generic states.
    """
    _check_samples(samples)
    states = sample_states(sys, samples, seed=seed)
    numerator, denominator = _forms(sys.energy, (sys.A @ states.T).T, states)
    resid = numerator / denominator
    max_r = float(resid.max())
    admissible = sys.model.admissibility.admissible
    bound = KAPPA_DISSIPATIVITY * sys.grid.dx
    return DissipativityReport(
        max_residual=max_r,
        bound=bound,
        kappa=KAPPA_DISSIPATIVITY,
        dx=sys.grid.dx,
        n_samples=samples,
        seed=seed,
        admissible=admissible,
        satisfied=max_r <= bound,
    )


def norm_ratio_interval(sys: GeneratorSystem, samples: int = 1000, seed: int = 0):
    """Range of |z|_H / |z|_natural over the smooth sample family."""
    _check_samples(samples)
    states = sample_states(sys, samples, seed=seed)
    ratios = sys.weighted_norm(states) / weighted_norm(_natural_terms(sys.grid), states)
    return float(ratios.min()), float(ratios.max())
