"""Continuous-frequency resolvent solves and uniform kernel estimates.

Everything here works at the ODE level, independently of the matrix
discretization, so the two can audit each other, except below SMALL_TAU:
there a solve is resolvent_apply_discrete on the generator of
COLLOCATION_CELLS = 2000 cells, the matrix route on a finer grid.  The
resolvent equation (A - i tau)(w, v) = (f, g) with trace-consistent
boundary data reduces to a second-order boundary value problem for
y~ = P w':

    y~'' + (tau^2 / P) y~ = g' + i tau f',
    y~(L) + P(L) y~'(L) = 0,
    (gamma1 / P(0)) y~(0) - (gamma2 / tau^2) y~'(0) = R1,

with gamma1 = theta4 + i tau theta2 and gamma2 = theta3 + tau^2 +
i tau theta1.  An affine lift h absorbs the inhomogeneous end data, a
fundamental pair (phi1, phi2) of the homogeneous oscillator supplies the
Green kernel J(x, t) = (phi1(x) phi2(t) - phi2(x) phi1(t)) / W with
constant Wronskian W = tau, and two boundary conditions fix the free
coefficients c1, c2.  The hanging chain's tension is affine, so the pair
is evaluated in closed form from the two numbers of its AffineTension,
P(0) and P': with u = 2 tau sqrt(P) / |P'| the oscillator
is solved by sqrt(P) Z1(u), Z in {J, Y}, whose slope is sign(P') tau Z0(u)
(the classical hanging-chain solution; sines and cosines when P' = 0).
On a grid whose u stays at or above 25 along the whole chain, J0, J1, Y0
and Y1 come from Hankel's large-argument expansion (DLMF 10.17), one
sine and one cosine per node and short polynomials in u^-2 truncated at
the first term below 2^-56 (the kernel study and the continuous sweep
above tau = 4 on the reference model); scalars, which the boundary
determinant and the injectivity margins evaluate, and smaller u keep
scipy's j0, j1, y0 and y1.
The fields are then recovered through

    w = (g + i tau f - y~') / tau^2,      v = f + i tau w.

solve_resolvent_bvp reports the defect of all four lines of the original
system, measured with fourth-order finite differences independent of the
reconstruction; the sweep keeps only the gains and starts at
SMALL_TAU.  Below |tau| = SMALL_TAU a solve skips the tau^{-2} division
and solves the coupled system directly by collocation on a fine grid.
Data f, g and their derivatives are callables on [0, L] (the sweep takes
each datum as one sampler x -> (f, g, f', g')); a solution comes back
as the arrays w, v on its grid x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from itertools import groupby

import numpy as np
from scipy.special import factorial, j0, j1, y0, y1

from heavychain.discretization import (Grid, _read_only, _weighted_terms, assemble_generator,
                                       sobolev_norms, weighted_norm)
from heavychain.model import AdmissibilityReport, AffineTension, RescaledModel
from heavychain.spectral import ResolventSample, resolvent_apply_discrete

__all__ = [
    "TAU_CAP",
    "SMALL_TAU",
    "FundamentalPair",
    "ResolventSolution",
    "KernelDecayStudy",
    "fundamental_pair",
    "greens_apply",
    "c0_coefficient",
    "injectivity_check",
    "solve_resolvent_bvp",
    "denominator_values",
    "random_smooth_data",
    "continuous_resolvent_sweep",
    "kernel_decay_study",
]

# Beyond this frequency the cost of resolving every wavelength grows
# linearly while the uniform estimates are already flat; refuse rather
# than silently under-resolve.
TAU_CAP = 1.0e3

# Below this frequency the tau^{-2} division in the reconstruction is
# ill-conditioned: a solve takes a direct collocation route, and the sweep
# refuses.
SMALL_TAU = 0.1

# Smallest output grid: keeps fourth-order residual audits meaningful at
# low frequency where the wavelength count stops driving the resolution.
MIN_GRID = 1600

# Cells of the generator grid that the small-frequency collocation solve uses.
COLLOCATION_CELLS = 2000

# Accepted Wronskian drift of a fundamental pair, relative to max(1, tau).
DRIFT_TOL = 1e-8

# Nodes per block of kernel_decay_study's walk along a pair grid (598 187
# nodes at TAU_CAP): the study holds the grid and a few dozen arrays of
# this length, not a few dozen of the grid's.
_BLOCK = 16384


def _fd_weights(offsets: np.ndarray, m: int) -> np.ndarray:
    """Stencil weights for the m-th derivative from node offsets (unit spacing)."""
    k = np.arange(len(offsets))
    moments = offsets[None, :] ** k[:, None] / factorial(k)[:, None]
    rhs = np.zeros(len(offsets))
    rhs[m] = 1.0
    return np.linalg.solve(moments, rhs)


@cache
def _fd4_weights(m: int) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """`_fd4`'s central weights, and its weights for end rows 0, 1 and -1, -2."""
    edge = np.arange(6.0)
    return (_fd_weights(np.arange(-2.0, 3.0), m),
            [_fd_weights(edge - i, m) for i in (0, 1)],
            [_fd_weights(i - edge, m) for i in (0, 1)])


def _fd4(y: np.ndarray, dx: float, m: int = 1) -> np.ndarray:
    """Fourth-order m-th derivative (m = 1 or 2) on a uniform grid.

    Central five-point stencils inside, six-point one-sided stencils on
    the two rows at each end, so the order holds up to the boundary.
    """
    y = np.asarray(y)
    out = np.empty_like(y, dtype=complex if np.iscomplexobj(y) else float)
    wc, w_edge, w_mirr = _fd4_weights(m)
    out[2:-2] = sum(w * y[2 + o:len(y) - 2 + o] for w, o in zip(wc, range(-2, 3)))
    for i in (0, 1):
        out[i] = w_edge[i] @ y[:6]
        out[-1 - i] = w_mirr[i] @ y[:-7:-1]
    return out / dx ** m


@dataclass(frozen=True)
class FundamentalPair:
    """Real solutions of y'' + (tau^2/P) y = 0 normalised at x = 0.

    phi1 starts as (0, tau), phi2 as (1, 0), so the Wronskian
    phi1' phi2 - phi1 phi2' equals tau along the whole interval.
    """

    tau: float
    x: np.ndarray
    phi1: np.ndarray
    phi1p: np.ndarray
    phi2: np.ndarray
    phi2p: np.ndarray
    wronskian_drift: float


# Smallest argument u of the Bessel basis from which array arguments take
# Hankel's expansion (_hankel_basis); scalars and smaller u take scipy's
# j0, j1, y0 and y1.
_HANKEL_FROM = 25.0


def _hankel_coefficient(nu: int, k: int) -> float:
    """Hankel's a_k(nu) = prod_{j <= k} (4 nu^2 - (2j - 1)^2) / (k! 8^k),
    correctly rounded (an exact ratio of integers)."""
    return (math.prod(4 * nu * nu - (2 * j - 1) ** 2 for j in range(1, k + 1))
            / (math.factorial(k) * 8 ** k))


# a_k(0) and a_k(1), k < 32: at u = _HANKEL_FROM the terms a_k u^-k of
# both orders fall below 2^-56 from k = 19 on
_HANKEL_A = [[_hankel_coefficient(nu, k) for k in range(32)] for nu in (0, 1)]


def _hankel_series(nu: int, u_min: float) -> tuple[list[float], list[float]]:
    """Coefficients, in w = u^-2, of Hankel's P_nu(u) and of u Q_nu(u)
    (DLMF 10.17.3): the terms (-1)^(k//2) a_k(nu) u^-k up to the first one
    below 2^-56 at u = u_min, which DLMF 10.17(iii) makes a bound on the
    remainder of each series for every u >= u_min."""
    terms = []
    for k, a in enumerate(_HANKEL_A[nu]):
        if abs(a) * (1.0 / u_min) ** k < 2.0 ** -56:
            return terms[0::2], terms[1::2]
        terms.append(a if k % 4 < 2 else -a)
    raise ValueError("Hankel's expansion needs u >= %g, got %g" % (_HANKEL_FROM, u_min))


def _horner(coefficients: list[float], w: np.ndarray) -> np.ndarray:
    """sum_m coefficients[m] w^m, by Horner's rule in one new array."""
    out = np.full_like(w, coefficients[-1])
    for c in coefficients[-2::-1]:
        out *= w
        out += c
    return out


def _hankel_basis(tau: float, p0: float, slope: float, x: np.ndarray, series):
    """(sqrt(P) J1(u), dtau J0(u), sqrt(P) Y1(u), dtau Y0(u)), u = 2 tau
    sqrt(P) / |slope| and dtau = sign(slope) tau, for P = p0 + slope x at
    x = 0 and then at each node of x, by Hankel's expansion with series =
    (_hankel_series(0, .), _hankel_series(1, .)).  With the phase
    chi = u - pi/4 and the amplitude sqrt(2 / (pi u)),

        J0 = amp (cos chi P0 - sin chi Q0),  Y0 = amp (sin chi P0 + cos chi Q0),
        J1 = amp (sin chi P1 + cos chi Q1),  Y1 = amp (sin chi Q1 - cos chi P1):

    one sine and one cosine per node, order 1's phase chi - pi/2 taking
    them swapped.  Works in place, ten arrays of x's length at the peak, as
    many as the scipy route holds.
    """
    (p0s, q0s), (p1s, q1s) = series
    root = np.empty(x.size + 1)
    root[0] = p0
    np.multiply(x, slope, out=root[1:])
    root[1:] += p0
    np.sqrt(root, out=root)
    cos = np.multiply(root, 2.0 * tau / abs(slope))  # u for now
    v = np.divide(1.0, cos)
    w = np.multiply(v, v)
    a, b, ap, bp = (_horner(c, w) for c in (p1s, q1s, p0s, q0s))  # P1, Q1, P0, Q0
    b *= v
    bp *= v
    cos -= 0.25 * np.pi
    sin = np.sin(cos)
    np.cos(cos, out=cos)
    t, t2 = np.multiply(cos, a, out=w), np.multiply(cos, b)  # cos P1, cos Q1
    a *= sin
    a += t2
    b *= sin
    b -= t
    np.multiply(sin, ap, out=t)  # sin P0
    np.multiply(sin, bp, out=t2)  # sin Q0
    ap *= cos
    ap -= t2
    bp *= cos
    bp += t
    amp = np.sqrt(np.multiply(v, 2.0 / np.pi, out=v), out=v)
    root *= amp
    a *= root
    b *= root
    amp *= np.sign(slope) * tau
    ap *= amp
    bp *= amp
    return a, ap, b, bp


def _pair_values(tau: float, tension: AffineTension, length: float, x):
    """(phi1, phi1', phi2, phi2') at x for the affine tension P = p0 + slope*x
    of a chain of this length.

    The Bessel basis sqrt(P) Z1(u), u = 2 tau sqrt(P) / |slope|, is
    recombined so that phi1 = (0, tau) and phi2 = (1, 0) at x = 0.  An
    array x takes Hankel's expansion when u >= _HANKEL_FROM on the whole
    chain [0, length], with the terms that its smallest u there needs, the
    normalisation node x = 0 riding in front of x; so the route and the
    terms come from tau and the chain, never from x, and any split of a
    grid gives the same floats node by node.  A scalar x, and every x at
    smaller u, take scipy's j0, j1, y0 and y1.
    """
    x = np.asarray(x, dtype=float)
    p0, slope = tension.value0, tension.slope
    if slope == 0.0:
        k = tau / np.sqrt(p0)
        sin, cos = np.sin(k * x), np.cos(k * x)
        return np.sqrt(p0) * sin, tau * cos, cos, -k * sin

    u_min = 2.0 * tau * np.sqrt(min(p0, p0 + slope * length)) / abs(slope)
    if x.ndim and u_min >= _HANKEL_FROM:
        series = (_hankel_series(0, u_min), _hankel_series(1, u_min))
        basis = _hankel_basis(tau, p0, slope, x, series)
        (a0, ap0, b0, bp0), (a, ap, b, bp) = zip(*((z[0], z[1:]) for z in basis))
    else:
        def basis(p):
            root = np.sqrt(p)
            u = 2.0 * tau * root / abs(slope)
            dtau = np.sign(slope) * tau
            return root * j1(u), dtau * j0(u), root * y1(u), dtau * y0(u)

        a, ap, b, bp = basis(p0 + slope * x)
        a0, ap0, b0, bp0 = basis(p0)
    det = a0 * bp0 - ap0 * b0
    return (tau * (a0 * b - b0 * a) / det, tau * (a0 * bp - b0 * ap) / det,
            (bp0 * a - ap0 * b) / det, (bp0 * ap - ap0 * bp) / det)


def _grid_cells(tau: float, tension: AffineTension, length: float,
                points_per_wavelength: int) -> int:
    """Cells of the pair's grid at tau: MIN_GRID, or more to put
    points_per_wavelength nodes on the shortest wavelength.

    Refuses a tau outside (0, TAU_CAP], NaN included, and a tension that
    is not positive on [0, length].
    """
    if not 0.0 < tau <= TAU_CAP:
        raise ValueError(
            "tau=%g outside (0, TAU_CAP]=(0, %g]: negative frequencies by conjugation, "
            "and beyond the cap cost grows linearly in tau with no new information"
            % (tau, TAU_CAP))
    p0, slope = tension.value0, tension.slope
    pmin = min(p0, p0 + slope * length)
    if pmin <= 0.0:
        raise ValueError("tension must be positive on [0, length]")
    wavelength = 2.0 * np.pi * np.sqrt(pmin) / tau
    return max(MIN_GRID, int(np.ceil(points_per_wavelength * length / wavelength)))


def _pair_grid(tau: float, tension: AffineTension, length: float,
               points_per_wavelength: int) -> np.ndarray:
    """The uniform grid on [0, length] of the pair at tau (_grid_cells cells)."""
    cells = _grid_cells(tau, tension, length, points_per_wavelength)
    return np.linspace(0.0, length, cells + 1)


def _wronskian_drift(tau: float, phi1, phi1p, phi2, phi2p) -> float:
    return float(np.max(np.abs(phi1p * phi2 - phi1 * phi2p - tau)))


def _check_drift(drift: float, tau: float, tol: float) -> None:
    if drift > tol * max(1.0, tau):
        raise RuntimeError(
            "Wronskian drift %.3e exceeds tolerance %.3e at tau=%g; "
            "lower tau" % (drift, tol * max(1.0, tau), tau)
        )


def _pair_on(tau: float, tension: AffineTension, length: float, x: np.ndarray,
             tol: float) -> FundamentalPair:
    """The pair at tau of a chain of this length on the grid x, refused beyond
    a drift of tol (see _check_drift)."""
    phis = _pair_values(tau, tension, length, x)
    drift = _wronskian_drift(tau, *phis)
    _check_drift(drift, tau, tol)
    return FundamentalPair(float(tau), x, *phis, wronskian_drift=drift)


def fundamental_pair(tau: float, tension: AffineTension, length: float,
                     tol: float = DRIFT_TOL,
                     points_per_wavelength: int = 400) -> FundamentalPair:
    """Closed-form oscillator pair sampled on a wavelength-resolving grid.

    The affine tension P(x) = value0 + slope*x must be positive on
    [0, length].  tol bounds the accepted Wronskian drift (relative to tau).
    """
    return _pair_on(tau, tension, length,
                    _pair_grid(tau, tension, length, points_per_wavelength), tol)


def _cumulative(y: np.ndarray, dx: float, rows: slice = slice(None),
                carry: tuple | None = None) -> tuple[np.ndarray, tuple]:
    """Fourth-order running integral from x = 0 with a smooth error profile.

    Trapezoid plus the Euler-Maclaurin endpoint correction.  Unlike a
    cumulative Simpson rule, the quadrature defect has no odd/even node
    sawtooth, so finite-difference audits of downstream quantities do not
    amplify it by 1/dx^2.

    y samples a window of a uniform grid of spacing dx, and the integral
    comes back on the window's rows; the nodes around them are the reach
    of the end correction's stencils.  A window that starts at x = 0 takes
    carry None; a later one takes the carry that the window before it
    returned (the integral at the node before rows, and y'(0)).  Returns
    the integral on rows and the carry for the next window.
    """
    r0, r1, _ = rows.indices(len(y))
    yp = _fd4(y, dx)
    if carry is None:
        yp0 = yp[0]
        running = np.concatenate([[0.0], np.cumsum((y[1:r1] + y[:r1 - 1]) * (0.5 * dx))])
    else:
        last, yp0 = carry
        running = np.cumsum(np.concatenate(
            [[last], (y[r0:r1] + y[r0 - 1:r1 - 1]) * (0.5 * dx)]))[1:]
    return running - (dx * dx / 12.0) * (yp[r0:r1] - yp0), (running[-1], yp0)


def _kernel_integrals(fv, phis, tau: float, dx: float, rows: slice = slice(None),
                      carry: tuple = (None, None)):
    """I0 and I1 on the rows of a window of the pair's grid, from the
    samples fv of f and phis = (phi1, phi1', phi2, phi2') on the window;
    carry continues both running quadratures (see _cumulative).  Returns
    (I0, I1, carry)."""
    cum1, carry1 = _cumulative(fv * phis[0], dx, rows, carry[0])
    cum2, carry2 = _cumulative(fv * phis[2], dx, rows, carry[1])
    phi1, phi1p, phi2, phi2p = (p[rows] for p in phis)
    i0 = (phi1 * cum2 - phi2 * cum1) / tau
    i1 = (phi1p * cum2 - phi2p * cum1) / tau
    return i0, i1, (carry1, carry2)


def greens_apply(fv: np.ndarray, pair: FundamentalPair) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative kernel integrals I0 = int_0^x f J and I1 = int_0^x f dJ/dx
    of the samples fv of f on the pair's grid.

    The kernel J(x,t) separates in (x, t), so both integrals reduce to two
    running quadratures against phi1 and phi2.
    """
    phis = (pair.phi1, pair.phi1p, pair.phi2, pair.phi2p)
    i0, i1, _ = _kernel_integrals(fv, phis, pair.tau, float(pair.x[1] - pair.x[0]))
    return i0, i1


def c0_coefficient(tau: float, m: RescaledModel) -> complex:
    """Slope-to-value ratio forced on a square-integrable eigencandidate."""
    tau = float(tau)  # a NumPy scalar would divide complex numbers otherwise
    gamma1 = m.theta4 + 1j * tau * m.theta2
    gamma2 = m.theta3 + tau * tau + 1j * tau * m.theta1
    return -gamma2 / gamma1


def _admitted(m: RescaledModel, need: str = "resolvent pipeline needs an admissible model"):
    """m's admissibility report; refuses, citing need, a model that is not admissible."""
    if not m.admissibility.admissible:
        raise ValueError("%s: %s" % (need, "; ".join(m.admissibility.violations)))
    return m.admissibility


def injectivity_check(tau: float, m: RescaledModel) -> float:
    """Closed-form certificate that i*tau is not an eigenvalue.

    Solves (P w')' + tau^2 w = 0 from the cart end with the forced initial
    data (1, c0): the flux u = P w' obeys the oscillator of the pair with
    u(0) = P(0) c0 and u'(0) = -tau^2, so u = P(0) c0 phi2 - tau phi1 and
    w = -u' / tau^2.  Returns the defect of the payload condition
    w'(L) = tau^2 w(L), which is (tau / P(L)) |N(tau)| with N the boundary
    determinant of the resolvent pipeline.  A positive margin rules out a nontrivial kernel
    at this frequency; the admissibility hypotheses keep Im(c0) away from
    zero, which is what makes the certificate meaningful.
    """
    _admitted(m, "injectivity margin needs an admissible coefficient set "
                 "(otherwise the forced slope can be real)")
    if not math.isfinite(tau):
        raise ValueError("tau=%g: the margin needs a finite frequency" % tau)
    tau = abs(float(tau))
    if tau == 0.0:
        # at zero frequency invertibility is the closed-form inverse's
        # existence, governed by theta3 alone
        return abs(m.theta3)
    # w'(L) - tau^2 w(L) = (u + P u')(L) / P(L) with w' = u / P and
    # tau^2 w = -u', and (u + P u')(L) = -tau N(tau)
    return tau / float(m.tensionL) * float(abs(_denominator(tau, m)))


@dataclass
class ResolventSolution:
    """Reconstructed resolvent pair on the grid x, with its audit trail."""

    tau: float
    x: np.ndarray
    w: np.ndarray
    v: np.ndarray
    c1: complex  # c1, c2, a0, a1: NaN on the collocation route
    c2: complex
    a0: complex
    a1: complex
    denominator: complex  # N(tau), closed form; NaN at tau = 0
    norms: tuple[float, float]  # (|w|_H2, |v|_H1)
    data_norms: tuple[float, float]
    residual: float  # max line defect relative to the data norms
    residual_lines: tuple[float, float, float, float]
    gain: float
    method: str  # "pipeline" or "collocation"


def _line_residuals(x, wv, vv, fv, gv, tau, m):
    """Defects of the four lines of the resolvent system, sup norms."""
    dx = float(x[1] - x[0])
    pv = m.tension(x)
    wp = _fd4(wv, dx)
    flux_div = _fd4(pv, dx) * wp + pv * _fd4(wv, dx, m=2)
    vp = _fd4(vv, dx)
    r_a = float(np.max(np.abs(vv - 1j * tau * wv - fv)))
    r_b = float(np.max(np.abs(flux_div[1:-1] - 1j * tau * vv[1:-1] - gv[1:-1])))
    r_c = float(np.abs(-wp[-1] - 1j * tau * vv[-1] - gv[-1]))
    force = m.theta1 * vv[0] + m.theta2 * vp[0] + m.theta3 * wv[0] + m.theta4 * wp[0]
    r_d = float(np.abs(force - 1j * tau * vv[0] - gv[0]))
    return r_a, r_b, r_c, r_d


def _gain(norms) -> float:
    """|(w, v)| / |(f, g)| from the energy norms of states = ((w, v), (f, g)),
    0 for zero data: the norm of the matrix side's operator norms, so the
    two sweeps compare directly."""
    sol, dat = norms
    return float(sol / dat) if dat > 0.0 else 0.0


def _package(x, wv, vv, fv, gv, tau, m, rep: AdmissibilityReport,
             c1, c2, a0, a1, den, method):
    lines = _line_residuals(x, wv, vv, fv, gv, tau, m)
    grid = Grid(n=len(x) - 1, length=float(x[-1]), x=x, dx=float(x[1] - x[0]))
    states = np.stack([np.concatenate([wv, vv]), np.concatenate([fv, gv])])
    # the Sobolev norms only scale the residual; the gain is in the energy norm
    sol_norm, data_norms = (tuple(map(float, pair)) for pair in sobolev_norms(grid, states))
    data_norm = sum(data_norms)
    residual = max(lines) / data_norm if data_norm > 0.0 else max(lines)
    return ResolventSolution(
        tau=float(tau), x=x, w=wv, v=vv,
        c1=complex(c1), c2=complex(c2), a0=complex(a0), a1=complex(a1),
        denominator=complex(den), norms=sol_norm, data_norms=data_norms,
        residual=float(residual), residual_lines=lines,
        gain=_gain(weighted_norm(_weighted_terms(grid, m, rep.gamma), states)),
        method=method,
    )


def _solve_collocation(f, g, tau, m, rep):
    sys = assemble_generator(m, COLLOCATION_CELLS)
    x = sys.grid.x
    fv, gv = np.asarray(f(x)), np.asarray(g(x))
    z = -resolvent_apply_discrete(sys, tau, np.concatenate([fv, gv]))
    wv, vv = z[:sys.grid.n + 1], z[sys.grid.n + 1:]
    nan = complex(float("nan"), float("nan"))  # N(tau)'s closed form divides by tau
    return _package(x, wv, vv, fv, gv, tau, m, rep, nan, nan, nan, nan,
                    _denominator(tau, m) if tau > 0.0 else nan, "collocation")


def _boundary_determinant(tau, m, phi1, phi1p, phi2, phi2p):
    """Boundary determinant N(tau) from the pair's values at x = L.

    Returns (c2/c1, N, scale) where scale is the size of the terms that
    N sums, against which a vanishing N signals resonance.
    """
    pl = float(m.tensionL)
    ratio = -float(m.tension0) * c0_coefficient(tau, m) / tau
    den = phi1 + pl * phi1p + ratio * (phi2 + pl * phi2p)
    scale = abs(phi1) + pl * abs(phi1p) + abs(ratio) * (abs(phi2) + pl * abs(phi2p))
    return ratio, den, scale


def solve_resolvent_bvp(f, g, tau: float, m: RescaledModel, *, f_prime, g_prime,
                        pair: FundamentalPair | None = None) -> ResolventSolution:
    """Solve (A - i tau)(w, v) = (f, g) at the continuous level, audited.

    The data f, g and their derivatives f_prime, g_prime are callables on
    [0, length].  |tau| < SMALL_TAU falls back to a direct collocation
    solve; negative tau is handled by conjugation symmetry.
    """
    rep, tau = _admitted(m), float(tau)  # as a ResolventSample stores it
    if tau < 0.0:
        cf, cg, cfp, cgp = (lambda x, h=h: np.conj(h(x)) for h in (f, g, f_prime, g_prime))
        conj = solve_resolvent_bvp(cf, cg, -tau, m, pair=pair, f_prime=cfp, g_prime=cgp)
        return replace(conj, tau=float(tau), **{k: np.conj(getattr(conj, k)) for k in
                                                ("w", "v", "c1", "c2", "a0", "a1", "denominator")})
    if tau < SMALL_TAU:
        return _solve_collocation(f, g, tau, m, rep)

    if pair is None:
        pair = fundamental_pair(tau, m.tension, m.length)
    elif abs(pair.tau - tau) > 1e-12 * max(1.0, tau):
        raise ValueError("supplied fundamental pair was built for another tau")
    fv, gv, fpv, gpv = (np.asarray(h(pair.x)) for h in (f, g, f_prime, g_prime))
    wv, vv, *coefficients = _pipeline(tau, pair, fv, gv, fpv, gpv, m)
    return _package(pair.x, wv, vv, fv, gv, tau, m, rep, *coefficients, "pipeline")


def _pipeline(tau: float, pair: FundamentalPair, fv, gv, fpv, gpv, m: RescaledModel):
    """solve_resolvent_bvp's pipeline, unaudited, from the samples of f, g, f'
    and g' on the pair's grid: (w, v, c1, c2, a0, a1, N).  Refuses as it does."""
    _admitted(m)
    theta1, theta2, theta3, theta4 = m.thetas
    p0, pl, length = float(m.tension0), float(m.tensionL), m.length
    pv = m.tension(pair.x)
    tau2 = tau * tau
    gamma1 = theta4 + 1j * tau * theta2
    gamma2 = theta3 + tau2 + 1j * tau * theta1
    gv_c = gv.astype(complex)
    big_g = gv_c + 1j * tau * fv
    big_gp = gpv + 1j * tau * fpv

    r1 = (-(gv_c[0] / tau2) * (theta3 + 1j * tau * theta1)
          - (1j * theta3 / tau) * fv[0] - theta2 * fpv[0])
    a1 = -tau2 * p0 * r1 / (gamma1 * tau2 * (length + pl) + p0 * gamma2)
    a0 = -(length + pl) * a1
    rhs_h = big_gp - (tau2 / pv) * (a1 * pair.x + a0)  # the lift h = a1 x + a0

    i0, i1 = greens_apply(rhs_h, pair)
    ratio, den, den_scale = _boundary_determinant(
        tau, m, pair.phi1[-1], pair.phi1p[-1], pair.phi2[-1], pair.phi2p[-1])
    if abs(den) <= 1e-10 * max(den_scale, 1.0):
        raise RuntimeError(
            "near-resonance: boundary determinant %.3e at tau=%g" % (abs(den), tau)
        )
    c1 = -(i0[-1] + pl * i1[-1]) / den
    c2 = ratio * c1
    wv = (big_g - (c1 * pair.phi1p + c2 * pair.phi2p + i1 + a1)) / tau2  # y~' = y' + a1
    return wv, fv + 1j * tau * wv, c1, c2, a0, a1, den


def _denominator(tau: float, m: RescaledModel) -> complex:
    """N(tau) from the closed-form pair at x = L, for tau > 0."""
    end = _pair_values(tau, m.tension, m.length, m.length)
    return _boundary_determinant(tau, m, *end)[1]


def denominator_values(m: RescaledModel, taus) -> np.ndarray:
    """|N(tau)| along a frequency grid; grows at least linearly in tau, which
    the CLI's kernel run reports (kernel.csv's denominator_abs, denominator.dat
    and the range of |N(tau)|/tau).  Refuses a tau that is not finite and positive."""
    taus = list(map(float, taus))
    for tau in taus:
        if not 0.0 < tau < math.inf:
            raise ValueError("tau=%g: tau must be finite and positive "
                             "(negative frequencies by conjugation)" % tau)
    return np.array([abs(_denominator(tau, m)) for tau in taus], float)


def random_smooth_data(rng, length: float):
    """Random trig (three harmonics) + affine complex data with exact derivatives.

    Returns a sampler x -> (f, g, f', g'): the four sampled on x, from one
    sine and one cosine of each harmonic per call (6 transcendental arrays),
    with nothing kept between calls.  Band-limited on purpose: solves
    against such data are resolvable by every grid used here, so they make
    fair cross-solver test material.
    """
    cf = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    cg = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    af = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    ag = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    wks = [(k + 1) * np.pi / length for k in range(3)]

    def values(c, a, x, trig):
        out = a[0] + a[1] * x / length
        for ck, (sin, cos) in zip(c, trig):
            out = out + ck[0] * sin + ck[1] * cos
        return out

    def slopes(c, a, x, trig):
        out = np.full_like(x, a[1] / length, dtype=complex)
        for wk, ck, (sin, cos) in zip(wks, c, trig):
            out = out + wk * (ck[0] * cos - ck[1] * sin)
        return out

    def sample(x):
        x = np.asarray(x, dtype=float)
        trig = [(np.sin(wk * x), np.cos(wk * x)) for wk in wks]
        return (values(cf, af, x, trig), values(cg, ag, x, trig),
                slopes(cf, af, x, trig), slopes(cg, ag, x, trig))

    return sample


def continuous_resolvent_sweep(m: RescaledModel, taus, data) -> list[ResolventSample]:
    """Data-induced resolvent gain sweep at the continuous level.

    data is an iterable of samplers x -> (f, g, f', g') (see
    random_smooth_data); the reported norm at each tau is the largest gain
    over the family, a lower envelope of the true operator norm that
    shares its shape: the gains of solve_resolvent_bvp, to the bit,
    without its audit, on coarser pair grids (40 points per wavelength,
    drift 1e-6).  Every tau below the one that outgrows MIN_GRID has the
    smallest; successive taus on a grid share it, its energy terms and one
    call of each sampler there.  Refuses, before any work, a tau outside
    [SMALL_TAU, TAU_CAP], NaN included (below SMALL_TAU the pipeline's
    tau^{-2} division is ill-conditioned), and an empty data family.
    """
    taus = list(map(float, taus))  # the floats a sample stores
    for tau in taus:
        if not SMALL_TAU <= tau <= TAU_CAP:
            raise ValueError("tau=%g leaves [SMALL_TAU, TAU_CAP]=[%g, %g]: the pipeline "
                             "divides by tau^2, and its cost grows with tau"
                             % (tau, SMALL_TAU, TAU_CAP))
    data = list(data)  # read on every pair grid, so a generator must not run dry
    if not data:
        raise ValueError("data must hold at least one sampler: an empty family "
                         "has no maximum")
    samples = []
    for n, run in groupby(taus, key=lambda tau: _grid_cells(tau, m.tension, m.length, 40)):
        x = _read_only(np.linspace(0.0, m.length, n + 1))
        terms = _weighted_terms(Grid(n, m.length, x, float(x[1] - x[0])), m, _admitted(m).gamma)
        pairs = [(tau, _pair_on(tau, m.tension, m.length, x, 1e-6)) for tau in run]
        best = [0.0] * len(pairs)
        for sample in data:  # one datum's samples at a time, read-only
            fv, gv, fpv, gpv = (_read_only(v.view()) for v in sample(x))
            for k, (tau, pair) in enumerate(pairs):
                wv, vv = _pipeline(tau, pair, fv, gv, fpv, gpv, m)[:2]
                states = np.stack([np.concatenate([wv, vv]), np.concatenate([fv, gv])])
                best[k] = max(best[k], _gain(weighted_norm(terms, states)))
        samples += [ResolventSample(t, b, "continuous") for (t, _), b in zip(pairs, best)]
    return samples


@dataclass(frozen=True)
class KernelDecayStudy:
    taus: np.ndarray
    sup_i0: np.ndarray
    sup_i1: np.ndarray
    slope_i0: float
    slope_i1: float


def _kernel_sups(tau: float, f, tension: AffineTension, length: float,
                 points_per_wavelength: int) -> tuple[float, float]:
    """sup |I0| and sup |I1| of greens_apply of f on fundamental_pair's
    grid at tau, in one walk over blocks of _BLOCK nodes.

    A block evaluates the pair (one _pair_values call) and f on itself
    plus the stencil reach of _fd4 (two nodes each side, the six end nodes
    at the ends of the grid); the running quadratures carry their sums and
    y'(0) from block to block, so a block's I0 and I1 are the whole grid's
    floats, and beside the grid the walk keeps only running maxima.
    Refuses as fundamental_pair does (the drift is the largest over all
    blocks), and f that vanishes on the whole grid.
    """
    x = _pair_grid(tau, tension, length, points_per_wavelength)
    dx = float(x[1] - x[0])
    size = len(x)
    carry = (None, None)
    peaks = np.zeros(4)  # running sup |I0|, sup |I1|, drift and sup |f|
    for s in range(0, size, _BLOCK):
        e = min(s + _BLOCK, size)
        lo, hi = max(0, min(s - 2, size - 6)), min(size, max(e + 2, 6))
        rows = slice(s - lo, e - lo)
        phis = _pair_values(tau, tension, length, x[lo:hi])
        fv = np.asarray(f(x[lo:hi]))
        i0, i1, carry = _kernel_integrals(fv, phis, tau, dx, rows, carry)
        peaks = np.maximum(peaks, (np.max(np.abs(i0)), np.max(np.abs(i1)),
                                   _wronskian_drift(tau, *(p[rows] for p in phis)),
                                   np.max(np.abs(fv))))
    sup0, sup1, drift, sup_f = peaks
    _check_drift(float(drift), tau, DRIFT_TOL)
    if sup_f == 0.0:
        raise ValueError("degenerate study: data vanishes identically")
    return float(sup0), float(sup1)


def kernel_decay_study(tau_grid, f, tension: AffineTension,
                       length: float) -> KernelDecayStudy:
    """Log-log decay rates of the kernel integrals against frequency.

    Expects a logarithmic grid spanning at least two decades above tau=10;
    the sup of I0 should fall like tau^-2 and the sup of I1 like tau^-1.
    Quadrature points per wavelength scale with tau so the measured sups
    stay above the integration noise floor.  Each grid is walked in
    blocks of a fixed number of nodes (see _kernel_sups), so beside the
    grid itself the study's memory is O(block), not O(grid): about 17
    arrays of a block's length at the peak (17.1 measured on the
    13-frequency default).  Everything runs on the calling thread, one
    _pair_values call per block, and the sups are the same floats as
    fundamental_pair and greens_apply give on the whole grid.  Refuses,
    before any pair is built, a tau_grid that is not one-dimensional with
    at least two points, or that is not finite or does not span two
    decades of [10, TAU_CAP].
    """
    taus = np.asarray(tau_grid, dtype=float)
    if taus.ndim != 1 or taus.size < 2:
        raise ValueError("tau_grid of shape %s: the study needs a one-dimensional grid of "
                         "at least two frequencies" % (taus.shape,))
    if not (np.isfinite(taus).all() and 10.0 <= taus.min() <= taus.max() / 99.0
            and taus.max() <= TAU_CAP):
        raise ValueError("taus from %g to %g: the grid must span two decades of [10, TAU_CAP]"
                         "=[10, %g]" % (taus.min(), taus.max(), TAU_CAP))
    sup0, sup1 = np.array([_kernel_sups(tau, f, tension, length, int(max(160, 1.2 * tau)))
                           for tau in taus]).T.copy()
    log_t = np.log(taus)
    slope0 = float(np.polyfit(log_t, np.log(sup0), 1)[0])
    slope1 = float(np.polyfit(log_t, np.log(sup1), 1)[0])
    return KernelDecayStudy(taus=taus, sup_i0=sup0, sup_i1=sup1,
                            slope_i0=slope0, slope_i1=slope1)
