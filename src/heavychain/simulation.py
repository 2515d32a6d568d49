"""Time integration of the semi-discrete closed loop and energy audits.

The generator acts in rescaled coordinates; this module owns the way back.
With x = x~/s_x and t = t~/s_t the stored grid samples give the physical
fields through v = s_t * v~ and w_x = s_x * dw~/dx~, so the energy ledger

    Hbar  = 1/2 int P w_x^2 + rho v^2 dx + 1/2 m_p v(L)^2
    Vbar  = chi1 Hbar + 1/2 chi2 w(0)^2
    V     = Vbar + 1/2 (v(0) + chi2 w(0) - chi1 P(0) w_x(0))^2

and its balance dV/dt = -v(0)^2 - chi3 s^2 are evaluated in the original
physical variables.  The time stepper is Crank-Nicolson, the Cayley
transform of A; since (I - hA)^{-1} (I + hA) = 2 (I - hA)^{-1} - I =: R
with h = dt/2, each step is one solve with the once-factored banded
I - hA (GeneratorSystem._shifted_solver) plus one vector update.  A run
that stores every s-th state only needs R^s, and can instead form it once
and take one dense product per stored state (the jump route): R from one
solve with the n identity columns, R^s in np.linalg.matrix_power's
order of products, with each factor's entries below sqrt(tiny) of its
largest zeroed first, so that no product of two kept entries is
subnormal (_power).  On
small grids a step's time is mostly the fixed cost per solve call, not
its flops, so the choice compares measured times (see ``_jump_pays``):
even a run that stores every step jumps on small grids.  The identity
check compares one-step differences of V against midpoint averages of
the right-hand side, which keeps both sides second-order consistent at
t_{n+1/2}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from heavychain.discretization import GeneratorSystem, _interleaved, _read_only
from heavychain.model import ControllerGains, PhysicalParams

__all__ = [
    "C_LYAPUNOV",
    "Trajectory",
    "EnergyTrace",
    "IdentityReport",
    "DecayFit",
    "simulate",
    "energies",
    "verify_energy_identity",
    "decay_fit",
]

# Allowance for the energy-balance residual, residual <= C * (dt^2 + dx^2)
# * max|V|, with dt and dx in physical units.  Calibrated on the reference
# configuration (observed constant ~615, dominated by the dx^2 part across
# N = 100..400) and frozen at roughly twice that value.
C_LYAPUNOV = 1200.0


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Stored Crank-Nicolson states on one grid, rescaled time axis.

    Frozen, and times and states are read-only views, so the norm history
    computed on first use stays the history of these states.
    """

    system: GeneratorSystem
    times: np.ndarray
    states: np.ndarray  # (len(times), 2*(n+1))
    dt: float

    def __post_init__(self):
        for name in ("times", "states"):
            object.__setattr__(self, name, _read_only(np.asarray(getattr(self, name)).view()))

    def norm_history(self) -> np.ndarray:
        """Energy norm |z|_H of each stored state (rescaled units),
        computed on first call and kept, read-only."""
        return self._norm_history

    @cached_property
    def _norm_history(self) -> np.ndarray:
        return _read_only(self.system.weighted_norm(self.states))


# Measured costs, in ns, of a solve call, of a banded LU entry per right-hand
# side, of an n^3 entry of a _product and of an entry of R^s z.
_SOLVE_CALL_NS = 2000.0
_FACTOR_ENTRY_NS = 2.0
_POWER_ENTRY_NS = 0.03
_DENSE_ENTRY_NS = 0.15


def _jump_pays(n: int, nnz: int, stride: int, strides: int) -> bool:
    """Whether forming R^stride and jumping takes less time than stepping.

    Stepping pays one solve call per step: strides * stride * (call +
    nnz entry).  Jumping forms R by one solve with the n identity columns,
    call + n nnz entry, and R^stride by _power, whose products (7 for
    stride 72) cost n^3 entry each, then pays strides * n^2 dense
    entries.  The terms are timeit minima on the reference model at
    dt = dx / (8 c) (2 vCPU Xeon, OpenBLAS 0.3.31), with nnz the
    (2 kl + ku + 1) n = 15 n entries of the banded LU of I - dt/2 A:

        N                          5     50    100   200   400   800
        n                          12    102   202   402   802   1602
        2 solve(z) - z, us         1.97  4.64  7.61  13.2  24.6  46.9
        2 solve(I) - I, ms         .005  0.17  0.69  3.79  15.9  63.7
        _product(R, R), ms         .004  .054  0.23  1.38  9.05  61.3
        R @ z, us                  0.82  2.01  5.89  19.8  81.4  346

    A line through the step times gives 2.0 us + 1.95 ns per band entry;
    the identity block takes 1.1-1.7 ns per entry and column, a product
    0.028 ns per n^3 entry at n = 202 (0.05 at n = 102, 0.015 at n =
    1602; 0.12 at n = 202 while R's entries, down to 1e-257, still
    underflowed in the products), R @ z 0.12-0.19 ns per entry.  So 200
    steps stored one by one jump at N = 50 and are stepped from N = 100.
    """
    def solve(columns):
        return _SOLVE_CALL_NS + columns * nnz * _FACTOR_ENTRY_NS
    bits = bin(stride)[2:]  # _power squares once per bit, multiplies per set bit
    products = len(bits) + bits.count("1") - 2
    return (solve(n) + products * n**3 * _POWER_ENTRY_NS + strides * n * n * _DENSE_ENTRY_NS
            < strides * stride * solve(1))


_SQRT_TINY = np.sqrt(np.finfo(float).tiny)  # _cut's threshold, relative to the largest entry


def _cut(m: np.ndarray) -> None:
    """Zero, in place, the entries of m below sqrt(tiny) times its largest.
    Its own function, so the magnitudes are freed before _product allocates
    its result: held across the product, they doubled its time at n = 202."""
    magnitude = np.abs(m)
    m[magnitude < _SQRT_TINY * magnitude.max()] = 0.0


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y after _cut of each factor: no product of two kept entries is
    then subnormal, the arithmetic that made R^72 twelve times slower to
    form at N = 200 (R's entries fall to 1e-257 at N = 100)."""
    for m in (x,) if x is y else (x, y):
        _cut(m)
    return x @ y


def _power(r: np.ndarray, s: int) -> np.ndarray:
    """R^s (r overwritten) in np.linalg.matrix_power's order of products,
    its short cuts for s <= 3 and then squaring from the lowest bit up,
    each product through _product; s = 1 takes no product and no cut."""
    if s == 1:
        return r
    if s <= 3:  # matrix_power's short cuts: R R and (R R) R
        square = _product(r, r)
        return square if s == 2 else _product(square, r)
    z = result = None
    while s:
        z = r if z is None else _product(z, z)
        s, bit = divmod(s, 2)
        if bit:
            result = z if result is None else _product(result, z)
    return result


def simulate(z0: np.ndarray, sys: GeneratorSystem, t_final: float,
             dt: float, store_every: int = 1) -> Trajectory:
    """Crank-Nicolson run z_{n+1} = R z_n, R = 2 (I - dt/2 A)^{-1} - I.

    R is (I - dt/2 A)^{-1} (I + dt/2 A): one solve with the banded LU of
    the step matrix, factored once, plus one vector update per step.
    Every store_every-th state and the last are stored.  When measured
    costs favour it (see ``_jump_pays``), the full strides are taken as
    one dense product each with R^store_every; the final partial stride is
    stepped.  Complex initial data is propagated as such (useful for
    eigenmode tracking).  A singular step matrix raises LinAlgError.
    """
    if not (np.isfinite(t_final) and t_final > 0.0):
        raise ValueError(f"t_final must be finite and positive, got {t_final!r}")
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not isinstance(store_every, Integral) or store_every < 1:
        raise ValueError(f"store_every must be an integer >= 1, got {store_every!r}")
    z0 = np.asarray(z0)
    n = sys.grid.size
    if z0.shape != (n,):
        raise ValueError("initial state does not match the grid")
    dtype = complex if np.iscomplexobj(z0) else float
    solve = sys._shifted_solver(dtype(1.0), -0.5 * dt)
    if solve is None:
        raise np.linalg.LinAlgError("singular time-step matrix")
    perm = _interleaved(np.arange(n), n // 2)  # state index k sits at perm[k]

    steps = max(1, int(round(t_final / dt)))
    strides = steps // store_every
    # step numbers of the stored states; each is written into its row
    ks = np.unique(np.append(np.arange(0, steps + 1, store_every), steps))
    states = np.empty((len(ks), n), dtype=dtype)
    states[0] = z0
    row = first = 1
    if _jump_pays(n, sys._band[0].size, store_every, strides):
        eye = np.eye(n, dtype=dtype)
        jump = _power(2.0 * solve(eye) - eye, store_every)[np.ix_(perm, perm)]
        for row in range(1, strides + 1):
            np.dot(jump, states[row - 1], out=states[row])
        row, first = strides + 1, strides * store_every + 1
    z = np.empty(n, dtype=dtype)
    z[perm] = states[row - 1]
    for k in range(first, steps + 1):
        z = 2.0 * solve(z) - z
        if k % store_every == 0 or k == steps:
            states[row] = z[perm]
            row += 1
    return Trajectory(system=sys, times=ks * dt, states=states, dt=dt)


@dataclass
class EnergyTrace:
    """Energy ledger of a run, everything in physical units.

    The rescaled energy norm of the states is not part of it: that is
    Trajectory.norm_history().
    """

    t: np.ndarray
    hbar: np.ndarray
    vbar: np.ndarray
    total: np.ndarray
    dvdt_lhs: np.ndarray
    dvdt_rhs: np.ndarray
    dt: float
    dx: float

    def rows(self) -> np.ndarray:
        """Columns t, hbar, vbar, total, dvdt_lhs, dvdt_rhs."""
        return np.column_stack(
            [self.t, self.hbar, self.vbar, self.total, self.dvdt_lhs, self.dvdt_rhs]
        )


def energies(tr: Trajectory, p: PhysicalParams, gains: ControllerGains) -> EnergyTrace:
    """Physical energy ledger along a trajectory (real part of the states).

    Reads the grid's D1 and trapezoid weights and evaluates no energy form.
    dV/dt is a second-order difference in time, so the run must store at
    least three states.
    """
    if len(tr.times) < 3:
        raise ValueError("energies needs at least three stored states for dV/dt, "
                         f"got {len(tr.times)}")
    m = tr.system.model
    grid = tr.system.grid
    npts = grid.n + 1
    w_vals = np.real(tr.states[:, :npts])
    v_vals = np.real(tr.states[:, npts:])

    wx = m.s_x * (grid.d1 @ w_vals.T).T
    v_phys = m.s_t * v_vals
    quad = grid.q / m.s_x
    tension = m.tension(grid.x)

    hbar = 0.5 * ((tension * wx**2 + p.rho * v_phys**2) @ quad)
    hbar = hbar + 0.5 * p.m_p * v_phys[:, -1] ** 2
    w0 = w_vals[:, 0]
    v0 = v_phys[:, 0]
    sliding = v0 + gains.chi2 * w0 - gains.chi1 * tension[0] * wx[:, 0]
    vbar = gains.chi1 * hbar + 0.5 * gains.chi2 * w0**2
    total = vbar + 0.5 * sliding**2
    rhs = -(v0**2) - gains.chi3 * sliding**2

    t_phys = tr.times / m.s_t
    lhs = np.gradient(total, t_phys, edge_order=2)
    return EnergyTrace(
        t=t_phys,
        hbar=hbar,
        vbar=vbar,
        total=total,
        dvdt_lhs=lhs,
        dvdt_rhs=rhs,
        dt=float(t_phys[1] - t_phys[0]),
        dx=grid.dx / m.s_x,
    )


@dataclass(frozen=True)
class IdentityReport:
    residual: float
    bound: float
    constant: float
    scale: float
    dt: float
    dx: float
    satisfied: bool


def verify_energy_identity(et: EnergyTrace) -> IdentityReport:
    """Check dV/dt against the dissipation rate along the trace.

    Both sides are matched at the half steps: one-step differences of V
    versus midpoint averages of the stored right-hand side.  Passes when
    the largest residual stays below C_LYAPUNOV * (dt^2 + dx^2) * max|V|.
    """
    if len(et.t) < 2:
        raise ValueError("trace too short")
    dv = np.diff(et.total) / np.diff(et.t)
    rhs_mid = 0.5 * (et.dvdt_rhs[1:] + et.dvdt_rhs[:-1])
    residual = float(np.max(np.abs(dv - rhs_mid)))
    scale = float(np.max(np.abs(et.total)))
    bound = C_LYAPUNOV * (et.dt**2 + et.dx**2) * scale
    return IdentityReport(
        residual=residual,
        bound=bound,
        constant=C_LYAPUNOV,
        scale=scale,
        dt=et.dt,
        dx=et.dx,
        satisfied=residual <= bound,
    )


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential envelope |z(t)| <= prefactor |z0| e^{-omega t}."""

    omega: float
    prefactor: float
    t_start: float
    t_end: float


def decay_fit(tr: Trajectory) -> DecayFit:
    """Fit the decay rate of log |z(t)|_H on the tail half of the run.

    Requires an overall drop of at least 10x so the fit window sits in the
    asymptotic regime; degenerate or non-decaying input is rejected.
    """
    norms = tr.norm_history()
    if norms[0] <= 0.0:
        raise ValueError("zero initial state: nothing to fit")
    if norms[-1] > 0.1 * norms[0]:
        raise ValueError("norm drops by less than 10x; run longer before fitting")
    half = len(tr.times) // 2
    t_tail = tr.times[half:]
    with np.errstate(divide="ignore"):
        y = np.log(norms[half:])
    if not np.all(np.isfinite(y)):
        raise ValueError("norm history hit zero inside the fit window")
    slope, _ = np.polyfit(t_tail, y, 1)
    if slope >= 0.0:
        raise ValueError("tail is not decaying")
    omega = float(-slope)
    prefactor = float(np.max(norms * np.exp(omega * tr.times)) / norms[0])
    return DecayFit(
        omega=omega,
        prefactor=max(1.0, prefactor),
        t_start=float(t_tail[0]),
        t_end=float(t_tail[-1]),
    )
