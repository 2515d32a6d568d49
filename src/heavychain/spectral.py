"""Eigenvalue reports and resolvent-norm sweeps for the discrete generator.

The spectrum is the one dense computation: a Hessenberg QR of A in its
own near-Hessenberg order (see spectrum), Francis's double-shift QR
(dlahqr) on small matrices and the multishift QR with aggressive early
deflation of Braman, Byers and Mathias (dhseqr, SIAM J. Matrix Anal.
Appl. 2002) on large ones.

All norms here are taken in the energy inner product.  In the
node-interleaved order (w_0, v_0, w_1, v_1, ...), given by the permutation
Pi, the energy factor R with R^T R = Pi M_H Pi^T is upper banded (see
GeneratorSystem.chol_H) and so is S = i tau - Pi A Pi^T, and the weighted
operator norm of the resolvent is an ordinary spectral norm,

    |(i tau - A)^{-1}|_H = sqrt(lambda_max(B^H B)),  B = R S^{-1} R^{-1}.

lambda_max comes from a short Lanczos loop on the Hermitian B^H B, applied
through one banded LU of S per shift (GeneratorSystem._shifted_solver) and
banded products and solves with R (zgbmv, ztbsv), O(n) per application:
the inverse-Lanczos route of Trefethen, "Computation of pseudospectra",
Acta Numerica 1999.
The product is zgbmv, not ztbmv: OpenBLAS 0.3.31 runs ztbmv on two threads
at n = 202 and then spins its worker for 80 ms on a CPU the next thread
wants; zgbmv takes 2% longer on one thread.  The loop starts from
ones / sqrt(n), so every run gives the same floats, reorthogonalizes fully
(two classical Gram-Schmidt passes, zgemv), takes the tridiagonal's top
eigenpair (theta_k, s) and the next one down, theta_{k-1}, from LAPACK
dstev at every step, and stops once either residual bound on
|theta_k - lambda_max| for a Hermitian operator falls to 1e-12 theta_k:
the linear one, beta_k |s_k|, or the quadratic one, (beta_k |s_k|)^2 /
(theta_k - theta_{k-1}) with the Ritz gap standing in for the spectral gap
(Parlett, "The Symmetric Eigenvalue Problem", section 11.7).  Both keep
the error below the energy factor's own rounding (about 1e-11 of the norm
at tau = 0, N = 800).  A shift costs 6.2 applications on the default
200-point sweep at N = 100 and 5.7 on 60 shifts at N = 400 (9.0 and 8.1
with the linear bound alone, 12.3 and 11.2 with ARPACK), and the norms
move by at most 4.7e-13 against the linear bound's.

A finite sweep cannot certify a supremum over the whole axis, so the
verdict helper only ever reports "consistent-with-exponential-stability"
or "inconclusive".
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cython_lapack
from scipy.linalg.blas import dznrm2, zgbmv, zgemv, ztbsv
from scipy.linalg.lapack import dgebal, dgehrd, dstev

from heavychain.discretization import GeneratorSystem, _interleaved, _permuted_entries

__all__ = [
    "VERDICT_CONSISTENT",
    "VERDICT_INCONCLUSIVE",
    "SpectrumReport",
    "ResolventSample",
    "HuangReport",
    "spectrum",
    "resolvent_norm_discrete",
    "resolvent_apply_discrete",
    "huang_verdict",
]

VERDICT_CONSISTENT = "consistent-with-exponential-stability"
VERDICT_INCONCLUSIVE = "inconclusive"

# a log-log slope of the last sweep decade at or below this counts as flat
TAIL_SLOPE_TOLERANCE = 0.05


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: np.ndarray
    abscissa: float
    rightmost: np.ndarray  # eigenvalue(s) attaining the abscissa

    @classmethod
    def from_eigenvalues(cls, lam: np.ndarray) -> "SpectrumReport":
        lam = np.asarray(lam, dtype=complex)
        abscissa = float(lam.real.max())
        attain = lam[np.abs(lam.real - abscissa) <= 1e-12 * max(1.0, abs(abscissa))]
        return cls(eigenvalues=lam, abscissa=abscissa, rightmost=attain)

    @property
    def stable(self) -> bool:
        return self.abscissa < 0.0


def _lapack(name: str, *argtypes):
    """The LAPACK routine that scipy.linalg.cython_lapack exports as a C
    function pointer in a capsule, called through ctypes."""
    capsule, api = cython_lapack.__pyx_capi__[name], ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule, get_name(capsule)))


# scipy.linalg.lapack wraps neither dhseqr nor dlahqr
_INT = ctypes.POINTER(ctypes.c_int)
_F64 = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS")
_dhseqr = _lapack("dhseqr", ctypes.c_char_p, ctypes.c_char_p, _INT, _INT, _INT, _F64, _INT,
                  _F64, _F64, _F64, _INT, _F64, _INT, _INT)
_dlahqr = _lapack("dlahqr", _INT, _INT, _INT, _INT, _INT, _F64, _INT,
                  _F64, _F64, _INT, _INT, _F64, _INT, _INT)

# State sizes n below this take dlahqr, the rest dhseqr: the measured
# crossover, see _hessenberg_eigenvalues.
_DLAHQR_BELOW = 600


def _hessenberg_eigenvalues(h: np.ndarray):
    """(wr, wi, routine, info) of the upper Hessenberg h, which is
    overwritten: eigenvalues only, by LAPACK dlahqr (WANTT = WANTZ = 0)
    below _DLAHQR_BELOW and by dhseqr, after a workspace query, above.

    dhseqr itself calls dlahqr below n = 75 (its NMIN); above, its
    multishift sweeps pay set-up and workspace that only larger matrices
    repay.  Per call on the balanced Hessenberg copy of the reference
    model's generator, best of 3 (2 vCPU, OpenBLAS 0.3.31):

        N (n = 2N + 2)   50     100    150    200    250    300    400
        dhseqr, ms       1.76   8.0    19.7   36.9   73.7   104.8  178
        dlahqr, ms       1.04   5.72   16.7   35.3   64.5   106.4  225

    The two meet near n = 600.  Both-way against numpy's dgeev, dlahqr's
    eigenvalues lie within 5e-13 max|lambda| at N = 50 to 250.
    """
    n, zero, one, info = ctypes.c_int(len(h)), ctypes.c_int(0), ctypes.c_int(1), ctypes.c_int(0)
    wr, wi, z = np.empty(len(h)), np.empty(len(h)), np.empty(1)
    if len(h) < _DLAHQR_BELOW:
        _dlahqr(zero, zero, n, one, n, h, n, wr, wi, one, one, z, one, info)
        return wr, wi, "dlahqr", info.value
    work = np.empty(1)
    _dhseqr(b"E", b"N", n, one, n, h, n, wr, wi, z, one, work, ctypes.c_int(-1), info)
    work = np.empty(int(work[0]))
    _dhseqr(b"E", b"N", n, one, n, h, n, wr, wi, z, one, work, ctypes.c_int(len(work)), info)
    return wr, wi, "dhseqr", info.value


def spectrum(sys: GeneratorSystem) -> SpectrumReport:
    """Dense spectrum of the semi-discrete generator, without a dense
    Hessenberg reduction.

    In the order (v_0, w_0, v_1, w_1, ...) every row of A is upper
    Hessenberg except the payload row v_N, whose one-sided stencil reaches
    w_{N-2}.  One column-major dense copy is written in that order straight
    from A's CSR arrays, duplicates summed; LAPACK dgehrd reduces only the
    columns from the first one with a stored entry below the subdiagonal
    (n - 5 for the generator, O(n) work), dgebal balances by a diagonal
    scaling, which keeps the Hessenberg form, and a Hessenberg QR returns
    the eigenvalues: the double-shift dlahqr below n = _DLAHQR_BELOW, where
    its lower fixed cost wins (1.04 against 1.76 ms at N = 50), and the
    multishift dhseqr above.  The first column is read from the pattern,
    so the route holds for any A, wider boundary closures included.

    Raises RuntimeError if A is not finite, or if the QR fails to converge
    (info > 0); the message names the routine.
    """
    a = sys.A
    if not np.isfinite(a.data).all():
        raise RuntimeError("dense eigensolver failed: A is not finite")
    n = a.shape[0]
    # _interleaved gives (w_0, v_0, w_1, v_1, ...); ^ 1 swaps each pair
    i, j = _permuted_entries(a, _interleaved(np.arange(n), n // 2) ^ 1)
    # h[i, j] sits at i + n j in column-major order; bincount sums
    # duplicates as toarray does
    h = np.bincount(i + n * j, weights=a.data, minlength=n * n).reshape((n, n), order="F")
    lo = int(j[i - j > 1].min(initial=n - 1))
    h, _, _ = dgehrd(h, lo=lo, hi=n - 1, overwrite_a=1)
    for col in range(lo, n - 2):  # dgehrd's reflectors, which dgebal would read
        h[col + 2:, col] = 0.0
    h, _, _, _, _ = dgebal(h, scale=1, overwrite_a=1)
    wr, wi, routine, info = _hessenberg_eigenvalues(h)
    if info != 0:
        raise RuntimeError("dense eigensolver failed: %s info %d" % (routine, info))
    return SpectrumReport.from_eigenvalues(wr + 1j * wi)


@dataclass(frozen=True)
class ResolventSample:
    tau: float
    norm: float
    source: str  # "discrete" or "continuous"


_KRYLOV_CAP, _RITZ_TOL = 60, 1e-12  # of _lanczos_top: Krylov dimension cap, stopping rule


def _lanczos_top(apply, n: int, tau: float) -> float:
    """lambda_max of the Hermitian operator apply on C^n by Lanczos (see the
    module docstring) until beta_k |s_k| <= _RITZ_TOL theta_k, (beta_k
    |s_k|)^2 <= _RITZ_TOL theta_k (theta_k - theta_{k-1}) or beta_k = 0;
    past min(n, _KRYLOV_CAP) vectors a RuntimeError names tau."""
    cap = min(n, _KRYLOV_CAP)
    q, alpha, beta = np.empty((n, cap + 1), complex, order="F"), np.zeros(cap), np.empty(cap)
    q[:, 0] = 1.0 / np.sqrt(n)
    for k in range(cap):
        w, basis = apply(q[:, k]), q[:, :k + 1]
        for _ in range(2):  # two classical Gram-Schmidt passes
            h = zgemv(1.0, basis, w, trans=2)
            w = zgemv(-1.0, basis, h, beta=1.0, y=w, overwrite_y=1)
            alpha[k] += h[k].real
        beta[k] = dznrm2(w)
        theta, s, _ = dstev(alpha[:k + 1], beta[:max(k, 1)])  # ascending, the top pair last
        residual, top = beta[k] * abs(s[k, -1]), theta[-1]
        if (residual <= _RITZ_TOL * top or beta[k] == 0.0
                or k > 0 and residual * residual <= _RITZ_TOL * top * (top - theta[-2])):
            return float(top)
        q[:, k + 1] = w / beta[k]
    raise RuntimeError("Lanczos did not converge in %d vectors at tau=%g" % (cap, tau))


def resolvent_norm_discrete(sys: GeneratorSystem, tau: float) -> ResolventSample:
    """Weighted resolvent norm at i*tau by Lanczos on the factored resolvent.

    B = R S^{-1} R^{-1} is applied through one banded LU of S
    (GeneratorSystem._shifted_solver) and banded products and solves with
    R, O(n) per application.  _lanczos_top stops once a residual bound on
    its Ritz value falls to 1e-12 of it, an error below the energy factor's
    own rounding, after about 6 applications (6.1 on 60 shifts from 0.1 to
    1000 at N = 100).  A zero pivot in the LU (an exactly singular shift)
    gives inf; a tau that is not finite is refused with a ValueError.
    """
    if not np.isfinite(tau):  # no frequency, not a singular shift
        raise ValueError("tau=%g: the resolvent needs a finite frequency" % tau)
    r, n = sys.chol_H.astype(complex, order="F"), sys.grid.size
    kb = len(r) - 1
    solve = sys._shifted_solver(1j * tau, -1.0)
    if solve is None:
        return ResolventSample(tau=float(tau), norm=float("inf"), source="discrete")

    def normal_op(x):  # B^H B x = R^{-T} S^{-H} R^T R S^{-1} R^{-1} x
        y = solve(ztbsv(kb, r, x))
        y = zgbmv(n, n, 0, kb, 1.0, r, zgbmv(n, n, 0, kb, 1.0, r, y), trans=1)
        return ztbsv(kb, r, solve(y, trans=2), trans=1)

    lam = _lanczos_top(normal_op, n, tau)
    return ResolventSample(tau=float(tau), norm=float(np.sqrt(lam)), source="discrete")


def resolvent_apply_discrete(sys: GeneratorSystem, tau: float,
                             rhs: np.ndarray) -> np.ndarray:
    """Solve (i*tau*I - A_h) z = rhs by the banded LU of the shift; the discrete
    side of cross checks.  Raises LinAlgError, naming tau, if it is singular,
    and ValueError if tau is not finite."""
    if not np.isfinite(tau):  # no frequency, not a singular shift
        raise ValueError("tau=%g: the resolvent needs a finite frequency" % tau)
    solve, n = sys._shifted_solver(1j * tau, -1.0), sys.grid.size
    if solve is None:
        raise np.linalg.LinAlgError("i*tau - A is exactly singular at tau=%g" % tau)
    perm = _interleaved(np.arange(n), n // 2)  # state index k sits at perm[k]
    b = np.empty(n, complex)
    b[perm] = rhs
    return solve(b)[perm]


@dataclass(frozen=True)
class HuangReport:
    verdict: str
    abscissa: float
    max_norm: float
    tau_at_max: float
    tail_slope: float
    reasons: tuple[str, ...] = field(default_factory=tuple)


def huang_verdict(samples: list[ResolventSample], report: SpectrumReport) -> HuangReport:
    """Shape test of a sweep against the uniform-boundedness criterion.

    Consistency requires a negative abscissa, the sampled maximum attained
    strictly inside the sweep range, and a flat-or-decreasing final decade
    of the norm curve.  Anything else is inconclusive; a finite sweep can
    never prove the supremum bound, so no stronger wording is offered.
    """
    if not samples:
        raise ValueError("empty sweep")
    taus = np.array([s.tau for s in samples])
    norms = np.array([s.norm for s in samples])
    order = np.argsort(taus)
    taus, norms = taus[order], norms[order]

    reasons = []
    if not np.all(np.isfinite(norms)):
        reasons.append("non-finite resolvent sample")
    if report.abscissa >= 0.0:
        reasons.append("abscissa is not negative")
    k = int(np.argmax(norms))
    if k in (0, len(norms) - 1):
        reasons.append("sampled maximum sits on the sweep boundary")
    tail = taus >= taus[-1] / 10.0
    if np.count_nonzero(tail) >= 2 and np.all(norms[tail] > 0):
        slope = np.polyfit(np.log(taus[tail]), np.log(norms[tail]), 1)[0]
    else:
        slope = float("nan")
        reasons.append("tail decade has too few usable samples")
    if np.isfinite(slope) and slope > TAIL_SLOPE_TOLERANCE:
        reasons.append("resolvent norm still grows in the last decade")

    return HuangReport(
        verdict=VERDICT_INCONCLUSIVE if reasons else VERDICT_CONSISTENT,
        abscissa=report.abscissa,
        max_norm=float(norms[k]),
        tau_at_max=float(taus[k]),
        tail_slope=float(slope) if np.isfinite(slope) else float("nan"),
        reasons=tuple(reasons),
    )
