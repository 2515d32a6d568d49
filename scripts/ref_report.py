"""One-page health report for the reference configuration.

Runs the whole chain of checks at desk scale and prints a compact
summary: admissibility, energy dissipativity, spectrum, a decay fit
against the spectral abscissa, and one mid-frequency resolvent solve
cross-checked between the matrix and the continuous route.
"""

import argparse
import time

import numpy as np

from heavychain.discretization import assemble_generator, dissipativity_check
from heavychain.model import (
    ControllerGains,
    PhysicalParams,
    check_admissibility,
    derive_physical_thetas,
    rescale,
)
from heavychain.resolvent_bvp import solve_resolvent_bvp
from heavychain.simulation import decay_fit, simulate
from heavychain.spectral import resolvent_apply_discrete, spectrum


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=200, help="grid cells")
    ap.add_argument("--chi3", type=float, default=2.5)
    ap.add_argument("--tau", type=float, default=5.0,
                    help="frequency of the resolvent cross check")
    ap.add_argument("--seed", type=int, default=12)
    args = ap.parse_args()

    t0 = time.time()
    params = PhysicalParams(rho=1.0, L=1.0, m_p=1.0, m_c=1.0, g=9.81)
    gains = ControllerGains(chi1=1.0, chi2=1.0, chi3=args.chi3)
    m = rescale(params, derive_physical_thetas(params, gains))
    adm = check_admissibility(m)
    print(f"admissible: {adm.admissible}   chi3 threshold: {adm.chi3_threshold:.4f}")
    if not adm.admissible:
        for v in adm.violations:
            print("  violated:", v)
        return
    print(f"gamma: {adm.gamma:.6f}   (a, b) = ({adm.a:.4f}, {adm.b:.4f})")

    sys_h = assemble_generator(m, args.n)
    diss = dissipativity_check(sys_h, seed=args.seed)
    print(f"dissipativity: max Rayleigh residual {diss.max_residual:.2e} "
          f"<= {diss.bound:.2e}: {diss.satisfied}")

    rep = spectrum(sys_h)
    print(f"spectrum: abscissa {rep.abscissa:.6f} "
          f"(rightmost |Im| {abs(rep.rightmost[0].imag):.4f}), stable: {rep.stable}")

    rng = np.random.default_rng(args.seed)
    z0 = rng.standard_normal(sys_h.grid.size)
    tr = simulate(z0, sys_h, 400.0, dt=0.002, store_every=25)
    fit = decay_fit(tr)
    rel = abs(fit.omega - abs(rep.abscissa)) / abs(rep.abscissa)
    print(f"decay fit: omega {fit.omega:.6f} vs |abscissa| "
          f"{abs(rep.abscissa):.6f}  ({100 * rel:.2f}% apart)")

    length = m.length
    f = lambda x: np.sin(np.pi * np.asarray(x, dtype=float) / length)
    fp = lambda x: (np.pi / length) * np.cos(np.pi * np.asarray(x, dtype=float) / length)
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    sol = solve_resolvent_bvp(f, zero, args.tau, m, f_prime=fp, g_prime=zero)
    x = sys_h.grid.x
    zd = resolvent_apply_discrete(sys_h, args.tau,
                                  np.concatenate([f(x), zero(x)]))
    wc = np.interp(x, sol.x, sol.w.real) + 1j * np.interp(x, sol.x, sol.w.imag)
    vc = np.interp(x, sol.x, sol.v.real) + 1j * np.interp(x, sol.x, sol.v.imag)
    diff = sys_h.weighted_norm(-np.concatenate([wc, vc]) - zd)
    diff /= sys_h.weighted_norm(zd)
    print(f"resolvent at tau={args.tau:g}: gain {sol.gain:.5f}, "
          f"residual {sol.residual:.2e}, solver difference {100 * diff:.3f}%")
    print(f"total {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
