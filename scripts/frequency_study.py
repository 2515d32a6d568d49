"""Frequency-domain picture: sweeps, kernel decay, denominator growth.

Three related studies along the imaginary axis for the reference setup:

  1. discrete resolvent norms at several grid sizes, to show which
     features of the sweep are physical and which move with the grid;
  2. the decay of the variation-of-constants kernel integrals, whose
     log-log slopes certify the uniform high-frequency bound;
  3. the boundary-condition denominator, whose linear growth keeps the
     solution coefficients bounded.

Writes plot-ready two-column files into --out (default ./freq_study).
"""

import argparse
from pathlib import Path

import numpy as np

from heavychain.discretization import assemble_generator
from heavychain.model import (
    ControllerGains,
    PhysicalParams,
    derive_physical_thetas,
    rescale,
)
from heavychain.resolvent_bvp import denominator_values, kernel_decay_study
from heavychain.spectral import resolvent_norm_discrete


def write_columns(path: Path, a, b):
    path.write_text(
        "\n".join(f"{x!r} {y!r}" for x, y in zip(a, b)) + "\n",
        encoding="utf-8",
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grids", type=int, nargs="+", default=[50, 100, 200])
    ap.add_argument("--points", type=int, default=80)
    ap.add_argument("--out", default="freq_study")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = PhysicalParams(rho=1.0, L=1.0, m_p=1.0, m_c=1.0, g=9.81)
    m = rescale(params, derive_physical_thetas(params, ControllerGains(1.0, 1.0, 2.5)))

    for n in args.grids:
        sys_h = assemble_generator(m, n)
        taus = np.geomspace(0.1, 1000.0, args.points)
        norms = np.array([resolvent_norm_discrete(sys_h, t).norm for t in taus])
        write_columns(out / f"sweep_n{n}.dat", taus, norms)
        k = int(np.argmax(norms))
        print(f"N={n}: max resolvent norm {norms[k]:.2f} at tau {taus[k]:.2f}")

    taus = np.geomspace(10.0, 1000.0, 13)
    f = lambda x: np.cos(np.pi * x / m.length) + 0.5
    study = kernel_decay_study(taus, f, m.tension, m.length)
    write_columns(out / "kernel_i0.dat", study.taus, study.sup_i0)
    write_columns(out / "kernel_i1.dat", study.taus, study.sup_i1)
    print(f"kernel decay slopes: {study.slope_i0:.4f} (integral), "
          f"{study.slope_i1:.4f} (derivative)")

    dens = denominator_values(m, taus)
    write_columns(out / "denominator.dat", taus, dens)
    print(f"denominator growth |N(tau)|/tau in "
          f"[{(dens / taus).min():.3f}, {(dens / taus).max():.3f}]")
    print(f"wrote {out}/")


if __name__ == "__main__":
    main()
