"""Stage scaling: single stages of the matrix pipeline timed across grid sizes.

Each stage runs once per size on the reference model with tracing off:

- ``assembly``: generator and both Gram matrices (``assemble_generator``)
- ``eigensolve``: the dense spectrum (``spectrum``)
- ``dissipativity``: the dissipativity forms over a fixed sample count,
  including the sampling itself (``dissipativity_check``)
- ``cn_step``: one Crank-Nicolson step, from a run of ``CN_STEPS`` steps
  including its one factorisation, divided by ``CN_STEPS``
- ``resolvent_norm``: one weighted resolvent norm at tau = 1, including
  the Cholesky similarity it builds (``resolvent_norm_discrete``)
"""

from __future__ import annotations

import math
import time

SIZES = (100, 200, 400, 800)
STAGES = ("assembly", "eigensolve", "dissipativity", "cn_step",
          "resolvent_norm")
DISSIPATIVITY_SAMPLES = 20
CN_STEPS = 100


def metric_names() -> list:
    return [f"stage.{s}.n{n}_s" for n in SIZES for s in STAGES]


def run(model) -> dict:
    from heavychain import discretization, simulation, spectral

    clock = time.perf_counter
    out = {}
    for n in SIZES:
        t0 = clock()
        sys_h = discretization.assemble_generator(model, n)
        t1 = clock()
        spectral.spectrum(sys_h)
        t2 = clock()
        discretization.dissipativity_check(sys_h, samples=DISSIPATIVITY_SAMPLES)
        t3 = clock()
        z0 = discretization.sample_states(sys_h, 1)[0].real
        dt = sys_h.grid.dx / (8.0 * math.sqrt(model.tension0))
        t4 = clock()
        simulation.simulate(z0, sys_h, CN_STEPS * dt, dt=dt,
                            store_every=CN_STEPS)
        t5 = clock()
        spectral.resolvent_norm_discrete(sys_h, 1.0)
        t6 = clock()
        out[f"stage.assembly.n{n}_s"] = t1 - t0
        out[f"stage.eigensolve.n{n}_s"] = t2 - t1
        out[f"stage.dissipativity.n{n}_s"] = t3 - t2
        out[f"stage.cn_step.n{n}_s"] = (t5 - t4) / CN_STEPS
        out[f"stage.resolvent_norm.n{n}_s"] = t6 - t5
    return out
