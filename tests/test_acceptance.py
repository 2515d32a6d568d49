"""End-to-end battery: every headline guarantee at desk scale.

Each test prints one summary line (visible with -s or on failure) and
enforces both the quantitative bound and its runtime budget.  The battery
is intentionally self-contained: fixed seeds, fresh assemblies, no state
shared with the unit tests.
"""

import time

import numpy as np
import pytest

from heavychain.discretization import (
    assemble_generator,
    dissipativity_check,
    norm_ratio_interval,
    sample_states,
)
from heavychain.model import (
    ControllerGains,
    PhysicalParams,
    AffineTension,
    check_admissibility,
    chi3_threshold,
    derive_physical_thetas,
    rescale,
)
from heavychain.resolvent_bvp import (
    continuous_resolvent_sweep,
    fundamental_pair,
    greens_apply,
    injectivity_check,
    kernel_decay_study,
    random_smooth_data,
    solve_resolvent_bvp,
)
from heavychain.simulation import decay_fit, energies, simulate
from heavychain.spectral import (
    VERDICT_CONSISTENT,
    huang_verdict,
    resolvent_apply_discrete,
    resolvent_norm_discrete,
    spectrum,
)
from tests.conftest import four_callables, invert_generator


def report_line(name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def ref_sys400(ref_model):
    return assemble_generator(ref_model, 400)


def test_admissibility_predicates_agree(ref_params):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    agree = checked = 0
    for _ in range(10_000):
        p = PhysicalParams(
            rho=float(rng.uniform(0.2, 5.0)), L=float(rng.uniform(0.3, 3.0)),
            m_p=float(rng.uniform(0.2, 5.0)), m_c=float(rng.uniform(0.2, 5.0)),
            g=ref_params.g,
        )
        thr = chi3_threshold(p)
        chi3 = float(rng.uniform(0.0, 5.0) * max(thr, 0.2))
        if abs(chi3 - thr) < 1e-9 * max(1.0, thr):
            continue  # boundary band where roundoff may flip either test
        gains = ControllerGains(
            float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.1, 5.0)), chi3)
        by_threshold = chi3 > thr
        by_thetas = check_admissibility(
            rescale(p, derive_physical_thetas(p, gains))).admissible
        checked += 1
        agree += by_threshold == by_thetas
    elapsed = time.perf_counter() - t0
    ok = agree == checked and checked > 9_900 and elapsed < 1.0
    report_line("threshold-equivalence", ok,
                f"{agree}/{checked} draws agree, {elapsed:.2f}s")
    assert agree == checked
    assert checked > 9_900
    assert elapsed < 1.0


def test_dissipativity_residual_bound(ref_model):
    t0 = time.perf_counter()
    residuals = []
    for n in (50, 100, 200, 400):
        rep = dissipativity_check(assemble_generator(ref_model, n),
                                  samples=1000, seed=3)
        assert rep.satisfied, (n, rep.max_residual, rep.bound)
        residuals.append(rep.max_residual)
    decreasing = all(a > b for a, b in zip(residuals, residuals[1:]))
    elapsed = time.perf_counter() - t0
    ok = decreasing and elapsed < 30.0
    report_line("dissipativity-residuals", ok,
                f"max residuals {['%.5f' % r for r in residuals]}, {elapsed:.1f}s")
    assert decreasing
    assert elapsed < 30.0


def test_spectra_left_half_plane_and_injectivity(ref_model, ref_params):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    models = [ref_model]
    while len(models) < 21:
        gains = ControllerGains(
            float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.2, 4.0)),
            float(rng.uniform(1.0, 4.0) * chi3_threshold(ref_params)))
        m = rescale(ref_params, derive_physical_thetas(ref_params, gains))
        if check_admissibility(m).admissible:
            models.append(m)
    worst = max(spectrum(assemble_generator(m, 200)).abscissa for m in models)
    taus = np.linspace(0.1, 100.0, 500)
    margins = np.array([injectivity_check(t, ref_model)
                        for t in taus])
    elapsed = time.perf_counter() - t0
    ok = worst < 0.0 and margins.min() > 0.0 and elapsed < 120.0
    report_line("stability-spectra-injectivity", ok,
                f"worst abscissa {worst:.5f}, min margin {margins.min():.5f}, "
                f"{elapsed:.1f}s")
    assert worst < 0.0
    assert margins.min() > 0.0
    assert elapsed < 120.0


def test_energy_identity_refines_at_second_order(ref_model, ref_params,
                                                 ref_gains):
    t0 = time.perf_counter()

    def residual(n, dt):
        sys_h = assemble_generator(ref_model, n)
        # the same analytic draw lands on every grid: the mode table and
        # the coefficient stream depend only on the seed
        z0 = sample_states(sys_h, 1, seed=5)[0].real
        tr = simulate(z0, sys_h, 2.0, dt=dt, store_every=1)
        et = energies(tr, ref_params, ref_gains)
        dv = np.diff(et.total) / np.diff(et.t)
        rhs_mid = 0.5 * (et.dvdt_rhs[1:] + et.dvdt_rhs[:-1])
        return float(np.max(np.abs(dv - rhs_mid)))

    r50 = residual(50, 0.02)
    r100 = residual(100, 0.01)
    r200 = residual(200, 0.005)
    ratios = (r50 / r100, r100 / r200)
    elapsed = time.perf_counter() - t0
    ok = all(3.0 <= r <= 5.0 for r in ratios) and elapsed < 60.0
    report_line("energy-identity-refinement", ok,
                f"ratios {ratios[0]:.3f}, {ratios[1]:.3f}, {elapsed:.1f}s")
    for r in ratios:
        assert 3.0 <= r <= 5.0
    assert elapsed < 60.0


def test_decay_rate_matches_abscissa_and_sweep_shape(ref_model):
    t0 = time.perf_counter()
    sys200 = assemble_generator(ref_model, 200)
    rng = np.random.default_rng(12)
    z0 = rng.standard_normal(sys200.grid.size)
    tr = simulate(z0, sys200, 400.0, dt=0.002, store_every=25)
    fit = decay_fit(tr)
    abscissa = spectrum(sys200).abscissa
    rel = abs(fit.omega - abs(abscissa)) / abs(abscissa)

    sys100 = assemble_generator(ref_model, 100)
    discrete = [resolvent_norm_discrete(sys100, t) for t in np.geomspace(0.1, 1000.0, 60)]
    rng = np.random.default_rng(7)
    data = [random_smooth_data(rng, ref_model.length) for _ in range(3)]
    continuous = continuous_resolvent_sweep(
        ref_model, np.geomspace(0.1, 1000.0, 25), data)
    verdict = huang_verdict(discrete + continuous, spectrum(sys100))
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.10 and verdict.verdict == VERDICT_CONSISTENT and elapsed < 300.0
    report_line("decay-rate-and-sweep-shape", ok,
                f"omega {fit.omega:.5f} vs {abs(abscissa):.5f} ({100*rel:.1f}%), "
                f"verdict {verdict.verdict}, {elapsed:.1f}s")
    assert rel <= 0.10
    assert verdict.verdict == VERDICT_CONSISTENT
    assert elapsed < 300.0


@pytest.fixture(scope="module")
def pipeline_battery(ref_model, ref_sys400):
    """Ten random smooth data pairs solved by both routes at four taus."""
    m = ref_model
    sys_h = ref_sys400
    x = sys_h.grid.x
    rng = np.random.default_rng(6)
    data = [four_callables(random_smooth_data(rng, m.length)) for _ in range(10)]
    out = {}
    t0 = time.perf_counter()
    for tau in (1.0, 5.0, 20.0, 100.0):
        pair = fundamental_pair(tau, m.tension, m.length)
        rows = []
        for f, g, fp, gp in data:
            sol = solve_resolvent_bvp(f, g, tau, m, pair=pair,
                                      f_prime=fp, g_prime=gp)
            rhs = np.concatenate([f(x), g(x)])
            zd = resolvent_apply_discrete(sys_h, tau, rhs)
            wc = np.interp(x, sol.x, sol.w.real) \
                + 1j * np.interp(x, sol.x, sol.w.imag)
            vc = np.interp(x, sol.x, sol.v.real) \
                + 1j * np.interp(x, sol.x, sol.v.imag)
            # the continuous convention solves (A - i tau) z = F, the
            # discrete one (i tau - A_h) z = F; flip the sign to compare
            zc = -np.concatenate([wc, vc])
            diff = sys_h.weighted_norm(zc - zd) / sys_h.weighted_norm(zd)
            rows.append((sol.residual, diff))
        out[tau] = rows
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_resolvent_pipeline_residuals(pipeline_battery):
    worst = max(res for tau in (1.0, 5.0, 20.0, 100.0)
                for res, _ in pipeline_battery[tau])
    elapsed = pipeline_battery["elapsed"]
    ok = worst <= 1e-6 and elapsed < 120.0
    report_line("resolvent-pipeline-residuals", ok,
                f"worst residual {worst:.2e} over 40 solves, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 120.0


@pytest.mark.parametrize("tau", [1.0, 5.0, 20.0, 100.0])
def test_resolvent_cross_solver_agreement(pipeline_battery, tau):
    worst = max(diff for _, diff in pipeline_battery[tau])
    ok = worst <= 0.05
    report_line(f"resolvent-cross-solver-tau-{tau:g}", ok,
                f"worst energy-norm difference {100*worst:.2f}%")
    assert worst <= 0.05, (
        f"tau={tau:g}: the N=400 second-order grid carries "
        f"{worst:.1%} phase error against the continuous solve")


def test_kernel_closed_forms_and_decay_slopes(ref_model):
    t0 = time.perf_counter()
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    for tau in (5.0, 50.0):
        pair = fundamental_pair(tau, AffineTension(1.0, 0.0), 1.0, tol=1e-10)
        assert np.max(np.abs(pair.phi1 - np.sin(tau * pair.x))) < 1e-8
        assert np.max(np.abs(pair.phi2 - np.cos(tau * pair.x))) < 1e-8
        i0, i1 = greens_apply(one(pair.x), pair)
        assert np.max(np.abs(i0 - (1 - np.cos(tau * pair.x)) / tau**2)) < 1e-8
        assert np.max(np.abs(i1 - np.sin(tau * pair.x) / tau)) < 1e-8
    pair = fundamental_pair(10.0, AffineTension(4.0, 0.0), 1.0, tol=1e-10)
    assert np.max(np.abs(pair.phi1 - 2.0 * np.sin(5.0 * pair.x))) < 1e-8

    length = ref_model.length
    f = lambda x: np.cos(np.pi * x / length) + 0.5
    study = kernel_decay_study(np.geomspace(10.0, 1000.0, 9), f,
                               ref_model.tension, length)
    elapsed = time.perf_counter() - t0
    in_band = abs(study.slope_i0 + 2.0) < 0.2 and abs(study.slope_i1 + 1.0) < 0.2
    ok = in_band and elapsed < 60.0
    report_line("kernel-closed-forms-and-slopes", ok,
                f"slopes {study.slope_i0:.4f}, {study.slope_i1:.4f}, "
                f"{elapsed:.1f}s")
    assert in_band
    assert elapsed < 60.0


def test_generator_reproduces_datum_from_closed_form_inverse(ref_model):
    t0 = time.perf_counter()
    length = ref_model.length
    f_fun = lambda x: np.sin(np.pi * x / length)
    g_fun = lambda x: np.cos(np.pi * x / length) + 0.3
    errs = []
    for n in (50, 100, 200, 400):
        sys_h = assemble_generator(ref_model, n)
        x = sys_h.grid.x
        z = invert_generator(x, f_fun(x), g_fun(x), ref_model)
        recovered = sys_h.A @ z
        datum = np.concatenate([f_fun(x), g_fun(x)])
        errs.append(float(np.max(np.abs(recovered - datum))))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    elapsed = time.perf_counter() - t0
    ok = all(o >= 1.8 for o in orders) and elapsed < 10.0
    report_line("closed-form-inverse-order", ok,
                f"orders {['%.3f' % o for o in orders]}, {elapsed:.1f}s")
    for o in orders:
        assert o >= 1.8
    assert elapsed < 10.0


def test_norm_equivalence_interval_stable(ref_model):
    t0 = time.perf_counter()
    intervals = {n: norm_ratio_interval(assemble_generator(ref_model, n),
                                        samples=1000, seed=11)
                 for n in (50, 100, 200)}
    lo_ref, hi_ref = intervals[100]
    assert lo_ref > 0.0
    dev = max(max(abs(lo - lo_ref) / lo_ref, abs(hi - hi_ref) / hi_ref)
              for lo, hi in intervals.values())
    elapsed = time.perf_counter() - t0
    ok = dev <= 0.10 and elapsed < 10.0
    report_line("norm-equivalence-interval", ok,
                f"interval ({lo_ref:.4f}, {hi_ref:.4f}), drift {100*dev:.2f}%, "
                f"{elapsed:.1f}s")
    assert dev <= 0.10
    assert elapsed < 10.0
