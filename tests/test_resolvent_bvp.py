"""Continuous resolvent pipeline: kernels, margins, solves, decay."""

import contextlib
import threading
import tracemalloc
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import lu_factor, lu_solve
from scipy.special import j0, j1, y0, y1

from heavychain import resolvent_bvp
from heavychain.discretization import assemble_generator
from heavychain.model import (
    AffineTension,
    ControllerGains,
    check_admissibility,
    derive_physical_thetas,
    rescale,
)
from heavychain.resolvent_bvp import (
    MIN_GRID,
    SMALL_TAU,
    TAU_CAP,
    _fd4,
    _fd4_weights,
    _hankel_basis,
    _hankel_series,
    _kernel_sups,
    _pair_grid,
    _pair_values,
    _solve_collocation,
    c0_coefficient,
    continuous_resolvent_sweep,
    denominator_values,
    fundamental_pair,
    greens_apply,
    injectivity_check,
    kernel_decay_study,
    random_smooth_data,
    solve_resolvent_bvp,
)
from tests.conftest import four_callables

# Frozen reference values at the standard configuration.
MARGIN_ZERO = 0.025977777569955555
MARGIN_TAU1 = 0.8350180
C0_TAU1 = 0.010074265895203782 + 0.0522116998932754j
GAIN_EXAMPLE_TAU5 = 0.2196914
DENOM_MIN_RATIO = 4.154157
SLOPE_I0 = -1.98924
SLOPE_I1 = -0.99994


UNIT_TENSION = AffineTension(1.0, 0.0)


def unit_fun(x):
    return np.ones_like(np.asarray(x, dtype=float))


def zero_fun(x):
    return np.zeros_like(np.asarray(x, dtype=float))


# ---------------------------------------------------------------- kernels


def test_fundamental_pair_constant_tension_closed_form():
    for tau in (5.0, 20.0):
        pair = fundamental_pair(tau, UNIT_TENSION, 1.0, tol=1e-10)
        assert np.max(np.abs(pair.phi1 - np.sin(tau * pair.x))) < 1e-8
        assert np.max(np.abs(pair.phi2 - np.cos(tau * pair.x))) < 1e-8
        assert np.max(np.abs(pair.phi1p - tau * np.cos(tau * pair.x))) < 1e-7
        assert pair.tau == pytest.approx(tau)


def test_fundamental_pair_scaled_tension_closed_form():
    # with constant tension 4 the oscillator frequency halves
    pair = fundamental_pair(10.0, AffineTension(4.0, 0.0), 1.0, tol=1e-10)
    assert np.max(np.abs(pair.phi1 - 2.0 * np.sin(5.0 * pair.x))) < 1e-8


def test_wronskian_drift_reported_and_small():
    pair = fundamental_pair(20.0, UNIT_TENSION, 1.0, tol=1e-10)
    assert 0.0 <= pair.wronskian_drift < 1e-8 * max(1.0, 20.0)


def test_fundamental_pair_rejects_bad_frequencies(ref_model):
    with pytest.raises(ValueError):
        fundamental_pair(0.0, UNIT_TENSION, 1.0)
    with pytest.raises(ValueError):
        fundamental_pair(2.0 * TAU_CAP, UNIT_TENSION, 1.0)
    # NaN fails both comparisons with the range, and is refused by name
    with pytest.raises(ValueError, match=r"tau=nan outside \(0, TAU_CAP\]"):
        fundamental_pair(np.nan, UNIT_TENSION, 1.0)
    with pytest.raises(ValueError, match=r"tau=nan outside \(0, TAU_CAP\]"):
        solve_resolvent_bvp(unit_fun, zero_fun, np.nan, ref_model, f_prime=zero_fun,
                            g_prime=zero_fun)


@pytest.mark.parametrize("tau", [1.0, 100.0])
def test_fundamental_pair_matches_ode_integration(ref_model, tau):
    # independent route: integrate the oscillator numerically on the
    # closed-form pair's own grid
    tension = ref_model.tension
    pair = fundamental_pair(tau, tension, ref_model.length)

    def deriv(t, y):
        k = tau * tau / tension(t)
        return [y[1], -k * y[0], y[3], -k * y[2]]

    sol = solve_ivp(deriv, (0.0, ref_model.length), [0.0, tau, 1.0, 0.0],
                    t_eval=pair.x, method="DOP853", rtol=1e-12, atol=1e-12)
    closed = np.array([pair.phi1, pair.phi1p, pair.phi2, pair.phi2p])
    assert np.max(np.abs(closed - sol.y)) < 1e-8 * tau


@pytest.mark.parametrize("tension, reason", [
    (AffineTension(1.0, -2.0), "positive"),
], ids=["non-positive"])
def test_fundamental_pair_rejects_unsupported_tension(tension, reason):
    with pytest.raises(ValueError, match=reason):
        fundamental_pair(5.0, tension, 1.0)


def test_hankel_series_is_truncated_at_its_first_term_below_2_to_the_minus_56():
    # the coefficients (-1)^(k//2) a_k(nu) of the terms u^-k, the even k in
    # P and the odd in u Q, up to the first term below 2^-56 at u
    assert _hankel_series(0, 1e4) == ([1.0, -9.0 / 128.0], [-1.0 / 8.0, 75.0 / 1024.0])
    assert _hankel_series(1, 1e4) == ([1.0, 15.0 / 128.0, -4725.0 / 32768.0],
                                      [3.0 / 8.0, -105.0 / 1024.0])
    for nu in (0, 1):
        for u in (25.0, 62.6, 1e3):
            p, q = _hankel_series(nu, u)
            kept = [(p, q)[k % 2][k // 2] for k in range(len(p) + len(q))]
            a = [resolvent_bvp._hankel_coefficient(nu, k) for k in range(len(kept) + 1)]
            assert kept == [a[k] if k % 4 < 2 else -a[k] for k in range(len(kept))]
            assert min(abs(c) / u ** k for k, c in enumerate(kept)) >= 2.0 ** -56
            assert abs(a[-1]) / u ** len(kept) < 2.0 ** -56
    assert [len(s) for s in _hankel_series(1, 25.0)] == [10, 9]
    with pytest.raises(ValueError, match="Hankel"):
        _hankel_series(0, 5.0)


def test_hankel_basis_matches_scipy_bessel_functions():
    # P = 625 + x, so u = sqrt(P) at tau = 1/2 and slope 1, on u in
    # [25, 1e4]: J0 and Y0 within 1e-15 of the amplitude sqrt(2 / (pi u))
    # (6.4e-16 measured), J1 and Y1 within 2e-15 plus two ulp of u (Cephes
    # rounds u - 3 pi/4 on its own, one ulp of u in phase: 7.4e-13 at
    # u = 8 405 measured)
    x = np.geomspace(25.0, 1e4, 20001) ** 2 - 625.0
    series = (_hankel_series(0, 25.0), _hankel_series(1, 25.0))
    a, ap, b, bp = (z[1:] for z in _hankel_basis(0.5, 625.0, 1.0, x, series))
    u = np.sqrt(625.0 + x)  # the series' u and sqrt(P)
    amp = np.sqrt(2.0 / (np.pi * u))
    order0 = np.maximum(np.abs(2.0 * ap - j0(u)), np.abs(2.0 * bp - y0(u))) / amp
    order1 = np.maximum(np.abs(a / u - j1(u)), np.abs(b / u - y1(u))) / amp
    assert np.max(order0) <= 1e-15
    assert np.all(order1 <= 2e-15 + 2.0 * np.spacing(u))
    assert np.max(order1[u <= 40.0]) <= 2.5e-15


@pytest.mark.parametrize("tau, bound", [(10.0, 1e-14), (100.0, 1e-13), (1000.0, 1e-12)])
def test_hankel_pair_matches_the_scipy_pair(ref_model, monkeypatch, tau, bound):
    # the pair on its grid (u >= 62 at tau = 10) against the same pair from
    # scipy's j0, j1, y0, y1, relative to each component's largest value
    # (8.8e-15, 5.2e-14 and 8.8e-13 measured); the Wronskian drifts no
    # more (1.14e-12 at tau = 1000 on both routes)
    pair = fundamental_pair(tau, ref_model.tension, ref_model.length)
    monkeypatch.setattr(resolvent_bvp, "_HANKEL_FROM", np.inf)
    ref = fundamental_pair(tau, ref_model.tension, ref_model.length)
    for name in ("phi1", "phi1p", "phi2", "phi2p"):
        got, want = getattr(pair, name), getattr(ref, name)
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))
    assert pair.wronskian_drift <= ref.wronskian_drift


def test_pair_route_comes_from_the_chain_not_the_slice(ref_model, monkeypatch):
    # at tau = 5 the chain has u >= 31.3: every slice of the grid takes the
    # series, with the 16 terms per order of the smallest u on [0, L], and
    # gives the whole grid's floats; a slice near x = 0 alone (u >= 44.3)
    # would need 13
    tension, length = ref_model.tension, ref_model.length
    x = _pair_grid(5.0, tension, length, 400)
    whole = _pair_values(5.0, tension, length, x)
    calls = []
    series = resolvent_bvp._hankel_series
    monkeypatch.setattr(resolvent_bvp, "_hankel_series",
                        lambda nu, u: calls.append(u) or series(nu, u))
    for part in (slice(0, 7), slice(100, 1000), slice(len(x) - 3, None)):
        for got, want in zip(_pair_values(5.0, tension, length, x[part]), whole):
            assert np.array_equal(got, want[part])
    assert set(calls) == {10.0 * np.sqrt(ref_model.tensionL)}


def test_scalars_keep_scipy_and_their_bits(ref_model, monkeypatch):
    # the injectivity margins and the boundary determinant evaluate the
    # pair at a scalar x, which keeps scipy's j0, j1, y0, y1 whatever the
    # array route; the floats are those of the scipy-only pair
    taus = [0.5, 5.0, 50.0, 500.0]
    denominators = [4.97018503257455, 55.09675581581569, 366.83304803337506,
                    5790.971381143622]
    margins = [0.25332237678769365, 28.081934666572725, 1869.6893375809125,
               295156.54338142823]
    for start in (resolvent_bvp._HANKEL_FROM, 0.0):
        monkeypatch.setattr(resolvent_bvp, "_HANKEL_FROM", start)
        assert denominator_values(ref_model, taus).tolist() == denominators
        assert [injectivity_check(tau, ref_model) for tau in taus] == margins


def test_hankel_route_holds_no_more_arrays_than_scipy(ref_model, monkeypatch):
    # the series works in place: at the peak it holds as many arrays of x's
    # length as the scipy route (ten, four of them the pair)
    x = np.linspace(0.0, ref_model.length, 8194)

    def peak():
        _pair_values(100.0, ref_model.tension, ref_model.length, x)
        tracemalloc.start()
        try:
            _pair_values(100.0, ref_model.tension, ref_model.length, x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    series = peak()
    monkeypatch.setattr(resolvent_bvp, "_HANKEL_FROM", np.inf)
    assert series <= peak() + 0.1 * x.nbytes


def test_greens_apply_closed_form():
    # constant forcing against sin/cos kernels integrates in closed form
    tau = 5.0
    pair = fundamental_pair(tau, UNIT_TENSION, 1.0, tol=1e-10)
    i0, i1 = greens_apply(unit_fun(pair.x), pair)
    assert np.max(np.abs(i0 - (1.0 - np.cos(tau * pair.x)) / tau**2)) < 1e-8
    assert np.max(np.abs(i1 - np.sin(tau * pair.x) / tau)) < 1e-8


# ------------------------------------------------- injectivity and margins


def test_boundary_coefficient_formula(ref_model):
    m = ref_model
    tau = 1.0
    expected = -(m.theta3 + tau**2 + 1j * tau * m.theta1) / (
        m.theta4 + 1j * tau * m.theta2
    )
    assert c0_coefficient(tau, m) == pytest.approx(expected)
    assert c0_coefficient(tau, m) == pytest.approx(C0_TAU1, rel=1e-6)
    assert c0_coefficient(tau, m).imag > 0.0


def test_injectivity_margin_at_zero(ref_model):
    assert injectivity_check(0.0, ref_model) == pytest.approx(
        abs(ref_model.theta3)
    )
    assert injectivity_check(0.0, ref_model) == pytest.approx(MARGIN_ZERO)


def test_injectivity_margin_reference_value(ref_model):
    assert injectivity_check(1.0, ref_model) == pytest.approx(
        MARGIN_TAU1, rel=1e-4
    )


def test_injectivity_margin_positive_over_sweep(ref_model):
    taus = np.geomspace(0.1, 100.0, 12)
    margins = [injectivity_check(t, ref_model) for t in taus]
    assert min(margins) > 0.0
    imags = [c0_coefficient(t, ref_model).imag for t in taus]
    assert min(imags) > 0.0


@pytest.mark.parametrize("tau", [0.5, 8.0, 100.0])
def test_injectivity_margin_matches_shooting(ref_model, tau):
    # independent route: shoot (P w')' + tau^2 w = 0 from the cart end with
    # the forced data (1, c0) and read the payload-condition defect
    m = ref_model
    c0 = c0_coefficient(tau, m)

    def deriv(t, y):
        w, u = y[:2] + 1j * y[2:]
        dw = u / m.tension(t)
        du = -tau * tau * w
        return [dw.real, du.real, dw.imag, du.imag]

    y0 = [1.0, m.tension0 * c0.real, 0.0, m.tension0 * c0.imag]
    sol = solve_ivp(deriv, (0.0, m.length), y0, method="DOP853",
                    rtol=1e-12, atol=1e-12)
    w_end = sol.y[0, -1] + 1j * sol.y[2, -1]
    u_end = sol.y[1, -1] + 1j * sol.y[3, -1]
    shot = abs(u_end / m.tensionL - tau * tau * w_end)
    assert injectivity_check(tau, m) == pytest.approx(shot, rel=1e-8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf])
def test_denominator_values_refuses_tau_that_is_not_finite_and_positive(ref_model, tau):
    with pytest.raises(ValueError, match=r"tau=%g: .*negative frequencies by conjugation" % tau):
        denominator_values(ref_model, [1.0, tau])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
def test_injectivity_margin_refuses_a_tau_that_is_not_finite(ref_model, tau):
    with pytest.raises(ValueError, match="tau=%g: .*finite" % tau):
        injectivity_check(tau, ref_model)


def test_injectivity_rejects_non_admissible(ref_params):
    weak = rescale(
        ref_params,
        derive_physical_thetas(ref_params, ControllerGains(1.0, 1.0, 0.5)),
    )
    assert not check_admissibility(weak).admissible
    with pytest.raises(ValueError):
        injectivity_check(1.0, weak)
    with pytest.raises(ValueError):
        solve_resolvent_bvp(unit_fun, zero_fun, 1.0, weak, f_prime=zero_fun, g_prime=zero_fun)


@settings(max_examples=10, deadline=None)
@given(
    chi1=st.floats(0.2, 3.0),
    chi2=st.floats(0.2, 3.0),
    chi3=st.floats(2.2, 6.0),
    tau=st.floats(0.5, 30.0),
)
def test_margin_positive_for_admissible_draws(chi1, chi2, chi3, tau):
    from tests.conftest import REF_PARAMS

    m = rescale(
        REF_PARAMS,
        derive_physical_thetas(REF_PARAMS, ControllerGains(chi1, chi2, chi3)),
    )
    assume(check_admissibility(m).admissible)
    assert injectivity_check(tau, m) > 0.0
    assert c0_coefficient(tau, m).imag > 0.0


# ------------------------------------------------------------------ solves


def test_reference_solve_smooth_datum(ref_model):
    m = ref_model
    length = m.length
    f = lambda x: np.sin(np.pi * x / length)
    fp = lambda x: (np.pi / length) * np.cos(np.pi * x / length)
    sol = solve_resolvent_bvp(f, zero_fun, 5.0, m, f_prime=fp, g_prime=zero_fun)
    assert sol.method == "pipeline"
    assert sol.residual <= 1e-6
    assert sol.gain == pytest.approx(GAIN_EXAMPLE_TAU5, rel=1e-3)
    # the first line of the system ties v to w algebraically
    assert np.max(np.abs(sol.v - f(sol.x) - 5.0j * sol.w)) < 1e-9


def test_random_data_residuals(ref_model):
    rng = np.random.default_rng(7)
    data = [four_callables(random_smooth_data(rng, ref_model.length)) for _ in range(2)]
    for tau in (1.0, 5.0, 20.0, 100.0):
        for f, g, fp, gp in data:
            sol = solve_resolvent_bvp(f, g, tau, ref_model, f_prime=fp, g_prime=gp)
            assert sol.residual <= 1e-6, (tau, sol.residual)


def test_agreement_with_matrix_solver_low_frequency(ref_model):
    # both solvers see the same smooth datum; at tau=1 the matrix side is
    # fully resolved and the two answers coincide to a fraction of a percent
    m = ref_model
    sys = assemble_generator(m, 400)
    x = sys.grid.x
    rng = np.random.default_rng(3)
    f, g, fp, gp = four_callables(random_smooth_data(rng, m.length))
    tau = 1.0
    sol = solve_resolvent_bvp(f, g, tau, m, f_prime=fp, g_prime=gp)
    r = np.concatenate([f(x), g(x)])
    zd = lu_solve(lu_factor(sys.A - 1j * tau * np.eye(len(r))), r)
    gain_d = sys.weighted_norm(zd) / sys.weighted_norm(r)
    assert sol.gain == pytest.approx(gain_d, rel=2e-2)
    wc = np.interp(x, sol.x, sol.w.real) + 1j * np.interp(x, sol.x, sol.w.imag)
    vc = np.interp(x, sol.x, sol.v.real) + 1j * np.interp(x, sol.x, sol.v.imag)
    diff = sys.weighted_norm(np.concatenate([wc, vc]) - zd)
    assert diff / sys.weighted_norm(zd) < 2e-2


def test_negative_frequency_solves_by_conjugation(ref_model):
    length = ref_model.length
    f = lambda x: np.sin(np.pi * x / length)
    fp = lambda x: (np.pi / length) * np.cos(np.pi * x / length)
    pos = solve_resolvent_bvp(f, zero_fun, 5.0, ref_model, f_prime=fp, g_prime=zero_fun)
    neg = solve_resolvent_bvp(f, zero_fun, -5.0, ref_model, f_prime=fp, g_prime=zero_fun)
    assert np.allclose(neg.w, np.conj(pos.w), atol=1e-12)
    assert np.allclose(neg.v, np.conj(pos.v), atol=1e-12)
    assert neg.c1 == pytest.approx(np.conj(pos.c1))
    assert neg.gain == pytest.approx(pos.gain)


def test_zero_data_gives_zero_solution(ref_model):
    sol = solve_resolvent_bvp(zero_fun, zero_fun, 2.0, ref_model,
                              f_prime=zero_fun, g_prime=zero_fun)
    assert sol.gain == 0.0
    assert sol.residual == 0.0
    assert np.max(np.abs(sol.w)) == 0.0


def test_collocation_branch_below_crossover(ref_model):
    length = ref_model.length
    f = lambda x: np.sin(np.pi * x / length)
    fp = lambda x: (np.pi / length) * np.cos(np.pi * x / length)
    g = lambda x: 0.1 * np.cos(np.pi * x / length)
    gp = lambda x: -0.1 * (np.pi / length) * np.sin(np.pi * x / length)
    sol = solve_resolvent_bvp(f, g, 0.05, ref_model, f_prime=fp, g_prime=gp)
    assert sol.method == "collocation"
    assert sol.residual <= 5e-6
    assert np.isfinite(sol.gain) and sol.gain > 0.0
    # N(tau) from the closed form, NaN for the pipeline's own coefficients
    assert abs(sol.denominator) == denominator_values(ref_model, [0.05])[0]
    assert abs(sol.denominator) == pytest.approx(1.7346, abs=1e-4)
    for c in (sol.c1, sol.c2, sol.a0, sol.a1):
        assert np.isnan(c.real) and np.isnan(c.imag)
    mirrored = solve_resolvent_bvp(f, g, -0.05, ref_model, f_prime=fp, g_prime=gp)
    assert mirrored.denominator == np.conj(sol.denominator)
    # the closed form divides by tau
    assert np.isnan(solve_resolvent_bvp(f, g, 0.0, ref_model, f_prime=fp,
                                        g_prime=gp).denominator)


def test_methods_agree_at_crossover(ref_model):
    # just above the crossover both routes are available and must agree
    length = ref_model.length
    f = lambda x: np.sin(np.pi * x / length)
    fp = lambda x: (np.pi / length) * np.cos(np.pi * x / length)
    g = lambda x: 0.1 * np.cos(np.pi * x / length)
    gp = lambda x: -0.1 * (np.pi / length) * np.sin(np.pi * x / length)
    tau = SMALL_TAU
    piped = solve_resolvent_bvp(f, g, tau, ref_model, f_prime=fp, g_prime=gp)
    colloc = _solve_collocation(f, g, tau, ref_model, check_admissibility(ref_model))
    assert piped.method == "pipeline"
    wi = np.interp(colloc.x, piped.x, piped.w.real) + 1j * np.interp(
        colloc.x, piped.x, piped.w.imag
    )
    rel = np.max(np.abs(wi - colloc.w)) / np.max(np.abs(colloc.w))
    assert rel < 1e-4


def test_sweep_produces_labelled_samples(ref_model):
    rng = np.random.default_rng(5)
    data = [random_smooth_data(rng, ref_model.length)]
    samples = continuous_resolvent_sweep(ref_model, [0.5, 2.0], data)
    assert [s.tau for s in samples] == [0.5, 2.0]
    assert all(s.source == "continuous" for s in samples)
    assert all(s.norm > 0.0 for s in samples)


def test_sweep_samples_each_datum_once_per_grid(ref_model):
    # the sweep's norms are the same floats as one solve per datum and
    # tau, while each sampler is called once per distinct pair grid: the
    # four from 0.5 to 80 share MIN_GRID's 1 601 nodes
    taus = [0.5, 2.0, 30.0, 80.0, 300.0, 600.0, TAU_CAP]
    rng = np.random.default_rng(11)
    first, second = (random_smooth_data(rng, ref_model.length) for _ in range(2))
    calls = []

    def counted(x):
        calls.append(len(x))
        return first(x)

    samples = continuous_resolvent_sweep(ref_model, taus, [counted, second])
    for tau, sample in zip(taus, samples):
        pair = fundamental_pair(tau, ref_model.tension, ref_model.length, tol=1e-6,
                                points_per_wavelength=40)
        assert sample.norm == max(
            solve_resolvent_bvp(f, g, tau, ref_model, pair=pair, f_prime=fp, g_prime=gp).gain
            for f, g, fp, gp in map(four_callables, (first, second)))
    grids = [len(_pair_grid(tau, ref_model.tension, ref_model.length, 40)) for tau in taus]
    assert grids[:4] == [MIN_GRID + 1] * 4 and len(set(grids)) == 4
    assert calls == sorted(set(grids))
    # a generator of samplers reads as the list does on every grid, not
    # only on the first
    assert continuous_resolvent_sweep(ref_model, taus[:5], iter([first, second])) == samples[:5]
    # below SMALL_TAU and above TAU_CAP the sweep refuses, before it
    # samples anything
    calls.clear()
    with pytest.raises(ValueError, match="SMALL_TAU"):
        continuous_resolvent_sweep(ref_model, [0.5, 0.05], [counted])
    with pytest.raises(ValueError, match="TAU_CAP"):
        continuous_resolvent_sweep(ref_model, [0.5, 2.0 * TAU_CAP], [counted])
    for taus in ([1.0, np.nan], [np.nan, 1.0]):  # min([1.0, nan]) is 1.0
        with pytest.raises(ValueError, match=r"tau=nan leaves \[SMALL_TAU, TAU_CAP\]"):
            continuous_resolvent_sweep(ref_model, taus, [counted])
    for data in ([], iter([])):  # an empty family read as norm 0.0
        with pytest.raises(ValueError, match="empty family has no maximum"):
            continuous_resolvent_sweep(ref_model, [1.0, 300.0], data)
    assert calls == []


def test_sweep_shares_read_only_samples(ref_model, monkeypatch):
    # 0.5 and 2.0 share MIN_GRID's grid, and the pipeline receives the
    # same read-only samples of the datum at both; 300 has a grid and
    # samples of its own
    seen = []
    pipeline = resolvent_bvp._pipeline

    def recording(tau, pair, *sampled):
        seen.append((pair.x, sampled[:4]))
        return pipeline(tau, pair, *sampled)

    monkeypatch.setattr(resolvent_bvp, "_pipeline", recording)
    data = [random_smooth_data(np.random.default_rng(12), ref_model.length)]
    continuous_resolvent_sweep(ref_model, [0.5, 2.0, 300.0], data)
    (x_low, low), (x_high, high), (x_own, own) = seen
    assert x_low is x_high and x_own is not x_low
    assert all(a is b for a, b in zip(low, high))
    assert not any(a is b for a, b in zip(low, own))
    assert not any(a.flags.writeable for a in (*low, *own, x_low, x_own))


def test_sweep_computes_no_audit(ref_model, monkeypatch):
    # the sweep computes gains alone: neither the line residuals nor the
    # Sobolev norms of solve_resolvent_bvp's audit run, and the gains are
    # still its floats
    taus = [0.5, 2.0, 300.0, TAU_CAP]
    data = [random_smooth_data(np.random.default_rng(13), ref_model.length) for _ in range(2)]

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep ran a part of the audit")

    monkeypatch.setattr(resolvent_bvp, "_line_residuals", refuse)
    monkeypatch.setattr(resolvent_bvp, "sobolev_norms", refuse)
    samples = continuous_resolvent_sweep(ref_model, taus, data)
    monkeypatch.undo()
    for tau, sample in zip(taus, samples):
        pair = fundamental_pair(tau, ref_model.tension, ref_model.length, tol=1e-6,
                                points_per_wavelength=40)
        assert sample.norm == max(
            solve_resolvent_bvp(f, g, tau, ref_model, pair=pair, f_prime=fp, g_prime=gp).gain
            for f, g, fp, gp in map(four_callables, data))


def test_numpy_and_python_tau_give_the_same_floats(ref_model):
    # NumPy and Python divide complex numbers differently, so each entry
    # point takes tau as a float: a sample re-solved at its stored tau
    # (a float) reproduces the sweep's gain, which was taken at a NumPy tau
    taus = np.geomspace(SMALL_TAU, 1000.0, 25)  # the CLI's continuous sweep
    assert [c0_coefficient(t, ref_model) for t in taus] == [
        c0_coefficient(float(t), ref_model) for t in taus]
    assert np.array_equal(denominator_values(ref_model, taus),
                          denominator_values(ref_model, taus.tolist()))
    data = [random_smooth_data(np.random.default_rng(0), ref_model.length) for _ in range(2)]
    for sample in continuous_resolvent_sweep(ref_model, taus, data):
        pair = fundamental_pair(sample.tau, ref_model.tension, ref_model.length, tol=1e-6,
                                points_per_wavelength=40)
        assert sample.norm == max(solve_resolvent_bvp(
            f, g, sample.tau, ref_model, pair=pair, f_prime=fp, g_prime=gp).gain
            for f, g, fp, gp in map(four_callables, data))


def _closed_form_data(rng, length):
    """random_smooth_data's (f, g, f', g') written out term by term, each
    harmonic's sine and cosine evaluated where it is used."""
    cf = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    cg = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    af = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    ag = rng.standard_normal(2) + 1j * rng.standard_normal(2)

    def fun(c, a, x):
        out = a[0] + a[1] * x / length
        for k in range(3):
            wk = (k + 1) * np.pi / length
            out = out + c[k, 0] * np.sin(wk * x) + c[k, 1] * np.cos(wk * x)
        return out

    def dfun(c, a, x):
        out = np.full_like(x, a[1] / length, dtype=complex)
        for k in range(3):
            wk = (k + 1) * np.pi / length
            out = out + wk * (c[k, 0] * np.cos(wk * x) - c[k, 1] * np.sin(wk * x))
        return out

    return (partial(fun, cf, af), partial(fun, cg, ag),
            partial(dfun, cf, af), partial(dfun, cg, ag))


def test_random_smooth_data_is_its_closed_form(ref_model, monkeypatch):
    # the sampler keeps nothing between calls: every call gives the closed
    # form's floats from three sines, one per harmonic, on an owned
    # read-only grid, on a read-only view, and on a writable grid changed
    # in place between calls (which changes the view too)
    length = ref_model.length
    sample = random_smooth_data(np.random.default_rng(21), length)
    ref = _closed_form_data(np.random.default_rng(21), length)
    owned, other = np.linspace(0.0, length, 1601).copy(), np.linspace(0.0, length, 701)
    owned.flags.writeable = other.flags.writeable = False
    writable = np.linspace(0.0, length, 1601)
    view = writable.view()
    view.flags.writeable = False
    sines, sin = [], np.sin
    monkeypatch.setattr(np, "sin", lambda x: sines.append(x) or sin(x))

    def check(x):
        before = len(sines)
        got = sample(x)
        assert len(sines) - before == 3
        for value, closed in zip(got, ref):
            np.testing.assert_array_equal(value, closed(np.array(x)))

    for x in (owned, owned, other, view, owned, view):
        check(x)
    for _ in range(3):
        check(writable)
        check(view)
        writable *= 1.0 + 1e-3
    owned.flags.writeable = True  # a grid read once, then made writable and changed
    owned *= 1.0 + 1e-3
    check(owned)


# ------------------------------------------------------- uniform estimates


def test_denominator_grows_linearly(ref_model):
    taus = np.geomspace(10.0, 1000.0, 13)
    vals = denominator_values(ref_model, taus)
    ratios = vals / taus
    assert np.min(ratios) == pytest.approx(DENOM_MIN_RATIO, rel=1e-3)
    assert np.min(ratios) > 2.0


def test_kernel_decay_slopes(ref_model):
    length = ref_model.length
    f = lambda x: np.cos(np.pi * x / length) + 0.5
    study = kernel_decay_study(
        np.geomspace(10.0, 1000.0, 9), f, ref_model.tension, length
    )
    assert study.slope_i0 == pytest.approx(SLOPE_I0, rel=1e-3)
    assert study.slope_i1 == pytest.approx(SLOPE_I1, rel=1e-3)
    assert abs(study.slope_i0 + 2.0) < 0.2
    assert abs(study.slope_i1 + 1.0) < 0.2
    # the sup curves themselves decrease across the range
    assert study.sup_i0[-1] < study.sup_i0[0]
    assert study.sup_i1[-1] < study.sup_i1[0]


def test_kernel_decay_study_rejects_degenerate_input(ref_model):
    with pytest.raises(ValueError):
        kernel_decay_study(
            np.geomspace(10.0, 1000.0, 5), zero_fun, ref_model.tension,
            ref_model.length,
        )
    with pytest.raises(ValueError):
        kernel_decay_study(
            np.linspace(10.0, 20.0, 5), unit_fun, ref_model.tension,
            ref_model.length,
        )


RANGE = r"two decades of \[10, TAU_CAP\]=\[10, 1000\]"
SHAPE = "one-dimensional grid of at least two frequencies"


@pytest.mark.parametrize("taus, match", [
    (np.geomspace(10.0, 2000.0, 13), RANGE), ([10.0, np.nan, 1000.0], RANGE),
    ([10.0, 100.0, np.inf], RANGE), ([], SHAPE), ([1000.0], SHAPE), ([[10.0, 1000.0]], SHAPE)],
    ids=["beyond-cap", "nan", "inf", "empty", "one-point", "two-dimensional"])
def test_kernel_decay_study_refuses_out_of_range_taus_up_front(ref_model, taus, match,
                                                               monkeypatch):
    # one ValueError naming the range or the shape, before any pair is evaluated
    pairs = []
    monkeypatch.setattr(resolvent_bvp, "_pair_values", lambda *args: pairs.append(args))
    with pytest.raises(ValueError, match=match):
        kernel_decay_study(taus, unit_fun, ref_model.tension, ref_model.length)
    assert pairs == []


def test_kernel_decay_study_refuses_what_the_pair_refuses(ref_model):
    with pytest.raises(ValueError, match="TAU_CAP"):
        kernel_decay_study(np.geomspace(10.0, 2.0 * TAU_CAP, 5), unit_fun,
                           ref_model.tension, ref_model.length)
    with pytest.raises(ValueError, match="positive"):
        kernel_decay_study(np.geomspace(10.0, 1000.0, 3), unit_fun,
                           AffineTension(1.0, -2.0), 1.0)


def _whole_grid(tau, f, chain, ppw=160, tol=1e-8):
    """fundamental_pair and greens_apply of f on the whole grid of the
    chain's tension and length: the blockwise walk's reference."""
    pair = fundamental_pair(tau, chain.tension, chain.length, tol=tol,
                            points_per_wavelength=ppw)
    return pair, *greens_apply(f(pair.x), pair)


def _whole_grid_sups(tau, f, chain, ppw=160):
    """(sup |I0|, sup |I1|) on the whole grid, the rows where they peak,
    and the grid's node count."""
    pair, *integrals = _whole_grid(tau, f, chain, ppw)
    return ([np.max(np.abs(i)) for i in integrals],
            [int(np.argmax(np.abs(i))) for i in integrals], len(pair.x))


def _kernel_data(ref_model):
    return lambda x: np.cos(np.pi * x / ref_model.length) + 0.5


@pytest.mark.parametrize("residue", [1, 2, 3])
def test_blockwise_kernel_integrals_match_whole_grid_across_seams(ref_model, monkeypatch,
                                                                  residue):
    # 64-node blocks whose last window holds 1, 2 or 3 rows, where the seam
    # halo and the one-sided end rows of _fd4 both act, and a datum whose
    # whole-grid |I0| and |I1| both peak in that window: the sups are those
    # rows' floats, so a wrong halo or end row would change them
    monkeypatch.setattr(resolvent_bvp, "_BLOCK", 64)
    f = lambda x: (np.asarray(x) / ref_model.length) ** 8  # noqa: E731
    tau, sups = next(
        (tau, sups) for tau in np.arange(20.0, 40.0, 0.05)
        if len(_pair_grid(tau, ref_model.tension, ref_model.length, 160)) % 64 == residue
        for sups, rows, size in [_whole_grid_sups(tau, f, ref_model)]
        if min(rows) >= size - residue)
    np.testing.assert_array_equal(
        _kernel_sups(tau, f, ref_model.tension, ref_model.length, 160), sups)


def test_blockwise_kernel_sups_with_the_peak_on_a_seam(ref_model, monkeypatch):
    # the study's datum at tau = 30, where |I0| and |I1| peak inside the
    # grid: blocks of row nodes put the peak's row first after a seam,
    # where the running sums restart from the carry and the end correction
    # reads the left halo; blocks of row + 1 nodes put it last before the
    # seam, where the end correction reads the right halo
    f = _kernel_data(ref_model)
    sups, rows, size = _whole_grid_sups(30.0, f, ref_model)
    for row in rows:
        assert 64 < row < size - 3
        for block in (row, row + 1):
            monkeypatch.setattr(resolvent_bvp, "_BLOCK", block)
            np.testing.assert_array_equal(
                _kernel_sups(30.0, f, ref_model.tension, ref_model.length, 160), sups)


def test_blockwise_wronskian_drift_is_the_whole_grid_drift(ref_model, monkeypatch):
    # the refusal reads the largest drift over all blocks, as
    # fundamental_pair reads it over the whole grid
    monkeypatch.setattr(resolvent_bvp, "_BLOCK", 64)
    f = _kernel_data(ref_model)
    tau = 30.0
    drift = _whole_grid(tau, f, ref_model)[0].wronskian_drift / tau
    monkeypatch.setattr(resolvent_bvp, "DRIFT_TOL", 0.999 * drift)
    with pytest.raises(RuntimeError, match="Wronskian drift"):
        _kernel_sups(tau, f, ref_model.tension, ref_model.length, 160)
    monkeypatch.setattr(resolvent_bvp, "DRIFT_TOL", 1.001 * drift)
    _kernel_sups(tau, f, ref_model.tension, ref_model.length, 160)


def test_blockwise_degenerate_data_is_judged_on_the_whole_grid(ref_model, monkeypatch):
    monkeypatch.setattr(resolvent_bvp, "_BLOCK", 64)
    length = ref_model.length
    # zero on every block but a few in the middle, so neither the first
    # nor the last block alone decides
    bump = lambda x: np.where(np.abs(np.asarray(x) - 0.5 * length) < 0.05 * length, 1.0, 0.0)
    assert min(_kernel_sups(30.0, bump, ref_model.tension, length, 160)) > 0.0
    with pytest.raises(ValueError, match="degenerate"):
        _kernel_sups(30.0, zero_fun, ref_model.tension, length, 160)


def test_kernel_decay_study_memory_is_o_block(ref_model):
    # beside the one grid at TAU_CAP (598 187 floats), a block step holds
    # about seventeen float arrays of a window's length (17.1 measured;
    # the block and its 2 + 2 halo nodes): the pair with its Bessel
    # basis and temporaries, f, the
    # two integrands with their stencils and running sums, I0 and I1, and
    # the previous block's results.  The bound allows 32.  The
    # whole-grid study holds about fifteen grid-length arrays (66 MB).
    length = ref_model.length
    f = _kernel_data(ref_model)
    taus = np.geomspace(10.0, 1000.0, 13)
    grid_bytes = _pair_grid(taus[-1], ref_model.tension, length, 1200).nbytes
    window_bytes = (resolvent_bvp._BLOCK + 4) * 8
    tracemalloc.start()
    try:
        kernel_decay_study(taus, f, ref_model.tension, length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid_bytes + 32 * window_bytes


@pytest.mark.parametrize("block, stiff", [(None, False), (64, True), (4099, False)],
                         ids=["default-block", "block-64-stiff-chain", "block-4099"])
def test_kernel_decay_study_matches_whole_grid_reference(ref_model, monkeypatch, block, stiff):
    # the sups are the floats that fundamental_pair and greens_apply give
    # on the whole grid: with the study's own block; with 64-node blocks,
    # on a stiff tension that keeps the walk short; and with an odd block
    # that puts the seams anywhere, up to TAU_CAP's 598 187 nodes
    if block is not None:
        monkeypatch.setattr(resolvent_bvp, "_BLOCK", block)
    chain = SimpleNamespace(tension=AffineTension(400.0, -1.0), length=1.0) if stiff else ref_model
    f = _kernel_data(ref_model)
    taus = np.geomspace(10.0, 1000.0, 3)
    study = kernel_decay_study(taus, f, chain.tension, chain.length)
    ref = [[np.max(np.abs(i)) for i in
            _whole_grid(tau, f, chain, ppw=int(max(160, 1.2 * tau)))[1:]] for tau in taus]
    np.testing.assert_array_equal(np.column_stack([study.sup_i0, study.sup_i1]), ref)


@pytest.mark.parametrize("refusal", [None, "drift", "degenerate"])
def test_kernel_decay_study_evaluates_every_pair_on_the_calling_thread(ref_model, monkeypatch,
                                                                       refusal):
    # whether the study returns or refuses (a drifting pair, data that
    # vanish), no other thread evaluates a pair
    threads = []

    def values(*args):
        threads.append(threading.get_ident())
        phis = _pair_values(*args)
        return (phis[0], phis[1] + 1.0, *phis[2:]) if refusal == "drift" else phis

    monkeypatch.setattr(resolvent_bvp, "_pair_values", values)
    f = zero_fun if refusal == "degenerate" else _kernel_data(ref_model)
    match = {"drift": "Wronskian drift", "degenerate": "degenerate"}.get(refusal)
    with (pytest.raises((RuntimeError, ValueError), match=match) if refusal
          else contextlib.nullcontext()):
        kernel_decay_study(np.geomspace(10.0, 1000.0, 3), f, ref_model.tension,
                           ref_model.length)
    assert threads and set(threads) == {threading.get_ident()}


def test_fd4_central_weights_and_quartic_exactness():
    np.testing.assert_allclose(12 * _fd4_weights(1)[0], [1, -8, 0, 8, -1], atol=1e-13)
    np.testing.assert_allclose(12 * _fd4_weights(2)[0], [-1, 16, -30, 16, -1], atol=1e-13)
    x = np.linspace(0.3, 1.7, 15)
    p = np.polynomial.Polynomial([0.5, -1.0, 2.0, 0.7, -1.3])
    for m in (1, 2):
        exact = p.deriv(m)(x)
        np.testing.assert_allclose(_fd4(p(x), x[1] - x[0], m), exact, rtol=0, atol=1e-10)
        np.testing.assert_allclose(_fd4((1 + 2j) * p(x), x[1] - x[0], m), (1 + 2j) * exact,
                                   rtol=0, atol=1e-10)
