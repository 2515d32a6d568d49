"""Crank-Nicolson stepping, physical energy ledger, decay fits."""

import dataclasses

import numpy as np
import pytest
from scipy import sparse

from heavychain import discretization
from heavychain.discretization import (
    KAPPA_DISSIPATIVITY,
    _interleaved,
    assemble_generator,
    sample_states,
)
from heavychain.model import ControllerGains, derive_physical_thetas, rescale
from heavychain.simulation import (
    C_LYAPUNOV,
    _cut,
    _jump_pays,
    _power,
    decay_fit,
    energies,
    simulate,
    verify_energy_identity,
)

REF_HBAR_TILT = 7.3575  # w = 1 - x/L, v = 0 on the reference parameters


def tilt_state(sys):
    # straight tilt: w~ = 1 - x~/L~, matching w = 1 - x/L in physical form
    z0 = np.zeros(sys.grid.size)
    z0[: sys.grid.n + 1] = 1.0 - sys.grid.x / sys.grid.length
    return z0


def test_zero_state_stays_zero(ref_model, ref_params, ref_gains):
    sys = assemble_generator(ref_model, 30)
    tr = simulate(np.zeros(sys.grid.size), sys, 1.0, dt=0.05)
    assert np.all(tr.states == 0.0)
    et = energies(tr, ref_params, ref_gains)
    assert np.all(et.hbar == 0.0) and np.all(et.total == 0.0)
    rep = verify_energy_identity(et)
    assert rep.residual == 0.0 and rep.satisfied


def test_contraction_along_reference_run(ref_model):
    sys = assemble_generator(ref_model, 100)
    z0 = np.zeros(sys.grid.size)
    z0[: sys.grid.n + 1] = 0.1
    dt = 0.02
    tr = simulate(z0, sys, 20.0, dt=dt)
    norms = tr.norm_history()
    slack = KAPPA_DISSIPATIVITY * sys.grid.dx * dt
    assert np.all(np.diff(norms) <= slack * norms[:-1])
    assert norms[-1] < norms[0]


def test_eigenmode_amplitude_tracking(ref_model):
    sys = assemble_generator(ref_model, 100)
    lam, vecs = np.linalg.eig(sys.A.toarray())
    sel = np.where((lam.imag > 0.5) & (lam.imag < 3.0))[0]
    k = sel[np.argmax(lam.real[sel])]
    period = 2.0 * np.pi / lam[k].imag
    tr = simulate(vecs[:, k], sys, period, dt=0.01)
    norms = tr.norm_history()
    exact = norms[0] * np.exp(lam[k].real * tr.times)
    assert np.max(np.abs(norms - exact) / exact) < 0.02


def test_energy_reference_tilt(ref_model, ref_params, ref_gains):
    sys = assemble_generator(ref_model, 200)
    tr = simulate(tilt_state(sys), sys, 2 * 0.01, dt=0.01)
    et = energies(tr, ref_params, ref_gains)
    # trapezoid quadrature is exact for the affine integrand of the tilt
    assert et.hbar[0] == pytest.approx(REF_HBAR_TILT, rel=1e-12)
    assert et.t[-1] == pytest.approx(tr.times[-1] / ref_model.s_t)


def test_energy_ordering_and_dissipation_sign(ref_model, ref_params, ref_gains):
    sys = assemble_generator(ref_model, 80)
    z0 = np.real(sample_states(sys, 3, seed=9)[-1])
    tr = simulate(z0, sys, 5.0, dt=0.01)
    et = energies(tr, ref_params, ref_gains)
    chi1 = ref_gains.chi1
    assert np.all(et.total >= et.vbar - 1e-12)
    assert np.all(et.vbar >= chi1 * et.hbar - 1e-12)
    assert np.all(et.hbar >= 0.0)
    assert np.all(et.dvdt_rhs <= 0.0)


def test_energy_identity_refinement(ref_model, ref_params, ref_gains):
    # same continuous initial state on both grids; halving dt and dx
    # together should cut the balance residual by about four
    residuals = []
    for n, dt in ((100, 4e-3), (200, 2e-3)):
        sys = assemble_generator(ref_model, n)
        z0 = np.real(sample_states(sys, 2, seed=4)[-1])
        tr = simulate(z0, sys, 3.0, dt=dt)
        rep = verify_energy_identity(energies(tr, ref_params, ref_gains))
        assert rep.satisfied and rep.constant == C_LYAPUNOV
        residuals.append(rep.residual)
    ratio = residuals[0] / residuals[1]
    assert 3.0 < ratio < 5.0
    # An admissible gain draw whose residual, from one seeded state, sits
    # 2.1x above the C_LYAPUNOV bound at every N (2.48, 2.16, 2.10, 2.10 at
    # N = 50-400): the frozen constant is not uniform over gains and
    # states.  The residual still falls at second order.
    gains = ControllerGains(0.8363547788869565, 1.8957948695581766, 4.818263946288127)
    m = rescale(ref_params, derive_physical_thetas(ref_params, gains))
    residuals = []
    for n in (100, 200):
        sys = assemble_generator(m, n)
        z0 = sample_states(sys, 1, seed=727432751)[0].real
        dt = sys.grid.dx / (8.0 * np.sqrt(m.tension0))
        tr = simulate(z0, sys, 200 * dt, dt=dt)
        residuals.append(verify_energy_identity(energies(tr, ref_params, gains)).residual)
    ratio = residuals[0] / residuals[1]
    assert 3.0 < ratio < 5.0


def test_decay_fit_pure_mode(ref_model):
    sys = assemble_generator(ref_model, 100)
    lam, vecs = np.linalg.eig(sys.A.toarray())
    sel = np.where((lam.imag > 0.5) & (lam.imag < 3.0))[0]
    k = sel[np.argmax(lam.real[sel])]
    horizon = 1.05 * np.log(10.0) / abs(lam[k].real)
    tr = simulate(vecs[:, k], sys, horizon, dt=0.02, store_every=5)
    fit = decay_fit(tr)
    assert fit.omega == pytest.approx(-lam[k].real, rel=0.05)
    assert fit.prefactor >= 1.0


def counting_forms(monkeypatch):
    """Count the energy-form evaluations of discretization._form."""
    calls = []
    form = discretization._form

    def counting(*args):
        calls.append(len(args[1]))
        return form(*args)

    monkeypatch.setattr(discretization, "_form", counting)
    return calls


def test_norm_history_is_computed_once_and_only_when_read(ref_model, ref_params, ref_gains,
                                                          monkeypatch):
    sys = assemble_generator(ref_model, 100)
    lam, vecs = np.linalg.eig(sys.A.toarray())
    sel = np.where((lam.imag > 0.5) & (lam.imag < 3.0))[0]
    k = sel[np.argmax(lam.real[sel])]
    tr = simulate(vecs[:, k], sys, 1.05 * np.log(10.0) / abs(lam[k].real), dt=0.02,
                  store_every=5)
    calls = counting_forms(monkeypatch)
    energies(tr, ref_params, ref_gains)
    assert calls == []
    norms = tr.norm_history()
    assert calls == [len(tr.times)]
    fit = decay_fit(tr)
    assert tr.norm_history() is norms and calls == [len(tr.times)]
    assert fit.omega == pytest.approx(-lam[k].real, rel=0.05)
    assert np.array_equal(norms, sys.weighted_norm(tr.states))
    with pytest.raises(ValueError, match="read-only"):
        norms[0] = 0.0


def test_trajectory_is_frozen_and_read_only(ref_model):
    sys = assemble_generator(ref_model, 20)
    z0 = sample_states(sys, 1, seed=3)[0].real
    tr = simulate(z0, sys, 0.05, dt=0.01)
    for field in ("system", "times", "states", "dt"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(tr, field, getattr(tr, field))
    with pytest.raises(ValueError, match="read-only"):
        tr.states[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        tr.times[0] = 1.0
    # a trajectory built from a caller's arrays holds read-only views of them
    states = np.array(tr.states)
    own = dataclasses.replace(tr, states=states)
    assert np.shares_memory(own.states, states) and states.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        own.states[0, 0] = 1.0


def test_energies_refuse_fewer_than_three_states(ref_model, ref_params, ref_gains):
    sys = assemble_generator(ref_model, 20)
    tr = simulate(sample_states(sys, 1, seed=3)[0].real, sys, 0.01, dt=0.01)
    assert len(tr.times) == 2
    with pytest.raises(ValueError, match="three stored states"):
        energies(tr, ref_params, ref_gains)


def test_decay_fit_rejects_degenerate_input(ref_model):
    sys = assemble_generator(ref_model, 30)
    tr = simulate(np.zeros(sys.grid.size), sys, 1.0, dt=0.1)
    with pytest.raises(ValueError, match="zero initial state"):
        decay_fit(tr)
    z0 = np.zeros(sys.grid.size)
    z0[: sys.grid.n + 1] = 0.1
    short = simulate(z0, sys, 1.0, dt=0.1)
    with pytest.raises(ValueError, match="10x"):
        decay_fit(short)


def test_cn_conserves_interior_wave_energy(ref_model):
    # Dirichlet-pinned interior wave: the generator is skew in the discrete
    # wave energy, which Crank-Nicolson then preserves to rounding noise.
    n = 60
    length = ref_model.length
    x = np.linspace(0.0, length, n + 1)
    dx = x[1] - x[0]
    p_half = ref_model.tension(0.5 * (x[:-1] + x[1:]))
    ni = n - 1
    K = np.zeros((ni, ni))
    for i in range(ni):
        K[i, i] = -(p_half[i] + p_half[i + 1]) / dx**2
        if i > 0:
            K[i, i - 1] = p_half[i] / dx**2
        if i < ni - 1:
            K[i, i + 1] = p_half[i + 1] / dx**2
    A = np.zeros((2 * ni, 2 * ni))
    A[:ni, ni:] = np.eye(ni)
    A[ni:, :ni] = K

    def wave_energy(z):
        w, v = z[:ni], z[ni:]
        w_ext = np.concatenate([[0.0], w, [0.0]])
        grad = np.diff(w_ext) / dx
        return 0.5 * dx * (np.sum(p_half * grad**2) + np.sum(v**2))

    rng = np.random.default_rng(3)
    z = rng.standard_normal(2 * ni)
    dt = 0.05
    from scipy.linalg import lu_factor, lu_solve

    lu = lu_factor(np.eye(2 * ni) - 0.5 * dt * A)
    step = np.eye(2 * ni) + 0.5 * dt * A
    e0 = wave_energy(z)
    for _ in range(200):
        z_next = lu_solve(lu, step @ z)
        assert abs(wave_energy(z_next) - wave_energy(z)) < 1e-10 * e0
        z = z_next


def test_singular_step_matrix_raises(ref_model):
    # A = (2/dt) I makes I - dt/2 A vanish
    sys = assemble_generator(ref_model, 10)
    sys = dataclasses.replace(sys, A=2.0 * sparse.eye_array(sys.grid.size, format="csr"))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        simulate(np.ones(sys.grid.size), sys, 2.0, dt=1.0)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"t_final": -1.0}, "t_final"),
        ({"t_final": 0.0}, "t_final"),
        ({"t_final": np.nan}, "t_final"),
        ({"t_final": np.inf}, "t_final"),
        ({"dt": 0.0}, "dt"),
        ({"dt": -0.1}, "dt"),
        ({"dt": np.nan}, "dt"),
        ({"dt": np.inf}, "dt"),
        ({"store_every": 0}, "store_every"),
        ({"store_every": -2}, "store_every"),
        ({"store_every": 1.5}, "store_every"),
        ({}, None),
    ],
    ids=[
        "t_final-negative", "t_final-zero", "t_final-nan", "t_final-inf",
        "dt-zero", "dt-negative", "dt-nan", "dt-inf",
        "store_every-zero", "store_every-negative", "store_every-float",
        "shortest-valid",
    ],
)
def test_simulate_rejects_bad_arguments(ref_model, kwargs, name):
    sys = assemble_generator(ref_model, 10)
    args = {"t_final": 0.1, "dt": 0.1, "store_every": 1, **kwargs}
    z0 = np.ones(sys.grid.size)
    if name is None:
        tr = simulate(z0, sys, **args)
        assert np.array_equal(tr.times, [0.0, 0.1])
        assert tr.states.shape == (2, sys.grid.size)
    else:
        with pytest.raises(ValueError, match=name):
            simulate(z0, sys, **args)


def factor_nnz(sys):
    # entries of the banded LU of I - dt/2 A, (2 kl + ku + 1) n for any dt
    return sys._band[0].size


@pytest.mark.parametrize(
    "kind, n, every, marks, jumps",
    [
        ("real", 40, 7, [0, 7, 14, 20], False),
        ("complex", 40, 7, [0, 7, 14, 20], False),
        # 40 full strides by R^20, then a stepped partial stride of 3
        ("real", 10, 20, [*range(0, 801, 20), 803], True),
        ("complex", 10, 20, [*range(0, 801, 20), 803], True),
        # every step stored: on a small grid the dense product still wins
        ("real", 25, 1, [*range(0, 61)], True),
    ],
    ids=["real", "complex", "real-jump", "complex-jump", "real-jump-every-step"],
)
def test_simulate_matches_dense_cn_reference(ref_model, kind, n, every, marks, jumps):
    # the textbook step (I - hA)^{-1} (I + hA) z by a dense solve, stored
    # every `every`-th step and at the end of the run.  At this dt the
    # dense LAPACK solve is backward stable to ~1e-16; at dt = 0.01 its
    # own backward error reaches 2e-15, and the comparison would measure
    # the reference rather than the stepper.
    sys = assemble_generator(ref_model, n)
    dt, steps = 0.005, marks[-1]
    assert _jump_pays(sys.grid.size, factor_nnz(sys), every,
                      steps // every) == jumps
    z0 = np.real(sample_states(sys, 2, seed=11)[-1])
    if kind == "complex":
        z0 = z0 + 1j * np.real(sample_states(sys, 2, seed=12)[-1])
    tr = simulate(z0, sys, steps * dt, dt=dt, store_every=every)

    a = sys.A.toarray()
    eye = np.eye(sys.grid.size)
    lhs, rhs = eye - 0.5 * dt * a, eye + 0.5 * dt * a
    z, ref = z0, [z0]
    for k in range(1, steps + 1):
        z = np.linalg.solve(lhs, rhs @ z)
        if k % every == 0 or k == steps:
            ref.append(z)
    ref = np.array(ref)

    assert np.array_equal(tr.times, np.array(marks) * dt)
    assert tr.dt == dt
    assert tr.states.dtype == ref.dtype
    err = np.linalg.norm(tr.states - ref, axis=1) / np.linalg.norm(ref, axis=1)
    assert np.max(err) < 1e-12


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("every, steps", [(1, 200), (20, 803)])
def test_jump_route_states_equal_explicit_products(ref_model, kind, every, steps):
    # the jump route writes each stride's product into its row of one
    # array; the states must be the floats of z = J @ z taken stride by
    # stride, J = R^every formed as simulate forms it (_power of R from
    # one banded solve with the identity, in node-interleaved order), and
    # of the stepped partial stride that follows
    sys = assemble_generator(ref_model, 50)
    dt = sys.grid.dx / (8.0 * np.sqrt(ref_model.tension0))
    assert _jump_pays(sys.grid.size, factor_nnz(sys), every, steps // every)
    z0 = np.real(sample_states(sys, 2, seed=21)[-1])
    if kind == "complex":
        z0 = z0 + 1j * np.real(sample_states(sys, 2, seed=22)[-1])
    tr = simulate(z0, sys, steps * dt, dt=dt, store_every=every)

    n = sys.grid.size
    solve = sys._shifted_solver(z0.dtype.type(1.0), -0.5 * dt)
    perm = _interleaved(np.arange(n), n // 2)
    eye = np.eye(n, dtype=z0.dtype)
    jump = _power(2.0 * solve(eye) - eye, every)[np.ix_(perm, perm)]
    z, ref = z0, [z0]
    for _ in range(steps // every):
        z = jump @ z
        ref.append(z)
    y = np.empty(n, dtype=z0.dtype)
    y[perm] = z
    for _ in range(steps % every):
        y = 2.0 * solve(y) - y
    if steps % every:
        ref.append(y[perm])
    assert tr.states.dtype == z0.dtype and tr.states.shape == (len(ref), sys.grid.size)
    assert np.array_equal(tr.states, np.array(ref))
    assert np.array_equal(tr.times, np.append(np.arange(0, steps + 1, every), steps)[:len(ref)] * dt)


def _propagator(ref_model, n, dtype=float):
    """R = 2 (I - dt/2 A)^{-1} - I at dt = dx / (8 c), in node-interleaved
    order, as simulate forms it."""
    sys = assemble_generator(ref_model, n)
    dt = sys.grid.dx / (8.0 * np.sqrt(ref_model.tension0))
    eye = np.eye(sys.grid.size, dtype=dtype)
    return sys, dt, 2.0 * sys._shifted_solver(dtype(1.0), -0.5 * dt)(eye) - eye


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_jump_route_at_n50_is_the_matrix_power_route(ref_model, kind):
    # at N = 50 no entry of any factor falls below sqrt(tiny) of its
    # largest: R^72 and a run stored every 72 steps are the floats of
    # np.linalg.matrix_power, as are R^s for its short cuts s = 2, 3
    dtype = complex if kind == "complex" else float
    sys, dt, r = _propagator(ref_model, 50, dtype)
    for s in (2, 3, 72):
        assert np.array_equal(_power(r.copy(), s), np.linalg.matrix_power(r, s))
    steps = 72 * 20 + 5
    assert _jump_pays(sys.grid.size, factor_nnz(sys), 72, steps // 72)
    z0 = np.real(sample_states(sys, 2, seed=31)[-1]).astype(dtype)
    tr = simulate(z0, sys, steps * dt, dt=dt, store_every=72)
    perm = _interleaved(np.arange(sys.grid.size), sys.grid.size // 2)
    jump = np.linalg.matrix_power(r, 72)[np.ix_(perm, perm)]
    z = z0
    for row in tr.states[1:-1]:
        z = jump @ z
        assert np.array_equal(row, z)


def test_power_cuts_below_sqrt_tiny_before_each_product(ref_model):
    # at N = 100 R holds entries down to 1e-257: each factor is cut at
    # sqrt(tiny) of its largest entry before a product, so no product of
    # two kept entries is subnormal, and R^72 moves by at most 1e-150 of
    # its largest entry (7.3e-153 measured); s = 1 takes no product and
    # keeps R whole
    tiny = np.finfo(float).tiny
    _, _, r = _propagator(ref_model, 100)
    assert np.min(np.abs(r[r != 0.0])) < 1e-250
    assert np.array_equal(_power(r.copy(), 1), r)
    ref = np.linalg.matrix_power(r, 72)
    assert np.max(np.abs(_power(r.copy(), 72) - ref)) <= 1e-150 * np.max(np.abs(ref))
    cut = r.copy()
    _cut(cut)
    kept = np.abs(r) >= np.sqrt(tiny) * np.max(np.abs(r))
    assert np.array_equal(cut, np.where(kept, r, 0.0))
    assert np.min(np.abs(cut[kept])) ** 2 >= tiny * np.max(np.abs(r)) ** 2


def test_jump_route_rule(ref_model):
    # (N, steps per stride, strides, jumps) at dt = dx / (8 c)
    cases = [
        (50, 1, 200, True),  # a gain-scan run, every step stored
        (800, 1, 200, False),  # the grid-fine run
        (100, 72, 2006, True),  # the CLI default run
        (100, 100, 1, False),  # one stride of 100 steps, the per-stage CN timing
        (800, 100, 1, False),
        (800, 2, 2000, False),  # many short strides on the large grid
    ]
    for n, stride, strides, jumps in cases:
        sys = assemble_generator(ref_model, n)
        dt = sys.grid.dx / (8.0 * np.sqrt(ref_model.tension0))
        assert _jump_pays(sys.grid.size, factor_nnz(sys), stride, strides) == jumps
