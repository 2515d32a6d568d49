"""Semi-discrete generator, Gram matrices, and the dissipativity probe."""

import numpy as np
import pytest
from scipy import sparse

from heavychain import discretization, model, operator, simulation
from heavychain.discretization import (
    KAPPA_DISSIPATIVITY,
    Grid,
    _bump_profiles,
    _form,
    _forms,
    _mode_table,
    _natural_terms,
    _row,
    _sobolev_terms,
    _weighted_terms,
    assemble_generator,
    dissipativity_check,
    generator_matrix,
    norm_ratio_interval,
    sample_states,
    sobolev_norms,
    weighted_norm,
)
from heavychain.model import RescaledModel, check_admissibility, derive_physical_thetas, rescale
from heavychain.resolvent_bvp import injectivity_check, solve_resolvent_bvp
from heavychain.simulation import Trajectory, energies, simulate
from heavychain.spectral import spectrum
from tests.conftest import admissible_gain_models


# --- quadrature reference: np.gradient stencils and the trapezoid rule ---

def fd_derivative(y, dx):
    """Second-order first derivative (central interior, one-sided ends)."""
    return np.gradient(y, dx, edge_order=2)


def fd_second_derivative(y, dx):
    """Second-order second derivative (central interior, one-sided ends)."""
    d2 = np.empty_like(y)
    d2[1:-1] = (y[:-2] - 2.0 * y[1:-1] + y[2:]) / dx**2
    d2[0] = (2.0 * y[0] - 5.0 * y[1] + 4.0 * y[2] - y[3]) / dx**2
    d2[-1] = (2.0 * y[-1] - 5.0 * y[-2] + 4.0 * y[-3] - y[-4]) / dx**2
    return d2


def natural_quadrature(grid, vec):
    """|w|^2_{H2} + |v|^2_{H1} + |xi|^2 + |psi|^2 by quadrature."""
    dx, npts = grid.dx, grid.n + 1
    w, v = vec[:npts], vec[npts:]
    dens = (np.abs(w) ** 2 + np.abs(fd_derivative(w, dx)) ** 2
            + np.abs(fd_second_derivative(w, dx)) ** 2
            + np.abs(v) ** 2 + np.abs(fd_derivative(v, dx)) ** 2)
    return np.trapezoid(dens, dx=dx) + abs(v[-1]) ** 2 + abs(v[0]) ** 2


def weighted_quadrature(grid, vec, m):
    """The energy form by quadrature: damped H^2 part of w (divergence form,
    payload-end slope, cart-end value), damped H^1 part of v, the payload
    and cart velocities, and the rank-one coupling of psi with J(w)."""
    rep = check_admissibility(m)
    gamma, alpha1, alpha2 = rep.gamma, rep.alpha1, rep.alpha2
    dx, npts = grid.dx, grid.n + 1
    w, v = vec[:npts], vec[npts:]
    P = m.tension(grid.x)
    dw = fd_derivative(w, dx)
    div = fd_derivative(P * dw, dx)  # (P w')'
    dv = fd_derivative(v, dx)
    out = alpha1 * np.trapezoid(gamma * np.abs(div) ** 2 + P * np.abs(dw) ** 2, dx=dx)
    out += alpha1 * gamma * m.tensionL * abs(dw[-1]) ** 2
    out += alpha2 * abs(w[0]) ** 2
    out += alpha1 * np.trapezoid(gamma * P * np.abs(dv) ** 2 + np.abs(v) ** 2, dx=dx)
    out += alpha1 * m.tensionL * abs(v[-1]) ** 2
    out += alpha2 * gamma * abs(v[0]) ** 2
    j = v[0] - 2.0 * alpha1 * m.tension0 * dw[0] + 2.0 * alpha2 * w[0]
    return out + 0.5 * abs(j) ** 2


def bad_model(ref_model):
    # a = 3, b = 0.1 leaves the parabola region while keeping theta signs
    return RescaledModel(
        theta1=-4.0,
        theta2=1.0,
        theta3=-0.1,
        theta4=0.1,
        length=ref_model.length,
        s_x=ref_model.s_x,
        s_t=ref_model.s_t,
        params=ref_model.params,
    )


def test_grid_make():
    g = Grid.make(10, 9.81)
    assert g.dx == pytest.approx(0.981)
    assert g.size == 22
    assert g.x[0] == 0.0 and g.x[-1] == pytest.approx(9.81)
    with pytest.raises(ValueError):
        Grid.make(3, 1.0)


def test_grid_make_shares_one_read_only_grid(ref_model):
    g = Grid.make(10, 1.0)
    # equality is identity, so both are defined (a field-wise == and hash
    # over the ndarray x raised)
    assert Grid.make(10, 1.0) is g and Grid.make(10, 1.0) == g
    assert hash(Grid.make(10, 1.0)) == hash(g)
    assert Grid.make(11, 1.0) != g and Grid.make(10, 2.0) is not g
    for a in (g.x, *g.sample_basis):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    # every system and run on one (N, length) shares the grid, and systems
    # and trajectories compare by identity too
    sys, other = (assemble_generator(ref_model, 10) for _ in range(2))
    assert other.grid is sys.grid and sys == sys and sys != other
    tr = simulate(np.zeros(sys.grid.size), sys, 0.1, dt=0.05)
    assert tr == tr and len({sys, other, tr}) == 3


def test_mode_table_evaluated_once_per_grid(ref_model, ref_params, monkeypatch):
    calls = []
    build = discretization._mode_table
    monkeypatch.setattr(discretization, "_mode_table", lambda ell: calls.append(ell) or build(ell))
    Grid.make.cache_clear()  # the grid memo is process-wide
    sys = assemble_generator(ref_model, 50)
    dissipativity_check(sys, samples=20, seed=1)
    sample_states(sys, 1, seed=1)
    # another gain draw: the same physics, so the same length and grid
    other = assemble_generator(admissible_gain_models(ref_params, 1, seed=5)[0], 50)
    assert other.grid is sys.grid
    sample_states(other, 3, seed=2)
    assert calls == [sys.grid.length]


def test_admissibility_computed_once_per_model(ref_params, ref_gains, monkeypatch):
    # one draw's chain, as a gain scan runs it, reads one report
    calls = []
    compute = model._admissibility
    monkeypatch.setattr(model, "_admissibility", lambda m: calls.append(m) or compute(m))
    m = rescale(ref_params, derive_physical_thetas(ref_params, ref_gains))
    assert check_admissibility(m).admissible
    sys = assemble_generator(m, 50)
    spectrum(sys)
    dissipativity_check(sys, samples=20, seed=1)
    simulate(sample_states(sys, 1, seed=1)[0].real, sys, 20 * sys.grid.dx,
             dt=sys.grid.dx / np.sqrt(m.tension0))
    for tau in (0.5, 2.0, 8.0):
        injectivity_check(tau, m)
    solve_resolvent_bvp(np.sin, np.cos, 1.0, m, f_prime=np.cos, g_prime=lambda x: -np.sin(x))
    assert check_admissibility(m) is m.admissibility
    assert len(calls) == 1
    # a refused draw computes its report once as well
    bad = bad_model(m)
    assert not check_admissibility(bad).admissible
    for call in (lambda: assemble_generator(bad, 50), lambda: injectivity_check(1.0, bad)):
        with pytest.raises(ValueError, match="parabola region"):
            call()
    assert len(calls) == 2


def test_grid_stencils_built_once_per_system(ref_model, ref_params, ref_gains, monkeypatch):
    # one draw's chain, as a gain scan runs it: the generator, the energy
    # of the dissipativity probe, a run and its ledger all read the
    # grid's one D1 and one set of trapezoid weights
    Grid.make.cache_clear()  # the grid memo is process-wide: start from an empty one
    calls = {"diff_matrix": 0, "trapezoid_weights": 0}
    for name in calls:
        build = getattr(operator, name)

        def counting(*args, build=build, name=name):
            calls[name] += 1
            return build(*args)

        for module in (operator, discretization, simulation):
            monkeypatch.setattr(module, name, counting, raising=False)
    sys = assemble_generator(ref_model, 50)
    dissipativity_check(sys, samples=20, seed=1)
    z0 = sample_states(sys, 1, seed=1)[0].real
    energies(simulate(z0, sys, 20 * sys.grid.dx, dt=sys.grid.dx / np.sqrt(ref_model.tension0)),
             ref_params, ref_gains)
    assert calls == {"diff_matrix": 1, "trapezoid_weights": 1}
    grid = sys.grid
    assert grid.d1 is sys.grid.d1 and grid.q is sys.grid.q
    for a in (grid.d1.data, grid.d1.indices, grid.d1.indptr, grid.q):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_generator_is_exact_on_quadratics(ref_model):
    # w = x^2, v = 1 + x + x^2: every stencil in the generator is second
    # order, hence exact on quadratic data.
    m = ref_model
    grid = Grid.make(24, m.length)
    A = generator_matrix(m, grid)
    x = grid.x
    w = x**2
    v = 1.0 + x + x**2
    out = A @ np.concatenate([w, v])
    npts = grid.n + 1

    assert out[:npts] == pytest.approx(v, rel=1e-12)
    slope = m.tension.slope
    interior = 2.0 * (slope * x[1:-1] + m.tension(x[1:-1]))
    assert out[npts + 1 : npts + grid.n] == pytest.approx(interior, rel=1e-10)
    assert out[npts + grid.n] == pytest.approx(-2.0 * m.length, rel=1e-10)
    force = m.theta1 * 1.0 + m.theta2 * 1.0 + m.theta3 * 0.0 + m.theta4 * 0.0
    assert out[npts] == pytest.approx(force, rel=1e-10)


def test_generator_interior_row_entries(ref_model):
    m = ref_model
    grid = Grid.make(12, m.length)
    A = generator_matrix(m, grid)
    npts, dx = grid.n + 1, grid.dx
    i = 5
    p_lo = m.tension(grid.x[i] - 0.5 * dx)
    p_hi = m.tension(grid.x[i] + 0.5 * dx)
    assert A[npts + i, i - 1] == pytest.approx(p_lo / dx**2)
    assert A[npts + i, i] == pytest.approx(-(p_lo + p_hi) / dx**2)
    assert A[npts + i, i + 1] == pytest.approx(p_hi / dx**2)
    assert np.count_nonzero(A[npts + i].toarray()) == 3


def loop_generator(m, grid):
    # row-by-row dense assembly, the reference for the vectorised one
    n, dx, npts = grid.n, grid.dx, grid.n + 1
    P_half = m.tension(0.5 * (grid.x[:-1] + grid.x[1:]))
    A = np.zeros((2 * npts, 2 * npts))
    A[:npts, npts:] = np.eye(npts)
    for i in range(1, n):
        A[npts + i, i - 1] = P_half[i - 1] / dx**2
        A[npts + i, i] = -(P_half[i - 1] + P_half[i]) / dx**2
        A[npts + i, i + 1] = P_half[i] / dx**2
    A[npts + n, n - 2:n + 1] += -np.array([0.5, -2.0, 1.5]) / dx
    one_sided = np.array([-1.5, 2.0, -0.5]) / dx
    A[npts, npts] += m.theta1
    A[npts, npts:npts + 3] += m.theta2 * one_sided
    A[npts, 0] += m.theta3
    A[npts, 0:3] += m.theta4 * one_sided
    return A


def test_generator_is_sparse_with_stencil_entries(ref_model):
    # interior three-point rows, identity block, two end rows: 4N + 7 entries
    sys = assemble_generator(ref_model, 100)
    assert sparse.issparse(sys.A)
    assert sys.A.nnz == 4 * 100 + 7
    # same arithmetic as the row loop, so equal to the last bit
    assert np.array_equal(sys.A.toarray(), loop_generator(ref_model, sys.grid))


def coo_generator(m, grid):
    """Reference: the generator by a COO build, whose conversion to CSR
    sorts each row and sums the cart row's duplicate entries."""
    n, dx, x = grid.n, grid.dx, grid.x
    npts = n + 1
    P_half = m.tension(0.5 * (x[:-1] + x[1:]))
    lo, hi = P_half[:-1], P_half[1:]
    k = np.arange(1, n)
    (c0, d0), (cn, dn) = _row(grid.d1, 0), _row(grid.d1, n)
    pieces = [
        (np.arange(npts), npts + np.arange(npts), np.ones(npts)),
        (np.repeat(npts + k, 3), (k[:, None] + [-1, 0, 1]).ravel(),
         np.column_stack([lo, -(lo + hi), hi]).ravel() / dx**2),
        (np.full(len(cn), npts + n), cn, -dn),
        (np.full(2 * len(c0) + 2, npts), np.concatenate([[npts, 0], npts + c0, c0]),
         np.concatenate([[m.theta1, m.theta3], m.theta2 * d0, m.theta4 * d0])),
    ]
    rows, cols, vals = (np.concatenate(part) for part in zip(*pieces))
    return sparse.csr_array((vals, (rows, cols)), shape=(2 * npts, 2 * npts))


def coo_coupling_row(grid, m):
    """Reference: the energy's coupling row j / sqrt(2) by a COO build."""
    rep = check_admissibility(m)
    npts = grid.n + 1
    cols, vals = _row(grid.d1, 0)
    j = np.concatenate([[1.0, 2.0 * rep.alpha2],
                        -2.0 * rep.alpha1 * m.tension0 * vals]) / np.sqrt(2.0)
    return sparse.csr_array((j, (np.zeros(len(j), dtype=int),
                                 np.concatenate([[npts, 0], cols]))), shape=(1, 2 * npts))


@pytest.mark.parametrize("n", [4, 5, 8, 50, 800])
def test_generator_csr_equals_coo_build(ref_model, ref_params, n):
    # the closed-form CSR arrays are those of the COO build, bit for bit
    for m in [ref_model, *admissible_gain_models(ref_params, 3, seed=n)]:
        grid = Grid.make(n, m.length)
        coupling = _weighted_terms(grid, m, check_admissibility(m).gamma)[-1][2][0]
        for got, ref in ((generator_matrix(m, grid), coo_generator(m, grid)),
                         (coupling, coo_coupling_row(grid, m))):
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(ref, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert generator_matrix(m, grid).nnz == 4 * n + 7


def system_gram(energy_gram, sys):
    """The assembled energy Gram M_H of a generator system."""
    return energy_gram(sys.grid, sys.model, sys.gamma)


def test_gram_matrices_match_quadrature(ref_model, energy_gram):
    sys = assemble_generator(ref_model, 80)
    gram = system_gram(energy_gram, sys)
    states = sample_states(sys, 6, seed=3)
    for vec in states:
        quad_nat = natural_quadrature(sys.grid, vec)
        quad_h = weighted_quadrature(sys.grid, vec, ref_model)
        form_nat = _form(_natural_terms(sys.grid), vec)
        form_h = np.vdot(vec, gram @ vec)
        assert form_nat == pytest.approx(quad_nat, rel=1e-11)
        assert form_h == pytest.approx(quad_h, rel=1e-11)
        assert sys.weighted_norm(vec) ** 2 == pytest.approx(quad_h, rel=1e-11)


def test_gram_matrices_positive_definite(ref_model, energy_gram):
    sys = assemble_generator(ref_model, 60)
    assert np.linalg.eigvalsh(system_gram(energy_gram, sys)).min() > 0.0


def test_matrix_free_norms_match_grams(ref_model, energy_gram):
    # The Gram matrix and the matrix-free norms read one term list.  The
    # assembled form carries up to ~3e-12 of rounding at N = 80 (entries of
    # size 1/dx^4 cancel in y^H M y); the matrix-free norms agree with a
    # long-double evaluation of the stencils to ~1e-16.
    sys = assemble_generator(ref_model, 80)
    gram = system_gram(energy_gram, sys)
    npts = sys.grid.n + 1
    states = sample_states(sys, 12, seed=4)
    energy = weighted_norm(_weighted_terms(sys.grid, ref_model, sys.gamma), states)
    sobolev = sobolev_norms(sys.grid, states)
    for vec, e, (h2, h1) in zip(states, energy, sobolev):
        assert e == pytest.approx(np.sqrt(np.vdot(vec, gram @ vec).real), rel=5e-12)
        assert e == pytest.approx(sys.weighted_norm(vec), rel=1e-14)
        assert e == pytest.approx(weighted_norm(_weighted_terms(sys.grid, ref_model, sys.gamma),
                                                vec), rel=1e-14)
        w, v = vec[:npts], vec[npts:]
        zero = np.zeros(npts)
        assert h2 == pytest.approx(np.sqrt(natural_quadrature(sys.grid, np.concatenate([w, zero]))),
                                   rel=5e-12)
        # the v block also carries the boundary velocities psi = v_0, xi = v_N
        h1_ends = np.sqrt(h1**2 + abs(v[0]) ** 2 + abs(v[-1]) ** 2)
        assert h1_ends == pytest.approx(
            np.sqrt(natural_quadrature(sys.grid, np.concatenate([zero, v]))), rel=1e-12)


def test_every_norm_is_weighted_norm_of_its_terms(ref_model):
    # one norm computation: the system's energy norm, the two Sobolev norms
    # and the ratios of norm_ratio_interval are weighted_norm of their term
    # lists, bit for bit
    sys = assemble_generator(ref_model, 80)
    states = sample_states(sys, 12, seed=4)
    energy = weighted_norm(sys.energy, states)
    np.testing.assert_array_equal(sys.weighted_norm(states), energy)
    sobolev = _sobolev_terms(sys.grid)
    np.testing.assert_array_equal(
        sobolev_norms(sys.grid, states),
        np.column_stack([weighted_norm([t for t in sobolev if t[0] == block], states)
                         for block in (0, 1)]))
    ratios = energy / weighted_norm(_natural_terms(sys.grid), states)
    assert norm_ratio_interval(sys, samples=12, seed=4) == (ratios.min(), ratios.max())


def test_norm_history_matches_quadrature_on_fine_grid(ref_model):
    # an assembled Gram loses digits like eps / dx^4 here (2.6e-9 at N = 800)
    sys = assemble_generator(ref_model, 800)
    states = sample_states(sys, 40, seed=5)
    traj = Trajectory(system=sys, times=np.arange(40.0), states=states, dt=1.0)
    quad = np.array([weighted_quadrature(sys.grid, vec, ref_model) for vec in states])
    np.testing.assert_allclose(traj.norm_history(), np.sqrt(quad), rtol=1e-12, atol=0.0)


def test_dissipativity_numerator_matches_gram(ref_model, energy_gram):
    # Re z^H M_H A z, the numerator of the Rayleigh residual, matrix-free
    # against the assembled Gram, on a scale set by the two norms
    sys = assemble_generator(ref_model, 80)
    gram = system_gram(energy_gram, sys)
    for z in sample_states(sys, 12, seed=6):
        az = sys.A @ z
        ref = np.vdot(z, gram @ az).real
        scale = sys.weighted_norm(z) * sys.weighted_norm(az)
        assert abs(_forms(sys.energy, az, z)[0] - ref) <= 1e-11 * scale


def test_h2_norm_second_order_on_long_grids():
    # |sin(k x)|^2_{H2} on [0, ell] in closed form, on pair-grid sizes where
    # an assembled Gram form would lose most of its digits
    ell, k = 9.81, 6.0
    exact = np.sqrt(0.5 * ell * (1.0 + k**2 + k**4)
                    - (1.0 - k**2 + k**4) * np.sin(2.0 * k * ell) / (4.0 * k))
    errs = []
    for n in (100_000, 200_000):
        grid = Grid.make(n, ell)
        vec = np.concatenate([np.sin(k * grid.x), np.zeros(n + 1)])
        errs.append(abs(sobolev_norms(grid, vec)[0] - exact) / exact)
    assert np.log2(errs[0] / errs[1]) > 1.8
    assert errs[1] < 0.2 * (k * grid.dx) ** 2


def test_sample_states_grid_independent(ref_model):
    # same seed on nested grids samples the same continuous functions
    coarse = assemble_generator(ref_model, 100)
    fine = assemble_generator(ref_model, 200)
    sc = sample_states(coarse, 8, seed=5)
    sf = sample_states(fine, 8, seed=5)
    npts = 101
    for k in range(8):
        wc, vc = sc[k][:npts], sc[k][npts:]
        wf, vf = sf[k][:201], sf[k][201:]
        assert np.max(np.abs(wf[::2] - wc)) < 1e-12
        assert np.max(np.abs(vf[::2] - vc)) < 1e-12


def solved_quintic(ell, u, at_left):
    # zero value and slope at both ends, unit second x-derivative at one
    basis = [np.polynomial.Polynomial.basis(k) for k in range(6)]
    rows = [[b.deriv(d)(end) for b in basis] for end in (0.0, 1.0) for d in range(3)]
    rhs = np.zeros(6)
    rhs[2 if at_left else 5] = ell**2
    return np.polynomial.Polynomial(np.linalg.solve(rows, rhs))(u)


def loop_sample_states(sys, count, seed):
    """Reference: one state at a time, each a sum over the tables."""
    m, grid = sys.model, sys.grid
    ell, x, P = grid.length, grid.x, m.tension
    rng = np.random.default_rng(seed)
    modes = _mode_table(ell)
    bumps = _bump_profiles(ell, x)
    u = x / ell
    pL_vals = solved_quintic(ell, u, at_left=False)
    p0_vals = solved_quintic(ell, u, at_left=True)
    n_neutral = int(round(0.25 * count))
    out = np.empty((count, grid.size), dtype=complex)
    for idx in range(count):
        table = bumps if idx < n_neutral else modes
        cw = rng.standard_normal(len(table)) + 1j * rng.standard_normal(len(table))
        cv = rng.standard_normal(len(table)) + 1j * rng.standard_normal(len(table))
        if idx < n_neutral:
            w_vals = sum(c * b for c, b in zip(cw, bumps))
            v_vals = sum(c * b for c, b in zip(cv, bumps))
        else:
            w_vals = sum(c * mode[0](x) for c, mode in zip(cw, modes))
            v_vals = sum(c * mode[0](x) for c, mode in zip(cv, modes))
            w0, dw0, ddw0 = (sum(c * mode[1][j] for c, mode in zip(cw, modes)) for j in range(3))
            wL, dwL, ddwL = (sum(c * mode[2][j] for c, mode in zip(cw, modes)) for j in range(3))
            v0, dv0 = (sum(c * mode[1][j] for c, mode in zip(cv, modes)) for j in range(2))
            div0 = P.slope * dw0 + float(P(0.0)) * ddw0
            divL = P.slope * dwL + float(P(ell)) * ddwL
            force = m.theta1 * v0 + m.theta2 * dv0 + m.theta3 * w0 + m.theta4 * dw0
            c0 = (force - div0) / float(P(0.0))
            cL = (-dwL - divL) / float(P(ell))
            w_vals = w_vals + c0 * p0_vals + cL * pL_vals
        out[idx] = np.concatenate([w_vals, v_vals])
    return out


@pytest.mark.parametrize("n", [50, 400])
def test_sample_states_match_loop_reference(ref_model, n):
    sys = assemble_generator(ref_model, n)
    for seed, count in ((0, 9), (3, 20), (11, 1)):
        ref = loop_sample_states(sys, count, seed)
        got = sample_states(sys, count, seed=seed)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_sample_states_satisfy_domain_conditions(ref_model):
    m = ref_model
    sys = assemble_generator(m, 800)
    vec = sample_states(sys, 4, seed=1)[-1]  # a corrected mode draw
    npts = sys.grid.n + 1
    w, v = vec[:npts], vec[npts:]
    dx = sys.grid.dx
    dw = fd_derivative(w, dx)
    div = m.tension.slope * dw + m.tension(sys.grid.x) * fd_second_derivative(w, dx)
    scale = max(np.max(np.abs(div)), 1.0)
    force = (
        m.theta1 * v[0]
        + m.theta2 * fd_derivative(v, dx)[0]
        + m.theta3 * w[0]
        + m.theta4 * dw[0]
    )
    assert abs(div[0] - force) < 5e-3 * scale
    assert abs(div[-1] + dw[-1]) < 5e-3 * scale


def test_dissipativity_reference_refinement(ref_model):
    maxima = []
    for n in (50, 100, 200, 400):
        sys = assemble_generator(ref_model, n)
        rep = dissipativity_check(sys, samples=400, seed=0)
        assert rep.satisfied
        assert rep.bound == pytest.approx(KAPPA_DISSIPATIVITY * sys.grid.dx)
        maxima.append(rep.max_residual)
    # roughly quadratic decay, comfortably inside the linear envelope
    for coarse, fine in zip(maxima, maxima[1:]):
        assert fine < 0.5 * coarse
    assert 1e-3 < maxima[1] < 3e-2


def test_dissipativity_flags_inadmissible(ref_model):
    bad = bad_model(ref_model)
    rep100 = dissipativity_check(assemble_generator(bad, 100, gamma=1.0), samples=600, seed=0)
    rep800 = dissipativity_check(assemble_generator(bad, 800, gamma=1.0), samples=300, seed=0)
    assert not bad.admissibility.admissible
    # the positive residual does not vanish under refinement: it is a true
    # indefinite direction of the form, not discretisation error
    assert rep100.max_residual > 1e-3
    assert rep800.max_residual > 0.5 * rep100.max_residual
    assert not rep800.satisfied


def test_norm_ratio_interval(ref_model):
    lo, hi = norm_ratio_interval(assemble_generator(ref_model, 100), samples=300, seed=2)
    assert 0.0 < lo < hi
    assert hi / lo < 10.0


@pytest.mark.parametrize("check", [dissipativity_check, norm_ratio_interval],
                         ids=["dissipativity", "norm-ratio"])
@pytest.mark.parametrize("samples", [0, -3])
def test_empty_sample_family_is_refused(ref_model, check, samples):
    with pytest.raises(ValueError, match="samples"):
        check(assemble_generator(ref_model, 20), samples=samples)


def test_assemble_generator_rejects_inadmissible_without_gamma(ref_model):
    with pytest.raises(ValueError, match="admissible"):
        assemble_generator(bad_model(ref_model), 50)
