"""Spectrum reports, weighted resolvent norms, sweep verdicts."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigvals, svdvals

from heavychain import spectral
from heavychain.discretization import (
    GeneratorSystem,
    _energy_factor,
    _form,
    _interleaved,
    _natural_terms,
    _weighted_terms,
    assemble_generator,
    sample_states,
)
from heavychain.spectral import (
    VERDICT_CONSISTENT,
    VERDICT_INCONCLUSIVE,
    ResolventSample,
    SpectrumReport,
    huang_verdict,
    resolvent_apply_discrete,
    resolvent_norm_discrete,
    spectrum,
)
from tests.conftest import admissible_gain_models

REF_ABSCISSA_N100 = -0.0189475
REF_NORM_TAU1_N100 = 4.112956
REF_NORM_TAU0_N100 = 24.98499


def energy_factor(sys):
    """Dense R0 with R0^T R0 = M_H in the (w, v) order, positive diagonal:
    QR of the dense stencil stack, the rows sqrt(s) T of the energy terms,
    each T applied to the selector of the block it reads (the whole state
    for block None).  No Gram is formed, so R0 carries cond(G) rounding,
    not cond(G)^2."""
    npts = sys.grid.n + 1
    stack = []
    for block, s, factors in _weighted_terms(sys.grid, sys.model, sys.gamma):
        t = np.eye(2 * npts)
        if block is not None:
            t = t[block * npts:(block + 1) * npts]
        for f in reversed(factors):
            t = f @ t
        stack.append(np.sqrt(s)[:, None] * t)
    r0 = np.linalg.qr(np.vstack(stack), mode="r")
    return np.sign(np.diag(r0))[:, None] * r0


def dense_resolvent_norm(r0, a, tau):
    """1 / sigma_min of R0 (i tau - A) R0^{-1} = i tau - R0 A R0^{-1}, all
    dense; the similarity is formed once, then one SVD per entry when tau
    is an array."""
    a_sim, eye = r0 @ a @ np.linalg.inv(r0), np.eye(len(a))
    norms = [1.0 / svdvals(1j * t * eye - a_sim)[-1] for t in np.ravel(tau)]
    return np.reshape(norms, np.shape(tau))


@pytest.fixture(scope="module")
def ref_sys(ref_model):
    return assemble_generator(ref_model, 100)


@pytest.fixture(scope="module")
def ref_spectrum(ref_sys):
    return spectrum(ref_sys)


def test_decoupled_diagonal_matrix():
    # the eigenvalues of diag(-1, -2) are its diagonal
    rep = SpectrumReport.from_eigenvalues(np.array([-1.0, -2.0]))
    assert sorted(rep.eigenvalues.real) == [-2.0, -1.0]
    assert rep.abscissa == -1.0
    assert rep.rightmost[0] == -1.0
    assert rep.stable


def test_reference_spectrum(ref_spectrum, ref_sys):
    rep = ref_spectrum
    assert len(rep.eigenvalues) == ref_sys.grid.size
    assert np.all(rep.eigenvalues.real < 0.0)
    assert rep.abscissa == pytest.approx(REF_ABSCISSA_N100, rel=1e-4)
    # conjugation symmetry of the real matrix
    assert np.allclose(
        np.sort_complex(rep.eigenvalues),
        np.sort_complex(np.conj(rep.eigenvalues)),
        atol=1e-9,
    )
    # the generator stays boundedly invertible: no eigenvalue near zero
    assert np.abs(rep.eigenvalues).min() > 0.05


def eigenvalue_distance(lam, ref):
    """The farthest any eigenvalue of either set lies from the other set."""
    d = np.abs(lam[:, None] - ref[None, :])
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def test_spectrum_matches_numpy_eigvals_and_refuses_non_finite(ref_sys, ref_spectrum):
    # the Hessenberg-order route against numpy's dgeev on its own copy
    ref = np.linalg.eigvals(ref_sys.A.toarray())
    assert eigenvalue_distance(ref_spectrum.eigenvalues, ref) <= 1e-12 * np.abs(ref).max()
    bad = ref_sys.A.copy()
    bad.data[0] = np.nan
    with pytest.raises(RuntimeError, match="not finite"):
        spectrum(dataclasses.replace(ref_sys, A=bad))


def recording_calls(monkeypatch, name, calls):
    """Replace spectral.<name> by a pass-through that appends its
    arguments to calls."""
    routine = getattr(spectral, name)

    def recording(*args):
        calls.append(args)
        routine(*args)

    monkeypatch.setattr(spectral, name, recording)


# one grid on each side of the QR crossover (state size 402 and 802)
@pytest.mark.parametrize("n, routine", [(200, "_dlahqr"), (400, "_dhseqr")], ids=["200", "400"])
def test_spectrum_matches_numpy_eigvals_on_finer_grids(ref_model, monkeypatch, n, routine):
    calls = {"_dlahqr": [], "_dhseqr": []}
    for name, log in calls.items():
        recording_calls(monkeypatch, name, log)
    sys = assemble_generator(ref_model, n)
    ref = np.linalg.eigvals(sys.A.toarray())
    lam = spectrum(sys).eigenvalues
    assert calls[routine] and not any(log for name, log in calls.items() if name != routine)
    assert eigenvalue_distance(lam, ref) <= 1e-12 * np.abs(ref).max()
    assert np.array_equal(lam, spectrum(sys).eigenvalues)


def test_spectrum_at_n300_matches_eigvals_of_the_transpose(ref_model, monkeypatch):
    # at N = 300 numpy's dgeev on A is the outlier: it lies 2.2e-12 max|lambda|
    # from both this route and dgeev on A^T, which agree to 4.0e-14
    calls = []
    recording_calls(monkeypatch, "_dhseqr", calls)
    sys = assemble_generator(ref_model, 300)
    ref = eigvals(sys.A.toarray().T)
    assert eigenvalue_distance(spectrum(sys).eigenvalues, ref) <= 1e-12 * np.abs(ref).max()
    assert calls


@pytest.mark.parametrize("n", [50, 100])
def test_spectrum_matches_numpy_eigvals_across_gains(ref_params, n):
    for m in admissible_gain_models(ref_params, 6, seed=17):
        sys = assemble_generator(m, n)
        ref = np.linalg.eigvals(sys.A.toarray())
        assert eigenvalue_distance(spectrum(sys).eigenvalues, ref) <= 1e-12 * np.abs(ref).max()


def test_spectrum_reduces_from_first_column_below_subdiagonal(ref_model, monkeypatch):
    # in the order (v_0, w_0, v_1, w_1, ...) only the payload row v_N
    # reaches below the subdiagonal, to w_{N-2}: the reduction starts at
    # column n - 5.  One more stored entry at row v_40, column w_5
    # (positions 80 and 11) moves eigenvalues by about 7e-4 max|lambda|
    # and the start to column 11
    starts = []
    dgehrd = spectral.dgehrd

    def recording(h, lo, hi, overwrite_a):
        starts.append(lo)
        return dgehrd(h, lo=lo, hi=hi, overwrite_a=overwrite_a)

    monkeypatch.setattr(spectral, "dgehrd", recording)
    sys = assemble_generator(ref_model, 50)
    npts = sys.grid.n + 1
    extra = sparse.csr_array(([1.0], ([npts + 40], [5])), shape=sys.A.shape)
    for a, start in ((sys.A, sys.grid.size - 5), (sys.A + extra, 11)):
        lam = spectrum(dataclasses.replace(sys, A=a)).eigenvalues
        ref = np.linalg.eigvals(a.toarray())
        assert starts[-1] == start
        assert eigenvalue_distance(lam, ref) <= 1e-12 * np.abs(ref).max()


def test_spectrum_is_deterministic_and_holds_one_dense_copy(ref_model, monkeypatch):
    calls = []
    recording_calls(monkeypatch, "_dhseqr", calls)
    sys = assemble_generator(ref_model, 400)
    first = spectrum(sys).eigenvalues
    tracemalloc.start()
    try:
        second = spectrum(sys).eigenvalues
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(first, second)
    # one dense n x n copy; dhseqr's queried workspace and five n-vectors
    # (dgehrd's tau and work, dgebal's scale, wr, wi); eight arrays of nnz
    # (the entries' rows and columns in the new order and their temporaries)
    n, nnz = sys.grid.size, sys.A.nnz
    lwork = max(args[12].value for args in calls)
    assert peak <= 8 * n * n + 8 * (lwork + 5 * n) + 8 * 8 * nnz


def test_spectrum_dense_copy_is_the_generator_in_hessenberg_order(ref_model, monkeypatch):
    # the copy written from the CSR arrays is A's own entries, bit for
    # bit, in the order (v_0, w_0, v_1, w_1, ...), duplicates summed
    copies = []
    dgehrd = spectral.dgehrd

    def recording(h, lo, hi, overwrite_a):
        copies.append(h.copy())
        return dgehrd(h, lo=lo, hi=hi, overwrite_a=overwrite_a)

    monkeypatch.setattr(spectral, "dgehrd", recording)
    sys = assemble_generator(ref_model, 50)
    npts = sys.grid.n + 1
    order = np.ravel(np.column_stack([np.arange(npts, 2 * npts), np.arange(npts)]))
    # two more stored entries at row 7, column 3, which toarray sums
    end = sys.A.indptr[8]
    dup = sparse.csr_array((np.insert(sys.A.data, end, [0.25, 0.5]),
                            np.insert(sys.A.indices, end, [3, 3]),
                            sys.A.indptr + 2 * (np.arange(sys.grid.size + 1) >= 8)),
                           shape=sys.A.shape)
    for mat in (sys.A, dup):
        spectrum(dataclasses.replace(sys, A=mat))
        assert np.array_equal(copies[-1], mat.toarray()[np.ix_(order, order)])


@pytest.mark.parametrize("n, routine", [(300, "_dhseqr"), (50, "_dlahqr")], ids=["dhseqr", "dlahqr"])
def test_spectrum_failure_names_the_qr(ref_model, monkeypatch, n, routine):
    # state size 602 takes dhseqr, 102 takes dlahqr
    qr = getattr(spectral, routine)

    def failing(*args):
        qr(*args)
        args[-1].value = 1  # info > 0: the QR did not converge

    monkeypatch.setattr(spectral, routine, failing)
    with pytest.raises(RuntimeError, match=routine[1:]):
        spectrum(assemble_generator(ref_model, n))


def test_abscissa_stable_under_refinement(ref_model):
    a200 = spectrum(assemble_generator(ref_model, 200)).abscissa
    a400 = spectrum(assemble_generator(ref_model, 400)).abscissa
    assert abs(a400 - a200) <= 0.05 * abs(a400)


def test_resolvent_norm_values(ref_sys):
    s1 = resolvent_norm_discrete(ref_sys, 1.0)
    assert s1.source == "discrete"
    assert s1.norm == pytest.approx(REF_NORM_TAU1_N100, rel=1e-6)
    s0 = resolvent_norm_discrete(ref_sys, 0.0)
    assert s0.norm == pytest.approx(REF_NORM_TAU0_N100, rel=1e-5)


def test_resolvent_norm_tau0_is_inverse_norm(ref_sys):
    r0 = energy_factor(ref_sys)
    a_sim = r0 @ ref_sys.A.toarray() @ np.linalg.inv(r0)
    direct = np.linalg.norm(np.linalg.inv(a_sim), 2)
    assert resolvent_norm_discrete(ref_sys, 0.0).norm == pytest.approx(direct, rel=1e-8)


def test_resolvent_norm_matches_dense_svd(ref_model):
    # dense reference: 1 / sigma_min of the similarity R0 (i tau - A) R0^{-1}
    sys = assemble_generator(ref_model, 400)
    taus = np.array([0.0, 1.0, 10.0, 100.0])
    refs = dense_resolvent_norm(energy_factor(sys), sys.A.toarray(), taus)
    for tau, ref in zip(taus, refs):
        assert resolvent_norm_discrete(sys, tau).norm == pytest.approx(ref, rel=1e-8)


def test_resolvent_norm_matches_dense_svd_to_sweep_top(ref_sys):
    # the default CLI sweep ends at tau = 1000
    taus = np.array([0.0, 0.1, 1.0, 10.0, 100.0, 1000.0])
    refs = dense_resolvent_norm(energy_factor(ref_sys), ref_sys.A.toarray(), taus)
    for tau, ref in zip(taus, refs):
        assert resolvent_norm_discrete(ref_sys, tau).norm == pytest.approx(ref, rel=1e-9)


def test_resolvent_norm_matches_dense_across_gains(ref_params):
    # the Lanczos loop against the dense reference on other models;
    # singular values cluster at the high-tau end of the range
    taus = np.geomspace(0.1, 1e3, 30)
    for m in admissible_gain_models(ref_params, 8, seed=11):
        sys = assemble_generator(m, 50)
        refs = dense_resolvent_norm(energy_factor(sys), sys.A.toarray(), taus)
        for tau, ref in zip(taus, refs):
            assert resolvent_norm_discrete(sys, tau).norm == pytest.approx(ref, rel=1e-9)


def test_resolvent_norm_on_tiny_grids(ref_model):
    # N = 4 is the smallest grid (state size 10), N = 8 the CLI minimum:
    # the Krylov space never outgrows the state
    taus = np.array([0.0, 0.1, 1.0, 10.0, 100.0, 1000.0])
    for n in (4, 8):
        sys = assemble_generator(ref_model, n)
        refs = dense_resolvent_norm(energy_factor(sys), sys.A.toarray(), taus)
        for tau, ref in zip(taus, refs):
            assert resolvent_norm_discrete(sys, tau).norm == pytest.approx(ref, rel=1e-9)


def test_resolvent_norm_application_count(ref_sys, monkeypatch):
    # each application of B^H B makes one forward banded solve with the LU
    # of S; ARPACK's loop took 12.3 per shift, the Lanczos loop with the
    # linear rule beta_k |s_k| <= 1e-12 theta_k alone 8.8, and with the
    # quadratic rule beside it 6.1
    forward, shifted_solver = [], GeneratorSystem._shifted_solver

    def counting(system, alpha, beta):
        solve = shifted_solver(system, alpha, beta)

        def counted(b, trans=0):
            forward[-1] += trans == 0
            return solve(b, trans)
        return counted

    monkeypatch.setattr(GeneratorSystem, "_shifted_solver", counting)
    for tau in np.geomspace(0.1, 1e3, 60):
        forward.append(0)
        resolvent_norm_discrete(ref_sys, tau)
    assert min(forward) >= 2
    assert np.mean(forward) <= 7.0


@pytest.mark.parametrize("n", [50, 100])
def test_ritz_stopping_rule_keeps_the_default_sweep_at_the_factor_floor(ref_model, n):
    # the quadratic rule (beta_k |s_k|)^2 <= 1e-12 theta_k (theta_k -
    # theta_{k-1}) stops the loop early; on the CLI's 200-point sweep the
    # norms stay within 1e-11 of the dense reference, the energy factor's
    # rounding floor
    sys = assemble_generator(ref_model, n)
    taus = np.geomspace(0.1, 1e3, 200)
    refs = dense_resolvent_norm(energy_factor(sys), sys.A.toarray(), taus)
    norms = np.array([resolvent_norm_discrete(sys, tau).norm for tau in taus])
    assert np.max(np.abs(norms - refs) / refs) <= 1e-11


def test_resolvent_norm_refuses_an_unconverged_lanczos(ref_sys, monkeypatch):
    # a Krylov space too small to converge is an error that names the shift
    monkeypatch.setattr(spectral, "_KRYLOV_CAP", 2)
    with pytest.raises(RuntimeError, match="tau=3.25"):
        resolvent_norm_discrete(ref_sys, 3.25)


def test_sweep_norms_are_single_calls(ref_model):
    # a norm depends on its system and shift alone: the same floats in a
    # sweep, in reverse order, and as the first call on a fresh system
    sys = assemble_generator(ref_model, 50)
    taus = np.geomspace(0.1, 1e3, 25)
    sweep = [resolvent_norm_discrete(sys, t).norm for t in taus]
    assert [resolvent_norm_discrete(sys, t).norm for t in taus[::-1]] == sweep[::-1]
    for k in (0, 12, 24):
        fresh = dataclasses.replace(sys)
        assert resolvent_norm_discrete(fresh, taus[k]).norm == sweep[k]


@pytest.mark.parametrize("n", [50, 800])
def test_band_products_are_the_dense_products_with_r(ref_model, monkeypatch, n):
    # the products with R run zgbmv on R's upper band (kl = 0), which
    # OpenBLAS keeps on one thread; each equals R y or R^T y with the
    # dense R unpacked from that band, to 1e-14 of |R| |y| entry by entry
    # (R's entries of size 1/dx^2 cancel in R y, so no bound relative to
    # |R y| holds for any rounding order)
    sys = assemble_generator(ref_model, n)
    r, size = sys.chol_H, sys.grid.size
    dense = sparse.dia_array((r, len(r) - 1 - np.arange(len(r))), shape=(size, size)).toarray()
    calls, product = [], spectral.zgbmv

    def recording(*args, trans=0):
        y = product(*args, trans=trans)
        calls.append((np.array(args[-1]), trans, y))
        return y

    monkeypatch.setattr(spectral, "zgbmv", recording)
    resolvent_norm_discrete(sys, 1.0)
    assert {trans for _, trans, _ in calls} == {0, 1}
    for x, trans, y in calls:
        r_op = dense.T if trans else dense
        assert np.all(np.abs(y - r_op @ x) <= 1e-14 * (np.abs(r_op) @ np.abs(x)))


def test_resolvent_norm_follows_replaced_gram(ref_model):
    sys = assemble_generator(ref_model, 50)
    before = resolvent_norm_discrete(sys, 1.0).norm  # factors M_H
    heavier = dataclasses.replace(sys, gamma=2.0 * sys.gamma)
    ref = dense_resolvent_norm(energy_factor(heavier), sys.A.toarray(), 1.0)
    assert abs(ref - before) > 1e-3 * ref
    assert resolvent_norm_discrete(heavier, 1.0).norm == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("field", ["gamma", "model"])
def test_resolvent_norm_follows_reassigned_field(ref_model, field):
    # a field cannot be reassigned in place; a replaced system builds its
    # own energy factor instead of reading the cached one
    sys = assemble_generator(ref_model, 50)
    before = resolvent_norm_discrete(sys, 1.0).norm  # factors M_H
    if field == "model":  # a stretched tension slope, hence other alpha1, alpha2
        value = dataclasses.replace(sys.model, s_x=2.0 * sys.model.s_x)
    else:
        value = 2.0 * sys.gamma
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(sys, field, value)
    changed = dataclasses.replace(sys, **{field: value})
    ref = dense_resolvent_norm(energy_factor(changed), sys.A.toarray(), 1.0)
    assert abs(ref - before) > 1e-3 * ref
    assert resolvent_norm_discrete(changed, 1.0).norm == pytest.approx(ref, rel=1e-9)
    assert resolvent_norm_discrete(sys, 1.0).norm == before


def test_energy_and_factor_built_once(ref_model):
    # lazy: nothing is factored at assembly, and each is built at most once
    sys = assemble_generator(ref_model, 50)
    assert "chol_H" not in vars(sys) and "energy" not in vars(sys)
    resolvent_norm_discrete(sys, 1.0)
    assert sys.chol_H is sys.chol_H
    assert sys.energy is sys.energy
    assert "energy" not in vars(dataclasses.replace(sys, gamma=sys.gamma))
    # the band of Pi A Pi^T: once per system, read-only, and a system with
    # another A builds its own
    band, kl, ku = bands = sys._band
    resolvent_norm_discrete(sys, 2.0)
    assert sys._band is bands
    assert not band.flags.writeable
    n, perm = sys.grid.size, _interleaved(np.arange(sys.grid.size), sys.grid.n + 1)
    permuted = np.zeros((n, n))
    permuted[np.ix_(perm, perm)] = sys.A.toarray()  # Pi A Pi^T
    offsets = kl + ku - np.arange(len(band))  # entry [i, j] at band[kl + ku + i - j, j]
    assert np.array_equal(sparse.dia_array((band, offsets), shape=(n, n)).toarray(), permuted)
    assert not band[:kl].any()  # the spare rows of the pivoting fill
    other = dataclasses.replace(sys, A=(2.0 * sys.A).tocsr())
    assert "_band" not in vars(other)
    resolvent_norm_discrete(other, 1.0)
    assert np.array_equal(other._band[0], 2.0 * band)


@pytest.mark.parametrize("n", [5, 50])
@pytest.mark.parametrize("alpha, beta", [(1.0, -0.01), (1j * 3.0, -1.0), (0.5 - 2j, 0.25 + 1j)],
                         ids=["real", "resolvent-shift", "complex"])
def test_shifted_solver_matches_dense_solve(ref_model, n, alpha, beta):
    # (alpha I + beta Pi A Pi^T) x = b by the banded LU against a dense
    # LAPACK solve of alpha I + beta A in the state order, every row of
    # the state (the cart row v_0 and the payload row v_N included), and
    # its transpose and conjugate transpose as the resolvent norm uses them
    sys = assemble_generator(ref_model, n)
    size, perm = sys.grid.size, _interleaved(np.arange(sys.grid.size), n + 1)
    solve = sys._shifted_solver(alpha, beta)
    dense = alpha * np.eye(size) + beta * sys.A.toarray()
    rng = np.random.default_rng(n)
    b = rng.standard_normal(size)
    if dense.dtype.kind == "c":  # a real LU solves real right-hand sides
        b = b + 1j * rng.standard_normal(size)
    for trans, matrix in ((0, dense), (1, dense.T), (2, dense.conj().T)):
        y = np.empty(size, dense.dtype)
        y[perm] = b
        x = solve(y, trans=trans)[perm]
        ref = np.linalg.solve(matrix, b)
        assert x.dtype == dense.dtype
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref), trans


def banded_form(r, states):
    """|R Pi z|^2 for each row z of states, R in LAPACK upper band layout
    and Pi the node-interleaved order (w_0, v_0, w_1, v_1, ...)."""
    kb, n = len(r) - 1, r.shape[1]
    upper = sparse.dia_array((r, kb - np.arange(kb + 1)), shape=(n, n))
    npts = n // 2
    interleaved = np.stack([states[:, :npts], states[:, npts:]], axis=-1).reshape(len(states), n)
    return np.sum(np.abs(upper @ interleaved.T) ** 2, axis=0)


def test_energy_factor_is_banded_and_o_n(ref_model):
    # R^T R = Pi M_H Pi^T in LAPACK upper band layout, built without an
    # n x n array (one would take 82 MiB here)
    sys = assemble_generator(ref_model, 1600)
    tracemalloc.start()
    try:
        r = sys.chol_H
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, kb = sys.grid.size, 8  # the D1 (P D1) rows span 5 nodes, 9 interleaved columns
    assert r.shape == (kb + 1, n)
    assert np.all(r[kb] > 0.0)
    assert peak < 5 * 2**20
    states = sample_states(sys, 8, seed=0)
    # smooth states cancel entries of size P / dx^2 in the D1 (P D1) rows:
    # every float64 route loses digits like eps / dx^2 here (applying the
    # stencil rows themselves reads 2e-13 off a long-double evaluation)
    np.testing.assert_allclose(banded_form(r, states), _form(sys.energy, states),
                               rtol=1e-11, atol=0.0)


def test_one_factor_routine_serves_both_energies(ref_model):
    # the natural and the energy form are both plain term lists, so one
    # routine factors either: |R Pi z|^2 = z^H M z for each
    for n in (50, 400):
        sys = assemble_generator(ref_model, n)
        states = sample_states(sys, 8, seed=0)
        for terms in (_natural_terms(sys.grid), sys.energy):
            r = _energy_factor(terms, n + 1)
            assert np.all(r[-1] > 0.0)
            np.testing.assert_allclose(banded_form(r, states), _form(terms, states),
                                       rtol=1e-11, atol=0.0)


def test_resolvent_norm_refines_monotonically(ref_model):
    # the tau = 0 norm falls under refinement, by less at each step; a
    # Cholesky factor of the assembled Gram, with its squared conditioning,
    # stepped 1.9e-4 from N = 800 to 1600 (7.5e-6 relative off this route)
    norms = [resolvent_norm_discrete(assemble_generator(ref_model, n), 0.0).norm
             for n in (400, 800, 1600)]
    assert norms[0] > norms[1] > norms[2]
    assert norms[1] - norms[2] < norms[0] - norms[1]


def test_resolvent_norm_singular_shift_is_infinite(ref_sys):
    keep = np.ones(ref_sys.grid.size)
    keep[0] = 0.0  # A with an exactly zero first column
    sys = dataclasses.replace(ref_sys, A=(ref_sys.A @ sparse.diags_array(keep)).tocsr())
    assert resolvent_norm_discrete(sys, 0.0).norm == float("inf")
    with pytest.raises(np.linalg.LinAlgError, match="tau=0"):
        resolvent_apply_discrete(sys, 0.0, np.ones(sys.grid.size))


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_shift_is_refused_not_singular(ref_sys, tau):
    # LinAlgError is a ValueError, so the message tells the refusal from
    # the singular-shift report
    with pytest.raises(ValueError, match="needs a finite frequency"):
        resolvent_norm_discrete(ref_sys, tau)
    with pytest.raises(ValueError, match="needs a finite frequency"):
        resolvent_apply_discrete(ref_sys, tau, np.ones(ref_sys.grid.size))


def test_zero_generator_singular_only_at_zero_shift(ref_sys):
    # an A with no stored entries has an empty band, and i tau - A is
    # singular exactly at tau = 0
    sys = dataclasses.replace(ref_sys, A=sparse.csr_array((ref_sys.grid.size,) * 2))
    assert sys._band[1:] == (0, 0)
    rhs = np.arange(sys.grid.size, dtype=float)
    with pytest.raises(np.linalg.LinAlgError, match="tau=0"):
        resolvent_apply_discrete(sys, 0.0, rhs)
    assert resolvent_norm_discrete(sys, 0.0).norm == float("inf")
    assert np.array_equal(resolvent_apply_discrete(sys, 2.0, rhs), rhs / 2j)


def test_indefinite_energy_is_refused(ref_sys):
    sys = dataclasses.replace(ref_sys, gamma=-1.0)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        resolvent_norm_discrete(sys, 1.0)


def test_resolvent_norm_even_in_tau(ref_sys):
    for tau in (0.7, 2.5, 40.0):
        up = resolvent_norm_discrete(ref_sys, tau).norm
        down = resolvent_norm_discrete(ref_sys, -tau).norm
        assert up == pytest.approx(down, rel=1e-10)


def test_resolvent_exceeds_spectral_lower_bound(ref_sys, ref_spectrum):
    lam = ref_spectrum.rightmost
    lam = lam[np.argmax(lam.imag)]
    sample = resolvent_norm_discrete(ref_sys, float(lam.imag))
    assert sample.norm >= 0.5 / abs(lam.real)


def test_sweep_and_verdict(ref_sys, ref_spectrum):
    sweep = [resolvent_norm_discrete(ref_sys, t) for t in np.geomspace(0.1, 1e3, 60)]
    taus = np.array([s.tau for s in sweep])
    norms = np.array([s.norm for s in sweep])
    assert np.all(np.isfinite(norms)) and np.all(norms > 0)
    assert np.all(np.diff(taus) > 0)
    verdict = huang_verdict(sweep, ref_spectrum)
    assert verdict.verdict == VERDICT_CONSISTENT
    assert verdict.reasons == ()
    assert 10.0 < verdict.tau_at_max < 300.0
    assert verdict.max_norm > 100.0
    assert verdict.tail_slope < 0.05


def test_verdict_shifted_spectrum_inconclusive(ref_sys, ref_spectrum):
    shift = abs(ref_spectrum.abscissa) * 2.0
    shifted = SpectrumReport.from_eigenvalues(ref_spectrum.eigenvalues + shift)
    sweep = [resolvent_norm_discrete(ref_sys, t) for t in np.geomspace(0.1, 1e3, 12)]
    verdict = huang_verdict(sweep, shifted)
    assert verdict.verdict == VERDICT_INCONCLUSIVE
    assert any("abscissa" in r for r in verdict.reasons)


def test_verdict_growing_tail_inconclusive(ref_spectrum):
    taus = np.geomspace(1.0, 100.0, 20)
    fake = [ResolventSample(tau=t, norm=t, source="discrete") for t in taus]
    verdict = huang_verdict(fake, ref_spectrum)
    assert verdict.verdict == VERDICT_INCONCLUSIVE
    assert any("boundary" in r for r in verdict.reasons)
    assert any("last decade" in r for r in verdict.reasons)


# the CLI pools a discrete and a continuous sample at the ends of its range
_FALLING = [ResolventSample(tau=t, norm=1.0 / (1.0 + t), source="discrete")
            for t in np.geomspace(0.1, 1000.0, 9)]
_LOW_AT_TAU_MIN = ResolventSample(tau=0.1, norm=0.5, source="continuous")
_ONE_TAU_TAIL = [ResolventSample(tau=t, norm=n, source="discrete")
                 for t, n in ((0.1, 1.0), (1.0, 3.0), (10.0, 2.0), (1000.0, 0.5))]
_ONE_TAU_TAIL.append(ResolventSample(tau=1000.0, norm=0.4, source="continuous"))


@pytest.mark.parametrize("samples, reason", [
    ([_LOW_AT_TAU_MIN, *_FALLING], "sampled maximum sits on the sweep boundary"),
    ([*_FALLING, _LOW_AT_TAU_MIN], "sampled maximum sits on the sweep boundary"),
    (_ONE_TAU_TAIL, "tail decade has too few usable samples"),
], ids=["shared-tau-continuous-first", "shared-tau-continuous-last", "one-tau-tail"])
def test_verdict_counts_frequencies_not_samples(ref_spectrum, samples, reason):
    # samples that share a tau neither move the boundary by their list
    # order nor give the tail fit a second abscissa
    verdict = huang_verdict(samples, ref_spectrum)
    assert verdict.verdict == VERDICT_INCONCLUSIVE
    assert verdict.reasons == (reason,)
    assert np.isnan(verdict.tail_slope) == ("tail" in reason)


def test_verdict_rejects_empty_sweep(ref_spectrum):
    with pytest.raises(ValueError, match="empty"):
        huang_verdict([], ref_spectrum)


def test_resolvent_apply_discrete(ref_sys, rng):
    rhs = rng.standard_normal(ref_sys.grid.size)
    for tau in (0.0, 3.0, 25.0):
        z = resolvent_apply_discrete(ref_sys, tau, rhs)
        resid = (1j * tau * z - ref_sys.A @ z) - rhs
        # backward-stable solve: residual scales with |M| |z|, not |rhs|
        shifted = 1j * tau * np.eye(ref_sys.grid.size) - ref_sys.A
        scale = np.linalg.norm(rhs) + np.linalg.norm(shifted) * np.linalg.norm(z)
        assert np.linalg.norm(resid) <= 1e-13 * scale
