"""Spectrum reports, weighted resolvent norms, sweep verdicts."""

import dataclasses

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import cholesky, svdvals

from heavychain import spectral
from heavychain.discretization import assemble_generator, assemble_gram_weighted
from heavychain.model import (
    ControllerGains,
    check_admissibility,
    chi3_threshold,
    derive_physical_thetas,
    rescale,
)
from heavychain.spectral import (
    VERDICT_CONSISTENT,
    VERDICT_INCONCLUSIVE,
    ResolventSample,
    SpectrumReport,
    huang_verdict,
    resolvent_apply_discrete,
    resolvent_norm_discrete,
    resolvent_sweep,
    spectrum,
    spectrum_of_matrix,
)

REF_ABSCISSA_N100 = -0.0189475
REF_NORM_TAU1_N100 = 4.112956
REF_NORM_TAU0_N100 = 24.98499


def energy_gram(sys):
    """The assembled energy Gram M_H, the matrix chol_H factors."""
    return assemble_gram_weighted(sys.grid, sys.model, sys.gamma, sys.alpha1, sys.alpha2)


@pytest.fixture(scope="module")
def ref_sys(ref_model):
    return assemble_generator(ref_model, 100)


@pytest.fixture(scope="module")
def ref_spectrum(ref_sys):
    return spectrum(ref_sys)


def test_decoupled_diagonal_matrix():
    rep = spectrum_of_matrix(np.diag([-1.0, -2.0]))
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
    c = cholesky(energy_gram(ref_sys), lower=False)
    a_sim = c @ ref_sys.A.toarray() @ np.linalg.inv(c)
    direct = np.linalg.norm(np.linalg.inv(a_sim), 2)
    assert resolvent_norm_discrete(ref_sys, 0.0).norm == pytest.approx(direct, rel=1e-8)


def test_resolvent_norm_matches_dense_svd(ref_model):
    # dense reference: 1 / sigma_min of the similarity C (i tau - A) C^{-1}
    sys = assemble_generator(ref_model, 400)
    c = cholesky(energy_gram(sys), lower=False)
    c_inv = np.linalg.inv(c)
    a = sys.A.toarray()
    for tau in (0.0, 1.0, 10.0, 100.0):
        smin = svdvals(c @ (1j * tau * np.eye(len(a)) - a) @ c_inv)[-1]
        assert resolvent_norm_discrete(sys, tau).norm == pytest.approx(1.0 / smin, rel=1e-8)


def dense_resolvent_norm(gram, a, tau):
    """1 / sigma_min of C (i tau - A) C^{-1} with gram = C^T C, all dense;
    one norm per entry when tau is an array."""
    c = cholesky(gram, lower=False)
    c_inv, eye = np.linalg.inv(c), np.eye(len(a))
    norms = [1.0 / svdvals(c @ (1j * t * eye - a) @ c_inv)[-1] for t in np.ravel(tau)]
    return np.reshape(norms, np.shape(tau))


def test_resolvent_norm_matches_dense_svd_to_sweep_top(ref_sys):
    # the default CLI sweep ends at tau = 1000
    a = ref_sys.A.toarray()
    gram = energy_gram(ref_sys)
    for tau in (0.0, 0.1, 1.0, 10.0, 100.0, 1000.0):
        ref = dense_resolvent_norm(gram, a, tau)
        assert resolvent_norm_discrete(ref_sys, tau).norm == pytest.approx(ref, rel=1e-9)


def admissible_gain_models(params, count, seed):
    """count seeded admissible models: chi1, chi2 in [0.5, 2], chi3 above threshold."""
    rng = np.random.default_rng(seed)
    models = []
    while len(models) < count:
        chi1, chi2 = rng.uniform(0.5, 2.0, 2)
        gains = ControllerGains(chi1, chi2, rng.uniform(1.1, 3.0) * chi3_threshold(params))
        m = rescale(params, derive_physical_thetas(params, gains))
        if check_admissibility(m).admissible:
            models.append(m)
    return models


def test_resolvent_norm_matches_dense_across_gains(ref_params):
    # the 8-vector Krylov space against the dense reference on other models;
    # singular values cluster at the high-tau end of the range
    taus = np.geomspace(0.1, 1e3, 30)
    for m in admissible_gain_models(ref_params, 8, seed=11):
        sys = assemble_generator(m, 50)
        refs = dense_resolvent_norm(energy_gram(sys), sys.A.toarray(), taus)
        for tau, ref in zip(taus, refs):
            assert resolvent_norm_discrete(sys, tau).norm == pytest.approx(ref, rel=1e-9)


def test_resolvent_norm_on_tiny_grids(ref_model):
    # N = 4 is the smallest grid (state size 10), N = 8 the CLI minimum:
    # the Krylov space never outgrows the state
    taus = np.array([0.0, 0.1, 1.0, 10.0, 100.0, 1000.0])
    for n in (4, 8):
        sys = assemble_generator(ref_model, n)
        refs = dense_resolvent_norm(energy_gram(sys), sys.A.toarray(), taus)
        for tau, ref in zip(taus, refs):
            assert resolvent_norm_discrete(sys, tau).norm == pytest.approx(ref, rel=1e-9)


def test_resolvent_norm_application_count(ref_sys, monkeypatch):
    # ARPACK's default 20-vector Krylov space costs 21 applications of B^H B
    # per shift; the one-eigenvalue space averages about 12
    applications = []
    operator = spectral.LinearOperator

    def counted(shape, matvec, dtype):
        def apply(x):
            applications[-1] += 1
            return matvec(x)
        applications.append(0)
        return operator(shape, matvec=apply, dtype=dtype)

    monkeypatch.setattr(spectral, "LinearOperator", counted)
    resolvent_sweep(ref_sys, 0.1, 1e3, points=60)
    assert len(applications) == 60
    assert np.mean(applications) <= 15.0


def test_resolvent_norm_follows_replaced_gram(ref_model):
    sys = assemble_generator(ref_model, 50)
    before = resolvent_norm_discrete(sys, 1.0).norm  # factors M_H
    heavier = dataclasses.replace(sys, gamma=2.0 * sys.gamma)
    ref = dense_resolvent_norm(energy_gram(heavier), sys.A.toarray(), 1.0)
    assert abs(ref - before) > 1e-3 * ref
    assert resolvent_norm_discrete(heavier, 1.0).norm == pytest.approx(ref, rel=1e-9)


def test_resolvent_norm_singular_shift_is_infinite(ref_sys):
    keep = np.ones(ref_sys.grid.size)
    keep[0] = 0.0  # A with an exactly zero first column
    sys = dataclasses.replace(ref_sys, A=(ref_sys.A @ sparse.diags_array(keep)).tocsr())
    assert resolvent_norm_discrete(sys, 0.0).norm == float("inf")


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
    sweep = resolvent_sweep(ref_sys, 0.1, 1e3, points=60)
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
    sweep = resolvent_sweep(ref_sys, 0.1, 1e3, points=12)
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
