import numpy as np
import pytest

from heavychain.discretization import _weighted_terms
from heavychain.model import (
    ControllerGains,
    PhysicalParams,
    derive_physical_thetas,
    rescale,
)

# Reference configuration used across the suite: unit chain with a 2.5x
# critical damping-style gain, everything else at 1.
REF_PARAMS = PhysicalParams(rho=1.0, L=1.0, m_p=1.0, m_c=1.0, g=9.81)
REF_GAINS = ControllerGains(chi1=1.0, chi2=1.0, chi3=2.5)


@pytest.fixture(scope="session")
def ref_params():
    return REF_PARAMS


@pytest.fixture(scope="session")
def ref_gains():
    return REF_GAINS


@pytest.fixture(scope="session")
def ref_model():
    return rescale(REF_PARAMS, derive_physical_thetas(REF_PARAMS, REF_GAINS))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260814)


def _gram(terms: list, npts: int, coupling: tuple) -> np.ndarray:
    """Dense sum of T^T diag(s) T over the terms, plus 1/2 j j^T."""
    M = np.zeros((2 * npts, 2 * npts))
    diag = np.arange(npts)
    for block, s, factors in terms:
        blk = M[block * npts:(block + 1) * npts, block * npts:(block + 1) * npts]
        if not factors:
            blk[diag, diag] += s
            continue
        T = factors[0]
        for f in factors[1:]:
            T = T @ f
        blk += T.T @ (s[:, None] * T.toarray())
    j = np.zeros(2 * npts)
    np.add.at(j, *coupling)
    M += 0.5 * np.outer(j, j)
    return M


@pytest.fixture(scope="session")
def energy_gram():
    """energy_gram(grid, model, gamma): the dense energy Gram M_H
    assembled from the stencil terms, the quadrature tests' reference for
    the matrix-free forms."""
    def assemble(grid, m, gamma):
        terms, coupling = _weighted_terms(grid, m, gamma)
        return _gram(terms, grid.n + 1, coupling)
    return assemble
