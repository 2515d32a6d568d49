import numpy as np
import pytest
from scipy import sparse

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


def _gram(terms: list, npts: int) -> np.ndarray:
    """Dense sum of T^T diag(s) T over the terms, each T applied to the
    selector of the block it reads (the whole state for block None)."""
    M = np.zeros((2 * npts, 2 * npts))
    for block, s, factors in terms:
        T = sparse.eye_array(2 * npts, format="csr")
        if block is not None:
            T = T[block * npts:(block + 1) * npts]
        for f in reversed(factors):
            T = f @ T
        M += T.T @ (s[:, None] * T.toarray())
    return M


@pytest.fixture(scope="session")
def energy_gram():
    """energy_gram(grid, model, gamma): the dense energy Gram M_H
    assembled from the stencil terms, the quadrature tests' reference for
    the matrix-free forms."""
    def assemble(grid, m, gamma):
        return _gram(_weighted_terms(grid, m, gamma), grid.n + 1)
    return assemble
