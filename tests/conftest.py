import numpy as np
import pytest
from scipy import sparse

from heavychain.discretization import _weighted_terms
from heavychain.model import (
    ControllerGains,
    PhysicalParams,
    RescaledModel,
    check_admissibility,
    chi3_threshold,
    derive_physical_thetas,
    rescale,
)
from heavychain.operator import diff_matrix

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


def four_callables(sample):
    """A sampler x -> (f, g, f', g'), such as random_smooth_data's, as the
    four callables f, g, f', g' that solve_resolvent_bvp takes."""
    return tuple(lambda x, k=k: sample(x)[k] for k in range(4))


def _running_integral(y: np.ndarray, dx: float) -> np.ndarray:
    """Trapezoid running integral int_0^x y on a uniform grid."""
    return np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * dx)))


def invert_generator(x: np.ndarray, f: np.ndarray, g: np.ndarray,
                     m: RescaledModel) -> np.ndarray:
    """Solve  A z = (f, g, g(length), g(0))  in closed form: the
    discretization oracle of the operator and acceptance tests.

    f and g are samples on the uniform grid x.  The construction
    integrates g twice through the tension profile:
    v = f,   w'(x) = (-P(length)*g(length) + int_length^x g) / P(x),
    and the cart equation pins w(0) (theta3 must not vanish).  Returns
    z = (w_0..w_N, v_0..v_N), the generator's state layout, in which the
    boundary velocities xi = v(length) and psi = v(0) are v_N and v_0.
    """
    if m.theta3 == 0.0:
        raise ValueError("theta3 = 0: generator is not invertible")
    dx = float(x[1] - x[0])
    P = m.tension(x)
    cum_g = _running_integral(g, dx)  # int_0^x g
    int_from_L = cum_g - cum_g[-1]  # int_length^x g
    dw = (-m.tensionL * g[-1] + int_from_L) / P
    df0 = (diff_matrix(len(x) - 1, dx) @ f)[0]
    w0 = (g[0] - m.theta1 * f[0] - m.theta2 * df0 - m.theta4 * dw[0]) / m.theta3
    return np.concatenate([w0 + _running_integral(dw, dx), f])
