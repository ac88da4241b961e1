import numpy as np
import pytest

from entguess import (
    DensityMatrix,
    MeasurementFamily,
    max_entangled,
    mub_family,
    random_density,
)
from entguess.entropies import measure_family
from entguess.tolerances import RANK_TOL


@pytest.fixture
def mubs():
    return mub_family


def max_entangled_state(d) -> DensityMatrix:
    return DensityMatrix.from_pure(max_entangled(d), (d, d))


def near_cutoff_tripartite() -> np.ndarray:
    """sqrt(1 - lam)|000> + sqrt(lam)|111> on 2 x 2 x 2: rho_AE has spectrum
    (1 - lam, lam), with lam at 1.5x the rank cutoff."""
    lam = 1.5 * RANK_TOL / (1.0 + 1.5 * RANK_TOL)
    psi = np.zeros(8, dtype=complex)
    psi[0], psi[7] = np.sqrt(1.0 - lam), np.sqrt(lam)
    return psi


def basis_family(basis) -> MeasurementFamily:
    """Measuring A in one basis (columns), as a one-setting family."""
    basis = np.asarray(basis)
    return MeasurementFamily("Custom", basis[None], np.ones((1, len(basis))))


def measure_in_basis(rho: DensityMatrix, basis) -> np.ndarray:
    """Conditional operators of measuring A in one basis (columns)."""
    return measure_family(rho, basis_family(basis))


def random_bipartite(d_a, d_b, rank, seed, stream=0) -> DensityMatrix:
    return random_density((d_a, d_b), rank, seed, stream)


def hermitian(gen, d) -> np.ndarray:
    m = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    return m + m.conj().T


def psd(gen, d, rank=None) -> np.ndarray:
    g = gen.normal(size=(d, rank or d)) + 1j * gen.normal(size=(d, rank or d))
    return g @ g.conj().T
