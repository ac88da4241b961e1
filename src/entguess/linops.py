"""Dense complex matrix algebra for small composite quantum systems.

Index convention, used everywhere in this package: a composite system AB is
stored row-major with the A index major and the B index minor, i.e. the
basis vector |i>_A |j>_B sits at flat index i*d_B + j, which is the order
of np.kron.

All matrix functions of Hermitian operators go through one function,
`func_on_support`, which makes the package's only ``eigh``.  It applies the
one relative rank cutoff, tolerances.RANK_TOL, so negative powers are taken
on the support (pseudoinverse convention) and exponent 0 is the support
projector.  It also holds the one near-cutoff rule: it flags an eigenvalue
within a factor 10 of the cutoff, on either side.

`partial_trace` traces out A, the only subsystem the package discards.
It and `func_on_support` take a stack of matrices with leading batch axes,
(..., n, n), and act on each matrix as on a single one; a single matrix is
the stack with no leading axes, through the same code.
"""

import numpy as np

from .errors import DimensionError, NotPositiveError, ParameterError
from .tolerances import FUNC_HERM_TOL, RANK_TOL


def partial_trace(m: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Trace out A of a (dim_a*dim_b)-square operator, A major, or of each in a stack.

    Returns the reduced operator on B, with m's leading axes.
    """
    m = np.asarray(m)
    n = dim_a * dim_b
    if m.ndim < 2 or m.shape[-2:] != (n, n):
        raise DimensionError(
            f"matrix is {m.shape}, expected (..., {n}, {n}) for dims ({dim_a}, {dim_b})"
        )
    m4 = m.reshape(*m.shape[:-2], dim_a, dim_b, dim_a, dim_b)
    return np.einsum("...iaib->...ab", m4)


def func_on_support(m: np.ndarray, exponents):
    """Apply ``lambda -> lambda**e`` on the support of a PSD matrix, per exponent.

    The package's only eigendecomposition.  One ``eigh`` serves every
    exponent in ``exponents`` and every matrix of a stack ``m`` of shape
    (..., n, n).  Per matrix, eigenvalues above the cutoff ``RANK_TOL * max
    |eigenvalue|`` are raised to the power; the rest map to zero, so a
    negative exponent gives the pseudoinverse-style power and exponent 0 the
    support projector.  Each distinct exponent is computed once: one given
    twice, as (-1/2, -1/2) at nu = 0, returns the same array in both places.

    Returns (powers, near_cutoff): the powered matrices in the order of
    ``exponents``, each with m's shape, and per matrix True when some
    eigenvalue lies within a factor 10 of the cutoff, on either side, where
    rounding noise can flip whether it counts as support (a bool for one
    matrix, a bool array over the leading axes for a stack).  Raises
    NotPositiveError if a matrix is not Hermitian or has an eigenvalue below
    -cutoff; for a stack the message names the first such matrix.
    """
    m = np.asarray(m)
    m_dag = m.conj().swapaxes(-1, -2)
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    if (np.abs(m - m_dag).max(axis=(-2, -1)) > FUNC_HERM_TOL * scale).any():
        raise NotPositiveError("matrix is not Hermitian")
    w, u = np.linalg.eigh((m + m_dag) / 2)
    cutoff = RANK_TOL * np.abs(w).max(axis=-1, keepdims=True)
    negative = (w[..., :1] < -cutoff).ravel()
    if negative.any():
        i = np.argmax(negative)
        raise NotPositiveError(
            f"negative eigenvalue {w[..., 0].ravel()[i]:.3e} below -{cutoff.ravel()[i]:.3e}"
        )
    on = w > cutoff
    near_cutoff = ((w > cutoff / 10) & (w < cutoff * 10)).any(axis=-1)
    u_dag = u.conj().swapaxes(-1, -2)
    powers = {}
    for exponent in set(exponents):
        powered = np.zeros_like(w)
        powered[on] = w[on] ** exponent
        f = (u * powered[..., None, :]) @ u_dag
        powers[exponent] = (f + f.conj().swapaxes(-1, -2)) / 2
    return [powers[e] for e in exponents], near_cutoff if near_cutoff.ndim else bool(near_cutoff)


def max_entangled(d: int) -> np.ndarray:
    """The maximally entangled vector (1/sqrt(d)) sum_j |j>|j> on d x d."""
    if d < 2:
        raise ParameterError(f"d must be >= 2, got {d}")
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return psi
