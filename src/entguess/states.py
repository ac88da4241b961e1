"""Construction and seeded sampling of quantum states.

All randomness flows through a counter-based Philox generator keyed by a
(seed, stream) pair, with Gaussian variates produced by Box-Muller from its
uniforms.  The same (seed, stream) therefore reproduces the same state
bit-for-bit on a given build, and distinct streams are independent.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError
from .linops import partial_trace
from .tolerances import EIG_TOL, STATE_HERM_TOL, TRACE_TOL


@dataclass(frozen=True)
class SeedSpec:
    """Key of the counter-based RNG: a 64-bit seed plus a sub-stream index."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed % (1 << 64), self.stream % (1 << 64)], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _box_muller(gen: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals from Box-Muller pairs over Philox uniforms."""
    m = (n + 1) // 2
    # 1 - u keeps the log argument in (0, 1].
    r = np.sqrt(-2.0 * np.log(1.0 - gen.random(m)))
    phi = 2.0 * np.pi * gen.random(m)
    out = np.empty(2 * m)
    out[0::2] = r * np.cos(phi)
    out[1::2] = r * np.sin(phi)
    return out[:n]


def _complex_gaussian(gen: np.random.Generator, shape: tuple) -> np.ndarray:
    n = int(np.prod(shape))
    z = _box_muller(gen, 2 * n)
    return (z[:n] + 1j * z[n:]).reshape(shape)


@dataclass(frozen=True)
class DensityMatrix:
    """Trace-one PSD matrix with declared subsystem dimensions (A major)."""

    matrix: np.ndarray
    dims: tuple = field(default=())

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        dims = tuple(int(d) for d in self.dims) or (m.shape[0],)
        object.__setattr__(self, "dims", dims)
        if min(dims) < 1:
            raise DimensionError(f"subsystem dimensions must be >= 1, got {dims}")
        n = int(np.prod(dims))
        if m.ndim != 2 or m.shape != (n, n):
            raise DimensionError(f"matrix shape {m.shape} does not match dims {dims}")
        # m - m^dag is NaN or infinite wherever m is, so a non-finite entry
        # fails the first check before it can reach the factorisation
        with np.errstate(invalid="ignore"):
            herm_gap = np.abs(m - m.conj().T).max()
        if not herm_gap <= STATE_HERM_TOL:
            raise ParameterError(f"matrix deviates from Hermitian by {herm_gap:.3e}")
        trace = np.trace(m)
        if not (abs(trace.real - 1.0) <= TRACE_TOL and abs(trace.imag) <= TRACE_TOL):
            raise ParameterError(f"trace {trace} differs from 1")
        # h + EIG_TOL 1 has a Cholesky factor iff h has no eigenvalue below
        # -EIG_TOL, up to rounding of about n eps |h|, far inside EIG_TOL
        h = (m + m.conj().T) / 2
        try:
            np.linalg.cholesky(h + EIG_TOL * np.eye(n))
        except np.linalg.LinAlgError:
            w = np.linalg.eigvalsh(h)
            raise ParameterError(f"negative eigenvalue {w[0]:.3e}") from None

    @classmethod
    def from_pure(cls, psi: np.ndarray, dims) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex)
        return cls(np.outer(psi, psi.conj()), tuple(dims))

    @property
    def d_a(self) -> int:
        self._require_bipartite()
        return self.dims[0]

    @property
    def d_b(self) -> int:
        self._require_bipartite()
        return self.dims[1]

    def _require_bipartite(self):
        if len(self.dims) != 2:
            raise DimensionError(f"expected bipartite dims, got {self.dims}")

    def marginal(self, keep: str) -> np.ndarray:
        """Reduced matrix on subsystem "A" or "B" of a bipartite state."""
        self._require_bipartite()
        return partial_trace(self.matrix, self.dims[0], self.dims[1], keep)


def random_pure(d: int, seed: SeedSpec) -> np.ndarray:
    """Haar-distributed unit vector: normalized complex Gaussian."""
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    v = _complex_gaussian(seed.generator(), (d,))
    return v / np.linalg.norm(v)


def random_density(d: int, rank: int, seed: SeedSpec, dims=None) -> DensityMatrix:
    """Ginibre-induced mixed state G G^dag / Tr with G a d x rank Gaussian."""
    if not 1 <= rank <= d:
        raise ParameterError(f"rank {rank} out of range [1, {d}]")
    g = _complex_gaussian(seed.generator(), (d, rank))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, tuple(dims) if dims else (d,))


def random_separable(d_a: int, d_b: int, terms: int, seed: SeedSpec) -> DensityMatrix:
    """Convex mixture of `terms` random product states (separable by construction).

    Mixture weights come from the flat simplex distribution (normalized
    exponentials); each factor is a full-rank Ginibre state.
    """
    if terms < 1:
        raise ParameterError(f"terms must be >= 1, got {terms}")
    gen = seed.generator()
    weights = -np.log(1.0 - gen.random(terms))
    weights /= weights.sum()
    out = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for p in weights:
        ga = _complex_gaussian(gen, (d_a, d_a))
        gb = _complex_gaussian(gen, (d_b, d_b))
        rho_a = ga @ ga.conj().T
        rho_b = gb @ gb.conj().T
        out += p * np.kron(rho_a / np.trace(rho_a).real, rho_b / np.trace(rho_b).real)
    return DensityMatrix(out, (d_a, d_b))


def mixed_rank_states(d_a: int, d_b: int, count: int, seed: int):
    """Yield `count` seeded random bipartite states with ranks cycling 1..d_a*d_b.

    The i-th state is drawn from stream i of `seed`, so any prefix of the
    sequence is reproducible independently of the rest.
    """
    if d_a < 1 or d_b < 1:
        raise ParameterError(f"dimensions must be >= 1, got ({d_a}, {d_b})")
    n = d_a * d_b
    for i in range(count):
        rank = (i % n) + 1
        yield random_density(n, rank, SeedSpec(seed, stream=i), dims=(d_a, d_b))
