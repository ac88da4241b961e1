"""Construction and seeded sampling of quantum states.

Every draw is keyed by two ints, a seed and a stream, through a
counter-based Philox generator; Box-Muller turns 2n of its uniforms into n
complex Gaussians.  A sampler of one state takes `seed` and `stream`; a
sampler of many takes `seed` and `start`, and draws state i from stream
start + i.  The same (seed, stream) therefore reproduces the same state
bit-for-bit on a given build, and distinct streams are independent.

A state is a `DensityMatrix`, and one function, `_certify`, decides whether
a stack is one: Hermitian within STATE_HERM_TOL, trace within TRACE_TOL of
1, and (m + m^dag)/2 + EIG_TOL 1 with a Cholesky factor.  A state built from
a matrix (a file, a caller, `from_pure`, `random_density`,
`random_separable`) runs it on rho.  One built by
`DensityMatrix.from_factor` also keeps its normalized Ginibre factor F,
rho = F F^dag, and runs it on the r x r F^dag F alone: `mixed_rank_states`
hands out a chunk that way when its largest rank r has r^2 <= d_A d_B^2,
where reading F costs the kernels no more than reading rho.  ``rho[i]`` of
a certified stack is not certified again.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError, exact_int
from .tolerances import EIG_TOL, STATE_HERM_TOL, TRACE_TOL


def _philox(seed: int, stream: int) -> "np.random.Generator":
    """The generator of stream `stream` of `seed`: Philox keyed by both, mod 2^64."""
    key = np.array([seed % (1 << 64), stream % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _box_muller(u: np.ndarray, sizes) -> np.ndarray:
    """Complex Gaussians from the uniforms u, for consecutive arrays of
    `sizes` entries, as one flat array.

    An array of n entries reads the next 2n uniforms: its n radius uniforms,
    then its n angle uniforms.  They make n Box-Muller pairs, whose 2n
    normals, in order, are the n real parts and then the n imaginary parts.
    The transform runs once over all of u.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    total = int(sizes.sum())
    # entry i of an array of n entries that starts at entry s has its radius
    # uniform at 2s + i and its angle uniform at 2s + n + i; its real and
    # imaginary parts sit at the same places among the pairs' normals
    radius_at = np.arange(total) + np.repeat(np.cumsum(sizes) - sizes, sizes)
    angle_at = radius_at + np.repeat(sizes, sizes)
    # 1 - u keeps the log argument in (0, 1].
    r = np.sqrt(-2.0 * np.log(1.0 - u[radius_at]))
    phi = 2.0 * np.pi * u[angle_at]
    z = np.empty(2 * total)
    z[0::2] = r * np.cos(phi)
    z[1::2] = r * np.sin(phi)
    out = np.empty(total, dtype=complex)
    out.real = z[radius_at]
    out.imag = z[angle_at]
    return out


def _split(flat: np.ndarray, shapes) -> list:
    """Views of consecutive parts of `flat`, one per shape."""
    parts, end = [], 0
    for shape in shapes:
        start, end = end, end + math.prod(shape)
        parts.append(flat[start:end].reshape(shape))
    return parts


def _stream_normals(seed: int, streams, sizes) -> np.ndarray:
    """`_box_muller` of the first 2n uniforms of stream k of `seed`, for each
    (k, n), as one flat array.

    One generator fills one buffer for every stream: its Philox is re-keyed
    to (seed, k) with counter 0 and an empty buffer, which is the state
    `_philox(seed, k)` starts in, without the OS-entropy SeedSequence that
    building a new generator first makes.
    """
    gen = _philox(seed, 0)
    state = gen.bit_generator.state
    u = np.empty(2 * sum(sizes))
    end = 0
    for k, n in zip(streams, sizes):
        state["state"]["key"] = np.array([seed % (1 << 64), k % (1 << 64)], dtype=np.uint64)
        gen.bit_generator.state = state
        gen.random(out=u[end : end + 2 * n])
        end += 2 * n
    return _box_muller(u, sizes)


def _stream_gaussians(seed: int, streams, shapes) -> list:
    """One complex Gaussian array per (k, shape): for n entries, `_box_muller`
    of the first 2n uniforms of stream k of `seed`."""
    sizes = [math.prod(shape) for shape in shapes]
    return _split(_stream_normals(seed, streams, sizes), shapes)


def _has_cholesky(m: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _certify(stack: np.ndarray, trace: np.ndarray | None = None):
    """Certify a (k, n, n) stack as k density matrices, or name the first that is not one.

    ParameterError names the first state that deviates from Hermitian by
    more than STATE_HERM_TOL; failing that, the first whose trace is not
    within TRACE_TOL of 1 in its real and imaginary parts; failing that, the
    first whose h = (m + m^dag)/2 has an eigenvalue below -EIG_TOL, as
    eigvalsh(h + EIG_TOL 1)[0] - EIG_TOL.  h + EIG_TOL 1 has a Cholesky
    factor iff h has no eigenvalue below -EIG_TOL, up to rounding of about
    n eps |h|, far inside EIG_TOL.  `trace` stands for the stack's traces
    where the caller knows them to be real, as Tr F^dag F = ||F||_F^2 is.
    """
    stack_dag = stack.conj().swapaxes(1, 2)
    # m - m^dag is NaN or infinite wherever m is, so a non-finite entry
    # fails the first check before it can reach the factorisation
    with np.errstate(invalid="ignore"):
        herm_gap = np.abs(stack - stack_dag).max(axis=(1, 2))
    bad = ~(herm_gap <= STATE_HERM_TOL)
    if bad.any():
        raise ParameterError(f"matrix deviates from Hermitian by {herm_gap[bad.argmax()]:.3e}")
    if trace is None:
        trace = np.trace(stack, axis1=1, axis2=2)
    bad = ~((abs(trace.real - 1.0) <= TRACE_TOL) & (abs(trace.imag) <= TRACE_TOL))
    if bad.any():
        raise ParameterError(f"trace {trace[bad.argmax()]} differs from 1")
    # (m + m^dag)/2 + EIG_TOL 1, by a shift of the diagonal alone
    shifted = (stack + stack_dag) * 0.5
    shifted.reshape(len(stack), -1)[:, :: stack.shape[-1] + 1] += EIG_TOL
    if not _has_cholesky(shifted):
        first = next(one for one in shifted if not _has_cholesky(one))
        raise ParameterError(f"negative eigenvalue {np.linalg.eigvalsh(first)[0] - EIG_TOL:.3e}")


def _checked_dims(dims, size: int) -> tuple:
    """`dims` as a tuple of ints >= 1; () stands for one system of `size`."""
    try:
        dims = tuple(exact_int(d) for d in dims) or (size,)
    except TypeError as exc:
        raise DimensionError(f"subsystem dimensions must be integers: {exc}") from None
    if min(dims) < 1:
        raise DimensionError(f"subsystem dimensions must be >= 1, got {dims}")
    return dims


@dataclass(frozen=True)
class DensityMatrix:
    """Trace-one PSD matrix with declared subsystem dimensions (A major).

    ``matrix`` may also hold a stack of k such matrices, shape (k, n, n),
    all with the same ``dims``; every check runs on the whole stack, and a
    rejection names the first matrix that fails it, in the words used for a
    single one.  ``rho[i]`` is state i of a stack.

    ``factor`` is None, or for a state made by `from_factor` its normalized
    Ginibre factor F, shape (n, r) or (k, n, r), with matrix = F F^dag up to
    rounding; the entropy kernels then read F, and the matrix is formed only
    when something reads it.
    """

    matrix: np.ndarray
    dims: tuple = field(default=())
    factor: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        dims = _checked_dims(self.dims, m.shape[-1])
        object.__setattr__(self, "dims", dims)
        n = math.prod(dims)
        if m.ndim not in (2, 3) or m.shape[-2:] != (n, n):
            raise DimensionError(f"matrix shape {m.shape} does not match dims {dims}")
        _certify(m.reshape(-1, n, n))

    def __getitem__(self, i) -> "DensityMatrix":
        # state i of a certified stack: its slice, or its own factor and G
        if (self.matrix if self.factor is None else self.factor).ndim != 3:
            raise DimensionError("a single state has no states to index")
        if self.factor is None:
            return DensityMatrix._certified(self.dims, matrix=self.matrix[i])
        g = self._ginibre_g[i]
        return DensityMatrix._certified(self.dims, factor=self.factor[i], _ginibre_g=g)

    @classmethod
    def _certified(cls, dims, **fields) -> "DensityMatrix":
        """A state whose certificate has run, made from its fields.  A factor
        state gets `factor` and `_ginibre_g`, not its matrix: `__getattr__`
        forms that on first read."""
        state = cls.__new__(cls)
        state.__dict__.update(dims=dims, **fields)
        return state

    def __getattr__(self, name):
        # reached only for an attribute not set: the matrix of a factor state,
        # which the kernels do not read
        g = self.__dict__.get("_ginibre_g")
        if name != "matrix" or g is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        matrix = _ginibre(g) if isinstance(g, np.ndarray) else np.array([_ginibre(one) for one in g])
        object.__setattr__(self, "matrix", matrix)
        return matrix

    @classmethod
    def from_factor(cls, g, dims) -> "DensityMatrix":
        """The Ginibre-induced state G G^dag / Tr of an n x r matrix G, or a stack of them.

        `g` is one (n, r) array, or a sequence of k such arrays whose r may
        differ (a (k, n, r) array is one), which gives a stack.  The state
        keeps a copy of each G, and ``matrix`` is `_ginibre` of it, formed on
        first read: the matrix a dense state built from G holds, bit for
        bit.  ``factor`` is G / sqrt(t), with t = ||G||_F^2, zero-padded on
        the right to the largest r.

        Certificate.  Every entry of G is finite, t > 0, and F = G / sqrt(t)
        has F^dag F pass `_certify`, an r x r check with the real trace
        ||F||_F^2; F^dag F has the nonzero spectrum of F F^dag.  The n x n
        check that a matrix from outside gets is not needed: fl(G G^dag)/t
        differs from the exact G G^dag / t by at most about r u in norm
        (u = 1.1e-16), so its smallest eigenvalue lies above -r u, -2.8e-14
        at r = 248, far inside EIG_TOL = 1e-10.  The tests keep that n x n
        Cholesky on the generated states as an oracle.
        """
        single = isinstance(g, np.ndarray) and g.ndim == 2
        gs = [np.array(one, dtype=complex) for one in ([g] if single else g)]
        if not gs or any(one.ndim != 2 for one in gs):
            raise DimensionError("a factor is an (n, r) matrix or a non-empty sequence of them")
        dims = _checked_dims(dims, gs[0].shape[0])
        n = math.prod(dims)
        if any(one.shape[0] != n or one.shape[1] < 1 for one in gs):
            shapes = [one.shape for one in gs]
            raise DimensionError(f"factor shapes {shapes} do not match dims {dims}")
        f = np.zeros((len(gs), n, max(one.shape[1] for one in gs)), dtype=complex)
        for i, one in enumerate(gs):
            f[i, :, : one.shape[1]] = one
        # a NaN or infinite entry would reach every later number, so it fails first
        if not np.isfinite(f).all():
            raise ParameterError("factor has a non-finite entry")
        with np.errstate(over="ignore"):  # an infinite t fails the trace check
            t = np.vecdot(f, f).real.sum(axis=-1)
        if not (t > 0).all():
            raise ParameterError("factor is zero: ||G||_F^2 = 0")
        f /= np.sqrt(t)[:, None, None]
        gram = f.conj().swapaxes(1, 2) @ f
        _certify(gram, np.trace(gram, axis1=1, axis2=2).real)
        stack = cls._certified(dims, factor=f, _ginibre_g=gs)
        return stack[0] if single else stack

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


def pure_states(d: int, count: int, seed: int, start: int = 0) -> np.ndarray:
    """`count` seeded Haar-distributed unit vectors in C^d, as the rows of one array.

    Row i is the normalized complex Gaussian of stream start + i of `seed`.
    """
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    out = _stream_normals(seed, range(start, start + count), [d] * count).reshape(count, d)
    # the per-row dot products np.linalg.norm makes, so each row rounds as its
    # norm does; a stacked norm(axis=-1) does not round the same
    out /= np.sqrt(np.vecdot(out.real, out.real) + np.vecdot(out.imag, out.imag))[:, None]
    return out


def _ginibre(g: np.ndarray) -> np.ndarray:
    """The Ginibre-induced state G G^dag / Tr of a Gaussian matrix G."""
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_density(dims: tuple, rank: int, seed: int, stream: int = 0) -> DensityMatrix:
    """Ginibre-induced mixed state G G^dag / Tr on subsystems `dims`.

    G is a d x rank Gaussian, d = prod(dims); a single system is ``(d,)``.
    """
    d = math.prod(dims)
    if not 1 <= rank <= d:
        raise ParameterError(f"rank {rank} out of range [1, {d}]")
    (g,) = _stream_gaussians(seed, [stream], [(d, rank)])
    return DensityMatrix(_ginibre(g), tuple(dims))


def random_separable(d_a: int, d_b: int, terms: int, seed: int, stream: int = 0) -> DensityMatrix:
    """Convex mixture of `terms` random product states (separable by construction).

    Mixture weights come from the flat simplex distribution (normalized
    exponentials); each factor is a full-rank Ginibre state.
    """
    if terms < 1:
        raise ParameterError(f"terms must be >= 1, got {terms}")
    gen = _philox(seed, stream)
    weights = -np.log(1.0 - gen.random(terms))
    weights /= weights.sum()
    # the factors' Gaussians, A then B for each term, in one transform
    shapes = [(d_a, d_a), (d_b, d_b)] * terms
    sizes = [d_a * d_a, d_b * d_b] * terms
    g = _split(_box_muller(gen.random(2 * sum(sizes)), sizes), shapes)
    out = sum(p * np.kron(_ginibre(a), _ginibre(b)) for p, a, b in zip(weights, g[::2], g[1::2]))
    return DensityMatrix(out, (d_a, d_b))


def mixed_rank_states(d_a: int, d_b: int, count: int, seed: int, start: int = 0) -> DensityMatrix:
    """`count` seeded random bipartite states as one stack, ranks cycling 1..d_a*d_b.

    State i of the stack is state start + i of the sequence: it is drawn from
    stream start + i of `seed` with rank (start + i) % (d_a d_b) + 1, so any
    part of the sequence is reproducible independently of the rest, and the
    stack validates once.

    The matrices are the same whichever way the stack is built.  With n =
    d_a d_b and r the stack's largest rank, it is a factor state
    (`DensityMatrix.from_factor`) when r^2 <= n d_b, and a dense one
    otherwise.  That is where the kernels' r x r products over F, such as
    F^dag (1 (x) M) F, cost no more than their n x n products over rho, such
    as (1 (x) M) rho; above it the dense route is faster.
    """
    if d_a < 1 or d_b < 1:
        raise ParameterError(f"dimensions must be >= 1, got ({d_a}, {d_b})")
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    n = d_a * d_b
    streams = range(start, start + count)
    ranks = [k % n + 1 for k in streams]
    shapes = [(n, r) for r in ranks]
    if max(ranks) ** 2 <= n * d_b:
        return DensityMatrix.from_factor(_stream_gaussians(seed, streams, shapes), (d_a, d_b))
    out = np.empty((count, n, n), dtype=complex)
    for i, g in enumerate(_stream_gaussians(seed, streams, shapes)):
        out[i] = _ginibre(g)
    return DensityMatrix(out, (d_a, d_b))
