"""Measurement families that generate complex projective 2-designs.

Three certified constructions are provided: complete sets of mutually
unbiased bases in prime dimension, SIC-POVMs for d = 2 and 3, and the
computational-basis orbit of the single-qubit Clifford group.  None of the
constructions is trusted: every family can be checked after the fact with
`design_defect` (distance of the pooled second moment, each effect vector
weighted by its scale squared, from (1+F)/(d(d+1))).
The check works on the symmetric subspace, dimension D = d(d+1)/2, and
forms only the lower block triangle of a D x D Gram matrix, in row blocks
rebuilt from the N pooled effect vectors; its working memory is two blocks
of rows, about 32 * 96 * N bytes, not the 16 D N bytes of the whole array.

A family is an array of measurement settings of equal sampling weight,
all with the same number of outcomes.  ``vectors[t, :, k]`` is the k-th
effect vector of setting t (a column of the setting's d x n_outcomes
matrix ``vectors[t]``) and ``scales[t, k]`` its weight, so the effects are
``scales[t, k] * |v><v|``; for an orthonormal-basis setting the scales are
all 1, for a SIC they are 1/d.  A family's numbers come from these arrays
alone; its ``kind`` is a label for reports.

A family holds read-only copies of the arrays it is given, so the defect
and the tables cached on it cannot go stale.  The built-in constructors
`mub_family`, `sic_povm` and `clifford_orbit_family` return one shared
family per argument per process, kept until the process ends: the first
call builds it, and the first `design_defect` of it certifies it, once.
Their argument must be an int, so that 5 and 5.0 cannot share an entry.
Families read from files are built anew on every request.  Only
`_require_mub_dimension` decides which d has a MUB set, and it builds none.
"""

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import (
    DimensionError,
    FormatError,
    ParameterError,
    UnsupportedDimensionError,
    _require_addressable,
    exact_int,
)
from .tolerances import COMPLETENESS_TOL, NORM_TOL

MUB_COMPLETE = "MUB-complete"
SIC = "SIC"
CLIFFORD_ORBIT = "CliffordOrbit"

# Rows of the symmetric-subspace array per block of the design defect: the
# two blocks held, one and the conjugate of another, take 2 * 16 * 96 * N
# bytes, 3.0 MB for mub_family(31) (N = 992), where the whole array takes
# 7.9 MB.  At d = 31 and 37, blocks of 64 and 48 rows took 1.2 and 1.4-1.5
# times as long; blocks of 128 rows were no faster and took 1 MB more.
_DEFECT_BLOCK = 96


@dataclass(frozen=True, eq=False)
class MeasurementFamily:
    """A weighted collection of rank-1 measurement settings on a d-dim system.

    ``vectors`` has shape (n_settings, d, n_outcomes) and ``scales`` shape
    (n_settings, n_outcomes).  Settings share a uniform sampling weight
    1/n_settings.  ``d`` is read from ``vectors``, and the constant of the
    guessing-probability equality from ``scales``: c = d(d+1) / m with
    m = sum_t sum_k scales[t, k]^2 / n_settings, so that the weighted
    moment sum_t sum_k scales^2 |v><v|^(x2) / n_settings of a 2-design is
    (1 + F)/c.  That gives d+1 for complete-MUB and Clifford-orbit families
    and d(d+1) for SICs.  ``kind`` is a free label, carried into report
    metadata; it decides no number.  The family keeps read-only copies of
    both arrays: a write to them raises ValueError, and a later write to
    the caller's arrays cannot reach it.
    """

    kind: str
    vectors: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        for name in ("vectors", "scales"):
            copy = np.array(getattr(self, name))
            copy.flags.writeable = False
            object.__setattr__(self, name, copy)
        v, scales = self.vectors, self.scales
        if v.ndim != 3 or scales.shape != (v.shape[0], v.shape[2]) or scales.size == 0:
            raise DimensionError(
                f"vectors {v.shape} and scales {scales.shape} do not form "
                "(n_settings, d, n_outcomes) and (n_settings, n_outcomes) "
                "with at least one of each"
            )
        # written as `not <=` so that a NaN entry fails the check
        if not np.abs(np.linalg.norm(v, axis=1) - 1.0).max() <= NORM_TOL:
            raise ParameterError("effect vectors must be normalized")
        # a negative weight passes completeness but is no effect
        if not scales.min() >= 0:
            raise ParameterError("effect weights must be non-negative")
        sums = (v * scales[:, None, :]) @ v.conj().transpose(0, 2, 1)
        if not np.abs(sums - np.eye(self.d)).max() <= COMPLETENESS_TOL:
            raise ParameterError("setting effects do not sum to the identity")

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    @cached_property
    def equality_constant(self) -> float:
        return float(self.d * (self.d + 1) / (np.sum(self.scales**2) / self.n_settings))

    @property
    def n_settings(self) -> int:
        return self.vectors.shape[0]

    @property
    def setting_weight(self) -> float:
        return 1.0 / self.vectors.shape[0]

    def is_basis_family(self) -> bool:
        """Whether every setting is an orthonormal basis: d outcomes, whose
        scales the completeness check holds to 1 (see COMPLETENESS_TOL)."""
        return self.vectors.shape[2] == self.d

    @cached_property
    def _design_defect(self) -> float:
        """Frobenius norm of W W^dag / N - 2/(d(d+1)) 1, taken in row blocks of W.

        The weighted moment sum_k s_k^2 |vv><vv| / sum_k s_k^2 over the N
        pooled vectors, with s_k the scale of vector k (the setting weights
        are equal and cancel), and the target (1+F)/(d(d+1)) =
        2 P_sym/(d(d+1)) both live in the symmetric subspace, of dimension
        D = d(d+1)/2.  Row (i, j), i <= j, of the D x N array W is the
        coordinate of each pooled |v>|v> on the orthonormal basis vector |ii>
        or (|ij> + |ji>)/sqrt(2), times sqrt(N s_k^2 / sum s^2), so
        W W^dag / N is the moment there and the target is a multiple of the
        identity.  W is never whole.  For each block J of `_DEFECT_BLOCK`
        rows, one buffer holds W_J and another conj(W_J); then each block
        W_c below J is rebuilt in the first buffer from the pooled vectors,
        bottom up, so that the last one is the next W_J.  One GEMM
        W_c conj(W_J)^T per block gives the lower block triangle of the
        Hermitian gap, and the squared norm sums the diagonal blocks, less
        the target, and twice the blocks below them.
        Working memory is the two buffers, 32 `_DEFECT_BLOCK` N bytes, and
        the pooled vectors, 16 d N bytes.
        """
        d = self.d
        squared = self.scales.reshape(-1) ** 2
        n = squared.size
        # the fourth root on each factor puts its vector's weight, and the
        # sqrt(2) of a row (i, j), i < j, in place; it is 2^(1/4) when the
        # scales are equal
        pooled = self.vectors.transpose(1, 0, 2).reshape(d, -1)
        pooled = pooled * (2 * squared * n / np.sum(squared)) ** 0.25
        size = d * (d + 1) // 2
        # row starts[i] is (i, i), and rows (i, i + 1), ..., (i, d - 1) follow it
        starts = np.concatenate([[0], np.cumsum(np.arange(d, 0, -1))])

        def fill(rows, first):
            """Rows first, first + 1, ... of W, as many as `rows` holds, into `rows`."""
            stop = first + len(rows)
            i = np.searchsorted(starts, first, side="right") - 1
            while starts[i] < stop:
                lo, hi = max(starts[i], first), min(starts[i + 1], stop)
                j = i + lo - starts[i]
                np.multiply(pooled[i], pooled[j : j + hi - lo], out=rows[lo - first : hi - first])
                if j == i:
                    rows[lo - first] *= 0.5**0.5
                i += 1

        block = min(_DEFECT_BLOCK, size)
        w_c = np.empty((block, n), dtype=complex)
        w_j_conj = np.empty((block, n), dtype=complex)
        target = 2.0 / (d * (d + 1))
        squares = 0.0
        fill(w_c[:block], 0)
        for a in range(0, size, block):
            # w_c holds W_J, rows a, a + 1, ...: the diagonal block, and then
            # its conjugate for the blocks below
            w_j = w_c[: min(block, size - a)]
            conj = np.conjugate(w_j, out=w_j_conj[: len(w_j)])
            gram = w_j @ conj.T
            gram /= n
            gram[np.diag_indices_from(gram)] -= target
            squares += np.vdot(gram, gram).real
            # bottom up, so that the last block filled is the next W_J
            for c in reversed(range(a + block, size, block)):
                rows = w_c[: min(block, size - c)]
                fill(rows, c)
                gram = rows @ conj.T
                gram /= n
                squares += 2.0 * np.vdot(gram, gram).real
        return float(np.sqrt(squares))

    @cached_property
    def _effect_rows(self) -> np.ndarray:
        """Rows sqrt(scale_k) <v_k|, setting major, that `entropies` applies to a factor.

        Shape (n_settings * n_outcomes, d), read-only like the arrays they
        come from.
        """
        rows = (self.vectors.conj() * np.sqrt(self.scales)[:, None, :]).swapaxes(1, 2)
        rows = rows.reshape(-1, self.d)
        rows.flags.writeable = False
        return rows

    @cached_property
    def _gauss_sum_dft(self):
        """Tables of the DFT route if this family is exactly `mub_family(d)`, odd prime d.

        The family is recognised by its content, so a family document
        labelled MUB-complete with other vectors, a partial or
        rephased copy of the bases, and every other family give None.  It is
        compared with the shared `mub_family(d)`, not with a new copy.  The
        tables are the DFT matrix w^(a m), the chirp w^(a delta^2) indexed
        [a, delta], and the block indices (rows, cols) of the gather that
        `entropies` explains.
        """
        d = self.d
        if d == 2 or self.vectors.shape != (d + 1, d, d) or not _is_prime(d):
            return None
        if not (np.array_equal(self.vectors, mub_family(d).vectors) and np.all(self.scales == 1)):
            return None
        roots = np.exp(2j * np.pi * np.arange(d) / d)
        i = np.arange(d)
        # column delta != 0 puts block (j, j + delta) in row m = 2 j delta, so
        # j = m (2 delta)^-1 mod d; column 0 holds the diagonal blocks (m, m)
        inverse = np.array([pow(2 * x, -1, d) if x else 1 for x in range(d)])
        rows = np.outer(i, inverse) % d
        return roots[np.outer(i, i) % d], roots[np.outer(i, i * i) % d], rows, (rows + i) % d

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "kind": self.kind,
            "settings": [
                [
                    {"weight": float(scale), "re": v.real.tolist(), "im": v.imag.tolist()}
                    for v, scale in zip(vectors.T, scales)
                ]
                for vectors, scales in zip(self.vectors, self.scales)
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MeasurementFamily":
        """Family from `to_json_dict`'s document.

        FormatError if it is malformed, its ``kind`` is not a string or its
        ``d`` is not the length of its vectors.  ``kind`` is read as a free
        label, and an ``equality_constant`` key, which older documents carry,
        is ignored: the constant follows from the scales.
        """
        try:
            settings = doc["settings"]
            scales = np.array([[e["weight"] for e in s] for s in settings], dtype=float)
            vectors = np.array([
                [np.array(e["re"], float) + 1j * np.array(e["im"], float) for e in s]
                for s in settings
            ])
            if vectors.ndim != 3:
                raise ValueError("settings must be non-empty lists of equal length")
            d = exact_int(doc["d"])
            kind = doc["kind"]
            if not isinstance(kind, str):
                raise TypeError(f"kind must be a string, got {kind!r}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"malformed family document: {exc}") from exc
        family = cls(kind, vectors.transpose(0, 2, 1), scales)
        if family.d != d:
            raise FormatError(f"family document has d = {d}, vectors of length {family.d}")
        return family


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, int(n**0.5) + 1))


def mub_family(d: int) -> MeasurementFamily:
    """Complete set of d+1 mutually unbiased bases, prime d only.

    d = 2 uses the three Pauli eigenbases.  For odd prime d the bases are
    the computational basis plus, for each a in 0..d-1, the quadratic
    Gauss-sum basis with k-th vector (1/sqrt(d)) sum_j w^(a j^2 + k j) |j>,
    w = exp(2 pi i / d).

    d must be an int (TypeError otherwise, also for 5.0).  The family for
    each d is built on the first call and kept for the life of the process;
    its vectors take 16 (d+1) d^2 bytes, about 17 MB at d = 101.  A d whose
    vectors numpy could not address is rejected before the primality test.
    """
    return _mub_family(exact_int(d))


def _require_mub_dimension(d: int):
    """UnsupportedDimensionError unless int d has a complete MUB set; builds nothing.

    The address check caps d near 832,000 before the trial division runs.
    """
    _require_addressable((d + 1, d, d), f"a complete MUB set for d = {d}")
    if not _is_prime(d):
        raise UnsupportedDimensionError(
            f"complete MUB sets are only constructed for prime d, got {d}"
        )


@cache
def _mub_family(d: int) -> MeasurementFamily:
    _require_mub_dimension(d)
    if d == 2:
        s = 1.0 / np.sqrt(2)
        bases = np.array([
            np.eye(2, dtype=complex),
            np.array([[s, s], [s, -s]], dtype=complex),
            np.array([[s, s], [1j * s, -1j * s]]),
        ])
    else:
        bases = _gauss_sum_bases(d)
    return MeasurementFamily(MUB_COMPLETE, bases, np.ones((d + 1, d)))


def _gauss_sum_bases(d: int) -> np.ndarray:
    """The computational basis followed by the d Gauss-sum bases of odd prime d.

    Basis a + 1 has k-th column (1/sqrt(d)) sum_j w^(a j^2 + k j) |j>.
    """
    omega = np.exp(2j * np.pi / d)
    a, j, k = np.ogrid[:d, :d, :d]
    bases = np.empty((d + 1, d, d), dtype=complex)
    bases[0] = np.eye(d)
    bases[1:] = omega ** ((a * j * j + k * j) % d) / np.sqrt(d)
    return bases


def _weyl_orbit(fiducial: np.ndarray) -> np.ndarray:
    """Columns X^a Z^b |fiducial> over all a, b (Weyl-Heisenberg orbit)."""
    d = len(fiducial)
    omega = np.exp(2j * np.pi / d)
    cols = []
    for a in range(d):
        shifted = np.roll(fiducial, a)
        for b in range(d):
            cols.append(shifted * omega ** (b * ((np.arange(d) - a) % d)))
    return np.array(cols).T


def sic_povm(d: int) -> MeasurementFamily:
    """SIC-POVM as a single setting of d^2 effects (1/d)|psi_k><psi_k|.

    Fiducials are hard-coded (the Bloch-tetrahedron state for d = 2,
    (0, 1, -1)/sqrt(2) for d = 3) and orbited under the Weyl-Heisenberg
    displacements.  The symmetric-overlap and completeness properties are
    certified by the construction tests, not assumed.  d must be an int
    (TypeError otherwise); each family is built once per process.
    """
    return _sic_povm(exact_int(d))


@cache
def _sic_povm(d: int) -> MeasurementFamily:
    if d == 2:
        theta = np.arccos(1 / np.sqrt(3))
        fid = np.array([np.cos(theta / 2), np.exp(1j * np.pi / 4) * np.sin(theta / 2)])
    elif d == 3:
        fid = np.array([0.0, 1.0, -1.0], dtype=complex) / np.sqrt(2)
    else:
        raise UnsupportedDimensionError(f"SIC fiducials available for d in (2, 3), got {d}")
    return MeasurementFamily(SIC, _weyl_orbit(fid)[None], np.full((1, d * d), 1.0 / d))


def _canonical_phase(u: np.ndarray) -> np.ndarray:
    """Fix the global phase: first entry with magnitude above 0.25 made positive real."""
    flat = u.flatten()
    pivot = flat[np.argmax(np.abs(flat) > 0.25)]
    return u * (pivot.conjugate() / abs(pivot))


def single_qubit_cliffords() -> list:
    """The 24 single-qubit Clifford unitaries, enumerated by closure from H and S.

    Deduplication is up to global phase via canonical phase fixing; the
    returned order is the deterministic breadth-first discovery order.
    """
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)
    seen = {}
    frontier = [np.eye(2, dtype=complex)]
    order = []
    while frontier:
        nxt = []
        for u in frontier:
            cu = _canonical_phase(u)
            key = tuple(np.round(cu.flatten(), 9).tolist())
            if key in seen:
                continue
            seen[key] = cu
            order.append(cu)
            nxt.extend([h @ cu, s @ cu])
        frontier = nxt
    return order


@cache
def clifford_orbit_family() -> MeasurementFamily:
    """Qubit bases {U|0>, U|1>} over the 24 Clifford unitaries, weight 1/24 each."""
    cliffords = np.array(single_qubit_cliffords())
    return MeasurementFamily(CLIFFORD_ORBIT, cliffords, np.ones((len(cliffords), 2)))


def design_defect(family: MeasurementFamily) -> float:
    """Frobenius distance of the weighted second moment from (1 + F)/(d(d+1)).

    The average of |v><v| tensor |v><v| over all pooled effect vectors,
    each weighted by the square of its scale and normalized to the target's
    trace, is compared against the 2-design target; 0 means the family,
    with the weights the measured side gives its effects, generates an
    exact weighted complex projective 2-design.  For d + 1 orthonormal bases
    that is the test that they are mutually unbiased.  Computed once per
    family: its arrays are read-only, so the value cannot go stale, and a
    built-in family is shared, so it is certified once per process.  The
    computation forms only the lower block triangle of the Gram matrix of
    the D x N array of the pooled |v>|v> on the symmetric subspace
    (D = d(d+1)/2, N pooled effect vectors), and never holds that array
    whole (7.9 MB for `mub_family(31)`): it rebuilds two blocks of 96 rows
    at a time from the pooled vectors, about 3 MB there.
    """
    return family._design_defect
