"""Measurement families that generate complex projective 2-designs.

Three certified constructions are provided: complete sets of mutually
unbiased bases in prime dimension, SIC-POVMs for d = 2 and 3, and the
computational-basis orbit of the single-qubit Clifford group.  None of the
constructions is trusted: every family can be checked after the fact with
`design_defect` (distance of the pooled second moment from (1+F)/(d(d+1)))
and, for basis families, `unbiasedness_defect`.

A family is a list of measurement settings of equal sampling weight.  Each
setting holds rank-1 effects ``scale * |v><v|``; for an orthonormal-basis
setting the scales are all 1, for a SIC they are 1/d.  Effect vectors are
stored as the COLUMNS of the setting's `vectors` matrix.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    ParameterError,
    UnsupportedDimensionError,
    UnsupportedFamilyError,
)
from .linops import swap_operator
from .tolerances import BASIS_SCALE_TOL, COMPLETENESS_TOL, NORM_TOL

MUB_COMPLETE = "MUB-complete"
SIC = "SIC"
CLIFFORD_ORBIT = "CliffordOrbit"


@dataclass(frozen=True, eq=False)
class Setting:
    """One measurement setting: effects ``scales[k] * |vectors[:, k]><...|``."""

    vectors: np.ndarray
    scales: np.ndarray

    @property
    def n_outcomes(self) -> int:
        return self.vectors.shape[1]

    def is_basis(self) -> bool:
        d, m = self.vectors.shape
        return m == d and np.allclose(self.scales, 1.0, atol=BASIS_SCALE_TOL)


@dataclass(frozen=True, eq=False)
class MeasurementFamily:
    """A weighted collection of rank-1 measurement settings on a d-dim system.

    Settings share a uniform sampling weight 1/len(settings).  Families for
    which the guessing-probability equality holds carry its constant:
    d+1 for complete-MUB and Clifford-orbit families, d(d+1) for SICs,
    None otherwise.
    """

    d: int
    kind: str
    settings: tuple
    equality_constant: float | None = None

    def __post_init__(self):
        if self.kind == MUB_COMPLETE or self.kind == CLIFFORD_ORBIT:
            expected = float(self.d + 1)
        elif self.kind == SIC:
            expected = float(self.d * (self.d + 1))
        else:
            expected = None
        if self.equality_constant != expected:
            raise ParameterError(
                f"kind {self.kind!r} requires equality_constant {expected}"
            )
        for s in self.settings:
            self._check_setting(s)

    def _check_setting(self, s: Setting):
        d, m = s.vectors.shape
        if d != self.d:
            raise DimensionError(f"setting vectors live in dim {d}, family is {self.d}")
        norms = np.linalg.norm(s.vectors, axis=0)
        if np.abs(norms - 1.0).max() > NORM_TOL:
            raise ParameterError("effect vectors must be normalized")
        gram = (s.vectors * s.scales) @ s.vectors.conj().T
        if np.abs(gram - np.eye(self.d)).max() > COMPLETENESS_TOL:
            raise ParameterError("setting effects do not sum to the identity")

    @property
    def n_settings(self) -> int:
        return len(self.settings)

    @property
    def setting_weight(self) -> float:
        return 1.0 / len(self.settings)

    def is_basis_family(self) -> bool:
        return all(s.is_basis() for s in self.settings)

    def pooled_vectors(self) -> np.ndarray:
        """All effect vectors of all settings, as columns."""
        return np.concatenate([s.vectors for s in self.settings], axis=1)

    def subset(self, n: int) -> "MeasurementFamily":
        """First n settings, as an uncertified partial family."""
        if not 1 <= n <= self.n_settings:
            raise ParameterError(f"n {n} out of range [1, {self.n_settings}]")
        return MeasurementFamily(
            d=self.d, kind=f"{self.kind}-subset({n})", settings=self.settings[:n]
        )

    @cached_property
    def _design_defect(self) -> float:
        d = self.d
        pooled = self.pooled_vectors()
        moment = np.zeros((d * d, d * d), dtype=complex)
        for k in range(pooled.shape[1]):
            proj = np.outer(pooled[:, k], pooled[:, k].conj())
            moment += np.kron(proj, proj)
        moment /= pooled.shape[1]
        target = (np.eye(d * d) + swap_operator(d)) / (d * (d + 1))
        return float(np.linalg.norm(moment - target))

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "kind": self.kind,
            "equality_constant": self.equality_constant,
            "settings": [
                [
                    {
                        "weight": float(s.scales[k]),
                        "re": s.vectors[:, k].real.tolist(),
                        "im": s.vectors[:, k].imag.tolist(),
                    }
                    for k in range(s.n_outcomes)
                ]
                for s in self.settings
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MeasurementFamily":
        settings = []
        for eff_list in doc["settings"]:
            vecs = np.array(
                [np.array(e["re"]) + 1j * np.array(e["im"]) for e in eff_list]
            ).T
            scales = np.array([e["weight"] for e in eff_list], dtype=float)
            settings.append(Setting(vectors=vecs, scales=scales))
        return cls(
            d=int(doc["d"]),
            kind=doc["kind"],
            settings=tuple(settings),
            equality_constant=doc.get("equality_constant"),
        )


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, int(n**0.5) + 1))


def _basis_setting(matrix: np.ndarray) -> Setting:
    d = matrix.shape[0]
    return Setting(vectors=np.asarray(matrix, dtype=complex), scales=np.ones(d))


def mub_family(d: int) -> MeasurementFamily:
    """Complete set of d+1 mutually unbiased bases, prime d only.

    d = 2 uses the three Pauli eigenbases.  For odd prime d the bases are
    the computational basis plus, for each a in 0..d-1, the quadratic
    Gauss-sum basis with k-th vector (1/sqrt(d)) sum_j w^(a j^2 + k j) |j>,
    w = exp(2 pi i / d).
    """
    if not _is_prime(d):
        raise UnsupportedDimensionError(
            f"complete MUB sets are only constructed for prime d, got {d}"
        )
    if d == 2:
        s = 1.0 / np.sqrt(2)
        bases = [
            np.eye(2, dtype=complex),
            np.array([[s, s], [s, -s]], dtype=complex),
            np.array([[s, s], [1j * s, -1j * s]]),
        ]
    else:
        omega = np.exp(2j * np.pi / d)
        j = np.arange(d)
        bases = [np.eye(d, dtype=complex)]
        for a in range(d):
            cols = [omega ** ((a * j * j + k * j) % d) / np.sqrt(d) for k in range(d)]
            bases.append(np.array(cols).T)
    return MeasurementFamily(
        d=d,
        kind=MUB_COMPLETE,
        settings=tuple(_basis_setting(b) for b in bases),
        equality_constant=float(d + 1),
    )


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
    certified by the construction tests, not assumed.
    """
    if d == 2:
        theta = np.arccos(1 / np.sqrt(3))
        fid = np.array([np.cos(theta / 2), np.exp(1j * np.pi / 4) * np.sin(theta / 2)])
    elif d == 3:
        fid = np.array([0.0, 1.0, -1.0], dtype=complex) / np.sqrt(2)
    else:
        raise UnsupportedDimensionError(f"SIC fiducials available for d in (2, 3), got {d}")
    vectors = _weyl_orbit(fid)
    setting = Setting(vectors=vectors, scales=np.full(d * d, 1.0 / d))
    return MeasurementFamily(
        d=d, kind=SIC, settings=(setting,), equality_constant=float(d * (d + 1))
    )


def _canonical_phase(u: np.ndarray) -> np.ndarray:
    """Fix the global phase: first entry with magnitude above 0.25 made positive real."""
    flat = u.flatten()
    pivot = flat[np.argmax(np.abs(flat) > 0.25)]
    if abs(pivot) < 1e-12:  # pragma: no cover - unitaries always have a large entry
        pivot = flat[np.argmax(np.abs(flat))]
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


def clifford_orbit_family() -> MeasurementFamily:
    """Qubit bases {U|0>, U|1>} over the 24 Clifford unitaries, weight 1/24 each."""
    cliffords = single_qubit_cliffords()
    return MeasurementFamily(
        d=2,
        kind=CLIFFORD_ORBIT,
        settings=tuple(_basis_setting(u) for u in cliffords),
        equality_constant=3.0,
    )


def design_defect(family: MeasurementFamily) -> float:
    """Frobenius distance of the pooled second moment from (1 + F)/(d(d+1)).

    The uniform average of |v><v| tensor |v><v| over all pooled effect
    vectors is compared against the 2-design target; 0 means the family
    generates an exact complex projective 2-design.  Computed once per family.
    """
    return family._design_defect


def unbiasedness_defect(family: MeasurementFamily) -> float:
    """Worst deviation of cross-basis overlaps-squared from 1/d.

    Only defined for families whose settings are orthonormal bases; SIC
    (or otherwise non-basis) families raise UnsupportedFamilyError.
    """
    if not family.is_basis_family():
        raise UnsupportedFamilyError("unbiasedness is defined for basis families only")
    worst = 0.0
    target = 1.0 / family.d
    for i, si in enumerate(family.settings):
        for sj in family.settings[i + 1 :]:
            overlaps = np.abs(si.vectors.conj().T @ sj.vectors) ** 2
            worst = max(worst, float(np.abs(overlaps - target).max()))
    return worst
