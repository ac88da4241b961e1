"""Executable checks of the entanglement/guessing-probability relations.

Every check produces a RelationReport carrying both sides, the defect, and
a verdict at an explicit tolerance.  Equalities use the two-sided defect
|lhs - rhs|; inequalities use the one-sided violation max(0, lhs - rhs) so
that verdicts are monotone in the tolerance.

The relations covered:

* guessing/entanglement equality for certified 2-design families, over the
  whole nu family of collision entropies;
* tight upper/lower bounds on the average guessing probability over the
  first n bases of a complete MUB set, with achiever states that saturate
  each bound in each regime;
* the two-bases-to-all-bases bound;
* the entanglement witness on classical joint statistics (a violation
  certifies a non-separable source);
* the monogamy equation for tripartite pure states, trading Bob's guessing
  power against the Renyi-0 distance of the Alice/Eve marginal from
  uncorrelated.

Certainty/uncertainty consequences at the smooth min-entropy level are
documented inequalities only and have no computational surface here.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .designs import MeasurementFamily, design_defect
from .entropies import (
    classical_h2_cond,
    d0_relative,
    family_guess_prob,
    h2nu,
    h2nu_outcomes,
    JointDistribution,
    pg_recovery_fidelity,
)
from .errors import DesignDefectError, DimensionError, FormatError, ParameterError
from .states import DensityMatrix
from .tolerances import CERTIFICATION_TOL, EQUALITY_TOL, MONOGAMY_TOL, PROB_RANGE_TOL

HEISENBERG = "Heisenberg"
EPR = "EPR"

# The metadata keys of every equality_report and monogamy_report, in sorted
# order: each report's metadata is built from them, and `verify --format csv`
# writes its header from them before the first report exists.
EQUALITY_METADATA = ("d", "d_b", "kind", "nu")
MONOGAMY_METADATA = ("dims", "rank_tol_sensitive")


@dataclass(frozen=True)
class RelationReport:
    """Outcome of checking one relation instance at a given tolerance."""

    lhs: float
    rhs: float
    defect: float
    tolerance: float
    verdict: str  # "holds" or "violated"
    metadata: dict = field(default_factory=dict)

    @staticmethod
    def _judge(lhs, rhs, defect, tolerance, metadata) -> "RelationReport":
        # a negative or NaN tolerance would turn the verdict into noise
        if not 0.0 <= tolerance < np.inf:
            raise ParameterError(f"tolerance must be finite and >= 0, got {tolerance}")
        return RelationReport(
            lhs=float(lhs),
            rhs=float(rhs),
            defect=float(defect),
            tolerance=float(tolerance),
            verdict="holds" if defect <= tolerance else "violated",
            metadata=metadata or {},
        )

    @staticmethod
    def equality(lhs, rhs, tolerance, metadata=None) -> "RelationReport":
        """Report for the claim lhs = rhs; defect is |lhs - rhs|."""
        return RelationReport._judge(lhs, rhs, abs(lhs - rhs), tolerance, metadata)

    @staticmethod
    def upper_bound(lhs, rhs, tolerance, metadata=None) -> "RelationReport":
        """Report for the claim lhs <= rhs; defect is max(0, lhs - rhs)."""
        return RelationReport._judge(lhs, rhs, max(0.0, lhs - rhs), tolerance, metadata)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


def _equalities(lhs, rhs, tolerance, metadata):
    """Equality report per state: one for a single state, a list for a stack.

    lhs and rhs are scalars or arrays over the stack; metadata yields one
    dict per state.
    """
    reports = [
        RelationReport.equality(left, right, tolerance, meta)
        for left, right, meta in zip(np.ravel(lhs), np.ravel(rhs), metadata)
    ]
    return reports if np.ndim(lhs) else reports[0]


def _require_certified(family: MeasurementFamily):
    defect = design_defect(family)
    if defect >= CERTIFICATION_TOL:
        raise DesignDefectError(
            f"family {family.kind!r} has design defect {defect:.3e} >= {CERTIFICATION_TOL}"
        )


def _require_mub_set(mubs: MeasurementFamily, d: int):
    """ParameterError unless `mubs` is d + 1 orthonormal bases of C^d; then certified.

    The shape decides that the family is d + 1 orthonormal bases: the
    family's completeness check already holds the scales of a setting of d
    unit vectors to 1 (see `MeasurementFamily.is_basis_family`).  d + 1
    orthonormal bases form a 2-design if and only if they are mutually
    unbiased (Klappenecker and Roetteler, ISIT 2005), so `_require_certified`
    is the unbiasedness test, and the two are the whole complete-MUB test.
    """
    if mubs.vectors.shape != (d + 1, d, d):
        raise ParameterError("need the complete MUB family on the A system")
    _require_certified(mubs)


def equality_report(
    rho: DensityMatrix,
    family: MeasurementFamily,
    nu: float,
    tolerance: float = EQUALITY_TOL,
) -> RelationReport:
    """Check H_{2,nu}(K|B,Theta) = log c - log(2^(-H_{2,nu}(A|B)) + 1).

    c is the family's equality constant, d(d+1) over the mean squared scale
    per setting: d+1 for families of orthonormal bases (complete MUB sets,
    the Clifford orbit) and d(d+1) for SICs.  The family's `kind` only
    labels the report's metadata.  The two sides go through independent
    code paths: the left measures the state and sums per-setting collision
    terms, the right evaluates the bipartite entropy directly.
    A `DensityMatrix` holding a stack of k states is checked as one batch
    and gives a list of k reports, in stack order.
    """
    _require_certified(family)
    lhs = h2nu_outcomes(rho, family, nu)
    rhs = np.log2(family.equality_constant) - np.log2(2.0 ** (-h2nu(rho, nu)) + 1.0)
    values = (rho.d_a, rho.d_b, family.kind, nu)
    metadata = (dict(zip(EQUALITY_METADATA, values)) for _ in range(np.size(lhs)))
    return _equalities(lhs, rhs, tolerance, metadata)


def guessing_bounds(fpg: float, d: int, n: int):
    """Tight (lower, upper) bounds on the n-basis average guessing probability.

    In the Heisenberg regime (fpg <= 1/d): 1/d and (d/n) fpg + (n-1)/(n d).
    In the EPR regime (fpg > 1/d): fpg and ((n-1)/n) fpg + 1/n.
    At n = d+1 the average is pinned by the equality, so both bounds
    coincide at (d fpg + 1)/(d + 1).
    """
    if not 1 <= n <= d + 1:
        raise ParameterError(f"n {n} out of range [1, {d + 1}]")
    if n == d + 1:
        pinned = (d * fpg + 1.0) / (d + 1.0)
        return pinned, pinned
    lower = max(1.0 / d, fpg)
    if fpg <= 1.0 / d:
        upper = (d / n) * fpg + (n - 1) / (n * d)
    else:
        upper = ((n - 1) / n) * fpg + 1.0 / n
    return lower, upper


def nbasis_bounds(
    rho: DensityMatrix, mubs: MeasurementFamily, n: int, tolerance: float = EQUALITY_TOL
):
    """Check both tight bounds on the average over the first n MUB settings
    for one state (DimensionError for a stack).

    `mubs` must be d + 1 orthonormal bases of C^d (ParameterError
    otherwise) that pass the design certificate, which for such a family
    is the test that they are mutually unbiased (DesignDefectError
    otherwise); its `kind` is not read.  Returns (lower_report,
    upper_report).  The lower report asserts bound <= P(n) with
    lhs = bound, rhs = P(n); the upper report asserts P(n) <= bound with
    lhs = P(n), rhs = bound.
    """
    d = mubs.d
    _require_mub_set(mubs, d)
    if rho._is_stack:
        raise DimensionError("nbasis_bounds checks one state, not a stack")
    fpg = pg_recovery_fidelity(rho)
    lower, upper = guessing_bounds(fpg, d, n)  # rejects n outside [1, d + 1]
    per_setting, _ = family_guess_prob(rho, mubs)
    p_n = float(np.mean(per_setting[:n]))
    regime = HEISENBERG if fpg <= 1.0 / d else EPR
    meta = {"regime": regime, "n": n, "d": d, "fpg": fpg, "p_n": p_n}
    return (
        RelationReport.upper_bound(lower, p_n, tolerance, {**meta, "side": "lower"}),
        RelationReport.upper_bound(p_n, upper, tolerance, {**meta, "side": "upper"}),
    )


def achiever_state(
    mubs: MeasurementFamily, regime: str, which: str, n: int, mix: float
) -> DensityMatrix:
    """A state whose (F^pg, P(n)) point sits exactly on the requested bound.

    EPR-regime achievers are bipartite pure states whose Schmidt basis on A
    is a basis of the complete MUB set: the first setting for the upper
    bound, the last (excluded from the first n) for the lower bound.
    Heisenberg-regime achievers are product states with the A marginal
    diagonal in those same bases.  `mix` in [0, 1] sweeps the spectrum from
    the least entangled point of the regime (mix = 0) to the most
    (mix = 1); lower-bound constructions need n <= d.  `mubs` is checked
    as in `nbasis_bounds`, by its content, not its `kind`.
    """
    d = mubs.d
    _require_mub_set(mubs, d)
    if which not in ("upper", "lower"):
        raise ParameterError(f"which must be 'upper' or 'lower', got {which!r}")
    if regime not in (HEISENBERG, EPR):
        raise ParameterError(f"regime must be {HEISENBERG!r} or {EPR!r}, got {regime!r}")
    if not 0.0 <= mix <= 1.0:
        raise ParameterError(f"mix must lie in [0, 1], got {mix}")
    if which == "upper":
        if not 1 <= n <= d + 1:
            raise ParameterError(f"n {n} out of range [1, {d + 1}]")
        basis = mubs.vectors[0]
    else:
        if not 1 <= n <= d:
            raise ParameterError(
                f"lower-bound achievers need an excluded basis: n {n} must be <= {d}"
            )
        basis = mubs.vectors[d]

    uniform = np.full(d, 1.0 / d)
    point = np.zeros(d)
    point[0] = 1.0
    if regime == EPR:
        # pure state with Schmidt basis `basis`; spectrum from product to
        # maximally entangled sweeps F^pg over [1/d, 1].
        lam = (1.0 - mix) * point + mix * uniform
        psi = (basis * np.sqrt(lam)).ravel()
        return DensityMatrix.from_pure(psi, (d, d))
    # product state with A diagonal in `basis`; spectrum from maximally
    # mixed to pure sweeps F^pg over [1/d^2, 1/d].
    q = (1.0 - mix) * uniform + mix * point
    rho_a = (basis * q) @ basis.conj().T
    return DensityMatrix(np.kron(rho_a, np.eye(d) / d), (d, d))


def two_to_full_bound(p2: float, d: int) -> float:
    """Lower bound on the all-bases guessing probability from the 2-basis one.

    Maps P(2) to (d (2 P(2) - 1) + 1)/(d + 1), a nondecreasing affine
    function that reaches 1 exactly at P(2) = 1.
    """
    if d < 2:
        raise ParameterError(f"d must be >= 2, got {d}")
    if not 1.0 / d - PROB_RANGE_TOL <= p2 <= 1.0 + PROB_RANGE_TOL:
        raise ParameterError(f"p2 {p2} outside [1/{d}, 1]")
    return (d * (2.0 * p2 - 1.0) + 1.0) / (d + 1.0)


def witness(joints: JointDistribution, *, tolerance: float = EQUALITY_TOL) -> RelationReport:
    """Entanglement witness from classical joint statistics.

    Evaluates sum_theta 2^(-H_2(K_theta|L_theta)) against 1 + (n-1)/d_a
    for n settings labeled by distinct MUB indices on A.  A "violated"
    verdict certifies that no separable state can produce the statistics,
    i.e. the source is entangled; "holds" is inconclusive.
    """
    d_a = joints.d_a
    n = len(joints.settings)
    labels = [theta for theta, _ in joints.settings]
    if n < 1 or n > d_a + 1 or len(set(labels)) != n:
        raise FormatError(f"need 1..{d_a + 1} distinct MUB labels, got {labels}")
    if any(not 0 <= theta <= d_a for theta in labels):
        raise FormatError(f"MUB labels must lie in 0..{d_a}, got {labels}")
    lhs = float(
        sum(2.0 ** (-classical_h2_cond(table)) for _, table in joints.settings)
    )
    rhs = 1.0 + (n - 1) / d_a
    meta = {"n": n, "d_a": d_a, "thetas": labels}
    report = RelationReport.upper_bound(lhs, rhs, tolerance, meta)
    # violating the separable bound is the certificate
    return replace(report, metadata={**meta, "entangled": not report.holds})


def monogamy_report(
    psi_abe: np.ndarray,
    dims,
    mubs: MeasurementFamily,
    tolerance: float = MONOGAMY_TOL,
) -> RelationReport:
    """Check the monogamy equation on a tripartite pure state.

    lhs = D_0(rho_AE || 1/d_A (x) rho_E); rhs = log d_A -
    log((d_A+1) 2^(-H') - 1) with H' the nu = 1 entropy of Alice's outcome
    given Bob and the setting, over the complete MUB set.  The two sides
    read the state independently: the lhs reads the amplitudes, arranged as
    the (d_A d_E) x d_B matrix T[(a, e), b] = psi_abe with rho_AE = T T^dag,
    and takes the support of rho_AE from one decomposition of the d_B x d_B
    Gram matrix T^dag T, which has the same nonzero eigenvalues, against
    sigma given by its d_E x d_E factor rho_E / d_A, so no (d_A d_E)-square
    matrix is formed; the rhs measures rho_AB.  The metadata flags
    rank-tolerance sensitivity when rho_AE has eigenvalues within a factor
    10 of the support cutoff, where the support projector (and so the lhs)
    can flip on noise.  `mubs` must be d_A + 1 orthonormal bases of A,
    checked by content as in `nbasis_bounds`, and certified once per family.
    psi must be a unit vector: rho_AB is certified as a `DensityMatrix`
    before either side is evaluated, and its trace is |psi|^2
    (ParameterError otherwise, also for a non-finite entry).
    A stack of k vectors, shape (k, d_A d_B d_E), is checked as one batch
    and gives a list of k reports, in order.
    """
    d_a, d_b, d_e = dims
    _require_mub_set(mubs, d_a)
    psi = np.asarray(psi_abe, dtype=complex)
    if psi.ndim not in (1, 2) or psi.shape[-1] != d_a * d_b * d_e:
        raise ParameterError(f"vector length {psi.shape} does not match dims {dims}")
    lead = psi.shape[:-1]
    t = psi.reshape(*lead, d_a, d_b, d_e)
    rho_ab = np.einsum("...abe,...cde->...abcd", t, t.conj()).reshape(*lead, d_a * d_b, -1)
    rho_ab = DensityMatrix(rho_ab, (d_a, d_b))
    rho_e = np.einsum("...abe,...abf->...ef", t, t.conj())
    # rho_AE = T T^dag with T[(a, e), b] = psi_abe
    t_ae = t.swapaxes(-1, -2).reshape(*lead, d_a * d_e, d_b)

    lhs, sensitive = d0_relative(t_ae, (1.0 / d_a) * rho_e)
    h2p = h2nu_outcomes(rho_ab, mubs, 1.0)
    rhs = np.log2(d_a) - np.log2((d_a + 1) * 2.0 ** (-h2p) - 1.0)
    metadata = (
        dict(zip(MONOGAMY_METADATA, (list(dims), bool(flag)))) for flag in np.ravel(sensitive)
    )
    return _equalities(lhs, rhs, tolerance, metadata)
