"""Collision entropies, pretty good measurement, and post-measurement states.

All logarithms are base 2.  The central quantity is the conditional
collision entropy family, for nu in [0, 1]:

    H_{2,nu}(A|B) = -log Tr[rho_nu^dag rho_nu],
    rho_nu = (1 (x) rho_B^(-(1-nu)/4)) rho_AB (1 (x) rho_B^(-(1+nu)/4)),

with all powers of rho_B taken on its support.  nu = 0 is the conditional
Renyi 2-entropy; nu = 1 is the variant -log Tr[rho_AB^2 (1 (x) rho_B^-1)].

Measuring A goes through one primitive, `measure_family`, which returns
the conditional operators rho_B^k of every effect as one array of shape
(n_effects, d_B, d_B).  A factor state, rho = F F^dag with F of shape
n x r, is measured by one GEMM of every effect vector, scaled by the square
root of its weight, against F: effect k gives the d_B x r matrix X_k and
rho_B^k = X_k X_k^dag, in O(d^3 d_B r) for d + 1 bases.  Of a dense state, a
family whose vectors are exactly the Gauss-sum bases `mub_family` builds
for odd prime d (checked by content, not by its kind) is measured by two
length-d DFT GEMMs over the blocks of rho, in O(d^3 d_B^2); every other
family by one GEMM per setting, in O(d^4 d_B^2), which the tests keep as
the reference.  Everything computed from the measured ensemble, the game's
PGM tables included, reads that array and the powers of the rho_B it sums
to, which one private helper forms, decomposing rho_B once per state.  One
collision kernel serves every ensemble: the term Tr[rho_B^k M1 rho_B^k M2]
of each conditional operator.  At nu = 0 a setting's sum of its terms
is 2^(-H_2) of its classical-quantum state, i.e. the probability of
guessing the outcome with the pretty good measurement
Pi^k = rho_B^(-1/2) rho_B^k rho_B^(-1/2), which `family_guess_prob`
returns per setting; there is no separate PGM routine.

Every input state is a `DensityMatrix`, whose positivity was certified at
construction, not by its spectrum (see `states`): a dense state by a
Cholesky factorisation of rho + EIG_TOL 1, a factor state by one of the
r x r matrix F^dag F + EIG_TOL 1.  `mixed_rank_states` makes a factor state
when its largest rank r has r^2 <= n d_B (n = d_A d_B), where the factor
kernels cost no more than the dense ones; `h2nu` then works with r x r
matrices such as F^dag (1 (x) M) F in place of n x n ones such as
(1 (x) M) rho.  The two sides of the equality stay independent paths,
measure-then-sum against the bipartite formula, and both read F where a
dense state has both read rho.

A `DensityMatrix` holding a stack of k states is evaluated as a batch:
`measure_family`, `h2nu`, `h2nu_outcomes` and `d0_relative` keep the
stack's leading axis in what they return, and decompose every rho_B of the
stack in one stacked ``eigh``.  A single state
is the stack with no leading axis, through the same code.

`d0_relative` takes rho in factor form, rho = t t^dag with t of shape
n x r, and sigma = 1 (x) sigma_E by its d_E x d_E factor sigma_E.  It
finds the support of rho from one r x r decomposition of the Gram matrix
t^dag t, which has rho's nonzero eigenvalues, and contracts sigma_E with
the d_A row blocks of t; the monogamy lhs passes the amplitudes of a
tripartite pure state as t and rho_E / d_A as sigma_E, so its largest
decomposition is d_B x d_B and no (d_A d_E) x (d_A d_E) matrix is formed.

Quantities that need semidefinite optimization are deliberately absent and
only bound the ones computed here: the optimal guessing probability
P_guess and recovery fidelity F(A|B) satisfy P_guess^2 <= P^pg <= P_guess
and F^2 <= F^pg <= F, and the conditional min-entropy obeys
H_min(A|B) <= H_2(A|B).  Smoothed min-entropies are likewise out of scope.
"""

from dataclasses import dataclass

import numpy as np

from .designs import MeasurementFamily
from .errors import DimensionError, FormatError, InfiniteDivergence, ParameterError, exact_int
from .linops import func_on_support, partial_trace
from .states import DensityMatrix
from .tolerances import RANK_TOL, TABLE_NEG_TOL, TABLE_SUM_TOL


def _require_nu(nu: float) -> None:
    if not 0.0 <= nu <= 1.0:
        raise ParameterError(f"nu must lie in [0, 1], got {nu}")


def h2nu(rho: DensityMatrix, nu: float):
    """H_{2,nu}(A|B) of a bipartite state or of each in a stack.

    A dense state takes rho_B from `partial_trace`.  A factor state,
    rho = F F^dag, takes rho_B = sum_a F_a F_a^dag over the d_B x r blocks
    F_a of F, and Tr[rho_nu^dag rho_nu] = Tr[(F^dag (1 (x) M2) F)
    (F^dag (1 (x) M1) F)], with M1 = rho_B^(-(1-nu)/2) and
    M2 = rho_B^(-(1+nu)/2): r x r products in place of n x n ones.
    """
    _require_nu(nu)
    d_a, d_b = rho.d_a, rho.d_b
    if rho.factor is not None:
        f = rho.factor
        lead, r = f.shape[:-2], f.shape[-1]
        blocks = f.reshape(*lead, d_a, d_b, r)
        cols = blocks.swapaxes(-3, -2).reshape(*lead, d_b, d_a * r)
        rho_b = cols @ cols.conj().swapaxes(-1, -2)
        (m1, m2), _ = func_on_support(rho_b, (-(1.0 - nu) / 2.0, -(1.0 + nu) / 2.0))
        f_dag = f.conj().swapaxes(-1, -2)
        # F^dag (1 (x) M) F, r x r, for M = M1 and M2, which are one array at nu = 0
        x = f_dag @ (m1[..., None, :, :] @ blocks).reshape(f.shape)
        y = x if m2 is m1 else f_dag @ (m2[..., None, :, :] @ blocks).reshape(f.shape)
        # Tr[y x] = sum_ij y_ij x_ji = sum_ij conj(x_ij) y_ij, x being Hermitian
        return -np.log2(np.real(np.vecdot(x.reshape(*lead, -1), y.reshape(*lead, -1))))
    rho_b = partial_trace(rho.matrix, d_a, d_b)
    (left, right), _ = func_on_support(rho_b, (-(1.0 - nu) / 4.0, -(1.0 + nu) / 4.0))
    lead = rho.matrix.shape[:-2]
    n = d_a * d_b
    # left acts on the row index b of rho[(a, b), (c, d)], right on the column index d
    rho_nu = left[..., None, :, :] @ rho.matrix.reshape(*lead, d_a, d_b, n)
    rho_nu = (rho_nu.reshape(*lead, n * d_a, d_b) @ right).reshape(*lead, -1)
    return -np.log2(np.real(np.vecdot(rho_nu, rho_nu)))


def _measure(rho: DensityMatrix, vectors: np.ndarray, scales: np.ndarray) -> np.ndarray:
    d_a, d_b = rho.d_a, rho.d_b
    lead = rho.matrix.shape[:-2]
    n_settings, _, n_outcomes = vectors.shape
    # rows (a, c), columns (b, d): rho[(a, b), (c, d)]
    m = rho.matrix.reshape(*lead, d_a, d_b, d_a, d_b).swapaxes(-3, -2)
    m = m.reshape(*lead, d_a * d_a, d_b * d_b)
    out = np.empty((*lead, n_settings, n_outcomes, d_b * d_b), dtype=complex)
    for t in range(n_settings):
        # per effect, scale_k conj(v_k[a]) v_k[c] flattened over (a, c); one
        # setting at a time keeps the temporaries at the size of rho
        effects = vectors[t].conj().T[:, :, None] * (vectors[t] * scales[t]).T[:, None, :]
        np.matmul(effects.reshape(n_outcomes, -1), m, out=out[..., t, :, :])
    return out


def _measure_gauss_sum(rho: DensityMatrix, dft, chirp, rows, cols) -> np.ndarray:
    """`_measure` of `mub_family(d)`, odd prime d, as two DFT GEMMs.

    With r[j, l] the (j, l) block of rho on B and l = j + delta, Gauss-sum
    basis a gives outcome k the operator (1/d) sum_delta w^(k delta)
    w^(a delta^2) T[a, delta], where T[a, delta] = sum_j w^(2 a j delta)
    r[j, j + delta].  For delta != 0, m = 2 j delta runs once over Z_d, so
    T[:, delta] is the DFT over m of the gathered blocks R[m, delta]; T[a, 0]
    is rho_B for every a.  The computational basis reads the blocks r[k, k].
    """
    d, d_b = rho.d_a, rho.d_b
    lead = rho.matrix.shape[:-2]
    r = rho.matrix.reshape(*lead, d, d_b, d, d_b).swapaxes(-3, -2)
    g = r[..., rows, cols, :, :].reshape(*lead, d, d, d_b * d_b)
    out = np.empty((*lead, d + 1, d, d_b * d_b), dtype=complex)
    out[..., 0, :, :] = g[..., 0, :]
    g[..., 0, 0, :] = g[..., 0, :].sum(axis=-2)
    g[..., 1:, 0, :] = 0.0
    t = (dft @ g.reshape(*lead, d, -1)).reshape(*lead, d, d, -1)
    t *= chirp[:, :, None]
    np.matmul(dft, t, out=out[..., 1:, :, :])
    # scaling the float view by 1/d gives the values of complex division by d
    # (up to the sign of zero); dividing the float view would not
    out[..., 1:, :, :].view(float)[...] *= 1.0 / d
    return out


def _measure_factor(rho: DensityMatrix, rows: np.ndarray) -> np.ndarray:
    """`_measure` of a factor state rho = F F^dag, as one GEMM against F.

    rows is the family's `_effect_rows`: effect k gives X_k = sqrt(scale_k)
    (<v_k| (x) 1) F, a d_B x r matrix, and the operator X_k X_k^dag.
    """
    d_a, d_b = rho.d_a, rho.d_b
    f = rho.factor
    lead, r = f.shape[:-2], f.shape[-1]
    x = (rows @ f.reshape(*lead, d_a, d_b * r)).reshape(*lead, -1, d_b, r)
    return x @ x.conj().swapaxes(-1, -2)


def measure_family(rho: DensityMatrix, family: MeasurementFamily) -> np.ndarray:
    """Conditional operators rho_B^k = scale_k <v_k| rho |v_k>_A of every effect.

    Returns an array of shape (n_settings * n_outcomes, d_B, d_B), setting
    major, after the leading axis of a stack of states.  The rows of each
    setting sum to rho_B, and their traces are the setting's outcome
    probabilities.  A factor state is measured by one GEMM against its
    factor, whatever the family; of a dense state, the bases `mub_family`
    builds for odd prime d are measured by the DFT route, every other family
    by one GEMM per setting.
    """
    if family.d != rho.d_a:
        raise DimensionError(f"family acts on dim {family.d}, state has d_A = {rho.d_a}")
    if rho.factor is not None:
        return _measure_factor(rho, family._effect_rows)
    tables = family._gauss_sum_dft
    if tables is None:
        out = _measure(rho, family.vectors, family.scales)
    else:
        out = _measure_gauss_sum(rho, *tables)
    return out.reshape(*rho.matrix.shape[:-2], -1, rho.d_b, rho.d_b)


def _measured_ensemble(rho: DensityMatrix, family: MeasurementFamily, exponents):
    """The conditional operators of every effect and the powers of the rho_B they sum to.

    rho_B is the setting-weighted sum of the measured operators, not the
    partial trace the bipartite side uses; every complete setting sums to
    it.  Returns `measure_family`'s array and `func_on_support`'s powers of
    rho_B, one per exponent, for a state or per state of a stack.  This is
    the package's one place that forms the measured rho_B, for the entropies
    here and for the game's PGM tables.
    """
    conds = measure_family(rho, family)
    powers, _ = func_on_support(family.setting_weight * conds.sum(axis=-3), exponents)
    return conds, powers


def _measured_collisions(rho: DensityMatrix, family: MeasurementFamily, nu: float) -> np.ndarray:
    """Collision term Tr[c M1 c M2] of every conditional operator c of the family.

    M1 = rho_B^(-(1-nu)/2) and M2 = rho_B^(-(1+nu)/2) come from one
    decomposition of the measured rho_B; each is applied to all K operators
    of its ensemble by one (K b, b) x (b, b) GEMM, made once at nu = 0,
    where M1 = M2.
    """
    _require_nu(nu)
    conds, (m1, m2) = _measured_ensemble(rho, family, (-(1.0 - nu) / 2.0, -(1.0 + nu) / 2.0))
    *lead, k, b, _ = conds.shape
    rows = conds.reshape(*lead, k * b, b)
    x = (rows @ m1).reshape(conds.shape)
    y = x if m2 is m1 else (rows @ m2).reshape(conds.shape)
    return np.real(np.einsum("...kij,...kji->...k", x, y))


def family_guess_prob(rho: DensityMatrix, family: MeasurementFamily):
    """Per-setting PGM guessing probabilities and their weighted average.

    For a stack of states both keep the stack's leading axis: a list per
    state of per-setting lists, and a list of averages.
    """
    terms = _measured_collisions(rho, family, 0.0)
    per_setting = terms.reshape(*terms.shape[:-1], family.n_settings, -1).sum(axis=-1)
    average = family.setting_weight * per_setting.sum(axis=-1)
    return per_setting.tolist(), average.tolist()


def h2nu_outcomes(rho: DensityMatrix, family: MeasurementFamily, nu: float):
    """H_{2,nu} of the measurement outcome given side information and setting.

    This is the entropy of the classical-quantum post-measurement state in
    which the outcome register K is conditioned on both B and the setting
    label: -log sum_theta w_theta sum_k Tr[rho_B^(theta,k) M1 rho_B^(theta,k) M2],
    for a state or for each state of a stack.
    """
    terms = _measured_collisions(rho, family, nu)
    return -np.log2(family.setting_weight * terms.sum(axis=-1))


def pg_recovery_fidelity(rho: DensityMatrix):
    """Pretty good recovery fidelity F^pg(A|B) = 2^(-H_2(A|B)) / d_A, of a
    state or of each state of a stack."""
    return 2.0 ** (-h2nu(rho, 0.0)) / rho.d_a


def classical_h2_cond(table: np.ndarray) -> float:
    """Classical conditional collision entropy H_2(K|L) of a joint table.

    table[k, l] = p(k, l); returns -log sum_l p(l) sum_k p(k|l)^2, with
    zero-probability columns skipped.
    """
    table = np.asarray(table, dtype=float)
    col = table.sum(axis=0)
    mask = col > 0
    coll = float(np.sum(table[:, mask] ** 2 / col[mask]))
    return -np.log2(coll)


def d0_relative(t: np.ndarray, sigma_e: np.ndarray):
    """Renyi-0 relative entropy D_0(rho || sigma) = -log Tr[Pi_rho sigma] of
    rho = t t^dag and sigma = 1 (x) sigma_E.

    t is an n x r factor of rho, its rows indexed (a, e) with a major, and
    sigma_E is d_E x d_E, so the identity factor has d_A = n / d_E.  The
    support projector of rho is Pi_rho = t G^+ t^dag with G = t^dag t, whose
    nonzero spectrum is rho's, so Tr[Pi_rho sigma] = Tr[(t^dag sigma t) G^+]
    takes one r x r decomposition and none of size n.  t^dag sigma is formed
    from the d_A row blocks t_a of t, as the blocks t_a^dag sigma_E, and
    sigma itself never is.  Returns (value, near_cutoff), where near_cutoff
    is func_on_support's flag for an eigenvalue of G within a factor 10 of
    the rank cutoff; for stacks of t and sigma_E both are per pair.  An
    overlap at or below RANK_TOL counts as orthogonal supports and raises
    InfiniteDivergence, naming the first such pair.
    """
    *lead, n, r = t.shape
    d_e = sigma_e.shape[-1]
    if n % d_e:
        raise DimensionError(f"sigma_E of dim {d_e} does not divide t's {n} rows")
    t_dag = t.conj().swapaxes(-1, -2)
    (g_pinv,), near_cutoff = func_on_support(t_dag @ t, (-1.0,))
    # row (i, a) of the reshaped t^dag is t_a^dag's row i
    t_dag_sigma = (t_dag.reshape(*lead, r * (n // d_e), d_e) @ sigma_e).reshape(t_dag.shape)
    overlap = np.real(np.trace(t_dag_sigma @ t @ g_pinv, axis1=-2, axis2=-1))
    orthogonal = (overlap <= RANK_TOL).ravel()
    if orthogonal.any():
        first = overlap.ravel()[orthogonal.argmax()]
        raise InfiniteDivergence(f"supports nearly orthogonal: Tr = {first:.3e}")
    return -np.log2(overlap), near_cutoff


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint outcome tables of paired measurements, one per setting.

    Each entry of `settings` is (theta, table) where theta indexes the basis
    measured on A inside some complete MUB set and table[k, l] = p(k, l).
    """

    d_a: int
    d_b: int
    settings: tuple

    def __post_init__(self):
        if self.d_a < 2 or self.d_b < 1:
            raise FormatError(f"bad dimensions ({self.d_a}, {self.d_b})")
        for i, (theta, table) in enumerate(self.settings):
            t = np.asarray(table, dtype=float)
            if t.shape != (self.d_a, self.d_b):
                raise FormatError(
                    f"settings[{i}].table has shape {t.shape}, "
                    f"expected ({self.d_a}, {self.d_b})"
                )
            # written so that a NaN or infinite entry fails a check
            if not t.min() >= -TABLE_NEG_TOL:
                raise FormatError(f"settings[{i}].table has negative or NaN entries")
            if not abs(t.sum() - 1.0) <= TABLE_SUM_TOL:
                raise FormatError(f"settings[{i}].table sums to {t.sum()}, not 1")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "JointDistribution":
        try:
            settings = tuple(
                (exact_int(s["theta"]), np.array(s["table"], dtype=float))
                for s in doc["settings"]
            )
            return cls(d_a=exact_int(doc["d_a"]), d_b=exact_int(doc["d_b"]), settings=settings)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"malformed joint-distribution document: {exc}") from exc
