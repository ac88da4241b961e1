"""Independent reference implementations that the tests compare the package against.

Each oracle takes a different route to a quantity the package computes: an
explicit classical-quantum density matrix, an explicitly applied recovery
channel, a support projector from the decomposition of the full rho in
place of its small Gram matrix, the per-setting measure-then-sum loop with
its own contraction and its own decomposition of rho_B for every setting,
the second tensor moment written out as a sum of d^2 x d^2 Kronecker
products, index summations (`np.einsum`) or Kronecker products in place of
the package's matrix products, an inverse-CDF draw by comparing against
every CDF entry, the guessing game with all of its uniforms drawn up front,
the worst cross-basis overlap taken pair by pair, Gaussian draws with their
own keyed Philox generators and one Box-Muller transform per array (the
seeded pure, Ginibre and separable states are built on them), or the
standard library's JSON encoder.  Partial traces, rho_B included, come from a
brute-force index sum, and primes from a sieve.  The state helpers at the
end (`purify`, `schmidt_values`, `haar_unitary`) and the witness
statistics (`joint_statistics`) are used only by tests.
"""

import json
import math

import numpy as np

from entguess import (
    DensityMatrix,
    DimensionError,
    InfiniteDivergence,
    JointDistribution,
    MeasurementFamily,
    ParameterError,
    max_entangled,
)
from entguess.entropies import measure_family
from entguess.game import _game_tables
from entguess.linops import func_on_support
from entguess.tolerances import RANK_TOL, UNIT_NORM_TOL


def ptrace_oracle(m, da, db, keep):
    """Brute-force index-summation partial trace: keep "A" traces out B, "B" traces out A."""
    if keep == "A":
        out = np.zeros((da, da), dtype=complex)
        for i in range(da):
            for j in range(da):
                out[i, j] = sum(m[i * db + b, j * db + b] for b in range(db))
    else:
        out = np.zeros((db, db), dtype=complex)
        for a in range(db):
            for b in range(db):
                out[a, b] = sum(m[i * db + a, i * db + b] for i in range(da))
    return out


def rho_b_oracle(rho: DensityMatrix) -> np.ndarray:
    """rho_B of a single bipartite state, by `ptrace_oracle`."""
    return ptrace_oracle(rho.matrix, rho.d_a, rho.d_b, "B")


def primes_below(n: int) -> set:
    """The primes below n, by the sieve of Eratosthenes."""
    composite = set()
    primes = set()
    for k in range(2, n):
        if k not in composite:
            primes.add(k)
            composite.update(range(k * k, n, k))
    return primes


def cq_state(conds) -> DensityMatrix:
    """Block-diagonal classical-quantum state sum_k |k><k| (x) rho_B^k."""
    m = len(conds)
    d_b = conds[0].shape[0]
    out = np.zeros((m * d_b, m * d_b), dtype=complex)
    for k, c in enumerate(conds):
        out[k * d_b : (k + 1) * d_b, k * d_b : (k + 1) * d_b] = c
    return DensityMatrix(out, (m, d_b))


def cq_embedding(rho: DensityMatrix, family: MeasurementFamily) -> DensityMatrix:
    """Explicit density matrix of the outcome/side-information/setting state.

    Returns sum_theta w_theta sum_k |k><k|_K (x) rho_B^(theta,k) (x)
    |theta><theta| as a bipartite state with dims (outcomes, d_B * settings),
    so generic h2nu on it evaluates H_{2,nu}(K|B,Theta) directly.
    """
    n_th, _, m = family.vectors.shape
    d_b = rho.d_b
    conds = measure_family(rho, family).reshape(n_th, m, d_b, d_b)
    cond_dim = d_b * n_th
    out = np.zeros((m * cond_dim, m * cond_dim), dtype=complex)
    for th in range(n_th):
        for k in range(m):
            rows = k * cond_dim + np.arange(d_b) * n_th + th
            out[np.ix_(rows, rows)] += family.setting_weight * conds[th, k]
    return DensityMatrix(out, (m, cond_dim))


def pg_recovery_fidelity_explicit(rho: DensityMatrix) -> float:
    """F^pg(A|B) by explicitly applying the pretty good recovery channel.

    The channel maps B to a copy A' of A via
    Lambda(Y) = Tr_B[rho_AB (1 (x) S Y S)]^T with S = rho_B^(-1/2) on the
    support; the fidelity of (id (x) Lambda)(rho_AB) with the maximally
    entangled vector is returned.
    """
    d_a, d_b = rho.d_a, rho.d_b
    (inv_sqrt,), _ = func_on_support(rho_b_oracle(rho), (-0.5,))
    m4 = rho.matrix.reshape(d_a, d_b, d_a, d_b)
    # Lambda(Y)[i, j] = sum_{m,x} rho4[j, m, i, x] (S Y S)[x, m], so applying
    # id (x) Lambda to rho itself gives
    # out[(a,i),(c,j)] = sum_{p,q,m,x} rho4[a,p,c,q] rho4[j,m,i,x] S[x,p] S[q,m].
    out = np.einsum("apcq,jmix,xp,qm->aicj", m4, m4, inv_sqrt, inv_sqrt)
    out = out.reshape(d_a * d_a, d_a * d_a)
    phi = max_entangled(d_a)
    return float(np.real(np.vdot(phi, out @ phi)))


def h2nu_einsum_oracle(rho: DensityMatrix, nu: float) -> float:
    """H_{2,nu}(A|B) with rho_nu contracted in one index summation."""
    d_a, d_b = rho.d_a, rho.d_b
    (left, right), _ = func_on_support(rho_b_oracle(rho), (-(1.0 - nu) / 4.0, -(1.0 + nu) / 4.0))
    m4 = rho.matrix.reshape(d_a, d_b, d_a, d_b)
    rho_nu = np.einsum("pb,abcd,dq->apcq", left, m4, right)
    return -np.log2(float(np.real(np.sum(np.abs(rho_nu) ** 2))))


def h2nu_kron_oracle(rho: DensityMatrix, nu: float) -> float:
    """H_{2,nu}(A|B) = -log Tr X^dag X with X = (1 (x) L) rho (1 (x) R) built by np.kron."""
    (left, right), _ = func_on_support(rho_b_oracle(rho), (-(1.0 - nu) / 4.0, -(1.0 + nu) / 4.0))
    eye_a = np.eye(rho.d_a)
    x = np.kron(eye_a, left) @ rho.matrix @ np.kron(eye_a, right)
    return -np.log2(float(np.real(np.trace(x.conj().T @ x))))


def joint_tables_oracle(rho: DensityMatrix, family: MeasurementFamily, thetas, bob_bases):
    """Tables p(k, l) = <L_l| rho_B^(theta,k) |L_l> by index summation, unclipped."""
    conds = measure_family(rho, family).reshape(family.n_settings, -1, rho.d_b, rho.d_b)
    return [
        np.einsum("bl,kbd,dl->kl", np.conj(bob), conds[theta], bob).real
        for theta, bob in zip(thetas, bob_bases)
    ]


def joint_statistics(rho: DensityMatrix, family: MeasurementFamily, thetas, bob_bases):
    """Witness statistics: `joint_tables_oracle`'s tables, clipped at 0, as a JointDistribution."""
    tables = joint_tables_oracle(rho, family, thetas, bob_bases)
    settings = tuple((theta, np.maximum(table, 0.0)) for theta, table in zip(thetas, tables))
    return JointDistribution(d_a=rho.d_a, d_b=rho.d_b, settings=settings)


def categorical_oracle(cdf_rows, u) -> np.ndarray:
    """Inverse-CDF draw: how many entries of row i of cdf_rows are <= u[i]."""
    return (np.asarray(u)[:, None] >= cdf_rows).sum(axis=1)


def game_counts_oracle(rho: DensityMatrix, family: MeasurementFamily, trials, seed, stream=0):
    """Per setting, (trials, wins) of the guessing game drawn in one piece.

    All 3 * trials uniforms come up front from Philox stream (seed, stream): the settings,
    then Alice's outcomes, then Bob's guesses, each inverted by
    `categorical_oracle`.
    """
    outcome_probs, bob_conds, _ = _game_tables(rho, family)
    n, d = outcome_probs.shape
    u_setting, u_alice, u_bob = philox_oracle(seed, stream).random(3 * trials).reshape(3, trials)
    thetas = np.minimum((u_setting * n).astype(np.intp), n - 1)
    ks = np.minimum(categorical_oracle(np.cumsum(outcome_probs, axis=1)[thetas], u_alice), d - 1)
    js = np.minimum(categorical_oracle(np.cumsum(bob_conds, axis=2)[thetas, ks], u_bob), d - 1)
    return [(int(np.sum(thetas == th)), int(np.sum((thetas == th) & (ks == js)))) for th in range(n)]


def pgm_guess_prob(conds) -> float:
    """PGM success probability sum_k Tr[Pi^k rho_B^k], one operator at a time.

    Pi^k = rho_B^(-1/2) rho_B^k rho_B^(-1/2) with rho_B = sum_k rho_B^k.
    """
    (inv_sqrt,), _ = func_on_support(sum(conds), (-0.5,))
    total = 0.0
    for c in conds:
        pgm_op = inv_sqrt @ c @ inv_sqrt
        total += float(np.real(np.trace(pgm_op @ c)))
    return total


def setting_conditionals(rho: DensityMatrix, vectors, scales) -> list:
    """scale_k <v_k| rho |v_k>_A for each effect of one setting, by index summation."""
    d_a, d_b = rho.d_a, rho.d_b
    m4 = rho.matrix.reshape(d_a, d_b, d_a, d_b)
    conds = np.einsum("ak,abcd,ck->kbd", vectors.conj(), m4, vectors)
    return [scale * c for scale, c in zip(scales, conds)]


def h2nu_outcomes_per_setting(
    rho: DensityMatrix, family: MeasurementFamily, nu: float
) -> float:
    """H_{2,nu}(K|B,Theta) with rho_B rebuilt and decomposed for every setting."""
    total = 0.0
    for vectors, scales in zip(family.vectors, family.scales):
        conds = setting_conditionals(rho, vectors, scales)
        rho_b = sum(conds)
        (m1,), _ = func_on_support(rho_b, (-(1.0 - nu) / 2.0,))
        (m2,), _ = func_on_support(rho_b, (-(1.0 + nu) / 2.0,))
        total += family.setting_weight * sum(
            float(np.real(np.trace(c @ m1 @ c @ m2))) for c in conds
        )
    return -np.log2(total)


def d0_relative_oracle(rho, sigma):
    """D_0(rho || sigma) = -log Tr[Pi_rho sigma] with Pi_rho from the n x n decomposition of rho.

    Returns (value, near_cutoff) as `d0_relative` does, for a matrix or a
    stack, and raises InfiniteDivergence at an overlap at or below RANK_TOL.
    """
    (proj,), near_cutoff = func_on_support(rho, (0.0,))
    overlap = np.real(np.trace(proj @ sigma, axis1=-2, axis2=-1))
    orthogonal = (overlap <= RANK_TOL).ravel()
    if orthogonal.any():
        first = overlap.ravel()[orthogonal.argmax()]
        raise InfiniteDivergence(f"supports nearly orthogonal: Tr = {first:.3e}")
    return -np.log2(overlap), near_cutoff


def monogamy_lhs_oracle(psi_abe, dims):
    """The monogamy lhs D_0(rho_AE || 1/d_A (x) rho_E) and its flag, from the built rho_AE."""
    d_a, d_b, d_e = dims
    t = np.asarray(psi_abe).reshape(d_a, d_b, d_e)
    rho_ae = np.einsum("abe,cbf->aecf", t, t.conj()).reshape(d_a * d_e, -1)
    rho_e = np.einsum("abe,abf->ef", t, t.conj())
    return d0_relative_oracle(rho_ae, np.kron(np.eye(d_a) / d_a, rho_e))


def round12_oracle(x):
    """Round floats (recursively through containers) to 12 significant digits."""
    if isinstance(x, bool):
        return x
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(f"{float(x):.12g}")
    if isinstance(x, dict):
        return {k: round12_oracle(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [round12_oracle(v) for v in x]
    return x


def json_text_oracle(doc) -> str:
    """The CLI's JSON text by the standard encoder: rounded, sorted keys, indent 2."""
    return json.dumps(round12_oracle(doc), sort_keys=True, indent=2, allow_nan=False) + "\n"


def swap_operator(d: int) -> np.ndarray:
    """The operator F on a d*d bipartite space with F|i>|j> = |j>|i>."""
    f = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            f[j * d + i, i * d + j] = 1.0
    return f


def moment_oracle(vectors) -> np.ndarray:
    """Uniform second tensor moment of a column-vector set, written out."""
    d, n = vectors.shape
    acc = np.zeros((d * d, d * d), dtype=complex)
    for k in range(n):
        proj = np.outer(vectors[:, k], vectors[:, k].conj())
        acc += np.kron(proj, proj)
    return acc / n


def design_defect_oracle(family: MeasurementFamily) -> float:
    """Frobenius distance of the pooled moment from (1 + F)/(d(d+1)) on the full space."""
    d = family.d
    pooled = np.concatenate(list(family.vectors), axis=1)
    target = (np.eye(d * d) + swap_operator(d)) / (d * (d + 1))
    return float(np.linalg.norm(moment_oracle(pooled) - target))


def unbiasedness_defect(family: MeasurementFamily) -> float:
    """Worst deviation of a cross-basis overlap squared from 1/d, basis pair by basis pair.

    Defined for families whose settings are orthonormal bases; ValueError for
    any other, such as a SIC, which as one setting would have no pair to check.
    """
    if not family.is_basis_family():
        raise ValueError("unbiasedness is defined for basis families only")
    worst = 0.0
    target = 1.0 / family.d
    for i, vi in enumerate(family.vectors):
        for vj in family.vectors[i + 1 :]:
            overlaps = np.abs(vi.conj().T @ vj) ** 2
            worst = max(worst, float(np.abs(overlaps - target).max()))
    return worst


def purify(rho: DensityMatrix) -> np.ndarray:
    """Pure vector on (dim rho) x (numerical rank) whose new-system trace is rho.

    The purifying system is appended as the minor index and has dimension
    equal to the numerical rank, the smallest possible.
    """
    m = rho.matrix
    w, u = np.linalg.eigh((m + m.conj().T) / 2)
    on = np.flatnonzero(w > RANK_TOL * w.max())[::-1]  # descending eigenvalues
    psi = (u[:, on] * np.sqrt(w[on])).ravel()
    return psi / np.linalg.norm(psi)


def schmidt_values(psi: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Squared Schmidt coefficients of a bipartite vector, descending."""
    psi = np.asarray(psi)
    if psi.shape != (d_a * d_b,):
        raise DimensionError(f"vector length {psi.shape} does not match {d_a}x{d_b}")
    if abs(np.linalg.norm(psi) - 1.0) > UNIT_NORM_TOL:
        raise ParameterError("vector is not normalized")
    s = np.linalg.svd(psi.reshape(d_a, d_b), compute_uv=False)
    return s**2


def philox_oracle(seed: int, stream: int) -> np.random.Generator:
    """A new generator on the Philox keyed [seed mod 2^64, stream mod 2^64]."""
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def box_muller_oracle(gen: np.random.Generator, shape) -> np.ndarray:
    """A complex Gaussian array of `shape` from the next uniforms of `gen`.

    An array of n entries takes 2n uniforms: n radius uniforms, then n angle
    uniforms.  Box-Muller pair j gives the normals r_j cos(phi_j) and
    r_j sin(phi_j); the 2n normals in pair order are the n real parts, then
    the n imaginary parts.
    """
    n = math.prod(shape)
    u = gen.random(2 * n)
    r = np.sqrt(-2.0 * np.log(1.0 - u[:n]))
    phi = 2.0 * np.pi * u[n:]
    normals = np.stack([r * np.cos(phi), r * np.sin(phi)], axis=1).ravel()
    return (normals[:n] + 1j * normals[n:]).reshape(shape)


def complex_gaussian_oracle(seed: int, stream: int, shape) -> np.ndarray:
    """The package's complex Gaussian array of Philox stream (seed, stream), drawn here.

    It is `box_muller_oracle` on the stream's first uniforms.
    """
    return box_muller_oracle(philox_oracle(seed, stream), shape)


def ginibre_oracle(g) -> np.ndarray:
    """G G^dag / Tr, in the package's order of operations, so its bits match."""
    m = g @ g.conj().T
    return m / np.trace(m).real


def pure_state_oracle(seed: int, stream: int, d: int) -> np.ndarray:
    """The Haar vector of stream (seed, stream): its Gaussian over its `np.linalg.norm`."""
    v = complex_gaussian_oracle(seed, stream, (d,))
    return v / np.linalg.norm(v)


def separable_oracle(d_a: int, d_b: int, terms: int, seed: int, stream: int = 0) -> np.ndarray:
    """`random_separable`'s matrix, drawn in sequence from one Philox stream.

    The stream gives `terms` exponential weights, normalized, and then for
    each term an A factor and then a B factor, each a Gaussian made into a
    Ginibre state; the mixture is summed term by term.
    """
    gen = philox_oracle(seed, stream)
    weights = -np.log(1.0 - gen.random(terms))
    weights /= weights.sum()
    out = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for p in weights:
        rho_a = ginibre_oracle(box_muller_oracle(gen, (d_a, d_a)))
        rho_b = ginibre_oracle(box_muller_oracle(gen, (d_b, d_b)))
        out += p * np.kron(rho_a, rho_b)
    return out


def haar_unitary(d: int, seed: int, stream: int = 0) -> np.ndarray:
    """Haar-random unitary via phase-fixed QR of a complex Gaussian matrix."""
    g = complex_gaussian_oracle(seed, stream, (d, d))
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph


def gauss_sum_bases_loop(d: int) -> np.ndarray:
    """`mub_family(d)`'s vectors for odd prime d, built one vector at a time."""
    omega = np.exp(2j * np.pi / d)
    j = np.arange(d)
    bases = [np.eye(d, dtype=complex)]
    for a in range(d):
        cols = [omega ** ((a * j * j + k * j) % d) / np.sqrt(d) for k in range(d)]
        bases.append(np.array(cols).T)
    return np.array(bases, dtype=complex)
