import json

import numpy as np
import pytest
from conftest import basis_family, max_entangled_state, measure_in_basis, random_bipartite
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    complex_gaussian_oracle,
    cq_embedding,
    cq_state,
    d0_relative_oracle,
    ginibre_oracle,
    h2nu_einsum_oracle,
    h2nu_kron_oracle,
    h2nu_outcomes_per_setting,
    haar_unitary,
    joint_statistics,
    pg_recovery_fidelity_explicit,
    pgm_guess_prob,
    rho_b_oracle,
)

from entguess import (
    DensityMatrix,
    DimensionError,
    FormatError,
    InfiniteDivergence,
    JointDistribution,
    MeasurementFamily,
    ParameterError,
    clifford_orbit_family,
    design_defect,
    equality_report,
    family_guess_prob,
    h2nu,
    h2nu_outcomes,
    mixed_rank_states,
    mub_family,
    pg_recovery_fidelity,
    pure_states,
    random_separable,
    sic_povm,
)
from entguess import entropies
from entguess.designs import MUB_COMPLETE
from entguess.entropies import classical_h2_cond, d0_relative, measure_family
from entguess.tolerances import RANK_TOL


class TestH2nu:
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
    def test_max_entangled(self, d, nu):
        assert abs(h2nu(max_entangled_state(d), nu) + np.log2(d)) < 1e-10

    @pytest.mark.parametrize("nu", [0.0, 0.3, 1.0])
    def test_uncorrelated_maximally_mixed_a(self, nu):
        gen = np.random.default_rng(30)
        g = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
        sigma = g @ g.conj().T
        sigma /= np.trace(sigma).real
        rho = DensityMatrix(np.kron(np.eye(4) / 4, sigma), (4, 3))
        assert abs(h2nu(rho, nu) - 2.0) < 1e-10

    def test_pure_state_schmidt_form(self):
        psi = pure_states(12, 1, 31)[0]
        rho = DensityMatrix.from_pure(psi, (3, 4))
        lam = np.linalg.svd(psi.reshape(3, 4), compute_uv=False) ** 2
        assert abs(h2nu(rho, 0.0) + 2 * np.log2(np.sum(np.sqrt(lam)))) < 1e-10

    def test_range(self):
        for i in range(30):
            rho = random_bipartite(3, 2, rank=(i % 6) + 1, seed=32, stream=i)
            val = h2nu(rho, 0.0)
            assert -np.log2(3) - 1e-9 <= val <= np.log2(3) + 1e-9

    def test_continuity_in_nu(self):
        for i in range(10):
            rho = random_bipartite(2, 3, rank=6, seed=33, stream=i)
            nu = 0.25 + 0.5 * (i / 10)
            assert abs(h2nu(rho, nu) - h2nu(rho, nu + 1e-4)) < 1e-2

    def test_perturbation_stability_near_singular(self):
        # smallest Schmidt value six decades below the largest: mixing in
        # 1e-8 of the maximally mixed state moves H_2 by less than 1e-5
        lam = np.array([1 - 2e-6, 1.3e-6, 0.7e-6])
        lam /= lam.sum()
        psi = np.zeros(9, dtype=complex)
        for i in range(3):
            psi[i * 3 + i] = np.sqrt(lam[i])
        rho = DensityMatrix.from_pure(psi, (3, 3))
        pert = DensityMatrix((1 - 1e-8) * rho.matrix + 1e-8 * np.eye(9) / 9, (3, 3))
        assert abs(h2nu(rho, 0.0) - h2nu(pert, 0.0)) < 1e-5

    def test_perturbation_stability_rank_deficient(self):
        rho = random_bipartite(3, 3, rank=2, seed=34)
        pert = DensityMatrix((1 - 1e-8) * rho.matrix + 1e-8 * np.eye(9) / 9, (3, 3))
        assert abs(h2nu(rho, 0.0) - h2nu(pert, 0.0)) < 1e-5

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("rank", ["one", "third", "full"])
    @pytest.mark.parametrize("d_b", [1, 2, 4, 8, 13])
    @pytest.mark.parametrize("d_a", [2, 3, 5, 7, 13, 31])
    def test_matches_einsum_oracle(self, d_a, d_b, rank, nu):
        # h2nu against the np.kron form on every case, and the einsum form
        # against the np.kron form where the unoptimized einsum is cheap
        # (d_A <= 7).  Compared as Tr[rho_nu^dag rho_nu] = 2^-H: H itself is
        # 0 on pure states, where a relative difference means nothing.
        n = d_a * d_b
        r = {"one": 1, "third": max(n // 3, 1), "full": n}[rank]
        rho = random_bipartite(d_a, d_b, r, seed=59, stream=n + r)
        ref = 2.0 ** -h2nu_kron_oracle(rho, nu)
        assert abs(2.0 ** -h2nu(rho, nu) - ref) <= 1e-12 * ref
        if d_a <= 7:
            assert abs(2.0 ** -h2nu_einsum_oracle(rho, nu) - ref) <= 1e-12 * ref

    def test_rejects_bad_nu(self):
        with pytest.raises(ParameterError):
            h2nu(max_entangled_state(2), 1.5)

    def test_rejects_non_bipartite(self):
        from entguess import random_density

        with pytest.raises(DimensionError):
            h2nu(random_density((4,), 2, 0), 0.0)


class TestMeasureInBasis:
    def test_max_entangled_computational(self):
        d = 3
        conds = measure_in_basis(max_entangled_state(d), np.eye(d, dtype=complex))
        for k, c in enumerate(conds):
            expected = np.zeros((d, d))
            expected[k, k] = 1 / d
            assert np.abs(c - expected).max() < 1e-12

    def test_product_state(self):
        gen = np.random.default_rng(35)
        ga = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
        gb = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
        rho_a = ga @ ga.conj().T
        rho_a /= np.trace(rho_a).real
        rho_b = gb @ gb.conj().T
        rho_b /= np.trace(rho_b).real
        rho = DensityMatrix(np.kron(rho_a, rho_b), (2, 3))
        conds = measure_in_basis(rho, np.eye(2, dtype=complex))
        for k, c in enumerate(conds):
            assert np.abs(c - rho_a[k, k].real * rho_b).max() < 1e-12

    def test_trace_bookkeeping(self):
        for i in range(10):
            rho = random_bipartite(3, 2, rank=(i % 6) + 1, seed=36, stream=i)
            basis = haar_unitary(3, 37, stream=i)
            conds = measure_in_basis(rho, basis)
            assert abs(sum(np.trace(c).real for c in conds) - 1.0) < 1e-11

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            measure_in_basis(max_entangled_state(2), np.eye(3))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ParameterError):
            measure_in_basis(max_entangled_state(2), np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestPgmGuessProb:
    # the PGM value of one basis is family_guess_prob's on its one-setting family
    def test_max_entangled_any_basis(self):
        rho = max_entangled_state(3)
        for basis in mub_family(3).vectors:
            _, p = family_guess_prob(rho, basis_family(basis))
            assert abs(p - 1.0) < 1e-10

    def test_trivial_side_information_uniform(self):
        d = 4
        rho = DensityMatrix(np.eye(d) / d, (d, 1))  # 1/d (x) |0><0|
        _, p = family_guess_prob(rho, basis_family(np.eye(d)))
        assert abs(p - 1.0 / d) < 1e-12

    def test_matches_embedded_cq_entropy(self):
        for i in range(10):
            rho = random_bipartite(3, 2, rank=(i % 6) + 1, seed=38, stream=i)
            basis = haar_unitary(3, 39, stream=i)
            conds = measure_in_basis(rho, basis)
            _, p = family_guess_prob(rho, basis_family(basis))
            assert abs(2.0 ** (-h2nu(cq_state(conds), 0.0)) - p) < 1e-10

    def test_floor(self):
        for i in range(20):
            rho = random_bipartite(2, 4, rank=(i % 8) + 1, seed=40, stream=i)
            basis = haar_unitary(2, 41, stream=i)
            _, p = family_guess_prob(rho, basis_family(basis))
            assert p >= 0.5 - 1e-9


class TestFamilyGuessProb:
    def test_max_entangled_wins_everywhere(self):
        per, avg = family_guess_prob(max_entangled_state(5), mub_family(5))
        assert np.abs(np.array(per) - 1.0).max() < 1e-10
        assert abs(avg - 1.0) < 1e-10

    def test_two_qubit_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        _, avg = family_guess_prob(rho, mub_family(2))
        assert abs(avg - 0.5) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_average_is_affine_in_recovery_fidelity(self, d):
        # the averaged guessing probability equals (d F^pg + 1)/(d + 1)
        fam = mub_family(d)
        for i in range(34):
            rho = random_bipartite(d, 2, rank=(i % (2 * d)) + 1, seed=42, stream=i)
            _, avg = family_guess_prob(rho, fam)
            f = pg_recovery_fidelity(rho)
            assert abs(avg - (d * f + 1) / (d + 1)) < 1e-10

    def test_average_is_weighted_mean(self):
        rho = random_bipartite(3, 3, rank=5, seed=43)
        per, avg = family_guess_prob(rho, mub_family(3))
        assert abs(avg - np.mean(per)) < 1e-12


class TestRecoveryFidelity:
    @pytest.mark.parametrize("d", [2, 3])
    def test_max_entangled(self, d):
        assert abs(pg_recovery_fidelity(max_entangled_state(d)) - 1.0) < 1e-10

    @pytest.mark.parametrize("d", [2, 3])
    def test_separable_capped(self, d):
        for i in range(100):
            rho = random_separable(d, d, terms=3, seed=44, stream=i)
            assert pg_recovery_fidelity(rho) <= 1 / d + 1e-9

    def test_routes_agree(self):
        for i in range(20):
            d_a, d_b = (2, 3) if i % 2 else (3, 2)
            rho = random_bipartite(d_a, d_b, rank=(i % 6) + 1, seed=45, stream=i)
            closed = pg_recovery_fidelity(rho)
            explicit = pg_recovery_fidelity_explicit(rho)
            assert abs(closed - explicit) < 1e-9


class TestSandwichLemma:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_guess_prob_dominates_fidelity(self, d):
        # single-basis PGM guessing probability is at least F^pg, for every
        # basis of the complete MUB set
        fam = mub_family(d)
        for i in range(20):
            rho = random_bipartite(d, 2, rank=(i % (2 * d)) + 1, seed=46, stream=i)
            f = pg_recovery_fidelity(rho)
            per, _ = family_guess_prob(rho, fam)
            assert min(per) >= f - 1e-9
            assert min(per) >= 1 / d - 1e-9


class TestCqConsistency:
    def test_embedding_matches_average_guess_prob(self):
        fam = mub_family(3)
        for i in range(6):
            rho = random_bipartite(3, 2, rank=(i % 6) + 1, seed=47, stream=i)
            _, avg = family_guess_prob(rho, fam)
            emb = cq_embedding(rho, fam)
            assert abs(h2nu(emb, 0.0) + np.log2(avg)) < 1e-10

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
    def test_embedding_matches_outcome_entropy(self, nu):
        fam = mub_family(2)
        rho = random_bipartite(2, 3, rank=4, seed=48)
        assert abs(h2nu(cq_embedding(rho, fam), nu) - h2nu_outcomes(rho, fam, nu)) < 1e-10

    def test_ensemble_invariants(self):
        rho = random_bipartite(3, 2, 4, seed=49)
        conds = measure_family(rho, mub_family(3))
        assert conds.shape == (4 * 3, 2, 2)
        for setting in conds.reshape(4, 3, 2, 2):
            assert abs(sum(np.trace(c).real for c in setting) - 1.0) < 1e-11
            assert np.abs(setting.sum(axis=0) - rho_b_oracle(rho)).max() < 1e-12
            for c in setting:
                assert np.linalg.eigvalsh((c + c.conj().T) / 2).min() > -1e-10


FAMILIES = (
    [
        pytest.param(mub_family(d), d_b, id=f"mub{d}x{d_b}")
        for d in (2, 3, 5, 7)
        for d_b in (1, 2, 3, 4)
    ]
    + [pytest.param(sic_povm(d), 2, id=f"sic{d}x2") for d in (2, 3)]
    + [pytest.param(clifford_orbit_family(), 2, id="clifford2x2")]
)


class TestOneMeasuredPath:
    """The single measured path against the per-setting route it replaced."""

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("family,d_b", FAMILIES)
    def test_matches_per_setting_route(self, family, d_b, nu):
        for rho in mixed_rank_states(family.d, d_b, 4, seed=55):
            ref = h2nu_outcomes_per_setting(rho, family, nu)
            assert abs(h2nu_outcomes(rho, family, nu) - ref) < 1e-12

    def test_family_guess_prob_is_pgm_guess_prob(self):
        for i in range(20):
            d_a, d_b = (2, 3, 5, 7)[i % 4], (i % 4) + 1
            rho = random_bipartite(d_a, d_b, rank=(i % (d_a * d_b)) + 1, seed=56, stream=i)
            basis = haar_unitary(d_a, 57, stream=i)
            _, p = family_guess_prob(rho, basis_family(basis))
            assert abs(p - pgm_guess_prob(list(measure_in_basis(rho, basis)))) < 1e-12

    def test_one_decomposition_per_side(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        rho = random_bipartite(5, 3, rank=7, seed=58)
        h2nu_outcomes(rho, mub_family(5), 0.5)
        assert len(calls) == 1
        calls.clear()
        equality_report(rho, mub_family(5), 0.5)
        assert len(calls) == 2


@pytest.fixture
def routes(monkeypatch):
    """Names of the measurement routes measure_family takes, in call order."""
    taken = []
    for name, label in (("_measure", "dense"), ("_measure_gauss_sum", "dft")):

        def spy(*args, _label=label, _original=getattr(entropies, name)):
            taken.append(_label)
            return _original(*args)

        monkeypatch.setattr(entropies, name, spy)
    return taken


def rephased(family: MeasurementFamily, phases) -> MeasurementFamily:
    """The family with a diagonal phase unitary applied to every vector, same kind."""
    vectors = phases[None, :, None] * family.vectors
    return MeasurementFamily(family.kind, vectors, family.scales)


def phase_edited(family: MeasurementFamily) -> MeasurementFamily:
    """The family with one effect vector's global phase changed: same effects, other content."""
    vectors = family.vectors.copy()
    vectors[1, :, 0] *= np.exp(1e-3j)
    return MeasurementFamily(family.kind, vectors, family.scales)


class TestGaussSumRoute:
    """The DFT route of mub_family's odd-prime bases against the dense GEMM route."""

    @pytest.mark.parametrize("d", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
    def test_matches_dense_route(self, d, routes):
        fam = mub_family(d)
        for d_b in (1, 2, 4, 8):
            for rank in (1, d * d_b):
                rho = random_bipartite(d, d_b, rank, seed=95, stream=rank)
                dense = entropies._measure(rho, fam.vectors, fam.scales)
                conds = measure_family(rho, fam)
                assert np.abs(conds - dense.reshape(conds.shape)).max() < 1e-14
        # the direct reference call, then measure_family's own route
        assert routes == ["dense", "dft"] * 8

    def test_rephased_complete_set_takes_dense_route(self, routes):
        # still a certified complete MUB set of kind MUB-complete, but not
        # the constructor's vectors, so the kind alone must not pick the route
        d = 7
        fam = rephased(mub_family(d), np.exp(2j * np.pi * np.arange(d) ** 2 / 11))
        assert fam.kind == MUB_COMPLETE
        assert design_defect(fam) < 1e-11
        rho = random_bipartite(d, 3, rank=9, seed=96)
        for nu in (0.0, 0.5, 1.0):
            assert equality_report(rho, fam, nu).verdict == "holds"
        assert routes == ["dense"] * 3
        routes.clear()
        equality_report(rho, mub_family(d), 0.5)
        assert routes == ["dft"]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: mub_family(2),
            lambda: sic_povm(2),
            lambda: sic_povm(3),
            clifford_orbit_family,
            lambda: MeasurementFamily(
                "Custom", mub_family(5).vectors[:5], mub_family(5).scales[:5]
            ),
            lambda: phase_edited(mub_family(5)),
        ],
        ids=["mub-2", "sic-2", "sic-3", "clifford", "mub-5-subset-5", "mub-5-edited"],
    )
    def test_other_families_take_dense_route(self, make, routes):
        fam = make()
        measure_family(random_bipartite(fam.d, 2, rank=3, seed=97), fam)
        assert routes == ["dense"]

    def test_phase_edited_family_measures_the_same(self, routes):
        rho = random_bipartite(5, 2, rank=3, seed=97)
        edited = measure_family(rho, phase_edited(mub_family(5)))
        assert np.abs(edited - measure_family(rho, mub_family(5))).max() < 1e-14
        assert routes == ["dense", "dft"]

    @pytest.mark.parametrize("d", [3, 13])
    def test_json_roundtrip_gives_same_operators(self, d, routes):
        fam = mub_family(d)
        back = MeasurementFamily.from_json_dict(json.loads(json.dumps(fam.to_json_dict())))
        rho = random_bipartite(d, 3, rank=5, seed=98)
        assert np.array_equal(measure_family(rho, back), measure_family(rho, fam))
        assert routes == ["dft", "dft"]


# every kind of built-in family, at each d_A it ships for up to 5
INVARIANCE_FAMILIES = [
    mub_family(2), mub_family(3), mub_family(5), sic_povm(2), sic_povm(3), clifford_orbit_family()
]


# one of those families, d_B in 1..4 and a rank in 1..d_A d_B (1 + rank_draw mod d_A d_B)
invariance_draws = given(
    family=st.sampled_from(INVARIANCE_FAMILIES),
    d_b=st.integers(1, 4),
    rank_draw=st.integers(0, 19),
    seed=st.integers(0, 2**64 - 1),
)


def turned_pairs(g, u, dims) -> tuple:
    """The state G G^dag / Tr of an n x r matrix G and its copy turned by the
    unitary u, as a dense stack and as a factor stack of those two states."""
    gs = [g, u @ g]
    dense = DensityMatrix(np.array([ginibre_oracle(x) for x in gs]), dims)
    return dense, DensityMatrix.from_factor(gs, dims)


def invariance_bound(rho: DensityMatrix) -> float:
    """How far rounding may move an entropy of rho under a rotation that
    leaves it unchanged: 1e-14 times the condition number of rho_B on its
    support, which the negative powers of rho_B amplify errors by.  Over 200
    seeds of these draws the error stayed below 4e-15 times it."""
    w = np.linalg.eigvalsh(rho_b_oracle(rho))
    w = w[w > RANK_TOL * w.max()]
    return 1e-14 * w.max() / w.min()


class TestInvarianceProperty:
    """Rotations that leave the entropies unchanged, over every family kind,
    d_B in 1..4, every rank, both state forms and nu in {0, 0.5, 1}."""

    @settings(derandomize=True, max_examples=12, deadline=None)
    @invariance_draws
    def test_local_unitary_on_b_leaves_h2nu_unchanged(self, family, d_b, rank_draw, seed):
        dims = (family.d, d_b)
        n = family.d * d_b
        g = complex_gaussian_oracle(seed, 0, (n, 1 + rank_draw % n))
        u = np.kron(np.eye(family.d), haar_unitary(d_b, seed, 1))
        for pair in turned_pairs(g, u, dims):
            bound = invariance_bound(pair[0])
            for nu in (0.0, 0.5, 1.0):
                for before, after in (h2nu(pair, nu), h2nu_outcomes(pair, family, nu)):
                    assert abs(after - before) < bound

    @settings(derandomize=True, max_examples=12, deadline=None)
    @invariance_draws
    def test_rotating_a_with_the_family_leaves_the_equality_unchanged(
        self, family, d_b, rank_draw, seed
    ):
        dims = (family.d, d_b)
        n = family.d * d_b
        g = complex_gaussian_oracle(seed, 0, (n, 1 + rank_draw % n))
        v = haar_unitary(family.d, seed, 1)
        # a rotated 2-design is a 2-design: equality_report certifies it anew
        turned_family = MeasurementFamily(family.kind, v @ family.vectors, family.scales)
        for pair in turned_pairs(g, np.kron(v, np.eye(d_b)), dims):
            bound = invariance_bound(pair[0])
            for nu in (0.0, 0.5, 1.0):
                before = equality_report(pair[0], family, nu)
                after = equality_report(pair[1], turned_family, nu)
                assert abs(after.lhs - before.lhs) < bound
                assert abs(after.rhs - before.rhs) < bound


class TestClassicalH2:
    def test_deterministic_given_l(self):
        table = np.diag([0.3, 0.5, 0.2])
        assert abs(classical_h2_cond(table)) < 1e-12

    def test_uniform_independent(self):
        d = 4
        table = np.full((d, d), 1 / d**2)
        assert abs(classical_h2_cond(table) - np.log2(d)) < 1e-12

    def test_skips_zero_columns(self):
        table = np.array([[0.5, 0.0], [0.5, 0.0]])
        assert abs(classical_h2_cond(table) - 1.0) < 1e-12

    def test_data_processing(self):
        # decohering Bob can only make guessing harder:
        # 2^-H2(K|L) <= 2^-H2(K|B)
        fam = mub_family(3)
        for i in range(25):
            rho = random_bipartite(3, 3, rank=(i % 9) + 1, seed=50, stream=i)
            quantum = family_guess_prob(rho, fam)[0][i % 4]
            bob = haar_unitary(3, 51, stream=i)
            joints = joint_statistics(rho, fam, [i % 4], [bob])
            classical = 2.0 ** (-classical_h2_cond(joints.settings[0][1]))
            assert classical <= quantum + 1e-10


class TestD0Relative:
    # d0_relative takes a factor t of rho = t t^dag and sigma = 1 (x) sigma_E
    # by sigma_E; the oracle decomposes rho itself and reads the whole sigma
    def test_self_distance_zero(self):
        # rho = 1/d_A (x) rho_E is its own sigma, with sigma_E = rho_E / d_A
        d_a = 2
        gen = np.random.default_rng(52)
        g = gen.normal(size=(3, 3)) + 1j * gen.normal(size=(3, 3))
        t_e = g / np.sqrt(np.trace(g @ g.conj().T).real)
        t = np.kron(np.eye(d_a), t_e) / np.sqrt(d_a)
        sigma_e = t_e @ t_e.conj().T / d_a
        value, flag = d0_relative(t, sigma_e)
        assert abs(value) < 1e-12
        rho = t @ t.conj().T
        expected, expected_flag = d0_relative_oracle(rho, np.kron(np.eye(d_a), sigma_e))
        assert abs(value - expected) < 1e-12 and flag == expected_flag

    def test_pure_vs_maximally_mixed(self):
        d_a, d_e = 2, 3
        psi = pure_states(d_a * d_e, 1, 53)[0]
        sigma_e = np.eye(d_e) / (d_a * d_e)
        value, flag = d0_relative(psi[:, None], sigma_e)
        assert abs(value - np.log2(d_a * d_e)) < 1e-12
        expected, expected_flag = d0_relative_oracle(
            np.outer(psi, psi.conj()), np.kron(np.eye(d_a), sigma_e)
        )
        assert abs(value - expected) < 1e-12 and flag == expected_flag

    def test_orthogonal_supports_diverge(self):
        # rho = |00><00| on A (x) E, sigma = 1 (x) |1><1|
        t = np.eye(4)[:, :1]
        sigma_e = np.diag([0.0, 1.0])
        with pytest.raises(InfiniteDivergence) as factor:
            d0_relative(t, sigma_e)
        with pytest.raises(InfiniteDivergence) as oracle:
            d0_relative_oracle(t @ t.T, np.kron(np.eye(2), sigma_e))
        assert str(factor.value) == str(oracle.value)

    def test_rejects_sigma_e_that_does_not_divide_t(self):
        with pytest.raises(DimensionError):
            d0_relative(np.eye(6)[:, :2], np.eye(4) / 4)

    @pytest.mark.parametrize(
        "d_a, d_e, r", [(2, 3, 2), (2, 2, 4), (3, 1, 7)], ids=["tall", "square", "wide"]
    )
    def test_matches_oracle_whatever_the_shape_of_t(self, d_a, d_e, r):
        # a wide t has r - n zero eigenvalues of t^dag t, a tall one n - r of rho
        n = d_a * d_e
        gen = np.random.default_rng(54)
        t = gen.normal(size=(5, n, r)) + 1j * gen.normal(size=(5, n, r))
        t /= np.linalg.norm(t, axis=(1, 2))[:, None, None]
        g = gen.normal(size=(5, d_e, d_e)) + 1j * gen.normal(size=(5, d_e, d_e))
        sigma_e = g @ g.conj().swapaxes(1, 2)
        values, flags = d0_relative(t, sigma_e)
        sigma = np.array([np.kron(np.eye(d_a), one) for one in sigma_e])
        expected, expected_flags = d0_relative_oracle(t @ t.conj().swapaxes(1, 2), sigma)
        assert np.abs(values - expected).max() < 1e-12
        assert np.array_equal(flags, expected_flags)


class TestJointDistribution:
    def test_parses_document(self):
        doc = {"d_a": 2, "d_b": 2,
               "settings": [{"theta": 0, "table": [[0.25, 0.25], [0.25, 0.25]]},
                            {"theta": 1, "table": [[0.5, 0.0], [0.0, 0.5]]}]}
        jd = JointDistribution.from_json_dict(doc)
        assert (jd.d_a, jd.d_b) == (2, 2)
        assert [theta for theta, _ in jd.settings] == [0, 1]
        assert np.array_equal(jd.settings[0][1], np.full((2, 2), 0.25))
        assert np.array_equal(jd.settings[1][1], np.diag([0.5, 0.5]))

    def test_rejects_bad_shape(self):
        with pytest.raises(FormatError):
            JointDistribution(d_a=2, d_b=2, settings=((0, np.full((2, 3), 1 / 6)),))

    def test_rejects_unnormalized(self):
        with pytest.raises(FormatError):
            JointDistribution(d_a=2, d_b=2, settings=((0, np.full((2, 2), 0.3)),))

    @pytest.mark.parametrize("d_a, d_b", [(1, 2), (2, 0)])
    def test_rejects_bad_dimensions(self, d_a, d_b):
        table = np.full((max(d_a, 1), max(d_b, 1)), 1 / (max(d_a, 1) * max(d_b, 1)))
        with pytest.raises(FormatError, match=rf"^bad dimensions \({d_a}, {d_b}\)$"):
            JointDistribution(d_a=d_a, d_b=d_b, settings=((0, table),))

    def test_rejects_negative(self):
        t = np.array([[0.6, 0.5], [-0.1, 0.0]])
        with pytest.raises(FormatError):
            JointDistribution(d_a=2, d_b=2, settings=((0, t),))

    def test_rejects_malformed_document(self):
        with pytest.raises(FormatError):
            JointDistribution.from_json_dict({"d_a": 2, "settings": [{}]})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, value):
        t = np.array([[value, 0.0], [0.0, 0.5]])
        with pytest.raises(FormatError):
            JointDistribution(d_a=2, d_b=2, settings=((0, t),))

    def test_ideal_max_entangled_tables(self):
        fam = mub_family(2)
        rho = max_entangled_state(2)
        bob_bases = [fam.vectors[t].conj() for t in (0, 1)]
        joints = joint_statistics(rho, fam, [0, 1], bob_bases)
        for _, table in joints.settings:
            assert np.abs(table - np.diag([0.5, 0.5])).max() < 1e-12

    @pytest.mark.parametrize("d_b", [1, 2, 3])
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_tables_match_einsum_oracle(self, d, d_b):
        # the witness statistics read measure_family; the Born rule
        # p(k, l) = <v_k w_l| rho |v_k w_l> reads rho itself
        fam = mub_family(d)
        thetas = list(range(fam.n_settings))
        bob_bases = [haar_unitary(d_b, 60, stream=t) for t in thetas]
        for rho in mixed_rank_states(d, d_b, 3, seed=61):
            joints = joint_statistics(rho, fam, thetas, bob_bases)
            m4 = rho.matrix.reshape(d, d_b, d, d_b)
            for (theta, table), bob in zip(joints.settings, bob_bases, strict=True):
                v = fam.vectors[theta]
                born = np.einsum("ak,bl,abcd,ck,dl->kl", v.conj(), bob.conj(), m4, v, bob).real
                assert np.abs(table - np.maximum(born, 0.0)).max() < 1e-14
