import dataclasses
import inspect
import types

import numpy as np
import pytest
from conftest import max_entangled_state, near_cutoff_tripartite, random_bipartite
from oracles import haar_unitary, joint_statistics, monogamy_lhs_oracle

import entguess
from entguess import (
    DensityMatrix,
    DesignDefectError,
    EPR,
    FormatError,
    HEISENBERG,
    MeasurementFamily,
    ParameterError,
    achiever_state,
    clifford_orbit_family,
    equality_report,
    family_guess_prob,
    guessing_bounds,
    h2nu,
    max_entangled,
    monogamy_report,
    mub_family,
    nbasis_bounds,
    pg_recovery_fidelity,
    pure_states,
    random_density,
    random_separable,
    sic_povm,
    two_to_full_bound,
    witness,
)
from entguess import entropies, relations
from entguess.entropies import JointDistribution


def test_public_names_are_pinned():
    # a change to the package's API has to edit this list on purpose
    public = sorted(
        name
        for name, value in vars(entguess).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert public == [
        "DensityMatrix", "DesignDefectError", "DimensionError", "EPR", "EntguessError",
        "FormatError", "GameResult", "HEISENBERG", "InfiniteDivergence", "JointDistribution",
        "MeasurementFamily", "NotPositiveError", "ParameterError", "RelationReport",
        "UnsupportedDimensionError", "achiever_state", "clifford_orbit_family",
        "design_defect", "equality_report", "family_guess_prob", "guessing_bounds", "h2nu",
        "h2nu_outcomes", "max_entangled", "mixed_rank_states", "monogamy_report", "mub_family",
        "nbasis_bounds", "pg_recovery_fidelity", "pure_states", "random_density",
        "random_separable", "sic_povm", "simulate_game", "two_to_full_bound", "witness",
    ]


def test_kernels_import_from_their_modules():
    # the kernels and the rank cutoff left the top level; each keeps its module
    from entguess.entropies import classical_h2_cond, d0_relative, measure_family
    from entguess.linops import func_on_support, partial_trace
    from entguess.tolerances import RANK_TOL

    for func in (classical_h2_cond, d0_relative, measure_family, func_on_support, partial_trace):
        assert callable(func)
    assert RANK_TOL == 1e-10


def test_no_argument_repeats_what_another_carries():
    # d is read from the arrays it sizes, the equality constant from the scales
    names = {
        MeasurementFamily: ["kind", "vectors", "scales"],
        witness: ["joints", "tolerance"],
        achiever_state: ["mubs", "regime", "which", "n", "mix"],
        random_density: ["dims", "rank", "seed", "stream"],
    }
    for func, expected in names.items():
        assert list(inspect.signature(func).parameters) == expected
    tolerance = inspect.signature(witness).parameters["tolerance"]
    assert tolerance.kind is inspect.Parameter.KEYWORD_ONLY
    with pytest.raises(TypeError):
        witness(ideal_max_entangled_joints(2, 2), 2)


class TestEqualityReport:
    def test_random_state_mub(self):
        rep = equality_report(random_bipartite(3, 2, 5, seed=60), mub_family(3), 0.0)
        assert rep.defect < 1e-9
        assert rep.holds

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_max_entangled_zero_uncertainty(self, d):
        rep = equality_report(max_entangled_state(d), mub_family(d), 0.0)
        assert abs(rep.lhs) < 1e-9
        assert abs(rep.rhs) < 1e-9

    def test_sic_constant(self):
        rho = random_bipartite(2, 2, 3, seed=61)
        rep = equality_report(rho, sic_povm(2), 0.0)
        expected_rhs = np.log2(6) - np.log2(2.0 ** (-h2nu(rho, 0.0)) + 1)
        assert abs(rep.lhs - expected_rhs) < 1e-9
        assert rep.defect < 1e-9

    def test_clifford_orbit(self):
        rep = equality_report(random_bipartite(2, 3, 4, seed=62), clifford_orbit_family(), 0.5)
        assert rep.defect < 1e-9

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
    def test_nu_family(self, nu):
        rep = equality_report(random_bipartite(5, 2, 7, seed=63), mub_family(5), nu)
        assert rep.defect < 1e-9

    def test_trivial_side_information(self):
        # d_B = 1 reduces to the unconditional collision identity
        rep = equality_report(random_bipartite(3, 1, 2, seed=64), mub_family(3), 0.0)
        assert rep.defect < 1e-9

    def test_uncertified_family_rejected(self):
        mubs = mub_family(3)
        partial = MeasurementFamily("Custom", mubs.vectors[:2], mubs.scales[:2])
        with pytest.raises(DesignDefectError):
            equality_report(random_bipartite(3, 2, 5, seed=65), partial, 0.0)


class TestNbasisBounds:
    def test_max_entangled_forces_one(self):
        lo, up = nbasis_bounds(max_entangled_state(5), mub_family(5), 2)
        assert abs(lo.lhs - 1.0) < 1e-9  # lower bound value
        assert abs(up.rhs - 1.0) < 1e-9  # upper bound value
        assert abs(up.lhs - 1.0) < 1e-9  # measured P(2)
        assert lo.holds and up.holds

    def test_complete_set_bounds_coincide(self):
        rho = random_bipartite(5, 3, 6, seed=66)
        lo, up = nbasis_bounds(rho, mub_family(5), 6)
        f = pg_recovery_fidelity(rho)
        pinned = (5 * f + 1) / 6
        assert abs(lo.lhs - pinned) < 1e-12
        assert abs(up.rhs - pinned) < 1e-12
        assert lo.holds and up.holds

    def test_containment_sweep(self):
        mubs = mub_family(5)
        for i in range(40):
            rank = (i % 25) + 1
            rho = random_bipartite(5, 5, rank, seed=67, stream=i)
            for n in range(1, 7):
                lo, up = nbasis_bounds(rho, mubs, n)
                assert lo.holds, (n, lo)
                assert up.holds, (n, up)

    def test_rejects_bad_n(self):
        with pytest.raises(ParameterError):
            nbasis_bounds(max_entangled_state(3), mub_family(3), 5)

    def test_rejects_partial_family(self):
        mubs = mub_family(3)
        partial = MeasurementFamily("Custom", mubs.vectors[:2], mubs.scales[:2])
        with pytest.raises(ParameterError):
            nbasis_bounds(max_entangled_state(3), partial, 1)


def tune_mix_to_fidelity(mubs, regime, which, n, target):
    """Bisection on mix so the achiever hits a requested F^pg."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        f = pg_recovery_fidelity(achiever_state(mubs, regime, which, n, mid))
        if f < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestAchieverStates:
    def test_epr_upper_at_half_fidelity(self):
        d, n = 5, 2
        mubs = mub_family(d)
        mix = tune_mix_to_fidelity(mubs, EPR, "upper", n, 0.5)
        rho = achiever_state(mubs, EPR, "upper", n, mix)
        per, _ = family_guess_prob(rho, mubs)
        f = pg_recovery_fidelity(rho)
        assert abs(f - 0.5) < 1e-9
        assert abs(np.mean(per[:n]) - 0.75) < 1e-9

    def test_heisenberg_upper_pure_marginal(self):
        d = 5
        mubs = mub_family(d)
        rho = achiever_state(mubs, HEISENBERG, "upper", 1, mix=1.0)
        f = pg_recovery_fidelity(rho)
        per, _ = family_guess_prob(rho, mubs)
        assert abs(f - 1 / d) < 1e-9
        assert abs(per[0] - 1.0) < 1e-9

    def test_epr_lower_excluded_basis(self):
        d, n = 5, 5
        mubs = mub_family(d)
        rho = achiever_state(mubs, EPR, "lower", n, mix=0.6)
        f = pg_recovery_fidelity(rho)
        per, _ = family_guess_prob(rho, mubs)
        assert abs(np.mean(per[:n]) - f) < 1e-9

    @pytest.mark.parametrize("regime,which", [
        (EPR, "upper"), (EPR, "lower"), (HEISENBERG, "upper"), (HEISENBERG, "lower"),
    ])
    def test_saturation(self, regime, which):
        d = 5
        mubs = mub_family(d)
        n = 3
        for mix in np.linspace(0.1, 1.0, 5):
            rho = achiever_state(mubs, regime, which, n, float(mix))
            f = pg_recovery_fidelity(rho)
            per, _ = family_guess_prob(rho, mubs)
            p_n = float(np.mean(per[:n]))
            lower, upper = guessing_bounds(f, d, n)
            target = upper if which == "upper" else lower
            assert abs(p_n - target) < 1e-9, (regime, which, mix, p_n, target)

    def test_lower_needs_excluded_basis(self):
        with pytest.raises(ParameterError):
            achiever_state(mub_family(5), EPR, "lower", 6, 0.5)

    def test_rejects_bad_mix(self):
        with pytest.raises(ParameterError):
            achiever_state(mub_family(5), EPR, "upper", 2, 1.5)


class TestTwoToFullBound:
    def test_perfect_two_bases(self):
        for d in (2, 3, 5):
            assert abs(two_to_full_bound(1.0, d) - 1.0) < 1e-12

    def test_qubit_half(self):
        assert abs(two_to_full_bound(0.5, 2) - 1 / 3) < 1e-12

    def test_monotone(self):
        grid = np.linspace(0.2, 1.0, 30)
        vals = [two_to_full_bound(float(p), 5) for p in grid]
        assert np.all(np.diff(vals) >= 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            two_to_full_bound(0.1, 5)

    def test_holds_on_random_states(self):
        mubs = mub_family(3)
        for i in range(20):
            rho = random_bipartite(3, 3, rank=(i % 9) + 1, seed=68, stream=i)
            per, avg = family_guess_prob(rho, mubs)
            p2 = float(np.mean(per[:2]))
            assert avg >= two_to_full_bound(p2, 3) - 1e-9


def ideal_max_entangled_joints(d, n):
    fam = mub_family(d)
    rho = max_entangled_state(d)
    thetas = list(range(n))
    bob = [fam.vectors[t].conj() for t in thetas]
    return joint_statistics(rho, fam, thetas, bob)


class TestWitness:
    def test_fires_on_ideal_statistics(self):
        rep = witness(ideal_max_entangled_joints(2, 2))
        assert abs(rep.lhs - 2.0) < 1e-12
        assert abs(rep.rhs - 1.5) < 1e-12
        assert rep.metadata["entangled"]

    def test_uniform_tables_inconclusive(self):
        d = 3
        table = np.full((d, d), 1 / d**2)
        joints = JointDistribution(d_a=d, d_b=d, settings=tuple((t, table) for t in range(3)))
        rep = witness(joints)
        assert abs(rep.lhs - 3 / d) < 1e-12
        assert not rep.metadata["entangled"]

    @pytest.mark.parametrize("d", [2, 3])
    def test_sound_on_separable_states(self, d):
        fam = mub_family(d)
        fired = 0
        for i in range(40):
            rho = random_separable(d, d, terms=3, seed=69, stream=i)
            n = 2 + (i % d)  # both partial and full sets
            thetas = list(range(n))
            bob = [haar_unitary(d, 70, stream=100 * i + t) for t in thetas]
            rep = witness(joint_statistics(rho, fam, thetas, bob))
            fired += rep.metadata["entangled"]
        assert fired == 0

    def test_rejects_duplicate_labels(self):
        table = np.full((2, 2), 0.25)
        joints = JointDistribution(d_a=2, d_b=2, settings=((0, table), (0, table)))
        with pytest.raises(FormatError):
            witness(joints)

    def test_rejects_label_out_of_range(self):
        table = np.full((2, 2), 0.25)
        joints = JointDistribution(d_a=2, d_b=2, settings=((0, table), (5, table)))
        with pytest.raises(FormatError):
            witness(joints)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: guessing_bounds(0.5, 3, 0), r"^n 0 out of range \[1, 4\]$"),
        (lambda: guessing_bounds(0.5, 3, 5), r"^n 5 out of range \[1, 4\]$"),
        (lambda: achiever_state(sic_povm(3), EPR, "upper", 2, 0.5),
         "^need the complete MUB family on the A system$"),
        (lambda: achiever_state(mub_family(3), EPR, "middle", 2, 0.5),
         "^which must be 'upper' or 'lower', got 'middle'$"),
        (lambda: achiever_state(mub_family(3), "Bell", "upper", 2, 0.5),
         "^regime must be 'Heisenberg' or 'EPR', got 'Bell'$"),
        (lambda: achiever_state(mub_family(3), HEISENBERG, "lower", 2, -0.1),
         r"^mix must lie in \[0, 1\], got -0.1$"),
        (lambda: achiever_state(mub_family(3), EPR, "upper", 0, 0.5),
         r"^n 0 out of range \[1, 4\]$"),
        (lambda: achiever_state(mub_family(3), EPR, "upper", 5, 0.5),
         r"^n 5 out of range \[1, 4\]$"),
        (lambda: two_to_full_bound(1.0, 1), "^d must be >= 2, got 1$"),
        (lambda: monogamy_report(np.full(7, 7**-0.5), (2, 2, 2), mub_family(2)),
         r"^vector length \(7,\) does not match dims \(2, 2, 2\)$"),
        (lambda: monogamy_report(np.full(8, 0.5), (2, 2, 2), mub_family(2)),
         r"^trace \(2\+0j\) differs from 1$"),
        (lambda: monogamy_report(np.full(8, 8**-0.5), (2, 2, 2), sic_povm(2)),
         "^need the complete MUB family on the A system$"),
        (lambda: monogamy_report(np.full(8, 8**-0.5), (2, 2, 2), mub_family(3)),
         "^need the complete MUB family on the A system$"),
    ],
    ids=["bounds-n-0", "bounds-n-d+2", "achiever-sic", "achiever-which", "achiever-regime",
         "achiever-mix", "achiever-n-0", "achiever-n-d+2", "two-to-full-d-1",
         "monogamy-length", "monogamy-norm", "monogamy-sic", "monogamy-other-d"],
)
def test_rejects_bad_argument(call, message):
    with pytest.raises(ParameterError, match=message):
        call()


def mub_set_calls(mubs):
    """The three relations that need a complete MUB set, each called with `mubs`."""
    d = mubs.d
    return [
        lambda: nbasis_bounds(max_entangled_state(d), mubs, 2),
        lambda: achiever_state(mubs, EPR, "upper", 2, 0.5),
        lambda: monogamy_report(pure_states(d * 4, 3, 0, 0), (d, 2, 2), mubs),
    ]


class TestMubSetByContent:
    """A complete MUB set is d + 1 orthonormal bases that pass the design
    certificate, whatever the family's label."""

    @pytest.mark.parametrize("kind", ["Custom", "SIC", ""])
    def test_relabelled_set_gives_the_built_in_results(self, kind):
        mubs = mub_family(3)
        relabelled = MeasurementFamily(kind, mubs.vectors, mubs.scales)
        for built_in, other in zip(mub_set_calls(mubs), mub_set_calls(relabelled)):
            got, expected = other(), built_in()
            if isinstance(expected, DensityMatrix):
                assert np.array_equal(got.matrix, expected.matrix)
            else:
                assert got == expected

    def test_biased_bases_fail_the_certificate(self):
        # four orthonormal bases of C^3, the first twice: not mutually unbiased
        mubs = mub_family(3)
        vectors = np.concatenate([mubs.vectors[:1], mubs.vectors[:3]])
        biased = MeasurementFamily("MUB-complete", vectors, mubs.scales)
        for call in mub_set_calls(biased):
            with pytest.raises(DesignDefectError, match="^family 'MUB-complete' has design defect"):
                call()

    @pytest.mark.parametrize(
        "family",
        [lambda: clifford_orbit_family(), lambda: sic_povm(2),
         lambda: MeasurementFamily("MUB-complete", mub_family(3).vectors[:3], np.ones((3, 3)))],
        ids=["clifford-orbit", "sic", "three-bases"],
    )
    def test_family_of_other_shape_is_rejected(self, family):
        message = "^need the complete MUB family on the A system$"
        for call in mub_set_calls(family()):
            with pytest.raises(ParameterError, match=message):
                call()


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
@pytest.mark.parametrize(
    "vector, message",
    [(np.full(8, 0.5), r"^trace \(2\+0j\) differs from 1$"),
     (np.zeros(8), r"^trace 0j differs from 1$"),
     (np.r_[np.inf, np.zeros(7)], "^matrix deviates from Hermitian by nan$"),
     (np.r_[np.nan, np.full(7, 7**-0.5)], "^matrix deviates from Hermitian by nan$")],
    ids=["unnormalized", "zero", "infinite", "nan"],
)
def test_monogamy_certifies_the_vector_before_either_side(monkeypatch, vector, message, stacked):
    # rho_AB's certificate, whose trace is |psi|^2, is the only check of psi
    def unreachable(*args):
        raise AssertionError("a side was evaluated on a rejected vector")

    monkeypatch.setattr(relations, "d0_relative", unreachable)
    monkeypatch.setattr(entropies, "measure_family", unreachable)
    psi = np.array([pure_states(8, 1, 0)[0], vector]) if stacked else vector
    with pytest.raises(ParameterError, match=message):
        monogamy_report(psi, (2, 2, 2), mub_family(2))


class TestMonogamy:
    def test_product_of_max_entangled_with_eve(self):
        # Phi_AB (x) |e>: Bob guesses perfectly and Eve decouples
        d = 3
        phi = max_entangled(d)
        e = np.zeros(2, dtype=complex)
        e[0] = 1.0
        psi = np.kron(phi, e)
        rep = monogamy_report(psi, (d, d, 2), mub_family(d))
        assert abs(rep.lhs) < 1e-10
        assert abs(rep.rhs) < 1e-10

    def test_pure_alice_with_entangled_bob_eve(self):
        # |a> (x) Phi_BE: Alice is uncorrelated with both
        d_a, d = 3, 4
        a = pure_states(d_a, 1, 71)[0]
        psi = np.kron(a, max_entangled(d))
        rep = monogamy_report(psi, (d_a, d, d), mub_family(d_a))
        assert abs(rep.lhs - np.log2(d_a)) < 1e-10
        assert abs(rep.rhs - np.log2(d_a)) < 1e-10

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (2, 3, 4)])
    def test_random_tripartite(self, dims):
        mubs = mub_family(dims[0])
        for i in range(20):
            psi = pure_states(int(np.prod(dims)), 1, 72, i)[0]
            rep = monogamy_report(psi, dims, mubs)
            assert rep.defect < 1e-8, (dims, i, rep.defect)

    def test_report_serializes(self):
        psi = pure_states(8, 1, 73)[0]
        rep = monogamy_report(psi, (2, 2, 2), mub_family(2))
        doc = dataclasses.asdict(rep)
        assert set(doc) == {"lhs", "rhs", "defect", "tolerance", "verdict", "metadata"}
        assert isinstance(doc["metadata"]["rank_tol_sensitive"], bool)

    def test_flags_eigenvalues_near_rank_cutoff(self):
        # Schmidt weight three decades below rank_tol * lambda_max sits inside
        # the sensitivity window and must be flagged
        lam2 = 3e-10
        psi = np.zeros(8, dtype=complex)
        psi[0] = np.sqrt(1 - lam2)
        psi[7] = np.sqrt(lam2)
        rep = monogamy_report(psi, (2, 2, 2), mub_family(2))
        assert rep.metadata["rank_tol_sensitive"]

    def test_one_decomposition_of_rho_ae(self, monkeypatch):
        # per chunk of k states, whatever k: one stacked validation Cholesky
        # of the (k, 15, 15) rho_AB stack, one stacked eigh of the measured
        # rho_B stack and one of the Gram stack T^dag T of rho_AE = T T^dag,
        # both (k, 3, 3); nothing of rho_AE's size (20 x 20) is decomposed
        calls = []
        for name in ("cholesky", "eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(a, *args, _name=name, _original=original, **kwargs):
                calls.append((_name, np.shape(a)))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        for k in (1, 3, 20):
            calls.clear()
            psi = pure_states(60, k, 75)
            monogamy_report(psi, (5, 3, 4), mub_family(5))
            assert sorted(calls) == [
                ("cholesky", (k, 15, 15)), ("eigh", (k, 3, 3)), ("eigh", (k, 3, 3))
            ]
        calls.clear()
        monogamy_report(pure_states(60, 1, 75)[0], (5, 3, 4), mub_family(5))
        assert sorted(calls) == [("cholesky", (1, 15, 15)), ("eigh", (3, 3)), ("eigh", (3, 3))]

    @pytest.mark.parametrize(
        "dims, states, flagged",
        [
            ((3, 7, 2), lambda: pure_states(42, 10, 76), False),
            ((3, 1, 4), lambda: pure_states(12, 10, 77), False),
            ((2, 2, 2), lambda: [near_cutoff_tripartite()], True),
        ],
        ids=["gram-rank-deficient", "d_b-1", "near-cutoff"],
    )
    def test_lhs_matches_rho_ae_oracle(self, dims, states, flagged):
        # the lhs from the d_B x d_B Gram of the amplitudes against the
        # support projector of the built rho_AE, flag included
        mubs = mub_family(dims[0])
        for psi in states():
            rep = monogamy_report(psi, dims, mubs)
            lhs, flag = monogamy_lhs_oracle(psi, dims)
            assert abs(rep.lhs - lhs) < 1e-12
            assert rep.metadata["rank_tol_sensitive"] == flag == flagged
            if dims[1] > dims[0] * dims[2]:
                # rho_AE has full rank, so Pi_AE = 1 and the exact lhs is 0
                assert abs(rep.lhs) < 1e-12

    def test_clean_spectrum_not_flagged(self):
        psi = pure_states(8, 1, 74)[0]
        rep = monogamy_report(psi, (2, 2, 2), mub_family(2))
        assert not rep.metadata["rank_tol_sensitive"]
