import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    design_defect_oracle,
    gauss_sum_bases_loop,
    moment_oracle,
    swap_operator,
    unbiasedness_defect,
)

from entguess import (
    DimensionError,
    FormatError,
    MeasurementFamily,
    ParameterError,
    UnsupportedDimensionError,
    clifford_orbit_family,
    design_defect,
    designs,
    mub_family,
    sic_povm,
)


# certified designs plus two partial MUB sets, which are not designs
ORACLE_FAMILIES = {
    **{f"mub-{d}": (lambda d=d: mub_family(d)) for d in (2, 3, 5, 7, 11)},
    "sic-2": lambda: sic_povm(2),
    "sic-3": lambda: sic_povm(3),
    "clifford": clifford_orbit_family,
    "mub-5-subset-3": lambda: MeasurementFamily(
        "Custom", mub_family(5).vectors[:3], mub_family(5).scales[:3]
    ),
    "mub-7-subset-7": lambda: MeasurementFamily(
        "Custom", mub_family(7).vectors[:7], mub_family(7).scales[:7]
    ),
}


def certificate_peak(d):
    """tracemalloc peak of certifying a new `Custom` copy of `mub_family(d)`,
    which takes the generic route of a family file."""
    mubs = mub_family(d)
    fam = MeasurementFamily("Custom", mubs.vectors, mubs.scales)
    tracemalloc.start()
    try:
        design_defect(fam)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def same_up_to_phase(u, v, tol=1e-9):
    inner = np.trace(u.conj().T @ v)
    return abs(abs(inner) - 2.0) < tol  # |Tr(U^dag V)| = d iff V = phase * U


class TestMubFamily:
    def test_qubit_pauli_bases(self):
        fam = mub_family(2)
        assert fam.n_settings == 3
        z, x, y = fam.vectors
        assert np.abs(z - np.eye(2)).max() < 1e-15
        s = 1 / np.sqrt(2)
        assert np.abs(np.abs(x) - s).max() < 1e-15
        assert np.abs(np.abs(y) - s).max() < 1e-15
        # every cross-basis overlap squared is exactly 1/2
        assert unbiasedness_defect(fam) < 1e-15

    def test_d5_complete_design(self):
        fam = mub_family(5)
        assert fam.n_settings == 6
        assert design_defect(fam) < 1e-11

    @pytest.mark.parametrize("d", [1, 4, 6, 9])
    def test_rejects_non_prime(self, d):
        with pytest.raises(UnsupportedDimensionError):
            mub_family(d)

    def test_unaddressable_d_rejected_before_primality(self, monkeypatch):
        def trial_division(n):
            raise AssertionError("the primality test ran")

        monkeypatch.setattr(designs, "_is_prime", trial_division)
        with pytest.raises(UnsupportedDimensionError, match="numpy can address"):
            mub_family(2**61 - 1)

    def test_unbiasedness_d7(self):
        assert unbiasedness_defect(mub_family(7)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
    def test_pooled_two_design(self, d):
        assert design_defect(mub_family(d)) < 1e-11

    @pytest.mark.parametrize("d", [13, 17, 19, 23, 29, 31, 37])
    def test_large_prime_certified(self, d):
        fam = mub_family(d)
        assert design_defect(fam) < 1e-11
        assert unbiasedness_defect(fam) < 1e-11

    def test_equality_constant(self):
        assert mub_family(3).equality_constant == 4.0

    @pytest.mark.parametrize("d", [3, 7, 31, 37])
    def test_gauss_sum_bases_bit_identical_to_loop(self, d):
        vectors = mub_family(d).vectors
        reference = gauss_sum_bases_loop(d)
        assert vectors.shape == reference.shape
        assert vectors.tobytes() == reference.tobytes()


class TestSicPovm:
    def test_qubit_tetrahedron(self):
        fam = sic_povm(2)
        assert fam.vectors.shape == (1, 2, 4)
        (v,) = fam.vectors
        for j in range(4):
            for k in range(j + 1, 4):
                assert abs(abs(np.vdot(v[:, j], v[:, k])) ** 2 - 1 / 3) < 1e-10

    def test_qubit_completeness(self):
        fam = sic_povm(2)
        (v,), (scales,) = fam.vectors, fam.scales
        total = (v * scales) @ v.conj().T
        assert np.abs(total - np.eye(2)).max() < 1e-11

    def test_qutrit_overlaps(self):
        (v,) = sic_povm(3).vectors
        for j in range(9):
            for k in range(j + 1, 9):
                assert abs(abs(np.vdot(v[:, j], v[:, k])) ** 2 - 1 / 4) < 1e-10

    def test_qutrit_two_design_identity(self):
        d = 3
        (v,) = sic_povm(d).vectors
        moment = moment_oracle(v)
        target = (np.eye(d * d) + swap_operator(d)) / (d * (d + 1))
        assert np.abs(moment - target).max() < 1e-10

    def test_rejects_unsupported(self):
        with pytest.raises(UnsupportedDimensionError):
            sic_povm(5)

    def test_equality_constant(self):
        assert sic_povm(3).equality_constant == 12.0


class TestCliffordOrbit:
    def test_group_size(self):
        fam = clifford_orbit_family()
        assert fam.n_settings == 24

    def test_group_closure(self):
        from entguess.designs import single_qubit_cliffords

        group = single_qubit_cliffords()
        for u in group:
            for v in group:
                w = u @ v
                assert any(same_up_to_phase(w, g) for g in group)

    def test_orbit_of_zero_is_octahedron(self):
        fam = clifford_orbit_family()
        zero_images = fam.vectors[:, :, 0]
        # dedupe up to phase via the rank-1 projectors
        buckets = []
        for v in zero_images:
            proj = np.outer(v, v.conj())
            for rep, count in buckets:
                if np.abs(proj - rep).max() < 1e-9:
                    count[0] += 1
                    break
            else:
                buckets.append((proj, [1]))
        assert len(buckets) == 6
        assert all(count[0] == 4 for _, count in buckets)

    def test_two_design(self):
        assert design_defect(clifford_orbit_family()) < 1e-11


class TestDesignDefect:
    def test_mub3(self):
        assert design_defect(mub_family(3)) < 1e-11

    def test_single_basis_defect_value(self):
        fam = MeasurementFamily(
            kind="Custom", vectors=np.eye(2, dtype=complex)[None], scales=np.ones((1, 2))
        )
        # exact distance of one basis's moment from the 2-design target
        assert abs(design_defect(fam) - np.sqrt(1 / 6)) < 1e-12

    def test_sic2(self):
        assert design_defect(sic_povm(2)) < 1e-11

    @pytest.mark.parametrize("name", ORACLE_FAMILIES)
    def test_matches_moment_oracle(self, name):
        fam = ORACLE_FAMILIES[name]()
        assert abs(design_defect(fam) - design_defect_oracle(fam)) < 1e-14

    @pytest.mark.parametrize("blocks", ["1", "third", "partial"], ids=lambda b: f"block-{b}")
    @pytest.mark.parametrize("name", ORACLE_FAMILIES)
    def test_row_blocks_match_moment_oracle(self, monkeypatch, name, blocks):
        fam = ORACLE_FAMILIES[name]()
        rows = fam.d * (fam.d + 1) // 2
        if blocks == "partial":
            # two blocks, the second shorter: a short diagonal block and a
            # rectangular one below the first
            block = rows // 2 + 1
            assert rows % block
        else:
            block = max(1, rows // 3) if blocks == "third" else 1
            assert -(-rows // block) >= 3
        monkeypatch.setattr(designs, "_DEFECT_BLOCK", block)
        # a new family, because the built-in ones keep the defect they computed first
        fresh = dataclasses.replace(fam)
        assert abs(design_defect(fresh) - design_defect_oracle(fam)) < 1e-14

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        d=st.integers(2, 6),
        n_settings=st.integers(1, 8),
        block=st.integers(1, 25),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_bases_match_moment_oracle(self, d, n_settings, block, seed):
        # each setting is the orthonormal basis of a QR factor of a Ginibre matrix
        gen = np.random.default_rng(seed)
        g = gen.normal(size=(n_settings, d, d)) + 1j * gen.normal(size=(n_settings, d, d))
        fam = MeasurementFamily("Custom", np.linalg.qr(g)[0], np.ones((n_settings, d)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(designs, "_DEFECT_BLOCK", block)
            assert abs(design_defect(fam) - design_defect_oracle(fam)) < 1e-14

    def test_working_memory_at_d31(self):
        # two 96-row blocks of the 496 x 992 symmetric-subspace array and the
        # pooled vectors take 3.8 MB; holding the whole array, 7.9 MB, took 10.3 MB
        peak = certificate_peak(31)
        assert peak <= 4.5e6, peak

    def test_working_memory_at_d37(self):
        # 5.4 MB for two 96-row blocks of the 703 x 1406 array, against
        # 19.5 MB while the whole array (15.8 MB) was held
        peak = certificate_peak(37)
        assert peak <= 6.5e6, peak

    def test_family_is_frozen_and_defect_memoized(self):
        fam = mub_family(3)
        first = design_defect(fam)
        assert design_defect(fam) is first
        with pytest.raises(dataclasses.FrozenInstanceError):
            fam.vectors = fam.vectors[:2]


BUILT_IN_FAMILIES = {"mub-7": lambda: mub_family(7), "sic-2": lambda: sic_povm(2),
                     "clifford": clifford_orbit_family}


class TestReadOnlyFamilies:
    @pytest.mark.parametrize("field", ["vectors", "scales"])
    @pytest.mark.parametrize("name", BUILT_IN_FAMILIES)
    def test_built_in_arrays_reject_writes(self, name, field):
        array = getattr(BUILT_IN_FAMILIES[name](), field)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[-1]

    @pytest.mark.parametrize("name", BUILT_IN_FAMILIES)
    def test_built_in_constructors_share_one_family(self, name):
        assert BUILT_IN_FAMILIES[name]() is BUILT_IN_FAMILIES[name]()

    @pytest.mark.parametrize("int_first", [False, True], ids=["alone", "after-int"])
    @pytest.mark.parametrize("build,d", [(mub_family, 5), (sic_povm, 2)], ids=["mub", "sic"])
    def test_non_int_dimension_rejected_whatever_the_call_order(self, build, d, int_first):
        if int_first:
            build(d)
        for bad in (float(d), True):
            with pytest.raises(TypeError, match="is not an integer"):
                build(bad)

    def test_certified_family_cannot_be_spoiled(self):
        fam = mub_family(5)
        defect = design_defect(fam)
        with pytest.raises(ValueError, match="read-only"):
            fam.vectors[1:] = fam.vectors[0]
        assert design_defect(fam) == defect < 1e-11
        assert np.array_equal(fam.vectors, gauss_sum_bases_loop(5))

    def test_callers_arrays_stay_writable_and_apart(self):
        vectors, scales = np.array(mub_family(5).vectors), np.ones((6, 5))
        fam = MeasurementFamily("Custom", vectors, scales)
        defect = design_defect(fam)
        vectors[1:] = vectors[0]
        scales[0] = 2.0
        assert np.array_equal(fam.vectors, mub_family(5).vectors)
        assert np.all(fam.scales == 1.0)
        assert design_defect(fam) == defect < 1e-11
        # the write itself took: a family built from the written array is no design
        assert design_defect(MeasurementFamily("Custom", vectors, np.ones((6, 5)))) > 0.3


class TestUnbiasednessDefect:
    def test_duplicate_basis_worst_case(self):
        twice = np.array([np.eye(3), np.eye(3)], dtype=complex)
        fam = MeasurementFamily(kind="Custom", vectors=twice, scales=np.ones((2, 3)))
        assert abs(unbiasedness_defect(fam) - (1 - 1 / 3)) < 1e-12

    def test_rejects_sic(self):
        with pytest.raises(ValueError):
            unbiasedness_defect(sic_povm(2))


class TestFamilyStructure:
    def test_d_and_constant_follow_from_arrays_and_kind(self):
        vectors, scales = mub_family(2).vectors, mub_family(2).scales
        for kind, constant in (("MUB-complete", 3.0), ("CliffordOrbit", 3.0), ("SIC", 6.0)):
            fam = MeasurementFamily(kind, vectors, scales)
            assert (fam.d, fam.equality_constant) == (2, constant)
        assert MeasurementFamily("Custom", vectors, scales).equality_constant is None

    @pytest.mark.parametrize(
        "kind,constant",
        [("MUB-complete", 7.0), ("MUB-complete", "missing"), ("MUB-complete", None),
         ("SIC", 3.0), ("Custom", 3.0)],
        ids=["wrong-constant", "no-constant", "null-constant", "sic-constant", "custom-constant"],
    )
    def test_constant_enforced_on_documents(self, kind, constant):
        doc = mub_family(2).to_json_dict()
        doc["kind"] = kind
        if constant == "missing":
            del doc["equality_constant"]
        else:
            doc["equality_constant"] = constant
        expected = {"MUB-complete": 3.0, "SIC": 6.0, "Custom": None}[kind]
        with pytest.raises(ParameterError) as exc:
            MeasurementFamily.from_json_dict(doc)
        assert str(exc.value) == f"kind {kind!r} requires equality_constant {expected}"

    def test_json_wrong_d_rejected(self):
        doc = mub_family(2).to_json_dict()
        doc["d"] = 3
        doc["equality_constant"] = 4.0
        with pytest.raises(FormatError, match="d = 3, vectors of length 2"):
            MeasurementFamily.from_json_dict(doc)

    def test_incomplete_setting_rejected(self):
        half = np.eye(2, dtype=complex)[None, :, :1]
        with pytest.raises(ParameterError):
            MeasurementFamily(kind="Custom", vectors=half, scales=np.ones((1, 1)))

    def test_unnormalized_vector_rejected(self):
        with pytest.raises(ParameterError):
            MeasurementFamily("Custom", 2 * np.eye(2)[None], np.full((1, 2), 0.25))

    @pytest.mark.parametrize(
        "vectors,scales",
        [
            (np.zeros((0, 2, 2)), np.zeros((0, 2))),  # no setting
            (np.zeros((1, 2, 0)), np.zeros((1, 0))),  # no outcome
            (np.eye(2)[None], np.ones((2, 2))),  # scales for two settings
            (np.eye(2), np.ones(2)),  # one setting without its axis
        ],
        ids=["no-setting", "no-outcome", "scales-shape", "2d-vectors"],
    )
    def test_bad_shapes_rejected(self, vectors, scales):
        with pytest.raises(DimensionError):
            MeasurementFamily(kind="Custom", vectors=vectors, scales=scales)

    def test_subset_has_no_constant(self):
        mubs = mub_family(3)
        sub = MeasurementFamily("Custom", mubs.vectors[:2], mubs.scales[:2])
        assert sub.n_settings == 2
        assert sub.equality_constant is None

    def test_json_roundtrip(self):
        for fam in (mub_family(3), sic_povm(2), clifford_orbit_family()):
            doc = json.loads(json.dumps(fam.to_json_dict()))
            back = MeasurementFamily.from_json_dict(doc)
            assert back.kind == fam.kind
            assert back.d == fam.d
            assert back.equality_constant == fam.equality_constant
            assert np.array_equal(back.vectors, fam.vectors)
            assert np.array_equal(back.scales, fam.scales)
            assert back.to_json_dict() == fam.to_json_dict()

    @pytest.mark.parametrize(
        "settings",
        [[], [[]], "not a list"],
        ids=["no-setting", "empty-setting", "not-a-list"],
    )
    def test_json_without_effects_rejected(self, settings):
        doc = {"d": 2, "kind": "Custom", "equality_constant": None, "settings": settings}
        with pytest.raises(FormatError):
            MeasurementFamily.from_json_dict(doc)

    def test_json_unequal_settings_rejected(self):
        doc = mub_family(2).to_json_dict()
        doc["settings"][1] = doc["settings"][1][:1]
        with pytest.raises(FormatError):
            MeasurementFamily.from_json_dict(doc)
