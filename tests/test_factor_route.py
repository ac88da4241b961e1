"""Factor states, rho = F F^dag: their certificate, the dense positivity check
kept as an oracle on them, and agreement of the factor and dense routes; and
for factor, dense and pure-state stacks alike, that any chunking of a stack
gives each state its own report."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import complex_gaussian_oracle, ginibre_oracle, pure_state_oracle

from entguess import (
    DensityMatrix,
    DimensionError,
    MeasurementFamily,
    ParameterError,
    equality_report,
    h2nu,
    h2nu_outcomes,
    mixed_rank_states,
    monogamy_report,
    mub_family,
    pure_states,
    sic_povm,
)

U = 1.1e-16  # unit roundoff of float64
AGREE = 1e-13  # the factor and dense routes, per entropy
SAME = 1e-14  # a stack and its states one by one, as in test_batch

# (d_a, d_b, ranks): every rank at 5 x 2 and 7 x 4; at 31 x 8 the ranks on
# both sides of the threshold r^2 = n d_b (r = 44.5)
ROUTE_CASES = [(5, 2, range(1, 11)), (7, 4, range(1, 29)), (31, 8, (1, 10, 44))]
ORACLE_CASES = [(7, 4, range(1, 29)), (31, 8, (1, 10, 44, 64, 248))]


def factor_state(d_a, d_b, rank, seed=0) -> DensityMatrix:
    """The factor state of rank `rank` drawn from stream rank - 1, whatever the threshold."""
    return DensityMatrix.from_factor(
        complex_gaussian_oracle(seed, rank - 1, (d_a * d_b, rank)), (d_a, d_b)
    )


def rephased(family: MeasurementFamily) -> MeasurementFamily:
    """The same design with every vector rephased, so the dense side takes the
    one-GEMM-per-setting route, as a family file with other phases would."""
    n_settings, _, n_outcomes = family.vectors.shape
    phases = np.exp(1j * np.arange(n_settings * n_outcomes)).reshape(n_settings, 1, n_outcomes)
    return MeasurementFamily(family.kind, family.vectors * phases, family.scales)


class TestCertificate:
    @pytest.mark.parametrize(
        "entry, message",
        [(np.nan, "factor has a non-finite entry"),
         (np.inf, "factor has a non-finite entry"),
         (complex(0, -np.inf), "factor has a non-finite entry")],
        ids=["nan", "inf", "imag-inf"],
    )
    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    def test_rejects_non_finite(self, entry, message, stacked):
        g = complex_gaussian_oracle(0, 0, (6, 2))
        g[4, 1] = entry
        with pytest.raises(ParameterError, match=rf"^{message}$"):
            DensityMatrix.from_factor([np.ones((6, 1)), g] if stacked else g, (3, 2))

    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    def test_rejects_zero(self, stacked):
        g = np.zeros((6, 2))
        with pytest.raises(ParameterError, match=r"^factor is zero: \|\|G\|\|_F\^2 = 0$"):
            DensityMatrix.from_factor([np.ones((6, 3)), g] if stacked else g, (3, 2))

    def test_rejects_overflowing_norm(self):
        # ||G||_F^2 overflows, so G / sqrt(t) is 0 and its trace is not 1
        with pytest.raises(ParameterError, match=r"^trace 0\.0 differs from 1$"):
            DensityMatrix.from_factor(np.full((4, 1), 1e200), (2, 2))

    @pytest.mark.parametrize(
        "g, dims", [(np.ones((6, 2)), (2, 2)), (np.ones(4), (2, 2)), ([], (2, 2))],
        ids=["rows", "vector", "empty"],
    )
    def test_rejects_shape(self, g, dims):
        with pytest.raises(DimensionError, match="factor"):
            DensityMatrix.from_factor(g, dims)

    def test_keeps_its_own_copy(self):
        g = complex_gaussian_oracle(1, 0, (6, 3))
        expected = ginibre_oracle(g)
        rho = DensityMatrix.from_factor(g, (3, 2))
        g[:] = 0.0
        assert np.array_equal(rho.matrix, expected)

    def test_missing_attribute_is_an_attribute_error(self):
        # the lazy matrix is the only attribute a factor state forms on read
        rho = DensityMatrix.from_factor(complex_gaussian_oracle(1, 0, (6, 3)), (3, 2))
        message = r"^'DensityMatrix' object has no attribute 'eigvals'$"
        with pytest.raises(AttributeError, match=message):
            rho.eigvals
        assert not hasattr(rho, "eigvals")
        assert "matrix" not in vars(rho)


class TestDensePositivityOracle:
    """The n x n Cholesky that a factor state skips still accepts every one."""

    @pytest.mark.parametrize("d_a, d_b, ranks", ORACLE_CASES, ids=["7x4", "31x8"])
    def test_dense_check_accepts_factor_states(self, d_a, d_b, ranks):
        n = d_a * d_b
        for rank in ranks:
            g = complex_gaussian_oracle(0, rank - 1, (n, rank))
            rho = DensityMatrix.from_factor(g, (d_a, d_b))
            DensityMatrix(rho.matrix, rho.dims)
            # fl(G G^dag)/t lies within r u of the PSD G G^dag / t (computed in
            # extended precision, same t), so no eigenvalue of it is below -r u
            t = np.trace(g @ g.conj().T).real
            g_ext = g.astype(np.clongdouble)
            exact = (g_ext @ g_ext.conj().T) / np.longdouble(t)
            distance = np.linalg.norm((rho.matrix - exact).astype(complex))
            assert distance < rank * U
            # eigvalsh adds its own backward error, about n u |rho|, |rho| <= 1
            assert np.linalg.eigvalsh(rho.matrix)[0] > -(rank + n) * U
            assert np.abs(rho.factor @ rho.factor.conj().T - rho.matrix).max() < 10 * rank * U

    def test_matrix_is_the_ginibre_state_bit_for_bit(self):
        gs = [complex_gaussian_oracle(2, k, (12, k + 1)) for k in range(4)]
        stack = DensityMatrix.from_factor(gs, (4, 3))
        assert stack.factor.shape == (4, 12, 4)
        for i, g in enumerate(gs):
            assert np.array_equal(stack.matrix[i], ginibre_oracle(g))
            assert np.array_equal(stack[i].matrix, ginibre_oracle(g))
            assert np.array_equal(stack[i].factor, stack.factor[i])


class TestThreshold:
    @pytest.mark.parametrize(
        "d_a, d_b, start, count, factor",
        [(7, 4, 0, 10, True), (7, 4, 0, 11, False), (7, 4, 28, 10, True),
         (31, 8, 43, 1, True), (31, 8, 44, 1, False), (3, 1, 0, 3, False), (2, 3, 0, 4, True),
         (4, 1, 0, 2, True), (4, 1, 0, 3, False)],
        ids=["7x4-r10", "7x4-r11", "7x4-wrapped", "31x8-r44", "31x8-r45", "3x1-r3", "2x3-r4",
             "4x1-r2-equal", "4x1-r3"],
    )
    def test_factor_iff_largest_rank_squared_at_most_n_db(self, d_a, d_b, start, count, factor):
        rho = mixed_rank_states(d_a, d_b, count, 0, start)
        assert (rho.factor is not None) is factor
        for i in range(count):
            g = complex_gaussian_oracle(0, start + i, (d_a * d_b, (start + i) % (d_a * d_b) + 1))
            assert np.array_equal(rho.matrix[i], ginibre_oracle(g))


class TestRouteAgreement:
    @staticmethod
    def _agree(rho, family, nu):
        dense = DensityMatrix(rho.matrix, rho.dims)
        assert rho.factor is not None and dense.factor is None
        assert abs(h2nu(rho, nu) - h2nu(dense, nu)) < AGREE
        assert abs(h2nu_outcomes(rho, family, nu) - h2nu_outcomes(dense, family, nu)) < AGREE
        factor_report = equality_report(rho, family, nu)
        dense_report = equality_report(dense, family, nu)
        assert factor_report.holds and dense_report.holds
        assert factor_report.metadata == dense_report.metadata

    @pytest.mark.parametrize("route", ["dft", "gemm"])
    @pytest.mark.parametrize("d_a, d_b, ranks", ROUTE_CASES, ids=["5x2", "7x4", "31x8"])
    def test_mub(self, d_a, d_b, ranks, route):
        family = mub_family(d_a) if route == "dft" else rephased(mub_family(d_a))
        assert (family._gauss_sum_dft is not None) is (route == "dft")
        for rank in ranks:
            self._agree(factor_state(d_a, d_b, rank), family, 0.5)

    @pytest.mark.parametrize("family", [mub_family(7), sic_povm(3)], ids=["mub", "sic"])
    def test_effect_rows_are_cached_and_read_only(self, family):
        rows = family._effect_rows
        assert family._effect_rows is rows and not rows.flags.writeable
        for k, row in enumerate(rows):
            t, o = divmod(k, family.vectors.shape[2])
            assert np.array_equal(row, family.vectors[t, :, o].conj() * np.sqrt(family.scales[t, o]))

    @pytest.mark.parametrize("nu", [0.0, 1.0])
    def test_sic(self, nu):
        for rank in range(1, 7):
            self._agree(factor_state(3, 2, rank, seed=5), sic_povm(3), nu)


# prime d_a, so that mub_family(d_a) exists; 3 and 5 take the DFT route on the dense side
_dims = st.tuples(st.sampled_from([2, 3, 5]), st.integers(1, 3))


def assert_reports_of_their_states(stacked_reports, singles):
    """Each list of reports gives state i the report `singles[i]` gives it."""
    for reports in stacked_reports:
        assert len(reports) == len(singles)
        for report, single in zip(reports, singles):
            assert abs(report.lhs - single.lhs) < SAME
            assert abs(report.rhs - single.rhs) < SAME
            assert (report.verdict, report.metadata) == (single.verdict, single.metadata)


def chunked(report, parts, cuts) -> list:
    """`report` of each chunk of `parts`, cut at the sizes `cuts`, concatenated."""
    reports, at = [], 0
    for size in cuts:
        reports += report(parts[at : at + size])
        at += size
    return reports


class TestStackProperty:
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        dims=_dims,
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 40),
        cuts=st.lists(st.integers(1, 6), min_size=1, max_size=4),
        nu=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_chunked_factor_stacks_give_the_reports_of_their_states(
        self, dims, seed, start, cuts, nu
    ):
        d_a, d_b = dims
        n = d_a * d_b
        draws = [complex_gaussian_oracle(seed, k, (n, k % n + 1)) for k in range(start, start + sum(cuts))]
        family = mub_family(d_a)
        singles = [equality_report(DensityMatrix.from_factor(g, dims), family, nu) for g in draws]
        whole = DensityMatrix.from_factor(draws, dims)
        by_chunk = chunked(
            lambda part: equality_report(DensityMatrix.from_factor(part, dims), family, nu),
            draws, cuts,
        )
        indexed = [equality_report(whole[i], family, nu) for i in range(len(draws))]
        stacked = equality_report(whole, family, nu)
        assert_reports_of_their_states((stacked, by_chunk, indexed), singles)

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(
        dims=_dims,
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 40),
        cuts=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        nu=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_chunked_dense_stacks_give_the_reports_of_their_states(
        self, dims, seed, start, cuts, nu
    ):
        d_a, d_b = dims
        n = d_a * d_b
        # ranks cycling over low..n, each with r^2 > n d_b: above the factor threshold
        low = math.isqrt(n * d_b) + 1
        draws = [
            ginibre_oracle(complex_gaussian_oracle(seed, k, (n, low + k % (n - low + 1))))
            for k in range(start, start + sum(cuts))
        ]
        family = mub_family(d_a)
        singles = [equality_report(DensityMatrix(m, dims), family, nu) for m in draws]
        whole = DensityMatrix(np.array(draws), dims)
        assert whole.factor is None
        by_chunk = chunked(
            lambda part: equality_report(DensityMatrix(np.array(part), dims), family, nu),
            draws, cuts,
        )
        indexed = [equality_report(whole[i], family, nu) for i in range(len(draws))]
        stacked = equality_report(whole, family, nu)
        assert_reports_of_their_states((stacked, by_chunk, indexed), singles)

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(
        dims=st.tuples(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.integers(1, 3)),
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 40),
        cuts=st.lists(st.integers(1, 4), min_size=1, max_size=3),
    )
    def test_chunked_pure_state_stacks_give_the_monogamy_reports_of_their_states(
        self, dims, seed, start, cuts
    ):
        n = math.prod(dims)
        mubs = mub_family(dims[0])
        streams = range(start, start + sum(cuts))
        singles = [monogamy_report(pure_state_oracle(seed, k, n), dims, mubs) for k in streams]
        whole = pure_states(n, len(streams), seed, start)
        # each chunk drawn on its own from its first stream, as verify draws it
        by_chunk = chunked(
            lambda part: monogamy_report(pure_states(n, len(part), seed, part[0]), dims, mubs),
            streams, cuts,
        )
        indexed = [monogamy_report(psi, dims, mubs) for psi in whole]
        stacked = monogamy_report(whole, dims, mubs)
        assert_reports_of_their_states((stacked, by_chunk, indexed), singles)
