import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import random_bipartite
from oracles import (
    complex_gaussian_oracle,
    ginibre_oracle,
    ptrace_oracle,
    pure_state_oracle,
    purify,
    schmidt_values,
    separable_oracle,
)

from entguess import (
    DensityMatrix,
    DimensionError,
    ParameterError,
    h2nu,
    mixed_rank_states,
    pure_states,
    random_density,
    random_separable,
)
from entguess.states import _ginibre, _philox, _stream_gaussians
from entguess.tolerances import EIG_TOL, STATE_HERM_TOL, TRACE_TOL


class TestPhilox:
    def test_reproducible_streams(self):
        a = _philox(42, 3).random(16)
        b = _philox(42, 3).random(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = _philox(42, 0).random(16)
        b = _philox(42, 1).random(16)
        assert not np.array_equal(a, b)


class TestStreamGaussians:
    # a 3 x 3 state of rank r takes 18 r uniforms, so a stream can end inside
    # one of Philox's four-word blocks, and chunks start at streams 0, 3, 9, 30;
    # every sampler is checked against the oracle's draw, not against another
    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 + 5, -3], ids=str)
    def test_match_a_new_generator_per_stream(self, seed):
        shapes = [(9, k % 9 + 1) for k in range(41)]
        expected = [complex_gaussian_oracle(seed, k, shape) for k, shape in enumerate(shapes)]
        for start, stop in [(0, 3), (3, 9), (9, 30), (30, 41)]:
            got = _stream_gaussians(seed, range(start, stop), shapes[start:stop])
            assert all(np.array_equal(a, b) for a, b in zip(got, expected[start:stop], strict=True))
            stack = mixed_rank_states(3, 3, stop - start, seed, start).matrix
            pure = pure_states(9, stop - start, seed, start)
            assert pure.shape == (stop - start, 9)
            for i, k in enumerate(range(start, stop)):
                rho = ginibre_oracle(expected[k])
                assert np.array_equal(stack[i], rho)
                single = random_density((3, 3), k % 9 + 1, seed, k).matrix
                assert np.array_equal(single, rho)
                psi = pure_state_oracle(seed, k, 9)
                assert np.array_equal(pure[i], psi)
                assert np.array_equal(pure_states(9, 1, seed, k)[0], psi)

    @pytest.mark.parametrize("count", [0, -1])
    @pytest.mark.parametrize(
        "sampler",
        [lambda count: pure_states(3, count, 0), lambda count: mixed_rank_states(2, 2, count, 0)],
        ids=["pure_states", "mixed_rank_states"],
    )
    def test_rejects_no_states(self, sampler, count):
        # a check over no states must never pass
        with pytest.raises(ParameterError, match=rf"^count must be >= 1, got {count}$"):
            sampler(count)


class TestRandomPure:
    def test_normalized(self):
        for i in range(20):
            psi = pure_states(5, 1, 7, i)[0]
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_deterministic(self):
        assert np.array_equal(pure_states(4, 1, 1)[0], pure_states(4, 1, 1)[0])

    def test_haar_first_moment(self):
        # mean projector over 10^4 samples approximates the maximally mixed state
        n = 10_000
        psi = pure_states(2, n, 123)  # row i is the state of stream i
        acc = psi.T @ psi.conj()
        assert np.linalg.norm(acc / n - np.eye(2) / 2) < 0.02

    def test_rejects_bad_dimension(self):
        with pytest.raises(ParameterError):
            pure_states(0, 1, 0)
        with pytest.raises(ParameterError):
            pure_states(0, 3, 0)


class TestPureStatesNormProperty:
    # pure_states divides each row by its own norm in one stacked pass; the
    # oracle divides by np.linalg.norm, row by row
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(
        d=st.integers(1, 1000),
        count=st.integers(1, 40),
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 2**20),
    )
    @example(d=60, count=36, seed=0, start=0)
    @example(d=7, count=500, seed=1, start=0)
    @example(d=1000, count=5, seed=2, start=0)
    @example(d=3, count=2000, seed=3, start=0)
    def test_matches_the_per_row_norm_bit_for_bit(self, d, count, seed, start):
        got = pure_states(d, count, seed, start)
        expected = [pure_state_oracle(seed, k, d) for k in range(start, start + count)]
        assert np.array_equal(got, expected)


class TestGinibreStackProperty:
    # _ginibre forms each G G^dag on its own and divides the stack once; the
    # oracle forms one state at a time.  A zero-padded batched product would
    # round some stacks differently, such as any holding rank 1 at n = 2.
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        d_a=st.integers(2, 6),
        d_b=st.integers(1, 5),
        draws=st.lists(st.integers(0, 2**16), min_size=1, max_size=11),
        at=st.integers(0, 11),
        seed=st.integers(0, 2**64 - 1),
        laps=st.integers(1, 2**16),
    )
    @example(d_a=2, d_b=1, draws=[1], at=0, seed=0, laps=1)
    def test_stack_matches_each_state_bit_for_bit(self, d_a, d_b, draws, at, seed, laps):
        n, count = d_a * d_b, len(draws) + 1
        ranks = [k % n + 1 for k in draws]
        ranks.insert(at % count, 1)
        gs = _stream_gaussians(seed, range(count), [(n, r) for r in ranks])
        stack = _ginibre(gs)
        assert all(np.array_equal(one, ginibre_oracle(g)) for one, g in zip(stack, gs))
        # states of rank n, then 1, 2, ...: a dense stack, whose factor state
        # forms the same matrices
        start = laps * n - 1
        streams = range(start, start + count)
        dense = mixed_rank_states(d_a, d_b, count, seed, start)
        gs = _stream_gaussians(seed, streams, [(n, k % n + 1) for k in streams])
        assert dense.factor is None
        assert np.array_equal(DensityMatrix.from_factor(gs, (d_a, d_b)).matrix, dense.matrix)


class TestRandomDensity:
    def test_rank_one_is_pure(self):
        rho = random_density((4,), 1, 5)
        purity = float(np.real(np.trace(rho.matrix @ rho.matrix)))
        assert abs(purity - 1.0) < 1e-11

    def test_full_rank_positive_spectrum(self):
        rho = random_density((3,), 3, 6)
        assert np.linalg.eigvalsh(rho.matrix).min() > 0

    def test_numerical_rank_matches(self):
        rho = random_density((6,), 2, 8)
        w = np.linalg.eigvalsh(rho.matrix)
        assert np.sum(w > 1e-10 * w.max()) == 2

    def test_deterministic(self):
        a = random_density((4,), 2, 9)
        b = random_density((4,), 2, 9)
        assert np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("rank", [0, 5])
    def test_rank_out_of_range(self, rank):
        with pytest.raises(ParameterError):
            random_density((4,), rank, 0)

    @pytest.mark.parametrize("d_a, d_b", [(0, 2), (2, 0)])
    def test_mixed_rank_states_rejects_zero_dimension(self, d_a, d_b):
        with pytest.raises(ParameterError, match=rf"^dimensions must be >= 1, got \({d_a}, {d_b}\)$"):
            mixed_rank_states(d_a, d_b, 2, 0)


class TestRandomSeparable:
    def test_validates_as_state(self):
        rho = random_separable(2, 3, terms=5, seed=10)
        assert rho.dims == (2, 3)
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-11

    @pytest.mark.parametrize("d", [2, 3])
    def test_nonnegative_conditional_entropy(self, d):
        # separable states stay out of the negative-entropy (EPR) region;
        # the claim holds for all separable states, while this sampler only
        # reaches a full-measure subset of them (random mixtures of
        # full-rank products), so passing here is evidence, not proof
        for i in range(100):
            rho = random_separable(d, d, terms=3, seed=77, stream=i)
            assert h2nu(rho, 0.0) >= -1e-9

    @pytest.mark.parametrize(
        "d_a, d_b, terms, seed, stream",
        [(2, 3, 5, 10, 0), (3, 3, 3, 77, 4), (5, 2, 4, 2**64 + 1, 0), (1, 4, 1, -3, 2)],
        ids=["2x3", "3x3", "5x2", "1x4"],
    )
    def test_matches_a_sequential_draw(self, d_a, d_b, terms, seed, stream):
        got = random_separable(d_a, d_b, terms, seed, stream).matrix
        assert np.array_equal(got, separable_oracle(d_a, d_b, terms, seed, stream))

    def test_rejects_no_terms(self):
        with pytest.raises(ParameterError):
            random_separable(2, 2, terms=0, seed=0)


class TestPurify:
    def test_pure_input_trivial_purifier(self):
        psi = pure_states(3, 1, 11)[0]
        rho = DensityMatrix.from_pure(psi, (3,))
        out = purify(rho)
        assert out.shape == (3,)  # purifying dimension 1
        overlap = abs(np.vdot(out, psi))
        assert abs(overlap - 1.0) < 1e-10

    def test_roundtrip_rank3(self):
        rho = random_density((4,), 3, 12)
        psi = purify(rho)
        assert psi.shape == (12,)  # purifying dimension = numerical rank
        rec = ptrace_oracle(np.outer(psi, psi.conj()), 4, 3, "A")
        assert np.abs(rec - rho.matrix).max() < 1e-10

    def test_roundtrip_many(self):
        for i in range(50):
            rank = (i % 4) + 1
            rho = random_density((4,), rank, 13, stream=i)
            psi = purify(rho)
            d_e = psi.shape[0] // 4
            rec = ptrace_oracle(np.outer(psi, psi.conj()), 4, d_e, "A")
            assert np.abs(rec - rho.matrix).max() < 1e-10


class TestSchmidtValues:
    def test_max_entangled_uniform(self):
        from entguess import max_entangled

        vals = schmidt_values(max_entangled(3), 3, 3)
        assert np.abs(vals - 1 / 3).max() < 1e-12

    def test_product_state(self):
        psi = np.kron(pure_states(2, 1, 14)[0], pure_states(3, 1, 15)[0])
        vals = schmidt_values(psi, 2, 3)
        assert abs(vals[0] - 1.0) < 1e-12
        assert np.abs(vals[1:]).max() < 1e-12

    def test_matches_marginal_eigenvalues(self):
        psi = pure_states(6, 1, 16)[0]
        vals = schmidt_values(psi, 2, 3)
        eigs = np.linalg.eigvalsh(ptrace_oracle(np.outer(psi, psi.conj()), 2, 3, "A"))
        assert np.abs(np.sort(vals) - np.sort(eigs)).max() < 1e-11

    def test_collision_entropy_of_pure_state(self):
        # H_2(A|B) of a pure state reduces to -2 log2 sum_i sqrt(lambda_i)
        psi = pure_states(6, 1, 17)[0]
        vals = schmidt_values(psi, 2, 3)
        rho = DensityMatrix.from_pure(psi, (2, 3))
        assert abs(h2nu(rho, 0.0) + 2 * np.log2(np.sum(np.sqrt(vals)))) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            schmidt_values(pure_states(6, 1, 18)[0], 2, 2)


class TestDensityMatrixInvariants:
    def test_sampler_outputs_validate(self):
        # construction re-checks Hermiticity, positivity, and trace
        for i in range(10):
            random_bipartite(2, 3, rank=(i % 6) + 1, seed=19, stream=i)

    def test_rejects_unnormalized(self):
        with pytest.raises(ParameterError):
            DensityMatrix(np.eye(2), (2,))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ParameterError):
            DensityMatrix(m, (2,))

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            DensityMatrix(np.diag([1.5, -0.5]), (2,))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0, np.inf)], ids=str)
    @pytest.mark.parametrize("index", [(0, 0), (1, 1), (3, 3), (0, 2)], ids=["00", "11", "33", "02"])
    def test_rejects_non_finite_entry(self, index, value):
        # ParameterError from the Hermiticity check, not numpy's LinAlgError
        # from the factorisation, alone and second in a stack
        m = np.eye(4, dtype=complex) / 4
        m[index] = value
        for matrix in (m, np.array([np.eye(4) / 4, m])):
            with pytest.raises(ParameterError, match=r"^matrix deviates from Hermitian by (nan|inf)$"):
                DensityMatrix(matrix, (2, 2))

    @pytest.mark.parametrize("n", [4, 28, 248])
    @pytest.mark.parametrize("offset", [-1e-2, 1e-2], ids=["inside", "outside"])
    def test_edge_of_eig_tol_judged_as_by_eigvalsh(self, n, offset):
        # lambda_min = -EIG_TOL (1 + offset): the Cholesky certificate must give
        # eigvalsh's verdict (reject below -EIG_TOL) and report the eigenvalue
        gen = np.random.default_rng(n)
        q, _ = np.linalg.qr(gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n)))
        lam_min = -EIG_TOL * (1 + offset)
        w = np.linspace(1.0, 2.0, n)
        w *= (1.0 - lam_min) / w[1:].sum()
        w[0] = lam_min
        m = (q * w) @ q.conj().T
        m = (m + m.conj().T) / 2
        rejected_by_eigvalsh = np.linalg.eigvalsh(m)[0] < -EIG_TOL
        assert rejected_by_eigvalsh == (offset > 0)
        if rejected_by_eigvalsh:
            with pytest.raises(ParameterError, match=r"^negative eigenvalue -1\.010e-10$"):
                DensityMatrix(m, (n,))
        else:
            DensityMatrix(m, (n,))

    @pytest.mark.parametrize("defect", ["none", "non-hermitian", "negative"])
    def test_leaves_the_callers_matrix_unchanged(self, defect):
        m = np.array(mixed_rank_states(2, 3, 5, seed=4).matrix)
        if defect == "non-hermitian":
            m[2, 0, 1] += 1e-3
        elif defect == "negative":
            m[3] = np.diag([1.5, -0.5, 0, 0, 0, 0])
        before = m.tobytes()
        if defect == "none":
            DensityMatrix(m, (2, 3))
        else:
            message = "Hermitian" if defect == "non-hermitian" else "negative"
            with pytest.raises(ParameterError, match=message):
                DensityMatrix(m, (2, 3))
        assert m.tobytes() == before

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            DensityMatrix(np.eye(4) / 4, (2, 3))

    @pytest.mark.parametrize("dims", [(0, 4), (4, 0), (0,)], ids=str)
    def test_rejects_zero_dimension(self, dims):
        with pytest.raises(DimensionError, match="must be >= 1"):
            DensityMatrix(np.eye(4) / 4, dims)

    @pytest.mark.parametrize("dims", [(True, 4), (np.True_, 4), (2.0, 2), (2.7, 2)], ids=str)
    def test_rejects_non_integer_dimensions(self, dims):
        with pytest.raises(DimensionError, match="must be integers"):
            DensityMatrix(np.eye(4) / 4, dims)


# the tolerance each kind of defect is judged against
EDGE_TOL = {"hermitian": STATE_HERM_TOL, "trace": TRACE_TOL, "trace-imag": TRACE_TOL,
            "eigenvalue": EIG_TOL}


def at_edge(kind: str, scale: float) -> np.ndarray:
    """A 4 x 4 matrix, otherwise a state, whose defect of `kind` is `scale`
    times its tolerance.

    An imaginary trace is spread over the diagonal, so that each entry's
    Hermiticity gap, twice its imaginary part, stays inside STATE_HERM_TOL.
    """
    delta = scale * EDGE_TOL[kind]
    m = np.diag([0.5, 0.25, 0.125, 0.125]).astype(complex)
    if kind == "hermitian":
        m[0, 1] = delta
    elif kind == "trace":
        m[3, 3] += delta
    elif kind == "trace-imag":
        m[np.diag_indices(4)] += 1j * delta / 4
    else:
        m[:, :] = np.diag([0.5 + delta, 0.25, 0.25, -delta])
    return m


def edge_message(kind: str, m: np.ndarray) -> str:
    if kind == "hermitian":
        return f"matrix deviates from Hermitian by {np.abs(m - m.conj().T).max():.3e}"
    if kind == "eigenvalue":
        return f"negative eigenvalue {np.linalg.eigvalsh(m)[0]:.3e}"
    return f"trace {np.trace(m)} differs from 1"


class TestOneCertificate:
    """Each check at 0.9x and 1.1x its tolerance, for one state and inside a
    stack, where the message names the first state that fails."""

    @pytest.mark.parametrize("kind", list(EDGE_TOL))
    def test_accepts_inside_each_tolerance(self, kind):
        DensityMatrix(at_edge(kind, 0.9), (2, 2))
        DensityMatrix(np.array([at_edge(kind, 0.9)] * 3), (2, 2))

    @pytest.mark.parametrize("kind", list(EDGE_TOL))
    def test_rejects_outside_each_tolerance(self, kind):
        first = at_edge(kind, 1.1)
        message = edge_message(kind, first)
        assert message.endswith(("1.100e-11", "-1.100e-10", "differs from 1"))
        with pytest.raises(ParameterError) as single:
            DensityMatrix(first, (2, 2))
        # the largest defect comes last, and the message still names the first
        stack = np.array([at_edge(kind, 0.9), first, at_edge(kind, 0.9), at_edge(kind, 1.5)])
        with pytest.raises(ParameterError) as stacked:
            DensityMatrix(stack, (2, 2))
        assert str(stacked.value) == str(single.value) == message

    def test_state_of_a_dense_stack_is_not_certified_again(self, monkeypatch):
        matrix = mixed_rank_states(2, 3, 4, seed=2).matrix
        factorisations = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: factorisations.append(m) or cholesky(m))
        stack = DensityMatrix(matrix, (2, 3))
        assert stack.factor is None and len(factorisations) == 1
        one = stack[2]
        assert len(factorisations) == 1
        assert one.dims == (2, 3) and one.factor is None
        assert np.shares_memory(one.matrix, stack.matrix)
        assert np.array_equal(one.matrix, matrix[2])

    @pytest.mark.parametrize(
        "single",
        [lambda: random_density((2, 2), 2, 0),
         lambda: DensityMatrix.from_factor(np.ones((4, 1)), (2, 2))],
        ids=["dense", "factor"],
    )
    def test_single_state_has_no_states_to_index(self, single):
        with pytest.raises(DimensionError, match="^a single state has no states to index$"):
            single()[0]
