import inspect

import numpy as np
import pytest
from conftest import hermitian, psd
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ptrace_oracle, swap_operator

import entguess
from entguess import (
    DimensionError,
    NotPositiveError,
    ParameterError,
    max_entangled,
)
from entguess.linops import func_on_support, partial_trace
from entguess.tolerances import RANK_TOL


def kron_oracle(a, b):
    """Elementwise Kronecker product, written out index by index."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


class TestTensor:
    """np.kron is the package's tensor product: its order is A-major."""

    def test_identity(self):
        assert np.array_equal(np.kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_basis_projectors(self):
        e0 = np.zeros((2, 2))
        e0[0, 0] = 1.0
        e1 = np.zeros((2, 2))
        e1[1, 1] = 1.0
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # |0>|1> sits at flat index 1
        assert np.array_equal(np.kron(e0, e1), expected)

    def test_matches_kron_oracle_and_trace_product(self):
        gen = np.random.default_rng(11)
        a = hermitian(gen, 2)
        b = hermitian(gen, 2)
        t = np.kron(a, b)
        assert np.abs(t - kron_oracle(a, b)).max() < 1e-12
        assert abs(np.trace(t) - np.trace(a) * np.trace(b)) < 1e-12

    def test_associativity(self):
        gen = np.random.default_rng(12)
        a, b, c = (gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2)) for _ in range(3))
        # equal entrywise up to the rounding of reassociated float products
        assert np.abs(np.kron(np.kron(a, b), c) - np.kron(a, np.kron(b, c))).max() < 1e-15


class TestPartialTrace:
    @pytest.mark.parametrize("d", [2, 3])
    def test_max_entangled_marginal(self, d):
        phi = max_entangled(d)
        rho = np.outer(phi, phi.conj())
        assert np.abs(partial_trace(rho, d, d) - np.eye(d) / d).max() < 1e-12

    def test_product_state(self):
        gen = np.random.default_rng(13)
        a = psd(gen, 2)
        a /= np.trace(a)
        b = psd(gen, 3)
        b /= np.trace(b)
        assert np.abs(partial_trace(np.kron(a, b), 2, 3) - b).max() < 1e-12

    @pytest.mark.parametrize("keep", ["B"])
    def test_random_against_index_sum_oracle(self, keep):
        gen = np.random.default_rng(14)
        m = gen.normal(size=(6, 6)) + 1j * gen.normal(size=(6, 6))
        assert np.abs(partial_trace(m, 2, 3) - ptrace_oracle(m, 2, 3, keep)).max() < 1e-13

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        d_a=st.integers(1, 4),
        d_b=st.integers(1, 4),
        lead=st.lists(st.integers(1, 3), max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacks_against_index_sum_oracle(self, d_a, d_b, lead, seed):
        # a stack with 0, 1 or 2 leading axes, each matrix traced as on its own
        gen = np.random.default_rng(seed)
        n = d_a * d_b
        m = gen.normal(size=(*lead, n, n)) + 1j * gen.normal(size=(*lead, n, n))
        got = partial_trace(m, d_a, d_b)
        assert got.shape == (*lead, d_b, d_b)
        for i in np.ndindex(*lead):
            assert np.abs(got[i] - ptrace_oracle(m[i], d_a, d_b, "B")).max() < 1e-13

    def test_preserves_trace(self):
        gen = np.random.default_rng(15)
        m = hermitian(gen, 6)
        assert abs(np.trace(partial_trace(m, 2, 3)) - np.trace(m)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            partial_trace(np.eye(5), 2, 3)

    def test_composition_order_independent(self):
        # discarding A then B agrees with discarding both at once, within 1e-12
        gen = np.random.default_rng(16)
        m = hermitian(gen, 8)  # dims (2, 2, 2)
        one_shot = partial_trace(m, 4, 2)
        stepwise = partial_trace(partial_trace(m, 2, 4), 2, 2)
        assert np.abs(one_shot - stepwise).max() < 1e-12


class TestFuncOnSupport:
    def test_identity_inverse_sqrt(self):
        (out,), _ = func_on_support(np.eye(4), [-0.5])
        assert np.abs(out - np.eye(4)).max() < 1e-12

    def test_pseudoinverse_on_support(self):
        (out,), _ = func_on_support(np.diag([4.0, 0.0]), [-0.5])
        assert np.abs(out - np.diag([0.5, 0.0])).max() < 1e-12

    def test_sqrt_squares_back(self):
        gen = np.random.default_rng(17)
        m = psd(gen, 4, rank=2)
        (root,), _ = func_on_support(m, [0.5])
        assert np.linalg.norm(root @ root - m) < 1e-10

    def test_exponent_one_is_support_restriction(self):
        gen = np.random.default_rng(18)
        m = psd(gen, 4, rank=3)
        (out,), _ = func_on_support(m, [1.0])
        assert np.abs(out - m).max() < 1e-11

    def test_rejects_negative_matrix(self):
        with pytest.raises(NotPositiveError):
            func_on_support(np.diag([1.0, -0.5]), [0.5])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotPositiveError):
            func_on_support(np.array([[0.0, 1.0], [0.0, 0.0]]), [0.5])


class TestSupportProjector:
    """The support projector is func_on_support's exponent-0 power."""

    def test_full_rank(self):
        gen = np.random.default_rng(20)
        m = psd(gen, 3)
        (proj,), _ = func_on_support(m, (0.0,))
        assert np.abs(proj - np.eye(3)).max() < 1e-11

    def test_rank_two_diag(self):
        (out,), _ = func_on_support(np.diag([0.7, 0.3, 0.0]), (0.0,))
        assert np.abs(out - np.diag([1.0, 1.0, 0.0])).max() < 1e-12

    def test_projects_onto_support(self):
        gen = np.random.default_rng(21)
        m = psd(gen, 5, rank=3)
        (proj,), _ = func_on_support(m, (0.0,))
        assert np.abs(proj @ proj - proj).max() < 1e-12
        assert np.abs(proj @ m @ proj - m).max() < 1e-11

    @staticmethod
    def _near_cutoff_matrix(small):
        # the cutoff is RANK_TOL * 1 here; the window is a factor 10 either side
        u = np.linalg.qr(hermitian(np.random.default_rng(22), 3))[0]
        return (u * [1.0, small, 0.0]) @ u.conj().T

    @pytest.mark.parametrize(
        "small, near",
        [(0.0, False), (1e-12, False), (2e-11, True), (5e-11, True), (3e-10, True),
         (9e-10, True), (2e-9, False), (0.3, False)],
    )
    def test_flags_eigenvalues_near_cutoff(self, small, near):
        (proj,), flagged = func_on_support(self._near_cutoff_matrix(small), (0.0,))
        assert flagged is near
        kept = 2 if small > RANK_TOL else 1
        assert abs(np.trace(proj).real - kept) < 1e-9

    def test_repeated_exponent_is_one_array(self):
        m = psd(np.random.default_rng(23), 4, rank=3)
        (first, second, other), _ = func_on_support(m, (-0.5, -0.5, 0.5))
        (alone,), _ = func_on_support(m, (-0.5,))
        assert second is first and other is not first
        assert np.array_equal(first, alone)

    def test_flag_does_not_depend_on_exponent(self):
        flags = []
        for small in (0.0, 5e-11, 0.3):
            m = self._near_cutoff_matrix(small)
            _, at_zero = func_on_support(m, (0.0,))
            _, at_negative = func_on_support(m, (-0.5, -0.25))
            assert at_negative is at_zero
            flags.append(at_zero)
        assert flags == [False, True, False]


class TestRankCutoff:
    def test_no_public_callable_takes_a_rank_tolerance(self):
        # the cutoff is tolerances.RANK_TOL, with no per-call override; the
        # kernels live in linops and entropies, not at the top level
        modules = (entguess, entguess.linops, entguess.entropies)
        public = [getattr(m, name) for m in modules for name in dir(m) if not name.startswith("_")]
        callables = [
            obj for obj in public
            if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception))
        ]
        assert len(callables) > 25
        for obj in callables:
            assert "rank_tol" not in inspect.signature(obj).parameters, obj.__name__


class TestSwapOperator:
    def test_definition_qubits(self):
        f = swap_operator(2)
        e01 = np.zeros(4)
        e01[1] = 1.0  # |0>|1>
        e10 = np.zeros(4)
        e10[2] = 1.0  # |1>|0>
        assert np.array_equal(f @ e01, e10)

    def test_involution_exact(self):
        f = swap_operator(3)
        assert np.array_equal(f @ f, np.eye(9))

    def test_swap_trick(self):
        gen = np.random.default_rng(22)
        m = hermitian(gen, 3)
        n = hermitian(gen, 3)
        lhs = np.trace(np.kron(m, n) @ swap_operator(3))
        assert abs(lhs - np.trace(m @ n)) < 1e-12

    def test_swap_trick_property(self):
        gen = np.random.default_rng(23)
        for _ in range(100):
            d = int(gen.integers(2, 6))
            m = hermitian(gen, d)
            n = hermitian(gen, d)
            lhs = np.trace(np.kron(m, n) @ swap_operator(d))
            assert abs(lhs - np.trace(m @ n)) < 1e-11


class TestMaxEntangled:
    def test_qubit_amplitudes(self):
        s = 1 / np.sqrt(2)
        assert np.abs(max_entangled(2) - np.array([s, 0, 0, s])).max() < 1e-15

    def test_marginals_maximally_mixed(self):
        phi = max_entangled(5)
        rho = np.outer(phi, phi.conj())
        assert np.abs(partial_trace(rho, 5, 5) - np.eye(5) / 5).max() < 1e-14
        assert np.abs(ptrace_oracle(rho, 5, 5, "A") - np.eye(5) / 5).max() < 1e-14

    def test_self_fidelity(self):
        phi = max_entangled(4)
        assert abs(np.vdot(phi, np.outer(phi, phi.conj()) @ phi) - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [1, 0])
    def test_rejects_no_partner(self, d):
        with pytest.raises(ParameterError, match=f"^d must be >= 2, got {d}$"):
            max_entangled(d)
