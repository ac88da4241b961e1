"""A stack of states through each kernel gives what the states give one at a time."""

import numpy as np
import pytest
from conftest import near_cutoff_tripartite
from oracles import d0_relative_oracle, ptrace_oracle, rho_b_oracle

from entguess import (
    DensityMatrix,
    InfiniteDivergence,
    NotPositiveError,
    ParameterError,
    clifford_orbit_family,
    equality_report,
    h2nu,
    h2nu_outcomes,
    mixed_rank_states,
    monogamy_report,
    mub_family,
    pure_states,
    sic_povm,
)
from entguess.entropies import d0_relative, measure_family
from entguess.linops import func_on_support, partial_trace
from entguess.tolerances import RANK_TOL

TOL = 1e-14

# the DFT route (odd prime d) and the dense route (everything else)
FAMILIES = {
    "mub-7": lambda: mub_family(7),
    "mub-2": lambda: mub_family(2),
    "sic-3": lambda: sic_povm(3),
    "clifford": clifford_orbit_family,
}

# index of the state whose rho_B has an eigenvalue at 1.5x the rank cutoff
NEAR = 2


def stack_of(d_a, d_b, seed) -> DensityMatrix:
    """Four states: full rank, rank 1, a product state whose rho_B has an
    eigenvalue at 1.5x the cutoff (index NEAR), and rank 2."""
    n = d_a * d_b
    ranked = mixed_rank_states(d_a, d_b, 3, seed, start=n - 1).matrix
    rho_a = mixed_rank_states(d_a, 1, 1, seed, start=d_a - 1).matrix[0]
    spectrum = np.r_[np.ones(d_b - 1), 1.5 * RANK_TOL]
    near = np.kron(rho_a, np.diag(spectrum / spectrum.sum()))
    return DensityMatrix(np.array([ranked[0], ranked[1], near, ranked[2]]), (d_a, d_b))


def singles(stack: DensityMatrix) -> list:
    return [stack[i] for i in range(len(stack.matrix))]


def close(batched, single) -> bool:
    return np.abs(batched - single).max() <= TOL * max(np.abs(single).max(), 1.0)


class TestLinops:
    @pytest.mark.parametrize("keep", ["B"])
    def test_partial_trace(self, keep):
        # partial_trace keeps B, the only subsystem the package traces down to
        stack = stack_of(3, 2, seed=1)
        batched = partial_trace(stack.matrix, 3, 2)
        for i, m in enumerate(stack.matrix):
            assert close(batched[i], partial_trace(m, 3, 2))
            assert close(batched[i], ptrace_oracle(m, 3, 2, keep))

    def test_func_on_support_flags_only_its_own_matrix(self):
        rho_b = np.array([rho_b_oracle(rho) for rho in singles(stack_of(7, 2, seed=2))])
        exponents = (-0.25, -0.75, 0.0)
        powers, flags = func_on_support(rho_b, exponents)
        assert flags.tolist() == [i == NEAR for i in range(len(rho_b))]
        for i, m in enumerate(rho_b):
            single, flag = func_on_support(m, exponents)
            assert flag is (i == NEAR)
            for batched, one in zip(powers, single):
                assert close(batched[i], one)


class TestEntropies:
    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_measured_and_bipartite_sides(self, name, nu):
        family = FAMILIES[name]()
        stack = stack_of(family.d, 2, seed=3)
        conds = measure_family(stack, family)
        lhs = h2nu_outcomes(stack, family, nu)
        rhs = h2nu(stack, nu)
        for i, rho in enumerate(singles(stack)):
            assert close(conds[i], measure_family(rho, family))
            assert abs(lhs[i] - h2nu_outcomes(rho, family, nu)) < TOL
            assert abs(rhs[i] - h2nu(rho, nu)) < TOL


class TestRelations:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_equality_report(self, name):
        family = FAMILIES[name]()
        stack = stack_of(family.d, 2, seed=4)
        reports = equality_report(stack, family, 0.5)
        assert len(reports) == 4
        for report, rho in zip(reports, singles(stack)):
            single = equality_report(rho, family, 0.5)
            assert abs(report.lhs - single.lhs) < TOL
            assert abs(report.rhs - single.rhs) < TOL
            assert (report.verdict, report.metadata) == (single.verdict, single.metadata)

    def test_monogamy_report_flags_only_its_own_state(self):
        psi = list(pure_states(8, 3, 5))
        psi.insert(NEAR, near_cutoff_tripartite())
        reports = monogamy_report(np.array(psi), (2, 2, 2), mub_family(2))
        flags = [r.metadata["rank_tol_sensitive"] for r in reports]
        assert flags == [i == NEAR for i in range(4)]
        for report, one in zip(reports, psi):
            single = monogamy_report(one, (2, 2, 2), mub_family(2))
            assert abs(report.lhs - single.lhs) < TOL
            assert abs(report.rhs - single.rhs) < TOL
            assert (report.verdict, report.metadata) == (single.verdict, single.metadata)


class TestStackRejection:
    """A stack is rejected with the single-state message of its first bad matrix."""

    @staticmethod
    def _bad(defect, size):
        if defect == "negative":
            return np.diag([0.5 + size, 0.5, -size, 0.0])
        if defect == "non-hermitian":
            m = np.eye(4, dtype=complex) / 4
            m[0, 1] = size
            return m
        return np.eye(4) * 2 * size  # trace 8 size

    @pytest.mark.parametrize(
        "defect, message",
        [("negative", "negative eigenvalue -1.000e-01"),
         ("non-hermitian", "matrix deviates from Hermitian by 1.000e-01"),
         ("trace", "trace (0.8+0j) differs from 1")],
    )
    def test_density_matrix(self, defect, message):
        good = mixed_rank_states(2, 2, 2, seed=6).matrix
        first, second = self._bad(defect, 0.1), self._bad(defect, 0.2)
        with pytest.raises(ParameterError) as single:
            DensityMatrix(first, (2, 2))
        with pytest.raises(ParameterError) as stacked:
            DensityMatrix(np.array([good[0], first, good[1], second]), (2, 2))
        assert str(stacked.value) == str(single.value) == message

    def test_func_on_support(self):
        stack = np.array([np.eye(2), np.diag([1.0, -0.5]), np.diag([1.0, -0.7])])
        with pytest.raises(NotPositiveError) as single:
            func_on_support(stack[1], (0.5,))
        with pytest.raises(NotPositiveError) as stacked:
            func_on_support(stack, (0.5,))
        assert str(stacked.value) == str(single.value)
        assert str(single.value).startswith("negative eigenvalue")

    def test_d0_relative_orthogonal_supports(self):
        # on A (x) E, 2 x 2: factors t of rho = t t^dag = 1/4, 1 (x) |0><0| / 2
        # and 1 (x) |1><1| / 2, against sigma = 1 (x) sigma_E
        e0, e1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        t = np.array([np.eye(4) / 2, np.kron(np.eye(2), e0) / np.sqrt(2),
                      np.kron(np.eye(2), e1) / np.sqrt(2)])
        sigma_e = np.array([np.eye(2) / 4, e1 / 2, e0 / 2])
        with pytest.raises(InfiniteDivergence) as single:
            d0_relative(t[1], sigma_e[1])
        with pytest.raises(InfiniteDivergence) as stacked:
            d0_relative(t, sigma_e)
        with pytest.raises(InfiniteDivergence) as oracle:
            sigma = np.array([np.kron(np.eye(2), one) for one in sigma_e])
            d0_relative_oracle(t @ t.swapaxes(1, 2), sigma)
        assert str(stacked.value) == str(single.value) == str(oracle.value)
