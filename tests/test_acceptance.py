"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``)
and asserts the criterion.  All state corpora are seeded, so the suite is
deterministic run to run.
"""

import json
from functools import lru_cache

import numpy as np
from conftest import max_entangled_state
from oracles import haar_unitary, joint_statistics, unbiasedness_defect

from entguess import (
    achiever_state,
    clifford_orbit_family,
    design_defect,
    equality_report,
    family_guess_prob,
    guessing_bounds,
    max_entangled,
    mixed_rank_states,
    monogamy_report,
    mub_family,
    pg_recovery_fidelity,
    pure_states,
    random_separable,
    sic_povm,
    simulate_game,
    two_to_full_bound,
    witness,
)
from entguess.cli import main as cli_main
from entguess.entropies import classical_h2_cond
from entguess.relations import EPR, HEISENBERG

DIM_PAIRS = [(d_a, d_b) for d_a in (2, 3, 5, 7) for d_b in (1, 2, 3, 4)]
NUS = (0.0, 0.5, 1.0)


def verdict(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


@lru_cache(maxsize=None)
def corpus_stack(d_a, d_b):
    """100 seeded mixed-rank states per dimension pair as one stack, shared across criteria."""
    return mixed_rank_states(d_a, d_b, 100, seed=1000 + 10 * d_a + d_b)


@lru_cache(maxsize=None)
def corpus(d_a, d_b):
    """The states of corpus_stack(d_a, d_b), one at a time."""
    return tuple(corpus_stack(d_a, d_b))


@lru_cache(maxsize=None)
def corpus_guessing(d_a, d_b):
    """(per-setting P^pg list, F^pg) for every state of corpus(d_a, d_b)."""
    fam = mub_family(d_a)
    out = []
    for rho in corpus(d_a, d_b):
        per, _ = family_guess_prob(rho, fam)
        out.append((per, pg_recovery_fidelity(rho)))
    return tuple(out)


def test_criterion_01_main_equality():
    worst = 0.0
    for d_a, d_b in DIM_PAIRS:
        fam = mub_family(d_a)
        for nu in NUS:
            for report in equality_report(corpus_stack(d_a, d_b), fam, nu):
                worst = max(worst, report.defect)
    verdict(1, "main equality over all dims and nu", worst < 1e-9, f"worst defect {worst:.2e}")


def test_criterion_02_design_certification():
    design_worst = max(design_defect(mub_family(d)) for d in (2, 3, 5, 7, 11))
    design_worst = max(design_worst, design_defect(sic_povm(2)), design_defect(sic_povm(3)))
    design_worst = max(design_worst, design_defect(clifford_orbit_family()))
    unbias_worst = max(unbiasedness_defect(mub_family(d)) for d in (2, 3, 5, 7, 11))
    ok = design_worst < 1e-11 and unbias_worst < 1e-11
    verdict(2, "2-design and unbiasedness certification", ok,
            f"design {design_worst:.2e}, unbiasedness {unbias_worst:.2e}")


def test_criterion_03_sic_corollary():
    worst = 0.0
    for d in (2, 3):
        fam = sic_povm(d)
        for rho in mixed_rank_states(d, d, 100, seed=3000 + d):
            worst = max(worst, equality_report(rho, fam, 0.0).defect)
    verdict(3, "SIC-POVM equality with constant log[d(d+1)]", worst < 1e-9,
            f"worst defect {worst:.2e}")


def test_criterion_04_bound_curves_and_containment(tmp_path, capsys):
    d = 5
    out_file = tmp_path / "sweep.csv"
    code = cli_main(["sweep", "--d", "5", "--grid", "101", "--format", "json",
                     "--output", str(out_file)])
    capsys.readouterr()
    rows = json.loads(out_file.read_text())
    formula_ok = code == 0 and len(rows) == 6 * 101
    for r in rows:
        f, n = r["fpg"], r["n"]
        if n == d + 1:
            lo = up = (d * f + 1) / (d + 1)
        else:
            lo = max(1 / d, f)
            up = (d / n) * f + (n - 1) / (n * d) if f <= 1 / d else ((n - 1) / n) * f + 1 / n
        formula_ok &= abs(r["lower"] - lo) < 1e-12 and abs(r["upper"] - up) < 1e-12
    # regime boundary F = 1/5 sits on the grid of 101 points and both
    # regime formulas meet there
    boundary = [r for r in rows if abs(r["fpg"] - 0.2) < 1e-12]
    formula_ok &= len(boundary) == 6

    contained = True
    for i in range(500):
        rho = list(mixed_rank_states(d, d, 1, seed=4000 + i))[0]
        per, _ = family_guess_prob(rho, mub_family(d))
        fpg = pg_recovery_fidelity(rho)
        for n in range(1, d + 2):
            p_n = float(np.mean(per[:n]))
            lo, up = guessing_bounds(fpg, d, n)
            contained &= lo - 1e-9 <= p_n <= up + 1e-9
    verdict(4, "bound-curve sweep formulas and 500-state containment",
            formula_ok and contained)


def test_criterion_05_achiever_tightness():
    d = 5
    mubs = mub_family(d)
    worst = 0.0
    for regime, which, n_max in (
        (EPR, "upper", d + 1),
        (EPR, "lower", d),
        (HEISENBERG, "upper", d + 1),
        (HEISENBERG, "lower", d),
    ):
        for n in range(1, n_max + 1):
            for mix in np.linspace(0.0, 1.0, 10):
                rho = achiever_state(mubs, regime, which, n, float(mix))
                fpg = pg_recovery_fidelity(rho)
                per, _ = family_guess_prob(rho, mubs)
                p_n = float(np.mean(per[:n]))
                lo, up = guessing_bounds(fpg, d, n)
                target = up if which == "upper" else lo
                worst = max(worst, abs(p_n - target))
    verdict(5, "achiever states saturate every bound", worst < 1e-9,
            f"worst gap {worst:.2e}")


def test_criterion_06_operational_form():
    worst = 0.0
    for d_a, d_b in DIM_PAIRS:
        for per, fpg in corpus_guessing(d_a, d_b):
            avg = float(np.mean(per))
            worst = max(worst, abs(avg - (d_a * fpg + 1) / (d_a + 1)))
    verdict(6, "average guessing probability equals (d F^pg + 1)/(d+1)",
            worst < 1e-10, f"worst defect {worst:.2e}")


def test_criterion_07_guessing_floor_lemma():
    ok = True
    for d_a, d_b in DIM_PAIRS:
        for per, fpg in corpus_guessing(d_a, d_b):
            ok &= min(per) >= fpg - 1e-9
            ok &= min(per) >= 1 / d_a - 1e-9
    verdict(7, "P^pg >= F^pg and P^pg >= 1/d for every basis", ok)


def test_criterion_08_witness_soundness_and_power():
    false_positives = 0
    for d_a in (2, 3):
        fam = mub_family(d_a)
        for i in range(100):
            rho = random_separable(d_a, d_a, terms=3, seed=8000 + d_a, stream=i)
            n = 2 + (i % d_a)  # partial and full MUB sets
            thetas = list(range(n))
            bob = [haar_unitary(d_a, 8100 + d_a, stream=100 * i + t) for t in thetas]
            rep = witness(joint_statistics(rho, fam, thetas, bob))
            false_positives += rep.metadata["entangled"]

    fires = True
    for d_a in (2, 3):
        fam = mub_family(d_a)
        rho = max_entangled_state(d_a)
        for n in range(2, d_a + 2):
            thetas = list(range(n))
            bob = [fam.vectors[t].conj() for t in thetas]
            rep = witness(joint_statistics(rho, fam, thetas, bob))
            fires &= rep.metadata["entangled"]
    verdict(8, "witness: sound on separable, fires on maximally entangled",
            false_positives == 0 and fires, f"{false_positives} false positives")


def test_criterion_09_monogamy():
    worst = 0.0
    for block, dims in enumerate(((2, 2, 2), (3, 3, 3), (2, 3, 4))):
        mubs = mub_family(dims[0])
        for psi in pure_states(int(np.prod(dims)), 100, 9000, 1000 * block):
            worst = max(worst, monogamy_report(psi, dims, mubs).defect)

    # analytic cases: perfectly guessing Bob, then fully decoupled Alice
    d = 3
    psi1 = np.kron(max_entangled(d), np.eye(1, 2, 0)[0].astype(complex))
    rep1 = monogamy_report(psi1, (d, d, 2), mub_family(d))
    psi2 = np.kron(pure_states(d, 1, 9102)[0], max_entangled(2))
    rep2 = monogamy_report(psi2, (d, 2, 2), mub_family(d))
    analytic_ok = (
        abs(rep1.lhs) < 1e-10 and abs(rep1.rhs) < 1e-10
        and abs(rep2.lhs - np.log2(d)) < 1e-10 and abs(rep2.rhs - np.log2(d)) < 1e-10
    )
    verdict(9, "monogamy equation on tripartite pure states",
            worst < 1e-8 and analytic_ok, f"worst defect {worst:.2e}")


def test_criterion_10_monte_carlo_game():
    ok = True
    trials = 100_000
    run = 0
    for d, n_random in ((2, 6), (3, 6), (5, 5)):
        fam = mub_family(d)
        # maximally entangled round must win every single trial
        res = simulate_game(max_entangled_state(d), fam, trials, 10_500 + d)
        ok &= res.empirical_rate == 1.0
        run += 1
        for i in range(n_random):
            rho = list(mixed_rank_states(d, d, 1, seed=10_000 + 10 * d + i))[0]
            res = simulate_game(rho, fam, trials, 10_600 + 10 * d + i)
            ok &= abs(res.empirical_rate - res.analytic_rate) <= 4 * res.std_error
            run += 1
    verdict(10, f"game: {run} runs of {trials} trials inside 4-sigma", ok and run == 20)


def test_criterion_11_data_processing():
    ok = True
    for i in range(100):
        d_a = (2, 3, 5)[i % 3]
        fam = mub_family(d_a)
        rho = list(mixed_rank_states(d_a, 3, 1, seed=11_000 + i))[0]
        theta = i % (d_a + 1)
        quantum = family_guess_prob(rho, fam)[0][theta]
        bob = haar_unitary(3, 11_500, stream=i)
        joints = joint_statistics(rho, fam, [theta], [bob])
        classical = 2.0 ** (-classical_h2_cond(joints.settings[0][1]))
        ok &= classical <= quantum + 1e-10
    verdict(11, "classical side information never beats quantum", ok)


def test_criterion_12_two_to_all_bound():
    ok = True
    for d in (2, 3, 5):
        fam = mub_family(d)
        for i in range(50):
            rho = list(mixed_rank_states(d, d, 1, seed=12_000 + 10 * d + i))[0]
            per, avg = family_guess_prob(rho, fam)
            p2 = float(np.mean(per[:2]))
            ok &= avg >= two_to_full_bound(p2, d) - 1e-9
    verdict(12, "two-basis guessing bounds the full-set guessing", ok)
