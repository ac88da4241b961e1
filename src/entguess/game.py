"""Monte Carlo simulation of the basis-guessing game.

Each trial: a setting is drawn uniformly from the family, Alice's outcome
is drawn by the Born rule, and Bob's guess is drawn from the pretty good
measurement's outcome distribution conditioned on Alice's outcome.  Bob
really samples his guess, so the analytic win probability is exactly
the PGM guessing probability the rest of the package computes.

Sampling inverts the CDFs: a draw is the number of entries of the
nondecreasing CDF row that are <= its uniform, found by a binary search run
on a fixed-size chunk of trials at a time.  The chunk bounds the search's
temporaries; it does not bound the three float64 uniforms per trial, which
are drawn up front (24 bytes per trial, 24 MB at 10^6 trials), so memory
grows linearly with the number of trials.
"""

from dataclasses import dataclass

import numpy as np

from .designs import MeasurementFamily
from .entropies import measure_family
from .errors import ParameterError
from .linops import func_on_support
from .states import DensityMatrix, SeedSpec

# Trials drawn per pass of the sampling loop; bounds the per-trial
# temporaries (indices, gathered CDF entries, masks) to a fixed size.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class GameResult:
    """Empirical vs analytic win rate of a simulated guessing game."""

    trials: int
    wins: int
    empirical_rate: float
    analytic_rate: float
    std_error: float
    per_setting: tuple  # one dict per setting


def _game_tables(rho: DensityMatrix, family: MeasurementFamily):
    """Per setting: outcome probabilities, Bob's conditional guess matrix, and
    the analytic PGM success rate."""
    n, d = family.n_settings, family.d
    conds = measure_family(rho, family)
    rho_b = family.setting_weight * conds.sum(axis=0)
    (inv_sqrt,), _ = func_on_support(rho_b, (-0.5,))
    conds = conds.reshape(n, d, *rho_b.shape)
    pgm_ops = inv_sqrt @ conds @ inv_sqrt
    # table[s, k, j] = Tr[Pi^j rho_B^k] in setting s; its trace is the PGM rate
    table = np.real(np.einsum("skxy,sjyx->skj", conds, pgm_ops))
    analytic = np.trace(table, axis1=1, axis2=2).tolist()
    p = np.maximum(np.real(np.trace(conds, axis1=2, axis2=3)), 0.0)
    seen = p > 0.0
    cond = np.where(seen[..., None], np.maximum(table, 0.0), 0.0)
    cond /= np.where(seen, p, 1.0)[..., None]
    outcome_probs = p / p.sum(axis=1, keepdims=True)
    # rows of cond sum to Tr[Pi_supp rho_B^k]/p_k = 1 up to rounding
    cond /= np.maximum(cond.sum(axis=2, keepdims=True), 1e-300)
    return outcome_probs, cond, analytic


def _count_at_most(cdf: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per trial i, the number of entries of cdf[rows[i]] that are <= u[i].

    A binary search run on all trials at once, building the count from its
    highest bit down: a step is taken when the entry it would count is still
    <= u[i].  Every row is nondecreasing, so the count is the inverse-CDF
    draw at u[i] and equals (u[i] >= cdf[rows[i]]).sum() exactly.
    """
    width = cdf.shape[1]
    flat = cdf.ravel()
    last = rows * width - 1  # flat index of the entry before each row
    count = np.zeros(len(u), dtype=np.intp)
    step = 1 << (width.bit_length() - 1)
    while step:
        probe = count + step
        count += step * ((probe <= width) & (flat[last + np.minimum(probe, width)] <= u))
        step >>= 1
    return count


def simulate_game(
    rho: DensityMatrix, family: MeasurementFamily, trials: int, seed: SeedSpec
) -> GameResult:
    """Play `trials` rounds of the guessing game, deterministically in `seed`.

    All three uniforms per trial (setting, Alice outcome, Bob guess) are
    drawn up front from the seed's Philox stream, so the result is
    bit-reproducible and independent of any internal batching.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if not family.is_basis_family():
        raise ParameterError("the game is defined for basis-type families")
    outcome_probs, bob_conds, analytic = _game_tables(rho, family)
    n_settings = family.n_settings
    d = family.d

    gen = seed.generator()
    u_setting = gen.random(trials)
    u_alice = gen.random(trials)
    u_bob = gen.random(trials)

    alice_cdf = np.cumsum(outcome_probs, axis=1)
    # row theta * d + k holds Bob's guess CDF in setting theta given outcome k
    bob_cdf = np.cumsum(bob_conds, axis=2).reshape(n_settings * d, d)
    setting_trials = np.zeros(n_settings, dtype=np.int64)
    setting_wins = np.zeros(n_settings, dtype=np.int64)
    for start in range(0, trials, _CHUNK):
        stop = start + _CHUNK
        thetas = np.minimum((u_setting[start:stop] * n_settings).astype(np.intp), n_settings - 1)
        ks = np.minimum(_count_at_most(alice_cdf, thetas, u_alice[start:stop]), d - 1)
        js = np.minimum(_count_at_most(bob_cdf, thetas * d + ks, u_bob[start:stop]), d - 1)
        setting_trials += np.bincount(thetas, minlength=n_settings)
        setting_wins += np.bincount(thetas[ks == js], minlength=n_settings)

    wins = int(setting_wins.sum())
    per_setting = []
    for th in range(n_settings):
        t = int(setting_trials[th])
        w = int(setting_wins[th])
        p = analytic[th]
        # a setting no trial drew has no empirical rate; null in JSON, not NaN
        per_setting.append(
            {
                "setting": th,
                "trials": t,
                "wins": w,
                "empirical_rate": w / t if t else None,
                "analytic_rate": p,
                "std_error": _binomial_sigma(p, t) if t else None,
            }
        )
    p_avg = float(np.mean(analytic))
    return GameResult(
        trials=trials,
        wins=wins,
        empirical_rate=wins / trials,
        analytic_rate=p_avg,
        std_error=_binomial_sigma(p_avg, trials),
        per_setting=tuple(per_setting),
    )


def _binomial_sigma(p: float, n: int) -> float:
    # p can overshoot 1 by float noise on perfect-guessing states
    return float(np.sqrt(max(p * (1.0 - p), 0.0) / n))
