"""Monte Carlo simulation of the basis-guessing game.

Each trial: a setting is drawn uniformly from the family, Alice's outcome
is drawn by the Born rule, and Bob's guess is drawn from the pretty good
measurement's outcome distribution conditioned on Alice's outcome.  Bob
really samples his guess, so the analytic win probability is exactly
the PGM guessing probability the rest of the package computes.

Sampling inverts the CDFs: a draw is the number of entries of the
nondecreasing CDF row that are <= its uniform, found by a binary search run
on a fixed-size chunk of trials at a time.  The uniforms are drawn one chunk
at a time too, so the chunk bounds all of the sampling's memory, whatever
the number of trials.  They stay bit-identical to drawing each of the three
streams (settings, Alice's outcomes, Bob's guesses) whole, one after the
other, from the seed's Philox generator: each stream has its own copy of
that generator, placed once at the stream's offset.
"""

from dataclasses import dataclass

import numpy as np

from .designs import MeasurementFamily
from .entropies import measure_family
from .errors import ParameterError
from .linops import func_on_support
from .states import DensityMatrix, SeedSpec

# Trials drawn per pass of the sampling loop; bounds the uniforms and the
# per-trial temporaries (indices, gathered CDF entries, masks) to a fixed
# size.  At 2^13 trials an 8-byte temporary is 64 KiB, below glibc's 128 KiB
# mmap threshold: larger ones are mapped and page-faulted afresh on every
# chunk, which made 2^16 slower than drawing every uniform up front.
_CHUNK = 1 << 13


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


def _stream_generator(seed: SeedSpec, offset: int) -> np.random.Generator:
    """The seed's generator placed so that its next uniform is draw `offset`.

    Philox makes its output in blocks of four 64-bit words, one per float64
    uniform; `advance` skips whole blocks, and the rest are drawn and dropped.
    """
    gen = seed.generator()
    gen.bit_generator.advance(offset // 4)
    gen.random(offset % 4)
    return gen


def simulate_game(
    rho: DensityMatrix, family: MeasurementFamily, trials: int, seed: SeedSpec
) -> GameResult:
    """Play `trials` rounds of the guessing game, deterministically in `seed`.

    The seed's Philox stream holds all setting uniforms, then all Alice
    outcome uniforms, then all Bob guess uniforms.  Each of the three is
    read chunk by chunk from its own generator, advanced once to the
    stream's start, so memory is bounded by the chunk and the result is
    bit-reproducible and independent of the chunk size.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if trials > np.iinfo(np.int64).max:
        raise ParameterError(f"trials must fit the int64 trial counters, got {trials}")
    if not family.is_basis_family():
        raise ParameterError("the game is defined for basis-type families")
    outcome_probs, bob_conds, analytic = _game_tables(rho, family)
    n_settings = family.n_settings
    d = family.d

    # streams 0, 1, 2: the setting, Alice's outcome and Bob's guess uniforms
    gens = [_stream_generator(seed, which * trials) for which in range(3)]
    uniforms = np.empty((3, min(trials, _CHUNK)))

    alice_cdf = np.cumsum(outcome_probs, axis=1)
    # row theta * d + k holds Bob's guess CDF in setting theta given outcome k
    bob_cdf = np.cumsum(bob_conds, axis=2).reshape(n_settings * d, d)
    setting_trials = np.zeros(n_settings, dtype=np.int64)
    setting_wins = np.zeros(n_settings, dtype=np.int64)
    for start in range(0, trials, _CHUNK):
        n = min(_CHUNK, trials - start)
        for gen, row in zip(gens, uniforms):
            gen.random(out=row[:n])
        u_setting, u_alice, u_bob = uniforms[:, :n]
        thetas = np.minimum((u_setting * n_settings).astype(np.intp), n_settings - 1)
        ks = np.minimum(_count_at_most(alice_cdf, thetas, u_alice), d - 1)
        js = np.minimum(_count_at_most(bob_cdf, thetas * d + ks, u_bob), d - 1)
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
