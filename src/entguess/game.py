"""Monte Carlo simulation of the basis-guessing game.

Each trial: a setting is drawn uniformly from the family, Alice's outcome
is drawn by the Born rule, and Bob's guess is drawn from the pretty good
measurement's outcome distribution conditioned on Alice's outcome.  Each
of the three is decided by a uniform of its own, so the win rate is a Monte
Carlo estimate of exactly the PGM guessing probability the rest of the
package computes.

Sampling inverts the CDFs, a fixed-size chunk of trials at a time.  A
setting is floor(u * n_settings).  Alice's outcome is the number of entries
of her nondecreasing CDF row that are <= her uniform: a guide table of
power-of-two buckets gives where that count starts, and a binary search
over the widest bucket's span finishes it (one probe when no bucket holds
two entries).  Bob's guess is never materialised: only whether it equals
Alice's outcome k counts, and that holds exactly when his uniform lies
between entries k - 1 and k of his CDF row, so two compares decide it.  The
uniforms are drawn one chunk at a time too, so the chunk bounds all of the
sampling's memory, whatever the number of trials.  A game is keyed, like
every draw of the package, by two ints, a seed and a stream (the CLI plays
stream 1 of its seed; its state comes from stream 0).  Its uniforms stay
bit-identical to drawing the three parts of that Philox stream (settings,
Alice's outcomes, Bob's guesses) whole, one after the other: each part has
its own copy of the generator, placed once at the part's offset.  The
counts equal those of drawing every guess by inverse CDF.
"""

from dataclasses import dataclass

import numpy as np

from .designs import MeasurementFamily
from .entropies import measure_family
from .errors import ParameterError
from .linops import func_on_support
from .states import DensityMatrix, _philox

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


class _GuidedCdf:
    """Inverse-CDF draws from the nondecreasing rows of a CDF table.

    A draw at u from row i is the number of entries of cdf[i] that are <= u.
    It starts from a guide table (Chen & Asau's indexed search): with B
    buckets, B a power of two so that floor(u * B) is exact, guide[i, b]
    counts the entries of row i that are <= b / B.  The draw at a u in bucket
    b lies between guide[i, b] and guide[i, b + 1], so a binary search over
    the widest bucket's span finishes it.  Exact for every u in [0, 1]; even
    with all entries in one bucket it probes no more often than a binary
    search of the whole row.

    A draw is returned as its position in the flat table of padded rows, of
    `width` entries each: row i is -inf, then cdf[i], then +inf for the
    span, and a draw of c sits at i * width + c, on the last entry counted.
    """

    def __init__(self, cdf: np.ndarray):
        n_rows, width = cdf.shape
        # at least two buckets per entry: on a spread-out row no bucket holds
        # two entries, and one probe finishes each draw
        self.n_buckets = 1 << (2 * width - 1).bit_length()
        edges = np.arange(self.n_buckets + 1) / self.n_buckets
        guide = np.stack([np.searchsorted(row, edges, side="right") for row in cdf])
        # bucket B holds only u = 1, where the guide entry is the draw itself
        span = int(np.diff(guide, axis=1).max())
        self.steps = [1 << i for i in reversed(range(span.bit_length()))]
        # a probe reads at most `step` <= span entries past the last one
        # counted, so span entries of +inf pad every row; the leading -inf is
        # the last entry counted by a draw of 0
        self.width = 1 + width + span
        padded = np.full((n_rows, self.width), np.inf)
        padded[:, 0] = -np.inf
        padded[:, 1 : 1 + width] = cdf
        self.flat = padded.ravel()
        self.guide = (guide + self.width * np.arange(n_rows)[:, None]).ravel()

    def positions(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Per trial t, rows[t] * width + the number of entries of cdf[rows[t]]
        that are <= u[t]."""
        at = (u * self.n_buckets).astype(np.intp)
        at += rows * (self.n_buckets + 1)
        at = self.guide[at]
        for step in self.steps:
            hit = self.flat[at + step] <= u
            at += hit if step == 1 else step * hit
        return at


class _BobWins:
    """Whether Bob's guess equals Alice's outcome, without drawing it.

    Bob's guess at uniform u is min(draw, d - 1), the draw taken from the
    nondecreasing CDF row bob_cdf[theta, k] that Alice's outcome k selects.
    It equals k exactly when bob_cdf[theta, k, k - 1] <= u < bob_cdf[theta,
    k, k], with the bound past either end of the row infinite.  Both bounds
    are kept flat, at row theta * width + c for every count c < width that
    Alice's draw can give, which is her outcome k = min(c, d - 1).
    """

    def __init__(self, bob_cdf: np.ndarray, width: int):
        d = bob_cdf.shape[-1]
        outcome = np.arange(d)
        hi = bob_cdf[:, outcome, outcome]
        hi[:, -1] = np.inf
        lo = np.full_like(hi, -np.inf)
        lo[:, 1:] = bob_cdf[:, outcome[1:], outcome[:-1]]
        k = np.minimum(np.arange(width), d - 1)
        self.lo, self.hi = lo[:, k].ravel(), hi[:, k].ravel()

    def won(self, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Per trial t, whether Bob's guess at u[t] in row rows[t] is right."""
        return (self.lo[rows] <= u) & (u < self.hi[rows])


def _stream_generator(seed: int, stream: int, offset: int) -> "np.random.Generator":
    """Stream `stream` of `seed` placed so that its next uniform is draw `offset`.

    Philox makes its output in blocks of four 64-bit words, one per float64
    uniform; `advance` skips whole blocks, and the rest are drawn and dropped.
    """
    gen = _philox(seed, stream)
    gen.bit_generator.advance(offset // 4)
    gen.random(offset % 4)
    return gen


def simulate_game(
    rho: DensityMatrix, family: MeasurementFamily, trials: int, seed: int, stream: int = 0
) -> GameResult:
    """Play `trials` rounds of the guessing game, deterministically in (seed, stream).

    Stream `stream` of `seed` holds all setting uniforms, then all Alice
    outcome uniforms, then all Bob guess uniforms.  Each of the three is
    read chunk by chunk from its own generator, advanced once to the
    part's start, so memory is bounded by the chunk and the result is
    bit-reproducible and independent of the chunk size.  Per chunk, Alice's
    outcomes come from a guide-table draw, as positions in its table, and
    Bob's wins from comparing his uniforms with the bounds of the CDF
    interval that maps to her outcome, kept at those positions; one
    bincount of 2 * setting + win gives each setting's trials and wins.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if trials > np.iinfo(np.int64).max:
        raise ParameterError(f"trials must fit the int64 trial counters, got {trials}")
    if not family.is_basis_family():
        raise ParameterError("the game is defined for basis-type families")
    outcome_probs, bob_conds, analytic = _game_tables(rho, family)
    n_settings = family.n_settings

    # parts 0, 1, 2: the setting, Alice's outcome and Bob's guess uniforms
    gens = [_stream_generator(seed, stream, which * trials) for which in range(3)]
    uniforms = np.empty((3, min(trials, _CHUNK)))

    alice = _GuidedCdf(np.cumsum(outcome_probs, axis=1))
    # Bob's bounds sit at the positions of Alice's draws
    bob = _BobWins(np.cumsum(bob_conds, axis=2), alice.width)
    # entry 2 * theta + won: trials of setting theta lost, then won
    counts = np.zeros(2 * n_settings, dtype=np.int64)
    for start in range(0, trials, _CHUNK):
        n = min(_CHUNK, trials - start)
        for gen, row in zip(gens, uniforms):
            gen.random(out=row[:n])
        u_setting, u_alice, u_bob = uniforms[:, :n]
        # a uniform is at most 1 - 2^-53, and (1 - 2^-53) n rounds below n
        # for every integer n < 2^53, so no setting reaches n_settings
        thetas = (u_setting * n_settings).astype(np.intp)
        won = bob.won(alice.positions(thetas, u_alice), u_bob)
        counts += np.bincount(2 * thetas + won, minlength=2 * n_settings)

    setting_wins = counts[1::2]
    setting_trials = counts[::2] + setting_wins
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
