import dataclasses
import tracemalloc

import numpy as np
import pytest
from conftest import max_entangled_state, psd, random_bipartite
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import categorical_oracle, game_counts_oracle

from entguess import (
    DensityMatrix,
    ParameterError,
    family_guess_prob,
    game,
    mub_family,
    sic_povm,
    simulate_game,
)


class TestSimulateGame:
    def test_max_entangled_wins_always(self):
        result = simulate_game(max_entangled_state(2), mub_family(2), 10_000, 80)
        assert result.empirical_rate == 1.0
        assert result.wins == result.trials == 10_000

    def test_two_qubit_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        result = simulate_game(rho, mub_family(2), 100_000, 81)
        assert abs(result.analytic_rate - 0.5) < 1e-12
        assert abs(result.empirical_rate - 0.5) <= 4 * result.std_error

    def test_random_qutrit_within_band(self):
        rho = random_bipartite(3, 3, 6, seed=82)
        result = simulate_game(rho, mub_family(3), 100_000, 83)
        _, expected = family_guess_prob(rho, mub_family(3))
        assert abs(result.analytic_rate - expected) < 1e-12
        assert abs(result.empirical_rate - result.analytic_rate) <= 4 * result.std_error

    def test_per_setting_bands(self):
        rho = random_bipartite(3, 2, 4, seed=84)
        result = simulate_game(rho, mub_family(3), 200_000, 85)
        for entry in result.per_setting:
            gap = abs(entry["empirical_rate"] - entry["analytic_rate"])
            assert gap <= 5 * entry["std_error"], entry

    def test_bitwise_reproducible(self):
        rho = random_bipartite(2, 3, 4, seed=86)
        a = simulate_game(rho, mub_family(2), 50_000, 87, stream=2)
        b = simulate_game(rho, mub_family(2), 50_000, 87, stream=2)
        assert a.wins == b.wins
        assert a.empirical_rate == b.empirical_rate
        assert [e["wins"] for e in a.per_setting] == [e["wins"] for e in b.per_setting]

    def test_std_error_uses_analytic_rate(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        result = simulate_game(rho, mub_family(2), 10_000, 88)
        p = result.analytic_rate
        assert result.std_error == pytest.approx(np.sqrt(p * (1 - p) / 10_000))

    def test_rejects_non_basis_family(self):
        with pytest.raises(ParameterError):
            simulate_game(max_entangled_state(2), sic_povm(2), 100, 89)

    def test_rejects_zero_trials(self):
        with pytest.raises(ParameterError):
            simulate_game(max_entangled_state(2), mub_family(2), 0, 90)

    def test_result_serializes(self):
        result = simulate_game(max_entangled_state(2), mub_family(2), 100, 91)
        doc = dataclasses.asdict(result)
        assert doc["trials"] == 100
        assert len(doc["per_setting"]) == 3


def _cdf_table(gen, n_rows, width):
    """CDF rows with runs of zero-probability entries, so values repeat."""
    probs = gen.random((n_rows, width))
    probs[gen.random((n_rows, width)) < 0.4] = 0.0
    probs[0] = 0.0
    probs[0, -1] = 1.0  # a row that is 0 up to its last entry
    probs[-1] = 0.0
    probs[-1, 0] = 1.0  # a row that is 1 from its first entry
    probs[probs.sum(axis=1) == 0.0, 0] = 1.0
    return np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)


def _n_buckets(width):
    """The guide table's bucket count for CDF rows of this width."""
    return game._GuidedCdf(np.zeros((1, width))).n_buckets


def _edge_uniforms(cdf, n_buckets):
    """Every CDF value (where >= and > differ), every bucket edge j / B and
    the neighbours of both inside [0, 1], and the ends of [0, 1]."""
    points = np.concatenate([np.unique(cdf), np.arange(n_buckets + 1) / n_buckets])
    u = np.concatenate([points, np.nextafter(points, -1.0), np.nextafter(points, 2.0), [0.0, 1.0]])
    return u[(u >= 0.0) & (u <= 1.0)]


def _guided_draw(cdf, u):
    """The guided draw of every u from every row of cdf, and the rows used."""
    sampler = game._GuidedCdf(cdf)
    rows = np.repeat(np.arange(len(cdf)), len(u))
    return sampler.positions(rows, np.tile(u, len(cdf))) - rows * sampler.width, rows


class TestInverseCdfDraw:
    @pytest.mark.parametrize("width", [1, 2, 3, 8, 13, 16, 17])
    def test_matches_categorical_oracle(self, width):
        gen = np.random.default_rng(92)
        n_buckets = _n_buckets(width)
        # random rows, and a row whose entries sit on bucket edges, ending on 1
        on_edges = np.arange(1, width + 1) * n_buckets // width / n_buckets
        cdf = np.vstack([_cdf_table(gen, 9, width), on_edges])
        # the edge cases, then ordinary uniforms
        u = np.concatenate([_edge_uniforms(cdf, n_buckets), gen.random(500)])
        got, rows = _guided_draw(cdf, u)
        assert np.array_equal(got, categorical_oracle(cdf[rows], np.tile(u, len(cdf))))

    @pytest.mark.parametrize("width", [2, 3, 13, 40])
    def test_all_but_last_entry_in_first_bucket(self, width):
        # every entry but the last in the first bucket: a span of width - 1
        probs = np.full((1, width), 1e-3 / width)
        probs[0, -1] = 1.0 - probs[0, :-1].sum()
        cdf = np.cumsum(probs, axis=1)
        sampler = game._GuidedCdf(cdf)
        assert cdf[0, -2] < 1.0 / sampler.n_buckets
        # no more probes than a binary search of the whole row
        assert len(sampler.steps) == (width - 1).bit_length() <= width.bit_length()
        u = np.concatenate([
            _edge_uniforms(cdf, sampler.n_buckets),
            np.random.default_rng(93).random(200) / sampler.n_buckets,
        ])
        got, rows = _guided_draw(cdf, u)
        assert np.array_equal(got, categorical_oracle(cdf[rows], u))

    def test_zero_probability_outcomes_never_drawn(self):
        probs = np.array([[0.0, 0.5, 0.0, 0.0, 0.5, 0.0]])
        cdf = np.cumsum(probs, axis=1)
        u = np.random.default_rng(93).random(10_000)
        draws, _ = _guided_draw(cdf, u)
        assert set(np.unique(draws)) == {1, 4}


@st.composite
def _cdf_rows(draw):
    """A nondecreasing CDF table of width 1-40: values spread over [0, 1], or
    clustered in one bucket, with runs of repeats (zero probability) and
    values on the bucket's edges."""
    width = draw(st.integers(1, 40))
    n_rows = draw(st.integers(1, 3))
    clustered = draw(st.booleans())
    repeats = draw(st.sampled_from([0.0, 0.3, 0.8]))
    # a last entry of exactly 1, or off it by rounding, or left as drawn
    end = draw(st.sampled_from([0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_buckets = _n_buckets(width)
    rows = []
    for _ in range(n_rows):
        low, high = 0.0, 1.0
        if clustered:
            low = gen.integers(n_buckets) / n_buckets
            high = low + 1.0 / n_buckets
        row = gen.uniform(low, high, width)
        row[gen.random(width) < 0.2] = low
        row[gen.random(width) < 0.2] = high
        row = np.sort(row)
        repeat = gen.random(width) < repeats
        repeat[0] = False
        row = row[np.maximum.accumulate(np.where(repeat, 0, np.arange(width)))]
        row[-1] = max(row[-1], end)
        rows.append(row)
    return np.array(rows)


class TestGuidedDrawProperty:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(cdf=_cdf_rows(), extra=st.lists(st.floats(0.0, 1.0), max_size=5))
    def test_matches_categorical_oracle(self, cdf, extra):
        u = np.concatenate([_edge_uniforms(cdf, _n_buckets(cdf.shape[1])), extra])
        got, rows = _guided_draw(cdf, u)
        assert np.array_equal(got, categorical_oracle(cdf[rows], np.tile(u, len(cdf))))


class TestBobWins:
    """Bob wins exactly when his inverse-CDF guess, capped at d - 1, is k."""

    @staticmethod
    def _tables(d):
        gen = np.random.default_rng(100)
        cdf = _cdf_table(gen, 2 * d, d).reshape(2, d, d)
        delta = np.cumsum(np.eye(d), axis=1)  # a guess that always equals k
        zero = np.zeros((d, d))  # an outcome that is never drawn
        return np.concatenate([cdf, delta[None], zero[None]])

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_matches_capped_oracle(self, d):
        bob_cdf = self._tables(d)
        rows = bob_cdf.reshape(-1, d)
        # every CDF value, so u sits on both bounds of every interval
        u = np.tile(_edge_uniforms(bob_cdf, 1), len(rows))
        r = np.repeat(np.arange(len(rows)), len(u) // len(rows))
        guess = np.minimum(categorical_oracle(rows[r], u), d - 1)
        won = game._BobWins(bob_cdf, d).won(r, u)
        assert np.array_equal(won, guess == r % d)

    def test_bounds_past_the_row_are_infinite(self):
        bob = game._BobWins(self._tables(5), 5)
        assert np.all(bob.lo.reshape(-1, 5)[:, 0] == -np.inf)
        assert np.all(bob.hi.reshape(-1, 5)[:, -1] == np.inf)
        assert np.all(np.isfinite(bob.lo.reshape(-1, 5)[:, 1:]))
        assert np.all(np.isfinite(bob.hi.reshape(-1, 5)[:, :-1]))


# Recorded from the summed-comparison draw this sampler replaced: random
# 5 x 2 state of rank 6, the complete MUB family, 150,000 trials (three
# chunks).  Per seed: total wins, then (trials, wins) per setting.
RECORDED_GAMES = {
    93: (36025, [(24918, 5640), (25248, 5672), (25036, 6544), (25027, 6123),
                 (24861, 5697), (24910, 6349)]),
    94: (36113, [(24986, 5730), (24948, 5567), (25337, 6706), (24957, 6144),
                 (25052, 5742), (24720, 6224)]),
    95: (35930, [(25074, 5748), (25098, 5667), (24952, 6579), (24849, 6039),
                 (24990, 5733), (25037, 6164)]),
}


class TestChunkedSampling:
    @pytest.mark.parametrize("seed", sorted(RECORDED_GAMES))
    def test_matches_recorded_games(self, seed):
        rho = random_bipartite(5, 2, 6, seed=92)
        result = simulate_game(rho, mub_family(5), 150_000, seed, stream=1)
        wins, per_setting = RECORDED_GAMES[seed]
        assert result.wins == wins
        assert [(e["trials"], e["wins"]) for e in result.per_setting] == per_setting

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_independent_of_chunk_size(self, monkeypatch, chunk):
        rho = random_bipartite(3, 2, 4, seed=94)
        args = (rho, mub_family(3), 5_000, 95)
        expected = simulate_game(*args)
        monkeypatch.setattr(game, "_CHUNK", chunk)
        assert simulate_game(*args) == expected

    # Each part starts at draw which * trials: trials 1, 3 and 5,003 put
    # the Alice and Bob parts inside a Philox block of four draws.
    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    @pytest.mark.parametrize("trials", [1, 3, 5_003])
    def test_matches_up_front_draw(self, monkeypatch, trials, chunk):
        rho = random_bipartite(3, 2, 4, seed=96)
        monkeypatch.setattr(game, "_CHUNK", chunk)
        result = simulate_game(rho, mub_family(3), trials, 97, stream=1)
        expected = game_counts_oracle(rho, mub_family(3), trials, 97, stream=1)
        assert [(e["trials"], e["wins"]) for e in result.per_setting] == expected
        assert result.wins == sum(w for _, w in expected)

    # Delta rows in Bob's tables (maximally entangled), rows with zero
    # entries and outcomes of probability 0 (|0><0| x rho_B), uniform rows
    # (maximally mixed): Bob's bounds at k = 0 and k = d - 1 are exercised.
    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("state", ["max-entangled", "product", "maximally-mixed"])
    def test_matches_up_front_draw_at_extreme_states(self, monkeypatch, state, d):
        if state == "max-entangled":
            rho = max_entangled_state(d)
        elif state == "product":
            ket0 = np.zeros((d, d))
            ket0[0, 0] = 1.0
            rho_b = psd(np.random.default_rng(101), 3)
            rho = DensityMatrix(np.kron(ket0, rho_b / np.trace(rho_b)), (d, 3))
        else:
            rho = DensityMatrix(np.eye(2 * d) / (2 * d), (d, 2))
        monkeypatch.setattr(game, "_CHUNK", 4096)
        result = simulate_game(rho, mub_family(d), 5_003, 102, stream=1)
        expected = game_counts_oracle(rho, mub_family(d), 5_003, 102, stream=1)
        assert [(e["trials"], e["wins"]) for e in result.per_setting] == expected

    def test_memory_does_not_grow_with_trials(self):
        rho = random_bipartite(3, 2, 4, seed=98)
        peaks = []
        for trials in (10**4, 10**6):
            tracemalloc.start()
            try:
                simulate_game(rho, mub_family(3), trials, 99)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # drawing every uniform up front would take 24 MB at 10^6 trials
        assert peaks[1] < 2 * peaks[0], peaks
