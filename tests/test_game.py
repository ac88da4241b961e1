import dataclasses
import tracemalloc

import numpy as np
import pytest
from conftest import cached_mubs, max_entangled_state, random_bipartite
from oracles import categorical_oracle, game_counts_oracle

from entguess import (
    DensityMatrix,
    ParameterError,
    SeedSpec,
    family_guess_prob,
    game,
    sic_povm,
    simulate_game,
)


class TestSimulateGame:
    def test_max_entangled_wins_always(self):
        result = simulate_game(max_entangled_state(2), cached_mubs(2), 10_000, SeedSpec(80))
        assert result.empirical_rate == 1.0
        assert result.wins == result.trials == 10_000

    def test_two_qubit_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        result = simulate_game(rho, cached_mubs(2), 100_000, SeedSpec(81))
        assert abs(result.analytic_rate - 0.5) < 1e-12
        assert abs(result.empirical_rate - 0.5) <= 4 * result.std_error

    def test_random_qutrit_within_band(self):
        rho = random_bipartite(3, 3, 6, seed=82)
        result = simulate_game(rho, cached_mubs(3), 100_000, SeedSpec(83))
        _, expected = family_guess_prob(rho, cached_mubs(3))
        assert abs(result.analytic_rate - expected) < 1e-12
        assert abs(result.empirical_rate - result.analytic_rate) <= 4 * result.std_error

    def test_per_setting_bands(self):
        rho = random_bipartite(3, 2, 4, seed=84)
        result = simulate_game(rho, cached_mubs(3), 200_000, SeedSpec(85))
        for entry in result.per_setting:
            gap = abs(entry["empirical_rate"] - entry["analytic_rate"])
            assert gap <= 5 * entry["std_error"], entry

    def test_bitwise_reproducible(self):
        rho = random_bipartite(2, 3, 4, seed=86)
        a = simulate_game(rho, cached_mubs(2), 50_000, SeedSpec(87, stream=2))
        b = simulate_game(rho, cached_mubs(2), 50_000, SeedSpec(87, stream=2))
        assert a.wins == b.wins
        assert a.empirical_rate == b.empirical_rate
        assert [e["wins"] for e in a.per_setting] == [e["wins"] for e in b.per_setting]

    def test_std_error_uses_analytic_rate(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        result = simulate_game(rho, cached_mubs(2), 10_000, SeedSpec(88))
        p = result.analytic_rate
        assert result.std_error == pytest.approx(np.sqrt(p * (1 - p) / 10_000))

    def test_rejects_non_basis_family(self):
        with pytest.raises(ParameterError):
            simulate_game(max_entangled_state(2), sic_povm(2), 100, SeedSpec(89))

    def test_rejects_zero_trials(self):
        with pytest.raises(ParameterError):
            simulate_game(max_entangled_state(2), cached_mubs(2), 0, SeedSpec(90))

    def test_result_serializes(self):
        result = simulate_game(max_entangled_state(2), cached_mubs(2), 100, SeedSpec(91))
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


class TestInverseCdfDraw:
    @pytest.mark.parametrize("width", [1, 2, 3, 8, 13, 16, 17])
    def test_matches_categorical_oracle(self, width):
        gen = np.random.default_rng(92)
        cdf = _cdf_table(gen, 9, width)
        values = np.unique(cdf)
        # every CDF value itself (where >= and > differ), its neighbours, the
        # ends of [0, 1], and ordinary uniforms
        u = np.concatenate([
            values,
            np.nextafter(values, 0.0),
            np.nextafter(values, 2.0),
            [0.0, 1.0],
            gen.random(500),
        ])
        u = np.tile(u, len(cdf))
        rows = np.repeat(np.arange(len(cdf)), len(u) // len(cdf))
        got = game._count_at_most(cdf, rows, u)
        assert np.array_equal(got, categorical_oracle(cdf[rows], u))

    def test_zero_probability_outcomes_never_drawn(self):
        probs = np.array([[0.0, 0.5, 0.0, 0.0, 0.5, 0.0]])
        cdf = np.cumsum(probs, axis=1)
        u = np.random.default_rng(93).random(10_000)
        draws = game._count_at_most(cdf, np.zeros(len(u), dtype=np.intp), u)
        assert set(np.unique(draws)) == {1, 4}


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
        result = simulate_game(rho, cached_mubs(5), 150_000, SeedSpec(seed, stream=1))
        wins, per_setting = RECORDED_GAMES[seed]
        assert result.wins == wins
        assert [(e["trials"], e["wins"]) for e in result.per_setting] == per_setting

    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_independent_of_chunk_size(self, monkeypatch, chunk):
        rho = random_bipartite(3, 2, 4, seed=94)
        args = (rho, cached_mubs(3), 5_000, SeedSpec(95))
        expected = simulate_game(*args)
        monkeypatch.setattr(game, "_CHUNK", chunk)
        assert simulate_game(*args) == expected

    # Each stream starts at draw which * trials: trials 1, 3 and 5,003 put
    # the Alice and Bob streams inside a Philox block of four draws.
    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    @pytest.mark.parametrize("trials", [1, 3, 5_003])
    def test_matches_up_front_draw(self, monkeypatch, trials, chunk):
        rho = random_bipartite(3, 2, 4, seed=96)
        seed = SeedSpec(97, stream=1)
        monkeypatch.setattr(game, "_CHUNK", chunk)
        result = simulate_game(rho, cached_mubs(3), trials, seed)
        expected = game_counts_oracle(rho, cached_mubs(3), trials, seed)
        assert [(e["trials"], e["wins"]) for e in result.per_setting] == expected
        assert result.wins == sum(w for _, w in expected)

    def test_memory_does_not_grow_with_trials(self):
        rho = random_bipartite(3, 2, 4, seed=98)
        peaks = []
        for trials in (10**4, 10**6):
            tracemalloc.start()
            try:
                simulate_game(rho, cached_mubs(3), trials, SeedSpec(99))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # drawing every uniform up front would take 24 MB at 10^6 trials
        assert peaks[1] < 2 * peaks[0], peaks
