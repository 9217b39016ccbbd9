import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairwalks.sampling import AliasTable


class TestAliasTable:
    def test_single_outcome(self):
        table = AliasTable([1.0])
        rng = np.random.default_rng(0)
        assert np.all(table.draw(rng, size=10) == 0)

    def test_empirical_frequencies_converge(self):
        probs = np.array([0.5, 0.25, 0.125, 0.125])
        table = AliasTable(probs)
        rng = np.random.default_rng(1)
        draws = table.draw(rng, size=200_000)
        freq = np.bincount(draws, minlength=4) / len(draws)
        np.testing.assert_allclose(freq, probs, atol=0.01)

    def test_unnormalized_input_accepted(self):
        table = AliasTable([2, 6])
        rng = np.random.default_rng(2)
        freq = np.bincount(table.draw(rng, size=100_000), minlength=2) / 100_000
        np.testing.assert_allclose(freq, [0.25, 0.75], atol=0.01)

    def test_deterministic_for_seeded_rng(self):
        table = AliasTable([0.1, 0.2, 0.7])
        a = table.draw(np.random.default_rng(7), size=1000)
        b = table.draw(np.random.default_rng(7), size=1000)
        assert np.array_equal(a, b)

    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=20), st.integers(0, 2**16))
    @settings(max_examples=30)
    def test_support_matches_distribution(self, weights, seed):
        table = AliasTable(weights)
        draws = table.draw(np.random.default_rng(seed), size=500)
        assert draws.min() >= 0 and draws.max() < len(weights)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            AliasTable([])
        with pytest.raises(ValueError):
            AliasTable([-0.5, 1.5])
        with pytest.raises(ValueError):
            AliasTable([0.0, 0.0])
