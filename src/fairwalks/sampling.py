"""Alias-method sampling from a fixed categorical distribution.

Setup is O(K); each draw is O(1). Used for negative sampling in the
embedding trainer, where millions of draws come from one distribution.
"""

import numpy as np


class AliasTable:
    """Walker alias table over a categorical distribution."""

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1 or len(probs) == 0:
            raise ValueError("probs must be a non-empty 1-d array")
        if np.any(probs < 0) or probs.sum() <= 0:
            raise ValueError("probs must be non-negative and sum to > 0")
        probs = probs / probs.sum()

        k = len(probs)
        accept = np.zeros(k, dtype=np.float64)
        alias = np.zeros(k, dtype=np.int64)
        scaled = probs * k

        small = [i for i in range(k) if scaled[i] < 1.0]
        large = [i for i in range(k) if scaled[i] >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            accept[s] = scaled[s]
            alias[s] = l
            scaled[l] -= 1.0 - scaled[s]
            if scaled[l] < 1.0:
                small.append(l)
            else:
                large.append(l)
        for i in large:
            accept[i] = 1.0
        for i in small:
            accept[i] = 1.0  # numerical leftovers

        self.accept = accept
        self.alias = alias
        self.n = k

    def draw(self, rng: np.random.Generator, size):
        """An ndarray of ``size`` sampled indices."""
        idx = rng.integers(0, self.n, size=size)
        toss = rng.random(size=size)
        return np.where(toss < self.accept[idx], idx, self.alias[idx])
