"""Host-speed calibration kernels.

On a shared host the same iteration can take up to twice as long from one
minute to the next, because other tenants compete for the cores. The harness
therefore times a fixed kernel right before and after every iteration and
reports iteration time divided by the mean of those two kernel times,
times the kernels' reference time: seconds on a host where each kernel
takes ``REFERENCE_S``.

Each kernel is numpy-only code shaped like one fairwalks layer, so it
slows down with the host the way that layer does, and it never touches
the package, so a change to the package cannot move it. A workload names
the kernels of the layers that dominate it.
"""

import time

import numpy as np

REFERENCE_S = 0.015
REPEATS = 3


def _walks(rng):
    """Scalar searchsorted calls in a Python loop, as in the walk loops."""
    cum = np.cumsum(rng.random(32))
    draws = rng.random(4000)

    def run():
        for x in draws:
            np.searchsorted(cum, x * cum[-1], side="right")

    return run


def _sgns(rng):
    """Mini-batch gathers, einsums and scatter-adds, as in SGNS training."""
    vocab, dim, batch, k = 350, 32, 350, 5
    w_in = rng.random((vocab, dim)) - 0.5
    w_out = rng.random((vocab, dim)) - 0.5
    centers = rng.integers(0, vocab, (6, batch))
    contexts = rng.integers(0, vocab, (6, batch))
    negatives = rng.integers(0, vocab, (6, batch * k))

    def run():
        for c_idx, x_idx, n_idx in zip(centers, contexts, negatives):
            c, x = w_in[c_idx], w_out[x_idx]
            n = w_out[n_idx].reshape(batch, k, dim)
            g_pos = 1.0 / (1.0 + np.exp(-np.einsum("bd,bd->b", c, x))) - 1.0
            g_neg = 1.0 / (1.0 + np.exp(-np.einsum("bkd,bd->bk", n, c)))
            np.add.at(w_in, c_idx, -1e-6 * (g_pos[:, None] * x + np.einsum("bk,bkd->bd", g_neg, n)))
            np.add.at(w_out, x_idx, -1e-6 * g_pos[:, None] * c)
            np.add.at(w_out, n_idx, -1e-6 * (g_neg[:, :, None] * c[:, None, :]).reshape(-1, dim))

    return run


def _propagation(rng):
    """Sparse row-normalized label spreading with reduceat, as in propagate."""
    n, degree, classes = 400, 15, 3
    cols = rng.integers(0, n, n * degree)
    norm = rng.random(n * degree) / degree
    starts = np.arange(0, n * degree, degree)
    y0 = rng.random((n, classes))

    def run():
        y = y0
        for _ in range(70):
            y = np.add.reduceat(norm[:, None] * y[cols], starts, axis=0)
            y[:8] = y0[:8]

    return run


KERNELS = {"walks": _walks, "sgns": _sgns, "propagation": _propagation}


class Calibration:
    """Times the named kernels together; a sample is the fastest of
    ``REPEATS`` back-to-back timings, which drops momentary stalls but
    keeps a slowdown that lasts."""

    def __init__(self, names):
        rng = np.random.default_rng(0)
        self._runs = [KERNELS[name](rng) for name in names]
        self.reference_s = REFERENCE_S * len(names)

    def __call__(self) -> float:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for run in self._runs:
                run()
            times.append(time.perf_counter() - start)
        return min(times)
