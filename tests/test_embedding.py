import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import fairwalks.embedding as embedding_mod
from fairwalks.embedding import (
    FINAL_LR_FRACTION,
    NEGATIVE_CHUNK,
    PairStream,
    TrainingDiverged,
    _Trainer,
    build_frequency_table,
    load_embeddings,
    negative_distribution,
    save_embeddings,
    scatter_rows,
    sgns_pair_loss,
    softplus,
    train,
)
from fairwalks.graph import generate_sbm
from fairwalks.pipeline import build_dataset
from fairwalks.sampling import AliasTable
from fairwalks.seeds import rng_for
from fairwalks.walks import (
    PAD,
    TransitionWeights,
    WalkConfig,
    generate_walks,
    pad_walks,
)
from tests.test_acceptance import acceptance_config


class TestFrequencyTable:
    def test_counts(self):
        counts = build_frequency_table(pad_walks([[0, 1, 0]]), node_count=2)
        assert counts.tolist() == [2, 1]

    def test_uniform_counts_give_uniform_distribution(self):
        dist = negative_distribution([7, 7, 7, 7])
        np.testing.assert_allclose(dist, 0.25)

    def test_power_ratio(self):
        dist = negative_distribution([16, 1])
        assert dist[0] / dist[1] == pytest.approx(8.0)  # 16**0.75 == 8


class TestPairLoss:
    def test_zero_vectors(self):
        k = 4
        loss, gc, gx, gn = sgns_pair_loss(
            np.zeros(8), np.zeros(8), np.zeros((k, 8))
        )
        assert loss == pytest.approx((1 + k) * math.log(2))
        assert np.all(gc == 0) and np.all(gx == 0) and np.all(gn == 0)

    def test_saturated_pair_loss_vanishes(self):
        center = np.full(4, 10.0)
        context = np.full(4, 10.0)
        loss, *_ = sgns_pair_loss(center, context, np.empty((0, 4)))
        assert loss == pytest.approx(0.0, abs=1e-6)

    def test_extreme_dots_stay_finite(self):
        center = np.full(4, 500.0)
        loss, gc, gx, gn = sgns_pair_loss(center, -center, center[None, :])
        assert np.isfinite(loss)
        assert np.isfinite(gc).all() and np.isfinite(gx).all() and np.isfinite(gn).all()

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(100):
            dim = 8
            k = 3
            center = rng.normal(0, 1, dim)
            context = rng.normal(0, 1, dim)
            negatives = rng.normal(0, 1, (k, dim))
            _, gc, gx, gn = sgns_pair_loss(center, context, negatives)

            def loss_at(c, x, n):
                return sgns_pair_loss(c, x, n)[0]

            def check(analytic, bump):
                numeric = np.zeros_like(analytic)
                it = np.nditer(analytic, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    plus = bump(idx, +h)
                    minus = bump(idx, -h)
                    numeric[idx] = (plus - minus) / (2 * h)
                scale = np.maximum(np.abs(analytic), 1e-8)
                assert np.max(np.abs(numeric - analytic) / scale) <= 1e-4

            def bump_center(idx, eps):
                c = center.copy()
                c[idx] += eps
                return loss_at(c, context, negatives)

            def bump_context(idx, eps):
                x = context.copy()
                x[idx] += eps
                return loss_at(center, x, negatives)

            def bump_neg(idx, eps):
                n = negatives.copy()
                n[idx] += eps
                return loss_at(center, context, n)

            check(gc, bump_center)
            check(gx, bump_context)
            check(gn, bump_neg)


def clique_pair_corpus(seed=0, clique=12, walks_per_node=6, walk_length=15):
    edges = []
    for base in (0, clique):
        for i in range(clique):
            for j in range(i + 1, clique):
                edges.append((base + i, base + j))
    from tests.conftest import make_graph

    g = make_graph(edges, n=2 * clique)
    tw = TransitionWeights.from_graph(g)
    cfg = WalkConfig(walks_per_node=walks_per_node, walk_length=walk_length, seed=seed)
    return generate_walks(tw, cfg), 2 * clique, clique


class TestTrain:
    def test_epochs_below_one_rejected(self):
        # no epochs would return the untrained initialization
        corpus, n, _ = clique_pair_corpus()
        for epochs in (0, -1):
            with pytest.raises(ValueError, match=f"epochs must be >= 1, got {epochs}"):
                train(corpus.paths, n, dim=8, epochs=epochs)

    @pytest.mark.parametrize("lr", [0.0, -0.01, float("nan"), float("inf")])
    def test_learning_rate_not_finite_and_positive_rejected(self, monkeypatch, lr):
        # a zero rate would return the untrained initialization; nan and inf
        # would run a whole epoch before diverging
        corpus, n, _ = clique_pair_corpus()
        monkeypatch.setattr(embedding_mod, "PairStream", lambda *a: pytest.fail("trained"))
        with pytest.raises(ValueError, match=f"learning_rate must be finite and > 0, got {lr}"):
            train(corpus.paths, n, dim=8, learning_rate=lr)

    def test_zero_negatives_trains(self):
        corpus, n, _ = clique_pair_corpus(seed=2)
        m = train(corpus.paths, n, dim=8, negatives=0, epochs=3, seed=2)
        first, *_, last = m.meta["epoch_mean_loss"]
        assert np.isfinite(m.vectors).all() and np.isfinite(m.context_vectors).all()
        assert last < first < math.log(2)
        assert m.meta["negatives"] == 0

    def test_bits_do_not_depend_on_blas_threads(self):
        script = (
            "import hashlib, sys\n"
            "from tests.test_embedding import acceptance_walks\n"
            "from fairwalks.embedding import train\n"
            "corpus, n = acceptance_walks(walks_per_node=1)\n"
            "m = train(corpus.paths, n, dim=32, epochs=1, seed=1)\n"
            "bits = m.vectors.tobytes() + m.context_vectors.tobytes()\n"
            "sys.stdout.write(hashlib.sha256(bits).hexdigest())\n"
        )
        root = pathlib.Path(__file__).resolve().parents[1]
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
            out = subprocess.run([sys.executable, "-c", script], env=env, cwd=root,
                                 capture_output=True, text=True, check=True)
            digests.add(out.stdout)
        assert len(digests) == 1

    def test_exact_mode_deterministic(self):
        corpus, n, _ = clique_pair_corpus()
        m1 = train(corpus.paths, n, dim=8, epochs=2, seed=3)
        m2 = train(corpus.paths, n, dim=8, epochs=2, seed=3)
        assert np.array_equal(m1.vectors, m2.vectors)
        assert np.array_equal(m1.context_vectors, m2.context_vectors)

    def test_loss_decreases_by_epoch_five(self):
        corpus, n, _ = clique_pair_corpus()
        m = train(corpus.paths, n, dim=16, epochs=5, seed=1)
        losses = m.meta["epoch_mean_loss"]
        assert losses[4] < losses[0]

    def test_window_below_one_rejected(self):
        corpus, n, _ = clique_pair_corpus()
        for window in (0, -2):
            with pytest.raises(ValueError, match=f"window must be >= 1, got {window}"):
                train(corpus.paths, n, dim=8, window=window)

    def test_repeated_pair_walk_monotone_loss(self):
        walks = [[0, 1]] * 50
        m = train(
            pad_walks(walks), 2, dim=4, window=2, negatives=2, epochs=10,
            learning_rate=0.05, seed=2,
        )
        losses = m.meta["epoch_mean_loss"]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_cliques_separate_in_cosine_similarity(self):
        corpus, n, clique = clique_pair_corpus(seed=5)
        m = train(corpus.paths, n, dim=16, epochs=5, seed=5)
        vecs = m.vectors / np.linalg.norm(m.vectors, axis=1, keepdims=True)
        sims = vecs @ vecs.T
        mask_a = np.arange(n) < clique
        intra = np.concatenate(
            [sims[np.ix_(mask_a, mask_a)].ravel(), sims[np.ix_(~mask_a, ~mask_a)].ravel()]
        )
        inter = sims[np.ix_(mask_a, ~mask_a)].ravel()
        assert intra.mean() > inter.mean()

    def test_two_block_sbm_nearest_neighbor_floor(self):
        g, _ = generate_sbm([60, 60], 0.2, 0.01, seed=17)
        tw = TransitionWeights.from_graph(g)
        corpus = generate_walks(tw, WalkConfig(walks_per_node=8, walk_length=20, seed=17))
        m = train(corpus.paths, g.node_count, dim=16, window=5, epochs=3, seed=17)
        blocks = np.array([int(b[5:]) for b in g.attributes["block"]])
        vecs = m.vectors / np.linalg.norm(m.vectors, axis=1, keepdims=True)
        sims = vecs @ vecs.T
        np.fill_diagonal(sims, -np.inf)
        nearest = sims.argmax(axis=1)
        accuracy = (blocks[nearest] == blocks).mean()
        assert accuracy >= 0.95


def reference_pairs(walk, reach):
    """Per-walk pair order: offset by offset, forward then backward, a pair
    kept when its offset is at most ``reach`` at its center's position."""
    arr, reach = np.asarray(walk, dtype=np.int64), np.asarray(reach)
    centers, contexts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for offset in range(1, len(arr)):
        left = np.arange(len(arr) - offset)
        for center, step in ((left, offset), (left + offset, -offset)):
            center = center[reach[center] >= offset]
            centers.append(arr[center])
            contexts.append(arr[center + step])
    return np.concatenate(centers), np.concatenate(contexts)


def mixed_walks(seed=0, count=120):
    rng = np.random.default_rng(seed)
    walks = [rng.integers(0, 30, rng.integers(1, 14)).tolist() for _ in range(count)]
    return walks + [[4], [7, 7], [1, 2, 3]]


def reach_for(kind, paths, window, seed=0):
    """Every (walk, position)'s window: ``window`` itself (the fixed window)
    or drawn by ``PairStream.draw``."""
    stream = PairStream(paths, window)
    if kind == "full":
        return np.full((len(paths), stream.width), window)
    return stream.draw(np.random.default_rng(seed))


REACHES = ["full", "drawn"]


def streamed(stream, order, batch_size, reach):
    """All (centers, contexts) that ``stream`` yields, batches joined."""
    batches = list(stream.batches(order, batch_size, reach))
    return np.concatenate([b[0] for b in batches]), np.concatenate([b[1] for b in batches])


class TestPairStream:
    @pytest.mark.parametrize("kind", REACHES)
    @pytest.mark.parametrize("window", [1, 3, 5, 20])
    def test_matches_per_walk_reference(self, window, kind):
        walks = mixed_walks()
        order = np.random.default_rng(window).permutation(len(walks))
        paths = pad_walks(walks)
        stream, reach = PairStream(paths, window), reach_for(kind, paths, window, seed=window)
        expected = [reference_pairs(walks[i], reach[i]) for i in order]
        for got, want in zip(
            streamed(stream, order, 37, reach),
            (np.concatenate([e[0] for e in expected]), np.concatenate([e[1] for e in expected])),
        ):
            np.testing.assert_array_equal(got, want)
        assert stream.count(reach) == sum(len(e[0]) for e in expected)

    @pytest.mark.parametrize("kind", REACHES)
    def test_extra_pad_columns_change_nothing(self, kind):
        paths = pad_walks(mixed_walks(seed=3))
        wider = np.hstack([paths, np.full((len(paths), 4), PAD)])
        order = np.random.default_rng(3).permutation(len(paths))
        stream, wide = PairStream(paths, 5), PairStream(wider, 5)
        reach, wide_reach = reach_for(kind, paths, 5, seed=3), reach_for(kind, wider, 5, seed=3)
        assert wide.count(wide_reach) == stream.count(reach)
        for (c1, x1), (c2, x2) in zip(stream.batches(order, 29, reach),
                                      wide.batches(order, 29, wide_reach), strict=True):
            np.testing.assert_array_equal(c1, c2)
            np.testing.assert_array_equal(x1, x2)

    @pytest.mark.parametrize("kind", REACHES)
    def test_length_one_walks_have_no_pairs(self, kind):
        paths = pad_walks([[3], [1], [2]])
        stream, reach = PairStream(paths, window=5), reach_for(kind, paths, 5)
        assert stream.count(reach) == 0
        assert list(stream.batches(np.arange(3), 8, reach)) == []

    @pytest.mark.parametrize("kind", REACHES)
    @pytest.mark.parametrize("block_pairs", [1, 50, 1 << 20])
    def test_full_batches_but_the_last(self, monkeypatch, block_pairs, kind):
        monkeypatch.setattr(embedding_mod, "BLOCK_PAIRS", block_pairs)
        paths = pad_walks(mixed_walks(seed=1))
        stream, reach = PairStream(paths, window=4), reach_for(kind, paths, 4, seed=1)
        sizes = [len(c) for c, _ in stream.batches(np.arange(123), 64, reach)]
        assert all(size == 64 for size in sizes[:-1])
        assert 0 < sizes[-1] <= 64
        assert sum(sizes) == stream.count(reach)

    def test_block_size_leaves_vectors_bitwise_identical(self, monkeypatch):
        corpus, n, _ = clique_pair_corpus(seed=4)
        reference = train(corpus.paths, n, dim=8, epochs=2, seed=4)
        for block_pairs in (1, 333, 1 << 24):
            monkeypatch.setattr(embedding_mod, "BLOCK_PAIRS", block_pairs)
            m = train(corpus.paths, n, dim=8, epochs=2, seed=4)
            assert np.array_equal(m.vectors, reference.vectors)
            assert np.array_equal(m.context_vectors, reference.context_vectors)
            assert m.meta["epoch_mean_loss"] == reference.meta["epoch_mean_loss"]


class TestSampledWindow:
    def test_kept_fraction_at_each_offset(self):
        # tokens are positions, so a pair's offset is |center - context|
        window, length, count = 5, 30, 2000
        paths = pad_walks([list(range(length))] * count)
        stream = PairStream(paths, window)
        centers, contexts = streamed(stream, np.arange(count), 1024,
                                     stream.draw(np.random.default_rng(0)))
        kept = np.bincount(np.abs(centers - contexts), minlength=window + 1)
        for offset in range(1, window + 1):
            fits = 2 * (length - offset) * count
            want = (window - offset + 1) / window
            # both pairs of a center at one offset share its draw: count centers, not pairs
            error = math.sqrt(want * (1 - want) / (fits / 2))
            assert abs(kept[offset] / fits - want) <= 5 * error

    @pytest.mark.parametrize("window", [1, 3, 5, 20])
    def test_count_equals_pairs_streamed(self, window):
        walks = mixed_walks(seed=window) + [[9]] * 5
        paths = np.hstack([pad_walks(walks), np.full((len(walks), 3), PAD)])
        stream = PairStream(paths, window)
        order = np.random.default_rng(window).permutation(len(walks))
        for epoch in range(5):
            reach = stream.draw(rng_for(window, "window", epoch))
            brute = sum(len(reference_pairs(w, reach[i])[0]) for i, w in enumerate(walks))
            assert stream.count(reach) == len(streamed(stream, order, 37, reach)[0]) == brute

    def test_pairs_do_not_depend_on_batch_size(self):
        paths = pad_walks(mixed_walks(seed=6))
        stream = PairStream(paths, 5)
        order = np.random.default_rng(6).permutation(len(paths))
        reach = stream.draw(np.random.default_rng(6))
        want = streamed(stream, order, 1, reach)
        for batch_size in (7, 64, 10**6):
            got = streamed(stream, order, batch_size, reach)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("window, length, dtype", [
        (5, 30, np.uint8), (1000, 14, np.uint8), (300, 400, np.uint16), (5000, 300, np.uint16),
    ])
    def test_windows_fit_the_narrowest_unsigned_type(self, window, length, dtype):
        stream = PairStream(pad_walks([list(range(length)), [0]]), window)
        reach = stream.draw(np.random.default_rng(0))
        assert reach.dtype == dtype and reach.shape == (2, length)
        assert reach.min() >= 1 and reach.max() <= min(window, length - 1)

    def test_meta_records_the_sampled_window(self):
        corpus, n, _ = clique_pair_corpus()
        meta = train(corpus.paths, n, dim=4, epochs=1).meta
        assert meta["window_sampled"] is True and meta["window"] == 5


class TestScatterRows:
    def test_matches_sequential_add_at_on_duplicates(self):
        rng = np.random.default_rng(9)
        params = rng.normal(0, 1, (40, 6))
        rows = rng.integers(0, 5, 500)  # heavy repeats over 5 of 40 rows
        grads = rng.normal(0, 1, (500, 6))
        expected = params.copy()
        np.add.at(expected, rows, -0.05 * grads)
        slot, bins = np.empty(40, dtype=np.int64), np.empty((500, 6), dtype=np.int64)
        scatter_rows(params, rows, grads, 0.05, slot, np.arange(3000).reshape(500, 6), bins)
        np.testing.assert_allclose(params, expected, rtol=0, atol=1e-12)


def chunked_pair_step(w_in, w_out, centers, contexts, neg, lr):
    """Per-pair SGNS step from ``sgns_pair_loss``: pair i meets the negatives of
    chunk ``i // NEGATIVE_CHUNK`` except those equal to its context. Returns
    (loss, w_in, w_out) after the summed update."""
    want_in, want_out, want_loss = w_in.copy(), w_out.copy(), 0.0
    for i, (c, x) in enumerate(zip(centers, contexts)):
        negs = neg[i // NEGATIVE_CHUNK]
        negs = negs[negs != x]
        pair_loss, gc, gx, gn = sgns_pair_loss(w_in[c], w_out[x], w_out[negs])
        want_loss += pair_loss
        want_in[c] -= lr * gc
        want_out[x] -= lr * gx
        np.add.at(want_out, negs, -lr * gn)
    return want_loss, want_in, want_out


class TestBatchStep:
    def test_equals_summed_pair_gradients(self):
        rng = np.random.default_rng(3)
        n, d, k, b, lr = 6, 5, 3, 16, 0.1
        w_in = rng.normal(0, 0.5, (n, d))
        w_out = rng.normal(0, 0.5, (n, d))
        table = AliasTable(np.full(n, 1.0 / n))
        trainer = _Trainer(np.vstack([w_in, w_out]), table, k, lr, 10**9, b)
        centers = rng.integers(0, n, b)
        contexts = rng.integers(0, n, b)
        loss = trainer.process(centers, contexts, np.random.default_rng(7))

        # same draws, one row of k per chunk; negatives equal to the context are masked out
        neg = table.draw(np.random.default_rng(7), size=(-(-b // NEGATIVE_CHUNK), k))
        assert (neg[np.arange(b) // NEGATIVE_CHUNK] == contexts[:, None]).any()
        want_loss, want_in, want_out = chunked_pair_step(w_in, w_out, centers, contexts, neg, lr)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        np.testing.assert_allclose(trainer.w_in, want_in, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trainer.w_out, want_out, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("b", [1, 7, 10, 23, 30])
    def test_short_batch_after_full_one_matches_pair_oracle(self, b):
        # a full batch first leaves every buffer dirty; the short batch's
        # padding pairs past b must then add no loss and no gradient
        rng = np.random.default_rng(b)
        n, d, k, cap, lr = 9, 4, 3, 30, 0.1
        table = AliasTable(np.full(n, 1.0 / n))
        trainer = _Trainer(rng.normal(0, 0.5, (2 * n, d)), table, k, lr, 10**9, cap)
        trainer.process(rng.integers(0, n, cap), rng.integers(0, n, cap), rng)
        trainer.pairs_done = 0  # the second step runs at lr, as the oracle's does
        w_in, w_out = trainer.w_in.copy(), trainer.w_out.copy()
        centers, contexts = rng.integers(0, n, b), rng.integers(0, n, b)
        loss = trainer.process(centers, contexts, np.random.default_rng(11))

        neg = table.draw(np.random.default_rng(11), size=(-(-b // NEGATIVE_CHUNK), k))
        want_loss, want_in, want_out = chunked_pair_step(w_in, w_out, centers, contexts, neg, lr)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        np.testing.assert_allclose(trainer.w_in, want_in, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trainer.w_out, want_out, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("b, k", [(16, 3), (7, 5), (30, 4), (23, 0)])
    def test_gathers_two_rows_per_pair_and_k_per_chunk(self, monkeypatch, b, k):
        n = 12
        trainer = _Trainer(np.zeros((2 * n, 4)), AliasTable(np.full(n, 1.0 / n)), k, 0.1,
                           10**9, 30)
        gathered = []
        original = np.take

        def counted(a, indices, *args, **kwargs):
            if a is trainer.params:
                gathered.append(len(indices))
            return original(a, indices, *args, **kwargs)

        monkeypatch.setattr(embedding_mod.np, "take", counted)
        rng = np.random.default_rng(0)
        trainer.process(rng.integers(0, n, b), rng.integers(0, n, b), rng)
        assert gathered == [2 * b + math.ceil(b / NEGATIVE_CHUNK) * k]


class TestSoftplus:
    TAILS = [0.0, -0.0, 1e-300, -1e-300, 1e308, -1e308]

    def kernel(self, z):
        return softplus(z, np.empty_like(z), np.empty_like(z))

    def test_within_two_ulp_of_logaddexp(self):
        z = np.concatenate([np.linspace(-750.0, 750.0, 150_001), self.TAILS])
        want = np.logaddexp(0.0, z)
        assert np.all(np.abs(self.kernel(z) - want) <= 2 * np.spacing(np.abs(want)))

    def test_finite_at_both_tails(self):
        z = np.array([-1e308, -800.0, -40.0, 40.0, 800.0, 1e308])
        sp = self.kernel(z)
        assert np.isfinite(sp).all()
        assert sp[0] == 0.0 and sp[-1] == 1e308

    def test_sigmoid_in_unit_interval_and_exact_at_far_tails(self):
        z = np.concatenate([np.linspace(-750.0, 750.0, 15_001), self.TAILS])
        sigmoid = np.exp(z - self.kernel(z))
        assert np.all((sigmoid >= 0.0) & (sigmoid <= 1.0))
        assert sigmoid[-1] == 0.0 and sigmoid[-2] == 1.0

    @pytest.mark.parametrize("b, k", [(16, 3), (8, 1), (4, 0)])
    def test_untrained_batch_loss_is_k_plus_one_ln2_per_pair(self, b, k):
        # zero parameters make every logit 0; negatives all draw node 0,
        # which is never a context, so no negative is masked
        assert self.kernel(np.zeros(1))[0] == math.log(2)
        n = 5
        table = AliasTable(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        trainer = _Trainer(np.zeros((2 * n, 4)), table, k, 0.1, 10**9, b)
        rng = np.random.default_rng(0)
        loss = trainer.process(rng.integers(0, n, b), rng.integers(1, n, b), rng)
        # b (k + 1) equal terms summed in any order the BLAS dot kernel picks
        bound = b * (k + 1) * sys.float_info.epsilon
        assert math.isclose(loss / b, (k + 1) * math.log(2), rel_tol=bound, abs_tol=0.0)


def reference_scatter(params, rows, grads, scale):
    """Sorted compact ids from ``np.unique``, then one ``np.bincount``."""
    dim = params.shape[1]
    unique, inverse = np.unique(rows, return_inverse=True)
    bins = (inverse * dim)[:, None] + np.arange(dim)
    summed = np.bincount(bins.ravel(), weights=grads.ravel(), minlength=len(unique) * dim)
    summed *= -scale
    summed = summed.reshape(len(unique), dim)
    summed += params[unique]
    params[unique] = summed


def reference_train(walks, node_count, dim, window, negatives, epochs, learning_rate, seed,
                    batch_size):
    """SGNS with separate input and context matrices: two gathers and two
    scatters per batch, each chunk of ``NEGATIVE_CHUNK`` pairs sharing its
    negatives, softplus as max(z, 0) + log1p(e^-|z|). Each epoch draws a
    window uniform in 1..window per (walk, position) from the "window"
    stream and takes every walk's pairs from ``reference_pairs``. Returns
    (vectors, context vectors, epoch losses, epoch pair counts)."""
    table = AliasTable(negative_distribution(build_frequency_table(pad_walks(walks), node_count)))
    width = max(len(walk) for walk in walks)
    epoch_pairs = []
    for epoch in range(epochs):
        reach = rng_for(seed, "window", epoch).integers(1, window + 1, size=(len(walks), width))
        order = rng_for(seed, "epoch", epoch).permutation(len(walks))
        pairs = [reference_pairs(walks[i], reach[i]) for i in order]
        epoch_pairs.append((np.concatenate([p[0] for p in pairs]),
                            np.concatenate([p[1] for p in pairs])))
    w_in = (rng_for(seed, "init").random((node_count, dim)) - 0.5) / dim
    w_out = np.zeros((node_count, dim))
    batch_size = max(8, min(batch_size, node_count))
    total_pairs = max(sum(len(centers) for centers, _ in epoch_pairs), 1)
    c = NEGATIVE_CHUNK
    done, losses = 0, []
    for epoch, (all_centers, all_contexts) in enumerate(epoch_pairs):
        rng = rng_for(seed, "sgd", epoch)
        loss_sum = 0.0
        for start in range(0, len(all_centers), batch_size):
            centers = all_centers[start : start + batch_size]
            contexts = all_contexts[start : start + batch_size]
            b = len(centers)
            m = -(-b // c)
            frac = min(done / total_pairs, 1.0)
            lr = learning_rate * (1.0 - frac * (1.0 - FINAL_LR_FRACTION))
            neg = table.draw(rng, size=(m, negatives))
            chunk = np.arange(b) // c
            live = np.zeros((m * c, negatives))
            live[:b] = neg[chunk] != contexts[:, None]
            c_vec, x_vec, n_vec = w_in[centers], w_out[contexts], w_out[neg]
            padded = np.zeros((m * c, dim))
            padded[:b] = c_vec
            padded = padded.reshape(m, c, dim)
            # the b negated positive logits, then the (m, c, k) negative ones;
            # the weight is -1 per positive and the live mask per negative
            z = np.concatenate([-np.einsum("bd,bd->b", c_vec, x_vec),
                                np.matmul(padded, n_vec.transpose(0, 2, 1)).ravel()])
            weight = np.concatenate([np.full(b, -1.0), live.ravel()])
            sp = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
            loss_sum += float(np.vdot(sp, np.abs(weight)))
            coef = np.exp(z - sp) * weight
            coef_pos, coef_neg = coef[:b], coef[b:].reshape(m, c, negatives)
            grad_in = x_vec * coef_pos[:, None]
            grad_in += np.matmul(coef_neg, n_vec).reshape(m * c, dim)[:b]
            grad_neg = np.matmul(coef_neg.transpose(0, 2, 1), padded).reshape(-1, dim)
            reference_scatter(w_in, centers, grad_in, lr)
            reference_scatter(w_out, np.concatenate([contexts, neg.ravel()]),
                              np.vstack([c_vec * coef_pos[:, None], grad_neg]), lr)
            done += b
        losses.append(loss_sum / max(len(all_centers), 1))
    return w_in, w_out, losses, [len(centers) for centers, _ in epoch_pairs]


def acceptance_walks(walks_per_node):
    g = build_dataset(acceptance_config(1))
    cfg = WalkConfig(walks_per_node=walks_per_node, walk_length=30, seed=1)
    return generate_walks(TransitionWeights.from_graph(g), cfg), g.node_count


class TestAgainstReferenceTrainer:
    @pytest.mark.parametrize(
        "walks, n, kwargs",
        [
            # walks of 1..13 tokens against window 5, last batch of 37 short
            (mixed_walks(seed=0), 30, dict(dim=8, window=5, negatives=5, batch_size=37)),
            (mixed_walks(seed=2), 30, dict(dim=6, window=20, negatives=1, batch_size=11)),
            # three tokens: most batches draw negatives equal to their context;
            # a batch of 8 is one part-filled chunk
            ([[0, 1, 2, 1], [2, 0], [1]] * 9, 3, dict(dim=4, window=2, negatives=4, batch_size=8)),
            (mixed_walks(seed=4), 30, dict(dim=5, window=3, negatives=0, batch_size=25)),
        ],
    )
    def test_bitwise_equal(self, walks, n, kwargs):
        m = train(pad_walks(walks), n, epochs=3, learning_rate=0.05, seed=4, **kwargs)
        w_in, w_out, losses, pairs = reference_train(
            walks, n, epochs=3, learning_rate=0.05, seed=4, **kwargs
        )
        # every epoch ends on a short batch, and the drawn windows vary its pairs
        assert all(count % max(8, min(kwargs["batch_size"], n)) for count in pairs)
        assert len(set(pairs)) > 1
        assert m.vectors.tobytes() == w_in.tobytes()
        assert m.context_vectors.tobytes() == w_out.tobytes()
        assert m.meta["epoch_mean_loss"] == losses

    def test_acceptance_walks_bitwise_equal(self):
        corpus, n = acceptance_walks(walks_per_node=1)
        m = train(corpus.paths, n, dim=16, epochs=1, seed=1)
        w_in, w_out, losses, _ = reference_train(
            corpus.walks, n, dim=16, window=5, negatives=5, epochs=1, learning_rate=0.025,
            seed=1, batch_size=1024,
        )
        assert m.vectors.tobytes() == w_in.tobytes()
        assert m.context_vectors.tobytes() == w_out.tobytes()
        assert m.meta["epoch_mean_loss"] == losses


class TestDivergence:
    def test_exploding_loss_raises(self):
        corpus, n = acceptance_walks(walks_per_node=2)
        with pytest.raises(TrainingDiverged, match=r"epoch 0 .*learning rate \(currently 0.5\)"):
            train(corpus.paths, n, dim=32, epochs=2, learning_rate=0.5, seed=1)

    def test_recovering_loss_passes(self):
        # negatives shared by a chunk take c pairs' summed step at once, so
        # the rate that overshoots and recovers is lower than per-pair draws';
        # on this corpus and seed it overshoots and recovers from 0.190 to 0.198
        corpus, n = acceptance_walks(walks_per_node=1)
        m = train(corpus.paths, n, dim=32, epochs=2, learning_rate=0.194, seed=3)
        first, last = m.meta["epoch_mean_loss"]
        assert first > 6 * math.log(2) > last


class TestEmbeddingIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        saved = rng.normal(0, 1, (5, 3))
        path = tmp_path / "emb.txt"
        save_embeddings(saved, path, tokens=["a", "b", "c", "d", "e"])
        tokens, vectors = load_embeddings(path)
        assert tokens == ["a", "b", "c", "d", "e"]
        np.testing.assert_array_equal(vectors, saved)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\na 0.0 0.0 0.0\n")
        with pytest.raises(ValueError):
            load_embeddings(path)

    def test_bytes_match_per_element_formatter(self, tmp_path):
        vectors = np.array([[-0.0, 1e-300, 3.0], [2.0, -5e-324, 0.1], [1e16, -7.0, 2.5e-8]])
        path = tmp_path / "emb.txt"
        save_embeddings(vectors, path, [str(i) for i in range(len(vectors))])
        want = "3 3\n" + "".join(
            f"{i} " + " ".join(repr(float(x)) for x in row) + "\n" for i, row in enumerate(vectors)
        )
        assert path.read_text() == want

    @pytest.mark.parametrize("cells", [1, 7, 1 << 16])
    def test_blocked_load_matches_one_float_per_value(self, tmp_path, monkeypatch, cells):
        # one row per block, two rows per block with a partial last one, one block
        monkeypatch.setattr(embedding_mod, "LOAD_BLOCK_CELLS", cells)
        rng = np.random.default_rng(4)
        saved = rng.normal(0, 1, (5, 3)) * 10.0 ** rng.integers(-300, 300, (5, 3))
        saved[0] = [-0.0, 5e-324, float("inf")]
        path = tmp_path / "emb.txt"
        save_embeddings(saved, path, tokens=list("abcde"))
        lines = path.read_text().splitlines()[1:]
        want = np.array([[float(x) for x in line.split()[1:]] for line in lines])
        tokens, vectors = load_embeddings(path)
        assert tokens == list("abcde")
        assert vectors.shape == (5, 3)
        assert vectors.tobytes() == want.tobytes() == saved.tobytes()

    @pytest.mark.parametrize(("text", "message"), [
        ("5\na 1.0\n", "malformed header"),
        ("2 2\na 1.0 2.0\nb 1.0\n", "row has 1 values, expected 2"),
        ("1000000000 2\na 1.0 2.0\n\nb 3.0 4.0\n", "header claims 1000000000 rows, found 2"),
        ("1 2\na 1.0 2.0\nb 3.0 4.0\n", "header claims 1 rows, found 2"),
    ])
    def test_load_errors(self, tmp_path, text, message):
        path = tmp_path / "emb.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
            load_embeddings(path)
