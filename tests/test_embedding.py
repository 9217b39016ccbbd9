import math

import numpy as np
import pytest

import fairwalks.embedding as embedding_mod
from fairwalks.embedding import (
    EmbeddingMatrix,
    PairStream,
    _Trainer,
    build_frequency_table,
    load_embeddings,
    negative_distribution,
    save_embeddings,
    scatter_rows,
    sgns_pair_loss,
    train,
)
from fairwalks.graph import generate_sbm
from fairwalks.sampling import AliasTable
from fairwalks.walks import TransitionWeights, WalkConfig, generate_walks


class TestFrequencyTable:
    def test_counts(self):
        counts = build_frequency_table([[0, 1, 0]], node_count=2)
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
    def test_zero_epochs_returns_initialization(self):
        corpus, n, _ = clique_pair_corpus()
        m1 = train(corpus.walks, n, dim=8, epochs=0, seed=7)
        m2 = train(corpus.walks, n, dim=8, epochs=0, seed=7)
        assert np.array_equal(m1.vectors, m2.vectors)
        assert np.all(m1.context_vectors == 0)
        assert np.all(np.abs(m1.vectors) <= 0.5 / 8)

    def test_exact_mode_deterministic(self):
        corpus, n, _ = clique_pair_corpus()
        m1 = train(corpus.walks, n, dim=8, epochs=2, seed=3)
        m2 = train(corpus.walks, n, dim=8, epochs=2, seed=3)
        assert np.array_equal(m1.vectors, m2.vectors)
        assert np.array_equal(m1.context_vectors, m2.context_vectors)

    def test_loss_decreases_by_epoch_five(self):
        corpus, n, _ = clique_pair_corpus()
        m = train(corpus.walks, n, dim=16, epochs=5, seed=1)
        losses = m.meta["epoch_mean_loss"]
        assert losses[4] < losses[0]

    def test_repeated_pair_walk_monotone_loss(self):
        walks = [[0, 1]] * 50
        m = train(
            walks, 2, dim=4, window=2, negatives=2, epochs=10,
            learning_rate=0.05, seed=2,
        )
        losses = m.meta["epoch_mean_loss"]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_cliques_separate_in_cosine_similarity(self):
        corpus, n, clique = clique_pair_corpus(seed=5)
        m = train(corpus.walks, n, dim=16, epochs=5, seed=5)
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
        m = train(corpus.walks, g.node_count, dim=16, window=5, epochs=3, seed=17)
        blocks = np.array([int(b[5:]) for b in g.attributes["block"]])
        vecs = m.vectors / np.linalg.norm(m.vectors, axis=1, keepdims=True)
        sims = vecs @ vecs.T
        np.fill_diagonal(sims, -np.inf)
        nearest = sims.argmax(axis=1)
        accuracy = (blocks[nearest] == blocks).mean()
        assert accuracy >= 0.95


def reference_pairs(walk, window):
    """Per-walk pair order: offset by offset, forward then backward."""
    arr = np.asarray(walk, dtype=np.int64)
    centers, contexts = [], []
    for offset in range(1, window + 1):
        if len(arr) <= offset:
            break
        left, right = arr[:-offset], arr[offset:]
        centers += [left, right]
        contexts += [right, left]
    if not centers:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(centers), np.concatenate(contexts)


def mixed_walks(seed=0, count=120):
    rng = np.random.default_rng(seed)
    walks = [rng.integers(0, 30, rng.integers(1, 14)).tolist() for _ in range(count)]
    return walks + [[4], [7, 7], [1, 2, 3]]


class TestPairStream:
    @pytest.mark.parametrize("window", [1, 3, 5, 20])
    def test_matches_per_walk_reference(self, window):
        walks = mixed_walks()
        order = np.random.default_rng(window).permutation(len(walks))
        stream = PairStream(walks, window)
        batches = list(stream.batches(order, 37))
        expected = [reference_pairs(walks[i], window) for i in order]
        for got, want in zip(
            (np.concatenate([b[0] for b in batches]), np.concatenate([b[1] for b in batches])),
            (np.concatenate([e[0] for e in expected]), np.concatenate([e[1] for e in expected])),
        ):
            np.testing.assert_array_equal(got, want)
        assert stream.pairs == sum(len(e[0]) for e in expected)

    def test_length_one_walks_have_no_pairs(self):
        stream = PairStream([[3], [1], [2]], window=5)
        assert stream.pairs == 0
        assert list(stream.batches(np.arange(3), 8)) == []

    @pytest.mark.parametrize("block_pairs", [1, 50, 1 << 20])
    def test_full_batches_but_the_last(self, monkeypatch, block_pairs):
        monkeypatch.setattr(embedding_mod, "BLOCK_PAIRS", block_pairs)
        stream = PairStream(mixed_walks(seed=1), window=4)
        sizes = [len(c) for c, _ in stream.batches(np.arange(123), 64)]
        assert all(size == 64 for size in sizes[:-1])
        assert 0 < sizes[-1] <= 64
        assert sum(sizes) == stream.pairs

    def test_block_size_leaves_vectors_bitwise_identical(self, monkeypatch):
        corpus, n, _ = clique_pair_corpus(seed=4)
        reference = train(corpus.walks, n, dim=8, epochs=2, seed=4)
        for block_pairs in (1, 333, 1 << 24):
            monkeypatch.setattr(embedding_mod, "BLOCK_PAIRS", block_pairs)
            m = train(corpus.walks, n, dim=8, epochs=2, seed=4)
            assert np.array_equal(m.vectors, reference.vectors)
            assert np.array_equal(m.context_vectors, reference.context_vectors)
            assert m.meta["epoch_mean_loss"] == reference.meta["epoch_mean_loss"]


class TestScatterRows:
    def test_matches_sequential_add_at_on_duplicates(self):
        rng = np.random.default_rng(9)
        params = rng.normal(0, 1, (40, 6))
        rows = rng.integers(0, 5, 500)  # heavy repeats over 5 of 40 rows
        grads = rng.normal(0, 1, (500, 6))
        expected = params.copy()
        np.add.at(expected, rows, -0.05 * grads)
        scatter_rows(params, rows, grads, 0.05, np.empty((500, 6), dtype=np.int64))
        np.testing.assert_allclose(params, expected, rtol=0, atol=1e-12)


class TestBatchStep:
    def test_equals_summed_pair_gradients(self):
        rng = np.random.default_rng(3)
        n, d, k, b, lr = 6, 5, 3, 16, 0.1
        w_in = rng.normal(0, 0.5, (n, d))
        w_out = rng.normal(0, 0.5, (n, d))
        table = AliasTable(np.full(n, 1.0 / n))
        trainer = _Trainer(w_in.copy(), w_out.copy(), table, k, lr, 10**9, b)
        centers = rng.integers(0, n, b)
        contexts = rng.integers(0, n, b)
        loss = trainer.process(centers, contexts, np.random.default_rng(7))

        # same draws; negatives equal to the context are masked out
        neg = table.draw(np.random.default_rng(7), size=(b, k))
        assert (neg == contexts[:, None]).any()
        want_in, want_out, want_loss = w_in.copy(), w_out.copy(), 0.0
        for c, x, negs in zip(centers, contexts, neg):
            negs = negs[negs != x]
            pair_loss, gc, gx, gn = sgns_pair_loss(w_in[c], w_out[x], w_out[negs])
            want_loss += pair_loss
            want_in[c] -= lr * gc
            want_out[x] -= lr * gx
            np.add.at(want_out, negs, -lr * gn)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        np.testing.assert_allclose(trainer.w_in, want_in, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trainer.w_out, want_out, rtol=0, atol=1e-12)


class TestEmbeddingIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = EmbeddingMatrix(rng.normal(0, 1, (5, 3)), np.zeros((5, 3)), {})
        path = tmp_path / "emb.txt"
        save_embeddings(matrix, path, tokens=["a", "b", "c", "d", "e"])
        tokens, vectors = load_embeddings(path)
        assert tokens == ["a", "b", "c", "d", "e"]
        np.testing.assert_array_equal(vectors, matrix.vectors)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\na 0.0 0.0 0.0\n")
        with pytest.raises(ValueError):
            load_embeddings(path)
