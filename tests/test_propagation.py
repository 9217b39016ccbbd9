import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairwalks.propagation as propagation_mod
from fairwalks.graph import component_labels
from fairwalks.propagation import (
    PropagationGraph,
    build_propagation_graph,
    predict,
    propagate,
)


def reference_propagate(pg, labels, n_classes, max_iters=1000, tol=1e-6):
    """The full-sweep Jacobi loop: every row is recomputed each iteration."""
    labels = np.asarray(labels, dtype=np.int64)
    n = pg.node_count
    labeled = labels >= 0
    warnings = []
    present = np.unique(labels[labeled])
    for c in range(n_classes):
        if c not in present:
            warnings.append(f"class {c} has no labeled seed and cannot be predicted")

    row_sum = np.bincount(pg.rows, weights=pg.weights, minlength=n)
    denom = row_sum[pg.rows]
    norm = np.divide(pg.weights, denom, out=np.zeros_like(pg.weights), where=denom > 0)
    row_starts = np.searchsorted(pg.rows, np.arange(n + 1))
    empty_rows = row_starts[:-1] == row_starts[1:]
    pad = np.zeros((1, n_classes), dtype=np.float64)

    clamp = np.zeros((n, n_classes), dtype=np.float64)
    clamp[labeled, labels[labeled]] = 1.0
    y = clamp.copy()
    delta = np.inf
    for _ in range(max_iters):
        contrib = np.concatenate([norm[:, None] * y[pg.cols], pad])
        y_next = np.add.reduceat(contrib, row_starts[:-1], axis=0)
        y_next[empty_rows] = 0.0
        y_next[labeled] = clamp[labeled]
        delta = np.abs(y_next - y).max()
        y = y_next
        if delta < tol:
            break
    if delta >= tol:
        warnings.append(
            f"propagation did not converge in {max_iters} iterations "
            f"(last max change {delta:.3g}, tol {tol:g})"
        )

    positive = pg.weights > 0
    component = component_labels(n, pg.rows[positive], pg.cols[positive])
    stranded = ~np.isin(component, component[labeled]) & ~labeled
    if stranded.any():
        y[stranded] = 1.0 / n_classes
        warnings.append(
            f"{int(stranded.sum())} nodes unreachable from any seed; set to uniform"
        )
    return y, warnings


def reference_knn_graph(vectors, k=10, sigma=None):
    """The stable-argsort union-kNN graph: each row keeps the first k of
    its stable distance order, so ties go to the lowest column index."""
    vectors = np.asarray(vectors, dtype=np.float64)
    n = len(vectors)
    k = min(k, n - 1)
    sq_norm = np.einsum("ij,ij->i", vectors, vectors)
    d2 = sq_norm[:, None] + sq_norm[None, :] - 2.0 * (vectors @ vectors.T)
    np.clip(d2, 0.0, None, out=d2)
    np.fill_diagonal(d2, np.inf)

    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    if sigma is None:
        kth = np.sqrt(d2[np.arange(n), order[:, k - 1]])
        sigma = float(kth.mean())
        if sigma == 0.0:
            sigma = 1.0

    src = np.repeat(np.arange(n), k)
    dst = order.ravel()
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    undirected = np.unique(lo * n + hi)
    lo, hi = undirected // n, undirected % n

    w = np.exp(-d2[lo, hi] / (sigma * sigma))
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    weights = np.concatenate([w, w])
    sort = np.lexsort((cols, rows))
    return PropagationGraph(n, k, sigma, rows[sort], cols[sort], weights[sort])


def coo_graph(n, edges):
    """PropagationGraph from (a, b, weight) triples, both directions, sorted by row."""
    a, b, w = (np.array(x) for x in zip(*edges))
    rows, cols, weights = np.r_[a, b], np.r_[b, a], np.r_[w, w].astype(np.float64)
    sort = np.lexsort((cols, rows))
    return PropagationGraph(n, 1, 1.0, rows[sort], cols[sort], weights[sort])


def random_case(seed, n_classes):
    rng = np.random.default_rng(seed)
    pg = build_propagation_graph(rng.normal(0, 1, (60, 5)), k=4)
    labels = np.full(60, -1)
    seeds = rng.choice(60, 25, replace=False)
    labels[seeds] = rng.integers(0, n_classes, 25)
    return pg, labels, n_classes, {}


def long_rows_case(seed=7):
    """k = 10 on 200 random points: union-kNN rows run past 20 entries, so
    reduceat sums them in more than one block."""
    rng = np.random.default_rng(seed)
    pg = build_propagation_graph(rng.normal(0, 1, (200, 8)), k=10)
    labels = np.full(200, -1)
    seeds = rng.choice(200, 80, replace=False)
    labels[seeds] = rng.integers(0, 3, 80)
    return pg, labels, 3, {}


# nodes 2 and 10 have no edges (mid-graph and trailing), row 6 has only
# zero weights, and the component 8 - 9 can hold no seed
SPECIAL = coo_graph(11, [(0, 1, 0.5), (1, 3, 2.0), (3, 4, 1.0), (4, 5, 0.25),
                         (5, 6, 0.0), (6, 7, 0.0), (8, 9, 1.0)])

PARITY_CASES = {
    **{f"random-seed{s}-{c}classes": random_case(s, c) for s in (0, 1, 2) for c in (2, 3)},
    "zero-weight-row": (SPECIAL, [0, -1, 1, -1, 1, -1, -1, 0, -1, -1, 1], 2, {}),
    "free-nodes-without-edges": (SPECIAL, [0, -1, -1, -1, 1, 0, 1, 0, 1, 0, -1], 2, {}),
    "component-without-seed": (SPECIAL, [0, -1, 1, -1, -1, 1, 0, 0, -1, -1, 0], 2, {}),
    "every-node-labeled": (SPECIAL, [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0], 2, {}),
    "one-free-node": (SPECIAL, [0, 1, 0, -1, 0, 1, 0, 1, 0, 1, 1], 2, {}),
    "max-iters-1": (SPECIAL, [0, -1, 1, -1, -1, 1, -1, 0, 1, -1, -1], 2, {"max_iters": 1}),
    "max-iters-1-random": (*random_case(5, 3)[:3], {"max_iters": 1}),
    "long-rows-k10": long_rows_case(),
}


def weight_of(pg, a, b):
    for r, c, w in zip(pg.rows, pg.cols, pg.weights):
        if (r, c) == (a, b):
            return w
    return None


class TestBuildPropagationGraph:
    def test_identical_points_weight_one(self):
        pg = build_propagation_graph(np.zeros((2, 3)), k=1)
        assert weight_of(pg, 0, 1) == 1.0
        assert weight_of(pg, 1, 0) == 1.0

    def test_collinear_points_union_knn(self):
        points = np.array([[0.0], [1.0], [10.0]])
        pg = build_propagation_graph(points, k=1, sigma=1.0)
        # 0 and 1 pick each other; 10 picks 1, kept via the union rule
        assert weight_of(pg, 0, 1) == pytest.approx(math.exp(-1.0))
        assert weight_of(pg, 1, 2) == pytest.approx(math.exp(-81.0))
        assert weight_of(pg, 2, 1) == pytest.approx(math.exp(-81.0))
        assert weight_of(pg, 0, 2) is None

    def test_sigma_auto_is_mean_kth_distance(self):
        points = np.array([[0.0], [1.0], [3.0]])
        pg = build_propagation_graph(points, k=1)
        # nearest distances: 1 (0->1), 1 (1->0), 2 (3->1)
        assert pg.sigma == pytest.approx((1 + 1 + 2) / 3)

    @given(st.integers(0, 2**16), st.integers(2, 12), st.integers(1, 4))
    @settings(max_examples=25)
    def test_weights_symmetric(self, seed, n, k):
        rng = np.random.default_rng(seed)
        pg = build_propagation_graph(rng.normal(0, 1, (n, 3)), k=k)
        table = {(int(r), int(c)): float(w) for r, c, w in zip(pg.rows, pg.cols, pg.weights)}
        for (r, c), w in table.items():
            assert table[(c, r)] == w

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_stable_sort_reference(self, data):
        # integer-grid points: many exact distance ties and duplicate points
        n = data.draw(st.integers(2, 30))
        dim = data.draw(st.integers(1, 3))
        side = data.draw(st.integers(1, 4))
        points = data.draw(
            st.lists(st.integers(0, side), min_size=n * dim, max_size=n * dim)
        )
        vectors = np.array(points, dtype=np.float64).reshape(n, dim)
        k = data.draw(st.integers(1, n - 1))
        want = reference_knn_graph(vectors, k=k)
        got = build_propagation_graph(vectors, k=k)
        assert got.sigma == want.sigma
        for name in ("rows", "cols", "weights"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("cells", [1, 60 * 7, 60 * 20])
    @pytest.mark.parametrize("k", [1, 4, 10])
    def test_row_blocks_match_one_block(self, monkeypatch, cells, k):
        # integer-grid points keep the Gram product exact, so blocks are bitwise
        vectors = np.random.default_rng(k).integers(0, 4, (60, 3)).astype(np.float64)
        want = build_propagation_graph(vectors, k=k)
        monkeypatch.setattr(propagation_mod, "KNN_BLOCK_CELLS", cells)
        got = build_propagation_graph(vectors, k=k)
        assert got.sigma == want.sigma
        for name in ("rows", "cols", "weights"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("points", ["duplicates", "long-rows"])
    @pytest.mark.parametrize("block_cells", [None, 60 * 7])
    @pytest.mark.parametrize("select_cells", ["one row", "seven rows"])
    def test_row_chunks_match_one_chunk(self, monkeypatch, points, block_cells, select_cells):
        # chunking changes no arithmetic, so float points must give the same bytes
        if points == "duplicates":
            vectors = np.random.default_rng(3).normal(0, 1, (60, 4))
            vectors[40:52] = vectors[3:15]  # exact ties
        else:
            vectors = np.random.default_rng(7).normal(0, 1, (200, 8))  # long_rows_case's
        if block_cells is not None:
            monkeypatch.setattr(propagation_mod, "KNN_BLOCK_CELLS", block_cells)
        for k in (1, 4, 10):
            want = build_propagation_graph(vectors, k=k)
            cells = 1 if select_cells == "one row" else 7 * len(vectors)
            with monkeypatch.context() as patch:
                patch.setattr(propagation_mod, "KNN_SELECT_CELLS", cells)
                got = build_propagation_graph(vectors, k=k)
            assert got.sigma == want.sigma
            for name in ("rows", "cols", "weights"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_only_one_block_is_alive(self):
        # 1,500 points are one 18 MB block; a second block-sized array beside it
        # (the Gram block beside the distances, or a full partition copy) fails
        vectors = np.random.default_rng(0).normal(0, 1, (1500, 8))
        tracemalloc.start()
        try:
            build_propagation_graph(vectors, k=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 1500 * 1500 * 8

    def test_up_to_2048_points_are_one_block(self):
        assert propagation_mod.KNN_BLOCK_CELLS // 2048 == 2048

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
    def test_sigma_must_be_finite_and_positive(self, sigma):
        with pytest.raises(ValueError, match=f"sigma must be finite and positive, got {sigma}"):
            build_propagation_graph(np.arange(8.0).reshape(4, 2), k=1, sigma=sigma)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_vector_rejected(self, value):
        vectors = np.random.default_rng(0).normal(0, 1, (40, 3))
        vectors[17, 1] = value
        vectors[30, 0] = value
        with pytest.raises(ValueError, match="row 17 of the vectors is not finite"):
            build_propagation_graph(vectors, k=3)

    def test_overflowing_squared_norm_rejected(self):
        # finite values whose squared norm overflows would make sigma inf and weights NaN
        vectors = np.random.default_rng(0).normal(0, 1, (40, 3))
        vectors[17] *= 1e160
        vectors[30, 0] = float("nan")
        assert np.isfinite(vectors[17]).all()
        with pytest.raises(ValueError, match="row 17 of the vectors has a squared norm that overflows"):
            build_propagation_graph(vectors, k=3)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            build_propagation_graph(np.zeros((1, 2)), k=1)


class TestPropagate:
    def path_graph(self):
        # path 0 - 1 - 2: unit weights
        points = np.array([[0.0], [1.0], [2.0]])
        return build_propagation_graph(points, k=1, sigma=None)

    def test_harmonic_midpoint(self):
        # explicit unit-weight path, labels at the ends
        from fairwalks.propagation import PropagationGraph

        rows = np.array([0, 1, 1, 2])
        cols = np.array([1, 0, 2, 1])
        w = np.ones(4)
        pg = PropagationGraph(3, 1, 1.0, rows, cols, w)
        labels = np.array([0, -1, 1])
        probs, warnings = propagate(pg, labels, 2)
        np.testing.assert_allclose(probs[1], [0.5, 0.5], atol=1e-6)
        assert predict(probs)[1] == 0  # tie broken toward the lower class
        assert warnings == []

    def test_all_labeled_identity(self):
        pg = self.path_graph()
        labels = np.array([0, 1, 0])
        probs, _ = propagate(pg, labels, 2)
        np.testing.assert_array_equal(probs, [[1, 0], [0, 1], [1, 0]])

    def test_unreachable_component_uniform(self):
        from fairwalks.propagation import PropagationGraph

        # two disjoint edges: only the first has a seed
        rows = np.array([0, 1, 2, 3])
        cols = np.array([1, 0, 3, 2])
        pg = PropagationGraph(4, 1, 1.0, rows, cols, np.ones(4))
        labels = np.array([0, -1, -1, -1])
        probs, warnings = propagate(pg, labels, 2)
        np.testing.assert_allclose(probs[2], [0.5, 0.5])
        np.testing.assert_allclose(probs[3], [0.5, 0.5])
        assert any("unreachable" in w for w in warnings)

    def test_missing_class_seed_warns(self):
        pg = self.path_graph()
        labels = np.array([0, -1, 0])
        _, warnings = propagate(pg, labels, 2)
        assert any("class 1" in w for w in warnings)

    def test_fixed_point_property(self):
        rng = np.random.default_rng(3)
        vectors = rng.normal(0, 1, (40, 4))
        pg = build_propagation_graph(vectors, k=4)
        labels = np.full(40, -1)
        labels[:10] = rng.integers(0, 3, 10)
        probs, _ = propagate(pg, labels, 3, tol=1e-10)
        # converged unlabeled rows equal the weighted average of neighbors
        for v in range(40):
            nbrs, weights = pg.cols[pg.rows == v], pg.weights[pg.rows == v]
            if labels[v] >= 0 or not len(nbrs):
                continue
            total = sum(weights)
            avg = sum(w * probs[u] for u, w in zip(nbrs, weights)) / total
            np.testing.assert_allclose(probs[v], avg, atol=1e-6)

    def test_non_convergence_warns(self):
        pg = self.path_graph()
        _, warnings = propagate(pg, np.array([0, -1, -1]), 2, max_iters=1)
        assert any("did not converge in 1 iterations" in w for w in warnings)
        _, warnings = propagate(pg, np.array([0, -1, -1]), 2)
        assert not any("converge" in w for w in warnings)

    def test_no_seeds_rejected(self):
        pg = self.path_graph()
        with pytest.raises(ValueError):
            propagate(pg, np.array([-1, -1, -1]), 2)

    @pytest.mark.parametrize("label", [2, 7, -2])
    def test_label_out_of_range_rejected(self, label):
        pg = self.path_graph()
        with pytest.raises(ValueError, match=f"label {label} outside"):
            propagate(pg, np.array([0, label, -1]), 2)

    def test_graph_only_work_done_once(self, monkeypatch):
        import fairwalks.propagation as propagation

        calls = []
        monkeypatch.setattr(
            propagation, "component_labels", lambda *a: calls.append(a) or component_labels(*a)
        )
        pg = self.path_graph()
        propagate(pg, np.array([0, -1, -1]), 2)
        propagate(pg, np.array([-1, -1, 1]), 2)
        assert len(calls) == 1


class TestPropagateMatchesFullSweep:
    def test_long_rows_case_has_long_rows(self):
        pg = PARITY_CASES["long-rows-k10"][0]
        assert pg.degree.max() >= 20

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_bitwise_equal_to_reference(self, case):
        pg, labels, n_classes, kwargs = PARITY_CASES[case]
        want, want_warnings = reference_propagate(pg, labels, n_classes, **kwargs)
        got, got_warnings = propagate(pg, labels, n_classes, **kwargs)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got_warnings == want_warnings


def other_attribute(labels, classes, seed):
    """Labels of a second attribute, drawn from ``classes``, on the same seeds."""
    labels = np.asarray(labels)
    other = np.full_like(labels, -1)
    seeded = labels >= 0
    other[seeded] = np.random.default_rng(seed).choice(classes, seeded.sum())
    return other


def sweeps_to_converge(pg, labels, n_classes):
    """Jacobi sweeps the 1-D call takes before its max change falls below tol."""
    sweeps = 1
    while any("converge" in w for w in propagate(pg, labels, n_classes, max_iters=sweeps)[1]):
        sweeps += 1
    return sweeps


class TestBatchedPropagate:
    def assert_each_row_matches(self, pg, rows, n_classes, kwargs):
        got = propagate(pg, np.stack(rows), n_classes, **kwargs)
        assert len(got) == len(rows)
        for row, count, (probs, warnings) in zip(rows, n_classes, got):
            want, want_warnings = propagate(pg, row, count, **kwargs)
            assert probs.dtype == want.dtype and probs.shape == want.shape
            assert probs.tobytes() == want.tobytes()
            assert warnings == want_warnings
        return got

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_pairs_bitwise_equal_to_1d(self, case):
        pg, labels, n_classes, kwargs = PARITY_CASES[case]
        other = other_attribute(labels, [0, 1, 2], seed=len(case))
        self.assert_each_row_matches(pg, [labels, other], [n_classes, 3], kwargs)
        self.assert_each_row_matches(pg, [other, labels], [3, n_classes], kwargs)

    @pytest.mark.parametrize("first", [0, 1])
    def test_either_attribute_converges_first(self, first):
        pg, labels, n_classes, _ = random_case(0, 2)
        other = other_attribute(labels, [0, 1, 2, 3], seed=1)
        rows, counts = [labels, other], [n_classes, 4]
        sweeps = [sweeps_to_converge(pg, row, c) for row, c in zip(rows, counts)]
        order = np.argsort(sweeps)
        assert sweeps[order[0]] < sweeps[order[1]]
        if order[0] != first:
            rows, counts = rows[::-1], counts[::-1]
        self.assert_each_row_matches(pg, rows, counts, {})

    def test_max_iters_one(self):
        pg, labels, n_classes, kwargs = PARITY_CASES["max-iters-1-random"]
        other = other_attribute(labels, [0, 1], seed=4)
        got = self.assert_each_row_matches(pg, [labels, other], [n_classes, 2], kwargs)
        for _, warnings in got:
            assert any("did not converge in 1 iterations" in w for w in warnings)

    def test_stranded_nodes(self):
        pg, labels, n_classes, kwargs = PARITY_CASES["component-without-seed"]
        other = other_attribute(labels, [0, 1, 2], seed=2)
        got = self.assert_each_row_matches(pg, [labels, other], [n_classes, 3], kwargs)
        for (probs, warnings), count in zip(got, [n_classes, 3]):
            assert any("unreachable" in w for w in warnings)
            np.testing.assert_array_equal(probs[[8, 9]], 1.0 / count)

    def test_class_without_seed(self):
        pg, labels, n_classes, kwargs = random_case(2, 3)
        other = other_attribute(labels, [0, 2], seed=3)
        (_, warnings), (_, other_warnings) = self.assert_each_row_matches(
            pg, [labels, other], [n_classes, 4], kwargs
        )
        assert not any("no labeled seed" in w for w in warnings)
        assert other_warnings[:2] == [
            "class 1 has no labeled seed and cannot be predicted",
            "class 3 has no labeled seed and cannot be predicted",
        ]

    def test_rows_with_different_unlabeled_nodes_rejected(self):
        pg, labels, n_classes, _ = random_case(0, 2)
        other = other_attribute(labels, [0, 1], seed=0)
        other[np.flatnonzero(labels < 0)[0]] = 1
        with pytest.raises(ValueError, match="same nodes unlabeled"):
            propagate(pg, np.stack([labels, other]), [n_classes, 2])

    def test_one_class_count_per_row(self):
        pg, labels, n_classes, _ = random_case(0, 2)
        with pytest.raises(ValueError, match="class counts"):
            propagate(pg, np.stack([labels, labels]), [n_classes])


CERTIFY_CASES = {
    **PARITY_CASES,
    **{f"random-seed{s}-{c}classes": random_case(s, c) for s in (10, 11, 12) for c in (2, 4)},
}


def stranded_nodes(pg, labels):
    """Unlabeled nodes in a component of positive-weight edges without a seed."""
    labeled = np.asarray(labels) >= 0
    positive = pg.weights > 0
    component = component_labels(pg.node_count, pg.rows[positive], pg.cols[positive])
    return ~np.isin(component, component[labeled]) & ~labeled


def path_case(n_free):
    """A unit-weight path with a class-0 seed at one end and a class-1 seed
    at the other: with an odd number of free nodes, the middle one ties."""
    n = n_free + 2
    pg = coo_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    return pg, np.array([0] + [-1] * n_free + [1])


class TestCertifiedStop:
    """``certify=True`` may stop before ``tol``, but every prediction,
    warning and stranded row is the tol-stopped call's."""

    @staticmethod
    def assert_same_audit(pg, labels, got, want):
        """Equal argmax, warnings, clamped rows and stranded rows."""
        probs, warnings = got
        want_probs, want_warnings = want
        assert probs.dtype == want_probs.dtype and probs.shape == want_probs.shape
        np.testing.assert_array_equal(predict(probs), predict(want_probs))
        assert warnings == want_warnings
        fixed = stranded_nodes(pg, labels) | (np.asarray(labels) >= 0)
        assert probs[fixed].tobytes() == want_probs[fixed].tobytes()

    @pytest.mark.parametrize("case", sorted(CERTIFY_CASES))
    def test_1d_audit_equals_the_tol_stop(self, case):
        pg, labels, n_classes, kwargs = CERTIFY_CASES[case]
        got = propagate(pg, labels, n_classes, **kwargs, certify=True)
        self.assert_same_audit(pg, labels, got, propagate(pg, labels, n_classes, **kwargs))

    @pytest.mark.parametrize("case", sorted(CERTIFY_CASES))
    def test_stacked_audit_equals_the_tol_stop(self, case):
        pg, labels, n_classes, kwargs = CERTIFY_CASES[case]
        rows = np.stack([labels, other_attribute(labels, [0, 1, 2], seed=len(case))])
        counts = [n_classes, 3]
        got = propagate(pg, rows, counts, **kwargs, certify=True)
        want = propagate(pg, rows, counts, **kwargs)
        for row, pair, want_pair in zip(rows, got, want):
            self.assert_same_audit(pg, row, pair, want_pair)

    @pytest.mark.parametrize("case", sorted(CERTIFY_CASES))
    def test_stacked_call_equals_each_1d_call_bit_for_bit(self, case):
        pg, labels, n_classes, kwargs = CERTIFY_CASES[case]
        rows = [labels, other_attribute(labels, [0, 1, 2, 3], seed=len(case))]
        got = propagate(pg, np.stack(rows), [n_classes, 4], **kwargs, certify=True)
        for row, count, (probs, warnings) in zip(rows, [n_classes, 4], got):
            want, want_warnings = propagate(pg, row, count, **kwargs, certify=True)
            assert probs.tobytes() == want.tobytes() and warnings == want_warnings

    @pytest.mark.parametrize("stranded", [False, True])
    def test_certificate_stops_before_tol(self, stranded):
        pg, labels, n_classes, _ = random_case(0, 2)
        if stranded:  # and a free edge 60 - 61 that no seed reaches
            edges = [(a, b, w) for a, b, w in zip(pg.rows, pg.cols, pg.weights) if a < b]
            pg = coo_graph(62, [*edges, (60, 61, 1.0)])
            labels = np.r_[labels, -1, -1]
        sweeps = sweeps_to_converge(pg, labels, n_classes)
        want, want_warnings = propagate(pg, labels, n_classes)
        got, warnings = propagate(pg, labels, n_classes, certify=True)
        # the certified call returned an earlier sweep of the same loop
        every = propagation_mod.CERTIFY_EVERY
        early = [m for m in range(every, sweeps, every)
                 if propagate(pg, labels, n_classes, max_iters=m)[0].tobytes() == got.tobytes()]
        assert len(early) == 1
        np.testing.assert_array_equal(predict(got), predict(want))
        assert warnings == want_warnings == (
            ["2 nodes unreachable from any seed; set to uniform"] if stranded else [])

    def test_a_trap_runs_to_max_iters_and_warns(self):
        # the free pair 1 - 2 reaches the class-0 seed through one faint
        # edge: its argmax is proven after a few hundred sweeps, but its
        # change stays above tol for thousands, so the tol stop would warn
        pg = coo_graph(5, [(0, 1, 0.004), (1, 2, 0.8), (3, 4, 1.0)])
        labels = np.array([0, -1, -1, 1, -1])
        want, want_warnings = propagate(pg, labels, 2)
        got, warnings = propagate(pg, labels, 2, certify=True)
        assert got.tobytes() == want.tobytes() and warnings == want_warnings
        assert warnings[0].startswith("propagation did not converge in 1000 iterations")
        proven, _ = propagate(pg, labels, 2, max_iters=500)
        assert (proven[[1, 2], 0] > 0.5).all()  # margin over the unassigned mass

    def test_exact_tie_is_never_certified(self):
        pg, labels = path_case(5)
        want, want_warnings = propagate(pg, labels, 2)
        got, warnings = propagate(pg, labels, 2, certify=True)
        assert got[3, 0] == got[3, 1]
        assert predict(got)[3] == 0  # the lowest class, as the tol stop picks it
        # the tie held the call to the tol stop: the same sweeps, the same bits
        assert got.tobytes() == want.tobytes() and warnings == want_warnings == []

    def test_no_stop_warns_with_the_tol_text(self):
        pg, labels = path_case(5)
        got = propagate(pg, labels, 2, max_iters=12, certify=True)
        want = propagate(pg, labels, 2, max_iters=12)
        assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
        assert len(got[1]) == 1 and got[1][0].startswith(
            "propagation did not converge in 12 iterations (last max change ")

    def test_an_early_lead_is_not_certified(self):
        # node 1 sits next to the class-0 seed, but the class-1 seed pulls
        # harder through the heavy chain 2 - ... - 7, whose mass reaches
        # node 1 only at the seventh sweep
        chain = [(i, i + 1, 100.0) for i in range(2, 8)]
        pg = coo_graph(9, [(0, 1, 1.0), (1, 2, 4.0), *chain, (7, 8, 100.0)])
        labels = np.array([0] + [-1] * 7 + [1])
        early, _ = propagate(pg, labels, 2, max_iters=propagation_mod.CERTIFY_EVERY)
        assert predict(early)[1] == 0
        want, _ = propagate(pg, labels, 2)
        got, warnings = propagate(pg, labels, 2, certify=True)
        assert predict(want)[1] == predict(got)[1] == 1 and warnings == []


class TestSaveLoad:
    def test_round_trip_is_bit_for_bit(self, tmp_path):
        vectors = np.random.default_rng(3).normal(size=(40, 5))
        vectors[7] = vectors[3]  # a duplicate point: a weight-1 edge
        pg = build_propagation_graph(vectors, k=4)
        pg.save(tmp_path / "g.npy")
        loaded = PropagationGraph.load(tmp_path / "g.npy")
        assert (loaded.node_count, loaded.k) == (40, 4)
        assert np.float64(loaded.sigma).tobytes() == np.float64(pg.sigma).tobytes()
        for name in ("rows", "cols", "weights"):
            mine, theirs = getattr(loaded, name), getattr(pg, name)
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
        assert loaded.transition.tobytes() == pg.transition.tobytes()
        assert os.listdir(tmp_path) == ["g.npy"]

    def test_a_missing_file_loads_as_none(self, tmp_path):
        assert PropagationGraph.load(tmp_path / "none.npy") is None

    @pytest.mark.parametrize("array", [np.arange(7.0), np.arange(7), np.zeros((3, 3), np.int64)])
    def test_an_array_that_is_no_graph_is_refused(self, tmp_path, array):
        np.save(tmp_path / "g.npy", array)
        with pytest.raises(ValueError, match="does not hold a propagation graph"):
            PropagationGraph.load(tmp_path / "g.npy")
