import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairwalks.propagation import (
    build_propagation_graph,
    predict,
    propagate,
)


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
