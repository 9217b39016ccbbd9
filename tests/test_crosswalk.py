import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairwalks.graph as graph_mod
from fairwalks import crosswalk
from fairwalks.crosswalk import (
    CLOSENESS_SMOOTHING,
    estimate_closeness,
    load_biased,
    reweight,
    save_biased,
)
from fairwalks.graph import generate_sbm, partition_by
from fairwalks.seeds import derive_seed
from fairwalks.walks import TransitionWeights, WalkConfig, generate_walks
from tests.conftest import make_graph
from tests.test_walks import reference_walks

ALPHA_GRID = (0.01, 0.25, 0.5, 0.75, 0.99)
BETA_GRID = (1.0, 2.0, 3.0, 5.0, 8.0, 11.0, 15.0)


def closeness_of(values):
    return np.asarray(values, dtype=float)


def reference_closeness(graph, partition, walks_per_node, walk_length, seed):
    """One walk at a time from the reference walker, seeded like the estimator."""
    config = WalkConfig(walks_per_node=walks_per_node, walk_length=walk_length,
                        seed=derive_seed(seed, "closeness"))
    group = partition.group_of
    foreign = np.zeros(graph.node_count)
    for walk in reference_walks(TransitionWeights.from_graph(graph), config):
        for v in walk[1:]:
            foreign[walk[0]] += group[v] != group[walk[0]]
    return foreign / (walks_per_node * walk_length)


def reference_reweight(graph, partition, closeness, alpha, beta, smoothing):
    """One node, and one (node, neighbor group) share, at a time."""
    boost = np.power(closeness + smoothing, beta)
    group = partition.group_of
    probs = np.zeros(len(graph.indices), dtype=np.float64)
    for v in range(graph.node_count):
        row = slice(graph.indptr[v], graph.indptr[v + 1])
        nbrs = graph.indices[row]
        if len(nbrs) == 0:
            continue
        scores = graph.weights[row] * boost[nbrs]
        nbr_groups = group[nbrs]
        same = nbr_groups == group[v]
        foreign_groups = np.unique(nbr_groups[~same])
        r = len(foreign_groups)
        out = probs[row]
        cross_mass = alpha if same.any() else 1.0
        if same.any():
            out += reference_share(scores, same, 1.0 - alpha if r else 1.0)
        for g in foreign_groups:
            out += reference_share(scores, nbr_groups == g, cross_mass / r)
    return probs


def reference_share(scores, mask, mass):
    out = np.zeros(len(scores), dtype=np.float64)
    total = scores[mask].sum()
    if total > 0:
        out[mask] = mass * scores[mask] / total
    else:
        out[mask] = mass / mask.sum()
    return out


class TestEstimateCloseness:
    def test_connected_single_group_component_is_zero(self, graph_factory):
        # X-triangle never reaches the disjoint Y pair
        g = graph_factory(
            [(0, 1), (1, 2), (0, 2), (3, 4)],
            attrs={"loc": ["X", "X", "X", "Y", "Y"]},
        )
        p = partition_by(g, "loc")
        m = estimate_closeness(g, p, walks_per_node=5, walk_length=4, seed=1)
        assert np.all(m[:3] == 0.0)

    def test_cross_edge_always_crosses(self, graph_factory):
        g = graph_factory([(0, 1)], attrs={"loc": ["X", "Y"]})
        p = partition_by(g, "loc")
        m = estimate_closeness(g, p, walks_per_node=7, walk_length=1, seed=3)
        assert m.tolist() == [1.0, 1.0]

    def test_star_center_one_third(self, graph_factory):
        # center 0 (X) with leaves: two X, one Y; one uniform step crosses 1/3
        g = graph_factory(
            [(0, 1), (0, 2), (0, 3)], attrs={"loc": ["X", "X", "X", "Y"]}
        )
        p = partition_by(g, "loc")
        m = estimate_closeness(g, p, walks_per_node=10000, walk_length=1, seed=5)
        assert abs(m[0] - 1 / 3) <= 0.05

    def test_deterministic_for_seed(self, graph_factory):
        g, _ = generate_sbm([10, 10], 0.5, 0.2, seed=2)
        p = partition_by(g, "block")
        m1 = estimate_closeness(g, p, 5, 4, seed=9)
        m2 = estimate_closeness(g, p, 5, 4, seed=9)
        assert np.array_equal(m1, m2)

    @pytest.mark.parametrize("seed", [0, 4])
    def test_matches_per_node_reference(self, seed):
        sbm, _ = generate_sbm([6, 9, 12], 0.5, 0.1, seed=seed)
        weighted = make_graph(
            [(0, 1, 3.0), (0, 2, 0.5), (1, 2, 1.0), (2, 3, 7.0), (3, 4, 0.25)],
            attrs={"block": ["X", "Y", "X", "Y", "Y", "X"]}, n=6,
        )
        for g in (sbm, weighted):
            p = partition_by(g, "block")
            m = estimate_closeness(g, p, walks_per_node=4, walk_length=6, seed=seed)
            expected = reference_closeness(g, p, 4, 6, seed)
            np.testing.assert_array_equal(m, expected)

    def test_root_order_differs_from_walks_of_the_same_seed(self, monkeypatch):
        # the CLI's bias and walk commands take one --seed
        g, _ = generate_sbm([10, 10], 0.5, 0.2, seed=2)
        seen = []

        def spy(*args):
            seen.append(generate_walks(*args))
            return seen[-1]

        monkeypatch.setattr(crosswalk, "generate_walks", spy)
        estimate_closeness(g, partition_by(g, "block"), 3, 4, seed=9)
        config = WalkConfig(walks_per_node=3, walk_length=4, seed=9)
        corpus = generate_walks(TransitionWeights.from_graph(g), config)
        assert seen[0].paths[:, 0].tolist() != corpus.paths[:, 0].tolist()

    def test_isolated_node_gets_zero(self):
        g = make_graph([(0, 1)], attrs={"loc": ["X", "Y", "X"]}, n=3)
        p = partition_by(g, "loc")
        m = estimate_closeness(g, p, 3, 2, seed=0)
        assert m[2] == 0.0

    def test_padding_of_an_isolated_root_is_not_counted(self):
        # PAD (-1) would index the last node, whose group differs from the root's
        g = make_graph([(1, 2)], attrs={"loc": ["X", "X", "Y"]}, n=3)
        m = estimate_closeness(g, partition_by(g, "loc"), 3, 2, seed=0)
        assert m.tolist() == [0.0, 0.5, 0.5]


class TestReweight:
    def test_hand_computed_split(self, graph_factory):
        # v=0: same-group nbrs 1,2 and cross-group nbr 3, unit weights, equal m
        g = graph_factory(
            [(0, 1), (0, 2), (0, 3)], attrs={"loc": ["X", "X", "X", "Y"]}
        )
        p = partition_by(g, "loc")
        m = closeness_of([0.5, 0.5, 0.5, 0.5])
        b = reweight(g, p, m, alpha=0.5, beta=1.0)
        nbrs, probs = b.out_distribution(0)
        assert nbrs.tolist() == [1, 2, 3]
        np.testing.assert_allclose(probs, [0.25, 0.25, 0.5], atol=1e-12)

    def test_no_foreign_neighbors_keeps_plain_distribution(self, graph_factory):
        g = graph_factory(
            [(0, 1, 3.0), (0, 2, 1.0), (1, 3)],
            attrs={"loc": ["X", "X", "X", "Y"]},
        )
        p = partition_by(g, "loc")
        m = closeness_of([0.2, 0.2, 0.2, 0.9])
        b = reweight(g, p, m, alpha=0.75, beta=2.0)
        nbrs, probs = b.out_distribution(0)
        # equal m cancels: plain weight normalization, alpha irrelevant
        np.testing.assert_allclose(probs, [0.75, 0.25], atol=1e-12)

    def test_closeness_scaling_invariance_without_smoothing(self, graph_factory):
        g = graph_factory(
            [(0, 1), (0, 2), (0, 3), (1, 2)],
            attrs={"loc": ["X", "X", "Y", "Y"]},
        )
        p = partition_by(g, "loc")
        m1 = closeness_of([0.1, 0.3, 0.2, 0.4])
        m2 = closeness_of([0.2, 0.6, 0.4, 0.8])
        b1 = reweight(g, p, m1, alpha=0.4, beta=3.0, smoothing=0.0)
        b2 = reweight(g, p, m2, alpha=0.4, beta=3.0, smoothing=0.0)
        for v in range(4):
            np.testing.assert_allclose(
                b1.out_distribution(v)[1], b2.out_distribution(v)[1], atol=1e-12
            )

    def test_only_foreign_neighbors_renormalizes_to_one(self, graph_factory):
        # node 0 has neighbors only in groups Y and Z
        g = graph_factory(
            [(0, 1), (0, 2), (0, 3)], attrs={"loc": ["X", "Y", "Y", "Z"]}
        )
        p = partition_by(g, "loc")
        m = closeness_of([1.0, 0.25, 0.75, 0.5])
        b = reweight(g, p, m, alpha=0.3, beta=1.0)
        nbrs, probs = b.out_distribution(0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        # each foreign group gets half the mass
        assert probs[2] == pytest.approx(0.5, abs=1e-12)  # the Z neighbor
        assert probs[0] + probs[1] == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_beta(self, graph_factory):
        g = graph_factory(
            [(0, 1), (0, 2), (0, 3)], attrs={"loc": ["X", "X", "X", "Y"]}
        )
        p = partition_by(g, "loc")
        m = closeness_of([0.0, 0.8, 0.2, 0.5])
        previous = None
        for beta in BETA_GRID:
            b = reweight(g, p, m, alpha=0.5, beta=beta)
            share = b.out_distribution(0)[1][0]  # neighbor 1, highest closeness
            if previous is not None:
                assert share >= previous - 1e-12
            previous = share

    def test_isolated_node_empty_distribution(self):
        g = make_graph([(0, 1)], attrs={"loc": ["X", "Y", "X"]}, n=3)
        p = partition_by(g, "loc")
        b = reweight(g, p, closeness_of([1, 1, 0]), alpha=0.5, beta=1.0)
        nbrs, probs = b.out_distribution(2)
        assert len(nbrs) == 0 and len(probs) == 0

    def test_invalid_parameters(self, graph_factory):
        g = graph_factory([(0, 1)], attrs={"loc": ["X", "Y"]})
        p = partition_by(g, "loc")
        m = closeness_of([1.0, 1.0])
        with pytest.raises(ValueError):
            reweight(g, p, m, alpha=0.0, beta=1.0)
        with pytest.raises(ValueError):
            reweight(g, p, m, alpha=0.5, beta=-1.0)
        for beta in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"beta must be finite and >= 0, got {beta}"):
                reweight(g, p, m, alpha=0.5, beta=beta)

    @pytest.mark.parametrize("values", [
        [float("nan"), 1.0], [-0.1, 1.0], [1.1, 1.0], [1.0, 1.0, 1.0], [1.0],
    ], ids=["nan", "negative", "above_one", "too_long", "too_short"])
    def test_closeness_outside_one_value_in_unit_interval_per_node(self, graph_factory, values):
        g = graph_factory([(0, 1)], attrs={"loc": ["X", "Y"]})
        with pytest.raises(ValueError, match="closeness must hold one value in"):
            reweight(g, partition_by(g, "loc"), closeness_of(values), alpha=0.5, beta=1.0)


@st.composite
def random_attributed_graph(draw):
    n = draw(st.integers(4, 14))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(possible), min_size=n - 1, max_size=len(possible), unique=True)
    )
    labels = draw(
        st.lists(st.sampled_from("XYZ"), min_size=n, max_size=n).filter(
            lambda ls: len(set(ls)) >= 2
        )
    )
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    edges = [(u, v, float(rng.uniform(0.1, 4.0))) for u, v in chosen]
    g = make_graph(edges, attrs={"loc": labels}, n=n)
    m = rng.uniform(0.0, 1.0, size=n)
    return g, m


@st.composite
def reweight_case(draw):
    """A weighted graph with isolated nodes, nodes that see no foreign group
    and nodes that see only foreign groups, plus closeness with exact zeros."""
    n = draw(st.integers(2, 24))
    density = draw(st.sampled_from((0.1, 0.3, 0.9)))  # dense graphs have shares of 8+ slots
    groups = "XYZW"[:draw(st.integers(2, 4))]
    labels = draw(
        st.lists(st.sampled_from(groups), min_size=n, max_size=n).filter(
            lambda ls: len(set(ls)) >= 2
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [(u, v, float(rng.uniform(0.1, 4.0))) for u, v in pairs if rng.random() < density]
    g = make_graph(edges, attrs={"loc": labels}, n=n)
    m = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 1.0, n))
    return g, m


class TestReweightMatchesReference:
    @given(
        reweight_case(),
        st.sampled_from(ALPHA_GRID),
        st.sampled_from((0.0, 0.5, 1.0, 3.0, 15.0)),
        st.sampled_from((0.0, CLOSENESS_SMOOTHING)),
    )
    @settings(max_examples=150)
    def test_segment_sums_match_per_node_loop(self, case, alpha, beta, smoothing):
        g, m = case
        p = partition_by(g, "loc")
        got = reweight(g, p, closeness_of(m), alpha, beta, smoothing=smoothing).probs
        expected = reference_reweight(g, p, closeness_of(m), alpha, beta, smoothing)
        shares = g.rows * p.num_groups + p.group_of[g.indices]
        if np.bincount(shares).max(initial=0) < 8:
            # an in-order bincount sum equals numpy's pairwise sum below 8 terms
            np.testing.assert_array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


class TestGridProperties:
    @given(random_attributed_graph(), st.sampled_from(ALPHA_GRID), st.sampled_from(BETA_GRID))
    @settings(max_examples=60)
    def test_row_stochastic(self, graph_and_m, alpha, beta):
        g, m = graph_and_m
        p = partition_by(g, "loc")
        b = reweight(g, p, closeness_of(m), alpha=alpha, beta=beta)
        for v in range(g.node_count):
            if g.degree(v):
                _, probs = b.out_distribution(v)
                assert abs(probs.sum() - 1.0) <= 1e-9
                assert np.all(probs >= 0)

    @given(random_attributed_graph(), st.sampled_from(ALPHA_GRID), st.sampled_from(BETA_GRID))
    @settings(max_examples=60)
    def test_cross_group_mass_equals_alpha(self, graph_and_m, alpha, beta):
        g, m = graph_and_m
        p = partition_by(g, "loc")
        b = reweight(g, p, closeness_of(m), alpha=alpha, beta=beta)
        for v in range(g.node_count):
            nbrs = g.neighbors(v)
            if len(nbrs) == 0:
                continue
            same = p.group_of[nbrs] == p.group_of[v]
            if same.any() and (~same).any():
                cross = b.out_distribution(v)[1][~same].sum()
                assert abs(cross - alpha) <= 1e-9


class TestSerialization:
    def test_round_trip(self, tmp_path, graph_factory):
        g, _ = generate_sbm([8, 8], 0.6, 0.2, seed=4)
        p = partition_by(g, "block")
        m = estimate_closeness(g, p, 4, 3, seed=1)
        b = reweight(g, p, m, alpha=0.25, beta=2.0)
        path = tmp_path / "biased.edges"
        save_biased(b, path)
        b2 = load_biased(path, g)
        assert b2.alpha == 0.25 and b2.beta == 2.0
        for v in range(g.node_count):
            nbrs, probs = b.out_distribution(v)
            nbrs2, probs2 = b2.out_distribution(v)
            assert np.array_equal(nbrs, nbrs2)
            np.testing.assert_array_equal(probs, probs2)


    def test_baseline_weights_round_trip(self, tmp_path):
        g = make_graph([(0, 1, 3.0), (0, 2, 1.0), (1, 2, 0.5)], attrs={"loc": ["X", "Y", "X"]})
        tw = TransitionWeights.from_graph(g)
        path = tmp_path / "baseline.edges"
        save_biased(tw, path)
        back = load_biased(path, g)
        assert back.alpha is None and back.beta is None
        np.testing.assert_array_equal(back.probs, tw.probs)


def per_line_biased(weights, path):
    """``save_biased``'s bytes written one f-string per line, the reference."""
    g, ids = weights.graph, weights.graph.original_ids
    with open(path, "w") as f:
        f.write(f"# alpha={weights.alpha!r} beta={weights.beta!r}\n")
        for v, u, p in zip(g.rows.tolist(), g.indices.tolist(), weights.probs.tolist()):
            f.write(f"{ids[v]}\t{ids[u]}\t{p!r}\n")


class TestSaveBiasedBytes:
    @pytest.mark.parametrize("alpha, beta", [(0.25, 2.0), (None, None)])
    def test_bytes_equal_a_per_line_writer(self, tmp_path, alpha, beta):
        g = make_graph([(0, 1), (0, 2), (1, 2), (2, 3)])
        g = replace(g, original_ids=["a b", "é", "节点 7", "-1e5"])
        probs = np.array([5e-324, 1e-300, 0.1, 1.0, 1 / 3, 0.30000000000000004, 2.5e-7, 1e22])
        weights = TransitionWeights(g, probs, alpha, beta)
        save_biased(weights, tmp_path / "joined.tsv")
        per_line_biased(weights, tmp_path / "per_line.tsv")
        assert (tmp_path / "joined.tsv").read_bytes() == (tmp_path / "per_line.tsv").read_bytes()

    def test_a_graph_without_edges_writes_the_header_alone(self, tmp_path):
        weights = TransitionWeights(make_graph([], n=2), np.zeros(0), 0.5, 2.0)
        save_biased(weights, tmp_path / "biased.tsv")
        assert (tmp_path / "biased.tsv").read_text() == "# alpha=0.5 beta=2.0\n"


class TestLoadBiasedValidation:
    def write(self, tmp_path, lines):
        path = tmp_path / "biased.edges"
        path.write_text("# alpha=0.5 beta=1.0\n" + "".join(line + "\n" for line in lines))
        return path

    PATH_LINES = ["0\t1\t1.0", "1\t0\t0.5", "1\t2\t0.5", "2\t1\t1.0"]

    def test_complete_file_loads(self, tmp_path):
        g = make_graph([(0, 1), (1, 2)], attrs={"loc": ["X", "Y", "X"]})
        b = load_biased(self.write(tmp_path, self.PATH_LINES), g)
        nbrs, probs = b.out_distribution(1)
        assert nbrs.tolist() == [0, 2] and probs.tolist() == [0.5, 0.5]

    def test_pair_that_is_not_an_edge(self, tmp_path):
        g = make_graph([(0, 1), (1, 2)], attrs={"loc": ["X", "Y", "X"]})
        path = self.write(tmp_path, self.PATH_LINES + ["0\t2\t0.1"])
        with pytest.raises(ValueError, match=r":6: 0 -> 2 is not an edge"):
            load_biased(path, g)

    def test_duplicate_pair(self, tmp_path):
        g = make_graph([(0, 1), (1, 2)], attrs={"loc": ["X", "Y", "X"]})
        path = self.write(tmp_path, self.PATH_LINES[:3] + ["1\t0\t0.5"] + self.PATH_LINES[3:])
        with pytest.raises(ValueError, match=r":5: 1 -> 0 is a duplicate entry"):
            load_biased(path, g)

    def test_edge_without_entry(self, tmp_path):
        g = make_graph([(0, 1), (1, 2)], attrs={"loc": ["X", "Y", "X"]})
        path = self.write(tmp_path, self.PATH_LINES[:3])
        with pytest.raises(ValueError, match=r"no line for edge 2 -> 1"):
            load_biased(path, g)

    def test_all_zero_row_is_rejected(self, tmp_path):
        # every walk through node 1 stepped to 2 when this file loaded
        g = make_graph([(0, 1), (1, 2)], attrs={"loc": ["X", "Y", "X"]})
        path = self.write(tmp_path, ["0\t1\t1.0", "1\t0\t0.0", "1\t2\t0.0", "2\t1\t1.0"])
        with pytest.raises(ValueError, match=r"out of node 1 sum to 0\.0, not 1"):
            load_biased(path, g)

    def test_row_summing_to_half_is_rejected(self, tmp_path):
        g = make_graph([(0, 1), (1, 2)], attrs={"loc": ["X", "Y", "X"]})
        path = self.write(tmp_path, ["0\t1\t1.0", "1\t0\t0.25", "1\t2\t0.25", "2\t1\t1.0"])
        with pytest.raises(ValueError, match=r"out of node 1 sum to 0\.5, not 1"):
            load_biased(path, g)

    @pytest.mark.parametrize("alpha, beta", [(0.99, 15.0), (0.01, 1.0), (None, None)])
    def test_saved_files_on_a_larger_graph_load(self, tmp_path, alpha, beta):
        g, _ = generate_sbm([50, 100, 200], 0.1, 0.02, seed=2)
        if alpha is None:
            weights = TransitionWeights.from_graph(g)
        else:
            p = partition_by(g, "block")
            weights = reweight(g, p, estimate_closeness(g, p, 4, 3, seed=1), alpha, beta)
        save_biased(weights, tmp_path / "biased.edges")
        back = load_biased(tmp_path / "biased.edges", g)
        assert back.probs.tobytes() == weights.probs.tobytes()

    @pytest.mark.parametrize("prob", ["-0.5", "nan", "inf", "abc"])
    def test_probability_must_be_a_finite_number_at_least_zero(self, tmp_path, prob):
        g = make_graph([(0, 1), (1, 2)], attrs={"loc": ["X", "Y", "X"]})
        lines = list(self.PATH_LINES)
        lines[2] = f"1\t2\t{prob}"
        with pytest.raises(ValueError, match=rf"biased\.edges:4: probability '{prob}'"):
            load_biased(self.write(tmp_path, lines), g)

    @pytest.mark.parametrize("header", ["# alpha=abc beta=1.0", "# alpha=0.5 beta="])
    def test_header_parameters_must_be_numbers(self, tmp_path, header):
        g = make_graph([(0, 1), (1, 2)], attrs={"loc": ["X", "Y", "X"]})
        path = tmp_path / "biased.edges"
        path.write_text(header + "\n" + "".join(line + "\n" for line in self.PATH_LINES))
        with pytest.raises(ValueError, match=r"biased\.edges:1: (alpha|beta) '.*' is not a number"):
            load_biased(path, g)


def reference_load_biased(path, graph):
    """``load_biased`` one line at a time, as it was before the block reader:
    dicts from node pair to CSR slot and from slot to probability."""
    index = {nid: i for i, nid in enumerate(graph.original_ids)}
    pairs = zip(graph.rows.tolist(), graph.indices.tolist())
    slot_of = {pair: s for s, pair in enumerate(pairs)}
    prob_at = {}  # CSR slot -> probability
    header = {}  # alpha and beta
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.strip()
            if stripped.startswith("#"):
                for token in stripped[1:].split():
                    key, _, value = token.partition("=")
                    if key in ("alpha", "beta") and value != "None":
                        header[key] = crosswalk._number(path, lineno, key, value)
                continue
            if not stripped:
                continue
            parts = stripped.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'u\\tv\\tprob'")
            try:
                pair = (index[parts[0]], index[parts[1]])
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: unknown node {exc}") from None
            slot = slot_of.get(pair)
            if slot is None or slot in prob_at:
                problem = "is not an edge of the graph" if slot is None else "is a duplicate entry"
                raise ValueError(f"{path}:{lineno}: {parts[0]} -> {parts[1]} {problem}")
            prob = crosswalk._number(path, lineno, "probability", parts[2])
            if not (math.isfinite(prob) and prob >= 0):
                raise ValueError(f"{path}:{lineno}: probability {parts[2]!r} is not finite >= 0")
            prob_at[slot] = prob
    if len(prob_at) < len(slot_of):
        e = min(set(range(len(slot_of))) - prob_at.keys())
        ids = graph.original_ids
        u, v = ids[graph.rows[e]], ids[graph.indices[e]]
        raise ValueError(f"{path}: no line for edge {u} -> {v}")
    probs = np.empty(len(slot_of), dtype=np.float64)
    probs[list(prob_at)] = list(prob_at.values())
    sums = np.bincount(graph.rows, weights=probs, minlength=graph.node_count)
    bad = np.flatnonzero((np.diff(graph.indptr) > 0)
                         & ~(np.abs(sums - 1.0) <= crosswalk.ROW_SUM_TOLERANCE))
    if len(bad):
        v = bad[0]
        raise ValueError(f"{path}: probabilities out of node {graph.original_ids[v]} "
                         f"sum to {float(sums[v])!r}, not 1")
    return TransitionWeights(graph, probs, **header)


def load_outcome(load, *args):
    """What ``load`` returns, or the type and message of the ValueError it raises."""
    try:
        return load(*args)
    except ValueError as exc:
        return type(exc), str(exc)


BIASED_IDS = ["0", "1", "2", "3", "10", "-1", "a", "b", "n1", "x_y", "z"]
BIASED_FAULT_KINDS = ("duplicate", "unknown", "not an edge", "probability", "fields", "header",
                      "missing", "row sum")


def draw_biased_file(draw, path, faults):
    """Write a saved biased file of a small block model with numeric and
    string IDs, its lines shuffled among comments, blank lines and its
    header, CRLF or LF, with ``faults`` faults; return the graph."""
    g, _ = generate_sbm([4, 5], 0.7, 0.3, seed=draw(st.integers(0, 2**16)))
    g = replace(g, original_ids=draw(st.permutations(BIASED_IDS))[:g.node_count])
    if draw(st.booleans()) and len(set(g.attributes["block"])) == 2:
        p = partition_by(g, "block")
        weights = reweight(g, p, estimate_closeness(g, p, 3, 3, seed=1), 0.3, 2.0)
    else:
        weights = TransitionWeights.from_graph(g)
    save_biased(weights, path)
    header, *lines = path.read_text().splitlines()
    lines = draw(st.permutations(lines))
    extras = ["", "  ", "\t", "# note", "#alpha=0.25", "# a\tb\tc"]
    for extra in draw(st.lists(st.sampled_from(extras), max_size=6)) + [header]:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    for fault in draw(st.lists(st.sampled_from(BIASED_FAULT_KINDS), min_size=faults,
                               max_size=faults)):
        i = draw(st.sampled_from([i for i, line in enumerate(lines)
                                  if line.count("\t") == 2 and line[0] != "#"]))
        u, v, prob = lines[i].split("\t")
        if fault == "duplicate":
            lines.insert(draw(st.integers(i + 1, len(lines))), lines[i])
        elif fault == "unknown":
            lines[i] = draw(st.sampled_from([f"ghost\t{v}\t{prob}", f"{u}\tghost\t{prob}"]))
        elif fault == "not an edge":
            lines[i] = f"{u}\t{u}\t{prob}"
        elif fault == "probability":
            lines[i] = f"{u}\t{v}\t" + draw(st.sampled_from(["abc", "-0.5", "nan", "inf"]))
        elif fault == "fields":
            lines[i] = draw(st.sampled_from([f"{u}\t{v}", f"{u} {v} {prob}", lines[i] + "\t1"]))
        elif fault == "header":
            lines.insert(i, "# beta=abc")
        elif fault == "missing":
            lines[i] = "# dropped"
        else:
            lines[i] = f"{u}\t{v}\t0.75"
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    path.write_bytes((newline.join(lines) + newline).encode())
    return g


class TestLoadBiasedParity:
    """``load_biased`` reads blocks of ``LOAD_BLOCK_LINES`` lines, patched
    down here so that every file spans several; the reference reads line
    by line."""

    def check(self, path, g):
        want = load_outcome(reference_load_biased, path, g)
        with mock.patch.object(graph_mod, "LOAD_BLOCK_LINES", 5):
            got = load_outcome(load_biased, path, g)
        if isinstance(want, TransitionWeights):
            assert isinstance(got, TransitionWeights)
            assert got.probs.tobytes() == want.probs.tobytes()
            assert (got.alpha, got.beta) == (want.alpha, want.beta)
        else:
            assert got == want
        return got

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_valid_files_load_as_the_reference(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("parity") / "biased.edges"
        got = self.check(path, draw_biased_file(data.draw, path, faults=0))
        assert isinstance(got, TransitionWeights)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_faulty_files_raise_as_the_reference(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("parity") / "biased.edges"
        self.check(path, draw_biased_file(data.draw, path, faults=2))

    LINES = ["# alpha=0.5 beta=1.0", "0\t1\t1.0", "1\t0\t0.5", "1\t2\t0.5", "2\t1\t1.0"]

    @pytest.mark.parametrize("block", [1, 2, 3, 1024])
    def test_later_check_on_earlier_line_wins(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(graph_mod, "LOAD_BLOCK_LINES", block)
        g = make_graph([(0, 1), (1, 2)], attrs={"loc": ["X", "Y", "X"]})
        faults = ["1\t0\tabc", "# beta=x", "1\t9\t0.5", "1\t2"]  # each later check first
        lines = self.LINES[:2] + faults + self.LINES[4:]
        path = tmp_path / "biased.edges"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError, match=r"biased\.edges:3: probability 'abc' is not a"):
            load_biased(path, g)
        self.check(path, g)

    @pytest.mark.parametrize("block", [2, 3, 4])
    def test_duplicate_of_a_line_in_an_earlier_block(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(graph_mod, "LOAD_BLOCK_LINES", block)
        g = make_graph([(0, 1), (1, 2)], attrs={"loc": ["X", "Y", "X"]})
        path = tmp_path / "biased.edges"
        path.write_text("".join(line + "\n" for line in self.LINES + ["", "#", "0\t1\t1.0"]))
        with pytest.raises(ValueError, match=r"biased\.edges:8: 0 -> 1 is a duplicate entry"):
            load_biased(path, g)
        self.check(path, g)


class TestLoadBiasedMemory:
    # traced bytes per line at the peak of a load: the arrays per CSR slot
    # plus one block of text stay below it, a dict entry per line does not
    BOUND_PER_LINE = 150

    def test_peak_is_bounded_per_line(self, tmp_path):
        g, _ = generate_sbm([400, 400], 0.06, 0.005, seed=3)
        path = tmp_path / "biased.edges"
        save_biased(TransitionWeights.from_graph(g), path)
        lines = len(g.indices)
        assert lines >= 16 * graph_mod.LOAD_BLOCK_LINES
        peak = {}
        for load in (load_biased, reference_load_biased):
            tracemalloc.start()
            try:
                load(path, g)
                peak[load] = tracemalloc.get_traced_memory()[1] / lines
            finally:
                tracemalloc.stop()
        assert peak[load_biased] < self.BOUND_PER_LINE < peak[reference_load_biased]
