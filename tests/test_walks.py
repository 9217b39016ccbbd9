import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairwalks import graph as graph_mod
from fairwalks.graph import draw_slots, generate_sbm
from fairwalks.seeds import rng_for
from fairwalks.walks import (
    PAD,
    TransitionWeights,
    WalkConfig,
    WalkCorpus,
    _edge_table,
    generate_walks,
    load_corpus_tokens,
    pad_walks,
    save_corpus,
    transition_distribution,
)
from tests.conftest import make_graph


def weights_for(edges, n=None):
    return TransitionWeights.from_graph(make_graph(edges, n=n))


def reference_walk(weights, root, length, p, q, draws):
    """One walk, one inverse-CDF draw per step over its row, ``draws[step]`` at each step."""
    walk = [root]
    prev = None
    cur = root
    for step in range(length):
        if prev is None or (p == 1.0 and q == 1.0):
            row = slice(weights.indptr[cur], weights.indptr[cur + 1])
            nbrs, cum = weights.indices[row], np.cumsum(weights.probs[row])
        else:
            nbrs, probs = transition_distribution(weights, prev, cur, p, q)
            cum = np.cumsum(probs)
        if len(nbrs) == 0:
            break
        idx = np.searchsorted(cum, draws[step] * cum[-1], side="right")
        nxt = int(nbrs[min(idx, len(nbrs) - 1)])
        walk.append(nxt)
        prev, cur = cur, nxt
    return walk


def reference_walks(weights, config):
    """The one-stream scheme, read back one scalar at a time: a generator
    seeded ``(seed, "walks")`` draws every round's root permutation, then at
    each step one uniform per walk from a non-isolated root, in row order.
    Each walk then runs alone with its draws."""
    rng = rng_for(config.seed, "walks")
    roots = []
    for _ in range(config.walks_per_node):
        roots += rng.permutation(weights.node_count).tolist()
    live = [i for i, root in enumerate(roots) if weights.graph.degree(root) > 0]
    draws = {i: [] for i in live}
    for _ in range(config.walk_length):
        for i in live:
            draws[i].append(rng.random())
    return [
        reference_walk(weights, root, config.walk_length, config.p, config.q, draws.get(i))
        for i, root in enumerate(roots)
    ]


REFERENCE_GRAPHS = {
    "sbm_two_blocks": lambda: generate_sbm([8, 8], 0.5, 0.1, seed=3)[0],
    "sbm_three_blocks": lambda: generate_sbm([5, 10, 15], 0.4, 0.05, seed=7)[0],
    "weighted": lambda: make_graph(
        [(0, 1, 3.0), (0, 2, 0.5), (1, 2, 1.0), (2, 3, 7.0), (3, 4, 0.25), (1, 4, 2.0)]
    ),
    "isolated_node": lambda: make_graph([(0, 1), (1, 2), (2, 3), (0, 2)], n=6),
    # a weighted star of degree 40 plus a path among its leaves
    "hub": lambda: make_graph(
        [(0, v, 1.0 + v % 7) for v in range(1, 41)] + [(v, v + 1, 0.5) for v in range(1, 40)]
    ),
}


def assert_edge_rows_bitwise(tw, p, q):
    """Every directed edge's row of the (p, q) table is ``np.cumsum`` of its
    target's probabilities times the node2vec factors after its source, bit
    for bit, and the rows tile the table with no gap or overlap."""
    table, layout = _edge_table(tw, p, q), tw.graph.walk_layout
    span, lengths = layout.span, np.diff(tw.indptr)[tw.indices]
    order = np.argsort(span, kind="stable")
    starts = [0] + (span[order] + lengths[order]).tolist()  # each row starts where one ends
    assert span[order].tolist() == starts[:-1]
    assert len(table) == layout.size == starts[-1] == lengths.sum()
    for e, (prev, cur) in enumerate(zip(tw.graph.rows.tolist(), tw.indices.tolist())):
        nbrs, probs = tw.out_distribution(cur)
        near = np.isin(nbrs, tw.graph.neighbors(prev))
        factor = np.where(nbrs == prev, 1.0 / p, np.where(near, 1.0, 1.0 / q))
        assert table[span[e]:span[e] + len(nbrs)].tolist() == np.cumsum(probs * factor).tolist()


@st.composite
def walk_graphs(draw):
    """Random weighted graphs: random pairs, a star with a few extra edges,
    or disjoint k-cliques (every node of degree k - 1), plus isolated nodes."""
    kind = draw(st.sampled_from(["random", "hub", "cliques"]))
    n = draw(st.integers(2, 24))
    node = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(node, node), max_size=60 if kind == "random" else 8))
    if kind == "hub":
        extra += [(0, v) for v in range(1, n)]
    elif kind == "cliques":
        k = draw(st.integers(2, 5))
        extra = [(a + i, a + j) for a in range(0, n - k + 1, k) for i in range(k) for j in range(i)]
    pairs = sorted({(min(u, v), max(u, v)) for u, v in extra if u != v})
    weights = draw(st.lists(st.floats(0.01, 100.0), min_size=len(pairs), max_size=len(pairs)))
    isolated = draw(st.integers(0, 3))
    return make_graph([(u, v, w) for (u, v), w in zip(pairs, weights)], n=n + isolated)


class TestWalkLayout:
    @given(graph=walk_graphs())
    @settings(max_examples=60, deadline=None)
    def test_edge_rows_bitwise(self, graph):
        tw = TransitionWeights.from_graph(graph)
        for p, q in [(0.5, 2.0), (4.0, 0.25), (1.0, 2.0)]:
            assert_edge_rows_bitwise(tw, p, q)

    @given(graph=walk_graphs())
    @settings(max_examples=30, deadline=None)
    def test_slabs_hold_the_nodes_by_degree(self, graph):
        layout, deg = graph.walk_layout, np.diff(graph.indptr)
        covered = []
        for d, count, row, cell in layout.slabs:
            nodes = np.flatnonzero(deg == d)
            assert len(nodes) == count
            assert layout.row_at[nodes].tolist() == list(range(row, row + count * d, d))
            assert layout.cell_at[nodes].tolist() == list(range(cell, cell + count * d * d, d * d))
            covered += nodes.tolist()
        assert sorted(covered) == np.flatnonzero(deg).tolist()
        assert sorted(layout.slots.tolist()) == list(range(len(graph.indices)))
        for v in covered:
            row = layout.row_at[v]
            assert layout.slots[row:row + deg[v]].tolist() == list(range(*graph.indptr[v:v + 2]))

    def test_codes_are_built_once_and_only_for_second_order(self, monkeypatch):
        built = []
        original = graph_mod._edge_codes
        monkeypatch.setattr(graph_mod, "_edge_codes", lambda *a: built.append(1) or original(*a))
        tw = TransitionWeights.from_graph(REFERENCE_GRAPHS["hub"]())
        generate_walks(tw, WalkConfig(walks_per_node=2, walk_length=6, seed=1))
        generate_walks(tw, WalkConfig(p=0.5, q=2.0, walks_per_node=2, walk_length=1, seed=1))
        assert built == [] and "codes" not in vars(tw.graph.walk_layout)
        generate_walks(tw, WalkConfig(p=0.5, q=2.0, walks_per_node=2, walk_length=6, seed=1))
        generate_walks(tw, WalkConfig(p=4.0, q=0.25, walks_per_node=2, walk_length=6, seed=1))
        assert built == [1]


class TestTransitionWeights:
    def test_from_graph_normalizes_each_row(self):
        # node 0 has 9 neighbors, so a pairwise row sum and an in-order one may differ
        rng = np.random.default_rng(3)
        edges = [(0, v, float(rng.uniform(0.1, 9.0))) for v in range(1, 10)]
        edges += [(1, 2, 0.3), (2, 3, 1.7), (4, 9, 2.2)]
        g = make_graph(edges, n=11)  # node 10 is isolated
        tw = TransitionWeights.from_graph(g)
        for v in range(g.node_count):
            nbrs, probs = tw.out_distribution(v)
            w = g.neighbor_weights(v)
            assert nbrs.tolist() == g.neighbors(v).tolist()
            np.testing.assert_allclose(probs, w / w.sum(), rtol=1e-12)
        assert len(tw.out_distribution(10)[1]) == 0

    def test_baseline_weights_expose_the_graph(self):
        g = make_graph([(0, 1, 3.0), (0, 2, 1.0), (1, 2, 1.0)])
        tw = TransitionWeights.from_graph(g)
        assert tw.alpha is None and tw.beta is None
        assert tw.node_count == 3 and tw.indptr is g.indptr and tw.indices is g.indices
        nbrs, probs = tw.out_distribution(0)
        assert nbrs.tolist() == [1, 2] and probs.tolist() == [0.75, 0.25]


class TestTransitionDistribution:
    def test_p_q_one_ignores_prev(self):
        tw = weights_for([(0, 1, 3.0), (0, 2, 1.0), (1, 2, 1.0)])
        nbrs, probs = transition_distribution(tw, prev=2, cur=0, p=1.0, q=1.0)
        np.testing.assert_allclose(probs, [0.75, 0.25])
        nbrs2, probs2 = transition_distribution(tw, prev=None, cur=0, p=1.0, q=1.0)
        np.testing.assert_allclose(probs, probs2)

    def test_path_fixture(self):
        # path t(0) - v(1) - x(2); from v with prev t: t scores 1/p=2, x scores 1/q=0.5
        tw = weights_for([(0, 1), (1, 2)])
        nbrs, probs = transition_distribution(tw, prev=0, cur=1, p=0.5, q=2.0)
        assert nbrs.tolist() == [0, 2]
        np.testing.assert_allclose(probs, [0.8, 0.2], atol=1e-12)

    def test_triangle_fixture(self):
        # triangle: x is adjacent to prev, so factor 1 regardless of q
        tw = weights_for([(0, 1), (1, 2), (0, 2)])
        for q in (0.1, 1.0, 10.0):
            p = 0.25
            nbrs, probs = transition_distribution(tw, prev=0, cur=1, p=p, q=q)
            assert nbrs.tolist() == [0, 2]
            expected_t = (1 / p) / (1 / p + 1)
            np.testing.assert_allclose(probs, [expected_t, 1 - expected_t], atol=1e-12)

    def test_isolated_cur_empty(self):
        tw = weights_for([(0, 1)], n=3)
        nbrs, probs = transition_distribution(tw, prev=None, cur=2, p=1.0, q=1.0)
        assert len(nbrs) == 0 and len(probs) == 0

    def test_monte_carlo_matches_analytic(self):
        g, _ = generate_sbm([6, 6], 0.8, 0.4, seed=13)
        tw = TransitionWeights.from_graph(g)
        prev, cur = int(tw.indices[tw.indptr[0]]), 0
        p, q = 0.5, 2.0
        nbrs, probs = transition_distribution(tw, prev, cur, p, q)
        rng = np.random.default_rng(99)
        draws = rng.random(100_000)
        cum = np.cumsum(probs)
        counts = np.bincount(
            np.searchsorted(cum, draws * cum[-1], side="right").clip(0, len(nbrs) - 1),
            minlength=len(nbrs),
        )
        tv = 0.5 * np.abs(counts / len(draws) - probs).sum()
        assert tv <= 0.01


class TestGenerateWalks:
    def test_single_edge_walk(self):
        tw = weights_for([(0, 1)])
        corpus = generate_walks(tw, WalkConfig(walks_per_node=1, walk_length=3, seed=0))
        by_root = {w[0]: w for w in corpus.walks}
        assert by_root[0] == [0, 1, 0, 1]
        assert by_root[1] == [1, 0, 1, 0]

    def test_corpus_size(self):
        g, _ = generate_sbm([5], 1.0, 0.0, seed=1)
        tw = TransitionWeights.from_graph(g)
        corpus = generate_walks(tw, WalkConfig(walks_per_node=2, walk_length=4, seed=0))
        assert len(corpus) == 10
        roots = sorted(w[0] for w in corpus.walks)
        assert roots == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]

    def test_isolated_root_singleton(self):
        tw = weights_for([(0, 1)], n=3)
        corpus = generate_walks(tw, WalkConfig(walks_per_node=1, walk_length=5, seed=0))
        by_root = {w[0]: w for w in corpus.walks}
        assert by_root[2] == [2]

    def test_reproducible(self):
        g, _ = generate_sbm([8, 8], 0.5, 0.1, seed=3)
        tw = TransitionWeights.from_graph(g)
        cfg = WalkConfig(p=0.5, q=2.0, walks_per_node=3, walk_length=10, seed=21)
        c1 = generate_walks(tw, cfg)
        c2 = generate_walks(tw, cfg)
        assert c1.walks == c2.walks
        c3 = generate_walks(tw, WalkConfig(p=0.5, q=2.0, walks_per_node=3, walk_length=10, seed=22))
        assert c1.walks != c3.walks

    @given(
        seed=st.integers(0, 2**16),
        p=st.sampled_from([0.1, 0.5, 1.0, 5.0]),
        q=st.sampled_from([0.1, 1.0, 10.0]),
    )
    @settings(max_examples=20)
    def test_walks_follow_edges(self, seed, p, q):
        g, _ = generate_sbm([7, 7], 0.6, 0.15, seed=seed % 100)
        edge_set = {(int(u), int(v)) for u, v in g.edge_index}
        edge_set |= {(v, u) for u, v in edge_set}
        tw = TransitionWeights.from_graph(g)
        corpus = generate_walks(tw, WalkConfig(p=p, q=q, walks_per_node=2, walk_length=6, seed=seed))
        for walk in corpus.walks:
            for a, b in zip(walk, walk[1:]):
                assert (a, b) in edge_set
            assert len(walk) <= 7

    def test_second_order_sampling_matches_distribution(self):
        # frequency of the step after a fixed (prev, cur) across many walks
        tw = weights_for([(0, 1), (1, 2), (0, 2), (1, 3), (3, 4)])
        p, q = 0.25, 4.0
        nbrs, probs = transition_distribution(tw, prev=0, cur=1, p=p, q=q)
        rng = np.random.default_rng(5)
        counts = np.zeros(len(nbrs))
        n_draws = 100_000
        draws = rng.random(n_draws)
        cum = np.cumsum(probs)
        idx = np.searchsorted(cum, draws * cum[-1], side="right").clip(0, len(nbrs) - 1)
        counts = np.bincount(idx, minlength=len(nbrs))
        tv = 0.5 * np.abs(counts / n_draws - probs).sum()
        assert tv <= 0.01


    @pytest.mark.parametrize("graph", sorted(REFERENCE_GRAPHS))
    @pytest.mark.parametrize("p, q", [(1.0, 1.0), (0.5, 2.0), (4.0, 0.25)])
    def test_matches_per_walk_reference(self, graph, p, q):
        tw = TransitionWeights.from_graph(REFERENCE_GRAPHS[graph]())
        config = WalkConfig(p=p, q=q, walks_per_node=3, walk_length=15, seed=11)
        assert generate_walks(tw, config).walks == reference_walks(tw, config)

    def test_engine_step_matches_distribution(self):
        # criterion 1.1's fixture, sampled by the walk engine's edge table
        tw = weights_for([(0, 1), (1, 2), (1, 3), (0, 2)])
        p, q = 0.5, 2.0
        nbrs, probs = transition_distribution(tw, prev=0, cur=1, p=p, q=q)
        table, span = _edge_table(tw, p, q), tw.graph.walk_layout.span
        edge = tw.indptr[0] + tw.graph.neighbors(0).tolist().index(1)  # the slot of 0 -> 1
        n_walkers = 100_000
        starts, lengths = np.full(n_walkers, span[edge]), np.full(n_walkers, tw.graph.degree(1))
        draws = np.random.default_rng(17).random(n_walkers)
        slots = tw.indptr[1] + draw_slots(table, starts, lengths, draws)
        freq = np.bincount(tw.indices[slots], minlength=tw.node_count)[nbrs] / n_walkers
        tv = 0.5 * np.abs(freq - probs).sum()
        assert tv <= 0.01

    @pytest.mark.parametrize("graph", ["hub", "sbm_three_blocks"])
    @pytest.mark.parametrize("p, q", [(0.5, 2.0), (4.0, 0.25)])
    def test_edge_table_spans_bitwise(self, graph, p, q):
        # every edge's row is the running sums of its target's row times the
        # node2vec factors after its source, summed in row order
        tw = TransitionWeights.from_graph(REFERENCE_GRAPHS[graph]())
        assert_edge_rows_bitwise(tw, p, q)

    @pytest.mark.parametrize("graph", ["hub", "sbm_three_blocks"])
    @pytest.mark.parametrize("block_slots", [1, 41])
    def test_small_fill_blocks_match(self, graph, block_slots, monkeypatch):
        # 1 builds the codes edge by edge and fills the table row by row; 41
        # packs leaf rows and cuts the hub's 40 x 40 block into single rows
        config = WalkConfig(p=0.5, q=2.0, walks_per_node=3, walk_length=15, seed=11)
        tw = TransitionWeights.from_graph(REFERENCE_GRAPHS[graph]())
        expected, expected_table = generate_walks(tw, config).walks, _edge_table(tw, 0.5, 2.0)
        monkeypatch.setattr(graph_mod, "FILL_BLOCK_SLOTS", block_slots)
        tw = TransitionWeights.from_graph(REFERENCE_GRAPHS[graph]())  # a fresh layout
        assert generate_walks(tw, config).walks == expected
        assert _edge_table(tw, 0.5, 2.0).tolist() == expected_table.tolist()

    @pytest.mark.parametrize("graph", ["hub", "sbm_three_blocks"])
    @pytest.mark.parametrize("mark_rows", [1, 2])
    def test_few_mark_rows_match(self, graph, mark_rows, monkeypatch):
        # a block holds at most mark_rows previous nodes, so it ends at every
        # (or every other) change of source
        config = WalkConfig(p=0.5, q=2.0, walks_per_node=3, walk_length=15, seed=11)
        tw = TransitionWeights.from_graph(REFERENCE_GRAPHS[graph]())
        expected, expected_table = generate_walks(tw, config).walks, _edge_table(tw, 0.5, 2.0)
        monkeypatch.setattr(graph_mod, "MARK_CELLS", mark_rows * tw.node_count)
        tw = TransitionWeights.from_graph(REFERENCE_GRAPHS[graph]())  # a fresh layout
        assert generate_walks(tw, config).walks == expected
        assert _edge_table(tw, 0.5, 2.0).tolist() == expected_table.tolist()


class TestPaddedCorpus:
    def test_isolated_root_row_is_root_then_pad(self, tmp_path):
        g = REFERENCE_GRAPHS["isolated_node"]()
        corpus = generate_walks(TransitionWeights.from_graph(g), WalkConfig(walk_length=4, seed=3))
        assert corpus.paths.shape == (10 * g.node_count, 5)
        path = tmp_path / "corpus.txt"
        save_corpus(corpus, path, original_ids=g.original_ids)
        lines = path.read_text().splitlines()
        for row, walk, line in zip(corpus.paths.tolist(), corpus.walks, lines, strict=True):
            if row[0] in (4, 5):  # the isolated nodes
                assert row == [row[0]] + [PAD] * 4
                assert walk == [row[0]]
                assert line == g.original_ids[row[0]]
            else:
                assert PAD not in row
                assert walk == row
                assert line.split() == [g.original_ids[v] for v in walk]

    def test_pad_walks_drops_empty_walks(self):
        paths = pad_walks([[3, 1], [], [2], [0, 1, 2]])
        assert paths.dtype == np.int64
        assert paths.tolist() == [[3, 1, PAD], [2, PAD, PAD], [0, 1, 2]]
        assert pad_walks([]).shape == (0, 0)


class TestWalkConfig:
    @pytest.mark.parametrize("field", ["p", "q"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_p_and_q_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive, got {value}"):
            WalkConfig(**{field: value})


class TestCorpusIO:
    def test_round_trip_with_ids(self, tmp_path):
        corpus = WalkCorpus(pad_walks([[0, 1, 0], [1, 0, 1]]))
        path = tmp_path / "corpus.txt"
        save_corpus(corpus, path, original_ids=["a", "b"])
        assert load_corpus_tokens(path) == [["a", "b", "a"], ["b", "a", "b"]]

    def test_empty_corpus_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n")
        with pytest.raises(ValueError):
            load_corpus_tokens(path)
