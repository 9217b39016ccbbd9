import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairwalks.graph as graph_mod
from fairwalks.graph import (
    AttributedGraph,
    _induced,
    ControlAttributeSpec,
    GraphFormatError,
    bin_age,
    bin_age_attribute,
    component_labels,
    draw_slots,
    generate_sbm,
    load_graph,
    partition_by,
    save_graph,
    select_subgraph,
)
from fairwalks.walks import TransitionWeights, _row_sums


def write_dataset(tmp_path, edge_lines, attr_lines, prefix="g"):
    edge_path = tmp_path / f"{prefix}.edges"
    attr_path = tmp_path / f"{prefix}.attrs"
    edge_path.write_text("\n".join(edge_lines) + "\n")
    attr_path.write_text("\n".join(attr_lines) + "\n")
    return edge_path, attr_path


TRIANGLE_ATTRS = ["node\tloc", "a\tX", "b\tX", "c\tY"]


class TestLoadGraph:
    def test_identity_ingestion(self, tmp_path):
        paths = write_dataset(tmp_path, ["a b", "b c", "a c"], TRIANGLE_ATTRS)
        g = load_graph(*paths)
        assert g.node_count == 3
        assert g.edge_count == 3
        assert np.all(g.edge_weight == 1.0)
        assert g.original_ids == ["a", "b", "c"]

    def test_duplicate_edges_collapse_by_weight_sum(self, tmp_path):
        paths = write_dataset(tmp_path, ["a b", "b a"], ["node\tloc", "a\tX", "b\tY"])
        g = load_graph(*paths)
        assert g.edge_count == 1
        assert g.edge_weight[0] == 2.0

    def test_nodes_missing_attributes_dropped(self, tmp_path):
        paths = write_dataset(
            tmp_path, ["a b", "b c", "a c"], ["node\tloc", "a\tX", "b\tX"]
        )
        g = load_graph(*paths)
        assert g.node_count == 2
        assert g.edge_count == 1
        assert g.original_ids == ["a", "b"]

    def test_empty_attribute_value_counts_as_missing(self, tmp_path):
        paths = write_dataset(
            tmp_path, ["a b", "b c", "a c"], ["node\tloc", "a\tX", "b\tX", "c\t"]
        )
        g = load_graph(*paths)
        assert g.original_ids == ["a", "b"]
        assert g.attributes["loc"] == ["X", "X"]

    def test_explicit_weights_and_comments(self, tmp_path):
        paths = write_dataset(
            tmp_path,
            ["# header comment", "a b 2.5", "b c 0.5  # trailing"],
            TRIANGLE_ATTRS,
        )
        g = load_graph(*paths)
        assert g.edge_count == 2
        assert sorted(g.edge_weight.tolist()) == [0.5, 2.5]

    def test_malformed_line_reports_line_number(self, tmp_path):
        paths = write_dataset(
            tmp_path, ["a b", "a b c d e"], ["node\tloc", "a\tX", "b\tY"]
        )
        with pytest.raises(GraphFormatError, match=":2"):
            load_graph(*paths)

    def test_non_numeric_weight_rejected(self, tmp_path):
        paths = write_dataset(tmp_path, ["a b heavy"], ["node\tloc", "a\tX", "b\tY"])
        with pytest.raises(GraphFormatError, match=":1"):
            load_graph(*paths)

    def test_attribute_row_for_unknown_node_rejected(self, tmp_path):
        paths = write_dataset(
            tmp_path, ["a b"], ["node\tloc", "a\tX", "b\tY", "z\tX"]
        )
        with pytest.raises(GraphFormatError, match="unknown node"):
            load_graph(*paths)

    def test_empty_after_filtering_rejected(self, tmp_path):
        paths = write_dataset(tmp_path, ["a b"], ["node\tloc"])
        with pytest.raises(GraphFormatError, match="empty graph"):
            load_graph(*paths)

    def test_self_loops_dropped_and_counted(self, tmp_path):
        paths = write_dataset(
            tmp_path, ["a a", "a b"], ["node\tloc", "a\tX", "b\tY"]
        )
        g = load_graph(*paths)
        assert g.edge_count == 1
        assert g.edge_index.tolist() == [[0, 1]]

    def test_node_named_only_by_self_loops_is_kept_isolated(self, tmp_path):
        paths = write_dataset(
            tmp_path, ["a b", "c c"], ["node\tloc", "a\tX", "b\tY", "c\tX"]
        )
        g = load_graph(*paths)
        assert g.original_ids == ["a", "b", "c"]
        assert g.edge_index.tolist() == [[0, 1]]
        assert g.degree(2) == 0

    def test_node_whose_neighbour_is_dropped_is_kept_isolated(self, tmp_path):
        paths = write_dataset(
            tmp_path, ["a b", "c d"], ["node\tloc", "a\tX", "b\tY", "c\tX", "d\t"]
        )
        g = load_graph(*paths)
        assert g.original_ids == ["a", "b", "c"]
        assert g.degree(2) == 0

    def test_numeric_ids_sorted_numerically(self, tmp_path):
        paths = write_dataset(
            tmp_path,
            ["10 2", "2 1"],
            ["node\tloc", "10\tX", "2\tY", "1\tZ"],
        )
        g = load_graph(*paths)
        assert g.original_ids == ["1", "2", "10"]


class TestRoundTrip:
    def test_fixture_round_trip(self, tmp_path):
        paths = write_dataset(
            tmp_path, ["a b 2.0", "b c", "a c 0.25"], TRIANGLE_ATTRS
        )
        g1 = load_graph(*paths)
        out = (tmp_path / "rt.edges", tmp_path / "rt.attrs")
        save_graph(g1, *out)
        g2 = load_graph(*out)
        assert g1 == g2

    @given(
        edges=st.sets(
            st.tuples(st.integers(0, 9), st.integers(0, 9)).filter(
                lambda e: e[0] != e[1]
            ),
            min_size=1,
            max_size=20,
        ),
        weights_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30)
    def test_round_trip_random_graphs(self, tmp_path_factory, edges, weights_seed):
        tmp_path = tmp_path_factory.mktemp("rt")
        rng = np.random.default_rng(weights_seed)
        nodes = sorted({v for e in edges for v in e})
        edge_lines = [
            f"n{u}\tn{v}\t{float(rng.uniform(0.1, 5.0))!r}"
            for u, v in edges
            if u < v or (v, u) not in edges
        ]
        attr_lines = ["node\tcolor"] + [
            f"n{v}\t{'red' if v % 2 else 'blue'}" for v in nodes
        ]
        paths = write_dataset(tmp_path, edge_lines, attr_lines)
        g1 = load_graph(*paths)
        out = (tmp_path / "o.edges", tmp_path / "o.attrs")
        save_graph(g1, *out)
        assert load_graph(*out) == g1


def reference_load_graph(edge_path, attr_path):
    """``load_graph`` one line at a time, as it was before the block reader:
    a dict of string pairs summed in file order, then densified. Every ID
    on a data line is a node, a self-loop's too."""
    edges, names = {}, set()
    with open(edge_path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphFormatError(
                    f"{edge_path}:{lineno}: expected 'u v [weight]', got {len(parts)} fields"
                )
            u, v = parts[0], parts[1]
            if len(parts) == 3:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise GraphFormatError(
                        f"{edge_path}:{lineno}: weight {parts[2]!r} is not a number"
                    ) from None
                if not w > 0:
                    raise GraphFormatError(f"{edge_path}:{lineno}: weight must be > 0")
            else:
                w = 1.0
            names.update((u, v))
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            edges[key] = edges.get(key, 0.0) + w
    attr_names, attr_rows = graph_mod._parse_attr_file(attr_path)
    for nid in attr_rows:
        if nid not in names:
            raise GraphFormatError(f"{attr_path}: attribute row for unknown node {nid!r}")
    kept = [nid for nid in names if nid in attr_rows and all(v != "" for v in attr_rows[nid])]
    if not kept:
        raise GraphFormatError("empty graph after filtering: no nodes kept")
    order = sorted(kept, key=graph_mod._id_key)
    index = {nid: i for i, nid in enumerate(order)}
    kept_edges = [(index[u], index[v], w) for (u, v), w in edges.items()
                  if u in index and v in index]
    edge_index = np.sort(np.array([e[:2] for e in kept_edges], dtype=np.int64).reshape(-1, 2),
                         axis=1)
    edge_weight = np.array([e[2] for e in kept_edges], dtype=np.float64)
    sort = np.lexsort((edge_index[:, 1], edge_index[:, 0]))
    attributes = {
        name: [attr_rows[nid][j] for nid in order] for j, name in enumerate(attr_names)
    }
    g = AttributedGraph(len(order), edge_index[sort], edge_weight[sort], attributes, order)
    if g.edge_count == 0:
        raise GraphFormatError("empty graph after filtering: no edges kept")
    return g


def load_outcome(load, *args):
    """What ``load`` returns, or the type and message of the ValueError it raises."""
    try:
        return load(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# no two IDs share an ``_id_key``: ties are ordered by first sight, not by a set
ID_POOL = [str(i) for i in range(-2, 10)] + ["a", "b", "n1", "n10", "x_y"]
EDGE_FAULT_LINES = ["{u} {v} 1 2", "{u}", "{u} {v} heavy", "{u} {v} 0", "{u} {v} -1.5",
                    "{u} {v} nan"]


@st.composite
def edge_files(draw, faults):
    """(edge file text, attribute file text) of more lines than a patched
    block: repeated edges in both orientations, self-loops, fractional
    weights, comments, blank lines, CRLF, missing attribute values, and
    ``faults`` faulty lines."""
    ids = draw(st.lists(st.sampled_from(ID_POOL), min_size=2, max_size=8, unique=True))
    node = st.sampled_from(ids)
    edge = st.tuples(node, node, st.sampled_from([None, "1", "0.5", "2.25", "1e-3", "0.1", "7"]),
                     st.sampled_from([" ", "\t", "  ", " \t"]),
                     st.sampled_from(["", "  # note", "\t#x", " "]))
    other = st.sampled_from(["", "   ", "# comment", "#", "\t# indented"])
    specs = draw(st.lists(st.one_of(edge, edge, edge, other), min_size=12, max_size=40))
    lines = [
        spec if isinstance(spec, str)
        else spec[3].join(filter(None, spec[:3])) + spec[4]
        for spec in specs
    ]
    for fault in draw(st.lists(st.sampled_from(EDGE_FAULT_LINES), min_size=faults,
                               max_size=faults)):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, fault.format(u=draw(node), v=draw(node)))
    named = {nid for spec in specs if not isinstance(spec, str) for nid in spec[:2]}
    rows = [f"{nid}\t{draw(st.sampled_from(['X', 'Y', 'Y', '']))}" for nid in sorted(named)
            if draw(st.booleans()) or draw(st.booleans())]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline, "\n".join(["node\tloc"] + rows) + "\n"


class TestLoadGraphParity:
    """``load_graph`` reads blocks of ``LOAD_BLOCK_LINES`` lines, patched down
    here so that every file spans several; the reference reads line by line."""

    def check(self, tmp_path, texts):
        edge_path, attr_path = tmp_path / "g.edges", tmp_path / "g.attrs"
        edge_path.write_bytes(texts[0].encode())
        attr_path.write_bytes(texts[1].encode())
        want = load_outcome(reference_load_graph, edge_path, attr_path)
        with mock.patch.object(graph_mod, "LOAD_BLOCK_LINES", 5):
            got = load_outcome(load_graph, edge_path, attr_path)
        if isinstance(want, AttributedGraph):
            assert got == want
            assert got.edge_weight.tobytes() == want.edge_weight.tobytes()
        else:
            assert got == want
        return got

    @given(texts=edge_files(faults=0))
    @settings(max_examples=60, deadline=None)
    def test_valid_files_load_as_the_reference(self, tmp_path_factory, texts):
        self.check(tmp_path_factory.mktemp("parity"), texts)

    @given(texts=edge_files(faults=2))
    @settings(max_examples=60, deadline=None)
    def test_faulty_files_raise_as_the_reference(self, tmp_path_factory, texts):
        got = self.check(tmp_path_factory.mktemp("parity"), texts)
        assert isinstance(got, tuple) and got[0] is GraphFormatError

    @pytest.mark.parametrize("lines", [
        ["a b", "a b 0", "a b c d"],  # the weight fault sits on the earlier line
        ["a b", "a b c d", "a b 0"],
        ["a b", "a b x", "a b c d", "a b -1"],
    ])
    @pytest.mark.parametrize("block", [1, 2, 1024])
    def test_first_faulty_line_is_reported(self, tmp_path, monkeypatch, lines, block):
        monkeypatch.setattr(graph_mod, "LOAD_BLOCK_LINES", block)
        paths = write_dataset(tmp_path, lines, ["node\tloc", "a\tX", "b\tY"])
        with pytest.raises(GraphFormatError, match=r"g\.edges:2: "):
            load_graph(*paths)
        self.check(tmp_path, (paths[0].read_text(), paths[1].read_text()))


class TestBinAge:
    @pytest.mark.parametrize(
        "age,label",
        [(16, "16-18"), (17, "16-18"), (18, "16-18"), (19, "19-21"),
         (21, "19-21"), (22, "22+"), (40, "22+")],
    )
    def test_bins(self, age, label):
        assert bin_age(age) == label

    def test_underage_rejected(self):
        with pytest.raises(ValueError):
            bin_age(15)

    def test_attribute_binning_drops_bad_rows(self, graph_factory):
        g = graph_factory(
            [(0, 1), (1, 2), (2, 3), (3, 0)],
            attrs={"age": ["17", "19", "12", "forty"]},
        )
        binned, dropped = bin_age_attribute(g, "age")
        assert dropped == 2
        assert binned.node_count == 2
        assert binned.attributes["age"] == ["16-18", "19-21"]


class TestPartitionBy:
    def test_age_bins_one_node_each(self, graph_factory):
        g = graph_factory(
            [(0, 1), (1, 2)], attrs={"age": ["16-18", "19-21", "22+"]}
        )
        p = partition_by(g, "age")
        assert p.num_groups == 3
        assert p.group_labels == ("16-18", "19-21", "22+")

    def test_single_value_rejected(self, graph_factory):
        g = graph_factory([(0, 1)], attrs={"loc": ["X", "X"]})
        with pytest.raises(ValueError, match="fewer than 2"):
            partition_by(g, "loc")

    def test_group_sizes(self, graph_factory):
        g = graph_factory(
            [(0, 1), (1, 2), (2, 3), (3, 4)],
            attrs={"loc": ["X", "X", "Y", "Y", "Z"]},
        )
        p = partition_by(g, "loc")
        assert p.group_labels == ("X", "Y", "Z")
        assert p.sizes().tolist() == [2, 2, 1]

    def test_unknown_attribute(self, graph_factory):
        g = graph_factory([(0, 1)], attrs={"loc": ["X", "Y"]})
        with pytest.raises(ValueError, match="unknown attribute"):
            partition_by(g, "nope")

    @given(st.lists(st.sampled_from("ABC"), min_size=2, max_size=40))
    def test_sizes_sum_to_node_count(self, labels):
        n = len(labels)
        edges = [(i, (i + 1) % n) for i in range(n - 1)]
        from tests.conftest import make_graph

        g = make_graph(edges, attrs={"lab": labels}, n=n)
        if len(set(labels)) < 2:
            with pytest.raises(ValueError):
                partition_by(g, "lab")
        else:
            assert partition_by(g, "lab").sizes().sum() == n


def two_triangles(graph_factory, labels=("X", "X", "X", "Y", "Y", "Y")):
    return graph_factory(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        attrs={"loc": list(labels)},
    )


class TestSelectSubgraph:
    def test_full_domain_identity(self, graph_factory):
        g = graph_factory([(0, 1), (1, 2)], attrs={"loc": ["X", "Y", "X"]})
        sub = select_subgraph(g, "loc", {"X", "Y"})
        assert sub == g

    def test_induced_on_allowed_values(self, graph_factory):
        g = two_triangles(graph_factory)
        sub = select_subgraph(g, "loc", {"X"})
        assert sub.node_count == 3
        assert sub.edge_count == 3
        assert sub.original_ids == ["0", "1", "2"]

    def test_largest_component_tie_break(self, graph_factory):
        # two same-size components; the one holding the smallest original ID wins
        g = two_triangles(graph_factory)
        sub = select_subgraph(g, "loc", {"X", "Y"})
        assert sub.original_ids == ["0", "1", "2"]

    def test_largest_component_wins(self, graph_factory):
        g = graph_factory(
            [(0, 1), (2, 3), (3, 4), (2, 4)],
            attrs={"loc": ["X"] * 5},
        )
        sub = select_subgraph(g, "loc", {"X"})
        assert sub.node_count == 3
        assert sub.original_ids == ["2", "3", "4"]

    def test_empty_selection_rejected(self, graph_factory):
        g = graph_factory([(0, 1)], attrs={"loc": ["X", "Y"]})
        with pytest.raises(ValueError, match="no nodes"):
            select_subgraph(g, "loc", {"Z"})

    def test_result_is_connected(self, graph_factory):
        g = two_triangles(graph_factory)
        sub = select_subgraph(g, "loc", {"X", "Y"})
        # BFS from node 0 must reach everything
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for u in sub.neighbors(v):
                if int(u) not in seen:
                    seen.add(int(u))
                    frontier.append(int(u))
        assert seen == set(range(sub.node_count))


class TestGenerateSbm:
    def test_single_block_p1_is_complete(self):
        g, _ = generate_sbm([3], 1.0, 0.0, seed=1)
        assert g.node_count == 3
        assert g.edge_count == 3

    def test_two_blocks_no_inter(self):
        g, _ = generate_sbm([2, 2], 1.0, 0.0, seed=1)
        assert g.node_count == 4
        assert g.edge_count == 2
        assert g.attributes["block"] == ["block0", "block0", "block1", "block1"]

    def test_edge_count_within_three_sigma(self):
        sizes = [150, 150, 150]
        g, _ = generate_sbm(sizes, 0.1, 0.01, seed=7)
        intra_pairs = 3 * math.comb(150, 2)
        inter_pairs = 3 * 150 * 150
        mean = 0.1 * intra_pairs + 0.01 * inter_pairs
        var = intra_pairs * 0.1 * 0.9 + inter_pairs * 0.01 * 0.99
        assert abs(g.edge_count - mean) <= 3 * math.sqrt(var)

    def test_seed_determinism(self):
        g1, _ = generate_sbm([30, 30], 0.2, 0.02, seed=11)
        g2, _ = generate_sbm([30, 30], 0.2, 0.02, seed=11)
        assert g1 == g2
        g3, _ = generate_sbm([30, 30], 0.2, 0.02, seed=12)
        assert g1 != g3

    def test_summary_mirrors_graph(self):
        g, summary = generate_sbm([20, 30], 0.3, 0.05, seed=3)
        assert summary["nodes"] == g.node_count
        assert summary["edges"] == g.edge_count
        assert set(summary["groups"]["block"]) <= {"block0", "block1"}

    def test_control_attribute_planted(self):
        spec = ControlAttributeSpec(classes=3, intra_class_bonus=0.05)
        g, summary = generate_sbm([100, 100], 0.1, 0.02, seed=5, control=spec)
        classes = set(g.attributes["control"])
        assert classes <= {"class0", "class1", "class2"}
        assert len(classes) == 3
        assert summary["control"]["intra_class_bonus"] == 0.05

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            generate_sbm([5], 0.2, 0.5, seed=1)


def reference_sbm(block_sizes, p_intra, p_inter, seed, control=None):
    """The single (n, n) draw that ``generate_sbm`` replaced by row blocks."""
    n = sum(block_sizes)
    block = np.repeat(np.arange(len(block_sizes)), block_sizes)
    rng = np.random.default_rng(seed)
    attributes = {"block": [f"block{b}" for b in block]}
    if control is not None:
        probs = np.full(control.classes, 1.0 / control.classes)
        control_of = rng.choice(control.classes, size=n, p=probs)
        attributes[control.name] = [f"class{c}" for c in control_of]
    prob = np.where(block[:, None] == block[None, :], p_intra, p_inter)
    if control is not None and control.intra_class_bonus > 0:
        same_class = control_of[:, None] == control_of[None, :]
        prob = np.clip(prob + control.intra_class_bonus * same_class, 0.0, 1.0)
    draws = rng.random((n, n))
    u_idx, v_idx = np.nonzero(np.triu(draws < prob, k=1))
    keep = np.nonzero(np.bincount(np.concatenate([u_idx, v_idx]), minlength=n) > 0)[0]
    remap = np.full(n, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    edge_index = np.stack([remap[u_idx], remap[v_idx]], axis=1)
    attrs = {name: [vals[v] for v in keep] for name, vals in attributes.items()}
    graph = AttributedGraph(len(keep), edge_index, np.ones(len(edge_index)), attrs,
                            [str(v) for v in keep])
    return graph, n - len(keep)


class TestSbmRowBlocks:
    # default budget: one block (n = 100), exactly one block (256 rows of 256),
    # one row over (257: 255 + 2) and walk_chain's 600 nodes (109 rows a block)
    @pytest.mark.parametrize("sizes, cells", [
        ([40, 60], None),
        ([128, 128], None),
        ([128, 129], None),
        ([100, 200, 300], None),
        ([10, 20], 30 * 3),  # ten blocks of 3 rows
        ([10, 21], 31 * 4),  # 4-row blocks and a 3-row rest
        ([7, 9], 1),  # one row per block
    ])
    @pytest.mark.parametrize("bonus", [0.0, 0.05])
    def test_matches_single_draw(self, monkeypatch, sizes, cells, bonus):
        if cells is not None:
            monkeypatch.setattr(graph_mod, "SBM_BLOCK_CELLS", cells)
        spec = ControlAttributeSpec(classes=3, intra_class_bonus=bonus)
        p_intra, p_inter = (0.3, 0.1) if sum(sizes) < 100 else (0.06, 0.01)
        got, summary = generate_sbm(sizes, p_intra, p_inter, seed=9, control=spec)
        want, isolated = reference_sbm(sizes, p_intra, p_inter, 9, spec)
        assert got == want
        assert got.edge_index.tobytes() == want.edge_index.tobytes()
        assert summary["isolated_removed"] == isolated

    def test_a_600_node_graph_splits(self):
        assert graph_mod.SBM_BLOCK_CELLS // 600 == 109


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            AttributedGraph(2, [[0, 0]], [1.0], {}, ["0", "1"])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            AttributedGraph(2, [[0, 1], [0, 1]], [1.0, 1.0], {}, ["0", "1"])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            AttributedGraph(2, [[0, 1]], [0.0], {}, ["0", "1"])

    def test_neighbors_sorted(self, graph_factory):
        g = graph_factory([(2, 0), (2, 1), (2, 3)])
        assert g.neighbors(2).tolist() == [0, 1, 3]

    @given(
        pairs=st.sets(st.tuples(st.integers(0, 11), st.integers(0, 11)).map(sorted).map(tuple)
                      .filter(lambda e: e[0] != e[1]), max_size=40),
        shuffle_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60)
    def test_csr_equals_the_lexsort_build(self, pairs, shuffle_seed):
        # canonical edges in any order, against a CSR built by one lexsort
        rng = np.random.default_rng(shuffle_seed)
        edges = rng.permutation(np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2))
        weights = rng.uniform(0.1, 5.0, len(edges))
        g = AttributedGraph(12, edges, weights, {}, [str(v) for v in range(12)])
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        order = np.lexsort((dst, src))
        assert g.rows.tobytes() == src[order].tobytes()
        assert g.indptr.tobytes() == np.searchsorted(src[order], np.arange(13)).tobytes()
        assert g.indices.tobytes() == dst[order].tobytes()
        assert g.weights.tobytes() == np.concatenate([weights, weights])[order].tobytes()
        assert g.edge_index.tobytes() == edges.tobytes()


class TestCsrHelpers:
    def test_component_labels_match_union_find(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            m = int(rng.integers(0, 2 * n))
            src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
            parent = list(range(n))

            def find(v):
                while parent[v] != v:
                    v = parent[v]
                return v

            for u, v in zip(src, dst):
                a, b = find(u), find(v)
                parent[max(a, b)] = min(a, b)
            expected = [find(v) for v in range(n)]
            assert component_labels(n, src, dst).tolist() == expected

    @staticmethod
    def random_graph(rng, n, m, hubs=()):
        """m random pairs over nodes len(hubs)..n-2, each hub joined to that
        many distinct nodes of the same range; node n - 1 is isolated."""
        u, v = rng.integers(len(hubs), n - 1, m), rng.integers(len(hubs), n - 1, m)
        for hub, size in enumerate(hubs):
            leaves = rng.choice(np.arange(len(hubs), n - 1), size, replace=False)
            u, v = np.concatenate([u, np.full(size, hub)]), np.concatenate([v, leaves])
        pairs = np.unique(np.sort(np.stack([u, v], axis=1)[u != v], axis=1), axis=0)
        return AttributedGraph(n, pairs, np.ones(len(pairs)), {}, [str(i) for i in range(n)])

    def test_row_sums_bitwise_per_row(self):
        rng = np.random.default_rng(5)
        # hub rows of 3,000+ slots, and leaf rows of one length share one dense slab
        g = self.random_graph(rng, 4_300, 600, hubs=(3_000, 4_100, 3_000))
        values = rng.random(len(g.indices)) * 10.0 ** rng.integers(-8, 8, len(g.indices))
        cum, layout = _row_sums(TransitionWeights(g, values)), g.walk_layout
        assert len(cum) == len(values)
        for v in range(g.node_count):
            a, b, row = g.indptr[v], g.indptr[v + 1], layout.row_at[v]
            np.testing.assert_array_equal(cum[row:row + b - a], np.cumsum(values[a:b]))
        empty = AttributedGraph(3, np.empty((0, 2)), np.empty(0), {}, ["a", "b", "c"])
        assert _row_sums(TransitionWeights(empty, np.empty(0))).tolist() == []

    def test_row_sums_draw_per_row_searchsorted(self):
        rng = np.random.default_rng(8)
        g = self.random_graph(rng, 31, 200)
        indptr, deg = g.indptr, np.diff(g.indptr)
        scores = rng.random(indptr[-1]) * rng.choice([0.0, 1e-3, 1.0, 1e3], indptr[-1])
        scores[indptr[3]:indptr[4]] = 0.0  # an all-zero row clamps to its last slot
        rows = rng.choice(np.flatnonzero(deg), 2000)
        draws = np.concatenate([[0.0, 0.5], rng.random(1998)])
        expected = []
        for row, u in zip(rows, draws):
            a, b = indptr[row], indptr[row + 1]
            cum = np.cumsum(scores[a:b])
            expected.append(a + min(np.searchsorted(cum, u * cum[-1], "right"), b - a - 1))
        cum = _row_sums(TransitionWeights(g, scores))
        got = indptr[rows] + draw_slots(cum, g.walk_layout.row_at[rows], deg[rows], draws)
        assert got.tolist() == expected

    def test_draw_slots_bisect_like_per_row_searchsorted(self):
        rng = np.random.default_rng(13)
        lengths = np.concatenate([rng.integers(1, 40, 25), [3_000, 1, 7]])  # row 25 is a hub
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        scores = rng.random(indptr[-1]) * rng.choice([0.0, 1e-3, 1.0, 1e3], indptr[-1])
        scores[indptr[2]:indptr[3]] = 0.0  # all-zero rows clamp to their last slot
        scores[indptr[26]:indptr[27]] = 0.0
        edge = [0.0, 1.0 - 2.0**-53]
        rows = np.concatenate([np.repeat(np.arange(len(lengths)), 2), rng.integers(0, 28, 3000)])
        draws = np.concatenate([np.tile(edge, len(lengths)), rng.random(3000)])
        cum = np.concatenate([np.cumsum(scores[a:b]) for a, b in zip(indptr[:-1], indptr[1:])])
        expected = []
        for row, u in zip(rows, draws):
            a, b = indptr[row], indptr[row + 1]
            row_cum = np.cumsum(scores[a:b])
            expected.append(a + min(np.searchsorted(row_cum, u * row_cum[-1], "right"), b - a - 1))
        got = indptr[rows] + draw_slots(cum, indptr[rows], lengths[rows], draws)
        assert got.tolist() == expected

    def test_csr_rows_match_edges(self, graph_factory):
        g = graph_factory([(0, 1, 2.0), (1, 2, 3.0), (0, 3, 0.5)], n=5)
        assert g.indptr.tolist() == [0, 2, 4, 5, 6, 6]
        assert g.indices.tolist() == [1, 3, 0, 2, 1, 0]
        assert g.weights.tolist() == [2.0, 0.5, 2.0, 3.0, 3.0, 0.5]
        assert g.degree(4) == 0 and len(g.neighbors(4)) == 0

    def test_rows_name_the_row_of_every_slot(self, graph_factory):
        # isolated nodes 0, 4 and 6 own no slots
        g = graph_factory([(1, 2, 2.0), (1, 3), (2, 5), (3, 5), (5, 7)], n=8)
        sub = _induced(g, [1, 2, 4, 5, 7])
        for graph in (g, sub):
            expected = np.repeat(np.arange(graph.node_count), np.diff(graph.indptr))
            np.testing.assert_array_equal(graph.rows, expected)
        assert sub.rows.tolist() == [0, 1, 1, 3, 3, 4]
