"""Attributed-graph data model, file ingestion, and synthetic generation.

Graphs are undirected, weighted, simple (no self-loops, no duplicate
edges), with one categorical value per node for every declared attribute.
Node IDs are densified to 0..n-1; the original string IDs are retained for
serialization and reporting.

File formats:
  edge list   lines ``u<TAB>v[<TAB>weight]`` (any whitespace separator),
              ``#`` starts a comment, missing weight defaults to 1.0
  attributes  tab-separated, header ``node<TAB>attr1<TAB>attr2...``,
              one row per node
"""

import contextlib
import functools
import itertools
import os
import shutil
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np


class GraphFormatError(ValueError):
    """Malformed input file; message carries the offending line number."""


@contextlib.contextmanager
def atomic_writer(path, mode="w"):
    """A temp file beside ``path`` that replaces it only when the block
    completes, so whatever interrupts it, ``path`` holds the old bytes or all
    the new ones. A new file gets plain ``open``'s mode (0666 minus the umask),
    a replaced file keeps its own, and a symlink's target gets the bytes."""
    path = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(path), f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode) as f:
            yield f
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@dataclass(eq=False)
class AttributedGraph:
    """Undirected weighted graph with per-node categorical attributes.

    ``edge_index`` is (m, 2) with u < v in every row, sorted; ``edge_weight``
    is (m,) positive. ``attributes`` maps name -> list of n string values.
    Read-only after construction. The one adjacency is CSR over both edge
    directions: row v is ``indices[indptr[v]:indptr[v + 1]]`` (ascending),
    and ``weights`` and every other per-edge array align with ``indices``.
    ``rows[s]`` is the row of CSR slot s, ascending.
    """

    node_count: int
    edge_index: np.ndarray
    edge_weight: np.ndarray
    attributes: dict
    original_ids: list
    rows: np.ndarray = field(init=False, repr=False)
    indptr: np.ndarray = field(init=False, repr=False)
    indices: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.edge_index = np.asarray(self.edge_index, dtype=np.int64).reshape(-1, 2)
        self.edge_weight = np.asarray(self.edge_weight, dtype=np.float64).reshape(-1)
        self._build_csr(self._validate())

    def _validate(self) -> np.ndarray:
        """Raise on a malformed graph; else return the edges' sort order,
        the identity for the sorted edges every producer gives."""
        n, e, w = self.node_count, self.edge_index, self.edge_weight
        order = np.arange(len(e))
        if len(e) != len(w):
            raise ValueError("edge_index and edge_weight length mismatch")
        if len(self.original_ids) != n:
            raise ValueError("original_ids length must equal node_count")
        if len(e):
            if e.min() < 0 or e.max() >= n:
                raise ValueError("edge endpoint out of range")
            if np.any(e[:, 0] == e[:, 1]):
                raise ValueError("self-loops are not allowed")
            if np.any(e[:, 0] > e[:, 1]):
                raise ValueError("edges must be canonical (u < v)")
            keys = e[:, 0] * n + e[:, 1]
            order = np.argsort(keys, kind="stable")  # linear on sorted keys
            if np.any(keys[order[1:]] == keys[order[:-1]]):
                raise ValueError("duplicate edges are not allowed")
            if np.any(~(w > 0)):
                raise ValueError("edge weights must be positive")
        for name, values in self.attributes.items():
            if len(values) != n:
                raise ValueError(f"attribute {name!r} must have one value per node")
        return order

    def _build_csr(self, order):
        # over edges sorted by (u, v), row r takes its neighbors below r from
        # the first half and then those above r from the second, each run
        # ascending, so one stable sort by row orders every row
        u, v = self.edge_index[order].T
        src, dst = np.concatenate([v, u]), np.concatenate([u, v])
        w = self.edge_weight[order]
        slots = np.argsort(src, kind="stable")
        self.rows = src[slots]
        self.indptr = np.searchsorted(self.rows, np.arange(self.node_count + 1))
        self.indices = dst[slots]
        self.weights = np.concatenate([w, w])[slots]

    @property
    def edge_count(self) -> int:
        return len(self.edge_index)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor IDs of v, sorted ascending."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights aligned with ``neighbors(v)``."""
        return self.weights[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    @functools.cached_property
    def walk_layout(self) -> "WalkLayout":
        """Where the walk tables keep each node's rows, built on first use
        and then shared by every walk over this graph."""
        return WalkLayout(self)

    def __eq__(self, other):
        if not isinstance(other, AttributedGraph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and np.array_equal(self.edge_index, other.edge_index)
            and np.array_equal(self.edge_weight, other.edge_weight)
            and self.attributes == other.attributes
            and self.original_ids == other.original_ids
        )

    def summary(self) -> dict:
        """Node/edge counts plus per-attribute group sizes."""
        groups = {
            name: dict(sorted(Counter(values).items()))
            for name, values in self.attributes.items()
        }
        return {
            "nodes": self.node_count,
            "edges": self.edge_count,
            "groups": groups,
        }


@dataclass
class GroupPartition:
    """Node -> group index for one attribute; labels sorted lexicographically."""

    attribute: str
    group_of: np.ndarray
    group_labels: tuple

    def __post_init__(self):
        self.group_of = np.asarray(self.group_of, dtype=np.int64)
        c = len(self.group_labels)
        if c < 2:
            raise ValueError("a partition needs at least 2 groups")
        counts = np.bincount(self.group_of, minlength=c)
        if len(counts) > c or np.any(counts == 0):
            raise ValueError("every group index in 0..C-1 must be non-empty")

    @classmethod
    def from_values(cls, attribute: str, values) -> "GroupPartition":
        """One group per distinct value (one value per node), ordered by label."""
        labels = sorted(set(values))
        if len(labels) < 2:
            raise ValueError(f"attribute {attribute!r} has fewer than 2 distinct values")
        index = {lab: i for i, lab in enumerate(labels)}
        return cls(attribute, np.array([index[v] for v in values], dtype=np.int64), tuple(labels))

    @property
    def num_groups(self) -> int:
        return len(self.group_labels)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.group_of, minlength=self.num_groups)


def _id_key(raw: str):
    """Sort key for original IDs: numeric when the ID parses as an int."""
    try:
        return (0, int(raw), "")
    except ValueError:
        return (1, 0, raw)


LOAD_BLOCK_LINES = 1024  # lines per block of the edge and biased list readers, and of save_graph


def read_blocks(path):
    """Yield (number of the first line, lines) for each run of
    ``LOAD_BLOCK_LINES`` lines of a text file, so that a reader holds one
    block of text at a time and never the whole file."""
    with open(path) as f:
        lineno = 1
        while lines := list(itertools.islice(f, LOAD_BLOCK_LINES)):
            yield lineno, lines
            lineno += len(lines)


def parse_floats(tokens) -> np.ndarray:
    """``float`` of each token as float64, cut before the first token that
    ``float`` rejects: a result shorter than ``tokens`` ends there."""
    try:
        return np.array(list(map(float, tokens)), dtype=np.float64)
    except ValueError:
        values = []
        for token in tokens:
            try:
                values.append(float(token))
            except ValueError:
                break
        return np.array(values, dtype=np.float64)


# the message of each fault code of an edge line, formatted with its fields
EDGE_FAULTS = (None, "expected 'u v [weight]', got {count} fields",
               "weight {2!r} is not a number", "weight must be > 0")


def _parse_edge_file(path):
    """Read an edge list in blocks of ``LOAD_BLOCK_LINES`` lines, a column
    at a time. Return the IDs in ``_id_key`` order, an (m, 2) int64 array
    of the pairs over them, u < v, and their float64 weights, one row per
    edge line in file order (repeated edges are not merged). Every ID on a
    data line is one of the IDs, a self-loop's too, but a self-loop has no
    row. The file's first faulty line raises GraphFormatError; within a
    line the field count is checked first, then that the weight parses,
    then that it is > 0."""
    code = {}  # ID -> first-seen code: only the distinct ID strings outlive a block
    columns = [(np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)]
    for first, lines in read_blocks(path):
        fields = [line.partition("#")[0].split() for line in lines]
        count = np.fromiter(map(len, fields), np.int64, len(fields))
        weighted = np.flatnonzero(count == 3)
        weight = parse_floats([fields[i][2] for i in weighted.tolist()])
        fault = np.where(np.isin(count, (0, 2, 3)), 0, 1)
        fault[weighted[len(weight):][:1]] = 2
        fault[weighted[:len(weight)][~(weight > 0)]] = 3
        if fault.any():
            i = int(np.flatnonzero(fault)[0])
            message = EDGE_FAULTS[fault[i]].format(*fields[i], count=len(fields[i]))
            raise GraphFormatError(f"{path}:{first + i}: {message}")
        data = list(filter(None, fields))
        u, v = (np.array([code.setdefault(f[k], len(code)) for f in data], dtype=np.int64)
                for k in (0, 1))
        w = np.ones(len(data))
        w[count[count > 0] == 3] = weight
        edge = u != v  # a self-loop line names its node but adds no edge
        columns.append((u[edge], v[edge], w[edge]))
    u, v, w = (np.concatenate(column) for column in zip(*columns))
    ids = list(code)
    order = sorted(range(len(ids)), key=lambda c: _id_key(ids[c]))
    rank = np.empty(len(ids), dtype=np.int64)
    rank[order] = np.arange(len(ids))
    pairs = np.sort(rank[np.stack([u, v], axis=1)], axis=1)
    return [ids[c] for c in order], pairs, w


def _parse_attr_file(path):
    """Return (attribute names, {node_id: row values})."""
    with open(path) as f:
        header = f.readline()
        if not header.strip():
            raise GraphFormatError(f"{path}:1: missing header row")
        columns = header.rstrip("\n").split("\t")
        if columns[0] != "node":
            raise GraphFormatError(f"{path}:1: first header column must be 'node'")
        names = columns[1:]
        rows = {}
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(columns):
                raise GraphFormatError(
                    f"{path}:{lineno}: expected {len(columns)} columns, got {len(parts)}"
                )
            node = parts[0]
            if node in rows:
                raise GraphFormatError(f"{path}:{lineno}: duplicate row for node {node!r}")
            rows[node] = parts[1:]
    return names, rows


def load_graph(edge_path, attr_path) -> AttributedGraph:
    """Load and filter a graph from an edge file and an attribute file.

    The edge file is read in blocks of ``LOAD_BLOCK_LINES`` lines, so
    memory holds arrays per edge line plus one block of text. Every ID on
    an edge line is a node, one named only by self-loops too. Nodes
    missing any attribute value are dropped along with their incident
    edges; a node left with no edge stays as an isolated node. Repeated
    edges merge by adding their weights in file order. Raises
    GraphFormatError when the result has no nodes or no edges.
    """
    ids, pairs, weights = _parse_edge_file(edge_path)
    attr_names, attr_rows = _parse_attr_file(attr_path)

    known = set(ids)
    for nid in attr_rows:
        if nid not in known:
            raise GraphFormatError(
                f"{attr_path}: attribute row for unknown node {nid!r}"
            )

    keep = np.array([nid in attr_rows and "" not in attr_rows[nid] for nid in ids], dtype=bool)
    kept = [nid for nid, k in zip(ids, keep.tolist()) if k]
    if not kept:
        raise GraphFormatError("empty graph after filtering: no nodes kept")
    n = len(kept)
    pairs = np.where(keep, np.cumsum(keep) - 1, -1)[pairs]  # monotone: u < v still holds
    live = (pairs >= 0).all(axis=1)
    keys, edge = np.unique(pairs[live, 0] * n + pairs[live, 1], return_inverse=True)
    if len(keys) == 0:
        raise GraphFormatError("empty graph after filtering: no edges kept")
    edge_weight = np.bincount(edge, weights=weights[live])  # adds each edge's lines in order
    attributes = {
        name: [attr_rows[nid][j] for nid in kept] for j, name in enumerate(attr_names)
    }
    return AttributedGraph(n, np.stack([keys // n, keys % n], axis=1), edge_weight,
                           attributes, kept)


def save_graph(graph: AttributedGraph, edge_path, attr_path):
    """Write the graph back in the ingestion formats (lossless round trip).
    The edges are turned into Python lists ``LOAD_BLOCK_LINES`` at a time."""
    ids = graph.original_ids
    with atomic_writer(edge_path) as f:
        for lo in range(0, graph.edge_count, LOAD_BLOCK_LINES):
            heads, tails = graph.edge_index[lo:lo + LOAD_BLOCK_LINES].T.tolist()
            for u, v, w in zip(heads, tails, graph.edge_weight[lo:lo + LOAD_BLOCK_LINES].tolist()):
                f.write(f"{ids[u]}\t{ids[v]}\t{w!r}\n")
    names = list(graph.attributes)
    with atomic_writer(attr_path) as f:
        f.write("node\t" + "\t".join(names) + "\n")
        for i, nid in enumerate(ids):
            row = [graph.attributes[name][i] for name in names]
            f.write(nid + "\t" + "\t".join(row) + "\n")


AGE_BIN_LABELS = ("16-18", "19-21", "22+")


def bin_age(raw_age: int) -> str:
    """Map an age in years to one of the three age-group labels."""
    age = int(raw_age)
    if age < 16:
        raise ValueError(f"age {age} is below the supported minimum of 16")
    if age <= 18:
        return AGE_BIN_LABELS[0]
    if age <= 21:
        return AGE_BIN_LABELS[1]
    return AGE_BIN_LABELS[2]


def bin_age_attribute(graph: AttributedGraph, attribute: str):
    """Replace an integer-valued attribute with its age bins.

    Nodes whose value is unparsable or below 16 are dropped (with incident
    edges). Returns (new graph, dropped node count).
    """
    if attribute not in graph.attributes:
        raise ValueError(f"unknown attribute {attribute!r}")
    values = graph.attributes[attribute]
    binned = {}
    for v in range(graph.node_count):
        try:
            binned[v] = bin_age(int(values[v]))
        except ValueError:
            continue
    dropped = graph.node_count - len(binned)
    if not binned:
        raise ValueError("no nodes left after age binning")
    relabeled = [binned.get(v, values[v]) for v in range(graph.node_count)]
    patched = replace(graph, attributes={**graph.attributes, attribute: relabeled})
    if dropped == 0:
        return patched, 0
    return _induced(patched, sorted(binned)), dropped


def partition_by(graph: AttributedGraph, attribute: str) -> GroupPartition:
    """Partition nodes by an attribute; groups ordered by label."""
    if attribute not in graph.attributes:
        raise ValueError(f"unknown attribute {attribute!r}")
    return GroupPartition.from_values(attribute, graph.attributes[attribute])


def _induced(graph: AttributedGraph, nodes):
    """Induced subgraph on a sorted node list, IDs re-densified."""
    nodes = list(nodes)
    # an ascending node list keeps kept edges canonical and in sorted order
    remap = np.full(graph.node_count, -1, dtype=np.int64)
    remap[nodes] = np.arange(len(nodes))
    edge_index = remap[graph.edge_index]
    kept = (edge_index >= 0).all(axis=1)
    edge_index, edge_weight = edge_index[kept], graph.edge_weight[kept]
    attributes = {
        name: [vals[v] for v in nodes] for name, vals in graph.attributes.items()
    }
    original_ids = [graph.original_ids[v] for v in nodes]
    return AttributedGraph(len(nodes), edge_index, edge_weight, attributes, original_ids)


FILL_BLOCK_SLOTS = 1 << 14  # entries per block of the (p, q) edge codes' build and of a table fill
MARK_CELLS = 1 << 22  # cells of the edge codes' mark buffer, in rows of n cells


class WalkLayout:
    """The walk tables' layout over a graph: nodes in ascending degree
    order (stable), so the nodes of one degree D form one dense slab.

    The first-order table holds node v's D out-slots as one row, starting
    at ``row_at[v]``; ``slots`` lists the CSR slots in that order, so a
    slab of c nodes is a (c, D) block. The (p, q) edge table gives node
    ``cur`` a D x D block starting at ``cell_at[cur]``: row i belongs to
    the edge from cur's i-th neighbour into cur, column j is cur's j-th
    neighbour, so a slab is a (c, D, D) block and the table holds
    sum_v deg(v)**2 entries. ``slabs`` lists (D, c, first row, first
    cell) for every degree D > 0.

    ``span[e]`` is the first entry of CSR slot e's row and ``codes`` holds
    one uint8 per entry: 2 where the column node is the edge's source (the
    diagonal), 1 where it is a neighbour of the source, 0 otherwise. Both
    are built on first use, so first-order walks never build them.
    """

    def __init__(self, graph: AttributedGraph):
        # the CSR arrays, not the graph, which holds this layout
        self.csr = graph.node_count, graph.indptr, graph.indices, graph.rows
        indptr = graph.indptr
        deg = np.diff(indptr)
        order = np.argsort(deg, kind="stable")
        sizes = deg[order]
        row_end, cell_end = np.cumsum(sizes), np.cumsum(sizes * sizes)
        self.row_at = np.empty(graph.node_count, dtype=np.int64)
        self.row_at[order] = row_end - sizes
        self.cell_at = np.empty(graph.node_count, dtype=np.int64)
        self.cell_at[order] = cell_end - sizes * sizes
        self.size = int(cell_end[-1]) if len(cell_end) else 0
        heads = np.flatnonzero(np.diff(sizes, prepend=0)).tolist()  # first node of each degree > 0
        self.slabs = [
            (int(sizes[a]), b - a, int(row_end[a] - sizes[a]), int(cell_end[a] - sizes[a] ** 2))
            for a, b in zip(heads, heads[1:] + [len(sizes)])
        ]
        self.slots = np.empty(len(graph.indices), dtype=np.int64)
        own = np.arange(len(graph.indices))
        self.slots[self.row_at[graph.rows] + own - indptr[graph.rows]] = own

    @functools.cached_property
    def span(self) -> np.ndarray:
        n, indptr, cur, rows = self.csr
        back = np.empty_like(cur)  # the slot of each edge's reverse: slots by (cur, prev)
        back[np.argsort(cur * n + rows)] = np.arange(len(cur))
        return self.cell_at[cur] + (back - indptr[cur]) * np.diff(indptr)[cur]

    @functools.cached_property
    def codes(self) -> np.ndarray:
        return _edge_codes(self.csr, self.span, self.size)

    def blocks(self):
        """Cut the (p, q) table into blocks of at most ``FILL_BLOCK_SLOTS``
        entries: whole nodes of one slab, or, where one node's D x D block
        is larger, whole rows of it (one row at least). Yield each block's
        first cell, the position of its first node's row in ``slots``, and
        its shape (nodes, rows, D)."""
        for d, count, row, cell in self.slabs:
            per = FILL_BLOCK_SLOTS // (d * d)
            if per:
                for a in range(0, count, per):
                    yield cell + a * d * d, row + a * d, (min(per, count - a), d, d)
                continue
            rows = max(1, FILL_BLOCK_SLOTS // d)
            for v in range(count):
                for a in range(0, d, rows):
                    yield cell + (v * d + a) * d, row + v * d, (1, min(rows, d - a), d)


def _edge_codes(csr, span, size) -> np.ndarray:
    """The (p, q) factor code of every edge-table entry (see ``WalkLayout``).

    Edges are taken in CSR order, in blocks of at most ``FILL_BLOCK_SLOTS``
    entries (an edge with a longer row is a block alone). Because ``rows``
    ascends, a block's sources are one range ``p0 <= prev < p1``, capped
    at the ``min(n, MARK_CELLS // n)`` rows of a reused mark buffer. Row
    ``prev - p0`` marks prev's neighbours 1 and prev itself 2, so the mark
    at each entry's column node is its code; the marks are cleared again
    after the block."""
    n, indptr, indices, rows = csr
    deg = np.diff(indptr)
    start = np.concatenate(([0], np.cumsum(deg[indices])))  # the rows back to back in CSR order
    codes = np.empty(size, dtype=np.uint8)
    mark_rows = max(1, min(n, MARK_CELLS // n))
    mark = np.zeros(mark_rows * n, dtype=np.uint8)
    lo = 0
    while lo < len(indices):
        p0 = rows[lo]
        last = np.searchsorted(start, start[lo] + FILL_BLOCK_SLOTS, "right") - 1
        hi = max(lo + 1, min(int(last), int(indptr[min(p0 + mark_rows, n)])))
        p1 = rows[hi - 1] + 1
        near = slice(indptr[p0], indptr[p1])  # the edges out of the block's sources
        cells = (rows[near] - p0) * n + indices[near]
        own = np.arange(p1 - p0) * (n + 1) + p0
        targets = indices[lo:hi]
        lengths = deg[targets]
        local = start[lo:hi + 1] - start[lo]
        at = np.repeat(indptr[targets] - local[:-1], lengths)
        at += np.arange(local[-1])  # the targets' CSR slots, one row after another
        at = indices[at]
        at += np.repeat((rows[lo:hi] - p0) * n, lengths)  # each column's cell in its mark row
        dest = np.repeat(span[lo:hi] - local[:-1], lengths)
        dest += np.arange(local[-1])
        mark[cells] = 1
        mark[own] = 2
        codes[dest] = mark[at]
        mark[cells] = 0
        mark[own] = 0
        lo = hi
    return codes


def draw_slots(cum, starts, lengths, draws) -> np.ndarray:
    """Chosen offset into the row of every walker: row i is
    ``cum[starts[i]:starts[i] + lengths[i]]``, non-empty, the running sums
    of its scores, and ``draws[i]`` is in [0, 1). The offset is the count
    of the row's sums <= draws[i] * row total, clamped to the row, bitwise
    the per-row ``np.searchsorted(row, u * row[-1], "right")``. Scores need
    not be normalized. A vectorized bisection: one O(walkers) round per bit
    of the longest row's length."""
    before = starts - 1
    target = draws * cum[before + lengths]
    count = np.zeros(len(starts), dtype=np.int64)
    for bit in reversed(range(int(lengths.max(initial=0)).bit_length())):
        # grow the count by 2**bit where the sum ending there is still <= target;
        # past the row's end the row total stands in: it fits only when every
        # sum does, and then the clamp picks the last slot either way
        probe = count + (1 << bit)
        np.copyto(count, probe, where=cum[before + np.minimum(probe, lengths)] <= target)
    return np.minimum(count, lengths - 1)


def component_labels(node_count: int, src, dst) -> np.ndarray:
    """Connected-component label per node: the smallest node ID it reaches.

    ``src``/``dst`` are int arrays of edge endpoints (either direction
    suffices). Each round hooks every root under the smallest root across
    its edges, then compresses the labels by pointer jumping.
    """
    labels = np.arange(node_count)
    while True:
        lu, lv = labels[src], labels[dst]
        if np.array_equal(lu, lv):
            return labels
        np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
        while not np.array_equal(labels, labels[labels]):
            labels = labels[labels]


def select_subgraph(graph: AttributedGraph, attribute: str, allowed_values) -> AttributedGraph:
    """Induced subgraph on nodes with an allowed attribute value.

    The result is restricted to its largest connected component; size ties
    go to the component containing the smallest original node ID.
    """
    if attribute not in graph.attributes:
        raise ValueError(f"unknown attribute {attribute!r}")
    allowed = set(allowed_values)
    if not allowed:
        raise ValueError("allowed_values must be non-empty")
    values = graph.attributes[attribute]
    matching = [v for v in range(graph.node_count) if values[v] in allowed]
    if not matching:
        raise ValueError(
            f"no nodes have {attribute!r} in {sorted(allowed)}"
        )
    sub = _induced(graph, matching)
    labels = component_labels(sub.node_count, sub.edge_index[:, 0], sub.edge_index[:, 1])
    sizes = np.bincount(labels)
    best = min(
        np.flatnonzero(sizes == sizes.max()),
        key=lambda c: min(_id_key(sub.original_ids[v]) for v in np.flatnonzero(labels == c)),
    )
    return _induced(sub, np.flatnonzero(labels == best))


@dataclass(frozen=True)
class ControlAttributeSpec:
    """Planted second attribute for synthetic graphs.

    Classes are sampled per node from ``probs`` (uniform when None),
    independently of the block structure. ``intra_class_bonus`` is added to
    the edge probability of same-class pairs, which makes the attribute
    recoverable from structure without tying it to the blocks.
    """

    classes: int = 3
    probs: tuple = None
    intra_class_bonus: float = 0.0
    name: str = "control"


SBM_BLOCK_CELLS = 1 << 16  # pair draws per row block of generate_sbm


def generate_sbm(
    block_sizes,
    p_intra: float,
    p_inter: float,
    *,
    seed: int,
    control: ControlAttributeSpec = None,
    block_attribute: str = "block",
):
    """Sample a stochastic block model with planted attributes.

    The block index becomes a categorical attribute (the location-like
    grouping). Isolated nodes are removed and counted in the summary.
    Pairs are drawn in row blocks of about ``SBM_BLOCK_CELLS`` entries (one
    row when n is larger), never as one n x n array. Returns (graph,
    summary dict).
    """
    block_sizes = [int(s) for s in block_sizes]
    if any(s < 1 for s in block_sizes):
        raise ValueError("block sizes must be >= 1")
    if not 0 <= p_inter <= p_intra <= 1:
        raise ValueError("need 0 <= p_inter <= p_intra <= 1")
    n = sum(block_sizes)
    k = len(block_sizes)
    block = np.repeat(np.arange(k), block_sizes)
    rng = np.random.default_rng(seed)

    attributes = {block_attribute: [f"block{b}" for b in block]}
    if control is not None:
        if control.classes < 2:
            raise ValueError("control attribute needs >= 2 classes")
        probs = control.probs
        if probs is None:
            probs = np.full(control.classes, 1.0 / control.classes)
        else:
            probs = np.asarray(probs, dtype=np.float64)
            if len(probs) != control.classes or not np.isclose(probs.sum(), 1.0):
                raise ValueError("control probs must sum to 1 with one entry per class")
        control_of = rng.choice(control.classes, size=n, p=probs)
        attributes[control.name] = [f"class{c}" for c in control_of]

    # consecutive (b, n) draws consume the stream exactly as one (n, n) draw;
    # only a draw below the largest edge probability can make an edge, so the
    # exact probability is computed for those candidates alone
    bonus = control.intra_class_bonus if control is not None else 0.0
    top = min(p_intra + bonus, 1.0) if bonus > 0 else p_intra
    b = max(1, SBM_BLOCK_CELLS // n)
    draws = np.empty((min(b, n), n))
    u_parts, v_parts = [], []
    for lo in range(0, n, b):
        block_draws = draws[:min(lo + b, n) - lo]
        rng.random(out=block_draws)
        u_blk, v_blk = np.nonzero(block_draws < top)
        upper = v_blk > u_blk + lo  # v > u only
        u_blk, v_blk = u_blk[upper], v_blk[upper]
        prob = np.where(block[u_blk + lo] == block[v_blk], p_intra, p_inter)
        if bonus > 0:
            same_class = control_of[u_blk + lo] == control_of[v_blk]
            prob = np.clip(prob + bonus * same_class, 0.0, 1.0)
        edge = block_draws[u_blk, v_blk] < prob
        u_parts.append(u_blk[edge] + lo)
        v_parts.append(v_blk[edge])
    u_idx, v_idx = np.concatenate(u_parts), np.concatenate(v_parts)

    degree = np.bincount(np.concatenate([u_idx, v_idx]), minlength=n)
    keep = np.nonzero(degree > 0)[0]
    isolated = n - len(keep)
    if len(keep) == 0:
        raise ValueError("generated graph has no edges; raise the densities")

    # np.nonzero yields (u, v) in row-major order; the monotone remap keeps it
    remap = np.full(n, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    edge_index = np.stack([remap[u_idx], remap[v_idx]], axis=1)
    edge_weight = np.ones(len(edge_index), dtype=np.float64)
    kept_attrs = {
        name: [vals[v] for v in keep] for name, vals in attributes.items()
    }
    original_ids = [str(v) for v in keep]
    graph = AttributedGraph(len(keep), edge_index, edge_weight, kept_attrs, original_ids)

    summary = graph.summary()
    summary.update(
        {
            "block_sizes": block_sizes,
            "p_intra": p_intra,
            "p_inter": p_inter,
            "seed": seed,
            "isolated_removed": isolated,
        }
    )
    if control is not None:
        summary["control"] = {
            "name": control.name,
            "classes": control.classes,
            "intra_class_bonus": control.intra_class_bonus,
        }
    return graph, summary
