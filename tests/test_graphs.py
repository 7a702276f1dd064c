import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regpack.errors import BadParams
from regpack.graphs import (
    BipartiteGraph,
    LabeledGraph,
    PartitionedGraph,
    ReducedGraph,
    VertexPartition,
    bit_matrix,
    blow_up,
    induced_bipartite,
    iter_bits,
    mask_of,
    pair_view,
    read_edge_list,
    square,
    transpose,
    write_edge_list,
)


def path_graph(n):
    return LabeledGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return LabeledGraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return LabeledGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


class TestBlowUp:
    def test_k2_doubled_is_k22(self):
        R = ReducedGraph(2, [(0, 1)])
        RK = blow_up(R, 2)
        assert RK.n == 4
        assert RK.num_edges() == 4
        assert not RK.has_edge(0, 1) and not RK.has_edge(2, 3)
        for a in (0, 1):
            for b in (2, 3):
                assert RK.has_edge(a, b)

    def test_single_vertex(self):
        RK = blow_up(ReducedGraph(1), 5)
        assert RK.n == 5 and RK.num_edges() == 0

    def test_path_counts(self):
        # oracle: brute-force construction of the blow-up edge set
        R = ReducedGraph(3, [(0, 1), (1, 2)])
        K = 3
        RK = blow_up(R, K)
        expected = {
            frozenset((i * K + a, j * K + b))
            for i, j in R.edges() for a in range(K) for b in range(K)
        }
        assert {frozenset(e) for e in RK.edges()} == expected
        assert RK.num_edges() == K * K * R.num_edges() == 18
        assert RK.n == K * R.r

    def test_blocks_independent(self):
        R = ReducedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        RK = blow_up(R, 4)
        for i in range(4):
            block = range(i * 4, (i + 1) * 4)
            for a in block:
                for b in block:
                    if a != b:
                        assert not RK.has_edge(a, b)


class TestSquare:
    def test_c5_is_k5(self):
        assert square(cycle_graph(5)) == complete_graph(5)

    def test_empty(self):
        G = LabeledGraph(7)
        assert square(G) == G

    def test_p4_oracle(self):
        # oracle: brute-force BFS distance matrix
        G = path_graph(4)
        S = square(G)
        def dist(G, u, v):
            from collections import deque
            dq, seen = deque([(u, 0)]), {u}
            while dq:
                x, d = dq.popleft()
                if x == v:
                    return d
                for y in G.neighbors(x):
                    if y not in seen:
                        seen.add(y)
                        dq.append((y, d + 1))
            return None
        for u in range(4):
            for v in range(u + 1, 4):
                assert S.has_edge(u, v) == (dist(G, u, v) in (1, 2))
        assert S.num_edges() == 5

    @given(st.integers(3, 16), st.random_module())
    @settings(max_examples=30, deadline=None)
    def test_square_contains_graph(self, n, _rm):
        rng = random.Random(n * 17 + 1)
        G = LabeledGraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.25:
                    G.add_edge(u, v)
        S = square(G)
        for u, v in G.edges():
            assert S.has_edge(u, v)
        if G.max_degree() >= 1:
            assert S.max_degree() <= G.max_degree() * (G.max_degree() + 1)


class TestInducedBipartite:
    def _pg(self, G, classes, redges):
        part = VertexPartition.from_lists(classes, G.n)
        R = ReducedGraph(len(classes), redges)
        return PartitionedGraph(G, part, R)

    def test_k4_split(self):
        G = complete_graph(4)
        # drop within-class edges so classes are independent
        G.remove_edge(0, 1)
        G.remove_edge(2, 3)
        pg = self._pg(G, [[0, 1], [2, 3]], [(0, 1)])
        B = induced_bipartite(pg, 0, 1)
        assert B.num_edges() == 4
        assert B.left_ids == [0, 1] and B.right_ids == [2, 3]

    def test_no_cross_edges(self):
        pg = self._pg(LabeledGraph(4), [[0, 1], [2, 3]], [(0, 1)])
        assert induced_bipartite(pg, 0, 1).num_edges() == 0

    def test_seeded_count_matches_bruteforce(self):
        rng = random.Random(5)
        G = LabeledGraph(8)
        classes = [[0, 1, 2, 3], [4, 5, 6, 7]]
        for u in classes[0]:
            for v in classes[1]:
                if rng.random() < 0.5:
                    G.add_edge(u, v)
        pg = self._pg(G, classes, [(0, 1)])
        B = induced_bipartite(pg, 0, 1)
        brute = sum(1 for u in classes[0] for v in classes[1] if G.has_edge(u, v))
        assert B.num_edges() == brute

    def test_rejects_same_class(self):
        pg = self._pg(LabeledGraph(2), [[0], [1]], [])
        with pytest.raises(BadParams):
            induced_bipartite(pg, 1, 1)


class TestPartitionValidation:
    def test_catches_non_independent_class(self):
        G = LabeledGraph(4, [(0, 1)])
        pg = PartitionedGraph(G, VertexPartition.from_lists([[0, 1], [2, 3]]), ReducedGraph(2, [(0, 1)]))
        assert any("independent" in e for e in pg.validate())

    def test_catches_off_reduced_edges(self):
        G = LabeledGraph(4, [(0, 2)])
        pg = PartitionedGraph(G, VertexPartition.from_lists([[0, 1], [2, 3]]), ReducedGraph(2))
        assert any("not in R" in e for e in pg.validate())


def test_edge_list_roundtrip(tmp_path):
    G = cycle_graph(9)
    p = tmp_path / "g.txt"
    write_edge_list(G, p)
    assert read_edge_list(p) == G


@pytest.mark.parametrize("header", ["-1 0", "3 -1"])
def test_edge_list_refuses_a_negative_header(tmp_path, header):
    p = tmp_path / "g.txt"
    p.write_text(header + "\n")
    with pytest.raises(BadParams, match=f"{p}: malformed edge list"):
        read_edge_list(p)


def test_bipartite_subgraph_index_maps():
    B = BipartiteGraph(3, 3, [(0, 0), (1, 1), (2, 2), (0, 2)])
    S = B.subgraph([0, 2], [2, 0])
    assert S.left_ids == [0, 2] and S.right_ids == [2, 0]
    assert S.has_edge(0, 0)      # old (0,2)
    assert S.has_edge(0, 1)      # old (0,0)
    assert S.has_edge(1, 0)      # old (2,2)
    assert not S.has_edge(1, 1)


# ---------------------------------------------------------------------------
# the bit-matrix primitive against the bit-by-bit loops it replaced


def _ref_pair_rows(adj, left, right):
    rpos = {v: b for b, v in enumerate(right)}
    rmask = mask_of(right)
    out = []
    for u in left:
        acc = 0
        for w in iter_bits(adj[u] & rmask):
            acc |= 1 << rpos[w]
        out.append(acc)
    return out


def _ref_transpose(rows, ncols):
    cols = [0] * ncols
    for u, row in enumerate(rows):
        for v in iter_bits(row):
            cols[v] |= 1 << u
    return cols


def _ref_column_counts(rows, ncols):
    col = [0] * ncols
    for row in rows:
        for v in iter_bits(row):
            col[v] += 1
    return col


# byte and word boundaries on either side
WIDTHS = [0, 1, 7, 8, 9, 63, 64, 65]


def _rows(m, max_size):
    return st.lists(st.integers(0, (1 << m) - 1), max_size=max_size)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_pair_view_matches_bit_loop(data):
    # host rows span n vertices, so they carry bits outside the pair
    n = data.draw(st.sampled_from(WIDTHS + [130]))
    adj = data.draw(_rows(n, 12))
    left = data.draw(st.permutations(range(len(adj))))
    left = left[:data.draw(st.integers(0, len(left)))]
    right = data.draw(st.permutations(range(n)))
    right = right[:data.draw(st.integers(0, n))]
    B = pair_view(adj, left, right)
    assert B.adj == _ref_pair_rows(adj, left, right)
    assert (B.nl, B.nr) == (len(left), len(right))
    assert B.left_ids == list(left) and B.right_ids == list(right)


@given(st.sampled_from(WIDTHS).flatmap(lambda m: st.tuples(st.just(m), _rows(m, 70))))
@settings(max_examples=200, deadline=None)
def test_transpose_and_column_counts_match_bit_loop(case):
    m, rows = case
    cols = transpose(rows, m)
    assert cols == _ref_transpose(rows, m)
    assert transpose(cols, len(rows)) == rows
    assert bit_matrix(rows, m).sum(axis=0).tolist() == _ref_column_counts(rows, m)


def _pair_ids(data, nl, nr, n):
    """Disjoint id lists for a pair: unsorted and scattered, or the
    contiguous ranges of a block on either side."""
    if data.draw(st.booleans(), label="contiguous"):
        left, right = (0, n - nr) if data.draw(st.booleans()) else (n - nl, 0)
        return list(range(left, left + nl)), list(range(right, right + nr))
    ids = data.draw(st.permutations(range(n)))
    return ids[:nl], ids[nl:nl + nr]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_add_pair_matches_add_edge_loop(data):
    nl = data.draw(st.integers(0, 9))
    nr = data.draw(st.sampled_from(WIDTHS))
    n = nl + nr + data.draw(st.integers(0, 4))
    left, right = _pair_ids(data, nl, nr, n)
    # a graph already holding some edges, so overlaps must count once
    vertex = st.integers(0, max(n - 1, 0))
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    G = LabeledGraph(n, [(u, v) for u, v in edges if u != v])
    rows = data.draw(st.lists(st.integers(0, (1 << nr) - 1), min_size=nl, max_size=nl))
    expected = G.copy()
    for a, row in enumerate(rows):
        for b in iter_bits(row):
            expected.add_edge(left[a], right[b])
    G.add_pair(rows, left, right)
    assert G.adj == expected.adj
    assert G.num_edges() == expected.num_edges()
    # add_pair inverts pair_view
    F = LabeledGraph(n)
    F.add_pair(rows, left, right)
    assert pair_view(F.adj, left, right).adj == rows


@pytest.mark.parametrize("left,right", [(0, 2), (2, 0), (-1, 4), (0, 5)])
def test_add_pair_refuses_overlapping_or_outside_ranges(left, right):
    with pytest.raises(BadParams):
        LabeledGraph(7).add_pair([1, 2, 3], range(left, left + 3), range(right, right + 3))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_add_pair_refusals_leave_the_graph_unchanged(data):
    n = data.draw(st.integers(2, 12))
    ids = data.draw(st.permutations(range(n)))
    nl = data.draw(st.integers(1, n - 1))
    left, right = ids[:nl], ids[nl:]
    rows = [(1 << len(right)) - 1] * nl
    fault = data.draw(st.sampled_from(["overlap", "duplicate", "outside", "row count"]))
    if fault == "overlap":
        right = right + [data.draw(st.sampled_from(left))]
    elif fault == "duplicate":
        side = data.draw(st.sampled_from([left, right]))
        side.append(data.draw(st.sampled_from(side)))
        rows = [(1 << len(right)) - 1] * len(left)
    elif fault == "outside":
        right = right + [data.draw(st.sampled_from([-1, n, n + 5]))]
    else:
        rows = rows + [0] if data.draw(st.booleans()) else rows[1:]
    G = LabeledGraph(n, [(0, 1)])
    with pytest.raises(BadParams):
        G.add_pair(rows, left, right)
    assert G.adj == LabeledGraph(n, [(0, 1)]).adj and G.num_edges() == 1
