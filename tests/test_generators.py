"""The generators keep their random stream: the int-row 2-switch loop and
the block assembly of hosts and templates against the add_edge code they
replaced."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regpack.errors import BadParams, RetriesExhausted
from regpack.generators import (
    bipartite_union_templates,
    certified_bipartite_host,
    host_superregular,
    random_bounded_degree_graph,
    random_regular_bipartite,
)
from regpack.graphs import BipartiteGraph, LabeledGraph, ReducedGraph, iter_bits


def reference_random_regular_bipartite(n, k, rng):
    """The 2-switch loop on BipartiteGraph methods and ``rng.randrange``."""
    offsets = rng.sample(range(n), k)
    B = BipartiteGraph(n, n)
    for u in range(n):
        for o in offsets:
            B.add_edge(u, (u + o) % n)
    edges = B.edges()
    for _ in range(10 * n * max(k, 1)):
        i = rng.randrange(len(edges))
        j = rng.randrange(len(edges))
        (a, b), (c, d) = edges[i], edges[j]
        if a == c or b == d:
            continue
        if B.has_edge(a, d) or B.has_edge(c, b):
            continue
        B.remove_edge(a, b)
        B.remove_edge(c, d)
        B.add_edge(a, d)
        B.add_edge(c, b)
        edges[i] = (a, d)
        edges[j] = (c, b)
    return B


def inlined_randbelow(getrandbits, size):
    """The bounded draw as the switch loop writes it out."""
    width = size.bit_length()
    i = getrandbits(width)
    while i >= size:
        i = getrandbits(width)
    return i


@st.composite
def sizes_and_seeds(draw):
    n = draw(st.integers(1, 48), label="n")
    k = draw(st.integers(1, n), label="k")
    return n, k, draw(st.integers(0, 2 ** 32), label="seed")


@given(case=sizes_and_seeds())
@settings(max_examples=60, deadline=None)
def test_switch_loop_keeps_the_stream(case):
    n, k, seed = case
    ref_rng, rng = random.Random(seed), random.Random(seed)
    expected = reference_random_regular_bipartite(n, k, ref_rng)
    B = random_regular_bipartite(n, k, rng)
    assert B.adj == expected.adj
    assert B.num_edges() == expected.num_edges() == n * k
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("n,k", [(120, 108), (100, 90), (140, 126), (120, 1), (12, 8), (7, 3)])
def test_switch_loop_keeps_the_stream_at_workload_sizes(n, k):
    ref_rng, rng = random.Random(n * 1000 + k), random.Random(n * 1000 + k)
    assert random_regular_bipartite(n, k, rng).adj == reference_random_regular_bipartite(n, k, ref_rng).adj
    assert rng.random() == ref_rng.random()


SIZES = sorted({1, 2, 3} | {2 ** j + e for j in range(1, 21) for e in (-1, 1)})


@pytest.mark.parametrize("size", SIZES)
def test_inlined_draw_matches_randrange(size):
    ref_rng, rng = random.Random(size), random.Random(size)
    draws = [inlined_randbelow(rng.getrandbits, size) for _ in range(200)]
    assert draws == [ref_rng.randrange(size) for _ in range(200)]
    assert rng.getstate() == ref_rng.getstate()


class TestZeroDegree:
    @pytest.mark.parametrize("n", [0, 1, 5, 12])
    def test_empty_graph_and_no_draw_after_the_sample(self, n):
        rng, ref_rng = random.Random(3), random.Random(3)
        B = random_regular_bipartite(n, 0, rng)
        ref_rng.sample(range(n), 0)
        assert B.adj == [0] * n and B.num_edges() == 0
        assert rng.getstate() == ref_rng.getstate()

    def test_sparse_certified_host(self):
        B = certified_bipartite_host(12, 0.05, 0.05, random.Random(0))
        assert all(row.bit_count() <= 1 for row in B.adj)

    def test_degree_above_n_is_refused(self):
        with pytest.raises(BadParams):
            random_regular_bipartite(3, 4, random.Random(0))


def test_bounded_degree_graph_refuses_edges_without_vertices():
    with pytest.raises(BadParams, match="cannot place 3 edges on 0 vertices"):
        random_bounded_degree_graph(0, 3, 3, random.Random(0))


def test_bounded_degree_graph_refuses_a_shortfall():
    # seed 2 places a triangle plus one edge on 5 vertices and is stuck at degree 2
    with pytest.raises(RetriesExhausted, match="placed 4 of 5 edges"):
        random_bounded_degree_graph(5, 2, 5, random.Random(2))
    G = random_bounded_degree_graph(5, 2, 5, random.Random(0))
    assert G.num_edges() == 5 and max(G.degree(v) for v in range(5)) <= 2


def bounds_of(sizes):
    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    return bounds


def reference_host_graph(R, sizes, d, eps, rng):
    """`host_superregular`'s graph, each pair added one ``add_edge`` at a time."""
    bounds = bounds_of(sizes)
    G = LabeledGraph(bounds[-1])
    for i, j in R.edges():
        ni, nj = sizes[i], sizes[j]
        if ni == nj:
            B = certified_bipartite_host(ni, d, eps, rng)
        else:
            B = certified_bipartite_host(max(ni, nj), d, eps, rng).subgraph(range(ni), range(nj))
        for u in range(ni):
            for v in iter_bits(B.adj[u]):
                G.add_edge(bounds[i] + u, bounds[j] + v)
    return G


def reference_template_graphs(R, sizes, k, count, rng):
    """`bipartite_union_templates`' graphs, each pair added one ``add_edge`` at a time."""
    bounds = bounds_of(sizes)
    out = []
    for _ in range(count):
        G = LabeledGraph(bounds[-1])
        for i, j in R.edges():
            ni, nj = sizes[i], sizes[j]
            if ni == nj:
                B = random_regular_bipartite(ni, k, rng)
                for a in range(ni):
                    for b in iter_bits(B.adj[a]):
                        G.add_edge(bounds[i] + a, bounds[j] + b)
            else:
                m = min(ni, nj)
                used = set()
                for _layer in range(k):
                    for _try in range(50):
                        layer = list(zip(rng.sample(range(ni), m), rng.sample(range(nj), m)))
                        if all(e not in used for e in layer):
                            used.update(layer)
                            for a, b in layer:
                                G.add_edge(bounds[i] + a, bounds[j] + b)
                            break
        out.append(G)
    return out


def complete_reduced(r):
    return ReducedGraph(r, [(i, j) for i in range(r) for j in range(i + 1, r)])


@pytest.mark.parametrize("r,sizes", [(2, None), (3, None), (2, [10, 14]), (3, [9, 12, 10])])
def test_host_assembly_matches_add_edge(r, sizes):
    R = complete_reduced(r)
    d = Fraction(7, 10)
    dens = [[d if i != j else Fraction(0) for j in range(r)] for i in range(r)]
    P = host_superregular(R, 12, dens, 0.05, random.Random(r), sizes=sizes)
    expected = reference_host_graph(R, sizes or [12] * r, 0.7, 0.05, random.Random(r))
    assert P.graph.adj == expected.adj
    assert P.graph.num_edges() == expected.num_edges() > 0


@pytest.mark.parametrize("r,k,sizes", [(2, 1, None), (2, 2, None), (3, 1, None), (3, 2, None),
                                       (2, 2, [8, 11]), (3, 1, [8, 8, 11])])
def test_template_assembly_matches_add_edge(r, k, sizes):
    R = complete_reduced(r)
    sz = sizes or [10] * r
    templates = bipartite_union_templates(r, 10, k, 3, random.Random(k), R=R, sizes=sizes)
    expected = reference_template_graphs(R, sz, k, 3, random.Random(k))
    for T, G in zip(templates, expected, strict=True):
        assert T.graph.adj == G.adj
        assert T.graph.num_edges() == G.num_edges() == k * sum(min(sz[i], sz[j]) for i, j in R.edges())
