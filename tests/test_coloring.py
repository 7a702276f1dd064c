import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regpack.coloring import check_schedule, hs_equitable_coloring, round_schedule, schedule_violations
from regpack.errors import DegreeTooHigh
from regpack.graphs import LabeledGraph, ReducedGraph, blow_up, mask_of, square


def cycle(n):
    return LabeledGraph(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph_max_degree(n, dmax, seed, p=0.5):
    rng = random.Random(seed)
    G = LabeledGraph(n)
    deg = [0] * n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if deg[u] < dmax and deg[v] < dmax and rng.random() < p:
            G.add_edge(u, v)
            deg[u] += 1
            deg[v] += 1
    return G


class TestEquitableColoring:
    def test_c5_three_classes(self):
        col = hs_equitable_coloring(cycle(5), 2, random.Random(0))
        col.check(cycle(5))
        assert sorted(col.sizes(), reverse=True) == [2, 2, 1]

    def test_empty_graph(self):
        col = hs_equitable_coloring(LabeledGraph(9), 2, random.Random(0))
        assert sorted(col.sizes()) == [3, 3, 3]

    def test_random_delta3(self):
        G = random_graph_max_degree(100, 3, seed=1)
        col = hs_equitable_coloring(G, 3, random.Random(0))
        col.check(G)
        assert col.k == 4
        assert col.sizes() == [25, 25, 25, 25]

    def test_degree_too_high(self):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(DegreeTooHigh):
            hs_equitable_coloring(cycle(4), 1, rng)
        # the degree check comes before any draw
        assert rng.getstate() == state

    @given(st.integers(2, 60), st.integers(1, 5), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_property_independence_and_balance(self, n, dmax, seed):
        G = random_graph_max_degree(n, dmax, seed)
        col = hs_equitable_coloring(G, max(dmax, G.max_degree()), random.Random(seed))
        col.check(G)


class TestRoundSchedule:
    def test_single_edge_k1(self):
        R = ReducedGraph(2, [(0, 1)])
        sched = round_schedule(R, 1, 1)
        assert len(sched) == 2
        nonempty = [c for c in sched if c]
        assert sorted(map(tuple, nonempty)) == [(0,), (1,)]

    def test_block_scatter(self):
        # every round class meets each block at most once
        R = ReducedGraph(3, [(0, 1), (1, 2)])
        K = 4
        sched = round_schedule(R, K, 2)
        for cls in sched:
            blocks = [v // K for v in cls]
            assert len(blocks) == len(set(blocks))

    def test_c4_schedule_checks(self):
        R = ReducedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        K = 8
        sched = round_schedule(R, K, 2)
        assert check_schedule(R, K, 2, sched) == []

    def test_bipartite_degree_bound_exhaustive(self):
        R = ReducedGraph(2, [(0, 1)])
        K = 4
        sched = round_schedule(R, K, 1)
        RK = blow_up(R, K)
        for a, ca in enumerate(sched):
            for b, cb in enumerate(sched):
                if a == b:
                    continue
                mb = mask_of(cb)
                for v in ca:
                    assert bin(RK.adj[v] & mb).count("1") <= 1

    def test_empty_classes_retained(self):
        R = ReducedGraph(2, [(0, 1)])
        sched = round_schedule(R, 2, 1)
        assert len(sched) == (2 * 1) ** 2 * 2
        assert any(not c for c in sched)


def _crowded_reference(G, schedule):
    """The pairwise round loop, run in both directions: (a, b) when a vertex
    of round a has two neighbours in round b."""
    out = set()
    for a, ca in enumerate(schedule):
        for b, cb in enumerate(schedule):
            mb = mask_of(cb)
            if a != b and any(bin(G.adj[v] & mb).count("1") > 1 for v in ca):
                out.add((a, b))
    return out


@st.composite
def graph_and_schedule(draw):
    n = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    G = LabeledGraph(n, draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else ())
    w = draw(st.integers(1, 6))
    schedule = [[] for _ in range(w)]
    for v in draw(st.permutations(range(n))):
        schedule[draw(st.integers(0, w - 1))].append(v)
    return G, schedule


@given(graph_and_schedule())
@settings(max_examples=200, deadline=None)
def test_schedule_violations_match_reference_loops(case):
    G, schedule = case
    errs = schedule_violations(G.adj, schedule, G.n)
    dependent = {int(a) for e in errs for a in re.findall(r"^round (\d+) is not independent$", e)}
    crowded = {(int(a), int(b)) for e in errs
               for a, b in re.findall(r"^a vertex of round (\d+) has two neighbours in round (\d+)$", e)}
    assert len(errs) == len(dependent) + len(crowded)
    assert dependent == {i for i, cls in enumerate(schedule) if any(G.adj[v] & mask_of(cls) for v in cls)}
    assert crowded == _crowded_reference(G, schedule)
    # together the two properties say each round is independent in the square
    G2 = square(G)
    for i, cls in enumerate(schedule):
        in_square = not any(G2.adj[v] & mask_of(cls) for v in cls)
        assert in_square == (i not in dependent and all(b != i for _, b in crowded))


@given(graph_and_schedule(), st.sampled_from(["drop", "repeat", "outside"]))
@settings(max_examples=100, deadline=None)
def test_schedule_violations_flag_a_broken_partition(case, how):
    G, schedule = case
    first = next(cls for cls in schedule if cls)
    if how == "drop":
        first.pop()
    elif how == "repeat":
        schedule[-1].append(first[0])
    else:
        first.append(G.n)
    assert schedule_violations(G.adj, schedule, G.n)[0] == "schedule is not a partition of the vertex set"


def test_check_schedule_flags_a_square_dependent_round():
    # blocks 0 and 2 share the neighbour block 1 of the path 0-1-2, so
    # one round holding both is independent in R_K but not in its square
    R = ReducedGraph(3, [(0, 1), (1, 2)])
    assert check_schedule(R, 1, 2, [[0, 2], [1]] + [[]] * 10) == [
        "a vertex of round 1 has two neighbours in round 0"]
