import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regpack.coloring import (
    EquitableColoring,
    _balance,
    _greedy_classes,
    check_schedule,
    hs_equitable_coloring,
    round_schedule,
    schedule_violations,
    try_equitable_coloring,
)
from regpack.errors import DegreeTooHigh, RetriesExhausted
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
        assert len(col.classes) == 4
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


# The colouring as it stood before the iteration cap, the depth-2 swap
# fallback and the callers' own class sorts were removed, kept verbatim as
# the reference: the class-move BFS under a 4n + 8 cap, then the exhaustive
# swap search, classes returned in class-index order.
def _ref_greedy_classes(G, k, order):
    classes = [[] for _ in range(k + 1)]
    masks = [0] * (k + 1)
    for v in order:
        # prefer the currently smallest admissible class; ties by index
        best = -1
        for c in sorted(range(k + 1), key=lambda c: (len(classes[c]), c)):
            if not (G.adj[v] & masks[c]):
                best = c
                break
        if best < 0:
            raise DegreeTooHigh(f"greedy found no class for vertex {v}")
        classes[best].append(v)
        masks[best] |= 1 << v
    return classes


def _ref_balance(G, classes, iteration_cap):
    k1 = len(classes)
    masks = [mask_of(c) for c in classes]
    for _ in range(iteration_cap):
        sizes = [len(c) for c in classes]
        hi = max(sizes)
        lo = min(sizes)
        if hi - lo <= 1:
            return True
        sources = [c for c in range(k1) if sizes[c] == hi]
        targets = {c for c in range(k1) if sizes[c] == lo}
        parent_arc = {}
        frontier = list(sources)
        visited = set(sources)
        reached = None
        while frontier and reached is None:
            nxt = []
            for c in frontier:
                for c2 in range(k1):
                    if c2 in visited or c2 == c:
                        continue
                    mover = next((v for v in classes[c] if not (G.adj[v] & masks[c2])), None)
                    if mover is None:
                        continue
                    parent_arc[c2] = (c, mover)
                    visited.add(c2)
                    if c2 in targets:
                        reached = c2
                        break
                    nxt.append(c2)
                if reached is not None:
                    break
            frontier = nxt
        if reached is None:
            return False
        c2 = reached
        while c2 in parent_arc:
            c, mover = parent_arc[c2]
            classes[c].remove(mover)
            classes[c2].append(mover)
            masks[c] &= ~(1 << mover)
            masks[c2] |= 1 << mover
            c2 = c
    sizes = [len(c) for c in classes]
    return max(sizes) - min(sizes) <= 1


def _ref_exhaustive_balance(G, classes):
    k1 = len(classes)
    for _ in range(G.n * G.n):
        masks = [mask_of(c) for c in classes]
        sizes = [len(c) for c in classes]
        hi = max(sizes)
        lo = min(sizes)
        if hi - lo <= 1:
            return True
        done = False
        for c in range(k1):
            if sizes[c] != hi or done:
                continue
            for c2 in range(k1):
                if sizes[c2] != lo or done:
                    continue
                for v in classes[c]:
                    if not (G.adj[v] & masks[c2]):
                        classes[c].remove(v)
                        classes[c2].append(v)
                        done = True
                        break
                if done:
                    break
                for c3 in range(k1):
                    if c3 in (c, c2) or done:
                        continue
                    for v in classes[c]:
                        if G.adj[v] & masks[c3]:
                            continue
                        for w in classes[c3]:
                            if w != v and not (G.adj[w] & (masks[c2] | (1 << v))):
                                classes[c].remove(v)
                                classes[c3].append(v)
                                classes[c3].remove(w)
                                classes[c2].append(w)
                                done = True
                                break
                        if done:
                            break
        if not done:
            return False
    return False


def _ref_try_equitable_coloring(G, classes, rng, restarts=32):
    order = list(range(G.n))
    for _ in range(restarts):
        try:
            cls = _ref_greedy_classes(G, classes - 1, order)
        except DegreeTooHigh:
            rng.shuffle(order)
            continue
        if _ref_balance(G, cls, iteration_cap=4 * G.n + 8) or \
                (max(len(c) for c in cls) < 64 and _ref_exhaustive_balance(G, cls)):
            return [sorted(c) for c in cls]
        rng.shuffle(order)
    return None


def _ref_hs_equitable_coloring(G, k, rng):
    if G.max_degree() > k:
        raise DegreeTooHigh(f"max degree {G.max_degree()} exceeds {k}")
    cls = _ref_try_equitable_coloring(G, k + 1, rng, restarts=64)
    if cls is None:
        raise RetriesExhausted("equitable coloring failed after 64 restarts")
    return cls


def _canonical(out):
    return sorted(out, key=lambda c: (-len(c), c)) if isinstance(out, list) else out


def _outcome(fn, G, q, seed):
    """Classes (None, or the exception type) and the rng state after the call."""
    rng = random.Random(seed)
    try:
        out = fn(G, q, rng)
    except (DegreeTooHigh, RetriesExhausted) as exc:
        out = type(exc)
    if isinstance(out, EquitableColoring):
        out = out.classes
    return out, rng.getstate()


def _gnp(n, p, seed):
    rng = random.Random(seed)
    return LabeledGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


@given(st.integers(1, 40), st.integers(2, 6), st.floats(0.0, 0.5), st.integers(0, 10_000))
@settings(max_examples=300, deadline=None)
def test_try_equitable_coloring_matches_the_reference(n, q, p, seed):
    # G(n, p) with no degree bound: greedy restarts (no proper q-coloring
    # from that order) and stuck balances (no class-move path) both occur
    G = _gnp(n, p, seed)
    got, got_state = _outcome(try_equitable_coloring, G, q, seed)
    want, want_state = _outcome(_ref_try_equitable_coloring, G, q, seed)
    assert got == _canonical(want)
    assert got_state == want_state


@given(st.integers(1, 40), st.integers(1, 5), st.sampled_from([0, 0, 0, 1]), st.floats(0.1, 0.9),
       st.integers(0, 10_000))
@settings(max_examples=300, deadline=None)
def test_hs_equitable_coloring_matches_the_reference(n, k, excess, p, seed):
    # degree up to k + excess: at excess 1 most graphs are refused up front
    G = random_graph_max_degree(n, k + excess, seed, p=p)
    got, got_state = _outcome(hs_equitable_coloring, G, k, seed)
    want, want_state = _outcome(_ref_hs_equitable_coloring, G, k, seed)
    assert got == _canonical(want)
    assert got_state == want_state


def test_stuck_balance_restarts_like_the_reference():
    # K_{2,3}: the greedy from the identity order gives {0}, {1}, {2, 3, 4},
    # and every vertex of the large class sees both small ones
    G = LabeledGraph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    cls = _greedy_classes(G, 2, list(range(5)))
    assert cls == [[0], [1], [2, 3, 4]]
    assert not _balance(G, cls)
    assert not _ref_exhaustive_balance(G, cls)
    got, got_state = _outcome(try_equitable_coloring, G, 3, 0)
    want, want_state = _outcome(_ref_try_equitable_coloring, G, 3, 0)
    assert got == _canonical(want) == [[0, 1], [2, 4], [3]]
    assert got_state == want_state != random.Random(0).getstate()


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
