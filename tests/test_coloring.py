import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regpack.coloring import (
    EquitableColoring,
    _balance,
    _greedy_classes,
    hs_equitable_coloring,
    try_equitable_coloring,
)
from regpack.errors import DegreeTooHigh, RetriesExhausted
from regpack.graphs import LabeledGraph, mask_of


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
