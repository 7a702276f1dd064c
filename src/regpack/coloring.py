"""Equitable colorings.

A graph of maximum degree at most k always has an equitable
(k+1)-coloring.  The constructive route here: greedy proper coloring
into k+1 classes, then balancing moves.  A balancing move walks a path
in the "class-move digraph" (an arc X -> Y when some vertex of X has no
neighbour in Y) from an oversized class to an undersized class,
shifting one vertex along each arc.  If no such path exists the search
restarts from a shuffled greedy coloring.  Classes come back in one
canonical order: by descending size, then lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParams, DegreeTooHigh, RetriesExhausted
from .graphs import LabeledGraph, mask_of


@dataclass
class EquitableColoring:
    classes: list[list[int]]

    def sizes(self) -> list[int]:
        return [len(c) for c in self.classes]

    def spread(self) -> int:
        sizes = self.sizes()
        return max(sizes) - min(sizes)

    def check(self, G: LabeledGraph) -> None:
        seen: set[int] = set()
        for cls in self.classes:
            m = mask_of(cls)
            for v in cls:
                if G.adj[v] & m:
                    raise BadParams(f"class containing {v} is not independent")
            seen.update(cls)
        if seen != set(range(G.n)):
            raise BadParams("classes do not partition the vertex set")
        if self.spread() > 1:
            raise BadParams(f"size spread {self.spread()} exceeds 1")


def _greedy_classes(G: LabeledGraph, k: int, order: list[int]) -> list[list[int]]:
    classes: list[list[int]] = [[] for _ in range(k + 1)]
    masks = [0] * (k + 1)
    for v in order:
        # prefer the currently smallest admissible class; ties by index
        for c in sorted(range(k + 1), key=lambda c: (len(classes[c]), c)):
            if not (G.adj[v] & masks[c]):
                break
        else:
            raise DegreeTooHigh(f"greedy found no class for vertex {v}")
        classes[c].append(v)
        masks[c] |= 1 << v
    return classes


def _balance(G: LabeledGraph, classes: list[list[int]]) -> bool:
    """Equalize class sizes via class-move paths; True on success, False
    when no path leads from a largest class to a smallest one.

    The loop ends: each move takes one vertex from a largest class (size
    h) to a smallest one (size l) with h - l >= 2, leaving the classes in
    between at their sizes.  With U = ceil(n/q) and L = floor(n/q) for q
    classes, the potential sum(max(0, s - U)) + sum(max(0, L - s)) over
    the class sizes s then drops by at least 1 (h > U, or else l < L)
    and no term of it rises; it starts at no more than 2n, so there are
    at most 2n moves.
    """
    k1 = len(classes)
    masks = [mask_of(c) for c in classes]
    while True:
        sizes = [len(c) for c in classes]
        hi = max(sizes)
        lo = min(sizes)
        if hi - lo <= 1:
            return True
        sources = [c for c in range(k1) if sizes[c] == hi]
        targets = {c for c in range(k1) if sizes[c] == lo}
        # BFS over classes: arc c -> c2 if some v in class c has no neighbour in c2
        parent_arc: dict[int, tuple[int, int]] = {}
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
        # shift one vertex along the path ending at `reached`; sources are
        # never assigned a parent arc, so the walk stops at one
        c2 = reached
        while c2 in parent_arc:
            c, mover = parent_arc[c2]
            classes[c].remove(mover)
            classes[c2].append(mover)
            masks[c] &= ~(1 << mover)
            masks[c2] |= 1 << mover
            c2 = c


def hs_equitable_coloring(G: LabeledGraph, k: int, rng) -> EquitableColoring:
    """Equitable (k+1)-coloring of a graph with max degree <= k."""
    if G.max_degree() > k:
        raise DegreeTooHigh(f"max degree {G.max_degree()} exceeds {k}")
    col = try_equitable_coloring(G, k + 1, rng, restarts=64)
    if col is None:
        raise RetriesExhausted("equitable coloring failed after 64 restarts")
    return col


def try_equitable_coloring(G: LabeledGraph, classes: int, rng, restarts: int = 32) -> EquitableColoring | None:
    """Equitable coloring into a fixed class count, without the degree
    precondition; None when greedy + balancing keeps failing.

    Unlike the (k+1)-class theorem route, a proper coloring into
    ``classes`` classes need not exist at all (bipartite 2-regular
    graphs do have balanced 2-colorings, odd cycles have none).  The
    classes are sorted, largest first, then lexicographically."""
    order = list(range(G.n))
    for _ in range(restarts):
        try:
            cls = _greedy_classes(G, classes - 1, order)
        except DegreeTooHigh:
            rng.shuffle(order)
            continue
        if _balance(G, cls):
            col = EquitableColoring(sorted((sorted(c) for c in cls), key=lambda c: (-len(c), c)))
            col.check(G)
            return col
        rng.shuffle(order)
    return None
