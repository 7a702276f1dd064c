"""Equitable colorings and the embedding-round schedule.

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

from collections import Counter
from dataclasses import dataclass

from .errors import BadParams, DegreeTooHigh, RetriesExhausted
from .graphs import LabeledGraph, ReducedGraph, blow_up, iter_bits, mask_of, square


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


def _first_fit(adj: list[int], vertices, colors: int) -> list[list[int]] | None:
    """Each vertex in turn joins the first of ``colors`` classes that holds
    none of its neighbours; None when some vertex fits in no class."""
    classes: list[list[int]] = [[] for _ in range(colors)]
    masks = [0] * colors
    for v in vertices:
        for c in range(colors):
            if not (adj[v] & masks[c]):
                classes[c].append(v)
                masks[c] |= 1 << v
                break
        else:
            return None
    return classes


def round_schedule(R: ReducedGraph, K: int, Delta_R: int) -> list[list[int]]:
    """Partition of [K*r] into w = (K*Delta_R)^2 (Delta_R+1) round classes.

    Every class is independent in the square of the K-fold blow-up, the
    per-pair bipartite degree between classes is at most 1, and for
    every edge ij of R the round windows of blocks i and j are disjoint
    intervals.  Empty classes are retained so round indices stay aligned
    with the bookkeeping.
    """
    if R.max_degree() > Delta_R:
        raise DegreeTooHigh(f"Delta(R)={R.max_degree()} exceeds Delta_R={Delta_R}")
    # independent sets W*_1..W*_{Delta_R+1} of R; the degree check above
    # leaves every vertex a free color
    w_star = _first_fit(R.adj, range(R.r), Delta_R + 1)
    RK2 = square(blow_up(R, K))
    per_block = (K * Delta_R) ** 2
    schedule: list[list[int]] = []
    for c in range(Delta_R + 1):
        members = [v for i in w_star[c] for v in range(i * K, (i + 1) * K)]
        # lexicographically-first greedy partition of (R_K)^2[W**] into
        # per_block independent sets
        sub = _first_fit(RK2.adj, members, per_block)
        if sub is None:
            raise BadParams("blow-up square needs more colors than reserved")
        schedule.extend(sub)
    return schedule


def schedule_violations(adj: list[int], schedule: list[list[int]], n: int) -> list[str]:
    """Violations of the schedule properties on the graph with rows ``adj``:
    the rounds partition ``range(n)``, each round is independent, and no
    vertex has two neighbours in one other round.  Each vertex's neighbours
    are walked once, so the cost does not grow with the number of rounds."""
    errs = []
    if sorted(v for cls in schedule for v in cls) != list(range(n)):
        errs.append("schedule is not a partition of the vertex set")
    round_of = [-1] * n
    for idx, cls in enumerate(schedule):
        for v in cls:
            if 0 <= v < n:
                round_of[v] = idx
    dependent: set[int] = set()
    crowded: set[tuple[int, int]] = set()
    for v, a in enumerate(round_of):
        hits = Counter(round_of[u] for u in iter_bits(adj[v])) if a >= 0 else {}
        if a in hits:
            dependent.add(a)
        crowded.update((a, b) for b, c in hits.items() if c > 1 and b not in (a, -1))
    errs += [f"round {a} is not independent" for a in sorted(dependent)]
    errs += [f"a vertex of round {a} has two neighbours in round {b}" for a, b in sorted(crowded)]
    return errs


def check_schedule(R: ReducedGraph, K: int, Delta_R: int, schedule: list[list[int]]) -> list[str]:
    """Mechanical checks of the schedule properties; returns violations.  A
    round is independent in the square of the blow-up iff it is independent
    in the blow-up and no vertex has two neighbours in it."""
    errs = schedule_violations(blow_up(R, K).adj, schedule, K * R.r)
    if len(schedule) != (K * Delta_R) ** 2 * (Delta_R + 1):
        errs.append(f"schedule has {len(schedule)} classes, expected {(K * Delta_R) ** 2 * (Delta_R + 1)}")
    # window disjointness per R-edge
    first = {}
    last = {}
    for idx, cls in enumerate(schedule):
        for v in cls:
            blk = v // K
            first.setdefault(blk, idx)
            last[blk] = idx
    for i, j in R.edges():
        if not (last.get(i, -1) < first.get(j, 1 << 30) or last.get(j, -1) < first.get(i, 1 << 30)):
            errs.append(f"round windows of blocks {i},{j} overlap")
    return errs
