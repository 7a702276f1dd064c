"""Core graph types: bitset-backed simple graphs, partitions, reduced graphs.

Adjacency rows are Python ints used as bitsets, so neighbourhood
intersections and degree counts cost O(n/64) words.  All types are
immutable by convention after construction; the few mutating helpers
(`add_edge`, `add_pair`, `remove_edge`) are meant for builders, which
freeze the object before sharing it.

Pairs move between graphs through two primitives: `pair_view` cuts the
pair between two vertex lists out of a graph's rows, and
`LabeledGraph.add_pair`, its inverse, puts one back at given vertex ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import BadParams


def popcount(x: int) -> int:
    return x.bit_count()


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bit_matrix(rows: Sequence[int], ncols: int) -> np.ndarray:
    """0/1 ``uint8`` matrix whose row ``k`` holds bits ``0..ncols-1`` of ``rows[k]``.

    Rows may carry set bits at or beyond ``ncols`` (host rows span all n
    vertices), so the byte width follows the widest row as well as ``ncols``.
    """
    width = (max(max(rows, default=0).bit_length(), ncols) + 7) // 8
    packed = np.frombuffer(b"".join([r.to_bytes(width, "little") for r in rows]), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(rows), width), axis=1, count=ncols, bitorder="little")


def bit_rows(mat: np.ndarray) -> list[int]:
    """Inverse of `bit_matrix`: each row of a 0/1 matrix as an int bitset."""
    packed = np.packbits(mat, axis=1, bitorder="little")
    width = packed.shape[1]
    if width == 0:
        return [0] * len(packed)
    buf = packed.tobytes()
    return [int.from_bytes(buf[k:k + width], "little") for k in range(0, len(buf), width)]


def transpose(rows: Sequence[int], ncols: int) -> list[int]:
    """Column bitsets of the ``len(rows) x ncols`` bit matrix ``rows``."""
    return bit_rows(np.ascontiguousarray(bit_matrix(rows, ncols).T))


def scatter(rows: Sequence[int], ids: Sequence[int], n: int) -> list[int]:
    """``rows`` with bit ``b`` moved to bit ``ids[b]``, as bitsets over ``0..n-1``."""
    mat = np.zeros((len(rows), n), dtype=np.uint8)
    mat[:, list(ids)] = bit_matrix(rows, len(ids))
    return bit_rows(mat)


def pair_view(adj: Sequence[int], left: Sequence[int], right: Sequence[int]) -> "BipartiteGraph":
    """The pair between vertex lists ``left`` and ``right`` of the rows ``adj``.

    Bit ``b`` of row ``a`` is bit ``right[b]`` of ``adj[left[a]]``; the
    lists are kept as ``left_ids`` and ``right_ids``.
    """
    right = list(right)
    B = BipartiteGraph(len(left), len(right), left_ids=left, right_ids=right)
    mat = bit_matrix([adj[u] for u in left], max(right, default=-1) + 1)
    B.adj = bit_rows(mat[:, right])
    return B


def candidacy_rows(blocks) -> dict[int, int]:
    """Pattern vertex -> bitset of the global host ids it may take.

    ``blocks`` holds one candidacy graph per class (or None, no constraint),
    each carrying its ``left_ids`` and ``right_ids``; vertices of
    unconstrained classes are absent from the lookup."""
    rows: dict[int, int] = {}
    for Ab in blocks or ():
        if Ab is not None:
            ids = Ab.right_ids
            rows.update(zip(Ab.left_ids, scatter(Ab.adj, ids, max(ids, default=-1) + 1)))
    return rows


class LabeledGraph:
    """Simple undirected graph on vertex ids ``0..n-1``."""

    __slots__ = ("n", "adj", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        self.n = n
        self.adj = [0] * n
        self._m = 0
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise BadParams(f"self-loop at {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise BadParams(f"vertex out of range: {(u, v)}")
        if not self.has_edge(u, v):
            self.adj[u] |= 1 << v
            self.adj[v] |= 1 << u
            self._m += 1

    def add_pair(self, rows: Sequence[int], left: Sequence[int], right: Sequence[int]) -> None:
        """Add the pair whose bit ``b`` of ``rows[a]`` is the edge ``(left[a], right[b])``.

        The inverse of `pair_view`.  ``rows`` holds one row per id of
        ``left``; the ids of ``left`` and ``right`` lie in ``0..n-1`` and are
        pairwise distinct.  Edges already present count once.
        """
        left, right = list(left), list(right)
        ids = left + right
        if len(rows) != len(left):
            raise BadParams(f"{len(rows)} rows for {len(left)} left ids")
        if ids and (min(ids) < 0 or max(ids) >= self.n):
            raise BadParams(f"pair ids outside 0..{self.n - 1}")
        if len(set(ids)) != len(ids):
            raise BadParams("pair ids repeat or the sides overlap")
        # both sides as rows over the local ids left + right, then scattered
        new = scatter([row << len(left) for row in rows] + transpose(rows, len(right)), ids, self.n)
        adj = self.adj
        self._m += sum(popcount(row & ~adj[u]) for u, row in zip(left, new))
        for u, row in zip(ids, new):
            adj[u] |= row

    def remove_edge(self, u: int, v: int) -> None:
        if self.has_edge(u, v):
            self.adj[u] &= ~(1 << v)
            self.adj[v] &= ~(1 << u)
            self._m -= 1

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def degree(self, u: int) -> int:
        return popcount(self.adj[u])

    def max_degree(self) -> int:
        return max((popcount(a) for a in self.adj), default=0)

    def num_edges(self) -> int:
        return self._m

    def neighbors(self, u: int) -> list[int]:
        return list(iter_bits(self.adj[u]))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            m = self.adj[u] >> (u + 1)
            for off in iter_bits(m):
                out.append((u, u + 1 + off))
        return out

    def copy(self) -> "LabeledGraph":
        g = LabeledGraph(self.n)
        g.adj = list(self.adj)
        g._m = self._m
        return g

    def __eq__(self, other) -> bool:
        return isinstance(other, LabeledGraph) and self.n == other.n and self.adj == other.adj

    def __repr__(self) -> str:
        return f"LabeledGraph(n={self.n}, m={self._m})"


class BipartiteGraph:
    """Bipartite graph on disjoint sides ``0..nl-1`` and ``0..nr-1``.

    Rows ``adj[u]`` are bitsets over the right side.  ``left_ids`` and
    ``right_ids`` optionally carry the global ids this view was cut from,
    so embeddings can be translated back without relabeling bugs.
    """

    __slots__ = ("nl", "nr", "adj", "left_ids", "right_ids")

    def __init__(self, nl: int, nr: int, edges: Iterable[tuple[int, int]] = (),
                 left_ids: Sequence[int] | None = None,
                 right_ids: Sequence[int] | None = None):
        self.nl = nl
        self.nr = nr
        self.adj = [0] * nl
        self.left_ids = list(left_ids) if left_ids is not None else None
        self.right_ids = list(right_ids) if right_ids is not None else None
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: int, v: int) -> None:
        if not (0 <= u < self.nl and 0 <= v < self.nr):
            raise BadParams(f"bipartite edge out of range: {(u, v)}")
        self.adj[u] |= 1 << v

    def remove_edge(self, u: int, v: int) -> None:
        self.adj[u] &= ~(1 << v)

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def right_adj(self) -> list[int]:
        return transpose(self.adj, self.nr)

    def num_edges(self) -> int:
        return sum(popcount(r) for r in self.adj)

    def density(self) -> float:
        if self.nl == 0 or self.nr == 0:
            return 0.0
        return self.num_edges() / (self.nl * self.nr)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.nl) for v in iter_bits(self.adj[u])]

    def copy(self) -> "BipartiteGraph":
        g = BipartiteGraph(self.nl, self.nr)
        g.adj = list(self.adj)
        g.left_ids = list(self.left_ids) if self.left_ids is not None else None
        g.right_ids = list(self.right_ids) if self.right_ids is not None else None
        return g

    def subgraph(self, left: Sequence[int], right: Sequence[int]) -> "BipartiteGraph":
        """Induced pair on the given local index subsets, re-indexed."""
        g = pair_view(self.adj, left, right)
        if self.left_ids is not None:
            g.left_ids = [self.left_ids[l] for l in left]
        if self.right_ids is not None:
            g.right_ids = [self.right_ids[r] for r in right]
        return g

    def __repr__(self) -> str:
        return f"BipartiteGraph({self.nl}x{self.nr}, m={self.num_edges()})"


@dataclass(frozen=True)
class VertexPartition:
    """Ordered partition of ``0..n-1`` into disjoint classes covering V."""

    classes: tuple[tuple[int, ...], ...]
    n: int

    @staticmethod
    def from_lists(classes: Sequence[Sequence[int]], n: int | None = None) -> "VertexPartition":
        cls = tuple(tuple(c) for c in classes)
        seen: set[int] = set()
        total = 0
        for c in cls:
            total += len(c)
            seen.update(c)
        if len(seen) != total:
            raise BadParams("partition classes overlap")
        if n is None:
            n = total
        if seen != set(range(n)):
            raise BadParams("partition does not cover the vertex set")
        return VertexPartition(cls, n)

    def class_of(self) -> list[int]:
        out = [-1] * self.n
        for idx, c in enumerate(self.classes):
            for v in c:
                out[v] = idx
        return out

    def sizes(self) -> list[int]:
        return [len(c) for c in self.classes]

    def masks(self) -> list[int]:
        return [mask_of(c) for c in self.classes]


class ReducedGraph(LabeledGraph):
    """Graph on class indices; inherits the bitset machinery."""

    def __init__(self, r: int, edges: Iterable[tuple[int, int]] = ()):
        super().__init__(r, edges)

    @property
    def r(self) -> int:
        return self.n


@dataclass
class PartitionedGraph:
    """Host or pattern graph with its partition and reduced graph.

    ``densities`` is an optional symmetric r x r matrix (a list of lists)
    of exact `Fraction`s, so thresholds like ``(d +- eps)|A|`` reproduce
    bit-for-bit across platforms.
    """

    graph: LabeledGraph
    partition: VertexPartition
    reduced: ReducedGraph
    densities: list[list[Fraction]] | None = None

    def validate(self) -> list[str]:
        """Structural invariants: independent classes, no off-R edges."""
        errs = []
        masks = self.partition.masks()
        for i, ci in enumerate(self.partition.classes):
            for v in ci:
                if self.graph.adj[v] & masks[i]:
                    errs.append(f"class {i} is not independent (vertex {v})")
                    break
        r = self.reduced.r
        for i in range(r):
            for j in range(i + 1, r):
                if not self.reduced.has_edge(i, j):
                    cross = any(self.graph.adj[v] & masks[j] for v in self.partition.classes[i])
                    if cross:
                        errs.append(f"edges present between classes {i},{j} not in R")
        return errs

    def pair_view(self, i: int, j: int) -> BipartiteGraph:
        return induced_bipartite(self, i, j)


# ---------------------------------------------------------------------------
# operations


def blow_up(R: ReducedGraph, K: int) -> ReducedGraph:
    """K-fold blow-up: vertex i becomes block {iK..iK+K-1}, edges become K_{K,K}.

    Blocks are kept contiguous so block j of the result maps back to
    vertex ``j // K`` of ``R``.
    """
    if K < 1:
        raise BadParams("K must be >= 1")
    out = ReducedGraph(K * R.r)
    for i, j in R.edges():
        out.add_pair([(1 << K) - 1] * K, range(i * K, i * K + K), range(j * K, j * K + K))
    return out


def square(G: LabeledGraph) -> LabeledGraph:
    """Graph with edges between vertices at distance 1 or 2 in ``G``."""
    out = LabeledGraph(G.n)
    for u in range(G.n):
        reach = G.adj[u]
        for v in iter_bits(G.adj[u]):
            reach |= G.adj[v]
        reach &= ~(1 << u)
        out.adj[u] = reach
    out._m = sum(popcount(a) for a in out.adj) // 2
    return out


def induced_bipartite(G: PartitionedGraph, i: int, j: int) -> BipartiteGraph:
    """The pair G[V_i, V_j] with local re-indexing and global id maps."""
    if i == j:
        raise BadParams("bipartite restriction needs two distinct classes")
    return pair_view(G.graph.adj, G.partition.classes[i], G.partition.classes[j])


# ---------------------------------------------------------------------------
# external interface: edge-list text


def write_edge_list(G: LabeledGraph, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{G.n} {G.num_edges()}\n")
        for u, v in G.edges():
            fh.write(f"{u} {v}\n")


def read_edge_list(path) -> LabeledGraph:
    """The graph in the edge-list file at ``path``: an ``n m`` header, then
    one ``u v`` line per edge.

    An unreadable path or a malformed file raises `BadParams` naming the path.
    """
    try:
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise ValueError("header must be 'n m'")
            n, m = int(header[0]), int(header[1])
            if n < 0 or m < 0:
                raise ValueError(f"header declares {n} vertices and {m} edges")
            G = LabeledGraph(n)
            count = 0
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                u, v = map(int, line.split())
                G.add_edge(u, v)
                count += 1
    except OSError as exc:
        raise BadParams(f"{path}: cannot read: {exc.strerror or exc}") from None
    except (ValueError, BadParams) as exc:  # a bad field, field count, vertex or byte
        raise BadParams(f"{path}: malformed edge list: {exc}") from None
    if count != m:
        raise BadParams(f"{path}: edge list declares {m} edges, found {count}")
    return G
