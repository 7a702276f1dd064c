"""Perfect matchings in dense bipartite graphs.

Two samplers with an explicit oracle/production split:

* an exact sampler driven by subset-DP matching counts (permanent),
  capped at 24 vertices a side, used as ground truth;
* a lazy switch-chain sampler for any size.  One chain step proposes a
  uniform ordered triple (u1,u2,u3) of left vertices and applies the
  rotation sigma'(u1)=sigma(u3), sigma'(u2)=sigma(u1), sigma'(u3)=sigma(u2)
  whenever the three required edges are present, else holds.  The
  proposal is symmetric, so the stationary distribution is uniform on
  the chain's connected component.  Every move is a 3-rotation, an even
  permutation, so the chain never leaves the matchings of its start's
  sign (sigma read as a permutation): on K_{4,4} it reaches only the 12
  even matchings of 24.  Even within that sign, connectivity of the
  switch graph is not guaranteed for arbitrary hosts; stats objects
  carry that caveat.

``find_perfect_matching`` is Hopcroft-Karp (Hopcroft and Karp, SIAM J.
Comput. 1973) on the int-bitset rows: each BFS layer is the OR of the
frontier's rows, and each DFS step takes the lowest bit of the row masked
by the free right vertices and the next layer, so no edge is visited one
bit at a time.  When a left vertex stays free, the last BFS also names a
Hall obstruction (``hall_witness``): the left vertices S it reached and
their neighbourhood N(S), with |N(S)| < |S|.

Every chain reads the same stream of pre-generated triples, in chunks of
``gen.integers(0, n, size=(chunk, 3))``, and the two kernels differ only
in how they test edges:

* ``sample_switch_chain`` runs ``_chain_rows``, which drops the triples
  with a repeated vertex by one numpy mask and tests ``R[u2][sigma[u1]]``
  on 0/1 lists built once per chunk from the int-bitset rows of ``B.adj``;
* ``sample_switch_chain_many`` runs ``_chain_python``, which indexes a
  bool matrix of the graph.

Both leave the same sigma on the same triples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, NoMatching, SideMismatch, SwitchIneligible, TooLarge
from .graphs import BipartiteGraph, bit_matrix, iter_bits, popcount

EXACT_CAP = 24
_CHUNK = 1 << 16

def _chain_rows(rows, sigma, trips):
    """The chain over int-bitset rows and a list sigma.  A triple with a
    repeated vertex holds the state, so one mask drops those before the
    chunk is read as a flat list of ints and walked three at a time; the
    edge tests index 0/1 lists of the rows."""
    c1, c2, c3 = trips[:, 0], trips[:, 1], trips[:, 2]
    flat = iter(trips[(c1 != c2) & (c2 != c3) & (c1 != c3)].ravel().tolist())
    R = bit_matrix(rows, len(rows)).tolist()
    for u1, u2, u3 in zip(flat, flat, flat):
        a, b, c = sigma[u1], sigma[u2], sigma[u3]
        if R[u2][a] and R[u3][b] and R[u1][c]:
            sigma[u1] = c
            sigma[u2] = a
            sigma[u3] = b


def _chain_python(adj, sigma, trips):
    for t in range(trips.shape[0]):
        u1, u2, u3 = int(trips[t, 0]), int(trips[t, 1]), int(trips[t, 2])
        if u1 == u2 or u2 == u3 or u1 == u3:
            continue
        if adj[u2, sigma[u1]] and adj[u3, sigma[u2]] and adj[u1, sigma[u3]]:
            a, b, c = sigma[u1], sigma[u2], sigma[u3]
            sigma[u1] = c
            sigma[u2] = a
            sigma[u3] = b


@dataclass
class Matching:
    """A perfect matching stored as the bijection u -> sigma[u]."""

    sigma: list[int]

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self.sigma)

    def check(self, B: BipartiteGraph) -> None:
        n = len(self.sigma)
        if sorted(self.sigma) != list(range(n)):
            raise BadParams("sigma is not a bijection")
        for u, v in enumerate(self.sigma):
            if not B.has_edge(u, v):
                raise BadParams(f"matching uses non-edge ({u},{v})")


@dataclass
class MatchingStats:
    samples: int
    edge_frequencies: dict[tuple[int, int], float]

    def to_json(self) -> str:
        return json.dumps({
            "samples": self.samples,
            "edge_frequencies": {f"{u},{v}": f for (u, v), f in self.edge_frequencies.items()},
            "irreducibility_caveat": True,
        })


def _hopcroft_karp(adj: list[int]) -> tuple[list[int], tuple[int, int] | None]:
    """Hopcroft-Karp on the square int-bitset rows ``adj``.

    Returns ``pair_l`` (-1 marks a free left vertex) and, when a left
    vertex stays free, the bitsets (S, N(S)) of the last BFS: the left
    vertices it reached from a free left vertex and their neighbourhood.
    Every vertex of N(S) is matched into S, so |N(S)| < |S|.

    The BFS takes one layer at a time, the next right layer being the OR
    of the frontier's rows.  The DFS keeps a free-right mask and, per
    layer d, the mask of right vertices whose partner sits at layer d; it
    takes candidates lowest bit first and recomputes them after each
    failed sub-search, so it augments along the same paths as a search
    that walks the rows bit by bit.
    """
    n = len(adj)
    INF = n + 1
    pair_l = [-1] * n
    pair_r = [-1] * n
    dist = [INF] * n
    layer = [0] * (n + 1)
    free_r = (1 << n) - 1
    seen_r = 0

    def bfs() -> bool:
        nonlocal seen_r
        frontier = []
        for u in range(n):
            if pair_l[u] == -1:
                dist[u] = 0
                frontier.append(u)
            else:
                dist[u] = INF
        seen_r = 0
        d = 0
        while frontier:
            reach = 0
            for u in frontier:
                reach |= adj[u]
            reach &= ~seen_r
            seen_r |= reach
            d += 1
            layer[d] = rest = reach & ~free_r
            frontier = []
            while rest:
                low = rest & -rest
                w = pair_r[low.bit_length() - 1]
                dist[w] = d
                frontier.append(w)
                rest ^= low
        return seen_r & free_r != 0

    def dfs(u: int) -> bool:
        nonlocal free_r
        du = dist[u]
        # u's partner leaves layer du however the search ends; only deeper
        # layers are read until it returns
        if pair_l[u] != -1:
            layer[du] ^= 1 << pair_l[u]
        row = adj[u]
        while cand := row & (free_r | layer[du + 1]):
            low = cand & -cand
            v = low.bit_length() - 1
            w = pair_r[v]
            if w == -1 or dfs(w):
                if w == -1:
                    free_r ^= low
                layer[du] |= low
                pair_l[u] = v
                pair_r[v] = u
                return True
        dist[u] = INF
        return False

    matched = 0
    while bfs():
        for u in range(n):
            if pair_l[u] == -1 and dfs(u):
                matched += 1
    if matched == n:
        return pair_l, None
    S = 0
    for u in range(n):
        if dist[u] < INF:
            S |= 1 << u
    return pair_l, (S, seen_r)


def find_perfect_matching(B: BipartiteGraph) -> Matching | None:
    """Hopcroft-Karp on ``B.adj``; returns None when no perfect matching exists."""
    if B.nl != B.nr:
        raise SideMismatch(f"sides differ: {B.nl} vs {B.nr}")
    pair_l, hall = _hopcroft_karp(B.adj)
    return Matching(pair_l) if hall is None else None


def hall_witness(B: BipartiteGraph) -> tuple[int, int] | None:
    """Bitsets (S, N(S)) of left vertices with |N(S)| < |S|, taken from the
    last BFS of the Hopcroft-Karp search; None when B has a perfect matching."""
    if B.nl != B.nr:
        raise SideMismatch(f"sides differ: {B.nl} vs {B.nr}")
    return _hopcroft_karp(B.adj)[1]


def _dp_table(B: BipartiteGraph) -> list[int]:
    """f[S] = number of ways to match left vertices 0..|S|-1 onto right set S."""
    n = B.nl
    f = [0] * (1 << n)
    f[0] = 1
    for S in range(1, 1 << n):
        k = popcount(S) - 1
        row = B.adj[k] & S
        total = 0
        while row:
            low = row & -row
            total += f[S ^ low]
            row ^= low
        f[S] = total
    return f


def count_matchings_exact(B: BipartiteGraph) -> int:
    """Exact |M(B)| via the subset DP, O(2^n * n)."""
    if B.nl != B.nr:
        raise SideMismatch(f"sides differ: {B.nl} vs {B.nr}")
    if B.nl > EXACT_CAP:
        raise TooLarge(f"exact count capped at {EXACT_CAP} vertices a side")
    if B.nl == 0:
        return 1
    return _dp_table(B)[(1 << B.nl) - 1]


def count_matchings_through(B: BipartiteGraph, u: int, v: int) -> int:
    """|M_e| for the edge e = (u, v): matchings of B containing it."""
    if not B.has_edge(u, v):
        return 0
    left = [x for x in range(B.nl) if x != u]
    right = [y for y in range(B.nr) if y != v]
    return count_matchings_exact(B.subgraph(left, right))


class ExactUniformSampler:
    """Exactly uniform perfect-matching sampler.

    Builds the subset-DP table once, then draws each sample with n
    conditional-count choices using exact big-integer weights.
    """

    def __init__(self, B: BipartiteGraph):
        if B.nl != B.nr:
            raise SideMismatch(f"sides differ: {B.nl} vs {B.nr}")
        if B.nl > EXACT_CAP:
            raise TooLarge(f"exact sampler capped at {EXACT_CAP} vertices a side")
        self.B = B
        self.n = B.nl
        self.table = _dp_table(B) if self.n else [1]
        if self.n and self.table[(1 << self.n) - 1] == 0:
            raise NoMatching("graph has no perfect matching")

    def total(self) -> int:
        return self.table[(1 << self.n) - 1] if self.n else 1

    def sample(self, rng) -> Matching:
        sigma = [-1] * self.n
        S = (1 << self.n) - 1
        for k in range(self.n - 1, -1, -1):
            row = self.B.adj[k] & S
            options = []
            weights = []
            for v in iter_bits(row):
                w = self.table[S ^ (1 << v)]
                if w:
                    options.append(v)
                    weights.append(w)
            total = sum(weights)
            pick = rng.randrange(total)
            acc = 0
            for v, w in zip(options, weights):
                acc += w
                if pick < acc:
                    sigma[k] = v
                    S ^= 1 << v
                    break
        return Matching(sigma)


def apply_switch(B: BipartiteGraph, m: Matching, u1: int, u2: int, u3: int) -> Matching:
    """The (u1,u2,u3)-switch: rotate the images of three left vertices."""
    if len({u1, u2, u3}) != 3:
        raise SwitchIneligible("switch needs three distinct left vertices")
    s = m.sigma
    if not (B.has_edge(u2, s[u1]) and B.has_edge(u3, s[u2]) and B.has_edge(u1, s[u3])):
        raise SwitchIneligible(f"required edges absent for triple ({u1},{u2},{u3})")
    out = list(s)
    out[u1], out[u2], out[u3] = s[u3], s[u1], s[u2]
    return Matching(out)


def _adj_bool(B: BipartiteGraph) -> np.ndarray:
    return bit_matrix(B.adj, B.nr).astype(np.bool_)


def default_steps(n: int) -> int:
    """Switch-chain proposals for n left vertices: 50 n log n."""
    return max(1, int(50 * n * math.log(max(n, 2))))


def _run_chain(kernel, adj, sigma, steps: int, gen: np.random.Generator) -> None:
    """Feed ``steps`` proposals to ``kernel(adj, sigma, trips)`` chunk by chunk."""
    n = len(adj)
    done = 0
    while done < steps:
        chunk = min(_CHUNK, steps - done)
        trips = gen.integers(0, n, size=(chunk, 3), dtype=np.int64)
        kernel(adj, sigma, trips)
        done += chunk


def sample_switch_chain(B: BipartiteGraph, steps: int, rng, start: Matching | None = None) -> Matching:
    """Run the lazy switch chain for ``steps`` proposals and return the state."""
    if start is None:
        start = find_perfect_matching(B)
        if start is None:
            raise NoMatching("host has no perfect matching")
    if B.nl < 3 or steps <= 0:
        return Matching(list(start.sigma))
    gen = np.random.Generator(np.random.PCG64(rng.getrandbits(63)))
    sigma = list(start.sigma)
    _run_chain(_chain_rows, B.adj, sigma, steps, gen)
    return Matching(sigma)


def sample_switch_chain_many(B: BipartiteGraph, samples: int, steps: int, rng) -> list[tuple[int, ...]]:
    """Draw ``samples`` states, each from a fresh chain of length ``steps``."""
    start = find_perfect_matching(B)
    if start is None:
        raise NoMatching("host has no perfect matching")
    # Bool matrix until ROADMAP 2(a), which waits on item 1: the benchmark keeps
    # every draw, so a faster chain runs more passes and lifts sampler-oracle's
    # peak_rss_mb past its 0.1 bound: on `_chain_rows` it read 528 -> 2671
    # verified/s but 43.97 -> 48.61 MB (+10.6 %).  Move it with the benchmark fix.
    adj = _adj_bool(B)
    gen = np.random.Generator(np.random.PCG64(rng.getrandbits(63)))
    base = np.array(start.sigma, dtype=np.int64)
    out = []
    for _ in range(samples):
        sigma = base.copy()
        if B.nl >= 3:
            _run_chain(_chain_python, adj, sigma, steps, gen)
        out.append(tuple(int(x) for x in sigma))
    return out


def matching_diagnostics(B: BipartiteGraph, sampler: str, trials: int, rng,
                         steps: int | None = None) -> MatchingStats:
    """Empirical per-edge inclusion frequencies of ``trials`` perfect
    matchings of B, drawn exactly or by the switch chain at ``steps``
    proposals each (``default_steps`` when None)."""
    if sampler not in ("exact", "switch-chain"):
        raise BadParams("sampler must be 'exact' or 'switch-chain'")
    if trials < 1:
        raise BadParams(f"trials must be at least 1, got {trials}")
    if steps is not None and steps < 0:
        raise BadParams(f"steps must not be negative, got {steps}")
    n = B.nl
    if sampler == "exact":
        ex = ExactUniformSampler(B)
        draws = [ex.sample(rng).as_tuple() for _ in range(trials)]
    else:
        draws = sample_switch_chain_many(B, trials, default_steps(n) if steps is None else steps, rng)

    counts: dict[tuple[int, int], int] = {}
    for sig in draws:
        for u, v in enumerate(sig):
            counts[(u, v)] = counts.get((u, v), 0) + 1
    freqs = {e: c / trials for e, c in counts.items()}

    return MatchingStats(samples=trials, edge_frequencies=freqs)
