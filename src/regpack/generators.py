"""Seeded instance generators: hosts, templates, and whole instances.

Hosts meant to carry a tight certificate are built as random regular
bipartite graphs (circulant offsets destroyed by degree-preserving
2-switches) and resampled until the certificate passes, so the claimed
(eps, d) is a verified property rather than an expectation.  The switch
loop draws its indices with CPython's own ``randrange`` rejection loop on
``getrandbits``, inlined, so a seed gives the same graphs, and leaves the
generator in the same state, as one ``randrange`` call per draw did.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from .errors import BadParams, RetriesExhausted
from .graphs import (
    BipartiteGraph,
    LabeledGraph,
    PartitionedGraph,
    ReducedGraph,
    VertexPartition,
)
from .regularity import super_regularity_certificate


def random_regular_bipartite(n: int, k: int, rng) -> BipartiteGraph:
    """k-regular bipartite graph on n+n vertices, randomized by 2-switches.

    Each edge index is ``rng.randrange(n * k)`` written out: draw
    ``getrandbits(width)`` until the value is below ``n * k``.
    """
    if not 0 <= k <= n:
        raise BadParams(f"need 0 <= k <= n, got k={k}, n={n}")
    offsets = rng.sample(range(n), k)
    B = BipartiteGraph(n, n)
    if k == 0:
        return B
    bit = [1 << v for v in range(n)]
    rows = [sum(bit[(u + o) % n] for o in offsets) for u in range(n)]
    # edge e is (left[e], right[e]), listed as B.edges() lists them;
    # a switch keeps both left ends and swaps the right ones
    left = [u for u in range(n) for _ in range(k)]
    right = [v for u in range(n) for v in sorted((u + o) % n for o in offsets)]
    getrandbits = rng.getrandbits
    size = n * k
    width = size.bit_length()
    for _ in range(10 * n * k):
        i = getrandbits(width)
        while i >= size:
            i = getrandbits(width)
        j = getrandbits(width)
        while j >= size:
            j = getrandbits(width)
        a = left[i]
        c = left[j]
        if a == c:
            continue
        b = right[i]
        d = right[j]
        if b == d or rows[a] & bit[d] or rows[c] & bit[b]:
            continue
        flip = bit[b] | bit[d]
        rows[a] ^= flip
        rows[c] ^= flip
        right[i] = d
        right[j] = b
    B.adj = rows
    return B


def near_regular_bipartite(n: int, d: float, rng) -> BipartiteGraph:
    """Degrees in {floor(dn), floor(dn)+1} matching density d as closely as possible.

    The fractional part is realized by a partial matching on the
    complement, so no vertex on either side exceeds floor(dn)+1.
    """
    from .matching import find_perfect_matching

    lo = math.floor(d * n)
    extra = round((d * n - lo) * n)
    B = random_regular_bipartite(n, lo, rng)
    if extra == 0:
        return B
    # the complement is (n - lo)-regular, hence has a perfect matching;
    # a random slice of one realizes the fractional part
    comp = BipartiteGraph(n, n)
    full = (1 << n) - 1
    comp.adj = [full & ~row for row in B.adj]
    m = find_perfect_matching(comp)
    if m is None:
        raise RetriesExhausted(f"complement matching missing for n={n}, d={d}")
    for u in rng.sample(range(n), extra):
        B.add_edge(u, m.sigma[u])
    return B


def certified_bipartite_host(n: int, d: float, eps: float, rng) -> BipartiteGraph:
    """Bipartite host that passes the (eps, d)-super-regularity certificate.

    Degrees are drawn from {floor(dn), floor(dn)+1} clipped to the
    (d +- eps) window, so tight windows around a non-integer dn stay
    reachable.
    """
    lo = math.floor(d * n)

    def fits(k):
        return abs(k - d * n) <= eps * n + 1e-9

    for _ in range(64):
        if fits(lo) and fits(lo + 1):
            B = near_regular_bipartite(n, d, rng)
        elif fits(round(d * n)):
            B = random_regular_bipartite(n, round(d * n), rng)
        else:
            raise BadParams(f"no integer degree lies in the ({eps},{d}) window at n={n}")
        if super_regularity_certificate(B, eps, d).ok:
            return B
    raise RetriesExhausted(f"no certified ({eps},{d}) host of size {n} after 64 tries")


def host_complete(n: int) -> LabeledGraph:
    return LabeledGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def host_gnp(n: int, p: float, rng) -> LabeledGraph:
    G = LabeledGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                G.add_edge(u, v)
    return G


def host_superregular(R: ReducedGraph, class_size: int, densities, eps: float, rng,
                      sizes: list[int] | None = None) -> PartitionedGraph:
    """Partitioned host whose R-pairs are certified super-regular.

    ``densities`` is an r x r matrix (numbers or Fractions); entries off
    E(R) are ignored.  ``sizes`` optionally overrides per-class sizes.
    """
    r = R.r
    if sizes is None:
        sizes = [class_size] * r
    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    n_total = bounds[-1]
    classes = [list(range(bounds[i], bounds[i + 1])) for i in range(r)]
    G = LabeledGraph(n_total)
    dmat = [[Fraction(0)] * r for _ in range(r)]
    for i, j in R.edges():
        d = float(densities[i][j])
        dmat[i][j] = dmat[j][i] = Fraction(densities[i][j]).limit_denominator(10 ** 6)
        ni, nj = sizes[i], sizes[j]
        if ni == nj:
            B = certified_bipartite_host(ni, d, eps, rng)
        else:
            # unequal sides: pad the smaller side virtually, then drop it
            m = max(ni, nj)
            B = certified_bipartite_host(m, d, eps, rng).subgraph(range(ni), range(nj))
        G.add_pair(B.adj, classes[i], classes[j])
    return PartitionedGraph(G, VertexPartition.from_lists(classes), R, densities=dmat)


def random_tree(n: int, max_degree: int, rng) -> LabeledGraph:
    """Uniform-ish random tree built by degree-capped random attachment."""
    if n < 1:
        raise BadParams("tree needs at least one vertex")
    if n > 1 and max_degree < 2:
        raise BadParams("trees on >= 2 vertices need max_degree >= 2")
    G = LabeledGraph(n)
    deg = [0] * n
    available = [0]
    order = list(range(1, n))
    rng.shuffle(order)
    for v in order:
        u = available[rng.randrange(len(available))]
        G.add_edge(u, v)
        deg[u] += 1
        deg[v] += 1
        if deg[u] >= max_degree:
            available.remove(u)
        available.append(v)
    return G


def cycle_factor(n: int, lengths: list[int]) -> LabeledGraph:
    """Vertex-disjoint cycles with the given lengths, spanning n vertices."""
    if sum(lengths) != n:
        raise BadParams(f"cycle lengths sum to {sum(lengths)}, need {n}")
    if any(l < 3 for l in lengths):
        raise BadParams("cycles need length >= 3")
    G = LabeledGraph(n)
    base = 0
    for l in lengths:
        for i in range(l):
            G.add_edge(base + i, base + (i + 1) % l)
        base += l
    return G


def random_bounded_degree_graph(n: int, max_degree: int, e_target: int, rng) -> LabeledGraph:
    """``e_target`` random edges on n vertices of degree at most
    ``max_degree``; a target that no such simple graph meets is refused,
    and so is a draw whose random greedy gets stuck below it."""
    if max_degree < 0:
        raise BadParams(f"max_degree must not be negative, got {max_degree}")
    if e_target < 0:
        raise BadParams(f"e_target must not be negative, got {e_target}")
    room = min(n * max_degree // 2, n * (n - 1) // 2)
    if e_target > room:
        raise BadParams(f"cannot place {e_target} edges on {n} vertices of degree at most "
                        f"{max_degree}: at most {room} fit")
    G = LabeledGraph(n)
    deg = [0] * n
    tries = 50 * max(e_target, 1)
    while G.num_edges() < e_target and tries > 0:
        tries -= 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or G.has_edge(u, v) or deg[u] >= max_degree or deg[v] >= max_degree:
            continue
        G.add_edge(u, v)
        deg[u] += 1
        deg[v] += 1
    if G.num_edges() < e_target:
        raise RetriesExhausted(f"placed {G.num_edges()} of {e_target} edges on {n} vertices "
                               f"of degree at most {max_degree}")
    return G


def tree_family_gl(n: int, max_degree: int, rng) -> list[LabeledGraph]:
    """Trees T_1..T_n with |T_i| = i, each padded to n vertices.

    Vertices i..n-1 of the i-th tree are isolated, so every member lives
    on a common n-vertex set.
    """
    fam = []
    for i in range(1, n + 1):
        T = random_tree(i, max_degree, rng) if i > 1 else LabeledGraph(1)
        G = LabeledGraph(n)
        for u, v in T.edges():
            G.add_edge(u, v)
        fam.append(G)
    return fam


def bipartite_union_templates(r: int, class_size: int, k: int, count: int, rng,
                              R: ReducedGraph | None = None,
                              sizes: list[int] | None = None) -> list[PartitionedGraph]:
    """Templates whose pairs are unions of k random perfect matchings.

    Each template is (R, k, 0)-near-equiregular when class sizes agree;
    with ragged sizes the pair graphs are matchings-of-min-size overlays
    and callers should re-check.
    """
    if R is None:
        R = ReducedGraph(r, [(i, j) for i in range(r) for j in range(i + 1, r)])
    if sizes is None:
        sizes = [class_size] * r
    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    classes = [list(range(bounds[i], bounds[i + 1])) for i in range(r)]
    out = []
    for _ in range(count):
        G = LabeledGraph(bounds[-1])
        for i, j in R.edges():
            ni, nj = sizes[i], sizes[j]
            if ni == nj:
                rows = random_regular_bipartite(ni, k, rng).adj
            else:
                # ragged sizes: k layers of min-size matchings, resampled on collision
                m = min(ni, nj)
                rows = [0] * ni
                for _layer in range(k):
                    for _try in range(50):
                        perm_i = rng.sample(range(ni), m)
                        perm_j = rng.sample(range(nj), m)
                        layer = list(zip(perm_i, perm_j))
                        if not any(rows[a] >> b & 1 for a, b in layer):
                            for a, b in layer:
                                rows[a] |= 1 << b
                            break
            G.add_pair(rows, classes[i], classes[j])
        out.append(PartitionedGraph(G, VertexPartition.from_lists(classes, bounds[-1]), R))
    return out


# ---------------------------------------------------------------------------
# instance files


def write_instance(path, host: PartitionedGraph, templates: list[PartitionedGraph],
                   k_mats: list[list[list[int]]], params: dict,
                   lam: list[list[int]] | None = None) -> None:
    """One JSON instance drives pack/verify/diagnose identically."""
    payload = {
        "host": {
            "n": host.graph.n,
            "edges": host.graph.edges(),
            "partition": [list(c) for c in host.partition.classes],
            "reduced_edges": host.reduced.edges(),
            "densities": [[str(host.densities[i][j]) if host.densities else "0"
                           for j in range(host.reduced.r)] for i in range(host.reduced.r)],
        },
        "templates": [
            {
                "n": t.graph.n,
                "edges": t.graph.edges(),
                "partition": [list(c) for c in t.partition.classes],
                "k_matrix": k_mats[idx],
            }
            for idx, t in enumerate(templates)
        ],
        "lambda": lam or [],
        "params": params,
    }
    Path(path).write_text(json.dumps(payload))


def read_json(path):
    """The JSON value in the file at ``path``.

    An unreadable path or a file that is not JSON raises `BadParams`
    naming the path.
    """
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise BadParams(f"{path}: cannot read: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise BadParams(f"{path}: not valid JSON: {exc}") from None


@contextmanager
def _reading(path, where: str):
    """Turn a missing key or a wrong type met while reading ``where`` of the
    file at ``path`` into `BadParams` naming both."""
    try:
        yield
    except KeyError as exc:
        raise BadParams(f"{path}: {where} has no key {exc}") from None
    except (TypeError, ValueError, IndexError, AttributeError) as exc:
        raise BadParams(f"{path}: malformed {where}: {exc}") from None


def read_instance(path):
    """The instance that `write_instance` wrote to ``path``.

    Returns (host, templates, k_mats, params, lambda).  An unreadable or
    malformed file raises `BadParams` naming the path and the key.
    """
    data = read_json(path)
    with _reading(path, "instance"):
        h = data["host"]
        with _reading(path, "host"):
            R = ReducedGraph(len(h["partition"]), [tuple(e) for e in h["reduced_edges"]])
            host_graph = LabeledGraph(h["n"], [tuple(e) for e in h["edges"]])
            dens = [[Fraction(x) for x in row] for row in h["densities"]]
            if len(dens) != R.r or any(len(row) != R.r for row in dens):
                raise BadParams(f"{path}: host key 'densities' must be a {R.r}x{R.r} matrix")
            host = PartitionedGraph(host_graph, VertexPartition.from_lists(h["partition"], h["n"]),
                                    R, densities=dens)
        templates = []
        k_mats = []
        for i, t in enumerate(data["templates"]):
            where = f"templates[{i}]"
            with _reading(path, where):
                tg = LabeledGraph(t["n"], [tuple(e) for e in t["edges"]])
                tp = VertexPartition.from_lists(t["partition"], t["n"])
                templates.append(PartitionedGraph(tg, tp, R))
                km = t["k_matrix"]
                if len(km) != R.r or any(len(row) != R.r or not all(type(x) is int for x in row)
                                         for row in km):
                    raise BadParams(f"{path}: {where} key 'k_matrix' must be a "
                                    f"{R.r}x{R.r} integer matrix")
                k_mats.append(km)
        lam = [tuple(x) for x in data.get("lambda", [])]
        if any(len(q) != 4 or not all(type(x) is int for x in q) for q in lam):
            raise BadParams(f"{path}: key 'lambda' must hold integer quadruples (i, x, j, y)")
        return host, templates, k_mats, data.get("params", {}), lam
