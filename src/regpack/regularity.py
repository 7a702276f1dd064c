"""Computable certificates for regular and super-regular pairs.

Exact testing of the subset-density definition is infeasible, so the
canonical acceptance test is the codegree criterion: writing d for the
empirical density of G[A,B], count the pairs {x,x'} of A whose degrees
exceed (d-eps)|B| and whose codegree is below (d+eps)^2|B|; if more
than (1-5*eps)/2 * |A|^2 pairs qualify, the pair is certified regular
at eps^(1/6).  Every certificate reads one 0/1 bit matrix of the pair:
its row and column sums are the degrees, checked exactly against their
windows on both sides, and the codegrees of all left pairs are counted
exactly, at every size, from its product with its own transpose
(`codegree`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParams,
    InfeasibleTargetSets,
    RetriesExhausted,
    SplitRetriesExhausted,
)
from .graphs import BipartiteGraph, PartitionedGraph, bit_matrix, iter_bits, mask_of
from .params import ParamSet

# Degree windows are floored at this many binomial standard deviations plus
# one: below ~(4/eps)^2 vertices the fluctuation scale sqrt(n) exceeds eps*n,
# and a fixed-fraction window would reject honest instances.
SD_FLOOR = 4.0
# float-boundary slack so window checks like deg <= (d+eps)*n are stable
# when the bound is hit exactly
_SLACK = 1e-9


@dataclass
class RegularityReport:
    degree_ok: bool
    worst_offender: tuple[str, int, int] | None
    codegree_ok: bool
    codegree_bad_fraction: float

    @property
    def ok(self) -> bool:
        return self.degree_ok and self.codegree_ok


def codegree(M: np.ndarray, eps: float) -> tuple[float, bool]:
    """Bad-pair fraction and verdict of the codegree criterion on the 0/1
    bit matrix ``M`` of a pair, at its empirical density.

    The criterion carries its own applicability condition |A| > 2/eps;
    below it, and at eps <= 0, it certifies nothing either way and reads
    (0.0, True).
    """
    nl, nr = M.shape
    if eps <= 0 or not nl > 2 / eps:
        return 0.0, True
    degs = M.sum(axis=1)
    d_emp = int(degs.sum()) / (nl * nr)
    deg_lo = (d_emp - eps) * nr - _SLACK
    codeg_hi = (d_emp + eps) ** 2 * nr + _SLACK
    rows = M[degs > deg_lo].astype(np.float32)
    # float32 sums of 0/1 products are exact below 2**24; the counts are
    # compared as integers, since a float32 array would round codeg_hi
    co = (rows @ rows.T).astype(np.int64)
    good = int(np.count_nonzero(np.triu(co < codeg_hi, 1)))
    total = nl * (nl - 1) // 2
    bad = 1.0 - good / total
    return bad, (1.0 - bad) * total > 0.5 * (1 - 5 * eps) * nl * nl


def super_regularity_certificate(B: BipartiteGraph, eps: float, d: float) -> RegularityReport:
    """Certificate for (eps, d)-super-regularity of a bipartite pair.

    degree_ok: every vertex degree lies in (d +- eps) * opposite size.
    codegree_ok: the |D| > (1-5 eps)/2 * |A|^2 pair count holds, with D
    evaluated at the empirical density.
    """
    nl, nr = B.nl, B.nr
    if nl < 2 or nr < 2:
        raise BadParams("certificate needs both sides of size >= 2")
    M = bit_matrix(B.adj, nr)
    degree_ok = True
    worst = None
    worst_gap = -1.0
    for side, degs, n in (("left", M.sum(axis=1), nr), ("right", M.sum(axis=0), nl)):
        gaps = np.abs(degs - d * n)
        over = gaps > eps * n + _SLACK
        if over.any():
            degree_ok = False
            # the first vertex of largest gap; left wins ties
            v = int(np.argmax(np.where(over, gaps, -1.0)))
            if gaps[v] > worst_gap:
                worst_gap, worst = gaps[v], (side, v, int(degs[v]))
    bad_fraction, codegree_ok = codegree(M, eps)

    return RegularityReport(degree_ok=degree_ok, worst_offender=worst,
                            codegree_ok=codegree_ok, codegree_bad_fraction=bad_fraction)


def window(eps: float, d: float, n: int) -> float:
    """Half-width of the degree window around d*n: eps*n with the ``SD_FLOOR`` floor."""
    return max(eps * n, SD_FLOOR * math.sqrt(max(d * (1 - d), 0.0) * n) + 1.0)


def pipeline_certificate(B: BipartiteGraph, eps: float, d: float) -> bool:
    """Degree+codegree check with a small-side fluctuation floor (``window``).

    Identical to the plain certificate once eps*|side| dominates the
    binomial scale sqrt(d(1-d)|side|); on the few-dozen-vertex classes
    the pipeline refines into, the floor keeps honest randomness from
    tripping the window.  Used for internal certify-and-retry loops; the
    public certificate stays literal.
    """
    nl, nr = B.nl, B.nr
    if nl < 2 or nr < 2:
        return True
    M = bit_matrix(B.adj, nr)
    if (np.abs(M.sum(axis=1) - d * nr) > window(eps, d, nr) + _SLACK).any() or \
            (np.abs(M.sum(axis=0) - d * nl) > window(eps, d, nl) + _SLACK).any():
        return False
    return not 1 - 5 * eps > 0 or codegree(M, eps)[1]


def random_split(B: BipartiteGraph, d: float, beta: float, rng,
                 eps: float = 0.05) -> tuple[BipartiteGraph, BipartiteGraph]:
    """Split B into a beta-dense reserve P and the remainder B - P.

    Each edge joins P independently with probability beta/d; the draw is
    repeated (fresh randomness, up to ``retry_cap`` tries) until both parts
    certify at (2*eps, beta) and (2*eps, d - beta) respectively, with
    the usual small-side fluctuation floor on the degree windows.
    """
    if not (0 < beta <= d):
        raise BadParams("need 0 < beta <= d")
    p = beta / d
    last = None
    for _ in range(ParamSet.retry_cap):
        P = BipartiteGraph(B.nl, B.nr, left_ids=B.left_ids, right_ids=B.right_ids)
        for u, row in enumerate(B.adj):
            keep = 0
            for v in iter_bits(row):
                if rng.random() < p:
                    keep |= 1 << v
            P.adj[u] = keep
        rest = BipartiteGraph(B.nl, B.nr, left_ids=B.left_ids, right_ids=B.right_ids)
        rest.adj = [r & ~k for r, k in zip(B.adj, P.adj)]
        ok_p = pipeline_certificate(P, 2 * eps, beta)
        ok_r = pipeline_certificate(rest, 2 * eps, d - beta)
        if ok_p and ok_r:
            return P, rest
        last = (ok_p, ok_r)
    raise SplitRetriesExhausted(f"random_split failed {ParamSet.retry_cap} times; last reports: "
                                f"P.ok={last[0]} rest.ok={last[1]}")


def check_near_equiregular(G: PartitionedGraph, kmat, C: int) -> tuple[bool, list[str]]:
    """Check the (R, k, C)-near-equiregular conditions, reporting violations.

    Class sizes must agree within C, and on every reduced-graph edge the
    pair must be k_{i,j}-regular except for at most C*k_{i,j} vertices of
    degree k_{i,j}+1.
    """
    violations: list[str] = []
    sizes = G.partition.sizes()
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            if abs(sizes[i] - sizes[j]) > C:
                violations.append(f"class sizes |V_{i}|={sizes[i]} and |V_{j}|={sizes[j]} differ by more than {C}")
    for i, j in G.reduced.edges():
        k = kmat[i][j]
        pair = G.pair_view(i, j)
        M = bit_matrix(pair.adj, pair.nr)
        over = 0
        for degs, ids in ((M.sum(axis=1), pair.left_ids), (M.sum(axis=0), pair.right_ids)):
            for idx, deg in enumerate(degs.tolist()):
                if deg == k:
                    continue
                if deg == k + 1:
                    over += 1
                else:
                    violations.append(f"vertex {ids[idx]} has degree {deg} in pair ({i},{j}), expected {k} or {k + 1}")
        if over > C * k:
            violations.append(f"pair ({i},{j}) has {over} vertices of degree {k + 1}, cap is {C * k}")
    return (not violations), violations


def restrict_super_regular(B: BipartiteGraph, constrained: dict[int, int], d0: float,
                           rng, eps: float = 0.05) -> BipartiteGraph:
    """Thin B so every left vertex keeps exactly ceil(d0 * |B|) neighbours.

    ``constrained`` maps a small set of left vertices to allowed-neighbour
    bitmasks; their surviving neighbours are drawn from there.  Redrawn
    (up to ``retry_cap`` times) until the certificate passes at eps^(1/3).
    """
    nl, nr = B.nl, B.nr
    target = math.ceil(d0 * nr)
    pools: list[list[int]] = []
    for u in range(nl):
        allowed = B.adj[u]
        if u in constrained:
            allowed &= constrained[u]
        pool = list(iter_bits(allowed))
        if len(pool) < target:
            raise InfeasibleTargetSets(
                f"left vertex {u} has only {len(pool)} allowed neighbours, needs {target}")
        pools.append(pool)
    for _ in range(ParamSet.retry_cap):
        out = BipartiteGraph(nl, nr, left_ids=B.left_ids, right_ids=B.right_ids)
        for u, pool in enumerate(pools):
            out.adj[u] = mask_of(rng.sample(pool, target))
        rep = super_regularity_certificate(out, eps ** (1 / 3), d0)
        if rep.ok:
            return out
    raise RetriesExhausted(f"restrict_super_regular failed to certify after {ParamSet.retry_cap} redraws")
