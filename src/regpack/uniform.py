"""Preprocessing pipeline that turns a near-equiregular pattern into a
valid slender instance and runs it.

Step 1 splits every pattern class into K = max(2, D + 1) classes
independent in the pattern square, D its largest degree inside one class
(Hajnal-Szemeredi; the paper's (k+1)^2 * Delta_R is the worst case of D + 1),
so each refined pair is a matching.
Step 2 refines the host classes at the refined pattern-class sizes,
routing the few vertices whose initial candidacy degrees stray outside
the (d0 +- 2 eps) window into classes where they keep enough candidates,
and trims the candidacy graph to the window.  Step 3 runs the slender
algorithm at the sharpened tolerance min(eps^(1/3), 0.5), its rounds after
the first at the clamp ``slender.XI``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coloring import hs_equitable_coloring
from .errors import (
    EmbedFailure,
    FailureType1,
    NotNearEquiregular,
    NotSuperRegular,
    RetriesExhausted,
    TooFewRuns,
)
from .graphs import (
    BipartiteGraph,
    LabeledGraph,
    PartitionedGraph,
    blow_up,
    candidacy_rows,
    iter_bits,
    pair_view,
    popcount,
    square,
)
from .params import ParamSet
from .regularity import check_near_equiregular, pipeline_certificate, window
from .slender import SlenderInput, run_slender


@dataclass
class UniformEmbedResult:
    phi: dict[int, int]
    Y_classes: list[list[int]]
    U_classes: list[list[int]]
    F: list[BipartiteGraph]
    K: int
    attempts: int = 1


def square_slices(H: PartitionedGraph) -> tuple[list[LabeledGraph], int]:
    """Each class's slice of the pattern square, and the K = max(2, D + 1) they admit."""
    H2 = square(H.graph)
    slices = [LabeledGraph(len(cls), pair_view(H2.adj, cls, cls).edges())
              for cls in H.partition.classes]
    return slices, max(2, 1 + max(sub.max_degree() for sub in slices))


def refine_pattern(H: PartitionedGraph, slices: list[LabeledGraph], K: int, rng) -> list[list[int]]:
    """Step 1: split each class into K classes independent in its square slice.

    Returns Y_classes in per-block order, larger classes first inside
    each block.
    """
    Y_classes: list[list[int]] = []
    for cls, sub in zip(H.partition.classes, slices):
        col = hs_equitable_coloring(sub, K - 1, rng)
        Y_classes.extend([sorted(cls[a] for a in blk) for blk in col.classes])
    return Y_classes


def refine_host(G: PartitionedGraph, P_host: LabeledGraph, A0: list[BipartiteGraph | None],
                Y_classes: list[list[int]], beta_mat, d0: float, eps: float, rng):
    """Step 2: refine host classes to the pattern-class sizes and trim A0.

    Returns (U_classes, A0_star) where A0_star[j] is the candidacy pair
    on (Y_j, U_j).  Raises FailureType1 when the refined certificates
    fail ``retry_cap`` times.
    """
    r = G.reduced.r
    K = len(Y_classes) // r
    eps_out = eps ** (1 / 3)
    for _attempt in range(ParamSet.retry_cap):
        U_classes: list[list[int]] = [[] for _ in Y_classes]
        A0_star: list[BipartiteGraph] = [None] * len(Y_classes)  # type: ignore
        feasible = True
        for i in range(r):
            if not _refine_one_block(G, A0[i], Y_classes, U_classes, A0_star,
                                     i, K, d0, eps, rng):
                feasible = False
                break
        if not feasible:
            continue
        if _refined_events_hold(G, P_host, beta_mat, U_classes, A0_star, K, d0, eps_out):
            return U_classes, A0_star
    raise FailureType1(f"host refinement failed to certify after {ParamSet.retry_cap} attempts")


def _refine_one_block(G, Ai, Y_classes, U_classes, A0_star, i, K, d0, eps, rng) -> bool:
    Vi = list(G.partition.classes[i])
    block = list(range(i * K, (i + 1) * K))
    m = max(len(Y_classes[j]) for j in block)
    # window for exceptional-vertex detection, with the small-class floor
    width = window(2 * eps, d0, m)
    routed: dict[int, int] = {}
    if Ai is None:
        rest = list(Vi)
    else:
        xpos = {p: a for a, p in enumerate(Ai.left_ids)}
        vpos = {v: b for b, v in enumerate(Ai.right_ids)}
        cols = Ai.right_adj()
        ymasks = [sum(1 << xpos[p] for p in Y_classes[j]) for j in block]
        rest = []
        exceptional = []
        degs: dict[int, list[int]] = {}
        for v in Vi:
            col = cols[vpos[v]]
            dd = [popcount(col & ym) for ym in ymasks]
            degs[v] = dd
            if any(abs(x - d0 * m) > width + 1e-9 for x in dd):
                exceptional.append(v)
            else:
                rest.append(v)
        if len(exceptional) > K * eps * len(Vi):
            raise NotSuperRegular(
                f"exceptional set of class {i} has {len(exceptional)} vertices; "
                f"initial candidacy cannot be ({eps},{d0})-super-regular")
        counts = [0] * K
        for v in exceptional:
            for jj, j in enumerate(block):
                if degs[v][jj] > d0 * m - width - 1e-9 and counts[jj] < len(Y_classes[j]):
                    routed[v] = j
                    counts[jj] += 1
                    break
            else:
                return False
    rng.shuffle(rest)
    pos = 0
    for j in block:
        cls = [v for v, tgt in routed.items() if tgt == j]
        take = len(Y_classes[j]) - len(cls)
        cls.extend(rest[pos:pos + take])
        pos += take
        U_classes[j] = cls
    if pos != len(rest):
        return False
    for j in block:
        yj, uj = Y_classes[j], U_classes[j]
        if Ai is None:
            Fj = BipartiteGraph(len(yj), len(uj), left_ids=yj, right_ids=uj)
            Fj.adj = [(1 << len(uj)) - 1] * len(yj)
        else:
            Fj = Ai.subgraph([xpos[p] for p in yj], [vpos[v] for v in uj])
            # trim overfull host-side degrees into the window, dropping
            # highest-index pattern neighbours first
            allowed = math.floor(d0 * m + width + 1e-9)
            cols = Fj.right_adj()
            for b in range(len(uj)):
                excess = popcount(cols[b]) - allowed
                for a in reversed(list(iter_bits(cols[b]))):
                    if excess <= 0:
                        break
                    Fj.adj[a] &= ~(1 << b)
                    excess -= 1
        A0_star[j] = Fj
    return True


def _refined_events_hold(G, P_host, beta_mat, U_classes, A0_star, K, d0, eps_out) -> bool:
    # host then reserve, each against its own density matrix; a host without
    # densities is not re-certified
    tracks = ([(G.graph, G.densities)] if G.densities else []) + [(P_host, beta_mat)]
    for i, j in G.reduced.edges():
        for a in range(i * K, (i + 1) * K):
            for b in range(j * K, (j + 1) * K):
                ua, ub = U_classes[a], U_classes[b]
                if len(ua) < 2 or len(ub) < 2:
                    continue
                for graph, dens in tracks:
                    if not pipeline_certificate(pair_view(graph.adj, ua, ub), eps_out,
                                                float(dens[i][j])):
                        return False
    for Fj in A0_star:
        if Fj.nl >= 2 and not pipeline_certificate(Fj, eps_out, d0):
            return False
    return True


def expand_matrix(mat, r: int, K: int) -> list[list[Fraction]]:
    out = [[Fraction(0)] * (K * r) for _ in range(K * r)]
    for i in range(r):
        for j in range(r):
            val = Fraction(mat[i][j]) if mat[i][j] else Fraction(0)
            for a in range(i * K, (i + 1) * K):
                for b in range(j * K, (j + 1) * K):
                    if a != b:
                        out[a][b] = val
    return out


def run_uniform_embed(G: PartitionedGraph, P_host: LabeledGraph, beta_mat,
                      H: PartitionedGraph, kmat, A0: list[BipartiteGraph | None],
                      d0: float, eps: float, C: int, retries: int, rng) -> UniformEmbedResult:
    """Steps 1-3, the whole run tried at most ``retries`` times; returns the
    embedding bundle.  ``eps`` is the host-refinement tolerance; slender
    runs at min(eps^(1/3), 0.5), its rounds after the first at the clamp
    ``slender.XI``.  ``C`` is the near-equiregularity slack."""
    r = G.reduced.r
    ok, violations = check_near_equiregular(H, kmat, C)
    if not ok:
        raise NotNearEquiregular("; ".join(violations[:4]))
    slices, K = square_slices(H)
    last: Exception | None = None
    for attempt in range(1, retries + 1):
        try:
            Y_classes = refine_pattern(H, slices, K, rng)
            U_classes, A0_star = refine_host(G, P_host, A0, Y_classes, beta_mat, d0, eps, rng)
            s = SlenderInput(
                R_star=blow_up(H.reduced, K),
                Y_classes=Y_classes,
                U_classes=U_classes,
                G_host=G.graph,
                P_host=P_host,
                H=H.graph,
                A0=A0_star,
                d_mat=expand_matrix(G.densities, r, K),
                beta_mat=expand_matrix(beta_mat, r, K),
                d0=d0,
                eps=min(eps ** (1 / 3), 0.5),
            )
            out = run_slender(s, rng)
            res = UniformEmbedResult(phi=out.phi, Y_classes=Y_classes, U_classes=U_classes,
                                     F=out.F, K=K, attempts=attempt)
            _assert_result(G, H, A0, res)
            return res
        except EmbedFailure as exc:
            last = exc
    raise RetriesExhausted(
        f"uniform embedding failed {retries} times; last: {last}") from last


def _assert_result(G: PartitionedGraph, H: PartitionedGraph, A0, res: UniformEmbedResult) -> None:
    K = res.K
    # partition bookkeeping
    for j, (yj, uj) in enumerate(zip(res.Y_classes, res.U_classes)):
        blk = j // K
        if not set(yj) <= set(H.partition.classes[blk]):
            raise AssertionError(f"pattern class {j} escapes its block")
        if not set(uj) <= set(G.partition.classes[blk]):
            raise AssertionError(f"host class {j} escapes its block")
        if len(yj) != len(uj):
            raise AssertionError(f"class {j} sizes disagree")
    # initial-candidacy membership
    for p, row in candidacy_rows(A0).items():
        if not (row >> res.phi[p]) & 1:
            raise AssertionError(f"phi({p}) violates the initial candidacy")


# ---------------------------------------------------------------------------
# Monte-Carlo diagnostics over repeated runs

MIN_DIAGNOSTIC_RUNS = 30


def b_diagnostics(runs: list[UniformEmbedResult], H: PartitionedGraph, G: PartitionedGraph,
                  kmat, b1_probes: list[tuple[int, list[int]]] | None = None) -> dict:
    """Statistics of the embedding distribution; reported, never asserted.

    ``b1_probes`` are (host vertex, host subset) pairs; for each, the
    report compares the mean embedded-neighbour count inside the subset
    with k|S|/(d n).
    """
    if len(runs) < MIN_DIAGNOSTIC_RUNS:
        raise TooFewRuns(f"diagnostics need at least {MIN_DIAGNOSTIC_RUNS} runs, got {len(runs)}")
    vclass = G.partition.class_of()
    report: dict = {"runs": len(runs)}
    if b1_probes:
        out = []
        for v, S in b1_probes:
            i = vclass[v]
            j = vclass[S[0]]
            n = len(G.partition.classes[j])
            k_ij = kmat[i][j]
            d_ij = float(G.densities[i][j])
            Sset = set(S)
            counts = []
            for res in runs:
                inv = {hv: p for p, hv in res.phi.items()}
                x = inv[v]
                cnt = sum(1 for y in H.graph.neighbors(x) if res.phi[y] in Sset)
                counts.append(cnt)
            mean = sum(counts) / len(counts)
            se = (sum((c - mean) ** 2 for c in counts) / max(len(counts) - 1, 1)) ** 0.5 \
                / math.sqrt(len(counts))
            expected = k_ij * len(S) / (d_ij * n)
            out.append({"v": v, "S_size": len(S), "mean": mean, "se": se,
                        "expected": expected,
                        "ratio": mean / expected if expected else None})
        report["b1"] = out
    return report


