"""Stacking families into near-equiregular templates and flow-based
degree regularization.

``regularize_pair`` settles the core question exactly: a k-regular
supergraph of a bipartite graph H exists iff the complement network
(source -> V_1 at capacity k - deg, unit non-edges, V_2 -> sink at
capacity k - deg) carries a saturating integral flow, and the flow
edges are precisely the edges to add.  ``stack_family`` composes the
randomized balancing machinery: per-graph class relabelings, a
degree-sorted block partition with random shifts, sequential embeddings
into the complete partite host, then regularization of the union.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import (
    BadParameters,
    BadParams,
    BalanceRetriesExhausted,
    GreedySelectionFailed,
    Infeasible,
    StackEmbedFailure,
)
from .graphs import (
    BipartiteGraph,
    LabeledGraph,
    PartitionedGraph,
    ReducedGraph,
    VertexPartition,
    iter_bits,
    mask_of,
    pair_view,
    popcount,
)
from .regularity import check_near_equiregular


# ---------------------------------------------------------------------------
# max flow


@dataclass
class FlowNetwork:
    """Integer-capacity digraph for Dinic; node 0 is s, node 1 is t."""

    n_nodes: int
    heads: list[int] = field(default_factory=list)
    tails: list[int] = field(default_factory=list)
    caps: list[int] = field(default_factory=list)
    out: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.out:
            self.out = [[] for _ in range(self.n_nodes)]

    def add_arc(self, u: int, v: int, cap: int) -> int:
        idx = len(self.heads)
        self.tails.append(u)
        self.heads.append(v)
        self.caps.append(cap)
        self.out[u].append(idx)
        # residual arc
        self.tails.append(v)
        self.heads.append(u)
        self.caps.append(0)
        self.out[v].append(idx + 1)
        return idx


def max_flow(net: FlowNetwork, s: int = 0, t: int = 1) -> tuple[int, dict[int, int]]:
    """Dinic; returns (value, flow per forward arc index)."""
    caps = list(net.caps)
    n = net.n_nodes
    total = 0
    while True:
        level = [-1] * n
        level[s] = 0
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for e in net.out[u]:
                v = net.heads[e]
                if caps[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    dq.append(v)
        if level[t] < 0:
            break
        it = [0] * n

        def dfs(u: int, pushed: int) -> int:
            if u == t:
                return pushed
            while it[u] < len(net.out[u]):
                e = net.out[u][it[u]]
                v = net.heads[e]
                if caps[e] > 0 and level[v] == level[u] + 1:
                    got = dfs(v, min(pushed, caps[e]))
                    if got:
                        caps[e] -= got
                        caps[e ^ 1] += got
                        return got
                it[u] += 1
            return 0

        while True:
            pushed = dfs(s, 1 << 60)
            if not pushed:
                break
            total += pushed
    flows = {e: net.caps[e] - caps[e] for e in range(0, len(caps), 2) if net.caps[e] - caps[e] > 0}
    return total, flows


def regularize_pair(H: BipartiteGraph, k: int) -> BipartiteGraph:
    """Smallest-change k-regularization: H' >= H with both sides k-regular.

    Saturation of the complement flow at target k is equivalent to the
    existence of any k-regular supergraph, so a single flow decides it.
    On failure `Infeasible` reports the flow value against the demand; it
    carries no cut (``cut`` stays None).
    """
    if H.nl != H.nr:
        raise BadParams("regularization needs equal sides")
    n = H.nl
    if k > n:
        raise Infeasible(f"target degree {k} exceeds side size {n}")
    degs_l = [popcount(row) for row in H.adj]
    cols = H.right_adj()
    degs_r = [popcount(c) for c in cols]
    if max(degs_l, default=0) > k or max(degs_r, default=0) > k:
        raise Infeasible(f"a vertex already exceeds degree {k}")
    net = FlowNetwork(2 + 2 * n)
    left_arc = {}
    mid_arc = {}
    for u in range(n):
        left_arc[u] = net.add_arc(0, 2 + u, k - degs_l[u])
    for v in range(n):
        net.add_arc(2 + n + v, 1, k - degs_r[v])
    for u in range(n):
        for v in range(n):
            if not H.has_edge(u, v):
                mid_arc[(u, v)] = net.add_arc(2 + u, 2 + n + v, 1)
    need = sum(k - d for d in degs_l)
    value, flows = max_flow(net)
    if value != need:
        raise Infeasible(f"max flow {value} < required {need}; no {k}-regular supergraph exists")
    out = H.copy()
    for (u, v), e in mid_arc.items():
        if flows.get(e, 0) > 0:
            out.add_edge(u, v)
    # exactness is the contract: every degree equals k on both sides
    assert all(popcount(row) == k for row in out.adj)
    assert all(popcount(c) == k for c in out.right_adj())
    return out


def regularize_near(H: PartitionedGraph, kmat, C: int, rng=None) -> PartitionedGraph:
    """Near-equiregular supergraph across possibly ragged class sizes.

    Per reduced edge: remove |V_i| - |V_j| vertices of the larger side
    whose pair-neighbourhoods are disjoint, regularize the balanced rest
    by flow, then reattach the removed vertices on k fresh disjoint
    neighbourhoods covering their old ones.
    """
    r = H.reduced.r
    G_out = LabeledGraph(H.graph.n)
    for i, j in H.reduced.edges():
        k = kmat[i][j]
        Vi = list(H.partition.classes[i])
        Vj = list(H.partition.classes[j])
        if len(Vi) < len(Vj):
            Vi, Vj = Vj, Vi
        a = len(Vi) - len(Vj)
        pair = pair_view(H.graph.adj, Vi, Vj)
        if a > 0:
            removed = _disjoint_neighbourhood_set(pair, a, k)
            keep = [u for u in range(len(Vi)) if u not in set(removed)]
        else:
            removed = []
            keep = list(range(len(Vi)))
        sub = pair.subgraph(keep, list(range(len(Vj))))
        reg = regularize_pair(sub, k)
        for ulocal, u in enumerate(keep):
            for v in iter_bits(reg.adj[ulocal]):
                G_out.add_edge(Vi[u], Vj[v])
        if removed:
            used = 0
            taken: set[int] = set()
            for u in removed:
                old = list(iter_bits(pair.adj[u]))
                fresh = [v for v in range(len(Vj)) if v not in taken and v not in old]
                pick = old + fresh[:k - len(old)]
                if len(pick) < k:
                    raise GreedySelectionFailed(
                        f"cannot reattach a removed vertex with {k} disjoint neighbours")
                taken.update(pick)
                for v in pick:
                    G_out.add_edge(Vi[u], Vj[v])
                used += 1
    out = PartitionedGraph(G_out, H.partition, H.reduced)
    ok, violations = check_near_equiregular(out, kmat, C)
    if not ok:
        raise Infeasible("near-equiregular target missed: " + "; ".join(violations[:3]))
    return out


def _disjoint_neighbourhood_set(pair: BipartiteGraph, a: int, k: int) -> list[int]:
    chosen: list[int] = []
    used = 0
    for u in sorted(range(pair.nl), key=lambda u: popcount(pair.adj[u])):
        if len(chosen) == a:
            break
        if all(pair.adj[u] & pair.adj[c] == 0 for c in chosen):
            chosen.append(u)
    if len(chosen) < a:
        raise GreedySelectionFailed(f"found {len(chosen)} of {a} disjoint-neighbourhood vertices")
    return chosen


# ---------------------------------------------------------------------------
# arithmetic split


def arithm_split(n_bar: int, r: int, Delta: int) -> tuple[int, int, int, int, int, int]:
    """Class-count/size split (a1,a2,a3,n1,n2,n3) realizing n_bar = sum a_i n_i."""
    if r < 3 * Delta + 2:
        raise BadParameters(f"need r >= 3*Delta+2, got r={r}, Delta={Delta}")
    n, c = divmod(n_bar, r)
    if c == 0:
        n1, a1, a3 = n, r, 0
    elif c <= Delta:
        n1, a1, a3 = n - 1, Delta + 1 - c, Delta + 1
    else:
        n1, a1, a3 = n, r - c, 0
    a2 = r - a1 - a3
    n2, n3 = n1 + 1, n1 + 2
    return a1, a2, a3, n1, n2, n3


def check_arithm_split(n_bar: int, r: int, Delta: int) -> bool:
    a1, a2, a3, n1, n2, n3 = arithm_split(n_bar, r, Delta)
    n = n_bar // r
    conds = [
        a2 == 0 or a2 >= Delta + 1,
        a3 == 0 or a3 >= Delta + 1,
        a1 + a2 + a3 == r,
        n1 in (n - 1, n) and n3 == n2 + 1 == n1 + 2,
        a1 * n1 + a2 * n2 + a3 * n3 == n_bar,
        min(a1, a2, a3) >= 0,
    ]
    return all(conds)


# ---------------------------------------------------------------------------
# permutation balancing


def permute_balance(families: list[PartitionedGraph], rng, resamples: int = 20,
                    tau_bal: float | None = None, groups: list[list[int]] | None = None):
    """Per-graph class permutations equalizing pairwise edge sums.

    Permutations are uniform (restricted to ``groups`` blocks when
    given); the draw is repeated and the relabeling with the smallest
    maximum pair deviation is kept.  When ``tau_bal`` is None the
    accepted bound is the empirical 90th percentile over the resamples.
    """
    if not families:
        raise BadParams("empty family")
    r = families[0].reduced.r
    s = len(families)
    if groups is None:
        groups = [list(range(r))]
    n_ref = max(families[0].partition.sizes())

    def pair_sums(perms):
        sums = [[0.0] * r for _ in range(r)]
        for ell, L in enumerate(families):
            perm = perms[ell]
            counts = _pair_edge_counts(L)
            for i in range(r):
                for j in range(i + 1, r):
                    val = counts[perm[i]][perm[j]]
                    sums[i][j] += val
                    sums[j][i] += val
        return [[x / n_ref for x in row] for row in sums]

    best = None
    best_dev = None
    devs = []
    for _ in range(resamples):
        perms = []
        for _ell in range(s):
            perm = list(range(r))
            for grp in groups:
                vals = [perm[i] for i in grp]
                rng.shuffle(vals)
                for i, v in zip(grp, vals):
                    perm[i] = v
            perms.append(perm)
        sums = pair_sums(perms)
        vals = [sums[i][j] for i in range(r) for j in range(i + 1, r)]
        M = sum(vals) / len(vals) if vals else 0.0
        dev = max((abs(v - M) for v in vals), default=0.0)
        devs.append(dev)
        if best_dev is None or dev < best_dev:
            best_dev = dev
            best = perms
    if tau_bal is None:
        tau_bal = sorted(devs)[max(0, int(0.9 * len(devs)) - 1)]
    if best_dev > tau_bal + 1e-9:
        raise BalanceRetriesExhausted(
            f"deviation {best_dev:.3f} above the accepted bound {tau_bal:.3f}")
    return best, best_dev


def _pair_edge_counts(L: PartitionedGraph) -> list[list[int]]:
    r = L.partition.r
    masks = L.partition.masks()
    counts = [[0] * r for _ in range(r)]
    for i in range(r):
        for u in L.partition.classes[i]:
            row = L.graph.adj[u]
            for j in range(i + 1, r):
                counts[i][j] += popcount(row & masks[j])
    for i in range(r):
        for j in range(i + 1, r):
            counts[j][i] = counts[i][j]
    return counts


# ---------------------------------------------------------------------------
# greedy class-respecting embedding (blow-up style, with forbidden sets)


def csaba_embed(L: PartitionedGraph, host_adj: LabeledGraph,
                class_map: dict[int, list[int]], rng,
                forbidden: dict[int, set[int]] | None = None,
                tries: int = 16) -> dict[int, int] | None:
    """Embed L into the dense partite host, class i onto class_map[i].

    ``forbidden`` maps a pattern vertex to host vertices it must avoid.
    Randomized greedy with limited backtracking; None when every try
    fails.
    """
    forbidden = forbidden or {}
    class_of = L.partition.class_of()
    order = sorted(range(L.graph.n), key=lambda x: -L.graph.degree(x))
    for _ in range(tries):
        img: dict[int, int] = {}
        used: dict[int, set[int]] = {i: set() for i in class_map}
        ok = True
        for x in order:
            i = class_of[x]
            pool = [v for v in class_map[i] if v not in used[i] and v not in forbidden.get(x, ())]
            rng.shuffle(pool)
            placed = False
            for v in pool:
                good = True
                for ynb in L.graph.neighbors(x):
                    if ynb in img and not host_adj.has_edge(v, img[ynb]):
                        good = False
                        break
                if good:
                    img[x] = v
                    used[i].add(v)
                    placed = True
                    break
            if not placed:
                ok = False
                break
        if ok:
            return img
    return None


# ---------------------------------------------------------------------------
# stacking


def stack_family(families: list[PartitionedGraph], R: ReducedGraph, kmat, C: int, rng,
                 W_sets: list[dict[int, list[int]]] | None = None,
                 resamples: int = 50):
    """Pack the family into one near-equiregular template.

    Returns (H, taus, J): H contains the union of the embedded copies
    plus the regularization edges, taus are the per-graph embeddings,
    and J = H minus the union.  The exact decomposition identity
    E(H) = disjoint-union of tau_ell(E(L_ell)) and E(J) is asserted.

    The class-size arithmetic follows the degree-sorted block scheme:
    an exceptional window per class is drawn by nested random windows
    over degree-sorted orders, the rest is cut into b^Delta_R blocks by
    iterated degree sorts, and blocks are consumed at a random shift per
    graph.  Block counts adapt to the class size (the full s^Delta_R
    block count needs classes far beyond this package's target sizes);
    shifts are resampled and the best measured deviation is kept.
    """
    if not families:
        raise BadParams("empty family")
    r = R.r
    s = len(families)
    sizes = families[0].partition.sizes()
    for ell, L in enumerate(families):
        if L.partition.sizes() != sizes:
            raise BadParams("family members disagree on class sizes")
        problems = L.validate()
        if problems:
            raise BadParams(f"family member {ell} violates its partition: {problems[0]}")
    Delta_R = max(R.max_degree(), 1)
    W_sets = W_sets or [dict() for _ in families]

    # block arithmetic: n_i = (B+1) n' + (exceptional), B = b^Delta_R with b
    # adapted to the class size
    n_min = min(sizes)
    b = max(1, min(s, int((max(n_min // 2, 1)) ** (1 / Delta_R))))
    B = b ** Delta_R
    n_prime = n_min // (B + 1)
    if n_prime == 0:
        B, n_prime = 1, 0

    best = None
    best_dev = None
    for _resample in range(resamples):
        plan = _block_plan(families, R, b, B, n_prime, rng)
        dev = plan["deviation"]
        if best_dev is None or dev < best_dev:
            best_dev = dev
            best = plan
    plan = best

    # host: complete r-partite on fresh ids with the family's class sizes,
    # refined into the matching blocks
    bounds = [0]
    for sz in sizes:
        bounds.append(bounds[-1] + sz)
    host_classes = [list(range(bounds[i], bounds[i + 1])) for i in range(r)]
    host_adj = LabeledGraph(bounds[-1])
    for i, j in R.edges():
        for u in host_classes[i]:
            for v in host_classes[j]:
                host_adj.add_edge(u, v)

    union = LabeledGraph(bounds[-1])
    taus: list[dict[int, int]] = []
    images_of_W: dict[int, set[int]] = {i: set() for i in range(r)}
    for ell, L in enumerate(families):
        blocks = plan["blocks"][ell]
        class_map: dict[int, list[int]] = {}
        pattern_block: dict[int, list[int]] = {}
        for i in range(r):
            class_map[i] = host_classes[i]
        # block-respecting: map each pattern block onto the host window
        # of the same index
        forbidden = {x: set(images_of_W[i]) for i in range(r)
                     for x in W_sets[ell].get(i, [])}
        img = _embed_blockwise(L, host_adj, union, host_classes, blocks, rng, forbidden)
        if img is None:
            raise StackEmbedFailure(f"family member {ell} did not embed")
        for i in range(r):
            for x in W_sets[ell].get(i, []):
                images_of_W[i].add(img[x])
        for x, y in L.graph.edges():
            union.add_edge(img[x], img[y])
        taus.append(img)

    part = VertexPartition.from_lists(host_classes, bounds[-1])
    union_pg = PartitionedGraph(union, part, R)
    kmat_eff = _effective_kmat(union_pg, kmat, R)
    H = regularize_near(union_pg, kmat_eff, C, rng)
    J = H.graph.copy()
    for x, y in union.edges():
        J.remove_edge(x, y)
    _assert_decomposition(H.graph, union, taus, families, J)
    return H, taus, J, kmat_eff


def _effective_kmat(union_pg: PartitionedGraph, kmat, R: ReducedGraph):
    """Desk-scale feasibility: the smallest per-pair target at or above the
    achieved maximum degree whose regularization flow saturates.

    Keeping k minimal matters downstream: the embedding pipeline refines
    classes (k+1)^2-fold, so a gratuitous +1 here can empty them."""
    r = R.r
    out = [[0] * r for _ in range(r)]
    for i, j in R.edges():
        Vi = union_pg.partition.classes[i]
        Vj = union_pg.partition.classes[j]
        big, small = (Vi, Vj) if len(Vi) >= len(Vj) else (Vj, Vi)
        pair = pair_view(union_pg.graph.adj, big, small)
        achieved = max((popcount(row) for row in pair.adj), default=0)
        achieved = max(achieved, max((popcount(c) for c in pair.right_adj()), default=0))
        base = max(kmat[i][j] if kmat else 0, achieved, 1)
        chosen = None
        for k_try in (base, base + 1, base + 2):
            a = len(big) - len(small)
            try:
                if a > 0:
                    removed = _disjoint_neighbourhood_set(pair, a, k_try)
                    keep = [u for u in range(len(big)) if u not in set(removed)]
                else:
                    keep = list(range(len(big)))
                regularize_pair(pair.subgraph(keep, list(range(len(small)))), k_try)
                chosen = k_try
                break
            except (Infeasible, GreedySelectionFailed):
                continue
        out[i][j] = out[j][i] = chosen if chosen is not None else base + 2
    return out


def _block_plan(families, R: ReducedGraph, b: int, B: int, n_prime: int, rng) -> dict:
    """Exceptional windows, degree-sorted blocks, random shifts; measured."""
    r = R.r
    s = len(families)
    plans = []
    # per family and class: ordered vertex list cut into B blocks of n' after
    # an exceptional window of the remaining size
    for ell, L in enumerate(families):
        per_class = []
        for i in range(r):
            cls = list(L.partition.classes[i])
            n_i = len(cls)
            exc_size = n_i - B * n_prime
            nbr = sorted(R.neighbors(i))
            # nested random windows over degree-sorted orders
            window = list(cls)
            for depth, j in enumerate(nbr[:max(len(nbr), 1)]):
                mask = mask_of(L.partition.classes[j])
                window.sort(key=lambda x: popcount(L.graph.adj[x] & mask))
                target = exc_size if depth == len(nbr) - 1 else max(
                    exc_size, int(len(window) / max(b, 2)))
                if len(window) > target:
                    a0 = rng.randrange(len(window))
                    window = [window[(a0 + off) % len(window)] for off in range(target)] \
                        if target else []
            exceptional = window[:exc_size]
            rest = [x for x in cls if x not in set(exceptional)]
            # iterated degree sort into b-ary blocks
            order = rest
            for j in nbr:
                mask = mask_of(L.partition.classes[j])
                order = sorted(order, key=lambda x: popcount(L.graph.adj[x] & mask))
            shift = rng.randrange(B) if B else 0
            blocks = []
            for q in range(B):
                qq = (q + shift) % B
                blocks.append(order[qq * n_prime:(qq + 1) * n_prime])
            per_class.append({"exceptional": exceptional, "blocks": blocks})
        plans.append(per_class)
    # measured deviation: stacked average block degrees against the pair mean
    deviation = 0.0
    for i, j in R.edges():
        masks = [mask_of(L.partition.classes[j]) for L in families]
        M_ij = sum(
            sum(popcount(L.graph.adj[x] & masks[ell]) for x in L.partition.classes[i])
            / max(len(L.partition.classes[i]), 1)
            for ell, L in enumerate(families))
        nblocks = len(plans[0][i]["blocks"])
        for q in range(nblocks):
            stacked = 0.0
            for ell, L in enumerate(families):
                blk = plans[ell][i]["blocks"][q]
                if blk:
                    stacked += sum(popcount(L.graph.adj[x] & masks[ell]) for x in blk) / len(blk)
            deviation = max(deviation, abs(stacked - M_ij))
        exc_stacked = 0.0
        for ell, L in enumerate(families):
            exc = plans[ell][i]["exceptional"]
            if exc:
                exc_stacked += sum(popcount(L.graph.adj[x] & masks[ell]) for x in exc) / len(exc)
        if any(plans[ell][i]["exceptional"] for ell in range(s)):
            deviation = max(deviation, abs(exc_stacked - M_ij))
    return {"blocks": plans, "deviation": deviation}


def _embed_blockwise(L, host_adj, used_union, host_classes, blocks, rng, forbidden,
                     restarts: int = 12):
    """Blockwise class-respecting embedding avoiding previously used edges.

    Pattern blocks land on fixed host windows (that is what keeps the union
    degrees balanced); the order inside each window is randomized, and
    conflicts with the union are repaired by swap passes.  Restarts redraw
    the within-window orders.
    """
    r = len(host_classes)
    cls_of = L.partition.class_of()
    for _restart in range(restarts):
        img: dict[int, int] = {}
        ok = True
        for i in range(r):
            plan = blocks[i]
            groups = [plan["exceptional"]] + plan["blocks"]
            pos = 0
            slots = list(host_classes[i])
            for grp in groups:
                window = slots[pos:pos + len(grp)]
                pos += len(grp)
                rng.shuffle(window)
                for x, v in zip(grp, window):
                    img[x] = v
            if pos != len(slots):
                ok = False
                break
        if not ok:
            return None
        for _pass in range(12):
            bad = {x for x, y in _conflicts(L, img, used_union)}
            bad |= {y for x, y in _conflicts(L, img, used_union)}
            bad |= {x for x, banned in forbidden.items() if img.get(x) in banned}
            if not bad:
                return img
            stuck = False
            for x in sorted(bad):
                i = cls_of[x]
                candidates = list(host_classes[i])
                rng.shuffle(candidates)
                occupied = {img[p]: p for p in L.partition.classes[i]}
                fixed = False
                for v in candidates:
                    other = occupied.get(v)
                    if other == x:
                        continue
                    if _swap_ok(L, img, used_union, x, other, v, forbidden):
                        if other is not None:
                            img[other] = img[x]
                            occupied[img[x]] = other
                        img[x] = v
                        occupied[v] = x
                        fixed = True
                        break
                if not fixed:
                    stuck = True
            if stuck and (_conflicts(L, img, used_union) or
                          any(img.get(x) in banned for x, banned in forbidden.items())):
                break
        if not _conflicts(L, img, used_union) and \
                not any(img.get(x) in banned for x, banned in forbidden.items()):
            return img
    return None


def _conflicts(L, img, used_union):
    out = []
    for x, y in L.graph.edges():
        if used_union.has_edge(img[x], img[y]):
            out.append((x, y))
    return out


def _swap_ok(L, img, used_union, x, other, v, forbidden) -> bool:
    if v in forbidden.get(x, ()):
        return False
    for ynb in L.graph.neighbors(x):
        if ynb == other:
            continue
        if used_union.has_edge(v, img[ynb]):
            return False
    if other is not None:
        old = img[x]
        if old in forbidden.get(other, ()):
            return False
        for ynb in L.graph.neighbors(other):
            if ynb == x:
                continue
            if used_union.has_edge(old, img[ynb]):
                return False
    return True


def _assert_decomposition(H_graph, union, taus, families, J):
    """E(H) is exactly the disjoint union of the images and E(J)."""
    image_edges: list[set[frozenset[int]]] = []
    for img, L in zip(taus, families):
        image_edges.append({frozenset((img[x], img[y])) for x, y in L.graph.edges()})
    for a in range(len(image_edges)):
        for bb in range(a + 1, len(image_edges)):
            if image_edges[a] & image_edges[bb]:
                raise AssertionError("stacked images overlap")
    all_images = set().union(*image_edges) if image_edges else set()
    H_edges = {frozenset(e) for e in H_graph.edges()}
    J_edges = {frozenset(e) for e in J.edges()}
    if all_images | J_edges != H_edges or all_images & J_edges:
        raise AssertionError("decomposition identity violated")


def pack_to_regular(families: list[PartitionedGraph], R: ReducedGraph, k: int, C: int,
                    rng, mode: str = "equal-classes", Delta: int | None = None,
                    resamples: int = 50):
    """Balance then stack; returns (H, taus, J, achieved kmat, Delta(J))."""
    groups = None
    if mode == "arithm":
        if Delta is None:
            raise BadParams("arithm mode needs Delta")
        n_bar = families[0].graph.n
        a1, a2, a3, n1, n2, n3 = arithm_split(n_bar, R.r, Delta)
        groups = []
        start = 0
        for a in (a1, a2, a3):
            if a:
                groups.append(list(range(start, start + a)))
            start += a
    perms, dev = permute_balance(families, rng, resamples=min(resamples, 20), groups=groups)
    relabeled = []
    for L, perm in zip(families, perms):
        classes = [list(L.partition.classes[perm[i]]) for i in range(R.r)]
        relabeled.append(PartitionedGraph(L.graph, VertexPartition.from_lists(classes, L.graph.n), R))
    kmat = [[k if R.has_edge(i, j) else 0 for j in range(R.r)] for i in range(R.r)]
    H, taus, J, kmat_eff = stack_family(relabeled, R, kmat, C, rng, resamples=resamples)
    dJ = J.max_degree()
    return H, taus, J, kmat_eff, dJ
