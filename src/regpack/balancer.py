"""Stacking families into near-equiregular templates and flow-based
degree regularization.

``regularize_pair`` settles the core question exactly: a k-regular
supergraph of a bipartite graph H exists iff the complement network
(source -> V_1 at capacity k - deg, unit non-edges, V_2 -> sink at
capacity k - deg) carries a saturating integral flow, and the flow
edges are precisely the edges to add.  ``stack_family`` composes the
randomized balancing machinery: a degree-sorted block partition with
random shifts, sequential embeddings into the complete partite host,
then regularization of the union.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import (
    BadParams,
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
    caps: list[int] = field(default_factory=list)
    out: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.out:
            self.out = [[] for _ in range(self.n_nodes)]

    def add_arc(self, u: int, v: int, cap: int) -> int:
        idx = len(self.heads)
        self.heads.append(v)
        self.caps.append(cap)
        self.out[u].append(idx)
        # residual arc
        self.heads.append(u)
        self.caps.append(0)
        self.out[v].append(idx + 1)
        return idx


def max_flow(net: FlowNetwork) -> tuple[int, dict[int, int]]:
    """Dinic from s = 0 to t = 1; returns (value, flow per forward arc index)."""
    s, t = 0, 1
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
    On failure `Infeasible` reports the flow value against the demand.
    """
    if H.nl != H.nr:
        raise BadParams("regularization needs equal sides")
    n = H.nl
    if k > n:
        raise Infeasible(f"target degree {k} exceeds side size {n}")
    degs_l = [popcount(row) for row in H.adj]
    degs_r = [popcount(c) for c in H.right_adj()]
    if max(degs_l, default=0) > k or max(degs_r, default=0) > k:
        raise Infeasible(f"a vertex already exceeds degree {k}")
    need = sum(k - d for d in degs_l)
    if need == 0:  # every left degree is k, so every right degree is k too
        return H.copy()
    net = FlowNetwork(2 + 2 * n)
    mid_arc = {}
    for u in range(n):
        net.add_arc(0, 2 + u, k - degs_l[u])
    for v in range(n):
        net.add_arc(2 + n + v, 1, k - degs_r[v])
    for u in range(n):
        for v in range(n):
            if not H.has_edge(u, v):
                mid_arc[(u, v)] = net.add_arc(2 + u, 2 + n + v, 1)
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


def regularize_near(H: PartitionedGraph, kmat, C: int) -> PartitionedGraph:
    """Near-equiregular supergraph across possibly ragged class sizes.

    Per reduced edge: remove |V_i| - |V_j| vertices of the larger side
    whose pair-neighbourhoods are disjoint, regularize the balanced rest
    by flow, then reattach the removed vertices on k fresh disjoint
    neighbourhoods covering their old ones.
    """
    return _near_regular(H, C, lambda i, j, pair: (kmat[i][j],))[0]


def _near_regular(H: PartitionedGraph, C: int, targets):
    """``regularize_near`` with each pair at the first degree of
    ``targets(i, j, pair)`` whose flow saturates (the last failure is raised
    when none does); returns the graph and the degree matrix it reached."""
    r = H.reduced.r
    G_out = LabeledGraph(H.graph.n)
    kmat = [[0] * r for _ in range(r)]
    for i, j in H.reduced.edges():
        Vi = list(H.partition.classes[i])
        Vj = list(H.partition.classes[j])
        if len(Vi) < len(Vj):
            Vi, Vj = Vj, Vi
        a = len(Vi) - len(Vj)
        pair = pair_view(H.graph.adj, Vi, Vj)
        if a > 0:
            removed = _disjoint_neighbourhood_set(pair, a)
            keep = [u for u in range(len(Vi)) if u not in set(removed)]
        else:
            removed = []
            keep = list(range(len(Vi)))
        sub = pair.subgraph(keep, list(range(len(Vj))))
        for k in targets(i, j, pair):
            try:
                reg = regularize_pair(sub, k)
                break
            except Infeasible as exc:
                failure = exc
        else:
            raise failure
        kmat[i][j] = kmat[j][i] = k
        rows = [0] * len(Vi)
        for ulocal, u in enumerate(keep):
            rows[u] = reg.adj[ulocal]
        # each removed vertex keeps its old neighbourhood; fresh picks avoid
        # every removed vertex's old neighbourhood and the picks before them,
        # so no vertex gains two reattached edges (degree k + 2)
        taken = 0
        for u in removed:
            taken |= pair.adj[u]
        for u in removed:
            row = pair.adj[u]
            for v in iter_bits(((1 << len(Vj)) - 1) & ~taken):
                if popcount(row) >= k:
                    break
                row |= 1 << v
            if popcount(row) < k:
                raise GreedySelectionFailed(
                    f"cannot reattach a removed vertex with {k} disjoint neighbours")
            taken |= row
            rows[u] = row
        G_out.add_pair(rows, Vi, Vj)
    out = PartitionedGraph(G_out, H.partition, H.reduced)
    ok, violations = check_near_equiregular(out, kmat, C)
    if not ok:
        raise Infeasible("near-equiregular target missed: " + "; ".join(violations[:3]))
    return out, kmat


def _disjoint_neighbourhood_set(pair: BipartiteGraph, a: int) -> list[int]:
    chosen: list[int] = []
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
        raise BadParams(f"need r >= 3*Delta+2, got r={r}, Delta={Delta}")
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
# stacking


def stack_family(families: list[PartitionedGraph], R: ReducedGraph, kmat, C: int, rng,
                 resamples: int = 50):
    """Pack the family into one near-equiregular template.

    Returns (H, taus, J, kmat_eff): H contains the union of the embedded
    copies plus the regularization edges, taus are the per-graph
    embeddings, J = H minus the union, and kmat_eff is the per-pair degree
    matrix H reached.  The exact decomposition identity
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

    # block arithmetic: n_i = (B+1) n' + (exceptional), B = b^Delta_R with b
    # adapted to the class size
    n_min = min(sizes)
    b = max(1, min(s, int((max(n_min // 2, 1)) ** (1 / Delta_R))))
    B = b ** Delta_R
    n_prime = n_min // (B + 1)
    if n_prime == 0:
        B, n_prime = 1, 0

    deg = _class_degrees(families)
    best = None
    best_dev = None
    for _resample in range(resamples):
        plan = _block_plan(families, R, b, B, n_prime, deg, rng)
        dev = plan["deviation"]
        if best_dev is None or dev < best_dev:
            best_dev = dev
            best = plan
    plan = best

    # host classes on fresh ids with the family's class sizes, refined into
    # the matching blocks
    bounds = [0]
    for sz in sizes:
        bounds.append(bounds[-1] + sz)
    host_classes = [list(range(bounds[i], bounds[i + 1])) for i in range(r)]

    union = LabeledGraph(bounds[-1])
    taus: list[dict[int, int]] = []
    for ell, L in enumerate(families):
        # block-respecting: map each pattern block onto the host window
        # of the same index
        img = _embed_blockwise(L, union, host_classes, plan["blocks"][ell], rng)
        if img is None:
            raise StackEmbedFailure(f"family member {ell} did not embed")
        for x, y in L.graph.edges():
            union.add_edge(img[x], img[y])
        taus.append(img)

    part = VertexPartition.from_lists(host_classes, bounds[-1])
    union_pg = PartitionedGraph(union, part, R)
    H, kmat_eff = _near_regular(union_pg, C, _stacking_targets(kmat))
    J = H.graph.copy()
    for x, y in union.edges():
        J.remove_edge(x, y)
    _assert_decomposition(H.graph, taus, families, J)
    return H, taus, J, kmat_eff


def _stacking_targets(kmat):
    """Desk-scale feasibility: per pair, the achieved maximum degree (at
    least kmat's entry and 1) and the two degrees above it, tried in order.

    Keeping k minimal matters downstream: the refinement constant grows
    like k^2 (``uniform.square_slices``), so a gratuitous +1 can empty classes."""
    def targets(i, j, pair):
        achieved = max(max(map(popcount, pair.adj), default=0),
                       max(map(popcount, pair.right_adj()), default=0))
        base = max(kmat[i][j] if kmat else 0, achieved, 1)
        return (base, base + 1, base + 2)
    return targets


def _class_degrees(families) -> list[list[list[int]]]:
    """deg[ell][j][x]: the number of neighbours vertex x of member ell has
    in member ell's class j."""
    return [[[popcount(row & mask) for row in L.graph.adj] for mask in L.partition.masks()]
            for L in families]


def _block_plan(families, R: ReducedGraph, b: int, B: int, n_prime: int, deg, rng) -> dict:
    """Exceptional windows, degree-sorted blocks, random shifts; measured.

    ``deg`` is the ``_class_degrees`` table of the family.  It is built once
    per stack and shared by all resamples: every sort key and every block
    sum below is read from it."""
    r = R.r
    plans = []
    # per family and class: ordered vertex list cut into B blocks of n' after
    # an exceptional window of the remaining size
    for ell, L in enumerate(families):
        per_class = []
        for i in range(r):
            cls = list(L.partition.classes[i])
            exc_size = len(cls) - B * n_prime
            nbr = sorted(R.neighbors(i))
            # nested random windows over degree-sorted orders
            window = list(cls)
            for depth, j in enumerate(nbr):
                window.sort(key=deg[ell][j].__getitem__)
                target = exc_size if depth == len(nbr) - 1 else max(
                    exc_size, int(len(window) / max(b, 2)))
                if len(window) > target:
                    a0 = rng.randrange(len(window))
                    window = [window[(a0 + off) % len(window)] for off in range(target)] \
                        if target else []
            exceptional = window[:exc_size]
            exc_set = set(exceptional)
            # iterated degree sort into b-ary blocks
            order = [x for x in cls if x not in exc_set]
            for j in nbr:
                order.sort(key=deg[ell][j].__getitem__)
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
        degs = [deg[ell][j] for ell in range(len(families))]
        M_ij = sum(
            sum(d[x] for x in L.partition.classes[i]) / max(len(L.partition.classes[i]), 1)
            for d, L in zip(degs, families))
        nblocks = len(plans[0][i]["blocks"])
        for q in range(nblocks):
            stacked = 0.0
            for d, plan in zip(degs, plans):
                blk = plan[i]["blocks"][q]
                if blk:
                    stacked += sum(d[x] for x in blk) / len(blk)
            deviation = max(deviation, abs(stacked - M_ij))
        exc_stacked = 0.0
        for d, plan in zip(degs, plans):
            exc = plan[i]["exceptional"]
            if exc:
                exc_stacked += sum(d[x] for x in exc) / len(exc)
        if any(plan[i]["exceptional"] for plan in plans):
            deviation = max(deviation, abs(exc_stacked - M_ij))
    return {"blocks": plans, "deviation": deviation}


def _embed_blockwise(L, used_union, host_classes, blocks, rng):
    """Blockwise class-respecting embedding avoiding previously used edges.

    Pattern blocks land on fixed host windows (that is what keeps the union
    degrees balanced); the order inside each window is randomized, and
    conflicts with the union are repaired by swap passes.  Restarts redraw
    the within-window orders.
    """
    r = len(host_classes)
    cls_of = L.partition.class_of()
    for _restart in range(12):
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
        # up to 12 swap passes; the check after the last pass, or after a
        # pass that left a vertex unfixed, decides the restart
        stuck = False
        for _pass in range(13):
            bad = {v for e in _conflicts(L, img, used_union) for v in e}
            if not bad:
                return img
            if stuck or _pass == 12:
                break
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
                    if _swap_ok(L, img, used_union, x, other, v):
                        if other is not None:
                            img[other] = img[x]
                            occupied[img[x]] = other
                        img[x] = v
                        occupied[v] = x
                        fixed = True
                        break
                if not fixed:
                    stuck = True
    return None


def _conflicts(L, img, used_union):
    out = []
    for x, y in L.graph.edges():
        if used_union.has_edge(img[x], img[y]):
            out.append((x, y))
    return out


def _swap_ok(L, img, used_union, x, other, v) -> bool:
    for ynb in L.graph.neighbors(x):
        if ynb == other:
            continue
        if used_union.has_edge(v, img[ynb]):
            return False
    if other is not None:
        old = img[x]
        for ynb in L.graph.neighbors(other):
            if ynb == x:
                continue
            if used_union.has_edge(old, img[ynb]):
                return False
    return True


def _assert_decomposition(H_graph, taus, families, J):
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

