"""The main packing loop and its theorem-level drivers.

Templates are packed in nibble rounds.  Round 0 splits the host into a
patching reserve P and the working graph G^1.  Each later round takes a
batch of templates through four steps, each raising its own failure types:

1. ``_embed_batch`` embeds each template independently into (G^t, P), its
   candidacy thinned by the images of collision partners from earlier
   rounds.  Type 1: the uniform embedding gave up; type 2: a probe-set
   check failed.
2. ``_deplete`` deletes the union of the images and re-certifies every
   pair of the remainder at the next density of the ladder.  Type 3.
3. ``_conflicts`` collects, per template, the host vertices on edges it
   shares with another template of the batch and the images of its
   collision vertices, and checks the (U1)/(U2) crowding events.  Type 4.
4. ``_patch``, per template in batch order, redraws a window of each
   refined class around those vertices through the unused part of P, so
   that the batch becomes edge-disjoint and collision constraints hold.
   Type 5: no window feeds every candidacy row, or the re-embedding
   failed; type 6: a patch hypothesis failed (it cannot when (W1)-(W3)
   hold at full scale, but the check is kept).

The round then checks batch disjointness (type 5) and only then commits
its embeddings.  Any failure restarts the round with fresh randomness, up
to ``round_retry_cap`` attempts.

Desk-scale thresholds.  The batch events (U1)/(U2), (W1)-(W3) and
(a')/(b') are checked per the stated formulas but with fixed floors:
2.0 for the (U1) cap, ceil(delta m') for the (U2) cap and
ceil(4 / (beta d0)) for the patch window, m' = ceil(n / K) being the
refined class size.  At the batch sizes this package runs, quantities
like gamma^(4/3) n or 2 delta gamma n drop below one vertex and would
make the events unsatisfiable whenever anything at all needs patching.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    BadParams,
    EmbedFailure,
    FailureExhausted,
    HypothesisViolation,
    InfeasibleTargetSets,
    PatchFailure,
    QuasirandomnessFailed,
    RetriesExhausted,
)
from .graphs import (
    BipartiteGraph,
    LabeledGraph,
    PartitionedGraph,
    ReducedGraph,
    VertexPartition,
    blow_up,
    candidacy_rows,
    iter_bits,
    mask_of,
    pair_view,
    popcount,
)
from .params import ParamSet
from .patching import repatch
from .regularity import pipeline_certificate, random_split, restrict_super_regular
from .uniform import UniformEmbedResult, expand_matrix, run_uniform_embed


@dataclass
class PackInstance:
    host: PartitionedGraph
    templates: list[PartitionedGraph]
    k_mats: list[list[list[int]]]
    A_list: list[list[BipartiteGraph | None] | None]
    lam: list[tuple[int, int, int, int]] = field(default_factory=list)
    d0: float = 1.0
    params: ParamSet = field(default_factory=ParamSet)
    gamma_n: int = 1
    probe_sets: list[tuple[list[int], list[int]]] | None = None


@dataclass
class RoundLog:
    round: int
    densities: list[float]
    conflicts: int
    patched: int


@dataclass
class PackingResult:
    embeddings: list[dict[int, int]]
    leftover: LabeledGraph
    coverage: float
    rounds: list[RoundLog]
    failure_log: list[str]
    s_real: int


def validate_instance(inst: PackInstance) -> list[str]:
    """Mechanical (S1)-(S8)-style checks; returns violations."""
    v: list[str] = []
    host = inst.host
    r = host.reduced.r
    params = inst.params
    if inst.gamma_n < 1:
        v.append(f"gamma_n must be at least 1, got {inst.gamma_n}")
    if host.reduced.max_degree() > params.Delta_R:
        v.append("(S1) reduced-graph degree exceeds Delta_R")
    sizes = host.partition.sizes()
    if not sizes:
        v.append("(S3) the host partition has no classes")
        return v
    n = max(sizes)
    for i, t in enumerate(inst.templates):
        if t.partition.sizes() != sizes:
            v.append(f"(S3) template {i} partition sizes differ from the host")
            break
    for i, km in enumerate(inst.k_mats):
        # each distinct violation once per matrix, in first-seen order
        seen: dict[str, None] = {}
        if min(map(min, km), default=0) < 0:
            seen["has a negative entry"] = None
        for a in range(r):
            for b in range(r):
                if km[a][b] != km[b][a]:
                    seen["not symmetric"] = None
                if km[a][b] > params.k:
                    seen[f"exceeds k={params.k}"] = None
                if km[a][b] and not host.reduced.has_edge(a, b):
                    seen["nonzero off the reduced graph"] = None
        v.extend(f"(S2) k-matrix {i} {msg}" for msg in seen)
    for a, b in host.reduced.edges():
        total = sum(km[a][b] for km in inst.k_mats)
        budget = (1 - params.alpha) * float(host.densities[a][b]) * n
        if total > budget + 1e-9:
            v.append(f"(S4) pair ({a},{b}) oversubscribed: sum k = {total} > {budget:.2f}")
    s = len(inst.templates)
    deg: Counter[tuple[int, int]] = Counter()
    per_tpl: Counter[tuple[int, int, int]] = Counter()
    for (i, x, ip, xp) in inst.lam:
        if not (0 <= i < s and 0 <= ip < s):
            v.append("(S8) collision constraint references a padded or missing template")
            continue
        if not (0 <= x < inst.templates[i].graph.n and 0 <= xp < inst.templates[ip].graph.n):
            v.append(f"(S8) collision constraint {(i, x, ip, xp)} names a vertex outside its template")
            continue
        deg.update([(i, x), (ip, xp)])
        per_tpl.update([(i, x, ip), (ip, xp, i)])
    if deg and max(deg.values()) > (1 - 2 * params.alpha) * inst.d0 * n:
        v.append("(S8) collision-graph degree exceeds (1-2 alpha) d0 n")
    if per_tpl and max(per_tpl.values()) > params.k:
        v.append("(S8) per-template collision degree exceeds k")
    class_of = {i: inst.templates[i].partition.class_of() for i in {i for i, _ in deg}}
    for (i, j), cnt in Counter((i, class_of[i][x]) for (i, x) in deg).items():
        if cnt > params.eps * sizes[j]:
            v.append(f"(S8) template {i} has {cnt} constrained vertices in class {j}")
    return v


def _filler_template(host: PartitionedGraph) -> tuple[PartitionedGraph, list[list[int]]]:
    """A k'=1 near-equiregular filler on the host partition."""
    from .balancer import regularize_near

    r = host.reduced.r
    empty = LabeledGraph(host.graph.n)
    pg = PartitionedGraph(empty, host.partition, host.reduced)
    k1 = [[1 if host.reduced.has_edge(i, j) else 0 for j in range(r)] for i in range(r)]
    filled = regularize_near(pg, k1, C=1)
    return filled, k1


def _density_trace(inst: PackInstance, T: int, k_mats, beta_mat) -> list[list[list[Fraction]]]:
    """Exact per-round density ladder d^t from the subscription counts."""
    r = inst.host.reduced.r
    n = max(inst.host.partition.sizes())
    gamma_n = inst.gamma_n
    d = [[Fraction(inst.host.densities[i][j]) - Fraction(beta_mat[i][j]) for j in range(r)]
         for i in range(r)]
    trace = [[row[:] for row in d]]
    for t in range(T):
        batch = range(t * gamma_n, min((t + 1) * gamma_n, len(k_mats)))
        new = [row[:] for row in trace[-1]]
        for i, j in inst.host.reduced.edges():
            cur = trace[-1][i][j]
            if cur > 0:
                cur *= math.prod(1 - Fraction(k_mats[idx][i][j]) / (cur * n) for idx in batch)
            new[i][j] = new[j][i] = cur
        trace.append(new)
    return trace


def run_main_packing(inst: PackInstance, rng, round_retry_cap: int = 6) -> PackingResult:
    """Pack the templates; raises FailureExhausted when retries run out."""
    errs = validate_instance(inst)
    if errs:
        raise BadParams("invalid packing instance: " + "; ".join(errs[:4]))
    params = inst.params
    s_real = len(inst.templates)
    gamma_n = inst.gamma_n
    T = math.ceil(s_real / gamma_n) if s_real else 0
    run = _Run(inst, rng, T)
    G_cur, P_cur = run.G1, run.P_host.copy()
    rounds: list[RoundLog] = []
    failure_log: list[str] = []
    eps_t = params.eps ** (1 / 3)
    for t in range(1, T + 1):
        batch = list(range((t - 1) * gamma_n, t * gamma_n))
        for attempt in range(round_retry_cap):
            try:
                G_cur, P_cur, log = _round(run, t, batch, G_cur, P_cur, eps_t)
                break
            except _RoundRestart as exc:
                last_exc = exc
                failure_log.append(f"round {t} attempt {attempt + 1}: {exc}")
        else:
            raise FailureExhausted(last_exc.failure_type, where=f"round {t}",
                                   msg=f"round {t} failed {round_retry_cap} attempts: {last_exc}")
        rounds.append(log)
        # the paper's q(eps_t, w) = eps_t^((1/300)^(w+3)) is at least 0.99999 from
        # eps_t = eps^(1/3) on, for every double eps in (0, 1), so its clamp decides
        eps_t = 0.45

    final = run.embeddings[:s_real]
    covered = _assert_packing(run, final)
    leftover = inst.host.graph.copy()
    for e in covered:
        leftover.remove_edge(*e)
    m = inst.host.graph.num_edges()
    return PackingResult(embeddings=final, leftover=leftover, coverage=len(covered) / m if m else 0.0,
                         rounds=rounds, failure_log=failure_log, s_real=s_real)


class _RoundRestart(Exception):
    def __init__(self, failure_type: int, msg: str):
        super().__init__(msg)
        self.failure_type = failure_type


class _Run:
    """One packing of T rounds: the templates padded with fillers, their
    degree matrices and candidacy lists, the reserve P and the working graph
    G^1 from round 0, the density ladder d^t, the random stream, and the
    embeddings accepted so far.  Per template it also keeps the collision
    entries (x, i', x') and ``A_rows``, the lookup pattern vertex -> bitset
    of the host ids its initial candidacy allows."""

    def __init__(self, inst: PackInstance, rng, T: int):
        params = inst.params
        host = inst.host
        r = host.reduced.r
        self.inst, self.rng = inst, rng
        self.n = max(host.partition.sizes())
        self.templates = list(inst.templates)
        self.k_mats = [list(map(list, km)) for km in inst.k_mats]
        self.A_list = list(inst.A_list)
        while len(self.templates) < T * inst.gamma_n:
            filler, k1 = _filler_template(host)
            self.templates.append(filler)
            self.k_mats.append(k1)
            self.A_list.append(None)

        # beta_{j,j'} = beta * d_{j,j'} / d, with d the minimum pair density
        dmin = min((Fraction(host.densities[i][j]) for i, j in host.reduced.edges()), default=Fraction(1))
        self.beta_mat = [[Fraction(params.beta).limit_denominator(10 ** 6) * Fraction(host.densities[i][j])
                          / dmin if host.reduced.has_edge(i, j) else Fraction(0) for j in range(r)]
                         for i in range(r)]

        # the ladder draws nothing, so an oversubscribed instance is refused
        # before round 0 touches the random stream
        self.ladder = _density_trace(inst, T, self.k_mats, self.beta_mat)
        if any(level[i][j] <= 0 for level in self.ladder for i, j in host.reduced.edges()):
            raise BadParams("density ladder hits zero: instance oversubscribed for this gamma")

        # Round 0: carve the patching reserve out of every host pair
        self.P_host = LabeledGraph(host.graph.n)
        self.G1 = LabeledGraph(host.graph.n)
        for i, j in host.reduced.edges():
            parts = random_split(host.pair_view(i, j), float(host.densities[i][j]),
                                 float(self.beta_mat[i][j]), rng, eps=params.eps)
            for graph, part in zip((self.P_host, self.G1), parts):
                graph.add_pair(part.adj, host.partition.classes[i], host.partition.classes[j])

        self.embeddings: list[dict[int, int] | None] = [None] * len(self.templates)
        self.lam_by_tpl: dict[int, list[tuple[int, int, int]]] = {}
        for (i, x, ip, xp) in inst.lam:
            self.lam_by_tpl.setdefault(i, []).append((x, ip, xp))
            self.lam_by_tpl.setdefault(ip, []).append((xp, i, x))
        self.A_rows = [candidacy_rows(A) for A in self.A_list]


def _round(run: _Run, t: int, batch: list[int], G_cur: LabeledGraph, P_cur: LabeledGraph,
           eps_t: float) -> tuple[LabeledGraph, LabeledGraph, RoundLog]:
    """Round t: the four steps, then the batch-disjointness check; the
    embeddings are committed only when all of them pass."""
    d_next = run.ladder[t]
    results = _embed_batch(run, batch, G_cur, run.ladder[t - 1], eps_t)
    G_next = _deplete(run, results, G_cur, d_next, eps_t)
    U_by_class, conflict_count = _conflicts(run, results)
    P_next = P_cur.copy()
    phis: dict[int, dict[int, int]] = {}
    patched = 0
    for idx, res in results.items():
        phis[idx], size = _patch(run, idx, res, U_by_class[idx], P_next, phis)
        patched += size

    seen: set[frozenset[int]] = set()
    for idx, phi in phis.items():
        for x, y in run.templates[idx].graph.edges():
            e = frozenset((phi[x], phi[y]))
            if e in seen:
                raise _RoundRestart(5, "batch images still overlap after patching")
            seen.add(e)
    for idx, phi in phis.items():
        run.embeddings[idx] = phi
    log = RoundLog(round=t, densities=[float(d_next[i][j]) for i, j in run.inst.host.reduced.edges()],
                   conflicts=conflict_count, patched=patched)
    return G_next, P_next, log


def _embed_batch(run: _Run, batch: list[int], G_cur: LabeledGraph, d_now,
                 eps_t: float) -> dict[int, UniformEmbedResult]:
    """Step 1: embed each template of the batch independently into (G^t, P).

    Type 1: the collision thinning or the uniform embedding gave up; type 2:
    a probe-set check failed."""
    params = run.inst.params
    host = run.inst.host
    G_round = PartitionedGraph(G_cur, host.partition, host.reduced, densities=[row[:] for row in d_now])
    eps = max(min(eps_t ** 3, params.eps), 1e-6)
    results: dict[int, UniformEmbedResult] = {}
    for idx in batch:
        try:
            A_eff = _collision_thinned_candidacy(run, idx)
            d0 = 1.0 if all(a is None for a in A_eff) else run.inst.d0
            res = run_uniform_embed(G_round, run.P_host, run.beta_mat, run.templates[idx],
                                    run.k_mats[idx], A_eff, d0, eps, params.C,
                                    params.embed_retry_cap, run.rng)
        except (EmbedFailure, RetriesExhausted, InfeasibleTargetSets) as exc:
            raise _RoundRestart(1, f"template {idx}: {exc}")
        for Q, W in run.inst.probe_sets or ():
            Wset = set(W)
            got = sum(1 for p in Q if res.phi[p] in Wset)
            want = len(Q) * len(W) / run.n
            if abs(got - want) > max(params.gamma * len(Q) * len(W) / run.n,
                                     4 * math.sqrt(want) + 1):
                raise _RoundRestart(2, f"template {idx} failed a probe-set check")
        results[idx] = res
    return results


def _deplete(run: _Run, results: dict[int, UniformEmbedResult], G_cur: LabeledGraph, d_next,
             eps_t: float) -> LabeledGraph:
    """Step 2: G^{t+1} = G^t minus the union of the batch images, every pair
    re-certified at the next density of the ladder; type 3."""
    host = run.inst.host
    G_next = G_cur.copy()
    for idx, res in results.items():
        for x, y in run.templates[idx].graph.edges():
            G_next.remove_edge(res.phi[x], res.phi[y])
    for i, j in host.reduced.edges():
        pair = pair_view(G_next.adj, host.partition.classes[i], host.partition.classes[j])
        if not pipeline_certificate(pair, eps_t, float(d_next[i][j])):
            raise _RoundRestart(3, f"depleted pair ({i},{j}) lost its certificate")
    return G_next


def _conflicts(run: _Run, results: dict[int, UniformEmbedResult]) -> tuple[dict[int, list[list[int]]], int]:
    """Step 3: per template, the set U of host vertices it must move (the ends
    of edges it shares with another template of the batch, then the images
    of its collision vertices), checked against the (U1)/(U2) crowding
    caps; type 4.  Returns each U split by refined class, in U's iteration
    order, and the number of shared edges."""
    params = run.inst.params
    n = run.n
    edge_images = {idx: {frozenset((res.phi[x], res.phi[y]))
                         for x, y in run.templates[idx].graph.edges()}
                   for idx, res in results.items()}
    conflict_count = 0
    U_sets: dict[int, set[int]] = {}
    NU_sets: dict[int, set[int]] = {}
    for idx, res in results.items():
        conflicts = set()
        for jdx in results:
            if jdx != idx:
                conflicts |= edge_images[idx] & edge_images[jdx]
        conflict_count += len(conflicts)
        U = set()
        for e in conflicts:
            U |= set(e)
        for (x, ip, xp) in run.lam_by_tpl.get(idx, ()):
            U.add(res.phi[x])
        U_sets[idx] = U
        # U with its image neighbours; only counted, so its order is free
        NU_sets[idx] = U | {res.phi[b] for e in run.templates[idx].graph.edges()
                            for a, b in (e, e[::-1]) if res.phi[a] in U}
    gamma = len(results) / n
    u1_cap = max(gamma ** (4 / 3) * n, 2.0)
    hits = Counter(v for NU in NU_sets.values() for v in NU)
    if hits and max(hits.values()) > u1_cap:
        raise _RoundRestart(4, "a vertex appears in too many conflict neighbourhoods")
    U_by_class: dict[int, list[list[int]]] = {}
    for idx, res in results.items():
        cmap = {v: j for j, cls in enumerate(res.U_classes) for v in cls}
        m_prime = math.ceil(n / res.K)
        u2_cap = max(gamma ** (2 / 5) * m_prime, math.ceil(params.delta * m_prime))
        per_class = Counter(cmap.get(v, -1) for v in NU_sets[idx])
        if per_class and max(per_class.values()) > u2_cap:
            raise _RoundRestart(4, f"template {idx} has a crowded conflict class")
        U_by_class[idx] = [[] for _ in res.U_classes]
        for v in U_sets[idx]:
            U_by_class[idx][cmap[v]].append(v)
    return U_by_class, conflict_count


def _patch(run: _Run, idx: int, res: UniformEmbedResult, U_by_class: list[list[int]],
           P_next: LabeledGraph, phis: dict[int, dict[int, int]]) -> tuple[dict[int, int], int]:
    """Step 4 for template idx: re-embed a window of each refined class,
    holding that class's vertices of U, through the unused reserve P_next,
    which then loses the template's image edges.  Type 5: no window feeds
    every candidacy row, or the re-embedding fails; type 6: a patch
    hypothesis fails.  Returns the patched embedding and the window size."""
    params = run.inst.params
    phi = res.phi
    inv = {hv: p for p, hv in phi.items()}
    forced = [[inv[v] for v in U_j] for U_j in U_by_class]
    pools = [[p for p in Y_j if p not in f] for Y_j, f in zip(res.Y_classes, map(set, forced))]
    need = max(map(len, forced), default=0)
    m_prime = math.ceil(run.n / res.K)
    base = max(math.ceil(params.delta * m_prime), need)
    if base > 0:
        # the re-embedding needs candidacy degree around 4 inside the patch
        # window, whose density is beta * d0
        base = max(base, math.ceil(4 / max(params.beta * run.inst.d0, 1e-9)))
    cap_window = min(len(c) for c in res.U_classes)
    window = min(base, cap_window)
    if window == 0:
        return dict(phi), 0
    excluded = _collision_images(run, idx, phis)
    # (W1)-(W3)-style hypothesis checks happen inside repatch.  The random
    # part of the window is redrawn (and grown when redraws keep failing)
    # until no candidacy row is starved, since a starved row cannot be
    # matched; a class that cannot be filled ends its draw.
    rows = None
    for _widen in range(6):
        for _redraw in range(4):
            Z_classes: list[list[int]] = []
            for f, pool in zip(forced, pools):
                if window < len(f) or window - len(f) > len(pool):
                    break
                Z_classes.append(f + run.rng.sample(pool, window - len(f)))
            else:
                cand = _patch_rows(run.A_rows[idx], phi, run.templates[idx].graph.adj, Z_classes,
                                   P_next, excluded)
                if min(map(popcount, cand.values()), default=2) >= 2:
                    rows = cand
                    break
        if rows is not None or window >= cap_window:
            break
        window = min(max(window + 3, int(window * 3 / 2)), cap_window)
    if rows is None:
        raise _RoundRestart(5, f"template {idx}: patch window starved at every width")
    R = run.inst.host.reduced
    try:
        phi2 = repatch(run.templates[idx].graph, P_next, blow_up(R, res.K),
                       expand_matrix(run.beta_mat, R.r, res.K), phi, rows, Z_classes,
                       beta_prime=float(params.beta) * run.inst.d0, delta=params.delta,
                       retries=params.embed_retry_cap, rng=run.rng, A0_rows=run.A_rows[idx])
    except (PatchFailure, HypothesisViolation) as exc:
        raise _RoundRestart(6 if isinstance(exc, HypothesisViolation) else 5,
                            f"template {idx}: {exc}")
    for x, y in run.templates[idx].graph.edges():
        P_next.remove_edge(phi2[x], phi2[y])
    return phi2, sum(len(z) for z in Z_classes)


def _collision_images(run: _Run, idx: int, phis: dict[int, dict[int, int]]) -> dict[int, set[int]]:
    """Pattern vertex of template idx -> the images its collision partners
    already hold, in this round (phis) or an earlier one."""
    excluded: dict[int, set[int]] = {}
    for (x, ip, xp) in run.lam_by_tpl.get(idx, ()):
        partner = phis.get(ip) or run.embeddings[ip]
        if partner is not None and xp in partner:
            excluded.setdefault(x, set()).add(partner[xp])
    return excluded


def _collision_thinned_candidacy(run: _Run, idx: int):
    """Step-1 candidacy: exclude images taken by earlier collision partners.

    A class holding a constrained vertex is thinned to density d0, or to
    the smallest constrained row's density when that is lower: the
    embedding still checks the class against d0-windows, which a much
    sparser class misses at every vertex.  A row that cannot reach the
    target raises ``InfeasibleTargetSets``, which restarts the round."""
    params = run.inst.params
    host = run.inst.host
    r = host.reduced.r
    base = run.A_list[idx]
    excluded = _collision_images(run, idx, {})
    if not excluded:
        return base if base is not None else [None] * r
    out: list[BipartiteGraph] = []
    for j in range(r):
        Xj = list(run.templates[idx].partition.classes[j])
        Vj = list(host.partition.classes[j])
        if base is None or base[j] is None:
            Bj = BipartiteGraph(len(Xj), len(Vj), left_ids=Xj, right_ids=Vj)
            Bj.adj = [(1 << len(Vj)) - 1] * len(Xj)
        else:
            Bj = base[j].copy()
        vpos = {v: b for b, v in enumerate(Vj)}
        constrained = {a: Bj.adj[a] & ~sum(1 << vpos[hv] for hv in excluded[x] if hv in vpos)
                       for a, x in enumerate(Xj) if x in excluded}
        if constrained:
            d0_target = min([run.inst.d0] + [popcount(mask) / len(Vj) for mask in constrained.values()])
            Bj = restrict_super_regular(Bj, constrained, d0_target, run.rng, eps=params.eps)
        out.append(Bj)
    return out


def _patch_rows(A_rows: dict[int, int], phi: dict[int, int], H_adj: list[int],
                Z_classes: list[list[int]], P_next: LabeledGraph,
                excluded: dict[int, set[int]]) -> dict[int, int]:
    """Candidacy rows for the patch, as bitsets over host ids: initial
    candidacy cut to the class window, intersected with the patch-graph
    neighbourhoods of all embedded out-of-window pattern neighbours (rows
    ``H_adj`` of the template), minus collision images."""
    zmask = mask_of(z for cls in Z_classes for z in cls)
    rows: dict[int, int] = {}
    for cls in Z_classes:
        wmask = mask_of(phi[z] for z in cls)
        for z in cls:
            row = wmask & A_rows.get(z, -1) & ~mask_of(excluded.get(z, ()))
            for ynb in iter_bits(H_adj[z] & ~zmask):
                row &= P_next.adj[phi[ynb]]
            rows[z] = row
    return rows


def _assert_packing(run: _Run, embeddings) -> set[frozenset[int]]:
    """(T1)/(T2)/(T4) asserted before returning success; returns the image edges."""
    host = run.inst.host
    seen: set[frozenset[int]] = set()
    for idx, (tpl, phi) in enumerate(zip(run.templates, embeddings)):
        if phi is None:
            raise AssertionError(f"template {idx} has no embedding")
        vals = list(phi.values())
        if len(vals) != len(set(vals)):
            raise AssertionError(f"embedding {idx} not injective")
        for x, y in tpl.graph.edges():
            e = frozenset((phi[x], phi[y]))
            if not host.graph.has_edge(phi[x], phi[y]):
                raise AssertionError(f"template {idx} uses a non-host edge")
            if e in seen:
                raise AssertionError(f"templates share the edge {sorted(e)}")
            seen.add(e)
        for p, row in run.A_rows[idx].items():
            if not (row >> phi[p]) & 1:
                raise AssertionError(f"(T1) violated for template {idx}")
    for (i, x, ip, xp) in run.inst.lam:
        if embeddings[i][x] == embeddings[ip][xp]:
            raise AssertionError("(T4) violated: a collision pair shares an image")
    return seen


# ---------------------------------------------------------------------------
# theorem-level drivers


def pack_partite(host: PartitionedGraph, families: list[PartitionedGraph], params: ParamSet,
                 rng, batch_size: int = 1, gamma_n: int = 1):
    """Batch the family, stack each batch into a near-equiregular template,
    pack the templates, then compose back to per-member embeddings.

    ``batch_size`` defaults to singleton batches: the stacked per-pair
    degree drives the refinement constant quadratically, so only callers
    with matching-like members should raise it.

    Returns (member_embeddings, PackingResult, batch_info).
    """
    from .balancer import stack_family
    from .verifier import verify_packing

    r = host.reduced.r
    n = max(host.partition.sizes())
    # driver precondition: per-pair edge mass within the (1 - alpha) budget
    for i, j in host.reduced.edges():
        mass = sum(_pair_mass(L, i, j) for L in families)
        budget = (1 - params.alpha) * float(host.densities[i][j]) * n * n
        if mass > budget + 1e-9:
            raise BadParams(
                f"family pair ({i},{j}) carries {mass:.0f} edges, budget {budget:.0f}")
    off_pairs = [(i, j) for i in range(r) for j in range(i + 1, r)
                 if not host.reduced.has_edge(i, j)]
    for i, j in off_pairs:
        if any(_pair_mass(L, i, j) for L in families):
            raise BadParams(f"family has edges on the non-edge ({i},{j}) of the reduced graph")
    batches = [families[i:i + batch_size] for i in range(0, len(families), batch_size)]

    templates = []
    k_mats = []
    taus_all = []
    for batch in batches:
        kmat0 = [[0] * r for _ in range(r)]
        H, taus, J, kmat_eff = stack_family(batch, host.reduced, kmat0, params.C, rng)
        templates.append(H)
        k_mats.append(kmat_eff)
        taus_all.append(taus)

    inst = PackInstance(host=host, templates=templates, k_mats=k_mats,
                        A_list=[None] * len(templates), params=params, gamma_n=gamma_n)
    result = run_main_packing(inst, rng)

    member_embeddings: list[dict[int, int]] = []
    for b_idx, batch in enumerate(batches):
        phi_t = result.embeddings[b_idx]
        for ell, L in enumerate(batch):
            tau = taus_all[b_idx][ell]
            member_embeddings.append({x: phi_t[tau[x]] for x in range(L.graph.n)})
    report = verify_packing(host, families, member_embeddings)
    if not report.ok:
        raise AssertionError("composed member embeddings failed verification: "
                             + "; ".join(report.violations[:3]))
    return member_embeddings, result, {"batches": len(batches), "batch_size": batch_size}


def _pair_mass(L: PartitionedGraph, i: int, j: int) -> float:
    mask = mask_of(L.partition.classes[j])
    return sum(popcount(L.graph.adj[u] & mask) for u in L.partition.classes[i])


def quasirandomness_check(G: LabeledGraph, p: float, eps: float) -> list[str]:
    """Degree and codegree conditions of the quasirandom driver."""
    errs = []
    n = G.n
    # in K_n a degree is n - 1 and a codegree n - 2, the p = 1 targets
    deg = p * (n - 1)
    codeg = p * p * (n - 2)
    for v in range(n):
        if abs(G.degree(v) - deg) > eps * deg + 1e-9:
            errs.append(f"vertex {v} has degree {G.degree(v)}, outside (1 +- {eps}) p (n - 1)")
            break
    bad = 0
    for u in range(n):
        for v in range(u + 1, n):
            co = popcount(G.adj[u] & G.adj[v])
            if abs(co - codeg) > eps * codeg + 1e-9:
                bad += 1
    if bad > eps * n * n:
        errs.append(f"{bad} vertex pairs have atypical codegree (allowed {eps * n * n:.0f})")
    return errs


def merge_small_members(H_list: list[LabeledGraph], n: int, min_edges: int) -> list[LabeledGraph]:
    """Overlay members with few edges pairwise onto disjoint vertex sets,
    then pad at most one leftover small member with a path forest."""
    big = [H for H in H_list if H.num_edges() >= min_edges]
    small = sorted((H for H in H_list if H.num_edges() < min_edges), key=lambda H: H.num_edges())
    while len(small) >= 2:
        a = small.pop(0)
        b = small.pop(0)
        free_a = [v for v in range(n) if a.degree(v) == 0]
        used_b = sorted(v for v in range(n) if b.degree(v) > 0)
        if len(used_b) > len(free_a):
            small = [a, b] + small
            break
        relabel = dict(zip(used_b, free_a))
        merged = a.copy()
        for u, v in b.edges():
            merged.add_edge(relabel[u], relabel[v])
        if merged.num_edges() >= min_edges:
            big.append(merged)
        else:
            small.insert(0, merged)
    if small:
        H = small.pop(0).copy()
        free = [v for v in range(n) if H.degree(v) == 0]
        idx = 0
        while H.num_edges() < min_edges and idx + 1 < len(free):
            H.add_edge(free[idx], free[idx + 1])
            idx += 2
        big.append(H)
        big.extend(small)
    return big


def color_members(H_list: list[LabeledGraph], R: ReducedGraph, rng) -> list[PartitionedGraph]:
    """Equitably colour each member into R.r classes and assign colour
    classes to host classes so that the family's per-pair edge mass stays
    even across the class pairs (R is the complete reduced graph).

    Members are placed in order.  Each starts from its colour classes in
    the colouring's own order (by descending size, then lexicographically)
    and takes pairwise swaps of host classes while they strictly lower the
    sum over pairs of mass already placed times the member's own mass,
    which is the sum of squared pair loads up to a constant.  No randomness
    is drawn beyond the colouring, and at r = 2 no swap can improve, so
    that order stands.
    """
    from .coloring import try_equitable_coloring

    r = R.r
    load = [[0] * r for _ in range(r)]
    members = []
    for H in H_list:
        col = try_equitable_coloring(H, r, rng)
        if col is None:
            raise BadParams("a member admits no equitable coloring at this class count; "
                            "raise r above its maximum degree")
        classes = col.classes
        masks = [mask_of(c) for c in classes]
        mass = [[sum(popcount(H.adj[u] & masks[b]) for u in classes[a]) for b in range(r)]
                for a in range(r)]
        slot = list(range(r))  # colour class a goes to host class slot[a]

        def cost():
            return sum(mass[a][b] * load[slot[a]][slot[b]]
                       for a in range(r) for b in range(a + 1, r))

        best = cost()
        improved = True
        while improved:
            improved = False
            for a in range(r):
                for b in range(a + 1, r):
                    slot[a], slot[b] = slot[b], slot[a]
                    c = cost()
                    if c < best:
                        best, improved = c, True
                    else:
                        slot[a], slot[b] = slot[b], slot[a]
        placed = [None] * r
        for a in range(r):
            placed[slot[a]] = classes[a]
            for b in range(r):
                load[slot[a]][slot[b]] += mass[a][b]
        members.append(PartitionedGraph(H, VertexPartition.from_lists(placed, n=H.n), R))
    return members


def pack_quasirandom(G: LabeledGraph, H_list: list[LabeledGraph], alpha: float, p: float,
                     Delta: int, params: ParamSet, rng, r: int | None = None):
    """Partition the quasirandom host, drop within-class edges, stack and pack.

    Raises BadParams up front when the family, after merging small
    members, exceeds (1 - params.alpha) of the cross-class host edges at
    the chosen class count r: pack_partite would refuse some pair anyway.

    Returns (embeddings into G, PackingResult, leftover stats).
    """
    from .verifier import leftover_stats

    n = G.n
    total = sum(H.num_edges() for H in H_list)
    if total > (1 - alpha) * p * n * (n - 1) / 2 + 1e-9:
        raise BadParams("family exceeds the (1-alpha) edge budget")
    errs = quasirandomness_check(G, p, params.eps)
    if errs:
        raise QuasirandomnessFailed("; ".join(errs[:3]))
    for H in H_list:
        if H.n != n:
            raise BadParams("every member must span the host vertex count")
        if H.max_degree() > Delta:
            raise BadParams("member degree above the stated bound")

    H_list = merge_small_members(H_list, n, max(n // 4, 1))
    if r is None:
        r = next((cand for cand in range(Delta + 1, n) if n % cand == 0), None)
        if r is None:
            raise BadParams("no divisor of n suits the class count; pass r explicitly")
    if n % r != 0:
        raise BadParams("class count must divide the host order in equal-class mode")
    n_class = n // r
    # the partite host keeps only the C(r,2) cross-class pairs, and
    # pack_partite holds each to (1 - params.alpha) of its p n_class^2 edges
    total = sum(H.num_edges() for H in H_list)
    cross = p * n_class * n_class * r * (r - 1) / 2
    budget = (1 - params.alpha) * cross
    if total > budget + 1e-9:
        raise BadParams(f"at r={r} the host keeps {cross:.0f} cross-class edges; "
                        f"family carries {total} edges, budget {budget:.0f}")

    # random host partition until every pair certifies
    R = ReducedGraph(r, [(i, j) for i in range(r) for j in range(i + 1, r)])
    host_pg = None
    for _ in range(params.retry_cap):
        ids = list(range(n))
        rng.shuffle(ids)
        partition = VertexPartition.from_lists(
            [sorted(ids[i * n_class:(i + 1) * n_class]) for i in range(r)], n)
        class_of = partition.class_of()
        pruned = LabeledGraph(n, ((u, v) for u, v in G.edges() if class_of[u] != class_of[v]))
        cand = PartitionedGraph(pruned, partition, R,
                                densities=[[Fraction(p).limit_denominator(10 ** 6) if i != j else Fraction(0)
                                            for j in range(r)] for i in range(r)])
        if all(pipeline_certificate(cand.pair_view(i, j), params.eps, p)
               for i, j in R.edges()):
            host_pg = cand
            break
    if host_pg is None:
        raise QuasirandomnessFailed("no certified host partition found")

    members = color_members(H_list, R, rng)
    embeddings, result, info = pack_partite(host_pg, members, params, rng)
    stats = leftover_stats(host_pg, members, embeddings)
    stats["delta_J_vs_4apn"] = (stats["delta_J"], 4 * alpha * p * n)
    return embeddings, result, stats


def pack_bipartite(G_pair: BipartiteGraph, H_pairs: list[BipartiteGraph], alpha: float,
                   params: ParamSet, rng, d: float | None = None):
    """Bipartite driver: split the large side, reduce to a 3-class path host.

    The host has sides (A, B); each member is padded to (|A|, |B|), its
    B-side split to balance the two half-pair edge counts, and everything
    is handed to the partite pipeline on the path 2-1-3.
    """
    nA, nB = G_pair.nl, G_pair.nr
    if d is None:
        d = G_pair.density()
    total = sum(H.num_edges() for H in H_pairs)
    if total > (1 - alpha) * G_pair.num_edges() + 1e-9:
        raise BadParams("family exceeds the (1-alpha) edge budget")
    for H in H_pairs:
        if H.nl > nA or H.nr > nB:
            raise BadParams("a member exceeds the host side sizes")
    h2 = nB // 2
    sizes = [nA, h2, nB - h2]
    R = ReducedGraph(3, [(0, 1), (0, 2)])

    G = LabeledGraph(nA + nB)
    G.add_pair(G_pair.adj, range(nA), range(nA, nA + nB))
    dfrac = Fraction(d).limit_denominator(10 ** 6)
    # host split of B, resampled until both pairs certify
    host_pg = None
    for _ in range(params.retry_cap):
        ids = list(range(nB))
        rng.shuffle(ids)
        B1 = sorted(ids[:h2])
        B2 = sorted(ids[h2:])
        classes = [list(range(nA)), [nA + v for v in B1], [nA + v for v in B2]]
        cand = PartitionedGraph(G, VertexPartition.from_lists(classes, nA + nB), R,
                                densities=[[Fraction(0), dfrac, dfrac],
                                           [dfrac, Fraction(0), Fraction(0)],
                                           [dfrac, Fraction(0), Fraction(0)]])
        if all(pipeline_certificate(cand.pair_view(i, j), params.eps, d)
               for i, j in R.edges()):
            host_pg = cand
            break
    if host_pg is None:
        raise RetriesExhausted("no certified host split found")

    members = []
    for H in H_pairs:
        # balanced split of the member's B side, best of a few resamples
        best = None
        for _ in range(20):
            ids = list(range(nB))
            rng.shuffle(ids)
            m1 = mask_of(ids[:h2])
            imbalance = abs(H.num_edges() - 2 * sum(popcount(row & m1) for row in H.adj))
            if best is None or imbalance < best[0]:
                best = (imbalance, m1)
        m1 = best[1]
        L = LabeledGraph(nA + nB)
        L.add_pair(H.adj, range(H.nl), range(nA, nA + H.nr))
        classes = [list(range(nA)),
                   [nA + v for v in range(nB) if m1 >> v & 1],
                   [nA + v for v in range(nB) if not m1 >> v & 1]]
        members.append(PartitionedGraph(L, VertexPartition.from_lists(classes, nA + nB), R))

    embeddings, result, info = pack_partite(host_pg, members, params, rng)
    return embeddings, result, info
