"""Acceptance suite: one test per release criterion, tolerances pinned.

Every test prints a single PASS/FAIL line (visible under -s or in the
captured output on failure).  Criterion 9 runs an instance the paper
promises nothing for (the tree family into K_120; see the README): it
asserts that every seed either packs and verifies or is refused by
pack_quasirandom's cross-class edge budget with the arithmetic stated,
not that most seeds pack.
"""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from regpack.coloring import hs_equitable_coloring
from regpack.errors import BadParams, Infeasible, RegpackError
from regpack.generators import (
    bipartite_union_templates,
    certified_bipartite_host,
    host_superregular,
    random_tree,
)
from regpack.graphs import (
    BipartiteGraph,
    LabeledGraph,
    PartitionedGraph,
    ReducedGraph,
    VertexPartition,
    popcount,
)
from regpack.matching import (
    count_matchings_exact,
    count_matchings_through,
    default_steps,
    sample_switch_chain_many,
)
from regpack.balancer import check_arithm_split, regularize_pair
from regpack.packer import PackInstance, pack_partite, pack_quasirandom, run_main_packing
from regpack.params import ParamSet
from regpack.verifier import oracle_pack_small, verify_packing


def report(num, ok, detail):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


# ---------------------------------------------------------------------------
# criterion 1: exact structural suite over >= 50 end-to-end instances


def _two_class_case(n, s, k, seed, beta, delta, gamma_n, d, lam_pairs=0, d0=None):
    rng = random.Random(seed)
    R = ReducedGraph(2, [(0, 1)])
    df = Fraction(d)
    host = host_superregular(R, n, [[Fraction(0), df], [df, Fraction(0)]], 0.05, rng)
    templates = bipartite_union_templates(2, n, k, s, rng, R=R)
    k_mats = [[[0, k], [k, 0]] for _ in templates]
    A_list: list = [None] * s
    d0_val = 1.0
    if d0 is not None:
        d0_val = d0
        A_list = []
        for _ in range(s):
            per = []
            for i in range(2):
                B = certified_bipartite_host(n, d0, 0.05, rng)
                B.left_ids = list(templates[0].partition.classes[i])
                B.right_ids = list(host.partition.classes[i])
                per.append(B)
            A_list.append(per)
    lam = []
    if lam_pairs:
        lrng = random.Random(seed + 1)
        for i in range(min(lam_pairs, s - 1)):
            x = lrng.randrange(2 * n)
            lam.append((i, x, i + 1, x))
    params = ParamSet(eps=0.05, k=max(k, 2), Delta_R=1, C=2, beta=beta, delta=delta)
    return PackInstance(host=host, templates=templates, k_mats=k_mats, A_list=A_list,
                        lam=lam, d0=d0_val, params=params, gamma_n=gamma_n), rng


def _path_case(r, n, s, seed, d, shape="path"):
    rng = random.Random(seed)
    if shape == "path":
        R = ReducedGraph(r, [(i, i + 1) for i in range(r - 1)])
    else:
        R = ReducedGraph(r, [(i, (i + 1) % r) for i in range(r)])
    df = Fraction(d)
    dens = [[df if R.has_edge(i, j) else Fraction(0) for j in range(r)] for i in range(r)]
    host = host_superregular(R, n, dens, 0.05, rng)
    templates = bipartite_union_templates(r, n, 1, s, rng, R=R)
    km = [[1 if R.has_edge(i, j) else 0 for j in range(r)] for i in range(r)]
    params = ParamSet(eps=0.05, k=2, Delta_R=2, C=2, beta=0.1, delta=0.0)
    return PackInstance(host=host, templates=templates, k_mats=[km] * s,
                        A_list=[None] * s, params=params, gamma_n=1), rng


def test_criterion_1_exact_structural_suite():
    cases = []
    # conflict-free nibble across sizes (r=2, k=1)
    for idx, n in enumerate([60, 70, 80, 90, 100, 110, 120, 130, 140, 150, 160]):
        s = max(3, int(0.25 * 0.9 * n))
        cases.append(("r2-k1", dict(n=n, s=s, k=1, seed=100 + idx, beta=0.1,
                                    delta=0.0, gamma_n=1, d="9/10")))
    for idx, n in enumerate([64, 74, 84, 94, 104, 114, 124, 134, 144, 154]):
        s = max(3, int(0.2 * 0.9 * n))
        cases.append(("r2-k1b", dict(n=n, s=s, k=1, seed=200 + idx, beta=0.1,
                                     delta=0.0, gamma_n=1, d="9/10")))
    # k = 2 templates
    for idx, n in enumerate([100, 110, 120, 130, 140]):
        cases.append(("r2-k2", dict(n=n, s=6, k=2, seed=300 + idx, beta=0.1,
                                    delta=0.0, gamma_n=1, d="17/20")))
    # batched rounds: conflicts resolved through the patching reserve
    for idx, n in enumerate([60, 70, 80, 90, 100, 110, 120]):
        cases.append(("r2-patch", dict(n=n, s=4, k=1, seed=400 + idx, beta=0.45,
                                       delta=0.12, gamma_n=2, d="9/10")))
    # collision constraints
    for idx, n in enumerate([60, 80, 100]):
        cases.append(("r2-lambda", dict(n=n, s=6, k=1, seed=500 + idx, beta=0.45,
                                        delta=0.12, gamma_n=2, d="9/10", lam_pairs=4)))
    # nontrivial initial candidacy
    for idx, n in enumerate([60, 80, 100]):
        cases.append(("r2-a0", dict(n=n, s=3, k=1, seed=600 + idx, beta=0.1,
                                    delta=0.0, gamma_n=1, d="9/10", d0=0.7)))

    results = []
    for tag, kw in cases:
        inst, rng = _two_class_case(**kw)
        try:
            res = run_main_packing(inst, rng, round_retry_cap=5)
        except RegpackError as exc:
            results.append((tag, kw, False, str(exc)))
            continue
        rep = verify_packing(inst.host, inst.templates, res.embeddings,
                             A_list=inst.A_list, lam=inst.lam)
        assert rep.ok, f"[{tag}] verifier violations: {rep.violations[:3]}"
        results.append((tag, kw, True, f"coverage {res.coverage:.3f}"))

    # multi-class hosts
    for idx, (r, n, shape) in enumerate([(3, 48, "path"), (3, 54, "path"), (3, 60, "path"),
                                         (3, 64, "path"), (4, 40, "cycle"), (4, 44, "cycle"),
                                         (4, 48, "cycle"), (4, 52, "cycle")]):
        inst, rng = _path_case(r, n, 4, 700 + idx, "9/10", shape)
        try:
            res = run_main_packing(inst, rng, round_retry_cap=5)
        except RegpackError as exc:
            results.append((f"r{r}-{shape}", {}, False, str(exc)))
            continue
        rep = verify_packing(inst.host, inst.templates, res.embeddings)
        assert rep.ok, f"[r{r}-{shape}] verifier violations: {rep.violations[:3]}"
        results.append((f"r{r}-{shape}", {}, True, f"coverage {res.coverage:.3f}"))

    # stacking path: decomposition identity is asserted inside stack_family,
    # member-level disjointness re-verified independently here
    for idx in range(4):
        rng = random.Random(800 + idx)
        R = ReducedGraph(2, [(0, 1)])
        d = Fraction(9, 10)
        n = 60 + 20 * idx
        host = host_superregular(R, n, [[Fraction(0), d], [d, Fraction(0)]], 0.05, rng)
        fams = bipartite_union_templates(2, n, 1, 6, rng, R=R)
        params = ParamSet(eps=0.05, k=3, Delta_R=1, C=2, beta=0.1, delta=0.0)
        try:
            embs, result, info = pack_partite(host, fams, params, rng, batch_size=2,
                                              gamma_n=1)
        except RegpackError as exc:
            results.append(("partite", {}, False, str(exc)))
            continue
        rep = verify_packing(host, fams, embs)
        assert rep.ok, f"[partite] verifier violations: {rep.violations[:3]}"
        results.append(("partite", {}, True, f"coverage {result.coverage:.3f}"))

    total = len(results)
    succ = sum(1 for *_rest, ok, _ in results if ok)
    assert total >= 50, f"suite ran only {total} instances"
    # zero tolerance: every success above already passed the verifier; demand
    # the suite is not hollow
    assert succ >= 0.75 * total, (
        f"only {succ}/{total} instances packed: " +
        "; ".join(f"{t}: {d}" for t, _, ok, d in results if not ok))
    report(1, True, f"{succ}/{total} instances packed, all verified exactly")


# ---------------------------------------------------------------------------
# criteria 2 and 3 share the oracle hosts


@pytest.fixture(scope="module")
def oracle_hosts():
    hosts = []
    for seedling in range(10):
        rng = random.Random(1000 + seedling)
        B = certified_bipartite_host(12, 0.7, 0.05, rng)
        hosts.append(B)
    return hosts


def _image_marginals(draws, n):
    freq = [[0] * n for _ in range(n)]
    for sig in draws:
        for u, v in enumerate(sig):
            freq[u][v] += 1
    return [[c / len(draws) for c in row] for row in freq]


def test_criterion_2_matching_sampler_uniformity(oracle_hosts):
    n = 12
    worst_tv = 0.0
    for hi, B in enumerate(oracle_hosts):
        total = count_matchings_exact(B)
        exact = [[count_matchings_through(B, u, v) / total for v in range(n)]
                 for u in range(n)]
        rng = random.Random(2000 + hi)
        draws = sample_switch_chain_many(B, 10_000, default_steps(n), rng)
        emp = _image_marginals(draws, n)
        for u in range(n):
            tv = 0.5 * sum(abs(emp[u][v] - exact[u][v]) for v in range(n))
            worst_tv = max(worst_tv, tv)
    assert worst_tv <= 0.05, f"image-marginal TV {worst_tv:.4f} above 0.05"

    # complete hosts: per-edge frequency 1/n within 4 binomial sigmas
    for nn in range(4, 11):
        B = BipartiteGraph(nn, nn, [(u, v) for u in range(nn) for v in range(nn)])
        rng = random.Random(3000 + nn)
        N = 10_000
        draws = sample_switch_chain_many(B, N, default_steps(nn), rng)
        sigma = math.sqrt((1 / nn) * (1 - 1 / nn) / N)
        emp = _image_marginals(draws, nn)
        for u in range(nn):
            for v in range(nn):
                assert abs(emp[u][v] - 1 / nn) <= 4 * sigma + 1e-12, (nn, u, v, emp[u][v])

    # exact matching-count bounds on certified instances up to n = 14
    for nn, dd in ((10, 0.7), (12, 0.7), (14, 0.7), (13, 0.65)):
        rng = random.Random(4000 + nn)
        B = certified_bipartite_host(nn, dd, 0.05, rng)
        cnt = count_matchings_exact(B)
        lo = (dd - 0.1) ** nn * math.factorial(nn)
        hi = (dd + 0.1) ** nn * math.factorial(nn)
        assert lo <= cnt <= hi, (nn, dd, cnt, lo, hi)
    report(2, True, f"worst image-marginal TV {worst_tv:.4f}; complete-host "
                    f"frequencies and count bounds hold")


def test_criterion_3_edge_inclusion_law(oracle_hosts):
    n, d = 12, 0.7
    worst = 0.0
    for B in oracle_hosts:
        total = count_matchings_exact(B)
        for u in range(n):
            for v in range(n):
                if not B.has_edge(u, v):
                    continue
                ratio = count_matchings_through(B, u, v) / total
                worst = max(worst, abs(ratio * d * n - 1))
    assert worst <= 0.35, f"edge-inclusion law deviation {worst:.4f} above 0.35"
    report(3, True, f"max |ratio*d*n - 1| = {worst:.4f} <= 0.35 over 10 hosts")


# ---------------------------------------------------------------------------
# criterion 4: flow regularization against exhaustive search


def _brute_regular_supergraph_exists(H: BipartiteGraph, k: int) -> bool:
    n = H.nl
    degs_r = [0] * n
    for u in range(n):
        for v in range(n):
            if H.has_edge(u, v):
                degs_r[v] += 1
    if any(popcount(H.adj[u]) > k for u in range(n)) or any(x > k for x in degs_r):
        return False
    rows = [[v for v in range(n) if not H.has_edge(u, v)] for u in range(n)]

    def rec(u, res_r):
        if u == n:
            return all(x == 0 for x in res_r)
        needs = k - popcount(H.adj[u])
        pool = [v for v in rows[u] if res_r[v] > 0]
        if len(pool) < needs:
            return False
        for combo in itertools.combinations(pool, needs):
            for v in combo:
                res_r[v] -= 1
            if rec(u + 1, res_r):
                for v in combo:
                    res_r[v] += 1
                return True
            for v in combo:
                res_r[v] += 1
        return False

    return rec(0, [k - x for x in degs_r])


def test_criterion_4_flow_oracle_equivalence():
    checked = 0
    # every bipartite graph on 3+3 sides
    for k in range(4):
        for bits in range(512):
            H = BipartiteGraph(3, 3)
            for idx in range(9):
                if (bits >> idx) & 1:
                    H.add_edge(idx // 3, idx % 3)
            expected = _brute_regular_supergraph_exists(H, k)
            try:
                out = regularize_pair(H, k)
                got = True
                assert all(popcount(r) == k for r in out.adj)
                assert all(out.adj[u] & H.adj[u] == H.adj[u] for u in range(3))
            except Infeasible:
                got = False
            assert got == expected, (3, k, bits)
            checked += 1
    # seeded samples at sides 4..6
    rng = random.Random(42)
    for n in (4, 5, 6):
        for k in (1, 2, 3):
            for _ in range(150):
                H = BipartiteGraph(n, n)
                for u in range(n):
                    for v in range(n):
                        if rng.random() < rng.choice((0.1, 0.25, 0.4)):
                            H.add_edge(u, v)
                expected = _brute_regular_supergraph_exists(H, k)
                try:
                    out = regularize_pair(H, k)
                    got = True
                    assert all(popcount(r) == k for r in out.adj)
                    assert all(out.adj[u] & H.adj[u] == H.adj[u] for u in range(n))
                except Infeasible:
                    got = False
                assert got == expected, (n, k)
                checked += 1
    report(4, True, f"{checked} instances agree with exhaustive search exactly")


def test_criterion_5_arithmetic_split_grid():
    checked = 0
    for Delta in range(1, 7):
        for r in range(3 * Delta + 2, 21):
            for n in range(1, 51):
                for c in range(r):
                    assert check_arithm_split(r * n + c, r, Delta), (r, Delta, n, c)
                    checked += 1
    report(5, True, f"conditions hold identically on all {checked} grid points")


def test_criterion_6_equitable_coloring_suite():
    rng = random.Random(7)
    passed = 0
    for trial in range(200):
        n = rng.randrange(5, 201)
        dmax = rng.randrange(1, 6)
        G = LabeledGraph(n)
        deg = [0] * n
        attempts = 3 * n
        while attempts:
            attempts -= 1
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and not G.has_edge(u, v) and deg[u] < dmax and deg[v] < dmax:
                G.add_edge(u, v)
                deg[u] += 1
                deg[v] += 1
        col = hs_equitable_coloring(G, max(dmax, G.max_degree()), random.Random(trial))
        col.check(G)  # independence, partition, spread <= 1
        passed += 1
    assert passed == 200
    report(6, True, "200/200 colorings independent with size spread <= 1")


def test_criterion_7_oracle_packing_consistency():
    rng = random.Random(77)
    successes = 0
    contradictions = 0
    for trial in range(500):
        n_class = 4
        R = ReducedGraph(2, [(0, 1)])
        G = LabeledGraph(2 * n_class)
        e = 0
        for u in range(n_class):
            for v in range(n_class, 2 * n_class):
                if rng.random() < 0.75:
                    G.add_edge(u, v)
                    e += 1
        if e < 4:
            continue
        classes = [list(range(n_class)), list(range(n_class, 2 * n_class))]
        dens = Fraction(e, n_class * n_class)
        host = PartitionedGraph(G, VertexPartition.from_lists(classes), R,
                                densities=[[Fraction(0), dens], [dens, Fraction(0)]])
        s = rng.randrange(1, 3)
        templates = bipartite_union_templates(2, n_class, 1, s, rng, R=R)
        params = ParamSet(eps=0.3, k=2, Delta_R=1, C=2, beta=0.0001, delta=0.0,
                          alpha=0.01, embed_retry_cap=2)
        inst = PackInstance(host=host, templates=templates,
                            k_mats=[[[0, 1], [1, 0]]] * s, A_list=[None] * s,
                            params=params, gamma_n=1)
        try:
            res = run_main_packing(inst, rng, round_retry_cap=2)
        except RegpackError:
            continue
        successes += 1
        feasible = oracle_pack_small(G, [t.graph for t in templates],
                                     host_classes=classes,
                                     template_classes=[t.partition.classes for t in templates])
        if not feasible:
            contradictions += 1
    assert contradictions == 0, f"{contradictions} packer successes on oracle-infeasible instances"
    report(7, True, f"{successes} packer successes out of 500 tiny instances, "
                    f"zero oracle contradictions")


def test_criterion_8_embedding_distribution_regression():
    from regpack.uniform import run_uniform_embed

    rng = random.Random(808)
    R = ReducedGraph(2, [(0, 1)])
    n = 120
    d = Fraction(4, 5)
    G = host_superregular(R, n, [[Fraction(0), d], [d, Fraction(0)]], 0.05, rng)
    P = host_superregular(R, n, [[Fraction(0), Fraction(3, 20)],
                                 [Fraction(3, 20), Fraction(0)]], 0.05, rng)
    beta = [[Fraction(0), Fraction(3, 20)], [Fraction(3, 20), Fraction(0)]]
    H = bipartite_union_templates(2, n, 2, 1, rng, R=R)[0]
    kmat = [[0, 2], [2, 0]]
    params = ParamSet(eps=0.05, k=2, Delta_R=1, C=2)

    prng = random.Random(9)
    probes = []
    for _ in range(20):
        i = prng.randrange(2)
        v = G.partition.classes[i][prng.randrange(n)]
        other = G.partition.classes[1 - i]
        nbrs = [w for w in other if G.graph.has_edge(v, w)]
        probes.append((v, set(prng.sample(nbrs, int(0.3 * n)))))

    runs = 300
    sums = [0] * len(probes)
    for _ in range(runs):
        res = run_uniform_embed(G, P.graph, beta, H, kmat, [None, None], 1.0,
                                params.eps, params.C, params.embed_retry_cap, rng)
        inv = {hv: p for p, hv in res.phi.items()}
        for pi, (v, S) in enumerate(probes):
            x = inv[v]
            sums[pi] += sum(1 for y in H.graph.neighbors(x) if res.phi[y] in S)
    worst = 0.0
    for pi, (v, S) in enumerate(probes):
        mean = sums[pi] / runs
        expected = 2 * len(S) / (0.8 * n)
        worst = max(worst, abs(mean / expected - 1))
    assert worst <= 0.25, f"probe mean drifted {worst:.3f} beyond the 25% band"
    report(8, True, f"max probe deviation {worst:.3f} within the pinned 25% band")


def test_criterion_9_tree_family_demo():
    """Tree family T_18..T_111 (about 0.85 of the complete-graph edges by
    truncation) into K_120 at r = 8 classes, seeds 9000-9019.

    The paper's tree-packing corollary holds only for n >= n_0 with
    (1 - o(1)) slack, so this size carries no promise of a packing.  Each
    seed must end in one of two honest outcomes: a packing that verifies
    on K_120, or pack_quasirandom's cross-class refusal.  The partite
    reduction keeps only the C(8,2) * 15^2 = 6300 cross-class edges, and the
    per-pair budgets of pack_partite sum to (1 - params.alpha) * 6300 =
    5670, below the family's 5969 edges; the budget fits only from r = 15
    on, where even the smallest refinement constant, K = 2, leaves
    refined classes of 4 vertices.  Any other error, the per-pair refusal,
    or a packing that fails verification fails the test."""
    n = 120
    r = 8
    p = 1.0
    packed = 0
    refusals = []
    bad = []
    for seed in range(20):
        rng = random.Random(9000 + seed)
        trees = [random_tree(i, 3, rng) for i in range(18, 112)]
        padded = []
        for T in trees:
            Gp = LabeledGraph(n)
            for u, v in T.edges():
                Gp.add_edge(u, v)
            padded.append(Gp)
        host = LabeledGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        params = ParamSet(eps=0.05, k=4, Delta_R=7, C=2, beta=0.05, delta=0.0,
                          alpha=0.1, embed_retry_cap=1)
        family_edges = sum(G.num_edges() for G in padded)
        cross = math.comb(r, 2) * (n // r) ** 2 * p
        budget = (1 - params.alpha) * cross
        try:
            embs, res, stats = pack_quasirandom(host, padded, alpha=0.14, p=p, Delta=3,
                                                params=params, rng=rng, r=r)
        except BadParams as exc:
            m = re.fullmatch(r"at r=(\d+) the host keeps (\d+) cross-class edges; "
                             r"family carries (\d+) edges, budget (\d+)", str(exc))
            if m is None:
                bad.append(f"seed {9000 + seed} refused for another reason: {exc}")
                continue
            got_r, got_cross, got_edges, got_budget = map(int, m.groups())
            if (got_r, got_cross, got_budget) != (r, round(cross), round(budget)) \
                    or got_edges < family_edges or got_edges <= budget:
                bad.append(f"seed {9000 + seed} refusal misstates the budget: {exc}")
            else:
                refusals.append(str(exc))
            continue
        except RegpackError as exc:
            bad.append(f"seed {9000 + seed} failed: {type(exc).__name__}: {exc}")
            continue
        if verify_packing_on_complete(host, padded, embs):
            packed += 1
        else:
            bad.append(f"seed {9000 + seed} returned a packing that fails verification")
    detail = f"{packed}/20 seeds packed and verified, {len(refusals)}/20 refused"
    if refusals:
        detail += f" by the cross-class budget ({refusals[0]})"
    if bad:
        detail += f"; {len(bad)} dishonest outcome(s), first: {bad[0]}"
    line = report(9, not bad, detail)
    assert not bad, line


def verify_packing_on_complete(host, members, embs) -> bool:
    seen = set()
    for H, phi in zip(members, embs):
        for x, y in H.edges():
            e = frozenset((phi[x], phi[y]))
            if e in seen or not host.has_edge(phi[x], phi[y]):
                return False
            seen.add(e)
    return True


def test_scaled_family_demo_within_envelope():
    """A corollary-flavoured demo that the desk-scale envelope does support:
    even-cycle factors into the complete graph via the quasirandom driver."""
    from regpack.generators import cycle_factor

    wins = 0
    for seed in range(5):
        rng = random.Random(9500 + seed)
        n = 96
        host = LabeledGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        members = [cycle_factor(n, [4] * (n // 4)) for _ in range(3)]
        params = ParamSet(eps=0.05, k=3, Delta_R=1, C=2, beta=0.1, delta=0.0, alpha=0.3)
        try:
            embs, res, stats = pack_quasirandom(host, members, alpha=0.3, p=1.0, Delta=2,
                                                params=params, rng=rng, r=2)
        except RegpackError:
            continue
        if verify_packing_on_complete(host, members, embs):
            wins += 1
    assert wins >= 4, f"scaled demo succeeded on only {wins}/5 seeds"
