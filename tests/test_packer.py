import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regpack.errors import BadParams, FailureExhausted
from regpack.generators import (
    bipartite_union_templates,
    certified_bipartite_host,
    cycle_factor,
    host_complete,
    host_superregular,
    near_regular_bipartite,
    random_tree,
)
from regpack.graphs import (
    BipartiteGraph,
    LabeledGraph,
    PartitionedGraph,
    ReducedGraph,
    VertexPartition,
    iter_bits,
    mask_of,
)
from regpack.params import ParamSet
from regpack.packer import (
    PackInstance,
    _pair_mass,
    _patch_rows,
    color_members,
    merge_small_members,
    pack_bipartite,
    pack_partite,
    pack_quasirandom,
    quasirandomness_check,
    run_main_packing,
    validate_instance,
)
from regpack.verifier import verify_packing


def simple_instance(n=60, s=4, k=1, seed=5, beta=0.45, delta=0.12, gamma_n=2, d="9/10"):
    rng = random.Random(seed)
    R = ReducedGraph(2, [(0, 1)])
    df = Fraction(d)
    host = host_superregular(R, n, [[Fraction(0), df], [df, Fraction(0)]], 0.05, rng)
    templates = bipartite_union_templates(2, n, k, s, rng, R=R)
    k_mats = [[[0, k], [k, 0]] for _ in templates]
    params = ParamSet(eps=0.05, k=max(k, 2), Delta_R=1, C=2, beta=beta, delta=delta)
    inst = PackInstance(host=host, templates=templates, k_mats=k_mats,
                        A_list=[None] * s, params=params, gamma_n=gamma_n)
    return inst, rng


class TestValidation:
    def test_oversubscription_rejected(self):
        inst, rng = simple_instance(n=48, s=40, beta=0.1)
        errs = validate_instance(inst)
        assert any("(S4)" in e for e in errs)

    def test_lambda_on_missing_template_rejected(self):
        inst, rng = simple_instance(n=48, s=3)
        inst.lam = [(0, 0, 7, 0)]
        errs = validate_instance(inst)
        assert any("(S8)" in e for e in errs)

    @pytest.mark.parametrize("lam", [(0, 96, 1, 0), (0, 0, 1, -1)])
    def test_lambda_vertex_outside_template_rejected(self, lam):
        inst, rng = simple_instance(n=48, s=3)
        inst.lam = [lam]
        errs = validate_instance(inst)
        assert errs == [f"(S8) collision constraint {lam} names a vertex outside its template"]

    def test_negative_k_matrix_entry_rejected(self):
        inst, rng = simple_instance(n=48, s=3)
        inst.k_mats[1] = [[0, -1], [-1, 0]]
        assert validate_instance(inst) == ["(S2) k-matrix 1 has a negative entry"]
        with pytest.raises(BadParams, match="negative entry"):
            run_main_packing(inst, rng)

    @pytest.mark.parametrize("gamma_n", [0, -3])
    def test_batch_size_below_one_rejected(self, gamma_n):
        inst, rng = simple_instance(n=48, s=3, gamma_n=gamma_n)
        assert validate_instance(inst) == [f"gamma_n must be at least 1, got {gamma_n}"]
        with pytest.raises(BadParams, match="gamma_n must be at least 1"):
            run_main_packing(inst, rng)

    def test_host_without_classes_rejected(self):
        host = PartitionedGraph(LabeledGraph(0), VertexPartition.from_lists([], 0), ReducedGraph(0))
        inst = PackInstance(host=host, templates=[], k_mats=[], A_list=[],
                            params=ParamSet(eps=0.05, k=2, Delta_R=1, C=2))
        assert validate_instance(inst) == ["(S3) the host partition has no classes"]
        with pytest.raises(BadParams, match="no classes"):
            run_main_packing(inst, random.Random(0))


class TestMainPacking:
    def test_single_template(self):
        inst, rng = simple_instance(s=1, gamma_n=1, beta=0.1, delta=0.0)
        res = run_main_packing(inst, rng)
        rep = verify_packing(inst.host, inst.templates, res.embeddings)
        assert rep.ok, rep.violations
        assert res.coverage == pytest.approx(
            inst.templates[0].graph.num_edges() / inst.host.graph.num_edges())

    def test_batch_with_patching(self):
        inst, rng = simple_instance(s=4, gamma_n=2)
        res = run_main_packing(inst, rng)
        rep = verify_packing(inst.host, inst.templates, res.embeddings)
        assert rep.ok, rep.violations

    def test_patching_at_delta_zero_is_refused(self):
        # the patch embedding runs at eps = delta, which must be positive
        inst, rng = simple_instance(s=4, gamma_n=2, delta=0.0)
        with pytest.raises(BadParams, match="delta"):
            run_main_packing(inst, rng)

    def test_conflict_free_nibble_high_coverage(self):
        inst, rng = simple_instance(s=16, gamma_n=1, beta=0.1, delta=0.0)
        res = run_main_packing(inst, rng)
        rep = verify_packing(inst.host, inst.templates, res.embeddings)
        assert rep.ok, rep.violations
        assert res.coverage > 0.25

    def test_filler_padding(self):
        # s=3 with gamma_n=2 pads one filler template internally
        inst, rng = simple_instance(s=3, gamma_n=2)
        res = run_main_packing(inst, rng)
        assert res.s_real == 3
        assert len(res.embeddings) == 3
        rep = verify_packing(inst.host, inst.templates, res.embeddings)
        assert rep.ok, rep.violations

    def test_lambda_compliance(self):
        inst, rng = simple_instance(s=6, gamma_n=2)
        lam = []
        lrng = random.Random(99)
        for i in range(5):
            x = lrng.randrange(120)
            lam.append((i, x, i + 1, x))
        inst.lam = lam
        res = run_main_packing(inst, rng)
        for (i, x, ip, xp) in lam:
            assert res.embeddings[i][x] != res.embeddings[ip][xp]
        rep = verify_packing(inst.host, inst.templates, res.embeddings, lam=lam)
        assert rep.ok, rep.violations

    def test_probe_sets_checked(self):
        inst, rng = simple_instance(s=2, gamma_n=1, beta=0.1, delta=0.0)
        # Q = X_0 onto W = V_0 is satisfied exactly by every class-respecting
        # embedding, so the probe path must not trip
        Q = list(inst.templates[0].partition.classes[0])
        W = list(inst.host.partition.classes[0])
        inst.probe_sets = [(Q, W)]
        res = run_main_packing(inst, rng)
        assert res.coverage > 0

    def test_round_edges_come_from_budget(self):
        # every image edge lies in the host; across rounds disjointness is
        # structural (images removed from the working graphs)
        inst, rng = simple_instance(s=4, gamma_n=2)
        res = run_main_packing(inst, rng)
        host_edges = {frozenset(e) for e in inst.host.graph.edges()}
        for phi, tpl in zip(res.embeddings, inst.templates):
            for x, y in tpl.graph.edges():
                assert frozenset((phi[x], phi[y])) in host_edges

    def test_density_trace_positive_guard(self):
        inst, rng = simple_instance(n=48, s=40, beta=0.1, gamma_n=1)
        with pytest.raises(BadParams):
            run_main_packing(inst, rng)


def candidacy_instance(seed, lam, n=60, s=4, d0=0.85):
    """Two classes of n, initial candidacy graphs at d0, gamma_n = 2 and the
    collision constraints lam; returns the instance and its generator."""
    rng = random.Random(seed)
    R = ReducedGraph(2, [(0, 1)])
    df = Fraction(9, 10)
    host = host_superregular(R, n, [[Fraction(0), df], [df, Fraction(0)]], 0.05, rng)
    templates = bipartite_union_templates(2, n, 1, s, rng, R=R)
    A_list = []
    for _ in range(s):
        per = []
        for i in range(2):
            B = certified_bipartite_host(n, d0, 0.05, rng)
            B.left_ids = list(templates[0].partition.classes[i])
            B.right_ids = list(host.partition.classes[i])
            per.append(B)
        A_list.append(per)
    params = ParamSet(eps=0.05, k=2, Delta_R=1, C=2, beta=0.45, delta=0.2)
    inst = PackInstance(host=host, templates=templates, k_mats=[[[0, 1], [1, 0]]] * s,
                        A_list=A_list, lam=lam, d0=d0, params=params, gamma_n=2)
    return inst, rng


def test_seeded_packing_stream_is_pinned():
    """One seeded packing on two classes of 60 with initial candidacy graphs
    at d0 = 0.85, a collision constraint inside each round and gamma_n = 2,
    so the conflict sets, the patch-window draws and repatch all run against
    candidacy rows, and rounds restart four times, each on a patch candidacy
    certificate.  The embeddings and the next draw of the stream are
    pinned: a change that moves one draw changes them."""
    n = 60
    inst, rng = candidacy_instance(0, [(0, 3, 1, 3), (2, n + 5, 3, n + 5)], n=n)
    res = run_main_packing(inst, rng, round_retry_cap=5)
    assert verify_packing(inst.host, inst.templates, res.embeddings,
                          A_list=inst.A_list, lam=inst.lam).ok
    assert [(lg.conflicts, lg.patched) for lg in res.rounds] == [(2, 88), (2, 88)]
    assert len(res.failure_log) == 4
    assert all(line.endswith("patch candidacy class 0 failed its (0.2,0.3825) certificate")
               for line in res.failure_log)
    blob = json.dumps([sorted(phi.items()) for phi in res.embeddings]).encode()
    assert hashlib.sha256(blob).hexdigest() == \
        "412168baa76495bb28836d4a67e64f38cd27d6aa9123374cd57ec9a5f8fc7e21"
    assert rng.random() == 0.09402913539459068


@pytest.mark.parametrize("seed", range(6))
def test_collision_across_rounds_ends_verified_or_exhausted(seed):
    """Template 2 (round 2) must avoid the image template 1 (round 1) gave
    vertex 3, so its class is thinned.  Thinned far below the d0 that the
    embedding checks against, every vertex is exceptional and
    ``NotSuperRegular`` escapes the packer on the first attempt."""
    inst, rng = candidacy_instance(seed, [(1, 3, 2, 3)])
    try:
        res = run_main_packing(inst, rng)
    except FailureExhausted:
        return
    assert verify_packing(inst.host, inst.templates, res.embeddings,
                          A_list=inst.A_list, lam=inst.lam).ok


class TestDensityTraceArithmetic:
    def test_formula_matches_by_hand(self):
        from regpack.packer import _density_trace
        inst, rng = simple_instance(n=50, s=2, gamma_n=1, beta=0.1)
        trace = _density_trace(inst, 2, inst.k_mats, [[Fraction(0), Fraction(1, 10)],
                                                      [Fraction(1, 10), Fraction(0)]])
        d1 = Fraction("9/10") - Fraction("1/10")
        assert trace[0][0][1] == d1
        d2 = d1 * (1 - Fraction(1) / (d1 * 50))
        assert trace[1][0][1] == d2

    def test_lower_bound_under_budget(self):
        # with sum k <= (1-alpha) d n the exact ladder stays above alpha*d/2
        from regpack.packer import _density_trace
        n, s = 60, 10
        inst, rng = simple_instance(n=n, s=s, gamma_n=1, beta=0.05)
        alpha = 1 - s / (0.9 * n)
        trace = _density_trace(inst, s, inst.k_mats,
                               [[Fraction(0), Fraction(1, 20)], [Fraction(1, 20), Fraction(0)]])
        assert float(trace[-1][0][1]) >= alpha * 0.9 / 2


class TestDrivers:
    def test_pack_partite_composition(self):
        rng = random.Random(31)
        R = ReducedGraph(2, [(0, 1)])
        n = 60
        d = Fraction(9, 10)
        host = host_superregular(R, n, [[Fraction(0), d], [d, Fraction(0)]], 0.05, rng)
        fams = bipartite_union_templates(2, n, 1, 6, rng, R=R)
        params = ParamSet(eps=0.05, k=3, Delta_R=1, C=2, beta=0.1, delta=0.0)
        embs, result, info = pack_partite(host, fams, params, rng, batch_size=2, gamma_n=1)
        rep = verify_packing(host, fams, embs)
        assert rep.ok, rep.violations
        # stacking and packing are seeded: the member embeddings and the next
        # draw of the stream are pinned
        blob = json.dumps([sorted(e.items()) for e in embs]).encode()
        assert hashlib.sha256(blob).hexdigest() == \
            "d61fb03ad64ddf5cc8ebcfa0a72fe2914ad1812c16b9d702fdecd05ee3b185b6"
        assert rng.random() == 0.2106090087727912

    def test_pack_quasirandom_cycle_factors(self):
        rng = random.Random(33)
        n = 96
        G = LabeledGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        Hs = [cycle_factor(n, [4] * (n // 4)) for _ in range(3)]
        params = ParamSet(eps=0.05, k=3, Delta_R=1, C=2, beta=0.1, delta=0.0, alpha=0.3)
        embs, res, stats = pack_quasirandom(G, Hs, alpha=0.3, p=1.0, Delta=2,
                                            params=params, rng=rng, r=2)
        # member-level disjointness on the original host
        seen = set()
        for H, phi in zip(Hs, embs):
            for x, y in H.edges():
                e = frozenset((phi[x], phi[y]))
                assert e not in seen
                assert G.has_edge(phi[x], phi[y])
                seen.add(e)
        assert stats["delta_J"] <= n - 1

    def test_pack_quasirandom_rejects_over_budget(self):
        rng = random.Random(1)
        n = 24
        G = LabeledGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        Hs = [LabeledGraph(n, [(u, (u + 1) % n) for u in range(n)]) for _ in range(30)]
        params = ParamSet(eps=0.05, k=3, Delta_R=1, C=2)
        with pytest.raises(BadParams):
            pack_quasirandom(G, Hs, alpha=0.5, p=1.0, Delta=2, params=params, rng=rng, r=2)

    def test_pack_quasirandom_rejects_over_cross_class_budget(self):
        # 15 Hamilton cycles on K_48: 720 edges fit (1 - 0.1) * C(48, 2) = 1015,
        # but at r = 3 only 3 * 16^2 = 768 cross-class edges survive the
        # partite reduction, budget (1 - 0.1) * 768 = 691
        rng = random.Random(3)
        n = 48
        G = LabeledGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        Hs = [LabeledGraph(n, [(u, (u + 1) % n) for u in range(n)]) for _ in range(15)]
        params = ParamSet(eps=0.05, k=3, Delta_R=2, C=2, alpha=0.1)
        with pytest.raises(BadParams, match=r"at r=3 the host keeps 768 cross-class edges; "
                                            r"family carries 720 edges, budget 691"):
            pack_quasirandom(G, Hs, alpha=0.1, p=1.0, Delta=2, params=params, rng=rng, r=3)

    @pytest.mark.parametrize("n", [24, 38])
    def test_quasirandomness_check_accepts_complete_hosts(self, n):
        # K_n has degree n - 1 and codegree n - 2, the p = 1 targets exactly
        assert quasirandomness_check(host_complete(n), 1.0, 0.05) == []

    def test_quasirandomness_check_refuses_structured_hosts(self):
        # degrees match p (n - 1), but codegrees are 0 or about 2 p^2 (n - 2)
        n = 40
        half = n // 2
        kbip = LabeledGraph(n, [(u, v) for u in range(half) for v in range(half, n)])
        cliques = LabeledGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                   if (u < half) == (v < half)])
        for G in (kbip, cliques):
            p = 2 * G.num_edges() / (n * (n - 1))
            errs = quasirandomness_check(G, p, 0.05)
            assert len(errs) == 1 and "atypical codegree" in errs[0]

    def test_color_members_spreads_pair_mass(self):
        # the criterion-9 tree families at r = 8: the trees live on low
        # vertex numbers, so a fixed class order piles mass onto a few pairs
        n, r = 120, 8
        R = ReducedGraph(r, [(i, j) for i in range(r) for j in range(i + 1, r)])
        for seed in range(9000, 9020):
            rng = random.Random(seed)
            trees = [random_tree(i, 3, rng) for i in range(18, 112)]
            family = [LabeledGraph(n, list(T.edges())) for T in trees]
            members = color_members(merge_small_members(family, n, n // 4), R, rng)
            masses = [sum(_pair_mass(L, i, j) for L in members) for i, j in R.edges()]
            mean = sum(masses) / len(masses)
            assert max(masses) <= 1.25 * mean, (seed, max(masses), mean)

    def test_pack_quasirandom_fails_nonquasirandom(self):
        from regpack.errors import QuasirandomnessFailed
        rng = random.Random(2)
        n = 40
        G = LabeledGraph(n)
        for u in range(n // 2):
            for v in range(u + 1, n // 2):
                G.add_edge(u, v)
        params = ParamSet(eps=0.05, k=3, Delta_R=1, C=2)
        with pytest.raises(QuasirandomnessFailed):
            pack_quasirandom(G, [LabeledGraph(n)], alpha=0.5, p=0.5, Delta=2,
                             params=params, rng=rng, r=2)

    def test_pack_bipartite_matchings(self):
        rng = random.Random(35)
        n = 160
        nA, nB = n // 2, n - 1
        Gp = near_regular_bipartite(nB, 0.9, rng).subgraph(range(nA), range(nB))
        members = []
        for _ in range(4):
            cols = rng.sample(range(nB), nA)
            members.append(BipartiteGraph(nA, nB, [(a, c) for a, c in enumerate(cols)]))
        params = ParamSet(eps=0.07, k=2, Delta_R=2, C=2, beta=0.08, delta=0.0, alpha=0.3)
        embs, result, info = pack_bipartite(Gp, members, alpha=0.3, params=params,
                                            rng=rng, d=0.9)
        assert result.coverage > 0

    def test_pack_bipartite_rejects_oversized_member(self):
        rng = random.Random(3)
        Gp = BipartiteGraph(4, 7, [(a, b) for a in range(4) for b in range(7)])
        big = BipartiteGraph(5, 7)
        params = ParamSet(eps=0.05, k=2, Delta_R=2, C=2)
        with pytest.raises(BadParams):
            pack_bipartite(Gp, [big], alpha=0.3, params=params, rng=rng, d=1.0)


# ---------------------------------------------------------------------------
# patch candidacy rows against the set-based function they replaced


def _patch_rows_reference(A_rows, phi, N, Z_classes, P_next, excluded):
    zall = {z for cls in Z_classes for z in cls}
    rows = {}
    for cls in Z_classes:
        wset = [phi[z] for z in cls]
        for z in cls:
            row = A_rows.get(z)
            allowed = set(wset) if row is None else {w for w in wset if (row >> w) & 1}
            for ynb in N[z]:
                if ynb in zall:
                    continue
                prow = P_next.adj[phi[ynb]]
                allowed = {w for w in allowed if (prow >> w) & 1}
            allowed -= excluded.get(z, set())
            rows[z] = sorted(allowed)
    return rows


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_patch_rows_match_set_reference(data):
    n = data.draw(st.integers(1, 80), label="host order")
    npat = data.draw(st.integers(1, n), label="pattern order")
    hosts = data.draw(st.permutations(range(n)))
    phi = dict(enumerate(hosts[:npat]))
    vertex = st.integers(0, npat - 1)
    N = {x: data.draw(st.lists(vertex, max_size=4), label=f"N({x})") for x in phi}
    order = data.draw(st.permutations(range(npat)))
    cuts = sorted(data.draw(st.lists(st.integers(0, npat), min_size=1, max_size=4)))
    Z_classes = [order[a:b] for a, b in zip([0] + cuts, cuts)]
    host_row = st.integers(0, (1 << n) - 1)
    P_next = LabeledGraph(n)
    P_next.adj = data.draw(st.lists(host_row, min_size=n, max_size=n), label="P rows")
    A_rows = data.draw(st.dictionaries(vertex, host_row), label="A rows")
    excluded = data.draw(st.dictionaries(vertex, st.sets(st.integers(0, n - 1))), label="excluded")
    H_adj = [mask_of(N[x]) for x in range(npat)]
    rows = _patch_rows(A_rows, phi, H_adj, Z_classes, P_next, excluded)
    expected = _patch_rows_reference(A_rows, phi, N, Z_classes, P_next, excluded)
    assert {z: list(iter_bits(row)) for z, row in rows.items()} == expected
