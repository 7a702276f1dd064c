import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regpack.balancer import (
    FlowNetwork,
    _block_plan,
    _class_degrees,
    arithm_split,
    check_arithm_split,
    max_flow,
    regularize_near,
    regularize_pair,
    stack_family,
)
from regpack.errors import BadParams, Infeasible
from regpack.generators import bipartite_union_templates, random_regular_bipartite
from regpack.graphs import (
    BipartiteGraph,
    LabeledGraph,
    PartitionedGraph,
    ReducedGraph,
    VertexPartition,
    mask_of,
    popcount,
)


def brute_force_max_flow(net: FlowNetwork) -> int:
    """Enumerate arc subsets; only for tiny networks."""
    fwd = list(range(0, len(net.caps), 2))
    best = 0
    for bits in itertools.product(*[range(net.caps[e] + 1) for e in fwd]):
        flow = dict(zip(fwd, bits))
        ok = True
        for v in range(2, net.n_nodes):
            inflow = sum(f for e, f in flow.items() if net.heads[e] == v)
            outflow = sum(f for e, f in flow.items() if net.heads[e ^ 1] == v)
            if inflow != outflow:
                ok = False
                break
        if ok:
            best = max(best, sum(f for e, f in flow.items() if net.heads[e ^ 1] == 0))
    return best


def brute_force_regular_supergraph_exists(H: BipartiteGraph, k: int) -> bool:
    """Backtracking over V_1 completions, pruning on V_2 residuals."""
    n = H.nl
    degs_r = [0] * n
    for u in range(n):
        for v in range(n):
            if H.has_edge(u, v):
                degs_r[v] += 1
    if any(popcount(H.adj[u]) > k for u in range(n)) or any(d > k for d in degs_r):
        return False

    rows = [[v for v in range(n) if not H.has_edge(u, v)] for u in range(n)]

    def rec(u: int, res_r: list[int]) -> bool:
        if u == n:
            return all(x == 0 for x in res_r)
        needs = k - popcount(H.adj[u])
        pool = [v for v in rows[u] if res_r[v] > 0]
        if len(pool) < needs:
            return False
        if sum(res_r) < sum(k - popcount(H.adj[w]) for w in range(u, n)):
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

    return rec(0, [k - d for d in degs_r])


class TestMaxFlow:
    def test_zero_sources(self):
        net = FlowNetwork(4)
        net.add_arc(0, 2, 0)
        net.add_arc(2, 3, 1)
        net.add_arc(3, 1, 1)
        assert max_flow(net)[0] == 0

    def test_diamond_matches_bruteforce(self):
        rng = random.Random(0)
        for _ in range(30):
            net = FlowNetwork(6)
            for u in (2, 3):
                net.add_arc(0, u, rng.randrange(3))
            for u in (2, 3):
                for v in (4, 5):
                    if rng.random() < 0.7:
                        net.add_arc(u, v, rng.randrange(3))
            for v in (4, 5):
                net.add_arc(v, 1, rng.randrange(3))
            assert max_flow(net)[0] == brute_force_max_flow(net)

    def test_matching_complement_network(self):
        # K_{2,2}-complement with unit deficiencies: flow 2 along the matching
        H = BipartiteGraph(2, 2, [(0, 0), (1, 1)])
        out = regularize_pair(H, 2)
        assert all(popcount(r) == 2 for r in out.adj)


class TestRegularizePair:
    def test_already_regular_is_identity(self):
        H = BipartiteGraph(4, 4, [(u, (u + t) % 4) for u in range(4) for t in (0, 1)])
        out = regularize_pair(H, 2)
        assert out.adj == H.adj

    @pytest.mark.parametrize("n,k", [(1, 1), (12, 3), (40, 5)])
    def test_regular_pair_comes_back_as_an_equal_copy(self, n, k):
        # a pair with no deficit returns before any flow is built, as a
        # copy the caller may change freely
        H = random_regular_bipartite(n, k, random.Random(n))
        H.left_ids, H.right_ids = list(range(n)), list(range(n, 2 * n))
        out = regularize_pair(H, k)
        assert out is not H and out.adj is not H.adj
        assert (out.nl, out.nr, out.adj, out.left_ids, out.right_ids) == \
            (H.nl, H.nr, H.adj, H.left_ids, H.right_ids)
        out.remove_edge(0, out.adj[0].bit_length() - 1)
        assert popcount(H.adj[0]) == k

    def test_empty_to_perfect_matching(self):
        out = regularize_pair(BipartiteGraph(3, 3), 1)
        assert all(popcount(r) == 1 for r in out.adj)

    def test_contains_input(self):
        rng = random.Random(3)
        H = BipartiteGraph(12, 12)
        for u in range(12):
            for v in rng.sample(range(12), rng.randrange(4)):
                H.add_edge(u, v)
        for u in range(12):
            while popcount(H.adj[u]) > 4:
                H.remove_edge(u, H.neighbors(u)[0] if hasattr(H, "neighbors") else 0)
        try:
            out = regularize_pair(H, 4)
        except Infeasible:
            return
        for u in range(12):
            assert out.adj[u] & H.adj[u] == H.adj[u]
            assert popcount(out.adj[u]) == 4

    def test_oracle_equivalence_exhaustive_small(self):
        # all bipartite graphs on 3+3, k <= 3
        for k in range(4):
            for bits in range(512):
                H = BipartiteGraph(3, 3)
                for idx in range(9):
                    if (bits >> idx) & 1:
                        H.add_edge(idx // 3, idx % 3)
                expected = brute_force_regular_supergraph_exists(H, k)
                try:
                    out = regularize_pair(H, k)
                    got = True
                    for u in range(3):
                        assert out.adj[u] & H.adj[u] == H.adj[u]
                        assert popcount(out.adj[u]) == k
                except Infeasible:
                    got = False
                assert got == expected, (k, bits)


class TestRegularizeNear:
    def _pg(self, n_sizes, edges, redges):
        total = sum(n_sizes)
        bounds = [0]
        for s in n_sizes:
            bounds.append(bounds[-1] + s)
        classes = [list(range(bounds[i], bounds[i + 1])) for i in range(len(n_sizes))]
        G = LabeledGraph(total, edges)
        return PartitionedGraph(G, VertexPartition.from_lists(classes, total),
                                ReducedGraph(len(n_sizes), redges))

    def test_equal_sizes_reduces_to_pair(self):
        pg = self._pg([5, 5], [], [(0, 1)])
        out = regularize_near(pg, [[0, 2], [2, 0]], C=0)
        from regpack.regularity import check_near_equiregular
        ok, v = check_near_equiregular(out, [[0, 2], [2, 0]], 0)
        assert ok, v

    def test_ragged_sizes(self):
        pg = self._pg([31, 30], [], [(0, 1)])
        out = regularize_near(pg, [[0, 3], [3, 0]], C=1)
        from regpack.regularity import check_near_equiregular
        ok, v = check_near_equiregular(out, [[0, 3], [3, 0]], 1)
        assert ok, v

    def test_supergraph(self):
        rng = random.Random(5)
        edges = [(u, 30 + rng.randrange(30)) for u in range(30) for _ in range(2)]
        edges = list({(u, v) for u, v in edges})
        pg = self._pg([30, 30], edges, [(0, 1)])
        out = regularize_near(pg, [[0, 5], [5, 0]], C=0)
        for u, v in pg.graph.edges():
            assert out.graph.has_edge(u, v)


class TestArithmSplit:
    def test_c_zero(self):
        a1, a2, a3, n1, n2, n3 = arithm_split(80, 8, 2)
        assert (a1, a2, a3, n1) == (8, 0, 0, 10)

    def test_small_c(self):
        a1, a2, a3, n1, n2, n3 = arithm_split(81, 8, 2)
        assert (n1, a1, a3, a2) == (9, 2, 3, 3)
        assert a1 * n1 + a2 * n2 + a3 * n3 == 81

    def test_large_c(self):
        a1, a2, a3, n1, n2, n3 = arithm_split(85, 8, 2)
        assert (n1, a1, a3, a2) == (10, 3, 0, 5)
        assert a1 * n1 + a2 * n2 + a3 * n3 == 85

    def test_rejects_small_r(self):
        with pytest.raises(BadParams):
            arithm_split(40, 7, 2)

    def test_exhaustive_grid(self):
        for Delta in range(1, 7):
            for r in range(3 * Delta + 2, 21):
                for n in range(1, 51):
                    for c in range(r):
                        assert check_arithm_split(r * n + c, r, Delta), (r, Delta, n, c)

    def test_class_sizes_sum_to_n_bar(self):
        r, Delta = 8, 2
        n_bar = 8 * 10 + 3
        a1, a2, a3, n1, n2, n3 = arithm_split(n_bar, r, Delta)
        sizes = [n1] * a1 + [n2] * a2 + [n3] * a3
        assert sum(sizes) == n_bar


class TestStackFamily:
    def _matching_family(self, s, r, n, seed):
        rng = random.Random(seed)
        R = ReducedGraph(r, [(i, j) for i in range(r) for j in range(i + 1, r)])
        return bipartite_union_templates(r, n, 1, s, rng, R=R), R

    def test_decomposition_identity(self):
        fams, R = self._matching_family(12, 3, 20, seed=4)
        rng = random.Random(0)
        H, taus, J, kmat = stack_family(fams, R, [[0] * 3] * 3, C=1, rng=rng, resamples=10)
        all_images = set()
        for img, L in zip(taus, fams):
            for x, y in L.graph.edges():
                e = frozenset((img[x], img[y]))
                assert e not in all_images
                all_images.add(e)
        H_edges = {frozenset(e) for e in H.graph.edges()}
        J_edges = {frozenset(e) for e in J.edges()}
        assert all_images | J_edges == H_edges
        assert not all_images & J_edges

    def test_empty_family_members(self):
        r, n = 2, 16
        R = ReducedGraph(2, [(0, 1)])
        classes = [list(range(n)), list(range(n, 2 * n))]
        empty = PartitionedGraph(LabeledGraph(2 * n), VertexPartition.from_lists(classes), R)
        rng = random.Random(1)
        H, taus, J, kmat = stack_family([empty] * 3, R, [[0, 1], [1, 0]], C=0, rng=rng,
                                        resamples=4)
        assert H.graph.num_edges() == J.num_edges()
        from regpack.regularity import check_near_equiregular
        ok, v = check_near_equiregular(H, kmat, 0)
        assert ok, v

    def test_near_equiregular_output(self):
        fams, R = self._matching_family(8, 2, 24, seed=6)
        rng = random.Random(2)
        H, taus, J, kmat = stack_family(fams, R, [[0] * 2] * 2, C=1, rng=rng, resamples=10)
        from regpack.regularity import check_near_equiregular
        ok, v = check_near_equiregular(H, kmat, 1)
        assert ok, v

    def test_seeded_stack_is_pinned(self):
        """Eight matchings on a triangle of classes of 20, stacked with the
        default 50 resamples: the template, the embeddings, J, the degree
        matrix and the next draw of the stream are pinned."""
        rng = random.Random(11)
        R = ReducedGraph(3, [(0, 1), (0, 2), (1, 2)])
        fams = bipartite_union_templates(3, 20, 1, 8, rng, R=R)
        H, taus, J, kmat = stack_family(fams, R, [[0] * 3] * 3, C=2, rng=rng)
        blob = json.dumps([H.graph.adj, [sorted(t.items()) for t in taus], J.adj, kmat])
        assert hashlib.sha256(blob.encode()).hexdigest() == \
            "0cc8d4f92ab36cae8431905c29425e28299f1481e725798c40ca0f18b409c34f"
        assert rng.random() == 0.9416216986530109

    def test_ragged_stack_reattaches_within_one_of_k(self):
        """Classes of 20, 22 and 21 make the regularization remove vertices
        from the larger side of every pair; their reattached neighbourhoods
        must not meet, or a vertex reaches degree k + 2."""
        rng = random.Random(11)
        fams = bipartite_union_templates(3, 0, 1, 8, rng, sizes=[20, 22, 21])
        R = fams[0].reduced
        H, taus, J, kmat = stack_family(fams, R, [[0] * 3] * 3, C=2, rng=rng)
        from regpack.regularity import check_near_equiregular
        ok, v = check_near_equiregular(H, kmat, 2)
        assert ok, v
        assert [kmat[i][j] for i, j in R.edges()] == [8, 8, 8]


def _block_plan_reference(families, R, b, B, n_prime, rng):
    """``_block_plan`` as it was before the degree table: every sort key and
    block sum recounted from the adjacency rows, kept as the reference."""
    r = R.r
    s = len(families)
    plans = []
    for ell, L in enumerate(families):
        per_class = []
        for i in range(r):
            cls = list(L.partition.classes[i])
            n_i = len(cls)
            exc_size = n_i - B * n_prime
            nbr = sorted(R.neighbors(i))
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


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_block_plan_matches_the_recounting_reference(data):
    """Several resamples sharing one degree table give the reference's
    plans, the same deviation and the same generator state."""
    r = data.draw(st.integers(2, 3))
    edges = [(0, 1)] if r == 2 else data.draw(st.sampled_from(
        [[(0, 1), (0, 2), (1, 2)], [(0, 1), (1, 2)], [(0, 2)]]))
    R = ReducedGraph(r, edges)
    sizes = data.draw(st.lists(st.integers(1, 14), min_size=r, max_size=r))
    s = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, min(sizes)))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    families = bipartite_union_templates(r, 0, k, s, random.Random(seed), R=R, sizes=sizes)
    b = data.draw(st.integers(1, 3))
    Delta_R = max(R.max_degree(), 1)
    B = b ** Delta_R
    n_prime = min(sizes) // (B + 1)
    if n_prime == 0:
        B = 1
    deg = _class_degrees(families)
    got_rng, want_rng = random.Random(seed + 1), random.Random(seed + 1)
    for _resample in range(3):
        got = _block_plan(families, R, b, B, n_prime, deg, got_rng)
        want = _block_plan_reference(families, R, b, B, n_prime, want_rng)
        assert got["blocks"] == want["blocks"]
        assert got["deviation"] == want["deviation"]
        assert got_rng.getstate() == want_rng.getstate()
