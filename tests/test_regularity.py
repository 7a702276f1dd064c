import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regpack.errors import BadParams, EmptySide, InfeasibleTargetSets
from regpack.graphs import (
    BipartiteGraph,
    LabeledGraph,
    PartitionedGraph,
    ReducedGraph,
    VertexPartition,
    iter_bits,
    popcount,
)
from regpack.regularity import (
    check_near_equiregular,
    pair_density,
    random_split,
    restrict_super_regular,
    super_regularity_certificate,
    window,
)


def complete_bipartite(n, m=None):
    m = n if m is None else m
    return BipartiteGraph(n, m, [(u, v) for u in range(n) for v in range(m)])


def random_bipartite(n, p, seed):
    rng = random.Random(seed)
    B = BipartiteGraph(n, n)
    for u in range(n):
        for v in range(n):
            if rng.random() < p:
                B.add_edge(u, v)
    return B


def certified_host(n, d, eps, seed, tries=200):
    """Random bipartite graph resampled until the certificate passes."""
    for t in range(tries):
        B = random_bipartite(n, d, seed * 1000 + t)
        if super_regularity_certificate(B, eps, d).ok:
            return B
    raise AssertionError("could not generate a certified host")


class TestPairDensity:
    def test_complete(self):
        B = complete_bipartite(3)
        assert pair_density(B, [0, 1], [1, 2]) == 1.0

    def test_empty_graph(self):
        B = BipartiteGraph(4, 4)
        assert pair_density(B, range(4), range(4)) == 0.0

    def test_seeded_matches_enumeration(self):
        B = random_bipartite(10, 0.5, 7)
        e = sum(1 for u in range(10) for v in range(10) if B.has_edge(u, v))
        assert pair_density(B, range(10), range(10)) == e / 100

    def test_empty_subset_raises(self):
        with pytest.raises(EmptySide):
            pair_density(complete_bipartite(3), [], [0])


class TestCertificate:
    def test_complete_passes(self):
        rep = super_regularity_certificate(complete_bipartite(12), 0.05, 1.0)
        assert rep.degree_ok and rep.codegree_ok and rep.ok

    def test_perfect_matching_fails_degrees(self):
        B = BipartiteGraph(10, 10, [(i, i) for i in range(10)])
        rep = super_regularity_certificate(B, 0.1, 0.5)
        assert not rep.degree_ok
        assert rep.worst_offender is not None

    def test_seeded_dense_passes_and_exhaustive_codegree(self):
        B = certified_host(200, 0.5, 0.1, seed=3)
        rep = super_regularity_certificate(B, 0.1, 0.5, probes=8, rng=random.Random(1))
        assert rep.ok
        # exhaustive codegree recount agrees with the report
        d_emp = B.density()
        bad = 0
        total = 0
        for x in range(200):
            for y in range(x + 1, 200):
                total += 1
                degx, degy = popcount(B.adj[x]), popcount(B.adj[y])
                co = popcount(B.adj[x] & B.adj[y])
                if not (degx > (d_emp - 0.1) * 200 and degy > (d_emp - 0.1) * 200
                        and co < (d_emp + 0.1) ** 2 * 200):
                    bad += 1
        assert rep.codegree_bad_fraction == pytest.approx(bad / total)

    def test_codegree_flags_blocky_graph(self):
        # two disjoint complete blocks: right codegrees are all-or-nothing;
        # the side must exceed 2/eps for the criterion to apply at all
        n = 120
        B = BipartiteGraph(n, n)
        for u in range(n):
            for v in range(n):
                if (u < n // 2) == (v < n // 2):
                    B.add_edge(u, v)
        rep = super_regularity_certificate(B, 0.02, 0.5)
        assert not rep.codegree_ok

    def test_codegree_gate_below_applicability(self):
        B = BipartiteGraph(10, 10)
        for u in range(10):
            for v in range(10):
                if (u < 5) == (v < 5):
                    B.add_edge(u, v)
        rep = super_regularity_certificate(B, 0.02, 0.5)
        # criterion needs |A| > 2/eps = 100; below that it cannot testify
        assert rep.codegree_ok

    def test_report_json_fields(self):
        rep = super_regularity_certificate(complete_bipartite(6), 0.1, 1.0,
                                           probes=2, rng=random.Random(0))
        data = json.loads(rep.to_json())
        assert set(data) == {"eps", "d", "degree_ok", "codegree_bad_fraction", "probes"}
        assert len(data["probes"]) == 2


class TestProp37:
    def test_codegree_window_count_small(self):
        # on a certified instance, pairs outside (d^2 +- 3 eps)|B| are few
        n, d, eps = 120, 0.5, 0.1
        B = certified_host(n, d, eps, seed=11)
        d_emp = B.density()
        bad = sum(
            1
            for x in range(n)
            for y in range(x + 1, n)
            if abs(popcount(B.adj[x] & B.adj[y]) - d_emp ** 2 * n) > 3 * eps * n
        )
        assert bad <= eps * n * n


class TestRandomSplit:
    def test_conservation_exact(self):
        B = certified_host(150, 0.6, 0.1, seed=2)
        P, rest = random_split(B, 0.6, 0.12, random.Random(0), eps=0.1)
        for u in range(B.nl):
            assert P.adj[u] | rest.adj[u] == B.adj[u]
            assert P.adj[u] & rest.adj[u] == 0

    def test_ratio_over_seeds(self):
        B = certified_host(150, 0.6, 0.1, seed=9)
        ratios = []
        for s in range(20):
            P, _ = random_split(B, 0.6, 0.12, random.Random(s), eps=0.1)
            ratios.append(P.num_edges() / B.num_edges())
        mean = sum(ratios) / len(ratios)
        assert abs(mean - 0.2) < 0.02

    def test_beta_equals_d_keeps_everything(self):
        B = certified_host(100, 0.7, 0.1, seed=4)
        # probability 1 selection: every edge goes to P
        P, rest = random_split(B, 0.7, 0.7, random.Random(0), eps=0.1)
        assert rest.num_edges() == 0
        assert P.num_edges() == B.num_edges()

    def test_rejects_beta_above_d(self):
        with pytest.raises(BadParams):
            random_split(complete_bipartite(4), 0.5, 0.6, random.Random(0))


class TestDeletionStability:
    def test_regularity_after_bounded_deletion(self):
        # deleting <= k*eps*n edges per vertex keeps the certificate at 3*sqrt(k eps)/2
        from regpack.generators import certified_bipartite_host
        n, d, eps, k = 200, 0.6, 0.02, 4
        B = certified_bipartite_host(n, d, eps, random.Random(21))
        rng = random.Random(5)
        F = B.copy()
        budget = int(k * eps * n)
        for u in range(n):
            nbrs = list(iter_bits(F.adj[u]))
            for v in rng.sample(nbrs, min(budget // 2, len(nbrs))):
                F.remove_edge(u, v)
        rep = super_regularity_certificate(F, 1.5 * (k * eps) ** 0.5, d)
        assert rep.ok


class TestNearEquiregular:
    def _pg(self, pairs, classes, redges):
        G = LabeledGraph(max(v for c in classes for v in c) + 1, pairs)
        return PartitionedGraph(G, VertexPartition.from_lists(classes),
                                ReducedGraph(len(classes), redges))

    def test_regular_passes_with_c0(self):
        # 2-regular pair on classes of size 4
        pairs = [(u, 4 + ((u + t) % 4)) for u in range(4) for t in (0, 1)]
        pg = self._pg(pairs, [[0, 1, 2, 3], [4, 5, 6, 7]], [(0, 1)])
        ok, violations = check_near_equiregular(pg, [[0, 2], [2, 0]], 0)
        assert ok, violations

    def test_overfull_vertex_reported(self):
        pairs = [(u, 4 + ((u + t) % 4)) for u in range(4) for t in (0, 1)]
        pairs += [(0, 6), (0, 7)]
        pg = self._pg(pairs, [[0, 1, 2, 3], [4, 5, 6, 7]], [(0, 1)])
        ok, violations = check_near_equiregular(pg, [[0, 2], [2, 0]], 0)
        assert not ok
        assert any("vertex 0" in v for v in violations)


class TestRestrictSuperRegular:
    def test_unconstrained_thinning(self):
        B = certified_host(150, 0.7, 0.1, seed=6)
        out = restrict_super_regular(B, {}, 0.3, random.Random(0), eps=0.1)
        import math
        target = math.ceil(0.3 * 150)
        for u in range(150):
            assert popcount(out.adj[u]) == target
            assert out.adj[u] & ~B.adj[u] == 0

    def test_allowed_sets_respected(self):
        B = certified_host(150, 0.7, 0.1, seed=8)
        rng = random.Random(3)
        constrained = {}
        for u in range(10):
            nbrs = list(iter_bits(B.adj[u]))
            keep = rng.sample(nbrs, 60)
            constrained[u] = sum(1 << v for v in keep)
        out = restrict_super_regular(B, constrained, 0.3, random.Random(1), eps=0.1)
        for u, allowed in constrained.items():
            assert out.adj[u] & ~allowed == 0

    def test_infeasible_allowed_set(self):
        B = complete_bipartite(20)
        with pytest.raises(InfeasibleTargetSets):
            restrict_super_regular(B, {0: 0b11}, 0.5, random.Random(0))


# The three window formulas that ``window`` replaced, kept as references.

def _old_slender_width(xi, p, scale, m):
    base = xi * m
    sd = math.sqrt(max(p * (1 - p), 0.0) * m)
    return max(base * scale, 4.0 * sd + 1.0)


def _old_refine_width(eps, d0, m):
    return max(2 * eps * m, 4.0 * math.sqrt(max(d0 * (1 - d0), 0.0) * m) + 1)


def _old_pipeline_width(eps, d, n):
    var = max(d * (1 - d), 0.0)
    return max(eps * n, 4.0 * math.sqrt(var * n) + 1.0)


unit = st.floats(0.0, 1.0, allow_nan=False)


@given(unit, unit, st.integers(0, 100_000))
@settings(max_examples=500, deadline=None)
def test_window_equals_the_formulas_it_replaced(x, p, m):
    assert window(x, p, m) == _old_pipeline_width(x, p, m)
    assert window(x, p, m) == _old_slender_width(x, p, 1, m)
    assert window(2 * x, p, m) == _old_slender_width(x, p, 2, m)
    assert window(2 * x, p, m) == _old_refine_width(x, p, m)
