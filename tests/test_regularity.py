import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regpack.errors import BadParams, InfeasibleTargetSets
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
    pipeline_certificate,
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
        rep = super_regularity_certificate(B, 0.1, 0.5)
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


# The certificates as they were before they read one bit matrix, kept as
# references: a numpy int32 codegree product from 128 left vertices, a pair
# loop below (the pair-sampling branch above 2000 left vertices is left out).

_SLACK = 1e-9


def _ref_codegree_fraction(B, eps, d_emp):
    nl, nr = B.nl, B.nr
    deg_lo = (d_emp - eps) * nr - _SLACK
    codeg_hi = (d_emp + eps) ** 2 * nr + _SLACK
    degs = [popcount(r) for r in B.adj]
    if nl >= 128:
        M = np.array([[r >> v & 1 for v in range(nr)] for r in B.adj], dtype=np.uint8)
        co = M.astype(np.int32) @ M.T.astype(np.int32)
        good_deg = np.array(degs) > deg_lo
        pair_ok = good_deg[:, None] & good_deg[None, :] & (co < codeg_hi)
        good = int(pair_ok[np.triu_indices(nl, k=1)].sum())
        total = nl * (nl - 1) // 2
    else:
        good = 0
        total = 0
        for x in range(nl):
            for y in range(x + 1, nl):
                total += 1
                if degs[x] > deg_lo and degs[y] > deg_lo and \
                        popcount(B.adj[x] & B.adj[y]) < codeg_hi:
                    good += 1
    if total == 0:
        return 0.0
    return 1.0 - good / total


def _ref_super_certificate(B, eps, d):
    nl, nr = B.nl, B.nr
    if nl < 2 or nr < 2:
        raise BadParams("certificate needs both sides of size >= 2")
    d_emp = B.density()
    degree_ok = True
    worst = None
    worst_gap = -1.0
    for u, row in enumerate(B.adj):
        deg = popcount(row)
        gap = abs(deg - d * nr)
        if gap > eps * nr + _SLACK:
            degree_ok = False
            if gap > worst_gap:
                worst_gap, worst = gap, ("left", u, deg)
    for v, col in enumerate(B.right_adj()):
        deg = popcount(col)
        gap = abs(deg - d * nl)
        if gap > eps * nl + _SLACK:
            degree_ok = False
            if gap > worst_gap:
                worst_gap, worst = gap, ("right", v, deg)
    if nl > 2 / eps:
        bad_fraction = _ref_codegree_fraction(B, eps, d_emp)
        good_pairs = (1.0 - bad_fraction) * (nl * (nl - 1) // 2)
        codegree_ok = good_pairs > 0.5 * (1 - 5 * eps) * nl * nl
    else:
        bad_fraction = 0.0
        codegree_ok = True
    return dict(degree_ok=degree_ok, worst_offender=worst, codegree_ok=codegree_ok,
                codegree_bad_fraction=bad_fraction)


def _ref_pipeline_certificate(B, eps, d):
    nl, nr = B.nl, B.nr
    if nl < 2 or nr < 2:
        return True
    wl = window(eps, d, nr)
    wr = window(eps, d, nl)
    for row in B.adj:
        if abs(popcount(row) - d * nr) > wl + _SLACK:
            return False
    for col in B.right_adj():
        if abs(popcount(col) - d * nl) > wr + _SLACK:
            return False
    if 1 - 5 * eps > 0 and nl > 2 / eps:
        d_emp = B.density()
        bad = _ref_codegree_fraction(B, eps, d_emp)
        good = (1.0 - bad) * (nl * (nl - 1) // 2)
        if not good > 0.5 * (1 - 5 * eps) * nl * nl:
            return False
    return True


def _cyclic_pair(nl, nr, width):
    """Row u holds the ``width`` consecutive right vertices from u mod nr."""
    return BipartiteGraph(nl, nr, [(u, (u + t) % nr) for u in range(nl) for t in range(width)])


@st.composite
def pairs(draw):
    """Random pairs, some with a planted two-block structure (within-block
    density p, across q) that the codegree criterion rejects."""
    nl, nr = draw(st.integers(0, 140)), draw(st.integers(0, 140))
    p = draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]))
    q = draw(st.one_of(st.just(p), st.sampled_from([0.0, 0.2, 0.5, 0.8])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return BipartiteGraph(nl, nr, [(u, v) for u in range(nl) for v in range(nr)
                                   if rng.random() < (p if u % 2 == v % 2 else q)])


@given(pairs(), st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.125, 0.15, 0.2, 0.25, 0.3]),
       st.sampled_from([-0.1, -0.02, 0.0, 0.03, 0.1]))
@example(_cyclic_pair(24, 16, 6), 0.125, 0.0)
@settings(max_examples=250, deadline=None)
def test_certificates_match_the_implementations_they_replaced(B, eps, shift):
    d = min(max(B.density() + shift, 0.0), 1.0)
    assert pipeline_certificate(B, eps, d) == _ref_pipeline_certificate(B, eps, d)
    if B.nl < 2 or B.nr < 2:
        with pytest.raises(BadParams):
            super_regularity_certificate(B, eps, d)
        return
    rep = super_regularity_certificate(B, eps, d)
    got = {k: (type(v), v) for k, v in vars(rep).items()}
    assert got == {k: (type(v), v) for k, v in _ref_super_certificate(B, eps, d).items()}


def test_codegree_on_its_threshold_counts_as_good():
    # density 6/16 and eps 1/8 make (d + eps)^2 |B| exactly 4, the codegree
    # of rows two apart; in float32 the slack would round away and flip them
    B = _cyclic_pair(24, 16, 6)
    eps = 0.125
    assert (B.density() + eps) ** 2 * B.nr == 4.0
    assert popcount(B.adj[0] & B.adj[2]) == 4
    rep = super_regularity_certificate(B, eps, B.density())
    assert rep.codegree_bad_fraction == _ref_codegree_fraction(B, eps, B.density())
    # every degree is 6, so the bad pairs are those of codegree 5 or 6
    bad = sum(1 for x in range(24) for y in range(x + 1, 24) if popcount(B.adj[x] & B.adj[y]) > 4)
    assert 0 < bad < 276
    assert rep.codegree_bad_fraction == 1.0 - (276 - bad) / 276


def test_complete_pair_beyond_2000_left_vertices_certifies():
    B = complete_bipartite(2001, 8)
    assert pipeline_certificate(B, 0.1, 1.0)
    rep = super_regularity_certificate(B, 0.1, 1.0)
    assert rep.ok and rep.codegree_bad_fraction == 0.0


def test_certificates_give_a_verdict_at_eps_zero():
    # |A| > 2/eps cannot hold at eps = 0, so the codegree count reads
    # nothing and the degree windows decide
    B = complete_bipartite(10, 10)
    assert pipeline_certificate(B, 0.0, 1.0)
    rep = super_regularity_certificate(B, 0.0, 1.0)
    assert rep.ok and rep.codegree_bad_fraction == 0.0
    M = BipartiteGraph(10, 10, [(i, i) for i in range(10)])
    assert not pipeline_certificate(M, 0.0, 1.0)
    assert not super_regularity_certificate(M, 0.0, 1.0).ok
