import copy
import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import path3_instance, two_class_instance
from regpack.errors import FailureType1, FailureType2, NotSuperRegular
from regpack.generators import bipartite_union_templates
from regpack.graphs import (
    BipartiteGraph,
    LabeledGraph,
    ReducedGraph,
    blow_up,
    iter_bits,
    mask_of,
    popcount,
    square,
)
from regpack.params import ParamSet
from regpack.regularity import _SLACK, window
from regpack.slender import XI, SlenderInput, _assert_output, _State, run_slender, validate_input
from regpack.uniform import (
    b_diagnostics,
    expand_matrix,
    refine_host,
    refine_pattern,
    run_uniform_embed,
    square_slices,
)


def make_params(**kw):
    base = dict(eps=0.05, k=1, Delta_R=1, C=2)
    base.update(kw)
    return ParamSet(**base)


def embed_two_class(n=60, d="9/10", k=1, seed=0, **param_kw):
    host, P, bmat, templates, kmat, rng = two_class_instance(n=n, d=d, k=k, seed=seed)
    params = make_params(k=k, **param_kw)
    res = run_uniform_embed(host, P.graph, bmat, templates[0], kmat,
                            [None, None], 1.0, params.eps, params.C, params.embed_retry_cap, rng)
    return host, P, templates[0], res


def ragged_two_class_instance():
    """Two classes of 63 with certified initial candidacy at d0 = 0.7; they
    refine into classes of 32 and 31."""
    from regpack.generators import certified_bipartite_host
    n = 63
    host, P, bmat, templates, kmat, rng = two_class_instance(n=n, seed=9)
    A0 = []
    for i in range(2):
        B = certified_bipartite_host(n, 0.7, 0.05, rng)
        B.left_ids = list(templates[0].partition.classes[i])
        B.right_ids = list(host.partition.classes[i])
        A0.append(B)
    return host, P, bmat, templates, kmat, A0, rng


def refined_two_class_input(seed):
    """The slender input ``run_uniform_embed`` builds on two seeded classes
    of 60 with full candidacy, and the rng after it."""
    host, P, bmat, templates, kmat, rng = two_class_instance(seed=seed)
    return refined_input(host, P, bmat, templates, [None, None], 1.0, rng)


def refined_input(host, P, bmat, templates, A0, d0, rng):
    """The slender input ``run_uniform_embed`` builds on a two-class instance
    (refined classes, expanded densities, eps^(1/3)), and the rng after it."""
    params = make_params()
    slices, K = square_slices(templates[0])
    Y = refine_pattern(templates[0], slices, K, rng)
    U, A0s = refine_host(host, P.graph, A0, Y, bmat, d0, params.eps, rng)
    s = SlenderInput(
        R_star=blow_up(templates[0].reduced, K), Y_classes=Y, U_classes=U,
        G_host=host.graph, P_host=P.graph, H=templates[0].graph, A0=A0s,
        d_mat=expand_matrix(host.densities, 2, K), beta_mat=expand_matrix(bmat, 2, K), d0=d0,
        eps=params.eps ** (1 / 3))
    return s, rng


class TestSlenderDegenerate:
    def _complete_input(self, m=6):
        """Complete host, complete candidacy: every matching is valid."""
        q = 2
        R = ReducedGraph(2, [(0, 1)])
        Y = [[0, 1, 2], [3, 4, 5]] if m == 3 else [list(range(m)), list(range(m, 2 * m))]
        U = [list(range(m)), list(range(m, 2 * m))]
        G = LabeledGraph(2 * m, [(u, v) for u in U[0] for v in U[1]])
        H = LabeledGraph(2 * m)
        A0 = []
        for i in range(2):
            B = BipartiteGraph(m, m, left_ids=Y[i], right_ids=U[i])
            B.adj = [(1 << m) - 1] * m
            A0.append(B)
        one = Fraction(1)
        zero = Fraction(0)
        return SlenderInput(
            R_star=R, Y_classes=Y, U_classes=U, G_host=G, P_host=G, H=H,
            A0=A0, d_mat=[[zero, one], [one, zero]],
            beta_mat=[[zero, one], [one, zero]], d0=1.0, eps=0.05)

    def test_empty_pattern_complete_host(self):
        s = self._complete_input(m=6)
        out = run_slender(s, random.Random(0))
        # class-respecting bijection consistent with the full candidacy
        assert sorted(out.phi.keys()) == list(range(12))
        assert {out.phi[p] for p in s.Y_classes[0]} == set(s.U_classes[0])
        # with a complete patching graph every F row stays complete
        for Fj in out.F:
            assert all(row == (1 << Fj.nr) - 1 for row in Fj.adj)

    def test_density_ladder_exact_identity(self):
        # p(d, j, w) = d0 * product of the class-graph neighbour densities,
        # as exact rationals (checked internally; re-derived here)
        s, rng = refined_two_class_input(seed=21)
        RK, dK, bK = s.R_star, s.d_mat, s.beta_mat
        out = run_slender(s, rng)
        for j in range(RK.r):
            want_d = Fraction(1)
            want_b = Fraction(1)
            for ell in RK.neighbors(j):
                want_d *= dK[j][ell]
                want_b *= bK[j][ell]
            assert out.p_host[j] == want_d
            assert out.p_patch[j] == want_b


def _break_injectivity(s, phi, F):
    x, y = s.Y_classes[0][:2]
    phi[y] = phi[x]


def _break_host_edge(s, phi, F):
    x, y = s.H.edges()[0]
    s.G_host.remove_edge(phi[x], phi[y])


def _break_class(s, phi, F):
    # two refined classes of one block trade a host vertex
    s.U_classes[0][0], s.U_classes[1][0] = s.U_classes[1][0], s.U_classes[0][0]


def _break_a0(s, phi, F):
    s.A0[0].adj[0] &= ~(1 << s.U_classes[0].index(phi[s.Y_classes[0][0]]))


def _break_f_in_a0(s, phi, F):
    # drop from A0 a candidate that F keeps and the embedding does not take
    j, a, b = next((j, a, b) for j, Fj in enumerate(F) for a, row in enumerate(Fj.adj)
                   for b in iter_bits(row) if s.U_classes[j][b] != phi[s.Y_classes[j][a]])
    s.A0[j].adj[a] &= ~(1 << b)


def _break_f_in_p(s, phi, F):
    # give F a candidate that the patching graph keeps off a neighbour's image
    j, a, b = next((j, a, b) for j, cls in enumerate(s.Y_classes) for a, pid in enumerate(cls)
                   for ynb in s.H.neighbors(pid) for b, u in enumerate(s.U_classes[j])
                   if not s.P_host.has_edge(u, phi[ynb]))
    F[j].adj[a] |= 1 << b


class TestAssertOutput:
    """``_assert_output`` passes a real slender output unchanged and raises
    the matching ``AssertionError`` for each guarantee broken on a copy."""

    @pytest.fixture(scope="class")
    def run(self):
        s, rng = refined_two_class_input(seed=23)
        out = run_slender(s, rng)
        return s, out.phi, out.F

    def test_real_output_passes(self, run):
        _assert_output(*run)

    @pytest.mark.parametrize("breaker,message", [
        (_break_injectivity, "embedding is not injective"),
        (_break_host_edge, r"pattern edge \(\d+,\d+\) not realized in the host"),
        (_break_class, "left its class under the embedding"),
        (_break_a0, "violates its initial candidacy"),
        (_break_f_in_a0, "F row escapes the initial candidacy"),
        (_break_f_in_p, "F row escapes a patching-graph constraint"),
    ], ids=["injectivity", "host-edge", "class", "A0", "F-in-A0", "F-in-P"])
    def test_each_break_is_caught(self, run, breaker, message):
        s, phi, F = copy.deepcopy(run)
        breaker(s, phi, F)
        with pytest.raises(AssertionError, match=message):
            _assert_output(s, phi, F)


class TestValidation:
    def test_valid_instance_passes(self):
        s, _ = refined_two_class_input(seed=2)
        assert validate_input(s) == []

    def test_preparation_certifies_the_host_pairs(self):
        # the input check leaves the pair certificates to (P2): on an empty
        # host every host pair sits 0.9 n below its density, beyond the
        # window of about 0.74 n at eps = 0.05^(1/3)
        s, rng = refined_two_class_input(seed=2)
        s.G_host = LabeledGraph(s.G_host.n)
        assert validate_input(s) == []
        with pytest.raises(FailureType1, match=r"\(P2\) host pair"):
            run_slender(s, rng)

    def test_preparation_draws_nothing_on_ragged_classes(self):
        # classes of 32 and 31 are prepared and certified at their own
        # sizes, without a random draw
        host, P, bmat, templates, kmat, A0, rng = ragged_two_class_instance()
        s, rng = refined_input(host, P, bmat, templates, A0, 0.7, rng)
        assert [len(c) for c in s.Y_classes] == [32, 31] * 2
        state = _State(s, rng)
        before = rng.getstate()
        state.prepare()
        assert state.check_preparation() == []
        assert rng.getstate() == before

    def test_nonmatching_pair_flagged(self):
        s_obj = TestSlenderDegenerate()._complete_input(m=4)
        Y = s_obj.Y_classes
        s_obj.H = LabeledGraph(8, [(Y[0][0], Y[1][0]), (Y[0][0], Y[1][1])])
        assert validate_input(s_obj) == [
            "(V6) pattern pair (0,1) is not a matching"]

    def test_pattern_edge_across_a_non_edge_flagged(self):
        s_obj = TestSlenderDegenerate()._complete_input(m=4)
        s_obj.R_star = ReducedGraph(2)
        s_obj.H = LabeledGraph(8, [(s_obj.Y_classes[0][0], s_obj.Y_classes[1][0])])
        assert validate_input(s_obj) == [
            "(V6) pattern edges between non-adjacent classes 0,1"]


def _three_class_input(R, Y=None, H=None):
    """Three classes of two on a class graph R; complete host and candidacy."""
    from regpack.graphs import BipartiteGraph
    Y = Y if Y is not None else [[0, 1], [2, 3], [4, 5]]
    U = [[0, 1], [2, 3], [4, 5]]
    G = LabeledGraph(6, [(u, v) for i, j in R.edges() for u in U[i] for v in U[j]])
    if H is None:
        H = LabeledGraph(6, [(Y[i][a], Y[j][a]) for i, j in R.edges() for a in range(2)])
    A0 = [BipartiteGraph(2, 2, [(a, b) for a in range(2) for b in range(2)],
                         left_ids=U[i], right_ids=U[i]) for i in range(3)]
    ones = [[Fraction(1)] * 3 for _ in range(3)]
    return SlenderInput(
        R_star=R, Y_classes=Y, U_classes=U, G_host=G, P_host=G, H=H, A0=A0, d_mat=ones, beta_mat=ones, d0=1.0,
        eps=0.05)


@pytest.mark.parametrize("edges", [[(0, 1), (1, 2)], [(0, 1), (0, 2), (1, 2)], [(0, 2)]],
                         ids=["path", "triangle", "isolated-class"])
def test_rounds_embed_each_class_in_index_order(monkeypatch, edges):
    """Round t = i + 1 embeds class i once and then certifies its class-graph
    neighbours in ascending order: on a path, a triangle, and a class graph
    with an isolated class."""
    log = []
    embed, certify = _State._build_and_embed, _State._certify_class

    def logged_embed(self, i, t, xi_prev):
        log.append(("embed", i, t))
        return embed(self, i, t, xi_prev)

    def logged_certify(self, j, t):
        log.append(("certify", j, t))
        return certify(self, j, t)

    monkeypatch.setattr(_State, "_build_and_embed", logged_embed)
    monkeypatch.setattr(_State, "_certify_class", logged_certify)
    R = ReducedGraph(3, edges)
    run_slender(_three_class_input(R), random.Random(0))
    assert log == [entry for i in range(3)
                   for entry in [("embed", i, i + 1)] + [("certify", j, i + 1) for j in sorted(R.neighbors(i))]]


def _v6_reference(s):
    """The q^2 loop over class pairs that (V6) used to run, kept as the reference."""
    v = []
    q = len(s.Y_classes)
    yclass = {}
    for i, cls in enumerate(s.Y_classes):
        for p in cls:
            yclass[p] = i
    for i in range(q):
        for j in range(i + 1, q):
            edges = [(x, y) for x in s.Y_classes[i] for y in s.H.neighbors(x) if yclass.get(y) == j]
            if not s.R_star.has_edge(i, j):
                if edges:
                    v.append(f"(V6) pattern edges between non-adjacent classes {i},{j}")
                continue
            lefts = [x for x, _ in edges]
            rights = [y for _, y in edges]
            if len(set(lefts)) != len(edges) or len(set(rights)) != len(edges):
                v.append(f"(V6) pattern pair ({i},{j}) is not a matching")
    return v


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_v6_pair_check_matches_the_class_pair_loop(data):
    n = data.draw(st.integers(1, 9))
    # class lists may repeat a vertex or leave one out
    Y = data.draw(st.lists(st.lists(st.integers(0, n - 1), max_size=4), min_size=3, max_size=3))
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    H = LabeledGraph(n, data.draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else ())
    R = ReducedGraph(3, data.draw(st.lists(st.sampled_from([(0, 1), (0, 2), (1, 2)]), max_size=3)))
    s = _three_class_input(R, Y=Y, H=H)
    got = [e for e in validate_input(s)
           if e.startswith("(V6)") and "|Y_" not in e]
    assert got == _v6_reference(s)


def _pairings_reference(s, ny, nbrs):
    """The pattern pairings ``prepare`` built from a ``neighbors()`` loop
    (the last neighbour in Y_j wins), kept as the reference."""
    ypos = [{p: k for k, p in enumerate(cls)} for cls in s.Y_classes]
    yclass = {p: i for i, cls in enumerate(s.Y_classes) for p in cls}
    real_all = {}
    for i in range(len(s.Y_classes)):
        for j in nbrs[i]:
            real = [-1] * ny[i]
            for a, x in enumerate(s.Y_classes[i]):
                for ynb in s.H.neighbors(x):
                    if yclass.get(ynb) == j:
                        real[a] = ypos[j][ynb]
            real_all[(i, j)] = real
    return real_all


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_prepare_pairings_match_the_neighbour_loop(data):
    # pattern ids beyond the classes, several neighbours in one class and
    # edges inside a class all occur
    n = data.draw(st.integers(6, 10))
    ids = data.draw(st.permutations(range(n)))
    Y = [list(ids[0:2]), list(ids[2:4]), list(ids[4:6])]
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    H = LabeledGraph(n, data.draw(st.lists(st.sampled_from(pairs), max_size=20)))
    R = ReducedGraph(3, data.draw(st.lists(st.sampled_from([(0, 1), (0, 2), (1, 2)]), max_size=3)))
    s = _three_class_input(R, Y=Y, H=H)
    state = _State(s, random.Random(0))
    state.prepare()
    assert state.real_nbr == _pairings_reference(s, state.ny, state.nbrs)


def _certify_windows_reference(state, j, xi):
    """The degree-window loop of ``_certify_class`` with one ``window`` call
    per row and column, kept as the reference: the first failure's text."""
    m = state.ny[j]
    for tr in state.tracks:
        rows, px = tr.rows[j], tr.px[j]
        mean = sum(px) / m
        cols = [sum((row >> b) & 1 for row in rows) for b in range(m)]
        for kind, degs, ps in (("row", map(popcount, rows), px), ("column", cols, [mean] * m)):
            for a, (deg, p) in enumerate(zip(degs, ps)):
                width = window(xi, p, m)
                if abs(deg - p * m) > width + _SLACK:
                    return (f"{tr.name} candidacy {kind} {a} of class {j} has degree {deg}, "
                            f"expected {p * m:.2f} +- {width:.2f}")
    return None


@pytest.mark.parametrize("kind", ["row", "column"])
def test_certify_class_failure_text_matches_the_reference(kind):
    """Forty rows on a two-step ladder, each a cyclic run of its expected
    degree; then one patching row is emptied, or one host column."""
    m, xi = 40, XI
    state = _State(TestSlenderDegenerate()._complete_input(m=m), random.Random(0))
    px = [0.9] * 20 + [0.81] * 20
    for tr in state.tracks:
        tr.px = [list(px), list(px)]
        rows = [sum(1 << ((a + t) % m) for t in range(round(p * m))) for a, p in enumerate(px)]
        tr.rows = [list(rows), list(rows)]
    host, patch = state.tracks
    if kind == "row":
        patch.rows[1][5] = 0
    else:
        host.rows[1] = [row & ~(1 << 7) for row in host.rows[1]]
    want = _certify_windows_reference(state, 1, xi)
    assert want is not None and f" {kind} " in want
    with pytest.raises(FailureType2) as exc:
        state._certify_class(1, 3)
    assert str(exc.value) == want
    assert exc.value.stage == (3, 1)


def _filtered_rows_reference(state, i, xi2):
    """The candidate filter as a loop over candidates, two popcounts per
    candidate and neighbour, kept as the reference."""
    host, patch = state.tracks
    rows = list(host.rows[i])
    for j in state.nbrs[i]:
        m = state.ny[j]
        partner = state.real_nbr[(i, j)]
        gp, pp = host.pairs[(i, j)], patch.pairs[(i, j)]
        arows, brows = host.rows[j], patch.rows[j]
        gpx, ppx = host.px[j], patch.px[j]
        dij, bij = float(host.dens[i][j]), float(patch.dens[i][j])
        for a in range(state.ny[i]):
            xj = partner[a]
            if xj < 0:
                continue
            arow, brow = arows[xj], brows[xj]
            pd, pb = dij * gpx[xj], bij * ppx[xj]
            cd, cb = pd * m, pb * m
            wd = window(xi2, pd, m) + _SLACK
            wb = window(xi2, pb, m) + _SLACK
            for v in iter_bits(rows[a]):
                if abs((arow & gp[v]).bit_count() - cd) > wd or abs((brow & pp[v]).bit_count() - cb) > wb:
                    rows[a] ^= 1 << v
    return rows


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_filtered_rows_match_the_per_candidate_loop(data):
    """Three classes of up to 80 (across the 64-bit boundary) and of
    different sizes, on a path or a triangle, so some class has two neighbours; partial
    pattern matchings leave rows without a partner; both tracks carry
    their own hosts, densities, cut candidacy rows and several-step
    ladders."""
    m = data.draw(st.integers(2, 80))
    ny = [data.draw(st.integers(1, m)) for _ in range(3)]
    ny[data.draw(st.integers(0, 2))] = m
    R = ReducedGraph(3, data.draw(st.sampled_from([[(0, 1), (1, 2)], [(0, 1), (0, 2), (1, 2)]])))
    rnd = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    U = [list(range(sum(ny[:i]), sum(ny[:i + 1]))) for i in range(3)]

    def draw_host():
        dens = {e: rnd.uniform(0.2, 1.0) for e in R.edges()}
        return LabeledGraph(sum(ny), [(u, w) for (i, j), p in dens.items()
                                      for u in U[i] for w in U[j] if rnd.random() < p])

    def draw_dens():
        mat = [[Fraction(0)] * 3 for _ in range(3)]
        for i, j in R.edges():
            mat[i][j] = mat[j][i] = Fraction(rnd.randint(2, 10), 10)
        return mat

    H = LabeledGraph(sum(ny))
    for i, j in R.edges():
        k = rnd.randint(0, min(ny[i], ny[j]))
        for x, y in zip(rnd.sample(U[i], k), rnd.sample(U[j], k)):
            H.add_edge(x, y)
    A0 = []
    for i in range(3):
        B = BipartiteGraph(ny[i], ny[i], left_ids=U[i], right_ids=U[i])
        B.adj = [rnd.getrandbits(ny[i]) for _ in range(ny[i])]
        A0.append(B)
    d0 = rnd.uniform(0.3, 1.0)
    s = SlenderInput(
        R_star=R, Y_classes=U, U_classes=U, G_host=draw_host(), P_host=draw_host(), H=H, A0=A0,
        d_mat=draw_dens(), beta_mat=draw_dens(), d0=d0, eps=0.05)
    state = _State(s, rnd)
    state.prepare()
    ladder = [d0 * f for f in (1.0, 0.9, 0.81, 0.5)]
    for tr in state.tracks:
        tr.rows = [[row & rnd.getrandbits(m) for row in rows] for rows in tr.rows]
        tr.px = [[rnd.choice(ladder) for _ in range(n)] for n in ny]
    xi2 = data.draw(st.floats(0.0, 0.3))
    for i in range(3):
        assert state._filtered_rows(i, xi2) == _filtered_rows_reference(state, i, xi2)


def test_missing_matching_names_its_hall_set():
    state = _State(TestSlenderDegenerate()._complete_input(m=4), random.Random(0))
    Bi = BipartiteGraph(4, 4, [(0, 0), (1, 0), (2, 0), (3, 1), (3, 2)])
    with pytest.raises(FailureType2) as exc:
        state._sample_matching(Bi, 1, 2)
    assert str(exc.value) == ("no perfect matching in candidacy class 1: "
                              "|S| = 3, |N(S)| = 1, minimum degree 1")
    assert exc.value.stage == (2, 1)


class TestUniformEmbed:
    def test_two_class_matching_pattern(self):
        host, P, tpl, res = embed_two_class(seed=3)
        for x, y in tpl.graph.edges():
            assert host.graph.has_edge(res.phi[x], res.phi[y])
        assert len(set(res.phi.values())) == tpl.graph.n

    def test_k2_pattern(self):
        host, P, tpl, res = embed_two_class(n=100, d="4/5", k=2, seed=4)
        assert res.K == 3
        for x, y in tpl.graph.edges():
            assert host.graph.has_edge(res.phi[x], res.phi[y])

    def test_path3_pattern(self):
        host, P, bmat, templates, kmat, rng = path3_instance(seed=5)
        params = ParamSet(eps=0.05, k=1, Delta_R=2, C=2)
        res = run_uniform_embed(host, P.graph, bmat, templates[0], kmat,
                                [None] * 3, 1.0, params.eps, params.C, params.embed_retry_cap, rng)
        for x, y in templates[0].graph.edges():
            assert host.graph.has_edge(res.phi[x], res.phi[y])

    def test_partition_bookkeeping(self):
        host, P, tpl, res = embed_two_class(seed=6)
        K = res.K
        for j, (yj, uj) in enumerate(zip(res.Y_classes, res.U_classes)):
            assert len(yj) == len(uj)
            blk = j // K
            assert set(yj) <= set(tpl.partition.classes[blk])
            assert set(uj) <= set(host.partition.classes[blk])

    def test_cb2_containment_exact(self):
        host, P, tpl, res = embed_two_class(seed=8)
        for j, Fj in enumerate(res.F):
            for a, pid in enumerate(Fj.left_ids):
                for b in range(Fj.nr):
                    if not Fj.has_edge(a, b):
                        continue
                    w = Fj.right_ids[b]
                    for ynb in tpl.graph.neighbors(pid):
                        assert P.graph.has_edge(w, res.phi[ynb])

    def test_candidacy_respected_with_real_a0(self):
        import math
        host, P, bmat, templates, kmat, rng = two_class_instance(n=60, seed=9)
        from regpack.generators import certified_bipartite_host
        A0 = []
        for i in range(2):
            B = certified_bipartite_host(60, 0.7, 0.05, rng)
            B.left_ids = list(templates[0].partition.classes[i])
            B.right_ids = list(host.partition.classes[i])
            A0.append(B)
        params = make_params()
        res = run_uniform_embed(host, P.graph, bmat, templates[0], kmat, A0, 0.7,
                                params.eps, params.C, params.embed_retry_cap, rng)
        for i, Ab in enumerate(A0):
            xpos = {p: a for a, p in enumerate(Ab.left_ids)}
            vpos = {v: b for b, v in enumerate(Ab.right_ids)}
            for p in templates[0].partition.classes[i]:
                assert Ab.has_edge(xpos[p], vpos[res.phi[p]])

    def test_refinement_constant_is_the_templates(self):
        # K follows each template's pattern square: matchings have D = 0
        host, P, bmat, templates, kmat, rng = two_class_instance(seed=3)
        res = run_uniform_embed(host, P.graph, bmat, templates[0], kmat, [None, None], 1.0,
                                0.05, 2, ParamSet.embed_retry_cap, rng)
        assert res.K == 2
        assert len(res.Y_classes) == 4
        host, P, bmat, templates, kmat, rng = path3_instance(seed=5)
        res = run_uniform_embed(host, P.graph, bmat, templates[0], kmat, [None] * 3, 1.0,
                                0.05, 2, ParamSet.embed_retry_cap, rng)
        assert res.K == 2


def _c4_factor_template():
    """A C4-factor of K_96 coloured onto two classes as ``pack_quasirandom``
    does at r = 2, stacked alone into the template the embedding sees."""
    from regpack.balancer import stack_family
    from regpack.generators import cycle_factor
    from regpack.packer import color_members

    rng = random.Random(9500)
    R = ReducedGraph(2, [(0, 1)])
    member = color_members([cycle_factor(96, [4] * 24)], R, rng)[0]
    return stack_family([member], R, [[0, 0], [0, 0]], 2, rng)[0]


@pytest.mark.parametrize("build,K", [
    (lambda: two_class_instance(seed=3)[3][0], 2),
    (lambda: two_class_instance(n=100, d="4/5", k=2, seed=4)[3][0], 3),
    (lambda: path3_instance(seed=5)[3][0], 2),
    (_c4_factor_template, 2),
], ids=["k1-matching", "k2-union", "path3", "c4-factor-r2"])
def test_refinement_constant_table(build, K):
    assert square_slices(build())[1] == K


def _square_degree_inside(H, cls) -> int:
    """Largest number of other class vertices within distance two, by sets."""
    members = set(cls)
    return max(len({z for y in H.graph.neighbors(x) for z in H.graph.neighbors(y)
                    if z in members} - {x}) for x in cls)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 3), n=st.integers(24, 60), seed=st.integers(0, 2 ** 16))
def test_refined_classes_are_independent_in_the_square(k, n, seed):
    """60 examples: K = max(2, D + 1) never exceeds the worst case
    (k+1)^2 * Delta_R, and every refined class has no two vertices within
    distance two, so every refined pair is a matching."""
    rng = random.Random(seed)
    R = ReducedGraph(2, [(0, 1)])
    H = bipartite_union_templates(2, n, k, 1, rng, R=R)[0]
    slices, K = square_slices(H)
    D = max(_square_degree_inside(H, cls) for cls in H.partition.classes)
    assert K == max(2, D + 1) <= (k + 1) ** 2 * R.max_degree()
    Y = refine_pattern(H, slices, K, rng)
    assert len(Y) == 2 * K
    for i, cls in enumerate(H.partition.classes):
        assert sorted(y for blk in Y[i * K:(i + 1) * K] for y in blk) == list(cls)
    H2 = square(H.graph)
    for blk in Y:
        assert not any(H2.adj[x] & mask_of(blk) for x in blk)
    for a in range(K):
        for b in range(K, 2 * K):
            target = set(Y[b])
            assert all(len(set(H.graph.neighbors(x)) & target) <= 1 for x in Y[a])


class TestDiagnostics:
    def test_b_diagnostics_shapes(self):
        host, P, bmat, templates, kmat, rng = two_class_instance(n=48, seed=11)
        params = make_params()
        runs = [run_uniform_embed(host, P.graph, bmat, templates[0], kmat, [None, None], 1.0,
                                  params.eps, params.C, params.embed_retry_cap, rng) for _ in range(30)]
        v = host.partition.classes[0][0]
        nbrs = [w for w in host.graph.neighbors(v) if w in set(host.partition.classes[1])]
        S = nbrs[: int(0.4 * 48)]
        report = b_diagnostics(runs, templates[0], host, kmat, b1_probes=[(v, S)])
        assert set(report) == {"runs", "b1"}
        assert report["runs"] == 30
        assert len(report["b1"]) == 1

    def test_too_few_runs(self):
        from regpack.errors import TooFewRuns
        with pytest.raises(TooFewRuns):
            b_diagnostics([], None, None, None)


class TestRefineHost:
    def test_rejects_hopeless_candidacy(self):
        n = 200
        host, P, bmat, templates, kmat, rng = two_class_instance(n=n, seed=12)
        from regpack.graphs import BipartiteGraph
        # odd host vertices carry no candidacy at all, so the exceptional
        # set exceeds the K*eps*n cap
        A0 = []
        for i in range(2):
            B = BipartiteGraph(n, n,
                               left_ids=list(templates[0].partition.classes[i]),
                               right_ids=list(host.partition.classes[i]))
            full_half = sum(1 << b for b in range(0, n, 2))
            for a in range(n):
                B.adj[a] = full_half
            A0.append(B)
        Y = refine_pattern(templates[0], *square_slices(templates[0]), rng)
        with pytest.raises(NotSuperRegular):
            refine_host(host, P.graph, A0, Y, bmat, 0.5, 0.05, rng)


def test_seeded_embedding_stream_is_pinned():
    """One seeded run on two classes of 63 (refined sizes 32 and 31, each
    embedded at its own size): the embedding, the candidacy bigraph F and
    the next draw of the stream are pinned.  A refactor that moves one draw
    or one window bound changes these digests."""
    host, P, bmat, templates, kmat, A0, rng = ragged_two_class_instance()
    res = run_uniform_embed(host, P.graph, bmat, templates[0], kmat, A0, 0.7,
                            0.05, 2, ParamSet.embed_retry_cap, rng)

    def sha(obj):
        return hashlib.sha256(json.dumps(obj).encode()).hexdigest()

    assert [len(c) for c in res.Y_classes] == [32, 31] * 2
    assert sha(sorted(res.phi.items())) == \
        "b5f3cfcee9c13dbb5fb1dffc40a57f6c8d5cc9781e3eeb4e3236199636c4c1e0"
    assert sha([[Fj.left_ids, Fj.right_ids, Fj.adj] for Fj in res.F]) == \
        "bc5269a617e51b9d1ffea1481e4ee47391ab76c3849c5119a9b09d69c35c5252"
    assert rng.random() == 0.0176626660790703
