from fractions import Fraction

import pytest

from helpers import two_class_instance
from regpack.errors import HypothesisViolation
from regpack.graphs import blow_up, mask_of
from regpack.params import ParamSet
from regpack.patching import repatch
from regpack.uniform import run_uniform_embed


def embedded_instance(seed=5, n=60, beta="9/20"):
    host, P, bmat, templates, kmat, rng = two_class_instance(
        n=n, d="9/10", beta=beta, k=1, seed=seed)
    params = ParamSet(eps=0.05, k=1, Delta_R=1, C=2, beta=float(Fraction(beta)), delta=0.1)
    res = run_uniform_embed(host, P.graph, bmat, templates[0], kmat,
                            [None, None], 1.0, params.eps, params.C, params.embed_retry_cap, rng)
    return host, P, bmat, templates[0], params, res, rng


def refreshed_rows(res, tpl, P, Z_classes):
    """Patch candidacy from out-of-window template neighbours only, as
    bitsets over host ids."""
    zall = {z for cls in Z_classes for z in cls}
    rows = {}
    for j, cls in enumerate(Z_classes):
        wset = [res.phi[z] for z in cls]
        for z in cls:
            allowed = set(wset)
            for ynb in tpl.graph.neighbors(z):
                if ynb in zall:
                    continue
                allowed = {w for w in allowed if P.graph.has_edge(w, res.phi[ynb])}
            rows[z] = mask_of(allowed)
    return rows


def patch_setup(res, host, rng, size):
    Z_classes = [rng.sample(cls, size) for cls in res.Y_classes]
    RK = blow_up(host.reduced, res.K)
    bf = Fraction(9, 20)
    bKr = [[bf if RK.has_edge(i, j) else Fraction(0) for j in range(2 * res.K)]
           for i in range(2 * res.K)]
    return Z_classes, RK, bKr


class TestRepatch:
    def test_empty_bad_set_is_identity(self):
        host, P, bmat, tpl, params, res, rng = embedded_instance(seed=1)
        Z_classes = [[] for _ in res.Y_classes]
        RK = blow_up(host.reduced, res.K)
        phi2 = repatch(tpl.graph, P.graph, RK, [[Fraction(0)] * (2 * res.K)] * (2 * res.K),
                       res.phi, {}, Z_classes, beta_prime=0.45, delta=0.1,
                       retries=params.embed_retry_cap, rng=rng)
        assert phi2 == res.phi

    def test_patch_conclusions_hold(self):
        host, P, bmat, tpl, params, res, rng = embedded_instance(seed=5)
        Z_classes, RK, bKr = patch_setup(res, host, rng, size=10)
        rows = refreshed_rows(res, tpl, P, Z_classes)
        phi2 = repatch(tpl.graph, P.graph, RK, bKr, res.phi,
                       rows, Z_classes, beta_prime=0.45, delta=0.1,
                    retries=params.embed_retry_cap, rng=rng)
        zall = {z for cls in Z_classes for z in cls}
        # (i) untouched outside Z
        for x in res.phi:
            if x not in zall:
                assert phi2[x] == res.phi[x]
        # (ii) edges at Z land in the patching graph
        for x, y in tpl.graph.edges():
            if x in zall or y in zall:
                assert P.graph.has_edge(phi2[x], phi2[y])
        # (iii) images stay inside the supplied candidacy rows
        for z in zall:
            assert rows[z] >> phi2[z] & 1
        # all edges realized in host + patching union
        for x, y in tpl.graph.edges():
            assert host.graph.has_edge(phi2[x], phi2[y]) or P.graph.has_edge(phi2[x], phi2[y])

    def test_within_class_window(self):
        host, P, bmat, tpl, params, res, rng = embedded_instance(seed=7)
        Z_classes, RK, bKr = patch_setup(res, host, rng, size=10)
        rows = refreshed_rows(res, tpl, P, Z_classes)
        phi2 = repatch(tpl.graph, P.graph, RK, bKr, res.phi,
                       rows, Z_classes, beta_prime=0.45, delta=0.1,
                    retries=params.embed_retry_cap, rng=rng)
        for j, cls in enumerate(Z_classes):
            W = {res.phi[z] for z in cls}
            for z in cls:
                assert phi2[z] in W

    def test_unequal_windows_rejected(self):
        host, P, bmat, tpl, params, res, rng = embedded_instance(seed=9)
        Z_classes, RK, bKr = patch_setup(res, host, rng, size=8)
        Z_classes[0] = Z_classes[0][:5]
        rows = refreshed_rows(res, tpl, P, Z_classes)
        with pytest.raises(HypothesisViolation):
            repatch(tpl.graph, P.graph, RK, bKr, res.phi,
                    rows, Z_classes, beta_prime=0.45, delta=0.1,
                    retries=params.embed_retry_cap, rng=rng)

    def test_sparse_candidacy_rejected(self):
        from regpack.errors import PatchFailure
        host, P, bmat, tpl, params, res, rng = embedded_instance(seed=11)
        Z_classes, RK, bKr = patch_setup(res, host, rng, size=10)
        rows = {z: 1 << res.phi[z] for cls in Z_classes for z in cls}  # a bare diagonal
        # rejected either by the hypothesis certificate or by the embedding
        # itself (the diagonal pairs are not patching-graph adjacent)
        with pytest.raises((HypothesisViolation, PatchFailure)):
            repatch(tpl.graph, P.graph, RK, bKr, res.phi,
                    rows, Z_classes, beta_prime=0.45, delta=0.1,
                    retries=params.embed_retry_cap, rng=rng)
