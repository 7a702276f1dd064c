"""Local re-embedding of a bad vertex set through the patching graph.

Given an embedding phi, per-class bad sets Z_i with images W_i = phi(Z_i),
and a candidacy bigraph F recording which patch images each bad vertex
may take, this produces phi' that agrees with phi outside Z, realizes
every pattern edge at Z inside the patching graph, and respects F.

The re-embedding itself is the slender primitive run directly on the
patch instance, in the packer's own ids: pattern classes Z_i, host
classes W_i, the reserve as host and the pattern edges inside Z as
pattern.  Pattern pairs H[Z_i, Z_j] have maximum degree one, so they
are already matchings, and slender embeds them one class per round.  The
blow-up refinement used for full-size patterns would re-split these
already-matching classes for no benefit, so it is skipped here.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadParams, EmbedFailure, HypothesisViolation, PatchFailure
from .graphs import LabeledGraph, ReducedGraph, pair_view
from .regularity import pipeline_certificate
from .slender import SlenderInput, run_slender


def repatch(H: LabeledGraph, P_host: LabeledGraph, R: ReducedGraph, beta_mat,
            phi: dict[int, int], F_rows: dict[int, int],
            Z_classes: list[list[int]], beta_prime: float, delta: float,
            retries: int, rng, A0_rows: dict[int, int] | None = None) -> dict[int, int]:
    """Return phi' re-embedding Z inside W = phi(Z); conclusions asserted.

    ``R`` is the class graph of the patch classes and ``beta_mat`` its
    reserve densities.  ``F_rows`` maps each z in Z to the bitset over host
    ids of its permitted images: bit w is set when z may take host vertex w.
    ``beta_prime`` is the claimed candidacy density for the hypothesis
    certificate and ``delta`` its tolerance; the embedding is tried at most
    ``retries`` times.  ``A0_rows`` maps a pattern vertex to the bitset of
    host ids its initial candidacy allows (``graphs.candidacy_rows``);
    vertices it omits are unconstrained.
    """
    r = len(Z_classes)
    Z = [z for cls in Z_classes for z in cls]
    if not Z:
        return dict(phi)
    W_classes = [[phi[z] for z in cls] for cls in Z_classes]
    sizes = {len(cls) for cls in Z_classes}
    if len(sizes) != 1:
        raise HypothesisViolation(f"patch classes must share one size, got {sorted(sizes)}")
    m = sizes.pop()

    F_pairs = [pair_view(F_rows, cls, wcls) for cls, wcls in zip(Z_classes, W_classes)]

    # hypothesis (a): every F[Z_i, W_i] certified at (delta, beta')
    for i in range(r):
        if not pipeline_certificate(F_pairs[i], delta, beta_prime):
            raise HypothesisViolation(f"patch candidacy class {i} failed its ({delta},{beta_prime}) certificate")
    # hypothesis (b): P restricted to W certified at (delta, beta) per pair
    for i, j in R.edges():
        if not pipeline_certificate(pair_view(P_host.adj, W_classes[i], W_classes[j]), delta,
                                    float(beta_mat[i][j])):
            raise HypothesisViolation(f"patching pair ({i},{j}) on W failed its certificate")
    zset = set(Z)
    zclass = {z: c for c, cls in enumerate(Z_classes) for z in cls}
    # the pattern restricted to Z
    HZ = LabeledGraph(H.n)
    for x, y in H.edges():
        if x in zset and y in zset:
            if zclass[x] != zclass[y] and not R.has_edge(zclass[x], zclass[y]):
                raise HypothesisViolation("pattern edge inside Z crosses a non-edge of R")
            HZ.add_edge(x, y)

    # auxiliary complete-partite graph on W plays the patching role: no
    # constraints beyond F bind inside the patch
    Q = LabeledGraph(P_host.n)
    for i, j in R.edges():
        Q.add_pair([(1 << m) - 1] * m, W_classes[i], W_classes[j])

    tau = [[Fraction(1) if i != j else Fraction(0) for j in range(r)] for i in range(r)]
    if not 0 < delta < 1:
        raise BadParams(f"patching embeds at eps = delta, which must lie in (0,1); got delta = {delta}")
    s = SlenderInput(
        R_star=R,
        Y_classes=Z_classes,
        U_classes=W_classes,
        G_host=P_host,
        P_host=Q,
        H=HZ,
        A0=F_pairs,
        d_mat=beta_mat,
        beta_mat=tau,
        d0=beta_prime,
        eps=delta,
        C=0,
    )
    last = None
    for _ in range(retries):
        try:
            out = run_slender(s, rng)
            break
        except EmbedFailure as exc:
            last = exc
    else:
        raise PatchFailure(f"patch embedding failed: {last}") from last

    phi2 = {**phi, **out.phi}
    _assert_conclusions(H, phi, phi2, zset, P_host, F_pairs, Z_classes, W_classes, A0_rows or {})
    return phi2


def _assert_conclusions(H, phi, phi2, zset, P_host, F_pairs, Z_classes, W_classes, A0_rows):
    """Exact patch conclusions, checked on every success."""
    for x in phi:
        if x not in zset and phi2[x] != phi[x]:
            raise AssertionError("patched embedding moved a vertex outside Z")
    vals = list(phi2.values())
    if len(vals) != len(set(vals)):
        raise AssertionError("patched embedding is not injective")
    for x, y in H.edges():
        if x in zset or y in zset:
            if not P_host.has_edge(phi2[x], phi2[y]):
                raise AssertionError(
                    f"patched pattern edge ({x},{y}) not realized in the patching graph")
    for c, cls in enumerate(Z_classes):
        wset = set(W_classes[c])
        wpos = {w: b for b, w in enumerate(W_classes[c])}
        for a, z in enumerate(cls):
            if phi2[z] not in wset:
                raise AssertionError("patched image left its class window")
            if not F_pairs[c].has_edge(a, wpos[phi2[z]]):
                raise AssertionError("patched image violates the candidacy bigraph")
            if z in A0_rows and not (A0_rows[z] >> phi2[z]) & 1:
                raise AssertionError("patched image violates the initial candidacy")
