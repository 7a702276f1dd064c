"""Round-based embedding of a union-of-matchings pattern into a host.

The pattern H sits on classes Y_1..Y_q, the host G on classes U_1..U_q
with |Y_i| = |U_i| = n_i, and every pattern pair H[Y_i, Y_j] on an edge
of the class graph is a matching.  The paper pads every class up to the
largest with artificial vertices; none would carry a pattern vertex, so
here classes may differ in size and each is embedded and certified at
its own n_i.
Round t = i + 1 embeds class i by sampling a near-uniform perfect
matching of the current candidacy graph A(i) on (Y_i, U_i); a vertex
stays a candidate exactly while it is adjacent in the host to the images
of all embedded pattern neighbours.  The paper groups classes into
rounds independent in the square of the class graph so that the number
of tolerance steps does not grow with q; here every round after the
first runs at the clamp ``XI``, so one class per round in index order
runs at the same tolerances.  From ``uniform`` the instance tolerance
eps is min(eps_host^(1/3), 0.5); ``patching`` passes delta.

Two candidacy tracks run side by side, one ``_Track`` each: the host
track (A against G, with the densities d) and the patching track (B
against the reserve P, with the densities beta).  Both take the same
constraint and density-ladder update after every round and the same
degree-window certificate; the host track also supplies the matchings,
and the patching track is returned as the candidacy bigraph F.

Candidacy policy.  Only real pattern edges constrain candidacy.  The
asymptotic analysis also charges the edges that complete each pair to a
perfect matching, which multiplies candidacy densities by roughly
d^(K*Delta_R) and empties them at the class sizes this package runs.
Charging real edges alone keeps every exact guarantee (the embedding is
real-edge sound and the F-containments hold verbatim) and only weakens
the distributional uniformity device, which is measured downstream as
diagnostics rather than asserted.

Failure taxonomy: type 1 covers the preparation certificates of the host
and reserve pairs and of the initial candidacy classes, type 2 covers
per-round candidacy certificates and missing matchings.
Both are retried by the caller with fresh randomness; candidacy state
is path-dependent, so single rounds are never backtracked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BadParams, FailureType1, FailureType2
from .graphs import (
    BipartiteGraph,
    LabeledGraph,
    ReducedGraph,
    bit_matrix,
    bit_rows,
    mask_of,
    pair_view,
    popcount,
)
from .matching import default_steps, find_perfect_matching, hall_witness, sample_switch_chain
from .regularity import _SLACK, pipeline_certificate, window

# clamp of the paper's tolerances g^t(2*eps): g(2*eps) >= 0.25 once 2*eps >= 0.25**300
XI = 0.25


def round_xi(eps: float, t: int) -> float:
    """Round t + 1's candidate-filter tolerance: the paper's xi_t =
    g^t(2*eps), g(a) = a^(1/300), clamped at ``XI`` (exactly so for every
    eps >= 1.3e-181).  Class certificates read ``XI``."""
    return XI if t else min(2 * eps, XI)


@dataclass
class SlenderInput:
    """One slender instance.  ``eps`` is the tolerance of the preparation
    certificates and of round 1's candidate filter (``round_xi``); later
    rounds run at ``XI``.  Classes may differ in size; ``A0[i]`` is the
    initial candidacy on (Y_i, U_i) in local indices."""

    R_star: ReducedGraph
    Y_classes: list[list[int]]
    U_classes: list[list[int]]
    G_host: LabeledGraph
    P_host: LabeledGraph
    H: LabeledGraph
    A0: list[BipartiteGraph]
    d_mat: list[list[Fraction]]
    beta_mat: list[list[Fraction]]
    d0: float
    eps: float


@dataclass
class SlenderOutput:
    phi: dict[int, int]                      # pattern id -> host id
    F: list[BipartiteGraph]                  # per class, on (Y_j, U_j) with global ids
    p_host: list[Fraction] = field(default_factory=list)   # density ladder vs the host
    p_patch: list[Fraction] = field(default_factory=list)  # density ladder vs the reserve


def validate_input(s: SlenderInput) -> list[str]:
    """Mechanical checks of the validity conditions; returns violations.

    The pair and candidacy certificates are left to the preparation step
    (P2), which certifies each real n_i x n_j pair."""
    v: list[str] = []
    q = len(s.Y_classes)
    if len(s.U_classes) != q or s.R_star.r != q:
        v.append("class counts of Y, U and the class graph disagree")
        return v
    # (V6) sizes
    for i in range(q):
        if len(s.Y_classes[i]) != len(s.U_classes[i]):
            v.append(f"(V6) |Y_{i}|={len(s.Y_classes[i])} != |U_{i}|={len(s.U_classes[i])}")
    # (V6) every pattern pair is a matching on an edge of the class graph,
    # edges bucketed by class pair
    yclass = {p: i for i, cls in enumerate(s.Y_classes) for p in cls}
    pairs: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, cls in enumerate(s.Y_classes):
        for x in cls:
            for y in s.H.neighbors(x):
                if yclass.get(y, -1) > i:
                    pairs.setdefault((i, yclass[y]), []).append((x, y))
    for (i, j), edges in sorted(pairs.items()):
        if not s.R_star.has_edge(i, j):
            v.append(f"(V6) pattern edges between non-adjacent classes {i},{j}")
        elif len({x for x, _ in edges}) != len(edges) or len({y for _, y in edges}) != len(edges):
            v.append(f"(V6) pattern pair ({i},{j}) is not a matching")
    return v


@dataclass
class _Track:
    """Candidacy against the host (densities d) or the patching reserve (beta)."""

    name: str
    dens: list[list[Fraction]]
    # adjacency per ordered class pair (i, j): rows over U_i, bits over U_j
    pairs: dict[tuple[int, int], list[int]] = field(default_factory=dict)
    # the same pairs as float32 0/1 matrices
    pair_mats: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    rows: list[list[int]] = field(default_factory=list)   # candidacy rows over U_j, per class
    px: list[list[float]] = field(default_factory=list)   # per-row density ladder
    p: list[Fraction] = field(default_factory=list)       # exact per-class density ladder


class _State:
    """Working state for one slender run, in local indices per class."""

    def __init__(self, s: SlenderInput, rng):
        self.s = s
        self.rng = rng
        self.q = len(s.Y_classes)
        self.ny = [len(c) for c in s.Y_classes]
        self.nbrs = [s.R_star.neighbors(i) for i in range(self.q)]
        d0 = Fraction(s.d0).limit_denominator(10 ** 9)
        self.tracks = (_Track("host", s.d_mat, p=[d0] * self.q),
                       _Track("patching", s.beta_mat, p=[d0] * self.q))
        # pattern pairings per ordered class pair: partner local index or -1
        self.real_nbr: dict[tuple[int, int], list[int]] = {}
        self.f: list[list[int]] = [[-1] * n for n in self.ny]

    # -- preparation -------------------------------------------------------

    def prepare(self) -> None:
        s, q = self.s, self.q
        ypos = [{p: k for k, p in enumerate(cls)} for cls in s.Y_classes]
        ymask = [mask_of(cls) for cls in s.Y_classes]
        for i in range(q):
            for j in self.nbrs[i]:
                for tr, graph in zip(self.tracks, (s.G_host, s.P_host)):
                    tr.pairs[(i, j)] = pair_view(graph.adj, s.U_classes[i], s.U_classes[j]).adj
        for tr in self.tracks:
            tr.pair_mats = {(i, j): bit_matrix(rows, self.ny[j]).astype(np.float32)
                            for (i, j), rows in tr.pairs.items()}
            tr.rows = [list(A.adj) for A in s.A0]
            tr.px = [[float(s.d0)] * n for n in self.ny]
        # pattern pairings from real edges; a vertex with several neighbours
        # in Y_j keeps the highest id
        for i in range(q):
            for j in self.nbrs[i]:
                real = [-1] * self.ny[i]
                for a, x in enumerate(s.Y_classes[i]):
                    hit = s.H.adj[x] & ymask[j]
                    if hit:
                        real[a] = ypos[j][hit.bit_length() - 1]
                self.real_nbr[(i, j)] = real

    def check_preparation(self) -> list[str]:
        """(P2) certificates of the n_i x n_j host and reserve pairs and of
        the initial candidacy classes."""
        s, ny = self.s, self.ny
        errs: list[str] = []
        eps2 = 2 * s.eps
        checks = []
        for i in range(self.q):
            for j in self.nbrs[i]:
                if i > j:
                    continue
                for tr in self.tracks:
                    B = BipartiteGraph(ny[i], ny[j])
                    B.adj = tr.pairs[(i, j)]
                    checks.append((f"{tr.name} pair ({i},{j})", B, float(tr.dens[i][j])))
        checks += [(f"candidacy class {i}", s.A0[i], s.d0) for i in range(self.q)]
        for label, B, d in checks:
            if not pipeline_certificate(B, eps2, d):
                errs.append(f"(P2) {label} not ({eps2},{d})-certified")
        return errs

    # -- rounds ------------------------------------------------------------

    def run_rounds(self) -> None:
        """Round t = i + 1 embeds class i, constrains its class-graph
        neighbours by its images and certifies them in ascending order."""
        for i in range(self.q):
            t = i + 1
            if self.ny[i]:
                self._build_and_embed(i, t, round_xi(self.s.eps, i))
            for j in self.nbrs[i]:
                self._apply_constraints(i, j)
                self._certify_class(j, t)

    def _build_and_embed(self, i: int, t: int, xi_prev: float) -> None:
        """Filter class i's candidates (one matrix product per neighbour and
        track, `_filtered_rows`) and sample its matching."""
        Bi = BipartiteGraph(self.ny[i], self.ny[i])
        Bi.adj = self._filtered_rows(i, 2 * xi_prev)
        self.f[i] = self._sample_matching(Bi, i, t)

    def _filtered_rows(self, i: int, xi2: float) -> list[int]:
        """Class i's host-track candidacy rows without the candidates whose
        joint neighbourhood counts leave a per-neighbour window on either
        track.

        For the rows a with a partner in class j, the counts
        ``count[a, v] = |rows_j[partner[a]] & pairs[(i, j)][v]|`` over the
        n_j columns of class j are one product of two 0/1 matrices, exact
        in float32 below 2**24.  A candidate's test reads no other
        candidate, so the keep-masks of the neighbours are ANDed in
        independently."""
        rows = list(self.tracks[0].rows[i])
        for j in self.nbrs[i]:
            nj = self.ny[j]
            partner = self.real_nbr[(i, j)]
            act = [a for a, b in enumerate(partner) if b >= 0]
            if not act:
                continue
            drop = np.zeros((len(act), self.ny[i]), dtype=bool)
            for tr in self.tracks:
                dij, px = float(tr.dens[i][j]), tr.px[j]
                pd = [dij * px[partner[a]] for a in act]
                # the ladder holds a handful of distinct values per class
                widths = {p: window(xi2, p, nj) + _SLACK for p in set(pd)}
                left = bit_matrix([tr.rows[j][partner[a]] for a in act], nj).astype(np.float32)
                count = left @ tr.pair_mats[(i, j)].T
                drop |= np.abs(count - np.multiply(pd, nj)[:, None]) > np.array([widths[p] for p in pd])[:, None]
            for a, keep in zip(act, bit_rows(~drop)):
                rows[a] &= keep
        return rows

    def _sample_matching(self, Bi: BipartiteGraph, i: int, t: int) -> list[int]:
        start = find_perfect_matching(Bi)
        if start is None:
            S, NS = hall_witness(Bi)
            raise FailureType2(
                f"no perfect matching in candidacy class {i}: |S| = {S.bit_count()}, "
                f"|N(S)| = {NS.bit_count()}, minimum degree {min(map(popcount, Bi.adj))}",
                stage=(t, i))
        return sample_switch_chain(Bi, default_steps(Bi.nl), self.rng, start=start).sigma

    def _apply_constraints(self, i: int, j: int) -> None:
        """Constrain class j's rows by the images of class i on both tracks,
        and step both density ladders by the density of the pair (i, j)."""
        partner = self.real_nbr[(i, j)]
        fi = self.f[i]
        for tr in self.tracks:
            pair, rows, px = tr.pairs[(i, j)], tr.rows[j], tr.px[j]
            dij = float(tr.dens[i][j])
            for a, b in enumerate(partner):
                if b < 0:
                    continue
                rows[b] &= pair[fi[a]]
                px[b] *= dij
            tr.p[j] *= Fraction(tr.dens[i][j])

    def _certify_class(self, j: int, t: int) -> None:
        """Per-vertex degree windows at ``XI`` on both tracks.  The codegree
        criterion does not apply there, 1 - 5 * XI being negative."""
        n = self.ny[j]
        if n == 0:
            return
        for tr in self.tracks:
            rows, px = tr.rows[j], tr.px[j]
            mean = sum(px) / n
            cols = bit_matrix(rows, n).sum(axis=0).tolist()
            # the ladder holds a handful of distinct values per class
            widths = {p: window(XI, p, n) for p in set(px)}
            widths[mean] = window(XI, mean, n)
            for kind, degs, ps in (("row", map(popcount, rows), px), ("column", cols, [mean] * n)):
                for a, (deg, p) in enumerate(zip(degs, ps)):
                    width = widths[p]
                    if abs(deg - p * n) > width + _SLACK:
                        raise FailureType2(
                            f"{tr.name} candidacy {kind} {a} of class {j} has degree {deg}, "
                            f"expected {p * n:.2f} +- {width:.2f}", stage=(t, j))


def run_slender(s: SlenderInput, rng) -> SlenderOutput:
    """One attempt of the slender embedding; raises FailureType1/2 on abort."""
    violations = validate_input(s)
    if violations:
        raise BadParams("invalid slender input: " + "; ".join(violations[:4]))
    state = _State(s, rng)
    state.prepare()
    prep_errs = state.check_preparation()
    if prep_errs:
        raise FailureType1("; ".join(prep_errs[:4]))
    state.run_rounds()

    phi = {pid: s.U_classes[i][b] for i in range(state.q) for pid, b in zip(s.Y_classes[i], state.f[i])}

    host, patch = state.tracks
    F: list[BipartiteGraph] = []
    for j in range(state.q):
        Fj = BipartiteGraph(state.ny[j], state.ny[j], left_ids=list(s.Y_classes[j]),
                            right_ids=list(s.U_classes[j]))
        Fj.adj = list(patch.rows[j])
        F.append(Fj)

    _assert_output(s, phi, F)
    # exact rational identity: after all rounds each ladder equals the
    # initial density times the product over class-graph neighbours
    for j in range(state.q):
        for tr in state.tracks:
            want = Fraction(s.d0).limit_denominator(10 ** 9)
            for ell in s.R_star.neighbors(j):
                want *= Fraction(tr.dens[j][ell])
            if tr.p[j] != want:
                raise AssertionError(f"{tr.name} density ladder of class {j} broke its exact identity")
    return SlenderOutput(phi=phi, F=F, p_host=list(host.p), p_patch=list(patch.p))


def _assert_output(s: SlenderInput, phi: dict[int, int], F: list[BipartiteGraph]) -> None:
    """Exact output guarantees, asserted on every success."""
    vals = list(phi.values())
    if len(vals) != len(set(vals)):
        raise AssertionError("embedding is not injective")
    for x, y in s.H.edges():
        if not s.G_host.has_edge(phi[x], phi[y]):
            raise AssertionError(f"pattern edge ({x},{y}) not realized in the host")
    for i in range(len(s.Y_classes)):
        upos = {u: b for b, u in enumerate(s.U_classes[i])}
        for a, pid in enumerate(s.Y_classes[i]):
            if phi[pid] not in upos:
                raise AssertionError(f"vertex {pid} left its class under the embedding")
            if not s.A0[i].has_edge(a, upos[phi[pid]]):
                raise AssertionError(f"embedding of {pid} violates its initial candidacy")
    # candidacy-bigraph soundness: F rows sit inside every P-constraint
    for j, Fj in enumerate(F):
        for a, row in enumerate(Fj.adj):
            if row & ~s.A0[j].adj[a]:
                raise AssertionError("F row escapes the initial candidacy")
        nbrs = [(a, ynb) for a, pid in enumerate(s.Y_classes[j]) for ynb in s.H.neighbors(pid) if ynb in phi]
        pmasks = pair_view(s.P_host.adj, [phi[ynb] for _, ynb in nbrs], s.U_classes[j]).adj
        for (a, _), pmask in zip(nbrs, pmasks):
            if Fj.adj[a] & ~pmask:
                raise AssertionError("F row escapes a patching-graph constraint")
