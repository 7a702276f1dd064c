"""Round-based embedding of a union-of-matchings pattern into a host.

The pattern H sits on classes Y_1..Y_q, the host G on classes U_1..U_q
of equal sizes, and every pattern pair H[Y_i, Y_j] on an edge of the
class graph is a matching.  Classes are embedded one schedule round at
a time by sampling a near-uniform perfect matching of the current
candidacy graph A(i) on (Y_i, U_i); a vertex stays a candidate exactly
while it is adjacent in the host to the images of all embedded pattern
neighbours.  A parallel family B^j tracks the same constraints against
the patching graph P and is returned as the candidacy bigraph F.

Candidacy policy.  With ``strict_candidacy`` the completion edges that
turn each pair into a perfect matching also constrain candidacy (the
form the asymptotic analysis uses); by default only real pattern edges
do.  The strict form multiplies candidacy densities by roughly
d^(K*Delta_R), which is vacuous at the class sizes this package runs,
while the default form keeps every exact guarantee (the embedding is
real-edge sound and the F-containments hold verbatim) and only weakens
the distributional uniformity device, which is measured downstream as
diagnostics rather than asserted.

Failure taxonomy: type 1 covers preparation (padding) certificates,
type 2 covers per-round candidacy certificates and missing matchings.
Both are retried by the caller with fresh randomness; candidacy state
is path-dependent, so single rounds are never backtracked.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .coloring import schedule_violations
from .errors import BadParams, FailureType1, FailureType2
from .graphs import (
    BipartiteGraph,
    LabeledGraph,
    ReducedGraph,
    bit_matrix,
    iter_bits,
    pair_view,
    popcount,
)
from .matching import (
    ExactUniformSampler,
    default_steps,
    find_perfect_matching,
    sample_switch_chain,
)
from .params import ParamSet
from .regularity import pipeline_certificate, super_regularity_certificate


@dataclass
class SlenderInput:
    R_star: ReducedGraph
    Y_classes: list[list[int]]
    U_classes: list[list[int]]
    G_host: LabeledGraph
    P_host: LabeledGraph
    H: LabeledGraph
    H_star: LabeledGraph
    A0: list[BipartiteGraph]
    schedule: list[list[int]]
    d_mat: list[list[Fraction]]
    beta_mat: list[list[Fraction]]
    d0: float
    params: ParamSet
    C: int = 0
    max_class_degree: int | None = None  # defaults to K * Delta_R from params

    def class_degree_bound(self) -> int:
        if self.max_class_degree is not None:
            return self.max_class_degree
        return self.params.K * self.params.Delta_R


@dataclass
class SlenderOutput:
    phi: dict[int, int]                      # pattern id -> host id
    F: list[BipartiteGraph]                  # per class, on (Y_j, U_j) with global ids
    p_host: list[Fraction] = field(default_factory=list)   # density ladder vs the host
    p_patch: list[Fraction] = field(default_factory=list)  # density ladder vs the reserve
    trace: list[dict] = field(default_factory=list)


def trace_to_jsonl(trace: list[dict], path) -> None:
    """Write the per-round event log, one JSON object per line."""
    with open(path, "w") as fh:
        for event in trace:
            fh.write(json.dumps(event) + "\n")


def validate_input(s: SlenderInput, expected_w: int | None = None,
                   check_certificates: bool = True) -> list[str]:
    """Mechanical checks of the validity conditions; returns violations."""
    v: list[str] = []
    q = len(s.Y_classes)
    if len(s.U_classes) != q or s.R_star.r != q:
        v.append("class counts of Y, U and the class graph disagree")
        return v
    # (V1) the schedule partitions the class indices; (V2) every round is
    # independent in the class graph and meets each neighbourhood at most once
    for e in schedule_violations(s.R_star.adj, s.schedule, q):
        v.append(("(V1) " if "partition" in e else "(V2) ") + e)
    if expected_w is not None and len(s.schedule) != expected_w:
        v.append(f"(V1) schedule length {len(s.schedule)} != expected {expected_w}")
    bound = s.class_degree_bound()
    if s.R_star.max_degree() > bound:
        v.append(f"(V2) class-graph degree {s.R_star.max_degree()} exceeds {bound}")
    # (V4)/(V6) sizes
    m = max((len(c) for c in s.U_classes), default=0)
    for i in range(q):
        if not (m - s.C <= len(s.U_classes[i]) <= m):
            v.append(f"(V4) |U_{i}|={len(s.U_classes[i])} outside [m-C, m]")
        if len(s.Y_classes[i]) != len(s.U_classes[i]):
            v.append(f"(V6) |Y_{i}|={len(s.Y_classes[i])} != |U_{i}|={len(s.U_classes[i])}")
    # (V6) pair structure of the completed pattern, edges bucketed by class pair
    yclass = {p: i for i, cls in enumerate(s.Y_classes) for p in cls}
    pairs = {(i, j): [] for i, j in s.R_star.edges()}
    for i, cls in enumerate(s.Y_classes):
        for x in cls:
            for y in s.H_star.neighbors(x):
                if yclass.get(y, -1) > i:
                    pairs.setdefault((i, yclass[y]), []).append((x, y))
    for (i, j), edges in sorted(pairs.items()):
        if not s.R_star.has_edge(i, j):
            v.append(f"(V6) pattern edges between non-adjacent classes {i},{j}")
            continue
        want = min(len(s.Y_classes[i]), len(s.Y_classes[j]))
        lefts = [x for x, _ in edges]
        rights = [y for _, y in edges]
        if len(edges) != want or len(set(lefts)) != len(edges) or len(set(rights)) != len(edges):
            v.append(f"(V6) completed pair ({i},{j}) is not a matching of size {want}")
    for x, y in s.H.edges():
        if not s.H_star.has_edge(x, y):
            v.append("pattern is not contained in its completion")
            break
    # (V4)/(V5)/(V7) certificates
    if check_certificates:
        eps = s.params.eps
        floor = s.params.cert_sd_floor
        for i, j in s.R_star.edges():
            B = pair_view(s.G_host.adj, s.U_classes[i], s.U_classes[j])
            if not pipeline_certificate(B, eps, float(s.d_mat[i][j]), floor):
                v.append(f"(V4) host pair ({i},{j}) failed the ({eps},{float(s.d_mat[i][j])}) certificate")
            Bp = pair_view(s.P_host.adj, s.U_classes[i], s.U_classes[j])
            if not pipeline_certificate(Bp, eps, float(s.beta_mat[i][j]), floor):
                v.append(f"(V5) patching pair ({i},{j}) failed the ({eps},{float(s.beta_mat[i][j])}) certificate")
        for i in range(q):
            if not pipeline_certificate(s.A0[i], eps, s.d0, floor):
                v.append(f"(V7) initial candidacy class {i} failed the ({eps},{s.d0}) certificate")
    return v


class _State:
    """Padded working state for one slender run."""

    def __init__(self, s: SlenderInput, rng):
        self.s = s
        self.rng = rng
        self.q = len(s.Y_classes)
        self.m = max((len(c) for c in s.U_classes), default=0)
        self.ny = [len(c) for c in s.Y_classes]
        self.nbrs = [s.R_star.neighbors(i) for i in range(self.q)]
        self.full = (1 << self.m) - 1 if self.m else 0
        self.real_mask = [(1 << self.ny[i]) - 1 for i in range(self.q)]
        # host adjacency per ordered class pair, local indexing, artificial
        # vertices padded in during preparation
        self.Gp: dict[tuple[int, int], list[int]] = {}
        self.Pp: dict[tuple[int, int], list[int]] = {}
        # pattern pairings per ordered class pair: partner local index or -1
        self.psi: dict[tuple[int, int], list[int]] = {}
        self.real_nbr: dict[tuple[int, int], list[int]] = {}
        # candidacy rows over U'_j, per class
        self.A: list[list[int]] = []
        self.B: list[list[int]] = []
        self.A0_rows: list[list[int]] = []
        self.px_d: list[list[float]] = []
        self.px_b: list[list[float]] = []
        self.p_d: list[Fraction] = [Fraction(s.d0).limit_denominator(10 ** 9) for _ in range(self.q)]
        self.p_b: list[Fraction] = [Fraction(s.d0).limit_denominator(10 ** 9) for _ in range(self.q)]
        self.f: list[list[int]] = [[-1] * self.m for _ in range(self.q)]
        self.embedded: list[bool] = [False] * self.q

    # -- preparation -------------------------------------------------------

    def prepare(self) -> None:
        s, rng, m, q = self.s, self.rng, self.m, self.q
        ypos = [{p: k for k, p in enumerate(cls)} for cls in s.Y_classes]
        yclass = {}
        for i, cls in enumerate(s.Y_classes):
            for p in cls:
                yclass[p] = i
        # real-real host adjacency
        for i in range(q):
            pad = [0] * (m - len(s.U_classes[i]))
            for j in self.nbrs[i]:
                self.Gp[(i, j)] = pair_view(s.G_host.adj, s.U_classes[i], s.U_classes[j]).adj + pad
                self.Pp[(i, j)] = pair_view(s.P_host.adj, s.U_classes[i], s.U_classes[j]).adj + pad
        # artificial host vertices: Bernoulli(d) edges to real vertices only
        for i in range(q):
            for j in self.nbrs[i]:
                if i > j:
                    continue
                dij = float(self.s.d_mat[i][j])
                bij = float(self.s.beta_mat[i][j])
                for a in range(self.ny[i], m):
                    for b in range(self.ny[j]):
                        if rng.random() < dij:
                            self.Gp[(i, j)][a] |= 1 << b
                            self.Gp[(j, i)][b] |= 1 << a
                        if rng.random() < bij:
                            self.Pp[(i, j)][a] |= 1 << b
                            self.Pp[(j, i)][b] |= 1 << a
                for b in range(self.ny[j], m):
                    for a in range(self.ny[i]):
                        if rng.random() < dij:
                            self.Gp[(i, j)][a] |= 1 << b
                            self.Gp[(j, i)][b] |= 1 << a
                        if rng.random() < bij:
                            self.Pp[(i, j)][a] |= 1 << b
                            self.Pp[(j, i)][b] |= 1 << a
        # candidacy rows from A0, padded with Bernoulli(d0) artificial edges
        for i in range(q):
            rows = [0] * m
            for a in range(self.ny[i]):
                rows[a] = s.A0[i].adj[a]
                for b in range(self.ny[i], m):
                    if rng.random() < s.d0:
                        rows[a] |= 1 << b
            for a in range(self.ny[i], m):
                for b in range(self.ny[i]):
                    if rng.random() < s.d0:
                        rows[a] |= 1 << b
            self.A0_rows.append(rows)
        self.A = [list(rows) for rows in self.A0_rows]
        self.B = [list(rows) for rows in self.A0_rows]
        self.px_d = [[float(s.d0)] * m for _ in range(q)]
        self.px_b = [[float(s.d0)] * m for _ in range(q)]
        # pattern pairings: real edges first, completion pairs the leftovers
        for i in range(q):
            for j in self.nbrs[i]:
                psi = [-1] * m
                real = [-1] * m
                for a, x in enumerate(s.Y_classes[i]):
                    for ynb in s.H_star.neighbors(x):
                        if yclass.get(ynb) == j:
                            psi[a] = ypos[j][ynb]
                    for ynb in s.H.neighbors(x):
                        if yclass.get(ynb) == j:
                            real[a] = ypos[j][ynb]
                used = set(p for p in psi if p >= 0)
                free_j = [b for b in range(m) if b not in used]
                free_i = [a for a in range(m) if psi[a] < 0]
                for a, b in zip(free_i, free_j):
                    psi[a] = b
                self.psi[(i, j)] = psi
                self.real_nbr[(i, j)] = real

    def check_preparation(self) -> list[str]:
        """(P2) padded-pair certificates and sampled (P3) intersection checks."""
        s, m = self.s, self.m
        errs: list[str] = []
        eps2 = 2 * s.params.eps
        for i in range(self.q):
            for j in self.nbrs[i]:
                if i > j or m < 2:
                    continue
                B = BipartiteGraph(m, m)
                B.adj = list(self.Gp[(i, j)])
                if not pipeline_certificate(B, eps2, float(s.d_mat[i][j]), s.params.cert_sd_floor):
                    errs.append(f"(P2) padded host pair ({i},{j}) not ({eps2},{float(s.d_mat[i][j])})-certified")
                Bp = BipartiteGraph(m, m)
                Bp.adj = list(self.Pp[(i, j)])
                if not pipeline_certificate(Bp, eps2, float(s.beta_mat[i][j]), s.params.cert_sd_floor):
                    errs.append(f"(P2) padded patching pair ({i},{j}) not certified")
        for i in range(self.q):
            if m < 2:
                continue
            BA = BipartiteGraph(m, m)
            BA.adj = list(self.A0_rows[i])
            if not pipeline_certificate(BA, eps2, s.d0, s.params.cert_sd_floor):
                errs.append(f"(P2) padded candidacy class {i} not certified")
        errs.extend(self._check_p3())
        return errs

    def _check_p3(self, tuple_cap: int = 10_000) -> list[str]:
        s, m, rng = self.s, self.m, self.rng
        arty = [(j, a) for j in range(self.q) for a in range(self.ny[j], m)]
        if not arty:
            return []
        errs = []
        budget = min(tuple_cap, 50 * len(arty))
        window = 2 * s.params.eps * m
        for _ in range(budget):
            j, a = arty[rng.randrange(len(arty))]
            cand_i = [i for i in self.nbrs[j]]
            if not cand_i:
                continue
            i = cand_i[rng.randrange(len(cand_i))]
            y = rng.randrange(m)
            q2_size = rng.randrange(3)
            q2 = []
            for _ in range(q2_size):
                ell = self.nbrs[i][rng.randrange(len(self.nbrs[i]))]
                q2.append((ell, rng.randrange(max(self.ny[ell], 1))))
            base = self.A0_rows[i][y]
            for (ell, b) in q2:
                base &= self.Gp[(ell, i)][b]
            inter = base & self.Gp[(j, i)][a]
            want = float(s.d_mat[j][i]) * popcount(base)
            if abs(popcount(inter) - want) > window:
                errs.append(
                    f"(P3) artificial vertex ({j},{a}) deviates by "
                    f"{abs(popcount(inter) - want):.1f} > {window:.1f} on a sampled tuple")
                if len(errs) >= 5:
                    break
        return errs

    # -- rounds ------------------------------------------------------------

    def run_rounds(self, trace: list[dict] | None = None) -> None:
        s = self.s
        strict = s.params.strict_candidacy
        for t, cls in enumerate(s.schedule, start=1):
            xi_prev = s.params.xi(t - 1)
            xi_now = s.params.xi(t)
            for i in cls:
                if self.m == 0:
                    continue
                dropped = self._build_and_embed(i, t, xi_prev, trace)
                if trace is not None:
                    trace.append({"round": t, "class": i, "dropped_max_degree": dropped})
            touched = set()
            for i in cls:
                self.embedded[i] = True
                for j in self.nbrs[i]:
                    self._apply_constraints(i, j, strict)
                    touched.add(j)
                    # density ladder: one neighbour per round by (V2)
                    self.p_d[j] *= Fraction(s.d_mat[i][j])
                    self.p_b[j] *= Fraction(s.beta_mat[i][j])
            for j in sorted(touched):
                self._certify_class(j, t, xi_now)

    def _window_ok(self, count: int, center: float, width: float) -> bool:
        return abs(count - center) <= width + 1e-9

    def _width(self, xi: float, p: float, scale: int) -> float:
        base = xi * self.m
        sd = math.sqrt(max(p * (1 - p), 0.0) * self.m)
        return max(base * scale, self.s.params.cert_sd_floor * sd + 1.0)

    def _build_and_embed(self, i: int, t: int, xi_prev: float, trace) -> int:
        s, m = self.s, self.m
        strict = s.params.strict_candidacy
        rows = list(self.A[i])
        dropped_deg = [0] * m
        # drop candidates whose joint neighbourhood counts leave the
        # per-neighbour windows, against both the host and the patching graph
        for j in self.nbrs[i]:
            partner = self.psi[(i, j)] if strict else self.real_nbr[(i, j)]
            gp = self.Gp[(i, j)]
            pp = self.Pp[(i, j)]
            for a in range(m):
                xj = partner[a]
                if xj < 0:
                    continue
                arow = self.A[j][xj]
                brow = self.B[j][xj]
                pd = float(s.d_mat[i][j]) * self.px_d[j][xj]
                pb = float(s.beta_mat[i][j]) * self.px_b[j][xj]
                cd = pd * m
                cb = pb * m
                wd = self._width(xi_prev, pd, 2)
                wb = self._width(xi_prev, pb, 2)
                keep = rows[a]
                for v in iter_bits(keep):
                    if not self._window_ok(popcount(arow & gp[v]), cd, wd) or \
                            not self._window_ok(popcount(brow & pp[v]), cb, wb):
                        rows[a] &= ~(1 << v)
                        dropped_deg[a] += 1
        ny = self.ny[i]
        # artificial vertices are paired identically: y_{i,t} -> u_{i,t}
        for a in range(ny, m):
            self.f[i][a] = a
        if ny:
            Bi = BipartiteGraph(ny, ny)
            Bi.adj = [rows[a] & self.real_mask[i] for a in range(ny)]
            sigma = self._sample_matching(Bi, i, t)
            for a in range(ny):
                self.f[i][a] = sigma[a]
        return max(dropped_deg, default=0)

    def _sample_matching(self, Bi: BipartiteGraph, i: int, t: int) -> list[int]:
        s = self.s
        start = find_perfect_matching(Bi)
        if start is None:
            raise FailureType2(f"no perfect matching in candidacy class {i}", stage=(t, i))
        if s.params.exact_sampler and Bi.nl <= s.params.exact_sampler_cap:
            return ExactUniformSampler(Bi).sample(self.rng).sigma
        steps = default_steps(Bi.nl, s.params.mix_factor)
        return sample_switch_chain(Bi, steps, self.rng, start=start).sigma

    def _apply_constraints(self, i: int, j: int, strict: bool) -> None:
        partner = self.psi[(i, j)] if strict else self.real_nbr[(i, j)]
        gp = self.Gp[(i, j)]
        pp = self.Pp[(i, j)]
        dij = float(self.s.d_mat[i][j])
        bij = float(self.s.beta_mat[i][j])
        for a in range(self.m):
            b = partner[a]
            if b < 0:
                continue
            u = self.f[i][a]
            self.A[j][b] &= gp[u]
            self.B[j][b] &= pp[u]
            self.px_d[j][b] *= dij
            self.px_b[j][b] *= bij

    def _certify_class(self, j: int, t: int, xi: float) -> None:
        """Per-vertex degree windows plus the codegree criterion on the real part."""
        m = self.m
        if m == 0:
            return
        mean_px = sum(self.px_d[j]) / m
        for a in range(m):
            deg = popcount(self.A[j][a])
            width = self._width(xi, self.px_d[j][a], 1)
            if not self._window_ok(deg, self.px_d[j][a] * m, width):
                raise FailureType2(
                    f"candidacy row {a} of class {j} has degree {deg}, "
                    f"expected {self.px_d[j][a] * m:.2f} +- {width:.2f}", stage=(t, j))
        col = bit_matrix(self.A[j], m).sum(axis=0).tolist()
        wcol = self._width(xi, mean_px, 1)
        for v in range(m):
            if not self._window_ok(col[v], mean_px * m, wcol):
                raise FailureType2(
                    f"candidacy column {v} of class {j} has degree {col[v]}, "
                    f"expected {mean_px * m:.2f} +- {wcol:.2f}", stage=(t, j))
        mean_pb = sum(self.px_b[j]) / m
        for a in range(m):
            deg = popcount(self.B[j][a])
            widthb = self._width(xi, self.px_b[j][a], 1)
            if not self._window_ok(deg, self.px_b[j][a] * m, widthb):
                raise FailureType2(
                    f"patch candidacy row {a} of class {j} has degree {deg}", stage=(t, j))
        colb = bit_matrix(self.B[j], m).sum(axis=0).tolist()
        wcolb = self._width(xi, mean_pb, 1)
        for v in range(m):
            if not self._window_ok(colb[v], mean_pb * m, wcolb):
                raise FailureType2(
                    f"patch candidacy column {v} of class {j} has degree {colb[v]}", stage=(t, j))
        if 1 - 5 * xi > 0 and self.ny[j] >= 2:
            Bj = BipartiteGraph(self.ny[j], self.ny[j])
            Bj.adj = [self.A[j][a] & self.real_mask[j] for a in range(self.ny[j])]
            rep = super_regularity_certificate(Bj, xi, Bj.density())
            if not rep.codegree_ok:
                raise FailureType2(f"codegree criterion failed for class {j}", stage=(t, j))


def run_slender(s: SlenderInput, rng, expected_w: int | None = None,
                trace: list[dict] | None = None) -> SlenderOutput:
    """One attempt of the slender embedding; raises FailureType1/2 on abort.

    The input is checked without its (V4)/(V5)/(V7) certificates: callers
    build it from certified pairs, and the preparation re-certifies the
    padded pairs."""
    violations = validate_input(s, expected_w=expected_w, check_certificates=False)
    if violations:
        raise BadParams("invalid slender input: " + "; ".join(violations[:4]))
    state = _State(s, rng)
    state.prepare()
    prep_errs = state.check_preparation()
    if prep_errs:
        raise FailureType1("; ".join(prep_errs[:4]))
    state.run_rounds(trace)

    phi: dict[int, int] = {}
    for i in range(state.q):
        for a, pid in enumerate(s.Y_classes[i]):
            u_local = state.f[i][a]
            if u_local < 0 or u_local >= state.ny[i]:
                raise FailureType2(f"real vertex {pid} mapped to an artificial slot", stage=(None, i))
            phi[pid] = s.U_classes[i][u_local]

    F: list[BipartiteGraph] = []
    for j in range(state.q):
        ny = state.ny[j]
        Fj = BipartiteGraph(ny, ny, left_ids=list(s.Y_classes[j]), right_ids=list(s.U_classes[j]))
        Fj.adj = [state.B[j][a] & state.real_mask[j] for a in range(ny)]
        F.append(Fj)

    _assert_output(s, phi, F)
    # exact rational identity: after all rounds the ladder equals the initial
    # density times the product over class-graph neighbours
    for j in range(state.q):
        want_d = Fraction(s.d0).limit_denominator(10 ** 9)
        want_b = Fraction(s.d0).limit_denominator(10 ** 9)
        for ell in s.R_star.neighbors(j):
            want_d *= Fraction(s.d_mat[j][ell])
            want_b *= Fraction(s.beta_mat[j][ell])
        if state.p_d[j] != want_d or state.p_b[j] != want_b:
            raise AssertionError(f"density ladder of class {j} broke its exact identity")
    return SlenderOutput(phi=phi, F=F, p_host=list(state.p_d), p_patch=list(state.p_b),
                         trace=trace or [])


def _assert_output(s: SlenderInput, phi: dict[int, int], F: list[BipartiteGraph]) -> None:
    """Exact output guarantees, asserted on every success."""
    vals = list(phi.values())
    if len(vals) != len(set(vals)):
        raise AssertionError("embedding is not injective")
    for x, y in s.H.edges():
        if not s.G_host.has_edge(phi[x], phi[y]):
            raise AssertionError(f"pattern edge ({x},{y}) not realized in the host")
    yclass = {}
    ypos_local = {}
    for i, cls in enumerate(s.Y_classes):
        for a, p in enumerate(cls):
            yclass[p] = i
            ypos_local[p] = a
    for i in range(len(s.Y_classes)):
        upos = {u: b for b, u in enumerate(s.U_classes[i])}
        for a, pid in enumerate(s.Y_classes[i]):
            if phi[pid] not in upos:
                raise AssertionError(f"vertex {pid} left its class under the embedding")
            if not s.A0[i].has_edge(a, upos[phi[pid]]):
                raise AssertionError(f"embedding of {pid} violates its initial candidacy")
    # candidacy-bigraph soundness: F rows sit inside every P-constraint
    strict = s.params.strict_candidacy
    for j, Fj in enumerate(F):
        upos = {u: k for k, u in enumerate(s.U_classes[j])}
        for a, pid in enumerate(s.Y_classes[j]):
            row = Fj.adj[a]
            if row & ~s.A0[j].adj[a]:
                raise AssertionError("F row escapes the initial candidacy")
            nbrs = s.H_star.neighbors(pid) if strict else s.H.neighbors(pid)
            for ynb in nbrs:
                if ynb not in phi:
                    continue
                pmask = 0
                prow = s.P_host.adj[phi[ynb]]
                for u in s.U_classes[j]:
                    if (prow >> u) & 1:
                        pmask |= 1 << upos[u]
                if row & ~pmask:
                    raise AssertionError("F row escapes a patching-graph constraint")
