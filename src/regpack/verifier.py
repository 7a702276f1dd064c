"""Independent post-hoc checking of packing outputs.

Everything here recomputes from plain edge sets and dictionaries; none
of the packer's bitset state or assertion helpers are reused, so a bug
there cannot mask itself here.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from numbers import Integral

from .errors import SearchBudgetExceeded
from .graphs import BipartiteGraph, LabeledGraph, PartitionedGraph


@dataclass
class VerifyReport:
    ok: bool
    violations: list[str] = field(default_factory=list)
    coverage: float = 0.0
    leftover_max_degree: int = 0
    per_pair_leftover_density: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "ok": self.ok,
            "violations": self.violations,
            "coverage": self.coverage,
            "leftover_max_degree": self.leftover_max_degree,
            "per_pair_leftover_density": self.per_pair_leftover_density,
        }, indent=2)


def verify_packing(host: PartitionedGraph, templates: list[PartitionedGraph],
                   embeddings: list[dict[int, int]],
                   A_list=None, lam=None) -> VerifyReport:
    """Check bijectivity, class respect, edge realization, candidacy,
    pairwise edge-disjointness and collision compliance; compute coverage."""
    violations: list[str] = []
    host_edges = {frozenset((u, v)) for u, v in host.graph.edges()}
    host_class = host.partition.class_of()
    used: dict[frozenset[int], int] = {}
    n = host.graph.n

    if len(templates) != len(embeddings):
        violations.append(f"{len(templates)} templates but {len(embeddings)} embeddings")
    for idx, (tpl, phi) in enumerate(zip(templates, embeddings)):
        if phi is None:
            violations.append(f"template {idx}: missing embedding")
            continue
        if not isinstance(phi, Mapping):
            violations.append(f"template {idx}: embedding is not a vertex map")
            continue
        if set(phi.keys()) != set(range(tpl.graph.n)):
            violations.append(f"template {idx}: embedding domain is not V(H)")
            continue
        images = list(phi.values())
        if not all(_is_index(hv) and 0 <= hv < n for hv in images):
            violations.append(f"template {idx}: an image is not a host vertex 0..{n - 1}")
            continue
        if len(images) != len(set(images)):
            violations.append(f"template {idx}: embedding not injective")
        tpl_class = tpl.partition.class_of()
        for x, hv in phi.items():
            if host_class[hv] != tpl_class[x]:
                violations.append(f"template {idx}: vertex {x} maps across classes")
                break
        for x, y in tpl.graph.edges():
            e = frozenset((phi[x], phi[y]))
            if e not in host_edges:
                violations.append(f"template {idx}: edge ({x},{y}) maps to a non-edge of the host")
                break
        for x, y in tpl.graph.edges():
            e = frozenset((phi[x], phi[y]))
            if e in used:
                violations.append(
                    f"(T2) templates {used[e]} and {idx} share the host edge {sorted(e)}")
            else:
                used[e] = idx
        if A_list is not None and idx < len(A_list) and A_list[idx] is not None:
            violations.extend(_candidacy_violations(idx, tpl, phi, A_list[idx]))
    for entry in lam or ():
        violations.extend(_collision_violations(entry, embeddings))

    coverage = len(used) / len(host_edges) if host_edges else 0.0
    leftover, per_pair = _leftover(host, used)
    return VerifyReport(ok=not violations, violations=violations, coverage=coverage,
                        leftover_max_degree=leftover.max_degree(),
                        per_pair_leftover_density=per_pair)


def _is_index(v) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool)


def _candidacy_violations(idx, tpl, phi, blocks) -> list[str]:
    """(T1) for one template: each vertex p of class j has phi(p) among its
    neighbours in the class-j candidacy graph.  A list that is not one
    candidacy graph (or None) per class is a violation itself."""
    classes = tpl.partition.classes
    if not (isinstance(blocks, (list, tuple)) and len(blocks) == len(classes)
            and all(Ab is None or (isinstance(Ab, BipartiteGraph) and Ab.left_ids is not None
                                   and Ab.right_ids is not None and len(Ab.left_ids) == Ab.nl)
                    for Ab in blocks)):
        return [f"(T1) template {idx}: candidacy is not one graph or None per class"]
    out = []
    for cls, Ab in zip(classes, blocks):
        if Ab is None:
            continue
        xpos = {p: a for a, p in enumerate(Ab.left_ids)}
        vpos = {v: b for b, v in enumerate(Ab.right_ids)}
        bad = next((p for p in cls if p not in xpos or phi[p] not in vpos
                    or not Ab.has_edge(xpos[p], vpos[phi[p]])), None)
        if bad is not None:
            out.append(f"(T1) template {idx}: vertex {bad} outside its candidacy")
    return out


def _collision_violations(entry, embeddings) -> list[str]:
    """(T4) for one collision constraint (i, x, i', x'): phi_i(x) != phi_i'(x').

    An entry that is not four integers, or names a template or a vertex that
    does not exist, is a violation itself rather than a vacuous pass."""
    if not (isinstance(entry, (tuple, list)) and len(entry) == 4 and all(map(_is_index, entry))):
        return [f"collision constraint {entry!r} is not four integers (i, x, i', x')"]
    i, x, ip, xp = entry
    imgs = []
    for t, v in ((i, x), (ip, xp)):
        if not 0 <= t < len(embeddings):
            return [f"collision constraint {tuple(entry)} names missing template {t}"]
        if not isinstance(embeddings[t], Mapping):
            return []   # already reported as a missing or malformed embedding
        if v not in embeddings[t]:
            return [f"collision constraint {tuple(entry)} names vertex {v} outside template {t}"]
        imgs.append(embeddings[t][v])
    if imgs[0] == imgs[1]:
        return [f"(T4) collision pair ({i},{x})~({ip},{xp}) shares an image"]
    return []


def leftover_stats(host: PartitionedGraph, templates: list[PartitionedGraph],
                   embeddings: list[dict[int, int]]) -> dict:
    """Exact leftover graph statistics: J = G minus the union of images."""
    covered = {frozenset((phi[x], phi[y]))
               for tpl, phi in zip(templates, embeddings) for x, y in tpl.graph.edges()}
    leftover, per_pair = _leftover(host, covered)
    m = host.graph.num_edges()
    return {
        "coverage": len(covered) / m if m else 0.0,
        "delta_J": leftover.max_degree(),
        "per_pair_densities": per_pair,
        "leftover_edges": leftover.num_edges(),
    }


def _leftover(host: PartitionedGraph, covered) -> tuple[LabeledGraph, dict[str, float]]:
    """The host minus the covered edges, and its density on each class pair."""
    leftover = host.graph.copy()
    for e in covered:
        u, v = tuple(e)
        leftover.remove_edge(u, v)
    per_pair = {}
    for i, j in host.reduced.edges():
        ci = host.partition.classes[i]
        cj = host.partition.classes[j]
        cnt = sum(1 for u in ci for v in cj if leftover.has_edge(u, v))
        per_pair[f"{i},{j}"] = cnt / (len(ci) * len(cj))
    return leftover, per_pair


def oracle_pack_small(host: LabeledGraph, templates: list[LabeledGraph],
                      host_classes: list[list[int]] | None = None,
                      template_classes: list[list[list[int]]] | None = None,
                      budget: int = 10_000_000) -> bool:
    """Exhaustive decision: does an edge-disjoint (class-respecting when
    classes are given) packing of the templates exist?  Backtracking over
    template vertices in order, counting visited states against the budget."""
    state = {"nodes": 0}
    host_adj = [set(host.neighbors(u)) for u in range(host.n)]

    def allowed_hosts(t_idx: int, x: int) -> list[int]:
        if template_classes is None or host_classes is None:
            return list(range(host.n))
        for ci, cls in enumerate(template_classes[t_idx]):
            if x in cls:
                return list(host_classes[ci])
        return list(range(host.n))

    used_edges: set[frozenset[int]] = set()

    def place(t_idx: int, order: list[int], pos: int, img: dict[int, int], taken: set[int]) -> bool:
        state["nodes"] += 1
        if state["nodes"] > budget:
            raise SearchBudgetExceeded(f"oracle exceeded {budget} states")
        if pos == len(order):
            return solve(t_idx + 1)
        x = order[pos]
        for v in allowed_hosts(t_idx, x):
            if v in taken:
                continue
            ok = True
            new_edges = []
            for ynb in templates[t_idx].neighbors(x):
                if ynb in img:
                    if img[ynb] not in host_adj[v]:
                        ok = False
                        break
                    e = frozenset((v, img[ynb]))
                    if e in used_edges:
                        ok = False
                        break
                    new_edges.append(e)
            if not ok:
                continue
            img[x] = v
            taken.add(v)
            used_edges.update(new_edges)
            if place(t_idx, order, pos + 1, img, taken):
                return True
            del img[x]
            taken.remove(v)
            used_edges.difference_update(new_edges)
        return False

    def solve(t_idx: int) -> bool:
        if t_idx == len(templates):
            return True
        tpl = templates[t_idx]
        order = sorted(range(tpl.n), key=lambda x: -tpl.degree(x))
        return place(t_idx, order, 0, {}, set())

    return solve(0)
