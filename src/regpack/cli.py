"""Command-line front end: instance generation, packing, verification,
balancing, matching sampling, and diagnostics.

Every subcommand prints one machine-readable JSON summary on stdout.
Exit codes: 0 success, 1 verification violation, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import BadParams, RegpackError
from .generators import (
    bipartite_union_templates,
    certified_bipartite_host,
    cycle_factor,
    host_complete,
    host_gnp,
    host_superregular,
    random_bounded_degree_graph,
    random_tree,
    read_instance,
    read_json,
    tree_family_gl,
    write_instance,
)
from .graphs import (
    LabeledGraph,
    PartitionedGraph,
    ReducedGraph,
    VertexPartition,
    write_edge_list,
)
from .matching import matching_diagnostics
from .params import ParamSet


def _params_from_args(args, host: PartitionedGraph, k_mats) -> ParamSet:
    """Parameters for packing ``host``: k and Delta_R follow from the instance."""
    p = ParamSet(
        eps=getattr(args, "eps", 0.05),
        beta=getattr(args, "beta", 0.1),
        delta=getattr(args, "delta", 0.0),
        alpha=getattr(args, "alpha", 0.25),
        k=max([2] + [x for km in k_mats for row in km for x in row]),
        Delta_R=max(host.reduced.max_degree(), 1),
        C=2,
    )
    if getattr(args, "retries", None):
        p.embed_retry_cap = args.retries
    return p


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, default=str)
    print(text)
    if getattr(args, "json_out", None):
        Path(args.json_out).write_text(text)


def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    kind = args.kind
    summary: dict = {"kind": kind, "seed": args.seed, "out": str(out)}
    if kind == "random-tree":
        G = random_tree(args.n, args.max_degree, rng)
        write_edge_list(G, out / "graph.txt")
        summary["edges"] = G.num_edges()
    elif kind == "cycle-factor":
        lengths = [int(x) for x in args.lengths.split(",")]
        G = cycle_factor(args.n, lengths)
        write_edge_list(G, out / "graph.txt")
        summary["edges"] = G.num_edges()
    elif kind == "random-delta-graph":
        G = random_bounded_degree_graph(args.n, args.max_degree, args.e_target, rng)
        write_edge_list(G, out / "graph.txt")
        summary["edges"] = G.num_edges()
    elif kind == "host-complete":
        G = host_complete(args.n)
        write_edge_list(G, out / "host.txt")
        summary["edges"] = G.num_edges()
    elif kind == "host-gnp":
        G = host_gnp(args.n, args.p, rng)
        write_edge_list(G, out / "host.txt")
        summary["edges"] = G.num_edges()
    elif kind == "host-superregular":
        r = args.r
        R = ReducedGraph(r, [(i, j) for i in range(r) for j in range(i + 1, r)])
        d = Fraction(args.d).limit_denominator(1000)
        dens = [[d if i != j else Fraction(0) for j in range(r)] for i in range(r)]
        host = host_superregular(R, args.n, dens, args.eps, rng)
        k = args.k
        templates = bipartite_union_templates(r, args.n, k, args.count, rng, R=R)
        k_mats = [[[k if i != j else 0 for j in range(r)] for i in range(r)]] * len(templates)
        write_instance(out / "instance.json", host, templates, k_mats,
                       params={"eps": args.eps, "d": float(d), "k": k})
        summary["instance"] = str(out / "instance.json")
    elif kind == "tree-family-gl":
        fam = tree_family_gl(args.n, args.max_degree, rng)
        for i, T in enumerate(fam, start=1):
            write_edge_list(T, out / f"tree_{i:03d}.txt")
        summary["members"] = len(fam)
        summary["total_edges"] = sum(T.num_edges() for T in fam)
    else:
        print(f"unknown generator kind: {kind}", file=sys.stderr)
        return 2
    _emit(summary, args)
    return 0


def cmd_pack(args) -> int:
    from .packer import PackInstance, run_main_packing

    rng = random.Random(args.seed)
    host, templates, k_mats, iparams, lam = read_instance(args.instance)
    params = _params_from_args(args, host, k_mats)
    inst = PackInstance(host=host, templates=templates, k_mats=k_mats,
                        A_list=[None] * len(templates), lam=list(lam),
                        params=params, gamma_n=args.gamma_n)
    result = run_main_packing(inst, rng)
    payload = {
        "templates": len(templates),
        "coverage": result.coverage,
        "leftover_max_degree": result.leftover.max_degree(),
        "rounds": [
            {"round": lg.round, "conflicts": lg.conflicts, "patched": lg.patched,
             "densities": lg.densities}
            for lg in result.rounds
        ],
        "embeddings": [[phi[x] for x in range(t.graph.n)]
                       for phi, t in zip(result.embeddings, templates)],
    }
    if args.emit_trace:
        with open(args.emit_trace, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["round", "conflicts", "patched"] +
                       [f"d_{i}" for i in range(len(result.rounds[0].densities))]
                       if result.rounds else ["round", "conflicts", "patched"])
            for lg in result.rounds:
                w.writerow([lg.round, lg.conflicts, lg.patched] + lg.densities)
    if args.leftover_out:
        write_edge_list(result.leftover, args.leftover_out)
    _emit(payload, args)
    return 0


def cmd_verify(args) -> int:
    from .verifier import verify_packing

    host, templates, k_mats, iparams, lam = read_instance(args.instance)
    data = read_json(args.result)
    vecs = data.get("embeddings") if isinstance(data, dict) else None
    if not isinstance(vecs, list) or not all(isinstance(vec, list) for vec in vecs):
        raise BadParams(f"{args.result}: key 'embeddings' must hold a list of image lists")
    embeddings = [dict(enumerate(vec)) for vec in vecs]
    report = verify_packing(host, templates, embeddings, lam=lam)
    _emit(json.loads(report.to_json()), args)
    return 0 if report.ok else 1


def cmd_balance(args) -> int:
    from .balancer import stack_family
    from .coloring import try_equitable_coloring
    from .graphs import read_edge_list

    rng = random.Random(args.seed)
    r = args.r
    R = ReducedGraph(r, [(i, j) for i in range(r) for j in range(i + 1, r)])
    graphs = []
    for path in args.graphs:
        G = read_edge_list(path)
        col = try_equitable_coloring(G, r, rng)
        if col is None:
            raise BadParams(f"{path} admits no equitable {r}-coloring; raise --r")
        cls = sorted(([sorted(c) for c in col.classes]), key=lambda c: (-len(c), c))
        graphs.append(PartitionedGraph(G, VertexPartition.from_lists(cls, G.n), R))
    kmat = [[0] * r for _ in range(r)]
    H, taus, J, kmat_eff = stack_family(graphs, R, kmat, C=2, rng=rng)
    payload = {
        "members": len(graphs),
        "template_edges": H.graph.num_edges(),
        "leftover_edges": J.num_edges(),
        "k_matrix": kmat_eff,
    }
    _emit(payload, args)
    return 0


def cmd_sample_matching(args) -> int:
    rng = random.Random(args.seed)
    B = certified_bipartite_host(args.n, args.d, args.eps, rng)
    sampler = "exact" if args.exact else "switch-chain"
    stats = matching_diagnostics(B, sampler, args.trials, rng, steps=args.steps)
    payload = json.loads(stats.to_json())
    payload["sampler"] = sampler
    payload["edge_frequencies"] = dict(sorted(payload["edge_frequencies"].items())[:20])
    _emit(payload, args)
    return 0


def cmd_diagnose(args) -> int:
    from .uniform import b_diagnostics, run_uniform_embed

    rng = random.Random(args.seed)
    host, templates, k_mats, iparams, lam = read_instance(args.instance)
    if not templates:
        raise BadParams(f"{args.instance}: diagnose needs at least one template")
    params = _params_from_args(args, host, k_mats)
    beta = [[Fraction(1, 10) if host.reduced.has_edge(i, j) else Fraction(0)
             for j in range(host.reduced.r)] for i in range(host.reduced.r)]
    P = host_superregular(host.reduced, max(host.partition.sizes()), beta, params.eps,
                          rng, sizes=host.partition.sizes())
    runs = []
    for _ in range(args.runs):
        runs.append(run_uniform_embed(host, P.graph, beta, templates[0], k_mats[0],
                                      [None] * host.reduced.r, 1.0, params, rng,
                                      check_hypotheses=False))
    n = max(host.partition.sizes())
    probes = []
    probe_rng = random.Random(args.seed + 1)
    for _ in range(args.probes):
        i, j = probe_rng.sample(range(host.reduced.r), 2)
        if not host.reduced.has_edge(i, j):
            continue
        v = host.partition.classes[i][0]
        nbrs = [w for w in host.graph.neighbors(v) if w in set(host.partition.classes[j])]
        S = nbrs[:max(int(0.3 * n), 1)]
        if S:
            probes.append((v, S))
    report = b_diagnostics(runs, templates[0], host, k_mats[0], b1_probes=probes)
    if args.csv_out:
        with open(args.csv_out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["probe", "mean", "se", "expected", "ratio"])
            for row_idx, row in enumerate(report.get("b1", [])):
                w.writerow([row_idx, row["mean"], row["se"], row["expected"], row["ratio"]])
    _emit(report, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="regpack",
                                 description="edge-disjoint packing into super-regular hosts")
    ap.add_argument("--version", action="version", version=f"regpack {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json-out", type=str, default=None)
        p.add_argument("--retries", type=int, default=None)

    g = sub.add_parser("gen", help="generate instances and graph files")
    common(g)
    g.add_argument("kind", choices=["random-tree", "cycle-factor", "random-delta-graph",
                                    "host-complete", "host-gnp", "host-superregular",
                                    "tree-family-gl"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--r", type=int, default=2)
    g.add_argument("--k", type=int, default=1)
    g.add_argument("--count", type=int, default=4)
    g.add_argument("--p", type=float, default=0.5)
    g.add_argument("--d", type=float, default=0.8)
    g.add_argument("--eps", type=float, default=0.05)
    g.add_argument("--max-degree", type=int, default=3)
    g.add_argument("--e-target", type=int, default=0)
    g.add_argument("--lengths", type=str, default="")
    g.add_argument("--out", type=str, required=True)
    g.set_defaults(fn=cmd_gen)

    p = sub.add_parser("pack", help="run the packing pipeline on an instance")
    common(p)
    p.add_argument("--instance", type=str, required=True)
    p.add_argument("--gamma-n", type=int, default=1)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=0.25)
    p.add_argument("--emit-trace", type=str, default=None)
    p.add_argument("--leftover-out", type=str, default=None)
    p.set_defaults(fn=cmd_pack)

    v = sub.add_parser("verify", help="verify a packing result against its instance")
    common(v)
    v.add_argument("--instance", type=str, required=True)
    v.add_argument("--result", type=str, required=True)
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("balance", help="stack edge-list graphs into one template")
    common(b)
    b.add_argument("--r", type=int, default=2)
    b.add_argument("graphs", nargs="+")
    b.set_defaults(fn=cmd_balance)

    m = sub.add_parser("sample-matching", help="matching-sampler diagnostics on a seeded host")
    common(m)
    m.add_argument("--n", type=int, default=12)
    m.add_argument("--d", type=float, default=0.7)
    m.add_argument("--eps", type=float, default=0.05)
    m.add_argument("--trials", type=int, default=1000)
    m.add_argument("--steps", type=int, default=None)
    m.add_argument("--exact", action="store_true")
    m.set_defaults(fn=cmd_sample_matching)

    d = sub.add_parser("diagnose", help="embedding-distribution diagnostics")
    common(d)
    d.add_argument("--instance", type=str, required=True)
    d.add_argument("--runs", type=int, default=30)
    d.add_argument("--probes", type=int, default=5)
    d.add_argument("--eps", type=float, default=0.05)
    d.add_argument("--csv-out", type=str, default=None)
    d.set_defaults(fn=cmd_diagnose)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except BadParams as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except RegpackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
