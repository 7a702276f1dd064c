"""Outside-in span recorder for the regpack benchmark.

The recorder times the library from outside: it wraps public functions of
each layer and rebinds every module attribute that refers to them, because
``from .regularity import pipeline_certificate`` gives packer, slender,
patching and uniform their own binding of the same function.  Spans stay in
memory (id, parent id, name, start, end, note) and are written out once the
run ends; ``restore`` puts every original back.

``TARGETS`` names what is wrapped; ``layer_metrics`` turns the spans of a run
into the per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float = 0.0
    note: dict | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start


# Notes read a call's arguments, result or exception; they run after the
# span has closed, so their cost is not charged to the layer.

def _steps(a, out, exc):
    return {"steps": a["steps"]}


def _many_steps(a, out, exc):
    return {"steps": a["samples"] * a["steps"]}


def _cert(a, out, exc):
    if exc is not None:
        return {"pass": False}
    return {"pass": bool(out.ok if hasattr(out, "ok") else out)}


def _slender(a, out, exc):
    name = type(exc).__name__ if exc is not None else ""
    return {"failure": name in ("FailureType1", "FailureType2")}


def _uniform(a, out, exc):
    if exc is not None:
        return {"exhausted": type(exc).__name__ == "RetriesExhausted"}
    return {"attempts": out.attempts}


def _repatch(a, out, exc):
    return {"window": sum(len(c) for c in a["Z_classes"]), "failed": exc is not None}


def _packing(a, out, exc):
    if exc is not None:
        return None
    return {"rounds": len(out.rounds), "restarts": len(out.failure_log),
            "conflicts": sum(lg.conflicts for lg in out.rounds),
            "patched": sum(lg.patched for lg in out.rounds)}


def _coloring(a, out, exc):
    return {"failed": exc is not None or out is None}


def _verify(a, out, exc):
    return {"edges": sum(t.graph.num_edges() for t in a["templates"])}


# (module, attribute path, note).  A span is named "<module>.<attribute>".
TARGETS: list[tuple[str, str, object]] = [
    ("matching", "sample_switch_chain", _steps),
    ("matching", "sample_switch_chain_many", _many_steps),
    ("matching", "find_perfect_matching", None),
    ("matching", "count_matchings_exact", None),
    ("matching", "count_matchings_through", None),
    ("matching", "ExactUniformSampler.__init__", None),
    ("regularity", "pipeline_certificate", _cert),
    ("regularity", "super_regularity_certificate", _cert),
    ("regularity", "random_split", None),
    ("slender", "run_slender", _slender),
    ("uniform", "run_uniform_embed", _uniform),
    ("uniform", "refine_host", None),
    ("uniform", "refine_pattern", None),
    ("patching", "repatch", _repatch),
    ("packer", "run_main_packing", _packing),
    ("packer", "pack_partite", None),
    ("packer", "pack_quasirandom", None),
    ("graphs", "BipartiteGraph.right_adj", None),
    ("graphs", "BipartiteGraph.subgraph", None),
    ("graphs", "PartitionedGraph.pair_view", None),
    ("graphs", "induced_bipartite", None),
    ("packer", "_cross_pair", None),
    ("uniform", "_cross_pair", None),
    ("slender", "_pair_view", None),
    ("patching", "_cross", None),
    ("balancer", "_pair", None),
    ("balancer", "stack_family", None),
    ("balancer", "regularize_near", None),
    ("balancer", "regularize_pair", None),
    ("coloring", "hs_equitable_coloring", _coloring),
    ("coloring", "try_equitable_coloring", _coloring),
    ("verifier", "verify_packing", _verify),
    ("generators", "host_superregular", None),
    ("generators", "certified_bipartite_host", None),
    ("generators", "host_complete", None),
    ("generators", "host_gnp", None),
    ("cli", "cmd_gen", None),
    ("cli", "cmd_pack", None),
    ("cli", "cmd_verify", None),
]

_PAIR_VIEWS = {"graphs.BipartiteGraph.subgraph", "graphs.PartitionedGraph.pair_view",
               "graphs.induced_bipartite", "packer._cross_pair", "uniform._cross_pair",
               "slender._pair_view", "patching._cross", "balancer._pair"}
_CERTS = {"regularity.pipeline_certificate", "regularity.super_regularity_certificate"}
_ORACLE = {"matching.count_matchings_exact", "matching.count_matchings_through",
           "matching.ExactUniformSampler.__init__"}
_HOSTS = {"generators.host_superregular", "generators.certified_bipartite_host",
          "generators.host_complete", "generators.host_gnp"}
_COLORING = {"coloring.hs_equitable_coloring", "coloring.try_equitable_coloring"}
_REGULARIZE = {"balancer.regularize_near", "balancer.regularize_pair"}
_PACKER = {"packer.run_main_packing", "packer.pack_partite", "packer.pack_quasirandom"}


class SpanRecorder:
    """Wraps ``TARGETS`` while installed; use as a context manager."""

    package = "regpack"

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _scan_modules(self):
        pre = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(pre))]

    def install(self) -> "SpanRecorder":
        if self._patched:
            raise RuntimeError("span recorder already installed")
        self.missing = []
        for mod, attr, _ in TARGETS:
            importlib.import_module(f"{self.package}.{mod}")
        modules = self._scan_modules()
        for mod, attr, note in TARGETS:
            owner = importlib.import_module(f"{self.package}.{mod}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            wrapper = self._wrap(fn, f"{mod}.{attr}", note)
            if path:
                self._patched.append((owner, leaf, fn))
                setattr(owner, leaf, wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._patched.append((m, name, fn))
                        setattr(m, name, wrapper)
        return self

    def restore(self) -> None:
        for owner, name, fn in reversed(self._patched):
            setattr(owner, name, fn)
        self._patched.clear()

    def leftover_wrappers(self) -> list[str]:
        """Attributes that still hold a wrapper (empty after ``restore``)."""
        found = []
        for m in self._scan_modules():
            for name, value in vars(m).items():
                if getattr(value, "__perfbench_span__", None):
                    found.append(f"{m.__name__}.{name}")
                if inspect.isclass(value) and value.__module__ == m.__name__:
                    for cname, cvalue in vars(value).items():
                        if getattr(cvalue, "__perfbench_span__", None):
                            found.append(f"{m.__name__}.{name}.{cname}")
        return found

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, fn, name: str, note):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        sig = inspect.signature(fn) if note is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else -1, name, clock())
            spans.append(span)
            stack.append(span.id)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                stack.pop()
                if note is not None:
                    span.note = note(sig.bind(*args, **kwargs).arguments, None, exc)
                raise
            span.end = clock()
            stack.pop()
            if note is not None:
                span.note = note(sig.bind(*args, **kwargs).arguments, out, None)
            return out

        wrapper.__perfbench_span__ = name
        return wrapper

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                     "start": s.start, "end": s.end, "note": s.note}) + "\n")


def layer_metrics(spans: list[Span], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each a total over ``passes`` traced passes divided
    by ``passes``; ratios are taken over the whole run.

    ``*_s`` is inclusive time of the outermost spans of a group (a span
    nested in another span of the same group is not counted twice);
    ``*self_s`` subtracts the time of every wrapped child span.  Span ids
    are positions in ``spans``.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.dur
    groups: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        groups[s.name].append(s)

    def members(names):
        names = {names} if isinstance(names, str) else names
        return [s for n in names for s in groups.get(n, [])]

    def outer(names):
        names = {names} if isinstance(names, str) else set(names)
        out = []
        for s in members(names):
            p = s.parent
            while p >= 0 and spans[p].name not in names:
                p = spans[p].parent
            if p < 0:
                out.append(s)
        return out

    def total(names):
        return sum(s.dur for s in outer(names))

    def self_time(names):
        return sum(s.dur - child_time[s.id] for s in members(names))

    def notes(names, key):
        return [s.note[key] for s in members(names) if s.note and key in s.note]

    def per(x):
        return x / passes if passes else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    chain = "matching.sample_switch_chain"
    many = "matching.sample_switch_chain_many"
    chain_steps = sum(notes({chain, many}, "steps"))
    chain_s = total(chain) + total(many)
    cert_outer = outer(_CERTS)
    cert_pass = sum(1 for s in cert_outer if s.note and s.note.get("pass"))
    attempts = notes("uniform.run_uniform_embed", "attempts")
    color_outer = outer(_COLORING)
    m: dict[str, tuple[float, str]] = {
        "matching.chain_calls": (per(len(members(chain))), "count"),
        "matching.chain_s": (per(total(chain)), "s"),
        "matching.chain_steps": (per(chain_steps), "count"),
        "matching.chain_steps_per_s": (ratio(chain_steps, chain_s), "1/s"),
        "matching.many_s": (per(total(many)), "s"),
        "matching.hk_calls": (per(len(members("matching.find_perfect_matching"))), "count"),
        "matching.hk_s": (per(total("matching.find_perfect_matching")), "s"),
        "matching.oracle_s": (per(total(_ORACLE)), "s"),
        "regularity.cert_calls": (per(len(cert_outer)), "count"),
        "regularity.cert_s": (per(total(_CERTS)), "s"),
        "regularity.cert_pass_ratio": (ratio(cert_pass, len(cert_outer)), "ratio"),
        "regularity.split_calls": (per(len(members("regularity.random_split"))), "count"),
        "regularity.split_s": (per(total("regularity.random_split")), "s"),
        "slender.calls": (per(len(members("slender.run_slender"))), "count"),
        "slender.self_s": (per(self_time("slender.run_slender")), "s"),
        "slender.failures": (per(sum(notes("slender.run_slender", "failure"))), "count"),
        "uniform.embed_calls": (per(len(members("uniform.run_uniform_embed"))), "count"),
        "uniform.embed_self_s": (per(self_time("uniform.run_uniform_embed")), "s"),
        "uniform.refine_host_s": (per(total("uniform.refine_host")), "s"),
        "uniform.refine_pattern_s": (per(total("uniform.refine_pattern")), "s"),
        "uniform.attempts_mean": (ratio(sum(attempts), len(attempts)), "count"),
        "uniform.exhausted": (per(sum(notes("uniform.run_uniform_embed", "exhausted"))), "count"),
        "patching.repatch_calls": (per(len(members("patching.repatch"))), "count"),
        "patching.repatch_s": (per(total("patching.repatch")), "s"),
        "patching.window_vertices": (per(sum(notes("patching.repatch", "window"))), "count"),
        "patching.failures": (per(sum(notes("patching.repatch", "failed"))), "count"),
        "packer.rounds": (per(sum(notes("packer.run_main_packing", "rounds"))), "count"),
        "packer.round_restarts": (per(sum(notes("packer.run_main_packing", "restarts"))), "count"),
        "packer.conflicts": (per(sum(notes("packer.run_main_packing", "conflicts"))), "count"),
        "packer.patched": (per(sum(notes("packer.run_main_packing", "patched"))), "count"),
        "packer.self_s": (per(self_time(_PACKER)), "s"),
        "graphs.right_adj_calls": (per(len(members("graphs.BipartiteGraph.right_adj"))), "count"),
        "graphs.right_adj_s": (per(total("graphs.BipartiteGraph.right_adj")), "s"),
        "graphs.pair_view_s": (per(total(_PAIR_VIEWS)), "s"),
        "balancer.stack_s": (per(total("balancer.stack_family")), "s"),
        "balancer.regularize_s": (per(total(_REGULARIZE)), "s"),
        "coloring.color_s": (per(total(_COLORING)), "s"),
        "coloring.fail_ratio": (ratio(sum(1 for s in color_outer if s.note and s.note["failed"]),
                                      len(color_outer)), "ratio"),
        "verifier.verify_s": (per(total("verifier.verify_packing")), "s"),
        "verifier.edges_checked": (per(sum(notes("verifier.verify_packing", "edges"))), "count"),
        "generators.host_s": (per(total(_HOSTS)), "s"),
        "cli.gen_s": (per(total("cli.cmd_gen")), "s"),
        "cli.pack_s": (per(total("cli.cmd_pack")), "s"),
        "cli.verify_s": (per(total("cli.cmd_verify")), "s"),
    }
    return m
