"""The benchmark's four seeded workloads.

A workload is a function ``(seed, p, workdir) -> list of jobs`` that builds
the ready inputs of pass ``p`` (host and template generation, oracle tables:
the set-up).  A job is a zero-argument callable that makes one timed call
into regpack, checks its output independently and returns a ``Call``.

Instance seeds are ``base + 10_000 * seed + 10 * p``, so seed 0, pass 0 is
the acceptance suite's own instance for every base listed here.  Why each
workload exists is written down in NOTES.md.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from regpack import cli, generators, matching, packer, verifier
from regpack.errors import RegpackError
from regpack.graphs import PartitionedGraph, ReducedGraph, VertexPartition
from regpack.params import ParamSet
from speed import now

TV_LIMIT = 0.05          # criterion 2's image-marginal limit
ORACLE_N = 12            # 12+12 hosts, as in criterion 2
ORACLE_SAMPLES = 4000    # chain draws per host: worst TV stays near 0.03
CLI_N = 60
CLI_COUNT = 8
CHECK_REPS = 5           # each check is repeated; its fastest time is kept


def instance_seed(base: int, seed: int, p: int) -> int:
    return base + 10_000 * seed + 10 * p


@dataclass
class Call:
    """One timed call: a ready input in, a checked output out."""

    label: str
    items: int = 0          # verified templates, samples or family members
    run_s: float = 0.0      # the call itself (pack, sample, CLI gen + pack)
    verify_s: float = 0.0   # the independent check of its output
    ok: bool = True         # False: the output failed its check
    error: str = ""         # a RegpackError raised in place of an output
    output: object = None   # canonical output, hashed into the digest
    info: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.error) or not self.ok


def _canonical(embeddings) -> list[list[int]]:
    return [[phi[x] for x in range(len(phi))] for phi in embeddings]


def _timed(fn, *args, **kwargs):
    t0 = now()
    out = fn(*args, **kwargs)
    return out, now() - t0


def _timed_check(fn, *args, **kwargs):
    """A deterministic check run ``CHECK_REPS`` times: its result and the
    fastest time, so a slow moment of the machine does not set it."""
    times = []
    for _ in range(CHECK_REPS):
        out, dt = _timed(fn, *args, **kwargs)
        times.append(dt)
    return out, min(times)


# ---------------------------------------------------------------------------
# packing workloads: criterion-1 instances through run_main_packing


def two_class_case(n, s, k, seed, beta, delta, gamma_n, d, lam_pairs=0):
    """Criterion 1's two-class instance, built the same way from ``seed``."""
    rng = random.Random(seed)
    R = ReducedGraph(2, [(0, 1)])
    df = Fraction(d)
    host = generators.host_superregular(R, n, [[Fraction(0), df], [df, Fraction(0)]], 0.05, rng)
    templates = generators.bipartite_union_templates(2, n, k, s, rng, R=R)
    lam = []
    if lam_pairs:
        lrng = random.Random(seed + 1)
        for i in range(min(lam_pairs, s - 1)):
            x = lrng.randrange(2 * n)
            lam.append((i, x, i + 1, x))
    params = ParamSet(eps=0.05, k=max(k, 2), Delta_R=1, C=2, beta=beta, delta=delta)
    inst = packer.PackInstance(host=host, templates=templates,
                               k_mats=[[[0, k], [k, 0]] for _ in templates],
                               A_list=[None] * s, lam=lam, params=params, gamma_n=gamma_n)
    return inst, rng


def pack_and_verify(label, pack, host, templates, **verify_kw) -> Call:
    """Time ``pack()``, which returns the embeddings and an info dict, then
    re-check them with ``verify_packing``.  A RegpackError makes a failed
    call; an AssertionError (a broken exact guarantee) an incorrect one."""
    t0 = now()
    try:
        embs, info = pack()
    except RegpackError as exc:
        return Call(label, run_s=now() - t0, error=str(exc))
    except AssertionError as exc:
        return Call(label, run_s=now() - t0, ok=False, error=f"AssertionError: {exc}")
    run_s = now() - t0
    rep, verify_s = _timed_check(verifier.verify_packing, host, templates, embs, **verify_kw)
    info["violations"] = rep.violations[:3]
    return Call(label, items=len(templates), run_s=run_s, verify_s=verify_s,
                ok=rep.ok and len(embs) == len(templates), output=_canonical(embs), info=info)


def pack_job(label, inst, rng) -> Call:
    def pack():
        res = packer.run_main_packing(inst, rng)
        return res.embeddings, {"restarts": len(res.failure_log)}

    return pack_and_verify(label, pack, inst.host, inst.templates,
                           A_list=inst.A_list, lam=inst.lam)


def nibble_k1(seed: int, p: int, workdir: Path) -> list:
    jobs = []
    for n, base in ((100, 104), (120, 106), (140, 108)):
        inst, rng = two_class_case(n, n * 9 // 40, 1, instance_seed(base, seed, p),
                                   beta=0.1, delta=0.0, gamma_n=1, d="9/10")
        jobs.append(functools.partial(pack_job, f"r2-k1 n={n}", inst, rng))
    return jobs


def patch_batched(seed: int, p: int, workdir: Path) -> list:
    jobs = []
    for idx, n in enumerate(range(60, 121, 10)):
        inst, rng = two_class_case(n, 4, 1, instance_seed(400 + idx, seed, p),
                                   beta=0.45, delta=0.12, gamma_n=2, d="9/10")
        jobs.append(functools.partial(pack_job, f"r2-patch n={n}", inst, rng))
    for idx, n in enumerate((60, 80, 100)):
        inst, rng = two_class_case(n, 6, 1, instance_seed(500 + idx, seed, p),
                                   beta=0.45, delta=0.12, gamma_n=2, d="9/10", lam_pairs=4)
        jobs.append(functools.partial(pack_job, f"r2-lambda n={n}", inst, rng))
    return jobs


# ---------------------------------------------------------------------------
# sampler-oracle: switch-chain draws against exact subset-DP marginals


def check_draws(B, draws, exact) -> tuple[bool, float]:
    """Every draw is a perfect matching of ``B``; returns that and the worst
    image-marginal total variation against the exact marginals."""
    n = len(exact)
    freq = [[0] * n for _ in range(n)]
    valid = True
    for sig in draws:
        valid = valid and sorted(sig) == list(range(n))
        for u, v in enumerate(sig):
            valid = valid and B.has_edge(u, v)
            freq[u][v] += 1
    N = len(draws)
    tv = max(0.5 * sum(abs(freq[u][v] / N - exact[u][v]) for v in range(n)) for u in range(n))
    return valid, tv


def oracle_job(label, B, exact, rng) -> Call:
    draws, run_s = _timed(matching.sample_switch_chain_many, B, ORACLE_SAMPLES,
                          matching.default_steps(ORACLE_N), rng)
    (valid, tv), verify_s = _timed_check(check_draws, B, draws, exact)
    return Call(label, items=len(draws), run_s=run_s, verify_s=verify_s,
                ok=valid and tv <= TV_LIMIT and len(draws) == ORACLE_SAMPLES,
                output=[list(sig) for sig in draws], info={"tv_max": tv})


def sampler_oracle(seed: int, p: int, workdir: Path) -> list:
    host_seed = instance_seed(1000, seed, p)
    B = generators.certified_bipartite_host(ORACLE_N, 0.7, 0.05, random.Random(host_seed))
    total = matching.count_matchings_exact(B)
    exact = [[matching.count_matchings_through(B, u, v) / total for v in range(ORACLE_N)]
             for u in range(ORACLE_N)]
    chain_rng = random.Random(instance_seed(2000, seed, p))
    return [functools.partial(oracle_job, f"host seed={host_seed}", B, exact, chain_rng)]


# ---------------------------------------------------------------------------
# drivers-cli: quasirandom and partite drivers, and the README CLI round trip


def _one_class(G) -> PartitionedGraph:
    return PartitionedGraph(G, VertexPartition.from_lists([list(range(G.n))], G.n),
                            ReducedGraph(1))


def quasirandom_job(label, host, members, rng) -> Call:
    params = ParamSet(eps=0.05, k=3, Delta_R=1, C=2, beta=0.1, delta=0.0, alpha=0.3)

    def pack():
        embs, _, _ = packer.pack_quasirandom(host, members, alpha=0.3, p=1.0, Delta=2,
                                             params=params, rng=rng, r=2)
        return embs, {}

    # the complete host as one class: the verifier checks realization,
    # injectivity and pairwise edge-disjointness
    return pack_and_verify(label, pack, _one_class(host), [_one_class(H) for H in members])


def partite_job(label, host, fams, rng) -> Call:
    params = ParamSet(eps=0.05, k=3, Delta_R=1, C=2, beta=0.1, delta=0.0)

    def pack():
        embs, _, _ = packer.pack_partite(host, fams, params, rng, batch_size=2, gamma_n=1)
        return embs, {}

    return pack_and_verify(label, pack, host, fams)


def cli_job(label, workdir, gen_seed, pack_seed) -> Call:
    """``regpack gen host-superregular | pack | verify`` through ``cli.main``."""
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        inst_dir = Path(tmp) / "inst"
        inst, result = inst_dir / "instance.json", Path(tmp) / "result.json"
        argv = [
            ["gen", "host-superregular", "--n", str(CLI_N), "--r", "2", "--k", "1",
             "--count", str(CLI_COUNT), "--d", "0.9", "--seed", str(gen_seed),
             "--out", str(inst_dir)],
            ["pack", "--instance", str(inst), "--seed", str(pack_seed), "--beta", "0.1",
             "--gamma-n", "1", "--json-out", str(result)],
            ["verify", "--instance", str(inst), "--result", str(result)],
        ]
        codes, times = [], []
        with contextlib.redirect_stdout(io.StringIO()):
            for a, timer in zip(argv, (_timed, _timed, _timed_check)):
                code, dt = timer(cli.main, a)
                codes.append(code)
                times.append(dt)
                if code != 0:
                    break
        run_s, verify_s = sum(times[:2]), sum(times[2:])
        info = {"exit_codes": codes, "roundtrip_s": sum(times)}
        if codes[:2] != [0, 0]:
            return Call(label, run_s=run_s, error=f"cli exit codes {codes}", info=info)
        # re-check the CLI's own verdict with the verifier, outside the timing
        host, templates, _, _, lam = generators.read_instance(inst)
        embs = [dict(enumerate(vec)) for vec in json.loads(result.read_text())["embeddings"]]
        rep = verifier.verify_packing(host, templates, embs, lam=lam)
    return Call(label, items=len(templates), run_s=run_s, verify_s=verify_s,
                ok=codes == [0, 0, 0] and rep.ok and len(embs) == len(templates),
                output=_canonical(embs), info=info)


def drivers_cli(seed: int, p: int, workdir: Path) -> list:
    jobs = []
    n = 96
    members = [generators.cycle_factor(n, [4] * (n // 4)) for _ in range(3)]
    for j in range(2):
        rng = random.Random(instance_seed(9500 + j, seed, p))
        jobs.append(functools.partial(quasirandom_job, f"quasirandom K{n} #{j}",
                                      generators.host_complete(n), members, rng))
    R = ReducedGraph(2, [(0, 1)])
    d = Fraction(9, 10)
    for idx, m in enumerate((60, 80, 100, 120)):
        rng = random.Random(instance_seed(800 + idx, seed, p))
        host = generators.host_superregular(R, m, [[Fraction(0), d], [d, Fraction(0)]], 0.05, rng)
        fams = generators.bipartite_union_templates(2, m, 1, 6, rng, R=R)
        jobs.append(functools.partial(partite_job, f"partite n={m}", host, fams, rng))
    jobs.append(functools.partial(cli_job, "cli r=2", workdir,
                                  instance_seed(3, seed, p), instance_seed(7, seed, p)))
    return jobs


WORKLOADS = {
    "nibble-k1": nibble_k1,
    "patch-batched": patch_batched,
    "sampler-oracle": sampler_oracle,
    "drivers-cli": drivers_cli,
}
