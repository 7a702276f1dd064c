"""regpack benchmark: one seeded, single-process, closed-loop workload per run.

    python3 perfbench/run.py --workload nibble-k1 --seed 0 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  One
caller issues each call after the previous one returns.  A run repeats
whole passes of the workload (see workloads.py) until ``--seconds`` have
elapsed, checks every output (verifier or exact oracle), and prints the
metrics, last of all as one JSON line.  ``--trace 0`` gives the end-to-end
metrics, with times scaled to a reference machine speed by ``SpeedProbe``;
``--trace 1`` runs every pass twice, untraced and then under the span
recorder, and gives the per-layer metrics and the tracing overhead.
A results file and, when traced, the spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import SpeedProbe, now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3   # setup_s is the median of this many pass-0 set-ups


def add_source_path() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def digest(calls) -> str:
    blob = json.dumps([c.output for c in calls], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, read without starting git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import importlib.util

    import numpy

    from regpack import matching

    numba = importlib.util.find_spec("numba") is not None
    src = hashlib.sha256()
    for path in sorted((SRC / "regpack").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(),
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba,
        "chain_backend": "numba" if getattr(matching, "_HAVE_NUMBA", numba) else "python",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_pass(jobs):
    t0 = now()
    calls = [job() for job in jobs]
    return calls, now() - t0


def setup(workload, seed, workdir):
    """Pass-0 set-up, repeated; returns its jobs and the set-up times."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = now()
        jobs = workload(seed, 0, workdir)
        times.append(now() - t0)
    return jobs, times


def measure(workload, seed, seconds, workdir, jobs):
    """Untraced passes until ``seconds`` have elapsed."""
    calls, pass_digests = [], []
    start = time.perf_counter()
    p = 0
    while True:
        pass_calls, _ = run_pass(jobs)
        calls += pass_calls
        pass_digests.append(digest(pass_calls))
        p += 1
        if time.perf_counter() - start >= seconds:
            return calls, pass_digests
        jobs = workload(seed, p, workdir)


def measure_traced(workload, seed, seconds, workdir, jobs):
    """Each pass untraced, then rebuilt and run again under the recorder."""
    from spans import SpanRecorder

    calls, pass_digests, overhead = [], [], []
    rec = SpanRecorder()
    start = time.perf_counter()
    p = 0
    while True:
        plain, plain_s = run_pass(jobs)
        with rec:
            traced, traced_s = run_pass(workload(seed, p, workdir))
        calls += traced
        pass_digests.append((digest(plain), digest(traced)))
        overhead.append(traced_s - plain_s)
        p += 1
        if time.perf_counter() - start >= seconds:
            return calls, pass_digests, overhead, rec
        jobs = workload(seed, p, workdir)


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(calls, setup_s, scale=1.0):
    """The end-to-end metrics; every time is multiplied by ``scale``."""
    done = [c for c in calls if not c.failed]
    busy = scale * sum(c.run_s + c.verify_s for c in calls)
    return {
        "verified_per_s": (sum(c.items for c in done) / busy if busy else 0.0, "1/s"),
        "instance_s_p50": (scale * _median([c.run_s + c.verify_s for c in (done or calls)]), "s"),
        "setup_s": (scale * setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def workload_extras(calls, scale) -> dict:
    """Figures that not every workload has: on sampler-oracle the worst
    oracle TV, elsewhere the median ``verify_packing`` time, and on
    drivers-cli the CLI round trip.  Times are multiplied by ``scale``."""
    done = [c for c in calls if not c.failed]
    tv = [c.info["tv_max"] for c in calls if "tv_max" in c.info]
    if tv:
        out = {"oracle_tv_max": max(tv)}
    else:
        out = {"verify_s_p50": scale * _median([c.verify_s for c in done])}
    rt = [c.info["roundtrip_s"] for c in calls if "roundtrip_s" in c.info]
    if rt:
        out["cli_roundtrip_s"] = scale * statistics.median(rt)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    add_source_path()
    try:
        import regpack
        import workloads
    except ImportError as exc:
        print(f"cannot import regpack from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if Path(regpack.__file__).resolve().parent != SRC / "regpack":
        print(f"regpack imported from {regpack.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    with SpeedProbe() if not args.trace else contextlib.nullcontext() as probe:
        jobs, setup_times = setup(workload, args.seed, OUT)
        setup_s = import_s + statistics.median(setup_times)
        if args.trace:
            calls, pass_digests, overhead, rec = measure_traced(
                workload, args.seed, args.seconds, OUT, jobs)
        else:
            calls, pass_digests = measure(workload, args.seed, args.seconds, OUT, jobs)
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "env": environment(),
                    "import_s": import_s, "setup_times": setup_times}
    if args.trace:
        from spans import layer_metrics

        leftover = rec.leftover_wrappers()
        identical = all(a == b for a, b in pass_digests)
        metrics = layer_metrics(rec.spans, len(pass_digests))
        metrics["trace.overhead_s"] = (statistics.mean(overhead), "s")
        metrics["trace.spans"] = (len(rec.spans) / len(pass_digests), "count")
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        rec.write_jsonl(spans_path)
        record.update(spans_file=str(spans_path.relative_to(ROOT)), missing_targets=rec.missing,
                      leftover_wrappers=leftover, traced_output_identical=identical,
                      overhead_per_pass_s=overhead)
        correct = identical and not leftover
        pass_digests = [b for _, b in pass_digests]
    else:
        metrics = end_to_end(calls, setup_s, probe.factor)
        record.update(speed_factor=probe.factor, probe_times=probe.times,
                      raw_metrics={k: {"value": v, "unit": u}
                                   for k, (v, u) in end_to_end(calls, setup_s).items()})
        correct = True
    correct = correct and all(c.ok for c in calls)
    failed = sum(c.failed for c in calls)
    record.update(
        passes=len(pass_digests),
        pass_digests=pass_digests,
        digest=hashlib.sha256("".join(pass_digests).encode()).hexdigest(),
        attempted=len(calls), failed=failed, failed_frac=failed / len(calls),
        instance_s_p50_samples=len([c for c in calls if not c.failed]),
        correct=correct,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        extras=workload_extras(calls, 1.0 if args.trace else probe.factor),
        calls=[{"label": c.label, "items": c.items, "run_s": c.run_s, "verify_s": c.verify_s,
                "ok": c.ok, "error": c.error, "info": c.info} for c in calls],
    )
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    for k, (v, u) in metrics.items():
        print(f"{args.workload:15s} {k:28s} {v:14.6g} {u}")
    print(f"{args.workload:15s} {'failed_frac':28s} {failed / len(calls):14.6g} "
          f"({failed}/{len(calls)}; digest {record['digest'][:16]})")
    print(json.dumps({"correct": correct, "attempted": len(calls), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
