"""Self-tests of the benchmark (no wall-time asserts).

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import shutil
import signal
import subprocess
from pathlib import Path

import pytest

import run

run.add_source_path()

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_smoke_run_reports_every_end_to_end_metric():
    res = _main("--workload", "drivers-cli", "--seed", "0", "--seconds", "0", "--trace", "0")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _names("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_restores():
    res = _main("--workload", "drivers-cli", "--seed", "1", "--seconds", "0", "--trace", "1")
    assert res["correct"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _names("per_layer")
    record = json.loads((run.OUT / "drivers-cli-seed1-trace1.json").read_text())
    assert record["traced_output_identical"]
    assert record["leftover_wrappers"] == [] and record["missing_targets"] == []
    with open(run.ROOT / record["spans_file"]) as fh:
        first = [json.loads(line) for _, line in zip(range(2000), fh)]
    ids = {s["id"] for s in first}
    assert any(s["parent"] in ids for s in first)  # spans are parent-linked


def test_digest_repeats_for_identical_seeds_with_and_without_probe():
    def pass_digest(seed):
        return run.digest([job() for job in workloads.drivers_cli(seed, 0, run.OUT)])

    run.OUT.mkdir(exist_ok=True)
    plain = pass_digest(5)
    handler = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        probed = pass_digest(5)
    assert probe.times and probed == plain
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert pass_digest(6) != plain


def test_recorder_rebinds_every_import_and_restores():
    from regpack import packer, patching, regularity, slender, uniform

    original = regularity.pipeline_certificate
    rec = spans.SpanRecorder()
    with rec:
        for mod in (regularity, packer, slender, patching, uniform):
            assert mod.pipeline_certificate is not original
        B = workloads.generators.certified_bipartite_host(12, 0.7, 0.05,
                                                          workloads.random.Random(1))
        assert slender.pipeline_certificate(B, 0.05, 0.7)
        assert rec.leftover_wrappers()
    for mod in (regularity, packer, slender, patching, uniform):
        assert mod.pipeline_certificate is original
    assert rec.leftover_wrappers() == []
    names = [s.name for s in rec.spans]
    assert names[0] == "generators.certified_bipartite_host"
    certs = [s for s in rec.spans if s.name == "regularity.pipeline_certificate"]
    assert certs[-1].note == {"pass": True}


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "nibble-k1", "--seed", "0",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_is_declared(name):
    assert name in {w["name"] for w in SPEC["workloads"]}
