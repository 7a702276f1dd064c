import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import regpack
from regpack.cli import build_parser, main


def run_cli(args):
    return main(args)


class TestGen:
    def test_cycle_factor(self, tmp_path, capsys):
        rc = run_cli(["gen", "cycle-factor", "--n", "12", "--lengths", "3,4,5",
                      "--out", str(tmp_path / "g"), "--seed", "1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["edges"] == 12

    def test_random_tree(self, tmp_path, capsys):
        rc = run_cli(["gen", "random-tree", "--n", "50", "--max-degree", "3",
                      "--out", str(tmp_path / "t"), "--seed", "2"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["edges"] == 49
        from regpack.graphs import read_edge_list
        T = read_edge_list(tmp_path / "t" / "graph.txt")
        assert T.max_degree() <= 3
        # connectivity
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in T.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert len(seen) == 50

    def test_tree_family_gl(self, tmp_path, capsys):
        rc = run_cli(["gen", "tree-family-gl", "--n", "30", "--max-degree", "3",
                      "--out", str(tmp_path / "fam"), "--seed", "3"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["members"] == 30
        assert out["total_edges"] == sum(i - 1 for i in range(1, 31)) == 435

    def test_host_gnp_certificate(self, tmp_path, capsys):
        rc = run_cli(["gen", "host-gnp", "--n", "200", "--p", "0.7",
                      "--out", str(tmp_path / "h"), "--seed", "1"])
        assert rc == 0
        from regpack.graphs import BipartiteGraph, read_edge_list
        from regpack.regularity import pipeline_certificate
        G = read_edge_list(tmp_path / "h" / "host.txt")
        left = list(range(0, 100))
        right = list(range(100, 200))
        B = BipartiteGraph(100, 100)
        for a, u in enumerate(left):
            for b, v in enumerate(right):
                if G.has_edge(u, v):
                    B.add_edge(a, b)
        assert pipeline_certificate(B, 0.07, 0.7)
        assert abs(B.density() - 0.7) < 0.03

    def test_bad_cycle_lengths(self, tmp_path, capsys):
        rc = run_cli(["gen", "cycle-factor", "--n", "10", "--lengths", "3,4",
                      "--out", str(tmp_path / "x"), "--seed", "1"])
        assert rc == 2

    @pytest.mark.parametrize("flag,host_edges,template_edges", [
        (["--k", "0"], 320, 0), (["--d", "0.0"], 0, 20), (["--d", "0.02"], 8, 20)])
    def test_host_superregular_with_zero_degree_pairs(self, tmp_path, capsys, flag, host_edges,
                                                      template_edges):
        rc = run_cli(["gen", "host-superregular", "--n", "20", "--r", "2", *flag,
                      "--out", str(tmp_path / "z"), "--seed", "0"])
        assert rc == 0
        from regpack.generators import read_instance
        host, templates = read_instance(tmp_path / "z" / "instance.json")[:2]
        assert host.graph.num_edges() == host_edges
        assert [T.graph.num_edges() for T in templates] == [template_edges] * 4


@pytest.fixture(scope="module")
def instance_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("inst")
    rc = main(["gen", "host-superregular", "--n", "48", "--r", "2", "--k", "1",
               "--count", "4", "--d", "0.9", "--seed", "3", "--out", str(tmp)])
    assert rc == 0
    return tmp


class TestPackVerifyRoundTrip:

    def test_pack_then_verify(self, instance_dir, tmp_path, capsys):
        res_path = tmp_path / "res.json"
        rc = main(["pack", "--instance", str(instance_dir / "instance.json"),
                   "--seed", "7", "--beta", "0.1", "--gamma-n", "1",
                   "--json-out", str(res_path)])
        capsys.readouterr()
        assert rc == 0
        rc = main(["verify", "--instance", str(instance_dir / "instance.json"),
                   "--result", str(res_path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["ok"] is True

    def test_determinism(self, instance_dir, capsys):
        args = ["pack", "--instance", str(instance_dir / "instance.json"),
                "--seed", "11", "--beta", "0.1", "--gamma-n", "1"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_verify_corrupted_exits_1(self, instance_dir, tmp_path, capsys):
        res_path = tmp_path / "res.json"
        rc = main(["pack", "--instance", str(instance_dir / "instance.json"),
                   "--seed", "7", "--beta", "0.1", "--gamma-n", "1",
                   "--json-out", str(res_path)])
        capsys.readouterr()
        data = json.loads(res_path.read_text())
        data["embeddings"][1] = data["embeddings"][0]
        res_path.write_text(json.dumps(data))
        rc = main(["verify", "--instance", str(instance_dir / "instance.json"),
                   "--result", str(res_path)])
        capsys.readouterr()
        assert rc == 1

    def test_verify_without_embeddings_exits_1(self, instance_dir, tmp_path, capsys):
        res_path = tmp_path / "res.json"
        res_path.write_text(json.dumps({"embeddings": []}))
        rc = main(["verify", "--instance", str(instance_dir / "instance.json"),
                   "--result", str(res_path)])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert out["ok"] is False

    def test_trace_csv(self, instance_dir, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        rc = main(["pack", "--instance", str(instance_dir / "instance.json"),
                   "--seed", "7", "--beta", "0.1", "--gamma-n", "1",
                   "--emit-trace", str(trace)])
        capsys.readouterr()
        assert rc == 0
        assert trace.exists()
        lines = trace.read_text().strip().splitlines()
        assert len(lines) >= 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pack_then_verify_three_classes(tmp_path, capsys, seed):
    # Delta_R follows from the instance: K_3 as reduced graph needs 2.
    inst = tmp_path / "instance.json"
    res = tmp_path / "res.json"
    assert main(["gen", "host-superregular", "--n", "60", "--r", "3", "--seed", str(seed),
                 "--out", str(tmp_path)]) == 0
    assert main(["pack", "--instance", str(inst), "--seed", str(seed),
                 "--json-out", str(res)]) == 0
    capsys.readouterr()
    assert main(["verify", "--instance", str(inst), "--result", str(res)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def _malformed_instance(tmp_path, edit):
    assert main(["gen", "host-superregular", "--n", "12", "--r", "2", "--k", "1", "--count", "1",
                 "--d", "0.9", "--seed", "0", "--out", str(tmp_path)]) == 0
    path = tmp_path / "instance.json"
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return path


def test_pack_with_patching_at_delta_zero_exits_2(tmp_path, capsys):
    assert main(["gen", "host-superregular", "--n", "60", "--r", "2", "--k", "1", "--count", "8",
                 "--d", "0.9", "--seed", "1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    # --delta defaults to 0; batches of two need patching, which runs at eps = delta
    assert main(["pack", "--instance", str(tmp_path / "instance.json"), "--seed", "1",
                 "--beta", "0.45", "--gamma-n", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "delta" in err
    assert "Traceback" not in err


class TestMalformedInput:
    """Unreadable or malformed files exit 2 with a message naming the path."""

    def _usage_error(self, capsys, argv, message):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and message in err
        assert "Traceback" not in err

    def test_host_without_partition(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"host": {}}))
        self._usage_error(capsys, ["pack", "--instance", str(path)],
                          f"{path}: host has no key 'partition'")

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d.pop("templates"), "instance has no key 'templates'"),
        (lambda d: d["templates"][0].pop("k_matrix"), "templates[0] has no key 'k_matrix'"),
        (lambda d: d["templates"][0].update(k_matrix=[[0, "1"]]),
         "templates[0] key 'k_matrix' must be a 2x2 integer matrix"),
        (lambda d: d["host"].update(densities=[["1/2"]]),
         "host key 'densities' must be a 2x2 matrix"),
        (lambda d: d.update({"lambda": [[0, 1, 2]]}),
         "key 'lambda' must hold integer quadruples (i, x, j, y)"),
    ])
    def test_malformed_instance(self, tmp_path, capsys, edit, message):
        path = _malformed_instance(tmp_path, edit)
        self._usage_error(capsys, ["pack", "--instance", str(path)], f"{path}: {message}")

    @pytest.mark.parametrize("lam", [[0, 999, 1, 0], [0, -1, 1, 0]])
    def test_lambda_vertex_outside_template(self, tmp_path, capsys, lam):
        assert main(["gen", "host-superregular", "--n", "30", "--seed", "0",
                     "--out", str(tmp_path)]) == 0
        path = tmp_path / "instance.json"
        data = json.loads(path.read_text())
        data["lambda"] = [lam]
        path.write_text(json.dumps(data))
        self._usage_error(capsys, ["pack", "--instance", str(path)],
                          f"(S8) collision constraint {tuple(lam)} names a vertex outside its template")

    def test_wrong_types(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"host": [], "templates": []}))
        self._usage_error(capsys, ["pack", "--instance", str(path)], f"{path}: malformed host")
        path = _malformed_instance(tmp_path, lambda d: d["host"].update(densities=[["x"]]))
        self._usage_error(capsys, ["verify", "--instance", str(path), "--result", str(path)],
                          f"{path}: malformed host")
        path.write_text("[1, 2]")
        self._usage_error(capsys, ["pack", "--instance", str(path)], f"{path}: malformed instance")

    def test_diagnose_without_templates(self, tmp_path, capsys):
        path = _malformed_instance(tmp_path, lambda d: d.update(templates=[]))
        self._usage_error(capsys, ["diagnose", "--instance", str(path)],
                          f"{path}: diagnose needs at least one template")

    @pytest.mark.parametrize("cmd,message", [
        ("pack", "invalid packing instance: (S3) the host partition has no classes"),
        ("diagnose", "diagnose needs at least one class"),
    ])
    def test_instance_without_classes(self, tmp_path, capsys, cmd, message):
        empty = {"n": 0, "edges": [], "partition": []}
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({
            "host": {**empty, "reduced_edges": [], "densities": []},
            "templates": [{**empty, "k_matrix": []}] * 2, "lambda": []}))
        self._usage_error(capsys, [cmd, "--instance", str(path)], message)

    @pytest.mark.parametrize("flag,value,message", [
        ("--r", "0", "--r must be at least 1, got 0"),
        ("--r", "-2", "--r must be at least 1, got -2"),
        ("--count", "-1", "--count must not be negative, got -1"),
    ])
    def test_gen_refuses_bad_counts(self, tmp_path, capsys, flag, value, message):
        self._usage_error(capsys, ["gen", "host-superregular", "--n", "20", flag, value,
                                   "--out", str(tmp_path / "g")], message)
        assert not (tmp_path / "g").exists()

    def test_instance_is_a_directory(self, tmp_path, capsys):
        self._usage_error(capsys, ["pack", "--instance", str(tmp_path)],
                          f"{tmp_path}: cannot read")

    def test_missing_instance(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        self._usage_error(capsys, ["diagnose", "--instance", str(path)], f"{path}: cannot read")

    def test_instance_not_json(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text("{host")
        self._usage_error(capsys, ["pack", "--instance", str(path)], f"{path}: not valid JSON")

    def test_verify_empty_result(self, instance_dir, tmp_path, capsys):
        res = tmp_path / "res.json"
        res.write_text("")
        self._usage_error(capsys, ["verify", "--instance", str(instance_dir / "instance.json"),
                                   "--result", str(res)], f"{res}: not valid JSON")

    def test_balance_missing_edge_list(self, tmp_path, capsys):
        path = tmp_path / "absent.txt"
        self._usage_error(capsys, ["balance", str(path)], f"{path}: cannot read")

    def test_balance_malformed_edge_list(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("2 1\n0 x\n")
        self._usage_error(capsys, ["balance", str(path)], f"{path}: malformed edge list")

    def test_gen_cycle_factor_bad_lengths(self, tmp_path, capsys):
        self._usage_error(capsys, ["gen", "cycle-factor", "--n", "6", "--lengths", "3,x",
                                   "--out", str(tmp_path / "g")],
                          "--lengths must be comma-separated integers, got '3,x'")
        assert not (tmp_path / "g").exists()

    def test_gen_random_delta_graph_without_vertices(self, tmp_path, capsys):
        self._usage_error(capsys, ["gen", "random-delta-graph", "--n", "0", "--e-target", "3",
                                   "--out", str(tmp_path / "g")],
                          "--n must be at least 1, got 0")
        assert not (tmp_path / "g").exists()

    def test_gen_random_delta_graph_shortfall_exits_1(self, tmp_path, capsys):
        capsys.readouterr()
        assert main(["gen", "random-delta-graph", "--n", "5", "--max-degree", "2", "--e-target", "5",
                     "--seed", "2", "--out", str(tmp_path / "g")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: placed 4 of 5 edges") and "Traceback" not in err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--trials", "-5", "trials must be at least 1, got -5"),
        ("--trials", "0", "trials must be at least 1, got 0"),
        ("--steps", "-1", "steps must not be negative, got -1"),
    ])
    def test_sample_matching_bad_counts(self, capsys, flag, value, message):
        self._usage_error(capsys, ["sample-matching", "--n", "6", flag, value], message)

    @pytest.mark.parametrize("payload", [{}, [], {"embeddings": 3}, {"embeddings": [1, 2]}])
    def test_verify_result_without_image_lists(self, instance_dir, tmp_path, capsys, payload):
        res = tmp_path / "res.json"
        res.write_text(json.dumps(payload))
        self._usage_error(capsys, ["verify", "--instance", str(instance_dir / "instance.json"),
                                   "--result", str(res)],
                          f"{res}: key 'embeddings' must hold a list of image lists")


class TestSampleMatching:
    def test_exact_mode(self, capsys):
        rc = main(["sample-matching", "--n", "8", "--d", "0.7", "--trials", "200",
                   "--exact", "--seed", "1"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["sampler"] == "exact"
        assert out["samples"] == 200

    def test_chain_mode(self, capsys):
        rc = main(["sample-matching", "--n", "10", "--d", "0.7", "--trials", "100",
                   "--seed", "2"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["sampler"] == "switch-chain"

    def test_zero_steps_keeps_the_start_matching(self, capsys):
        # --steps 0 runs no proposal, so every sample is the Hopcroft-Karp start
        rc = main(["sample-matching", "--n", "10", "--trials", "7", "--steps", "0", "--seed", "2"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert sorted(out["edge_frequencies"].values()) == [1.0] * 10


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required(self):
        assert main(["pack"]) == 2

    def test_unknown_generator_kind(self, tmp_path):
        assert main(["gen", "no-such-kind", "--n", "4", "--out", str(tmp_path)]) == 2

    def test_threads_flag_is_gone(self, tmp_path):
        assert main(["gen", "host-complete", "--n", "4", "--out", str(tmp_path),
                     "--threads", "2"]) == 2

    @pytest.mark.parametrize("argv", [
        ["gen", "host-complete", "--n", "4", "--out", "{tmp}"],
        ["sample-matching", "--n", "6", "--trials", "10"],
    ])
    def test_retries_only_where_it_is_read(self, argv, tmp_path):
        # only pack and diagnose build a ParamSet, so only they take --retries
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main(argv) == 0
        assert main(argv + ["--retries", "3"]) == 2
        for cmd in ("pack", "diagnose"):
            assert build_parser().parse_args([cmd, "--instance", "x", "--retries", "3"]).retries == 3

    @pytest.mark.parametrize("argv,message", [
        (["host-complete", "--n", "-1"], "--n must be at least 1, got -1"),
        (["random-delta-graph", "--n", "-3"], "--n must be at least 1, got -3"),
        (["host-gnp", "--n", "5", "--p", "2"], "--p must lie in [0, 1], got 2.0"),
        (["random-tree", "--n", "0"], "--n must be at least 1, got 0"),
        (["cycle-factor", "--n", "7", "--lengths", "3,3"], "cycle lengths sum to 6, need 7"),
        (["random-delta-graph", "--n", "5", "--max-degree", "-1", "--e-target", "3"],
         "max_degree must not be negative, got -1"),
        (["random-delta-graph", "--n", "4", "--max-degree", "1", "--e-target", "5"],
         "cannot place 5 edges on 4 vertices of degree at most 1: at most 2 fit"),
        (["random-delta-graph", "--n", "5", "--e-target", "-2"], "e_target must not be negative, got -2"),
    ])
    def test_gen_usage_error_writes_nothing(self, argv, message, tmp_path, capsys):
        assert main(["gen", *argv, "--out", str(tmp_path / "g")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "g").exists()


def test_console_entry_point():
    # the subprocess does not inherit pytest's pythonpath setting
    src = str(Path(regpack.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "regpack.cli", "--version"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "regpack" in proc.stdout
