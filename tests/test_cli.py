import json
import subprocess
import sys

import pytest

from regpack.cli import main


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


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required(self):
        assert main(["pack"]) == 2


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "regpack.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "regpack" in proc.stdout
