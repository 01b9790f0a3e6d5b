"""End-to-end runs of the command line through cli.main, checking the exit
code contract and report bytes rather than internals."""
import json

import pytest

from ospkit import (
    check_k_step_osp,
    cli,
    is_k_limitable,
    is_two_way_greedy,
    load_mechanism,
)
from ospkit.io import render_report


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def appendix_file(tmp_path, capsys):
    path = tmp_path / "appendix.json"
    assert cli.main(["fixtures", "appendix_b", "--out", str(path)]) == 0
    capsys.readouterr()
    return path


@pytest.fixture
def english_file(tmp_path, capsys):
    path = tmp_path / "english.json"
    assert cli.main(["fixtures", "english(3,5)", "--out", str(path)]) == 0
    capsys.readouterr()
    return path


@pytest.fixture
def si24_file(tmp_path, capsys):
    path = tmp_path / "si24.json"
    assert cli.main(["fixtures", "single_item(2,4)", "--out", str(path)]) == 0
    capsys.readouterr()
    return path


class TestVerify:
    def test_pass(self, capsys, appendix_file):
        code, out, err = run(capsys, "verify", "--mechanism", str(appendix_file), "--k", "0")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "pass"
        assert data["violations"] == []
        assert set(data) == {"verdict", "violations", "structural"}
        assert "verify finished in" in err

    def test_structural_suppressed_off_binary(self, capsys, appendix_file):
        code, out, _ = run(capsys, "verify", "--mechanism", str(appendix_file), "--k", "inf")
        assert code == 0
        structural = json.loads(out)["structural"]
        assert structural == {
            "almost_ordered": None,
            "k_limited": None,
            "strong_ineffectiveness": None,
            "taxation": None,
        }

    def test_fail_lists_violations(self, capsys, english_file):
        code, out, _ = run(capsys, "verify", "--mechanism", str(english_file), "--k", "1")
        assert code == 1
        data = json.loads(out)
        assert data["verdict"] == "fail"
        assert len(data["violations"]) == 171
        first = data["violations"][0]
        assert set(first) == {"agent", "node", "a", "b", "c", "lhs", "rhs"}

    def test_structural_on_clock(self, capsys, english_file):
        code, out, _ = run(capsys, "verify", "--mechanism", str(english_file), "--k", "2")
        assert code == 0
        structural = json.loads(out)["structural"]
        assert structural["almost_ordered"] is True
        assert structural["k_limited"] is True
        assert structural["strong_ineffectiveness"] == 0
        assert structural["taxation"] == 0

    def test_byte_identical_reports(self, capsys, english_file, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "verify", "--mechanism", str(english_file), "--k", "2", "--report", str(a))
        run(capsys, "verify", "--mechanism", str(english_file), "--k", "2", "--report", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestErrorPaths:
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--mechanism", str(tmp_path / "nope.json"), "--k", "0")
        assert code == 2
        assert "error:" in err

    def test_empty_file(self, capsys, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("")
        code, _, err = run(capsys, "verify", "--mechanism", str(p), "--k", "0")
        assert code == 2
        assert "line 1" in err

    def test_bad_horizon(self, capsys, appendix_file):
        code, _, err = run(capsys, "verify", "--mechanism", str(appendix_file), "--k", "-3")
        assert code == 2

    def test_csv_not_offered(self, capsys, appendix_file):
        code, _, err = run(
            capsys, "verify", "--mechanism", str(appendix_file), "--k", "0",
            "--format", "csv",
        )
        assert code == 2
        assert "json" in err

    def test_no_verb(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "fixtures", "nope(1)")
        assert code == 2
        assert "unknown fixture" in err

    def test_experiment_rejects_mechanisms(self, capsys):
        code, _, err = run(capsys, "experiment", "--instance", "appendix_b")
        assert code == 2

    @pytest.mark.parametrize(
        "nodes,message",
        [([5], "nodes[0] must be a node object"), (5, "'nodes' must be a list")],
    )
    def test_malformed_nodes_exit_2(self, capsys, tmp_path, nodes, message):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(
            {"agents": 1, "domains": [["1"]], "root": 0, "nodes": nodes}
        ))
        code, _, err = run(capsys, "verify", "--mechanism", str(p), "--k", "0")
        assert code == 2
        assert message in err

    @pytest.mark.parametrize(
        "kind,param",
        [("uniform", "rank"), ("graphic", "edges"), ("explicit", "maximal_sets")],
    )
    def test_instance_without_params_exits_2(self, capsys, tmp_path, kind, param):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"kind": kind, "n": 2, "domain": ["1", "2"]}))
        code, _, err = run(capsys, "approx", "--instance", str(p))
        assert code == 2
        assert f"params.{param}" in err

    @pytest.mark.parametrize("verb", ["verify", "payments", "cmon"])
    def test_short_outcome_vector_exits_2(self, capsys, tmp_path, verb):
        p = tmp_path / "short.json"
        p.write_text(json.dumps({
            "agents": 2, "domains": [["1", "2"], ["1"]], "root": 0,
            "nodes": [
                {"id": 0, "kind": "query", "agent": 0,
                 "blocks": [["1"], ["2"]], "children": [1, 2]},
                {"id": 1, "kind": "leaf", "outcome": ["0"]},
                {"id": 2, "kind": "leaf", "outcome": ["1", "0"]},
            ],
        }))
        code, _, err = run(
            capsys, verb, "--mechanism", str(p), "--k", "0",
            "--out", str(tmp_path / "out.json"),
        )
        assert code == 2
        assert "leaf 1: outcome length 1" in err

    def test_help_exits_clean(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "verify" in out


class TestPayments:
    def test_round_trip(self, capsys, tmp_path, si24_file):
        raw = tmp_path / "raw.json"
        priced = tmp_path / "priced.json"
        assert cli.main(["greedy", "extract-tree", "--instance", str(si24_file),
                         "--out", str(raw)]) == 0
        assert cli.main(["payments", "--mechanism", str(raw), "--k", "0",
                         "--out", str(priced)]) == 0
        capsys.readouterr()
        tree = load_mechanism(str(priced))
        assert check_k_step_osp(tree, 0).ok

    def test_raw_tree_is_rejected(self, capsys, tmp_path, si24_file):
        raw = tmp_path / "raw.json"
        assert cli.main(["greedy", "extract-tree", "--instance", str(si24_file),
                         "--raw", "--out", str(raw)]) == 0
        code, _, err = run(capsys, "payments", "--mechanism", str(raw), "--k", "0")
        assert code == 2
        assert "not k-limited" in err


class TestCmon:
    def test_pass_and_graph_dump(self, capsys, tmp_path, si24_file):
        tree_path = tmp_path / "si.json"
        graph_path = tmp_path / "graph.json"
        cli.main(["greedy", "extract-tree", "--instance", str(si24_file),
                  "--out", str(tree_path)])
        code, out, _ = run(capsys, "cmon", "--mechanism", str(tree_path), "--k", "0",
                           "--dump-graph", str(graph_path))
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert [a["agent"] for a in report["agents"]] == [0, 1]
        dump = json.loads(graph_path.read_text())
        assert dump["horizon"] == "0"
        assert {v["agent"] for v in [a for a in dump["agents"]]} == {0, 1}
        for agent in dump["agents"]:
            assert {"vertices", "edges"} <= set(agent)

    def test_failure_reports_cycle(self, capsys, tmp_path):
        bad = tmp_path / "anti.json"
        nested = {
            "agents": 2,
            "domains": [["-2", "-1"], ["-1"]],
            "root": 0,
            "nodes": [
                {"id": 0, "kind": "query", "agent": 0,
                 "blocks": [["-2"], ["-1"]], "children": [1, 2]},
                {"id": 1, "kind": "leaf", "outcome": ["0", "1"], "payment": ["0", "0"]},
                {"id": 2, "kind": "leaf", "outcome": ["1", "0"], "payment": ["0", "0"]},
            ],
        }
        bad.write_text(render_report(nested))
        code, out, _ = run(capsys, "cmon", "--mechanism", str(bad), "--k", "0")
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "fail"
        broken = [a for a in report["agents"] if a["negative_cycle"]]
        assert len(broken) == 1
        assert broken[0]["agent"] == 0


class TestGreedyVerb:
    def test_truth_run(self, capsys, tmp_path):
        inst = tmp_path / "si23.json"
        cli.main(["fixtures", "single_item(2,3)", "--out", str(inst)])
        capsys.readouterr()
        code, out, _ = run(capsys, "greedy", "--instance", str(inst),
                           "--truth", "2,2")
        assert code == 0
        report = json.loads(out)
        assert report["chosen"] == [0]
        assert report["excluded"] == [1]
        assert len(report["trace"]) == 3
        assert report["queries_per_agent"] == [1, 2]

    def test_extract_sizes(self, capsys, tmp_path, si24_file):
        rounds = tmp_path / "rounds.json"
        raw = tmp_path / "raw.json"
        cli.main(["greedy", "extract-tree", "--instance", str(si24_file),
                  "--out", str(rounds)])
        cli.main(["greedy", "extract-tree", "--instance", str(si24_file),
                  "--raw", "--out", str(raw)])
        capsys.readouterr()
        n_rounds = len(json.loads(rounds.read_text())["nodes"])
        n_raw = len(json.loads(raw.read_text())["nodes"])
        assert n_rounds == 9
        assert n_raw == 11


class TestApproxVerb:
    def test_exact_family(self, capsys, si24_file):
        code, out, _ = run(capsys, "approx", "--instance", str(si24_file))
        assert code == 0
        report = json.loads(out)
        assert report["ratio"] == "1"
        assert report["queries_max"] == 2


class TestSearchVerb:
    def test_found(self, capsys, tmp_path, si24_file):
        out_path = tmp_path / "found.json"
        code, out, _ = run(capsys, "search", "--instance", str(si24_file),
                           "--k", "0", "--ratio", "1", "--out", str(out_path))
        assert code == 0
        report = json.loads(out)
        assert report["found"] is True
        assert report["explored"] == 22
        tree = load_mechanism(str(out_path))
        assert is_two_way_greedy(tree).ok
        assert is_k_limitable(tree, 0).ok

    def test_exhausted(self, capsys, si24_file):
        code, out, _ = run(capsys, "search", "--instance", str(si24_file),
                           "--k", "0", "--ratio", "1", "--greedy-outcome")
        assert code == 1
        report = json.loads(out)
        assert report["found"] is False
        assert report["explored"] == 51


class TestFixturesVerb:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "fixtures")
        assert code == 0
        assert out.splitlines() == [
            "appendix_b", "english", "single_item", "triangle_graphic", "uniform",
        ]

    def test_default_filename(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "fixtures", "single_item(2,4)")
        assert code == 0
        assert (tmp_path / "single_item_2_4.json").exists()

    def test_instance_payload(self, capsys, tmp_path):
        p = tmp_path / "inst.json"
        run(capsys, "fixtures", "uniform(3,2,3)", "--out", str(p))
        data = json.loads(p.read_text())
        assert data["kind"] == "uniform"
        assert data["params"] == {"rank": 2}
        assert data["domain"] == ["1", "2", "3"]


EXPECTED_CSV = """\
instance,d,k,verdict_k_limitable,worst_ratio,queries_max
"single_item(2,4)",4,0,pass,1,2
"single_item(2,4)",4,1,pass,1,2
"single_item(2,4)",4,2,pass,1,2
"single_item(3,6)",6,0,fail,1,3
"single_item(3,6)",6,1,pass,1,3
"single_item(3,6)",6,2,pass,1,3
"""


class TestExperiment:
    def test_threshold_sweep_csv(self, capsys):
        code, out, _ = run(
            capsys, "experiment",
            "--instance", "single_item(3,6)",
            "--instance", "single_item(2,4)",
            "--ks", "0,1,2",
        )
        assert code == 0
        assert out == EXPECTED_CSV

    def test_no_instances_gives_header(self, capsys):
        code, out, _ = run(capsys, "experiment")
        assert code == 0
        assert out == "instance,d,k,verdict_k_limitable,worst_ratio,queries_max\n"

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, "experiment", "--instance", "single_item(2,4)",
                           "--ks", "inf", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows == [{
            "instance": "single_item(2,4)", "d": 4, "k": "inf",
            "verdict_k_limitable": "pass", "worst_ratio": "1", "queries_max": 2,
        }]
