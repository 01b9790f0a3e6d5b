"""End-to-end runs of the command line through cli.main, checking the exit
code contract and report bytes rather than internals."""
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ospkit import (
    MechanismFormatError,
    check_k_step_osp,
    cli,
    dumps_mechanism,
    instance_data_for,
    is_k_limitable,
    is_two_way_greedy,
    load_mechanism,
    loads_instance,
    loads_mechanism,
    materialize,
)
from ospkit.io import render_report
from ospkit.rational import format_rational
from test_io import LISTED, listed_with
from test_verifier import random_priced_trees


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# agent 0 wins at her higher cost: no payments make it truthful
ANTI_MONOTONE = {
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

    def test_violations_are_written_value_by_value(
        self, capsys, english_file, tmp_path
    ):
        # the verb formats each shared object once: the report must read as
        # if every value had been formatted on its own
        cases = [(english_file, 1)]
        for n, (tree, k) in enumerate(random_priced_trees(range(40))):
            path = tmp_path / f"tree{n}.json"
            path.write_text(dumps_mechanism(tree), encoding="utf-8")
            cases.append((path, k))
        failing = 0
        for path, k in cases:
            _, out, _ = run(capsys, "verify", "--mechanism", str(path), "--k", str(k))
            result = check_k_step_osp(load_mechanism(str(path)), k)
            assert json.loads(out)["violations"] == [
                {
                    "agent": v.agent,
                    "node": v.node,
                    "a": [format_rational(x) for x in v.a],
                    "b": [format_rational(x) for x in v.b],
                    "c": format_rational(v.c),
                    "lhs": format_rational(v.lhs),
                    "rhs": format_rational(v.rhs),
                }
                for v in result.violations
            ]
            failing += bool(result.violations)
        assert failing > 1

    def test_byte_identical_reports(self, capsys, english_file, tmp_path):
        # --out writes the printed bytes, the same on every run
        printed = []
        for name in ("a.json", "b.json"):
            code, out, _ = run(
                capsys, "verify", "--mechanism", str(english_file), "--k", "2",
                "--out", str(tmp_path / name),
            )
            assert code == 0
            printed.append(out.encode())
        a, b = (tmp_path / name for name in ("a.json", "b.json"))
        assert a.read_bytes() == b.read_bytes() == printed[0] == printed[1]


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

    @pytest.mark.parametrize("ks", ["", ",", "0,,1"])
    def test_bad_horizon_in_a_list(self, capsys, ks):
        # an explicit empty value is refused as a horizon, not read as
        # the default 0
        code, out, err = run(
            capsys, "experiment", "--instance", "single_item(2,4)", "--ks", ks
        )
        assert (code, out) == (2, "")
        assert "bad horizon ''" in err

    def test_csv_not_offered(self, capsys, appendix_file):
        code, _, err = run(
            capsys, "verify", "--mechanism", str(appendix_file), "--k", "0",
            "--format", "csv",
        )
        assert code == 2
        assert "unrecognized arguments: --format csv" in err

    # each verb's required arguments, positionals filled so that none
    # takes the flag's value; the parser refuses a flag before any file
    # is read or written
    VERBS = {
        "verify": ["--mechanism", "m.json", "--k", "0"],
        "payments": ["--mechanism", "m.json", "--k", "0"],
        "cmon": ["--mechanism", "m.json", "--k", "0"],
        "greedy": ["extract-tree", "--instance", "i.json"],
        "approx": ["--instance", "i.json"],
        "search": ["--instance", "i.json", "--k", "0", "--ratio", "1"],
        "fixtures": ["appendix_b"],
        "experiment": [],
    }

    @pytest.mark.parametrize(
        "verb, flag",
        [(verb, ("--seed", "1")) for verb in VERBS]
        + [(verb, ("--format", "json")) for verb in VERBS if verb != "experiment"]
        + [("verify", ("--report", "r.json"))],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_flags_no_verb_reads_are_refused(self, capsys, verb, flag):
        code, out, err = run(capsys, verb, *self.VERBS[verb], *flag)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in err

    def test_no_verb(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_greedy_stray_flag_is_named(self, capsys):
        # with no action given, the flag's value must not pose as one
        code, out, err = run(capsys, "greedy", "--instance", "i.json", "--seed", "1")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --seed" in err

    def test_greedy_unknown_action(self, capsys):
        code, out, err = run(capsys, "greedy", "bogus", "--instance", "i.json")
        assert code == 2
        assert out == ""
        assert "unknown greedy action 'bogus'" in err

    def test_mechanism_not_an_object(self, capsys, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[]")
        code, _, err = run(capsys, "verify", "--mechanism", str(p), "--k", "0")
        assert code == 2
        assert "mechanism file must hold a json object" in err

    def test_instance_invalid_json_names_its_line(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{\n  "kind": "uniform",\n  "n": 4,,\n  "domain": [1]\n}\n')
        code, _, err = run(capsys, "approx", "--instance", str(p))
        assert code == 2
        assert "invalid json at line 3: " in err

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
        "field,value,message",
        [
            ("root", 99, "root 99 not among nodes"),
            ("agent", 7, "node 0 queries unknown agent 7"),
        ],
        ids=["root", "agent"],
    )
    def test_untraversable_tree_exits_2(self, capsys, tmp_path, field, value, message):
        data = json.loads(json.dumps(ANTI_MONOTONE))
        if field == "root":
            data["root"] = value
        else:
            data["nodes"][0]["agent"] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", "--mechanism", str(p), "--k", "0")
        assert code == 2
        assert out == ""
        assert f"error: {message}" in err

    def test_duplicate_node_id_exits_2(self, capsys, tmp_path):
        # a second "id": 1 used to replace the first leaf silently, and
        # the verdict came from the second one
        p = tmp_path / "twice.json"
        p.write_text(json.dumps({
            "agents": 1, "domains": [["1", "2"]], "root": 0,
            "nodes": [
                {"id": 0, "kind": "query", "agent": 0,
                 "blocks": [["1"], ["2"]], "children": [1, 2]},
                {"id": 1, "kind": "leaf", "outcome": ["1"], "payment": ["0"]},
                {"id": 2, "kind": "leaf", "outcome": ["0"], "payment": ["0"]},
                {"id": 1, "kind": "leaf", "outcome": ["0"], "payment": ["5"]},
            ],
        }, indent=1))
        code, out, err = run(capsys, "verify", "--mechanism", str(p), "--k", "inf")
        assert code == 2
        assert out == ""
        assert "node 1 (line" in err and "duplicate node id" in err

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

    @pytest.mark.parametrize("verb", ["verify", "cmon"])
    def test_non_integer_scale_guard_exits_2(
        self, capsys, monkeypatch, english_file, verb
    ):
        monkeypatch.setenv("OSPKIT_SCALE_GUARD", "abc")
        code, out, err = run(capsys, verb, "--mechanism", str(english_file), "--k", "1")
        assert code == 2
        assert out == ""
        assert "OSPKIT_SCALE_GUARD" in err and "'abc'" in err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["greedy", "--truth", "x,1"], "--truth"),
            (["greedy", "--truth", "1,,2"], "--truth"),
            (["search", "--k", "0", "--ratio", "abc"], "--ratio"),
        ],
    )
    def test_malformed_rational_flag_exits_2(self, capsys, si24_file, argv, flag):
        code, out, err = run(capsys, *argv, "--instance", str(si24_file))
        assert code == 2
        assert out == ""
        assert f"bad {flag}" in err

    @pytest.mark.parametrize(
        "argv,flag,data,message",
        [
            (["verify", "--k", "1"], "--mechanism", "english", "bad header"),
            (
                ["greedy", "--truth", "1,2,2"], "--instance",
                {"kind": "uniform", "n": 3.9, "domain": ["1", "2"],
                 "params": {"rank": 1.5}},
                "bad uniform instance",
            ),
            (
                ["greedy", "--truth", "1,2,2"], "--instance",
                {"kind": "explicit", "n": 3, "domain": ["1", "2"],
                 "params": {"maximal_sets": [[0.5, 2], [1]]}},
                "bad explicit instance",
            ),
            (
                ["approx"], "--instance",
                {"kind": "graphic", "n": 3, "domain": ["1", "2"],
                 "params": {"edges": [[0, 1], [1, 2], [0, 1.5]]}},
                "bad graphic instance",
            ),
            (
                ["approx"], "--instance",
                {"kind": "single_item", "n": float("inf"), "domain": ["1", "2"]},
                "bad single_item instance",
            ),
            (
                ["approx"], "--instance",
                {"kind": "uniform", "n": "x", "domain": ["1", "2"],
                 "params": {"rank": 1}},
                "bad uniform instance: not an integer: 'x'",
            ),
            (
                ["approx"], "--instance",
                {"kind": "uniform", "n": None, "domain": ["1", "2"],
                 "params": {"rank": 1}},
                "bad uniform instance: not an integer: None",
            ),
        ],
        ids=["mechanism_header", "uniform", "explicit", "graphic", "infinite_n",
             "text_n", "null_n"],
    )
    def test_fractional_integer_field_exits_2(
        self, capsys, tmp_path, argv, flag, data, message
    ):
        # int() used to truncate these, and each file got a verdict; a
        # text or null n used to print int()'s own error
        if data == "english":
            data = json.loads(mechanism_text("english(2,3)"))
            data["agents"], data["root"] = 2.9, 0.4
            root = next(node for node in data["nodes"] if node["id"] == 0)
            root["children"] = [c + 0.5 for c in root["children"]]
        p = tmp_path / "fractional.json"
        p.write_text(json.dumps(data))
        code, out, err = run(capsys, *argv, flag, str(p))
        assert code == 2
        assert out == ""
        assert message in err and "not an integer" in err

    def test_help_exits_clean(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "verify" in out

    @pytest.mark.parametrize(
        "argv", [["approx"], ["greedy", "extract-tree", "--out", "tree.json"]]
    )
    def test_huge_profile_count_exits_2(self, capsys, tmp_path, monkeypatch, argv):
        # 3^1000000 profiles: more digits than Python will print
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({
            "kind": "single_item", "n": 1000000, "params": {},
            "domain": ["1", "2", "3"],
        }))
        code, out, err = run(capsys, *argv, "--instance", str(p))
        assert code == 2
        assert out == ""
        assert "about 10^477121 strategy profiles exceeds scale guard" in err
        assert len(err) < 200

    @pytest.mark.parametrize(
        "digits,magnitude", [(400, "10^(10^398)"), (4300, "10^(10^4298)")]
    )
    def test_huge_n_shows_its_exponent_by_magnitude(
        self, capsys, tmp_path, digits, magnitude
    ):
        # n = 11...1 with 400 digits used to print a 400-digit exponent;
        # 4300 digits is the most json reads into an int
        p = tmp_path / "huge.json"
        p.write_text('{"kind": "single_item", "n": ' + "1" * digits
                     + ', "params": {}, "domain": ["1", "2", "3"]}')
        code, out, err = run(capsys, "approx", "--instance", str(p))
        assert (code, out) == (2, "")
        assert err == (
            f"error: enumeration of about {magnitude} strategy profiles "
            "exceeds scale guard 100000; raise OSPKIT_SCALE_GUARD to allow\n"
        )
        assert len(err) < 200

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["greedy", "extract-tree"], "error: extract-tree needs --out MECHFILE"),
            (["greedy"], 'error: greedy needs --truth "a,b,..." (or extract-tree)'),
        ],
        ids=["extract_tree_without_out", "greedy_without_truth"],
    )
    def test_greedy_without_its_flag_exits_2(self, capsys, si24_file, argv, message):
        code, out, err = run(capsys, *argv, "--instance", str(si24_file))
        assert (code, out, err) == (2, "", message + "\n")

    def test_payments_without_out(self, capsys, tmp_path, monkeypatch, si24_file):
        # a payable tree used to end in a TypeError on open(None), exit 3
        monkeypatch.chdir(tmp_path)
        tree = tmp_path / "t.json"
        assert cli.main(["greedy", "extract-tree", "--instance", str(si24_file),
                         "--out", str(tree)]) == 0
        anti = tmp_path / "anti.json"
        anti.write_text(render_report(ANTI_MONOTONE))
        capsys.readouterr()
        files = sorted(tmp_path.iterdir())
        code, out, err = run(capsys, "payments", "--mechanism", str(tree), "--k", "0")
        assert code == 2
        assert out == ""
        assert "payments needs --out MECHFILE" in err
        # a tree without payments still reports its cycles
        code, out, _ = run(capsys, "payments", "--mechanism", str(anti), "--k", "0")
        assert code == 1
        assert json.loads(out)["negative_cycles"]
        assert sorted(tmp_path.iterdir()) == files

    def test_internal_error_exits_3(self, capsys, monkeypatch, si24_file):
        def crash(*args):
            raise RuntimeError("lost\nsecond line")

        # each verb imports what it calls when it runs, so patch the source
        monkeypatch.setattr("ospkit.greedy.extract_tree", crash)
        code, out, err = run(capsys, "approx", "--instance", str(si24_file))
        assert code == 3
        assert out == ""
        assert err == "internal error: RuntimeError: lost\n"


# -- every file-reading verb on mutated input files --------------------------

JUNK = ["x", "", "-1", "1/0", "7/2", -1, 0, 2, 10**6, 0.5, None, True, [], {}, ["x"]]

MECHANISM_VERBS = [
    ["verify", "--k", "0"],
    ["verify", "--k", "inf"],
    ["payments", "--k", "0", "--out", "priced.json"],
    ["cmon", "--k", "0"],
]

INSTANCE_VERBS = [
    ["approx"],
    ["greedy", "--truth", "2,3"],
    ["greedy", "extract-tree", "--out", "tree.json"],
    ["search", "--k", "0", "--ratio", "1"],
]


def mechanism_text(name):
    return dumps_mechanism(materialize(name)[1])


def instance_text(name):
    return render_report(instance_data_for(*materialize(name)[1]))


@st.composite
def mutated(draw, text):
    """The json text with one key dropped or one value swapped for junk,
    anywhere in the document."""
    data = json.loads(text)
    slots = []
    stack = [data]
    while stack:
        here = stack.pop()
        keys = list(here) if isinstance(here, dict) else range(len(here))
        for key in keys:
            slots.append((here, key))
            if isinstance(here[key], (dict, list)):
                stack.append(here[key])
    here, key = draw(st.sampled_from(slots))
    if draw(st.booleans()):
        del here[key]
    else:
        here[key] = draw(st.sampled_from(JUNK))
    return json.dumps(data)


def run_mutated(tmp_path, flag, text, verbs, is_valid):
    path = tmp_path / "input.json"
    path.write_text(text)
    for argv in verbs:
        code = cli.main([*argv, flag, str(path)])
        assert code in (0, 1, 2), (argv, text)
        if code != 2:
            assert is_valid(text), (argv, text)


def valid_mechanism(text):
    try:
        return not loads_mechanism(text).problems
    except MechanismFormatError:
        return False


def valid_instance(text):
    try:
        loads_instance(text)
    except MechanismFormatError:
        return False
    return True


class TestMutatedFiles:
    """Malformed files end in exit 2, never in a crash; exit 0 and exit 1
    (a verdict) come only from a valid file."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.data())
    def test_mechanism_verbs(self, tmp_path, monkeypatch, data):
        monkeypatch.chdir(tmp_path)
        base = data.draw(st.sampled_from(["appendix_b", "english(2,3)"]))
        text = data.draw(mutated(mechanism_text(base)))
        run_mutated(tmp_path, "--mechanism", text, MECHANISM_VERBS, valid_mechanism)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.data())
    def test_instance_verbs(self, tmp_path, monkeypatch, data):
        monkeypatch.chdir(tmp_path)
        base = data.draw(st.sampled_from(["single_item(2,3)", "uniform(2,1,3)"]))
        text = data.draw(mutated(instance_text(base)))
        run_mutated(tmp_path, "--instance", text, INSTANCE_VERBS, valid_instance)


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

    @pytest.mark.parametrize("case", ["english-0", "english-1", "seed-4"])
    def test_cmon_refuses_as_payments(self, capsys, tmp_path, english_file, case):
        # both verbs refuse a tree over budget at --k with one message
        path, k = english_file, case[-1]
        if case == "seed-4":
            [(tree, _)] = random_priced_trees([4])
            path, k = tmp_path / "seed4.json", "0"
            path.write_text(dumps_mechanism(tree))
        lines = []
        for verb in ("cmon", "payments"):
            code, out, err = run(capsys, verb, "--mechanism", str(path), "--k", k,
                                 "--out", str(tmp_path / "out.json"))
            assert (code, out) == (2, "")
            lines.append([line for line in err.splitlines() if line.startswith("error:")])
        assert lines[0] == lines[1]
        assert len(lines[0]) == 1 and "tree is not k-limited (node" in lines[0][0]
        assert not (tmp_path / "out.json").exists()

    def test_negative_cycle_writes_nothing(self, capsys, tmp_path):
        bad = tmp_path / "anti.json"
        bad.write_text(render_report(ANTI_MONOTONE))
        priced = tmp_path / "priced.json"
        code, out, err = run(capsys, "payments", "--mechanism", str(bad), "--k", "0",
                             "--out", str(priced))
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "fail"
        assert [c["agent"] for c in report["negative_cycles"]] == [0]
        assert "no payments exist" in err
        assert not priced.exists()


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

    @pytest.mark.parametrize("text, horizon", [("INF", "inf"), ("oo", "inf"),
                                               (" 2", "2")])
    def test_graph_dump_writes_the_parsed_horizon(self, capsys, tmp_path,
                                                  english_file, text, horizon):
        graph_path = tmp_path / "graph.json"
        code, _, _ = run(capsys, "cmon", "--mechanism", str(english_file),
                         "--k", text, "--dump-graph", str(graph_path))
        assert code == 0
        assert json.loads(graph_path.read_text())["horizon"] == horizon

    def test_failure_reports_cycle(self, capsys, tmp_path):
        bad = tmp_path / "anti.json"
        bad.write_text(render_report(ANTI_MONOTONE))
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

    def test_truth_run_on_twenty_agents(self, capsys, tmp_path):
        # a uniform system lists its 190 maximal sets in closed form, so
        # the 2**20 subsets of the ground set never meet the scale guard
        inst = tmp_path / "uniform20.json"
        values = [str(v) for v in range(1, 21)]
        inst.write_text(json.dumps({
            "kind": "uniform", "n": 20, "domain": values, "params": {"rank": 2},
        }))
        code, out, _ = run(capsys, "greedy", "--instance", str(inst),
                           "--truth", ",".join(values))
        assert code == 0
        assert json.loads(out)["chosen"] == [18, 19]

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
        # csv is the default format, and --format csv asks for it
        for fmt in ([], ["--format", "csv"]):
            code, out, _ = run(
                capsys, "experiment",
                "--instance", "single_item(3,6)",
                "--instance", "single_item(2,4)",
                "--ks", "0,1,2", *fmt,
            )
            assert code == 0
            assert out == EXPECTED_CSV

    @pytest.mark.parametrize(
        "repeated, once",
        [
            (["--ks", "0,0"], ["--ks", "0"]),
            (["--ks", "1,0,inf,1,infinity"], ["--ks", "0,1,inf"]),
            (["--instance", "single_item(2,4)"], []),
        ],
    )
    def test_each_instance_and_horizon_once(self, capsys, repeated, once):
        # rows are keyed by (instance, d, k): a repeat adds no row
        base = ("experiment", "--instance", "single_item(2,4)")
        code, out, _ = run(capsys, *base, *repeated)
        assert code == 0
        assert out == run(capsys, *base, *once)[1]
        assert len(set(out.splitlines())) == len(out.splitlines())

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


# -- what reports hold --------------------------------------------------------

# every verb, in an order where each reads the files the ones before wrote,
# and its exit code: 1 is a verdict (a failed check, negative cycles, an
# exhausted search)
EVERY_VERB = [
    (["fixtures"], 0),
    (["fixtures", "english(3,5)"], 0),
    (["fixtures", "appendix_b"], 0),
    (["fixtures", "single_item(2,4)", "--out", "si.json"], 0),
    (["fixtures", "uniform(4,2,4)"], 0),
    (["verify", "--mechanism", "english_3_5.json", "--k", "1", "--out", "r.json"], 1),
    (["verify", "--mechanism", "english_3_5.json", "--k", "2"], 0),
    (["verify", "--mechanism", "appendix_b.json", "--k", "inf"], 0),
    (["cmon", "--mechanism", "english_3_5.json", "--k", "2", "--dump-graph", "g.json"], 0),
    (["greedy", "extract-tree", "--instance", "si.json", "--out", "t.json"], 0),
    (["greedy", "extract-tree", "--instance", "si.json", "--out", "raw.json", "--raw"], 0),
    (["payments", "--mechanism", "t.json", "--k", "0", "--out", "p.json"], 0),
    (["verify", "--mechanism", "p.json", "--k", "0"], 0),
    (["greedy", "extract-tree", "--instance", "uniform_4_2_4.json", "--out", "u.json"], 0),
    (["payments", "--mechanism", "u.json", "--k", "0", "--out", "pu.json"], 1),
    (["cmon", "--mechanism", "u.json", "--k", "0"], 1),
    (["greedy", "--instance", "uniform_4_2_4.json", "--truth", "1,2,3,4"], 0),
    (["approx", "--instance", "si.json"], 0),
    (["search", "--instance", "si.json", "--k", "0", "--ratio", "1", "--out", "f.json"], 0),
    (["search", "--instance", "si.json", "--k", "0", "--ratio", "1", "--greedy-outcome"], 1),
    (["experiment", "--instance", "uniform(3,2,3)", "--instance",
      "triangle_graphic(3)", "--ks", "0,1,2,inf"], 0),
    (["experiment", "--instance", "uniform(3,2,3)", "--ks", "0,inf", "--format", "json"], 0),
]


def test_every_verb_writes_only_what_the_writer_joins(capsys, tmp_path, monkeypatch):
    """render_report joins str, int, bool and None in lists, tuples and
    dicts with str keys, and hands anything else to `json.dumps`.  With
    that hand-off made to fail, every verb still runs as before: the
    package writes no other value."""

    def refuse(o, indent):
        raise AssertionError(f"{type(o).__name__} handed to json.dumps")

    monkeypatch.setattr("ospkit.io._by_json", refuse)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(AssertionError, match="float handed"):
        render_report({"ratio": 0.5})
    for argv, want in EVERY_VERB:
        code, _, err = run(capsys, *argv)
        assert (code, argv) == (want, argv), err


@pytest.mark.parametrize(
    "path,value,field",
    [
        (("domains", 0), "12", "domains[0]"),
        (("nodes", 0, "blocks"), ["1", "2"], "blocks[0]"),
        (("nodes", 0, "children"), "12", "children"),
        (("nodes", 1, "outcome"), "10", "outcome"),
        (("nodes", 1, "payment"), "00", "payment"),
    ],
)
def test_text_in_a_mechanism_list_field_exits_2(capsys, tmp_path, path, value, field):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(LISTED))
    code, _, _ = run(capsys, "verify", "--mechanism", str(p), "--k", "1")
    assert code == 1  # the file as written gets a verdict
    p.write_text(listed_with(path, value))
    for argv in MECHANISM_VERBS:
        code, out, err = run(capsys, *argv, "--mechanism", str(p))
        assert (code, out) == (2, "")
        assert f"'{field}' must be a list" in err


@pytest.mark.parametrize(
    "data,field",
    [
        ({"kind": "single_item", "n": 2, "domain": "12"}, "domain"),
        ({"kind": "graphic", "n": 2, "domain": ["1", "2"],
          "params": {"edges": ["01", "12"]}}, "params.edges[0]"),
        ({"kind": "explicit", "n": 2, "domain": ["1", "2"],
          "params": {"maximal_sets": ["01"]}}, "params.maximal_sets[0]"),
    ],
)
def test_text_in_an_instance_list_field_exits_2(capsys, tmp_path, data, field):
    p = tmp_path / "i.json"
    p.write_text(json.dumps(data))
    code, out, err = run(capsys, "approx", "--instance", str(p))
    assert (code, out) == (2, "")
    assert err == f"error: '{field}' must be a list\n"


@pytest.mark.parametrize(
    "edge,message",
    [
        ([0, 1, 2], " must list two endpoints"),
        ([0], " must list two endpoints"),
        ([0, "a"], ": not an integer: 'a'"),
    ],
    ids=["three_endpoints", "one_endpoint", "text_endpoint"],
)
def test_graphic_edge_that_is_not_two_ints_names_its_entry(
    capsys, tmp_path, edge, message
):
    # these used to print only the unpacking or int() error
    p = tmp_path / "i.json"
    p.write_text(json.dumps({"kind": "graphic", "n": 2, "domain": ["1", "2"],
                             "params": {"edges": [[0, 1], edge]}}))
    code, out, err = run(capsys, "approx", "--instance", str(p))
    assert (code, out) == (2, "")
    assert err == f"error: bad graphic instance: 'params.edges[1]'{message}\n"


SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


@pytest.mark.parametrize(
    "argv",
    [
        ["approx", "--instance", "huge.json"],
        ["greedy", "extract-tree", "--instance", "huge.json", "--out", "t.json"],
        ["fixtures", "english(99999999999999999999,3)"],
    ],
)
def test_astronomical_counts_exit_2_within_5_s(tmp_path, argv):
    # 3^(10^20) profiles: the guard used to build the count first, and
    # the clock had no guard at all
    (tmp_path / "huge.json").write_text(json.dumps({
        "kind": "single_item", "n": 10**20, "params": {}, "domain": ["1", "2", "3"],
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "ospkit", *argv],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=5,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: enumeration of about 10^47712125471966243539 strategy profiles "
        "exceeds scale guard 100000; raise OSPKIT_SCALE_GUARD to allow\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json"]
