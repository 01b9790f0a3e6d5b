import json
from enum import IntEnum
from fractions import Fraction
from math import inf, prod
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from ospkit import (
    MechanismFormatError,
    PSystem,
    compress,
    dumps_mechanism,
    english_auction_tree,
    extract_tree,
    format_rational,
    graph_to_data,
    instance_data_for,
    instance_to_data,
    loads_instance,
    loads_mechanism,
    mechanism_to_data,
    parse_horizon,
    parse_rational,
    render_csv,
    render_report,
)
from ospkit.cmon import build_k_osp_graph
from ospkit.fixtures import appendix_b


class TestRationals:
    def test_parse_forms(self):
        assert parse_rational("3") == 3
        assert parse_rational("-2") == -2
        assert parse_rational("7/2") == Fraction(7, 2)
        assert parse_rational("0.25") == Fraction(1, 4)
        assert parse_rational(Fraction(5, 3)) == Fraction(5, 3)

    def test_fraction_subclass_parses_to_a_fraction(self):
        class Half(Fraction):
            pass

        value = parse_rational(Half(7, 2))
        assert value == Fraction(7, 2)
        assert type(value) is Fraction

    def test_parse_errors(self):
        for bad in ("", "x", "1/0", True):
            with pytest.raises(ValueError):
                parse_rational(bad)

    # what the Fraction pattern alone read before plain integer text took
    # int(): a result, or the error's full text
    @pytest.mark.parametrize(
        "text, want",
        [
            ("0012", Fraction(12)),
            ("-0", Fraction(0)),
            ("-007", Fraction(-7)),
            ("+3", Fraction(3)),
            ("1_000", Fraction(1000)),
            ("\u0663", Fraction(3)),
            ("-\u0663", Fraction(-3)),
            (" 7 ", Fraction(7)),
            ("7/2", Fraction(7, 2)),
            ("0.25", Fraction(1, 4)),
            ("", "empty rational"),
            (True, "not a rational: True"),
            ("-", "not a rational: '-'"),
            ("--1", "not a rational: '--1'"),
            ("- 3", "not a rational: '- 3'"),
            ("\u00b2", "not a rational: '\u00b2'"),
            ("9" * 5000, "not a rational: '" + "9" * 5000 + "'"),
            ("-" + "9" * 5000, "not a rational: '-" + "9" * 5000 + "'"),
        ],
        ids=lambda v: repr(v)[:12],
    )
    def test_forms_read_as_before(self, text, want):
        if isinstance(want, Fraction):
            got = parse_rational(text)
            assert type(got) is Fraction and got == want
        else:
            with pytest.raises(ValueError) as info:
                parse_rational(text)
            assert str(info.value) == want

    def test_format_is_the_fraction_text(self):
        values = [Fraction(n, d) for n in range(-12, 13) for d in range(1, 7)]
        values += [Fraction(10**30 + 1, 7), Fraction(-(10**40))]
        for v in values:
            assert format_rational(v) == str(v)

    @pytest.mark.parametrize(
        "value,shown", [(inf, "inf"), (-inf, "-inf"), (float("nan"), "nan")]
    )
    def test_non_finite_float_is_not_a_rational(self, value, shown):
        with pytest.raises(ValueError, match=f"^not a rational: {shown}$"):
            parse_rational(value)
        # the text forms keep the message they had
        with pytest.raises(ValueError, match=f"^not a rational: '{shown}'$"):
            parse_rational(shown)

    def test_format(self):
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(Fraction(-7, 2)) == "-7/2"
        assert parse_rational(format_rational(Fraction(22, 7))) == Fraction(22, 7)
        assert format_rational(-3) == "-3"
        assert format_rational(0.25) == "1/4"
        assert format_rational(-2.0) == "-2"
        # a float reads as its decimal text, as parse_rational reads it
        assert format_rational(0.1) == "1/10"

    @pytest.mark.parametrize("flag", [True, False])
    def test_format_refuses_a_bool(self, flag):
        # parse_rational refuses a bool, so its text form does too
        with pytest.raises(ValueError, match="not a rational"):
            format_rational(flag)

    def test_float_domain_round_trips_through_an_instance_file(self):
        data = instance_to_data("single_item", 2, [0.1, 0.25])
        assert data["domain"] == ["1/10", "1/4"]
        _, domain = loads_instance(render_report(data))
        assert domain == (Fraction(1, 10), Fraction(1, 4))


class TestHorizon:
    def test_values(self):
        assert parse_horizon("0") == 0
        assert parse_horizon("3") == 3
        assert parse_horizon("inf") == inf
        assert parse_horizon("Infinity") == inf
        assert parse_horizon("oo") == inf

    def test_errors(self):
        with pytest.raises(MechanismFormatError):
            parse_horizon("-1")
        with pytest.raises(MechanismFormatError):
            parse_horizon("x")


class TestMechanismFiles:
    def test_round_trip_four_level(self):
        t = appendix_b()
        again = loads_mechanism(dumps_mechanism(t))
        assert mechanism_to_data(again) == mechanism_to_data(t)

    def test_round_trip_clock(self):
        t = english_auction_tree(2, [1, 2, 3])
        again = loads_mechanism(dumps_mechanism(t))
        assert mechanism_to_data(again) == mechanism_to_data(t)

    def test_round_trip_unpriced(self):
        t = extract_tree(PSystem.single_item(2), [1, 2])
        data = mechanism_to_data(t)
        assert all(
            n["payment"] is None for n in data["nodes"] if n["kind"] == "leaf"
        )
        assert mechanism_to_data(loads_mechanism(dumps_mechanism(t))) == data

    def test_dumps_is_canonical(self):
        t = appendix_b()
        assert dumps_mechanism(t) == dumps_mechanism(appendix_b())
        assert dumps_mechanism(t) == (
            json.dumps(mechanism_to_data(t), sort_keys=True, indent=2) + "\n"
        )

    def test_invalid_json_is_line_anchored(self):
        with pytest.raises(MechanismFormatError, match="line 1"):
            loads_mechanism("")

    def test_missing_key(self):
        with pytest.raises(MechanismFormatError, match="nodes"):
            loads_mechanism('{"agents": 1, "domains": [["1"]], "root": 0}')

    def test_bad_node_names_its_line(self):
        text = json.dumps(
            {
                "agents": 1,
                "domains": [["1", "2"]],
                "root": 0,
                "nodes": [
                    {
                        "id": 0,
                        "kind": "sideways",
                        "agent": 0,
                        "blocks": [["1"], ["2"]],
                        "children": [1, 2],
                    }
                ],
            },
            indent=1,
        )
        with pytest.raises(MechanismFormatError, match="sideways"):
            loads_mechanism(text)
        with pytest.raises(MechanismFormatError, match="line"):
            loads_mechanism(text)


    def test_bad_node_deep_in_file_names_its_line(self):
        data = mechanism_to_data(english_auction_tree(3, [1, 2, 3, 4]))
        bad = data["nodes"][-3]
        bad["kind"] = "sideways"
        text = json.dumps(data, sort_keys=True, indent=2)
        want = text.splitlines().index(f'      "id": {bad["id"]},') + 1
        assert want > 1000
        with pytest.raises(
            MechanismFormatError,
            match=rf"node {bad['id']} \(line {want}\): unknown kind 'sideways'",
        ):
            loads_mechanism(text)

    def test_id_outside_the_nodes_list_shifts_no_line(self):
        # a top-level "comment" sorts before "nodes" and holds an "id" key
        text = json.dumps(
            {
                "agents": 1,
                "comment": {"id": "x"},
                "domains": [["1", "2"]],
                "nodes": [
                    {
                        "agent": 0,
                        "blocks": [["1"], ["2"]],
                        "children": [1, 2],
                        "id": 0,
                        "kind": "sideways",
                    }
                ],
                "root": 0,
            },
            sort_keys=True,
            indent=2,
        )
        want = text.splitlines().index('      "id": 0,') + 1
        assert text.index('"id": "x"') < text.index('"id": 0')
        with pytest.raises(
            MechanismFormatError,
            match=rf"node 0 \(line {want}\): unknown kind 'sideways'",
        ):
            loads_mechanism(text)

    def test_later_entries_and_repeated_keys_are_located(self):
        # one line per entry; the second "nodes" key is the one json keeps
        entries = [
            '{"id": 0, "kind": "leaf", "outcome": ["0"]}',
            '{"kind": "leaf", "id": 1, "outcome": ["0"], "note": {"id": 7}}',
            '{"id": 2, "kind": "sideways"}',
        ]
        text = (
            '{"agents": 1, "domains": [["1"]], "root": 0,\n'
            ' "nodes": [{"id": 5, "kind": "leaf", "outcome": ["0"]}],\n'
            ' "nodes" : [\n  ' + ",\n  ".join(entries) + "\n ]\n}"
        )
        with pytest.raises(MechanismFormatError, match=r"node 2 \(line 6\): unknown"):
            loads_mechanism(text)

    def test_node_without_id_is_named_by_its_index(self):
        # the count of "id" keys used to name the next node's line
        text = json.dumps(
            {
                "agents": 1,
                "domains": [["1", "2"]],
                "root": 0,
                "nodes": [
                    {"kind": "leaf", "outcome": ["1"]},
                    {"id": 1, "kind": "leaf", "outcome": ["0"]},
                ],
            },
            indent=1,
        )
        with pytest.raises(MechanismFormatError) as info:
            loads_mechanism(text)
        assert str(info.value) == "nodes[0]: missing key 'id'"

    @pytest.mark.parametrize(
        "entry,key",
        [
            ({"id": 0, "kind": "leaf"}, "outcome"),
            ({"id": 0, "outcome": ["1"]}, "kind"),
            ({"id": 0, "kind": "query", "blocks": [["1"], ["2"]]}, "children"),
        ],
    )
    def test_missing_node_key_is_named(self, entry, key):
        text = json.dumps(
            {"agents": 1, "domains": [["1", "2"]], "root": 0, "nodes": [entry]},
            indent=1,
        )
        want = next(n for n, line in enumerate(text.splitlines(), 1) if '"id"' in line)
        with pytest.raises(
            MechanismFormatError,
            match=rf"^node 0 \(line {want}\): missing key '{key}'$",
        ):
            loads_mechanism(text)

    def test_text_vectors_and_blocks_are_shared(self):
        # the loader hands every node that writes a vector or a blocks
        # list all in text one tuple; a vector with a number is its own
        text = json.dumps({
            "agents": 2, "domains": [["1", "2"], ["1", "2"]], "root": 0,
            "nodes": [
                {"id": 0, "kind": "query", "agent": 0,
                 "blocks": [["2"], ["1"]], "children": [1, 2]},
                {"id": 1, "kind": "query", "agent": 1,
                 "blocks": [["2"], ["1"]], "children": [3, 4]},
                {"id": 2, "kind": "leaf", "outcome": ["1", "0"], "payment": ["1", "0"]},
                {"id": 3, "kind": "leaf", "outcome": ["1", "0"], "payment": [1, 0]},
                {"id": 4, "kind": "leaf", "outcome": [1, 0], "payment": [1.0, 0]},
            ],
        })
        t = loads_mechanism(text)
        n = t.nodes
        one, zero = Fraction(1), Fraction(0)
        assert n[0].blocks is n[1].blocks == ((Fraction(2),), (one,))
        assert n[2].outcome is n[3].outcome is n[2].payment == (one, zero)
        assert n[3].payment == n[4].outcome == n[4].payment == (one, zero)
        assert n[3].payment is not n[2].outcome
        assert not t.problems

    def test_a_text_vector_never_stands_in_for_a_bool(self):
        # 1, 1.0 and true hash alike: a leaf writing [1, 0] before one
        # writing [true, 0] leaves the second refused, at its own line
        text = json.dumps({
            "agents": 2, "domains": [["1", "2"], ["1"]], "root": 0,
            "nodes": [
                {"id": 0, "kind": "query", "agent": 0,
                 "blocks": [["1"], ["2"]], "children": [1, 2]},
                {"id": 1, "kind": "leaf", "outcome": [1, 0], "payment": None},
                {"id": 2, "kind": "leaf", "outcome": [True, 0], "payment": None},
            ],
        }, indent=1)
        want = text.splitlines().index('   "id": 2,') + 1
        with pytest.raises(
            MechanismFormatError,
            match=rf"^node 2 \(line {want}\): not a rational: True$",
        ):
            loads_mechanism(text)

    @pytest.mark.parametrize(
        "number,shown", [("1e400", "inf"), ("-Infinity", "-inf"), ("NaN", "nan")]
    )
    def test_non_finite_outcome_is_not_a_rational(self, number, shown):
        # json reads these as floats that no Fraction holds
        text = (
            '{"agents": 1, "domains": [["1", "2"]], "root": 0, "nodes": [\n'
            '{"id": 0, "kind": "query", "agent": 0, "blocks": [["1"], ["2"]],'
            ' "children": [1, 2]},\n'
            '{"id": 1, "kind": "leaf", "outcome": ["0"]},\n'
            f'{{"id": 2, "kind": "leaf", "outcome": [{number}]}}\n'
            "]}"
        )
        with pytest.raises(
            MechanismFormatError,
            match=rf"^node 2 \(line 4\): not a rational: {shown}$",
        ):
            loads_mechanism(text)

    def test_duplicate_id_names_its_second_line(self):
        text = json.dumps(
            {
                "agents": 1,
                "domains": [["1", "2"]],
                "root": 0,
                "nodes": [
                    {
                        "id": 0,
                        "kind": "query",
                        "agent": 0,
                        "blocks": [["1"], ["2"]],
                        "children": [1, 2],
                    },
                    {"id": 1, "kind": "leaf", "outcome": ["1"], "payment": ["0"]},
                    {"id": 2, "kind": "leaf", "outcome": ["0"], "payment": ["0"]},
                    {"id": 1, "kind": "leaf", "outcome": ["0"], "payment": ["5"]},
                ],
            },
            indent=1,
        )
        want = [n for n, line in enumerate(text.splitlines(), 1) if '"id": 1' in line]
        assert len(want) == 2
        with pytest.raises(
            MechanismFormatError,
            match=rf"node 1 \(line {want[1]}\): duplicate node id",
        ):
            loads_mechanism(text)

    @pytest.mark.parametrize(
        "nodes,message",
        [
            ([5], r"nodes\[0\] must be a node object"),
            (5, "'nodes' must be a list"),
            ({"id": 0}, "'nodes' must be a list"),
        ],
    )
    def test_node_shape_errors(self, nodes, message):
        text = json.dumps(
            {"agents": 1, "domains": [["1"]], "root": 0, "nodes": nodes}
        )
        with pytest.raises(MechanismFormatError, match=message):
            loads_mechanism(text)


# a two-agent mechanism file whose list fields are swapped one at a time
# for text or an object, which iterate by character or key
LISTED = {
    "agents": 2,
    "domains": [["1", "2"], ["1"]],
    "root": 0,
    "nodes": [
        {"id": 0, "kind": "query", "agent": 0, "blocks": [["1"], ["2"]],
         "children": [1, 2]},
        {"id": 1, "kind": "leaf", "outcome": ["1", "0"], "payment": ["0", "0"]},
        {"id": 2, "kind": "leaf", "outcome": ["0", "1"], "payment": ["0", "0"]},
    ],
}


def listed_with(path, value) -> str:
    """LISTED, one line per value, with the field at path set to value."""
    data = json.loads(json.dumps(LISTED))
    *head, last = path
    here = data
    for key in head:
        here = here[key]
    here[last] = value
    return json.dumps(data, indent=1)


class TestListFields:
    """Every list field of a mechanism or instance file must be a json
    list: text or an object in its place used to be read a character or a
    key at a time, and the tree or system came out changed."""

    @pytest.mark.parametrize(
        "path,value,message",
        [
            (("domains",), "12", "bad header: 'domains' must be a list"),
            (("domains", 0), "12", "bad header: 'domains[0]' must be a list"),
            (("domains", 0), {"1": 0}, "bad header: 'domains[0]' must be a list"),
            (("nodes", 0, "blocks"), ["1", "2"], "'blocks[0]' must be a list"),
            (("nodes", 0, "blocks"), {"1": 0, "2": 1}, "'blocks' must be a list"),
            (("nodes", 0, "children"), "12", "'children' must be a list"),
            (("nodes", 0, "children"), {"1": 0, "2": 0}, "'children' must be a list"),
            (("nodes", 1, "outcome"), "10", "'outcome' must be a list"),
            (("nodes", 1, "payment"), "00", "'payment' must be a list"),
            (("nodes", 2, "payment"), {"0": 0, "1": 0}, "'payment' must be a list"),
        ],
    )
    def test_mechanism_fields(self, path, value, message):
        text = listed_with(path, value)
        if path[0] == "nodes":
            nid = path[1]
            line = text.splitlines().index(f'   "id": {nid},') + 1
            message = f"node {nid} (line {line}): {message}"
        with pytest.raises(MechanismFormatError) as caught:
            loads_mechanism(text)
        assert str(caught.value) == message
        loads_mechanism(json.dumps(LISTED))  # the unchanged file loads

    @pytest.mark.parametrize(
        "kind,field,value,message",
        [
            ("single_item", "domain", "12", "'domain' must be a list"),
            ("single_item", "domain", {"1": 0}, "'domain' must be a list"),
            ("graphic", "edges", ["01", "12"], "'params.edges[0]' must be a list"),
            ("graphic", "edges", {"01": 0, "12": 1}, "'params.edges' must be a list"),
            ("explicit", "maximal_sets", ["01"],
             "'params.maximal_sets[0]' must be a list"),
            ("explicit", "maximal_sets", "01", "'params.maximal_sets' must be a list"),
        ],
    )
    def test_instance_fields(self, kind, field, value, message):
        data = {"kind": kind, "n": 2, "domain": ["1", "2"], "params": {}}
        data["params"] = {
            "graphic": {"edges": [[0, 1], [1, 2]]},
            "explicit": {"maximal_sets": [[0, 1]]},
        }.get(kind, {})
        loads_instance(json.dumps(data))  # the unchanged file loads
        if field == "domain":
            data["domain"] = value
        else:
            data["params"][field] = value
        with pytest.raises(MechanismFormatError) as caught:
            loads_instance(json.dumps(data))
        assert str(caught.value) == message


class TestInstanceFiles:
    @pytest.mark.parametrize(
        "ps,domain",
        [
            (PSystem.single_item(2), (1, 2, 3)),
            (PSystem.uniform(3, 2), (1, 2)),
            (PSystem.graphic([(0, 1), (1, 2), (0, 2)]), (1, 2)),
            (PSystem.explicit(3, [{0, 1}, {2}]), (1, 3)),
        ],
    )
    def test_round_trip(self, ps, domain):
        dom = tuple(Fraction(v) for v in domain)
        data = instance_data_for(ps, dom)
        ps2, dom2 = loads_instance(render_report(data))
        assert dom2 == dom
        assert instance_data_for(ps2, dom2) == data
        assert ps2.maximal_sets() == ps.maximal_sets()

    def test_unknown_kind(self):
        with pytest.raises(MechanismFormatError, match="unknown instance kind"):
            loads_instance('{"kind": "nope", "n": 1, "domain": ["1"]}')

    @pytest.mark.parametrize(
        "kind,param", [
            ("uniform", "rank"),
            ("graphic", "edges"),
            ("explicit", "maximal_sets"),
        ],
    )
    def test_missing_params_are_named(self, kind, param):
        text = json.dumps({"kind": kind, "n": 2, "domain": ["1"]})
        with pytest.raises(MechanismFormatError, match=f"params.{param}"):
            loads_instance(text)

    @pytest.mark.parametrize(
        "text",
        [
            '"kind, n and domain"',
            '{"kind": "uniform", "n": 2, "domain": ["1"], "params": 3}',
            '{"kind": "uniform", "n": "x", "domain": ["1"], "params": {"rank": 1}}',
            '{"kind": "uniform", "n": 2, "domain": ["1"], "params": {"rank": []}}',
        ],
    )
    def test_shape_errors(self, text):
        with pytest.raises(MechanismFormatError):
            loads_instance(text)

    @pytest.mark.parametrize("params", ['"abc"', "[1]", "3", "false"])
    def test_params_must_be_an_object(self, params):
        text = (
            '{"kind": "uniform", "n": 2, "domain": ["1"], '
            f'"params": {params}}}'
        )
        with pytest.raises(
            MechanismFormatError, match="^'params' must be an object$"
        ):
            loads_instance(text)

    @pytest.mark.parametrize("params", ["", ', "params": null'])
    def test_absent_or_null_params_read_as_empty(self, params):
        text = f'{{"kind": "single_item", "n": 2, "domain": ["1", "2"]{params}}}'
        ps, domain = loads_instance(text)
        assert ps.maximal_sets() == PSystem.single_item(2).maximal_sets()
        assert domain == (1, 2)
        text = f'{{"kind": "uniform", "n": 2, "domain": ["1"]{params}}}'
        with pytest.raises(
            MechanismFormatError, match="^uniform instance needs params.rank$"
        ):
            loads_instance(text)

    def test_non_finite_domain_value_is_not_a_rational(self):
        text = '{"kind": "single_item", "n": 2, "domain": ["1", 1e400]}'
        with pytest.raises(
            MechanismFormatError,
            match="^bad single_item instance: not a rational: inf$",
        ):
            loads_instance(text)

    def test_graphic_edge_count_must_match(self):
        text = json.dumps(
            {
                "kind": "graphic",
                "n": 2,
                "domain": ["1"],
                "params": {"edges": [[0, 1]]},
            }
        )
        with pytest.raises(MechanismFormatError, match="edges"):
            loads_instance(text)


def test_graph_dump_shape():
    t = english_auction_tree(2, [1, 2])
    data = graph_to_data(build_k_osp_graph(t, 0, 0))
    assert set(data) == {"vertices", "edges"}
    for v in data["vertices"]:
        assert set(v) == {"agent", "anchor", "slice", "bit", "types", "size"}
    for e in data["edges"]:
        assert set(e) == {"from", "to", "weight"}
        parse_rational(e["weight"])


@pytest.mark.parametrize(
    "tree,k",
    [
        (english_auction_tree(3, [1, 2, 3, 4, 5]), 2),
        (english_auction_tree(3, [1, 2, 3]), 0),
        (compress(extract_tree(PSystem.single_item(3), [1, 2, 3, 4, 5])), 1),
        (compress(extract_tree(PSystem.uniform(4, 2), [1, 2, 3, 4])), 0),
    ],
    ids=["english_3_5_k2", "english_3_3_k0", "single_item_3_5_k1", "uniform_4_2_4_k0"],
)
def test_graph_dump_sizes_count_every_profile(tree, k):
    profiles = prod(map(len, tree.domains))
    tails = 0
    for agent in range(tree.agents):
        data = graph_to_data(build_k_osp_graph(tree, k, agent))
        assert sum(v["size"] for v in data["vertices"]) == profiles
        tails += sum(v["slice"] != "settled" for v in data["vertices"])
    assert tails > 0


def test_render_report_deterministic():
    a = render_report({"b": 1, "a": [2, 3]})
    b = render_report({"a": [2, 3], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


# strings with non-ASCII, control, quote and lone surrogate characters
_TEXT = st.text(max_size=8) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\u2028", "\ud800", "a\udfff", "é€😀", ""]
)
_SCALARS = (
    _TEXT
    | st.integers()
    | st.integers(-(10**80), 10**80)
    | st.floats()
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e300])
    | st.booleans()
    | st.none()
)
_KEYS = st.one_of(
    _TEXT, st.integers(-5, 5) | st.booleans(), st.floats(allow_nan=False), st.none()
)


def _json_values(children):
    # a dict's keys mostly share one kind, so that most of them sort
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, children, max_size=4)
        | st.dictionaries(st.integers(-9, 9) | st.booleans(), children, max_size=4)
        | st.dictionaries(st.floats(), children, max_size=4)
        | st.dictionaries(st.none(), children, max_size=1)
        | st.dictionaries(_KEYS, children, max_size=3)
    )


JSON_VALUES = st.recursive(_SCALARS, _json_values, max_leaves=20)


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Text(str):
    pass


class Table(dict):
    pass


class Items(list):
    pass


class Ratio(float):
    pass


class Pair(NamedTuple):
    first: int
    second: str


class TestCanonicalWriter:
    """render_report against `json.dumps(sort_keys=True, indent=2)`."""

    @settings(max_examples=600, deadline=None)
    @given(JSON_VALUES)
    def test_same_bytes_as_json_dumps(self, value):
        try:
            want = json.dumps(value, sort_keys=True, indent=2) + "\n"
        except TypeError as exc:  # keys of kinds that do not sort together
            with pytest.raises(TypeError) as got:
                render_report(value)
            assert str(got.value) == str(exc)
        else:
            assert render_report(value) == want

    @pytest.mark.parametrize(
        "value",
        [
            {"a": [Fraction(1, 2)]},
            Fraction(3),
            [1, {"b": object()}],
            {(1, 2): "tuple key"},
            {"a": 1, 2: "mixed keys"},
        ],
    )
    def test_same_type_error(self, value):
        with pytest.raises(TypeError) as want:
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError) as got:
            render_report(value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "value",
        [
            {"level": Level.HIGH, "levels": [Level.LOW, Level.HIGH]},
            {Level.LOW: "int enum key", 3: "int key"},
            Level.HIGH,
            Text("quoted \"text\""),
            {Text("key"): Text("value"), "plain": [Text("item")]},
            Table(b=1, a=[2, 3]),
            Items([1, "two", Items()]),
            {"empty": Table(), "none": Items()},
            {"ok": True, "truncated": False, "missing": None},
            {True: 1, False: 0},
            Pair(1, "x"),
            [Ratio(0.5), {"x": Ratio(-2.0)}],
        ],
    )
    def test_subclasses_write_as_json_dumps(self, value):
        want = json.dumps(value, sort_keys=True, indent=2) + "\n"
        assert render_report(value) == want


def test_render_csv_header_always():
    assert render_csv([], ["x", "y"]) == "x,y\n"
    rows = [{"x": "a,b", "y": 1}]
    out = render_csv(rows, ["x", "y"])
    assert out == 'x,y\n"a,b",1\n'
