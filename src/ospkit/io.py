"""File formats: mechanism JSON, instance JSON, graph dumps, reports.

Mechanism files:
  {"agents": 2, "domains": [["1","2"],["1","2"]], "root": 0,
   "nodes": [{"id":0,"kind":"query","agent":0,"blocks":[["1"],["2"]],
              "children":[1,2]},
             {"id":1,"kind":"leaf","outcome":["0","0"],"payment":["0","0"]}]}

Values are rationals in text form ("3", "7/2").  Payments may be omitted
or null.  Format errors carry the line of the offending node where it
can be located in the source text.

Every json file and report is written by `render_report` as `json.dumps`
writes it; it joins the values reports hold and hands json the rest.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from math import inf, prod

from .model import ImplementationTree, LeafNode, QueryNode, as_integer
from .rational import format_rational, parse_rational


class MechanismFormatError(ValueError):
    pass


_SPACE = re.compile(r"[ \t\n\r]*")  # the whitespace json allows
_TEXT, _LIST = {str}, {list}  # the item types of a vector and a blocks list
_DECODER = json.JSONDecoder()


def _skip(text: str, pos: int) -> int:
    """The first position at or after pos that json reads as no space."""
    return _SPACE.match(text, pos).end()


def _members(text: str, pos: int):
    """(key, key position, value position) of each member of the json
    object starting at pos, in text order; the text must be valid json."""
    pos = _skip(text, pos + 1)
    while text[pos] == '"':
        key, end = _DECODER.raw_decode(text, pos)
        value = _skip(text, _skip(text, end) + 1)  # past the colon
        yield key, pos, value
        _, end = _DECODER.raw_decode(text, value)
        pos = _skip(text, end)
        if text[pos] == ",":
            pos = _skip(text, pos + 1)


def _line_of_node(text: str, ordinal: int) -> int:
    """Line of the "id" key of the ordinal-th (0-based) entry of the
    top-level "nodes" list in valid json text.  As in `json.loads`, a
    repeated key means its last occurrence."""
    at = None
    for key, _, value in _members(text, _skip(text, 0)):
        if key == "nodes":
            at = value
    for _ in range(ordinal):  # from the bracket or comma before an entry
        _, end = _DECODER.raw_decode(text, _skip(text, at + 1))
        at = _skip(text, end)
    where = None
    for key, pos, _ in _members(text, _skip(text, at + 1)):
        if key == "id":
            where = pos
    return text.count("\n", 0, where) + 1


def _list(raw, field: str) -> list:
    """raw, which must be a json list: a string or an object in its place
    would be read one character or key at a time."""
    if type(raw) is not list:
        raise MechanismFormatError(f"'{field}' must be a list")
    return raw


def parse_horizon(text: str) -> int | float:
    s = str(text).strip().lower()
    if s in ("inf", "infinity", "oo"):
        return inf
    try:
        k = int(s)
    except ValueError:
        raise MechanismFormatError(f"bad horizon {text!r}: need an int or 'inf'")
    if k < 0:
        raise MechanismFormatError(f"bad horizon {text!r}: must be non-negative")
    return k


def _json_object(text: str, what: str, keys) -> dict:
    """The json object a `what` file holds, with every one of `keys`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MechanismFormatError(
            f"invalid json at line {exc.lineno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise MechanismFormatError(f"{what} file must hold a json object")
    for key in keys:
        if key not in data:
            raise MechanismFormatError(f"missing key {key!r}")
    return data


def loads_mechanism(text: str) -> ImplementationTree:
    data = _json_object(text, "mechanism", ("agents", "domains", "nodes", "root"))
    # each distinct text is parsed once; other values keep their errors
    seen: dict[str, Fraction] = {}
    # one tuple per distinct vector and per distinct blocks list written
    # all in text, shared by every node that writes it (the tree's walk
    # then reads each once); 1, 1.0 and true hash alike, so a vector with
    # any other value is neither shared nor looked up
    shared: dict[tuple, tuple] = {}

    def rational(v) -> Fraction:
        if type(v) is not str:
            return parse_rational(v)
        if v not in seen:
            seen[v] = parse_rational(v)
        return seen[v]

    def vector(raw, field: str) -> tuple:
        if type(raw) is not list or {*map(type, raw)} != _TEXT:
            return tuple(rational(v) for v in _list(raw, field))
        key = tuple(raw)
        got = shared.get(key)
        if got is None:
            got = shared[key] = tuple(map(rational, key))
        return got

    def partition(raw) -> tuple:
        if (
            type(raw) is not list
            or {*map(type, raw)} != _LIST
            or {*map(type, chain.from_iterable(raw))} != _TEXT
        ):
            return tuple(
                tuple(sorted(rational(v) for v in _list(blk, f"blocks[{i}]")))
                for i, blk in enumerate(_list(raw, "blocks"))
            )
        key = tuple(map(tuple, raw))
        got = shared.get(key)
        if got is None:
            got = shared[key] = tuple(
                tuple(sorted(map(rational, blk))) for blk in key
            )
        return got

    try:
        agents = as_integer(data["agents"])
        domains = [
            [rational(v) for v in _list(dom, f"domains[{i}]")]
            for i, dom in enumerate(_list(data["domains"], "domains"))
        ]
        root = as_integer(data["root"])
    except (TypeError, ValueError) as exc:
        raise MechanismFormatError(f"bad header: {exc}") from exc

    if not isinstance(data["nodes"], list):
        raise MechanismFormatError("'nodes' must be a list of node objects")
    nodes: dict[int, QueryNode | LeafNode] = {}
    for ordinal, entry in enumerate(data["nodes"]):
        if not isinstance(entry, dict):
            raise MechanismFormatError(f"nodes[{ordinal}] must be a node object")
        try:
            nid = as_integer(entry["id"])
            if nid in nodes:
                raise MechanismFormatError("duplicate node id")
            kind = entry["kind"]
            if kind == "leaf":
                outcome = vector(entry["outcome"], "outcome")
                payment = entry.get("payment")
                pay = None if payment is None else vector(payment, "payment")
                nodes[nid] = LeafNode(nid, outcome, pay)
            elif kind == "query":
                blocks = partition(entry["blocks"])
                children = tuple(map(as_integer, _list(entry["children"], "children")))
                nodes[nid] = QueryNode(
                    nid, as_integer(entry["agent"]), blocks, children
                )
            else:
                raise MechanismFormatError(f"unknown kind {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            if "id" not in entry:
                raise MechanismFormatError(f"nodes[{ordinal}]: {problem}") from exc
            where = _line_of_node(text, ordinal)
            raise MechanismFormatError(
                f"node {entry['id']} (line {where}): {problem}"
            ) from exc

    try:
        return ImplementationTree(agents, domains, root, nodes)
    except ValueError as exc:
        raise MechanismFormatError(str(exc)) from exc


def load_mechanism(path: str) -> ImplementationTree:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_mechanism(fh.read())


def mechanism_to_data(tree: ImplementationTree) -> dict:
    nodes = []
    for nid in sorted(tree.nodes):
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            nodes.append(
                {
                    "id": node.id,
                    "kind": "leaf",
                    "outcome": [format_rational(v) for v in node.outcome],
                    "payment": (
                        None
                        if node.payment is None
                        else [format_rational(v) for v in node.payment]
                    ),
                }
            )
        else:
            nodes.append(
                {
                    "id": node.id,
                    "kind": "query",
                    "agent": node.agent,
                    "blocks": [
                        [format_rational(v) for v in blk] for blk in node.blocks
                    ],
                    "children": list(node.children),
                }
            )
    return {
        "agents": tree.agents,
        "domains": [[format_rational(v) for v in dom] for dom in tree.domains],
        "root": tree.root,
        "nodes": nodes,
    }


def dumps_mechanism(tree: ImplementationTree) -> str:
    return render_report(mechanism_to_data(tree))


def dump_mechanism(tree: ImplementationTree, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_mechanism(tree))


def loads_instance(text: str):
    """Parse an instance file into (PSystem, valuation domain)."""
    from .greedy import PSystem

    data = _json_object(text, "instance", ("kind", "n", "domain"))
    kind = data["kind"]
    params = {} if data.get("params") is None else data["params"]
    if type(params) is not dict:
        raise MechanismFormatError("'params' must be an object")
    try:
        n = as_integer(data["n"])
        domain = tuple(sorted(map(parse_rational, _list(data["domain"], "domain"))))
        if kind == "single_item":
            ps = PSystem.single_item(n)
        elif kind == "uniform":
            ps = PSystem.uniform(n, params["rank"])
        elif kind == "graphic":
            edges = []
            for i, e in enumerate(_list(params["edges"], "params.edges")):
                field = f"params.edges[{i}]"
                if len(_list(e, field)) != 2:
                    raise ValueError(f"'{field}' must list two endpoints")
                try:
                    edges.append((as_integer(e[0]), as_integer(e[1])))
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"'{field}': {exc}") from None
            if len(edges) != n:
                raise MechanismFormatError(
                    f"{len(edges)} edges for {n} elements"
                )
            ps = PSystem.graphic(edges)
        elif kind == "explicit":
            tops = _list(params["maximal_sets"], "params.maximal_sets")
            ps = PSystem.explicit(
                n, [_list(t, f"params.maximal_sets[{i}]") for i, t in enumerate(tops)]
            )
        else:
            raise MechanismFormatError(f"unknown instance kind {kind!r}")
    except MechanismFormatError:
        raise
    except KeyError as exc:
        raise MechanismFormatError(
            f"{kind} instance needs params.{exc.args[0]}"
        ) from exc
    except (TypeError, ValueError) as exc:
        raise MechanismFormatError(f"bad {kind} instance: {exc}") from exc
    return ps, domain


def load_instance(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return loads_instance(fh.read())


def instance_to_data(kind: str, n: int, domain, params: dict | None = None) -> dict:
    return {
        "kind": kind,
        "n": n,
        "domain": [format_rational(v) for v in domain],
        "params": params or {},
    }


def instance_data_for(ps, domain) -> dict:
    """Serializable form of a built p-system, recovered from how it was
    constructed; anything unrecognized falls back to the explicit
    maximal-set listing."""
    name = getattr(ps, "name", "")
    if name == "single_item":
        return instance_to_data("single_item", ps.ground_size, domain)
    if name.startswith("uniform_"):
        rank = int(name.split("_", 1)[1])
        return instance_to_data(
            "uniform", ps.ground_size, domain, {"rank": rank}
        )
    if name == "graphic" and hasattr(ps, "edges"):
        return instance_to_data(
            "graphic",
            ps.ground_size,
            domain,
            {"edges": [list(e) for e in ps.edges]},
        )
    tops = [sorted(s) for s in ps.maximal_sets()]
    return instance_to_data(
        "explicit", ps.ground_size, domain, {"maximal_sets": sorted(tops)}
    )


def graph_to_data(graph) -> dict:
    """Serializable form of a class graph (see ospkit.cmon)."""
    vertices = []
    for cls in graph.vertices:
        vertices.append(
            {
                "agent": cls.agent,
                "anchor": cls.anchor,
                "slice": cls.slice_kind,
                "bit": int(cls.bit),
                "types": [format_rational(v) for v in cls.types],
                "size": sum(prod(map(len, box)) for box in cls.boxes),
            }
        )
    edges = [
        {"from": a, "to": b, "weight": format_rational(w)}
        for a, b, w in graph.edges
    ]
    return {"vertices": vertices, "edges": edges}


def render_report(data: dict) -> str:
    """The bytes of `json.dumps(data, sort_keys=True, indent=2)` and a
    newline.  The values reports hold (str, int, bool and None, in lists,
    tuples and dicts with str keys) are joined here, each container in
    one go and its strings quoted by the C encoder, as the indented call
    runs the pure-Python encoder.  Any other value (a subclass, a float,
    a dict with other keys) is written by `json.dumps` itself, so its
    bytes and its TypeError are json's own."""
    return _canonical(data, "\n") + "\n"


def _canonical(o, indent: str) -> str:
    # indent is the newline and the indent of the line o starts on
    kind = type(o)
    if kind is str:
        return _quote(o)
    if kind is int:
        return int.__repr__(o)
    if kind is bool:
        return "true" if o else "false"
    if o is None:
        return "null"
    inner = indent + "  "
    if kind is dict:
        if not o:
            return "{}"
        try:
            items = [
                _quote(k)
                + ": "
                + (_quote(v) if type(v) is str else _canonical(v, inner))
                for k, v in sorted(o.items())
            ]
        except TypeError:  # keys not all str, or a value json cannot write
            return _by_json(o, indent)
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not o:
            return "[]"
        # a str, the most common item, is quoted here and not in a call
        items = [_quote(v) if type(v) is str else _canonical(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return _by_json(o, indent)


def _by_json(o, indent: str) -> str:
    """o as `json.dumps` writes it at the depth where indent starts."""
    return json.dumps(o, sort_keys=True, indent=2).replace("\n", indent)


def write_report(data: dict, path: str | None) -> str:
    text = render_report(data)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def render_csv(rows: list[dict], columns: list[str]) -> str:
    # only the experiment verb writes CSV: no other verb loads csv
    import csv
    import io as _io

    buf = _io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row.get(c, "") for c in columns})
    return buf.getvalue()
