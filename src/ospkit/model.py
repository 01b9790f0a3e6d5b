"""Implementation trees: extensive-form queries over rational type domains.

A mechanism is a finite rooted tree.  Each internal node names an agent and
partitions her currently possible types into two or more blocks, one child
per block.  Leaves carry the outcome vector and, optionally, a payment
vector.  Utilities follow the cost convention: an agent of type t facing
outcome f and payment p realizes p - t*f.

The commitment horizon k (a non-negative int, or math.inf) bounds how many
of her own future moves an agent plans ahead when she evaluates a query.
`k_step_neighborhood` and `equivalence_class` expose the induced structure:
the nodes covered by a k-step plan, and the profiles an agent cannot yet
tell apart from a given one.

A tree checks itself once, when it is built: the constructor's one walk
records every defect in `ImplementationTree.problems` and the first
non-binary outcome in `ImplementationTree.nonbinary`.  `validate_tree`,
`require_valid` and `require_binary_outcomes` read those facts, so each
costs O(1) however often a caller asks.  The walk does only what
validation needs; the tables that no check reads (`depth`, `domain_at`,
`query_depth`, `leaves_under`, `shapes`) are built on first read, and
many trees, such as the rounds of an extraction, never read some of
them.

Every domain is totally ordered, so a type's position in its agent's
sorted domain keeps its order; the walk records every block and every
current domain as an int mask over those positions (`block_masks`,
`mask_at`), and `domain_at` holds every current domain as a tuple of
types.  While every query passes the mask test of `_split`, every
domain is the types its mask names; once one fails, the tree is read
by the definition, every query against its current domain as written.
The tree builders and the loader hand many nodes one blocks tuple or
one outcome vector, so the walk computes the masks and the mask test
once per distinct blocks object (and agent and own mask), and the
winners once per distinct outcome object.  It keys them by `id`, which
is safe because every keyed object stays alive in the tree's own node
map for the whole walk, so no id is reused for another object
meanwhile.
On a valid tree the blocks partition every current domain, so the
profiles available at a node that reach a leaf below it are exactly the
leaf's own box, `mask_at[leaf]` (as types, `domain_at[leaf]`): every table
keyed by profile or by (own type, opponents) reads those boxes for the
leaves in `leaves_under[node]`, and no consumer walks from the root once
per profile.  On a malformed tree a leaf's box need not hold the
profiles that reach it, so every analysis and rewrite calls
`require_valid` first and refuses such a tree.
`parting_node` finds where the walks to two leaves part: at their
lowest common ancestor.
`ImplementationTree.path_of` and `leaf_of` remain the single-profile walk.

Nodes are records: read-only named tuples sharing the equality of
`Record`, the base of every value record in the package.  A node id
handed in must be an int naming a node of the tree (`require_node`).
"""

from __future__ import annotations

import itertools
import os
import random
import reprlib
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import inf, lcm, log10, prod

from .rational import Rat, format_rational, parse_rational

DEFAULT_SCALE_GUARD = 100_000

_ZERO, _ONE = (0, 1), (1, 1)  # the outcomes 0 and 1 as integer ratios


class MechanismError(ValueError):
    """Malformed mechanism, unavailable profile, or exceeded scale guard."""


def _scale_limit() -> int:
    raw = os.environ.get("OSPKIT_SCALE_GUARD", DEFAULT_SCALE_GUARD)
    try:
        return int(raw)
    except ValueError:
        raise MechanismError(
            f"OSPKIT_SCALE_GUARD must be an integer, not {raw!r}"
        ) from None


def _over(shown, what: str, limit: int) -> MechanismError:
    return MechanismError(
        f"enumeration of {shown} {what} exceeds scale guard {limit}; "
        "raise OSPKIT_SCALE_GUARD to allow"
    )


def scale_guard(count: int, what: str = "profiles") -> None:
    """Refuse enumerations larger than OSPKIT_SCALE_GUARD (default 100000)."""
    limit = _scale_limit()
    if count > limit:
        # a count past 10^18 is shown by its magnitude: Python refuses to
        # print an int of more than 4300 digits
        shown = count if count < 10**18 else f"about 10^{int(log10(count))}"
        raise _over(shown, what, limit)


def _magnitude_guard(digits: float, what: str) -> None:
    """Refuse a count of about 10^digits by that magnitude, before it is
    built, when it has 4300 digits more than OSPKIT_SCALE_GUARD has bits:
    it is surely over the guard, and building it may never end (2 ** n at
    n = 10^20).  A smaller count is cheap to build for `scale_guard`.  An
    exponent of more than 20 digits is shown by its own magnitude."""
    limit = _scale_limit()
    if digits > 4300 + limit.bit_length():
        e = int(digits)
        shown = e if e < 10**20 else f"(10^{int(log10(e))})"
        raise _over(f"about 10^{shown}", what, limit)


def as_integer(value) -> int:
    """An integer field or size: an int, an integral float or integer text.

    A bool, a float or Fraction with a fractional part, and any value
    int() refuses raise MechanismError; int() would read True as 1 and
    truncate 2.9 to 2."""
    if type(value) is int:  # the common case: a json int
        return value
    # isinstance against Fraction would run the abc machinery in Python
    fractional = (isinstance(value, float) and not value.is_integer()) or (
        type(value) is Fraction and value.denominator != 1
    )
    if not (isinstance(value, bool) or fractional):
        try:
            return int(value)
        except (TypeError, ValueError, OverflowError):
            pass
    # reprlib keeps a long text short, such as digits past int()'s limit
    raise MechanismError(f"not an integer: {reprlib.repr(value)}")


def normalize_horizon(k) -> int | float:
    """Validate a commitment horizon: a non-negative int or math.inf.

    An integral float or Fraction is read as its int, as `as_integer`
    reads it."""
    if k == inf:
        return inf
    if isinstance(k, bool):
        raise MechanismError(f"bad horizon {k!r}")
    if isinstance(k, int) and k >= 0:
        return k
    integral = (isinstance(k, float) and k.is_integer()) or (
        type(k) is Fraction and k.denominator == 1
    )
    if integral and k >= 0:
        return int(k)
    raise MechanismError(f"bad horizon {k!r}: need a non-negative integer or inf")


class Record:
    """The shared behaviour of the package's value records.

    Every record type (tree nodes, violated constraints, class-graph
    vertices, findings, results) subclasses `Record` and a
    `collections.namedtuple`, with ``__slots__ = ()``: an instance is one
    tuple, carries no ``__dict__`` and refuses assignment to any field.
    Field order, defaults, keyword construction and the repr text are
    the named tuple's.  A record equals only a record of its own class
    with equal fields, never a plain tuple or a record of another class,
    and hashes as the tuple of its fields.
    """

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        # a tuple would compare its items with ours: refuse it here
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = tuple.__hash__


class Verdict(Record):
    """A pass/fail record: its first field (a bool) is its truth value,
    so a verdict reads true exactly when the check passed or the search
    found something."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self[0]


class QueryNode(Record, namedtuple("QueryNode", "id agent blocks children")):
    """Query to `agent` (int): `blocks` (tuples of Rat) partition her
    current domain, one child id in `children` per block."""

    __slots__ = ()

    @property
    def kind(self) -> str:
        return "query"


class LeafNode(Record, namedtuple("LeafNode", "id outcome payment", defaults=(None,))):
    """Leaf with an `outcome` vector and an optional `payment` vector
    (tuples of Rat, one entry per agent)."""

    __slots__ = ()

    @property
    def kind(self) -> str:
        return "leaf"


class ImplementationTree:
    """Rooted query tree with per-node maps.

    Construction is tolerant: semantic defects (blocks that do not
    partition the current domain, wrong vector lengths, unreachable
    nodes) are recorded in `problems`.  Only shapes that cannot be
    traversed at all raise here: a node key, id or child that is not an
    int (a bool included), an unknown root, a child id reached twice, a
    node keyed under a different id, an unknown agent.

    Built by the constructor's one walk, read-only afterwards:
      parent                 per reachable node id
      positions[i]           integer ratio -> position in agent i's domain
      mask_at[nid]           per-agent current domains as masks over those
      block_masks[nid]       the blocks of query nid as masks
      preorder, leaf_ids, internal_ids
      problems               every defect, empty when the tree is a valid
                             mechanism: the structural ones (block and
                             child counts, unknown children, unreachable
                             nodes), then empty domains, then each node's
                             own in preorder
      nonbinary              (leaf id, value) of the first outcome other
                             than 0 or 1 in preorder, or None
      winners[leaf]          int mask over agents: bit j set when agent j's
                             outcome at the leaf is 1

    Built by one walk over `preorder` on first read and then kept on the
    instance as a plain dict (many trees are never asked for them):
      depth[nid]             edges from the root
      domain_at[nid]         the current domains as tuples of types
      query_depth[nid]       per-agent query counts on the root..nid path,
                             counting nid itself when it is a query
      leaves_under[nid]      the leaves below nid in preorder
      shapes[nid]            an int naming nid's subtree: two nodes share
                             it exactly when their subtrees match, keyed
                             by (agent, block_masks[nid], the children's
                             shapes in order) for a query and by
                             (id(outcome), id(payment)) for a leaf, so
                             equal vectors in separate objects differ

    `commitments` starts empty: the verifier keeps its commitment sets
    there, one entry per horizon it tells apart.  `class_graphs` starts
    empty too: `cmon` keeps there, under (horizon, agent), the agent's
    profile-class partition and each class's target list, built once and
    read by the class graph, payment synthesis and `build_profile_classes`.
    """

    def __init__(self, agents: int, domains, root: int, nodes) -> None:
        self.agents = agents = as_integer(agents)
        if agents < 1:
            raise MechanismError("need at least one agent")
        # one normal form per distinct domain object (the builders hand
        # every agent the same one); the list keeps each object alive, so
        # no id is reused meanwhile
        domains, normal = list(domains), {}
        for dom in domains:
            if id(dom) not in normal:
                normal[id(dom)] = _normal_domain(dom)
        self.domains = tuple(normal[id(dom)][0] for dom in domains)
        # keyed by integer ratio: a Fraction hashes in Python code
        self.positions = tuple(normal[id(dom)][1] for dom in domains)
        if len(self.domains) != agents:
            raise MechanismError(f"{len(self.domains)} domains for {agents} agents")
        self.nodes: dict[int, QueryNode | LeafNode] = dict(nodes)
        nodes = self.nodes
        # a key, id or child must be an int: True and 1.0 hash as 1, so a
        # lookup would read them as node 1 (children are checked as the
        # walk reaches them, the rest only in a tree with defects)
        for nid, node in nodes.items():
            if type(nid) is not int:
                raise MechanismError(f"node key {nid!r} is not an int")
            if node.id != nid:
                raise MechanismError(f"node keyed {nid} carries id {node.id}")
            if type(node.id) is not int:
                raise MechanismError(f"node {nid} carries id {node.id!r}, not an int")
        self.root = as_integer(root)
        if self.root not in nodes:
            raise MechanismError(f"root {root} not among nodes")

        structural: list[str] = []
        # the leaves' problem texts and every query's id, in preorder
        checks: list[str | int] = []
        failed = False
        self.nonbinary: tuple[int, Rat] | None = None
        self.commitments: dict[int | float, dict[int, dict[int, int]]] = {}
        self.class_graphs: dict[tuple[int | float, int], tuple] = {}
        self.parent: dict[int, int | None] = {self.root: None}
        self.mask_at = {self.root: tuple((1 << len(d)) - 1 for d in self.domains)}
        self.block_masks: dict[int, tuple[int, ...]] = {}
        self.winners: dict[int, int] = {}
        self.preorder: list[int] = []
        self.leaf_ids: list[int] = []
        self.internal_ids: list[int] = []
        parent, mask_at, block_masks = self.parent, self.mask_at, self.block_masks
        preorder, leaf_ids = self.preorder, self.leaf_ids
        internal_ids, winners = self.internal_ids, self.winners
        # the facts of each distinct blocks tuple (per agent and own mask)
        # and of each distinct outcome vector, keyed by identity: every
        # keyed object stays alive in `nodes` meanwhile
        splits: dict[tuple, tuple] = {}
        outcomes: dict[int, tuple[int, Rat | None]] = {}

        stack = [self.root]
        while stack:
            nid = stack.pop()
            node = nodes[nid]
            preorder.append(nid)
            if isinstance(node, LeafNode):
                leaf_ids.append(nid)
                out = node.outcome
                if len(out) != agents:
                    checks.append(f"leaf {nid}: outcome length {len(out)}")
                if node.payment is not None and len(node.payment) != agents:
                    checks.append(f"leaf {nid}: payment length {len(node.payment)}")
                facts = outcomes.get(id(out))
                if facts is None:
                    facts = outcomes[id(out)] = _outcome_facts(out)
                winners[nid] = facts[0]
                if facts[1] is not None and self.nonbinary is None:
                    self.nonbinary = (nid, facts[1])
                continue
            j = node.agent
            if not 0 <= j < agents:
                raise MechanismError(f"node {nid} queries unknown agent {node.agent}")
            internal_ids.append(nid)
            masks, blocks = mask_at[nid], node.blocks
            key = (j, id(blocks), masks[j])
            facts = splits.get(key)
            if facts is None:
                facts = splits[key] = _split(self.positions[j], masks[j], blocks)
            bms, whole = facts
            block_masks[nid] = bms
            checks.append(nid)
            if not whole:
                failed = True
            if len(node.children) != len(blocks):
                structural.append(
                    f"node {nid}: {len(blocks)} blocks, "
                    f"{len(node.children)} children"
                )
            head, tail = masks[:j], masks[j + 1 :]
            for m, cid in reversed(list(zip(bms, node.children))):
                if type(cid) is not int:
                    raise MechanismError(f"node {nid}: child {cid!r} is not an int")
                if cid not in nodes:
                    structural.append(f"node {nid}: unknown child {cid}")
                    continue
                if cid in parent:
                    raise MechanismError(f"node {cid} is reached twice")
                parent[cid] = nid
                mask_at[cid] = head + (m,) + tail
                stack.append(cid)

        if len(preorder) < len(nodes):
            for nid in sorted(set(nodes) - set(preorder)):
                structural.append(f"node {nid} unreachable from root")
        if structural:  # children the walk did not reach
            for nid, node in nodes.items():
                if not isinstance(node, LeafNode):
                    for cid in node.children:
                        if type(cid) is not int:
                            raise MechanismError(
                                f"node {nid}: child {cid!r} is not an int"
                            )
        empty = [
            f"agent {i} has an empty domain"
            for i, dom in enumerate(self.domains)
            if not dom
        ]
        if failed:  # every query's problems against its written domain
            at = self.domain_at
            checks = [
                problem
                for c in checks
                for problem in (
                    [c]
                    if type(c) is str
                    else _block_problems(c, at[c][nodes[c].agent], nodes[c].blocks)
                )
            ]
        else:  # every query partitions its domain
            checks = [c for c in checks if type(c) is str]
        self.problems: tuple[str, ...] = tuple(structural + empty + checks)

    @cached_property
    def depth(self) -> dict[int, int]:
        depth: dict[int, int] = {}
        for nid, pid in self.parent.items():  # a parent before its children
            depth[nid] = 0 if pid is None else depth[pid] + 1
        return depth

    @cached_property
    def domain_at(self) -> dict[int, tuple[tuple[Rat, ...], ...]]:
        # below a query the queried agent's domain is the child's block,
        # sorted: a block with a foreign or repeated value (fewer bits than
        # values) as written, any other as the one tuple of its mask's types
        nodes = self.nodes
        domain_at = {self.root: self.domains}
        named = [{(1 << len(d)) - 1: d} for d in self.domains]
        for nid in self.internal_ids:
            node = nodes[nid]
            j, dom = node.agent, domain_at[nid]
            head, tail = dom[:j], dom[j + 1 :]
            bms = self.block_masks[nid]
            for blk, m, cid in reversed(list(zip(node.blocks, bms, node.children))):
                if cid not in nodes:
                    continue
                if len(blk) != m.bit_count():
                    mine = tuple(sorted(blk))
                else:
                    mine = named[j].get(m)
                    if mine is None:
                        mine = named[j][m] = tuple(sorted(blk))
                domain_at[cid] = head + (mine,) + tail
        return domain_at

    @cached_property
    def query_depth(self) -> dict[int, tuple[int, ...]]:
        nodes, parent = self.nodes, self.parent
        query_depth: dict[int, tuple[int, ...]] = {}
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # few distinct
        zero = (0,) * self.agents
        for nid in self.preorder:
            pid = parent[nid]
            base = zero if pid is None else query_depth[pid]
            node = nodes[nid]
            if isinstance(node, LeafNode):
                query_depth[nid] = base
            else:
                j = node.agent
                qd = base[:j] + (base[j] + 1,) + base[j + 1 :]
                query_depth[nid] = shared.setdefault(qd, qd)
        return query_depth

    @cached_property
    def leaves_under(self) -> dict[int, tuple[int, ...]]:
        nodes = self.nodes
        leaves_under: dict[int, tuple[int, ...]] = {}
        for nid in reversed(self.preorder):
            node = nodes[nid]
            if isinstance(node, LeafNode):
                leaves_under[nid] = (nid,)
            else:
                acc: list[int] = []
                for cid in node.children:
                    acc.extend(leaves_under.get(cid, ()))
                leaves_under[nid] = tuple(acc)
        return leaves_under

    @cached_property
    def shapes(self) -> dict[int, int]:
        nodes, block_masks = self.nodes, self.block_masks
        shapes: dict[int, int] = {}
        numbered: dict[tuple, int] = {}
        for nid in reversed(self.preorder):  # children before their parent
            node = nodes[nid]
            if isinstance(node, LeafNode):
                key = (id(node.outcome), id(node.payment))
            else:
                kids = tuple(map(shapes.get, node.children))
                key = (node.agent, block_masks[nid], kids)
            shapes[nid] = numbered.setdefault(key, len(numbered))
        return shapes

    def node(self, nid: int) -> QueryNode | LeafNode:
        """The node with id nid; MechanismError when the tree has none."""
        require_node(self, nid)
        return self.nodes[nid]

    def is_leaf(self, nid: int) -> bool:
        return isinstance(self.node(nid), LeafNode)

    def as_profile(self, values) -> tuple[Rat, ...]:
        """The profile's values as rationals, one per agent."""
        prof = []
        for i, v in enumerate(values):
            try:
                prof.append(parse_rational(v))
            except ValueError:
                raise MechanismError(f"agent {i}: not a rational: {v!r}") from None
        if len(prof) != self.agents:
            raise MechanismError(f"profile length {len(prof)} != {self.agents} agents")
        return tuple(prof)

    def route(self, nid: int, value: Rat) -> int:
        """Index of the block at nid containing value."""
        node = self.node(nid)
        if not isinstance(node, QueryNode):
            raise MechanismError(f"node {nid} is not a query node")
        for idx, blk in enumerate(node.blocks):
            if value in blk:
                return idx
        raise MechanismError(f"value {value} not in any block of node {nid}")

    def path_of(self, profile) -> tuple[int, ...]:
        """Node ids visited by a profile, root to leaf."""
        prof = self.as_profile(profile)
        for i, t in enumerate(prof):
            if t not in self.domains[i]:
                raise MechanismError(f"type {t} not in domain of agent {i}")
        path = []
        nid = self.root
        while True:
            path.append(nid)
            node = self.nodes[nid]
            if isinstance(node, LeafNode):
                return tuple(path)
            idx = self.route(nid, prof[node.agent])
            cid = node.children[idx]
            if cid not in self.parent:
                raise MechanismError(f"walk entered defective edge at node {nid}")
            nid = cid

    def leaf_of(self, profile) -> LeafNode:
        node = self.nodes[self.path_of(profile)[-1]]
        assert isinstance(node, LeafNode)
        return node

    def box_min(self, nid: int) -> tuple[Rat, ...]:
        """Coordinate-wise smallest profile available at nid."""
        require_node(self, nid)
        if nid not in self.parent:
            raise MechanismError(f"node {nid} unreachable from root")
        return tuple(d[0] for d in self.domain_at[nid])

    def __repr__(self) -> str:
        return (
            f"ImplementationTree(agents={self.agents}, "
            f"nodes={len(self.nodes)}, leaves={len(self.leaf_ids)})"
        )


def _normal_domain(values) -> tuple[tuple[Rat, ...], dict]:
    """The distinct values as rationals in ascending order, and each
    one's position keyed by its integer ratio.  A Fraction hashes and
    compares in Python code, so values are told apart by integer ratio
    and ordered as ints over their common denominator; of equal values
    the first is kept."""
    first: dict[tuple[int, int], Rat] = {}
    for v in map(parse_rational, values):
        first.setdefault(v.as_integer_ratio(), v)
    lcd = lcm(*(d for _, d in first))
    ratios = sorted(first, key=lambda r: r[0] * (lcd // r[1]))
    return tuple(map(first.__getitem__, ratios)), dict(zip(ratios, range(len(ratios))))


def _outcome_facts(outcome) -> tuple[int, Rat | None]:
    """The winners mask of an outcome vector and its first value other
    than 0 or 1 (None when it has none)."""
    won, other = 0, None
    for j, v in enumerate(outcome):
        ratio = v.as_integer_ratio()
        if ratio == _ONE:
            won |= 1 << j
        elif ratio != _ZERO and other is None:
            other = v
    return won, other


def _split(at: dict, own: int, blocks):
    """The masks of `blocks` over one agent's positions `at`, and whether
    they pass the mask test: two or more nonempty blocks holding as many
    values as `own` has bits, with masks adding up to `own`.  A foreign
    or repeated value, or a carry, would lose a bit, so passing blocks
    partition the types `own` names.  Once a query fails, a block may
    hold a foreign or repeated value, and a domain below it is not its
    mask's types: the tree checks every query against its written domain."""
    bms = []
    for blk in blocks:
        m = 0
        for v in blk:
            p = at.get(v.as_integer_ratio())  # None: foreign
            if p is not None:
                m |= 1 << p
        bms.append(m)
    whole = (
        len(bms) >= 2
        and all(blocks)
        and sum(map(len, blocks)) == own.bit_count()
        and sum(bms) == own
    )
    return tuple(bms), whole


def _block_problems(nid: int, dom, blocks) -> list[str]:
    """Why the blocks of query nid fail to partition its current domain
    `dom` into two or more nonempty parts, in block order."""
    problems = []
    if len(blocks) < 2:
        problems.append(f"node {nid}: fewer than two blocks")
    seen: set[Rat] = set()
    for blk in blocks:
        if not blk:
            problems.append(f"node {nid}: empty block")
        for v in blk:
            if v in seen:
                problems.append(f"node {nid}: value {v} in two blocks")
            seen.add(v)
            if v not in dom:
                problems.append(f"node {nid}: value {v} outside the current domain")
    missing = sorted(set(dom) - seen)
    if missing:
        shown = ", ".join(map(format_rational, missing))
        problems.append(f"node {nid}: domain values {shown} not covered")
    return problems


def validate_tree(tree: ImplementationTree) -> list[str]:
    """All semantic defects, empty when the tree is a valid mechanism."""
    return list(tree.problems)


def require_valid(tree: ImplementationTree) -> None:
    """Raise MechanismError naming the tree's first defect."""
    if tree.problems:
        raise MechanismError(f"malformed mechanism: {tree.problems[0]}")


def require_binary_outcomes(tree: ImplementationTree) -> None:
    """Raise MechanismError naming the first outcome other than 0 or 1."""
    if tree.nonbinary is not None:
        nid, v = tree.nonbinary
        raise MechanismError(
            f"leaf {nid} has non-binary outcome {v}; "
            "this analysis needs 0/1 outcomes"
        )


def require_agent(tree: ImplementationTree, agent) -> None:
    """Raise MechanismError unless agent is an int naming one of the
    tree's agents.  A bool or a float names none: indexing would read
    True as agent 1 and fail on 1.0."""
    if type(agent) is not int or not 0 <= agent < tree.agents:
        raise MechanismError(f"unknown agent {agent}")


def require_node(tree: ImplementationTree, nid) -> None:
    """Raise MechanismError unless nid is an int naming one of the
    tree's nodes.  A bool or a float names none: a dict lookup would
    read True and 1.0 as node 1."""
    if type(nid) is not int or nid not in tree.nodes:
        raise MechanismError(f"unknown node {nid}")


def query_count(tree: ImplementationTree, agent: int, leaf_id: int) -> int:
    """Number of queries to agent on the path from the root to leaf_id."""
    # the table first (it holds only reachable nodes); any other input
    # meets the checks below in their order
    if type(agent) is int and type(leaf_id) is int and 0 <= agent < tree.agents:
        depth = tree.query_depth.get(leaf_id)
        if depth is not None:
            return depth[agent]
    require_node(tree, leaf_id)
    depth = tree.query_depth.get(leaf_id)
    if depth is None:
        raise MechanismError(f"node {leaf_id} unreachable from root")
    require_agent(tree, agent)
    return depth[agent]


def k_step_neighborhood(tree: ImplementationTree, node_id: int, k):
    """Planning region of the agent queried at node_id, horizon k.

    Returns (covered, endpoints).  Walking down from node_id, a path's
    endpoint is the node of the k-th later query to the same agent, or
    its leaf when fewer remain; covered holds the nodes a k-step plan
    commits through (node_id itself excluded).  At k=0 the endpoints are
    the next same-agent queries (or leaves) and covered holds only the
    internal other-agent nodes before them.
    """
    require_valid(tree)
    k = normalize_horizon(k)
    node = tree.node(node_id)
    if not isinstance(node, QueryNode):
        raise MechanismError(f"node {node_id} is not a query node")
    i = node.agent
    covered: set[int] = set()
    endpoints: set[int] = set()

    # a path ends at a leaf or at its max(k, 1)-th later query to i; at
    # k=0 the plan commits through none of its endpoints
    stack = [(cid, 0) for cid in node.children]
    while stack:
        nid, seen = stack.pop()
        covered.add(nid)
        sub = tree.nodes[nid]
        if isinstance(sub, LeafNode):
            endpoints.add(nid)
            continue
        if sub.agent == i:
            seen += 1
            if seen == max(k, 1):
                endpoints.add(nid)
                continue
        stack.extend((cid, seen) for cid in sub.children)
    if k == 0:
        covered -= endpoints
    return frozenset(covered), frozenset(endpoints)


def bits(mask: int) -> list[int]:
    """The positions set in mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def types_of(tree: ImplementationTree, agent: int, mask: int) -> tuple[Rat, ...]:
    return tuple(tree.domains[agent][p] for p in bits(mask))


def parting_node(tree: ImplementationTree, x: int, y: int) -> int | None:
    """The query node where the walks ending at leaves x and y part: their
    lowest common ancestor.  None when x == y, as such walks never part."""
    if x == y:
        return None
    while tree.depth[x] > tree.depth[y]:
        x = tree.parent[x]
    while tree.depth[y] > tree.depth[x]:
        y = tree.parent[y]
    while x != y:
        x = tree.parent[x]
        y = tree.parent[y]
    return x


def equivalence_class(tree: ImplementationTree, node_id: int, profile, k):
    """Profiles the queried agent cannot distinguish from `profile` at
    node_id under a k-step plan, sorted: those whose walk first parts from
    the profile's strictly below every node the plan commits through (or
    never parts).  That is one node's box.  Above the first endpoint of
    `k_step_neighborhood` on the profile's walk lie only node_id and
    covered nodes, so at k=0 the class is that endpoint's box; at k >= 1
    the plan commits through a query endpoint too, so it is the box of
    the child the profile takes there."""
    k = normalize_horizon(k)
    node = tree.node(node_id)
    if not isinstance(node, QueryNode):
        raise MechanismError(f"node {node_id} is not a query node")
    prof = tree.as_profile(profile)
    require_valid(tree)
    if any(t not in dom for t, dom in zip(prof, tree.domain_at[node_id])):
        raise MechanismError(f"profile {prof} not available at node {node_id}")
    _, endpoints = k_step_neighborhood(tree, node_id, k)
    path = tree.path_of(prof)
    at = path.index(node_id) + 1
    while path[at] not in endpoints:
        at += 1
    if k and at + 1 < len(path):  # a query the plan commits through
        at += 1
    box = tree.domain_at[path[at]]
    scale_guard(prod(map(len, box)))
    # the product of ascending tuples comes out ascending
    return tuple(itertools.product(*box))


def tree_from_nested(agents: int, domains, nested) -> ImplementationTree:
    """Build a tree from nested tuples.

    A leaf is ("leaf", outcome_seq, payment_seq_or_None); a query is
    ("q", agent, [(block_values, subtree), ...]).  Ids are assigned in
    preorder.
    """
    nodes: dict[int, QueryNode | LeafNode] = {}
    root = _from_nested(nested, nodes, itertools.count())
    return ImplementationTree(agents, domains, root, nodes)


def _from_nested(spec, nodes: dict, counter) -> int:
    # the tree builders recurse through module-level functions: a closure
    # that calls itself holds its node dict in a reference cycle, which
    # only the cyclic gc frees
    nid = next(counter)
    tag = spec[0]
    if tag == "leaf":
        _, outcome, payment = spec
        pay = None
        if payment is not None:
            pay = tuple(parse_rational(v) for v in payment)
        nodes[nid] = LeafNode(nid, tuple(parse_rational(v) for v in outcome), pay)
        return nid
    if tag != "q":
        raise MechanismError(f"bad nested tag {tag!r}")
    _, agent, branches = spec
    blocks = []
    children = []
    for values, sub in branches:
        blocks.append(tuple(sorted(parse_rational(v) for v in values)))
        children.append(_from_nested(sub, nodes, counter))
    nodes[nid] = QueryNode(nid, agent, tuple(blocks), tuple(children))
    return nid


def random_k_limited_tree(
    rng: random.Random,
    agents: int,
    domains,
    k,
    with_payments: bool = False,
) -> ImplementationTree:
    """Random binary-outcome tree with at most k+1 queries per agent per
    path, hence k-limited.  Deterministic given the rng state."""
    k = normalize_horizon(k)
    budget0 = 10 ** 6 if k == inf else k + 1
    doms = tuple(tuple(sorted(parse_rational(v) for v in d)) for d in domains)
    nested = _random_nested(rng, doms, (budget0,) * agents, 0, with_payments)
    return tree_from_nested(agents, doms, nested)


def _random_nested(rng, dom_now, budgets, depth, with_payments):
    # module-level for the reason given at _from_nested
    agents = len(dom_now)
    eligible = [
        i for i in range(agents) if len(dom_now[i]) >= 2 and budgets[i] > 0
    ]
    stop = rng.random() < min(0.15 + 0.25 * depth, 0.95)
    if not eligible or stop:
        outcome = tuple(Fraction(rng.randint(0, 1)) for _ in range(agents))
        payment = None
        if with_payments:
            payment = tuple(Fraction(rng.randint(-3, 3)) for _ in range(agents))
        return ("leaf", outcome, payment)
    i = rng.choice(eligible)
    dom = list(dom_now[i])
    nblocks = rng.randint(2, min(3, len(dom)))
    labels = [idx % nblocks for idx in range(len(dom))]
    rng.shuffle(labels)
    groups: dict[int, list[Rat]] = {}
    for v, lab in zip(dom, labels):
        groups.setdefault(lab, []).append(v)
    blocks = sorted((tuple(sorted(g)) for g in groups.values()), key=min)
    branches = []
    for blk in blocks:
        sub_dom = list(dom_now)
        sub_dom[i] = blk
        sub_budget = list(budgets)
        sub_budget[i] -= 1
        sub = _random_nested(
            rng, tuple(sub_dom), tuple(sub_budget), depth + 1, with_payments
        )
        branches.append((blk, sub))
    return ("q", i, branches)
