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
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .rational import Rat, parse_rational

DEFAULT_SCALE_GUARD = 100_000


class MechanismError(ValueError):
    """Malformed mechanism, unavailable profile, or exceeded scale guard."""


def scale_guard(count: int, what: str = "profiles") -> None:
    """Refuse enumerations larger than OSPKIT_SCALE_GUARD (default 100000)."""
    limit = int(os.environ.get("OSPKIT_SCALE_GUARD", DEFAULT_SCALE_GUARD))
    if count > limit:
        raise MechanismError(
            f"enumeration of {count} {what} exceeds scale guard {limit}; "
            "raise OSPKIT_SCALE_GUARD to allow"
        )


def normalize_horizon(k) -> int | float:
    """Validate a commitment horizon: a non-negative int or math.inf."""
    if k == inf:
        return inf
    if isinstance(k, bool):
        raise MechanismError(f"bad horizon {k!r}")
    if isinstance(k, int) and k >= 0:
        return k
    if isinstance(k, float) and k.is_integer() and k >= 0:
        return int(k)
    raise MechanismError(f"bad horizon {k!r}: need a non-negative integer or inf")


@dataclass(frozen=True)
class QueryNode:
    id: int
    agent: int
    blocks: tuple[tuple[Rat, ...], ...]
    children: tuple[int, ...]

    @property
    def kind(self) -> str:
        return "query"


@dataclass(frozen=True)
class LeafNode:
    id: int
    outcome: tuple[Rat, ...]
    payment: tuple[Rat, ...] | None = None

    @property
    def kind(self) -> str:
        return "leaf"


class ImplementationTree:
    """Rooted query tree with precomputed per-node maps.

    Construction is tolerant: semantic defects (blocks that do not
    partition the current domain, wrong vector lengths, unreachable
    nodes) are recorded and reported by `validate_tree`.  Only shapes
    that cannot be traversed at all raise here: an unknown root, a child
    id reached twice, a node keyed under a different id.

    Precomputed, read-only after construction:
      parent, depth          per reachable node id
      domain_at[nid]         tuple of per-agent current domains
      query_depth[nid]       per-agent query counts on the root..nid path,
                             counting nid itself when it is a query
      preorder, leaf_ids, internal_ids, leaves_under
    """

    def __init__(self, agents: int, domains, root: int, nodes) -> None:
        self.agents = int(agents)
        if self.agents < 1:
            raise MechanismError("need at least one agent")
        self.domains = tuple(
            tuple(sorted({parse_rational(v) for v in dom})) for dom in domains
        )
        if len(self.domains) != self.agents:
            raise MechanismError(
                f"{len(self.domains)} domains for {self.agents} agents"
            )
        self.nodes: dict[int, QueryNode | LeafNode] = {}
        for nid, node in dict(nodes).items():
            if nid != node.id:
                raise MechanismError(f"node keyed {nid} carries id {node.id}")
            self.nodes[int(nid)] = node
        self.root = int(root)
        if self.root not in self.nodes:
            raise MechanismError(f"root {root} not among nodes")

        self._defects: list[str] = []
        self.parent: dict[int, int | None] = {self.root: None}
        self.depth: dict[int, int] = {self.root: 0}
        self.domain_at: dict[int, tuple[tuple[Rat, ...], ...]] = {
            self.root: self.domains
        }
        self.query_depth: dict[int, tuple[int, ...]] = {}
        self.preorder: list[int] = []
        self.leaf_ids: list[int] = []
        self.internal_ids: list[int] = []

        stack = [self.root]
        while stack:
            nid = stack.pop()
            node = self.nodes[nid]
            self.preorder.append(nid)
            pid = self.parent[nid]
            base = self.query_depth[pid] if pid is not None else (0,) * self.agents
            if isinstance(node, LeafNode):
                self.query_depth[nid] = base
                self.leaf_ids.append(nid)
                continue
            if not 0 <= node.agent < self.agents:
                raise MechanismError(f"node {nid} queries unknown agent {node.agent}")
            qd = list(base)
            qd[node.agent] += 1
            self.query_depth[nid] = tuple(qd)
            self.internal_ids.append(nid)
            dom = self.domain_at[nid]
            if len(node.children) != len(node.blocks):
                self._defects.append(
                    f"node {nid}: {len(node.blocks)} blocks, "
                    f"{len(node.children)} children"
                )
            pairs = list(zip(node.blocks, node.children))
            for blk, cid in reversed(pairs):
                if cid not in self.nodes:
                    self._defects.append(f"node {nid}: unknown child {cid}")
                    continue
                if cid in self.parent:
                    raise MechanismError(f"node {cid} is reached twice")
                self.parent[cid] = nid
                self.depth[cid] = self.depth[nid] + 1
                child_dom = list(dom)
                child_dom[node.agent] = tuple(sorted(blk))
                self.domain_at[cid] = tuple(child_dom)
                stack.append(cid)

        unreachable = sorted(set(self.nodes) - set(self.preorder))
        for nid in unreachable:
            self._defects.append(f"node {nid} unreachable from root")

        self.leaves_under: dict[int, tuple[int, ...]] = {}
        for nid in reversed(self.preorder):
            node = self.nodes[nid]
            if isinstance(node, LeafNode):
                self.leaves_under[nid] = (nid,)
            else:
                acc: list[int] = []
                for cid in node.children:
                    acc.extend(self.leaves_under.get(cid, ()))
                self.leaves_under[nid] = tuple(acc)

    def node(self, nid: int) -> QueryNode | LeafNode:
        return self.nodes[nid]

    def is_leaf(self, nid: int) -> bool:
        return isinstance(self.nodes[nid], LeafNode)

    def as_profile(self, values) -> tuple[Rat, ...]:
        prof = tuple(parse_rational(v) for v in values)
        if len(prof) != self.agents:
            raise MechanismError(f"profile length {len(prof)} != {self.agents} agents")
        return prof

    def route(self, nid: int, value: Rat) -> int:
        """Index of the block at nid containing value."""
        node = self.nodes[nid]
        assert isinstance(node, QueryNode)
        for idx, blk in enumerate(node.blocks):
            if value in blk:
                return idx
        raise MechanismError(
            f"value {value} not in any block of node {nid}"
        )

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

    def available_profiles(self, nid: int):
        """All profiles available at nid, in lexicographic order."""
        dom = self.domain_at[nid]
        count = 1
        for d in dom:
            count *= len(d)
        scale_guard(count)
        return itertools.product(*dom)

    def box_min(self, nid: int) -> tuple[Rat, ...]:
        """Coordinate-wise smallest profile available at nid."""
        return tuple(d[0] for d in self.domain_at[nid])

    def available_at(self, nid: int, profile) -> bool:
        dom = self.domain_at[nid]
        return all(t in d for t, d in zip(profile, dom))

    def __repr__(self) -> str:
        return (
            f"ImplementationTree(agents={self.agents}, "
            f"nodes={len(self.nodes)}, leaves={len(self.leaf_ids)})"
        )


def validate_tree(tree: ImplementationTree) -> list[str]:
    """All semantic defects, empty when the tree is a valid mechanism."""
    problems = list(tree._defects)
    for i, dom in enumerate(tree.domains):
        if not dom:
            problems.append(f"agent {i} has an empty domain")
    for nid in tree.preorder:
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            if len(node.outcome) != tree.agents:
                problems.append(f"leaf {nid}: outcome length {len(node.outcome)}")
            if node.payment is not None and len(node.payment) != tree.agents:
                problems.append(f"leaf {nid}: payment length {len(node.payment)}")
            continue
        dom = tree.domain_at[nid][node.agent]
        if len(node.blocks) < 2:
            problems.append(f"node {nid}: fewer than two blocks")
        seen: set[Rat] = set()
        for blk in node.blocks:
            if not blk:
                problems.append(f"node {nid}: empty block")
            for v in blk:
                if v in seen:
                    problems.append(f"node {nid}: value {v} in two blocks")
                seen.add(v)
                if v not in dom:
                    problems.append(
                        f"node {nid}: value {v} outside the current domain"
                    )
        if seen != set(dom):
            missing = sorted(set(dom) - seen)
            if missing:
                problems.append(
                    f"node {nid}: domain values {missing} not covered"
                )
    return problems


def require_valid(tree: ImplementationTree) -> None:
    """Raise MechanismError naming the first defect `validate_tree` finds."""
    problems = validate_tree(tree)
    if problems:
        raise MechanismError(f"malformed mechanism: {problems[0]}")


def leaf_of(tree: ImplementationTree, profile) -> LeafNode:
    return tree.leaf_of(profile)


def query_count(tree: ImplementationTree, agent: int, leaf_id: int) -> int:
    """Number of queries to agent on the path from the root to leaf_id."""
    if leaf_id not in tree.query_depth:
        raise MechanismError(f"unknown node {leaf_id}")
    return tree.query_depth[leaf_id][agent]


def k_step_neighborhood(tree: ImplementationTree, node_id: int, k):
    """Planning region of the agent queried at node_id, horizon k.

    Returns (covered, endpoints).  Walking down from node_id, a path's
    endpoint is the node of the k-th later query to the same agent, or
    its leaf when fewer remain; covered holds the nodes a k-step plan
    commits through (node_id itself excluded).  At k=0 the endpoints are
    the next same-agent queries (or leaves) and covered holds only the
    internal other-agent nodes before them.
    """
    k = normalize_horizon(k)
    node = tree.nodes[node_id]
    if not isinstance(node, QueryNode):
        raise MechanismError(f"node {node_id} is not a query node")
    i = node.agent
    covered: set[int] = set()
    endpoints: set[int] = set()

    if k == inf:
        stack = [cid for cid in node.children if cid in tree.parent]
        while stack:
            nid = stack.pop()
            covered.add(nid)
            sub = tree.nodes[nid]
            if isinstance(sub, LeafNode):
                endpoints.add(nid)
            else:
                stack.extend(cid for cid in sub.children if cid in tree.parent)
        return frozenset(covered), frozenset(endpoints)

    if k == 0:
        stack = [cid for cid in node.children if cid in tree.parent]
        while stack:
            nid = stack.pop()
            sub = tree.nodes[nid]
            if isinstance(sub, LeafNode) or sub.agent == i:
                endpoints.add(nid)
                continue
            covered.add(nid)
            stack.extend(cid for cid in sub.children if cid in tree.parent)
        return frozenset(covered), frozenset(endpoints)

    stack = [(cid, 0) for cid in node.children if cid in tree.parent]
    while stack:
        nid, seen = stack.pop()
        sub = tree.nodes[nid]
        if isinstance(sub, LeafNode):
            covered.add(nid)
            endpoints.add(nid)
            continue
        if sub.agent == i:
            here = seen + 1
            covered.add(nid)
            if here == k:
                endpoints.add(nid)
                continue
            stack.extend(
                (cid, here) for cid in sub.children if cid in tree.parent
            )
        else:
            covered.add(nid)
            stack.extend(
                (cid, seen) for cid in sub.children if cid in tree.parent
            )
    return frozenset(covered), frozenset(endpoints)


def equivalence_class(tree: ImplementationTree, node_id: int, profile, k):
    """Profiles the queried agent cannot distinguish from `profile` at
    node_id under a k-step plan.

    A candidate available at node_id belongs to the class when its walk
    first parts from the walk of `profile` strictly below every node the
    plan commits through (or never parts at all).  Returned sorted.
    """
    k = normalize_horizon(k)
    node = tree.nodes[node_id]
    if not isinstance(node, QueryNode):
        raise MechanismError(f"node {node_id} is not a query node")
    prof = tree.as_profile(profile)
    if not tree.available_at(node_id, prof):
        raise MechanismError(f"profile {prof} not available at node {node_id}")
    covered, _ = k_step_neighborhood(tree, node_id, k)
    forbidden = covered | {node_id}
    members = []
    for cand in tree.available_profiles(node_id):
        nid = node_id
        while True:
            cur = tree.nodes[nid]
            if isinstance(cur, LeafNode):
                members.append(cand)
                break
            ia = tree.route(nid, prof[cur.agent])
            ib = tree.route(nid, cand[cur.agent])
            if ia != ib:
                if nid not in forbidden:
                    members.append(cand)
                break
            nid = cur.children[ia]
    return tuple(sorted(members))


def first_divergence(tree: ImplementationTree, a, b):
    """Node id where the walks of profiles a and b part, None if never."""
    pa = tree.as_profile(a)
    pb = tree.as_profile(b)
    nid = tree.root
    while True:
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            return None
        ia = tree.route(nid, pa[node.agent])
        ib = tree.route(nid, pb[node.agent])
        if ia != ib:
            return nid
        nid = node.children[ia]


def tree_from_nested(agents: int, domains, nested) -> ImplementationTree:
    """Build a tree from nested tuples.

    A leaf is ("leaf", outcome_seq, payment_seq_or_None); a query is
    ("q", agent, [(block_values, subtree), ...]).  Ids are assigned in
    preorder.
    """
    nodes: dict[int, QueryNode | LeafNode] = {}
    counter = itertools.count()

    def build(spec) -> int:
        nid = next(counter)
        tag = spec[0]
        if tag == "leaf":
            _, outcome, payment = spec
            pay = None
            if payment is not None:
                pay = tuple(parse_rational(v) for v in payment)
            nodes[nid] = LeafNode(
                id=nid,
                outcome=tuple(parse_rational(v) for v in outcome),
                payment=pay,
            )
            return nid
        if tag != "q":
            raise MechanismError(f"bad nested tag {tag!r}")
        _, agent, branches = spec
        blocks = []
        children = []
        for values, sub in branches:
            blocks.append(tuple(sorted(parse_rational(v) for v in values)))
            children.append(build(sub))
        nodes[nid] = QueryNode(
            id=nid, agent=agent, blocks=tuple(blocks), children=tuple(children)
        )
        return nid

    root = build(nested)
    return ImplementationTree(agents, domains, root, nodes)


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

    def gen(dom_now, budgets, depth):
        eligible = [
            i for i in range(agents) if len(dom_now[i]) >= 2 and budgets[i] > 0
        ]
        stop = rng.random() < min(0.15 + 0.25 * depth, 0.95)
        if not eligible or stop:
            outcome = tuple(Fraction(rng.randint(0, 1)) for _ in range(agents))
            payment = None
            if with_payments:
                payment = tuple(
                    Fraction(rng.randint(-3, 3)) for _ in range(agents)
                )
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
            branches.append(
                (blk, gen(tuple(sub_dom), tuple(sub_budget), depth + 1))
            )
        return ("q", i, branches)

    nested = gen(doms, (budget0,) * agents, 0)
    return tree_from_nested(agents, doms, nested)
