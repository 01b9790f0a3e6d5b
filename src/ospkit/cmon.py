"""Cycle monotonicity on profile classes.

For one agent and a commitment horizon k, profiles group into classes:
paths that query her at most k+1 times contribute their leaf's box as a
single class, and paths reaching a (k+2)-th query contribute up to four,
splitting her domain there into the effective types and the pooled rest,
then by her binary outcome.  Payments exist for the tree exactly when
the weighted graph over these classes has no negative cycle; shortest
path labels from an added zero-source then price every leaf.

The graph never pairs profiles: the edges at a query to the agent join
the classes of the leaves under one child with those of the leaves under
another.  Shortest paths run on the weights scaled to integers by their
least common denominator; labels and cycle weights are mapped back to
Fractions at the end.

Outcomes must be binary throughout this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import inf, lcm

from .model import (
    ImplementationTree,
    LeafNode,
    MechanismError,
    QueryNode,
    first_divergence,
    normalize_horizon,
    require_valid,
    scale_guard,
)
from .rational import Rat
from .verifier import classify_query, is_k_limited, require_binary_outcomes

SETTLED = "settled"
TAIL_EFFECTIVE = "tail_effective"
TAIL_NEUTRAL = "tail_neutral"


@dataclass(frozen=True)
class ProfileClass:
    agent: int
    anchor: int
    slice_kind: str
    bit: int
    members: tuple[tuple[Rat, ...], ...]
    types: tuple[Rat, ...]


@dataclass(frozen=True)
class ClassPartition:
    agent: int
    horizon: object
    classes: tuple[ProfileClass, ...]
    leaf_class: dict


@dataclass(frozen=True)
class OspGraph:
    agent: int
    horizon: object
    vertices: tuple[ProfileClass, ...]
    edges: tuple[tuple[int, int, Rat], ...]


@dataclass(frozen=True)
class NegativeCycleWitness:
    agent: int
    cycle: tuple[int, ...]
    weight: Rat


def _bit_below(tree: ImplementationTree, nid: int, prof, agent: int) -> int:
    """The agent's outcome bit at the leaf that prof reaches from nid."""
    node = tree.nodes[nid]
    while not isinstance(node, LeafNode):
        node = tree.nodes[node.children[tree.route(node.id, prof[node.agent])]]
    return int(node.outcome[agent])


def _tail_split(tree: ImplementationTree, u: int, agent: int):
    """Split the domain at a (k+2)-th query into effective and pooled
    types: the pooled side is the largest group of types with pointwise
    identical outcomes, ties resolved by the only-extreme form."""
    own = tree.domain_at[u][agent]
    box = list(tree.domain_at[u])
    sig: dict[tuple, list[Rat]] = {}
    for t in own:
        box[agent] = (t,)
        key = tuple(
            _bit_below(tree, u, prof, agent) for prof in itertools.product(*box)
        )
        sig.setdefault(key, []).append(t)
    groups = sorted(sig.values(), key=lambda g: (-len(g), g[0]))
    if len(groups) == 1:
        return (), tuple(own)
    if len(groups[0]) > len(groups[1]):
        pooled = set(groups[0])
        return tuple(v for v in own if v not in pooled), tuple(groups[0])
    qc = classify_query(tree, u)
    if (len(own) == 2 or qc.is_prefix) and own[-1] in qc.only_types:
        return (own[-1],), tuple(own[:-1])
    if qc.is_suffix and own[0] in qc.only_types:
        return (own[0],), tuple(own[1:])
    raise MechanismError(
        f"ambiguous effective/pooled split at node {u} for agent {agent}"
    )


def build_profile_classes(
    tree: ImplementationTree, k, agent: int
) -> ClassPartition:
    """Partition all type profiles into the agent's classes at horizon k.

    Every profile lands in exactly one class, the one anchored at its own
    path's endpoint: its leaf when that path queries the agent at most
    k+1 times, else the node of the (k+2)-th query.
    """
    k = normalize_horizon(k)
    require_binary_outcomes(tree)
    count = 1
    for d in tree.domains:
        count *= len(d)
    scale_guard(count)

    # members come out sorted: each is a product of sorted coordinates
    keyed: dict[tuple, tuple] = {}
    order: list[tuple] = []
    tail_sides: dict[int, tuple] = {}
    anchor_of: dict[int, int] = {}  # leaf -> its (k+2)-th query, if any

    for nid in tree.preorder:
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            if k != inf and tree.query_depth[nid][agent] > k + 1:
                continue
            box = tree.domain_at[nid]
            key = (nid, SETTLED, int(node.outcome[agent]))
            keyed[key] = (tuple(itertools.product(*box)), box[agent])
            order.append(key)
            continue
        if k == inf or node.agent != agent:
            continue
        if tree.query_depth[nid][agent] != k + 2:
            continue
        effective, pooled = _tail_split(tree, nid, agent)
        tail_sides[nid] = (frozenset(effective), frozenset(pooled))
        anchor_of.update(dict.fromkeys(tree.leaves_under[nid], nid))
        box = list(tree.domain_at[nid])
        for kind, side in (
            (TAIL_EFFECTIVE, effective),
            (TAIL_NEUTRAL, pooled),
        ):
            buckets: dict[int, list[tuple[Rat, ...]]] = {0: [], 1: []}
            box[agent] = side
            for prof in itertools.product(*box):
                buckets[_bit_below(tree, nid, prof, agent)].append(prof)
            for bit in (0, 1):
                if buckets[bit]:
                    key = (nid, kind, bit)
                    members = tuple(buckets[bit])
                    types = tuple(sorted({m[agent] for m in members}))
                    keyed[key] = (members, types)
                    order.append(key)

    classes = []
    index: dict[tuple, int] = {}
    for key in order:
        nid, kind, bit = key
        members, types = keyed[key]
        index[key] = len(classes)
        classes.append(
            ProfileClass(
                agent=agent,
                anchor=nid,
                slice_kind=kind,
                bit=bit,
                members=members,
                types=types,
            )
        )

    leaf_class: dict[int, int] = {}
    for leaf in tree.leaf_ids:
        anchor = anchor_of.get(leaf)
        bit = int(tree.nodes[leaf].outcome[agent])
        if anchor is None:
            leaf_class[leaf] = index[(leaf, SETTLED, bit)]
            continue
        effective, pooled = tail_sides[anchor]
        own = set(tree.domain_at[leaf][agent])
        if own <= effective:
            kind = TAIL_EFFECTIVE
        elif own <= pooled:
            kind = TAIL_NEUTRAL
        else:
            raise MechanismError(
                f"leaf {leaf} spans both sides of the split at {anchor}; "
                "the tree is not k-limited"
            )
        leaf_class[leaf] = index[(anchor, kind, bit)]

    return ClassPartition(
        agent=agent, horizon=k, classes=tuple(classes), leaf_class=leaf_class
    )


def build_k_osp_graph(tree: ImplementationTree, k, agent: int) -> OspGraph:
    """Weighted class graph for one agent.

    An edge joins two classes holding profiles separated at a query to
    the agent.  Every profile reaching a child of such a query ends at a
    leaf below that child, and every leaf there is reached, so the edges
    at one query are all pairs of distinct leaf classes under two
    different children.  Its weight is the smallest product of a member
    type of the source with the outcome difference, so a worse outcome
    prices at the largest type and a better one at the smallest.
    """
    # leaf boxes split the profiles, as the class graph assumes, only
    # when the blocks partition every domain
    require_valid(tree)
    return _class_graph(tree, build_profile_classes(tree, k, agent))


def _class_graph(tree: ImplementationTree, part: ClassPartition) -> OspGraph:
    # an edge's weight depends only on its source and the target's bit:
    # weight[source][target bit]
    zero = Fraction(0)
    weight = [
        (zero, v.types[0]) if v.bit == 0 else (-v.types[-1], zero)
        for v in part.classes
    ]
    exists: set[tuple[int, int]] = set()
    for nid in tree.internal_ids:
        node = tree.nodes[nid]
        if node.agent != part.agent:
            continue
        sides = [
            {part.leaf_class[leaf] for leaf in tree.leaves_under[cid]}
            for cid in node.children
        ]
        for pos, sa in enumerate(sides):
            for sb in sides[pos + 1 :]:
                exists.update(itertools.product(sa, sb))
                exists.update(itertools.product(sb, sa))

    classes = part.classes
    edges = tuple(
        (ca, cb, weight[ca][classes[cb].bit])
        for ca, cb in sorted(exists)
        if ca != cb
    )
    return OspGraph(part.agent, part.horizon, classes, edges)


def _bellman(graph: OspGraph):
    """Shortest path labels from an implicit zero-source; on a negative
    cycle returns (None, witness).

    Relaxation runs on the weights scaled by the least common denominator,
    all integers; a positive scale changes no comparison, so the labels,
    predecessors and witness are those of the rational run."""
    n = len(graph.vertices)
    if n == 0:
        return [], None
    lcd = 1
    for _, _, w in graph.edges:
        lcd = lcm(lcd, w.denominator)
    edges = [
        (a, b, w.numerator * (lcd // w.denominator)) for a, b, w in graph.edges
    ]
    dist = [0] * n
    pred: list[int | None] = [None] * n
    last = None

    def relax_round():
        nonlocal last
        changed = False
        for a, b, w in edges:
            cand = dist[a] + w
            if cand < dist[b]:
                dist[b] = cand
                pred[b] = a
                changed = True
                last = b
        return changed

    for _ in range(n):
        if not relax_round():
            return [Fraction(d, lcd) for d in dist], None

    # A cycle exists; walk predecessors until one closes on itself,
    # relaxing further if the chain still ends at an untouched vertex.
    weight_of = {(a, b): w for a, b, w in edges}
    for _ in range(n + 1):
        x = last
        seen: dict[int, int] = {}
        order: list[int] = []
        while x is not None and x not in seen:
            seen[x] = len(order)
            order.append(x)
            x = pred[x]
        if x is not None:
            back = order[seen[x] :]
            cycle = tuple(reversed(back))
            total = 0
            for pos, a in enumerate(cycle):
                b = cycle[(pos + 1) % len(cycle)]
                total += weight_of[(a, b)]
            assert total < 0, "backtracked cycle must be negative"
            return None, NegativeCycleWitness(
                agent=graph.agent, cycle=cycle, weight=Fraction(total, lcd)
            )
        relax_round()
    raise AssertionError("failed to close a negative cycle")


def has_negative_cycle(graph: OspGraph) -> NegativeCycleWitness | None:
    _, witness = _bellman(graph)
    return witness


@dataclass(frozen=True)
class SynthesisResult:
    ok: bool
    tree: ImplementationTree | None
    failures: tuple[NegativeCycleWitness, ...]

    def __bool__(self) -> bool:
        return self.ok


def synthesize_payments(tree: ImplementationTree, k) -> SynthesisResult:
    """Price every leaf so the tree passes the k-step check, when cycle
    monotonicity allows it.  The input must be a valid k-limited tree
    with binary outcomes and is never modified; on failure the negative cycles are
    returned instead of a tree."""
    k = normalize_horizon(k)
    require_valid(tree)
    limited = is_k_limited(tree, k)
    if not limited.ok:
        raise MechanismError(
            f"tree is not k-limited (node {limited.witness}: {limited.reason})"
        )
    per_agent_payment: dict[int, dict[int, Rat]] = {}
    failures = []
    for agent in range(tree.agents):
        part = build_profile_classes(tree, k, agent)
        graph = _class_graph(tree, part)
        dist, witness = _bellman(graph)
        if witness is not None:
            failures.append(witness)
            continue
        per_agent_payment[agent] = {
            leaf: dist[part.leaf_class[leaf]] for leaf in tree.leaf_ids
        }
    if failures:
        return SynthesisResult(False, None, tuple(failures))

    nodes: dict[int, QueryNode | LeafNode] = {}
    for nid, node in tree.nodes.items():
        if isinstance(node, LeafNode):
            payment = tuple(
                per_agent_payment[i][nid] for i in range(tree.agents)
            )
            nodes[nid] = LeafNode(id=nid, outcome=node.outcome, payment=payment)
        else:
            nodes[nid] = node
    priced = ImplementationTree(tree.agents, tree.domains, tree.root, nodes)
    return SynthesisResult(True, priced, ())


@dataclass(frozen=True)
class StickyResult:
    ok: bool
    witness: tuple | None  # (agent, class_a, class_b, x, y, expected, got)

    def __bool__(self) -> bool:
        return self.ok


def sticky_edges_check(tree: ImplementationTree, k) -> StickyResult:
    """On k-limited trees, any two classes joined by an edge are split in
    one piece: every member pair parts at one and the same query node.
    Returns the first counterexample otherwise."""
    k = normalize_horizon(k)
    for agent in range(tree.agents):
        graph = build_k_osp_graph(tree, k, agent)
        for ca, cb, _ in graph.edges:
            if ca > cb:
                continue
            va = graph.vertices[ca]
            vb = graph.vertices[cb]
            scale_guard(len(va.members) * len(vb.members), "member pairs")
            shared = None
            for x in va.members:
                for y in vb.members:
                    where = first_divergence(tree, x, y)
                    if where is None or tree.nodes[where].agent != agent:
                        return StickyResult(
                            False, (agent, ca, cb, x, y, shared, where)
                        )
                    if shared is None:
                        shared = where
                    elif where != shared:
                        return StickyResult(
                            False, (agent, ca, cb, x, y, shared, where)
                        )
    return StickyResult(True, None)


@dataclass(frozen=True)
class EquivalenceReport:
    agree: bool
    details: tuple[tuple[int, bool, bool], ...]  # (agent, cycle_at_k, cycle_at_inf)


def k_vs_infinity_equivalence(tree: ImplementationTree, k) -> EquivalenceReport:
    """Compare negative-cycle verdicts of the horizon-k class graph and
    the unbounded one, agent by agent.  On k-limited trees the verdicts
    provably coincide; the report shows both sides either way."""
    k = normalize_horizon(k)
    details = []
    agree = True
    for agent in range(tree.agents):
        wk = has_negative_cycle(build_k_osp_graph(tree, k, agent))
        wi = has_negative_cycle(build_k_osp_graph(tree, inf, agent))
        details.append((agent, wk is not None, wi is not None))
        if (wk is None) != (wi is None):
            agree = False
    return EquivalenceReport(agree=agree, details=tuple(details))
