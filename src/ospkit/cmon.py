"""Cycle monotonicity on profile classes.

For one agent and a commitment horizon k, profiles group into classes:
paths that query her at most k+1 times contribute their leaf's box as a
single class, and paths reaching a (k+2)-th query contribute up to four,
splitting her domain there into the effective types and the pooled rest,
then by her binary outcome; a class is held as its leaves' boxes.  The
split is read from that query's class (`verifier.query_class`), and a
tree over the agent's query budget is refused.
Payments exist for the tree exactly when the weighted graph over these
classes has no negative cycle; shortest path labels from an added
zero-source then price every leaf.

The graph never pairs profiles: at each query to the agent, every class
of a leaf under one child gains as targets the classes of the leaves
under the other children, and each class's target list is then made
distinct and ascending.  An edge's weight depends only on its source and
the target's outcome bit, so edges are read off these lists in sorted
(source, target) order, the order in which Bellman-Ford relaxes them and
which therefore fixes the negative-cycle witness.  Shortest paths run on
the weights scaled to integers by their least common denominator; labels
and cycle weights are mapped back to Fractions at the end.

The partition and the target lists are a pure function of the tree, the
horizon and the agent, so they are built once per (k, agent) and kept in
`tree.class_graphs` (`_class_graph`).  `build_k_osp_graph` weighs their
edges in Fractions; payment synthesis weighs the same edges in integers,
scaled by the lcd of the agent's types.

Outcomes must be binary throughout this module.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from math import inf, lcm, prod
from operator import sub

from .model import (
    ImplementationTree,
    LeafNode,
    MechanismError,
    QueryNode,
    Record,
    Verdict,
    _scale_limit,
    normalize_horizon,
    parting_node,
    require_agent,
    require_binary_outcomes,
    require_valid,
    scale_guard,
    types_of,
)
from .rational import Rat
from .verifier import _past_budget

SETTLED = "settled"
TAIL_EFFECTIVE = "tail_effective"
TAIL_NEUTRAL = "tail_neutral"


class ProfileClass(
    Record,
    namedtuple("ProfileClass", "agent anchor slice_kind bit boxes types"),
):
    """A class of the agent's profiles: the union of `boxes`, the
    disjoint `domain_at` boxes of its leaves in leaf preorder.  `types`
    are the agent's types some member holds, ascending.  `agent`,
    `anchor` (a node id) and `bit` (the agent's outcome bit) are ints and
    `slice_kind` a str."""

    __slots__ = ()

    @property
    def members(self) -> tuple[tuple[Rat, ...], ...]:
        """The class's profiles, sorted, listed anew on every read."""
        return tuple(sorted(p for box in self.boxes for p in itertools.product(*box)))


class ClassPartition(
    Record, namedtuple("ClassPartition", "agent horizon classes leaf_class")
):
    """The agent's `classes` (a tuple of `ProfileClass`) at `horizon`, and
    `leaf_class`, a dict from leaf id to the position of its class."""

    __slots__ = ()


class OspGraph(Record, namedtuple("OspGraph", "agent horizon vertices edges")):
    """The agent's class graph at `horizon`: `vertices` (a tuple of
    `ProfileClass`) and `edges` as (source, target, weight) triples."""

    __slots__ = ()


class NegativeCycleWitness(
    Record, namedtuple("NegativeCycleWitness", "agent cycle weight")
):
    """A negative `cycle` (a tuple of vertex positions) in the agent's
    class graph and its total `weight` (a Rat)."""

    __slots__ = ()


def build_profile_classes(
    tree: ImplementationTree, k, agent: int
) -> ClassPartition:
    """Partition all type profiles into the agent's classes at horizon k.

    Every profile lands in exactly one class, the one anchored at its own
    path's endpoint: its leaf when that path queries the agent at most
    k+1 times, else the node of the (k+2)-th query.  A leaf's box lies
    whole in one class, so one pass over the leaves builds them.  Refuses
    a tree that is not k-limited for the agent.  The partition returned
    is the one kept in `tree.class_graphs`, which the class graph and
    synthesis read too.
    """
    return _class_graph(tree, k, agent)[0]


def _partition(tree: ImplementationTree, k, agent: int) -> ClassPartition:
    """The agent's classes at normalized horizon k, for `_class_graph`,
    which checks the tree, horizon and agent; the walk refuses a query
    past the agent's budget as it meets one."""
    # a (k+2)-th query's effective side is read from its class, where the
    # allowed forms are stated: its only-effective top type, else its
    # only-effective bottom one, else none
    effective_at: dict[int, int] = {}
    anchor_of: dict[int, int] = {}  # leaf -> its (k+2)-th query, if any
    for u, qc, bust in _past_budget(tree, k, agent):
        if bust:
            raise MechanismError(f"tree is not k-limited (node {u}: {bust})")
        own, domain = tree.mask_at[u][agent], tree.domains[agent]
        top, bottom = own.bit_length() - 1, (own & -own).bit_length() - 1
        effective_at[u] = next(
            (1 << p for p in (top, bottom) if domain[p] in qc.only_types), 0
        )
        anchor_of.update(dict.fromkeys(tree.leaves_under[u], u))

    # (anchor, slice, bit) -> the class's leaves, in class order: an
    # anchor's leaves are consecutive, and the first one lays out its
    # classes, effective before pooled, bit 0 before bit 1
    keyed: dict[tuple, list[int]] = {}
    tail_masks: dict[tuple, int] = {}  # a tail class's types, as a mask
    for leaf in tree.leaf_ids:
        bit = tree.winners[leaf] >> agent & 1
        anchor = anchor_of.get(leaf)
        if anchor is None:
            keyed[leaf, SETTLED, bit] = [leaf]
            continue
        if leaf == tree.leaves_under[anchor][0]:
            for kind in (TAIL_EFFECTIVE, TAIL_NEUTRAL):
                keyed[anchor, kind, 0], keyed[anchor, kind, 1] = [], []
        own = tree.mask_at[leaf][agent]
        # an allowed form gives the effective type a block of its own, so
        # a leaf's types lie on one side
        kind = TAIL_EFFECTIVE if own & effective_at[anchor] else TAIL_NEUTRAL
        keyed[anchor, kind, bit].append(leaf)
        tail_masks[anchor, kind, bit] = tail_masks.get((anchor, kind, bit), 0) | own

    classes: list[ProfileClass] = []
    leaf_class: dict[int, int] = {}
    for key, leaves in keyed.items():
        if not leaves:
            continue
        leaf_class.update(dict.fromkeys(leaves, len(classes)))
        boxes = tuple(map(tree.domain_at.__getitem__, leaves))
        types = boxes[0][agent]  # a settled class has one box
        if key in tail_masks:
            types = types_of(tree, agent, tail_masks[key])
        classes.append(ProfileClass(agent, *key, boxes, types))

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
    part, targets = _class_graph(tree, k, agent)
    edges = tuple(_edges(part, targets, _weights(part, lambda t: t, Fraction(0))))
    return OspGraph(agent, part.horizon, part.classes, edges)


def _class_graph(tree: ImplementationTree, k, agent: int):
    """The agent's `ClassPartition` at horizon k and each class's target
    list (`_targets`), built on the first call for (k, agent) and kept in
    `tree.class_graphs`.  Every call checks the tree, the horizon, the
    agent and the scale guard once, the budget before the guard, so a
    lowered guard refuses a kept entry too and a refused build keeps
    nothing."""
    require_valid(tree)  # else leaf boxes need not split the profiles
    k = normalize_horizon(k)
    require_binary_outcomes(tree)
    require_agent(tree, agent)  # before the lookup: True hashes as 1
    kept = tree.class_graphs.get((k, agent))
    part = kept[0] if kept else _partition(tree, k, agent)
    scale_guard(prod(map(len, tree.domains)))
    if not kept:
        kept = tree.class_graphs[k, agent] = part, _targets(tree, part)
    return kept


def _weights(part: ClassPartition, scale, zero) -> list[tuple]:
    """weight[source][target bit], each type mapped through `scale`: an
    edge's weight depends only on its source and the target's bit."""
    return [
        (zero, scale(v.types[0])) if v.bit == 0 else (-scale(v.types[-1]), zero)
        for v in part.classes
    ]


def _targets(tree: ImplementationTree, part: ClassPartition) -> list[list[int]]:
    """The targets of each class's edges, ascending: at a query to the
    agent, the classes under one child join those under every other."""
    leaf_class = part.leaf_class.__getitem__
    nodes, under, agent = tree.nodes, tree.leaves_under, part.agent
    out: list[list[int]] = [[] for _ in part.classes]
    for nid in tree.internal_ids:
        node = nodes[nid]
        if node.agent != agent:
            continue
        sides = [dict.fromkeys(map(leaf_class, under[cid])) for cid in node.children]
        for pos, sa in enumerate(sides):
            for sb in sides[pos + 1 :]:
                for a in sa:
                    out[a].extend(sb)
                for b in sb:
                    out[b].extend(sa)
    return [sorted({*targets} - {a}) for a, targets in enumerate(out)]


def _edges(part: ClassPartition, targets: list[list[int]], weight) -> list:
    """The class graph's edges in sorted (source, target) order, from the
    `_targets` lists; an edge a -> b weighs weight[a][bit of b]."""
    bit = [v.bit for v in part.classes]
    return [
        (a, b, w[bit[b]])
        for a, (w, ends) in enumerate(zip(weight, targets))
        for b in ends
    ]


def _bellman(graph: OspGraph):
    """Shortest path labels from an implicit zero-source; on a negative
    cycle returns (None, witness).

    Relaxation runs on the weights scaled by the least common denominator,
    all integers; a positive scale changes no comparison, so the labels,
    predecessors and witness are those of the rational run."""
    # edges share their weight objects, one per source class and target
    # bit, so each object is scaled once; keying by identity avoids
    # hashing a Fraction per edge
    distinct = {id(w): w for _, _, w in graph.edges}
    lcd = lcm(*(w.denominator for w in distinct.values()))
    scaled = {
        key: w.numerator * (lcd // w.denominator) for key, w in distinct.items()
    }
    edges = [(a, b, scaled[id(w)]) for a, b, w in graph.edges]
    return _relax(graph.agent, len(graph.vertices), edges, lcd)


def _relax(agent: int, n: int, edges, lcd: int):
    """Bellman-Ford over n vertices on int edges in list order, the weights
    scaled by lcd: (labels, None) or (None, witness), as `_bellman`.

    At most n rounds run, and a round that lowers no label returns the
    labels.  The witness is the loop met by walking `pred` back from the
    last vertex lowered in round n.  After a round that lowers labels, if
    the two ends of every edge fell by the same amount in it, the loop
    stops: the fall is one constant per connected component, so the next
    round meets each comparison with that constant off both sides and
    lowers the same labels through the same edges, as does every round
    after it.  So `pred`, `via` and `last` already hold round n's values,
    and labels that fall forever mean a negative cycle."""
    if n == 0:
        return [], None
    dist = [0] * n
    pred: list[int | None] = [None] * n
    via = [0] * n  # the weight of the edge pred[b] -> b that lowered b
    last = None
    for _ in range(n):
        before = dist[:]
        changed = False
        for a, b, w in edges:
            cand = dist[a] + w
            if cand < dist[b]:
                dist[b] = cand
                pred[b] = a
                via[b] = w
                changed = True
                last = b
        if not changed:
            return [Fraction(d, lcd) for d in dist], None
        fall = list(map(sub, before, dist))
        if all(fall[a] == fall[b] for a, b, _ in edges):
            break

    # A cycle exists; walk predecessors until one closes on itself.  It
    # does: a walk from `last`, lowered in round n (or as round n would
    # lower it, after the stop), back to a vertex never lowered would have
    # at most n-1 edges, and round n-1 priced it already.
    x = last
    seen: dict[int, int] = {}
    order: list[int] = []
    while x not in seen:
        seen[x] = len(order)
        order.append(x)
        x = pred[x]
    cycle = tuple(reversed(order[seen[x] :]))
    total = sum(via[b] for b in cycle)
    assert total < 0, "backtracked cycle must be negative"
    return None, NegativeCycleWitness(
        agent=agent, cycle=cycle, weight=Fraction(total, lcd)
    )


def has_negative_cycle(graph: OspGraph) -> NegativeCycleWitness | None:
    """A negative cycle of the class graph, or None when it has none.

    Bellman-Ford from an implicit zero-source relaxes the edges in their
    sorted (source, target) order, n rounds at most for n vertices.  It
    stops early after a round that lowers no label, and after a round
    whose fall is equal at both ends of every edge, since every later
    round repeats that one (`_relax`).  The witness is what round n
    leaves: the predecessors are walked back from the last vertex lowered
    in round n until one is reached twice.  The cycle is that loop in
    edge direction, ending at the vertex reached twice; its weight is the
    sum of the weights of the edges that last lowered its vertices."""
    _, witness = _bellman(graph)
    return witness


class SynthesisResult(Verdict, namedtuple("SynthesisResult", "ok tree failures")):
    """The priced `tree` when payments exist, else None and the
    `failures` (a tuple of `NegativeCycleWitness`)."""

    __slots__ = ()


def synthesize_payments(tree: ImplementationTree, k) -> SynthesisResult:
    """Price every leaf so the tree passes the k-step check, when cycle
    monotonicity allows it.  The input must be a valid k-limited tree
    with binary outcomes and is never modified; on failure the negative cycles are
    returned instead of a tree."""
    k = normalize_horizon(k)
    require_valid(tree)
    # the budget is checked agent by agent in _class_graph
    per_agent_payment: dict[int, dict[int, Rat]] = {}
    failures = []
    for agent in range(tree.agents):
        part, targets = _class_graph(tree, k, agent)
        # the class graph on ints: every type is one of the agent's, so
        # their lcd scales each class's weights to ints, once per class
        lcd = lcm(*(t.denominator for t in tree.domains[agent]))
        weight = _weights(part, lambda t: t.numerator * (lcd // t.denominator), 0)
        edges = _edges(part, targets, weight)
        dist, witness = _relax(agent, len(part.classes), edges, lcd)
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
            nodes[nid] = LeafNode(nid, node.outcome, payment)
        else:
            nodes[nid] = node
    priced = ImplementationTree(tree.agents, tree.domains, tree.root, nodes)
    return SynthesisResult(True, priced, ())


class StickyResult(Verdict, namedtuple("StickyResult", "ok witness")):
    """Verdict of `sticky_edges_check`; `witness` is (agent, class_a,
    class_b, x, y, expected, got) or None, x and y the `box_min` profiles
    of the first failing leaf pair."""

    __slots__ = ()


def sticky_edges_check(tree: ImplementationTree, k) -> StickyResult:
    """On k-limited trees, any two classes joined by an edge are split in
    one piece: every member pair parts at one and the same query node to
    the agent.  Returns the first counterexample otherwise; a tree over
    budget is refused.

    All profiles of two leaves part where the leaves part (`parting_node`),
    so an edge is decided on its classes' leaf pairs, in leaf order."""
    k = normalize_horizon(k)
    limit = _scale_limit()  # read once, not once per edge
    for agent in range(tree.agents):
        part, targets = _class_graph(tree, k, agent)
        leaves: list[list[int]] = [[] for _ in part.classes]
        for leaf, pos in part.leaf_class.items():  # each class's in order
            leaves[pos].append(leaf)
        edges = [(a, b) for a, ends in enumerate(targets) for b in ends if a < b]
        for ca, cb in edges:
            pairs = len(leaves[ca]) * len(leaves[cb])
            if pairs > limit:
                scale_guard(pairs, "leaf pairs")
            shared = None
            # the classes are disjoint, so the walks to x and y part
            for x, y in itertools.product(leaves[ca], leaves[cb]):
                where = parting_node(tree, x, y)
                if tree.nodes[where].agent != agent or shared not in (None, where):
                    xy = tree.box_min(x), tree.box_min(y)
                    return StickyResult(False, (agent, ca, cb, *xy, shared, where))
                shared = where
    return StickyResult(True, None)


class EquivalenceReport(Record, namedtuple("EquivalenceReport", "agree details")):
    """Whether the verdicts `agree`; `details` holds (agent, cycle_at_k,
    cycle_at_inf) per agent."""

    __slots__ = ()


def k_vs_infinity_equivalence(tree: ImplementationTree, k) -> EquivalenceReport:
    """Compare negative-cycle verdicts of the horizon-k class graph and
    the unbounded one, agent by agent.  On k-limited trees the verdicts
    provably coincide; a tree over budget is refused."""
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
