"""Two-way greedy mechanisms over downward-closed set systems.

Ground sets are {0..n-1} and weights are valuations (larger is better).
Trees handed to the verifier follow the cost convention instead;
``as_cost_tree`` owns that sign boundary and is an involution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .model import (
    ImplementationTree,
    LeafNode,
    MechanismError,
    QueryNode,
    normalize_horizon,
    profile_leaves,
    scale_guard,
    split_box,
    tree_from_nested,
)
from .rational import Rat, parse_rational
from .verifier import (
    _value_table,
    is_k_limited,
    query_class,
    require_binary_outcomes,
)


class PSystem:
    """Downward-closed feasibility system with a cached oracle.

    The oracle is a predicate over frozensets; maximal sets are
    enumerated once (desk scale only) and reused everywhere.
    """

    def __init__(self, ground_size: int, feasible, name: str = "custom"):
        if ground_size < 1:
            raise MechanismError("ground set must be nonempty")
        self.ground_size = int(ground_size)
        self.name = name
        self._oracle = feasible
        self._cache: dict[frozenset, bool] = {frozenset(): True}
        self._maximal: tuple[frozenset, ...] | None = None

    def feasible(self, subset) -> bool:
        s = frozenset(subset)
        if not all(0 <= e < self.ground_size for e in s):
            raise MechanismError(f"element outside ground set in {sorted(s)}")
        if s not in self._cache:
            self._cache[s] = bool(self._oracle(s))
        return self._cache[s]

    def maximal_sets(self) -> tuple[frozenset, ...]:
        if self._maximal is None:
            n = self.ground_size
            scale_guard(2**n, "feasibility enumeration")
            feas = []
            for bits in range(2**n):
                s = frozenset(i for i in range(n) if bits >> i & 1)
                if self.feasible(s):
                    feas.append(s)
            out = [
                s
                for s in feas
                if all(
                    not self.feasible(s | {e})
                    for e in range(n)
                    if e not in s
                )
            ]
            out.sort(key=lambda s: tuple(sorted(s)))
            self._maximal = tuple(out)
        return self._maximal

    def validate(self) -> None:
        """Full downward-closure check (exponential; desk scale)."""
        n = self.ground_size
        scale_guard(2**n, "closure check")
        if not self.feasible(frozenset()):
            raise MechanismError("the empty set must be feasible")
        for bits in range(2**n):
            s = frozenset(i for i in range(n) if bits >> i & 1)
            if not self.feasible(s):
                continue
            for e in s:
                if not self.feasible(s - {e}):
                    raise MechanismError(
                        f"not downward closed: {sorted(s)} is feasible "
                        f"but {sorted(s - {e})} is not"
                    )

    @classmethod
    def single_item(cls, n: int) -> "PSystem":
        return cls(n, lambda s: len(s) <= 1, name="single_item")

    @classmethod
    def uniform(cls, n: int, rank: int) -> "PSystem":
        r = int(rank)
        if r < 0:
            raise MechanismError("rank must be nonnegative")
        return cls(n, lambda s: len(s) <= r, name=f"uniform_{r}")

    @classmethod
    def graphic(cls, edges) -> "PSystem":
        edge_list = [(int(u), int(v)) for u, v in edges]
        if not edge_list:
            raise MechanismError("graphic system needs at least one edge")

        def acyclic(subset: frozenset) -> bool:
            parent: dict[int, int] = {}

            def find(x: int) -> int:
                while parent.setdefault(x, x) != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for e in subset:
                u, v = edge_list[e]
                ru, rv = find(u), find(v)
                if ru == rv:
                    return False
                parent[ru] = rv
            return True

        ps = cls(len(edge_list), acyclic, name="graphic")
        ps.edges = tuple(edge_list)
        return ps

    @classmethod
    def explicit(cls, n: int, maximal_sets) -> "PSystem":
        tops = [frozenset(int(e) for e in s) for s in maximal_sets]
        for t in tops:
            if not all(0 <= e < n for e in t):
                raise MechanismError(f"element outside ground set in {sorted(t)}")
        if not tops:
            tops = [frozenset()]
        return cls(n, lambda s: any(s <= t for t in tops), name="explicit")


def rank_quotient(ps: PSystem) -> Fraction:
    """Minimum over subsets of (smallest / largest maximal-within size).

    This is the classical guarantee for greedy on independence systems;
    it equals 1 exactly on matroids.
    """
    n = ps.ground_size
    scale_guard(3**n, "rank enumeration")
    best: Fraction | None = None
    for bits in range(1, 2**n):
        sub = frozenset(i for i in range(n) if bits >> i & 1)
        sizes = [len(t) for t in _maximal_within(ps, sub)]
        upper = max(sizes)
        if upper == 0:
            continue
        q = Fraction(min(sizes), upper)
        if best is None or q < best:
            best = q
    return best if best is not None else Fraction(1)


def _maximal_within(ps: PSystem, sub: frozenset) -> list[frozenset]:
    elems = sorted(sub)
    out = []
    for bits in range(2 ** len(elems)):
        t = frozenset(e for j, e in enumerate(elems) if bits >> j & 1)
        if ps.feasible(t) and all(
            not ps.feasible(t | {e}) for e in sub - t
        ):
            out.append(t)
    return out


def surviving_solutions(ps: PSystem, chosen, excluded) -> tuple[frozenset, ...]:
    """Maximal feasible sets containing ``chosen`` and avoiding ``excluded``."""
    chosen = frozenset(chosen)
    excluded = frozenset(excluded)
    keep = [
        t
        for t in ps.maximal_sets()
        if chosen <= t and not (t & excluded)
    ]
    if not keep:
        raise MechanismError(
            "no maximal feasible set is consistent with the current state"
        )
    return tuple(keep)


def unremovable(ps: PSystem, chosen, excluded) -> frozenset:
    """Elements outside the current state that appear in every survivor."""
    keep = surviving_solutions(ps, chosen, excluded)
    common = frozenset.intersection(*keep)
    return common - frozenset(chosen) - frozenset(excluded)


def removable(ps: PSystem, chosen, excluded) -> frozenset:
    """Elements outside the current state that appear in no survivor."""
    keep = surviving_solutions(ps, chosen, excluded)
    union = frozenset.union(*keep)
    ground = frozenset(range(ps.ground_size))
    return ground - union - frozenset(chosen) - frozenset(excluded)


def forward_greedy_solution(ps: PSystem, weights) -> frozenset:
    """Descending-weight greedy; ties favour the smallest index."""
    w = [parse_rational(v) for v in weights]
    if len(w) != ps.ground_size:
        raise MechanismError("one weight per ground element is required")
    out: set[int] = set()
    for e in sorted(range(len(w)), key=lambda e: (-w[e], e)):
        if ps.feasible(out | {e}):
            out.add(e)
    return frozenset(out)


def reverse_greedy_solution(ps: PSystem, weights) -> frozenset:
    """Worst-out greedy: drop the lightest element while survivors remain."""
    w = [parse_rational(v) for v in weights]
    if len(w) != ps.ground_size:
        raise MechanismError("one weight per ground element is required")
    keep = list(ps.maximal_sets())
    for e in sorted(range(len(w)), key=lambda e: (w[e], e)):
        rest = [t for t in keep if e not in t]
        if rest:
            keep = rest
    assert len(keep) == 1
    return keep[0]


@dataclass(frozen=True)
class QueryRecord:
    agent: int
    direction: str
    value: Rat
    domain: tuple[Rat, ...]
    answer: bool


@dataclass(frozen=True)
class GreedyResult:
    chosen: frozenset
    excluded: frozenset
    trace: tuple[QueryRecord, ...]


class NeedAnswer(Exception):
    """A scripted run exhausted its answers at a pending query."""

    def __init__(self, agent: int, direction: str, value: Rat, domain):
        super().__init__(f"query to agent {agent} needs an answer")
        self.agent = agent
        self.direction = direction
        self.value = value
        self.domain = tuple(domain)


def run_two_way_greedy(ps: PSystem, domain, truth=None, answers=None) -> GreedyResult:
    """Simulate the alternating bottom/top elimination over a shared domain.

    Exactly one of ``truth`` (a valuation per agent) and ``answers`` (a
    scripted yes/no list, used for tree extraction) must be given.  A
    bottom query asks the agent whether her valuation is the smallest one
    still possible (yes drops her from the solution); a top query asks
    for the largest (yes locks her in).  A yes at the second query of a
    paired round is only recorded and resolved once the round's other
    answers are in: committing it on the spot would drop an agent at the
    second value level while rivals still hold the first, which breaks
    the weight guarantee of worst-out elimination.  The run ends as soon
    as every element's membership is resolved.
    """
    n = ps.ground_size
    dom0 = tuple(sorted({parse_rational(v) for v in domain}))
    if not dom0:
        raise MechanismError("the domain must be nonempty")
    d = len(dom0)
    if (truth is None) == (answers is None):
        raise MechanismError("exactly one of truth and answers is required")
    if truth is not None:
        truth = tuple(parse_rational(v) for v in truth)
        if len(truth) != n:
            raise MechanismError("one valuation per agent is required")
        for v in truth:
            if v not in dom0:
                raise MechanismError(f"valuation {v} outside the domain")
    script = list(answers) if answers is not None else None
    cursor = 0

    doms = [list(dom0) for _ in range(n)]
    chosen: set[int] = set()
    excluded: set[int] = set()
    pending: list[int] = []
    trace: list[QueryRecord] = []
    b = 1 - d % 2

    class _Settled(Exception):
        pass

    def alive() -> list[int]:
        return [
            j
            for j in range(n)
            if j not in chosen and j not in excluded and j not in pending
        ]

    def sync() -> None:
        while True:
            grew = unremovable(ps, frozenset(chosen), frozenset(excluded))
            shrank = removable(ps, frozenset(chosen), frozenset(excluded))
            if not grew and not shrank:
                break
            chosen.update(grew)
            excluded.update(shrank)
        for j in list(pending):
            if j in chosen or j in excluded:
                pending.remove(j)

    def flush() -> None:
        # resolve deferred drops in index order: drop unless nothing
        # feasible would survive, in which case the agent is locked in
        for j in sorted(pending):
            if j in chosen or j in excluded:
                continue
            try:
                surviving_solutions(ps, chosen, frozenset(excluded) | {j})
            except MechanismError:
                chosen.add(j)
            else:
                excluded.add(j)
            sync()
        pending.clear()
        if not alive():
            raise _Settled

    def ask(agent: int, direction: str, defer: bool = False) -> bool:
        nonlocal cursor
        snap = tuple(doms[agent])
        value = snap[0] if direction == "bottom" else snap[-1]
        if script is None:
            answer = truth[agent] == value
        else:
            if cursor >= len(script):
                raise NeedAnswer(agent, direction, value, snap)
            answer = bool(script[cursor])
            cursor += 1
        trace.append(QueryRecord(agent, direction, value, snap, answer))
        if answer:
            doms[agent] = [value]
            if defer:
                pending.append(agent)
            elif direction == "bottom":
                excluded.add(agent)
                sync()
            else:
                chosen.add(agent)
                sync()
        elif direction == "bottom":
            doms[agent].pop(0)
        else:
            doms[agent].pop()
        if not alive():
            raise _Settled
        return answer

    chosen.update(unremovable(ps, frozenset(), frozenset()))
    excluded.update(removable(ps, frozenset(), frozenset()))

    try:
        if not alive():
            raise _Settled
        # find the first agent to deny her minimum; she leads the pairing
        while True:
            cand = alive()[0]
            if len(doms[cand]) < 2:
                break
            if not ask(cand, "bottom"):
                break
        while True:
            order = alive()
            lead = order[0]
            if not (
                len(doms[lead]) > 2 + b
                or any(len(doms[j]) > 1 + b for j in order[1:])
            ):
                break
            spins = len(trace)
            for j in order[1:]:
                if j not in alive() or len(doms[j]) <= 2:
                    continue
                ask(j, "bottom")
                if j in alive():
                    ask(j, "bottom", defer=True)
            flush()
            if lead in alive() and len(doms[lead]) > 2 + b:
                ask(lead, "bottom")
                if lead in alive():
                    ask(lead, "bottom")
            current = alive()
            if current and current[0] != lead:
                # the lead dropped out: bring her successor to the same point
                while True:
                    step = alive()[0]
                    if len(doms[step]) < 2:
                        break
                    if not ask(step, "bottom"):
                        break
            if len(trace) == spins:
                raise MechanismError("pairing rounds stalled")
        flush()
        order = alive()
        if order:
            lead = order[0]
            if d % 2 == 0:
                for j in order[1:]:
                    if j not in alive() or len(doms[j]) < 2:
                        continue
                    ask(j, "top")
                if lead in alive() and len(doms[lead]) >= 2:
                    ask(lead, "bottom")
            elif len(doms[lead]) >= 2:
                ask(lead, "bottom")
    except _Settled:
        pass

    try:
        flush()
    except _Settled:
        pass
    rest = alive()
    if rest:
        chosen.add(rest[0])
        sync()
        for e in alive():
            if ps.feasible(frozenset(chosen | {e})):
                chosen.add(e)
    excluded.update(j for j in range(n) if j not in chosen)
    return GreedyResult(frozenset(chosen), frozenset(excluded), tuple(trace))


def _build_query_tree(ps: PSystem, domain) -> ImplementationTree:
    dom0 = tuple(sorted({parse_rational(v) for v in domain}))
    n = ps.ground_size
    scale_guard(len(dom0) ** n, "strategy profiles")
    nodes: dict[int, QueryNode | LeafNode] = {}
    counter = itertools.count()

    def grow(prefix: list[bool]) -> int:
        nid = next(counter)
        try:
            result = run_two_way_greedy(ps, dom0, answers=prefix)
        except NeedAnswer as need:
            agent, value, snap = need.agent, need.value, need.domain
            yes_id = grow(prefix + [True])
            no_id = grow(prefix + [False])
            rest = tuple(x for x in snap if x != value)
            nodes[nid] = QueryNode(nid, agent, ((value,), rest), (yes_id, no_id))
        else:
            outcome = tuple(1 if j in result.chosen else 0 for j in range(n))
            nodes[nid] = LeafNode(nid, outcome, None)
        return nid

    root = grow([])
    return ImplementationTree(n, [dom0] * n, root, nodes)


def as_cost_tree(tree: ImplementationTree) -> ImplementationTree:
    """Mirror a tree between the valuation and cost conventions.

    Domains, blocks and payments are negated (value order reverses);
    outcomes and the tree shape are untouched.  Applying it twice is the
    identity.
    """

    def flip(vals) -> tuple[Rat, ...]:
        return tuple(sorted(-v for v in vals))

    domains = [flip(dm) for dm in tree.domains]
    nodes: dict[int, QueryNode | LeafNode] = {}
    for nid, node in tree.nodes.items():
        if node.kind == "leaf":
            pay = None if node.payment is None else tuple(-p for p in node.payment)
            nodes[nid] = LeafNode(nid, node.outcome, pay)
        else:
            nodes[nid] = QueryNode(
                nid, node.agent, tuple(flip(b) for b in node.blocks), node.children
            )
    return ImplementationTree(tree.agents, domains, tree.root, nodes)


def extract_tree(ps: PSystem, domain) -> ImplementationTree:
    """Decision tree of the elimination run, in the cost convention."""
    return as_cost_tree(_build_query_tree(ps, domain))


def is_revealable(tree: ImplementationTree, node_id: int) -> bool:
    """Whether the queried agent's outcome is already pinned on one side.

    True when every available profile with her cost below the current
    maximum is allocated, or every profile with her cost above the
    current minimum is rejected.
    """
    node = tree.node(node_id)
    if node.kind != "query":
        raise MechanismError("revealability is a query-node property")
    agent = node.agent
    own = tree.domain_at[node_id][agent]
    low_won, high_lost = True, True
    for leaf, box in split_box(tree, node_id):
        out = tree.nodes[leaf].outcome[agent]
        if box[agent][0] < own[-1] and out != 1:
            low_won = False
        if box[agent][-1] > own[0] and out != 0:
            high_lost = False
    return low_won or high_lost


@dataclass(frozen=True)
class TwoWayReport:
    ok: bool
    node: int | None
    reason: str | None

    def __bool__(self) -> bool:
        return self.ok


def is_two_way_greedy(tree: ImplementationTree) -> TwoWayReport:
    """Check the two-way shape of every query (cost convention).

    Each query must split in two with an extreme singled out: the
    cheapest type on the accepted side (greedy fashion) or the dearest
    on the rejected side (reverse fashion).  An agent may change fashion
    along a path only where her domain is revealable.
    """
    require_binary_outcomes(tree)

    def side_outcomes(child: int, agent: int) -> set[int]:
        return {tree.nodes[l].outcome[agent] for l in tree.leaves_under[child]}

    stack: list[tuple[int, dict[int, str]]] = [(tree.root, {})]
    while stack:
        nid, dirs = stack.pop()
        node = tree.nodes[nid]
        if node.kind == "leaf":
            continue
        if len(node.blocks) != 2:
            return TwoWayReport(False, nid, "queries must split the domain in two")
        own = tree.domain_at[nid][node.agent]
        readings = []
        for idx, blk in enumerate(node.blocks):
            if blk == (own[0],) and side_outcomes(node.children[idx], node.agent) == {1}:
                readings.append("greedy")
            if blk == (own[-1],) and side_outcomes(node.children[idx], node.agent) == {0}:
                readings.append("reverse")
        if not readings:
            return TwoWayReport(False, nid, "neither fashion fits")
        nxt = dirs
        if len(readings) == 1:
            step = readings[0]
            prior = dirs.get(node.agent)
            if prior is not None and prior != step and not is_revealable(tree, nid):
                return TwoWayReport(
                    False, nid, "fashion change without a revealable domain"
                )
            nxt = dict(dirs)
            nxt[node.agent] = step
        for child in node.children:
            stack.append((child, nxt))
    return TwoWayReport(True, None, None)


def compress(tree: ImplementationTree) -> ImplementationTree:
    """Merge consecutive same-agent queries into multi-block queries."""

    def build(nid: int):
        node = tree.nodes[nid]
        if node.kind == "leaf":
            return ("leaf", node.outcome, node.payment)
        blocks = list(node.blocks)
        kids = list(node.children)
        merged = True
        while merged:
            merged = False
            for idx, cid in enumerate(kids):
                sub = tree.nodes[cid]
                if sub.kind == "query" and sub.agent == node.agent:
                    blocks[idx : idx + 1] = list(sub.blocks)
                    kids[idx : idx + 1] = list(sub.children)
                    merged = True
                    break
        return ("q", node.agent, [(blocks[i], build(kids[i])) for i in range(len(kids))])

    return tree_from_nested(tree.agents, tree.domains, build(tree.root))


def serialize(tree: ImplementationTree) -> ImplementationTree:
    """Rewrite every query as binary extreme-singleton splits.

    Multi-block queries are peeled one cheapest value at a time; splits
    that are already binary with an extreme singled out pass through.
    Leaf routing is preserved exactly.
    """

    def narrowed(nid: int, allow: dict[int, tuple[Rat, ...]]):
        node = tree.nodes[nid]
        if node.kind == "leaf":
            return ("leaf", node.outcome, node.payment)
        agent = node.agent
        own = allow.get(agent, tree.domain_at[nid][agent])
        pairs = []
        for blk, cid in zip(node.blocks, node.children):
            common = tuple(v for v in blk if v in own)
            if common:
                pairs.append((common, cid))
        if len(pairs) == 1:
            sub = dict(allow)
            sub[agent] = pairs[0][0]
            return narrowed(pairs[0][1], sub)
        if len(pairs) == 2 and any(
            p[0] in ((own[0],), (own[-1],)) for p in pairs
        ):
            out = []
            for blkvals, cid in pairs:
                sub = dict(allow)
                sub[agent] = blkvals
                out.append((blkvals, narrowed(cid, sub)))
            return ("q", agent, out)
        low = own[0]
        target = next(c for b, c in pairs if low in b)
        yes_allow = dict(allow)
        yes_allow[agent] = (low,)
        rest = tuple(v for v in own if v != low)
        no_allow = dict(allow)
        no_allow[agent] = rest
        return (
            "q",
            agent,
            [((low,), narrowed(target, yes_allow)), (rest, narrowed(nid, no_allow))],
        )

    return tree_from_nested(tree.agents, tree.domains, narrowed(tree.root, {}))


def is_k_limitable(tree: ImplementationTree, k):
    """Query-budget check on the compressed form of the tree."""
    return is_k_limited(compress(tree), k)


def english_auction_tree(n: int, domain) -> ImplementationTree:
    """Ascending-clock auction in the cost convention, with payments.

    The clock walks the valuations from the smallest up to the second
    largest; in each round the available agents are asked in decreasing
    index order whether the clock price is their valuation, and a yes
    drops them.  The last agent standing (smallest index on a full
    round) wins and pays the last clock price she answered, or the
    domain minimum if she never moved.
    """
    if n < 1:
        raise MechanismError("at least one agent is required")
    dom0 = tuple(sorted({parse_rational(v) for v in domain}))
    if not dom0:
        raise MechanismError("the domain must be nonempty")
    d = len(dom0)
    nodes: dict[int, QueryNode | LeafNode] = {}
    counter = itertools.count()

    def leaf(available, lo) -> int:
        winner = min(available)
        pay = [Fraction(0)] * n
        pay[winner] = dom0[lo[winner] - 1] if lo[winner] else dom0[0]
        nid = next(counter)
        outcome = tuple(1 if j == winner else 0 for j in range(n))
        nodes[nid] = LeafNode(nid, outcome, tuple(pay))
        return nid

    def build(available, lo, queue, clock) -> int:
        if len(available) == 1:
            return leaf(available, lo)
        queue = tuple(j for j in queue if j in available)
        if not queue:
            clock += 1
            if clock > d - 2:
                return leaf(available, lo)
            queue = tuple(sorted(available, reverse=True))
        agent = queue[0]
        price = dom0[clock]
        nid = next(counter)
        yes_id = build(
            tuple(a for a in available if a != agent), lo, queue[1:], clock
        )
        lo2 = list(lo)
        lo2[agent] = clock + 1
        no_id = build(available, tuple(lo2), queue[1:], clock)
        nodes[nid] = QueryNode(
            nid, agent, ((price,), tuple(dom0[clock + 1 :])), (yes_id, no_id)
        )
        return nid

    root = build(tuple(range(n)), (0,) * n, (), -1)
    val_tree = ImplementationTree(n, [dom0] * n, root, nodes)
    return as_cost_tree(val_tree)


def approx_ratio(ps: PSystem, tree: ImplementationTree, domain):
    """Worst welfare ratio of the tree's allocation against the optimum.

    The tree is in the cost convention; ``domain`` lists the valuations.
    Returns (ratio, worst valuation profile).
    """
    n = ps.ground_size
    if tree.agents != n:
        raise MechanismError("tree and system disagree on the number of agents")
    dom0 = tuple(sorted({parse_rational(v) for v in domain}))
    cost_dom = tuple(sorted(-v for v in dom0))
    for dm in tree.domains:
        if tuple(dm) != cost_dom:
            raise MechanismError("tree domain does not mirror the valuation domain")
    scale_guard(len(dom0) ** n, "valuation profiles")
    leaf_at = profile_leaves(tree, tree.root)
    maximal = ps.maximal_sets()
    worst: Fraction | None = None
    witness = None
    for prof in itertools.product(dom0, repeat=n):
        outcome = tree.nodes[leaf_at[tuple(-v for v in prof)]].outcome
        got = sum(v for v, f in zip(prof, outcome) if f)
        best = max(sum(prof[e] for e in t) for t in maximal)
        ratio = Fraction(1) if best == 0 else Fraction(got) / best
        if worst is None or ratio < worst:
            worst, witness = ratio, prof
    return worst, witness


@dataclass(frozen=True)
class SearchResult:
    found: bool
    tree: ImplementationTree | None
    ratio: Fraction | None
    explored: int

    def __bool__(self) -> bool:
        return self.found


def search_two_way_greedy(
    ps: PSystem, domain, k, target_ratio, greedy_outcome: bool = False
) -> SearchResult:
    """Hunt for a k-limitable two-way tree meeting a worst-ratio target.

    Depth-first over query/leaf choices, memoized on the remaining
    domains, per-agent fashion, per-path run counts and the forced
    membership state; the first subtree meeting the target everywhere is
    kept.  An agent's fashion is fixed once her domain has three or more
    values (with two values both fashions describe the same split), and
    a final extra run is explored only in the two shapes the budget
    check accepts, validated in place.  With ``greedy_outcome`` every
    leaf must reproduce the forward greedy solution on its whole box,
    which is the family the inapproximability demonstration quantifies
    over.  Found results are certified against the real checks before
    being returned; Exhausted means the whole family was searched.
    """
    n = ps.ground_size
    dom0 = tuple(sorted({parse_rational(v) for v in domain}))
    if n != 2 or len(dom0) > 4:
        raise MechanismError("search is limited to two agents and four types")
    kk = normalize_horizon(k)
    target = parse_rational(target_ratio)
    cost_dom = tuple(sorted(-v for v in dom0))
    maximal = ps.maximal_sets()
    opt_cache: dict[tuple, Fraction] = {}
    greedy_cache: dict[tuple, frozenset] = {}
    memo: dict[tuple, object] = {}
    explored = 0

    def opt(prof) -> Fraction:
        if prof not in opt_cache:
            opt_cache[prof] = max(
                sum((prof[e] for e in t), Fraction(0)) for t in maximal
            )
        return opt_cache[prof]

    def greedy_out(prof) -> frozenset:
        if prof not in greedy_cache:
            greedy_cache[prof] = forward_greedy_solution(ps, prof)
        return greedy_cache[prof]

    def leaf_values(nested, agent: int) -> set[int]:
        if nested[0] == "leaf":
            return {nested[1][agent]}
        out: set[int] = set()
        for _, sub in nested[2]:
            out |= leaf_values(sub, agent)
        return out

    def extra_allowed(agent: int, doms, node) -> bool:
        # the budget check's forms, asked of the candidate mirrored into
        # the cost convention
        cand = as_cost_tree(tree_from_nested(2, doms, node))
        own, _, table = _value_table(cand, cand.root)
        blocks = cand.nodes[cand.root].blocks
        qc = query_class(cand.root, agent, own, cost_dom, blocks, table)
        return qc.extra_allowed

    def search(state):
        nonlocal explored
        if state in memo:
            return memo[state]
        explored += 1
        doms, dirs, runs, last, ch, ex = state
        result = None
        for t in maximal:
            if not ch <= t or t & ex:
                continue
            good = True
            for prof in itertools.product(*doms):
                if greedy_outcome and t != greedy_out(prof):
                    good = False
                    break
                got = sum((prof[e] for e in t), Fraction(0))
                best = opt(prof)
                ratio = Fraction(1) if best == 0 else got / best
                if ratio < target:
                    good = False
                    break
            if good:
                out = tuple(1 if j in t else 0 for j in range(2))
                result = ("leaf", out, None)
                break
        if result is None:
            for agent in (0, 1):
                own = doms[agent]
                if len(own) < 2 or agent in ch or agent in ex:
                    continue
                nruns = runs[agent] + (0 if last == agent else 1)
                if kk is not inf and nruns > kk + 2:
                    continue
                special = kk is not inf and nruns == kk + 2
                other = 1 - agent
                runs2 = (nruns, runs[other]) if agent == 0 else (runs[other], nruns)
                if len(own) == 2:
                    moves = [("split2", None)]
                else:
                    moves = [
                        ("peel", f)
                        for f in ("greedy", "reverse")
                        if dirs[agent] in (None, f)
                    ]
                for kind, fashion in moves:
                    if kind == "peel":
                        head = own[-1] if fashion == "greedy" else own[0]
                        rest = own[:-1] if fashion == "greedy" else own[1:]
                        try:
                            if fashion == "greedy":
                                ch2 = ch | {agent}
                                ex2 = ex | removable(ps, ch2, ex)
                            else:
                                ex2 = ex | {agent}
                                ch2 = ch | unremovable(ps, ch, ex2)
                        except MechanismError:
                            continue
                        dirs2 = list(dirs)
                        dirs2[agent] = fashion
                        dirs2 = tuple(dirs2)
                        yes_doms = list(doms)
                        yes_doms[agent] = (head,)
                        yes = search(
                            (tuple(yes_doms), dirs2, runs2, agent, ch2, ex2)
                        )
                        if yes is None:
                            continue
                        no_doms = list(doms)
                        no_doms[agent] = rest
                        no = search((tuple(no_doms), dirs2, runs2, agent, ch, ex))
                        if no is None:
                            continue
                        node = ("q", agent, [((head,), yes), (rest, no)])
                    else:
                        lo, hi = own
                        subs = []
                        for v in (lo, hi):
                            v_doms = list(doms)
                            v_doms[agent] = (v,)
                            subs.append(
                                search((tuple(v_doms), dirs, runs2, agent, ch, ex))
                            )
                        if subs[0] is None or subs[1] is None:
                            continue
                        hi_won = leaf_values(subs[1], agent) == {1}
                        lo_lost = leaf_values(subs[0], agent) == {0}
                        if not (hi_won or lo_lost):
                            continue
                        node = ("q", agent, [((lo,), subs[0]), ((hi,), subs[1])])
                    if special and not extra_allowed(agent, doms, node):
                        continue
                    result = node
                    break
                if result is not None:
                    break
        memo[state] = result
        return result

    try:
        seed_ch = frozenset(unremovable(ps, frozenset(), frozenset()))
        seed_ex = frozenset(removable(ps, frozenset(), frozenset()))
    except MechanismError:
        seed_ch, seed_ex = frozenset(), frozenset()
    root = ((dom0, dom0), (None, None), (0, 0), None, seed_ch, seed_ex)
    nested = search(root)
    if nested is None:
        return SearchResult(False, None, None, explored)
    cost = as_cost_tree(tree_from_nested(2, [dom0, dom0], nested))
    shape = is_two_way_greedy(cost)
    budget = is_k_limitable(cost, kk)
    ratio, _ = approx_ratio(ps, cost, dom0)
    assert shape.ok and budget.ok and ratio >= target
    return SearchResult(True, cost, ratio, explored)
