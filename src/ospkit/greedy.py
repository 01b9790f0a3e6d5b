"""Two-way greedy mechanisms over downward-closed set systems.

Ground sets are {0..n-1} and weights are valuations (larger is better).
Trees handed to the verifier follow the cost convention instead:
``extract_tree``, ``english_auction_tree`` and ``search_two_way_greedy``
emit negated domains, blocks and payments as they build, so each tree is
built once; ``as_cost_tree`` mirrors trees built elsewhere across that
sign boundary (it is an involution).

The elimination is written once, as the copyable state ``_Elimination``
that stops at each query.  ``run_two_way_greedy`` answers its queries
from a truthful profile or a script; ``extract_tree`` forks it at every
query and follows both answers, so the tree comes from one depth-first
pass that follows each distinct query state once.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from math import comb, lcm, log, log1p, log10, pi

from .model import (
    ImplementationTree,
    LeafNode,
    MechanismError,
    QueryNode,
    Record,
    Verdict,
    _magnitude_guard,
    _normal_domain,
    as_integer,
    bits,
    normalize_horizon,
    require_binary_outcomes,
    require_valid,
    scale_guard,
    tree_from_nested,
    types_of,
)
from .rational import Rat, parse_rational
from .verifier import _value_table, is_k_limited, query_class


class PSystem:
    """Downward-closed feasibility system with a cached oracle.

    The oracle is a predicate over frozensets; it is asked about each
    subset at most once.  Inside, a subset is an int mask (bit e stands
    for ground element e), and the maximal sets are listed once as masks
    and reused everywhere.  A uniform system (``uniform``, ``single_item``)
    lists them in closed form, as the subsets of its rank; any other asks
    its oracle about every subset (desk scale only).  Either way they come
    in the order of their sorted elements.
    """

    def __init__(self, ground_size: int, feasible, name: str = "custom"):
        size = as_integer(ground_size)
        if size < 1:
            raise MechanismError("ground set must be nonempty")
        self.ground_size = size
        self.name = name
        self._oracle = feasible
        self._cache: dict[int, bool] = {0: True}
        self._maximal: tuple[int, ...] | None = None
        self._rank: int | None = None  # set on uniform systems only

    def feasible(self, subset) -> bool:
        s = frozenset(subset)
        if not all(type(e) is int for e in s):
            raise MechanismError("ground elements must be ints")
        if not all(0 <= e < self.ground_size for e in s):
            raise MechanismError(f"element outside ground set in {sorted(s)}")
        return self._feasible_mask(_mask(s))

    def _feasible_mask(self, m: int) -> bool:
        hit = self._cache.get(m)
        if hit is None:
            hit = self._cache[m] = bool(self._oracle(frozenset(bits(m))))
        return hit

    def _masks(self) -> tuple[int, ...]:
        if self._maximal is None:
            n = self.ground_size
            if self._rank is not None:
                # combinations come in lexicographic order: sorted already
                r = min(self._rank, n)
                _comb_guard(n, r, "maximal sets")
                self._maximal = tuple(
                    _mask(c) for c in itertools.combinations(range(n), r)
                )
            else:
                _power_guard(2, n, "subsets")
                tops = _maximal_within(self, (1 << n) - 1)
                self._maximal = tuple(sorted(tops, key=bits))
        return self._maximal

    def maximal_sets(self) -> tuple[frozenset, ...]:
        """The maximal feasible sets, in the order of their sorted elements."""
        return tuple(frozenset(bits(m)) for m in self._masks())

    def validate(self) -> None:
        """Full downward-closure check (exponential; desk scale)."""
        n = self.ground_size
        _power_guard(2, n, "subsets")
        # the cache holds the empty set as feasible: ask the oracle itself
        if not self._oracle(frozenset()):
            raise MechanismError("the empty set must be feasible")
        for m in range(2**n):
            if not self._feasible_mask(m):
                continue
            for e in bits(m):
                if not self._feasible_mask(m ^ 1 << e):
                    raise MechanismError(
                        f"not downward closed: {bits(m)} is feasible "
                        f"but {bits(m ^ 1 << e)} is not"
                    )

    @classmethod
    def single_item(cls, n: int) -> "PSystem":
        ps = cls(n, lambda s: len(s) <= 1, name="single_item")
        ps._rank = 1
        return ps

    @classmethod
    def uniform(cls, n: int, rank: int) -> "PSystem":
        r = as_integer(rank)
        if r < 0:
            raise MechanismError("rank must be nonnegative")
        ps = cls(n, lambda s: len(s) <= r, name=f"uniform_{r}")
        ps._rank = r
        return ps

    @classmethod
    def graphic(cls, edges) -> "PSystem":
        edge_list = []
        for i, edge in enumerate(edges):
            try:
                u, v = edge
                edge_list.append((as_integer(u), as_integer(v)))
            except (TypeError, ValueError) as exc:  # not two integers
                raise MechanismError(f"edge {i}: {exc}") from None
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
        n = as_integer(n)
        tops = [frozenset(as_integer(e) for e in s) for s in maximal_sets]
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
    _power_guard(3, n, "subset-submask pairs")
    best: Fraction | None = None
    for sub in range(1, 2**n):
        sizes = [t.bit_count() for t in _maximal_within(ps, sub)]
        upper = max(sizes)
        if upper == 0:
            continue
        q = Fraction(min(sizes), upper)
        if best is None or q < best:
            best = q
    return best if best is not None else Fraction(1)


def _power_guard(base: int, exponent: int, what: str) -> None:
    """`scale_guard(base ** exponent, what)`, a power of more than a few
    thousand bits built only once its digits pass `_magnitude_guard`.
    The digits are rationals, as the exponent may be past any float."""
    if exponent * base.bit_length() > 4300:
        _magnitude_guard(exponent * Fraction(log10(base)), what)
    scale_guard(base**exponent, what)


def _comb_guard(n: int, r: int, what: str) -> None:
    """`scale_guard(comb(n, r), what)`, a binomial of more than a few
    thousand bits built only once its digits, by Stirling's formula
    (within 1/(12k) nats for the smaller side k), pass
    `_magnitude_guard`."""
    k = min(r, n - r)
    if k * n.bit_length() > 4300:  # comb(n, k) < n ** k
        x = k / (n - k)
        per = log(n) - log(k) + (log1p(x) / x if x else 1.0)  # nats per pick
        rest = (log(2 * pi) + log(k) + log(n - k) - log(n)) / 2
        nats = k * Fraction(per) - Fraction(rest)
        _magnitude_guard(nats / Fraction(log(10)), what)
    scale_guard(comb(n, r), what)


def _mask(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def _maximal_within(ps: PSystem, within: int) -> list[int]:
    # the feasible submasks of `within` (walked downwards from it) that are
    # not one element short of another one
    subs = [within]
    while subs[-1]:
        subs.append((subs[-1] - 1) & within)
    fits = [t for t in subs if ps._feasible_mask(t)]
    short = {s & ~(1 << e) for s in fits for e in bits(s)}
    return [t for t in fits if t not in short]


def _survivors(ps: PSystem, c: int, x: int) -> list[int]:
    # the maximal sets holding every element of mask c and none of mask x
    keep = [t for t in ps._masks() if t & c == c and not t & x]
    if not keep:
        raise MechanismError(
            "no maximal feasible set is consistent with the current state"
        )
    return keep


def _forced(ps: PSystem, c: int, x: int) -> tuple[int, int]:
    # masks of the elements outside c and x that every survivor holds,
    # and that none holds
    common, union = -1, 0
    for t in _survivors(ps, c, x):
        common &= t
        union |= t
    return common & ~c, ((1 << ps.ground_size) - 1) & ~union & ~x


def _state(ps: PSystem, chosen, excluded) -> tuple[int, int]:
    # a chosen element outside the ground set leaves no survivor (bit n
    # stands for it), and an excluded one changes nothing
    ground = range(ps.ground_size)
    c, x = frozenset(chosen), frozenset(excluded)
    stray = 0 if all(e in ground for e in c) else 1 << ps.ground_size
    c_mask = _mask(e for e in ground if e in c) | stray
    return c_mask, _mask(e for e in ground if e in x)


def surviving_solutions(ps: PSystem, chosen, excluded) -> tuple[frozenset, ...]:
    """Maximal feasible sets containing ``chosen`` and avoiding ``excluded``."""
    keep = _survivors(ps, *_state(ps, chosen, excluded))
    return tuple(frozenset(bits(t)) for t in keep)


def unremovable(ps: PSystem, chosen, excluded) -> frozenset:
    """Elements outside the current state that appear in every survivor."""
    return frozenset(bits(_forced(ps, *_state(ps, chosen, excluded))[0]))


def removable(ps: PSystem, chosen, excluded) -> frozenset:
    """Elements outside the current state that appear in no survivor."""
    return frozenset(bits(_forced(ps, *_state(ps, chosen, excluded))[1]))


def forward_greedy_solution(ps: PSystem, weights) -> frozenset:
    """Descending-weight greedy; ties favour the smallest index."""
    w = [parse_rational(v) for v in weights]
    if len(w) != ps.ground_size:
        raise MechanismError("one weight per ground element is required")
    out = 0
    for e in sorted(range(len(w)), key=lambda e: (-w[e], e)):
        if ps._feasible_mask(out | 1 << e):
            out |= 1 << e
    return frozenset(bits(out))


def reverse_greedy_solution(ps: PSystem, weights) -> frozenset:
    """Worst-out greedy: drop the lightest element while survivors remain."""
    w = [parse_rational(v) for v in weights]
    if len(w) != ps.ground_size:
        raise MechanismError("one weight per ground element is required")
    keep = ps._masks()
    for e in sorted(range(len(w)), key=lambda e: (w[e], e)):
        rest = [t for t in keep if not t >> e & 1]
        if rest:
            keep = rest
    assert len(keep) == 1
    return frozenset(bits(keep[0]))


class QueryRecord(
    Record, namedtuple("QueryRecord", "agent direction value domain answer")
):
    """One query of a run: the `direction` (a str) it asks `agent` in,
    the threshold `value` (a Rat), her current `domain` (a tuple of Rat)
    and the bool `answer`."""

    __slots__ = ()


class GreedyResult(Record, namedtuple("GreedyResult", "chosen excluded trace")):
    """The `chosen` and `excluded` elements (frozensets) of a run and
    its `trace`, a tuple of `QueryRecord`."""

    __slots__ = ()


class NeedAnswer(Exception):
    """A scripted run exhausted its answers at a pending query."""

    def __init__(self, agent: int, direction: str, value: Rat, domain):
        super().__init__(f"query to agent {agent} needs an answer")
        self.agent = agent
        self.direction = direction
        self.value = value
        self.domain = tuple(domain)


class _Elimination:
    """One alternating bottom/top elimination, stopped at its next query.

    The state is the per-agent domains, the chosen, excluded and pending
    (deferred) agents as int masks ``ch``, ``ex`` and ``pending``, and a
    cursor ``at`` naming where the rounds stand.  A domain is a tuple of
    positions into the sorted valuations: it starts as all of them, and a
    yes leaves one while a no drops one end, so it is always a run of
    consecutive positions and answers are compared as ints.
    ``query`` is the pending (agent, direction, position, domain), or None
    once every membership is resolved.  ``step`` applies an answer and
    runs to the next query or to the end; ``copy`` forks the run, so a
    tree is extracted by following both answers from every query, and
    ``key`` names what the rest of the run depends on.

    The rounds: the first alive agent is asked for her minimum until she
    denies it (``climb``); she leads the pairing.  Each pairing round
    (``round``) asks every other alive agent with more than two values
    for her minimum twice, deferring a yes to the second (``pairs``),
    resolves the deferred drops (``_flush``), asks the lead for her
    minimum twice (``lead``), and climbs again when the lead dropped out.
    A round that asks nothing is an error.  Once no agent has values to
    spare, every other agent still holding two values (only possible on
    an even domain) is asked for her maximum, and the lead for her
    minimum (``tops``).  No deferred drop is open between rounds.  The
    run settles as soon as no agent is alive.
    """

    def __init__(self, ps: PSystem, dom0: tuple[Rat, ...]) -> None:
        self.ps = ps
        self.b = 1 - len(dom0) % 2
        self.doms = [tuple(range(len(dom0)))] * ps.ground_size
        self.full = (1 << ps.ground_size) - 1
        self.ch, self.ex = _forced(ps, 0, 0)
        self.pending = 0
        self.asked = 0
        self.answer = False
        self.lead = self.spins = None
        self.order: tuple[int, ...] = ()
        self.idx = 0
        self.then = "round"
        self.at = "climb" if self._alive() else "settle"
        self.query = None
        self.defer = False
        self._run()

    def copy(self) -> "_Elimination":
        twin = _Elimination.__new__(_Elimination)
        twin.__dict__.update(self.__dict__)
        twin.doms = list(self.doms)
        return twin

    @property
    def chosen(self) -> frozenset:
        return frozenset(bits(self.ch))

    @property
    def excluded(self) -> frozenset:
        return frozenset(bits(self.ex))

    def key(self) -> tuple:
        """What the run reads from here on, at a pending query.

        Two states with one key ask the same questions and settle alike.
        ``answer`` is overwritten by ``step`` before it is read, and the
        domains of agents that are not alive are never read again: a
        chosen, excluded or deferred agent never turns alive.
        """
        agent, direction, _, _ = self.query
        doms = self.doms
        return (
            self.at, self.then, self.lead, self.order, self.idx, self.defer,
            agent, direction, self.ch, self.ex, self.pending,
            self.asked == self.spins,
            tuple(doms[j] for j in bits(self._alive())),
        )

    def step(self, answer: bool) -> None:
        agent, direction, pos, _ = self.query
        self.asked += 1
        self.answer = answer
        if answer:
            self.doms[agent] = (pos,)
            if self.defer:
                self.pending |= 1 << agent
            elif direction == "bottom":
                self.ex |= 1 << agent
                self._sync()
            else:
                self.ch |= 1 << agent
                self._sync()
        elif direction == "bottom":
            self.doms[agent] = self.doms[agent][1:]
        else:
            self.doms[agent] = self.doms[agent][:-1]
        if not self._alive():
            self.at = "settle"
        self._run()

    def _alive(self) -> int:
        return self.full & ~(self.ch | self.ex | self.pending)

    def _sync(self) -> None:
        # one scan reaches the closure: every survivor holds what it adds
        # to `ch` and avoids what it adds to `ex`, so they all survive it
        grew, shrank = _forced(self.ps, self.ch, self.ex)
        self.ch |= grew
        self.ex |= shrank
        self.pending &= ~(self.ch | self.ex)

    def _flush(self) -> None:
        # resolve deferred drops in index order; the state is closed under
        # `_sync`, so some survivor avoids a pending agent and outlives her drop
        for j in bits(self.pending):
            if (self.ch | self.ex) >> j & 1:
                continue
            self.ex |= 1 << j
            self._sync()
        self.pending = 0

    def _ask(
        self, agent: int, direction: str, resume: str, defer: bool = False
    ) -> None:
        snap = self.doms[agent]
        pos = snap[0] if direction == "bottom" else snap[-1]
        self.query = (agent, direction, pos, snap)
        self.defer = defer
        self.at = resume

    def _run(self) -> None:
        doms, b = self.doms, self.b
        while True:
            at = self.at
            if at == "climb":
                first = bits(self._alive())[0]
                if len(doms[first]) < 2:
                    self.at = self.then
                else:
                    return self._ask(first, "bottom", "climbed")
            elif at == "climbed":
                self.at = "climb" if self.answer else self.then
            elif at == "round":
                order = bits(self._alive())
                self.lead = order[0]
                self.order, self.idx = tuple(order[1:]), 0
                if len(doms[self.lead]) > 2 + b or any(
                    len(doms[j]) > 1 + b for j in order[1:]
                ):
                    self.spins = self.asked
                    self.at = "pairs"
                else:
                    self.at = "tops"
            elif at == "pairs":
                while self.idx < len(self.order):
                    j = self.order[self.idx]
                    self.idx += 1
                    if self._alive() >> j & 1 and len(doms[j]) > 2:
                        return self._ask(j, "bottom", "paired")
                self._flush()
                self.at = "lead" if self._alive() else "settle"
            elif at == "paired":
                j = self.query[0]
                if self._alive() >> j & 1:
                    return self._ask(j, "bottom", "pairs", defer=True)
                self.at = "pairs"
            elif at == "lead":
                if self._alive() >> self.lead & 1 and len(doms[self.lead]) > 2 + b:
                    return self._ask(self.lead, "bottom", "lead_again")
                self.at = "catch_up"
            elif at == "lead_again":
                if self._alive() >> self.lead & 1:
                    return self._ask(self.lead, "bottom", "catch_up")
                self.at = "catch_up"
            elif at == "catch_up":
                if bits(self._alive())[0] != self.lead:
                    # the lead dropped out: bring her successor up to her
                    self.then, self.at = "stall", "climb"
                else:
                    self.at = "stall"
            elif at == "stall":
                if self.asked == self.spins:
                    raise MechanismError("pairing rounds stalled")
                self.at = "round"
            elif at == "tops":
                while self.idx < len(self.order):
                    j = self.order[self.idx]
                    self.idx += 1
                    if self._alive() >> j & 1 and len(doms[j]) >= 2:
                        return self._ask(j, "top", "tops")
                if self._alive() >> self.lead & 1 and len(doms[self.lead]) >= 2:
                    return self._ask(self.lead, "bottom", "settle")
                self.at = "settle"
            else:
                return self._settle()

    def _settle(self) -> None:
        self._flush()
        rest = bits(self._alive())
        if rest:
            self.ch |= 1 << rest[0]
            self._sync()
            for e in bits(self._alive()):
                if self.ps._feasible_mask(self.ch | 1 << e):
                    self.ch |= 1 << e
        self.ex = self.full & ~self.ch
        self.query = None


def _valuation_domain(domain) -> tuple[Rat, ...]:
    dom0 = _normal_domain(domain)[0]
    if not dom0:
        raise MechanismError("the domain must be nonempty")
    return dom0


def run_two_way_greedy(ps: PSystem, domain, truth=None, answers=None) -> GreedyResult:
    """Simulate the alternating bottom/top elimination over a shared domain.

    Exactly one of ``truth`` (a valuation per agent) and ``answers`` (a
    scripted yes/no list) must be given; both drive the one elimination
    state, answering each query it stops at in turn.  A bottom query
    asks the agent whether her valuation is the smallest one still
    possible (yes drops her from the solution); a top query asks for the
    largest (yes locks her in).  A yes at the second query of a paired
    round is only recorded and resolved once the round's other answers
    are in: committing it on the spot would drop an agent at the second
    value level while rivals still hold the first, which breaks the
    weight guarantee of worst-out elimination.  The run ends as soon as
    every element's membership is resolved.  A script that runs out
    raises ``NeedAnswer`` at the query it leaves open.
    """
    n = ps.ground_size
    dom0 = _valuation_domain(domain)
    if (truth is None) == (answers is None):
        raise MechanismError("exactly one of truth and answers is required")
    if truth is not None:
        truth = tuple(parse_rational(v) for v in truth)
        if len(truth) != n:
            raise MechanismError("one valuation per agent is required")
        # each valuation as its position in the domain
        at = {v: p for p, v in enumerate(dom0)}
        pos = tuple(at.get(v) for v in truth)
        if None in pos:
            raise MechanismError(
                f"valuation {truth[pos.index(None)]} outside the domain"
            )
        truth = pos
    script = list(answers) if answers is not None else None
    state = _Elimination(ps, dom0)
    trace: list[QueryRecord] = []
    while state.query is not None:
        agent, direction, pos, snap = state.query
        value, values = dom0[pos], dom0[snap[0] : snap[-1] + 1]
        if script is None:
            answer = truth[agent] == pos
        elif len(trace) < len(script):
            answer = bool(script[len(trace)])
        else:
            raise NeedAnswer(agent, direction, value, values)
        trace.append(QueryRecord(agent, direction, value, values, answer))
        state.step(answer)
    return GreedyResult(state.chosen, state.excluded, tuple(trace))


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
    """Decision tree of the elimination run, in the cost convention.

    One depth-first pass over the elimination state: at each query the
    state is copied, the yes branch is followed first and the no branch
    from the copy, and nodes are numbered in that preorder.  Each query
    is emitted with negated blocks, the yes block first, so the tree is
    built once, as ``as_cost_tree`` would mirror the valuation tree.

    The run reaches many query states more than once, by answers given in
    another order.  Such a state's subtree is built once, under its first
    occurrence, which takes a range of consecutive preorder ids; each
    later occurrence is a copy of that range with shifted ids, sharing
    its blocks and outcomes.
    """
    dom0 = _valuation_domain(domain)
    n = ps.ground_size
    _power_guard(len(dom0), n, "strategy profiles")
    # the sorted cost domain: valuation position p is cost position d - 1 - p
    cost = tuple(-v for v in reversed(dom0))
    nodes: dict[int, QueryNode | LeafNode] = {}
    _grow(_Elimination(ps, dom0), 0, nodes, {}, {}, cost)
    return ImplementationTree(n, [cost] * n, 0, nodes)


def _grow(
    state: _Elimination, nid: int, nodes: dict, seen: dict, made: dict, cost
) -> int:
    # module-level for the reason given at model._from_nested; numbers the
    # subtree of `state` from nid on and returns one past its last id.
    # `seen` maps a query state's key to the id range of its first subtree;
    # `made` holds one blocks tuple per asked position and ends of the
    # rest, keyed (pos, lo, hi), and one outcome per chosen set, keyed by
    # its mask
    if state.query is None:
        outcome = made.get(state.ch)
        if outcome is None:
            n = state.ps.ground_size
            outcome = made[state.ch] = tuple(state.ch >> j & 1 for j in range(n))
        nodes[nid] = LeafNode(nid, outcome, None)
        return nid + 1
    key = state.key()
    first = seen.get(key)
    if first is not None:
        start, end = first
        shift = nid - start
        for old in range(start, end):
            node = nodes[old]
            if node.kind == "leaf":
                nodes[old + shift] = LeafNode(old + shift, node.outcome, None)
            else:
                yes, no = node.children
                nodes[old + shift] = QueryNode(
                    old + shift, node.agent, node.blocks, (yes + shift, no + shift)
                )
        return nid + end - start
    agent, direction, pos, snap = state.query
    no = state.copy()
    state.step(True)
    no_id = _grow(state, nid + 1, nodes, seen, made, cost)
    no.step(False)
    end = _grow(no, no_id, nodes, seen, made, cost)
    # the asked position is an end of the snapshot, a run of consecutive
    # positions, so the rest of it is a run too
    lo, hi = (snap[1], snap[-1]) if direction == "bottom" else (snap[0], snap[-2])
    blocks = made.get((pos, lo, hi))
    if blocks is None:
        d = len(cost)
        blocks = (cost[d - 1 - pos : d - pos], cost[d - 1 - hi : d - lo])
        made[pos, lo, hi] = blocks
    nodes[nid] = QueryNode(nid, agent, blocks, (nid + 1, no_id))
    seen[key] = (nid, end)
    return end


def is_revealable(tree: ImplementationTree, node_id: int) -> bool:
    """Whether the queried agent's outcome is already pinned on one side.

    True when every available profile with her cost below the current
    maximum is allocated, or every profile with her cost above the
    current minimum is rejected.
    """
    require_valid(tree)
    node = tree.node(node_id)
    if node.kind != "query":
        raise MechanismError("revealability is a query-node property")
    agent = node.agent
    own = tree.mask_at[node_id][agent]
    lowest, highest = own & -own, 1 << own.bit_length() >> 1
    low_won, high_lost = True, True
    for leaf in tree.leaves_under[node_id]:
        out = tree.nodes[leaf].outcome[agent]
        box = tree.mask_at[leaf]
        if box[agent] & -box[agent] < highest and out != 1:
            low_won = False
        if box[agent] > lowest and out != 0:
            high_lost = False
    return low_won or high_lost


class TwoWayReport(Verdict, namedtuple("TwoWayReport", "ok node reason")):
    """Verdict of `is_two_way_greedy`: the first failing query node and
    why, or None twice."""

    __slots__ = ()


def is_two_way_greedy(tree: ImplementationTree) -> TwoWayReport:
    """Check the two-way shape of every query (cost convention).

    Each query must split in two with an extreme singled out: the
    cheapest type on the accepted side (greedy fashion) or the dearest
    on the rejected side (reverse fashion).  An agent may change fashion
    along a path only where her domain is revealable.
    """
    require_valid(tree)
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
        own = tree.mask_at[nid][node.agent]
        readings = []
        for idx, m in enumerate(tree.block_masks[nid]):
            won = side_outcomes(node.children[idx], node.agent)
            if m == own & -own and won == {1}:
                readings.append("greedy")
            if m == 1 << own.bit_length() >> 1 and won == {0}:
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
    """Merge consecutive same-agent queries into multi-block queries.
    Nodes are renumbered in preorder."""
    require_valid(tree)
    nodes: dict[int, QueryNode | LeafNode] = {}
    root = _compressed(tree, tree.root, nodes, itertools.count())
    return ImplementationTree(tree.agents, tree.domains, root, nodes)


def _compressed(tree: ImplementationTree, nid: int, nodes: dict, counter) -> int:
    # module-level for the reason given at model._from_nested
    fresh = next(counter)
    node = tree.nodes[nid]
    if node.kind == "leaf":
        nodes[fresh] = LeafNode(fresh, node.outcome, node.payment)
        return fresh
    # splice each same-agent child query in at its place, left to right;
    # a query that merges nothing keeps its blocks tuple, shared with the
    # other nodes that hold it
    blocks, kids = tuple(node.blocks), tuple(node.children)
    idx = 0
    while idx < len(kids):
        sub = tree.nodes[kids[idx]]
        if sub.kind == "query" and sub.agent == node.agent:
            blocks = blocks[:idx] + tuple(sub.blocks) + blocks[idx + 1 :]
            kids = kids[:idx] + tuple(sub.children) + kids[idx + 1 :]
        else:
            idx += 1
    children = tuple(_compressed(tree, cid, nodes, counter) for cid in kids)
    nodes[fresh] = QueryNode(fresh, node.agent, blocks, children)
    return fresh


def serialize(tree: ImplementationTree) -> ImplementationTree:
    """Rewrite every query as binary extreme-singleton splits.

    Multi-block queries are peeled one cheapest value at a time; splits
    that are already binary with an extreme singled out pass through.
    Leaf routing is preserved exactly.  Nodes are numbered in preorder.
    """
    require_valid(tree)
    nodes: dict[int, QueryNode | LeafNode] = {}
    root = _narrowed(tree, tree.root, {}, nodes, itertools.count())
    return ImplementationTree(tree.agents, tree.domains, root, nodes)


def _narrowed(tree: ImplementationTree, nid: int, allow, nodes: dict, counter):
    # module-level for the reason given at model._from_nested; ``allow``
    # maps an agent to the mask of her types still open on this path
    node = tree.nodes[nid]
    if node.kind == "leaf":
        fresh = next(counter)
        nodes[fresh] = LeafNode(fresh, node.outcome, node.payment)
        return fresh
    agent = node.agent
    own = allow.get(agent, tree.mask_at[nid][agent])
    kids = zip(tree.block_masks[nid], node.children)
    pairs = [(m & own, cid) for m, cid in kids if m & own]
    if len(pairs) == 1:
        [(m, cid)] = pairs
        return _narrowed(tree, cid, {**allow, agent: m}, nodes, counter)
    low, high = own & -own, 1 << own.bit_length() >> 1
    if len(pairs) != 2 or not any(m in (low, high) for m, _ in pairs):
        # peel the cheapest type off; the rest is asked here again
        target = next(cid for m, cid in pairs if m & low)
        pairs = [(low, target), (own ^ low, nid)]
    fresh = next(counter)
    children = tuple(
        _narrowed(tree, cid, {**allow, agent: m}, nodes, counter) for m, cid in pairs
    )
    blocks = tuple(types_of(tree, agent, m) for m, _ in pairs)
    nodes[fresh] = QueryNode(fresh, agent, blocks, children)
    return fresh


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
    n = as_integer(n)
    if n < 1:
        raise MechanismError("at least one agent is required")
    # cost[i] is the cost type of the i-th smallest valuation
    cost = tuple(-v for v in _valuation_domain(domain))
    _power_guard(len(cost), n, "strategy profiles")
    nodes: dict[int, QueryNode | LeafNode] = {}
    root = _clock(cost, tuple(range(n)), (0,) * n, (), -1, nodes, itertools.count())
    return ImplementationTree(n, [cost] * n, root, nodes)


def _clock(cost, available, lo, queue, clock, nodes: dict, counter) -> int:
    # module-level for the reason given at model._from_nested; lo[j] is
    # one past the last clock position agent j answered no to
    if len(available) > 1:
        queue = tuple(j for j in queue if j in available)
        if not queue:
            clock += 1
            queue = tuple(sorted(available, reverse=True))
    nid = next(counter)
    if len(available) == 1 or clock > len(cost) - 2:
        n = len(lo)
        winner = min(available)
        pay = [Fraction(0)] * n
        pay[winner] = cost[lo[winner] - 1] if lo[winner] else cost[0]
        outcome = tuple(1 if j == winner else 0 for j in range(n))
        nodes[nid] = LeafNode(nid, outcome, tuple(pay))
        return nid
    agent = queue[0]
    yes_id = _clock(
        cost, tuple(a for a in available if a != agent), lo, queue[1:], clock,
        nodes, counter,
    )
    lo2 = list(lo)
    lo2[agent] = clock + 1
    no_id = _clock(cost, available, tuple(lo2), queue[1:], clock, nodes, counter)
    blocks = ((cost[clock],), tuple(reversed(cost[clock + 1 :])))
    nodes[nid] = QueryNode(nid, agent, blocks, (yes_id, no_id))
    return nid


def _optimum(masks, n: int, ints: list[int]) -> list[int]:
    """Best welfare of any of the maximal sets ``masks`` at every
    valuation profile of n agents, each agent's valuations being
    ``ints``; the column is indexed as ``approx_ratio``'s.

    One max-plus pass, agent by agent.  After agents 0..j-1 a state is
    the family of suffixes ``t >> j`` of the maximal sets t that agree
    with one choice of those agents' bits, and it holds the best welfare
    of such a choice on every profile of those agents.  Agent j splits
    each state by bit j and extends its column by the valuations or by
    zeros; states that land on one family are merged by elementwise max.
    That is exact: two choices with the same family have the same
    completions, so the one that is worse on a profile stays worse on
    every extension of it.  The states of a layer partition the maximal
    sets, so a layer builds at most one column per maximal set, and at
    most r + 1 on a uniform system of rank r (the family depends only on
    how many bits were chosen).  After n agents one state is left, {0}.
    """
    zeros = [0] * len(ints)
    states = {frozenset(masks): [0]}
    for _ in range(n):
        merged: dict[frozenset, list[int]] = {}
        for family, col in states.items():
            ones = frozenset([s >> 1 for s in family if s & 1])
            if not ones:
                split = ((frozenset([s >> 1 for s in family]), zeros),)
            elif len(ones) == len(family):
                split = ((ones, ints),)
            else:
                rest = frozenset([s >> 1 for s in family if not s & 1])
                split = ((rest, zeros), (ones, ints))
            for sub, add in split:
                ext = [c + v for c in col for v in add]
                have = merged.get(sub)
                # a comparison per entry: map(max, ...) pays a call for each
                merged[sub] = (
                    ext if have is None
                    else [a if a >= b else b for a, b in zip(have, ext)]
                )
        states = merged
    (best,) = states.values()
    return best


def approx_ratio(ps: PSystem, tree: ImplementationTree, domain):
    """Worst welfare ratio of the tree's allocation against the optimum.

    The tree is in the cost convention; ``domain`` lists the valuations.
    Returns (ratio, worst valuation profile); the witness is the first
    worst profile in ``itertools.product`` order of the sorted domain.
    Needs binary outcomes.

    Works in columns over the whole valuation product, each indexed in
    that order (mixed radix, the last agent's digit fastest).  The
    optimum column comes from ``_optimum``'s layered pass over the
    maximal sets, which costs the family's width times d**n, and the
    tree's welfare column is filled from its leaf boxes, a one-type
    coordinate adding a scalar offset.  So memory is O(d**n), a few int
    lists of that length.  Welfare is summed on ints, the valuations
    scaled by their least common denominator, and ratios are compared by
    cross-multiplication over a positive denominator.
    """
    require_valid(tree)
    require_binary_outcomes(tree)
    n = ps.ground_size
    if tree.agents != n:
        raise MechanismError("tree and system disagree on the number of agents")
    dom0 = _valuation_domain(domain)
    cost_dom = tuple(sorted(-v for v in dom0))
    for dm in tree.domains:
        if tuple(dm) != cost_dom:
            raise MechanismError("tree domain does not mirror the valuation domain")
    d = len(dom0)
    _power_guard(d, n, "valuation profiles")
    lcd = lcm(*(v.denominator for v in dom0))
    ints = [v.numerator * (lcd // v.denominator) for v in dom0]
    zeros = [0] * d
    best = _optimum(ps._masks(), n, ints)
    # the cost type at position p is the valuation at position d - 1 - p
    place = [d ** (n - 1 - j) for j in range(n)]
    got = [0] * d**n
    for leaf in tree.leaf_ids:
        won = tree.winners[leaf]
        base = worth = 0
        at, val = [0], [0]
        for j, m in enumerate(tree.mask_at[leaf]):
            if m & (m - 1):
                pos = [d - 1 - p for p in bits(m)]
                adds = [ints[p] for p in pos] if won >> j & 1 else zeros[: len(pos)]
                at = [a + p * place[j] for a in at for p in pos]
                val = [v + w for v in val for w in adds]
            else:  # one type: a scalar offset
                p = d - m.bit_length()
                base += p * place[j]
                worth += ints[p] if won >> j & 1 else 0
        for a, v in zip(at, val):
            got[base + a] = worth + v
    # the first index of the least ratio, from 1/0 standing for +infinity
    wnum, wden, worst = 1, 0, 0
    for i, (g, b) in enumerate(zip(got, best)):
        num, den = (g, b) if b > 0 else (-g, -b) if b else (1, 1)
        if num * wden < wnum * den:
            wnum, wden, worst = num, den, i
    at = []
    for _ in range(n):
        worst, p = divmod(worst, d)
        at.append(dom0[p])
    return Fraction(wnum, wden), tuple(reversed(at))


class SearchResult(Verdict, namedtuple("SearchResult", "found tree ratio explored")):
    """The `tree` found and its worst `ratio` (a Fraction), or None
    twice, and how many states the search `explored`."""

    __slots__ = ()


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

    The states hold valuations; the nodes are emitted in the cost
    convention, with negated blocks, so the tree is built once.
    """
    dom0 = _valuation_domain(domain)
    if ps.ground_size != 2 or len(dom0) > 4:
        raise MechanismError("search is limited to two agents and four types")
    kk = normalize_horizon(k)
    target = parse_rational(target_ratio)
    space = _Space(ps, dom0, kk, target, greedy_outcome)
    # the empty set is feasible, so some maximal set survives: no raise
    root = ((dom0, dom0), (None, None), (0, 0), None, *_forced(ps, 0, 0))
    nested = _search(space, root)
    if nested is None:
        return SearchResult(False, None, None, space.explored)
    tree = tree_from_nested(2, [space.cost_dom] * 2, nested)
    ratio, _ = approx_ratio(ps, tree, dom0)
    assert is_two_way_greedy(tree) and is_k_limitable(tree, kk) and ratio >= target
    return SearchResult(True, tree, ratio, space.explored)


class _Space:
    """The constants, caches and memo of one `search_two_way_greedy` run."""

    def __init__(self, ps: PSystem, dom0, kk, target, greedy_outcome: bool):
        self.ps, self.kk, self.target = ps, kk, target
        self.greedy_outcome, self.maximal = greedy_outcome, ps._masks()
        cost_dom = self.cost_dom = tuple(sorted(-v for v in dom0))
        self.cost_at = {v.as_integer_ratio(): p for p, v in enumerate(cost_dom)}
        self.best, self.greedy, self.memo = {}, {}, {}  # keyed by profile, state
        self.explored = 0

    def opt(self, prof) -> Fraction:
        if prof not in self.best:
            self.best[prof] = max(_welfare(prof, t) for t in self.maximal)
        return self.best[prof]

    def greedy_out(self, prof) -> int:
        if prof not in self.greedy:
            self.greedy[prof] = _mask(forward_greedy_solution(self.ps, prof))
        return self.greedy[prof]

    def meets(self, t: int, prof) -> bool:
        """Whether allocating maximal set t at valuation profile prof
        meets the target (and is the greedy outcome, when asked)."""
        if self.greedy_outcome and t != self.greedy_out(prof):
            return False
        best = self.opt(prof)
        return (Fraction(1) if best == 0 else _welfare(prof, t) / best) >= self.target


def _welfare(prof, t: int) -> Fraction:
    return sum((prof[e] for e in bits(t)), Fraction(0))


def _put(seq: tuple, i: int, value) -> tuple:
    return seq[:i] + (value,) + seq[i + 1 :]


def _leaf_values(nested, agent: int) -> set[int]:
    # module-level for the reason given at model._from_nested
    if nested[0] == "leaf":
        return {nested[1][agent]}
    return set().union(*(_leaf_values(sub, agent) for _, sub in nested[2]))


def _extra_allowed(space: _Space, agent: int, doms, node) -> bool:
    # the budget check's forms, asked of the candidate (cost domains
    # `doms`, cost node `node`) with her types placed in the full cost domain
    cand = tree_from_nested(2, doms, node)
    rows, levels, _ = _value_table(cand, cand.root)

    def mask(values) -> int:
        return sum(1 << space.cost_at[v.as_integer_ratio()] for v in values)

    blocks = tuple(mask(values) for values, _ in node[2])
    qc = query_class(
        cand.root, agent, space.cost_dom, mask(doms[agent]), blocks, rows, levels
    )
    return qc.extra_allowed


def _search(space: _Space, state):
    # module-level for the reason given at model._from_nested
    if state in space.memo:
        return space.memo[state]
    space.explored += 1
    result = _leaf(space, state)
    if result is None:
        result = next(_queries(space, state), None)
    space.memo[state] = result
    return result


def _leaf(space: _Space, state):
    # the first surviving maximal set that meets the target on the box
    doms, _, _, _, ch, ex = state
    for t in space.maximal:
        box = itertools.product(*doms)
        if t & ch == ch and not t & ex and all(space.meets(t, p) for p in box):
            return ("leaf", tuple(t >> j & 1 for j in range(2)), None)
    return None


def _queries(space: _Space, state):
    # the queries whose subtrees meet the target, agent 0 first; a query
    # that makes her run count k + 2 must take an allowed extra form
    doms, _, runs, last, ch, ex = state
    cost_doms = tuple(tuple(-v for v in d) for d in doms)
    for agent in (0, 1):
        nruns = runs[agent] + (0 if last == agent else 1)
        if len(doms[agent]) < 2 or (ch | ex) >> agent & 1 or nruns > space.kk + 2:
            continue
        moves = _peels if len(doms[agent]) > 2 else _reveals
        for node in moves(space, state, agent, _put(runs, agent, nruns)):
            if nruns < space.kk + 2 or _extra_allowed(space, agent, cost_doms, node):
                yield node


def _peels(space: _Space, state, agent: int, runs):
    # single out her highest valuation (greedy: a yes chooses her) or her
    # lowest (reverse: a yes excludes her), in her fixed fashion, if any
    doms, dirs, _, _, ch, ex = state
    own = doms[agent]
    for fashion in ("greedy", "reverse"):
        if dirs[agent] not in (None, fashion):
            continue
        if fashion == "greedy":
            head, rest = own[-1], own[:-1]
            ch2 = ch | 1 << agent
            ex2 = ex | _forced(space.ps, ch2, ex)[1]
        else:
            head, rest = own[0], own[1:]
            ex2 = ex | 1 << agent
            ch2 = ch | _forced(space.ps, ch, ex2)[0]
        dirs2 = _put(dirs, agent, fashion)
        yes_doms, no_doms = _put(doms, agent, (head,)), _put(doms, agent, rest)
        yes = _search(space, (yes_doms, dirs2, runs, agent, ch2, ex2))
        if yes is None:
            continue
        no = _search(space, (no_doms, dirs2, runs, agent, ch, ex))
        if no is not None:
            yield ("q", agent, [((-head,), yes), (tuple(-v for v in rest), no)])


def _reveals(space: _Space, state, agent: int, runs):
    # ask which of her two values she holds: a two-way split when her
    # higher value always wins or her lower one always loses
    doms, dirs, _, _, ch, ex = state
    lo, hi = doms[agent]
    low = _search(space, (_put(doms, agent, (lo,)), dirs, runs, agent, ch, ex))
    high = _search(space, (_put(doms, agent, (hi,)), dirs, runs, agent, ch, ex))
    if low is None or high is None:
        return
    if _leaf_values(high, agent) == {1} or _leaf_values(low, agent) == {0}:
        yield ("q", agent, [((-lo,), low), ((-hi,), high)])
