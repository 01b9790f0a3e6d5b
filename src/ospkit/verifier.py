"""Incentive verification for implementation trees at a commitment horizon.

`check_k_step_osp` tests the pairwise payment inequalities that
characterize truthful play under k-step planning: whenever two profiles
part ways at a query node, every type the agent may still believe
possible must weakly prefer her own branch.  Every constraint belongs to
one ordered leaf pair below one divergence node.  The checker finds all
commitment sets in one pass over the leaves' root paths, then decides
each node from each child's largest payment per outcome level, and lists
leaf pairs one by one only in the rows where that envelope shows a gain;
reported witnesses are concrete profile pairs.

The remaining entry points probe structure rather than payments: the
ordering of commitment ranges across branches, the taxonomy of a single
query, per-path query budgets, taxation patterns forced by third types,
and the rewrite that turns the last allowed query into a revelation.
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
    scale_guard,
)
from .rational import Rat, format_rational


def require_binary_outcomes(tree: ImplementationTree) -> None:
    for nid in tree.leaf_ids:
        for v in tree.nodes[nid].outcome:
            if v != 0 and v != 1:
                raise MechanismError(
                    f"leaf {nid} has non-binary outcome {v}; "
                    "this analysis needs 0/1 outcomes"
                )


def _path_from(tree: ImplementationTree, top: int, leaf_id: int) -> list[int]:
    path = [leaf_id]
    nid = leaf_id
    while nid != top:
        nid = tree.parent.get(nid)
        if nid is None:
            raise MechanismError(f"node {leaf_id} is not below node {top}")
        path.append(nid)
    path.reverse()
    return path


def commitment_types(tree: ImplementationTree, node_id: int, leaf_id: int, k):
    """Types the agent queried at node_id may still hold, k own moves into
    a plan that ends at leaf_id: her domain just after the k-th later
    query to her on that path (the leaf's domain when fewer remain)."""
    k = normalize_horizon(k)
    node = tree.nodes[node_id]
    if not isinstance(node, QueryNode):
        raise MechanismError(f"node {node_id} is not a query node")
    i = node.agent
    path = _path_from(tree, node_id, leaf_id)
    h = leaf_id
    if k != inf:
        seen = 0
        for nid in path[1:]:
            if seen == k:
                h = nid
                break
            sub = tree.nodes[nid]
            if isinstance(sub, QueryNode) and sub.agent == i:
                seen += 1
    return tree.domain_at[h][i]


def _commitment_sets(tree: ImplementationTree, k) -> dict[int, dict[int, tuple]]:
    """Every commitment set at once: sets[u][leaf] is
    `commitment_types(tree, u, leaf, k)` for each query node u and each
    leaf below it.

    Walks each leaf's root path once.  Where u is the m-th query to agent
    i on that path, the set is i's domain at the node just after the
    (m+k)-th query to i, or at the leaf when fewer queries remain."""
    sets: dict[int, dict[int, tuple]] = {u: {} for u in tree.internal_ids}
    for leaf in tree.leaf_ids:
        path = []
        nid = leaf
        while nid is not None:
            path.append(nid)
            nid = tree.parent[nid]
        path.reverse()
        asked: dict[int, list[int]] = {}  # agent -> path positions of her queries
        for pos in range(len(path) - 1):
            asked.setdefault(tree.nodes[path[pos]].agent, []).append(pos)
        for i, positions in asked.items():
            for m, pos in enumerate(positions):
                end = m + k
                h = leaf if end >= len(positions) else path[positions[end] + 1]
                sets[path[pos]][leaf] = tree.domain_at[h][i]
    return sets


@dataclass(frozen=True)
class Constraint:
    """One violated inequality: type c at the divergence node would gain
    lhs - rhs > 0 by steering toward profile b's branch instead of a's."""

    agent: int
    node: int
    a: tuple[Rat, ...]
    b: tuple[Rat, ...]
    c: Rat
    lhs: Rat
    rhs: Rat


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    violations: tuple[Constraint, ...]
    truncated: bool
    checked: int

    def __bool__(self) -> bool:
        return self.ok


def _would_gain(dp, df, cmin, cmax) -> bool:
    """Whether some type c in [cmin, cmax] has dp > c * df: the payment
    change dp outweighs the cost change c * df of the outcome change df."""
    if df == 0:
        return dp > 0
    if df > 0:
        return dp > cmin * df
    return dp > cmax * df


def check_k_step_osp(
    tree: ImplementationTree, k, max_violations: int = 1000
) -> CheckResult:
    """Decide k-step obvious strategyproofness of a priced tree.

    Payments must be present at every leaf.  On failure the result
    carries every violated constraint in canonical order (divergence
    node, own child, other child, own leaf, other leaf, type), capped at
    max_violations.  `checked` counts the ordered leaf pairs covered
    before any truncation, the truncating pair included.
    """
    k = normalize_horizon(k)
    missing = [
        nid for nid in tree.leaf_ids if tree.nodes[nid].payment is None
    ]
    if missing:
        raise MechanismError(f"payments missing at leaves {missing[:5]}")

    sets = _commitment_sets(tree, k)
    violations: list[Constraint] = []
    checked = 0
    for u in tree.internal_ids:
        node = tree.nodes[u]
        i = node.agent
        csets = sets[u]
        rows = [
            [
                (leaf, tree.nodes[leaf].outcome[i], tree.nodes[leaf].payment[i])
                for leaf in tree.leaves_under.get(cid, ())
            ]
            for cid in node.children
        ]
        # the largest payment per outcome level below each child: a leaf
        # pair can gain only if its level's maximum gains
        tops = []
        for side in rows:
            top: dict[Rat, Rat] = {}
            for _, f, p in side:
                if f not in top or p > top[f]:
                    top[f] = p
            tops.append(tuple(top.items()))
        for ia, side_a in enumerate(rows):
            for ib, side_b in enumerate(rows):
                if ia == ib:
                    continue
                top_b = tops[ib]
                for la, fa, pa in side_a:
                    cset = csets[la]
                    cmin, cmax = cset[0], cset[-1]
                    if not any(
                        _would_gain(p - pa, f - fa, cmin, cmax) for f, p in top_b
                    ):
                        checked += len(side_b)
                        continue
                    for lb, fb, pb in side_b:
                        checked += 1
                        df = fb - fa
                        dp = pb - pa
                        if not _would_gain(dp, df, cmin, cmax):
                            continue
                        a = tree.box_min(la)
                        b = tree.box_min(lb)
                        for c in cset:
                            rhs = c * df
                            if dp > rhs:
                                violations.append(
                                    Constraint(i, u, a, b, c, dp, rhs)
                                )
                                if len(violations) >= max_violations:
                                    return CheckResult(
                                        False, tuple(violations), True, checked
                                    )
    return CheckResult(not violations, tuple(violations), False, checked)


@dataclass(frozen=True)
class AlmostOrderedResult:
    ok: bool
    witness: tuple | None  # (node, a, b, c, d)

    def __bool__(self) -> bool:
        return self.ok


def is_almost_ordered(tree: ImplementationTree, k) -> AlmostOrderedResult:
    """Check that commitment ranges respect outcomes across branches.

    Whenever profiles a and b part at a node and the agent's outcome at a
    exceeds her outcome at b, every type she might still hold on a's plan
    must lie strictly below every type on b's plan.  The witness quotes
    the node, both profiles, and the two offending types c >= d; it is
    the first failing leaf pair in the order of `check_k_step_osp`.
    """
    k = normalize_horizon(k)
    require_binary_outcomes(tree)
    sets = _commitment_sets(tree, k)
    for u in tree.internal_ids:
        node = tree.nodes[u]
        i = node.agent
        csets = sets[u]
        rows = [
            [
                (leaf, tree.nodes[leaf].outcome[i])
                for leaf in tree.leaves_under.get(cid, ())
            ]
            for cid in node.children
        ]
        # the smallest commitment type over each child's outcome-0 leaves;
        # with binary outcomes only outcome-1 leaves face those
        floors = [
            min((csets[lb][0] for lb, fb in side if fb == 0), default=None)
            for side in rows
        ]
        for ia, side_a in enumerate(rows):
            for ib, side_b in enumerate(rows):
                if ia == ib or floors[ib] is None:
                    continue
                for la, fa in side_a:
                    if fa != 1:
                        continue
                    cmax_a = csets[la][-1]
                    if cmax_a < floors[ib]:
                        continue
                    for lb, fb in side_b:
                        cmin_b = csets[lb][0]
                        if fb == 0 and cmax_a >= cmin_b:
                            return AlmostOrderedResult(
                                False,
                                (
                                    u,
                                    tree.box_min(la),
                                    tree.box_min(lb),
                                    cmax_a,
                                    cmin_b,
                                ),
                            )
    return AlmostOrderedResult(True, None)


def _value_table(tree: ImplementationTree, node_id: int):
    """(f_i, p_i) for every (own type, others' types) available at a query
    node.  Payment-free leaves count as paying zero.

    Splits the node's box down its subtree by each query's blocks, as
    `route` does: a value in two blocks goes to the first, a value in no
    block or an edge to an unknown child raises.  Each leaf fills the
    table with the product of its box."""
    node = tree.nodes[node_id]
    i = node.agent
    dom = tree.domain_at[node_id]
    own = dom[i]
    others = [dom[j] for j in range(tree.agents) if j != i]
    count = len(own)
    for d in others:
        count *= len(d)
    scale_guard(count)
    combos = list(itertools.product(*others))
    table: dict[tuple, tuple[Rat, Rat]] = {}
    if not count:
        return own, combos, table
    for j, d in enumerate(dom):
        for t in d:
            if t not in tree.domains[j]:
                raise MechanismError(f"type {t} not in domain of agent {j}")
    zero = Fraction(0)
    stack = [(node_id, dom)]
    while stack:
        nid, box = stack.pop()
        sub = tree.nodes[nid]
        if isinstance(sub, LeafNode):
            value = (
                sub.outcome[i],
                zero if sub.payment is None else sub.payment[i],
            )
            rest = box[:i] + box[i + 1 :]
            for x in itertools.product(*rest):
                for t in box[i]:
                    table[(t, x)] = value
            continue
        j = sub.agent
        parts: list[list[Rat]] = [[] for _ in sub.blocks]
        for v in box[j]:
            for idx, blk in enumerate(sub.blocks):
                if v in blk:
                    parts[idx].append(v)
                    break
            else:
                raise MechanismError(f"value {v} not in any block of node {nid}")
        for idx, part in enumerate(parts):
            if not part:
                continue
            cid = sub.children[idx] if idx < len(sub.children) else None
            if cid not in tree.parent:
                raise MechanismError(f"walk entered defective edge at node {nid}")
            stack.append((cid, box[:j] + (tuple(part),) + box[j + 1 :]))
    return own, combos, table


@dataclass(frozen=True)
class QueryClass:
    """Shape and effect of one query.

    Shape: revelation (all blocks singleton), extremal side when binary
    with an extreme singled out, prefix/suffix position of the current
    domain within the full one.  Effect: whether answers can still move
    the agent's own outcome or payment, and for which single types."""

    node: int
    agent: int
    is_revelation: bool
    extremal_side: str | None
    is_prefix: bool
    is_suffix: bool
    ineffective: bool
    strongly_ineffective: bool
    only_types: tuple[Rat, ...]
    strongly_only_types: tuple[Rat, ...]
    kind: str


def classify_query(tree: ImplementationTree, node_id: int) -> QueryClass:
    node = tree.nodes[node_id]
    if not isinstance(node, QueryNode):
        raise MechanismError(f"node {node_id} is not a query node")
    i = node.agent
    own, combos, table = _value_table(tree, node_id)

    ineffective = all(
        len({table[(t, x)] for t in own}) == 1 for x in combos
    )
    strongly_ineffective = len(set(table.values())) == 1

    only_types: list[Rat] = []
    strongly_only: list[Rat] = []
    if len(own) >= 2:
        for t in own:
            rest = [s for s in own if s != t]
            per_column = all(
                len({table[(s, x)] for s in rest}) == 1 for x in combos
            )
            if not per_column:
                continue
            effective = any(
                table[(t, x)][0] != table[(rest[0], x)][0] for x in combos
            )
            if not effective:
                continue
            only_types.append(t)
            cross = len({table[(s, x)] for s in rest for x in combos}) == 1
            if cross:
                strongly_only.append(t)

    is_revelation = all(len(b) == 1 for b in node.blocks)
    extremal_side = None
    if len(node.blocks) == 2:
        singles = [b for b in node.blocks if len(b) == 1]
        has_min = any(b == (own[0],) for b in singles)
        has_max = any(b == (own[-1],) for b in singles)
        if has_min and has_max:
            extremal_side = "both"
        elif has_min:
            extremal_side = "min"
        elif has_max:
            extremal_side = "max"

    current = set(own)
    removed = [v for v in tree.domains[i] if v not in current]
    is_prefix = not removed or own[-1] < min(removed)
    is_suffix = not removed or own[0] > max(removed)

    def pick(cands):
        if own[-1] in cands:
            return own[-1]
        if own[0] in cands:
            return own[0]
        return cands[0]

    if strongly_ineffective:
        kind = "StronglyIneffective"
    elif ineffective:
        kind = "Ineffective"
    elif strongly_only:
        kind = f"StronglyOnlyTEffective({format_rational(pick(strongly_only))})"
    elif only_types:
        kind = f"OnlyTEffective({format_rational(pick(only_types))})"
    elif is_revelation:
        kind = "Revelation"
    elif extremal_side:
        kind = "Extremal"
    else:
        kind = "Query"

    return QueryClass(
        node=node_id,
        agent=i,
        is_revelation=is_revelation,
        extremal_side=extremal_side,
        is_prefix=is_prefix,
        is_suffix=is_suffix,
        ineffective=ineffective,
        strongly_ineffective=strongly_ineffective,
        only_types=tuple(only_types),
        strongly_only_types=tuple(strongly_only),
        kind=kind,
    )


@dataclass(frozen=True)
class KLimitedResult:
    ok: bool
    witness: int | None
    reason: str | None

    def __bool__(self) -> bool:
        return self.ok


def is_k_limited(tree: ImplementationTree, k) -> KLimitedResult:
    """Per-path query budgets: at most k+1 queries per agent, or k+2 when
    the last one has one of the allowed harmless forms (a strongly
    ineffective revelation, a strongly only-extreme revelation, or an
    only-extreme extremal step, on a two-type, prefix or suffix domain).
    Needs binary outcomes."""
    k = normalize_horizon(k)
    require_binary_outcomes(tree)
    if k == inf:
        return KLimitedResult(True, None, None)
    for u in tree.internal_ids:
        node = tree.nodes[u]
        i = node.agent
        nth = tree.query_depth[u][i]
        if nth <= k + 1:
            continue
        if nth >= k + 3:
            return KLimitedResult(
                False, u, f"query number {nth} to agent {i} on a single path"
            )
        qc = classify_query(tree, u)
        own = tree.domain_at[u][i]
        sep_max = qc.extremal_side in ("max", "both")
        sep_min = qc.extremal_side in ("min", "both")
        top_form = (len(own) == 2 or qc.is_prefix) and (
            (qc.is_revelation and qc.strongly_ineffective)
            or (qc.is_revelation and own[-1] in qc.strongly_only_types)
            or (sep_max and own[-1] in qc.only_types)
        )
        bottom_form = qc.is_suffix and (
            (qc.is_revelation and qc.strongly_ineffective)
            or (qc.is_revelation and own[0] in qc.strongly_only_types)
            or (sep_min and own[0] in qc.only_types)
        )
        if not (top_form or bottom_form):
            return KLimitedResult(
                False,
                u,
                f"extra query to agent {i} is not of an allowed form",
            )
    return KLimitedResult(True, None, None)


@dataclass(frozen=True)
class TaxationFinding:
    node: int
    agent: int
    a: tuple[Rat, ...]
    c: Rat
    d: Rat
    case: str
    detail: str


def taxation_diagnostics(
    tree: ImplementationTree, k, max_findings: int = 200
) -> list[TaxationFinding]:
    """Equalities forced on any k-step obviously strategyproof tree by
    ordered type triples that stay jointly plausible.

    For a profile a and two larger commitment types c < d that share a's
    plan at a query node, a later query separating the triple pins their
    outcomes together depending on which outside types survive alongside:
    an outside type between a and d (or one on each side) forces all
    three to identical (f, p); one above d ties a to c; one below a ties
    c to d.  Violations are structural evidence against k-step
    obviousness even before payments are checked in full."""
    k = normalize_horizon(k)
    require_binary_outcomes(tree)
    findings: list[TaxationFinding] = []
    for u in tree.internal_ids:
        node = tree.nodes[u]
        i = node.agent
        for a in tree.available_profiles(u):
            walk = [u]
            nid = u
            while not tree.is_leaf(nid):
                sub = tree.nodes[nid]
                nid = sub.children[tree.route(nid, a[sub.agent])]
                walk.append(nid)
            cset = commitment_types(tree, u, walk[-1], k)
            larger = [v for v in cset if v > a[i]]
            for ci, di in itertools.combinations(larger, 2):
                found = _taxation_case(tree, u, i, a, ci, di)
                if found is not None:
                    findings.append(found)
                    if len(findings) >= max_findings:
                        return findings
    return findings


def _taxation_case(tree, u, i, a, ci, di):
    trips = (a[i], ci, di)
    nid = u
    split = None
    while True:
        sub = tree.nodes[nid]
        if isinstance(sub, LeafNode):
            break
        if sub.agent == i:
            routes = {tree.route(nid, v) for v in trips}
            if len(routes) > 1:
                split = nid
                break
            nid = sub.children[tree.route(nid, trips[0])]
        else:
            nid = sub.children[tree.route(nid, a[sub.agent])]
    if split is None:
        return None

    outside: set[Rat] = set()
    nid = u
    while True:
        sub = tree.nodes[nid]
        if sub.agent == i:
            for blk in sub.blocks:
                if not set(blk) & set(trips):
                    outside.update(blk)
        if nid == split:
            break
        nid = sub.children[tree.route(nid, a[sub.agent])]

    top = any(v > di for v in outside)
    bottom = any(v < a[i] for v in outside)
    inner = any(a[i] < v < di for v in outside)

    def fp(own):
        prof = list(a)
        prof[i] = own
        leaf = tree.leaf_of(tuple(prof))
        pay = Fraction(0) if leaf.payment is None else leaf.payment[i]
        return (leaf.outcome[i], pay)

    va, vc, vd = fp(a[i]), fp(ci), fp(di)
    if inner or (top and bottom):
        if not (va == vc == vd):
            return TaxationFinding(
                u, i, a, ci, di, "all_equal",
                f"outcomes {va}, {vc}, {vd} must coincide",
            )
    elif top:
        if va != vc:
            return TaxationFinding(
                u, i, a, ci, di, "lower_pair",
                f"outcomes {va} and {vc} must coincide",
            )
    elif bottom:
        if vc != vd:
            return TaxationFinding(
                u, i, a, ci, di, "upper_pair",
                f"outcomes {vc} and {vd} must coincide",
            )
    return None


@dataclass(frozen=True)
class PoolingFinding:
    node: int
    agent: int
    t1: Rat
    t2: Rat
    detail: str


def strong_ineffectiveness_check(
    tree: ImplementationTree, max_findings: int = 200
) -> list[PoolingFinding]:
    """Types separated by a query yet sharing outcomes pointwise must
    share them jointly: identical f against every opponent profile
    forces one constant (f, p) across both branches.  Violations break
    obvious strategyproofness at any horizon."""
    require_binary_outcomes(tree)
    findings: list[PoolingFinding] = []
    for u in tree.internal_ids:
        node = tree.nodes[u]
        i = node.agent
        own, combos, table = _value_table(tree, u)
        for t1, t2 in itertools.combinations(own, 2):
            if tree.route(u, t1) == tree.route(u, t2):
                continue
            if any(table[(t1, x)][0] != table[(t2, x)][0] for x in combos):
                continue
            pooled = {table[(t1, x)] for x in combos}
            pooled |= {table[(t2, x)] for x in combos}
            if len(pooled) > 1:
                findings.append(
                    PoolingFinding(
                        u, i, t1, t2,
                        "pointwise equal outcomes but differing pairs "
                        f"{sorted(pooled)}",
                    )
                )
                if len(findings) >= max_findings:
                    return findings
    return findings


def reveal_at_k2(tree: ImplementationTree, k) -> ImplementationTree:
    """Rewrite each path's (k+2)-th query to an agent into a revelation.

    The rewritten node must already be harmless (strongly ineffective,
    or strongly only-extreme effective); queries to the same agent
    deeper on the path are spliced out by following the revealed type.
    Computed outcomes and payments are unchanged on every profile.  A
    node that is already a revelation passes through untouched.
    """
    k = normalize_horizon(k)
    if k == inf:
        return tree
    counter = itertools.count()
    nodes: dict[int, QueryNode | LeafNode] = {}

    def emit(nid: int, forced: dict[int, Rat]) -> int:
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            fresh = next(counter)
            nodes[fresh] = LeafNode(
                id=fresh, outcome=node.outcome, payment=node.payment
            )
            return fresh
        if node.agent in forced:
            idx = tree.route(nid, forced[node.agent])
            return emit(node.children[idx], forced)
        nth = tree.query_depth[nid][node.agent]
        already = all(len(b) == 1 for b in node.blocks)
        if nth == k + 2 and not already:
            qc = classify_query(tree, nid)
            own = tree.domain_at[nid][node.agent]
            allowed = (
                qc.strongly_ineffective
                or own[0] in qc.strongly_only_types
                or own[-1] in qc.strongly_only_types
            )
            if not allowed:
                raise MechanismError(
                    f"node {nid}: query {nth} to agent {node.agent} is "
                    "neither strongly ineffective nor strongly only-extreme "
                    "effective; cannot rewrite to a revelation"
                )
            fresh = next(counter)
            nodes[fresh] = None  # reserve slot, fill after children
            blocks = []
            children = []
            for t in own:
                idx = tree.route(nid, t)
                sub_forced = dict(forced)
                sub_forced[node.agent] = t
                blocks.append((t,))
                children.append(emit(node.children[idx], sub_forced))
            nodes[fresh] = QueryNode(
                id=fresh,
                agent=node.agent,
                blocks=tuple(blocks),
                children=tuple(children),
            )
            return fresh
        fresh = next(counter)
        nodes[fresh] = None
        children = tuple(emit(c, forced) for c in node.children)
        nodes[fresh] = QueryNode(
            id=fresh, agent=node.agent, blocks=node.blocks, children=children
        )
        return fresh

    root = emit(tree.root, {})
    return ImplementationTree(tree.agents, tree.domains, root, nodes)
