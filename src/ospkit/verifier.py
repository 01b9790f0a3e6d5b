"""Incentive verification for implementation trees at a commitment horizon.

`check_k_step_osp` tests the pairwise payment inequalities that
characterize truthful play under k-step planning: whenever two profiles
part ways at a query node, every type the agent may still believe
possible must weakly prefer her own branch.  Every constraint belongs to
one ordered leaf pair below one divergence node.  The checker finds all
commitment sets in one walk up from each leaf, then decides each node
from each child's largest payment per outcome level.  Against that
envelope, a leaf with outcome fa and commitment types cmin..cmax gains
exactly when its payment lies below the bound max over levels (f, p) of
p - c * (f - fa), with c = cmin above fa and cmax below it; the bound is
computed once per (fa, commitment set) and child pair.  Leaf pairs are
listed one by one only for the leaves under their bound; reported
witnesses are concrete profile pairs.

The remaining entry points probe structure rather than payments: the
ordering of commitment ranges across branches, the taxonomy of a single
query, per-path query budgets, taxation patterns forced by third types,
and the rewrite that turns the last allowed query into a revelation.
`query_class` states the allowed forms of an extra query once, as a
function of the query's parts.  It is read by `is_k_limited`,
`reveal_at_k2` and `cmon`, all through `_past_budget`, the one walk over
the queries past an agent's budget, and by the search in `greedy`.  The
walk classifies each distinct subtree (`ImplementationTree.shapes`)
once: a (k+2)-th query whose subtree matches an earlier one's takes
that query's class, after the scale guard has passed its own box.

All of it runs on type positions and masks (`model`): commitment sets
are masks, payments compare as ints scaled by common denominators, and
a query's value table, filled from the boxes of the leaves below it
(`ImplementationTree.mask_at`), numbers each distinct (f, p).  Fractions
are built only for what a result reports.  Every entry point refuses a
malformed tree (`model.require_valid`) before it reads a box.

The commitment sets of one tree and horizon are built once and kept on
the tree, so `check_k_step_osp`, `is_almost_ordered` and
`taxation_diagnostics` share them.  The pooling check tabulates a query
only when the table can matter: two types with equal outcome rows win
on as many opponent profiles, so it first adds up each type's wins over
the leaf boxes and compares rows only for types in different blocks
whose counts tie.

A result costs what it reports.  `check_k_step_osp` builds each field
of a violation once per call: a leaf's corner the first time a
violation names the leaf, lhs once per scaled payment gap, rhs once per
(type, scaled outcome gap).  `taxation_diagnostics` fills one
profile -> leaf map per call, a leaf's box the first time a node above
it is visited, and at each node expands only the leaves whose
commitment set holds two types above one of the leaf's own types, once
the scale guard passes the node's count of (profile, c, d) triples and
only if the leaves below the node differ in the agent's (f, p); it
sorts the node's findings by (profile, c, d), the order of a walk over
the node's whole box, so a cap cuts at the same finding.  A triple's
split is the lowest node above a's leaf whose box holds all three
types; the outside types, those the queries from the node down to the
split set apart from all three, are read off the two nodes' masks and
the split's blocks.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from math import inf, lcm, prod

from .model import (
    ImplementationTree,
    LeafNode,
    MechanismError,
    QueryNode,
    Record,
    Verdict,
    bits,
    normalize_horizon,
    require_binary_outcomes,
    require_valid,
    scale_guard,
)
from .rational import Rat, format_rational

_ZERO = Fraction(0)


def _commitment_sets(tree: ImplementationTree, k) -> dict[int, dict[int, int]]:
    """Every commitment set at once: sets[u][leaf] is the mask of the
    types the agent queried at u may still hold, k own moves into a plan
    that ends at the leaf, for each query node u and each leaf below it.

    Walks up once from each leaf, keeping per agent the masks just after
    each of her queries met so far, the lowest first.  At u, the last of
    them is u's own; the set is the one k places before it, or the
    lowest (the leaf's) when fewer queries to her lie below.

    Built once per tree and horizon, kept in `tree.commitments` and
    shared by every caller, which only reads it.  A horizon at or beyond
    the most queries to one agent on a path reaches every leaf, so it
    shares the entry of inf."""
    if k >= max(map(max, tree.query_depth.values())):
        k = inf
    if k in tree.commitments:
        return tree.commitments[k]
    nodes, parent, mask_at = tree.nodes, tree.parent, tree.mask_at
    sets: dict[int, dict[int, int]] = {u: {} for u in tree.internal_ids}
    for leaf in tree.leaf_ids:
        seen: dict[int, list[int]] = {}  # agent -> masks after her queries
        below, nid = leaf, parent[leaf]
        while nid is not None:
            i = nodes[nid].agent
            after = seen.setdefault(i, [])
            after.append(mask_at[below][i])
            sets[nid][leaf] = after[max(len(after) - 1 - k, 0)]
            below, nid = nid, parent[nid]
    tree.commitments[k] = sets
    return sets


def _scaled(values) -> tuple[list[int], int]:
    """The values times their least common denominator, and that lcd."""
    ratios = [v.as_integer_ratio() for v in values]
    lcd = lcm(*(d for _, d in ratios))
    return [n * (lcd // d) for n, d in ratios], lcd


def _pair(tree: ImplementationTree, leaf: int, agent: int) -> tuple[Rat, Rat]:
    """The agent's (f, p) at the leaf; a payment-free leaf pays zero."""
    node = tree.nodes[leaf]
    return node.outcome[agent], _ZERO if node.payment is None else node.payment[agent]


class Constraint(Record, namedtuple("Constraint", "agent node a b c lhs rhs")):
    """One violated inequality: type c at the divergence node would gain
    lhs - rhs > 0 by steering toward profile b's branch instead of a's.
    `agent` and `node` are ints, the profiles `a` and `b` tuples of Rat,
    and `c`, `lhs` and `rhs` Rats."""

    __slots__ = ()


class CheckResult(
    Verdict, namedtuple("CheckResult", "ok violations truncated checked")
):
    """Verdict of `check_k_step_osp`: `violations` (a tuple of
    `Constraint`), whether the cap `truncated` them, and how many
    inequalities were `checked`."""

    __slots__ = ()


def _require_cap(value, name: str) -> None:
    """Refuse a cap on a result list that is not a positive int."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise MechanismError(f"{name} must be a positive int, not {value!r}")


def _would_gain(dp, df, cmin, cmax) -> bool:
    """Whether some type c in [cmin, cmax] has dp > c * df: the payment
    change dp outweighs the cost change c * df of the outcome change df."""
    if df == 0:
        return dp > 0
    if df > 0:
        return dp > cmin * df
    return dp > cmax * df


def _gain_bound(top, fa, cmin, cmax):
    """The payment below which a leaf with outcome fa and commitment
    types cmin..cmax would gain against some level (f, p) of `top`:
    `_would_gain(p - pa, f - fa, cmin, cmax)` holds for some level
    exactly when pa is below it."""
    return max(p - (cmin if f > fa else cmax) * (f - fa) for f, p in top)


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
    require_valid(tree)
    k = normalize_horizon(k)
    _require_cap(max_violations, "max_violations")
    missing = [nid for nid in tree.leaf_ids if tree.nodes[nid].payment is None]
    if missing:
        raise MechanismError(f"payments missing at leaves {missing[:5]}")

    sets = _commitment_sets(tree, k)
    scaled: dict[int, tuple] = {}
    corner: dict[int, tuple[Rat, ...]] = {}  # leaf -> its box_min
    violations: list[Constraint] = []
    checked = 0
    for u in tree.internal_ids:
        node = tree.nodes[u]
        i = node.agent
        if i not in scaled:
            # dp > c * df on ints: with f, p and c scaled by their lcds
            # Lf, Lp and Lc, it reads dp * Lc * Lf > c * df * Lp
            fs, lf = _scaled([tree.nodes[x].outcome[i] for x in tree.leaf_ids])
            ps, lp = _scaled([tree.nodes[x].payment[i] for x in tree.leaf_ids])
            cs, lc = _scaled(tree.domains[i])
            ps = [p * lc * lf for p in ps]
            value = dict(zip(tree.leaf_ids, zip(fs, ps)))
            # a violation's lhs by its dp, its rhs by (type position, df)
            scaled[i] = [c * lp for c in cs], value, lp * lc * lf, lf, {}, {}
        types, value, lpay, lf, lhs, rhs = scaled[i]
        dom = tree.domains[i]
        csets = sets[u]
        rows = [
            [(leaf, *value[leaf]) for leaf in tree.leaves_under[cid]]
            for cid in node.children
        ]
        # the largest payment per outcome level below each child: a leaf
        # pair can gain only if its level's maximum gains
        tops = []
        for side in rows:
            top: dict[int, int] = {}
            for _, f, p in side:
                if f not in top or p > top[f]:
                    top[f] = p
            tops.append(tuple(top.items()))
        for ia, side_a in enumerate(rows):
            for ib, side_b in enumerate(rows):
                if ia == ib:
                    continue
                top_b = tops[ib]
                # a leaf gains against b's envelope when its payment lies
                # below the bound its (outcome, commitment set) fixes
                bounds: dict[tuple[int, int], tuple[int, int, int]] = {}
                for la, fa, pa in side_a:
                    cset = csets[la]
                    known = bounds.get((fa, cset))
                    if known is None:
                        cmin = types[(cset & -cset).bit_length() - 1]
                        cmax = types[cset.bit_length() - 1]
                        bound = _gain_bound(top_b, fa, cmin, cmax)
                        known = bounds[fa, cset] = bound, cmin, cmax
                    bound, cmin, cmax = known
                    if pa >= bound:
                        checked += len(side_b)
                        continue
                    for lb, fb, pb in side_b:
                        checked += 1
                        df = fb - fa
                        dp = pb - pa
                        if not _would_gain(dp, df, cmin, cmax):
                            continue
                        for leaf in (la, lb):
                            if leaf not in corner:
                                corner[leaf] = tree.box_min(leaf)
                        if dp not in lhs:
                            lhs[dp] = Fraction(dp, lpay)
                        for pos in bits(cset):
                            if dp > types[pos] * df:
                                if (pos, df) not in rhs:
                                    rhs[pos, df] = dom[pos] * Fraction(df, lf)
                                violations.append(Constraint(
                                    i, u, corner[la], corner[lb], dom[pos],
                                    lhs[dp], rhs[pos, df],
                                ))
                                if len(violations) >= max_violations:
                                    return CheckResult(
                                        False, tuple(violations), True, checked
                                    )
    return CheckResult(not violations, tuple(violations), False, checked)


class AlmostOrderedResult(Verdict, namedtuple("AlmostOrderedResult", "ok witness")):
    """Verdict of `is_almost_ordered`; `witness` is (node, a, b, c, d)
    or None."""

    __slots__ = ()


def is_almost_ordered(tree: ImplementationTree, k) -> AlmostOrderedResult:
    """Check that commitment ranges respect outcomes across branches.

    Whenever profiles a and b part at a node and the agent's outcome at a
    exceeds her outcome at b, every type she might still hold on a's plan
    must lie strictly below every type on b's plan.  The witness quotes
    the node, both profiles, and the two offending types c >= d; it is
    the first failing leaf pair in the order of `check_k_step_osp`.

    With binary outcomes a child pair (a, b) fails exactly when the top
    type of the union of a's outcome-1 commitment sets reaches the lowest
    type of the union of b's outcome-0 ones, so one pass per child builds
    the two unions, and leaves are walked only for pairs that fail.
    """
    require_valid(tree)
    k = normalize_horizon(k)
    require_binary_outcomes(tree)
    sets = _commitment_sets(tree, k)
    winners = tree.winners
    for u in tree.internal_ids:
        node = tree.nodes[u]
        i = node.agent
        csets = sets[u]
        unders = [tree.leaves_under[cid] for cid in node.children]
        ones, zeros = [], []
        for under in unders:
            one = zero = 0
            for leaf in under:
                if winners[leaf] >> i & 1:
                    one |= csets[leaf]
                else:
                    zero |= csets[leaf]
            ones.append(one)
            zeros.append(zero)
        for ia, under_a in enumerate(unders):
            top = ones[ia].bit_length() - 1
            for ib, under_b in enumerate(unders):
                floor = (zeros[ib] & -zeros[ib]).bit_length() - 1
                # a pair fails exactly when its highest outcome-1 type
                # reaches its lowest outcome-0 type
                if ia == ib or floor < 0 or top < floor:
                    continue
                for la in under_a:
                    cmax_a = csets[la].bit_length() - 1
                    if not winners[la] >> i & 1 or cmax_a < floor:
                        continue
                    for lb in under_b:
                        cb = csets[lb]
                        cmin_b = (cb & -cb).bit_length() - 1
                        if not winners[lb] >> i & 1 and cmax_a >= cmin_b:
                            return AlmostOrderedResult(
                                False,
                                (
                                    u,
                                    tree.box_min(la),
                                    tree.box_min(lb),
                                    tree.domains[i][cmax_a],
                                    tree.domains[i][cmin_b],
                                ),
                            )
    return AlmostOrderedResult(True, None)


def _value_table(tree: ImplementationTree, node_id: int):
    """The queried agent's (f, p) table at node_id of a valid tree, filled
    from the boxes `mask_at[leaf]` of the leaves below it: rows[r][c]
    numbers her pair when she holds her r-th current type and her
    opponents their c-th profile (in product order), pairs[n] is the pair
    numbered n and levels[n] numbers its f.  Returns (rows, levels,
    pairs).  Payment-free leaves pay zero.

    A column is a mixed-radix number: each opponent's rank among her
    current types is one digit, the last opponent's the fastest.  An
    opponent with one current type always adds digit 0, so she has no
    place value and the leaves' expansion skips her."""
    i = tree.nodes[node_id].agent
    box = tree.mask_at[node_id]
    scale_guard(prod(m.bit_count() for m in box))
    rank = {p: r for r, p in enumerate(bits(box[i]))}
    weight, width = {}, 1  # opponent -> the place value of her digit
    for j in reversed(range(len(box))):
        if j != i and box[j] & (box[j] - 1):
            weight[j] = width
            width *= box[j].bit_count()
    rows = [[0] * width for _ in rank]
    digits: dict[tuple[int, int], list[int]] = {}  # (j, mask) -> its values
    numbered, level_of, pairs, levels = {}, {}, [], []  # dicts keyed by ratios
    for leaf in tree.leaves_under[node_id]:
        sub = tree.mask_at[leaf]
        f, p = pair = _pair(tree, leaf, i)
        key = f.as_integer_ratio(), p.as_integer_ratio()
        n = numbered.setdefault(key, len(pairs))
        if n == len(pairs):
            pairs.append(pair)
            levels.append(level_of.setdefault(key[0], len(level_of)))
        cols = [0]
        for j, w in weight.items():
            values = digits.get((j, sub[j]))
            if values is None:
                below = ((1 << q) - 1 & box[j] for q in bits(sub[j]))
                values = digits[j, sub[j]] = [w * m.bit_count() for m in below]
            cols = [c + v for c in cols for v in values]
        for q in bits(sub[i]):
            row = rows[rank[q]]
            for c in cols:
                row[c] = n
    return rows, levels, pairs


class QueryClass(
    Record,
    namedtuple(
        "QueryClass",
        "node agent is_revelation extremal_side is_prefix is_suffix "
        "ineffective strongly_ineffective only_types strongly_only_types "
        "kind extra_allowed",
    ),
):
    """Shape and effect of one query.

    Shape: revelation (all blocks singleton), extremal side when binary
    with an extreme singled out, prefix/suffix position of the current
    domain within the full one.  Effect: whether answers can still move
    the agent's own outcome or payment, and for which single types.
    `extra_allowed` tells whether the query has one of the harmless forms
    a (k+2)-th query to the agent on a path may take.  `node` and
    `agent` are ints, `extremal_side` a str or None, `kind` a str,
    `only_types` and `strongly_only_types` tuples of Rat, and the other
    fields bools."""

    __slots__ = ()


def classify_query(tree: ImplementationTree, node_id: int) -> QueryClass:
    require_valid(tree)
    node = tree.node(node_id)
    if not isinstance(node, QueryNode):
        raise MechanismError(f"node {node_id} is not a query node")
    i = node.agent
    rows, levels, _ = _value_table(tree, node_id)
    own, blocks = tree.mask_at[node_id][i], tree.block_masks[node_id]
    return query_class(node_id, i, tree.domains[i], own, blocks, rows, levels)


def query_class(node_id, agent, domain, own, blocks, rows, levels) -> QueryClass:
    """Classify a query from its parts alone: the agent's full sorted
    `domain`, the masks of her current types (`own`) and of the query's
    `blocks` over positions in it, and her value table as `_value_table`
    gives it (`rows`, and `levels` naming each pair's f).  Types and
    blocks follow the cost convention."""
    ineffective = all(row == rows[0] for row in rows)
    strongly_ineffective = ineffective and bool(rows) and len(set(rows[0])) == 1

    # ranks among her current types of the only-effective ones: the rest
    # share one row, and her f differs from theirs somewhere
    only: list[int] = []
    strongly: list[int] = []
    if len(rows) >= 2:
        for r, row in enumerate(rows):
            rest = rows[:r] + rows[r + 1 :]
            if any(other != rest[0] for other in rest):
                continue
            if [levels[n] for n in row] == [levels[n] for n in rest[0]]:
                continue
            only.append(r)
            if len(set(rest[0])) == 1:
                strongly.append(r)

    is_revelation = all(m.bit_count() == 1 for m in blocks)
    low, high = own & -own, 1 << own.bit_length() >> 1
    extremal_side = None
    if len(blocks) == 2 and low in blocks:
        extremal_side = "both" if high in blocks else "min"
    elif len(blocks) == 2 and high in blocks:
        extremal_side = "max"

    removed = ((1 << len(domain)) - 1) & ~own
    is_prefix = not removed or own < removed & -removed
    is_suffix = not removed or removed < low

    # the allowed forms of an extra query: a strongly ineffective
    # revelation, a strongly only-extreme revelation, or an only-extreme
    # extremal step, on a prefix or suffix domain (the top forms also on
    # two adjacent types)
    top, bottom = own.bit_count() - 1, 0
    sep_max = extremal_side in ("max", "both")
    sep_min = extremal_side in ("min", "both")
    top_form = (own == low | low << 1 or is_prefix) and (
        (is_revelation and strongly_ineffective)
        or (is_revelation and top in strongly)
        or (sep_max and top in only)
    )
    bottom_form = is_suffix and (
        (is_revelation and strongly_ineffective)
        or (is_revelation and bottom in strongly)
        or (sep_min and bottom in only)
    )

    named = [domain[p] for p in bits(own)]

    def pick(ranks):
        return named[top if top in ranks else bottom if bottom in ranks else ranks[0]]

    if strongly_ineffective:
        kind = "StronglyIneffective"
    elif ineffective:
        kind = "Ineffective"
    elif strongly:
        kind = f"StronglyOnlyTEffective({format_rational(pick(strongly))})"
    elif only:
        kind = f"OnlyTEffective({format_rational(pick(only))})"
    elif is_revelation:
        kind = "Revelation"
    elif extremal_side:
        kind = "Extremal"
    else:
        kind = "Query"

    return QueryClass(
        node=node_id,
        agent=agent,
        is_revelation=is_revelation,
        extremal_side=extremal_side,
        is_prefix=is_prefix,
        is_suffix=is_suffix,
        ineffective=ineffective,
        strongly_ineffective=strongly_ineffective,
        only_types=tuple(named[r] for r in only),
        strongly_only_types=tuple(named[r] for r in strongly),
        kind=kind,
        extra_allowed=top_form or bottom_form,
    )


class KLimitedResult(Verdict, namedtuple("KLimitedResult", "ok witness reason")):
    """Verdict of `is_k_limited`: the first node over budget and why, or
    None twice."""

    __slots__ = ()


def _past_budget(tree: ImplementationTree, k, agent: int | None = None):
    """Each query past an agent's (k+1)-th on its path, in preorder (only
    the queries to `agent` when given): yields (node, its `QueryClass`
    when it is her (k+2)-th query else None, why it busts the budget or
    None).  The one place the budget rule is read.

    Each distinct subtree (`ImplementationTree.shapes`) is classified
    once per call.  On a valid tree every agent queried inside two
    matching subtrees has the same current types at both roots, and an
    agent never queried there only repeats table columns, so a repeat
    takes its first node's class.  It still runs the scale guard on its
    own box, which counts the agents outside the subtree too."""
    classes: dict[int, QueryClass] = {}  # shape -> its first node's class
    for u in tree.internal_ids:
        i = tree.nodes[u].agent
        nth = tree.query_depth[u][i]
        if nth <= k + 1 or agent is not None and i != agent:
            continue
        if nth >= k + 3:
            yield u, None, f"query number {nth} to agent {i} on a single path"
            continue
        shape = tree.shapes[u]
        qc = classes.get(shape)
        if qc is None:
            qc = classes[shape] = classify_query(tree, u)
        else:
            scale_guard(prod(m.bit_count() for m in tree.mask_at[u]))
            qc = qc._replace(node=u)
        bust = None if qc.extra_allowed else (
            f"extra query to agent {i} is not of an allowed form"
        )
        yield u, qc, bust


def is_k_limited(tree: ImplementationTree, k) -> KLimitedResult:
    """Per-path query budgets: at most k+1 queries per agent, or k+2 when
    the last one has one of the allowed harmless forms
    (`QueryClass.extra_allowed`).  Needs binary outcomes."""
    require_valid(tree)
    k = normalize_horizon(k)
    require_binary_outcomes(tree)
    for u, _, bust in _past_budget(tree, k):
        if bust:
            return KLimitedResult(False, u, bust)
    return KLimitedResult(True, None, None)


class TaxationFinding(
    Record, namedtuple("TaxationFinding", "node agent a c d case detail")
):
    """A forced equality at query `node` to `agent`: profile `a` (a tuple
    of Rat) and her types c < d (Rats); `case` and `detail` are str."""

    __slots__ = ()


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
    require_valid(tree)
    k = normalize_horizon(k)
    require_binary_outcomes(tree)
    _require_cap(max_findings, "max_findings")
    sets = _commitment_sets(tree, k)
    findings: list[TaxationFinding] = []
    leaf_at: dict[tuple[int, ...], int] = {}  # profile -> the leaf it reaches
    mapped: set[int] = set()  # the leaves whose boxes leaf_at holds
    for u in tree.internal_ids:
        csets = sets[u]
        # a triple a < c < d needs a commitment set of three types
        if all(cset.bit_count() < 3 for cset in csets.values()):
            continue
        i = tree.nodes[u].agent
        # each leaf's own types with two commitment types above (none when
        # the lowest one has fewer), and the node's (a, c, d) triples: per
        # own type q, C(types above q, 2) for each opponent profile; a
        # finding names two leaves whose (f, p) differ, so a node whose
        # leaves all share one has none
        todo, triples = [], 0
        first = _pair(tree, tree.leaves_under[u][0], i)
        varied = False
        for leaf in tree.leaves_under[u]:
            varied = varied or _pair(tree, leaf, i) != first
            box, cset = tree.mask_at[leaf], csets[leaf]
            if (cset >> (box[i] & -box[i]).bit_length()).bit_count() < 2:
                continue
            qs = bits(box[i])
            above = [(cset >> (q + 1)).bit_count() for q in qs]
            opponents = prod(m.bit_count() for m in box) // len(qs)
            triples += opponents * sum(n * (n - 1) // 2 for n in above)
            todo.append((box, cset, [q for q, n in zip(qs, above) if n > 1]))
        scale_guard(triples, "taxation triples")
        scale_guard(prod(m.bit_count() for m in tree.mask_at[u]))
        if not varied:
            continue
        for leaf in tree.leaves_under[u]:
            if leaf not in mapped:
                mapped.add(leaf)
                for prof in itertools.product(*map(bits, tree.mask_at[leaf])):
                    leaf_at[prof] = leaf
        found = []
        for box, cset, own in todo:
            boxes = [*map(bits, box[:i]), own, *map(bits, box[i + 1 :])]
            for a in itertools.product(*boxes):
                larger = (cset >> (a[i] + 1)) << (a[i] + 1)
                for ci, di in itertools.combinations(bits(larger), 2):
                    case = _taxation_case(tree, u, i, a, ci, di, leaf_at)
                    if case is not None:
                        found.append(((a, ci, di), case))
        # profile order, as a walk over the node's whole box would meet them
        found.sort(key=lambda item: item[0])
        findings += [case for _, case in found[: max_findings - len(findings)]]
        if len(findings) >= max_findings:
            return findings
    return findings


def _taxation_case(tree, u, i, a, ci, di, leaf_at):
    """The finding of the triple a[i] < ci < di at query node u for agent
    i, or None: `a` is a profile of positions in u's box, ci and di are
    positions of her types and `leaf_at` maps each profile in u's box to
    its leaf.

    The split, the agent-i query that parts the three profiles, is the
    lowest node above a's leaf whose agent-i mask holds all three.  The
    outside types are the blocks holding none of them at the agent-i
    queries from u down to the split: above the split, every block off
    the path, which is u's mask less the split's."""
    trio = 1 << a[i] | 1 << ci | 1 << di
    la, lc, ld = (leaf_at[a[:i] + (v,) + a[i + 1 :]] for v in (a[i], ci, di))
    if tree.mask_at[la][i] & trio == trio:  # all three reach la
        return None
    split = tree.parent[la]
    while tree.mask_at[split][i] & trio != trio:
        split = tree.parent[split]
    outside = tree.mask_at[u][i] & ~tree.mask_at[split][i]
    for m in tree.block_masks[split]:
        if not m & trio:
            outside |= m

    # `outside` holds a type: a[i] is in the leaf's box and ci, di are in
    # its commitment set, all in u's child on the leaf's path, so the
    # split lies below u, whose other blocks are nonempty on a valid tree.
    # That type lies above di, below a[i], or strictly between them.
    top = outside >> (di + 1) != 0
    bottom = outside & ((1 << a[i]) - 1) != 0
    inner = outside & ((1 << di) - (2 << a[i])) != 0

    va, vc, vd = (_pair(tree, leaf, i) for leaf in (la, lc, ld))
    if inner or (top and bottom):
        if va == vc == vd:
            return None
        case, detail = "all_equal", f"outcomes {va}, {vc}, {vd} must coincide"
    elif top:
        if va == vc:
            return None
        case, detail = "lower_pair", f"outcomes {va} and {vc} must coincide"
    else:  # bottom
        if vc == vd:
            return None
        case, detail = "upper_pair", f"outcomes {vc} and {vd} must coincide"
    prof = tuple(tree.domains[j][p] for j, p in enumerate(a))
    return TaxationFinding(
        u, i, prof, tree.domains[i][ci], tree.domains[i][di], case, detail
    )


class PoolingFinding(
    Record, namedtuple("PoolingFinding", "node agent t1 t2 detail")
):
    """Types `t1` and `t2` (Rats) of `agent`, separated at query `node`,
    that pool pointwise but not jointly; `detail` is a str."""

    __slots__ = ()


def strong_ineffectiveness_check(
    tree: ImplementationTree, max_findings: int = 200
) -> list[PoolingFinding]:
    """Types separated by a query yet sharing outcomes pointwise must
    share them jointly: identical f against every opponent profile
    forces one constant (f, p) across both branches.  Violations break
    obvious strategyproofness at any horizon."""
    require_valid(tree)
    require_binary_outcomes(tree)
    _require_cap(max_findings, "max_findings")
    findings: list[PoolingFinding] = []
    for u in tree.internal_ids:
        i = tree.nodes[u].agent
        own = bits(tree.mask_at[u][i])
        # the block each type goes to
        blocks = tree.block_masks[u]
        side = [next(n for n, m in enumerate(blocks) if m >> q & 1) for q in own]
        # types with equal f-rows win on as many opponent profiles; only
        # pairs that tie on that count are tabulated and compared
        wins = dict.fromkeys(own, 0)
        for leaf in tree.leaves_under[u]:
            if tree.winners[leaf] >> i & 1:
                sub = tree.mask_at[leaf]
                opponents = prod(map(int.bit_count, sub)) // sub[i].bit_count()
                for q in bits(sub[i]):
                    wins[q] += opponents
        candidates = [
            (r1, r2)
            for r1, r2 in itertools.combinations(range(len(own)), 2)
            if side[r1] != side[r2] and wins[own[r1]] == wins[own[r2]]
        ]
        if not candidates:
            continue
        dom = tree.domains[i]
        rows, levels, pairs = _value_table(tree, u)
        frows = [[levels[n] for n in row] for row in rows]
        for r1, r2 in candidates:
            if frows[r1] != frows[r2]:
                continue
            pooled = [pairs[n] for n in set(rows[r1]) | set(rows[r2])]
            if len(pooled) > 1:
                # sorted as ints scaled by each coordinate's lcd
                fs, _ = _scaled([f for f, _ in pooled])
                ps, _ = _scaled([p for _, p in pooled])
                shown = [pair for _, _, pair in sorted(zip(fs, ps, pooled))]
                findings.append(
                    PoolingFinding(
                        u, i, dom[own[r1]], dom[own[r2]],
                        f"pointwise equal outcomes but differing pairs {shown}",
                    )
                )
                if len(findings) >= max_findings:
                    return findings
    return findings


def reveal_at_k2(tree: ImplementationTree, k) -> ImplementationTree:
    """Rewrite each path's (k+2)-th query to an agent into a revelation.

    The tree must be k-limited, so no path asks an agent anything past
    her (k+2)-th query, and each rewritten node must already be harmless
    (strongly ineffective, or strongly only-extreme effective); each
    revealed type keeps the subtree of its old block.  Computed outcomes
    and payments are unchanged on every profile.  A node that is already
    a revelation passes through untouched.
    """
    require_valid(tree)
    k = normalize_horizon(k)
    if k == inf:
        return tree
    classes = {}
    for u, qc, bust in _past_budget(tree, k):
        if bust:
            raise MechanismError(f"tree is not k-limited (node {u}: {bust})")
        classes[u] = qc
    nodes: dict[int, QueryNode | LeafNode] = {}
    root = _reveal(tree, classes, tree.root, nodes, itertools.count())
    return ImplementationTree(tree.agents, tree.domains, root, nodes)


def _reveal(tree, classes, nid: int, nodes: dict, counter) -> int:
    # module-level for the reason given at model._from_nested; classes
    # holds the QueryClass of every (k+2)-th query
    node = tree.nodes[nid]
    fresh = next(counter)
    if isinstance(node, LeafNode):
        nodes[fresh] = LeafNode(fresh, node.outcome, node.payment)
        return fresh
    nodes[fresh] = None  # reserve slot, fill after children
    blocks, children = node.blocks, node.children
    qc = classes.get(nid)
    if qc is not None and not all(len(b) == 1 for b in blocks):
        own = tree.domain_at[nid][node.agent]
        # the budget allows a (k+2)-th revelation only in its strong forms
        allowed = (
            qc.strongly_ineffective
            or own[0] in qc.strongly_only_types
            or own[-1] in qc.strongly_only_types
        )
        if not allowed:
            nth = tree.query_depth[nid][node.agent]
            raise MechanismError(
                f"node {nid}: query {nth} to agent {node.agent} is "
                "neither strongly ineffective nor strongly only-extreme "
                "effective; cannot rewrite to a revelation"
            )
        blocks = tuple((t,) for t in own)
        children = tuple(children[tree.route(nid, t)] for t in own)
    kids = tuple(_reveal(tree, classes, c, nodes, counter) for c in children)
    nodes[fresh] = QueryNode(fresh, node.agent, blocks, kids)
    return fresh
