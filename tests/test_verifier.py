import itertools
import random
from collections import Counter
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from ospkit import (
    MechanismError,
    PSystem,
    check_k_step_osp,
    classify_query,
    commitment_types,
    compress,
    english_auction_tree,
    extract_tree,
    is_almost_ordered,
    is_k_limited,
    mechanism_to_data,
    require_binary_outcomes,
    reveal_at_k2,
    strong_ineffectiveness_check,
    synthesize_payments,
    taxation_diagnostics,
)
from ospkit import verifier
from ospkit.fixtures import appendix_b
from ospkit.model import (
    ImplementationTree,
    LeafNode,
    QueryNode,
    random_k_limited_tree,
    tree_from_nested,
)
from ospkit.verifier import (
    AlmostOrderedResult,
    CheckResult,
    Constraint,
    _commitment_sets,
    _value_table,
)


def F(v):
    return Fraction(v)


class TestCheck:
    def test_four_level_passes_every_horizon(self):
        t = appendix_b()
        res = check_k_step_osp(t, 0)
        assert res.ok
        assert res.checked == 42
        assert not res.truncated
        assert check_k_step_osp(t, 1).ok
        assert check_k_step_osp(t, inf).ok

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_any_payment_nudge_breaks_it(self, level, delta):
        pay = {0: F(0), 1: F(4), 2: F(7), 3: F(9)}
        pay[level] += delta
        res = check_k_step_osp(appendix_b(pay), 0)
        assert not res.ok
        assert res.violations
        w = res.violations[0]
        assert w.agent in (0, 1)
        assert w.lhs > w.rhs

    def test_clock_horizons(self):
        t = english_auction_tree(3, [1, 2, 3, 4, 5])
        full = check_k_step_osp(t, inf)
        assert full.ok
        assert full.checked == 3660
        assert check_k_step_osp(t, 2).ok
        myopic = check_k_step_osp(t, 1)
        assert not myopic.ok
        assert len(myopic.violations) == 171
        for w in myopic.violations:
            assert w.lhs > w.rhs

    def test_violation_cap(self):
        t = english_auction_tree(3, [1, 2, 3, 4, 5])
        res = check_k_step_osp(t, 1, max_violations=5)
        assert res.truncated
        assert len(res.violations) == 5

    def test_needs_payments(self):
        t = extract_tree(PSystem.single_item(2), [1, 2])
        with pytest.raises(MechanismError, match="payments missing"):
            check_k_step_osp(t, 0)


def commitment_oracle(tree, u, leaf, k):
    # follow the leaf's branch through u and the next k own queries;
    # whatever types survive those blocks are still plausible
    i = tree.nodes[u].agent
    path = [leaf]
    nid = leaf
    while nid != u:
        nid = tree.parent[nid]
        path.append(nid)
    path.reverse()
    types = set(tree.domain_at[u][i])
    applied = 0
    for pos, x in enumerate(path[:-1]):
        node = tree.nodes[x]
        if tree.is_leaf(x) or node.agent != i:
            continue
        if k != inf and applied > k:
            break
        idx = node.children.index(path[pos + 1])
        types &= set(node.blocks[idx])
        applied += 1
    return tuple(sorted(types))


class TestCommitmentTypes:
    @pytest.mark.parametrize("n,d", [(2, 3), (3, 4)])
    def test_matches_oracle_on_clock_trees(self, n, d):
        t = english_auction_tree(n, list(range(1, d + 1)))
        for u in t.internal_ids:
            for leaf in t.leaves_under[u]:
                for k in (0, 1, 2, inf):
                    got = commitment_types(t, u, leaf, k)
                    assert tuple(got) == commitment_oracle(t, u, leaf, k)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_matches_oracle_on_random_trees(self, seed):
        rng = random.Random(seed)
        domains = [
            list(range(1, rng.randint(2, 3) + 1)) for _ in range(2)
        ]
        t = random_k_limited_tree(rng, 2, domains, rng.randint(0, 2))
        if not t.internal_ids:
            return
        u = rng.choice(t.internal_ids)
        leaf = rng.choice(list(t.leaves_under[u]))
        k = rng.choice([0, 1, 2, inf])
        assert tuple(commitment_types(t, u, leaf, k)) == commitment_oracle(
            t, u, leaf, k
        )

    def test_monotone_in_horizon(self):
        t = english_auction_tree(2, [1, 2, 3])
        for u in t.internal_ids:
            for leaf in t.leaves_under[u]:
                prev = None
                for k in (0, 1, 2, inf):
                    cur = set(commitment_types(t, u, leaf, k))
                    if prev is not None:
                        assert cur <= prev
                    prev = cur


class TestClassify:
    def test_kinds_on_compressed_auction(self):
        t = compress(extract_tree(PSystem.single_item(2), [1, 2, 3, 4]))
        kinds = {nid: classify_query(t, nid) for nid in t.internal_ids}
        root = kinds[0]
        assert root.kind == "Extremal"
        assert root.extremal_side == "max"
        assert root.is_prefix and root.is_suffix
        assert root.only_types == ()
        assert kinds[2].is_revelation
        second = kinds[6]
        assert second.kind == "StronglyOnlyTEffective(-2)"
        assert second.strongly_only_types == (F(-2),)
        assert second.is_prefix and not second.is_suffix

    def test_strongly_ineffective_constant(self):
        t = tree_from_nested(1, [[1, 2]], (
            "q", 0, [
                ([1], ("leaf", (0,), (F(0),))),
                ([2], ("leaf", (0,), (F(0),))),
            ],
        ))
        qc = classify_query(t, 0)
        assert qc.kind == "StronglyIneffective"
        assert qc.ineffective and qc.strongly_ineffective
        assert qc.only_types == ()

    def test_ineffective_but_not_strongly(self):
        # own answer never moves own (f, p); the pair still varies with
        # the opponent, so the strong form must not hold
        arm = ("q", 1, [
            ([1], ("leaf", (1, 1), (F(0), F(0)))),
            ([2], ("leaf", (0, 1), (F(0), F(0)))),
        ])
        t = tree_from_nested(2, [[1, 2], [1, 2]], (
            "q", 0, [([1], arm), ([2], arm)],
        ))
        qc = classify_query(t, 0)
        assert qc.ineffective
        assert not qc.strongly_ineffective
        assert qc.kind == "Ineffective"

    def test_rejects_leaf(self):
        t = tree_from_nested(1, [[1]], ("leaf", (0,), None))
        with pytest.raises(MechanismError):
            classify_query(t, 0)


class TestAlmostOrdered:
    def test_middle_split_fails(self):
        t = tree_from_nested(1, [[1, 2, 3]], (
            "q", 0, [
                ([2], ("leaf", (1,), (F(2),))),
                ([1, 3], ("leaf", (0,), (F(0),))),
            ],
        ))
        res = is_almost_ordered(t, 0)
        assert not res.ok
        node, a, b, c, d = res.witness
        assert node == 0
        assert (c, d) == (F(2), F(1))

    def test_clock_trees_pass(self):
        t = english_auction_tree(3, [1, 2, 3, 4, 5])
        assert is_almost_ordered(t, 2).ok
        assert is_almost_ordered(t, inf).ok

    def test_refuses_non_binary(self):
        t = appendix_b()
        with pytest.raises(MechanismError, match="non-binary"):
            require_binary_outcomes(t)
        for probe in (
            lambda: is_almost_ordered(t, 0),
            lambda: is_k_limited(t, 0),
            lambda: taxation_diagnostics(t, 0),
            lambda: strong_ineffectiveness_check(t),
        ):
            with pytest.raises(MechanismError, match="non-binary"):
                probe()


class TestKLimited:
    def test_infinity_always_passes(self):
        t = extract_tree(PSystem.single_item(2), [1, 2, 3, 4])
        assert is_k_limited(t, inf).ok

    def test_raw_run_busts_budget(self):
        t = extract_tree(PSystem.single_item(2), [1, 2, 3, 4])
        res = is_k_limited(t, 0)
        assert not res.ok
        assert "allowed form" in res.reason or "query number" in res.reason

    def test_compressed_run_fits(self):
        for d in (2, 3, 4):
            t = compress(
                extract_tree(PSystem.single_item(2), list(range(1, d + 1)))
            )
            assert is_k_limited(t, 0).ok

    def test_clock_thresholds(self):
        t = english_auction_tree(3, [1, 2, 3, 4, 5])
        assert is_k_limited(compress(t), 2).ok
        res = is_k_limited(compress(t), 1)
        assert not res.ok


class TestTaxation:
    def test_passing_horizon_is_clean(self):
        t = english_auction_tree(3, [1, 2, 3, 4, 5])
        assert taxation_diagnostics(t, 2) == []

    def test_failing_horizon_reports(self):
        t = english_auction_tree(3, [1, 2, 3, 4, 5])
        found = taxation_diagnostics(t, 1)
        assert len(found) == 24
        assert Counter(f.case for f in found) == {"lower_pair": 24}

    def test_cap(self):
        t = english_auction_tree(3, [1, 2, 3, 4, 5])
        assert len(taxation_diagnostics(t, 1, max_findings=5)) == 5


class TestStrongIneffectiveness:
    def test_clean_on_clock(self):
        t = english_auction_tree(3, [1, 2, 3])
        assert strong_ineffectiveness_check(t) == []

    def test_pointwise_pooling_detected(self):
        t = tree_from_nested(1, [[1, 2]], (
            "q", 0, [
                ([1], ("leaf", (0,), (F(0),))),
                ([2], ("leaf", (0,), (F(1),))),
            ],
        ))
        found = strong_ineffectiveness_check(t)
        assert len(found) == 1
        assert (found[0].t1, found[0].t2) == (F(1), F(2))
        # and the full check agrees something is off
        assert not check_k_step_osp(t, 0).ok


class TestReveal:
    def test_rewrites_ineffective_tail(self):
        t = tree_from_nested(1, [[1, 2, 3, 4]], (
            "q", 0, [
                ([1], ("leaf", (1,), (F(3),))),
                ([2, 3, 4], (
                    "q", 0, [
                        ([2, 3], ("leaf", (0,), (F(0),))),
                        ([4], ("leaf", (0,), (F(0),))),
                    ],
                )),
            ],
        ))
        out = reveal_at_k2(t, 0)
        for v in (1, 2, 3, 4):
            a, b = t.leaf_of((v,)), out.leaf_of((v,))
            assert (a.outcome, a.payment) == (b.outcome, b.payment)
        for nid in out.internal_ids:
            node = out.nodes[nid]
            if out.query_depth[nid][node.agent] == 2:
                assert all(len(blk) == 1 for blk in node.blocks)

    def test_idempotent_on_revelations(self):
        t = tree_from_nested(1, [[1, 2, 3]], (
            "q", 0, [
                ([1], ("leaf", (1,), (F(2),))),
                ([2, 3], (
                    "q", 0, [
                        ([2], ("leaf", (0,), (F(0),))),
                        ([3], ("leaf", (0,), (F(0),))),
                    ],
                )),
            ],
        ))
        assert mechanism_to_data(reveal_at_k2(t, 0)) == mechanism_to_data(t)

    def test_preserves_auction_outcomes(self):
        t = compress(extract_tree(PSystem.single_item(2), [1, 2, 3, 4]))
        out = reveal_at_k2(t, 0)
        for prof in itertools.product(*t.domains):
            assert out.leaf_of(prof).outcome == t.leaf_of(prof).outcome

    def test_refuses_mid_domain_effects(self):
        t = tree_from_nested(1, [[1, 2, 3, 4, 5]], (
            "q", 0, [
                ([1], ("leaf", (1,), (F(3),))),
                ([2, 3, 4, 5], (
                    "q", 0, [
                        ([2, 3], ("leaf", (1,), (F(1),))),
                        ([4, 5], ("leaf", (0,), (F(0),))),
                    ],
                )),
            ],
        ))
        with pytest.raises(MechanismError, match="neither strongly"):
            reveal_at_k2(t, 0)

    def test_infinite_horizon_is_identity(self):
        t = english_auction_tree(2, [1, 2])
        assert reveal_at_k2(t, inf) is t


# -- oracles: the per-pair and per-profile definitions ----------------------


def oracle_check(tree, k, max_violations=1000):
    """check_k_step_osp as the loop over every ordered leaf pair parting at
    each query node, one commitment set walk per pair."""
    missing = [nid for nid in tree.leaf_ids if tree.nodes[nid].payment is None]
    if missing:
        raise MechanismError(f"payments missing at leaves {missing[:5]}")
    violations = []
    checked = 0
    for u in tree.internal_ids:
        node = tree.nodes[u]
        i = node.agent
        csets = {
            leaf: commitment_types(tree, u, leaf, k)
            for leaf in tree.leaves_under[u]
        }
        rows = [
            [
                (leaf, tree.nodes[leaf].outcome[i], tree.nodes[leaf].payment[i])
                for leaf in tree.leaves_under.get(cid, ())
            ]
            for cid in node.children
        ]
        for ia, side_a in enumerate(rows):
            for ib, side_b in enumerate(rows):
                if ia == ib:
                    continue
                for la, fa, pa in side_a:
                    cset = csets[la]
                    cmin, cmax = cset[0], cset[-1]
                    for lb, fb, pb in side_b:
                        checked += 1
                        df = fb - fa
                        dp = pb - pa
                        if df == 0:
                            bad = dp > 0
                        elif df > 0:
                            bad = dp > cmin * df
                        else:
                            bad = dp > cmax * df
                        if not bad:
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


def oracle_almost_ordered(tree, k):
    """is_almost_ordered as the loop over every ordered leaf pair."""
    require_binary_outcomes(tree)
    for u in tree.internal_ids:
        node = tree.nodes[u]
        i = node.agent
        csets = {
            leaf: commitment_types(tree, u, leaf, k)
            for leaf in tree.leaves_under[u]
        }
        rows = [
            [
                (leaf, tree.nodes[leaf].outcome[i])
                for leaf in tree.leaves_under.get(cid, ())
            ]
            for cid in node.children
        ]
        for ia, side_a in enumerate(rows):
            for ib, side_b in enumerate(rows):
                if ia == ib:
                    continue
                for la, fa in side_a:
                    for lb, fb in side_b:
                        if fa <= fb:
                            continue
                        cmax_a = csets[la][-1]
                        cmin_b = csets[lb][0]
                        if cmax_a >= cmin_b:
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


def oracle_value_table(tree, node_id):
    """_value_table by walking every available profile from the root."""
    node = tree.nodes[node_id]
    i = node.agent
    dom = tree.domain_at[node_id]
    own = dom[i]
    combos = list(itertools.product(*(dom[:i] + dom[i + 1 :])))
    table = {}
    for t in own:
        for x in combos:
            prof = list(x)
            prof.insert(i, t)
            leaf = tree.leaf_of(tuple(prof))
            pay = F(0) if leaf.payment is None else leaf.payment[i]
            table[(t, x)] = (leaf.outcome[i], pay)
    return own, combos, table


def has_binary_outcomes(tree):
    return all(
        v in (0, 1) for nid in tree.leaf_ids for v in tree.nodes[nid].outcome
    )


FRACTION_TYPES = [F(v) for v in ("1/2", "1", "4/3", "2", "5/2", "3")]
LEVELS = [F(v) for v in ("0", "1/2", "1", "3/2", "2")]


def random_priced_trees(seeds):
    """(tree, k) over seeded k-limited priced trees: 2-3 agents, domains
    of 2-4 types, fractional types on odd seeds.  Three seeds in ten get
    outcome levels beyond 0/1 and fractional payments."""
    for seed in seeds:
        rng = random.Random(seed)
        agents = rng.randint(2, 3)
        if seed % 2:
            domains = [
                sorted(rng.sample(FRACTION_TYPES, rng.randint(2, 4)))
                for _ in range(agents)
            ]
        else:
            domains = [
                list(range(1, rng.randint(2, 4) + 1)) for _ in range(agents)
            ]
        k = rng.choice([0, 1, 2, inf])
        tree = random_k_limited_tree(rng, agents, domains, k, with_payments=True)
        if seed % 10 < 3:
            nodes = dict(tree.nodes)
            for nid in tree.leaf_ids:
                nodes[nid] = LeafNode(
                    id=nid,
                    outcome=tuple(rng.choice(LEVELS) for _ in range(agents)),
                    payment=tuple(
                        F(rng.randint(-6, 6)) / rng.randint(1, 3)
                        for _ in range(agents)
                    ),
                )
            tree = ImplementationTree(agents, tree.domains, tree.root, nodes)
        yield tree, k


class TestAgainstOracles:
    """The envelope check, the one-pass commitment sets and the box-split
    value tables against the per-pair and per-profile definitions, on 1000
    seeded trees cut into slices to keep each test short."""

    @pytest.mark.parametrize("start", range(0, 1000, 250))
    def test_results_match_oracles(self, start, monkeypatch):
        seen = Counter()
        for t, k in random_priced_trees(range(start, start + 250)):
            for cap in (1, 3, 1000):
                got = check_k_step_osp(t, k, max_violations=cap)
                want = oracle_check(t, k, max_violations=cap)
                assert got.ok == want.ok
                assert got.violations == want.violations
                assert got.truncated == want.truncated
                assert got.checked == want.checked
                seen["truncated"] += got.truncated
            seen["failing"] += not got.ok

            sets = _commitment_sets(t, k)
            assert set(sets) == set(t.internal_ids)
            for u in t.internal_ids:
                assert set(sets[u]) == set(t.leaves_under[u])
                for leaf, cset in sets[u].items():
                    assert cset == commitment_types(t, u, leaf, k)

            binary = has_binary_outcomes(t)
            seen["binary"] += binary
            if binary:
                assert is_almost_ordered(t, k) == oracle_almost_ordered(t, k)
                seen["unordered"] += not is_almost_ordered(t, k).ok
            else:
                with pytest.raises(MechanismError, match="non-binary"):
                    is_almost_ordered(t, k)

            for u in t.internal_ids:
                assert _value_table(t, u) == oracle_value_table(t, u)
            classes = [classify_query(t, u) for u in t.internal_ids]
            pooling = strong_ineffectiveness_check(t) if binary else None
            with monkeypatch.context() as m:
                m.setattr(verifier, "_value_table", oracle_value_table)
                assert classes == [classify_query(t, u) for u in t.internal_ids]
                if binary:
                    assert pooling == strong_ineffectiveness_check(t)
        assert seen["failing"] > 0 and seen["truncated"] > 0
        assert 0 < seen["unordered"] < seen["binary"] < 250


    @pytest.mark.parametrize("k", [0, 1, 2, inf])
    def test_fixture_trees_match_oracles(self, k):
        trees = [
            english_auction_tree(3, [1, 2, 3, 4, 5]),
            compress(extract_tree(PSystem.single_item(3), [1, 2, 3])),
            appendix_b(),
        ]
        for t in trees:
            if any(t.nodes[nid].payment is None for nid in t.leaf_ids):
                t = synthesize_payments(t, k).tree
            for cap in (1, 3, 1000):
                assert check_k_step_osp(t, k, cap) == oracle_check(t, k, cap)
            if has_binary_outcomes(t):
                assert is_almost_ordered(t, k) == oracle_almost_ordered(t, k)
            for u in t.internal_ids:
                assert _value_table(t, u) == oracle_value_table(t, u)


class TestMalformedTrees:
    """Trees that construction tolerates but no walk can cross."""

    def test_value_in_no_block(self):
        t = tree_from_nested(2, [[1, 2], [1, 2, 3]], (
            "q", 0, [
                ([1], ("leaf", (0, 0), (F(0), F(0)))),
                ([2], ("q", 1, [
                    ([1], ("leaf", (1, 0), (F(1), F(0)))),
                    ([2], ("leaf", (0, 1), (F(0), F(1)))),
                ])),
            ],
        ))
        with pytest.raises(MechanismError, match="not in any block"):
            classify_query(t, 0)
        with pytest.raises(MechanismError, match="not in any block"):
            strong_ineffectiveness_check(t)

    def test_value_outside_the_domain(self):
        t = tree_from_nested(1, [[1, 2]], (
            "q", 0, [
                ([1], ("leaf", (0,), (F(0),))),
                ([2, 5], ("q", 0, [
                    ([2], ("leaf", (1,), (F(1),))),
                    ([5], ("leaf", (0,), (F(0),))),
                ])),
            ],
        ))
        with pytest.raises(MechanismError, match="not in domain"):
            classify_query(t, 2)
        with pytest.raises(MechanismError, match="not in domain"):
            strong_ineffectiveness_check(t)

    def test_value_in_two_blocks_goes_to_the_first(self):
        # the root table walks no ancestor, so it must route 2 as route does
        t = tree_from_nested(2, [[1, 2, 3], [1, 2]], (
            "q", 0, [
                ([1, 2], ("leaf", (1, 0), (F(1), F(0)))),
                ([2, 3], ("q", 1, [
                    ([1], ("leaf", (0, 1), (F(0), F(1)))),
                    ([2], ("leaf", (0, 0), (F(2), F(0)))),
                ])),
            ],
        ))
        own, combos, table = _value_table(t, 0)
        assert (own, combos, table) == oracle_value_table(t, 0)
        assert table[(F(2), (F(2),))] == (F(1), F(1))

    # a child id no node carries, and a block with no child at all
    @pytest.mark.parametrize("children", [(1, 9), (1,)])
    def test_unknown_child(self, children):
        nodes = {
            0: QueryNode(
                id=0, agent=0, blocks=((F(1),), (F(2),)), children=children
            ),
            1: LeafNode(id=1, outcome=(F(0),), payment=(F(0),)),
        }
        t = ImplementationTree(1, [[1, 2]], 0, nodes)
        with pytest.raises(MechanismError, match="defective edge"):
            classify_query(t, 0)
        with pytest.raises(MechanismError, match="defective edge"):
            strong_ineffectiveness_check(t)
