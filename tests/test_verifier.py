import itertools
import random
import re
import time
from collections import Counter
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from ospkit import (
    MechanismError,
    PSystem,
    approx_ratio,
    build_k_osp_graph,
    build_profile_classes,
    check_k_step_osp,
    classify_query,
    compress,
    english_auction_tree,
    equivalence_class,
    extract_tree,
    is_almost_ordered,
    is_k_limitable,
    is_k_limited,
    is_revealable,
    is_two_way_greedy,
    k_step_neighborhood,
    k_vs_infinity_equivalence,
    mechanism_to_data,
    require_binary_outcomes,
    reveal_at_k2,
    serialize,
    sticky_edges_check,
    strong_ineffectiveness_check,
    synthesize_payments,
    taxation_diagnostics,
)
from ospkit import verifier
from ospkit.fixtures import appendix_b, materialize
from ospkit.io import dumps_mechanism, loads_mechanism
from ospkit.rational import format_rational
from ospkit.model import (
    ImplementationTree,
    LeafNode,
    QueryNode,
    normalize_horizon,
    random_k_limited_tree,
    tree_from_nested,
    types_of,
)
from ospkit.verifier import (
    AlmostOrderedResult,
    CheckResult,
    Constraint,
    PoolingFinding,
    QueryClass,
    TaxationFinding,
    _commitment_sets,
    _value_table,
)
from test_model import oracle_split_box


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

    @pytest.mark.parametrize("cap", [0, -3, True, False, 2.0, "5", None])
    def test_caps_must_be_positive_ints(self, cap):
        # each cap is tested after an append: below 1 it would still list one
        t = english_auction_tree(3, [1, 2, 3, 4, 5])
        with pytest.raises(MechanismError, match="max_violations must be"):
            check_k_step_osp(t, 1, max_violations=cap)
        with pytest.raises(MechanismError, match="max_findings must be"):
            taxation_diagnostics(t, 1, max_findings=cap)
        pooled = tree_from_nested(1, [[1, 2]], (
            "q", 0, [
                ([1], ("leaf", (0,), (F(0),))),
                ([2], ("leaf", (0,), (F(1),))),
            ],
        ))
        with pytest.raises(MechanismError, match="max_findings must be"):
            strong_ineffectiveness_check(pooled, max_findings=cap)


def commitment_types(tree, k):
    """_commitment_sets with each mask given by its types."""
    return {
        u: {
            leaf: types_of(tree, tree.nodes[u].agent, m)
            for leaf, m in per_leaf.items()
        }
        for u, per_leaf in _commitment_sets(tree, k).items()
    }


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
        for k in (0, 1, 2, inf):
            sets = commitment_types(t, k)
            for u in t.internal_ids:
                for leaf in t.leaves_under[u]:
                    assert tuple(sets[u][leaf]) == commitment_oracle(t, u, leaf, k)

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
        assert tuple(commitment_types(t, k)[u][leaf]) == commitment_oracle(
            t, u, leaf, k
        )

    def test_monotone_in_horizon(self):
        t = english_auction_tree(2, [1, 2, 3])
        sets = {k: commitment_types(t, k) for k in (0, 1, 2, inf)}
        for u in t.internal_ids:
            for leaf in t.leaves_under[u]:
                prev = None
                for k in (0, 1, 2, inf):
                    cur = set(sets[k][u][leaf])
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

    def test_third_query_busts_budget(self):
        # the second query is an allowed extra form; the third is one too many
        t = tree_from_nested(1, [[1, 2, 3, 4]], (
            "q", 0, [
                ([4], ("leaf", (0,), None)),
                ([1, 2, 3], (
                    "q", 0, [
                        ([3], ("leaf", (1,), None)),
                        ([1, 2], (
                            "q", 0, [
                                ([1], ("leaf", (0,), None)),
                                ([2], ("leaf", (0,), None)),
                            ],
                        )),
                    ],
                )),
            ],
        ))
        res = is_k_limited(t, 0)
        assert not res.ok
        assert res.reason == "query number 3 to agent 0 on a single path"


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

    def test_a_long_chain_is_refused_by_its_triples(self):
        # the node boxes hold at most 240 profiles, but the triples below
        # the root alone number about 240^3 / 6
        t = peeling_chain(240)
        start = time.perf_counter()
        with pytest.raises(
            MechanismError,
            match="^enumeration of 2246839 taxation triples exceeds scale guard",
        ):
            taxation_diagnostics(t, 0)
        assert time.perf_counter() - start < 2

    def test_a_chain_of_equal_leaves_has_no_case_to_try(self, monkeypatch):
        # every leaf pays (0, 0), so no node has two leaves whose (f, p)
        # differ, which every finding names
        calls = Counter()
        case = verifier._taxation_case

        def spy(*args):
            calls["cases"] += 1
            return case(*args)

        monkeypatch.setattr(verifier, "_taxation_case", spy)
        assert taxation_diagnostics(peeling_chain(60), 0) == []
        assert calls["cases"] == 0
        # one leaf paying 1 makes the nodes above it differ
        found = Counter()
        chain = peeling_chain(7)
        for paid in chain.leaf_ids:
            nodes = dict(chain.nodes)
            nodes[paid] = LeafNode(paid, (F(0),), (F(1),))
            t = ImplementationTree(1, chain.domains, chain.root, nodes)
            for k in (0, 1, 2):
                got = taxation_diagnostics(t, k)
                assert got == oracle_taxation(t, k)
                found[paid] += len(got)
        assert calls["cases"] > 0
        assert sum(found.values()) > 0 and 0 in found.values(), found

    def test_a_lowered_guard_refuses_english_4_5(self, monkeypatch):
        # its root has 625 profiles and 500 triples, the most of any node
        t = english_auction_tree(4, [1, 2, 3, 4, 5])
        want = taxation_diagnostics(t, 0)
        monkeypatch.setenv("OSPKIT_SCALE_GUARD", "499")
        with pytest.raises(
            MechanismError,
            match="^enumeration of 500 taxation triples exceeds scale guard 499;",
        ):
            taxation_diagnostics(t, 0)
        monkeypatch.setenv("OSPKIT_SCALE_GUARD", "500")
        with pytest.raises(
            MechanismError,
            match="^enumeration of 625 profiles exceeds scale guard 500;",
        ):
            taxation_diagnostics(t, 0)
        monkeypatch.setenv("OSPKIT_SCALE_GUARD", "625")
        assert taxation_diagnostics(t, 0) == want

    def test_triple_count_matches_the_walk(self, monkeypatch):
        # the count each visited node passes to the guard against the
        # (profile, c, d) triples a walk over the node's box lists
        counted = []
        guard = verifier.scale_guard

        def spy(count, what="profiles"):
            if what == "taxation triples":
                counted.append(count)
            guard(count, what)

        monkeypatch.setattr(verifier, "scale_guard", spy)
        seen = Counter()
        for t, h in random_taxed_trees(range(300)):
            if not has_binary_outcomes(t):
                continue
            counted.clear()
            taxation_diagnostics(t, h, max_findings=10**9)
            want = [oracle_triple_count(t, u, h) for u in t.internal_ids]
            assert [c for c in counted if c] == [c for c in want if c]
            seen["triples"] += sum(want)
            seen["nodes"] += len(counted)
        assert seen["triples"] > 1000 and seen["nodes"] > 200, seen


def peeling_chain(n):
    """One agent with types 1..n, asked at each query whether her type
    is the lowest one left; every leaf has outcome 0 and payment 0."""
    dom = [F(v) for v in range(1, n + 1)]
    zero = (F(0),)
    nodes = {2 * n - 2: LeafNode(2 * n - 2, zero, zero)}
    for d in range(n - 1):
        blocks = ((dom[d],), tuple(dom[d + 1 :]))
        nodes[2 * d] = QueryNode(2 * d, 0, blocks, (2 * d + 1, 2 * d + 2))
        nodes[2 * d + 1] = LeafNode(2 * d + 1, zero, zero)
    return ImplementationTree(1, [dom], 0, nodes)


def oracle_triple_count(tree, u, k):
    """The (profile, c, d) triples at node u: per profile a in u's box,
    the pairs c < d of commitment types above a's own type."""
    i = tree.nodes[u].agent
    count = 0
    for a in itertools.product(*tree.domain_at[u]):
        cset = oracle_commitment_types(tree, u, tree.path_of(a)[-1], k)
        above = sum(v > a[i] for v in cset)
        count += above * (above - 1) // 2
    return count


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
        # the second query singles out type 2, the only one it affects;
        # below it types 3 and 4 share one constant (f, p)
        t = tree_from_nested(1, [[1, 2, 3, 4]], (
            "q", 0, [
                ([1], ("leaf", (1,), (F(3),))),
                ([2, 3, 4], (
                    "q", 0, [
                        ([2], ("leaf", (1,), (F(1),))),
                        ([3, 4], ("leaf", (0,), (F(0),))),
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

    def test_refuses_deeper_queries(self):
        # the later queries to agent 0 split her domain in the middle: no
        # allowed extra query at k=0 (node 1) or k=1 (node 2); at k=2 both
        # are within budget and nothing is rewritten
        t = tree_from_nested(1, [[1, 2, 3, 4, 5]], (
            "q", 0, [
                ([1, 3, 5], (
                    "q", 0, [
                        ([1, 5], (
                            "q", 0, [
                                ([1], ("leaf", (0,), None)),
                                ([5], ("leaf", (0,), None)),
                            ],
                        )),
                        ([3], ("leaf", (0,), None)),
                    ],
                )),
                ([2, 4], ("leaf", (1,), None)),
            ],
        ))
        for k, node in ((0, 1), (1, 2)):
            want = (
                f"tree is not k-limited (node {node}: extra query to agent 0 "
                "is not of an allowed form)"
            )
            with pytest.raises(MechanismError, match=re.escape(want)):
                reveal_at_k2(t, k)
        assert mechanism_to_data(reveal_at_k2(t, 2)) == mechanism_to_data(t)

    def test_preserves_auction_outcomes(self):
        t = compress(extract_tree(PSystem.single_item(2), [1, 2, 3, 4]))
        out = reveal_at_k2(t, 0)
        for prof in itertools.product(*t.domains):
            assert out.leaf_of(prof).outcome == t.leaf_of(prof).outcome

    def test_refuses_mid_domain_effects(self):
        # a split in the middle of the domain is no allowed extra query
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
        want = (
            "tree is not k-limited (node 2: extra query to agent 0 "
            "is not of an allowed form)"
        )
        with pytest.raises(MechanismError, match=re.escape(want)):
            reveal_at_k2(t, 0)

    def test_refuses_weak_only_extreme_step(self):
        # within budget: the step singles out type 2, the only type it
        # affects, but types 3 and 4 still face two pairs, so a revelation
        # there would not be of an allowed form
        t = tree_from_nested(2, [[1, 2, 3, 4], [1, 2]], (
            "q", 0, [
                ([1], ("leaf", (1, 0), (F(3), F(0)))),
                ([2, 3, 4], (
                    "q", 0, [
                        ([2], ("leaf", (1, 0), (F(1), F(0)))),
                        ([3, 4], ("q", 1, [
                            ([1], ("leaf", (0, 1), (F(0), F(1)))),
                            ([2], ("leaf", (0, 0), (F("1/2"), F(0)))),
                        ])),
                    ],
                )),
            ],
        ))
        assert is_k_limited(t, 0).ok
        want = "node 2: query 2 to agent 0 is neither strongly ineffective"
        with pytest.raises(MechanismError, match=want):
            reveal_at_k2(t, 0)

    def test_infinite_horizon_is_identity(self):
        t = english_auction_tree(2, [1, 2])
        assert reveal_at_k2(t, inf) is t


# -- oracles: the per-pair and per-profile definitions ----------------------


def oracle_commitment_types(tree, node_id, leaf_id, k):
    """Types the agent queried at node_id may still hold, k own moves into
    a plan that ends at leaf_id: her domain just after the k-th later
    query to her on that path (the leaf's domain when fewer remain).
    Walks the one path from node_id down to leaf_id."""
    k = normalize_horizon(k)
    i = tree.nodes[node_id].agent
    path = [leaf_id]
    nid = leaf_id
    while nid != node_id:
        nid = tree.parent.get(nid)
        if nid is None:
            raise MechanismError(f"node {leaf_id} is not below node {node_id}")
        path.append(nid)
    path.reverse()
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
            leaf: oracle_commitment_types(tree, u, leaf, k)
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
            leaf: oracle_commitment_types(tree, u, leaf, k)
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


def fraction_value_table(tree, node_id):
    """_value_table as a dict keyed by (own type, opponents' types),
    filled from the leaf boxes of the Fraction split."""
    i = tree.nodes[node_id].agent
    dom = tree.domain_at[node_id]
    combos = list(itertools.product(*(dom[:i] + dom[i + 1 :])))
    table = {}
    for leaf, box in oracle_split_box(tree, node_id):
        sub = tree.nodes[leaf]
        value = (sub.outcome[i], F(0) if sub.payment is None else sub.payment[i])
        for x in itertools.product(*(box[:i] + box[i + 1 :])):
            for t in box[i]:
                table[(t, x)] = value
    return dom[i], combos, table


def table_as_dict(tree, node_id):
    """_value_table in the form of oracle_value_table, after checking that
    its numbers name distinct pairs and its levels name distinct f."""
    rows, levels, pairs = _value_table(tree, node_id)
    assert len(set(pairs)) == len(pairs) == len(levels)
    for m, n in itertools.product(range(len(pairs)), repeat=2):
        assert (levels[m] == levels[n]) == (pairs[m][0] == pairs[n][0])
    i = tree.nodes[node_id].agent
    dom = tree.domain_at[node_id]
    own = dom[i]
    combos = list(itertools.product(*(dom[:i] + dom[i + 1 :])))
    assert len(rows) == len(own)
    assert all(len(row) == len(combos) for row in rows)
    table = {
        (t, x): pairs[n]
        for t, row in zip(own, rows)
        for x, n in zip(combos, row)
    }
    return own, combos, table


def oracle_value_rows(tree, node_id):
    """oracle_value_table in the form of _value_table."""
    own, combos, table = oracle_value_table(tree, node_id)
    rows, levels, pairs = [], [], []
    numbered, level_of = {}, {}
    for t in own:
        row = []
        for x in combos:
            value = table[(t, x)]
            if value not in numbered:
                numbered[value] = len(pairs)
                pairs.append(value)
                levels.append(level_of.setdefault(value[0], len(level_of)))
            row.append(numbered[value])
        rows.append(row)
    return rows, levels, pairs


def oracle_query_class(node_id, agent, own, domain, blocks, table) -> QueryClass:
    """query_class on types: `own` and `domain` sorted tuples of types,
    `blocks` tuples of types and `table` a dict from (own type, column of
    opponent types) to (f, p), compared as Fractions."""
    columns = {x for _, x in table}
    ineffective = all(
        len({table[(t, x)] for t in own}) == 1 for x in columns
    )
    strongly_ineffective = len(set(table.values())) == 1

    only_types = []
    strongly_only = []
    if len(own) >= 2:
        for t in own:
            rest = [s for s in own if s != t]
            per_column = all(
                len({table[(s, x)] for s in rest}) == 1 for x in columns
            )
            if not per_column:
                continue
            effective = any(
                table[(t, x)][0] != table[(rest[0], x)][0] for x in columns
            )
            if not effective:
                continue
            only_types.append(t)
            cross = len({table[(s, x)] for s in rest for x in columns}) == 1
            if cross:
                strongly_only.append(t)

    is_revelation = all(len(b) == 1 for b in blocks)
    extremal_side = None
    if len(blocks) == 2:
        singles = [b for b in blocks if len(b) == 1]
        has_min = any(b == (own[0],) for b in singles)
        has_max = any(b == (own[-1],) for b in singles)
        if has_min and has_max:
            extremal_side = "both"
        elif has_min:
            extremal_side = "min"
        elif has_max:
            extremal_side = "max"

    current = set(own)
    removed = [v for v in domain if v not in current]
    is_prefix = not removed or own[-1] < min(removed)
    is_suffix = not removed or own[0] > max(removed)

    sep_max = extremal_side in ("max", "both")
    sep_min = extremal_side in ("min", "both")
    adjacent = len(own) == 2 and domain.index(own[1]) == domain.index(own[0]) + 1
    top_form = (adjacent or is_prefix) and (
        (is_revelation and strongly_ineffective)
        or (is_revelation and own[-1] in strongly_only)
        or (sep_max and own[-1] in only_types)
    )
    bottom_form = is_suffix and (
        (is_revelation and strongly_ineffective)
        or (is_revelation and own[0] in strongly_only)
        or (sep_min and own[0] in only_types)
    )

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
        agent=agent,
        is_revelation=is_revelation,
        extremal_side=extremal_side,
        is_prefix=is_prefix,
        is_suffix=is_suffix,
        ineffective=ineffective,
        strongly_ineffective=strongly_ineffective,
        only_types=tuple(only_types),
        strongly_only_types=tuple(strongly_only),
        kind=kind,
        extra_allowed=top_form or bottom_form,
    )


def oracle_classify(tree, node_id):
    """classify_query from the walked table and the Fraction query_class."""
    node = tree.nodes[node_id]
    own, _, table = oracle_value_table(tree, node_id)
    return oracle_query_class(
        node_id, node.agent, own, tree.domains[node.agent], node.blocks, table
    )


def oracle_taxation(tree, k, max_findings=200):
    """taxation_diagnostics walking every available profile from each
    query node, with one commitment set walk per profile and one root
    walk per (f, p) lookup."""
    require_binary_outcomes(tree)
    findings = []
    for u in tree.internal_ids:
        i = tree.nodes[u].agent
        for a in itertools.product(*tree.domain_at[u]):
            nid = u
            while not tree.is_leaf(nid):
                sub = tree.nodes[nid]
                nid = sub.children[tree.route(nid, a[sub.agent])]
            cset = oracle_commitment_types(tree, u, nid, k)
            larger = [v for v in cset if v > a[i]]
            for ci, di in itertools.combinations(larger, 2):
                found = oracle_taxation_case(tree, u, i, a, ci, di)
                if found is not None:
                    findings.append(found)
                    if len(findings) >= max_findings:
                        return findings
    return findings


def oracle_taxation_case(tree, u, i, a, ci, di):
    trips = (a[i], ci, di)
    nid = u
    split = None
    while not tree.is_leaf(nid):
        sub = tree.nodes[nid]
        if sub.agent == i:
            if len({tree.route(nid, v) for v in trips}) > 1:
                split = nid
                break
            nid = sub.children[tree.route(nid, trips[0])]
        else:
            nid = sub.children[tree.route(nid, a[sub.agent])]
    if split is None:
        return None
    outside = set()
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
        return (leaf.outcome[i], F(0) if leaf.payment is None else leaf.payment[i])

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


def reordered_nodes(tree, findings):
    """How many nodes have findings whose leaves, taken in profile order,
    are not in the order of `leaves_under`."""
    count = 0
    for u, group in itertools.groupby(findings, key=lambda f: f.node):
        rank = {leaf: r for r, leaf in enumerate(tree.leaves_under[u])}
        order = [rank[tree.leaf_of(f.a).id] for f in group]
        count += order != sorted(order)
    return count


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


def random_taxed_trees(seeds):
    """(tree, h) over seeded priced trees with 4-5 types per agent, at each
    horizon h below the tree's own k.  Taxation needs a plan that keeps
    three types together and a later query that splits them; the blocks
    of `random_priced_trees` hold at most two types, and at its own
    horizon a tree with k+1 queries per agent and path has no later
    query."""
    for seed in seeds:
        rng = random.Random(seed)
        agents = rng.randint(2, 3)
        domains = [
            list(range(1, rng.randint(4, 5) + 1)) for _ in range(agents)
        ]
        k = rng.choice([1, 2])
        tree = random_k_limited_tree(rng, agents, domains, k, with_payments=True)
        for h in range(k):
            yield tree, h


def opponent_shapes(tree, node_id):
    """Which paths of _value_table the node takes: an opponent with one
    current type (no digit of her own), and two or more opponents with
    several (a mixed-radix column)."""
    i = tree.nodes[node_id].agent
    sizes = [m.bit_count() for j, m in enumerate(tree.mask_at[node_id]) if j != i]
    shapes = []
    if 1 in sizes:
        shapes.append("one-type opponent")
    if sum(size > 1 for size in sizes) >= 2:
        shapes.append("mixed radix")
    return shapes


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

            sets = commitment_types(t, k)
            assert set(sets) == set(t.internal_ids)
            for u in t.internal_ids:
                assert set(sets[u]) == set(t.leaves_under[u])
                for leaf, cset in sets[u].items():
                    assert cset == oracle_commitment_types(t, u, leaf, k)

            binary = has_binary_outcomes(t)
            seen["binary"] += binary
            if binary:
                assert is_almost_ordered(t, k) == oracle_almost_ordered(t, k)
                seen["unordered"] += not is_almost_ordered(t, k).ok
            else:
                with pytest.raises(MechanismError, match="non-binary"):
                    is_almost_ordered(t, k)

            for u in t.internal_ids:
                want = oracle_value_table(t, u)
                assert table_as_dict(t, u) == want
                assert fraction_value_table(t, u) == want
                below = reversed(t.leaves_under[u])
                boxes = [(leaf, t.domain_at[leaf]) for leaf in below]
                assert boxes == list(oracle_split_box(t, u))
                seen.update(opponent_shapes(t, u))
            classes = [classify_query(t, u) for u in t.internal_ids]
            assert classes == [oracle_classify(t, u) for u in t.internal_ids]
            pooling = strong_ineffectiveness_check(t) if binary else None
            with monkeypatch.context() as m:
                m.setattr(verifier, "_value_table", oracle_value_rows)
                assert classes == [classify_query(t, u) for u in t.internal_ids]
                if binary:
                    assert pooling == strong_ineffectiveness_check(t)
        assert seen["failing"] > 0 and seen["truncated"] > 0
        assert 0 < seen["unordered"] < seen["binary"] < 250
        assert seen["one-type opponent"] and seen["mixed radix"]


    @pytest.mark.parametrize("start", range(0, 1000, 250))
    def test_taxation_matches_oracle(self, start):
        seeds = range(start, start + 250)
        cases = [
            (t, h)
            for t, k in random_priced_trees(seeds)
            if has_binary_outcomes(t)
            for h in sorted({0, 1, k})
        ]
        seen = Counter()
        for t, h in cases + list(random_taxed_trees(seeds)):
            total = None
            # a cap at or above the number of findings cuts nothing
            for cap in (200, 3, 1):
                if total is not None and cap >= total:
                    continue
                got = taxation_diagnostics(t, h, max_findings=cap)
                want = oracle_taxation(t, h, max_findings=cap)
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g == w
                total = len(got) if total is None else total
                seen[cap] += len(got)
                if cap == 200:
                    seen.update(f.case for f in got)
                    seen["reordered"] += reordered_nodes(t, got)
        assert seen[1] and seen[3] and seen[200]
        assert seen["all_equal"] and seen["lower_pair"] and seen["upper_pair"]
        # nodes where the sort by profile, not the walk over the leaves,
        # gives the oracle's order
        assert seen["reordered"] > 0

    def test_child_summaries_match_the_pair_definitions(self):
        """The per-child summaries the fast paths decide on, against the
        per-pair definitions: a leaf's gain bound against one
        `_would_gain` per envelope level and per leaf of the other child,
        and the almost-ordered unions against every leaf pair of a child
        pair.  Commitment sets come from the path oracle."""
        seen = Counter()
        for t, k in random_priced_trees(range(1000)):
            binary = has_binary_outcomes(t)
            for u in t.internal_ids:
                i = t.nodes[u].agent
                csets = {
                    leaf: oracle_commitment_types(t, u, leaf, k)
                    for leaf in t.leaves_under[u]
                }
                sides = [
                    [(leaf, *verifier._pair(t, leaf, i)) for leaf in t.leaves_under[c]]
                    for c in t.nodes[u].children
                ]
                tops = []
                for side in sides:
                    top = {}
                    for _, f, p in side:
                        top[f] = max(p, top.get(f, p))
                    tops.append(list(top.items()))
                for (ia, side_a), (ib, side_b) in itertools.permutations(
                    enumerate(sides), 2
                ):
                    for la, fa, pa in side_a:
                        cmin, cmax = csets[la][0], csets[la][-1]
                        under = pa < verifier._gain_bound(tops[ib], fa, cmin, cmax)
                        by_level = any(
                            verifier._would_gain(p - pa, f - fa, cmin, cmax)
                            for f, p in tops[ib]
                        )
                        by_leaf = any(
                            verifier._would_gain(pb - pa, fb - fa, cmin, cmax)
                            for _, fb, pb in side_b
                        )
                        assert under == by_level == by_leaf
                        seen["under the bound" if under else "at or above it"] += 1
                    if not binary:
                        continue
                    ones = [c for la, fa, _ in side_a if fa == 1 for c in csets[la]]
                    zeros = [c for lb, fb, _ in side_b if fb == 0 for c in csets[lb]]
                    ruled_out = not ones or not zeros or max(ones) < min(zeros)
                    fails = any(
                        fa > fb and csets[la][-1] >= csets[lb][0]
                        for la, fa, _ in side_a
                        for lb, fb, _ in side_b
                    )
                    assert ruled_out != fails
                    seen["pairs skipped" if ruled_out else "pairs walked"] += 1
        assert seen["under the bound"] and seen["at or above it"], seen
        assert seen["pairs skipped"] and seen["pairs walked"], seen

    @pytest.mark.parametrize("k", [0, 1, 2, inf])
    def test_fixture_trees_match_oracles(self, k):
        seen = Counter()
        english = english_auction_tree(3, [1, 2, 3, 4, 5])
        # up to one past the most queries to one agent on a path, where
        # the sets fold into those of inf
        deepest = max(map(max, english.query_depth.values()))
        for h in range(deepest + 2):
            assert _commitment_sets(english, h) == oracle_commitment_sets(english, h)
        trees = [
            english,
            compress(extract_tree(PSystem.single_item(3), [1, 2, 3])),
            appendix_b(),
            # at the root, type 1 leaves the trio 2 < 3 < 4 at a query
            # above its split, so the trio's case is all_equal, not
            # lower_pair
            tree_from_nested(1, [[1, 2, 3, 4, 5]], (
                "q", 0, [
                    ([5], ("leaf", (1,), (0,))),
                    ([1, 2, 3, 4], ("q", 0, [
                        ([1], ("leaf", (0,), (0,))),
                        ([2, 3, 4], ("q", 0, [
                            ([2], ("leaf", (0,), (0,))),
                            ([3, 4], ("q", 0, [
                                ([3], ("leaf", (0,), (0,))),
                                ([4], ("leaf", (1,), (0,))),
                            ])),
                        ])),
                    ])),
                ],
            )),
        ]
        for t in trees:
            if any(t.nodes[nid].payment is None for nid in t.leaf_ids):
                t = synthesize_payments(t, k).tree
            for cap in (1, 3, 1000):
                assert check_k_step_osp(t, k, cap) == oracle_check(t, k, cap)
            if has_binary_outcomes(t):
                assert is_almost_ordered(t, k) == oracle_almost_ordered(t, k)
            for u in t.internal_ids:
                want = oracle_value_table(t, u)
                assert table_as_dict(t, u) == want
                assert fraction_value_table(t, u) == want
                below = reversed(t.leaves_under[u])
                boxes = [(leaf, t.domain_at[leaf]) for leaf in below]
                assert boxes == list(oracle_split_box(t, u))
                assert classify_query(t, u) == oracle_classify(t, u)
                seen.update(opponent_shapes(t, u))
            if has_binary_outcomes(t):
                for cap in (1, 3, 200):
                    got = taxation_diagnostics(t, k, max_findings=cap)
                    assert got == oracle_taxation(t, k, max_findings=cap)
                seen["query above the split"] += trios_split_below_a_query(t, k)
        assert seen["one-type opponent"] and seen["mixed radix"]
        # english(3,5) has 56 such trios at k=0 and at k=1, and none of
        # these trees has one at k >= 2
        if k in (0, 1):
            assert seen["query above the split"] > 0


def trios_split_below_a_query(tree, k):
    """The trios a[i] < c < d that oracle_taxation meets at a query u to
    agent i whose split lies below another query to agent i under u:
    their outside types come from the blocks of three queries or more."""
    count = 0
    for u in tree.internal_ids:
        i = tree.nodes[u].agent
        for a in itertools.product(*tree.domain_at[u]):
            path = tree.path_of(a)
            below = path[path.index(u) + 1 : -1]
            cset = oracle_commitment_types(tree, u, path[-1], k)
            larger = [v for v in cset if v > a[i]]
            for c, d in itertools.combinations(larger, 2):
                passed = 0
                for nid in below:
                    if tree.nodes[nid].agent != i:
                        continue
                    if len({tree.route(nid, v) for v in (a[i], c, d)}) > 1:
                        count += passed > 0
                        break
                    passed += 1
    return count


def oracle_commitment_sets(tree, k):
    """_commitment_sets built anew on every call: one walk up from each
    leaf to the root."""
    sets = {u: {} for u in tree.internal_ids}
    for leaf in tree.leaf_ids:
        path = []
        nid = leaf
        while nid is not None:
            path.append(nid)
            nid = tree.parent[nid]
        path.reverse()
        asked = {}  # agent -> path positions of her queries
        for pos in range(len(path) - 1):
            asked.setdefault(tree.nodes[path[pos]].agent, []).append(pos)
        for i, positions in asked.items():
            for m, pos in enumerate(positions):
                end = m + k
                h = leaf if end >= len(positions) else path[positions[end] + 1]
                sets[path[pos]][leaf] = tree.mask_at[h][i]
    return sets


def oracle_strong_ineffectiveness(tree, max_findings=200):
    """strong_ineffectiveness_check comparing the f-rows of the whole
    value table at every query, for every pair of types in different
    blocks."""
    require_binary_outcomes(tree)
    findings = []
    for u in tree.internal_ids:
        i = tree.nodes[u].agent
        dom = tree.domains[i]
        rows, levels, pairs = oracle_value_rows(tree, u)
        own = [dom.index(t) for t in tree.domain_at[u][i]]
        blocks = tree.nodes[u].blocks
        side = [next(n for n, b in enumerate(blocks) if dom[q] in b) for q in own]
        frows = [[levels[n] for n in row] for row in rows]
        for r1, r2 in itertools.combinations(range(len(own)), 2):
            if side[r1] == side[r2] or frows[r1] != frows[r2]:
                continue
            pooled = sorted({pairs[n] for n in set(rows[r1]) | set(rows[r2])})
            if len(pooled) > 1:
                detail = f"pointwise equal outcomes but differing pairs {pooled}"
                findings.append(
                    PoolingFinding(u, i, dom[own[r1]], dom[own[r2]], detail)
                )
                if len(findings) >= max_findings:
                    return findings
    return findings


class TestFastPathsAgainstOracles:
    """The win-count filter of the pooling check and the commitment sets
    kept per horizon against the whole value table and a build per call,
    on 1000 seeded k-limited trees."""

    def test_pooling_findings_match_whole_tables(self):
        seen = Counter()
        trees = [t for t, _ in random_priced_trees(range(1000))]
        trees += [t for t, h in random_taxed_trees(range(200)) if h == 0]
        for t in trees:
            if not has_binary_outcomes(t):
                continue
            total = None
            for cap in (200, 5, 2, 1):
                if total is not None and cap > total:
                    continue
                got = strong_ineffectiveness_check(t, max_findings=cap)
                assert got == oracle_strong_ineffectiveness(t, max_findings=cap)
                if total is None:
                    total = len(got)
                    seen["found"] += total > 0
                seen["cut"] += cap < total
            seen["trees"] += 1
        assert seen["trees"] > 700 and seen["found"] > 100 and seen["cut"] > 100

    def test_commitment_sets_once_per_horizon(self, monkeypatch):
        seen = Counter()
        rng = random.Random(7)
        trees = [t for t, _ in random_priced_trees(range(1000))]
        for t in trees + [english_auction_tree(2, [1, 2, 3, 4])]:
            binary = has_binary_outcomes(t)
            deepest = max(max(t.query_depth[x]) for x in t.leaf_ids)
            horizons = [0, 1, 2, inf]
            rng.shuffle(horizons)
            asked = set()
            for k in horizons + horizons[::-1]:
                sets = verifier._commitment_sets(t, k)
                assert sets == oracle_commitment_sets(t, k)
                assert verifier._commitment_sets(t, k) is sets
                asked.add(k if k < deepest else inf)
                assert set(t.commitments) == asked
                got = [check_k_step_osp(t, k)]
                if binary:
                    got += [is_almost_ordered(t, k), taxation_diagnostics(t, k)]
                with monkeypatch.context() as m:
                    m.setattr(verifier, "_commitment_sets", oracle_commitment_sets)
                    want = [check_k_step_osp(t, k)]
                    if binary:
                        want += [is_almost_ordered(t, k), taxation_diagnostics(t, k)]
                assert got == want
            seen[len(t.commitments)] += 1
        # the horizons of a tree share entries only at or past its depth
        assert seen[1] and seen[2] and seen[3] and seen[4] == 1


def oracle_past_budget(tree, k, agent=None):
    """`_past_budget` by its definition: every query past an agent's
    (k+1)-th on its path in preorder, each (k+2)-th one classified on its
    own node."""
    for u in tree.internal_ids:
        i = tree.nodes[u].agent
        nth = tree.query_depth[u][i]
        if nth <= k + 1 or agent is not None and i != agent:
            continue
        if nth >= k + 3:
            yield u, None, f"query number {nth} to agent {i} on a single path"
            continue
        qc = classify_query(tree, u)
        bust = None if qc.extra_allowed else (
            f"extra query to agent {i} is not of an allowed form"
        )
        yield u, qc, bust


def shape_trees():
    """The extracted fixture trees raw, compressed and loaded back, and
    two clock auctions and `appendix_b` as built and loaded back."""
    from test_greedy import ORACLE_FIXTURES  # test_greedy imports this module

    for name in ORACLE_FIXTURES:
        raw = extract_tree(*materialize(name)[1])
        short = compress(raw)
        yield from (raw, short, loads_mechanism(dumps_mechanism(short)))
    for t in (
        english_auction_tree(3, [1, 2, 3, 4, 5]),
        english_auction_tree(4, [1, 2, 3, 4, 5]),
        appendix_b(),
    ):
        yield from (t, loads_mechanism(dumps_mechanism(t)))


def random_shape_trees(seeds):
    """One tree per seed, drawn with 1-3 agents, domains 1..2-4, at most
    1-4 queries per agent on a path, and payments half the time."""
    for seed in seeds:
        rng = random.Random(seed)
        agents = rng.randint(1, 3)
        domains = [list(range(1, rng.randint(2, 4) + 1)) for _ in range(agents)]
        k = rng.choice([0, 1, 2, 3])
        yield random_k_limited_tree(
            rng, agents, domains, k, with_payments=rng.random() < 0.5
        )


class TestShapes:
    """`_past_budget` classifies each distinct subtree once: against the
    per-node walk, on extracted, built, loaded and random trees."""

    @staticmethod
    def assert_past_budget_matches(t, seen):
        for k in (0, 1, 2, inf):
            for agent in (None, *range(t.agents)):
                got = list(verifier._past_budget(t, k, agent))
                assert got == list(oracle_past_budget(t, k, agent))
                seen["classified"] += sum(qc is not None for _, qc, _ in got)
                seen["bust"] += sum(bust is not None for _, _, bust in got)

    def test_fixture_trees_match_the_per_node_walk(self):
        seen = Counter()
        for t in shape_trees():
            self.assert_past_budget_matches(t, seen)
            first = {}
            for u in t.internal_ids:
                qc = classify_query(t, u)
                shape = t.shapes[u]
                if shape in first:
                    assert qc == first[shape]._replace(node=u)
                    seen["repeat"] += 1
                else:
                    first[shape] = qc
        assert seen["classified"] and seen["bust"] and seen["repeat"] > 1000

    def test_random_trees_match_the_per_node_walk(self):
        seen = Counter()
        for t in random_shape_trees(range(1500)):
            for tree in (t, loads_mechanism(dumps_mechanism(t))):
                self.assert_past_budget_matches(tree, seen)
        assert seen["classified"] > 1000 and seen["bust"] > 500

    def test_each_shape_is_classified_once(self, monkeypatch):
        t = compress(extract_tree(*materialize("uniform(6,3,4)")[1]))
        calls = []

        def spy(tree, u):
            calls.append(u)
            return classify_query(tree, u)

        monkeypatch.setattr(verifier, "classify_query", spy)
        assert is_k_limited(t, 0).ok
        assert len(calls) == 227
        assert len(list(oracle_past_budget(t, 0))) == 1002

    def test_a_repeat_runs_the_guard_on_its_own_box(self, monkeypatch):
        t = twin_subtrees(pay=0)
        small, large = twin_extra_queries(t)
        assert t.shapes[small] == t.shapes[large]
        assert is_k_limited(t, 0).ok
        monkeypatch.setenv("OSPKIT_SCALE_GUARD", "5")
        with pytest.raises(
            MechanismError,
            match=r"^enumeration of 9 profiles exceeds scale guard 5;",
        ):
            is_k_limited(t, 0)

    def test_a_payment_tells_subtrees_apart(self):
        t = twin_subtrees(pay=1)
        small, large = twin_extra_queries(t)
        assert t.shapes[small] != t.shapes[large]
        why = "extra query to agent 0 is not of an allowed form"
        assert is_k_limited(t, 0) == verifier.KLimitedResult(False, large, why)
        assert list(verifier._past_budget(t, 0)) == list(oracle_past_budget(t, 0))


def twin_subtrees(pay):
    """Two queries to agent 0 under agent 1's type 1, and again under her
    types 2-4, loaded back so that equal vectors share one object.  The
    second query to agent 0 reveals 2, 3 and 4, has 3 profiles below it
    the first time and 9 the second, and the second time its leaf at 4
    pays `pay` to agent 0."""

    def sub(p):
        extra = [([v], ("leaf", (0, 0), (p if v == 4 else 0, 0))) for v in (2, 3, 4)]
        return ("q", 0, [([1], ("leaf", (1, 0), (0, 0))), ([2, 3, 4], ("q", 0, extra))])

    nested = ("q", 1, [([1], sub(0)), ([2, 3, 4], sub(pay))])
    t = tree_from_nested(2, [[1, 2, 3, 4], [1, 2, 3, 4]], nested)
    return loads_mechanism(dumps_mechanism(t))


def twin_extra_queries(t):
    """The second query to agent 0 under agent 1's one type, then her three."""
    return [u for u in t.internal_ids if t.query_depth[u] == (2, 1)]


def malformed_trees():
    """Trees that construction tolerates and records problems for: a value
    in two blocks, a value in no block, a value outside the domain, a
    child id no node carries, and a block with no child at all."""
    yield tree_from_nested(2, [[1, 2, 3], [1, 2]], (
        "q", 0, [
            ([1, 2], ("leaf", (1, 0), (F(1), F(0)))),
            ([2, 3], ("q", 1, [
                ([1], ("leaf", (0, 1), (F(0), F(1)))),
                ([2], ("leaf", (0, 0), (F(2), F(0)))),
            ])),
        ],
    ))
    yield tree_from_nested(2, [[1, 2], [1, 2, 3]], (
        "q", 0, [
            ([1], ("leaf", (0, 0), (F(0), F(0)))),
            ([2], ("q", 1, [
                ([1], ("leaf", (1, 0), (F(1), F(0)))),
                ([2], ("leaf", (0, 1), (F(0), F(1)))),
            ])),
        ],
    ))
    yield tree_from_nested(1, [[1, 2]], (
        "q", 0, [
            ([1], ("leaf", (0,), (F(0),))),
            ([2, 5], ("q", 0, [
                ([2], ("leaf", (1,), (F(1),))),
                ([5], ("leaf", (0,), (F(0),))),
            ])),
        ],
    ))
    for children in [(1, 9), (1,)]:
        nodes = {
            0: QueryNode(
                id=0, agent=0, blocks=((F(1),), (F(2),)), children=children
            ),
            1: LeafNode(id=1, outcome=(F(0),), payment=(F(0),)),
        }
        yield ImplementationTree(1, [[1, 2]], 0, nodes)


class TestMalformedTrees:
    """Each walk refuses a malformed tree with the first problem recorded at
    construction, at whichever node it starts."""

    @staticmethod
    def assert_refused(t, node, problem):
        message = re.escape("malformed mechanism: " + problem)
        with pytest.raises(MechanismError, match=f"^{message}$"):
            classify_query(t, node)
        with pytest.raises(MechanismError, match=f"^{message}$"):
            strong_ineffectiveness_check(t)

    def test_value_in_no_block(self):
        t = list(malformed_trees())[1]
        self.assert_refused(t, 0, "node 2: domain values 3 not covered")

    def test_value_outside_the_domain(self):
        t = list(malformed_trees())[2]
        self.assert_refused(t, 2, "node 0: value 5 outside the current domain")

    # a child id no node carries, and a block with no child at all
    @pytest.mark.parametrize("children", [(1, 9), (1,)])
    def test_unknown_child(self, children):
        problem = {
            (1, 9): "node 0: unknown child 9",
            (1,): "node 0: 2 blocks, 1 children",
        }[children]
        nodes = {
            0: QueryNode(
                id=0, agent=0, blocks=((F(1),), (F(2),)), children=children
            ),
            1: LeafNode(id=1, outcome=(F(0),), payment=(F(0),)),
        }
        self.assert_refused(ImplementationTree(1, [[1, 2]], 0, nodes), 0, problem)


# every public analysis and rewrite of a tree, called as on a valid one
ANALYSES = {
    "check_k_step_osp": lambda t: check_k_step_osp(t, 1),
    "is_almost_ordered": lambda t: is_almost_ordered(t, 1),
    "is_k_limited": lambda t: is_k_limited(t, 0),
    "classify_query": lambda t: classify_query(t, t.root),
    "taxation_diagnostics": lambda t: taxation_diagnostics(t, 1),
    "strong_ineffectiveness_check": strong_ineffectiveness_check,
    "reveal_at_k2": lambda t: reveal_at_k2(t, 0),
    "reveal_at_k2 at inf": lambda t: reveal_at_k2(t, inf),
    "k_step_neighborhood": lambda t: k_step_neighborhood(t, t.root, 1),
    "equivalence_class": lambda t: equivalence_class(
        t, t.root, t.box_min(t.root), 1
    ),
    "compress": compress,
    "serialize": serialize,
    "is_k_limitable": lambda t: is_k_limitable(t, 0),
    "is_revealable": lambda t: is_revealable(t, t.root),
    "is_two_way_greedy": is_two_way_greedy,
    "approx_ratio": lambda t: approx_ratio(PSystem.single_item(t.agents), t, [1, 2]),
    "build_profile_classes": lambda t: build_profile_classes(t, 1, 0),
    "build_k_osp_graph": lambda t: build_k_osp_graph(t, 1, 0),
    "synthesize_payments": lambda t: synthesize_payments(t, 1),
    "sticky_edges_check": lambda t: sticky_edges_check(t, 1),
    "k_vs_infinity_equivalence": lambda t: k_vs_infinity_equivalence(t, 1),
}


@pytest.mark.parametrize("name", list(ANALYSES))
def test_every_analysis_refuses_a_malformed_tree(name):
    for t in malformed_trees():
        assert t.problems
        with pytest.raises(MechanismError) as caught:
            ANALYSES[name](t)
        assert str(caught.value) == "malformed mechanism: " + t.problems[0]
