import gc
import hashlib
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import inf, lcm

import pytest
from hypothesis import given, settings, strategies as st

from ospkit import (
    GreedyResult,
    MechanismError,
    NeedAnswer,
    PSystem,
    QueryRecord,
    approx_ratio,
    as_cost_tree,
    check_k_step_osp,
    classify_query,
    compress,
    dumps_mechanism,
    english_auction_tree,
    extract_tree,
    forward_greedy_solution,
    is_k_limitable,
    is_revealable,
    is_two_way_greedy,
    query_count,
    rank_quotient,
    removable,
    reveal_at_k2,
    reverse_greedy_solution,
    run_two_way_greedy,
    search_two_way_greedy,
    serialize,
    surviving_solutions,
    unremovable,
)
from ospkit import greedy, model
from ospkit.fixtures import materialize
from ospkit.model import (
    ImplementationTree,
    LeafNode,
    QueryNode,
    random_k_limited_tree,
    tree_from_nested,
)
from test_verifier import random_priced_trees


def F(v):
    return Fraction(v)


def oracle_compress(tree):
    """compress as a loop that splices the first same-agent child query
    into its parent's blocks and children, until none is left."""
    nodes = {}
    counter = itertools.count()

    def build(nid):
        fresh = next(counter)
        node = tree.nodes[nid]
        if node.kind == "leaf":
            nodes[fresh] = LeafNode(fresh, node.outcome, node.payment)
            return fresh
        blocks, kids = list(node.blocks), list(node.children)
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
        children = tuple(build(cid) for cid in kids)
        nodes[fresh] = QueryNode(fresh, node.agent, tuple(blocks), children)
        return fresh

    root = build(tree.root)
    return ImplementationTree(tree.agents, tree.domains, root, nodes)


def triangle():
    return PSystem.graphic([(0, 1), (1, 2), (0, 2)])


def solution_weight(sol, weights):
    return sum(weights[e] for e in sol)


def worst_out_oracle(ps, weights):
    """Textbook elimination: drop the cheapest element that still leaves
    some maximal set intact, until what remains is itself feasible."""
    tops = ps.maximal_sets()
    keep = set(range(ps.ground_size))
    while not ps.feasible(frozenset(keep)):
        candidates = [
            e
            for e in keep
            if any(t <= keep - {e} for t in tops)
        ]
        drop = min(candidates, key=lambda e: (weights[e], e))
        keep.remove(drop)
    return frozenset(keep)


class TestPSystem:
    def test_maximal_sets(self):
        assert PSystem.single_item(3).maximal_sets() == (
            frozenset({0}), frozenset({1}), frozenset({2}),
        )
        assert len(PSystem.uniform(3, 2).maximal_sets()) == 3
        assert len(triangle().maximal_sets()) == 3
        assert PSystem.explicit(3, [{0, 1}, {2}]).maximal_sets() == (
            frozenset({0, 1}), frozenset({2}),
        )

    def test_feasibility_guards(self):
        ps = PSystem.single_item(2)
        with pytest.raises(MechanismError):
            ps.feasible({5})
        # True hashes and compares as 1: it used to be read as element 1
        for junk in ({"0"}, {0.5}, {None}, {True}, {False}):
            with pytest.raises(MechanismError, match="must be ints"):
                ps.feasible(junk)
        with pytest.raises(MechanismError):
            PSystem.uniform(2, -1)
        with pytest.raises(MechanismError):
            PSystem.graphic([])

    @pytest.mark.parametrize(
        "edge", [(0, 1, 2), (0,), (0, "a")], ids=["three", "one", "text"]
    )
    def test_graphic_edge_that_is_not_two_ints_is_named(self, edge):
        # these used to raise a bare ValueError from unpacking or int()
        with pytest.raises(MechanismError, match=r"^edge 1: "):
            PSystem.graphic([(0, 1), edge])

    def test_explicit_sets_stay_in_the_ground_set(self):
        with pytest.raises(
            MechanismError, match=r"^element outside ground set in \[0, 5\]$"
        ):
            PSystem.explicit(3, [{0, 1}, {0, 5}])
        # no sets listed: only the empty set is feasible
        assert PSystem.explicit(3, []).maximal_sets() == (frozenset(),)

    def test_sizes_follow_the_integer_rule(self):
        # int() used to truncate these: uniform(4, 1.5) had rank 1; the
        # two explicit sizes and the last three used to raise a bare
        # TypeError or ValueError
        for make in (
            lambda: PSystem.uniform(4, 1.5),
            lambda: PSystem.uniform(4, True),
            lambda: PSystem(2.7, lambda s: True),
            lambda: PSystem(True, lambda s: True),
            lambda: PSystem.single_item(Fraction(5, 2)),
            lambda: PSystem.graphic([(0, 1.5)]),
            lambda: PSystem.explicit(3, [{0.5}]),
            lambda: PSystem.explicit("x", [[0]]),
            lambda: PSystem.explicit(None, [[0]]),
            lambda: PSystem.uniform(None, 1),
            lambda: PSystem.uniform(4, "x"),
            lambda: PSystem.single_item([3]),
        ):
            with pytest.raises(MechanismError, match="not an integer"):
                make()
        ps = PSystem.uniform(4.0, "2")
        assert (ps.ground_size, ps.name) == (4, "uniform_2")

    def test_guards_name_what_they_count(self, monkeypatch):
        monkeypatch.setenv("OSPKIT_SCALE_GUARD", "100")
        ps = PSystem.explicit(7, [{0, 1}])
        with pytest.raises(
            MechanismError,
            match=r"^enumeration of 128 subsets exceeds scale guard 100; ",
        ):
            ps.maximal_sets()
        with pytest.raises(MechanismError, match="of 128 subsets exceeds"):
            ps.validate()
        with pytest.raises(
            MechanismError, match="of 2187 subset-submask pairs exceeds"
        ):
            rank_quotient(ps)
        with pytest.raises(MechanismError, match="of 120 maximal sets exceeds"):
            PSystem.uniform(10, 3).maximal_sets()
        # listed in closed form, past the 1024 subsets of the ground set
        assert len(PSystem.uniform(10, 2).maximal_sets()) == 45

    def test_validate_catches_closure_breaks(self):
        bad = PSystem(2, lambda s: s == frozenset({0, 1}) or not s)
        with pytest.raises(MechanismError, match="downward closed"):
            bad.validate()
        PSystem.explicit(3, [{0, 1}, {2}]).validate()
        # an oracle rejecting the empty set, though the cache holds it
        with pytest.raises(MechanismError, match="empty set must be feasible"):
            PSystem(2, lambda s: len(s) == 1).validate()

    def test_rank_quotient(self):
        assert rank_quotient(PSystem.single_item(3)) == 1
        assert rank_quotient(PSystem.uniform(3, 2)) == 1
        assert rank_quotient(triangle()) == 1
        assert rank_quotient(PSystem.explicit(3, [{0, 1}, {2}])) == Fraction(1, 2)


class TestStateOracles:
    def test_surviving_solutions(self):
        ps = PSystem.single_item(2)
        assert surviving_solutions(ps, (), ()) == (
            frozenset({0}), frozenset({1}),
        )
        assert surviving_solutions(ps, (), {1}) == (frozenset({0}),)
        with pytest.raises(MechanismError, match="consistent"):
            surviving_solutions(ps, {0, 1}, ())

    def test_forced_membership(self):
        ps = PSystem.single_item(2)
        assert unremovable(ps, frozenset(), frozenset()) == frozenset()
        assert removable(ps, frozenset(), frozenset()) == frozenset()
        assert unremovable(ps, frozenset(), frozenset({1})) == frozenset({0})
        u32 = PSystem.uniform(3, 2)
        assert unremovable(u32, frozenset(), frozenset({2})) == frozenset({0, 1})


class TestClassicGreedy:
    def test_forward(self):
        u32 = PSystem.uniform(3, 2)
        assert forward_greedy_solution(u32, (3, 2, 1)) == {0, 1}
        assert forward_greedy_solution(PSystem.single_item(2), (1, 1)) == {0}

    def test_reverse(self):
        u32 = PSystem.uniform(3, 2)
        assert reverse_greedy_solution(u32, (3, 2, 1)) == {0, 1}
        assert reverse_greedy_solution(PSystem.single_item(2), (1, 1)) == {1}

    @pytest.mark.parametrize(
        "solve", [forward_greedy_solution, reverse_greedy_solution]
    )
    @pytest.mark.parametrize("weights", [(1, 2), (1, 2, 3, 4), ()])
    def test_one_weight_per_element(self, solve, weights):
        with pytest.raises(MechanismError, match="one weight per ground element"):
            solve(PSystem.uniform(3, 2), weights)


class TestRun:
    def test_smallest_auction(self):
        ps = PSystem.single_item(2)
        res = run_two_way_greedy(ps, [1, 2], truth=(1, 1))
        assert res.chosen == {1}
        assert res.excluded == {0}

    def test_middle_values(self):
        res = run_two_way_greedy(PSystem.single_item(2), [1, 2, 3], truth=(2, 2))
        assert res.chosen == {0}

    def test_descending_pair_keeps_best_two(self):
        res = run_two_way_greedy(PSystem.uniform(3, 2), [1, 2, 3], truth=(3, 2, 1))
        assert res.chosen == {0, 1}
        assert len(res.trace) == 4

    def test_scripted_replay_matches_truth_run(self):
        ps = PSystem.single_item(2)
        truth_run = run_two_way_greedy(ps, [1, 2, 3], truth=(2, 2))
        replay = run_two_way_greedy(
            ps, [1, 2, 3], answers=[q.answer for q in truth_run.trace]
        )
        assert replay.chosen == truth_run.chosen
        assert replay.trace == truth_run.trace

    def test_exhausted_script_raises_need_answer(self):
        with pytest.raises(NeedAnswer) as info:
            run_two_way_greedy(PSystem.single_item(2), [1, 2], answers=[])
        assert info.value.agent == 0
        assert info.value.direction == "bottom"
        assert info.value.value == 1

    def test_argument_guards(self):
        ps = PSystem.single_item(2)
        with pytest.raises(MechanismError, match="exactly one"):
            run_two_way_greedy(ps, [1, 2], truth=(1, 1), answers=[True])
        with pytest.raises(MechanismError, match="exactly one"):
            run_two_way_greedy(ps, [1, 2])
        with pytest.raises(MechanismError, match="per agent"):
            run_two_way_greedy(ps, [1, 2], truth=(1,))
        with pytest.raises(MechanismError, match="outside the domain"):
            run_two_way_greedy(ps, [1, 2], truth=(1, 5))
        with pytest.raises(MechanismError, match="nonempty"):
            run_two_way_greedy(ps, [], truth=(1, 1))


WEIGHT_CASES = [
    (PSystem.single_item(2), 3),
    (PSystem.single_item(3), 3),
    (PSystem.uniform(3, 2), 3),
    (triangle(), 3),
]


@pytest.mark.parametrize("ps,d", WEIGHT_CASES)
def test_weight_equals_worst_out_everywhere(ps, d):
    domain = list(range(1, d + 1))
    for prof in itertools.product(domain, repeat=ps.ground_size):
        got = run_two_way_greedy(ps, domain, truth=prof).chosen
        want = worst_out_oracle(ps, prof)
        assert solution_weight(got, prof) == solution_weight(want, prof), prof
        assert ps.feasible(got)
        for e in range(ps.ground_size):
            if e not in got:
                assert not ps.feasible(got | {e})


def test_chosen_and_excluded_partition_ground():
    ps = PSystem.uniform(3, 2)
    for prof in itertools.product([1, 2], repeat=3):
        res = run_two_way_greedy(ps, [1, 2], truth=prof)
        assert res.chosen | res.excluded == {0, 1, 2}
        assert not (res.chosen & res.excluded)


class TestExtraction:
    @pytest.mark.parametrize(
        "ps,d",
        [(PSystem.single_item(2), 3), (PSystem.uniform(3, 2), 3)],
    )
    def test_tree_reproduces_runs(self, ps, d):
        domain = list(range(1, d + 1))
        tree = extract_tree(ps, domain)
        for prof in itertools.product(domain, repeat=ps.ground_size):
            run = run_two_way_greedy(ps, domain, truth=prof)
            leaf = tree.leaf_of(tuple(-v for v in prof))
            want = tuple(
                1 if e in run.chosen else 0 for e in range(ps.ground_size)
            )
            assert tuple(leaf.outcome) == want, prof

    def test_unpriced_and_mirrored(self):
        tree = extract_tree(PSystem.single_item(2), [1, 3])
        assert all(tree.nodes[l].payment is None for l in tree.leaf_ids)
        assert tuple(tree.domains[0]) == (F(-3), F(-1))

    def test_compress_preserves_leaves(self):
        for d in (3, 4, 5):
            tree = extract_tree(PSystem.single_item(2), list(range(1, d + 1)))
            packed = compress(tree)
            for prof in itertools.product(*tree.domains):
                assert packed.leaf_of(prof).outcome == tree.leaf_of(prof).outcome

    def test_compress_matches_the_splicing_loop(self):
        # random trees ask one agent twice in a row behind any block, not
        # only behind the last one as an extraction does
        trees = [extract_tree(*materialize(f)[1]) for f in ORACLE_FIXTURES[:6]]
        trees += [tree for tree, _ in random_priced_trees(range(300))]
        for seed in range(100):
            # runs of three and more queries to one agent
            rng = random.Random(seed)
            doms = [range(1, rng.randint(4, 6) + 1) for _ in range(rng.randint(1, 2))]
            trees.append(random_k_limited_tree(rng, len(doms), doms, inf))
        inner = 0
        for tree in trees:
            packed = compress(tree)
            assert dumps_mechanism(packed) == dumps_mechanism(oracle_compress(tree))
            inner += any(
                tree.nodes[c].kind == "query" and tree.nodes[c].agent == node.agent
                for node in tree.nodes.values() if node.kind == "query"
                for c in node.children[:-1]
            )
        assert inner > 20

    def test_serialize_yields_binary_splits(self):
        tree = compress(extract_tree(PSystem.single_item(2), [1, 2, 3, 4]))
        flat = serialize(tree)
        for nid in flat.internal_ids:
            assert len(flat.nodes[nid].blocks) == 2
        for prof in itertools.product(*tree.domains):
            assert flat.leaf_of(prof).outcome == tree.leaf_of(prof).outcome

    def test_serialize_splices_a_query_settled_on_the_path(self):
        # peeling 1 off the root leaves {1} open at the {1, 3} query, and
        # then {3}: both times that query keeps one branch and is spliced
        L = lambda *o: ("leaf", o, None)
        tree = tree_from_nested(2, [[1, 2, 3], [1, 2]], ("q", 0, [
            ([1, 3], ("q", 0, [([1], L(1, 0)), ([3], L(0, 1))])),
            ([2], ("q", 1, [([1], L(0, 0)), ([2], L(1, 1))]))]))
        flat = serialize(tree)
        assert flat.problems == ()
        for prof in itertools.product(*tree.domains):
            assert flat.leaf_of(prof).outcome == tree.leaf_of(prof).outcome


class TestTwoWayShape:
    def test_auction_extractions_pass(self):
        for n, d in [(2, 3), (2, 5), (3, 3)]:
            tree = extract_tree(PSystem.single_item(n), list(range(1, d + 1)))
            assert is_two_way_greedy(tree).ok

    def test_clock_trees_pass(self):
        assert is_two_way_greedy(english_auction_tree(2, [1, 2, 3])).ok
        assert is_two_way_greedy(english_auction_tree(3, [1, 2, 3, 4, 5])).ok

    def test_clock_agents_follow_the_integer_rule(self):
        # True used to build a one-agent tree, and 2.0 ended in a TypeError
        for n in (True, 2.5, Fraction(3, 2)):
            with pytest.raises(MechanismError, match="not an integer"):
                english_auction_tree(n, [1, 2, 3])
        want = dumps_mechanism(english_auction_tree(2, [1, 2, 3]))
        assert dumps_mechanism(english_auction_tree(2.0, [1, 2, 3])) == want
        assert dumps_mechanism(english_auction_tree("2", [1, 2, 3])) == want

    def test_clock_needs_an_agent(self):
        with pytest.raises(MechanismError, match="^at least one agent is required$"):
            english_auction_tree(0, [1, 2, 3])

    def test_fashion_change_needs_a_revealable_domain(self):
        # agent 0 is asked greedily for {1}, then in reverse for {4}; below
        # that query type 2 loses and type 3 wins, so neither side is pinned
        t = tree_from_nested(1, [[1, 2, 3, 4]], (
            "q", 0, [
                ([1], ("leaf", (1,), None)),
                ([2, 3, 4], ("q", 0, [
                    ([2, 3], ("q", 0, [
                        ([2], ("leaf", (0,), None)),
                        ([3], ("leaf", (1,), None)),
                    ])),
                    ([4], ("leaf", (0,), None)),
                ])),
            ],
        ))
        assert not is_revealable(t, 2)
        rep = is_two_way_greedy(t)
        assert (rep.ok, rep.node, rep.reason) == (
            False, 2, "fashion change without a revealable domain"
        )

    def test_middle_split_fails(self):
        t = tree_from_nested(2, [[-3, -2, -1], [-1]], (
            "q", 0, [
                ([-2], ("leaf", (1, 0), None)),
                ([-3, -1], ("leaf", (0, 1), None)),
            ],
        ))
        rep = is_two_way_greedy(t)
        assert not rep.ok
        assert "neither fashion" in rep.reason

    def test_multiway_split_fails(self):
        packed = compress(extract_tree(PSystem.single_item(2), [1, 2, 3, 4]))
        rep = is_two_way_greedy(packed)
        assert not rep.ok
        assert "in two" in rep.reason

    def test_revealability(self):
        e22 = english_auction_tree(2, [1, 2])
        assert all(is_revealable(e22, nid) for nid in e22.internal_ids)
        raw3 = extract_tree(PSystem.single_item(2), [1, 2, 3])
        assert not is_revealable(raw3, raw3.root)
        packed = compress(extract_tree(PSystem.single_item(2), [1, 2, 3, 4]))
        assert not is_revealable(packed, 0)
        assert is_revealable(packed, 6)
        with pytest.raises(MechanismError):
            is_revealable(raw3, raw3.leaf_ids[0])


class TestClockFixture:
    def test_query_budget(self):
        t = english_auction_tree(3, [1, 2, 3, 4, 5])
        assert max(
            query_count(t, a, l) for l in t.leaf_ids for a in range(3)
        ) == 4

    def test_threshold_horizons(self):
        t = english_auction_tree(3, [1, 2, 3, 4, 5])
        assert check_k_step_osp(t, inf).ok
        assert is_k_limitable(t, 2).ok
        assert not is_k_limitable(t, 1).ok

    def test_two_bidder_clock(self):
        t = english_auction_tree(2, [1, 2, 3])
        assert check_k_step_osp(t, 0).ok


class TestLimitableThresholds:
    LEAVES = {2: 3, 3: 5, 4: 6, 5: 9, 6: 10}

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_two_agent_table(self, d):
        tree = extract_tree(PSystem.single_item(2), list(range(1, d + 1)))
        assert len(tree.leaf_ids) == self.LEAVES[d]
        kk = max(-(-d // 2) - 2, 0)
        assert is_two_way_greedy(tree).ok
        assert is_k_limitable(tree, kk).ok
        if kk > 0:
            assert not is_k_limitable(tree, kk - 1).ok


class TestApproxRatio:
    def test_matroid_families_are_exact(self):
        cases = [
            (PSystem.single_item(2), [1, 2, 3]),
            (PSystem.uniform(3, 2), [1, 2, 3, 4]),
            (triangle(), [1, 2, 3]),
        ]
        for ps, dom in cases:
            tree = extract_tree(ps, dom)
            ratio, _ = approx_ratio(ps, tree, dom)
            assert ratio == 1

    def test_constant_winner_quarter(self):
        ps = PSystem.single_item(2)
        tree = tree_from_nested(
            2, [[-4, -1], [-4, -1]], ("leaf", (1, 0), None)
        )
        ratio, witness = approx_ratio(ps, tree, [1, 4])
        assert ratio == Fraction(1, 4)
        assert witness == (F(1), F(4))

    def test_domain_must_mirror(self):
        ps = PSystem.single_item(2)
        tree = extract_tree(ps, [1, 2])
        with pytest.raises(MechanismError, match="mirror"):
            approx_ratio(ps, tree, [1, 3])
        with pytest.raises(MechanismError, match="number of agents"):
            approx_ratio(PSystem.single_item(3), tree, [1, 2])

    def test_fractional_outcomes_are_refused(self):
        # a half share is no win: the ratio of 0/1 trees does not apply
        ps = PSystem.single_item(2)
        tree = extract_tree(ps, [1, 2])
        half = Fraction(1, 2)
        nodes = {
            nid: LeafNode(nid, tuple(half if f == 1 else f for f in node.outcome))
            if isinstance(node, LeafNode)
            else node
            for nid, node in tree.nodes.items()
        }
        halved = ImplementationTree(2, tree.domains, tree.root, nodes)
        assert halved.nonbinary == (1, half)
        assert approx_ratio(ps, tree, [1, 2])[0] == 1
        with pytest.raises(MechanismError, match="non-binary outcome 1/2"):
            approx_ratio(ps, halved, [1, 2])

    # the instances whose extracted trees the `sweep` benchmark scores
    @pytest.mark.parametrize("name", [
        "single_item(4,5)", "single_item(5,5)", "uniform(5,2,5)",
        "uniform(6,3,4)", "triangle_graphic(12)",
    ])
    def test_sweep_instances_match_oracle(self, name, monkeypatch):
        ps, dom = materialize(name)[1]
        tree = extract_tree(ps, dom)
        size = len(dom) ** ps.ground_size
        monkeypatch.setenv("OSPKIT_SCALE_GUARD", str(size - 1))
        with pytest.raises(MechanismError, match=f"{size} valuation profiles"):
            approx_ratio(ps, tree, dom)
        monkeypatch.setenv("OSPKIT_SCALE_GUARD", str(size))
        assert approx_ratio(ps, tree, dom) == oracle_approx_ratio(ps, tree, dom)

    def test_tied_worst_profiles_below_one(self):
        # trees the free search finds for targets below 1, and an exact
        # tree off the greedy family; the witness is the first worst profile
        ps = PSystem.single_item(2)
        trees = [
            search_two_way_greedy(ps, GEOMETRIC, 0, target).tree
            for target in ("1/8", "1/4", "1/2", "1")
        ]
        trees.append(tie_to_rival_tree())
        seen = Counter()
        for tree in trees:
            got = approx_ratio(ps, tree, GEOMETRIC)
            assert got == oracle_approx_ratio(ps, tree, GEOMETRIC)
            ratios = {}
            for prof in itertools.product(map(F, GEOMETRIC), repeat=2):
                outcome = tree.leaf_of((-prof[0], -prof[1])).outcome
                ratios[prof] = sum(v for v, f in zip(prof, outcome) if f) / max(prof)
            worst = [prof for prof, ratio in ratios.items() if ratio == got[0]]
            assert worst[0] == got[1]
            seen["below one"] += got[0] < 1
            seen["tied below one"] += got[0] < 1 and len(worst) > 1
            seen["tied"] += len(worst) > 1
        assert seen["below one"] >= 3 and seen["tied below one"]
        assert seen["tied"] >= 3


def test_profile_enumerations_respect_scale_guard(monkeypatch):
    ps = PSystem.single_item(2)
    tree = extract_tree(ps, [1, 2, 3])
    monkeypatch.setenv("OSPKIT_SCALE_GUARD", "8")
    with pytest.raises(MechanismError, match="9 strategy profiles"):
        extract_tree(ps, [1, 2, 3])
    with pytest.raises(MechanismError, match="9 valuation profiles"):
        approx_ratio(ps, tree, [1, 2, 3])
    monkeypatch.setenv("OSPKIT_SCALE_GUARD", "9")
    assert approx_ratio(ps, extract_tree(ps, [1, 2, 3]), [1, 2, 3])[0] == 1


# each call counts 2^n, 3^n, comb(n, r) or d^n items for n = 10^20: the
# guards used to build that count before comparing it, which never ended
ASTRONOMICAL = [
    ("PSystem(10**20, bool).maximal_sets()", "about 10^30102999566398119801 subsets"),
    ("PSystem(10**20, bool).validate()", "about 10^30102999566398119801 subsets"),
    ("rank_quotient(PSystem(10**20, bool))",
     "about 10^47712125471966243539 subset-submask pairs"),
    ("PSystem.uniform(10**20, 10**19).maximal_sets()",
     "about 10^14118174150460748781 maximal sets"),
    ("english_auction_tree(10**20, [1, 2, 3])",
     "about 10^47712125471966243539 strategy profiles"),
    # an exponent past 20 digits is shown by its own magnitude
    ("english_auction_tree(10**400, [1, 2, 3])",
     "about 10^(10^399) strategy profiles"),
]


@pytest.mark.parametrize("call,count", ASTRONOMICAL)
def test_astronomical_counts_are_refused_within_5_s(call, count):
    script = (
        "from ospkit import *\n"
        f"try:\n    {call}\nexcept MechanismError as exc:\n    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(greedy.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=5,
    )
    assert proc.stdout == (
        f"enumeration of {count} exceeds scale guard 100000; "
        "raise OSPKIT_SCALE_GUARD to allow\n"
    ), proc.stderr


def test_counts_past_the_guard_keep_their_message():
    # counts a few digits long are built and shown whole, and counts past
    # 10^18 by the log10 of the whole count, wherever it can be built
    cases = [
        (lambda: english_auction_tree(8, [1, 2, 3, 4, 5]), "390625 strategy profiles"),
        (lambda: PSystem(10**6, bool).validate(), "about 10^301029 subsets"),
        (lambda: PSystem(30, bool).validate(), "1073741824 subsets"),
        (lambda: rank_quotient(PSystem(10**6, bool)),
         "about 10^477121 subset-submask pairs"),
        (lambda: PSystem.uniform(10**6, 5 * 10**5).maximal_sets(),
         "about 10^301026 maximal sets"),
        (lambda: PSystem.uniform(10**20, 2).maximal_sets(),
         "about 10^39 maximal sets"),
        (lambda: PSystem.uniform(10**20, 250).maximal_sets(),
         "about 10^4507 maximal sets"),
    ]
    for call, count in cases:
        with pytest.raises(MechanismError) as caught:
            call()
        assert str(caught.value) == (
            f"enumeration of {count} exceeds scale guard 100000; "
            "raise OSPKIT_SCALE_GUARD to allow"
        )


def test_an_exponent_past_20_digits_is_shown_by_its_magnitude():
    for digits, shown in [
        (10**20 - 1, "10^99999999999999999999"),
        (10**20, "10^(10^20)"),
        (Fraction(10**4300) * 3, "10^(10^4300)"),
    ]:
        with pytest.raises(MechanismError) as caught:
            model._magnitude_guard(digits, "subsets")
        assert str(caught.value) == (
            f"enumeration of about {shown} subsets exceeds scale guard 100000; "
            "raise OSPKIT_SCALE_GUARD to allow"
        )


def test_a_guard_of_thousands_of_digits_is_obeyed(monkeypatch):
    # a power is weighed by its magnitude only past a guard's own size:
    # under a guard of 5001 digits, 2^16000 (4817 digits) is let through
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        monkeypatch.setenv("OSPKIT_SCALE_GUARD", "1" + "0" * 5000)
        greedy._power_guard(2, 16000, "subsets")
        with pytest.raises(MechanismError, match=r"^enumeration of about 10\^6020 subsets"):
            greedy._power_guard(2, 20000, "subsets")
    finally:
        sys.set_int_max_str_digits(old)


GEOMETRIC = [1, 2, 4, 8]


class TestSearch:
    def test_grid_bytes(self):
        # every two-element system (the five antichains over {0, 1}), eight
        # domains, four horizons, four targets and both families: found,
        # explored, ratio and the found tree's file bytes, pinned by digest
        systems = [
            PSystem.single_item(2), PSystem.uniform(2, 2), PSystem.uniform(2, 0),
            PSystem.explicit(2, [[0]]), PSystem.explicit(2, [[1]]),
        ]
        domains = [
            [1, 2, 4, 8], [1, 2, 3, 4], [1, 2, 3], [1, 2], [1],
            [F(1) / 2, 1, 3], [-1, 0, 2, 5], [0, 1, 2, 3],
        ]
        digest = hashlib.sha256()
        exhausted = 0
        for ps, dom, k, target, family in itertools.product(
            systems, domains, (0, 1, 2, inf), (0, F(1) / 2, F(2) / 3, 1),
            (False, True),
        ):
            res = search_two_way_greedy(ps, dom, k, target, greedy_outcome=family)
            exhausted += not res.found
            text = dumps_mechanism(res.tree) if res.found else None
            digest.update(repr((res.found, res.explored, res.ratio, text)).encode())
        assert exhausted == 16
        assert digest.hexdigest() == (
            "91d6eb6d16ec7967670c4564a2c8f0abea3768ad3e5a12a922ee36a314ea710a"
        )

    def test_free_search_finds_exact_tree(self):
        res = search_two_way_greedy(PSystem.single_item(2), GEOMETRIC, 0, 1)
        assert res.found
        assert res.ratio == 1
        assert res.explored == 22
        assert is_two_way_greedy(res.tree).ok
        assert is_k_limitable(res.tree, 0).ok
        got, _ = approx_ratio(PSystem.single_item(2), res.tree, GEOMETRIC)
        assert got >= 1

    def test_greedy_outcomes_exhaust(self):
        res = search_two_way_greedy(
            PSystem.single_item(2), GEOMETRIC, 0, 1, greedy_outcome=True
        )
        assert not res.found
        assert res.tree is None
        assert res.explored == 51

    def test_one_step_rescues_greedy_outcomes(self):
        res = search_two_way_greedy(
            PSystem.single_item(2), GEOMETRIC, 1, 1, greedy_outcome=True
        )
        assert res.found
        assert res.ratio >= 1
        assert is_k_limitable(res.tree, 1).ok

    def test_trivial_target(self):
        res = search_two_way_greedy(PSystem.single_item(2), GEOMETRIC, 0, 0)
        assert res.found
        assert res.explored == 1

    def test_scale_guards(self):
        with pytest.raises(MechanismError, match="two agents"):
            search_two_way_greedy(PSystem.single_item(3), [1, 2], 0, 1)
        with pytest.raises(MechanismError, match="four types"):
            search_two_way_greedy(
                PSystem.single_item(2), [1, 2, 3, 4, 5], 0, 1
            )


def tie_to_rival_tree():
    """Exact, 0-limitable two-way tree on the geometric domain whose tied
    outcomes go against the lower index, putting it outside the
    greedy-outcome family the restricted search ranges over."""
    L10 = ("leaf", (1, 0), None)
    L01 = ("leaf", (0, 1), None)
    C2 = ("q", 0, [((F(4),), L10), ((F(1), F(2)), L01)])
    B21 = ("q", 1, [((F(2),), C2), ((F(1),), L10)])
    B4 = ("q", 1, [((F(4),), L01), ((F(1), F(2)), B21)])
    B8 = ("q", 1, [((F(8),), L01), ((F(1), F(2), F(4)), B4)])
    A = ("q", 0, [((F(8),), L10), ((F(1), F(2), F(4)), B8)])
    val_tree = tree_from_nested(2, [[1, 2, 4, 8], [1, 2, 4, 8]], A)
    return as_cost_tree(val_tree)


class TestTieToRivalCertificate:
    def test_exact_and_limitable(self):
        t = tie_to_rival_tree()
        assert is_two_way_greedy(t).ok
        assert is_k_limitable(t, 0).ok
        ratio, _ = approx_ratio(PSystem.single_item(2), t, GEOMETRIC)
        assert ratio == 1

    def test_breaks_ties_away_from_forward_greedy(self):
        t = tie_to_rival_tree()
        assert t.leaf_of((F(-2), F(-2))).outcome == (0, 1)
        assert forward_greedy_solution(PSystem.single_item(2), (2, 2)) == {0}


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_systems_reach_maximal_feasible_sets(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    pool = list(range(n))
    tops = []
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, n)
        tops.append(frozenset(rng.sample(pool, size)))
    ps = PSystem.explicit(n, tops)
    domain = [1, 2, 3]
    prof = tuple(rng.choice(domain) for _ in range(n))
    res = run_two_way_greedy(ps, domain, truth=prof)
    assert ps.feasible(res.chosen)
    assert res.chosen | res.excluded == set(range(n))
    for e in res.excluded:
        assert not ps.feasible(res.chosen | {e})


# -- oracles: the per-profile walks and the valuation-side budget forms ------


def oracle_is_revealable(tree, node_id):
    """is_revealable walking every available profile from the root."""
    agent = tree.nodes[node_id].agent
    own = tree.domain_at[node_id][agent]
    low_won, high_lost = True, True
    for prof in itertools.product(*tree.domain_at[node_id]):
        out = tree.leaf_of(prof).outcome[agent]
        if prof[agent] < own[-1] and out != 1:
            low_won = False
        if prof[agent] > own[0] and out != 0:
            high_lost = False
        if not (low_won or high_lost):
            return False
    return low_won or high_lost


def oracle_approx_ratio(ps, tree, domain):
    """approx_ratio walking every valuation profile from the root."""
    dom0 = tuple(sorted({F(v) for v in domain}))
    maximal = ps.maximal_sets()
    worst = witness = None
    for prof in itertools.product(dom0, repeat=ps.ground_size):
        outcome = tree.leaf_of(tuple(-v for v in prof)).outcome
        got = sum(v for v, f in zip(prof, outcome) if f)
        best = max(sum(prof[e] for e in t) for t in maximal)
        ratio = Fraction(1) if best == 0 else Fraction(got) / best
        if worst is None or ratio < worst:
            worst, witness = ratio, prof
    return worst, witness


def oracle_evaluate(nested, prof):
    while nested[0] == "q":
        _, agent, branches = nested
        nested = next(sub for vals, sub in branches if prof[agent] in vals)
    return nested[1]


def oracle_special_ok(agent, own, other_dom, nested, dom0):
    """The search's allowed extra-query forms, stated over valuations:
    cost maxima are valuation minima and the prefix/suffix roles swap.
    dom0 is the agent's full valuation domain."""
    table = {}
    for t in own:
        for y in other_dom:
            prof = (t, y) if agent == 0 else (y, t)
            table[(t, y)] = oracle_evaluate(nested, prof)[agent]
    removed = [v for v in dom0 if v not in own]
    val_prefix = not removed or own[-1] < min(removed)
    val_suffix = not removed or own[0] > max(removed)
    blocks = [vals for vals, _ in nested[2]]
    revelation = all(len(b) == 1 for b in blocks)
    singles = [b for b in blocks if len(b) == 1]
    sep_min = len(blocks) == 2 and (own[0],) in singles
    sep_max = len(blocks) == 2 and (own[-1],) in singles
    strongly_ineffective = len(set(table.values())) == 1

    def only(extreme, strong):
        rest = [s for s in own if s != extreme]
        if not all(len({table[(s, y)] for s in rest}) == 1 for y in other_dom):
            return False
        if strong and len({table[(s, y)] for s in rest for y in other_dom}) > 1:
            return False
        return any(table[(extreme, y)] != table[(rest[0], y)] for y in other_dom)

    adjacent = len(own) == 2 and dom0.index(own[1]) == dom0.index(own[0]) + 1
    top = (adjacent or val_suffix) and (
        (revelation and strongly_ineffective)
        or (revelation and only(own[0], strong=True))
        or (sep_min and only(own[0], strong=False))
    )
    bottom = val_prefix and (
        (revelation and strongly_ineffective)
        or (revelation and only(own[-1], strong=True))
        or (sep_max and only(own[-1], strong=False))
    )
    return top or bottom


def as_nested(tree, nid):
    node = tree.nodes[nid]
    if tree.is_leaf(nid):
        return ("leaf", node.outcome, node.payment)
    return ("q", node.agent, [
        (blk, as_nested(tree, cid)) for blk, cid in zip(node.blocks, node.children)
    ])


FIXTURE_INSTANCES = [
    (PSystem.single_item(2), [1, 2, 3, 4]),
    (PSystem.single_item(3), [1, 2, 3]),
    (PSystem.uniform(3, 2), [1, 2, 3]),
    (triangle(), [1, 2, 4]),
]


class TestAgainstOracles:
    """The box-split consumers and the shared allowed-forms predicate
    against one walk per profile and the valuation-side statement of the
    forms, on 1000 seeded trees."""

    def test_revealable_matches_oracle(self):
        verdicts = Counter()
        trees = [t for t, _ in random_priced_trees(range(1000))]
        for ps, dom in FIXTURE_INSTANCES:
            raw = extract_tree(ps, dom)
            trees += [raw, compress(raw)]
        trees.append(english_auction_tree(3, [1, 2, 3, 4, 5]))
        for t in trees:
            for u in t.internal_ids:
                got = is_revealable(t, u)
                assert got == oracle_is_revealable(t, u)
                verdicts[got] += 1
        assert verdicts[True] and verdicts[False]

    def test_approx_ratio_matches_oracle(self):
        # approx_ratio needs every agent on one mirrored domain, so these
        # trees share one: 2-3 agents, 2-4 valuations; from seed 1000 on
        # the valuations are fractional and may be zero or negative
        ratios = set()
        cases = []
        for seed in range(1500):
            rng = random.Random(seed)
            n = rng.randint(2, 3)
            if seed < 1000:
                dom = sorted(rng.sample(range(1, 9), rng.randint(2, 4)))
            else:
                den = rng.randint(1, 4)
                dom = sorted(
                    F(v) / den for v in rng.sample(range(-6, 7), rng.randint(2, 4))
                )
            cost = [-v for v in dom]
            tree = random_k_limited_tree(
                rng, n, [cost] * n, rng.choice([0, 1, 2, inf])
            )
            tops = [rng.sample(range(n), rng.randint(1, n)) for _ in range(2)]
            cases.append((PSystem.explicit(n, tops), tree, dom))
        for ps, dom in FIXTURE_INSTANCES:
            cases.append((ps, extract_tree(ps, dom), dom))
        zero_optimum = False
        for ps, tree, dom in cases:
            got = approx_ratio(ps, tree, dom)
            assert got == oracle_approx_ratio(ps, tree, dom)
            ratios.add(got[0])
            zero_optimum = zero_optimum or any(
                max(sum(prof[e] for e in t) for t in ps.maximal_sets()) == 0
                for prof in itertools.product(dom, repeat=ps.ground_size)
            )
        assert len(ratios) > 10
        assert zero_optimum and min(ratios) < 0

    def test_allowed_forms_match_valuation_oracle(self):
        verdicts = Counter()
        for seed in range(1000):
            rng = random.Random(seed)
            domains = [
                list(range(1, rng.randint(2, 4) + 1)) for _ in range(2)
            ]
            cost = random_k_limited_tree(rng, 2, domains, rng.choice([1, 2]))
            val = as_cost_tree(cost)
            for u in cost.internal_ids:
                agent = cost.nodes[u].agent
                got = classify_query(cost, u).extra_allowed
                want = oracle_special_ok(
                    agent,
                    val.domain_at[u][agent],
                    val.domain_at[u][1 - agent],
                    as_nested(val, u),
                    val.domains[agent],
                )
                assert got == want
                # the search asks the same of its candidate, which it
                # builds in the cost convention from the valuation domain
                space = greedy._Space(
                    PSystem.single_item(2), val.domains[agent], 0, 1, False
                )
                assert greedy._extra_allowed(
                    space, agent, cost.domain_at[u], as_nested(cost, u)
                ) == want
                verdicts[got] += 1
        assert verdicts[True] and verdicts[False]


# -- oracles: the elimination loop and the replaying extraction --------------


def oracle_run_two_way_greedy(ps, domain, truth=None, answers=None):
    """run_two_way_greedy as one loop of nested rounds that settles by
    raising, the form the elimination had before it became a stepper."""
    n = ps.ground_size
    dom0 = tuple(sorted({F(v) for v in domain}))
    if not dom0:
        raise MechanismError("the domain must be nonempty")
    d = len(dom0)
    if (truth is None) == (answers is None):
        raise MechanismError("exactly one of truth and answers is required")
    if truth is not None:
        truth = tuple(F(v) for v in truth)
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

    def alive():
        return [
            j
            for j in range(n)
            if j not in chosen and j not in excluded and j not in pending
        ]

    def sync():
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

    def flush():
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

    def ask(agent, direction, defer=False):
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


def oracle_extract_tree(ps, domain):
    """extract_tree replaying the oracle run from the root for every node."""
    dom0 = tuple(sorted({F(v) for v in domain}))
    n = ps.ground_size
    nodes = {}
    counter = itertools.count()

    def grow(prefix):
        nid = next(counter)
        try:
            result = oracle_run_two_way_greedy(ps, dom0, answers=prefix)
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
    return as_cost_tree(ImplementationTree(n, [dom0] * n, root, nodes))


def run_outcome(run, *args, **kwargs):
    """What a run gives: its result, the open query of an exhausted
    script, or the message of an error."""
    try:
        return ("result", run(*args, **kwargs))
    except NeedAnswer as need:
        return ("need", need.agent, need.direction, need.value, need.domain)
    except MechanismError as exc:
        return ("error", str(exc))


def random_instance(rng):
    """A seeded explicit or graphic system on 1-6 valuations, fractional
    on some seeds.  One explicit system in five has a single maximal set,
    so its run settles before the first query."""
    kind = rng.random()
    if kind < 0.2:
        n = rng.randint(1, 4)
        ps = PSystem.explicit(n, [rng.sample(range(n), rng.randint(0, n))])
    elif kind < 0.6:
        n = rng.randint(2, 5)
        tops = [
            rng.sample(range(n), rng.randint(1, n - 1))
            for _ in range(rng.randint(2, 4))
        ]
        ps = PSystem.explicit(n, tops)
    else:
        pairs = list(itertools.combinations(range(rng.randint(3, 4)), 2))
        ps = PSystem.graphic(rng.sample(pairs, rng.randint(3, min(5, len(pairs)))))
    d = rng.randint(1, 6)
    while d ** ps.ground_size > 700:
        d -= 1
    den = rng.choice([1, 1, 2, 3])
    domain = sorted(F(v) / den for v in rng.sample(range(-4, 10), d))
    return ps, domain


# the instance fixtures that the tests and the benchmark extract, with
# small neighbours; single_item(3,8), (4,5) and (5,5) bring a successor
# up after the lead drops out
ORACLE_FIXTURES = [
    "single_item(2,2)", "single_item(2,4)", "single_item(2,5)",
    "single_item(2,6)", "single_item(3,3)", "single_item(3,5)",
    "single_item(3,6)", "single_item(3,8)", "single_item(4,4)",
    "single_item(4,5)", "single_item(5,5)", "uniform(3,2,3)",
    "uniform(4,2,4)", "uniform(4,3,3)", "uniform(5,2,5)", "uniform(6,3,4)",
    "triangle_graphic(3)", "triangle_graphic(4)", "triangle_graphic(5)",
    "triangle_graphic(12)",
]


class TestStepperAgainstOracles:
    """The one elimination stepper against the nested-round loop and the
    extraction that replays it from the root for every node."""

    def assert_matches(self, ps, domain, rng, runs):
        got = extract_tree(ps, domain)
        want = oracle_extract_tree(ps, domain)
        assert dumps_mechanism(got) == dumps_mechanism(want)
        profiles = list(itertools.product(domain, repeat=ps.ground_size))
        for prof in rng.sample(profiles, min(runs, len(profiles))):
            new = run_outcome(run_two_way_greedy, ps, domain, truth=prof)
            assert new == run_outcome(
                oracle_run_two_way_greedy, ps, domain, truth=prof
            )
        for _ in range(runs):
            script = [rng.random() < 0.5 for _ in range(rng.randint(0, 12))]
            new = run_outcome(run_two_way_greedy, ps, domain, answers=script)
            assert new == run_outcome(
                oracle_run_two_way_greedy, ps, domain, answers=script
            )
        return got

    @pytest.mark.parametrize("name", ORACLE_FIXTURES)
    def test_fixture_instances(self, name):
        ps, domain = materialize(name)[1]
        self.assert_matches(ps, domain, random.Random(name), 40)

    def test_truthful_runs_beyond_the_guard(self):
        # the benchmark's truthful runs: too many profiles to extract
        ps, domain = materialize("uniform(6,3,8)")[1]
        rng = random.Random(8)
        for _ in range(40):
            prof = [rng.choice(domain) for _ in range(ps.ground_size)]
            got = run_two_way_greedy(ps, domain, truth=prof)
            assert got == oracle_run_two_way_greedy(ps, domain, truth=prof)

    @pytest.mark.parametrize("start", [0, 250, 500, 750])
    def test_seeded_systems(self, start):
        settled = parities = 0
        seen = set()
        for seed in range(start, start + 250):
            rng = random.Random(seed)
            ps, domain = random_instance(rng)
            tree = self.assert_matches(ps, domain, rng, 6)
            settled += tree.nodes[tree.root].kind == "leaf"
            seen.add((len(domain) % 2, any(v.denominator > 1 for v in domain)))
        assert settled and len(seen) == 4

    @pytest.mark.parametrize("start", [0, 250, 500, 750])
    def test_states_stay_closed(self, start):
        # no element common to every survivor, or in none, stays unresolved
        # at any query or at the end, so a deferred drop always leaves one
        for seed in range(start, start + 250):
            ps, domain = random_instance(random.Random(seed))
            dom0 = greedy._valuation_domain(domain)
            stack = [greedy._Elimination(ps, dom0)]
            while stack:
                state = stack.pop()
                assert not unremovable(ps, state.chosen, state.excluded)
                assert not removable(ps, state.chosen, state.excluded)
                if state.query is not None:
                    no = state.copy()
                    state.step(True)
                    no.step(False)
                    stack += [state, no]


def oracle_optimum(ps, ints):
    """approx_ratio's optimum column as one welfare column per maximal
    set, folded into the best by elementwise max."""
    n = ps.ground_size
    zeros = [0] * len(ints)
    best = None
    for t in ps._masks():
        col = [0]
        for j in range(n):
            add = ints if t >> j & 1 else zeros
            col = [c + v for c in col for v in add]
        # a comparison per entry: map(max, best, col) pays a call for each
        best = col if best is None else [b if b >= c else c for b, c in zip(best, col)]
    return best


def scaled_ints(domain):
    """The sorted valuations on ints over their least common
    denominator, as approx_ratio sums them."""
    dom0 = greedy._valuation_domain(domain)
    lcd = lcm(*(v.denominator for v in dom0))
    return [v.numerator * (lcd // v.denominator) for v in dom0]


class TestOptimum:
    """The layered optimum column against the per-set loop, entry for
    entry, and against the closed form of uniform systems."""

    @pytest.mark.parametrize("name", ORACLE_FIXTURES)
    def test_fixture_instances(self, name):
        ps, domain = materialize(name)[1]
        ints = scaled_ints(domain)
        got = greedy._optimum(ps._masks(), ps.ground_size, ints)
        assert got == oracle_optimum(ps, ints)

    def test_seeded_systems(self):
        seen = Counter()
        for seed in range(1500):
            ps, domain = random_instance(random.Random(seed))
            ints = scaled_ints(domain)
            masks = ps._masks()
            got = greedy._optimum(masks, ps.ground_size, ints)
            assert got == oracle_optimum(ps, ints)
            assert len(got) == len(domain) ** ps.ground_size
            seen[ps.name] += 1
            seen["one set"] += len(masks) == 1
            seen["empty set"] += masks == (0,)
            seen["fractional"] += any(v.denominator > 1 for v in domain)
            seen["zero"] += 0 in domain
            seen["negative"] += domain[0] < 0
        kinds = ("explicit", "graphic", "one set", "empty set", "fractional",
                 "zero", "negative")
        assert all(seen[kind] for kind in kinds)

    def test_uniform_closed_form(self):
        # every maximal set of uniform(n, r) has min(r, n) elements, so the
        # best welfare of a profile is the sum of its r largest values
        checked = 0
        for ints in ([-2, 3], [-2, 0, 3], [-1, 0, 2, 5]):
            d = len(ints)
            for n in range(1, 13):
                if d**n > 100000:
                    break
                for r in range(n + 1):
                    ps = PSystem.uniform(n, r)
                    want = [
                        sum(sorted(prof, reverse=True)[:r])
                        for prof in itertools.product(ints, repeat=n)
                    ]
                    assert greedy._optimum(ps._masks(), n, ints) == want
                    checked += 1
        assert len(PSystem.uniform(12, 6)._masks()) == 924
        assert checked == 90 + 65 + 44


# -- oracles: the p-system and its survivors on frozensets ------------------


def oracle_maximal_sets(ps):
    """PSystem.maximal_sets enumerating frozensets, as before masks."""
    n = ps.ground_size
    feas = []
    for bits in range(2**n):
        s = frozenset(i for i in range(n) if bits >> i & 1)
        if ps.feasible(s):
            feas.append(s)
    out = [
        s
        for s in feas
        if all(not ps.feasible(s | {e}) for e in range(n) if e not in s)
    ]
    out.sort(key=lambda s: tuple(sorted(s)))
    return tuple(out)


def oracle_maximal_within(ps, sub):
    elems = sorted(sub)
    out = []
    for bits in range(2 ** len(elems)):
        t = frozenset(e for j, e in enumerate(elems) if bits >> j & 1)
        if ps.feasible(t) and all(not ps.feasible(t | {e}) for e in sub - t):
            out.append(t)
    return out


def oracle_rank_quotient(ps):
    n = ps.ground_size
    best = None
    for bits in range(1, 2**n):
        sub = frozenset(i for i in range(n) if bits >> i & 1)
        sizes = [len(t) for t in oracle_maximal_within(ps, sub)]
        if max(sizes) == 0:
            continue
        q = Fraction(min(sizes), max(sizes))
        if best is None or q < best:
            best = q
    return best if best is not None else Fraction(1)


def oracle_surviving_solutions(ps, chosen, excluded):
    chosen = frozenset(chosen)
    excluded = frozenset(excluded)
    keep = [
        t for t in oracle_maximal_sets(ps) if chosen <= t and not (t & excluded)
    ]
    if not keep:
        raise MechanismError(
            "no maximal feasible set is consistent with the current state"
        )
    return tuple(keep)


def oracle_unremovable(ps, chosen, excluded):
    keep = oracle_surviving_solutions(ps, chosen, excluded)
    return frozenset.intersection(*keep) - frozenset(chosen) - frozenset(excluded)


def oracle_removable(ps, chosen, excluded):
    keep = oracle_surviving_solutions(ps, chosen, excluded)
    ground = frozenset(range(ps.ground_size))
    return ground - frozenset.union(*keep) - frozenset(chosen) - frozenset(excluded)


def result_or_error(fn, *args):
    try:
        return ("result", fn(*args))
    except MechanismError as exc:
        return ("error", str(exc))


class TestMasksAgainstOracles:
    """The p-system on int masks against the frozenset enumerations, with
    a fresh copy of each system whose oracle logs what it is asked."""

    def assert_matches(self, ps, rng):
        asked = []

        def logged(s):
            asked.append(s)
            return ps._oracle(s)

        mine = PSystem(ps.ground_size, logged, ps.name)
        assert mine.maximal_sets() == oracle_maximal_sets(ps)
        assert rank_quotient(mine) == oracle_rank_quotient(ps)
        n = ps.ground_size
        raised = 0
        for _ in range(8):
            # now and then an element outside the ground set, or a float
            pool = list(range(n)) + [-1, n, 10**12, 1.0]
            chosen = frozenset(e for e in pool if rng.random() < 0.25)
            excluded = frozenset(e for e in pool if rng.random() < 0.25)
            for new, old in [
                (surviving_solutions, oracle_surviving_solutions),
                (unremovable, oracle_unremovable),
                (removable, oracle_removable),
            ]:
                got = result_or_error(new, mine, chosen, excluded)
                assert got == result_or_error(old, ps, chosen, excluded)
            raised += got[0] == "error"
        assert all(
            type(s) is frozenset and all(type(e) is int and 0 <= e < n for e in s)
            for s in asked
        )
        # every subset but the empty one, which the cache holds from the start
        assert len(set(asked)) == len(asked) == 2**n - 1
        return raised

    @pytest.mark.parametrize("name", ORACLE_FIXTURES)
    def test_fixture_instances(self, name):
        ps, _ = materialize(name)[1]
        self.assert_matches(ps, random.Random(name))

    @pytest.mark.parametrize("start", [0, 250, 500, 750])
    def test_seeded_systems(self, start):
        raised = [
            self.assert_matches(random_instance(random.Random(seed))[0], rng)
            for seed in range(start, start + 250)
            for rng in [random.Random(-seed)]
        ]
        assert 0 < sum(raised) < 8 * len(raised)


@pytest.mark.parametrize("n", range(1, 9))
def test_closed_form_maximal_sets_match_oracle(n):
    # uniform systems list their maximal sets without asking the oracle
    for ps in [PSystem.single_item(n)] + [
        PSystem.uniform(n, r) for r in range(n + 2)
    ]:
        assert ps.maximal_sets() == oracle_maximal_sets(PSystem(n, ps._oracle))


def test_extraction_steps_each_query_state_once(monkeypatch):
    # the raw tree of single_item(5,5) reaches 605 query states in 2100
    # query nodes; stepping both answers at every node took 4200 steps
    answers = []
    step = greedy._Elimination.step

    def counted(self, answer):
        answers.append(answer)
        step(self, answer)

    monkeypatch.setattr(greedy._Elimination, "step", counted)
    ps, domain = materialize("single_item(5,5)")[1]
    tree = extract_tree(ps, domain)
    assert len(tree.internal_ids) == 2100
    assert len(answers) < len(tree.internal_ids)


# -- tree builders leave no reference cycles ---------------------------------

SI3 = (PSystem.single_item(3), [1, 2, 3, 4])

BUILDERS = {
    "compress": lambda: compress(extract_tree(*SI3)),
    "serialize": lambda: serialize(extract_tree(*SI3)),
    "extract_tree": lambda: extract_tree(*SI3),
    "english_auction_tree": lambda: english_auction_tree(3, [1, 2, 3, 4]),
    "reveal_at_k2": lambda: reveal_at_k2(compress(extract_tree(*SI3)), 0),
    "tree_from_nested": lambda: tree_from_nested(
        1, [[1, 2]], ("q", 0, [([1], ("leaf", [1], None)), ([2], ("leaf", [0], None))])
    ),
    "random_k_limited_tree": lambda: random_k_limited_tree(
        random.Random(3), 2, [[1, 2, 3]] * 2, 1
    ),
    "search_two_way_greedy": lambda: search_two_way_greedy(
        PSystem.single_item(2), [1, 2, 3, 4], 0, 1
    ),
    "search_two_way_greedy_outcome": lambda: search_two_way_greedy(
        PSystem.single_item(2), [1, 2, 3, 4], 0, 1, greedy_outcome=True
    ),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builders_leave_nothing_for_the_cyclic_gc(name):
    # a builder that recursed through a self-calling closure left its
    # node dict in a reference cycle until the cyclic gc ran
    gc.collect()
    gc.disable()
    try:
        BUILDERS[name]()
        assert gc.collect() == 0
    finally:
        gc.enable()
