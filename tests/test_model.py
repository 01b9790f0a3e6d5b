import itertools
import random
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from ospkit.model import (
    ImplementationTree,
    LeafNode,
    MechanismError,
    QueryNode,
    equivalence_class,
    first_divergence,
    k_step_neighborhood,
    parting_node,
    profile_leaves,
    query_count,
    random_k_limited_tree,
    split_box,
    tree_from_nested,
    validate_tree,
)


def F(v):
    return Fraction(v)


def two_agent_tree():
    # ids in preorder: 0 root (agent 0), 1 (agent 1), 2,3 leaves,
    # 4 (agent 1), 5 (agent 0), 6,7,8 leaves
    return tree_from_nested(
        2,
        [[1, 2, 3], [1, 2, 3]],
        (
            "q",
            0,
            [
                (
                    [1],
                    (
                        "q",
                        1,
                        [
                            ([1, 2], ("leaf", [0, 1], [0, 0])),
                            ([3], ("leaf", [1, 0], [2, 0])),
                        ],
                    ),
                ),
                (
                    [2, 3],
                    (
                        "q",
                        1,
                        [
                            (
                                [1],
                                (
                                    "q",
                                    0,
                                    [
                                        ([2], ("leaf", [1, 1], [3, 1])),
                                        ([3], ("leaf", [0, 0], [0, 0])),
                                    ],
                                ),
                            ),
                            ([2, 3], ("leaf", [1, 0], [1, 0])),
                        ],
                    ),
                ),
            ],
        ),
    )


class TestConstruction:
    def test_preorder_ids(self):
        t = two_agent_tree()
        assert t.preorder == [0, 1, 2, 3, 4, 5, 6, 7, 8]
        assert t.leaf_ids == [2, 3, 6, 7, 8]
        assert t.internal_ids == [0, 1, 4, 5]
        assert validate_tree(t) == []

    def test_domain_tracking(self):
        t = two_agent_tree()
        assert t.domain_at[4] == ((F(2), F(3)), (F(1), F(2), F(3)))
        assert t.domain_at[5] == ((F(2), F(3)), (F(1),))
        assert t.domain_at[6] == ((F(2),), (F(1),))

    def test_query_depth_counts_node_itself(self):
        t = two_agent_tree()
        assert t.query_depth[0] == (1, 0)
        assert t.query_depth[5] == (2, 1)
        assert t.query_depth[8] == (1, 1)
        assert query_count(t, 0, 6) == 2
        assert query_count(t, 1, 6) == 1

    def test_reused_child_rejected(self):
        leaf = LeafNode(id=2, outcome=(F(0), F(0)), payment=None)
        q = QueryNode(
            id=0, agent=0, blocks=((F(1),), (F(2),)), children=(2, 2)
        )
        with pytest.raises(MechanismError):
            ImplementationTree(1, [[1, 2]], 0, {0: q, 2: leaf})

    def test_validate_flags_bad_partition(self):
        leaf_a = LeafNode(id=1, outcome=(F(0),), payment=None)
        leaf_b = LeafNode(id=2, outcome=(F(0),), payment=None)
        q = QueryNode(
            id=0, agent=0, blocks=((F(1),), (F(1), F(2))), children=(1, 2)
        )
        t = ImplementationTree(1, [[1, 2, 3]], 0, {0: q, 1: leaf_a, 2: leaf_b})
        problems = validate_tree(t)
        assert any("two blocks" in p or "in two blocks" in p for p in problems)
        assert any("not covered" in p for p in problems)

    def test_single_leaf_tree(self):
        t = tree_from_nested(2, [[1], [1, 2]], ("leaf", [0, 0], None))
        assert validate_tree(t) == []
        assert t.leaf_of((1, 2)).id == 0


class TestWalks:
    def test_leaf_of(self):
        t = two_agent_tree()
        assert t.leaf_of((1, 2)).id == 2
        assert t.leaf_of((1, 3)).id == 3
        assert t.leaf_of((2, 1)).id == 6
        assert t.leaf_of((3, 1)).id == 7
        assert t.leaf_of((3, 3)).id == 8

    def test_leaf_of_rejects_foreign_type(self):
        t = two_agent_tree()
        with pytest.raises(MechanismError):
            t.leaf_of((4, 1))

    def test_path_of(self):
        t = two_agent_tree()
        assert t.path_of((2, 1)) == (0, 4, 5, 6)

    def test_first_divergence(self):
        t = two_agent_tree()
        assert first_divergence(t, (1, 1), (2, 1)) == 0
        assert first_divergence(t, (2, 1), (3, 1)) == 5
        assert first_divergence(t, (2, 2), (2, 3)) is None
        assert first_divergence(t, (2, 1), (3, 2)) == 4


class TestNeighborhood:
    def test_horizon_zero(self):
        t = two_agent_tree()
        covered, ends = k_step_neighborhood(t, 0, 0)
        assert covered == {1, 4}
        assert ends == {2, 3, 5, 8}

    def test_horizon_one(self):
        t = two_agent_tree()
        covered, ends = k_step_neighborhood(t, 0, 1)
        assert covered == {1, 2, 3, 4, 5, 8}
        assert ends == {2, 3, 5, 8}

    def test_horizon_two_reaches_leaves(self):
        t = two_agent_tree()
        covered, ends = k_step_neighborhood(t, 0, 2)
        assert covered == {1, 2, 3, 4, 5, 6, 7, 8}
        assert ends == {2, 3, 6, 7, 8}

    def test_horizon_inf(self):
        t = two_agent_tree()
        covered, ends = k_step_neighborhood(t, 0, inf)
        assert covered == {1, 2, 3, 4, 5, 6, 7, 8}
        assert ends == {2, 3, 6, 7, 8}

    def test_rejects_leaf(self):
        t = two_agent_tree()
        with pytest.raises(MechanismError):
            k_step_neighborhood(t, 2, 0)


class TestEquivalenceClass:
    def test_myopic_class_at_root(self):
        t = two_agent_tree()
        got = equivalence_class(t, 0, (2, 1), 0)
        assert got == ((F(2), F(1)), (F(3), F(1)))

    def test_one_step_class_shrinks(self):
        t = two_agent_tree()
        assert equivalence_class(t, 0, (2, 1), 1) == ((F(2), F(1)),)
        assert equivalence_class(t, 0, (2, 1), inf) == ((F(2), F(1)),)

    def test_same_leaf_profiles_stay_equivalent(self):
        t = two_agent_tree()
        got = equivalence_class(t, 1, (1, 1), 0)
        assert got == ((F(1), F(1)), (F(1), F(2)))

    def test_unavailable_profile_rejected(self):
        t = two_agent_tree()
        with pytest.raises(MechanismError):
            equivalence_class(t, 5, (1, 1), 0)


def random_tree(seed, agents=2, dmax=3, k=2):
    rng = random.Random(seed)
    domains = [list(range(1, rng.randint(2, dmax) + 1)) for _ in range(agents)]
    return random_k_limited_tree(rng, agents, domains, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_every_profile_reaches_a_leaf(seed):
    t = random_tree(seed)
    seen = set()
    for prof in t.available_profiles(t.root):
        path = t.path_of(prof)
        assert t.is_leaf(path[-1])
        seen.add(path[-1])
    assert seen == set(t.leaf_ids)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_class_contains_own_profile_and_shrinks_with_horizon(seed):
    t = random_tree(seed)
    if not t.internal_ids:
        return
    rng = random.Random(seed + 1)
    nid = rng.choice(t.internal_ids)
    dom = t.domain_at[nid]
    prof = tuple(rng.choice(d) for d in dom)
    horizons = [0, 1, 2, inf]
    classes = [set(equivalence_class(t, nid, prof, k)) for k in horizons]
    for cls in classes:
        assert prof in cls
    for wider, narrower in zip(classes, classes[1:]):
        assert narrower <= wider


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_neighborhood_nesting(seed):
    t = random_tree(seed)
    if not t.internal_ids:
        return
    rng = random.Random(seed + 2)
    nid = rng.choice(t.internal_ids)
    cov1, _ = k_step_neighborhood(t, nid, 1)
    cov2, _ = k_step_neighborhood(t, nid, 2)
    covi, endsi = k_step_neighborhood(t, nid, inf)
    assert cov1 <= cov2 <= covi
    strictly_below = set()
    stack = [c for c in t.nodes[nid].children]
    while stack:
        x = stack.pop()
        strictly_below.add(x)
        sub = t.nodes[x]
        if not t.is_leaf(x):
            stack.extend(sub.children)
    assert covi == strictly_below
    assert endsi == {x for x in strictly_below if t.is_leaf(x)}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_query_depth_matches_path_count(seed):
    t = random_tree(seed, agents=3, dmax=3)
    rng = random.Random(seed + 3)
    leaf = rng.choice(t.leaf_ids)
    path = []
    nid = leaf
    while nid is not None:
        path.append(nid)
        nid = t.parent[nid]
    for agent in range(t.agents):
        expect = sum(
            1
            for x in path
            if not t.is_leaf(x) and t.nodes[x].agent == agent
        )
        assert query_count(t, agent, leaf) == expect


# -- oracles: the walks the split and the parting helper replace -------------


def oracle_first_divergence(tree, a, b):
    """Walk both profiles down from the root until their blocks differ."""
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


def oracle_equivalence_class(tree, node_id, profile, k):
    """equivalence_class walking each candidate together with the profile
    down from node_id."""
    prof = tree.as_profile(profile)
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


def small_trees(seeds):
    """Seeded k-limited trees with 2-3 agents and 2-3 types each, at most
    27 profiles, so every profile pair stays cheap."""
    for seed in seeds:
        rng = random.Random(seed)
        agents = rng.randint(2, 3)
        domains = [list(range(1, rng.randint(2, 3) + 1)) for _ in range(agents)]
        k = rng.choice([0, 1, 2, inf])
        yield random_k_limited_tree(rng, agents, domains, k)


class TestPartingAgainstOracles:
    """The box split, the parting helper and their consumers against one
    walk per profile from the root or from the node."""

    def test_split_matches_walks(self):
        for t in small_trees(range(200)):
            for nid in t.internal_ids:
                boxes = list(split_box(t, nid))
                leaf_at = profile_leaves(t, nid)
                assert sum(
                    len(list(itertools.product(*box))) for _, box in boxes
                ) == len(leaf_at)
                for prof in t.available_profiles(nid):
                    assert t.path_of(prof)[-1] == leaf_at[prof]

    def test_first_divergence_matches_walk(self):
        parted = 0
        for t in small_trees(range(200)):
            leaf_at = profile_leaves(t, t.root)
            for a, b in itertools.product(leaf_at, repeat=2):
                want = oracle_first_divergence(t, a, b)
                assert first_divergence(t, a, b) == want
                assert parting_node(t, leaf_at[a], leaf_at[b]) == want
                parted += want is not None
        assert parted > 0

    @pytest.mark.parametrize("k", [0, 1, 2, inf])
    def test_equivalence_class_matches_loop(self, k):
        sizes = set()
        for t in small_trees(range(100)):
            for nid in t.internal_ids:
                for prof in t.available_profiles(nid):
                    got = equivalence_class(t, nid, prof, k)
                    assert got == oracle_equivalence_class(t, nid, prof, k)
                    sizes.add(len(got))
        assert len(sizes) > 2
