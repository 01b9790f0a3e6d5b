import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from math import inf, prod

import pytest
from hypothesis import given, settings, strategies as st

from ospkit.cmon import synthesize_payments
from ospkit.fixtures import materialize
from ospkit.greedy import (
    approx_ratio,
    compress,
    english_auction_tree,
    extract_tree,
    is_revealable,
    serialize,
)
from ospkit.io import dumps_mechanism, loads_mechanism
from ospkit.model import (
    ImplementationTree,
    LeafNode,
    MechanismError,
    QueryNode,
    _block_problems,
    as_integer,
    equivalence_class,
    k_step_neighborhood,
    normalize_horizon,
    parting_node,
    query_count,
    random_k_limited_tree,
    require_binary_outcomes,
    require_node,
    require_valid,
    scale_guard,
    tree_from_nested,
    types_of,
    validate_tree,
)
from ospkit.rational import parse_rational
from ospkit.verifier import classify_query, reveal_at_k2


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

    def test_uncovered_values_print_as_rationals(self):
        # the values used to print as a list of Fraction reprs
        q = QueryNode(0, 0, ((F("1/2"),), (F(1),)), (1, 2))
        leaves = {i: LeafNode(i, (F(0),)) for i in (1, 2)}
        t = ImplementationTree(1, [["1/2", 1, "3/2", 2]], 0, {0: q, **leaves})
        assert validate_tree(t) == ["node 0: domain values 3/2, 2 not covered"]

    def test_single_leaf_tree(self):
        t = tree_from_nested(2, [[1], [1, 2]], ("leaf", [0, 0], None))
        assert validate_tree(t) == []
        assert t.leaf_of((1, 2)).id == 0


def test_one_domain_per_agent():
    with pytest.raises(MechanismError, match="^1 domains for 2 agents$"):
        ImplementationTree(2, [[1, 2]], 0, {0: LeafNode(0, (F(0), F(0)))})


class TestWalks:
    def test_leaf_of(self):
        t = two_agent_tree()
        assert t.leaf_of((1, 2)).id == 2
        assert t.leaf_of((1, 3)).id == 3
        assert t.leaf_of((2, 1)).id == 6
        assert t.leaf_of((3, 1)).id == 7
        assert t.leaf_of((3, 3)).id == 8

    @pytest.mark.parametrize(
        ("walk", "profile", "message"),
        [
            ("leaf_of", (True, 1), "agent 0: not a rational: True"),
            ("path_of", (1, 1.5j), "agent 1: not a rational: 1.5j"),
            ("leaf_of", (1, "x"), "agent 1: not a rational: 'x'"),
        ],
    )
    def test_walks_refuse_a_value_that_is_not_a_rational(
        self, walk, profile, message
    ):
        t = two_agent_tree()
        with pytest.raises(MechanismError, match=f"^{re.escape(message)}$"):
            getattr(t, walk)(profile)
        with pytest.raises(MechanismError, match=f"^{re.escape(message)}$"):
            equivalence_class(t, 0, profile, 0)

    def test_walks_refuse_a_short_profile(self):
        with pytest.raises(MechanismError, match="^profile length 1 != 2 agents$"):
            two_agent_tree().path_of((1,))

    def test_walks_on_a_malformed_tree_name_the_node(self):
        # the root's blocks miss type 3, and its second child is unknown
        t = ImplementationTree(1, [[1, 2, 3]], 0, {
            0: QueryNode(0, 0, ((F(1),), (F(2),)), (1, 7)),
            1: LeafNode(1, (F(0),)),
        })
        assert t.problems
        with pytest.raises(MechanismError, match="^value 3 not in any block of node 0$"):
            t.leaf_of((3,))
        with pytest.raises(
            MechanismError, match="^walk entered defective edge at node 0$"
        ):
            t.path_of((2,))

    def test_leaf_of_rejects_foreign_type(self):
        t = two_agent_tree()
        with pytest.raises(MechanismError):
            t.leaf_of((4, 1))

    def test_path_of(self):
        t = two_agent_tree()
        assert t.path_of((2, 1)) == (0, 4, 5, 6)

    def test_first_divergence(self):
        t = two_agent_tree()
        leaf_at = profile_leaves(t, t.root)

        def parts(a, b):
            return parting_node(t, leaf_at[a], leaf_at[b])

        assert parts((1, 1), (2, 1)) == 0
        assert parts((2, 1), (3, 1)) == 5
        assert parts((2, 2), (2, 3)) is None
        assert parts((2, 1), (3, 2)) == 4


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

    def test_the_guard_counts_the_class_not_the_node_box(self, monkeypatch):
        # the root's box holds 9 profiles, these classes 2 and 1
        t = two_agent_tree()
        monkeypatch.setenv("OSPKIT_SCALE_GUARD", "1")
        with pytest.raises(
            MechanismError, match="^enumeration of 2 profiles exceeds scale guard 1;"
        ):
            equivalence_class(t, 0, (2, 1), 0)
        assert equivalence_class(t, 0, (2, 1), 1) == ((F(2), F(1)),)


def random_tree(seed, agents=2, dmax=3, k=2):
    rng = random.Random(seed)
    domains = [list(range(1, rng.randint(2, dmax) + 1)) for _ in range(agents)]
    return random_k_limited_tree(rng, agents, domains, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_every_profile_reaches_a_leaf(seed):
    t = random_tree(seed)
    seen = set()
    for prof in itertools.product(*t.domain_at[t.root]):
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


def profile_leaves(tree: ImplementationTree, node_id: int) -> dict[tuple, int]:
    """The leaf each profile available at node_id reaches, from the boxes
    of the leaves below it."""
    require_valid(tree)
    require_node(tree, node_id)
    scale_guard(prod(m.bit_count() for m in tree.mask_at[node_id]))
    return {
        prof: leaf
        for leaf in tree.leaves_under[node_id]
        for prof in itertools.product(*tree.domain_at[leaf])
    }


def oracle_split_box(tree, node_id):
    """The leaf boxes below node_id on types, by a walk down the blocks:
    each query places every value of the box with `v in blk`, one
    Fraction comparison at a time, and children are stacked in block
    order.  The tree must be valid."""
    stack = [(node_id, tree.domain_at[node_id])]
    while stack:
        nid, box = stack.pop()
        sub = tree.nodes[nid]
        if isinstance(sub, LeafNode):
            yield nid, box
            continue
        j = sub.agent
        parts = [[] for _ in sub.blocks]
        for v in box[j]:
            for idx, blk in enumerate(sub.blocks):
                if v in blk:
                    parts[idx].append(v)
                    break
            else:
                raise MechanismError(f"value {v} not in any block of node {nid}")
        for part, cid in zip(parts, sub.children):
            if part:
                stack.append((cid, box[:j] + (tuple(part),) + box[j + 1 :]))


def oracle_split_masks(tree, node_id):
    """oracle_split_box on masks: each query splits the box by its block
    masks, and children are stacked in block order."""
    stack = [(node_id, tree.mask_at[node_id])]
    while stack:
        nid, box = stack.pop()
        sub = tree.nodes[nid]
        if isinstance(sub, LeafNode):
            yield nid, box
            continue
        j = sub.agent
        rest = box[j]
        for m, cid in zip(tree.block_masks[nid], sub.children):
            if rest & m:
                stack.append((cid, box[:j] + (rest & m,) + box[j + 1 :]))
            rest &= ~m


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
    for cand in itertools.product(*tree.domain_at[node_id]):
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


FRACTIONS = [Fraction(v) for v in ("1/3", "1/2", "1", "3/2", "2", "7/3", "3")]


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
                leaf_at = profile_leaves(t, nid)
                assert sum(
                    len(list(itertools.product(*t.domain_at[leaf])))
                    for leaf in t.leaves_under[nid]
                ) == len(leaf_at)
                for prof in itertools.product(*t.domain_at[nid]):
                    assert t.path_of(prof)[-1] == leaf_at[prof]

    def test_split_matches_fraction_split(self):
        for t in small_trees(range(200)):
            for nid in t.internal_ids:
                below = list(reversed(t.leaves_under[nid]))
                want = list(oracle_split_box(t, nid))
                assert [(leaf, t.domain_at[leaf]) for leaf in below] == want
                masks = [
                    (leaf, tuple(types_of(t, j, m) for j, m in enumerate(box)))
                    for leaf, box in oracle_split_masks(t, nid)
                ]
                assert masks == want
                assert profile_leaves(t, nid) == {
                    prof: leaf
                    for leaf, box in oracle_split_box(t, nid)
                    for prof in itertools.product(*box)
                }

    def test_split_reads_leaf_masks_as_the_walk_splits(self):
        # valid trees with up to 4 types per agent and fractional types
        seen = Counter()
        for seed in range(1000):
            rng = random.Random(seed)
            agents = rng.randint(1, 3)
            domains = [
                sorted(rng.sample(FRACTIONS, rng.randint(1, 4)))
                for _ in range(agents)
            ]
            t = random_k_limited_tree(rng, agents, domains, rng.choice([0, 1, inf]))
            assert not t.problems
            for nid in t.preorder:
                below = reversed(t.leaves_under[nid])
                got = [(leaf, t.mask_at[leaf]) for leaf in below]
                assert got == list(oracle_split_masks(t, nid))
                seen["leaves"] += len(got)
            seen["deep"] += len(t.leaf_ids) >= 8
        assert seen["deep"] > 20

    def test_first_divergence_matches_walk(self):
        parted = 0
        for t in small_trees(range(200)):
            leaf_at = profile_leaves(t, t.root)
            for a, b in itertools.product(leaf_at, repeat=2):
                want = oracle_first_divergence(t, a, b)
                assert parting_node(t, leaf_at[a], leaf_at[b]) == want
                parted += want is not None
        assert parted > 0

    @pytest.mark.parametrize("k", [0, 1, 2, 3, inf])
    def test_equivalence_class_matches_loop(self, k):
        sizes = set()
        for t in small_trees(range(100)):
            for nid in t.internal_ids:
                for prof in itertools.product(*t.domain_at[nid]):
                    got = equivalence_class(t, nid, prof, k)
                    assert got == oracle_equivalence_class(t, nid, prof, k)
                    sizes.add(len(got))
        assert len(sizes) > 2


# -- oracles: the validation walk and the leaf scan the constructor replaces --


def oracle_validate_tree(tree):
    """validate_tree as a second walk over the built tree: the structural
    defects, then empty domains, then each node's own in preorder."""
    problems = []
    for nid in tree.preorder:
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            continue
        if len(node.children) != len(node.blocks):
            problems.append(
                f"node {nid}: {len(node.blocks)} blocks, "
                f"{len(node.children)} children"
            )
        for cid in reversed(node.children[: len(node.blocks)]):
            if cid not in tree.nodes:
                problems.append(f"node {nid}: unknown child {cid}")
    for nid in sorted(set(tree.nodes) - set(tree.preorder)):
        problems.append(f"node {nid} unreachable from root")
    for i, dom in enumerate(tree.domains):
        if not dom:
            problems.append(f"agent {i} has an empty domain")
    for nid in tree.preorder:
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            if len(node.outcome) != tree.agents:
                problems.append(f"leaf {nid}: outcome length {len(node.outcome)}")
            if node.payment is not None and len(node.payment) != tree.agents:
                problems.append(f"leaf {nid}: payment length {len(node.payment)}")
            continue
        dom = tree.domain_at[nid][node.agent]
        if len(node.blocks) < 2:
            problems.append(f"node {nid}: fewer than two blocks")
        seen = set()
        for blk in node.blocks:
            if not blk:
                problems.append(f"node {nid}: empty block")
            for v in blk:
                if v in seen:
                    problems.append(f"node {nid}: value {v} in two blocks")
                seen.add(v)
                if v not in dom:
                    problems.append(
                        f"node {nid}: value {v} outside the current domain"
                    )
        if seen != set(dom):
            missing = sorted(set(dom) - seen)
            if missing:
                shown = ", ".join(str(v) for v in missing)
                problems.append(
                    f"node {nid}: domain values {shown} not covered"
                )
    return problems


def oracle_require_binary_outcomes(tree):
    """require_binary_outcomes as a scan over every leaf's outcomes."""
    for nid in tree.leaf_ids:
        for v in tree.nodes[nid].outcome:
            if v != 0 and v != 1:
                raise MechanismError(
                    f"leaf {nid} has non-binary outcome {v}; "
                    "this analysis needs 0/1 outcomes"
                )


def raised(check, tree):
    try:
        check(tree)
    except MechanismError as exc:
        return str(exc)
    return None


MUTATIONS = (
    "drop_value",
    "value_in_two_blocks",
    "value_twice_in_block",
    "repeat_down",
    "value_outside_current",
    "value_outside_full",
    "empty_block",
    "single_block",
    "drop_child",
    "short_outcome",
    "short_payment",
    "non_binary",
    "unknown_child",
    "unreachable",
    "empty_domain",
)


def mutate(rng, tree, kind):
    """The tree's domains and node map with one defect of the given kind,
    or None when the tree has no place for it."""
    domains = list(tree.domains)
    nodes = dict(tree.nodes)
    queries = [n for n in nodes.values() if isinstance(n, QueryNode)]
    leaves = [n for n in nodes.values() if isinstance(n, LeafNode)]
    fresh = max(nodes) + 1
    if kind in ("short_outcome", "short_payment", "non_binary"):
        if kind == "short_payment":
            leaves = [n for n in leaves if n.payment is not None]
        if not leaves:
            return None
        leaf = rng.choice(leaves)
        if kind == "short_outcome":
            leaf = LeafNode(leaf.id, leaf.outcome[:-1], leaf.payment)
        elif kind == "short_payment":
            leaf = LeafNode(leaf.id, leaf.outcome, leaf.payment[:-1])
        elif leaf.outcome:
            outcome = list(leaf.outcome)
            outcome[rng.randrange(len(outcome))] = rng.choice([2, Fraction(1, 2), -1])
            leaf = LeafNode(leaf.id, tuple(outcome), leaf.payment)
        nodes[leaf.id] = leaf
        return domains, nodes
    if kind == "unreachable":
        nodes[fresh] = LeafNode(fresh, (F(0),) * tree.agents, None)
        return domains, nodes
    if kind == "empty_domain":
        domains[rng.randrange(tree.agents)] = ()
        return domains, nodes
    if kind == "repeat_down":
        # a value twice in a block hands the child a domain that repeats
        # it; put once more into the child's blocks, the value makes them
        # merge into that domain, and they still fail to partition it
        below = []
        for q in queries:
            for idx, cid in enumerate(q.children[: len(q.blocks)]):
                c = nodes.get(cid)
                if isinstance(c, QueryNode) and c.agent == q.agent:
                    shared = set(q.blocks[idx]) & set(itertools.chain(*c.blocks))
                    below.extend((q, idx, c, v) for v in sorted(shared))
        if not below:
            return None
        q, idx, c, v = rng.choice(below)
        blocks = list(q.blocks)
        blocks[idx] += (v,)
        nodes[q.id] = QueryNode(q.id, q.agent, tuple(blocks), q.children)
        blocks = list(c.blocks)
        blocks[rng.randrange(len(blocks))] += (v,)
        nodes[c.id] = QueryNode(c.id, c.agent, tuple(blocks), c.children)
        return domains, nodes
    if not queries:
        return None
    q = rng.choice(queries)
    blocks = [list(b) for b in q.blocks]
    children = list(q.children)
    pick = rng.randrange(len(blocks))
    if not blocks[pick] and kind.startswith(("drop_value", "value_in", "value_twice")):
        return None
    own = tree.domain_at[q.id][q.agent] if q.id in tree.domain_at else blocks[pick]
    if kind == "drop_value":
        blocks[pick].pop(rng.randrange(len(blocks[pick])))
    elif kind == "value_in_two_blocks":
        other = (pick + 1) % len(blocks)
        blocks[other].append(rng.choice(blocks[pick]))
    elif kind == "value_twice_in_block":
        blocks[pick].append(rng.choice(blocks[pick]))
    elif kind == "value_outside_current":
        outside = [v for v in tree.domains[q.agent] if v not in own]
        if not outside:
            return None
        blocks[pick].append(rng.choice(outside))
    elif kind == "value_outside_full":
        blocks[pick].insert(0, F(99))
    elif kind == "empty_block":
        blocks[pick] = []
    elif kind == "single_block":
        blocks = [[v for b in blocks for v in b]]
        children = children[:1]
    elif not children:
        return None
    elif kind == "drop_child":
        children.pop()
    elif kind == "unknown_child":
        for idx in rng.sample(range(len(children)), rng.randint(1, len(children))):
            children[idx] = fresh + idx
    nodes[q.id] = QueryNode(q.id, q.agent, tuple(map(tuple, blocks)), tuple(children))
    return domains, nodes


def seeded_trees(seen):
    """1000 seeded trees, each as (valid tree, the same with one to three
    defects); `seen` counts the defects made and the trees refused."""
    for seed in range(1000):
        rng = random.Random(seed)
        agents = rng.randint(1, 3)
        domains = [list(range(1, rng.randint(2, 4) + 1)) for _ in range(agents)]
        valid = t = random_k_limited_tree(
            rng, agents, domains, rng.choice([0, 1, 2, inf]), rng.random() < 0.5
        )
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(MUTATIONS)
            mutated = mutate(rng, t, kind)
            if mutated is None:
                continue
            domains, nodes = mutated
            try:
                t = ImplementationTree(t.agents, domains, t.root, nodes)
            except MechanismError:
                seen["refused"] += 1
                break
            seen[kind] += 1
        yield valid, t


def oracle_domain_at(tree):
    """domain_at read down from the root: below a query, the queried
    agent's domain is the child's block, sorted as written."""
    doms = {tree.root: tree.domains}
    stack = [tree.root]
    while stack:
        nid = stack.pop()
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            continue
        j = node.agent
        for blk, cid in zip(node.blocks, node.children):
            if cid in tree.nodes:
                dom = doms[nid]
                doms[cid] = dom[:j] + (tuple(sorted(blk)),) + dom[j + 1 :]
                stack.append(cid)
    return doms


class TestValidityAgainstOracles:
    """The checks the constructor records against the second validation
    walk and the leaf scan, on 1000 seeded trees with one to three defects
    each."""

    def test_problems_and_messages_match(self):
        seen = Counter()
        for _, t in seeded_trees(seen):
            want = oracle_validate_tree(t)
            assert validate_tree(t) == want
            assert t.problems == tuple(want)
            message = f"malformed mechanism: {want[0]}" if want else None
            assert raised(require_valid, t) == message
            assert raised(require_binary_outcomes, t) == raised(
                oracle_require_binary_outcomes, t
            )
            assert t.winners == {
                nid: sum(1 << j for j, v in enumerate(t.nodes[nid].outcome) if v == 1)
                for nid in t.leaf_ids
            }
            # every analysis refuses a malformed tree before it reads a box
            refused = raised(serialize, t)
            assert refused == message
            seen["serialize refused"] += refused is not None
            seen["serialized"] += refused is None
            for nid in t.internal_ids:
                # every value of a block has its bit, and a foreign one none
                dom = t.domains[t.nodes[nid].agent]
                for blk, m in zip(t.nodes[nid].blocks, t.block_masks[nid]):
                    assert types_of(t, t.nodes[nid].agent, m) == tuple(
                        sorted({v for v in blk if v in dom})
                    )
        assert all(seen[kind] for kind in MUTATIONS), seen
        assert seen["serialize refused"] and seen["serialized"], seen

    def test_domain_at_matches_walk_from_root(self):
        seen = Counter()
        for pair in seeded_trees(seen):
            for t in pair:
                want = oracle_domain_at(t)
                assert set(t.domain_at) == set(want)
                for nid, doms in want.items():
                    assert t.domain_at[nid] == doms, nid
                # a block with a foreign or repeated value is read as written
                named = {
                    nid: tuple(types_of(t, i, m) for i, m in enumerate(masks))
                    for nid, masks in t.mask_at.items()
                }
                seen["literal"] += named != want
        assert seen["literal"], seen

    def test_domain_at_is_a_plain_dict(self):
        t = english_auction_tree(2, [1, 2, 3])
        assert type(t.domain_at) is dict


def oracle_tables(tree):
    """Every table of the tree, built in one eager walk from its domains,
    root and nodes, as the constructor once built them all; by name, with
    `problems`, `nonbinary` and the id lists."""
    agents, domains, root, nodes = tree.agents, tree.domains, tree.root, tree.nodes
    structural, checks = [], []
    nonbinary = None
    winners, parent, depth = {}, {root: None}, {root: 0}
    positions = tuple(
        dict(zip(map(Fraction.as_integer_ratio, d), range(len(d)))) for d in domains
    )
    mask_at = {root: tuple((1 << len(d)) - 1 for d in domains)}
    block_masks, domain_at, query_depth = {}, {root: domains}, {}
    literal = set()
    preorder, leaf_ids, internal_ids = [], [], []
    stack = [root]
    while stack:
        nid = stack.pop()
        node = nodes[nid]
        preorder.append(nid)
        pid = parent[nid]
        base = query_depth[pid] if pid is not None else (0,) * agents
        if isinstance(node, LeafNode):
            query_depth[nid] = base
            leaf_ids.append(nid)
            if len(node.outcome) != agents:
                checks.append(f"leaf {nid}: outcome length {len(node.outcome)}")
            if node.payment is not None and len(node.payment) != agents:
                checks.append(f"leaf {nid}: payment length {len(node.payment)}")
            won = 0
            for j, v in enumerate(node.outcome):
                if v == 1:
                    won |= 1 << j
                elif v != 0 and nonbinary is None:
                    nonbinary = (nid, v)
            winners[nid] = won
            continue
        j = node.agent
        query_depth[nid] = base[:j] + (base[j] + 1,) + base[j + 1 :]
        internal_ids.append(nid)
        masks, dom = mask_at[nid], domain_at[nid]
        bms = []
        for blk in node.blocks:
            m = 0
            for v in blk:
                p = positions[j].get(v.as_integer_ratio())
                if p is not None:
                    m |= 1 << p
            bms.append(m)
        block_masks[nid] = tuple(bms)
        if (
            nid in literal
            or len(bms) < 2
            or not all(node.blocks)
            or sum(map(len, node.blocks)) != masks[j].bit_count()
            or sum(bms) != masks[j]
        ):
            checks.extend(_block_problems(nid, dom[j], node.blocks))
        if len(node.children) != len(node.blocks):
            structural.append(
                f"node {nid}: {len(node.blocks)} blocks, "
                f"{len(node.children)} children"
            )
        for blk, m, cid in reversed(list(zip(node.blocks, bms, node.children))):
            if cid not in nodes:
                structural.append(f"node {nid}: unknown child {cid}")
                continue
            parent[cid] = nid
            depth[cid] = depth[nid] + 1
            mask_at[cid] = masks[:j] + (m,) + masks[j + 1 :]
            if nid in literal or len(blk) != m.bit_count():
                literal.add(cid)
            domain_at[cid] = dom[:j] + (tuple(sorted(blk)),) + dom[j + 1 :]
            stack.append(cid)
    for nid in sorted(set(nodes) - set(preorder)):
        structural.append(f"node {nid} unreachable from root")
    empty = [f"agent {i} has an empty domain" for i, d in enumerate(domains) if not d]
    leaves_under = {}
    for nid in reversed(preorder):
        node = nodes[nid]
        if isinstance(node, LeafNode):
            leaves_under[nid] = (nid,)
        else:
            leaves_under[nid] = tuple(
                leaf for cid in node.children for leaf in leaves_under.get(cid, ())
            )
    return {
        "parent": parent,
        "depth": depth,
        "positions": positions,
        "mask_at": mask_at,
        "domain_at": domain_at,
        "block_masks": block_masks,
        "query_depth": query_depth,
        "leaves_under": leaves_under,
        "winners": winners,
        "preorder": preorder,
        "leaf_ids": leaf_ids,
        "internal_ids": internal_ids,
        "nonbinary": nonbinary,
        "problems": tuple(structural + empty + checks),
    }


def assert_tables_match_oracle(tree):
    """Each table equals the eager walk's: keys, values and key order."""
    for name, want in oracle_tables(tree).items():
        got = getattr(tree, name)
        assert type(got) is type(want), name
        if type(want) is dict:
            assert list(got.items()) == list(want.items()), name
        else:
            assert got == want, name


def built_trees():
    """(name, tree) for the output of every tree builder of the package."""
    for fixture in ("single_item(2,4)", "single_item(3,6)", "uniform(4,2,4)",
                    "triangle_graphic(5)", "uniform(5,2,5)"):
        ps, domain = materialize(fixture)[1]
        raw = extract_tree(ps, domain)
        rounds = compress(raw)
        yield f"extract {fixture}", raw
        yield f"compress {fixture}", rounds
        yield f"serialize {fixture}", serialize(rounds)
        if len(rounds.nodes) > 200:
            continue  # payments on the larger trees take seconds
        for k in (0, 1, 2):
            try:
                yield f"reveal_at_k2 {fixture} k={k}", reveal_at_k2(rounds, k)
            except MechanismError:
                pass
            try:
                priced = synthesize_payments(rounds, k)
            except MechanismError:  # not k-limited
                continue
            if priced.ok:
                yield f"synthesize_payments {fixture} k={k}", priced.tree
                text = dumps_mechanism(priced.tree)
                yield f"loads_mechanism {fixture} k={k}", loads_mechanism(text)
    for n, d in ((2, 3), (3, 5), (4, 5)):
        tree = english_auction_tree(n, range(1, d + 1))
        yield f"english_auction_tree {n},{d}", tree
        yield f"loads_mechanism english {n},{d}", loads_mechanism(
            dumps_mechanism(tree)
        )
    for seed in range(40):
        rng = random.Random(seed)
        agents = rng.randint(1, 3)
        domains = [list(range(1, rng.randint(2, 4) + 1)) for _ in range(agents)]
        tree = random_k_limited_tree(rng, agents, domains, 1, rng.random() < 0.5)
        yield f"loads_mechanism seed {seed}", loads_mechanism(dumps_mechanism(tree))
        try:
            yield f"reveal_at_k2 seed {seed}", reveal_at_k2(tree, 0)
        except MechanismError:
            pass


SHARED = ((F(2),), (F(3),))


class TestTablesAgainstOracle:
    """The walk's tables and the tables built on first read against one
    eager walk over the same nodes."""

    def test_seeded_trees(self):
        seen = Counter()
        for pair in seeded_trees(seen):
            for t in pair:
                assert_tables_match_oracle(t)
                seen["problems"] += bool(t.problems)
                # the walk keys its work by the identity of blocks and
                # outcomes: hand every node with equal ones the same object
                same = {}
                nodes = {
                    nid: node._replace(
                        **{f: same.setdefault((f, getattr(node, f)), getattr(node, f))
                           for f in ("blocks", "outcome") if f in node._fields}
                    )
                    for nid, node in t.nodes.items()
                }
                shared = ImplementationTree(t.agents, t.domains, t.root, nodes)
                assert_tables_match_oracle(shared)
                assert shared.problems == t.problems
        assert seen["problems"] and all(seen[kind] for kind in MUTATIONS), seen

    @pytest.mark.parametrize(
        ("domains", "nodes", "problems"),
        [
            # one blocks object asked of agents with different domains
            ([[1, 2], [2, 3]], {
                0: QueryNode(0, 1, SHARED, (1, 2)),
                1: LeafNode(1, (F(0), F(0))),
                2: QueryNode(2, 0, SHARED, (3, 4)),
                3: LeafNode(3, (F(0), F(0))),
                4: LeafNode(4, (F(0), F(0))),
            }, ("node 2: value 3 outside the current domain",
                "node 2: domain values 1 not covered")),
            # a partition of {2, 3}, then the same blocks over {1}
            ([[1, 2, 3]], {
                0: QueryNode(0, 0, ((F(2), F(3)), (F(1),)), (1, 4)),
                1: QueryNode(1, 0, SHARED, (2, 3)),
                2: LeafNode(2, (F(0),)),
                3: LeafNode(3, (F(0),)),
                4: QueryNode(4, 0, SHARED, (5, 6)),
                5: LeafNode(5, (F(0),)),
                6: LeafNode(6, (F(0),)),
            }, ("node 4: value 2 outside the current domain",
                "node 4: value 3 outside the current domain",
                "node 4: domain values 1 not covered")),
            # the same blocks below a clean block and below one with a
            # foreign value, where the domain is the block as written
            ([[2, 3]], {
                0: QueryNode(0, 0, ((F(2), F(3)), (F(2), F(3), F(99))), (1, 4)),
                1: QueryNode(1, 0, SHARED, (2, 3)),
                2: LeafNode(2, (F(0),)),
                3: LeafNode(3, (F(0),)),
                4: QueryNode(4, 0, SHARED, (5, 6)),
                5: LeafNode(5, (F(0),)),
                6: LeafNode(6, (F(0),)),
            }, ("node 0: value 2 in two blocks",
                "node 0: value 3 in two blocks",
                "node 0: value 99 outside the current domain",
                "node 4: domain values 99 not covered")),
        ],
        ids=["agent", "own_mask", "literal"],
    )
    def test_one_blocks_object_at_unlike_nodes(self, domains, nodes, problems):
        # the walk's facts about a blocks object hold for one agent and own
        # mask only, and below a foreign value a domain is read as written
        tree = ImplementationTree(len(domains), domains, 0, nodes)
        assert tree.problems == problems
        assert_tables_match_oracle(tree)

    def test_built_trees(self):
        made = Counter()
        for name, tree in built_trees():
            assert_tables_match_oracle(tree)
            made[name.split()[0]] += 1
        assert set(made) == {
            "extract", "compress", "serialize", "reveal_at_k2",
            "synthesize_payments", "loads_mechanism", "english_auction_tree",
        }, made

    def test_sweep_trees_build_no_domains_or_depths(self):
        # the experiment verb's chain reads neither table of either tree
        ps, domain = materialize("single_item(5,5)")[1]
        raw = extract_tree(ps, domain)
        approx_ratio(ps, raw, domain)
        rounds = compress(raw)
        for tree in (raw, rounds):
            assert "domain_at" not in vars(tree)
            assert "depth" not in vars(tree)
        assert "query_depth" not in vars(raw)
        assert "leaves_under" not in vars(raw)
        # a table read once is kept as a plain dict
        assert type(rounds.depth) is dict and vars(rounds)["depth"] is rounds.depth


@pytest.mark.parametrize(
    "call",
    [
        lambda t: classify_query(t, 999),
        lambda t: k_step_neighborhood(t, 999, 1),
        lambda t: equivalence_class(t, 999, t.box_min(t.root), 1),
        lambda t: is_revealable(t, 999),
    ],
    ids=["classify_query", "k_step_neighborhood", "equivalence_class", "is_revealable"],
)
def test_unknown_node_id_is_refused(call):
    with pytest.raises(MechanismError, match="^unknown node 999$"):
        call(english_auction_tree(2, [1, 2, 3]))


@pytest.mark.parametrize("nid", [True, 1.0, 999], ids=["bool", "float", "absent"])
@pytest.mark.parametrize(
    "call",
    [
        lambda t, nid: t.node(nid),
        lambda t, nid: query_count(t, 0, nid),
        lambda t, nid: classify_query(t, nid),
        lambda t, nid: k_step_neighborhood(t, nid, 1),
        lambda t, nid: is_revealable(t, nid),
        lambda t, nid: t.box_min(nid),
        lambda t, nid: t.is_leaf(nid),
        lambda t, nid: t.route(nid, t.domains[0][0]),
    ],
    ids=[
        "node", "query_count", "classify_query",
        "k_step_neighborhood", "is_revealable", "box_min", "is_leaf", "route",
    ],
)
def test_node_id_must_be_an_int_naming_a_node(call, nid):
    # True and 1.0 hash as 1, a node of this tree: a lookup alone reads them
    tree = english_auction_tree(2, [1, 2, 3])
    assert 1 in tree.nodes
    with pytest.raises(MechanismError, match=f"^unknown node {nid}$"):
        call(tree, nid)


def test_route_refuses_a_leaf():
    tree = english_auction_tree(2, [1, 2, 3])
    leaf = tree.leaf_ids[0]
    with pytest.raises(MechanismError, match=f"^node {leaf} is not a query node$"):
        tree.route(leaf, tree.domains[0][0])


def test_query_count_refuses_an_unreachable_node():
    t = ImplementationTree(
        1, [[1, 2]], 0,
        {
            0: QueryNode(0, 0, ((F(1),), (F(2),)), (1, 2)),
            1: LeafNode(1, (F(0),)),
            2: LeafNode(2, (F(1),)),
            3: LeafNode(3, (F(1),)),
        },
    )
    assert query_count(t, 0, 2) == 1
    with pytest.raises(MechanismError, match="^node 3 unreachable from root$"):
        query_count(t, 0, 3)


def one_query_nodes(agent=0):
    return {
        0: QueryNode(0, agent, ((F(1),), (F(2),)), (1, 2)),
        1: LeafNode(1, (F(0),)),
        2: LeafNode(2, (F(1),)),
    }


def test_box_min_refuses_an_unreachable_node():
    t = ImplementationTree(1, [[1, 2]], 0, {**one_query_nodes(), 3: LeafNode(3, (F(1),))})
    assert t.box_min(2) == (F(2),)
    with pytest.raises(MechanismError, match="^node 3 unreachable from root$"):
        t.box_min(3)


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda: ImplementationTree(0, [], 0, one_query_nodes()),
         "^need at least one agent$"),
        (lambda: ImplementationTree(
            1, [[1, 2]], 0, {**one_query_nodes(), 5: LeafNode(4, (F(0),))}
        ), "^node keyed 5 carries id 4$"),
        (lambda: ImplementationTree(1, [[1, 2]], 7, one_query_nodes()),
         "^root 7 not among nodes$"),
        (lambda: ImplementationTree(1, [[1, 2]], 0, one_query_nodes(agent=3)),
         "^node 0 queries unknown agent 3$"),
        # int() used to read 2.9 agents as 2, and a root of 0.5 or True
        # as node 0 or node 1
        (lambda: ImplementationTree(
            2.9, [[1], [1]], 0, {0: LeafNode(0, (F(0), F(0)))}
        ), "^not an integer: 2.9$"),
        (lambda: ImplementationTree(1, [[1, 2]], 0.5, one_query_nodes()),
         "^not an integer: 0.5$"),
        (lambda: ImplementationTree(1, [[1, 2]], True, one_query_nodes()),
         "^not an integer: True$"),
    ],
    ids=["no_agents", "miskeyed", "unknown_root", "unknown_agent",
         "fractional_agents", "fractional_root", "bool_root"],
)
def test_untraversable_shapes_are_refused(build, message):
    with pytest.raises(MechanismError, match=message):
        build()


@pytest.mark.parametrize(
    ("nodes", "message"),
    [
        # True hashes as 1: the tree used to take it as a node id, with
        # no problems and leaf_ids [True, 2]
        ({0: QueryNode(0, 0, ((1,), (2,)), (True, 2)),
          True: LeafNode(True, (0,)), 2: LeafNode(2, (1,))},
         "^node key True is not an int$"),
        ({0: QueryNode(0, 0, ((1,), (2,)), (1, 2)),
          1: LeafNode(True, (0,)), 2: LeafNode(2, (1,))},
         "^node 1 carries id True, not an int$"),
        ({0: QueryNode(0, 0, ((1,), (2,)), (True, 2)),
          1: LeafNode(1, (0,)), 2: LeafNode(2, (1,))},
         "^node 0: child True is not an int$"),
        ({0: QueryNode(0, 0, ((1,), (2,)), (1.0, 2)),
          1: LeafNode(1, (0,)), 2: LeafNode(2, (1,))},
         "^node 0: child 1.0 is not an int$"),
        ({0: QueryNode(0, 0, ((1,), (2,)), (1, 2)),
          1.0: LeafNode(1, (0,)), 2: LeafNode(2, (1,))},
         "^node key 1.0 is not an int$"),
        # children the walk does not reach: one past the blocks, and one
        # of an unreachable node
        ({0: QueryNode(0, 0, ((1,), (2,)), (1, 2, "x")),
          1: LeafNode(1, (0,)), 2: LeafNode(2, (1,))},
         "^node 0: child 'x' is not an int$"),
        ({**one_query_nodes(), 3: QueryNode(3, 0, ((1,), (2,)), (False, 2))},
         "^node 3: child False is not an int$"),
    ],
    ids=["bool_key", "bool_id", "bool_child", "float_child", "float_key",
         "extra_child", "unreachable_child"],
)
def test_node_ids_and_children_must_be_ints(nodes, message):
    with pytest.raises(MechanismError, match=message):
        ImplementationTree(1, [[1, 2]], 0, nodes)


def test_domains_are_the_sorted_distinct_values():
    # the old normal form, a sorted set of parsed values, on unsorted,
    # repeated, negative and fractional values in text, int and Fraction
    rng = random.Random(7)
    pool = [-3, -1, 0, 2, 5, "1/2", "-7/3", "0.25", Fraction(5, 4), F(-2), "5", "2/4"]
    for _ in range(300):
        agents = rng.randint(1, 3)
        doms = [rng.choices(pool, k=rng.randint(1, 6)) for _ in range(agents)]
        if rng.random() < 0.3:
            doms = [doms[0]] * len(doms)  # one object for every agent
        want = tuple(tuple(sorted({parse_rational(v) for v in d})) for d in doms)
        t = ImplementationTree(agents, doms, 0, {0: LeafNode(0, (F(0),) * agents)})
        assert t.domains == want
        assert t.positions == tuple(
            {v.as_integer_ratio(): p for p, v in enumerate(d)} for d in want
        )


@pytest.mark.parametrize(
    ("value", "message"),
    [
        ("x", "not an integer: 'x'"),
        (None, "not an integer: None"),
        ([1], "not an integer: [1]"),
        # past int()'s digit limit, and shown short
        ("1" * 5000, "not an integer: '" + "1" * 12 + "..." + "1" * 13 + "'"),
    ],
    ids=["text", "none", "list", "long_text"],
)
def test_as_integer_refuses_what_int_refuses(value, message):
    # int()'s own ValueError or TypeError used to escape
    with pytest.raises(MechanismError) as info:
        as_integer(value)
    assert str(info.value) == message


def test_integral_header_fields_are_read_as_ints():
    t = ImplementationTree(1.0, [[1, 2]], 0.0, one_query_nodes())
    assert (t.agents, t.root) == (1, 0)
    assert type(t.agents) is int and type(t.root) is int


@pytest.mark.parametrize(
    "k", [True, -1, 2.5, "x", float("-inf"), Fraction(5, 2), Fraction(-2)]
)
def test_bad_horizons_are_refused(k):
    with pytest.raises(MechanismError, match="^bad horizon"):
        normalize_horizon(k)


def test_horizons_are_ints_or_inf():
    assert normalize_horizon(1.0) == 1 and type(normalize_horizon(1.0)) is int
    assert normalize_horizon(3) == 3 and normalize_horizon(inf) == inf
    # an integral Fraction is its int, as `as_integer` reads it
    for k in (Fraction(2), Fraction(0)):
        assert normalize_horizon(k) == k and type(normalize_horizon(k)) is int


def test_tree_from_nested_refuses_a_bad_tag():
    with pytest.raises(MechanismError, match="^bad nested tag 'query'$"):
        tree_from_nested(1, [[1, 2]], ("query", 0, []))


def test_equivalence_class_refuses_a_leaf():
    t = two_agent_tree()
    with pytest.raises(MechanismError, match="^node 2 is not a query node$"):
        equivalence_class(t, 2, t.box_min(2), 1)
