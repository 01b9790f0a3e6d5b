import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from math import inf, lcm

import pytest
from hypothesis import given, settings, strategies as st

from ospkit import (
    MechanismError,
    PSystem,
    build_k_osp_graph,
    build_profile_classes,
    check_k_step_osp,
    compress,
    english_auction_tree,
    extract_tree,
    has_negative_cycle,
    k_vs_infinity_equivalence,
    reveal_at_k2,
    sticky_edges_check,
    synthesize_payments,
)
from ospkit import cmon
from ospkit.cmon import (
    NegativeCycleWitness,
    OspGraph,
    ProfileClass,
    StickyResult,
    _bellman,
    _class_graph,
    _edges,
    _relax,
    _weights,
)
from ospkit.fixtures import materialize
from ospkit.io import dumps_mechanism, loads_mechanism
from ospkit.model import (
    LeafNode,
    query_count,
    random_k_limited_tree,
    tree_from_nested,
)
from ospkit.verifier import classify_query, is_k_limited
from test_model import oracle_first_divergence
from test_verifier import (
    has_binary_outcomes,
    oracle_commitment_types,
    random_priced_trees,
)


def F(v):
    return Fraction(v)


def dummy_graph(edges):
    verts = tuple(
        ProfileClass(
            agent=0,
            anchor=i,
            slice_kind="tail",
            bit=0,
            boxes=(((F(i),),),),
            types=(F(i),),
        )
        for i in range(1 + max(max(a, b) for a, b, _ in edges))
    )
    return OspGraph(0, 0, verts, tuple((a, b, F(w)) for a, b, w in edges))


def pair_divergences(tree, profiles):
    """Yield (x, y, node) for every unordered profile pair, where node is
    the query at which their walks part; same-leaf pairs are skipped."""
    stack = [(tree.root, list(profiles))]
    while stack:
        nid, profs = stack.pop()
        node = tree.nodes[nid]
        if isinstance(node, LeafNode):
            continue
        buckets = {}
        for x in profs:
            buckets.setdefault(tree.route(nid, x[node.agent]), []).append(x)
        idxs = sorted(buckets)
        for pos, ia in enumerate(idxs):
            for ib in idxs[pos + 1 :]:
                for x in buckets[ia]:
                    for y in buckets[ib]:
                        yield x, y, nid
        for ia in idxs:
            stack.append((node.children[ia], buckets[ia]))


def oracle_edges(tree, k, agent):
    """Class graph edges from the definition: an edge for every profile
    pair parting at a query to the agent, weighted by the smallest member
    type of the source times the change of outcome bit."""
    part = build_profile_classes(tree, k, agent)
    profiles = list(itertools.product(*tree.domains))
    leaf_of_prof = {p: tree.path_of(p)[-1] for p in profiles}
    exists = set()
    for x, y, nid in pair_divergences(tree, profiles):
        if tree.nodes[nid].agent != agent:
            continue
        cx = part.leaf_class[leaf_of_prof[x]]
        cy = part.leaf_class[leaf_of_prof[y]]
        if cx == cy:
            continue
        exists.add((cx, cy))
        exists.add((cy, cx))
    edges = []
    for ca, cb in sorted(exists):
        va = part.classes[ca]
        df = part.classes[cb].bit - va.bit
        edges.append((ca, cb, min(t * df for t in va.types)))
    return tuple(edges)


def reference_bellman(graph):
    """Bellman-Ford on Fractions: (labels, None), or (None, (cycle,
    weight)) for the negative cycle closed by walking predecessors back
    from the last relaxed vertex."""
    n = len(graph.vertices)
    if n == 0:
        return [], None
    dist = [F(0)] * n
    pred = [None] * n
    last = None

    def relax_round():
        nonlocal last
        changed = False
        for a, b, w in graph.edges:
            cand = dist[a] + w
            if cand < dist[b]:
                dist[b] = cand
                pred[b] = a
                changed = True
                last = b
        return changed

    for _ in range(n):
        if not relax_round():
            return dist, None
    weight_of = {(a, b): w for a, b, w in graph.edges}
    for _ in range(n + 1):
        x = last
        seen = {}
        order = []
        while x is not None and x not in seen:
            seen[x] = len(order)
            order.append(x)
            x = pred[x]
        if x is not None:
            cycle = tuple(reversed(order[seen[x] :]))
            total = sum(
                (weight_of[(a, cycle[(pos + 1) % len(cycle)])]
                 for pos, a in enumerate(cycle)),
                F(0),
            )
            return None, (cycle, total)
        relax_round()
    raise AssertionError("failed to close a negative cycle")


def oracle_relax(agent, n, edges, lcd):
    """`cmon._relax` without the repeat stop: all n rounds on a graph
    with a negative cycle."""
    if n == 0:
        return [], None
    dist = [0] * n
    pred = [None] * n
    via = [0] * n
    last = None
    for _ in range(n):
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

    x = last
    seen = {}
    order = []
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


def random_edge_lists(seeds):
    """(n, edges, lcd) per seed: 1-10 vertices in 1-3 components, int
    weights in -4..9 on edges within a component, self-loops and
    parallel edges among them, some edges repeated, all shuffled."""
    for seed in seeds:
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        comp = [rng.randrange(min(3, n)) for _ in range(n)]
        edges = []
        for _ in range(rng.randint(0, 3 * n)):
            a = rng.randrange(n)
            b = rng.choice([v for v in range(n) if comp[v] == comp[a]])
            edges.append((a, b, rng.randint(-4, 9)))
        edges += rng.sample(edges, rng.randint(0, len(edges) // 3))
        rng.shuffle(edges)
        yield n, edges, rng.choice([1, 2, 6])


def int_class_graph(tree, k, agent):
    """(n, edges, lcd) of the agent's class graph, as synthesis relaxes it."""
    part, targets = _class_graph(tree, k, agent)
    lcd = lcm(*(t.denominator for t in tree.domains[agent]))
    weight = _weights(part, lambda t: t.numerator * (lcd // t.denominator), 0)
    return len(part.classes), _edges(part, targets, weight), lcd


def fixture_tree(name):
    _, (ps, domain) = materialize(name)
    return compress(extract_tree(ps, list(domain)))


def materialize_tree(name):
    """A mechanism fixture as it is, an instance's greedy tree compressed."""
    kind, built = materialize(name)
    return built if kind == "mechanism" else fixture_tree(name)


class CountedEdges(list):
    """An edge list that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


FRACTION_TYPES = [Fraction(v) for v in ("1/2", "1", "4/3", "2", "5/2", "3")]


def random_graph_cases(seeds):
    """(tree, k, agent) over seeded k-limited trees with 2-3 agents and
    domains of 2-4 types.  Half the trees take fractional types, so the
    integer scaling in _bellman works with common denominators above 1."""
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
        tree = random_k_limited_tree(rng, agents, domains, k)
        for agent in range(agents):
            yield tree, k, agent


def tail_fixture_cases():
    """(tree, k) for three k-limited fixture trees whose class graphs hold
    tail classes."""
    return [
        (english_auction_tree(3, [1, 2, 3]), 0),
        (compress(extract_tree(PSystem.single_item(3), [1, 2, 3, 4, 5])), 1),
        (compress(extract_tree(PSystem.uniform(4, 2), [1, 2, 3, 4])), 0),
    ]


def extra_query_draws(seeds):
    """(tree, k) per seed, before the filter of `random_extra_query_cases`:
    2-3 agents, domains 1..2-5 on even seeds and 2-4 fractional types on
    odd seeds, trees drawn with k+1 commitment steps."""
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
                list(range(1, rng.randint(2, 5) + 1)) for _ in range(agents)
            ]
        k = rng.choice([0, 1, 2, 3])
        yield random_k_limited_tree(rng, agents, domains, k + 1), k


def random_extra_query_cases(seeds):
    """(tree, k, agent) over seeded k-limited trees that may ask an agent
    a (k+2)-th time on a path, the only place tail classes and the allowed
    forms of that query matter: the draws of `extra_query_draws` that are
    k-limited."""
    for tree, k in extra_query_draws(seeds):
        if is_k_limited(tree, k):
            for agent in range(tree.agents):
                yield tree, k, agent


def oracle_payments_exist(tree, k, agent):
    """Whether payments for the agent pass the k-step check: Bellman-Ford
    over the leaves on the constraints of `oracle_check`, the edge a -> b
    weighing the least c * (f_b - f_a) over c in a's commitment set.  A
    leaf pair parts at one query only, so no edge repeats."""
    f = {leaf: F(tree.nodes[leaf].outcome[agent]) for leaf in tree.leaf_ids}
    edges = []
    for u in tree.internal_ids:
        node = tree.nodes[u]
        if node.agent != agent:
            continue
        sides = [tree.leaves_under[cid] for cid in node.children]
        for ia, side_a in enumerate(sides):
            for a in side_a:
                cset = oracle_commitment_types(tree, u, a, k)
                for ib, side_b in enumerate(sides):
                    if ib != ia:
                        edges.extend(
                            (a, b, min(c * (f[b] - f[a]) for c in cset))
                            for b in side_b
                        )
    dist = dict.fromkeys(tree.leaf_ids, F(0))
    for _ in range(len(dist)):
        changed = False
        for a, b, w in edges:
            if dist[a] + w < dist[b]:
                dist[b] = dist[a] + w
                changed = True
        if not changed:
            return True
    return False


def assert_bellman_matches_reference(graph):
    dist, witness = _bellman(graph)
    ref_dist, ref_witness = reference_bellman(graph)
    if ref_witness is None:
        assert witness is None
        assert dist == ref_dist
        assert all(type(d) is Fraction for d in dist)
        assert all(dist[b] <= dist[a] + w for a, b, w in graph.edges)
    else:
        assert dist is None
        assert (witness.cycle, witness.weight) == ref_witness
    return ref_witness is not None


def enumerate_min_cycle(graph):
    """Cheapest simple cycle weight by depth-first enumeration."""
    adj = {}
    for a, b, w in graph.edges:
        adj.setdefault(a, []).append((b, w))
    best = None

    def walk(start, node, weight, seen):
        nonlocal best
        for b, w in adj.get(node, []):
            if b == start:
                total = weight + w
                if best is None or total < best:
                    best = total
            elif b > start and b not in seen:
                walk(start, b, weight + w, seen | {b})

    for s in range(len(graph.vertices)):
        walk(s, s, F(0), frozenset({s}))
    return best


class TestBellmanFord:
    def test_negative_cycle_found(self):
        g = dummy_graph([(0, 1, 1), (1, 2, -1), (2, 0, -1)])
        w = has_negative_cycle(g)
        assert w is not None
        assert w.weight == -1
        assert set(w.cycle) == {0, 1, 2}

    def test_zero_cycle_is_fine(self):
        g = dummy_graph([(0, 1, 1), (1, 2, -1), (2, 0, 0)])
        assert has_negative_cycle(g) is None

    def test_parallel_edges_sum_the_relaxed_ones(self):
        # the dear edge 0 -> 1 is listed last, but the cheap one lowered 1:
        # the cycle weighs what was relaxed along it, -5 + 1
        g = dummy_graph([(0, 1, -5), (1, 0, 1), (0, 1, 10)])
        w = has_negative_cycle(g)
        assert w.cycle == (1, 0) and w.weight == -4

    def test_self_loop(self):
        g = dummy_graph([(0, 0, -1)])
        w = has_negative_cycle(g)
        assert w is not None and w.weight == -1

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1, 1), (1, 2, -1), (2, 0, -1)],
            [(0, 1, 1), (1, 2, -1), (2, 0, 0)],
            [(0, 0, -1)],
            [(0, 1, "1/2"), (1, 2, "-1/3"), (2, 0, "-1/4")],
            [(0, 1, "1/2"), (1, 2, "-1/3"), (2, 0, "-1/6")],
            [(0, 1, "-7/6"), (1, 0, "3/2"), (1, 2, "-5/4"), (2, 1, 2)],
        ],
    )
    def test_integer_run_matches_fraction_reference(self, edges):
        assert_bellman_matches_reference(dummy_graph(edges))

    def test_matches_enumeration_on_real_graphs(self):
        trees = [
            english_auction_tree(2, [1, 2, 3]),
            compress(extract_tree(PSystem.single_item(2), [1, 2, 3])),
        ]
        for t in trees:
            for agent in range(t.agents):
                for k in (0, 1, inf):
                    g = build_k_osp_graph(t, k, agent)
                    cheapest = enumerate_min_cycle(g)
                    verdict = has_negative_cycle(g) is not None
                    assert verdict == (cheapest is not None and cheapest < 0)


class TestRepeatStop:
    """`_relax` stops once a round's fall is equal at both ends of every
    edge; the full-round loop is the oracle for labels and witnesses."""

    def test_matches_full_rounds_on_random_edge_lists(self):
        seen = Counter()
        for n, edges, lcd in random_edge_lists(range(3000)):
            got = _relax(0, n, edges, lcd)
            assert got == oracle_relax(0, n, edges, lcd)
            seen[got[1] is None] += 1
        assert seen[True] > 500 and seen[False] > 500

    @pytest.mark.parametrize(
        "name,k",
        [
            ("uniform(4,2,4)", 0),
            ("uniform(4,2,4)", 1),
            # over budget at k = 0
            ("triangle_graphic(6)", 1),
            ("triangle_graphic(6)", inf),
        ],
    )
    def test_matches_full_rounds_on_fixture_graphs(self, name, k):
        tree = fixture_tree(name)
        failing = 0
        for agent in range(tree.agents):
            n, edges, lcd = int_class_graph(tree, k, agent)
            got = _relax(agent, n, edges, lcd)
            assert got == oracle_relax(agent, n, edges, lcd)
            failing += got[1] is not None
        assert failing

    def test_a_failing_graph_takes_few_passes(self):
        tree = fixture_tree("uniform(4,2,4)")
        n, edges, lcd = int_class_graph(tree, 0, 1)
        assert n == 61
        full, stopped = CountedEdges(edges), CountedEdges(edges)
        want = oracle_relax(1, n, full, lcd)
        assert want[1] is not None and full.passes == n
        # each round that lowers labels is one pass to relax and one to
        # compare the falls at the ends of the edges
        assert _relax(1, n, stopped, lcd) == want
        assert stopped.passes <= 6


class TestGraphOracle:
    """The leaf-class construction and the integer Bellman-Ford against
    the profile-pair definition and a Fraction run, on 1000 seeded
    trees.  The trees are cut into slices to keep each test short."""

    @pytest.mark.parametrize("start", range(0, 1000, 250))
    def test_edges_and_labels_match_oracles(self, start):
        graphs = cycles = 0
        for t, k, agent in random_graph_cases(range(start, start + 250)):
            g = build_k_osp_graph(t, k, agent)
            assert g.edges == oracle_edges(t, k, agent)
            cycles += assert_bellman_matches_reference(g)
            graphs += 1
        assert graphs >= 500
        assert 0 < cycles < graphs

    @pytest.mark.parametrize("start", range(0, 1000, 250))
    def test_extra_query_graphs_match_oracles(self, start):
        """Trees that may spend the extra query: edges, labels and tail
        classes against their oracles, and payments exist exactly when
        the class graph has no negative cycle."""
        seen = Counter()
        for t, k, agent in random_extra_query_cases(range(start, start + 250)):
            g = build_k_osp_graph(t, k, agent)
            assert g.edges == oracle_edges(t, k, agent)
            cycle = assert_bellman_matches_reference(g)
            assert oracle_payments_exist(t, k, agent) == (not cycle)
            seen["graphs"] += 1
            seen["cycles"] += cycle
            seen["tails"] += assert_tails_match(t, k, agent)
        assert seen["graphs"] >= 500
        assert 0 < seen["cycles"] < seen["graphs"]
        assert seen["tails"] > 0

    def test_fixture_graphs_with_tail_classes(self):
        tails = 0
        for t, k in tail_fixture_cases():
            for agent in range(t.agents):
                g = build_k_osp_graph(t, k, agent)
                assert g.edges == oracle_edges(t, k, agent)
                assert_bellman_matches_reference(g)
                for cls in g.vertices:
                    tails += cls.slice_kind != "settled"
                    assert cls.members == tuple(sorted(cls.members))
                    assert cls.types == tuple(
                        sorted({m[agent] for m in cls.members})
                    )
        assert tails > 0

    def test_malformed_tree_is_refused(self):
        t = tree_from_nested(1, [[1, 2]], (
            "q", 0, [
                ([1], ("leaf", (0,), None)),
                ([1, 2], ("leaf", (1,), None)),
            ],
        ))
        with pytest.raises(MechanismError, match="in two blocks"):
            build_k_osp_graph(t, 0, 0)
        with pytest.raises(MechanismError, match="in two blocks"):
            build_profile_classes(t, 0, 0)
        with pytest.raises(MechanismError):
            synthesize_payments(t, 0)


def oracle_bit_below(tree, nid, prof, agent):
    """The agent's outcome bit at the leaf that prof reaches from nid."""
    node = tree.nodes[nid]
    while not isinstance(node, LeafNode):
        node = tree.nodes[node.children[tree.route(node.id, prof[node.agent])]]
    return int(node.outcome[agent])


def oracle_tail_split(tree, u, agent):
    """The effective and pooled types at a (k+2)-th query, one walk from u
    per profile: the pooled side is the largest group of types with
    pointwise identical outcome bits, ties resolved by the only-extreme
    forms."""
    own = tree.domain_at[u][agent]
    box = list(tree.domain_at[u])
    sig = {}
    for t in own:
        box[agent] = (t,)
        key = tuple(
            oracle_bit_below(tree, u, prof, agent)
            for prof in itertools.product(*box)
        )
        sig.setdefault(key, []).append(t)
    groups = sorted(sig.values(), key=lambda g: (-len(g), g[0]))
    if len(groups) == 1:
        return (), tuple(own)
    if len(groups[0]) > len(groups[1]):
        pooled = set(groups[0])
        return tuple(v for v in own if v not in pooled), tuple(groups[0])
    qc = classify_query(tree, u)
    if (len(own) == 2 or qc.is_prefix) and own[-1] in qc.only_types:
        return (own[-1],), tuple(own[:-1])
    if qc.is_suffix and own[0] in qc.only_types:
        return (own[0],), tuple(own[1:])
    raise MechanismError(
        f"ambiguous effective/pooled split at node {u} for agent {agent}"
    )


def oracle_tail_classes(tree, u, agent):
    """(kind, bit, members, types) of the tail classes anchored at u,
    bucketing each profile by a walk from u."""
    effective, pooled = oracle_tail_split(tree, u, agent)
    box = list(tree.domain_at[u])
    out = []
    for kind, side in (("tail_effective", effective), ("tail_neutral", pooled)):
        buckets = {0: [], 1: []}
        box[agent] = side
        for prof in itertools.product(*box):
            buckets[oracle_bit_below(tree, u, prof, agent)].append(prof)
        for bit in (0, 1):
            if buckets[bit]:
                members = tuple(buckets[bit])
                types = tuple(sorted({m[agent] for m in members}))
                out.append((kind, bit, members, types))
    return out


def oracle_budget_error(tree, k, agent):
    """The refusal of a tree over the agent's budget at horizon k: the
    first query to her in preorder that is her (k+3)-th or later on its
    path, or her (k+2)-th and not of an allowed form; None within
    budget.  Counts each query's number by walking up to the root."""
    for u in tree.internal_ids:
        if tree.nodes[u].agent != agent:
            continue
        nth, nid = 0, u
        while nid is not None:
            nth += tree.nodes[nid].agent == agent
            nid = tree.parent.get(nid)
        if nth >= k + 3:
            why = f"query number {nth} to agent {agent} on a single path"
        elif nth == k + 2 and not classify_query(tree, u).extra_allowed:
            why = f"extra query to agent {agent} is not of an allowed form"
        else:
            continue
        return f"tree is not k-limited (node {u}: {why})"
    return None


def oracle_first_budget_error(tree, k):
    """The refusal of the lowest-numbered agent over budget, or None."""
    errors = (oracle_budget_error(tree, k, a) for a in range(tree.agents))
    return next((e for e in errors if e is not None), None)


def outcome_or_error(fn, *args):
    try:
        return fn(*args)
    except MechanismError as exc:
        return str(exc)


class TestTailOracle:
    """The tail split, read from the anchor's query class, and the tail
    buckets against one walk per profile.  Trees from
    `random_priced_trees` have at most k+1 queries per agent and path, so
    horizons below k make the tails."""

    @pytest.mark.parametrize("start", range(0, 1000, 250))
    def test_tails_match_oracle(self, start):
        tails = 0
        for t, k in random_priced_trees(range(start, start + 250)):
            if not has_binary_outcomes(t):
                continue
            for h in (0, 1):
                for agent in range(t.agents):
                    tails += assert_tails_match(t, h, agent)
        assert tails > 0

    def test_fixture_tails_match_oracle(self):
        cases = [
            (english_auction_tree(3, [1, 2, 3]), 0),
            (compress(extract_tree(PSystem.single_item(3), [1, 2, 3, 4, 5])), 1),
            (compress(extract_tree(PSystem.uniform(4, 2), [1, 2, 3, 4])), 0),
        ]
        for t, k in cases:
            assert sum(assert_tails_match(t, k, a) for a in range(t.agents)) > 0


def assert_tails_match(tree, k, agent):
    """Compare the tail classes of build_profile_classes with the oracle
    at every tail anchor; returns the number of anchors compared."""
    try:
        part = build_profile_classes(tree, k, agent)
    except MechanismError as exc:
        assert str(exc) == oracle_budget_error(tree, k, agent)
        return 0
    assert oracle_budget_error(tree, k, agent) is None
    anchors = sorted({c.anchor for c in part.classes if c.slice_kind != "settled"})
    for u in anchors:
        got = [
            (c.slice_kind, c.bit, c.members, c.types)
            for c in part.classes
            if c.anchor == u and c.slice_kind != "settled"
        ]
        assert got == oracle_tail_classes(tree, u, agent)
    return len(anchors)


class TestClassPartition:
    def test_members_partition_all_profiles(self):
        t = english_auction_tree(2, [1, 2, 3])
        for agent in range(2):
            part = build_profile_classes(t, 1, agent)
            seen = []
            for cls in part.classes:
                assert cls.agent == agent
                seen.extend(cls.members)
            assert sorted(seen) == sorted(itertools.product(*t.domains))
            assert len(seen) == len(set(seen))

    def test_refuses_leaf_across_tail_split(self):
        # a seeded tree that is not 0-limited for agent 0
        rng = random.Random(2148)
        a = rng.randint(1, 3)
        doms = [list(range(1, rng.randint(3, 5) + 1)) for _ in range(a)]
        t = random_k_limited_tree(rng, a, doms, rng.choice([1, 2, 3]))
        assert (t.agents, len(t.nodes)) == (2, 14)
        want = (
            "tree is not k-limited (node 1: extra query to agent 0 is not of "
            "an allowed form)"
        )
        with pytest.raises(MechanismError, match=re.escape(want)):
            build_profile_classes(t, 0, 0)

    def test_refuses_trees_over_budget(self):
        """Every over-budget (tree, horizon, agent) is refused with the
        message of its first busting query; payments name the
        lowest-numbered such agent, and the tree is k-limited exactly
        when no agent is refused."""
        refused = 0
        for t, _ in random_priced_trees(range(1000)):
            if not has_binary_outcomes(t):
                continue
            for h in (0, 1):
                errors = [oracle_budget_error(t, h, a) for a in range(t.agents)]
                for agent, want in enumerate(errors):
                    got = outcome_or_error(build_profile_classes, t, h, agent)
                    if want is None:
                        assert not isinstance(got, str)
                    else:
                        assert got == want
                        refused += 1
                first = oracle_first_budget_error(t, h)
                assert is_k_limited(t, h).ok == (first is None)
                if first is not None:
                    assert outcome_or_error(synthesize_payments, t, h) == first
        assert refused > 0

    @pytest.mark.parametrize("agent", [-1, 3, 1.0, True])
    def test_refuses_unknown_agent(self, agent):
        t = english_auction_tree(3, [1, 2, 3])
        leaf = t.leaf_ids[0]
        want = f"unknown agent {agent}"
        with pytest.raises(MechanismError, match=want):
            query_count(t, agent, leaf)
        with pytest.raises(MechanismError, match=want):
            build_profile_classes(t, 1, agent)
        with pytest.raises(MechanismError, match=want):
            build_k_osp_graph(t, 1, agent)

    def test_every_leaf_is_classified(self):
        t = english_auction_tree(2, [1, 2, 3])
        part = build_profile_classes(t, 0, 1)
        assert set(part.leaf_class) == set(t.leaf_ids)

    def test_vertex_metadata_consistent(self):
        t = compress(extract_tree(PSystem.single_item(2), [1, 2, 3]))
        g = build_k_osp_graph(t, 0, 0)
        for cls in g.vertices:
            assert cls.bit in (0, 1)
            for prof in cls.members:
                assert t.leaf_of(prof).outcome[0] == cls.bit


class TestSynthesis:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_auction_toll_round_trip(self, d):
        t = compress(extract_tree(PSystem.single_item(2), list(range(1, d + 1))))
        res = synthesize_payments(t, 0)
        assert res.ok
        assert res.failures == ()
        assert check_k_step_osp(res.tree, 0).ok

    def test_reprices_clock_tree(self):
        t = english_auction_tree(2, [1, 2, 3])
        res = synthesize_payments(t, 1)
        assert res.ok
        assert check_k_step_osp(res.tree, 1).ok

    def test_input_tree_untouched(self):
        t = compress(extract_tree(PSystem.single_item(2), [1, 2]))
        synthesize_payments(t, 0)
        assert all(t.nodes[l].payment is None for l in t.leaf_ids)

    def test_anti_monotone_has_no_payments(self):
        t = tree_from_nested(1, [[1, 2]], (
            "q", 0, [
                ([1], ("leaf", (0,), None)),
                ([2], ("leaf", (1,), None)),
            ],
        ))
        res = synthesize_payments(t, 0)
        assert not res.ok
        assert res.tree is None
        assert len(res.failures) == 1
        assert res.failures[0].weight < 0

    def test_matches_graph_labels(self):
        """Synthesis relaxes int edges of its own; its payments are the
        labels of the public class graph and its failures that graph's
        witnesses, agent by agent."""
        cases = [
            (t, k) for t, k, agent in random_graph_cases(range(1000)) if agent == 0
        ]
        outcomes = []
        fractional = False
        for t, k in cases + tail_fixture_cases():
            res = synthesize_payments(t, k)
            outcomes.append(res.ok)
            witnesses = []
            for agent in range(t.agents):
                part = build_profile_classes(t, k, agent)
                dist, witness = _bellman(build_k_osp_graph(t, k, agent))
                if witness is not None:
                    witnesses.append(witness)
                    fractional |= witness.weight.denominator > 1
                    continue
                fractional |= any(d.denominator > 1 for d in dist)
                if res.ok:
                    for leaf in t.leaf_ids:
                        label = dist[part.leaf_class[leaf]]
                        assert res.tree.nodes[leaf].payment[agent] == label
            assert res.failures == tuple(witnesses)
            assert res.ok == (not witnesses)
        assert set(outcomes) == {True, False}
        assert fractional

    def test_rejects_over_budget_trees(self):
        raw = extract_tree(PSystem.single_item(2), [1, 2, 3, 4])
        with pytest.raises(MechanismError, match="not k-limited"):
            synthesize_payments(raw, 0)


def synthesis_outcome(tree, k):
    """What `synthesize_payments` gives, as comparable values: the verdict,
    the failures and the priced tree's text, or the refusal's message."""
    res = outcome_or_error(synthesize_payments, tree, k)
    if isinstance(res, str):
        return res
    return res.ok, res.failures, res.tree and dumps_mechanism(res.tree)


def graph_outcome(tree, k, agent):
    """The class graph and its negative cycle, or the refusal's message."""
    graph = outcome_or_error(build_k_osp_graph, tree, k, agent)
    if isinstance(graph, str):
        return graph
    return graph, has_negative_cycle(graph)


class TestKeptClassGraphs:
    """The partition and target lists are built once per (horizon, agent)
    and kept in `tree.class_graphs`, which the class graph and synthesis
    both read."""

    def test_class_graphs_once_per_horizon_and_agent(self, monkeypatch):
        built = Counter()
        target = None
        real = cmon._partition

        def counted(tree, k, agent):
            if tree is target:
                built[k, agent] += 1
            return real(tree, k, agent)

        monkeypatch.setattr(cmon, "_partition", counted)
        rng = random.Random(23)
        seen = Counter()
        for target, _ in extra_query_draws(range(150)):
            built.clear()
            horizons = [0, 1, 2, inf]
            rng.shuffle(horizons)
            asked = set()
            for k in horizons + horizons[::-1]:
                fresh = loads_mechanism(dumps_mechanism(target))
                for agent in range(target.agents):
                    got = graph_outcome(target, k, agent)
                    assert got == graph_outcome(fresh, k, agent)
                    if not isinstance(got, str):
                        asked.add((k, agent))
                        seen["payable" if got[1] is None else "cycle"] += 1
                    else:
                        seen["refused"] += 1
                assert synthesis_outcome(target, k) == synthesis_outcome(fresh, k)
                assert set(target.class_graphs) == asked
            # a refused build keeps nothing, so it runs again on every call
            assert {key: built[key] for key in asked} == dict.fromkeys(asked, 1)
        assert min(seen["payable"], seen["cycle"], seen["refused"]) > 50

    def test_a_tree_over_budget_keeps_nothing(self):
        t = english_auction_tree(3, [1, 2, 3, 4, 5])
        want = re.escape(
            "tree is not k-limited (node 7: extra query to agent 0 is not "
            "of an allowed form)"
        )
        for _ in range(2):
            with pytest.raises(MechanismError, match=f"^{want}$"):
                build_k_osp_graph(t, 0, 0)
            with pytest.raises(MechanismError, match=f"^{want}$"):
                synthesize_payments(t, 0)
        assert t.class_graphs == {}

    @pytest.mark.parametrize("agent", [True, 1.0])
    def test_a_kept_graph_is_not_read_for_agent_1_by_another_key(self, agent):
        t = english_auction_tree(2, [1, 2, 3])
        build_k_osp_graph(t, 1, 1)
        for call in (build_k_osp_graph, cmon._class_graph):
            with pytest.raises(MechanismError, match=f"^unknown agent {agent}$"):
                call(t, 1, agent)

    def test_a_kept_graph_still_meets_the_scale_guard(self, monkeypatch):
        t = english_auction_tree(2, [1, 2, 3])
        graph = build_k_osp_graph(t, 1, 0)
        priced = synthesize_payments(t, 1)
        assert priced.ok and set(t.class_graphs) == {(1, 0), (1, 1)}
        monkeypatch.setenv("OSPKIT_SCALE_GUARD", "8")
        want = "^enumeration of 9 profiles exceeds scale guard 8;"
        for _ in range(2):
            with pytest.raises(MechanismError, match=want):
                build_k_osp_graph(t, 1, 0)
            with pytest.raises(MechanismError, match=want):
                synthesize_payments(t, 1)
        monkeypatch.setenv("OSPKIT_SCALE_GUARD", "9")
        assert build_k_osp_graph(t, 1, 0) == graph
        assert dumps_mechanism(synthesize_payments(t, 1).tree) == dumps_mechanism(
            priced.tree
        )


def mispriced_tree():
    """Seed 1930 of `extra_query_draws`, at k=0: agent 1 (types 1 to 3) is
    asked {1,2} | {3} at node 0, then {1} | {2} at node 1, and wins only at
    type 1.  Payments exist, yet the class graph prices leaves 2, 3 and 4
    at 0, -1 and -1, and the check finds type 2 gaining at node 0."""
    return tree_from_nested(2, [[1, 2, 3, 4, 5], [1, 2, 3]], (
        "q", 1, [
            ([1, 2], ("q", 1, [
                ([1], ("leaf", (1, 1), None)),
                ([2], ("leaf", (1, 0), None)),
            ])),
            ([3], ("leaf", (1, 0), None)),
        ],
    ))


class TestMispricing:
    def test_synthesis_finds_payments_where_they_exist(self):
        t = mispriced_tree()
        res = synthesize_payments(t, 0)
        assert [oracle_payments_exist(t, 0, a) for a in range(t.agents)] == [
            res.ok
        ] * t.agents

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: class-graph labels misprice")
    def test_synthesized_payments_pass_the_check(self):
        assert check_k_step_osp(synthesize_payments(mispriced_tree(), 0).tree, 0).ok


class TestRevealBudget:
    def test_refuses_every_draw_over_budget(self):
        """reveal_at_k2 refuses each over-budget draw of seeds 0-2999 with
        the node and reason of is_k_limited."""
        over = 0
        for t, k in extra_query_draws(range(3000)):
            verdict = is_k_limited(t, k)
            if verdict.ok:
                continue
            want = f"tree is not k-limited (node {verdict.witness}: {verdict.reason})"
            assert outcome_or_error(reveal_at_k2, t, k) == want
            over += 1
        assert over == 188


def assert_classes_are_leaf_boxes(tree, k, agent):
    """Each class holds the boxes of the leaves mapped to it, in leaf
    preorder, and lists as members their disjoint union, sorted; returns
    the number of classes checked, 0 when the partition is refused."""
    try:
        part = build_profile_classes(tree, k, agent)
    except MechanismError:
        return 0
    for n, cls in enumerate(part.classes):
        leaves = [leaf for leaf in tree.leaf_ids if part.leaf_class[leaf] == n]
        assert cls.boxes == tuple(tree.domain_at[leaf] for leaf in leaves)
        union = [p for box in cls.boxes for p in itertools.product(*box)]
        assert len(set(union)) == len(union)
        assert cls.members == tuple(sorted(union))
    return len(part.classes)


class TestLeafBoxes:
    """Classes as leaf boxes, on the trees of TestTailOracle."""

    def test_members_are_the_union_of_boxes(self):
        checked = 0
        for t, _ in random_priced_trees(range(250)):
            if not has_binary_outcomes(t):
                continue
            for h in (0, 1):
                for agent in range(t.agents):
                    checked += assert_classes_are_leaf_boxes(t, h, agent)
        assert checked > 0

    def test_fixture_members_are_the_union_of_boxes(self):
        cases = [
            (english_auction_tree(3, [1, 2, 3]), 0),
            (compress(extract_tree(PSystem.single_item(3), [1, 2, 3, 4, 5])), 1),
            (compress(extract_tree(PSystem.uniform(4, 2), [1, 2, 3, 4])), 0),
        ]
        for t, k in cases:
            for agent in range(t.agents):
                assert assert_classes_are_leaf_boxes(t, k, agent) > 0


def oracle_sticky(tree, k):
    """sticky_edges_check with a walk from the root per member pair."""
    for agent in range(tree.agents):
        graph = build_k_osp_graph(tree, k, agent)
        for ca, cb, _ in graph.edges:
            if ca > cb:
                continue
            shared = None
            for x in graph.vertices[ca].members:
                for y in graph.vertices[cb].members:
                    where = oracle_first_divergence(tree, x, y)
                    if where is None or tree.nodes[where].agent != agent:
                        return StickyResult(
                            False, (agent, ca, cb, x, y, shared, where)
                        )
                    if shared is None:
                        shared = where
                    elif where != shared:
                        return StickyResult(
                            False, (agent, ca, cb, x, y, shared, where)
                        )
    return StickyResult(True, None)


def wide_tail_tree(m):
    """Agent 0 (types 1 to 3) is asked {1} | {2,3}, then {2} | {3} at
    node 2, her second query: at k=0 it anchors two tail classes, bit 0
    under {2} and bit 1 under {3}, one leaf per type of agent 1 (types 1
    to m).  The edge between them has m^2 leaf pairs over 3m profiles."""

    def reveal(bit):
        return ("q", 1, [([v], ("leaf", [bit, 0], None)) for v in range(1, m + 1)])

    return tree_from_nested(2, [[1, 2, 3], list(range(1, m + 1))], (
        "q", 0, [
            ([1], reveal(0)),
            ([2, 3], ("q", 0, [([2], reveal(0)), ([3], reveal(1))])),
        ],
    ))


class TestSticky:
    def test_holds_on_limited_trees(self):
        assert sticky_edges_check(english_auction_tree(2, [1, 2, 3]), 1).ok
        t = compress(extract_tree(PSystem.single_item(2), [1, 2, 3, 4]))
        assert sticky_edges_check(t, 0).ok

    @pytest.mark.parametrize(
        "name,k", [("uniform(5,2,4)", 0), ("english(4,4)", 1)]
    )
    def test_holds_on_fixtures(self, name, k):
        assert sticky_edges_check(materialize_tree(name), k) == StickyResult(True, None)

    def test_fixture_matches_oracle(self):
        t = fixture_tree("uniform(4,2,4)")
        want = StickyResult(True, None)
        assert sticky_edges_check(t, 0) == oracle_sticky(t, 0) == want

    def test_leaf_pairs_meet_the_scale_guard(self, monkeypatch):
        t = wide_tail_tree(10)
        assert sticky_edges_check(t, 0).ok
        monkeypatch.setenv("OSPKIT_SCALE_GUARD", "99")
        with pytest.raises(
            MechanismError,
            match="^enumeration of 100 leaf pairs exceeds scale guard 99;",
        ):
            sticky_edges_check(t, 0)
        monkeypatch.setenv("OSPKIT_SCALE_GUARD", "100")
        assert sticky_edges_check(t, 0).ok

    def test_witness_is_the_first_failing_leaf_pair(self, monkeypatch):
        # every pair made to part at the root passes the root's agent and
        # fails the other agent's first edge at its first leaf pair
        t = english_auction_tree(2, [1, 2, 3])
        agent = 1 - t.nodes[t.root].agent
        monkeypatch.setattr(cmon, "parting_node", lambda tree, x, y: tree.root)
        part, targets = _class_graph(t, 1, agent)
        ca, cb = next((a, b) for a, ends in enumerate(targets) for b in ends if a < b)
        x, y = (
            next(leaf for leaf in t.leaf_ids if part.leaf_class[leaf] == pos)
            for pos in (ca, cb)
        )
        want = (agent, ca, cb, t.box_min(x), t.box_min(y), None, t.root)
        assert sticky_edges_check(t, 1) == StickyResult(False, want)

    def test_matches_oracle(self):
        # horizons below a tree's own k put some trees over budget, and
        # those are refused with the budget message
        seen = Counter()
        for t, k in random_priced_trees(range(300)):
            if not has_binary_outcomes(t):
                continue
            for h in sorted({0, k}):
                got = outcome_or_error(sticky_edges_check, t, h)
                first = oracle_first_budget_error(t, h)
                if first is not None:
                    assert got == first
                    seen["refused"] += 1
                    continue
                assert got == oracle_sticky(t, h)
                seen[got.ok] += 1
        assert seen[True] and seen["refused"]


class TestHorizonEquivalence:
    def test_fixture_trees_agree(self):
        cases = [
            (english_auction_tree(2, [1, 2, 3]), 1),
            (english_auction_tree(3, [1, 2, 3]), 0),
            (compress(extract_tree(PSystem.single_item(2), [1, 2, 3, 4])), 0),
            (compress(extract_tree(PSystem.single_item(3), [1, 2, 3])), 0),
        ]
        for t, k in cases:
            rep = k_vs_infinity_equivalence(t, k)
            assert rep.agree
            assert len(rep.details) == t.agents

    def test_english_4_4_agrees(self):
        rep = k_vs_infinity_equivalence(materialize_tree("english(4,4)"), 1)
        assert rep.agree and len(rep.details) == 4

    def test_uniform_5_2_4_agrees(self):
        # agents 1-3 have negative cycles at k = 0 and at inf
        rep = k_vs_infinity_equivalence(fixture_tree("uniform(5,2,4)"), 0)
        assert rep.agree
        assert rep.details == tuple((a, 1 <= a <= 3, 1 <= a <= 3) for a in range(5))

    def test_extra_query_trees_agree_or_are_refused(self):
        # within budget the verdicts coincide; over it the tree is refused
        seen = Counter()
        for t, k in random_priced_trees(range(300)):
            if not has_binary_outcomes(t):
                continue
            for h in (0, 1):
                first = oracle_first_budget_error(t, h)
                got = outcome_or_error(k_vs_infinity_equivalence, t, h)
                if first is None:
                    assert got.agree
                    seen["agree"] += 1
                else:
                    assert got == first
                    seen["refused"] += 1
        for t, k, agent in random_extra_query_cases(range(300)):
            if agent == 0:
                assert k_vs_infinity_equivalence(t, k).agree
                seen["extra"] += 1
        assert seen["agree"] and seen["refused"] and seen["extra"]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_limited_trees_agree(self, seed):
        rng = random.Random(seed)
        domains = [
            list(range(1, rng.randint(2, 4) + 1)) for _ in range(2)
        ]
        k = rng.randint(0, 2)
        t = random_k_limited_tree(rng, 2, domains, k)
        assert k_vs_infinity_equivalence(t, k).agree
