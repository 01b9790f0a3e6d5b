"""The benchmark's three workloads and their jobs.

A job is one chain of public ospkit calls, the same chain the matching
CLI verb (or chain of verbs) makes, run on input that was serialized to
canonical JSON text during set-up and is parsed again inside the job.
``run(t)`` makes the calls through ``t.call`` so that the traced run can
put a span around each one, and returns the bytes the verbs would print
together with the facts its correctness check needs.  ``check(facts)``
runs after the job's clock has stopped and returns a problem text, or
None when the answer is right.

The expected answers are the paper's guarantees, as gated by the
criteria of ``tests/test_acceptance.py``; the harness also compares each
job's output bytes with the digest recorded in ``digests.json``.
"""

from __future__ import annotations

import random
from math import inf, prod
from typing import Callable, NamedTuple

EXPERIMENT_COLUMNS = [
    "instance",
    "d",
    "k",
    "verdict_k_limitable",
    "worst_ratio",
    "queries_max",
]

# (fixture, horizons); english(3,5) is criterion 2's clock auction
VERIFY_FIXED = (
    ("english(3,5)", (0, 1, 2, inf)),
    ("english(3,6)", (1, 2, inf)),
    ("english(4,5)", (1, 2, inf)),
)
# criterion 2, plus strategyproofness of every clock auction at k=inf
VERIFY_EXPECT = {
    ("english(3,5)", 1): False,
    ("english(3,5)", 2): True,
    ("english(3,5)", inf): True,
    ("english(3,6)", inf): True,
    ("english(4,5)", inf): True,
}
# seeded trees, verified in batches like a shell loop over files
VERIFY_BATCHES = 15

# (fixture, horizon, whether payments exist)
PRICE_FIXED = (
    ("single_item(2,4)", 0, True),
    ("single_item(3,5)", 1, True),
    ("single_item(3,6)", 2, True),
    ("single_item(3,8)", 2, True),
    ("uniform(4,2,4)", 0, False),
    ("triangle_graphic(5)", 1, False),
)
PRICE_BATCHES = 19

SWEEP_EXPERIMENTS = (
    "single_item(4,5)",
    "single_item(5,5)",
    "uniform(5,2,5)",
    "uniform(6,3,4)",
    "triangle_graphic(12)",
)
SWEEP_KS = (0, 1, 2, inf)
GREEDY_INSTANCE = "uniform(6,3,8)"
GREEDY_BATCHES = 18
GREEDY_BATCH_SIZE = 20
SEARCH_DOMAIN = (1, 2, 4, 8)

TREES_PER_BATCH = 8
# Random trees are drawn until one has this many nodes, so that every
# seed gives jobs of about the same size.
RANDOM_NODES = (11, 19)


class Job(NamedTuple):
    name: str
    inputs: str  # the JSON text the job parses
    run: Callable  # run(t) -> (output text, facts)
    check: Callable  # check(facts) -> problem text or None
    seeded: bool  # whether the input depends on --seed


def horizon_label(k) -> str:
    return "inf" if k == inf else str(k)


def batch(name: str, parts: list[Job]) -> Job:
    """Several verb calls run back to back as one job, the way a shell
    loop runs a verb over a directory of files."""

    def run(t):
        outs, facts = zip(*(part.run(t) for part in parts))
        return "".join(outs), facts

    def check(facts):
        for part, part_facts in zip(parts, facts):
            problem = part.check(part_facts)
            if problem:
                return f"{part.name}: {problem}"
        return None

    inputs = "".join(part.inputs for part in parts)
    return Job(name, inputs, run, check, any(part.seeded for part in parts))


def _loads_mechanism(ok, t, text: str):
    tree = t.call(ok.loads_mechanism, text)
    t.count("io.bytes_in", len(text.encode()))
    _count_tree(t, tree)
    return tree


def _count_tree(t, tree) -> None:
    t.count("model.nodes", len(tree.nodes))
    t.count("model.leaves", len(tree.leaf_ids))
    t.count("model.profiles", prod(len(dom) for dom in tree.domains))


def _loads_instance(ok, t, text: str):
    ps, domain = t.call(ok.loads_instance, text)
    t.count("io.bytes_in", len(text.encode()))
    return ps, domain


def _count_check(t, result) -> None:
    t.count("verifier.pairs_checked", result.checked)
    t.count("verifier.violations", len(result.violations))
    t.count("verifier.truncated", int(result.truncated))


def _random_tree(ok, rng: random.Random, agents: int, k, with_payments: bool):
    lo, hi = RANDOM_NODES
    while True:
        domains = [range(1, rng.randint(3, 4) + 1) for _ in range(agents)]
        tree = ok.random_k_limited_tree(
            rng, agents, domains, k, with_payments=with_payments
        )
        if lo <= len(tree.nodes) <= hi:
            return tree


def _instance_text(ok, fixture: str) -> str:
    ps, domain = ok.materialize(fixture)[1]
    return ok.render_report(ok.instance_data_for(ps, domain))


# -- verify -----------------------------------------------------------------


def verify_job(ok, name: str, text: str, k, expect, seeded: bool) -> Job:
    """The verify verb: verdict, violations and structural checks."""

    def run(t):
        tree = _loads_mechanism(ok, t, text)
        result = t.call(ok.check_k_step_osp, tree, k)
        _count_check(t, result)
        structural = dict.fromkeys(
            ("almost_ordered", "k_limited", "strong_ineffectiveness", "taxation")
        )
        try:
            ok.require_binary_outcomes(tree)
        except ok.MechanismError:
            pass  # the binary-only checks stay out, as in the CLI
        else:
            structural["almost_ordered"] = t.call(
                ok.is_almost_ordered, tree, k
            ).ok
            structural["k_limited"] = t.call(ok.is_k_limited, tree, k).ok
            structural["strong_ineffectiveness"] = len(
                t.call(ok.strong_ineffectiveness_check, tree)
            )
            structural["taxation"] = len(
                t.call(ok.taxation_diagnostics, tree, k)
            )
        fmt = ok.format_rational
        data = {
            "verdict": "pass" if result.ok else "fail",
            "violations": [
                {
                    "agent": v.agent,
                    "node": v.node,
                    "a": [fmt(x) for x in v.a],
                    "b": [fmt(x) for x in v.b],
                    "c": fmt(v.c),
                    "lhs": fmt(v.lhs),
                    "rhs": fmt(v.rhs),
                }
                for v in result.violations
            ],
            "structural": structural,
        }
        return t.call(ok.render_report, data), {"ok": result.ok}

    def check(facts):
        if expect is not None and facts["ok"] != expect:
            return f"verdict {facts['ok']}, expected {expect}"
        return None

    return Job(name, text, run, check, seeded)


def build_verify(ok, seed: int) -> list[Job]:
    jobs = []
    for fixture, ks in VERIFY_FIXED:
        text = ok.dumps_mechanism(ok.materialize(fixture)[1])
        for k in ks:
            jobs.append(verify_job(
                ok, f"{fixture}@k={horizon_label(k)}", text, k,
                VERIFY_EXPECT.get((fixture, k)), seeded=False,
            ))
    rng = random.Random(seed)
    for j in range(VERIFY_BATCHES):
        parts = []
        for i in range(TREES_PER_BATCH):
            k = i % 3
            tree = _random_tree(ok, rng, 2 + i % 2, k, with_payments=True)
            parts.append(verify_job(
                ok, f"tree-{i}@k={k}", ok.dumps_mechanism(tree), k,
                None, seeded=True,
            ))
        jobs.append(batch(f"random-batch-{j:02d}", parts))
    return jobs


# -- price ------------------------------------------------------------------


def _price(ok, t, text: str, k):
    """cmon verb, then payments verb, then the k-step check of the priced
    tree, on one mechanism text."""
    fmt = ok.format_rational
    tree = _loads_mechanism(ok, t, text)
    limited = t.call(ok.is_k_limited, tree, k).ok
    agents = []
    for agent in range(tree.agents):
        graph = t.call(ok.build_k_osp_graph, tree, k, agent)
        witness = t.call(ok.has_negative_cycle, graph)
        t.count("cmon.vertices", len(graph.vertices))
        t.count("cmon.edges", len(graph.edges))
        t.count("cmon.agents_tried")
        t.count("cmon.agents_payable", int(witness is None))
        agents.append({
            "agent": agent,
            "vertices": len(graph.vertices),
            "edges": len(graph.edges),
            "negative_cycle": witness is not None,
            "cycle_weight": None if witness is None else fmt(witness.weight),
        })
    payable = [not a["negative_cycle"] for a in agents]
    out = [t.call(ok.render_report, {
        "verdict": "pass" if all(payable) else "fail", "agents": agents,
    })]
    synth = t.call(ok.synthesize_payments, tree, k)
    check_ok = None
    if synth.ok:
        out.append(t.call(ok.dumps_mechanism, synth.tree))
        result = t.call(ok.check_k_step_osp, synth.tree, k)
        _count_check(t, result)
        check_ok = result.ok
        out.append(t.call(ok.render_report, {
            "verdict": "pass" if result.ok else "fail",
            "checked": result.checked,
        }))
    else:
        out.append(t.call(ok.render_report, {
            "verdict": "fail",
            "negative_cycles": [
                {"agent": w.agent, "cycle": list(w.cycle), "weight": fmt(w.weight)}
                for w in synth.failures
            ],
        }))
    facts = {
        "limited": limited,
        "payable": payable,
        "synth_ok": synth.ok,
        "check_ok": check_ok,
    }
    return "".join(out), facts


def _price_problem(facts):
    """Criterion 4: the per-agent cmon verdicts agree with synthesis, and
    every synthesized tree passes the check at its own horizon."""
    if not facts["limited"]:
        return "input tree is not k-limited"
    if all(facts["payable"]) != facts["synth_ok"]:
        return (
            f"cmon verdicts {facts['payable']} disagree with "
            f"synthesize_payments.ok={facts['synth_ok']}"
        )
    if facts["synth_ok"] and not facts["check_ok"]:
        return "synthesized tree fails check_k_step_osp at its own k"
    return None


def price_instance_job(ok, fixture: str, text: str, k, payable: bool) -> Job:
    """greedy extract-tree, then cmon, payments and verify."""

    def run(t):
        ps, domain = _loads_instance(ok, t, text)
        raw = t.call(ok.extract_tree, ps, domain)
        t.count("greedy.raw_nodes", len(raw.nodes))
        mech = t.call(ok.dumps_mechanism, t.call(ok.compress, raw))
        out, facts = _price(ok, t, mech, k)
        facts.update(ps=ps, domain=domain, raw=raw)
        return out, facts

    def check(facts):
        problem = _price_problem(facts)
        if problem:
            return problem
        if facts["synth_ok"] != payable:
            return f"payments exist: {facts['synth_ok']}, expected {payable}"
        ps, domain, raw = facts["ps"], facts["domain"], facts["raw"]
        if fixture.startswith("single_item") and ps.ground_size in (2, 3):
            # criterion 3: k-limitable at max(ceil(d/2)-2, 0), not below,
            # with worst ratio 1
            kk = max(-(-len(domain) // 2) - 2, 0)
            if not ok.is_k_limitable(raw, kk).ok:
                return f"not k-limitable at k={kk}"
            if kk >= 1 and ok.is_k_limitable(raw, kk - 1).ok:
                return f"k-limitable already at k={kk - 1}"
            ratio, _ = ok.approx_ratio(ps, raw, domain)
            if ratio != 1:
                return f"worst ratio {ratio}, expected 1"
        return None

    return Job(f"{fixture}@k={horizon_label(k)}", text, run, check, False)


def price_mechanism_job(ok, name: str, text: str, k) -> Job:
    """cmon, payments and verify on a random unpriced tree."""
    return Job(
        name, text, lambda t: _price(ok, t, text, k), _price_problem, True
    )


def build_price(ok, seed: int) -> list[Job]:
    jobs = [
        price_instance_job(ok, fixture, _instance_text(ok, fixture), k, payable)
        for fixture, k, payable in PRICE_FIXED
    ]
    rng = random.Random(seed)
    for j in range(PRICE_BATCHES):
        parts = []
        for i in range(TREES_PER_BATCH):
            k = i % 3
            tree = _random_tree(ok, rng, 3, k, with_payments=False)
            parts.append(price_mechanism_job(
                ok, f"tree-{i}@k={k}", ok.dumps_mechanism(tree), k
            ))
        jobs.append(batch(f"random-batch-{j:02d}", parts))
    return jobs


# -- sweep ------------------------------------------------------------------


def experiment_job(ok, fixture: str, text: str) -> Job:
    """experiment verb (approx included) over SWEEP_KS for one instance."""

    def run(t):
        ps, domain = _loads_instance(ok, t, text)
        raw = t.call(ok.extract_tree, ps, domain)
        t.count("greedy.raw_nodes", len(raw.nodes))
        ratio, _ = t.call(ok.approx_ratio, ps, raw, domain)
        rounds = t.call(ok.compress, raw)
        _count_tree(t, rounds)
        queries_max = max(
            (
                ok.query_count(rounds, agent, leaf)
                for leaf in rounds.leaf_ids
                for agent in range(rounds.agents)
            ),
            default=0,
        )
        rows = [
            {
                "instance": fixture,
                "d": len(domain),
                "k": horizon_label(k),
                "verdict_k_limitable": (
                    "pass" if t.call(ok.is_k_limited, rounds, k).ok else "fail"
                ),
                "worst_ratio": ok.format_rational(ratio),
                "queries_max": queries_max,
            }
            for k in SWEEP_KS
        ]
        csv = t.call(ok.render_csv, rows, EXPERIMENT_COLUMNS)
        return csv, {"ps": ps, "ratio": ratio}

    def check(facts):
        # criterion 7: the worst ratio is at least the rank quotient
        bound = ok.rank_quotient(facts["ps"])
        if facts["ratio"] < bound:
            return f"worst ratio {facts['ratio']} below rank quotient {bound}"
        return None

    return Job(fixture, text, run, check, False)


def greedy_job(ok, name: str, text: str, truth_text: str) -> Job:
    """The greedy --truth verb on one truthful profile."""

    def run(t):
        ps, domain = _loads_instance(ok, t, text)
        truth = [ok.parse_rational(part) for part in truth_text.split(",")]
        result = t.call(ok.run_two_way_greedy, ps, domain, truth=truth)
        out = t.call(ok.render_report, {
            "chosen": sorted(result.chosen),
            "excluded": sorted(result.excluded),
            "trace": [
                {
                    "agent": q.agent,
                    "direction": q.direction,
                    "value": ok.format_rational(q.value),
                    "answer": q.answer,
                }
                for q in result.trace
            ],
            "queries_per_agent": [
                sum(1 for q in result.trace if q.agent == i)
                for i in range(ps.ground_size)
            ],
        })
        return out, {"ps": ps, "truth": truth, "chosen": result.chosen}

    def check(facts):
        # criterion 7: truthful welfare equals reverse greedy welfare
        truth = facts["truth"]
        classic = ok.reverse_greedy_solution(facts["ps"], truth)
        got = sum(truth[e] for e in facts["chosen"])
        want = sum(truth[e] for e in classic)
        if got != want:
            return f"welfare {got} at {truth_text}, reverse greedy gives {want}"
        return None

    return Job(name, text + truth_text, run, check, True)


def search_job(ok, text: str, greedy_outcome: bool) -> Job:
    """search verb at k=0 and ratio 1, writing the found tree."""

    def run(t):
        ps, domain = _loads_instance(ok, t, text)
        result = t.call(
            ok.search_two_way_greedy, ps, domain, 0, "1",
            greedy_outcome=greedy_outcome,
        )
        t.count("greedy.search_explored", result.explored)
        out = t.call(ok.render_report, {
            "found": result.found,
            "ratio": (
                None if result.ratio is None else ok.format_rational(result.ratio)
            ),
            "explored": result.explored,
        })
        if result.found:
            out += t.call(ok.dumps_mechanism, result.tree)
        return out, {"found": result.found, "tree": result.tree}

    def check(facts):
        # criterion 8: the free search finds a 0-limitable tree, the one
        # restricted to greedy outcomes is exhausted
        if facts["found"] == greedy_outcome:
            return f"found={facts['found']} with greedy_outcome={greedy_outcome}"
        if facts["found"] and not ok.is_k_limitable(facts["tree"], 0).ok:
            return "found tree is not 0-limitable"
        return None

    name = "search-greedy-outcome" if greedy_outcome else "search-free"
    return Job(name, text, run, check, False)


def build_sweep(ok, seed: int) -> list[Job]:
    jobs = [
        experiment_job(ok, fixture, _instance_text(ok, fixture))
        for fixture in SWEEP_EXPERIMENTS
    ]
    search_text = ok.render_report(ok.instance_to_data(
        "single_item", 2, [ok.parse_rational(v) for v in SEARCH_DOMAIN]
    ))
    jobs += [search_job(ok, search_text, flag) for flag in (False, True)]
    text = _instance_text(ok, GREEDY_INSTANCE)
    ps, domain = ok.materialize(GREEDY_INSTANCE)[1]
    rng = random.Random(seed)
    for j in range(GREEDY_BATCHES):
        parts = []
        for i in range(GREEDY_BATCH_SIZE):
            truth = ",".join(
                str(rng.choice(domain)) for _ in range(ps.ground_size)
            )
            parts.append(greedy_job(ok, f"truth-{i:02d}", text, truth))
        jobs.append(batch(f"greedy-batch-{j:02d}", parts))
    return jobs


BUILDERS = {"verify": build_verify, "price": build_price, "sweep": build_sweep}
