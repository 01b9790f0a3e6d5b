"""Command line front end.

Verbs: verify, payments, cmon, greedy (with an extract-tree form),
approx, search, fixtures, experiment.  Exit codes partition cleanly:
0 for pass/found, 1 for fail/exhausted, 2 for any input problem, and 3
for an internal error (a bug in ospkit, reported on one stderr line), so
a crash never reads as a verdict.

Reports are canonical json (sorted keys, rationals as "num/den" strings),
so identical inputs give byte-identical output; the experiment verb
emits CSV, or the same rows as json with --format json.  Wall-clock
timing is printed to stderr only and never enters a report.  The
environment variable OSPKIT_SCALE_GUARD overrides the enumeration cap
(default 10^5 profiles).
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from math import inf

# only what building the parser and main's error handling need: each
# verb imports the modules it calls, so a run loads no others
from .io import MechanismFormatError, parse_horizon
from .model import MechanismError

EXPERIMENT_COLUMNS = [
    "instance",
    "d",
    "k",
    "verdict_k_limitable",
    "worst_ratio",
    "queries_max",
]


def _status(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _rational(text: str, flag: str):
    from .rational import parse_rational

    try:
        return parse_rational(text)
    except ValueError as exc:
        raise MechanismError(f"bad {flag}: {exc}") from None


def _max_queries(tree) -> int:
    return max(map(max, tree.query_depth.values()))


def cmd_verify(args) -> int:
    from . import verifier
    from .io import load_mechanism, render_report
    from .model import require_binary_outcomes, require_valid
    from .rational import format_rational

    tree = load_mechanism(args.mechanism)
    require_valid(tree)
    k = parse_horizon(args.k)
    result = verifier.check_k_step_osp(tree, k)

    structural: dict[str, object] = {
        "almost_ordered": None,
        "k_limited": None,
        "strong_ineffectiveness": None,
        "taxation": None,
    }
    try:
        require_binary_outcomes(tree)
    except MechanismError:
        pass  # sell/buy levels beyond 0/1: binary-only checks stay out
    else:
        structural["almost_ordered"] = verifier.is_almost_ordered(tree, k).ok
        structural["k_limited"] = verifier.is_k_limited(tree, k).ok
        structural["strong_ineffectiveness"] = len(
            verifier.strong_ineffectiveness_check(tree)
        )
        structural["taxation"] = len(verifier.taxation_diagnostics(tree, k))

    # the violations share their corner tuples and their lhs and rhs
    # objects: each distinct object is formatted once, keyed by identity
    # (every key stays alive in `result`)
    text: dict[int, object] = {}

    def fmt(x) -> str:
        got = text.get(id(x))
        if got is None:
            got = text[id(x)] = format_rational(x)
        return got

    def corner(xs) -> list[str]:
        got = text.get(id(xs))
        if got is None:
            got = text[id(xs)] = [fmt(x) for x in xs]
        return got

    data = {
        "verdict": "pass" if result.ok else "fail",
        "violations": [
            {
                "agent": v.agent,
                "node": v.node,
                "a": corner(v.a),
                "b": corner(v.b),
                "c": fmt(v.c),
                "lhs": fmt(v.lhs),
                "rhs": fmt(v.rhs),
            }
            for v in result.violations
        ],
        "structural": structural,
    }
    _emit(render_report(data), args.out)
    _status(
        f"{data['verdict']}: {len(result.violations)} violation(s), "
        f"{result.checked} constraints checked"
    )
    return 0 if result.ok else 1


def cmd_payments(args) -> int:
    from .cmon import synthesize_payments
    from .io import dump_mechanism, load_mechanism, render_report
    from .rational import format_rational

    tree = load_mechanism(args.mechanism)
    k = parse_horizon(args.k)
    result = synthesize_payments(tree, k)
    if not result.ok:
        data = {
            "verdict": "fail",
            "negative_cycles": [
                {
                    "agent": w.agent,
                    "cycle": list(w.cycle),
                    "weight": format_rational(w.weight),
                }
                for w in result.failures
            ],
        }
        sys.stdout.write(render_report(data))
        _status("no payments exist: negative cycle in the class graph")
        return 1
    if not args.out:
        raise MechanismError("payments needs --out MECHFILE")
    dump_mechanism(result.tree, args.out)
    _status(f"wrote priced mechanism to {args.out}")
    return 0


def cmd_cmon(args) -> int:
    from .cmon import build_k_osp_graph, has_negative_cycle
    from .io import graph_to_data, load_mechanism, render_report, write_report
    from .rational import format_rational

    tree = load_mechanism(args.mechanism)
    k = parse_horizon(args.k)
    agents = []
    dump = []
    bad = 0
    for agent in range(tree.agents):
        graph = build_k_osp_graph(tree, k, agent)
        witness = has_negative_cycle(graph)
        agents.append(
            {
                "agent": agent,
                "vertices": len(graph.vertices),
                "edges": len(graph.edges),
                "negative_cycle": witness is not None,
                "cycle_weight": (
                    None if witness is None else format_rational(witness.weight)
                ),
            }
        )
        if witness is not None:
            bad += 1
        if args.dump_graph:
            entry = {"agent": agent}
            entry.update(graph_to_data(graph))
            dump.append(entry)
    if args.dump_graph:
        horizon = "inf" if k == inf else str(k)
        write_report({"horizon": horizon, "agents": dump}, args.dump_graph)
        _status(f"wrote class graphs to {args.dump_graph}")
    data = {"verdict": "pass" if bad == 0 else "fail", "agents": agents}
    _emit(render_report(data), args.out)
    return 0 if bad == 0 else 1


def cmd_greedy(args) -> int:
    from .greedy import compress, extract_tree, run_two_way_greedy
    from .io import dump_mechanism, load_instance, render_report
    from .rational import format_rational

    if args.action not in (None, "extract-tree"):
        raise MechanismError(f"unknown greedy action {args.action!r}")
    ps, domain = load_instance(args.instance)
    if args.action == "extract-tree":
        if not args.out:
            raise MechanismError("extract-tree needs --out MECHFILE")
        tree = extract_tree(ps, domain)
        if not args.raw:
            # coalesce per-question runs into rounds so query budgets
            # count the way the k-limited check expects
            tree = compress(tree)
        dump_mechanism(tree, args.out)
        _status(
            f"wrote mechanism with {len(tree.nodes)} nodes to {args.out}"
        )
        return 0
    if args.truth is None:
        raise MechanismError("greedy needs --truth \"a,b,...\" (or extract-tree)")
    truth = [_rational(part, "--truth") for part in args.truth.split(",")]
    result = run_two_way_greedy(ps, domain, truth=truth)
    data = {
        "chosen": sorted(result.chosen),
        "excluded": sorted(result.excluded),
        "trace": [
            {
                "agent": q.agent,
                "direction": q.direction,
                "value": format_rational(q.value),
                "answer": q.answer,
            }
            for q in result.trace
        ],
        "queries_per_agent": [
            sum(1 for q in result.trace if q.agent == i)
            for i in range(ps.ground_size)
        ],
    }
    _emit(render_report(data), args.out)
    return 0


def cmd_approx(args) -> int:
    from .greedy import approx_ratio, compress, extract_tree
    from .io import load_instance, render_report
    from .rational import format_rational

    ps, domain = load_instance(args.instance)
    tree = extract_tree(ps, domain)
    ratio, witness = approx_ratio(ps, tree, domain)
    data = {
        "ratio": format_rational(ratio),
        "witness": [format_rational(v) for v in witness],
        "queries_max": _max_queries(compress(tree)),
    }
    _emit(render_report(data), args.out)
    _status(f"worst ratio {format_rational(ratio)} at {data['witness']}")
    return 0


def cmd_search(args) -> int:
    from .greedy import search_two_way_greedy
    from .io import dump_mechanism, load_instance, render_report
    from .rational import format_rational

    ps, domain = load_instance(args.instance)
    k = parse_horizon(args.k)
    target = _rational(args.ratio, "--ratio")
    result = search_two_way_greedy(
        ps, domain, k, target, greedy_outcome=args.greedy_outcome
    )
    data = {
        "found": result.found,
        "ratio": None if result.ratio is None else format_rational(result.ratio),
        "explored": result.explored,
    }
    sys.stdout.write(render_report(data))
    if result.found and args.out:
        dump_mechanism(result.tree, args.out)
        _status(f"wrote found mechanism to {args.out}")
    _status("found" if result.found else "exhausted")
    return 0 if result.found else 1


def cmd_fixtures(args) -> int:
    from .fixtures import fixture_names, materialize
    from .io import dump_mechanism, instance_data_for, write_report

    if not args.name:
        sys.stdout.write("\n".join(fixture_names()) + "\n")
        return 0
    kind, built = materialize(args.name)
    out = args.out
    if not out:
        out = re.sub(r"[(),\s]+", "_", args.name).strip("_") + ".json"
    if kind == "mechanism":
        dump_mechanism(built, out)
    else:
        ps, domain = built
        write_report(instance_data_for(ps, domain), out)
    _status(f"wrote {kind} fixture {args.name} to {out}")
    return 0


def cmd_experiment(args) -> int:
    from .fixtures import materialize
    from .greedy import approx_ratio, compress, extract_tree
    from .io import instance_data_for, render_csv, render_report
    from .rational import format_rational
    from .verifier import is_k_limited

    # rows are keyed by (instance, d, k): each instance, however its name
    # is spelled, and each horizon value (inf and infinity alike) runs
    # once; an instance's row keeps its first spelling
    ks = list(dict.fromkeys(parse_horizon(part) for part in args.ks.split(",")))
    seen = set()
    cells = []
    for name in args.instance or []:
        kind, built = materialize(name)
        if kind != "instance":
            raise MechanismError(
                f"experiment needs instance fixtures, {name!r} is a {kind}"
            )
        ps, domain = built
        key = render_report(instance_data_for(ps, domain))
        if key in seen:
            continue
        seen.add(key)
        tree = extract_tree(ps, domain)
        ratio, _ = approx_ratio(ps, tree, domain)
        rounds = compress(tree)
        queries_max = _max_queries(rounds)
        for k in ks:
            verdict = is_k_limited(rounds, k)
            cells.append(
                (name, len(domain), k, verdict.ok, ratio, queries_max)
            )
    cells.sort(key=lambda c: (c[0], c[1], c[2] == inf, c[2] if c[2] != inf else 0))
    rows = [
        {
            "instance": name,
            "d": d,
            "k": "inf" if k == inf else k,
            "verdict_k_limitable": "pass" if ok else "fail",
            "worst_ratio": format_rational(ratio),
            "queries_max": qmax,
        }
        for name, d, k, ok, ratio, qmax in cells
    ]
    if args.format == "json":
        _emit(render_report({"rows": rows}), args.out)
    else:
        _emit(render_csv(rows, EXPERIMENT_COLUMNS), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to this file")

    parser = argparse.ArgumentParser(
        prog="ospkit", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("verify", parents=[common], help="check a mechanism")
    p.add_argument("--mechanism", required=True)
    p.add_argument("--k", required=True, help="horizon: a non-negative int or 'inf'")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "payments", parents=[common], help="price a mechanism via shortest paths"
    )
    p.add_argument("--mechanism", required=True)
    p.add_argument("--k", required=True)
    p.set_defaults(func=cmd_payments)

    p = sub.add_parser(
        "cmon", parents=[common], help="class graphs and negative-cycle verdicts"
    )
    p.add_argument("--mechanism", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--dump-graph", default=None, help="write the graphs here")
    p.set_defaults(func=cmd_cmon)

    p = sub.add_parser(
        "greedy", parents=[common], help="run the two-way elimination"
    )
    p.add_argument(
        "action", nargs="?", default=None,
        help="extract-tree: write the full implementation tree instead",
    )
    p.add_argument("--instance", required=True)
    p.add_argument("--truth", default=None, help='valuations "a,b,..."')
    p.add_argument(
        "--raw",
        action="store_true",
        help="keep one node per yes/no question instead of merging rounds",
    )
    p.set_defaults(func=cmd_greedy)

    p = sub.add_parser(
        "approx", parents=[common], help="worst ratio of the extracted tree"
    )
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser(
        "search", parents=[common], help="hunt for a k-limitable two-way tree"
    )
    p.add_argument("--instance", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--ratio", required=True, help="worst-ratio target")
    p.add_argument(
        "--greedy-outcome",
        action="store_true",
        help="restrict leaves to the forward greedy solution",
    )
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "fixtures", parents=[common], help="write a named fixture file"
    )
    p.add_argument(
        "name", nargs="?", default=None,
        help="e.g. appendix_b, english(3,5); omit to list",
    )
    p.set_defaults(func=cmd_fixtures)

    p = sub.add_parser(
        "experiment", parents=[common], help="sweep instances over horizons"
    )
    p.add_argument(
        "--instance",
        action="append",
        help="instance fixture name; repeat for more",
    )
    p.add_argument("--ks", default="0", help='horizons "0,1,2"')
    p.add_argument(
        "--format", choices=["csv", "json"], default="csv", help="output format"
    )
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        code = args.func(args)
    except (MechanismFormatError, MechanismError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # any other exception is a bug: exit 3 keeps it apart from a verdict
        line = str(exc).split("\n", 1)[0]
        print(f"internal error: {type(exc).__name__}: {line}", file=sys.stderr)
        return 3
    _status(
        f"{args.command} finished in "
        f"{(time.perf_counter() - start) * 1000:.1f} ms"
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
