"""Named reference mechanisms and instances used by tests and the CLI.

Mechanism fixtures return an ImplementationTree; instance fixtures return
a (PSystem, domain) pair.  ``materialize`` resolves a name string such as
``english(3,5)`` to the built object plus its file kind.
"""
from __future__ import annotations

import re

from fractions import Fraction

from .greedy import PSystem, english_auction_tree
from .model import ImplementationTree, MechanismError, tree_from_nested

# payment owed for each outcome level of the four-level double auction
_LEVEL_PAY = {0: Fraction(0), 1: Fraction(4), 2: Fraction(7), 3: Fraction(9)}


def appendix_b(level_payments=None) -> ImplementationTree:
    """Two-agent, four-level mechanism with non-binary outcomes.

    The agents are asked in turns whether their cost is the largest value
    still possible; each yes fixes both outcome levels immediately, and
    the all-no path ends at levels (3, 2).  Payments depend only on the
    own outcome level; ``level_payments`` overrides the level-to-payment
    map (tests use it to break the incentives on purpose).
    """
    pay = dict(_LEVEL_PAY if level_payments is None else level_payments)

    def leaf(a: int, b: int):
        return ("leaf", (a, b), (pay[a], pay[b]))

    dom = tuple(Fraction(v) for v in (1, 2, 3, 4))
    # built inside out from the all-no leaf: (top value, levels after
    # agent 0's yes, levels after agent 1's yes)
    nested = leaf(3, 2)
    rounds = ((2, (2, 1), (2, 2)), (3, (1, 0), (1, 1)), (4, (0, 0), (0, 0)))
    for top, yes0, yes1 in rounds:
        rest = dom[: top - 1]
        nested = ("q", 1, [((dom[top - 1],), leaf(*yes1)), (rest, nested)])
        nested = ("q", 0, [((dom[top - 1],), leaf(*yes0)), (rest, nested)])
    return tree_from_nested(2, [dom, dom], nested)


def english(n: int, d: int) -> ImplementationTree:
    return english_auction_tree(n, list(range(1, d + 1)))


def single_item(n: int, d: int):
    return PSystem.single_item(n), tuple(Fraction(v) for v in range(1, d + 1))


def uniform(n: int, r: int, d: int):
    return PSystem.uniform(n, r), tuple(Fraction(v) for v in range(1, d + 1))


def triangle_graphic(d: int):
    ps = PSystem.graphic([(0, 1), (1, 2), (0, 2)])
    return ps, tuple(Fraction(v) for v in range(1, d + 1))


_REGISTRY = {
    "appendix_b": (appendix_b, 0, "mechanism"),
    "english": (english, 2, "mechanism"),
    "single_item": (single_item, 2, "instance"),
    "uniform": (uniform, 3, "instance"),
    "triangle_graphic": (triangle_graphic, 1, "instance"),
}

_NAME = re.compile(r"^([a-z_]+)(?:\((\s*\d+(?:\s*,\s*\d+)*\s*)\))?$")


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def materialize(name: str):
    """Resolve ``name`` like ``english(3,5)`` to (kind, built object).

    kind is "mechanism" (an ImplementationTree) or "instance"
    (a (PSystem, domain) pair).
    """
    m = _NAME.match(name.strip())
    if not m:
        raise MechanismError(f"unparseable fixture name {name!r}")
    base, argtext = m.groups()
    if base not in _REGISTRY:
        raise MechanismError(
            f"unknown fixture {base!r}; known: {', '.join(fixture_names())}"
        )
    fn, arity, kind = _REGISTRY[base]
    args = [int(a) for a in argtext.split(",")] if argtext else []
    if len(args) != arity:
        raise MechanismError(
            f"fixture {base!r} takes {arity} integer argument(s), got {len(args)}"
        )
    return kind, fn(*args)
