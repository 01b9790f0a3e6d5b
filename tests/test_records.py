"""The value records: read-only named tuples that compare by class."""
from fractions import Fraction as F

import pytest

from ospkit import (
    AlmostOrderedResult,
    CheckResult,
    ClassPartition,
    Constraint,
    EquivalenceReport,
    GreedyResult,
    KLimitedResult,
    LeafNode,
    NegativeCycleWitness,
    OspGraph,
    PoolingFinding,
    ProfileClass,
    QueryClass,
    QueryNode,
    QueryRecord,
    SearchResult,
    StickyResult,
    SynthesisResult,
    TaxationFinding,
    TwoWayReport,
)
from ospkit.model import Record, Verdict

CLASS = ProfileClass(
    agent=0, anchor=3, slice_kind="settled", bit=1,
    boxes=(((F(1),), (F(2), F(3))),), types=(F(1),),
)
CLASS_REPR = (
    "ProfileClass(agent=0, anchor=3, slice_kind='settled', bit=1, "
    "boxes=(((Fraction(1, 1),), (Fraction(2, 1), Fraction(3, 1))),), "
    "types=(Fraction(1, 1),))"
)
CYCLE = NegativeCycleWitness(agent=0, cycle=(0, 1, 0), weight=F(-1, 2))
CYCLE_REPR = (
    "NegativeCycleWitness(agent=0, cycle=(0, 1, 0), weight=Fraction(-1, 2))"
)

# one record of every type, built by keyword, and its repr text as the
# frozen dataclasses these records replace wrote it
SAMPLES = [
    (
        QueryNode(id=0, agent=1, blocks=((F(1),), (F(2), F(5, 2))), children=(1, 2)),
        "QueryNode(id=0, agent=1, blocks=((Fraction(1, 1),), "
        "(Fraction(2, 1), Fraction(5, 2))), children=(1, 2))",
    ),
    (
        LeafNode(id=1, outcome=(F(0), F(1)), payment=(F(-3, 2), F(0))),
        "LeafNode(id=1, outcome=(Fraction(0, 1), Fraction(1, 1)), "
        "payment=(Fraction(-3, 2), Fraction(0, 1)))",
    ),
    (
        Constraint(
            agent=0, node=3, a=(F(1), F(2)), b=(F(2), F(2)), c=F(3, 2),
            lhs=F(1), rhs=F(0),
        ),
        "Constraint(agent=0, node=3, a=(Fraction(1, 1), Fraction(2, 1)), "
        "b=(Fraction(2, 1), Fraction(2, 1)), c=Fraction(3, 2), "
        "lhs=Fraction(1, 1), rhs=Fraction(0, 1))",
    ),
    (
        CheckResult(ok=True, violations=(), truncated=False, checked=4),
        "CheckResult(ok=True, violations=(), truncated=False, checked=4)",
    ),
    (
        AlmostOrderedResult(ok=False, witness=(0, (F(1),), (F(2),), F(2), F(1))),
        "AlmostOrderedResult(ok=False, witness=(0, (Fraction(1, 1),), "
        "(Fraction(2, 1),), Fraction(2, 1), Fraction(1, 1)))",
    ),
    (
        QueryClass(
            node=0, agent=0, is_revelation=False, extremal_side="low",
            is_prefix=True, is_suffix=False, ineffective=False,
            strongly_ineffective=False, only_types=(F(1),),
            strongly_only_types=(), kind="ascending", extra_allowed=True,
        ),
        "QueryClass(node=0, agent=0, is_revelation=False, "
        "extremal_side='low', is_prefix=True, is_suffix=False, "
        "ineffective=False, strongly_ineffective=False, "
        "only_types=(Fraction(1, 1),), strongly_only_types=(), "
        "kind='ascending', extra_allowed=True)",
    ),
    (
        KLimitedResult(ok=False, witness=5, reason="over budget"),
        "KLimitedResult(ok=False, witness=5, reason='over budget')",
    ),
    (
        TaxationFinding(
            node=0, agent=1, a=(F(1), F(2)), c=F(2), d=F(3), case="between",
            detail="x",
        ),
        "TaxationFinding(node=0, agent=1, a=(Fraction(1, 1), Fraction(2, 1)), "
        "c=Fraction(2, 1), d=Fraction(3, 1), case='between', detail='x')",
    ),
    (
        PoolingFinding(node=0, agent=1, t1=F(1), t2=F(2), detail="y"),
        "PoolingFinding(node=0, agent=1, t1=Fraction(1, 1), "
        "t2=Fraction(2, 1), detail='y')",
    ),
    (CLASS, CLASS_REPR),
    (
        ClassPartition(agent=0, horizon=2, classes=(CLASS,), leaf_class={4: 0}),
        f"ClassPartition(agent=0, horizon=2, classes=({CLASS_REPR},), "
        "leaf_class={4: 0})",
    ),
    (
        OspGraph(
            agent=0, horizon=float("inf"), vertices=(CLASS,),
            edges=((0, 0, F(1, 3)),),
        ),
        f"OspGraph(agent=0, horizon=inf, vertices=({CLASS_REPR},), "
        "edges=((0, 0, Fraction(1, 3)),))",
    ),
    (CYCLE, CYCLE_REPR),
    (
        SynthesisResult(ok=False, tree=None, failures=(CYCLE,)),
        f"SynthesisResult(ok=False, tree=None, failures=({CYCLE_REPR},))",
    ),
    (
        StickyResult(ok=True, witness=None),
        "StickyResult(ok=True, witness=None)",
    ),
    (
        EquivalenceReport(agree=True, details=((0, False, False),)),
        "EquivalenceReport(agree=True, details=((0, False, False),))",
    ),
    (
        QueryRecord(
            agent=0, direction="bottom", value=F(1), domain=(F(1), F(2)),
            answer=True,
        ),
        "QueryRecord(agent=0, direction='bottom', value=Fraction(1, 1), "
        "domain=(Fraction(1, 1), Fraction(2, 1)), answer=True)",
    ),
    (
        GreedyResult(chosen=frozenset({1}), excluded=frozenset(), trace=()),
        "GreedyResult(chosen=frozenset({1}), excluded=frozenset(), trace=())",
    ),
    (
        TwoWayReport(ok=False, node=3, reason="neither fashion fits"),
        "TwoWayReport(ok=False, node=3, reason='neither fashion fits')",
    ),
    (
        SearchResult(found=False, tree=None, ratio=None, explored=12),
        "SearchResult(found=False, tree=None, ratio=None, explored=12)",
    ),
]
RECORDS = [record for record, _ in SAMPLES]
IDS = [type(record).__name__ for record in RECORDS]
# a ClassPartition holds its leaf_class dict, so it hashes no more than
# the frozen dataclass did
HASHABLE = [r for r in RECORDS if not isinstance(r, ClassPartition)]


def record_types(base=Record):
    """Every subclass of base, walked down through the subclasses of each."""
    for cls in base.__subclasses__():
        yield cls
        yield from record_types(cls)


def test_every_record_type_is_sampled():
    # Verdict is a field-less base: its subclasses are the record types
    types = [cls for cls in record_types() if cls is not Verdict]
    assert sorted(map(type, RECORDS), key=repr) == sorted(types, key=repr)


@pytest.mark.parametrize(("record", "text"), SAMPLES, ids=IDS)
def test_repr_is_the_dataclass_text(record, text):
    assert repr(record) == text
    assert str(record) == text


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_record_is_a_slotted_named_tuple(record):
    assert isinstance(record, Record) and isinstance(record, tuple)
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_are_read_only(record):
    field = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(record):
    cls = type(record)
    assert cls(*record) == record
    assert cls(**dict(zip(cls._fields, record))) == record


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_equality_is_by_class_and_fields(record):
    twin = type(record)(*record)
    assert twin == record and not twin != record
    assert record != tuple(record) and not record == tuple(record)
    assert tuple(record) != record and not tuple(record) == record
    assert record != list(record)


def test_records_of_different_classes_never_compare_equal():
    # same field count and values, different classes
    a = StickyResult(True, None)
    b = EquivalenceReport(True, None)
    assert a != b and not a == b
    leaf, query = LeafNode(0, (), None), TwoWayReport(0, (), None)
    assert leaf != query
    assert len({a, b, leaf, query}) == 4


def test_unequal_fields_compare_unequal():
    assert LeafNode(1, (F(1),)) != LeafNode(1, (F(0),))
    assert QueryRecord(0, "bottom", F(1), (), True) != QueryRecord(
        0, "bottom", F(1), (), False
    )


def test_comparison_with_another_type_is_left_to_it():
    class Anything:
        def __eq__(self, other):
            return True

    assert RECORDS[0] == Anything()
    assert not RECORDS[0] != Anything()


@pytest.mark.parametrize("record", HASHABLE, ids=[type(r).__name__ for r in HASHABLE])
def test_records_stay_hashable(record):
    twin = type(record)(*record)
    assert hash(twin) == hash(record)
    assert {record: 1}[twin] == 1


def test_a_record_holding_a_dict_is_unhashable():
    partition = next(r for r in RECORDS if isinstance(r, ClassPartition))
    with pytest.raises(TypeError):
        hash(partition)


def test_defaults_and_properties():
    leaf = LeafNode(id=4, outcome=(F(1),))
    assert leaf.payment is None and leaf == LeafNode(4, (F(1),), None)
    assert leaf.kind == "leaf"
    assert QueryNode(0, 0, ((F(1),), (F(2),)), (1, 2)).kind == "query"
    assert CLASS.members == ((F(1), F(2)), (F(1), F(3)))
    with pytest.raises(TypeError):
        QueryNode(id=0, agent=0, blocks=())


@pytest.mark.parametrize(
    ("cls", "fields"),
    [
        (CheckResult, ((), False, 0)),
        (AlmostOrderedResult, (None,)),
        (KLimitedResult, (None, None)),
        (SynthesisResult, (None, ())),
        (StickyResult, (None,)),
        (TwoWayReport, (None, None)),
        (SearchResult, (None, None, 0)),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else None,
)
def test_results_are_truthy_by_their_verdict(cls, fields):
    assert issubclass(cls, Verdict)
    assert bool(cls(True, *fields)) is True
    assert bool(cls(False, *fields)) is False


def test_other_records_are_always_truthy():
    assert EquivalenceReport(agree=False, details=())
    assert GreedyResult(frozenset(), frozenset(), ())
